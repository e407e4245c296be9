/**
 * @file
 * Obviously-correct reference models of the prefetch path, kept as
 * first written: the prefetch queue deduplicates by a linear scan of
 * every queued slot, and the entangling prefetcher indexes its sets
 * and history ring with `%` and walks the entangled chain to its end
 * whether or not the queue has room. The lockstep tests drive them
 * beside the real prefetchers and compare every popped candidate.
 */

#ifndef FDIP_TESTS_PREFETCH_REFERENCE_H_
#define FDIP_TESTS_PREFETCH_REFERENCE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "prefetch/eip.h"
#include "util/bits.h"
#include "util/types.h"

namespace fdip::test
{

/** The bounded, deduplicated FIFO of prefetch candidates. */
class ReferencePrefetcher
{
  public:
    virtual ~ReferencePrefetcher() = default;

    virtual void onDemandLookup(Addr line_addr, bool hit, Cycle now) = 0;

    Addr
    popPrefetch()
    {
        if (count_ == 0)
            return kNoAddr;
        const Addr a = queue_[head_];
        head_ = (head_ + 1) % kMaxQueue;
        --count_;
        return a;
    }

    std::size_t pendingPrefetches() const { return count_; }

  protected:
    void
    enqueuePrefetch(Addr line_addr)
    {
        if (count_ >= kMaxQueue)
            return;
        for (std::size_t i = 0; i < count_; ++i)
            if (queue_[(head_ + i) % kMaxQueue] == line_addr)
                return;
        queue_[(head_ + count_) % kMaxQueue] = line_addr;
        ++count_;
    }

  private:
    static constexpr std::size_t kMaxQueue = 64;
    std::array<Addr, kMaxQueue> queue_{};
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/** Next-line prefetching of @p degree lines on every miss. */
class ReferenceNextLine final : public ReferencePrefetcher
{
  public:
    explicit ReferenceNextLine(unsigned degree) : degree_(degree) {}

    void
    onDemandLookup(Addr line_addr, bool hit, Cycle now) override
    {
        (void)now;
        if (hit)
            return;
        for (unsigned d = 1; d <= degree_; ++d)
            enqueuePrefetch(line_addr + d * kCacheLineBytes);
    }

  private:
    unsigned degree_;
};

/** The entangling prefetcher. */
class ReferenceEip final : public ReferencePrefetcher
{
  public:
    explicit ReferenceEip(const EipConfig &cfg)
        : cfg_(cfg),
          table_(std::size_t{cfg.sets} * cfg.ways),
          history_(cfg.historyDepth)
    {
    }

    void
    onDemandLookup(Addr line_addr, bool hit, Cycle now) override
    {
        const bool new_line = line_addr != lastLine_;
        lastLine_ = line_addr;

        if (new_line) {
            history_[histPos_] = HistoryRecord{line_addr, now};
            histPos_ = (histPos_ + 1) % history_.size();

            Addr frontier[16];
            unsigned num_frontier = 0;
            frontier[num_frontier++] = line_addr;
            for (unsigned depth = 0; depth < cfg_.chainDepth; ++depth) {
                Addr next[16];
                unsigned num_next = 0;
                for (unsigned f = 0; f < num_frontier; ++f) {
                    const Entry *e = find(frontier[f]);
                    if (e == nullptr)
                        continue;
                    for (unsigned i = 0; i < e->numDests; ++i) {
                        enqueuePrefetch(e->dests[i]);
                        if (num_next < 16)
                            next[num_next++] = e->dests[i];
                    }
                }
                num_frontier = num_next;
                for (unsigned i = 0; i < num_next; ++i)
                    frontier[i] = next[i];
                if (num_frontier == 0)
                    break;
            }
        }

        if (!hit) {
            Addr timely_src = kNoAddr;
            Addr recent_src = kNoAddr;
            for (std::size_t i = 1; i <= history_.size(); ++i) {
                const HistoryRecord &h =
                    history_[(histPos_ + history_.size() - i) %
                             history_.size()];
                if (h.line == kNoAddr)
                    break;
                if (h.line == line_addr)
                    continue;
                if (recent_src == kNoAddr)
                    recent_src = h.line;
                timely_src = h.line;
                if (h.when + cfg_.entangleLatency <= now)
                    break;
            }
            if (timely_src != kNoAddr)
                entangle(timely_src, line_addr);
            if (recent_src != kNoAddr && recent_src != timely_src)
                entangle(recent_src, line_addr);

            enqueuePrefetch(line_addr + kCacheLineBytes);
        }
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr srcLine = kNoAddr;
        std::array<Addr, 4> dests{};
        std::uint8_t numDests = 0;
        std::uint8_t nextVictim = 0;
        std::uint64_t lru = 0;
    };

    struct HistoryRecord
    {
        Addr line = kNoAddr;
        Cycle when = 0;
    };

    std::uint32_t
    setOf(Addr line) const
    {
        const std::uint64_t l = line / kCacheLineBytes;
        return static_cast<std::uint32_t>(mix64(l) % cfg_.sets);
    }

    Entry *
    find(Addr line)
    {
        Entry *row = &table_[std::size_t{setOf(line)} * cfg_.ways];
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (row[w].valid && row[w].srcLine == line)
                return &row[w];
        }
        return nullptr;
    }

    Entry &
    allocate(Addr line)
    {
        Entry *row = &table_[std::size_t{setOf(line)} * cfg_.ways];
        Entry *victim = &row[0];
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (!row[w].valid) {
                victim = &row[w];
                break;
            }
            if (row[w].lru < victim->lru)
                victim = &row[w];
        }
        *victim = Entry{};
        victim->valid = true;
        victim->srcLine = line;
        victim->lru = ++lruClock_;
        return *victim;
    }

    void
    entangle(Addr src, Addr dst)
    {
        Entry *e = find(src);
        if (e == nullptr)
            e = &allocate(src);
        e->lru = ++lruClock_;
        for (unsigned i = 0; i < e->numDests; ++i) {
            if (e->dests[i] == dst)
                return;
        }
        if (e->numDests < cfg_.destsPerEntry) {
            e->dests[e->numDests++] = dst;
        } else {
            e->dests[e->nextVictim] = dst;
            e->nextVictim = static_cast<std::uint8_t>(
                (e->nextVictim + 1) % cfg_.destsPerEntry);
        }
    }

    EipConfig cfg_;
    std::vector<Entry> table_;
    std::vector<HistoryRecord> history_;
    std::size_t histPos_ = 0;
    std::uint64_t lruClock_ = 0;
    Addr lastLine_ = kNoAddr;
};

} // namespace fdip::test

#endif // FDIP_TESTS_PREFETCH_REFERENCE_H_
