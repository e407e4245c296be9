/**
 * @file
 * The instruction-prefetcher interface, modeled on the IPC-1 framework:
 * prefetchers observe the L1I demand stream (and, for some designs,
 * the committed branch stream) and emit candidate line addresses that
 * the fetch pipeline turns into prefetch fills.
 */

#ifndef FDIP_PREFETCH_PREFETCHER_H_
#define FDIP_PREFETCH_PREFETCHER_H_

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "obs/stat_registry.h"
#include "trace/inst.h"
#include "util/hotpath.h"
#include "util/state.h"
#include "util/types.h"

namespace fdip
{

/**
 * Base class for instruction prefetchers.
 *
 * Concrete prefetchers enqueue line addresses via enqueuePrefetch();
 * the fetch pipeline drains the queue, probes the L1I tag array
 * (counted — the paper's Fig. 9 tag-access analysis depends on this),
 * and issues fills for misses.
 */
class InstPrefetcher
{
  public:
    virtual ~InstPrefetcher() = default;

    /** Display name. */
    virtual const char *name() const = 0;

    /** Modeled metadata storage in bits. */
    virtual std::uint64_t storageBits() const = 0;

    /**
     * Called once by the core after construction. Prefetchers that
     * interact with frontend structures (e.g. BTB prefetching, which
     * pre-decodes filled lines and installs branches) grab what they
     * need here.
     */
    virtual void
    bind(class Bpu &bpu, const class ProgramImage &image)
    {
        (void)bpu;
        (void)image;
    }

    /**
     * A demand L1I lookup for @p line_addr (64B-aligned) was performed.
     * @p hit tells the outcome. Called in fetch order.
     */
    FDIP_HOT_PATH virtual void
    onDemandLookup(Addr line_addr, bool hit, Cycle now) FDIP_HOT_NOEXCEPT
    {
        (void)line_addr;
        (void)hit;
        (void)now;
    }

    /** A fill for @p line_addr completed (@p was_prefetch tells how it
     *  was initiated). */
    FDIP_HOT_PATH virtual void
    onFillComplete(Addr line_addr, bool was_prefetch,
                   Cycle now) FDIP_HOT_NOEXCEPT
    {
        (void)line_addr;
        (void)was_prefetch;
        (void)now;
    }

    /**
     * A correct-path branch resolved. Used by call/return-correlated
     * prefetchers (D-JOLT) and the discontinuity predictor.
     */
    FDIP_HOT_PATH virtual void
    onBranch(Addr pc, InstClass kind, Addr target,
             bool taken) FDIP_HOT_NOEXCEPT
    {
        (void)pc;
        (void)kind;
        (void)target;
        (void)taken;
    }

    /**
     * Registers this prefetcher's stats under @p prefix (the core uses
     * "pf.<name>"). The base registers the universal stats; designs
     * with extra counters override, call the base, and add theirs.
     */
    virtual void
    registerStats(StatRegistry &reg, const std::string &prefix) const
    {
        reg.addCounter(prefix + ".storage_bits",
                       [this] { return storageBits(); },
                       "modeled metadata storage");
        reg.addCounter(prefix + ".pending",
                       [this] {
                           return std::uint64_t{pendingPrefetches()};
                       },
                       "candidates queued, not yet drained");
    }

    /** Pops the next prefetch candidate; kNoAddr when empty. */
    FDIP_HOT_PATH Addr
    popPrefetch() noexcept
    {
        if (count_ == 0)
            return kNoAddr;
        const Addr a = queue_[head_];
        bucketSlots_[bucketOf(a)] &= ~(std::uint64_t{1} << head_);
        head_ = (head_ + 1) % kMaxQueue;
        --count_;
        return a;
    }

    /** Pending prefetch candidates. */
    [[nodiscard]] std::size_t pendingPrefetches() const noexcept
    {
        return count_;
    }

  protected:
    /** True when enqueuePrefetch() would drop every candidate. */
    [[nodiscard]] FDIP_HOT_PATH bool queueFull() const noexcept
    {
        return count_ >= kMaxQueue;
    }

    /** Enqueues a candidate prefetch line (deduplicated FIFO, bounded).
     *  The queue is a fixed in-place ring — models a hardware queue and
     *  keeps the per-tick path allocation-free. The duplicate check
     *  compares only the occupied slots of the line's bucket. */
    FDIP_HOT_PATH void
    enqueuePrefetch(Addr line_addr) noexcept
    {
        if (queueFull())
            return;
        std::uint64_t &slots = bucketSlots_[bucketOf(line_addr)];
        for (std::uint64_t s = slots; s != 0; s &= s - 1) {
            if (queue_[static_cast<unsigned>(std::countr_zero(s))] ==
                line_addr)
                return;
        }
        const std::size_t tail = (head_ + count_) % kMaxQueue;
        queue_[tail] = line_addr;
        slots |= std::uint64_t{1} << tail;
        ++count_;
    }

  private:
    static constexpr std::size_t kMaxQueue = 64;
    static constexpr std::size_t kBuckets = 64;
    static_assert(kMaxQueue <= 64, "a bucket's slot set is one word");

    /** Dedup bucket of a line: its low line-number bits. */
    FDIP_HOT_PATH static constexpr std::size_t
    bucketOf(Addr line_addr) noexcept
    {
        return (line_addr / kCacheLineBytes) % kBuckets;
    }

    FDIP_STATE_MICRO std::array<Addr, kMaxQueue> queue_{};
    /** Per bucket, the set of occupied slots holding its lines. */
    FDIP_STATE_MICRO std::array<std::uint64_t, kBuckets> bucketSlots_{};
    FDIP_STATE_MICRO std::size_t head_ = 0;
    FDIP_STATE_MICRO std::size_t count_ = 0;
};

/**
 * The trivial "no prefetching" prefetcher.
 */
class NullPrefetcher final : public InstPrefetcher
{
  public:
    const char *name() const override { return "none"; }
    std::uint64_t storageBits() const override { return 0; }
};

} // namespace fdip

#endif // FDIP_PREFETCH_PREFETCHER_H_
