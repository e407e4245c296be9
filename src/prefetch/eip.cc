#include "prefetch/eip.h"

#include "util/bits.h"
#include "util/hotpath.h"
#include "util/log.h"

namespace fdip
{

EipConfig
EipConfig::sized128KB()
{
    // ~5.9K entries x ~22.4B = ~129KB (the original's budget).
    EipConfig cfg;
    cfg.sets = 256;
    cfg.ways = 23;
    return cfg;
}

EipConfig
EipConfig::sized27KB()
{
    // ~1.3K entries x ~22.4B = ~28KB (the realistic budget).
    EipConfig cfg;
    cfg.sets = 128;
    cfg.ways = 10;
    return cfg;
}

EipPrefetcher::EipPrefetcher(const EipConfig &cfg, const char *name)
    : name_(name),
      cfg_(cfg),
      table_(std::size_t{cfg.sets} * cfg.ways),
      history_(cfg.historyDepth)
{
    if (cfg_.destsPerEntry < 1 || cfg_.destsPerEntry > kMaxDests) {
        fdip_fatal("EIP destsPerEntry %u must be 1..%u", cfg_.destsPerEntry,
                   kMaxDests);
    }
    // The set and history indices mask rather than divide.
    if (!isPowerOf2(cfg_.sets))
        fdip_fatal("EIP set count %u must be a power of two", cfg_.sets);
    if (!isPowerOf2(cfg_.historyDepth)) {
        fdip_fatal("EIP history depth %u must be a power of two",
                   cfg_.historyDepth);
    }
    if (cfg_.ways == 0)
        fdip_fatal("EIP needs at least one way");
}

FDIP_HOT_PATH std::uint32_t
EipPrefetcher::setOf(Addr line) const
{
    const std::uint64_t l = line / kCacheLineBytes;
    return static_cast<std::uint32_t>(mix64(l) & (cfg_.sets - 1));
}

FDIP_HOT_PATH EipPrefetcher::Entry *
EipPrefetcher::find(Addr line)
{
    Entry *row = &table_[std::size_t{setOf(line)} * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (row[w].valid && row[w].srcLine == line)
            return &row[w];
    }
    return nullptr;
}

FDIP_HOT_PATH EipPrefetcher::Entry &
EipPrefetcher::allocate(Addr line)
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

FDIP_HOT_PATH void
EipPrefetcher::entangle(Addr src, Addr dst)
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

FDIP_HOT_PATH void
EipPrefetcher::prefetchChain(Addr line_addr)
{
    // Follow the entangled chain for extra lead. The walk stops once
    // the queue is full, which is exact: find() is pure, nothing pops
    // during a lookup, and enqueueing into a full queue does nothing.
    Addr frontier[16];
    unsigned num_frontier = 0;
    frontier[num_frontier++] = line_addr;
    for (unsigned depth = 0; depth < cfg_.chainDepth; ++depth) {
        Addr next[16];
        unsigned num_next = 0;
        for (unsigned f = 0; f < num_frontier; ++f) {
            if (queueFull())
                return;
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
            return;
    }
}

FDIP_HOT_PATH void
EipPrefetcher::onDemandLookup(Addr line_addr, bool hit,
                              Cycle now) FDIP_HOT_NOEXCEPT
{
    const bool new_line = line_addr != lastLine_;
    lastLine_ = line_addr;

    if (new_line) {
        // Record in the access history (source candidates).
        history_[histPos_] = HistoryRecord{line_addr, now};
        histPos_ = (histPos_ + 1) & (history_.size() - 1);

        // Trigger: prefetch everything entangled with this line.
        prefetchChain(line_addr);
    }

    if (!hit) {
        // Entangle with two sources: the youngest one old enough to
        // hide the miss latency, and the immediately preceding access
        // (short lead, catches path variations).
        Addr timely_src = kNoAddr;
        Addr recent_src = kNoAddr;
        const std::size_t hist_mask = history_.size() - 1;
        for (std::size_t i = 1; i <= history_.size(); ++i) {
            const HistoryRecord &h = history_[(histPos_ - i) & hist_mask];
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

        // EIP's built-in next-line component.
        enqueuePrefetch(line_addr + kCacheLineBytes);
    }
}

std::uint64_t
EipPrefetcher::storageBits() const
{
    // valid + ~34b source tag + dests (34b each) + bookkeeping.
    const std::uint64_t entry_bits =
        1 + 34 + 34ull * cfg_.destsPerEntry + 8;
    return std::uint64_t{cfg_.sets} * cfg_.ways * entry_bits;
}

} // namespace fdip
