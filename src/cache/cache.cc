#include "cache/cache.h"

#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg), rng_(0xcac4e + cfg.sizeBytes)
{
    if (!isPowerOf2(cfg_.lineBytes))
        fdip_fatal("%s: line size must be a power of two",
                   cfg_.name.c_str());
    const std::uint64_t lines = cfg_.sizeBytes / cfg_.lineBytes;
    if (lines % cfg_.ways != 0)
        fdip_fatal("%s: %llu lines not divisible by %u ways",
                   cfg_.name.c_str(),
                   static_cast<unsigned long long>(lines), cfg_.ways);
    numSets_ = static_cast<unsigned>(lines / cfg_.ways);
    if (!isPowerOf2(numSets_))
        fdip_fatal("%s: set count %u must be a power of two",
                   cfg_.name.c_str(), numSets_);
    lineShift_ = floorLog2(cfg_.lineBytes);
    lines_.assign(lines, Line{});
}

FDIP_HOT_PATH std::uint32_t
Cache::setOf(Addr addr) const
{
    return static_cast<std::uint32_t>((addr >> lineShift_) &
                                      (numSets_ - 1));
}

FDIP_HOT_PATH Cache::Line *
Cache::findLine(Addr addr)
{
    const Addr tag = addr >> lineShift_;
    Line *row = &lines_[std::size_t{setOf(addr)} * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (row[w].valid && row[w].tag == tag)
            return &row[w];
    }
    return nullptr;
}

FDIP_HOT_PATH const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

FDIP_HOT_PATH std::optional<unsigned>
Cache::probe(Addr addr) FDIP_HOT_NOEXCEPT
{
    ++tagAccesses_;
    const Line *l = findLine(addr);
    if (l == nullptr) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    const Line *row = &lines_[std::size_t{setOf(addr)} * cfg_.ways];
    return static_cast<unsigned>(l - row);
}

FDIP_HOT_PATH std::optional<unsigned>
Cache::access(Addr addr) FDIP_HOT_NOEXCEPT
{
    ++tagAccesses_;
    Line *l = findLine(addr);
    if (l == nullptr) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    l->lru = ++lruClock_;
    Line *row = &lines_[std::size_t{setOf(addr)} * cfg_.ways];
    return static_cast<unsigned>(l - row);
}

FDIP_HOT_PATH std::optional<unsigned>
Cache::access(Addr addr, unsigned way_hint) FDIP_HOT_NOEXCEPT
{
    // A line lives in one way of its set, so a tag match at the hinted
    // way is the hit the scan would find.
    Line &l = lines_[std::size_t{setOf(addr)} * cfg_.ways + way_hint];
    if (!l.valid || l.tag != addr >> lineShift_)
        return access(addr);
    ++tagAccesses_;
    ++hits_;
    l.lru = ++lruClock_;
    return way_hint;
}

FDIP_HOT_PATH void
Cache::touch(Addr addr) FDIP_HOT_NOEXCEPT
{
    Line *l = findLine(addr);
    if (l != nullptr)
        l->lru = ++lruClock_;
}

FDIP_HOT_PATH Addr
Cache::fill(Addr addr, unsigned *way_out) FDIP_HOT_NOEXCEPT
{
    Line *existing = findLine(addr);
    if (existing != nullptr) {
        existing->lru = ++lruClock_;
        if (way_out != nullptr) {
            Line *row = &lines_[std::size_t{setOf(addr)} * cfg_.ways];
            *way_out = static_cast<unsigned>(existing - row);
        }
        return kNoAddr;
    }

    Line *row = &lines_[std::size_t{setOf(addr)} * cfg_.ways];
    Line *victim = nullptr;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (!row[w].valid) {
            victim = &row[w];
            break;
        }
    }
    if (victim == nullptr) {
        if (cfg_.replacement == ReplacementPolicy::kRandom) {
            victim = &row[rng_.below(cfg_.ways)];
        } else {
            victim = &row[0];
            for (unsigned w = 1; w < cfg_.ways; ++w) {
                if (row[w].lru < victim->lru)
                    victim = &row[w];
            }
        }
    }

    Addr evicted = kNoAddr;
    if (victim->valid) {
        ++evictions_;
        evicted = (victim->tag << lineShift_);
    }
    victim->valid = true;
    victim->tag = addr >> lineShift_;
    victim->lru = ++lruClock_;
    if (way_out != nullptr)
        *way_out = static_cast<unsigned>(victim - row);
    return evicted;
}

FDIP_HOT_PATH bool
Cache::contains(Addr addr) const FDIP_HOT_NOEXCEPT
{
    return findLine(addr) != nullptr;
}

FDIP_HOT_PATH void
Cache::invalidate(Addr addr) FDIP_HOT_NOEXCEPT
{
    Line *l = findLine(addr);
    if (l != nullptr)
        l->valid = false;
}

void
Cache::reset()
{
    for (auto &l : lines_)
        l.valid = false;
}

std::uint64_t
Cache::storageBitsFor(const CacheConfig &cfg)
{
    return storageSchemaFor(cfg).totalBits();
}

StorageSchema
Cache::storageSchemaFor(const CacheConfig &cfg)
{
    const std::uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    const std::uint64_t sets = lines / cfg.ways;
    const unsigned offsetBits = floorLog2(cfg.lineBytes);
    const unsigned setBits = floorLog2(sets);
    const unsigned tagBits = kSchemaAddrBits - offsetBits - setBits;
    StorageSchema s(cfg.name);
    s.add("data", std::uint64_t{cfg.lineBytes} * 8, lines)
        .add("tag", tagBits, lines)
        .add("valid", 1, lines);
    if (cfg.replacement == ReplacementPolicy::kLru)
        s.add("lru", ceilLog2(cfg.ways), lines);
    else
        s.add("victim_lfsr", 64); // The replacement Rng's state.
    return s;
}

void
Cache::resetStats()
{
    tagAccesses_ = 0;
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

void
Cache::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".tag_accesses",
                   [this] { return tagAccesses_; },
                   "tag-array probes (demand + prefetch)");
    reg.addCounter(prefix + ".hits", [this] { return hits_; });
    reg.addCounter(prefix + ".misses", [this] { return misses_; });
    reg.addCounter(prefix + ".evictions", [this] { return evictions_; });
    reg.addCounter(prefix + ".storage_bits",
                   [this] { return storageBits(); },
                   "modeled storage (data + tags + valid)");
    reg.addDerived(prefix + ".miss_rate",
                   [this] {
                       return tagAccesses_ == 0
                                  ? 0.0
                                  : static_cast<double>(misses_) /
                                        static_cast<double>(tagAccesses_);
                   },
                   "misses / tag accesses");
}

} // namespace fdip
