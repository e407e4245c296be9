#include "bpu/btb.h"

#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

Btb::Btb(const BtbConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.numEntries % cfg_.ways != 0)
        fdip_fatal("BTB entries %u not divisible by ways %u",
                   cfg_.numEntries, cfg_.ways);
    numSets_ = cfg_.numEntries / cfg_.ways;
    if (!isPowerOf2(numSets_))
        fdip_fatal("BTB set count %u must be a power of two", numSets_);
    setBits_ = floorLog2(numSets_);
    entries_.assign(cfg_.numEntries, Entry{});
}

FDIP_HOT_PATH std::uint32_t
Btb::setOf(Addr pc) const
{
    // 16B-indexed: drop the low 4 bits so all branches in a 16B chunk
    // share a set; mix upper bits to spread large footprints.
    const std::uint64_t chunk = pc >> 4;
    return static_cast<std::uint32_t>(
        (chunk ^ (chunk >> setBits_)) & (numSets_ - 1));
}

FDIP_HOT_PATH Btb::Entry *
Btb::find(Addr pc)
{
    Entry *row = &entries_[std::size_t{setOf(pc)} * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (row[w].valid && row[w].pc == pc)
            return &row[w];
    }
    return nullptr;
}

FDIP_HOT_PATH const Btb::Entry *
Btb::find(Addr pc) const
{
    return const_cast<Btb *>(this)->find(pc);
}

FDIP_HOT_PATH std::optional<BtbHit>
Btb::lookup(Addr pc)
{
    ++lookups_;
    Entry *e = find(pc);
    if (e == nullptr)
        return std::nullopt;
    ++hits_;
    e->lru = ++lruClock_;
    return BtbHit{e->kind, e->target};
}

FDIP_HOT_PATH std::optional<BtbHit>
Btb::peek(Addr pc) const
{
    const Entry *e = find(pc);
    if (e == nullptr)
        return std::nullopt;
    return BtbHit{e->kind, e->target};
}

FDIP_HOT_PATH void
Btb::install(Addr pc, InstClass kind, Addr target, bool taken)
{
    Entry *e = find(pc);
    if (e != nullptr) {
        // Refresh: indirect branches update their last target.
        e->kind = kind;
        e->target = target;
        e->lru = ++lruClock_;
        return;
    }

    if (cfg_.allocateTakenOnly && !taken)
        return;

    Entry *row = &entries_[std::size_t{setOf(pc)} * cfg_.ways];
    Entry *victim = &row[0];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (!row[w].valid) {
            victim = &row[w];
            break;
        }
        if (row[w].lru < victim->lru)
            victim = &row[w];
    }
    if (victim->valid)
        ++evictions_;
    ++allocations_;
    victim->valid = true;
    victim->pc = pc;
    victim->kind = kind;
    victim->target = target;
    victim->lru = ++lruClock_;
}

FDIP_HOT_PATH void
Btb::invalidate(Addr pc)
{
    Entry *e = find(pc);
    if (e != nullptr)
        e->valid = false;
}

StorageSchema
Btb::storageSchema(const std::string &structure) const
{
    const std::uint64_t entry_bits = btbEntryBits(cfg_);
    const std::uint64_t fixed =
        1 + kBtbKindBits + ceilLog2(cfg_.ways) + kBtbTargetBits;
    if (fixed > entry_bits)
        fdip_fatal("BTB bytesPerEntry %u too small for its fixed fields",
                   cfg_.bytesPerEntry);
    StorageSchema s(structure);
    s.add("valid", 1, cfg_.numEntries)
        .add("kind", kBtbKindBits, cfg_.numEntries)
        .add("lru", ceilLog2(cfg_.ways), cfg_.numEntries)
        .add("target", kBtbTargetBits, cfg_.numEntries)
        .add("tag", entry_bits - fixed, cfg_.numEntries);
    return s;
}

void
Btb::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".lookups", [this] { return lookups_; });
    reg.addCounter(prefix + ".hits", [this] { return hits_; });
    reg.addCounter(prefix + ".allocations",
                   [this] { return allocations_; });
    reg.addCounter(prefix + ".evictions", [this] { return evictions_; });
    reg.addCounter(prefix + ".storage_bits",
                   [this] { return storageBits(); });
    reg.addDerived(prefix + ".hit_rate",
                   [this] {
                       return lookups_ == 0
                                  ? 0.0
                                  : static_cast<double>(hits_) /
                                        static_cast<double>(lookups_);
                   },
                   "hits / lookups");
}

} // namespace fdip
