#include "bpu/ittage.h"

#include <cmath>

#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

Ittage::Ittage(const IttageConfig &cfg, BranchHistory &hist)
    : cfg_(cfg), hist_(hist), rng_(0x697474616765ULL)
{
    if (cfg_.numTables > IttagePrediction::kMaxTables)
        fdip_fatal("ITTAGE numTables %u exceeds metadata capacity",
                   cfg_.numTables);

    const double ratio =
        std::pow(static_cast<double>(cfg_.maxHistory) / cfg_.minHistory,
                 1.0 / (cfg_.numTables - 1));
    histLens_.resize(cfg_.numTables);
    double len = cfg_.minHistory;
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        histLens_[t] = std::max<unsigned>(
            static_cast<unsigned>(len + 0.5),
            t == 0 ? cfg_.minHistory : histLens_[t - 1] + 1);
        len *= ratio;
    }

    const unsigned bits_per_event = hist_.bitsPerEvent();
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        const unsigned hist_bits = histLens_[t] * bits_per_event;
        idxFold_.push_back(hist_.registerFold(hist_bits, cfg_.logEntries));
        tagFoldA_.push_back(hist_.registerFold(hist_bits, cfg_.tagBits));
        tagFoldB_.push_back(
            hist_.registerFold(hist_bits, cfg_.tagBits - 1));
    }

    tables_.assign(cfg_.numTables,
                   std::vector<Entry>(std::size_t{1} << cfg_.logEntries));
    base_.assign(std::size_t{1} << cfg_.logBaseEntries, kNoAddr);
}

FDIP_HOT_PATH std::uint32_t
Ittage::tableIndex(Addr pc, unsigned t) const
{
    const std::uint64_t h = (pc >> 2) ^ (pc >> (2 + cfg_.logEntries)) ^
                            hist_.folded(idxFold_[t]) ^
                            (static_cast<std::uint64_t>(t) * 0x51ed);
    return static_cast<std::uint32_t>(h & mask(cfg_.logEntries));
}

FDIP_HOT_PATH std::uint16_t
Ittage::tableTag(Addr pc, unsigned t) const
{
    const std::uint64_t h = (pc >> 2) ^ hist_.folded(tagFoldA_[t]) ^
                            (hist_.folded(tagFoldB_[t]) << 1);
    return static_cast<std::uint16_t>(h & mask(cfg_.tagBits));
}

FDIP_HOT_PATH Addr
Ittage::predict(Addr pc, IttagePrediction &meta) const
{
    meta.providerConfident = false;
    meta.baseIndex = static_cast<std::uint32_t>(
        ((pc >> 2) ^ (pc >> (2 + cfg_.logBaseEntries))) &
        mask(cfg_.logBaseEntries));

    int provider = -1;
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        meta.indices[t] = tableIndex(pc, t);
        meta.tags[t] = tableTag(pc, t);
        const Entry &e = tables_[t][meta.indices[t]];
        if (e.valid && e.tag == meta.tags[t])
            provider = static_cast<int>(t);
    }

    meta.provider = provider;
    if (provider >= 0) {
        const Entry &e = tables_[provider][meta.indices[provider]];
        meta.providerConfident = e.conf.value() >= 1;
        if (meta.providerConfident) {
            meta.target = e.target;
            return meta.target;
        }
    }
    meta.target = base_[meta.baseIndex];
    return meta.target;
}

FDIP_HOT_PATH void
Ittage::update(Addr pc, Addr target, const IttagePrediction &meta)
{
    (void)pc;
    const bool mispredicted = meta.target != target;

    base_[meta.baseIndex] = target;

    if (meta.provider >= 0) {
        Entry &e = tables_[meta.provider][meta.indices[meta.provider]];
        if (e.target == target) {
            e.conf.increment();
            e.useful.increment();
        } else {
            if (e.conf.value() == 0)
                e.target = target;
            else
                e.conf.decrement();
        }
    }

    // Allocate on misprediction in a longer-history table.
    if (mispredicted &&
        meta.provider < static_cast<int>(cfg_.numTables) - 1) {
        const unsigned start = static_cast<unsigned>(meta.provider + 1);
        unsigned first = start;
        if (start + 1 < cfg_.numTables && (rng_.next() & 1))
            first = start + 1;
        for (unsigned t = first; t < cfg_.numTables; ++t) {
            Entry &e = tables_[t][meta.indices[t]];
            if (!e.valid || e.useful.value() == 0) {
                e.valid = true;
                e.tag = static_cast<std::uint16_t>(meta.tags[t]);
                e.target = target;
                e.conf.set(0);
                e.useful.set(0);
                break;
            }
            e.useful.decrement();
        }
    }
}

std::uint64_t
Ittage::storageBits() const
{
    return ittageStorageBits(cfg_);
}

StorageSchema
Ittage::storageSchema() const
{
    const std::uint64_t tagged =
        cfg_.numTables * (std::uint64_t{1} << cfg_.logEntries);
    StorageSchema s("ITTAGE");
    s.add("tagged.tag", cfg_.tagBits, tagged)
        .add("tagged.valid", 1, tagged)
        .add("tagged.target", kSchemaAddrBits, tagged)
        .add("tagged.conf", kIttageConfBits, tagged)
        .add("tagged.useful", kIttageUsefulBits, tagged)
        .add("base.target", kSchemaAddrBits,
             std::uint64_t{1} << cfg_.logBaseEntries)
        .add("alloc_lfsr", kIttageAllocRngBits);
    return s;
}

} // namespace fdip
