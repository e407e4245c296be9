#include "bpu/tage.h"

#include <cmath>

#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

Tage::Tage(const TageConfig &cfg, BranchHistory &hist)
    : cfg_(cfg),
      hist_(hist),
      useAltOnNa_(4, 0),
      rng_(0x7467652d726e67ULL) // Fixed seed: deterministic allocation.
{
    if (cfg_.numTables > TagePrediction::kMaxTables)
        fdip_fatal("TAGE numTables %u exceeds metadata capacity",
                   cfg_.numTables);

    // Geometric history lengths between minHistory and maxHistory.
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
        idxFold_[t] = static_cast<std::uint8_t>(
            hist_.registerFold(hist_bits, cfg_.logEntries));
        tagFoldA_[t] = static_cast<std::uint8_t>(
            hist_.registerFold(hist_bits, cfg_.tagBits));
        tagFoldB_[t] = static_cast<std::uint8_t>(
            hist_.registerFold(hist_bits, cfg_.tagBits - 1));
    }

    tables_.assign(cfg_.numTables,
                   std::vector<Entry>(std::size_t{1} << cfg_.logEntries));
    base_.assign(std::size_t{1} << cfg_.logBaseEntries, SatCounter(2, 1));
}

FDIP_HOT_PATH bool
Tage::predict(Addr pc, TagePrediction &meta) const
{
    meta.usedAlt = false;
    meta.baseIndex = static_cast<std::uint32_t>(
        ((pc >> 2) ^ (pc >> (2 + cfg_.logBaseEntries))) &
        mask(cfg_.logBaseEntries));
    const bool base_pred = base_[meta.baseIndex].taken();

    // Index and tag each table, and find the two longest-history
    // matching tables.
    const std::uint64_t pc_index = (pc >> 2) ^ (pc >> (2 + cfg_.logEntries));
    const std::uint64_t pc_tag = pc >> 2;
    const std::uint64_t index_mask = mask(cfg_.logEntries);
    const std::uint64_t tag_mask = mask(cfg_.tagBits);
    int provider = -1;
    int alt = -1;
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        const auto index = static_cast<std::uint32_t>(
            (pc_index ^ hist_.folded(idxFold_[t]) ^
             (std::uint64_t{t} << 3)) &
            index_mask);
        const auto tag = static_cast<std::uint32_t>(
            (pc_tag ^ hist_.folded(tagFoldA_[t]) ^
             (std::uint64_t{hist_.folded(tagFoldB_[t])} << 1)) &
            tag_mask);
        meta.indices[t] = index;
        meta.tags[t] = tag;
        if (tables_[t][index].tag == tag) {
            alt = provider;
            provider = static_cast<int>(t);
        }
    }

    meta.provider = provider;
    meta.altProvider = alt;
    meta.altPred = alt >= 0
                       ? tables_[alt][meta.indices[alt]].ctr.taken()
                       : base_pred;
    if (provider >= 0) {
        const Entry &e = tables_[provider][meta.indices[provider]];
        meta.providerPred = e.ctr.taken();
        meta.providerWeak = e.ctr.weak();
        // Newly-allocated (weak ctr, low usefulness) entries may be less
        // reliable than the alternate prediction.
        const bool newly_allocated = e.ctr.weak() && e.useful.value() == 0;
        if (newly_allocated && useAltOnNa_.taken()) {
            meta.usedAlt = true;
            meta.taken = meta.altPred;
        } else {
            meta.taken = meta.providerPred;
        }
    } else {
        meta.providerPred = base_pred;
        meta.providerWeak = false;
        meta.taken = base_pred;
    }
    return meta.taken;
}

FDIP_HOT_PATH void
Tage::update(Addr pc, bool taken, const TagePrediction &meta)
{
    (void)pc;
    const bool mispredicted = meta.taken != taken;

    if (meta.provider >= 0) {
        Entry &e = tables_[meta.provider][meta.indices[meta.provider]];

        // useAltOnNa bookkeeping: when the provider was newly allocated
        // and provider/alt disagree, learn which one to trust.
        const bool newly_allocated = e.ctr.weak() && e.useful.value() == 0;
        if (newly_allocated && meta.providerPred != meta.altPred)
            useAltOnNa_.update(meta.altPred == taken);

        e.ctr.update(taken);
        // Usefulness: provider was right where the alternate was wrong.
        if (meta.providerPred != meta.altPred) {
            if (meta.providerPred == taken)
                e.useful.increment();
            else
                e.useful.decrement();
        }
    } else {
        base_[meta.baseIndex].update(taken);
    }

    // Allocate a new entry on a misprediction, in a table with longer
    // history than the provider.
    if (mispredicted &&
        meta.provider < static_cast<int>(cfg_.numTables) - 1) {
        const unsigned start = static_cast<unsigned>(meta.provider + 1);
        // Randomized start avoids ping-pong allocation (Seznec).
        unsigned first = start;
        if (start + 1 < cfg_.numTables && (rng_.next() & 1))
            first = start + 1;

        bool allocated = false;
        for (unsigned t = first; t < cfg_.numTables; ++t) {
            Entry &e = tables_[t][meta.indices[t]];
            if (e.useful.value() == 0) {
                e.tag = static_cast<std::uint16_t>(meta.tags[t]);
                e.ctr.reset(taken);
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            // All candidates useful: age them so future allocations win.
            for (unsigned t = start; t < cfg_.numTables; ++t)
                tables_[t][meta.indices[t]].useful.decrement();
        }

        // Periodic graceful reset of usefulness counters.
        if (++allocCount_ >= cfg_.usefulResetPeriod) {
            allocCount_ = 0;
            for (auto &table : tables_)
                for (auto &e : table)
                    e.useful.set(e.useful.value() >> 1);
        }
    }
}

std::uint64_t
Tage::storageBits() const
{
    return tageStorageBits(cfg_);
}

StorageSchema
Tage::storageSchema() const
{
    const std::uint64_t tagged =
        cfg_.numTables * (std::uint64_t{1} << cfg_.logEntries);
    StorageSchema s("TAGE");
    s.add("tagged.ctr", cfg_.counterBits, tagged)
        .add("tagged.tag", cfg_.tagBits, tagged)
        .add("tagged.useful", cfg_.usefulBits, tagged)
        .add("base.ctr", kTageBaseCtrBits,
             std::uint64_t{1} << cfg_.logBaseEntries)
        .add("use_alt_on_na", kTageUseAltOnNaBits)
        .add("useful_reset_tick", ceilLog2(cfg_.usefulResetPeriod))
        .add("alloc_lfsr", kTageAllocRngBits);
    return s;
}

} // namespace fdip
