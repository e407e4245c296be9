/**
 * @file
 * Iso-storage budget accounting (the paper's hardware-legality
 * contract).
 *
 * The paper's central claim — FDP + THR + PFC beats the IPC-1 winners
 * with 195 *bytes* of new hardware against their 128KB metadata
 * budgets — is only meaningful if every compared configuration is
 * storage-accounted exactly. This module makes those budgets
 * machine-checked:
 *
 *  - constexpr accounting functions + static_asserts pin the Table III
 *    / Table IV / Section VI-D costs at compile time, so the named
 *    configurations in core_config.h cannot silently drift over their
 *    paper budgets;
 *  - StorageBudget / BudgetReport perform the same accounting at
 *    runtime for arbitrary configurations (experiment sweeps, CLI
 *    configs), flagging every item over its limit.
 *
 * Conventions: all quantities are in *bits*; a limit of 0 means
 * "informational" (reported, never enforced). Addresses cost
 * kModelAddrBits (48-bit VAs, util/types.h).
 */

#ifndef FDIP_CHECK_BUDGET_H_
#define FDIP_CHECK_BUDGET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bpu/btb.h"
#include "bpu/ittage.h"
#include "bpu/ras.h"
#include "bpu/tage.h"
#include "check/schema.h"
#include "core/backend.h"
#include "core/core_config.h"
#include "core/ftq.h"
#include "util/bits.h"

namespace fdip
{

class InstPrefetcher;

/** Modeled address width (48-bit virtual addresses). */
inline constexpr unsigned kModelAddrBits = 48;
static_assert(kModelAddrBits == kSchemaAddrBits,
              "budget accounting and schemas must share the address width");

/// @{ Paper storage budgets.
/** Table III: the FTQ's architectural cost — 24 x 65 bits = 195 B. */
inline constexpr std::uint64_t kPaperFtqBudgetBits = 195 * 8;
/** Section VI-D: 8K-entry BTB at ~7 B per branch = 56 KB. */
inline constexpr std::uint64_t kPaperBtbBudgetBits = 8192ull * 7 * 8;
/** L1 filter BTB of the optional two-level hierarchy: 1K entries at
 *  the same ~7 B per branch = 7 KB, budgeted on its own line rather
 *  than inside the main BTB's envelope. */
inline constexpr std::uint64_t kPaperL1BtbFilterBudgetBits =
    1024ull * 7 * 8;
/** IPC-1 rules (Table I): 128 KB of prefetcher metadata. */
inline constexpr std::uint64_t kIpc1PrefetcherBudgetBits =
    128ull * 1024 * 8;
/** Table IV RAS: 32 x 48-bit return addresses (+ top pointer). */
inline constexpr std::uint64_t kPaperRasBudgetBits = 32ull * 48 + 5;
/// @}

/// @{ constexpr accounting (compile-time legality path).

/** Architectural FTQ cost of @p entries Table III entries. */
constexpr std::uint64_t
ftqArchStorageBits(unsigned entries)
{
    return std::uint64_t{entries} * FtqEntry::kArchBitsPerEntry;
}

/** Modeled BTB cost (entries x per-entry bytes, Section VI-D). */
constexpr std::uint64_t
btbStorageBits(unsigned num_entries, unsigned bytes_per_entry)
{
    return std::uint64_t{num_entries} * bytes_per_entry * 8;
}

constexpr std::uint64_t
btbStorageBits(const BtbConfig &cfg)
{
    return btbStorageBits(cfg.numEntries, cfg.bytesPerEntry);
}

/** RAS cost: @p depth return addresses plus the top pointer. */
constexpr std::uint64_t
rasStorageBits(unsigned depth)
{
    return rasStorageBitsFor(depth);
}

/** 4KB pages: low 12 address bits never enter the ITLB. */
inline constexpr unsigned kPageOffsetBits = 12;

/** One ITLB entry: VPN tag + PPN + valid (36 + 36 + 1 = 73). */
constexpr std::uint64_t
itlbEntryBits()
{
    return 2ull * (kModelAddrBits - kPageOffsetBits) + 1;
}

/**
 * Exact ITLB cost: @p entries fully-associative translation entries
 * plus a per-entry LRU rank. (The Cache instance that *times* the ITLB
 * uses 4KB lines as a modeling device; a TLB stores translations, not
 * page data, so the budget charges translation entries.)
 */
constexpr std::uint64_t
itlbStorageBits(unsigned entries)
{
    return std::uint64_t{entries} * itlbEntryBits() +
           std::uint64_t{entries} * ceilLog2(entries);
}

/** Exact per-field ITLB storage declaration. */
inline StorageSchema
itlbStorageSchema(unsigned entries)
{
    StorageSchema s("ITLB");
    s.add("vpn", kModelAddrBits - kPageOffsetBits, entries)
        .add("ppn", kModelAddrBits - kPageOffsetBits, entries)
        .add("valid", 1, entries)
        .add("lru", ceilLog2(entries), entries);
    return s;
}

/// @}

// The named configurations in core_config.h default to these values;
// pin them to the paper's claims at compile time. Growing FtqEntry's
// architectural fields or the default BTB geometry past its budget is
// a compile error, not a silently-invalid figure.
static_assert(FtqEntry::kArchBitsPerEntry == 65,
              "FTQ entry architectural cost diverged from Table III");
static_assert(ftqArchStorageBits(24) == kPaperFtqBudgetBits,
              "24-entry FTQ must cost exactly the 195 B of Table III");
static_assert(ftqArchStorageBits(2) <= kPaperFtqBudgetBits,
              "the no-FDP FTQ must fit the FDP budget");
static_assert(btbStorageBits(8192, 7) == kPaperBtbBudgetBits,
              "default BTB geometry diverged from Section VI-D");
static_assert(rasStorageBits(32) == kPaperRasBudgetBits,
              "default RAS depth diverged from Table IV");

// ---------------------------------------------------------------------
// Exact per-field schema sums: pin every named configuration so drift
// in any field width or table geometry is a compile error. The TAGE
// variants carry the paper's nominal Fig. 12 labels (9/18/36 KB of
// tagged+base tables) — the pinned totals are the *exact* modeled
// bits: tagged entries (ctr+tag+useful), bimodal base, plus the 86
// bits of mutable side state (4b use-alt counter, 18b useful-reset
// tick, 64b allocation LFSR).
// ---------------------------------------------------------------------
static_assert(tageTaggedEntryBits(TageConfig{}) == 15,
              "TAGE tagged entry is 3b ctr + 10b tag + 2b useful");
static_assert(tageStorageBits(TageConfig::sized(9)) == 100438,
              "Fig. 12 9KB TAGE: 12x512x15 + 4096x2 + 86 exact bits");
static_assert(tageStorageBits(TageConfig::sized(18)) == 200790,
              "Fig. 12 18KB TAGE (baseline): 12x1024x15 + 8192x2 + 86");
static_assert(tageStorageBits(TageConfig::sized(36)) == 401494,
              "Fig. 12 36KB TAGE: 12x2048x15 + 16384x2 + 86 exact bits");
static_assert(ittageTaggedEntryBits(IttageConfig{}) == 61,
              "ITTAGE tagged entry is 9b tag + valid + 48b target + 3b");
static_assert(ittageStorageBits(IttageConfig{}) == 285760,
              "default ITTAGE: 6x512x61 + 2048x48 + 64 exact bits");
// The BTB's 7B/entry decomposes exactly into its schema fields: valid
// + 3b kind + 2b LRU rank (4 ways) + 34b compressed target leave a
// 16b partial tag.
static_assert(btbEntryBits(BtbConfig{}) ==
                  1 + kBtbKindBits + ceilLog2(4) + kBtbTargetBits + 16,
              "7B BTB entry = valid + kind + lru + target + 16b tag");
static_assert(btbStorageBits(1024, 7) == kPaperL1BtbFilterBudgetBits,
              "1K-entry L1 filter BTB costs exactly 7 KB");
static_assert(decodeQueueStorageBits(64) == 5184,
              "64-entry decode queue: 64 x (48 pc + 32 inst + 1 hint)");
static_assert(itlbStorageBits(64) == 5056,
              "64-entry ITLB: 64 x 73 + 64 x 6 LRU exact bits");

/**
 * Compile-time budget gate: instantiating with Bits > LimitBits fails
 * compilation. Use to pin a config constant to its paper budget:
 *
 *   static_assert(StaticBudgetCheck<ftqArchStorageBits(24),
 *                                   kPaperFtqBudgetBits>::ok);
 */
template <std::uint64_t Bits, std::uint64_t LimitBits>
struct StaticBudgetCheck
{
    static_assert(Bits <= LimitBits,
                  "storage budget exceeded (hardware-illegal config)");
    static constexpr bool ok = true;
    static constexpr std::uint64_t slackBits = LimitBits - Bits;
};

/** One accounted structure. */
struct BudgetItem
{
    std::string name;
    std::uint64_t bits = 0;
    std::uint64_t limitBits = 0; ///< 0: informational, never enforced.
    /** Per-field declaration; empty when only a total was reported. */
    StorageSchema schema;

    [[nodiscard]] bool overLimit() const
    {
        return limitBits != 0 && bits > limitBits;
    }

    /** True when the bits are an exact per-field schema sum. */
    [[nodiscard]] bool exact() const { return !schema.empty(); }
};

/**
 * The result of a budget check: per-structure costs, limits, and an
 * overall verdict.
 */
class BudgetReport
{
  public:
    explicit BudgetReport(std::string title) : title_(std::move(title)) {}

    void
    add(std::string name, std::uint64_t bits, std::uint64_t limit_bits = 0)
    {
        items_.push_back({std::move(name), bits, limit_bits, {}});
    }

    /**
     * Accounts a structure from its exact per-field schema: the bits
     * are computed by summation, never passed in, so a schema-carrying
     * item cannot disagree with its declaration. @p name overrides the
     * schema's structure name (e.g. "FTQ(arch)" for the FTQ schema).
     */
    void
    add(std::string name, StorageSchema schema, std::uint64_t limit_bits = 0)
    {
        const std::uint64_t bits = schema.totalBits();
        items_.push_back(
            {std::move(name), bits, limit_bits, std::move(schema)});
    }

    /** As above, named by the schema's own structure name. */
    void
    add(StorageSchema schema, std::uint64_t limit_bits = 0)
    {
        std::string name = schema.structure();
        add(std::move(name), std::move(schema), limit_bits);
    }

    [[nodiscard]] const std::vector<BudgetItem> &items() const
    {
        return items_;
    }

    /** Sum of all accounted bits (informational items included). */
    [[nodiscard]] std::uint64_t totalBits() const;

    /** True when no item exceeds its limit. */
    [[nodiscard]] bool ok() const;

    /** Names of the items over budget (empty when ok()). */
    [[nodiscard]] std::vector<std::string> violations() const;

    /** Human-readable table (bits, bytes, limit, verdict per item). */
    [[nodiscard]] std::string toString() const;

  private:
    std::string title_;
    std::vector<BudgetItem> items_;
};

/**
 * A named budget accountant: structures report their storage into it
 * (typically via their storageBits() method), each against an optional
 * limit, and report() renders the verdict.
 */
class StorageBudget
{
  public:
    explicit StorageBudget(std::string name) : name_(std::move(name)) {}

    /** Accounts @p bits for @p item (limit 0 = informational). */
    void
    add(std::string item, std::uint64_t bits, std::uint64_t limit_bits = 0)
    {
        report_.add(std::move(item), bits, limit_bits);
    }

    [[nodiscard]] const std::string &name() const { return name_; }
    [[nodiscard]] std::uint64_t totalBits() const
    {
        return report_.totalBits();
    }
    [[nodiscard]] bool ok() const { return report_.ok(); }
    [[nodiscard]] BudgetReport report() const { return report_; }

  private:
    std::string name_;
    BudgetReport report_{name_};
};

/** Per-structure limits a configuration is verified against. */
struct StorageLimits
{
    std::uint64_t ftqBits = kPaperFtqBudgetBits;
    std::uint64_t btbBits = kPaperBtbBudgetBits;
    /** The L1 filter BTB of the two-level hierarchy has its own
     *  budget line; it no longer rides inside btbBits. */
    std::uint64_t l1BtbBits = kPaperL1BtbFilterBudgetBits;
    /** Direction predictor: the configured TAGE size is its own
     *  nominal budget (9/18/36 KB variants of Fig. 12). */
    std::uint64_t prefetcherBits = kIpc1PrefetcherBudgetBits;
    std::uint64_t rasBits = kPaperRasBudgetBits;
};

/**
 * Accounts every storage-bearing structure a CoreConfig would
 * instantiate (FTQ, BTB hierarchy incl. the L1 filter, direction and
 * indirect predictors, history folds, RAS, decode queue, ITLB, caches
 * incl. replacement state) against @p limits. Every item carries its
 * exact per-field StorageSchema; bits are schema sums, not nominal
 * labels. The L1I/L1D/L2/LLC data arrays, decode queue, ITLB, and
 * predictors are reported informationally: iso-storage comparisons
 * hold them fixed rather than budgeted.
 */
BudgetReport coreStorageReport(const CoreConfig &cfg,
                               const StorageLimits &limits = {});

/**
 * As above, additionally accounting @p prefetcher metadata against the
 * 128 KB IPC-1 budget.
 */
BudgetReport coreStorageReport(const CoreConfig &cfg,
                               const InstPrefetcher &prefetcher,
                               const StorageLimits &limits = {});

/**
 * Verifies the named configurations of core_config.h
 * (paperBaselineConfig, noFdpConfig, twoLevelBtbConfig) against the
 * paper budgets. Returns the first failing report, or the last
 * (passing) one.
 */
BudgetReport checkNamedConfigs();

} // namespace fdip

#endif // FDIP_CHECK_BUDGET_H_
