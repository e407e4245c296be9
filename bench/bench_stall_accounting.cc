/**
 * @file
 * Stall attribution — where the frontend's fetch slots go, per
 * prefetcher, as the BTB shrinks from 8K to 1K entries.
 *
 * This is the cycle-accounting companion to the paper's starvation
 * argument (Sec. IV): FDIP's win comes from removing *fetch-side*
 * stall cycles, so the interesting question is not just "how many
 * cycles stalled" but "which stalls remain". Every post-warmup cycle
 * is charged to exactly one leaf bucket (src/obs/cycle_account.h), so
 * each row below is a complete, stacked 100% breakdown: base
 * (decode fed), backend back-pressure, and the five fetch-side stall
 * classes. Shrinking the BTB should migrate cycles into the
 * FTQ-empty/BTB-miss and L1I-miss buckets for weak prefetchers, while
 * stronger ones hold the L1I share down.
 *
 * All (config, workload) pairs are batched into one campaign so they
 * run in parallel under FDIP_JOBS and spool-cache under FDIP_SPOOL.
 */

#include "bench/bench_common.h"

#include "core/sim_stats.h"

namespace
{

using namespace fdip;

/** Suite-wide bucket fractions: per-bucket cycle sums over all runs,
 *  normalized by total post-warmup cycles. */
struct BucketShares
{
    double frac[kCycleBucketCount] = {};
};

BucketShares
bucketShares(const SuiteResult &r)
{
    BucketShares out;
    std::uint64_t cycles = 0;
    std::uint64_t sums[kCycleBucketCount] = {};
    for (const RunResult &run : r.runs) {
        cycles += run.stats.cycles;
        for (std::size_t b = 0; b < kCycleBucketCount; ++b)
            sums[b] += run.stats.*kCycleBucketField[b];
    }
    for (std::size_t b = 0; b < kCycleBucketCount; ++b) {
        out.frac[b] = cycles == 0 ? 0.0
                                  : static_cast<double>(sums[b]) /
                                        static_cast<double>(cycles);
    }
    return out;
}

} // namespace

int
main()
{
    using namespace fdip::bench;

    banner("Stall attribution: cycle accounting by prefetcher and BTB",
           "Per-config stacked breakdown; every column sums to 100%.");

    const auto workloads = suite(400000);

    struct Pf
    {
        const char *label;
        const char *name; ///< nullptr: FDP alone, no L1I prefetcher.
    };
    const Pf pfs[] = {
        {"FDP", nullptr},
        {"FDP+NL1", "nl1"},
        {"FDP+EIP-27KB", "eip-27"},
    };
    const unsigned btbs[] = {1024u, 2048u, 4096u, 8192u};

    struct Row
    {
        std::size_t idx;
        std::string name;
    };

    Campaign c(workloads);
    std::vector<Row> rows;
    for (const Pf &pf : pfs) {
        for (unsigned entries : btbs) {
            CoreConfig cfg = paperBaselineConfig();
            cfg.bpu.btb.numEntries = entries;
            const std::string label =
                std::string(pf.label) + "@" + std::to_string(entries);
            const std::size_t idx =
                pf.name == nullptr
                    ? c.add(label, cfg, noPrefetcher())
                    : c.add(label, cfg, prefetcher(pf.name), pf.name);
            rows.push_back({idx, label});
        }
    }

    const auto results =
        runTimed(c, workloads.size(), "stall_accounting");

    std::vector<std::string> header = {"configuration"};
    for (std::size_t b = 0; b < kCycleBucketCount; ++b)
        header.emplace_back(kCycleBucketName[b]);
    TextTable t(header);
    for (const Row &row : rows) {
        const BucketShares s = bucketShares(results[row.idx]);
        std::vector<std::string> cells = {row.name};
        double sum = 0.0;
        for (std::size_t b = 0; b < kCycleBucketCount; ++b) {
            cells.push_back(TextTable::num(100.0 * s.frac[b], 1) + "%");
            sum += s.frac[b];
        }
        t.addRow(cells);
        // The conservation law, end-to-end: the stacked row covers
        // every post-warmup cycle (FDIP_CHECKed per tick in Core::run;
        // re-asserted here over the aggregated report path).
        if (sum < 0.999 || sum > 1.001) {
            std::fprintf(stderr,
                         "stall accounting: %s buckets sum to %.4f, "
                         "not 1.0\n",
                         row.name.c_str(), sum);
            return 1;
        }
    }
    t.print();
    return 0;
}
