/**
 * @file
 * The campaign-at-scale service layer: a sharded, resumable,
 * content-addressed result store over the parallel experiment engine.
 *
 * Spool format v2 (see docs/CAMPAIGN.md for the full specification)
 * -----------------------------------------------------------------
 * A campaign is a *manifest*: the cross product of labeled configs and
 * suite workloads, each pair keyed by an FNV-1a content hash over the
 * canonical config serialization, the prefetcher identity, the
 * workload's full trace content, and the warmup fraction. The spool
 * directory holds, per manifest hash `H` (16 lowercase hex chars):
 *
 *   H.json   one completed-run record: a single JSON line carrying the
 *            record version, the hash, labels, all architectural
 *            counters, and an FNV checksum over those counters.
 *            Published atomically (temp + fsync + rename), so a record
 *            either exists completely or not at all.
 *   H.claim  an in-progress marker created with O_CREAT|O_EXCL: of N
 *            workers racing for the run, exactly one wins the claim.
 *            Contains the claimant's pid and hostname so crash
 *            recovery can reap claims owned by dead local processes.
 *
 * Guarantees
 * ----------
 * - Resume: a restarted campaign scans the spool, verifies every
 *   record (version, key-vs-content hash, counter checksum), skips
 *   verified work, and recomputes only the tail. Corrupt records are
 *   quarantined (renamed aside), never trusted and never fatal.
 * - Dedup: re-running a finished or overlapping campaign re-simulates
 *   nothing — content addressing makes repeated work free.
 * - Sharding: N `fdipsim --campaign` processes over one spool
 *   (same host or different hosts on a shared filesystem) claim
 *   disjoint entries and cooperatively drain one manifest.
 * - Byte-verifiability: the engine's determinism contract means a
 *   merged report assembled from any mixture of processes, hosts, and
 *   crash/resume cycles is byte-identical to one uninterrupted serial
 *   run. The test suite (tests/sim_campaign_resume_test.cc,
 *   tests/sim_campaign_shard_test.cc) asserts exactly that.
 */

#ifndef FDIP_SIM_CAMPAIGN_STORE_H_
#define FDIP_SIM_CAMPAIGN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/parallel.h"

namespace fdip
{

/** Spool record format version this build reads and writes.
 *  v2: SimStats grew the eight cycle-accounting buckets (38 counters);
 *  v1 records are quarantined as unknown-version and recomputed. */
inline constexpr int kCampaignRecordVersion = 2;

/** One completed (config, workload) run, as stored in the spool. */
struct CampaignRecord
{
    std::string hash;       ///< Manifest hash, 16 hex chars (file key).
    std::string label;      ///< Campaign entry label.
    std::string workload;   ///< Suite entry name.
    std::string prefetcher; ///< Prefetcher identity (see CampaignEntry).
    std::string configDigestHex; ///< configDigest() of the entry.
    SimStats stats;         ///< All architectural counters + host time.
};

/** FNV-1a checksum over the architectural counters, in
 *  kSimStatsCounters order. Host telemetry is excluded: the checksum
 *  certifies the *experiment result*, not the machine. */
std::uint64_t architecturalChecksum(const SimStats &stats);

/** Serializes @p record as one JSON line (newline-terminated). */
std::string campaignRecordJson(const CampaignRecord &record);

/**
 * Parses and *verifies* one spool record: the version must be known,
 * every field present, and the embedded checksum must match the
 * embedded counters. @return false with a reason in @p error.
 * (Key-vs-content consistency — filename stem == embedded hash — is
 * the spool scan's job, since only it knows the filename.)
 */
bool parseCampaignRecord(const std::string &line, CampaignRecord *record,
                         std::string *error);

/** One (entry, workload) pair of a campaign manifest. */
struct ManifestEntry
{
    std::size_t entryIdx = 0;
    std::size_t workloadIdx = 0;
    std::string hash; ///< 16-hex content hash (the spool key).
    std::string configDigestHex; ///< configDigest() of the resolved cfg.
    std::string prefetcherId;    ///< Effective identity (id or label).
};

/**
 * Builds the campaign manifest: one content hash per (config,
 * workload) pair, in campaign order. Configs are hashed *resolved*
 * (applyHistoryScheme applied), matching what the engine runs.
 */
std::vector<ManifestEntry>
buildManifest(const std::vector<CampaignEntry> &entries,
              const std::vector<SuiteEntry> &suite,
              double warmup_fraction);

/** Result of scanning a spool directory. */
struct SpoolScan
{
    /** Verified records keyed by manifest hash. */
    std::map<std::string, CampaignRecord> records;
    /** Files quarantined this scan (renamed to `<name>.quarantined`). */
    std::vector<std::string> quarantined;
};

/**
 * Scans @p spool_dir: parses and verifies every `*.json` record,
 * quarantines anything corrupt (truncated, bad checksum, unknown
 * version, hash/filename mismatch, duplicate content). Never throws
 * on bad data — a hostile spool degrades to recomputation, not a
 * crash. Fatal only if the directory itself is unusable.
 */
SpoolScan scanSpool(const std::string &spool_dir);

/** Per-drain accounting, for tests, logs, and the CLI summary. */
struct SpoolSummary
{
    std::size_t totalRuns = 0;   ///< Manifest size.
    std::size_t cacheHits = 0;   ///< Served from verified records.
    std::size_t simulated = 0;   ///< Claimed and run by this process.
    std::size_t claimedElsewhere = 0; ///< Skipped: another worker owns it.
    std::size_t reclaimed = 0;   ///< Dead claims reaped (resume).
    std::size_t quarantined = 0; ///< Corrupt files renamed aside.
    /** True when every manifest entry ended with a verified record. */
    bool complete = false;
};

/** Options for a spooled campaign drain. */
struct SpoolOptions
{
    std::string spoolDir;
    double warmupFraction = 0.2;
    unsigned jobs = 0; ///< 0 = FDIP_JOBS / hardware concurrency.

    /**
     * Reap claim files owned by dead processes of *this* host before
     * draining (the `--resume` behavior). Off by default so
     * concurrently-sharding workers never steal each other's work;
     * liveness is checked with kill(pid, 0), so a claim owned by a
     * live process is never reaped even under --resume.
     */
    bool reclaimDeadClaims = false;

    /**
     * Test interposer: invoked (on a worker thread) for every run
     * this process actually simulates. The zero-resimulation cache
     * tests count calls through this.
     */
    std::function<void(std::size_t entry, std::size_t workload)>
        onSimulate;
};

/**
 * Drains a campaign through a spool directory: verified records are
 * cache hits, unclaimed work is claimed (O_EXCL) and simulated with
 * the parallel engine, and every completed run is atomically
 * published before the worker moves on. Results come back in campaign
 * order with cache hits filled from the store; pairs still claimed by
 * a live sibling process are left zeroed and reported via
 * @p summary->complete == false (merge once the sibling finishes).
 *
 * Fatal (clear message, exit 1) when the spool directory cannot be
 * created or written — a misconfigured spool must not silently fall
 * back to recomputing everything.
 */
std::vector<SuiteResult>
runCampaignSpooled(const std::vector<CampaignEntry> &entries,
                   const std::vector<SuiteEntry> &suite,
                   const SpoolOptions &options,
                   SpoolSummary *summary = nullptr);

/**
 * Assembles the ordered campaign results purely from spool records —
 * zero simulation. Verifies every record's content hash and
 * architectural-counter checksum en route (scanSpool) and requires a
 * verified record for every manifest entry.
 *
 * @return false (with @p error naming the first missing hash) when
 *         the spool does not cover the manifest.
 */
bool mergeCampaignSpool(const std::vector<CampaignEntry> &entries,
                        const std::vector<SuiteEntry> &suite,
                        const std::string &spool_dir,
                        double warmup_fraction,
                        std::vector<SuiteResult> *results,
                        SpoolSummary *summary, std::string *error);

/**
 * Validates that @p dir is usable as a spool: creates it (and
 * parents) if missing and probes writability with a real file.
 * Fatal with a clear message otherwise. Returns @p dir.
 */
std::string openSpool(const std::string &dir);

/** FDIP_SPOOL environment override: the spool directory bench
 *  binaries and `fdipsim --campaign` use when no --spool flag is
 *  given. Empty when unset. Read once on the coordinating thread. */
std::string spoolFromEnv();

} // namespace fdip

#endif // FDIP_SIM_CAMPAIGN_STORE_H_
