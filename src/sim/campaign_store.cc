#include "sim/campaign_store.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <signal.h>
#include <unistd.h>

#include "util/atomic_file.h"
#include "util/fnv.h"
#include "util/io.h"
#include "util/log.h"
#include "util/sync.h"

namespace fdip
{

namespace
{

/**
 * Sequential reader over one record line. The spool reads only what
 * this module writes, so the parser is deliberately strict: exact key
 * order, every field required, anything else is corruption.
 */
class RecordReader
{
  public:
    explicit RecordReader(const std::string &text) : text_(text) {}

    void
    ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    lit(char c)
    {
        ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return fail("expected '%c'", c);
    }

    /** Matches `"key":` exactly. */
    bool
    key(const char *name)
    {
        if (!str(&scratch_))
            return false;
        if (scratch_ != name)
            return fail("expected key \"%s\", got \"%s\"", name,
                        scratch_.c_str());
        return lit(':');
    }

    bool
    str(std::string *out)
    {
        if (!lit('"'))
            return false;
        out->clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("truncated escape");
                c = text_[pos_++];
            }
            out->push_back(c);
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        ++pos_; // Closing quote.
        return true;
    }

    bool
    u64(std::uint64_t *out)
    {
        ws();
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        if (pos_ == start)
            return fail("expected unsigned integer");
        errno = 0;
        char *end = nullptr;
        const std::string digits = text_.substr(start, pos_ - start);
        *out = std::strtoull(digits.c_str(), &end, 10);
        if (errno != 0 || end == nullptr || *end != '\0')
            return fail("integer out of range");
        return true;
    }

    bool
    f64(double *out)
    {
        ws();
        std::size_t end = pos_;
        while (end < text_.size() &&
               (std::strchr("+-.eE0123456789", text_[end]) != nullptr))
            ++end;
        if (end == pos_)
            return fail("expected number");
        const std::string digits = text_.substr(pos_, end - pos_);
        char *stop = nullptr;
        *out = std::strtod(digits.c_str(), &stop);
        if (stop == nullptr || *stop != '\0')
            return fail("malformed number");
        pos_ = end;
        return true;
    }

    bool
    atEnd()
    {
        ws();
        return pos_ == text_.size();
    }

    __attribute__((format(printf, 2, 3))) bool
    fail(const char *fmt, ...)
    {
        if (error_.empty()) {
            va_list args;
            va_start(args, fmt);
            char buf[256];
            std::vsnprintf(buf, sizeof(buf), fmt, args);
            va_end(args);
            error_ = buf;
        }
        return false;
    }

    const std::string &error() const { return error_; }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
    std::string scratch_;
    std::string error_;
};

/** True when @p name is exactly 16 lowercase hex characters. */
bool
isHexKey(const std::string &name)
{
    std::uint64_t unused = 0;
    return fromHex16(name, &unused);
}

/** The `<spool>/<hash>.<suffix>` path. */
std::string
spoolPath(const std::string &dir, const std::string &hash,
          const char *suffix)
{
    return dir + "/" + hash + "." + suffix;
}

/** Claim-file contents identifying this process. */
std::string
claimText()
{
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) != 0)
        std::strcpy(host, "unknown");
    return std::string("fdip-claim-v1\npid=") +
           std::to_string(static_cast<long>(::getpid())) + "\nhost=" +
           host + "\n";
}

/** Extracts `key=value` from claim text; empty when missing. */
std::string
claimField(const std::string &text, const std::string &field)
{
    const std::string needle = field + "=";
    std::size_t pos = text.find(needle);
    while (pos != std::string::npos && pos != 0 &&
           text[pos - 1] != '\n') {
        pos = text.find(needle, pos + 1);
    }
    if (pos == std::string::npos)
        return {};
    const std::size_t start = pos + needle.size();
    const std::size_t end = text.find('\n', start);
    return text.substr(start, end == std::string::npos
                                  ? std::string::npos
                                  : end - start);
}

/** True when @p pid names a live process on this host. */
bool
processAlive(long pid)
{
    if (pid <= 0)
        return false;
    // Signal 0 probes existence; EPERM still means "alive".
    return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

/** Moves a corrupt spool file aside so it is never trusted again but
 *  stays available for postmortem. */
void
quarantineFile(const std::string &dir, const std::string &name,
               const std::string &reason, SpoolScan *scan)
{
    const std::string from = dir + "/" + name;
    const std::string to = from + ".quarantined";
    std::string err;
    if (!renameFile(from, to, &err)) {
        // Removal as a fallback: an unreadable corrupt record must
        // not keep poisoning every future scan.
        removeFile(from);
    }
    fdip_warn("campaign spool: quarantined '%s': %s", name.c_str(),
              reason.c_str());
    scan->quarantined.push_back(name);
}

/** Loads + verifies one record file; quarantines on any defect. */
void
loadRecordFile(const std::string &dir, const std::string &name,
               SpoolScan *scan)
{
    const std::string stem = name.substr(0, name.size() - 5);
    if (!isHexKey(stem)) {
        quarantineFile(dir, name, "record name is not a manifest hash",
                       scan);
        return;
    }
    std::string text;
    std::string err;
    if (!readFileToString(dir + "/" + name, &text, &err)) {
        quarantineFile(dir, name, err, scan);
        return;
    }
    CampaignRecord record;
    if (!parseCampaignRecord(text, &record, &err)) {
        quarantineFile(dir, name, err, scan);
        return;
    }
    if (record.hash != stem) {
        quarantineFile(dir, name,
                       "embedded hash '" + record.hash +
                           "' does not match the file key (duplicate "
                           "or misplaced record)",
                       scan);
        return;
    }
    scan->records.emplace(record.hash, std::move(record));
}

} // namespace

std::uint64_t
architecturalChecksum(const SimStats &stats)
{
    std::uint64_t h = fnv1a64("fdip-arch-v1\n");
    for (const SimStatsCounter &c : kSimStatsCounters)
        h = fnv1aMix(stats.*c.member, h);
    return h;
}

std::string
campaignRecordJson(const CampaignRecord &record)
{
    std::string out = "{\"fdipCampaignRecord\": " +
                      std::to_string(kCampaignRecordVersion);
    out += ", \"hash\": \"" + jsonEscape(record.hash) + "\"";
    out += ", \"label\": \"" + jsonEscape(record.label) + "\"";
    out += ", \"workload\": \"" + jsonEscape(record.workload) + "\"";
    out += ", \"prefetcher\": \"" + jsonEscape(record.prefetcher) + "\"";
    out += ", \"configDigest\": \"" + jsonEscape(record.configDigestHex) +
           "\"";
    char wall[64];
    std::snprintf(wall, sizeof(wall), "%.9g",
                  record.stats.hostWallSeconds);
    out += std::string(", \"hostWallSeconds\": ") + wall;
    out += ", \"statsChecksum\": \"" +
           toHex16(architecturalChecksum(record.stats)) + "\"";
    out += ", \"stats\": {";
    bool first = true;
    for (const SimStatsCounter &c : kSimStatsCounters) {
        if (!first)
            out += ", ";
        first = false;
        out += std::string("\"") + c.recordKey +
               "\": " + std::to_string(record.stats.*c.member);
    }
    out += "}}\n";
    return out;
}

bool
parseCampaignRecord(const std::string &line, CampaignRecord *record,
                    std::string *error)
{
    const auto failWith = [error](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return false;
    };

    RecordReader r(line);
    std::uint64_t version = 0;
    if (!(r.lit('{') && r.key("fdipCampaignRecord") && r.u64(&version)))
        return failWith("not a campaign record: " + r.error());
    if (version != static_cast<std::uint64_t>(kCampaignRecordVersion)) {
        return failWith("unsupported record version " +
                        std::to_string(version) + " (this build reads v" +
                        std::to_string(kCampaignRecordVersion) + ")");
    }

    CampaignRecord rec;
    std::string checksum_hex;
    const bool header_ok =
        r.lit(',') && r.key("hash") && r.str(&rec.hash) && r.lit(',') &&
        r.key("label") && r.str(&rec.label) && r.lit(',') &&
        r.key("workload") && r.str(&rec.workload) && r.lit(',') &&
        r.key("prefetcher") && r.str(&rec.prefetcher) && r.lit(',') &&
        r.key("configDigest") && r.str(&rec.configDigestHex) &&
        r.lit(',') && r.key("hostWallSeconds") &&
        r.f64(&rec.stats.hostWallSeconds) && r.lit(',') &&
        r.key("statsChecksum") && r.str(&checksum_hex) && r.lit(',') &&
        r.key("stats") && r.lit('{');
    if (!header_ok)
        return failWith("malformed record: " + r.error());

    bool first = true;
    for (const SimStatsCounter &c : kSimStatsCounters) {
        if (!first && !r.lit(','))
            return failWith("truncated counters: " + r.error());
        first = false;
        if (!r.key(c.recordKey) || !r.u64(&(rec.stats.*c.member)))
            return failWith("malformed counter: " + r.error());
    }
    if (!(r.lit('}') && r.lit('}') && r.atEnd()))
        return failWith("trailing garbage or truncation: " + r.error());

    if (!isHexKey(rec.hash))
        return failWith("malformed manifest hash '" + rec.hash + "'");
    std::uint64_t declared = 0;
    if (!fromHex16(checksum_hex, &declared) ||
        declared != architecturalChecksum(rec.stats)) {
        return failWith(
            "architectural-counter checksum mismatch (declared " +
            checksum_hex + ", computed " +
            toHex16(architecturalChecksum(rec.stats)) + ")");
    }
    *record = std::move(rec);
    return true;
}

std::vector<ManifestEntry>
buildManifest(const std::vector<CampaignEntry> &entries,
              const std::vector<SuiteEntry> &suite,
              double warmup_fraction)
{
    // Hash the configs exactly as the engine runs them: resolved.
    std::vector<std::string> config_texts;
    std::vector<std::string> config_digests;
    config_texts.reserve(entries.size());
    for (const CampaignEntry &e : entries) {
        CoreConfig cfg = e.cfg;
        cfg.applyHistoryScheme();
        config_texts.push_back(canonicalConfigText(cfg));
        config_digests.push_back(toHex16(fnv1a64(config_texts.back())));
    }

    std::vector<std::uint64_t> trace_digests;
    trace_digests.reserve(suite.size());
    for (const SuiteEntry &w : suite)
        trace_digests.push_back(traceDigest(w));

    char warmup[64];
    std::snprintf(warmup, sizeof(warmup), "%.17g", warmup_fraction);

    std::vector<ManifestEntry> manifest;
    manifest.reserve(entries.size() * suite.size());
    for (std::size_t c = 0; c < entries.size(); ++c) {
        const std::string &id = entries[c].prefetcherId.empty()
                                    ? entries[c].label
                                    : entries[c].prefetcherId;
        for (std::size_t w = 0; w < suite.size(); ++w) {
            std::uint64_t h = fnv1a64("fdip-manifest-v1\n");
            h = fnv1a64(config_texts[c], h);
            h = fnv1a64("prefetcher=", h);
            h = fnv1a64(id, h);
            h = fnv1a64("\nworkload=", h);
            h = fnv1a64(suite[w].name, h);
            h = fnv1a64("\nwarmup=", h);
            h = fnv1a64(warmup, h);
            h = fnv1a64("\ntrace=", h);
            h = fnv1aMix(trace_digests[w], h);
            ManifestEntry m;
            m.entryIdx = c;
            m.workloadIdx = w;
            m.hash = toHex16(h);
            m.configDigestHex = config_digests[c];
            m.prefetcherId = id;
            manifest.push_back(std::move(m));
        }
    }
    return manifest;
}

SpoolScan
scanSpool(const std::string &spool_dir)
{
    SpoolScan scan;
    for (const std::string &name : listDirectory(spool_dir)) {
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0) {
            loadRecordFile(spool_dir, name, &scan);
        }
    }
    return scan;
}

std::vector<SuiteResult>
runCampaignSpooled(const std::vector<CampaignEntry> &entries,
                   const std::vector<SuiteEntry> &suite,
                   const SpoolOptions &options, SpoolSummary *summary_out)
{
    const std::string dir = openSpool(options.spoolDir);
    const std::vector<ManifestEntry> manifest =
        buildManifest(entries, suite, options.warmupFraction);
    const std::size_t workloads = suite.size();

    SpoolSummary summary;
    summary.totalRuns = manifest.size();

    SpoolScan scan = scanSpool(dir);
    summary.quarantined = scan.quarantined.size();

    // Release claims whose record already exists (crash between
    // publish and claim removal) and — on resume — claims and temp
    // files owned by dead processes of this host.
    for (const std::string &name : listDirectory(dir)) {
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".claim") == 0) {
            const std::string stem = name.substr(0, name.size() - 6);
            if (scan.records.count(stem) != 0) {
                removeFile(dir + "/" + name);
                continue;
            }
            if (!options.reclaimDeadClaims)
                continue;
            std::string text;
            if (!readFileToString(dir + "/" + name, &text))
                continue;
            const long pid = std::atol(claimField(text, "pid").c_str());
            const std::string host = claimField(text, "host");
            char ourhost[256] = {0};
            if (::gethostname(ourhost, sizeof(ourhost) - 1) != 0)
                ourhost[0] = '\0';
            if (host == ourhost && !processAlive(pid)) {
                removeFile(dir + "/" + name);
                ++summary.reclaimed;
                fdip_inform("campaign: reclaimed stale claim %s "
                            "(dead pid %ld)",
                            stem.c_str(), pid);
            }
        } else if (options.reclaimDeadClaims &&
                   name.find(".tmp.") != std::string::npos) {
            // Orphaned atomic-write temp file: `<key>.tmp.<pid>`.
            const std::string pid_part =
                name.substr(name.rfind('.') + 1);
            const long pid = std::atol(pid_part.c_str());
            if (!processAlive(pid))
                removeFile(dir + "/" + name);
        }
    }

    // Worker-side counters: touched concurrently from the pool.
    Atomic<std::size_t> simulated{0};
    Atomic<std::size_t> claimed_elsewhere{0};

    CampaignHooks hooks;
    hooks.claimRun = [&](std::size_t c, std::size_t w) {
        const ManifestEntry &m = manifest[c * workloads + w];
        if (scan.records.count(m.hash) != 0)
            return false; // Cache hit; filled below.
        std::string err;
        switch (createFileExclusive(spoolPath(dir, m.hash, "claim"),
                                    claimText(), &err)) {
        case ExclusiveCreate::kCreated:
            // Claims are removed only *after* the record is published,
            // so a sibling that finished since our scan leaves the
            // record behind with no claim — and we just won a claim
            // for work that is already done. Holding the claim makes
            // this check race-free: no publication can be in flight.
            if (fileExists(spoolPath(dir, m.hash, "json"))) {
                removeFile(spoolPath(dir, m.hash, "claim"));
                return false; // Late cache hit; filled below.
            }
            simulated.fetchAdd(1, std::memory_order_relaxed);
            if (options.onSimulate)
                options.onSimulate(c, w);
            return true;
        case ExclusiveCreate::kExists:
            claimed_elsewhere.fetchAdd(1, std::memory_order_relaxed);
            return false;
        case ExclusiveCreate::kError:
        default:
            fdip_warn("campaign: cannot claim %s: %s", m.hash.c_str(),
                      err.c_str());
            claimed_elsewhere.fetchAdd(1, std::memory_order_relaxed);
            return false;
        }
    };
    hooks.onRunComplete = [&](std::size_t c, std::size_t w,
                              const RunResult &run) {
        const ManifestEntry &m = manifest[c * workloads + w];
        CampaignRecord record;
        record.hash = m.hash;
        record.label = entries[c].label;
        record.workload = run.workload;
        record.prefetcher = m.prefetcherId;
        record.configDigestHex = m.configDigestHex;
        record.stats = run.stats;
        std::string err;
        if (!writeFileAtomic(spoolPath(dir, m.hash, "json"),
                             campaignRecordJson(record), &err)) {
            fdip_warn("campaign: cannot persist record %s: %s",
                      m.hash.c_str(), err.c_str());
            return;
        }
        removeFile(spoolPath(dir, m.hash, "claim"));
    };

    std::vector<SuiteResult> results = runCampaignHooked(
        entries, suite, options.warmupFraction, options.jobs, hooks);

    summary.simulated = simulated.load(std::memory_order_relaxed);
    summary.claimedElsewhere =
        claimed_elsewhere.load(std::memory_order_relaxed);

    // Fill every slot the engine skipped: from the initial scan, or
    // from a late re-read (a sibling process may have published the
    // record while we were draining).
    summary.complete = true;
    for (const ManifestEntry &m : manifest) {
        RunResult &slot = results[m.entryIdx].runs[m.workloadIdx];
        if (!slot.workload.empty())
            continue; // Simulated by this process.
        auto it = scan.records.find(m.hash);
        if (it == scan.records.end()) {
            SpoolScan late;
            const std::string name = m.hash + ".json";
            if (fileExists(dir + "/" + name))
                loadRecordFile(dir, name, &late);
            summary.quarantined += late.quarantined.size();
            if (late.records.count(m.hash) != 0) {
                it = scan.records
                         .emplace(m.hash,
                                  std::move(late.records[m.hash]))
                         .first;
            }
        }
        // The name comes from the manifest entry the record's hash
        // addresses (the name is hashed into it), never from the
        // record's own workload field, which no checksum covers.
        slot.workload = suite[m.workloadIdx].name;
        if (it == scan.records.end()) {
            summary.complete = false;
            continue;
        }
        slot.stats = it->second.stats;
        ++summary.cacheHits;
    }

    if (summary_out != nullptr)
        *summary_out = summary;
    return results;
}

bool
mergeCampaignSpool(const std::vector<CampaignEntry> &entries,
                   const std::vector<SuiteEntry> &suite,
                   const std::string &spool_dir, double warmup_fraction,
                   std::vector<SuiteResult> *results,
                   SpoolSummary *summary_out, std::string *error)
{
    const std::string dir = openSpool(spool_dir);
    const std::vector<ManifestEntry> manifest =
        buildManifest(entries, suite, warmup_fraction);

    SpoolSummary summary;
    summary.totalRuns = manifest.size();
    SpoolScan scan = scanSpool(dir);
    summary.quarantined = scan.quarantined.size();

    results->assign(entries.size(), SuiteResult{});
    for (std::size_t c = 0; c < entries.size(); ++c) {
        (*results)[c].label = entries[c].label;
        (*results)[c].runs.resize(suite.size());
    }

    summary.complete = true;
    for (const ManifestEntry &m : manifest) {
        const auto it = scan.records.find(m.hash);
        if (it == scan.records.end()) {
            summary.complete = false;
            if (error != nullptr && error->empty()) {
                *error = "no verified record for manifest entry " +
                         m.hash + " (" + entries[m.entryIdx].label +
                         " x " + suite[m.workloadIdx].name + ")";
            }
            continue;
        }
        RunResult &slot = (*results)[m.entryIdx].runs[m.workloadIdx];
        slot.workload = suite[m.workloadIdx].name; // As in the drain.
        slot.stats = it->second.stats;
        ++summary.cacheHits;
    }
    if (summary_out != nullptr)
        *summary_out = summary;
    return summary.complete;
}

std::string
openSpool(const std::string &dir)
{
    std::string err;
    if (dir.empty())
        fdip_fatal("campaign spool: no spool directory given "
                   "(--spool PATH or FDIP_SPOOL)");
    if (!ensureDirectory(dir, &err))
        fdip_fatal("campaign spool: unusable spool directory: %s",
                   err.c_str());
    const std::string probe =
        dir + "/.fdip-spool-probe." +
        std::to_string(static_cast<long>(::getpid()));
    if (!writeFileAtomic(probe, "probe\n", &err))
        fdip_fatal("campaign spool: spool directory '%s' is not "
                   "writable: %s",
                   dir.c_str(), err.c_str());
    removeFile(probe);
    return dir;
}

std::string
spoolFromEnv()
{
    // Coordinating-thread opt-in, read before any worker exists
    // (check_determinism.py allowlists this file for getenv).
    const char *v = std::getenv("FDIP_SPOOL"); // NOLINT(concurrency-mt-unsafe)
    return v == nullptr ? std::string() : std::string(v);
}

} // namespace fdip
