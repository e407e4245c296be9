/**
 * @file
 * The hierarchical statistics registry: every simulated component
 * registers named counters, derived formulas, and histograms under a
 * dotted path ("frontend.ftq.occupancy", "bpu.btb.hits"), so any run
 * can be inspected uniformly — dumped as JSON, queried by name, or
 * sliced by prefix — without per-component plumbing.
 *
 * Ownership and threading: a StatRegistry is scoped to one run (one
 * Core). Registered getters capture pointers into live components and
 * must not outlive them; snapshot() materializes plain values that
 * may. Runs executing in parallel each build their own registry, so no
 * synchronization is needed or provided. The type enforces the rule:
 * a registry is non-copyable and non-movable (copying would alias the
 * captured component pointers across owners), and the whole query
 * surface is `[[nodiscard]] const` — observation code can read
 * through a registry but cannot mutate simulated state with it.
 */

#ifndef FDIP_OBS_STAT_REGISTRY_H_
#define FDIP_OBS_STAT_REGISTRY_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/state.h"

namespace fdip
{

/** What a registered statistic is. */
enum class StatKind : std::uint8_t
{
    kCounter,   ///< Monotonic 64-bit event count.
    kDerived,   ///< Formula over other state (a double).
    kHistogram, ///< Bucketed distribution.
};

/**
 * A fixed-shape histogram: @p numBuckets linear buckets of
 * @p bucketWidth, with values past the last bucket clamped into it.
 * Tracks count/sum/min/max alongside the buckets so means and tails
 * survive the clamping.
 */
class StatHistogram
{
  public:
    StatHistogram(unsigned num_buckets, std::uint64_t bucket_width);

    void add(std::uint64_t value);

    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] std::uint64_t sum() const { return sum_; }
    /** Smallest recorded value (0 when empty). */
    [[nodiscard]] std::uint64_t min() const
    {
        return count_ == 0 ? 0 : min_;
    }
    [[nodiscard]] std::uint64_t max() const { return max_; }
    [[nodiscard]] double mean() const;

    [[nodiscard]] std::uint64_t bucketCount(unsigned i) const
    {
        return buckets_[i];
    }

    void reset();

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t bucketWidth_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** One materialized statistic value (see StatRegistry::snapshot). */
struct StatSample
{
    std::string name;
    StatKind kind = StatKind::kCounter;
    std::uint64_t intValue = 0; ///< Valid for kCounter.
    double value = 0.0;         ///< Valid for every kind.
};

/**
 * The registry proper. Names are dotted component paths; registering
 * the same name twice is a configuration bug and fails fatally.
 */
class StatRegistry
{
  public:
    using CounterFn = std::function<std::uint64_t()>;
    using DerivedFn = std::function<double()>;

    StatRegistry() = default;

    /** One registry per run, owned by whoever built it: copying or
     *  moving would alias the captured component pointers across
     *  owners, so both are compile errors (pinned by
     *  tests/obs_ownership_test.cc). */
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;
    StatRegistry(StatRegistry &&) = delete;
    StatRegistry &operator=(StatRegistry &&) = delete;

    /** Registers a counter getter under @p name. */
    void addCounter(const std::string &name, CounterFn fn,
                    std::string description = {});

    /** Registers a derived formula under @p name. */
    void addDerived(const std::string &name, DerivedFn fn,
                    std::string description = {});

    /** Registers a histogram (borrowed; must outlive the registry). */
    void addHistogram(const std::string &name, const StatHistogram *hist,
                      std::string description = {});

    [[nodiscard]] bool contains(const std::string &name) const;
    [[nodiscard]] std::size_t size() const { return stats_.size(); }

    /** Kind of a registered stat; fatal on an unknown name. */
    [[nodiscard]] StatKind kindOf(const std::string &name) const;

    /** Current value of the counter @p name; fatal when the name is
     *  unknown or not a counter. */
    [[nodiscard]] std::uint64_t counterValue(const std::string &name) const;

    /** Current value of any stat as a double (histograms: the mean);
     *  fatal on an unknown name. */
    [[nodiscard]] double value(const std::string &name) const;

    /** Description registered with @p name (empty if none). */
    [[nodiscard]] const std::string &
    description(const std::string &name) const;

    /** All registered names, sorted. */
    [[nodiscard]] std::vector<std::string> names() const;

    /** Registered names under @p prefix (sorted; "bpu.btb" matches
     *  "bpu.btb.hits" and "bpu.btb" itself but not "bpu.btb2.x"). */
    [[nodiscard]] std::vector<std::string>
    namesWithPrefix(const std::string &prefix) const;

    /**
     * Materializes every stat into plain values. Histograms flatten
     * into "<name>.count", "<name>.mean", "<name>.min", "<name>.max"
     * pseudo-entries so the result is a flat numeric table.
     */
    [[nodiscard]] std::vector<StatSample> snapshot() const;

    /** Writes the snapshot as one flat JSON object under {"stats":…}.
     *  @return false on I/O failure. */
    bool writeJson(const std::string &path) const;
    void writeJson(std::FILE *f) const;

  private:
    struct Stat
    {
        StatKind kind = StatKind::kCounter;
        CounterFn counter;
        DerivedFn derived;
        const StatHistogram *hist = nullptr;
        std::string description;
    };

    const Stat &find(const std::string &name) const;
    void insert(const std::string &name, Stat stat);

    std::map<std::string, Stat> stats_;
};

} // namespace fdip

#endif // FDIP_OBS_STAT_REGISTRY_H_
