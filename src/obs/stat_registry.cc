#include "obs/stat_registry.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/hotpath.h"
#include "util/io.h"
#include "util/log.h"

namespace fdip
{

// ---------------------------------------------------------------------
// StatHistogram.
// ---------------------------------------------------------------------

StatHistogram::StatHistogram(unsigned num_buckets,
                             std::uint64_t bucket_width)
    : buckets_(num_buckets, 0), bucketWidth_(bucket_width)
{
    if (num_buckets == 0 || bucket_width == 0)
        fdip_fatal("histogram needs >= 1 bucket of width >= 1 "
                   "(got %u x %llu)",
                   num_buckets,
                   static_cast<unsigned long long>(bucket_width));
}

FDIP_HOT_PATH void
StatHistogram::add(std::uint64_t value)
{
    // Width-1 histograms (e.g. the per-tick FTQ occupancy) sit on the
    // simulator's hot path; skip the 64-bit division for them.
    const std::uint64_t scaled =
        bucketWidth_ == 1 ? value : value / bucketWidth_;
    const std::uint64_t b =
        std::min<std::uint64_t>(scaled, buckets_.size() - 1);
    ++buckets_[static_cast<std::size_t>(b)];
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
}

double
StatHistogram::mean() const
{
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
}

void
StatHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = sum_ = min_ = max_ = 0;
}

// ---------------------------------------------------------------------
// StatRegistry.
// ---------------------------------------------------------------------

void
StatRegistry::insert(const std::string &name, Stat stat)
{
    if (name.empty())
        fdip_fatal("cannot register a stat with an empty name");
    const auto [it, inserted] = stats_.emplace(name, std::move(stat));
    (void)it;
    if (!inserted)
        fdip_fatal("duplicate stat name '%s'", name.c_str());
}

void
StatRegistry::addCounter(const std::string &name, CounterFn fn,
                         std::string description)
{
    Stat s;
    s.kind = StatKind::kCounter;
    s.counter = std::move(fn);
    s.description = std::move(description);
    insert(name, std::move(s));
}

void
StatRegistry::addDerived(const std::string &name, DerivedFn fn,
                         std::string description)
{
    Stat s;
    s.kind = StatKind::kDerived;
    s.derived = std::move(fn);
    s.description = std::move(description);
    insert(name, std::move(s));
}

void
StatRegistry::addHistogram(const std::string &name,
                           const StatHistogram *hist,
                           std::string description)
{
    if (hist == nullptr)
        fdip_fatal("stat '%s': null histogram", name.c_str());
    Stat s;
    s.kind = StatKind::kHistogram;
    s.hist = hist;
    s.description = std::move(description);
    insert(name, std::move(s));
}

bool
StatRegistry::contains(const std::string &name) const
{
    return stats_.find(name) != stats_.end();
}

const StatRegistry::Stat &
StatRegistry::find(const std::string &name) const
{
    const auto it = stats_.find(name);
    if (it == stats_.end())
        fdip_fatal("unknown stat '%s'", name.c_str());
    return it->second;
}

StatKind
StatRegistry::kindOf(const std::string &name) const
{
    return find(name).kind;
}

std::uint64_t
StatRegistry::counterValue(const std::string &name) const
{
    const Stat &s = find(name);
    if (s.kind != StatKind::kCounter)
        fdip_fatal("stat '%s' is not a counter", name.c_str());
    return s.counter();
}

double
StatRegistry::value(const std::string &name) const
{
    const Stat &s = find(name);
    switch (s.kind) {
      case StatKind::kCounter:
        return static_cast<double>(s.counter());
      case StatKind::kDerived:
        return s.derived();
      case StatKind::kHistogram:
        return s.hist->mean();
    }
    return 0.0;
}

const std::string &
StatRegistry::description(const std::string &name) const
{
    return find(name).description;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(stats_.size());
    for (const auto &[name, stat] : stats_) {
        (void)stat;
        out.push_back(name);
    }
    return out;
}

std::vector<std::string>
StatRegistry::namesWithPrefix(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (const auto &[name, stat] : stats_) {
        (void)stat;
        if (name == prefix ||
            (name.size() > prefix.size() &&
             name.compare(0, prefix.size(), prefix) == 0 &&
             name[prefix.size()] == '.')) {
            out.push_back(name);
        }
    }
    return out;
}

std::vector<StatSample>
StatRegistry::snapshot() const
{
    std::vector<StatSample> out;
    out.reserve(stats_.size());
    for (const auto &[name, stat] : stats_) {
        switch (stat.kind) {
          case StatKind::kCounter: {
            StatSample s;
            s.name = name;
            s.kind = StatKind::kCounter;
            s.intValue = stat.counter();
            s.value = static_cast<double>(s.intValue);
            out.push_back(std::move(s));
            break;
          }
          case StatKind::kDerived: {
            StatSample s;
            s.name = name;
            s.kind = StatKind::kDerived;
            s.value = stat.derived();
            out.push_back(std::move(s));
            break;
          }
          case StatKind::kHistogram: {
            const StatHistogram &h = *stat.hist;
            const struct
            {
                const char *suffix;
                StatKind kind;
                std::uint64_t intValue;
                double value;
            } parts[] = {
                {".count", StatKind::kCounter, h.count(),
                 static_cast<double>(h.count())},
                {".min", StatKind::kCounter, h.min(),
                 static_cast<double>(h.min())},
                {".max", StatKind::kCounter, h.max(),
                 static_cast<double>(h.max())},
                {".mean", StatKind::kDerived, 0, h.mean()},
            };
            for (const auto &p : parts) {
                StatSample s;
                s.name = name + p.suffix;
                s.kind = p.kind;
                s.intValue = p.intValue;
                s.value = p.value;
                out.push_back(std::move(s));
            }
            break;
          }
        }
    }
    return out;
}

void
StatRegistry::writeJson(std::FILE *f) const
{
    std::fprintf(f, "{\n  \"stats\": {\n");
    const auto samples = snapshot();
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const StatSample &s = samples[i];
        if (s.kind == StatKind::kCounter) {
            std::fprintf(f, "    \"%s\": %llu", s.name.c_str(),
                         static_cast<unsigned long long>(s.intValue));
        } else {
            std::fprintf(f, "    \"%s\": %.6f", s.name.c_str(), s.value);
        }
        std::fprintf(f, "%s\n", i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
}

bool
StatRegistry::writeJson(const std::string &path) const
{
    FileHandle f(std::fopen(path.c_str(), "w"));
    if (!f)
        return false;
    writeJson(f.get());
    return true;
}

} // namespace fdip
