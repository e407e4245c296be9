/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * each simulator layer: name, layer, start, end, parent span and one
 * id per workload run. Nothing is written while the workload runs;
 * writeChromeTrace() emits the whole log at the end as Chrome
 * trace-event JSON (async "b"/"e" pairs in timestamp order), which
 * Perfetto and tools/lint/check_trace.py both read.
 *
 * Single-threaded by design: spans open and close on the coordinating
 * thread only. A disabled log costs one branch per span.
 */
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Host steady-clock nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One closed (or still open, endNs < 0) span. */
struct Span
{
    std::string name;
    std::string layer;
    std::int64_t startNs = 0;
    std::int64_t endNs = -1;
    int parent = -1; ///< Index of the enclosing span; -1 at the root.
};

/** The span log of one benchmark process. */
class SpanLog
{
  public:
    SpanLog(bool enabled, std::uint64_t run_id)
        : enabled_(enabled), runId_(run_id)
    {
    }
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** Opens a child of the innermost open span; returns its index
     *  (-1 when disabled). */
    int
    open(const std::string &name, const std::string &layer)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = name;
        s.layer = layer;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.startNs = nowNs();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    /** Closes span @p idx, which must be the innermost open one. */
    void
    close(int idx)
    {
        if (!enabled_ || idx < 0)
            return;
        spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
        if (!stack_.empty() && stack_.back() == idx)
            stack_.pop_back();
    }

    /**
     * Writes the log as Chrome trace-event JSON to @p path, with
     * @p other_data (a JSON object text) under "otherData". Returns
     * false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &other_data) const;

  private:
    bool enabled_;
    std::uint64_t runId_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name,
               const std::string &layer)
        : log_(log), idx_(log.open(name, layer))
    {
    }
    ~ScopedSpan() { log_.close(idx_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    int idx_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H_
