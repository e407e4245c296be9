/**
 * @file
 * Cycle-level event tracing in the Chrome trace-event (catapult) JSON
 * format, loadable in chrome://tracing and Perfetto. One TraceWriter
 * is scoped to one run; cycle numbers are written as microsecond
 * timestamps, so 1 us on the timeline = 1 simulated cycle.
 *
 * Overhead contract: emission sites go through the FDIP_TRACE_EVENT
 * macro on a Tracer. With the FDIP_TRACING build option OFF the macro
 * compiles to nothing; with it ON but no writer attached (the normal
 * case) each site costs one predictable branch. Tracing never touches
 * simulated state, so statistics are bit-identical with tracing on,
 * off, or compiled out — the determinism suite asserts this.
 */

#ifndef FDIP_OBS_TRACE_EVENTS_H_
#define FDIP_OBS_TRACE_EVENTS_H_

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>

#include "util/hotpath.h"
#include "util/io.h"

/**
 * FDIP_ENABLE_TRACING is normally injected by the build system (the
 * FDIP_TRACING CMake option, default ON). Standalone inclusion keeps
 * the backend available.
 */
#ifndef FDIP_ENABLE_TRACING
#define FDIP_ENABLE_TRACING 1
#endif

namespace fdip
{

/** Compile-time view of the tracing configuration. */
inline constexpr bool kTracingCompiledIn = FDIP_ENABLE_TRACING != 0;

/** Simulated-thread lanes events are sorted into on the timeline. */
enum TraceTid : unsigned
{
    kTraceTidPredict = 1, ///< Prediction pipeline / FTQ.
    kTraceTidFetch = 2,   ///< Fetch pipeline / delivery.
    kTraceTidPrefetch = 3,///< Prefetch-queue drain.
    kTraceTidMemory = 4,  ///< Fills and miss lifetimes.
};

/**
 * Streams Chrome trace events to a JSON file. Not thread-safe: one
 * writer per run, used from that run's thread only. The destructor
 * (or close()) finishes the JSON document; a writer that failed to
 * open reports !ok() and swallows events.
 */
class TraceWriter
{
  public:
    /** One "args" key/value attached to an event. */
    struct Arg
    {
        const char *key;
        std::uint64_t value;
    };

    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    /** One writer per run, pinned to one owner: Tracer handles borrow
     *  raw pointers to it, so copying *and* moving are compile errors
     *  (pinned by tests/obs_ownership_test.cc). */
    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;
    TraceWriter(TraceWriter &&) = delete;
    TraceWriter &operator=(TraceWriter &&) = delete;

    [[nodiscard]] bool ok() const { return file_ != nullptr; }
    [[nodiscard]] const std::string &path() const { return path_; }
    [[nodiscard]] std::uint64_t eventsWritten() const { return events_; }

    /** Finishes the JSON document and closes the file. */
    void close();

    /** An instantaneous event (ph "i"). */
    void instant(const char *name, const char *category, unsigned tid,
                 std::uint64_t ts_cycles,
                 std::initializer_list<Arg> args = {});

    /** Begin/end of an async span (ph "b"/"e"); @p id pairs them. */
    void asyncBegin(const char *name, const char *category,
                    std::uint64_t id, std::uint64_t ts_cycles,
                    std::initializer_list<Arg> args = {});
    void asyncEnd(const char *name, const char *category,
                  std::uint64_t id, std::uint64_t ts_cycles);

    /** A counter track sample (ph "C"). */
    void counter(const char *name, std::uint64_t ts_cycles,
                 const char *series, std::uint64_t value);

    /** Names the lane @p tid on the timeline (metadata event). */
    void threadName(unsigned tid, const char *name);

  private:
    void emit(char ph, const char *name, const char *category,
              unsigned tid, std::uint64_t ts_cycles, bool with_id,
              std::uint64_t id, std::initializer_list<Arg> args);

    std::string path_;
    FileHandle file_;
    std::uint64_t events_ = 0;
    bool first_ = true;
};

/**
 * The per-run tracing handle components emit through. Holds either
 * nothing (tracing disabled: every site is one branch) or a borrowed
 * TraceWriter. When tracing is compiled out the attach point remains
 * but on() is constexpr-false and FDIP_TRACE_EVENT vanishes.
 */
class Tracer
{
  public:
#if FDIP_ENABLE_TRACING
    [[nodiscard]] FDIP_HOT_PATH bool on() const { return sink_ != nullptr; }
    [[nodiscard]] FDIP_HOT_PATH TraceWriter *writer() const { return sink_; }
    void attach(TraceWriter *w) { sink_ = w; }

  private:
    TraceWriter *sink_ = nullptr;
#else
    [[nodiscard]] FDIP_HOT_PATH constexpr bool on() const { return false; }
    [[nodiscard]] FDIP_HOT_PATH constexpr TraceWriter *writer() const { return nullptr; }
    void attach(TraceWriter *) {}
#endif
};

} // namespace fdip

/**
 * Emission macro: FDIP_TRACE_EVENT(tracer, instant("pfc_fire", "pfc",
 * kTraceTidFetch, now, {{"pc", pc}})). Compiles to nothing when the
 * tracing backend is configured out.
 */
#if FDIP_ENABLE_TRACING
#define FDIP_TRACE_EVENT(tracer, ...)                                         \
    do {                                                                      \
        if ((tracer).on())                                                    \
            (tracer).writer()->__VA_ARGS__;                                   \
    } while (false)
#else
#define FDIP_TRACE_EVENT(tracer, ...)                                         \
    do {                                                                      \
    } while (false)
#endif

#endif // FDIP_OBS_TRACE_EVENTS_H_
