#include "obs/obs_config.h"

#include <cerrno>
#include <cstdlib>

#include "obs/heartbeat.h"
#include "util/log.h"

namespace fdip
{

namespace
{

/** FDIP_PROFILE: ticks between profiler samples; unset/empty = off,
 *  garbage warns and disables (same contract as FDIP_HEARTBEAT). */
std::uint64_t
profileIntervalFromEnv()
{
    // Coordinating-thread opt-in, resolved before workers fork.
    const char *v = // NOLINT(concurrency-mt-unsafe)
        std::getenv("FDIP_PROFILE");
    if (v == nullptr || *v == '\0')
        return 0;
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (errno != 0 || end == v || *end != '\0' || *v == '-' || n == 0) {
        fdip_warn("FDIP_PROFILE='%s' is not a positive tick interval; "
                  "profiling disabled",
                  v);
        return 0;
    }
    return n;
}

/** Makes @p s safe to embed in a filename. */
std::string
sanitizePathPart(const std::string &s)
{
    std::string out = s;
    for (char &c : out) {
        if (c == '/' || c == '\\' || c == ' ')
            c = '_';
    }
    return out;
}

} // namespace

ObsConfig
resolveObsEnv(ObsConfig base)
{
    if (base.heartbeatInterval == 0)
        base.heartbeatInterval = heartbeatIntervalFromEnv();
    if (base.profileInterval == 0)
        base.profileInterval = profileIntervalFromEnv();
    if (base.tracePath.empty()) {
        // Coordinating-thread opt-in, resolved before workers fork.
        const char *v = // NOLINT(concurrency-mt-unsafe)
            std::getenv("FDIP_TRACE");
        if (v != nullptr && *v != '\0')
            base.tracePath = v;
    }
    return base;
}

std::string
tracePathForRun(const ObsConfig &obs, const std::string &workload)
{
    if (obs.tracePath.empty() || obs.traceExactPath)
        return obs.tracePath;

    // Appended piece by piece: GCC 12's -Wrestrict misfires at -O3 on
    // the `"." + string` and `substr + infix + substr` temporaries.
    std::string infix;
    for (const std::string *part : {&obs.traceLabel, &workload}) {
        if (!part->empty()) {
            infix += '.';
            infix += sanitizePathPart(*part);
        }
    }
    if (infix.empty())
        return obs.tracePath;

    const std::size_t slash = obs.tracePath.find_last_of('/');
    const std::size_t dot = obs.tracePath.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return obs.tracePath + infix;
    }
    std::string path = obs.tracePath.substr(0, dot);
    path += infix;
    path.append(obs.tracePath, dot);
    return path;
}

} // namespace fdip
