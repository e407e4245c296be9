/**
 * @file
 * The FDIP_CHECK invariant-checking layer.
 *
 * Simulator correctness is load-bearing for every reproduced figure:
 * a silently corrupted FTQ or RAS produces numbers, just wrong ones.
 * This header provides:
 *
 *  - FDIP_CHECK(cond, fmt, ...):   hot-path invariant assertion.
 *    Enabled when FDIP_ENABLE_CHECKS is 1 (the default build); compiled
 *    out entirely in release builds configured with -DFDIP_CHECKS=OFF.
 *    On failure it throws InvariantViolation (so tests can assert that
 *    illegal states are caught; an uncaught violation terminates).
 *
 *  - InvariantScope: an RAII marker naming the checking context.
 *    Violation messages carry the full scope path (e.g.
 *    "Frontend::tick/fetch"), which turns a bare failed expression
 *    into an actionable report.
 *
 * Everything here is header-only so that any module (including
 * fdip_util, which everything links against) can use FDIP_CHECK
 * without creating a library dependency cycle.
 */

#ifndef FDIP_UTIL_INVARIANT_H_
#define FDIP_UTIL_INVARIANT_H_

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "util/log.h"

/**
 * FDIP_ENABLE_CHECKS is normally injected by the build system (the
 * FDIP_CHECKS CMake option, default ON). Standalone inclusion falls
 * back to assert()-like semantics: on unless NDEBUG.
 */
#ifndef FDIP_ENABLE_CHECKS
#ifdef NDEBUG
#define FDIP_ENABLE_CHECKS 0
#else
#define FDIP_ENABLE_CHECKS 1
#endif
#endif

namespace fdip
{

/** Compile-time view of the check configuration (for if constexpr). */
inline constexpr bool kInvariantChecksEnabled = FDIP_ENABLE_CHECKS != 0;

/**
 * Thrown when an FDIP_CHECK fails. Derives from std::logic_error: a
 * violated invariant is a simulator bug or an illegal configuration,
 * never a recoverable runtime condition.
 */
class InvariantViolation : public std::logic_error
{
  public:
    explicit InvariantViolation(const std::string &msg)
        : std::logic_error(msg)
    {
    }
};

namespace check_detail
{

/** Scopes named in a violation message; deeper ones are counted. */
inline constexpr std::size_t kMaxScopeDepth = 16;

/** The active InvariantScope names, outermost first. */
struct ScopeStack
{
    const char *names[kMaxScopeDepth];
    std::size_t depth; ///< Active scopes, named or not.
};

/** This thread's scope stack. Constant-initialised and trivially
 *  destructible: entering a scope takes no TLS init guard and no heap. */
inline ScopeStack &
scopeStack() noexcept
{
    thread_local constinit ScopeStack stack{};
    return stack;
}

/** "outer/inner" path of the active scopes ("(global)" when none). */
inline std::string
scopePath()
{
    const ScopeStack &stack = scopeStack();
    if (stack.depth == 0)
        return "(global)";
    std::string path;
    const std::size_t named = std::min(stack.depth, kMaxScopeDepth);
    for (std::size_t i = 0; i < named; ++i) {
        if (!path.empty())
            path += '/';
        path += stack.names[i];
    }
    if (stack.depth > named)
        path += log_detail::format("/...(%zu more)", stack.depth - named);
    return path;
}

/** Builds the violation message and throws. */
[[noreturn]] inline void
checkFailed(const char *file, int line, const char *expr,
            const std::string &msg)
{
    throw InvariantViolation(log_detail::format(
        "%s:%d: invariant violated in %s: (%s) %s", file, line,
        scopePath().c_str(), expr, msg.c_str()));
}

} // namespace check_detail

/**
 * Names the enclosing checking context for the lifetime of the object.
 * A no-op (and zero-cost) when checks are compiled out.
 */
class InvariantScope
{
  public:
#if FDIP_ENABLE_CHECKS
    explicit InvariantScope(const char *name) noexcept
    {
        check_detail::ScopeStack &stack = check_detail::scopeStack();
        if (stack.depth < check_detail::kMaxScopeDepth)
            stack.names[stack.depth] = name;
        ++stack.depth;
    }
    ~InvariantScope() { --check_detail::scopeStack().depth; }
#else
    explicit InvariantScope(const char *) {}
#endif
    InvariantScope(const InvariantScope &) = delete;
    InvariantScope &operator=(const InvariantScope &) = delete;

    /** The active scope path (for tests and diagnostics). */
    static std::string path() { return check_detail::scopePath(); }
};

} // namespace fdip

#if FDIP_ENABLE_CHECKS
/**
 * Asserts a simulator invariant. The message is printf-style.
 * Throws fdip::InvariantViolation on failure; compiled out when the
 * build disables checks (-DFDIP_CHECKS=OFF).
 */
#define FDIP_CHECK(cond, ...)                                                 \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ::fdip::check_detail::checkFailed(                                \
                __FILE__, __LINE__, #cond,                                    \
                ::fdip::log_detail::format(__VA_ARGS__));                     \
        }                                                                     \
    } while (0)
#else
/* The condition stays an unevaluated operand, so the variables it
 * names still count as used. */
#define FDIP_CHECK(cond, ...) ((void)sizeof(!(cond)))
#endif

/**
 * Always-on variant for construction-time legality (cheap, cold path):
 * active even when hot-path checks are compiled out, so an illegal
 * structure can never be built silently.
 */
#define FDIP_REQUIRE(cond, ...)                                               \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ::fdip::check_detail::checkFailed(                                \
                __FILE__, __LINE__, #cond,                                    \
                ::fdip::log_detail::format(__VA_ARGS__));                     \
        }                                                                     \
    } while (0)

#endif // FDIP_UTIL_INVARIANT_H_
