// Clean hot-path fixture: annotated code that obeys every ban, plus
// banned-looking constructs OUTSIDE the hot spans that must NOT fire
// (false-positive regression for the hot-path bans).

#include "util/good.h"

namespace fdip
{

// A hot function using only the fixed-capacity idiom (camelCase
// mutators are the repo's own preallocated types, not std growers).
FDIP_HOT_PATH void
Widget::tick(int now)
{
    ring_.pushBack(now);
    if (ring_.full())
        ring_.popBack();
    map_.put(now, now + 1);
    FDIP_CHECK(now >= 0, "string literals are stripped: push_back new");
}

// A mostly-cold function with a hot region inside: the bans apply
// only between BEGIN and END.
void
Widget::run()
{
    values_.reserve(64); // cold setup: allowed
    FDIP_HOT_REGION_BEGIN(tick_loop);
    for (int i = 0; i < 64; ++i)
        tick(i);
    FDIP_HOT_REGION_END(tick_loop);
    values_.push_back(summary()); // cold teardown: allowed
}

// One definition per build, as in obs/trace_events.h's Tracer: the
// compiler (and libclang) reads one #if arm, the builtin parser both.
// Each annotation heads a hot definition, so neither frontend reports
// the arm it skips.
#if FDIP_ENABLE_TRACING
FDIP_HOT_PATH bool
traceOn(const int *sink)
{
    return sink != nullptr;
}
#else
FDIP_HOT_PATH bool
traceOn(const int *)
{
    return false;
}
#endif

// An annotated declaration is a finding; a cold declaration is not.
void coldHelper();

} // namespace fdip
