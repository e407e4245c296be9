// Dirty hot-path fixture: one planted violation per hot-path ban,
// inside annotated spans, so the self-test can assert each rule
// fires (false-negative regression).

#include "util/bad_header.h"

namespace fdip
{

// Heap growth + raw new + make_unique in a hot function.
FDIP_HOT_PATH void
Gadget::tick(int now)
{
    values_.push_back(now);             // growing std-container
    auto *leak = new int(now);          // raw new
    auto owned = std::make_unique<int>(now); // make_unique
    (void)leak;
    (void)owned;
}

// Exceptions, strings, type-erased callables.
FDIP_HOT_PATH int
Gadget::classify(int v)
{
    if (v < 0)
        throw v;                        // throw
    std::string label = "hot";          // std::string construction
    std::function<int(int)> f;          // std::function
    (void)label;
    return f ? f(v) : v;
}

// I/O and locking inside a hot region; clean before BEGIN and after
// END.
void
Gadget::run()
{
    setup();
    FDIP_HOT_REGION_BEGIN(main_loop);
    printf("tick\n");                   // printf formatting
    mu_.lock();                         // lock acquisition
    scratch_.push_back(0);              // growing std-container
    FDIP_HOT_REGION_END(main_loop);
    teardown();
}

// Mismatched region names: a finding (and the span still scans).
void
Gadget::mislabeled()
{
    FDIP_HOT_REGION_BEGIN(alpha);
    FDIP_HOT_REGION_END(beta);
}

// Annotating a declaration hides the body from the lint: a finding.
FDIP_HOT_PATH void hiddenBody(int x);

// A dangling END with no BEGIN: a finding.
void
Gadget::broken()
{
    FDIP_HOT_REGION_END(never_opened);
}

} // namespace fdip
