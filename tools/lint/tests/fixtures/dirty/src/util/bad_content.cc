/**
 * @file
 * Dirty fixture TU for check_sources + check_determinism: every
 * construct below must produce exactly one finding from the matching
 * rule. Never compiled — only linted.
 */

#include <cstdlib>
#include <ctime>
#include <random>

namespace fixture
{

void
breakDeterminism()
{
    srand(42);                        // libc srand (determinism)
    int r = rand();                   // libc rand (determinism)
    std::random_device entropy;       // nondeterministic entropy source
    long now = time(nullptr);         // wall-clock time()
    long ticks = clock();             // wall-clock clock()
    auto t0 = std::chrono::steady_clock::now();   // chrono host clock
    const char *env = getenv("FDIP_FIXTURE");     // ambient env config
    (void)r; (void)now; (void)ticks; (void)t0; (void)env;
}

void
breakSources()
{
    int *leak = new int(7);           // raw new
    short narrow = (short)*leak;      // C-style narrowing cast
    (void)narrow;
}

} // namespace fixture
