/**
 * @file
 * Dirty fixture TU for the lexer shared by the textual lints: a digit
 * separator is part of its number, and an encoding-prefixed char
 * literal still opens and closes on its quotes, so each banned call
 * below must be found. Never compiled — only linted.
 */

#include <cstdint>
#include <cstdlib>
#include <ctime>

namespace fixture
{

constexpr std::uint64_t kMagic = 0x46444950'54524331ULL;

int
afterDigitSeparator()
{
    return rand();                    // libc rand (determinism)
}

long
betweenPrefixedCharLiterals()
{
    const char8_t open = u8'x'; const long now = time(nullptr); const char8_t close = u8'y';
    (void)open; (void)close;
    return now;
}

} // namespace fixture
