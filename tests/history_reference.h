/**
 * @file
 * Obviously-correct recomputations of the folded history from the raw
 * pushed-bit sequence (oldest bit first, one 0/1 byte per bit), shared
 * by the history and TAGE reference-model tests.
 */

#ifndef FDIP_TESTS_HISTORY_REFERENCE_H_
#define FDIP_TESTS_HISTORY_REFERENCE_H_

#include <cstdint>
#include <vector>

namespace fdip::test
{

/** The naive fold of the last @p len bits of @p bits to @p width: bit
 *  of age a (0 = newest) XORed into bit (a mod width). */
inline std::uint32_t
naiveFold(const std::vector<std::uint8_t> &bits, unsigned len,
          unsigned width)
{
    std::uint32_t v = 0;
    const std::size_t n = bits.size();
    for (std::size_t age = 0; age < len && age < n; ++age)
        v ^= std::uint32_t{bits[n - 1 - age]} << (age % width);
    return v;
}

/** The last 64 bits of @p bits, newest in bit 0. */
inline std::uint64_t
naiveRecent(const std::vector<std::uint8_t> &bits)
{
    std::uint64_t v = 0;
    const std::size_t n = bits.size();
    for (std::size_t age = 0; age < 64 && age < n; ++age)
        v |= std::uint64_t{bits[n - 1 - age]} << age;
    return v;
}

/** Appends the bits the last event pushed onto a history with
 *  @p bits_per_event bits per event, read back from its @p recent
 *  register, to @p bits. */
inline void
appendEventBits(std::vector<std::uint8_t> &bits, std::uint64_t recent,
                unsigned bits_per_event)
{
    for (unsigned j = 0; j < bits_per_event; ++j)
        bits.push_back((recent >> (bits_per_event - 1 - j)) & 1);
}

} // namespace fdip::test

#endif // FDIP_TESTS_HISTORY_REFERENCE_H_
