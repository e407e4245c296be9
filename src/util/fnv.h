/**
 * @file
 * FNV-1a 64-bit hashing: the content-addressing primitive of the
 * campaign service. Every manifest entry (serialized config x workload
 * x seed x sim-instrs) and every result record's architectural-counter
 * checksum is an FNV-1a digest, so identical experiments hash to
 * identical keys on any host — no clocks, no pointers, no locale.
 *
 * FNV-1a is not cryptographic; it is used for content addressing and
 * corruption detection of trusted local spool files, where a fast,
 * dependency-free, fully deterministic 64-bit digest is exactly the
 * right tool.
 *
 * Two exact identities (arithmetic mod 2^64, P the prime) let long
 * inputs skip most per-byte multiplies without changing a digest: a
 * zero byte only multiplies the state by P (fnv1aMix), and a fixed
 * byte string is one multiply and one table load (FnvConstantRun).
 */

#ifndef FDIP_UTIL_FNV_H_
#define FDIP_UTIL_FNV_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace fdip
{

/** FNV-1a 64-bit offset basis. */
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
/** FNV-1a 64-bit prime. */
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** Folds one byte into an FNV-1a state. */
[[nodiscard]] constexpr std::uint64_t
fnv1aByte(std::uint8_t byte, std::uint64_t h) noexcept
{
    return (h ^ byte) * kFnvPrime;
}

/** FNV-1a over a byte sequence, continuing from @p h. */
[[nodiscard]] constexpr std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t h = kFnvOffsetBasis) noexcept
{
    for (char c : bytes)
        h = fnv1aByte(static_cast<std::uint8_t>(c), h);
    return h;
}

/** kFnvPrime^k for k = 0..8: what k zero bytes multiply a state by. */
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
    std::array<std::uint64_t, 9> p{};
    p[0] = 1;
    for (std::size_t k = 1; k < p.size(); ++k)
        p[k] = p[k - 1] * kFnvPrime;
    return p;
}();

/**
 * Folds a 64-bit value (little-endian byte order) into @p h: the bytes
 * up to the highest nonzero one step by step, the zero bytes above it
 * as one multiply.
 */
[[nodiscard]] constexpr std::uint64_t
fnv1aMix(std::uint64_t value, std::uint64_t h) noexcept
{
    const unsigned zero_high =
        static_cast<unsigned>(std::countl_zero(value)) / 8;
    for (unsigned i = 0; i < 8 - zero_high; ++i)
        h = fnv1aByte(static_cast<std::uint8_t>(value >> (8 * i)), h);
    return h * kFnvPrimePowers[zero_high];
}

/**
 * FNV-1a over one fixed byte string B as one multiply and one load.
 * XOR-ing a byte changes only the state's low byte, and a multiply
 * carries only upward. So write a state as h = H + l with l = h mod
 * 256: H * P^i stays a multiple of 256 while B's bytes fold into the l
 * part, and after B the state is H * P^|B| + fnv1a64(B, l), which is
 * h * P^|B| + offset[l].
 */
class FnvConstantRun
{
  public:
    /** The empty string's run: the identity. */
    constexpr FnvConstantRun() noexcept = default;

    constexpr explicit FnvConstantRun(std::string_view bytes) noexcept
    {
        for (std::size_t i = 0; i < bytes.size(); ++i)
            scale_ *= kFnvPrime;
        for (std::uint64_t l = 0; l < offset_.size(); ++l)
            offset_[l] = fnv1a64(bytes, l) - l * scale_;
    }

    /** fnv1a64(B, @p h). */
    [[nodiscard]] constexpr std::uint64_t
    operator()(std::uint64_t h) const noexcept
    {
        return h * scale_ + offset_[h & 0xff];
    }

  private:
    std::uint64_t scale_ = 1; ///< P^|B|.
    std::array<std::uint64_t, 256> offset_{};
};

/** @p value as a fixed-width 16-character lowercase hex string — the
 *  canonical spelling of every hash in the spool (filenames, record
 *  fields, checksums). */
[[nodiscard]] inline std::string
toHex16(std::uint64_t value)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
        value >>= 4;
    }
    return out;
}

/** Parses a 16-character lowercase hex string; false on any other
 *  input (wrong length, uppercase, non-hex). Strictness is deliberate:
 *  spool keys have exactly one valid spelling. */
[[nodiscard]] inline bool
fromHex16(std::string_view hex, std::uint64_t *value) noexcept
{
    if (hex.size() != 16)
        return false;
    std::uint64_t v = 0;
    for (char c : hex) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
    }
    *value = v;
    return true;
}

} // namespace fdip

#endif // FDIP_UTIL_FNV_H_
