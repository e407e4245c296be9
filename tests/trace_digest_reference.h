/**
 * @file
 * Obviously-correct reference model of the trace digest, kept as first
 * written: FNV-1a one byte at a time over every 64-bit field of every
 * static instruction, then over the raw bytes of each dynamic record.
 * The digest tests compare traceDigest with it on generated, imported
 * and hand-built traces.
 */

#ifndef FDIP_TESTS_TRACE_DIGEST_REFERENCE_H_
#define FDIP_TESTS_TRACE_DIGEST_REFERENCE_H_

#include <cstddef>
#include <cstdint>

#include "trace/suite.h"
#include "util/fnv.h"

namespace fdip::test
{

/** Folds a 64-bit value (little-endian byte order) into @p h. */
constexpr std::uint64_t
referenceFnv1aMix(std::uint64_t value, std::uint64_t h) noexcept
{
    for (unsigned i = 0; i < 8; ++i)
        h = fnv1aByte(static_cast<std::uint8_t>(value >> (8 * i)), h);
    return h;
}

/** FNV-1a over raw memory, continuing from @p h. */
inline std::uint64_t
referenceFnv1a64Bytes(const void *data, std::size_t size,
                      std::uint64_t h = kFnvOffsetBasis) noexcept
{
    return fnv1a64(
        std::string_view(static_cast<const char *>(data), size), h);
}

/** traceDigest, one byte per step. */
inline std::uint64_t
referenceTraceDigest(const SuiteEntry &entry)
{
    std::uint64_t h = fnv1a64("fdip-trace-v1\n");
    h = fnv1a64(entry.name, h);
    h = fnv1aByte(0, h); // Name/content separator.

    const ProgramImage &image = entry.trace.image();
    h = referenceFnv1aMix(image.baseAddr(), h);
    h = referenceFnv1aMix(image.numInsts(), h);
    for (std::uint32_t i = 0; i < image.numInsts(); ++i) {
        const StaticInst &si = image.inst(i);
        h = referenceFnv1aMix(static_cast<std::uint64_t>(si.cls), h);
        h = referenceFnv1aMix(static_cast<std::uint64_t>(si.param), h);
        h = referenceFnv1aMix(si.target, h);
    }

    // Each record hashes as the raw bytes of the DynInst it reads back
    // as: its 16-byte layout is static_asserted stable and its padding
    // is explicitly zeroed.
    h = referenceFnv1aMix(entry.trace.insts.size(), h);
    for (std::size_t i = 0; i < entry.trace.insts.size(); ++i) {
        const DynInst d = entry.trace.insts[i];
        h = referenceFnv1a64Bytes(&d, sizeof(d), h);
    }
    return h;
}

} // namespace fdip::test

#endif // FDIP_TESTS_TRACE_DIGEST_REFERENCE_H_
