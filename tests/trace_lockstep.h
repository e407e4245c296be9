/**
 * @file
 * Lockstep check of the packed record store: every record of a trace
 * must read back, field by field, as the DynInst its builder appended,
 * through operator[], forEach and the Trace accessors, and nextPc must
 * agree with the formula of the 16-byte record store it replaced.
 */

#ifndef FDIP_TESTS_TRACE_LOCKSTEP_H_
#define FDIP_TESTS_TRACE_LOCKSTEP_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "trace/inst.h"
#include "trace/trace_gen.h"

namespace fdip::test
{

/** The next PC of @p d as the 16-byte store computed it; a static
 *  index outside the image counts as a non-branch, as instAt does. */
inline Addr
referenceNextPc(const ProgramImage &image, const DynInst &d)
{
    const Addr pc = image.pcOf(d.staticIndex);
    if (isBranch(image.instAt(pc).cls) && d.taken)
        return d.info;
    return pc + kInstBytes;
}

/** Checks every record of @p t against @p kept, what was appended. */
inline void
expectLockstep(const Trace &t, const std::vector<DynInst> &kept)
{
    ASSERT_EQ(t.size(), kept.size());
    std::vector<DynInst> walked;
    walked.reserve(t.size());
    t.insts.forEach([&](const DynInst &d) { walked.push_back(d); });
    ASSERT_EQ(walked.size(), kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
        const DynInst &k = kept[i];
        const DynInst d = t.insts[i];
        for (const DynInst &r : {d, walked[i]}) {
            ASSERT_EQ(r.staticIndex, k.staticIndex) << "record " << i;
            ASSERT_EQ(r.taken, k.taken) << "record " << i;
            ASSERT_EQ(r.pad[0], k.pad[0]) << "record " << i;
            ASSERT_EQ(r.pad[1], k.pad[1]) << "record " << i;
            ASSERT_EQ(r.pad[2], k.pad[2]) << "record " << i;
            ASSERT_EQ(r.info, k.info) << "record " << i;
        }
        ASSERT_EQ(t.pcOf(i), t.image().pcOf(k.staticIndex)) << i;
        ASSERT_EQ(t.taken(i), k.taken != 0) << "record " << i;
        ASSERT_EQ(t.memAddr(i), k.info) << "record " << i;
        ASSERT_EQ(t.nextPc(i), referenceNextPc(t.image(), k))
            << "record " << i;
    }
}

} // namespace fdip::test

#endif // FDIP_TESTS_TRACE_LOCKSTEP_H_
