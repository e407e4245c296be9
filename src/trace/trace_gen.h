/**
 * @file
 * Trace generation: executes a synthetic workload's program image and
 * records the committed dynamic instruction stream, which is the ground
 * truth the timing simulator replays.
 */

#ifndef FDIP_TRACE_TRACE_GEN_H_
#define FDIP_TRACE_TRACE_GEN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/inst.h"
#include "trace/workload.h"
#include "util/hotpath.h"

namespace fdip
{

/**
 * A committed-path trace over a program image.
 */
struct Trace
{
    /** The workload this trace was generated from. */
    std::shared_ptr<const Workload> workload;

    /** The committed dynamic instruction stream. */
    std::vector<DynInst> insts;

    /** Convenience accessors. */
    FDIP_HOT_PATH const ProgramImage &image() const { return workload->image; }
    FDIP_HOT_PATH std::size_t size() const { return insts.size(); }

    /** PC of dynamic instruction @p i. */
    FDIP_HOT_PATH Addr
    pcOf(std::size_t i) const
    {
        return image().pcOf(insts[i].staticIndex);
    }

    /** Static instruction of dynamic instruction @p i. */
    FDIP_HOT_PATH StaticInst
    staticOf(std::size_t i) const
    {
        return image().inst(insts[i].staticIndex);
    }

    /** PC the committed path continues at after dynamic inst @p i. */
    Addr nextPcOf(std::size_t i) const;
};

/**
 * Executes @p workload for @p num_insts dynamic instructions.
 *
 * Execution is fully deterministic given the workload (which embeds the
 * seed). Branch outcomes follow each branch's BranchBehavior; indirect
 * targets and the dispatcher follow the recorded schedules; loads and
 * stores receive synthetic effective addresses with stack/global/stream
 * locality.
 */
Trace generateTrace(std::shared_ptr<const Workload> workload,
                    std::size_t num_insts);

} // namespace fdip

#endif // FDIP_TRACE_TRACE_GEN_H_
