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
#include "trace/trace_records.h"
#include "trace/workload.h"
#include "util/hotpath.h"

namespace fdip
{

/**
 * A committed-path trace over a program image.
 */
struct Trace
{
    Trace() = default;

    /** An empty trace over @p wl, with room for @p capacity records. */
    explicit Trace(std::shared_ptr<const Workload> wl,
                   std::size_t capacity = 0);

    /** A trace of @p records over @p wl, built at its exact size. */
    Trace(std::shared_ptr<const Workload> wl,
          const std::vector<DynInst> &records);

    /** The workload this trace was generated from. It holds the image
     *  insts reads, so it is not replaced once records exist. */
    std::shared_ptr<const Workload> workload;

    /** The committed dynamic instruction stream. */
    TraceRecords insts;

    /** Convenience accessors. */
    FDIP_HOT_PATH const ProgramImage &image() const { return workload->image; }
    FDIP_HOT_PATH std::size_t size() const { return insts.size(); }

    /** PC of dynamic instruction @p i. */
    FDIP_HOT_PATH Addr
    pcOf(std::size_t i) const
    {
        return image().pcOf(insts.staticIndex(i));
    }

    /** Static instruction of dynamic instruction @p i. */
    FDIP_HOT_PATH StaticInst
    staticOf(std::size_t i) const
    {
        return image().inst(insts.staticIndex(i));
    }

    /** True if dynamic instruction @p i was taken. */
    FDIP_HOT_PATH bool taken(std::size_t i) const { return insts.taken(i); }

    /** PC the committed path continues at after dynamic inst @p i. */
    FDIP_HOT_PATH Addr nextPc(std::size_t i) const { return insts.nextPc(i); }

    /** Effective address of dynamic instruction @p i, a load or store
     *  (any record's info reads back exactly). */
    FDIP_HOT_PATH Addr memAddr(std::size_t i) const { return insts.info(i); }
};

/**
 * Executes @p workload for @p num_insts dynamic instructions.
 *
 * Execution is fully deterministic given the workload (which embeds the
 * seed). Branch outcomes follow each branch's BranchBehavior; indirect
 * targets and the dispatcher follow the recorded schedules; loads and
 * stores receive synthetic effective addresses with stack/global/stream
 * locality. When @p appended is not null, it receives a copy of every
 * record as appended (a lockstep reference for tests).
 */
Trace generateTrace(std::shared_ptr<const Workload> workload,
                    std::size_t num_insts,
                    std::vector<DynInst> *appended = nullptr);

} // namespace fdip

#endif // FDIP_TRACE_TRACE_GEN_H_
