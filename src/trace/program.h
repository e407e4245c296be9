/**
 * @file
 * The synthetic program image: a contiguous array of fixed-size
 * instructions with function boundaries.
 *
 * The image plays the role of the text segment. The fetch pipeline's
 * pre-decoder reads it (that is what an I-cache line contains), the BTB
 * prefetcher decodes it on fills, and the trace executor runs it.
 */

#ifndef FDIP_TRACE_PROGRAM_H_
#define FDIP_TRACE_PROGRAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/inst.h"
#include "util/hotpath.h"
#include "util/types.h"

namespace fdip
{

/**
 * A function: a contiguous run of instructions ending in a return.
 */
struct FunctionInfo
{
    std::uint32_t firstIndex = 0; ///< Index of the entry instruction.
    std::uint32_t numInsts = 0;   ///< Size in instructions.
};

/**
 * A contiguous program image starting at a base address.
 *
 * Each instruction is stored as one 8-byte slot whose direct target is
 * a slot index. A far target, one with no such index (unaligned, below
 * the base, or past index 2^32 - 3; generated and imported images have
 * none), lives in a side list keyed by slot, so every StaticInst reads
 * back exactly as it was stored.
 */
class ProgramImage
{
  public:
    /** @param base text-segment base; must be fetch-block aligned. */
    explicit ProgramImage(Addr base = 0x400000);

    /** Text-segment base address. */
    Addr baseAddr() const { return base_; }

    /** Number of instructions in the image. */
    std::size_t numInsts() const { return slots_.size(); }

    /** Code footprint in bytes. */
    FDIP_HOT_PATH std::size_t footprintBytes() const { return slots_.size() * kInstBytes; }

    /** Address of instruction @p index. */
    FDIP_HOT_PATH Addr
    pcOf(std::uint32_t index) const
    {
        return base_ + static_cast<Addr>(index) * kInstBytes;
    }

    /** True if @p pc falls inside the image. */
    FDIP_HOT_PATH bool
    contains(Addr pc) const
    {
        return pc >= base_ && pc < base_ + footprintBytes() &&
               pc % kInstBytes == 0;
    }

    /** Index of the instruction at @p pc; pc must be contained. */
    FDIP_HOT_PATH std::uint32_t
    indexOf(Addr pc) const
    {
        return static_cast<std::uint32_t>((pc - base_) / kInstBytes);
    }

    /** Instruction at @p index. */
    FDIP_HOT_PATH StaticInst
    inst(std::uint32_t index) const
    {
        const Slot s = slots_[index];
        StaticInst si;
        si.cls = s.cls;
        si.behavior = s.behavior;
        si.param = s.param;
        si.target = targetOf(index);
        return si;
    }

    /** Class of instruction @p index, read without decoding the slot. */
    FDIP_HOT_PATH InstClass
    classOf(std::uint32_t index) const
    {
        return slots_[index].cls;
    }

    /** Direct target of instruction @p index (kNoAddr if it has none). */
    FDIP_HOT_PATH Addr
    targetOf(std::uint32_t index) const
    {
        const std::uint32_t t = slots_[index].target;
        if (t == kFarTarget) [[unlikely]]
            return farTarget(index);
        // kNoAddr is all ones: OR-ing a mask keeps the read branch-free.
        return pcOf(t) | (Addr{0} - (t == kNoTarget));
    }

    /**
     * Instruction at @p pc, or StaticInst{} (a non-branch filler) when
     * @p pc lies outside the image (wrong-path fetch may run past the
     * text segment; real hardware would fetch whatever bytes are there).
     */
    FDIP_HOT_PATH StaticInst
    instAt(Addr pc) const
    {
        if (!contains(pc))
            return StaticInst{};
        return inst(indexOf(pc));
    }

    /** Replaces instruction @p index (for builders and tests). */
    void set(std::uint32_t index, const StaticInst &inst);

    /** Appends an instruction, returning its index. */
    std::uint32_t append(const StaticInst &inst);

    /** Makes room for an image built to a known size, so appending up
     *  to it never copies the image or leaves spare capacity. */
    void reserve(std::size_t num_insts, std::size_t num_functions);

    /** Registers a function spanning [first, first + count). */
    void addFunction(std::uint32_t first_index, std::uint32_t count);

    /** All registered functions. */
    const std::vector<FunctionInfo> &functions() const { return functions_; }

    /** Number of static branch instructions. */
    std::size_t numBranches() const;

    /** Number of static taken-capable branches that are not strongly
     *  biased not-taken (rough BTB footprint estimate). */
    std::size_t numLikelyTakenBranches() const;

    /** Number of far targets, kept in the side list. */
    std::size_t numFarTargets() const { return far_.size(); }

  private:
    /** One stored instruction; target is a slot index or a sentinel. */
    struct Slot
    {
        InstClass cls;
        BranchBehavior behavior;
        std::uint16_t param;
        std::uint32_t target;
    };
    static_assert(sizeof(Slot) == 8, "an image slot is 8 bytes");

    /** Slot::target of an instruction without a direct target. */
    static constexpr std::uint32_t kNoTarget = 0xffffffffu;
    static_assert(kNoAddr == ~Addr{0},
                  "targetOf() builds kNoAddr as a mask");
    /** Slot::target of a far target, kept in far_. */
    static constexpr std::uint32_t kFarTarget = 0xfffffffeu;

    /** Encodes @p inst for slot @p index, updating far_. */
    Slot encode(std::uint32_t index, const StaticInst &inst);

    /** Side-list target of slot @p index. */
    Addr farTarget(std::uint32_t index) const;

    Addr base_;
    std::vector<Slot> slots_;
    std::vector<std::pair<std::uint32_t, Addr>> far_; ///< Sorted by slot.
    std::vector<FunctionInfo> functions_;
};

} // namespace fdip

#endif // FDIP_TRACE_PROGRAM_H_
