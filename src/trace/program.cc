#include "trace/program.h"

#include <algorithm>

#include "util/hotpath.h"
#include "util/log.h"

namespace fdip
{

const char *
instClassName(InstClass c)
{
    switch (c) {
      case InstClass::kAlu: return "alu";
      case InstClass::kLoad: return "load";
      case InstClass::kStore: return "store";
      case InstClass::kCondDirect: return "b.cond";
      case InstClass::kJumpDirect: return "b";
      case InstClass::kCallDirect: return "bl";
      case InstClass::kJumpIndirect: return "br";
      case InstClass::kCallIndirect: return "blr";
      case InstClass::kReturn: return "ret";
    }
    return "?";
}

ProgramImage::ProgramImage(Addr base)
    : base_(base)
{
    if (base_ % kFetchBlockBytes != 0)
        fdip_fatal("program base %#lx must be 32B aligned", base_);
}

ProgramImage::Slot
ProgramImage::encode(std::uint32_t index, const StaticInst &inst)
{
    auto it = std::lower_bound(far_.begin(), far_.end(),
                               std::pair<std::uint32_t, Addr>{index, 0});
    if (it != far_.end() && it->first == index)
        it = far_.erase(it);

    Slot s{inst.cls, inst.behavior, inst.param, kNoTarget};
    if (inst.target == kNoAddr)
        return s;
    const Addr off = inst.target - base_;
    if (inst.target >= base_ && off % kInstBytes == 0 &&
        off / kInstBytes < kFarTarget) {
        s.target = static_cast<std::uint32_t>(off / kInstBytes);
    } else {
        s.target = kFarTarget;
        far_.insert(it, {index, inst.target});
    }
    return s;
}

FDIP_HOT_PATH Addr
ProgramImage::farTarget(std::uint32_t index) const
{
    return std::lower_bound(far_.begin(), far_.end(),
                            std::pair<std::uint32_t, Addr>{index, 0})
        ->second;
}

void
ProgramImage::set(std::uint32_t index, const StaticInst &inst)
{
    slots_[index] = encode(index, inst);
}

std::uint32_t
ProgramImage::append(const StaticInst &inst)
{
    const auto index = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(encode(index, inst));
    return index;
}

void
ProgramImage::reserve(std::size_t num_insts, std::size_t num_functions)
{
    slots_.reserve(num_insts);
    functions_.reserve(num_functions);
}

void
ProgramImage::addFunction(std::uint32_t first_index, std::uint32_t count)
{
    if (first_index + count > slots_.size())
        fdip_panic("function [%u, %u) exceeds image size %zu", first_index,
                   first_index + count, slots_.size());
    functions_.push_back({first_index, count});
}

std::size_t
ProgramImage::numBranches() const
{
    std::size_t n = 0;
    for (const Slot &i : slots_)
        if (isBranch(i.cls))
            ++n;
    return n;
}

std::size_t
ProgramImage::numLikelyTakenBranches() const
{
    std::size_t n = 0;
    for (const Slot &i : slots_) {
        if (!isBranch(i.cls))
            continue;
        if (isConditional(i.cls) && i.behavior == BranchBehavior::kBiased &&
            i.param < 50) {
            continue; // Almost-never-taken conditional.
        }
        ++n;
    }
    return n;
}

} // namespace fdip
