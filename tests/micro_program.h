/**
 * @file
 * Test-only helper for building hand-crafted micro-programs and
 * scripted traces, so frontend mechanisms (PFC, GHR fixup, RAS repair,
 * divergence resolution) can be tested deterministically without the
 * random workload generator.
 */

#ifndef FDIP_TESTS_MICRO_PROGRAM_H_
#define FDIP_TESTS_MICRO_PROGRAM_H_

#include <functional>
#include <memory>
#include <vector>

#include "trace/trace_gen.h"
#include "trace/workload.h"
#include "util/log.h"

namespace fdip::test
{

/**
 * Builder for a tiny explicit program plus a scripted execution.
 */
class MicroProgram
{
  public:
    /** Decides a conditional branch's direction per (site, visit#). */
    using CondOracle = std::function<bool(std::uint32_t, std::uint64_t)>;
    /** Decides an indirect branch's target per (site, visit#). */
    using TargetOracle = std::function<Addr(std::uint32_t, std::uint64_t)>;

    MicroProgram()
    {
        wl_ = std::make_shared<Workload>();
        wl_->spec.name = "micro";
        wl_->dispatchCallIndex = 0xffffffffu;
        wl_->entryPc = wl_->image.baseAddr();
    }

    Addr pcOfNext() const { return wl_->image.pcOf(nextIndex()); }

    std::uint32_t
    nextIndex() const
    {
        return static_cast<std::uint32_t>(wl_->image.numInsts());
    }

    std::uint32_t
    alu()
    {
        StaticInst s;
        s.cls = InstClass::kAlu;
        return wl_->image.append(s);
    }

    std::uint32_t
    load()
    {
        StaticInst s;
        s.cls = InstClass::kLoad;
        return wl_->image.append(s);
    }

    std::uint32_t
    cond(Addr target)
    {
        StaticInst s;
        s.cls = InstClass::kCondDirect;
        s.behavior = BranchBehavior::kBiased; // Overridden by oracle.
        s.target = target;
        return wl_->image.append(s);
    }

    std::uint32_t
    jump(Addr target)
    {
        StaticInst s;
        s.cls = InstClass::kJumpDirect;
        s.target = target;
        return wl_->image.append(s);
    }

    std::uint32_t
    call(Addr target)
    {
        StaticInst s;
        s.cls = InstClass::kCallDirect;
        s.target = target;
        return wl_->image.append(s);
    }

    std::uint32_t
    indirectCall(std::vector<Addr> targets)
    {
        StaticInst s;
        s.cls = InstClass::kCallIndirect;
        const std::uint32_t idx = wl_->image.append(s);
        wl_->indirectTargets[idx] = std::move(targets);
        return idx;
    }

    std::uint32_t
    ret()
    {
        StaticInst s;
        s.cls = InstClass::kReturn;
        return wl_->image.append(s);
    }

    /** Address of instruction @p index. */
    Addr pc(std::uint32_t index) const { return wl_->image.pcOf(index); }

    /**
     * Executes the program from its base for @p n instructions,
     * scripting conditional directions with @p cond_oracle and
     * indirect targets with @p target_oracle (may be null when the
     * program has none). @p appended, when not null, receives a copy
     * of every record as appended.
     */
    Trace
    run(std::size_t n, CondOracle cond_oracle = nullptr,
        TargetOracle target_oracle = nullptr,
        std::vector<DynInst> *appended = nullptr)
    {
        Trace t(wl_, n);
        const ProgramImage &img = wl_->image;
        std::vector<std::uint64_t> visits(img.numInsts(), 0);
        std::vector<std::uint32_t> call_stack;
        std::uint32_t idx = 0;

        while (t.insts.size() < n) {
            if (idx >= img.numInsts())
                fdip_panic("micro program ran off the image at %u", idx);
            const StaticInst &s = img.inst(idx);
            DynInst d;
            d.staticIndex = idx;
            const std::uint64_t visit = visits[idx]++;
            std::uint32_t next = idx + 1;

            switch (s.cls) {
              case InstClass::kAlu:
                break;
              case InstClass::kLoad:
              case InstClass::kStore:
                d.info = 0x10000000 + idx * 64;
                break;
              case InstClass::kCondDirect: {
                const bool taken =
                    cond_oracle ? cond_oracle(idx, visit) : false;
                d.taken = taken ? 1 : 0;
                d.info = s.target;
                if (taken)
                    next = img.indexOf(s.target);
                break;
              }
              case InstClass::kJumpDirect:
              case InstClass::kCallDirect:
                d.taken = 1;
                d.info = s.target;
                if (s.cls == InstClass::kCallDirect)
                    call_stack.push_back(idx + 1);
                next = img.indexOf(s.target);
                break;
              case InstClass::kJumpIndirect:
              case InstClass::kCallIndirect: {
                if (!target_oracle)
                    fdip_panic("indirect at %u without target oracle",
                               idx);
                const Addr target = target_oracle(idx, visit);
                d.taken = 1;
                d.info = target;
                if (s.cls == InstClass::kCallIndirect)
                    call_stack.push_back(idx + 1);
                next = img.indexOf(target);
                break;
              }
              case InstClass::kReturn: {
                if (call_stack.empty())
                    fdip_panic("micro return with empty stack at %u",
                               idx);
                next = call_stack.back();
                call_stack.pop_back();
                d.taken = 1;
                d.info = img.pcOf(next);
                break;
              }
            }
            t.insts.append(d);
            if (appended != nullptr)
                appended->push_back(d);
            idx = next;
        }
        t.insts.shrinkToFit();
        return t;
    }

    Workload &workload() { return *wl_; }

  private:
    std::shared_ptr<Workload> wl_;
};

} // namespace fdip::test

#endif // FDIP_TESTS_MICRO_PROGRAM_H_
