#include "trace/trace_gen.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "util/bits.h"
#include "util/log.h"
#include "util/rng.h"

namespace fdip
{

Trace::Trace(std::shared_ptr<const Workload> wl, std::size_t capacity)
    : workload(std::move(wl)), insts(workload->image, capacity)
{
}

Trace::Trace(std::shared_ptr<const Workload> wl,
             const std::vector<DynInst> &records)
    : Trace(std::move(wl), records.size())
{
    for (const DynInst &d : records)
        insts.append(d);
    insts.shrinkToFit();
}

namespace
{

/** Base of the synthetic stack region. */
constexpr Addr kStackBase = 0x7ff000000000ULL;
/** Base of per-function global data. */
constexpr Addr kGlobalBase = 0x100000000ULL;
/** Base of per-function streaming regions. */
constexpr Addr kStreamBase = 0x200000000ULL;
/** Size of one function's streaming region. */
constexpr Addr kStreamRegion = 256 * 1024;

/**
 * Architectural execution of the synthetic program. Branch outcomes
 * follow each branch's BranchBehavior; correlated branches hash the
 * executor's own control-flow history, which is what makes them
 * learnable by the simulated history-based predictors.
 */
class Executor
{
  public:
    Executor(const Workload &wl, std::size_t num_insts)
        : wl_(wl),
          image_(wl.image),
          numInsts_(num_insts),
          loopCounters_(wl.image.numInsts(), 0),
          rng_(wl.spec.seed ^ 0xabcdef1234567890ULL)
    {
        pathRing_.fill(0);
    }

    /** Appends numInsts dynamic instructions to @p out. Only a branch
     *  decodes more of its slot than the class. */
    void
    run(TraceRecords &out, std::vector<DynInst> *appended)
    {
        std::uint32_t idx = image_.indexOf(wl_.entryPc);
        callStack_.reserve(64);
        funcStack_.push_back(idx);

        for (std::size_t n = 0; n < numInsts_; ++n) {
            const InstClass cls = image_.classOf(idx);
            DynInst d;
            d.staticIndex = idx;

            std::uint32_t next = idx + 1;
            switch (cls) {
              case InstClass::kAlu:
                break;
              case InstClass::kLoad:
              case InstClass::kStore:
                d.info = memAddress();
                break;
              case InstClass::kCondDirect: {
                const StaticInst si = image_.inst(idx);
                const bool taken = decideDirection(idx, si);
                d.taken = taken ? 1 : 0;
                d.info = si.target;
                updateHistory(idx, si.target, taken);
                if (taken)
                    next = image_.indexOf(si.target);
                break;
              }
              case InstClass::kJumpDirect: {
                const Addr target = image_.targetOf(idx);
                d.taken = 1;
                d.info = target;
                updateHistory(idx, target, true);
                next = image_.indexOf(target);
                break;
              }
              case InstClass::kCallDirect:
              case InstClass::kCallIndirect: {
                const Addr target = cls == InstClass::kCallDirect
                                        ? image_.targetOf(idx)
                                        : indirectTarget(idx, n);
                d.taken = 1;
                d.info = target;
                updateHistory(idx, target, true);
                callStack_.push_back(idx + 1);
                next = image_.indexOf(target);
                funcStack_.push_back(next);
                break;
              }
              case InstClass::kJumpIndirect: {
                const Addr target = indirectTarget(idx, n);
                d.taken = 1;
                d.info = target;
                updateHistory(idx, target, true);
                next = image_.indexOf(target);
                break;
              }
              case InstClass::kReturn: {
                if (callStack_.empty())
                    fdip_panic("return with empty call stack at inst %u",
                               idx);
                next = callStack_.back();
                callStack_.pop_back();
                funcStack_.pop_back();
                d.taken = 1;
                d.info = image_.pcOf(next);
                updateHistory(idx, d.info, true);
                break;
              }
            }

            out.append(d);
            if (appended != nullptr)
                appended->push_back(d);
            idx = next;
        }
    }

  private:
    /** Resolves a conditional branch direction from its behaviour. */
    bool
    decideDirection(std::uint32_t idx, const StaticInst &si)
    {
        switch (si.behavior) {
          case BranchBehavior::kBiased:
            return rng_.chancePermille(si.param);
          case BranchBehavior::kLoop: {
            std::uint32_t &c = loopCounters_[idx];
            if (c == 0)
                c = si.param;
            --c;
            return c > 0;
          }
          case BranchBehavior::kPathCorrelated:
            return (mix64(salt(idx) ^ pathHash(si.param)) & 1) != 0;
          case BranchBehavior::kDirCorrelated:
            return (mix64(salt(idx) ^
                          (dirHistory_ & mask(std::min<unsigned>(
                                             si.param, 63)))) &
                    1) != 0;
          case BranchBehavior::kNone:
            break;
        }
        fdip_panic("conditional branch %u without behaviour", idx);
    }

    /** Resolves an indirect branch target. */
    Addr
    indirectTarget(std::uint32_t idx, std::size_t emitted)
    {
        if (idx == wl_.dispatchCallIndex) {
            // Schedule-driven dispatch with phase drift.
            const auto &phases = wl_.rootSchedule;
            const std::size_t phase = std::min<std::size_t>(
                emitted * phases.size() / std::max<std::size_t>(numInsts_, 1),
                phases.size() - 1);
            const auto &rotation = phases[phase];
            return rotation[dispatchCount_++ % rotation.size()];
        }
        const auto it = wl_.indirectTargets.find(idx);
        if (it == wl_.indirectTargets.end() || it->second.empty())
            fdip_panic("indirect branch %u has no target set", idx);
        const auto &targets = it->second;
        const std::uint64_t sel = mix64(salt(idx) ^ pathHash(4));
        return targets[sel % targets.size()];
    }

    /** Synthesizes a load/store effective address with locality. */
    Addr
    memAddress()
    {
        const unsigned roll = static_cast<unsigned>(rng_.below(100));
        if (roll < 55) {
            // Stack-relative: near the current frame.
            const Addr sp =
                kStackBase - static_cast<Addr>(callStack_.size()) * 512;
            return sp + (rng_.below(32) * 8);
        }
        if (roll < 85) {
            // Per-function global region.
            const Addr base =
                kGlobalBase + static_cast<Addr>(funcStack_.back()) * 8192;
            return base + (rng_.below(256) * 8);
        }
        // Streaming access within the function's region.
        Addr &cursor = streamCursors_[funcStack_.back()];
        cursor = (cursor + 64) % kStreamRegion;
        return kStreamBase +
               static_cast<Addr>(funcStack_.back()) * kStreamRegion + cursor;
    }

    /** Per-branch hash salt. */
    static std::uint64_t
    salt(std::uint32_t idx)
    {
        return static_cast<std::uint64_t>(idx) * 0x9e3779b97f4a7c15ULL;
    }

    /** Folds the last @p depth taken-branch records into one hash. */
    std::uint64_t
    pathHash(unsigned depth) const
    {
        std::uint64_t h = 0;
        const unsigned d = std::min<unsigned>(depth, kPathRingSize);
        for (unsigned i = 0; i < d; ++i) {
            const std::uint64_t v =
                pathRing_[(pathPos_ + kPathRingSize - 1 - i) %
                          kPathRingSize];
            h ^= (v << (i % 23)) | (v >> (64 - (i % 23 + 1)));
        }
        return h;
    }

    /** Records a branch outcome into the executor-side histories. */
    void
    updateHistory(std::uint32_t idx, Addr target, bool taken)
    {
        dirHistory_ = (dirHistory_ << 1) | (taken ? 1 : 0);
        if (taken) {
            pathRing_[pathPos_] =
                mix64(image_.pcOf(idx) ^ (target << 1));
            pathPos_ = (pathPos_ + 1) % kPathRingSize;
        }
    }

    static constexpr unsigned kPathRingSize = 64;

    const Workload &wl_;
    const ProgramImage &image_;
    std::size_t numInsts_;

    std::vector<std::uint32_t> callStack_; ///< Return instruction indices.
    std::vector<std::uint32_t> funcStack_; ///< Current function entries.
    std::vector<std::uint32_t> loopCounters_;
    std::unordered_map<std::uint32_t, Addr> streamCursors_;

    std::array<std::uint64_t, kPathRingSize> pathRing_;
    unsigned pathPos_ = 0;
    std::uint64_t dirHistory_ = 0;
    std::uint64_t dispatchCount_ = 0;

    Rng rng_;
};

} // namespace

Trace
generateTrace(std::shared_ptr<const Workload> workload,
              std::size_t num_insts, std::vector<DynInst> *appended)
{
    Trace t(std::move(workload), num_insts);
    Executor(*t.workload, num_insts).run(t.insts, appended);
    t.insts.shrinkToFit();
    return t;
}

} // namespace fdip
