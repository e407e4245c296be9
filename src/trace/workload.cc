#include "trace/workload.h"

#include <algorithm>

#include "util/bits.h"
#include "util/log.h"
#include "util/rng.h"

namespace fdip
{

namespace
{

/**
 * Lays out one function.
 *
 * Functions are built from *segments* so that the executed call tree
 * stays bounded: each segment ends in a path-correlated "early exit"
 * branch to the epilogue, so a visit typically executes only the first
 * couple of segments. Call sites sit at segment ends, outside loop
 * bodies, which keeps executed-calls-per-visit near one and the dynamic
 * call tree from exploding despite the acyclic static call graph.
 *
 * Layout:
 *   prologue  (~10 insts, straight line)
 *   segment*  (body with loops/branches/jumps, optional call, early exit)
 *   epilogue  (straight line + return)
 */
class FunctionBuilder
{
  public:
    FunctionBuilder(const WorkloadSpec &spec, ProgramImage &image, Rng &rng)
        : spec_(spec), image_(image), rng_(rng)
    {
    }

    /**
     * Emits a function of exactly @p size instructions. Direct call
     * sites target entries from @p callees; indirect call sites are
     * appended to @p indirect_sites. Returns the entry index.
     */
    std::uint32_t
    emit(unsigned size, const std::vector<Addr> &callees,
         std::vector<std::uint32_t> &indirect_sites)
    {
        const auto first = static_cast<std::uint32_t>(image_.numInsts());
        const unsigned total = std::max(24u, size);
        const unsigned epilogue_len = 4;
        const unsigned prologue_len =
            static_cast<unsigned>(rng_.range(6, 12));
        const unsigned body_len = total - prologue_len - epilogue_len;
        const std::uint32_t epilogue_first = first + prologue_len + body_len;

        for (unsigned i = 0; i < prologue_len; ++i)
            emitStraightLine();

        // Split the body into segments.
        unsigned remaining = body_len;
        while (remaining > 0) {
            unsigned seg = static_cast<unsigned>(rng_.range(
                spec_.minSegmentInsts, spec_.maxSegmentInsts));
            if (seg + spec_.minSegmentInsts > remaining)
                seg = remaining; // Last segment absorbs the tail.
            emitSegment(seg, epilogue_first, remaining > seg, callees,
                        indirect_sites);
            remaining -= seg;
        }

        // Epilogue: straight line then return.
        for (unsigned i = 0; i + 1 < epilogue_len; ++i)
            emitStraightLine();
        StaticInst ret;
        ret.cls = InstClass::kReturn;
        image_.append(ret);

        image_.addFunction(first, total);
        return first;
    }

  private:
    /** Emits a load/store/alu according to the memory mix. */
    void
    emitStraightLine()
    {
        StaticInst inst;
        const unsigned roll = static_cast<unsigned>(rng_.below(1000));
        if (roll < spec_.loadPermille) {
            inst.cls = InstClass::kLoad;
        } else if (roll < spec_.loadPermille + spec_.storePermille) {
            inst.cls = InstClass::kStore;
        } else {
            inst.cls = InstClass::kAlu;
        }
        image_.append(inst);
    }

    /**
     * Emits one segment of exactly @p len instructions. When
     * @p has_exit, the last instruction is the early-exit branch and
     * (possibly) the one before it a call site; otherwise the segment
     * falls through toward the epilogue.
     */
    void
    emitSegment(unsigned len, std::uint32_t epilogue_first, bool has_exit,
                const std::vector<Addr> &callees,
                std::vector<std::uint32_t> &indirect_sites)
    {
        unsigned tail = 0;
        const bool want_call =
            !callees.empty() &&
            rng_.below(1000) < spec_.callPerSegmentPermille;
        if (has_exit)
            ++tail;
        if (want_call && len >= 8 + tail)
            ++tail;

        const unsigned body = len - tail;
        emitSegmentBody(body);

        if (want_call && tail >= (has_exit ? 2u : 1u)) {
            StaticInst call;
            if (rng_.below(1000) < spec_.indirectCallPermille) {
                call.cls = InstClass::kCallIndirect;
                indirect_sites.push_back(
                    static_cast<std::uint32_t>(image_.numInsts()));
            } else {
                call.cls = InstClass::kCallDirect;
                call.target = callees[rng_.below(callees.size())];
            }
            image_.append(call);
        }

        if (has_exit) {
            StaticInst exit;
            exit.cls = InstClass::kCondDirect;
            exit.behavior = BranchBehavior::kPathCorrelated;
            exit.param = static_cast<std::uint16_t>(rng_.range(
                spec_.minCorrelationDepth, spec_.maxCorrelationDepth));
            exit.target = image_.pcOf(epilogue_first);
            image_.append(exit);
        }
    }

    /**
     * Emits @p len instructions of loop-and-branch-laden segment body.
     * All control flow stays inside the body region.
     */
    void
    emitSegmentBody(unsigned len)
    {
        const auto body_first =
            static_cast<std::uint32_t>(image_.numInsts());
        bool loop_done = false;
        for (unsigned i = 0; i < len; ++i) {
            const unsigned pos =
                static_cast<std::uint32_t>(image_.numInsts()) - body_first;
            const unsigned remaining = len - i - 1;
            const unsigned roll = static_cast<unsigned>(rng_.below(1000));

            if (roll < spec_.condBranchPermille) {
                if (!loop_done && pos >= 6 &&
                    rng_.below(1000) < spec_.loopPermille) {
                    emitLoopBranch(pos);
                    loop_done = true;
                } else if (remaining >= 2) {
                    emitForwardConditional(remaining);
                } else {
                    emitStraightLine();
                }
            } else if (roll <
                           spec_.condBranchPermille + spec_.jumpPermille &&
                       remaining >= 3) {
                StaticInst jump;
                jump.cls = InstClass::kJumpDirect;
                const unsigned skip = static_cast<unsigned>(
                    rng_.range(2, std::min(remaining, 12u)));
                jump.target = image_.pcOf(
                    static_cast<std::uint32_t>(image_.numInsts()) + 1 +
                    skip);
                image_.append(jump);
            } else {
                emitStraightLine();
            }
        }
    }

    /** Emits a backward loop branch over the last <= 16 instructions. */
    void
    emitLoopBranch(unsigned pos)
    {
        StaticInst inst;
        inst.cls = InstClass::kCondDirect;
        inst.behavior = BranchBehavior::kLoop;
        inst.param = static_cast<std::uint16_t>(
            rng_.range(spec_.minLoopCount, spec_.maxLoopCount));
        const unsigned back =
            static_cast<unsigned>(rng_.range(4, std::min(pos, 16u)));
        inst.target = image_.pcOf(
            static_cast<std::uint32_t>(image_.numInsts()) - back);
        image_.append(inst);
    }

    /** Emits a forward conditional with the configured behaviour mix. */
    void
    emitForwardConditional(unsigned remaining)
    {
        StaticInst inst;
        inst.cls = InstClass::kCondDirect;
        const unsigned skip = static_cast<unsigned>(
            rng_.range(2, std::min(remaining, 16u)));
        inst.target = image_.pcOf(
            static_cast<std::uint32_t>(image_.numInsts()) + 1 + skip);

        const unsigned r = static_cast<unsigned>(rng_.below(1000));
        if (r < spec_.neverTakenPermille) {
            inst.behavior = BranchBehavior::kBiased;
            inst.param = 2; // Exception-check style: almost never taken.
        } else if (r < spec_.neverTakenPermille +
                           spec_.pathCorrelatedPermille) {
            inst.behavior = BranchBehavior::kPathCorrelated;
            inst.param = static_cast<std::uint16_t>(rng_.range(
                spec_.minCorrelationDepth, spec_.maxCorrelationDepth));
        } else if (r < spec_.neverTakenPermille +
                           spec_.pathCorrelatedPermille +
                           spec_.dirCorrelatedPermille) {
            inst.behavior = BranchBehavior::kDirCorrelated;
            inst.param = static_cast<std::uint16_t>(rng_.range(
                spec_.minCorrelationDepth, spec_.maxCorrelationDepth));
        } else {
            inst.behavior = BranchBehavior::kBiased;
            // Mostly strongly biased, a few noisy ones for realism.
            static constexpr std::uint16_t kBiases[] = {
                950, 930, 975, 985, 60, 35, 110, 870, 905, 700,
            };
            inst.param = kBiases[rng_.below(std::size(kBiases))];
        }
        image_.append(inst);
    }

    const WorkloadSpec &spec_;
    ProgramImage &image_;
    Rng &rng_;
};

} // namespace

Workload
buildWorkload(const WorkloadSpec &spec)
{
    if (spec.numFunctions < spec.numRootFunctions + 2)
        fdip_fatal("workload '%s': too few functions", spec.name.c_str());

    Workload wl;
    wl.spec = spec;
    Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 0x1234);

    // ---- Pass 1: decide function sizes and entry addresses up front so
    // call targets can point forward in the image.
    const unsigned n = spec.numFunctions;
    std::vector<unsigned> sizes(n);
    std::vector<std::uint32_t> entries(n);
    std::uint32_t cursor = 8; // Dispatcher occupies the first 8 slots.
    for (unsigned f = 0; f < n; ++f) {
        sizes[f] = std::max(
            24u, static_cast<unsigned>(
                     rng.range(spec.minFuncInsts, spec.maxFuncInsts)));
        entries[f] = cursor;
        cursor += sizes[f];
    }
    wl.image.reserve(cursor, n + 1);

    // ---- Pass 2: acyclic call graph (function f calls only functions
    // with larger index), so recursion never occurs and dynamic call
    // depth is bounded by chain depth in the DAG.
    std::vector<std::vector<Addr>> callees(n);
    for (unsigned f = 0; f + 1 < n; ++f) {
        const unsigned num = 1 + static_cast<unsigned>(
            rng.below(spec.maxCalleesPerFunction));
        for (unsigned c = 0; c < num; ++c) {
            const unsigned callee =
                static_cast<unsigned>(rng.range(f + 1, n - 1));
            callees[f].push_back(wl.image.pcOf(entries[callee]));
        }
    }

    // ---- Pass 3: emit the dispatcher ("main"):
    //   0: alu   1: load   2: blr <root>   3: alu   4: store
    //   5: b 0   6,7: alu padding
    {
        StaticInst alu;
        alu.cls = InstClass::kAlu;
        StaticInst load;
        load.cls = InstClass::kLoad;
        StaticInst store;
        store.cls = InstClass::kStore;
        StaticInst call;
        call.cls = InstClass::kCallIndirect;
        StaticInst jump;
        jump.cls = InstClass::kJumpDirect;
        jump.target = wl.image.pcOf(0);

        wl.image.append(alu);                         // 0
        wl.image.append(load);                        // 1
        wl.dispatchCallIndex = wl.image.append(call); // 2
        wl.image.append(alu);                         // 3
        wl.image.append(store);                       // 4
        wl.image.append(jump);                        // 5
        wl.image.append(alu);                         // 6
        wl.image.append(alu);                         // 7
        wl.image.addFunction(0, 8);
    }
    wl.entryPc = wl.image.pcOf(0);

    // ---- Pass 4: emit every function body.
    FunctionBuilder fb(spec, wl.image, rng);
    std::vector<std::uint32_t> indirect_sites;
    for (unsigned f = 0; f < n; ++f) {
        const std::uint32_t first =
            fb.emit(sizes[f], callees[f], indirect_sites);
        if (first != entries[f]) {
            fdip_panic("function %u entry mismatch: planned %u, got %u", f,
                       entries[f], first);
        }
    }

    // ---- Pass 5: assign indirect-call target sets: function entries
    // with a larger index than the caller (preserves acyclicity).
    for (std::uint32_t site : indirect_sites) {
        const Addr site_pc = wl.image.pcOf(site);
        // First function entirely after the call site.
        unsigned lo = n - 1;
        for (unsigned f = 0; f < n; ++f) {
            if (wl.image.pcOf(entries[f]) > site_pc) {
                lo = f;
                break;
            }
        }
        const unsigned count = static_cast<unsigned>(rng.range(
            spec.indirectTargetsMin, spec.indirectTargetsMax));
        std::vector<Addr> targets;
        for (unsigned t = 0; t < count; ++t) {
            const unsigned callee =
                static_cast<unsigned>(rng.range(lo, n - 1));
            targets.push_back(wl.image.pcOf(entries[callee]));
        }
        wl.indirectTargets.emplace(site, std::move(targets));
    }

    // ---- Pass 6: dispatcher schedule. Each phase repeats a fixed
    // rotation of root entries; the root set shifts between phases to
    // model working-set drift.
    wl.rootSchedule.resize(std::max(1u, spec.numPhases));
    for (unsigned p = 0; p < wl.rootSchedule.size(); ++p) {
        std::vector<Addr> rotation;
        for (unsigned r = 0; r < spec.rootRotationLength; ++r) {
            const unsigned root = static_cast<unsigned>(
                rng.below(spec.numRootFunctions));
            const unsigned shifted =
                (root + p * (spec.numRootFunctions / 3 + 1)) %
                spec.numRootFunctions;
            rotation.push_back(wl.image.pcOf(entries[shifted]));
        }
        wl.rootSchedule[p] = std::move(rotation);
    }
    // Record the union of scheduled roots as the dispatcher's targets.
    {
        std::vector<Addr> all;
        for (const auto &phase : wl.rootSchedule)
            for (Addr a : phase)
                all.push_back(a);
        std::sort(all.begin(), all.end());
        all.erase(std::unique(all.begin(), all.end()), all.end());
        wl.indirectTargets[wl.dispatchCallIndex] = std::move(all);
    }

    return wl;
}

WorkloadSpec
serverSpec(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec s;
    s.name = name;
    s.seed = seed;
    s.numFunctions = 460;
    s.minFuncInsts = 150;
    s.maxFuncInsts = 900;
    s.condBranchPermille = 150;
    s.indirectCallPermille = 140;
    s.numRootFunctions = 40;
    s.rootRotationLength = 16;
    s.numPhases = 3;
    return s;
}

WorkloadSpec
clientSpec(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec s;
    s.name = name;
    s.seed = seed;
    s.numFunctions = 260;
    s.minFuncInsts = 120;
    s.maxFuncInsts = 700;
    s.condBranchPermille = 140;
    s.indirectCallPermille = 100;
    s.numRootFunctions = 20;
    s.rootRotationLength = 10;
    s.numPhases = 2;
    return s;
}

WorkloadSpec
specCpuSpec(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec s;
    s.name = name;
    s.seed = seed;
    s.numFunctions = 150;
    s.minFuncInsts = 100;
    s.maxFuncInsts = 600;
    s.condBranchPermille = 160;
    s.loopPermille = 480;   // Loop-dominated.
    s.maxLoopCount = 60;
    s.indirectCallPermille = 60;
    s.numRootFunctions = 24;
    s.rootRotationLength = 12;
    s.numPhases = 2;
    return s;
}

} // namespace fdip
