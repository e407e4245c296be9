/**
 * @file
 * Trace tooling example: generate a trace and print footprint /
 * instruction-mix / control-flow statistics — the checks used to
 * validate that synthetic workloads look like the paper's trace
 * classes.
 *
 * Usage: trace_inspect [srv|clt|spec] [num_insts]
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "trace/trace_gen.h"
#include "trace/workload.h"

int
main(int argc, char **argv)
{
    using namespace fdip;

    const std::string cls = argc > 1 ? argv[1] : "srv";
    const std::size_t n =
        argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 500000;

    WorkloadSpec spec = cls == "clt"    ? clientSpec("inspect", 3)
                        : cls == "spec" ? specCpuSpec("inspect", 3)
                                        : serverSpec("inspect", 3);
    auto workload = std::make_shared<Workload>(buildWorkload(spec));
    const Trace trace = generateTrace(workload, n);

    // Static footprint.
    std::printf("-- static image --\n");
    std::printf("code footprint      %zu KB (%zu insts, %zu functions)\n",
                workload->image.footprintBytes() / 1024,
                workload->image.numInsts(),
                workload->image.functions().size());
    std::printf("static branches     %zu (%zu likely-taken)\n",
                workload->image.numBranches(),
                workload->image.numLikelyTakenBranches());
    std::printf("trace records       %.1f B/record (%zu infos stored)\n\n",
                static_cast<double>(trace.insts.footprintBytes()) /
                    static_cast<double>(trace.size()),
                trace.insts.numStoredInfos());

    // Dynamic mix.
    std::map<InstClass, std::size_t> mix;
    std::size_t taken = 0;
    std::size_t branches = 0;
    std::map<std::uint32_t, std::size_t> touched;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const StaticInst &s = trace.staticOf(i);
        ++mix[s.cls];
        touched[trace.insts[i].staticIndex]++;
        if (isBranch(s.cls)) {
            ++branches;
            if (trace.insts[i].taken)
                ++taken;
        }
    }

    std::printf("-- dynamic mix --\n");
    for (const auto &kv : mix) {
        std::printf("%-8s %10zu (%5.1f%%)\n", instClassName(kv.first),
                    kv.second,
                    100.0 * static_cast<double>(kv.second) /
                        static_cast<double>(trace.size()));
    }
    std::printf("\nbranch rate         %.1f%%, taken/branch %.1f%%\n",
                100.0 * static_cast<double>(branches) /
                    static_cast<double>(trace.size()),
                100.0 * static_cast<double>(taken) /
                    static_cast<double>(branches));
    std::printf("dynamic footprint   %zu distinct insts (%zu KB)\n",
                touched.size(), touched.size() * kInstBytes / 1024);
    std::printf("(the paper selects workloads whose footprints pressure "
                "a 32KB L1I)\n");
    return 0;
}
