#include "trace/champsim.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "util/io.h"
#include "util/log.h"

namespace fdip
{

namespace
{

bool
regIn(const std::uint8_t *regs, std::size_t n, std::uint8_t reg)
{
    for (std::size_t i = 0; i < n; ++i)
        if (regs[i] == reg)
            return true;
    return false;
}

bool
readsOther(const ChampSimRecord &r)
{
    for (std::uint8_t reg : r.sourceRegisters) {
        if (reg != 0 && reg != kChampSimRegStackPointer &&
            reg != kChampSimRegFlags &&
            reg != kChampSimRegInstructionPointer) {
            return true;
        }
    }
    return false;
}

} // namespace

ChampSimBranch
classifyChampSimBranch(const ChampSimRecord &rec)
{
    if (!rec.isBranch)
        return ChampSimBranch::kNotBranch;

    const bool writes_ip =
        regIn(rec.destRegisters, 2, kChampSimRegInstructionPointer);
    const bool writes_sp =
        regIn(rec.destRegisters, 2, kChampSimRegStackPointer);
    const bool reads_ip =
        regIn(rec.sourceRegisters, 4, kChampSimRegInstructionPointer);
    const bool reads_sp =
        regIn(rec.sourceRegisters, 4, kChampSimRegStackPointer);
    const bool reads_flags =
        regIn(rec.sourceRegisters, 4, kChampSimRegFlags);
    const bool reads_other = readsOther(rec);

    // ChampSim's decoding rules (tracer/ChampSim main.cc).
    if (writes_ip && reads_ip && reads_sp && writes_sp)
        return reads_other ? ChampSimBranch::kIndirectCall
                           : ChampSimBranch::kDirectCall;
    if (writes_ip && reads_sp && !reads_ip)
        return ChampSimBranch::kReturn;
    if (writes_ip && reads_flags)
        return ChampSimBranch::kConditional;
    if (writes_ip && reads_other)
        return ChampSimBranch::kIndirectJump;
    if (writes_ip)
        return ChampSimBranch::kDirectJump;
    return ChampSimBranch::kNotBranch;
}

InstClass
toInstClass(ChampSimBranch b, bool is_load, bool is_store)
{
    switch (b) {
      case ChampSimBranch::kConditional: return InstClass::kCondDirect;
      case ChampSimBranch::kDirectJump: return InstClass::kJumpDirect;
      case ChampSimBranch::kIndirectJump:
        return InstClass::kJumpIndirect;
      case ChampSimBranch::kDirectCall: return InstClass::kCallDirect;
      case ChampSimBranch::kIndirectCall:
        return InstClass::kCallIndirect;
      case ChampSimBranch::kReturn: return InstClass::kReturn;
      case ChampSimBranch::kNotBranch:
        break;
    }
    if (is_load)
        return InstClass::kLoad;
    if (is_store)
        return InstClass::kStore;
    return InstClass::kAlu;
}

bool
writeChampSimTrace(const std::string &path, const Trace &trace)
{
    FileHandle f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return false;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        ChampSimRecord rec;
        rec.ip = trace.pcOf(i);

        switch (trace.staticOf(i).cls) {
          case InstClass::kAlu:
            break;
          case InstClass::kLoad:
            rec.sourceMemory[0] = trace.memAddr(i);
            rec.sourceRegisters[0] = 3;
            rec.destRegisters[0] = 3;
            break;
          case InstClass::kStore:
            rec.destinationMemory[0] = trace.memAddr(i);
            rec.sourceRegisters[0] = 3;
            break;
          case InstClass::kCondDirect:
            rec.isBranch = 1;
            // The recorded byte: an imported trace may hold any value.
            rec.branchTaken = trace.insts[i].taken;
            rec.sourceRegisters[0] = kChampSimRegFlags;
            rec.destRegisters[0] = kChampSimRegInstructionPointer;
            break;
          case InstClass::kJumpDirect:
            rec.isBranch = 1;
            rec.branchTaken = 1;
            rec.destRegisters[0] = kChampSimRegInstructionPointer;
            break;
          case InstClass::kJumpIndirect:
            rec.isBranch = 1;
            rec.branchTaken = 1;
            rec.sourceRegisters[0] = 3;
            rec.destRegisters[0] = kChampSimRegInstructionPointer;
            break;
          case InstClass::kCallDirect:
            rec.isBranch = 1;
            rec.branchTaken = 1;
            rec.sourceRegisters[0] = kChampSimRegInstructionPointer;
            rec.sourceRegisters[1] = kChampSimRegStackPointer;
            rec.destRegisters[0] = kChampSimRegInstructionPointer;
            rec.destRegisters[1] = kChampSimRegStackPointer;
            break;
          case InstClass::kCallIndirect:
            rec.isBranch = 1;
            rec.branchTaken = 1;
            rec.sourceRegisters[0] = kChampSimRegInstructionPointer;
            rec.sourceRegisters[1] = kChampSimRegStackPointer;
            rec.sourceRegisters[2] = 3;
            rec.destRegisters[0] = kChampSimRegInstructionPointer;
            rec.destRegisters[1] = kChampSimRegStackPointer;
            break;
          case InstClass::kReturn:
            rec.isBranch = 1;
            rec.branchTaken = 1;
            rec.sourceRegisters[0] = kChampSimRegStackPointer;
            rec.destRegisters[0] = kChampSimRegInstructionPointer;
            rec.destRegisters[1] = kChampSimRegStackPointer;
            break;
        }

        if (std::fwrite(&rec, sizeof(rec), 1, f.get()) != 1)
            return false;
    }
    return true;
}

bool
readChampSimTrace(const std::string &path, std::size_t max_insts,
                  Trace &out, std::vector<DynInst> *appended)
{
    FileHandle f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return false;

    // ---- Pass 1: slurp the records. A torn last record means a
    // truncated file, which is refused.
    std::vector<ChampSimRecord> recs;
    ChampSimRecord rec;
    while (max_insts == 0 || recs.size() < max_insts) {
        const std::size_t got = std::fread(&rec, 1, sizeof(rec), f.get());
        if (got == 0)
            break;
        if (got != sizeof(rec))
            return false;
        recs.push_back(rec);
    }
    if (recs.empty())
        return false;

    // ---- Pass 2: renormalize the sparse 64-bit IPs onto a contiguous
    // 4-byte-instruction image. Observed sequential-flow pairs (a
    // non-taken record followed by its fall-through) must land on
    // adjacent slots regardless of the x86 instruction length, so the
    // stream decomposes into *fall-through chains* that get contiguous
    // indices; between chains, padding proportional to the address gap
    // (clamped) preserves spatial grouping for the caches.
    std::vector<std::uint64_t> ips;
    ips.reserve(recs.size());
    for (const auto &r : recs)
        ips.push_back(r.ip);
    std::sort(ips.begin(), ips.end());
    ips.erase(std::unique(ips.begin(), ips.end()), ips.end());

    // Observed fall-through successor per ip (first observation wins).
    std::unordered_map<std::uint64_t, std::uint64_t> fallthrough;
    fallthrough.reserve(ips.size());
    for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
        const bool sequential = recs[i].branchTaken == 0;
        if (!sequential)
            continue;
        const std::uint64_t a = recs[i].ip;
        const std::uint64_t b = recs[i + 1].ip;
        if (b <= a)
            continue; // Self-loop or overlap: not a fall-through.
        fallthrough.emplace(a, b);
    }

    std::unordered_map<std::uint64_t, std::uint32_t> index_of;
    index_of.reserve(ips.size());
    {
        std::uint32_t cursor = 0;
        std::uint64_t prev_ip = 0;
        bool first = true;
        for (std::uint64_t ip : ips) {
            if (index_of.count(ip))
                continue; // Already placed by an earlier chain walk
                          // (fall-through targets sort after their
                          // predecessors, so chains fill in order).
            // Inter-chain padding from the raw address gap.
            if (!first) {
                const std::uint64_t gap =
                    ip > prev_ip ? ip - prev_ip : 4;
                cursor += static_cast<std::uint32_t>(
                    std::clamp<std::uint64_t>(gap / 16, 0, 15));
            }
            first = false;
            // Walk the fall-through chain from this head.
            std::uint64_t cur = ip;
            while (index_of.emplace(cur, cursor).second) {
                ++cursor;
                const auto it = fallthrough.find(cur);
                if (it == fallthrough.end() ||
                    index_of.count(it->second)) {
                    break;
                }
                cur = it->second;
            }
            prev_ip = ip;
        }
    }
    const std::uint32_t image_slots = [&] {
        std::uint32_t max_idx = 0;
        for (const auto &kv : index_of)
            max_idx = std::max(max_idx, kv.second);
        return max_idx + 1;
    }();

    auto workload = std::make_shared<Workload>();
    workload->spec.name = "champsim-import";
    workload->dispatchCallIndex = 0xffffffffu;
    ProgramImage &img = workload->image;

    // ---- Pass 3: build the static image from the first dynamic
    // instance seen at each ip (plus taken-target discovery). Slots
    // not covered by any ip stay as non-branch filler.
    std::vector<bool> emitted(image_slots, false);
    img.reserve(image_slots, 0);
    for (std::uint32_t i = 0; i < image_slots; ++i)
        img.append(StaticInst{});
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const ChampSimRecord &r = recs[i];
        const std::uint32_t idx = index_of[r.ip];
        StaticInst s = img.inst(idx);
        const bool is_load = r.sourceMemory[0] != 0;
        const bool is_store = r.destinationMemory[0] != 0;
        if (!emitted[idx]) {
            emitted[idx] = true;
            s.cls = toInstClass(classifyChampSimBranch(r), is_load,
                                is_store);
            s.target = kNoAddr;
        }
        // Discover the direct-branch target from a taken instance.
        if (isBranch(s.cls) && isDirect(s.cls) && s.target == kNoAddr &&
            r.branchTaken && i + 1 < recs.size()) {
            const auto it = index_of.find(recs[i + 1].ip);
            if (it != index_of.end())
                s.target = img.pcOf(it->second);
        }
        img.set(idx, s);
    }

    workload->entryPc = img.pcOf(index_of[recs.front().ip]);

    // ---- Pass 4: emit the dynamic stream, patching any record whose
    // renormalized fall-through breaks adjacency (x86 paths our fixed-
    // width image cannot express) into an explicit taken transfer.
    out = Trace(workload, recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const ChampSimRecord &r = recs[i];
        const std::uint32_t idx = index_of[r.ip];
        DynInst d;
        d.staticIndex = idx;

        const bool have_next = i + 1 < recs.size();
        const std::uint32_t next_idx =
            have_next ? index_of[recs[i + 1].ip] : idx + 1;
        const bool adjacent = !have_next || next_idx == idx + 1;

        StaticInst s = img.inst(idx);
        if (!isBranch(s.cls) && !adjacent) {
            // Sequential flow that is not adjacent after renormalizing
            // (an x86 path this fixed-width image cannot express):
            // re-class the slot as an indirect jump so the replayed
            // control flow stays connected. Earlier dynamic instances
            // of this slot keep taken=0 and remain consistent.
            s.cls = InstClass::kJumpIndirect;
            img.set(idx, s);
        }

        if (isBranch(s.cls)) {
            d.taken = r.branchTaken;
            if (!adjacent)
                d.taken = 1; // Fall-through impossible: must transfer.
            if (d.taken) {
                d.info = img.pcOf(next_idx);
            } else {
                d.info = s.target;
            }
        } else if (s.cls == InstClass::kLoad) {
            d.info = r.sourceMemory[0];
        } else if (s.cls == InstClass::kStore) {
            d.info = r.destinationMemory[0];
        }

        out.insts.append(d);
        if (appended != nullptr)
            appended->push_back(d);
    }
    out.insts.shrinkToFit();
    return true;
}

} // namespace fdip
