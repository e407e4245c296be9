/**
 * @file
 * ChampSim trace-format interchange.
 *
 * The paper's evaluation substrate is ChampSim, whose input traces are
 * streams of fixed 64-byte records. This module implements that record
 * format so that
 *
 *  - fdipsim traces can be *exported* for use with ChampSim-based
 *    tools, and
 *  - externally produced ChampSim traces (e.g. the IPC-1 traces, where
 *    available) can be *imported* and replayed on this simulator.
 *
 * Import performs two documented adaptations: branch kinds are
 * classified from the architectural register sets exactly the way
 * ChampSim does it, and the sparse 64-bit instruction addresses are
 * renormalized onto this simulator's contiguous fixed-4-byte
 * instruction image (sorted-address order, preserving adjacency and
 * therefore cache-line locality up to quantization).
 */

#ifndef FDIP_TRACE_CHAMPSIM_H_
#define FDIP_TRACE_CHAMPSIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_gen.h"

namespace fdip
{

/**
 * One input record, bit-compatible with ChampSim's input_instr
 * (64 bytes).
 */
struct ChampSimRecord
{
    std::uint64_t ip = 0;

    std::uint8_t isBranch = 0;
    std::uint8_t branchTaken = 0;

    std::uint8_t destRegisters[2] = {0, 0};
    std::uint8_t sourceRegisters[4] = {0, 0, 0, 0};

    std::uint64_t destinationMemory[2] = {0, 0};
    std::uint64_t sourceMemory[4] = {0, 0, 0, 0};
};

static_assert(sizeof(ChampSimRecord) == 64,
              "ChampSim input_instr is 64 bytes");

/// @{ ChampSim architectural register identifiers.
inline constexpr std::uint8_t kChampSimRegStackPointer = 6;
inline constexpr std::uint8_t kChampSimRegFlags = 25;
inline constexpr std::uint8_t kChampSimRegInstructionPointer = 64;
/// @}

/**
 * ChampSim's branch taxonomy, derived from the register sets (see
 * ChampSim's tracer documentation).
 */
enum class ChampSimBranch : std::uint8_t
{
    kNotBranch,
    kConditional,    ///< reads FLAGS, writes IP.
    kDirectJump,     ///< writes IP only.
    kIndirectJump,   ///< reads other regs, writes IP.
    kDirectCall,     ///< reads IP+SP, writes IP+SP.
    kIndirectCall,   ///< reads other+IP+SP, writes IP+SP.
    kReturn,         ///< reads SP, writes IP+SP.
};

/** Classifies one record the way ChampSim does. */
ChampSimBranch classifyChampSimBranch(const ChampSimRecord &rec);

/** Maps a ChampSim branch class onto this simulator's InstClass. */
InstClass toInstClass(ChampSimBranch b, bool is_load, bool is_store);

/**
 * Exports a trace to ChampSim's record format.
 * @return false on I/O failure.
 */
bool writeChampSimTrace(const std::string &path, const Trace &trace);

/**
 * Imports a ChampSim trace: reads up to @p max_insts records, builds a
 * renormalized program image plus a committed-path Trace over it.
 *
 * @param path       raw (uncompressed) ChampSim trace file.
 * @param max_insts  record cap (0 = read everything).
 * @param out        receives the reconstructed trace.
 * @param appended   when not null, receives a copy of every record as
 *                   appended (a lockstep reference for tests).
 * @return false on I/O failure or malformed input, including a file
 *         that ends inside a record before the cap is reached.
 */
bool readChampSimTrace(const std::string &path, std::size_t max_insts,
                       Trace &out,
                       std::vector<DynInst> *appended = nullptr);

} // namespace fdip

#endif // FDIP_TRACE_CHAMPSIM_H_
