/**
 * @file
 * The packed record store behind Trace::insts.
 *
 * A committed-path record is a DynInst: a static index, a taken byte,
 * three padding bytes and an `info` word. Stored as is, it takes 16
 * bytes, though only a load's or store's `info` carries information.
 * Every other record's `info` follows from the records around it:
 *
 *  - a taken record's is the PC of the next record's slot;
 *  - a not-taken branch's is its slot's static target;
 *  - anything else's is kNoAddr.
 *
 * So the store keeps one 4-byte word per record (a 31-bit static index
 * and a taken bit) and stores an `info` only where it cannot be
 * derived, at about 6.7 bytes per record on the synthetic suite. Every
 * read returns exactly the DynInst that was appended.
 */

#ifndef FDIP_TRACE_TRACE_RECORDS_H_
#define FDIP_TRACE_TRACE_RECORDS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/inst.h"
#include "trace/program.h"
#include "util/hotpath.h"
#include "util/types.h"

namespace fdip
{

/**
 * A trace's records over one program image.
 *
 * Layout:
 *  - one word per record: the static index in bits 0-30 and the taken
 *    bit in bit 31;
 *  - one "stored info" bit per record, and per 64 records a 32-bit
 *    count of the infos stored before them, so an info's position is
 *    that count plus a popcount;
 *  - the stored infos, in record order.
 *
 * An info is stored for every load and store, for a taken record whose
 * successor does not follow it yet (the last record) or sits in the
 * side list, and wherever it differs from the derived value. The bit
 * is kept per record rather than re-derived from the slot's class,
 * because a builder may re-class a slot after appending records of it
 * (the ChampSim importer turns a non-branch into an indirect jump).
 *
 * A record that does not fit one word goes whole into a side list
 * keyed by record index, and its word is a sentinel: a static index
 * outside the image or at least 2^31 - 1, a taken value other than 0
 * or 1, or nonzero padding. No builder of the simulator writes one;
 * they keep a hand-built or mutated input exact instead of refused.
 *
 * The records read the image they were built over, which must outlive
 * them and must not change what a recorded slot derives.
 */
class TraceRecords
{
  public:
    TraceRecords() = default;

    /** Empty records over @p image, with room for @p capacity. */
    explicit TraceRecords(const ProgramImage &image,
                          std::size_t capacity = 0);

    /** Number of records. */
    FDIP_HOT_PATH std::size_t size() const { return words_.size(); }

    /** Appends @p d; reads back exactly. */
    void append(const DynInst &d);

    /** Drops spare capacity; call once the records are complete. */
    void shrinkToFit();

    /** Record @p i, by value. */
    FDIP_HOT_PATH DynInst
    operator[](std::size_t i) const
    {
        const std::uint32_t w = words_[i];
        if (w == kSideWord) [[unlikely]]
            return sideRecord(i);
        DynInst d;
        d.staticIndex = w & kIndexMask;
        d.taken = static_cast<std::uint8_t>(w >> kTakenShift);
        d.info = plainInfo(i, w);
        return d;
    }

    /** Static index of record @p i. */
    FDIP_HOT_PATH std::uint32_t
    staticIndex(std::size_t i) const
    {
        const std::uint32_t w = words_[i];
        if (w == kSideWord) [[unlikely]]
            return sideRecord(i).staticIndex;
        return w & kIndexMask;
    }

    /** True if record @p i's taken byte is nonzero. */
    FDIP_HOT_PATH bool
    taken(std::size_t i) const
    {
        const std::uint32_t w = words_[i];
        if (w == kSideWord) [[unlikely]]
            return sideRecord(i).taken != 0;
        return (w & kTakenBit) != 0;
    }

    /** Info of record @p i: a stored one is looked up by rank. */
    FDIP_HOT_PATH Addr
    info(std::size_t i) const
    {
        const std::uint32_t w = words_[i];
        if (w == kSideWord) [[unlikely]]
            return sideRecord(i).info;
        return plainInfo(i, w);
    }

    /**
     * PC the committed path continues at after record @p i: its info
     * for a taken branch, else the next sequential PC. A side-list
     * record outside the image counts as a non-branch.
     */
    FDIP_HOT_PATH Addr
    nextPc(std::size_t i) const
    {
        const std::uint32_t w = words_[i];
        if (w == kSideWord) [[unlikely]]
            return sideNextPc(i);
        const std::uint32_t index = w & kIndexMask;
        if ((w & kTakenBit) != 0 && isBranch(image_->classOf(index)))
            return plainInfo(i, w);
        return image_->pcOf(index) + kInstBytes;
    }

    /** Calls @p visit with every record in order, one rank block at a
     *  time; reads stored infos by cursor, not by rank. */
    template <typename Visit>
    void
    forEach(Visit visit) const
    {
        const Addr *info = infos_.data();
        const SideRecord *side = side_.data();
        const std::size_t n = words_.size();
        for (std::size_t first = 0; first < n; first += kBlockRecords) {
            std::uint64_t bits = blocks_[first / kBlockRecords].storedBits();
            const std::size_t last = std::min(n, first + kBlockRecords);
            for (std::size_t i = first; i < last; ++i, bits >>= 1) {
                const std::uint32_t w = words_[i];
                if (w == kSideWord) [[unlikely]] {
                    visit((side++)->inst);
                    continue;
                }
                DynInst d;
                d.staticIndex = w & kIndexMask;
                d.taken = static_cast<std::uint8_t>(w >> kTakenShift);
                d.info = (bits & 1) != 0 ? *info++ : derivedInfo(i, w);
                visit(d);
            }
        }
    }

    /** Number of stored infos. */
    std::size_t numStoredInfos() const { return infos_.size(); }

    /** Number of side-list records. */
    std::size_t numSideRecords() const { return side_.size(); }

    /** Bytes the records occupy, capacity included. */
    std::size_t footprintBytes() const;

  private:
    /** Records per rank block. */
    static constexpr std::size_t kBlockRecords = 64;
    static constexpr unsigned kTakenShift = 31;
    static constexpr std::uint32_t kTakenBit = 1u << kTakenShift;
    static constexpr std::uint32_t kIndexMask = kTakenBit - 1;
    /** Word of a side-list record (index kIndexMask is never plain). */
    static constexpr std::uint32_t kSideWord = 0xffffffffu;

    /** Rank index of 64 records: the infos stored before them, and
     *  their stored bits (records 0-31 in bits[0]). */
    struct Block
    {
        std::uint32_t before;
        std::uint32_t bits[2];

        FDIP_HOT_PATH std::uint64_t
        storedBits() const
        {
            return std::uint64_t{bits[1]} << 32 | bits[0];
        }
    };
    static_assert(sizeof(Block) == 12, "a rank block is 12 bytes");

    /** One record that does not fit a word. */
    struct SideRecord
    {
        std::size_t index;
        DynInst inst;
    };

    /** Info of plain record @p i with word @p w. */
    FDIP_HOT_PATH Addr
    plainInfo(std::size_t i, std::uint32_t w) const
    {
        const Block &b = blocks_[i / kBlockRecords];
        const std::uint64_t bits = b.storedBits();
        const unsigned bit = i % kBlockRecords;
        if ((bits >> bit & 1) != 0) {
            const std::uint64_t below = (std::uint64_t{1} << bit) - 1;
            return infos_[b.before + std::popcount(bits & below)];
        }
        return derivedInfo(i, w);
    }

    /** Info of plain record @p i with word @p w, which is not stored. */
    FDIP_HOT_PATH Addr
    derivedInfo(std::size_t i, std::uint32_t w) const
    {
        if ((w & kTakenBit) != 0)
            return image_->pcOf(words_[i + 1] & kIndexMask);
        const std::uint32_t index = w & kIndexMask;
        return isBranch(image_->classOf(index)) ? image_->targetOf(index)
                                                : kNoAddr;
    }

    /** Side-list record @p i. */
    DynInst sideRecord(std::size_t i) const;

    /** nextPc() of side-list record @p i. */
    Addr sideNextPc(std::size_t i) const;

    /** Flips record @p i's stored bit. */
    void flipStored(std::size_t i);

    const ProgramImage *image_ = nullptr;
    std::vector<std::uint32_t> words_;
    std::vector<Block> blocks_;
    std::vector<Addr> infos_;
    std::vector<SideRecord> side_; ///< Sorted by record index.
    /** The last record is taken and its info is stored only until a
     *  successor it derives from arrives. */
    bool lastInfoPending_ = false;
};

} // namespace fdip

#endif // FDIP_TRACE_TRACE_RECORDS_H_
