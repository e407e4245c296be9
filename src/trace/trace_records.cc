#include "trace/trace_records.h"

#include <algorithm>
#include <limits>

#include "util/hotpath.h"
#include "util/log.h"

namespace fdip
{

TraceRecords::TraceRecords(const ProgramImage &image, std::size_t capacity)
    : image_(&image)
{
    words_.reserve(capacity);
    blocks_.reserve((capacity + kBlockRecords - 1) / kBlockRecords);
}

void
TraceRecords::append(const DynInst &d)
{
    if (image_ == nullptr)
        fdip_panic("trace records appended without an image");
    const std::size_t i = words_.size();
    const bool plain = d.staticIndex < image_->numInsts() &&
                       d.staticIndex < kIndexMask && d.taken <= 1 &&
                       d.pad[0] == 0 && d.pad[1] == 0 && d.pad[2] == 0;

    // The taken predecessor's info is dropped once this record derives
    // it. Before a new block starts, so its count is final.
    if (lastInfoPending_) {
        lastInfoPending_ = false;
        if (plain && infos_.back() == image_->pcOf(d.staticIndex)) {
            infos_.pop_back();
            flipStored(i - 1);
        }
    }
    if (i % kBlockRecords == 0) {
        if (infos_.size() > std::numeric_limits<std::uint32_t>::max())
            fdip_fatal("trace of %zu records overflows its rank index", i);
        blocks_.push_back({static_cast<std::uint32_t>(infos_.size()), {}});
    }

    if (!plain) {
        words_.push_back(kSideWord);
        side_.push_back({i, d});
        return;
    }
    words_.push_back(d.staticIndex | (d.taken != 0 ? kTakenBit : 0));

    // Only the class is read, and the target only for a not-taken
    // branch: the derivation check never decodes the whole slot.
    const InstClass cls = image_->classOf(d.staticIndex);
    bool keep;
    if (cls == InstClass::kLoad || cls == InstClass::kStore) {
        keep = true;
    } else if (d.taken != 0) {
        keep = true;
        lastInfoPending_ = true;
    } else {
        keep = d.info != (isBranch(cls) ? image_->targetOf(d.staticIndex)
                                        : kNoAddr);
    }
    if (keep) {
        infos_.push_back(d.info);
        flipStored(i);
    }
}

void
TraceRecords::shrinkToFit()
{
    words_.shrink_to_fit();
    blocks_.shrink_to_fit();
    infos_.shrink_to_fit();
    side_.shrink_to_fit();
}

std::size_t
TraceRecords::footprintBytes() const
{
    return words_.capacity() * sizeof(std::uint32_t) +
           blocks_.capacity() * sizeof(Block) +
           infos_.capacity() * sizeof(Addr) +
           side_.capacity() * sizeof(SideRecord);
}

void
TraceRecords::flipStored(std::size_t i)
{
    blocks_[i / kBlockRecords].bits[i % kBlockRecords / 32] ^=
        1u << (i % 32);
}

FDIP_HOT_PATH DynInst
TraceRecords::sideRecord(std::size_t i) const
{
    return std::lower_bound(side_.begin(), side_.end(), i,
                            [](const SideRecord &s, std::size_t k) {
                                return s.index < k;
                            })
        ->inst;
}

FDIP_HOT_PATH Addr
TraceRecords::sideNextPc(std::size_t i) const
{
    const DynInst d = sideRecord(i);
    const Addr pc = image_->pcOf(d.staticIndex);
    if (d.taken != 0 && isBranch(image_->instAt(pc).cls))
        return d.info;
    return pc + kInstBytes;
}

} // namespace fdip
