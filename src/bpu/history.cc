#include "bpu/history.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/bits.h"
#include "util/log.h"
#include "util/hotpath.h"

namespace fdip
{

const char *
historyPolicyName(HistoryPolicy p)
{
    switch (p) {
      case HistoryPolicy::kTargetHistory: return "THR";
      case HistoryPolicy::kDirectionHistory: return "GHR";
      case HistoryPolicy::kIdealDirectionHistory: return "Ideal";
    }
    return "?";
}

BranchHistory::BranchHistory(HistoryPolicy policy) : policy_(policy) {}

unsigned
BranchHistory::registerFold(unsigned length_bits, unsigned folded_bits)
{
    if (numViews_ >= kMaxFolds)
        fdip_fatal("too many folded history views (max %zu)", kMaxFolds);
    if (length_bits + kRewindSlackBits > kRingBits) {
        fdip_fatal("history length %u exceeds ring capacity (%u bits, %u "
                   "kept free to rewind snapshots)",
                   length_bits, kRingBits, kRewindSlackBits);
    }
    if (folded_bits == 0 || folded_bits >= 32)
        fdip_fatal("folded history width %u not in [1, 31]", folded_bits);
    // A fold starts empty, so it matches its window only if that window
    // is still empty; restore() relies on the match.
    if (headPos_ != 0)
        fdip_fatal("folded history views must be registered before the "
                   "first push");

    // Share an existing fold of the same (length, width): its value is
    // a function of the same ring bits.
    const auto same = std::find_if(
        folds_.begin(), folds_.end(), [&](const FoldedHistory &f) {
            return f.origLen == length_bits && f.compLen == folded_bits;
        });
    const auto slot = static_cast<std::uint8_t>(same - folds_.begin());
    if (same == folds_.end()) {
        FoldedHistory f;
        f.origLen = length_bits;
        f.compLen = folded_bits;
        f.outBit = std::uint32_t{1} << (length_bits % folded_bits);
        f.mask = (std::uint32_t{1} << folded_bits) - 1;
        folds_.push_back(f);
        undoChunk_ = std::min(undoChunk_, folded_bits);
        longestWindow_ = std::max(longestWindow_, length_bits);
    }
    viewFold_[numViews_] = slot;
    return numViews_++;
}

template <unsigned N>
FDIP_HOT_PATH void
BranchHistory::pushBits(std::uint64_t bits)
{
    // Write every bit first: a window shorter than N bits reads out-bits
    // that this same call pushes.
    std::uint32_t in[N] = {};
    for (unsigned i = 0; i < N; ++i) {
        in[i] = static_cast<std::uint32_t>((bits >> i) & 1);
        const std::size_t slot = slotOf(headPos_ + i);
        ring_[slot] = static_cast<std::uint8_t>(in[i]);
        if (slot < kMirrorBytes)
            ring_[kRingBits + slot] = static_cast<std::uint8_t>(in[i]);
        recentBits_ = (recentBits_ << 1) | in[i];
    }
    // The bit leaving a window of origLen bits when the bit at p enters
    // is the one at p - origLen: N consecutive ring bytes, read across
    // the ring's end through the mirror, and read before the fold
    // changes so it can stay in a register.
    for (FoldedHistory &f : folds_) {
        std::uint8_t out[N] = {};
        std::memcpy(out, &ring_[slotOf(headPos_ - f.origLen)], N);
        for (unsigned i = 0; i < N; ++i)
            f.update(in[i], out[i]);
    }
    headPos_ += N;
}

FDIP_HOT_PATH void
BranchHistory::pushBranch(Addr pc, Addr target, bool taken)
{
    ++numEvents_;
    if (policy_ != HistoryPolicy::kTargetHistory) {
        pushBits<1>(taken ? 1 : 0);
        return;
    }
    if (!taken)
        return; // Taken-only target history ignores not-taken.
    // Eq. (2): hash PC and target; push kThrBitsPerEvent bits of it.
    pushBits<kThrBitsPerEvent>(mix64((pc >> 2) ^ (target >> 1)));
}

FDIP_HOT_PATH void
BranchHistory::restore(const HistorySnapshot &snap)
{
    if (snap.headPos > headPos_) {
        fdip_panic("history snapshot at bit %llu is ahead of the head %llu",
                   static_cast<unsigned long long>(snap.headPos),
                   static_cast<unsigned long long>(headPos_));
    }
    // The rewind reads ring positions down to snap.headPos - longest
    // window; slots are reused from highWater_ - kRingBits on.
    const std::uint64_t high_water = std::max(highWater_, headPos_);
    if (high_water - snap.headPos + longestWindow_ > kRingBits) {
        fdip_panic("history rewind to bit %llu would read overwritten "
                   "ring bits (head reached %llu, longest window %u, "
                   "ring %u bits)",
                   static_cast<unsigned long long>(snap.headPos),
                   static_cast<unsigned long long>(high_water),
                   longestWindow_,
                   kRingBits);
    }
    highWater_ = high_water;
    // Undo the pushes newest first, up to undoChunk_ at a time. The 8
    // bits ending at the head hold the chunk's new bits in their low k
    // bits; the 8 ending origLen earlier hold its out-bits.
    while (headPos_ > snap.headPos) {
        const auto k = static_cast<unsigned>(
            std::min<std::uint64_t>(undoChunk_, headPos_ - snap.headPos));
        const std::uint32_t low = (std::uint32_t{1} << k) - 1;
        const std::uint32_t new_bits = packed8(headPos_ - 8) & low;
        for (FoldedHistory &f : folds_)
            f.undo(k, new_bits, packed8(headPos_ - 8 - f.origLen) & low);
        headPos_ -= k;
    }
    recentBits_ = snap.recentBits;
}

std::uint64_t
BranchHistory::storageBits() const
{
    std::uint64_t foldedBits = 0;
    for (unsigned v = 0; v < numViews_; ++v)
        foldedBits += folds_[viewFold_[v]].compLen;
    return foldedBits;
}

StorageSchema
BranchHistory::storageSchema() const
{
    // Group registered views by width, preserving first-seen order so
    // the certificate is deterministic for a given registration order.
    std::vector<std::pair<unsigned, std::uint64_t>> widths;
    for (unsigned v = 0; v < numViews_; ++v) {
        const unsigned width = folds_[viewFold_[v]].compLen;
        auto it = std::find_if(
            widths.begin(), widths.end(),
            [&](const auto &w) { return w.first == width; });
        if (it == widths.end())
            widths.emplace_back(width, 1);
        else
            ++it->second;
    }
    StorageSchema s("history");
    for (const auto &[width, count] : widths)
        s.add("fold[" + std::to_string(width) + "b]", width, count);
    return s;
}

} // namespace fdip
