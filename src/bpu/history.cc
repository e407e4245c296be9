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

BranchHistory::BranchHistory(HistoryPolicy policy, unsigned bits_per_event)
    : policy_(policy), bitsPerEvent_(bits_per_event)
{
    if (bitsPerEvent_ == 0) {
        bitsPerEvent_ =
            policy_ == HistoryPolicy::kTargetHistory ? 2 : 1;
    }
    if (bitsPerEvent_ > 8)
        fdip_fatal("bits per history event must be <= 8");
}

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
    if (same != folds_.end()) {
        viewFold_[numViews_] = static_cast<std::uint8_t>(same - folds_.begin());
        return numViews_++;
    }

    // Keep folds sorted by window length, so a push reads each window's
    // outgoing bit once; the folds after the new one move up one slot.
    const auto pos = std::upper_bound(
        folds_.begin(), folds_.end(), length_bits,
        [](unsigned len, const FoldedHistory &f) { return len < f.origLen; });
    const auto slot = static_cast<std::uint8_t>(pos - folds_.begin());
    FoldedHistory f;
    f.origLen = length_bits;
    f.compLen = folded_bits;
    f.outShift = length_bits % folded_bits;
    f.mask = (std::uint32_t{1} << folded_bits) - 1;
    folds_.insert(pos, f);
    for (unsigned v = 0; v < numViews_; ++v) {
        if (viewFold_[v] >= slot)
            ++viewFold_[v];
    }
    viewFold_[numViews_] = slot;
    return numViews_++;
}

FDIP_HOT_PATH void
BranchHistory::pushBit(unsigned bit)
{
    const std::uint64_t word = (headPos_ / 64) % kRingWords;
    const unsigned off = headPos_ % 64;
    ring_[word] = (ring_[word] & ~(std::uint64_t{1} << off)) |
                  (static_cast<std::uint64_t>(bit) << off);
    // Update folded views before advancing: the bit leaving each window
    // is the one origLen positions behind the new head. (No window is
    // kRingBits long, so the first fold always reads its out-bit.)
    unsigned len = kRingBits;
    unsigned out_bit = 0;
    for (FoldedHistory &f : folds_) {
        if (f.origLen != len) {
            len = f.origLen;
            out_bit = outBitAt(headPos_, len);
        }
        f.update(bit, out_bit);
    }
    recentBits_ = (recentBits_ << 1) | bit;
    ++headPos_;
}

FDIP_HOT_PATH void
BranchHistory::pushBranch(Addr pc, Addr target, bool taken)
{
    ++numEvents_;
    if (policy_ == HistoryPolicy::kTargetHistory) {
        if (!taken)
            return; // Taken-only target history ignores not-taken.
        // Eq. (2): hash PC and target; push bitsPerEvent_ bits of it.
        const std::uint64_t h = mix64((pc >> 2) ^ (target >> 1));
        for (unsigned i = 0; i < bitsPerEvent_; ++i)
            pushBit((h >> i) & 1);
    } else {
        pushBit(taken ? 1 : 0);
    }
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
    const unsigned longest = folds_.empty() ? 0 : folds_.back().origLen;
    if (high_water - snap.headPos + longest > kRingBits) {
        fdip_panic("history rewind to bit %llu would read overwritten "
                   "ring bits (head reached %llu, longest window %u, "
                   "ring %u bits)",
                   static_cast<unsigned long long>(snap.headPos),
                   static_cast<unsigned long long>(high_water), longest,
                   kRingBits);
    }
    highWater_ = high_water;
    // Undo the pushes newest first.
    while (headPos_ > snap.headPos) {
        --headPos_;
        const unsigned in_bit = bitAt(headPos_);
        unsigned len = kRingBits;
        unsigned out_bit = 0;
        for (FoldedHistory &f : folds_) {
            if (f.origLen != len) {
                len = f.origLen;
                out_bit = outBitAt(headPos_, len);
            }
            f.undo(in_bit, out_bit);
        }
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
