/** @file Invariant-checker tests: FTQ overflow, RAS underflow/restore
 *  bounds, illegal BTB/cache/core configurations, stats-conservation
 *  violations, scope paths, and the frontend's bounded prefetch
 *  tracking (eviction regression). */

#include "check/invariants.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>

#include "core/core.h"
#include "micro_program.h"
#include "prefetch/prefetcher.h"
#include "util/circular_queue.h"

namespace fdip
{
namespace
{

using test::MicroProgram;

/** Skips the test when FDIP_CHECK is compiled out (-DFDIP_CHECKS=OFF). */
#define REQUIRE_CHECKS_ENABLED()                                              \
    do {                                                                      \
        if (!kInvariantChecksEnabled)                                         \
            GTEST_SKIP() << "invariant checks compiled out";                  \
    } while (0)

/** A minimal well-formed FTQ entry (state set, offsets consistent). */
FtqEntry
validEntry(std::uint64_t seq)
{
    FtqEntry e;
    e.startAddr = 0x1000;
    e.termOffset = 7;
    e.state = FtqState::kPredicted;
    e.seq = seq;
    return e;
}

/** Pushes a fresh well-formed entry onto @p ftq.
 *
 *  Deliberately a named local + std::move, not
 *  `ftq.push(validEntry(seq))`: gcc 12.2 at -O2 mis-lowers the elided
 *  prvalue temporary through push(FtqEntry&&) in gtest TUs, dropping
 *  the `state` store of the first pushed entry (verified:
 *  -fno-elide-constructors or -O1/-O3 make it disappear; ASan and
 *  UBSan are clean; the named-local form — which is also what the
 *  product code uses — is always correct). */
void
pushValid(Ftq &ftq, std::uint64_t seq)
{
    FtqEntry e = validEntry(seq);
    ftq.push(std::move(e));
}

// ---------------------------------------------------------------------
// FDIP_CHECK machinery.
// ---------------------------------------------------------------------

TEST(Invariant, ViolationMessageCarriesScopePath)
{
    REQUIRE_CHECKS_ENABLED();
    InvariantScope outer("outer");
    InvariantScope inner("inner");
    EXPECT_EQ(InvariantScope::path(), "outer/inner");
    try {
        FDIP_CHECK(false, "value was %d", 42);
        FAIL() << "FDIP_CHECK(false) did not throw";
    } catch (const InvariantViolation &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("outer/inner"), std::string::npos) << msg;
        EXPECT_NE(msg.find("value was 42"), std::string::npos) << msg;
        EXPECT_NE(msg.find("false"), std::string::npos) << msg;
    }
}

TEST(Invariant, ScopeStackUnwindsAfterThrow)
{
    REQUIRE_CHECKS_ENABLED();
    EXPECT_EQ(InvariantScope::path(), "(global)");
    try {
        InvariantScope scope("doomed");
        FDIP_CHECK(false, "boom");
    } catch (const InvariantViolation &) {
    }
    EXPECT_EQ(InvariantScope::path(), "(global)");
}

TEST(Invariant, ScopesNestPastTheDepthLimit)
{
    // The stack names kMaxScopeDepth scopes and counts the rest, so a
    // violation that deep still reports where it was, and every scope
    // still unwinds.
    REQUIRE_CHECKS_ENABLED();
    constexpr std::size_t kDepth = check_detail::kMaxScopeDepth + 3;
    std::string expected = "s";
    for (std::size_t i = 1; i < check_detail::kMaxScopeDepth; ++i)
        expected += "/s";
    expected += "/...(3 more)";
    {
        std::array<std::optional<InvariantScope>, kDepth> scopes;
        for (auto &scope : scopes)
            scope.emplace("s");
        EXPECT_EQ(InvariantScope::path(), expected);
        try {
            FDIP_CHECK(false, "deep");
            FAIL() << "FDIP_CHECK(false) did not throw";
        } catch (const InvariantViolation &e) {
            EXPECT_NE(std::string(e.what()).find(expected),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(InvariantScope::path(), "(global)");
}

TEST(Invariant, RequireIsActiveRegardlessOfBuild)
{
    // FDIP_REQUIRE guards construction-time legality even in
    // checks-off builds: an illegal structure can never be built.
    EXPECT_THROW(CircularQueue<int>(0), InvariantViolation);
}

// ---------------------------------------------------------------------
// Queue and FTQ occupancy.
// ---------------------------------------------------------------------

TEST(Invariant, CircularQueueMisuseIsCaught)
{
    REQUIRE_CHECKS_ENABLED();
    CircularQueue<int> q(2);
    EXPECT_THROW(q.popFront(), InvariantViolation);
    EXPECT_THROW(static_cast<void>(q.at(0)), InvariantViolation);
    q.pushBack(1);
    q.pushBack(2);
    EXPECT_THROW(q.pushBack(3), InvariantViolation);
    EXPECT_THROW(q.truncate(3), InvariantViolation);
    EXPECT_THROW(q.resizeTo(3), InvariantViolation);
}

TEST(Invariant, FtqOverflowIsCaught)
{
    REQUIRE_CHECKS_ENABLED();
    Ftq ftq(2);
    pushValid(ftq, 0);
    pushValid(ftq, 1);
    ASSERT_TRUE(ftq.full());
    EXPECT_THROW(pushValid(ftq, 2), InvariantViolation);
}

TEST(Invariant, FtqIntegrityCatchesMalformedEntries)
{
    REQUIRE_CHECKS_ENABLED();
    {
        Ftq ftq(4);
        pushValid(ftq, 0);
        pushValid(ftq, 1);
        EXPECT_NO_THROW(checkFtqIntegrity(ftq));
    }
    {
        // Non-monotone sequence numbers.
        Ftq ftq(4);
        pushValid(ftq, 5);
        pushValid(ftq, 3);
        EXPECT_THROW(checkFtqIntegrity(ftq), InvariantViolation);
    }
    {
        // Queued entry still in the invalid state.
        Ftq ftq(4);
        FtqEntry e = validEntry(0);
        e.state = FtqState::kInvalid;
        ftq.push(std::move(e));
        EXPECT_THROW(checkFtqIntegrity(ftq), InvariantViolation);
    }
    {
        // An unprobed entry before the probe cursor; a cursor past the
        // tail.
        Ftq ftq(4);
        pushValid(ftq, 0);
        pushValid(ftq, 1);
        ftq.at(0).state = FtqState::kReady;
        ftq.advanceProbed();
        EXPECT_NO_THROW(checkFtqIntegrity(ftq));
        ftq.advanceProbed();
        EXPECT_THROW(checkFtqIntegrity(ftq), InvariantViolation);
        ftq.at(1).state = FtqState::kFilling;
        EXPECT_NO_THROW(checkFtqIntegrity(ftq));
        ftq.advanceProbed();
        EXPECT_THROW(checkFtqIntegrity(ftq), InvariantViolation);
    }
    {
        // Terminating offset beyond the 8-instruction block.
        FtqEntry e = validEntry(0);
        e.termOffset = 8;
        EXPECT_THROW(checkFtqEntry(e), InvariantViolation);
    }
    {
        // Start past the terminating offset.
        FtqEntry e = validEntry(0);
        e.startAddr = 0x1000 + 5 * kInstBytes;
        e.termOffset = 2;
        EXPECT_THROW(checkFtqEntry(e), InvariantViolation);
    }
    {
        // Block events not strictly ordered by offset.
        FtqEntry e = validEntry(0);
        e.numEvents = 2;
        e.events[0].offset = 4;
        e.events[1].offset = 4;
        EXPECT_THROW(checkFtqEntry(e), InvariantViolation);
    }
}

// ---------------------------------------------------------------------
// RAS semantics.
// ---------------------------------------------------------------------

TEST(Invariant, RasUnderflowIsCountedNotFatalByDefault)
{
    // Hardware-faithful: wrong-path over-pops are legal and counted.
    Ras ras(4);
    ras.push(0x100);
    EXPECT_EQ(ras.pop(), 0x100u);
    ras.pop(); // Nothing live: an underflow, not an error.
    ras.pop();
    EXPECT_EQ(ras.underflows(), 2u);
    EXPECT_EQ(ras.liveEntries(), 0u);
}

TEST(Invariant, RasStrictModeRejectsUnderflow)
{
    REQUIRE_CHECKS_ENABLED();
    Ras ras(4);
    ras.setStrictUnderflow(true);
    ras.push(0x100);
    EXPECT_NO_THROW(ras.pop());
    EXPECT_THROW(ras.pop(), InvariantViolation);
    EXPECT_EQ(ras.underflows(), 0u);
}

TEST(Invariant, RasRestoreBoundsAreChecked)
{
    REQUIRE_CHECKS_ENABLED();
    Ras ras(4);
    RasSnapshot bad_index;
    bad_index.topIndex = 4; // One past the last slot.
    EXPECT_THROW(ras.restore(bad_index), InvariantViolation);
    EXPECT_THROW(checkRasSnapshot(bad_index, ras), InvariantViolation);

    RasSnapshot bad_live;
    bad_live.liveCount = 5; // More live entries than the RAS holds.
    EXPECT_THROW(ras.restore(bad_live), InvariantViolation);
    EXPECT_THROW(checkRasSnapshot(bad_live, ras), InvariantViolation);
}

TEST(Invariant, RasSnapshotsTrackLiveCount)
{
    Ras ras(4);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.snapshot().liveCount, 2u);
    EXPECT_EQ(ras.snapshotAfterPush(0x300).liveCount, 3u);
    EXPECT_EQ(ras.snapshotAfterPop().liveCount, 1u);

    // Restoring a snapshot rewinds the live count with the pointer.
    const RasSnapshot snap = ras.snapshot();
    ras.pop();
    ras.pop();
    ras.pop(); // Underflow on the wrong path...
    ras.restore(snap);
    EXPECT_EQ(ras.liveEntries(), 2u); // ...repaired by the checkpoint.
    EXPECT_EQ(ras.top(), 0x200u);
}

TEST(Invariant, RasConstructionRequiresDepth)
{
    EXPECT_THROW(Ras(0), InvariantViolation);
}

// ---------------------------------------------------------------------
// Configuration legality.
// ---------------------------------------------------------------------

TEST(Invariant, IllegalBtbConfigsAreRejected)
{
    REQUIRE_CHECKS_ENABLED();
    EXPECT_NO_THROW(checkBtbConfig(BtbConfig{}));
    {
        BtbConfig cfg; // 8192 entries not divisible by 5 ways.
        cfg.ways = 5;
        EXPECT_THROW(checkBtbConfig(cfg), InvariantViolation);
    }
    {
        BtbConfig cfg; // 96 sets: not a power of two.
        cfg.numEntries = 384;
        cfg.ways = 4;
        EXPECT_THROW(checkBtbConfig(cfg), InvariantViolation);
    }
    {
        BtbConfig cfg;
        cfg.ways = 0;
        EXPECT_THROW(checkBtbConfig(cfg), InvariantViolation);
    }
}

TEST(Invariant, IllegalCacheConfigsAreRejected)
{
    REQUIRE_CHECKS_ENABLED();
    EXPECT_NO_THROW(checkCacheConfig(CacheConfig{}));
    {
        CacheConfig cfg;
        cfg.lineBytes = 48; // Not a power of two.
        EXPECT_THROW(checkCacheConfig(cfg), InvariantViolation);
    }
    {
        CacheConfig cfg;
        cfg.sizeBytes = 96 * 1024; // 1536 lines / 8 ways = 192 sets.
        EXPECT_THROW(checkCacheConfig(cfg), InvariantViolation);
    }
}

TEST(Invariant, IllegalCoreConfigsAreRejected)
{
    REQUIRE_CHECKS_ENABLED();
    EXPECT_NO_THROW(checkCoreConfig(paperBaselineConfig()));
    EXPECT_NO_THROW(checkCoreConfig(noFdpConfig()));
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.ftqEntries = 1; // Below the 2-entry no-FDP floor.
        EXPECT_THROW(checkCoreConfig(cfg), InvariantViolation);
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.fetchBandwidth = 0;
        EXPECT_THROW(checkCoreConfig(cfg), InvariantViolation);
    }
    {
        CoreConfig cfg = paperBaselineConfig();
        cfg.bpu.btb.ways = 3; // Illegal sub-config is reached too.
        EXPECT_THROW(checkCoreConfig(cfg), InvariantViolation);
    }
}

// ---------------------------------------------------------------------
// Statistics conservation.
// ---------------------------------------------------------------------

TEST(Invariant, StatsConservationViolationsAreCaught)
{
    REQUIRE_CHECKS_ENABLED();
    SimStats s;
    EXPECT_NO_THROW(checkSimStats(s));
    EXPECT_NO_THROW(checkSimStatsFinal(s));
    {
        SimStats bad = s;
        bad.mispredicts = 3; // No cause bucket accounts for these.
        EXPECT_THROW(checkSimStats(bad), InvariantViolation);
    }
    {
        SimStats bad = s;
        bad.pfcCorrect = 1; // An outcome without a fire.
        EXPECT_THROW(checkSimStats(bad), InvariantViolation);
    }
    {
        SimStats bad = s;
        bad.l1iDemandMisses = 1; // A miss without an access.
        EXPECT_THROW(checkSimStats(bad), InvariantViolation);
    }
    {
        SimStats bad = s;
        bad.prefetchesUseful = 1; // Useful but never issued.
        EXPECT_THROW(checkSimStatsFinal(bad), InvariantViolation);
    }
}

TEST(Invariant, CacheConservationHoldsAndViolationsThrow)
{
    REQUIRE_CHECKS_ENABLED();
    Cache cache(CacheConfig{});
    cache.access(0x1000);
    cache.fill(0x1000);
    cache.access(0x1000);
    EXPECT_NO_THROW(checkCacheConservation(cache));
    // There is no way to corrupt a Cache's counters through its public
    // interface — which is the point. Verify the checker itself via an
    // FTQ-independent identity instead: hits + misses == tagAccesses.
    EXPECT_EQ(cache.hits() + cache.misses(), cache.tagAccesses());
}

// ---------------------------------------------------------------------
// End-to-end: a full simulated run holds every tick-time invariant.
// ---------------------------------------------------------------------

TEST(Invariant, FullRunHoldsTickInvariants)
{
    // The frontend re-verifies FTQ integrity, cache conservation, and
    // stats conservation at every tick; a clean run is the proof.
    MicroProgram mp;
    const Addr top = mp.pcOfNext();
    for (unsigned i = 0; i < 63; ++i)
        mp.alu();
    mp.jump(top);
    const Trace t = mp.run(20000);

    CoreConfig cfg = paperBaselineConfig();
    cfg.applyHistoryScheme();
    Core core(cfg, t, std::make_unique<NullPrefetcher>());
    const SimStats s = core.run(0);
    EXPECT_EQ(s.committedInsts, 20000u);
    EXPECT_NO_THROW(checkSimStatsFinal(s));
}

TEST(Invariant, PrefetchTrackingStaysBoundedUnderThrash)
{
    // Regression: usefulness tracking entries must be dropped when
    // their line leaves the L1I. A code footprint twice the L1I
    // (64 KB vs 32 KB) previously grew the map one entry per distinct
    // line, forever.
    MicroProgram mp;
    const Addr top = mp.pcOfNext();
    for (unsigned i = 0; i < 16383; ++i)
        mp.alu();
    mp.jump(top);
    const Trace t = mp.run(40000); // Two-and-a-half laps.

    CoreConfig cfg = paperBaselineConfig();
    cfg.applyHistoryScheme();
    Core core(cfg, t, std::make_unique<NullPrefetcher>());
    core.run(0);

    const std::size_t l1i_lines =
        cfg.l1i.sizeBytes / cfg.l1i.lineBytes; // 512
    // Bounded by resident lines plus in-flight fills — not by the
    // 1024-line program footprint.
    EXPECT_LE(core.frontend().prefetchTrackingEntries(),
              l1i_lines + cfg.l1iMshrs);
}

} // namespace
} // namespace fdip
