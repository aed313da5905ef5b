// OnlineMonitor tests: latching, the incremental graph fast path, the
// fallback tier, sparse object ids and malformed input, on hand-written
// traces. Agreement with the batch checker on every prefix, over generated
// histories and registry recordings, is the differential oracle's job
// (tests/oracle_test.cpp).
#include <gtest/gtest.h>

#include "history/parser.hpp"
#include "monitor/monitor.hpp"

namespace duo::monitor {
namespace {

using checker::Verdict;
using history::History;

OnlineMonitor feed_all(const History& h) {
  OnlineMonitor mon;
  for (const auto& e : h.events()) {
    const auto fed = mon.feed(e);
    EXPECT_TRUE(fed.has_value()) << fed.error();
  }
  return mon;
}

TEST(OnlineMonitor, EmptyPrefixIsDuOpaque) {
  OnlineMonitor mon;
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_EQ(mon.events_fed(), 0u);
  EXPECT_FALSE(mon.first_violation().has_value());
}

TEST(OnlineMonitor, LatchesAtFirstBadEventAndStaysLatched) {
  // Figure 3's shape: T2 reads T1's value before T1 invokes tryC. The read
  // response (index 3, the 4th event) already has no can-commit writer, so
  // the latch must land there.
  const auto h =
      history::parse_history_or_die("W1(X0,1) R2(X0)=1 C1 C2");
  auto mon = feed_all(h);
  EXPECT_EQ(mon.verdict(), Verdict::kNo);
  ASSERT_TRUE(mon.first_violation().has_value());
  EXPECT_EQ(*mon.first_violation(), 3u);
  EXPECT_FALSE(mon.explanation().empty());
  EXPECT_TRUE(mon.stats().latched_by_fast_path);
  EXPECT_EQ(mon.stats().full_checks, 0u);
}

TEST(OnlineMonitor, DuOpaqueTraceStaysOnTheGraphFastPath) {
  const auto h =
      history::parse_history_or_die("W1(X0,1) C1 R2(X0)=1 W2(X1,2) C2");
  auto mon = feed_all(h);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  // Every event must resolve on the incremental graph: no fallback checks,
  // no deferred edges, no unique-writes debt.
  EXPECT_EQ(mon.stats().full_checks, 0u) << mon.stats().events;
  EXPECT_EQ(mon.stats().fast_yes, h.size());
  EXPECT_EQ(mon.stats().deferred_edges, 0u);
}

TEST(OnlineMonitor, CanonicalOrderCycleFallsBackAndStaysExact) {
  // T1 and T2 run concurrently; T2 (value 2) commits before T1 (value 1),
  // then T3 — which starts after both completed — reads 2. The canonical
  // install order puts T2 before T1, making T3's anti-dependency edge
  // T3 -> T1 close a cycle with the real-time edge T1 -> T3; the true
  // version order (T1 before T2) satisfies everything. The monitor must
  // park the edge and answer through the fallback. (The oracle holds every
  // prefix of this trace to the offline checker.)
  const auto h = history::parse_history_or_die(
      "W1?(X0,1) W1!(X0) W2(X0,2) C2 C1 R3(X0)=2 C3");
  auto mon = feed_all(h);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_GE(mon.stats().deferred_edges, 1u);
  EXPECT_GE(mon.stats().full_checks, 1u);
}

TEST(OnlineMonitor, ParkedEdgesDrainWhenTheGraphThins) {
  // As above, but a fourth writer briefly duplicates T2's value (tryC then
  // abort): the duplicate unresolves T3's read — releasing the parked
  // anti-dependency edge — and the abort re-resolves and re-parks it. The
  // monitor must track the churn; the oracle holds every prefix of this
  // trace to the offline checker.
  const auto h = history::parse_history_or_die(
      "W1?(X0,1) W1!(X0) W2(X0,2) C2 C1 R3(X0)=2 "
      "W4?(X0,2) W4!(X0) C4? C4!=A C3");
  auto mon = feed_all(h);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_GE(mon.stats().deferred_edges, 2u);
  EXPECT_GE(mon.stats().edges_removed, 1u);
}

TEST(OnlineMonitor, ParkedEdgeReentersWhenAChainMoveEnds) {
  // T5 invokes tryC before T4 commits, so X0's chain keys T5 first and T3's
  // read of 5 points its anti-dependency at T4. T5's commit response
  // re-keys it behind T4. An edge of that move is parked on the way in and
  // must re-enter once the move's removals land: the fast path stays live,
  // with nothing parked and no fallback.
  const auto h = history::parse_history_or_die(
      "W4(X0,4) W5(X0,5) C5? R3(X0)=5 C4 C5!");
  auto mon = feed_all(h);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_GE(mon.stats().deferred_edges, 1u);
  EXPECT_EQ(mon.pending_edges(), 0u);
  EXPECT_EQ(mon.stats().full_checks, 0u);
}

TEST(OnlineMonitor, ObjectSpaceGrowsWithTheStream) {
  OnlineMonitor mon;
  EXPECT_EQ(mon.num_objects(), 0);
  ASSERT_TRUE(mon.feed(history::Event::inv_write(1, 7, 5)).has_value());
  EXPECT_EQ(mon.num_objects(), 8);
}

TEST(OnlineMonitor, SparseHugeObjectIdsStayOnTheFastPath) {
  // The monitor grows per-object state on demand: scattered ids far apart
  // (here ~2e9, near the ObjId limit) may not allocate dense per-object
  // arrays or leave any vector indexed past its size. The whole
  // trace must resolve incrementally — the fallback tier would materialize
  // a dense History.
  constexpr history::ObjId kHuge = 2'000'000'000;
  OnlineMonitor mon;
  const auto feed = [&](const history::Event& e) {
    const auto fed = mon.feed(e);
    ASSERT_TRUE(fed.has_value()) << fed.error();
  };
  feed(history::Event::inv_write(1, kHuge, 7));
  feed(history::Event::resp_write_ok(1, kHuge));
  feed(history::Event::inv_tryc(1));
  feed(history::Event::resp_commit(1));
  feed(history::Event::inv_read(2, kHuge));
  feed(history::Event::resp_read(2, kHuge, 7));
  feed(history::Event::inv_read(2, 3));
  feed(history::Event::resp_read(2, 3, 0));
  feed(history::Event::inv_tryc(2));
  feed(history::Event::resp_commit(2));
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_EQ(mon.stats().full_checks, 0u);
  EXPECT_EQ(mon.num_objects(), kHuge + 1);
}

TEST(OnlineMonitor, SparseHugeObjectIdsLatchViolationsEventLocally) {
  constexpr history::ObjId kHuge = 1'999'999'999;
  OnlineMonitor mon;
  ASSERT_TRUE(mon.feed(history::Event::inv_read(1, kHuge)).has_value());
  const auto fed = mon.feed(history::Event::resp_read(1, kHuge, 42));
  ASSERT_TRUE(fed.has_value());
  // Nobody can commit (X_huge, 42): the rejection is event-local, so even
  // in sparse-id mode no fallback (dense) check is needed.
  EXPECT_EQ(fed.value(), Verdict::kNo);
  ASSERT_TRUE(mon.first_violation().has_value());
  EXPECT_EQ(*mon.first_violation(), 1u);
  EXPECT_EQ(mon.stats().full_checks, 0u);
}

TEST(OnlineMonitor, MalformedEventIsRejectedAndDiscarded) {
  OnlineMonitor mon;
  // Response without a pending invocation.
  const auto bad = mon.feed(history::Event::resp_commit(1));
  ASSERT_FALSE(bad.has_value());
  EXPECT_NE(bad.error().find("response without pending invocation"),
            std::string::npos);
  EXPECT_EQ(mon.events_fed(), 0u);
  // The monitor stays usable.
  EXPECT_TRUE(mon.feed(history::Event::inv_tryc(1)).has_value());
  EXPECT_TRUE(mon.feed(history::Event::resp_commit(1)).has_value());
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
}

TEST(OnlineMonitor, RepeatedReadRejectedLikeHistoryMake) {
  OnlineMonitor mon;
  ASSERT_TRUE(mon.feed(history::Event::inv_read(1, 0)).has_value());
  ASSERT_TRUE(mon.feed(history::Event::resp_read(1, 0, 0)).has_value());
  EXPECT_FALSE(mon.feed(history::Event::inv_read(1, 0)).has_value());
}

TEST(OnlineMonitor, HistoryRoundTripsWhatWasFed) {
  const auto h = history::parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2");
  auto mon = feed_all(h);
  EXPECT_TRUE(mon.history().equivalent_to(h));
  EXPECT_EQ(mon.history().size(), h.size());
}

}  // namespace
}  // namespace duo::monitor
