// Settled-prefix garbage collection on hand-written traces: what retires,
// what pins the horizon and a retiring writer, and how a read of a retired
// version latches. Two streaming regressions pin resident state flat over
// one million events, fed per event and in feed_batch chunks over four
// shards. That GC never changes a verdict or a first-violation index is
// the differential oracle's job (tests/oracle_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "history/event.hpp"
#include "history/parser.hpp"
#include "monitor/monitor.hpp"

namespace duo::monitor {
namespace {

using checker::Verdict;
using history::Event;
using history::History;

MonitorOptions gc_options(std::size_t retain = 0) {
  MonitorOptions opts;
  opts.gc = true;
  opts.gc_retain_events = retain;  // 0: collect after every event
  return opts;
}

TEST(MonitorGc, OffByDefaultAndRetainsEverything) {
  const auto h = history::parse_history_or_die(
      "W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 W4(X0,4) C4");
  OnlineMonitor mon;
  for (const auto& e : h.events()) ASSERT_TRUE(mon.feed(e).has_value());
  EXPECT_EQ(mon.stats().gc_passes, 0u);
  EXPECT_EQ(mon.stats().retired_txns, 0u);
  EXPECT_EQ(mon.retained_events(), h.size());
  EXPECT_EQ(mon.live_transactions(), 4u);
}

TEST(MonitorGc, RetiresSettledWritersAndCompactsEvents) {
  // Four committed writers of X0 in sequence: once T3 commits, T1 is
  // superseded by two committed successors, completed behind the horizon,
  // and unreferenced — it must retire. The chain tail (last two members)
  // must stay.
  const auto h = history::parse_history_or_die(
      "W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 W4(X0,4) C4");
  OnlineMonitor mon(gc_options());
  for (const auto& e : h.events()) {
    const auto fed = mon.feed(e);
    ASSERT_TRUE(fed.has_value()) << fed.error();
    ASSERT_EQ(fed.value(), Verdict::kYes);
  }
  EXPECT_GE(mon.stats().gc_passes, 1u);
  EXPECT_EQ(mon.stats().retired_txns, 2u);  // T1 and T2; T3, T4 guard the tail
  EXPECT_EQ(mon.live_transactions(), 2u);
  EXPECT_EQ(mon.retained_events(), 8u);  // 4 events per retained writer
  EXPECT_EQ(mon.events_fed(), h.size());
  EXPECT_EQ(mon.stats().retired_events, 8u);
  // The retained subsequence is a well-formed, du-opaque history.
  EXPECT_EQ(mon.history().size(), 8u);
}

TEST(MonitorGc, StaleReadOfRetiredValueLatchesAtTheSameIndex) {
  // T1's version of X0 is retired; a later read of it is a violation in
  // both monitors (the reader would serialize before a writer that
  // t-completed before the reader started), and must latch at the same
  // 0-based index even though the GC monitor decides it event-locally.
  const auto h = history::parse_history_or_die(
      "W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 R4(X0)=1 C4");
  OnlineMonitor gc(gc_options());
  std::size_t fed_count = 0;
  for (const auto& e : h.events()) {
    ASSERT_TRUE(gc.feed(e).has_value());
    if (++fed_count == 12) {
      // All three writers committed: T1 must be retired already.
      ASSERT_GE(gc.stats().retired_txns, 1u);
    }
  }
  EXPECT_EQ(gc.verdict(), Verdict::kNo);
  ASSERT_TRUE(gc.first_violation().has_value());
  EXPECT_EQ(*gc.first_violation(), 13u);  // R4's response
}

TEST(MonitorGc, LiveTransactionPinsTheHorizon) {
  // T9 starts first and never finishes: nothing may retire (every other
  // transaction completes after T9's start, so none is behind the
  // horizon), even though the writer chain grows.
  const auto h = history::parse_history_or_die(
      "R9(X1)=0 W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 W4(X0,4) C4");
  OnlineMonitor mon(gc_options());
  for (const auto& e : h.events()) ASSERT_TRUE(mon.feed(e).has_value());
  EXPECT_EQ(mon.stats().retired_txns, 0u);
  EXPECT_EQ(mon.live_transactions(), 5u);
  // Once T9 finishes, the frontier advances and settled writers drain.
  ASSERT_TRUE(mon.feed(Event::inv_tryc(9)).has_value());
  ASSERT_TRUE(mon.feed(Event::resp_commit(9)).has_value());
  EXPECT_GE(mon.stats().retired_txns, 2u);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
}

TEST(MonitorGc, ResolvedReadPinsItsWriter) {
  // T4 reads T1's version and stays open: T1 (and its guards' positions)
  // must survive until the reader is itself settled, then drain.
  const auto h = history::parse_history_or_die(
      "W1(X0,1) C1 R4(X0)=1 W2(X0,2) C2 W3(X0,3) C3");
  OnlineMonitor mon(gc_options());
  for (const auto& e : h.events()) ASSERT_TRUE(mon.feed(e).has_value());
  EXPECT_EQ(mon.stats().retired_txns, 0u);  // T4 open pins everything
  ASSERT_TRUE(mon.feed(Event::inv_tryc(4)).has_value());
  ASSERT_TRUE(mon.feed(Event::resp_commit(4)).has_value());
  // T4's commit moves the horizon past T1, but T4's read still resolves to
  // T1 and T4 is retained (not yet superseded): T1 must stay.
  const auto retained = mon.live_transactions();
  EXPECT_GE(retained, 2u);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
}

// -- flat-memory regression over one million events --------------------------

// Streaming synthetic workload (never materialized): pairs of overlapping
// transactions, each reading the current committed value of one object and
// installing a fresh unique value. Unique-writes, du-opaque, and steadily
// settling — the monitor's intended service diet.
class StreamingWorkload {
 public:
  explicit StreamingWorkload(std::size_t objects) : cur_(objects, 0) {}

  // Appends the next pair of transactions (12 events) to `out`.
  void next_pair(std::vector<Event>& out) {
    const auto a = static_cast<history::TxnId>(next_txn_++);
    const auto b = static_cast<history::TxnId>(next_txn_++);
    const auto xa = static_cast<history::ObjId>(a % cur_.size());
    const auto xb = static_cast<history::ObjId>(b % cur_.size());
    out.push_back(Event::inv_read(a, xa));
    out.push_back(Event::resp_read(a, xa, cur_[static_cast<std::size_t>(xa)]));
    out.push_back(Event::inv_read(b, xb));
    out.push_back(Event::resp_read(b, xb, cur_[static_cast<std::size_t>(xb)]));
    const history::Value va = ++value_;
    const history::Value vb = ++value_;
    out.push_back(Event::inv_write(a, xa, va));
    out.push_back(Event::resp_write_ok(a, xa));
    out.push_back(Event::inv_write(b, xb, vb));
    out.push_back(Event::resp_write_ok(b, xb));
    out.push_back(Event::inv_tryc(a));
    out.push_back(Event::resp_commit(a));
    out.push_back(Event::inv_tryc(b));
    out.push_back(Event::resp_commit(b));
    cur_[static_cast<std::size_t>(xa)] = va;
    cur_[static_cast<std::size_t>(xb)] = vb;
  }

 private:
  std::vector<history::Value> cur_;
  history::Value value_ = 0;
  std::int64_t next_txn_ = 1;
};

/// Streams one million events of the workload through a GC monitor, `pairs`
/// pairs of transactions at a time, in feed_batch calls of `per_feed`
/// events (0: the whole group). The RSS proxy, retained events plus live
/// graph nodes, must stay under the GC pacing watermark plus one group.
void expect_flat_over_a_million_events(const MonitorOptions& opts,
                                       std::size_t pairs,
                                       std::size_t per_feed) {
  OnlineMonitor mon(opts);
  StreamingWorkload wl(/*objects=*/8);
  std::vector<Event> group;
  std::size_t peak_events = 0, peak_nodes = 0, peak_txns = 0;
  while (mon.events_fed() < 1'000'000) {
    group.clear();
    for (std::size_t p = 0; p < pairs; ++p) wl.next_pair(group);
    const std::size_t step = per_feed == 0 ? group.size() : per_feed;
    for (std::size_t i = 0; i < group.size(); i += step) {
      const auto out = mon.feed_batch(group.data() + i, step);
      ASSERT_TRUE(out.error.empty()) << out.error;
      ASSERT_EQ(out.consumed, step);
      ASSERT_EQ(mon.verdict(), Verdict::kYes);
    }
    peak_events = std::max(peak_events, mon.retained_events());
    peak_nodes = std::max(peak_nodes, mon.graph_nodes());
    peak_txns = std::max(peak_txns, mon.live_transactions());
  }
  EXPECT_LT(peak_events, 2048u);
  EXPECT_LT(peak_nodes, 1024u);
  EXPECT_LT(peak_txns, 512u);
  EXPECT_EQ(mon.stats().full_checks, 0u);  // stayed on the fast path
  EXPECT_GT(mon.stats().retired_txns, 150'000u);
  EXPECT_GT(mon.stats().retired_events, 990'000u);
}

TEST(MonitorGc, ResidentStateStaysFlatOverOneMillionEvents) {
  expect_flat_over_a_million_events(gc_options(/*retain=*/512), 1, 1);
}

TEST(MonitorGc, ResidentStateStaysFlatOverOneMillionBatchedEvents) {
  // Batches of 288 events (~100+ shard tasks) cross the parallel derive
  // threshold, so the shard workers run while GC holds state flat.
  MonitorOptions opts = gc_options(/*retain=*/512);
  opts.shards = 4;
  expect_flat_over_a_million_events(opts, 24, 0);
}

TEST(MonitorGc, WithoutGcResidentStateGrowsLinearly) {
  // Control for the regressions above: the same workload with GC off
  // retains every event and transaction (run shorter; linearity is obvious
  // from exact counts).
  constexpr std::size_t kTarget = 60'000;
  OnlineMonitor mon;  // gc off
  StreamingWorkload wl(8);
  std::vector<Event> pair;
  while (mon.events_fed() < kTarget) {
    pair.clear();
    wl.next_pair(pair);
    for (const Event& e : pair) ASSERT_TRUE(mon.feed(e).has_value());
  }
  EXPECT_EQ(mon.retained_events(), mon.events_fed());
  EXPECT_EQ(mon.live_transactions(), mon.events_fed() / 6);  // 6 events/txn
}

}  // namespace
}  // namespace duo::monitor
