// Sharded monitor internals on hand-written traces: the shard count
// resolves and is observable, a mid-batch violation latches at the
// per-event index and stops the batch, and a malformed event stops the
// batch before it. That every shard count and batch size gives the
// per-event monitor's verdicts, indices and stats is the differential
// oracle's job (tests/oracle_test.cpp); the batched flat-memory regression
// is in tests/monitor_gc_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "history/event.hpp"
#include "history/parser.hpp"
#include "monitor/monitor.hpp"

namespace duo::monitor {
namespace {

using checker::Verdict;
using history::Event;

TEST(MonitorShard, ShardCountResolvesAndIsObservable) {
  MonitorOptions opts;
  opts.shards = 4;
  EXPECT_EQ(OnlineMonitor(opts).shards(), 4u);
  opts.shards = 0;  // hardware concurrency, minimum 1
  EXPECT_GE(OnlineMonitor(opts).shards(), 1u);
  EXPECT_EQ(OnlineMonitor().shards(), 1u);
}

TEST(MonitorShard, MidBatchViolationLatchesAtTheSameIndex) {
  // The violating read is mid-trace: a whole-trace batch must latch at the
  // same 0-based index and stop consuming there.
  const std::vector<Event> events =
      history::parse_history_or_die("W1(X0,1) R2(X0)=1 C1 C2").events();
  MonitorOptions opts;
  opts.shards = 4;
  OnlineMonitor mon(opts);
  const auto out = mon.feed_batch(events.data(), events.size());
  EXPECT_TRUE(out.error.empty()) << out.error;
  EXPECT_EQ(mon.verdict(), Verdict::kNo);
  ASSERT_TRUE(mon.first_violation().has_value());
  EXPECT_EQ(*mon.first_violation(), 3u);
  EXPECT_EQ(out.consumed, 4u);
  EXPECT_EQ(mon.events_fed(), 4u);
}

TEST(MonitorShard, MalformedEventStopsTheBatchBeforeIt) {
  // Event index 2 repeats T1's read of X0: feed_batch must consume exactly
  // the two well-formed events, report the diagnostic, and stay usable.
  std::vector<Event> events = {Event::inv_read(1, 0),
                               Event::resp_read(1, 0, 0),
                               Event::inv_read(1, 0)};
  OnlineMonitor mon;
  const auto out = mon.feed_batch(events.data(), events.size());
  EXPECT_EQ(out.consumed, 2u);
  EXPECT_NE(out.error.find("repeated read"), std::string::npos) << out.error;
  EXPECT_EQ(mon.events_fed(), 2u);
  ASSERT_TRUE(mon.feed(Event::inv_tryc(1)).has_value());
}

}  // namespace
}  // namespace duo::monitor
