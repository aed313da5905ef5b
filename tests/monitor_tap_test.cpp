// Concurrent monitoring: a RecorderTap drains Recorder slots and drives an
// OnlineMonitor while the workload threads are still running. The final
// verdict must match the offline checker on the finished recording, the tap
// must consume exactly the events finish() sees, and the whole arrangement
// must be data-race-free (this test is part of the ThreadSanitizer CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "checker/engine.hpp"
#include "monitor/monitor.hpp"
#include "monitor/tap.hpp"
#include "stm/norec.hpp"
#include "stm/registry.hpp"
#include "stm/tl2.hpp"
#include "stm/workload.hpp"
#include "util/threading.hpp"

namespace duo::monitor {
namespace {

using checker::Verdict;

struct TapRun {
  Verdict verdict = Verdict::kUnknown;
  Verdict qualified = Verdict::kUnknown;
  bool overflowed = false;
  std::size_t fed = 0;
  history::History recording;
  MonitorStats stats;
};

TapRun run_with_tap(stm::Stm& s, stm::Recorder& rec,
                    const stm::WorkloadOptions& wopts) {
  OnlineMonitor mon;
  RecorderTap tap(rec, mon);
  std::atomic<bool> done{false};
  util::ScopedThread workload([&] {
    stm::run_random_mix(s, wopts);
    done.store(true, std::memory_order_release);
  });
  tap.pump(done);
  workload.join();
  return TapRun{mon.verdict(),    tap.qualified_verdict(),
                tap.overflowed(), tap.position(),
                rec.finish(s.num_objects()), mon.stats()};
}

/// The registry-parameterized live matrix: every backend — deferred,
/// direct, and fault-injected — is run under the tap, and the concurrent
/// verdict must match the offline checker on the finished recording. Safe
/// (kDuOpaque) backends must additionally never be flagged.
class TapOverRegistry : public ::testing::TestWithParam<stm::BackendInfo> {};

TEST_P(TapOverRegistry, LiveVerdictAgreesWithOffline) {
  for (const std::uint64_t seed : {1ull, 2026ull}) {
    stm::Recorder rec(1 << 14);
    auto s = stm::make_stm(GetParam().name, 3, &rec);
    ASSERT_NE(s, nullptr);
    stm::WorkloadOptions wopts;
    wopts.threads = 3;
    wopts.txns_per_thread = 10;
    wopts.ops_per_txn = 2;
    wopts.objects = 3;
    wopts.write_fraction = 0.6;
    wopts.seed = seed;
    const auto run = run_with_tap(*s, rec, wopts);
    EXPECT_EQ(run.fed, run.recording.size());
    EXPECT_EQ(run.fed, rec.count());
    // The recorder is sized for the run, so the qualified verdict is the
    // raw one.
    EXPECT_FALSE(run.overflowed);
    EXPECT_EQ(run.qualified, run.verdict);
    const auto offline = checker::check_du_opacity(run.recording);
    EXPECT_EQ(run.verdict, offline.verdict)
        << GetParam().name << " seed " << seed;
    if (GetParam().expected == stm::DuExpectation::kDuOpaque) {
      EXPECT_NE(run.verdict, Verdict::kNo)
          << GetParam().name << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, TapOverRegistry,
    ::testing::ValuesIn(stm::registered_backends()),
    [](const ::testing::TestParamInfo<stm::BackendInfo>& info) {
      return stm::test_identifier(info.param);
    });

TEST(RecorderTap, ConcurrentNorecRunStaysOnFastPathMostly) {
  stm::Recorder rec(1 << 14);
  stm::NorecStm s(4, &rec);
  stm::WorkloadOptions wopts;
  wopts.threads = 2;
  wopts.txns_per_thread = 25;
  wopts.ops_per_txn = 2;
  wopts.objects = 4;
  wopts.seed = 7;
  const auto run = run_with_tap(s, rec, wopts);
  EXPECT_EQ(run.verdict, Verdict::kYes);
  // The point of the subsystem: checking cost scales with events fed, so
  // the vast majority of events must resolve on the incremental graph, not
  // through the bounded fallback.
  EXPECT_EQ(run.stats.events, run.fed);
  EXPECT_EQ(run.stats.fast_yes + run.stats.full_checks, run.stats.events);
  EXPECT_LE(run.stats.full_checks, run.stats.events / 10);
}

TEST(RecorderTap, OverflowTruncatesTheTapAndPoisonsCleanVerdicts) {
  // A recorder too small for the run: the tap must stop at capacity, the
  // monitor verdict must match the offline verdict on the truncated
  // prefix, and — the correctness point — a clean verdict must surface as
  // kUnknown through qualified_verdict(): the dropped tail was never
  // checked, so "yes on the prefix" is not a verdict on the run. A latched
  // kNo stays kNo (prefix closure covers the tail).
  stm::Recorder rec(64);
  stm::Tl2Stm s(2, &rec);
  stm::WorkloadOptions wopts;
  wopts.threads = 2;
  wopts.txns_per_thread = 20;
  wopts.ops_per_txn = 2;
  wopts.objects = 2;
  wopts.seed = 42;
  const auto run = run_with_tap(s, rec, wopts);
  EXPECT_TRUE(rec.overflowed());
  EXPECT_TRUE(run.overflowed);
  EXPECT_EQ(rec.count(), rec.capacity());
  EXPECT_EQ(run.fed, rec.capacity());
  EXPECT_EQ(run.recording.size(), rec.capacity());
  const auto offline = checker::check_du_opacity(run.recording);
  EXPECT_EQ(run.verdict, offline.verdict);
  if (run.verdict == Verdict::kYes)
    EXPECT_EQ(run.qualified, Verdict::kUnknown);
  else
    EXPECT_EQ(run.qualified, run.verdict);
}

}  // namespace
}  // namespace duo::monitor
