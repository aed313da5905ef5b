// The registry-driven conformance/safety matrix (experiments E11/E12/E15,
// generalized): every backend in the registry is exercised through recorded
// workloads and staged contention rounds, and its verdicts are checked
// against the DuExpectation it declares.
//
//   - kDuOpaque backends (TL2, NORec, TML, 2PL-Undo — both update
//     policies!): recorded histories must never be judged non-du-opaque,
//     under any of the six criteria, whether checked directly, through the
//     CheckerPool, or by the OnlineMonitor; workload invariants (counter
//     sums, bank audits) must hold.
//   - kNotDuOpaque backends (pessimistic, 2pl-undo-faulty, the TL2 fault
//     injections): at least one of the deterministic staged rounds must
//     produce a recording flagged by check_du_opacity, by the CheckerPool
//     and by the OnlineMonitor — the registry's declared expectation is
//     enforced, so a backend whose verdict drifts fails CI.
//
// A backend added to the registry is picked up here automatically.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "checker/engine.hpp"
#include "checker/pool.hpp"
#include "checker/verdict.hpp"
#include "history/printer.hpp"
#include "monitor/monitor.hpp"
#include "stm/registry.hpp"
#include "stm/workload.hpp"

namespace duo::stm {
namespace {

std::vector<BackendInfo> backends_with(DuExpectation expected) {
  std::vector<BackendInfo> out;
  for (const auto& b : registered_backends())
    if (b.expected == expected) out.push_back(b);
  return out;
}

checker::CheckResult check_recorded_du(const history::History& h) {
  checker::CheckOptions opts;
  opts.node_budget = 200'000'000;
  return checker::check_du_opacity(h, opts);
}

/// Monitor verdict for a finished recording (events replayed in order).
checker::Verdict monitor_verdict(const history::History& h) {
  monitor::OnlineMonitor mon;
  for (const auto& e : h.events()) {
    const auto fed = mon.feed(e);
    if (!fed.has_value()) ADD_FAILURE() << fed.error();
    if (mon.verdict() == checker::Verdict::kNo) break;  // latched
  }
  return mon.verdict();
}

// ---- Safe backends: recordings must never be flagged -----------------------

class SafeBackends : public ::testing::TestWithParam<BackendInfo> {};

TEST_P(SafeBackends, ContendedCountersRecordDuOpaqueHistories) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Recorder rec(1 << 17);
    auto stm = make_stm(GetParam().name, 2, &rec);
    ASSERT_NE(stm, nullptr);
    WorkloadOptions opts;
    opts.threads = 4;
    opts.txns_per_thread = 25;
    opts.ops_per_txn = 2;
    opts.seed = seed;
    const auto stats = run_counters(*stm, opts);
    EXPECT_TRUE(counters_sum_ok(*stm, stats));

    const auto h = rec.finish(stm->num_objects());
    const auto r = check_recorded_du(h);
    ASSERT_NE(r.verdict, checker::Verdict::kUnknown);
    EXPECT_TRUE(r.yes()) << GetParam().name << " seed " << seed << ":\n"
                         << r.explanation << "\n"
                         << history::summary(h);
  }
}

TEST_P(SafeBackends, RandomMixRecordsDuOpaqueHistories) {
  for (std::uint64_t seed = 10; seed <= 12; ++seed) {
    Recorder rec(1 << 16);
    auto stm = make_stm(GetParam().name, 4, &rec);
    ASSERT_NE(stm, nullptr);
    WorkloadOptions opts;
    opts.threads = 4;
    opts.txns_per_thread = 20;
    opts.ops_per_txn = 3;
    opts.write_fraction = 0.5;
    opts.zipf_theta = 0.9;
    opts.seed = seed;
    run_random_mix(*stm, opts);

    const auto h = rec.finish(stm->num_objects());
    const auto r = check_recorded_du(h);
    ASSERT_NE(r.verdict, checker::Verdict::kUnknown);
    EXPECT_TRUE(r.yes()) << GetParam().name << " seed " << seed;
    // Committed projection serializable as well.
    EXPECT_TRUE(checker::check_with_engine(
                    h, checker::Criterion::kStrictSerializability)
                    .yes());
  }
}

TEST_P(SafeBackends, RandomMixSatisfiesAllSixCriteria) {
  for (std::uint64_t seed = 10; seed <= 11; ++seed) {
    // Smaller run: opacity/TMS2 re-check every prefix, so the sweep cost
    // grows much faster with history length than the single du search.
    Recorder rec(1 << 14);
    auto stm = make_stm(GetParam().name, 3, &rec);
    ASSERT_NE(stm, nullptr);
    WorkloadOptions opts;
    opts.threads = 3;
    opts.txns_per_thread = 8;
    opts.ops_per_txn = 2;
    opts.write_fraction = 0.5;
    opts.seed = seed;
    run_random_mix(*stm, opts);

    const auto h = rec.finish(stm->num_objects());
    // The safe backends are expected to satisfy all six criteria, not just
    // du-opacity: du-opacity alone implies neither rco-opacity nor TMS2
    // (the paper's Figures 5 and 6), so each criterion is checked on its
    // own (budget-bound unknowns are tolerated, "no" never is).
    for (const auto criterion : checker::all_criteria()) {
      const auto r = checker::check_with_engine(h, criterion, 200'000'000);
      EXPECT_NE(r.verdict, checker::Verdict::kNo)
          << GetParam().name << " seed " << seed << " violates "
          << checker::to_string(criterion) << ": " << r.explanation;
    }
  }
}

TEST_P(SafeBackends, BankAuditsNeverBreakAndRecordDuOpaque) {
  Recorder rec(1 << 17);
  auto stm = make_stm(GetParam().name, 6, &rec);
  ASSERT_NE(stm, nullptr);
  WorkloadOptions opts;
  opts.threads = 4;
  opts.txns_per_thread = 20;
  opts.seed = 77;
  const auto stats = run_bank(*stm, opts, 100);
  EXPECT_EQ(stats.broken_audits, 0u)
      << GetParam().name << ": atomicity violated";
  const auto h = rec.finish(stm->num_objects());
  EXPECT_TRUE(check_recorded_du(h).yes()) << GetParam().name;
}

TEST_P(SafeBackends, AbortedTransactionsAppearAndAreHandled) {
  // Force aborts via extreme contention; the recorded history must contain
  // aborted transactions and still be du-opaque.
  Recorder rec(1 << 17);
  auto stm = make_stm(GetParam().name, 1, &rec);
  ASSERT_NE(stm, nullptr);
  WorkloadOptions opts;
  opts.threads = 8;
  opts.txns_per_thread = 15;
  opts.seed = 5;
  const auto stats = run_counters(*stm, opts);
  EXPECT_TRUE(counters_sum_ok(*stm, stats));
  const auto h = rec.finish(stm->num_objects());
  EXPECT_TRUE(check_recorded_du(h).yes()) << GetParam().name;
  RecordProperty("aborted_attempts", static_cast<int>(stats.aborted));
}

TEST_P(SafeBackends, PoolAndMonitorAgreeRecordingsAreClean) {
  std::vector<history::History> batch;
  for (std::uint64_t seed = 20; seed <= 22; ++seed) {
    Recorder rec(1 << 16);
    auto stm = make_stm(GetParam().name, 2, &rec);
    ASSERT_NE(stm, nullptr);
    WorkloadOptions opts;
    opts.threads = 3;
    opts.txns_per_thread = 10;
    opts.ops_per_txn = 2;
    opts.seed = seed;
    run_random_mix(*stm, opts);
    batch.push_back(rec.finish(stm->num_objects()));
  }
  checker::CheckerPool pool;
  for (const auto& r : pool.check_batch(batch))
    EXPECT_TRUE(r.yes()) << GetParam().name << ": " << r.explanation;
  for (const auto& h : batch)
    EXPECT_NE(monitor_verdict(h), checker::Verdict::kNo) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SafeBackends,
    ::testing::ValuesIn(backends_with(DuExpectation::kDuOpaque)),
    [](const ::testing::TestParamInfo<BackendInfo>& info) {
      return test_identifier(info.param);
    });

// ---- Unsafe backends: violations must exist and be caught ------------------

/// Staged round 1 — uncommitted read: T1 updates X0 in place, T2 reads it
/// and commits before T1 invokes tryC. Catches the direct-update designs
/// that expose writes early (pessimistic, 2pl-undo-faulty); lock-respecting
/// or deferred designs abort T2's read or serve the old value.
history::History round_uncommitted_read(Stm& stm, Recorder& rec) {
  auto t1 = stm.begin();
  auto ok = t1->write(0, 7);
  auto t2 = stm.begin();
  const auto leaked = t2->read(0);
  if (leaked.has_value() && !t2->finished()) t2->commit();
  if (ok && !t1->finished()) {
    if (t1->write(1, 8) && !t1->finished()) t1->commit();
  }
  return rec.finish(stm.num_objects());
}

/// Staged round 2 — doomed read: reader samples X0, a writer commits X0 and
/// X1, reader samples X1. Catches missing read validation (and the
/// pessimistic STM's unvalidated reads).
history::History round_doomed_read(Stm& stm, Recorder& rec) {
  auto reader = stm.begin();
  const auto x = reader->read(0);
  {
    auto writer = stm.begin();
    if (writer->write(0, 41) && !writer->finished() &&
        writer->write(1, 42) && !writer->finished())
      writer->commit();
  }
  if (x.has_value() && !reader->finished()) {
    const auto y = reader->read(1);
    if (y.has_value() && !reader->finished()) reader->commit();
  }
  return rec.finish(stm.num_objects());
}

/// Staged round 3 — lost update: both transactions read 0, both write, both
/// commit. Catches missing commit validation. (Sequenced so a blocking
/// backend never deadlocks: T1 fully finishes before T2's write.)
history::History round_lost_update(Stm& stm, Recorder& rec) {
  auto a = stm.begin();
  auto b = stm.begin();
  const auto va = a->read(0);
  const auto vb = b->read(0);
  if (va.has_value() && !a->finished()) {
    if (a->write(0, *va + 1) && !a->finished()) a->commit();
  }
  if (vb.has_value() && !b->finished()) {
    if (b->write(0, *vb + 1) && !b->finished()) b->commit();
  }
  return rec.finish(stm.num_objects());
}

class UnsafeBackends : public ::testing::TestWithParam<BackendInfo> {};

TEST_P(UnsafeBackends, SomeStagedRoundIsFlaggedByCheckerPoolAndMonitor) {
  std::vector<history::History> rounds;
  {
    Recorder rec(256);
    auto stm = make_stm(GetParam().name, 2, &rec);
    ASSERT_NE(stm, nullptr);
    rounds.push_back(round_uncommitted_read(*stm, rec));
  }
  {
    Recorder rec(256);
    auto stm = make_stm(GetParam().name, 2, &rec);
    ASSERT_NE(stm, nullptr);
    rounds.push_back(round_doomed_read(*stm, rec));
  }
  {
    Recorder rec(256);
    auto stm = make_stm(GetParam().name, 2, &rec);
    ASSERT_NE(stm, nullptr);
    rounds.push_back(round_lost_update(*stm, rec));
  }

  // The declared expectation: the backend's bug is real and every checking
  // front-end catches it on the same recording.
  int flagged_offline = 0, flagged_pool = 0, flagged_monitor = 0;
  checker::CheckerPool pool;
  const auto pool_results = pool.check_batch(rounds);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const bool offline_no = checker::check_du_opacity(rounds[i]).no();
    const bool pool_no = pool_results[i].no();
    const bool monitor_no =
        monitor_verdict(rounds[i]) == checker::Verdict::kNo;
    flagged_offline += offline_no;
    flagged_pool += pool_no;
    flagged_monitor += monitor_no;
    // The three front-ends must agree per recording.
    EXPECT_EQ(offline_no, pool_no)
        << GetParam().name << " round " << i << "\n"
        << history::compact(rounds[i]);
    EXPECT_EQ(offline_no, monitor_no)
        << GetParam().name << " round " << i << "\n"
        << history::compact(rounds[i]);
  }
  EXPECT_GT(flagged_offline, 0)
      << GetParam().name
      << ": declared kNotDuOpaque but no staged round was flagged";
  EXPECT_GT(flagged_pool, 0) << GetParam().name;
  EXPECT_GT(flagged_monitor, 0) << GetParam().name;
}

TEST_P(UnsafeBackends, WorkloadRecordingsAgreeAcrossFrontEnds) {
  // Free-running contended recordings may or may not violate (schedule-
  // dependent); what must hold is offline/monitor agreement.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    Recorder rec(1 << 15);
    auto stm = make_stm(GetParam().name, 2, &rec);
    ASSERT_NE(stm, nullptr);
    WorkloadOptions opts;
    opts.threads = 3;
    opts.txns_per_thread = 8;
    opts.ops_per_txn = 2;
    opts.write_fraction = 0.6;
    opts.seed = seed;
    run_random_mix(*stm, opts);
    const auto h = rec.finish(stm->num_objects());
    const auto offline = check_recorded_du(h);
    if (offline.verdict == checker::Verdict::kUnknown) continue;
    EXPECT_EQ(offline.verdict, monitor_verdict(h))
        << GetParam().name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, UnsafeBackends,
    ::testing::ValuesIn(backends_with(DuExpectation::kNotDuOpaque)),
    [](const ::testing::TestParamInfo<BackendInfo>& info) {
      return test_identifier(info.param);
    });

}  // namespace
}  // namespace duo::stm
