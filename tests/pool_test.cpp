// CheckerPool and explore_all_parallel: the parallel paths must produce
// verdicts (and reports) identical to the serial path for every thread
// count — determinism is part of the contract, not an accident.
#include <gtest/gtest.h>

#include <vector>

#include "checker/engine.hpp"
#include "checker/pool.hpp"
#include "gen/generator.hpp"
#include "history/parser.hpp"
#include "stm/explorer.hpp"
#include "stm/tl2.hpp"

namespace duo::checker {
namespace {

/// A mixed corpus: du-opaque-by-construction histories, their mutations
/// (some violating), and the paper's figures.
std::vector<history::History> corpus() {
  std::vector<history::History> hs;
  util::Xoshiro256 rng(20260729);
  gen::GenOptions opts;
  opts.num_txns = 5;
  opts.num_objects = 3;
  for (int i = 0; i < 12; ++i) {
    auto h = gen::random_du_history(opts, rng);
    hs.push_back(gen::mutate(h, rng));
    hs.push_back(std::move(h));
  }
  // The paper's Figure 3 (du-violating) and its du-opaque repair.
  hs.push_back(history::parse_history_or_die("W1(X0,1) R2(X0)=1 C1 C2"));
  hs.push_back(history::parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2"));
  return hs;
}

void expect_same(const CheckResult& a, const CheckResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.explanation, b.explanation);
  ASSERT_EQ(a.witness.has_value(), b.witness.has_value());
  if (a.witness.has_value()) {
    EXPECT_EQ(a.witness->order, b.witness->order);
    EXPECT_TRUE(a.witness->committed == b.witness->committed);
  }
}

TEST(CheckerPool, MatchesSerialCheckerAcrossThreadCounts) {
  const auto hs = corpus();
  std::vector<CheckResult> reference;
  reference.reserve(hs.size());
  for (const auto& h : hs) reference.push_back(check_du_opacity(h));

  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    PoolOptions popts;
    popts.num_threads = threads;
    CheckerPool pool(popts);
    EXPECT_EQ(pool.num_threads(), threads);
    const auto results = pool.check_batch(hs);
    ASSERT_EQ(results.size(), hs.size());
    for (std::size_t i = 0; i < hs.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " history=" << i);
      expect_same(results[i], reference[i]);
    }
  }
}

TEST(CheckerPool, EmptyBatch) {
  CheckerPool pool;
  EXPECT_TRUE(pool.check_batch({}).empty());
}

TEST(CheckerPool, MoreThreadsThanWork) {
  PoolOptions popts;
  popts.num_threads = 16;
  CheckerPool pool(popts);
  std::vector<history::History> hs;
  hs.push_back(history::parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2"));
  const auto results = pool.check_batch(hs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].yes());
}

TEST(CheckerPool, BudgetExhaustionSurvivesThePool) {
  PoolOptions popts;
  popts.num_threads = 2;
  popts.check.node_budget = 1;  // starve the search
  CheckerPool pool(popts);
  std::vector<history::History> hs;
  util::Xoshiro256 rng(7);
  gen::GenOptions opts;
  opts.num_txns = 8;
  hs.push_back(gen::random_du_history(opts, rng));
  const auto results = pool.check_batch(hs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].verdict, Verdict::kUnknown);
}

TEST(CheckerPool, ZeroMeansHardwareConcurrency) {
  CheckerPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

// ---- explore_all_parallel ---------------------------------------------------

stm::ExplorerOptions tl2_options(stm::Tl2Options stm_opts = {}) {
  stm::ExplorerOptions opts;
  opts.make_stm = [stm_opts](stm::ObjId n, stm::Recorder* r) {
    return std::make_unique<stm::Tl2Stm>(n, r, stm_opts);
  };
  return opts;
}

void expect_same_report(const stm::ExplorerReport& a,
                        const stm::ExplorerReport& b) {
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.schedule_cap_hit, b.schedule_cap_hit);
  EXPECT_EQ(a.du_violations, b.du_violations);
  EXPECT_EQ(a.unknown, b.unknown);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
  ASSERT_EQ(a.first_violation.has_value(), b.first_violation.has_value());
  if (a.first_violation.has_value()) {
    EXPECT_TRUE(a.first_violation->equivalent_to(*b.first_violation));
  }
}

TEST(ExploreAllParallel, CleanSweepMatchesSerial) {
  const stm::Program writer{stm::ProgramOp::write(0, 5),
                            stm::ProgramOp::write(1, 6)};
  const stm::Program reader{stm::ProgramOp::read(0), stm::ProgramOp::read(1)};
  const auto serial = stm::explore_interleavings({writer, reader},
                                                 tl2_options());
  EXPECT_EQ(serial.du_violations, 0u);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    SCOPED_TRACE(threads);
    const auto parallel =
        stm::explore_all_parallel({writer, reader}, tl2_options(), threads);
    expect_same_report(serial, parallel);
  }
}

TEST(ExploreAllParallel, FaultySweepFindsTheSameFirstViolation) {
  stm::Tl2Options faulty;
  faulty.faulty_skip_read_validation = true;
  const stm::Program writer{stm::ProgramOp::write(0, 5),
                            stm::ProgramOp::write(1, 6)};
  const stm::Program reader{stm::ProgramOp::read(0), stm::ProgramOp::read(1)};
  const auto serial =
      stm::explore_interleavings({writer, reader}, tl2_options(faulty));
  ASSERT_GT(serial.du_violations, 0u);
  ASSERT_TRUE(serial.first_violation.has_value());
  for (const std::size_t threads : {2u, 4u, 7u}) {
    SCOPED_TRACE(threads);
    const auto parallel = stm::explore_all_parallel(
        {writer, reader}, tl2_options(faulty), threads);
    expect_same_report(serial, parallel);
  }
}

TEST(ExploreAllParallel, ScheduleCapIsDeterministicAcrossThreadCounts) {
  auto opts = tl2_options();
  opts.max_schedules = 7;
  const stm::Program p{stm::ProgramOp::read(0), stm::ProgramOp::write(0, 1)};
  const auto serial = stm::explore_interleavings({p, p}, opts);
  EXPECT_EQ(serial.schedules, 7u);
  EXPECT_EQ(serial.schedule_cap_hit, 1u);
  for (const std::size_t threads : {2u, 3u}) {
    SCOPED_TRACE(threads);
    expect_same_report(serial, stm::explore_all_parallel({p, p}, opts,
                                                         threads));
  }
}

TEST(ExploreAllParallel, MoreThreadsThanSchedules) {
  const stm::Program p{stm::ProgramOp::read(0)};
  const auto report = stm::explore_all_parallel({p}, tl2_options(), 8);
  EXPECT_EQ(report.schedules, 1u);
  EXPECT_EQ(report.committed, 1u);
}

}  // namespace
}  // namespace duo::checker
