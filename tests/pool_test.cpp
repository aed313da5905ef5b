// CheckerPool: the parallel path must produce verdicts identical to the
// serial path for every thread count — determinism is part of the contract,
// not an accident.
#include <gtest/gtest.h>

#include <vector>

#include "checker/engine.hpp"
#include "checker/pool.hpp"
#include "gen/generator.hpp"
#include "history/parser.hpp"

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

}  // namespace
}  // namespace duo::checker
