// Tests for the serialization search engine, cross-checked against the
// brute-force oracle on randomized small histories (the oracle enumerates
// every permutation and completion and validates with the definition-level
// verifier — a fully independent implementation path).
#include <gtest/gtest.h>

#include "checker/legality.hpp"
#include "checker/oracle.hpp"
#include "checker/search.hpp"
#include "gen/generator.hpp"
#include "history/builder.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"

namespace duo::checker {
namespace {

using gen::GenOptions;
using history::HistoryBuilder;

TEST(Search, EmptyHistoryIsSerializable) {
  const History h = std::move(History::make({}, 1)).value_or_die();
  const auto r = find_serialization(h, {});
  EXPECT_TRUE(r.found());
  EXPECT_TRUE(r.witness->order.empty());
}

TEST(Search, SingleCommittedTransaction) {
  const History h = HistoryBuilder(1).write(1, 0, 1).tryc(1).build();
  const auto r = find_serialization(h, {});
  ASSERT_TRUE(r.found());
  EXPECT_TRUE(r.witness->committed.test(0));
}

TEST(Search, ObviouslyIllegalReadRejected) {
  const History h = HistoryBuilder(1).read(1, 0, 42).tryc(1).build();
  EXPECT_EQ(find_serialization(h, {}).outcome, Outcome::kNotSerializable);
}

TEST(Search, CommitPendingDecisionExplored) {
  // read2(X)=1 is only legal if the pending T1 is completed with C1.
  const History h = HistoryBuilder(1)
                        .write(1, 0, 1)
                        .inv_tryc(1)
                        .read(2, 0, 1)
                        .tryc(2)
                        .build();
  const auto r = find_serialization(h, {});
  ASSERT_TRUE(r.found());
  EXPECT_TRUE(r.witness->committed.test(h.tix_of(1)));
}

TEST(Search, CommitPendingCanAlsoAbort) {
  // read2(X)=0 requires the pending T1 to NOT take effect.
  const History h = HistoryBuilder(1)
                        .write(1, 0, 1)
                        .inv_tryc(1)
                        .read(2, 0, 0)
                        .tryc(2)
                        .build();
  const auto r = find_serialization(h, {});
  ASSERT_TRUE(r.found());
  // Either T1 aborts, or T1 commits and serializes after T2.
  const auto pos = r.witness->positions();
  if (r.witness->committed.test(h.tix_of(1))) {
    EXPECT_GT(pos[h.tix_of(1)], pos[h.tix_of(2)]);
  }
}

TEST(Search, BudgetExhaustionReported) {
  GenOptions opts;
  opts.num_txns = 10;
  opts.num_objects = 2;
  util::Xoshiro256 rng(99);
  const History h = gen::random_history(opts, rng);
  SearchOptions so;
  so.node_budget = 1;
  const auto r = find_serialization(h, so);
  // With a one-node budget only trivial outcomes can complete.
  EXPECT_TRUE(r.outcome == Outcome::kBudgetExhausted ||
              r.stats.nodes <= 1);
}

TEST(Search, DeepGreedyChainDoesNotRecursePerPlacement) {
  // Regression for a stack overflow surfaced by the asan-ubsan CI job on
  // stm_conformance_test: a contended recorded history is dominated by
  // aborted attempts, every one of which is an effect-free greedy
  // placement, and the search used to recurse once per placement —
  // thousands of frames, overflowing the stack under ASan's enlarged
  // frames (the old recursion died below 2000 frames with
  // detect_stack_use_after_return=1). The greedy chain is now a loop; this
  // history (6k sequential aborted attempts between a committed writer and
  // its reader) previously recursed 6k deep and must complete in two
  // frames.
  constexpr history::TxnId kAborted = 6000;
  HistoryBuilder b(1);
  b.write(1, 0, 7).tryc(1);
  for (history::TxnId t = 2; t < 2 + kAborted; ++t)
    b.write(t, 0, 99).tryc_aborts(t);
  const history::TxnId reader = 2 + kAborted;
  b.read(reader, 0, 7).tryc(reader);
  const History h = b.build();
  const auto r = find_serialization(h, {});
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.witness->order.size(), h.num_txns());
  EXPECT_TRUE(r.witness->committed.test(h.tix_of(1)));
  EXPECT_TRUE(r.witness->committed.test(h.tix_of(reader)));
}

TEST(Search, ExtraEdgeMakesUnsatisfiable) {
  // Legality forces T1 (writer of the value read) before T2; an extra edge
  // T2 -> T1 contradicts it.
  const History h = HistoryBuilder(1)
                        .inv_write(1, 0, 1)
                        .inv_read(2, 0)
                        .resp_write(1, 0)
                        .inv_tryc(1)
                        .resp_commit(1)
                        .resp_read(2, 0, 1)
                        .tryc(2)
                        .build();
  SearchOptions so;
  EXPECT_TRUE(find_serialization(h, so).found());
  so.extra_edges = {{h.tix_of(2), h.tix_of(1)}};
  EXPECT_EQ(find_serialization(h, so).outcome, Outcome::kNotSerializable);
}

TEST(Search, ExtraEdgeAgainstRealTimeOrderIsUnsatisfiable) {
  // T1 ≺RT T2 ≺RT T3 with no reads, so only precedence constrains the
  // order: an extra edge along real time is harmless, one against it
  // closes a cycle through the completion chain.
  const History h = history::parse_history_or_die(
      "W1(X0,1) C1 W2(X0,2) C2 W3(X1,3) C3");
  const auto t1 = h.tix_of(1), t3 = h.tix_of(3);
  for (const bool pre_pass : {false, true}) {
    SearchOptions so;
    so.use_fast_reject = pre_pass;
    so.extra_edges = {{t1, t3}};
    const auto along = find_serialization(h, so);
    ASSERT_TRUE(along.found()) << pre_pass;
    EXPECT_EQ(along.witness->order, (std::vector<std::size_t>{0, 1, 2}));
    so.extra_edges = {{t3, t1}};
    const auto against = find_serialization(h, so);
    EXPECT_EQ(against.outcome, Outcome::kNotSerializable) << pre_pass;
    EXPECT_EQ(against.stats.fast_rejected, pre_pass);
  }
}

struct SearchVsOracleCase {
  std::uint64_t seed;
  bool du;
  bool du_generator;
};

class SearchVsOracle : public ::testing::TestWithParam<SearchVsOracleCase> {};

TEST_P(SearchVsOracle, AgreeOnRandomHistories) {
  const auto param = GetParam();
  util::Xoshiro256 rng(param.seed);
  GenOptions opts;
  opts.num_txns = 5;
  opts.num_objects = 2;
  opts.max_ops = 3;
  opts.value_range = 2;  // duplicates likely: stresses non-unique writes

  for (int iter = 0; iter < 40; ++iter) {
    const History h = param.du_generator ? gen::random_du_history(opts, rng)
                                         : gen::random_history(opts, rng);
    SearchOptions so;
    so.deferred_update = param.du;
    const auto engine = find_serialization(h, so);
    ASSERT_NE(engine.outcome, Outcome::kBudgetExhausted);

    SerializationRules rules;
    rules.deferred_update = param.du;
    const auto oracle = brute_force_search(h, rules);

    EXPECT_EQ(engine.found(), oracle.serializable)
        << "seed=" << param.seed << " iter=" << iter << "\n"
        << history::compact(h);
    if (engine.found()) {
      EXPECT_TRUE(verify_serialization(h, *engine.witness, rules).empty())
          << history::compact(h);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SearchVsOracle,
    ::testing::Values(SearchVsOracleCase{101, false, false},
                      SearchVsOracleCase{102, false, true},
                      SearchVsOracleCase{103, true, false},
                      SearchVsOracleCase{104, true, true},
                      SearchVsOracleCase{105, true, false},
                      SearchVsOracleCase{106, false, false},
                      SearchVsOracleCase{107, true, true},
                      SearchVsOracleCase{108, false, true}),
    [](const ::testing::TestParamInfo<SearchVsOracleCase>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.du ? "_du" : "_fso") +
             (info.param.du_generator ? "_dugen" : "_rand");
    });

TEST(SearchVsOracle, MutatedHistoriesAgree) {
  util::Xoshiro256 rng(555);
  GenOptions opts;
  opts.num_txns = 5;
  opts.num_objects = 2;
  for (int iter = 0; iter < 60; ++iter) {
    History h = gen::random_du_history(opts, rng);
    h = gen::mutate(h, rng);
    for (const bool du : {false, true}) {
      SearchOptions so;
      so.deferred_update = du;
      const auto engine = find_serialization(h, so);
      ASSERT_NE(engine.outcome, Outcome::kBudgetExhausted);
      SerializationRules rules;
      rules.deferred_update = du;
      const auto oracle = brute_force_search(h, rules);
      EXPECT_EQ(engine.found(), oracle.serializable)
          << "iter=" << iter << " du=" << du << "\n" << history::compact(h);
    }
  }
}

TEST(Search, MemoizationPreservesVerdicts) {
  util::Xoshiro256 rng(777);
  GenOptions opts;
  opts.num_txns = 7;
  opts.num_objects = 3;
  for (int iter = 0; iter < 30; ++iter) {
    const History h = gen::random_history(opts, rng);
    SearchOptions with, without;
    with.deferred_update = without.deferred_update = (iter % 2 == 0);
    with.memoize = true;
    without.memoize = false;
    const auto a = find_serialization(h, with);
    const auto b = find_serialization(h, without);
    ASSERT_NE(a.outcome, Outcome::kBudgetExhausted);
    EXPECT_EQ(a.found(), b.found()) << history::compact(h);
  }
}

TEST(Search, HeuristicOffPreservesVerdicts) {
  util::Xoshiro256 rng(888);
  GenOptions opts;
  opts.num_txns = 6;
  opts.num_objects = 2;
  for (int iter = 0; iter < 30; ++iter) {
    const History h = gen::random_du_history(opts, rng);
    SearchOptions a, b;
    a.deferred_update = b.deferred_update = true;
    b.commit_order_heuristic = false;
    EXPECT_EQ(find_serialization(h, a).found(),
              find_serialization(h, b).found());
  }
}

TEST(Oracle, CountsCandidates) {
  const History h = history::figures::fig6();
  SerializationRules rules;
  const auto r = brute_force_search(h, rules);
  EXPECT_TRUE(r.serializable);
  EXPECT_GE(r.candidates_tried, 1u);
}

}  // namespace
}  // namespace duo::checker
