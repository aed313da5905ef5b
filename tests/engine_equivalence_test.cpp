// Engine equivalence property: on every history the polynomial GraphEngine
// claims (it declines rather than guess when a version order is genuinely
// under-determined), its verdict must equal the exponential DfsEngine's,
// for all six criteria — over random generator histories (including
// abort-heavy and commit-pending-heavy mixes and mutated near-misses), the
// unique-writes figures of the paper, and recordings from every STM backend
// in the registry. Every graph "yes" witness is additionally re-validated
// through the definition-based verifier (checker/legality.hpp), and the
// auto router must agree with the DFS on *all* inputs (a graph decline
// falls back, so routing never changes a verdict).
#include <gtest/gtest.h>

#include <string>

#include "checker/engine.hpp"
#include "checker/legality.hpp"
#include "checker/verdict.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "stm/recorder.hpp"
#include "stm/registry.hpp"
#include "stm/workload.hpp"
#include "util/rng.hpp"

namespace duo::checker {
namespace {

using history::History;

/// The definition-based rules a witness of row c over h must satisfy.
SerializationRules rules_for(Criterion c, const History& h) {
  const CriterionRow& row = criterion_row(c);
  SerializationRules rules;
  // A graph witness for opacity is a du witness (Theorem 11).
  rules.deferred_update = row.deferred_update || row.per_prefix;
  if (row.commit_edges != nullptr)
    rules.commit_edges = commit_pairs(row.commit_edges(h));
  return rules;
}

/// Compare graph vs DFS (and the auto router vs DFS) on one history for
/// every criterion. `require_decided` additionally asserts the graph engine
/// does not decline du-opacity — the acceptance bar for realistic
/// deferred-update traffic.
void expect_equivalent(const History& h, const std::string& context,
                       bool require_decided = false) {
  ASSERT_TRUE(h.has_unique_writes()) << context;
  for (const Criterion c : all_criteria()) {
    CheckOptions dfs_opts;
    dfs_opts.engine = EngineKind::kDfs;
    const CheckResult dfs = check_with_engine(h, c, dfs_opts);
    ASSERT_NE(dfs.verdict, Verdict::kUnknown)
        << context << " dfs exhausted its budget on a test-sized history";

    const CheckResult graph = graph_engine().check(h, c, CheckOptions{});
    if (graph.verdict != Verdict::kUnknown) {
      EXPECT_EQ(graph.verdict, dfs.verdict)
          << context << " criterion=" << to_string(c)
          << "\n  graph: " << graph.explanation
          << "\n  dfs:   " << dfs.explanation;
      if (graph.yes() && graph.witness.has_value()) {
        const History& target = criterion_row(c).committed_projection
                                    ? committed_projection(h)
                                    : h;
        const auto violations =
            verify_serialization(target, *graph.witness, rules_for(c, target));
        EXPECT_TRUE(violations.empty())
            << context << " criterion=" << to_string(c)
            << " graph witness invalid: "
            << (violations.empty() ? "" : violations.front());
      }
    } else if (require_decided && c == Criterion::kDuOpacity) {
      ADD_FAILURE() << context
                    << " graph engine declined du-opacity on realistic "
                       "deferred-update traffic: "
                    << graph.explanation;
    }

    // The auto router is the user-facing contract: always exact.
    const CheckResult routed = check_with_engine(h, c, CheckOptions{});
    EXPECT_EQ(routed.verdict, dfs.verdict)
        << context << " criterion=" << to_string(c)
        << " routed-by=" << routed.engine.engine;
  }
}

gen::GenOptions base_options() {
  gen::GenOptions opts;
  opts.num_txns = 7;
  opts.num_objects = 3;
  opts.unique_writes = true;
  return opts;
}

TEST(EngineEquivalence, RandomUniqueWriteHistories) {
  util::Xoshiro256 rng(2024);
  const gen::GenOptions opts = base_options();
  for (int i = 0; i < 150; ++i) {
    const History h = gen::random_history(opts, rng);
    expect_equivalent(h, "random seed-iter " + std::to_string(i));
  }
}

TEST(EngineEquivalence, DuConstructedHistories) {
  util::Xoshiro256 rng(7);
  const gen::GenOptions opts = base_options();
  for (int i = 0; i < 150; ++i) {
    const History h = gen::random_du_history(opts, rng);
    // Idealized deferred-update runs must be decided (not declined): the
    // canonical install-order chains are exactly the order the store
    // produced.
    expect_equivalent(h, "du-constructed iter " + std::to_string(i),
                      /*require_decided=*/true);
  }
}

TEST(EngineEquivalence, AbortHeavyMix) {
  util::Xoshiro256 rng(99);
  gen::GenOptions opts = base_options();
  opts.tryc_abort_prob = 0.55;
  opts.drop_last_response_prob = 0.15;
  for (int i = 0; i < 100; ++i) {
    const History h = gen::random_history(opts, rng);
    expect_equivalent(h, "abort-heavy iter " + std::to_string(i));
  }
}

TEST(EngineEquivalence, CommitPendingHeavyMix) {
  util::Xoshiro256 rng(1234);
  gen::GenOptions opts = base_options();
  opts.commit_pending_prob = 0.45;
  opts.leave_running_prob = 0.15;
  for (int i = 0; i < 100; ++i) {
    const History h = gen::random_history(opts, rng);
    expect_equivalent(h, "commit-pending iter " + std::to_string(i));
  }
}

TEST(EngineEquivalence, MutatedNearMisses) {
  util::Xoshiro256 rng(5150);
  const gen::GenOptions opts = base_options();
  for (int i = 0; i < 100; ++i) {
    History h = gen::random_du_history(opts, rng);
    for (int m = 0; m < 2; ++m) h = gen::mutate(h, rng);
    if (!h.has_unique_writes()) continue;  // a mutation may touch no write
    expect_equivalent(h, "mutated iter " + std::to_string(i));
  }
}

TEST(EngineEquivalence, UniqueWriteFigures) {
  // The paper's figures that satisfy unique writes sit exactly on the
  // criteria boundaries: fig2 (du-opaque with a forced commit-pending
  // writer), fig3 (final-state opaque but not opaque/du-opaque), fig6
  // (du-opaque but not TMS2).
  expect_equivalent(history::figures::fig2(5), "fig2(5)");
  expect_equivalent(history::figures::fig3(), "fig3");
  expect_equivalent(history::figures::fig3_prefix(), "fig3-prefix");
  expect_equivalent(history::figures::fig6(), "fig6");
}

TEST(EngineEquivalence, DeterministicLiveRun) {
  const History h = gen::deterministic_live_run(600, 4, 8);
  expect_equivalent(h, "deterministic-live-run", /*require_decided=*/true);
}

/// Registry-parameterized: every backend's recording (the realistic input
/// class) must be judged identically by both engines.
class EngineEquivalenceRegistry
    : public ::testing::TestWithParam<stm::BackendInfo> {};

TEST_P(EngineEquivalenceRegistry, RecordedRunsMatch) {
  stm::Recorder rec(1 << 15);
  auto stm = stm::make_stm(GetParam().name, 4, &rec);
  ASSERT_NE(stm, nullptr);
  stm::WorkloadOptions opts;
  opts.threads = 2;
  opts.txns_per_thread = 6;
  opts.objects = 4;
  opts.ops_per_txn = 3;
  opts.seed = 7;
  stm::run_random_mix(*stm, opts);
  const History h = rec.finish(stm->num_objects());
  ASSERT_TRUE(h.has_unique_writes())
      << "run_random_mix recordings are unique-writes by construction";
  expect_equivalent(h, "backend " + GetParam().name,
                    /*require_decided=*/!GetParam().fault_injected);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineEquivalenceRegistry,
    ::testing::ValuesIn(stm::registered_backends()),
    [](const ::testing::TestParamInfo<stm::BackendInfo>& info) {
      return stm::test_identifier(info.param);
    });

}  // namespace
}  // namespace duo::checker
