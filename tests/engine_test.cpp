// Unit tests for the engine layer: routing policy, forced engines, the
// engine trace surfaced through CheckResult, graph-engine witnesses and
// rejection explanations, and the SearchOptions memo cap.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/graph_engine.hpp"
#include "checker/legality.hpp"
#include "checker/search.hpp"
#include "checker/verdict.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"
#include "util/rng.hpp"

namespace duo::checker {
namespace {

using history::History;

History parse(const std::string& text) {
  return history::parse_history_or_die(text);
}

TEST(EngineRouting, AutoPicksGraphForUniqueWrites) {
  const History h = parse("W1(X0,1) C1 R2(X0)=1 C2");
  ASSERT_TRUE(h.has_unique_writes());
  const EngineChoice choice = select_engine(h, Criterion::kDuOpacity, {});
  EXPECT_EQ(choice.engine, &graph_engine());
  const CheckResult r = check_du_opacity(h);
  EXPECT_EQ(r.verdict, Verdict::kYes);
  EXPECT_EQ(r.engine.engine, "graph");
  EXPECT_GT(r.engine.graph_nodes, 0u);
  EXPECT_GT(r.engine.graph_edges, 0u);
}

TEST(FirstBadPrefix, PinpointsTheShortestRejectedPrefix) {
  // Figure 3's shape: the prefix becomes non-du-opaque at the 4th event
  // (T2's read response, 0-based index 3) — no can-commit writer of the
  // value exists in that prefix.
  const History h = parse("W1(X0,1) R2(X0)=1 C1 C2");
  const auto at = first_bad_prefix(h, Criterion::kDuOpacity, {});
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(*at, 3u);
  // Every prefix up to the index is accepted; from it on, rejected
  // (prefix closure — what makes the binary search sound).
  for (std::size_t n = 0; n <= h.size(); ++n) {
    const auto r = check_du_opacity(h.prefix(n));
    EXPECT_EQ(r.verdict, n <= *at ? Verdict::kYes : Verdict::kNo) << n;
  }
}

TEST(FirstBadPrefix, AcceptedHistoriesHaveNone) {
  EXPECT_FALSE(first_bad_prefix(parse("W1(X0,1) C1 R2(X0)=1 C2"),
                                Criterion::kDuOpacity, {})
                   .has_value());
  EXPECT_FALSE(
      first_bad_prefix(parse(""), Criterion::kDuOpacity, {}).has_value());
}

TEST(FirstBadPrefixDeathTest, RejectsANonPrefixClosedCriterion) {
  // Final-state opacity is not prefix-closed (Figure 3), so a binary search
  // over its prefixes would be unsound: a contract failure, not an answer.
  EXPECT_DEATH(
      (void)first_bad_prefix(history::figures::fig3_prefix(),
                             Criterion::kFinalStateOpacity, {}),
      "prefix_closed");
}

TEST(FirstBadPrefix, RunsAtGraphEngineSpeedOnUniqueWrites) {
  // A violation planted at the end of a long unique-writes history: the
  // binary search must find its exact index through graph-engine probes
  // (forced kGraph, so a DFS would be impossible to hide).
  const History ok = gen::deterministic_live_run(4'000, 4, 8);
  std::vector<history::Event> events = ok.events();
  const history::TxnId fresh = 1 << 20;
  events.push_back(history::Event::inv_read(fresh, 0));
  events.push_back(history::Event::resp_read(fresh, 0, 987654321));
  auto made = History::make(std::move(events), ok.num_objects());
  ASSERT_TRUE(made.has_value());
  const History h = std::move(made).take();
  CheckOptions opts;
  opts.engine = EngineKind::kGraph;
  const auto at = first_bad_prefix(h, Criterion::kDuOpacity, opts);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(*at, h.size() - 1);  // the planted read response
}

TEST(EngineRouting, AutoPicksDfsWithoutUniqueWrites) {
  // Two writers of the same (object, value): fig1's defining feature.
  const History h = history::figures::fig1();
  ASSERT_FALSE(h.has_unique_writes());
  const EngineChoice choice = select_engine(h, Criterion::kDuOpacity, {});
  EXPECT_EQ(choice.engine, &dfs_engine());
  const CheckResult r = check_du_opacity(h);
  EXPECT_EQ(r.verdict, Verdict::kYes);
  EXPECT_EQ(r.engine.engine, "dfs");
}

TEST(EngineRouting, ForcedGraphOnUnsupportedInputReportsUnknown) {
  CheckOptions opts;
  opts.engine = EngineKind::kGraph;
  const CheckResult r = check_du_opacity(history::figures::fig1(), opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_NE(r.explanation.find("unique-writes"), std::string::npos);
}

TEST(EngineRouting, ForcedDfsBypassesGraph) {
  const History h = parse("W1(X0,1) C1 R2(X0)=1 C2");
  CheckOptions opts;
  opts.engine = EngineKind::kDfs;
  const CheckResult r = check_du_opacity(h, opts);
  EXPECT_EQ(r.verdict, Verdict::kYes);
  EXPECT_EQ(r.engine.engine, "dfs");
  EXPECT_GT(r.stats.nodes, 0u);  // the search actually ran
}

TEST(EngineRouting, EngineNamesRoundTrip) {
  for (const EngineKind k :
       {EngineKind::kAuto, EngineKind::kGraph, EngineKind::kDfs})
    EXPECT_EQ(engine_from_name(to_string(k)), k);
  EXPECT_FALSE(engine_from_name("quantum").has_value());
}

TEST(GraphEngine, WitnessIsAValidDuSerialization) {
  const History h = gen::deterministic_live_run(600, 4, 8);
  CheckOptions opts;
  opts.engine = EngineKind::kGraph;
  const CheckResult r = check_du_opacity(h, opts);
  ASSERT_EQ(r.verdict, Verdict::kYes);
  ASSERT_TRUE(r.witness.has_value());
  SerializationRules rules;
  rules.deferred_update = true;
  const auto violations = verify_serialization(h, *r.witness, rules);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(GraphEngine, RejectsImpossibleReadWithExplanation) {
  const History h = parse("W1(X0,1) C1 R2(X0)=9 C2");
  CheckOptions opts;
  opts.engine = EngineKind::kGraph;
  const CheckResult r = check_du_opacity(h, opts);
  EXPECT_EQ(r.verdict, Verdict::kNo);
  EXPECT_TRUE(r.stats.fast_rejected);
  EXPECT_NE(r.explanation.find("no transaction that can commit"),
            std::string::npos);
}

TEST(GraphEngine, RejectsDeferredUpdateTimingViolation) {
  // T2 reads T1's value before tryC1 is invoked: fine for final-state
  // opacity, a Def. 3(3) violation for du-opacity.
  const History h = parse("W1?(X0,1) R2(X0)=1 W1!(X0) C1 C2");
  CheckOptions opts;
  opts.engine = EngineKind::kGraph;
  EXPECT_EQ(check_with_engine(h, Criterion::kFinalStateOpacity, opts).verdict,
            Verdict::kYes);
  const CheckResult du = check_du_opacity(h, opts);
  EXPECT_EQ(du.verdict, Verdict::kNo);
  EXPECT_NE(du.explanation.find("deferred-update"), std::string::npos);
}

TEST(GraphEngine, OpacityRoutesThroughTheorem11) {
  // fig3 is unique-writes, final-state opaque, but not opaque (and hence
  // not du-opaque) — the graph engine must separate the two criteria.
  const History h = history::figures::fig3();
  CheckOptions opts;
  opts.engine = EngineKind::kGraph;
  EXPECT_EQ(check_with_engine(h, Criterion::kFinalStateOpacity, opts).verdict,
            Verdict::kYes);
  EXPECT_EQ(check_with_engine(h, Criterion::kOpacity, opts).verdict,
            Verdict::kNo);
}

TEST(GraphEngine, ForcedCommitPendingWriterCommitsInWitness) {
  // fig2: T1 is commit-pending and T2 reads its value, so every completion
  // must commit T1; readers of the initial value serialize before it.
  const History h = history::figures::fig2(5);
  CheckOptions opts;
  opts.engine = EngineKind::kGraph;
  const CheckResult r = check_du_opacity(h, opts);
  ASSERT_EQ(r.verdict, Verdict::kYes);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(r.witness->committed.test(h.tix_of(1)));
}

TEST(GraphEngine, StaleReadRejectedBeyondSaturationBounds) {
  // A stale read planted at the end of a long history: the reader returns
  // the first committed version of an object after thousands of later
  // writers committed. Real-time order alone forces the contradiction, and
  // the graph engine must find it without search at a scale far beyond its
  // Tier-B saturation caps (and must not decline).
  const History ok = gen::deterministic_live_run(20'000, 4, 8);
  // First observed non-initial version: its writer is long superseded by
  // the end of the run.
  history::Value stale = 0;
  history::ObjId stale_obj = 0;
  for (const auto& e : ok.events()) {
    if (e.is_response() && e.op == history::OpKind::kRead && !e.aborted &&
        e.value != 0) {
      stale = e.value;
      stale_obj = e.obj;
      break;
    }
  }
  ASSERT_NE(stale, 0);
  std::vector<history::Event> events = ok.events();
  const history::TxnId fresh = 1 << 20;
  events.push_back(history::Event::inv_read(fresh, stale_obj));
  events.push_back(history::Event::resp_read(fresh, stale_obj, stale));
  events.push_back(history::Event::inv_tryc(fresh));
  events.push_back(history::Event::resp_commit(fresh));
  auto made = History::make(std::move(events), ok.num_objects());
  ASSERT_TRUE(made.has_value());
  const History h = std::move(made).take();

  CheckOptions opts;
  opts.engine = EngineKind::kGraph;
  const CheckResult r = check_du_opacity(h, opts);
  EXPECT_EQ(r.verdict, Verdict::kNo);
  EXPECT_TRUE(r.stats.fast_rejected);
  EXPECT_NE(r.explanation.find("stale read"), std::string::npos)
      << r.explanation;
}

TEST(SearchOptionsMemoCap, CapIsHonoredAndSound) {
  util::Xoshiro256 rng(11);
  gen::GenOptions gopts;
  gopts.num_txns = 7;
  gopts.unique_writes = true;
  for (int i = 0; i < 10; ++i) {
    const History h = gen::random_history(gopts, rng);
    SearchOptions capped;
    capped.memo_cap = 1;
    SearchOptions uncapped;
    const SearchResult a = find_serialization(h, capped);
    const SearchResult b = find_serialization(h, uncapped);
    EXPECT_EQ(a.outcome, b.outcome) << "iter " << i;
    EXPECT_LE(a.stats.memo_entries, 1u);
  }
}

TEST(CheckOptionsPlumbing, MemoCapReachesTheSearch) {
  // A forced-DFS check with a tiny memo cap must report at most that many
  // memo entries through CheckResult::stats.
  util::Xoshiro256 rng(3);
  gen::GenOptions gopts;
  gopts.num_txns = 8;
  const History h = gen::random_history(gopts, rng);
  CheckOptions opts;
  opts.engine = EngineKind::kDfs;
  opts.memo_cap = 2;
  const CheckResult r = check_du_opacity(h, opts);
  EXPECT_LE(r.stats.memo_entries, 2u);
}

}  // namespace
}  // namespace duo::checker
