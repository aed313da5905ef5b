// Lock-in tests for the paper's Figures 1-6 (experiments E1, E3-E6): each
// figure's verdict vector is computed by the checkers and compared to the
// paper's claims. Witnesses are re-validated through the definition-level
// verifier, and the specific serializations named in the paper's prose are
// checked directly.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/legality.hpp"
#include "checker/opacity.hpp"
#include "checker/verdict.hpp"
#include "history/figures.hpp"

namespace duo::checker {
namespace {

using namespace duo::history::figures;
using history::History;

/// Build a serialization from transaction ids + committed ids.
Serialization make_serialization(const History& h,
                                 const std::vector<history::TxnId>& order,
                                 const std::vector<history::TxnId>& committed) {
  Serialization s;
  s.committed = util::DynamicBitset(h.num_txns());
  for (const auto id : order) s.order.push_back(h.tix_of(id));
  for (const auto id : committed) s.committed.set(h.tix_of(id));
  return s;
}

SerializationRules du_rules() {
  SerializationRules r;
  r.deferred_update = true;
  return r;
}

TEST(Figure1, IsDuOpaque) {
  const auto r = check_du_opacity(fig1());
  EXPECT_TRUE(r.yes());
}

TEST(Figure1, PaperSerializationT2T3T1T4IsValid) {
  const History h = fig1();
  const auto s = make_serialization(h, {2, 3, 1, 4}, {1, 2, 3, 4});
  EXPECT_TRUE(verify_serialization(h, s, du_rules()).empty());
}

TEST(Figure1, ReverseWriterOrderFailsDu) {
  // Swapping T3 and T2 breaks read1(X)'s local serialization: T3's tryC is
  // not invoked before read1 responds, so T2 must be the last local writer.
  const History h = fig1();
  const auto s = make_serialization(h, {3, 2, 1, 4}, {1, 2, 3, 4});
  // Global legality still holds (both write 1)...
  SerializationRules global_only;
  global_only.real_time = false;
  EXPECT_TRUE(verify_serialization(h, s, global_only).empty());
  // ...but the real-time order T2 ≺RT T3 is violated by this order.
  SerializationRules rt;
  EXPECT_FALSE(verify_serialization(h, s, rt).empty());
}

TEST(Figure1, NotUniqueWrites) {
  EXPECT_FALSE(fig1().has_unique_writes());
}

TEST(Figure1, FullVector) {
  const auto v = evaluate_all(fig1());
  EXPECT_EQ(v.final_state, Verdict::kYes);
  EXPECT_EQ(v.opaque, Verdict::kYes);
  EXPECT_EQ(v.du_opaque, Verdict::kYes);
  EXPECT_EQ(v.tms2, Verdict::kYes);
  EXPECT_TRUE(containment_violations(v).empty());
}

TEST(Figure3, FinalStateOpaqueButPrefixIsNot) {
  const History h = fig3();
  EXPECT_TRUE(check_with_engine(h, Criterion::kFinalStateOpacity).yes());
  EXPECT_TRUE(
      check_with_engine(fig3_prefix(), Criterion::kFinalStateOpacity).no());
}

TEST(Figure3, NotOpaqueWithBadPrefixIdentified) {
  const auto r = check_opacity(fig3());
  EXPECT_TRUE(r.no());
  ASSERT_TRUE(r.first_bad_prefix.has_value());
  // The 4-event prefix W1(X,1) R2(X)=1 is the shortest bad one.
  EXPECT_EQ(*r.first_bad_prefix, 4u);
}

TEST(Figure3, NaiveOpacityAgrees) {
  const auto r = check_opacity_naive(fig3());
  EXPECT_TRUE(r.no());
  EXPECT_EQ(*r.first_bad_prefix, 4u);
}

TEST(Figure3, NotDuOpaque) {
  EXPECT_TRUE(check_du_opacity(fig3()).no());
}

TEST(Figure3, PrefixCompletionMustAbortT1) {
  // In the prefix, T1 is complete-but-not-t-complete: every completion
  // aborts it, so read2(X)=1 has no committed writer under either order.
  const History hp = fig3_prefix();
  for (const auto& order : {std::vector<history::TxnId>{1, 2},
                            std::vector<history::TxnId>{2, 1}}) {
    const auto s = make_serialization(hp, order, {});
    SerializationRules rules;  // global legality + real-time
    const auto violations = verify_serialization(hp, s, rules);
    EXPECT_FALSE(violations.empty());
  }
}

TEST(Figure4, OpaqueButNotDuOpaque) {
  const History h = fig4();
  EXPECT_TRUE(check_opacity(h).yes());
  const auto du = check_du_opacity(h);
  EXPECT_TRUE(du.no());
  // The explanation should mention the deferred-update violation at read2.
  EXPECT_NE(du.explanation.find("deferred-update violation"),
            std::string::npos);
}

TEST(Figure4, FinalStateSerializationsNeedT3BeforeT2) {
  const History h = fig4();
  // The paper names T1, T3, T2; since T1 is aborted its position is
  // immaterial — what is forced is committed T3 before reader T2.
  SerializationRules rules;
  const std::vector<std::vector<history::TxnId>> good_orders = {
      {1, 3, 2}, {3, 1, 2}, {3, 2, 1}};
  for (const auto& order : good_orders) {
    const auto s = make_serialization(h, order, {3});
    EXPECT_TRUE(verify_serialization(h, s, rules).empty());
  }
  const std::vector<std::vector<history::TxnId>> bad_orders = {
      {1, 2, 3}, {2, 1, 3}, {2, 3, 1}};
  for (const auto& order : bad_orders) {
    const auto s = make_serialization(h, order, {3});
    EXPECT_FALSE(verify_serialization(h, s, rules).empty());
  }
}

TEST(Figure4, LocalSerializationViolationPinpointed) {
  const History h = fig4();
  const auto s = make_serialization(h, {1, 3, 2}, {3});
  const auto violations = deferred_update_violations(h, s);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("read2(X0)=1"), std::string::npos);
}

TEST(Figure4, EveryPrefixFinalStateOpaque) {
  const History h = fig4();
  for (std::size_t n = 0; n <= h.size(); ++n)
    EXPECT_TRUE(
        check_with_engine(h.prefix(n), Criterion::kFinalStateOpacity).yes())
        << n;
}

TEST(Figure5, DuOpaqueViaT1T3T2) {
  const History h = fig5();
  EXPECT_TRUE(check_du_opacity(h).yes());
  const auto s = make_serialization(h, {1, 3, 2}, {1, 3});
  EXPECT_TRUE(verify_serialization(h, s, du_rules()).empty());
}

TEST(Figure5, NotRcoOpaque) {
  EXPECT_TRUE(check_with_engine(fig5(), Criterion::kRcoOpacity).no());
}

TEST(Figure5, RcoEdgeForcesContradiction) {
  // T2 before T3 (RCO) contradicts T3 before T2 (legality of read2(Y)=1).
  const History h = fig5();
  const auto s = make_serialization(h, {1, 2, 3}, {1, 3});
  SerializationRules rules;
  const auto violations = verify_serialization(h, s, rules);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("read2(X1)=1"), std::string::npos);
}

TEST(Figure6, DuOpaqueViaT2T1) {
  const History h = fig6();
  EXPECT_TRUE(check_du_opacity(h).yes());
  const auto s = make_serialization(h, {2, 1}, {1, 2});
  EXPECT_TRUE(verify_serialization(h, s, du_rules()).empty());
}

TEST(Figure6, NotTms2) {
  EXPECT_TRUE(check_with_engine(fig6(), Criterion::kTms2).no());
}

TEST(Figure6, Tms2OrderMakesReadIllegal) {
  const History h = fig6();
  const auto s = make_serialization(h, {1, 2}, {1, 2});
  SerializationRules rules;
  const auto violations = verify_serialization(h, s, rules);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("read2(X0)=0"), std::string::npos);
}

TEST(AllFigures, WitnessesReVerify) {
  for (const History& h : {fig1(), fig2(7), fig5(), fig6()}) {
    const auto r = check_du_opacity(h);
    ASSERT_TRUE(r.yes());
    ASSERT_TRUE(r.witness.has_value());
    EXPECT_TRUE(verify_serialization(h, *r.witness, du_rules()).empty());
  }
}

TEST(AllFigures, ContainmentStructureHolds) {
  for (const History& h :
       {fig1(), fig2(5), fig3(), fig3_prefix(), fig4(), fig5(), fig6()}) {
    const auto v = evaluate_all(h);
    EXPECT_EQ(containment_violations(v), "");
  }
}

TEST(AllFigures, StrictSerializabilityHolds) {
  // Every figure's committed projection is serializable — the separations
  // the paper draws are all about aborted/incomplete transactions.
  for (const History& h :
       {fig1(), fig2(5), fig3(), fig3_prefix(), fig4(), fig5(), fig6()}) {
    EXPECT_TRUE(check_with_engine(h, Criterion::kStrictSerializability).yes());
  }
}

}  // namespace
}  // namespace duo::checker
