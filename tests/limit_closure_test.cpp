// Experiments E2 and E8 — the paper's limit-closure results:
//
//   Proposition 1 (Figure 2): du-opacity is not limit-closed. Reproduced on
//   the finite prefix family H(n): every member is du-opaque, yet T1's
//   serialization index grows without bound (all readers of 0 must precede
//   it), so the limit admits no serialization.
//
//   Theorem 5: under the every-transaction-completes restriction, the limit
//   is du-opaque. Reproduced via the Lemma 4 strengthening it relies on:
//   serializations respecting ≺LS exist for complete du-opaque histories.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/legality.hpp"
#include "checker/search.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "history/printer.hpp"

namespace duo::checker {
namespace {

using history::figures::fig2;

TEST(Proposition1, EveryFinitePrefixFamilyMemberDuOpaque) {
  for (int n = 2; n <= 12; ++n)
    EXPECT_TRUE(check_du_opacity(fig2(n)).yes()) << "n=" << n;
}

TEST(Proposition1, T1PositionDivergesWithN) {
  // In every serialization of H(n), all readers of 0 (T3..Tn) precede T1.
  // With the witness the checker finds, T1's index must therefore be at
  // least n-2; as n grows it diverges — the mechanized core of the
  // impossibility in the infinite limit.
  for (int n = 2; n <= 12; ++n) {
    const auto h = fig2(n);
    const auto r = check_du_opacity(h);
    ASSERT_TRUE(r.yes());
    const auto pos = r.witness->positions();
    const std::size_t t1 = pos[h.tix_of(1)];
    EXPECT_GE(t1, static_cast<std::size_t>(n - 2)) << "n=" << n;
    for (history::TxnId i = 3; i <= n; ++i)
      EXPECT_LT(pos[h.tix_of(i)], t1) << "reader T" << i << " n=" << n;
  }
}

TEST(Proposition1, ForcingT1EarlyIsUnsatisfiable) {
  // Stronger than checking one witness: *require* T1 to precede some reader
  // of 0 via an extra edge; the search must fail. Hence every serialization
  // puts every reader first, for every n.
  for (int n = 3; n <= 10; ++n) {
    const auto h = fig2(n);
    for (history::TxnId reader = 3; reader <= n; ++reader) {
      SearchOptions so;
      so.deferred_update = true;
      so.extra_edges = {{h.tix_of(1), h.tix_of(reader)}};
      EXPECT_EQ(find_serialization(h, so).outcome,
                Outcome::kNotSerializable)
          << "n=" << n << " reader=" << reader;
    }
  }
}

TEST(Proposition1, PrefixChainIsStable) {
  // H(n) extends H(n-1) (after the fixed T1/T2 prologue) — the family is a
  // genuine ever-extending chain, as in the proposition.
  const auto h12 = fig2(12);
  for (int n = 2; n < 12; ++n) {
    const auto hn = fig2(n);
    EXPECT_TRUE(h12.prefix(hn.size()).equivalent_to(hn)) << "n=" << n;
  }
}

TEST(Theorem5Premise, Fig2ViolatesIt) {
  // The restriction in Theorem 5 requires every transaction to complete;
  // in the limit of Figure 2, T1's tryC never returns. On finite prefixes:
  const auto h = fig2(8);
  EXPECT_FALSE(h.txn(h.tix_of(1)).complete);
}

class Lemma4Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma4Property, LsRespectingSerializationsExist) {
  // Lemma 4: for a finite du-opaque history whose live sets are complete,
  // there is a du serialization additionally respecting ≺LS. We generate
  // *complete* histories (no incomplete ops, no commit-pending) and require
  // the constrained search to succeed whenever the unconstrained one does.
  util::Xoshiro256 rng(GetParam());
  gen::GenOptions opts;
  opts.num_txns = 6;
  opts.num_objects = 2;
  opts.leave_running_prob = 0.2;  // complete-but-not-t-complete txns
  opts.commit_pending_prob = 0.0;
  opts.drop_last_response_prob = 0.0;

  for (int iter = 0; iter < 12; ++iter) {
    const auto h = gen::random_du_history(opts, rng);
    ASSERT_TRUE(h.all_complete());
    SearchOptions plain;
    plain.deferred_update = true;
    if (!find_serialization(h, plain).found()) continue;  // premise needs du

    SearchOptions constrained = plain;
    for (std::size_t a = 0; a < h.num_txns(); ++a)
      for (std::size_t b = 0; b < h.num_txns(); ++b)
        if (a != b && h.ls_precedes(a, b))
          constrained.extra_edges.emplace_back(a, b);
    const auto r = find_serialization(h, constrained);
    EXPECT_TRUE(r.found()) << "Lemma 4 violated on:\n" << history::compact(h);
    if (r.found()) {
      SerializationRules rules;
      rules.deferred_update = true;
      rules.extra_edges = constrained.extra_edges;
      EXPECT_TRUE(verify_serialization(h, *r.witness, rules).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma4Property,
                         ::testing::Values(301ull, 302ull, 303ull, 304ull,
                                           305ull, 306ull));

TEST(Theorem5, CompleteChainsStayDuOpaque) {
  // A finite stand-in for limit closure: chains of complete du-opaque
  // histories generated by the idealized deferred-update STM remain
  // du-opaque at every length (the limit of a finite chain is its last
  // element; Theorem 5's content for finite approximations).
  util::Xoshiro256 rng(999);
  gen::GenOptions opts;
  opts.num_txns = 8;
  opts.num_objects = 3;
  opts.leave_running_prob = 0.0;
  opts.commit_pending_prob = 0.0;
  opts.drop_last_response_prob = 0.0;
  const auto h = gen::random_du_history(opts, rng);
  ASSERT_TRUE(h.all_complete());
  for (std::size_t n = 0; n <= h.size(); n += 3)
    EXPECT_TRUE(check_du_opacity(h.prefix(n)).yes()) << n;
  EXPECT_TRUE(check_du_opacity(h).yes());
}

}  // namespace
}  // namespace duo::checker
