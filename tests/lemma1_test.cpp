// Mechanized check of Lemma 1's construction: given a du-opaque
// serialization S of H, the lemma's recipe yields a serialization S^i of
// every prefix H^i with seq(S^i) a subsequence of seq(S). We execute the
// construction and validate its output with the definition-level verifier —
// on the paper's figures and on random populations.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/legality.hpp"
#include "checker/lemma1.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "history/printer.hpp"

namespace duo::checker {
namespace {

void check_lemma1_on(const History& h) {
  const auto r = check_du_opacity(h);
  ASSERT_TRUE(r.yes());
  const Serialization& s = *r.witness;

  for (std::size_t i = 0; i <= h.size(); ++i) {
    const History hp = h.prefix(i);
    const Serialization sp = lemma1_prefix_serialization(h, s, i);

    // seq(S^i) is a subsequence of seq(S): check via id order.
    std::vector<history::TxnId> full_ids, prefix_ids;
    for (const auto tix : s.order) full_ids.push_back(h.txn(tix).id);
    for (const auto tix : sp.order) prefix_ids.push_back(hp.txn(tix).id);
    std::size_t fi = 0;
    for (const auto id : prefix_ids) {
      while (fi < full_ids.size() && full_ids[fi] != id) ++fi;
      ASSERT_LT(fi, full_ids.size()) << "not a subsequence at prefix " << i;
      ++fi;
    }

    // S^i is a du-opaque serialization of H^i.
    SerializationRules rules;
    rules.deferred_update = true;
    const auto violations = verify_serialization(hp, sp, rules);
    EXPECT_TRUE(violations.empty())
        << "prefix " << i << " of " << history::compact(h) << "\nfirst: "
        << (violations.empty() ? "" : violations.front());
  }
}

TEST(Lemma1, HoldsOnFigure1) { check_lemma1_on(history::figures::fig1()); }
TEST(Lemma1, HoldsOnFigure2Family) {
  for (int n = 2; n <= 8; ++n) check_lemma1_on(history::figures::fig2(n));
}
TEST(Lemma1, HoldsOnFigure5) { check_lemma1_on(history::figures::fig5()); }
TEST(Lemma1, HoldsOnFigure6) { check_lemma1_on(history::figures::fig6()); }

class Lemma1Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma1Property, HoldsOnRandomDuOpaqueHistories) {
  util::Xoshiro256 rng(GetParam());
  gen::GenOptions opts;
  opts.num_txns = 6;
  opts.num_objects = 3;
  opts.value_range = 2;
  for (int iter = 0; iter < 8; ++iter)
    check_lemma1_on(gen::random_du_history(opts, rng));
}

TEST_P(Lemma1Property, HoldsOnDuOpaqueMutants) {
  util::Xoshiro256 rng(GetParam() + 5000);
  gen::GenOptions opts;
  opts.num_txns = 5;
  opts.num_objects = 2;
  for (int iter = 0; iter < 10; ++iter) {
    const auto h = gen::mutate(gen::random_du_history(opts, rng), rng);
    if (check_du_opacity(h).yes()) check_lemma1_on(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Property,
                         ::testing::Values(401ull, 402ull, 403ull, 404ull,
                                           405ull, 406ull));

}  // namespace
}  // namespace duo::checker
