// Tests for the opacity checker (Definition 5) including the du-based fast
// path, cross-checked against the naive per-prefix implementation.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/opacity.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"

namespace duo::checker {
namespace {

using history::parse_history_or_die;

TEST(Opacity, EmptyAndTrivialHistories) {
  const auto h = std::move(history::History::make({}, 1)).value_or_die();
  EXPECT_TRUE(check_opacity(h).yes());
  EXPECT_TRUE(check_opacity_naive(h).yes());
}

TEST(Opacity, FastPathSkipsDuOpaquePrefixes) {
  // A fully du-opaque history: the fast path should need zero final-state
  // prefix searches after the binary search.
  const auto h = parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2");
  const auto r = check_opacity(h);
  EXPECT_TRUE(r.yes());
  EXPECT_EQ(r.prefix_searches, 0u);
  const auto naive = check_opacity_naive(h);
  EXPECT_TRUE(naive.yes());
  EXPECT_EQ(naive.prefix_searches, h.size() + 1);
}

TEST(Opacity, Figure4FastPathChecksOnlySuffix) {
  const auto h = history::figures::fig4();
  const auto r = check_opacity(h);
  EXPECT_TRUE(r.yes());
  // The longest du-opaque prefix ends before A1 (event index 9 of 10): only
  // the last prefix needs a direct final-state search.
  EXPECT_LE(r.prefix_searches, 2u);
}

TEST(Opacity, AgreesWithNaiveOnRandomHistories) {
  util::Xoshiro256 rng(4242);
  gen::GenOptions opts;
  opts.num_txns = 5;
  opts.num_objects = 2;
  opts.value_range = 2;
  int disagreements = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const auto h = (iter % 2 == 0) ? gen::random_du_history(opts, rng)
                                   : gen::random_history(opts, rng);
    const auto fast = check_opacity(h);
    const auto naive = check_opacity_naive(h);
    ASSERT_NE(fast.verdict, Verdict::kUnknown);
    ASSERT_NE(naive.verdict, Verdict::kUnknown);
    if (fast.verdict != naive.verdict) {
      ++disagreements;
      ADD_FAILURE() << "disagreement on " << history::compact(h);
    }
    if (naive.no()) {
      EXPECT_EQ(*fast.first_bad_prefix, *naive.first_bad_prefix)
          << history::compact(h);
    }
  }
  EXPECT_EQ(disagreements, 0);
}

TEST(Opacity, AgreesWithNaiveOnMutatedHistories) {
  util::Xoshiro256 rng(31337);
  gen::GenOptions opts;
  opts.num_txns = 4;
  opts.num_objects = 2;
  for (int iter = 0; iter < 60; ++iter) {
    auto h = gen::random_du_history(opts, rng);
    h = gen::mutate(h, rng);
    EXPECT_EQ(check_opacity(h).verdict, check_opacity_naive(h).verdict)
        << history::compact(h);
  }
}

TEST(Opacity, FirstBadPrefixMinimal) {
  const auto r = check_opacity(history::figures::fig3());
  ASSERT_TRUE(r.no());
  const auto h = history::figures::fig3();
  // Everything strictly shorter must be final-state opaque.
  for (std::size_t n = 0; n < *r.first_bad_prefix; ++n)
    EXPECT_TRUE(
        check_with_engine(h.prefix(n), Criterion::kFinalStateOpacity).yes());
  EXPECT_TRUE(check_with_engine(h.prefix(*r.first_bad_prefix),
                                Criterion::kFinalStateOpacity)
                  .no());
}

TEST(Opacity, OpaqueHistoryAllPrefixesOpaque) {
  // Definition 5 is by construction prefix-closed; sanity-check on fig4.
  const auto h = history::figures::fig4();
  ASSERT_TRUE(check_opacity(h).yes());
  for (std::size_t n = 0; n <= h.size(); ++n)
    EXPECT_TRUE(check_opacity(h.prefix(n)).yes()) << n;
}

}  // namespace
}  // namespace duo::checker
