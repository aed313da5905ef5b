// Safety-property structure tests (experiments E7, E3): du-opacity is
// prefix-closed on random populations (Corollary 2); final-state opacity is
// not (Figure 3); the prefix-report machinery itself.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/prefix_closure.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "history/printer.hpp"

namespace duo::checker {
namespace {

TEST(PrefixClosure, Fig3ShowsFinalStateNotPrefixClosed) {
  const auto report = check_all_prefixes(
      history::figures::fig3(), criterion_fn(Criterion::kFinalStateOpacity));
  EXPECT_FALSE(report.downward_closed);
  ASSERT_TRUE(report.first_no.has_value());
  // The 4-event prefix W1(X,1) R2(X)=1 is the first non-final-state-opaque
  // one (both transactions complete-but-not-t-complete there).
  EXPECT_EQ(*report.first_no, 4u);
  // The full history is final-state opaque again after the bad prefixes.
  EXPECT_EQ(report.verdicts.back(), Verdict::kYes);
}

TEST(PrefixClosure, Fig4DuVerdictsDownwardClosed) {
  const auto report = check_all_prefixes(
      history::figures::fig4(), criterion_fn(Criterion::kDuOpacity));
  EXPECT_TRUE(report.downward_closed);
  ASSERT_TRUE(report.first_no.has_value());
  // Once A1 lands (last event), du fails and stays failed.
  EXPECT_EQ(*report.first_no, history::figures::fig4().size());
}

class DuPrefixClosureProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DuPrefixClosureProperty, DuOpacityIsDownwardClosed) {
  util::Xoshiro256 rng(GetParam());
  gen::GenOptions opts;
  opts.num_txns = 5;
  opts.num_objects = 2;
  opts.value_range = 2;
  for (int iter = 0; iter < 12; ++iter) {
    const auto h = (iter % 3 == 0) ? gen::random_history(opts, rng)
                                   : gen::random_du_history(opts, rng);
    const auto report =
        check_all_prefixes(h, criterion_fn(Criterion::kDuOpacity));
    EXPECT_TRUE(report.downward_closed) << history::compact(h);
  }
}

TEST_P(DuPrefixClosureProperty, MutantsStayDownwardClosed) {
  util::Xoshiro256 rng(GetParam() * 31 + 7);
  gen::GenOptions opts;
  opts.num_txns = 4;
  opts.num_objects = 2;
  for (int iter = 0; iter < 12; ++iter) {
    auto h = gen::random_du_history(opts, rng);
    h = gen::mutate(h, rng);
    const auto report =
        check_all_prefixes(h, criterion_fn(Criterion::kDuOpacity));
    EXPECT_TRUE(report.downward_closed) << history::compact(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuPrefixClosureProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull));

TEST(PrefixClosure, SoundnessDuGeneratorAlwaysDuOpaque) {
  // The du-generator simulates an idealized deferred-update STM; every
  // produced history and every prefix must be du-opaque (one-sided checker
  // soundness oracle, experiment E7/E11 history-level).
  util::Xoshiro256 rng(2026);
  gen::GenOptions opts;
  opts.num_txns = 6;
  opts.num_objects = 3;
  opts.value_range = 3;
  for (int iter = 0; iter < 40; ++iter) {
    const auto h = gen::random_du_history(opts, rng);
    const auto r = check_du_opacity(h);
    EXPECT_TRUE(r.yes()) << history::compact(h) << "\n" << r.explanation;
  }
}

TEST(PrefixClosure, ReportShapes) {
  const auto h = history::figures::fig1();
  const auto report =
      check_all_prefixes(h, criterion_fn(Criterion::kDuOpacity));
  EXPECT_EQ(report.verdicts.size(), h.size() + 1);
  EXPECT_TRUE(report.downward_closed);
  EXPECT_FALSE(report.first_no.has_value());
}

}  // namespace
}  // namespace duo::checker
