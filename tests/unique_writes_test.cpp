// Experiment E10 — Theorem 11: under unique writes, opacity and du-opacity
// coincide. Verified with *independent* checkers (per-prefix final-state
// search vs single du search) on random unique-write populations, plus the
// router's Theorem-11 opacity route.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/opacity.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"

namespace duo::checker {
namespace {

class UniqueWritesTheorem : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniqueWritesTheorem, OpacityEqualsDuOpacity) {
  util::Xoshiro256 rng(GetParam());
  gen::GenOptions opts;
  opts.num_txns = 5;
  opts.num_objects = 2;
  opts.unique_writes = true;

  for (int iter = 0; iter < 15; ++iter) {
    gen::History h = (iter % 2 == 0) ? gen::random_du_history(opts, rng)
                                     : gen::random_history(opts, rng);
    if (!h.has_unique_writes()) continue;  // generator guarantees, but guard
    const auto du = check_du_opacity(h);
    const auto op = check_opacity_naive(h);
    ASSERT_NE(du.verdict, Verdict::kUnknown);
    ASSERT_NE(op.verdict, Verdict::kUnknown);
    EXPECT_EQ(du.verdict, op.verdict)
        << "Theorem 11 violated on:\n" << history::compact(h);
  }
}

TEST_P(UniqueWritesTheorem, MutantsPreservingUniquenessAgree) {
  util::Xoshiro256 rng(GetParam() * 131 + 17);
  gen::GenOptions opts;
  opts.num_txns = 4;
  opts.num_objects = 2;
  opts.unique_writes = true;
  for (int iter = 0; iter < 15; ++iter) {
    auto h = gen::mutate(gen::random_du_history(opts, rng), rng);
    if (!h.has_unique_writes()) continue;  // mutation may duplicate values
    EXPECT_EQ(check_du_opacity(h).verdict, check_opacity_naive(h).verdict)
        << history::compact(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniqueWritesTheorem,
                         ::testing::Values(201ull, 202ull, 203ull, 204ull,
                                           205ull, 206ull, 207ull, 208ull));

TEST(UniqueWritesRouting, FastPathTakenWhenUnique) {
  const auto h = history::parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2");
  ASSERT_TRUE(h.has_unique_writes());
  const auto r = check_with_engine(h, Criterion::kOpacity);
  EXPECT_EQ(r.engine.engine, "graph");  // one du-opacity graph, Theorem 11
  EXPECT_EQ(r.verdict, Verdict::kYes);
}

TEST(UniqueWritesRouting, FallbackWhenNotUnique) {
  const auto h = history::figures::fig4();  // duplicate write value 1
  ASSERT_FALSE(h.has_unique_writes());
  const auto r = check_with_engine(h, Criterion::kOpacity);
  EXPECT_EQ(r.engine.engine, "dfs");  // the per-prefix scan
  EXPECT_EQ(r.verdict, Verdict::kYes);
}

TEST(UniqueWritesRouting, AgreesWithDirectOpacity) {
  util::Xoshiro256 rng(606);
  gen::GenOptions opts;
  opts.num_txns = 4;
  opts.num_objects = 2;
  for (const bool unique : {true, false}) {
    opts.unique_writes = unique;
    for (int iter = 0; iter < 10; ++iter) {
      const auto h = gen::random_history(opts, rng);
      EXPECT_EQ(check_with_engine(h, Criterion::kOpacity).verdict,
                check_opacity_naive(h).verdict)
          << history::compact(h);
    }
  }
}

TEST(UniqueWritesCounterexample, Figure4MechanismNeedsDuplicates) {
  // The paper's separation (Prop. 2) inherently requires duplicate write
  // values: the same history with T3 writing a *different* value is not
  // even final-state opaque as a whole... read2(X)=1 can then only come
  // from aborted T1. Verify both directions.
  const auto dup = history::figures::fig4();
  EXPECT_TRUE(check_opacity(dup).yes());
  EXPECT_TRUE(check_du_opacity(dup).no());

  const auto uniq = history::parse_history_or_die(
      "W1(X0,1) C1? R2(X0)=1 W3(X0,2) C3 C1!=A");
  ASSERT_TRUE(uniq.has_unique_writes());
  EXPECT_TRUE(check_opacity_naive(uniq).no());
  EXPECT_TRUE(check_du_opacity(uniq).no());
}

}  // namespace
}  // namespace duo::checker
