// Machine-checked instances of Theorem 5's proof construction: for finite
// complete du-opaque histories, the level graph of prefix serializations
// admits a cseq-consistent path whose top element is a valid du
// serialization of the whole history (the finite analogue of the König
// argument). Also checks the premise side: the construction is inapplicable
// to the Figure 2 family (T1 never completes) and the path search fails on
// non-du-opaque inputs.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/oracle.hpp"
#include "checker/theorem5.hpp"
#include "gen/generator.hpp"
#include "history/builder.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"

namespace duo::checker {
namespace {

gen::GenOptions small_complete_options() {
  gen::GenOptions opts;
  opts.num_txns = 4;
  opts.num_objects = 2;
  opts.max_ops = 2;
  opts.leave_running_prob = 0.15;  // complete-but-not-t-complete allowed
  opts.commit_pending_prob = 0.0;
  opts.drop_last_response_prob = 0.0;
  return opts;
}

TEST(Theorem5, SimpleSequentialHistory) {
  const auto h =
      history::parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2");
  Theorem5Options opts;
  opts.max_serializations_per_level = 512;
  const auto report = run_theorem5_construction(h, opts);
  EXPECT_TRUE(report.applicable);
  EXPECT_TRUE(report.path_found);
  EXPECT_TRUE(report.limit_serialization_valid);
  EXPECT_EQ(report.levels, h.size() + 1);
  EXPECT_GT(report.vertices, report.levels - 1);
}

TEST(Theorem5, PremiseFailsOnFigure2) {
  // T1's tryC never completes, so the theorem's restriction (every
  // transaction complete) fails — exactly the gap Proposition 1 exploits.
  const auto report =
      run_theorem5_construction(history::figures::fig2(5));
  EXPECT_FALSE(report.applicable);
}

TEST(Theorem5, PathFailsOnNonDuOpaqueHistory) {
  // Complete but du-illegal: the top level has no vertices.
  const auto h =
      history::parse_history_or_die("W1(X0,1) R2(X0)=1 C1 C2");
  ASSERT_TRUE(check_du_opacity(h).no());
  const auto report = run_theorem5_construction(h);
  EXPECT_TRUE(report.applicable);
  EXPECT_FALSE(report.path_found);
  EXPECT_FALSE(report.limit_serialization_valid);
}

TEST(Theorem5, OverlappingTransactions) {
  // Figure 6 is complete and du-opaque with genuine overlap.
  const auto h = history::figures::fig6();
  Theorem5Options opts;
  opts.max_serializations_per_level = 512;
  const auto report = run_theorem5_construction(h, opts);
  EXPECT_TRUE(report.applicable);
  EXPECT_TRUE(report.path_found);
  EXPECT_TRUE(report.limit_serialization_valid);
}

class Theorem5Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem5Property, ConstructionSucceedsOnCompleteDuOpaqueHistories) {
  util::Xoshiro256 rng(GetParam());
  const auto gopts = small_complete_options();
  Theorem5Options topts;
  topts.max_serializations_per_level = 512;
  for (int iter = 0; iter < 4; ++iter) {
    const auto h = gen::random_du_history(gopts, rng);
    ASSERT_TRUE(h.all_complete());
    const auto report = run_theorem5_construction(h, topts);
    EXPECT_TRUE(report.applicable);
    EXPECT_TRUE(report.path_found) << history::compact(h);
    EXPECT_TRUE(report.limit_serialization_valid) << history::compact(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem5Property,
                         ::testing::Values(501ull, 502ull, 503ull, 504ull));

TEST(Cseq, RestrictsToCompleteTransactions) {
  // H: T1 entirely first, then T2. In the prefix covering only T1, cseq
  // must contain T1 alone even though T2 participates in longer prefixes.
  const auto h = history::parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2");
  const auto hp = h.prefix(6);  // includes R2's inv+resp? events 0..5
  SerializationRules du;
  du.deferred_update = true;
  const auto all = enumerate_serializations(hp, du, 16);
  ASSERT_FALSE(all.empty());
  for (const auto& s : all) {
    const auto ids = cseq(h, 6, hp, s);
    // T1's last event (C1 response, index 3) is inside; T2's last (index 7)
    // is not.
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 1);
  }
}

}  // namespace
}  // namespace duo::checker
