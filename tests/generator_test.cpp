// Tests for the random history generators and the mutation operator.
#include <gtest/gtest.h>

#include <set>

#include "gen/generator.hpp"
#include "history/printer.hpp"

namespace duo::gen {
namespace {

TEST(Generator, DeterministicForSeed) {
  GenOptions opts;
  util::Xoshiro256 a(42), b(42);
  const History ha = random_history(opts, a);
  const History hb = random_history(opts, b);
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i)
    EXPECT_TRUE(ha.events()[i] == hb.events()[i]);
}

TEST(Generator, RespectsTransactionCount) {
  GenOptions opts;
  opts.num_txns = 9;
  opts.leave_running_prob = 0;
  opts.commit_pending_prob = 0;
  opts.drop_last_response_prob = 0;
  util::Xoshiro256 rng(7);
  const History h = random_history(opts, rng);
  EXPECT_EQ(h.num_txns(), 9u);
}

TEST(Generator, RespectsObjectBound) {
  GenOptions opts;
  opts.num_objects = 2;
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 20; ++i) {
    const History h = random_history(opts, rng);
    EXPECT_EQ(h.num_objects(), 2);
    for (const auto& e : h.events()) {
      if (e.op == history::OpKind::kRead ||
          e.op == history::OpKind::kWrite) {
        EXPECT_LT(e.obj, 2);
      }
    }
  }
}

TEST(Generator, AllWellFormedAcrossSeeds) {
  // History::make aborts on ill-formed sequences; surviving construction on
  // many seeds is the well-formedness property test.
  GenOptions opts;
  opts.num_txns = 8;
  opts.num_objects = 4;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    util::Xoshiro256 rng(seed);
    const History h1 = random_history(opts, rng);
    const History h2 = random_du_history(opts, rng);
    EXPECT_GT(h1.size() + h2.size(), 0u);
  }
}

TEST(Generator, UniqueWritesModeHolds) {
  GenOptions opts;
  opts.unique_writes = true;
  opts.num_txns = 10;
  opts.num_objects = 3;
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    util::Xoshiro256 rng(seed);
    EXPECT_TRUE(random_history(opts, rng).has_unique_writes());
    EXPECT_TRUE(random_du_history(opts, rng).has_unique_writes());
  }
}

TEST(Generator, SmallValueRangeProducesDuplicates) {
  GenOptions opts;
  opts.unique_writes = false;
  opts.value_range = 2;
  opts.num_txns = 10;
  opts.num_objects = 2;
  opts.write_prob = 0.9;
  util::Xoshiro256 rng(13);
  int dup = 0;
  for (int i = 0; i < 20; ++i)
    dup += !random_history(opts, rng).has_unique_writes();
  EXPECT_GT(dup, 10);
}

TEST(Generator, EndingKnobsProduceStatuses) {
  GenOptions opts;
  opts.num_txns = 40;
  opts.leave_running_prob = 0.3;
  opts.commit_pending_prob = 0.3;
  opts.tryc_abort_prob = 0.3;
  util::Xoshiro256 rng(17);
  const History h = random_history(opts, rng);
  std::set<history::TxnStatus> seen;
  for (const auto& t : h.transactions()) seen.insert(t.status);
  EXPECT_TRUE(seen.count(history::TxnStatus::kCommitPending));
  EXPECT_TRUE(seen.count(history::TxnStatus::kRunning));
}

TEST(Generator, SplitOpsProduceOverlap) {
  GenOptions opts;
  opts.num_txns = 12;
  opts.split_op_prob = 0.95;
  util::Xoshiro256 rng(23);
  const History h = random_history(opts, rng);
  // With aggressive splitting, at least one pair of transactions overlaps.
  bool overlap = false;
  for (std::size_t a = 0; a < h.num_txns(); ++a)
    for (std::size_t b = 0; b < h.num_txns(); ++b)
      if (a != b && !h.rt_precedes(a, b) && !h.rt_precedes(b, a))
        overlap = true;
  EXPECT_TRUE(overlap);
}

// The contention claim in deterministic_live_run's header comment: on
// 20,000-event traces over 8 objects, aborts appear only at 8 threads.
TEST(Generator, LiveRunAbortsOnlyUnderHighContention) {
  for (const auto& [threads, aborts] :
       {std::pair{2, 0}, std::pair{3, 0}, std::pair{4, 0}, std::pair{8, 704}}) {
    SCOPED_TRACE(threads);
    const History h = deterministic_live_run(20'000, threads, 8);
    int aborted = 0;
    for (const auto& t : h.transactions())
      aborted += t.status == history::TxnStatus::kAborted;
    EXPECT_EQ(aborted, aborts);
    EXPECT_GT(h.num_txns(), 3'300u);
  }
}

TEST(Mutate, PreservesWellFormedness) {
  GenOptions opts;
  opts.num_txns = 6;
  util::Xoshiro256 rng(29);
  for (int i = 0; i < 100; ++i) {
    const History h = random_du_history(opts, rng);
    const History m = mutate(h, rng);  // aborts if ill-formed
    EXPECT_EQ(m.num_objects(), h.num_objects());
  }
}

TEST(Mutate, EventuallyChangesSomething) {
  GenOptions opts;
  opts.num_txns = 6;
  opts.num_objects = 2;
  util::Xoshiro256 rng(31);
  int changed = 0;
  for (int i = 0; i < 50; ++i) {
    const History h = random_du_history(opts, rng);
    const History m = mutate(h, rng);
    bool same = h.size() == m.size();
    if (same)
      for (std::size_t j = 0; j < h.size(); ++j)
        same = same && (h.events()[j] == m.events()[j]);
    changed += !same;
  }
  EXPECT_GT(changed, 25);
}

TEST(Mutate, TinyHistoryIsNoop) {
  const auto h = std::move(history::History::make({}, 1)).value_or_die();
  util::Xoshiro256 rng(37);
  EXPECT_EQ(mutate(h, rng).size(), 0u);
}

}  // namespace
}  // namespace duo::gen
