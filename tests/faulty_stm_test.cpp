// Experiment E15 — fault injection: TL2 variants with individual validation
// steps disabled produce the classic TM bugs, and the checkers must flag the
// recorded histories. Interleavings are staged deterministically (the TL2
// data structures are plain shared memory, so one thread can drive several
// transactions).
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "history/printer.hpp"
#include "stm/tl2.hpp"
#include "stm/workload.hpp"

namespace duo::stm {
namespace {

TEST(FaultyTl2, LostUpdateWithoutCommitValidation) {
  Tl2Options faulty;
  faulty.faulty_skip_commit_validation = true;
  Recorder rec(64);
  Tl2Stm stm(1, &rec, faulty);

  auto t1 = stm.begin();
  auto t2 = stm.begin();
  ASSERT_TRUE(t1->read(0).has_value());   // reads 0
  ASSERT_TRUE(t2->read(0).has_value());   // reads 0
  ASSERT_TRUE(t1->write(0, 1));
  ASSERT_TRUE(t1->commit());
  ASSERT_TRUE(t2->write(0, 2));
  ASSERT_TRUE(t2->commit());  // would abort with validation; now commits

  const auto h = rec.finish(1);
  // Both committed transactions read 0: no order can be legal.
  EXPECT_TRUE(checker::check_with_engine(
                  h, checker::Criterion::kStrictSerializability)
                  .no())
      << history::compact(h);
  EXPECT_TRUE(
      checker::check_with_engine(h, checker::Criterion::kFinalStateOpacity)
          .no());
  EXPECT_TRUE(checker::check_du_opacity(h).no());
}

TEST(FaultyTl2, CorrectTl2RejectsTheSameInterleaving) {
  // Control experiment: unmodified TL2 aborts T2 at commit.
  Recorder rec(64);
  Tl2Stm stm(1, &rec);
  auto t1 = stm.begin();
  auto t2 = stm.begin();
  ASSERT_TRUE(t1->read(0).has_value());
  ASSERT_TRUE(t2->read(0).has_value());
  ASSERT_TRUE(t1->write(0, 1));
  ASSERT_TRUE(t1->commit());
  ASSERT_TRUE(t2->write(0, 2));
  EXPECT_FALSE(t2->commit());  // read-set validation catches the conflict

  const auto h = rec.finish(1);
  EXPECT_TRUE(checker::check_du_opacity(h).yes()) << history::compact(h);
}

TEST(FaultyTl2, DoomedReadWithoutReadValidation) {
  Tl2Options faulty;
  faulty.faulty_skip_read_validation = true;
  Recorder rec(64);
  Tl2Stm stm(2, &rec, faulty);

  auto reader = stm.begin();
  ASSERT_TRUE(reader->read(0).has_value());  // X = 0
  {
    auto writer = stm.begin();
    ASSERT_TRUE(writer->write(0, 5));
    ASSERT_TRUE(writer->write(1, 5));
    ASSERT_TRUE(writer->commit());
  }
  const auto y = reader->read(1);  // returns 5 without version checking
  ASSERT_TRUE(y.has_value());
  EXPECT_EQ(*y, 5);
  // Read-only transactions take TL2's fast commit path (each read is
  // normally validated at read time, which fault injection disabled), so
  // the inconsistent snapshot {X=0, Y=5} even *commits*.
  EXPECT_TRUE(reader->commit());

  const auto h = rec.finish(2);
  EXPECT_TRUE(
      checker::check_with_engine(h, checker::Criterion::kFinalStateOpacity)
          .no())
      << history::compact(h);
  EXPECT_TRUE(checker::check_du_opacity(h).no());
  // Both transactions committed: the committed projection itself is broken.
  EXPECT_TRUE(checker::check_with_engine(
                  h, checker::Criterion::kStrictSerializability)
                  .no());
}

TEST(FaultyTl2, CorrectTl2AbortsTheDoomedRead) {
  Recorder rec(64);
  Tl2Stm stm(2, &rec);
  auto reader = stm.begin();
  ASSERT_TRUE(reader->read(0).has_value());
  {
    auto writer = stm.begin();
    ASSERT_TRUE(writer->write(0, 5));
    ASSERT_TRUE(writer->write(1, 5));
    ASSERT_TRUE(writer->commit());
  }
  EXPECT_FALSE(reader->read(1).has_value());  // version check fires

  const auto h = rec.finish(2);
  EXPECT_TRUE(checker::check_du_opacity(h).yes()) << history::compact(h);
}

TEST(FaultyTl2, LostUpdatesQuantified) {
  // The classic symptom at workload level, staged deterministically (this
  // CI box has a single core, so timing-based races never fire): N pairs of
  // increments whose reads interleave. Each pair commits twice but advances
  // the counter once — the counter ends at N instead of 2N.
  Tl2Options faulty;
  faulty.faulty_skip_commit_validation = true;
  Tl2Stm stm(1, nullptr, faulty);
  constexpr Value kPairs = 50;
  std::uint64_t commits = 0;
  for (Value i = 0; i < kPairs; ++i) {
    auto a = stm.begin();
    auto b = stm.begin();
    const auto va = a->read(0);
    const auto vb = b->read(0);
    ASSERT_TRUE(va && vb);
    EXPECT_EQ(*va, *vb);  // both see the same stale snapshot
    ASSERT_TRUE(a->write(0, *va + 1));
    ASSERT_TRUE(b->write(0, *vb + 1));
    commits += a->commit();
    commits += b->commit();  // skips validation: lost update
  }
  EXPECT_EQ(commits, static_cast<std::uint64_t>(2 * kPairs));
  EXPECT_EQ(stm.sample_committed(0), kPairs);  // half the updates vanished
}

TEST(FaultyTl2, CorrectTl2NeverLosesUpdates) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Tl2Stm stm(1);
    WorkloadOptions opts;
    opts.threads = 4;
    opts.txns_per_thread = 200;
    opts.seed = seed;
    const auto stats = run_counters(stm, opts);
    EXPECT_TRUE(counters_sum_ok(stm, stats)) << "seed " << seed;
  }
}

TEST(FaultyTl2, NamesAdvertiseInjectedFaults) {
  Tl2Options a;
  a.faulty_skip_read_validation = true;
  EXPECT_NE(Tl2Stm(1, nullptr, a).name().find("no-read-validation"),
            std::string::npos);
  Tl2Options b;
  b.faulty_skip_commit_validation = true;
  EXPECT_NE(Tl2Stm(1, nullptr, b).name().find("no-commit-validation"),
            std::string::npos);
  EXPECT_EQ(Tl2Stm(1).name(), "TL2");
}

}  // namespace
}  // namespace duo::stm
