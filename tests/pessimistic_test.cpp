// Experiment E12 — the paper's §5 claim about the pessimistic STM of Afek
// et al.: it does not provide deferred-update semantics; its histories are
// not du-opaque (and not even opaque). We stage deterministic two-thread
// interleavings with condition variables, so the violations are produced on
// every run, then confirmed by the checkers.
#include <gtest/gtest.h>

#include <thread>

#include "checker/engine.hpp"
#include "checker/opacity.hpp"
#include "history/printer.hpp"
#include "stm/pessimistic.hpp"
#include "stm/workload.hpp"
#include "util/threading.hpp"

namespace duo::stm {
namespace {

using util::Rendezvous;

TEST(Pessimistic, ReadFromNotYetCommittingWriterViolatesDu) {
  Recorder rec(64);
  PessimisticStm stm(1, &rec);
  Rendezvous rv;

  util::ScopedThread writer([&] {
    auto tx = stm.begin();
    ASSERT_TRUE(tx->write(0, 7));  // in place, before tryC
    rv.signal(1);
    rv.await(2);
    ASSERT_TRUE(tx->commit());
  });
  util::ScopedThread reader([&] {
    rv.await(1);
    auto tx = stm.begin();
    const auto v = tx->read(0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);  // observed the uncommitted in-place write
    ASSERT_TRUE(tx->commit());
    rv.signal(2);
  });
  writer.join();
  reader.join();

  const auto h = rec.finish(1);
  // The read of 7 responds before the writer's tryC invocation: by
  // Definition 3(3) no serialization can make it du-legal.
  EXPECT_TRUE(checker::check_du_opacity(h).no()) << history::compact(h);
  // It is still final-state opaque (writer serialized before reader) — the
  // paper's deferred-update point exactly.
  EXPECT_TRUE(
      checker::check_with_engine(h, checker::Criterion::kFinalStateOpacity)
          .yes());
  EXPECT_TRUE(checker::check_opacity(h).no());
}

TEST(Pessimistic, TornSnapshotViolatesFinalStateOpacity) {
  Recorder rec(64);
  PessimisticStm stm(2, &rec);
  Rendezvous rv;

  util::ScopedThread writer([&] {
    auto tx = stm.begin();
    ASSERT_TRUE(tx->write(0, 1));  // X updated in place
    rv.signal(1);
    rv.await(2);
    ASSERT_TRUE(tx->write(1, 1));  // Y updated after the reader looked
    ASSERT_TRUE(tx->commit());
    rv.signal(3);
  });
  util::ScopedThread reader([&] {
    rv.await(1);
    auto tx = stm.begin();
    const auto y = tx->read(1);
    const auto x = tx->read(0);
    ASSERT_TRUE(x && y);
    EXPECT_EQ(*x, 1);  // new X
    EXPECT_EQ(*y, 0);  // old Y: inconsistent snapshot
    rv.signal(2);
    rv.await(3);
    ASSERT_TRUE(tx->commit());
  });
  writer.join();
  reader.join();

  const auto h = rec.finish(2);
  EXPECT_TRUE(
      checker::check_with_engine(h, checker::Criterion::kFinalStateOpacity)
          .no())
      << history::compact(h);
  EXPECT_TRUE(checker::check_du_opacity(h).no());
  // Both transactions committed: even the committed projection is broken.
  EXPECT_TRUE(checker::check_with_engine(
                  h, checker::Criterion::kStrictSerializability)
                  .no());
}

TEST(Pessimistic, NoTransactionEverAborts) {
  PessimisticStm stm(4);
  WorkloadOptions opts;
  opts.threads = 4;
  opts.txns_per_thread = 50;
  opts.write_fraction = 0.5;
  const auto stats = run_random_mix(stm, opts);
  EXPECT_EQ(stats.aborted, 0u);
  EXPECT_EQ(stats.abandoned, 0u);
  EXPECT_EQ(stats.committed, 4u * 50u);
}

TEST(Pessimistic, RepeatedStagedOverlapsAlwaysViolateDu) {
  // Many rounds of reader-meets-writer overlap, each staged with a
  // rendezvous so the result does not depend on scheduler timing (this CI
  // box has one core; statistical races never fire there). Every round's
  // recorded history must be rejected by the du checker.
  for (int round = 0; round < 8; ++round) {
    Recorder rec(256);
    PessimisticStm stm(2, &rec);
    Rendezvous rv;
    const Value value = 100 + round;

    util::ScopedThread writer([&] {
      auto tx = stm.begin();
      ASSERT_TRUE(tx->write(round % 2, value));
      rv.signal(1);
      rv.await(2);
      ASSERT_TRUE(tx->write((round + 1) % 2, value + 1));
      ASSERT_TRUE(tx->commit());
    });
    util::ScopedThread reader([&] {
      rv.await(1);
      auto tx = stm.begin();
      const auto v = tx->read(round % 2);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, value);
      ASSERT_TRUE(tx->commit());
      rv.signal(2);
    });
    writer.join();
    reader.join();

    const auto h = rec.finish(2);
    EXPECT_TRUE(checker::check_du_opacity(h).no()) << "round " << round;
  }
}

TEST(Pessimistic, SingleThreadedRunsAreDuOpaque) {
  // Without concurrency the pessimistic STM degenerates to sequential
  // execution, which is trivially du-opaque — the violations come from
  // overlap, not from the in-place writes per se.
  Recorder rec(1 << 12);
  PessimisticStm stm(2, &rec);
  WorkloadOptions opts;
  opts.threads = 1;
  opts.txns_per_thread = 10;
  run_random_mix(stm, opts);
  const auto h = rec.finish(2);
  EXPECT_TRUE(checker::check_du_opacity(h).yes());
}

}  // namespace
}  // namespace duo::stm
