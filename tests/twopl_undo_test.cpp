// 2PL-Undo specifics: per-object reader-writer lock behavior (sharing,
// exclusion, upgrade), undo-log rollback, du-opacity of recorded contended
// runs — and the faulty early-lock-release variant, whose recordings must
// be flagged non-du-opaque by the offline checker, the CheckerPool and the
// OnlineMonitor alike.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/pool.hpp"
#include "history/printer.hpp"
#include "monitor/monitor.hpp"
#include "stm/twopl_undo.hpp"
#include "stm/workload.hpp"

namespace duo::stm {
namespace {

TwoPlUndoOptions faulty_options() {
  TwoPlUndoOptions o;
  o.faulty_early_lock_release = true;
  return o;
}

TEST(TwoPlUndo, ReadersShareAnObject) {
  TwoPlUndoStm stm(1);
  auto a = stm.begin();
  auto b = stm.begin();
  EXPECT_TRUE(a->read(0).has_value());
  EXPECT_TRUE(b->read(0).has_value());
  EXPECT_TRUE(a->commit());
  EXPECT_TRUE(b->commit());
}

TEST(TwoPlUndo, WriterExcludesReadersUntilCommit) {
  TwoPlUndoStm stm(1);
  auto w = stm.begin();
  ASSERT_TRUE(w->write(0, 5));
  auto r = stm.begin();
  EXPECT_FALSE(r->read(0).has_value());  // write lock held: reader dies
  EXPECT_TRUE(r->finished());
  ASSERT_TRUE(w->commit());
  auto r2 = stm.begin();
  EXPECT_EQ(*r2->read(0), 5);  // lock released at commit
  EXPECT_TRUE(r2->commit());
}

TEST(TwoPlUndo, WritersConflictOnTheSameObject) {
  TwoPlUndoStm stm(2);
  auto w1 = stm.begin();
  auto w2 = stm.begin();
  ASSERT_TRUE(w1->write(0, 1));
  EXPECT_FALSE(w2->write(0, 2));  // lock conflict: immediate abort
  EXPECT_TRUE(w2->finished());
  EXPECT_TRUE(w1->commit());
  EXPECT_EQ(stm.sample_committed(0), 1);
}

TEST(TwoPlUndo, SoleReaderUpgradesToWriter) {
  TwoPlUndoStm stm(1);
  auto tx = stm.begin();
  ASSERT_TRUE(tx->read(0).has_value());
  EXPECT_TRUE(tx->write(0, 7));  // read-to-write upgrade, no other readers
  EXPECT_TRUE(tx->commit());
  EXPECT_EQ(stm.sample_committed(0), 7);
}

TEST(TwoPlUndo, UpgradeFailsWithAnotherReaderPresent) {
  TwoPlUndoStm stm(1);
  auto a = stm.begin();
  auto b = stm.begin();
  ASSERT_TRUE(a->read(0).has_value());
  ASSERT_TRUE(b->read(0).has_value());
  EXPECT_FALSE(a->write(0, 1));  // b's read lock blocks the upgrade
  EXPECT_TRUE(a->finished());    // a died and released its read lock...
  EXPECT_TRUE(b->write(0, 2));   // ...so b is now the sole reader
  EXPECT_TRUE(b->commit());
  EXPECT_EQ(stm.sample_committed(0), 2);
}

TEST(TwoPlUndo, AbortRollsBackInPlaceWritesInReverseOrder) {
  TwoPlUndoStm stm(2);
  {
    auto seed = stm.begin();
    ASSERT_TRUE(seed->write(0, 10));
    ASSERT_TRUE(seed->commit());
  }
  auto tx = stm.begin();
  ASSERT_TRUE(tx->write(0, 11));
  ASSERT_TRUE(tx->write(0, 12));  // second write to the same object
  ASSERT_TRUE(tx->write(1, 13));
  tx->abort();
  EXPECT_EQ(stm.sample_committed(0), 10);
  EXPECT_EQ(stm.sample_committed(1), 0);
}

TEST(TwoPlUndo, FailedLockAcquisitionRollsBackEarlierWrites) {
  TwoPlUndoStm stm(2);
  auto blocker = stm.begin();
  ASSERT_TRUE(blocker->write(1, 99));
  auto tx = stm.begin();
  ASSERT_TRUE(tx->write(0, 5));    // in place
  EXPECT_FALSE(tx->write(1, 6));   // blocker holds X1: tx dies...
  EXPECT_TRUE(tx->finished());
  ASSERT_TRUE(blocker->commit());
  EXPECT_EQ(stm.sample_committed(0), 0);  // ...and X0 was rolled back
  EXPECT_EQ(stm.sample_committed(1), 99);
}

TEST(TwoPlUndo, DroppedTransactionReleasesItsLocks) {
  TwoPlUndoStm stm(1);
  {
    auto tx = stm.begin();
    ASSERT_TRUE(tx->write(0, 42));
    // Dropped without commit/abort: destructor must roll back and unlock.
  }
  EXPECT_EQ(stm.sample_committed(0), 0);
  auto tx2 = stm.begin();
  EXPECT_TRUE(tx2->write(0, 1));
  EXPECT_TRUE(tx2->commit());
}

TEST(TwoPlUndo, ContendedCountersStayExactAndRecordDuOpaque) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Recorder rec(1 << 17);
    TwoPlUndoStm stm(2, &rec);
    WorkloadOptions opts;
    opts.threads = 4;
    opts.txns_per_thread = 25;
    opts.seed = seed;
    const auto stats = run_counters(stm, opts);
    EXPECT_TRUE(counters_sum_ok(stm, stats)) << "seed " << seed;
    const auto h = rec.finish(stm.num_objects());
    checker::CheckOptions copts;
    copts.node_budget = 200'000'000;
    const auto r = checker::check_du_opacity(h, copts);
    EXPECT_FALSE(r.no()) << "seed " << seed << ": " << r.explanation;
  }
}

/// The faulty variant's signature, staged deterministically: T1's in-place
/// write is published the moment its lock is (wrongly) released, so T2
/// reads an uncommitted value before T1 invokes tryC — the exact condition
/// du-opacity forbids. Returns the recording.
history::History staged_uncommitted_read(Recorder& rec) {
  TwoPlUndoStm stm(2, &rec, faulty_options());
  auto t1 = stm.begin();
  EXPECT_TRUE(t1->write(0, 7));  // faulty: lock released right here
  auto t2 = stm.begin();
  const auto leaked = t2->read(0);
  EXPECT_TRUE(leaked.has_value());
  EXPECT_EQ(*leaked, 7);  // uncommitted value observed
  EXPECT_TRUE(t2->commit());
  EXPECT_TRUE(t1->write(1, 8));
  EXPECT_TRUE(t1->commit());
  return rec.finish(stm.num_objects());
}

TEST(TwoPlUndoFaulty, UncommittedReadFlaggedByOfflineChecker) {
  Recorder rec(64);
  const auto h = staged_uncommitted_read(rec);
  const auto r = checker::check_du_opacity(h);
  EXPECT_TRUE(r.no()) << history::compact(h);
}

TEST(TwoPlUndoFaulty, UncommittedReadFlaggedByCheckerPool) {
  Recorder rec(64);
  std::vector<history::History> batch;
  batch.push_back(staged_uncommitted_read(rec));
  checker::CheckerPool pool;
  const auto results = pool.check_batch(batch);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].no());
}

TEST(TwoPlUndoFaulty, UncommittedReadLatchedByOnlineMonitor) {
  Recorder rec(64);
  const auto h = staged_uncommitted_read(rec);
  monitor::OnlineMonitor mon;
  std::optional<std::size_t> latched_at;
  for (const auto& e : h.events()) {
    const auto fed = mon.feed(e);
    ASSERT_TRUE(fed.has_value()) << fed.error();
    if (fed.value() == checker::Verdict::kNo) {
      latched_at = mon.first_violation();
      break;
    }
  }
  ASSERT_TRUE(latched_at.has_value()) << history::compact(h);
  // The violating event is T2's read response returning the uncommitted
  // value — the 4th event of W1? ok1 R2? =7 ..., so 0-based index 3.
  EXPECT_EQ(*latched_at, 3u);
  EXPECT_EQ(mon.verdict(), checker::Verdict::kNo);
  EXPECT_FALSE(mon.explanation().empty());
}

TEST(TwoPlUndoFaulty, AbortPublishesRollbackButSingleThreadedStateIsClean) {
  // Single-threaded, the racy rollback still restores the old values; the
  // bug is only observable concurrently (and via recordings).
  TwoPlUndoStm stm(1, nullptr, faulty_options());
  auto tx = stm.begin();
  ASSERT_TRUE(tx->write(0, 5));
  tx->abort();
  EXPECT_EQ(stm.sample_committed(0), 0);
}

TEST(TwoPlUndo, NamesAdvertiseTheInjectedFault) {
  EXPECT_EQ(TwoPlUndoStm(1).name(), "2PL-Undo");
  EXPECT_NE(TwoPlUndoStm(1, nullptr, faulty_options())
                .name()
                .find("early-lock-release"),
            std::string::npos);
}

}  // namespace
}  // namespace duo::stm
