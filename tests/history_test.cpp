// Tests for the formal history model (paper §2): well-formedness, derived
// transaction structure, real-time order, live sets, prefixes, equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "gen/generator.hpp"
#include "history/builder.hpp"
#include "history/history.hpp"
#include "history/parser.hpp"

namespace duo::history {
namespace {

History simple_committed_pair() {
  // T1 writes and commits; T2 reads and commits, strictly after.
  return HistoryBuilder(1)
      .write(1, 0, 5)
      .tryc(1)
      .read(2, 0, 5)
      .tryc(2)
      .build();
}

TEST(HistoryValidation, RejectsResponseWithoutInvocation) {
  auto r = History::make({Event::resp_read(1, 0, 3)}, 1);
  EXPECT_FALSE(r.has_value());
  EXPECT_NE(r.error().find("response without pending invocation"),
            std::string::npos);
}

TEST(HistoryValidation, RejectsDoubleInvocation) {
  auto r = History::make({Event::inv_read(1, 0), Event::inv_read(1, 0)}, 1);
  EXPECT_FALSE(r.has_value());
  EXPECT_NE(r.error().find("invocation while operation pending"),
            std::string::npos);
}

TEST(HistoryValidation, RejectsEventsAfterCommit) {
  auto r = History::make({Event::inv_tryc(1), Event::resp_commit(1),
                          Event::inv_read(1, 0)},
                         1);
  EXPECT_FALSE(r.has_value());
  EXPECT_NE(r.error().find("event after C/A"), std::string::npos);
}

TEST(HistoryValidation, RejectsEventsAfterAbort) {
  auto r = History::make({Event::inv_trya(1),
                          Event::resp_abort(1, OpKind::kTryAbort),
                          Event::inv_read(1, 0)},
                         1);
  EXPECT_FALSE(r.has_value());
}

TEST(HistoryValidation, RejectsRepeatedReadOfSameObject) {
  auto r = History::make({Event::inv_read(1, 0), Event::resp_read(1, 0, 0),
                          Event::inv_read(1, 0)},
                         1);
  EXPECT_FALSE(r.has_value());
  EXPECT_NE(r.error().find("repeated read"), std::string::npos);
}

TEST(HistoryValidation, RejectsMismatchedResponseKind) {
  auto r = History::make({Event::inv_read(1, 0), Event::resp_write_ok(1, 0)},
                         1);
  EXPECT_FALSE(r.has_value());
  EXPECT_NE(r.error().find("kind mismatch"), std::string::npos);
}

TEST(HistoryValidation, RejectsMismatchedResponseObject) {
  auto r = History::make({Event::inv_read(1, 0), Event::resp_read(1, 1, 0)},
                         2);
  EXPECT_FALSE(r.has_value());
  EXPECT_NE(r.error().find("object mismatch"), std::string::npos);
}

TEST(HistoryValidation, RejectsObjectOutOfRange) {
  auto r = History::make({Event::inv_read(1, 5)}, 2);
  EXPECT_FALSE(r.has_value());
  EXPECT_NE(r.error().find("out of range"), std::string::npos);
}

TEST(HistoryValidation, RejectsTryAWithNonAbortResponse) {
  std::vector<Event> evs{Event::inv_trya(1)};
  Event bad = Event::resp_commit(1);
  bad.op = OpKind::kTryAbort;
  evs.push_back(bad);
  auto r = History::make(std::move(evs), 1);
  EXPECT_FALSE(r.has_value());
}

TEST(HistoryValidation, AcceptsEmptyHistory) {
  auto r = History::make({}, 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value().num_txns(), 0u);
  EXPECT_EQ(r.value().size(), 0u);
}

TEST(HistoryStatus, CommittedAbortedPendingRunning) {
  const History h = HistoryBuilder(2)
                        .write(1, 0, 1)
                        .tryc(1)          // T1 committed
                        .write(2, 0, 2)
                        .tryc_aborts(2)   // T2 aborted
                        .write(3, 1, 3)
                        .inv_tryc(3)      // T3 commit-pending
                        .write(4, 1, 4)   // T4 running (complete)
                        .inv_read(5, 0)   // T5 running (incomplete op)
                        .build();
  EXPECT_EQ(h.txn(h.tix_of(1)).status, TxnStatus::kCommitted);
  EXPECT_EQ(h.txn(h.tix_of(2)).status, TxnStatus::kAborted);
  EXPECT_EQ(h.txn(h.tix_of(3)).status, TxnStatus::kCommitPending);
  EXPECT_EQ(h.txn(h.tix_of(4)).status, TxnStatus::kRunning);
  EXPECT_EQ(h.txn(h.tix_of(5)).status, TxnStatus::kRunning);
  EXPECT_TRUE(h.txn(h.tix_of(4)).complete);
  EXPECT_FALSE(h.txn(h.tix_of(5)).complete);
  ASSERT_EQ(h.commit_pending().size(), 1u);
  EXPECT_EQ(h.commit_pending()[0], h.tix_of(3));
}

TEST(HistoryStatus, AbortedViaReadResponse) {
  const History h =
      HistoryBuilder(1).read_aborts(1, 0).build();
  EXPECT_EQ(h.txn(h.tix_of(1)).status, TxnStatus::kAborted);
  EXPECT_TRUE(h.txn(h.tix_of(1)).t_complete());
}

TEST(HistoryDerived, ReadWriteSets) {
  const History h = HistoryBuilder(3)
                        .write(1, 0, 10)
                        .read(1, 1, 0)
                        .write(1, 0, 20)  // rewrite: final value 20
                        .write(1, 2, 30)
                        .tryc(1)
                        .build();
  const Transaction& t = h.txn(h.tix_of(1));
  ASSERT_EQ(t.final_writes.size(), 2u);
  EXPECT_EQ(*t.final_write_value(0), 20);
  EXPECT_EQ(*t.final_write_value(2), 30);
  EXPECT_FALSE(t.final_write_value(1).has_value());
  EXPECT_EQ(t.external_reads.size(), 1u);
  EXPECT_TRUE(t.internal_reads.empty());
}

TEST(HistoryDerived, InternalVsExternalReads) {
  const History h = HistoryBuilder(2)
                        .read(1, 0, 0)    // external
                        .write(1, 1, 7)
                        .read(1, 1, 7)    // internal (own write precedes)
                        .tryc(1)
                        .build();
  const Transaction& t = h.txn(h.tix_of(1));
  EXPECT_EQ(t.external_reads.size(), 1u);
  EXPECT_EQ(t.internal_reads.size(), 1u);
  EXPECT_EQ(t.ops[t.external_reads[0]].obj, 0);
  EXPECT_EQ(t.ops[t.internal_reads[0]].obj, 1);
}

TEST(HistoryDerived, AbortedReadNotInReadLists) {
  const History h = HistoryBuilder(1).read_aborts(1, 0).build();
  const Transaction& t = h.txn(h.tix_of(1));
  EXPECT_TRUE(t.external_reads.empty());
  EXPECT_TRUE(t.internal_reads.empty());
}

TEST(RealTimeOrder, SequentialTransactionsOrdered) {
  const History h = simple_committed_pair();
  const auto t1 = h.tix_of(1), t2 = h.tix_of(2);
  EXPECT_TRUE(h.rt_precedes(t1, t2));
  EXPECT_FALSE(h.rt_precedes(t2, t1));
}

TEST(RealTimeOrder, OverlappingTransactionsUnordered) {
  const History h = HistoryBuilder(1)
                        .inv_write(1, 0, 1)
                        .inv_read(2, 0)
                        .resp_write(1, 0)
                        .resp_read(2, 0, 0)
                        .tryc(1)
                        .tryc(2)
                        .build();
  const auto t1 = h.tix_of(1), t2 = h.tix_of(2);
  EXPECT_FALSE(h.rt_precedes(t1, t2));
  EXPECT_FALSE(h.rt_precedes(t2, t1));
}

TEST(RealTimeOrder, NonTCompleteNeverPrecedes) {
  // T1 is complete but never t-completes; even though all its events precede
  // T2, the paper's ≺RT requires t-completeness of the predecessor.
  const History h = HistoryBuilder(1)
                        .write(1, 0, 1)   // T1 running
                        .read(2, 0, 0)
                        .tryc(2)
                        .build();
  EXPECT_FALSE(h.rt_precedes(h.tix_of(1), h.tix_of(2)));
}

/// ≺RT and the completion order recomputed from the raw events alone, and
/// compared with the History's query and its recorded order.
void expect_real_time_matches_events(const History& h) {
  struct Span {
    std::size_t first = 0, last = 0;
    bool t_complete = false;
  };
  std::map<TxnId, Span> spans;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h.events()[i];
    const bool seen = spans.contains(e.txn);
    Span& s = spans[e.txn];
    if (!seen) s.first = i;
    s.last = i;
    // A C_k or A_k response is a transaction's last event.
    s.t_complete =
        e.is_response() && (e.aborted || e.op == OpKind::kTryCommit);
  }
  const std::size_t n = h.num_txns();
  ASSERT_EQ(spans.size(), n);
  std::vector<Span> by_tix(n);
  for (const auto& [id, s] : spans) by_tix[h.tix_of(id)] = s;

  std::vector<std::size_t> done;
  for (std::size_t a = 0; a < n; ++a)
    if (by_tix[a].t_complete) done.push_back(a);
  std::sort(done.begin(), done.end(), [&](std::size_t a, std::size_t b) {
    return by_tix[a].last < by_tix[b].last;
  });
  EXPECT_EQ(h.completion_order(), done);

  for (std::size_t b = 0; b < n; ++b) {
    std::size_t preds = 0;
    for (std::size_t a = 0; a < n; ++a) {
      const bool rt = a != b && by_tix[a].t_complete &&
                      by_tix[a].last < by_tix[b].first;
      EXPECT_EQ(h.rt_precedes(a, b), rt) << "a=" << a << " b=" << b;
      if (rt) ++preds;
    }
    EXPECT_EQ(h.rt_pred_count(b), preds) << "b=" << b;
  }
}

TEST(RealTimeOrder, QueryMatchesEventDefinitionOnGeneratedHistories) {
  // Generous lifecycle knobs so aborted, commit-pending, running and
  // incomplete transactions all occur, in full histories and in their
  // prefixes (which cut transactions mid-operation).
  gen::GenOptions opts;
  opts.num_txns = 8;
  opts.leave_running_prob = 0.2;
  opts.commit_pending_prob = 0.2;
  opts.tryc_abort_prob = 0.2;
  opts.drop_last_response_prob = 0.2;
  util::Xoshiro256 rng(2013);
  std::size_t aborted = 0, pending = 0, running = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const History h = iter % 2 == 0 ? gen::random_history(opts, rng)
                                    : gen::random_du_history(opts, rng);
    for (const Transaction& t : h.transactions()) {
      aborted += t.aborted() ? 1 : 0;
      pending += t.commit_pending() ? 1 : 0;
      running += t.status == TxnStatus::kRunning ? 1 : 0;
    }
    for (std::size_t n = 0; n <= h.size(); ++n)
      expect_real_time_matches_events(h.prefix(n));
  }
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(pending, 0u);
  EXPECT_GT(running, 0u);
}

TEST(LiveSets, OverlapStructure) {
  // T1 [0..3], T2 [4..7]: disjoint. T3 overlaps both.
  const History h = HistoryBuilder(1)
                        .inv_read(3, 0)
                        .write(1, 0, 1)
                        .tryc(1)
                        .write(2, 0, 2)
                        .tryc(2)
                        .resp_read(3, 0, 2)
                        .build();
  const auto t1 = h.tix_of(1), t2 = h.tix_of(2), t3 = h.tix_of(3);
  const auto l1 = h.live_set(t1);
  EXPECT_TRUE(l1.test(t1));
  EXPECT_TRUE(l1.test(t3));
  EXPECT_FALSE(l1.test(t2));
  const auto l3 = h.live_set(t3);
  EXPECT_EQ(l3.count(), 3u);
}

TEST(LiveSets, LsPrecedes) {
  // T1 complete and alone in its live set, entirely before T2.
  const History h = simple_committed_pair();
  EXPECT_TRUE(h.ls_precedes(h.tix_of(1), h.tix_of(2)));
  EXPECT_FALSE(h.ls_precedes(h.tix_of(2), h.tix_of(1)));
}

TEST(LiveSets, LsRequiresCompleteLiveSet) {
  // T3's span covers T1 (first read early, second read left incomplete at
  // the end) and T3 never completes, so T1 does not ≺LS T2 even though T1
  // itself ends before T2 begins.
  const History h = HistoryBuilder(2)
                        .read(3, 0, 0)
                        .write(1, 0, 1)
                        .tryc(1)
                        .write(2, 0, 2)
                        .inv_read(3, 1)
                        .tryc(2)
                        .build();
  ASSERT_TRUE(h.live_set(h.tix_of(1)).test(h.tix_of(3)));
  EXPECT_FALSE(h.ls_precedes(h.tix_of(1), h.tix_of(2)));
}

TEST(Prefix, TruncatesDerivedState) {
  const History h = simple_committed_pair();
  const History p = h.prefix(4);  // through C1
  EXPECT_EQ(p.num_txns(), 1u);
  EXPECT_EQ(p.txn(0).status, TxnStatus::kCommitted);
  const History p3 = h.prefix(3);  // tryC1 invoked, unanswered
  EXPECT_EQ(p3.txn(0).status, TxnStatus::kCommitPending);
}

TEST(Prefix, ZeroAndFull) {
  const History h = simple_committed_pair();
  EXPECT_EQ(h.prefix(0).num_txns(), 0u);
  EXPECT_TRUE(h.prefix(h.size()).equivalent_to(h));
}

TEST(Projection, PerTransactionEvents) {
  const History h = simple_committed_pair();
  const auto p1 = h.project(1);
  ASSERT_EQ(p1.size(), 4u);
  EXPECT_EQ(p1[0].op, OpKind::kWrite);
  EXPECT_EQ(p1[3].op, OpKind::kTryCommit);
  EXPECT_TRUE(h.project(99).empty());
}

TEST(Equivalence, ReorderedAcrossTransactionsIsEquivalent) {
  const History a = HistoryBuilder(1)
                        .write(1, 0, 1)
                        .read(2, 0, 0)
                        .tryc(1)
                        .tryc(2)
                        .build();
  const History b = HistoryBuilder(1)
                        .read(2, 0, 0)
                        .write(1, 0, 1)
                        .tryc(2)
                        .tryc(1)
                        .build();
  EXPECT_TRUE(a.equivalent_to(b));
  EXPECT_TRUE(b.equivalent_to(a));
}

TEST(Equivalence, DifferentValuesNotEquivalent) {
  const History a = HistoryBuilder(1).read(1, 0, 0).build();
  const History b = HistoryBuilder(1).read(1, 0, 1).build();
  EXPECT_FALSE(a.equivalent_to(b));
}

TEST(Completeness, Flags) {
  const History h = HistoryBuilder(1).write(1, 0, 1).build();  // running
  EXPECT_TRUE(h.all_complete());
  EXPECT_FALSE(h.all_t_complete());
  const History h2 = HistoryBuilder(1).inv_read(1, 0).build();
  EXPECT_FALSE(h2.all_complete());
}

TEST(UniqueWrites, DetectsDuplicateAcrossTransactions) {
  const History dup = HistoryBuilder(1)
                          .write(1, 0, 5)
                          .tryc(1)
                          .write(2, 0, 5)
                          .tryc(2)
                          .build();
  EXPECT_FALSE(dup.has_unique_writes());
}

TEST(UniqueWrites, SameTransactionRewriteAllowed) {
  const History h = HistoryBuilder(1)
                        .write(1, 0, 5)
                        .write(1, 0, 5)
                        .tryc(1)
                        .build();
  EXPECT_TRUE(h.has_unique_writes());
}

TEST(UniqueWrites, WritingInitialValueViolates) {
  // T0 conceptually writes the initial value, so no transaction may.
  const History h = HistoryBuilder(1).write(1, 0, 0).tryc(1).build();
  EXPECT_FALSE(h.has_unique_writes());
}

TEST(UniqueWrites, DistinctValuesPass) {
  const History h = HistoryBuilder(2)
                        .write(1, 0, 1)
                        .write(1, 1, 2)
                        .tryc(1)
                        .write(2, 0, 3)
                        .tryc(2)
                        .build();
  EXPECT_TRUE(h.has_unique_writes());
}

TEST(InitialValues, CustomInitialValues) {
  auto r = History::make({Event::inv_read(1, 1), Event::resp_read(1, 1, 9)},
                         2, {7, 9});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value().initial_value(0), 7);
  EXPECT_EQ(r.value().initial_value(1), 9);
}

TEST(Participation, TixMapping) {
  const History h = simple_committed_pair();
  EXPECT_TRUE(h.participates(1));
  EXPECT_TRUE(h.participates(2));
  EXPECT_FALSE(h.participates(3));
  EXPECT_FALSE(h.participates(-1));
  EXPECT_EQ(h.txn(h.tix_of(1)).id, 1);
  EXPECT_EQ(h.txn(h.tix_of(2)).id, 2);
}

}  // namespace
}  // namespace duo::history
