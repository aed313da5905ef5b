// Tests for the RCO [6] and TMS2 [5] orders (§4.2): their chain
// encodings, expanded by commit_pairs, against the definitional all-pairs
// oracles below, and their verdicts on both engines.
#include <gtest/gtest.h>

#include <set>

#include "checker/constraints.hpp"
#include "checker/engine.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"
#include "util/rng.hpp"

namespace duo::checker {
namespace {

using history::History;
using history::Op;
using history::OpKind;
using history::parse_history_or_die;
using history::Transaction;

bool has_edge(const Edges& edges, std::size_t a, std::size_t b) {
  for (const auto& [x, y] : edges)
    if (x == a && y == b) return true;
  return false;
}

/// The criterion's verdict of h on each engine, forced.
void expect_verdict(const History& h, Criterion c, Verdict want) {
  for (const EngineKind engine : {EngineKind::kGraph, EngineKind::kDfs}) {
    CheckOptions opts;
    opts.engine = engine;
    EXPECT_EQ(check_with_engine(h, c, opts).verdict, want)
        << to_string(c) << " on " << to_string(engine);
  }
}

void expect_tms2(const History& h, Verdict want) {
  expect_verdict(h, Criterion::kTms2, want);
}

/// The RCO rule by its definition, pair by pair: (k, m) for every value
/// read of X by T_k that responds before the tryC invocation of a
/// committed or commit-pending X-writer T_m != T_k.
Edges oracle_rco_pairs(const History& h) {
  Edges edges;
  const std::size_t n = h.num_txns();
  for (std::size_t k = 0; k < n; ++k) {
    for (const Op& op : h.txn(k).ops) {
      if (!op.value_response()) continue;
      for (std::size_t m = 0; m < n; ++m) {
        if (m == k) continue;
        const Transaction& writer = h.txn(m);
        if (!(writer.committed() || writer.commit_pending())) continue;
        if (!writer.writes(op.obj)) continue;
        if (op.resp_index < *writer.tryc_inv) edges.emplace_back(k, m);
      }
    }
  }
  return edges;
}

/// The TMS2 rule by its definition, pair by pair: (a, b) for a committed
/// T_a and a committed or commit-pending update transaction T_b != T_a
/// that reads an object T_a writes and invokes tryC after T_a's tryC
/// response.
Edges oracle_tms2_pairs(const History& h) {
  Edges edges;
  const std::size_t n = h.num_txns();
  for (std::size_t a = 0; a < n; ++a) {
    const Transaction& ta = h.txn(a);
    if (!ta.committed()) continue;
    std::size_t ca_resp = 0;
    for (const Op& op : ta.ops)
      if (op.kind == OpKind::kTryCommit && op.has_response)
        ca_resp = op.resp_index;
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const Transaction& tb = h.txn(b);
      if (!(tb.committed() || tb.commit_pending())) continue;
      if (tb.final_writes.empty()) continue;
      if (ca_resp >= *tb.tryc_inv) continue;
      bool conflict = false;
      for (const Op& op : tb.ops)
        conflict |= op.value_response() && ta.writes(op.obj);
      if (conflict) edges.emplace_back(a, b);
    }
  }
  return edges;
}

using PairSet = std::set<std::pair<std::size_t, std::size_t>>;

PairSet as_set(const Edges& edges) { return {edges.begin(), edges.end()}; }

/// commit_pairs(order) lists each pair of `oracle` once, and no other;
/// `direct`, if given, counts the order's tix-to-tix edges.
void expect_pairs_match(const CommitOrder& order, const Edges& oracle,
                        const char* what, std::size_t* direct = nullptr) {
  const Edges pairs = commit_pairs(order);
  EXPECT_EQ(pairs.size(), as_set(pairs).size()) << what;
  EXPECT_EQ(as_set(pairs), as_set(oracle)) << what;
  if (direct != nullptr)
    for (const auto& [a, b] : order.edges)
      *direct += b < order.num_txns ? 1 : 0;
}

TEST(CommitOrders, ChainEncodingsMatchTheOraclesOnGeneratedHistories) {
  // Generous lifecycle knobs so aborted, commit-pending, running and
  // incomplete transactions all occur, in full histories and in their
  // prefixes (which cut transactions mid-operation). Few objects, so the
  // per-object chains are long and readers also write what they read.
  gen::GenOptions opts;
  opts.num_txns = 10;
  opts.num_objects = 2;
  opts.leave_running_prob = 0.2;
  opts.commit_pending_prob = 0.2;
  opts.tryc_abort_prob = 0.2;
  opts.drop_last_response_prob = 0.2;
  util::Xoshiro256 rng(2019);
  std::size_t aborted = 0, pending = 0, running = 0, rco_direct = 0;
  std::size_t rco_pairs = 0, tms2_pairs = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const History h = iter % 2 == 0 ? gen::random_history(opts, rng)
                                    : gen::random_du_history(opts, rng);
    for (const Transaction& t : h.transactions()) {
      aborted += t.aborted() ? 1 : 0;
      pending += t.commit_pending() ? 1 : 0;
      running += t.status == history::TxnStatus::kRunning ? 1 : 0;
    }
    for (std::size_t len = 0; len <= h.size(); ++len) {
      const History p = h.prefix(len);
      const Edges rco = oracle_rco_pairs(p);
      const Edges tms2 = oracle_tms2_pairs(p);
      expect_pairs_match(rco_commit_edges(p), rco, "rco", &rco_direct);
      expect_pairs_match(tms2_edges(p), tms2, "tms2");
      rco_pairs += rco.size();
      tms2_pairs += tms2.size();
      if (testing::Test::HasFailure()) {
        ADD_FAILURE() << "iteration " << iter << ", prefix of " << len
                      << " events";
        return;
      }
    }
  }
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(pending, 0u);
  EXPECT_GT(running, 0u);
  EXPECT_GT(rco_direct, 0u);  // the self-exclusion path ran
  EXPECT_GT(rco_pairs, 0u);
  EXPECT_GT(tms2_pairs, 0u);
}

TEST(RcoEdges, Figure5ForcesT2BeforeT3) {
  const auto h = history::figures::fig5();
  const auto edges = commit_pairs(rco_commit_edges(h));
  // read2(X) responds before tryC3's invocation; T3 commits on X.
  EXPECT_TRUE(has_edge(edges, h.tix_of(2), h.tix_of(3)));
  // read2(Y) responds after tryC3: no edge from that read; and T1's tryC
  // precedes every read, so no reader->T1 edges.
  EXPECT_FALSE(has_edge(edges, h.tix_of(2), h.tix_of(1)));
}

TEST(RcoEdges, NoEdgeToAbortedWriters) {
  const auto h = parse_history_or_die("R2(X0)=0 W1(X0,1) C1=A");
  EXPECT_TRUE(commit_pairs(rco_commit_edges(h)).empty());
}

TEST(RcoEdges, NoEdgeWhenReadAfterTryC) {
  const auto h = parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2");
  const auto edges = commit_pairs(rco_commit_edges(h));
  EXPECT_FALSE(has_edge(edges, h.tix_of(2), h.tix_of(1)));
}

TEST(RcoEdges, EdgeRequiresWriterCommitsOnObject) {
  // T1 commits but writes only Y; reading X cannot order against it.
  const auto h = parse_history_or_die("R2(X0)=0 W1(X1,1) C1 C2");
  EXPECT_TRUE(commit_pairs(rco_commit_edges(h)).empty());
}

TEST(RcoEdges, CommitPendingWritersConstrainedConditionally) {
  // T1 is commit-pending when read2 responds: the conditional edge must be
  // present so completions that commit T1 respect the read-commit order.
  const auto h = parse_history_or_die("R2(X0)=0 W1(X0,1) C1? C2");
  const auto edges = commit_pairs(rco_commit_edges(h));
  bool found = false;
  for (const auto& [a, b] : edges)
    found |= (a == h.tix_of(2) && b == h.tix_of(1));
  EXPECT_TRUE(found);
}

TEST(RcoEdges, ReadModifyWriteReaderIsNotOrderedBeforeItself) {
  // T1 reads X and writes it: it precedes the later writer T2, never
  // itself, so its chain entry skips its own position.
  const auto h = parse_history_or_die("R1(X0)=0 W1(X0,1) C1 W2(X0,2) C2");
  EXPECT_EQ(as_set(commit_pairs(rco_commit_edges(h))),
            (PairSet{{h.tix_of(1), h.tix_of(2)}}));
  expect_verdict(h, Criterion::kRcoOpacity, Verdict::kYes);
}

TEST(RcoEdges, WriterTryCBetweenReadAndOwnTryCGetsADirectEdge) {
  // T1 reads X from T2 before T2 invokes tryC, then writes X itself; T2's
  // tryC comes between T1's read and T1's tryC. T1 must precede T2 (and
  // T3), but it read T2's write: no RCO serialization, though T2 T1 T3 is
  // final-state opaque.
  const auto h = parse_history_or_die(
      "W2(X0,2) R1(X0)=2 C2 W1(X0,1) C1 W3(X0,3) C3");
  const CommitOrder order = rco_commit_edges(h);
  EXPECT_TRUE(has_edge(order.edges, h.tix_of(1), h.tix_of(2)));
  EXPECT_EQ(as_set(commit_pairs(order)),
            (PairSet{{h.tix_of(1), h.tix_of(2)}, {h.tix_of(1), h.tix_of(3)}}));
  expect_verdict(h, Criterion::kRcoOpacity, Verdict::kNo);
  expect_verdict(h, Criterion::kFinalStateOpacity, Verdict::kYes);
}

TEST(RcoEdges, AbortedReaderOrdersTheLaterWriter) {
  // An aborted source still orders: T1 read T2's X before T2's tryC, so
  // T1 must precede T2, which it read from.
  const auto h = parse_history_or_die("W2(X0,2) R1(X0)=2 C2 C1=A");
  EXPECT_EQ(as_set(commit_pairs(rco_commit_edges(h))),
            (PairSet{{h.tix_of(1), h.tix_of(2)}}));
  expect_verdict(h, Criterion::kRcoOpacity, Verdict::kNo);
  expect_verdict(h, Criterion::kFinalStateOpacity, Verdict::kYes);
}

TEST(RcoEdges, ChainExitBindsOnlyWhenTheWriterCommits) {
  // Each reads an object before the other invokes tryC, so each must
  // precede the other if both commit. T2 is commit-pending and nobody
  // reads from it: the completion aborts it, and T1's chain exit to T2
  // does not bind.
  const auto h =
      parse_history_or_die("R1(X0)=0 R2(X1)=0 W1(X1,1) W2(X0,2) C1 C2?");
  EXPECT_EQ(as_set(commit_pairs(rco_commit_edges(h))),
            (PairSet{{h.tix_of(1), h.tix_of(2)}, {h.tix_of(2), h.tix_of(1)}}));
  expect_verdict(h, Criterion::kRcoOpacity, Verdict::kYes);
}

TEST(Tms2Edges, Figure6ForcesT1BeforeT2) {
  const auto h = history::figures::fig6();
  const auto edges = commit_pairs(tms2_edges(h));
  EXPECT_TRUE(has_edge(edges, h.tix_of(1), h.tix_of(2)));
  EXPECT_FALSE(has_edge(edges, h.tix_of(2), h.tix_of(1)));
}

TEST(Tms2Edges, RequiresTryCOrder) {
  // T2's tryC is invoked before T1's tryC responds: no edge.
  const auto h = parse_history_or_die(
      "R2?(X0) W1(X0,1) C1? R2!(X0)=0 C2? C1! C2!");
  EXPECT_TRUE(commit_pairs(tms2_edges(h)).empty());
}

TEST(Tms2Edges, RequiresReaderTryCInvocation) {
  // Reader never invokes tryC: the §4.2 condition does not constrain it.
  const auto h = parse_history_or_die("W1(X0,1) C1 R2(X0)=1");
  EXPECT_TRUE(commit_pairs(tms2_edges(h)).empty());
}

TEST(Tms2Edges, RequiresWriteReadConflict) {
  // Write-write only: the quoted condition covers Wset(T1) ∩ Rset(T2).
  const auto h = parse_history_or_die("W1(X0,1) C1 W2(X0,2) C2");
  EXPECT_TRUE(commit_pairs(tms2_edges(h)).empty());
}

TEST(Tms2Edges, AbortedWriterNoEdge) {
  const auto h = parse_history_or_die("W1(X0,1) C1=A R2(X0)=0 C2");
  EXPECT_TRUE(commit_pairs(tms2_edges(h)).empty());
}

TEST(Tms2Edges, NoEdgeToReadOnlyReader) {
  // T2 read X before T1 committed it and invoked tryC after: TMS2 [5] lets
  // a read-only transaction serialize at that earlier snapshot.
  const auto h = parse_history_or_die("R2(X0)=0 W1(X0,1) C1 C2");
  EXPECT_TRUE(commit_pairs(tms2_edges(h)).empty());
  expect_tms2(h, Verdict::kYes);
}

TEST(Tms2Edges, NoEdgeBindsAnAbortedUpdateReader) {
  // As above, but T2 also writes and aborts: it never commits, so it is
  // not ordered at commit either.
  const auto h = parse_history_or_die("R2(X0)=0 W2(X1,2) W1(X0,1) C1 C2=A");
  EXPECT_TRUE(commit_pairs(tms2_edges(h)).empty());
  expect_tms2(h, Verdict::kYes);
}

TEST(Tms2Edges, CommittingUpdateReaderIsOrderedAfterTheWriter) {
  // T2 writes and commits: T1 must precede it, so its read of the initial
  // value is stale. Not TMS2, though du-opaque (T2 serializes before T1).
  const auto h = parse_history_or_die("R2(X0)=0 W2(X1,2) W1(X0,1) C1 C2");
  EXPECT_TRUE(
      has_edge(commit_pairs(tms2_edges(h)), h.tix_of(1), h.tix_of(2)));
  expect_tms2(h, Verdict::kNo);
  EXPECT_TRUE(check_du_opacity(h).yes());
}

TEST(Tms2Edges, InternalReadCountsAsRset) {
  // T2 writes X then reads it (Rset includes X by the paper's literal
  // definition); T1 committed X earlier.
  const auto h = parse_history_or_die(
      "W1(X0,1) C1 W2(X0,2) R2(X0)=2 C2");
  const auto edges = commit_pairs(tms2_edges(h));
  EXPECT_TRUE(has_edge(edges, h.tix_of(1), h.tix_of(2)));
}

}  // namespace
}  // namespace duo::checker
