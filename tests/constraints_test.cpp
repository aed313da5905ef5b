// Tests for the RCO [6] and TMS2 [5] edge computations (§4.2).
#include <gtest/gtest.h>

#include "checker/constraints.hpp"
#include "checker/engine.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"

namespace duo::checker {
namespace {

using history::parse_history_or_die;

bool has_edge(const Edges& edges, std::size_t a, std::size_t b) {
  for (const auto& [x, y] : edges)
    if (x == a && y == b) return true;
  return false;
}

/// The TMS2 verdict of h on each engine, forced.
void expect_tms2(const history::History& h, Verdict want) {
  for (const EngineKind engine : {EngineKind::kGraph, EngineKind::kDfs}) {
    CheckOptions opts;
    opts.engine = engine;
    EXPECT_EQ(check_with_engine(h, Criterion::kTms2, opts).verdict, want)
        << to_string(engine);
  }
}

TEST(RcoEdges, Figure5ForcesT2BeforeT3) {
  const auto h = history::figures::fig5();
  const auto edges = rco_commit_edges(h);
  // read2(X) responds before tryC3's invocation; T3 commits on X.
  EXPECT_TRUE(has_edge(edges, h.tix_of(2), h.tix_of(3)));
  // read2(Y) responds after tryC3: no edge from that read; and T1's tryC
  // precedes every read, so no reader->T1 edges.
  EXPECT_FALSE(has_edge(edges, h.tix_of(2), h.tix_of(1)));
}

TEST(RcoEdges, NoEdgeToAbortedWriters) {
  const auto h = parse_history_or_die("R2(X0)=0 W1(X0,1) C1=A");
  EXPECT_TRUE(rco_commit_edges(h).empty());
}

TEST(RcoEdges, NoEdgeWhenReadAfterTryC) {
  const auto h = parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2");
  const auto edges = rco_commit_edges(h);
  EXPECT_FALSE(has_edge(edges, h.tix_of(2), h.tix_of(1)));
}

TEST(RcoEdges, EdgeRequiresWriterCommitsOnObject) {
  // T1 commits but writes only Y; reading X cannot order against it.
  const auto h = parse_history_or_die("R2(X0)=0 W1(X1,1) C1 C2");
  EXPECT_TRUE(rco_commit_edges(h).empty());
}

TEST(RcoEdges, CommitPendingWritersConstrainedConditionally) {
  // T1 is commit-pending when read2 responds: the conditional edge must be
  // present so completions that commit T1 respect the read-commit order.
  const auto h = parse_history_or_die("R2(X0)=0 W1(X0,1) C1? C2");
  const auto edges = rco_commit_edges(h);
  bool found = false;
  for (const auto& [a, b] : edges)
    found |= (a == h.tix_of(2) && b == h.tix_of(1));
  EXPECT_TRUE(found);
}

TEST(Tms2Edges, Figure6ForcesT1BeforeT2) {
  const auto h = history::figures::fig6();
  const auto edges = tms2_edges(h);
  EXPECT_TRUE(has_edge(edges, h.tix_of(1), h.tix_of(2)));
  EXPECT_FALSE(has_edge(edges, h.tix_of(2), h.tix_of(1)));
}

TEST(Tms2Edges, RequiresTryCOrder) {
  // T2's tryC is invoked before T1's tryC responds: no edge.
  const auto h = parse_history_or_die(
      "R2?(X0) W1(X0,1) C1? R2!(X0)=0 C2? C1! C2!");
  EXPECT_TRUE(tms2_edges(h).empty());
}

TEST(Tms2Edges, RequiresReaderTryCInvocation) {
  // Reader never invokes tryC: the §4.2 condition does not constrain it.
  const auto h = parse_history_or_die("W1(X0,1) C1 R2(X0)=1");
  EXPECT_TRUE(tms2_edges(h).empty());
}

TEST(Tms2Edges, RequiresWriteReadConflict) {
  // Write-write only: the quoted condition covers Wset(T1) ∩ Rset(T2).
  const auto h = parse_history_or_die("W1(X0,1) C1 W2(X0,2) C2");
  EXPECT_TRUE(tms2_edges(h).empty());
}

TEST(Tms2Edges, AbortedWriterNoEdge) {
  const auto h = parse_history_or_die("W1(X0,1) C1=A R2(X0)=0 C2");
  EXPECT_TRUE(tms2_edges(h).empty());
}

TEST(Tms2Edges, NoEdgeToReadOnlyReader) {
  // T2 read X before T1 committed it and invoked tryC after: TMS2 [5] lets
  // a read-only transaction serialize at that earlier snapshot.
  const auto h = parse_history_or_die("R2(X0)=0 W1(X0,1) C1 C2");
  EXPECT_TRUE(tms2_edges(h).empty());
  expect_tms2(h, Verdict::kYes);
}

TEST(Tms2Edges, NoEdgeBindsAnAbortedUpdateReader) {
  // As above, but T2 also writes and aborts: it never commits, so it is
  // not ordered at commit either.
  const auto h = parse_history_or_die("R2(X0)=0 W2(X1,2) W1(X0,1) C1 C2=A");
  EXPECT_TRUE(tms2_edges(h).empty());
  expect_tms2(h, Verdict::kYes);
}

TEST(Tms2Edges, CommittingUpdateReaderIsOrderedAfterTheWriter) {
  // T2 writes and commits: T1 must precede it, so its read of the initial
  // value is stale. Not TMS2, though du-opaque (T2 serializes before T1).
  const auto h = parse_history_or_die("R2(X0)=0 W2(X1,2) W1(X0,1) C1 C2");
  EXPECT_TRUE(has_edge(tms2_edges(h), h.tix_of(1), h.tix_of(2)));
  expect_tms2(h, Verdict::kNo);
  EXPECT_TRUE(check_du_opacity(h).yes());
}

TEST(Tms2Edges, InternalReadCountsAsRset) {
  // T2 writes X then reads it (Rset includes X by the paper's literal
  // definition); T1 committed X earlier.
  const auto h = parse_history_or_die(
      "W1(X0,1) C1 W2(X0,2) R2(X0)=2 C2");
  const auto edges = tms2_edges(h);
  EXPECT_TRUE(has_edge(edges, h.tix_of(1), h.tix_of(2)));
}

}  // namespace
}  // namespace duo::checker
