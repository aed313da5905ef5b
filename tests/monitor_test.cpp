// OnlineMonitor tests: latching behavior, the incremental graph fast path,
// and the core equivalence property — for every prefix of every history,
// the monitor's verdict equals check_all_prefixes with du-opacity, and
// a latched first_violation() equals the batch checker::first_bad_prefix
// index (both 0-based). Histories come from the random generators
// (including mutants around the du boundary) and from recorded
// multithreaded runs of every backend in the STM registry, including the
// fault-injected variants.
#include <gtest/gtest.h>

#include "checker/engine.hpp"
#include "checker/prefix_closure.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"
#include "monitor/monitor.hpp"
#include "stm/registry.hpp"
#include "stm/workload.hpp"

namespace duo::monitor {
namespace {

using checker::Verdict;
using history::History;

// Feeds every event of `h` and checks the monitor verdict after each
// against the offline per-prefix re-check; also checks the latch index —
// 0-based, so it is check_all_prefixes' first bad length minus one — and
// its agreement with the two batch-side first-bad-prefix queries.
void expect_matches_offline(const History& h) {
  const auto report = checker::check_all_prefixes(
      h, checker::criterion_fn(checker::Criterion::kDuOpacity));
  OnlineMonitor mon;
  ASSERT_EQ(mon.verdict(), report.verdicts[0]) << history::compact(h);
  for (std::size_t n = 0; n < h.size(); ++n) {
    const auto fed = mon.feed(h.events()[n]);
    ASSERT_TRUE(fed.has_value()) << fed.error();
    ASSERT_EQ(fed.value(), report.verdicts[n + 1])
        << "prefix " << n + 1 << " of " << history::compact(h);
  }
  const auto batch = checker::first_bad_prefix(
      h, checker::Criterion::kDuOpacity, checker::CheckOptions{});
  const auto streamed = first_violation_index(h.events());
  if (report.first_no.has_value()) {
    ASSERT_TRUE(mon.first_violation().has_value()) << history::compact(h);
    EXPECT_EQ(*mon.first_violation(), *report.first_no - 1)
        << history::compact(h);
    ASSERT_TRUE(batch.has_value()) << history::compact(h);
    EXPECT_EQ(*batch, *mon.first_violation()) << history::compact(h);
    ASSERT_TRUE(streamed.has_value()) << history::compact(h);
    EXPECT_EQ(*streamed, *mon.first_violation()) << history::compact(h);
  } else {
    EXPECT_FALSE(mon.first_violation().has_value()) << history::compact(h);
    EXPECT_FALSE(batch.has_value()) << history::compact(h);
    EXPECT_FALSE(streamed.has_value()) << history::compact(h);
  }
}

OnlineMonitor feed_all(const History& h) {
  OnlineMonitor mon;
  for (const auto& e : h.events()) {
    const auto fed = mon.feed(e);
    EXPECT_TRUE(fed.has_value()) << fed.error();
  }
  return mon;
}

TEST(OnlineMonitor, EmptyPrefixIsDuOpaque) {
  OnlineMonitor mon;
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_EQ(mon.events_fed(), 0u);
  EXPECT_FALSE(mon.first_violation().has_value());
}

TEST(OnlineMonitor, LatchesAtFirstBadEventAndStaysLatched) {
  // Figure 3's shape: T2 reads T1's value before T1 invokes tryC. The read
  // response (index 3, the 4th event) already has no can-commit writer, so
  // the latch must land there.
  const auto h =
      history::parse_history_or_die("W1(X0,1) R2(X0)=1 C1 C2");
  auto mon = feed_all(h);
  EXPECT_EQ(mon.verdict(), Verdict::kNo);
  ASSERT_TRUE(mon.first_violation().has_value());
  EXPECT_EQ(*mon.first_violation(), 3u);
  EXPECT_FALSE(mon.explanation().empty());
  EXPECT_TRUE(mon.stats().latched_by_fast_path);
  EXPECT_EQ(mon.stats().full_checks, 0u);
  // Latched verdicts are permanent per prefix closure; later events keep
  // the first violation index.
  expect_matches_offline(h);
}

TEST(OnlineMonitor, DuOpaqueTraceStaysOnTheGraphFastPath) {
  const auto h =
      history::parse_history_or_die("W1(X0,1) C1 R2(X0)=1 W2(X1,2) C2");
  auto mon = feed_all(h);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  // Every event must resolve on the incremental graph: no fallback checks,
  // no deferred edges, no unique-writes debt.
  EXPECT_EQ(mon.stats().full_checks, 0u) << mon.stats().events;
  EXPECT_EQ(mon.stats().fast_yes, h.size());
  EXPECT_EQ(mon.stats().deferred_edges, 0u);
}

TEST(OnlineMonitor, CanonicalOrderCycleFallsBackAndStaysExact) {
  // T1 and T2 run concurrently; T2 (value 2) commits before T1 (value 1),
  // then T3 — which starts after both completed — reads 2. The canonical
  // install order puts T2 before T1, making T3's anti-dependency edge
  // T3 -> T1 close a cycle with the real-time edge T1 -> T3; the true
  // version order (T1 before T2) satisfies everything. The monitor must
  // park the edge, answer through the fallback, and stay exact.
  const auto h = history::parse_history_or_die(
      "W1?(X0,1) W1!(X0) W2(X0,2) C2 C1 R3(X0)=2 C3");
  auto mon = feed_all(h);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_GE(mon.stats().deferred_edges, 1u);
  EXPECT_GE(mon.stats().full_checks, 1u);
  expect_matches_offline(h);
}

TEST(OnlineMonitor, ParkedEdgesDrainWhenTheGraphThins) {
  // As above, but a fourth writer briefly duplicates T2's value (tryC then
  // abort): the duplicate unresolves T3's read — releasing the parked
  // anti-dependency edge — and the abort re-resolves and re-parks it. The
  // monitor must track the churn and agree with the offline checker on
  // every prefix.
  const auto h = history::parse_history_or_die(
      "W1?(X0,1) W1!(X0) W2(X0,2) C2 C1 R3(X0)=2 "
      "W4?(X0,2) W4!(X0) C4? C4!=A C3");
  auto mon = feed_all(h);
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_GE(mon.stats().deferred_edges, 2u);
  EXPECT_GE(mon.stats().edges_removed, 1u);
  expect_matches_offline(h);
}

TEST(OnlineMonitor, ObjectSpaceGrowsWithTheStream) {
  OnlineMonitor mon;
  EXPECT_EQ(mon.num_objects(), 0);
  ASSERT_TRUE(mon.feed(history::Event::inv_write(1, 7, 5)).has_value());
  EXPECT_EQ(mon.num_objects(), 8);
}

TEST(OnlineMonitor, SparseHugeObjectIdsStayOnTheFastPath) {
  // Unbounded object mode must grow per-object state on demand: scattered
  // ids far apart (here ~2e9, near the ObjId limit) may not allocate dense
  // per-object arrays or leave any vector indexed past its size. The whole
  // trace must resolve incrementally — the fallback tier would materialize
  // a dense History.
  constexpr history::ObjId kHuge = 2'000'000'000;
  OnlineMonitor mon;
  const auto feed = [&](const history::Event& e) {
    const auto fed = mon.feed(e);
    ASSERT_TRUE(fed.has_value()) << fed.error();
  };
  feed(history::Event::inv_write(1, kHuge, 7));
  feed(history::Event::resp_write_ok(1, kHuge));
  feed(history::Event::inv_tryc(1));
  feed(history::Event::resp_commit(1));
  feed(history::Event::inv_read(2, kHuge));
  feed(history::Event::resp_read(2, kHuge, 7));
  feed(history::Event::inv_read(2, 3));
  feed(history::Event::resp_read(2, 3, 0));
  feed(history::Event::inv_tryc(2));
  feed(history::Event::resp_commit(2));
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
  EXPECT_EQ(mon.stats().full_checks, 0u);
  EXPECT_EQ(mon.num_objects(), kHuge + 1);
}

TEST(OnlineMonitor, SparseHugeObjectIdsLatchViolationsEventLocally) {
  constexpr history::ObjId kHuge = 1'999'999'999;
  OnlineMonitor mon;
  ASSERT_TRUE(mon.feed(history::Event::inv_read(1, kHuge)).has_value());
  const auto fed = mon.feed(history::Event::resp_read(1, kHuge, 42));
  ASSERT_TRUE(fed.has_value());
  // Nobody can commit (X_huge, 42): the rejection is event-local, so even
  // in sparse-id mode no fallback (dense) check is needed.
  EXPECT_EQ(fed.value(), Verdict::kNo);
  ASSERT_TRUE(mon.first_violation().has_value());
  EXPECT_EQ(*mon.first_violation(), 1u);
  EXPECT_EQ(mon.stats().full_checks, 0u);
}

TEST(OnlineMonitor, FixedObjectSpaceRejectsOutOfRange) {
  MonitorOptions opts;
  opts.num_objects = 2;
  OnlineMonitor mon(opts);
  EXPECT_FALSE(mon.feed(history::Event::inv_read(1, 2)).has_value());
  EXPECT_EQ(mon.events_fed(), 0u);
}

TEST(OnlineMonitor, MalformedEventIsRejectedAndDiscarded) {
  OnlineMonitor mon;
  // Response without a pending invocation.
  const auto bad = mon.feed(history::Event::resp_commit(1));
  ASSERT_FALSE(bad.has_value());
  EXPECT_NE(bad.error().find("response without pending invocation"),
            std::string::npos);
  EXPECT_EQ(mon.events_fed(), 0u);
  // The monitor stays usable.
  EXPECT_TRUE(mon.feed(history::Event::inv_tryc(1)).has_value());
  EXPECT_TRUE(mon.feed(history::Event::resp_commit(1)).has_value());
  EXPECT_EQ(mon.verdict(), Verdict::kYes);
}

TEST(OnlineMonitor, RepeatedReadRejectedLikeHistoryMake) {
  OnlineMonitor mon;
  ASSERT_TRUE(mon.feed(history::Event::inv_read(1, 0)).has_value());
  ASSERT_TRUE(mon.feed(history::Event::resp_read(1, 0, 0)).has_value());
  EXPECT_FALSE(mon.feed(history::Event::inv_read(1, 0)).has_value());
}

TEST(OnlineMonitor, PaperFiguresMatchOffline) {
  expect_matches_offline(history::figures::fig1());
  expect_matches_offline(history::figures::fig3());
  expect_matches_offline(history::figures::fig4());
}

TEST(OnlineMonitor, HistoryRoundTripsWhatWasFed) {
  const auto h = history::parse_history_or_die("W1(X0,1) C1 R2(X0)=1 C2");
  auto mon = feed_all(h);
  EXPECT_TRUE(mon.history().equivalent_to(h));
  EXPECT_EQ(mon.history().size(), h.size());
}

// -- equivalence property over generated histories --------------------------

class MonitorEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonitorEquivalence, GeneratedHistoriesMatchOffline) {
  util::Xoshiro256 rng(GetParam());
  gen::GenOptions opts;
  opts.num_txns = 5;
  opts.num_objects = 2;
  opts.value_range = 2;
  for (int iter = 0; iter < 10; ++iter) {
    const auto h = (iter % 2 == 0) ? gen::random_history(opts, rng)
                                   : gen::random_du_history(opts, rng);
    expect_matches_offline(h);
  }
}

TEST_P(MonitorEquivalence, MutantsMatchOffline) {
  util::Xoshiro256 rng(GetParam() * 131 + 17);
  gen::GenOptions opts;
  opts.num_txns = 4;
  opts.num_objects = 2;
  for (int iter = 0; iter < 10; ++iter) {
    auto h = gen::random_du_history(opts, rng);
    h = gen::mutate(h, rng);
    expect_matches_offline(h);
  }
}

TEST_P(MonitorEquivalence, UniqueWriteMixesStayFastAndMatchOffline) {
  // The unique-writes generator produces the class the fast path decides
  // outright: no unique-writes debt, so any fallback must come from a
  // canonical-order park, which these mixes should essentially never hit.
  util::Xoshiro256 rng(GetParam() * 977 + 5);
  gen::GenOptions opts;
  opts.num_txns = 6;
  opts.num_objects = 3;
  opts.unique_writes = true;
  for (int iter = 0; iter < 5; ++iter) {
    const auto h = gen::random_du_history(opts, rng);
    expect_matches_offline(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorEquivalence,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull));

// -- equivalence property over recorded STM executions -----------------------
//
// Every backend in the registry — deferred, direct, and fault-injected —
// is recorded under a contended workload, and the monitor must agree with
// the offline checker on every prefix, including the first-violation index
// when the backend's fault produces one.

class MonitorRecordingEquivalence
    : public ::testing::TestWithParam<stm::BackendInfo> {};

TEST_P(MonitorRecordingEquivalence, RecordedRunsMatchOffline) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    stm::Recorder rec(1 << 12);
    auto s = stm::make_stm(GetParam().name, 3, &rec);
    ASSERT_NE(s, nullptr);
    stm::WorkloadOptions wopts;
    wopts.threads = 2;
    wopts.txns_per_thread = 2;
    wopts.ops_per_txn = 2;
    wopts.objects = 3;
    wopts.write_fraction = 0.6;
    wopts.seed = seed;
    stm::run_random_mix(*s, wopts);
    const auto h = rec.finish(s->num_objects());
    expect_matches_offline(h);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, MonitorRecordingEquivalence,
    ::testing::ValuesIn(stm::registered_backends()),
    [](const ::testing::TestParamInfo<stm::BackendInfo>& info) {
      return stm::test_identifier(info.param);
    });

}  // namespace
}  // namespace duo::monitor
