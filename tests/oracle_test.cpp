// Differential oracle: every front end that judges du-opacity gives one
// answer per trace. du-opacity is prefix-closed (Lemma 1 / Corollary 2), so
// a trace has one verdict per prefix and at most one first-violation index.
// The reference is check_all_prefixes under du-opacity; against it, on every
// corpus input:
//
//   - checker::first_bad_prefix;
//   - brute_force_search (the definition, enumerated), on inputs of at most
//     kBruteForceTxns transactions;
//   - OnlineMonitor::feed_batch at batch sizes {1, 7, whole} x kShardCounts
//     x GC {off, on (gc_retain_events = 0: a pass after every batch)}, held
//     to the reference verdict at every batch end. Batch size 1 is the
//     per-event monitor (feed() is a batch of one), and the reference for
//     the rest: diagnoses and stats must be bit-identical to it wherever
//     batching cannot move a GC pass (GC off, or batch size 1);
//   - IngestPipeline over chunks of {1, 3, 64} tokens, at the same shard
//     counts and GC settings;
//   - on unique-writes inputs, the graph engine, the DFS and the auto router
//     on all six criteria; each graph "yes" witness is re-checked by
//     verify_serialization.
//
// The corpus holds every input the monitor, GC, shard, engine and pipeline
// tests used to sweep one pair of front ends at a time, with the same
// GenOptions and seeds. Recordings are the only inputs whose interleaving
// changes from run to run; CI repeats the Registry/OracleRecordings cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checker/engine.hpp"
#include "checker/legality.hpp"
#include "checker/oracle.hpp"
#include "checker/prefix_closure.hpp"
#include "gen/generator.hpp"
#include "history/figures.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"
#include "monitor/monitor.hpp"
#include "service/pipeline.hpp"
#include "stm/recorder.hpp"
#include "stm/registry.hpp"
#include "stm/workload.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace duo {
namespace {

using checker::Criterion;
using checker::Verdict;
using history::Event;
using history::History;
using monitor::MonitorOptions;
using monitor::OnlineMonitor;

constexpr std::array<std::size_t, 4> kShardCounts = {1, 2, 4, 8};
constexpr std::array<std::size_t, 3> kBatchSizes = {1, 7, 0};  // 0: whole
constexpr std::array<std::size_t, 3> kChunkTokens = {1, 3, 64};
constexpr std::size_t kBruteForceTxns = 5;

struct Case {
  std::string label;
  History h;
  /// The graph engine must decide du-opacity rather than decline: the bar
  /// for idealized and recorded deferred-update traffic.
  bool graph_must_decide = false;
};

using Corpus = std::vector<Case>;

// -- monitor front ends -------------------------------------------------------

struct Run {
  Verdict verdict = Verdict::kYes;
  std::optional<std::size_t> first_violation;
  std::string explanation;
  std::size_t events_fed = 0;
  monitor::MonitorStats stats;
};

MonitorOptions monitor_options(bool gc, std::size_t shards) {
  MonitorOptions opts;
  opts.gc = gc;
  opts.gc_retain_events = 0;
  opts.shards = shards;
  return opts;
}

/// Feeds `h` through feed_batch in batches of `batch` events (0: one batch)
/// until it latches, holding each batch end to the reference verdict.
Run run_monitor(const History& h, const MonitorOptions& opts,
                std::size_t batch, const checker::PrefixReport& ref) {
  OnlineMonitor mon(opts);
  const std::vector<Event>& events = h.events();
  std::size_t i = 0;
  while (i < events.size() && mon.verdict() != Verdict::kNo) {
    const std::size_t want =
        batch == 0 ? events.size() - i : std::min(batch, events.size() - i);
    const auto out = mon.feed_batch(events.data() + i, want);
    if (!out.error.empty()) {
      ADD_FAILURE() << "rejected event " << i + out.consumed << ": "
                    << out.error;
      break;
    }
    i += out.consumed;
    EXPECT_EQ(mon.verdict(), ref.verdicts[i]) << "prefix " << i;
  }
  return {mon.verdict(), mon.first_violation(), mon.explanation(),
          mon.events_fed(), mon.stats()};
}

/// Splits `text` into chunks of `tokens` whitespace-separated tokens, the
/// unit producers hand to the pipeline.
std::vector<std::string> token_chunks(const std::string& text,
                                      std::size_t tokens) {
  std::istringstream in(text);
  std::vector<std::string> chunks(1);
  std::size_t count = 0;
  for (std::string token; in >> token; ++count) {
    if (count == tokens) {
      chunks.emplace_back();
      count = 0;
    }
    chunks.back() += token + ' ';
  }
  return chunks;
}

/// Feeds `h`, printed as `text`, through the pipeline in chunks of `tokens`
/// tokens. The pipeline also names the latching event.
Run run_pipeline(const History& h, const std::string& text,
                 const MonitorOptions& opts, std::size_t tokens) {
  service::IngestPipeline pipeline(service::PipelineOptions{opts});
  for (auto& chunk : token_chunks(text, tokens))
    if (!pipeline.submit(std::move(chunk))) break;
  const service::PipelineResult r = pipeline.finish();
  EXPECT_FALSE(r.error) << r.explanation;
  if (r.first_violation.has_value() && *r.first_violation < h.size()) {
    EXPECT_EQ(r.violating_event, h.events()[*r.first_violation]);
  }
  return {r.verdict, r.first_violation, r.explanation, r.events, r.monitor};
}

/// `identical`: no GC pass moved, so the runs are one computation. (A pass
/// that retires a version early turns a "stale read" diagnosis into "no
/// transaction that can commit writes this value".)
void expect_same(const Run& ref, const Run& got, bool identical) {
  EXPECT_EQ(got.verdict, ref.verdict);
  EXPECT_EQ(got.first_violation, ref.first_violation);
  EXPECT_EQ(got.events_fed, ref.events_fed);
  if (!identical) return;
  EXPECT_EQ(got.explanation, ref.explanation);
  EXPECT_TRUE(got.stats == ref.stats) << "monitor stats differ";
}

// -- checker front ends -------------------------------------------------------

bool brute_force_du(const History& h) {
  checker::SerializationRules rules;
  rules.deferred_update = true;
  return checker::brute_force_search(h, rules).serializable;
}

/// The definition-based rules a witness of criterion c over h must satisfy.
checker::SerializationRules rules_for(Criterion c, const History& h) {
  const checker::CriterionRow& row = checker::criterion_row(c);
  checker::SerializationRules rules;
  // A graph witness for opacity is a du witness (Theorem 11).
  rules.deferred_update = row.deferred_update || row.per_prefix;
  if (row.commit_edges != nullptr)
    rules.commit_edges = checker::commit_pairs(row.commit_edges(h));
  return rules;
}

/// Graph engine vs DFS vs auto router on all six criteria.
void expect_engines_agree(const Case& c) {
  const History& h = c.h;
  for (const Criterion crit : checker::all_criteria()) {
    SCOPED_TRACE("criterion " + checker::to_string(crit));
    checker::CheckOptions dfs_opts;
    dfs_opts.engine = checker::EngineKind::kDfs;
    const auto dfs = checker::check_with_engine(h, crit, dfs_opts);
    ASSERT_NE(dfs.verdict, Verdict::kUnknown) << dfs.explanation;

    const auto graph = checker::graph_engine().check(h, crit, {});
    if (graph.verdict != Verdict::kUnknown) {
      EXPECT_EQ(graph.verdict, dfs.verdict)
          << "graph: " << graph.explanation << "\ndfs: " << dfs.explanation;
      if (graph.yes() && graph.witness.has_value()) {
        const History& target =
            checker::criterion_row(crit).committed_projection
                ? checker::committed_projection(h)
                : h;
        const auto violations = checker::verify_serialization(
            target, *graph.witness, rules_for(crit, target));
        EXPECT_TRUE(violations.empty())
            << "graph witness invalid: " << violations.front();
      }
    } else if (c.graph_must_decide && crit == Criterion::kDuOpacity) {
      ADD_FAILURE() << "graph engine declined du-opacity: "
                    << graph.explanation;
    }

    const auto routed = checker::check_with_engine(h, crit);
    EXPECT_EQ(routed.verdict, dfs.verdict)
        << "routed by " << routed.engine.engine;
  }
}

// -- the oracle ---------------------------------------------------------------

void expect_one_answer(const Case& c) {
  const History& h = c.h;
  const std::string text = history::compact(h);
  SCOPED_TRACE(c.label + ": " + text);

  const checker::PrefixReport ref = checker::check_all_prefixes(
      h, checker::criterion_fn(Criterion::kDuOpacity));
  ASSERT_TRUE(ref.downward_closed) << "du-opacity must be prefix-closed";
  ASSERT_TRUE(std::find(ref.verdicts.begin(), ref.verdicts.end(),
                        Verdict::kUnknown) == ref.verdicts.end());
  std::optional<std::size_t> first;
  if (ref.first_no.has_value()) first = *ref.first_no - 1;

  EXPECT_EQ(checker::first_bad_prefix(h, Criterion::kDuOpacity), first)
      << "first_bad_prefix";

  if (h.num_txns() <= kBruteForceTxns) {
    // Prefix closure lets two prefixes pin the index: the last yes and the
    // first no.
    EXPECT_EQ(brute_force_du(h), !first.has_value()) << "brute force";
    if (first.has_value()) {
      EXPECT_TRUE(brute_force_du(h.prefix(*first))) << "brute force";
      EXPECT_FALSE(brute_force_du(h.prefix(*first + 1))) << "brute force";
    }
  }

  for (const bool gc : {false, true}) {
    const Run per_event = run_monitor(h, monitor_options(gc, 1), 1, ref);
    EXPECT_EQ(per_event.first_violation, first) << "monitor gc=" << gc;
    for (const std::size_t shards : kShardCounts) {
      const MonitorOptions opts = monitor_options(gc, shards);
      const std::string where =
          " gc=" + std::to_string(gc) + " shards=" + std::to_string(shards);
      for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE("feed_batch" + where + " batch=" + std::to_string(batch));
        expect_same(per_event, run_monitor(h, opts, batch, ref),
                    !gc || batch == 1);
      }
      for (const std::size_t tokens : kChunkTokens) {
        SCOPED_TRACE("pipeline" + where + " tokens=" + std::to_string(tokens));
        expect_same(per_event, run_pipeline(h, text, opts, tokens), !gc);
      }
    }
  }

  if (h.has_unique_writes()) expect_engines_agree(c);
}

void expect_one_answer(const Corpus& corpus) {
  for (const Case& c : corpus) {
    expect_one_answer(c);
    if (::testing::Test::HasFailure()) return;  // first failing input only
  }
}

// -- the corpus ---------------------------------------------------------------

/// Appends n histories make(rng, i) drawn from one generator seeded `seed`.
template <class Make>
void add(Corpus& out, const std::string& what, std::uint64_t seed, int n,
         const Make& make, bool graph_must_decide = false) {
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i)
    out.push_back({what + " seed " + std::to_string(seed) + " #" +
                       std::to_string(i),
                   make(rng, i), graph_must_decide});
}

constexpr gen::GenOptions kSmall{.num_txns = 5, .num_objects = 2,
                                 .value_range = 2};

History mixed(const gen::GenOptions& opts, util::Xoshiro256& rng, bool du) {
  return du ? gen::random_du_history(opts, rng)
            : gen::random_history(opts, rng);
}

History mutant(const gen::GenOptions& opts, util::Xoshiro256& rng) {
  return gen::mutate(gen::random_du_history(opts, rng), rng);
}

/// Seeds 1-8: small random and du-constructed histories, 4-transaction
/// mutants and 6-transaction unique-writes mixes.
Corpus monitor_sweep() {
  constexpr gen::GenOptions kMutant{.num_txns = 4, .num_objects = 2};
  constexpr gen::GenOptions kUnique{.num_txns = 6, .num_objects = 3,
                                    .unique_writes = true};
  Corpus out;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    add(out, "mixed", seed, 10,
        [&](auto& rng, int i) { return mixed(kSmall, rng, i % 2 == 1); });
    add(out, "mutant", seed * 131 + 17, 10,
        [&](auto& rng, int) { return mutant(kMutant, rng); });
    add(out, "unique 6x3", seed * 977 + 5, 5,
        [&](auto& rng, int) { return gen::random_du_history(kUnique, rng); });
  }
  return out;
}

/// Seeds 1-200, one history and one mutant each, plus 12-transaction
/// unique-writes mixes over 3 and 5 objects.
Corpus settled_sweep() {
  constexpr gen::GenOptions kUnique3{.num_txns = 12, .num_objects = 3,
                                     .unique_writes = true};
  constexpr gen::GenOptions kUnique5{.num_txns = 12, .num_objects = 5,
                                     .unique_writes = true};
  Corpus out;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    add(out, "mixed", seed, 1,
        [&](auto& rng, int) { return mixed(kSmall, rng, seed % 2 == 1); });
    add(out, "mutant", seed * 131 + 17, 1,
        [&](auto& rng, int) { return mutant(kSmall, rng); });
  }
  for (std::uint64_t p = 0; p < 8; ++p) {
    add(out, "unique 12x3", p * 977 + 5, 5,
        [&](auto& rng, int) { return gen::random_du_history(kUnique3, rng); });
    add(out, "unique 12x5", p * 977 + 5, 3,
        [&](auto& rng, int) { return gen::random_du_history(kUnique5, rng); });
  }
  return out;
}

/// 7-transaction unique-writes mixes: random, du-constructed, abort-heavy,
/// commit-pending-heavy and doubly mutated.
Corpus engine_mixes() {
  constexpr gen::GenOptions kBase{.num_txns = 7, .num_objects = 3,
                                  .unique_writes = true};
  gen::GenOptions aborts = kBase;
  aborts.tryc_abort_prob = 0.55;
  aborts.drop_last_response_prob = 0.15;
  gen::GenOptions pending = kBase;
  pending.commit_pending_prob = 0.45;
  pending.leave_running_prob = 0.15;
  Corpus out;
  add(out, "random", 2024, 150,
      [&](auto& rng, int) { return gen::random_history(kBase, rng); });
  add(out, "du-constructed", 7, 150,
      [&](auto& rng, int) { return gen::random_du_history(kBase, rng); },
      /*graph_must_decide=*/true);
  add(out, "abort-heavy", 99, 100,
      [&](auto& rng, int) { return gen::random_history(aborts, rng); });
  add(out, "commit-pending", 1234, 100,
      [&](auto& rng, int) { return gen::random_history(pending, rng); });
  add(out, "mutated twice", 5150, 100, [&](auto& rng, int) {
    return gen::mutate(mutant(kBase, rng), rng);
  });
  return out;
}

/// 10-transaction random and du-constructed histories.
Corpus pipeline_mixes() {
  constexpr gen::GenOptions kOpts{.num_txns = 10, .num_objects = 3};
  Corpus out;
  add(out, "pipeline", 7, 30,
      [&](auto& rng, int i) { return mixed(kOpts, rng, i % 2 == 0); });
  return out;
}

/// More objects than shards, ids in every residue class, cross-object
/// readers: the interleaving that exposes cross-shard ordering mistakes.
History many_objects_interleave() {
  constexpr history::ObjId kObjects = 13;
  std::vector<Event> events;
  std::vector<history::Value> cur(kObjects, 0);
  for (int round = 0; round < 40; ++round) {
    const history::TxnId w = 2 * round + 1;
    const history::TxnId r = w + 1;
    const history::ObjId x = round % kObjects;
    const history::ObjId y = (round * 5 + 3) % kObjects;
    const history::Value v = round + 1;
    events.insert(events.end(),
                  {Event::inv_read(r, x),
                   Event::resp_read(r, x, cur[static_cast<std::size_t>(x)]),
                   Event::inv_write(w, y, v), Event::resp_write_ok(w, y),
                   Event::inv_tryc(w), Event::resp_commit(w),
                   Event::inv_tryc(r), Event::resp_commit(r)});
    cur[static_cast<std::size_t>(y)] = v;
  }
  return std::move(History::make(std::move(events), kObjects)).value_or_die();
}

/// The paper's figures, the deterministic live run, and hand-written traces
/// on the monitor's edge cases.
Corpus fixed_inputs() {
  namespace fig = history::figures;
  Corpus out = {
      {"fig1", fig::fig1()},
      {"fig2(5)", fig::fig2(5)},
      {"fig3", fig::fig3()},
      {"fig3-prefix", fig::fig3_prefix()},
      {"fig4", fig::fig4()},
      {"fig6", fig::fig6()},
      {"deterministic-live-run", gen::deterministic_live_run(600, 4, 8), true},
      {"many-objects interleave", many_objects_interleave()},
  };
  for (const char* text : {
           // Figure 3's shape: the read response latches.
           "W1(X0,1) R2(X0)=1 C1 C2",
           // A canonical-order cycle the fallback resolves to yes.
           "W1?(X0,1) W1!(X0) W2(X0,2) C2 C1 R3(X0)=2 C3",
           // A duplicate writer releases and re-parks the edge.
           "W1?(X0,1) W1!(X0) W2(X0,2) C2 C1 R3(X0)=2 "
           "W4?(X0,2) W4!(X0) C4? C4!=A C3",
           // A stale read of a version GC retires.
           "W1(X0,1) C1 W2(X0,2) C2 W3(X0,3) C3 R4(X0)=1 C4",
           // Two commit-pending writers of one value: outside the
           // unique-writes class the maintained graph alone cannot answer.
           "R2(X0)=0 W2?(X0,2) W1(X0,1) W2!(X0) R6?(X0) C2? C1? R6!(X0)=2 "
           "W6(X0,2) C6? C1! R4(X0)=2",
           // Readers and writers over two objects.
           "W1(X0,1) C1 R2(X0)=1 W2(X1,2) C2 R3(X1)=2 W3(X0,3) C3 R4(X0)=3 "
           "C4",
           // A resolved read pins its writer until the reader settles.
           "W1(X0,1) C1 R4(X0)=1 W2(X0,2) C2 W3(X0,3) C3 C4",
       })
    out.push_back({text, history::parse_history_or_die(text)});

  // What a GC monitor retains of the pinned-read trace: sealed versions
  // re-materialized as synthetic writers ahead of the retained events.
  OnlineMonitor gc(monitor_options(true, 1));
  for (const Event& e : out.back().h.events()) (void)gc.feed(e);
  out.push_back({"gc-retained history", gc.history()});
  return out;
}

struct Group {
  const char* name;
  Corpus (*make)();
};

class Oracle : public ::testing::TestWithParam<Group> {};

TEST_P(Oracle, AllFrontEndsAgree) { expect_one_answer(GetParam().make()); }

INSTANTIATE_TEST_SUITE_P(
    Corpus, Oracle,
    ::testing::Values(Group{"MonitorSweep", monitor_sweep},
                      Group{"SettledSweep", settled_sweep},
                      Group{"EngineMixes", engine_mixes},
                      Group{"PipelineMixes", pipeline_mixes},
                      Group{"FixedInputs", fixed_inputs}),
    [](const ::testing::TestParamInfo<Group>& info) {
      return std::string(info.param.name);
    });

// -- registry recordings ------------------------------------------------------

History record(const std::string& backend, history::ObjId stm_objects,
               const stm::WorkloadOptions& wopts) {
  stm::Recorder rec(1 << 15);
  auto s = stm::make_stm(backend, stm_objects, &rec);
  DUO_ASSERT(s != nullptr);  // every registered name makes an STM
  stm::run_random_mix(*s, wopts);
  return rec.finish(s->num_objects());
}

/// Every backend, deferred, direct and fault-injected, recorded under
/// contention: 2 threads x {2, 4} transactions of 2 operations over 3
/// objects (seeds 11-13), and 2 threads x 6 transactions of 3 operations
/// over 4 objects (seed 7).
class OracleRecordings : public ::testing::TestWithParam<stm::BackendInfo> {};

TEST_P(OracleRecordings, AllFrontEndsAgree) {
  const stm::BackendInfo& info = GetParam();
  Corpus corpus;
  for (const std::size_t txns : {2u, 4u}) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      corpus.push_back(
          {"recording " + std::to_string(txns) + " txns seed " +
               std::to_string(seed),
           record(info.name, 3,
                  {.threads = 2, .txns_per_thread = txns, .objects = 3,
                   .ops_per_txn = 2, .write_fraction = 0.6, .seed = seed})});
    }
  }
  corpus.push_back(
      {"recording 6 txns seed 7",
       record(info.name, 4,
              {.threads = 2, .txns_per_thread = 6, .objects = 4,
               .ops_per_txn = 3, .seed = 7}),
       !info.fault_injected});
  for (const Case& c : corpus)
    EXPECT_TRUE(c.h.has_unique_writes())
        << c.label << ": run_random_mix recordings are unique-writes";
  expect_one_answer(corpus);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, OracleRecordings,
    ::testing::ValuesIn(stm::registered_backends()),
    [](const ::testing::TestParamInfo<stm::BackendInfo>& info) {
      return stm::test_identifier(info.param);
    });

}  // namespace
}  // namespace duo
