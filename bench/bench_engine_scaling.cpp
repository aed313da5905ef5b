// Graph engine vs DFS scaling on unique-writes histories.
//
// The tentpole claim of the engine layer: on the unique-writes class every
// recorded workload produces, du-opacity checking drops from
// exponential-with-budget (DFS: ~n search nodes on well-behaved inputs, but
// each node pays O(n) for the memo key and candidate scans, and the
// fast-reject pre-pass is O(reads x txns)) to near-linear graph
// construction + one topological sort. The ratio must grow with history
// length; the acceptance bar is >= 50x at 10k events. CI archives these
// numbers as BENCH_engine.json next to BENCH_monitor.json.
//
// The input is gen::deterministic_live_run — bounded-concurrency
// deferred-update traffic, the same shape bench_monitor uses — so both
// engines decide every instance (verdict yes, no budget exhaustion, no
// graph decline; both are asserted).
//
// The DFS is benchmarked at 1k and 10k events only: its superlinear
// per-node costs put 100k events at minutes of wall clock, which is the
// point of the graph engine — shown here by the graph series extending to
// 100k (and beyond, locally) at near-linear cost.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <vector>

#include "checker/engine.hpp"
#include "gen/generator.hpp"
#include "history/event.hpp"
#include "util/assert.hpp"

namespace {

using duo::checker::CheckOptions;
using duo::checker::EngineKind;
using duo::checker::Verdict;
using duo::history::History;

constexpr int kThreads = 8;
constexpr duo::history::ObjId kObjects = 12;

const History& live_run(std::int64_t target_events) {
  static std::map<std::int64_t, History> cache;
  const auto it = cache.find(target_events);
  if (it != cache.end()) return it->second;
  return cache
      .emplace(target_events,
               duo::gen::deterministic_live_run(
                   static_cast<std::size_t>(target_events), kThreads,
                   kObjects))
      .first->second;
}

void BM_GraphEngineDu(benchmark::State& state) {
  const History& h = live_run(state.range(0));
  CheckOptions opts;
  opts.engine = EngineKind::kGraph;
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const auto r = duo::checker::check_du_opacity(h, opts);
    DUO_ASSERT(r.verdict == Verdict::kYes);  // decided, never declined
    edges = r.engine.graph_edges;
    benchmark::DoNotOptimize(r.verdict);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.size()));
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["txns"] = static_cast<double>(h.num_txns());
  state.counters["graph_edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_GraphEngineDu)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_DfsEngineDu(benchmark::State& state) {
  const History& h = live_run(state.range(0));
  CheckOptions opts;
  opts.engine = EngineKind::kDfs;
  for (auto _ : state) {
    const auto r = duo::checker::check_du_opacity(h, opts);
    DUO_ASSERT(r.verdict == Verdict::kYes);
    benchmark::DoNotOptimize(r.verdict);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.size()));
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["txns"] = static_cast<double>(h.num_txns());
}
BENCHMARK(BM_DfsEngineDu)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Unit(benchmark::kMillisecond);

// The "no" side at scale: a stale read planted near the end of a long
// unique-writes history. The graph engine rejects through the necessary
// edges (reads-from + real-time force a cycle) without any search.
void BM_GraphEngineDuViolation(benchmark::State& state) {
  static std::map<std::int64_t, History> cache;
  History* hp = nullptr;
  if (const auto it = cache.find(state.range(0)); it != cache.end()) {
    hp = &it->second;
  } else {
    const History& ok = live_run(state.range(0));
    // Re-read the first observed non-initial version at the very end: with
    // unique writes its only candidate writer is long superseded.
    duo::history::Value stale = 0;
    duo::history::ObjId stale_obj = 0;
    for (const auto& e : ok.events()) {
      if (e.is_response() && e.op == duo::history::OpKind::kRead &&
          !e.aborted && e.value != 0) {
        stale = e.value;
        stale_obj = e.obj;
        break;
      }
    }
    DUO_ASSERT(stale != 0);
    std::vector<duo::history::Event> events = ok.events();
    const duo::history::TxnId fresh = 1 << 20;
    events.push_back(duo::history::Event::inv_read(fresh, stale_obj));
    events.push_back(
        duo::history::Event::resp_read(fresh, stale_obj, stale));
    events.push_back(duo::history::Event::inv_tryc(fresh));
    events.push_back(duo::history::Event::resp_commit(fresh));
    auto made = History::make(std::move(events), kObjects);
    DUO_ASSERT(made.has_value());
    hp = &cache.emplace(state.range(0), std::move(made).take()).first->second;
  }
  CheckOptions opts;
  opts.engine = EngineKind::kGraph;
  for (auto _ : state) {
    const auto r = duo::checker::check_du_opacity(*hp, opts);
    DUO_ASSERT(r.verdict == Verdict::kNo);
    benchmark::DoNotOptimize(r.verdict);
  }
  state.counters["events"] = static_cast<double>(hp->size());
}
BENCHMARK(BM_GraphEngineDuViolation)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
