// Online monitor scaling: the incremental graph fast path vs the
// re-check-every-prefix baseline, and vs one batch graph-engine check of
// the full history (the amortized floor the per-event cost should
// approach).
//
// The baseline is what the repository did before the monitor subsystem:
// check_all_prefixes re-runs the full du-opacity checker on every event
// prefix, so a history of n events costs n full checks; it is only feasible
// at the small end (<= 1k events here). The monitor maintains the batch
// graph engine's Tier-A constraint graph incrementally — per event, a
// handful of Pearce-Kelly edge insertions — so its per-event cost is flat
// in history length.
//
// Measured on the dev machine (ns per event):
//
//                             1k events   10k events   100k events
//   PR 2-4 witness monitor      ~2,900     ~102,000     ~5,194,000  (retired)
//   graph fast path (this)        ~390         ~440           ~760
//   batch graph engine, once       ~35          ~46            ~74
//
// The witness tier re-verified reads against the serialization order (a
// backward walk, so O(n) per affected event and quadratic end to end): the
// retired monitor took 519 *seconds* to stream 100k events; the fast path
// takes ~76 ms, within ~10x of the one-shot batch check that gets the
// whole history up front. CI archives these numbers as BENCH_monitor.json
// to track the trajectory; the acceptance bar for the fast path is >= 5x
// over the retired witness monitor at 10k+ events, which the table clears
// by >200x.
//
// The latched case (BM_OnlineMonitorLatched) shows the other regime: after
// the first violation every event is O(1).
#include <benchmark/benchmark.h>

#include <map>

#include "checker/engine.hpp"
#include "checker/prefix_closure.hpp"
#include "monitor/monitor.hpp"
#include "util/assert.hpp"

namespace {

using duo::history::Event;
using duo::history::History;
using duo::history::ObjId;
using duo::history::TxnId;
using duo::history::Value;

/// A deterministic du-opaque "live run": `threads` logical threads, each
/// running read-one-write-one transactions against an atomic-commit store,
/// one event per thread per round-robin turn. Reads return the committed
/// value at response time and writes install globally unique values at the
/// C response, so every prefix is du-opaque. Cached: generation is not part
/// of the timed region.
const History& live_run_history(std::int64_t target_events) {
  static std::map<std::int64_t, History> cache;
  const auto it = cache.find(target_events);
  if (it != cache.end()) return it->second;

  constexpr int kThreads = 4;
  constexpr ObjId kObjects = 8;
  std::vector<Value> store(kObjects, 0);
  std::vector<Event> events;
  struct Thread {
    TxnId txn = 0;
    int step = 0;  // 0..5: R? R! W? W! C? C!
    ObjId read_obj = 0;
    ObjId write_obj = 0;
    Value write_val = 0;
  };
  std::vector<Thread> ths(kThreads);
  TxnId next_txn = 1;
  Value next_val = 1;
  while (events.size() < static_cast<std::size_t>(target_events)) {
    for (int t = 0; t < kThreads &&
                    events.size() < static_cast<std::size_t>(target_events);
         ++t) {
      Thread& th = ths[t];
      switch (th.step) {
        case 0:
          th.txn = next_txn++;
          th.read_obj = static_cast<ObjId>((th.txn + t) % kObjects);
          th.write_obj = static_cast<ObjId>((th.txn + t + 1) % kObjects);
          th.write_val = next_val++;
          events.push_back(Event::inv_read(th.txn, th.read_obj));
          break;
        case 1:
          events.push_back(Event::resp_read(
              th.txn, th.read_obj,
              store[static_cast<std::size_t>(th.read_obj)]));
          break;
        case 2:
          events.push_back(
              Event::inv_write(th.txn, th.write_obj, th.write_val));
          break;
        case 3:
          events.push_back(Event::resp_write_ok(th.txn, th.write_obj));
          break;
        case 4:
          events.push_back(Event::inv_tryc(th.txn));
          break;
        case 5:
          events.push_back(Event::resp_commit(th.txn));
          store[static_cast<std::size_t>(th.write_obj)] = th.write_val;
          break;
      }
      th.step = (th.step + 1) % 6;
    }
  }
  auto made = History::make(std::move(events), kObjects);
  DUO_ASSERT(made.has_value());
  return cache.emplace(target_events, std::move(made).take()).first->second;
}

void feed_all(duo::monitor::OnlineMonitor& mon, const History& h) {
  for (const auto& e : h.events()) {
    const auto r = mon.feed(e);
    DUO_ASSERT(r.has_value());
  }
}

void BM_OnlineMonitorFeed(benchmark::State& state) {
  const History& h = live_run_history(state.range(0));
  std::size_t full_checks = 0;
  std::size_t edges = 0;
  for (auto _ : state) {
    duo::monitor::OnlineMonitor mon;
    feed_all(mon, h);
    DUO_ASSERT(mon.verdict() == duo::checker::Verdict::kYes);
    full_checks = mon.stats().full_checks;
    edges = mon.stats().edges_added;
    benchmark::DoNotOptimize(mon.verdict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.size()));
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["full_checks"] = static_cast<double>(full_checks);
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_OnlineMonitorFeed)
    ->Arg(128)
    ->Arg(1024)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// The amortized floor: the batch graph engine deciding the whole history
/// once, with every event already in hand. The monitor's per-event cost
/// should sit within a small factor of this per-event figure — the price
/// of maintaining (rather than bulk-building) the same constraint graph.
void BM_BatchGraphCheckOnce(benchmark::State& state) {
  const History& h = live_run_history(state.range(0));
  for (auto _ : state) {
    const auto r = duo::checker::check_du_opacity(h);
    DUO_ASSERT(r.yes());
    benchmark::DoNotOptimize(r.verdict);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.size()));
  state.counters["events"] = static_cast<double>(h.size());
}
BENCHMARK(BM_BatchGraphCheckOnce)
    ->Arg(1024)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_RecheckEveryPrefix(benchmark::State& state) {
  const History& h = live_run_history(state.range(0));
  const auto fn =
      duo::checker::criterion_fn(duo::checker::Criterion::kDuOpacity);
  for (auto _ : state) {
    const auto report = duo::checker::check_all_prefixes(h, fn);
    DUO_ASSERT(!report.first_no.has_value());
    benchmark::DoNotOptimize(report.verdicts.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.size()));
  state.counters["events"] = static_cast<double>(h.size());
}
BENCHMARK(BM_RecheckEveryPrefix)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_OnlineMonitorLatched(benchmark::State& state) {
  // Once a violation latches, prefix closure makes every further event
  // O(1): feed a violating prefix, then measure the long latched tail.
  const History& h = live_run_history(state.range(0));
  for (auto _ : state) {
    duo::monitor::OnlineMonitor mon;
    // An impossible read: nobody can commit (X0, 999...).
    (void)mon.feed(duo::history::Event::inv_read(999999, 0));
    (void)mon.feed(duo::history::Event::resp_read(999999, 0, 987654321));
    DUO_ASSERT(mon.verdict() == duo::checker::Verdict::kNo);
    for (const auto& e : h.events()) {
      const auto r = mon.feed(e);
      DUO_ASSERT(r.has_value());
    }
    benchmark::DoNotOptimize(mon.events_fed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.size()));
  state.counters["events"] = static_cast<double>(h.size());
}
BENCHMARK(BM_OnlineMonitorLatched)
    ->Arg(1024)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
