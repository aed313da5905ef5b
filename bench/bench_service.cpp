// Service-layer throughput: the ingest pipeline vs the monitor alone and
// vs per-event feeding.
//
// BM_PipelineIngest measures the end-to-end ingest rate: tokenizing and
// event decoding, then the batched sharded monitor, one chunk at a time
// in the calling thread. BM_MonitorFeedBatch isolates the monitor-only
// batched path (parse excluded) across shard counts;
// BM_SingleThreadBaseline is the per-event floor: parse, then feed(e) one
// event at a time.
//
// Measured Release, 4 vCPUs at 2.1 GHz (a shared machine), 100k-event
// live run, events/sec:
//
//   feed_batch, 1 shard                 ~3.02M
//   feed_batch, 2 shards                ~1.91M
//   feed_batch, 4 shards                ~1.88M
//   feed_batch, 8 shards                ~1.56M
//   single-thread per-event feed        ~1.98M
//   pipeline, 1 shard                   ~1.84M
//   pipeline, 4 shards                  ~1.28M
//   pipeline, 1 shard, GC off           ~1.38M  (the graph never shrinks)
//
// More shards lose here: per-object derivation is a small share of a
// chunk's work, and waking the worker gang costs more than it overlaps.
//
// GC ON being FASTER than GC off is the point of the subsystem: retirement
// keeps the Pearce-Kelly graph at working-set size, so edge insertion
// stays cheap while the GC-off graph drags ~33k nodes around by the end.
//
// GC is on in all ingest benchmarks (the production configuration); the
// /0/1 variant isolates the contrast. CI archives the numbers as a build
// artifact; whole-run figures are in perfbench/README.md.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gen/generator.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"
#include "monitor/monitor.hpp"
#include "service/pipeline.hpp"
#include "util/assert.hpp"

namespace {

using duo::history::History;

/// Trace text of a deterministic du-opaque live run, pre-cut into
/// submit-sized chunks. Cached: generation and chunking are not part of
/// the timed region.
struct TraceFixture {
  std::vector<std::string> chunks;
  std::size_t events = 0;
};

const TraceFixture& live_trace(std::int64_t target_events) {
  static std::map<std::int64_t, TraceFixture> cache;
  const auto it = cache.find(target_events);
  if (it != cache.end()) return it->second;

  const History h = duo::gen::deterministic_live_run(
      static_cast<std::size_t>(target_events), /*threads=*/4, /*objects=*/8);
  const std::string text = duo::history::compact(h);

  TraceFixture fx;
  fx.events = h.size();
  // ~4 KiB per chunk, cut at token boundaries — the shape duo_mond's
  // FollowReader hands to the pipeline.
  constexpr std::size_t kChunkBytes = 4096;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = std::min(begin + kChunkBytes, text.size());
    while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
    fx.chunks.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return cache.emplace(target_events, std::move(fx)).first->second;
}

/// Pipeline ingest of a 100k-event trace: parse and feed_batch per chunk,
/// in the calling thread. Arg 0: GC on/off. Arg 1: monitor object shards
/// (feed_batch derive width).
void BM_PipelineIngest(benchmark::State& state) {
  const TraceFixture& fx = live_trace(100'000);
  for (auto _ : state) {
    duo::service::PipelineOptions opts;
    opts.monitor.gc = state.range(0) != 0;
    opts.monitor.shards = static_cast<std::size_t>(state.range(1));
    duo::service::IngestPipeline pipeline(opts);
    for (const auto& chunk : fx.chunks) {
      const bool ok = pipeline.submit(std::string(chunk));
      DUO_ASSERT(ok);
    }
    const auto result = pipeline.finish();
    DUO_ASSERT(!result.error);
    DUO_ASSERT(result.verdict == duo::checker::Verdict::kYes);
    benchmark::DoNotOptimize(result.events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.events));
}
BENCHMARK(BM_PipelineIngest)
    ->ArgsProduct({{1}, {1, 2, 4, 8}})  // shard sweep, GC on
    ->Args({0, 1})                      // GC-off contrast
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The monitor-only batched path: chunks pre-parsed outside the timed
/// region, whole chunks handed to feed_batch. Isolates what the sharded
/// prescan/derive/apply rewrite buys over per-event feeding
/// (BM_SingleThreadBaseline includes parse; this excludes it). Arg:
/// monitor object shards.
void BM_MonitorFeedBatch(benchmark::State& state) {
  const TraceFixture& fx = live_trace(100'000);
  static std::map<std::size_t, std::vector<std::vector<duo::history::Event>>>
      parsed_cache;
  auto& batches = parsed_cache[0];
  if (batches.empty()) {
    for (const auto& chunk : fx.chunks) {
      auto parsed = duo::history::parse_events(chunk);
      DUO_ASSERT(parsed.has_value());
      batches.push_back(std::move(parsed.value().events));
    }
  }
  for (auto _ : state) {
    duo::monitor::MonitorOptions mopts;
    mopts.gc = true;
    mopts.shards = static_cast<std::size_t>(state.range(0));
    duo::monitor::OnlineMonitor monitor(mopts);
    for (const auto& events : batches) {
      const auto out = monitor.feed_batch(events.data(), events.size());
      DUO_ASSERT(out.error.empty());
      DUO_ASSERT(out.consumed == events.size());
    }
    DUO_ASSERT(monitor.verdict() == duo::checker::Verdict::kYes);
    benchmark::DoNotOptimize(monitor.events_fed());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.events));
}
BENCHMARK(BM_MonitorFeedBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The no-pipeline floor: parse and feed on the calling thread.
void BM_SingleThreadBaseline(benchmark::State& state) {
  const TraceFixture& fx = live_trace(100'000);
  for (auto _ : state) {
    duo::monitor::MonitorOptions mopts;
    mopts.gc = true;
    duo::monitor::OnlineMonitor monitor(mopts);
    for (const auto& chunk : fx.chunks) {
      const auto parsed = duo::history::parse_events(chunk);
      DUO_ASSERT(parsed.has_value());
      for (const auto& e : parsed.value().events) {
        const auto fed = monitor.feed(e);
        DUO_ASSERT(fed.has_value());
      }
    }
    DUO_ASSERT(monitor.verdict() == duo::checker::Verdict::kYes);
    benchmark::DoNotOptimize(monitor.events_fed());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.events));
}
BENCHMARK(BM_SingleThreadBaseline)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
