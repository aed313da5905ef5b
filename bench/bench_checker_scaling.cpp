// E13 — checker cost scaling and ablations:
//   - du-opacity / final-state search cost vs transaction count (yes cases
//     from the du-STM generator; no cases from corrupted reads);
//   - memoization on/off;
//   - candidate-ordering heuristic on/off;
//   - opacity fast path vs naive (non-unique-write corpora).
#include <benchmark/benchmark.h>

#include "checker/engine.hpp"
#include "checker/fast_reject.hpp"
#include "checker/opacity.hpp"
#include "checker/search.hpp"
#include "gen/generator.hpp"
#include "util/assert.hpp"

namespace {

using duo::checker::find_serialization;
using duo::checker::SearchOptions;

duo::gen::History yes_case(int txns, std::uint64_t seed) {
  duo::util::Xoshiro256 rng(seed);
  duo::gen::GenOptions opts;
  opts.num_txns = txns;
  opts.num_objects = 3;
  opts.value_range = 3;
  return duo::gen::random_du_history(opts, rng);
}

duo::gen::History no_case(int txns, std::uint64_t seed) {
  // Corrupt one read value so no serialization exists (usually).
  duo::util::Xoshiro256 rng(seed);
  duo::gen::GenOptions opts;
  opts.num_txns = txns;
  opts.num_objects = 3;
  opts.value_range = 3;
  auto h = duo::gen::random_du_history(opts, rng);
  for (int tries = 0; tries < 50; ++tries) {
    auto m = duo::gen::mutate(h, rng);
    SearchOptions so;
    so.deferred_update = true;
    if (!find_serialization(m, so).found()) return m;
  }
  return h;  // fall back: still measures a search
}

void BM_DuSearchYes(benchmark::State& state) {
  const auto h = yes_case(static_cast<int>(state.range(0)), 7);
  SearchOptions so;
  so.deferred_update = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(find_serialization(h, so).outcome);
}
BENCHMARK(BM_DuSearchYes)->Arg(6)->Arg(10)->Arg(14)->Arg(18);

void BM_DuSearchNo(benchmark::State& state) {
  const auto h = no_case(static_cast<int>(state.range(0)), 11);
  SearchOptions so;
  so.deferred_update = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(find_serialization(h, so).outcome);
}
BENCHMARK(BM_DuSearchNo)->Arg(6)->Arg(8)->Arg(10);

void BM_FsoSearchYes(benchmark::State& state) {
  const auto h = yes_case(static_cast<int>(state.range(0)), 7);
  SearchOptions so;
  for (auto _ : state)
    benchmark::DoNotOptimize(find_serialization(h, so).outcome);
}
BENCHMARK(BM_FsoSearchYes)->Arg(6)->Arg(10)->Arg(14)->Arg(18);

void BM_MemoizationOff(benchmark::State& state) {
  const auto h = no_case(static_cast<int>(state.range(0)), 11);
  SearchOptions so;
  so.deferred_update = true;
  so.memoize = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(find_serialization(h, so).outcome);
}
BENCHMARK(BM_MemoizationOff)->Arg(6)->Arg(8)->Arg(10);

void BM_HeuristicOff(benchmark::State& state) {
  const auto h = yes_case(static_cast<int>(state.range(0)), 7);
  SearchOptions so;
  so.deferred_update = true;
  so.commit_order_heuristic = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(find_serialization(h, so).outcome);
}
BENCHMARK(BM_HeuristicOff)->Arg(6)->Arg(10)->Arg(14);

void BM_FastRejectOff(benchmark::State& state) {
  // Ablation: "no" cases without the necessary-edge pre-pass.
  const auto h = no_case(static_cast<int>(state.range(0)), 11);
  SearchOptions so;
  so.deferred_update = true;
  so.use_fast_reject = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(find_serialization(h, so).outcome);
}
BENCHMARK(BM_FastRejectOff)->Arg(6)->Arg(8)->Arg(10);

void BM_FastRejectPrePassAlone(benchmark::State& state) {
  const auto h = no_case(static_cast<int>(state.range(0)), 11);
  SearchOptions so;
  so.deferred_update = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(duo::checker::fast_reject(h, so).rejected);
}
BENCHMARK(BM_FastRejectPrePassAlone)->Arg(6)->Arg(8)->Arg(10);

void BM_OpacityNaive(benchmark::State& state) {
  const auto h = yes_case(static_cast<int>(state.range(0)), 21);
  for (auto _ : state)
    benchmark::DoNotOptimize(duo::checker::check_opacity_naive(h).verdict);
}
BENCHMARK(BM_OpacityNaive)->Arg(5)->Arg(8);

void BM_OpacityFast(benchmark::State& state) {
  const auto h = yes_case(static_cast<int>(state.range(0)), 21);
  for (auto _ : state)
    benchmark::DoNotOptimize(duo::checker::check_opacity(h).verdict);
}
BENCHMARK(BM_OpacityFast)->Arg(5)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
