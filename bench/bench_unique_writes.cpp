// E10 — Theorem 11 as an algorithmic lever: under unique writes, opacity can
// be decided with a single du-opacity search instead of per-prefix
// final-state searches. Measures both routes on unique-write corpora and
// verifies they agree.
#include <benchmark/benchmark.h>

#include "checker/engine.hpp"
#include "checker/opacity.hpp"
#include "gen/generator.hpp"
#include "util/assert.hpp"

namespace {

duo::gen::History make_history(int txns, std::uint64_t seed) {
  duo::util::Xoshiro256 rng(seed);
  duo::gen::GenOptions opts;
  opts.num_txns = txns;
  opts.num_objects = 3;
  opts.unique_writes = true;
  return duo::gen::random_du_history(opts, rng);
}

// The router decides opacity on a unique-writes history as one du-opacity
// graph (Theorem 11).
void BM_OpacityViaTheorem11(benchmark::State& state) {
  const auto h = make_history(static_cast<int>(state.range(0)), 42);
  DUO_ASSERT(h.has_unique_writes());
  for (auto _ : state) {
    const auto r =
        duo::checker::check_with_engine(h, duo::checker::Criterion::kOpacity);
    benchmark::DoNotOptimize(r.verdict);
  }
}
BENCHMARK(BM_OpacityViaTheorem11)->Arg(4)->Arg(8)->Arg(12);

void BM_OpacityNaivePerPrefix(benchmark::State& state) {
  const auto h = make_history(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    const auto r = duo::checker::check_opacity_naive(h);
    benchmark::DoNotOptimize(r.verdict);
  }
}
BENCHMARK(BM_OpacityNaivePerPrefix)->Arg(4)->Arg(8)->Arg(12);

void BM_OpacityFastPath(benchmark::State& state) {
  // The binary-search fast path (applicable regardless of unique writes).
  const auto h = make_history(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    const auto r = duo::checker::check_opacity(h);
    benchmark::DoNotOptimize(r.verdict);
  }
}
BENCHMARK(BM_OpacityFastPath)->Arg(4)->Arg(8)->Arg(12);

void BM_AgreementSpotCheck(benchmark::State& state) {
  // Not a speed benchmark: re-validates Theorem 11 agreement on a fresh
  // corpus each iteration so the bench run doubles as a correctness sweep.
  std::uint64_t seed = 1000;
  for (auto _ : state) {
    const auto h = make_history(5, seed++);
    const auto via =
        duo::checker::check_with_engine(h, duo::checker::Criterion::kOpacity);
    const auto naive = duo::checker::check_opacity_naive(h);
    DUO_ASSERT(via.verdict == naive.verdict);
    benchmark::DoNotOptimize(via.verdict);
  }
}
BENCHMARK(BM_AgreementSpotCheck)->Iterations(50);

}  // namespace

BENCHMARK_MAIN();
