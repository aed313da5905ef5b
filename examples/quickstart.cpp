// Quickstart: the STM public API in its simplest form.
//
// Two accounts, concurrent transfers with TL2, an invariant check, and a
// recorded history judged by the du-opacity checker — the full loop from
// "write transactional code" to "prove the execution correct".
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "checker/engine.hpp"
#include "history/printer.hpp"
#include "stm/registry.hpp"
#include "util/threading.hpp"

int main() {
  using namespace duo;

  // An STM over two t-objects (account A = X0, account B = X1), recorded.
  // Backends are created by registry name — swap "tl2" for any name from
  // `duo_check --list-stms` (e.g. "2pl-undo") and the rest is unchanged.
  stm::Recorder recorder(4096);
  auto stm_ptr = stm::make_stm("tl2", 2, &recorder);
  stm::Stm& stm = *stm_ptr;

  // Seed both accounts with 100.
  stm::atomically(stm, [](stm::Transaction& tx) {
    if (!tx.write(0, 100) || !tx.write(1, 100)) return stm::Step::kRetry;
    return stm::Step::kCommit;
  });

  // Four threads move money back and forth; total must stay 200.
  util::run_threads(4, [&](std::size_t tid) {
    for (int i = 0; i < 50; ++i) {
      stm::atomically(stm, [&](stm::Transaction& tx) {
        const auto a = tx.read(0);
        if (!a) return stm::Step::kRetry;  // aborted: stop using tx
        const auto b = tx.read(1);
        if (!b) return stm::Step::kRetry;
        const stm::Value amount = static_cast<stm::Value>((tid + i) % 7);
        if (!tx.write(0, *a - amount) || !tx.write(1, *b + amount))
          return stm::Step::kRetry;
        return stm::Step::kCommit;
      });
    }
  });

  const stm::Value total = stm.sample_committed(0) + stm.sample_committed(1);
  std::printf("final balances: A=%lld B=%lld total=%lld (expected 200)\n",
              static_cast<long long>(stm.sample_committed(0)),
              static_cast<long long>(stm.sample_committed(1)),
              static_cast<long long>(total));

  // Judge the recorded execution against the paper's criterion.
  const auto h = recorder.finish(stm.num_objects());
  std::printf("recorded: %s\n", history::summary(h).c_str());
  // check_du_opacity routes through the engine layer: recordings with
  // unique written values are decided by the polynomial graph engine,
  // anything else (like these recurring balances) by the exact DFS — the
  // trace tells which one ran (see README "Checker engines").
  const auto verdict = checker::check_du_opacity(h);
  std::printf("du-opacity verdict: %s (engine: %s)\n",
              checker::to_string(verdict.verdict).c_str(),
              verdict.engine.engine.c_str());
  return total == 200 && verdict.yes() ? 0 : 1;
}
