// CheckerPool: batch correctness checking (du-opacity by default, any
// Criterion via PoolOptions) over a set of worker threads.
//
// A batch of histories, or of inputs each worker loads itself, is fanned
// out over N workers that claim them one at a time from a shared next-index
// counter. Each result is written to the slot of its input index, so the
// returned vector is ordered like the input and — because check_with_engine
// is deterministic — identical for every thread count.
//
// The checks themselves share no mutable state (the search engine allocates
// per call), so workers need no synchronization beyond the counter.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "checker/engine.hpp"
#include "history/history.hpp"

namespace duo::checker {

struct PoolOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  std::size_t num_threads = 0;
  /// Criterion every history is judged under.
  Criterion criterion = Criterion::kDuOpacity;
  /// Per-history checker options (node budget, engine routing, memo cap);
  /// each worker's checks go through the engine router, so unique-writes
  /// histories in a batch are decided by the polynomial graph engine.
  CheckOptions check;
};

class CheckerPool {
 public:
  explicit CheckerPool(const PoolOptions& opts = {});

  std::size_t num_threads() const noexcept { return num_threads_; }

  /// Check every history under the configured criterion. results[i] is the
  /// verdict for histories[i], regardless of scheduling.
  std::vector<CheckResult> check_batch(
      const std::vector<history::History>& histories) const;

  /// Produces input i's history; nullopt when it cannot (an unreadable or
  /// unparseable file, say), which leaves results[i] default-constructed.
  using Loader =
      std::function<std::optional<history::History>(std::size_t)>;

  /// As above over n inputs, but history i is made by load(i) on the worker
  /// that claims i, so reading and parsing run in parallel with the checks.
  std::vector<CheckResult> check_batch(std::size_t n,
                                       const Loader& load) const;

 private:
  PoolOptions opts_;
  std::size_t num_threads_;
};

}  // namespace duo::checker
