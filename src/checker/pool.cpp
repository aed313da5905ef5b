#include "checker/pool.hpp"

#include <algorithm>
#include <atomic>

#include "util/threading.hpp"

namespace duo::checker {

CheckerPool::CheckerPool(const PoolOptions& opts)
    : opts_(opts), num_threads_(util::resolve_threads(opts.num_threads)) {}

std::vector<CheckResult> CheckerPool::check_batch(
    const std::vector<history::History>& histories) const {
  return check_batch(histories.size(), [&](std::size_t i) {
    return std::optional<history::History>(histories[i]);
  });
}

std::vector<CheckResult> CheckerPool::check_batch(std::size_t n,
                                                  const Loader& load) const {
  std::vector<CheckResult> results(n);
  if (n == 0) return results;

  // Each worker claims the next unchecked index until the batch runs out,
  // so one slow input holds up only the worker that claimed it.
  std::atomic<std::size_t> next{0};
  const auto work = [&](std::size_t /*worker*/) {
    for (;;) {
      // relaxed: pool-next-index
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (const auto h = load(i))
        results[i] = check_with_engine(*h, opts_.criterion, opts_.check);
    }
  };
  util::run_threads(std::min(num_threads_, n), work);
  return results;
}

}  // namespace duo::checker
