#include "checker/pool.hpp"

#include <algorithm>
#include <atomic>

#include "util/threading.hpp"

namespace duo::checker {

CheckerPool::CheckerPool(const PoolOptions& opts)
    : opts_(opts), num_threads_(util::resolve_threads(opts.num_threads)) {}

std::vector<CheckResult> CheckerPool::check_batch(
    const std::vector<history::History>& histories) const {
  std::vector<CheckResult> results(histories.size());
  if (histories.empty()) return results;

  // Each worker claims the next unchecked index until the batch runs out,
  // so one slow history holds up only the worker that claimed it.
  std::atomic<std::size_t> next{0};
  const auto work = [&](std::size_t /*worker*/) {
    for (;;) {
      // relaxed: pool-next-index
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= histories.size()) return;
      results[i] =
          check_with_engine(histories[i], opts_.criterion, opts_.check);
    }
  };
  util::run_threads(std::min(num_threads_, histories.size()), work);
  return results;
}

}  // namespace duo::checker
