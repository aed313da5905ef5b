#include "checker/pool.hpp"

#include <algorithm>
#include <deque>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/threading.hpp"

namespace duo::checker {

namespace {

/// Per-worker index queue. The owner pops from the front, thieves take from
/// the back; a plain mutex suffices because each critical section is a
/// couple of pointer moves while the protected work item is an NP-hard
/// search. `queue_` is guarded by `mutex_` (compiler-checked on Clang):
/// every access below must hold the lock, including the single-threaded
/// dealing phase in check_batch — uniformity is cheaper than a suppression.
class WorkQueue {
 public:
  void push(std::size_t index) {
    util::MutexLock lock(mutex_);
    queue_.push_back(index);
  }

  bool pop_front(std::size_t& out) {
    util::MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    out = queue_.front();
    queue_.pop_front();
    return true;
  }

  bool steal_back(std::size_t& out) {
    util::MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    out = queue_.back();
    queue_.pop_back();
    return true;
  }

  std::size_t approx_size() const {
    util::MutexLock lock(mutex_);
    return queue_.size();
  }

 private:
  mutable util::Mutex mutex_;
  std::deque<std::size_t> queue_ DUO_GUARDED_BY(mutex_);
};

}  // namespace

CheckerPool::CheckerPool(const PoolOptions& opts)
    : opts_(opts), num_threads_(util::resolve_threads(opts.num_threads)) {}

std::vector<CheckResult> CheckerPool::check_batch(
    const std::vector<history::History>& histories) const {
  std::vector<CheckResult> results(histories.size());
  if (histories.empty()) return results;

  const std::size_t workers = std::min(num_threads_, histories.size());
  if (workers == 1) {
    for (std::size_t i = 0; i < histories.size(); ++i)
      results[i] =
          check_with_engine(histories[i], opts_.criterion, opts_.check);
    return results;
  }

  // Deal indices round-robin so every queue starts with a comparable mix of
  // cheap and expensive histories; stealing rebalances the remainder.
  std::vector<WorkQueue> queues(workers);
  for (std::size_t i = 0; i < histories.size(); ++i)
    queues[i % workers].push(i);

  util::run_threads(workers, [&](std::size_t me) {
    std::size_t index = 0;
    for (;;) {
      if (!queues[me].pop_front(index)) {
        // Own queue drained: steal from the currently fullest queue. Rescan
        // after every successful theft; give up when all queues are empty.
        std::size_t victim = workers;
        std::size_t best = 0;
        for (std::size_t q = 0; q < workers; ++q) {
          if (q == me) continue;
          const std::size_t size = queues[q].approx_size();
          if (size > best) {
            best = size;
            victim = q;
          }
        }
        if (victim == workers || !queues[victim].steal_back(index)) {
          bool any = false;
          for (std::size_t q = 0; q < workers && !any; ++q)
            any = queues[q].approx_size() > 0;
          if (!any) return;
          continue;  // lost a race; rescan
        }
      }
      results[index] =
          check_with_engine(histories[index], opts_.criterion, opts_.check);
    }
  });
  return results;
}

}  // namespace duo::checker
