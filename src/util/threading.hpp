// Thread coordination helpers for multithreaded STM tests, workloads and
// the checker pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace duo::util {

/// Reusable barrier with a spin phase: worker threads should start work
/// as close to simultaneously as possible. Falls back to yielding after a
/// bounded spin so oversubscribed (fewer cores than threads) machines make
/// progress.
///
/// Lock protocol (atomics; see docs/concurrency.md "SpinBarrier"): the last
/// arriver of generation g resets `waiting_` and then publishes generation
/// g+1 with a release increment; a waiter leaves only after an acquire load
/// observes that increment. The `waiting_` reset may therefore be relaxed:
///   - all generation-g increments of `waiting_` precede the leader's
///     fetch_add in the modification order (the leader observed the full
///     count via its acq_rel RMW), so the reset cannot clobber a straggler
///     of its own generation; and
///   - any generation-g+1 arrival performs its fetch_add *after* its
///     acquire load of `generation_` saw the leader's release increment,
///     which orders the reset before every next-generation increment.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t parties) noexcept
      : parties_(parties), waiting_(0), generation_(0) {}

  void arrive_and_wait() noexcept {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (waiting_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      // relaxed: spinbarrier-reset
      waiting_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
    } else {
      int spins = 0;
      while (generation_.load(std::memory_order_acquire) == gen) {
        if (++spins > 1024) std::this_thread::yield();
      }
    }
  }

 private:
  const std::size_t parties_;
  std::atomic<std::size_t> waiting_;
  std::atomic<std::uint64_t> generation_;
};

/// Monotonic stage-number rendezvous for staging deterministic thread
/// interleavings in tests (on single-core CI boxes,
/// free-running races essentially never fire; staging makes the targeted
/// overlap happen on every run). signal(s) publishes stage s; await(s)
/// blocks until some thread has signalled stage >= s.
class Rendezvous {
 public:
  void signal(int stage) {
    MutexLock lock(mutex_);
    if (stage > stage_) stage_ = stage;
    cv_.notify_all();
  }

  void await(int stage) {
    MutexLock lock(mutex_);
    while (stage_ < stage) cv_.wait(mutex_);
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  int stage_ DUO_GUARDED_BY(mutex_) = 0;
};

/// Runs `body(thread_index)` on `n` threads, synchronizing the start with a
/// barrier, and joins them all before returning. Exceptions in workers are
/// fatal by design (tests must not swallow them silently).
void run_threads(std::size_t n, const std::function<void(std::size_t)>& body);

/// RAII thread that joins on destruction — the sanctioned way for tests
/// and examples to spawn a helper thread (the conventions lint
/// bans raw std::thread construction outside src/util/ and src/service/,
/// where forgetting the join turns into a terminate() at scope exit).
class ScopedThread {
 public:
  template <class F, class... Args>
  explicit ScopedThread(F&& f, Args&&... args)
      : thread_(std::forward<F>(f), std::forward<Args>(args)...) {}
  ScopedThread(ScopedThread&&) noexcept = default;
  ScopedThread& operator=(ScopedThread&&) noexcept = default;
  ScopedThread(const ScopedThread&) = delete;
  ScopedThread& operator=(const ScopedThread&) = delete;
  ~ScopedThread() {
    if (thread_.joinable()) thread_.join();
  }

  /// Joins early; the destructor then has nothing to do.
  void join() { thread_.join(); }
  bool joinable() const noexcept { return thread_.joinable(); }

 private:
  std::thread thread_;
};

/// Persistent fork-join worker pool for repeated small parallel sections.
/// run_threads spawns and joins fresh threads per call — fine for tests,
/// far too slow for a per-event-batch parallel phase (thread creation is
/// ~10us; the monitor's whole derive phase for a batch can be shorter).
/// WorkerGang keeps `parties` threads parked on a condition variable and
/// wakes them per run(): dispatch is one lock + notify, not a clone().
///
/// Not reentrant: run() may not be called from inside a job, and only one
/// run() may be active at a time (the monitor calls it from its single
/// feed_batch thread).
class WorkerGang {
 public:
  explicit WorkerGang(std::size_t parties);
  ~WorkerGang();
  WorkerGang(const WorkerGang&) = delete;
  WorkerGang& operator=(const WorkerGang&) = delete;

  std::size_t parties() const noexcept { return threads_.size(); }

  /// Runs job(i) for every i in [0, parties()), each on its own worker
  /// thread, and returns once all of them have finished. Exceptions in
  /// jobs are fatal by design, matching run_threads.
  void run(const std::function<void(std::size_t)>& job);

 private:
  void worker_main(std::size_t index);

  Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  const std::function<void(std::size_t)>* job_ DUO_GUARDED_BY(mutex_) =
      nullptr;
  std::uint64_t generation_ DUO_GUARDED_BY(mutex_) = 0;
  std::size_t running_ DUO_GUARDED_BY(mutex_) = 0;
  bool shutdown_ DUO_GUARDED_BY(mutex_) = false;
  // unguarded: written only by the constructor and the destructor's
  // joins, which happen-after every worker exits; workers never touch
  // the vector itself.
  std::vector<std::thread> threads_;
};

/// Resolves a requested worker count: 0 means hardware concurrency
/// (minimum 1 — hardware_concurrency() may itself report 0). The single
/// policy point for every "0 = auto" knob (CheckerPool, monitor shards).
std::size_t resolve_threads(std::size_t requested) noexcept;

}  // namespace duo::util
