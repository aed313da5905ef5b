// Concurrent data structures on the STM: a transactional hash set and FIFO
// queue shared by worker threads, with composed multi-structure
// transactions ("move element from set to queue atomically") — and the
// recorded execution judged du-opaque afterwards.
//
// Usage: concurrent_set [threads] [items-per-thread] [backend]
// (backend is any registry name — the data structures are generic over the
// STM API, so they run unchanged on deferred- and direct-update designs.)
#include <cstdio>
#include <cstdlib>

#include "checker/engine.hpp"
#include "history/printer.hpp"
#include "stm/registry.hpp"
#include "txdata/txqueue.hpp"
#include "txdata/txset.hpp"
#include "util/threading.hpp"

int main(int argc, char** argv) {
  using namespace duo;
  const auto threads =
      static_cast<std::size_t>(argc > 1 ? std::atoi(argv[1]) : 4);
  const int per_thread = argc > 2 ? std::atoi(argv[2]) : 25;
  const char* backend = argc > 3 ? argv[3] : "tl2";

  // Layout: set over objects [0, 128), queue over [128, 128+66).
  constexpr stm::ObjId kSetBase = 0, kSetCap = 128;
  const stm::ObjId kQueueBase = kSetBase + kSetCap;
  constexpr stm::ObjId kQueueCap = 64;
  stm::Recorder recorder(1 << 18);
  auto stm_ptr = stm::make_stm(
      backend, kQueueBase + txdata::TxQueue::footprint(kQueueCap),
      &recorder);
  if (stm_ptr == nullptr) {
    std::printf("unknown backend: %s\nregistered: %s\n", backend,
                stm::registered_names().c_str());
    return 1;
  }
  stm::Stm& stm = *stm_ptr;
  const txdata::TxHashSet set(kSetBase, kSetCap);
  const txdata::TxQueue queue(kQueueBase, kQueueCap);

  // Phase 1: every thread inserts its values into the set.
  util::run_threads(threads, [&](std::size_t tid) {
    for (int i = 0; i < per_thread; ++i) {
      const stm::Value v = static_cast<stm::Value>(tid * 1000 + i + 1);
      stm::atomically(stm, [&](stm::Transaction& tx) {
        const auto r = set.insert(tx, v);
        return r.has_value() ? stm::Step::kCommit : stm::Step::kRetry;
      });
    }
  });

  // Phase 2: threads atomically move elements set -> queue and drain the
  // queue; the combined operation is one transaction, so an element is
  // never in both structures or lost.
  util::run_threads(threads, [&](std::size_t tid) {
    for (int i = 0; i < per_thread; ++i) {
      const stm::Value v = static_cast<stm::Value>(tid * 1000 + i + 1);
      bool moved = false;
      while (!moved) {
        stm::atomically(stm, [&](stm::Transaction& tx) {
          const auto erased = set.erase(tx, v);
          if (!erased) return stm::Step::kRetry;
          if (!*erased) return stm::Step::kAbandon;  // someone else moved it
          const auto queued = queue.enqueue(tx, v);
          if (!queued) return stm::Step::kRetry;
          if (!*queued) return stm::Step::kAbandon;  // queue full: back off
          moved = true;
          return stm::Step::kCommit;
        });
        if (!moved) {
          // Drain one element to make room, then retry the move.
          stm::atomically(stm, [&](stm::Transaction& tx) {
            const auto r = queue.dequeue(tx);
            return r.has_value() ? stm::Step::kCommit : stm::Step::kRetry;
          });
        }
      }
    }
  });

  // Drain what remains.
  int drained = 0;
  bool more = true;
  while (more) {
    stm::atomically(stm, [&](stm::Transaction& tx) {
      const auto r = queue.dequeue(tx);
      if (!r.has_value()) return stm::Step::kRetry;
      more = r->has_value();
      drained += more ? 1 : 0;
      return stm::Step::kCommit;
    });
  }

  stm::Value left_in_set = 0;
  stm::atomically(stm, [&](stm::Transaction& tx) {
    const auto s = set.size(tx);
    if (!s) return stm::Step::kRetry;
    left_in_set = *s;
    return stm::Step::kCommit;
  });

  const int total = static_cast<int>(threads) * per_thread;
  std::printf("inserted %d, left in set %lld, drained-at-end %d\n", total,
              static_cast<long long>(left_in_set), drained);
  std::printf("conservation: set+queue accounted for every element: %s\n",
              left_in_set == 0 ? "yes" : "NO");

  const auto h = recorder.finish(stm.num_objects());
  std::printf("recorded %s\n", history::summary(h).c_str());
  checker::CheckOptions opts;
  opts.node_budget = 500'000'000;
  const auto verdict = checker::check_du_opacity(h, opts);
  std::printf("du-opacity verdict: %s\n",
              checker::to_string(verdict.verdict).c_str());
  return left_in_set == 0 && !verdict.no() ? 0 : 1;
}
