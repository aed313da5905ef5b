// Tests for the transactional data structures: sequential semantics,
// composition within transactions, multithreaded consistency under real
// STMs, and du-opacity of recorded runs.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "checker/engine.hpp"
#include "stm/norec.hpp"
#include "stm/tl2.hpp"
#include "txdata/txqueue.hpp"
#include "txdata/txset.hpp"
#include "util/threading.hpp"

namespace duo::txdata {
namespace {

using stm::Recorder;
using stm::Step;
using stm::Stm;
using stm::Tl2Stm;

/// Run a single-op transaction to completion; asserts it commits.
template <typename Op>
auto run_tx(Stm& stm, Op&& op) {
  using R = decltype(op(*stm.begin()));
  R result{};
  const bool ok = stm::atomically(stm, [&](stm::Transaction& tx) {
    auto r = op(tx);
    if (!r.has_value()) return Step::kRetry;
    result = std::move(r);
    return Step::kCommit;
  });
  EXPECT_TRUE(ok);
  return result;
}

TEST(TxHashSet, InsertContainsErase) {
  Tl2Stm stm(32);
  TxHashSet set(0, 32);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.insert(tx, 7); }), true);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.insert(tx, 7); }),
            false);  // duplicate
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.contains(tx, 7); }),
            true);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.contains(tx, 8); }),
            false);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.erase(tx, 7); }), true);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.erase(tx, 7); }), false);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.contains(tx, 7); }),
            false);
}

TEST(TxHashSet, TombstoneReuseAndProbeChains) {
  // Force collisions with a tiny table; erase then re-insert must reuse
  // tombstoned slots without breaking lookups of colliding elements.
  Tl2Stm stm(4);
  TxHashSet set(0, 4);
  for (const Value v : {1, 2, 3, 4})
    EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.insert(tx, v); }),
              true);
  // Table full now.
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.insert(tx, 5); }),
            false);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.erase(tx, 2); }), true);
  for (const Value v : {1, 3, 4})
    EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.contains(tx, v); }),
              true)
        << v;
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.insert(tx, 5); }), true);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.contains(tx, 5); }),
            true);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.size(tx); }), 4);
}

TEST(TxHashSet, ComposedOperationsAreAtomic) {
  // Move an element between two sets in one transaction; no observer may
  // ever see it in both or neither (single-threaded check of composition).
  Tl2Stm stm(64);
  TxHashSet a(0, 32), b(32, 32);
  run_tx(stm, [&](auto& tx) { return a.insert(tx, 42); });
  const bool moved = stm::atomically(stm, [&](stm::Transaction& tx) {
    const auto eras = a.erase(tx, 42);
    if (!eras) return Step::kRetry;
    const auto ins = b.insert(tx, 42);
    if (!ins) return Step::kRetry;
    return Step::kCommit;
  });
  EXPECT_TRUE(moved);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return a.contains(tx, 42); }),
            false);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return b.contains(tx, 42); }),
            true);
}

TEST(TxHashSet, ConcurrentInsertsAllLand) {
  Tl2Stm stm(256);
  TxHashSet set(0, 256);
  constexpr std::size_t kThreads = 4, kPerThread = 30;
  util::run_threads(kThreads, [&](std::size_t tid) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const Value v = static_cast<Value>(tid * 1000 + i + 1);
      stm::atomically(stm, [&](stm::Transaction& tx) {
        const auto r = set.insert(tx, v);
        return r.has_value() ? Step::kCommit : Step::kRetry;
      });
    }
  });
  for (std::size_t tid = 0; tid < kThreads; ++tid)
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const Value v = static_cast<Value>(tid * 1000 + i + 1);
      EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.contains(tx, v); }),
                true)
          << v;
    }
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return set.size(tx); }),
            static_cast<Value>(kThreads * kPerThread));
}

TEST(TxHashSet, RecordedContendedRunIsDuOpaque) {
  Recorder rec(1 << 16);
  Tl2Stm stm(8, &rec);
  TxHashSet set(0, 8);
  util::run_threads(3, [&](std::size_t tid) {
    for (int i = 0; i < 6; ++i) {
      const Value v = static_cast<Value>((tid + i) % 5 + 1);
      stm::atomically(stm, [&](stm::Transaction& tx) {
        const auto r = (i % 2 == 0) ? set.insert(tx, v) : set.erase(tx, v);
        return r.has_value() ? Step::kCommit : Step::kRetry;
      });
    }
  });
  const auto h = rec.finish(stm.num_objects());
  checker::CheckOptions opts;
  opts.node_budget = 200'000'000;
  EXPECT_TRUE(checker::check_du_opacity(h, opts).yes());
}

TEST(TxQueue, FifoSemantics) {
  Tl2Stm stm(TxQueue::footprint(4));
  TxQueue q(0, 4);
  for (const Value v : {10, 20, 30})
    EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return q.enqueue(tx, v); }), true);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return q.size(tx); }), 3);
  for (const Value v : {10, 20, 30}) {
    const auto r = run_tx(stm, [&](auto& tx) { return q.dequeue(tx); });
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, v);
  }
  const auto empty = run_tx(stm, [&](auto& tx) { return q.dequeue(tx); });
  EXPECT_FALSE(empty->has_value());
}

TEST(TxQueue, FullQueueRejectsEnqueue) {
  Tl2Stm stm(TxQueue::footprint(2));
  TxQueue q(0, 2);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return q.enqueue(tx, 1); }), true);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return q.enqueue(tx, 2); }), true);
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return q.enqueue(tx, 3); }), false);
  // Wrap-around after dequeue.
  run_tx(stm, [&](auto& tx) { return q.dequeue(tx); });
  EXPECT_EQ(*run_tx(stm, [&](auto& tx) { return q.enqueue(tx, 3); }), true);
}

TEST(TxQueue, ConcurrentProducersConsumersConserveElements) {
  stm::NorecStm stm(TxQueue::footprint(64));
  TxQueue q(0, 64);
  constexpr int kPerProducer = 40;
  std::atomic<Value> consumed_sum{0};
  std::atomic<int> consumed_count{0};
  util::run_threads(4, [&](std::size_t tid) {
    if (tid < 2) {  // producers
      for (int i = 0; i < kPerProducer; ++i) {
        const Value v = static_cast<Value>(tid * 10000 + i + 1);
        // atomically re-runs the body after an abort, so each attempt
        // resets its outcome and only a committed attempt's counts.
        bool enqueued = false;
        while (!enqueued) {
          const bool committed =
              stm::atomically(stm, [&](stm::Transaction& tx) {
                enqueued = false;
                const auto r = q.enqueue(tx, v);
                if (!r.has_value()) return Step::kRetry;
                enqueued = *r;
                return Step::kCommit;
              });
          enqueued = committed && enqueued;
        }
      }
    } else {  // consumers
      int drained = 0;
      while (drained < kPerProducer) {
        std::optional<Value> got;
        const bool committed = stm::atomically(stm, [&](stm::Transaction& tx) {
          got.reset();
          const auto r = q.dequeue(tx);
          if (!r.has_value()) return Step::kRetry;
          got = *r;
          return Step::kCommit;
        });
        if (committed && got.has_value()) {
          consumed_sum.fetch_add(*got);
          consumed_count.fetch_add(1);
          ++drained;
        }
      }
    }
  });
  EXPECT_EQ(consumed_count.load(), 2 * kPerProducer);
  Value expected = 0;
  for (std::size_t tid = 0; tid < 2; ++tid)
    for (int i = 0; i < kPerProducer; ++i)
      expected += static_cast<Value>(tid * 10000 + i + 1);
  EXPECT_EQ(consumed_sum.load(), expected);
}

}  // namespace
}  // namespace duo::txdata
