// Tests for the utility layer: RNG, zipf, bitset, table, format.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "util/bitset.hpp"
#include "util/format.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/threading.hpp"
#include "util/zipf.hpp"

namespace duo::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveBounds) {
  Xoshiro256 rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Xoshiro256 rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Zipf, UniformWhenThetaZero) {
  Zipf zipf(4, 0.0);
  Xoshiro256 rng(17);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[zipf(rng)];
  for (const int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Zipf, SkewPrefersLowRanks) {
  Zipf zipf(16, 1.2);
  Xoshiro256 rng(19);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[8] * 3);
  EXPECT_GT(counts[0], counts[15] * 5);
}

TEST(Zipf, SingleElement) {
  Zipf zipf(1, 0.9);
  Xoshiro256 rng(23);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(rng), 0u);
}

TEST(Bitset, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, SubsetAndIntersection) {
  DynamicBitset a(70), b(70);
  a.set(3);
  a.set(65);
  b.set(3);
  b.set(65);
  b.set(10);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  DynamicBitset c(70);
  c.set(20);
  EXPECT_FALSE(a.intersects(c));
}

TEST(Bitset, ForEachVisitsInOrder) {
  DynamicBitset b(200);
  const std::vector<std::size_t> bits{0, 1, 63, 64, 127, 128, 199};
  for (const auto i : bits) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits);
}

TEST(Bitset, EqualityAndHash) {
  DynamicBitset a(100), b(100);
  a.set(42);
  b.set(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(43);
  EXPECT_FALSE(a == b);
}

TEST(Bitset, OrAndAssign) {
  DynamicBitset a(10), b(10);
  a.set(1);
  b.set(2);
  a |= b;
  EXPECT_TRUE(a.test(1));
  EXPECT_TRUE(a.test(2));
  DynamicBitset c(10);
  c.set(2);
  a &= c;
  EXPECT_FALSE(a.test(1));
  EXPECT_TRUE(a.test(2));
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, YesNo) {
  EXPECT_EQ(yes_no(true), "yes");
  EXPECT_EQ(yes_no(false), "no");
}

TEST(Format, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Format, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Format, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Format, StartsWith) {
  EXPECT_TRUE(starts_with("objects=3", "objects="));
  EXPECT_FALSE(starts_with("obj", "objects="));
}

TEST(Mutex, MutualExclusionUnderContention) {
  Mutex mu;
  std::uint64_t counter = 0;  // guarded by mu (locals can't carry GUARDED_BY)
  constexpr std::uint64_t kIncrementsPerThread = 20000;
  run_threads(4, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kIncrementsPerThread; ++i) {
      MutexLock lock(mu);
      ++counter;
    }
  });
  MutexLock lock(mu);
  EXPECT_EQ(counter, 4 * kIncrementsPerThread);
}

TEST(Mutex, TryLockReportsHeldState) {
  Mutex mu;
  mu.lock();
  std::atomic<bool> acquired{true};
  // try_lock from *another* thread: self-try_lock on a held std::mutex is UB.
  ScopedThread probe([&] {
    if (mu.try_lock()) {
      mu.unlock();
    } else {
      acquired.store(false);
    }
  });
  probe.join();
  EXPECT_FALSE(acquired.load());
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(CondVar, WaitReleasesAndReacquires) {
  // A waiter must release the mutex while blocked (else the signaller could
  // never acquire it to flip the predicate) and hold it again on wakeup.
  Mutex mu;
  CondVar cv;
  bool ready = false;  // guarded by mu (locals can't carry GUARDED_BY)
  ScopedThread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    // Holding mu again here: writing `ready` back is race-free.
    ready = false;
  });
  {
    MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  }
  waiter.join();
  MutexLock lock(mu);
  EXPECT_FALSE(ready);
}

TEST(Rendezvous, StagesOrderThreads) {
  Rendezvous rv;
  std::vector<int> order;
  Mutex order_mu;
  run_threads(3, [&](std::size_t tid) {
    // Thread t waits for stage t, records itself, then opens stage t+1 —
    // so the record order is forced regardless of scheduling.
    rv.await(static_cast<int>(tid));
    {
      MutexLock lock(order_mu);
      order.push_back(static_cast<int>(tid));
    }
    rv.signal(static_cast<int>(tid) + 1);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Rendezvous, AwaitPastStageReturnsImmediately) {
  Rendezvous rv;
  rv.signal(5);
  rv.await(3);  // must not block: stage 5 >= 3 already published
  rv.await(5);
  SUCCEED();
}

TEST(SpinBarrier, ReusableAcrossGenerations) {
  // Regression scope: the relaxed `waiting_` reset in arrive_and_wait()
  // (docs/concurrency.md "SpinBarrier"). Oversubscribe threads vs cores and
  // cycle many generations so a straggler from generation g overlaps the
  // leader's reset; a lost or double-counted arrival deadlocks the barrier
  // or lets a thread skip a round, which the per-round counter detects.
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kRounds = 500;
  SpinBarrier barrier(kThreads);
  std::vector<std::atomic<std::uint64_t>> rounds_done(kThreads);
  for (auto& r : rounds_done) r.store(0);
  run_threads(kThreads, [&](std::size_t tid) {
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      barrier.arrive_and_wait();
      rounds_done[tid].fetch_add(1);
      barrier.arrive_and_wait();
      // Between the two arrivals every thread is in the same round, so no
      // thread can be more than one generation ahead of any other.
      for (const auto& r : rounds_done)
        EXPECT_GE(r.load(), round);
    }
  });
  for (const auto& r : rounds_done) EXPECT_EQ(r.load(), kRounds);
}

TEST(ScopedThread, JoinsOnDestruction) {
  std::atomic<int> ran{0};
  {
    ScopedThread t([&] { ran.store(1); });
    EXPECT_TRUE(t.joinable());
  }  // destructor joins; no terminate, and the body has completed
  EXPECT_EQ(ran.load(), 1);
}

TEST(ScopedThread, ExplicitJoinAndMove) {
  std::atomic<int> ran{0};
  ScopedThread t([&] { ran.fetch_add(1); });
  ScopedThread moved = std::move(t);
  EXPECT_FALSE(t.joinable());
  moved.join();
  EXPECT_FALSE(moved.joinable());
  EXPECT_EQ(ran.load(), 1);
}

TEST(WorkerGang, RunsEveryPartyPerDispatch) {
  constexpr std::size_t kParties = 4;
  WorkerGang gang(kParties);
  EXPECT_EQ(gang.parties(), kParties);
  std::vector<std::atomic<std::uint64_t>> hits(kParties);
  for (auto& h : hits) h.store(0);
  for (int round = 0; round < 100; ++round) {
    const std::function<void(std::size_t)> job = [&](std::size_t i) {
      hits[i].fetch_add(1);
    };
    gang.run(job);
    // run() is a barrier: every party has finished the round's job before
    // it returns, so the counts are exact, not eventual.
    for (const auto& h : hits)
      ASSERT_EQ(h.load(), static_cast<std::uint64_t>(round + 1));
  }
}

TEST(WorkerGang, PartiesSeeDistinctIndices) {
  constexpr std::size_t kParties = 3;
  WorkerGang gang(kParties);
  std::vector<std::atomic<int>> seen(kParties);
  for (auto& s : seen) s.store(0);
  const std::function<void(std::size_t)> job = [&](std::size_t i) {
    ASSERT_LT(i, kParties);
    seen[i].fetch_add(1);
  };
  gang.run(job);
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

}  // namespace
}  // namespace duo::util
