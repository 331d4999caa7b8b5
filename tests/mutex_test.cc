// util::Mutex / util::SharedMutex / util::CondVar behavior, plus the
// lock-rank deadlock checker: acquiring locks against the documented
// hierarchy must abort (death tests name both locks), and every legal
// nesting the serving path uses must stay silent.

#include "util/mutex.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ctxpref::util {
namespace {

constexpr bool kRankChecksCompiledIn = CTXPREF_LOCK_RANK_CHECKS != 0;

TEST(MutexTest, LockUnlockAndTryLock) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, TryLockFailsWhenHeldElsewhere) {
  Mutex mu;
  mu.Lock();
  std::thread t([&] { EXPECT_FALSE(mu.TryLock()); });
  t.join();
  mu.Unlock();
}

TEST(MutexTest, MutexLockIsScoped) {
  Mutex mu;
  {
    MutexLock lock(mu);
  }
  ASSERT_TRUE(mu.TryLock());  // Released on scope exit.
  mu.Unlock();
}

TEST(MutexTest, SharedMutexAllowsConcurrentReaders) {
  SharedMutex mu;
  mu.LockShared();
  std::thread t([&] {
    ReaderLock lock(mu);  // Second reader must not block.
  });
  t.join();
  mu.UnlockShared();
  {
    WriterLock lock(mu);
  }
}

TEST(MutexTest, CondVarWaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread t([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    cv.Wait(mu, [&] { return ready; });
    EXPECT_TRUE(ready);
  }
  t.join();
}

// ---------------------------------------------------------------------
// Lock-rank checker. Ranked mutexes must be acquired in strictly
// increasing rank order; the checker aborts on inversion with a
// message naming both locks.

TEST(LockRankTest, IncreasingOrderIsAllowed) {
  Mutex store_slot(LockRank::kStoreSlot, "rank_test.store_slot");
  Mutex cache_shard(LockRank::kCacheShard, "rank_test.cache_shard");
  Mutex trace(LockRank::kTraceRecorder, "rank_test.trace");
  MutexLock a(store_slot);
  MutexLock b(cache_shard);
  MutexLock c(trace);
}

TEST(LockRankTest, SkippingLevelsIsAllowed) {
  Mutex user_map(LockRank::kUserMap, "rank_test.user_map");
  Mutex trace(LockRank::kTraceRecorder, "rank_test.trace");
  MutexLock a(user_map);
  MutexLock b(trace);
}

TEST(LockRankTest, UnrankedLocksAreExemptInBothDirections) {
  Mutex ranked(LockRank::kMetricsRegistry, "rank_test.ranked");
  Mutex unranked;
  {
    MutexLock a(ranked);
    MutexLock b(unranked);
  }
  {
    MutexLock a(unranked);
    MutexLock b(ranked);
  }
}

TEST(LockRankTest, ReleaseResetsTheOrder) {
  Mutex low(LockRank::kUserMap, "rank_test.low");
  Mutex high(LockRank::kTraceRecorder, "rank_test.high");
  {
    MutexLock b(high);
  }
  // high was released, so taking low afterwards is legal.
  MutexLock a(low);
}

TEST(LockRankTest, OtherThreadsHaveIndependentStacks) {
  Mutex low(LockRank::kUserMap, "rank_test.low");
  Mutex high(LockRank::kTraceRecorder, "rank_test.high");
  MutexLock b(high);
  // This thread holds `high`; another thread may still start from the
  // bottom of the hierarchy.
  std::thread t([&] { MutexLock a(low); });
  t.join();
}

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, InversionAbortsNamingBothLocks) {
  if (!kRankChecksCompiledIn) {
    GTEST_SKIP() << "lock-rank checks compiled out "
                    "(CTXPREF_LOCK_RANK=OFF or Release build)";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Mutex lock_a(LockRank::kCacheShard, "rank_test.lock_a");
  Mutex lock_b(LockRank::kStoreSlot, "rank_test.lock_b");
  // A→B follows the hierarchy (store-slot 30 < cache-shard 40 means
  // B-then-A; taking A first and then B inverts it).
  EXPECT_DEATH(
      {
        MutexLock a(lock_a);
        MutexLock b(lock_b);
      },
      "lock-rank violation.*'rank_test\\.lock_b'.*'rank_test\\.lock_a'");
  // The opposite order is the documented one and must not die.
  MutexLock b(lock_b);
  MutexLock a(lock_a);
}

TEST(LockRankDeathTest, EqualRankAbortsToo) {
  if (!kRankChecksCompiledIn) {
    GTEST_SKIP() << "lock-rank checks compiled out "
                    "(CTXPREF_LOCK_RANK=OFF or Release build)";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Mutex first(LockRank::kCacheShard, "rank_test.shard_one");
  Mutex second(LockRank::kCacheShard, "rank_test.shard_two");
  EXPECT_DEATH(
      {
        MutexLock a(first);
        MutexLock b(second);
      },
      "lock-rank violation.*'rank_test\\.shard_two'.*'rank_test\\.shard_one'");
}

TEST(LockRankDeathTest, SharedAcquisitionIsCheckedLikeExclusive) {
  if (!kRankChecksCompiledIn) {
    GTEST_SKIP() << "lock-rank checks compiled out "
                    "(CTXPREF_LOCK_RANK=OFF or Release build)";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SharedMutex map_mu(LockRank::kUserMap, "rank_test.map_mu");
  Mutex shard_mu(LockRank::kCacheShard, "rank_test.shard_mu");
  EXPECT_DEATH(
      {
        MutexLock a(shard_mu);
        ReaderLock b(map_mu);
      },
      "lock-rank violation.*'rank_test\\.map_mu'.*'rank_test\\.shard_mu'");
}

}  // namespace
}  // namespace ctxpref::util
