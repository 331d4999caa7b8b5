#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "context/parser.h"
#include "preference/query_cache.h"
#include "tests/test_util.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "workload/poi_dataset.h"
#include "workload/query_generator.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;
using ::ctxpref::testing::State;

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4, /*queue_capacity=*/2);  // Small queue: exercises
                                             // Submit backpressure.
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, TaskExceptionIsContained) {
  // A throw escaping a task must not terminate the process or corrupt
  // the pool's running-task bookkeeping (Wait would hang otherwise).
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&count, i] {
      if (i % 2 == 0) throw std::runtime_error("task failure");
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 10);
  // The pool is still serviceable after the throws.
  pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.Wait();
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1, /*queue_capacity=*/64);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

class QueryCacheConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(40, 7);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
};

/// N writers Put/InvalidateAll racing M readers Lookup. Correctness
/// here is "no data race / no crash / snapshots stay intact" — run
/// under -DCTXPREF_SANITIZE=thread to check real interleavings.
TEST_F(QueryCacheConcurrentTest, ReadersAndWritersRace) {
  ContextQueryTree cache(env_, Ordering::Identity(env_->size()),
                         /*capacity=*/32, /*num_shards=*/8);
  std::vector<ContextState> states =
      workload::RandomQueryBatch(*env_, 24, 1234, 0.0);
  ASSERT_FALSE(states.empty());

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kOpsPerThread = 2000;
  std::atomic<uint64_t> snapshot_rows{0};

  std::vector<std::jthread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const ContextState& s = states[(w + i) % states.size()];
        cache.Put(s, /*profile_version=*/1 + (i % 3),
                  {{static_cast<db::RowId>(i), 0.5}});
        if (i % 500 == 499) cache.InvalidateAll();
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t local = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const ContextState& s = states[(r + i) % states.size()];
        std::shared_ptr<const ContextQueryTree::Entry> hit =
            cache.Lookup(s, 1 + (i % 3));
        if (hit != nullptr) {
          // The snapshot must stay dereferenceable even while writers
          // overwrite/evict/invalidate the entry behind it.
          for (const db::ScoredTuple& t : hit->tuples) local += t.row_id;
        }
      }
      snapshot_rows.fetch_add(local, std::memory_order_relaxed);
    });
  }
  threads.clear();  // Join.

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups, static_cast<uint64_t>(kReaders) * kOpsPerThread);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kReaders) * kOpsPerThread);
  EXPECT_LE(stats.size, 32u);

  // Per-shard exactness: every lookup is exactly one hit or miss in
  // its shard, and the shards sum to the aggregate.
  CacheStats summed;
  for (size_t shard = 0; shard < cache.num_shards(); ++shard) {
    const CacheStats s = cache.ShardStats(shard);
    EXPECT_EQ(s.hits + s.misses, s.lookups) << "shard " << shard;
    summed.lookups += s.lookups;
    summed.hits += s.hits;
    summed.misses += s.misses;
    summed.evictions += s.evictions;
    summed.invalidations += s.invalidations;
    summed.size += s.size;
  }
  EXPECT_EQ(summed, stats);
}

/// Per-user writers and readers race a dedicated invalidator thread
/// calling InvalidateUser round-robin — the drop a replica's consume
/// step applies concurrently with serving traffic. Run
/// under TSan; afterwards the shard accounting must still be exact.
TEST_F(QueryCacheConcurrentTest, InvalidateUserRacesPerUserTraffic) {
  ContextQueryTree cache(env_, Ordering::Identity(env_->size()),
                         /*capacity=*/64, /*num_shards=*/8);
  std::vector<ContextState> states =
      workload::RandomQueryBatch(*env_, 16, 4321, 0.0);
  ASSERT_FALSE(states.empty());
  const std::vector<std::string> users = {"u0", "u1", "u2", "u3"};

  constexpr int kOpsPerThread = 2000;
  std::vector<std::jthread> threads;
  for (size_t u = 0; u < users.size(); ++u) {
    threads.emplace_back([&, u] {  // Writer for users[u].
      for (int i = 0; i < kOpsPerThread; ++i) {
        cache.Put(users[u], states[i % states.size()], 1 + (i % 3),
                  {{static_cast<db::RowId>(i), 0.5}});
      }
    });
    threads.emplace_back([&, u] {  // Reader for users[u].
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::shared_ptr<const ContextQueryTree::Entry> hit =
            cache.Lookup(users[u], states[i % states.size()], 1 + (i % 3));
        if (hit != nullptr) {
          volatile size_t keep = hit->tuples.size();  // Deref snapshot.
          (void)keep;
        }
      }
    });
  }
  threads.emplace_back([&] {  // Invalidator: the publish hook.
    for (int i = 0; i < kOpsPerThread / 4; ++i) {
      cache.InvalidateUser(users[i % users.size()]);
    }
  });
  threads.clear();  // Join.

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups,
            static_cast<uint64_t>(users.size()) * kOpsPerThread);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(stats.size, 64u);

  CacheStats summed;
  for (size_t shard = 0; shard < cache.num_shards(); ++shard) {
    const CacheStats s = cache.ShardStats(shard);
    summed.lookups += s.lookups;
    summed.hits += s.hits;
    summed.misses += s.misses;
    summed.evictions += s.evictions;
    summed.invalidations += s.invalidations;
    summed.size += s.size;
  }
  EXPECT_EQ(summed, stats);

  // Quiesced: a final targeted invalidation leaves those users empty
  // while the others' entries survive untouched.
  const size_t remaining_before = cache.size();
  cache.InvalidateUser(users[0]);
  cache.InvalidateUser(users[1]);
  for (const ContextState& s : states) {
    EXPECT_EQ(cache.Lookup(users[0], s, 1), nullptr);
    EXPECT_EQ(cache.Lookup(users[1], s, 1), nullptr);
  }
  EXPECT_LE(cache.size(), remaining_before);
}

TEST_F(QueryCacheConcurrentTest, ConcurrentLookupsOnWarmCacheAllHit) {
  ContextQueryTree cache(env_, Ordering::Identity(env_->size()),
                         /*capacity=*/0, /*num_shards=*/8);
  std::vector<ContextState> raw =
      workload::RandomQueryBatch(*env_, 16, 99, 0.0);
  // The batch may repeat a state; each Put below must key a distinct
  // state or a later one would overwrite an earlier row id.
  std::vector<ContextState> states;
  for (ContextState& s : raw) {
    if (std::find(states.begin(), states.end(), s) == states.end()) {
      states.push_back(std::move(s));
    }
  }
  for (size_t i = 0; i < states.size(); ++i) {
    cache.Put(states[i], 1, {{static_cast<db::RowId>(i), 0.9}});
  }
  std::vector<std::jthread> threads;
  for (int r = 0; r < 8; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        for (size_t s = 0; s < states.size(); ++s) {
          std::shared_ptr<const ContextQueryTree::Entry> hit =
              cache.Lookup(states[s], 1);
          ASSERT_NE(hit, nullptr);
          EXPECT_EQ(hit->tuples[0].row_id, s);
        }
      }
    });
  }
  threads.clear();  // Join.
  EXPECT_EQ(cache.Stats().misses, 0u);
}

TEST_F(QueryCacheConcurrentTest, PerShardLatencyFollowsTimingFlag) {
  const bool prev = MetricsRegistry::TimingEnabled();
  ContextQueryTree cache(env_, Ordering::Identity(env_->size()),
                         /*capacity=*/0, /*num_shards=*/4);
  std::vector<ContextState> states =
      workload::RandomQueryBatch(*env_, 16, 41, 0.0);

  auto shard_latency_total = [&cache] {
    uint64_t total = 0;
    for (size_t s = 0; s < cache.num_shards(); ++s) {
      total += cache.ShardLookupLatency(s).count;
    }
    return total;
  };

  MetricsRegistry::SetTimingEnabled(false);
  for (const ContextState& s : states) cache.Lookup(s, 1);
  EXPECT_EQ(shard_latency_total(), 0u);

  MetricsRegistry::SetTimingEnabled(true);
  for (const ContextState& s : states) cache.Lookup(s, 1);
  EXPECT_EQ(shard_latency_total(), states.size());
  MetricsRegistry::SetTimingEnabled(prev);
}

/// The acceptance bar for the parallel Rank_CS: ranked output and
/// traces are bit-identical across thread counts.
TEST_F(QueryCacheConcurrentTest, ParallelCachedRankCSIsDeterministic) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  ASSERT_OK(profile.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.7)));
  ASSERT_OK(profile.Insert(
      Pref(*env_, "location = Plaka", "type", "museum", 0.8)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  // An exploratory descriptor that enumerates several states, so the
  // worker pool actually has parallel work.
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env_,
      "location in {Plaka, Kifisia} and temperature in {hot, warm} and "
      "accompanying_people in {friends, family}");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;

  QueryOptions serial;
  serial.num_threads = 1;
  ContextQueryTree cold1(env_, Ordering::Identity(env_->size()), 64);
  StatusOr<QueryResult> one =
      CachedRankCS(poi_->relation, q, resolver, "", profile.version(),
                   cold1, serial);
  ASSERT_OK(one.status());

  QueryOptions parallel = serial;
  parallel.num_threads = 8;
  ContextQueryTree cold8(env_, Ordering::Identity(env_->size()), 64);
  StatusOr<QueryResult> eight =
      CachedRankCS(poi_->relation, q, resolver, "", profile.version(),
                   cold8, parallel);
  ASSERT_OK(eight.status());

  EXPECT_EQ(eight->tuples, one->tuples);
  ASSERT_EQ(eight->traces.size(), one->traces.size());
  for (size_t i = 0; i < one->traces.size(); ++i) {
    EXPECT_EQ(eight->traces[i].query_state, one->traces[i].query_state);
    ASSERT_EQ(eight->traces[i].candidates->size(),
              one->traces[i].candidates->size());
    for (size_t c = 0; c < one->traces[i].candidates->size(); ++c) {
      EXPECT_EQ((*eight->traces[i].candidates)[c].state,
                (*one->traces[i].candidates)[c].state);
      EXPECT_EQ((*eight->traces[i].candidates)[c].distance,
                (*one->traces[i].candidates)[c].distance);
    }
  }

  // And a warm parallel run over the now-populated cache agrees too.
  StatusOr<QueryResult> warm =
      CachedRankCS(poi_->relation, q, resolver, "", profile.version(),
                   cold8, parallel);
  ASSERT_OK(warm.status());
  EXPECT_EQ(warm->tuples, one->tuples);
  EXPECT_GE(cold8.Stats().hits, 1u);

  // A caller-owned shared pool (server configuration) agrees as well.
  ThreadPool shared(4);
  QueryOptions pooled = serial;
  pooled.pool = &shared;
  ContextQueryTree cold_pool(env_, Ordering::Identity(env_->size()), 64);
  StatusOr<QueryResult> via_pool =
      CachedRankCS(poi_->relation, q, resolver, "", profile.version(),
                   cold_pool, pooled);
  ASSERT_OK(via_pool.status());
  EXPECT_EQ(via_pool->tuples, one->tuples);
}

}  // namespace
}  // namespace ctxpref
