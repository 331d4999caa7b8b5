#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "preference/query_cache.h"
#include "tests/test_util.h"
#include "workload/poi_dataset.h"
#include "workload/query_generator.h"

namespace ctxpref {
namespace {

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

/// The drop a user removal applies: every entry of the user.
constexpr uint64_t kAllVersions = std::numeric_limits<uint64_t>::max();

/// Entries actually reachable in `cache` for `users` x the distinct
/// `states`, at any version — what `Stats().size` must count once the
/// threads are joined.
size_t ReachableEntries(ContextQueryTree& cache,
                        const std::vector<std::string>& users,
                        const std::vector<ContextState>& states) {
  std::vector<ContextState> distinct;
  for (const ContextState& s : states) {
    if (std::find(distinct.begin(), distinct.end(), s) == distinct.end()) {
      distinct.push_back(s);
    }
  }
  size_t found = 0;
  for (const std::string& user : users) {
    for (const ContextState& s : distinct) {
      if (cache.LookupAtOrBefore(user, s, UINT64_MAX, 0) != nullptr) ++found;
    }
  }
  return found;
}

/// N writers Put/InvalidateUserBelow racing M readers Lookup. Correctness
/// here is "no data race / no crash / snapshots stay intact" — run
/// under -DCTXPREF_SANITIZE=thread to check real interleavings.
TEST_F(QueryCacheConcurrentTest, ReadersAndWritersRace) {
  ContextQueryTree cache(/*capacity=*/32);
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
        // A user removal's drop: every entry below the maximum version.
        if (i % 500 == 499) cache.InvalidateUserBelow("", kAllVersions);
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

  // Exact accounting under the race: every lookup is exactly one hit
  // or miss, the bounded tree never holds more than its capacity, and
  // `size` counts exactly the entries left in the tree.
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups, static_cast<uint64_t>(kReaders) * kOpsPerThread);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(stats.size, 32u);
  EXPECT_EQ(ReachableEntries(cache, {""}, states), stats.size);
}

/// Per-user writers and readers race a dedicated invalidator thread
/// calling InvalidateUserBelow round-robin — the drop a replica's
/// consume step applies concurrently with serving traffic. Run
/// under TSan; afterwards the tree's accounting must still be exact.
TEST_F(QueryCacheConcurrentTest, InvalidateUserRacesPerUserTraffic) {
  ContextQueryTree cache(/*capacity=*/64);
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
      cache.InvalidateUserBelow(users[i % users.size()], kAllVersions);
    }
  });
  threads.clear();  // Join.

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups,
            static_cast<uint64_t>(users.size()) * kOpsPerThread);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(stats.size, 64u);
  EXPECT_EQ(ReachableEntries(cache, users, states), stats.size);

  // Quiesced: a final targeted invalidation leaves those users empty
  // while the others' entries survive untouched.
  const size_t remaining_before = cache.size();
  cache.InvalidateUserBelow(users[0], kAllVersions);
  cache.InvalidateUserBelow(users[1], kAllVersions);
  for (const ContextState& s : states) {
    EXPECT_EQ(cache.Lookup(users[0], s, 1), nullptr);
    EXPECT_EQ(cache.Lookup(users[1], s, 1), nullptr);
  }
  EXPECT_LE(cache.size(), remaining_before);
}

TEST_F(QueryCacheConcurrentTest, ConcurrentLookupsOnWarmCacheAllHit) {
  ContextQueryTree cache;
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

}  // namespace
}  // namespace ctxpref
