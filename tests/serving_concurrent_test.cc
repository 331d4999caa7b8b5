// Concurrency regression test for the stale-cache bug: a writer
// publishes new profile versions while readers rank through the
// serving layer's shared `ContextQueryTree`. Every answer must be
// consistent with exactly ONE published profile version — never a mix
// of per-state cache entries from different versions, and never a
// retired version's scores under a fresh snapshot. Runs in the CI
// TSan job (suite name matches scripts/check.sh's tsan filter).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "context/parser.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "util/deadline.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;

/// Score published for version step `k`: a distinct point on the 0.05
/// grid per step (mod its period), applied to BOTH preferences — so
/// within one version every scored tuple carries the same score, and a
/// mixed-version answer is detectable as two differing scores.
double ScoreForStep(uint64_t k) {
  return 0.05 + static_cast<double>(k % 19) * 0.05;
}

/// "u<n>", built with += because GCC 12's -Wrestrict misfires on
/// `literal + std::to_string(...)` at -O2 (breaks -Werror CI builds).
std::string UserName(int u) {
  std::string id("u");
  id += std::to_string(u);
  return id;
}

class ServingConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(60, 23);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
    // Two query states, each resolved (and cached) independently; each
    // matches a different preference, so a torn answer would pair a
    // museum score from one version with a park score from another.
    StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
        *env_, "location = Plaka or location = Kifisia");
    ASSERT_OK(ecod.status());
    query_.context = *ecod;
  }

  Profile VersionedProfile(uint64_t step) {
    const double s = ScoreForStep(step);
    Profile p(env_);
    EXPECT_OK(
        p.Insert(Pref(*env_, "location = Plaka", "type", "museum", s)));
    EXPECT_OK(
        p.Insert(Pref(*env_, "location = Kifisia", "type", "park", s)));
    return p;
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
  ContextualQuery query_;
};

TEST_F(ServingConcurrentTest, AnswersConsistentWithOnePublishedVersion) {
  ReplicatedQueryCache cache(env_, Ordering::Identity(env_->size()),
                             testing::SharedCache(256));
  storage::ProfileStore store(env_);
  store.AttachCoherenceLog(&cache.log());
  ASSERT_OK(store.CreateUser("u", VersionedProfile(0)));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> swaps{0};

  std::thread writer([&] {
    for (uint64_t step = 1; !stop.load(std::memory_order_relaxed); ++step) {
      Status published =
          store.PublishProfile("u", VersionedProfile(step));
      EXPECT_OK(published);
      swaps.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        StatusOr<storage::ServedQuery> served =
            storage::ServeQuery(store, "u", poi_->relation, query_, &cache);
        ASSERT_OK(served.status());
        // The snapshot the answer claims to come from fixes the one
        // legal score; every tuple must carry exactly it.
        const double expect =
            served->snapshot->profile().preference(0).score();
        EXPECT_DOUBLE_EQ(
            served->snapshot->profile().preference(1).score(), expect);
        for (const db::ScoredTuple& t : served->result.tuples) {
          if (std::abs(t.score - expect) > 1e-12) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "version-inconsistent answers observed";
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(swaps.load(), 0u);
  // The serving path actually exercised the cache.
  EXPECT_GT(cache.Stats().lookups, 0u);
}

TEST_F(ServingConcurrentTest, ResilientServingUnderOverloadStaysUntorn) {
  // ISSUE 8 stress: readers go through the full overload ladder
  // (admission, real-clock deadlines, stale and truncated fallbacks)
  // while a writer churns versions and an invalidator races the stale
  // rung's cache lookups. Whatever rung answers, every tuple must be
  // consistent with the ONE version the answer's provenance names.
  ReplicatedQueryCache cache(env_, Ordering::Identity(env_->size()),
                             testing::SharedCache(256));
  storage::ProfileStore store(env_);
  store.AttachCoherenceLog(&cache.log());
  ASSERT_OK(store.CreateUser("u", VersionedProfile(1)));
  // One user, one sequential writer: serving version == publish step,
  // so the expected score of ANY version is ScoreForStep(version).
  ASSERT_EQ(store.serving_version(), 1u);

  storage::AdmissionController admission(
      storage::AdmissionPolicy{.max_in_flight = 2});

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> shed{0};

  std::thread writer([&] {
    for (uint64_t step = 2; !stop.load(std::memory_order_relaxed); ++step) {
      EXPECT_OK(store.PublishProfile("u", VersionedProfile(step)));
      std::this_thread::yield();
    }
  });
  // Invalidation churn: entries vanish at arbitrary moments, racing
  // the stale rung's LookupAtOrBefore.
  std::thread invalidator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.replica(0).InvalidateUserBelow(
          "u", std::numeric_limits<uint64_t>::max());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        QueryOptions options;
        // Every third request runs on a nearly-spent real-clock
        // budget, so expiry races evaluation at every cancellation
        // point (front door, state loop, truncated rung).
        if (++i % 3 == 0) {
          options.deadline = util::Deadline::AfterMicros(5);
        }
        StatusOr<storage::ServedQuery> served = storage::ServeQuery(
            store, "u", poi_->relation, query_, &cache, options, nullptr,
            storage::kAnyReplica, &admission);
        if (!served.ok()) {
          // The ladder converts overload to kUnavailable, never to an
          // error class that looks like a bug.
          EXPECT_TRUE(served.status().IsUnavailable())
              << served.status().ToString();
          shed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const double expect = ScoreForStep(served->provenance.served_version);
        for (const db::ScoredTuple& t : served->result.tuples) {
          if (std::abs(t.score - expect) > 1e-12) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (served->provenance.via != storage::ServedVia::kFresh) {
          degraded.fetch_add(1, std::memory_order_relaxed);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  invalidator.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "version-inconsistent answers observed";
  EXPECT_GT(answered.load(), 0u);
  // Outcome mix is timing-dependent; just prove the ladder was used at
  // all (3 readers vs 2 slots sheds or degrades some requests) without
  // pinning which rung absorbed them.
  EXPECT_GT(answered.load() + shed.load(), degraded.load());
  EXPECT_GT(cache.Stats().lookups, 0u);
}

TEST_F(ServingConcurrentTest, PinnedSnapshotsSurviveChurnAndRemoval) {
  storage::ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("u", VersionedProfile(0)));
  StatusOr<storage::SnapshotPtr> pinned = store.GetSnapshot("u");
  ASSERT_OK(pinned.status());
  const double pinned_score = (*pinned)->profile().preference(0).score();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t step = 1; !stop.load(std::memory_order_relaxed); ++step) {
      EXPECT_OK(store.PublishProfile("u", VersionedProfile(step)));
    }
  });

  // The reader keeps ranking against its pinned version: same score
  // every time, no matter how fast the writer churns.
  for (int i = 0; i < 50; ++i) {
    StatusOr<QueryResult> result =
        storage::ServeQuery(**pinned, poi_->relation, query_);
    ASSERT_OK(result.status());
    for (const db::ScoredTuple& t : result->tuples) {
      EXPECT_DOUBLE_EQ(t.score, pinned_score);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  // Removal doesn't tear the pin either.
  ASSERT_OK(store.RemoveUser("u"));
  EXPECT_DOUBLE_EQ((*pinned)->profile().preference(0).score(), pinned_score);
}

TEST_F(ServingConcurrentTest, ConcurrentWritersToDistinctUsersProceed) {
  ReplicatedQueryCache cache(env_, Ordering::Identity(env_->size()),
                             testing::SharedCache());
  storage::ProfileStore store(env_);
  store.AttachCoherenceLog(&cache.log());
  constexpr int kUsers = 4;
  for (int u = 0; u < kUsers; ++u) {
    ASSERT_OK(store.CreateUser(UserName(u), VersionedProfile(0)));
  }

  std::vector<std::thread> writers;
  for (int u = 0; u < kUsers; ++u) {
    writers.emplace_back([&, u] {
      const std::string id = UserName(u);
      for (uint64_t step = 1; step <= 25; ++step) {
        EXPECT_OK(store.UpdateUser(id, [&](Profile& p) {
          const double s = ScoreForStep(step);
          // Rescore both preferences.
          CTXPREF_RETURN_IF_ERROR(p.UpdateScore(0, s));
          return p.UpdateScore(1, s);
        }));
        StatusOr<storage::ServedQuery> served = storage::ServeQuery(
            store, id, poi_->relation, query_, &cache);
        EXPECT_OK(served.status());
      }
    });
  }
  for (std::thread& t : writers) t.join();

  // Every user converged to the last published score.
  for (int u = 0; u < kUsers; ++u) {
    StatusOr<storage::SnapshotPtr> snap =
        store.GetSnapshot(UserName(u));
    ASSERT_OK(snap.status());
    EXPECT_DOUBLE_EQ((*snap)->profile().preference(0).score(),
                     ScoreForStep(25));
  }
}

}  // namespace
}  // namespace ctxpref
