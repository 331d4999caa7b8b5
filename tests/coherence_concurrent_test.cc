// TSan stress for log-based cache coherence (docs/coherence.md):
// N reader threads, each serving through its own cache replica, race a
// writer publishing new profile versions (appending to the coherence
// log) and log-consumer churn (inline drains, a roaming consumer
// thread, and background consume tasks on a ThreadPool). Every answer
// must be consistent with exactly ONE published version — zero torn
// answers — and after quiescing, every replica's clock must cover the
// store and the log must drain empty. Suite names match the
// `|Coherence` term of scripts/check.sh's TSan ctest filter.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "context/parser.h"
#include "preference/replicated_query_cache.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"
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

class CoherenceConcurrentTest : public ::testing::Test {
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

  /// Shared reader body: serve through replica `r`, compare every
  /// tuple's score to the one legal score of the snapshot the answer
  /// claims to come from. `tolerate_not_found` is for the
  /// remove/recreate test, where the user genuinely vanishes.
  void ReadLoop(const storage::ProfileStore& store,
                ReplicatedQueryCache& replicas, size_t r,
                const std::atomic<bool>& stop, std::atomic<uint64_t>& torn,
                std::atomic<uint64_t>& answered, bool tolerate_not_found) {
    while (!stop.load(std::memory_order_relaxed)) {
      StatusOr<storage::ServedQuery> served =
          storage::ServeQuery(store, "u", poi_->relation, query_, &replicas,
                              QueryOptions{}, /*counter=*/nullptr, r);
      if (!served.ok()) {
        EXPECT_TRUE(tolerate_not_found && served.status().IsNotFound())
            << served.status().ToString();
        continue;
      }
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
  }

  /// Quiesce checks shared by every mode: once writers stop and every
  /// replica consumes, clocks cover the store and the log is empty.
  void ExpectQuiesced(const storage::ProfileStore& store,
                      ReplicatedQueryCache& replicas) {
    replicas.ConsumeAll();
    for (size_t r = 0; r < replicas.num_replicas(); ++r) {
      EXPECT_GE(replicas.clock(r), store.serving_version()) << "replica " << r;
    }
    EXPECT_EQ(replicas.log().depth(), 0u);
    EXPECT_EQ(replicas.InvalidationLagVersions(), 0u);
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
  ContextualQuery query_;
};

// Inline mode: every lookup drains the log itself, while a roaming
// consumer thread drains replicas it does not own — consume
// serialization (the per-replica consume mutex) is under fire from
// both sides, concurrently with writer appends.
TEST_F(CoherenceConcurrentTest, InlineConsumeNeverTearsUnderWriterChurn) {
  storage::ProfileStore store(env_);
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 3;
  ropt.mode = ReplicatedQueryCache::ConsumeMode::kInlineAtLookup;
  ReplicatedQueryCache replicas(env_, Ordering::Identity(env_->size()), ropt);
  store.AttachCoherenceLog(&replicas.log());
  ASSERT_OK(store.CreateUser("u", VersionedProfile(0)));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> swaps{0};

  std::thread writer([&] {
    for (uint64_t step = 1; !stop.load(std::memory_order_relaxed); ++step) {
      EXPECT_OK(store.PublishProfile("u", VersionedProfile(step)));
      swaps.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  std::thread roamer([&] {
    size_t r = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      replicas.Consume(r);
      r = (r + 1) % replicas.num_replicas();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (size_t r = 0; r < replicas.num_replicas(); ++r) {
    readers.emplace_back([this, &store, &replicas, r, &stop, &torn,
                          &answered] {
      ReadLoop(store, replicas, r, stop, torn, answered,
               /*tolerate_not_found=*/false);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  roamer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "version-inconsistent answers observed";
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(swaps.load(), 0u);
  EXPECT_GT(replicas.Stats().lookups, 0u);
  ExpectQuiesced(store, replicas);
}

// Background mode: appends kick consume tasks onto a real ThreadPool,
// so drains race lookups on other threads and the coverage gate
// genuinely refuses when a replica lags. Refused reads must fall
// through to the miss path — never serve through the stale replica.
TEST_F(CoherenceConcurrentTest, BackgroundConsumersRefuseButNeverLie) {
  storage::ProfileStore store(env_);
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 3;
  ropt.staleness_window = 2;
  ropt.mode = ReplicatedQueryCache::ConsumeMode::kBackground;
  ReplicatedQueryCache replicas(env_, Ordering::Identity(env_->size()), ropt);
  store.AttachCoherenceLog(&replicas.log());
  ASSERT_OK(store.CreateUser("u", VersionedProfile(0)));

  // Destroyed before `replicas` (declared later), so queued consume
  // tasks still have a live cache to drain into while the pool shuts
  // down.
  ThreadPool pool(2);
  replicas.SetBackgroundPool(&pool);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> answered{0};

  std::thread writer([&] {
    for (uint64_t step = 1; !stop.load(std::memory_order_relaxed); ++step) {
      EXPECT_OK(store.PublishProfile("u", VersionedProfile(step)));
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (size_t r = 0; r < replicas.num_replicas(); ++r) {
    readers.emplace_back([this, &store, &replicas, r, &stop, &torn,
                          &answered] {
      ReadLoop(store, replicas, r, stop, torn, answered,
               /*tolerate_not_found=*/false);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::thread& t : readers) t.join();
  replicas.SetBackgroundPool(nullptr);

  EXPECT_EQ(torn.load(), 0u) << "version-inconsistent answers observed";
  EXPECT_GT(answered.load(), 0u);
  ExpectQuiesced(store, replicas);
}

// Remove/recreate churn: drop_all records race reads and ordinary
// invalidation records. A reader may see NotFound (the user is gone)
// but never a removed generation's scores under a fresh snapshot.
TEST_F(CoherenceConcurrentTest, RemoveRecreateChurnStaysCoherent) {
  storage::ProfileStore store(env_);
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 2;
  ropt.mode = ReplicatedQueryCache::ConsumeMode::kInlineAtLookup;
  ReplicatedQueryCache replicas(env_, Ordering::Identity(env_->size()), ropt);
  store.AttachCoherenceLog(&replicas.log());
  ASSERT_OK(store.CreateUser("u", VersionedProfile(0)));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> removals{0};

  std::thread writer([&] {
    for (uint64_t step = 1; !stop.load(std::memory_order_relaxed); ++step) {
      if (step % 7 == 0) {
        EXPECT_OK(store.RemoveUser("u"));
        EXPECT_OK(store.CreateUser("u", VersionedProfile(step)));
        removals.fetch_add(1, std::memory_order_relaxed);
      } else {
        EXPECT_OK(store.PublishProfile("u", VersionedProfile(step)));
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (size_t r = 0; r < replicas.num_replicas(); ++r) {
    readers.emplace_back([this, &store, &replicas, r, &stop, &torn,
                          &answered] {
      ReadLoop(store, replicas, r, stop, torn, answered,
               /*tolerate_not_found=*/true);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "version-inconsistent answers observed";
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(removals.load(), 0u);
  ExpectQuiesced(store, replicas);
}

}  // namespace
}  // namespace ctxpref
