// Model-based suites: random operation sequences applied in lockstep
// to the real structure and to a trivially correct reference model.

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "db/ranker.h"
#include "preference/query_cache.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/query_generator.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;

// ---------------------------------------------------------------------
// ContextQueryTree vs a reference LRU map.
// ---------------------------------------------------------------------

/// The obviously-correct cache: a map plus an explicit recency list.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  const std::vector<db::ScoredTuple>* Lookup(const ContextState& s,
                                             uint64_t version) {
    auto it = entries_.find(s);
    if (it == entries_.end()) return nullptr;
    // A version-skewed entry is a plain miss: kept, recency untouched.
    if (it->second.version != version) return nullptr;
    Touch(s);
    return &entries_.find(s)->second.tuples;
  }

  void Put(const ContextState& s, uint64_t version,
           std::vector<db::ScoredTuple> tuples) {
    auto it = entries_.find(s);
    if (it != entries_.end()) {
      it->second = Entry{std::move(tuples), version};
      Touch(s);
      return;
    }
    entries_.emplace(s, Entry{std::move(tuples), version});
    recency_.push_front(s);
    if (capacity_ > 0 && entries_.size() > capacity_) {
      entries_.erase(recency_.back());
      recency_.pop_back();
    }
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::vector<db::ScoredTuple> tuples;
    uint64_t version;
  };

  void Touch(const ContextState& s) {
    recency_.remove(s);
    recency_.push_front(s);
  }

  size_t capacity_;
  std::map<ContextState, Entry> entries_;
  std::list<ContextState> recency_;
};

class CacheModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheModelTest, RandomOpsMatchReferenceLru) {
  EnvironmentPtr env = PaperEnv();
  constexpr size_t kCapacity = 8;
  // One shard = one exact LRU domain, matching the reference model;
  // multi-shard eviction is only LRU per shard.
  ContextQueryTree cache(env, Ordering::Identity(env->size()), kCapacity,
                         /*num_shards=*/1);
  ReferenceLru reference(kCapacity);

  Rng rng(GetParam());
  // A small pool of states so lookups hit often.
  std::vector<ContextState> pool =
      workload::RandomQueryBatch(*env, 24, GetParam() ^ 0x9999, 0.4);

  uint64_t version = 1;
  for (int step = 0; step < 3000; ++step) {
    const ContextState& s = pool[rng.Uniform(pool.size())];
    const double roll = rng.NextDouble();
    if (roll < 0.45) {
      std::shared_ptr<const ContextQueryTree::Entry> a =
          cache.Lookup(s, version);
      const std::vector<db::ScoredTuple>* b = reference.Lookup(s, version);
      ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
      if (a != nullptr) {
        ASSERT_EQ(a->tuples, *b) << "step " << step;
      }
    } else if (roll < 0.9) {
      std::vector<db::ScoredTuple> tuples = {
          {rng.Uniform(100), rng.NextDouble()}};
      cache.Put(s, version, tuples);
      reference.Put(s, version, tuples);
    } else {
      ++version;  // Profile "edited": everything cached goes stale.
    }
    ASSERT_EQ(cache.size(), reference.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheModelTest,
                         ::testing::Values(401, 402, 403, 404));

// ---------------------------------------------------------------------
// Multi-user ContextQueryTree vs a (user, state)-keyed reference LRU.
// ---------------------------------------------------------------------

/// The multi-tenant reference: one recency list over (user, state)
/// pairs, per-entry version tags, and a per-user purge.
class MultiUserReferenceLru {
 public:
  using Key = std::pair<std::string, ContextState>;

  explicit MultiUserReferenceLru(size_t capacity) : capacity_(capacity) {}

  const std::vector<db::ScoredTuple>* Lookup(const std::string& user,
                                             const ContextState& s,
                                             uint64_t version) {
    const Key k{user, s};
    auto it = entries_.find(k);
    if (it == entries_.end()) return nullptr;
    // A version-skewed entry is a plain miss: kept, recency untouched.
    if (it->second.version != version) return nullptr;
    Touch(k);
    return &entries_.find(k)->second.tuples;
  }

  void Put(const std::string& user, const ContextState& s, uint64_t version,
           std::vector<db::ScoredTuple> tuples) {
    const Key k{user, s};
    auto it = entries_.find(k);
    if (it != entries_.end()) {
      it->second = Entry{std::move(tuples), version};
      Touch(k);
      return;
    }
    entries_.emplace(k, Entry{std::move(tuples), version});
    recency_.push_front(k);
    if (capacity_ > 0 && entries_.size() > capacity_) {
      entries_.erase(recency_.back());
      recency_.pop_back();
    }
  }

  size_t InvalidateUser(const std::string& user) {
    size_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->first.first == user) {
        recency_.remove(it->first);
        it = entries_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::vector<db::ScoredTuple> tuples;
    uint64_t version;
  };

  void Touch(const Key& k) {
    recency_.remove(k);
    recency_.push_front(k);
  }

  size_t capacity_;
  std::map<Key, Entry> entries_;
  std::list<Key> recency_;
};

class MultiUserCacheModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiUserCacheModelTest, RandomOpsMatchReference) {
  EnvironmentPtr env = PaperEnv();
  constexpr size_t kCapacity = 8;
  ContextQueryTree cache(env, Ordering::Identity(env->size()), kCapacity,
                         /*num_shards=*/1);
  MultiUserReferenceLru reference(kCapacity);

  Rng rng(GetParam());
  std::vector<ContextState> pool =
      workload::RandomQueryBatch(*env, 16, GetParam() ^ 0x7777, 0.4);
  const std::vector<std::string> users = {"alice", "bob", "carol"};
  // Per-user serving versions, bumped independently — the store's
  // publish model.
  std::vector<uint64_t> versions(users.size(), 1);

  for (int step = 0; step < 3000; ++step) {
    const size_t u = rng.Uniform(users.size());
    const ContextState& s = pool[rng.Uniform(pool.size())];
    const double roll = rng.NextDouble();
    if (roll < 0.4) {
      std::shared_ptr<const ContextQueryTree::Entry> a =
          cache.Lookup(users[u], s, versions[u]);
      const std::vector<db::ScoredTuple>* b =
          reference.Lookup(users[u], s, versions[u]);
      ASSERT_EQ(a != nullptr, b != nullptr)
          << "step " << step << " user " << users[u];
      if (a != nullptr) {
        ASSERT_EQ(a->tuples, *b) << "step " << step;
      }
    } else if (roll < 0.85) {
      std::vector<db::ScoredTuple> tuples = {
          {rng.Uniform(100), rng.NextDouble()}};
      cache.Put(users[u], s, versions[u], tuples);
      reference.Put(users[u], s, versions[u], tuples);
    } else if (roll < 0.95) {
      ++versions[u];  // Publish, not yet consumed: old entries miss.
    } else {
      // Publish plus a drop_all consume: both drop the same entries.
      ++versions[u];
      ASSERT_EQ(cache.InvalidateUser(users[u]),
                reference.InvalidateUser(users[u]))
          << "step " << step << " user " << users[u];
    }
    ASSERT_EQ(cache.size(), reference.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiUserCacheModelTest,
                         ::testing::Values(411, 412, 413, 414));

// ---------------------------------------------------------------------
// Ranker vs brute-force recomputation.
// ---------------------------------------------------------------------

class RankerModelTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, db::CombinePolicy>> {
};

TEST_P(RankerModelTest, MatchesBruteForce) {
  auto [seed, policy] = GetParam();
  Rng rng(seed);
  db::Ranker ranker(policy);
  std::map<db::RowId, std::vector<std::pair<double, double>>> model;

  for (int i = 0; i < 500; ++i) {
    const db::RowId row = rng.Uniform(40);
    const double score = rng.NextDouble();
    const double weight = 0.5 + rng.NextDouble();
    ranker.AddWeighted(row, score, weight);
    model[row].emplace_back(score, weight);
  }

  std::vector<db::ScoredTuple> ranked = ranker.Ranked();
  ASSERT_EQ(ranked.size(), model.size());
  for (const db::ScoredTuple& t : ranked) {
    const auto& obs = model.at(t.row_id);
    double expected = 0.0;
    switch (policy) {
      case db::CombinePolicy::kMax: {
        expected = obs.front().first;
        for (const auto& [s, w] : obs) expected = std::max(expected, s);
        break;
      }
      case db::CombinePolicy::kMin: {
        expected = obs.front().first;
        for (const auto& [s, w] : obs) expected = std::min(expected, s);
        break;
      }
      case db::CombinePolicy::kAvg:
      case db::CombinePolicy::kWeighted: {
        double num = 0, den = 0;
        for (const auto& [s, w] : obs) {
          num += s * w;
          den += w;
        }
        expected = num / den;
        break;
      }
    }
    EXPECT_NEAR(t.score, expected, 1e-9) << "row " << t.row_id;
  }
  // Ordering invariant: descending score, ties by ascending row id.
  for (size_t i = 1; i < ranked.size(); ++i) {
    ASSERT_TRUE(ranked[i - 1].score > ranked[i].score ||
                (ranked[i - 1].score == ranked[i].score &&
                 ranked[i - 1].row_id < ranked[i].row_id));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, RankerModelTest,
    ::testing::Combine(::testing::Values(501, 502),
                       ::testing::Values(db::CombinePolicy::kMax,
                                         db::CombinePolicy::kMin,
                                         db::CombinePolicy::kAvg,
                                         db::CombinePolicy::kWeighted)));

}  // namespace
}  // namespace ctxpref
