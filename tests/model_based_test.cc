// Model-based suites: random operation sequences applied in lockstep
// to the real structure and to a trivially correct reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "db/ranker.h"
#include "preference/query_cache.h"
#include "preference/resolution.h"
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
  ContextQueryTree cache(kCapacity);
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
/// pairs, per-entry version and shape tags, re-score hits, a
/// bounded-staleness lookup and the per-user purge the coherence
/// consume step applies (a user removal is a purge below the maximum
/// version).
class MultiUserReferenceLru {
 public:
  using Key = std::pair<std::string, ContextState>;

  explicit MultiUserReferenceLru(size_t capacity) : capacity_(capacity) {}

  /// A hit at `version`, or, with a non-zero `shape`, a re-score hit on
  /// an older entry of that shape (`*rescore` set); both refresh the
  /// entry's recency. Anything else is a miss: kept, recency untouched.
  const std::vector<db::ScoredTuple>* Lookup(const std::string& user,
                                             const ContextState& s,
                                             uint64_t version,
                                             uint64_t shape = 0,
                                             bool* rescore = nullptr) {
    const Key k{user, s};
    auto it = entries_.find(k);
    if (it == entries_.end()) return nullptr;
    const bool older_same_shape = shape != 0 && it->second.shape == shape &&
                                  it->second.version < version;
    if (it->second.version != version && !older_same_shape) return nullptr;
    if (older_same_shape) ++rescore_hits_;
    if (rescore != nullptr) *rescore = older_same_shape;
    Touch(k);
    return &entries_.find(k)->second.tuples;
  }

  /// The stale rung's lookup: a hit iff the entry's version lies in
  /// `[min_version, max_version]`; an out-of-window entry is a plain
  /// miss that stays.
  const std::vector<db::ScoredTuple>* LookupAtOrBefore(
      const std::string& user, const ContextState& s, uint64_t max_version,
      uint64_t min_version, uint64_t* entry_version) {
    const Key k{user, s};
    auto it = entries_.find(k);
    if (it == entries_.end() || it->second.version > max_version ||
        it->second.version < min_version) {
      return nullptr;
    }
    *entry_version = it->second.version;
    Touch(k);
    return &entries_.find(k)->second.tuples;
  }

  /// Also a re-score hit's re-tag or rebuild: the entry is overwritten
  /// in place and its recency refreshed.
  void Put(const std::string& user, const ContextState& s, uint64_t version,
           std::vector<db::ScoredTuple> tuples, uint64_t shape = 0) {
    const Key k{user, s};
    auto it = entries_.find(k);
    if (it != entries_.end()) {
      it->second = Entry{std::move(tuples), version, shape};
      Touch(k);
      return;
    }
    entries_.emplace(k, Entry{std::move(tuples), version, shape});
    recency_.push_front(k);
    if (capacity_ > 0 && entries_.size() > capacity_) {
      entries_.erase(recency_.back());
      recency_.pop_back();
    }
  }

  /// Drops `user`'s entries tagged strictly below `version`.
  size_t InvalidateUserBelow(const std::string& user, uint64_t version) {
    size_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->first.first == user && it->second.version < version) {
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
  uint64_t rescore_hits() const { return rescore_hits_; }

 private:
  struct Entry {
    std::vector<db::ScoredTuple> tuples;
    uint64_t version;
    uint64_t shape;
  };

  void Touch(const Key& k) {
    recency_.remove(k);
    recency_.push_front(k);
  }

  size_t capacity_;
  std::map<Key, Entry> entries_;
  std::list<Key> recency_;
  uint64_t rescore_hits_ = 0;
};

class MultiUserCacheModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiUserCacheModelTest, RandomOpsMatchReference) {
  EnvironmentPtr env = PaperEnv();
  constexpr size_t kCapacity = 8;
  ContextQueryTree cache(kCapacity);
  MultiUserReferenceLru reference(kCapacity);

  Rng rng(GetParam());
  std::vector<ContextState> pool =
      workload::RandomQueryBatch(*env, 16, GetParam() ^ 0x7777, 0.4);
  const std::vector<std::string> users = {"alice", "bob", "carol"};
  // Per-user serving versions, bumped independently — the store's
  // publish model — and the shape of each user's current arena: a
  // rescore publish keeps it, any other publish takes a new one.
  std::vector<uint64_t> versions(users.size(), 1);
  uint64_t last_shape = 0;
  std::vector<uint64_t> shapes(users.size());
  for (uint64_t& shape : shapes) shape = ++last_shape;
  auto put = [&](size_t u, const ContextState& s,
                 std::vector<db::ScoredTuple> tuples) {
    cache.PutEntry(users[u], s, versions[u],
                   std::make_shared<const ContextQueryTree::Entry>(
                       ContextQueryTree::Entry{
                           tuples,
                           std::make_shared<const std::vector<CandidatePath>>(),
                           CacheConfig{}, shapes[u]}));
    reference.Put(users[u], s, versions[u], std::move(tuples), shapes[u]);
  };

  for (int step = 0; step < 3000; ++step) {
    const size_t u = rng.Uniform(users.size());
    const ContextState& s = pool[rng.Uniform(pool.size())];
    const double roll = rng.NextDouble();
    if (roll < 0.15) {
      std::shared_ptr<const ContextQueryTree::Entry> a =
          cache.Lookup(users[u], s, versions[u]);
      const std::vector<db::ScoredTuple>* b =
          reference.Lookup(users[u], s, versions[u]);
      ASSERT_EQ(a != nullptr, b != nullptr)
          << "step " << step << " user " << users[u];
      if (a != nullptr) {
        ASSERT_EQ(a->tuples, *b) << "step " << step;
      }
    } else if (roll < 0.3) {
      // Under the user's shape: a re-score hit is re-tagged as it is or
      // rebuilt with new tuples, as `RankCS` does.
      ContextQueryTree::Hit a =
          cache.LookupOrRescore(users[u], s, versions[u], shapes[u]);
      bool b_rescore = false;
      const std::vector<db::ScoredTuple>* b =
          reference.Lookup(users[u], s, versions[u], shapes[u], &b_rescore);
      ASSERT_EQ(a.entry != nullptr, b != nullptr)
          << "step " << step << " user " << users[u];
      if (a.entry != nullptr) {
        ASSERT_EQ(a.entry->tuples, *b) << "step " << step;
        ASSERT_EQ(a.rescore, b_rescore) << "step " << step;
      }
      if (a.rescore && rng.Bernoulli(0.5)) {
        cache.PutEntry(users[u], s, versions[u], a.entry);
        reference.Put(users[u], s, versions[u], a.entry->tuples, shapes[u]);
      } else if (a.rescore) {
        put(u, s, {{rng.Uniform(100), rng.NextDouble()}});
      }
    } else if (roll < 0.45) {
      // The stale rung: a window of up to three versions behind.
      const uint64_t max_version = versions[u];
      const uint64_t back = rng.Uniform(4);
      const uint64_t min_version = max_version > back ? max_version - back : 0;
      uint64_t a_version = 0;
      uint64_t b_version = 0;
      std::shared_ptr<const ContextQueryTree::Entry> a =
          cache.LookupAtOrBefore(users[u], s, max_version, min_version,
                                 CacheConfig{}, &a_version);
      const std::vector<db::ScoredTuple>* b = reference.LookupAtOrBefore(
          users[u], s, max_version, min_version, &b_version);
      ASSERT_EQ(a != nullptr, b != nullptr)
          << "step " << step << " user " << users[u];
      if (a != nullptr) {
        ASSERT_EQ(a->tuples, *b) << "step " << step;
        ASSERT_EQ(a_version, b_version) << "step " << step;
      }
    } else if (roll < 0.8) {
      put(u, s, {{rng.Uniform(100), rng.NextDouble()}});
    } else if (roll < 0.85) {
      // A rescore publish, consumed or not: it drops nothing, and old
      // entries become re-score hits.
      ++versions[u];
    } else if (roll < 0.9) {
      // A structural publish, not yet consumed: old entries miss.
      ++versions[u];
      shapes[u] = ++last_shape;
    } else if (roll < 0.97) {
      // A structural publish plus a consume with a staleness window of
      // up to two versions: both drop the same entries below the floor.
      ++versions[u];
      shapes[u] = ++last_shape;
      const uint64_t window = rng.Uniform(3);
      const uint64_t floor = versions[u] > window ? versions[u] - window : 0;
      ASSERT_EQ(cache.InvalidateUserBelow(users[u], floor),
                reference.InvalidateUserBelow(users[u], floor))
          << "step " << step << " user " << users[u];
    } else {
      // Remove + re-create plus a removal consume, a drop below the
      // maximum version: both drop every entry of the user.
      ++versions[u];
      shapes[u] = ++last_shape;
      constexpr uint64_t kAll = std::numeric_limits<uint64_t>::max();
      ASSERT_EQ(cache.InvalidateUserBelow(users[u], kAll),
                reference.InvalidateUserBelow(users[u], kAll))
          << "step " << step << " user " << users[u];
    }
    ASSERT_EQ(cache.size(), reference.size()) << "step " << step;
    ASSERT_EQ(cache.rescore_hits(), reference.rescore_hits())
        << "step " << step;
  }
  EXPECT_GT(reference.rescore_hits(), 0u);
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
  db::Ranker ranker(policy, 40);
  std::map<db::RowId, std::vector<double>> model;

  for (int i = 0; i < 500; ++i) {
    const db::RowId row = rng.Uniform(40);
    const double score = rng.NextDouble();
    ranker.Add(row, score);
    model[row].push_back(score);
  }

  std::vector<db::ScoredTuple> ranked = ranker.Ranked();
  ASSERT_EQ(ranked.size(), model.size());
  for (const db::ScoredTuple& t : ranked) {
    const auto& obs = model.at(t.row_id);
    double expected = 0.0;
    switch (policy) {
      case db::CombinePolicy::kMax:
        expected = *std::max_element(obs.begin(), obs.end());
        break;
      case db::CombinePolicy::kMin:
        expected = *std::min_element(obs.begin(), obs.end());
        break;
      case db::CombinePolicy::kAvg: {
        double sum = 0;
        for (const double s : obs) sum += s;
        expected = sum / static_cast<double>(obs.size());
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
                                         db::CombinePolicy::kAvg)));

}  // namespace
}  // namespace ctxpref
