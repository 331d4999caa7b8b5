// Minimal single-threaded repro for the stale-cache bug (ISSUE 5):
// `ContextQueryTree` entries are tagged with `Profile::version()`, a
// per-object mutation counter that RESTARTS when `ProfileStore::
// ReloadUser` swaps in a profile loaded from disk. Two different
// profiles with the same number of mutations therefore carry the same
// version, and a cached entry computed from the retired profile keeps
// hitting — the cache serves results from a profile that no longer
// exists.
//
// The fix is the copy-on-write serving layer: `ProfileStore` publishes
// immutable snapshots under a store-owned *serving* version that is
// monotone across reloads and never reused, `storage::ServeQuery` tags
// cache entries with it, and every publish eagerly invalidates the
// user's entries. `serving.h` only exists on the fixed tree, so this
// file gates on it: without the fix it compiles against the legacy
// API and FAILS at runtime (the stale hit below); with the fix it
// exercises the serving path and passes.

#include <gtest/gtest.h>

#include <filesystem>

#include "context/parser.h"
#include "preference/query_cache.h"
#include "preference/resolution.h"
#include "storage/profile_io.h"
#include "storage/profile_store.h"
#include "tests/test_util.h"
#include "workload/poi_dataset.h"

#if __has_include("storage/serving.h")
#include "storage/serving.h"
#define CTXPREF_HAS_SERVING_LAYER 1
#endif

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;
using ::ctxpref::testing::UniqueTempDir;

class StaleCacheReproTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(40, 11);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
    dir_ = UniqueTempDir("ctxpref_stale_repro");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    StatusOr<ExtendedDescriptor> ecod =
        ParseExtendedDescriptor(*env_, "location = Plaka");
    ASSERT_OK(ecod.status());
    query_.context = *ecod;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// One-mutation profile scoring museums `score` in Plaka. Every call
  /// yields `Profile::version() == 1`, so any two of these collide on
  /// the version tag — the heart of the repro.
  Profile MuseumProfile(double score) {
    Profile p(env_);
    EXPECT_OK(
        p.Insert(Pref(*env_, "location = Plaka", "type", "museum", score)));
    EXPECT_EQ(p.version(), 1u);
    return p;
  }

  /// The score the ranked answer assigns to museums (the observable
  /// that tells the two profile versions apart).
  static double TopScore(const QueryResult& result) {
    EXPECT_FALSE(result.tuples.empty());
    return result.tuples.empty() ? -1.0 : result.tuples.front().score;
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
  std::string dir_;
  ContextualQuery query_;
};

TEST_F(StaleCacheReproTest, ReloadUserMustNotServeStaleCachedResults) {
  storage::ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("u", MuseumProfile(0.9)));
  ContextQueryTree cache(env_, Ordering::Identity(env_->size()));

#ifdef CTXPREF_HAS_SERVING_LAYER
  store.AttachQueryCache(&cache);
  auto serve = [&]() -> StatusOr<QueryResult> {
    StatusOr<storage::ServedQuery> served =
        storage::ServeQuery(store, "u", poi_->relation, query_, &cache);
    if (!served.ok()) return served.status();
    return std::move(served->result);
  };
#else
  // Legacy path: rank through the store's mutable profile + tree, with
  // entries tagged by Profile::version().
  auto serve = [&]() -> StatusOr<QueryResult> {
    auto profile = store.GetProfile("u");
    CTXPREF_RETURN_IF_ERROR(profile.status());
    auto tree = store.GetTree("u");
    CTXPREF_RETURN_IF_ERROR(tree.status());
    TreeResolver resolver(*tree);
    return CachedRankCS(poi_->relation, query_, resolver, **profile, cache);
  };
#endif

  StatusOr<QueryResult> before = serve();
  ASSERT_OK(before.status());
  EXPECT_DOUBLE_EQ(TopScore(*before), 0.9);

  // A second server rescored museums on disk; the new profile has the
  // same mutation count as the old one, so Profile::version() collides
  // across the swap (asserted below — the collision is the trap).
  ASSERT_OK(
      storage::WriteProfileFile(MuseumProfile(0.2), dir_ + "/u.profile"));
  ASSERT_OK(store.ReloadUser("u", dir_));
  auto reloaded = store.GetProfile("u");
  ASSERT_OK(reloaded.status());
  ASSERT_EQ((*reloaded)->version(), 1u);

  // The answer must reflect the published profile — never the retired
  // one. Without serving-version tags this hits the stale entry and
  // returns 0.9.
  StatusOr<QueryResult> after = serve();
  ASSERT_OK(after.status());
  EXPECT_DOUBLE_EQ(TopScore(*after), 0.2)
      << "cache served a result from a retired profile version";
}

#ifdef CTXPREF_HAS_SERVING_LAYER
TEST_F(StaleCacheReproTest, VersionTagsProtectEvenWithoutEagerInvalidation) {
  // Defense in depth: with no cache attached to the store (so no
  // InvalidateUser on publish), the serving-version tag alone must
  // make post-swap lookups miss — the store-wide counter never reuses
  // a version.
  storage::ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("u", MuseumProfile(0.9)));
  ContextQueryTree cache(env_, Ordering::Identity(env_->size()));

  StatusOr<storage::ServedQuery> before =
      storage::ServeQuery(store, "u", poi_->relation, query_, &cache);
  ASSERT_OK(before.status());
  EXPECT_DOUBLE_EQ(TopScore(before->result), 0.9);
  EXPECT_GT(cache.size(), 0u);

  ASSERT_OK(store.PublishProfile("u", MuseumProfile(0.2)));
  // Entries are still in the cache (nobody invalidated)…
  EXPECT_GT(cache.size(), 0u);

  StatusOr<storage::ServedQuery> after =
      storage::ServeQuery(store, "u", poi_->relation, query_, &cache);
  ASSERT_OK(after.status());
  // …but the new snapshot's serving version makes them unservable.
  EXPECT_DOUBLE_EQ(TopScore(after->result), 0.2);
  EXPECT_GT(after->snapshot->serving_version(),
            before->snapshot->serving_version());
  EXPECT_GE(cache.invalidations(), 1u);  // Dropped on touch.
}
#endif

}  // namespace
}  // namespace ctxpref
