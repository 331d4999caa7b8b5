#include "storage/profile_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "preference/replicated_query_cache.h"
#include "tests/test_util.h"
#include "workload/default_profiles.h"

namespace ctxpref::storage {
namespace {

using ::ctxpref::testing::PaperEnv;
using ::ctxpref::testing::Pref;
using ::ctxpref::testing::UniqueTempDir;

class ProfileStoreTest : public ::testing::Test {
 protected:
  /// Inserts one preference through the copy-on-write edit path.
  Status InsertPref(ProfileStore& store, const std::string& user,
                    ContextualPreference pref) {
    return store.UpdateUser(user, [&](Profile& p) {
      return p.Insert(std::move(pref));
    });
  }

  EnvironmentPtr env_ = PaperEnv();
};

TEST_F(ProfileStoreTest, CreateAndLookupUsers) {
  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  ASSERT_OK(store.CreateUser("bob"));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.UserIds(), (std::vector<std::string>{"alice", "bob"}));
  StatusOr<const Profile*> p = store.GetProfile("alice");
  ASSERT_OK(p.status());
  EXPECT_TRUE((*p)->empty());
  EXPECT_TRUE(store.GetProfile("carol").status().IsNotFound());
  EXPECT_TRUE(store.GetSnapshot("carol").status().IsNotFound());
}

TEST_F(ProfileStoreTest, ValidatesUserIds) {
  ProfileStore store(env_);
  EXPECT_TRUE(store.CreateUser("").IsInvalidArgument());
  EXPECT_TRUE(store.CreateUser("a/b").IsInvalidArgument());
  EXPECT_TRUE(store.CreateUser("..").IsInvalidArgument());
  ASSERT_OK(store.CreateUser("ok-user_1"));
  EXPECT_TRUE(store.CreateUser("ok-user_1").IsAlreadyExists());
}

TEST_F(ProfileStoreTest, SeedsWithDefaultProfile) {
  ProfileStore store(env_);
  StatusOr<Profile> def = workload::MakeDefaultProfile(
      env_, workload::AgeGroup::kOver50, workload::Sex::kMale,
      workload::Taste::kMainstream);
  ASSERT_OK(def.status());
  const size_t n = def->size();
  ASSERT_OK(store.CreateUser("carol", std::move(*def)));
  StatusOr<const Profile*> p = store.GetProfile("carol");
  ASSERT_OK(p.status());
  EXPECT_EQ((*p)->size(), n);
}

TEST_F(ProfileStoreTest, RejectsForeignEnvironmentProfiles) {
  ProfileStore store(env_);
  EnvironmentPtr other = PaperEnv();  // Equal shape, different instance.
  Profile foreign(other);
  EXPECT_TRUE(store.CreateUser("dave", std::move(foreign))
                  .IsInvalidArgument());
  ASSERT_OK(store.CreateUser("dave"));
  Profile foreign2(other);
  EXPECT_TRUE(
      store.PublishProfile("dave", std::move(foreign2)).IsInvalidArgument());
}

TEST_F(ProfileStoreTest, SnapshotsAreImmutableAndVersioned) {
  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  StatusOr<SnapshotPtr> s1 = store.GetSnapshot("alice");
  ASSERT_OK(s1.status());
  EXPECT_TRUE((*s1)->profile().empty());
  EXPECT_EQ((*s1)->user_id(), "alice");
  const uint64_t v1 = (*s1)->serving_version();
  EXPECT_GE(v1, 1u);

  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Plaka", "name", "X", 0.5)));

  // The pinned snapshot still serves the pre-edit state; a fresh pin
  // sees the new version under a strictly larger serving version.
  EXPECT_TRUE((*s1)->profile().empty());
  StatusOr<SnapshotPtr> s2 = store.GetSnapshot("alice");
  ASSERT_OK(s2.status());
  EXPECT_EQ((*s2)->profile().size(), 1u);
  EXPECT_GT((*s2)->serving_version(), v1);
  EXPECT_EQ((*s2)->tree().PathCount(), 1u);
}

TEST_F(ProfileStoreTest, ServingVersionsAreUniqueAcrossUsers) {
  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  ASSERT_OK(store.CreateUser("bob"));
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Plaka", "name", "X", 0.5)));
  StatusOr<SnapshotPtr> a = store.GetSnapshot("alice");
  StatusOr<SnapshotPtr> b = store.GetSnapshot("bob");
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_NE((*a)->serving_version(), (*b)->serving_version());
  EXPECT_EQ(store.serving_version(),
            std::max((*a)->serving_version(), (*b)->serving_version()));
}

TEST_F(ProfileStoreTest, TreeIsRebuiltOnPublish) {
  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Plaka", "name", "X", 0.5)));

  StatusOr<const ProfileTree*> t1 = store.GetTree("alice");
  ASSERT_OK(t1.status());
  EXPECT_EQ((*t1)->PathCount(), 1u);
  // Unchanged profile: same published tree object.
  StatusOr<const ProfileTree*> t2 = store.GetTree("alice");
  ASSERT_OK(t2.status());
  EXPECT_EQ(*t1, *t2);
  // An edit publishes a new snapshot with a freshly built tree.
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Athens", "name", "Y", 0.5)));
  StatusOr<const ProfileTree*> t3 = store.GetTree("alice");
  ASSERT_OK(t3.status());
  EXPECT_EQ((*t3)->PathCount(), 2u);
  EXPECT_NE(*t1, *t3);
}

TEST_F(ProfileStoreTest, FailedUpdatePublishesNothing) {
  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Plaka", "name", "X", 0.5)));
  StatusOr<SnapshotPtr> before = store.GetSnapshot("alice");
  ASSERT_OK(before.status());

  // The edit mutates its draft and then errors: the mutation must not
  // leak into the published state, and no new version may appear.
  Status failed = store.UpdateUser("alice", [&](Profile& p) {
    Status inserted =
        p.Insert(Pref(*env_, "location = Athens", "name", "Y", 0.7));
    EXPECT_TRUE(inserted.ok());
    return Status::InvalidArgument("changed my mind");
  });
  EXPECT_TRUE(failed.IsInvalidArgument());

  StatusOr<SnapshotPtr> after = store.GetSnapshot("alice");
  ASSERT_OK(after.status());
  EXPECT_EQ(*before, *after);  // Same snapshot object, same version.
  EXPECT_EQ((*after)->profile().size(), 1u);

  EXPECT_TRUE(
      store.UpdateUser("nobody", [](Profile&) { return Status::OK(); })
          .IsNotFound());
}

TEST_F(ProfileStoreTest, PublishInvalidatesAttachedCache) {
  // One replica with no staleness window: consuming a publish drops
  // every older entry of that user.
  ReplicatedQueryCache::Options options = testing::SharedCache();
  options.staleness_window = 0;
  ReplicatedQueryCache replicas(env_, Ordering::Identity(env_->size()),
                                options);
  ContextQueryTree& cache = replicas.replica(0);
  ProfileStore store(env_);
  store.AttachCoherenceLog(&replicas.log());
  ASSERT_OK(store.CreateUser("alice"));
  ASSERT_OK(store.CreateUser("bob"));

  const ContextState state =
      testing::State(*env_, {"Plaka", "good", "friends"});
  StatusOr<SnapshotPtr> alice = store.GetSnapshot("alice");
  StatusOr<SnapshotPtr> bob = store.GetSnapshot("bob");
  ASSERT_OK(alice.status());
  ASSERT_OK(bob.status());
  cache.Put("alice", state, (*alice)->serving_version(), {});
  cache.Put("bob", state, (*bob)->serving_version(), {});
  EXPECT_EQ(cache.size(), 2u);

  // Publishing for alice drops exactly alice's entries once the
  // replica consumes the log.
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Plaka", "name", "X", 0.5)));
  replicas.ConsumeAll();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Lookup("bob", state, (*bob)->serving_version()), nullptr);
  EXPECT_EQ(cache.Lookup("alice", state, (*alice)->serving_version()),
            nullptr);

  // Removing bob drops bob's entries too.
  ASSERT_OK(store.RemoveUser("bob"));
  replicas.ConsumeAll();
  EXPECT_EQ(cache.size(), 0u);
  store.AttachCoherenceLog(nullptr);
}

TEST_F(ProfileStoreTest, RemoveUser) {
  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  StatusOr<SnapshotPtr> pinned = store.GetSnapshot("alice");
  ASSERT_OK(pinned.status());
  ASSERT_OK(store.RemoveUser("alice"));
  EXPECT_TRUE(store.RemoveUser("alice").IsNotFound());
  EXPECT_EQ(store.size(), 0u);
  // A pinned snapshot outlives its user.
  EXPECT_EQ((*pinned)->user_id(), "alice");
  EXPECT_TRUE((*pinned)->profile().empty());
}

TEST_F(ProfileStoreTest, SaveAllAndLoadDirRoundTrip) {
  namespace fs = std::filesystem;
  const std::string dir = UniqueTempDir("ctxpref_store_test");
  fs::remove_all(dir);
  fs::create_directories(dir);

  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  ASSERT_OK(store.CreateUser("bob"));
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Plaka", "name", "X", 0.5)));
  ASSERT_OK(InsertPref(store, "bob",
                       Pref(*env_, "temperature = good", "type", "park", 0.8)));

  ASSERT_OK(store.SaveAll(dir));
  StatusOr<ProfileStore> loaded = ProfileStore::LoadDir(env_, dir);
  ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->UserIds(), store.UserIds());
  for (const std::string& id : store.UserIds()) {
    StatusOr<const Profile*> orig = store.GetProfile(id);
    StatusOr<const Profile*> back = loaded->GetProfile(id);
    ASSERT_OK(back.status());
    EXPECT_EQ((*back)->ToText(), (*orig)->ToText()) << id;
  }
  fs::remove_all(dir);
}

TEST_F(ProfileStoreTest, SaveAllRequiresDirectory) {
  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  EXPECT_TRUE(store.SaveAll("/nonexistent/dir/xyz").IsInvalidArgument());
  EXPECT_TRUE(
      ProfileStore::LoadDir(env_, "/nonexistent/dir/xyz").status().IsNotFound());
}

TEST_F(ProfileStoreTest, LoadDirIgnoresOtherFiles) {
  namespace fs = std::filesystem;
  const std::string dir = UniqueTempDir("ctxpref_store_mixed");
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream junk(dir + "/notes.txt");
    junk << "not a profile";
  }
  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("solo"));
  ASSERT_OK(store.SaveAll(dir));
  StatusOr<ProfileStore> loaded = ProfileStore::LoadDir(env_, dir);
  ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->size(), 1u);
  fs::remove_all(dir);
}

TEST_F(ProfileStoreTest, ReloadUserPicksUpOnDiskChanges) {
  namespace fs = std::filesystem;
  const std::string dir = UniqueTempDir("ctxpref_store_reload");
  fs::remove_all(dir);
  fs::create_directories(dir);

  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Plaka", "name", "X", 0.5)));
  ASSERT_OK(store.SaveAll(dir));
  StatusOr<SnapshotPtr> pinned = store.GetSnapshot("alice");
  ASSERT_OK(pinned.status());

  // Another store (a "second server") edits alice's file on disk.
  {
    StatusOr<ProfileStore> other = ProfileStore::LoadDir(env_, dir);
    ASSERT_OK(other.status());
    ASSERT_OK(other->UpdateUser("alice", [&](Profile& p) {
      return p.Insert(Pref(*env_, "location = Athens", "name", "Y", 0.7));
    }));
    ASSERT_OK(other->SaveAll(dir));
  }

  ASSERT_OK(store.ReloadUser("alice", dir));
  // The snapshot pinned before the reload still serves the old state…
  EXPECT_EQ((*pinned)->profile().size(), 1u);
  // …while fresh reads see the reloaded profile and a rebuilt tree.
  StatusOr<const Profile*> fresh = store.GetProfile("alice");
  ASSERT_OK(fresh.status());
  EXPECT_EQ((*fresh)->size(), 2u);
  StatusOr<const ProfileTree*> tree = store.GetTree("alice");
  ASSERT_OK(tree.status());
  EXPECT_EQ((*tree)->PathCount(), 2u);

  EXPECT_TRUE(store.ReloadUser("nobody", dir).IsNotFound());
  fs::remove_all(dir);
}

TEST_F(ProfileStoreTest, FailedReloadLeavesProfileServing) {
  namespace fs = std::filesystem;
  const std::string dir = UniqueTempDir("ctxpref_store_reload_bad");
  fs::remove_all(dir);
  fs::create_directories(dir);

  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Plaka", "name", "X", 0.5)));
  StatusOr<SnapshotPtr> before = store.GetSnapshot("alice");
  ASSERT_OK(before.status());
  const std::string before_text = (*before)->profile().ToText();
  ASSERT_OK(store.SaveAll(dir));

  // Missing file: reload fails, the snapshot is untouched.
  fs::remove(dir + "/alice.profile");
  EXPECT_FALSE(store.ReloadUser("alice", dir).ok());
  StatusOr<SnapshotPtr> after = store.GetSnapshot("alice");
  ASSERT_OK(after.status());
  EXPECT_EQ(*before, *after);

  // Corrupt file: parse fails *before* the swap, so the published
  // snapshot — profile and tree — keeps serving.
  {
    std::ofstream bad(dir + "/alice.profile", std::ios::binary);
    bad << "this is definitely not the binary profile format";
  }
  EXPECT_FALSE(store.ReloadUser("alice", dir).ok());
  after = store.GetSnapshot("alice");
  ASSERT_OK(after.status());
  EXPECT_EQ(*before, *after);
  EXPECT_EQ((*after)->profile().ToText(), before_text);
  EXPECT_EQ((*after)->tree().PathCount(), 1u);

  // Truncated-but-valid-header file: also rejected atomically.
  {
    StatusOr<ProfileStore> fresh = ProfileStore::LoadDir(env_, dir);
    // Regardless of how LoadDir reacts, the original store is intact.
    EXPECT_EQ((*store.GetProfile("alice"))->ToText(), before_text);
    (void)fresh;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ctxpref::storage
