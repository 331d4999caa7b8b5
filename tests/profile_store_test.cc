#include "storage/profile_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "preference/replicated_query_cache.h"
#include "preference/resolution.h"
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
  StatusOr<SnapshotPtr> p = store.GetSnapshot("alice");
  ASSERT_OK(p.status());
  EXPECT_TRUE((*p)->profile().empty());
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
  StatusOr<SnapshotPtr> p = store.GetSnapshot("carol");
  ASSERT_OK(p.status());
  EXPECT_EQ((*p)->profile().size(), n);
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

TEST_F(ProfileStoreTest, RescorePublishSharesUntouchedBodies) {
  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Plaka", "name", "X", 0.5)));
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Athens", "name", "Y", 0.6)));
  StatusOr<SnapshotPtr> pinned = store.GetSnapshot("alice");
  ASSERT_OK(pinned.status());

  ASSERT_OK(store.UpdateUser(
      "alice", [](Profile& p) { return p.UpdateScore(0, 0.9); }));
  StatusOr<SnapshotPtr> fresh = store.GetSnapshot("alice");
  ASSERT_OK(fresh.status());
  const Profile& before = (*pinned)->profile();
  const Profile& after = (*fresh)->profile();
  EXPECT_EQ(before.preference(0).score(), 0.5);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after.preference(0).score(), 0.9);
  // Every preference keeps its index and its body, the rescored one too.
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(&after.preference(i).descriptor(),
              &before.preference(i).descriptor());
    EXPECT_EQ(&after.preference(i).clause(), &before.preference(i).clause());
  }

  // The last pin of the first snapshot is dropped on a reader thread
  // while the writer copies the bodies it shares: the thread
  // sanitizer build checks that this hand-off is race-free.
  std::thread reader([snap = std::move(*pinned)]() mutable { snap.reset(); });
  Status rescored = store.UpdateUser(
      "alice", [](Profile& p) { return p.UpdateScore(1, 0.1); });
  reader.join();
  ASSERT_OK(rescored);
  StatusOr<SnapshotPtr> last = store.GetSnapshot("alice");
  ASSERT_OK(last.status());
  EXPECT_EQ((*last)->profile().preference(0).score(), 0.9);
  EXPECT_EQ((*last)->profile().preference(1).score(), 0.1);
  // `fresh` still reads its own scores.
  EXPECT_EQ(after.preference(0).score(), 0.9);
  EXPECT_EQ(after.preference(1).score(), 0.6);
}

TEST_F(ProfileStoreTest, RescoresShareTheArenaShapeAcrossReaderThreads) {
  ProfileStore store(env_);
  StatusOr<Profile> def = workload::MakeDefaultProfile(
      env_, workload::AgeGroup::kOver50, workload::Sex::kMale,
      workload::Taste::kMainstream);
  ASSERT_OK(def.status());
  ASSERT_OK(store.CreateUser("alice", std::move(*def)));
  StatusOr<SnapshotPtr> first = store.GetSnapshot("alice");
  ASSERT_OK(first.status());
  // One stored state per preference: each resolves to a winner.
  std::vector<ContextState> queries;
  for (const ContextualPreference& pref : (*first)->profile().preferences()) {
    queries.push_back(pref.States(*env_).front());
  }
  ASSERT_FALSE(queries.empty());

  // Readers pin, resolve and drop their pin, often the last one of a
  // snapshot the writer has already replaced: that frees the arena's
  // own entries on a reader thread while newer arenas keep reading the
  // shape they share with it. The thread sanitizer build checks that
  // this hand-off is race-free.
  constexpr size_t kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::atomic<size_t> resolved{0};
  {
    std::vector<std::jthread> readers;
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        for (size_t i = t; !done.load(std::memory_order_acquire); ++i) {
          StatusOr<SnapshotPtr> snap = store.GetSnapshot("alice");
          if (!snap.ok()) {
            ADD_FAILURE() << snap.status().ToString();
            failed.store(true);
            return;
          }
          const FlatResolver resolver((*snap)->flat_tree());
          if (resolver.ResolveBest(queries[i % queries.size()]).empty()) {
            ADD_FAILURE() << "no winner for query " << i % queries.size();
            failed.store(true);
            return;
          }
          resolved.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Write only once the readers are resolving: on a loaded host the
    // 2 000 rescores can otherwise finish before any reader runs.
    while (resolved.load(std::memory_order_relaxed) < kReaders &&
           !failed.load()) {
      std::this_thread::yield();
    }
    for (size_t k = 0; k < 2000; ++k) {
      // A rescore that would conflict is refused and still published.
      const Status status = store.UpdateUser("alice", [k](Profile& p) {
        (void)p.UpdateScore(k % p.size(), static_cast<double>(k % 21) * 0.05);
        return Status::OK();
      });
      if (!status.ok()) {
        ADD_FAILURE() << status.ToString();
        break;
      }
    }
    done.store(true, std::memory_order_release);
  }
  StatusOr<SnapshotPtr> last = store.GetSnapshot("alice");
  ASSERT_OK(last.status());
  EXPECT_TRUE((*last)->flat_tree()->SharesShapeWith(*(*first)->flat_tree()));
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

  // Each pin is held to the end, so no tree below is freed (and its
  // address reused) while the test compares them.
  StatusOr<SnapshotPtr> s1 = store.GetSnapshot("alice");
  ASSERT_OK(s1.status());
  EXPECT_EQ((*s1)->tree().PathCount(), 1u);
  // Unchanged profile: same published tree object.
  StatusOr<SnapshotPtr> s2 = store.GetSnapshot("alice");
  ASSERT_OK(s2.status());
  EXPECT_EQ(&(*s1)->tree(), &(*s2)->tree());
  // An edit publishes a new snapshot with a freshly built tree.
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Athens", "name", "Y", 0.5)));
  StatusOr<SnapshotPtr> s3 = store.GetSnapshot("alice");
  ASSERT_OK(s3.status());
  EXPECT_EQ((*s3)->tree().PathCount(), 2u);
  EXPECT_NE(&(*s1)->tree(), &(*s3)->tree());
}

TEST_F(ProfileStoreTest, LazyTreeIsOneTreeUnderConcurrentFirstCalls) {
  // Publishing builds no pointer tree; the first tree() calls race to
  // build it, and every caller must get the one that won.
  ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("alice"));
  ASSERT_OK(InsertPref(store, "alice",
                       Pref(*env_, "location = Plaka", "name", "X", 0.5)));
  ASSERT_OK(InsertPref(
      store, "alice",
      Pref(*env_, "temperature in {warm, hot}", "type", "park", 0.7)));
  StatusOr<SnapshotPtr> pinned = store.GetSnapshot("alice");
  ASSERT_OK(pinned.status());
  const ProfileSnapshot& snapshot = **pinned;

  constexpr size_t kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<const ProfileTree*> seen(kThreads, nullptr);
  {
    std::vector<std::jthread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        seen[t] = &snapshot.tree();
      });
    }
    go.store(true, std::memory_order_release);
  }
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr);
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(seen[0], &snapshot.tree());
  EXPECT_EQ(seen[0]->PathCount(), snapshot.flat_tree()->PathCount());
  EXPECT_EQ(seen[0]->PathCount(), 3u);
  EXPECT_TRUE(seen[0]->ordering() == snapshot.flat_tree()->ordering());
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
    StatusOr<SnapshotPtr> orig = store.GetSnapshot(id);
    StatusOr<SnapshotPtr> back = loaded->GetSnapshot(id);
    ASSERT_OK(orig.status());
    ASSERT_OK(back.status());
    EXPECT_EQ((*back)->profile().ToText(), (*orig)->profile().ToText()) << id;
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
  StatusOr<SnapshotPtr> fresh_pin = store.GetSnapshot("alice");
  ASSERT_OK(fresh_pin.status());
  EXPECT_EQ((*fresh_pin)->profile().size(), 2u);
  EXPECT_EQ((*fresh_pin)->tree().PathCount(), 2u);

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
    EXPECT_EQ((*store.GetSnapshot("alice"))->profile().ToText(), before_text);
    (void)fresh;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ctxpref::storage
