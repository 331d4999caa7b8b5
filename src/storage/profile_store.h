#ifndef CTXPREF_STORAGE_PROFILE_STORE_H_
#define CTXPREF_STORAGE_PROFILE_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "preference/flat_profile_tree.h"
#include "preference/profile.h"
#include "preference/profile_tree.h"
#include "util/mutex.h"
#include "util/status.h"

namespace ctxpref {
class CoherenceLog;
}

namespace ctxpref::storage {

/// One immutable published version of a user's profile: the profile
/// itself, its built `ProfileTree`, and the store-wide *serving
/// version* it was published under. Snapshots are handed out as
/// `std::shared_ptr<const ProfileSnapshot>`; a reader that pins one
/// keeps ranking against exactly this version no matter how many
/// newer versions writers publish meanwhile (RCU-style copy-on-write;
/// see docs/serving.md).
///
/// The serving version is owned by the `ProfileStore`, strictly
/// monotone across *all* users and *never reused* — unlike
/// `Profile::version()`, which is a per-object mutation counter that
/// restarts when a profile is reloaded from disk and can therefore
/// collide across a swap (the stale-cache bug this type exists to
/// fix).
class ProfileSnapshot {
 public:
  ProfileSnapshot(std::string user_id, uint64_t serving_version,
                  std::shared_ptr<const Profile> profile,
                  std::shared_ptr<const ProfileTree> tree,
                  std::shared_ptr<const FlatProfileTree> flat);
  ~ProfileSnapshot();

  ProfileSnapshot(const ProfileSnapshot&) = delete;
  ProfileSnapshot& operator=(const ProfileSnapshot&) = delete;

  const std::string& user_id() const { return user_id_; }
  /// Store-wide monotone version; the tag `ContextQueryTree` entries
  /// computed from this snapshot carry.
  uint64_t serving_version() const { return serving_version_; }
  const Profile& profile() const { return *profile_; }
  const ProfileTree& tree() const { return *tree_; }
  const std::shared_ptr<const Profile>& profile_ptr() const {
    return profile_;
  }
  const std::shared_ptr<const ProfileTree>& tree_ptr() const { return tree_; }
  /// The arena-flattened read-optimized form of `tree()`, built once at
  /// publish time; the serving layer resolves against it (see
  /// docs/serving.md). Never null: every snapshot is built with its
  /// arena. Immutable after publish like everything else in the
  /// snapshot, so readers need no lock (and it introduces no lock
  /// rank).
  const FlatProfileTree* flat_tree() const { return flat_.get(); }
  const std::shared_ptr<const FlatProfileTree>& flat_tree_ptr() const {
    return flat_;
  }
  /// `MonotonicNanos()` at construction (= publish time); the basis of
  /// the snapshot-age gauge.
  uint64_t publish_nanos() const { return publish_nanos_; }

 private:
  std::string user_id_;
  uint64_t serving_version_;
  std::shared_ptr<const Profile> profile_;
  std::shared_ptr<const ProfileTree> tree_;
  std::shared_ptr<const FlatProfileTree> flat_;
  uint64_t publish_nanos_;
};

using SnapshotPtr = std::shared_ptr<const ProfileSnapshot>;

/// A multi-user profile repository over one shared context
/// environment — the server-side shape of the paper's system (§5.1
/// runs 10 users against one POI database; each user owns a profile
/// and thus a profile tree).
///
/// Serving model (copy-on-write, see docs/serving.md): every user has
/// a *current* `ProfileSnapshot` published through a mutex-guarded
/// pointer slot (held only for the pointer copy or swap, never across
/// real work). Readers (`GetSnapshot`) pin the current snapshot in
/// O(1) and rank against it with no lock held; writers (`UpdateUser`,
/// `PublishProfile`, `ReloadUser`) copy the current profile off to the
/// side, mutate the copy, build its tree, and publish the result with
/// one pointer swap.
/// In-flight readers keep their pinned version; the retired snapshot
/// is freed when the last reader drops it. Writers to the *same* user
/// serialize on a per-user mutex; writers to different users proceed
/// in parallel.
///
/// Query caches hear about publishes only through an attached
/// `CoherenceLog` (`AttachCoherenceLog`): every publish and removal
/// appends one record that `ReplicatedQueryCache` replicas consume on
/// their own schedule. All entries written on behalf of a snapshot are
/// tagged with its serving version, so a cached result can never be
/// served for another profile version.
///
/// Persistence maps each user to `<dir>/<user_id>.profile` in the
/// binary format of `profile_io.h`.
///
/// Thread safety: all methods are safe to call concurrently, except
/// that the store must not be moved, destroyed, or re-assigned while
/// any other thread is using it.
class ProfileStore {
 public:
  explicit ProfileStore(EnvironmentPtr env);
  ~ProfileStore();

  /// Moves are for construction-time hand-off (`LoadDir` returns a
  /// store by value); they are not thread-safe against concurrent use
  /// of either store — which is why they opt out of the analysis.
  ProfileStore(ProfileStore&& other) noexcept NO_THREAD_SAFETY_ANALYSIS;
  ProfileStore& operator=(ProfileStore&& other) noexcept
      NO_THREAD_SAFETY_ANALYSIS;

  const ContextEnvironment& env() const { return *env_; }
  size_t size() const;

  /// Creates a user with an empty profile (published as snapshot
  /// version `next serving version`). AlreadyExists if taken;
  /// InvalidArgument for ids that cannot name a file (empty, '/',
  /// "..").
  Status CreateUser(const std::string& user_id);

  /// Creates a user seeded with `initial` (e.g. a default profile,
  /// §5.1). The profile must be over this store's environment.
  Status CreateUser(const std::string& user_id, Profile initial);

  /// Pins the user's current snapshot: O(1) — the per-user slot mutex
  /// is held only for the pointer copy, never across a publish or a
  /// tree build. The snapshot (profile + tree + serving version) stays
  /// valid and immutable for as long as the caller holds the pointer,
  /// across any number of concurrent publishes. NotFound for unknown
  /// users.
  StatusOr<SnapshotPtr> GetSnapshot(const std::string& user_id) const;

  /// The user's current profile, read-only. The pointer is a view into
  /// the current snapshot: it stays valid until the *next* publish for
  /// this user (or user removal) — for anything longer-lived, pin the
  /// snapshot with `GetSnapshot`. NotFound for unknown users.
  StatusOr<const Profile*> GetProfile(const std::string& user_id) const;

  /// The user's current profile tree (always built — publishing a
  /// snapshot builds it eagerly). Same lifetime contract as
  /// `GetProfile`.
  StatusOr<const ProfileTree*> GetTree(const std::string& user_id) const;

  /// Copy-on-write edit: copies the user's current profile, applies
  /// `edit` to the copy, builds the new tree, and publishes the result
  /// as a new snapshot. Nothing is published — and concurrent readers
  /// observe nothing — if `edit` returns an error or the tree build
  /// fails. `edit` runs under the user's writer lock: it must not call
  /// back into this store. This is the entry point for feedback-driven
  /// rescoring and programmatic edits.
  Status UpdateUser(const std::string& user_id,
                    const std::function<Status(Profile&)>& edit);

  /// Wholesale replacement: publishes `profile` (over this store's
  /// environment) as the user's new snapshot.
  Status PublishProfile(const std::string& user_id, Profile profile);

  /// Re-reads `<dir>/<user_id>.profile` and publishes the file's
  /// contents as a new snapshot. Atomic with respect to failure: the
  /// file is parsed and validated *before* the swap, so a missing,
  /// corrupt, or mismatched file leaves the current snapshot serving.
  /// Readers holding the old snapshot keep it. NotFound for unknown
  /// users.
  Status ReloadUser(const std::string& user_id, const std::string& dir);

  /// Removes the user and invalidates their cached query results.
  /// Readers holding the user's snapshot keep it.
  Status RemoveUser(const std::string& user_id);

  /// All user ids, sorted.
  std::vector<std::string> UserIds() const;

  /// Writes every profile to `<dir>/<user_id>.profile` (the directory
  /// must exist). Concurrent publishes may or may not be included;
  /// each user's file is internally consistent (one snapshot).
  Status SaveAll(const std::string& dir) const;

  /// Loads every `*.profile` file in `dir` into a fresh store.
  static StatusOr<ProfileStore> LoadDir(EnvironmentPtr env,
                                        const std::string& dir);

  /// Attaches a coherence log (`preference/replicated_query_cache.h`):
  /// publishes and removals then append one invalidation record, which
  /// replicated caches consume on their own schedule
  /// (docs/coherence.md); the writer takes no cache lock at all. The
  /// log's watermark is raised to the current `serving_version()`, so
  /// a store that already has users (e.g. from `LoadDir`) serves cache
  /// hits before its next publish. The log must outlive the store (or
  /// be detached first); pass nullptr to detach.
  void AttachCoherenceLog(CoherenceLog* log);
  CoherenceLog* coherence_log() const {
    return coherence_log_.load(std::memory_order_acquire);
  }

  /// The store-wide serving-version counter's current value (the
  /// version of the most recent publish; 0 = nothing published yet).
  uint64_t serving_version() const {
    return version_counter_.load(std::memory_order_acquire);
  }

 private:
  struct User {
    /// Serializes writers to this user (rank `kPerUserWrite`): held
    /// across the whole copy-edit-rebuild, around the slot swap and
    /// the coherence-log append below it in the hierarchy.
    util::Mutex write_mu{util::LockRank::kPerUserWrite,
                         "ProfileStore.User.write_mu"};
    /// Guards only the `current` pointer slot (rank `kStoreSlot`).
    /// Held for a shared_ptr copy (readers) or swap (publish) —
    /// nanoseconds — and kept separate from `write_mu`, which writers
    /// hold across the whole copy-edit-rebuild, so readers never wait
    /// on a profile build.
    /// (Not `std::atomic<shared_ptr>`: libstdc++'s `_Sp_atomic::load`
    /// releases its internal lock bit with a relaxed RMW, which leaves
    /// the pointer read formally unordered against a later `exchange`
    /// — TSan flags it, correctly per the abstract machine.)
    mutable util::Mutex snap_mu{util::LockRank::kStoreSlot,
                                "ProfileStore.User.snap_mu"};
    /// The published snapshot readers pin.
    SnapshotPtr current GUARDED_BY(snap_mu);

    SnapshotPtr Pin() const EXCLUDES(snap_mu) {
      util::MutexLock lock(snap_mu);
      return current;
    }
    /// Installs `next` and returns the retired snapshot.
    SnapshotPtr Swap(SnapshotPtr next) EXCLUDES(snap_mu) {
      util::MutexLock lock(snap_mu);
      current.swap(next);
      return next;
    }
  };

  static Status ValidateUserId(const std::string& user_id);

  /// Builds `profile`'s tree, wraps everything into a snapshot with a
  /// fresh serving version, stores it into `user.current`, and appends
  /// the publish to the coherence log. The writer lock is the
  /// publish serialization point; creation takes it too (uncontended —
  /// the exclusive map lock hides the new user) so the contract is
  /// uniform and machine-checkable.
  Status BuildAndPublish(User& user, const std::string& user_id,
                         Profile profile) REQUIRES(user.write_mu);

  EnvironmentPtr env_;
  /// Guards the user map's *shape* only (find/insert/erase), never the
  /// snapshots: readers and writers take it shared and briefly;
  /// CreateUser/RemoveUser take it unique. First lock on every store
  /// path (rank `kUserMap`).
  mutable util::SharedMutex users_mu_{util::LockRank::kUserMap,
                                      "ProfileStore.users_mu"};
  std::map<std::string, std::unique_ptr<User>> users_ GUARDED_BY(users_mu_);
  /// Store-wide monotone serving version; see `ProfileSnapshot`.
  std::atomic<uint64_t> version_counter_{0};
  std::atomic<CoherenceLog*> coherence_log_{nullptr};
};

}  // namespace ctxpref::storage

#endif  // CTXPREF_STORAGE_PROFILE_STORE_H_
