#include "storage/profile_store.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "preference/replicated_query_cache.h"
#include "storage/profile_io.h"
#include "util/metrics.h"

namespace ctxpref::storage {

namespace fs = std::filesystem;

namespace {

/// Serving-layer metrics (docs/observability.md). The live-snapshot
/// gauge is maintained by `ProfileSnapshot`'s ctor/dtor so it counts
/// every snapshot still pinned anywhere, not just the current ones.
struct ServingMetrics {
  Counter& swaps;
  Gauge& live_snapshots;
  Gauge& snapshot_age;
  Gauge& users;

  static ServingMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static ServingMetrics* m = new ServingMetrics{
        reg.GetCounter("ctxpref_profile_swaps_total",
                       "Profile snapshots published (create + update + "
                       "reload)"),
        reg.GetGauge("ctxpref_profile_live_snapshots",
                     "ProfileSnapshot objects alive (current + pinned)"),
        reg.GetGauge("ctxpref_profile_snapshot_age_ns",
                     "Serving age of the snapshot most recently replaced "
                     "(publish-to-replacement, ns)"),
        reg.GetGauge("ctxpref_profile_store_users",
                     "Users currently in the ProfileStore"),
    };
    return *m;
  }
};

}  // namespace

ProfileSnapshot::ProfileSnapshot(std::string user_id, uint64_t serving_version,
                                 std::shared_ptr<const Profile> profile,
                                 std::shared_ptr<const FlatProfileTree> flat)
    : user_id_(std::move(user_id)),
      serving_version_(serving_version),
      profile_(std::move(profile)),
      flat_(std::move(flat)),
      publish_nanos_(MonotonicNanos()) {
  ServingMetrics::Get().live_snapshots.Add(1);
}

ProfileSnapshot::~ProfileSnapshot() {
  delete tree_.load(std::memory_order_acquire);
  ServingMetrics::Get().live_snapshots.Add(-1);
}

const ProfileTree& ProfileSnapshot::tree() const {
  const ProfileTree* tree = tree_.load(std::memory_order_acquire);
  if (tree != nullptr) return *tree;
  // A profile holds no Def. 6 conflict (it rejects them on insert),
  // so the pointer build cannot fail.
  const Ordering& order = flat_->ordering();
  StatusOr<ProfileTree> built =
      ProfileTree::Build(*profile_, order);  // lint:allow(pointer-tree)
  if (!built.ok()) std::abort();
  auto* mine = new ProfileTree(std::move(*built));
  if (tree_.compare_exchange_strong(tree, mine, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return *mine;
  }
  delete mine;  // Another caller published first; `tree` is theirs.
  return *tree;
}

ProfileStore::ProfileStore(EnvironmentPtr env) : env_(std::move(env)) {}

ProfileStore::~ProfileStore() {
  if (!users_.empty()) {
    ServingMetrics::Get().users.Add(-static_cast<int64_t>(users_.size()));
  }
}

ProfileStore::ProfileStore(ProfileStore&& other) noexcept
    : env_(std::move(other.env_)), users_(std::move(other.users_)) {
  version_counter_.store(other.version_counter_.load());
  coherence_log_.store(other.coherence_log_.load());
  other.users_.clear();
  other.coherence_log_.store(nullptr);
}

ProfileStore& ProfileStore::operator=(ProfileStore&& other) noexcept {
  if (this == &other) return *this;
  if (!users_.empty()) {
    ServingMetrics::Get().users.Add(-static_cast<int64_t>(users_.size()));
  }
  env_ = std::move(other.env_);
  users_ = std::move(other.users_);
  version_counter_.store(other.version_counter_.load());
  coherence_log_.store(other.coherence_log_.load());
  other.users_.clear();
  other.coherence_log_.store(nullptr);
  return *this;
}

void ProfileStore::AttachCoherenceLog(CoherenceLog* log) {
  coherence_log_.store(log, std::memory_order_release);
  // Publishes from here on append; everything published before is
  // covered by the seeded watermark.
  if (log != nullptr) log->AdvanceWatermark(serving_version());
}

Status ProfileStore::ValidateUserId(const std::string& user_id) {
  if (user_id.empty()) {
    return Status::InvalidArgument("empty user id");
  }
  if (user_id == "." || user_id == ".." ||
      user_id.find('/') != std::string::npos ||
      user_id.find('\\') != std::string::npos) {
    return Status::InvalidArgument("user id '" + user_id +
                                   "' cannot name a file");
  }
  return Status::OK();
}

size_t ProfileStore::size() const {
  util::ReaderLock lock(users_mu_);
  return users_.size();
}

void ProfileStore::BuildAndPublish(User& user, const std::string& user_id,
                                   Profile profile,
                                   const FlatProfileTree* previous) {
  // Build the arena off to the side, straight from the profile, whose
  // preference list it shares; readers keep serving the current
  // snapshot until the swap. Over `previous`, so a publish that keeps
  // every preference body at its index (a rescore) shares its shape
  // instead of rebuilding it.
  auto published = std::make_shared<const Profile>(std::move(profile));
  auto flat = std::make_shared<const FlatProfileTree>(
      FlatProfileTree::Build(published, previous));
  const CoherenceLog::Kind kind =
      previous != nullptr && flat->SharesShapeWith(*previous)
          ? CoherenceLog::Kind::kRescore
          : CoherenceLog::Kind::kStructural;
  const uint64_t version =
      version_counter_.fetch_add(1, std::memory_order_acq_rel) + 1;
  auto snapshot = std::make_shared<const ProfileSnapshot>(
      user_id, version, std::move(published), std::move(flat));
  SnapshotPtr old = user.Swap(std::move(snapshot));
  ServingMetrics& metrics = ServingMetrics::Get();
  metrics.swaps.Increment();
  if (old != nullptr) {
    metrics.snapshot_age.Set(
        static_cast<int64_t>(MonotonicNanos() - old->publish_nanos()));
  }
  // The writer appends one `{user, serving_version, kind}` record —
  // touching only the log's mutex, never a cache lock — and replicated
  // caches drain it on their own schedule (docs/coherence.md). A rescore
  // record drops nothing. A lookup racing ahead cannot be served stale
  // data: entries are version-tagged, the new serving version never
  // equals the old, and an older entry is re-scored only under the
  // pinned arena's own shape.
  if (CoherenceLog* log = coherence_log_.load(std::memory_order_acquire)) {
    log->Append(user_id, version, kind);
  }
}

Status ProfileStore::CreateUser(const std::string& user_id) {
  return CreateUser(user_id, Profile(env_));
}

Status ProfileStore::CreateUser(const std::string& user_id, Profile initial) {
  CTXPREF_RETURN_IF_ERROR(ValidateUserId(user_id));
  if (&initial.env() != env_.get()) {
    return Status::InvalidArgument(
        "profile for user '" + user_id +
        "' was built over a different context environment");
  }
  util::WriterLock lock(users_mu_);
  auto [it, inserted] = users_.try_emplace(user_id);
  if (!inserted) {
    return Status::AlreadyExists("user '" + user_id + "' already exists");
  }
  it->second = std::make_unique<User>();
  User& user = *it->second;
  {
    // Uncontended (the exclusive map lock above hides the new user),
    // taken so BuildAndPublish has one uniform writer-lock contract.
    util::MutexLock write_lock(user.write_mu);
    BuildAndPublish(user, user_id, std::move(initial), nullptr);
  }
  ServingMetrics::Get().users.Add(1);
  return Status::OK();
}

StatusOr<SnapshotPtr> ProfileStore::GetSnapshot(
    const std::string& user_id) const {
  util::ReaderLock lock(users_mu_);
  auto it = users_.find(user_id);
  if (it == users_.end()) {
    return Status::NotFound("no user '" + user_id + "'");
  }
  return it->second->Pin();
}

Status ProfileStore::UpdateUser(const std::string& user_id,
                                const std::function<Status(Profile&)>& edit) {
  util::ReaderLock lock(users_mu_);
  // as_const: the shared map lock licenses reads only, so go through
  // the const find (the User itself is guarded by its own locks).
  auto it = std::as_const(users_).find(user_id);
  if (it == users_.cend()) {
    return Status::NotFound("no user '" + user_id + "'");
  }
  User& user = *it->second;
  util::MutexLock write_lock(user.write_mu);
  // Copy-on-write: mutate a private copy; readers keep the current
  // snapshot until the publish below.
  SnapshotPtr current = user.Pin();
  Profile draft = current->profile();
  CTXPREF_RETURN_IF_ERROR(edit(draft));
  BuildAndPublish(user, user_id, std::move(draft), current->flat_tree());
  return Status::OK();
}

Status ProfileStore::PublishProfile(const std::string& user_id,
                                    Profile profile) {
  if (&profile.env() != env_.get()) {
    return Status::InvalidArgument(
        "profile for user '" + user_id +
        "' was built over a different context environment");
  }
  util::ReaderLock lock(users_mu_);
  auto it = std::as_const(users_).find(user_id);
  if (it == users_.cend()) {
    return Status::NotFound("no user '" + user_id + "'");
  }
  User& user = *it->second;
  util::MutexLock write_lock(user.write_mu);
  // The caller's profile may be an edited copy of the current one, and
  // so hold its bodies.
  const SnapshotPtr current = user.Pin();
  BuildAndPublish(user, user_id, std::move(profile), current->flat_tree());
  return Status::OK();
}

Status ProfileStore::ReloadUser(const std::string& user_id,
                                const std::string& dir) {
  // Parse fully before touching the live snapshot: any Load error
  // returns here with readers unaffected.
  StatusOr<Profile> loaded =
      ReadProfileFile(env_, dir + "/" + user_id + ".profile");
  if (!loaded.ok()) return loaded.status();
  return PublishProfile(user_id, std::move(*loaded));
}

Status ProfileStore::RemoveUser(const std::string& user_id) {
  {
    util::WriterLock lock(users_mu_);
    if (users_.erase(user_id) == 0) {
      return Status::NotFound("no user '" + user_id + "'");
    }
  }
  ServingMetrics::Get().users.Add(-1);
  // The removal becomes a removal record: replicas drop every entry of
  // the user when they consume it, staleness window notwithstanding.
  // A later user with the same id gets fresh serving versions and a
  // freshly built shape anyway (the counters never reuse values), so
  // none of its lookups can hit or re-score a predecessor's entry: this
  // is hygiene, not correctness.
  if (CoherenceLog* log = coherence_log_.load(std::memory_order_acquire)) {
    log->Append(user_id, serving_version(), CoherenceLog::Kind::kRemoval);
  }
  return Status::OK();
}

std::vector<std::string> ProfileStore::UserIds() const {
  util::ReaderLock lock(users_mu_);
  std::vector<std::string> out;
  out.reserve(users_.size());
  for (const auto& [id, user] : users_) out.push_back(id);
  return out;
}

Status ProfileStore::SaveAll(const std::string& dir) const {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument("'" + dir + "' is not a directory");
  }
  // Snapshot the id list, then save each user's pinned snapshot without
  // holding the map lock across file I/O.
  for (const std::string& id : UserIds()) {
    StatusOr<SnapshotPtr> snapshot = GetSnapshot(id);
    if (!snapshot.ok()) continue;  // Removed concurrently; skip.
    CTXPREF_RETURN_IF_ERROR(WriteProfileFile((*snapshot)->profile(),
                                             dir + "/" + id + ".profile"));
  }
  return Status::OK();
}

StatusOr<ProfileStore> ProfileStore::LoadDir(EnvironmentPtr env,
                                             const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("'" + dir + "' is not a directory");
  }
  ProfileStore store(env);
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".profile") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    return Status::Internal("error listing '" + dir + "': " + ec.message());
  }
  std::sort(files.begin(), files.end());  // Deterministic load order.
  for (const fs::path& file : files) {
    StatusOr<Profile> profile = ReadProfileFile(env, file.string());
    if (!profile.ok()) return profile.status();
    CTXPREF_RETURN_IF_ERROR(
        store.CreateUser(file.stem().string(), std::move(*profile)));
  }
  return store;
}

}  // namespace ctxpref::storage
