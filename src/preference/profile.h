#ifndef CTXPREF_PREFERENCE_PROFILE_H_
#define CTXPREF_PREFERENCE_PROFILE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "context/environment.h"
#include "context/state.h"
#include "db/schema.h"
#include "preference/preference.h"
#include "util/status.h"

namespace ctxpref {

/// What to do when an inserted preference conflicts (Def. 6) with
/// stored ones. The paper's system rejects and notifies the user
/// (kReject); the other policies automate the two choices a notified
/// user has.
enum class ConflictPolicy {
  kReject,        ///< Refuse the insert (default; the paper's behavior).
  kKeepExisting,  ///< Silently drop the new preference.
  /// Rescore every conflicting stored preference to the new score,
  /// then insert. Note a conflicting preference is rescored across
  /// *all* its states, not only the overlapping ones.
  kOverwrite,
};

/// A profile P (paper Def. 7): a set of non-conflicting contextual
/// preferences, the source of truth the `ProfileTree` indexes.
///
/// Conflicts (Def. 6) are detected at insertion time, as the paper
/// prescribes: the profile maintains a state-level inverted map
/// (context state -> indices of the preferences covering it), so
/// checking a new preference costs O(|Context(cod)|) lookups instead
/// of comparing against every stored preference.
///
/// Mutations bump `version()`, which dependent structures (ProfileTree,
/// ContextQueryTree) use to detect staleness.
class Profile {
 public:
  explicit Profile(EnvironmentPtr env) : env_(std::move(env)) {}

  const ContextEnvironment& env() const { return *env_; }
  const EnvironmentPtr& env_ptr() const { return env_; }

  size_t size() const { return prefs_.size(); }
  bool empty() const { return prefs_.empty(); }
  const ContextualPreference& preference(size_t i) const { return prefs_[i]; }
  const std::vector<ContextualPreference>& preferences() const {
    return prefs_;
  }

  /// Monotone counter bumped on every successful mutation.
  uint64_t version() const { return version_; }

  /// Inserts a preference. Errors:
  ///  - Conflict (Def. 6): some covered state already carries the same
  ///    attribute clause with a *different* score; the message names
  ///    the offending state. The profile is unchanged.
  ///  - AlreadyExists: the identical preference is already present.
  Status Insert(ContextualPreference pref);

  /// Insert under an explicit conflict policy. With kKeepExisting a
  /// conflicting or duplicate insert is an OK no-op; with kOverwrite
  /// the conflicting stored preferences are rescored to `pref`'s score
  /// first. kReject behaves exactly like `Insert`.
  Status InsertWithPolicy(ContextualPreference pref, ConflictPolicy policy);

  /// Removes the preference at `index` (as listed by `preferences()`).
  Status Remove(size_t index);

  /// Replaces the score of the preference at `index`. Equivalent to
  /// Remove + Insert of the rescored preference; on conflict the
  /// profile is unchanged.
  Status UpdateScore(size_t index, double new_score);

  /// All (state, clause, score) entries expanded from every preference;
  /// the flat representation the sequential baseline scans and the
  /// profile tree indexes. Order: preference order, then state order.
  struct FlatEntry {
    ContextState state;
    const AttributeClause* clause;  ///< Points into this profile.
    double score;
    size_t pref_index;
  };
  std::vector<FlatEntry> Flatten() const;

  /// Serializes to the line format
  ///   `pref: <descriptor> => <attr> <op> <value> : <score>`
  /// with '#' comments; parse back with `FromText`.
  std::string ToText() const;

  /// Parses `ToText` output. Attribute-clause values are typed against
  /// `schema` when provided, else inferred (int64, double, bool,
  /// string, in that order). Errors with Corruption on malformed lines
  /// and Conflict on conflicting preferences.
  static StatusOr<Profile> FromText(EnvironmentPtr env, std::string_view text,
                                    const db::Schema* schema = nullptr);

 private:
  /// Rebuilds state_index_ from prefs_ (used after removal).
  void RebuildIndex();

  /// Checks `pref` against the index; OK if insertable.
  Status CheckConflict(const ContextualPreference& pref,
                       const std::vector<ContextState>& states) const;

  EnvironmentPtr env_;
  std::vector<ContextualPreference> prefs_;
  /// State -> indices into `prefs_` of the preferences covering it.
  /// Indices, not clause copies, keep the index small; unlike pointers
  /// they stay valid when a `Profile` is copied.
  std::unordered_map<ContextState, std::vector<size_t>, ContextStateHash>
      state_index_;
  uint64_t version_ = 0;
};

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_PROFILE_H_
