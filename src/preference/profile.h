#ifndef CTXPREF_PREFERENCE_PROFILE_H_
#define CTXPREF_PREFERENCE_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "context/environment.h"
#include "context/state.h"
#include "db/schema.h"
#include "preference/preference.h"
#include "util/status.h"

namespace ctxpref {

/// A profile P (paper Def. 7): a set of non-conflicting contextual
/// preferences, the source of truth the `ProfileTree` indexes.
///
/// Conflicts (Def. 6) are detected at insertion time, as the paper
/// prescribes, by one pass over the stored preferences with
/// `ConflictsWith`: descriptors are compared part by part, and states
/// are enumerated only to name one in a Conflict message. The profile
/// is a plain preference vector plus a version; it keeps no index.
/// Copies share each preference's immutable body (`ContextualPreference`),
/// so copying a profile copies one handle and one score per preference,
/// and `UpdateScore` keeps the rescored preference's body.
///
/// Mutations bump `version()`. The indexes serving reads are rebuilt
/// from the profile at publish (`ProfileSnapshot`), not kept in step
/// with it, so nothing reads the counter to detect staleness; a caller
/// may pass it as the profile version of a `StateCache` key.
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

  /// Removes the preference at `index` (as listed by `preferences()`).
  Status Remove(size_t index);

  /// Replaces the score of the preference at `index`, in place: the
  /// preference keeps its index and its body, and the version moves by
  /// one. Accepts and refuses as Remove + Insert of the rescored
  /// preference would; on conflict the profile is unchanged.
  Status UpdateScore(size_t index, double new_score);

  /// All (state, clause, score) entries expanded from every preference;
  /// the flat representation the sequential baseline scans and the
  /// profile tree indexes. Order: preference order, then state order.
  struct StateEntry {
    ContextState state;
    /// Points into the body of the preference at `pref_index`, which
    /// copies of it share; valid while any of them lives.
    const AttributeClause* clause;
    double score;
    size_t pref_index;
  };
  std::vector<StateEntry> Flatten() const;

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
  /// Checks `pref` against every stored preference but the one at
  /// `skip` (if any); OK if insertable.
  Status CheckConflict(const ContextualPreference& pref,
                       size_t skip = SIZE_MAX) const;

  EnvironmentPtr env_;
  std::vector<ContextualPreference> prefs_;
  uint64_t version_ = 0;
};

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_PROFILE_H_
