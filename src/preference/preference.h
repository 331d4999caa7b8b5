#ifndef CTXPREF_PREFERENCE_PREFERENCE_H_
#define CTXPREF_PREFERENCE_PREFERENCE_H_

#include <memory>
#include <string>
#include <vector>

#include "context/descriptor.h"
#include "context/environment.h"
#include "db/schema.h"
#include "db/value.h"
#include "util/status.h"

namespace ctxpref {

/// An attribute clause `A θ a` on a non-context attribute of the
/// database relation (paper Def. 5). The paper's running simplification
/// uses a single attribute with θ being '='; we keep the general θ from
/// the definition.
struct AttributeClause {
  std::string attribute;
  db::CompareOp op = db::CompareOp::kEq;
  db::Value value;

  /// "name = Acropolis".
  std::string ToString() const;

  friend bool operator==(const AttributeClause&,
                         const AttributeClause&) = default;
};

/// A contextual preference (paper Def. 5): in every context state
/// denoted by `descriptor`, tuples satisfying `clause` carry
/// `interest score` ∈ [0, 1] (1 = extreme interest, 0 = none).
///
/// The descriptor and clause live in an immutable body that copies
/// share; only the score is held inline. Copying a preference (and so
/// a `Profile`) costs one reference-count increment, and `Rescored`
/// reuses the body. A body may be freed on whichever thread drops its
/// last copy.
class ContextualPreference {
 public:
  /// Validates the score range. The descriptor is assumed to have been
  /// created against the same environment the preference is used with.
  static StatusOr<ContextualPreference> Create(CompositeDescriptor descriptor,
                                               AttributeClause clause,
                                               double score);

  /// This preference with `score` in place of its own, sharing its
  /// descriptor and clause; the score is validated as by `Create`.
  StatusOr<ContextualPreference> Rescored(double score) const;

  const CompositeDescriptor& descriptor() const { return body_->descriptor; }
  const AttributeClause& clause() const { return body_->clause; }
  double score() const { return score_; }
  /// Identity of the shared body: equal for copies and rescores of one
  /// preference, distinct for preferences created apart, even equal
  /// ones. It names the body only while some handle keeps it alive.
  const void* body_id() const { return body_.get(); }

  /// The context states Context(cod) this preference applies to.
  std::vector<ContextState> States(const ContextEnvironment& env) const {
    return descriptor().EnumerateStates(env);
  }

  /// "(location = Plaka and temperature = warm), (name = Acropolis), 0.8".
  std::string ToString(const ContextEnvironment& env) const;

  /// Descriptor equality by denoted semantics is expensive; preference
  /// identity is (clause, score) + equal descriptor parts (parameter
  /// and value list, part by part), which is what profile
  /// deduplication needs. See Profile::Insert.
  friend bool operator==(const ContextualPreference& a,
                         const ContextualPreference& b);

 private:
  struct Body {
    CompositeDescriptor descriptor;
    AttributeClause clause;
  };

  ContextualPreference(std::shared_ptr<const Body> body, double score)
      : body_(std::move(body)), score_(score) {}

  std::shared_ptr<const Body> body_;
  double score_;
};

/// Paper Def. 6: two preferences conflict iff their contexts intersect,
/// they constrain the same attribute the same way, and their scores
/// differ.
bool ConflictsWith(const ContextEnvironment& env,
                   const ContextualPreference& a,
                   const ContextualPreference& b);

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_PREFERENCE_H_
