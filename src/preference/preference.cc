#include "preference/preference.h"

#include <algorithm>

namespace ctxpref {

std::string AttributeClause::ToString() const {
  return attribute + " " + db::CompareOpToString(op) + " " + value.ToString();
}

namespace {

/// Equal parts: the same parameters with the same value lists, in
/// order. Parts are sorted by parameter index and value sets are
/// deduplicated in stable order, so equal construction compares equal.
bool SameParts(const CompositeDescriptor& a, const CompositeDescriptor& b) {
  return std::equal(a.parts().begin(), a.parts().end(), b.parts().begin(),
                    b.parts().end(),
                    [](const ParameterDescriptor& x,
                       const ParameterDescriptor& y) {
                      return x.param_index() == y.param_index() &&
                             x.ContextOf() == y.ContextOf();
                    });
}

/// The score check `Create` and `Rescored` share.
Status CheckScore(double score) {
  if (!(score >= 0.0 && score <= 1.0)) {
    return Status::InvalidArgument("interest score must be in [0, 1], got " +
                                   std::to_string(score));
  }
  return Status::OK();
}

}  // namespace

StatusOr<ContextualPreference> ContextualPreference::Create(
    CompositeDescriptor descriptor, AttributeClause clause, double score) {
  CTXPREF_RETURN_IF_ERROR(CheckScore(score));
  if (clause.attribute.empty()) {
    return Status::InvalidArgument("attribute clause has no attribute name");
  }
  return ContextualPreference(
      std::make_shared<const Body>(
          Body{std::move(descriptor), std::move(clause)}),
      score);
}

bool operator==(const ContextualPreference& a, const ContextualPreference& b) {
  if (a.score_ != b.score_) return false;
  if (a.body_ == b.body_) return true;
  return a.body_->clause == b.body_->clause &&
         SameParts(a.body_->descriptor, b.body_->descriptor);
}

StatusOr<ContextualPreference> ContextualPreference::Rescored(
    double score) const {
  CTXPREF_RETURN_IF_ERROR(CheckScore(score));
  return ContextualPreference(body_, score);
}

std::string ContextualPreference::ToString(
    const ContextEnvironment& env) const {
  // Appended piece by piece: GCC 12's -Wrestrict misfires on
  // `literal + std::string` at -O2.
  std::string out = "(";
  out += descriptor().ToString(env);
  out += "), (";
  out += clause().ToString();
  out += "), ";
  out += std::to_string(score_);
  return out;
}

bool ConflictsWith(const ContextEnvironment& env,
                   const ContextualPreference& a,
                   const ContextualPreference& b) {
  // Condition 2 first (cheap): same attribute clause target. The value
  // is the most selective field, the attribute name the least.
  if (a.clause().value != b.clause().value || a.clause().op != b.clause().op ||
      a.clause().attribute != b.clause().attribute) {
    return false;
  }
  // Condition 3: scores differ.
  if (a.score() == b.score()) return false;
  // Condition 1: Context(cod_a) ∩ Context(cod_b) ≠ ∅. Both are
  // Cartesian products (Def. 4), so they meet iff on every parameter
  // the two value sets share a value, a parameter without a part
  // taking {all}. Values match exactly, not by hierarchy cover.
  auto holds = [](const ParameterDescriptor& pd, ValueRef v) {
    const std::vector<ValueRef>& set = pd.ContextOf();
    return std::find(set.begin(), set.end(), v) != set.end();
  };
  auto holds_all = [&](const ParameterDescriptor& pd) {
    return holds(pd, env.parameter(pd.param_index()).hierarchy().AllValue());
  };
  const std::vector<ParameterDescriptor>& pa = a.descriptor().parts();
  const std::vector<ParameterDescriptor>& pb = b.descriptor().parts();
  size_t i = 0;
  size_t j = 0;
  while (i < pa.size() && j < pb.size()) {
    if (pa[i].param_index() < pb[j].param_index()) {
      if (!holds_all(pa[i++])) return false;
    } else if (pb[j].param_index() < pa[i].param_index()) {
      if (!holds_all(pb[j++])) return false;
    } else {
      const ParameterDescriptor& x = pa[i++];
      const ParameterDescriptor& y = pb[j++];
      if (std::none_of(x.ContextOf().begin(), x.ContextOf().end(),
                       [&](ValueRef v) { return holds(y, v); })) {
        return false;
      }
    }
  }
  for (; i < pa.size(); ++i) {
    if (!holds_all(pa[i])) return false;
  }
  for (; j < pb.size(); ++j) {
    if (!holds_all(pb[j])) return false;
  }
  return true;
}

}  // namespace ctxpref
