#ifndef CTXPREF_CONTEXT_DESCRIPTOR_H_
#define CTXPREF_CONTEXT_DESCRIPTOR_H_

#include <string>
#include <vector>

#include "context/environment.h"
#include "context/state.h"
#include "util/status.h"

namespace ctxpref {

/// A context parameter descriptor cod(Ci) (paper Def. 1): a condition a
/// user states on one parameter — equality, a value set, or a value
/// range — over the parameter's *extended* domain.
class ParameterDescriptor {
 public:
  enum class Kind {
    kEquals,  ///< Ci = v
    kSet,     ///< Ci ∈ {v1, ..., vm}
    kRange,   ///< Ci ∈ [v1, vm]
  };

  /// Ci = v. `value` must be in the parameter's extended domain.
  static StatusOr<ParameterDescriptor> Equals(const ContextEnvironment& env,
                                              size_t param_index,
                                              ValueRef value);

  /// Ci ∈ {v1, ..., vm}. Duplicates are removed; the set may mix levels.
  static StatusOr<ParameterDescriptor> Set(const ContextEnvironment& env,
                                           size_t param_index,
                                           std::vector<ValueRef> values);

  /// Ci ∈ [lo, hi]. Both endpoints must lie on the *same* level (the
  /// level's declaration order is the domain order); lo must not exceed
  /// hi. Ranges are translated to finite value sets (paper Def. 2).
  static StatusOr<ParameterDescriptor> Range(const ContextEnvironment& env,
                                             size_t param_index, ValueRef lo,
                                             ValueRef hi);

  size_t param_index() const { return param_index_; }
  Kind kind() const { return kind_; }

  /// The paper's Context(cod(Ci)) (Def. 2): the finite set of extended-
  /// domain values the descriptor denotes, deduplicated, in a stable
  /// order (declaration order for ranges; insertion order for sets).
  const std::vector<ValueRef>& ContextOf() const { return context_; }

  /// "location = Plaka", "temperature in {warm, hot}",
  /// "temperature in [mild, hot]".
  std::string ToString(const ContextEnvironment& env) const;

 private:
  ParameterDescriptor(size_t param_index, Kind kind,
                      std::vector<ValueRef> context)
      : param_index_(param_index), kind_(kind), context_(std::move(context)) {}

  size_t param_index_;
  Kind kind_;
  std::vector<ValueRef> context_;
};

/// A composite context descriptor cod (paper Def. 3): a conjunction of
/// parameter descriptors with at most one descriptor per parameter.
/// Parameters without a descriptor implicitly take the value `all`.
class CompositeDescriptor {
 public:
  /// An empty descriptor: denotes the single state (all, ..., all), the
  /// non-contextual case.
  CompositeDescriptor() = default;

  /// Errors with InvalidArgument if two descriptors target the same
  /// parameter.
  static StatusOr<CompositeDescriptor> Create(
      const ContextEnvironment& env, std::vector<ParameterDescriptor> parts);

  /// The descriptor denoting exactly `state`: an equality condition
  /// per non-`all` component, `all` components omitted (Def. 4) — the
  /// canonical way to turn a sensed current context into a query
  /// descriptor.
  static StatusOr<CompositeDescriptor> ForState(const ContextEnvironment& env,
                                                const ContextState& state);

  const std::vector<ParameterDescriptor>& parts() const { return parts_; }
  bool empty() const { return parts_.empty(); }

  /// Number of states in Context(cod) = Π |Context(cod(Ci))|.
  size_t NumStates() const;

  /// The paper's Context(cod) (Def. 4): the Cartesian product of the
  /// per-parameter contexts, with {all} for absent parameters. The
  /// result is finite and duplicate-free.
  std::vector<ContextState> EnumerateStates(const ContextEnvironment& env) const;

  /// "location = Plaka and temperature in {warm, hot}"; "<empty>" for
  /// the empty descriptor.
  std::string ToString(const ContextEnvironment& env) const;

 private:
  friend class ExtendedDescriptor;

  explicit CompositeDescriptor(std::vector<ParameterDescriptor> parts)
      : parts_(std::move(parts)) {}

  /// `EnumerateStates`, appended to `out`.
  void AppendStates(const ContextEnvironment& env,
                    std::vector<ContextState>& out) const;

  /// Sorted by param_index; at most one entry per parameter.
  std::vector<ParameterDescriptor> parts_;
};

/// An extended context descriptor ecod (paper Def. 8): a disjunction of
/// composite descriptors, used to attach (possibly hypothetical)
/// context to queries.
class ExtendedDescriptor {
 public:
  ExtendedDescriptor() = default;
  explicit ExtendedDescriptor(std::vector<CompositeDescriptor> disjuncts)
      : disjuncts_(std::move(disjuncts)) {}

  /// Wraps a single composite descriptor.
  static ExtendedDescriptor FromComposite(CompositeDescriptor cod) {
    std::vector<CompositeDescriptor> d;
    d.push_back(std::move(cod));
    return ExtendedDescriptor(std::move(d));
  }

  const std::vector<CompositeDescriptor>& disjuncts() const {
    return disjuncts_;
  }
  bool empty() const { return disjuncts_.empty(); }

  void AddDisjunct(CompositeDescriptor cod) {
    disjuncts_.push_back(std::move(cod));
  }

  /// Union of the disjuncts' states, deduplicated, first-seen order.
  std::vector<ContextState> EnumerateStates(const ContextEnvironment& env) const;

  /// "(...) or (...)".
  std::string ToString(const ContextEnvironment& env) const;

 private:
  std::vector<CompositeDescriptor> disjuncts_;
};

}  // namespace ctxpref

#endif  // CTXPREF_CONTEXT_DESCRIPTOR_H_
