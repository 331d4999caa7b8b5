#include "context/descriptor.h"

#include <algorithm>
#include <cstddef>

namespace ctxpref {

namespace {

Status CheckParam(const ContextEnvironment& env, size_t param_index) {
  if (param_index >= env.size()) {
    return Status::InvalidArgument("parameter index " +
                                   std::to_string(param_index) +
                                   " out of range");
  }
  return Status::OK();
}

Status CheckValue(const ContextEnvironment& env, size_t param_index,
                  ValueRef v) {
  if (!env.parameter(param_index).hierarchy().Contains(v)) {
    return Status::InvalidArgument(
        "value (level " + std::to_string(v.level) + ", id " +
        std::to_string(v.id) + ") not in extended domain of parameter '" +
        env.parameter(param_index).name() + "'");
  }
  return Status::OK();
}

}  // namespace

StatusOr<ParameterDescriptor> ParameterDescriptor::Equals(
    const ContextEnvironment& env, size_t param_index, ValueRef value) {
  CTXPREF_RETURN_IF_ERROR(CheckParam(env, param_index));
  CTXPREF_RETURN_IF_ERROR(CheckValue(env, param_index, value));
  return ParameterDescriptor(param_index, Kind::kEquals, {value});
}

StatusOr<ParameterDescriptor> ParameterDescriptor::Set(
    const ContextEnvironment& env, size_t param_index,
    std::vector<ValueRef> values) {
  CTXPREF_RETURN_IF_ERROR(CheckParam(env, param_index));
  if (values.empty()) {
    return Status::InvalidArgument("set descriptor for parameter '" +
                                   env.parameter(param_index).name() +
                                   "' is empty");
  }
  std::vector<ValueRef> dedup;
  for (ValueRef v : values) {
    CTXPREF_RETURN_IF_ERROR(CheckValue(env, param_index, v));
    if (std::find(dedup.begin(), dedup.end(), v) == dedup.end()) {
      dedup.push_back(v);
    }
  }
  return ParameterDescriptor(param_index, Kind::kSet, std::move(dedup));
}

StatusOr<ParameterDescriptor> ParameterDescriptor::Range(
    const ContextEnvironment& env, size_t param_index, ValueRef lo,
    ValueRef hi) {
  CTXPREF_RETURN_IF_ERROR(CheckParam(env, param_index));
  CTXPREF_RETURN_IF_ERROR(CheckValue(env, param_index, lo));
  CTXPREF_RETURN_IF_ERROR(CheckValue(env, param_index, hi));
  if (lo.level != hi.level) {
    return Status::InvalidArgument(
        "range endpoints must lie on the same hierarchy level (parameter '" +
        env.parameter(param_index).name() + "')");
  }
  if (lo.id > hi.id) {
    return Status::InvalidArgument("empty range for parameter '" +
                                   env.parameter(param_index).name() +
                                   "' (lo after hi in domain order)");
  }
  std::vector<ValueRef> values;
  values.reserve(hi.id - lo.id + 1);
  for (ValueId id = lo.id; id <= hi.id; ++id) {
    values.push_back(ValueRef{lo.level, id});
  }
  return ParameterDescriptor(param_index, Kind::kRange, std::move(values));
}

std::string ParameterDescriptor::ToString(
    const ContextEnvironment& env) const {
  const ContextParameter& p = env.parameter(param_index_);
  const Hierarchy& h = p.hierarchy();
  switch (kind_) {
    case Kind::kEquals:
      return p.name() + " = " + h.value_name(context_.front());
    case Kind::kRange:
      return p.name() + " in [" + h.value_name(context_.front()) + ", " +
             h.value_name(context_.back()) + "]";
    case Kind::kSet: {
      std::string out = p.name() + " in {";
      for (size_t i = 0; i < context_.size(); ++i) {
        if (i > 0) out += ", ";
        out += h.value_name(context_[i]);
      }
      out += "}";
      return out;
    }
  }
  return "<invalid>";
}

StatusOr<CompositeDescriptor> CompositeDescriptor::Create(
    const ContextEnvironment& env, std::vector<ParameterDescriptor> parts) {
  std::sort(parts.begin(), parts.end(),
            [](const ParameterDescriptor& a, const ParameterDescriptor& b) {
              return a.param_index() < b.param_index();
            });
  for (size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].param_index() == parts[i - 1].param_index()) {
      return Status::InvalidArgument(
          "composite descriptor has two conditions on parameter '" +
          env.parameter(parts[i].param_index()).name() +
          "' (at most one allowed, paper Def. 3)");
    }
  }
  return CompositeDescriptor(std::move(parts));
}

StatusOr<CompositeDescriptor> CompositeDescriptor::ForState(
    const ContextEnvironment& env, const ContextState& state) {
  CTXPREF_RETURN_IF_ERROR(state.Validate(env));
  std::vector<ParameterDescriptor> parts;
  for (size_t i = 0; i < env.size(); ++i) {
    if (state.value(i) == env.parameter(i).hierarchy().AllValue()) continue;
    StatusOr<ParameterDescriptor> pd =
        ParameterDescriptor::Equals(env, i, state.value(i));
    if (!pd.ok()) return pd.status();
    parts.push_back(std::move(*pd));
  }
  return Create(env, std::move(parts));
}

size_t CompositeDescriptor::NumStates() const {
  size_t n = 1;
  for (const ParameterDescriptor& pd : parts_) n *= pd.ContextOf().size();
  return n;
}

std::vector<ContextState> CompositeDescriptor::EnumerateStates(
    const ContextEnvironment& env) const {
  std::vector<ContextState> out;
  out.reserve(NumStates());
  AppendStates(env, out);
  return out;
}

void CompositeDescriptor::AppendStates(const ContextEnvironment& env,
                                       std::vector<ContextState>& out) const {
  // Start from every parameter's first choice: its part's first value,
  // or `all` where it has no part (Def. 4).
  std::vector<ValueRef> values(env.size());
  for (size_t i = 0; i < env.size(); ++i) {
    values[i] = env.parameter(i).hierarchy().AllValue();
  }
  for (const ParameterDescriptor& pd : parts_) {
    values[pd.param_index()] = pd.ContextOf().front();
  }
  // Odometer over the parts, last parameter fastest (a parameter
  // without a part has one choice and never turns).
  std::vector<size_t> at(parts_.size(), 0);
  for (;;) {
    out.emplace_back(values);
    size_t i = parts_.size();
    for (;;) {
      if (i == 0) return;
      --i;
      const std::vector<ValueRef>& choices = parts_[i].ContextOf();
      ValueRef& value = values[parts_[i].param_index()];
      if (++at[i] < choices.size()) {
        value = choices[at[i]];
        break;
      }
      at[i] = 0;
      value = choices[0];
    }
  }
}

std::string CompositeDescriptor::ToString(
    const ContextEnvironment& env) const {
  if (parts_.empty()) return "<empty>";
  std::string out;
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (i > 0) out += " and ";
    out += parts_[i].ToString(env);
  }
  return out;
}

std::vector<ContextState> ExtendedDescriptor::EnumerateStates(
    const ContextEnvironment& env) const {
  std::vector<ContextState> out;
  size_t total = 0;
  for (const CompositeDescriptor& cod : disjuncts_) total += cod.NumStates();
  out.reserve(total);
  for (const CompositeDescriptor& cod : disjuncts_) cod.AppendStates(env, out);
  // One disjunct's states are distinct; across disjuncts keep each
  // state's first occurrence. Positions sorted by (state, position) put
  // every repeat right after its first occurrence.
  if (disjuncts_.size() < 2) return out;
  std::vector<size_t> order(out.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (out[a].values() != out[b].values()) {
      return out[a].values() < out[b].values();
    }
    return a < b;
  });
  std::vector<bool> repeat(out.size(), false);
  for (size_t i = 1; i < order.size(); ++i) {
    repeat[order[i]] = out[order[i]] == out[order[i - 1]];
  }
  size_t kept = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (repeat[i]) continue;
    if (kept != i) out[kept] = std::move(out[i]);
    ++kept;
  }
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(kept), out.end());
  return out;
}

std::string ExtendedDescriptor::ToString(const ContextEnvironment& env) const {
  if (disjuncts_.empty()) return "<empty>";
  std::string out;
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out += " or ";
    out += "(" + disjuncts_[i].ToString(env) + ")";
  }
  return out;
}

}  // namespace ctxpref
