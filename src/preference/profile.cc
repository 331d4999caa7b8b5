#include "preference/profile.h"

#include <algorithm>
#include <cstdlib>

#include "context/parser.h"
#include "util/string_util.h"

namespace ctxpref {

namespace {

/// True iff `state` lies in Context(`cod`) (Def. 4): each component is
/// one of its part's values, or `all` where `cod` has no part.
bool Denotes(const ContextEnvironment& env, const CompositeDescriptor& cod,
             const ContextState& state) {
  const std::vector<ParameterDescriptor>& parts = cod.parts();
  size_t next = 0;  // Parts are sorted by parameter.
  for (size_t p = 0; p < env.size(); ++p) {
    const ValueRef v = state.value(p);
    if (next < parts.size() && parts[next].param_index() == p) {
      const std::vector<ValueRef>& set = parts[next++].ContextOf();
      if (std::find(set.begin(), set.end(), v) == set.end()) return false;
    } else if (v != env.parameter(p).hierarchy().AllValue()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status Profile::CheckConflict(const ContextualPreference& pref,
                              size_t skip) const {
  // A stored preference equal to `pref` and another conflicting with
  // it would conflict with each other, so the pass finds one kind.
  std::vector<size_t> rivals;
  for (size_t i = 0; i < prefs_.size(); ++i) {
    // Both kinds share `pref`'s clause; its value is the cheapest
    // field to tell clauses apart by.
    if (i == skip || prefs_[i].clause().value != pref.clause().value) continue;
    if (prefs_[i] == pref) {
      return Status::AlreadyExists("preference already in profile: " +
                                   pref.ToString(*env_));
    }
    if (ConflictsWith(*env_, prefs_[i], pref)) rivals.push_back(i);
  }
  if (rivals.empty()) return Status::OK();
  // Name the first of `pref`'s states that a rival covers, and the
  // lowest-index rival covering it.
  for (const ContextState& s : pref.States(*env_)) {
    for (const size_t i : rivals) {
      if (!Denotes(*env_, prefs_[i].descriptor(), s)) continue;
      return Status::Conflict(
          "preference conflicts (Def. 6) at state " + s.ToString(*env_) +
          ": clause '" + pref.clause().ToString() + "' already scored " +
          FormatDouble(prefs_[i].score()) + ", new score " +
          FormatDouble(pref.score()));
    }
  }
  std::abort();  // Unreachable: each rival's context meets `pref`'s.
}

Status Profile::Insert(ContextualPreference pref) {
  CTXPREF_RETURN_IF_ERROR(CheckConflict(pref));
  prefs_.push_back(std::move(pref));
  ++version_;
  return Status::OK();
}

Status Profile::Remove(size_t index) {
  if (index >= prefs_.size()) {
    return Status::OutOfRange("preference index " + std::to_string(index) +
                              " out of range (profile has " +
                              std::to_string(prefs_.size()) + ")");
  }
  prefs_.erase(prefs_.begin() + static_cast<ptrdiff_t>(index));
  ++version_;
  return Status::OK();
}

Status Profile::UpdateScore(size_t index, double new_score) {
  if (index >= prefs_.size()) {
    return Status::OutOfRange("preference index " + std::to_string(index) +
                              " out of range");
  }
  StatusOr<ContextualPreference> rescored =
      prefs_[index].Rescored(new_score);
  if (!rescored.ok()) return rescored.status();

  // Checked against every other preference, in list order, so it
  // names the conflict an erase + reinsert would. No other preference
  // can equal the rescored one: it would share every state and the
  // clause of the preference at `index`, so the two would already
  // conflict or be equal.
  CTXPREF_RETURN_IF_ERROR(CheckConflict(*rescored, index));

  // In place: the list keeps its order, so an arena over the old list
  // indexes the new one too (`FlatProfileTree::Build`).
  prefs_[index] = std::move(*rescored);
  ++version_;
  return Status::OK();
}

std::vector<Profile::StateEntry> Profile::Flatten() const {
  std::vector<StateEntry> out;
  for (size_t i = 0; i < prefs_.size(); ++i) {
    for (ContextState& s : prefs_[i].States(*env_)) {
      out.push_back(StateEntry{std::move(s), &prefs_[i].clause(),
                              prefs_[i].score(), i});
    }
  }
  return out;
}

std::string Profile::ToText() const {
  std::string out = "# ctxpref profile v1\n";
  for (const ContextualPreference& p : prefs_) {
    std::string cod = p.descriptor().ToString(*env_);
    if (cod == "<empty>") cod = "*";
    out += "pref: " + cod + " => " + p.clause().attribute + " " +
           db::CompareOpToString(p.clause().op) + " " +
           p.clause().value.ToString() + " : " +
           FormatDoubleRoundTrip(p.score()) + "\n";
  }
  return out;
}

namespace {

/// Types a clause value: against the schema column when available,
/// otherwise by inference.
StatusOr<db::Value> TypeClauseValue(std::string_view attr,
                                    std::string_view text,
                                    const db::Schema* schema) {
  std::string s(Trim(text));
  if (schema != nullptr) {
    StatusOr<size_t> idx = schema->IndexOf(attr);
    if (!idx.ok()) return idx.status();
    switch (schema->column(*idx).type) {
      case db::ColumnType::kInt64: {
        int64_t v;
        if (!ParseInt64(s, &v)) {
          return Status::Corruption("expected int64 for attribute '" +
                                    std::string(attr) + "', got '" + s + "'");
        }
        return db::Value(v);
      }
      case db::ColumnType::kDouble: {
        double v;
        if (!ParseDouble(s, &v)) {
          return Status::Corruption("expected double for attribute '" +
                                    std::string(attr) + "', got '" + s + "'");
        }
        return db::Value(v);
      }
      case db::ColumnType::kBool:
        if (s == "true") return db::Value(true);
        if (s == "false") return db::Value(false);
        return Status::Corruption("expected bool for attribute '" +
                                  std::string(attr) + "', got '" + s + "'");
      case db::ColumnType::kString:
        return db::Value(std::move(s));
    }
  }
  int64_t i;
  if (ParseInt64(s, &i)) return db::Value(i);
  double d;
  if (ParseDouble(s, &d)) return db::Value(d);
  if (s == "true") return db::Value(true);
  if (s == "false") return db::Value(false);
  return db::Value(std::move(s));
}

}  // namespace

StatusOr<Profile> Profile::FromText(EnvironmentPtr env, std::string_view text,
                                    const db::Schema* schema) {
  Profile profile(env);
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = Trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++line_no;
    if (line.empty() || line.front() == '#') continue;

    auto fail = [&](const std::string& why) {
      return Status::Corruption("profile line " + std::to_string(line_no) +
                                ": " + why);
    };

    if (!StartsWith(line, "pref:")) return fail("expected 'pref:' prefix");
    line = Trim(line.substr(5));

    size_t arrow = line.find("=>");
    if (arrow == std::string_view::npos) return fail("missing '=>'");
    std::string_view cod_text = Trim(line.substr(0, arrow));
    std::string_view rhs = Trim(line.substr(arrow + 2));

    size_t colon = rhs.rfind(':');
    if (colon == std::string_view::npos) return fail("missing score ':'");
    std::string_view clause_text = Trim(rhs.substr(0, colon));
    double score;
    if (!ParseDouble(rhs.substr(colon + 1), &score)) {
      return fail("malformed score");
    }

    // Clause: "<attr> <op> <value...>"; the value may contain spaces.
    size_t sp1 = clause_text.find(' ');
    if (sp1 == std::string_view::npos) return fail("malformed clause");
    std::string_view attr = clause_text.substr(0, sp1);
    std::string_view rest = Trim(clause_text.substr(sp1 + 1));
    size_t sp2 = rest.find(' ');
    if (sp2 == std::string_view::npos) return fail("clause missing value");
    StatusOr<db::CompareOp> op = db::ParseCompareOp(rest.substr(0, sp2));
    if (!op.ok()) return fail(op.status().message());
    std::string_view value_text = Trim(rest.substr(sp2 + 1));

    StatusOr<db::Value> value = TypeClauseValue(attr, value_text, schema);
    if (!value.ok()) return fail(value.status().message());

    StatusOr<CompositeDescriptor> cod =
        ParseCompositeDescriptor(*env, cod_text);
    if (!cod.ok()) return fail(cod.status().message());

    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod),
        AttributeClause{std::string(attr), *op, std::move(*value)}, score);
    if (!pref.ok()) return fail(pref.status().message());

    Status st = profile.Insert(std::move(*pref));
    if (!st.ok()) return st;
  }
  return profile;
}

}  // namespace ctxpref
