#include "preference/profile.h"

#include <algorithm>

#include "context/parser.h"
#include "util/string_util.h"

namespace ctxpref {

Status Profile::CheckConflict(const ContextualPreference& pref,
                              const std::vector<ContextState>& states,
                              size_t skip) const {
  for (size_t i = 0; i < prefs_.size(); ++i) {
    if (i != skip && prefs_[i] == pref) {
      return Status::AlreadyExists("preference already in profile: " +
                                   pref.ToString(*env_));
    }
  }
  for (const ContextState& s : states) {
    auto it = state_index_.find(s);
    if (it == state_index_.end()) continue;
    for (const size_t i : it->second) {
      if (i == skip) continue;
      const AttributeClause& clause = prefs_[i].clause();
      if (clause.attribute == pref.clause().attribute &&
          clause.op == pref.clause().op &&
          clause.value == pref.clause().value &&
          prefs_[i].score() != pref.score()) {
        return Status::Conflict(
            "preference conflicts (Def. 6) at state " + s.ToString(*env_) +
            ": clause '" + pref.clause().ToString() + "' already scored " +
            FormatDouble(prefs_[i].score()) + ", new score " +
            FormatDouble(pref.score()));
      }
    }
  }
  return Status::OK();
}

Status Profile::Insert(ContextualPreference pref) {
  std::vector<ContextState> states = pref.States(*env_);
  CTXPREF_RETURN_IF_ERROR(CheckConflict(pref, states));
  const size_t idx = prefs_.size();
  for (const ContextState& s : states) {
    state_index_[s].push_back(idx);
  }
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
  RebuildIndex();
  ++version_;
  return Status::OK();
}

Status Profile::UpdateScore(size_t index, double new_score) {
  if (index >= prefs_.size()) {
    return Status::OutOfRange("preference index " + std::to_string(index) +
                              " out of range");
  }
  StatusOr<ContextualPreference> rescored = ContextualPreference::Create(
      prefs_[index].descriptor(), prefs_[index].clause(), new_score);
  if (!rescored.ok()) return rescored.status();

  // Checked against every other preference, as the reinsert after an
  // erase would be; the index lists keep their order when `index` is
  // skipped, so the first conflict found is the same one. No other
  // preference can equal the rescored one: it would share every state
  // and the clause of the preference at `index`, so the two would
  // already conflict or be equal.
  CTXPREF_RETURN_IF_ERROR(
      CheckConflict(*rescored, rescored->States(*env_), index));

  // Move the preference to the back, where the reinsert puts it, and
  // renumber each (sorted) index list in place: indices above `index`
  // shift down one, `index` itself becomes the last, largest index.
  const size_t last = prefs_.size() - 1;
  std::rotate(prefs_.begin() + static_cast<ptrdiff_t>(index),
              prefs_.begin() + static_cast<ptrdiff_t>(index) + 1,
              prefs_.end());
  prefs_.back() = std::move(*rescored);
  if (index != last) {
    for (auto& [state, list] : state_index_) {
      auto it = std::lower_bound(list.begin(), list.end(), index);
      if (it == list.end()) continue;
      if (*it == index) {
        for (; it + 1 != list.end(); ++it) *it = *(it + 1) - 1;
        *it = last;
      } else {
        for (; it != list.end(); ++it) --*it;
      }
    }
  }
  // Erase + reinsert bumps the version twice.
  version_ += 2;
  return Status::OK();
}

void Profile::RebuildIndex() {
  state_index_.clear();
  for (size_t i = 0; i < prefs_.size(); ++i) {
    for (const ContextState& s : prefs_[i].States(*env_)) {
      state_index_[s].push_back(i);
    }
  }
}

std::vector<Profile::FlatEntry> Profile::Flatten() const {
  std::vector<FlatEntry> out;
  for (size_t i = 0; i < prefs_.size(); ++i) {
    for (ContextState& s : prefs_[i].States(*env_)) {
      out.push_back(FlatEntry{std::move(s), &prefs_[i].clause(),
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
