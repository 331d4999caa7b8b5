#include "preference/explain.h"

#include <algorithm>
#include <unordered_map>

#include "util/string_util.h"

namespace ctxpref {

std::vector<Contribution> ExplainTuple(const QueryResult& result,
                                       const db::Relation& relation,
                                       db::RowId row) {
  std::vector<Contribution> out;
  if (row >= relation.size()) return out;
  const db::Tuple& tuple = relation.row(row);
  for (const QueryResult::Trace& trace : result.traces) {
    for (const CandidatePath& cand : *trace.candidates) {
      for (const ProfileTree::LeafEntry& entry : cand.entries) {
        StatusOr<db::Predicate> pred = db::Predicate::Create(
            relation.schema(), entry.clause.attribute, entry.clause.op,
            entry.clause.value);
        if (!pred.ok()) continue;  // Clause over a non-existent column.
        if (!pred->Eval(tuple)) continue;
        out.push_back(Contribution{trace.query_state, cand.state,
                                   cand.distance, entry.clause, entry.score});
      }
    }
  }
  return out;
}

std::string ExplainTupleText(const QueryResult& result,
                             const db::Relation& relation,
                             const ContextEnvironment& env, db::RowId row) {
  std::vector<Contribution> contributions =
      ExplainTuple(result, relation, row);
  if (contributions.empty()) {
    return "no preference contributed to this tuple\n";
  }
  std::string out;
  for (const Contribution& c : contributions) {
    out += "score " + FormatDouble(c.score, 3) + " via " +
           c.matched_state.ToString(env) + " [dist " +
           FormatDouble(c.distance, 3) + "] covering query " +
           c.query_state.ToString(env) + ": " + c.clause.ToString() + "\n";
  }
  return out;
}

std::string ExplainAcquisition(const ContextEnvironment& env,
                               const SnapshotReport& report) {
  std::string out = "query context " + report.state.ToString(env);
  if (report.fully_fresh()) {
    out += " (all parameters fresh)\n";
  } else {
    out += " (" + std::to_string(report.degraded_count()) + " degraded)\n";
  }
  for (const ParameterAcquisition& p : report.params) {
    const ContextParameter& param = env.parameter(p.param_index);
    out += "  " + param.name() + " = " +
           param.hierarchy().value_name(p.value) + ": ";
    if (!p.has_source) {
      out += "no source registered, defaulted to all";
    } else {
      out += p.info.ToString();
      switch (p.info.provenance) {
        case ReadProvenance::kStaleLifted:
          out += ", lifted " + std::to_string(p.info.lifted_levels) +
                 " level(s) toward all while the backend recovers";
          break;
        case ReadProvenance::kBreakerOpen:
          out += ", circuit breaker open; backend not probed";
          break;
        case ReadProvenance::kAbsent:
          out += ", no usable reading, defaulted to all";
          break;
        default:
          break;
      }
    }
    out += "\n";
  }
  return out;
}

namespace {

void RenderSpan(
    const std::vector<TraceEvent>& events, size_t index,
    const std::unordered_map<uint64_t, std::vector<size_t>>& children,
    size_t depth, std::string& out) {
  const TraceEvent& e = events[index];
  out.append(2 * depth, ' ');
  out += e.name;
  out += "  " + FormatDouble(static_cast<double>(e.duration_nanos) / 1000.0,
                             1) + "us";
  for (const auto& [key, value] : e.tags) {
    out += " " + key + "=" + value;
  }
  out += "\n";
  auto it = children.find(e.id);
  if (it == children.end()) return;
  for (size_t child : it->second) {
    RenderSpan(events, child, children, depth + 1, out);
  }
}

}  // namespace

std::string ExplainTrace(const std::vector<TraceEvent>& events) {
  if (events.empty()) return "no spans recorded\n";
  // Events arrive in completion order (spans record on destruction);
  // rebuild the tree and render in start order instead.
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) by_id.emplace(events[i].id, i);

  std::unordered_map<uint64_t, std::vector<size_t>> children;
  std::vector<size_t> roots;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.parent_id != 0 && by_id.contains(e.parent_id)) {
      children[e.parent_id].push_back(i);
    } else {
      // Parent absent: recorder installed mid-query, parent evicted
      // from the ring, or the span ran on a worker thread.
      roots.push_back(i);
    }
  }
  auto by_start = [&events](size_t a, size_t b) {
    return events[a].start_nanos != events[b].start_nanos
               ? events[a].start_nanos < events[b].start_nanos
               : events[a].id < events[b].id;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(), by_start);
  }

  std::string out;
  for (size_t root : roots) {
    RenderSpan(events, root, children, 0, out);
  }
  return out;
}

}  // namespace ctxpref
