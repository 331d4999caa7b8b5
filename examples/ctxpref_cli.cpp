// ctxpref_cli: drive the whole stack from config files — define the
// context model in a text spec, keep the profile in the binary format,
// load the database from CSV, and answer contextual queries from a
// small command language on stdin.
//
//   $ ./ctxpref_cli <env.spec> <profile.bin|-> <data.csv|builtin> [cmd...]
//
// With no trailing commands, reads them from stdin. Commands:
//   query <extended descriptor>      ranked answer for that context
//   resolve <composite descriptor>   Search_CS candidates per state
//   pref <descriptor> => <attr> <op> <value> : <score>   add preference
//   save <path>                      write profile (binary format)
//   stats                            profile/tree/cache statistics
//   help | quit
//
// When invoked without arguments it bootstraps a demo: writes the
// paper's environment spec and a starter profile to /tmp and uses the
// built-in POI database — so `./ctxpref_cli` alone is runnable.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "context/parser.h"
#include "util/string_util.h"
#include "db/csv.h"
#include "preference/contextual_query.h"
#include "preference/profile_tree.h"
#include "preference/tree_dot.h"
#include "storage/env_spec.h"
#include "storage/profile_io.h"
#include "workload/default_profiles.h"
#include "workload/poi_dataset.h"

using namespace ctxpref;

namespace {

struct Session {
  EnvironmentPtr env;
  Profile profile;
  db::Relation relation;
  std::optional<ProfileTree> tree;

  Session(EnvironmentPtr e, Profile p, db::Relation r)
      : env(std::move(e)), profile(std::move(p)), relation(std::move(r)) {}

  Status RebuildTree() {
    StatusOr<ProfileTree> t = ProfileTree::Build(profile);
    if (!t.ok()) return t.status();
    tree.emplace(std::move(*t));
    return Status::OK();
  }
};

void PrintRanked(const Session& s, const QueryResult& result, size_t limit) {
  const db::Schema& schema = s.relation.schema();
  size_t shown = 0;
  for (const db::ScoredTuple& t : result.tuples) {
    if (shown++ == limit) {
      std::printf("  ... (%zu more)\n", result.tuples.size() - limit);
      break;
    }
    std::printf("  %.3f  %s\n", t.score,
                db::TupleToString(schema, s.relation.row(t.row_id)).c_str());
  }
  if (result.tuples.empty()) {
    std::printf("  (no applicable preferences)\n");
  }
}

void HandleQuery(Session& s, const std::string& arg) {
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(*s.env, arg);
  if (!ecod.ok()) {
    std::printf("error: %s\n", ecod.status().ToString().c_str());
    return;
  }
  ContextualQuery q;
  q.context = *ecod;
  QueryOptions options;
  options.top_k = 20;
  TreeResolver resolver(&*s.tree);
  StatusOr<QueryResult> result = RankCS(s.relation, q, resolver, options);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  for (const QueryResult::Trace& trace : result->traces) {
    std::printf("state %s -> %zu candidate(s)\n",
                trace.query_state.ToString(*s.env).c_str(),
                trace.candidates->size());
  }
  PrintRanked(s, *result, 20);
}

void HandleResolve(Session& s, const std::string& arg) {
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(*s.env, arg);
  if (!cod.ok()) {
    std::printf("error: %s\n", cod.status().ToString().c_str());
    return;
  }
  TreeResolver resolver(&*s.tree);
  for (const ContextState& state : cod->EnumerateStates(*s.env)) {
    std::printf("state %s:\n", state.ToString(*s.env).c_str());
    for (DistanceKind kind :
         {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
      ResolutionOptions options;
      options.distance = kind;
      std::vector<CandidatePath> best = resolver.ResolveBest(state, options);
      std::printf("  [%s]\n", DistanceKindToString(kind));
      for (const CandidatePath& c : best) {
        std::printf("    %s (dist %.3f):", c.state.ToString(*s.env).c_str(),
                    c.distance);
        for (const ProfileTree::LeafEntry& e : c.entries) {
          std::printf(" (%s, %.2f)", e.clause.ToString().c_str(), e.score);
        }
        std::printf("\n");
      }
      if (best.empty()) std::printf("    (no covering preference)\n");
    }
  }
}

void HandlePref(Session& s, const std::string& arg) {
  // Reuse the profile text-line parser by synthesizing a line.
  StatusOr<Profile> one =
      Profile::FromText(s.env, "pref: " + arg + "\n", &s.relation.schema());
  if (!one.ok()) {
    std::printf("error: %s\n", one.status().ToString().c_str());
    return;
  }
  for (const ContextualPreference& pref : one->preferences()) {
    Status st = s.profile.Insert(pref);
    if (!st.ok()) {
      std::printf("rejected: %s\n", st.ToString().c_str());
      return;
    }
  }
  if (Status st = s.RebuildTree(); !st.ok()) {
    std::printf("tree rebuild failed: %s\n", st.ToString().c_str());
    return;
  }
  std::printf("ok (%zu preferences)\n", s.profile.size());
}

void HandleStats(const Session& s) {
  std::printf("environment: %zu parameters, |W| = %zu, |EW| = %zu\n",
              s.env->size(), s.env->WorldSize(), s.env->ExtendedWorldSize());
  std::printf("profile: %zu preferences (version %llu)\n", s.profile.size(),
              static_cast<unsigned long long>(s.profile.version()));
  std::printf("tree: ordering %s, %zu cells, %zu paths, %zu bytes\n",
              s.tree->ordering().ToString(*s.env).c_str(),
              s.tree->CellCount(), s.tree->PathCount(), s.tree->ByteSize());
  std::printf("relation: %zu rows, schema %s\n", s.relation.size(),
              s.relation.schema().ToString().c_str());
}

int Run(Session& s, std::istream& in, bool interactive) {
  std::string line;
  if (interactive) std::printf("ctxpref> ");
  while (std::getline(in, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') {
      if (interactive) std::printf("ctxpref> ");
      continue;
    }
    size_t sp = trimmed.find(' ');
    std::string cmd(trimmed.substr(0, sp));
    std::string arg(sp == std::string_view::npos
                        ? ""
                        : std::string(Trim(trimmed.substr(sp + 1))));
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      std::printf(
          "commands: query <ecod> | resolve <cod> | pref <line> | "
          "save <path> | dot <path> | stats | quit\n");
    } else if (cmd == "query") {
      HandleQuery(s, arg);
    } else if (cmd == "resolve") {
      HandleResolve(s, arg);
    } else if (cmd == "pref") {
      HandlePref(s, arg);
    } else if (cmd == "save") {
      Status st = storage::WriteProfileFile(s.profile, arg);
      std::printf("%s\n", st.ok() ? "saved" : st.ToString().c_str());
    } else if (cmd == "dot") {
      std::ofstream out(arg);
      out << ProfileTreeToDot(*s.tree);
      std::printf("%s\n", out ? "written" : "write failed");
    } else if (cmd == "stats") {
      HandleStats(s);
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
    if (interactive) std::printf("ctxpref> ");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  EnvironmentPtr env;
  std::optional<Profile> profile;
  std::optional<db::Relation> relation;

  if (argc >= 4) {
    StatusOr<EnvironmentPtr> e = storage::ReadEnvironmentSpecFile(argv[1]);
    if (!e.ok()) {
      std::fprintf(stderr, "env: %s\n", e.status().ToString().c_str());
      return 1;
    }
    env = *e;
    if (std::string(argv[2]) == "-") {
      profile.emplace(env);
    } else {
      StatusOr<Profile> p = storage::ReadProfileFile(env, argv[2]);
      if (!p.ok()) {
        std::fprintf(stderr, "profile: %s\n", p.status().ToString().c_str());
        return 1;
      }
      profile.emplace(std::move(*p));
    }
    if (std::string(argv[3]) == "builtin") {
      StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(150, 1);
      if (!poi.ok()) {
        std::fprintf(stderr, "poi: %s\n", poi.status().ToString().c_str());
        return 1;
      }
      relation.emplace(std::move(poi->relation));
    } else {
      StatusOr<db::Schema> schema = workload::MakePoiSchema();
      StatusOr<db::Relation> r = db::LoadCsvFile(std::move(*schema), argv[3]);
      if (!r.ok()) {
        std::fprintf(stderr, "csv: %s\n", r.status().ToString().c_str());
        return 1;
      }
      relation.emplace(std::move(*r));
    }
  } else {
    // Demo bootstrap: paper environment, a default profile, built-in
    // POIs; also writes the spec files so users can inspect/edit them.
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(150, 1);
    if (!poi.ok()) {
      std::fprintf(stderr, "poi: %s\n", poi.status().ToString().c_str());
      return 1;
    }
    env = poi->env;
    relation.emplace(std::move(poi->relation));
    StatusOr<Profile> p = workload::MakeDefaultProfile(
        env, workload::AgeGroup::kUnder30, workload::Sex::kFemale,
        workload::Taste::kMainstream);
    if (!p.ok()) {
      std::fprintf(stderr, "profile: %s\n", p.status().ToString().c_str());
      return 1;
    }
    profile.emplace(std::move(*p));
    (void)storage::WriteEnvironmentSpecFile(*env, "/tmp/ctxpref_env.spec");
    (void)storage::WriteProfileFile(*profile, "/tmp/ctxpref_profile.bin");
    std::printf("demo mode: wrote /tmp/ctxpref_env.spec and "
                "/tmp/ctxpref_profile.bin\n");
  }

  Session session(env, std::move(*profile), std::move(*relation));
  if (Status st = session.RebuildTree(); !st.ok()) {
    std::fprintf(stderr, "tree: %s\n", st.ToString().c_str());
    return 1;
  }

  // Trailing argv entries are commands; otherwise read stdin.
  if (argc > 4) {
    std::string script;
    for (int i = 4; i < argc; ++i) {
      script += argv[i];
      script += "\n";
    }
    std::istringstream in(script);
    return Run(session, in, /*interactive=*/false);
  }
  return Run(session, std::cin, /*interactive=*/true);
}
