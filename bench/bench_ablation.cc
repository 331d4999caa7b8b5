// Ablation benches for the design choices DESIGN.md calls out:
//
//  1. Parameter-ordering optimizer: the greedy/estimate-optimal
//     ordering vs. the true best/worst orderings found by exhaustively
//     building the tree — is the cheap cost model good enough?
//  2. Context query tree: resolution cost (cells touched) with the
//     cache cold, warm, and disabled, under a repeating query mix.
//  3. Conflict-check cost: `Profile::Insert`, whose Def. 6 check
//     compares descriptors part by part, vs. a naive pairwise check
//     that enumerates and intersects both preferences' states.
//  4. Rank_CS selections: the relation's own posting lists and truth
//     tables (`Relation::Select`) vs. a `Predicate::Eval` row scan.
//
// Exits 1 on a rejected insert or query, or when the two paths of
// Ablation 3 or 4 disagree on their counts. Ablation 1's greedy=best
// column is a finding, not an invariant.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_metrics.h"
#include "context/descriptor.h"
#include "context/parser.h"
#include "db/predicate.h"
#include "db/relation.h"
#include "preference/contextual_query.h"
#include "preference/flat_profile_tree.h"
#include "preference/ordering.h"
#include "preference/profile_tree.h"
#include "preference/query_cache.h"
#include "preference/resolution.h"
#include "util/counters.h"
#include "workload/poi_dataset.h"
#include "workload/profile_generator.h"
#include "workload/query_generator.h"

using namespace ctxpref;

namespace {

// Prints `st` to stderr; returns the exit code of a failed ablation.
int Fail(const Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return 1;
}

struct PrefSpec {
  const char* context;
  const char* attribute;
  db::Value value;
  double score;
};

// Inserts `context => attribute = value @ score` per spec.
Status AddPreferences(Profile* profile, const std::vector<PrefSpec>& specs) {
  for (const PrefSpec& p : specs) {
    StatusOr<CompositeDescriptor> c =
        ParseCompositeDescriptor(profile->env(), p.context);
    if (!c.ok()) return c.status();
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*c), AttributeClause{p.attribute, db::CompareOp::kEq, p.value},
        p.score);
    if (!pref.ok()) return pref.status();
    CTXPREF_RETURN_IF_ERROR(profile->Insert(std::move(*pref)));
  }
  return Status::OK();
}

int AblateOrderingOptimizer() {
  std::printf("Ablation 1: ordering optimizer vs exhaustive search\n\n");
  std::printf("%-28s %14s %14s %14s %14s %9s\n", "profile", "greedy cells",
              "best cells", "worst cells", "identity", "greedy=best");
  for (auto [label, zipf] : {std::pair{"uniform-5000", 0.0},
                             std::pair{"zipf1.5-5000", 1.5},
                             std::pair{"zipf3.0-5000", 3.0}}) {
    workload::SyntheticProfileSpec spec;
    spec.params = {
        {"c50", 50, 2, 8, zipf},
        {"c100", 100, 3, 5, zipf},
        {"c1000", 1000, 3, 10, zipf},
    };
    spec.num_preferences = 5000;
    spec.clause_pool = 400;
    spec.seed = 777;
    StatusOr<workload::SyntheticProfile> gen = GenerateSyntheticProfile(spec);
    if (!gen.ok()) return Fail(gen.status());

    const Ordering greedy = GreedyOrdering(gen->profile);
    size_t greedy_cells =
        ProfileTree::Build(gen->profile, greedy)->CellCount();
    size_t identity_cells =
        ProfileTree::Build(gen->profile, Ordering::Identity(3))->CellCount();
    size_t best = SIZE_MAX, worst = 0;
    StatusOr<std::vector<Ordering>> all = AllOrderings(3);
    for (const Ordering& o : *all) {
      size_t cells = ProfileTree::Build(gen->profile, o)->CellCount();
      best = std::min(best, cells);
      worst = std::max(worst, cells);
    }
    std::printf("%-28s %14zu %14zu %14zu %14zu %9s\n", label, greedy_cells,
                best, worst, identity_cells,
                greedy_cells == best ? "yes" : "no");
  }
  std::printf("\n");
  return 0;
}

int AblateQueryCache() {
  std::printf("Ablation 2: context query tree (result cache)\n\n");
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(300, 5);
  if (!poi.ok()) return Fail(poi.status());
  Profile profile(poi->env);
  Status st = AddPreferences(
      &profile,
      {{"temperature = good", "open_air", db::Value(true), 0.8},
       {"temperature = bad", "open_air", db::Value(false), 0.75},
       {"accompanying_people = friends", "type", db::Value("brewery"), 0.9},
       {"accompanying_people = family", "type", db::Value("zoo"), 0.85},
       {"location = Athens", "type", db::Value("museum"), 0.7}});
  if (!st.ok()) return Fail(st);
  // Both configurations resolve through the arena-flattened tree (the
  // cached path's only resolver), so the rows differ by the cache alone.
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  if (!tree.ok()) return Fail(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver resolver(&flat);

  // A repeating workload: 200 queries over 20 distinct context states,
  // each state's query built once, outside the timed loops.
  std::vector<ContextualQuery> queries;
  for (const ContextState& s :
       workload::RandomQueryBatch(*poi->env, 20, 99, 0.2)) {
    std::vector<ParameterDescriptor> parts;
    for (size_t p = 0; p < poi->env->size(); ++p) {
      if (s.value(p) == poi->env->parameter(p).hierarchy().AllValue()) {
        continue;
      }
      StatusOr<ParameterDescriptor> part =
          ParameterDescriptor::Equals(*poi->env, p, s.value(p));
      if (!part.ok()) return Fail(part.status());
      parts.push_back(std::move(*part));
    }
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::Create(*poi->env, std::move(parts));
    if (!cod.ok()) return Fail(cod.status());
    ContextualQuery q;
    q.context = ExtendedDescriptor::FromComposite(std::move(*cod));
    queries.push_back(std::move(q));
  }
  QueryOptions options;
  options.top_k = 20;

  Status query_error;
  const std::string user;
  auto run = [&](ContextQueryTree* cache) {
    const StateCache state_cache{cache, &user, profile.version()};
    AccessCounter counter;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 200; ++i) {
      StatusOr<QueryResult> r =
          RankCS(poi->relation, queries[i % queries.size()], resolver,
                 options, &counter, cache != nullptr ? &state_cache : nullptr);
      if (!r.ok() && query_error.ok()) query_error = r.status();
    }
    auto end = std::chrono::steady_clock::now();
    return std::pair<double, uint64_t>(
        std::chrono::duration<double, std::milli>(end - start).count(),
        counter.cells());
  };

  auto [ms_off, cells_off] = run(nullptr);
  ContextQueryTree cache(64);
  auto [ms_on, cells_on] = run(&cache);
  if (!query_error.ok()) return Fail(query_error);

  std::printf("%-28s %12s %16s\n", "configuration", "time (ms)",
              "cells accessed");
  std::printf("%-28s %12.2f %16llu\n", "cache disabled", ms_off,
              static_cast<unsigned long long>(cells_off));
  const CacheStats stats = cache.Stats();
  std::printf("%-28s %12.2f %16llu   (hits=%llu misses=%llu)\n",
              "context query tree", ms_on,
              static_cast<unsigned long long>(cells_on),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  std::printf("\n");
  return 0;
}

// Def. 6 by its letter: the same clause at another score, on a state
// that both enumerated contexts hold. Shares no code with the
// library's part-by-part `ConflictsWith`.
bool ConflictsByStates(const ContextEnvironment& env,
                       const ContextualPreference& a,
                       const ContextualPreference& b) {
  if (!(a.clause() == b.clause()) || a.score() == b.score()) return false;
  const std::vector<ContextState> states_a = a.States(env);
  for (const ContextState& s : b.States(env)) {
    if (std::find(states_a.begin(), states_a.end(), s) != states_a.end()) {
      return true;
    }
  }
  return false;
}

int AblateConflictCheck() {
  std::printf("Ablation 3: insert-time conflict detection\n\n");
  // Build preference batches, then time (a) the library's
  // Profile::Insert vs (b) a pairwise state-enumerating check before
  // each insert.
  workload::SyntheticProfileSpec spec;
  spec.params = {
      {"c50", 50, 2, 8, 0.5},
      {"c100", 100, 3, 5, 0.5},
      {"c1000", 1000, 3, 10, 0.5},
  };
  spec.num_preferences = 2000;
  spec.clause_pool = 400;
  spec.seed = 555;
  StatusOr<workload::SyntheticProfile> gen = GenerateSyntheticProfile(spec);
  if (!gen.ok()) return Fail(gen.status());
  const ContextEnvironment& env = *gen->env;
  const std::vector<ContextualPreference>& prefs =
      gen->profile.preferences();

  auto t0 = std::chrono::steady_clock::now();
  Profile library(gen->env);
  Status insert_error;
  for (const ContextualPreference& p : prefs) {
    Status st = library.Insert(p);
    if (!st.ok() && insert_error.ok()) insert_error = st;
  }
  auto t1 = std::chrono::steady_clock::now();
  // Naive: pairwise Def. 6 against all previously accepted.
  std::vector<ContextualPreference> naive;
  for (const ContextualPreference& p : prefs) {
    bool conflict = false;
    for (const ContextualPreference& q : naive) {
      if (ConflictsByStates(env, p, q)) {
        conflict = true;
        break;
      }
    }
    if (!conflict) naive.push_back(p);
  }
  auto t2 = std::chrono::steady_clock::now();

  std::printf("%-36s %12.2f ms\n", "Profile::Insert (library)",
              std::chrono::duration<double, std::milli>(t1 - t0).count());
  std::printf("%-36s %12.2f ms\n", "pairwise state-enumerating check",
              std::chrono::duration<double, std::milli>(t2 - t1).count());
  std::printf("(both accepted %zu / %zu preferences)\n\n", library.size(),
              naive.size());
  if (!insert_error.ok()) return Fail(insert_error);
  if (library.size() == naive.size()) return 0;
  std::fprintf(stderr, "library and pairwise checks disagree\n");
  return 1;
}

int AblateSelectionIndex() {
  std::printf("Ablation 4: Rank_CS selections, relation posting lists vs "
              "Predicate::Eval scan\n\n");
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(5000, 77);
  if (!poi.ok()) return Fail(poi.status());
  Profile profile(poi->env);
  Status st = AddPreferences(
      &profile,
      {{"accompanying_people = friends", "type", db::Value("brewery"), 0.9},
       {"accompanying_people = family", "type", db::Value("zoo"), 0.85},
       {"temperature = good", "type", db::Value("park"), 0.8},
       {"location = Athens", "type", db::Value("museum"), 0.7}});
  if (!st.ok()) return Fail(st);
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  TreeResolver resolver(&*tree);

  // The selections Rank_CS runs for 200 random queries: every clause of
  // every winning candidate, bound once outside the timed loops.
  std::vector<db::Predicate> clauses;
  for (const ContextState& state :
       workload::RandomQueryBatch(*poi->env, 200, 55, 0.2)) {
    for (const CandidatePath& cand : resolver.ResolveBest(state, {})) {
      for (const ProfileTree::LeafEntry& entry : cand.entries) {
        StatusOr<db::Predicate> pred = db::Predicate::Create(
            poi->relation.schema(), entry.clause.attribute, entry.clause.op,
            entry.clause.value);
        if (pred.ok()) clauses.push_back(std::move(*pred));
      }
    }
  }
  const db::Relation& relation = poi->relation;
  auto time_rows = [&](auto select) {
    auto start = std::chrono::steady_clock::now();
    size_t rows = 0;
    for (const db::Predicate& pred : clauses) rows += select(pred);
    auto end = std::chrono::steady_clock::now();
    return std::pair<double, size_t>(
        std::chrono::duration<double, std::milli>(end - start).count(), rows);
  };
  auto [ms_scan, n1] = time_rows([&](const db::Predicate& pred) {
    size_t n = 0;
    for (db::RowId id = 0; id < relation.size(); ++id) {
      if (pred.Eval(relation.row(id))) ++n;
    }
    return n;
  });
  auto [ms_posting, n2] = time_rows([&](const db::Predicate& pred) {
    return relation.Select(pred).size();
  });
  std::printf("%-28s %12s %14s\n", "selection path", "time (ms)",
              "rows selected");
  std::printf("%-28s %12.2f %14zu\n", "Predicate::Eval scan", ms_scan, n1);
  std::printf("%-28s %12.2f %14zu\n", "Relation::Select", ms_posting, n2);
  std::printf("(identical row counts: %s; %zu selections over %zu rows)\n\n",
              n1 == n2 ? "yes" : "NO — BUG", clauses.size(), relation.size());
  return n1 == n2 ? 0 : 1;
}

}  // namespace

int main() {
  bench::PrintBenchContext();
  std::printf("Ablation benches (design choices from DESIGN.md)\n\n");
  if (int rc = AblateOrderingOptimizer(); rc != 0) return rc;
  if (int rc = AblateQueryCache(); rc != 0) return rc;
  if (int rc = AblateConflictCheck(); rc != 0) return rc;
  return AblateSelectionIndex();
}
