// Ablation benches for the design choices DESIGN.md calls out:
//
//  1. Parameter-ordering optimizer: the greedy/estimate-optimal
//     ordering vs. the true best/worst orderings found by exhaustively
//     building the tree — is the cheap cost model good enough?
//  2. Context query tree: resolution cost (cells touched) with the
//     cache cold, warm, and disabled, under a repeating query mix.
//  3. Conflict-check cost: profile insertion throughput with the
//     state-level index vs. the naive pairwise Def. 6 check.
//  4. Rank_CS selections: the relation's own posting lists and truth
//     tables (`Relation::Select`) vs. a `Predicate::Eval` row scan.

#include <chrono>
#include <cstdio>

#include "context/parser.h"
#include "preference/qualitative.h"
#include "preference/contextual_query.h"
#include "preference/ordering.h"
#include "preference/profile_tree.h"
#include "preference/query_cache.h"
#include "preference/resolution.h"
#include "workload/poi_dataset.h"
#include "workload/profile_generator.h"
#include "workload/query_generator.h"

using namespace ctxpref;

namespace {

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
    if (!gen.ok()) {
      std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
      return 1;
    }

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
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  Profile profile(poi->env);
  {
    auto add = [&](const char* cod, const char* attr, db::Value v, double s) {
      StatusOr<CompositeDescriptor> c =
          ParseCompositeDescriptor(*poi->env, cod);
      StatusOr<ContextualPreference> pref = ContextualPreference::Create(
          std::move(*c),
          AttributeClause{attr, db::CompareOp::kEq, std::move(v)}, s);
      Status st = profile.Insert(std::move(*pref));
      if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    };
    add("temperature = good", "open_air", db::Value(true), 0.8);
    add("temperature = bad", "open_air", db::Value(false), 0.75);
    add("accompanying_people = friends", "type", db::Value("brewery"), 0.9);
    add("accompanying_people = family", "type", db::Value("zoo"), 0.85);
    add("location = Athens", "type", db::Value("museum"), 0.7);
  }
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  TreeResolver resolver(&*tree);

  // A repeating workload: 200 queries over 20 distinct context states.
  std::vector<ContextState> states =
      workload::RandomQueryBatch(*poi->env, 20, 99, 0.2);
  QueryOptions options;
  options.top_k = 20;

  auto run = [&](ContextQueryTree* cache) {
    AccessCounter counter;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 200; ++i) {
      const ContextState& s = states[i % states.size()];
      std::vector<ParameterDescriptor> parts;
      for (size_t p = 0; p < poi->env->size(); ++p) {
        if (s.value(p) == poi->env->parameter(p).hierarchy().AllValue()) {
          continue;
        }
        parts.push_back(*ParameterDescriptor::Equals(*poi->env, p, s.value(p)));
      }
      ContextualQuery q;
      q.context = ExtendedDescriptor::FromComposite(
          *CompositeDescriptor::Create(*poi->env, std::move(parts)));
      if (cache != nullptr) {
        StatusOr<QueryResult> r = CachedRankCS(poi->relation, q, resolver,
                                               profile, *cache, options,
                                               &counter);
        if (!r.ok()) std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      } else {
        StatusOr<QueryResult> r =
            RankCS(poi->relation, q, resolver, options, &counter);
        if (!r.ok()) std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      }
    }
    auto end = std::chrono::steady_clock::now();
    return std::pair<double, uint64_t>(
        std::chrono::duration<double, std::milli>(end - start).count(),
        counter.cells());
  };

  auto [ms_off, cells_off] = run(nullptr);
  ContextQueryTree cache(poi->env, Ordering::Identity(poi->env->size()), 64);
  auto [ms_on, cells_on] = run(&cache);

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

int AblateConflictCheck() {
  std::printf("Ablation 3: insert-time conflict detection\n\n");
  // Build preference batches, then time (a) indexed Profile::Insert vs
  // (b) naive pairwise ConflictsWith before each insert.
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
  if (!gen.ok()) {
    std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
    return 1;
  }
  const ContextEnvironment& env = *gen->env;
  const std::vector<ContextualPreference>& prefs =
      gen->profile.preferences();

  auto t0 = std::chrono::steady_clock::now();
  Profile indexed(gen->env);
  for (const ContextualPreference& p : prefs) {
    Status st = indexed.Insert(p);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  }
  auto t1 = std::chrono::steady_clock::now();
  // Naive: pairwise Def. 6 against all previously accepted.
  std::vector<ContextualPreference> naive;
  for (const ContextualPreference& p : prefs) {
    bool conflict = false;
    for (const ContextualPreference& q : naive) {
      if (ConflictsWith(env, p, q)) {
        conflict = true;
        break;
      }
    }
    if (!conflict) naive.push_back(p);
  }
  auto t2 = std::chrono::steady_clock::now();

  std::printf("%-36s %12.2f ms\n", "state-indexed insert (library)",
              std::chrono::duration<double, std::milli>(t1 - t0).count());
  std::printf("%-36s %12.2f ms\n", "naive pairwise Def.6 check",
              std::chrono::duration<double, std::milli>(t2 - t1).count());
  std::printf("(both accepted %zu / %zu preferences)\n\n", indexed.size(),
              naive.size());
  return 0;
}

int AblateSelectionIndex() {
  std::printf("Ablation 4: Rank_CS selections, relation posting lists vs "
              "Predicate::Eval scan\n\n");
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(5000, 77);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  Profile profile(poi->env);
  {
    auto add = [&](const char* cod, const char* attr, db::Value v, double s) {
      StatusOr<CompositeDescriptor> c =
          ParseCompositeDescriptor(*poi->env, cod);
      StatusOr<ContextualPreference> pref = ContextualPreference::Create(
          std::move(*c),
          AttributeClause{attr, db::CompareOp::kEq, std::move(v)}, s);
      Status st = profile.Insert(std::move(*pref));
      if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    };
    add("accompanying_people = friends", "type", db::Value("brewery"), 0.9);
    add("accompanying_people = family", "type", db::Value("zoo"), 0.85);
    add("temperature = good", "type", db::Value("park"), 0.8);
    add("location = Athens", "type", db::Value("museum"), 0.7);
  }
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
  return 0;
}

int AblateWinnowSemantics() {
  std::printf("Ablation 5: qualitative composition semantics "
              "(union vs Pareto vs prioritized winnow)\n\n");
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(400, 88);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  auto pred = [&](const char* col, db::Value v) {
    return *db::Predicate::Create(poi->relation.schema(), col,
                                  db::CompareOp::kEq, std::move(v));
  };
  StatusOr<CompositeDescriptor> star =
      ParseCompositeDescriptor(*poi->env, "*");
  StatusOr<QualitativePreference> type_pref = QualitativePreference::Create(
      *star, {pred("type", db::Value("museum"))},
      {pred("type", db::Value("brewery"))});
  StatusOr<QualitativePreference> oa_pref = QualitativePreference::Create(
      *star, {pred("open_air", db::Value(true))},
      {pred("open_air", db::Value(false))});
  std::vector<const QualitativePreference*> prefs = {&*type_pref, &*oa_pref};

  std::vector<db::RowId> u = Winnow(poi->relation, prefs);
  std::vector<db::RowId> pareto = WinnowWith(
      poi->relation, [&](const db::Tuple& a, const db::Tuple& b) {
        return ParetoDominates(prefs, a, b);
      });
  std::vector<db::RowId> prio = WinnowWith(
      poi->relation, [&](const db::Tuple& a, const db::Tuple& b) {
        return PrioritizedDominates(prefs, a, b);
      });
  std::printf("%-28s %10s\n", "semantics", "winners");
  std::printf("%-28s %10zu\n", "union of edges", u.size());
  std::printf("%-28s %10zu\n", "Pareto composition", pareto.size());
  std::printf("%-28s %10zu\n", "prioritized (type first)", prio.size());
  std::printf("(relation: %zu rows; union ⊆ Pareto winners by "
              "construction)\n\n",
              poi->relation.size());
  return 0;
}

}  // namespace

int main() {
  std::printf("Ablation benches (design choices from DESIGN.md)\n\n");
  if (int rc = AblateOrderingOptimizer(); rc != 0) return rc;
  if (int rc = AblateQueryCache(); rc != 0) return rc;
  if (int rc = AblateConflictCheck(); rc != 0) return rc;
  if (int rc = AblateSelectionIndex(); rc != 0) return rc;
  return AblateWinnowSemantics();
}
