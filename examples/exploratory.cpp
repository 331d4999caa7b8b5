// Exploratory queries: extended context descriptors (§4.1, Def. 8).
//
// The paper motivates querying *hypothetical* contexts: "When I travel
// to Athens with my family this summer (implying good weather), what
// places should I visit?". This example parses such disjunctive
// descriptors from text, runs them through Rank_CS, and contrasts the
// Hierarchy and Jaccard distances on a query with multiple covers.
// It also demonstrates the context query tree (result caching) and the
// observability layer: a traced query rendered as a span tree.
//
//   $ ./exploratory

#include <cstdio>

#include "context/parser.h"
#include "preference/contextual_query.h"
#include "preference/explain.h"
#include "preference/flat_profile_tree.h"
#include "preference/profile_tree.h"
#include "preference/query_cache.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workload/default_profiles.h"
#include "workload/poi_dataset.h"

using namespace ctxpref;

namespace {

void PrintTop(const workload::PoiDatabase& poi, const QueryResult& result,
              size_t limit) {
  const db::Schema& schema = poi.relation.schema();
  const size_t name_col = *schema.IndexOf("name");
  const size_t type_col = *schema.IndexOf("type");
  size_t shown = 0;
  for (const db::ScoredTuple& t : result.tuples) {
    if (shown++ == limit) break;
    const db::Tuple& row = poi.relation.row(t.row_id);
    std::printf("    %.2f  %-32s %s\n", t.score,
                row[name_col].AsString().c_str(),
                row[type_col].AsString().c_str());
  }
}

}  // namespace

int main() {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(150, 99);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  const ContextEnvironment& env = *poi->env;

  StatusOr<Profile> profile = workload::MakeDefaultProfile(
      poi->env, workload::AgeGroup::kUnder30, workload::Sex::kMale,
      workload::Taste::kMainstream);
  StatusOr<ProfileTree> tree = ProfileTree::Build(*profile);
  TreeResolver resolver(&*tree);

  // ---- 1. "Athens with family this summer" — a disjunction of two
  //         hypothetical day plans, straight from text.
  const char* ecod_text =
      "(location = Athens and temperature = good and "
      " accompanying_people = family) or "
      "(location = Thessaloniki and temperature in {warm, hot} and "
      " accompanying_people = family)";
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(env, ecod_text);
  if (!ecod.ok()) {
    std::fprintf(stderr, "parse: %s\n", ecod.status().ToString().c_str());
    return 1;
  }
  std::printf("Exploratory descriptor:\n  %s\n", ecod->ToString(env).c_str());
  std::printf("  denotes %zu context state(s)\n\n",
              ecod->EnumerateStates(env).size());

  ContextualQuery query;
  query.context = *ecod;
  QueryOptions options;
  options.top_k = 8;
  StatusOr<QueryResult> result =
      RankCS(poi->relation, query, resolver, options);
  if (!result.ok()) {
    std::fprintf(stderr, "rank: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("Family trip recommendations:\n");
  PrintTop(*poi, *result, 8);

  // ---- 2. Hierarchy vs Jaccard on a multi-cover query (§4.3).
  StatusOr<ContextState> q =
      ContextState::FromNames(env, {"Plaka", "warm", "friends"});
  std::printf("\nMulti-cover resolution for %s:\n", q->ToString(env).c_str());
  for (DistanceKind kind : {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    ResolutionOptions ropts;
    ropts.distance = kind;
    std::vector<CandidatePath> best = resolver.ResolveBest(*q, ropts);
    std::printf("  %s picks %zu candidate(s):\n", DistanceKindToString(kind),
                best.size());
    for (const CandidatePath& c : best) {
      std::printf("    %s (dist %.3f)\n", c.state.ToString(env).c_str(),
                  c.distance);
    }
  }

  // ---- 3. The context query tree: repeated exploratory queries hit
  //         the cache; a profile edit makes its entries miss.
  //         The cached path resolves through the arena-flattened
  //         profile tree, built straight from the profile as a publish
  //         builds it.
  const FlatProfileTree flat = FlatProfileTree::Build(*profile);
  FlatResolver flat_resolver(&flat);
  ContextQueryTree cache(/*capacity=*/64);
  const std::string user;  // One profile: the single-user key "".
  const StateCache first_version{&cache, &user, profile->version()};
  for (int round = 0; round < 3; ++round) {
    StatusOr<QueryResult> cached = RankCS(poi->relation, query, flat_resolver,
                                          options, nullptr, &first_version);
    if (!cached.ok()) {
      std::fprintf(stderr, "cached: %s\n",
                   cached.status().ToString().c_str());
      return 1;
    }
  }
  const CacheStats warm = cache.Stats();
  std::printf("\nQuery cache after 3 identical queries: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(warm.hits),
              static_cast<unsigned long long>(warm.misses));

  // Edit the profile -> version bump -> cached entries go stale.
  StatusOr<CompositeDescriptor> cod =
      ParseCompositeDescriptor(env, "accompanying_people = family");
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      AttributeClause{"type", db::CompareOp::kEq, db::Value("theater")}, 0.7);
  if (Status st = profile->Insert(std::move(*pref)); !st.ok()) {
    std::fprintf(stderr, "insert: %s\n", st.ToString().c_str());
    return 1;
  }
  // Rebuild the index for the new profile version.
  const FlatProfileTree fresh_flat = FlatProfileTree::Build(*profile);
  FlatResolver fresh_resolver(&fresh_flat);
  const StateCache fresh_version{&cache, &user, profile->version()};
  StatusOr<QueryResult> after = RankCS(poi->relation, query, fresh_resolver,
                                       options, nullptr, &fresh_version);
  const CacheStats edited = cache.Stats();
  std::printf("After a profile edit: %llu hits, %llu misses "
              "(entries of the old version miss and are recomputed)\n",
              static_cast<unsigned long long>(edited.hits),
              static_cast<unsigned long long>(edited.misses));

  // ---- 4. Where did the time go? Trace one cached query (a warm run:
  //         every state is served from the cache) and render the span
  //         tree. Timing is opt-in, so latencies are zero until the
  //         flag is set.
  MetricsRegistry::SetTimingEnabled(true);
  TraceRecorder recorder(/*capacity=*/256);
  recorder.Install();
  StatusOr<QueryResult> traced = RankCS(poi->relation, query, fresh_resolver,
                                        options, nullptr, &fresh_version);
  recorder.Uninstall();
  MetricsRegistry::SetTimingEnabled(false);
  if (!traced.ok()) {
    std::fprintf(stderr, "traced: %s\n", traced.status().ToString().c_str());
    return 1;
  }
  std::printf("\nTrace of one warm cached query:\n%s",
              ExplainTrace(recorder.Events()).c_str());
  return 0;
}
