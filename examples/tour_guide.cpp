// Tour guide: the paper's §2 motivating application.
//
// Loads a synthetic Athens/Thessaloniki POI database, assigns the user
// a default profile (§5.1 scheme), and answers "what should I visit
// right now?" — a contextual query whose descriptor is the user's
// current context — ranking POIs by resolved preference scores.
//
//   $ ./tour_guide [current_region] [weather] [company]
//   e.g. ./tour_guide Plaka warm friends

#include <cstdio>
#include <string>

#include "preference/contextual_query.h"
#include "preference/profile_tree.h"
#include "workload/default_profiles.h"
#include "workload/poi_dataset.h"

using namespace ctxpref;

int main(int argc, char** argv) {
  const std::string region = argc > 1 ? argv[1] : "Plaka";
  const std::string weather = argc > 2 ? argv[2] : "warm";
  const std::string company = argc > 3 ? argv[3] : "friends";

  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(120, 17);
  if (!poi.ok()) {
    std::fprintf(stderr, "poi: %s\n", poi.status().ToString().c_str());
    return 1;
  }
  const ContextEnvironment& env = *poi->env;

  // A 30-something, out-of-the-beaten-track user.
  StatusOr<Profile> profile = workload::MakeDefaultProfile(
      poi->env, workload::AgeGroup::k30To50, workload::Sex::kFemale,
      workload::Taste::kOffbeat);
  if (!profile.ok()) {
    std::fprintf(stderr, "profile: %s\n",
                 profile.status().ToString().c_str());
    return 1;
  }

  StatusOr<ProfileTree> tree = ProfileTree::Build(*profile);
  if (!tree.ok()) {
    std::fprintf(stderr, "tree: %s\n", tree.status().ToString().c_str());
    return 1;
  }
  TreeResolver resolver(&*tree);

  // The current context, as sensed by the device (implicit context,
  // §4.1): one state at the detailed level.
  StatusOr<ContextState> now =
      ContextState::FromNames(env, {region, weather, company});
  if (!now.ok()) {
    std::fprintf(stderr, "context: %s\n", now.status().ToString().c_str());
    return 1;
  }
  std::printf("Current context: %s\n", now->ToString(env).c_str());
  std::printf("Profile: %zu preferences; tree %s, %zu cells\n\n",
              profile->size(), tree->ordering().ToString(env).c_str(),
              tree->CellCount());

  // Wrap the current state as a contextual query.
  std::vector<ParameterDescriptor> parts;
  for (size_t i = 0; i < env.size(); ++i) {
    StatusOr<ParameterDescriptor> pd =
        ParameterDescriptor::Equals(env, i, now->value(i));
    if (!pd.ok()) {
      std::fprintf(stderr, "%s\n", pd.status().ToString().c_str());
      return 1;
    }
    parts.push_back(std::move(*pd));
  }
  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::Create(env, std::move(parts));
  ContextualQuery query;
  query.context = ExtendedDescriptor::FromComposite(std::move(*cod));

  QueryOptions options;
  options.top_k = 10;
  StatusOr<QueryResult> result =
      RankCS(poi->relation, query, resolver, options);
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // Traceability (§5.1): show which preference states were applied.
  for (const QueryResult::Trace& trace : result->traces) {
    std::printf("Resolved %s via:\n", trace.query_state.ToString(env).c_str());
    for (const CandidatePath& c : *trace.candidates) {
      std::printf("  %s (dist %.2f)\n", c.state.ToString(env).c_str(),
                  c.distance);
      for (const ProfileTree::LeafEntry& e : c.entries) {
        std::printf("    %s : %.2f\n", e.clause.ToString().c_str(), e.score);
      }
    }
  }

  std::printf("\nTop recommendations:\n");
  const db::Schema& schema = poi->relation.schema();
  const size_t name_col = *schema.IndexOf("name");
  const size_t type_col = *schema.IndexOf("type");
  const size_t loc_col = *schema.IndexOf("location");
  for (const db::ScoredTuple& t : result->tuples) {
    const db::Tuple& row = poi->relation.row(t.row_id);
    std::printf("  %.2f  %-32s %-20s %s\n", t.score,
                row[name_col].AsString().c_str(),
                row[type_col].AsString().c_str(),
                row[loc_col].AsString().c_str());
  }
  if (result->tuples.empty()) {
    std::printf("  (no applicable preferences for this context)\n");
  }
  return 0;
}
