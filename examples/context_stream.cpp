// Context streaming: resilient sensors feeding Rank_CS.
//
// Simulates a user walking around Athens over a day: noisy sensors —
// wrapped in `ResilientSource` for retries, last-known-good serving
// and hierarchy-based degradation — feed the current context (paper
// §4.1's "rough values" point). Each sensed snapshot becomes a
// contextual query ranked with `RankCS`, and the recommendations are
// printed whenever the ranked answer changes. Degraded acquisitions
// are explained inline.
//
//   $ ./context_stream

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "context/resilient_source.h"
#include "context/source.h"
#include "preference/contextual_query.h"
#include "preference/explain.h"
#include "preference/profile_tree.h"
#include "workload/default_profiles.h"
#include "workload/poi_dataset.h"

using namespace ctxpref;

int main() {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(120, 31);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  const ContextEnvironment& env = *poi->env;
  StatusOr<Profile> profile = workload::MakeDefaultProfile(
      poi->env, workload::AgeGroup::kUnder30, workload::Sex::kMale,
      workload::Taste::kOffbeat);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }

  // ---- Sensors: location is GPS-grade (exact region), weather comes
  //      from a flaky forecast service (often city-level coarse). Both
  //      go through a ResilientSource: failed reads retry with backoff,
  //      then serve the last known good value, lifting it one hierarchy
  //      level per staleness window until it reaches `all`.
  const Hierarchy& loc = env.parameter(0).hierarchy();
  const Hierarchy& weather = env.parameter(1).hierarchy();
  auto location_sensor = std::make_unique<NoisySensorSource>(
      env, 0, *loc.Find(0, "Plaka"), /*coarseness=*/0.2, /*dropout=*/0.05,
      /*seed=*/1);
  auto weather_sensor = std::make_unique<NoisySensorSource>(
      env, 1, *weather.Find(0, "warm"), /*coarseness=*/0.5, /*dropout=*/0.65,
      /*seed=*/2);
  NoisySensorSource* location_raw = location_sensor.get();
  NoisySensorSource* weather_raw = weather_sensor.get();

  util::FakeClock clock;  // Scripted time: two hours pass between readings.
  SourcePolicy policy;
  policy.max_attempts = 2;
  policy.stale_ttl_micros = 3'000'000;
  policy.lift_window_micros = 3'000'000;

  CurrentContext current(poi->env);
  if (Status st = current.AddSource(std::make_unique<ResilientSource>(
          env, std::move(location_sensor), policy, &clock, /*seed=*/11));
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = current.AddSource(std::make_unique<ResilientSource>(
          env, std::move(weather_sensor), policy, &clock, /*seed=*/12));
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  // Companion entered manually on the phone.
  const Hierarchy& company = env.parameter(2).hierarchy();
  auto companion = std::make_unique<StaticSource>(2, *company.Find(0, "friends"));
  StaticSource* companion_raw = companion.get();
  if (Status st = current.AddSource(std::move(companion)); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // ---- Ranking: the profile's tree answers every sensed snapshot.
  StatusOr<ProfileTree> tree = ProfileTree::Build(*profile);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  TreeResolver resolver(&*tree);
  const db::Schema& schema = poi->relation.schema();
  const size_t name_col = *schema.IndexOf("name");

  std::optional<std::vector<db::ScoredTuple>> last;  // Last answer shown.

  // ---- A day of context changes.
  struct Step {
    const char* when;
    const char* region;
    const char* weather;
    const char* company;
  };
  const Step day[] = {
      {"09:00", "Plaka", "mild", "alone"},
      {"11:00", "Plaka", "warm", "friends"},
      {"13:00", "Monastiraki", "hot", "friends"},
      {"15:00", "Monastiraki", "hot", "friends"},  // No change expected.
      {"18:00", "Kolonaki", "mild", "family"},
      {"21:00", "Kolonaki", "cold", "family"},
  };
  for (const Step& step : day) {
    location_raw->set_true_value(*loc.Find(0, step.region));
    weather_raw->set_true_value(*weather.Find(0, step.weather));
    companion_raw->set_value(*company.Find(0, step.company));
    clock.Advance(2'000'000);  // "Two hours" in scripted seconds.
    SnapshotReport report = current.SnapshotWithReport();
    std::printf("%s sensed %s\n", step.when,
                report.state.ToString(env).c_str());
    if (!report.fully_fresh()) {
      // Tell the user *why* the context is coarser than expected.
      std::printf("%s", ExplainAcquisition(env, report).c_str());
    }
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::ForState(env, report.state);
    if (!cod.ok()) {
      std::fprintf(stderr, "%s\n", cod.status().ToString().c_str());
      return 1;
    }
    ContextualQuery query;
    query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
    // Default options: scores as stated, every scored place returned.
    StatusOr<QueryResult> result = RankCS(poi->relation, query, resolver);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    if (last == result->tuples) {
      std::printf("  (no change)\n");
      continue;
    }
    last = result->tuples;
    std::printf("  -> recommendations changed (%zu scored):\n",
                last->size());
    // The display cuts at 3 rows (TopK's paper-style tie extension
    // would show every equal-scored place).
    for (size_t i = 0; i < last->size() && i < 3; ++i) {
      const db::ScoredTuple& t = (*last)[i];
      std::printf("     %.2f %s\n", t.score,
                  poi->relation.row(t.row_id)[name_col].AsString().c_str());
    }
    if (last->empty()) std::printf("     (none)\n");
  }

  const AcquisitionStats acq = current.counters().Snapshot();
  std::printf(
      "\nAcquisition health: %llu reads, %llu fresh, %llu retried, "
      "%llu stale/lifted, %llu absent\n",
      static_cast<unsigned long long>(acq.reads),
      static_cast<unsigned long long>(acq.fresh),
      static_cast<unsigned long long>(acq.retried),
      static_cast<unsigned long long>(acq.stale + acq.stale_lifted),
      static_cast<unsigned long long>(acq.absent));

  return 0;
}
