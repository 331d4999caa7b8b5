// Context streaming: resilient sensors + standing queries.
//
// Simulates a user walking around Athens over a day: noisy sensors —
// wrapped in `ResilientSource` for retries, last-known-good serving
// and hierarchy-based degradation — feed the current context (paper
// §4.1's "rough values" point), a standing contextual query re-ranks
// recommendations whenever the resolved preferences change, and a
// fixed exploratory query watches how profile edits reshape a planned
// trip. Degraded acquisitions are explained inline.
//
//   $ ./context_stream

#include <cstdio>
#include <string>
#include <vector>

#include "context/parser.h"
#include "context/resilient_source.h"
#include "context/source.h"
#include "preference/continuous.h"
#include "preference/explain.h"
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

  // ---- Standing queries.
  ContinuousQueryEngine engine(&poi->relation, &*profile);
  const db::Schema& schema = poi->relation.schema();
  const size_t name_col = *schema.IndexOf("name");

  QueryOptions options;
  // Discount scores by context distance so near-exact preferences
  // dominate. The display cuts at 3 rows (TopK's paper-style tie
  // extension would show every equal-scored place).
  options.discount = ScoreDiscount::kInverseDistance;
  StatusOr<size_t> live = engine.RegisterCurrentContext(
      {}, options, [&](size_t, const QueryResult& result) {
        std::printf("  -> recommendations changed (%zu scored):\n",
                    result.tuples.size());
        for (size_t i = 0; i < result.tuples.size() && i < 3; ++i) {
          const db::ScoredTuple& t = result.tuples[i];
          std::printf("     %.2f %s\n", t.score,
                      poi->relation.row(t.row_id)[name_col].AsString().c_str());
        }
        if (result.tuples.empty()) std::printf("     (none)\n");
      });
  if (!live.ok()) {
    std::fprintf(stderr, "%s\n", live.status().ToString().c_str());
    return 1;
  }

  StatusOr<ExtendedDescriptor> trip = ParseExtendedDescriptor(
      env, "location = Thessaloniki and accompanying_people = family");
  StatusOr<size_t> planned = engine.RegisterFixed(
      *trip, {}, options, [&](size_t, const QueryResult& result) {
        std::printf("  -> planned Thessaloniki trip now ranks %zu places\n",
                    result.tuples.size());
      });
  if (!planned.ok()) {
    std::fprintf(stderr, "%s\n", planned.status().ToString().c_str());
    return 1;
  }

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
    StatusOr<size_t> fired = engine.OnContext(report.state);
    if (!fired.ok()) {
      std::fprintf(stderr, "%s\n", fired.status().ToString().c_str());
      return 1;
    }
    if (*fired == 0) std::printf("  (no change)\n");
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

  // ---- An evening profile edit re-fires the planned-trip watcher.
  std::printf("\nEditing profile: family trips should visit the zoo more\n");
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(
      env, "location = Thessaloniki and accompanying_people = family");
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      AttributeClause{"type", db::CompareOp::kEq, db::Value("zoo")}, 0.95);
  if (Status st = profile->Insert(std::move(*pref)); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  StatusOr<size_t> fired = engine.OnProfileChange();
  if (!fired.ok()) {
    std::fprintf(stderr, "%s\n", fired.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu standing quer%s updated\n", *fired,
              *fired == 1 ? "y" : "ies");
  return 0;
}
