// End-to-end integration: the full production pipeline a deployment
// would run — context model from a spec file, user profiles in a
// store, data from CSV, indexed Rank_CS with caching, explanations,
// and persistence round trips — all in one scenario.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "context/parser.h"
#include "context/source.h"
#include "db/csv.h"
#include "preference/explain.h"
#include "preference/query_cache.h"
#include "preference/replicated_query_cache.h"
#include "storage/env_spec.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "workload/default_profiles.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;
using ::ctxpref::testing::UniqueTempDir;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = UniqueTempDir("ctxpref_integration");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(IntegrationTest, FullPipeline) {
  // ---- 1. Context model: write a spec file, load it back.
  StatusOr<EnvironmentPtr> built = workload::MakePaperEnvironment();
  ASSERT_OK(built.status());
  const std::string spec_path = dir_ + "/env.spec";
  ASSERT_OK(storage::WriteEnvironmentSpecFile(**built, spec_path));
  StatusOr<EnvironmentPtr> env = storage::ReadEnvironmentSpecFile(spec_path);
  ASSERT_OK(env.status());

  // ---- 2. Database: generate POIs, round-trip through CSV.
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(120, 42);
  ASSERT_OK(poi.status());
  const std::string csv_path = dir_ + "/pois.csv";
  ASSERT_OK(db::WriteCsvFile(poi->relation, csv_path));
  StatusOr<db::Schema> schema = workload::MakePoiSchema();
  ASSERT_OK(schema.status());
  StatusOr<db::Relation> relation =
      db::LoadCsvFile(std::move(*schema), csv_path);
  ASSERT_OK(relation.status());
  ASSERT_EQ(relation->size(), poi->relation.size());

  // ---- 3. Users: default profiles in a store; one user edits.
  storage::ProfileStore store(*env);
  StatusOr<std::vector<Profile>> defaults = workload::AllDefaultProfiles(*env);
  ASSERT_OK(defaults.status());
  int user_num = 0;
  for (Profile& p : *defaults) {
    ASSERT_OK(store.CreateUser("user" + std::to_string(user_num++),
                               std::move(p)));
  }
  ASSERT_EQ(store.size(), 12u);

  // Edits go through the copy-on-write path: the draft is mutated off
  // to the side and published as a new snapshot.
  ASSERT_OK(store.UpdateUser("user0", [&](Profile& p) {
    CTXPREF_RETURN_IF_ERROR(
        p.Insert(Pref(**env, "temperature = good", "open_air", "x", 0.0)));
    // The same clause at another score on those states is a Def. 6
    // conflict: refused, and the draft is unchanged.
    const Status conflict =
        p.Insert(Pref(**env, "temperature = good", "open_air", "x", 0.5));
    EXPECT_TRUE(conflict.IsConflict()) << conflict.ToString();
    return p.Insert(Pref(
        **env, "location = Kolonaki and accompanying_people = friends",
        "type", "gallery", 0.95));
  }));
  // The profile lives in user0's snapshot: hold a pin on it.
  StatusOr<storage::SnapshotPtr> pinned = store.GetSnapshot("user0");
  ASSERT_OK(pinned.status());
  const Profile& alice = (*pinned)->profile();

  // ---- 4. Query with the cache; explanations line up. The pinned
  // snapshot's pointer tree answers uncached (the oracle) and its flat
  // arena serves the cached path.
  TreeResolver resolver(&(*pinned)->tree());
  FlatResolver flat_resolver((*pinned)->flat_tree());
  ContextQueryTree cache(32);

  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      **env,
      "location = Kolonaki and temperature = warm and "
      "accompanying_people = friends");
  ASSERT_OK(ecod.status());
  ContextualQuery query;
  query.context = *ecod;
  QueryOptions options;
  options.top_k = 10;

  StatusOr<QueryResult> direct = RankCS(*relation, query, resolver, options);
  ASSERT_OK(direct.status());
  ASSERT_FALSE(direct->tuples.empty());

  const std::string user;
  const StateCache state_cache{&cache, &user, alice.version()};
  StatusOr<QueryResult> cached1 = RankCS(*relation, query, flat_resolver,
                                         options, nullptr, &state_cache);
  StatusOr<QueryResult> cached2 = RankCS(*relation, query, flat_resolver,
                                         options, nullptr, &state_cache);
  ASSERT_OK(cached1.status());
  ASSERT_OK(cached2.status());
  EXPECT_EQ(cached1->tuples, direct->tuples);
  EXPECT_EQ(cached2->tuples, direct->tuples);
  EXPECT_GE(cache.hits(), 1u);

  // The serving layer answers the same query by pinning user0's
  // current snapshot, through a one-replica cache the store feeds via
  // its coherence log (attached to an already populated store); its
  // entries are tagged with the snapshot's serving version. A second
  // serve hits.
  ReplicatedQueryCache replicas(*env, Ordering::Identity((*env)->size()),
                                testing::SharedCache());
  store.AttachCoherenceLog(&replicas.log());
  StatusOr<storage::ServedQuery> served = storage::ServeQuery(
      store, "user0", *relation, query, &replicas, options);
  ASSERT_OK(served.status());
  EXPECT_EQ(served->result.tuples, direct->tuples);
  StatusOr<storage::ServedQuery> served_again = storage::ServeQuery(
      store, "user0", *relation, query, &replicas, options);
  ASSERT_OK(served_again.status());
  EXPECT_EQ(served_again->result.tuples, direct->tuples);
  EXPECT_GE(replicas.Stats().hits, 1u);
  store.AttachCoherenceLog(nullptr);
  EXPECT_EQ(served->snapshot->user_id(), "user0");

  // The top tuple has at least one contribution whose clause it
  // satisfies, and the text names the matched state.
  const db::RowId top = direct->tuples.front().row_id;
  std::vector<Contribution> why = ExplainTuple(*direct, *relation, top);
  ASSERT_FALSE(why.empty());
  std::string text = ExplainTupleText(*direct, *relation, **env, top);
  EXPECT_NE(text.find("covering query"), std::string::npos);

  // ---- 5. Persist everything; reload; same answers.
  ASSERT_OK(store.SaveAll(dir_));
  StatusOr<storage::ProfileStore> reloaded =
      storage::ProfileStore::LoadDir(*env, dir_);
  ASSERT_OK(reloaded.status());
  ASSERT_EQ(reloaded->size(), 12u);
  StatusOr<storage::SnapshotPtr> reloaded_pin = reloaded->GetSnapshot("user0");
  ASSERT_OK(reloaded_pin.status());
  TreeResolver reloaded_resolver(&(*reloaded_pin)->tree());
  StatusOr<QueryResult> after =
      RankCS(*relation, query, reloaded_resolver, options);
  ASSERT_OK(after.status());
  EXPECT_EQ(after->tuples, direct->tuples);
}

TEST_F(IntegrationTest, SensorsToRankedAnswer) {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(80, 7);
  ASSERT_OK(poi.status());
  const ContextEnvironment& env = *poi->env;
  StatusOr<Profile> profile = workload::MakeDefaultProfile(
      poi->env, workload::AgeGroup::kOver50, workload::Sex::kFemale,
      workload::Taste::kMainstream);
  ASSERT_OK(profile.status());
  StatusOr<ProfileTree> tree = ProfileTree::Build(*profile);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  // Coarse sensors (the paper's §4.1 limited-accuracy case).
  CurrentContext current(poi->env);
  const Hierarchy& loc = env.parameter(0).hierarchy();
  ASSERT_OK(current.AddSource(std::make_unique<NoisySensorSource>(
      env, 0, *loc.Find(0, "Plaka"), /*coarseness=*/1.0, /*dropout=*/0.0,
      /*seed=*/5)));
  StatusOr<ContextState> sensed = current.Snapshot();
  ASSERT_OK(sensed.status());
  EXPECT_GT(sensed->value(0).level, 0);  // Definitely coarse.

  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::ForState(env, *sensed);
  ASSERT_OK(cod.status());
  ContextualQuery query;
  query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
  StatusOr<QueryResult> result = RankCS(poi->relation, query, resolver);
  ASSERT_OK(result.status());
  // A coarse context still resolves (covering states exist: the
  // default profile has city/country/all-level preferences).
  EXPECT_FALSE(result->traces.empty());
}

}  // namespace
}  // namespace ctxpref
