// Differential tests for Rank_CS's threshold merge (`ThresholdMerge`,
// preference/threshold_merge.h). On seeded random profiles and
// relations, `RankCS` under max must equal an oracle written here: the
// same resolved clauses run as `Predicate::Eval` scans over the rows,
// every eligible (row, score) added to a `db::Ranker`, then
// `TopK`/`Ranked`. The inputs cover every `CompareOp`, restricting
// selections, coarse score grids (ties straddling k), top_k of 0, 1, k
// and beyond the row count, one and several query states, scores off
// the grid, and scores of both 0.0 and -0.0 — answers are
// compared bit for bit, since a kMax Ranker keeps the first-added
// source's bits among equal maxima. `RankCS` with a `StateCache` over the
// flat arena (miss, then hit) must equal `RankCS` over the pointer tree
// too.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "context/descriptor.h"
#include "db/predicate.h"
#include "db/ranker.h"
#include "db/relation.h"
#include "db/schema.h"
#include "preference/contextual_query.h"
#include "preference/flat_profile_tree.h"
#include "preference/profile_tree.h"
#include "preference/query_cache.h"
#include "preference/resolution.h"
#include "preference/threshold_merge.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ctxpref {
namespace {

/// place: a,b,c | X(a,b), Y(c) | ALL;  mood: happy,sad | ALL.
EnvironmentPtr SmallEnv() {
  HierarchyBuilder pb("place");
  pb.AddDetailedLevel("Spot", {"a", "b", "c"});
  pb.AddLevel("Zone", {{"X", {"a", "b"}}, {"Y", {"c"}}});
  StatusOr<HierarchyPtr> place = pb.Build();
  EXPECT_OK(place.status());
  StatusOr<HierarchyPtr> mood =
      MakeFlatHierarchy("mood", "Mood", {"happy", "sad"});
  EXPECT_OK(mood.status());
  std::vector<ContextParameter> params;
  params.emplace_back("place", *place);
  params.emplace_back("mood", *mood);
  StatusOr<EnvironmentPtr> env = ContextEnvironment::Create(std::move(params));
  EXPECT_OK(env.status());
  return *env;
}

std::vector<ContextState> AllExtendedStates(const ContextEnvironment& env) {
  std::vector<ContextState> out = {ContextState::AllState(env)};
  for (size_t p = 0; p < env.size(); ++p) {
    const Hierarchy& h = env.parameter(p).hierarchy();
    std::vector<ContextState> next;
    for (const ContextState& s : out) {
      for (LevelIndex l = 0; l < h.num_levels(); ++l) {
        for (ValueId id = 0; id < h.level_size(l); ++id) {
          ContextState t = s;
          t.set_value(p, ValueRef{l, id});
          next.push_back(std::move(t));
        }
      }
    }
    out = std::move(next);
  }
  return out;
}

/// One of the strings "p", "q", "r".
db::Value RandomLetter(Rng& rng) {
  return db::Value(std::string(1, static_cast<char>('p' + rng.Uniform(3))));
}

/// Columns n (int64 0..5), d (double, with ±0.0) and s (a few strings).
db::Relation RandomRelation(Rng& rng) {
  StatusOr<db::Schema> schema = db::Schema::Create(
      {{"n", db::ColumnType::kInt64},
       {"d", db::ColumnType::kDouble},
       {"s", db::ColumnType::kString}});
  EXPECT_OK(schema.status());
  db::Relation relation(std::move(*schema));
  // Now and then a few hundred rows, so the seen set spans several
  // 64-row words and a bulk level meets words earlier levels marked.
  const size_t rows =
      rng.Bernoulli(0.25) ? 64 + rng.Uniform(320) : rng.Uniform(40);
  for (size_t r = 0; r < rows; ++r) {
    const double d = rng.Bernoulli(0.2)
                         ? (rng.Bernoulli(0.5) ? 0.0 : -0.0)
                         : static_cast<double>(rng.Uniform(4)) * 0.5;
    EXPECT_OK(relation.Append(
        {db::Value(static_cast<int64_t>(rng.Uniform(6))), db::Value(d),
         RandomLetter(rng)}));
  }
  return relation;
}

const db::CompareOp kOps[] = {db::CompareOp::kEq, db::CompareOp::kNe,
                              db::CompareOp::kLt, db::CompareOp::kLe,
                              db::CompareOp::kGt, db::CompareOp::kGe};

/// A clause or selection over a random column with a random operator.
std::pair<std::string, db::Value> RandomOperand(Rng& rng) {
  switch (rng.Uniform(3)) {
    case 0:
      return {"n", db::Value(static_cast<int64_t>(rng.Uniform(6)))};
    case 1:
      return {"d", db::Value(rng.Bernoulli(0.3)
                                 ? -0.0
                                 : static_cast<double>(rng.Uniform(4)) * 0.5)};
    default:
      return {"s", RandomLetter(rng)};
  }
}

/// Scores on a five-point grid (heavy ties), sometimes -0.0, and
/// sometimes off the grid: a grid score divided by 2 or 3, an inexact
/// binary fraction (0.25 / 3) that still ties with its own kind.
double RandomScore(Rng& rng) {
  if (rng.Bernoulli(0.1)) return -0.0;
  const double grid = static_cast<double>(rng.Uniform(5)) * 0.25;
  if (rng.Bernoulli(0.3)) {
    return grid / static_cast<double>(2 + rng.Uniform(2));
  }
  return grid;
}

Profile RandomProfile(Rng& rng, EnvironmentPtr env,
                      const std::vector<ContextState>& world) {
  Profile profile(env);
  for (const ContextState& s : world) {
    if (!rng.Bernoulli(0.4)) continue;
    const size_t prefs = 1 + rng.Uniform(3);
    for (size_t i = 0; i < prefs; ++i) {
      StatusOr<CompositeDescriptor> cod =
          CompositeDescriptor::ForState(*env, s);
      EXPECT_OK(cod.status());
      auto [column, value] = RandomOperand(rng);
      StatusOr<ContextualPreference> pref = ContextualPreference::Create(
          std::move(*cod),
          AttributeClause{column, kOps[rng.Uniform(6)], std::move(value)},
          RandomScore(rng));
      EXPECT_OK(pref.status());
      // A conflicting duplicate is refused; the profile just skips it.
      (void)profile.Insert(std::move(*pref)).ok();
    }
  }
  return profile;
}

ContextualQuery RandomQuery(Rng& rng, const db::Relation& relation,
                            const ContextEnvironment& env,
                            const std::vector<ContextState>& world) {
  ContextualQuery query;
  const size_t disjuncts = 1 + rng.Uniform(3);
  for (size_t d = 0; d < disjuncts; ++d) {
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::ForState(env, world[rng.Uniform(world.size())]);
    EXPECT_OK(cod.status());
    query.context.AddDisjunct(std::move(*cod));
  }
  const size_t selections = rng.Uniform(3);
  for (size_t i = 0; i < selections; ++i) {
    auto [column, value] = RandomOperand(rng);
    StatusOr<db::Predicate> sel = db::Predicate::Create(
        relation.schema(), column, kOps[rng.Uniform(6)], std::move(value));
    EXPECT_OK(sel.status());
    query.selections.push_back(std::move(*sel));
  }
  return query;
}

/// One constant-score clause input of a merge.
struct ClauseInput {
  AttributeClause clause;
  double score;
};

/// The oracle: `inputs`' clauses as Eval scans into a Ranker, each
/// eligible (row, score) added in input order.
std::vector<db::ScoredTuple> OracleRank(
    const db::Relation& relation, const std::vector<ClauseInput>& inputs,
    const std::vector<db::Predicate>& selections, db::CombinePolicy combine,
    size_t top_k) {
  db::Ranker ranker(combine, relation.size());
  for (const ClauseInput& input : inputs) {
    StatusOr<db::Predicate> pred =
        db::Predicate::Create(relation.schema(), input.clause.attribute,
                              input.clause.op, input.clause.value);
    EXPECT_OK(pred.status());
    for (db::RowId row = 0; row < relation.size(); ++row) {
      if (!pred->Eval(relation.row(row))) continue;
      bool eligible = true;
      for (const db::Predicate& sel : selections) {
        eligible = eligible && sel.Eval(relation.row(row));
      }
      if (eligible) ranker.Add(row, input.score);
    }
  }
  return top_k > 0 ? ranker.TopK(top_k) : ranker.Ranked();
}

/// The oracle over the traces' clauses.
std::vector<db::ScoredTuple> OracleRank(const db::Relation& relation,
                                        const ContextualQuery& query,
                                        const QueryResult& traced,
                                        const QueryOptions& options) {
  std::vector<ClauseInput> inputs;
  for (const QueryResult::Trace& trace : traced.traces) {
    for (const CandidatePath& cand : *trace.candidates) {
      for (const ProfileTree::LeafEntry& entry : cand.entries) {
        inputs.push_back({entry.clause, entry.score});
      }
    }
  }
  return OracleRank(relation, inputs, query.selections, options.combine,
                    options.top_k);
}

/// (row, score bits): `ScoredTuple`'s == cannot tell 0.0 from -0.0.
std::vector<std::pair<db::RowId, uint64_t>> Bits(
    const std::vector<db::ScoredTuple>& tuples) {
  std::vector<std::pair<db::RowId, uint64_t>> out;
  for (const db::ScoredTuple& t : tuples) {
    out.emplace_back(t.row_id, std::bit_cast<uint64_t>(t.score));
  }
  return out;
}

class ThresholdMergeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThresholdMergeTest, RankCsEqualsRankerOracle) {
  Rng rng(GetParam());
  EnvironmentPtr env = SmallEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  for (int trial = 0; trial < 60; ++trial) {
    const db::Relation relation = RandomRelation(rng);
    const Profile profile = RandomProfile(rng, env, world);
    StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
    ASSERT_OK(tree.status());
    TreeResolver resolver(&*tree);
    for (int q = 0; q < 6; ++q) {
      const ContextualQuery query = RandomQuery(rng, relation, *env, world);
      const size_t k = 2 + rng.Uniform(4);
      for (size_t top_k : {size_t{0}, size_t{1}, k, relation.size() + 5}) {
        QueryOptions options;
        options.top_k = top_k;
        StatusOr<QueryResult> got = RankCS(relation, query, resolver, options);
        ASSERT_OK(got.status());
        EXPECT_EQ(Bits(got->tuples),
                  Bits(OracleRank(relation, query, *got, options)))
            << "seed " << GetParam() << " trial " << trial << " query " << q
            << " top_k " << top_k;
      }
    }
  }
}

TEST_P(ThresholdMergeTest, CachedMissAndHitEqualRankCs) {
  Rng rng(GetParam() + 1000);
  EnvironmentPtr env = SmallEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const std::string user = "u";
  for (int trial = 0; trial < 30; ++trial) {
    const db::Relation relation = RandomRelation(rng);
    const Profile profile = RandomProfile(rng, env, world);
    StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
    ASSERT_OK(tree.status());
    TreeResolver resolver(&*tree);
    const FlatProfileTree flat = FlatProfileTree::Build(*tree);
    FlatResolver flat_resolver(&flat);
    for (int q = 0; q < 6; ++q) {
      const ContextualQuery query = RandomQuery(rng, relation, *env, world);
      for (db::CombinePolicy combine :
           {db::CombinePolicy::kMax, db::CombinePolicy::kMin}) {
        for (size_t top_k : {size_t{0}, size_t{1}, size_t{3}}) {
          QueryOptions options;
          options.combine = combine;
          options.top_k = top_k;
          StatusOr<QueryResult> want =
              RankCS(relation, query, resolver, options);
          ASSERT_OK(want.status());
          ContextQueryTree cache;
          const StateCache state_cache{&cache, &user, 1};
          for (const char* pass : {"miss", "hit"}) {
            StatusOr<QueryResult> got = RankCS(
                relation, query, flat_resolver, options, nullptr, &state_cache);
            ASSERT_OK(got.status());
            EXPECT_EQ(Bits(got->tuples), Bits(want->tuples))
                << pass << " trial " << trial << " query " << q << " "
                << db::CombinePolicyToString(combine) << " top_k " << top_k;
          }
          EXPECT_GT(cache.hits(), 0u);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdMergeTest,
                         ::testing::Values(16001, 16002, 16003));

/// Two states score overlapping rows 0.0 and -0.0: a row on both keeps
/// the bits of the state enumerated first, as a kMax Ranker keeps the
/// first-added of equal maxima.
TEST(ThresholdMergeFixedTest, SignedZeroKeepsTheFirstSourcesBits) {
  EnvironmentPtr env = SmallEnv();
  StatusOr<db::Schema> schema =
      db::Schema::Create({{"n", db::ColumnType::kInt64}});
  ASSERT_OK(schema.status());
  db::Relation relation(std::move(*schema));
  for (int64_t n = 0; n < 4; ++n) ASSERT_OK(relation.Append({db::Value(n)}));
  const ContextState a = testing::State(*env, {"a", "happy"});
  const ContextState b = testing::State(*env, {"b", "happy"});
  Profile profile(env);
  auto insert = [&](const ContextState& s, db::CompareOp op, int64_t n,
                    double score) {
    StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(*env, s);
    ASSERT_OK(cod.status());
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod), AttributeClause{"n", op, db::Value(n)}, score);
    ASSERT_OK(pref.status());
    ASSERT_OK(profile.Insert(std::move(*pref)));
  };
  insert(a, db::CompareOp::kLe, 1, 0.0);   // Rows 0, 1 at +0.0.
  insert(b, db::CompareOp::kGe, 1, -0.0);  // Rows 1, 2, 3 at -0.0.
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);

  for (bool a_first : {true, false}) {
    ContextualQuery query;
    for (const ContextState* s : a_first ? std::vector{&a, &b}
                                         : std::vector{&b, &a}) {
      StatusOr<CompositeDescriptor> cod =
          CompositeDescriptor::ForState(*env, *s);
      ASSERT_OK(cod.status());
      query.context.AddDisjunct(std::move(*cod));
    }
    for (size_t top_k : {size_t{0}, size_t{1}}) {
      QueryOptions options;
      options.top_k = top_k;
      StatusOr<QueryResult> got = RankCS(relation, query, resolver, options);
      ASSERT_OK(got.status());
      // All four rows tie at zero, so top_k = 1 keeps them all too.
      ASSERT_EQ(got->tuples.size(), 4u);
      for (const db::ScoredTuple& t : got->tuples) {
        const bool negative = t.row_id >= 2 || (t.row_id == 1 && !a_first);
        EXPECT_EQ(std::signbit(t.score), negative)
            << "row " << t.row_id << " a_first " << a_first;
      }
      EXPECT_EQ(Bits(got->tuples),
                Bits(OracleRank(relation, query, *got, options)));
      ContextQueryTree cache;
      const std::string user = "u";
      const StateCache state_cache{&cache, &user, 1};
      for (int pass = 0; pass < 2; ++pass) {
        StatusOr<QueryResult> cached = RankCS(relation, query, flat_resolver,
                                              options, nullptr, &state_cache);
        ASSERT_OK(cached.status());
        EXPECT_EQ(Bits(cached->tuples), Bits(got->tuples)) << "pass " << pass;
      }
    }
  }
}

/// The merge stops after the level that reaches k — never inside it —
/// and reads no level below.
TEST(ThresholdMergeFixedTest, StopsAfterTheTieRunOfTheKthScore) {
  StatusOr<db::Schema> schema =
      db::Schema::Create({{"n", db::ColumnType::kInt64}});
  ASSERT_OK(schema.status());
  db::Relation relation(std::move(*schema));
  for (int64_t n = 0; n < 8; ++n) {
    ASSERT_OK(relation.Append({db::Value(n % 4)}));
  }
  // Rows by n: 0 -> {0, 4}, 1 -> {1, 5}, 2 -> {2, 6}, 3 -> {3, 7}.
  const AttributeClause n0{"n", db::CompareOp::kEq, db::Value(int64_t{0})};
  const AttributeClause n_le1{"n", db::CompareOp::kLe, db::Value(int64_t{1})};
  const AttributeClause n3{"n", db::CompareOp::kEq, db::Value(int64_t{3})};
  std::vector<ScoredSource> sources;
  for (const auto& [clause, score] :
       {std::pair{&n0, 0.9}, std::pair{&n_le1, 0.5}, std::pair{&n3, 0.1}}) {
    StatusOr<ScoredSource> s = ScoredSource::Clause(relation, *clause, score);
    ASSERT_OK(s.status());
    sources.push_back(*s);
  }
  uint64_t visited = 0;
  // k = 3: level 0.9 gives rows 0, 4; level 0.5 adds 1, 5 (0, 4 already
  // out) and closes the answer at four rows, tie run included.
  const std::vector<db::ScoredTuple> want = {
      {0, 0.9}, {4, 0.9}, {1, 0.5}, {5, 0.5}};
  EXPECT_EQ(ThresholdMerge(relation, sources, {}, 3, &visited), want);
  EXPECT_EQ(visited, 2u + 4u) << "the 0.1 level must not be read";
  EXPECT_EQ(ThresholdMerge(relation, sources, {}, 0).size(), 6u);
}

/// Columns n and m (int64); row r holds n_of(r) and m_of(r).
template <typename N, typename M>
db::Relation NumberedRelation(size_t rows, N n_of, M m_of) {
  StatusOr<db::Schema> schema = db::Schema::Create(
      {{"n", db::ColumnType::kInt64}, {"m", db::ColumnType::kInt64}});
  EXPECT_OK(schema.status());
  db::Relation relation(std::move(*schema));
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_OK(relation.Append({db::Value(static_cast<int64_t>(n_of(r))),
                               db::Value(static_cast<int64_t>(m_of(r)))}));
  }
  return relation;
}

AttributeClause IntClause(const char* column, db::CompareOp op, int64_t v) {
  return AttributeClause{column, op, db::Value(v)};
}

db::Predicate IntSelection(const db::Relation& relation, const char* column,
                           db::CompareOp op, int64_t v) {
  StatusOr<db::Predicate> sel =
      db::Predicate::Create(relation.schema(), column, op, db::Value(v));
  EXPECT_OK(sel.status());
  return *sel;
}

/// One source per input, in input order; `inputs` must outlive them.
std::vector<ScoredSource> SourcesOf(const db::Relation& relation,
                                    const std::vector<ClauseInput>& inputs) {
  std::vector<ScoredSource> sources;
  for (const ClauseInput& input : inputs) {
    StatusOr<ScoredSource> s =
        ScoredSource::Clause(relation, input.clause, input.score);
    EXPECT_OK(s.status());
    if (s.ok()) sources.push_back(*s);
  }
  return sources;
}

/// `ThresholdMerge` over `inputs`, checked bit for bit against the
/// Ranker oracle; returns the rows it read.
uint64_t MergeMatchesOracle(const db::Relation& relation,
                            const std::vector<ClauseInput>& inputs,
                            const std::vector<db::Predicate>& selections,
                            size_t top_k) {
  const std::vector<ScoredSource> sources = SourcesOf(relation, inputs);
  uint64_t visited = 0;
  const std::vector<db::ScoredTuple> got =
      ThresholdMerge(relation, sources, selections, top_k, &visited);
  EXPECT_EQ(Bits(got), Bits(OracleRank(relation, inputs, selections,
                                       db::CombinePolicy::kMax, top_k)))
      << "top_k " << top_k;
  return visited;
}

/// Level 0.9 marks rows 0..49 (part of the first seen word); the bulk
/// level n = 0 at 0.5 then tests rows one by one in that word and
/// copies the three words above it whole; level n = 1 at 0.2 meets a
/// marked word everywhere.
TEST(ThresholdMergeFixedTest, BulkLevelAfterALevelThatMarkedRows) {
  const db::Relation relation =
      NumberedRelation(200, [](size_t r) { return r % 3; },
                       [](size_t r) { return r / 50; });
  const std::vector<ClauseInput> inputs = {
      {IntClause("m", db::CompareOp::kEq, 0), 0.9},
      {IntClause("n", db::CompareOp::kEq, 0), 0.5},
      {IntClause("n", db::CompareOp::kEq, 1), 0.2}};
  // Posting sizes: m = 0 holds 50 rows, n = 0 and n = 1 hold 67 each.
  EXPECT_EQ(MergeMatchesOracle(relation, inputs, {}, 0), 50u + 67u + 67u);
  EXPECT_EQ(MergeMatchesOracle(relation, inputs, {}, 1), 50u);
  EXPECT_EQ(MergeMatchesOracle(relation, inputs, {}, 60), 50u + 67u);

  const std::vector<ScoredSource> sources = SourcesOf(relation, inputs);
  const std::vector<db::ScoredTuple> got =
      ThresholdMerge(relation, sources, {}, 60);
  // Rows 0..49 at 0.9, then the 50 rows r % 3 == 0 from 51 to 198.
  ASSERT_EQ(got.size(), 100u);
  for (size_t i = 0; i < got.size(); ++i) {
    const db::RowId want = i < 50 ? i : 51 + 3 * (i - 50);
    EXPECT_EQ(got[i], (db::ScoredTuple{want, i < 50 ? 0.9 : 0.5}));
  }
}

/// One kEq clause twice at 0.0 and -0.0: the second is skipped and the
/// first source's bits are kept, alone on its level or merged with a
/// third source sharing it.
TEST(ThresholdMergeFixedTest, RepeatedClauseAtSignedZeroKeepsTheFirstBits) {
  const db::Relation relation =
      NumberedRelation(12, [](size_t r) { return r % 3; },
                       [](size_t r) { return r % 4; });
  const AttributeClause n1 = IntClause("n", db::CompareOp::kEq, 1);
  const AttributeClause n2 = IntClause("n", db::CompareOp::kEq, 2);
  for (double first : {0.0, -0.0}) {
    const double second = -first;
    for (size_t top_k : {size_t{0}, size_t{1}}) {
      EXPECT_EQ(MergeMatchesOracle(relation, {{n1, first}, {n1, second}}, {},
                                   top_k),
                4u);
      EXPECT_EQ(MergeMatchesOracle(relation,
                                   {{n1, first}, {n2, second}, {n1, second}},
                                   {}, top_k),
                8u);
    }
    const std::vector<ClauseInput> inputs = {{n1, first}, {n1, second}};
    const std::vector<ScoredSource> sources = SourcesOf(relation, inputs);
    for (const db::ScoredTuple& t : ThresholdMerge(relation, sources, {}, 0)) {
      EXPECT_EQ(std::signbit(t.score), std::signbit(first)) << t.row_id;
    }
  }
}

/// One kEq clause at 0.8 and at 0.3 (either order), n = 2 at 0.6 between
/// them: the 0.3 copy is never read, with or without a selection that
/// rejects some or all of the clause's rows.
TEST(ThresholdMergeFixedTest, SameClauseAtAHigherAndALowerScore) {
  // n = 1 holds rows 1, 4, 7, 10; n = 2 holds 2, 5, 8, 11.
  const db::Relation relation =
      NumberedRelation(12, [](size_t r) { return r % 3; },
                       [](size_t r) { return r % 4; });
  const AttributeClause n1 = IntClause("n", db::CompareOp::kEq, 1);
  const AttributeClause n2 = IntClause("n", db::CompareOp::kEq, 2);
  const std::vector<std::vector<ClauseInput>> orders = {
      {{n1, 0.3}, {n2, 0.6}, {n1, 0.8}}, {{n1, 0.8}, {n2, 0.6}, {n1, 0.3}}};
  for (const std::vector<ClauseInput>& inputs : orders) {
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, {}, 0), 8u);
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, {}, 1), 4u);
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, {}, 5), 8u);
    // m != 1 rejects rows 1 and 5: each level keeps three rows.
    const std::vector<db::Predicate> some = {
        IntSelection(relation, "m", db::CompareOp::kNe, 1)};
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, some, 0), 8u);
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, some, 1), 4u);
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, some, 5), 8u);
    // n != 1 rejects the whole 0.8 level, so top_k 1 reads on to 0.6.
    const std::vector<db::Predicate> all = {
        IntSelection(relation, "n", db::CompareOp::kNe, 1)};
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, all, 0), 8u);
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, all, 1), 8u);
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, all, 5), 8u);
  }
}

/// A truth-table clause and two posting lists share level 0.5, after a
/// level that marked rows 0..49.
TEST(ThresholdMergeFixedTest, NonEqAndEqClausesShareALevel) {
  const db::Relation relation =
      NumberedRelation(200, [](size_t r) { return r % 3; },
                       [](size_t r) { return r / 50; });
  const std::vector<ClauseInput> inputs = {
      {IntClause("m", db::CompareOp::kEq, 0), 0.9},
      {IntClause("n", db::CompareOp::kGe, 1), 0.5},
      {IntClause("n", db::CompareOp::kEq, 0), 0.5},
      {IntClause("m", db::CompareOp::kEq, 3), 0.5}};
  // Rows read: 50 + 133 (n >= 1) + 67 (n = 0) + 50 (m = 3).
  for (const std::vector<db::Predicate>& selections :
       {std::vector<db::Predicate>{},
        std::vector<db::Predicate>{
            IntSelection(relation, "m", db::CompareOp::kNe, 2)}}) {
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, selections, 0), 300u);
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, selections, 1), 50u);
    EXPECT_EQ(MergeMatchesOracle(relation, inputs, selections, 120), 300u);
  }
}

/// The identical-clause skip is max-only: kAvg and kMin still combine
/// both copies, and read both.
TEST(ThresholdMergeFixedTest, DuplicatedClauseStillCountsUnderAvgAndMin) {
  const db::Relation relation =
      NumberedRelation(12, [](size_t r) { return r % 3; },
                       [](size_t r) { return r % 4; });
  const AttributeClause n1 = IntClause("n", db::CompareOp::kEq, 1);
  const std::vector<ClauseInput> inputs = {{n1, 0.8}, {n1, 0.2}};
  const std::vector<ScoredSource> sources = SourcesOf(relation, inputs);
  for (const auto& [combine, score, reads] :
       {std::tuple{db::CombinePolicy::kAvg, 0.5, 8u},
        std::tuple{db::CombinePolicy::kMin, 0.2, 8u},
        std::tuple{db::CombinePolicy::kMax, 0.8, 4u}}) {
    uint64_t scored = 0;
    const std::vector<db::ScoredTuple> got =
        RankSources(relation, sources, {}, combine, 0, &scored);
    EXPECT_EQ(Bits(got), Bits(OracleRank(relation, inputs, {}, combine, 0)))
        << db::CombinePolicyToString(combine);
    ASSERT_EQ(got.size(), 4u);
    for (const db::ScoredTuple& t : got) EXPECT_EQ(t.score, score);
    EXPECT_EQ(scored, reads) << db::CombinePolicyToString(combine);
  }
}

}  // namespace
}  // namespace ctxpref
