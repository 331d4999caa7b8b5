#include "preference/preference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "context/descriptor.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;
using ::ctxpref::testing::Pref;
using ::ctxpref::testing::TinyEnv;

class PreferenceTest : public ::testing::Test {
 protected:
  EnvironmentPtr env_ = PaperEnv();
};

TEST_F(PreferenceTest, CreateValidatesScore) {
  StatusOr<CompositeDescriptor> cod =
      ParseCompositeDescriptor(*env_, "location = Plaka");
  ASSERT_OK(cod.status());
  AttributeClause clause{"type", db::CompareOp::kEq, db::Value("museum")};
  EXPECT_TRUE(ContextualPreference::Create(*cod, clause, -0.1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ContextualPreference::Create(*cod, clause, 1.5)
                  .status()
                  .IsInvalidArgument());
  EXPECT_OK(ContextualPreference::Create(*cod, clause, 0.0).status());
  EXPECT_OK(ContextualPreference::Create(*cod, clause, 1.0).status());
}

TEST_F(PreferenceTest, RescoredValidatesScore) {
  const ContextualPreference p =
      Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8);
  EXPECT_TRUE(p.Rescored(1.5).status().IsInvalidArgument());
  EXPECT_TRUE(p.Rescored(-0.1).status().IsInvalidArgument());
  EXPECT_TRUE(p.Rescored(std::numeric_limits<double>::quiet_NaN())
                  .status()
                  .IsInvalidArgument());
  StatusOr<ContextualPreference> r = p.Rescored(0.3);
  ASSERT_OK(r.status());
  EXPECT_EQ(r->score(), 0.3);
  EXPECT_EQ(p.score(), 0.8);
  EXPECT_EQ(&r->descriptor(), &p.descriptor());
  EXPECT_EQ(&r->clause(), &p.clause());
  EXPECT_FALSE(*r == p);
  EXPECT_TRUE(*r == Pref(*env_, "location = Plaka", "name", "Acropolis", 0.3));
}

TEST_F(PreferenceTest, CreateRejectsEmptyAttribute) {
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(*env_, "*");
  EXPECT_TRUE(ContextualPreference::Create(
                  *cod, AttributeClause{"", db::CompareOp::kEq, db::Value(1.0)},
                  0.5)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PreferenceTest, StatesExpandDescriptor) {
  ContextualPreference p = Pref(
      *env_, "location = Plaka and temperature in {warm, hot}", "name",
      "Acropolis", 0.8);
  EXPECT_EQ(p.States(*env_).size(), 2u);
}

TEST_F(PreferenceTest, ToStringMatchesPaperShape) {
  ContextualPreference p =
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.9);
  EXPECT_EQ(p.ToString(*env_),
            "(accompanying_people = friends), (type = brewery), 0.900000");
}

TEST_F(PreferenceTest, ClauseToString) {
  AttributeClause c{"admission", db::CompareOp::kLe, db::Value(10.0)};
  EXPECT_EQ(c.ToString(), "admission <= 10");
}

// ---- Def. 6 conflicts ----

TEST_F(PreferenceTest, ConflictRequiresAllThreeConditions) {
  // Same clause, overlapping context, different scores: conflict.
  ContextualPreference a =
      Pref(*env_, "location = Plaka and temperature = warm", "name",
           "Acropolis", 0.8);
  ContextualPreference b =
      Pref(*env_, "location = Plaka and temperature in {warm, hot}", "name",
           "Acropolis", 0.3);
  EXPECT_TRUE(ConflictsWith(*env_, a, b));
  EXPECT_TRUE(ConflictsWith(*env_, b, a));
}

TEST_F(PreferenceTest, NoConflictWhenContextsDisjoint) {
  ContextualPreference a =
      Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8);
  ContextualPreference b =
      Pref(*env_, "location = Perama", "name", "Acropolis", 0.3);
  EXPECT_FALSE(ConflictsWith(*env_, a, b));
}

TEST_F(PreferenceTest, NoConflictWhenClausesDiffer) {
  ContextualPreference a =
      Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8);
  ContextualPreference b =
      Pref(*env_, "location = Plaka", "type", "museum", 0.3);
  EXPECT_FALSE(ConflictsWith(*env_, a, b));
  // Same attribute, different value: no conflict either.
  ContextualPreference c =
      Pref(*env_, "location = Plaka", "name", "White_Tower", 0.3);
  EXPECT_FALSE(ConflictsWith(*env_, a, c));
}

TEST_F(PreferenceTest, NoConflictWhenScoresEqual) {
  ContextualPreference a =
      Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8);
  ContextualPreference b =
      Pref(*env_, "location = Plaka and temperature = warm", "name",
           "Acropolis", 0.8);
  EXPECT_FALSE(ConflictsWith(*env_, a, b));
}

TEST_F(PreferenceTest, HierarchicalOverlapIsNotSetOverlap) {
  // (Athens, all, all) and (Plaka, all, all) denote different states;
  // Def. 6 intersects state sets literally, so no conflict even though
  // Athens covers Plaka. (Resolution handles the hierarchy; conflicts
  // are per-state.)
  ContextualPreference a =
      Pref(*env_, "location = Athens", "type", "museum", 0.9);
  ContextualPreference b =
      Pref(*env_, "location = Plaka", "type", "museum", 0.2);
  EXPECT_FALSE(ConflictsWith(*env_, a, b));
}

/// A random value of parameter `p`'s extended domain, any level.
ValueRef RandomValue(const ContextEnvironment& env, size_t p, Rng& rng) {
  const Hierarchy& h = env.parameter(p).hierarchy();
  const auto level = static_cast<LevelIndex>(rng.Uniform(h.num_levels()));
  return ValueRef{level, static_cast<ValueId>(rng.Uniform(h.level_size(level)))};
}

/// A random composite descriptor: each parameter is omitted (so it
/// takes {all}), an equality, a set mixing levels, or a range on one
/// level. All parameters omitted gives the empty descriptor.
CompositeDescriptor RandomDescriptor(const ContextEnvironment& env, Rng& rng) {
  std::vector<ParameterDescriptor> parts;
  for (size_t p = 0; p < env.size(); ++p) {
    const uint64_t kind = rng.Uniform(4);
    if (kind == 0) continue;
    const ValueRef a = RandomValue(env, p, rng);
    StatusOr<ParameterDescriptor> pd = ParameterDescriptor::Equals(env, p, a);
    if (kind == 2) {
      std::vector<ValueRef> values = {a};
      for (uint64_t k = rng.Uniform(4); k > 0; --k) {
        values.push_back(RandomValue(env, p, rng));
      }
      pd = ParameterDescriptor::Set(env, p, std::move(values));
    } else if (kind == 3) {
      const auto b = static_cast<ValueId>(
          rng.Uniform(env.parameter(p).hierarchy().level_size(a.level)));
      pd = ParameterDescriptor::Range(env, p,
                                      ValueRef{a.level, std::min(a.id, b)},
                                      ValueRef{a.level, std::max(a.id, b)});
    }
    EXPECT_TRUE(pd.ok()) << pd.status().ToString();
    parts.push_back(std::move(*pd));
  }
  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::Create(env, std::move(parts));
  EXPECT_TRUE(cod.ok()) << cod.status().ToString();
  return *cod;
}

/// Def. 6 by its letter: the same clause at another score, on a state
/// both enumerated contexts hold.
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

TEST(PreferencePropertyTest, ConflictsWithMatchesStateIntersection) {
  const std::vector<AttributeClause> clauses = {
      {"name", db::CompareOp::kEq, db::Value("Acropolis")},
      {"name", db::CompareOp::kEq, db::Value("Lycabettus")},
      {"name", db::CompareOp::kLe, db::Value("Acropolis")},
      {"type", db::CompareOp::kEq, db::Value("Acropolis")}};
  const std::vector<double> scores = {0.2, 0.5};
  for (const EnvironmentPtr& env : {TinyEnv(), PaperEnv()}) {
    Rng rng(env->size() * 7919);
    size_t conflicts = 0;
    size_t disjoint = 0;  // Same clause, other score, no shared state.
    for (int trial = 0; trial < 3000; ++trial) {
      // Mostly one clause at two scores, so the context test decides.
      const bool same = rng.Bernoulli(0.8);
      StatusOr<ContextualPreference> a = ContextualPreference::Create(
          RandomDescriptor(*env, rng), clauses[0], scores[0]);
      StatusOr<ContextualPreference> b = ContextualPreference::Create(
          RandomDescriptor(*env, rng),
          same ? clauses[0] : clauses[rng.Uniform(clauses.size())],
          same ? scores[1] : scores[rng.Uniform(scores.size())]);
      ASSERT_OK(a.status());
      ASSERT_OK(b.status());
      const bool want = ConflictsByStates(*env, *a, *b);
      EXPECT_EQ(ConflictsWith(*env, *a, *b), want)
          << a->ToString(*env) << " vs " << b->ToString(*env);
      EXPECT_EQ(ConflictsWith(*env, *b, *a), want)
          << b->ToString(*env) << " vs " << a->ToString(*env);
      conflicts += want;
      disjoint += same && !want;
    }
    // The draw must exercise both outcomes of the context test.
    EXPECT_GT(conflicts, 100u);
    EXPECT_GT(disjoint, 100u);
  }
}

TEST_F(PreferenceTest, EmptyDescriptorsMeetOnlyAtTheAllState) {
  // The empty descriptor denotes (all, all, all): it meets a
  // descriptor only where every part admits `all`.
  ContextualPreference empty = Pref(*env_, "*", "name", "Acropolis", 0.8);
  EXPECT_TRUE(ConflictsWith(
      *env_, empty, Pref(*env_, "*", "name", "Acropolis", 0.3)));
  EXPECT_TRUE(ConflictsWith(*env_, empty,
                            Pref(*env_, "location in {Plaka, all}", "name",
                                 "Acropolis", 0.3)));
  EXPECT_FALSE(ConflictsWith(
      *env_, empty, Pref(*env_, "location = Plaka", "name", "Acropolis", 0.3)));
}

TEST_F(PreferenceTest, EqualityIsStructural) {
  ContextualPreference a =
      Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8);
  ContextualPreference b =
      Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8);
  ContextualPreference c =
      Pref(*env_, "location = Plaka", "name", "Acropolis", 0.9);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace ctxpref
