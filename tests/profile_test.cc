#include "preference/profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "preference/ordering.h"
#include "preference/profile_tree.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;
using ::ctxpref::testing::Pref;

class ProfileTest : public ::testing::Test {
 protected:
  EnvironmentPtr env_ = PaperEnv();
};

TEST_F(ProfileTest, InsertAndIterate) {
  Profile p(env_);
  EXPECT_TRUE(p.empty());
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8)));
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.9)));
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.preference(0).score(), 0.8);
}

TEST_F(ProfileTest, VersionBumpsOnMutation) {
  Profile p(env_);
  const uint64_t v0 = p.version();
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8)));
  EXPECT_GT(p.version(), v0);
  const uint64_t v1 = p.version();
  ASSERT_OK(p.Remove(0));
  EXPECT_GT(p.version(), v1);
}

TEST_F(ProfileTest, DetectsConflictOnInsert) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka and temperature = warm",
                          "name", "Acropolis", 0.8)));
  Status st = p.Insert(Pref(*env_, "location = Plaka and temperature = warm",
                            "name", "Acropolis", 0.3));
  EXPECT_TRUE(st.IsConflict()) << st.ToString();
  EXPECT_EQ(p.size(), 1u);  // Unchanged.
}

TEST_F(ProfileTest, ConflictViaPartialStateOverlap) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "temperature in {warm, hot}", "type",
                          "park", 0.9)));
  // Overlaps on (all, hot, all) only.
  Status st = p.Insert(
      Pref(*env_, "temperature in {hot, freezing}", "type", "park", 0.2));
  EXPECT_TRUE(st.IsConflict());
}

TEST_F(ProfileTest, DuplicateInsertIsAlreadyExists) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8)));
  Status st = p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8));
  EXPECT_TRUE(st.IsAlreadyExists());
  EXPECT_EQ(p.size(), 1u);
}

TEST_F(ProfileTest, SameClauseSameScoreDifferentContextIsFine) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8)));
  EXPECT_OK(p.Insert(
      Pref(*env_, "location = Kifisia", "name", "Acropolis", 0.8)));
}

TEST_F(ProfileTest, RemoveOutOfRange) {
  Profile p(env_);
  EXPECT_TRUE(p.Remove(0).IsOutOfRange());
}

TEST_F(ProfileTest, RemoveThenReinsertNoConflict) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8)));
  ASSERT_OK(p.Remove(0));
  EXPECT_TRUE(p.empty());
  // The old preference no longer blocks a rescored one.
  EXPECT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.3)));
}

TEST_F(ProfileTest, UpdateScoreRescores) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8)));
  ASSERT_OK(p.UpdateScore(0, 0.4));
  EXPECT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p.preference(0).score(), 0.4);
}

TEST_F(ProfileTest, UpdateScoreConflictRollsBack) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8)));
  ASSERT_OK(p.Insert(Pref(*env_, "location = Athens", "type", "museum", 0.9)));
  // Rescoring pref 1 to collide with... actually create the collision:
  // insert a third preference that would collide with a rescore.
  ASSERT_OK(p.Insert(
      Pref(*env_, "location = Plaka and temperature = warm", "name",
           "Acropolis", 0.8)));
  // Rescore pref 2 (Plaka∧warm Acropolis) to 0.5: conflicts with pref 0
  // at state (Plaka, warm->no...). Pref 0 covers state (Plaka, all, all),
  // pref 2 covers (Plaka, warm, all): no shared state, so OK.
  EXPECT_OK(p.UpdateScore(2, 0.5));
  // Now rescore pref 0 to 0.2; no state overlap with pref 2 either: OK.
  EXPECT_OK(p.UpdateScore(0, 0.2));
  // Build a genuine rollback case: two prefs sharing a state.
  Profile q(env_);
  ASSERT_OK(q.Insert(Pref(*env_, "temperature = warm", "type", "park", 0.9)));
  ASSERT_OK(q.Insert(
      Pref(*env_, "temperature in {warm, hot}", "type", "park", 0.9)));
  // Rescoring pref 0 to 0.5 collides with pref 1 at (all, warm, all).
  Status st = q.UpdateScore(0, 0.5);
  EXPECT_TRUE(st.IsConflict());
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.preference(0).score(), 0.9);  // Rolled back.
}

TEST_F(ProfileTest, CopySharesBodiesAndRescoreLeavesOriginal) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "Acropolis", 0.8)));
  ASSERT_OK(p.Insert(Pref(*env_, "temperature = warm", "type", "park", 0.9)));
  ASSERT_OK(p.Insert(
      Pref(*env_, "temperature in {warm, hot}", "type", "park", 0.9)));
  const std::string text = p.ToText();
  const uint64_t version = p.version();

  Profile copy = p;
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(&copy.preference(i).descriptor(), &p.preference(i).descriptor());
    EXPECT_EQ(&copy.preference(i).clause(), &p.preference(i).clause());
  }

  // The rescored preference keeps its index and its body.
  ASSERT_OK(copy.UpdateScore(0, 0.4));
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(&copy.preference(i).descriptor(), &p.preference(i).descriptor());
    EXPECT_EQ(&copy.preference(i).clause(), &p.preference(i).clause());
  }
  EXPECT_EQ(copy.preference(0).score(), 0.4);
  EXPECT_EQ(copy.version(), version + 1);
  EXPECT_EQ(p.ToText(), text);
  EXPECT_EQ(p.version(), version);

  // Rescoring the warm park preference collides with the {warm, hot}
  // one at (all, warm, all); the copy keeps its text.
  const std::string copy_text = copy.ToText();
  EXPECT_TRUE(copy.UpdateScore(1, 0.5).IsConflict());
  EXPECT_EQ(copy.ToText(), copy_text);
  EXPECT_EQ(p.ToText(), text);
}

TEST_F(ProfileTest, UpdateScoreMatchesEraseAndReinsert) {
  // A rescore replaces the preference at its index. It accepts and
  // refuses as erase + reinsert of the rescored preference would,
  // keeping the old profile when the reinsert conflicts (and merging
  // into an equal stored preference, which cannot exist: it would share
  // every state and the clause of the one rescored, so the two would
  // conflict or be equal). A reference profile decides through Remove
  // and Insert, and on success is rebuilt by Insert with the rescored
  // preference at the old index. Descriptors that share states, two
  // clauses and three scores make conflicting rescores common.
  const std::vector<std::string> cods = {
      "location = Plaka",
      "location in {Plaka, Kifisia}",
      "location in {Kifisia, Monastiraki}",
      "location = Monastiraki",
      "temperature = warm",
      "temperature in {warm, hot}",
      "location = Plaka and temperature = warm",
      "location in {Plaka, Kifisia} and temperature in {warm, hot}"};
  const std::vector<std::string> names = {"Acropolis", "Lycabettus"};
  const std::vector<double> scores = {0.2, 0.5, 0.8};
  Rng rng(2024);
  auto random_pref = [&] {
    return Pref(*env_, cods[rng.Uniform(cods.size())], "name",
                names[rng.Uniform(names.size())],
                scores[rng.Uniform(scores.size())]);
  };
  auto expect_same = [](const Status& a, const Status& b,
                        const std::string& where) {
    EXPECT_EQ(a.code(), b.code()) << where << ": " << a.ToString()
                                  << " vs " << b.ToString();
    EXPECT_EQ(a.message(), b.message()) << where;
  };

  Profile profile(env_);
  for (int i = 0; i < 24; ++i) (void)profile.Insert(random_pref());
  Profile reference = profile;
  uint64_t version = profile.version();
  size_t conflicts = 0;

  for (int step = 0; step < 400; ++step) {
    const std::string where = "step " + std::to_string(step);
    // Mostly valid indices and scores, sometimes out of range.
    const size_t index = rng.Uniform(reference.size() + 1);
    const double score =
        rng.Bernoulli(0.05) ? 1.5 : scores[rng.Uniform(scores.size())];

    const Status got = profile.UpdateScore(index, score);
    Status want;
    if (index >= reference.size()) {
      want = Status::OutOfRange("preference index " + std::to_string(index) +
                                " out of range");
    } else {
      const ContextualPreference& old = reference.preference(index);
      StatusOr<ContextualPreference> rescored = ContextualPreference::Create(
          old.descriptor(), old.clause(), score);
      if (!rescored.ok()) {
        want = rescored.status();
      } else {
        Profile erased = reference;
        ASSERT_OK(erased.Remove(index));
        want = erased.Insert(*rescored);
        if (want.IsAlreadyExists()) want = Status::OK();
        if (want.IsConflict()) ++conflicts;
        if (want.ok()) {
          Profile replaced(env_);
          for (size_t i = 0; i < reference.size(); ++i) {
            ASSERT_OK(replaced.Insert(i == index ? *rescored
                                                 : reference.preference(i)))
                << where;
          }
          reference = std::move(replaced);
          ++version;
        }
      }
    }
    expect_same(got, want, where);
    ASSERT_EQ(profile.version(), version) << where;
    ASSERT_EQ(profile.size(), reference.size()) << where;
    for (size_t i = 0; i < profile.size(); ++i) {
      ASSERT_TRUE(profile.preference(i) == reference.preference(i))
          << where << " preference " << i << ": "
          << profile.preference(i).ToString(*env_) << " vs "
          << reference.preference(i).ToString(*env_);
    }
    // Both answer later inserts alike.
    for (int probe = 0; probe < 4; ++probe) {
      const ContextualPreference pref = random_pref();
      Profile a = profile;
      Profile b = reference;
      expect_same(a.Insert(pref), b.Insert(pref), where + " probe");
    }
    // Keep the profile from draining: refill with random inserts.
    if (reference.size() < 6) {
      const ContextualPreference pref = random_pref();
      const Status inserted = profile.Insert(pref);
      expect_same(inserted, reference.Insert(pref), where + " refill");
      if (inserted.ok()) ++version;
    }
  }
  // The draw must exercise the rollback.
  EXPECT_GT(conflicts, 0u);
}

TEST_F(ProfileTest, ConflictsMatchPointerTreeOracle) {
  // `Profile` checks Def. 6 with `ConflictsWith`; the pointer
  // `ProfileTree` checks it at its leaves on insert (paper §3.3). Over
  // random Insert/UpdateScore/Remove sequences, a tree holding every
  // stored preference (but the one rescored) must reject the new
  // preference exactly when the profile reports a Conflict, and name
  // the same state: the first of the new preference's states holding
  // a rival entry. That state lies in the new preference's context and
  // in that of a stored preference with its clause at another score.
  const std::vector<std::string> cods = {
      "*",
      "location = Plaka",
      "location in {Plaka, Kifisia, Athens}",
      "location = Athens",
      "temperature in [cold, warm]",
      "temperature in {warm, good, all}",
      "location in {Plaka, all} and temperature = warm",
      "location in {Plaka, Kifisia} and temperature in {warm, hot} and "
      "accompanying_people = friends",
      "temperature = warm and accompanying_people in {friends, family}"};
  const std::vector<std::string> names = {"Acropolis", "Lycabettus"};
  const std::vector<double> scores = {0.2, 0.5, 0.8};
  Rng rng(77);
  auto random_pref = [&] {
    return Pref(*env_, cods[rng.Uniform(cods.size())], "name",
                names[rng.Uniform(names.size())],
                scores[rng.Uniform(scores.size())]);
  };
  // "... at state (Plaka, warm, all): ..." -> "(Plaka, warm, all)".
  auto named_state = [](const std::string& message) {
    const size_t begin = message.find("at state (");
    const size_t end = message.find("): ", begin);
    if (begin == std::string::npos || end == std::string::npos) return message;
    return message.substr(begin + 9, end + 1 - (begin + 9));
  };
  auto holds = [&](const ContextualPreference& pref, const std::string& state) {
    for (const ContextState& s : pref.States(*env_)) {
      if (s.ToString(*env_) == state) return true;
    }
    return false;
  };
  size_t conflicts = 0;
  // `got` is the profile's answer to adding `pref` to `before`, less
  // the preference at `skip`.
  auto check = [&](const Profile& before, const ContextualPreference& pref,
                   size_t skip, const Status& got, const std::string& where) {
    ProfileTree tree(env_, Ordering::Identity(env_->size()));
    for (size_t i = 0; i < before.size(); ++i) {
      if (i != skip) {
        ASSERT_OK(tree.Insert(before.preference(i)));
      }
    }
    const Status want = tree.Insert(pref);
    ASSERT_EQ(got.IsConflict(), want.IsConflict())
        << where << ": " << got.ToString() << " vs " << want.ToString();
    if (!got.IsConflict()) return;
    ++conflicts;
    const std::string state = named_state(got.message());
    EXPECT_EQ(state, named_state(want.message())) << where;
    EXPECT_TRUE(holds(pref, state)) << where << ": " << got.ToString();
    bool rival = false;
    for (size_t i = 0; i < before.size(); ++i) {
      const ContextualPreference& q = before.preference(i);
      rival |= i != skip && q.clause() == pref.clause() &&
               q.score() != pref.score() && holds(q, state);
    }
    EXPECT_TRUE(rival) << where << ": " << got.ToString();
  };

  Profile profile(env_);
  for (int step = 0; step < 600; ++step) {
    const std::string where = "step " + std::to_string(step);
    const Profile before = profile;
    const uint64_t op = rng.Uniform(10);
    Status got;
    if (op < 5 || profile.empty()) {
      const ContextualPreference pref = random_pref();
      got = profile.Insert(pref);
      check(before, pref, SIZE_MAX, got, where + " insert");
    } else if (op < 8) {
      const size_t index = rng.Uniform(profile.size());
      const double score = scores[rng.Uniform(scores.size())];
      got = profile.UpdateScore(index, score);
      StatusOr<ContextualPreference> rescored = ContextualPreference::Create(
          before.preference(index).descriptor(),
          before.preference(index).clause(), score);
      ASSERT_OK(rescored.status());
      check(before, *rescored, index, got, where + " rescore");
    } else {
      got = profile.Remove(rng.Uniform(profile.size()));
      ASSERT_OK(got);
    }
    if (!got.ok()) {
      EXPECT_EQ(profile.ToText(), before.ToText()) << where;
    }
  }
  EXPECT_GT(conflicts, 20u);
}

TEST_F(ProfileTest, FlattenExpandsAllStates) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka and temperature in "
                          "{warm, hot}", "name", "Acropolis", 0.8)));
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.9)));
  std::vector<Profile::StateEntry> flat = p.Flatten();
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].pref_index, 0u);
  EXPECT_EQ(flat[2].pref_index, 1u);
  EXPECT_EQ(flat[2].score, 0.9);
}

TEST_F(ProfileTest, TextRoundTrip) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka and temperature in "
                          "{warm, hot}", "name", "Acropolis", 0.8)));
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.9)));
  ASSERT_OK(p.Insert(Pref(*env_, "*", "type", "museum", 0.6)));
  std::string text = p.ToText();
  StatusOr<Profile> q = Profile::FromText(env_, text);
  ASSERT_OK(q.status());
  EXPECT_EQ(q->size(), p.size());
  EXPECT_EQ(q->ToText(), text);
}

TEST_F(ProfileTest, FromTextTypedAgainstSchema) {
  StatusOr<db::Schema> schema = workload::MakePoiSchema();
  ASSERT_OK(schema.status());
  const std::string text =
      "pref: temperature = good => open_air = true : 0.8\n"
      "pref: location = Plaka => admission <= 10 : 0.7\n";
  StatusOr<Profile> p = Profile::FromText(env_, text, &*schema);
  ASSERT_OK(p.status());
  EXPECT_EQ(p->preference(0).clause().value.type(), db::ColumnType::kBool);
  EXPECT_EQ(p->preference(1).clause().value.type(), db::ColumnType::kDouble);
  EXPECT_EQ(p->preference(1).clause().op, db::CompareOp::kLe);
}

TEST_F(ProfileTest, FromTextInfersTypesWithoutSchema) {
  const std::string text =
      "pref: * => count = 5 : 0.5\n"
      "pref: * => ratio = 2.5 : 0.5\n"
      "pref: * => flag = true : 0.5\n"
      "pref: * => name = Acropolis : 0.5\n";
  StatusOr<Profile> p = Profile::FromText(env_, text);
  ASSERT_OK(p.status());
  EXPECT_EQ(p->preference(0).clause().value.type(), db::ColumnType::kInt64);
  EXPECT_EQ(p->preference(1).clause().value.type(), db::ColumnType::kDouble);
  EXPECT_EQ(p->preference(2).clause().value.type(), db::ColumnType::kBool);
  EXPECT_EQ(p->preference(3).clause().value.type(), db::ColumnType::kString);
}

TEST_F(ProfileTest, FromTextMalformedLines) {
  EXPECT_TRUE(Profile::FromText(env_, "garbage\n").status().IsCorruption());
  EXPECT_TRUE(Profile::FromText(env_, "pref: location = Plaka\n")
                  .status()
                  .IsCorruption());  // No '=>'.
  EXPECT_TRUE(Profile::FromText(env_, "pref: * => name Acropolis : 0.5\n")
                  .status()
                  .IsCorruption());  // No operator.
  EXPECT_TRUE(Profile::FromText(env_, "pref: * => name = X : high\n")
                  .status()
                  .IsCorruption());  // Bad score.
  // Unknown value: surfaced as line-level corruption with the cause
  // embedded in the message.
  Status st =
      Profile::FromText(env_, "pref: location = Mars => name = X : 0.5\n")
          .status();
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("Mars"), std::string::npos);
}

TEST_F(ProfileTest, FromTextSkipsCommentsAndBlanks) {
  const std::string text =
      "# header\n"
      "\n"
      "pref: * => name = X : 0.5\n"
      "   # indented comment\n";
  StatusOr<Profile> p = Profile::FromText(env_, text);
  ASSERT_OK(p.status());
  EXPECT_EQ(p->size(), 1u);
}

TEST_F(ProfileTest, FromTextDetectsConflicts) {
  const std::string text =
      "pref: location = Plaka => name = X : 0.5\n"
      "pref: location = Plaka => name = X : 0.9\n";
  EXPECT_TRUE(Profile::FromText(env_, text).status().IsConflict());
}

}  // namespace
}  // namespace ctxpref
