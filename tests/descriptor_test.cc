#include "context/descriptor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_util.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;
using ::ctxpref::testing::State;

class DescriptorTest : public ::testing::Test {
 protected:
  EnvironmentPtr env_ = PaperEnv();
  const Hierarchy& loc() { return env_->parameter(0).hierarchy(); }
  const Hierarchy& temp() { return env_->parameter(1).hierarchy(); }
  const Hierarchy& comp() { return env_->parameter(2).hierarchy(); }
};

TEST_F(DescriptorTest, EqualsDescriptor) {
  ValueRef plaka = *loc().Find(0, "Plaka");
  StatusOr<ParameterDescriptor> pd =
      ParameterDescriptor::Equals(*env_, 0, plaka);
  ASSERT_OK(pd.status());
  EXPECT_EQ(pd->kind(), ParameterDescriptor::Kind::kEquals);
  ASSERT_EQ(pd->ContextOf().size(), 1u);
  EXPECT_EQ(pd->ContextOf()[0], plaka);
  EXPECT_EQ(pd->ToString(*env_), "location = Plaka");
}

TEST_F(DescriptorTest, EqualsRejectsBadValueAndParam) {
  EXPECT_TRUE(ParameterDescriptor::Equals(*env_, 0, ValueRef{0, 99})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParameterDescriptor::Equals(*env_, 7, ValueRef{0, 0})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DescriptorTest, SetDescriptorDeduplicates) {
  ValueRef warm = *temp().Find(0, "warm");
  ValueRef hot = *temp().Find(0, "hot");
  StatusOr<ParameterDescriptor> pd =
      ParameterDescriptor::Set(*env_, 1, {warm, hot, warm});
  ASSERT_OK(pd.status());
  EXPECT_EQ(pd->ContextOf().size(), 2u);
  EXPECT_EQ(pd->ToString(*env_), "temperature in {warm, hot}");
}

TEST_F(DescriptorTest, SetRejectsEmpty) {
  EXPECT_TRUE(
      ParameterDescriptor::Set(*env_, 1, {}).status().IsInvalidArgument());
}

TEST_F(DescriptorTest, SetMayMixLevels) {
  ValueRef warm = *temp().Find(0, "warm");
  ValueRef bad = *temp().Find(1, "bad");
  StatusOr<ParameterDescriptor> pd =
      ParameterDescriptor::Set(*env_, 1, {warm, bad});
  ASSERT_OK(pd.status());
  EXPECT_EQ(pd->ContextOf().size(), 2u);
}

TEST_F(DescriptorTest, RangeExpandsToPaperSemantics) {
  // temperature ∈ [mild, hot] = {mild, warm, hot} (paper Def. 1 example).
  ValueRef mild = *temp().Find(0, "mild");
  ValueRef hot = *temp().Find(0, "hot");
  StatusOr<ParameterDescriptor> pd =
      ParameterDescriptor::Range(*env_, 1, mild, hot);
  ASSERT_OK(pd.status());
  ASSERT_EQ(pd->ContextOf().size(), 3u);
  EXPECT_EQ(temp().value_name(pd->ContextOf()[0]), "mild");
  EXPECT_EQ(temp().value_name(pd->ContextOf()[1]), "warm");
  EXPECT_EQ(temp().value_name(pd->ContextOf()[2]), "hot");
  EXPECT_EQ(pd->ToString(*env_), "temperature in [mild, hot]");
}

TEST_F(DescriptorTest, RangeRejectsCrossLevelAndEmpty) {
  ValueRef mild = *temp().Find(0, "mild");
  ValueRef good = *temp().Find(1, "good");
  EXPECT_TRUE(ParameterDescriptor::Range(*env_, 1, mild, good)
                  .status()
                  .IsInvalidArgument());
  ValueRef hot = *temp().Find(0, "hot");
  EXPECT_TRUE(ParameterDescriptor::Range(*env_, 1, hot, mild)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DescriptorTest, SingleValueRange) {
  ValueRef warm = *temp().Find(0, "warm");
  StatusOr<ParameterDescriptor> pd =
      ParameterDescriptor::Range(*env_, 1, warm, warm);
  ASSERT_OK(pd.status());
  EXPECT_EQ(pd->ContextOf().size(), 1u);
}

TEST_F(DescriptorTest, CompositeRejectsDuplicateParameter) {
  ValueRef warm = *temp().Find(0, "warm");
  ValueRef hot = *temp().Find(0, "hot");
  std::vector<ParameterDescriptor> parts;
  parts.push_back(*ParameterDescriptor::Equals(*env_, 1, warm));
  parts.push_back(*ParameterDescriptor::Equals(*env_, 1, hot));
  EXPECT_TRUE(CompositeDescriptor::Create(*env_, std::move(parts))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DescriptorTest, PaperExampleCartesianProduct) {
  // (location = Plaka ∧ temperature ∈ {warm, hot} ∧ people = friends)
  // -> states (Plaka, warm, friends), (Plaka, hot, friends) (§3.1).
  std::vector<ParameterDescriptor> parts;
  parts.push_back(
      *ParameterDescriptor::Equals(*env_, 0, *loc().Find(0, "Plaka")));
  parts.push_back(*ParameterDescriptor::Set(
      *env_, 1, {*temp().Find(0, "warm"), *temp().Find(0, "hot")}));
  parts.push_back(
      *ParameterDescriptor::Equals(*env_, 2, *comp().Find(0, "friends")));
  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::Create(*env_, std::move(parts));
  ASSERT_OK(cod.status());
  EXPECT_EQ(cod->NumStates(), 2u);
  std::vector<ContextState> states = cod->EnumerateStates(*env_);
  ASSERT_EQ(states.size(), 2u);
  EXPECT_EQ(states[0], State(*env_, {"Plaka", "warm", "friends"}));
  EXPECT_EQ(states[1], State(*env_, {"Plaka", "hot", "friends"}));
}

TEST_F(DescriptorTest, MissingParametersBecomeAll) {
  // (temperature = warm): location and people default to all (Def. 4).
  std::vector<ParameterDescriptor> parts;
  parts.push_back(
      *ParameterDescriptor::Equals(*env_, 1, *temp().Find(0, "warm")));
  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::Create(*env_, std::move(parts));
  ASSERT_OK(cod.status());
  std::vector<ContextState> states = cod->EnumerateStates(*env_);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0], State(*env_, {"all", "warm", "all"}));
}

TEST_F(DescriptorTest, EmptyDescriptorDenotesAllState) {
  CompositeDescriptor empty;
  EXPECT_TRUE(empty.empty());
  std::vector<ContextState> states = empty.EnumerateStates(*env_);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0], ContextState::AllState(*env_));
  EXPECT_EQ(empty.ToString(*env_), "<empty>");
}

TEST_F(DescriptorTest, ExtendedDescriptorUnionsAndDeduplicates) {
  // Two disjuncts with one shared state.
  std::vector<ParameterDescriptor> p1;
  p1.push_back(*ParameterDescriptor::Set(
      *env_, 1, {*temp().Find(0, "warm"), *temp().Find(0, "hot")}));
  std::vector<ParameterDescriptor> p2;
  p2.push_back(*ParameterDescriptor::Set(
      *env_, 1, {*temp().Find(0, "hot"), *temp().Find(0, "mild")}));
  ExtendedDescriptor ecod;
  ecod.AddDisjunct(*CompositeDescriptor::Create(*env_, std::move(p1)));
  ecod.AddDisjunct(*CompositeDescriptor::Create(*env_, std::move(p2)));
  std::vector<ContextState> states = ecod.EnumerateStates(*env_);
  EXPECT_EQ(states.size(), 3u);  // warm, hot, mild — hot deduplicated.
  // First-seen order: the second disjunct's copy of hot is the one dropped.
  const char* want[] = {"warm", "hot", "mild"};
  for (size_t i = 0; i < states.size() && i < 3; ++i) {
    EXPECT_EQ(states[i].value(1), *temp().Find(0, want[i])) << i;
  }
}

TEST_F(DescriptorTest, ExtendedDescriptorToString) {
  ExtendedDescriptor empty;
  EXPECT_EQ(empty.ToString(*env_), "<empty>");
  EXPECT_TRUE(empty.EnumerateStates(*env_).empty());
}

TEST_F(DescriptorTest, NumStatesMatchesEnumerationOnBigProduct) {
  std::vector<ParameterDescriptor> parts;
  parts.push_back(*ParameterDescriptor::Range(
      *env_, 1, *temp().Find(0, "freezing"), *temp().Find(0, "hot")));
  parts.push_back(*ParameterDescriptor::Set(
      *env_, 2,
      {*comp().Find(0, "friends"), *comp().Find(0, "family"),
       *comp().Find(0, "alone")}));
  StatusOr<CompositeDescriptor> cod =
      CompositeDescriptor::Create(*env_, std::move(parts));
  ASSERT_OK(cod.status());
  EXPECT_EQ(cod->NumStates(), 15u);
  const std::vector<ContextState> states = cod->EnumerateStates(*env_);
  ASSERT_EQ(states.size(), 15u);
  // Odometer order: the last parameter turns fastest.
  for (size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(states[i].value(1), cod->parts()[0].ContextOf()[i / 3]) << i;
    EXPECT_EQ(states[i].value(2), cod->parts()[1].ContextOf()[i % 3]) << i;
  }
}

}  // namespace
}  // namespace ctxpref
