#include <gtest/gtest.h>

#include "context/validate.h"
#include "tests/test_util.h"
#include "workload/synthetic_hierarchy.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;

class ValidateTest : public ::testing::Test {};

TEST_F(ValidateTest, PaperEnvironmentIsSound) {
  EnvironmentPtr env = PaperEnv();
  EXPECT_OK(ValidateEnvironment(*env, /*require_monotone=*/true));
}

TEST_F(ValidateTest, SyntheticHierarchiesAreSound) {
  for (size_t levels : {1u, 2u, 3u}) {
    StatusOr<HierarchyPtr> h =
        workload::MakeSyntheticHierarchy("h", 60, levels, 5);
    ASSERT_OK(h.status());
    EXPECT_OK(ValidateHierarchyInvariants(**h, true)) << levels;
  }
}

TEST_F(ValidateTest, NonMonotoneDetectedOnlyWhenRequired) {
  HierarchyBuilder b("h");
  b.AddDetailedLevel("L0", {"a", "b"});
  b.AddLevel("L1", {{"p", {"b"}}, {"q", {"a"}}});
  b.set_require_monotone(false);
  StatusOr<HierarchyPtr> h = b.Build();
  ASSERT_OK(h.status());
  EXPECT_OK(ValidateHierarchyInvariants(**h, /*require_monotone=*/false));
  EXPECT_TRUE(ValidateHierarchyInvariants(**h, /*require_monotone=*/true)
                  .IsCorruption());
}

}  // namespace
}  // namespace ctxpref
