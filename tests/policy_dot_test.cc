#include <gtest/gtest.h>

#include "preference/profile.h"
#include "preference/tree_dot.h"
#include "tests/test_util.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;
using ::ctxpref::testing::Pref;

class TreeDotTest : public ::testing::Test {
 protected:
  EnvironmentPtr env_ = PaperEnv();
};

TEST_F(TreeDotTest, EmitsWellFormedDot) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka and temperature in "
                          "{warm, hot}", "name", "Acropolis", 0.8)));
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  std::string dot = ProfileTreeToDot(*tree);

  EXPECT_NE(dot.find("digraph profile_tree {"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}"), std::string::npos);
  // Edge labels carry the keys; leaves carry clauses.
  EXPECT_NE(dot.find("label=\"Plaka\""), std::string::npos);
  EXPECT_NE(dot.find("type = brewery"), std::string::npos);
  // One DOT node per tree node.
  size_t node_count = 0;
  for (size_t pos = dot.find("  n"); pos != std::string::npos;
       pos = dot.find("  n", pos + 1)) {
    if (dot.compare(pos, 3, "  n") == 0 &&
        dot.find(" [", pos) == dot.find_first_of(" [", pos + 3)) {
      // Counting declarations (lines with [shape=...]).
    }
    ++node_count;
  }
  EXPECT_GT(node_count, tree->NodeCount());  // Declarations + edges.

  // Balanced braces and quotes.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '"') % 2, 0);
}

TEST_F(TreeDotTest, EscapesSpecialCharacters) {
  Profile p(env_);
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(*env_, "*");
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      AttributeClause{"name", db::CompareOp::kEq,
                      db::Value("say \"hi\"")},
      0.5);
  ASSERT_OK(pref.status());
  ASSERT_OK(p.Insert(std::move(*pref)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  std::string dot = ProfileTreeToDot(*tree);
  EXPECT_NE(dot.find("\\\"hi\\\""), std::string::npos);
}

}  // namespace
}  // namespace ctxpref
