#ifndef CTXPREF_TESTS_TEST_UTIL_H_
#define CTXPREF_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "context/environment.h"
#include "context/hierarchy.h"
#include "context/parser.h"
#include "context/state.h"
#include "preference/preference.h"
#include "preference/profile.h"
#include "preference/replicated_query_cache.h"
#include "util/status.h"
#include "workload/poi_dataset.h"

namespace ctxpref::testing {

/// gtest glue: `ASSERT_OK(status_or_status_expr)`.
#define ASSERT_OK(expr) ASSERT_TRUE((expr).ok()) << (expr).ToString()
#define EXPECT_OK(expr) EXPECT_TRUE((expr).ok()) << (expr).ToString()
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                       \
  ASSERT_OK_AND_ASSIGN_IMPL(CONCAT_NAME(_sor_, __LINE__), lhs, rexpr)
#define ASSERT_OK_AND_ASSIGN_IMPL(var, lhs, rexpr)             \
  auto var = (rexpr);                                          \
  ASSERT_TRUE(var.ok()) << var.status().ToString();            \
  lhs = std::move(*var)
#define CONCAT_NAME(a, b) CONCAT_NAME_IMPL(a, b)
#define CONCAT_NAME_IMPL(a, b) a##b

/// A scratch directory path no other test shares: `TempDir()` plus
/// `prefix`, the running test's full name and the process id. ctest
/// runs every TEST in its own process and `ctest -j` runs them side by
/// side, so a fixed path would be created and `remove_all`ed by
/// concurrent tests. The caller creates and removes it.
inline std::string UniqueTempDir(const std::string& prefix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = prefix;
  if (info != nullptr) {
    name += "_";
    name += info->test_suite_name();
    name += "_";
    name += info->name();
  }
  name += "_";
  name += std::to_string(::getpid());
  // Parameterized names carry '/'; keep the path one level deep.
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + "/" + name;
}

/// The paper's Fig. 2 environment (location, temperature,
/// accompanying_people). Asserts success.
inline EnvironmentPtr PaperEnv() {
  StatusOr<EnvironmentPtr> env = workload::MakePaperEnvironment();
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  return *env;
}

/// A state from value names (any level), asserting success.
inline ContextState State(const ContextEnvironment& env,
                          std::vector<std::string> names) {
  StatusOr<ContextState> s = ContextState::FromNames(env, std::move(names));
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return *s;
}

/// A contextual preference from descriptor text + `attr = value : score`,
/// asserting success.
inline ContextualPreference Pref(const ContextEnvironment& env,
                                 const std::string& cod_text,
                                 const std::string& attr,
                                 const std::string& value, double score) {
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(env, cod_text);
  EXPECT_TRUE(cod.ok()) << cod.status().ToString();
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      AttributeClause{attr, db::CompareOp::kEq, db::Value(value)}, score);
  EXPECT_TRUE(pref.ok()) << pref.status().ToString();
  return *pref;
}

/// Options of a one-replica `ReplicatedQueryCache` — the single shared
/// cache — consumed inline at lookup, with `capacity` entries (0 =
/// unbounded) over `num_shards` shards.
inline ReplicatedQueryCache::Options SharedCache(size_t capacity = 0,
                                                 size_t num_shards = 1) {
  ReplicatedQueryCache::Options options;
  options.num_replicas = 1;
  options.capacity_per_replica = capacity;
  options.num_shards = num_shards;
  return options;
}

}  // namespace ctxpref::testing

#endif  // CTXPREF_TESTS_TEST_UTIL_H_
