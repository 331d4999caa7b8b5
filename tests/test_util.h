#ifndef CTXPREF_TESTS_TEST_UTIL_H_
#define CTXPREF_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "context/environment.h"
#include "context/hierarchy.h"
#include "context/parser.h"
#include "context/state.h"
#include "preference/preference.h"
#include "preference/profile.h"
#include "preference/replicated_query_cache.h"
#include "preference/resolution.h"
#include "util/crc32.h"
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

/// A tiny two-parameter environment, small enough to enumerate:
///   place: a,b,c | X(a,b), Y(c) | ALL      (6 extended values)
///   mood:  happy,sad | ALL                  (3 extended values)
inline EnvironmentPtr TinyEnv() {
  HierarchyBuilder pb("place");
  pb.AddDetailedLevel("Spot", {"a", "b", "c"});
  pb.AddLevel("Zone", {{"X", {"a", "b"}}, {"Y", {"c"}}});
  StatusOr<HierarchyPtr> place = pb.Build();
  EXPECT_TRUE(place.ok());
  StatusOr<HierarchyPtr> mood =
      MakeFlatHierarchy("mood", "Mood", {"happy", "sad"});
  EXPECT_TRUE(mood.ok());
  std::vector<ContextParameter> params;
  params.emplace_back("place", *place);
  params.emplace_back("mood", *mood);
  StatusOr<EnvironmentPtr> env = ContextEnvironment::Create(std::move(params));
  EXPECT_TRUE(env.ok());
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
/// unbounded).
inline ReplicatedQueryCache::Options SharedCache(size_t capacity = 0) {
  ReplicatedQueryCache::Options options;
  options.num_replicas = 1;
  options.capacity_per_replica = capacity;
  return options;
}

/// Expects two resolvers' best sets to hold the same winning states at
/// distances within 1e-9, in the same (ascending state) order.
inline void ExpectSameWinners(const ContextEnvironment& env,
                              const std::vector<CandidatePath>& a,
                              const std::vector<CandidatePath>& b) {
  std::map<ContextState, double> a_map, b_map;
  for (const CandidatePath& c : a) a_map.emplace(c.state, c.distance);
  for (const CandidatePath& c : b) b_map.emplace(c.state, c.distance);
  ASSERT_EQ(a_map.size(), a.size());  // No duplicate winners.
  ASSERT_EQ(b_map.size(), b.size());
  ASSERT_EQ(a_map.size(), b_map.size());
  for (const auto& [state, distance] : a_map) {
    auto it = b_map.find(state);
    ASSERT_TRUE(it != b_map.end()) << state.ToString(env);
    EXPECT_NEAR(distance, it->second, 1e-9) << state.ToString(env);
  }
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].state, b[i].state) << "winner " << i;
  }
}

/// Rewrites the trailing CRC of a serialized profile file (magic,
/// payload, little-endian CRC32 of the payload) over its payload, so an
/// edited payload reaches the structural parser.
inline std::string Reseal(std::string bytes) {
  const uint32_t crc =
      Crc32(std::string_view(bytes).substr(4, bytes.size() - 8));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>(crc >> (8 * i));
  }
  return bytes;
}

}  // namespace ctxpref::testing

#endif  // CTXPREF_TESTS_TEST_UTIL_H_
