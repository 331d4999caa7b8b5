// Tests for the scenario-config parser: strict rejection of malformed
// input, defaults, and the Format -> Parse round-trip contract.

#include "harness/scenario_config.h"

#include <gtest/gtest.h>

#include <string>

namespace ctxpref::harness {
namespace {

TEST(ScenarioConfigTest, DefaultsParseFromEmptyText) {
  StatusOr<ScenarioConfig> cfg = ParseScenarioConfig("");
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  EXPECT_EQ(*cfg, ScenarioConfig{});
}

TEST(ScenarioConfigTest, ParsesKeysCommentsAndBlankLines) {
  StatusOr<ScenarioConfig> cfg = ParseScenarioConfig(
      "# a scenario\n"
      "name = flash_crowd-2\n"
      "\n"
      "users = 8          # inline comment\n"
      "profile_skew = zipf\n"
      "profile_zipf_a = 1.5\n"
      "exact_fraction = 0.25\n"
      "distance = jaccard\n"
      "deadline_micros = 5000\n"
      "cache_hit_service_micros = 100\n"
      "seed = 7\n"
      "ablation.cache = off\n"
      "ablation.shed = on\n");
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  EXPECT_EQ(cfg->name, "flash_crowd-2");
  EXPECT_EQ(cfg->users, 8u);
  EXPECT_EQ(cfg->profile_skew, SkewKind::kZipf);
  EXPECT_DOUBLE_EQ(cfg->exact_fraction, 0.25);
  EXPECT_EQ(cfg->distance, DistanceKind::kJaccard);
  EXPECT_EQ(cfg->deadline_micros, 5000);
  EXPECT_EQ(cfg->cache_hit_service_micros, 100);
  EXPECT_EQ(cfg->seed, 7u);
  EXPECT_FALSE(cfg->ablation.cache);
  EXPECT_TRUE(cfg->ablation.shed);
  EXPECT_TRUE(cfg->ablation.resilience);  // Untouched flags stay on.
}

TEST(ScenarioConfigTest, RejectsUnknownKey) {
  StatusOr<ScenarioConfig> cfg = ParseScenarioConfig("uzers = 4\n");
  ASSERT_FALSE(cfg.ok());
  EXPECT_TRUE(cfg.status().IsInvalidArgument());
  EXPECT_NE(cfg.status().message().find("unknown key"), std::string::npos)
      << cfg.status().ToString();
  EXPECT_NE(cfg.status().message().find("line 1"), std::string::npos);
}

// The copy-on-write write path and the Jaccard tie-break are the only
// semantics; a file still asking to switch either off fails closed.
TEST(ScenarioConfigTest, RejectsRemovedAblationFlags) {
  for (const std::string flag : {"cow", "tie_break"}) {
    StatusOr<ScenarioConfig> cfg =
        ParseScenarioConfig("users = 4\nablation." + flag + " = off\n");
    ASSERT_FALSE(cfg.ok()) << flag;
    EXPECT_TRUE(cfg.status().IsInvalidArgument()) << cfg.status().ToString();
    EXPECT_NE(cfg.status().message().find("line 2"), std::string::npos)
        << cfg.status().ToString();
    EXPECT_NE(cfg.status().message().find("unknown ablation flag"),
              std::string::npos)
        << cfg.status().ToString();
  }
}

TEST(ScenarioConfigTest, RejectsBadEnumValue) {
  StatusOr<ScenarioConfig> cfg =
      ParseScenarioConfig("profile_skew = gaussian\n");
  ASSERT_FALSE(cfg.ok());
  EXPECT_TRUE(cfg.status().IsInvalidArgument());
  EXPECT_NE(cfg.status().message().find("uniform|zipf"), std::string::npos);

  cfg = ParseScenarioConfig("distance = euclidean\n");
  ASSERT_FALSE(cfg.ok());
  EXPECT_NE(cfg.status().message().find("hierarchy|jaccard"),
            std::string::npos);
}

TEST(ScenarioConfigTest, RejectsNegativeRate) {
  StatusOr<ScenarioConfig> cfg =
      ParseScenarioConfig("update_rate = -0.1\n");
  ASSERT_FALSE(cfg.ok());
  EXPECT_TRUE(cfg.status().IsInvalidArgument());
  EXPECT_NE(cfg.status().message().find(">= 0"), std::string::npos);
  // Non-finite values fail closed on a probability and on a 1e9-capped
  // rate alike (NaN passes both range comparisons).
  for (const char* key : {"update_rate", "arrival_rate_qps"}) {
    for (const char* value : {"nan", "-nan", "inf"}) {
      const std::string text = std::string(key) + " = " + value + "\n";
      StatusOr<ScenarioConfig> bad = ParseScenarioConfig(text);
      ASSERT_FALSE(bad.ok()) << text;
      EXPECT_TRUE(bad.status().IsInvalidArgument()) << text;
      EXPECT_NE(bad.status().message().find("finite"), std::string::npos)
          << text;
    }
  }
}

TEST(ScenarioConfigTest, RejectsProbabilityAboveOne) {
  StatusOr<ScenarioConfig> cfg =
      ParseScenarioConfig("sensor_dropout = 1.5\n");
  ASSERT_FALSE(cfg.ok());
  EXPECT_NE(cfg.status().message().find("probability"), std::string::npos);
  for (const char* value : {"nan", "-nan", "inf"}) {
    const std::string text = std::string("sensor_dropout = ") + value + "\n";
    StatusOr<ScenarioConfig> bad = ParseScenarioConfig(text);
    ASSERT_FALSE(bad.ok()) << text;
    EXPECT_NE(bad.status().message().find("finite"), std::string::npos)
        << text;
  }
  // A rate capped at 1e9 is not a probability; its message says so.
  StatusOr<ScenarioConfig> rate =
      ParseScenarioConfig("arrival_rate_qps = 2e9\n");
  ASSERT_FALSE(rate.ok());
  EXPECT_NE(rate.status().message().find("<= 1e9"), std::string::npos);
  EXPECT_EQ(rate.status().message().find("probability"), std::string::npos);
}

TEST(ScenarioConfigTest, RejectsDuplicateKey) {
  StatusOr<ScenarioConfig> cfg =
      ParseScenarioConfig("users = 4\nusers = 8\n");
  ASSERT_FALSE(cfg.ok());
  EXPECT_NE(cfg.status().message().find("duplicate key"), std::string::npos);
  EXPECT_NE(cfg.status().message().find("line 2"), std::string::npos);
}

TEST(ScenarioConfigTest, RejectsZeroWherePositiveRequired) {
  EXPECT_FALSE(ParseScenarioConfig("users = 0\n").ok());
  EXPECT_FALSE(ParseScenarioConfig("ops = 0\n").ok());
  EXPECT_FALSE(ParseScenarioConfig("service_micros = 0\n").ok());
  // cache_capacity and deadline_micros legitimately allow 0.
  EXPECT_TRUE(ParseScenarioConfig("cache_capacity = 0\n").ok());
  EXPECT_TRUE(ParseScenarioConfig("deadline_micros = 0\n").ok());
}

TEST(ScenarioConfigTest, RejectsSizesAboveTheirBound) {
  // Each case is one past its key's bound, or far past it; the error
  // names the key instead of surfacing later as an allocation failure.
  for (const char* text :
       {"ops = 100000001\n", "ops = 100000000000000000\n",
        "states_per_query = 1001\n",
        "states_per_query = 100000000000000000\n",
        "coherence_replicas = 1025\n",
        "coherence_replicas = 100000000000000000\n"}) {
    StatusOr<ScenarioConfig> cfg = ParseScenarioConfig(text);
    ASSERT_FALSE(cfg.ok()) << text;
    EXPECT_TRUE(cfg.status().IsInvalidArgument()) << text;
    const std::string key(text, std::string_view(text).find(' '));
    EXPECT_NE(cfg.status().message().find(key + " = "), std::string::npos)
        << cfg.status().ToString();
    EXPECT_NE(cfg.status().message().find("must be <="), std::string::npos)
        << cfg.status().ToString();
  }
  // The bounds themselves are accepted.
  EXPECT_TRUE(ParseScenarioConfig("ops = 100000000\n").ok());
  EXPECT_TRUE(ParseScenarioConfig("states_per_query = 1000\n").ok());
  EXPECT_TRUE(ParseScenarioConfig("coherence_replicas = 1024\n").ok());
}

TEST(ScenarioConfigTest, RejectsBadName) {
  EXPECT_FALSE(ParseScenarioConfig("name = has space\n").ok());
  EXPECT_FALSE(ParseScenarioConfig("name = semi;colon\n").ok());
}

TEST(ScenarioConfigTest, RejectsUnknownAblationFlag) {
  StatusOr<ScenarioConfig> cfg =
      ParseScenarioConfig("ablation.warp_drive = on\n");
  ASSERT_FALSE(cfg.ok());
  EXPECT_NE(cfg.status().message().find("unknown ablation flag"),
            std::string::npos);
}

TEST(ScenarioConfigTest, RejectsAblationValueOtherThanOnOff) {
  EXPECT_FALSE(ParseScenarioConfig("ablation.cache = true\n").ok());
}

TEST(ScenarioConfigTest, FormatParsesBackToEqualConfig) {
  StatusOr<ScenarioConfig> cfg = ParseScenarioConfig(
      "name = roundtrip\n"
      "users = 3\n"
      "pois = 123\n"
      "profile_skew = zipf\n"
      "profile_zipf_a = 1.25\n"
      "lift_probability = 0.45\n"
      "ops = 777\n"
      "user_zipf_a = 0.9\n"
      "exact_fraction = 0.33\n"
      "states_per_query = 2\n"
      "update_rate = 0.05\n"
      "sensor_dropout = 0.2\n"
      "distance = jaccard\n"
      "arrival_rate_qps = 1500\n"
      "deadline_micros = 4000\n"
      "service_micros = 900\n"
      "degraded_service_micros = 90\n"
      "cache_hit_service_micros = 50\n"
      "max_in_flight = 32\n"
      "cache_capacity = 256\n"
      "flash_crowd_fraction = 0.1\n"
      "outage_fraction = 0.15\n"
      "migration_fraction = 0.2\n"
      "seed = 12345\n"
      "ablation.resilience = off\n"
      "ablation.shed = off\n");
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  StatusOr<ScenarioConfig> again =
      ParseScenarioConfig(FormatScenarioConfig(*cfg));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *cfg);
}

TEST(ScenarioConfigTest, FormatOfDefaultsRoundTrips) {
  const ScenarioConfig defaults;
  StatusOr<ScenarioConfig> again =
      ParseScenarioConfig(FormatScenarioConfig(defaults));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, defaults);
}

TEST(ScenarioConfigTest, LoadReportsNotFoundForMissingFile) {
  StatusOr<ScenarioConfig> cfg =
      LoadScenarioConfig("/nonexistent/scenario.cfg");
  ASSERT_FALSE(cfg.ok());
  EXPECT_TRUE(cfg.status().IsNotFound());
}

TEST(AblationFlagsTest, SetGetAndNamesAgreeWithDeclaration) {
  AblationFlags flags;
  const std::vector<std::string>& names = AblationFlags::Names();
  const std::vector<std::string> declared = {"cache", "resilience", "shed"};
  EXPECT_EQ(names, declared);
  for (const std::string& name : names) {
    StatusOr<bool> on = flags.Get(name);
    ASSERT_TRUE(on.ok()) << name;
    EXPECT_TRUE(*on) << name << " should default to on";
    ASSERT_TRUE(flags.Set(name, false).ok()) << name;
    EXPECT_FALSE(*flags.Get(name)) << name;
  }
  EXPECT_FALSE(flags.Set("nonsense", true).ok());
  EXPECT_FALSE(flags.Get("nonsense").ok());
}

}  // namespace
}  // namespace ctxpref::harness
