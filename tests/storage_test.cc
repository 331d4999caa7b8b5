#include <gtest/gtest.h>

#include <cstdio>

#include "storage/env_spec.h"
#include "storage/profile_io.h"
#include "tests/test_util.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workload/profile_generator.h"

namespace ctxpref::storage {
namespace {

using ::ctxpref::testing::PaperEnv;
using ::ctxpref::testing::Pref;
using ::ctxpref::testing::Reseal;

TEST(Crc32Test, KnownVectors) {
  // Standard check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Incremental == one-shot.
  EXPECT_EQ(Crc32("6789", Crc32("12345")), Crc32("123456789"));
}

class ProfileIoTest : public ::testing::Test {
 protected:
  EnvironmentPtr env_ = PaperEnv();

  Profile SampleProfile() {
    Profile p(env_);
    EXPECT_OK(p.Insert(Pref(*env_, "location = Plaka and temperature in "
                            "{warm, hot}", "name", "Acropolis", 0.8)));
    EXPECT_OK(p.Insert(Pref(*env_,
                            "accompanying_people = friends and "
                            "temperature in [mild, hot]",
                            "type", "brewery", 0.9)));
    EXPECT_OK(p.Insert(Pref(*env_, "*", "type", "museum", 0.6)));
    // Non-string clause values.
    StatusOr<CompositeDescriptor> cod =
        ParseCompositeDescriptor(*env_, "temperature = good");
    StatusOr<ContextualPreference> oa = ContextualPreference::Create(
        std::move(*cod),
        AttributeClause{"open_air", db::CompareOp::kEq, db::Value(true)},
        0.75);
    EXPECT_OK(p.Insert(std::move(*oa)));
    StatusOr<CompositeDescriptor> cod2 =
        ParseCompositeDescriptor(*env_, "location = Athens");
    StatusOr<ContextualPreference> adm = ContextualPreference::Create(
        std::move(*cod2),
        AttributeClause{"admission", db::CompareOp::kLe, db::Value(10.0)},
        0.5);
    EXPECT_OK(p.Insert(std::move(*adm)));
    return p;
  }
};

TEST_F(ProfileIoTest, RoundTripPreservesEverything) {
  Profile p = SampleProfile();
  std::string bytes = SerializeProfile(p);
  StatusOr<Profile> q = DeserializeProfile(env_, bytes);
  ASSERT_OK(q.status());
  ASSERT_EQ(q->size(), p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_TRUE(q->preference(i) == p.preference(i)) << i;
  }
  // Same text rendering (descriptor kinds preserved, incl. the range).
  EXPECT_EQ(q->ToText(), p.ToText());
}

TEST_F(ProfileIoTest, RoundTripLargeGeneratedProfile) {
  StatusOr<workload::SyntheticProfile> gen = workload::MakeRealLikeProfile(3);
  ASSERT_OK(gen.status());
  std::string bytes = SerializeProfile(gen->profile);
  StatusOr<Profile> q = DeserializeProfile(gen->env, bytes);
  ASSERT_OK(q.status());
  EXPECT_EQ(q->size(), gen->profile.size());
  EXPECT_EQ(q->ToText(), gen->profile.ToText());
}

TEST_F(ProfileIoTest, RejectsBadMagic) {
  std::string bytes = SerializeProfile(SampleProfile());
  bytes[0] = 'X';
  EXPECT_TRUE(DeserializeProfile(env_, bytes).status().IsCorruption());
}

TEST_F(ProfileIoTest, RejectsTruncation) {
  std::string bytes = SerializeProfile(SampleProfile());
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{5}}) {
    EXPECT_TRUE(DeserializeProfile(env_, bytes.substr(0, cut))
                    .status()
                    .IsCorruption())
        << "cut at " << cut;
  }
}

TEST_F(ProfileIoTest, ChecksumCatchesEveryFlippedByte) {
  std::string bytes = SerializeProfile(SampleProfile());
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::string corrupted = bytes;
    const size_t pos =
        4 + rng.Uniform(corrupted.size() - 8);  // Inside the payload.
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 + rng.Uniform(255)));
    Status st = DeserializeProfile(env_, corrupted).status();
    EXPECT_FALSE(st.ok()) << "flip at " << pos << " went undetected";
  }
}

TEST_F(ProfileIoTest, ExhaustiveByteFlipSweepFailsCleanly) {
  // Exhaustive single-byte corruption: every position, three masks
  // (low bit, high bit, full invert). Whatever the damage — magic,
  // lengths, counts, payload, or the checksum itself — Load must fail
  // *cleanly* with Corruption or InvalidArgument, never crash, hang,
  // or return a profile.
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "A", 0.8)));
  ASSERT_OK(p.Insert(Pref(*env_, "*", "type", "museum", 0.6)));
  const std::string bytes = SerializeProfile(p);
  ASSERT_OK(DeserializeProfile(env_, bytes).status());

  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string corrupted = bytes;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ mask);
      Status st = DeserializeProfile(env_, corrupted).status();
      ASSERT_FALSE(st.ok())
          << "flip of byte " << pos << " with mask " << int(mask)
          << " went undetected";
      ASSERT_TRUE(st.IsCorruption() || st.IsInvalidArgument())
          << "flip of byte " << pos << " with mask " << int(mask)
          << " produced unexpected status " << st.ToString();
    }
  }
}

/// A file whose checksum holds but whose descriptor claims 2^32 - 1
/// values fails as Corruption, before the loader sizes anything by the
/// claim.
TEST_F(ProfileIoTest, RejectsDescriptorValueCountBeyondThePayload) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka", "name", "A", 0.8)));
  std::string bytes = SerializeProfile(p);
  // Magic (4), preference count (u64), part count (u32), parameter
  // (u32), kind (u8), then the part's value count (u32).
  const size_t num_values_at = 4 + 8 + 4 + 4 + 1;
  ASSERT_EQ(bytes[num_values_at], 1) << "layout changed";
  for (int i = 0; i < 4; ++i) bytes[num_values_at + i] = '\xFF';
  bytes = Reseal(std::move(bytes));

  Status st = DeserializeProfile(env_, bytes).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // The file reader takes the same path.
  const std::string path =
      ::testing::TempDir() + "/ctxpref_huge_value_count.cpf";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  st = ReadProfileFile(env_, path).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  std::remove(path.c_str());
}

TEST_F(ProfileIoTest, RejectsForeignEnvironmentValues) {
  // Serialize against the paper env, deserialize against a smaller one:
  // out-of-domain value ids must be rejected.
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Piraeus", "name", "X", 0.5)));
  std::string bytes = SerializeProfile(p);

  StatusOr<HierarchyPtr> tiny_loc = MakeFlatHierarchy("location", "Region",
                                                      {"OnlyPlace"});
  StatusOr<HierarchyPtr> tiny_t = MakeFlatHierarchy("temperature", "C", {"x"});
  StatusOr<HierarchyPtr> tiny_c =
      MakeFlatHierarchy("accompanying_people", "R", {"y"});
  std::vector<ContextParameter> params;
  params.emplace_back("location", *tiny_loc);
  params.emplace_back("temperature", *tiny_t);
  params.emplace_back("accompanying_people", *tiny_c);
  StatusOr<EnvironmentPtr> tiny_env =
      ContextEnvironment::Create(std::move(params));
  ASSERT_OK(tiny_env.status());
  Status st = DeserializeProfile(*tiny_env, bytes).status();
  EXPECT_FALSE(st.ok());
}

TEST_F(ProfileIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ctxpref_profile.bin";
  Profile p = SampleProfile();
  ASSERT_OK(WriteProfileFile(p, path));
  StatusOr<Profile> q = ReadProfileFile(env_, path);
  ASSERT_OK(q.status());
  EXPECT_EQ(q->size(), p.size());
  std::remove(path.c_str());
  EXPECT_TRUE(ReadProfileFile(env_, path).status().IsNotFound());
}

// ---------------------------------------------------------------------

class EnvSpecTest : public ::testing::Test {};

constexpr const char* kSpec = R"(
# the paper's Fig. 2 environment
hierarchy location
  level Region: Plaka, Kifisia, Perama
  level City: Athens(Plaka, Kifisia), Ioannina(Perama)
  level Country: Greece(Athens, Ioannina)
end

hierarchy weather
  level Conditions: freezing, cold, mild, warm, hot
  level Characterization: bad(freezing, cold), good(mild, warm, hot)
end

hierarchy company
  level Relationship: friends, family, alone
end

environment
  parameter location uses location
  parameter temperature uses weather
  parameter accompanying_people uses company
end
)";

TEST_F(EnvSpecTest, ParsesPaperEnvironment) {
  StatusOr<EnvironmentPtr> env = ParseEnvironmentSpec(kSpec);
  ASSERT_OK(env.status());
  EXPECT_EQ((*env)->size(), 3u);
  EXPECT_EQ((*env)->parameter(0).name(), "location");
  const Hierarchy& loc = (*env)->parameter(0).hierarchy();
  EXPECT_EQ(loc.num_levels(), 4);  // + ALL
  EXPECT_EQ(loc.value_name(loc.Anc(*loc.Find(0, "Plaka"), 1)), "Athens");
  const Hierarchy& weather = (*env)->parameter(1).hierarchy();
  EXPECT_EQ(weather.DetailedDescendantCount(*weather.Find(1, "good")), 3u);
}

TEST_F(EnvSpecTest, RoundTripsThroughText) {
  StatusOr<EnvironmentPtr> env = ParseEnvironmentSpec(kSpec);
  ASSERT_OK(env.status());
  std::string text = EnvironmentSpecToText(**env);
  StatusOr<EnvironmentPtr> again = ParseEnvironmentSpec(text);
  ASSERT_OK(again.status());
  EXPECT_EQ(EnvironmentSpecToText(**again), text);
  EXPECT_EQ((*again)->size(), (*env)->size());
  for (size_t i = 0; i < (*env)->size(); ++i) {
    EXPECT_EQ((*again)->parameter(i).name(), (*env)->parameter(i).name());
    EXPECT_EQ((*again)->parameter(i).hierarchy().extended_domain_size(),
              (*env)->parameter(i).hierarchy().extended_domain_size());
  }
}

TEST_F(EnvSpecTest, RoundTripsGeneratedEnvironment) {
  StatusOr<workload::SyntheticProfile> gen = workload::MakeRealLikeProfile(5);
  ASSERT_OK(gen.status());
  std::string text = EnvironmentSpecToText(*gen->env);
  StatusOr<EnvironmentPtr> again = ParseEnvironmentSpec(text);
  ASSERT_OK(again.status());
  EXPECT_EQ((*again)->ExtendedWorldSize(), gen->env->ExtendedWorldSize());
}

TEST_F(EnvSpecTest, SharedHierarchyEmittedOnce) {
  StatusOr<HierarchyPtr> h = MakeFlatHierarchy("shared", "L", {"a", "b"});
  std::vector<ContextParameter> params;
  params.emplace_back("p1", *h);
  params.emplace_back("p2", *h);
  StatusOr<EnvironmentPtr> env = ContextEnvironment::Create(std::move(params));
  ASSERT_OK(env.status());
  std::string text = EnvironmentSpecToText(**env);
  EXPECT_EQ(text.find("hierarchy shared"),
            text.rfind("hierarchy shared"));  // Exactly one block.
  StatusOr<EnvironmentPtr> again = ParseEnvironmentSpec(text);
  ASSERT_OK(again.status());
  EXPECT_EQ((*again)->size(), 2u);
}

TEST_F(EnvSpecTest, SyntaxErrors) {
  EXPECT_TRUE(ParseEnvironmentSpec("bogus\n").status().IsCorruption());
  EXPECT_TRUE(ParseEnvironmentSpec("hierarchy h\n  level L: a\n")
                  .status()
                  .IsCorruption());  // Missing end.
  EXPECT_TRUE(ParseEnvironmentSpec("hierarchy h\n  level L: a\nend\n")
                  .status()
                  .IsCorruption());  // No environment block.
  EXPECT_TRUE(
      ParseEnvironmentSpec(
          "hierarchy h\n  level L: a\nend\nenvironment\n  parameter p uses "
          "missing\nend\n")
          .status()
          .IsInvalidArgument());  // Unknown hierarchy.
  EXPECT_TRUE(
      ParseEnvironmentSpec(
          "hierarchy h\n  level L: a\n  level U: P(a\nend\nenvironment\n"
          "  parameter p uses h\nend\n")
          .status()
          .IsCorruption());  // Unbalanced paren.
  EXPECT_TRUE(
      ParseEnvironmentSpec(
          "hierarchy h\n  level L: a, b\n  level U: P(a)\nend\n"
          "environment\n  parameter p uses h\nend\n")
          .status()
          .IsInvalidArgument());  // b unparented (builder validation).
}

TEST_F(EnvSpecTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ctxpref_env.spec";
  StatusOr<EnvironmentPtr> env = ParseEnvironmentSpec(kSpec);
  ASSERT_OK(env.status());
  ASSERT_OK(WriteEnvironmentSpecFile(**env, path));
  StatusOr<EnvironmentPtr> again = ReadEnvironmentSpecFile(path);
  ASSERT_OK(again.status());
  EXPECT_EQ((*again)->size(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ctxpref::storage
