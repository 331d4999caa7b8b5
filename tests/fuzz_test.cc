// Robustness / failure-injection suites: random and adversarial inputs
// must produce Status errors, never crashes, hangs, or corrupted
// state. The RNG is seeded, so every "random" case is reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "context/parser.h"
#include "db/csv.h"
#include "storage/env_spec.h"
#include "storage/profile_io.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::PaperEnv;
using ::ctxpref::testing::Pref;
using ::ctxpref::testing::Reseal;

/// Random printable-ish string with structural characters over-sampled
/// so the parsers actually reach their deep branches.
std::string RandomText(Rng& rng, size_t max_len) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789_-.,:;(){}[]=<>!&| \t\"'*#\n";
  const size_t len = rng.Uniform(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, RandomDescriptorTextNeverCrashes) {
  EnvironmentPtr env = PaperEnv();
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    std::string text = RandomText(rng, 60);
    // Any outcome is fine as long as it is a Status, not a crash.
    (void)ParseParameterDescriptor(*env, text);
    (void)ParseCompositeDescriptor(*env, text);
    (void)ParseExtendedDescriptor(*env, text);
  }
}

TEST_P(ParserFuzzTest, MutatedValidDescriptorsNeverCrash) {
  EnvironmentPtr env = PaperEnv();
  Rng rng(GetParam() ^ 0xfeed);
  const std::string valid =
      "(location = Plaka and temperature in {warm, hot}) or "
      "(accompanying_people = friends and temperature in [mild, hot])";
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const size_t edits = 1 + rng.Uniform(4);
    for (size_t e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(32 + rng.Uniform(95)));
          break;
      }
      if (mutated.empty()) mutated.push_back('x');
    }
    (void)ParseExtendedDescriptor(*env, mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Values(1, 2, 3));

class ProfileTextFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProfileTextFuzzTest, RandomProfileTextNeverCrashes) {
  EnvironmentPtr env = PaperEnv();
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    (void)Profile::FromText(env, RandomText(rng, 120));
    (void)Profile::FromText(env, "pref: " + RandomText(rng, 80));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileTextFuzzTest, ::testing::Values(7, 8));

class BinaryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinaryFuzzTest, RandomBytesNeverCrashDeserialize) {
  EnvironmentPtr env = PaperEnv();
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const size_t len = rng.Uniform(200);
    std::string bytes;
    bytes.reserve(len + 4);
    if (rng.Bernoulli(0.5)) bytes = "CPF1";  // Sometimes a valid magic.
    for (size_t b = 0; b < len; ++b) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    StatusOr<Profile> p = storage::DeserializeProfile(env, bytes);
    EXPECT_FALSE(p.ok());  // Checksum/structure must reject all of these.
  }
}

TEST_P(BinaryFuzzTest, TruncatedAndMutatedValidFilesNeverCrash) {
  EnvironmentPtr env = PaperEnv();
  Profile profile(env);
  ASSERT_OK(profile.Insert(Pref(*env, "location = Plaka and temperature in "
                                "{warm, hot}", "name", "Acropolis", 0.8)));
  ASSERT_OK(profile.Insert(
      Pref(*env, "accompanying_people = friends", "type", "brewery", 0.9)));
  const std::string bytes = storage::SerializeProfile(profile);

  Rng rng(GetParam() ^ 0xbeef);
  for (int i = 0; i < 1000; ++i) {
    std::string mutated = bytes;
    const size_t edits = 1 + rng.Uniform(6);
    for (size_t e = 0; e < edits; ++e) {
      switch (rng.Uniform(3)) {
        case 0:
          mutated[rng.Uniform(mutated.size())] =
              static_cast<char>(rng.Uniform(256));
          break;
        case 1:
          mutated = mutated.substr(0, rng.Uniform(mutated.size() + 1));
          break;
        default:
          mutated.insert(rng.Uniform(mutated.size() + 1), 1,
                         static_cast<char>(rng.Uniform(256)));
          break;
      }
      if (mutated.empty()) mutated = "C";
    }
    // Either a clean rejection or, in the astronomically unlikely case
    // of a still-valid checksum, a well-formed profile.
    StatusOr<Profile> p = storage::DeserializeProfile(env, mutated);
    if (p.ok()) {
      EXPECT_LE(p->size(), 4u);
    }
  }
}

/// The mutations above almost all stop at the checksum. These re-seal
/// it after damaging the payload, so the structural parser sees every
/// one: each must come back as a non-OK status or as a well-formed
/// profile (one that serializes and parses back to itself), never as
/// an exception.
TEST_P(BinaryFuzzTest, ResealedPayloadMutationsFailClosed) {
  EnvironmentPtr env = PaperEnv();
  Profile profile(env);
  ASSERT_OK(profile.Insert(Pref(*env, "location = Plaka and temperature in "
                                "{warm, hot}", "name", "Acropolis", 0.8)));
  ASSERT_OK(profile.Insert(Pref(*env,
                                "accompanying_people = friends and "
                                "temperature in [mild, hot]",
                                "type", "brewery", 0.9)));
  ASSERT_OK(profile.Insert(Pref(*env, "*", "type", "museum", 0.6)));
  const std::string bytes = storage::SerializeProfile(profile);
  const std::string magic = bytes.substr(0, 4);
  const std::string payload = bytes.substr(4, bytes.size() - 8);

  Rng rng(GetParam() ^ 0x5ea1);
  size_t parsed = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = payload;
    const size_t edits = 1 + rng.Uniform(4);
    for (size_t e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(mutated.size() + 1);
      switch (rng.Uniform(4)) {
        case 0:  // Overwrite a byte.
          if (pos < mutated.size()) {
            mutated[pos] = static_cast<char>(rng.Uniform(256));
          }
          break;
        case 1:  // Saturate a count-sized field.
          for (size_t b = pos; b < std::min(pos + 4, mutated.size()); ++b) {
            mutated[b] = '\xFF';
          }
          break;
        case 2:
          mutated = mutated.substr(0, pos);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.Uniform(256)));
          break;
      }
    }
    const std::string file =
        Reseal(magic + mutated + std::string(4, '\0'));
    StatusOr<Profile> p = Status::Internal("not parsed");
    ASSERT_NO_THROW(p = storage::DeserializeProfile(env, file))
        << "mutation " << i;
    if (!p.ok()) continue;
    ++parsed;
    StatusOr<Profile> again =
        storage::DeserializeProfile(env, storage::SerializeProfile(*p));
    ASSERT_OK(again.status());
    EXPECT_EQ(again->ToText(), p->ToText()) << "mutation " << i;
  }
  // Most damage is caught; a few edits (a score's bits, a name's
  // characters) leave a valid profile, which the round trip checked.
  EXPECT_LT(parsed, 2000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryFuzzTest, ::testing::Values(11, 12));

class CsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzTest, RandomCsvNeverCrashes) {
  StatusOr<db::Schema> schema =
      db::Schema::Create({{"id", db::ColumnType::kInt64},
                          {"name", db::ColumnType::kString},
                          {"score", db::ColumnType::kDouble}});
  ASSERT_OK(schema.status());
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    std::string text = RandomText(rng, 150);
    if (rng.Bernoulli(0.4)) text = "id,name,score\n" + text;
    (void)db::LoadCsv(*schema, text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest, ::testing::Values(21, 22));

class EnvSpecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnvSpecFuzzTest, RandomSpecsNeverCrash) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    std::string text = RandomText(rng, 200);
    if (rng.Bernoulli(0.3)) {
      text = "hierarchy h\n  level L: a, b\n" + text;
    }
    (void)storage::ParseEnvironmentSpec(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvSpecFuzzTest, ::testing::Values(31, 32));

}  // namespace
}  // namespace ctxpref
