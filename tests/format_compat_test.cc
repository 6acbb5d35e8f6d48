// Golden-fixture compatibility gate (ctest label `format_compat`).
//
// Small legacy-format snapshots are committed under tests/data/ next to the
// exact key lists they were built from. These tests prove the legacy SHRD /
// SHR2 / HABF readers load those bytes bit-exact FOREVER: the fixture
// deserializes, answers every fixture key, and the HBF1 bytes of the decoded
// filter equal the HBF1 bytes of a fresh deterministic build from the same
// keys. Any change that breaks one of these assertions is a format break,
// not a refactor. Only the readers remain; nothing in the tree can write a
// legacy snapshot, so the fixtures are never regenerated.
//
// The hbf1_*.snapshot fixtures pin the current writer the same way: a fresh
// uniform or two-choice sharded build of the fixture keys must reproduce
// them byte for byte (uniform routing writes no RDIR section).

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/habf.h"
#include "core/sharded_filter.h"
#include "util/serde.h"

#ifndef HABF_TEST_DATA_DIR
#error "format_compat_test requires the HABF_TEST_DATA_DIR compile definition"
#endif

namespace habf {
namespace {

std::string DataPath(const std::string& name) {
  return std::string(HABF_TEST_DATA_DIR) + "/" + name;
}

std::vector<WeightedKey> FixtureNegatives(const char* prefix, size_t n) {
  std::vector<WeightedKey> negatives;
  negatives.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    negatives.push_back(
        {std::string(prefix) + std::to_string(i), 1.0 + double(i % 3)});
  }
  return negatives;
}

std::vector<std::string> ReadKeyList(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture key list " << path;
  std::vector<std::string> keys;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) keys.push_back(line);
  }
  return keys;
}

HabfOptions FixtureOptions() {
  HabfOptions options;
  options.total_bits = 1 << 14;
  options.seed = 20260808;  // fixture generation date; never change
  return options;
}

/// The fixture filter for `routing`, rebuilt deterministically (single
/// thread, fixed seed and salt) from the fixture keys.
ShardedFilter<Habf> BuildFixtureFilter(RoutingMode routing,
                                       const std::vector<std::string>& keys) {
  ShardedBuildOptions sharding;
  sharding.num_shards = 4;
  sharding.num_threads = 1;
  sharding.routing = routing;
  return BuildShardedHabf(keys, FixtureNegatives("compat-neg-", 64),
                          FixtureOptions(), sharding);
}

/// Reads `<stem>.snapshot` and `<stem>.keys` from tests/data/.
void LoadFixture(const std::string& stem, std::string* bytes,
                 std::vector<std::string>* keys) {
  const std::string snapshot_path = DataPath(stem + ".snapshot");
  ASSERT_TRUE(ReadFileBytes(snapshot_path, bytes))
      << "missing fixture " << snapshot_path;
  *keys = ReadKeyList(DataPath(stem + ".keys"));
  ASSERT_FALSE(keys->empty());
}

template <typename F>
std::string Hbf1Bytes(const F& filter) {
  std::string bytes;
  filter.Serialize(&bytes);
  return bytes;
}

uint32_t MagicOf(const std::string& bytes) {
  return BinaryReader(bytes).ReadU32();
}

void ExpectLoadsBitExact(const std::string& bytes,
                         const std::vector<std::string>& keys,
                         RoutingMode expected_routing) {
  const auto filter = ShardedFilter<Habf>::Deserialize(bytes);
  ASSERT_TRUE(filter.has_value());
  EXPECT_EQ(filter->routing(), expected_routing);
  for (const auto& key : keys) {
    EXPECT_TRUE(filter->MightContain(key)) << key;
  }
  // Bit-exact forever: nothing was lost in decoding, since the decoded
  // filter encodes to the same HBF1 bytes as a fresh build of the fixture.
  const std::string hbf1 = Hbf1Bytes(*filter);
  ASSERT_TRUE(SectionReader::LooksLikeContainer(hbf1));
  EXPECT_EQ(hbf1, Hbf1Bytes(BuildFixtureFilter(expected_routing, keys)))
      << "legacy decoding drifted from a fresh build";
  // And the migration path works: the same state round-trips through HBF1.
  const auto migrated = ShardedFilter<Habf>::Deserialize(hbf1);
  ASSERT_TRUE(migrated.has_value());
  EXPECT_EQ(Hbf1Bytes(*migrated), hbf1);
}

TEST(FormatCompat, ShrdUniformFixtureLoadsBitExact) {
  std::string bytes;
  std::vector<std::string> keys;
  LoadFixture("shrd_uniform_v1", &bytes, &keys);
  ASSERT_EQ(MagicOf(bytes), kShardedSnapshotMagic);
  EXPECT_FALSE(SectionReader::LooksLikeContainer(bytes));
  ExpectLoadsBitExact(bytes, keys, RoutingMode::kUniform);
}

TEST(FormatCompat, Shr2TwoChoiceFixtureLoadsBitExact) {
  std::string bytes;
  std::vector<std::string> keys;
  LoadFixture("shr2_two_choice_v2", &bytes, &keys);
  ASSERT_EQ(MagicOf(bytes), kShardedSnapshotMagicV2);
  EXPECT_FALSE(SectionReader::LooksLikeContainer(bytes));
  ExpectLoadsBitExact(bytes, keys, RoutingMode::kTwoChoice);
}

TEST(FormatCompat, Hbf1ShardedBuildsMatchPinnedBytes) {
  const std::vector<std::string> keys =
      ReadKeyList(DataPath("shrd_uniform_v1.keys"));
  ASSERT_FALSE(keys.empty());
  for (const auto& [stem, routing] :
       {std::pair<const char*, RoutingMode>{"hbf1_uniform",
                                            RoutingMode::kUniform},
        std::pair<const char*, RoutingMode>{"hbf1_two_choice",
                                            RoutingMode::kTwoChoice}}) {
    std::string pinned;
    ASSERT_TRUE(ReadFileBytes(DataPath(std::string(stem) + ".snapshot"),
                              &pinned))
        << stem;
    EXPECT_EQ(Hbf1Bytes(BuildFixtureFilter(routing, keys)), pinned)
        << stem << ": a fresh build no longer writes the pinned bytes";
    const auto loaded = ShardedFilter<Habf>::Deserialize(pinned);
    ASSERT_TRUE(loaded.has_value()) << stem;
    EXPECT_EQ(loaded->routing(), routing) << stem;
    for (const auto& key : keys) EXPECT_TRUE(loaded->MightContain(key)) << key;
  }
}

TEST(FormatCompat, HabfLegacyFixtureLoadsBitExact) {
  std::string bytes;
  std::vector<std::string> keys;
  LoadFixture("habf_legacy_v1", &bytes, &keys);
  EXPECT_FALSE(SectionReader::LooksLikeContainer(bytes));

  const auto filter = Habf::Deserialize(bytes);
  ASSERT_TRUE(filter.has_value());
  for (const auto& key : keys) EXPECT_TRUE(filter->Contains(key)) << key;
  const std::string hbf1 = Hbf1Bytes(*filter);
  ASSERT_TRUE(SectionReader::LooksLikeContainer(hbf1));
  EXPECT_EQ(hbf1, Hbf1Bytes(Habf::Build(
                      keys, FixtureNegatives("compat-neg-", 64),
                      FixtureOptions())))
      << "legacy decoding drifted from a fresh build";
  const auto migrated = Habf::Deserialize(hbf1);
  ASSERT_TRUE(migrated.has_value());
  EXPECT_EQ(Hbf1Bytes(*migrated), hbf1);
}

}  // namespace
}  // namespace habf
