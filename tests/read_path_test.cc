// The batched read path must answer exactly like the scalar one
// (DESIGN.md §2, "HABF two-round batching"):
//   * slicing-by-8 CRC-32 equals the bytewise reference at every length
//     0-256 and unaligned start;
//   * ContainsBatch equals per-key MightContain for HABF, f-HABF, both
//     sharded routing modes and the dynamic tier with a resident delta, over
//     null, empty, 1-byte and cache-line-straddling keys and batches of 1,
//     33 and 4097 keys.
// Labeled `read_path`; scripts/check.sh --sanitize and CI rerun the label
// under ASan/UBSan, which flag a null-plus-offset key prefetch.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamic_filter.h"
#include "core/filter_interface.h"
#include "core/habf.h"
#include "core/sharded_filter.h"
#include "hashing/crc32.h"
#include "util/rng.h"
#include "workload/dataset.h"

namespace habf {
namespace {

constexpr size_t kMaxLen = 256;

/// Random bytes with room for a kMaxLen key at any start offset below 64.
const std::vector<char>& Bytes() {
  static const std::vector<char> bytes = [] {
    std::vector<char> b(kMaxLen + 64);
    Xoshiro256 rng(11);
    for (char& c : b) c = static_cast<char>(rng.Next());
    return b;
  }();
  return bytes;
}

/// Bytewise reflected CRC-32, the textbook one-table form the slicing-by-8
/// implementation must reproduce.
uint32_t BytewiseCrc32(const void* data, size_t len, uint32_t init) {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

TEST(Crc32SlicingTest, BytewiseReferenceMatchesKnownVector) {
  EXPECT_EQ(BytewiseCrc32("123456789", 9, 0), 0xCBF43926u);
  EXPECT_EQ(Crc32("123456789", 9, 0), 0xCBF43926u);
}

TEST(Crc32SlicingTest, SlicingBy8MatchesBytewiseReference) {
  const char* base = Bytes().data();
  for (size_t len = 0; len <= kMaxLen; ++len) {
    for (size_t offset = 0; offset < 9; ++offset) {
      for (const uint32_t init : {0u, 1u, 0xDEADBEEFu, ~0u}) {
        ASSERT_EQ(Crc32(base + offset, len, init),
                  BytewiseCrc32(base + offset, len, init))
            << "len=" << len << " offset=" << offset << " init=" << init;
      }
    }
  }
  EXPECT_EQ(Crc32(nullptr, 0, 5), BytewiseCrc32(nullptr, 0, 5));
}

// --- batch vs scalar Contains ----------------------------------------------

constexpr size_t kKeys = 3000;

const Dataset& SharedData() {
  static const Dataset data = [] {
    DatasetOptions options;
    options.num_positives = kKeys;
    options.num_negatives = kKeys;
    options.seed = 5;
    return GenerateShallaLike(options);
  }();
  return data;
}

HabfOptions Options(bool fast) {
  HabfOptions options;
  options.total_bits = kKeys * 10;
  options.fast = fast;
  options.seed = 17;
  return options;
}

/// Degenerate and awkwardly placed keys: a null view, the empty and 1-byte
/// keys, and keys straddling a 64-byte line of a line-aligned buffer.
class OddKeys {
 public:
  OddKeys() {
    for (size_t i = 0; i < sizeof(buffer_); ++i) {
      buffer_[i] = static_cast<char>('a' + i % 26);
    }
    keys_.push_back(std::string_view{});
    keys_.push_back(std::string_view(""));
    keys_.push_back(std::string_view(buffer_, 1));
    keys_.push_back(std::string_view(buffer_ + 63, 1));
    for (size_t before = 1; before <= 9; ++before) {
      keys_.push_back(std::string_view(buffer_ + 64 - before, 2 * before));
      keys_.push_back(std::string_view(buffer_ + 128 - before, 45));
    }
  }
  const std::vector<std::string_view>& keys() const { return keys_; }

 private:
  alignas(64) char buffer_[256];
  std::vector<std::string_view> keys_;
};

/// Batches of 1, 33 and 4097 keys mixing positives, known negatives, unseen
/// keys and the odd keys, so short last blocks and lane padding all occur.
std::vector<std::vector<std::string_view>> Batches(const OddKeys& odd) {
  const Dataset& data = SharedData();
  std::vector<std::string_view> pool;
  for (size_t i = 0; i < 2000; ++i) {
    pool.push_back(data.positives[i]);
    pool.push_back(data.negatives[i].key);
  }
  for (const std::string_view key : odd.keys()) pool.push_back(key);
  std::vector<std::vector<std::string_view>> batches;
  for (const std::string_view key : odd.keys()) batches.push_back({key});
  batches.push_back({std::string_view(data.positives[0])});
  Xoshiro256 rng(23);
  for (const size_t size : {size_t{33}, size_t{4097}}) {
    for (int round = 0; round < 3; ++round) {
      std::vector<std::string_view> batch;
      for (size_t i = 0; i < size; ++i) {
        batch.push_back(pool[rng.NextBounded(pool.size())]);
      }
      batches.push_back(std::move(batch));
    }
  }
  std::vector<std::string_view> all_odd = odd.keys();
  all_odd.resize(33, std::string_view{});
  batches.push_back(std::move(all_odd));
  return batches;
}

template <typename Filter>
void ExpectBatchMatchesScalar(const Filter& filter) {
  const OddKeys odd;
  for (const auto& batch : Batches(odd)) {
    std::vector<uint8_t> out(batch.size() + 1, 0xAB);
    const size_t positives =
        filter.ContainsBatch(KeySpan(batch.data(), batch.size()), out.data());
    size_t expected_positives = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const bool scalar = filter.MightContain(batch[i]);
      ASSERT_EQ(out[i], scalar ? 1 : 0)
          << filter.Name() << " batch=" << batch.size() << " key #" << i;
      expected_positives += scalar ? 1 : 0;
    }
    EXPECT_EQ(positives, expected_positives);
    EXPECT_EQ(out.back(), 0xAB) << "wrote past the batch";
  }
  for (const std::string& key : SharedData().positives) {
    ASSERT_TRUE(filter.MightContain(key)) << filter.Name() << " lost " << key;
  }
}

TEST(ReadPathDifferentialTest, Habf) {
  const Dataset& data = SharedData();
  ExpectBatchMatchesScalar(
      Habf::Build(data.positives, data.negatives, Options(false)));
}

TEST(ReadPathDifferentialTest, FastHabf) {
  const Dataset& data = SharedData();
  ExpectBatchMatchesScalar(
      Habf::Build(data.positives, data.negatives, Options(true)));
}

TEST(ReadPathDifferentialTest, ShardedBothRoutingModes) {
  const Dataset& data = SharedData();
  for (const RoutingMode routing :
       {RoutingMode::kUniform, RoutingMode::kTwoChoice}) {
    ShardedBuildOptions sharding;
    sharding.num_shards = 4;
    sharding.num_threads = 2;
    sharding.routing = routing;
    const auto filter = BuildShardedHabf(data.positives, data.negatives,
                                         Options(false), sharding);
    ASSERT_EQ(filter.routing(), routing);
    ExpectBatchMatchesScalar(filter);
  }
}

TEST(ReadPathDifferentialTest, DynamicWithResidentDelta) {
  const Dataset& data = SharedData();
  ShardedBuildOptions sharding;
  sharding.num_shards = 4;
  sharding.num_threads = 2;
  DynamicShardedHabf filter(data.positives, data.negatives, Options(false),
                            sharding);
  // Inserts (among them the empty and a 1-byte key) and tombstones stay in
  // the delta: nothing compacts without a call or a running compactor.
  filter.Insert("");
  filter.Insert("q");
  for (size_t i = 0; i < 200; ++i) filter.Insert(data.negatives[i].key);
  for (size_t i = 0; i < 200; ++i) filter.Remove(data.negatives[200 + i].key);
  ASSERT_GT(filter.delta_size(), 0u);
  ExpectBatchMatchesScalar(filter);
}

}  // namespace
}  // namespace habf
