// The batched read path must answer exactly like the scalar one
// (DESIGN.md §2, "HABF two-round batching"):
//   * slicing-by-8 CRC-32 equals the bytewise reference at every length
//     0-256 and unaligned start;
//   * ContainsBatch equals per-key MightContain for HABF, f-HABF, both
//     sharded routing modes and the dynamic tier with a resident delta, over
//     null, empty, 1-byte and cache-line-straddling keys and batches of 1,
//     33 and 4097 keys;
//   * the block kernel answers every member and known negative of an
//     8-shard two-choice filter like scalar Contains at every batch size
//     1-33 and 4097, with every kernel exit taken (a round-1 miss at stage
//     0, 1 and 2, a round-1 hit, a walk ending at an empty entry cell or
//     past it, a round-2 hit through an adjusted positive), and a
//     ShardedFilter assembled from unlike shards answers like each shard.
// Labeled `read_path`; scripts/check.sh --sanitize and CI rerun the label
// under ASan/UBSan, which flag a null-plus-offset key prefetch.

#include <gtest/gtest.h>

#include <algorithm>
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

// --- the block kernel's exits ----------------------------------------------

/// Where the scalar two-round query of `key` leaves `habf`, recomputed from
/// the public parts: the first clear H0 bit (k if none), and for a round-1
/// miss how the HashExpressor walk ends.
struct KeyExit {
  size_t first_clear = 0;
  bool empty_entry_cell = false;  // walk ends at its entry cell
  bool walk_ok = false;           // walk returned a subset
  bool round2_hit = false;        // ... whose bits are all set
};

KeyExit ExitOf(const Habf& habf, std::string_view key) {
  const std::vector<uint8_t>& h0 = habf.h0();
  const BloomFilter& bloom = habf.bloom();
  KeyExit exit;
  while (exit.first_clear < h0.size() &&
         bloom.GetBit(bloom.PositionOf(key, h0[exit.first_clear]))) {
    ++exit.first_clear;
  }
  if (exit.first_clear == h0.size()) return exit;
  const HashExpressor& expressor = habf.expressor();
  const uint64_t entry = expressor.cells().GetField(
      expressor.EntryCell(key) * expressor.cell_bits(), expressor.cell_bits());
  exit.empty_entry_cell = (entry >> 1) == 0;
  uint8_t fns[16];
  exit.walk_ok = expressor.Query(key, fns, h0.size());
  exit.round2_hit = exit.walk_ok && bloom.TestWith(key, fns, h0.size());
  return exit;
}

/// Every batch of `keys` cut at `batch_size` answers like per-key
/// MightContain.
template <typename Filter>
void ExpectBlocksMatchScalar(const Filter& filter,
                             const std::vector<std::string_view>& keys,
                             const std::vector<uint8_t>& scalar,
                             size_t batch_size) {
  std::vector<uint8_t> out(keys.size());
  for (size_t b = 0; b < keys.size(); b += batch_size) {
    const size_t count = std::min(batch_size, keys.size() - b);
    size_t expected = 0;
    for (size_t i = b; i < b + count; ++i) expected += scalar[i];
    ASSERT_EQ(filter.ContainsBatch(KeySpan(keys.data() + b, count),
                                   out.data() + b),
              expected)
        << "batch size " << batch_size << " at " << b;
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], scalar[i])
        << "batch size " << batch_size << " key #" << i << " " << keys[i];
  }
}

TEST(ReadPathDifferentialTest, KernelTakesEveryExitLikeScalar) {
  const Dataset& data = SharedData();
  ShardedBuildOptions sharding;
  sharding.num_shards = 8;
  sharding.num_threads = 2;
  sharding.routing = RoutingMode::kTwoChoice;
  const auto filter = BuildShardedHabf(data.positives, data.negatives,
                                       Options(false), sharding);
  ASSERT_EQ(filter.routing(), RoutingMode::kTwoChoice);

  std::vector<std::string_view> keys(data.positives.begin(),
                                     data.positives.end());
  const size_t num_members = keys.size();
  for (const WeightedKey& wk : data.negatives) keys.push_back(wk.key);

  size_t miss_at_stage[3] = {0, 0, 0};
  size_t round1_hits = 0;
  size_t empty_entry = 0;
  size_t past_entry = 0;
  size_t adjusted_member_hits = 0;
  std::vector<uint8_t> scalar(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const Habf& shard = filter.shard(filter.ShardOf(keys[i]));
    ASSERT_EQ(shard.h0().size(), 3u);
    const KeyExit exit = ExitOf(shard, keys[i]);
    scalar[i] = filter.MightContain(keys[i]) ? 1 : 0;
    ASSERT_EQ(scalar[i], exit.first_clear == 3 || exit.round2_hit ? 1 : 0)
        << keys[i];
    if (exit.first_clear == 3) {
      ++round1_hits;
      continue;
    }
    ++miss_at_stage[exit.first_clear];
    if (exit.empty_entry_cell) {
      ++empty_entry;
    } else if (!exit.walk_ok) {
      ++past_entry;
    }
    if (i < num_members && exit.round2_hit) ++adjusted_member_hits;
  }
  EXPECT_GT(miss_at_stage[0], 0u);
  EXPECT_GT(miss_at_stage[1], 0u);
  EXPECT_GT(miss_at_stage[2], 0u);
  EXPECT_GT(round1_hits, 0u);
  EXPECT_GT(empty_entry, 0u);
  EXPECT_GT(past_entry, 0u);
  EXPECT_GT(adjusted_member_hits, 0u);
  for (size_t i = 0; i < num_members; ++i) ASSERT_EQ(scalar[i], 1) << keys[i];

  for (size_t batch_size = 1; batch_size <= 33; ++batch_size) {
    ExpectBlocksMatchScalar(filter, keys, scalar, batch_size);
  }
  ExpectBlocksMatchScalar(filter, keys, scalar, 4097);
}

TEST(ReadPathDifferentialTest, UnlikeShardsAnswerLikeEachShard) {
  // Four shards differing in k, seed, size and mode (one f-HABF), assembled
  // through the public constructor: one kernel block mixes all of them.
  const Dataset& data = SharedData();
  constexpr size_t kShards = 4;
  constexpr uint64_t kSalt = 99;
  const RoutingDirectory directory = RoutingDirectory::Uniform(kShards);
  std::vector<std::vector<std::string>> positives(kShards);
  std::vector<std::vector<WeightedKey>> negatives(kShards);
  for (const std::string& key : data.positives) {
    positives[directory.ShardOf(key, kSalt)].push_back(key);
  }
  for (const WeightedKey& wk : data.negatives) {
    negatives[directory.ShardOf(wk.key, kSalt)].push_back(wk);
  }
  const size_t ks[kShards] = {3, 2, 4, 5};
  const bool fast[kShards] = {false, false, true, false};
  std::vector<Habf> shards;
  for (size_t s = 0; s < kShards; ++s) {
    HabfOptions options = Options(fast[s]);
    options.k = ks[s];
    options.seed = 100 + s;
    options.total_bits = positives[s].size() * (8 + 2 * s);
    shards.push_back(Habf::Build(positives[s], negatives[s], options));
  }
  const ShardedFilter<Habf> filter(std::move(shards), kSalt, directory);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(filter.shard(s).h0().size(), ks[s]);
    EXPECT_EQ(filter.shard(s).options().fast, fast[s]);
  }

  std::vector<std::string_view> keys;
  for (const std::string& key : data.positives) keys.push_back(key);
  for (const WeightedKey& wk : data.negatives) keys.push_back(wk.key);
  std::vector<uint8_t> scalar(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const Habf& shard = filter.shard(directory.ShardOf(keys[i], kSalt));
    scalar[i] = shard.Contains(keys[i]) ? 1 : 0;
  }
  for (size_t i = 0; i < data.positives.size(); ++i) {
    ASSERT_EQ(scalar[i], 1) << keys[i];
  }
  for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{32},
                                  size_t{33}, size_t{4097}}) {
    ExpectBlocksMatchScalar(filter, keys, scalar, batch_size);
  }
}

}  // namespace
}  // namespace habf
