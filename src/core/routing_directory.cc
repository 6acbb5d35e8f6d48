#include "core/routing_directory.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "hashing/hash_function.h"  // Fmix64
#include "util/serde.h"

namespace habf {

std::pair<uint32_t, uint32_t> TwoChoiceCandidates(size_t bucket, uint64_t salt,
                                                  size_t num_shards) {
  assert(num_shards >= 1);
  // Two independently-mixed streams over (salt, bucket). Mixing the salt
  // into the input (not just XORing the output) keeps the two candidate
  // sequences decorrelated across salts.
  const uint64_t h1 =
      Fmix64(salt ^ (0x9E3779B97F4A7C15ULL * (bucket + 1)));
  const uint64_t h2 =
      Fmix64(~salt ^ (0xC2B2AE3D27D4EB4FULL * (bucket + 1)));
  uint32_t c1 = static_cast<uint32_t>(h1 % num_shards);
  uint32_t c2 = static_cast<uint32_t>(h2 % num_shards);
  if (c1 == c2 && num_shards > 1) {
    // Force distinct candidates: a bucket whose two choices collapse to one
    // shard would lose the whole power-of-two-choices benefit. The added
    // offset is in [1, num_shards - 1], so c2 can never wrap back onto c1.
    c2 = static_cast<uint32_t>(
        (c2 + 1 + (h2 / num_shards) % (num_shards - 1)) % num_shards);
  }
  return {c1, c2};
}

RoutingDirectory BuildTwoChoiceDirectory(
    const std::vector<double>& bucket_weights, size_t num_shards,
    uint64_t salt) {
  assert(num_shards >= 1 && num_shards <= 65536);
  assert(!bucket_weights.empty());
  RoutingDirectory directory;
  directory.bucket_to_shard.assign(bucket_weights.size(), 0);
  directory.shard_weights.assign(num_shards, 0.0);
  if (num_shards == 1) {
    // Every bucket routes to shard 0, which therefore carries the whole
    // mass — keep the "weights it was balanced against" invariant intact.
    for (const double w : bucket_weights) directory.shard_weights[0] += w;
    return directory;
  }

  // Heaviest-first greedy: placing the chunky buckets while every shard is
  // still near-empty lets the long tail of light buckets smooth out the
  // residual imbalance (the same reason LPT scheduling sorts descending).
  std::vector<uint32_t> order(bucket_weights.size());
  for (size_t b = 0; b < order.size(); ++b) {
    order[b] = static_cast<uint32_t>(b);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&bucket_weights](uint32_t a, uint32_t b) {
                     return bucket_weights[a] > bucket_weights[b];
                   });

  for (const uint32_t bucket : order) {
    const auto [c1, c2] = TwoChoiceCandidates(bucket, salt, num_shards);
    // Lighter candidate wins; ties break toward the lower shard id so the
    // directory is a pure function of (weights, num_shards, salt).
    const uint32_t lighter =
        directory.shard_weights[c2] < directory.shard_weights[c1]
            ? c2
            : (directory.shard_weights[c1] < directory.shard_weights[c2]
                   ? c1
                   : std::min(c1, c2));
    directory.bucket_to_shard[bucket] = static_cast<uint16_t>(lighter);
    directory.shard_weights[lighter] += bucket_weights[bucket];
  }
  return directory;
}

RoutingDirectory RoutingDirectory::Uniform(size_t num_shards) {
  assert(num_shards >= 1 && num_shards <= 65536);
  RoutingDirectory directory;
  directory.bucket_to_shard.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    directory.bucket_to_shard[s] = static_cast<uint16_t>(s);
  }
  directory.shard_weights.assign(num_shards, 0.0);
  return directory;
}

bool RoutingDirectory::IsUniform() const {
  if (bucket_to_shard.size() != shard_weights.size()) return false;
  for (size_t b = 0; b < bucket_to_shard.size(); ++b) {
    if (bucket_to_shard[b] != b || shard_weights[b] != 0.0) return false;
  }
  return true;
}

double RoutingDirectory::MaxMeanWeightRatio() const {
  if (shard_weights.empty()) return 1.0;
  double max_weight = 0.0;
  double total = 0.0;
  for (const double w : shard_weights) {
    max_weight = std::max(max_weight, w);
    total += w;
  }
  if (total <= 0.0) return 1.0;
  return max_weight / (total / static_cast<double>(shard_weights.size()));
}

std::optional<RoutingDirectory> RoutingDirectory::Read(
    BinaryReader* reader, size_t expected_shards, bool shard_count_prefixed) {
  const uint32_t num_buckets = reader->ReadU32();
  if (!reader->ok() || num_buckets == 0 || num_buckets > kMaxRoutingBuckets ||
      reader->remaining() < size_t{num_buckets} * 2) {
    return std::nullopt;
  }
  RoutingDirectory directory;
  directory.bucket_to_shard.resize(num_buckets);
  for (uint32_t b = 0; b < num_buckets; ++b) {
    const uint16_t lo = reader->ReadU8();
    const uint16_t hi = reader->ReadU8();
    const uint16_t shard = static_cast<uint16_t>(lo | (hi << 8));
    if (shard >= expected_shards) return std::nullopt;
    directory.bucket_to_shard[b] = shard;
  }
  if (shard_count_prefixed && reader->ReadU32() != expected_shards) {
    return std::nullopt;
  }
  directory.shard_weights.resize(expected_shards);
  for (double& weight : directory.shard_weights) {
    weight = reader->ReadDouble();
    if (!reader->ok() || !std::isfinite(weight) || weight < 0.0) {
      return std::nullopt;
    }
  }
  return directory;
}

void WriteRoutingSection(const RoutingDirectory& directory,
                         SectionWriter* container) {
  if (directory.IsUniform()) return;
  std::string payload;
  BinaryWriter writer(&payload);
  writer.WriteU32(static_cast<uint32_t>(directory.num_buckets()));
  for (const uint16_t shard : directory.bucket_to_shard) {
    writer.WriteU8(static_cast<uint8_t>(shard & 0xFF));
    writer.WriteU8(static_cast<uint8_t>(shard >> 8));
  }
  writer.WriteU32(static_cast<uint32_t>(directory.num_shards()));
  for (const double weight : directory.shard_weights) {
    writer.WriteDouble(weight);
  }
  container->AddSection(kRoutingSectionTag, payload);
}

std::optional<RoutingDirectory> ReadRoutingSection(
    const SectionReader& container, size_t num_shards) {
  // Presence is decided by the raw section table, not Find(): Find() treats
  // a CRC-damaged section as absent, which here would mean uniform routing.
  const auto& sections = container.sections();
  const bool present =
      std::any_of(sections.begin(), sections.end(),
                  [](const SectionReader::Section& section) {
                    return section.tag == kRoutingSectionTag;
                  });
  if (!present) return RoutingDirectory::Uniform(num_shards);
  const std::optional<std::string_view> payload =
      container.Find(kRoutingSectionTag);
  if (!payload.has_value()) return std::nullopt;
  BinaryReader reader(*payload);
  std::optional<RoutingDirectory> directory =
      RoutingDirectory::Read(&reader, num_shards, /*shard_count_prefixed=*/true);
  if (reader.remaining() != 0) return std::nullopt;
  return directory;
}

double UniformRoutingMaxMeanRatio(
    const std::vector<std::pair<std::string_view, double>>& weighted_keys,
    uint64_t salt, size_t num_shards) {
  RoutingDirectory uniform = RoutingDirectory::Uniform(num_shards);
  for (const auto& [key, weight] : weighted_keys) {
    uniform.shard_weights[uniform.ShardOf(key, salt)] += weight;
  }
  return uniform.MaxMeanWeightRatio();
}

}  // namespace habf
