// Shard routing (DESIGN.md §6): every key finds its shard through a compact
// bucket→shard directory, and this is the only routing function there is:
//
//   bucket   = XxHash64(key, salt) % num_buckets     (RoutingBucketOfKey)
//   shard    = directory.bucket_to_shard[bucket]     (RoutingDirectory::ShardOf)
//
// Uniform routing is the identity directory (RoutingDirectory::Uniform): one
// bucket per shard, bucket b → shard b, so a key lands on
// XxHash64(key, salt) % num_shards. That balances shard *key counts* but is
// blind to key weight: under a Zipf-weighted or adversarial single-hot-key
// set, whichever shard the heavy keys happen to hash into carries an outsized
// share of the cost mass, degrading that shard's bits-per-key. The classic
// balls-into-bins result says assigning each ball to the lighter of two
// random bins bounds the maximum load exponentially tighter than one random
// choice — the two-choice directory applies it at *bucket* granularity, so
// query routing stays the same single O(1) table lookup.
//
// At build time every bucket accumulates the cumulative weight of its keys
// (1.0 per positive, Θ(e) per weighted negative), then buckets are assigned
// heaviest-first to the lighter of their two hash-derived candidate shards.
// Granularity caveat: a directory can balance no finer than one bucket, so
// the achievable max/mean shard-weight ratio is floored by
// max_bucket_weight / mean_shard_weight; with the default 4096 buckets that
// floor is negligible unless a single key carries more than a shard's fair
// share of the total weight.
//
// The directory is persisted as the RDIR section of the sharded and dynamic
// HBF1 snapshots (WriteRoutingSection / ReadRoutingSection), omitted when it
// is the uniform one, so a restored filter routes identically.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hashing/xxhash.h"
#include "util/serde.h"

namespace habf {

/// Default routing-directory size: 512 buckets per shard at the common 8-way
/// sharding, small enough to stay resident (8 KiB of entries) and large
/// enough that no bucket aggregates a meaningful weight share by accident.
constexpr size_t kDefaultRoutingBuckets = 4096;

/// Upper bound on the bucket count accepted from a snapshot header; anything
/// larger is a corrupt or hostile file, not a real deployment.
constexpr size_t kMaxRoutingBuckets = size_t{1} << 20;

/// HBF1 section tag of a persisted routing directory, shared by the sharded
/// (SHRD) and dynamic (DYNF) snapshots.
constexpr uint32_t kRoutingSectionTag = FourCc("RDIR");

/// Routing bucket of `key` under `salt`: a hash stream independent of every
/// filter-internal probe hash.
inline size_t RoutingBucketOfKey(std::string_view key, uint64_t salt,
                                 size_t num_buckets) {
  return static_cast<size_t>(XxHash64(key.data(), key.size(), salt) %
                             num_buckets);
}

/// The two candidate shards of `bucket`: derived from the bucket index and
/// the routing salt (never from key bytes), so they are reproducible from
/// the persisted header alone. The pair is distinct whenever num_shards > 1.
std::pair<uint32_t, uint32_t> TwoChoiceCandidates(size_t bucket, uint64_t salt,
                                                  size_t num_shards);

/// A bucket→shard routing table plus the per-shard cumulative weights it was
/// balanced against (kept for the stats routing-balance report; queries only
/// read bucket_to_shard).
struct RoutingDirectory {
  /// One shard id per bucket; entries are < shard_weights.size(). 16-bit:
  /// the snapshot bound kMaxSnapshotShards (4096) fits with headroom.
  std::vector<uint16_t> bucket_to_shard;
  /// Cumulative routed key weight per shard at build time.
  std::vector<double> shard_weights;

  /// The uniform directory over `num_shards` shards: bucket b routes to
  /// shard b and every weight is zero, so ShardOf is
  /// XxHash64(key, salt) % num_shards. Requires 1 <= num_shards <= 65536.
  static RoutingDirectory Uniform(size_t num_shards);

  /// True iff this is Uniform(num_shards()). The snapshot writers omit the
  /// RDIR section exactly then.
  bool IsUniform() const;

  size_t num_buckets() const { return bucket_to_shard.size(); }
  size_t num_shards() const { return shard_weights.size(); }

  /// The shard `key` routes to under `salt` — the one key→shard function of
  /// the sharded build, ShardedFilter and DynamicShardedHabf.
  size_t ShardOf(std::string_view key, uint64_t salt) const {
    return bucket_to_shard[RoutingBucketOfKey(key, salt,
                                              bucket_to_shard.size())];
  }

  /// max(shard weight) / mean(shard weight) — the balance figure the tests
  /// bound and `habf_tool stats` reports. 1.0 is perfect balance; returns
  /// 1.0 when the total weight is zero (nothing to balance).
  double MaxMeanWeightRatio() const;

  /// Reads a directory from `reader`: u32 num_buckets, u16 entries, the u32
  /// shard count if `shard_count_prefixed` (the legacy SHR2 header carries
  /// it elsewhere), f64 weights. `expected_shards` is the enclosing
  /// snapshot's shard count: every entry must name one of its shards.
  /// Returns nullopt on any bound violation, entry out of range, shard count
  /// mismatch, or non-finite/negative weight — the bucket count is bounded
  /// by the bytes left before the vectors are sized.
  static std::optional<RoutingDirectory> Read(BinaryReader* reader,
                                              size_t expected_shards,
                                              bool shard_count_prefixed);
};

/// Adds the RDIR section for `directory` to `container` — u32 num_buckets,
/// u16 little-endian entries, u32 num_shards, f64 weights — unless the
/// directory is uniform (a uniform-routed snapshot carries no RDIR).
void WriteRoutingSection(const RoutingDirectory& directory,
                         SectionWriter* container);

/// Reads the RDIR section of `container` for a snapshot of `num_shards`
/// shards. An absent section is Uniform(num_shards). A section that is
/// present but fails its CRC, does not Read(), or has trailing bytes is
/// nullopt — never uniform routing, which would send most keys of a
/// two-choice filter to the wrong shard.
std::optional<RoutingDirectory> ReadRoutingSection(
    const SectionReader& container, size_t num_shards);

/// Builds the two-choice directory: buckets are assigned heaviest-first
/// (ties toward the lower bucket index) to the lighter of their two
/// candidate shards (ties toward the lower shard id). Deterministic in all
/// inputs. Requires 1 <= num_shards <= 65536 and num_buckets >= 1;
/// `bucket_weights` must be non-negative.
RoutingDirectory BuildTwoChoiceDirectory(
    const std::vector<double>& bucket_weights, size_t num_shards,
    uint64_t salt);

/// Balance of uniform routing over the same weighted key set — the baseline
/// the two-choice directory is measured against. Routes each (key, weight)
/// pair through Uniform(num_shards) and returns max/mean shard weight.
double UniformRoutingMaxMeanRatio(
    const std::vector<std::pair<std::string_view, double>>& weighted_keys,
    uint64_t salt, size_t num_shards);

}  // namespace habf
