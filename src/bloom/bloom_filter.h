// Standard Bloom filter over an indexed hash family, with the per-key
// function-subset hooks the HABF core needs (§III: every key is tested with
// its own k-subset φ(e) of the global family H).

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/filter_interface.h"
#include "hashing/hash_provider.h"
#include "util/bitvector.h"

namespace habf {

/// Bloom filter whose k probe positions are `provider` functions selected by
/// index. The default function subset is used by Add/MightContain; the
/// *With() variants take an explicit subset so HABF can customize φ(e) per
/// key.
///
/// Bit position of function `idx` on key e is provider->Value(e, idx) % m.
class BloomFilter {
 public:
  /// Creates a filter of `num_bits` bits probing with `default_fns` (indices
  /// into `provider`, which must outlive the filter).
  BloomFilter(size_t num_bits, const HashProvider* provider,
              std::vector<uint8_t> default_fns);

  /// Inserts `key` with the default function subset.
  void Add(std::string_view key);

  /// Tests `key` with the default function subset.
  bool MightContain(std::string_view key) const;

  /// Batched test of every key with the default function subset (Filter
  /// concept): out[i] = 1/0 per key; returns the number of positives.
  /// Prefetches key bytes, hashes a block of keys, prefetches every probed
  /// bit-array word, then probes — hiding memory latency that MightContain
  /// pays per key.
  size_t ContainsBatch(KeySpan keys, uint8_t* out) const {
    const uint8_t* fns = default_fns_.data();
    return TestBatchWithResolver(
        keys, default_fns_.size(), [fns](size_t, uint8_t*) { return fns; },
        out);
  }

  /// The generic prefetching hash-then-probe loop behind every batch test:
  /// `fns_for(i, scratch)` returns key i's n function indices (writing into
  /// `scratch[0..31]` if it needs storage), so per-key-subset filters like
  /// PartitionedBloomFilter reuse the same loop.
  template <typename FnsFor>
  size_t TestBatchWithResolver(KeySpan keys, size_t n, FnsFor&& fns_for,
                               uint8_t* out) const {
    assert(n <= 32);
    constexpr size_t kBlock = 32;
    const uint64_t* words = bits_.words().data();
    size_t positions[kBlock][32];
    size_t positives = 0;
    PrefetchKeys(keys, 0, kKeyPrefetchDistance);
    for (size_t base = 0; base < keys.size(); base += kBlock) {
      const size_t count =
          keys.size() - base < kBlock ? keys.size() - base : kBlock;
      // Stage 0: prefetch key bytes ahead, for callers whose keys no earlier
      // pass has read.
      PrefetchKeys(keys, base + kKeyPrefetchDistance,
                   base + count + kKeyPrefetchDistance);
      // Stage 1: hash key by key and prefetch each key's probed words as
      // soon as they are known, so the loads of one key overlap the hashing
      // of the next. (Hashing the block function by function instead
      // delays every load to the end of the stage; on ~4-key blocks that
      // measured ~10% slower end to end on a 4-vCPU Xeon VM.)
      for (size_t i = 0; i < count; ++i) {
        uint8_t scratch[32];
        const uint8_t* fns = fns_for(base + i, scratch);
        uint64_t values[32];
        provider_->Values(keys[base + i], fns, n, values);
        for (size_t j = 0; j < n; ++j) {
          const size_t pos = static_cast<size_t>(values[j] % num_bits_);
          positions[i][j] = pos;
          __builtin_prefetch(&words[pos >> 6], 0, 3);
        }
      }
      // Stage 2: probe; by now the words are (likely) in cache.
      for (size_t i = 0; i < count; ++i) {
        bool hit = true;
        for (size_t j = 0; j < n; ++j) {
          const size_t pos = positions[i][j];
          if (!((words[pos >> 6] >> (pos & 63)) & 1u)) {
            hit = false;
            break;
          }
        }
        out[base + i] = hit ? 1 : 0;
        positives += hit ? 1 : 0;
      }
    }
    return positives;
  }

  /// Inserts `key` using explicit function indices `fns[0..n)`.
  void AddWith(std::string_view key, const uint8_t* fns, size_t n);

  /// Tests `key` using explicit function indices. With a provider whose
  /// functions are independent hashes, positions are hashed one function at
  /// a time and the test stops at the first clear bit; a shared-digest
  /// provider is evaluated with one Values() call.
  bool TestWith(std::string_view key, const uint8_t* fns, size_t n) const;

  /// Bit position of function `fn_idx` applied to `key`.
  size_t PositionOf(std::string_view key, uint8_t fn_idx) const {
    return static_cast<size_t>(provider_->Value(key, fn_idx) % num_bits_);
  }

  /// Direct bit access for the TPJO optimizer and the HABF read kernel.
  bool GetBit(size_t pos) const { return bits_.Get(pos); }
  void PrefetchBit(size_t pos) const {
    __builtin_prefetch(&bits_.words()[pos >> 6], 0, 3);
  }
  void SetBit(size_t pos) { bits_.Set(pos); }
  void ClearBit(size_t pos) { bits_.Clear(pos); }

  size_t num_bits() const { return num_bits_; }
  size_t num_hashes() const { return default_fns_.size(); }
  const std::vector<uint8_t>& default_fns() const { return default_fns_; }
  const HashProvider* provider() const { return provider_; }
  /// provider()->SharesDigests(), read once at construction.
  bool shares_digests() const { return shares_digests_; }
  const char* Name() const { return "bloom"; }

  /// Fraction of set bits (diagnostic; the load factor drives FPR).
  double FillRatio() const {
    return num_bits_ == 0
               ? 0.0
               : static_cast<double>(bits_.CountOnes()) /
                     static_cast<double>(num_bits_);
  }

  /// Heap bytes of the bit array.
  size_t MemoryUsageBytes() const { return bits_.MemoryUsageBytes(); }

  /// Read access to the packed bit array (serialization, tests).
  const BitVector& bits() const { return bits_; }

  /// Replaces the bit array contents (deserialization); false on a word
  /// count mismatch.
  bool LoadBits(std::vector<uint64_t> words) {
    return bits_.LoadWords(std::move(words));
  }

 private:
  size_t num_bits_;
  const HashProvider* provider_;
  bool shares_digests_;
  std::vector<uint8_t> default_fns_;
  BitVector bits_;
};

/// Bloom filter deriving its k probes from one base function evaluated with
/// k seeds — the BF(City64) / BF(XXH128) baselines of Fig. 14.
class SeededBloomFilter {
 public:
  /// `fn` is any Table II member; probes use seeds seed_base..seed_base+k-1.
  SeededBloomFilter(size_t num_bits, size_t k, HashFn fn,
                    uint64_t seed_base = 0x5851f42d4c957f2dULL);

  void Add(std::string_view key);
  bool MightContain(std::string_view key) const;

  size_t num_bits() const { return num_bits_; }
  size_t num_hashes() const { return k_; }
  size_t MemoryUsageBytes() const { return bits_.MemoryUsageBytes(); }
  const char* Name() const { return "seeded-bloom"; }

 private:
  size_t num_bits_;
  size_t k_;
  HashFn fn_;
  uint64_t seed_base_;
  BitVector bits_;
};

/// The paper's sizing rule: k = ln2 * bits-per-key, clamped to [1, max_k].
size_t OptimalNumHashes(double bits_per_key, size_t max_k = 22);

}  // namespace habf
