// The uniform Filter interface shared by every membership filter in this
// repository, plus the batched query entry point (DESIGN.md §2).
//
// A type F models the Filter concept when, for `const F f`:
//   * f.MightContain(std::string_view) -> bool     — one-sided membership
//     test: never false for a build-set key;
//   * f.MemoryUsageBytes() -> size_t               — resident filter bytes,
//     the space the paper equalizes across competitors;
//   * f.Name() -> const char*                      — short display label.
//
// Filters with a fast native batch path additionally implement
//   * f.ContainsBatch(Span<const std::string_view> keys, uint8_t* out)
//       -> size_t
//     writing out[i] = 1/0 per key and returning the number of positives.
//     Native implementations prefetch key bytes ahead of the first pass that
//     reads them, hash a block of keys first, prefetch every probed
//     bit-array word, then probe — overlapping memory latency across keys
//     instead of stalling on one lookup at a time.
//
// QueryBatch() below dispatches to the native path when present and to a
// per-key fallback otherwise, so measurement code can treat every filter
// uniformly. All query-side entry points are const and safe to call from
// multiple threads concurrently after construction.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

namespace habf {

/// Minimal read-mostly span (C++17 has no std::span). Holds a pointer and a
/// length; does not own the elements.
template <typename T>
class Span {
 public:
  constexpr Span() = default;
  constexpr Span(T* data, size_t size) : data_(data), size_(size) {}

  /// Views a vector's contents (enabled for const element spans).
  template <typename U = T,
            typename = std::enable_if_t<std::is_const_v<U>>>
  Span(const std::vector<std::remove_const_t<T>>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(v.size()) {}

  constexpr T* data() const { return data_; }
  constexpr size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr T& operator[](size_t i) const { return data_[i]; }
  constexpr T* begin() const { return data_; }
  constexpr T* end() const { return data_ + size_; }

  /// The subrange [offset, offset + count); count is clamped to the tail.
  constexpr Span subspan(size_t offset, size_t count) const {
    const size_t avail = offset < size_ ? size_ - offset : 0;
    return Span(data_ + offset, count < avail ? count : avail);
  }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

/// The key batch type every ContainsBatch takes.
using KeySpan = Span<const std::string_view>;

/// How many keys ahead of the one being read the batched read paths
/// prefetch key bytes. Batch keys usually live scattered in a large key set,
/// so reading a key's bytes is a cache miss that the hashing of the keys in
/// between must cover. With 45-byte URL keys routed through 8 shards on a
/// 4-vCPU Xeon VM, 16 beat 4 and 8 in every paired run and tied 32.
inline constexpr size_t kKeyPrefetchDistance = 16;

/// Prefetches the first and last byte of each key in keys[begin, end)
/// (clamped to the span) — both cache lines of a key that straddles one.
/// Empty keys are skipped: their data may be null.
///
/// A pass over keys[0..n) keeps the distance by priming with
/// PrefetchKeys(keys, 0, kKeyPrefetchDistance) and then, before reading
/// keys[i, i + c), calling PrefetchKeys(keys, i + kKeyPrefetchDistance,
/// i + c + kKeyPrefetchDistance).
inline void PrefetchKeys(KeySpan keys, size_t begin, size_t end) {
  if (end > keys.size()) end = keys.size();
  for (size_t i = begin; i < end; ++i) {
    const std::string_view key = keys[i];
    if (key.empty()) continue;
    __builtin_prefetch(key.data(), 0, 3);
    __builtin_prefetch(key.data() + key.size() - 1, 0, 3);
  }
}

/// A span of key views — the build-set type of the span-based build entry
/// points (Habf::Build, BuildShardedHabf). Deliberately the same type as
/// KeySpan (the name marks build-set vs. query-batch intent); the viewed
/// key bytes live in caller storage and must outlive the call.
using StringSpan = KeySpan;

/// Non-owning counterpart of WeightedKey (bloom/weighted_bloom.h): a key
/// view with its misidentification cost Θ(e). Lets the sharded build
/// partition weighted negatives without copying key bytes.
struct WeightedKeyView {
  std::string_view key;
  double cost = 1.0;

  constexpr WeightedKeyView() = default;
  constexpr WeightedKeyView(std::string_view k, double c) : key(k), cost(c) {}
};

/// The weighted-negative batch type of the span-based build entry points.
using WeightedKeySpan = Span<const WeightedKeyView>;

/// Detects a native `size_t ContainsBatch(KeySpan, uint8_t*) const`.
template <typename F, typename = void>
struct HasNativeBatch : std::false_type {};
template <typename F>
struct HasNativeBatch<
    F, std::void_t<decltype(static_cast<size_t>(
           std::declval<const F&>().ContainsBatch(
               std::declval<KeySpan>(), std::declval<uint8_t*>())))>>
    : std::true_type {};

/// Per-key fallback with ContainsBatch semantics: out[i] = 1 iff keys[i]
/// tests positive; returns the positive count.
template <typename F>
size_t GenericContainsBatch(const F& filter, KeySpan keys, uint8_t* out) {
  size_t positives = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool hit = filter.MightContain(keys[i]);
    out[i] = hit ? 1 : 0;
    positives += hit ? 1 : 0;
  }
  return positives;
}

/// Batched query over any Filter: the native ContainsBatch when the filter
/// has one, the per-key fallback otherwise.
template <typename F>
size_t QueryBatch(const F& filter, KeySpan keys, uint8_t* out) {
  if constexpr (HasNativeBatch<F>::value) {
    return filter.ContainsBatch(keys, out);
  } else {
    return GenericContainsBatch(filter, keys, out);
  }
}

/// Non-owning type-erased view of any Filter, for code that iterates over
/// heterogeneous filters (benches, the CLI) without templates. The viewed
/// filter must outlive the ref.
class FilterRef {
 public:
  template <typename F>
  explicit FilterRef(const F& filter)
      : obj_(&filter),
        name_(filter.Name()),
        might_contain_([](const void* obj, std::string_view key) {
          return static_cast<const F*>(obj)->MightContain(key);
        }),
        contains_batch_([](const void* obj, KeySpan keys, uint8_t* out) {
          return QueryBatch(*static_cast<const F*>(obj), keys, out);
        }),
        memory_usage_([](const void* obj) {
          return static_cast<const F*>(obj)->MemoryUsageBytes();
        }) {}

  bool MightContain(std::string_view key) const {
    return might_contain_(obj_, key);
  }
  size_t ContainsBatch(KeySpan keys, uint8_t* out) const {
    return contains_batch_(obj_, keys, out);
  }
  size_t MemoryUsageBytes() const { return memory_usage_(obj_); }
  const char* Name() const { return name_; }

 private:
  const void* obj_;
  const char* name_;
  bool (*might_contain_)(const void*, std::string_view);
  size_t (*contains_batch_)(const void*, KeySpan, uint8_t*);
  size_t (*memory_usage_)(const void*);
};

}  // namespace habf
