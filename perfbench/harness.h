// Shared pieces of the repository benchmark (perfbench/README.md): the
// percentile rule, the weighted-FPR arithmetic, span tracing with self-time
// subtraction, the seeded input generators of every workload, and the
// result printer. Everything here is deterministic or pure, so the
// self-tests (selftest.cc) can pin it down.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/weighted_bloom.h"
#include "util/rng.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- percentiles -------------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least pct% of the samples at or below it. 0 for an empty sample.
double PercentileOfSorted(const std::vector<uint64_t>& sorted, double pct);

/// The highest percentile of {50, 90, 95, 99, 99.9, 99.99} that still has at
/// least ten of `n` samples strictly beyond its rank, or 0 when even the
/// median has fewer (n < 20).
double TailPercentile(size_t n);

/// A timing sample reduced to what the benchmark reports.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  /// The 99th percentile when it has ten samples beyond it, otherwise the
  /// value at `tail_pct` (the highest percentile that does).
  double p99 = 0.0;
  double p99_pct = 0.0;
  /// Highest percentile with ten samples beyond it, and its value.
  double tail_pct = 0.0;
  double tail = 0.0;
  double max = 0.0;
};

/// Sorts `samples` in place and summarizes them.
Summary Summarize(std::vector<uint64_t>* samples);

/// Latency samples of one load, split by completion time into equal chunks
/// of about a second. The run reports the median chunk: a burst of host
/// noise moves the one or two chunks it falls in, not the result.
class ChunkedSamples {
 public:
  ChunkedSamples() = default;
  /// Chunks cover [start_ns, start_ns + seconds); operations completing
  /// outside are ignored. Every operation's keys count; the latency of
  /// every `sample_every`-th one is kept, so the samples' memory stays a
  /// few MB however fast the program runs.
  ChunkedSamples(uint64_t start_ns, double seconds, uint64_t sample_every = 1);

  /// One completed operation: when it completed, its latency, and the keys
  /// it answered.
  void Add(uint64_t done_ns, uint64_t latency_ns, uint64_t keys);
  /// Adds another load's samples over the same chunks.
  void Merge(const ChunkedSamples& other);

  struct Reduced {
    Summary all;            // every sample of every chunk
    size_t chunks = 0;
    double keys_per_s = 0;  // median over chunks
    double p50 = 0;         // median over chunks of each chunk's p50
    /// Median over chunks of each chunk's p99 when every chunk has ten
    /// samples beyond its p99; otherwise the whole load's tail (all.p99).
    double p99 = 0;
    bool p99_by_chunk = false;
  };
  Reduced Reduce() const;

 private:
  uint64_t start_ns_ = 0;
  uint64_t chunk_ns_ = 1;
  uint64_t sample_every_ = 1;
  uint64_t operations_ = 0;
  std::vector<std::vector<uint64_t>> latency_ns_;
  std::vector<uint64_t> keys_;
};

/// Median of a small vector of repeat results (mean of the middle two for an
/// even count). 0 when empty.
double Median(std::vector<double> values);

// --- weighted FPR ------------------------------------------------------------

/// Cost-weighted false-positive rate (paper Eq. 20): the sum of the costs of
/// the keys answered positive over the sum of all costs. 0 when the costs sum
/// to 0.
double WeightedFpr(const std::vector<double>& costs,
                   const std::vector<uint8_t>& answers);

// --- span tracing ------------------------------------------------------------

/// One closed span: `parent` is the id of the span open on the same log when
/// this one began (0 = root). Ids start at 1 within a log.
struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Spans of one thread, kept in memory until the run ends. Not thread-safe:
/// one log per thread.
class SpanLog {
 public:
  uint32_t Begin(const char* name, uint64_t now_ns);
  void End(uint32_t id, uint64_t now_ns);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  void Clear();

 private:
  std::vector<SpanRecord> spans_;
  std::vector<uint32_t> open_;  // stack of open span ids (index = id - 1)
};

/// Opens a span for its scope when `log` is non-null; no-op otherwise, so
/// the untraced run pays one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log == nullptr ? 0 : log->Begin(name, NowNs())) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_;
};

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  /// Total minus the part of each span's interval its direct children
  /// cover (overlapping children are counted once).
  uint64_t self_ns = 0;
};

/// Per-name totals and self times over the spans of one log.
std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<SpanRecord>& spans);

// --- workload inputs ---------------------------------------------------------

/// lookup_local inputs: ShallaLike URL keys with Zipf(1.0) negative costs,
/// a disjoint set of unseen keys, and the fixed query stream (10% members,
/// 80% known negatives drawn in proportion to cost, 10% unseen keys).
struct LookupInputs {
  std::vector<std::string> positives;
  std::vector<habf::WeightedKey> negatives;
  std::vector<std::string> unseen;
  std::vector<std::string_view> stream;
  /// 1 where stream[i] is a member.
  std::vector<uint8_t> stream_member;
};

struct LookupSizes {
  size_t positives = 2000000;
  size_t negatives = 2000000;
  size_t unseen = 1 << 18;
  size_t stream = 1 << 20;
};

LookupInputs MakeLookupInputs(uint64_t seed, const LookupSizes& sizes);

/// Key space of the serving workloads, over WorkloadStreamKey(seed, i):
/// [0, members) are the served members, [members, members + negatives) the
/// known negatives the filter is built against, at unit cost (the paper's
/// uniform-cost case; lookup_local carries the skewed one), and the next
/// `unseen` indices keys the filter never saw. Queries draw uniformly from
/// the whole space, so half of them are members.
struct ServeKeySpace {
  uint64_t seed = 0;
  size_t members = 200000;
  size_t negatives = 100000;
  size_t unseen = 100000;
  size_t size() const { return members + negatives + unseen; }
};

struct ServeInputs {
  std::vector<std::string> keys;  // the whole key space, by index
  size_t members = 0;
  std::vector<double> negative_costs;
  std::vector<std::string> Members() const;
  std::vector<habf::WeightedKey> Negatives() const;
};

ServeInputs MakeServeInputs(const ServeKeySpace& space);

/// One request of a serving connection's schedule.
struct PlannedRequest {
  enum Kind : uint8_t { kQuery = 0, kInsert = 1, kRemove = 2 };
  Kind kind = kQuery;
  std::vector<std::string_view> keys;
  /// Per query key: 1 = must answer positive, 0 = must answer negative,
  /// -1 = either (a non-member whose answer the schedule cannot know).
  std::vector<int8_t> expect;
};

/// Where a connection's requests come from.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  /// Fills `*out` with the next request. The key views stay valid while
  /// the source lives.
  virtual void Next(PlannedRequest* out) = 0;
};

/// Deterministic request schedule of one serving connection. Query frames
/// carry one key drawn uniformly from the key space. With mutations, one
/// frame in `mutate_every` is an 8-key mutation: inserts of fresh keys, and
/// every fourth mutation removes an earlier insert batch whose number is a
/// multiple of 3 (those batches are never queried). One query in eight
/// instead probes a never-removed insert batch at least `window` requests
/// old -- acknowledged for certain, since at most `window` requests are in
/// flight -- which must answer positive.
class RequestPlan final : public RequestSource {
 public:
  static constexpr size_t kMutationKeys = 8;

  /// `answers`, when given, holds the in-process answer of every key-space
  /// index, and each query then expects exactly that answer (the wire vs
  /// in-process differential of a static backend).
  RequestPlan(const ServeInputs* inputs, const ServeKeySpace& space,
              size_t connection, size_t window, size_t mutate_every,
              const std::vector<uint8_t>* answers = nullptr);

  void Next(PlannedRequest* out) override;

  /// Keys of insert batch `b`, owned by the plan.
  const std::vector<std::string>& BatchKeys(size_t b) const {
    return batches_[b].keys;
  }
  size_t num_batches() const { return batches_.size(); }
  /// True when batch `b` is never removed by the schedule.
  static bool Kept(size_t b) { return b % 3 != 0; }

 private:
  struct Batch {
    std::vector<std::string> keys;
    uint64_t position = 0;  // request number of the insert
  };

  const ServeInputs* inputs_;
  ServeKeySpace space_;
  size_t connection_;
  size_t window_;
  size_t mutate_every_;
  const std::vector<uint8_t>* answers_;
  habf::Xoshiro256 rng_;
  uint64_t position_ = 0;
  uint64_t mutations_ = 0;
  size_t next_removal_ = 0;  // next batch number considered for removal
  size_t kept_acked_ = 0;    // prefix of kept_ whose inserts are >= window old
  std::deque<Batch> batches_;  // deque: keys never move once planned
  std::vector<size_t> kept_;  // kept batch numbers, in insert order
};

// --- correctness gates -------------------------------------------------------

/// The correctness gates of one run: operations attempted, operations that
/// broke a gate, and a description of each broken gate.
struct Gate {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;

  /// Records `failed_ops` failed operations under `what` unless `ok`.
  void Check(bool ok, const std::string& what, uint64_t failed_ops = 1) {
    if (ok) return;
    failed += failed_ops;
    violations.push_back(what);
  }
  bool ok() const { return violations.empty(); }
};

// --- host and result ---------------------------------------------------------

/// nproc, CPU model, compiler, build type, plus caller-supplied entries
/// (git SHA, source hash, WAL filesystem), as one JSON object.
std::string HostFingerprintJson(
    const std::vector<std::pair<std::string, std::string>>& extra);

/// Share of all CPU time the hypervisor stole between two readings of the
/// kernel's CPU counters (/proc/stat), to tell a noisy host from a slow
/// program. Readings are {steal, total} jiffies.
std::pair<uint64_t, uint64_t> ReadCpuSteal();
double StealFraction(std::pair<uint64_t, uint64_t> before,
                     std::pair<uint64_t, uint64_t> after);

/// Filesystem type name of `path` (statfs), e.g. "tmpfs" or "ext4".
std::string FilesystemOf(const std::string& path);

/// One reported metric: value, unit, sample count (0 = not a sampled
/// timing), and a note (e.g. which percentile a tail really is).
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  std::string note;
};

/// Ordered metric table of one run.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, const std::string& note = "");
  bool Has(const std::string& name) const;
  /// Human-readable table, one metric a line.
  std::string Table() const;
  /// The final result line: {"correct", "attempted", "failed", "metrics"}
  /// with the metrics named in `names` (all of them when empty).
  std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& names) const;

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
};

/// Round-trip decimal form of `v` (all digits kept).
std::string FormatDouble(double v);

/// Four significant digits, for notes meant to be read.
std::string Brief(double v);

}  // namespace perfbench
