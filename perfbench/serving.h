// The wire side of the benchmark: a timing decorator and a null backend for
// net::Server, the closed-loop HNP1 client every serving measurement uses,
// and the mutation-driven compactor of serve_mutate.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_filter.h"
#include "harness.h"
#include "net/server.h"
#include "util/annotated_sync.h"

namespace perfbench {

/// Wraps a backend and adds up the time spent in it, per call kind. The
/// counters are relaxed atomics, since every server worker calls in.
class TimingBackend final : public habf::net::ServerBackend {
 public:
  explicit TimingBackend(habf::net::ServerBackend* inner) : inner_(inner) {}

  size_t QueryBatch(habf::KeySpan keys, uint8_t* out) const override;
  bool Mutate(bool insert, habf::KeySpan keys, uint64_t* applied,
              std::string* error) override;

  struct Totals {
    uint64_t query_calls = 0;
    uint64_t query_keys = 0;
    uint64_t query_ns = 0;
    uint64_t mutate_calls = 0;
    uint64_t mutate_ns = 0;
  };
  Totals totals() const;

 private:
  habf::net::ServerBackend* inner_;
  mutable std::atomic<uint64_t> query_calls_{0};
  mutable std::atomic<uint64_t> query_keys_{0};
  mutable std::atomic<uint64_t> query_ns_{0};
  std::atomic<uint64_t> mutate_calls_{0};
  std::atomic<uint64_t> mutate_ns_{0};
};

/// Answers every key with 1 and accepts every mutation, doing no filter
/// work: the network, protocol and server floor.
class NullBackend final : public habf::net::ServerBackend {
 public:
  size_t QueryBatch(habf::KeySpan keys, uint8_t* out) const override;
  bool Mutate(bool insert, habf::KeySpan keys, uint64_t* applied,
              std::string* error) override;
};

/// Cycles through a fixed key stream in blocks of `block` keys, one query
/// frame a block, each key expecting its in-process answer.
class StreamBlockSource final : public RequestSource {
 public:
  StreamBlockSource(habf::KeySpan stream, const uint8_t* answers, size_t block,
                    size_t first_block)
      : stream_(stream), answers_(answers), block_(block),
        next_(first_block * block % stream.size()) {}
  void Next(PlannedRequest* out) override;

 private:
  habf::KeySpan stream_;
  const uint8_t* answers_;
  size_t block_;
  size_t next_;
};

struct WireLoadOptions {
  uint16_t port = 0;
  /// Requests each connection keeps in flight (closed loop).
  size_t window = 8;
  /// Time before measuring starts; requests sent in it are not recorded.
  double warmup_s = 0.5;
  double seconds = 1.0;
  /// Check answers against each request's expectations.
  bool check_answers = true;
  /// Called after each acknowledged mutation frame with its key count.
  std::function<void(size_t)> on_mutation_ack;
};

struct WireLoadResult {
  uint64_t requests_sent = 0;
  /// Requests answered with kOpError, or never answered.
  uint64_t errors = 0;
  /// Answers that broke an expectation (a member or acknowledged insert
  /// answering 0, or a static answer differing from in process).
  uint64_t wrong_answers = 0;
  /// Keys whose mutations were acknowledged in the measured interval.
  uint64_t mutate_keys = 0;
  /// Query requests answered in the measured interval, by second.
  ChunkedSamples query;
  /// Latency of mutation requests acknowledged in the measured interval.
  std::vector<uint64_t> mutate_latency_ns;
  double measured_s = 0.0;
  std::string first_error;
};

/// Whether this process's wire loads ran pinned (client connections on CPUs
/// 0-1, server threads on 2-3): "yes: ...", "partly: ..." or "no: <why>".
std::string CpuPinning();

/// Runs one closed-loop connection per source against 127.0.0.1:port, each
/// keeping `window` requests in flight, for warmup + seconds, then drains
/// what is still in flight. False when a connection could not be opened or
/// broke (the result still holds what was measured).
bool RunWireLoad(const WireLoadOptions& options,
                 const std::vector<RequestSource*>& sources,
                 WireLoadResult* result);

/// Starts a net::Server with `workers` workers over `backend`, runs the
/// load against it (options.port is set here), and drains the server.
/// Gates the result: every request answered, every expectation met, no
/// protocol errors. Returns the server's counters and the load's wall time.
struct ServedLoad {
  WireLoadResult load;
  habf::net::ServerStats stats;
  double wall_s = 0.0;
};
ServedLoad RunServedLoad(habf::net::ServerBackend* backend, size_t workers,
                         WireLoadOptions options,
                         const std::vector<RequestSource*>& sources,
                         Gate* gate);

/// Dirty fraction at which serve_mutate and the dynamic rung compact a
/// shard: 1%, not the library's 5%, so a run at full speed compacts every
/// few seconds and a slower run compacts less often, rather than the
/// threshold deciding whether a run compacts at all.
constexpr double kDirtyFractionThreshold = 0.01;

/// Calls CompactDirtyShards whenever some shard's dirty fraction passes the
/// filter's threshold, checked after every 64 acknowledged mutation keys,
/// so compaction work follows the mutation count, not the clock. Each pass
/// is timed from outside.
class MutationCompactor {
 public:
  MutationCompactor(habf::DynamicShardedHabf* filter, double threshold);
  ~MutationCompactor();
  MutationCompactor(const MutationCompactor&) = delete;
  MutationCompactor& operator=(const MutationCompactor&) = delete;

  void OnMutationAck(size_t keys) HABF_EXCLUDES(mu_);
  /// Stops the thread; safe to call twice.
  void Stop() HABF_EXCLUDES(mu_);

  /// Wall time of each pass that rebuilt at least one shard.
  std::vector<uint64_t> pass_ns() const HABF_EXCLUDES(mu_);
  size_t max_delta_keys() const HABF_EXCLUDES(mu_);

 private:
  void Loop() HABF_EXCLUDES(mu_);

  habf::DynamicShardedHabf* filter_;
  double threshold_;
  mutable habf::Mutex mu_;
  habf::CondVar cv_;
  size_t pending_keys_ HABF_GUARDED_BY(mu_) = 0;
  bool stop_ HABF_GUARDED_BY(mu_) = false;
  std::vector<uint64_t> pass_ns_ HABF_GUARDED_BY(mu_);
  size_t max_delta_keys_ HABF_GUARDED_BY(mu_) = 0;
  std::thread thread_;  // last: started after the state it uses
};

}  // namespace perfbench
