// The per-layer ladder of the traced run (perfbench/README.md). Each rung
// times calls into one module's public functions from here, so a layer's
// cost is a subtraction between neighbouring rungs. The rungs also run the
// correctness gates that need every layer's answers side by side.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/habf.h"
#include "core/sharded_filter.h"
#include "harness.h"
#include "serving.h"

namespace perfbench {

using ShardedHabf = habf::ShardedFilter<habf::Habf>;

/// Passes over the probe keys per timed rung; the median pass is reported.
constexpr int kLadderPasses = 5;

/// Median ns of each rung over kLadderPasses rounds. Every round runs each
/// rung once, in order, so drift over the run hits all rungs alike and the
/// subtractions between them stay fair.
std::vector<double> InterleavedMedianNs(
    const std::vector<std::function<void()>>& rungs);

/// ns per call of `acquire()`, a snapshot pin plus its release.
template <typename Acquire>
double MeasureAcquireNs(Acquire&& acquire) {
  constexpr size_t kCalls = 1 << 18;
  size_t sink = 0;
  const double ns = InterleavedMedianNs({[&] {
    for (size_t i = 0; i < kCalls; ++i) sink += acquire() ? 1 : 0;
  }})[0];
  return sink == 0 ? 0.0 : ns / kCalls;
}

/// Read-path rungs over `filter` and the probe keys, in 32-key blocks:
/// hashing (H0 values), bloom (round 1), habf (scalar Contains and
/// per-shard ContainsBatch on routed groups), hash_expressor (round 2, by
/// subtraction) and sharded (ContainsBatch; routing by subtraction). Gates:
/// scalar, per-shard batch, sharded batch and sharded scalar answers agree
/// on every key, and every member answers 1.
void RunFilterRungs(const ShardedHabf& filter, habf::KeySpan probes,
                    const std::vector<uint8_t>& probe_member, Report* report,
                    Gate* gate);

/// Build rungs: BuildShardedHabf on nproc threads against a serial
/// Habf::Build of every shard with the same per-shard options. Gate: the
/// serial shards answer exactly like the parallel ones.
void RunBuildRungs(habf::StringSpan positives, habf::WeightedKeySpan negatives,
                   const habf::HabfOptions& options, size_t num_shards,
                   Report* report, Gate* gate);

/// Protocol rung: encodes and decodes the workload's own request frames and
/// their responses. Gate: every decoded frame carries the encoded keys.
void RunProtocolRung(const std::vector<PlannedRequest>& requests,
                     Report* report, Gate* gate);

/// Server metrics of one traced wire load against a TimingBackend.
void ReportServerLayer(const TimingBackend::Totals& totals,
                       const habf::net::ServerStats& stats, size_t workers,
                       double wall_s, Report* report);

/// Mutation-ack metrics of a wire load (mutate_keys_per_s, mutate_p50_us,
/// mutate_p99_us) and its error_frac.
void ReportMutationAcks(WireLoadResult* load, Report* report);

struct DynamicRungOptions {
  std::string wal_dir;
  /// Also drive a short serve_mutate-shaped wire load through the rung's
  /// filter, for workloads whose own load sends no mutations.
  bool wire_mutations = false;
  /// Seed of the fresh keys the rung inserts.
  uint64_t seed = 0;
};

/// Dynamic-tier and WAL rungs over a fresh DynamicShardedHabf of the key
/// space's members and known negatives: overlay cost at 0%, 1% and 10% of
/// the base resident in the delta, insert cost without and with
/// durability, a compaction, and recovery through Open. Gates: every
/// insert answers 1 once acknowledged, and again after Open.
void RunDynamicRung(const ServeInputs& inputs, const ServeKeySpace& space,
                    habf::KeySpan probes, const DynamicRungOptions& options,
                    std::vector<uint64_t>* compaction_ns, Report* report,
                    Gate* gate);

}  // namespace perfbench
