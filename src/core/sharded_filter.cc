#include "core/sharded_filter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <thread>

#include "hashing/hash_function.h"  // Fmix64
#include "util/annotated_sync.h"
#include "util/thread_pool.h"

namespace habf {
namespace {

/// Per-shard build seed: decorrelated from the global seed and from the
/// routing salt so no shard shares probe positions with another.
uint64_t ShardSeed(uint64_t base_seed, size_t shard) {
  return Fmix64(base_seed ^ (0x9E3779B97F4A7C15ULL * (shard + 1)));
}

}  // namespace

std::vector<size_t> ApportionShardBits(size_t total_bits,
                                       const std::vector<size_t>& weights,
                                       size_t floor_bits) {
  const size_t num_shards = weights.size();
  if (num_shards == 0) return {};

  // Largest-remainder (Hamilton) apportionment of quota_s = total * w_s / W.
  // 128-bit intermediates: total_bits can reach 2^36 and W 2^40+, so the
  // product overflows 64 bits on exactly the large builds that matter.
  uint64_t weight_sum = 0;
  for (size_t w : weights) weight_sum += w;
  std::vector<size_t> bits(num_shards);
  std::vector<std::pair<uint64_t, size_t>> remainders(num_shards);
  size_t assigned = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    // All-zero weights (no positive keys anywhere) degrade to an even split.
    const unsigned __int128 numer =
        static_cast<unsigned __int128>(total_bits) *
        (weight_sum == 0 ? 1 : weights[s]);
    const uint64_t denom = weight_sum == 0 ? num_shards : weight_sum;
    bits[s] = static_cast<size_t>(numer / denom);
    remainders[s] = {static_cast<uint64_t>(numer % denom), s};
    assigned += bits[s];
  }
  // Hand the truncated leftover (< num_shards bits) to the largest
  // remainders; ties break toward the lower shard index for determinism.
  assert(total_bits >= assigned && total_bits - assigned < num_shards);
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (size_t i = 0; i < total_bits - assigned; ++i) {
    ++bits[remainders[i].second];
  }

  // Enforce the per-shard floor by rebalancing: raise the starved shards,
  // then take the overshoot back from the richest shards so the global sum
  // is preserved (impossible only when total_bits < floor * S, where the
  // floors themselves exceed the budget and the sum becomes floor * S).
  size_t deficit = 0;
  for (size_t& b : bits) {
    if (b < floor_bits) {
      deficit += floor_bits - b;
      b = floor_bits;
    }
  }
  while (deficit > 0) {
    size_t richest = num_shards;
    for (size_t s = 0; s < num_shards; ++s) {
      if (bits[s] > floor_bits &&
          (richest == num_shards || bits[s] > bits[richest])) {
        richest = s;
      }
    }
    if (richest == num_shards) break;  // everyone at the floor already
    const size_t take = std::min(deficit, bits[richest] - floor_bits);
    bits[richest] -= take;
    deficit -= take;
  }
  return bits;
}

namespace {

/// Shard count of a build: at least 1 and clamped to the bound the snapshot
/// reader enforces, so every built filter can be persisted and loaded back.
size_t BuildShards(const ShardedBuildOptions& sharding) {
  return std::min(std::max<size_t>(1, sharding.num_shards),
                  kMaxSnapshotShards);
}

/// Worker count of a build: the requested count (0 = one per hardware
/// thread), capped at the shard count, at least 1.
size_t BuildThreads(const ShardedBuildOptions& sharding) {
  size_t num_threads = sharding.num_threads;
  if (num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : hw;
  }
  return std::max<size_t>(1, std::min(num_threads, BuildShards(sharding)));
}

/// Everything a sharded build needs after partitioning, so every entry point
/// produces *identical* filters: the shard-contiguous grouped view
/// permutations, the group offsets, and the fully-resolved per-shard options
/// (apportioned bit budgets, decorrelated seeds). The grouped views reference the caller's
/// key storage, which must stay alive while any shard of the plan builds.
struct ShardedBuildPlan {
  size_t num_shards = 1;
  uint64_t salt = kDefaultShardSalt;
  /// Resolved worker count (min(requested-or-hardware, num_shards), >= 1).
  size_t num_threads = 1;
  /// The bucket→shard table the keys were partitioned through; the
  /// assembled filter routes queries through it.
  RoutingDirectory directory;
  std::vector<std::string_view> grouped_pos;
  std::vector<WeightedKeyView> grouped_neg;
  std::vector<size_t> pos_offsets;
  std::vector<size_t> neg_offsets;
  std::vector<HabfOptions> shard_options;
};

/// Runs shard `s` of the plan — the unchanged single-threaded TPJO build
/// over the shard's contiguous slice of the grouped views.
Habf BuildPlanShard(const ShardedBuildPlan& plan, size_t s) {
  return Habf::Build(
      StringSpan(plan.grouped_pos.data() + plan.pos_offsets[s],
                 plan.pos_offsets[s + 1] - plan.pos_offsets[s]),
      WeightedKeySpan(plan.grouped_neg.data() + plan.neg_offsets[s],
                      plan.neg_offsets[s + 1] - plan.neg_offsets[s]),
      plan.shard_options[s]);
}

/// The shared zero-copy partitioning core, templated over key accessors so
/// both public overload families partition *directly* from the caller's
/// storage: `pos_at(i)` returns positive i as a string_view, `neg_at(i)`
/// negative i as a WeightedKeyView. Only ONE set of views is ever
/// materialized (the shard-contiguous grouped permutation) — an
/// intermediate flat view vector would double the view memory on exactly
/// the large builds the zero-copy path exists for.
template <typename PosAt, typename NegAt>
ShardedBuildPlan PrepareShardedBuild(size_t num_positives,
                                     size_t num_negatives, const PosAt& pos_at,
                                     const NegAt& neg_at,
                                     const HabfOptions& options,
                                     const ShardedBuildOptions& sharding) {
  ShardedBuildPlan plan;
  plan.num_shards = BuildShards(sharding);
  plan.salt = sharding.salt;
  plan.num_threads = BuildThreads(sharding);

  plan.grouped_pos.resize(num_positives);
  plan.grouped_neg.resize(num_negatives);
  if (plan.num_shards == 1) {
    // Degenerate single shard: identity permutation, options unchanged (no
    // seed derivation), so the shard answers identically to Habf::Build.
    for (size_t i = 0; i < num_positives; ++i) plan.grouped_pos[i] = pos_at(i);
    for (size_t i = 0; i < num_negatives; ++i) plan.grouped_neg[i] = neg_at(i);
    plan.pos_offsets = {0, num_positives};
    plan.neg_offsets = {0, num_negatives};
    plan.shard_options = {options};
    plan.directory = RoutingDirectory::Uniform(1);
    return plan;
  }

  // Partition both build sets through the routing directory — zero-copy:
  // the partitions are shard-contiguous *view permutations* over the
  // caller's key storage (route once, prefix-sum the group offsets,
  // gather), so the partitioning cost is O(n) pointer-sized views instead
  // of a second copy of every key byte.
  //
  // Every key is hashed to its bucket once. Under uniform routing the
  // buckets are the shards (the identity directory); two-choice routing
  // first balances the buckets' cumulative weights (1.0 per positive, Θ(e)
  // per negative) across the shards. Either way each key's shard is then
  // resolved through the finished directory, the one queries use.
  const size_t num_shards = plan.num_shards;
  const bool two_choice = sharding.routing == RoutingMode::kTwoChoice;
  const size_t num_buckets =
      two_choice ? std::min(std::max(sharding.num_routing_buckets, num_shards),
                            kMaxRoutingBuckets)
                 : num_shards;
  std::vector<double> bucket_weights(num_buckets, 0.0);
  std::vector<uint32_t> pos_shard(num_positives);
  std::vector<uint32_t> neg_shard(num_negatives);
  for (size_t i = 0; i < num_positives; ++i) {
    const size_t b = RoutingBucketOfKey(pos_at(i), plan.salt, num_buckets);
    pos_shard[i] = static_cast<uint32_t>(b);
    bucket_weights[b] += 1.0;
  }
  for (size_t i = 0; i < num_negatives; ++i) {
    const WeightedKeyView wk = neg_at(i);
    const size_t b = RoutingBucketOfKey(wk.key, plan.salt, num_buckets);
    neg_shard[i] = static_cast<uint32_t>(b);
    // A hostile negative cost (negative, NaN) must not poison the balance
    // accounting; route it, but give it no weight.
    if (std::isfinite(wk.cost) && wk.cost > 0.0) bucket_weights[b] += wk.cost;
  }
  plan.directory =
      two_choice ? BuildTwoChoiceDirectory(bucket_weights, num_shards, plan.salt)
                 : RoutingDirectory::Uniform(num_shards);
  for (uint32_t& shard : pos_shard) {
    shard = plan.directory.bucket_to_shard[shard];
  }
  for (uint32_t& shard : neg_shard) {
    shard = plan.directory.bucket_to_shard[shard];
  }
  plan.pos_offsets.assign(num_shards + 1, 0);
  plan.neg_offsets.assign(num_shards + 1, 0);
  for (size_t i = 0; i < num_positives; ++i) {
    ++plan.pos_offsets[pos_shard[i] + 1];
  }
  for (size_t i = 0; i < num_negatives; ++i) {
    ++plan.neg_offsets[neg_shard[i] + 1];
  }
  for (size_t s = 1; s <= num_shards; ++s) {
    plan.pos_offsets[s] += plan.pos_offsets[s - 1];
    plan.neg_offsets[s] += plan.neg_offsets[s - 1];
  }
  {
    std::vector<size_t> cursor(plan.pos_offsets.begin(),
                               plan.pos_offsets.end() - 1);
    for (size_t i = 0; i < num_positives; ++i) {
      plan.grouped_pos[cursor[pos_shard[i]]++] = pos_at(i);
    }
    cursor.assign(plan.neg_offsets.begin(), plan.neg_offsets.end() - 1);
    for (size_t i = 0; i < num_negatives; ++i) {
      plan.grouped_neg[cursor[neg_shard[i]]++] = neg_at(i);
    }
  }

  // Split the global bit budget across shards proportionally to their
  // positive-key counts (bits-per-key invariant). Largest-remainder
  // apportionment: the per-shard budgets sum exactly to options.total_bits
  // (given the 64-bit sizing floor fits), instead of drifting by up to S-1
  // floor-truncated bits plus unrebalanced empty-shard floors.
  std::vector<size_t> pos_counts(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    pos_counts[s] = plan.pos_offsets[s + 1] - plan.pos_offsets[s];
  }
  const std::vector<size_t> shard_bits =
      ApportionShardBits(options.total_bits, pos_counts);
  plan.shard_options.assign(num_shards, options);
  for (size_t s = 0; s < num_shards; ++s) {
    plan.shard_options[s].total_bits = shard_bits[s];
    plan.shard_options[s].seed = ShardSeed(options.seed, s);
  }
  return plan;
}

}  // namespace

// --- asynchronous build -----------------------------------------------------

/// State shared between the handle and its shard tasks. Deliberately holds
/// no ThreadPool: a worker thread may drop the last reference (it holds a
/// shared_ptr inside its task closure), and destroying a pool from one of
/// its own workers would self-join. The plan lives here so the grouped
/// views stay valid for exactly as long as any task can touch them.
struct BuildHandle::State {
  ShardedBuildPlan plan;
  CancellationToken cancel;

  mutable Mutex mu;
  mutable CondVar done_cv;
  /// Shard tasks not yet finished (built, failed, or abandoned).
  size_t remaining HABF_GUARDED_BY(mu) = 0;
  /// Shards whose TPJO build completed.
  size_t completed HABF_GUARDED_BY(mu) = 0;
  /// Shards abandoned because a task observed the cancellation flag.
  size_t skipped HABF_GUARDED_BY(mu) = 0;
  /// TakeResult already consumed (or forfeited) the result.
  bool taken HABF_GUARDED_BY(mu) = false;
  /// First exception a shard build escaped with. Contained here — never
  /// surfaced through the pool's WaitAll, so a shared pool's other clients
  /// are unaffected by a failing rebuild.
  std::exception_ptr error HABF_GUARDED_BY(mu);
  std::vector<std::optional<Habf>> built HABF_GUARDED_BY(mu);
};

namespace {

void StartShardTasks(const std::shared_ptr<BuildHandle::State>& state,
                     ThreadPool* pool) {
  const size_t num_shards = state->plan.num_shards;
  {
    // No task has been submitted yet, but taking mu keeps the guarded
    // fields' single-writer story uniform (and the analysis satisfied).
    MutexLock lock(state->mu);
    state->remaining = num_shards;
    state->built.resize(num_shards);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    pool->Submit([state, s] {
      std::optional<Habf> result;
      std::exception_ptr error;
      bool skipped = false;
      if (state->cancel.IsCancelled()) {
        skipped = true;
      } else {
        // Contain any escape: letting it reach the pool would surface it in
        // an unrelated client's WaitAll (e.g. a query barrier sharing this
        // pool) instead of this handle's TakeResult.
        try {
          result = BuildPlanShard(state->plan, s);
        } catch (...) {
          error = std::current_exception();
        }
      }
      MutexLock lock(state->mu);
      if (result.has_value()) {
        state->built[s] = std::move(result);
        ++state->completed;
      }
      if (skipped) ++state->skipped;
      if (error && !state->error) state->error = error;
      if (--state->remaining == 0) state->done_cv.NotifyAll();
    });
  }
}

BuildHandle MakeAsyncHandle(ShardedBuildPlan plan, ThreadPool* pool) {
  auto state = std::make_shared<BuildHandle::State>();
  state->plan = std::move(plan);
  std::unique_ptr<ThreadPool> owned;
  if (pool == nullptr) {
    // A private pool always gets at least one real worker: an inline
    // (0-worker) pool would run the whole build synchronously inside this
    // call, which is exactly what the async entry point exists to avoid.
    owned = std::make_unique<ThreadPool>(state->plan.num_threads);
    pool = owned.get();
  }
  StartShardTasks(state, pool);
  return BuildHandle(std::move(state), std::move(owned));
}

}  // namespace

BuildHandle BuildShardedHabfAsync(StringSpan positives,
                                  WeightedKeySpan negatives,
                                  const HabfOptions& options,
                                  const ShardedBuildOptions& sharding,
                                  ThreadPool* pool) {
  return MakeAsyncHandle(
      PrepareShardedBuild(
          positives.size(), negatives.size(),
          [&](size_t i) { return positives[i]; },
          [&](size_t i) { return negatives[i]; }, options, sharding),
      pool);
}

BuildHandle BuildShardedHabfAsync(const std::vector<std::string>& positives,
                                  const std::vector<WeightedKey>& negatives,
                                  const HabfOptions& options,
                                  const ShardedBuildOptions& sharding,
                                  ThreadPool* pool) {
  return MakeAsyncHandle(
      PrepareShardedBuild(
          positives.size(), negatives.size(),
          [&](size_t i) { return std::string_view(positives[i]); },
          [&](size_t i) {
            return WeightedKeyView(negatives[i].key, negatives[i].cost);
          },
          options, sharding),
      pool);
}

// --- synchronous build: the asynchronous plan, taken at once ---------------

ShardedFilter<Habf> BuildShardedHabf(StringSpan positives,
                                     WeightedKeySpan negatives,
                                     const HabfOptions& options,
                                     const ShardedBuildOptions& sharding) {
  const size_t num_threads = BuildThreads(sharding);
  ThreadPool pool(num_threads <= 1 ? 0 : num_threads);
  return BuildShardedHabfAsync(positives, negatives, options, sharding, &pool)
      .TakeResult();
}

ShardedFilter<Habf> BuildShardedHabf(const std::vector<std::string>& positives,
                                     const std::vector<WeightedKey>& negatives,
                                     const HabfOptions& options,
                                     const ShardedBuildOptions& sharding) {
  const size_t num_threads = BuildThreads(sharding);
  ThreadPool pool(num_threads <= 1 ? 0 : num_threads);
  return BuildShardedHabfAsync(positives, negatives, options, sharding, &pool)
      .TakeResult();
}

BuildHandle::BuildHandle(std::shared_ptr<State> state,
                         std::unique_ptr<ThreadPool> owned_pool)
    : state_(std::move(state)), owned_pool_(std::move(owned_pool)) {}

BuildHandle::BuildHandle(BuildHandle&&) noexcept = default;

BuildHandle& BuildHandle::operator=(BuildHandle&& other) noexcept {
  if (this != &other) {
    Abandon();
    state_ = std::move(other.state_);
    owned_pool_ = std::move(other.owned_pool_);
  }
  return *this;
}

BuildHandle::~BuildHandle() { Abandon(); }

void BuildHandle::Abandon() {
  if (state_ == nullptr) return;
  Cancel();
  Wait();
  // Join the private workers (if any) while state_ still pins the plan the
  // tasks view; only then release our reference.
  owned_pool_.reset();
  state_.reset();
}

bool BuildHandle::Ready() const {
  if (state_ == nullptr) return true;
  MutexLock lock(state_->mu);
  return state_->remaining == 0;
}

void BuildHandle::Wait() const {
  if (state_ == nullptr) return;
  MutexLock lock(state_->mu);
  // Manual loop rather than a predicate lambda: the guarded read of
  // `remaining` stays in a scope the thread-safety analysis can check.
  while (state_->remaining != 0) state_->done_cv.Wait(state_->mu);
}

void BuildHandle::Cancel() {
  if (state_ != nullptr) state_->cancel.Cancel();
}

bool BuildHandle::CancelRequested() const {
  return state_ != nullptr && state_->cancel.IsCancelled();
}

size_t BuildHandle::CompletedShards() const {
  if (state_ == nullptr) return 0;
  MutexLock lock(state_->mu);
  return state_->completed;
}

size_t BuildHandle::num_shards() const {
  return state_ == nullptr ? 0 : state_->plan.num_shards;
}

ShardedFilter<Habf> BuildHandle::TakeResult() {
  if (state_ == nullptr) {
    throw std::logic_error("BuildHandle::TakeResult on an empty handle");
  }
  Wait();
  MutexLock lock(state_->mu);
  if (state_->taken) {
    throw std::logic_error("BuildHandle::TakeResult called twice");
  }
  state_->taken = true;
  // remaining == 0 and taken: no task can touch the plan anymore and the
  // result is consumed on every exit below, so release the O(n) grouped
  // views (and, on the error/cancel paths, the orphaned shard filters) now
  // instead of keeping ~16 bytes/key resident until the handle itself dies
  // (a service may hold the handle long after the swap).
  std::vector<Habf> shards;
  shards.reserve(state_->built.size());
  const bool consumable = !state_->error && state_->skipped == 0;
  if (consumable) {
    for (std::optional<Habf>& shard : state_->built) {
      shards.push_back(std::move(*shard));  // no error, no skip: all present
    }
  }
  state_->built.clear();
  state_->plan.grouped_pos = {};
  state_->plan.grouped_neg = {};
  if (state_->error) std::rethrow_exception(state_->error);
  if (state_->skipped > 0) throw BuildCancelledError();
  return ShardedFilter<Habf>(std::move(shards), state_->plan.salt,
                             std::move(state_->plan.directory));
}

}  // namespace habf
