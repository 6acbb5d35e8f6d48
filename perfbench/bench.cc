// The repository benchmark (perfbench/README.md). One process runs one
// workload for one seed:
//
//   perfbench --workload lookup_local|serve_query|serve_mutate --seed N
//             --seconds S --trace 0|1 --wal-dir DIR
//             [--git-sha SHA] [--src-hash HASH]
//
// It prints the host fingerprint, a table of every metric with its unit and
// sample count, and as its last line the result object. --trace 0 reports
// the end-to-end metrics; --trace 1 runs the workload untraced and traced
// and then the per-layer ladder (ladder.h). Exit status 1 means a
// correctness gate failed, 2 a usage error.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/dynamic_filter.h"
#include "core/filter_store.h"
#include "harness.h"
#include "ladder.h"
#include "net/server.h"
#include "serving.h"
#include "util/memory.h"

namespace perfbench {
namespace {

using habf::KeySpan;
using Store = habf::FilterStore<ShardedHabf>;

/// The end-to-end metrics every workload reports with --trace 0.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "keys_per_s", "p50_us", "p99_us", "unseen_fpr", "peak_rss_mb",
};

/// The per-layer metrics every workload reports with --trace 1.
const std::vector<std::string> kPerLayer = {
    "hashing.h0_ns_per_key",
    "bloom.round1_ns_per_key",
    "habf.contains_ns_per_key",
    "habf.batch_ns_per_key",
    "habf.round1_miss_frac",
    "hash_expressor.round2_ns_per_miss",
    "sharded.batch_ns_per_key",
    "sharded.route_ns_per_key",
    "filter_store.acquire_ns",
    "habf.build_s",
    "sharded.build_s",
    "sharded.build_speedup",
    "habf.initial_collisions",
    "habf.optimized",
    "habf.failed",
    "habf.adjusted_positives",
    "habf.construction_mb",
    "habf.known_fpr",
    "habf.weighted_fpr",
    "protocol.encode_ns_per_frame",
    "protocol.decode_ns_per_frame",
    "server.keys_per_batch",
    "server.backend_query_ns_per_batch",
    "server.backend_busy_frac",
    "server.backend_mutate_us_per_frame",
    "server.null_backend_keys_per_s",
    "server.null_backend_p50_us",
    "server.protocol_errors",
    "server.backpressure_pauses",
    "server.read_budget_exhausted",
    "server.evictions",
    "mutate_keys_per_s",
    "mutate_p50_us",
    "mutate_p99_us",
    "error_frac",
    "dynamic.overlay_ns_per_key.delta0",
    "dynamic.overlay_ns_per_key.delta1pct",
    "dynamic.overlay_ns_per_key.delta10pct",
    "dynamic.insert_us",
    "dynamic.insert_durable_us",
    "wal.sync_us_per_insert",
    "dynamic.compaction_s.p50",
    "dynamic.compaction_s.max",
    "dynamic.delta_keys_max",
    "dynamic.compactions",
    "dynamic.shards_rebuilt",
    "dynamic.keys_drained",
    "dynamic.front_rotations",
    "dynamic.checkpoints",
    "dynamic.open_s",
    "dynamic.open_wal_records",
    "wal.records",
    "trace.overhead_frac",
};

/// Filter settings are the program's configuration, not inputs: the seed
/// makes only the keys, so every run builds with the same hash seed (the
/// HabfOptions default) and the same per-shard H0 choices.
constexpr double kBitsPerKey = 10.0;
constexpr size_t kShards = 8;
constexpr size_t kWindow = 8;
constexpr size_t kConnections = 2;
constexpr size_t kServerWorkers = 2;
/// serve_mutate: one frame in this many is an 8-key mutation. No measured
/// or published workload fixes the share; it is chosen so that the write
/// path shows in the bounded metrics. A mutation holds its connection's
/// pipelined queries behind eight fsyncs, so at this share about 3% of
/// queries wait behind one and p99_us is a mutation stall, and the WAL
/// takes about half of the workers' time, so keys_per_s follows it too.
constexpr size_t kMutateEvery = 256;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string wal_dir;
  std::string git_sha = "unavailable";
  std::string src_hash = "unavailable";
};

struct Run {
  Args args;
  Report report;
  Gate gate;
  /// Workload loads: untraced, then traced (trace runs only).
  double untraced_keys_per_s = 0.0;
  double traced_keys_per_s = 0.0;
  size_t rss_base = 0;
  std::vector<uint64_t> compaction_ns;
};

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Returns freed input-generation memory to the kernel and starts the
/// peak-RSS window, so peak_rss_mb counts what set-up and load add.
void StartRssWindow(Run* run) {
  malloc_trim(0);
  habf::ResetPeakResidentSetBytes();
  run->rss_base = habf::ReadResidentSetBytes();
}

void ReportPeakRss(Run* run) {
  const size_t peak = habf::ReadPeakResidentSetBytes();
  run->report.Set("peak_rss_mb",
                  static_cast<double>(peak > run->rss_base ? peak - run->rss_base
                                                           : 0) /
                      1e6,
                  "MB", 0, "peak RSS minus RSS after input generation");
}

void ReportSetup(Run* run, const std::vector<double>& setup_s) {
  run->report.Set("setup_s", Median(setup_s), "s", setup_s.size(),
                  "median of the set-ups");
}

/// keys_per_s, p50_us and p99_us of an untraced load, from its one-second
/// chunks.
void ReportLoad(Run* run, const ChunkedSamples& samples,
                const std::string& what) {
  const ChunkedSamples::Reduced r = samples.Reduce();
  run->untraced_keys_per_s = r.keys_per_s;
  const std::string chunks = std::to_string(r.chunks) + " chunks";
  run->report.Set("keys_per_s", r.keys_per_s, "keys/s", r.all.n,
                  "median chunk of " + chunks + "; " + what);
  run->report.Set("p50_us", r.p50 / 1e3, "us", r.all.n,
                  "median chunk p50; per " + what);
  std::string note = "whole load p99 = " + Brief(r.all.p99 / 1e3) +
                     " us, tail p" + Brief(r.all.tail_pct) + " = " +
                     Brief(r.all.tail / 1e3) + " us";
  if (r.p99_by_chunk) {
    note = "median chunk p99; " + note;
  } else if (r.all.p99_pct != 99.0) {
    note = "too few samples for p99; this is the whole load's p" +
           Brief(r.all.p99_pct);
  } else {
    note = "chunks too small for p99; " + note;
  }
  run->report.Set("p99_us", r.p99 / 1e3, "us", r.all.n, note);
}

/// FPR over the unseen keys, and over the known negatives plain and
/// cost-weighted. The last two are per-layer metrics of the TPJO build: so
/// few known negatives stay false positives that their count, and under
/// Zipf costs the few costly ones among them, swing both by half from seed
/// to seed, too far for an end-to-end bound.
void ReportFpr(Run* run, const std::vector<double>& costs,
               const std::vector<uint8_t>& negative_answers,
               const std::vector<uint8_t>& unseen_answers) {
  const std::vector<double> unit(negative_answers.size(), 1.0);
  run->report.Set("habf.known_fpr", WeightedFpr(unit, negative_answers), "frac",
                  costs.size(), "over the known negatives");
  run->report.Set("habf.weighted_fpr", WeightedFpr(costs, negative_answers),
                  "frac", costs.size(), "cost-weighted, over the known negatives");
  const std::vector<double> unseen_unit(unseen_answers.size(), 1.0);
  run->report.Set("unseen_fpr", WeightedFpr(unseen_unit, unseen_answers),
                  "frac", unseen_answers.size());
}

template <typename F>
std::vector<uint8_t> AnswersOf(const F& filter,
                               const std::vector<std::string_view>& keys) {
  std::vector<uint8_t> out(keys.size());
  constexpr size_t kChunk = 4096;
  for (size_t b = 0; b < keys.size(); b += kChunk) {
    const size_t count = std::min(kChunk, keys.size() - b);
    filter.ContainsBatch(KeySpan(keys.data() + b, count), out.data() + b);
  }
  return out;
}

void CheckMembers(Run* run, const std::vector<uint8_t>& member_answers,
                  const char* where) {
  const size_t zeros = static_cast<size_t>(std::count(
      member_answers.begin(), member_answers.end(), uint8_t{0}));
  run->gate.attempted += member_answers.size();
  run->gate.Check(zeros == 0,
                  std::to_string(zeros) + " members answered 0 " + where,
                  zeros);
}

void ReportOverhead(Run* run) {
  run->report.Set("trace.overhead_frac",
                  run->untraced_keys_per_s > 0.0
                      ? 1.0 - run->traced_keys_per_s / run->untraced_keys_per_s
                      : 0.0,
                  "frac", 0, "traced against untraced keys_per_s");
}

void PrintSpans(const SpanLog& log) {
  std::printf("spans (name, count, total ms, self ms):\n");
  for (const auto& [name, t] : AggregateSpans(log.spans())) {
    std::printf("  %-28s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6);
  }
}

/// Uniform probe keys over a serving key space, with member flags.
void ServeProbes(const ServeInputs& inputs, const ServeKeySpace& space,
                 size_t count, std::vector<std::string_view>* probes,
                 std::vector<uint8_t>* member) {
  habf::Xoshiro256 rng(space.seed ^ 0x50524F4245ULL);  // "PROBE"
  for (size_t i = 0; i < count; ++i) {
    const size_t index = rng.NextBounded(space.size());
    probes->push_back(inputs.keys[index]);
    member->push_back(index < space.members ? 1 : 0);
  }
}

std::vector<PlannedRequest> FirstRequests(RequestSource* source, size_t n) {
  std::vector<PlannedRequest> requests(n);
  for (PlannedRequest& r : requests) source->Next(&r);
  return requests;
}

/// A wire load on a fresh server over `backend`, or over `timing` (which
/// wraps it) when given, in which case the server layer is reported.
WireLoadResult ServeLoad(Run* run, habf::net::ServerBackend* backend,
                         TimingBackend* timing,
                         const std::vector<RequestSource*>& sources,
                         const WireLoadOptions& options) {
  ServedLoad served =
      RunServedLoad(timing != nullptr ? timing : backend, kServerWorkers,
                    options, sources, &run->gate);
  if (timing != nullptr) {
    ReportServerLayer(timing->totals(), served.stats, kServerWorkers,
                      served.wall_s, &run->report);
  }
  return std::move(served.load);
}

WireLoadOptions LoadOptions(double seconds) {
  WireLoadOptions options;
  options.window = kWindow;
  options.seconds = seconds;
  return options;
}

/// The same load shape against a backend that answers 1 and does no filter
/// work: the network and server floor.
void RunNullBackend(Run* run, const std::vector<RequestSource*>& sources,
                    double seconds) {
  NullBackend null_backend;
  WireLoadOptions options = LoadOptions(seconds);
  options.warmup_s = 0.25;
  options.check_answers = false;
  const WireLoadResult load =
      ServeLoad(run, &null_backend, nullptr, sources, options);
  const ChunkedSamples::Reduced r = load.query.Reduce();
  run->report.Set("server.null_backend_keys_per_s", r.keys_per_s, "keys/s",
                  r.all.n, "median chunk");
  run->report.Set("server.null_backend_p50_us", r.p50 / 1e3, "us", r.all.n,
                  "median chunk p50");
}

// --- lookup_local -------------------------------------------------------------

struct LookupLoad {
  uint64_t keys = 0;
  uint64_t blocks = 0;
  uint64_t mismatches = 0;
  double elapsed_s = 0.0;
  ChunkedSamples samples;
};

/// One thread answers the stream in 32-key blocks through the store, each
/// block pinning a snapshot; every block is checked against `expected`.
LookupLoad RunLookupLoad(const Store& store,
                         const std::vector<std::string_view>& stream,
                         const std::vector<uint8_t>& expected, double seconds,
                         size_t* cursor, SpanLog* log) {
  constexpr size_t kBlock = 32;
  uint8_t out[kBlock];
  LookupLoad load;
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  load.samples = ChunkedSamples(start, seconds, /*sample_every=*/4);
  uint64_t now = start;
  while (now < end) {
    const size_t b = *cursor;
    const size_t count = std::min(kBlock, stream.size() - b);
    uint64_t t0;
    uint64_t t1;
    {
      ScopedSpan block(log, "lookup.block");
      t0 = NowNs();
      Store::VersionedSnapshot snap;
      {
        ScopedSpan acquire(log, "filter_store.acquire");
        snap = store.Acquire();
      }
      {
        ScopedSpan query(log, "sharded.contains_batch");
        snap.filter->ContainsBatch(KeySpan(stream.data() + b, count), out);
      }
      t1 = NowNs();
    }
    load.samples.Add(t1, t1 - t0, count);
    load.keys += count;
    ++load.blocks;
    if (std::memcmp(out, expected.data() + b, count) != 0) ++load.mismatches;
    *cursor = b + count == stream.size() ? 0 : b + count;
    now = t1;
  }
  load.elapsed_s = Seconds(now - start);
  return load;
}

void LookupLocal(Run* run) {
  const Args& args = run->args;
  const uint64_t gen_start = NowNs();
  LookupInputs in = MakeLookupInputs(args.seed, LookupSizes{});
  std::printf("inputs: %zu positives, %zu negatives, %zu unseen, %zu stream "
              "keys in %.2f s\n",
              in.positives.size(), in.negatives.size(), in.unseen.size(),
              in.stream.size(), Seconds(NowNs() - gen_start));
  const std::vector<std::string_view> pos_views(in.positives.begin(),
                                                in.positives.end());
  const std::vector<habf::WeightedKeyView> neg_views =
      habf::MakeWeightedKeyViews(in.negatives);
  StartRssWindow(run);

  habf::HabfOptions options;
  options.total_bits =
      static_cast<size_t>(kBitsPerKey * static_cast<double>(in.positives.size()));
  habf::ShardedBuildOptions sharding;
  sharding.num_shards = kShards;
  Store store;
  std::vector<double> setup_s;
  const int setups = args.trace != 0 ? 1 : 3;
  for (int k = 0; k < setups; ++k) {
    const uint64_t start = NowNs();
    store.Publish(habf::BuildShardedHabf(
        habf::StringSpan(pos_views.data(), pos_views.size()),
        habf::WeightedKeySpan(neg_views.data(), neg_views.size()), options,
        sharding));
    setup_s.push_back(Seconds(NowNs() - start));
  }
  ReportSetup(run, setup_s);
  const Store::VersionedSnapshot snap = store.Acquire();
  const ShardedHabf& filter = *snap.filter;

  CheckMembers(run, AnswersOf(filter, pos_views), "in process");
  std::vector<std::string_view> neg_keys;
  std::vector<double> costs;
  for (const habf::WeightedKey& wk : in.negatives) {
    neg_keys.push_back(wk.key);
    costs.push_back(wk.cost);
  }
  ReportFpr(run, costs, AnswersOf(filter, neg_keys),
            AnswersOf(filter, std::vector<std::string_view>(in.unseen.begin(),
                                                            in.unseen.end())));

  // The stream's answers, checked scalar against batch, are what every
  // block of the load must reproduce.
  std::vector<uint8_t> expected(in.stream.size());
  for (size_t b = 0; b < in.stream.size(); b += 32) {
    filter.ContainsBatch(KeySpan(in.stream.data() + b,
                                 std::min<size_t>(32, in.stream.size() - b)),
                         expected.data() + b);
  }
  size_t differ = 0;
  size_t missed = 0;
  for (size_t i = 0; i < in.stream.size(); ++i) {
    differ += (filter.MightContain(in.stream[i]) ? 1 : 0) != expected[i];
    missed += in.stream_member[i] != 0 && expected[i] == 0;
  }
  run->gate.attempted += in.stream.size();
  run->gate.Check(differ == 0,
                  std::to_string(differ) +
                      " stream keys answer differently scalar and batched",
                  differ);
  run->gate.Check(missed == 0,
                  std::to_string(missed) + " stream members answered 0", missed);

  size_t cursor = 0;
  if (args.trace == 0) {
    const LookupLoad load =
        RunLookupLoad(store, in.stream, expected, args.seconds, &cursor, nullptr);
    run->gate.attempted += load.blocks;
    run->gate.Check(load.mismatches == 0,
                    "blocks answered unlike the stream check", load.mismatches);
    ReportPeakRss(run);
    ReportLoad(run, load.samples, "32-key block, one thread");
    return;
  }

  // Traced run: alternate untraced and traced quarters so drift hits both
  // sides alike.
  SpanLog log;
  uint64_t keys[2] = {0, 0};
  double elapsed[2] = {0.0, 0.0};
  for (int q = 0; q < 4; ++q) {
    const int traced = q % 2;
    const LookupLoad load = RunLookupLoad(store, in.stream, expected,
                                          args.seconds / 4, &cursor,
                                          traced != 0 ? &log : nullptr);
    run->gate.attempted += load.blocks;
    run->gate.Check(load.mismatches == 0,
                    "blocks answered unlike the stream check", load.mismatches);
    keys[traced] += load.keys;
    elapsed[traced] += load.elapsed_s;
  }
  run->untraced_keys_per_s = static_cast<double>(keys[0]) / elapsed[0];
  run->traced_keys_per_s = static_cast<double>(keys[1]) / elapsed[1];
  run->report.Set("keys_per_s", run->untraced_keys_per_s, "keys/s", 0,
                  "untraced quarters of the traced run");
  ReportPeakRss(run);
  ReportOverhead(run);
  PrintSpans(log);

  const size_t probe_count = std::min<size_t>(in.stream.size(), 1 << 18);
  const KeySpan probes(in.stream.data(), probe_count);
  const std::vector<uint8_t> probe_member(in.stream_member.begin(),
                                          in.stream_member.begin() + probe_count);
  RunFilterRungs(filter, probes, probe_member, &run->report, &run->gate);
  run->report.Set("filter_store.acquire_ns", MeasureAcquireNs([&] {
                    return store.Acquire().filter != nullptr;
                  }),
                  "ns", 1 << 18, "median of 5 passes");
  RunBuildRungs(habf::StringSpan(pos_views.data(), pos_views.size()),
                habf::WeightedKeySpan(neg_views.data(), neg_views.size()),
                options, kShards, &run->report, &run->gate);

  const KeySpan stream(in.stream.data(), in.stream.size());
  StreamBlockSource protocol_source(stream, expected.data(), 32, 0);
  RunProtocolRung(FirstRequests(&protocol_source, 8192), &run->report,
                  &run->gate);

  // The embedded path has no server; the server rungs serve this filter
  // with the stream's own 32-key blocks.
  habf::net::StoreBackend<ShardedHabf> backend(&store);
  TimingBackend timing(&backend);
  std::vector<std::unique_ptr<StreamBlockSource>> blocks;
  std::vector<RequestSource*> sources;
  for (size_t c = 0; c < kConnections; ++c) {
    blocks.push_back(std::make_unique<StreamBlockSource>(
        stream, expected.data(), 32, c * stream.size() / 64));
    sources.push_back(blocks.back().get());
  }
  ServeLoad(run, &backend, &timing, sources, LoadOptions(args.seconds / 4));
  RunNullBackend(run, sources, args.seconds / 4);

  // The dynamic rung runs at serving scale over this workload's URL keys.
  ServeKeySpace space;
  space.seed = args.seed;
  ServeInputs dyn;
  dyn.members = space.members;
  for (size_t i = 0; i < space.members; ++i) dyn.keys.push_back(in.positives[i]);
  for (size_t i = 0; i < space.negatives; ++i) {
    dyn.keys.push_back(in.negatives[i].key);
    dyn.negative_costs.push_back(in.negatives[i].cost);
  }
  for (size_t i = 0; i < space.unseen; ++i) dyn.keys.push_back(in.unseen[i]);
  std::vector<std::string_view> dyn_probes;
  std::vector<uint8_t> dyn_member;
  ServeProbes(dyn, space, 1 << 16, &dyn_probes, &dyn_member);
  DynamicRungOptions dyn_options;
  dyn_options.wal_dir = args.wal_dir + "/ladder";
  dyn_options.wire_mutations = true;
  dyn_options.seed = args.seed;
  RunDynamicRung(dyn, space, KeySpan(dyn_probes.data(), dyn_probes.size()),
                 dyn_options, &run->compaction_ns, &run->report, &run->gate);
}

// --- serving workloads --------------------------------------------------------

/// Gates and accuracy metrics from the in-process answers of a whole
/// serving key space: members must answer 1; the known negatives and
/// unseen keys give the FPRs.
void ReportKeySpaceAnswers(Run* run, const ServeInputs& inputs,
                           const ServeKeySpace& space,
                           const std::vector<uint8_t>& answers) {
  const auto negatives = answers.begin() + space.members;
  const auto unseen = negatives + space.negatives;
  CheckMembers(run, std::vector<uint8_t>(answers.begin(), negatives),
               "in process");
  ReportFpr(run, inputs.negative_costs, std::vector<uint8_t>(negatives, unseen),
            std::vector<uint8_t>(unseen, answers.end()));
}

/// The per-layer ladder of a serving workload over its served `filter`
/// (`acquire_ns` measured on the workload's own snapshot pin). The dynamic
/// rung drives a mutation load of its own unless the workload's load
/// already sent mutations.
void RunServeLadder(Run* run, const ServeInputs& inputs,
                    const ServeKeySpace& space, const ShardedHabf& filter,
                    double acquire_ns, size_t mutate_every,
                    const std::vector<uint8_t>* answers) {
  std::vector<std::string_view> probes;
  std::vector<uint8_t> probe_member;
  ServeProbes(inputs, space, 1 << 17, &probes, &probe_member);
  RunFilterRungs(filter, KeySpan(probes.data(), probes.size()), probe_member,
                 &run->report, &run->gate);
  run->report.Set("filter_store.acquire_ns", acquire_ns, "ns", 1 << 18,
                  "median of 5 passes");

  const std::vector<std::string> members = inputs.Members();
  const std::vector<habf::WeightedKey> negatives = inputs.Negatives();
  const std::vector<std::string_view> pos_views(members.begin(), members.end());
  const std::vector<habf::WeightedKeyView> neg_views =
      habf::MakeWeightedKeyViews(negatives);
  habf::HabfOptions options;
  options.total_bits = static_cast<size_t>(kBitsPerKey * space.members);
  RunBuildRungs(habf::StringSpan(pos_views.data(), pos_views.size()),
                habf::WeightedKeySpan(neg_views.data(), neg_views.size()),
                options, kShards, &run->report, &run->gate);

  RequestPlan protocol_plan(&inputs, space, 0, kWindow, mutate_every, answers);
  RunProtocolRung(FirstRequests(&protocol_plan, 16384), &run->report,
                  &run->gate);

  std::vector<std::unique_ptr<RequestPlan>> plans;
  std::vector<RequestSource*> sources;
  for (size_t c = 0; c < kConnections; ++c) {
    plans.push_back(std::make_unique<RequestPlan>(&inputs, space, c, kWindow, 0));
    sources.push_back(plans.back().get());
  }
  RunNullBackend(run, sources, run->args.seconds / 4);

  DynamicRungOptions dyn_options;
  dyn_options.wal_dir = run->args.wal_dir + "/ladder";
  dyn_options.wire_mutations = mutate_every == 0;
  dyn_options.seed = run->args.seed;
  RunDynamicRung(inputs, space, KeySpan(probes.data(), 1 << 16), dyn_options,
                 &run->compaction_ns, &run->report, &run->gate);
}

// --- serve_query --------------------------------------------------------------

void ServeQuery(Run* run) {
  const Args& args = run->args;
  ServeKeySpace space;
  space.seed = args.seed;
  const ServeInputs inputs = MakeServeInputs(space);
  const std::vector<std::string> members = inputs.Members();
  const std::vector<habf::WeightedKey> negatives = inputs.Negatives();
  const std::vector<std::string_view> pos_views(members.begin(), members.end());
  const std::vector<habf::WeightedKeyView> neg_views =
      habf::MakeWeightedKeyViews(negatives);
  StartRssWindow(run);

  habf::HabfOptions options;
  options.total_bits = static_cast<size_t>(kBitsPerKey * space.members);
  habf::ShardedBuildOptions sharding;
  sharding.num_shards = kShards;
  Store store;
  habf::net::StoreBackend<ShardedHabf> backend(&store);
  habf::net::ServerOptions server_options;
  server_options.num_workers = kServerWorkers;
  std::vector<double> setup_s;
  const int setups = args.trace != 0 ? 1 : 9;
  for (int k = 0; k < setups; ++k) {
    const uint64_t start = NowNs();
    store.Publish(habf::BuildShardedHabf(
        habf::StringSpan(pos_views.data(), pos_views.size()),
        habf::WeightedKeySpan(neg_views.data(), neg_views.size()), options,
        sharding));
    habf::net::Server server(&backend, server_options);
    std::string error;
    run->gate.Check(server.Start(&error), "server start failed: " + error);
    setup_s.push_back(Seconds(NowNs() - start));
  }
  ReportSetup(run, setup_s);

  // In-process answers of the whole key space: the wire must repeat them.
  const std::vector<std::string_view> all(inputs.keys.begin(), inputs.keys.end());
  const std::vector<uint8_t> answers = AnswersOf(*store.Acquire().filter, all);
  ReportKeySpaceAnswers(run, inputs, space, answers);

  std::vector<std::unique_ptr<RequestPlan>> plans;
  std::vector<RequestSource*> sources;
  for (size_t c = 0; c < kConnections; ++c) {
    plans.push_back(std::make_unique<RequestPlan>(&inputs, space, c, kWindow, 0,
                                                  &answers));
    sources.push_back(plans.back().get());
  }
  const double load_s = args.trace != 0 ? args.seconds / 2 : args.seconds;
  const WireLoadResult load =
      ServeLoad(run, &backend, nullptr, sources, LoadOptions(load_s));
  ReportPeakRss(run);
  ReportLoad(run, load.query, "1-key request, 2 connections");
  if (args.trace == 0) return;

  TimingBackend timing(&backend);
  const WireLoadResult traced =
      ServeLoad(run, &backend, &timing, sources, LoadOptions(load_s));
  run->traced_keys_per_s = traced.query.Reduce().keys_per_s;
  ReportOverhead(run);

  RunServeLadder(run, inputs, space, *store.Acquire().filter,
                 MeasureAcquireNs([&] { return store.Acquire().filter != nullptr; }),
                 0, &answers);
}

// --- serve_mutate -------------------------------------------------------------

void ServeMutate(Run* run) {
  const Args& args = run->args;
  ServeKeySpace space;
  space.seed = args.seed;
  const ServeInputs inputs = MakeServeInputs(space);
  const std::vector<std::string> members = inputs.Members();
  const std::vector<habf::WeightedKey> negatives = inputs.Negatives();
  StartRssWindow(run);

  habf::HabfOptions options;
  options.total_bits = static_cast<size_t>(kBitsPerKey * space.members);
  habf::ShardedBuildOptions sharding;
  sharding.num_shards = kShards;
  habf::net::ServerOptions server_options;
  server_options.num_workers = kServerWorkers;
  const std::string served_dir = args.wal_dir + "/served";

  std::unique_ptr<habf::DynamicShardedHabf> filter;
  std::vector<double> setup_s;
  const int setups = args.trace != 0 ? 1 : 9;
  std::error_code ec;
  for (int k = 0; k < setups; ++k) {
    filter.reset();
    std::filesystem::remove_all(served_dir, ec);
    std::vector<std::string> pos_copy = members;
    std::vector<habf::WeightedKey> neg_copy = negatives;
    const uint64_t start = NowNs();
    habf::DynamicOptions dynamic;
    dynamic.dirty_fraction_threshold = kDirtyFractionThreshold;
    filter = std::make_unique<habf::DynamicShardedHabf>(
        std::move(pos_copy), std::move(neg_copy), options, sharding, dynamic);
    std::string error;
    run->gate.Check(filter->EnableDurability(served_dir, &error),
                    "EnableDurability failed: " + error);
    habf::net::DynamicBackend backend(filter.get());
    habf::net::Server server(&backend, server_options);
    run->gate.Check(server.Start(&error), "server start failed: " + error);
    setup_s.push_back(Seconds(NowNs() - start));
  }
  ReportSetup(run, setup_s);

  const std::vector<std::string_view> all(inputs.keys.begin(), inputs.keys.end());
  ReportKeySpaceAnswers(run, inputs, space, AnswersOf(*filter, all));

  habf::net::DynamicBackend backend(filter.get());
  MutationCompactor compactor(filter.get(), kDirtyFractionThreshold);
  WireLoadOptions load_options = LoadOptions(
      args.trace != 0 ? args.seconds / 2 : args.seconds);
  load_options.on_mutation_ack = [&](size_t keys) {
    compactor.OnMutationAck(keys);
  };
  std::vector<std::unique_ptr<RequestPlan>> plans;
  std::vector<RequestSource*> sources;
  for (size_t c = 0; c < kConnections; ++c) {
    plans.push_back(std::make_unique<RequestPlan>(&inputs, space, c, kWindow,
                                                  kMutateEvery));
    sources.push_back(plans.back().get());
  }
  WireLoadResult load =
      ServeLoad(run, &backend, nullptr, sources, load_options);
  ReportPeakRss(run);
  ReportLoad(run, load.query,
             "1-key query beside 8-key mutations, 2 connections");

  WireLoadResult traced;
  if (args.trace != 0) {
    TimingBackend timing(&backend);
    traced = ServeLoad(run, &backend, &timing, sources, load_options);
    run->traced_keys_per_s = traced.query.Reduce().keys_per_s;
  }
  compactor.Stop();
  // Mutation acks of the untraced load are part of the table; the traced
  // run reports its own traced load's.
  ReportMutationAcks(args.trace != 0 ? &traced : &load, &run->report);
  std::vector<uint64_t> passes = compactor.pass_ns();
  run->compaction_ns = passes;
  const Summary compaction = Summarize(&passes);
  std::printf("serve_mutate: %zu compaction passes, p50 %.4f s, max %.4f s, "
              "max delta %zu keys\n",
              compaction.n, compaction.p50 / 1e9, compaction.max / 1e9,
              compactor.max_delta_keys());

  // Recovery gate: every acknowledged, never-removed insert survives Open.
  std::vector<std::string_view> acked;
  for (const auto& plan : plans) {
    for (size_t b = 0; b < plan->num_batches(); ++b) {
      if (!RequestPlan::Kept(b)) continue;
      for (const std::string& key : plan->BatchKeys(b)) acked.push_back(key);
    }
  }
  acked.insert(acked.end(), all.begin(), all.begin() + space.members);
  filter.reset();
  const uint64_t open_start = NowNs();
  std::string error;
  std::unique_ptr<habf::DynamicShardedHabf> recovered =
      habf::DynamicShardedHabf::Open(served_dir, {}, &error);
  std::printf("serve_mutate: recovery in %.3f s\n", Seconds(NowNs() - open_start));
  run->gate.Check(recovered != nullptr, "Open failed: " + error);
  if (recovered != nullptr) {
    const std::vector<uint8_t> after = AnswersOf(*recovered, acked);
    const size_t missing =
        static_cast<size_t>(std::count(after.begin(), after.end(), uint8_t{0}));
    run->gate.attempted += acked.size();
    run->gate.Check(missing == 0,
                    std::to_string(missing) +
                        " acknowledged keys missing after recovery",
                    missing);
  }
  if (args.trace == 0 || recovered == nullptr) return;
  ReportOverhead(run);

  RunServeLadder(run, inputs, space, *recovered->AcquireBase().filter,
                 MeasureAcquireNs([&] {
                   return recovered->AcquireBase().filter != nullptr;
                 }),
                 kMutateEvery, nullptr);
}

// --- main ---------------------------------------------------------------------

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lookup_local|serve_query|serve_mutate --seed N --seconds S "
               "--trace 0|1 --wal-dir DIR [--git-sha SHA] [--src-hash H]\n",
               why.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Run run;
  Args& args = run.args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--wal-dir") {
      args.wal_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--src-hash") {
      args.src_hash = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (args.wal_dir.empty()) return Usage("--wal-dir is required");
  void (*workload)(Run*) = nullptr;
  if (args.workload == "lookup_local") workload = LookupLocal;
  if (args.workload == "serve_query") workload = ServeQuery;
  if (args.workload == "serve_mutate") workload = ServeMutate;
  if (workload == nullptr) return Usage("unknown workload '" + args.workload + "'");

  std::error_code ec;
  std::filesystem::create_directories(args.wal_dir, ec);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::fflush(stdout);

  const auto steal_before = ReadCpuSteal();
  workload(&run);
  run.report.Set("host.steal_frac", StealFraction(steal_before, ReadCpuSteal()),
                 "frac", 0, "CPU time the hypervisor took during the run");

  const std::vector<std::string>& names = args.trace != 0 ? kPerLayer : kEndToEnd;
  for (const std::string& name : names) {
    run.gate.Check(run.report.Has(name), "metric " + name + " was not measured");
  }
  // Printed after the workload so that it can say whether pinning held.
  std::printf("host: %s\n",
              HostFingerprintJson({{"git_sha", args.git_sha},
                                   {"src_hash", args.src_hash},
                                   {"wal_dir_fs", FilesystemOf(args.wal_dir)},
                                   {"wal_flush", "fsync per insert"},
                                   {"cpu_pinning", CpuPinning()}})
                  .c_str());
  std::printf("metrics:\n%s", run.report.Table().c_str());
  for (const std::string& violation : run.gate.violations) {
    std::printf("GATE FAILED: %s\n", violation.c_str());
  }
  std::printf("%s\n", run.report
                          .ResultJson(run.gate.ok(),
                                      std::max<uint64_t>(run.gate.attempted, 1),
                                      run.gate.failed, names)
                          .c_str());
  std::fflush(stdout);
  return run.gate.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
