#include "ladder.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "core/delta_wal.h"
#include "core/dynamic_filter.h"
#include "hashing/hash_provider.h"
#include "net/protocol.h"
#include "net/server.h"
#include "workload/dataset.h"

namespace perfbench {

using habf::KeySpan;

namespace {

constexpr size_t kBlock = 32;

/// The dynamic rung's own wire load, for workloads whose load sends no
/// mutations: one second, one frame in 64 a mutation, enough acks for a
/// median.
constexpr double kWireSeconds = 1.0;
constexpr size_t kWireMutateEvery = 64;

/// Keeps timed results alive so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

/// Answers of `filter` over `keys`, in kBlock-key ContainsBatch calls.
template <typename F>
std::vector<uint8_t> BatchAnswers(const F& filter, KeySpan keys) {
  std::vector<uint8_t> out(keys.size());
  for (size_t b = 0; b < keys.size(); b += kBlock) {
    const size_t count = std::min(kBlock, keys.size() - b);
    filter.ContainsBatch(KeySpan(keys.data() + b, count), out.data() + b);
  }
  return out;
}

/// One pass answering all of `keys` in kBlock-key ContainsBatch calls.
template <typename F>
std::function<void()> BatchPass(const F& filter, KeySpan keys,
                                std::vector<uint8_t>* out) {
  out->resize(keys.size());
  return [&filter, keys, out] {
    for (size_t b = 0; b < keys.size(); b += kBlock) {
      const size_t count = std::min(kBlock, keys.size() - b);
      filter.ContainsBatch(KeySpan(keys.data() + b, count), out->data() + b);
    }
  };
}

size_t CountZeros(const std::vector<uint8_t>& answers) {
  return static_cast<size_t>(
      std::count(answers.begin(), answers.end(), uint8_t{0}));
}

std::vector<std::string_view> Views(const std::vector<std::string>& keys) {
  return std::vector<std::string_view>(keys.begin(), keys.end());
}

}  // namespace

std::vector<double> InterleavedMedianNs(
    const std::vector<std::function<void()>>& rungs) {
  std::vector<std::vector<double>> passes(rungs.size());
  for (int p = 0; p < kLadderPasses; ++p) {
    for (size_t r = 0; r < rungs.size(); ++r) {
      const uint64_t start = NowNs();
      rungs[r]();
      passes[r].push_back(static_cast<double>(NowNs() - start));
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& rung : passes) medians.push_back(Median(rung));
  return medians;
}

// --- read path ----------------------------------------------------------------

void RunFilterRungs(const ShardedHabf& filter, KeySpan probes,
                    const std::vector<uint8_t>& probe_member, Report* report,
                    Gate* gate) {
  const size_t n = probes.size();
  const size_t num_shards = filter.num_shards();

  // Route once. The scalar rungs walk each shard's keys in stream order; the
  // per-shard batch rung gets every 32-key block's routed groups laid out
  // contiguously, as ShardedFilter::ContainsBatch groups them.
  std::vector<std::vector<std::string_view>> by_shard(num_shards);
  std::vector<std::vector<uint32_t>> origin(num_shards);
  std::vector<uint32_t> shard_of(n);
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = static_cast<uint32_t>(filter.ShardOf(probes[i]));
    by_shard[shard_of[i]].push_back(probes[i]);
    origin[shard_of[i]].push_back(static_cast<uint32_t>(i));
  }
  struct Group {
    size_t shard, begin, count;
  };
  std::vector<Group> groups;
  std::vector<std::string_view> grouped;
  std::vector<uint32_t> grouped_origin;
  grouped.reserve(n);
  grouped_origin.reserve(n);
  for (size_t b = 0; b < n; b += kBlock) {
    const size_t end = std::min(n, b + kBlock);
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t begin = grouped.size();
      for (size_t i = b; i < end; ++i) {
        if (shard_of[i] != s) continue;
        grouped.push_back(probes[i]);
        grouped_origin.push_back(static_cast<uint32_t>(i));
      }
      if (grouped.size() > begin) {
        groups.push_back(Group{s, begin, grouped.size() - begin});
      }
    }
  }

  std::vector<std::unique_ptr<habf::GlobalHashProvider>> providers;
  for (size_t s = 0; s < num_shards; ++s) {
    const habf::Habf& shard = filter.shard(s);
    providers.push_back(std::make_unique<habf::GlobalHashProvider>(
        shard.usable_functions(), shard.options().seed));
  }
  // Round 2 runs only for round-1 misses: the HashExpressor walk, then the
  // bit test with the subset it returns.
  std::vector<std::vector<std::string_view>> misses_by_shard(num_shards);
  size_t misses = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    for (const std::string_view key : by_shard[s]) {
      if (!filter.shard(s).ContainsFirstRound(key)) {
        misses_by_shard[s].push_back(key);
        ++misses;
      }
    }
  }

  uint64_t sink = 0;
  uint64_t values[64];
  uint8_t fns[16];
  std::vector<uint8_t> scalar(n);
  std::vector<uint8_t> grouped_out(n);
  std::vector<uint8_t> sharded;
  const std::vector<double> ns = InterleavedMedianNs({
      [&] {  // hashing: the H0 values
        for (size_t s = 0; s < num_shards; ++s) {
          const std::vector<uint8_t>& h0 = filter.shard(s).h0();
          for (const std::string_view key : by_shard[s]) {
            providers[s]->Values(key, h0.data(), h0.size(), values);
            sink += values[0];
          }
        }
      },
      [&] {  // bloom: round 1
        for (size_t s = 0; s < num_shards; ++s) {
          const habf::Habf& shard = filter.shard(s);
          for (const std::string_view key : by_shard[s]) {
            sink += shard.ContainsFirstRound(key) ? 1 : 0;
          }
        }
      },
      [&] {  // hash_expressor: round 2 over the round-1 misses
        for (size_t s = 0; s < num_shards; ++s) {
          const habf::Habf& shard = filter.shard(s);
          const size_t k = shard.h0().size();
          for (const std::string_view key : misses_by_shard[s]) {
            sink += shard.expressor().Query(key, fns, k) &&
                            shard.bloom().TestWith(key, fns, k)
                        ? 1
                        : 0;
          }
        }
      },
      [&] {  // habf: scalar two-round Contains
        for (size_t s = 0; s < num_shards; ++s) {
          const habf::Habf& shard = filter.shard(s);
          for (size_t j = 0; j < by_shard[s].size(); ++j) {
            scalar[origin[s][j]] = shard.Contains(by_shard[s][j]) ? 1 : 0;
          }
        }
      },
      [&] {  // habf: per-shard ContainsBatch over each block's routed groups
        for (const Group& g : groups) {
          filter.shard(g.shard).ContainsBatch(
              KeySpan(grouped.data() + g.begin, g.count),
              grouped_out.data() + g.begin);
        }
      },
      BatchPass(filter, probes, &sharded),  // sharded: route + group + batch
  });
  const double hash_ns = ns[0];
  const double round1_ns = ns[1];
  const double round2_ns = ns[2];
  const double contains_ns = ns[3];
  const double batch_ns = ns[4];
  const double sharded_ns = ns[5];
  std::vector<uint8_t> batch(n);
  for (size_t i = 0; i < n; ++i) batch[grouped_origin[i]] = grouped_out[i];
  g_sink = sink;

  size_t disagree = 0;
  size_t false_negatives = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t routed_scalar = filter.MightContain(probes[i]) ? 1 : 0;
    if (scalar[i] != batch[i] || batch[i] != sharded[i] ||
        sharded[i] != routed_scalar) {
      ++disagree;
    }
    if (probe_member[i] != 0 &&
        (scalar[i] & batch[i] & sharded[i] & routed_scalar) == 0) {
      ++false_negatives;
    }
  }
  gate->attempted += n;
  gate->Check(disagree == 0,
              "scalar, batch and sharded answers differ on " +
                  std::to_string(disagree) + " keys",
              disagree);
  gate->Check(false_negatives == 0,
              std::to_string(false_negatives) +
                  " members answered 0 on the read-path ladder",
              false_negatives);

  const double keys = static_cast<double>(n);
  const std::string note = "median of 5 passes";
  report->Set("hashing.h0_ns_per_key", hash_ns / keys, "ns", n, note);
  report->Set("bloom.round1_ns_per_key", round1_ns / keys, "ns", n, note);
  report->Set("habf.contains_ns_per_key", contains_ns / keys, "ns", n, note);
  report->Set("habf.batch_ns_per_key", batch_ns / keys, "ns", n, note);
  report->Set("habf.round1_miss_frac", static_cast<double>(misses) / keys,
              "frac", n);
  report->Set("hash_expressor.round2_ns_per_miss",
              misses == 0 ? 0.0 : round2_ns / static_cast<double>(misses),
              "ns", misses,
              "HashExpressor::Query and bit test over the round-1 misses; "
              "contains minus round 1 would be " +
                  Brief(misses == 0 ? 0.0
                                    : (contains_ns - round1_ns) /
                                          static_cast<double>(misses)));
  report->Set("sharded.batch_ns_per_key", sharded_ns / keys, "ns", n, note);
  report->Set("sharded.route_ns_per_key", (sharded_ns - batch_ns) / keys,
              "ns", n, "sharded batch minus per-shard batches");
}

// --- build --------------------------------------------------------------------

void RunBuildRungs(habf::StringSpan positives, habf::WeightedKeySpan negatives,
                   const habf::HabfOptions& options, size_t num_shards,
                   Report* report, Gate* gate) {
  habf::ShardedBuildOptions sharding;
  sharding.num_shards = num_shards;
  uint64_t start = NowNs();
  const ShardedHabf parallel =
      habf::BuildShardedHabf(positives, negatives, options, sharding);
  const double parallel_s = static_cast<double>(NowNs() - start) / 1e9;

  std::vector<std::vector<std::string_view>> pos(num_shards);
  std::vector<std::vector<habf::WeightedKeyView>> neg(num_shards);
  for (const std::string_view key : positives) {
    pos[parallel.ShardOf(key)].push_back(key);
  }
  for (const habf::WeightedKeyView& wk : negatives) {
    neg[parallel.ShardOf(wk.key)].push_back(wk);
  }

  double serial_s = 0.0;
  habf::HabfBuildStats sum;
  size_t construction_bytes = 0;
  size_t disagree = 0;
  size_t checked = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    start = NowNs();
    const habf::Habf shard = habf::Habf::Build(
        habf::StringSpan(pos[s].data(), pos[s].size()),
        habf::WeightedKeySpan(neg[s].data(), neg[s].size()),
        parallel.shard(s).options());
    serial_s += static_cast<double>(NowNs() - start) / 1e9;
    const habf::HabfBuildStats& st = shard.stats();
    sum.initial_collisions += st.initial_collisions;
    sum.optimized += st.optimized;
    sum.failed += st.failed;
    sum.adjusted_positives += st.adjusted_positives;
    construction_bytes += st.construction_memory.TotalBytes();
    // The serial shard must be the parallel shard, bit for bit.
    for (size_t i = 0; i < std::min<size_t>(pos[s].size(), 4096); ++i) {
      disagree += shard.Contains(pos[s][i]) ? 0 : 1;
      ++checked;
    }
    for (size_t i = 0; i < std::min<size_t>(neg[s].size(), 4096); ++i) {
      disagree += shard.Contains(neg[s][i].key) !=
                          parallel.shard(s).Contains(neg[s][i].key)
                      ? 1
                      : 0;
      ++checked;
    }
  }
  gate->attempted += checked;
  gate->Check(disagree == 0,
              "serial shard builds differ from the parallel build on " +
                  std::to_string(disagree) + " keys",
              disagree);

  report->Set("habf.build_s", serial_s, "s", num_shards,
              "serial Habf::Build, summed over shards");
  report->Set("sharded.build_s", parallel_s, "s", 1,
              "BuildShardedHabf on nproc threads");
  report->Set("sharded.build_speedup", serial_s / parallel_s, "x");
  report->Set("habf.initial_collisions",
              static_cast<double>(sum.initial_collisions), "count");
  report->Set("habf.optimized", static_cast<double>(sum.optimized), "count");
  report->Set("habf.failed", static_cast<double>(sum.failed), "count");
  report->Set("habf.adjusted_positives",
              static_cast<double>(sum.adjusted_positives), "count");
  report->Set("habf.construction_mb",
              static_cast<double>(construction_bytes) / 1e6, "MB", num_shards,
              "summed over shards");
}

// --- protocol -----------------------------------------------------------------

void RunProtocolRung(const std::vector<PlannedRequest>& requests,
                     Report* report, Gate* gate) {
  namespace net = habf::net;
  const size_t n = requests.size();
  size_t max_keys = 1;
  for (const PlannedRequest& r : requests) {
    max_keys = std::max(max_keys, r.keys.size());
  }
  const std::vector<uint8_t> answers(max_keys, 1);
  std::string request_bytes;
  std::string response_bytes;
  std::string payload;
  const auto encode = [&] {
    request_bytes.clear();
    response_bytes.clear();
    for (size_t i = 0; i < n; ++i) {
      const PlannedRequest& r = requests[i];
      const KeySpan keys(r.keys.data(), r.keys.size());
      const uint8_t op = r.kind == PlannedRequest::kQuery    ? net::kOpQuery
                         : r.kind == PlannedRequest::kInsert ? net::kOpInsert
                                                             : net::kOpRemove;
      payload.clear();
      net::AppendKeyBatchPayload(&payload, keys);
      net::AppendFrame(&request_bytes, i + 1, op, payload);
      payload.clear();
      if (r.kind == PlannedRequest::kQuery) {
        net::AppendQueryResponsePayload(&payload, answers.data(), keys.size());
        net::AppendFrame(&response_bytes, i + 1, net::kOpQueryResponse,
                         payload);
      } else {
        net::AppendMutateResponsePayload(&payload, net::kStatusOk, keys.size());
        net::AppendFrame(&response_bytes, i + 1, net::kOpMutateResponse,
                         payload);
      }
    }
  };

  // Decoding feeds the bytes in 64 KiB reads, as a socket would deliver
  // them, so frames straddle reads.
  constexpr size_t kRead = 64 * 1024;
  size_t bad = 0;
  std::vector<std::string_view> keys;
  std::string error;
  const auto decode = [&] {
    bad = 0;
    size_t next = 0;
    net::FrameDecoder requests_in;
    net::Frame frame;
    for (size_t off = 0; off < request_bytes.size(); off += kRead) {
      requests_in.Feed(std::string_view(request_bytes).substr(off, kRead));
      while (requests_in.Next(&frame, &error) ==
             net::FrameDecoder::Status::kFrame) {
        if (next >= n ||
            !net::ParseKeyBatchPayload(frame.payload, &keys, &error) ||
            keys.size() != requests[next].keys.size() ||
            keys[0] != requests[next].keys[0]) {
          ++bad;
        }
        ++next;
      }
    }
    bad += next == n ? 0 : 1;
    next = 0;
    net::FrameDecoder responses_in;
    for (size_t off = 0; off < response_bytes.size(); off += kRead) {
      responses_in.Feed(std::string_view(response_bytes).substr(off, kRead));
      while (responses_in.Next(&frame, &error) ==
             net::FrameDecoder::Status::kFrame) {
        bool ok = next < n;
        if (ok && frame.op == net::kOpQueryResponse) {
          net::QueryResponseView view;
          ok = net::ParseQueryResponsePayload(frame.payload, &view, &error) &&
               view.key_count == requests[next].keys.size();
        } else if (ok) {
          net::MutateResponseView view;
          ok = net::ParseMutateResponsePayload(frame.payload, &view, &error) &&
               view.applied == requests[next].keys.size();
        }
        bad += ok ? 0 : 1;
        ++next;
      }
    }
    bad += next == n ? 0 : 1;
  };
  const std::vector<double> ns = InterleavedMedianNs({encode, decode});
  const double encode_ns = ns[0];
  const double decode_ns = ns[1];
  gate->attempted += 2 * n;
  gate->Check(bad == 0,
              std::to_string(bad) + " frames did not decode to what was encoded",
              bad);
  const double frames = 2.0 * static_cast<double>(n);
  report->Set("protocol.encode_ns_per_frame", encode_ns / frames, "ns",
              2 * n, "requests and responses, median of 5 passes");
  report->Set("protocol.decode_ns_per_frame", decode_ns / frames, "ns",
              2 * n, "requests and responses, median of 5 passes");
}

// --- server -------------------------------------------------------------------

void ReportServerLayer(const TimingBackend::Totals& t,
                       const habf::net::ServerStats& stats, size_t workers,
                       double wall_s, Report* report) {
  const double calls = static_cast<double>(std::max<uint64_t>(t.query_calls, 1));
  report->Set("server.keys_per_batch",
              static_cast<double>(t.query_keys) / calls, "keys", t.query_calls);
  report->Set("server.backend_query_ns_per_batch",
              static_cast<double>(t.query_ns) / calls, "ns", t.query_calls);
  report->Set("server.backend_busy_frac",
              static_cast<double>(t.query_ns + t.mutate_ns) /
                  (static_cast<double>(workers) * wall_s * 1e9),
              "frac", 0, "backend time over workers x wall time");
  if (t.mutate_calls > 0) {
    report->Set("server.backend_mutate_us_per_frame",
                static_cast<double>(t.mutate_ns) /
                    static_cast<double>(t.mutate_calls) / 1e3,
                "us", t.mutate_calls);
  }
  report->Set("server.protocol_errors",
              static_cast<double>(stats.protocol_errors), "count");
  report->Set("server.backpressure_pauses",
              static_cast<double>(stats.backpressure_pauses), "count");
  report->Set("server.read_budget_exhausted",
              static_cast<double>(stats.read_budget_exhausted), "count");
  report->Set("server.evictions",
              static_cast<double>(stats.evictions_output_overflow +
                                  stats.evictions_idle),
              "count");
}

void ReportMutationAcks(WireLoadResult* load, Report* report) {
  const Summary s = Summarize(&load->mutate_latency_ns);
  report->Set("mutate_keys_per_s",
              static_cast<double>(load->mutate_keys) / load->measured_s,
              "keys/s", s.n);
  report->Set("mutate_p50_us", s.p50 / 1e3, "us", s.n);
  report->Set("mutate_p99_us", s.p99 / 1e3, "us", s.n,
              s.p99_pct == 99.0 ? "" : "too few samples for p99; this is p" +
                                           Brief(s.p99_pct));
  report->Set("error_frac",
              static_cast<double>(load->errors) /
                  static_cast<double>(std::max<uint64_t>(load->requests_sent, 1)),
              "frac", load->requests_sent);
}

// --- dynamic tier + WAL -------------------------------------------------------

void RunDynamicRung(const ServeInputs& inputs, const ServeKeySpace& space,
                    KeySpan probes, const DynamicRungOptions& options,
                    std::vector<uint64_t>* compaction_ns, Report* report,
                    Gate* gate) {
  habf::HabfOptions habf_options;
  habf_options.total_bits = 10 * space.members;
  habf::ShardedBuildOptions sharding;
  sharding.num_shards = 8;
  habf::DynamicOptions dynamic;
  dynamic.dirty_fraction_threshold = kDirtyFractionThreshold;
  auto filter = std::make_unique<habf::DynamicShardedHabf>(
      inputs.Members(), inputs.Negatives(), habf_options, sharding, dynamic);

  std::vector<uint8_t> probe_out;
  std::vector<uint8_t> base_out;
  auto overlay_ns_per_key = [&] {
    const auto base = filter->AcquireBase();
    const std::vector<double> ns =
        InterleavedMedianNs({BatchPass(*filter, probes, &probe_out),
                             BatchPass(*base.filter, probes, &base_out)});
    return (ns[0] - ns[1]) / static_cast<double>(probes.size());
  };
  const std::string overlay_note = "dynamic minus pinned base ContainsBatch";
  report->Set("dynamic.overlay_ns_per_key.delta0", overlay_ns_per_key(), "ns",
              probes.size(), overlay_note);

  // Fresh keys from a stream seed no key space uses.
  const size_t ten_pct = std::max<size_t>(space.members / 10, 100);
  std::vector<std::string> fresh;
  for (size_t i = 0; i < ten_pct + 256; ++i) {
    fresh.push_back(habf::WorkloadStreamKey(options.seed ^ 0x44454C5441ULL, i));
  }
  std::vector<uint64_t> insert_ns;
  auto insert_range = [&](size_t begin, size_t end, std::vector<uint64_t>* out) {
    for (size_t i = begin; i < end; ++i) {
      const uint64_t start = NowNs();
      filter->Insert(fresh[i]);
      out->push_back(NowNs() - start);
    }
  };
  insert_range(0, ten_pct / 10, &insert_ns);
  report->Set("dynamic.overlay_ns_per_key.delta1pct", overlay_ns_per_key(),
              "ns", probes.size(), overlay_note);
  insert_range(ten_pct / 10, ten_pct, &insert_ns);
  report->Set("dynamic.overlay_ns_per_key.delta10pct", overlay_ns_per_key(),
              "ns", probes.size(), overlay_note);
  size_t max_delta = filter->delta_size();

  const std::vector<std::string_view> inserted(fresh.begin(),
                                               fresh.begin() + ten_pct);
  const KeySpan inserted_span(inserted.data(), inserted.size());
  size_t zeros = CountZeros(BatchAnswers(*filter, inserted_span));
  uint64_t start = NowNs();
  if (filter->CompactDirtyShards().shards_rebuilt > 0) {
    compaction_ns->push_back(NowNs() - start);
  }
  zeros += CountZeros(BatchAnswers(*filter, inserted_span));
  gate->attempted += 2 * inserted.size();
  gate->Check(zeros == 0,
              std::to_string(zeros) + " acknowledged inserts answered 0",
              zeros);

  std::error_code ec;
  std::filesystem::remove_all(options.wal_dir, ec);
  std::filesystem::create_directories(options.wal_dir, ec);
  std::string error;
  const bool durable = filter->EnableDurability(options.wal_dir, &error);
  gate->Check(durable, "EnableDurability failed: " + error);
  std::vector<uint64_t> durable_ns;
  insert_range(ten_pct, ten_pct + 256, &durable_ns);
  // Acknowledged inserts by how they were made, for the recovery gate.
  std::vector<std::pair<const char*, std::vector<std::string>>> acked = {
      {"plain inserts, compacted before durability",
       std::vector<std::string>(fresh.begin(), fresh.begin() + ten_pct)},
      {"durable inserts",
       std::vector<std::string>(fresh.begin() + ten_pct, fresh.end())},
      {"inserts over the wire", {}},
  };

  const Summary plain = Summarize(&insert_ns);
  const Summary synced = Summarize(&durable_ns);
  report->Set("dynamic.insert_us", plain.p50 / 1e3, "us", plain.n,
              "median, durability off");
  report->Set("dynamic.insert_durable_us", synced.p50 / 1e3, "us", synced.n,
              "median, fsync on");
  report->Set("wal.sync_us_per_insert", (synced.p50 - plain.p50) / 1e3, "us",
              synced.n, "durable minus plain insert");

  if (options.wire_mutations) {
    habf::net::DynamicBackend backend(filter.get());
    TimingBackend timing(&backend);
    MutationCompactor compactor(filter.get(), kDirtyFractionThreshold);
    std::vector<std::unique_ptr<RequestPlan>> plans;
    std::vector<RequestSource*> sources;
    for (size_t c = 0; c < 2; ++c) {
      plans.push_back(std::make_unique<RequestPlan>(&inputs, space, c, 8,
                                                    kWireMutateEvery));
      sources.push_back(plans.back().get());
    }
    WireLoadOptions load_options;
    load_options.warmup_s = 0.25;
    load_options.seconds = kWireSeconds;
    load_options.on_mutation_ack = [&](size_t keys) {
      compactor.OnMutationAck(keys);
    };
    ServedLoad served = RunServedLoad(&timing, 2, load_options, sources, gate);
    compactor.Stop();
    ReportMutationAcks(&served.load, report);
    const TimingBackend::Totals totals = timing.totals();
    report->Set("server.backend_mutate_us_per_frame",
                static_cast<double>(totals.mutate_ns) /
                    static_cast<double>(std::max<uint64_t>(totals.mutate_calls, 1)) /
                    1e3,
                "us", totals.mutate_calls);
    for (const uint64_t ns : compactor.pass_ns()) compaction_ns->push_back(ns);
    max_delta = std::max(max_delta, compactor.max_delta_keys());
    for (const auto& plan : plans) {
      for (size_t b = 0; b < plan->num_batches(); ++b) {
        if (!RequestPlan::Kept(b)) continue;
        for (const std::string& key : plan->BatchKeys(b)) {
          acked[2].second.push_back(key);
        }
      }
    }
  }

  std::vector<uint64_t> passes = *compaction_ns;
  const Summary compaction = Summarize(&passes);
  report->Set("dynamic.compaction_s.p50", compaction.p50 / 1e9, "s",
              compaction.n);
  report->Set("dynamic.compaction_s.max", compaction.max / 1e9, "s",
              compaction.n);
  report->Set("dynamic.delta_keys_max", static_cast<double>(max_delta),
              "count");
  const habf::DynamicStats stats = filter->stats();
  report->Set("dynamic.compactions", static_cast<double>(stats.compactions),
              "count");
  report->Set("dynamic.shards_rebuilt",
              static_cast<double>(stats.shards_rebuilt), "count");
  report->Set("dynamic.keys_drained", static_cast<double>(stats.keys_drained),
              "count");
  report->Set("dynamic.front_rotations",
              static_cast<double>(stats.front_rotations), "count");
  report->Set("dynamic.checkpoints", static_cast<double>(stats.checkpoints),
              "count");

  // Recovery: drop the filter without a checkpoint and reopen the directory.
  const uint64_t epoch = filter->wal_epoch();
  filter.reset();
  const habf::WalReplayResult all = habf::ReplayWalDir(options.wal_dir, 0, 0);
  const habf::WalReplayResult tail =
      habf::ReplayWalDir(options.wal_dir, epoch, 0);
  start = NowNs();
  std::unique_ptr<habf::DynamicShardedHabf> recovered =
      habf::DynamicShardedHabf::Open(options.wal_dir, {}, &error);
  const double open_s = static_cast<double>(NowNs() - start) / 1e9;
  report->Set("dynamic.open_s", open_s, "s", 1);
  report->Set("dynamic.open_wal_records",
              static_cast<double>(tail.records.size()), "count", 0,
              "records in the epoch after the last checkpoint");
  report->Set("wal.records", static_cast<double>(all.records.size()), "count",
              0, "records in the retained WAL files");
  gate->Check(recovered != nullptr, "DynamicShardedHabf::Open failed: " + error);
  if (recovered != nullptr) {
    for (const auto& [what, keys] : acked) {
      const std::vector<std::string_view> views = Views(keys);
      const size_t missing = CountZeros(
          BatchAnswers(*recovered, KeySpan(views.data(), views.size())));
      gate->attempted += views.size();
      gate->Check(missing == 0,
                  std::to_string(missing) + " of " +
                      std::to_string(views.size()) + " " + what +
                      " missing after recovery",
                  missing);
    }
  }
  recovered.reset();
  std::filesystem::remove_all(options.wal_dir, ec);
}

}  // namespace perfbench
