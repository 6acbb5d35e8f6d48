// Self-tests of the benchmark's own arithmetic and input generation: the
// percentile rule, the weighted-FPR sum, span self-time subtraction with
// nested spans, and seed determinism of every workload's key stream.
// Exits 0 when every check holds; prints each failure otherwise.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void TestPercentileRule() {
  // The tail is the highest percentile with at least ten samples beyond it.
  Expect(TailPercentile(19) == 0.0, "19 samples have no qualifying tail");
  Expect(TailPercentile(20) == 50.0, "20 samples: p50 has 10 beyond");
  Expect(TailPercentile(999) == 95.0, "999 samples: p99 has only 9 beyond");
  Expect(TailPercentile(1000) == 99.0, "1000 samples: p99 has 10 beyond");
  Expect(TailPercentile(9999) == 99.0, "9999 samples: p99.9 has 9 beyond");
  Expect(TailPercentile(10000) == 99.9, "10000 samples: p99.9 has 10 beyond");
  Expect(TailPercentile(100000) == 99.99, "100000 samples reach p99.99");

  std::vector<uint64_t> sorted;
  for (uint64_t v = 1; v <= 100; ++v) sorted.push_back(v);
  Expect(PercentileOfSorted(sorted, 50.0) == 50.0, "nearest-rank p50 of 1..100");
  Expect(PercentileOfSorted(sorted, 99.0) == 99.0, "nearest-rank p99 of 1..100");
  Expect(PercentileOfSorted(sorted, 100.0) == 100.0, "p100 is the max");
  Expect(PercentileOfSorted({}, 50.0) == 0.0, "empty sample");

  std::vector<uint64_t> samples;
  for (uint64_t v = 1000; v >= 1; --v) samples.push_back(v);
  Summary s = Summarize(&samples);
  Expect(s.n == 1000 && s.p50 == 500.0 && s.p99 == 990.0 && s.p99_pct == 99.0,
         "1000-sample summary reports p99 = 990");
  Expect(s.max == 1000.0, "summary max");

  std::vector<uint64_t> small = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10,
                                 11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  s = Summarize(&small);
  Expect(s.p99_pct == 50.0 && s.p99 == 10.0,
         "too few samples: the reported tail falls back to p50");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0 && Median({4.0, 1.0, 2.0, 3.0}) == 2.5,
         "median of repeats");
}

void TestChunkedSamples() {
  // Three one-second chunks; the middle one is a noisy second.
  const uint64_t start = 1000;
  ChunkedSamples samples(start, 3.0);
  ChunkedSamples other(start, 3.0);
  for (uint64_t i = 0; i < 2000; ++i) {
    samples.Add(start + 100000000 + i, 10, 1);
    samples.Add(start + 1100000000 + i, 1000, 1);
    other.Add(start + 2100000000 + i, 20, 1);
  }
  samples.Add(start - 1, 5, 1);           // before the window: ignored
  samples.Add(start + 3000000000, 5, 1);  // after it: ignored
  samples.Merge(other);
  const ChunkedSamples::Reduced r = samples.Reduce();
  Expect(r.chunks == 3 && r.all.n == 6000, "samples land in three chunks");
  Expect(r.keys_per_s == 2000.0, "median chunk rate");
  Expect(r.p50 == 20.0, "the noisy chunk does not move the median p50");
  Expect(r.p99_by_chunk && r.p99 == 20.0, "median of chunk p99s");
  Expect(r.all.p99 == 1000.0, "the whole-load p99 still sees the noise");

  ChunkedSamples every_fourth(0, 1.0, 4);
  for (uint64_t i = 0; i < 100; ++i) every_fourth.Add(i, i, 2);
  const ChunkedSamples::Reduced kept = every_fourth.Reduce();
  Expect(kept.all.n == 25 && kept.keys_per_s == 200.0,
         "subsampling keeps every 4th latency but counts every key");

  ChunkedSamples sparse(0, 2.0);
  for (uint64_t i = 0; i < 100; ++i) sparse.Add(i, i, 1);
  const ChunkedSamples::Reduced thin = sparse.Reduce();
  Expect(!thin.p99_by_chunk && thin.p99 == thin.all.p99,
         "chunks without ten samples beyond p99 fall back to the whole load");
}

void TestWeightedFpr() {
  Expect(WeightedFpr({1, 2, 3, 4}, {1, 0, 1, 0}) == 0.4,
         "weighted FPR = positive cost / total cost");
  Expect(WeightedFpr({1, 1, 1, 1}, {1, 0, 0, 0}) == 0.25,
         "unit costs give the plain FPR");
  Expect(WeightedFpr({0, 0}, {1, 1}) == 0.0, "zero total cost");
  Expect(WeightedFpr({1000, 1}, {0, 1}) == 1.0 / 1001.0,
         "a costly true negative dominates the denominator");
}

void TestSpanSelfTime() {
  // root [0,100] > a [10,30] > g [12,18]; root > b [35,50].
  SpanLog log;
  const uint32_t root = log.Begin("root", 0);
  const uint32_t a = log.Begin("a", 10);
  const uint32_t g = log.Begin("g", 12);
  log.End(g, 18);
  log.End(a, 30);
  const uint32_t b = log.Begin("b", 35);
  log.End(b, 50);
  log.End(root, 100);
  Expect(log.spans()[a - 1].parent == root && log.spans()[g - 1].parent == a &&
             log.spans()[b - 1].parent == root,
         "parents follow nesting");
  auto totals = AggregateSpans(log.spans());
  Expect(totals["root"].total_ns == 100 && totals["root"].self_ns == 65,
         "root self = 100 - 20 - 15 (grandchild not subtracted twice)");
  Expect(totals["a"].self_ns == 14, "a self = 20 - 6");
  Expect(totals["g"].self_ns == 6 && totals["b"].self_ns == 15, "leaf self");

  // Overlapping children (spans from several threads under one parent)
  // are covered once, and a child running past its parent is clipped.
  std::vector<SpanRecord> spans = {
      {1, 0, "p", 0, 100},
      {2, 1, "c", 10, 40},
      {3, 1, "c", 30, 60},
      {4, 1, "c", 90, 120},
  };
  totals = AggregateSpans(spans);
  Expect(totals["p"].self_ns == 100 - 50 - 10,
         "overlapping children cover [10,60] and [90,100]");
  Expect(totals["c"].count == 3 && totals["c"].total_ns == 90,
         "children totals");
}

std::string StreamBytes(const LookupInputs& in) {
  std::string bytes;
  for (size_t i = 0; i < in.stream.size(); ++i) {
    bytes.append(in.stream[i]);
    bytes.push_back(static_cast<char>(in.stream_member[i]));
  }
  return bytes;
}

std::string PlanBytes(const ServeInputs& inputs, const ServeKeySpace& space,
                      size_t connection, size_t mutate_every, size_t n) {
  RequestPlan plan(&inputs, space, connection, 8, mutate_every);
  PlannedRequest r;
  std::string bytes;
  for (size_t i = 0; i < n; ++i) {
    plan.Next(&r);
    bytes.push_back(static_cast<char>(r.kind));
    for (const std::string_view key : r.keys) bytes.append(key).push_back('|');
    for (const int8_t e : r.expect) bytes.push_back(static_cast<char>(e));
  }
  return bytes;
}

void TestSeedDeterminism() {
  LookupSizes sizes;
  sizes.positives = 2000;
  sizes.negatives = 2000;
  sizes.unseen = 500;
  sizes.stream = 4096;
  const LookupInputs a = MakeLookupInputs(7, sizes);
  const LookupInputs b = MakeLookupInputs(7, sizes);
  const LookupInputs c = MakeLookupInputs(8, sizes);
  Expect(StreamBytes(a) == StreamBytes(b),
         "lookup_local: same seed, byte-identical stream");
  Expect(StreamBytes(a) != StreamBytes(c), "lookup_local: seeds differ");
  std::set<std::string_view> positives(a.positives.begin(), a.positives.end());
  size_t members = 0;
  bool flags_right = true;
  for (size_t i = 0; i < a.stream.size(); ++i) {
    const bool member = positives.count(a.stream[i]) > 0;
    flags_right = flags_right && member == (a.stream_member[i] != 0);
    members += member ? 1 : 0;
  }
  Expect(flags_right, "lookup_local: member flags match the key sets");
  Expect(members > 300 && members < 520, "lookup_local: about 10% members");
  std::set<std::string> seen(a.positives.begin(), a.positives.end());
  for (const auto& wk : a.negatives) seen.insert(wk.key);
  for (const auto& key : a.unseen) seen.insert(key);
  Expect(seen.size() == 4500, "lookup_local: key sets are disjoint");

  ServeKeySpace space;
  space.seed = 11;
  space.members = 1000;
  space.negatives = 500;
  space.unseen = 500;
  const ServeInputs s1 = MakeServeInputs(space);
  const ServeInputs s2 = MakeServeInputs(space);
  Expect(s1.keys == s2.keys && s1.negative_costs == s2.negative_costs,
         "serve: same seed, identical key space");
  for (const size_t mutate_every : {size_t{0}, size_t{16}}) {
    Expect(PlanBytes(s1, space, 0, mutate_every, 5000) ==
               PlanBytes(s2, space, 0, mutate_every, 5000),
           "serve: same seed, byte-identical request stream");
    Expect(PlanBytes(s1, space, 0, mutate_every, 5000) !=
               PlanBytes(s1, space, 1, mutate_every, 5000),
           "serve: connections draw different streams");
  }
  ServeKeySpace other = space;
  other.seed = 12;
  Expect(MakeServeInputs(other).keys != s1.keys, "serve: seeds differ");
}

void TestPlanExpectations() {
  ServeKeySpace space;
  space.seed = 3;
  space.members = 1000;
  space.negatives = 500;
  space.unseen = 500;
  const ServeInputs inputs = MakeServeInputs(space);
  RequestPlan plan(&inputs, space, 0, 8, 4);
  std::vector<std::pair<std::string, size_t>> inserts;
  std::set<std::string> removed;
  PlannedRequest r;
  bool ok = true;
  size_t insert_probes = 0;
  for (size_t pos = 0; pos < 20000; ++pos) {
    plan.Next(&r);
    if (r.kind == PlannedRequest::kInsert) {
      for (const auto key : r.keys) inserts.emplace_back(std::string(key), pos);
    } else if (r.kind == PlannedRequest::kRemove) {
      for (const auto key : r.keys) removed.insert(std::string(key));
    } else if (r.expect[0] == 1) {
      const std::string key(r.keys[0]);
      const bool member =
          std::find(inputs.keys.begin(), inputs.keys.begin() + space.members,
                    key) != inputs.keys.begin() + space.members;
      if (member) continue;
      ++insert_probes;
      // An inserted key probed as positive was inserted at least a window
      // earlier and is never removed.
      bool found = false;
      for (const auto& [k, at] : inserts) {
        if (k == key) found = at + 8 <= pos;
      }
      ok = ok && found && removed.count(key) == 0;
    }
  }
  Expect(ok && insert_probes > 100,
         "insert probes target acknowledged, never-removed inserts");
  size_t still_present = 0;
  for (size_t b = 0; b < plan.num_batches(); ++b) {
    for (const auto& key : plan.BatchKeys(b)) {
      if (RequestPlan::Kept(b)) still_present += removed.count(key) == 0;
    }
  }
  Expect(still_present > 0 && !removed.empty(),
         "removes hit only unkept batches");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestChunkedSamples();
  perfbench::TestWeightedFpr();
  perfbench::TestSpanSelfTime();
  perfbench::TestSeedDeterminism();
  perfbench::TestPlanExpectations();
  if (perfbench::g_failures == 0) {
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
  }
  std::printf("perfbench selftest: %d checks failed\n", perfbench::g_failures);
  return 1;
}
