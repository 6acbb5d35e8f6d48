// Reproduces Table II operationally: the 22-function global hash family,
// with per-function throughput (google-benchmark) and a uniformity summary.
// The paper's table only lists the functions; this bench demonstrates that
// every member is implemented and behaves as an independent uniform hash.
//
// BM_UrlBlock hashes 32-key blocks of ShallaLike URL keys (the read path's
// key shape) with each function HABF can address at the default cell width,
// so the cost of every candidate H0 member shows per function:
//   bench_table2_hashes --benchmark_filter=UrlBlock

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/habf.h"
#include "hashing/hash_function.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "workload/dataset.h"

namespace habf {
namespace {

std::vector<std::string> MakeKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  Xoshiro256 rng(2);
  for (size_t i = 0; i < n; ++i) {
    std::string key = "http://bench" + std::to_string(i) + ".example/";
    const size_t extra = rng.NextBounded(32);
    for (size_t j = 0; j < extra; ++j) {
      key += static_cast<char>('a' + rng.NextBounded(26));
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

void BM_HashFunction(benchmark::State& state) {
  const size_t idx = static_cast<size_t>(state.range(0));
  const auto& family = HashFamily::Global();
  static const std::vector<std::string> keys = MakeKeys(4096);
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string& key = keys[i++ & 4095];
    benchmark::DoNotOptimize(family.Hash(idx, key, 0));
    bytes += key.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  state.SetLabel(family.Name(idx));
}

constexpr size_t kBlock = 32;

/// 4096 ShallaLike URL keys (cache-resident): 128 blocks of 32.
const std::vector<std::string_view>& BlockKeys() {
  static const Dataset data = [] {
    DatasetOptions options;
    options.num_positives = 4096;
    options.num_negatives = 0;
    return GenerateShallaLike(options);
  }();
  static const std::vector<std::string_view> views(data.positives.begin(),
                                                   data.positives.end());
  return views;
}

/// Family members a HABF cell can address at the default cell width.
size_t UsableFunctions() {
  const size_t usable = (size_t{1} << (HabfOptions().cell_bits - 1)) - 1;
  return std::min(usable, HashFamily::Global().size());
}

void BM_UrlBlock(benchmark::State& state) {
  const size_t idx = static_cast<size_t>(state.range(0));
  const auto& family = HashFamily::Global();
  const std::vector<std::string_view>& keys = BlockKeys();
  uint64_t out[kBlock];
  size_t base = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < kBlock; ++i) {
      out[i] = family.Hash(idx, keys[base + i], 0);
    }
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
    base = (base + kBlock) % keys.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBlock));
  state.SetLabel(family.Name(idx));
}

void PrintUniformitySummary() {
  const auto& family = HashFamily::Global();
  const auto keys = MakeKeys(50000);
  TablePrinter table("Table II: global hash family uniformity (chi2, 64 buckets; 99.9% quantile is ~103)");
  table.AddRow({"index", "function", "chi2"});
  for (size_t idx = 0; idx < family.size(); ++idx) {
    constexpr size_t kBuckets = 64;
    size_t counts[kBuckets] = {};
    for (const auto& key : keys) ++counts[family.Hash(idx, key, 0) % kBuckets];
    const double expected = static_cast<double>(keys.size()) / kBuckets;
    double chi2 = 0.0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const double d = counts[b] - expected;
      chi2 += d * d / expected;
    }
    table.AddRow({std::to_string(idx + 1), family.Name(idx),
                  FormatValue(chi2, 4)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace habf

BENCHMARK(habf::BM_HashFunction)->DenseRange(0, 21);
BENCHMARK(habf::BM_UrlBlock)
    ->DenseRange(0, static_cast<int64_t>(habf::UsableFunctions()) - 1);

int main(int argc, char** argv) {
  habf::PrintUniformitySummary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
