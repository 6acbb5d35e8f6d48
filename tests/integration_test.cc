// Cross-module integration: every filter in the repository built over the
// same workload at the same space budget, checked for the paper's headline
// ordering claims (§V-E/F): HABF has the lowest weighted FPR among
// non-learned filters on both datasets, and every filter keeps its
// one-sided-error contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/partitioned_bloom.h"
#include "bloom/weighted_bloom.h"
#include "bloom/xor_filter.h"
#include "core/habf.h"
#include "eval/metrics.h"
#include "learned/learned_filters.h"
#include "workload/dataset.h"

namespace habf {
namespace {

enum class DatasetKind : uint64_t { kShalla = 0, kYcsb = 1 };

// gtest names each case after a byte dump of its parameter, so the struct
// must have no padding: padding bytes are never initialised and would put
// whatever the stack held into the test name.
struct WorkloadCase {
  DatasetKind dataset;
  double zipf_theta;
};
static_assert(sizeof(WorkloadCase) == sizeof(DatasetKind) + sizeof(double));

class AllFiltersIntegration : public ::testing::TestWithParam<WorkloadCase> {
 protected:
  static constexpr size_t kKeys = 20000;
  static constexpr double kBitsPerKey = 10.0;

  void SetUp() override {
    DatasetOptions options;
    options.num_positives = kKeys;
    options.num_negatives = kKeys;
    options.seed = 2024;
    data_ = GetParam().dataset == DatasetKind::kYcsb
                ? GenerateYcsbLike(options)
                : GenerateShallaLike(options);
    if (GetParam().zipf_theta > 0) {
      AssignZipfCosts(&data_, GetParam().zipf_theta, 11);
    }
    total_bits_ = static_cast<size_t>(kBitsPerKey * kKeys);
  }

  Dataset data_;
  size_t total_bits_ = 0;
};

TEST_P(AllFiltersIntegration, EveryFilterHasZeroFnr) {
  const Habf habf =
      Habf::Build(data_.positives, data_.negatives, {.total_bits = total_bits_});
  EXPECT_EQ(CountFalseNegatives(habf, data_.positives), 0u) << "HABF";

  HabfOptions fast_options{.total_bits = total_bits_, .fast = true};
  const Habf fhabf = Habf::Build(data_.positives, data_.negatives, fast_options);
  EXPECT_EQ(CountFalseNegatives(fhabf, data_.positives), 0u) << "f-HABF";

  GlobalHashProvider provider(22);
  std::vector<uint8_t> fns;
  for (size_t i = 0; i < OptimalNumHashes(kBitsPerKey); ++i) {
    fns.push_back(static_cast<uint8_t>(i));
  }
  BloomFilter bf(total_bits_, &provider, fns);
  for (const auto& key : data_.positives) bf.Add(key);
  EXPECT_EQ(CountFalseNegatives(bf, data_.positives), 0u) << "BF";

  const auto xor_filter = XorFilter::Build(
      data_.positives,
      XorFilter::FingerprintBitsForBudget(total_bits_, kKeys));
  ASSERT_TRUE(xor_filter.has_value());
  EXPECT_EQ(CountFalseNegatives(*xor_filter, data_.positives), 0u) << "Xor";

  WeightedBloomFilter::Options wbf_options;
  wbf_options.num_bits = total_bits_;
  const WeightedBloomFilter wbf(data_.positives, data_.negatives, wbf_options);
  EXPECT_EQ(CountFalseNegatives(wbf, data_.positives), 0u) << "WBF";

  PartitionedBloomFilter::Options pb_options;
  pb_options.num_bits = total_bits_;
  pb_options.k = OptimalNumHashes(kBitsPerKey);
  const PartitionedBloomFilter pbf(data_.positives, pb_options);
  EXPECT_EQ(CountFalseNegatives(pbf, data_.positives), 0u) << "PBF";

  LearnedOptions lopt;
  lopt.total_bits = total_bits_;
  lopt.train.epochs = 2;
  const auto lbf =
      LearnedBloomFilter::Build(data_.positives, data_.negatives, lopt);
  EXPECT_EQ(CountFalseNegatives(lbf, data_.positives), 0u) << "LBF";

  const auto slbf = SandwichedLearnedBloomFilter::Build(data_.positives,
                                                        data_.negatives, lopt);
  EXPECT_EQ(CountFalseNegatives(slbf, data_.positives), 0u) << "SLBF";

  AdaptiveLearnedBloomFilter::AdaOptions aopt;
  aopt.total_bits = total_bits_;
  aopt.train.epochs = 2;
  const auto ada = AdaptiveLearnedBloomFilter::Build(data_.positives,
                                                     data_.negatives, aopt);
  EXPECT_EQ(CountFalseNegatives(ada, data_.positives), 0u) << "Ada-BF";
}

TEST_P(AllFiltersIntegration, HabfWinsAmongNonLearnedFilters) {
  const Habf habf = Habf::Build(data_.positives, data_.negatives,
                                {.total_bits = total_bits_});
  const double habf_fpr = MeasureWeightedFpr(habf, data_.negatives);

  GlobalHashProvider provider(22);
  std::vector<uint8_t> fns;
  for (size_t i = 0; i < OptimalNumHashes(kBitsPerKey); ++i) {
    fns.push_back(static_cast<uint8_t>(i));
  }
  BloomFilter bf(total_bits_, &provider, fns);
  for (const auto& key : data_.positives) bf.Add(key);
  const double bf_fpr = MeasureWeightedFpr(bf, data_.negatives);

  const auto xor_filter = XorFilter::Build(
      data_.positives,
      XorFilter::FingerprintBitsForBudget(total_bits_, kKeys));
  ASSERT_TRUE(xor_filter.has_value());
  const double xor_fpr = MeasureWeightedFpr(*xor_filter, data_.negatives);

  EXPECT_LT(habf_fpr, bf_fpr) << "Fig 10/11: HABF < BF at equal space";
  EXPECT_LT(habf_fpr, xor_fpr) << "Fig 10/11: HABF < Xor at equal space";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AllFiltersIntegration,
    ::testing::Values(WorkloadCase{DatasetKind::kShalla, 0.0},
                      WorkloadCase{DatasetKind::kShalla, 1.0},
                      WorkloadCase{DatasetKind::kYcsb, 0.0},
                      WorkloadCase{DatasetKind::kYcsb, 1.0}),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
      std::string name =
          info.param.dataset == DatasetKind::kYcsb ? "Ycsb" : "Shalla";
      name += info.param.zipf_theta > 0 ? "Skewed" : "Uniform";
      return name;
    });

}  // namespace
}  // namespace habf
