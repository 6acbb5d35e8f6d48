// Tests of the hot-swap serving layer (core/filter_store.h): snapshot
// pinning across Publish() swaps, version numbering, torn-snapshot
// detection under reader/writer hammering (the RCU guarantee: every
// Acquire() yields a completely-published filter, never a mix), and the
// end-to-end overlap scenario — queries served continuously from the
// current snapshot while BuildShardedHabfAsync rebuilds and the result is
// swapped in.

#include "core/filter_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/filter_interface.h"
#include "core/habf.h"
#include "core/sharded_filter.h"
#include "eval/metrics.h"
#include "workload/dataset.h"

namespace habf {
namespace {

/// A deliberately tear-sensitive fake filter: every slot must equal `id`.
/// If a reader could ever observe a half-swapped snapshot, some slot would
/// hold another generation's id and Consistent() would fail.
struct FakeFilter {
  explicit FakeFilter(uint64_t id) : id(id) { slots.fill(id); }

  bool Consistent() const {
    for (uint64_t slot : slots) {
      if (slot != id) return false;
    }
    return true;
  }

  uint64_t id;
  std::array<uint64_t, 64> slots;
};

TEST(FilterStoreTest, EmptyStoreAcquiresNothing) {
  FilterStore<FakeFilter> store;
  const auto snapshot = store.Acquire();
  EXPECT_EQ(snapshot.filter, nullptr);
  EXPECT_EQ(snapshot.version, 0u);
  EXPECT_EQ(store.version(), 0u);
}

TEST(FilterStoreTest, PublishInstallsAndVersions) {
  FilterStore<FakeFilter> store;
  EXPECT_EQ(store.Publish(FakeFilter(7)), 1u);
  auto snapshot = store.Acquire();
  ASSERT_NE(snapshot.filter, nullptr);
  EXPECT_EQ(snapshot.filter->id, 7u);
  EXPECT_EQ(snapshot.version, 1u);
  EXPECT_EQ(store.Publish(FakeFilter(8)), 2u);
  EXPECT_EQ(store.Acquire().filter->id, 8u);
  EXPECT_EQ(store.version(), 2u);
}

TEST(FilterStoreTest, InitialConstructorPublishesVersionOne) {
  FilterStore<FakeFilter> store(FakeFilter(3));
  EXPECT_EQ(store.Acquire().version, 1u);
  EXPECT_EQ(store.Acquire().filter->id, 3u);
}

TEST(FilterStoreTest, AcquiredSnapshotSurvivesLaterSwaps) {
  FilterStore<FakeFilter> store(FakeFilter(1));
  const auto pinned = store.Acquire();
  for (uint64_t id = 2; id <= 10; ++id) store.Publish(FakeFilter(id));
  // The pin still reads the version-1 snapshot, fully intact.
  EXPECT_EQ(pinned.filter->id, 1u);
  EXPECT_TRUE(pinned.filter->Consistent());
  EXPECT_EQ(pinned.version, 1u);
  // New acquires see the latest.
  EXPECT_EQ(store.Acquire().filter->id, 10u);
}

TEST(FilterStoreTest, HammeredReadersNeverSeeATornSnapshot) {
  FilterStore<FakeFilter> store(FakeFilter(1));
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<uint64_t> max_version_seen{0};
  // Start latch: publishing waits for every reader's first Acquire. Under a
  // loaded machine the publisher could otherwise finish all its swaps, and
  // stop the readers, before any reader had run.
  constexpr int kReaders = 4;
  std::atomic<int> started{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint64_t my_last_version = 0;
      for (bool first = true; !stop.load(std::memory_order_relaxed);
           first = false) {
        const auto snapshot = store.Acquire();
        if (first) started.fetch_add(1);
        if (snapshot.filter == nullptr || !snapshot.filter->Consistent() ||
            snapshot.filter->id != snapshot.version ||
            snapshot.version < my_last_version) {
          torn.store(true);
          return;
        }
        my_last_version = snapshot.version;
        // The highest version any reader saw: a plain store would let a
        // reader still holding version 1 overwrite another's newer one.
        uint64_t seen = max_version_seen.load(std::memory_order_relaxed);
        while (seen < snapshot.version &&
               !max_version_seen.compare_exchange_weak(
                   seen, snapshot.version, std::memory_order_relaxed)) {
        }
      }
    });
  }

  while (started.load() < kReaders) std::this_thread::yield();
  constexpr uint64_t kSwaps = 400;
  for (uint64_t id = 2; id <= kSwaps; ++id) {
    store.Publish(FakeFilter(id));
    if (id % 32 == 0) std::this_thread::yield();
  }
  // A reader descheduled since its first Acquire may not have run again
  // yet: give the readers (boundedly) the chance to observe a swap.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (max_version_seen.load() <= 1 && !torn.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_FALSE(torn.load()) << "a reader observed a torn or stale-mixed "
                               "snapshot";
  EXPECT_GT(max_version_seen.load(), 1u) << "readers never saw any swap";
  EXPECT_EQ(store.Acquire().version, kSwaps);
}

TEST(FilterStoreTest, ConcurrentPublishersKeepVersionsUniqueAndMonotonic) {
  FilterStore<FakeFilter> store;
  constexpr int kPerPublisher = 200;
  std::vector<uint64_t> versions[2];
  std::thread publishers[2];
  std::atomic<bool> regressed{false};
  std::thread watcher([&store, &regressed] {
    // The monotonic-install guarantee: the acquired version never goes
    // backwards, even while two publishers race the CAS.
    uint64_t last = 0;
    for (int i = 0; i < 20000; ++i) {
      const uint64_t seen = store.Acquire().version;
      if (seen < last) {
        regressed.store(true);
        return;
      }
      last = seen;
    }
  });
  for (int p = 0; p < 2; ++p) {
    publishers[p] = std::thread([&store, &versions, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        versions[p].push_back(store.Publish(FakeFilter(0)));
      }
    });
  }
  for (auto& publisher : publishers) publisher.join();
  watcher.join();
  EXPECT_FALSE(regressed.load()) << "acquired version went backwards";

  std::vector<uint64_t> all;
  for (const auto& v : versions) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i + 1) << "versions must be exactly 1..2N, no dupes";
  }
  EXPECT_EQ(store.version(), 2 * kPerPublisher);
  // With every Publish returned, the winner of the install race is exactly
  // the newest version — an older racer can never have displaced it.
  EXPECT_EQ(store.Acquire().version, 2 * kPerPublisher);
}

// --- the end-to-end overlap scenario (acceptance criterion) -----------------

TEST(FilterStoreTest, ServesContinuouslyThroughAsyncRebuildAndSwap) {
  DatasetOptions data_options;
  data_options.num_positives = 6000;
  data_options.num_negatives = 6000;
  data_options.seed = 929292;
  const Dataset data = GenerateShallaLike(data_options);

  HabfOptions options;
  options.total_bits = 10 * data.positives.size();
  ShardedBuildOptions sharding;
  sharding.num_shards = 4;
  sharding.num_threads = 2;

  // v1 serves while v2 rebuilds. Both contain every positive key (zero
  // false negatives), so "every query batch fully positive" holds across
  // the swap — a torn snapshot or a blocked reader would break it.
  FilterStore<ShardedFilter<Habf>> store(
      BuildShardedHabf(data.positives, data.negatives, options, sharding));

  const std::vector<std::string_view> views = MakeKeyViews(data.positives);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> queries_served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::vector<uint8_t> out(views.size());
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = store.Acquire();
        const size_t positives = snapshot.filter->ContainsBatch(
            KeySpan(views.data(), views.size()), out.data());
        if (positives != views.size()) {
          failed.store(true);
          return;
        }
        queries_served.fetch_add(views.size(), std::memory_order_relaxed);
      }
    });
  }

  HabfOptions rebuild_options = options;
  rebuild_options.seed = 31;  // a genuinely different replacement filter
  BuildHandle handle = BuildShardedHabfAsync(data.positives, data.negatives,
                                             rebuild_options, sharding);
  auto rebuilt = handle.TakeResult();
  const uint64_t swapped_version = store.Publish(std::move(rebuilt));
  EXPECT_EQ(swapped_version, 2u);

  // Keep serving through and past the swap, then stop the readers.
  while (queries_served.load(std::memory_order_relaxed) <
             4 * views.size() &&
         !failed.load()) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_FALSE(failed.load())
      << "a query batch lost positives during rebuild or swap";
  EXPECT_GT(queries_served.load(), 0u);
  EXPECT_EQ(store.Acquire().version, 2u);

  // The swapped-in filter answers identically to a synchronous build of the
  // same plan.
  const auto sync = BuildShardedHabf(data.positives, data.negatives,
                                     rebuild_options, sharding);
  std::string swapped_bytes;
  store.Acquire().filter->Serialize(&swapped_bytes);
  std::string sync_bytes;
  sync.Serialize(&sync_bytes);
  EXPECT_EQ(swapped_bytes, sync_bytes);
}

}  // namespace
}  // namespace habf
