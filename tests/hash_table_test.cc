#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "parallel/concurrent_hash_table.h"
#include "parallel/parallel_for.h"
#include "util/random.h"

namespace lightne {
namespace {

TEST(HashTableTest, SingleThreadedUpsertAndGet) {
  ConcurrentHashTable<uint64_t> table(100);
  EXPECT_TRUE(table.Upsert(1, 5));
  EXPECT_TRUE(table.Upsert(1, 3));
  EXPECT_TRUE(table.Upsert(2, 1));
  EXPECT_EQ(table.Get(1), 8u);
  EXPECT_EQ(table.Get(2), 1u);
  EXPECT_EQ(table.Get(99), 0u);
  EXPECT_EQ(table.NumEntries(), 2u);
}

TEST(HashTableTest, KeyZeroAndLargeKeysWork) {
  ConcurrentHashTable<uint64_t> table(16);
  EXPECT_TRUE(table.Upsert(0, 7));
  EXPECT_TRUE(table.Upsert(~1ull, 9));  // one below the sentinel
  EXPECT_EQ(table.Get(0), 7u);
  EXPECT_EQ(table.Get(~1ull), 9u);
}

TEST(HashTableTest, CapacityIsPowerOfTwoAndRespectsLoad) {
  ConcurrentHashTable<uint64_t> table(1000, 0.5);
  EXPECT_GE(table.capacity(), 2000u);
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
}

TEST(HashTableTest, OverflowReportsAndRejects) {
  ConcurrentHashTable<uint64_t> table(16, 0.5);
  uint64_t inserted = 0;
  for (uint64_t k = 1; k <= 10000; ++k) {
    if (!table.Upsert(k, 1)) break;
    ++inserted;
  }
  EXPECT_TRUE(table.overflowed());
  EXPECT_LT(inserted, 10000u);
  EXPECT_GE(inserted, 8u);  // could insert at least the sized-for amount
}

// Exactness under contention is the paper's core claim for this structure:
// "our implementation ... ensures that the exact count of each edge is
// computed". Hammer a small key space from all workers and check totals.
TEST(HashTableTest, ExactCountsUnderContention) {
  const uint64_t kOps = 2000000;
  const uint64_t kKeys = 64;  // heavy contention
  ConcurrentHashTable<uint64_t> table(kKeys * 2);
  ParallelFor(0, kOps, [&](uint64_t i) {
    Rng rng = ItemRng(42, i);
    EXPECT_TRUE(table.Upsert(rng.UniformInt(kKeys), 1));
  });
  EXPECT_EQ(table.NumEntries(), kKeys);
  uint64_t total = 0;
  uint64_t key, value;
  for (uint64_t i = 0; i < table.capacity(); ++i) {
    if (table.ReadSlot(i, &key, &value)) total += value;
  }
  EXPECT_EQ(total, kOps);
}

TEST(HashTableTest, ParallelMatchesSequentialAggregation) {
  const uint64_t kOps = 500000;
  const uint64_t kKeys = 5000;
  std::vector<std::pair<uint64_t, double>> updates(kOps);
  for (uint64_t i = 0; i < kOps; ++i) {
    Rng rng = ItemRng(7, i);
    updates[i] = {rng.UniformInt(kKeys), 1.0 + rng.UniformInt(4)};
  }
  std::map<uint64_t, double> expect;
  for (auto& [k, v] : updates) expect[k] += v;

  ConcurrentHashTable<double> table(kKeys * 2);
  ParallelFor(0, kOps, [&](uint64_t i) {
    ASSERT_TRUE(table.Upsert(updates[i].first, updates[i].second));
  });
  EXPECT_EQ(table.NumEntries(), expect.size());
  for (auto& [k, v] : expect) {
    // Integer-valued doubles added in any order are exact.
    EXPECT_DOUBLE_EQ(table.Get(k), v) << "key " << k;
  }
}

TEST(HashTableTest, ExtractReturnsAllEntries) {
  ConcurrentHashTable<uint64_t> table(1000);
  for (uint64_t k = 0; k < 500; ++k) table.Upsert(k * 17, k + 1);
  auto entries = table.Extract();
  ASSERT_EQ(entries.size(), 500u);
  std::sort(entries.begin(), entries.end());
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(entries[k].first, k * 17);
    EXPECT_EQ(entries[k].second, k + 1);
  }
}

TEST(HashTableTest, ReadSlotSkipsEmptySlots) {
  ConcurrentHashTable<uint64_t> table(64);
  table.Upsert(3, 1);
  int count = 0;
  uint64_t k, v;
  for (uint64_t i = 0; i < table.capacity(); ++i) {
    if (!table.ReadSlot(i, &k, &v)) continue;
    EXPECT_EQ(k, 3u);
    EXPECT_EQ(v, 1u);
    ++count;
  }
  EXPECT_EQ(count, 1);
}

TEST(HashTableTest, ClearResets) {
  ConcurrentHashTable<uint64_t> table(64);
  table.Upsert(1, 1);
  table.Clear();
  EXPECT_EQ(table.NumEntries(), 0u);
  EXPECT_EQ(table.Get(1), 0u);
  EXPECT_FALSE(table.overflowed());
  EXPECT_TRUE(table.Upsert(1, 2));
  EXPECT_EQ(table.Get(1), 2u);
}

TEST(HashTableTest, MemoryBytesScalesWithCapacity) {
  ConcurrentHashTable<double> small(100), big(100000);
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
  EXPECT_EQ(big.MemoryBytes() % big.capacity(), 0u);
}

// The slot is its natural 16-byte (key, value) pair, and the budget helpers
// size tables at that slot size.
TEST(HashTableTest, SlotsAreSixteenBytesAndSizingRoundTrips) {
  for (uint64_t hint : {1ull, 100ull, 100000ull, 3000000ull}) {
    ConcurrentHashTable<double> table(hint);
    EXPECT_EQ(table.MemoryBytes(), table.capacity() * 16);
    EXPECT_EQ(ConcurrentHashTable<double>::ProjectedMemoryBytes(hint),
              table.MemoryBytes());
  }
  for (uint64_t budget : {512ull, 1000ull, 600000ull, 1ull << 20,
                          (1ull << 20) + 5, 3ull << 20}) {
    const uint64_t hint =
        ConcurrentHashTable<double>::LargestHintFitting(budget);
    ASSERT_GT(hint, 0u) << budget;
    const uint64_t bytes =
        ConcurrentHashTable<double>::ProjectedMemoryBytes(hint);
    EXPECT_LE(bytes, budget);
    EXPECT_GT(2 * bytes, budget);  // the largest power-of-two table fits
    ConcurrentHashTable<double> table(hint);
    EXPECT_EQ(table.MemoryBytes(), bytes);
  }
  // The smallest table (16 keys / 0.8 -> 32 slots) is 512 bytes.
  EXPECT_EQ(ConcurrentHashTable<double>::LargestHintFitting(511), 0u);
}

// Property sweep: many (key-space, op-count) shapes, parallel counts always
// exactly match a sequential recount.
class HashTableProperty
    : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>> {};

TEST_P(HashTableProperty, CountsAlwaysExact) {
  const auto [keys, ops] = GetParam();
  ConcurrentHashTable<uint64_t> table(keys * 2 + 16);
  ParallelFor(0, ops, [&](uint64_t i) {
    Rng rng = ItemRng(keys * 31 + 1, i);
    ASSERT_TRUE(table.Upsert(rng.UniformInt(keys) + 1, 1));
  });
  std::map<uint64_t, uint64_t> expect;
  for (uint64_t i = 0; i < ops; ++i) {
    Rng rng = ItemRng(keys * 31 + 1, i);
    ++expect[rng.UniformInt(keys) + 1];
  }
  EXPECT_EQ(table.NumEntries(), expect.size());
  for (auto& [k, v] : expect) ASSERT_EQ(table.Get(k), v);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HashTableProperty,
    ::testing::Values(std::make_pair(1ull, 100000ull),
                      std::make_pair(3ull, 100000ull),
                      std::make_pair(1000ull, 100000ull),
                      std::make_pair(100000ull, 100000ull),
                      std::make_pair(50000ull, 1000000ull)));

}  // namespace
}  // namespace lightne
