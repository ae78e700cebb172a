// Oracle tests of the flat primary-key index and the table built on it:
// every answer must equal std::unordered_map's over random keys, the extreme
// keys, keys that share a home slot, and growth over many doublings.
#include "storage/flat_index.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "storage/table.h"

namespace mirabel::storage {
namespace {

/// The index's home-slot hash (flat_index.h): the top log2(capacity) bits of
/// key * floor(2^64 / phi).
size_t HomeSlot(uint64_t key, size_t capacity) {
  const int bits = std::countr_zero(capacity);
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
}

template <typename Key>
void ExpectSameAnswers(const FlatIndex<Key>& index,
                       const std::unordered_map<Key, uint32_t>& oracle,
                       const std::vector<Key>& probes) {
  ASSERT_EQ(index.size(), oracle.size());
  for (Key key : probes) {
    auto it = oracle.find(key);
    std::optional<uint32_t> found = index.Find(key);
    if (it == oracle.end()) {
      EXPECT_FALSE(found.has_value()) << key;
    } else {
      ASSERT_TRUE(found.has_value()) << key;
      EXPECT_EQ(*found, it->second) << key;
    }
  }
}

TEST(FlatIndexTest, EmptyIndexFindsNothing) {
  FlatIndex<uint64_t> index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), 0u);
  EXPECT_FALSE(index.Find(0).has_value());
  EXPECT_FALSE(index.Find(std::numeric_limits<uint64_t>::max()).has_value());
}

TEST(FlatIndexTest, RandomKeysMatchUnorderedMap) {
  Rng rng(11);
  FlatIndex<uint64_t> index;
  std::unordered_map<uint64_t, uint32_t> oracle;
  std::vector<uint64_t> probes = {0, 1, std::numeric_limits<uint64_t>::max()};
  for (int step = 0; step < 20000; ++step) {
    // Full-range keys, small keys that repeat, and the extremes.
    uint64_t key = 0;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        key = static_cast<uint64_t>(rng.UniformInt(0, 500));
        break;
      case 1:
        key = rng.Bernoulli(0.5) ? 0 : std::numeric_limits<uint64_t>::max();
        break;
      default:
        key = rng.NextUint64();
        break;
    }
    const uint32_t value = static_cast<uint32_t>(
        rng.UniformInt(0, FlatIndex<uint64_t>::kMaxValue));
    const bool inserted = oracle.emplace(key, value).second;
    ASSERT_EQ(index.Insert(key, value), inserted) << key;
    probes.push_back(key);
    probes.push_back(rng.NextUint64());  // almost surely absent
    if (step % 997 == 0) ExpectSameAnswers(index, oracle, probes);
  }
  ExpectSameAnswers(index, oracle, probes);
}

TEST(FlatIndexTest, SignedAndNarrowKeys) {
  FlatIndex<int64_t> wide;
  std::unordered_map<int64_t, uint32_t> wide_oracle;
  const std::vector<int64_t> wide_keys = {
      0, -1, 1, std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(), -1000000, 1000000};
  for (size_t i = 0; i < wide_keys.size(); ++i) {
    ASSERT_TRUE(wide.Insert(wide_keys[i], static_cast<uint32_t>(i)));
    wide_oracle.emplace(wide_keys[i], static_cast<uint32_t>(i));
  }
  ExpectSameAnswers(wide, wide_oracle, {-2, 2, 0, -1, 999999, -1000000});

  FlatIndex<int> narrow;
  std::unordered_map<int, uint32_t> narrow_oracle;
  const std::vector<int> narrow_keys = {0, -1, std::numeric_limits<int>::min(),
                                        std::numeric_limits<int>::max(), 7};
  for (size_t i = 0; i < narrow_keys.size(); ++i) {
    ASSERT_TRUE(narrow.Insert(narrow_keys[i], static_cast<uint32_t>(i)));
    narrow_oracle.emplace(narrow_keys[i], static_cast<uint32_t>(i));
  }
  EXPECT_FALSE(narrow.Insert(-1, 99));
  ExpectSameAnswers(narrow, narrow_oracle, {-2, 6, 7, 0, -1});
}

TEST(FlatIndexTest, KeysSharingAHomeSlot) {
  // Six keys hashing to the same home slot of the first, 8-slot array (six
  // is its 3/4 load limit), then enough keys to double it twice.
  std::vector<uint64_t> colliding;
  std::vector<uint64_t> absent_colliding;
  const size_t home = HomeSlot(1, 8);
  for (uint64_t key = 1; absent_colliding.size() < 4; ++key) {
    if (HomeSlot(key, 8) != home) continue;
    (colliding.size() < 6 ? colliding : absent_colliding).push_back(key);
  }
  FlatIndex<uint64_t> index;
  std::unordered_map<uint64_t, uint32_t> oracle;
  std::vector<uint64_t> probes = absent_colliding;
  for (uint64_t key : colliding) {
    ASSERT_TRUE(index.Insert(key, static_cast<uint32_t>(key % 1000)));
    oracle.emplace(key, static_cast<uint32_t>(key % 1000));
    probes.push_back(key);
  }
  ASSERT_EQ(index.capacity(), 8u);
  ExpectSameAnswers(index, oracle, probes);
  for (uint64_t key : colliding) EXPECT_FALSE(index.Insert(key, 1));
  EXPECT_EQ(index.capacity(), 8u);  // a rejected duplicate does not grow
  ExpectSameAnswers(index, oracle, probes);

  for (uint64_t key = 5000; key < 5018; ++key) {
    ASSERT_TRUE(index.Insert(key, 7));
    oracle.emplace(key, 7);
    probes.push_back(key);
  }
  EXPECT_EQ(index.capacity(), 32u);
  ExpectSameAnswers(index, oracle, probes);
}

TEST(FlatIndexTest, GrowsByDoublingPastThreeQuartersLoad) {
  FlatIndex<uint64_t> index;
  size_t doublings = 0;
  size_t capacity = 0;
  const uint64_t n = 100000;
  for (uint64_t key = 1; key <= n; ++key) {
    ASSERT_TRUE(index.Insert(key, static_cast<uint32_t>(key * 3)));
    const size_t cap = index.capacity();
    ASSERT_EQ(cap & (cap - 1), 0u) << "capacity " << cap;
    ASSERT_LE(index.size() * 4, cap * 3);
    if (cap != capacity) {
      // The array doubles exactly when the next insert would pass 3/4.
      if (capacity != 0) {
        ASSERT_EQ(cap, 2 * capacity);
        ASSERT_GT(index.size() * 4, capacity * 3);
        ++doublings;
      }
      capacity = cap;
    }
  }
  EXPECT_EQ(index.size(), n);
  EXPECT_GE(doublings, 10u);
  for (uint64_t key = 0; key <= n + 1000; ++key) {
    std::optional<uint32_t> found = index.Find(key);
    if (key >= 1 && key <= n) {
      ASSERT_TRUE(found.has_value()) << key;
      ASSERT_EQ(*found, key * 3);
    } else {
      ASSERT_FALSE(found.has_value()) << key;
    }
  }
}

TEST(TableTest, MatchesUnorderedMapOracle) {
  struct Row {
    uint64_t id;
    int payload;
  };
  Table<Row, uint64_t> table([](const Row& r) { return r.id; });
  std::unordered_map<uint64_t, size_t> position_of;  // the oracle
  std::vector<int> payload_at;
  Rng rng(23);
  std::vector<uint64_t> keys = {0, std::numeric_limits<uint64_t>::max()};
  for (int i = 0; i < 3000; ++i) {
    keys.push_back(rng.Bernoulli(0.3)
                       ? static_cast<uint64_t>(rng.UniformInt(0, 200))
                       : rng.NextUint64());
  }
  for (uint64_t key : keys) {
    const int payload = static_cast<int>(payload_at.size()) * 7 + 1;
    Status st = table.Insert({key, payload});
    if (position_of.emplace(key, payload_at.size()).second) {
      ASSERT_TRUE(st.ok()) << key;
      payload_at.push_back(payload);
    } else {
      EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << key;
    }
    ASSERT_EQ(table.size(), payload_at.size());
  }
  for (const auto& [key, pos] : position_of) {
    Result<size_t> found = table.Position(key);
    ASSERT_TRUE(found.ok()) << key;
    EXPECT_EQ(*found, pos) << key;  // rows never move: position = rank
    EXPECT_EQ(table.at(pos).id, key);
    EXPECT_EQ(table.at(pos).payload, payload_at[pos]);
    EXPECT_EQ((*table.Find(key))->payload, payload_at[pos]);
  }
  for (int i = 0; i < 1000; ++i) {
    const uint64_t key = rng.NextUint64();
    if (position_of.count(key) != 0) continue;
    EXPECT_EQ(table.Find(key).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(table.Position(key).status().code(), StatusCode::kNotFound);
  }
}

}  // namespace
}  // namespace mirabel::storage
