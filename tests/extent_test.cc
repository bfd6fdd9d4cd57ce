// The tenant address-space helpers (src/base/extent.h): extent_within near 2^64, and
// ExtentAllocator checked against a brute-force first fit over a byte bitmap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/extent.h"
#include "src/sim/rng.h"

namespace fractos {
namespace {

constexpr uint64_t kMax = ~0ull;

TEST(ExtentWithin, BoundsWithoutWrapping) {
  EXPECT_TRUE(extent_within(0, 0, 0));
  EXPECT_TRUE(extent_within(0, 4096, 4096));
  EXPECT_TRUE(extent_within(4096, 0, 4096));
  EXPECT_FALSE(extent_within(4097, 0, 4096));
  EXPECT_FALSE(extent_within(1, 4096, 4096));
  EXPECT_TRUE(extent_within(kMax, 0, kMax));
  EXPECT_TRUE(extent_within(0, kMax, kMax));
  // Each of these sums wraps to a small number.
  EXPECT_FALSE(extent_within(kMax - 9, 20, 4096));
  EXPECT_FALSE(extent_within(10, kMax - 5, 4096));
  EXPECT_FALSE(extent_within(kMax, kMax, kMax));
}

// The allocator's contract restated over one byte per address: the lowest multiple of
// `align` that starts `size` free bytes inside the capacity.
class BruteForce {
 public:
  explicit BruteForce(uint64_t capacity) : used_(capacity, false) {}

  std::optional<uint64_t> allocate(uint64_t size, uint64_t align) {
    const uint64_t cap = used_.size();
    if (size == 0 || size > cap) {
      return std::nullopt;
    }
    uint64_t a = 0;
    while (true) {
      uint64_t i = a;  // the first used byte in [a, a + size), if any
      while (i < a + size && !used_[i]) {
        ++i;
      }
      if (i == a + size) {
        std::fill(used_.begin() + static_cast<ptrdiff_t>(a),
                  used_.begin() + static_cast<ptrdiff_t>(a + size), true);
        in_use_ += size;
        return a;
      }
      // No window starting at or before byte i is free: next multiple of align past it.
      if (i / align >= (cap - size) / align) {
        return std::nullopt;
      }
      a = (i / align + 1) * align;
    }
  }
  void release(uint64_t addr, uint64_t size) {
    for (uint64_t i = addr; i < addr + size; ++i) {
      EXPECT_TRUE(used_[i]) << "byte " << i << " freed twice";
      used_[i] = false;
    }
    in_use_ -= size;
  }
  uint64_t in_use() const { return in_use_; }

 private:
  std::vector<bool> used_;
  uint64_t in_use_ = 0;
};

// A size drawn to hit small, page-sized, whole-capacity and near-2^64 cases.
uint64_t draw_size(Rng& rng, uint64_t capacity) {
  switch (rng.next_below(8)) {
    case 0:
      return kMax - rng.next_below(capacity + 2);
    case 1:
      return rng.next_below(3) == 0 ? 0 : capacity - rng.next_below(3);
    case 2:
      return (rng.next_below(4) + 1) * 4096;
    default:
      return rng.next_below(capacity / 8 + 1) + 1;
  }
}

TEST(ExtentAllocator, MatchesBruteForceFirstFit) {
  const uint64_t kCapacities[] = {1, 4095, 4096, 10000, 64 << 10};
  const uint64_t kAligns[] = {1, 256, 4096, uint64_t{1} << 63, kMax};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const uint64_t capacity : kCapacities) {
      Rng rng(seed * 1000 + capacity);
      ExtentAllocator alloc(capacity);
      BruteForce ref(capacity);
      std::vector<std::pair<uint64_t, uint64_t>> live;  // (addr, size)
      for (int step = 0; step < 300; ++step) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " capacity " << capacity
                                        << " step " << step);
        if (!live.empty() && rng.next_below(3) == 0) {
          const size_t i = rng.next_below(live.size());
          alloc.release(live[i].first, live[i].second);
          ref.release(live[i].first, live[i].second);
          live[i] = live.back();
          live.pop_back();
        } else {
          const uint64_t size = draw_size(rng, capacity);
          const uint64_t align = kAligns[rng.next_below(std::size(kAligns))];
          const std::optional<uint64_t> got = alloc.allocate(size, align);
          ASSERT_EQ(got, ref.allocate(size, align)) << "size " << size << " align " << align;
          if (got.has_value()) {
            ASSERT_EQ(*got % align, 0u);
            ASSERT_TRUE(extent_within(*got, size, capacity));
            live.emplace_back(*got, size);
          }
        }
        ASSERT_EQ(alloc.bytes_in_use(), ref.in_use());
      }
    }
  }
}

TEST(ExtentAllocator, WithoutReleaseItIsABumpAllocator) {
  ExtentAllocator alloc(1 << 20);
  uint64_t next = 0;
  for (const uint64_t size : {1, 4096, 5000, 100, 65536}) {
    const uint64_t base = (next + 4095) / 4096 * 4096;
    EXPECT_EQ(alloc.allocate(size, 4096), base);
    next = base + size;
  }
  EXPECT_EQ(alloc.bytes_in_use(), 1u + 4096 + 5000 + 100 + 65536);
}

TEST(ExtentAllocator, SizesAndAlignmentsNearTwoToTheSixtyFour) {
  // A whole 2^64 - 1 byte space: every sum below would wrap if it were formed.
  ExtentAllocator alloc(kMax);
  EXPECT_EQ(alloc.allocate(kMax - 10, 1), 0u);
  EXPECT_EQ(alloc.allocate(20, 1), std::nullopt);
  EXPECT_EQ(alloc.allocate(11, 1), std::nullopt);
  EXPECT_EQ(alloc.allocate(10, uint64_t{1} << 63), std::nullopt);  // 2^63 is taken
  EXPECT_EQ(alloc.allocate(10, 1), kMax - 10);
  EXPECT_EQ(alloc.bytes_in_use(), kMax);
  alloc.release(0, kMax - 10);
  EXPECT_EQ(alloc.allocate(kMax - 10, 4096), 0u);
  alloc.release(kMax - 10, 10);
  EXPECT_EQ(alloc.allocate(9, kMax - 8), std::nullopt);  // [kMax - 8, kMax) is 8 bytes
  EXPECT_EQ(alloc.allocate(8, kMax - 8), kMax - 8);

  // After a small allocation, no size near 2^64 fits, whatever the alignment.
  ExtentAllocator small(1 << 20);
  EXPECT_EQ(small.allocate(1024, 256), 0u);
  const uint64_t kTwo63 = uint64_t{1} << 63;
  for (const uint64_t size : {kMax, kMax - 1000, kMax - (1 << 20) + 1025, kTwo63}) {
    for (const uint64_t align : {uint64_t{1}, uint64_t{256}, uint64_t{4096}, kTwo63, kMax}) {
      EXPECT_EQ(small.allocate(size, align), std::nullopt) << size << " " << align;
    }
  }
  EXPECT_EQ(small.allocate(4096, 256), 1024u);
}

}  // namespace
}  // namespace fractos
