#include "util/pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace slate {
namespace {

struct Tracked {
  explicit Tracked(int* counter = nullptr, int v = 0)
      : live_counter(counter), value(v) {
    if (live_counter != nullptr) ++*live_counter;
  }
  ~Tracked() {
    if (live_counter != nullptr) --*live_counter;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;

  int* live_counter;
  int value;
};

TEST(Pool, MakeConstructsAndRecyclesOnRelease) {
  int live = 0;
  Pool<Tracked> pool(4);
  {
    PoolPtr<Tracked> p = pool.make(&live, 7);
    EXPECT_EQ(live, 1);
    EXPECT_EQ(p->value, 7);
    EXPECT_EQ(pool.live(), 1u);
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Pool, SlotsAreReusedAfterRecycle) {
  Pool<int> pool(8);
  PoolPtr<int> a = pool.make(1);
  const int* first_address = a.get();
  a.reset();
  PoolPtr<int> b = pool.make(2);
  // LIFO freelist: the recycled slot comes straight back.
  EXPECT_EQ(b.get(), first_address);
  EXPECT_EQ(pool.chunk_count(), 1u);
}

TEST(Pool, GrowsByChunksWithoutMovingLiveObjects) {
  Pool<int> pool(2);
  std::vector<PoolPtr<int>> held;
  std::vector<int*> addresses;
  for (int i = 0; i < 7; ++i) {
    held.push_back(pool.make(i));
    addresses.push_back(held.back().get());
  }
  EXPECT_GE(pool.chunk_count(), 4u);
  EXPECT_EQ(pool.capacity(), pool.chunk_count() * 2);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(*held[i], i);
    EXPECT_EQ(held[i].get(), addresses[i]);  // chunks never relocate
  }
}

TEST(PoolPtr, CopyBumpsRefcountAndLastReleaseRecycles) {
  int live = 0;
  Pool<Tracked> pool;
  PoolPtr<Tracked> a = pool.make(&live);
  EXPECT_EQ(a.use_count(), 1u);
  {
    PoolPtr<Tracked> b = a;
    EXPECT_EQ(a.use_count(), 2u);
    EXPECT_EQ(b.get(), a.get());
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(live, 1);
  a.reset();
  EXPECT_EQ(live, 0);
}

TEST(PoolPtr, MoveStealsWithoutRefcountChange) {
  int live = 0;
  Pool<Tracked> pool;
  PoolPtr<Tracked> a = pool.make(&live);
  Tracked* raw = a.get();
  PoolPtr<Tracked> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_EQ(live, 1);
  b.reset();
  EXPECT_EQ(live, 0);
}

TEST(PoolPtr, CopyAssignReleasesPreviousTarget) {
  int live = 0;
  Pool<Tracked> pool;
  PoolPtr<Tracked> a = pool.make(&live, 1);
  PoolPtr<Tracked> b = pool.make(&live, 2);
  EXPECT_EQ(live, 2);
  b = a;
  EXPECT_EQ(live, 1);  // old target of b destroyed
  EXPECT_EQ(b->value, 1);
  EXPECT_EQ(a.use_count(), 2u);
}

TEST(PoolPtr, SelfAssignIsSafe) {
  int live = 0;
  Pool<Tracked> pool;
  PoolPtr<Tracked> a = pool.make(&live);
  PoolPtr<Tracked>& alias = a;
  a = alias;
  EXPECT_EQ(live, 1);
  EXPECT_EQ(a.use_count(), 1u);
}

TEST(PoolPtr, EqualityComparesSlots) {
  Pool<int> pool;
  PoolPtr<int> a = pool.make(1);
  PoolPtr<int> b = a;
  PoolPtr<int> c = pool.make(1);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(PoolPtr<int>{} == PoolPtr<int>{});
}

TEST(PoolPtr, MemberDestructorsRunOnRecycle) {
  // A pooled object owning a shared_ptr must release it when recycled.
  struct Holder {
    std::shared_ptr<int> ref;
  };
  Pool<Holder> pool;
  auto tracked = std::make_shared<int>(0);
  std::weak_ptr<int> weak = tracked;
  PoolPtr<Holder> h = pool.make();
  h->ref = tracked;
  tracked.reset();
  EXPECT_FALSE(weak.expired());
  h.reset();
  EXPECT_TRUE(weak.expired());
}

TEST(Pool, SmallChunksGrowKeepAddressesAndReuseFreedSlots) {
  // 16 objects per chunk: the smallest chunk a lightly loaded island gets.
  Pool<int> pool(16);
  std::vector<PoolPtr<int>> held;
  std::vector<int*> addresses;
  for (int i = 0; i < 40; ++i) {
    held.push_back(pool.make(i));
    addresses.push_back(held.back().get());
  }
  EXPECT_EQ(pool.chunk_count(), 3u);
  EXPECT_EQ(pool.capacity(), 48u);
  // Growth never moved an object carved from an earlier chunk.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(held[static_cast<std::size_t>(i)].get(),
              addresses[static_cast<std::size_t>(i)]);
    EXPECT_EQ(*held[static_cast<std::size_t>(i)], i);
  }
  // Free every other object of the first two chunks, then refill the
  // arena: the freed slots and the third chunk's tail absorb the demand.
  std::vector<int*> freed;
  for (std::size_t i = 0; i < 32; i += 2) {
    freed.push_back(held[i].get());
    held[i].reset();
  }
  EXPECT_EQ(pool.live(), 24u);
  for (int i = 0; i < 16; ++i) {
    PoolPtr<int> p = pool.make(100 + i);
    EXPECT_NE(std::find(freed.begin(), freed.end(), p.get()), freed.end());
    held.push_back(std::move(p));
  }
  EXPECT_EQ(pool.chunk_count(), 3u);
  EXPECT_EQ(pool.live(), 40u);
  for (std::size_t i = 1; i < 40; i += 2) {
    EXPECT_EQ(*held[i], static_cast<int>(i));
  }
}

TEST(Pool, ManyChurnCyclesStayBounded) {
  Pool<int> pool(16);
  for (int round = 0; round < 1000; ++round) {
    std::vector<PoolPtr<int>> batch;
    for (int i = 0; i < 16; ++i) batch.push_back(pool.make(i));
  }
  // Steady-state churn within one chunk's capacity never grows the arena.
  EXPECT_EQ(pool.chunk_count(), 1u);
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace slate
