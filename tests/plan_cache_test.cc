// Tests for the plan memoization cache.
#include <gtest/gtest.h>

#include "panda/plan_cache.h"

namespace panda {
namespace {

ArrayMeta MetaOf(const char* name, Shape shape = {16, 16}) {
  ArrayMeta meta;
  meta.name = name;
  meta.elem_size = 4;
  meta.memory = Schema(shape, Mesh(Shape{2, 2}),
                       {DimDist::Block(), DimDist::Block()});
  meta.disk = meta.memory;
  return meta;
}

TEST(PlanCacheTest, HitsOnIdenticalInputs) {
  PlanCache cache;
  const ArrayMeta meta = MetaOf("a");
  auto p1 = cache.Get(meta, 2, 1024);
  auto p2 = cache.Get(meta, 2, 1024);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(PlanCacheTest, DistinguishesEveryInput) {
  PlanCache cache;
  const ArrayMeta meta = MetaOf("a");
  auto base = cache.Get(meta, 2, 1024);
  // Different server count.
  EXPECT_NE(base.get(), cache.Get(meta, 3, 1024).get());
  // Different sub-chunk size.
  EXPECT_NE(base.get(), cache.Get(meta, 2, 2048).get());
  // Different array name (same geometry) — still a different key: the
  // name is part of the meta and thus of file naming.
  EXPECT_NE(base.get(), cache.Get(MetaOf("b"), 2, 1024).get());
  // Subarray clip.
  const Region clip({0, 0}, {4, 16});
  EXPECT_NE(base.get(), cache.Get(meta, 2, 1024, &clip).get());
  EXPECT_EQ(cache.hits(), 0);
}

TEST(PlanCacheTest, SubarrayRegionsKeyedExactly) {
  PlanCache cache;
  const ArrayMeta meta = MetaOf("a");
  const Region r1({0, 0}, {4, 16});
  const Region r2({0, 0}, {5, 16});
  auto p1 = cache.Get(meta, 2, 1024, &r1);
  auto p2 = cache.Get(meta, 2, 1024, &r2);
  auto p1_again = cache.Get(meta, 2, 1024, &r1);
  EXPECT_NE(p1.get(), p2.get());
  EXPECT_EQ(p1.get(), p1_again.get());
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(/*capacity=*/2);
  const ArrayMeta a = MetaOf("a");
  const ArrayMeta b = MetaOf("b");
  const ArrayMeta c = MetaOf("c");
  auto pa = cache.Get(a, 2, 1024);
  auto pb = cache.Get(b, 2, 1024);
  (void)cache.Get(a, 2, 1024);  // a is now most recent
  auto pc = cache.Get(c, 2, 1024);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get(a, 2, 1024).get(), pa.get());  // hit
  EXPECT_NE(cache.Get(b, 2, 1024).get(), pb.get());  // rebuilt
}

TEST(PlanCacheTest, EvictedPlansRemainValid) {
  PlanCache cache(1);
  const ArrayMeta a = MetaOf("a");
  auto pa = cache.Get(a, 2, 1024);
  (void)cache.Get(MetaOf("b"), 2, 1024);  // evicts a's entry
  // The shared_ptr keeps the old plan alive and intact.
  EXPECT_EQ(pa->chunks().size(), 4u);
  EXPECT_EQ(pa->TotalPieces(), 4);
}

TEST(PlanCacheTest, MemoizesClientViewsBesidePlans) {
  PlanCache cache;
  const ArrayMeta meta = MetaOf("a");
  const auto v0 = cache.GetClientView(meta, 2, 1024, nullptr, 0);
  EXPECT_EQ(cache.GetClientView(meta, 2, 1024, nullptr, 0).get(), v0.get());
  EXPECT_NE(cache.GetClientView(meta, 2, 1024, nullptr, 1).get(), v0.get());
  const Region slice({0, 0}, {4, 16});
  EXPECT_NE(cache.GetClientView(meta, 2, 1024, &slice, 0).get(), v0.get());
  (void)cache.Get(meta, 2, 1024);  // the whole plan is a separate entry
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 4);
}

TEST(PlanCacheTest, CachedPlanMatchesFreshPlan) {
  PlanCache cache;
  const ArrayMeta meta = MetaOf("a", {24, 18});
  auto cached = cache.Get(meta, 3, 512);
  const IoPlan fresh(meta, 3, 512);
  ASSERT_EQ(cached->chunks().size(), fresh.chunks().size());
  for (size_t i = 0; i < fresh.chunks().size(); ++i) {
    EXPECT_EQ(cached->chunks()[i].region, fresh.chunks()[i].region);
    EXPECT_EQ(cached->chunks()[i].server, fresh.chunks()[i].server);
    EXPECT_EQ(cached->chunks()[i].file_offset, fresh.chunks()[i].file_offset);
  }
}

}  // namespace
}  // namespace panda
