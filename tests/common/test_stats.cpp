#include <gtest/gtest.h>

#include "common/assert.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace gs {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats c;
  c.merge(a);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(QuantileReservoir, ExactOrderStatistics) {
  QuantileReservoir q;
  for (int i = 100; i >= 1; --i) q.add(double(i));
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_NEAR(q.quantile(0.5), 50.5, 1e-9);
}

TEST(QuantileReservoir, SingleElement) {
  QuantileReservoir q;
  q.add(7.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.99), 7.0);
}

TEST(QuantileReservoir, EmptyThrows) {
  QuantileReservoir q;
  EXPECT_THROW((void)(q.quantile(0.5)), ContractError);
}

TEST(QuantileReservoir, InterleavedAddAndQuery) {
  QuantileReservoir q;
  q.add(1.0);
  q.add(2.0);
  EXPECT_NEAR(q.quantile(1.0), 2.0, 1e-12);
  q.add(10.0);  // must re-sort lazily
  EXPECT_NEAR(q.quantile(1.0), 10.0, 1e-12);
}

TEST(QuantileSorted, MatchesReservoirDefinition) {
  const double data[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(data, 4, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(data, 4, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(data, 4, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(data, 1, 0.99), 1.0);
  EXPECT_THROW((void)quantile_sorted(data, 0, 0.5), ContractError);
}

}  // namespace
}  // namespace gs
