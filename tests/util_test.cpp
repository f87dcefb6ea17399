#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/hash.h"
#include "util/ids.h"
#include "util/ip.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"
#include "util/table.h"

namespace tipsy::util {
namespace {

// ---------------------------------------------------------------- ids

TEST(StrongId, DefaultIsInvalid) {
  AsId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(AsId{7}.valid());
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<AsId, LinkId>);
  EXPECT_EQ(AsId{3}, AsId{3});
  EXPECT_LT(AsId{3}, AsId{4});
}

TEST(StrongId, Hashable) {
  std::hash<LinkId> h;
  EXPECT_EQ(h(LinkId{5}), h(LinkId{5}));
  EXPECT_NE(h(LinkId{5}), h(LinkId{6}));
}

// ---------------------------------------------------------------- hash

TEST(Hash, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
  // Single-bit input changes flip roughly half the output bits.
  const auto a = Mix64(0x1000);
  const auto b = Mix64(0x1001);
  const int bits = __builtin_popcountll(a ^ b);
  EXPECT_GT(bits, 16);
  EXPECT_LT(bits, 48);
}

TEST(Hash, HashAllOrderSensitive) {
  EXPECT_NE(HashAll(1, 2), HashAll(2, 1));
  EXPECT_EQ(HashAll(1, 2, 3), HashAll(1, 2, 3));
}

// ---------------------------------------------------------------- ip

TEST(Ipv4, AddressRoundTrip) {
  const Ipv4Addr a(10, 1, 2, 3);
  EXPECT_EQ(a.ToString(), "10.1.2.3");
  EXPECT_EQ(a.bits(), 0x0a010203u);
}

TEST(Ipv4, PrefixMasksHostBits) {
  const Ipv4Prefix p(Ipv4Addr(192, 168, 77, 200), 24);
  EXPECT_EQ(p.ToString(), "192.168.77.0/24");
  EXPECT_TRUE(p.Contains(Ipv4Addr(192, 168, 77, 1)));
  EXPECT_FALSE(p.Contains(Ipv4Addr(192, 168, 78, 1)));
}

TEST(Ipv4, PrefixContainsPrefix) {
  const Ipv4Prefix wide(Ipv4Addr(10, 0, 0, 0), 8);
  const Ipv4Prefix narrow(Ipv4Addr(10, 5, 0, 0), 16);
  EXPECT_TRUE(wide.Contains(narrow));
  EXPECT_FALSE(narrow.Contains(wide));
  EXPECT_TRUE(wide.Contains(wide));
}

TEST(Ipv4, ZeroLengthPrefixContainsEverything) {
  const Ipv4Prefix all(Ipv4Addr(1, 2, 3, 4), 0);
  EXPECT_TRUE(all.Contains(Ipv4Addr(255, 255, 255, 255)));
  EXPECT_EQ(all.size(), 1ULL << 32);
}

TEST(Ipv4, Slash24OfAddress) {
  EXPECT_EQ(Slash24Of(Ipv4Addr(1, 2, 3, 99)),
            Ipv4Prefix(Ipv4Addr(1, 2, 3, 0), 24));
}

class PrefixLengthTest : public ::testing::TestWithParam<int> {};

TEST_P(PrefixLengthTest, SizeMatchesLength) {
  const auto length = static_cast<std::uint8_t>(GetParam());
  const Ipv4Prefix p(Ipv4Addr(172, 16, 0, 0), length);
  EXPECT_EQ(p.size(), 1ULL << (32 - length));
  EXPECT_TRUE(p.Contains(p.address()));
}

INSTANTIATE_TEST_SUITE_P(AllLengths, PrefixLengthTest,
                         ::testing::Values(0, 1, 8, 12, 16, 20, 24, 30, 31,
                                           32));

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, ForkIndependentButStable) {
  Rng parent(9);
  Rng f1 = parent.Fork(1);
  Rng f2 = parent.Fork(2);
  Rng f1_again = Rng(9).Fork(1);
  EXPECT_EQ(f1.Next(), f1_again.Next());
  EXPECT_NE(f1.Next(), f2.Next());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(3);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.NextBelow(5)];
  for (int count : seen) EXPECT_GT(count, 100);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextExponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.NextBoundedPareto(1.0, 100.0, 1.3);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, SampleMeanMatches) {
  const double mean = GetParam();
  Rng rng(19);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(static_cast<double>(rng.NextPoisson(mean)));
  }
  EXPECT_NEAR(stats.mean(), mean, std::max(0.05, mean * 0.05));
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonMeanTest,
                         ::testing::Values(0.1, 0.5, 1.0, 4.0, 32.0, 100.0,
                                           1000.0));

TEST(Rng, PoissonZeroMean) {
  Rng rng(23);
  EXPECT_EQ(rng.NextPoisson(0.0), 0u);
}

TEST(ZipfSampler, PmfDecreasesAndSumsToOne) {
  ZipfSampler zipf(100, 1.1);
  double total = 0.0;
  for (std::size_t i = 0; i < zipf.size(); ++i) {
    total += zipf.pmf(i);
    if (i > 0) {
      EXPECT_LE(zipf.pmf(i), zipf.pmf(i - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSampler, HeadIsPopular) {
  ZipfSampler zipf(1000, 1.2);
  Rng rng(29);
  int head = 0;
  for (int i = 0; i < 10000; ++i) {
    if (zipf.Sample(rng) < 10) ++head;
  }
  EXPECT_GT(head, 3000);  // top 1% of ranks take >30% of draws
}

TEST(WeightedPick, RespectsWeights) {
  Rng rng(31);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 10000; ++i) ++counts[WeightedPick(weights, rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
}

TEST(WeightedPick, AllZeroReturnsSize) {
  Rng rng(37);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_EQ(WeightedPick(weights, rng), weights.size());
}

// ---------------------------------------------------------------- stats

TEST(OnlineStats, MatchesClosedForm) {
  OnlineStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_NEAR(stats.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> values{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 25.0);
}

class PercentileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotoneTest, MonotoneInQ) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.NextDouble() * 100);
  std::sort(values.begin(), values.end());
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = PercentileSorted(values, q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Range(1, 6));

TEST(TukeyBox, OrderingInvariant) {
  std::vector<double> values{1, 2, 3, 4, 5, 6, 7, 8, 100};
  const auto box = MakeTukeyBox(values);
  EXPECT_LE(box.whisker_low, box.q1);
  EXPECT_LE(box.q1, box.median);
  EXPECT_LE(box.median, box.q3);
  EXPECT_LE(box.q3, box.whisker_high);
  ASSERT_EQ(box.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(box.outliers.front(), 100.0);
}

TEST(TukeyBox, NoOutliersForUniformish) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);
  const auto box = MakeTukeyBox(values);
  EXPECT_TRUE(box.outliers.empty());
  EXPECT_DOUBLE_EQ(box.whisker_low, 0.0);
  EXPECT_DOUBLE_EQ(box.whisker_high, 99.0);
}

TEST(WeightedCdf, EvaluateAndQuantile) {
  WeightedCdf cdf;
  cdf.Add(1.0, 10.0);
  cdf.Add(2.0, 30.0);
  cdf.Add(3.0, 60.0);
  cdf.Finalize();
  EXPECT_DOUBLE_EQ(cdf.Evaluate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Evaluate(1.0), 0.1);
  EXPECT_DOUBLE_EQ(cdf.Evaluate(2.5), 0.4);
  EXPECT_DOUBLE_EQ(cdf.Evaluate(3.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.05), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.4), 2.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 3.0);
}

TEST(WeightedCdf, CdfIsMonotone) {
  Rng rng(41);
  WeightedCdf cdf;
  for (int i = 0; i < 500; ++i) {
    cdf.Add(rng.NextDouble() * 50, rng.NextDouble());
  }
  cdf.Finalize();
  double prev = -1.0;
  for (double x = -1.0; x <= 51.0; x += 0.5) {
    const double f = cdf.Evaluate(x);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.99);
  h.Add(-5.0);   // clamps to first bin
  h.Add(100.0);  // clamps to last bin
  EXPECT_DOUBLE_EQ(h.bin_weight(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_weight(9), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
}

// ---------------------------------------------------------------- table

TEST(TextTable, RendersAlignedCells) {
  TextTable table({"a", "bb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  const auto text = table.ToString();
  EXPECT_NE(text.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(text.find("| 333 | 4  |"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_NE(table.ToString().find("only"), std::string::npos);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Percent(0.7654), "76.54");
  EXPECT_EQ(TextTable::Gbps(4e10), "40.0G");
  EXPECT_EQ(TextTable::Gbps(2.5e9, 2), "2.50G");
  EXPECT_EQ(TextTable::HumanBytes(2048), "2.00KB");
}

TEST(CsvWriter, QuotesOnlyWhenNeeded) {
  std::ostringstream oss;
  CsvWriter csv(oss);
  csv.Row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(oss.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

// ---------------------------------------------------------------- time

TEST(SimTime, HourArithmetic) {
  EXPECT_EQ(HourOfDay(0), 0);
  EXPECT_EQ(HourOfDay(25), 1);
  EXPECT_EQ(DayIndex(0), 0);
  EXPECT_EQ(DayIndex(23), 0);
  EXPECT_EQ(DayIndex(24), 1);
  EXPECT_EQ(DayOfWeek(0), 0);
  EXPECT_EQ(DayOfWeek(7 * 24), 0);
  EXPECT_EQ(DayOfWeek(8 * 24), 1);
}

TEST(SimTime, HourRangeSemantics) {
  const HourRange r{10, 20};
  EXPECT_EQ(r.length(), 10);
  EXPECT_TRUE(r.Contains(10));
  EXPECT_FALSE(r.Contains(20));
  EXPECT_TRUE(r.Overlaps(HourRange{19, 30}));
  EXPECT_FALSE(r.Overlaps(HourRange{20, 30}));
}

TEST(SimTime, FormatHour) {
  EXPECT_EQ(FormatHour(0), "day 0 00:00");
  EXPECT_EQ(FormatHour(24 * 3 + 7), "day 3 07:00");
}

}  // namespace
}  // namespace tipsy::util
