#include <gtest/gtest.h>

#include "geo/geoip.h"
#include "pipeline/aggregate.h"
#include "pipeline/encoding.h"
#include "pipeline/link_hour.h"
#include "topo/generator.h"
#include "wan/wan.h"

namespace tipsy::pipeline {
namespace {

// ----------------------------------------------------------- dictionary

TEST(Dictionary, EncodesInFirstSeenOrder) {
  Dictionary<std::string> dict;
  EXPECT_EQ(dict.Encode("a"), 0u);
  EXPECT_EQ(dict.Encode("b"), 1u);
  EXPECT_EQ(dict.Encode("a"), 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Decode(1), "b");
}

TEST(Dictionary, FindDoesNotInsert) {
  Dictionary<int> dict;
  dict.Encode(10);
  EXPECT_FALSE(dict.Find(20).has_value());
  EXPECT_EQ(dict.Find(10).value(), 0u);
  EXPECT_EQ(dict.size(), 1u);
}

// ------------------------------------------------------------ aggregate

class AggregateTest : public ::testing::Test {
 protected:
  AggregateTest() : topology_(topo::GenerateTinyTopology()) {
    wan_ = std::make_unique<wan::Wan>(
        topology_.peering_links,
        topology_.graph.node(topology_.wan).presence, 8, 1);
    geoip_.Assign(p24_, util::MetroId{2});
  }

  telemetry::IpfixRecord Record(std::uint32_t link, std::uint32_t dest,
                                std::uint64_t bytes) const {
    telemetry::IpfixRecord r;
    r.hour = 5;
    r.link = util::LinkId{link};
    r.src_prefix24 = p24_;
    r.src_asn = util::AsId{777};
    r.dest_addr = wan_->destination(dest).address;
    r.scaled_bytes = bytes;
    return r;
  }

  topo::GeneratedTopology topology_;
  std::unique_ptr<wan::Wan> wan_;
  geo::GeoIpDb geoip_;
  util::Ipv4Prefix p24_{util::Ipv4Addr(10, 1, 1, 0), 24};
};

TEST_F(AggregateTest, MergesIdenticalKeysSummingBytes) {
  HourlyAggregator agg(wan_.get(), &geoip_);
  const std::vector<telemetry::IpfixRecord> records{
      Record(0, 0, 100), Record(0, 0, 50), Record(1, 0, 10)};
  const auto rows = agg.Aggregate(records);
  ASSERT_EQ(rows.size(), 2u);
  std::uint64_t total = 0;
  for (const auto& row : rows) {
    total += row.bytes;
    if (row.link == util::LinkId{0}) {
      EXPECT_EQ(row.bytes, 150u);
    }
  }
  EXPECT_EQ(total, 160u);
  EXPECT_EQ(agg.stats().raw_records, 3u);
  EXPECT_EQ(agg.stats().aggregated_rows, 2u);
  EXPECT_LT(agg.stats().CompressionRatio(), 1.0);
}

TEST_F(AggregateTest, JoinsMetadata) {
  HourlyAggregator agg(wan_.get(), &geoip_);
  const std::vector<telemetry::IpfixRecord> records{Record(0, 3, 100)};
  const auto rows = agg.Aggregate(records);
  ASSERT_EQ(rows.size(), 1u);
  const auto& destination = wan_->destination(3);
  EXPECT_EQ(rows[0].dest_region, destination.region);
  EXPECT_EQ(rows[0].dest_service, destination.service);
  EXPECT_EQ(rows[0].dest_prefix, destination.prefix);
  EXPECT_EQ(rows[0].src_metro, util::MetroId{2});
  EXPECT_EQ(rows[0].src_asn.value(), 777u);
  EXPECT_EQ(rows[0].hour, 5);
}

TEST_F(AggregateTest, GeoIpMissKeepsRowWithInvalidMetro) {
  HourlyAggregator agg(wan_.get(), &geoip_);
  auto record = Record(0, 0, 100);
  record.src_prefix24 = util::Ipv4Prefix(util::Ipv4Addr(99, 9, 9, 0), 24);
  const auto rows =
      agg.Aggregate(std::vector<telemetry::IpfixRecord>{record});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].src_metro.valid());
  EXPECT_EQ(agg.stats().geoip_misses, 1u);
}

TEST_F(AggregateTest, DistinctDestinationsDoNotMerge) {
  HourlyAggregator agg(wan_.get(), &geoip_);
  // Destinations 0 and 1 differ in service type -> different rows.
  const std::vector<telemetry::IpfixRecord> records{Record(0, 0, 100),
                                                    Record(0, 1, 100)};
  EXPECT_EQ(agg.Aggregate(records).size(), 2u);
}

// ------------------------------------------------------------ link-hour

TEST(LinkHourTable, AccumulatesPerHour) {
  LinkHourTable table(4);
  table.AddBytes(util::LinkId{1}, 10, 100.0);
  table.AddBytes(util::LinkId{1}, 10, 50.0);
  table.AddBytes(util::LinkId{1}, 11, 5.0);
  EXPECT_DOUBLE_EQ(table.Bytes(util::LinkId{1}, 10), 150.0);
  EXPECT_DOUBLE_EQ(table.Bytes(util::LinkId{1}, 11), 5.0);
  EXPECT_DOUBLE_EQ(table.Bytes(util::LinkId{0}, 10), 0.0);
  EXPECT_DOUBLE_EQ(table.Bytes(util::LinkId{1}, 99), 0.0);
  EXPECT_EQ(table.Hours(), (std::vector<util::HourIndex>{10, 11}));
}

class OutageInferenceTest : public ::testing::Test {
 protected:
  // Link 0: active with a 3-hour gap. Link 1: always active. Link 2:
  // never active. Link 3: active with a 30-hour gap (too long).
  OutageInferenceTest() : table_(4) {
    for (util::HourIndex h = 0; h < 48; ++h) {
      if (h < 10 || h >= 13) table_.AddBytes(util::LinkId{0}, h, 1.0);
      table_.AddBytes(util::LinkId{1}, h, 1.0);
      if (h < 5 || h >= 35) table_.AddBytes(util::LinkId{3}, h, 1.0);
    }
  }
  LinkHourTable table_;
};

TEST_F(OutageInferenceTest, DetectsBoundedGaps) {
  const auto outages = InferOutages(table_, {0, 48});
  ASSERT_EQ(outages.size(), 1u);
  EXPECT_EQ(outages[0].link, util::LinkId{0});
  EXPECT_EQ(outages[0].hours.begin, 10);
  EXPECT_EQ(outages[0].hours.end, 13);
}

TEST_F(OutageInferenceTest, LongGapsExcludedByDefault) {
  OutageInferenceConfig cfg;
  cfg.max_duration_hours = 48;
  const auto outages = InferOutages(table_, {0, 48}, cfg);
  // With the cap raised, link 3's 30-hour gap also appears.
  ASSERT_EQ(outages.size(), 2u);
  EXPECT_EQ(outages[1].link, util::LinkId{3});
  EXPECT_EQ(outages[1].hours.length(), 30);
}

TEST_F(OutageInferenceTest, InactiveLinksIgnored) {
  for (const auto& outage : InferOutages(table_, {0, 48})) {
    EXPECT_NE(outage.link, util::LinkId{2});
  }
  OutageInferenceConfig cfg;
  cfg.require_activity = false;
  cfg.max_duration_hours = 100;
  bool found_link2 = false;
  for (const auto& outage : InferOutages(table_, {0, 48}, cfg)) {
    if (outage.link == util::LinkId{2}) found_link2 = true;
  }
  EXPECT_TRUE(found_link2);
}

TEST_F(OutageInferenceTest, WindowBoundariesRespected) {
  // Restrict to [0, 12): link 0's gap [10, 13) is clipped to [10, 12),
  // and link 3's long gap is clipped to [5, 12), which now fits under the
  // 24-hour cap. Both runs touch the window end and are kept.
  const auto outages = InferOutages(table_, {0, 12});
  ASSERT_EQ(outages.size(), 2u);
  EXPECT_EQ(outages[0].link, util::LinkId{0});
  EXPECT_EQ(outages[0].hours.begin, 10);
  EXPECT_EQ(outages[0].hours.end, 12);
  EXPECT_EQ(outages[1].link, util::LinkId{3});
  EXPECT_EQ(outages[1].hours.begin, 5);
  EXPECT_EQ(outages[1].hours.end, 12);
}

TEST_F(OutageInferenceTest, MinDurationFilters) {
  OutageInferenceConfig cfg;
  cfg.min_duration_hours = 5;
  EXPECT_TRUE(InferOutages(table_, {0, 48}, cfg).empty());
}

TEST(LinksWithOutage, FlagsOnlyOverlapping) {
  std::vector<OutageInterval> outages{
      {util::LinkId{0}, {5, 8}},
      {util::LinkId{2}, {20, 25}},
  };
  const auto flags = LinksWithOutage(outages, 4, {0, 10});
  EXPECT_TRUE(flags[0]);
  EXPECT_FALSE(flags[1]);
  EXPECT_FALSE(flags[2]);  // outside the window
}

}  // namespace
}  // namespace tipsy::pipeline
