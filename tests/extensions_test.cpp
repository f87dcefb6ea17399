// Tests for the paper's extension features: suspicious-ingress detection,
// daily retraining, and de-peering analysis.
#include <gtest/gtest.h>

#include "core/anomaly.h"
#include "core/online.h"
#include "risk/depeering.h"
#include "scenario/scenario.h"
#include "topo/generator.h"

namespace tipsy {
namespace {

core::FlowFeatures MakeFlow(std::uint32_t asn, std::uint32_t prefix_block,
                            std::uint32_t metro) {
  core::FlowFeatures flow;
  flow.src_asn = util::AsId{asn};
  flow.src_prefix24 =
      util::Ipv4Prefix(util::Ipv4Addr(prefix_block << 8), 24);
  flow.src_metro = util::MetroId{metro};
  flow.dest_region = util::RegionId{0};
  flow.dest_service = wan::ServiceType::kWeb;
  return flow;
}

pipeline::AggRow MakeRow(const core::FlowFeatures& flow, std::uint32_t link,
                         std::uint64_t bytes, util::HourIndex hour = 0) {
  pipeline::AggRow row;
  row.hour = hour;
  row.link = util::LinkId{link};
  row.src_asn = flow.src_asn;
  row.src_prefix24 = flow.src_prefix24;
  row.src_metro = flow.src_metro;
  row.dest_region = flow.dest_region;
  row.dest_service = flow.dest_service;
  row.bytes = bytes;
  return row;
}

// ---------------------------------------------------------------- anomaly

class AnomalyTest : public ::testing::Test {
 protected:
  AnomalyTest() : model_(core::FeatureSet::kAP) {
    flow_ = MakeFlow(1, 2, 3);
    model_.Add(MakeRow(flow_, 0, 9000));
    model_.Add(MakeRow(flow_, 1, 1000));
    model_.Finalize();
  }
  core::HistoricalModel model_;
  core::FlowFeatures flow_;
};

TEST_F(AnomalyTest, KnownLinksArePlausible) {
  core::SuspiciousIngressDetector detector(&model_);
  const auto verdict = detector.Check(flow_, util::LinkId{0});
  EXPECT_TRUE(verdict.known_flow);
  EXPECT_FALSE(verdict.suspicious);
  EXPECT_NEAR(verdict.plausibility, 0.9, 1e-12);
}

TEST_F(AnomalyTest, NeverSeenLinkIsSuspicious) {
  core::SuspiciousIngressDetector detector(&model_);
  const auto verdict = detector.Check(flow_, util::LinkId{42});
  EXPECT_TRUE(verdict.known_flow);
  EXPECT_TRUE(verdict.suspicious);
  EXPECT_DOUBLE_EQ(verdict.plausibility, 0.0);
}

TEST_F(AnomalyTest, UnknownFlowGivesNoVerdict) {
  core::SuspiciousIngressDetector detector(&model_);
  const auto verdict = detector.Check(MakeFlow(9, 9, 9), util::LinkId{0});
  EXPECT_FALSE(verdict.known_flow);
  EXPECT_FALSE(verdict.suspicious);
}

TEST_F(AnomalyTest, ThresholdControlsSensitivity) {
  core::AnomalyConfig strict;
  strict.min_probability = 0.5;  // even the 10% link becomes suspicious
  core::SuspiciousIngressDetector detector(&model_, strict);
  EXPECT_TRUE(detector.Check(flow_, util::LinkId{1}).suspicious);
  EXPECT_FALSE(detector.Check(flow_, util::LinkId{0}).suspicious);
}

TEST_F(AnomalyTest, ScanFlagsAndRanksByVolume) {
  core::SuspiciousIngressDetector detector(&model_);
  const std::vector<pipeline::AggRow> rows{
      MakeRow(flow_, 0, 500),    // plausible
      MakeRow(flow_, 7, 100),    // spoofed, small
      MakeRow(flow_, 8, 900),    // spoofed, big
      MakeRow(MakeFlow(9, 9, 9), 7, 1000),  // unknown flow: ignored
  };
  const auto flagged = detector.Scan(rows);
  ASSERT_EQ(flagged.size(), 2u);
  EXPECT_EQ(flagged[0].link, util::LinkId{8});
  EXPECT_EQ(flagged[1].link, util::LinkId{7});
}

TEST_F(AnomalyTest, MinBytesFiltersNoise) {
  core::AnomalyConfig config;
  config.min_bytes = 500.0;
  core::SuspiciousIngressDetector detector(&model_, config);
  const std::vector<pipeline::AggRow> rows{MakeRow(flow_, 7, 100)};
  EXPECT_TRUE(detector.Scan(rows).empty());
}

// ----------------------------------------------------------------- online

class OnlineTest : public ::testing::Test {
 protected:
  OnlineTest() : topology_(topo::GenerateTinyTopology()) {
    wan_ = std::make_unique<wan::Wan>(
        topology_.peering_links,
        topology_.graph.node(topology_.wan).presence, 8, 1);
  }
  topo::GeneratedTopology topology_;
  std::unique_ptr<wan::Wan> wan_;
};

TEST_F(OnlineTest, RetrainsOnDayBoundaries) {
  core::DailyRetrainer retrainer(wan_.get(), &topology_.metros, 3);
  EXPECT_EQ(retrainer.current(), nullptr);
  const auto flow = MakeFlow(1, 2, 3);
  retrainer.Ingest(0, std::vector<pipeline::AggRow>{MakeRow(flow, 0, 100)});
  retrainer.Ingest(5, std::vector<pipeline::AggRow>{MakeRow(flow, 0, 100)});
  EXPECT_EQ(retrainer.retrain_count(), 0u);  // day 0 not complete yet
  retrainer.Ingest(24, std::vector<pipeline::AggRow>{MakeRow(flow, 1, 1)});
  EXPECT_EQ(retrainer.retrain_count(), 1u);
  ASSERT_NE(retrainer.current(), nullptr);
  // The day-0 data is in the current model.
  const auto* hist = retrainer.current()->Find("Hist_AP");
  const auto predictions = core::PredictTopK(*hist, flow, 1, nullptr);
  ASSERT_FALSE(predictions.empty());
  EXPECT_EQ(predictions[0].link, util::LinkId{0});
}

TEST_F(OnlineTest, WindowDropsStaleDays) {
  core::DailyRetrainer retrainer(wan_.get(), &topology_.metros,
                                 /*window_days=*/2);
  const auto old_flow = MakeFlow(1, 2, 3);
  const auto new_flow = MakeFlow(1, 5, 3);
  retrainer.Ingest(0, std::vector<pipeline::AggRow>{
                          MakeRow(old_flow, 0, 100, 0)});
  for (int day = 1; day <= 3; ++day) {
    retrainer.Ingest(day * 24, std::vector<pipeline::AggRow>{MakeRow(
                                   new_flow, 1, 100, day * 24)});
  }
  retrainer.Retrain();
  EXPECT_LE(retrainer.buffered_days(), 2u);
  const auto* hist = retrainer.current()->Find("Hist_AP");
  // Day 0 aged out of the 2-day window.
  EXPECT_TRUE(core::PredictTopK(*hist, old_flow, 1, nullptr).empty());
  EXPECT_FALSE(core::PredictTopK(*hist, new_flow, 1, nullptr).empty());
}

TEST_F(OnlineTest, CurrentServiceStableUntilNextBoundary) {
  core::DailyRetrainer retrainer(wan_.get(), &topology_.metros, 3);
  const auto flow = MakeFlow(1, 2, 3);
  retrainer.Ingest(0, std::vector<pipeline::AggRow>{MakeRow(flow, 0, 1)});
  retrainer.Ingest(24, std::vector<pipeline::AggRow>{MakeRow(flow, 0, 1)});
  const auto* service = retrainer.current();
  retrainer.Ingest(25, std::vector<pipeline::AggRow>{MakeRow(flow, 0, 1)});
  retrainer.Ingest(30, std::vector<pipeline::AggRow>{MakeRow(flow, 0, 1)});
  EXPECT_EQ(retrainer.current(), service);  // same day, no retrain
}

// -------------------------------------------------------------- depeering

class DepeeringTest : public ::testing::Test {
 protected:
  DepeeringTest() : topology_(topo::GenerateTinyTopology()) {
    wan_ = std::make_unique<wan::Wan>(
        topology_.peering_links,
        topology_.graph.node(topology_.wan).presence, 8, 1);
    tipsy_ = std::make_unique<core::TipsyService>(wan_.get(),
                                                  &topology_.metros);
  }

  // Two peers with distinct ASNs and at least one link each.
  std::pair<const wan::PeeringLink*, const wan::PeeringLink*> TwoPeers() {
    const wan::PeeringLink* first = &wan_->link(util::LinkId{0});
    for (const auto& link : wan_->links()) {
      if (link.peer_asn != first->peer_asn) return {first, &link};
    }
    return {first, nullptr};
  }

  topo::GeneratedTopology topology_;
  std::unique_ptr<wan::Wan> wan_;
  std::unique_ptr<core::TipsyService> tipsy_;
};

TEST_F(DepeeringTest, RedundantPeerRanksAsCandidate) {
  const auto [peer_a, peer_b] = TwoPeers();
  ASSERT_NE(peer_b, nullptr);
  // Flow X arrives on BOTH peers' links: withdrawing peer A's links still
  // leaves a prediction. Flow Y arrives only on peer B: peer B is
  // load-bearing for it.
  const auto flow_x = MakeFlow(1, 2, 3);
  // Distinct AS and metro so no tuple-level transfer learning can re-home
  // flow_y once peer B is gone.
  const auto flow_y = MakeFlow(2, 7, 9);
  std::vector<pipeline::AggRow> training{
      MakeRow(flow_x, peer_a->id.value(), 600),
      MakeRow(flow_x, peer_b->id.value(), 400),
      MakeRow(flow_y, peer_b->id.value(), 5000),
  };
  tipsy_->Train(training);
  tipsy_->FinalizeTraining();

  risk::DepeeringAnalyzer analyzer(wan_.get(), tipsy_.get());
  analyzer.Observe(training);
  const auto ranking = analyzer.Rank();
  ASSERT_EQ(ranking.size(), 2u);
  // Peer A first: all of its observed traffic can re-home to peer B.
  EXPECT_EQ(ranking[0].asn, peer_a->peer_asn);
  EXPECT_NEAR(ranking[0].predicted_retention, 1.0, 1e-9);
  EXPECT_NEAR(ranking[0].stranded_bytes, 0.0, 1e-9);
  // Peer B strands flow_y's bytes (its only known ingress).
  EXPECT_EQ(ranking[1].asn, peer_b->peer_asn);
  EXPECT_GT(ranking[1].stranded_bytes, 4000.0);
  EXPECT_EQ(analyzer.total_bytes(), 6000.0);
}

TEST_F(DepeeringTest, LinkCountsAndTypesFilled) {
  tipsy_->Train({});
  tipsy_->FinalizeTraining();
  risk::DepeeringAnalyzer analyzer(wan_.get(), tipsy_.get());
  const auto flow = MakeFlow(1, 2, 3);
  analyzer.Observe(std::vector<pipeline::AggRow>{MakeRow(flow, 0, 10)});
  const auto ranking = analyzer.Rank();
  ASSERT_EQ(ranking.size(), 1u);
  std::size_t expected_links = 0;
  for (const auto& link : wan_->links()) {
    if (link.peer_asn == wan_->link(util::LinkId{0}).peer_asn) {
      ++expected_links;
    }
  }
  EXPECT_EQ(ranking[0].link_count, expected_links);
}

}  // namespace
}  // namespace tipsy
