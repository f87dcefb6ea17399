#include <gtest/gtest.h>

#include "core/ensemble.h"
#include "core/evaluator.h"
#include "core/geo_model.h"
#include "core/historical.h"
#include "core/naive_bayes.h"
#include "core/tipsy_service.h"
#include "topo/generator.h"
#include "util/parallel.h"

namespace tipsy::core {
namespace {

FlowFeatures MakeFlow(std::uint32_t asn, std::uint32_t prefix_block,
                      std::uint32_t metro, std::uint32_t region = 0,
                      wan::ServiceType service = wan::ServiceType::kWeb) {
  FlowFeatures flow;
  flow.src_asn = util::AsId{asn};
  flow.src_prefix24 =
      util::Ipv4Prefix(util::Ipv4Addr(prefix_block << 8), 24);
  flow.src_metro = util::MetroId{metro};
  flow.dest_region = util::RegionId{region};
  flow.dest_service = service;
  return flow;
}

pipeline::AggRow MakeRow(const FlowFeatures& flow, std::uint32_t link,
                         std::uint64_t bytes) {
  pipeline::AggRow row;
  row.hour = 0;
  row.link = util::LinkId{link};
  row.src_asn = flow.src_asn;
  row.src_prefix24 = flow.src_prefix24;
  row.src_metro = flow.src_metro;
  row.dest_region = flow.dest_region;
  row.dest_service = flow.dest_service;
  row.bytes = bytes;
  return row;
}

// ------------------------------------------------------------- features

TEST(Features, TupleKeysSeparateFeatureSets) {
  const auto flow = MakeFlow(1, 2, 3);
  EXPECT_NE(MakeTupleKey(FeatureSet::kA, flow),
            MakeTupleKey(FeatureSet::kAP, flow));
  EXPECT_NE(MakeTupleKey(FeatureSet::kAP, flow),
            MakeTupleKey(FeatureSet::kAL, flow));
}

TEST(Features, ATupleIgnoresPrefixAndLocation) {
  const auto a = MakeFlow(1, 2, 3);
  const auto b = MakeFlow(1, 99, 7);
  EXPECT_EQ(MakeTupleKey(FeatureSet::kA, a), MakeTupleKey(FeatureSet::kA, b));
  EXPECT_NE(MakeTupleKey(FeatureSet::kAP, a),
            MakeTupleKey(FeatureSet::kAP, b));
  EXPECT_NE(MakeTupleKey(FeatureSet::kAL, a),
            MakeTupleKey(FeatureSet::kAL, b));
}

TEST(Features, DestinationAlwaysInKey) {
  const auto a = MakeFlow(1, 2, 3, 0, wan::ServiceType::kWeb);
  const auto b = MakeFlow(1, 2, 3, 1, wan::ServiceType::kWeb);
  const auto c = MakeFlow(1, 2, 3, 0, wan::ServiceType::kStorage);
  for (auto fs : {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
    EXPECT_NE(MakeTupleKey(fs, a), MakeTupleKey(fs, b));
    EXPECT_NE(MakeTupleKey(fs, a), MakeTupleKey(fs, c));
  }
}

TEST(Features, HasFeaturesRequiresLocationForAL) {
  auto flow = MakeFlow(1, 2, 3);
  EXPECT_TRUE(HasFeatures(FeatureSet::kAL, flow));
  flow.src_metro = util::MetroId{};
  EXPECT_FALSE(HasFeatures(FeatureSet::kAL, flow));
  EXPECT_TRUE(HasFeatures(FeatureSet::kA, flow));
  EXPECT_TRUE(HasFeatures(FeatureSet::kAP, flow));
}

// ------------------------------------------------------------ historical

TEST(HistoricalModel, ProbabilitiesAreByteFractions) {
  HistoricalModel model(FeatureSet::kAP);
  const auto flow = MakeFlow(1, 2, 3);
  model.Add(MakeRow(flow, 0, 700));
  model.Add(MakeRow(flow, 1, 200));
  model.Add(MakeRow(flow, 2, 100));
  model.Finalize();
  const auto predictions = PredictTopK(model, flow, 3, nullptr);
  ASSERT_EQ(predictions.size(), 3u);
  EXPECT_EQ(predictions[0].link, util::LinkId{0});
  EXPECT_DOUBLE_EQ(predictions[0].probability, 0.7);
  EXPECT_DOUBLE_EQ(predictions[1].probability, 0.2);
  EXPECT_DOUBLE_EQ(predictions[2].probability, 0.1);
}

TEST(HistoricalModel, RepeatedObservationsAccumulate) {
  HistoricalModel model(FeatureSet::kAP);
  const auto flow = MakeFlow(1, 2, 3);
  model.Add(MakeRow(flow, 0, 100));
  model.Add(MakeRow(flow, 1, 150));
  model.Add(MakeRow(flow, 0, 100));
  model.Finalize();
  const auto predictions = PredictTopK(model, flow, 1, nullptr);
  ASSERT_EQ(predictions.size(), 1u);
  EXPECT_EQ(predictions[0].link, util::LinkId{0});  // 200 > 150
}

TEST(HistoricalModel, UnseenTupleHasNoPrediction) {
  HistoricalModel model(FeatureSet::kAP);
  model.Add(MakeRow(MakeFlow(1, 2, 3), 0, 100));
  model.Finalize();
  EXPECT_TRUE(PredictTopK(model, MakeFlow(1, 99, 3), 3, nullptr).empty());
  EXPECT_FALSE(model.Knows(MakeFlow(1, 99, 3)));
  EXPECT_TRUE(model.Knows(MakeFlow(1, 2, 3)));
}

TEST(HistoricalModel, NoTransferAcrossTuples) {
  // The documented limitation: a link seen only for tuple X cannot be
  // predicted for tuple Y.
  HistoricalModel model(FeatureSet::kAP);
  model.Add(MakeRow(MakeFlow(1, 2, 3), 0, 100));
  model.Add(MakeRow(MakeFlow(1, 5, 3), 1, 100));
  model.Finalize();
  const auto predictions = PredictTopK(model, MakeFlow(1, 2, 3), 3, nullptr);
  ASSERT_EQ(predictions.size(), 1u);
  EXPECT_EQ(predictions[0].link, util::LinkId{0});
}

TEST(HistoricalModel, ALevelAggregatesAcrossPrefixes) {
  HistoricalModel model(FeatureSet::kA);
  model.Add(MakeRow(MakeFlow(1, 2, 3), 0, 100));
  model.Add(MakeRow(MakeFlow(1, 5, 4), 1, 300));
  model.Finalize();
  const auto predictions = PredictTopK(model, MakeFlow(1, 77, 9), 2, nullptr);
  ASSERT_EQ(predictions.size(), 2u);
  EXPECT_EQ(predictions[0].link, util::LinkId{1});
  EXPECT_DOUBLE_EQ(predictions[0].probability, 0.75);
}

TEST(HistoricalModel, ExclusionRenormalizesOverRemaining) {
  HistoricalModel model(FeatureSet::kAP);
  const auto flow = MakeFlow(1, 2, 3);
  model.Add(MakeRow(flow, 0, 600));
  model.Add(MakeRow(flow, 1, 300));
  model.Add(MakeRow(flow, 2, 100));
  model.Finalize();
  ExclusionMask excluded(3, false);
  excluded[0] = true;
  const auto predictions = PredictTopK(model, flow, 3, &excluded);
  ASSERT_EQ(predictions.size(), 2u);
  EXPECT_EQ(predictions[0].link, util::LinkId{1});
  EXPECT_DOUBLE_EQ(predictions[0].probability, 0.75);
  EXPECT_DOUBLE_EQ(predictions[1].probability, 0.25);
}

TEST(HistoricalModel, AllLinksExcludedGivesEmpty) {
  HistoricalModel model(FeatureSet::kAP);
  const auto flow = MakeFlow(1, 2, 3);
  model.Add(MakeRow(flow, 0, 100));
  model.Finalize();
  ExclusionMask excluded(1, true);
  EXPECT_TRUE(PredictTopK(model, flow, 3, &excluded).empty());
}

TEST(HistoricalModel, MaxLinksPerTupleTruncatesRanking) {
  HistoricalModel model(FeatureSet::kAP, /*max_links_per_tuple=*/2);
  const auto flow = MakeFlow(1, 2, 3);
  for (std::uint32_t l = 0; l < 6; ++l) {
    model.Add(MakeRow(flow, l, 100 * (l + 1)));
  }
  model.Finalize();
  const auto predictions = PredictTopK(model, flow, 10, nullptr);
  ASSERT_EQ(predictions.size(), 2u);
  EXPECT_EQ(predictions[0].link, util::LinkId{5});
  EXPECT_EQ(predictions[1].link, util::LinkId{4});
}

TEST(HistoricalModel, UnweightedModeCountsObservations) {
  HistoricalModel model(FeatureSet::kAP, 16, /*weight_by_bytes=*/false);
  const auto flow = MakeFlow(1, 2, 3);
  model.Add(MakeRow(flow, 0, 1'000'000));  // one huge observation
  model.Add(MakeRow(flow, 1, 1));          // three tiny ones
  model.Add(MakeRow(flow, 1, 1));
  model.Add(MakeRow(flow, 1, 1));
  model.Finalize();
  const auto predictions = PredictTopK(model, flow, 1, nullptr);
  ASSERT_EQ(predictions.size(), 1u);
  EXPECT_EQ(predictions[0].link, util::LinkId{1});
}

TEST(HistoricalModel, KZeroGivesEmpty) {
  HistoricalModel model(FeatureSet::kAP);
  const auto flow = MakeFlow(1, 2, 3);
  model.Add(MakeRow(flow, 0, 100));
  model.Finalize();
  EXPECT_TRUE(PredictTopK(model, flow, 0, nullptr).empty());
}

TEST(HistoricalModel, MemoryGrowsWithTuples) {
  HistoricalModel model(FeatureSet::kAP);
  model.Add(MakeRow(MakeFlow(1, 1, 1), 0, 1));
  model.Finalize();
  const auto small = model.MemoryFootprintBytes();
  HistoricalModel big(FeatureSet::kAP);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    big.Add(MakeRow(MakeFlow(1, i, 1), 0, 1));
  }
  big.Finalize();
  EXPECT_GT(big.MemoryFootprintBytes(), small * 100);
}

// ----------------------------------------------------------- naive bayes

TEST(NaiveBayes, LearnsClassPriorsAndLikelihoods) {
  NaiveBayesModel model(FeatureSet::kA);
  // AS 1 goes to link 0; AS 2 goes to link 1.
  for (int i = 0; i < 10; ++i) {
    model.Add(MakeRow(MakeFlow(1, i, 3), 0, 1000));
    model.Add(MakeRow(MakeFlow(2, i, 3), 1, 1000));
  }
  model.Finalize();
  const auto p1 = PredictTopK(model, MakeFlow(1, 99, 5), 1, nullptr);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(p1[0].link, util::LinkId{0});
  const auto p2 = PredictTopK(model, MakeFlow(2, 99, 5), 1, nullptr);
  EXPECT_EQ(p2[0].link, util::LinkId{1});
}

TEST(NaiveBayes, GeneralizesAcrossTuplesUnlikeHistorical) {
  // A flow whose exact tuple was never seen, but whose AS and destination
  // each were: NB predicts, Hist does not.
  NaiveBayesModel nb(FeatureSet::kAL);
  HistoricalModel hist(FeatureSet::kAL);
  nb.Add(MakeRow(MakeFlow(1, 2, 3, 0), 0, 1000));
  nb.Add(MakeRow(MakeFlow(1, 2, 4, 1), 0, 1000));
  hist.Add(MakeRow(MakeFlow(1, 2, 3, 0), 0, 1000));
  hist.Add(MakeRow(MakeFlow(1, 2, 4, 1), 0, 1000));
  nb.Finalize();
  hist.Finalize();
  const auto unseen_combo = MakeFlow(1, 2, 3, 1);  // metro 3 x region 1
  EXPECT_FALSE(PredictTopK(nb, unseen_combo, 1, nullptr).empty());
  EXPECT_TRUE(PredictTopK(hist, unseen_combo, 1, nullptr).empty());
}

TEST(NaiveBayes, UnseenFeatureValueGivesNoPrediction) {
  NaiveBayesModel model(FeatureSet::kA);
  model.Add(MakeRow(MakeFlow(1, 2, 3), 0, 1000));
  model.Finalize();
  EXPECT_TRUE(PredictTopK(model, MakeFlow(42, 2, 3), 1, nullptr).empty());
}

TEST(NaiveBayes, RespectsExclusions) {
  NaiveBayesModel model(FeatureSet::kA);
  model.Add(MakeRow(MakeFlow(1, 2, 3), 0, 900));
  model.Add(MakeRow(MakeFlow(1, 2, 3), 1, 100));
  model.Finalize();
  ExclusionMask excluded(2, false);
  excluded[0] = true;
  const auto predictions = PredictTopK(model, MakeFlow(1, 2, 3), 2, &excluded);
  ASSERT_EQ(predictions.size(), 1u);
  EXPECT_EQ(predictions[0].link, util::LinkId{1});
}

TEST(NaiveBayes, ProbabilitiesNormalizedOverTopK) {
  NaiveBayesModel model(FeatureSet::kA);
  model.Add(MakeRow(MakeFlow(1, 2, 3), 0, 500));
  model.Add(MakeRow(MakeFlow(1, 2, 3), 1, 300));
  model.Add(MakeRow(MakeFlow(1, 2, 3), 2, 200));
  model.Finalize();
  const auto predictions = PredictTopK(model, MakeFlow(1, 2, 3), 3, nullptr);
  ASSERT_EQ(predictions.size(), 3u);
  double total = 0.0;
  for (const auto& p : predictions) total += p.probability;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GE(predictions[0].probability, predictions[1].probability);
}

// -------------------------------------------------------------- ensemble

TEST(Ensemble, FallsThroughInOrder) {
  HistoricalModel ap(FeatureSet::kAP);
  HistoricalModel a(FeatureSet::kA);
  const auto seen = MakeFlow(1, 2, 3);
  const auto same_as_only = MakeFlow(1, 9, 3);
  ap.Add(MakeRow(seen, 0, 100));
  a.Add(MakeRow(seen, 1, 100));  // A-tuple covers both flows
  ap.Finalize();
  a.Finalize();
  SequentialEnsemble ensemble({&ap, &a}, "Hist_AP/A");
  // Seen flow answered by the first stage.
  auto predictions = PredictTopK(ensemble, seen, 1, nullptr);
  ASSERT_FALSE(predictions.empty());
  EXPECT_EQ(predictions[0].link, util::LinkId{0});
  EXPECT_EQ(ensemble.last_stage(), 0);
  // AP miss falls through to A.
  predictions = PredictTopK(ensemble, same_as_only, 1, nullptr);
  ASSERT_FALSE(predictions.empty());
  EXPECT_EQ(predictions[0].link, util::LinkId{1});
  EXPECT_EQ(ensemble.last_stage(), 1);
  // Complete miss.
  EXPECT_TRUE(PredictTopK(ensemble, MakeFlow(5, 5, 5), 1, nullptr).empty());
  EXPECT_EQ(ensemble.last_stage(), -1);
}

TEST(Ensemble, ExclusionTriggersFallthrough) {
  // If the first stage's only links are excluded, the next stage answers.
  HistoricalModel ap(FeatureSet::kAP);
  HistoricalModel a(FeatureSet::kA);
  const auto flow = MakeFlow(1, 2, 3);
  ap.Add(MakeRow(flow, 0, 100));
  a.Add(MakeRow(flow, 0, 100));
  a.Add(MakeRow(MakeFlow(1, 7, 4), 1, 100));
  ap.Finalize();
  a.Finalize();
  SequentialEnsemble ensemble({&ap, &a}, "Hist_AP/A");
  ExclusionMask excluded(2, false);
  excluded[0] = true;
  const auto predictions = PredictTopK(ensemble, flow, 2, &excluded);
  ASSERT_EQ(predictions.size(), 1u);
  EXPECT_EQ(predictions[0].link, util::LinkId{1});
}

TEST(Ensemble, MemoryIsSumOfStages) {
  HistoricalModel ap(FeatureSet::kAP);
  HistoricalModel a(FeatureSet::kA);
  ap.Add(MakeRow(MakeFlow(1, 2, 3), 0, 100));
  a.Add(MakeRow(MakeFlow(1, 2, 3), 0, 100));
  ap.Finalize();
  a.Finalize();
  SequentialEnsemble ensemble({&ap, &a}, "e");
  EXPECT_EQ(ensemble.MemoryFootprintBytes(),
            ap.MemoryFootprintBytes() + a.MemoryFootprintBytes());
}

// ------------------------------------------------------------- geo model

class GeoModelTest : public ::testing::Test {
 protected:
  GeoModelTest() : topology_(topo::GenerateTinyTopology()) {
    wan_ = std::make_unique<wan::Wan>(
        topology_.peering_links,
        topology_.graph.node(topology_.wan).presence, 8, 1);
    // Find a peer ASN with >= 3 links for the fallback to rank.
    for (const auto& link : wan_->links()) {
      std::size_t count = 0;
      for (const auto& other : wan_->links()) {
        if (other.peer_asn == link.peer_asn) ++count;
      }
      if (count >= 3) {
        anchor_ = &link;
        break;
      }
    }
  }
  topo::GeneratedTopology topology_;
  std::unique_ptr<wan::Wan> wan_;
  const wan::PeeringLink* anchor_ = nullptr;
};

TEST_F(GeoModelTest, AppendsSamePeerLinksByDistance) {
  ASSERT_NE(anchor_, nullptr);
  HistoricalModel base(FeatureSet::kAL);
  const auto flow = MakeFlow(7, 2, 3);
  base.Add(MakeRow(flow, anchor_->id.value(), 100));
  base.Finalize();
  GeoAugmentedModel geo(&base, wan_.get(), &topology_.metros);
  // Base knows one link; ask for three.
  const auto predictions = PredictTopK(geo, flow, 3, nullptr);
  ASSERT_EQ(predictions.size(), 3u);
  EXPECT_EQ(predictions[0].link, anchor_->id);
  // Appended links all belong to the anchor's peer AS and come in
  // distance order from the anchor metro.
  const auto expected = wan_->LinksOfAsnByDistance(
      anchor_->peer_asn, anchor_->metro, topology_.metros, anchor_->id);
  EXPECT_EQ(predictions[1].link, expected[0]);
  EXPECT_EQ(predictions[2].link, expected[1]);
  EXPECT_GT(predictions[1].probability, predictions[2].probability);
}

TEST_F(GeoModelTest, AnchorsOnExcludedBestMatch) {
  ASSERT_NE(anchor_, nullptr);
  HistoricalModel base(FeatureSet::kAL);
  const auto flow = MakeFlow(7, 2, 3);
  base.Add(MakeRow(flow, anchor_->id.value(), 100));
  base.Finalize();
  GeoAugmentedModel geo(&base, wan_.get(), &topology_.metros);
  ExclusionMask excluded(wan_->link_count(), false);
  excluded[anchor_->id.value()] = true;
  const auto predictions = PredictTopK(geo, flow, 2, &excluded);
  // The base model has nothing left, but geography fills in starting
  // from the (excluded) historical best match.
  ASSERT_EQ(predictions.size(), 2u);
  for (const auto& p : predictions) {
    EXPECT_NE(p.link, anchor_->id);
    EXPECT_EQ(wan_->link(p.link).peer_asn, anchor_->peer_asn);
  }
}

TEST_F(GeoModelTest, UnknownFlowStaysUnknown) {
  HistoricalModel base(FeatureSet::kAL);
  base.Finalize();
  GeoAugmentedModel geo(&base, wan_.get(), &topology_.metros);
  EXPECT_TRUE(PredictTopK(geo, MakeFlow(1, 2, 3), 3, nullptr).empty());
}

// -------------------------------------------------------------- evaluator

TEST(Evaluator, HandComputedAccuracy) {
  EvalSet eval;
  const auto f1 = MakeFlow(1, 2, 3);
  const auto f2 = MakeFlow(1, 5, 3);
  eval.AddObservation(f1, util::LinkId{0}, 80.0);
  eval.AddObservation(f1, util::LinkId{1}, 20.0);
  eval.AddObservation(f2, util::LinkId{2}, 100.0);
  eval.Finalize();

  HistoricalModel model(FeatureSet::kAP);
  model.Add(MakeRow(f1, 0, 1));  // right about f1's top link
  model.Add(MakeRow(f2, 1, 1));  // wrong about f2
  model.Finalize();
  const auto accuracy = EvaluateModel(model, eval);
  // Top-1 credit: 80 of 200 bytes.
  EXPECT_NEAR(accuracy.top1(), 0.4, 1e-12);
  EXPECT_NEAR(accuracy.top3(), 0.4, 1e-12);
}

TEST(Evaluator, OracleIsPerfectWithEnoughK) {
  EvalSet eval;
  const auto f1 = MakeFlow(1, 2, 3);
  eval.AddObservation(f1, util::LinkId{0}, 50.0);
  eval.AddObservation(f1, util::LinkId{1}, 30.0);
  eval.AddObservation(f1, util::LinkId{2}, 20.0);
  eval.Finalize();
  const auto curve = OracleAccuracyByK(FeatureSet::kAP, eval, 4);
  EXPECT_NEAR(curve[0], 0.5, 1e-12);
  EXPECT_NEAR(curve[1], 0.8, 1e-12);
  EXPECT_NEAR(curve[2], 1.0, 1e-12);
  EXPECT_NEAR(curve[3], 1.0, 1e-12);
}

TEST(Evaluator, OracleMonotoneInK) {
  EvalSet eval;
  for (std::uint32_t f = 0; f < 20; ++f) {
    for (std::uint32_t l = 0; l < 5; ++l) {
      eval.AddObservation(MakeFlow(1, f, 3), util::LinkId{l},
                          (f * 7 + l * 13) % 50 + 1.0);
    }
  }
  eval.Finalize();
  const auto curve = OracleAccuracyByK(FeatureSet::kAP, eval, 6);
  for (std::size_t k = 1; k < curve.size(); ++k) {
    EXPECT_GE(curve[k], curve[k - 1] - 1e-12);
  }
  EXPECT_NEAR(curve.back(), 1.0, 1e-9);
}

TEST(Evaluator, MaskInterningDeduplicates) {
  EvalSet eval;
  ExclusionMask m1(4, false);
  m1[2] = true;
  ExclusionMask m2(4, false);
  m2[2] = true;
  ExclusionMask m3(4, false);
  m3[3] = true;
  EXPECT_EQ(eval.InternMask(m1), eval.InternMask(m2));
  EXPECT_NE(eval.InternMask(m1), eval.InternMask(m3));
  EXPECT_EQ(eval.InternMask(ExclusionMask(4, false)), 0u);
}

TEST(Evaluator, MaskedCasesExcludeLinksFromModels) {
  EvalSet eval;
  ExclusionMask down(2, false);
  down[0] = true;
  const auto mask_id = eval.InternMask(down);
  const auto flow = MakeFlow(1, 2, 3);
  eval.AddObservation(flow, util::LinkId{1}, 100.0, mask_id);
  eval.Finalize();

  HistoricalModel model(FeatureSet::kAP);
  model.Add(MakeRow(flow, 0, 900));  // preferred link, but excluded
  model.Add(MakeRow(flow, 1, 100));
  model.Finalize();
  // With the mask applied, the model's first valid answer is link 1.
  EXPECT_NEAR(EvaluateModel(model, eval).top1(), 1.0, 1e-12);
}

TEST(Evaluator, SeparateCasesPerMask) {
  EvalSet eval;
  ExclusionMask down(2, false);
  down[0] = true;
  const auto mask_id = eval.InternMask(down);
  const auto flow = MakeFlow(1, 2, 3);
  eval.AddObservation(flow, util::LinkId{0}, 60.0, 0);
  eval.AddObservation(flow, util::LinkId{1}, 40.0, mask_id);
  eval.Finalize();
  EXPECT_EQ(eval.cases().size(), 2u);
  EXPECT_DOUBLE_EQ(eval.total_bytes(), 100.0);
}

// ---------------------------------------------------------- tipsy service

class TipsyServiceTest : public ::testing::Test {
 protected:
  TipsyServiceTest() : topology_(topo::GenerateTinyTopology()) {
    wan_ = std::make_unique<wan::Wan>(
        topology_.peering_links,
        topology_.graph.node(topology_.wan).presence, 8, 1);
  }
  topo::GeneratedTopology topology_;
  std::unique_ptr<wan::Wan> wan_;
};

TEST_F(TipsyServiceTest, RegistryHasAllPaperModels) {
  TipsyService tipsy(wan_.get(), &topology_.metros);
  tipsy.Train({});
  tipsy.FinalizeTraining();
  for (const char* name :
       {"Hist_A", "Hist_AP", "Hist_AL", "Hist_AL+G", "Hist_AP/AL/A",
        "Hist_AL/AP/A"}) {
    EXPECT_NE(tipsy.Find(name), nullptr) << name;
  }
  EXPECT_EQ(tipsy.Find("NB_A"), nullptr);  // not trained by default
  EXPECT_EQ(tipsy.Find("nope"), nullptr);
  EXPECT_EQ(tipsy.Best().name(), "Hist_AL+G");
}

TEST_F(TipsyServiceTest, NaiveBayesOptIn) {
  TipsyConfig config;
  config.train_naive_bayes = true;
  TipsyService tipsy(wan_.get(), &topology_.metros, config);
  tipsy.Train({});
  tipsy.FinalizeTraining();
  EXPECT_NE(tipsy.Find("NB_A"), nullptr);
  EXPECT_NE(tipsy.Find("NB_AL"), nullptr);
  EXPECT_NE(tipsy.Find("Hist_AL/NB_AL"), nullptr);
}

TEST_F(TipsyServiceTest, PredictShiftConservesBytes) {
  TipsyService tipsy(wan_.get(), &topology_.metros);
  const auto flow = MakeFlow(1, 2, 3);
  std::vector<pipeline::AggRow> rows{MakeRow(flow, 0, 600),
                                     MakeRow(flow, 1, 400)};
  tipsy.Train(rows);
  tipsy.FinalizeTraining();

  ExclusionMask excluded(wan_->link_count(), false);
  excluded[0] = true;
  const std::vector<TipsyService::ShiftQueryFlow> queries{{flow, 1000.0}};
  const auto shift = tipsy.PredictShift(queries, excluded);
  double shifted_total = shift.unpredicted_bytes;
  for (const auto& [link, bytes] : shift.shifted) {
    EXPECT_NE(link, util::LinkId{0});
    shifted_total += bytes;
  }
  EXPECT_NEAR(shifted_total, 1000.0, 1e-9);
}

TEST_F(TipsyServiceTest, UnknownFlowsCountedAsUnpredicted) {
  TipsyService tipsy(wan_.get(), &topology_.metros);
  tipsy.Train({});
  tipsy.FinalizeTraining();
  const std::vector<TipsyService::ShiftQueryFlow> queries{
      {MakeFlow(9, 9, 9), 500.0}};
  const auto shift =
      tipsy.PredictShift(queries, ExclusionMask(wan_->link_count(), false));
  EXPECT_DOUBLE_EQ(shift.unpredicted_bytes, 500.0);
  EXPECT_TRUE(shift.shifted.empty());
}

// ------------------------------------------------- parallel determinism

// Rows varied enough to spread over many tuples and links; big enough to
// cross TipsyService's parallel-training threshold in a single batch.
std::vector<pipeline::AggRow> DeterminismRows(std::size_t count,
                                              std::uint32_t link_count) {
  std::vector<pipeline::AggRow> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto flow =
        MakeFlow(static_cast<std::uint32_t>(i % 7 + 1),
                 static_cast<std::uint32_t>(i % 13),
                 static_cast<std::uint32_t>(i % 5),
                 static_cast<std::uint32_t>(i % 3));
    rows.push_back(MakeRow(flow, static_cast<std::uint32_t>(i % link_count),
                           (i * 97 + 13) % 1000 + 1));
  }
  return rows;
}

void ExpectExportsEqual(const std::vector<HistoricalModel::TupleExport>& a,
                        const std::vector<HistoricalModel::TupleExport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].total_bytes, b[i].total_bytes);  // bit-identical
    ASSERT_EQ(a[i].ranked.size(), b[i].ranked.size());
    for (std::size_t j = 0; j < a[i].ranked.size(); ++j) {
      EXPECT_EQ(a[i].ranked[j].first, b[i].ranked[j].first);
      EXPECT_EQ(a[i].ranked[j].second, b[i].ranked[j].second);
    }
  }
}

TEST(HistoricalModel, ShardedAddMatchesSerialAddBitIdentically) {
  const auto rows = DeterminismRows(500, 4);
  HistoricalModel serial(FeatureSet::kAP);
  for (const auto& row : rows) serial.Add(row);
  serial.Finalize();

  HistoricalModel sharded(FeatureSet::kAP);
  sharded.EnsureShards(4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    sharded.AddToShard(i % 4, rows[i]);
  }
  sharded.Finalize();

  ExpectExportsEqual(serial.ExportTable(), sharded.ExportTable());
}

TEST_F(TipsyServiceTest, ParallelTrainingBitIdenticalToSerial) {
  const auto rows = DeterminismRows(
      1200, static_cast<std::uint32_t>(wan_->link_count()));

  const auto train = [&](std::size_t threads) {
    util::ScopedPool pool(threads);
    auto tipsy = std::make_unique<TipsyService>(wan_.get(),
                                                &topology_.metros);
    tipsy->Train(rows);
    tipsy->FinalizeTraining();
    return tipsy;
  };
  const auto serial = train(1);
  const auto parallel = train(4);

  for (const auto fs : {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
    ExpectExportsEqual(serial->hist(fs).ExportTable(),
                       parallel->hist(fs).ExportTable());
  }

  // Evaluation must also be bit-identical across thread counts: same
  // model, same eval set, per-chunk accumulators folded in chunk order.
  EvalSet eval;
  for (const auto& row : rows) {
    const FlowFeatures flow{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service};
    eval.AddObservation(flow, row.link, static_cast<double>(row.bytes), 0);
  }
  eval.Finalize();
  const Model* model = serial->Find("Hist_AL/AP/A");
  ASSERT_NE(model, nullptr);
  AccuracyResult serial_acc, parallel_acc;
  {
    util::ScopedPool pool(1);
    serial_acc = EvaluateModel(*model, eval);
  }
  {
    util::ScopedPool pool(4);
    parallel_acc = EvaluateModel(*model, eval);
  }
  for (std::size_t k = 0; k < AccuracyResult::kMaxK; ++k) {
    EXPECT_EQ(serial_acc.top[k], parallel_acc.top[k]);
  }
  EXPECT_GT(serial_acc.top3(), 0.0);  // the comparison is not vacuous
}

}  // namespace
}  // namespace tipsy::core
