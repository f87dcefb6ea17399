// Serving-core correctness: the flat serving tables must agree bit for
// bit with a reference fold of the paper's estimator (tests/
// reference_fold.h) in everything they serve, across every construction
// route (Add + Finalize, sharded Train, export round trips, window counts
// with an overlay) and through snapshot warm-starts; the batched
// PredictShift must equal both the fold's byte spread and the per-flow
// loop byte for byte; and the epoch swap must let readers predict
// concurrently with a publisher (the TSan leg of
// tools/run_sanitized_fuzz.sh runs this binary to prove the swap is
// race-free without the hot path taking a lock).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/historical.h"
#include "core/online.h"
#include "core/tipsy_service.h"
#include "reference_fold.h"
#include "topo/generator.h"
#include "util/parallel.h"

namespace tipsy {
namespace {

using core::FeatureSet;
using core::FlowFeatures;
using core::HistoricalModel;
using reference::ReferenceFold;

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

// A randomized training window: a few dozen distinct tuples, byte counts
// spread over a handful of links, deterministic per seed. Every 11th row
// misses its geolocation (unkeyable for AL), and byte counts come from a
// small set so equal-bytes ties exercise the link tie-break.
std::vector<pipeline::AggRow> RandomWindow(std::uint64_t seed,
                                           std::size_t rows = 400) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> asn(1, 12);
  std::uniform_int_distribution<std::uint32_t> prefix(1, 20);
  std::uniform_int_distribution<std::uint32_t> metro(0, 3);
  std::uniform_int_distribution<std::uint32_t> region(0, 2);
  std::uniform_int_distribution<std::uint32_t> link(0, 12);
  std::uniform_int_distribution<std::uint64_t> bytes(1, 1'000'000);
  std::uniform_int_distribution<std::uint64_t> tied_bytes(1, 4);
  std::vector<pipeline::AggRow> window;
  window.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    auto flow =
        MakeFlow(asn(rng), prefix(rng), metro(rng), region(rng),
                 i % 3 == 0 ? wan::ServiceType::kStorage
                            : wan::ServiceType::kWeb);
    if (i % 11 == 0) flow.src_metro = util::MetroId{};
    const std::uint64_t volume =
        i % 2 == 0 ? bytes(rng) : 1000 * tied_bytes(rng);
    window.push_back(MakeRow(flow, link(rng), volume));
  }
  return window;
}

ReferenceFold Fold(FeatureSet fs, std::span<const pipeline::AggRow> rows,
                   std::size_t max_links = 16, bool weight_by_bytes = true) {
  ReferenceFold fold(fs, max_links, weight_by_bytes);
  fold.AddAll(rows);
  return fold;
}

HistoricalModel TrainModel(FeatureSet fs,
                           std::span<const pipeline::AggRow> rows,
                           std::size_t max_links = 16,
                           bool weight_by_bytes = true) {
  HistoricalModel model(fs, max_links, weight_by_bytes);
  for (const auto& row : rows) model.Add(row);
  model.Finalize();
  return model;
}

// Exact (bit-level) equality of the model's export table and the fold's
// tuples, matched by the tuple key the model derives from each fold
// tuple's raw features.
void ExpectExportMatchesFold(const HistoricalModel& model,
                             const ReferenceFold& fold) {
  ASSERT_EQ(model.tuple_count(), fold.tuple_count());
  const auto exported = model.ExportTable();
  ASSERT_EQ(exported.size(), fold.tuple_count());
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> by_key;
  for (std::size_t i = 0; i < exported.size(); ++i) {
    by_key.emplace(std::pair(exported[i].key.hi, exported[i].key.lo), i);
  }
  ASSERT_EQ(by_key.size(), exported.size()) << "duplicate export keys";
  for (const auto& tuple : fold.Tuples()) {
    const core::TupleKey key =
        core::MakeTupleKey(model.feature_set(), tuple.flow);
    const auto it = by_key.find(std::pair(key.hi, key.lo));
    ASSERT_NE(it, by_key.end()) << "fold tuple missing from the export";
    const auto& entry = exported[it->second];
    EXPECT_EQ(entry.total_bytes, tuple.total_bytes);  // bit-exact
    EXPECT_EQ(entry.ranked, tuple.ranked);
  }
}

// Exact equality of PredictInto and Knows against the fold for a query
// stream of seen, unseen and unkeyable flows, with and without
// exclusions, k from 1 to 5.
void ExpectPredictionsMatchFold(const HistoricalModel& model,
                                const ReferenceFold& fold, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::uniform_int_distribution<std::uint32_t> asn(1, 16);  // some unseen
  std::uniform_int_distribution<std::uint32_t> prefix(1, 24);
  std::uniform_int_distribution<std::uint32_t> metro(0, 4);
  std::uniform_int_distribution<std::uint32_t> region(0, 2);
  core::ExclusionMask excluded(16, false);
  excluded[2] = excluded[7] = true;
  std::size_t predicted = 0;
  for (int q = 0; q < 500; ++q) {
    auto flow = MakeFlow(asn(rng), prefix(rng), metro(rng), region(rng),
                         q % 4 == 0 ? wan::ServiceType::kStorage
                                    : wan::ServiceType::kWeb);
    if (q % 17 == 0) flow.src_metro = util::MetroId{};  // unkeyable for AL
    if (q % 29 == 0) flow.src_asn = util::AsId{};       // unkeyable for all
    const auto* mask = q % 3 == 0 ? &excluded : nullptr;
    const std::size_t k = 1 + q % 5;
    EXPECT_EQ(model.Knows(flow), fold.Knows(flow));
    const auto expected = fold.Predict(flow, k, mask);
    // An oversized buffer: PredictInto must stop at k on its own.
    std::vector<core::Prediction> out(k + 2);
    const std::size_t n = model.PredictInto(flow, k, mask, out);
    ASSERT_EQ(n, expected.size()) << "query " << q;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i].link, expected[i].link);
      EXPECT_EQ(out[i].probability, expected[i].probability);  // bit-exact
    }
    predicted += n > 0 ? 1 : 0;
  }
  EXPECT_GT(predicted, 0u);  // the stream must reach known tuples
}

void ExpectMatchesFold(const HistoricalModel& model, const ReferenceFold& fold,
                       std::uint64_t seed) {
  ExpectExportMatchesFold(model, fold);
  ExpectPredictionsMatchFold(model, fold, seed);
}

// ---------------------------------------- flat tables vs the reference fold

TEST(ServingCore, FlatTablesMatchReferenceFoldOverRandomWindows) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto window = RandomWindow(seed);
    for (const auto fs :
         {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
      for (const bool weighted : {true, false}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " fs "
                                        << core::ToString(fs) << " weighted "
                                        << weighted);
        const auto model = TrainModel(fs, window, 16, weighted);
        ExpectMatchesFold(model, Fold(fs, window, 16, weighted), seed);
      }
    }
  }
}

TEST(ServingCore, TruncationMatchesReferenceFold) {
  // A small max_links_per_tuple forces the ranking truncation path: the
  // survivors must be exactly the fold's, and p(l|f) keeps the
  // untruncated tuple total as its denominator.
  const auto window = RandomWindow(99, /*rows=*/800);
  for (const auto fs : {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
    for (const std::size_t max_links : {1u, 3u}) {
      SCOPED_TRACE(testing::Message() << core::ToString(fs) << " max_links "
                                      << max_links);
      const auto model = TrainModel(fs, window, max_links);
      ExpectMatchesFold(model, Fold(fs, window, max_links), 99);
    }
  }
}

TEST(ServingCore, ShardedTrainMatchesReferenceFold) {
  // TipsyService::Train shards batches of at least 256 rows over the
  // current pool; Finalize merges the shards.
  const auto topology = topo::GenerateTinyTopology();
  const wan::Wan wan(topology.peering_links,
                     topology.graph.node(topology.wan).presence, 8, 1);
  const auto window = RandomWindow(3, /*rows=*/1200);
  const util::ScopedPool pool(3);
  core::TipsyService service(&wan, &topology.metros);
  const std::span<const pipeline::AggRow> rows(window);
  service.Train(rows.first(600));
  service.Train(rows.subspan(600));
  service.FinalizeTraining();
  for (const auto fs : {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
    SCOPED_TRACE(core::ToString(fs));
    ExpectMatchesFold(service.hist(fs), Fold(fs, window), 3);
  }
}

TEST(ServingCore, FromExportRoundTripRebuildsFlatTable) {
  const auto window = RandomWindow(5);
  for (const auto fs : {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
    const auto trained = TrainModel(fs, window, 4);
    const auto exported = trained.ExportTable();
    const auto rebuilt = HistoricalModel::FromExport(fs, 4, true, exported);
    EXPECT_TRUE(rebuilt.finalized());
    EXPECT_EQ(rebuilt.flat_table().size(), exported.size());
    ExpectMatchesFold(rebuilt, Fold(fs, window, 4), 5);

    // And the round trip itself is lossless: re-export equals the
    // original.
    const auto reexported = rebuilt.ExportTable();
    ASSERT_EQ(reexported.size(), exported.size());
    for (std::size_t i = 0; i < exported.size(); ++i) {
      EXPECT_TRUE(reexported[i].key == exported[i].key);
      EXPECT_EQ(reexported[i].total_bytes, exported[i].total_bytes);
      EXPECT_EQ(reexported[i].ranked, exported[i].ranked);
    }
  }
}

TEST(ServingCore, FromCountsWithOverlayMatchesReferenceFold) {
  // The incremental retrainer's route: window counts plus the still
  // unfolded newest day as an overlay.
  const auto window = RandomWindow(17, /*rows=*/600);
  const auto newest_day = RandomWindow(18, /*rows=*/200);
  std::vector<pipeline::AggRow> all = window;
  all.insert(all.end(), newest_day.begin(), newest_day.end());
  for (const auto fs : {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
    core::TupleCountTable counts(fs);
    core::TupleCountTable overlay(fs);
    for (const auto& row : window) counts.Add(row);
    for (const auto& row : newest_day) overlay.Add(row);
    for (const std::size_t max_links : {2u, 16u}) {
      SCOPED_TRACE(testing::Message() << core::ToString(fs) << " max_links "
                                      << max_links);
      const auto model =
          HistoricalModel::FromCounts(max_links, counts, &overlay);
      ExpectMatchesFold(model, Fold(fs, all, max_links), 17);
      const auto without =
          HistoricalModel::FromCounts(max_links, counts, nullptr);
      ExpectMatchesFold(without, Fold(fs, window, max_links), 17);
    }
  }
}

TEST(ServingCore, FlatTableExposesBuildDiagnostics) {
  const auto window = RandomWindow(11);
  const auto model = TrainModel(FeatureSet::kAP, window);
  const core::FlatTupleTable& table = model.flat_table();
  EXPECT_EQ(table.size(), model.tuple_count());
  EXPECT_GT(table.bucket_count(), table.size());  // load factor < 1
  EXPECT_GT(table.link_count(), 0u);
  EXPECT_GT(table.MemoryFootprintBytes(), 0u);
  EXPECT_GE(table.max_probe_length(), 1u);
}

// ------------------------------------------------------ service fixtures

struct ServiceFixture {
  ServiceFixture()
      : topology(topo::GenerateTinyTopology()),
        wan(topology.peering_links,
            topology.graph.node(topology.wan).presence, 8, 1) {}

  [[nodiscard]] std::vector<pipeline::AggRow> HourRows(
      util::HourIndex hour) const {
    std::vector<pipeline::AggRow> rows;
    const auto links = static_cast<std::uint32_t>(wan.link_count());
    for (std::uint32_t f = 0; f < 6; ++f) {
      auto flow = MakeFlow(100 + f, f + 1, f % 2);
      rows.push_back(MakeRow(
          flow, (f + static_cast<std::uint32_t>(hour)) % links,
          500 + 13 * f + 7 * static_cast<std::uint64_t>(hour)));
      rows.back().hour = hour;
    }
    return rows;
  }

  [[nodiscard]] std::shared_ptr<core::TipsyService> TrainService(
      int days = 3) const {
    auto service = std::make_shared<core::TipsyService>(&wan, &topology.metros);
    for (util::HourIndex hour = 0; hour < days * util::kHoursPerDay;
         ++hour) {
      service->Train(HourRows(hour));
    }
    service->FinalizeTraining();
    return service;
  }

  [[nodiscard]] std::vector<core::TipsyService::ShiftQueryFlow> QueryFlows()
      const {
    std::vector<core::TipsyService::ShiftQueryFlow> flows;
    for (util::HourIndex hour = 0; hour < 5; ++hour) {
      for (const auto& row : HourRows(hour)) {
        flows.push_back(core::TipsyService::ShiftQueryFlow{
            FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                         row.dest_region, row.dest_service},
            static_cast<double>(row.bytes)});
      }
    }
    // A couple of flows the model has never seen (unpredicted path).
    flows.push_back(
        core::TipsyService::ShiftQueryFlow{MakeFlow(999, 99, 0), 1234.0});
    flows.push_back(
        core::TipsyService::ShiftQueryFlow{MakeFlow(998, 98, 1), 777.0});
    return flows;
  }

  topo::GeneratedTopology topology;
  wan::Wan wan;
};

// ----------------------------------------------------- batched PredictShift

TEST(ServingCore, BatchedPredictShiftMatchesPerFlowLoop) {
  ServiceFixture fixture;
  const auto flows = fixture.QueryFlows();
  const auto service = fixture.TrainService();
  core::ExclusionMask excluded(fixture.wan.link_count(), false);
  if (!excluded.empty()) excluded[0] = true;
  for (const std::size_t k : {1u, 3u, 8u}) {
    const auto batched = service->PredictShift(flows, excluded, k);
    // The naive loop: one single-flow batch per flow, accumulated per
    // link in flow order - exactly the contract the batched path
    // promises to reproduce bit for bit.
    std::map<util::LinkId, double> expected;
    double expected_unpredicted = 0.0;
    for (const auto& flow : flows) {
      const auto one = service->PredictShift(std::span(&flow, 1), excluded, k);
      for (const auto& [link, bytes] : one.shifted) {
        expected[link] += bytes;
      }
      expected_unpredicted += one.unpredicted_bytes;
    }
    EXPECT_EQ(batched.unpredicted_bytes, expected_unpredicted);
    ASSERT_EQ(batched.shifted.size(), expected.size());
    auto it = expected.begin();
    for (const auto& [link, bytes] : batched.shifted) {
      EXPECT_EQ(link, it->first);    // sorted by link id
      EXPECT_EQ(bytes, it->second);  // bit-exact accumulation
      EXPECT_EQ(batched.BytesFor(link), bytes);
      ++it;
    }
    EXPECT_EQ(batched.BytesFor(util::LinkId{0}), 0.0);  // excluded link
  }
}

TEST(ServingCore, PredictShiftMatchesReferenceFoldSpread) {
  // Best() is Hist_AL+G. Every seen flow's AL tuple has at least k
  // non-excluded links (asserted below), so the geographic fallback never
  // fires and the shift is exactly the fold's top-k byte spread: each
  // flow's bytes split in proportion to its renormalized predictions,
  // summed per link in flow order.
  ServiceFixture fixture;
  const auto service = fixture.TrainService();
  ReferenceFold fold(FeatureSet::kAL, 16);
  for (util::HourIndex hour = 0; hour < 3 * util::kHoursPerDay; ++hour) {
    fold.AddAll(fixture.HourRows(hour));
  }
  const auto flows = fixture.QueryFlows();
  core::ExclusionMask excluded(fixture.wan.link_count(), false);
  excluded[1] = excluded[3] = true;
  for (const std::size_t k : {1u, 3u, 5u}) {
    std::map<util::LinkId, double> expected;
    double expected_unpredicted = 0.0;
    for (const auto& flow : flows) {
      const auto predictions = fold.Predict(flow.flow, k, &excluded);
      if (predictions.empty()) {
        EXPECT_FALSE(fold.Knows(flow.flow));
        expected_unpredicted += flow.bytes;
        continue;
      }
      ASSERT_EQ(predictions.size(), k) << "geo fallback would fire";
      double total = 0.0;
      for (const auto& p : predictions) total += p.probability;
      for (const auto& p : predictions) {
        expected[p.link] += flow.bytes * (p.probability / total);
      }
    }
    const auto shift = service->PredictShift(flows, excluded, k);
    EXPECT_EQ(shift.unpredicted_bytes, expected_unpredicted);
    EXPECT_GT(expected_unpredicted, 0.0);  // the unseen flows
    ASSERT_EQ(shift.shifted.size(), expected.size());
    auto it = expected.begin();
    for (const auto& [link, bytes] : shift.shifted) {
      EXPECT_EQ(link, it->first);
      EXPECT_EQ(bytes, it->second);  // bit-exact
      ++it;
    }
  }
}

TEST(ServingCore, PredictShiftNoMetricsMatchesInstrumented) {
  ServiceFixture fixture;
  const auto service = fixture.TrainService();
  const auto flows = fixture.QueryFlows();
  const core::ExclusionMask excluded(fixture.wan.link_count(), false);
  const auto instrumented = service->PredictShift(flows, excluded, 3);
  const auto bare = service->PredictShiftNoMetrics(flows, excluded, 3);
  EXPECT_EQ(instrumented.unpredicted_bytes, bare.unpredicted_bytes);
  ASSERT_EQ(instrumented.shifted.size(), bare.shifted.size());
  for (std::size_t i = 0; i < instrumented.shifted.size(); ++i) {
    EXPECT_EQ(instrumented.shifted[i], bare.shifted[i]);
  }
}

// -------------------------------------------------- snapshot warm-start

TEST(ServingCore, SnapshotWarmStartRebuildsFlatTables) {
  ServiceFixture fixture;
  core::DailyRetrainer original(&fixture.wan, &fixture.topology.metros,
                                /*window_days=*/3);
  for (util::HourIndex hour = 0; hour < 4 * util::kHoursPerDay; ++hour) {
    original.Ingest(hour, fixture.HourRows(hour));
  }
  ASSERT_NE(original.current(), nullptr);

  core::DailyRetrainer restored(&fixture.wan, &fixture.topology.metros,
                                /*window_days=*/3);
  ASSERT_TRUE(restored.RestoreState(original.ExportState()).ok());
  ASSERT_NE(restored.current(), nullptr);

  // The model bundle round-trips through core::SaveService/LoadService;
  // the restored service must come back up with the flat tables rebuilt,
  // serving bit-identically to the fold of the window's rows (the model
  // retrained when day 3 began, over days 0-2).
  for (const auto fs :
       {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
    ReferenceFold fold(fs, 16);
    for (util::HourIndex hour = 0; hour < 3 * util::kHoursPerDay; ++hour) {
      fold.AddAll(fixture.HourRows(hour));
    }
    const auto& a = original.current()->hist(fs);
    const auto& b = restored.current()->hist(fs);
    EXPECT_EQ(b.flat_table().size(), a.tuple_count());
    ExpectExportMatchesFold(a, fold);
    ExpectExportMatchesFold(b, fold);
  }
  const auto flows = fixture.QueryFlows();
  const core::ExclusionMask excluded(fixture.wan.link_count(), false);
  const auto before = original.current()->PredictShift(flows, excluded, 3);
  const auto after = restored.current()->PredictShift(flows, excluded, 3);
  EXPECT_EQ(before.unpredicted_bytes, after.unpredicted_bytes);
  ASSERT_EQ(before.shifted.size(), after.shifted.size());
  for (std::size_t i = 0; i < before.shifted.size(); ++i) {
    EXPECT_EQ(before.shifted[i], after.shifted[i]);
  }
}

// ------------------------------------------------------------ epoch swap

TEST(ServingCore, RetrainerPublishesToAttachedEpoch) {
  ServiceFixture fixture;
  core::ModelEpoch epoch;
  core::DailyRetrainer retrainer(&fixture.wan, &fixture.topology.metros,
                                 /*window_days=*/3);
  retrainer.PublishTo(&epoch);
  EXPECT_EQ(epoch.epoch(), 1u);          // attach publishes immediately
  EXPECT_EQ(epoch.Acquire(), nullptr);   // nothing trained yet
  for (util::HourIndex hour = 0; hour < 3 * util::kHoursPerDay; ++hour) {
    retrainer.Ingest(hour, fixture.HourRows(hour));
  }
  EXPECT_GT(epoch.epoch(), 1u);
  EXPECT_EQ(epoch.Acquire().get(), retrainer.current());
}

// The TSan target: readers keep predicting on acquired snapshots while a
// publisher swaps epochs underneath them. The old epoch must stay alive
// until its last reader drops the snapshot, and no access may race.
// (GCC 12's std::atomic<std::shared_ptr> itself predates libstdc++'s
// TSan mutex annotations, so tools/run_sanitized_fuzz.sh loads
// tools/tsan.supp to silence that one library-internal report.)
TEST(ServingCoreTsan, EpochSwapUnderConcurrentReaders) {
  ServiceFixture fixture;
  const auto model_a = fixture.TrainService(2);
  const auto model_b = fixture.TrainService(3);
  const auto flows = fixture.QueryFlows();
  const core::ExclusionMask excluded(fixture.wan.link_count(), false);

  core::ModelEpoch epoch;
  epoch.Publish(model_a);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = epoch.Acquire();
        ASSERT_NE(snapshot, nullptr);
        const auto result = snapshot->PredictShift(flows, excluded, 3);
        ASSERT_FALSE(result.shifted.empty());
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread publisher([&] {
    for (int i = 0; i < 400; ++i) {
      epoch.Publish(i % 2 == 0 ? model_b : model_a);
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
  });
  publisher.join();
  for (auto& reader : readers) reader.join();

  EXPECT_GE(epoch.epoch(), 401u);
  EXPECT_GT(batches.load(), 0u);
  // Both models survive the churn and still serve.
  EXPECT_FALSE(
      epoch.Acquire()->PredictShift(flows, excluded, 3).shifted.empty());
}

}  // namespace
}  // namespace tipsy
