// Persistence: model serialization round-trips and the data-lake row file
// format.
#include <gtest/gtest.h>

#include <sstream>

#include "core/serialize.h"
#include "pipeline/storage.h"
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
                         std::uint64_t bytes) {
  pipeline::AggRow row;
  row.link = util::LinkId{link};
  row.src_asn = flow.src_asn;
  row.src_prefix24 = flow.src_prefix24;
  row.src_metro = flow.src_metro;
  row.dest_region = flow.dest_region;
  row.dest_service = flow.dest_service;
  row.dest_prefix = util::PrefixId{1};
  row.bytes = bytes;
  return row;
}

// ------------------------------------------------------- model save/load

TEST(ModelSerialization, RoundTripPreservesPredictions) {
  core::HistoricalModel model(core::FeatureSet::kAP, 8);
  for (std::uint32_t f = 0; f < 50; ++f) {
    for (std::uint32_t l = 0; l < 1 + f % 4; ++l) {
      model.Add(MakeRow(MakeFlow(f % 7, f, 3), l, (f + 1) * 100 + l));
    }
  }
  model.Finalize();

  std::stringstream buffer;
  core::SaveModel(model, buffer);
  const auto restored = core::LoadModel(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->feature_set(), core::FeatureSet::kAP);
  EXPECT_EQ(restored->tuple_count(), model.tuple_count());
  EXPECT_EQ(restored->max_links_per_tuple(), 8u);
  for (std::uint32_t f = 0; f < 50; ++f) {
    const auto flow = MakeFlow(f % 7, f, 3);
    const auto original = core::PredictTopK(model, flow, 3, nullptr);
    const auto loaded = core::PredictTopK(*restored, flow, 3, nullptr);
    ASSERT_EQ(original.size(), loaded.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].link, loaded[i].link);
      EXPECT_DOUBLE_EQ(original[i].probability, loaded[i].probability);
    }
  }
}

TEST(ModelSerialization, RejectsGarbageAndTruncation) {
  std::stringstream garbage("not a model at all");
  const auto garbage_result = core::LoadModel(garbage);
  EXPECT_FALSE(garbage_result.ok());
  EXPECT_EQ(garbage_result.status().code(), util::StatusCode::kCorrupt);

  core::HistoricalModel model(core::FeatureSet::kA);
  model.Add(MakeRow(MakeFlow(1, 2, 3), 0, 100));
  model.Finalize();
  std::stringstream buffer;
  core::SaveModel(model, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() - 4));
  const auto truncated_result = core::LoadModel(truncated);
  EXPECT_FALSE(truncated_result.ok());
  EXPECT_EQ(truncated_result.status().code(), util::StatusCode::kTruncated);
}

TEST(ModelSerialization, EmptyModelRoundTrips) {
  core::HistoricalModel model(core::FeatureSet::kAL);
  model.Finalize();
  std::stringstream buffer;
  core::SaveModel(model, buffer);
  const auto restored = core::LoadModel(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->tuple_count(), 0u);
  EXPECT_TRUE(
      core::PredictTopK(*restored, MakeFlow(1, 2, 3), 3, nullptr).empty());
}

TEST(ServiceSerialization, BundleRoundTripsThroughDisk) {
  const auto topology = topo::GenerateTinyTopology();
  const wan::Wan wan(topology.peering_links,
                     topology.graph.node(topology.wan).presence, 8, 1);
  core::TipsyService service(&wan, &topology.metros);
  std::vector<pipeline::AggRow> rows;
  for (std::uint32_t f = 0; f < 30; ++f) {
    rows.push_back(MakeRow(MakeFlow(f % 5, f, f % 4),
                           f % static_cast<std::uint32_t>(wan.link_count()),
                           1000 + f));
  }
  service.Train(rows);
  service.FinalizeTraining();

  std::stringstream buffer;
  core::SaveService(service, buffer);
  const auto restored =
      core::LoadService(buffer, &wan, &topology.metros);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE((*restored)->trained());
  // The full registry (minus NB) is reconstructed.
  for (const char* name : {"Hist_A", "Hist_AP", "Hist_AL", "Hist_AL+G",
                           "Hist_AP/AL/A", "Hist_AL/AP/A"}) {
    EXPECT_NE((*restored)->Find(name), nullptr) << name;
  }
  // Identical predictions, including through the ensembles.
  for (std::uint32_t f = 0; f < 30; ++f) {
    const auto flow = MakeFlow(f % 5, f, f % 4);
    for (const char* name : {"Hist_AP", "Hist_AL+G", "Hist_AP/AL/A"}) {
      const auto original =
          core::PredictTopK(*service.Find(name), flow, 3, nullptr);
      const auto loaded =
          core::PredictTopK(*(*restored)->Find(name), flow, 3, nullptr);
      ASSERT_EQ(original.size(), loaded.size()) << name;
      for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(original[i].link, loaded[i].link);
        EXPECT_DOUBLE_EQ(original[i].probability, loaded[i].probability);
      }
    }
  }
}

// ------------------------------------------------------------- varints

TEST(Varint, RoundTripsBoundaryValues) {
  for (std::uint64_t value :
       {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
        (1ULL << 32) - 1, 1ULL << 32, ~0ULL}) {
    std::stringstream buffer;
    pipeline::PutVarint(buffer, value);
    const auto back = pipeline::GetVarint(buffer);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, value);
  }
}

TEST(Varint, SmallValuesAreOneByte) {
  std::stringstream buffer;
  pipeline::PutVarint(buffer, 42);
  EXPECT_EQ(buffer.str().size(), 1u);
}

TEST(Varint, TruncatedInputFails) {
  std::stringstream buffer;
  pipeline::PutVarint(buffer, 1ULL << 40);
  std::stringstream truncated(buffer.str().substr(0, 2));
  EXPECT_FALSE(pipeline::GetVarint(truncated).has_value());
}

// -------------------------------------------------------------- row file

TEST(RowFile, RoundTripsHourBlocks) {
  std::vector<pipeline::AggRow> hour_a;
  std::vector<pipeline::AggRow> hour_b;
  for (std::uint32_t f = 0; f < 40; ++f) {
    hour_a.push_back(MakeRow(MakeFlow(f % 6, f, f % 5), f % 9, 500 + f));
    hour_b.push_back(MakeRow(MakeFlow(f % 6, f, f % 5), f % 7, 900 + f));
  }
  hour_a[3].src_metro = util::MetroId{};  // geoip miss survives the trip

  std::stringstream buffer;
  pipeline::RowFileWriter writer(buffer);
  writer.WriteHour(5, hour_a);
  writer.WriteHour(6, hour_b);
  EXPECT_EQ(writer.rows_written(), 80u);

  pipeline::RowFileReader reader(buffer);
  ASSERT_TRUE(reader.ok());
  const auto block_a = reader.ReadHour();
  ASSERT_TRUE(block_a.has_value());
  EXPECT_EQ(block_a->hour, 5);
  ASSERT_EQ(block_a->rows.size(), hour_a.size());
  // Compare as multisets of key fields + bytes.
  auto key = [](const pipeline::AggRow& row) {
    return std::tuple(row.link.value(), row.src_asn.value(),
                      row.src_prefix24, row.src_metro.value(),
                      row.dest_region.value(),
                      static_cast<int>(row.dest_service),
                      row.dest_prefix.value(), row.bytes);
  };
  std::vector<decltype(key(hour_a[0]))> expected, actual;
  for (const auto& row : hour_a) expected.push_back(key(row));
  for (const auto& row : block_a->rows) actual.push_back(key(row));
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(expected, actual);

  const auto block_b = reader.ReadHour();
  ASSERT_TRUE(block_b.has_value());
  EXPECT_EQ(block_b->hour, 6);
  EXPECT_EQ(block_b->rows.size(), hour_b.size());
  EXPECT_FALSE(reader.ReadHour().has_value());  // clean EOF
  EXPECT_TRUE(reader.ok());
}

TEST(RowFile, RejectsBadMagic) {
  std::stringstream buffer("bogus header bytes");
  pipeline::RowFileReader reader(buffer);
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.ReadHour().has_value());
}

TEST(RowFile, DetectsTruncation) {
  std::stringstream buffer;
  pipeline::RowFileWriter writer(buffer);
  writer.WriteHour(0, std::vector<pipeline::AggRow>{
                          MakeRow(MakeFlow(1, 2, 3), 0, 100)});
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() - 3));
  pipeline::RowFileReader reader(truncated);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.ReadHour().has_value());
  EXPECT_FALSE(reader.ok());
}

TEST(RowFile, CompacterThanRawStructs) {
  // The varint format should beat sizeof(AggRow) comfortably on
  // realistic data.
  std::vector<pipeline::AggRow> rows;
  for (std::uint32_t f = 0; f < 1000; ++f) {
    rows.push_back(MakeRow(MakeFlow(f % 50, f, f % 30), f % 200,
                           1'000'000 + f * 4096));
  }
  std::stringstream buffer;
  pipeline::RowFileWriter writer(buffer);
  writer.WriteHour(0, rows);
  EXPECT_LT(buffer.str().size(), rows.size() * sizeof(pipeline::AggRow) / 2);
}

TEST(RowFile, TrainServiceFromFileMatchesLive) {
  // Offline training: write a scenario's rows to a "lake file", read it
  // back, train, and get byte-identical predictions.
  auto cfg = scenario::TinyScenarioConfig();
  cfg.traffic.flow_target = 500;
  scenario::Scenario world(cfg);
  std::stringstream lake;
  pipeline::RowFileWriter writer(lake);
  core::TipsyService live(&world.wan(), &world.metros());
  world.SimulateHours(
      {0, 48}, [&](util::HourIndex hour,
                   std::span<const pipeline::AggRow> rows) {
        writer.WriteHour(hour, rows);
        live.Train(rows);
      });
  live.FinalizeTraining();

  core::TipsyService offline(&world.wan(), &world.metros());
  pipeline::RowFileReader reader(lake);
  ASSERT_TRUE(reader.ok());
  while (auto block = reader.ReadHour()) {
    offline.Train(block->rows);
  }
  ASSERT_TRUE(reader.ok());
  offline.FinalizeTraining();

  for (std::size_t f = 0; f < 40; ++f) {
    const auto flow = world.FlowFeaturesOf(f);
    const auto a = core::PredictTopK(*live.Find("Hist_AP"), flow, 3, nullptr);
    const auto b =
        core::PredictTopK(*offline.Find("Hist_AP"), flow, 3, nullptr);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].link, b[i].link);
      EXPECT_DOUBLE_EQ(a[i].probability, b[i].probability);
    }
  }
}

}  // namespace
}  // namespace tipsy
