// Fault-tolerant operational layer: typed errors, checksummed formats,
// atomic saves, degraded-mode serving, and the fault-injection harness.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <tuple>

#include "cms/cms.h"
#include "core/online.h"
#include "core/serialize.h"
#include "ha/journal.h"
#include "pipeline/storage.h"
#include "scenario/fault_injection.h"
#include "scenario/scenario.h"
#include "topo/generator.h"
#include "util/atomic_file.h"
#include "util/checksum.h"
#include "util/status.h"

namespace tipsy {
namespace {

// ---------------------------------------------------------------- status

TEST(Status, CarriesCodeAndMessage) {
  const auto ok = util::Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), util::StatusCode::kOk);

  const auto corrupt = util::Status::Corrupt("bad bytes");
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.code(), util::StatusCode::kCorrupt);
  EXPECT_NE(corrupt.ToString().find("CORRUPT"), std::string::npos);
  EXPECT_NE(corrupt.ToString().find("bad bytes"), std::string::npos);
  EXPECT_EQ(corrupt, util::Status::Corrupt("bad bytes"));
  EXPECT_NE(corrupt, util::Status::Truncated("bad bytes"));
}

TEST(Status, StatusOrHoldsValueOrStatus) {
  util::StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);

  util::StatusOr<int> error = util::Status::NoData("empty window");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), util::StatusCode::kNoData);

  util::StatusOr<std::string> moved = std::string("payload");
  EXPECT_EQ(moved->size(), 7u);
}

// -------------------------------------------------------------- checksum

TEST(Checksum, MatchesCrc32cReferenceVector) {
  // The canonical CRC-32C check value (RFC 3720 appendix et al.).
  EXPECT_EQ(util::Crc32c::Of("123456789"), 0xE3069283u);
  EXPECT_EQ(util::Crc32c::Of(""), 0u);
}

TEST(Checksum, IncrementalUpdatesMatchOneShot) {
  util::Crc32c crc;
  crc.Update("123");
  crc.Update("456");
  crc.Update("789");
  EXPECT_EQ(crc.Digest(), util::Crc32c::Of("123456789"));
  crc.Reset();
  EXPECT_EQ(crc.Digest(), util::Crc32c::Of(""));
  EXPECT_NE(util::Crc32c::Of("123456789"), util::Crc32c::Of("123456788"));
}

// ------------------------------------------------------------ atomic file

TEST(AtomicFile, RoundTripsAndReplacesAtomically) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "tipsy_atomic_file_test.bin")
                        .string();
  const std::string first(1024, 'a');
  ASSERT_TRUE(util::WriteFileAtomic(path, first).ok());
  auto back = util::ReadFileToString(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, first);

  // Overwrite: the old contents are fully replaced, never blended.
  const std::string second = "short";
  ASSERT_TRUE(util::WriteFileAtomic(path, second).ok());
  back = util::ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, second);

  // No temp sibling survives a successful save.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFile, DirectoryFsyncFailureIsReported) {
  // WriteFileAtomic's durability recipe has three fsync points: the temp
  // file's data, the rename, and the *parent directory* entry. The last
  // one is the subtle one - without it the bytes are durable but the
  // name is not, and a power loss can resurrect the previous file (for
  // an HA snapshot: warm-starting from a checkpoint the journal already
  // moved past). The directory fsync's status must therefore reach the
  // caller like any other IO error. We can't make fsync fail portably in
  // a unit test, so this asserts the observable contract on both sides:
  // a writable directory succeeds end-to-end, and a target whose parent
  // directory cannot even be opened reports kIoError instead of
  // pretending the save was durable.
  const auto dir = std::filesystem::temp_directory_path() /
                   "tipsy_dirsync_test";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "artifact.bin").string();
  EXPECT_TRUE(util::WriteFileAtomic(path, "payload").ok());

  const auto denied = util::WriteFileAtomic(
      "/proc/nonexistent_tipsy_dir/artifact.bin", "payload");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), util::StatusCode::kIoError);
  std::filesystem::remove_all(dir);
}

TEST(AtomicFile, MissingFileIsATypedError) {
  const auto missing = util::ReadFileToString("/nonexistent/tipsy.bin");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kIoError);
  EXPECT_FALSE(
      util::WriteFileAtomic("/nonexistent/dir/tipsy.bin", "x").ok());
}

// ------------------------------------------------- format fixtures

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

auto RowKey(const pipeline::AggRow& row) {
  return std::tuple(row.link.value(), row.src_asn.value(), row.src_prefix24,
                    row.src_metro.value(), row.dest_region.value(),
                    static_cast<int>(row.dest_service),
                    row.dest_prefix.value(), row.bytes);
}

// A trained bundle small enough that the exhaustive byte-flip sweep stays
// fast, but exercising every section of the format.
struct BundleFixture {
  BundleFixture()
      : topology(topo::GenerateTinyTopology()),
        wan(topology.peering_links,
            topology.graph.node(topology.wan).presence, 8, 1),
        service(&wan, &topology.metros) {
    std::vector<pipeline::AggRow> rows;
    for (std::uint32_t f = 0; f < 12; ++f) {
      rows.push_back(MakeRow(MakeFlow(f % 3, f, f % 2),
                             f % static_cast<std::uint32_t>(wan.link_count()),
                             1000 + f));
    }
    service.Train(rows);
    service.FinalizeTraining();
  }

  topo::GeneratedTopology topology;
  wan::Wan wan;
  core::TipsyService service;
};

// ---------------------------------------------------- format back-compat

TEST(FormatCompat, UnknownFutureVersionIsVersionMismatch) {
  BundleFixture fixture;
  std::stringstream current;
  core::SaveService(fixture.service, current);
  std::string bytes = current.str();
  bytes[7] = '9';  // TIPSYSV9
  std::istringstream future(bytes);
  const auto result =
      core::LoadService(future, &fixture.wan, &fixture.topology.metros);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kVersionMismatch);

  // v1 artifacts (unchecksummed, no longer read) are other versions too:
  // a v1-magic bundle, and a v1-magic model frame alone or inside a
  // current bundle.
  std::stringstream model_bytes;
  core::SaveModel(fixture.service.hist(core::FeatureSet::kA), model_bytes);
  std::string v1_model = model_bytes.str();
  v1_model[7] = '1';  // TIPSYHM1
  std::string v1_bundle = current.str();
  v1_bundle[7] = '1';  // TIPSYSV1
  std::string bundle_with_v1_member = current.str();
  bundle_with_v1_member[8 + 7] = '1';  // first member: TIPSYHM1
  std::istringstream v1_model_in(v1_model);
  const auto v1_model_result = core::LoadModel(v1_model_in);
  ASSERT_FALSE(v1_model_result.ok());
  EXPECT_EQ(v1_model_result.status().code(),
            util::StatusCode::kVersionMismatch);
  for (const std::string* bundle : {&v1_bundle, &bundle_with_v1_member}) {
    std::istringstream in(*bundle);
    const auto loaded =
        core::LoadService(in, &fixture.wan, &fixture.topology.metros);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kVersionMismatch);
  }

  // A journal compaction manifest's magic is byte-for-byte the v1 model
  // magic ("TIPSYHM1"): a real manifest file handed to the model loader
  // must be refused as another version, never parsed as a model; handed
  // to the bundle loader it is simply not a bundle.
  const auto dir = std::filesystem::temp_directory_path() /
                   "tipsy_format_compat_manifest";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal_path = (dir / "hours.journal").string();
  {
    auto journal = ha::Journal::Open(journal_path, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (util::HourIndex h = 0; h < 3; ++h) {
      const auto appended =
          journal->Append(ha::JournalRecordKind::kHeartbeat, h, {});
      ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    }
    ASSERT_TRUE(journal->Compact(2).ok());
  }
  const auto manifest =
      util::ReadFileToString(ha::JournalManifestPath(journal_path));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  std::istringstream manifest_as_model(*manifest);
  const auto model_from_manifest = core::LoadModel(manifest_as_model);
  ASSERT_FALSE(model_from_manifest.ok());
  EXPECT_EQ(model_from_manifest.status().code(),
            util::StatusCode::kVersionMismatch);
  std::istringstream manifest_as_bundle(*manifest);
  const auto bundle_from_manifest = core::LoadService(
      manifest_as_bundle, &fixture.wan, &fixture.topology.metros);
  ASSERT_FALSE(bundle_from_manifest.ok());
  EXPECT_EQ(bundle_from_manifest.status().code(), util::StatusCode::kCorrupt);
  std::filesystem::remove_all(dir);
}

TEST(FormatCompat, BundleSavesAtomicallyToDisk) {
  BundleFixture fixture;
  const auto path = (std::filesystem::temp_directory_path() /
                     "tipsy_bundle_test.tipsy")
                        .string();
  // Pre-existing garbage at the target is replaced wholesale.
  ASSERT_TRUE(util::WriteFileAtomic(path, "stale garbage").ok());
  ASSERT_TRUE(core::SaveServiceToFile(fixture.service, path).ok());
  const auto restored = core::LoadServiceFromFile(
      path, &fixture.wan, &fixture.topology.metros);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE((*restored)->trained());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

// -------------------------------------------------------- byte-flip fuzz

TEST(ByteFlipFuzz, EveryBundleMutationLoadsIdenticallyOrFailsCleanly) {
  BundleFixture fixture;
  std::stringstream buffer;
  core::SaveService(fixture.service, buffer);
  const std::string original = buffer.str();
  ASSERT_GT(original.size(), 32u);

  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::istringstream in(scenario::FlipBit(original, byte, bit));
      const auto loaded =
          core::LoadService(in, &fixture.wan, &fixture.topology.metros);
      if (!loaded.ok()) {
        // Clean typed failure; never a crash, hang, or huge allocation.
        const auto code = loaded.status().code();
        EXPECT_TRUE(code == util::StatusCode::kCorrupt ||
                    code == util::StatusCode::kTruncated ||
                    code == util::StatusCode::kVersionMismatch)
            << "byte " << byte << " bit " << bit << ": "
            << loaded.status().ToString();
        ++rejected;
        continue;
      }
      // If a mutation was accepted it must be semantically lossless:
      // re-serializing yields the original bytes.
      std::stringstream out;
      core::SaveService(**loaded, out);
      EXPECT_EQ(out.str(), original)
          << "silently accepted corruption at byte " << byte << " bit "
          << bit;
    }
  }
  // v2 checksums make every single-bit flip detectable.
  EXPECT_EQ(rejected, original.size() * 8);
}

TEST(ByteFlipFuzz, EveryRowFileMutationRecoversAPrefixOrFailsCleanly) {
  std::vector<std::vector<pipeline::AggRow>> hours;
  for (std::uint32_t h = 0; h < 3; ++h) {
    std::vector<pipeline::AggRow> rows;
    for (std::uint32_t f = 0; f < 8; ++f) {
      rows.push_back(MakeRow(MakeFlow(f % 4, f, f % 3), f % 5,
                             1000 * (h + 1) + f));
    }
    hours.push_back(std::move(rows));
  }
  std::stringstream buffer;
  pipeline::RowFileWriter writer(buffer);
  for (std::uint32_t h = 0; h < hours.size(); ++h) {
    writer.WriteHour(h, hours[h]);
  }
  const std::string original = buffer.str();
  const auto clean = scenario::ReadRowFileBytes(original);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  ASSERT_EQ(clean.blocks.size(), hours.size());

  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      const auto recovered = scenario::ReadRowFileBytes(
          scenario::FlipBit(original, byte, bit));
      if (!recovered.status.ok()) ++rejected;
      // Whatever was recovered before the damage must be bit-honest: each
      // block identical to the clean read of the same archive prefix.
      ASSERT_LE(recovered.blocks.size(), clean.blocks.size());
      for (std::size_t b = 0; b < recovered.blocks.size(); ++b) {
        EXPECT_EQ(recovered.blocks[b].hour, clean.blocks[b].hour)
            << "byte " << byte << " bit " << bit;
        ASSERT_EQ(recovered.blocks[b].rows.size(),
                  clean.blocks[b].rows.size());
        for (std::size_t r = 0; r < recovered.blocks[b].rows.size(); ++r) {
          EXPECT_EQ(RowKey(recovered.blocks[b].rows[r]),
                    RowKey(clean.blocks[b].rows[r]));
        }
      }
    }
  }
  // Every flip damages exactly one block (header, checksum, or payload),
  // so every mutation must be detected.
  EXPECT_EQ(rejected, original.size() * 8);
}

// ------------------------------------------------------- hostile lengths

TEST(HostileLengths, HugeV1RowCountFailsWithoutAllocating) {
  std::stringstream bytes;
  bytes.write("TIPSYRF1", 8);
  pipeline::PutVarint(bytes, 10);          // zigzag(5)
  pipeline::PutVarint(bytes, 1ULL << 40);  // a trillion rows, no data
  pipeline::RowFileReader reader(bytes);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.ReadHour().has_value());
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kTruncated);
}

TEST(HostileLengths, V2CountExceedingPayloadIsCorrupt) {
  std::stringstream bytes;
  bytes.write("TIPSYRF2", 8);
  pipeline::PutVarint(bytes, 10);          // zigzag(5)
  pipeline::PutVarint(bytes, 1ULL << 40);  // declared rows
  pipeline::PutVarint(bytes, 64);          // ...in a 64-byte payload
  pipeline::RowFileReader reader(bytes);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.ReadHour().has_value());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kCorrupt);
}

TEST(HostileLengths, ImplausiblePayloadSizesAreCorrupt) {
  // Row file: a 1 TiB hour payload.
  std::stringstream rf;
  rf.write("TIPSYRF2", 8);
  pipeline::PutVarint(rf, 0);
  pipeline::PutVarint(rf, 1);
  pipeline::PutVarint(rf, 1ULL << 40);
  pipeline::RowFileReader reader(rf);
  EXPECT_FALSE(reader.ReadHour().has_value());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kCorrupt);

  // Model frame: a 1 TiB declared payload must be rejected before any
  // attempt to read or allocate it.
  std::stringstream hm;
  hm.write("TIPSYHM2", 8);
  const std::uint64_t huge = 1ULL << 40;
  hm.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  const std::uint32_t crc = 0;
  hm.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  const auto model = core::LoadModel(hm);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), util::StatusCode::kCorrupt);
}

// ---------------------------------------------------- row file v1 compat

TEST(FormatCompat, RowFileV1StillReads) {
  std::vector<pipeline::AggRow> rows;
  for (std::uint32_t f = 0; f < 10; ++f) {
    rows.push_back(MakeRow(MakeFlow(f, f, 0), f % 3, 100 + f));
  }
  std::stringstream buffer;
  pipeline::RowFileWriter writer(buffer, /*format_version=*/1);
  writer.WriteHour(7, rows);
  pipeline::RowFileReader reader(buffer);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.format_version(), 1);
  const auto block = reader.ReadHour();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->hour, 7);
  EXPECT_EQ(block->rows.size(), rows.size());
  EXPECT_FALSE(reader.ReadHour().has_value());
  EXPECT_TRUE(reader.ok());  // clean EOF, not an error
}

// ------------------------------------------------- degraded-mode serving

struct RetrainerFixture {
  RetrainerFixture()
      : topology(topo::GenerateTinyTopology()),
        wan(topology.peering_links,
            topology.graph.node(topology.wan).presence, 8, 1) {}

  std::vector<pipeline::AggRow> HourRows(util::HourIndex hour) {
    std::vector<pipeline::AggRow> rows;
    for (std::uint32_t f = 0; f < 4; ++f) {
      rows.push_back(MakeRow(MakeFlow(f, f, 0),
                             f % static_cast<std::uint32_t>(wan.link_count()),
                             500 + f));
    }
    for (auto& row : rows) row.hour = hour;
    return rows;
  }

  topo::GeneratedTopology topology;
  wan::Wan wan;
};

TEST(DegradedMode, OutOfOrderHoursAreDroppedAndCounted) {
  RetrainerFixture fixture;
  core::DailyRetrainer retrainer(&fixture.wan, &fixture.topology.metros, 3);
  retrainer.Ingest(30, fixture.HourRows(30));
  retrainer.Ingest(5, fixture.HourRows(5));   // behind the clock: dropped
  retrainer.Ingest(12, fixture.HourRows(12)); // still behind: dropped
  retrainer.Ingest(31, fixture.HourRows(31)); // in order: accepted
  const auto health = retrainer.health_snapshot();
  EXPECT_EQ(health.dropped_hours, 2u);
  EXPECT_EQ(health.last_ingest_hour, 31);
}

TEST(DegradedMode, FailedRetrainKeepsLastGoodAndRetriesBounded) {
  RetrainerFixture fixture;
  core::RetrainPolicy policy;
  policy.max_retrain_retries = 3;
  core::DailyRetrainer retrainer(&fixture.wan, &fixture.topology.metros, 3,
                                 {}, policy);
  // Day 0 trains fine at the day-1 boundary.
  for (util::HourIndex h = 0; h < 24; ++h) {
    retrainer.Ingest(h, fixture.HourRows(h));
  }
  retrainer.Ingest(24, fixture.HourRows(24));
  const auto* good = retrainer.current();
  ASSERT_NE(good, nullptr);

  // Training jobs crash at the day-2 boundary.
  retrainer.SetRetrainFault([](util::HourIndex) { return true; });
  for (util::HourIndex h = 25; h < 54; ++h) {
    retrainer.Ingest(h, fixture.HourRows(h));
  }
  auto health = retrainer.health_snapshot();
  EXPECT_EQ(retrainer.current(), good);  // last-good keeps serving
  EXPECT_GE(health.retrain_failures, 1u);
  // Boundary attempt + bounded retries, not one per ingested hour.
  EXPECT_LE(health.retrain_failures, 4u);
  EXPECT_GE(health.consecutive_failures, 1u);

  // Jobs recover: the next attempt succeeds and failures reset.
  retrainer.SetRetrainFault(nullptr);
  ASSERT_TRUE(retrainer.TryRetrain().ok());
  health = retrainer.health_snapshot();
  EXPECT_NE(retrainer.current(), good);
  EXPECT_EQ(health.consecutive_failures, 0u);
  EXPECT_EQ(health.health, core::ModelHealth::kFresh);
}

TEST(DegradedMode, CollectorOutageAgesHealthThenRecovers) {
  auto cfg = scenario::TinyScenarioConfig();
  cfg.traffic.flow_target = 200;
  cfg.horizon = util::HourRange{0, 9 * util::kHoursPerDay};
  scenario::Scenario world(cfg);

  // Collector dead for days 3-5 inclusive.
  scenario::FaultScheduleConfig faults;
  faults.collector_down = {
      util::HourRange{3 * util::kHoursPerDay, 6 * util::kHoursPerDay}};
  scenario::FaultInjectingRowSource source(world, faults);

  core::RetrainPolicy policy;
  policy.stale_after_days = 1;
  policy.expire_after_days = 2;  // compressed horizon to keep the test fast
  core::DailyRetrainer retrainer(&world.wan(), &world.metros(), 3, {},
                                 policy);

  std::vector<core::ModelHealth> health_by_day;
  std::vector<const core::TipsyService*> serving_by_day;
  std::vector<std::size_t> retrains_by_day;
  for (util::HourIndex day = 0; day < 9; ++day) {
    source.StreamHours(
        util::HourRange{day * util::kHoursPerDay,
                        (day + 1) * util::kHoursPerDay},
        [&](util::HourIndex hour, std::span<const pipeline::AggRow> rows) {
          retrainer.Ingest(hour, rows);
        });
    // The serving loop's heartbeat keeps the clock moving even when the
    // collector delivered nothing all day.
    retrainer.AdvanceTo((day + 1) * util::kHoursPerDay - 1);
    health_by_day.push_back(retrainer.health());
    serving_by_day.push_back(retrainer.current());
    retrains_by_day.push_back(retrainer.retrain_count());
  }

  EXPECT_EQ(source.hours_dropped(), 3u * util::kHoursPerDay);
  // Normal operation before the outage.
  EXPECT_EQ(health_by_day[0], core::ModelHealth::kNone);
  EXPECT_EQ(health_by_day[1], core::ModelHealth::kFresh);
  EXPECT_EQ(health_by_day[2], core::ModelHealth::kFresh);
  // Day 3's boundary still trains on day 2's data; then the model ages
  // through the blackout: FRESH -> STALE -> EXPIRED.
  EXPECT_EQ(health_by_day[3], core::ModelHealth::kFresh);
  EXPECT_EQ(health_by_day[4], core::ModelHealth::kStale);
  EXPECT_EQ(health_by_day[5], core::ModelHealth::kExpired);
  // The last-good model never stopped serving during the blackout.
  ASSERT_NE(serving_by_day[3], nullptr);
  EXPECT_EQ(serving_by_day[4], serving_by_day[3]);
  EXPECT_EQ(serving_by_day[5], serving_by_day[3]);
  // Data resumed on day 6; the day-7 boundary retrains back to FRESH.
  // Recovery is evidenced by the retrain counter, not pointer identity:
  // the blackout-era service is freed once replaced, so the allocator may
  // hand its address to a later model.
  EXPECT_EQ(health_by_day.back(), core::ModelHealth::kFresh);
  EXPECT_GT(retrains_by_day.back(), retrains_by_day[5]);

  const auto health = retrainer.health_snapshot();
  EXPECT_GE(health.missing_days, 2u);
  EXPECT_GE(health.retrain_failures, 1u);  // "no new data" boundaries
  EXPECT_EQ(health.consecutive_failures, 0u);
}

// -------------------------------------------------------- fault injector

struct InjectorFixture {
  InjectorFixture()
      : topology(topo::GenerateTinyTopology()),
        wan(topology.peering_links,
            topology.graph.node(topology.wan).presence, 8, 1),
        outages(scenario::OutageSchedule::None(wan.link_count())) {}

  // Deterministic inner source: every hour yields `f` rows tagged with it.
  struct FakeSource : scenario::RowSource {
    explicit FakeSource(InjectorFixture* fixture) : fixture_(fixture) {}
    void StreamHours(util::HourRange range,
                     const RowSink& sink) override {
      for (util::HourIndex h = range.begin; h < range.end; ++h) {
        std::vector<pipeline::AggRow> rows;
        for (std::uint32_t f = 0; f < 6; ++f) {
          rows.push_back(MakeRow(MakeFlow(f, f, 0), f % 3, 100 + f));
          rows.back().hour = h;
        }
        sink(h, rows);
      }
    }
    [[nodiscard]] const wan::Wan& wan() const override {
      return fixture_->wan;
    }
    [[nodiscard]] const geo::MetroCatalogue& metros() const override {
      return fixture_->topology.metros;
    }
    [[nodiscard]] const scenario::OutageSchedule& outages() const override {
      return fixture_->outages;
    }
    [[nodiscard]] std::size_t EstimatedRows(
        util::HourRange range) const override {
      return static_cast<std::size_t>(range.length()) * 6;
    }
    InjectorFixture* fixture_;
  };

  topo::GeneratedTopology topology;
  wan::Wan wan;
  scenario::OutageSchedule outages;
};

TEST(FaultInjection, CollectorDownWindowsDropExactlyThoseHours) {
  InjectorFixture fixture;
  InjectorFixture::FakeSource inner(&fixture);
  scenario::FaultScheduleConfig config;
  config.collector_down = {util::HourRange{10, 14}};
  scenario::FaultInjectingRowSource source(inner, config);

  std::vector<util::HourIndex> seen;
  source.StreamHours(util::HourRange{0, 20},
                     [&](util::HourIndex hour,
                         std::span<const pipeline::AggRow> rows) {
                       seen.push_back(hour);
                       EXPECT_EQ(rows.size(), 6u);
                     });
  EXPECT_EQ(source.hours_dropped(), 4u);
  ASSERT_EQ(seen.size(), 16u);
  for (const auto hour : seen) {
    EXPECT_TRUE(hour < 10 || hour >= 14) << hour;
  }
}

TEST(FaultInjection, RowLossThinsDegradedWindows) {
  InjectorFixture fixture;
  InjectorFixture::FakeSource inner(&fixture);
  scenario::FaultScheduleConfig config;
  config.degraded = {util::HourRange{0, 10}};
  config.row_loss_rate = 1.0;  // lose everything inside the window
  scenario::FaultInjectingRowSource source(inner, config);

  std::size_t rows_in = 0;
  std::size_t hours_seen = 0;
  source.StreamHours(util::HourRange{0, 12},
                     [&](util::HourIndex hour,
                         std::span<const pipeline::AggRow> rows) {
                       ++hours_seen;
                       rows_in += rows.size();
                       if (hour >= 10) {
                         EXPECT_EQ(rows.size(), 6u);
                       }
                     });
  EXPECT_EQ(hours_seen, 12u);            // hours still delivered...
  EXPECT_EQ(rows_in, 12u);               // ...but thinned to the 2 clean ones
  EXPECT_EQ(source.rows_dropped(), 60u);
}

TEST(FaultInjection, DuplicationAndReorderAreDeterministic) {
  InjectorFixture fixture;
  InjectorFixture::FakeSource inner(&fixture);
  scenario::FaultScheduleConfig config;
  config.duplicate_hour_rate = 1.0;
  scenario::FaultInjectingRowSource duplicator(inner, config);
  std::vector<util::HourIndex> seen;
  duplicator.StreamHours(util::HourRange{0, 4},
                         [&](util::HourIndex hour,
                             std::span<const pipeline::AggRow>) {
                           seen.push_back(hour);
                         });
  EXPECT_EQ(seen, (std::vector<util::HourIndex>{0, 0, 1, 1, 2, 2, 3, 3}));
  EXPECT_EQ(duplicator.hours_duplicated(), 4u);

  config = {};
  config.reorder_rate = 1.0;
  scenario::FaultInjectingRowSource reorderer(inner, config);
  seen.clear();
  reorderer.StreamHours(util::HourRange{0, 4},
                        [&](util::HourIndex hour,
                            std::span<const pipeline::AggRow>) {
                          seen.push_back(hour);
                        });
  // Adjacent pairs swapped: 1,0,3,2.
  EXPECT_EQ(seen, (std::vector<util::HourIndex>{1, 0, 3, 2}));
  EXPECT_GE(reorderer.hours_reordered(), 2u);

  // Same seed, same fates.
  scenario::FaultInjectingRowSource again(inner, config);
  std::vector<util::HourIndex> replay;
  again.StreamHours(util::HourRange{0, 4},
                    [&](util::HourIndex hour,
                        std::span<const pipeline::AggRow>) {
                      replay.push_back(hour);
                    });
  EXPECT_EQ(replay, seen);
}

TEST(FaultInjection, EstimatedRowsAccountsForScheduledLoss) {
  InjectorFixture fixture;
  InjectorFixture::FakeSource inner(&fixture);
  const util::HourRange range{0, 20};
  const std::size_t base = inner.EstimatedRows(range);
  ASSERT_GT(base, 0u);

  // No faults: estimate passes through.
  scenario::FaultInjectingRowSource clean(inner, {});
  EXPECT_EQ(clean.EstimatedRows(range), base);

  // Collector down for half the range: estimate halves.
  scenario::FaultScheduleConfig down;
  down.collector_down = {util::HourRange{0, 10}};
  scenario::FaultInjectingRowSource halved(inner, down);
  EXPECT_EQ(halved.EstimatedRows(range), base / 2);

  // Degraded everywhere at 50% row loss: estimate halves too.
  scenario::FaultScheduleConfig thinned;
  thinned.degraded = {range};
  thinned.row_loss_rate = 0.5;
  scenario::FaultInjectingRowSource lossy(inner, thinned);
  EXPECT_EQ(lossy.EstimatedRows(range), base / 2);

  // Duplication adds rows back: outage + guaranteed duplicates.
  scenario::FaultScheduleConfig mixed;
  mixed.collector_down = {util::HourRange{0, 10}};
  mixed.duplicate_hour_rate = 1.0;
  scenario::FaultInjectingRowSource doubled(inner, mixed);
  EXPECT_EQ(doubled.EstimatedRows(range), base);

  // The injected stream actually delivers what was estimated (loss and
  // duplication are deterministic at rate 1.0 / full windows).
  std::size_t delivered = 0;
  scenario::FaultInjectingRowSource check(inner, mixed);
  check.StreamHours(range, [&](util::HourIndex,
                               std::span<const pipeline::AggRow> rows) {
    delivered += rows.size();
  });
  EXPECT_EQ(delivered, check.EstimatedRows(range));
}

// --------------------------------------------------------- cms health gate

TEST(CmsHealthGate, ExpiredModelForcesLegacyFallback) {
  auto cfg = scenario::TinyScenarioConfig();
  cfg.traffic.flow_target = 200;
  scenario::Scenario world(cfg);
  // A service exists but its validity horizon has passed. The gate must
  // trip before any prediction is consulted, so an empty (but finalized)
  // service stands in for the expired model.
  core::TipsyService expired(&world.wan(), &world.metros());
  expired.FinalizeTraining();

  cms::CmsConfig config;
  config.health_provider = [] { return core::ModelHealth::kExpired; };
  cms::CongestionMitigationSystem cms(&world, &expired, config);

  const util::LinkId hot{0};
  std::vector<double> loads(world.wan().link_count(), 0.0);
  loads[hot.value()] = world.wan().link(hot).CapacityBytesPerHour() * 1.2;
  pipeline::AggRow row;
  row.link = hot;
  row.src_asn = util::AsId{100};
  row.src_prefix24 = util::Ipv4Prefix(util::Ipv4Addr(1, 1, 1, 0), 24);
  row.src_metro = util::MetroId{0};
  const auto& destination = world.wan().destination(0);
  row.dest_region = destination.region;
  row.dest_service = destination.service;
  row.dest_prefix = destination.prefix;
  row.bytes = static_cast<std::uint64_t>(loads[hot.value()]);

  cms.ObserveHour(0, loads, std::vector<pipeline::AggRow>{row});
  ASSERT_FALSE(cms.events().empty());
  EXPECT_EQ(cms.health_fallbacks(), 1u);
  // Legacy behaviour still mitigates - it withdraws without the safety
  // check rather than doing nothing.
  EXPECT_GE(cms.withdrawals_issued(), 1u);
  world.ResetAdvertisements();
}

}  // namespace
}  // namespace tipsy
