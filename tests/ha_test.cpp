// High-availability serving plane: hour journal, snapshot/restore,
// replica warm-start and supervised failover.
//
// The load-bearing property throughout is *bit-identical recovery*: after
// any injected crash, a reopened replica must serve exactly the model an
// uninterrupted run would serve (compared as core::SaveService bytes) and
// report exactly the same ServiceHealth counters.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "core/online.h"
#include "core/serialize.h"
#include "ha/journal.h"
#include "ha/replica.h"
#include "ha/snapshot.h"
#include "ha/supervisor.h"
#include "scenario/fault_injection.h"
#include "topo/generator.h"
#include "util/atomic_file.h"
#include "util/status.h"

namespace tipsy {
namespace {

// ---------------------------------------------------------------- fixtures

pipeline::AggRow MakeRow(std::uint32_t f, std::uint32_t link,
                         util::HourIndex hour, std::uint64_t bytes) {
  pipeline::AggRow row;
  row.link = util::LinkId{link};
  row.src_asn = util::AsId{100 + f};
  row.src_prefix24 = util::Ipv4Prefix(util::Ipv4Addr(f << 8), 24);
  row.src_metro = util::MetroId{f % 2};
  row.dest_region = util::RegionId{0};
  row.dest_service = wan::ServiceType::kWeb;
  row.dest_prefix = util::PrefixId{1};
  row.bytes = bytes;
  row.hour = hour;
  return row;
}

auto RowKey(const pipeline::AggRow& row) {
  return std::tuple(row.hour, row.link.value(), row.src_asn.value(),
                    row.src_prefix24, row.src_metro.value(),
                    row.dest_region.value(),
                    static_cast<int>(row.dest_service),
                    row.dest_prefix.value(), row.bytes);
}

bool RecordsEqual(const ha::JournalRecord& a, const ha::JournalRecord& b) {
  if (a.seq != b.seq || a.kind != b.kind || a.hour != b.hour ||
      a.rows.size() != b.rows.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    if (RowKey(a.rows[i]) != RowKey(b.rows[i])) return false;
  }
  return true;
}

// Serialized bytes of the served model; "" when nothing is trained.
// SaveService(LoadService(b)) == b is fuzz-verified in robustness_test,
// so byte equality here is exactly model equality.
std::string ServiceBytes(const core::TipsyService* service) {
  if (service == nullptr) return {};
  std::ostringstream out;
  core::SaveService(*service, out);
  return out.str();
}

// A unique on-disk home for one test's journal + snapshot.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("tipsy_ha_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }

  [[nodiscard]] std::string File(const std::string& name) const {
    return (path / name).string();
  }

  std::filesystem::path path;
};

struct HaFixture {
  HaFixture()
      : topology(topo::GenerateTinyTopology()),
        wan(topology.peering_links,
            topology.graph.node(topology.wan).presence, 8, 1) {}

  [[nodiscard]] std::vector<pipeline::AggRow> HourRows(
      util::HourIndex hour) const {
    std::vector<pipeline::AggRow> rows;
    const auto links = static_cast<std::uint32_t>(wan.link_count());
    for (std::uint32_t f = 0; f < 4; ++f) {
      rows.push_back(MakeRow(f, (f + static_cast<std::uint32_t>(hour)) % links,
                             hour, 500 + 13 * f + 7 * hour));
    }
    return rows;
  }

  [[nodiscard]] core::DailyRetrainer MakeRetrainer() const {
    return core::DailyRetrainer(&wan, &topology.metros, /*window_days=*/3);
  }

  [[nodiscard]] ha::ReplicaConfig MakeReplicaConfig(
      const TempDir& dir, const std::string& prefix) const {
    ha::ReplicaConfig config;
    config.journal_path = dir.File(prefix + ".journal");
    config.snapshot_path = dir.File(prefix + ".snapshot");
    // Tests hammer hundreds of appends; per-append fsync latency is the
    // production trade, not the property under test.
    config.fsync_appends = false;
    return config;
  }

  [[nodiscard]] util::StatusOr<ha::Replica> OpenReplica(
      const ha::ReplicaConfig& config) const {
    return ha::Replica::Open(&wan, &topology.metros, /*window_days=*/3, {},
                             {}, config);
  }

  topo::GeneratedTopology topology;
  wan::Wan wan;
};

// The ingest stream for the crash matrix: in-order hours with a couple of
// out-of-order deliveries sprinkled in (the retrainer drops-and-counts
// them, and bit-identical recovery must reproduce those counters too).
struct StreamEvent {
  util::HourIndex hour = 0;
  bool heartbeat = false;
};

std::vector<StreamEvent> MakeStream(util::HourIndex hours) {
  std::vector<StreamEvent> events;
  for (util::HourIndex h = 0; h < hours; ++h) {
    events.push_back({h, false});
    if (h == 30 || h == 77) events.push_back({h - 25, false});  // late replay
    if (h % 6 == 5) events.push_back({h, true});  // idle heartbeat tick
  }
  return events;
}

void ApplyEvent(core::DailyRetrainer& retrainer, const HaFixture& fixture,
                const StreamEvent& event) {
  if (event.heartbeat) {
    retrainer.AdvanceTo(event.hour);
  } else {
    retrainer.Ingest(event.hour, fixture.HourRows(event.hour));
  }
}

util::Status ApplyEvent(ha::Replica& replica, const HaFixture& fixture,
                        const StreamEvent& event) {
  if (event.heartbeat) return replica.Heartbeat(event.hour);
  return replica.Ingest(event.hour, fixture.HourRows(event.hour));
}

// ----------------------------------------------------------------- journal

TEST(Journal, AppendRecoverRoundTripsVerbatim) {
  HaFixture fixture;
  TempDir dir("journal_roundtrip");
  const auto path = dir.File("hours.journal");

  std::vector<ha::JournalRecord> written;
  {
    auto journal = ha::Journal::Open(path, /*fsync_appends=*/true);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (util::HourIndex h = 0; h < 5; ++h) {
      ha::JournalRecord record;
      record.seq = static_cast<std::uint64_t>(h);
      record.kind = h == 3 ? ha::JournalRecordKind::kHeartbeat
                           : ha::JournalRecordKind::kIngest;
      record.hour = h;
      if (record.kind == ha::JournalRecordKind::kIngest) {
        record.rows = fixture.HourRows(h);
      }
      auto seq = journal->Append(record.kind, record.hour, record.rows);
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      EXPECT_EQ(*seq, record.seq);
      written.push_back(std::move(record));
    }
    EXPECT_EQ(journal->next_seq(), 5u);
  }

  auto reopened = ha::Journal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& recovery = reopened->recovered();
  EXPECT_TRUE(recovery.tail_status.ok()) << recovery.tail_status.ToString();
  EXPECT_EQ(recovery.torn_bytes, 0u);
  ASSERT_EQ(recovery.records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_TRUE(RecordsEqual(recovery.records[i], written[i])) << i;
  }
  EXPECT_EQ(reopened->next_seq(), 5u);
}

TEST(Journal, TornTailIsTruncatedAndAppendsContinue) {
  HaFixture fixture;
  TempDir dir("journal_torn");
  const auto path = dir.File("hours.journal");
  {
    auto journal = ha::Journal::Open(path, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok());
    for (util::HourIndex h = 0; h < 4; ++h) {
      ASSERT_TRUE(journal
                      ->Append(ha::JournalRecordKind::kIngest, h,
                               fixture.HourRows(h))
                      .ok());
    }
  }
  // A crash mid-append leaves a torn half-record at the tail.
  auto bytes = util::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ha::JournalRecord torn;
  torn.seq = 4;
  torn.hour = 4;
  torn.rows = fixture.HourRows(4);
  const std::string frame = ha::EncodeJournalRecord(torn);
  ASSERT_TRUE(util::WriteFileAtomic(
                  path, *bytes + frame.substr(0, frame.size() / 2))
                  .ok());

  auto reopened = ha::Journal::Open(path, /*fsync_appends=*/false);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->recovered().records.size(), 4u);
  EXPECT_EQ(reopened->recovered().tail_status.code(),
            util::StatusCode::kTruncated);
  EXPECT_GT(reopened->recovered().torn_bytes, 0u);
  // The torn record was never acknowledged; its retry lands on seq 4.
  auto seq = reopened->Append(ha::JournalRecordKind::kIngest, 4, torn.rows);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 4u);

  // After truncate + re-append the journal is clean again.
  auto final_bytes = util::ReadFileToString(path);
  ASSERT_TRUE(final_bytes.ok());
  auto recovery = ha::RecoverJournalBytes(*final_bytes);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->tail_status.ok());
  EXPECT_EQ(recovery->records.size(), 5u);
}

TEST(Journal, WrongMagicAndVersionAreTypedErrors) {
  TempDir dir("journal_magic");
  const auto foreign = dir.File("not_a_journal");
  ASSERT_TRUE(util::WriteFileAtomic(foreign, "GIFDATA8 something").ok());
  auto open = ha::Journal::Open(foreign);
  ASSERT_FALSE(open.ok());
  // A wrong magic means "this is some other file": refuse to clobber it.
  EXPECT_EQ(open.status().code(), util::StatusCode::kCorrupt);
  auto untouched = util::ReadFileToString(foreign);
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(*untouched, "GIFDATA8 something");

  const auto future = dir.File("future_journal");
  ASSERT_TRUE(util::WriteFileAtomic(future, "TIPSYHJ9").ok());
  auto version = ha::Journal::Open(future);
  ASSERT_FALSE(version.ok());
  EXPECT_EQ(version.status().code(), util::StatusCode::kVersionMismatch);

  // Shorter than the magic = torn initial create: safe to start over.
  const auto stub = dir.File("stub_journal");
  ASSERT_TRUE(util::WriteFileAtomic(stub, "TIP").ok());
  auto recovered = ha::Journal::Open(stub);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->next_seq(), 0u);
}

TEST(Journal, SequenceGapStopsRecoveryAtVerifiedPrefix) {
  HaFixture fixture;
  std::string bytes = "TIPSYHJ1";
  for (std::uint64_t seq : {0ull, 1ull, 3ull}) {  // 2 went missing
    ha::JournalRecord record;
    record.seq = seq;
    record.hour = static_cast<util::HourIndex>(seq);
    record.rows = fixture.HourRows(record.hour);
    bytes += ha::EncodeJournalRecord(record);
  }
  auto recovery = ha::RecoverJournalBytes(bytes);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records.size(), 2u);
  EXPECT_EQ(recovery->tail_status.code(), util::StatusCode::kCorrupt);
  EXPECT_GT(recovery->torn_bytes, 0u);
}

// Exhaustive single-byte-flip fuzz: whatever the damage, recovery yields
// a bit-honest prefix of the clean records (or a typed magic failure) and
// never crashes, hangs or over-allocates.
TEST(JournalByteFlipFuzz, EveryMutationRecoversAnHonestPrefix) {
  HaFixture fixture;
  std::string bytes = "TIPSYHJ1";
  std::vector<ha::JournalRecord> clean;
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    ha::JournalRecord record;
    record.seq = seq;
    record.kind = seq % 3 == 2 ? ha::JournalRecordKind::kHeartbeat
                               : ha::JournalRecordKind::kIngest;
    record.hour = static_cast<util::HourIndex>(seq);
    if (record.kind == ha::JournalRecordKind::kIngest) {
      record.rows = fixture.HourRows(record.hour);
    }
    bytes += ha::EncodeJournalRecord(record);
    clean.push_back(std::move(record));
  }
  {
    auto sanity = ha::RecoverJournalBytes(bytes);
    ASSERT_TRUE(sanity.ok());
    ASSERT_EQ(sanity->records.size(), clean.size());
    ASSERT_TRUE(sanity->tail_status.ok());
  }

  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto recovery =
          ha::RecoverJournalBytes(scenario::FlipBit(bytes, byte, bit));
      if (!recovery.ok()) {
        // Only damage to the magic itself refuses recovery outright.
        ASSERT_LT(byte, 8u);
        const auto code = recovery.status().code();
        EXPECT_TRUE(code == util::StatusCode::kCorrupt ||
                    code == util::StatusCode::kVersionMismatch)
            << "byte " << byte << " bit " << bit;
        continue;
      }
      // A flip past the magic damages exactly one frame: everything
      // before it must be recovered verbatim, nothing after it.
      ASSERT_LT(recovery->records.size(), clean.size())
          << "undetected corruption at byte " << byte << " bit " << bit;
      EXPECT_FALSE(recovery->tail_status.ok());
      for (std::size_t i = 0; i < recovery->records.size(); ++i) {
        EXPECT_TRUE(RecordsEqual(recovery->records[i], clean[i]))
            << "byte " << byte << " bit " << bit << " record " << i;
      }
    }
  }
}

// ------------------------------------------------------------- compaction
//
// Journal::Compact is manifest-before-truncate: the authenticated base
// seq is committed to the atomic `.manifest` sidecar first, then the
// journal is atomically rewritten as magic + surviving suffix. The tests
// below cover the clean path, the crash window between the two writes,
// and bit rot in either file. The invariant throughout: Open() either
// reconstructs exactly the authenticated state or refuses with a typed
// error — it never guesses a base or presents record loss as success.

std::uint64_t AppendHours(ha::Journal& journal, const HaFixture& fixture,
                          util::HourIndex first, util::HourIndex count) {
  std::uint64_t last = 0;
  for (util::HourIndex h = first; h < first + count; ++h) {
    auto seq = journal.Append(ha::JournalRecordKind::kIngest, h,
                              fixture.HourRows(h));
    EXPECT_TRUE(seq.ok()) << seq.status().ToString();
    last = *seq;
  }
  return last;
}

TEST(JournalCompaction, CompactDropsPrefixAndSurvivesReopen) {
  HaFixture fixture;
  TempDir dir("compact_roundtrip");
  const auto path = dir.File("hours.journal");
  {
    auto journal = ha::Journal::Open(path, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    AppendHours(*journal, fixture, 0, 8);
    ASSERT_TRUE(journal->Compact(5).ok());
    EXPECT_EQ(journal->base_seq(), 5u);
    EXPECT_EQ(journal->next_seq(), 8u);
    EXPECT_EQ(journal->compactions(), 1u);
    EXPECT_EQ(journal->compacted_records(), 5u);
    // Appends keep landing on the rewritten file with contiguous seqs.
    EXPECT_EQ(AppendHours(*journal, fixture, 8, 1), 8u);
    // Compacting to a seq at or below the base is a no-op, not an error.
    ASSERT_TRUE(journal->Compact(3).ok());
    EXPECT_EQ(journal->base_seq(), 5u);
  }
  auto reopened = ha::Journal::Open(path, /*fsync_appends=*/false);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened->compaction_resumed());
  EXPECT_EQ(reopened->base_seq(), 5u);
  EXPECT_EQ(reopened->next_seq(), 9u);
  const auto& records = reopened->recovered().records;
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    ha::JournalRecord expect;
    expect.seq = 5 + i;
    expect.hour = static_cast<util::HourIndex>(5 + i);
    expect.rows = fixture.HourRows(expect.hour);
    EXPECT_TRUE(RecordsEqual(records[i], expect)) << i;
  }
}

TEST(JournalCompaction, CompactPastNextSeqResetsToEmptyBase) {
  // A standby installing a remote snapshot compacts through a seq it
  // never journalled locally; the journal must reset to an empty file
  // based there so the snapshot is restorable on the next open.
  HaFixture fixture;
  TempDir dir("compact_reset");
  const auto path = dir.File("hours.journal");
  {
    auto journal = ha::Journal::Open(path, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    AppendHours(*journal, fixture, 0, 3);
    ASSERT_TRUE(journal->Compact(20).ok());
    EXPECT_EQ(journal->base_seq(), 20u);
    EXPECT_EQ(journal->next_seq(), 20u);
    EXPECT_EQ(AppendHours(*journal, fixture, 20, 1), 20u);
  }
  auto reopened = ha::Journal::Open(path, /*fsync_appends=*/false);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->base_seq(), 20u);
  EXPECT_EQ(reopened->next_seq(), 21u);
  ASSERT_EQ(reopened->recovered().records.size(), 1u);
  EXPECT_EQ(reopened->recovered().records.front().seq, 20u);
}

TEST(JournalCompaction, CrashBetweenManifestAndTruncateIsCompletedOnOpen) {
  HaFixture fixture;
  TempDir dir("compact_torn");
  const auto path = dir.File("hours.journal");
  {
    auto journal = ha::Journal::Open(path, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    AppendHours(*journal, fixture, 0, 8);
  }
  // Exactly the on-disk state a crash after Compact's first atomic write
  // leaves behind: the manifest advanced, the journal file did not.
  ASSERT_TRUE(util::WriteFileAtomic(ha::JournalManifestPath(path),
                                    ha::EncodeJournalManifest({.base_seq = 5}))
                  .ok());
  {
    auto repaired = ha::Journal::Open(path, /*fsync_appends=*/false);
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    EXPECT_TRUE(repaired->compaction_resumed());
    EXPECT_EQ(repaired->base_seq(), 5u);
    EXPECT_EQ(repaired->next_seq(), 8u);
    ASSERT_EQ(repaired->recovered().records.size(), 3u);
    EXPECT_EQ(repaired->recovered().records.front().seq, 5u);
    EXPECT_EQ(AppendHours(*repaired, fixture, 8, 1), 8u);
  }
  // The repair is durable: a second open sees an ordinary compacted file.
  auto stable = ha::Journal::Open(path, /*fsync_appends=*/false);
  ASSERT_TRUE(stable.ok()) << stable.status().ToString();
  EXPECT_FALSE(stable->compaction_resumed());
  EXPECT_EQ(stable->base_seq(), 5u);
  EXPECT_EQ(stable->next_seq(), 9u);
}

TEST(JournalCompaction, TornCompactionWithTornAppendTailRecovers) {
  // Worst case: a torn append tail from one crash AND a manifest ahead
  // of the file from a compaction crash. Open must drop the torn tail,
  // complete the truncation, and keep exactly [manifest base, verified
  // end).
  HaFixture fixture;
  TempDir dir("compact_torn_tail");
  const auto path = dir.File("hours.journal");
  std::string bytes(ha::JournalMagic());
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    ha::JournalRecord record;
    record.seq = seq;
    record.hour = static_cast<util::HourIndex>(seq);
    record.rows = fixture.HourRows(record.hour);
    bytes += ha::EncodeJournalRecord(record);
  }
  ASSERT_TRUE(
      util::WriteFileAtomic(path, scenario::TruncateTail(bytes, 7)).ok());
  ASSERT_TRUE(util::WriteFileAtomic(ha::JournalManifestPath(path),
                                    ha::EncodeJournalManifest({.base_seq = 5}))
                  .ok());
  auto repaired = ha::Journal::Open(path, /*fsync_appends=*/false);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_TRUE(repaired->compaction_resumed());
  EXPECT_EQ(repaired->base_seq(), 5u);
  EXPECT_EQ(repaired->next_seq(), 7u);  // record 7 was the torn append
  ASSERT_EQ(repaired->recovered().records.size(), 2u);
  EXPECT_EQ(repaired->recovered().records.front().seq, 5u);
}

TEST(JournalCompaction, CompactedFileWithoutManifestIsCorrupt) {
  // A nonzero first seq with no manifest means records went missing (or
  // someone deleted the sidecar); guessing a base would present that
  // loss as a successful open.
  HaFixture fixture;
  TempDir dir("compact_no_manifest");
  const auto path = dir.File("hours.journal");
  std::string bytes(ha::JournalMagic());
  for (std::uint64_t seq = 5; seq < 8; ++seq) {
    ha::JournalRecord record;
    record.seq = seq;
    record.hour = static_cast<util::HourIndex>(seq);
    record.rows = fixture.HourRows(record.hour);
    bytes += ha::EncodeJournalRecord(record);
  }
  ASSERT_TRUE(util::WriteFileAtomic(path, bytes).ok());
  auto opened = ha::Journal::Open(path, /*fsync_appends=*/false);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), util::StatusCode::kCorrupt);
}

TEST(JournalCompaction, FileAheadOfManifestIsCorrupt) {
  // The manifest authenticates base 3 but the file starts at 5: records
  // 3 and 4 are gone and no snapshot covers them. Typed refusal.
  HaFixture fixture;
  TempDir dir("compact_ahead");
  const auto path = dir.File("hours.journal");
  std::string bytes(ha::JournalMagic());
  for (std::uint64_t seq = 5; seq < 8; ++seq) {
    ha::JournalRecord record;
    record.seq = seq;
    record.hour = static_cast<util::HourIndex>(seq);
    record.rows = fixture.HourRows(record.hour);
    bytes += ha::EncodeJournalRecord(record);
  }
  ASSERT_TRUE(util::WriteFileAtomic(path, bytes).ok());
  ASSERT_TRUE(util::WriteFileAtomic(ha::JournalManifestPath(path),
                                    ha::EncodeJournalManifest({.base_seq = 3}))
                  .ok());
  auto opened = ha::Journal::Open(path, /*fsync_appends=*/false);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), util::StatusCode::kCorrupt);
}

TEST(JournalCompaction, DamagedManifestRefusesOpenWithTypedError) {
  HaFixture fixture;
  TempDir dir("compact_bad_manifest");
  const auto path = dir.File("hours.journal");
  {
    auto journal = ha::Journal::Open(path, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    AppendHours(*journal, fixture, 0, 8);
    ASSERT_TRUE(journal->Compact(5).ok());
  }
  auto manifest = util::ReadFileToString(ha::JournalManifestPath(path));
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(util::WriteFileAtomic(
                  ha::JournalManifestPath(path),
                  scenario::FlipBit(*manifest, manifest->size() - 2, 3))
                  .ok());
  auto opened = ha::Journal::Open(path, /*fsync_appends=*/false);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), util::StatusCode::kCorrupt);
}

// Exhaustive single-bit-flip and truncation fuzz over the manifest: the
// CRC catches every mutation, so the decoder must always refuse with a
// typed code — a flipped base accepted as valid would silently orphan
// (or resurrect) compacted records.
TEST(JournalManifestByteFlipFuzz, EveryMutationIsATypedRefusal) {
  const std::string clean =
      ha::EncodeJournalManifest({.base_seq = 0x0123456789abcdefULL});
  {
    auto sanity = ha::DecodeJournalManifest(clean);
    ASSERT_TRUE(sanity.ok()) << sanity.status().ToString();
    ASSERT_EQ(sanity->base_seq, 0x0123456789abcdefULL);
  }
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto decoded =
          ha::DecodeJournalManifest(scenario::FlipBit(clean, byte, bit));
      ASSERT_FALSE(decoded.ok())
          << "undetected manifest corruption at byte " << byte << " bit "
          << bit;
      const auto code = decoded.status().code();
      EXPECT_TRUE(code == util::StatusCode::kCorrupt ||
                  code == util::StatusCode::kVersionMismatch ||
                  code == util::StatusCode::kTruncated)
          << "byte " << byte << " bit " << bit;
    }
  }
  for (std::size_t keep = 0; keep < clean.size(); ++keep) {
    auto decoded = ha::DecodeJournalManifest(clean.substr(0, keep));
    ASSERT_FALSE(decoded.ok()) << "accepted " << keep << "-byte prefix";
  }
  // Trailing garbage is not "close enough" either.
  EXPECT_FALSE(ha::DecodeJournalManifest(clean + '\0').ok());
}

// ------------------------------------------------------------ journal tail

// The frames for seqs [first, first + count) as AppendHours lays them out
// on disk (seq == hour).
std::string HourFrames(const HaFixture& fixture, std::uint64_t first,
                       std::uint64_t count) {
  std::string out;
  for (std::uint64_t seq = first; seq < first + count; ++seq) {
    ha::JournalRecord record;
    record.seq = seq;
    record.hour = static_cast<util::HourIndex>(seq);
    record.rows = fixture.HourRows(record.hour);
    out += ha::EncodeJournalRecord(record);
  }
  return out;
}

void AppendRaw(const std::string& path, std::string_view bytes) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  ASSERT_EQ(std::fclose(file), 0);
}

TEST(JournalTail, HandsOutOnlyCompleteVerifiedFramesPastTheCursor) {
  HaFixture fixture;
  TempDir dir("tail_torn");
  const auto path = dir.File("hours.journal");
  {
    auto journal = ha::Journal::Open(path, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    AppendHours(*journal, fixture, 0, 5);
  }
  ha::JournalTailReader tail(path);
  std::string out;
  auto read = tail.ReadFrom(2, out);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, 3u);
  EXPECT_EQ(out, HourFrames(fixture, 2, 3));  // the file's bytes verbatim
  out.clear();
  read = tail.ReadFrom(5, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 0u);
  EXPECT_TRUE(out.empty());

  // An append in flight (all but the last byte on disk) is not handed
  // out until it completes.
  const std::string next = HourFrames(fixture, 5, 1);
  AppendRaw(path, std::string_view(next).substr(0, next.size() - 1));
  read = tail.ReadFrom(5, out);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, 0u);
  AppendRaw(path, std::string_view(next).substr(next.size() - 1));
  read = tail.ReadFrom(5, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 1u);
  EXPECT_EQ(out, next);

  // Asking again for an older seq walks the file from its start.
  out.clear();
  read = tail.ReadFrom(0, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 6u);
  EXPECT_EQ(out, HourFrames(fixture, 0, 6));

  // A frame that fails its checksum is refused, never handed out.
  std::string damaged = HourFrames(fixture, 6, 1);
  damaged[damaged.size() - 2] ^= 0x01;
  AppendRaw(path, damaged);
  out.clear();
  read = tail.ReadFrom(6, out);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), util::StatusCode::kCorrupt);
  EXPECT_TRUE(out.empty());
}

TEST(JournalTail, CompactionBetweenReadsReanchorsOnTheNewFile) {
  HaFixture fixture;
  TempDir dir("tail_compact");
  const auto path = dir.File("hours.journal");
  auto journal = ha::Journal::Open(path, /*fsync_appends=*/false);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ha::JournalTailReader tail(path);

  AppendHours(*journal, fixture, 0, 6);
  std::string shipped;
  auto read = tail.ReadFrom(0, shipped);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(*read, 6u);

  // Compaction replaces the file between two reads, keeping the cursor.
  AppendHours(*journal, fixture, 6, 3);
  ASSERT_TRUE(journal->Compact(4).ok());
  AppendHours(*journal, fixture, 9, 1);
  read = tail.ReadFrom(6, shipped);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, 4u);
  // Every seq exactly once, as the frames the files held.
  EXPECT_EQ(shipped, HourFrames(fixture, 0, 10));
  auto file = util::ReadFileToString(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->substr(ha::JournalMagic().size()),
            HourFrames(fixture, 4, 6));

  // Compaction past the cursor: the new file no longer holds it.
  AppendHours(*journal, fixture, 10, 3);
  ASSERT_TRUE(journal->Compact(12).ok());
  std::string lost;
  read = tail.ReadFrom(10, lost);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), util::StatusCode::kNoData);
  EXPECT_TRUE(lost.empty());
}

TEST(JournalProgress, PublishesDurableAppendsAndCompactionAndWakesWaiters) {
  HaFixture fixture;
  TempDir dir("progress");
  auto journal =
      ha::Journal::Open(dir.File("hours.journal"), /*fsync_appends=*/false);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  const ha::JournalProgress& progress = journal->progress();
  AppendHours(*journal, fixture, 0, 3);
  EXPECT_EQ(progress.durable_next_seq(), 3u);

  // A buffered append is not durable until Sync(), and a waiter sleeps
  // through it.
  ASSERT_TRUE(journal
                  ->AppendBuffered(ha::JournalRecordKind::kIngest, 3,
                                   fixture.HourRows(3))
                  .ok());
  EXPECT_EQ(progress.durable_next_seq(), 3u);
  EXPECT_EQ(progress.WaitForAdvance(3, 1), 3u);
  std::atomic<std::uint64_t> woke_at{0};
  std::thread waiter([&] { woke_at = progress.WaitForAdvance(3, 10000); });
  ASSERT_TRUE(journal->Sync().ok());
  waiter.join();
  EXPECT_EQ(woke_at.load(), 4u);

  ASSERT_TRUE(journal->Compact(2).ok());
  EXPECT_EQ(progress.base_seq(), 2u);
  EXPECT_EQ(progress.durable_next_seq(), 4u);
  // The published object survives a move of the journal.
  ha::Journal moved = *std::move(journal);
  EXPECT_EQ(&moved.progress(), &progress);
}

TEST(ReplicaCompaction, CheckpointCompactionKeepsRecoveryBitIdentical) {
  // The full production loop: day-boundary checkpoints snapshot AND
  // compact, then the process dies and a cold Open must come back
  // bit-identical to an uninterrupted run — the compacted prefix now
  // lives only in the snapshot.
  HaFixture fixture;
  const auto events = MakeStream(3 * util::kHoursPerDay);

  auto reference = fixture.MakeRetrainer();
  for (const auto& event : events) ApplyEvent(reference, fixture, event);
  const std::string reference_bytes = ServiceBytes(reference.current());
  ASSERT_FALSE(reference_bytes.empty());

  TempDir dir("replica_compact");
  auto config = fixture.MakeReplicaConfig(dir, "node");
  config.compact_after_snapshot = true;
  {
    auto replica = fixture.OpenReplica(config);
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    for (const auto& event : events) {
      ASSERT_TRUE(ApplyEvent(*replica, fixture, event).ok());
    }
    // The day crossings actually compacted: the journal no longer spans
    // back to genesis and the manifest authenticates the new base.
    EXPECT_GT(replica->journal().base_seq(), 0u);
    auto manifest = util::ReadFileToString(
        ha::JournalManifestPath(config.journal_path));
    ASSERT_TRUE(manifest.ok());
    auto decoded = ha::DecodeJournalManifest(*manifest);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->base_seq, replica->journal().base_seq());
  }
  auto reopened = fixture.OpenReplica(config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->recovery().source,
            ha::RestoreSource::kSnapshotAndJournal);
  EXPECT_EQ(reopened->recovery().skipped_records, 0u);
  EXPECT_EQ(ServiceBytes(reopened->service()), reference_bytes);
}

TEST(ReplicaCompaction, RetentionFloorKeepsLiveReadersBackToThePreviousCheckpoint) {
  // Compaction keeps what a live journal reader (a shipping standby) has
  // yet to read, but never more than back to the previous checkpoint: a
  // reader further behind falls back to a snapshot instead of pinning
  // the journal. The floor is read each time compaction runs.
  HaFixture fixture;
  TempDir dir("replica_retention");
  auto config = fixture.MakeReplicaConfig(dir, "node");
  config.compact_after_snapshot = true;
  auto replica = fixture.OpenReplica(config);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  std::optional<std::uint64_t> floor;
  int floor_reads = 0;
  replica->SetRetentionFloor([&] {
    ++floor_reads;
    return floor;
  });
  // seq == hour; the day crossing at hour 24k checkpoints through 24k + 1.
  const auto feed_through = [&](util::HourIndex last) {
    for (auto h = static_cast<util::HourIndex>(replica->applied_seq());
         h <= last; ++h) {
      ASSERT_TRUE(replica->Ingest(h, fixture.HourRows(h)).ok()) << h;
    }
  };

  floor = 10;  // a reader at seq 10 when the first checkpoint compacts
  feed_through(24);
  EXPECT_EQ(floor_reads, 1);
  EXPECT_EQ(replica->last_snapshot_seq(), 25u);
  EXPECT_EQ(replica->journal().base_seq(), 10u);
  EXPECT_EQ(replica->standby_retained_records(), 15u);

  // Still at 10 a checkpoint later: the cut stops at the previous
  // checkpoint, so the journal spans at most two checkpoints.
  feed_through(48);
  EXPECT_EQ(replica->last_snapshot_seq(), 49u);
  EXPECT_EQ(replica->journal().base_seq(), 25u);
  EXPECT_EQ(replica->standby_retained_records(), 24u);

  // A reader between the two checkpoints holds the cut at its cursor.
  floor = 60;
  feed_through(72);
  EXPECT_EQ(replica->journal().base_seq(), 60u);
  EXPECT_EQ(replica->standby_retained_records(), 13u);

  // A reader past the snapshot, or none at all, lets the cut reach it.
  floor = 500;
  feed_through(96);
  EXPECT_EQ(replica->journal().base_seq(), 97u);
  EXPECT_EQ(replica->standby_retained_records(), 0u);
  floor.reset();
  feed_through(120);
  EXPECT_EQ(replica->journal().base_seq(), 121u);
  replica->SetRetentionFloor(nullptr);
  feed_through(144);
  EXPECT_EQ(replica->journal().base_seq(), 145u);
  EXPECT_EQ(floor_reads, 5);
}

TEST(ReplicaCompaction, WarmStartOverRetainedRecordsIsBitIdentical) {
  // A journal that compaction held back for a standby still holds
  // records the snapshot already covers. A warm start must skip exactly
  // those and come back bit-identical to an uninterrupted run.
  HaFixture fixture;
  const auto events = MakeStream(3 * util::kHoursPerDay);
  auto reference = fixture.MakeRetrainer();
  for (const auto& event : events) ApplyEvent(reference, fixture, event);

  TempDir dir("replica_retained_restart");
  auto config = fixture.MakeReplicaConfig(dir, "node");
  config.compact_after_snapshot = true;
  std::uint64_t retained = 0;
  std::uint64_t snapshot_seq = 0;
  std::uint64_t next_seq = 0;
  std::uint32_t digest = 0;
  {
    auto replica = fixture.OpenReplica(config);
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    replica->SetRetentionFloor([] { return std::optional<std::uint64_t>(5); });
    for (const auto& event : events) {
      ASSERT_TRUE(ApplyEvent(*replica, fixture, event).ok());
    }
    retained = replica->standby_retained_records();
    snapshot_seq = replica->last_snapshot_seq();
    next_seq = replica->journal().next_seq();
    digest = ha::ReplicaStateDigest(*replica);
    EXPECT_GT(retained, 0u);
    EXPECT_EQ(replica->journal().base_seq() + retained, snapshot_seq);
  }
  auto reopened = fixture.OpenReplica(config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->recovery().source,
            ha::RestoreSource::kSnapshotAndJournal);
  EXPECT_EQ(reopened->recovery().skipped_records, retained);
  EXPECT_EQ(reopened->recovery().replayed_records, next_seq - snapshot_seq);
  EXPECT_EQ(ServiceBytes(reopened->service()),
            ServiceBytes(reference.current()));
  EXPECT_EQ(reopened->retrainer().health_snapshot(),
            reference.health_snapshot());
  EXPECT_EQ(ha::ReplicaStateDigest(*reopened), digest);
}

TEST(ReplicaCompaction, CompactedJournalWithoutCoveringSnapshotIsCorrupt) {
  // A compacted journal spans only [base, next); with no snapshot
  // covering the base there is no path back to the dropped prefix, and
  // replaying just the suffix would serve a wrong model as a successful
  // open. Replica::Open must refuse, not improvise.
  HaFixture fixture;
  TempDir dir("replica_compact_orphan");
  const auto config = fixture.MakeReplicaConfig(dir, "node");
  {
    auto journal =
        ha::Journal::Open(config.journal_path, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    AppendHours(*journal, fixture, 0, 6);
    ASSERT_TRUE(journal->Compact(4).ok());
  }
  auto replica = fixture.OpenReplica(config);
  ASSERT_FALSE(replica.ok());
  EXPECT_EQ(replica.status().code(), util::StatusCode::kCorrupt);
}

// ---------------------------------------------------------------- snapshot

core::RetrainerState TrainedState(const HaFixture& fixture,
                                  util::HourIndex hours) {
  auto retrainer = fixture.MakeRetrainer();
  for (util::HourIndex h = 0; h < hours; ++h) {
    retrainer.Ingest(h, fixture.HourRows(h));
  }
  return retrainer.ExportState();
}

TEST(Snapshot, EncodeDecodeRoundTrips) {
  HaFixture fixture;
  ha::SnapshotState state;
  state.retrainer = TrainedState(fixture, 30);
  state.applied_seq = 42;
  ASSERT_FALSE(state.retrainer.model_bundle.empty());
  ASSERT_FALSE(state.retrainer.days.empty());

  auto decoded = ha::DecodeSnapshot(ha::EncodeSnapshot(state));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->applied_seq, 42u);
  EXPECT_EQ(decoded->retrainer.model_bundle, state.retrainer.model_bundle);
  EXPECT_EQ(decoded->retrainer.last_observed_hour,
            state.retrainer.last_observed_hour);
  EXPECT_EQ(decoded->retrainer.dropped_hours, state.retrainer.dropped_hours);
  ASSERT_EQ(decoded->retrainer.days.size(), state.retrainer.days.size());
  for (std::size_t d = 0; d < state.retrainer.days.size(); ++d) {
    const auto& a = state.retrainer.days[d];
    const auto& b = decoded->retrainer.days[d];
    EXPECT_EQ(a.day, b.day);
    EXPECT_EQ(a.hours_seen, b.hours_seen);
    EXPECT_EQ(a.last_hour, b.last_hour);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
      EXPECT_EQ(RowKey(a.rows[r]), RowKey(b.rows[r]));
    }
  }
  // Deterministic: encode(decode(bytes)) is byte-stable.
  EXPECT_EQ(ha::EncodeSnapshot(*decoded), ha::EncodeSnapshot(state));
}

TEST(Snapshot, HostileLengthsAreRejectedWithoutAllocating) {
  // A 1 TiB declared payload.
  std::ostringstream huge;
  huge.write("TIPSYSS1", 8);
  pipeline::PutVarint(huge, 1ull << 40);
  auto rejected = ha::DecodeSnapshot(huge.str());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kCorrupt);

  // A day count far beyond what the payload could hold, behind a valid
  // CRC so it reaches the count validation.
  HaFixture fixture;
  ha::SnapshotState state;
  state.retrainer = TrainedState(fixture, 10);
  const std::string bytes = ha::EncodeSnapshot(state);
  EXPECT_EQ(ha::DecodeSnapshot(bytes).ok(), true);
  auto truncated = ha::DecodeSnapshot(bytes.substr(0, bytes.size() - 3));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), util::StatusCode::kTruncated);
}

TEST(SnapshotByteFlipFuzz, EveryMutationDecodesIdenticallyOrFailsTyped) {
  HaFixture fixture;
  ha::SnapshotState state;
  state.retrainer = TrainedState(fixture, 26);
  state.applied_seq = 26;
  const std::string original = ha::EncodeSnapshot(state);
  ASSERT_GT(original.size(), 32u);

  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto decoded =
          ha::DecodeSnapshot(scenario::FlipBit(original, byte, bit));
      if (!decoded.ok()) {
        const auto code = decoded.status().code();
        EXPECT_TRUE(code == util::StatusCode::kCorrupt ||
                    code == util::StatusCode::kTruncated ||
                    code == util::StatusCode::kVersionMismatch)
            << "byte " << byte << " bit " << bit << ": "
            << decoded.status().ToString();
        ++rejected;
        continue;
      }
      EXPECT_EQ(ha::EncodeSnapshot(*decoded), original)
          << "silently accepted corruption at byte " << byte << " bit "
          << bit;
    }
  }
  // The payload CRC makes every single-bit flip detectable.
  EXPECT_EQ(rejected, original.size() * 8);
}

// -------------------------------------------------- export/restore state

TEST(RestoreState, ContinuesBitIdenticallyAfterHandoff) {
  HaFixture fixture;
  auto original = fixture.MakeRetrainer();
  for (util::HourIndex h = 0; h < 40; ++h) {
    original.Ingest(h, fixture.HourRows(h));
  }

  auto restored = fixture.MakeRetrainer();
  ASSERT_TRUE(restored.RestoreState(original.ExportState()).ok());
  EXPECT_EQ(restored.health_snapshot(), original.health_snapshot());
  EXPECT_EQ(ServiceBytes(restored.current()),
            ServiceBytes(original.current()));

  // Both continue over the same stream (including retrains at the day
  // boundaries) and never diverge.
  for (util::HourIndex h = 40; h < 90; ++h) {
    original.Ingest(h, fixture.HourRows(h));
    restored.Ingest(h, fixture.HourRows(h));
    if (h % 24 == 0) {
      ASSERT_EQ(ServiceBytes(restored.current()),
                ServiceBytes(original.current()))
          << "diverged by hour " << h;
    }
  }
  EXPECT_EQ(restored.health_snapshot(), original.health_snapshot());
  EXPECT_EQ(ServiceBytes(restored.current()),
            ServiceBytes(original.current()));
}

TEST(RestoreState, DamagedBundleLeavesRetrainerUntouched) {
  HaFixture fixture;
  auto retrainer = fixture.MakeRetrainer();
  for (util::HourIndex h = 0; h < 30; ++h) {
    retrainer.Ingest(h, fixture.HourRows(h));
  }
  const auto before_health = retrainer.health_snapshot();
  const auto before_bytes = ServiceBytes(retrainer.current());

  auto state = retrainer.ExportState();
  state.model_bundle = scenario::FlipBit(state.model_bundle, 40, 3);
  const auto status = retrainer.RestoreState(state);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(retrainer.health_snapshot(), before_health);
  EXPECT_EQ(ServiceBytes(retrainer.current()), before_bytes);
}

// ------------------------------------------------- replica crash matrix

// How the kill-and-restore harness damages the on-disk pair at the crash
// point, mimicking where in the write path the process died.
enum class CrashDamage {
  kClean,            // plain kill between appends
  kTornJournalTail,  // died mid-append, before fsync acked the record
  kSnapshotBitFlip,  // checkpoint rotted on disk
  kSnapshotMissing,  // died before the first checkpoint ever landed
  kStaleTempFile,    // died between snapshot tmp write and rename
};

struct CrashCase {
  const char* name;
  std::size_t crash_at;  // stream event index where the process dies
  CrashDamage damage;
};

TEST(ReplicaCrashMatrix, RestoreIsBitIdenticalToUninterruptedRun) {
  HaFixture fixture;
  const auto events = MakeStream(5 * util::kHoursPerDay);

  // The uninterrupted reference run.
  auto reference = fixture.MakeRetrainer();
  for (const auto& event : events) ApplyEvent(reference, fixture, event);
  const auto reference_health = reference.health_snapshot();
  const std::string reference_bytes = ServiceBytes(reference.current());
  ASSERT_FALSE(reference_bytes.empty());

  const CrashCase cases[] = {
      {"clean_kill_mid_day", 40, CrashDamage::kClean},
      {"clean_kill_late", 100, CrashDamage::kClean},
      {"torn_journal_tail", 70, CrashDamage::kTornJournalTail},
      {"snapshot_bitflip", 60, CrashDamage::kSnapshotBitFlip},
      {"snapshot_missing", 55, CrashDamage::kSnapshotMissing},
      {"stale_temp_file", 52, CrashDamage::kStaleTempFile},
  };
  for (const auto& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    TempDir dir(std::string("crash_") + test_case.name);
    const auto config = fixture.MakeReplicaConfig(dir, "replica");

    // Phase 1: serve until the crash point, then "die" (drop the object,
    // losing all in-memory state).
    std::size_t resume_at = test_case.crash_at;
    {
      auto replica = fixture.OpenReplica(config);
      ASSERT_TRUE(replica.ok()) << replica.status().ToString();
      EXPECT_EQ(replica->recovery().source, ha::RestoreSource::kColdStart);
      for (std::size_t i = 0; i < test_case.crash_at; ++i) {
        ASSERT_TRUE(ApplyEvent(*replica, fixture, events[i]).ok());
      }
    }

    // Phase 2: inflict the damage the crash left behind.
    switch (test_case.damage) {
      case CrashDamage::kClean:
        break;
      case CrashDamage::kTornJournalTail: {
        // Died mid-append of the next event: half a frame on disk, the
        // record unacknowledged - the upstream will retry it, so the
        // resume point does NOT advance.
        auto bytes = util::ReadFileToString(config.journal_path);
        ASSERT_TRUE(bytes.ok());
        ha::JournalRecord torn;
        torn.seq = ha::RecoverJournalBytes(*bytes)->records.size();
        torn.hour = events[test_case.crash_at].hour;
        torn.rows = fixture.HourRows(torn.hour);
        const auto frame = ha::EncodeJournalRecord(torn);
        ASSERT_TRUE(util::WriteFileAtomic(
                        config.journal_path,
                        *bytes + frame.substr(0, frame.size() - 5))
                        .ok());
        break;
      }
      case CrashDamage::kSnapshotBitFlip: {
        auto bytes = util::ReadFileToString(config.snapshot_path);
        ASSERT_TRUE(bytes.ok());
        ASSERT_TRUE(util::WriteFileAtomic(
                        config.snapshot_path,
                        scenario::FlipBit(*bytes, bytes->size() / 2, 4))
                        .ok());
        break;
      }
      case CrashDamage::kSnapshotMissing:
        std::filesystem::remove(config.snapshot_path);
        break;
      case CrashDamage::kStaleTempFile:
        // WriteFileAtomic died before rename: the real snapshot is the
        // older one, the temp sibling is garbage to be ignored.
        ASSERT_TRUE(util::WriteFileAtomic(config.snapshot_path + ".tmp",
                                          "half-written garbage")
                        .ok());
        break;
    }

    // Phase 3: restart, warm-start, finish the stream.
    auto replica = fixture.OpenReplica(config);
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    switch (test_case.damage) {
      case CrashDamage::kSnapshotBitFlip:
        EXPECT_EQ(replica->recovery().source,
                  ha::RestoreSource::kJournalOnly);
        EXPECT_EQ(replica->recovery().snapshot_status.code(),
                  util::StatusCode::kCorrupt);
        break;
      case CrashDamage::kSnapshotMissing:
        EXPECT_EQ(replica->recovery().source,
                  ha::RestoreSource::kJournalOnly);
        break;
      case CrashDamage::kTornJournalTail:
        EXPECT_EQ(replica->recovery().journal_tail_status.code(),
                  util::StatusCode::kTruncated);
        break;
      default:
        EXPECT_EQ(replica->recovery().source,
                  ha::RestoreSource::kSnapshotAndJournal);
        break;
    }
    for (std::size_t i = resume_at; i < events.size(); ++i) {
      ASSERT_TRUE(ApplyEvent(*replica, fixture, events[i]).ok());
    }

    // The acceptance bar: bit-identical model and health counters.
    EXPECT_EQ(ServiceBytes(replica->service()), reference_bytes);
    EXPECT_EQ(replica->retrainer().health_snapshot(), reference_health);
  }
}

// ---------------------------------------------------- replay idempotence

TEST(ReplayIdempotence, SecondReplayIsSkippedEntirely) {
  HaFixture fixture;
  TempDir dir("replay_twice");

  // Source replica produces a journal.
  auto source = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "src"));
  ASSERT_TRUE(source.ok());
  const auto events = MakeStream(3 * util::kHoursPerDay);
  for (const auto& event : events) {
    ASSERT_TRUE(ApplyEvent(*source, fixture, event).ok());
  }
  auto journal_bytes = util::ReadFileToString(
      fixture.MakeReplicaConfig(dir, "src").journal_path);
  ASSERT_TRUE(journal_bytes.ok());
  auto recovery = ha::RecoverJournalBytes(*journal_bytes);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->records.size(), events.size());

  // A fresh standby replays the shipped journal once...
  auto standby = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "dst"));
  ASSERT_TRUE(standby.ok());
  ASSERT_TRUE(standby->Replay(recovery->records).ok());
  const auto once_health = standby->retrainer().health_snapshot();
  const auto once_bytes = ServiceBytes(standby->service());
  EXPECT_EQ(once_bytes, ServiceBytes(source->service()));
  EXPECT_EQ(once_health, source->retrainer().health_snapshot());

  // ...then the whole journal is shipped again: every record is a
  // duplicate, skipped-and-counted, and nothing changes.
  ASSERT_TRUE(standby->Replay(recovery->records).ok());
  EXPECT_EQ(standby->duplicate_records_skipped(), recovery->records.size());
  EXPECT_EQ(standby->retrainer().health_snapshot(), once_health);
  EXPECT_EQ(ServiceBytes(standby->service()), once_bytes);
}

TEST(ReplayIdempotence, DuplicatedAndReorderedBatchesCollapse) {
  HaFixture fixture;
  TempDir dir("replay_mangled");

  auto source = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "src"));
  ASSERT_TRUE(source.ok());
  const auto events = MakeStream(2 * util::kHoursPerDay);
  for (const auto& event : events) {
    ASSERT_TRUE(ApplyEvent(*source, fixture, event).ok());
  }
  auto journal_bytes = util::ReadFileToString(
      fixture.MakeReplicaConfig(dir, "src").journal_path);
  ASSERT_TRUE(journal_bytes.ok());
  const auto records =
      std::move(ha::RecoverJournalBytes(*journal_bytes)->records);

  // The transport duplicated every record and reversed the batch.
  std::vector<ha::JournalRecord> mangled(records.rbegin(), records.rend());
  mangled.insert(mangled.end(), records.begin(), records.end());

  auto standby = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "dst"));
  ASSERT_TRUE(standby.ok());
  ASSERT_TRUE(standby->Replay(mangled).ok());
  EXPECT_EQ(standby->duplicate_records_skipped(), records.size());
  EXPECT_EQ(ServiceBytes(standby->service()),
            ServiceBytes(source->service()));
  EXPECT_EQ(standby->retrainer().health_snapshot(),
            source->retrainer().health_snapshot());

  // A genuine gap is typed corruption, not silent divergence.
  auto gapped = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "gap"));
  ASSERT_TRUE(gapped.ok());
  std::vector<ha::JournalRecord> with_gap(records.begin(),
                                          records.begin() + 3);
  with_gap.push_back(records[5]);
  const auto status = gapped->Replay(with_gap);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kCorrupt);
}

// -------------------------------------------------------------- supervisor

// Builds a FRESH replica that has served `days` full days.
ha::Replica ServedReplica(const HaFixture& fixture, const TempDir& dir,
                          const std::string& name, util::HourIndex days) {
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, name));
  EXPECT_TRUE(replica.ok());
  for (util::HourIndex h = 0; h < days * util::kHoursPerDay + 1; ++h) {
    EXPECT_TRUE(replica->Ingest(h, fixture.HourRows(h)).ok());
  }
  EXPECT_EQ(replica->health(), core::ModelHealth::kFresh);
  return *std::move(replica);
}

TEST(Supervisor, FailoverFailbackStateMachine) {
  HaFixture fixture;
  TempDir dir("supervisor_fsm");
  auto primary = ServedReplica(fixture, dir, "primary", 2);
  auto standby = ServedReplica(fixture, dir, "standby", 2);
  const util::HourIndex t0 = 2 * util::kHoursPerDay + 1;

  ha::SupervisorConfig config;
  config.heartbeat_timeout_hours = 2;
  ha::Supervisor supervisor(&primary, &standby, config);

  // Nothing heard yet: dark plane, the CMS gate must see EXPIRED.
  supervisor.Tick(t0);
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kNone);
  EXPECT_EQ(supervisor.ServingHealth(), core::ModelHealth::kExpired);
  EXPECT_EQ(supervisor.service(), nullptr);

  // Both heartbeating: the primary serves.
  supervisor.ObserveHeartbeat(ha::ReplicaRole::kPrimary, t0);
  supervisor.ObserveHeartbeat(ha::ReplicaRole::kStandby, t0);
  supervisor.Tick(t0);
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kPrimary);
  EXPECT_EQ(supervisor.service(), primary.service());
  EXPECT_TRUE(supervisor.IsAlive(ha::ReplicaRole::kPrimary));

  // The primary goes quiet; within the timeout it keeps serving, past it
  // the standby is promoted - with zero accuracy loss, since the standby
  // ingested the same stream (bit-identical models).
  for (util::HourIndex h = t0 + 1; h <= t0 + 4; ++h) {
    supervisor.ObserveHeartbeat(ha::ReplicaRole::kStandby, h);
    supervisor.Tick(h);
  }
  EXPECT_FALSE(supervisor.IsAlive(ha::ReplicaRole::kPrimary));
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kStandby);
  EXPECT_EQ(supervisor.stats().failovers, 1u);
  EXPECT_EQ(ServiceBytes(supervisor.service()),
            ServiceBytes(primary.service()));

  // The primary comes back FRESH: failback.
  supervisor.ObserveHeartbeat(ha::ReplicaRole::kPrimary, t0 + 5);
  supervisor.ObserveHeartbeat(ha::ReplicaRole::kStandby, t0 + 5);
  supervisor.Tick(t0 + 5);
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kPrimary);
  EXPECT_EQ(supervisor.stats().failbacks, 1u);

  // Both go dark: degrade to NONE, count the unavailability window, and
  // retry promotion a bounded number of times with growing backoff.
  const auto before = supervisor.stats();
  for (util::HourIndex h = t0 + 6; h <= t0 + 30; ++h) {
    supervisor.Tick(h);
  }
  const auto after = supervisor.stats();
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kNone);
  EXPECT_EQ(supervisor.ServingHealth(), core::ModelHealth::kExpired);
  EXPECT_GE(after.unavailable_hours - before.unavailable_hours, 20u);
  const auto attempts = after.promote_attempts - before.promote_attempts;
  EXPECT_GE(attempts, 1u);
  EXPECT_LE(attempts, static_cast<std::uint64_t>(
                          config.max_promote_attempts));
  EXPECT_EQ(after.promote_failures - before.promote_failures, attempts);

  // A heartbeat refills the retry budget and recovery is immediate.
  supervisor.ObserveHeartbeat(ha::ReplicaRole::kStandby, t0 + 31);
  supervisor.Tick(t0 + 31);
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kStandby);
}

TEST(Supervisor, SingleReplicaDeploymentDegradesToNone) {
  HaFixture fixture;
  TempDir dir("supervisor_single");
  auto primary = ServedReplica(fixture, dir, "primary", 2);
  const util::HourIndex t0 = 2 * util::kHoursPerDay + 1;

  ha::Supervisor supervisor(&primary, nullptr);
  supervisor.ObserveHeartbeat(ha::ReplicaRole::kPrimary, t0);
  supervisor.Tick(t0);
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kPrimary);
  for (util::HourIndex h = t0 + 1; h <= t0 + 5; ++h) supervisor.Tick(h);
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kNone);
  EXPECT_EQ(supervisor.ServingHealth(), core::ModelHealth::kExpired);
}

// The TSan target: heartbeats land from replica threads while the query
// path reads routing and an operator thread polls stats. Run with
// TIPSY_SANITIZE=thread (tools/run_sanitized_fuzz.sh does).
TEST(Supervisor, ConcurrentHeartbeatsTicksAndReadsAreSafe) {
  HaFixture fixture;
  TempDir dir("supervisor_threads");
  auto primary = ServedReplica(fixture, dir, "primary", 2);
  auto standby = ServedReplica(fixture, dir, "standby", 2);
  const util::HourIndex t0 = 2 * util::kHoursPerDay + 1;
  ha::Supervisor supervisor(&primary, &standby, {});

  constexpr int kHours = 200;
  std::thread primary_beats([&] {
    for (int h = 0; h < kHours; ++h) {
      supervisor.ObserveHeartbeat(ha::ReplicaRole::kPrimary, t0 + h);
    }
  });
  std::thread standby_beats([&] {
    for (int h = 0; h < kHours; ++h) {
      supervisor.ObserveHeartbeat(ha::ReplicaRole::kStandby, t0 + h);
    }
  });
  std::thread ticker([&] {
    for (int h = 0; h < kHours; ++h) supervisor.Tick(t0 + h);
  });
  std::uint64_t reads = 0;
  std::thread reader([&] {
    for (int h = 0; h < kHours; ++h) {
      if (supervisor.service() != nullptr) ++reads;
      (void)supervisor.ServingHealth();
      (void)supervisor.stats();
      (void)supervisor.IsAlive(ha::ReplicaRole::kPrimary);
    }
  });
  primary_beats.join();
  standby_beats.join();
  ticker.join();
  reader.join();

  EXPECT_EQ(supervisor.stats().heartbeats_observed,
            static_cast<std::uint64_t>(2 * kHours));
  supervisor.Tick(t0 + kHours);
  EXPECT_NE(supervisor.serving(), ha::ServingSource::kNone);
}

// ------------------------------------------------- heartbeat fault channel

TEST(HeartbeatFaults, PartitionDropsEverythingAndIsDeterministic) {
  HaFixture fixture;
  TempDir dir("hb_partition");
  auto primary = ServedReplica(fixture, dir, "primary", 2);
  auto standby = ServedReplica(fixture, dir, "standby", 2);
  const util::HourIndex t0 = 2 * util::kHoursPerDay + 1;

  ha::Supervisor supervisor(&primary, &standby, {});
  scenario::HeartbeatFaultConfig faults;
  // The primary's heartbeats are partitioned away for hours [t0+3, t0+9).
  faults.partitioned = {util::HourRange{t0 + 3, t0 + 9}};
  scenario::FaultyHeartbeatChannel channel(supervisor, faults);

  for (util::HourIndex h = t0; h < t0 + 12; ++h) {
    channel.Send(ha::ReplicaRole::kPrimary, h);
    supervisor.ObserveHeartbeat(ha::ReplicaRole::kStandby, h);
    channel.DeliverDueBy(h);
    supervisor.Tick(h);
  }
  // 6 partitioned hours dropped; the supervisor failed over and back.
  EXPECT_EQ(channel.dropped(), 6u);
  EXPECT_GE(supervisor.stats().failovers, 1u);
  EXPECT_GE(supervisor.stats().failbacks, 1u);
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kPrimary);
}

TEST(HeartbeatFaults, DelayedHeartbeatsArriveLateDeterministically) {
  HaFixture fixture;
  TempDir dir("hb_delay");
  auto primary = ServedReplica(fixture, dir, "primary", 2);
  const util::HourIndex t0 = 2 * util::kHoursPerDay + 1;

  auto run = [&](std::uint64_t seed) {
    ha::Supervisor supervisor(&primary, nullptr);
    scenario::HeartbeatFaultConfig faults;
    faults.seed = seed;
    faults.delay_rate = 0.5;
    faults.max_delay_hours = 2;
    scenario::FaultyHeartbeatChannel channel(supervisor, faults);
    std::vector<int> serving_primary;
    for (util::HourIndex h = t0; h < t0 + 30; ++h) {
      channel.Send(ha::ReplicaRole::kPrimary, h);
      channel.DeliverDueBy(h);
      supervisor.Tick(h);
      serving_primary.push_back(
          supervisor.serving() == ha::ServingSource::kPrimary ? 1 : 0);
    }
    return std::tuple(channel.delivered(), channel.delayed(),
                      serving_primary);
  };
  const auto first = run(7);
  const auto second = run(7);
  EXPECT_EQ(first, second);  // same seed, same fates
  EXPECT_GT(std::get<1>(first), 0u);
  // A delay of at most 2h never exceeds the 2h liveness timeout budget
  // by itself, but the channel must actually have delivered something.
  EXPECT_GT(std::get<0>(first), 0u);
}

// ------------------------------------------------------ multi-standby quorum

// Remote members (nullptr replica) are known only through reported
// heartbeats; promotion ranks by health, then applied_seq, then the
// configured rank, then member index.
TEST(Quorum, RankedPromotionPrefersProgressThenConfiguredRank) {
  ha::SupervisorConfig config;
  config.heartbeat_timeout_hours = 2;
  ha::Supervisor supervisor(nullptr, nullptr, config);
  const int a = supervisor.AddStandby(nullptr, /*configured_rank=*/1);
  const int b = supervisor.AddStandby(nullptr, /*configured_rank=*/0);
  const int c = supervisor.AddStandby(nullptr, /*configured_rank=*/2);
  ASSERT_EQ(a, 2);
  ASSERT_EQ(b, 3);
  ASSERT_EQ(c, 4);
  EXPECT_EQ(supervisor.member_count(), 5u);

  // All FRESH; `a` has the most journal progress and wins despite the
  // worse configured rank — applied_seq outranks configuration.
  supervisor.ObserveMemberHeartbeat(2, 10, /*applied_seq=*/200,
                                    core::ModelHealth::kFresh);
  supervisor.ObserveMemberHeartbeat(3, 10, /*applied_seq=*/150,
                                    core::ModelHealth::kFresh);
  supervisor.ObserveMemberHeartbeat(4, 10, /*applied_seq=*/150,
                                    core::ModelHealth::kFresh);
  supervisor.Tick(10);
  EXPECT_EQ(supervisor.serving_member(), 2);
  // Remote member: the supervisor routes, it does not hold the model.
  EXPECT_EQ(supervisor.service(), nullptr);
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kStandby);
  EXPECT_EQ(supervisor.ServingHealth(), core::ModelHealth::kFresh);

  // `a` dies. `b` and `c` tie on applied_seq; the configured rank breaks
  // the tie (b's 0 beats c's 2).
  supervisor.ObserveMemberHeartbeat(3, 13, 150, core::ModelHealth::kFresh);
  supervisor.ObserveMemberHeartbeat(4, 13, 150, core::ModelHealth::kFresh);
  supervisor.Tick(13);
  EXPECT_FALSE(supervisor.IsMemberAlive(2));
  EXPECT_EQ(supervisor.serving_member(), 3);

  // A STALE member loses to a FRESH one regardless of progress.
  supervisor.ObserveMemberHeartbeat(3, 14, 500, core::ModelHealth::kStale);
  supervisor.ObserveMemberHeartbeat(4, 14, 150, core::ModelHealth::kFresh);
  supervisor.Tick(14);
  EXPECT_EQ(supervisor.serving_member(), 4);
}

TEST(Quorum, MinorityPartitionDegradesToNoneInsteadOfSplitBrain) {
  ha::SupervisorConfig config;
  config.heartbeat_timeout_hours = 2;
  config.require_quorum = true;
  ha::Supervisor supervisor(nullptr, nullptr, config);
  supervisor.AddStandby(nullptr, 0);  // member 2
  supervisor.AddStandby(nullptr, 1);  // member 3
  supervisor.AddStandby(nullptr, 2);  // member 4
  // 5 members total (the constructor pair never heartbeats here), so a
  // strict majority needs 3 alive.

  // Only member 2 is reachable: 1 alive of 5 — an otherwise-servable
  // FRESH standby must NOT be promoted from the minority side.
  supervisor.ObserveMemberHeartbeat(2, 10, 100, core::ModelHealth::kFresh);
  supervisor.Tick(10);
  EXPECT_EQ(supervisor.serving_member(), -1);
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kNone);
  EXPECT_EQ(supervisor.ServingHealth(), core::ModelHealth::kExpired);
  EXPECT_GE(supervisor.quorum_blocked(), 1u);

  // Two more members heard from: 3 of 5 alive — majority, promote.
  const auto blocked_before = supervisor.quorum_blocked();
  supervisor.ObserveMemberHeartbeat(3, 11, 90, core::ModelHealth::kFresh);
  supervisor.ObserveMemberHeartbeat(4, 11, 80, core::ModelHealth::kFresh);
  supervisor.ObserveMemberHeartbeat(2, 11, 100, core::ModelHealth::kFresh);
  supervisor.Tick(11);
  EXPECT_EQ(supervisor.serving_member(), 2);
  EXPECT_EQ(supervisor.quorum_blocked(), blocked_before);

  // The partition heals the other way: members 3+4 keep beating, 2 goes
  // quiet. 2 of 5 is not a majority once 2 times out — dark again.
  for (util::HourIndex h = 12; h <= 15; ++h) {
    supervisor.ObserveMemberHeartbeat(3, h, 90, core::ModelHealth::kFresh);
    supervisor.ObserveMemberHeartbeat(4, h, 80, core::ModelHealth::kFresh);
    supervisor.Tick(h);
  }
  EXPECT_FALSE(supervisor.IsMemberAlive(2));
  EXPECT_EQ(supervisor.serving_member(), -1);
  EXPECT_GT(supervisor.quorum_blocked(), blocked_before);
}

TEST(Quorum, LocalStandbysJoinTheRankingAndQuorumIsNotGatedOffPrimary) {
  HaFixture fixture;
  TempDir dir("quorum_local");
  auto primary = ServedReplica(fixture, dir, "primary", 2);
  auto standby = ServedReplica(fixture, dir, "standby", 2);
  auto extra = ServedReplica(fixture, dir, "extra", 2);
  const util::HourIndex t0 = 2 * util::kHoursPerDay + 1;

  ha::SupervisorConfig config;
  config.heartbeat_timeout_hours = 2;
  config.require_quorum = true;
  ha::Supervisor supervisor(&primary, &standby, config);
  const int extra_index = supervisor.AddStandby(&extra, /*rank=*/0);
  ASSERT_EQ(extra_index, 2);

  // All three beating: the primary serves; quorum never gates the
  // incumbent.
  supervisor.ObserveMemberHeartbeat(0, t0, primary.applied_seq(),
                                    primary.health());
  supervisor.ObserveMemberHeartbeat(1, t0, standby.applied_seq(),
                                    standby.health());
  supervisor.ObserveMemberHeartbeat(2, t0, extra.applied_seq(),
                                    extra.health());
  supervisor.Tick(t0);
  EXPECT_EQ(supervisor.serving_member(), 0);
  EXPECT_EQ(supervisor.service(), primary.service());

  // The added standby out-progresses member 1; when the primary dies the
  // ranking picks the local replica with the larger applied_seq and the
  // query path gets its in-process model.
  for (util::HourIndex h = 2 * util::kHoursPerDay + 1;
       h < 2 * util::kHoursPerDay + 4; ++h) {
    EXPECT_TRUE(extra.Ingest(h, fixture.HourRows(h)).ok());
  }
  ASSERT_GT(extra.applied_seq(), standby.applied_seq());
  for (util::HourIndex h = t0 + 1; h <= t0 + 4; ++h) {
    supervisor.ObserveMemberHeartbeat(1, h, standby.applied_seq(),
                                      standby.health());
    supervisor.ObserveMemberHeartbeat(2, h, extra.applied_seq(),
                                      extra.health());
    supervisor.Tick(h);
  }
  EXPECT_FALSE(supervisor.IsMemberAlive(0));
  EXPECT_EQ(supervisor.serving_member(), 2);
  EXPECT_EQ(supervisor.service(), extra.service());
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kStandby);
}

}  // namespace
}  // namespace tipsy
