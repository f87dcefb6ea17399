// The networked serving plane (src/net): wire codecs, the framed
// TIPSYHJ1 stream decoder, tipsyd's four listeners over loopback, the
// reconnecting clients, and the socket fault matrix.
//
// The load-bearing property mirrors ha_test's: after any injected
// network fault — reset mid-frame, partition, refused connections, slow
// drip — the daemon's replica must be *bit-identical* (core::SaveService
// bytes) to one fed the same hours in-process with no network at all.
// Idempotent resume means zero duplicate applications, not "mostly one".
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cms/whatif.h"
#include "core/online.h"
#include "core/serialize.h"
#include "ha/journal.h"
#include "ha/replica.h"
#include "net/auth.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/socket.h"
#include "net/wire.h"
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

std::string ServiceBytes(const core::TipsyService* service) {
  if (service == nullptr) return {};
  std::ostringstream out;
  core::SaveService(*service, out);
  return out.str();
}

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("tipsy_net_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }

  [[nodiscard]] std::string File(const std::string& name) const {
    return (path / name).string();
  }

  std::filesystem::path path;
};

struct NetFixture {
  NetFixture()
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

  [[nodiscard]] ha::ReplicaConfig MakeReplicaConfig(
      const TempDir& dir, const std::string& prefix) const {
    ha::ReplicaConfig config;
    config.journal_path = dir.File(prefix + ".journal");
    config.snapshot_path = dir.File(prefix + ".snapshot");
    config.fsync_appends = false;
    return config;
  }

  [[nodiscard]] util::StatusOr<ha::Replica> OpenReplica(
      const ha::ReplicaConfig& config) const {
    return ha::Replica::Open(&wan, &topology.metros, /*window_days=*/3, {},
                             {}, config);
  }

  // Default auth for every daemon and client the fixture builds,
  // resolved from TIPSY_AUTH_KEY: CI's net-auth leg re-runs this entire
  // suite over the authenticated v2 wire just by exporting the key.
  // Tests that pin a specific key (or its absence) set .auth themselves
  // and are unaffected — a mismatched env key still refuses, which is
  // what those tests assert.
  [[nodiscard]] static net::AuthKey EnvAuth() {
    auto key = net::ResolveAuthKey("");
    return key.ok() ? *key : net::AuthKey{};
  }

  [[nodiscard]] net::DaemonConfig FastDaemonConfig() const {
    net::DaemonConfig config;
    config.io_deadline_ms = 500;
    config.idle_poll_ms = 10;
    config.auth = EnvAuth();
    return config;
  }

  [[nodiscard]] net::ClientConfig FastClientConfig(std::uint16_t port) const {
    net::ClientConfig config;
    config.port = port;
    config.connect_timeout_ms = 500;
    config.io_deadline_ms = 300;
    config.backoff.initial_ms = 5;
    config.backoff.max_ms = 50;
    config.auth = EnvAuth();
    return config;
  }

  topo::GeneratedTopology topology;
  wan::Wan wan;
};

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

std::string ScrapeMetrics(std::uint16_t port) {
  auto socket = net::Connect("127.0.0.1", port, 1000);
  if (!socket.ok()) return {};
  (void)socket->SetReadDeadline(2000);
  (void)socket->SetWriteDeadline(2000);
  if (!socket->SendAll("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").ok()) {
    return {};
  }
  std::string response;
  for (;;) {
    auto chunk = socket->RecvSome(4096);
    if (!chunk.ok()) break;  // kNoData once the daemon closes
    response += *chunk;
  }
  return response;
}

// ------------------------------------------------------------- wire codecs

TEST(WireCodec, EnvelopeRoundTripsEveryType) {
  const std::string payload = "the payload";
  for (const auto type :
       {net::MessageType::kIngestHello, net::MessageType::kIngestAck,
        net::MessageType::kShipRequest, net::MessageType::kPredictRequest,
        net::MessageType::kPredictResponse, net::MessageType::kHeartbeat}) {
    const std::string bytes = net::EncodeMessage(type, payload);
    std::size_t pos = 0;
    auto message = net::DecodeMessage(bytes, pos);
    ASSERT_TRUE(message.ok()) << message.status().ToString();
    EXPECT_EQ(message->type, type);
    EXPECT_EQ(message->payload, payload);
    EXPECT_EQ(pos, bytes.size());
  }
}

TEST(WireCodec, PayloadCodecsRoundTrip) {
  const net::IngestHello hello{net::kWireProtocolVersion, ""};
  auto hello2 = net::DecodeIngestHello(net::EncodeIngestHello(hello));
  ASSERT_TRUE(hello2.ok());
  EXPECT_EQ(hello2->protocol_version, hello.protocol_version);

  net::IngestAck ack;
  ack.last_applied_hour = 123;
  ack.next_seq = 77;
  auto ack2 = net::DecodeIngestAck(net::EncodeIngestAck(ack));
  ASSERT_TRUE(ack2.ok());
  EXPECT_EQ(ack2->last_applied_hour, ack.last_applied_hour);
  EXPECT_EQ(ack2->next_seq, ack.next_seq);
  // The "nothing applied yet" sentinel survives the zigzag.
  net::IngestAck fresh;
  auto fresh2 = net::DecodeIngestAck(net::EncodeIngestAck(fresh));
  ASSERT_TRUE(fresh2.ok());
  EXPECT_EQ(fresh2->last_applied_hour, -1);

  net::ShipRequest ship;
  ship.from_seq = 99;
  auto ship2 = net::DecodeShipRequest(net::EncodeShipRequest(ship));
  ASSERT_TRUE(ship2.ok());
  EXPECT_EQ(ship2->from_seq, ship.from_seq);

  net::HeartbeatReport beat;
  beat.member_index = 2;
  beat.hour = 48;
  beat.applied_seq = 1234;
  beat.health = core::ModelHealth::kStale;
  auto beat2 = net::DecodeHeartbeat(net::EncodeHeartbeat(beat));
  ASSERT_TRUE(beat2.ok());
  EXPECT_EQ(beat2->member_index, beat.member_index);
  EXPECT_EQ(beat2->hour, beat.hour);
  EXPECT_EQ(beat2->applied_seq, beat.applied_seq);
  EXPECT_EQ(beat2->health, beat.health);
}

TEST(WireCodec, AckCreditsAndSnapshotPayloadsRoundTrip) {
  // IngestAck v2: the batched-ack cursor and the credit window survive
  // the varints (these two fields ARE the backpressure protocol).
  net::IngestAck ack;
  ack.last_applied_hour = 123;
  ack.next_seq = 500;
  ack.acked_wire_seq = 77;
  ack.credits = 64;
  auto ack2 = net::DecodeIngestAck(net::EncodeIngestAck(ack));
  ASSERT_TRUE(ack2.ok()) << ack2.status().ToString();
  EXPECT_EQ(ack2->acked_wire_seq, 77u);
  EXPECT_EQ(ack2->credits, 64u);

  net::SnapshotOffer offer;
  offer.applied_seq = 1234;
  offer.total_bytes = 987654;
  offer.total_crc32c = 0xdeadbeef;
  auto offer2 = net::DecodeSnapshotOffer(net::EncodeSnapshotOffer(offer));
  ASSERT_TRUE(offer2.ok()) << offer2.status().ToString();
  EXPECT_EQ(offer2->protocol_version, net::kWireProtocolVersion);
  EXPECT_EQ(offer2->applied_seq, 1234u);
  EXPECT_EQ(offer2->total_bytes, 987654u);
  EXPECT_EQ(offer2->total_crc32c, 0xdeadbeefu);

  // Chunk data is opaque snapshot bytes: NULs and high bytes included.
  net::SnapshotChunk chunk;
  chunk.index = 3;
  chunk.data = "snapshot bytes";
  chunk.data.push_back('\0');
  chunk.data.push_back('\xff');
  auto chunk2 = net::DecodeSnapshotChunk(net::EncodeSnapshotChunk(chunk));
  ASSERT_TRUE(chunk2.ok()) << chunk2.status().ToString();
  EXPECT_EQ(chunk2->index, 3u);
  EXPECT_EQ(chunk2->data, chunk.data);
  net::SnapshotChunk empty;
  auto empty2 = net::DecodeSnapshotChunk(net::EncodeSnapshotChunk(empty));
  ASSERT_TRUE(empty2.ok()) << empty2.status().ToString();
  EXPECT_TRUE(empty2->data.empty());

  // Every truncation of the offer refuses with a typed code — a partial
  // parse here would start a transfer against the wrong seq or CRC.
  const std::string offer_bytes = net::EncodeSnapshotOffer(offer);
  for (std::size_t keep = 0; keep < offer_bytes.size(); ++keep) {
    EXPECT_FALSE(
        net::DecodeSnapshotOffer(offer_bytes.substr(0, keep)).ok())
        << "accepted " << keep << "-byte prefix";
  }
}

TEST(WireCodec, PredictPayloadsRoundTripBitExactly) {
  NetFixture fixture;
  net::PredictRequest request;
  for (const auto& row : fixture.HourRows(7)) {
    request.flows.push_back(
        {core::FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service},
         static_cast<double>(row.bytes) * 1.25});
  }
  request.excluded = {util::LinkId{0}, util::LinkId{3}, util::LinkId{4}};
  auto request2 =
      net::DecodePredictRequest(net::EncodePredictRequest(request));
  ASSERT_TRUE(request2.ok()) << request2.status().ToString();
  ASSERT_EQ(request2->flows.size(), request.flows.size());
  for (std::size_t i = 0; i < request.flows.size(); ++i) {
    EXPECT_EQ(request2->flows[i].flow.src_asn.value(),
              request.flows[i].flow.src_asn.value());
    EXPECT_EQ(request2->flows[i].flow.src_prefix24,
              request.flows[i].flow.src_prefix24);
    EXPECT_EQ(request2->flows[i].bytes, request.flows[i].bytes);
  }
  ASSERT_EQ(request2->excluded.size(), request.excluded.size());
  for (std::size_t i = 0; i < request.excluded.size(); ++i) {
    EXPECT_EQ(request2->excluded[i].value(), request.excluded[i].value());
  }

  net::PredictResponse response;
  response.prediction.shifted = {{util::LinkId{1}, 100.5},
                                 {util::LinkId{6}, 0.125}};
  response.prediction.unpredicted_bytes = 17.75;
  response.health = core::ModelHealth::kExpired;
  auto response2 =
      net::DecodePredictResponse(net::EncodePredictResponse(response));
  ASSERT_TRUE(response2.ok()) << response2.status().ToString();
  ASSERT_EQ(response2->prediction.shifted.size(), 2u);
  EXPECT_EQ(response2->prediction.shifted[0].first.value(), 1u);
  EXPECT_EQ(response2->prediction.shifted[0].second, 100.5);
  EXPECT_EQ(response2->prediction.shifted[1].second, 0.125);
  EXPECT_EQ(response2->prediction.unpredicted_bytes, 17.75);
  EXPECT_EQ(response2->health, core::ModelHealth::kExpired);
}

TEST(WireCodec, WhatIfPayloadsRoundTripBitExactly) {
  NetFixture fixture;
  net::WhatIfRequest request;
  request.rows = fixture.HourRows(7);
  request.link_loads = {0.0, 1.5e12, 3.25, 0.0, 7e9, 0.125, 0.0, 42.0};
  request.candidates.push_back({util::LinkId{2}, {}});  // drain
  request.candidates.push_back(
      {util::LinkId{5}, {util::PrefixId{1}, util::PrefixId{9}}});
  request.prediction_k = 5;
  request.safety_headroom = 0.9;
  auto request2 =
      net::DecodeWhatIfRequest(net::EncodeWhatIfRequest(request));
  ASSERT_TRUE(request2.ok()) << request2.status().ToString();
  ASSERT_EQ(request2->rows.size(), request.rows.size());
  for (std::size_t i = 0; i < request.rows.size(); ++i) {
    EXPECT_EQ(request2->rows[i].link, request.rows[i].link);
    EXPECT_EQ(request2->rows[i].dest_prefix, request.rows[i].dest_prefix);
    EXPECT_EQ(request2->rows[i].bytes, request.rows[i].bytes);
  }
  EXPECT_EQ(request2->link_loads, request.link_loads);
  ASSERT_EQ(request2->candidates.size(), 2u);
  EXPECT_EQ(request2->candidates[0].link, util::LinkId{2});
  EXPECT_TRUE(request2->candidates[0].prefixes.empty());
  ASSERT_EQ(request2->candidates[1].prefixes.size(), 2u);
  EXPECT_EQ(request2->candidates[1].prefixes[1], util::PrefixId{9});
  EXPECT_EQ(request2->prediction_k, 5u);
  EXPECT_EQ(request2->safety_headroom, 0.9);

  net::WhatIfResponse response;
  cms::WhatIfReport report;
  report.candidate_index = 1;
  report.link = util::LinkId{5};
  report.matched_bytes = 1000.25;
  report.moved_bytes = 900.5;
  report.unpredicted_bytes = 99.75;
  report.safe = false;
  report.spills.push_back({util::LinkId{3}, 900.5, 1.0625, true});
  response.reports.push_back(report);
  response.health = core::ModelHealth::kStale;
  response.drift_state = core::DriftState::kDrifting;
  auto response2 =
      net::DecodeWhatIfResponse(net::EncodeWhatIfResponse(response));
  ASSERT_TRUE(response2.ok()) << response2.status().ToString();
  ASSERT_EQ(response2->reports.size(), 1u);
  const auto& decoded = response2->reports[0];
  EXPECT_EQ(decoded.candidate_index, 1u);
  EXPECT_EQ(decoded.link, util::LinkId{5});
  EXPECT_EQ(decoded.matched_bytes, 1000.25);
  EXPECT_EQ(decoded.moved_bytes, 900.5);
  EXPECT_EQ(decoded.unpredicted_bytes, 99.75);
  EXPECT_FALSE(decoded.safe);
  ASSERT_EQ(decoded.spills.size(), 1u);
  EXPECT_EQ(decoded.spills[0].link, util::LinkId{3});
  EXPECT_EQ(decoded.spills[0].bytes, 900.5);
  EXPECT_EQ(decoded.spills[0].projected_utilization, 1.0625);
  EXPECT_TRUE(decoded.spills[0].over_headroom);
  EXPECT_EQ(response2->health, core::ModelHealth::kStale);
  EXPECT_EQ(response2->drift_state, core::DriftState::kDrifting);

  // Every truncation of either payload fails typed - never a crash,
  // never a silently shorter parse.
  const std::string request_bytes = net::EncodeWhatIfRequest(request);
  for (std::size_t keep = 0; keep < request_bytes.size(); ++keep) {
    auto damaged = net::DecodeWhatIfRequest(request_bytes.substr(0, keep));
    ASSERT_FALSE(damaged.ok()) << "request cut at " << keep;
    const auto code = damaged.status().code();
    EXPECT_TRUE(code == util::StatusCode::kTruncated ||
                code == util::StatusCode::kCorrupt)
        << "request cut at " << keep << ": " << damaged.status().ToString();
  }
  const std::string response_bytes = net::EncodeWhatIfResponse(response);
  for (std::size_t keep = 0; keep < response_bytes.size(); ++keep) {
    auto damaged =
        net::DecodeWhatIfResponse(response_bytes.substr(0, keep));
    ASSERT_FALSE(damaged.ok()) << "response cut at " << keep;
    const auto code = damaged.status().code();
    EXPECT_TRUE(code == util::StatusCode::kTruncated ||
                code == util::StatusCode::kCorrupt)
        << "response cut at " << keep << ": "
        << damaged.status().ToString();
  }
}

// Every single-byte flip of a valid envelope must decode to a typed
// error (or a strictly shorter valid parse) — never a crash, never an
// uncaught mutation: the CRC covers the type byte and the payload, and
// the header fields are each validated.
TEST(WireCodec, EnvelopeByteFlipFuzzIsTyped) {
  const std::string bytes = net::EncodeMessage(
      net::MessageType::kPredictRequest, "some payload bytes here");
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = scenario::FlipBit(bytes, i, bit);
      std::size_t pos = 0;
      auto message = net::DecodeMessage(damaged, pos);
      ASSERT_FALSE(message.ok())
          << "flip at byte " << i << " bit " << bit << " went undetected";
      const auto code = message.status().code();
      EXPECT_TRUE(code == util::StatusCode::kCorrupt ||
                  code == util::StatusCode::kTruncated)
          << "byte " << i << " bit " << bit << ": "
          << message.status().ToString();
    }
  }
}

TEST(WireCodec, EnvelopeTruncationIsTruncated) {
  const std::string bytes =
      net::EncodeMessage(net::MessageType::kHeartbeat, "payload");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::size_t pos = 0;
    auto message = net::DecodeMessage(bytes.substr(0, cut), pos);
    ASSERT_FALSE(message.ok()) << "cut at " << cut;
    EXPECT_EQ(message.status().code(), util::StatusCode::kTruncated)
        << "cut at " << cut << ": " << message.status().ToString();
  }
}

// ---------------------------------------------------- journal stream codec

std::vector<ha::JournalRecord> MakeJournalRecords(const NetFixture& fixture,
                                                  std::uint64_t base_seq,
                                                  int count) {
  std::vector<ha::JournalRecord> records;
  for (int i = 0; i < count; ++i) {
    ha::JournalRecord record;
    record.seq = base_seq + static_cast<std::uint64_t>(i);
    record.hour = static_cast<util::HourIndex>(i);
    if (i % 3 == 2) {
      record.kind = ha::JournalRecordKind::kHeartbeat;
    } else {
      record.kind = ha::JournalRecordKind::kIngest;
      record.rows = fixture.HourRows(record.hour);
    }
    records.push_back(std::move(record));
  }
  return records;
}

std::string EncodeStream(const std::vector<ha::JournalRecord>& records,
                         std::vector<std::size_t>* boundaries = nullptr) {
  std::string stream(ha::JournalMagic());
  if (boundaries != nullptr) boundaries->push_back(stream.size());
  for (const auto& record : records) {
    stream += ha::EncodeJournalRecord(record);
    if (boundaries != nullptr) boundaries->push_back(stream.size());
  }
  return stream;
}

TEST(JournalStream, DecodesOneByteAtATime) {
  NetFixture fixture;
  const auto records = MakeJournalRecords(fixture, /*base_seq=*/5, 6);
  const std::string stream = EncodeStream(records);

  net::JournalStreamDecoder decoder(/*base_seq=*/5);
  std::vector<ha::JournalRecord> out;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(stream.substr(i, 1), out).ok()) << "byte " << i;
  }
  EXPECT_TRUE(decoder.Finish().ok()) << decoder.Finish().ToString();
  ASSERT_EQ(out.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(out[i].seq, records[i].seq);
    EXPECT_EQ(out[i].kind, records[i].kind);
    EXPECT_EQ(out[i].hour, records[i].hour);
    EXPECT_EQ(out[i].rows.size(), records[i].rows.size());
  }
  EXPECT_EQ(decoder.next_seq(), 11u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(JournalStream, ByteFlipFuzzIsTypedNeverCrashes) {
  NetFixture fixture;
  const auto records = MakeJournalRecords(fixture, 0, 4);
  const std::string stream = EncodeStream(records);

  for (std::size_t i = 0; i < stream.size(); ++i) {
    for (int bit : {0, 3, 7}) {
      const std::string damaged = scenario::FlipBit(stream, i, bit);
      net::JournalStreamDecoder decoder(0);
      std::vector<ha::JournalRecord> out;
      const auto fed = decoder.Feed(damaged, out);
      const auto finished = decoder.Finish();
      // A flip may truncate framing (longer claimed length) or corrupt a
      // frame (CRC / magic / seq), but it must never decode the full
      // stream clean, and the failure must be typed.
      const bool clean = fed.ok() && finished.ok() &&
                         out.size() == records.size();
      ASSERT_FALSE(clean) << "flip at byte " << i << " bit " << bit
                          << " went undetected";
      const util::Status& failure = fed.ok() ? finished : fed;
      const auto code = failure.code();
      EXPECT_TRUE(code == util::StatusCode::kCorrupt ||
                  code == util::StatusCode::kTruncated ||
                  code == util::StatusCode::kVersionMismatch)
          << "byte " << i << " bit " << bit << ": " << failure.ToString();
      EXPECT_LT(out.size(), records.size() + 1);
    }
  }
}

TEST(JournalStream, TruncationIsTornExactlyOffFrameBoundaries) {
  NetFixture fixture;
  const auto records = MakeJournalRecords(fixture, 0, 4);
  std::vector<std::size_t> boundaries;
  const std::string stream = EncodeStream(records, &boundaries);

  for (std::size_t cut = 1; cut <= stream.size(); ++cut) {
    net::JournalStreamDecoder decoder(0);
    std::vector<ha::JournalRecord> out;
    ASSERT_TRUE(decoder.Feed(stream.substr(0, cut), out).ok())
        << "cut at " << cut;
    const bool on_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    const auto finished = decoder.Finish();
    if (on_boundary) {
      EXPECT_TRUE(finished.ok()) << "cut at " << cut;
    } else {
      EXPECT_EQ(finished.code(), util::StatusCode::kTruncated)
          << "cut at " << cut;
    }
    // Only whole verified frames surface, regardless of the cut.
    std::size_t complete = 0;
    while (complete < boundaries.size() - 1 &&
           boundaries[complete + 1] <= cut) {
      ++complete;
    }
    EXPECT_EQ(out.size(), complete) << "cut at " << cut;
  }
}

TEST(JournalStream, SequenceGapIsCorrupt) {
  NetFixture fixture;
  auto records = MakeJournalRecords(fixture, 0, 4);
  records[2].seq = 7;  // gap: 0, 1, 7, 3
  std::string stream(ha::JournalMagic());
  for (const auto& record : records) {
    stream += ha::EncodeJournalRecord(record);
  }
  net::JournalStreamDecoder decoder(0);
  std::vector<ha::JournalRecord> out;
  const auto fed = decoder.Feed(stream, out);
  EXPECT_EQ(fed.code(), util::StatusCode::kCorrupt);
  EXPECT_EQ(out.size(), 2u);
  // Poisoned: the same error comes back for every later feed.
  EXPECT_EQ(decoder.Feed("more", out).code(), util::StatusCode::kCorrupt);
  EXPECT_EQ(decoder.Finish().code(), util::StatusCode::kCorrupt);
}

TEST(JournalStream, WrongMagicIsTypedExactlyLikeFileRecovery) {
  std::string wrong_version(ha::JournalMagic());
  wrong_version.back() = '9';
  net::JournalStreamDecoder decoder_version(0);
  std::vector<ha::JournalRecord> out;
  EXPECT_EQ(decoder_version.Feed(wrong_version, out).code(),
            util::StatusCode::kVersionMismatch);

  net::JournalStreamDecoder decoder_magic(0);
  EXPECT_EQ(decoder_magic.Feed("NOTMYFMT", out).code(),
            util::StatusCode::kCorrupt);
}

// ------------------------------------------------------------ daemon E2E

TEST(Daemon, PredictIngestMetricsEndToEnd) {
  NetFixture fixture;
  TempDir dir("daemon_e2e");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();

  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  // Control: the same hours with no network at all.
  core::DailyRetrainer control(&fixture.wan, &fixture.topology.metros,
                               /*window_days=*/3);

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  const util::HourIndex hours = 26;  // crosses one day boundary: a retrain
  for (util::HourIndex h = 0; h < hours; ++h) {
    const auto rows = fixture.HourRows(h);
    ASSERT_TRUE(collector.SendHour(h, rows).ok()) << "hour " << h;
    control.Ingest(h, rows);
  }
  EXPECT_EQ(daemon.frames_applied(), static_cast<std::uint64_t>(hours));
  EXPECT_EQ(daemon.last_applied_hour(), hours - 1);
  EXPECT_EQ(daemon.health(), core::ModelHealth::kFresh);

  // The served model is bit-identical to the in-process run.
  EXPECT_EQ(ServiceBytes(replica->service()), ServiceBytes(control.current()));
  EXPECT_EQ(replica->retrainer().health_snapshot(),
            control.health_snapshot());

  // Predict over the wire == PredictShift in-process, bit for bit.
  net::PredictRequest request;
  for (const auto& row : fixture.HourRows(30)) {
    request.flows.push_back(
        {core::FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service},
         static_cast<double>(row.bytes)});
  }
  request.excluded = {util::LinkId{0}};
  net::PredictClient predict(
      fixture.FastClientConfig(daemon.predict_port()));
  auto response = predict.Predict(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->health, core::ModelHealth::kFresh);

  core::ExclusionMask mask(fixture.wan.link_count(), false);
  mask[0] = true;
  const auto local = control.current()->PredictShift(request.flows, mask);
  ASSERT_EQ(response->prediction.shifted.size(), local.shifted.size());
  for (std::size_t i = 0; i < local.shifted.size(); ++i) {
    EXPECT_EQ(response->prediction.shifted[i].first.value(),
              local.shifted[i].first.value());
    EXPECT_EQ(response->prediction.shifted[i].second,
              local.shifted[i].second);
  }
  EXPECT_EQ(response->prediction.unpredicted_bytes, local.unpredicted_bytes);

  // /metrics serves the registry over HTTP with the daemon's counters.
  const std::string scrape = ScrapeMetrics(daemon.metrics_port());
  EXPECT_NE(scrape.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(scrape.find("tipsyd_net_frames_applied_total 26"),
            std::string::npos)
      << scrape;
  EXPECT_NE(scrape.find("tipsyd_net_predict_requests_total 1"),
            std::string::npos);
  EXPECT_GE(daemon.metrics_scrapes(), 1u);

  daemon.Stop();
  EXPECT_FALSE(daemon.running());
}

// The what-if RPC answers from the same published epoch as Predict: the
// ranked report list over the wire must equal a local
// cms::WhatIfSimulator sweep against the bit-identical control model.
TEST(Daemon, WhatIfSweepOverTheWireMatchesLocalSimulator) {
  NetFixture fixture;
  TempDir dir("daemon_whatif");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();

  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  core::DailyRetrainer control(&fixture.wan, &fixture.topology.metros,
                               /*window_days=*/3);
  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  for (util::HourIndex h = 0; h < 26; ++h) {
    const auto rows = fixture.HourRows(h);
    ASSERT_TRUE(collector.SendHour(h, rows).ok()) << "hour " << h;
    control.Ingest(h, rows);
  }
  ASSERT_EQ(ServiceBytes(replica->service()),
            ServiceBytes(control.current()));

  net::WhatIfRequest request;
  request.rows = fixture.HourRows(30);
  request.link_loads.assign(fixture.wan.link_count(), 0.0);
  for (const auto& row : request.rows) {
    request.link_loads[row.link.value()] +=
        static_cast<double>(row.bytes);
  }
  for (std::uint32_t link = 0;
       link < static_cast<std::uint32_t>(fixture.wan.link_count());
       ++link) {
    request.candidates.push_back({util::LinkId{link}, {}});
  }
  request.candidates.push_back({util::LinkId{0}, {util::PrefixId{1}}});

  net::PredictClient client(
      fixture.FastClientConfig(daemon.predict_port()));
  auto response = client.WhatIf(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->health, core::ModelHealth::kFresh);
  EXPECT_EQ(response->drift_state, core::DriftState::kStable);
  EXPECT_EQ(daemon.whatif_requests(), 1u);

  const cms::WhatIfSimulator simulator(&fixture.wan, control.current(),
                                       cms::WhatIfOptions{});
  const auto local = simulator.Sweep(request.rows, request.link_loads,
                                     request.candidates);
  ASSERT_EQ(response->reports.size(), local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(response->reports[i].candidate_index,
              local[i].candidate_index);
    EXPECT_EQ(response->reports[i].link, local[i].link);
    EXPECT_EQ(response->reports[i].matched_bytes, local[i].matched_bytes);
    EXPECT_EQ(response->reports[i].moved_bytes, local[i].moved_bytes);
    EXPECT_EQ(response->reports[i].unpredicted_bytes,
              local[i].unpredicted_bytes);
    EXPECT_EQ(response->reports[i].safe, local[i].safe);
    ASSERT_EQ(response->reports[i].spills.size(), local[i].spills.size());
    for (std::size_t s = 0; s < local[i].spills.size(); ++s) {
      EXPECT_EQ(response->reports[i].spills[s].link,
                local[i].spills[s].link);
      EXPECT_EQ(response->reports[i].spills[s].bytes,
                local[i].spills[s].bytes);
      EXPECT_EQ(response->reports[i].spills[s].projected_utilization,
                local[i].spills[s].projected_utilization);
      EXPECT_EQ(response->reports[i].spills[s].over_headroom,
                local[i].spills[s].over_headroom);
    }
  }

  // The counter renders under the daemon prefix like every other one.
  const std::string scrape = ScrapeMetrics(daemon.metrics_port());
  EXPECT_NE(scrape.find("tipsyd_net_whatif_requests_total 1"),
            std::string::npos)
      << scrape;

  daemon.Stop();
}

// Obs counter parity (ObsCounterParity pattern): every accessor must
// equal what the registry renders — one underlying cell, no double
// bookkeeping drifting apart.
TEST(Daemon, NetCountersMatchRegistryRendering) {
  NetFixture fixture;
  TempDir dir("daemon_parity");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok());

  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  for (util::HourIndex h = 0; h < 5; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }
  // A duplicate hour exercises the skip counter: a fresh client whose
  // handshake learns hour 4 is applied resolves 0..4 locally.
  net::CollectorClient late(fixture.FastClientConfig(daemon.ingest_port()),
                            &registry, "late_collector");
  for (util::HourIndex h = 0; h < 5; ++h) {
    ASSERT_TRUE(late.SendHour(h, fixture.HourRows(h)).ok());
  }
  EXPECT_EQ(late.hours_skipped(), 5u);
  EXPECT_EQ(late.hours_sent(), 0u);
  EXPECT_EQ(daemon.frames_applied(), 5u);

  const std::string text = registry.RenderPrometheusText();
  const auto expect_line = [&](const std::string& name, std::uint64_t value) {
    const std::string line = name + " " + std::to_string(value) + "\n";
    EXPECT_NE(text.find(line), std::string::npos)
        << "missing `" << line << "` in:\n" << text;
  };
  expect_line("tipsyd_net_frames_applied_total", daemon.frames_applied());
  expect_line("tipsyd_net_frames_skipped_total", daemon.frames_skipped());
  expect_line("tipsyd_net_connections_total", daemon.connections_accepted());
  expect_line("collector_net_hours_sent_total", collector.hours_sent());
  expect_line("late_collector_net_hours_skipped_total",
              late.hours_skipped());
  // The backoff histogram renders with bucket/sum/count series.
  EXPECT_NE(text.find("collector_net_backoff_ms_count"), std::string::npos);

  daemon.Stop();
}

// The crash/partition matrix over real sockets: the collector is driven
// through the fault proxy across reset-mid-frame, partition, refused
// connections, slow drip and delay — and the daemon's replica must come
// out bit-identical to an uninterrupted in-process run, with every hour
// applied exactly once.
TEST(Daemon, CollectorSurvivesFaultMatrixWithZeroDuplicateApplies) {
  NetFixture fixture;
  TempDir dir("daemon_faults");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok());

  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  scenario::SocketFaultProxyConfig proxy_cfg;
  proxy_cfg.upstream_port = daemon.ingest_port();
  scenario::SocketFaultProxy proxy(proxy_cfg);
  ASSERT_TRUE(proxy.Start().ok());

  net::CollectorClient collector(fixture.FastClientConfig(proxy.port()),
                                 &registry, "collector");
  core::DailyRetrainer control(&fixture.wan, &fixture.topology.metros,
                               /*window_days=*/3);

  const util::HourIndex hours = 30;
  for (util::HourIndex h = 0; h < hours; ++h) {
    std::thread healer;
    switch (h) {
      case 10: {
        // Cut the connection inside a frame, then heal once it happened.
        proxy.set_mode(scenario::ProxyMode::kResetMidFrame);
        const auto resets_before = proxy.resets_injected();
        healer = std::thread([&proxy, resets_before] {
          while (proxy.resets_injected() == resets_before) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          proxy.set_mode(scenario::ProxyMode::kPass);
        });
        break;
      }
      case 15:
        // Partition: black-hole live bytes for a while, then heal.
        proxy.set_mode(scenario::ProxyMode::kPartition);
        healer = std::thread([&proxy] {
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
          proxy.set_mode(scenario::ProxyMode::kPass);
          proxy.DropConnections();  // the stale black-holed connection
        });
        break;
      case 20:
        // Daemon "down": connections refused, then it comes back.
        proxy.set_mode(scenario::ProxyMode::kRefuse);
        proxy.DropConnections();
        healer = std::thread([&proxy] {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          proxy.set_mode(scenario::ProxyMode::kPass);
        });
        break;
      case 24:
        proxy.set_mode(scenario::ProxyMode::kSlowDrip);
        break;
      case 25:
        proxy.set_mode(scenario::ProxyMode::kDelay);
        break;
      case 26:
        proxy.set_mode(scenario::ProxyMode::kPass);
        break;
      default:
        break;
    }
    const auto rows = fixture.HourRows(h);
    ASSERT_TRUE(collector.SendHour(h, rows).ok()) << "hour " << h;
    control.Ingest(h, rows);
    if (healer.joinable()) healer.join();
  }

  EXPECT_GE(proxy.resets_injected(), 1u);
  EXPECT_GE(collector.reconnects(), 2u);

  // Exactly-once application: 30 hours in, 30 frames applied, and the
  // model + health counters are bit-identical to the no-network run
  // (dropped_hours included — duplicates never even reached the replica).
  EXPECT_EQ(daemon.frames_applied(), static_cast<std::uint64_t>(hours));
  EXPECT_EQ(daemon.last_applied_hour(), hours - 1);
  EXPECT_EQ(ServiceBytes(replica->service()), ServiceBytes(control.current()));
  EXPECT_EQ(replica->retrainer().health_snapshot(),
            control.health_snapshot());

  // And the journal holds exactly one record per hour, contiguous.
  daemon.Stop();
  proxy.Stop();
  auto reopened = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(reopened.ok());
  std::size_t ingest_records = 0;
  for (const auto& record : reopened->journal().recovered().records) {
    if (record.kind == ha::JournalRecordKind::kIngest) ++ingest_records;
  }
  EXPECT_EQ(ingest_records, static_cast<std::size_t>(hours));
}

TEST(Daemon, ShippingStandbyResumesFromAppliedSeqWithZeroDuplicates) {
  NetFixture fixture;
  TempDir dir("daemon_ship");
  auto primary = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "p"));
  ASSERT_TRUE(primary.ok());
  auto standby = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "s"));
  ASSERT_TRUE(standby.ok());

  obs::Registry registry;
  net::Daemon daemon(&*primary, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  for (util::HourIndex h = 0; h < 30; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }

  // First shipping session: catch up 0 -> 30.
  {
    net::ShippingClient shipper(&*standby,
                                fixture.FastClientConfig(daemon.ship_port()),
                                &registry, "shipper");
    shipper.Start();
    ASSERT_TRUE(WaitUntil([&] { return shipper.applied_seq() == 30; }, 5000))
        << "caught up only to seq " << shipper.applied_seq();
    shipper.Stop();
  }
  EXPECT_EQ(standby->applied_seq(), 30u);
  EXPECT_EQ(standby->duplicate_records_skipped(), 0u);

  // The primary moves on while shipping is down.
  for (util::HourIndex h = 30; h < 50; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }

  // Second session resumes from the standby's applied_seq: only the 20
  // missing records travel, and nothing is applied twice.
  {
    net::ShippingClient shipper(&*standby,
                                fixture.FastClientConfig(daemon.ship_port()),
                                &registry, "shipper2");
    shipper.Start();
    ASSERT_TRUE(WaitUntil([&] { return shipper.applied_seq() == 50; }, 5000))
        << "caught up only to seq " << shipper.applied_seq();
    EXPECT_EQ(shipper.records_applied(), 20u);
    shipper.Stop();
  }
  EXPECT_EQ(standby->applied_seq(), 50u);
  EXPECT_EQ(standby->duplicate_records_skipped(), 0u);
  EXPECT_EQ(ServiceBytes(standby->service()),
            ServiceBytes(primary->service()));
  EXPECT_EQ(standby->retrainer().health_snapshot(),
            primary->retrainer().health_snapshot());

  daemon.Stop();
}

TEST(Daemon, SnapshotCatchUpRestoresCompactedBaseBitIdentical) {
  // A standby whose from_seq predates the primary's compacted journal
  // base cannot be served by journal replay alone: the daemon offers a
  // chunked, CRC-gated snapshot and streams the journal tail after it.
  // The standby must end bit-identical with zero duplicate applies.
  NetFixture fixture;
  TempDir dir("daemon_snapcatch");
  auto primary_config = fixture.MakeReplicaConfig(dir, "p");
  primary_config.compact_after_snapshot = true;
  auto primary = fixture.OpenReplica(primary_config);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();

  obs::Registry registry;
  net::Daemon daemon(&*primary, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  for (util::HourIndex h = 0; h < 30; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }
  // The day crossing at hour 24 snapshotted and compacted: the journal
  // no longer reaches back to seq 0.
  ASSERT_GT(primary->journal().base_seq(), 0u);
  ASSERT_EQ(primary->applied_seq(), 30u);

  auto standby = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "s"));
  ASSERT_TRUE(standby.ok()) << standby.status().ToString();
  net::ShippingClient shipper(&*standby,
                              fixture.FastClientConfig(daemon.ship_port()),
                              &registry, "shipper");
  shipper.Start();
  ASSERT_TRUE(WaitUntil([&] { return shipper.applied_seq() == 30; }, 5000))
      << "caught up only to seq " << shipper.applied_seq();
  shipper.Stop();

  EXPECT_EQ(shipper.snapshot_catchups(), 1u);
  EXPECT_GT(shipper.snapshot_bytes_received(), 0u);
  // The compacted prefix arrived as state, not as replayed records.
  EXPECT_LT(shipper.records_applied(), 30u);
  EXPECT_EQ(standby->applied_seq(), 30u);
  EXPECT_EQ(standby->duplicate_records_skipped(), 0u);
  EXPECT_EQ(ServiceBytes(standby->service()),
            ServiceBytes(primary->service()));
  EXPECT_EQ(standby->retrainer().health_snapshot(),
            primary->retrainer().health_snapshot());
  daemon.Stop();
}

TEST(Daemon, BaseAdvancePastStandbyCursorForcesSnapshotPath) {
  // Session 1 ships the journal from genesis. The primary then compacts
  // past the standby's cursor while shipping is down, so session 2's
  // from_seq lands below the journal base — replay resume is impossible
  // and the daemon must fall back to a snapshot offer mid-lifecycle.
  NetFixture fixture;
  TempDir dir("daemon_base_advance");
  auto primary_config = fixture.MakeReplicaConfig(dir, "p");
  primary_config.compact_after_snapshot = true;
  auto primary = fixture.OpenReplica(primary_config);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  auto standby = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "s"));
  ASSERT_TRUE(standby.ok()) << standby.status().ToString();

  obs::Registry registry;
  net::Daemon daemon(&*primary, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  for (util::HourIndex h = 0; h < 20; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }

  // Session 1: plain journal replay, no snapshot involved.
  {
    net::ShippingClient shipper(&*standby,
                                fixture.FastClientConfig(daemon.ship_port()),
                                &registry, "shipper");
    shipper.Start();
    ASSERT_TRUE(WaitUntil([&] { return shipper.applied_seq() == 20; }, 5000))
        << "caught up only to seq " << shipper.applied_seq();
    shipper.Stop();
    EXPECT_EQ(shipper.snapshot_catchups(), 0u);
  }

  // The primary crosses two day boundaries while shipping is down; the
  // second checkpoint compacts the base well past the standby's seq 20.
  for (util::HourIndex h = 20; h < 50; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }
  ASSERT_GT(primary->journal().base_seq(), 20u);

  // Session 2: from_seq 20 is gone from the journal — snapshot path.
  {
    net::ShippingClient shipper(&*standby,
                                fixture.FastClientConfig(daemon.ship_port()),
                                &registry, "shipper2");
    shipper.Start();
    ASSERT_TRUE(WaitUntil([&] { return shipper.applied_seq() == 50; }, 5000))
        << "caught up only to seq " << shipper.applied_seq();
    shipper.Stop();
    EXPECT_EQ(shipper.snapshot_catchups(), 1u);
    EXPECT_GT(shipper.snapshot_bytes_received(), 0u);
  }
  EXPECT_EQ(standby->applied_seq(), 50u);
  EXPECT_EQ(standby->duplicate_records_skipped(), 0u);
  EXPECT_EQ(ServiceBytes(standby->service()),
            ServiceBytes(primary->service()));
  EXPECT_EQ(standby->retrainer().health_snapshot(),
            primary->retrainer().health_snapshot());
  daemon.Stop();
}

TEST(Daemon, StandbyStaysOnJournalTailAcrossDayBoundaries) {
  // Every day boundary checkpoints and compacts the primary's journal. A
  // connected standby must follow the tail straight through: each record
  // streamed exactly once, no snapshot catch-up, no reconnect, while the
  // primary's journal base still advances.
  NetFixture fixture;
  TempDir dir("daemon_tail_days");
  auto primary_config = fixture.MakeReplicaConfig(dir, "p");
  primary_config.compact_after_snapshot = true;
  auto primary = fixture.OpenReplica(primary_config);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  auto standby = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "s"));
  ASSERT_TRUE(standby.ok()) << standby.status().ToString();

  obs::Registry registry;
  net::Daemon daemon(&*primary, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());
  net::ShippingClient shipper(&*standby,
                              fixture.FastClientConfig(daemon.ship_port()),
                              &registry, "shipper");
  shipper.Start();
  ASSERT_TRUE(WaitUntil([&] { return daemon.ship_streams() == 1; }, 5000));

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  // Four day boundaries, each a checkpoint plus a compaction.
  constexpr util::HourIndex kHours = 4 * util::kHoursPerDay + 6;
  for (util::HourIndex h = 0; h < kHours; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok()) << h;
  }
  const auto fed = static_cast<std::uint64_t>(kHours);
  ASSERT_TRUE(WaitUntil([&] { return shipper.applied_seq() == fed; }, 10000))
      << "standby applied only to seq " << shipper.applied_seq();
  EXPECT_TRUE(WaitUntil([&] { return daemon.ship_lag_seq() == 0.0; }, 5000));

  EXPECT_EQ(shipper.snapshot_catchups(), 0u);
  EXPECT_EQ(shipper.reconnects(), 0u);
  EXPECT_EQ(shipper.records_applied(), fed);
  EXPECT_EQ(daemon.ship_streams(), 1u);
  EXPECT_EQ(daemon.ship_frames_sent(), fed);
  EXPECT_EQ(daemon.snapshot_transfers(), 0u);
  // Compaction kept running: the base sits at or past the checkpoint
  // before the last one (day 3's, through seq 73).
  EXPECT_GE(primary->journal().base_seq(), 3u * util::kHoursPerDay + 1);
  shipper.Stop();

  EXPECT_EQ(standby->applied_seq(), fed);
  EXPECT_EQ(standby->duplicate_records_skipped(), 0u);
  EXPECT_EQ(ServiceBytes(standby->service()),
            ServiceBytes(primary->service()));
  EXPECT_EQ(standby->retrainer().health_snapshot(),
            primary->retrainer().health_snapshot());
  daemon.Stop();
}

TEST(Daemon, CompactionBetweenTailReadsShipsEverySeqOnceVerbatim) {
  // A raw ship stream reads the first day, then the boundary's compaction
  // replaces the journal file before the next read. The stream must carry
  // every seq exactly once, as the bytes the journal files held.
  NetFixture fixture;
  TempDir dir("daemon_tail_compact");
  auto primary_config = fixture.MakeReplicaConfig(dir, "p");
  primary_config.compact_after_snapshot = true;
  auto primary = fixture.OpenReplica(primary_config);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();

  obs::Registry registry;
  const net::DaemonConfig config = fixture.FastDaemonConfig();
  net::Daemon daemon(&*primary, &registry, config);
  ASSERT_TRUE(daemon.Start().ok());
  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  const auto feed = [&](util::HourIndex first, util::HourIndex last) {
    for (util::HourIndex h = first; h < last; ++h) {
      ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok()) << h;
    }
  };
  feed(0, util::kHoursPerDay);

  auto socket = net::Connect("127.0.0.1", daemon.ship_port(), 1000);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  ASSERT_TRUE(socket->SetReadDeadline(20).ok());
  net::ShipRequest request;
  request.from_seq = 0;
  ASSERT_TRUE(socket
                  ->SendAll(net::EncodeMessage(net::MessageType::kShipRequest,
                                               net::EncodeShipRequest(request),
                                               config.auth))
                  .ok());
  std::string wire;
  net::JournalStreamDecoder decoder(/*base_seq=*/0);
  std::vector<ha::JournalRecord> records;
  const auto receive_through = [&](std::uint64_t seq) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (decoder.next_seq() < seq &&
           std::chrono::steady_clock::now() < deadline) {
      auto bytes = socket->RecvSome(64 * 1024);
      if (!bytes.ok()) {
        ASSERT_EQ(bytes.status().code(), util::StatusCode::kUnavailable)
            << bytes.status().ToString();
        continue;
      }
      wire += *bytes;
      ASSERT_TRUE(decoder.Feed(*bytes, records).ok())
          << decoder.status().ToString();
    }
    ASSERT_EQ(decoder.next_seq(), seq);
  };
  receive_through(util::kHoursPerDay);
  auto before = util::ReadFileToString(primary_config.journal_path);
  ASSERT_TRUE(before.ok());

  // Hour 24 crosses the day: checkpoint, then compaction rewrites the
  // file under the stream's open tail.
  feed(util::kHoursPerDay, util::kHoursPerDay + 6);
  const auto fed = static_cast<std::uint64_t>(util::kHoursPerDay + 6);
  receive_through(fed);
  ASSERT_GT(primary->journal().base_seq(), 0u);
  auto after = util::ReadFileToString(primary_config.journal_path);
  ASSERT_TRUE(after.ok());

  std::string expected(ha::JournalMagic());
  for (std::uint64_t seq = 0; seq < fed; ++seq) {
    ha::JournalRecord record;
    record.seq = seq;
    record.hour = static_cast<util::HourIndex>(seq);
    record.rows = fixture.HourRows(record.hour);
    expected += ha::EncodeJournalRecord(record);
  }
  EXPECT_EQ(wire, expected);
  // Verbatim against both files: the pre-compaction file is a prefix of
  // the stream and the compacted file's frames are its suffix.
  EXPECT_EQ(wire.compare(0, before->size(), *before), 0);
  const std::size_t kept = after->size() - ha::JournalMagic().size();
  ASSERT_LE(kept, wire.size());
  EXPECT_EQ(wire.compare(wire.size() - kept, kept, *after,
                         ha::JournalMagic().size(), kept),
            0);
  EXPECT_EQ(daemon.ship_frames_sent(), fed);
  EXPECT_EQ(daemon.snapshot_transfers(), 0u);
  socket->Close();
  daemon.Stop();
}

TEST(Daemon, StalledStandbyFallsBackToCatchUpWithTheJournalBounded) {
  // A standby stalls behind a partition while the primary crosses three
  // day boundaries. Its stream must not hold the journal past the
  // previous checkpoint; once the stall ends in a reset, the standby
  // finds its cursor compacted away, takes a snapshot catch-up and
  // converges bit-identically.
  NetFixture fixture;
  TempDir dir("daemon_tail_stall");
  auto primary_config = fixture.MakeReplicaConfig(dir, "p");
  primary_config.compact_after_snapshot = true;
  auto primary = fixture.OpenReplica(primary_config);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  auto standby = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "s"));
  ASSERT_TRUE(standby.ok()) << standby.status().ToString();

  obs::Registry registry;
  net::Daemon daemon(&*primary, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());
  scenario::SocketFaultProxyConfig proxy_cfg;
  proxy_cfg.upstream_port = daemon.ship_port();
  scenario::SocketFaultProxy proxy(proxy_cfg);
  ASSERT_TRUE(proxy.Start().ok());
  net::ShippingClient shipper(&*standby,
                              fixture.FastClientConfig(proxy.port()),
                              &registry, "shipper");
  shipper.Start();
  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  for (util::HourIndex h = 0; h < 10; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return shipper.applied_seq() == 10; }, 5000));

  proxy.set_mode(scenario::ProxyMode::kPartition);
  std::uint64_t previous_checkpoint = 0;
  constexpr util::HourIndex kHours = 3 * util::kHoursPerDay + 10;
  for (util::HourIndex h = 10; h < kHours; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
    if (h % util::kHoursPerDay == 0) {
      // Bounded: never held back past the previous checkpoint.
      EXPECT_GE(primary->journal().base_seq(), previous_checkpoint) << h;
      EXPECT_LE(primary->standby_retained_records(),
                static_cast<std::uint64_t>(util::kHoursPerDay))
          << h;
      previous_checkpoint = primary->last_snapshot_seq();
    }
  }
  EXPECT_EQ(shipper.applied_seq(), 10u);  // nothing crossed the partition
  ASSERT_GT(primary->journal().base_seq(), 10u);

  proxy.DropConnections();
  proxy.set_mode(scenario::ProxyMode::kPass);
  const auto fed = static_cast<std::uint64_t>(kHours);
  ASSERT_TRUE(WaitUntil([&] { return shipper.applied_seq() == fed; }, 10000))
      << "standby applied only to seq " << shipper.applied_seq();
  shipper.Stop();
  EXPECT_GE(shipper.snapshot_catchups(), 1u);
  EXPECT_EQ(standby->duplicate_records_skipped(), 0u);
  EXPECT_EQ(ServiceBytes(standby->service()),
            ServiceBytes(primary->service()));
  EXPECT_EQ(standby->retrainer().health_snapshot(),
            primary->retrainer().health_snapshot());
  proxy.Stop();
  daemon.Stop();
}

TEST(Daemon, BatchedAcksAmortizeFsyncsUnderCreditWindow) {
  // Pipelined collector against a 16-credit window: the daemon drains
  // whatever arrived per read as ONE journal sync + ONE ack, so acks
  // come out fewer than records and the in-flight count never exceeds
  // the advertised window.
  NetFixture fixture;
  TempDir dir("daemon_backpressure");
  auto primary = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "p"));
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();

  obs::Registry registry;
  auto daemon_config = fixture.FastDaemonConfig();
  daemon_config.ingest_window = 16;
  net::Daemon daemon(&*primary, &registry, daemon_config);
  ASSERT_TRUE(daemon.Start().ok());

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  for (util::HourIndex h = 0; h < 80; ++h) {
    ASSERT_TRUE(collector.SendHourAsync(h, fixture.HourRows(h)).ok());
    EXPECT_LE(collector.inflight_records(), 16u);
  }
  ASSERT_TRUE(collector.Flush().ok());

  EXPECT_EQ(primary->applied_seq(), 80u);
  EXPECT_EQ(collector.pending_records(), 0u);
  EXPECT_EQ(collector.last_credits(), 16u);
  // Batching really happened: multiple records per daemon drain, and a
  // single ack (single fsync) covering each batch.
  EXPECT_GT(daemon.ingest_batches(), 0u);
  EXPECT_GT(daemon.ingest_batched_records(), daemon.ingest_batches());
  EXPECT_LT(collector.acks_received(), collector.hours_sent());
  EXPECT_EQ(primary->duplicate_records_skipped(), 0u);
  daemon.Stop();
}

TEST(Daemon, ZeroCreditWindowDegradesToLockStep) {
  // ingest_window = 0: every ack advertises zero credits, so the
  // collector falls back to one-record-in-flight probing. Slower, but
  // nothing is lost and nothing is applied twice.
  NetFixture fixture;
  TempDir dir("daemon_lockstep");
  auto primary = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "p"));
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();

  obs::Registry registry;
  auto daemon_config = fixture.FastDaemonConfig();
  daemon_config.ingest_window = 0;
  net::Daemon daemon(&*primary, &registry, daemon_config);
  ASSERT_TRUE(daemon.Start().ok());

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  for (util::HourIndex h = 0; h < 12; ++h) {
    ASSERT_TRUE(collector.SendHourAsync(h, fixture.HourRows(h)).ok());
    EXPECT_LE(collector.inflight_records(), 1u);
  }
  ASSERT_TRUE(collector.Flush().ok());

  EXPECT_EQ(primary->applied_seq(), 12u);
  EXPECT_EQ(collector.last_credits(), 0u);
  // Lock-step means at least one ack per record.
  EXPECT_GE(collector.acks_received(), 12u);
  EXPECT_EQ(primary->duplicate_records_skipped(), 0u);
  daemon.Stop();
}

TEST(Daemon, DarkFeedDegradesFreshStaleExpiredWhileStillServing) {
  NetFixture fixture;
  TempDir dir("daemon_dark");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok());

  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  for (util::HourIndex h = 0; h < 2 * util::kHoursPerDay; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }
  ASSERT_EQ(daemon.health(), core::ModelHealth::kFresh);
  const std::string fresh_bytes = ServiceBytes(replica->service());
  ASSERT_FALSE(fresh_bytes.empty());

  net::PredictRequest request;
  for (const auto& row : fixture.HourRows(99)) {
    request.flows.push_back(
        {core::FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service},
         static_cast<double>(row.bytes)});
  }
  net::PredictClient predict(
      fixture.FastClientConfig(daemon.predict_port()));

  // The collector goes dark; the embedding process keeps the clock
  // ticking. Age 2 days -> STALE.
  ASSERT_TRUE(daemon.AdvanceClock(3 * util::kHoursPerDay).ok());
  EXPECT_EQ(daemon.health(), core::ModelHealth::kStale);
  auto stale_response = predict.Predict(request);
  ASSERT_TRUE(stale_response.ok());
  EXPECT_EQ(stale_response->health, core::ModelHealth::kStale);

  // Past the validity horizon -> EXPIRED: the daemon still answers from
  // the last-good model (graceful degradation), stamping the health a
  // remote CMS needs to fall back to its legacy gate.
  ASSERT_TRUE(daemon.AdvanceClock(10 * util::kHoursPerDay).ok());
  EXPECT_EQ(daemon.health(), core::ModelHealth::kExpired);
  auto expired_response = predict.Predict(request);
  ASSERT_TRUE(expired_response.ok());
  EXPECT_EQ(expired_response->health, core::ModelHealth::kExpired);
  // The last-good model keeps serving (it re-trains as the window slides,
  // but never unloads).
  EXPECT_NE(replica->service(), nullptr);
  // A late tick behind the applied clock is ignored, not a time warp.
  ASSERT_TRUE(daemon.AdvanceClock(0).ok());
  EXPECT_EQ(daemon.health(), core::ModelHealth::kExpired);

  daemon.Stop();
}

TEST(Daemon, PredictPathSurvivesSlowDripAndPartitionHeal) {
  NetFixture fixture;
  TempDir dir("daemon_predict_faults");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok());

  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry,
      "collector");
  for (util::HourIndex h = 0; h < 26; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }

  scenario::SocketFaultProxyConfig proxy_cfg;
  proxy_cfg.upstream_port = daemon.predict_port();
  scenario::SocketFaultProxy proxy(proxy_cfg);
  ASSERT_TRUE(proxy.Start().ok());

  net::PredictRequest request;
  for (const auto& row : fixture.HourRows(50)) {
    request.flows.push_back(
        {core::FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service},
         static_cast<double>(row.bytes)});
  }

  net::PredictClient predict(fixture.FastClientConfig(proxy.port()),
                             /*max_attempts=*/2);
  // Baseline through the proxy.
  ASSERT_TRUE(predict.Predict(request).ok());

  // Slow drip: the envelope arrives one byte at a time; the daemon's
  // buffered reader must reassemble it instead of timing out away the
  // partial bytes.
  proxy.set_mode(scenario::ProxyMode::kSlowDrip);
  auto dripped = predict.Predict(request);
  EXPECT_TRUE(dripped.ok()) << dripped.status().ToString();

  // Partition: requests go unanswered and the bounded retry reports
  // kUnavailable — the caller's signal to degrade, not hang.
  proxy.set_mode(scenario::ProxyMode::kPartition);
  proxy.DropConnections();
  auto partitioned = predict.Predict(request);
  ASSERT_FALSE(partitioned.ok());
  EXPECT_EQ(partitioned.status().code(), util::StatusCode::kUnavailable);
  EXPECT_GE(predict.failures(), 1u);

  // Heal: the same client reconnects and answers again.
  proxy.set_mode(scenario::ProxyMode::kPass);
  auto healed = predict.Predict(request);
  EXPECT_TRUE(healed.ok()) << healed.status().ToString();

  daemon.Stop();
  proxy.Stop();
}

// ------------------------------------------- heartbeat sockets and quorum

TEST(Quorum, SocketHeartbeatsDriveRankedPromotion) {
  // A fully remote quorum plane: the supervisor knows its members only
  // through heartbeats arriving over a real socket. Members 2 and 3 are
  // added standbys (the constructor pair stays empty).
  ha::SupervisorConfig sup_cfg;
  sup_cfg.heartbeat_timeout_hours = 2;
  ha::Supervisor supervisor(nullptr, nullptr, sup_cfg);
  const int member_a = supervisor.AddStandby(nullptr, /*configured_rank=*/0);
  const int member_b = supervisor.AddStandby(nullptr, /*configured_rank=*/1);
  ASSERT_EQ(member_a, 2);
  ASSERT_EQ(member_b, 3);

  net::HeartbeatListener listener([&](const net::HeartbeatReport& report) {
    supervisor.ObserveMemberHeartbeat(report.member_index, report.hour,
                                      report.applied_seq, report.health);
  });
  ASSERT_TRUE(listener.Start(/*port=*/0).ok());

  std::atomic<util::HourIndex> clock{0};
  std::atomic<bool> a_alive{true};
  net::ClientConfig hb_cfg;
  hb_cfg.port = listener.port();
  hb_cfg.connect_timeout_ms = 500;
  hb_cfg.backoff.initial_ms = 5;
  hb_cfg.backoff.max_ms = 50;

  net::HeartbeatSender sender_a(hb_cfg, /*interval_ms=*/10, [&] {
    net::HeartbeatReport report;
    report.member_index = 2;
    report.hour = clock.load();
    report.applied_seq = 100;  // more journal progress than member 3
    report.health = a_alive.load() ? core::ModelHealth::kFresh
                                   : core::ModelHealth::kNone;
    return report;
  });
  net::HeartbeatSender sender_b(hb_cfg, /*interval_ms=*/10, [&] {
    net::HeartbeatReport report;
    report.member_index = 3;
    report.hour = clock.load();
    report.applied_seq = 60;
    report.health = core::ModelHealth::kFresh;
    return report;
  });
  sender_a.Start();
  sender_b.Start();

  // Both report FRESH at equal rank: the applied_seq tiebreak elects the
  // member that lost the least journal progress.
  ASSERT_TRUE(WaitUntil(
      [&] {
        supervisor.Tick(clock.load());
        return supervisor.serving_member() == 2;
      },
      5000))
      << "serving_member=" << supervisor.serving_member();
  // Routed member is remote: the supervisor routes, queries go over that
  // member's own predict port.
  EXPECT_EQ(supervisor.service(), nullptr);
  EXPECT_EQ(supervisor.ServingHealth(), core::ModelHealth::kFresh);

  // Member 2 "dies": its reports stop carrying a servable model and the
  // clock moves past the heartbeat timeout. Routing must fail over to
  // member 3 — the next-ranked standby.
  a_alive.store(false);
  sender_a.Stop();
  ASSERT_TRUE(WaitUntil(
      [&] {
        clock.fetch_add(1);
        supervisor.Tick(clock.load());
        return supervisor.serving_member() == 3;
      },
      5000))
      << "serving_member=" << supervisor.serving_member();
  EXPECT_FALSE(supervisor.IsMemberAlive(2));
  EXPECT_TRUE(supervisor.IsMemberAlive(3));
  EXPECT_GE(listener.received(), 2u);

  sender_b.Stop();
  listener.Stop();
}

// ------------------------------------------------------------- wire auth

TEST(WireAuth, KeyDerivationIsDeterministicTrimmedAndFileLoadable) {
  const auto key = net::AuthKey::FromSecret("hunter2");
  ASSERT_TRUE(key.present);
  EXPECT_EQ(key, net::AuthKey::FromSecret("hunter2"));
  // Key files routinely end in a newline; the derivation must not care.
  EXPECT_EQ(key, net::AuthKey::FromSecret("  hunter2\n"));
  EXPECT_NE(key, net::AuthKey::FromSecret("hunter3"));
  EXPECT_FALSE(net::AuthKey::FromSecret("").present);
  EXPECT_FALSE(net::AuthKey::FromSecret(" \n\t").present);

  // The MAC moves with key, and with data.
  const auto other = net::AuthKey::FromSecret("hunter3");
  EXPECT_NE(net::SipHash24(key, "payload"), net::SipHash24(other, "payload"));
  EXPECT_NE(net::SipHash24(key, "payload"), net::SipHash24(key, "payloae"));

  TempDir dir("auth_keys");
  {
    std::ofstream out(dir.File("key"));
    out << "hunter2\n";
  }
  auto loaded = net::LoadAuthKeyFile(dir.File("key"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, key);
  {
    std::ofstream out(dir.File("empty"));
    out << "  \n";
  }
  EXPECT_EQ(net::LoadAuthKeyFile(dir.File("empty")).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(net::LoadAuthKeyFile(dir.File("missing")).status().code(),
            util::StatusCode::kIoError);
}

TEST(WireAuth, AuthedEnvelopeRoundTripsUnderTheSameKey) {
  const auto key = net::AuthKey::FromSecret("fleet secret");
  const std::string payload = "authenticated payload";
  const std::string bytes =
      net::EncodeMessage(net::MessageType::kPredictRequest, payload, key);
  // v2 frames are one MAC wider than v1 and carry the flagged type byte.
  EXPECT_EQ(bytes.size(), net::EncodeMessage(
                              net::MessageType::kPredictRequest, payload)
                                  .size() +
                              net::kMacBytes);
  EXPECT_NE(static_cast<std::uint8_t>(bytes[4]) & net::kAuthTypeFlag, 0);
  std::size_t pos = 0;
  auto message =
      net::DecodeMessage(bytes, pos, net::kMaxMessageBytes, key);
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  EXPECT_EQ(message->type, net::MessageType::kPredictRequest);
  EXPECT_EQ(message->payload, payload);
  EXPECT_EQ(pos, bytes.size());
}

// The downgrade table from net/auth.h, line by line: every mode
// mismatch is the typed kAuthFailed — never a crash, never a silent
// accept, and never mistaken for wire damage (kCorrupt).
TEST(WireAuth, DowngradeMatrixIsTypedAuthFailed) {
  const auto key = net::AuthKey::FromSecret("fleet secret");
  const auto wrong = net::AuthKey::FromSecret("stale rotated key");
  const std::string v1 =
      net::EncodeMessage(net::MessageType::kHeartbeat, "tick");
  const std::string v2 =
      net::EncodeMessage(net::MessageType::kHeartbeat, "tick", key);

  const auto decode_with = [](const std::string& bytes,
                              const net::AuthKey& endpoint) {
    std::size_t pos = 0;
    return net::DecodeMessage(bytes, pos, net::kMaxMessageBytes, endpoint);
  };
  // Keyed endpoint, v1 frame: refused.
  EXPECT_EQ(decode_with(v1, key).status().code(),
            util::StatusCode::kAuthFailed);
  // Keyed endpoint, v2 frame under a different key: refused.
  EXPECT_EQ(decode_with(v2, wrong).status().code(),
            util::StatusCode::kAuthFailed);
  // Keyless endpoint, v2 frame: refused (cannot verify what it cannot
  // key).
  EXPECT_EQ(decode_with(v2, net::AuthKey{}).status().code(),
            util::StatusCode::kAuthFailed);
  // Keyless endpoint, v1 frame: the legacy wire still works.
  EXPECT_TRUE(decode_with(v1, net::AuthKey{}).ok());
}

// The fuzz gate from the v1 envelope, upgraded: under a shared key,
// every single-bit flip anywhere in an authenticated envelope must
// surface as a typed error — kAuthFailed (MAC caught it), kCorrupt
// (CRC/type caught it), or kTruncated (length now claims more bytes).
TEST(WireAuth, AuthedEnvelopeByteFlipFuzzIsTyped) {
  const auto key = net::AuthKey::FromSecret("fuzz key");
  const std::string bytes = net::EncodeMessage(
      net::MessageType::kPredictRequest, "some payload bytes here", key);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = scenario::FlipBit(bytes, i, bit);
      std::size_t pos = 0;
      auto message =
          net::DecodeMessage(damaged, pos, net::kMaxMessageBytes, key);
      ASSERT_FALSE(message.ok())
          << "flip at byte " << i << " bit " << bit << " went undetected";
      const auto code = message.status().code();
      EXPECT_TRUE(code == util::StatusCode::kCorrupt ||
                  code == util::StatusCode::kTruncated ||
                  code == util::StatusCode::kAuthFailed)
          << "byte " << i << " bit " << bit << ": "
          << message.status().ToString();
    }
  }
}

TEST(WireAuth, AuthedEnvelopeTruncationIsTruncated) {
  const auto key = net::AuthKey::FromSecret("cut key");
  const std::string bytes =
      net::EncodeMessage(net::MessageType::kHeartbeat, "payload", key);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::size_t pos = 0;
    auto message = net::DecodeMessage(bytes.substr(0, cut), pos,
                                      net::kMaxMessageBytes, key);
    ASSERT_FALSE(message.ok()) << "cut at " << cut;
    EXPECT_EQ(message.status().code(), util::StatusCode::kTruncated)
        << "cut at " << cut << ": " << message.status().ToString();
  }
}

// End to end: a keyed fleet serves keyed peers exactly as the keyless
// wire does, refuses keyless and wrong-key peers with counted
// kAuthFailed drops, and never crashes doing either.
TEST(Daemon, AuthedFleetServesKeyedPeersAndRefusesTheRest) {
  NetFixture fixture;
  TempDir dir("daemon_auth");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok());

  const auto key = net::AuthKey::FromSecret("fleet secret");
  obs::Registry registry;
  auto daemon_cfg = fixture.FastDaemonConfig();
  daemon_cfg.auth = key;
  net::Daemon daemon(&*replica, &registry, daemon_cfg);
  ASSERT_TRUE(daemon.Start().ok());

  // Keyed collector + predict client: business as usual.
  auto keyed_cfg = fixture.FastClientConfig(daemon.ingest_port());
  keyed_cfg.auth = key;
  net::CollectorClient collector(keyed_cfg, &registry, "collector");
  for (util::HourIndex h = 0; h < 5; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }
  EXPECT_EQ(daemon.frames_applied(), 5u);

  auto keyed_predict_cfg = fixture.FastClientConfig(daemon.predict_port());
  keyed_predict_cfg.auth = key;
  net::PredictClient keyed_predict(keyed_predict_cfg, /*max_attempts=*/1);
  net::PredictRequest request;
  for (const auto& row : fixture.HourRows(6)) {
    request.flows.push_back(
        {core::FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service},
         static_cast<double>(row.bytes)});
  }
  ASSERT_TRUE(keyed_predict.Predict(request).ok());

  // A keyless peer's v1 hello is refused before the ack: the daemon
  // counts the kAuthFailed and hangs up; the peer reads a clean close,
  // not an ack — and not a crash.
  const std::uint64_t refusals_before = daemon.auth_failures();
  {
    auto socket = net::Connect("127.0.0.1", daemon.ingest_port(), 500);
    ASSERT_TRUE(socket.ok());
    (void)socket->SetReadDeadline(500);
    ASSERT_TRUE(socket
                    ->SendAll(net::EncodeMessage(
                        net::MessageType::kIngestHello,
                        net::EncodeIngestHello({})))
                    .ok());
    auto reply = net::ReadMessage(*socket);
    EXPECT_FALSE(reply.ok());
  }
  ASSERT_TRUE(WaitUntil(
      [&] { return daemon.auth_failures() > refusals_before; }, 2000));

  // Wrong-key predict: MAC mismatch server-side, typed refusal, the
  // client surfaces an unavailable endpoint (it can retry elsewhere).
  auto wrong_cfg = fixture.FastClientConfig(daemon.predict_port());
  wrong_cfg.auth = net::AuthKey::FromSecret("rotated-away key");
  net::PredictClient wrong_predict(wrong_cfg, /*max_attempts=*/1);
  const auto refused = wrong_predict.Predict(request);
  EXPECT_FALSE(refused.ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return daemon.auth_failures() > refusals_before + 1; }, 2000));

  // A keyed shipping standby works against the keyed primary.
  auto standby = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "s"));
  ASSERT_TRUE(standby.ok());
  auto ship_cfg = fixture.FastClientConfig(daemon.ship_port());
  ship_cfg.auth = key;
  net::ShippingClient shipper(&*standby, ship_cfg, &registry, "shipper");
  shipper.Start();
  ASSERT_TRUE(WaitUntil([&] { return shipper.applied_seq() == 5; }, 5000));
  shipper.Stop();
  EXPECT_EQ(standby->duplicate_records_skipped(), 0u);

  // The refusal counter is on /metrics for operators.
  const std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("tipsyd_net_auth_failures_total"), std::string::npos);

  daemon.Stop();
}

// The reverse downgrade: a keyed client dialing a keyless daemon is
// refused too (the daemon cannot verify v2 frames), so a half-rotated
// fleet fails loudly instead of silently serving unauthenticated.
TEST(Daemon, KeylessDaemonRefusesKeyedClients) {
  NetFixture fixture;
  TempDir dir("daemon_keyless");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok());

  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  auto keyed_cfg = fixture.FastClientConfig(daemon.predict_port());
  keyed_cfg.auth = net::AuthKey::FromSecret("key the daemon lacks");
  net::PredictClient predict(keyed_cfg, /*max_attempts=*/1);
  EXPECT_FALSE(predict.Predict({}).ok());
  ASSERT_TRUE(WaitUntil([&] { return daemon.auth_failures() >= 1; }, 2000));

  daemon.Stop();
}

// ---------------------------------------------------- multi-collector

// Three collectors with distinct source identities feed one primary
// concurrently — one behind a partition that heals, one slow-dripped —
// and the daemon must come out with a contiguous journal, zero
// duplicate applies, and per-source counters that sum exactly to the
// journal's record count.
TEST(Daemon, ThreeConcurrentCollectorsSurviveFaultsWithPerSourceAttribution) {
  NetFixture fixture;
  TempDir dir("daemon_multi");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok());

  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  // Each collector dials through its own fault proxy.
  const char* names[3] = {"alpha", "bravo", "charlie"};
  std::vector<std::unique_ptr<scenario::SocketFaultProxy>> proxies;
  for (int c = 0; c < 3; ++c) {
    scenario::SocketFaultProxyConfig proxy_cfg;
    proxy_cfg.upstream_port = daemon.ingest_port();
    proxies.push_back(
        std::make_unique<scenario::SocketFaultProxy>(proxy_cfg));
    ASSERT_TRUE(proxies.back()->Start().ok());
  }
  // bravo starts partitioned (heals mid-run); charlie drips all run.
  proxies[1]->set_mode(scenario::ProxyMode::kPartition);
  proxies[2]->set_mode(scenario::ProxyMode::kSlowDrip);
  std::thread healer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    proxies[1]->set_mode(scenario::ProxyMode::kPass);
    proxies[1]->DropConnections();
  });

  // Collector c sends hours c, c+3, ..., c+27 — strictly increasing per
  // source, interleaved across sources. The daemon's hour gate stays
  // global, so late-arriving low hours retire as skips, never as
  // duplicate applies.
  std::vector<std::thread> feeders;
  std::atomic<int> failures{0};
  for (int c = 0; c < 3; ++c) {
    feeders.emplace_back([&, c] {
      auto client_cfg = fixture.FastClientConfig(proxies[c]->port());
      client_cfg.source_id = names[c];
      net::CollectorClient collector(client_cfg, &registry, names[c]);
      for (util::HourIndex h = c; h < 30; h += 3) {
        if (!collector.SendHour(h, fixture.HourRows(h)).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& feeder : feeders) feeder.join();
  healer.join();
  EXPECT_EQ(failures.load(), 0);

  // Zero duplicate applies, by construction and by count.
  EXPECT_EQ(replica->duplicate_records_skipped(), 0u);
  const auto sources = daemon.ingest_source_stats();
  ASSERT_EQ(sources.size(), 3u);
  std::uint64_t applied_sum = 0;
  std::uint64_t skipped_sum = 0;
  for (const auto& [name, stats] : sources) {
    EXPECT_TRUE(std::string(name) == "alpha" || name == "bravo" ||
                name == "charlie")
        << name;
    applied_sum += stats.applied;
    skipped_sum += stats.skipped;
    // Note a source can legitimately end with all-zero counters: a
    // collector that reconnects after the others finished learns from
    // the resume ack that its hours are already durable and resolves
    // them client-side, never shipping a record.
  }
  EXPECT_EQ(applied_sum, daemon.frames_applied());
  EXPECT_EQ(skipped_sum, daemon.frames_skipped());
  // Every one of the 30 hours was delivered durably (applied or retired
  // against an already-applied gate) before its SendHour returned.
  EXPECT_GE(applied_sum, 1u);
  EXPECT_EQ(daemon.last_applied_hour(), 29);

  // Per-source counters land on /metrics, plus the source gauge.
  const std::string text = registry.RenderPrometheusText();
  for (const char* name : names) {
    EXPECT_NE(text.find("tipsyd_net_ingest_source_" + std::string(name) +
                        "_applied_total"),
              std::string::npos)
        << name;
  }
  EXPECT_NE(text.find("tipsyd_net_ingest_sources 3"), std::string::npos);

  daemon.Stop();
  for (auto& proxy : proxies) proxy->Stop();

  // The journal is contiguous (recovery would fail otherwise), its
  // hours strictly increase (the global gate), and its record count is
  // exactly the per-source applied sum.
  auto reopened = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(reopened.ok());
  const auto& records = reopened->journal().recovered().records;
  EXPECT_EQ(records.size(), static_cast<std::size_t>(applied_sum));
  util::HourIndex last_hour = -1;
  for (const auto& record : records) {
    EXPECT_GT(record.hour, last_hour) << "hour replayed twice";
    last_hour = record.hour;
  }
}

// Stop() must not race the accept loops: it wakes them without touching
// the listening fds they poll, joins them, and only then closes the fds
// (closing first would free the fd numbers for reuse under a loop still
// inside Accept). The TSan pass of tools/run_sanitized_fuzz.sh runs this
// start/stop loop with predicts, ingest and bare connects in flight.
TEST(Daemon, StartStopLoopWithTrafficInFlight) {
  NetFixture fixture;
  TempDir dir("daemon_start_stop");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());

  net::PredictRequest request;
  for (const auto& row : fixture.HourRows(0)) {
    request.flows.push_back(
        {core::FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service},
         static_cast<double>(row.bytes)});
  }
  util::HourIndex next_hour = 0;
  std::uint64_t predicts_answered = 0;
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(daemon.Start().ok()) << "round " << round;
    ASSERT_TRUE(daemon.running());
    const std::uint16_t ports[] = {daemon.predict_port(), daemon.ingest_port(),
                                   daemon.ship_port(), daemon.metrics_port()};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> answered{0};
    std::thread reader([&] {
      net::PredictClient predict(
          fixture.FastClientConfig(daemon.predict_port()));
      while (!stop.load()) {
        if (predict.Predict(request, &stop).ok()) answered.fetch_add(1);
      }
    });
    std::thread dialer([&] {
      // Bare connects on every port keep the accept loops busy.
      while (!stop.load()) {
        for (const std::uint16_t port : ports) {
          (void)net::Connect("127.0.0.1", port, 100);
        }
      }
    });
    net::CollectorClient collector(
        fixture.FastClientConfig(daemon.ingest_port()), &registry,
        "collector_" + std::to_string(round));
    for (int h = 0; h < 2; ++h, ++next_hour) {
      const auto rows = fixture.HourRows(next_hour);
      ASSERT_TRUE(collector.SendHour(next_hour, rows).ok());
    }
    WaitUntil([&] { return answered.load() >= 2; }, 2000);
    daemon.Stop();  // while the reader and dialer are still going
    EXPECT_FALSE(daemon.running());
    stop.store(true);
    reader.join();
    dialer.join();
    predicts_answered += answered.load();
  }
  EXPECT_EQ(daemon.frames_applied(), static_cast<std::uint64_t>(next_hour));
  EXPECT_GT(predicts_answered, 0u);
}

// A /metrics scrape racing a new collector's hello: the ingest-sources
// gauge is read under the registry lock, while registering a new source's
// counters takes the registry lock. The gauge must not take the daemon's
// source lock, or the two orders invert (TSan reports the inversion; a
// real interleaving deadlocks).
TEST(Daemon, MetricsScrapesRaceNewIngestSources) {
  NetFixture fixture;
  TempDir dir("daemon_scrape_sources");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load()) {
      (void)registry.RenderPrometheusText();
      (void)ScrapeMetrics(daemon.metrics_port());
      scrapes.fetch_add(1);
    }
  });
  constexpr int kSources = 8;
  for (int c = 0; c < kSources; ++c) {
    auto client_cfg = fixture.FastClientConfig(daemon.ingest_port());
    client_cfg.source_id = "source" + std::to_string(c);
    net::CollectorClient collector(client_cfg, &registry,
                                   "collector_" + std::to_string(c));
    ASSERT_TRUE(collector.SendHour(c, fixture.HourRows(c)).ok()) << c;
  }
  done.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_EQ(daemon.ingest_source_stats().size(),
            static_cast<std::size_t>(kSources));
  const std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("tipsyd_net_ingest_sources " + std::to_string(kSources)),
            std::string::npos);
  daemon.Stop();
}

// ------------------------------------------- reads beside the writer

net::PredictRequest ReadRequest(const NetFixture& fixture) {
  net::PredictRequest request;
  for (const auto& row : fixture.HourRows(30)) {
    request.flows.push_back(
        {core::FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service},
         static_cast<double>(row.bytes)});
  }
  request.excluded = {util::LinkId{0}};
  return request;
}

net::WhatIfRequest ReadWhatIfRequest(const NetFixture& fixture) {
  net::WhatIfRequest request;
  request.rows = fixture.HourRows(30);
  request.link_loads.assign(fixture.wan.link_count(), 0.0);
  for (const auto& row : request.rows) {
    request.link_loads[row.link.value()] += static_cast<double>(row.bytes);
  }
  for (std::uint32_t link = 0;
       link < static_cast<std::uint32_t>(fixture.wan.link_count()); ++link) {
    request.candidates.push_back({util::LinkId{link}, {}});
  }
  return request;
}

// Bit-exact equality of two shift predictions.
bool SamePrediction(const core::TipsyService::ShiftPrediction& a,
                    const core::TipsyService::ShiftPrediction& b) {
  if (a.unpredicted_bytes != b.unpredicted_bytes ||
      a.shifted.size() != b.shifted.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.shifted.size(); ++i) {
    if (a.shifted[i].first != b.shifted[i].first ||
        a.shifted[i].second != b.shifted[i].second) {
      return false;
    }
  }
  return true;
}

// Bit-exact equality of two what-if report lists.
bool SameReports(const std::vector<cms::WhatIfReport>& a,
                 const std::vector<cms::WhatIfReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.candidate_index != y.candidate_index || x.link != y.link ||
        x.matched_bytes != y.matched_bytes ||
        x.moved_bytes != y.moved_bytes ||
        x.unpredicted_bytes != y.unpredicted_bytes || x.safe != y.safe ||
        x.spills.size() != y.spills.size()) {
      return false;
    }
    for (std::size_t s = 0; s < x.spills.size(); ++s) {
      if (x.spills[s].link != y.spills[s].link ||
          x.spills[s].bytes != y.spills[s].bytes ||
          x.spills[s].projected_utilization !=
              y.spills[s].projected_utilization ||
          x.spills[s].over_headroom != y.spills[s].over_headroom) {
        return false;
      }
    }
  }
  return true;
}

core::TipsyService::ShiftPrediction LocalPredict(
    const NetFixture& fixture, const core::TipsyService* service,
    const net::PredictRequest& request) {
  core::ExclusionMask mask(fixture.wan.link_count(), false);
  for (const auto link : request.excluded) mask[link.value()] = true;
  return service->PredictShift(request.flows, mask);
}

std::vector<cms::WhatIfReport> LocalSweep(const NetFixture& fixture,
                                          const core::TipsyService* service,
                                          const net::WhatIfRequest& request) {
  const cms::WhatIfSimulator simulator(&fixture.wan, service,
                                       cms::WhatIfOptions{});
  return simulator.Sweep(request.rows, request.link_loads,
                         request.candidates);
}

// The day-boundary ingest holds the replica's writer for the whole
// retrain (and the snapshot and compaction after it). Reads must not
// wait for it: with the boundary retrain parked inside the fault hook, a
// predict and a what-if are answered within the client deadline, stamped
// FRESH, from the previous day's model.
TEST(Daemon, ReadsAnsweredWhileDayBoundaryRetrainBlocks) {
  NetFixture fixture;
  TempDir dir("daemon_blocked_retrain");
  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "d"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();

  // Installed before any traffic, so only the ingest thread ever calls
  // it. Once armed, the next retrain attempt (the next boundary) flags
  // itself and parks on the latch, at most 10 s, then lets the retrain
  // proceed.
  std::atomic<bool> armed{false};
  std::atomic<bool> parked{false};
  std::mutex latch_mu;
  std::condition_variable latch_cv;
  bool released = false;
  replica->mutable_retrainer().SetRetrainFault([&](util::HourIndex) {
    if (!armed.exchange(false)) return false;
    parked.store(true);
    std::unique_lock<std::mutex> lock(latch_mu);
    latch_cv.wait_for(lock, std::chrono::seconds(10), [&] { return released; });
    return false;
  });

  obs::Registry registry;
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  core::DailyRetrainer control(&fixture.wan, &fixture.topology.metros,
                               /*window_days=*/3);
  auto collector_config = fixture.FastClientConfig(daemon.ingest_port());
  collector_config.io_deadline_ms = 15000;  // outlasts the parked retrain
  net::CollectorClient collector(collector_config, &registry, "collector");
  const util::HourIndex boundary = 2 * util::kHoursPerDay;
  for (util::HourIndex h = 0; h < boundary; ++h) {
    const auto rows = fixture.HourRows(h);
    ASSERT_TRUE(collector.SendHour(h, rows).ok()) << "hour " << h;
    control.Ingest(h, rows);
  }
  ASSERT_EQ(daemon.health(), core::ModelHealth::kFresh);
  ASSERT_EQ(ServiceBytes(replica->service()), ServiceBytes(control.current()));

  armed.store(true);
  util::Status boundary_sent;
  std::atomic<bool> boundary_acked{false};
  std::thread sender([&] {
    boundary_sent = collector.SendHour(boundary, fixture.HourRows(boundary));
    boundary_acked.store(true);
  });
  const bool reached = WaitUntil([&] { return parked.load(); }, 5000);

  // One attempt each: a read that queued behind the writer would miss
  // the client deadline and fail here instead of being retried.
  const net::PredictRequest request = ReadRequest(fixture);
  const net::WhatIfRequest whatif_request = ReadWhatIfRequest(fixture);
  util::StatusOr<net::PredictResponse> predicted =
      util::Status::Unavailable("not sent");
  util::StatusOr<net::WhatIfResponse> swept =
      util::Status::Unavailable("not sent");
  if (reached) {
    net::PredictClient reader(fixture.FastClientConfig(daemon.predict_port()),
                              /*max_attempts=*/1);
    predicted = reader.Predict(request);
    swept = reader.WhatIf(whatif_request);
  }
  const bool acked_before_reads_returned = boundary_acked.load();
  {
    std::lock_guard<std::mutex> lock(latch_mu);
    released = true;
  }
  latch_cv.notify_all();
  sender.join();

  ASSERT_TRUE(reached) << "the boundary retrain never reached the hook";
  EXPECT_FALSE(acked_before_reads_returned);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_EQ(predicted->health, core::ModelHealth::kFresh);
  EXPECT_TRUE(SamePrediction(predicted->prediction,
                             LocalPredict(fixture, control.current(), request)));
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_EQ(swept->health, core::ModelHealth::kFresh);
  EXPECT_EQ(swept->drift_state, core::DriftState::kStable);
  EXPECT_TRUE(SameReports(
      swept->reports, LocalSweep(fixture, control.current(), whatif_request)));

  // Released, the boundary completes and its ack covers the new model.
  ASSERT_TRUE(boundary_sent.ok()) << boundary_sent.ToString();
  control.Ingest(boundary, fixture.HourRows(boundary));
  EXPECT_EQ(ServiceBytes(replica->service()), ServiceBytes(control.current()));
  net::PredictClient after(fixture.FastClientConfig(daemon.predict_port()));
  auto fresh = after.Predict(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->health, core::ModelHealth::kFresh);
  EXPECT_TRUE(SamePrediction(fresh->prediction,
                             LocalPredict(fixture, control.current(), request)));
  daemon.Stop();
}

// A standby's daemon serves reads while its ShippingClient, not the
// daemon, applies records into the replica. The health it stamps is the
// status the standby's retrainer publishes: it moves NONE -> FRESH as the
// shipped days land, and once caught up the standby answers bit for bit
// like the primary.
TEST(Daemon, StandbyServesReadsWhileShipping) {
  NetFixture fixture;
  TempDir dir("daemon_standby_reads");
  auto primary = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "p"));
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  auto standby = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "s"));
  ASSERT_TRUE(standby.ok()) << standby.status().ToString();

  obs::Registry registry;
  net::Daemon daemon(&*primary, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());
  auto standby_config = fixture.FastDaemonConfig();
  standby_config.metric_prefix = "standby";
  net::Daemon standby_daemon(&*standby, &registry, standby_config);
  ASSERT_TRUE(standby_daemon.Start().ok());
  net::ShippingClient shipper(&*standby,
                              fixture.FastClientConfig(daemon.ship_port()),
                              &registry, "shipper");
  shipper.Start();

  const net::PredictRequest request = ReadRequest(fixture);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> polls{0};
  std::vector<core::ModelHealth> seen;  // reader thread only until join
  std::uint64_t failed_reads = 0;
  std::thread reader([&] {
    net::PredictClient client(
        fixture.FastClientConfig(standby_daemon.predict_port()));
    while (!done.load()) {
      auto response = client.Predict(request);
      if (!response.ok()) {
        ++failed_reads;
        continue;
      }
      if (seen.empty() || seen.back() != response->health) {
        seen.push_back(response->health);
      }
      (void)standby_daemon.health();
      (void)shipper.health();
      polls.fetch_add(1);
    }
  });
  ASSERT_TRUE(WaitUntil([&] { return polls.load() > 0; }, 5000));

  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry, "collector");
  const util::HourIndex hours = 2 * util::kHoursPerDay + 5;  // 2 boundaries
  for (util::HourIndex h = 0; h < hours; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok()) << h;
  }
  const bool caught_up = WaitUntil(
      [&] { return shipper.applied_seq() == static_cast<std::uint64_t>(hours); },
      10000);
  const std::uint64_t polls_at_catch_up = polls.load();
  WaitUntil([&] { return polls.load() > polls_at_catch_up + 3; }, 5000);
  done.store(true);
  reader.join();

  ASSERT_TRUE(caught_up) << "standby at seq " << shipper.applied_seq();
  EXPECT_EQ(failed_reads, 0u);
  const std::vector<core::ModelHealth> expected = {core::ModelHealth::kNone,
                                                   core::ModelHealth::kFresh};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(standby_daemon.health(), core::ModelHealth::kFresh);
  EXPECT_EQ(shipper.health(), core::ModelHealth::kFresh);

  net::PredictClient from_primary(
      fixture.FastClientConfig(daemon.predict_port()));
  net::PredictClient from_standby(
      fixture.FastClientConfig(standby_daemon.predict_port()));
  auto primary_answer = from_primary.Predict(request);
  auto standby_answer = from_standby.Predict(request);
  ASSERT_TRUE(primary_answer.ok()) << primary_answer.status().ToString();
  ASSERT_TRUE(standby_answer.ok()) << standby_answer.status().ToString();
  EXPECT_EQ(standby_answer->health, primary_answer->health);
  EXPECT_TRUE(
      SamePrediction(standby_answer->prediction, primary_answer->prediction));
  EXPECT_EQ(ServiceBytes(standby->service()), ServiceBytes(primary->service()));

  shipper.Stop();
  standby_daemon.Stop();
  daemon.Stop();
}

// /metrics scrapes the replica and retrainer gauges from the HTTP thread
// while the ingest thread crosses day boundaries (retrain, snapshot,
// compaction) with drift detection scoring every hour. Every gauge reads
// a value its writer published, so the scrapes race nothing, and once
// the feed is done they agree with the writer-side view.
TEST(Daemon, MetricsScrapesRaceDayBoundaryIngest) {
  NetFixture fixture;
  TempDir dir("daemon_scrape_boundaries");
  auto replica_config = fixture.MakeReplicaConfig(dir, "d");
  replica_config.compact_after_snapshot = true;
  core::RetrainPolicy policy;
  policy.drift_detection = true;
  policy.drift_min_hour_flows = 1;
  policy.drift_warmup_hours = 4;
  auto replica = ha::Replica::Open(&fixture.wan, &fixture.topology.metros,
                                   /*window_days=*/3, {}, policy,
                                   replica_config);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();

  obs::Registry registry;
  const obs::MetricGroup replica_metrics =
      replica->RegisterMetrics(registry, "tipsyd_replica");
  net::Daemon daemon(&*replica, &registry, fixture.FastDaemonConfig());
  ASSERT_TRUE(daemon.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load()) {
      (void)ScrapeMetrics(daemon.metrics_port());
      (void)registry.RenderPrometheusText();
      scrapes.fetch_add(1);
    }
  });
  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry, "collector");
  const util::HourIndex hours = 2 * util::kHoursPerDay + 5;  // 2 boundaries
  for (util::HourIndex h = 0; h < hours; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok()) << h;
  }
  done.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);

  const core::ServiceHealth health = replica->retrainer().health_snapshot();
  const std::string text = ScrapeMetrics(daemon.metrics_port());
  const auto has = [&text](const std::string& name, double value) {
    std::ostringstream line;
    line << "\n" << name << " " << value << "\n";
    return text.find(line.str()) != std::string::npos;
  };
  EXPECT_TRUE(has("tipsyd_replica_applied_seq",
                  static_cast<double>(replica->applied_seq())))
      << text;
  EXPECT_GT(replica->journal().base_seq(), 0u);
  EXPECT_TRUE(has("tipsyd_replica_journal_base_seq",
                  static_cast<double>(replica->journal().base_seq())));
  EXPECT_TRUE(has("tipsyd_replica_model_health",
                  static_cast<double>(health.health)));
  EXPECT_TRUE(has("tipsyd_replica_model_age_days",
                  static_cast<double>(health.model_age_days)));
  EXPECT_TRUE(has("tipsyd_replica_buffered_days",
                  static_cast<double>(health.buffered_days)));
  EXPECT_TRUE(has("tipsyd_replica_consecutive_failures",
                  static_cast<double>(health.consecutive_failures)));
  EXPECT_TRUE(has("tipsyd_replica_drift_state",
                  static_cast<double>(health.drift_state)));
  EXPECT_GE(health.drift_recent_accuracy, 0.0);  // the detector scored
  EXPECT_TRUE(has("tipsyd_replica_drift_recent_accuracy",
                  health.drift_recent_accuracy));
  EXPECT_TRUE(has("tipsyd_replica_drift_baseline_accuracy",
                  health.drift_baseline_accuracy));
  EXPECT_TRUE(has("tipsyd_replica_drift_distribution_distance",
                  health.drift_distribution_distance));
  daemon.Stop();
}

// ------------------------------------------------------- predict pool

// Feeds `replica` enough hours (through the daemon's wire, so the gate
// state matches) to give it a FRESH model.
void FeedFresh(net::Daemon& daemon, obs::Registry& registry,
               const NetFixture& fixture, const char* prefix) {
  net::CollectorClient collector(
      fixture.FastClientConfig(daemon.ingest_port()), &registry, prefix);
  for (util::HourIndex h = 0; h < 26; ++h) {
    ASSERT_TRUE(collector.SendHour(h, fixture.HourRows(h)).ok());
  }
}

net::PredictRequest PoolRequest(const NetFixture& fixture) {
  net::PredictRequest request;
  for (const auto& row : fixture.HourRows(30)) {
    request.flows.push_back(
        {core::FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service},
         static_cast<double>(row.bytes)});
  }
  return request;
}

TEST(PredictPool, SpreadsReadsAcrossHealthyEndpointsLeastOutstanding) {
  NetFixture fixture;
  TempDir dir("pool_spread");
  auto replica_a = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "a"));
  auto replica_b = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "b"));
  ASSERT_TRUE(replica_a.ok());
  ASSERT_TRUE(replica_b.ok());

  obs::Registry registry;
  net::Daemon daemon_a(&*replica_a, &registry,
                       fixture.FastDaemonConfig());
  auto cfg_b = fixture.FastDaemonConfig();
  cfg_b.metric_prefix = "tipsyd_b";
  net::Daemon daemon_b(&*replica_b, &registry, cfg_b);
  ASSERT_TRUE(daemon_a.Start().ok());
  ASSERT_TRUE(daemon_b.Start().ok());
  FeedFresh(daemon_a, registry, fixture, "feed_a");
  FeedFresh(daemon_b, registry, fixture, "feed_b");

  net::PredictPoolConfig pool_cfg;
  pool_cfg.endpoints = {
      fixture.FastClientConfig(daemon_a.predict_port()),
      fixture.FastClientConfig(daemon_b.predict_port()),
  };
  net::PredictPool pool(pool_cfg);

  const auto request = PoolRequest(fixture);
  for (int i = 0; i < 20; ++i) {
    auto response = pool.Predict(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->health, core::ModelHealth::kFresh);
  }
  EXPECT_EQ(pool.served(), 20u);
  EXPECT_EQ(pool.failovers(), 0u);
  // Rotation spreads the reads: both replicas took a meaningful share.
  const auto stats = pool.endpoint_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(stats[0].served, 5u);
  EXPECT_GE(stats[1].served, 5u);
  EXPECT_EQ(stats[0].served + stats[1].served, 20u);
  // Both answered identically — the pool's whole premise.
  EXPECT_EQ(ServiceBytes(replica_a->service()),
            ServiceBytes(replica_b->service()));

  daemon_a.Stop();
  daemon_b.Stop();
}

TEST(PredictPool, EjectsFailedEndpointThenProbeReinstatesIt) {
  NetFixture fixture;
  TempDir dir("pool_eject");
  auto replica_a = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "a"));
  auto replica_b = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "b"));
  ASSERT_TRUE(replica_a.ok());
  ASSERT_TRUE(replica_b.ok());

  obs::Registry registry;
  net::Daemon daemon_a(&*replica_a, &registry,
                       fixture.FastDaemonConfig());
  auto cfg_b = fixture.FastDaemonConfig();
  cfg_b.metric_prefix = "tipsyd_b";
  net::Daemon daemon_b(&*replica_b, &registry, cfg_b);
  ASSERT_TRUE(daemon_a.Start().ok());
  ASSERT_TRUE(daemon_b.Start().ok());
  FeedFresh(daemon_a, registry, fixture, "feed_a");
  FeedFresh(daemon_b, registry, fixture, "feed_b");

  // Endpoint A dials through a fault proxy so it can "die" and come
  // back on the same port.
  scenario::SocketFaultProxyConfig proxy_cfg;
  proxy_cfg.upstream_port = daemon_a.predict_port();
  scenario::SocketFaultProxy proxy(proxy_cfg);
  ASSERT_TRUE(proxy.Start().ok());

  net::PredictPoolConfig pool_cfg;
  pool_cfg.endpoints = {
      fixture.FastClientConfig(proxy.port()),
      fixture.FastClientConfig(daemon_b.predict_port()),
  };
  pool_cfg.eject_ms = 50;
  pool_cfg.probe_interval_ms = 50;
  net::PredictPool pool(pool_cfg);

  const auto request = PoolRequest(fixture);
  // Warm both endpoints.
  ASSERT_TRUE(pool.Predict(request).ok());
  ASSERT_TRUE(pool.Predict(request).ok());

  // Kill A: every read keeps succeeding through B, and A is ejected.
  proxy.set_mode(scenario::ProxyMode::kRefuse);
  proxy.DropConnections();
  for (int i = 0; i < 10; ++i) {
    auto response = pool.Predict(request);
    ASSERT_TRUE(response.ok())
        << "read " << i << " failed during endpoint loss: "
        << response.status().ToString();
  }
  EXPECT_GE(pool.ejections(), 1u);
  EXPECT_GE(pool.failovers(), 1u);
  const auto down_stats = pool.endpoint_stats();
  EXPECT_TRUE(down_stats[0].ejected);
  EXPECT_GE(down_stats[0].failures, 1u);

  // Heal A: the next probe (due after probe_interval_ms) reinstates it.
  proxy.set_mode(scenario::ProxyMode::kPass);
  const std::uint64_t served_before =
      pool.endpoint_stats()[0].served;
  ASSERT_TRUE(WaitUntil(
      [&] {
        auto response = pool.Predict(request);
        return response.ok() &&
               pool.endpoint_stats()[0].served > served_before;
      },
      5000))
      << "endpoint A was never probed back into service";

  daemon_a.Stop();
  daemon_b.Stop();
  proxy.Stop();
}

// The staleness budget: once an endpoint's health stamp says it has no
// serviceable model (NONE here; EXPIRED ages the same way), routine
// reads route around it — it only sees probe traffic.
TEST(PredictPool, StalenessBudgetRoutesRoutineReadsAroundModellessReplica) {
  NetFixture fixture;
  TempDir dir("pool_budget");
  auto replica_a = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "a"));
  auto replica_b = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "b"));
  ASSERT_TRUE(replica_a.ok());
  ASSERT_TRUE(replica_b.ok());

  obs::Registry registry;
  // A never gets fed: it answers honestly with health NONE.
  net::Daemon daemon_a(&*replica_a, &registry,
                       fixture.FastDaemonConfig());
  auto cfg_b = fixture.FastDaemonConfig();
  cfg_b.metric_prefix = "tipsyd_b";
  net::Daemon daemon_b(&*replica_b, &registry, cfg_b);
  ASSERT_TRUE(daemon_a.Start().ok());
  ASSERT_TRUE(daemon_b.Start().ok());
  FeedFresh(daemon_b, registry, fixture, "feed_b");

  net::PredictPoolConfig pool_cfg;
  pool_cfg.endpoints = {
      fixture.FastClientConfig(daemon_a.predict_port()),
      fixture.FastClientConfig(daemon_b.predict_port()),
  };
  // No probes inside this test's window: once A's health is observed,
  // it must see zero routine reads.
  pool_cfg.probe_interval_ms = 60'000;
  net::PredictPool pool(pool_cfg);

  const auto request = PoolRequest(fixture);
  // Warmup: rotation touches both endpoints, observing their stamps.
  ASSERT_TRUE(pool.Predict(request).ok());
  ASSERT_TRUE(pool.Predict(request).ok());
  const std::uint64_t a_served_after_warmup =
      pool.endpoint_stats()[0].served;

  for (int i = 0; i < 20; ++i) {
    auto response = pool.Predict(request);
    ASSERT_TRUE(response.ok());
    // Every routine read lands on the FRESH replica.
    EXPECT_EQ(response->health, core::ModelHealth::kFresh);
  }
  EXPECT_EQ(pool.endpoint_stats()[0].served, a_served_after_warmup)
      << "a modeless replica kept taking routine reads";
  EXPECT_EQ(pool.endpoint_stats()[1].served, 20u + 2u - a_served_after_warmup);

  daemon_a.Stop();
  daemon_b.Stop();
}

// ------------------------------------------------- atomic-file audit

// Satellite regression: every daemon-path writer that claims crash
// safety (journal creation, snapshots, model bundles) must go through
// WriteFileAtomic, and every such write must fsync the parent directory
// — the counters advance in lockstep or a writer is cutting corners.
TEST(AtomicFileAudit, DaemonPathWritersAllFsyncTheParentDirectory) {
  NetFixture fixture;
  TempDir dir("atomic_audit");

  const std::uint64_t writes_before = util::AtomicWritesPerformed();
  const std::uint64_t fsyncs_before = util::DirectoryFsyncsPerformed();

  auto replica = fixture.OpenReplica(fixture.MakeReplicaConfig(dir, "a"));
  ASSERT_TRUE(replica.ok());
  for (util::HourIndex h = 0; h < 26; ++h) {
    ASSERT_TRUE(replica->Ingest(h, fixture.HourRows(h)).ok());
  }
  ASSERT_TRUE(replica->SnapshotNow().ok());
  ASSERT_TRUE(core::SaveServiceToFile(*replica->service(),
                                      dir.File("bundle.tipsy"))
                  .ok());

  const std::uint64_t writes = util::AtomicWritesPerformed() - writes_before;
  const std::uint64_t fsyncs =
      util::DirectoryFsyncsPerformed() - fsyncs_before;
  // Journal creation + at least one snapshot (explicit or day-boundary)
  // + the model bundle.
  EXPECT_GE(writes, 3u);
  EXPECT_EQ(writes, fsyncs)
      << "an atomic write skipped the directory fsync";
}

}  // namespace
}  // namespace tipsy
