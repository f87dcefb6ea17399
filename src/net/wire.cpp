#include "net/wire.h"

#include <bit>
#include <cstring>
#include <limits>
#include <sstream>

#include "pipeline/storage.h"
#include "util/checksum.h"

namespace tipsy::net {
namespace {

constexpr char kMessageMagic[4] = {'T', 'P', 'S', 'Y'};
constexpr std::size_t kEnvelopeHeaderBytes =
    sizeof(kMessageMagic) + 1 + 4 + 4;  // magic | type | length | crc

void PutFixed32(std::string& out, std::uint32_t value) {
  char bytes[4];
  bytes[0] = static_cast<char>(value & 0xff);
  bytes[1] = static_cast<char>((value >> 8) & 0xff);
  bytes[2] = static_cast<char>((value >> 16) & 0xff);
  bytes[3] = static_cast<char>((value >> 24) & 0xff);
  out.append(bytes, sizeof(bytes));
}

std::uint32_t GetFixed32(std::string_view bytes, std::size_t pos) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos + 1]))
             << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos + 2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos + 3]))
             << 24;
}

void PutFixed64Str(std::string& out, std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  out.append(bytes, sizeof(bytes));
}

std::uint64_t GetFixed64(std::string_view bytes, std::size_t pos) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
  }
  return value;
}

void PutFixed64(std::ostream& out, std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  out.write(bytes, sizeof(bytes));
}

void PutDouble(std::ostream& out, double value) {
  PutFixed64(out, std::bit_cast<std::uint64_t>(value));
}

// Bounds-checked fixed64 read, same `ok`-flag convention as
// pipeline::TakeVarint.
std::uint64_t TakeFixed64(std::string_view payload, std::size_t& pos,
                          bool& ok) {
  if (!ok || payload.size() - pos < 8) {
    ok = false;
    return 0;
  }
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(payload[pos + i]))
             << (8 * i);
  }
  pos += 8;
  return value;
}

double TakeDouble(std::string_view payload, std::size_t& pos, bool& ok) {
  return std::bit_cast<double>(TakeFixed64(payload, pos, ok));
}

// The envelope checksum covers (wire type byte || payload): a flipped
// type byte — including a stripped or injected auth flag — is as fatal
// as flipped payload bytes.
std::uint32_t EnvelopeCrc(std::uint8_t wire_type, std::string_view payload) {
  util::Crc32c crc;
  const char type_byte = static_cast<char>(wire_type);
  crc.Update(std::string_view(&type_byte, 1));
  crc.Update(payload);
  return crc.Digest();
}

// The envelope v2 MAC covers (wire type byte || u32 length || payload):
// everything the frame claims, under the shared key.
std::uint64_t EnvelopeMac(const AuthKey& key, std::uint8_t wire_type,
                          std::string_view payload) {
  std::string macd;
  macd.reserve(1 + 4 + payload.size());
  macd.push_back(static_cast<char>(wire_type));
  PutFixed32(macd, static_cast<std::uint32_t>(payload.size()));
  macd.append(payload);
  return SipHash24(key, macd);
}

bool KnownMessageType(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(MessageType::kIngestHello) &&
         raw <= static_cast<std::uint8_t>(MessageType::kWhatIfResponse);
}

util::StatusOr<Message> DecodeEnvelope(std::string_view header,
                                       std::string_view mac_bytes,
                                       std::string payload,
                                       const AuthKey& key) {
  const std::uint8_t wire_type =
      static_cast<std::uint8_t>(header[sizeof(kMessageMagic)]);
  const bool authenticated = (wire_type & kAuthTypeFlag) != 0;
  const std::uint8_t raw_type =
      static_cast<std::uint8_t>(wire_type & ~kAuthTypeFlag);
  if (!KnownMessageType(raw_type)) {
    return util::Status::Corrupt("unknown message type " +
                                 std::to_string(raw_type));
  }
  // Downgrade rules before byte checks: mode mismatches are a peer
  // configuration problem (kAuthFailed), not wire damage (kCorrupt).
  if (key.present && !authenticated) {
    return util::Status::AuthFailed(
        "unauthenticated (v1) frame refused: this endpoint requires the "
        "wire auth key");
  }
  if (!key.present && authenticated) {
    return util::Status::AuthFailed(
        "authenticated (v2) frame refused: no auth key is configured "
        "here");
  }
  if (authenticated) {
    const std::uint64_t want_mac = GetFixed64(mac_bytes, 0);
    const std::uint64_t got_mac = EnvelopeMac(key, wire_type, payload);
    // Constant-time-ish compare; the fold keeps the comparison
    // data-independent.
    if (((want_mac ^ got_mac) | ((want_mac ^ got_mac) >> 32)) != 0) {
      return util::Status::AuthFailed("message authentication failed");
    }
  }
  Message message;
  message.type = static_cast<MessageType>(raw_type);
  message.payload = std::move(payload);
  const std::uint32_t want = GetFixed32(header, sizeof(kMessageMagic) + 5);
  const std::uint32_t got = EnvelopeCrc(wire_type, message.payload);
  if (want != got) {
    return util::Status::Corrupt("message checksum mismatch");
  }
  return message;
}

}  // namespace

std::string EncodeMessage(MessageType type, std::string_view payload,
                          const AuthKey& key) {
  const std::uint8_t wire_type =
      static_cast<std::uint8_t>(static_cast<std::uint8_t>(type) |
                                (key.present ? kAuthTypeFlag : 0));
  std::string out;
  out.reserve(kEnvelopeHeaderBytes + (key.present ? kMacBytes : 0) +
              payload.size());
  out.append(kMessageMagic, sizeof(kMessageMagic));
  out.push_back(static_cast<char>(wire_type));
  PutFixed32(out, static_cast<std::uint32_t>(payload.size()));
  PutFixed32(out, EnvelopeCrc(wire_type, payload));
  if (key.present) {
    PutFixed64Str(out, EnvelopeMac(key, wire_type, payload));
  }
  out.append(payload);
  return out;
}

util::StatusOr<Message> ReadMessage(Socket& socket, std::size_t max_payload,
                                    const AuthKey& key) {
  std::string header;
  if (auto status = socket.RecvExact(kEnvelopeHeaderBytes, header);
      !status.ok()) {
    return status;
  }
  if (std::memcmp(header.data(), kMessageMagic, sizeof(kMessageMagic)) != 0) {
    return util::Status::Corrupt("bad message magic");
  }
  const std::uint8_t wire_type =
      static_cast<std::uint8_t>(header[sizeof(kMessageMagic)]);
  const std::uint32_t length = GetFixed32(header, sizeof(kMessageMagic) + 1);
  if (length > max_payload) {
    return util::Status::Corrupt("implausible message length " +
                                 std::to_string(length));
  }
  std::string mac_bytes;
  if ((wire_type & kAuthTypeFlag) != 0) {
    if (auto status = socket.RecvExact(kMacBytes, mac_bytes); !status.ok()) {
      if (status.code() == util::StatusCode::kNoData) {
        return util::Status::Truncated("connection closed mid-message");
      }
      return status;
    }
  }
  std::string payload;
  if (length > 0) {
    if (auto status = socket.RecvExact(length, payload); !status.ok()) {
      // Losing the peer mid-payload is a torn message even when the close
      // itself was "clean" from the kernel's point of view.
      if (status.code() == util::StatusCode::kNoData) {
        return util::Status::Truncated("connection closed mid-message");
      }
      return status;
    }
  }
  return DecodeEnvelope(header, mac_bytes, std::move(payload), key);
}

util::StatusOr<Message> DecodeMessage(std::string_view bytes,
                                      std::size_t& pos,
                                      std::size_t max_payload,
                                      const AuthKey& key) {
  if (bytes.size() - pos < kEnvelopeHeaderBytes) {
    return util::Status::Truncated("message header ends early");
  }
  const std::string_view header = bytes.substr(pos, kEnvelopeHeaderBytes);
  if (std::memcmp(header.data(), kMessageMagic, sizeof(kMessageMagic)) != 0) {
    return util::Status::Corrupt("bad message magic");
  }
  const std::uint8_t wire_type =
      static_cast<std::uint8_t>(header[sizeof(kMessageMagic)]);
  const std::size_t mac_len =
      (wire_type & kAuthTypeFlag) != 0 ? kMacBytes : 0;
  const std::uint32_t length = GetFixed32(header, sizeof(kMessageMagic) + 1);
  if (length > max_payload) {
    return util::Status::Corrupt("implausible message length " +
                                 std::to_string(length));
  }
  if (bytes.size() - pos - kEnvelopeHeaderBytes < mac_len + length) {
    return util::Status::Truncated("message payload ends early");
  }
  const std::string_view mac_bytes =
      bytes.substr(pos + kEnvelopeHeaderBytes, mac_len);
  auto message = DecodeEnvelope(
      header, mac_bytes,
      std::string(
          bytes.substr(pos + kEnvelopeHeaderBytes + mac_len, length)),
      key);
  if (message.ok()) pos += kEnvelopeHeaderBytes + mac_len + length;
  return message;
}

util::StatusOr<Message> MessageReader::Next(std::size_t max_payload) {
  while (true) {
    if (!buffer_.empty()) {
      std::size_t pos = 0;
      auto message = DecodeMessage(buffer_, pos, max_payload, key_);
      if (message.ok()) {
        buffer_.erase(0, pos);
        return message;
      }
      if (message.status().code() != util::StatusCode::kTruncated) {
        return message.status();  // corrupt: permanent
      }
      // Incomplete: fall through and read more.
    }
    auto bytes = socket_->RecvSome(64 * 1024);
    if (!bytes.ok()) {
      if (bytes.status().code() == util::StatusCode::kNoData &&
          !buffer_.empty()) {
        return util::Status::Truncated("connection closed mid-message");
      }
      return bytes.status();  // kNoData / kUnavailable / kIoError
    }
    buffer_.append(*bytes);
  }
}

// --- Handshake payloads.

std::string EncodeIngestHello(const IngestHello& hello) {
  std::ostringstream out;
  pipeline::PutVarint(out,
                      static_cast<std::uint64_t>(hello.protocol_version));
  pipeline::PutVarint(out, hello.source_id.size());
  out.write(hello.source_id.data(),
            static_cast<std::streamsize>(hello.source_id.size()));
  return out.str();
}

util::StatusOr<IngestHello> DecodeIngestHello(std::string_view payload) {
  // Source ids name metrics; an unbounded one would let a peer mint
  // arbitrarily large registry keys.
  constexpr std::size_t kMaxSourceIdBytes = 128;
  std::size_t pos = 0;
  bool ok = true;
  IngestHello hello;
  hello.protocol_version =
      static_cast<int>(pipeline::TakeVarint(payload, pos, ok));
  if (!ok) {
    return util::Status::Corrupt("ingest hello is malformed");
  }
  if (hello.protocol_version != kWireProtocolVersion) {
    return util::Status::VersionMismatch(
        "peer speaks wire protocol version " +
        std::to_string(hello.protocol_version));
  }
  const std::uint64_t id_len = pipeline::TakeVarint(payload, pos, ok);
  if (!ok || id_len > kMaxSourceIdBytes ||
      payload.size() - pos != id_len) {
    return util::Status::Corrupt("ingest hello is malformed");
  }
  hello.source_id = std::string(payload.substr(pos, id_len));
  return hello;
}

std::string EncodeIngestAck(const IngestAck& ack) {
  std::ostringstream out;
  pipeline::PutZigzag(out, ack.last_applied_hour);
  pipeline::PutVarint(out, ack.next_seq);
  pipeline::PutVarint(out, ack.acked_wire_seq);
  pipeline::PutVarint(out, ack.credits);
  return out.str();
}

util::StatusOr<IngestAck> DecodeIngestAck(std::string_view payload) {
  std::size_t pos = 0;
  bool ok = true;
  IngestAck ack;
  ack.last_applied_hour = pipeline::TakeZigzag(payload, pos, ok);
  ack.next_seq = pipeline::TakeVarint(payload, pos, ok);
  ack.acked_wire_seq = pipeline::TakeVarint(payload, pos, ok);
  ack.credits = pipeline::TakeVarint(payload, pos, ok);
  if (!ok || pos != payload.size()) {
    return util::Status::Corrupt("ingest ack is malformed");
  }
  return ack;
}

std::string EncodeShipRequest(const ShipRequest& request) {
  std::ostringstream out;
  pipeline::PutVarint(out,
                      static_cast<std::uint64_t>(request.protocol_version));
  pipeline::PutVarint(out, request.from_seq);
  return out.str();
}

util::StatusOr<ShipRequest> DecodeShipRequest(std::string_view payload) {
  std::size_t pos = 0;
  bool ok = true;
  ShipRequest request;
  request.protocol_version =
      static_cast<int>(pipeline::TakeVarint(payload, pos, ok));
  request.from_seq = pipeline::TakeVarint(payload, pos, ok);
  if (!ok || pos != payload.size()) {
    return util::Status::Corrupt("ship request is malformed");
  }
  if (request.protocol_version != kWireProtocolVersion) {
    return util::Status::VersionMismatch(
        "peer speaks wire protocol version " +
        std::to_string(request.protocol_version));
  }
  return request;
}

std::string EncodeSnapshotOffer(const SnapshotOffer& offer) {
  std::ostringstream out;
  pipeline::PutVarint(out,
                      static_cast<std::uint64_t>(offer.protocol_version));
  pipeline::PutVarint(out, offer.applied_seq);
  pipeline::PutVarint(out, offer.total_bytes);
  pipeline::PutVarint(out, offer.total_crc32c);
  return out.str();
}

util::StatusOr<SnapshotOffer> DecodeSnapshotOffer(std::string_view payload) {
  std::size_t pos = 0;
  bool ok = true;
  SnapshotOffer offer;
  offer.protocol_version =
      static_cast<int>(pipeline::TakeVarint(payload, pos, ok));
  offer.applied_seq = pipeline::TakeVarint(payload, pos, ok);
  offer.total_bytes = pipeline::TakeVarint(payload, pos, ok);
  const std::uint64_t crc = pipeline::TakeVarint(payload, pos, ok);
  if (!ok || pos != payload.size() ||
      crc > std::numeric_limits<std::uint32_t>::max()) {
    return util::Status::Corrupt("snapshot offer is malformed");
  }
  offer.total_crc32c = static_cast<std::uint32_t>(crc);
  if (offer.protocol_version != kWireProtocolVersion) {
    return util::Status::VersionMismatch(
        "peer speaks wire protocol version " +
        std::to_string(offer.protocol_version));
  }
  // The whole transfer obeys the same allocation discipline as a single
  // envelope: a snapshot that claims more than the cap is refused before
  // any chunk is buffered.
  if (offer.total_bytes > kMaxMessageBytes) {
    return util::Status::Corrupt("snapshot offer claims implausible size " +
                                 std::to_string(offer.total_bytes));
  }
  return offer;
}

std::string EncodeSnapshotChunk(const SnapshotChunk& chunk) {
  std::ostringstream out;
  pipeline::PutVarint(out, chunk.index);
  out.write(chunk.data.data(),
            static_cast<std::streamsize>(chunk.data.size()));
  return out.str();
}

util::StatusOr<SnapshotChunk> DecodeSnapshotChunk(std::string_view payload) {
  std::size_t pos = 0;
  bool ok = true;
  SnapshotChunk chunk;
  chunk.index = pipeline::TakeVarint(payload, pos, ok);
  if (!ok) {
    return util::Status::Corrupt("snapshot chunk is malformed");
  }
  chunk.data.assign(payload.substr(pos));
  return chunk;
}

std::string EncodeHeartbeat(const HeartbeatReport& report) {
  std::ostringstream out;
  pipeline::PutVarint(out, report.member_index);
  pipeline::PutZigzag(out, report.hour);
  pipeline::PutVarint(out, report.applied_seq);
  pipeline::PutVarint(out, static_cast<std::uint64_t>(report.health));
  return out.str();
}

util::StatusOr<HeartbeatReport> DecodeHeartbeat(std::string_view payload) {
  std::size_t pos = 0;
  bool ok = true;
  HeartbeatReport report;
  report.member_index =
      static_cast<std::uint32_t>(pipeline::TakeVarint(payload, pos, ok));
  report.hour = pipeline::TakeZigzag(payload, pos, ok);
  report.applied_seq = pipeline::TakeVarint(payload, pos, ok);
  const std::uint64_t health = pipeline::TakeVarint(payload, pos, ok);
  if (!ok || pos != payload.size() ||
      health > static_cast<std::uint64_t>(core::ModelHealth::kExpired)) {
    return util::Status::Corrupt("heartbeat report is malformed");
  }
  report.health = static_cast<core::ModelHealth>(health);
  return report;
}

// --- Batch PredictShift RPC payloads.

std::string EncodePredictRequest(const PredictRequest& request) {
  std::ostringstream out;
  pipeline::PutVarint(out, request.flows.size());
  for (const auto& query : request.flows) {
    const core::FlowFeatures& f = query.flow;
    pipeline::PutVarint(out, f.src_asn.value());
    pipeline::PutVarint(out, f.src_prefix24.address().bits());
    pipeline::PutVarint(out, f.src_prefix24.length());
    pipeline::PutVarint(out, f.src_metro.value());
    pipeline::PutVarint(out, f.dest_region.value());
    pipeline::PutVarint(out, static_cast<std::uint64_t>(f.dest_service));
    PutDouble(out, query.bytes);
  }
  // Excluded links as deltas over the sorted ids (they are small and
  // clustered in practice).
  pipeline::PutVarint(out, request.excluded.size());
  std::uint32_t prev = 0;
  for (const auto link : request.excluded) {
    pipeline::PutVarint(out, link.value() - prev);
    prev = link.value();
  }
  return out.str();
}

util::StatusOr<PredictRequest> DecodePredictRequest(
    std::string_view payload) {
  std::size_t pos = 0;
  bool ok = true;
  PredictRequest request;
  const std::uint64_t flow_count = pipeline::TakeVarint(payload, pos, ok);
  // >= 7 bytes per encoded flow (six single-byte varints minimum plus the
  // fixed64 bytes field would be 14, but stay conservative).
  if (!ok || flow_count > payload.size()) {
    return util::Status::Corrupt("predict request flow count implausible");
  }
  request.flows.reserve(static_cast<std::size_t>(flow_count));
  for (std::uint64_t i = 0; i < flow_count && ok; ++i) {
    core::TipsyService::ShiftQueryFlow query;
    query.flow.src_asn =
        util::AsId(static_cast<std::uint32_t>(
            pipeline::TakeVarint(payload, pos, ok)));
    const auto prefix_bits =
        static_cast<std::uint32_t>(pipeline::TakeVarint(payload, pos, ok));
    const auto prefix_len =
        static_cast<std::uint8_t>(pipeline::TakeVarint(payload, pos, ok));
    if (prefix_len > 32) {
      return util::Status::Corrupt("predict request prefix length > 32");
    }
    query.flow.src_prefix24 =
        util::Ipv4Prefix(util::Ipv4Addr(prefix_bits), prefix_len);
    query.flow.src_metro = util::MetroId(static_cast<std::uint32_t>(
        pipeline::TakeVarint(payload, pos, ok)));
    query.flow.dest_region = util::RegionId(static_cast<std::uint32_t>(
        pipeline::TakeVarint(payload, pos, ok)));
    const std::uint64_t service = pipeline::TakeVarint(payload, pos, ok);
    if (ok && service > static_cast<std::uint64_t>(
                            wan::ServiceType::kCdnFill)) {
      return util::Status::Corrupt("predict request service type unknown");
    }
    query.flow.dest_service = static_cast<wan::ServiceType>(service);
    query.bytes = TakeDouble(payload, pos, ok);
    if (ok) request.flows.push_back(query);
  }
  const std::uint64_t excluded_count = pipeline::TakeVarint(payload, pos, ok);
  if (!ok || excluded_count > payload.size()) {
    return util::Status::Corrupt("predict request exclusion count "
                                 "implausible");
  }
  request.excluded.reserve(static_cast<std::size_t>(excluded_count));
  std::uint32_t prev = 0;
  for (std::uint64_t i = 0; i < excluded_count && ok; ++i) {
    prev += static_cast<std::uint32_t>(pipeline::TakeVarint(payload, pos, ok));
    if (ok) request.excluded.push_back(util::LinkId(prev));
  }
  if (!ok || pos != payload.size()) {
    return util::Status::Corrupt("predict request is malformed");
  }
  return request;
}

std::string EncodePredictResponse(const PredictResponse& response) {
  std::ostringstream out;
  pipeline::PutVarint(out, response.prediction.shifted.size());
  std::uint32_t prev = 0;
  for (const auto& [link, bytes] : response.prediction.shifted) {
    // shifted is sorted by link id, so deltas are non-negative.
    pipeline::PutVarint(out, link.value() - prev);
    prev = link.value();
    PutDouble(out, bytes);
  }
  PutDouble(out, response.prediction.unpredicted_bytes);
  pipeline::PutVarint(out, static_cast<std::uint64_t>(response.health));
  return out.str();
}

util::StatusOr<PredictResponse> DecodePredictResponse(
    std::string_view payload) {
  std::size_t pos = 0;
  bool ok = true;
  PredictResponse response;
  const std::uint64_t count = pipeline::TakeVarint(payload, pos, ok);
  // Every entry needs at least 1 varint byte + 8 double bytes.
  if (!ok || count > payload.size() / 9) {
    return util::Status::Corrupt("predict response entry count implausible");
  }
  response.prediction.shifted.reserve(static_cast<std::size_t>(count));
  std::uint32_t prev = 0;
  for (std::uint64_t i = 0; i < count && ok; ++i) {
    prev += static_cast<std::uint32_t>(pipeline::TakeVarint(payload, pos, ok));
    const double bytes = TakeDouble(payload, pos, ok);
    if (ok) response.prediction.shifted.emplace_back(util::LinkId(prev),
                                                     bytes);
  }
  response.prediction.unpredicted_bytes = TakeDouble(payload, pos, ok);
  const std::uint64_t health = pipeline::TakeVarint(payload, pos, ok);
  if (!ok || pos != payload.size() ||
      health > static_cast<std::uint64_t>(core::ModelHealth::kExpired)) {
    return util::Status::Corrupt("predict response is malformed");
  }
  response.health = static_cast<core::ModelHealth>(health);
  return response;
}

// --- What-if sweep RPC payloads.

std::string EncodeWhatIfRequest(const WhatIfRequest& request) {
  std::ostringstream out;
  pipeline::PutVarint(out, request.rows.size());
  pipeline::EncodeRowsVerbatim(out, request.rows);
  pipeline::PutVarint(out, request.link_loads.size());
  for (const double load : request.link_loads) PutDouble(out, load);
  pipeline::PutVarint(out, request.candidates.size());
  for (const auto& candidate : request.candidates) {
    pipeline::PutVarint(out, candidate.link.value());
    pipeline::PutVarint(out, candidate.prefixes.size());
    for (const auto prefix : candidate.prefixes) {
      pipeline::PutVarint(out, prefix.value());
    }
  }
  pipeline::PutVarint(out, request.prediction_k);
  PutDouble(out, request.safety_headroom);
  return out.str();
}

util::StatusOr<WhatIfRequest> DecodeWhatIfRequest(std::string_view payload) {
  std::size_t pos = 0;
  bool ok = true;
  WhatIfRequest request;
  const std::uint64_t row_count = pipeline::TakeVarint(payload, pos, ok);
  // Every verbatim-encoded row spends at least one byte per field.
  if (!ok || row_count > payload.size() / 9) {
    return util::Status::Corrupt("what-if request row count implausible");
  }
  if (!pipeline::DecodeRowsVerbatim(payload, pos, row_count, request.rows)) {
    return util::Status::Corrupt("what-if request rows end early");
  }
  const std::uint64_t load_count = pipeline::TakeVarint(payload, pos, ok);
  if (!ok || load_count > (payload.size() - pos) / 8) {
    return util::Status::Corrupt("what-if request load count implausible");
  }
  request.link_loads.reserve(static_cast<std::size_t>(load_count));
  for (std::uint64_t i = 0; i < load_count && ok; ++i) {
    request.link_loads.push_back(TakeDouble(payload, pos, ok));
  }
  const std::uint64_t candidate_count =
      pipeline::TakeVarint(payload, pos, ok);
  if (!ok || candidate_count > payload.size() - pos) {
    return util::Status::Corrupt(
        "what-if request candidate count implausible");
  }
  request.candidates.reserve(static_cast<std::size_t>(candidate_count));
  for (std::uint64_t i = 0; i < candidate_count && ok; ++i) {
    cms::WhatIfCandidate candidate;
    candidate.link = util::LinkId(
        static_cast<std::uint32_t>(pipeline::TakeVarint(payload, pos, ok)));
    const std::uint64_t prefix_count = pipeline::TakeVarint(payload, pos, ok);
    if (!ok || prefix_count > payload.size() - pos) {
      return util::Status::Corrupt(
          "what-if request prefix count implausible");
    }
    candidate.prefixes.reserve(static_cast<std::size_t>(prefix_count));
    for (std::uint64_t j = 0; j < prefix_count && ok; ++j) {
      candidate.prefixes.push_back(util::PrefixId(
          static_cast<std::uint32_t>(pipeline::TakeVarint(payload, pos, ok))));
    }
    if (ok) request.candidates.push_back(std::move(candidate));
  }
  request.prediction_k =
      static_cast<std::uint32_t>(pipeline::TakeVarint(payload, pos, ok));
  request.safety_headroom = TakeDouble(payload, pos, ok);
  if (!ok || pos != payload.size()) {
    return util::Status::Corrupt("what-if request is malformed");
  }
  return request;
}

std::string EncodeWhatIfResponse(const WhatIfResponse& response) {
  std::ostringstream out;
  pipeline::PutVarint(out, response.reports.size());
  for (const auto& report : response.reports) {
    pipeline::PutVarint(out, report.candidate_index);
    pipeline::PutVarint(out, report.link.value());
    PutDouble(out, report.matched_bytes);
    PutDouble(out, report.moved_bytes);
    PutDouble(out, report.unpredicted_bytes);
    pipeline::PutVarint(out, report.spills.size());
    std::uint32_t prev = 0;
    for (const auto& spill : report.spills) {
      // Spills are sorted by link id, so deltas are non-negative.
      pipeline::PutVarint(out, spill.link.value() - prev);
      prev = spill.link.value();
      PutDouble(out, spill.bytes);
      PutDouble(out, spill.projected_utilization);
      pipeline::PutVarint(out, spill.over_headroom ? 1 : 0);
    }
    pipeline::PutVarint(out, report.safe ? 1 : 0);
  }
  pipeline::PutVarint(out, static_cast<std::uint64_t>(response.health));
  pipeline::PutVarint(out,
                      static_cast<std::uint64_t>(response.drift_state));
  return out.str();
}

util::StatusOr<WhatIfResponse> DecodeWhatIfResponse(
    std::string_view payload) {
  std::size_t pos = 0;
  bool ok = true;
  WhatIfResponse response;
  const std::uint64_t report_count = pipeline::TakeVarint(payload, pos, ok);
  // Every report costs >= 28 bytes: two varints, three fixed64 doubles,
  // a spill count, and the safe flag.
  if (!ok || report_count > payload.size() / 28) {
    return util::Status::Corrupt(
        "what-if response report count implausible");
  }
  response.reports.reserve(static_cast<std::size_t>(report_count));
  for (std::uint64_t i = 0; i < report_count && ok; ++i) {
    cms::WhatIfReport report;
    report.candidate_index =
        static_cast<std::size_t>(pipeline::TakeVarint(payload, pos, ok));
    report.link = util::LinkId(
        static_cast<std::uint32_t>(pipeline::TakeVarint(payload, pos, ok)));
    report.matched_bytes = TakeDouble(payload, pos, ok);
    report.moved_bytes = TakeDouble(payload, pos, ok);
    report.unpredicted_bytes = TakeDouble(payload, pos, ok);
    const std::uint64_t spill_count = pipeline::TakeVarint(payload, pos, ok);
    // Every spill costs >= 18 bytes: a link delta, two doubles, a flag.
    if (!ok || spill_count > (payload.size() - pos) / 18) {
      return util::Status::Corrupt(
          "what-if response spill count implausible");
    }
    report.spills.reserve(static_cast<std::size_t>(spill_count));
    std::uint32_t prev = 0;
    for (std::uint64_t j = 0; j < spill_count && ok; ++j) {
      cms::WhatIfSpill spill;
      prev +=
          static_cast<std::uint32_t>(pipeline::TakeVarint(payload, pos, ok));
      spill.link = util::LinkId(prev);
      spill.bytes = TakeDouble(payload, pos, ok);
      spill.projected_utilization = TakeDouble(payload, pos, ok);
      spill.over_headroom = pipeline::TakeVarint(payload, pos, ok) != 0;
      if (ok) report.spills.push_back(spill);
    }
    report.safe = pipeline::TakeVarint(payload, pos, ok) != 0;
    if (ok) response.reports.push_back(std::move(report));
  }
  const std::uint64_t health = pipeline::TakeVarint(payload, pos, ok);
  const std::uint64_t drift = pipeline::TakeVarint(payload, pos, ok);
  if (!ok || pos != payload.size() ||
      health > static_cast<std::uint64_t>(core::ModelHealth::kExpired) ||
      drift > static_cast<std::uint64_t>(core::DriftState::kDrifting)) {
    return util::Status::Corrupt("what-if response is malformed");
  }
  response.health = static_cast<core::ModelHealth>(health);
  response.drift_state = static_cast<core::DriftState>(drift);
  return response;
}

// --- Incremental TIPSYHJ1 stream decoder.

JournalStreamDecoder::JournalStreamDecoder(std::uint64_t base_seq,
                                           bool expect_magic)
    : next_seq_(base_seq), magic_pending_(expect_magic) {}

util::Status JournalStreamDecoder::Feed(std::string_view bytes,
                                        std::vector<ha::JournalRecord>& out) {
  if (!status_.ok()) return status_;
  buffer_.append(bytes);

  if (magic_pending_) {
    const std::string_view magic = ha::JournalMagic();
    if (buffer_.size() < magic.size()) return util::Status::Ok();
    if (std::memcmp(buffer_.data(), magic.data(), magic.size()) != 0) {
      // Same split as file recovery: a magic that matches except the
      // version byte is a version skew, anything else is not a journal
      // stream at all.
      if (std::memcmp(buffer_.data(), magic.data(), magic.size() - 1) == 0) {
        status_ = util::Status::VersionMismatch(
            "unsupported journal stream version byte");
      } else {
        status_ = util::Status::Corrupt("bad journal stream magic");
      }
      return status_;
    }
    buffer_.erase(0, magic.size());
    magic_pending_ = false;
  }

  // Frames are parsed and verified in place; the consumed prefix is
  // erased once per call, so a frame arriving a byte at a time costs
  // O(frame), not O(frame^2).
  std::size_t consumed = 0;
  util::Status status;
  while (consumed < buffer_.size()) {
    const std::string_view rest = std::string_view(buffer_).substr(consumed);
    auto header = pipeline::ParseV2FrameHeader(rest);
    if (!header.ok()) {
      // kTruncated: the rest of the frame has not arrived yet; keep the
      // bytes buffered. Finish() turns this into kTruncated if the
      // connection ends here.
      if (header.status().code() != util::StatusCode::kTruncated) {
        status = header.status();
      }
      break;
    }
    if (rest.size() - header->header_bytes < header->payload_size) break;
    const std::string_view payload = rest.substr(
        header->header_bytes, static_cast<std::size_t>(header->payload_size));
    if (!pipeline::V2FramePayloadVerifies(*header, payload)) {
      status = util::Status::Corrupt("hour " + std::to_string(header->hour) +
                                     " block checksum mismatch");
      break;
    }
    auto record = ha::DecodeJournalFrame(*header, payload);
    if (!record.ok()) {
      status = record.status();
      break;
    }
    if (record->seq != next_seq_) {
      status = util::Status::Corrupt(
          "journal stream sequence gap: expected seq " +
          std::to_string(next_seq_) + ", got " +
          std::to_string(record->seq));
      break;
    }
    consumed += header->header_bytes + payload.size();
    ++next_seq_;
    out.push_back(*std::move(record));
  }
  buffer_.erase(0, consumed);
  status_ = status;
  return status_;
}

util::Status JournalStreamDecoder::Finish() const {
  if (!status_.ok()) return status_;
  if (magic_pending_ && !buffer_.empty()) {
    return util::Status::Truncated("stream ended inside the journal magic");
  }
  if (!buffer_.empty()) {
    return util::Status::Truncated(
        "stream ended inside a journal frame (" +
        std::to_string(buffer_.size()) + " torn bytes)");
  }
  return util::Status::Ok();
}

}  // namespace tipsy::net
