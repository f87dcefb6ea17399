#include "pipeline/storage.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "util/checksum.h"

namespace tipsy::pipeline {
namespace {

constexpr char kMagicV1[8] = {'T', 'I', 'P', 'S', 'Y', 'R', 'F', '1'};
constexpr char kMagicV2[8] = {'T', 'I', 'P', 'S', 'Y', 'R', 'F', '2'};

// Hostile-length guards. A v2 hour payload beyond this is implausible
// (realistic hours encode to a few MB); a v1 row count is only trusted up
// to this reserve, rows beyond it grow the vector organically.
constexpr std::uint64_t kMaxHourPayloadBytes = 1ULL << 28;  // 256 MiB
constexpr std::uint64_t kRowReserveCap = 1ULL << 16;
// Every encoded row is at least 8 varint fields of >= 1 byte each.
constexpr std::uint64_t kMinEncodedRowBytes = 8;

bool RowLess(const AggRow& a, const AggRow& b) {
  if (a.link != b.link) return a.link < b.link;
  if (a.src_asn != b.src_asn) return a.src_asn < b.src_asn;
  if (a.src_prefix24 != b.src_prefix24) return a.src_prefix24 < b.src_prefix24;
  if (a.dest_region != b.dest_region) return a.dest_region < b.dest_region;
  return a.dest_service < b.dest_service;
}

void EncodeRows(std::ostream& out, std::span<const AggRow> sorted) {
  std::uint32_t prev_link = 0;
  for (const auto& row : sorted) {
    // Links arrive sorted: delta-encode them; everything else plain
    // varint. Invalid metro is stored as 0 (valid ids shifted by one).
    PutVarint(out, row.link.value() - prev_link);
    prev_link = row.link.value();
    PutVarint(out, row.src_asn.value());
    PutVarint(out, row.src_prefix24.address().bits() >> 8);
    PutVarint(out, row.src_metro.valid() ? row.src_metro.value() + 1 : 0);
    PutVarint(out, row.dest_region.value());
    PutVarint(out, static_cast<std::uint64_t>(row.dest_service));
    PutVarint(out, row.dest_prefix.valid() ? row.dest_prefix.value() + 1
                                           : 0);
    PutVarint(out, row.bytes);
  }
}

// Varint decoding over an in-memory payload (the v2 path; the payload is
// checksummed before any row is decoded).
struct MemCursor {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  std::optional<std::uint64_t> GetVarint() {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      if (pos >= size || shift > 63) return std::nullopt;
      const unsigned char byte = data[pos++];
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return value;
  }
};

// Decodes the 8 varint fields of one row; true on success.
template <typename VarintSource>
bool DecodeRow(VarintSource& source, util::HourIndex hour,
               std::uint32_t& prev_link, AggRow& row) {
  std::uint64_t fields[8];
  for (auto& field : fields) {
    const auto value = source.GetVarint();
    if (!value) return false;
    field = *value;
  }
  row.hour = hour;
  prev_link += static_cast<std::uint32_t>(fields[0]);
  row.link = util::LinkId{prev_link};
  row.src_asn = util::AsId{static_cast<std::uint32_t>(fields[1])};
  row.src_prefix24 = util::Ipv4Prefix(
      util::Ipv4Addr(static_cast<std::uint32_t>(fields[2] << 8)), 24);
  row.src_metro =
      fields[3] == 0
          ? util::MetroId{}
          : util::MetroId{static_cast<std::uint32_t>(fields[3] - 1)};
  row.dest_region = util::RegionId{static_cast<std::uint32_t>(fields[4])};
  row.dest_service = static_cast<wan::ServiceType>(fields[5]);
  row.dest_prefix =
      fields[6] == 0
          ? util::PrefixId{}
          : util::PrefixId{static_cast<std::uint32_t>(fields[6] - 1)};
  row.bytes = fields[7];
  return true;
}

// Adapter so the v1 stream path can share DecodeRow with MemCursor.
struct StreamCursor {
  std::istream& in;
  std::optional<std::uint64_t> GetVarint() {
    return pipeline::GetVarint(in);
  }
};

// v2 block checksum: covers the header values and the encoded rows.
std::uint32_t HourBlockCrc(util::HourIndex hour, std::uint64_t count,
                           std::string_view payload) {
  util::Crc32c crc;
  const auto hour_bits = static_cast<std::uint64_t>(hour);
  crc.Update(&hour_bits, sizeof(hour_bits));
  crc.Update(&count, sizeof(count));
  crc.Update(payload);
  return crc.Digest();
}

}  // namespace

void PutVarint(std::ostream& out, std::uint64_t value) {
  while (value >= 0x80) {
    const auto byte = static_cast<unsigned char>((value & 0x7f) | 0x80);
    out.put(static_cast<char>(byte));
    value >>= 7;
  }
  out.put(static_cast<char>(value));
}

std::optional<std::uint64_t> GetVarint(std::istream& in) {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    const int byte = in.get();
    if (byte == std::char_traits<char>::eof() || shift > 63) {
      return std::nullopt;
    }
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

RowFileWriter::RowFileWriter(std::ostream& out, int format_version)
    : out_(out), format_version_(format_version <= 1 ? 1 : 2) {
  out_.write(format_version_ == 1 ? kMagicV1 : kMagicV2, 8);
}

void RowFileWriter::WriteHour(util::HourIndex hour,
                              std::span<const AggRow> rows) {
  std::vector<AggRow> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), RowLess);

  if (format_version_ == 1) {
    PutVarint(out_, ZigzagEncode(hour));
    PutVarint(out_, sorted.size());
    EncodeRows(out_, sorted);
  } else {
    std::ostringstream body;
    EncodeRows(body, sorted);
    WriteV2Frame(out_, hour, sorted.size(), body.str());
  }
  rows_written_ += sorted.size();
}

RowFileReader::RowFileReader(std::istream& in) : in_(in) {
  char magic[8];
  in_.read(magic, sizeof(magic));
  if (!in_) {
    status_ = util::Status::Truncated("row file shorter than its magic");
  } else if (std::memcmp(magic, kMagicV1, sizeof(magic)) == 0) {
    format_version_ = 1;
  } else if (std::memcmp(magic, kMagicV2, sizeof(magic)) == 0) {
    format_version_ = 2;
  } else if (std::memcmp(magic, kMagicV1, 7) == 0) {
    status_ = util::Status::VersionMismatch(
        "unsupported row file format version byte");
  } else {
    status_ = util::Status::Corrupt("bad row file magic");
  }
}

std::optional<RowFileReader::HourBlock> RowFileReader::Fail(
    util::Status status) {
  status_ = std::move(status);
  return std::nullopt;
}

std::optional<RowFileReader::HourBlock> RowFileReader::ReadHour() {
  if (!ok()) return std::nullopt;
  // Peek for clean EOF.
  if (in_.peek() == std::char_traits<char>::eof()) return std::nullopt;
  if (format_version_ == 1) {
    const auto hour_raw = GetVarint(in_);
    const auto count = GetVarint(in_);
    if (!hour_raw || !count) {
      return Fail(util::Status::Truncated("hour block header ends early"));
    }
    return ReadHourV1(ZigzagDecode(*hour_raw), *count);
  }
  auto frame = ReadV2Frame(in_);
  if (!frame.ok()) return Fail(frame.status());
  return ReadHourV2(*std::move(frame));
}

std::optional<RowFileReader::HourBlock> RowFileReader::ReadHourV1(
    util::HourIndex hour, std::uint64_t count) {
  // v1 has no payload length to validate the count against; trust it only
  // up to the reserve cap so a flipped byte cannot drive a huge
  // allocation — rows beyond the cap grow the vector organically.
  HourBlock block;
  block.hour = hour;
  block.rows.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, kRowReserveCap)));
  StreamCursor cursor{in_};
  std::uint32_t prev_link = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    AggRow row;
    if (!DecodeRow(cursor, hour, prev_link, row)) {
      return Fail(util::Status::Truncated(
          "hour " + std::to_string(hour) + " ends after " +
          std::to_string(i) + " of " + std::to_string(count) + " rows"));
    }
    block.rows.push_back(row);
  }
  return block;
}

std::optional<RowFileReader::HourBlock> RowFileReader::ReadHourV2(
    V2Frame frame) {
  HourBlock block;
  block.hour = frame.hour;
  block.rows.reserve(static_cast<std::size_t>(frame.count));
  MemCursor cursor{
      reinterpret_cast<const unsigned char*>(frame.payload.data()),
      frame.payload.size()};
  std::uint32_t prev_link = 0;
  for (std::uint64_t i = 0; i < frame.count; ++i) {
    AggRow row;
    if (!DecodeRow(cursor, frame.hour, prev_link, row)) {
      return Fail(util::Status::Corrupt(
          "hour " + std::to_string(frame.hour) +
          " payload decodes fewer rows than declared"));
    }
    block.rows.push_back(row);
  }
  if (cursor.pos != cursor.size) {
    return Fail(util::Status::Corrupt(
        "hour " + std::to_string(frame.hour) + " payload has " +
        std::to_string(cursor.size - cursor.pos) + " trailing bytes"));
  }
  return block;
}

std::optional<std::uint64_t> GetVarint(std::string_view bytes,
                                       std::size_t& pos) {
  MemCursor cursor{reinterpret_cast<const unsigned char*>(bytes.data()),
                   bytes.size(), pos};
  const auto value = cursor.GetVarint();
  if (value) pos = cursor.pos;
  return value;
}

std::uint64_t TakeVarint(std::string_view payload, std::size_t& pos,
                         bool& ok) {
  const auto value = GetVarint(payload, pos);
  if (!value) {
    ok = false;
    return 0;
  }
  return *value;
}

std::int64_t TakeZigzag(std::string_view payload, std::size_t& pos,
                        bool& ok) {
  return ZigzagDecode(TakeVarint(payload, pos, ok));
}

void PutZigzag(std::ostream& out, std::int64_t value) {
  PutVarint(out, ZigzagEncode(value));
}

void WriteV2Frame(std::ostream& out, util::HourIndex hour,
                  std::uint64_t count, std::string_view payload) {
  PutVarint(out, ZigzagEncode(hour));
  PutVarint(out, count);
  PutVarint(out, payload.size());
  const std::uint32_t crc = HourBlockCrc(hour, count, payload);
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

namespace {

// Length guards shared by the stream and in-place frame readers: checked
// before any payload byte is read or allocated.
util::Status CheckV2FrameLengths(std::uint64_t count,
                                 std::uint64_t payload_size) {
  if (payload_size > kMaxHourPayloadBytes) {
    return util::Status::Corrupt("implausible hour payload size " +
                                 std::to_string(payload_size));
  }
  if (count > payload_size / kMinEncodedRowBytes) {
    return util::Status::Corrupt(
        "row count " + std::to_string(count) + " exceeds what " +
        std::to_string(payload_size) + " payload bytes can encode");
  }
  return util::Status::Ok();
}

}  // namespace

util::StatusOr<V2Frame> ReadV2Frame(std::istream& in) {
  const auto hour_raw = GetVarint(in);
  const auto count = GetVarint(in);
  const auto payload_size = GetVarint(in);
  if (!hour_raw || !count || !payload_size) {
    return util::Status::Truncated("hour block header ends early");
  }
  if (auto status = CheckV2FrameLengths(*count, *payload_size);
      !status.ok()) {
    return status;
  }
  std::uint32_t crc = 0;
  in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  if (!in) {
    return util::Status::Truncated("hour block checksum ends early");
  }
  V2Frame frame;
  frame.hour = ZigzagDecode(*hour_raw);
  frame.count = *count;
  frame.payload.resize(static_cast<std::size_t>(*payload_size));
  in.read(frame.payload.data(),
          static_cast<std::streamsize>(frame.payload.size()));
  if (static_cast<std::uint64_t>(in.gcount()) != *payload_size) {
    return util::Status::Truncated(
        "hour payload ends early (" + std::to_string(*payload_size) +
        " declared, " + std::to_string(in.gcount()) + " available)");
  }
  if (HourBlockCrc(frame.hour, frame.count, frame.payload) != crc) {
    return util::Status::Corrupt("hour " + std::to_string(frame.hour) +
                                 " block checksum mismatch");
  }
  return frame;
}

util::StatusOr<V2FrameHeader> ParseV2FrameHeader(std::string_view bytes) {
  std::size_t pos = 0;
  const auto hour_raw = GetVarint(bytes, pos);
  const auto count = hour_raw ? GetVarint(bytes, pos) : std::nullopt;
  const auto payload_size = count ? GetVarint(bytes, pos) : std::nullopt;
  if (!payload_size) {
    // A varint cut short by the buffer end is a torn header; one that
    // overflows 64 bits within the longest header is damage.
    if (bytes.size() >= kMaxV2FrameHeaderBytes) {
      return util::Status::Corrupt("hour block header varint overflows");
    }
    return util::Status::Truncated("hour block header ends early");
  }
  if (auto status = CheckV2FrameLengths(*count, *payload_size);
      !status.ok()) {
    return status;
  }
  V2FrameHeader header;
  if (bytes.size() - pos < sizeof(header.crc)) {
    return util::Status::Truncated("hour block checksum ends early");
  }
  std::memcpy(&header.crc, bytes.data() + pos, sizeof(header.crc));
  header.hour = ZigzagDecode(*hour_raw);
  header.count = *count;
  header.payload_size = *payload_size;
  header.header_bytes = pos + sizeof(header.crc);
  return header;
}

bool V2FramePayloadVerifies(const V2FrameHeader& header,
                            std::string_view payload) {
  return payload.size() == header.payload_size &&
         HourBlockCrc(header.hour, header.count, payload) == header.crc;
}

void EncodeRowsVerbatim(std::ostream& out, std::span<const AggRow> rows) {
  std::uint32_t prev_link = 0;
  for (const auto& row : rows) {
    // Same fields as the archive codec plus the row's own hour; the link
    // delta wraps modulo 2^32 for unsorted rows (decode adds it back).
    PutVarint(out, ZigzagEncode(row.hour));
    PutVarint(out, row.link.value() - prev_link);
    prev_link = row.link.value();
    PutVarint(out, row.src_asn.value());
    PutVarint(out, row.src_prefix24.address().bits() >> 8);
    PutVarint(out, row.src_metro.valid() ? row.src_metro.value() + 1 : 0);
    PutVarint(out, row.dest_region.value());
    PutVarint(out, static_cast<std::uint64_t>(row.dest_service));
    PutVarint(out, row.dest_prefix.valid() ? row.dest_prefix.value() + 1
                                           : 0);
    PutVarint(out, row.bytes);
  }
}

bool DecodeRowsVerbatim(std::string_view payload, std::size_t& pos,
                        std::uint64_t count, std::vector<AggRow>& rows) {
  MemCursor cursor{reinterpret_cast<const unsigned char*>(payload.data()),
                   payload.size(), pos};
  rows.reserve(rows.size() + static_cast<std::size_t>(count));
  std::uint32_t prev_link = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto hour_raw = cursor.GetVarint();
    if (!hour_raw) return false;
    AggRow row;
    if (!DecodeRow(cursor, ZigzagDecode(*hour_raw), prev_link, row)) {
      return false;
    }
    rows.push_back(row);
  }
  pos = cursor.pos;
  return true;
}

}  // namespace tipsy::pipeline
