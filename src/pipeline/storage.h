// Data-lake persistence for aggregated rows.
//
// The paper stores aggregated telemetry in a data lake and cites the
// aggregation + ordinal-encoding step cutting IPFIX to ~2% of raw size
// (§4.2). This is a compact, versioned binary container for AggRow
// batches: hour-blocked, varint-encoded, with rows delta-friendly sorted.
// An offline job can train from a file instead of a live simulation.
//
// Format v2 (current) frames every hour block with its encoded byte
// length and a CRC-32C, so collector crashes (truncation) and bit rot in
// the archive surface as typed errors instead of silently-wrong training
// rows; v1 files (no checksums) remain readable. All counts are validated
// against the bytes actually present before any allocation, so a hostile
// length can never drive a multi-GB resize.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "pipeline/aggregate.h"
#include "util/status.h"

namespace tipsy::pipeline {

inline constexpr int kRowFileFormatVersion = 2;

// --- Low-level varint helpers (LEB128), exposed for tests.
void PutVarint(std::ostream& out, std::uint64_t value);
[[nodiscard]] std::optional<std::uint64_t> GetVarint(std::istream& in);
// In-memory variant: reads one varint from `bytes` starting at `pos`,
// advancing it. nullopt when the buffer ends mid-varint or it overflows.
[[nodiscard]] std::optional<std::uint64_t> GetVarint(std::string_view bytes,
                                                     std::size_t& pos);

// --- Bounds-checked payload-cursor helpers, shared by the decoders that
// walk an in-memory checksummed payload (the HA snapshot and journal).
// Each reads one value from `payload` at `pos` (advanced past it) and
// clears the shared `ok` flag - returning 0 - when the buffer ends
// mid-value; callers check `ok` once per section instead of per field.
[[nodiscard]] std::uint64_t TakeVarint(std::string_view payload,
                                       std::size_t& pos, bool& ok);
[[nodiscard]] std::int64_t TakeZigzag(std::string_view payload,
                                      std::size_t& pos, bool& ok);

// Writes a zigzag-encoded varint (for occasionally-negative values).
void PutZigzag(std::ostream& out, std::int64_t value);

// Zigzag for occasionally-negative values (hours).
[[nodiscard]] constexpr std::uint64_t ZigzagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t ZigzagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// --- The v2 hour-block frame, shared between the archive format and the
// HA journal (src/ha/journal): zigzag hour + row count + payload length
// as varints, a CRC-32C covering (hour, count, payload), then the payload
// bytes. Everything inside the payload is checksum-verified before any
// row is decoded, and lengths are validated before any allocation.
struct V2Frame {
  util::HourIndex hour = 0;
  std::uint64_t count = 0;
  std::string payload;
};
void WriteV2Frame(std::ostream& out, util::HourIndex hour,
                  std::uint64_t count, std::string_view payload);
// kTruncated when the stream ends mid-frame, kCorrupt on a checksum
// mismatch or an implausible length. Clean end-of-stream must be detected
// by the caller (peek) before calling.
[[nodiscard]] util::StatusOr<V2Frame> ReadV2Frame(std::istream& in);

// The fixed part of a v2 frame, parsed in place from a byte buffer (the
// journal's incremental ship tail reads frames by offset, not through a
// stream). The payload_size bytes that follow header_bytes are the
// payload the stored checksum covers.
struct V2FrameHeader {
  util::HourIndex hour = 0;
  std::uint64_t count = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t crc = 0;
  std::size_t header_bytes = 0;  // varints + checksum
};
// Longest possible header: three 10-byte varints and the checksum.
inline constexpr std::size_t kMaxV2FrameHeaderBytes = 34;
// kTruncated when `bytes` ends inside the header, kCorrupt on the same
// implausible lengths ReadV2Frame refuses. The payload need not be
// present yet.
[[nodiscard]] util::StatusOr<V2FrameHeader> ParseV2FrameHeader(
    std::string_view bytes);
// True when `payload` (payload_size bytes) matches the header's checksum.
[[nodiscard]] bool V2FramePayloadVerifies(const V2FrameHeader& header,
                                          std::string_view payload);

// --- Verbatim row codec: preserves row order and each row's own hour
// field, so a replayed stream is bit-identical to the live one. Used by
// the HA journal and snapshot; the archive format instead sorts rows for
// delta-friendliness and stamps them with the block hour.
void EncodeRowsVerbatim(std::ostream& out, std::span<const AggRow> rows);
// Decodes exactly `count` rows from `payload` starting at `pos`
// (advanced past them). false when the payload ends early; never
// allocates more than `count` rows, which the caller must have validated
// against the payload size (>= 9 bytes per encoded row).
[[nodiscard]] bool DecodeRowsVerbatim(std::string_view payload,
                                      std::size_t& pos, std::uint64_t count,
                                      std::vector<AggRow>& rows);

class RowFileWriter {
 public:
  // Writes the header immediately. `format_version` exists for interop
  // with old readers and the backward-compat tests; new archives should
  // use the default.
  explicit RowFileWriter(std::ostream& out,
                         int format_version = kRowFileFormatVersion);

  // Appends one hour block. Rows may be in any order; they are written
  // sorted for determinism.
  void WriteHour(util::HourIndex hour, std::span<const AggRow> rows);

  [[nodiscard]] std::size_t rows_written() const { return rows_written_; }

 private:
  std::ostream& out_;
  int format_version_;
  std::size_t rows_written_ = 0;
};

class RowFileReader {
 public:
  // Validates the header; check ok()/status() before reading.
  explicit RowFileReader(std::istream& in);

  [[nodiscard]] bool ok() const { return status_.ok(); }
  // Why the reader stopped: kCorrupt (checksum/impossible counts),
  // kTruncated (stream ended mid-block) or kVersionMismatch.
  [[nodiscard]] const util::Status& status() const { return status_; }
  [[nodiscard]] int format_version() const { return format_version_; }

  // Reads the next hour block; nullopt at clean end-of-file or on error
  // (then status() is non-OK).
  struct HourBlock {
    util::HourIndex hour = 0;
    std::vector<AggRow> rows;
  };
  [[nodiscard]] std::optional<HourBlock> ReadHour();

 private:
  std::optional<HourBlock> ReadHourV1(util::HourIndex hour,
                                      std::uint64_t count);
  std::optional<HourBlock> ReadHourV2(V2Frame frame);
  // Marks the reader failed and returns nullopt.
  std::optional<HourBlock> Fail(util::Status status);

  std::istream& in_;
  util::Status status_;
  int format_version_ = 0;
};

}  // namespace tipsy::pipeline
