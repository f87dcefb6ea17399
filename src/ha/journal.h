// Append-only hour journal: the durability substrate of the HA serving
// plane.
//
// A serving replica journals every DailyRetrainer ingest (and every
// heartbeat) before applying it, so the exact ingest stream — including
// the out-of-order deliveries the retrainer drops-and-counts — can be
// replayed bit-identically after a crash. Records reuse the v2 hour-block
// framing from pipeline/storage (varint header + CRC-32C + payload); the
// payload carries a record kind, a contiguous sequence number and the
// rows encoded verbatim (arrival order and per-row hours preserved).
//
// On-disk layout:   "TIPSYHJ1" | frame | frame | ...
//   frame payload:  varint kind (0=ingest, 1=heartbeat) | varint seq |
//                   rows verbatim (frame.count of them; 0 for heartbeats)
//
// Recovery semantics mirror the PR 2 archive formats: the journal is read
// record by record until the first damaged frame; everything before it is
// the *verified prefix* (bit-honest, usable), everything after is the
// torn tail a crash mid-append leaves behind, truncated away on open so
// the next append lands on verified bytes. A short file (shorter than the
// magic) is a torn initial create and is rewritten; a *wrong* magic is a
// typed kCorrupt — the file is something else and must not be clobbered.
//
// Compaction: once every record below a seq is captured in a snapshot,
// Compact(through_seq) drops that prefix from disk so the journal stays
// bounded. The new base seq is authenticated by a manifest sidecar at
// `<path>.manifest` ("TIPSYHM1" | varint base_seq | CRC-32C), written
// atomically *before* the journal rewrite (manifest-before-truncate). A
// crash between the two leaves manifest.base ahead of the file's first
// record; Open() detects that torn compaction and completes the
// truncation to the verified state. A file whose first record is *ahead*
// of the manifest base (or nonzero with no manifest at all) means records
// were lost and is a typed kCorrupt.
//
// Readers on other threads (the ship plane) never touch the Journal
// object: they follow the JournalProgress it publishes and read the file
// itself through a JournalTailReader.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "pipeline/storage.h"
#include "util/status.h"

namespace tipsy::ha {

inline constexpr int kJournalFormatVersion = 1;    // magic "TIPSYHJ1"
inline constexpr int kJournalManifestVersion = 1;  // magic "TIPSYHM1"

// The 8-byte container magic ("TIPSYHJ1"), shared by the on-disk journal
// and the wire stream that ships it (src/net/wire).
[[nodiscard]] std::string_view JournalMagic();

// The compaction manifest sidecar lives next to the journal file.
[[nodiscard]] std::string JournalManifestPath(std::string_view journal_path);

// What the manifest authenticates: every seq below base_seq has been
// compacted out of the journal file (it lives in a snapshot instead).
struct JournalManifest {
  std::uint64_t base_seq = 0;
};

[[nodiscard]] std::string EncodeJournalManifest(
    const JournalManifest& manifest);

// Typed errors mirror the other PR 2 formats: kTruncated when shorter
// than its fixed layout, kCorrupt on bad magic / checksum / trailing
// bytes, kVersionMismatch on an unsupported version byte.
[[nodiscard]] util::StatusOr<JournalManifest> DecodeJournalManifest(
    std::string_view bytes);

enum class JournalRecordKind : std::uint8_t {
  kIngest = 0,     // an Ingest(hour, rows) call
  kHeartbeat = 1,  // an AdvanceTo(hour) clock tick (no rows)
};

struct JournalRecord {
  std::uint64_t seq = 0;
  JournalRecordKind kind = JournalRecordKind::kIngest;
  util::HourIndex hour = 0;
  std::vector<pipeline::AggRow> rows;  // empty for heartbeats
};

// One record encoded as a framed journal entry (exposed for the chaos
// harness and tests, which build damaged journals byte by byte).
[[nodiscard]] std::string EncodeJournalRecord(const JournalRecord& record);

// Decodes one journal record from a verified v2 frame (the checksum has
// already passed). kCorrupt when the payload inside the frame is
// malformed: bad kind, a heartbeat carrying rows, undecodable rows, or
// trailing bytes. Shared by file recovery and the wire-stream decoder
// (src/net/wire) so both sides reject hostile frames identically.
[[nodiscard]] util::StatusOr<JournalRecord> DecodeJournalFrame(
    const pipeline::V2Frame& frame);
// The same, over a frame verified in place (header plus payload view).
[[nodiscard]] util::StatusOr<JournalRecord> DecodeJournalFrame(
    const pipeline::V2FrameHeader& header, std::string_view payload);

struct JournalRecovery {
  std::vector<JournalRecord> records;
  // Seq of the first record in the file (the compacted base). An empty
  // file recovers base 0; Journal::Open overrides it from the manifest.
  std::uint64_t base_seq = 0;
  // Bytes (including the magic) that passed every checksum; the file is
  // truncated to this length on open when a tail was torn.
  std::size_t verified_bytes = 0;
  std::size_t torn_bytes = 0;  // bytes discarded past the verified prefix
  // OK when the journal ended cleanly; otherwise why recovery stopped
  // (kTruncated for a torn tail, kCorrupt for bit rot / a sequence gap).
  util::Status tail_status;
};

// Parses journal bytes up to the first damaged record. The first record's
// seq defines the file's base; later records must be contiguous from it.
// Returns a non-OK status only when the magic itself is wrong (kCorrupt)
// or names an unsupported version (kVersionMismatch) — then nothing in
// the file can be trusted. An empty or shorter-than-magic buffer recovers
// to zero records with the stub counted as torn.
[[nodiscard]] util::StatusOr<JournalRecovery> RecoverJournalBytes(
    std::string_view bytes);

// What the journal has made durable, published for readers on other
// threads: the seq one past the durable tail and the compacted base.
// Loads are lock-free; WaitForAdvance parks a reader until the durable
// tail moves, so a tailing reader wakes on the append instead of a poll.
class JournalProgress {
 public:
  [[nodiscard]] std::uint64_t durable_next_seq() const {
    return durable_next_seq_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t base_seq() const {
    return base_seq_.load(std::memory_order_acquire);
  }
  // Blocks until durable_next_seq() differs from `seen` or `timeout_ms`
  // passes; returns durable_next_seq().
  std::uint64_t WaitForAdvance(std::uint64_t seen, int timeout_ms) const;
  // Writer side (the Journal): stores both values and wakes every waiter.
  void Publish(std::uint64_t durable_next_seq, std::uint64_t base_seq);

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable advanced_;
  std::atomic<std::uint64_t> durable_next_seq_{0};
  std::atomic<std::uint64_t> base_seq_{0};
};

// Incremental reader of a live journal file, for shipping it verbatim:
// hands out the bytes of every complete, CRC-verified frame from a seq
// on, reading only the bytes past the last frame it handed out. A torn
// frame at the end of the file (an append in flight) is left for a later
// call. Compaction replaces the file (an atomic rename); the reader
// notices the new file at the path and re-anchors by walking its frame
// headers to the requested seq. Every frame it returns passed its
// checksum and carries the next contiguous seq.
class JournalTailReader {
 public:
  explicit JournalTailReader(std::string path) : path_(std::move(path)) {}
  ~JournalTailReader();
  JournalTailReader(const JournalTailReader&) = delete;
  JournalTailReader& operator=(const JournalTailReader&) = delete;

  // Appends to `out` the frames with seq in [cursor, ...) that are
  // complete on disk and returns how many. Errors:
  //   kNoData   - the file no longer holds `cursor` (compaction dropped
  //               it); the caller must fall back to a snapshot.
  //   kCorrupt  - bad magic, a frame failed its checksum, or a seq gap.
  //   kIoError  - the file could not be opened or read.
  [[nodiscard]] util::StatusOr<std::uint64_t> ReadFrom(std::uint64_t cursor,
                                                       std::string& out);

 private:
  // (Re)opens the file at path_ when it names a different file than the
  // open descriptor, resetting the walk to the first frame.
  [[nodiscard]] util::Status Follow();

  std::string path_;
  int fd_ = -1;
  std::uint64_t dev_ = 0;
  std::uint64_t ino_ = 0;
  // Frame boundary the walk resumes at, and the seq of that frame (valid
  // once a frame has been read there).
  std::uint64_t offset_ = 0;
  std::uint64_t offset_seq_ = 0;
  bool offset_seq_known_ = false;
  std::string header_;  // scratch for one frame header
};

class Journal {
 public:
  // Opens (creating if missing) the journal at `path`. An existing file
  // is recovered record by record and a torn tail is truncated away on
  // disk. `fsync_appends` trades append latency for the guarantee that an
  // acknowledged record survives power loss.
  [[nodiscard]] static util::StatusOr<Journal> Open(
      std::string path, bool fsync_appends = true);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  // Appends one record; the returned seq is contiguous from the recovered
  // prefix. The record is flushed (and fsynced when configured) before
  // returning — a non-OK status means it must not be treated as durable.
  [[nodiscard]] util::StatusOr<std::uint64_t> Append(
      JournalRecordKind kind, util::HourIndex hour,
      std::span<const pipeline::AggRow> rows);

  // Like Append but defers the fsync: the record reaches the OS (fflush)
  // yet is NOT durable until the next Sync(). The batched-ack ingest path
  // appends a whole window of records and pays one fsync for all of them.
  [[nodiscard]] util::StatusOr<std::uint64_t> AppendBuffered(
      JournalRecordKind kind, util::HourIndex hour,
      std::span<const pipeline::AggRow> rows);

  // Makes every buffered append durable (no-op when fsync_appends=false,
  // matching Append's policy).
  [[nodiscard]] util::Status Sync();

  // Drops every record with seq < through_seq from the on-disk file.
  // Caller contract: those records are already captured in a snapshot.
  // Writes the manifest first (WriteFileAtomic), then rewrites the
  // journal as magic + surviving suffix (WriteFileAtomic again); a crash
  // between the two is reconciled by the next Open(). through_seq may
  // exceed next_seq (a standby installing a remote snapshot): the journal
  // resets to an empty file based at through_seq.
  [[nodiscard]] util::Status Compact(std::uint64_t through_seq);

  // What Open() recovered (the records are kept for warm-start replay).
  // Not updated by later Append/Compact calls.
  [[nodiscard]] const JournalRecovery& recovered() const {
    return recovered_;
  }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  // Seq of the oldest record still in the file; records() spans
  // [base_seq, next_seq).
  [[nodiscard]] std::uint64_t base_seq() const { return base_seq_; }
  // True when Open() found a manifest ahead of the file (a crash landed
  // between manifest write and journal rewrite) and completed the
  // truncation.
  [[nodiscard]] bool compaction_resumed() const {
    return compaction_resumed_;
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  // The durable tail and base, published after every fsync, Sync() and
  // compaction. The object lives on the heap, so its address is stable
  // across moves of the Journal; readers on other threads hold it
  // instead of the Journal.
  [[nodiscard]] const JournalProgress& progress() const {
    return *progress_;
  }
  [[nodiscard]] std::string manifest_path() const {
    return JournalManifestPath(path_);
  }

  // Append accounting since Open (registry-served; see
  // Replica::RegisterMetrics).
  [[nodiscard]] std::uint64_t appends() const { return appends_.value(); }
  [[nodiscard]] std::uint64_t append_bytes() const {
    return append_bytes_.value();
  }
  [[nodiscard]] const obs::Counter& append_counter() const {
    return appends_;
  }
  [[nodiscard]] const obs::Counter& append_bytes_counter() const {
    return append_bytes_;
  }
  [[nodiscard]] std::uint64_t compactions() const {
    return compactions_.value();
  }
  [[nodiscard]] std::uint64_t compacted_records() const {
    return compacted_records_.value();
  }
  [[nodiscard]] const obs::Counter& compaction_counter() const {
    return compactions_;
  }
  [[nodiscard]] const obs::Counter& compacted_records_counter() const {
    return compacted_records_;
  }

 private:
  Journal() = default;

  [[nodiscard]] util::StatusOr<std::uint64_t> AppendImpl(
      JournalRecordKind kind, util::HourIndex hour,
      std::span<const pipeline::AggRow> rows, bool sync);

  std::string path_;
  bool fsync_appends_ = true;
  std::FILE* file_ = nullptr;
  JournalRecovery recovered_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t base_seq_ = 0;
  bool compaction_resumed_ = false;
  std::unique_ptr<JournalProgress> progress_ =
      std::make_unique<JournalProgress>();
  obs::Counter appends_;
  obs::Counter append_bytes_;
  obs::Counter compactions_;
  obs::Counter compacted_records_;
};

}  // namespace tipsy::ha
