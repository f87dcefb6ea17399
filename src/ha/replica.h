// A serving replica: DailyRetrainer + journal + snapshot glued into one
// crash-recoverable unit.
//
// Write path (journal-first): every Ingest/Heartbeat is appended to the
// hour journal — and acknowledged durable — before it mutates the
// retrainer, so the on-disk journal is always at or ahead of the applied
// state and a crash between the two replays the record on restart
// instead of losing it.
//
// Warm start (Open): recover the journal's verified prefix, load the
// newest snapshot, restore it, then replay only the journal records with
// seq >= the snapshot's applied_seq. Replay is seq-gated and therefore
// idempotent: records already folded into the snapshot are
// skipped-and-counted, duplicated or reordered deliveries collapse to
// one application each, and a true sequence gap is a typed kCorrupt. A
// damaged or missing snapshot degrades to a full replay from the
// journal's genesis — slower, bit-identical all the same.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/online.h"
#include "ha/journal.h"
#include "ha/snapshot.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace tipsy::ha {

struct ReplicaConfig {
  std::string journal_path;
  std::string snapshot_path;
  // fsync every journal append (durability) — tests that hammer the
  // journal turn this off; production keeps it on.
  bool fsync_appends = true;
  // Checkpoint automatically whenever ingest crosses a day boundary, so
  // recovery replays at most one day of records.
  bool snapshot_on_day_boundary = true;
  // After each successful snapshot, drop the journal prefix the snapshot
  // covers (Journal::Compact), keeping the journal bounded to roughly one
  // day of records instead of growing from genesis.
  bool compact_after_snapshot = false;
  // Skip compaction while fewer than this many records would be dropped,
  // so tiny prefixes don't pay a file rewrite.
  std::uint64_t compact_min_records = 0;
};

// Where Open() got its state from, for operators and the failover bench.
enum class RestoreSource : std::uint8_t {
  kColdStart = 0,         // no snapshot, empty journal
  kJournalOnly,           // snapshot absent/unusable: replayed from genesis
  kSnapshotAndJournal,    // the fast path
};

[[nodiscard]] constexpr const char* RestoreSourceName(RestoreSource source) {
  switch (source) {
    case RestoreSource::kColdStart: return "COLD_START";
    case RestoreSource::kJournalOnly: return "JOURNAL_ONLY";
    case RestoreSource::kSnapshotAndJournal: return "SNAPSHOT_AND_JOURNAL";
  }
  return "UNKNOWN";
}

// What warm start did, for assertions and the bench's recovery report.
struct ReplicaRecovery {
  RestoreSource source = RestoreSource::kColdStart;
  std::uint64_t replayed_records = 0;  // journal records applied on open
  std::uint64_t skipped_records = 0;   // already inside the snapshot
  // Why the snapshot was not used (OK when it was, or on a cold start).
  util::Status snapshot_status;
  // The journal's tail condition (kTruncated for a torn tail, etc).
  util::Status journal_tail_status;
};

class Replica {
 public:
  // Opens (recovering or creating) the replica's on-disk state. The model
  // parameters must match whatever wrote the snapshot/journal — they are
  // the replica's identity, not part of its persisted state.
  [[nodiscard]] static util::StatusOr<Replica> Open(
      const wan::Wan* wan, const geo::MetroCatalogue* metros,
      int window_days, core::TipsyConfig config, core::RetrainPolicy policy,
      ReplicaConfig replica_config);

  Replica(Replica&&) noexcept = default;
  Replica& operator=(Replica&&) noexcept = default;

  // Journal the hour, then apply it. A non-OK status means the record is
  // not durable and was NOT applied (journal-first).
  [[nodiscard]] util::Status Ingest(util::HourIndex hour,
                                    std::span<const pipeline::AggRow> rows);
  // Clock tick without data (journaled too: AdvanceTo mutates health).
  [[nodiscard]] util::Status Heartbeat(util::HourIndex hour);

  // Journal-first over a whole batch: every record is appended with the
  // fsync deferred, ONE fsync covers the batch, then the records are
  // applied in order (`seq` fields on the inputs are ignored; the journal
  // assigns them). A non-OK status from the append/sync phase means
  // nothing in the batch was applied and nothing may be acked. This is
  // the batched-ack ingest path: N records per fsync instead of one.
  [[nodiscard]] util::Status IngestBatch(
      std::span<const JournalRecord> records);

  // Checkpoint the current state + applied_seq atomically.
  [[nodiscard]] util::Status SnapshotNow();

  // Drops the journal prefix covered by the newest on-disk snapshot
  // (manifest-before-truncate; see Journal::Compact), except what live
  // journal readers still need: the retention floor, read here each
  // time, holds the cut back to the slowest reader's cursor, but never
  // below the previous checkpoint's seq, so the journal spans at most
  // about two checkpoints. A reader further behind falls back to a
  // snapshot. No-op when nothing new is covered or fewer than
  // compact_min_records would drop.
  [[nodiscard]] util::Status CompactThroughSnapshot();

  // The oldest seq a live reader of the journal file (a shipping
  // standby's stream) has yet to read, or nullopt when none is live.
  // The callback runs on the writer's thread inside compaction and must
  // not call back into the replica. An empty function clears it.
  using RetentionFloor = std::function<std::optional<std::uint64_t>()>;
  void SetRetentionFloor(RetentionFloor floor) {
    retention_floor_ = std::move(floor);
  }
  // Records the newest snapshot covers that the last compaction kept
  // for live readers (0 when no reader held it back).
  [[nodiscard]] std::uint64_t standby_retained_records() const {
    return static_cast<std::uint64_t>(published_retained_records_.value());
  }

  // Adopts a remotely sourced snapshot (the ship-side catch-up transfer):
  // restores the state, persists it locally, and resets the local journal
  // base to the snapshot's applied_seq so a warm restart replays cleanly.
  // Refuses (kInvalidArgument) to rewind below the current applied_seq.
  [[nodiscard]] util::Status InstallSnapshot(const SnapshotState& state);

  // Idempotently applies externally sourced records (e.g. a primary's
  // journal shipped to a standby). Records are applied in seq order;
  // those below applied_seq() are skipped-and-counted; duplicates within
  // the batch collapse; a seq gap is kCorrupt and nothing past the gap is
  // applied. Records are NOT re-journaled (they are durable at the
  // source) — use Ingest for live traffic.
  [[nodiscard]] util::Status Replay(std::span<const JournalRecord> records);

  [[nodiscard]] const core::DailyRetrainer& retrainer() const {
    return retrainer_;
  }
  // For wiring that needs the non-const retrainer surface (epoch
  // publication, tracer/fault hooks); ingest must still go through the
  // replica so it is journaled.
  [[nodiscard]] core::DailyRetrainer& mutable_retrainer() {
    return retrainer_;
  }
  [[nodiscard]] const core::TipsyService* service() const {
    return retrainer_.current();
  }
  // The retrainer's published health: a lock-free load, safe from any
  // thread while the replica's writer works.
  [[nodiscard]] core::ModelHealth health() const {
    return retrainer_.health();
  }
  [[nodiscard]] const ReplicaRecovery& recovery() const { return recovery_; }
  [[nodiscard]] std::uint64_t applied_seq() const { return applied_seq_; }
  [[nodiscard]] std::uint64_t duplicate_records_skipped() const {
    return duplicate_records_skipped_.value();
  }
  [[nodiscard]] std::uint64_t snapshots_taken() const {
    return snapshots_taken_.value();
  }
  [[nodiscard]] std::uint64_t snapshots_installed() const {
    return snapshots_installed_.value();
  }
  // Newest hour that carried data (heartbeats excluded); HourIndex min
  // when no data was ever ingested. Survives compaction — the value is
  // reconstructed from the snapshot when the journal prefix is gone — so
  // the daemon's ingest idempotence gate can rest on it.
  [[nodiscard]] util::HourIndex last_data_hour() const {
    return last_data_hour_;
  }
  // Seq covered by the newest snapshot this replica wrote or restored
  // (the upper bound CompactThroughSnapshot may truncate to).
  [[nodiscard]] std::uint64_t last_snapshot_seq() const {
    return last_snapshot_seq_;
  }
  [[nodiscard]] const Journal& journal() const { return journal_; }
  [[nodiscard]] const std::string& snapshot_path() const {
    return config_.snapshot_path;
  }

  // Registers the replica's durability metrics (journal appends/bytes,
  // replay duplicate skips, snapshots, applied_seq, recovery facts) and
  // the embedded retrainer's metrics under `prefix` (e.g.
  // "tipsy_replica_primary"). The applied_seq and journal base gauges
  // read values the replica publishes after each mutation, so a scrape
  // may run on any thread. Gauge callbacks capture `this`: drop the
  // handles before the replica is moved or destroyed.
  [[nodiscard]] obs::MetricGroup RegisterMetrics(obs::Registry& registry,
                                                 const std::string& prefix)
      const;

 private:
  Replica(core::DailyRetrainer retrainer, Journal journal,
          ReplicaConfig config)
      : retrainer_(std::move(retrainer)), journal_(std::move(journal)),
        config_(std::move(config)) {}

  void Apply(const JournalRecord& record);
  // Publishes applied_seq for the registry gauge (the journal publishes
  // its own base and durable tail).
  void PublishProgress();
  // Day-boundary bookkeeping shared by Ingest/Heartbeat/IngestBatch:
  // snapshot (and optionally compact) when the applied record crossed a
  // day boundary.
  [[nodiscard]] util::Status CheckpointAfterDayCrossing();

  core::DailyRetrainer retrainer_;
  Journal journal_;
  ReplicaConfig config_;
  ReplicaRecovery recovery_;
  std::uint64_t applied_seq_ = 0;  // seqs below this are in retrainer_
  std::uint64_t last_snapshot_seq_ = 0;
  // The checkpoint before last_snapshot_seq_: the lowest seq compaction
  // keeps for a slow reader.
  std::uint64_t previous_snapshot_seq_ = 0;
  RetentionFloor retention_floor_;
  obs::Counter duplicate_records_skipped_;
  obs::Counter snapshots_taken_;
  obs::Counter snapshots_installed_;
  // Day of the last applied record, for day-boundary checkpoints.
  util::HourIndex last_applied_day_ =
      std::numeric_limits<util::HourIndex>::min();
  // Newest data-bearing hour (see last_data_hour()).
  util::HourIndex last_data_hour_ =
      std::numeric_limits<util::HourIndex>::min();
  obs::Gauge published_applied_seq_;
  obs::Gauge published_retained_records_;
};

// CRC-32C fingerprint of a replica's full logical state: the served
// model's core::SaveService bytes, every ServiceHealth counter, and
// applied_seq. Two replicas with equal digests are bit-identical for
// serving purposes — the chaos harness compares survivor digests (each
// tipsyd prints its own in the STOPPED line) against the in-process
// control's.
[[nodiscard]] std::uint32_t ReplicaStateDigest(const Replica& replica);

}  // namespace tipsy::ha
