#include "ha/replica.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/serialize.h"
#include "util/checksum.h"

namespace tipsy::ha {

namespace {
constexpr util::HourIndex kNoDay =
    std::numeric_limits<util::HourIndex>::min();

// Newest data-bearing hour recorded in a snapshot: Day.last_hour is only
// advanced by Ingest (heartbeats age last_observed_hour, not the days),
// so the max over the window reconstructs last_data_hour after the
// journal prefix that carried those hours was compacted away.
util::HourIndex MaxDataHour(const core::RetrainerState& state) {
  util::HourIndex result = kNoDay;
  for (const auto& day : state.days) {
    result = std::max(result, day.last_hour);
  }
  return result;
}
}  // namespace

util::StatusOr<Replica> Replica::Open(const wan::Wan* wan,
                                      const geo::MetroCatalogue* metros,
                                      int window_days,
                                      core::TipsyConfig config,
                                      core::RetrainPolicy policy,
                                      ReplicaConfig replica_config) {
  auto journal = Journal::Open(replica_config.journal_path,
                               replica_config.fsync_appends);
  if (!journal.ok()) return journal.status();

  Replica replica(
      core::DailyRetrainer(wan, metros, window_days, config, policy),
      *std::move(journal), std::move(replica_config));
  replica.recovery_.journal_tail_status =
      replica.journal_.recovered().tail_status;

  bool used_snapshot = false;
  auto snapshot = LoadSnapshot(replica.config_.snapshot_path);
  if (!snapshot.ok()) {
    replica.recovery_.snapshot_status = snapshot.status();
  } else if (snapshot->applied_seq > replica.journal_.next_seq()) {
    // The snapshot claims records the journal does not hold: the journal
    // lost durable bytes (or the files were mixed up). Trust the journal
    // — it is the write-ahead source of truth — and rebuild from genesis.
    replica.recovery_.snapshot_status = util::Status::Corrupt(
        "snapshot applied_seq " + std::to_string(snapshot->applied_seq) +
        " is ahead of the journal's " +
        std::to_string(replica.journal_.next_seq()) + " records");
  } else if (auto status =
                 replica.retrainer_.RestoreState(snapshot->retrainer);
             !status.ok()) {
    replica.recovery_.snapshot_status = status;
  } else {
    replica.applied_seq_ = snapshot->applied_seq;
    replica.last_applied_day_ = snapshot->retrainer.last_day;
    replica.last_data_hour_ = MaxDataHour(snapshot->retrainer);
    replica.last_snapshot_seq_ = snapshot->applied_seq;
    used_snapshot = true;
  }

  // A compacted journal only spans [base_seq, next_seq): without a usable
  // snapshot covering the base there is no path back to the compacted
  // prefix, and replaying just the suffix would present a wrong state as
  // a successful open. Refuse with the snapshot's own failure attached.
  const std::uint64_t journal_base = replica.journal_.base_seq();
  if (journal_base > 0 &&
      (!used_snapshot || replica.applied_seq_ < journal_base)) {
    return util::Status::Corrupt(
        "journal is compacted through seq " + std::to_string(journal_base) +
        " but no snapshot covers that base (snapshot: " +
        (used_snapshot ? ("applied_seq " +
                          std::to_string(replica.applied_seq_))
                       : replica.recovery_.snapshot_status.message()) +
        ")");
  }

  const auto& records = replica.journal_.recovered().records;
  for (const auto& record : records) {
    if (record.seq < replica.applied_seq_) {
      ++replica.recovery_.skipped_records;
      continue;
    }
    replica.Apply(record);
    ++replica.recovery_.replayed_records;
  }

  if (used_snapshot) {
    replica.recovery_.source = RestoreSource::kSnapshotAndJournal;
  } else if (records.empty()) {
    replica.recovery_.source = RestoreSource::kColdStart;
  } else {
    replica.recovery_.source = RestoreSource::kJournalOnly;
  }
  replica.PublishProgress();
  return replica;
}

void Replica::Apply(const JournalRecord& record) {
  if (record.kind == JournalRecordKind::kHeartbeat) {
    retrainer_.AdvanceTo(record.hour);
  } else {
    retrainer_.Ingest(record.hour, record.rows);
    last_data_hour_ = std::max(last_data_hour_, record.hour);
  }
  applied_seq_ = record.seq + 1;
  last_applied_day_ =
      std::max(last_applied_day_, util::DayIndex(record.hour));
  PublishProgress();
}

void Replica::PublishProgress() {
  published_applied_seq_.Set(static_cast<double>(applied_seq_));
}

util::Status Replica::CheckpointAfterDayCrossing() {
  if (auto status = SnapshotNow(); !status.ok()) return status;
  if (!config_.compact_after_snapshot) return util::Status::Ok();
  return CompactThroughSnapshot();
}

util::Status Replica::Ingest(util::HourIndex hour,
                             std::span<const pipeline::AggRow> rows) {
  auto seq = journal_.Append(JournalRecordKind::kIngest, hour, rows);
  if (!seq.ok()) return seq.status();
  JournalRecord record;
  record.seq = *seq;
  record.kind = JournalRecordKind::kIngest;
  record.hour = hour;
  record.rows.assign(rows.begin(), rows.end());
  const bool crossed_day = last_applied_day_ != kNoDay &&
                           util::DayIndex(hour) > last_applied_day_;
  Apply(record);
  if (crossed_day && config_.snapshot_on_day_boundary) {
    return CheckpointAfterDayCrossing();
  }
  return util::Status::Ok();
}

util::Status Replica::Heartbeat(util::HourIndex hour) {
  auto seq = journal_.Append(JournalRecordKind::kHeartbeat, hour, {});
  if (!seq.ok()) return seq.status();
  JournalRecord record;
  record.seq = *seq;
  record.kind = JournalRecordKind::kHeartbeat;
  record.hour = hour;
  const bool crossed_day = last_applied_day_ != kNoDay &&
                           util::DayIndex(hour) > last_applied_day_;
  Apply(record);
  if (crossed_day && config_.snapshot_on_day_boundary) {
    return CheckpointAfterDayCrossing();
  }
  return util::Status::Ok();
}

util::Status Replica::IngestBatch(std::span<const JournalRecord> records) {
  if (records.empty()) return util::Status::Ok();
  // Append phase: everything reaches the OS, one fsync covers the batch.
  // On failure nothing was applied, so the caller must not ack anything.
  for (const auto& record : records) {
    auto seq =
        journal_.AppendBuffered(record.kind, record.hour, record.rows);
    if (!seq.ok()) return seq.status();
  }
  if (auto status = journal_.Sync(); !status.ok()) return status;

  // Apply phase: the records are durable now; day crossings checkpoint
  // exactly as the one-at-a-time path does.
  std::uint64_t seq = journal_.next_seq() - records.size();
  for (const auto& record : records) {
    JournalRecord stamped;
    stamped.seq = seq++;
    stamped.kind = record.kind;
    stamped.hour = record.hour;
    stamped.rows = record.rows;
    const bool crossed_day =
        last_applied_day_ != kNoDay &&
        util::DayIndex(record.hour) > last_applied_day_;
    Apply(stamped);
    if (crossed_day && config_.snapshot_on_day_boundary) {
      if (auto status = CheckpointAfterDayCrossing(); !status.ok()) {
        return status;
      }
    }
  }
  return util::Status::Ok();
}

util::Status Replica::SnapshotNow() {
  SnapshotState state;
  state.retrainer = retrainer_.ExportState();
  state.applied_seq = applied_seq_;
  auto status = SaveSnapshot(config_.snapshot_path, state);
  if (status.ok()) {
    snapshots_taken_.Increment();
    if (applied_seq_ > last_snapshot_seq_) {
      previous_snapshot_seq_ = last_snapshot_seq_;
      last_snapshot_seq_ = applied_seq_;
    }
  }
  return status;
}

util::Status Replica::CompactThroughSnapshot() {
  std::uint64_t through = last_snapshot_seq_;
  if (retention_floor_) {
    if (const auto floor = retention_floor_(); floor && *floor < through) {
      through = std::max(*floor, previous_snapshot_seq_);
    }
  }
  const std::uint64_t base = journal_.base_seq();
  through = std::max(through, base);
  published_retained_records_.Set(
      static_cast<double>(last_snapshot_seq_ > through
                              ? last_snapshot_seq_ - through
                              : 0));
  const std::uint64_t droppable = through - base;
  if (droppable < std::max<std::uint64_t>(config_.compact_min_records, 1)) {
    return util::Status::Ok();
  }
  return journal_.Compact(through);
}

util::Status Replica::InstallSnapshot(const SnapshotState& state) {
  if (state.applied_seq < applied_seq_) {
    return util::Status::InvalidArgument(
        "snapshot install would rewind applied_seq from " +
        std::to_string(applied_seq_) + " to " +
        std::to_string(state.applied_seq));
  }
  if (auto status = retrainer_.RestoreState(state.retrainer);
      !status.ok()) {
    return status;
  }
  applied_seq_ = state.applied_seq;
  last_applied_day_ = state.retrainer.last_day;
  last_data_hour_ = std::max(last_data_hour_, MaxDataHour(state.retrainer));
  PublishProgress();
  // Persist locally and reset the journal base: the local journal's
  // records all predate the installed state, and leaving them would make
  // the next warm start look like a snapshot-ahead-of-journal corruption.
  if (auto status = SnapshotNow(); !status.ok()) return status;
  if (auto status = journal_.Compact(applied_seq_); !status.ok()) {
    return status;
  }
  snapshots_installed_.Increment();
  return util::Status::Ok();
}

util::Status Replica::Replay(std::span<const JournalRecord> records) {
  std::vector<const JournalRecord*> ordered;
  ordered.reserve(records.size());
  for (const auto& record : records) ordered.push_back(&record);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const JournalRecord* a, const JournalRecord* b) {
                     return a->seq < b->seq;
                   });
  for (const JournalRecord* record : ordered) {
    if (record->seq < applied_seq_) {
      duplicate_records_skipped_.Increment();
      continue;
    }
    if (record->seq > applied_seq_) {
      return util::Status::Corrupt(
          "replay sequence gap: expected seq " +
          std::to_string(applied_seq_) + ", got " +
          std::to_string(record->seq));
    }
    Apply(*record);
  }
  return util::Status::Ok();
}

std::uint32_t ReplicaStateDigest(const Replica& replica) {
  util::Crc32c crc;
  if (const core::TipsyService* service = replica.service();
      service != nullptr) {
    std::ostringstream bytes;
    core::SaveService(*service, bytes);
    const std::string blob = bytes.str();
    crc.Update(blob.data(), blob.size());
  }
  const core::ServiceHealth health =
      replica.retrainer().health_snapshot();
  const auto fold = [&crc](std::uint64_t value) {
    crc.Update(&value, sizeof(value));
  };
  fold(static_cast<std::uint64_t>(health.health));
  fold(static_cast<std::uint64_t>(health.trained_through_day));
  fold(static_cast<std::uint64_t>(health.model_age_days));
  fold(static_cast<std::uint64_t>(health.last_ingest_hour));
  fold(health.buffered_days);
  fold(health.retrain_count);
  fold(health.retrain_failures);
  fold(health.consecutive_failures);
  fold(health.dropped_hours);
  fold(health.missing_days);
  fold(health.partial_days);
  fold(replica.applied_seq());
  return crc.Digest();
}

obs::MetricGroup Replica::RegisterMetrics(obs::Registry& registry,
                                          const std::string& prefix) const {
  obs::MetricGroup group = retrainer_.RegisterMetrics(registry, prefix);
  group.push_back(registry.RegisterCounter(
      prefix + "_journal_appends_total",
      "Records durably appended to the hour journal",
      &journal_.append_counter()));
  group.push_back(registry.RegisterCounter(
      prefix + "_journal_append_bytes_total",
      "Framed bytes durably appended to the hour journal",
      &journal_.append_bytes_counter()));
  group.push_back(registry.RegisterCounter(
      prefix + "_replay_duplicates_skipped_total",
      "Replayed records skipped because they were already applied",
      &duplicate_records_skipped_));
  group.push_back(registry.RegisterCounter(
      prefix + "_snapshots_total", "Snapshots checkpointed successfully",
      &snapshots_taken_));
  group.push_back(registry.RegisterCounter(
      prefix + "_snapshots_installed_total",
      "Remotely sourced snapshots installed (ship-side catch-up)",
      &snapshots_installed_));
  group.push_back(registry.RegisterCounter(
      prefix + "_journal_compactions_total",
      "Journal prefix compactions completed",
      &journal_.compaction_counter()));
  group.push_back(registry.RegisterCounter(
      prefix + "_journal_compacted_records_total",
      "Records dropped from the journal by compaction",
      &journal_.compacted_records_counter()));
  group.push_back(registry.RegisterGauge(
      prefix + "_journal_base_seq",
      "Oldest sequence number still present in the journal file",
      [this] {
        return static_cast<double>(journal_.progress().base_seq());
      }));
  group.push_back(registry.RegisterGauge(
      prefix + "_journal_standby_retained_records",
      "Records the newest snapshot covers that the last compaction kept "
      "for live shipping standbys",
      [this] { return published_retained_records_.value(); }));
  group.push_back(registry.RegisterGauge(
      prefix + "_applied_seq", "Next journal sequence number to apply",
      [this] { return published_applied_seq_.value(); }));
  // Warm-start facts: fixed after Open, useful on a scrape right after a
  // restart to see what recovery did.
  group.push_back(registry.RegisterGauge(
      prefix + "_recovery_replayed_records",
      "Journal records replayed during the last warm start",
      [this] { return static_cast<double>(recovery_.replayed_records); }));
  group.push_back(registry.RegisterGauge(
      prefix + "_recovery_skipped_records",
      "Journal records skipped (inside the snapshot) during warm start",
      [this] { return static_cast<double>(recovery_.skipped_records); }));
  group.push_back(registry.RegisterGauge(
      prefix + "_journal_torn_bytes",
      "Bytes truncated from the journal's torn tail on open",
      [this] {
        return static_cast<double>(journal_.recovered().torn_bytes);
      }));
  return group;
}

}  // namespace tipsy::ha
