// tipsyd's serving core: one ha::Replica exposed over four loopback-able
// TCP listeners.
//
//   predict  — length-prefixed binary batch PredictShift RPC. Lock-free:
//              requests are answered from the ModelEpoch the replica's
//              retrainer publishes into, so a retrain or an ingest never
//              blocks a prediction (and vice versa).
//   ingest   — the collector's hour stream: a TIPSYHJ1 journal on the
//              wire. Hour-gated for idempotence: after the handshake the
//              daemon acks its newest durably-applied data hour, and any
//              resent hour at or below the gate is skipped at the wire
//              (counted, acked, never applied), so a reconnecting
//              collector can replay conservatively and the replica state
//              stays bit-identical to an uninterrupted feed.
//   ship     — journal shipping to standbys: a standby asks for
//              `from_seq` and the daemon streams its journal's verified
//              frames from that seq on, waking on each durable append and
//              reading only the bytes past its last frame. Only verified
//              frames travel — a torn tail mid-append is simply not sent
//              yet. Compaction keeps what live streams still need, so a
//              connected standby follows the tail across day boundaries.
//   metrics  — GET /metrics, Prometheus text from the wired registry.
//
// Degradation is the replica's own FRESH -> STALE -> EXPIRED aging: when
// the collector feed goes dark, AdvanceClock (driven by the embedding
// process's ticker, or directly by tests) keeps the ingest clock moving
// so the served model ages honestly instead of freezing time, while the
// predict plane keeps answering from the last-good epoch.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/online.h"
#include "ha/replica.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace tipsy::net {

struct DaemonConfig {
  // 0 asks the kernel for an ephemeral port; read the resolved ports back
  // after Start() (the smoke harness and tests do).
  std::uint16_t predict_port = 0;
  std::uint16_t ingest_port = 0;
  std::uint16_t ship_port = 0;
  std::uint16_t metrics_port = 0;
  bool any_interface = false;  // default loopback
  // Per-connection read/write deadline. A peer that stops draining or
  // feeding is cut loose after this long, never held forever.
  int io_deadline_ms = 2000;
  // Accept/journal-tail poll cadence; also how fast Stop() is observed.
  int idle_poll_ms = 50;
  std::string metric_prefix = "tipsyd";
  // Credit window advertised in ingest acks: how many records a collector
  // may have in flight beyond the last ack. The daemon drains whatever
  // arrives per read as ONE journal fsync + ONE ack, so a larger window
  // amortizes more fsyncs; 0 forces collectors into lock-step probing.
  std::uint64_t ingest_window = 64;
  // Snapshot catch-up transfer chunk size (each chunk rides its own
  // CRC-gated envelope, so this also bounds per-envelope allocation).
  std::size_t snapshot_chunk_bytes = 1u << 20;
  // Wire auth key. Present = every control envelope in and out is
  // authenticated v2 and unauthenticated peers are refused (kAuthFailed);
  // absent = the v1 wire. See net/auth.h for the downgrade table.
  AuthKey auth;
};

class Daemon {
 public:
  // The replica is borrowed and must outlive the daemon; the daemon is
  // its only writer while running (all mutations serialize on one
  // mutex), unless a ShippingClient feeds it instead (a standby).
  // `registry` (borrowed too) receives the net_* metrics and is what
  // /metrics renders — register the replica/service metrics into the
  // same registry to scrape the whole process.
  Daemon(ha::Replica* replica, obs::Registry* registry,
         DaemonConfig config = {});
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Opens the four listeners and starts the accept loops. kIoError when
  // a port cannot be bound.
  [[nodiscard]] util::Status Start();
  // Idempotent; joins every connection thread.
  void Stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint16_t predict_port() const {
    return predict_listener_.port();
  }
  [[nodiscard]] std::uint16_t ingest_port() const {
    return ingest_listener_.port();
  }
  [[nodiscard]] std::uint16_t ship_port() const {
    return ship_listener_.port();
  }
  [[nodiscard]] std::uint16_t metrics_port() const {
    return metrics_listener_.port();
  }

  // Journaled clock tick (Replica::Heartbeat): the dark-feed degradation
  // driver. Ticks behind the ingest clock are ignored (the feed came
  // back and overtook the ticker).
  [[nodiscard]] util::Status AdvanceClock(util::HourIndex hour);

  // Serving-model health right now (what the predict plane stamps on
  // responses): the retrainer's published status, read without a lock.
  [[nodiscard]] core::ModelHealth health() const;
  // Newest durably-applied data hour (the ingest idempotence gate); -1
  // before any data.
  [[nodiscard]] util::HourIndex last_applied_hour() const {
    return last_applied_hour_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const core::ModelEpoch& epoch() const { return epoch_; }

  // --- Wire-plane counters (satellite of the obs registry wiring; each
  // is also registered under `<prefix>_net_...`).
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return connections_accepted_.value();
  }
  [[nodiscard]] std::uint64_t frames_applied() const {
    return frames_applied_.value();
  }
  // Resent hours skipped by the idempotence gate.
  [[nodiscard]] std::uint64_t frames_skipped() const {
    return frames_skipped_.value();
  }
  // Connections dropped for damaged bytes (bad magic/CRC/seq).
  [[nodiscard]] std::uint64_t frames_corrupt() const {
    return frames_corrupt_.value();
  }
  // Connections that ended inside a frame (torn wire tail).
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_.value();
  }
  [[nodiscard]] std::uint64_t predict_requests() const {
    return predict_requests_.value();
  }
  // What-if sweep RPCs answered on the prediction port.
  [[nodiscard]] std::uint64_t whatif_requests() const {
    return whatif_requests_.value();
  }
  [[nodiscard]] std::uint64_t ship_streams() const {
    return ship_streams_.value();
  }
  [[nodiscard]] std::uint64_t ship_frames_sent() const {
    return ship_frames_sent_.value();
  }
  // Snapshot catch-up transfers served to standbys whose from_seq
  // predated the compacted journal base.
  [[nodiscard]] std::uint64_t snapshot_transfers() const {
    return snapshot_transfers_.value();
  }
  // Ingest read batches durably processed (each is one journal fsync and
  // one ack, however many records it carried).
  [[nodiscard]] std::uint64_t ingest_batches() const {
    return ingest_batches_.value();
  }
  [[nodiscard]] std::uint64_t ingest_batched_records() const {
    return ingest_batched_records_.value();
  }
  [[nodiscard]] std::uint64_t metrics_scrapes() const {
    return metrics_scrapes_.value();
  }
  // Durable journal records the slowest live ship stream has yet to
  // send (0 with no live stream).
  [[nodiscard]] double ship_lag_seq() const;
  // Connections refused for failed or missing message authentication.
  [[nodiscard]] std::uint64_t auth_failures() const {
    return auth_failures_.value();
  }

  // --- Per-source ingest attribution. Keyed by the hello's source_id
  // (sanitized into metric names as `<prefix>_net_ingest_source_<id>_*`;
  // empty ids report as "anonymous"). `applied` counts exactly the
  // records this source put in the journal, so across sources the
  // applied counters sum to the journal's collector-fed record count.
  struct IngestSourceStats {
    std::uint64_t applied = 0;   // records journaled for this source
    std::uint64_t skipped = 0;   // records retired by the gates instead
    std::uint64_t batches = 0;   // read batches (fsync+ack units)
    util::HourIndex last_hour = -1;  // newest hour seen from this source
  };
  [[nodiscard]] std::vector<std::pair<std::string, IngestSourceStats>>
  ingest_source_stats() const;

 private:
  struct SourceState {
    obs::Counter applied;
    obs::Counter skipped;
    obs::Counter batches;
    std::atomic<util::HourIndex> last_hour{-1};
    obs::MetricGroup handles;
  };

  // The state for `source_id`, registering its counters on first sight.
  // The returned pointer is stable for the daemon's lifetime.
  [[nodiscard]] SourceState* SourceFor(const std::string& source_id);

  void AcceptLoop(Listener* listener, void (Daemon::*handler)(Socket));
  void HandlePredict(Socket socket);
  // Answers one what-if sweep on a prediction connection; false when the
  // reply could not be sent (the caller drops the connection).
  [[nodiscard]] bool AnswerWhatIf(const WhatIfRequest& request,
                                  Socket& socket);
  void HandleIngest(Socket socket);
  void HandleShip(Socket socket);
  void HandleMetrics(Socket socket);
  void SpawnConnection(void (Daemon::*handler)(Socket), Socket socket);
  void ReapFinishedConnections();

  // The encoded IngestAck envelope for the current applied state.
  // `acked_wire_seq` is the cumulative count of the connection's wire
  // records durably processed (batched cumulative ack).
  [[nodiscard]] std::string AckBytes(std::uint64_t acked_wire_seq);
  // Ship-side snapshot catch-up: offer + chunks for the current snapshot
  // file. On success returns the snapshot's applied_seq (where the
  // journal suffix stream resumes).
  [[nodiscard]] util::StatusOr<std::uint64_t> SendSnapshotTransfer(
      Socket& socket, std::uint64_t journal_base);

  // The live-cursor table: each ship stream's next seq to send, keyed by
  // stream id. Compaction keeps the journal back to the slowest (the
  // replica's retention floor); the lag gauge reports the largest gap.
  void TrackShipCursor(std::uint64_t stream, std::uint64_t cursor);
  void ForgetShipStream(std::uint64_t stream);
  [[nodiscard]] std::optional<std::uint64_t> SlowestShipCursor() const;

  ha::Replica* replica_;
  obs::Registry* registry_;
  DaemonConfig config_;
  // Fixed for the daemon's life, so the ship plane reads them unlocked.
  const std::string journal_path_;
  const std::string snapshot_path_;
  const ha::JournalProgress* const journal_progress_;

  Listener predict_listener_;
  Listener ingest_listener_;
  Listener ship_listener_;
  Listener metrics_listener_;

  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::vector<std::thread> accept_threads_;
  std::mutex connections_mu_;
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> connections_;

  // Serializes every replica mutation (ingest, heartbeat) and the ingest
  // plane's reads of journal state. Neither the predict plane (predict
  // and what-if) nor the ship plane takes it: reads answer from the epoch
  // and the status the retrainer publishes, and shipping follows the
  // journal's published progress and reads the file itself, so neither
  // waits behind a day-boundary retrain, snapshot or compaction.
  std::mutex replica_mu_;
  core::ModelEpoch epoch_;
  std::atomic<util::HourIndex> last_applied_hour_{-1};

  obs::Counter connections_accepted_;
  obs::Counter frames_applied_;
  obs::Counter frames_skipped_;
  obs::Counter frames_corrupt_;
  obs::Counter frames_dropped_;
  obs::Counter predict_requests_;
  obs::Counter whatif_requests_;
  obs::Counter ship_streams_;
  obs::Counter ship_frames_sent_;
  obs::Counter snapshot_transfers_;
  obs::Counter snapshot_bytes_sent_;
  obs::Counter ingest_batches_;
  obs::Counter ingest_batched_records_;
  obs::Counter metrics_scrapes_;
  obs::Counter auth_failures_;
  // Never held while taking another lock (the retention floor reads it
  // under replica_mu_, a scrape under the registry lock).
  mutable std::mutex ship_cursors_mu_;
  std::map<std::uint64_t, std::uint64_t> ship_cursors_;
  std::uint64_t next_ship_stream_ = 0;
  // sources_.size(), kept by SourceFor for the registry gauge: a scrape
  // must not take sources_mu_ under the registry lock, because SourceFor
  // registers counters (the registry lock) while holding sources_mu_.
  obs::Gauge ingest_sources_;
  obs::MetricGroup metric_handles_;

  mutable std::mutex sources_mu_;
  std::map<std::string, std::unique_ptr<SourceState>> sources_;
};

}  // namespace tipsy::net
