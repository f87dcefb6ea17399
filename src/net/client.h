// Reconnecting clients for the tipsyd wire protocol.
//
// Every client here shares the same robustness skeleton: bounded
// exponential backoff with deterministic jitter between connection
// attempts (net/socket's Backoff), per-connection read/write deadlines,
// and idempotent resume after a reconnect — the *server* tells the client
// where to resume (the ingest ack's applied hour, the standby's own
// applied_seq), so a retry can only ever re-send work the receiving side
// will recognize and skip. Counters (`net_reconnects`, the
// `net_backoff_ms` histogram) register into the same obs registry as the
// daemon's, making a reconnect storm visible on /metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ha/replica.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace tipsy::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connect_timeout_ms = 1000;
  int io_deadline_ms = 2000;
  BackoffPolicy backoff;
  std::uint64_t backoff_seed = 0xc11e;
  // Wire auth key; must match the daemon's (see net/auth.h for the
  // downgrade table). Absent = unauthenticated v1 envelopes.
  AuthKey auth;
  // Collector identity sent in the ingest hello (CollectorClient only);
  // empty names the anonymous legacy source.
  std::string source_id;
};

// Histogram bounds for backoff delays, in milliseconds.
[[nodiscard]] std::vector<double> BackoffDelayBoundsMs();

// --- CollectorClient: streams hour rows to a daemon's ingest port.
//
// Credit-window pipelining: records are queued locally and sent while
// fewer than the daemon's advertised `credits` are in flight; the
// daemon's cumulative acks (acked_wire_seq) retire whole batches at
// once, so N records share one server-side fsync instead of lock-step
// round trips. At zero advertised credits the client degrades to
// lock-step probing (one record, then wait) — hours are never dropped,
// only delayed. Hours must be fed strictly increasing (the collector
// contract); on reconnect the daemon's handshake ack names its newest
// applied hour, queued records at or below it resolve locally as
// already-delivered, and the sent-but-unacked remainder is renumbered
// and resent (the daemon's hour gate makes the overlap idempotent).
//
// SendHour/SendHeartbeat keep the blocking contract (queued, sent, AND
// acked durable before returning); SendHourAsync/SendHeartbeatAsync
// return once the record is queued and the window pumped, and Flush()
// blocks until everything pending is acked.
class CollectorClient {
 public:
  CollectorClient(ClientConfig config, obs::Registry* registry,
                  const std::string& metric_prefix);
  ~CollectorClient();
  CollectorClient(const CollectorClient&) = delete;
  CollectorClient& operator=(const CollectorClient&) = delete;

  // Delivers one hour of rows durably (kIngest record) or returns why
  // not: kUnavailable only when `stop` interrupted the retry loop.
  [[nodiscard]] util::Status SendHour(
      util::HourIndex hour, std::span<const pipeline::AggRow> rows,
      const std::atomic<bool>* stop = nullptr);
  // Clock tick without data (kHeartbeat record) — drives the daemon's
  // dark-feed aging when the collector has nothing to report.
  [[nodiscard]] util::Status SendHeartbeat(
      util::HourIndex hour, const std::atomic<bool>* stop = nullptr);

  // Pipelined variants: queue the record and pump the send window,
  // blocking only when the window is full (that wait IS the
  // backpressure). Durability is confirmed by a later Flush() or by the
  // acks drained while pumping.
  [[nodiscard]] util::Status SendHourAsync(
      util::HourIndex hour, std::span<const pipeline::AggRow> rows,
      const std::atomic<bool>* stop = nullptr);
  [[nodiscard]] util::Status SendHeartbeatAsync(
      util::HourIndex hour, const std::atomic<bool>* stop = nullptr);
  // Blocks — reconnecting with backoff — until every queued record is
  // acked durable or `stop` flips (kUnavailable).
  [[nodiscard]] util::Status Flush(const std::atomic<bool>* stop = nullptr);

  void Disconnect();

  [[nodiscard]] std::uint64_t reconnects() const {
    return reconnects_.value();
  }
  [[nodiscard]] std::uint64_t hours_sent() const {
    return hours_sent_.value();
  }
  // Hours resolved by the handshake ack (already applied server-side).
  [[nodiscard]] std::uint64_t hours_skipped() const {
    return hours_skipped_.value();
  }
  [[nodiscard]] std::uint64_t acks_received() const {
    return acks_received_.value();
  }
  // Records re-sent after a reconnect (retired idempotently server-side).
  [[nodiscard]] std::uint64_t records_resent() const {
    return records_resent_.value();
  }
  // Queued-but-unacked records right now (sent + not-yet-sent).
  [[nodiscard]] std::size_t pending_records() const {
    return pending_.size();
  }
  // Sent-but-unacked records right now (bounded by the credit window).
  [[nodiscard]] std::size_t inflight_records() const { return sent_; }
  // The daemon's last advertised credit window.
  [[nodiscard]] std::uint64_t last_credits() const { return credits_; }
  [[nodiscard]] const obs::Histogram& backoff_delay_ms() const {
    return backoff_ms_;
  }

 private:
  struct PendingRecord {
    ha::JournalRecordKind kind = ha::JournalRecordKind::kIngest;
    util::HourIndex hour = 0;
    std::vector<pipeline::AggRow> rows;
    bool sent_once = false;  // for the resend counter only
  };

  // Queue + pump: returns once the record is sent (or resolved by the
  // resume ack), retrying with backoff until then.
  [[nodiscard]] util::Status Enqueue(ha::JournalRecordKind kind,
                                     util::HourIndex hour,
                                     std::span<const pipeline::AggRow> rows,
                                     const std::atomic<bool>* stop);
  // Establishes (if needed) the connection + handshake; updates
  // resume_hour_/credits_ from the ack and drops queued records the
  // resume hour proves durable.
  [[nodiscard]] util::Status EnsureConnected();
  // Sends queued records while the credit window allows, blocking on an
  // ack when it is full. Leaves nothing unsent unless credits are
  // exhausted mid-wait.
  [[nodiscard]] util::Status Pump(const std::atomic<bool>* stop);
  // Blocks for one ack and retires everything it covers.
  [[nodiscard]] util::Status WaitAck();
  void BackoffSleep(const std::atomic<bool>* stop);

  ClientConfig config_;
  Socket socket_;
  Backoff backoff_;
  bool handshaken_ = false;
  std::uint64_t wire_seq_ = 0;  // per-connection, restarts at 0
  util::HourIndex resume_hour_ = -1;
  std::deque<PendingRecord> pending_;  // front = oldest unacked
  std::size_t sent_ = 0;          // prefix of pending_ already sent
  std::uint64_t conn_acked_ = 0;  // cumulative ack on this connection
  std::uint64_t credits_ = 1;     // daemon-advertised window
  obs::Counter reconnects_;
  obs::Counter hours_sent_;
  obs::Counter hours_skipped_;
  obs::Counter acks_received_;
  obs::Counter records_resent_;
  obs::Histogram backoff_ms_;
  obs::MetricGroup metric_handles_;
};

// --- ShippingClient: a standby tailing a primary's journal.
//
// Runs its own thread: connect, request `from_seq = replica->applied_seq()`,
// decode the incoming TIPSYHJ1 stream incrementally and fold each record
// into the standby via Replica::Replay (idempotent, seq-gated, not
// re-journaled). Any wire damage or disconnect tears the connection down
// and reconnects with backoff, re-requesting from the updated
// applied_seq — so replays after a partition heal apply zero duplicates.
//
// Snapshot catch-up: when the primary's journal has been compacted past
// from_seq, the stream opens with TPSY envelopes (kSnapshotOffer +
// kSnapshotChunk) instead of the TIPSYHJ1 magic. The client reassembles
// the snapshot blob, gates it on the offer's whole-file CRC (the
// envelope CRCs and the snapshot format's own checksum are the other two
// gates), installs it via Replica::InstallSnapshot, then decodes the
// journal suffix that follows from the snapshot's applied_seq — the
// combined restore+replay is bit-identical to never having fallen
// behind, with zero duplicate applies.
//
// The client is the sole writer of its replica while running; readers
// needing progress (the heartbeat provider) use the atomic snapshots.
class ShippingClient {
 public:
  ShippingClient(ha::Replica* replica, ClientConfig config,
                 obs::Registry* registry, const std::string& metric_prefix);
  ~ShippingClient();
  ShippingClient(const ShippingClient&) = delete;
  ShippingClient& operator=(const ShippingClient&) = delete;

  void Start();
  void Stop();
  [[nodiscard]] bool running() const { return running_; }

  // Lock-free progress snapshots (updated after every applied batch).
  [[nodiscard]] std::uint64_t applied_seq() const {
    return applied_seq_.load(std::memory_order_acquire);
  }
  // The replica's published model health (a lock-free load; the
  // retrainer publishes it as the last step of every apply).
  [[nodiscard]] core::ModelHealth health() const {
    return replica_->health();
  }
  [[nodiscard]] util::HourIndex last_hour() const {
    return last_hour_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t reconnects() const {
    return reconnects_.value();
  }
  [[nodiscard]] std::uint64_t records_applied() const {
    return records_applied_.value();
  }
  [[nodiscard]] std::uint64_t corrupt_streams() const {
    return corrupt_streams_.value();
  }
  // Snapshot transfers received and installed (pre-compaction resume).
  [[nodiscard]] std::uint64_t snapshot_catchups() const {
    return snapshot_catchups_.value();
  }
  [[nodiscard]] std::uint64_t snapshot_bytes_received() const {
    return snapshot_bytes_received_.value();
  }
  [[nodiscard]] const obs::Histogram& backoff_delay_ms() const {
    return backoff_ms_;
  }

 private:
  void Run();
  // One connection lifetime; returns when the stream dies or stop flips.
  void StreamOnce();
  // Grows `buffer` from the socket until it holds >= `need` bytes.
  [[nodiscard]] util::Status FillBuffer(Socket& socket, std::string& buffer,
                                        std::size_t need);
  // Consumes one offer + its chunks from `buffer`/the socket, installs
  // the snapshot, and sets `resume_seq` to its applied_seq. Leftover
  // bytes (the journal suffix already received) stay in `buffer`.
  [[nodiscard]] util::Status ReceiveSnapshot(Socket& socket,
                                             std::string& buffer,
                                             std::uint64_t* resume_seq);
  void RefreshSnapshots();

  ha::Replica* replica_;
  ClientConfig config_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::thread thread_;
  Backoff backoff_;
  std::atomic<std::uint64_t> applied_seq_{0};
  std::atomic<util::HourIndex> last_hour_{
      std::numeric_limits<util::HourIndex>::min()};
  obs::Counter reconnects_;
  obs::Counter records_applied_;
  obs::Counter corrupt_streams_;
  obs::Counter snapshot_catchups_;
  obs::Counter snapshot_bytes_received_;
  obs::Histogram backoff_ms_;
  obs::MetricGroup metric_handles_;
};

// --- PredictClient: batch PredictShift RPCs with bounded retry.
//
// Keeps one connection and replays the request on a fresh connection
// after a failure, up to `max_attempts` tries with backoff between them.
// PredictShift is a pure read, so retrying a request whose response was
// lost is safe. Returns kUnavailable when every attempt failed — the
// bench's "unavailable request" unit.
class PredictClient {
 public:
  PredictClient(ClientConfig config, int max_attempts = 3);
  ~PredictClient();
  PredictClient(const PredictClient&) = delete;
  PredictClient& operator=(const PredictClient&) = delete;

  [[nodiscard]] util::StatusOr<PredictResponse> Predict(
      const PredictRequest& request,
      const std::atomic<bool>* stop = nullptr);

  // What-if sweep on the same connection and retry skeleton. A pure
  // read like Predict, so lost-response retries are safe.
  [[nodiscard]] util::StatusOr<WhatIfResponse> WhatIf(
      const WhatIfRequest& request,
      const std::atomic<bool>* stop = nullptr);

  void Disconnect();

  [[nodiscard]] std::uint64_t reconnects() const {
    return reconnects_.value();
  }
  [[nodiscard]] std::uint64_t requests() const { return requests_.value(); }
  [[nodiscard]] std::uint64_t failures() const { return failures_.value(); }

 private:
  // Sends one encoded request envelope and decodes the matching reply
  // type, retrying on a fresh connection up to max_attempts_ times.
  [[nodiscard]] util::StatusOr<Message> RoundTrip(
      MessageType request_type, const std::string& payload,
      MessageType response_type, const std::atomic<bool>* stop);

  ClientConfig config_;
  int max_attempts_;
  Socket socket_;
  Backoff backoff_;
  obs::Counter reconnects_;
  obs::Counter requests_;
  obs::Counter failures_;
};

// --- PredictPool: health-aware read scale-out across a serving fleet.
//
// One pool client spreads PredictShift reads across the primary and
// every standby. Each response carries the answering replica's model
// health stamp, so the pool learns per-endpoint freshness for free on
// the read path itself — no separate health-check RPC. Routing:
//
//  * tier 0: endpoints whose last observed health is within the
//    staleness budget (default kStale: FRESH and STALE serve, EXPIRED
//    and NONE do not) and not currently ejected. Least outstanding
//    requests wins; ties rotate.
//  * tier 1: ejected or over-budget endpoints whose probe interval has
//    elapsed — they get one live request as their probe; success
//    reinstates them instantly.
//  * tier 2: anything at all (never refuse a read without trying).
//
// A failed request ejects its endpoint for eject_ms (then probes); a
// request that fails on one endpoint is retried on the next-best pick,
// up to attempts_per_request endpoints, so a single replica loss — or a
// failover window where the primary is dark — costs retries, not
// errors. Endpoints never observed yet count as within budget
// (optimistic first contact).
struct PredictPoolConfig {
  std::vector<ClientConfig> endpoints;  // [0] = primary by convention
  // Distinct endpoints tried per request before giving up; 0 = all.
  int attempts_per_request = 0;
  // How long a failed endpoint sits out before its next probe.
  int eject_ms = 250;
  // Minimum spacing between probe requests to an unhealthy endpoint.
  int probe_interval_ms = 1000;
  // Worst model health that still takes routine reads.
  core::ModelHealth staleness_budget = core::ModelHealth::kStale;
};

class PredictPool {
 public:
  explicit PredictPool(PredictPoolConfig config);
  ~PredictPool();
  PredictPool(const PredictPool&) = delete;
  PredictPool& operator=(const PredictPool&) = delete;

  // Routes one batch read, failing over across endpoints as needed.
  // kUnavailable only when every tried endpoint failed.
  [[nodiscard]] util::StatusOr<PredictResponse> Predict(
      const PredictRequest& request,
      const std::atomic<bool>* stop = nullptr);

  void Disconnect();

  // last_health sentinel for "never observed".
  static constexpr std::uint8_t kHealthUnknown = 255;

  struct EndpointStats {
    std::string host;
    std::uint16_t port = 0;
    std::uint64_t served = 0;
    std::uint64_t failures = 0;
    std::uint8_t last_health = kHealthUnknown;
    bool ejected = false;
  };

  [[nodiscard]] std::vector<EndpointStats> endpoint_stats() const;
  [[nodiscard]] std::uint64_t served() const { return served_.value(); }
  // Requests that needed more than one endpoint but still succeeded.
  [[nodiscard]] std::uint64_t failovers() const {
    return failovers_.value();
  }
  // Requests that exhausted every allowed endpoint.
  [[nodiscard]] std::uint64_t exhausted() const {
    return exhausted_.value();
  }
  [[nodiscard]] std::uint64_t ejections() const {
    return ejections_.value();
  }
  [[nodiscard]] std::size_t size() const { return endpoints_.size(); }

 private:
  struct Endpoint;

  // Best endpoint not in `tried`, by the tier rules; -1 when none left.
  [[nodiscard]] int Pick(const std::vector<bool>& tried,
                         std::int64_t now_ms);
  [[nodiscard]] std::int64_t NowMs() const;

  PredictPoolConfig config_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::size_t> rotation_{0};
  obs::Counter served_;
  obs::Counter failovers_;
  obs::Counter exhausted_;
  obs::Counter ejections_;
};

// --- Heartbeats over sockets: the quorum supervisor's liveness plane.

// Periodically reports a member's progress to a supervisor's heartbeat
// listener, reconnecting with backoff. The provider callback is invoked
// on the sender thread each interval; it must be thread-safe (read
// atomics, not raw replica internals).
class HeartbeatSender {
 public:
  HeartbeatSender(ClientConfig config, int interval_ms,
                  std::function<HeartbeatReport()> provider);
  ~HeartbeatSender();
  HeartbeatSender(const HeartbeatSender&) = delete;
  HeartbeatSender& operator=(const HeartbeatSender&) = delete;

  void Start();
  void Stop();

  [[nodiscard]] std::uint64_t sent() const { return sent_.value(); }
  [[nodiscard]] std::uint64_t reconnects() const {
    return reconnects_.value();
  }

 private:
  void Run();

  ClientConfig config_;
  int interval_ms_;
  std::function<HeartbeatReport()> provider_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::thread thread_;
  Backoff backoff_;
  obs::Counter sent_;
  obs::Counter reconnects_;
};

// Accepts heartbeat connections and hands every decoded report to the
// callback (typically Supervisor::ObserveMemberHeartbeat). One thread per
// connection, short-deadline polled so Stop() is prompt.
class HeartbeatListener {
 public:
  using Callback = std::function<void(const HeartbeatReport&)>;

  explicit HeartbeatListener(Callback callback, int idle_poll_ms = 50,
                             AuthKey auth = AuthKey{});
  ~HeartbeatListener();
  HeartbeatListener(const HeartbeatListener&) = delete;
  HeartbeatListener& operator=(const HeartbeatListener&) = delete;

  // Binds (loopback) and starts accepting. Port 0 = ephemeral.
  [[nodiscard]] util::Status Start(std::uint16_t port);
  void Stop();
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  [[nodiscard]] std::uint64_t received() const { return received_.value(); }

 private:
  void AcceptLoop();
  void HandleConnection(Socket socket);

  Callback callback_;
  int idle_poll_ms_;
  AuthKey auth_;
  Listener listener_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::thread accept_thread_;
  std::mutex connections_mu_;
  std::vector<std::thread> connections_;
  obs::Counter received_;
};

}  // namespace tipsy::net
