#include "net/client.h"

#include <algorithm>

#include "util/checksum.h"

namespace tipsy::net {

std::vector<double> BackoffDelayBoundsMs() {
  return {1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000};
}

// --- CollectorClient.

CollectorClient::CollectorClient(ClientConfig config, obs::Registry* registry,
                                 const std::string& metric_prefix)
    : config_(config),
      backoff_(config.backoff, config.backoff_seed),
      backoff_ms_(BackoffDelayBoundsMs()) {
  metric_handles_.push_back(registry->RegisterCounter(
      metric_prefix + "_net_reconnects_total",
      "Ingest connections re-established after a failure", &reconnects_));
  metric_handles_.push_back(registry->RegisterCounter(
      metric_prefix + "_net_hours_sent_total",
      "Hour records delivered and acked durable", &hours_sent_));
  metric_handles_.push_back(registry->RegisterCounter(
      metric_prefix + "_net_hours_skipped_total",
      "Hour records resolved by the resume ack (already applied)",
      &hours_skipped_));
  metric_handles_.push_back(registry->RegisterCounter(
      metric_prefix + "_net_acks_total",
      "Ingest acks received (each may retire a whole batch)",
      &acks_received_));
  metric_handles_.push_back(registry->RegisterCounter(
      metric_prefix + "_net_records_resent_total",
      "Records re-sent after a reconnect (retired idempotently)",
      &records_resent_));
  metric_handles_.push_back(registry->RegisterHistogram(
      metric_prefix + "_net_backoff_ms",
      "Reconnect backoff delays in milliseconds", &backoff_ms_));
}

CollectorClient::~CollectorClient() = default;

void CollectorClient::Disconnect() {
  socket_.Close();
  handshaken_ = false;
  wire_seq_ = 0;
  sent_ = 0;
  conn_acked_ = 0;
}

void CollectorClient::BackoffSleep(const std::atomic<bool>* stop) {
  const int delay = backoff_.NextDelayMs();
  backoff_ms_.Observe(static_cast<double>(delay));
  (void)SleepInterruptible(delay, stop);
}

util::Status CollectorClient::EnsureConnected() {
  if (handshaken_) return util::Status::Ok();
  Disconnect();
  auto socket =
      Connect(config_.host, config_.port, config_.connect_timeout_ms);
  if (!socket.ok()) return socket.status();
  socket_ = *std::move(socket);
  if (auto status = socket_.SetReadDeadline(config_.io_deadline_ms);
      !status.ok()) {
    return status;
  }
  if (auto status = socket_.SetWriteDeadline(config_.io_deadline_ms);
      !status.ok()) {
    return status;
  }
  IngestHello identity;
  identity.source_id = config_.source_id;
  const std::string hello = EncodeMessage(
      MessageType::kIngestHello, EncodeIngestHello(identity), config_.auth);
  if (auto status = socket_.SendAll(hello); !status.ok()) return status;
  auto ack = ReadMessage(socket_, kMaxMessageBytes, config_.auth);
  if (!ack.ok()) return ack.status();
  if (ack->type != MessageType::kIngestAck) {
    return util::Status::Corrupt("expected ingest ack after hello");
  }
  auto decoded = DecodeIngestAck(ack->payload);
  if (!decoded.ok()) return decoded.status();
  resume_hour_ = decoded->last_applied_hour;
  credits_ = decoded->credits;
  // The resume ack settles the fate of everything queued: records the
  // daemon proves durable (hour at or below the resume point) retire
  // now; the rest will be renumbered onto the fresh stream and resent —
  // the daemon's hour gate retires any overlap idempotently.
  while (!pending_.empty() && pending_.front().hour <= resume_hour_) {
    hours_sent_.Increment();
    pending_.pop_front();
  }
  // A fresh connection is a fresh TIPSYHJ1 stream: magic, then seqs
  // from zero.
  if (auto status = socket_.SendAll(ha::JournalMagic()); !status.ok()) {
    return status;
  }
  wire_seq_ = 0;
  sent_ = 0;
  conn_acked_ = 0;
  handshaken_ = true;
  return util::Status::Ok();
}

util::Status CollectorClient::WaitAck() {
  auto ack = ReadMessage(socket_, kMaxMessageBytes, config_.auth);
  if (!ack.ok()) return ack.status();
  if (ack->type != MessageType::kIngestAck) {
    return util::Status::Corrupt("expected ingest ack");
  }
  auto decoded = DecodeIngestAck(ack->payload);
  if (!decoded.ok()) return decoded.status();
  if (decoded->acked_wire_seq < conn_acked_ ||
      decoded->acked_wire_seq > conn_acked_ + sent_) {
    return util::Status::Corrupt(
        "ack outside the in-flight window: acked " +
        std::to_string(decoded->acked_wire_seq) + ", window [" +
        std::to_string(conn_acked_) + ", " +
        std::to_string(conn_acked_ + sent_) + "]");
  }
  const std::uint64_t newly = decoded->acked_wire_seq - conn_acked_;
  for (std::uint64_t i = 0; i < newly; ++i) {
    hours_sent_.Increment();
    pending_.pop_front();
  }
  sent_ -= newly;
  conn_acked_ = decoded->acked_wire_seq;
  resume_hour_ = std::max(resume_hour_, decoded->last_applied_hour);
  credits_ = decoded->credits;
  acks_received_.Increment();
  backoff_.Reset();
  return util::Status::Ok();
}

util::Status CollectorClient::Pump(const std::atomic<bool>* stop) {
  while (sent_ < pending_.size()) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      return util::Status::Unavailable("stopped while pumping");
    }
    // Zero advertised credits degrades to lock-step probing: one record
    // may go out only once nothing is in flight. Hours queue locally —
    // delayed, never dropped.
    std::uint64_t window = credits_;
    if (window == 0 && sent_ == 0) window = 1;
    if (sent_ >= window) {
      if (auto status = WaitAck(); !status.ok()) return status;
      continue;
    }
    PendingRecord& next = pending_[sent_];
    ha::JournalRecord record;
    record.seq = wire_seq_;
    record.kind = next.kind;
    record.hour = next.hour;
    record.rows = next.rows;
    if (auto status = socket_.SendAll(ha::EncodeJournalRecord(record));
        !status.ok()) {
      return status;
    }
    if (next.sent_once) records_resent_.Increment();
    next.sent_once = true;
    ++wire_seq_;
    ++sent_;
  }
  return util::Status::Ok();
}

util::Status CollectorClient::Enqueue(
    ha::JournalRecordKind kind, util::HourIndex hour,
    std::span<const pipeline::AggRow> rows, const std::atomic<bool>* stop) {
  bool queued = false;
  while (stop == nullptr || !stop->load(std::memory_order_acquire)) {
    if (auto status = EnsureConnected(); !status.ok()) {
      // An auth-mode mismatch is a configuration problem, not an
      // outage: no amount of reconnecting produces the missing key, so
      // fail loudly instead of spinning in backoff.
      if (status.code() == util::StatusCode::kAuthFailed) return status;
      reconnects_.Increment();
      BackoffSleep(stop);
      continue;
    }
    if (!queued) {
      if (kind == ha::JournalRecordKind::kIngest && hour <= resume_hour_) {
        // The daemon already holds this hour durably (a pre-crash
        // delivery we never saw the ack for). Skipping here — instead of
        // re-sending and letting the server gate — keeps the wire quiet,
        // but either path applies the hour exactly once.
        hours_skipped_.Increment();
        return util::Status::Ok();
      }
      PendingRecord record;
      record.kind = kind;
      record.hour = hour;
      record.rows.assign(rows.begin(), rows.end());
      pending_.push_back(std::move(record));
      queued = true;
    }
    auto status = Pump(stop);
    if (status.ok()) return status;
    if (status.code() == util::StatusCode::kUnavailable &&
        stop != nullptr && stop->load(std::memory_order_acquire)) {
      break;  // Pump observed the stop flag, not a wire failure
    }
    if (status.code() == util::StatusCode::kAuthFailed) {
      Disconnect();
      return status;  // a key mismatch mid-stream is just as permanent
    }
    // Anything else — deadline, RST, torn ack, corrupt bytes — tears the
    // connection down; the next loop handshakes again and the resume ack
    // decides which queued records still need sending.
    Disconnect();
    reconnects_.Increment();
    BackoffSleep(stop);
  }
  return util::Status::Unavailable("stopped before the hour was sent");
}

util::Status CollectorClient::Flush(const std::atomic<bool>* stop) {
  while (stop == nullptr || !stop->load(std::memory_order_acquire)) {
    if (pending_.empty()) return util::Status::Ok();
    if (auto status = EnsureConnected(); !status.ok()) {
      if (status.code() == util::StatusCode::kAuthFailed) return status;
      reconnects_.Increment();
      BackoffSleep(stop);
      continue;
    }
    auto status = [&]() -> util::Status {
      while (!pending_.empty()) {
        if (stop != nullptr && stop->load(std::memory_order_acquire)) {
          return util::Status::Unavailable("stopped while flushing");
        }
        if (auto pumped = Pump(stop); !pumped.ok()) return pumped;
        if (!pending_.empty()) {
          if (auto acked = WaitAck(); !acked.ok()) return acked;
        }
      }
      return util::Status::Ok();
    }();
    if (status.ok()) return status;
    if (status.code() == util::StatusCode::kUnavailable &&
        stop != nullptr && stop->load(std::memory_order_acquire)) {
      break;
    }
    if (status.code() == util::StatusCode::kAuthFailed) {
      Disconnect();
      return status;
    }
    Disconnect();
    reconnects_.Increment();
    BackoffSleep(stop);
  }
  return util::Status::Unavailable("stopped before the queue was acked");
}

util::Status CollectorClient::SendHour(util::HourIndex hour,
                                       std::span<const pipeline::AggRow> rows,
                                       const std::atomic<bool>* stop) {
  if (auto status = Enqueue(ha::JournalRecordKind::kIngest, hour, rows, stop);
      !status.ok()) {
    return status;
  }
  return Flush(stop);
}

util::Status CollectorClient::SendHeartbeat(util::HourIndex hour,
                                            const std::atomic<bool>* stop) {
  if (auto status =
          Enqueue(ha::JournalRecordKind::kHeartbeat, hour, {}, stop);
      !status.ok()) {
    return status;
  }
  return Flush(stop);
}

util::Status CollectorClient::SendHourAsync(
    util::HourIndex hour, std::span<const pipeline::AggRow> rows,
    const std::atomic<bool>* stop) {
  return Enqueue(ha::JournalRecordKind::kIngest, hour, rows, stop);
}

util::Status CollectorClient::SendHeartbeatAsync(
    util::HourIndex hour, const std::atomic<bool>* stop) {
  return Enqueue(ha::JournalRecordKind::kHeartbeat, hour, {}, stop);
}

// --- ShippingClient.

ShippingClient::ShippingClient(ha::Replica* replica, ClientConfig config,
                               obs::Registry* registry,
                               const std::string& metric_prefix)
    : replica_(replica),
      config_(config),
      backoff_(config.backoff, config.backoff_seed),
      backoff_ms_(BackoffDelayBoundsMs()) {
  applied_seq_.store(replica_->applied_seq(), std::memory_order_release);
  metric_handles_.push_back(registry->RegisterCounter(
      metric_prefix + "_net_reconnects_total",
      "Shipping connections re-established after a failure", &reconnects_));
  metric_handles_.push_back(registry->RegisterCounter(
      metric_prefix + "_net_records_applied_total",
      "Shipped journal records applied via Replay", &records_applied_));
  metric_handles_.push_back(registry->RegisterCounter(
      metric_prefix + "_net_corrupt_streams_total",
      "Shipping streams dropped for damaged bytes", &corrupt_streams_));
  metric_handles_.push_back(registry->RegisterCounter(
      metric_prefix + "_net_snapshot_catchups_total",
      "Snapshot transfers installed (resume predated the compacted base)",
      &snapshot_catchups_));
  metric_handles_.push_back(registry->RegisterCounter(
      metric_prefix + "_net_snapshot_bytes_received_total",
      "Snapshot transfer bytes received", &snapshot_bytes_received_));
  metric_handles_.push_back(registry->RegisterHistogram(
      metric_prefix + "_net_backoff_ms",
      "Reconnect backoff delays in milliseconds", &backoff_ms_));
}

ShippingClient::~ShippingClient() { Stop(); }

void ShippingClient::Start() {
  if (running_) return;
  stop_.store(false, std::memory_order_release);
  running_ = true;
  thread_ = std::thread(&ShippingClient::Run, this);
}

void ShippingClient::Stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  running_ = false;
}

void ShippingClient::RefreshSnapshots() {
  applied_seq_.store(replica_->applied_seq(), std::memory_order_release);
  const auto snapshot = replica_->retrainer().health_snapshot();
  last_hour_.store(snapshot.last_ingest_hour, std::memory_order_release);
}

void ShippingClient::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    StreamOnce();
    if (stop_.load(std::memory_order_acquire)) break;
    reconnects_.Increment();
    const int delay = backoff_.NextDelayMs();
    backoff_ms_.Observe(static_cast<double>(delay));
    if (!SleepInterruptible(delay, &stop_)) break;
  }
}

util::Status ShippingClient::FillBuffer(Socket& socket, std::string& buffer,
                                        std::size_t need) {
  while (buffer.size() < need) {
    if (stop_.load(std::memory_order_acquire)) {
      return util::Status::Unavailable("stopping");
    }
    auto bytes = socket.RecvSome(64 * 1024);
    if (!bytes.ok()) {
      if (bytes.status().code() == util::StatusCode::kUnavailable) {
        continue;  // read deadline: poll again
      }
      return bytes.status();  // a close mid-transfer is a failed transfer
    }
    buffer.append(*bytes);
  }
  return util::Status::Ok();
}

util::Status ShippingClient::ReceiveSnapshot(Socket& socket,
                                             std::string& buffer,
                                             std::uint64_t* resume_seq) {
  std::size_t pos = 0;
  auto next_envelope = [&]() -> util::StatusOr<Message> {
    while (true) {
      std::size_t try_pos = pos;
      auto message =
          DecodeMessage(buffer, try_pos, kMaxMessageBytes, config_.auth);
      if (message.ok()) {
        pos = try_pos;
        return message;
      }
      if (message.status().code() != util::StatusCode::kTruncated) {
        return message.status();  // damaged envelope: permanent
      }
      if (auto status = FillBuffer(socket, buffer, buffer.size() + 1);
          !status.ok()) {
        return status;
      }
    }
  };
  auto offer_message = next_envelope();
  if (!offer_message.ok()) return offer_message.status();
  if (offer_message->type != MessageType::kSnapshotOffer) {
    return util::Status::Corrupt("expected a snapshot offer");
  }
  auto offer = DecodeSnapshotOffer(offer_message->payload);
  if (!offer.ok()) return offer.status();
  std::string blob;
  blob.reserve(offer->total_bytes);
  std::uint64_t next_index = 0;
  while (blob.size() < offer->total_bytes) {
    auto chunk_message = next_envelope();
    if (!chunk_message.ok()) return chunk_message.status();
    if (chunk_message->type != MessageType::kSnapshotChunk) {
      return util::Status::Corrupt("expected a snapshot chunk");
    }
    auto chunk = DecodeSnapshotChunk(chunk_message->payload);
    if (!chunk.ok()) return chunk.status();
    if (chunk->index != next_index) {
      return util::Status::Corrupt(
          "snapshot chunk out of order: got " +
          std::to_string(chunk->index) + ", want " +
          std::to_string(next_index));
    }
    ++next_index;
    if (blob.size() + chunk->data.size() > offer->total_bytes) {
      return util::Status::Corrupt("snapshot chunks exceed the offer size");
    }
    blob.append(chunk->data);
  }
  // Gate two of three: the whole reassembled blob against the offer's
  // CRC (each envelope was gate one; DecodeSnapshot's own checksum is
  // gate three).
  if (util::Crc32c::Of(blob) != offer->total_crc32c) {
    return util::Status::Corrupt("snapshot transfer checksum mismatch");
  }
  auto snapshot = ha::DecodeSnapshot(blob);
  if (!snapshot.ok()) return snapshot.status();
  if (auto status = replica_->InstallSnapshot(*snapshot); !status.ok()) {
    return status;
  }
  snapshot_catchups_.Increment();
  snapshot_bytes_received_.Increment(blob.size());
  *resume_seq = snapshot->applied_seq;
  buffer.erase(0, pos);  // anything left is the journal suffix stream
  RefreshSnapshots();
  return util::Status::Ok();
}

void ShippingClient::StreamOnce() {
  auto socket =
      Connect(config_.host, config_.port, config_.connect_timeout_ms);
  if (!socket.ok()) return;
  // Short read deadline: the tail is idle most of the time and Stop()
  // must interrupt promptly.
  if (!socket->SetReadDeadline(50).ok() ||
      !socket->SetWriteDeadline(config_.io_deadline_ms).ok()) {
    return;
  }
  ShipRequest request;
  request.from_seq = replica_->applied_seq();
  if (!socket
           ->SendAll(EncodeMessage(MessageType::kShipRequest,
                                   EncodeShipRequest(request), config_.auth))
           .ok()) {
    return;
  }
  // Sniff the stream opening: a TIPSYHJ1 journal begins "TIPS", a
  // snapshot catch-up transfer begins with a TPSY envelope — the primary
  // chooses based on whether from_seq predates its compacted journal
  // base. Loop, because compaction racing the transfer can legitimately
  // produce a second offer before the journal bytes start.
  std::string buffer;
  std::uint64_t base_seq = request.from_seq;
  while (!stop_.load(std::memory_order_acquire)) {
    if (!FillBuffer(*socket, buffer, 4).ok()) return;
    if (buffer.compare(0, 4, "TPSY") != 0) break;  // journal magic next
    if (auto status = ReceiveSnapshot(*socket, buffer, &base_seq);
        !status.ok()) {
      if (status.code() == util::StatusCode::kCorrupt ||
          status.code() == util::StatusCode::kVersionMismatch) {
        corrupt_streams_.Increment();
      }
      return;  // reconnect; applied_seq() reflects whatever installed
    }
    backoff_.Reset();
  }
  JournalStreamDecoder decoder(base_seq);
  std::vector<ha::JournalRecord> records;
  while (!stop_.load(std::memory_order_acquire)) {
    if (buffer.empty()) {
      auto bytes = socket->RecvSome(64 * 1024);
      if (!bytes.ok()) {
        if (bytes.status().code() == util::StatusCode::kUnavailable) {
          continue;  // idle tail
        }
        return;  // closed (cleanly or not): reconnect and resume
      }
      buffer = *std::move(bytes);
    }
    records.clear();
    auto status = decoder.Feed(buffer, records);
    buffer.clear();
    if (!status.ok()) {
      corrupt_streams_.Increment();
      return;  // damaged stream: reconnect from applied_seq
    }
    if (records.empty()) continue;
    if (!replica_->Replay(records).ok()) {
      corrupt_streams_.Increment();
      return;
    }
    records_applied_.Increment(records.size());
    RefreshSnapshots();
    backoff_.Reset();  // progress: the next failure starts backoff over
  }
}

// --- PredictClient.

PredictClient::PredictClient(ClientConfig config, int max_attempts)
    : config_(config),
      max_attempts_(max_attempts),
      backoff_(config.backoff, config.backoff_seed) {}

PredictClient::~PredictClient() = default;

void PredictClient::Disconnect() { socket_.Close(); }

util::StatusOr<Message> PredictClient::RoundTrip(
    MessageType request_type, const std::string& payload,
    MessageType response_type, const std::atomic<bool>* stop) {
  requests_.Increment();
  const std::string wire = EncodeMessage(request_type, payload, config_.auth);
  util::Status last = util::Status::Unavailable("no attempt made");
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    if (attempt > 0) {
      (void)SleepInterruptible(backoff_.NextDelayMs(), stop);
    }
    if (!socket_.valid()) {
      auto connected =
          Connect(config_.host, config_.port, config_.connect_timeout_ms);
      if (!connected.ok()) {
        last = connected.status();
        reconnects_.Increment();
        continue;
      }
      socket_ = *std::move(connected);
      if (!socket_.SetReadDeadline(config_.io_deadline_ms).ok() ||
          !socket_.SetWriteDeadline(config_.io_deadline_ms).ok()) {
        Disconnect();
        last = util::Status::IoError("failed to set deadlines");
        continue;
      }
      backoff_.Reset();
    }
    auto roundtrip = [&]() -> util::StatusOr<Message> {
      if (auto status = socket_.SendAll(wire); !status.ok()) return status;
      auto reply = ReadMessage(socket_, kMaxMessageBytes, config_.auth);
      if (!reply.ok()) return reply.status();
      if (reply->type != response_type) {
        return util::Status::Corrupt("unexpected response type");
      }
      return reply;
    }();
    if (roundtrip.ok()) return roundtrip;
    last = roundtrip.status();
    Disconnect();  // stale connection: next attempt redials
    reconnects_.Increment();
  }
  failures_.Increment();
  if (last.ok() || last.code() == util::StatusCode::kCorrupt) return last;
  return util::Status::Unavailable("request failed after " +
                                   std::to_string(max_attempts_) +
                                   " attempts: " + last.ToString());
}

util::StatusOr<PredictResponse> PredictClient::Predict(
    const PredictRequest& request, const std::atomic<bool>* stop) {
  auto reply =
      RoundTrip(MessageType::kPredictRequest, EncodePredictRequest(request),
                MessageType::kPredictResponse, stop);
  if (!reply.ok()) return reply.status();
  return DecodePredictResponse(reply->payload);
}

util::StatusOr<WhatIfResponse> PredictClient::WhatIf(
    const WhatIfRequest& request, const std::atomic<bool>* stop) {
  auto reply =
      RoundTrip(MessageType::kWhatIfRequest, EncodeWhatIfRequest(request),
                MessageType::kWhatIfResponse, stop);
  if (!reply.ok()) return reply.status();
  return DecodeWhatIfResponse(reply->payload);
}

// --- PredictPool.

struct PredictPool::Endpoint {
  explicit Endpoint(const ClientConfig& config)
      : host(config.host), port(config.port), client(config, 1) {}

  std::string host;
  std::uint16_t port;
  // Serializes use of `client` (a connection is single-request); the
  // atomics beside it are the routing signals other threads read while
  // this endpoint is busy.
  std::mutex mu;
  PredictClient client;
  std::atomic<int> outstanding{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint8_t> last_health{kHealthUnknown};
  // Milliseconds since pool epoch; 0 = not ejected / never tried.
  std::atomic<std::int64_t> ejected_until_ms{0};
  std::atomic<std::int64_t> last_attempt_ms{0};
};

PredictPool::PredictPool(PredictPoolConfig config)
    : config_(std::move(config)), epoch_(std::chrono::steady_clock::now()) {
  for (const ClientConfig& endpoint : config_.endpoints) {
    endpoints_.push_back(std::make_unique<Endpoint>(endpoint));
  }
}

PredictPool::~PredictPool() = default;

void PredictPool::Disconnect() {
  for (auto& endpoint : endpoints_) {
    std::lock_guard<std::mutex> lock(endpoint->mu);
    endpoint->client.Disconnect();
  }
}

std::int64_t PredictPool::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int PredictPool::Pick(const std::vector<bool>& tried, std::int64_t now_ms) {
  const auto within_budget = [&](const Endpoint& e) {
    const std::uint8_t health =
        e.last_health.load(std::memory_order_acquire);
    if (health == kHealthUnknown) return true;  // optimistic first contact
    const auto observed = static_cast<core::ModelHealth>(health);
    return observed != core::ModelHealth::kNone &&
           observed <= config_.staleness_budget;
  };
  const auto ejected = [&](const Endpoint& e) {
    return now_ms < e.ejected_until_ms.load(std::memory_order_acquire);
  };
  const auto probe_due = [&](const Endpoint& e) {
    return now_ms - e.last_attempt_ms.load(std::memory_order_acquire) >=
           config_.probe_interval_ms;
  };
  // Tier 0: healthy and in service. Tier 1: sidelined but due a live
  // probe. Tier 2: anything — a read is never refused unattempted.
  for (int tier = 0; tier < 3; ++tier) {
    int best = -1;
    int best_outstanding = 0;
    const std::size_t start =
        rotation_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      const auto index =
          static_cast<int>((start + i) % endpoints_.size());
      if (tried[static_cast<std::size_t>(index)]) continue;
      Endpoint& endpoint = *endpoints_[static_cast<std::size_t>(index)];
      if (tier == 0 && (ejected(endpoint) || !within_budget(endpoint))) {
        continue;
      }
      if (tier == 1 && !probe_due(endpoint)) continue;
      const int outstanding =
          endpoint.outstanding.load(std::memory_order_acquire);
      if (best < 0 || outstanding < best_outstanding) {
        best = index;
        best_outstanding = outstanding;
      }
    }
    if (best >= 0) return best;
  }
  return -1;
}

util::StatusOr<PredictResponse> PredictPool::Predict(
    const PredictRequest& request, const std::atomic<bool>* stop) {
  if (endpoints_.empty()) {
    return util::Status::InvalidArgument("predict pool has no endpoints");
  }
  const std::size_t attempts =
      config_.attempts_per_request > 0
          ? std::min<std::size_t>(
                static_cast<std::size_t>(config_.attempts_per_request),
                endpoints_.size())
          : endpoints_.size();
  std::vector<bool> tried(endpoints_.size(), false);
  util::Status last = util::Status::Unavailable("no endpoint tried");
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    const int index = Pick(tried, NowMs());
    if (index < 0) break;
    tried[static_cast<std::size_t>(index)] = true;
    Endpoint& endpoint = *endpoints_[static_cast<std::size_t>(index)];
    endpoint.last_attempt_ms.store(NowMs(), std::memory_order_release);
    endpoint.outstanding.fetch_add(1, std::memory_order_acq_rel);
    auto response = [&] {
      std::lock_guard<std::mutex> lock(endpoint.mu);
      return endpoint.client.Predict(request, stop);
    }();
    endpoint.outstanding.fetch_sub(1, std::memory_order_acq_rel);
    if (response.ok()) {
      // The response's health stamp is the pool's freshness signal: an
      // EXPIRED (or model-less) answer still returns to the caller, but
      // this endpoint drops out of tier 0 until it reports healthy.
      endpoint.last_health.store(
          static_cast<std::uint8_t>(response->health),
          std::memory_order_release);
      endpoint.ejected_until_ms.store(0, std::memory_order_release);
      endpoint.served.fetch_add(1, std::memory_order_relaxed);
      served_.Increment();
      if (attempt > 0) failovers_.Increment();
      return response;
    }
    last = response.status();
    endpoint.failures.fetch_add(1, std::memory_order_relaxed);
    endpoint.ejected_until_ms.store(NowMs() + config_.eject_ms,
                                    std::memory_order_release);
    ejections_.Increment();
  }
  exhausted_.Increment();
  if (last.code() == util::StatusCode::kUnavailable) return last;
  return util::Status::Unavailable("pooled predict failed on " +
                                   std::to_string(attempts) +
                                   " endpoints, last: " + last.ToString());
}

std::vector<PredictPool::EndpointStats> PredictPool::endpoint_stats()
    const {
  std::vector<EndpointStats> out;
  out.reserve(endpoints_.size());
  const std::int64_t now_ms = NowMs();
  for (const auto& endpoint : endpoints_) {
    EndpointStats stats;
    stats.host = endpoint->host;
    stats.port = endpoint->port;
    stats.served = endpoint->served.load(std::memory_order_relaxed);
    stats.failures = endpoint->failures.load(std::memory_order_relaxed);
    stats.last_health =
        endpoint->last_health.load(std::memory_order_acquire);
    stats.ejected =
        now_ms < endpoint->ejected_until_ms.load(std::memory_order_acquire);
    out.push_back(std::move(stats));
  }
  return out;
}

// --- HeartbeatSender.

HeartbeatSender::HeartbeatSender(ClientConfig config, int interval_ms,
                                 std::function<HeartbeatReport()> provider)
    : config_(config),
      interval_ms_(interval_ms),
      provider_(std::move(provider)),
      backoff_(config.backoff, config.backoff_seed) {}

HeartbeatSender::~HeartbeatSender() { Stop(); }

void HeartbeatSender::Start() {
  if (running_) return;
  stop_.store(false, std::memory_order_release);
  running_ = true;
  thread_ = std::thread(&HeartbeatSender::Run, this);
}

void HeartbeatSender::Stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  running_ = false;
}

void HeartbeatSender::Run() {
  Socket socket;
  while (!stop_.load(std::memory_order_acquire)) {
    if (!socket.valid()) {
      auto connected =
          Connect(config_.host, config_.port, config_.connect_timeout_ms);
      if (!connected.ok()) {
        reconnects_.Increment();
        if (!SleepInterruptible(backoff_.NextDelayMs(), &stop_)) return;
        continue;
      }
      socket = *std::move(connected);
      (void)socket.SetWriteDeadline(config_.io_deadline_ms);
      backoff_.Reset();
    }
    const std::string wire =
        EncodeMessage(MessageType::kHeartbeat, EncodeHeartbeat(provider_()),
                      config_.auth);
    if (socket.SendAll(wire).ok()) {
      sent_.Increment();
    } else {
      socket.Close();
      reconnects_.Increment();
      continue;  // redial immediately; backoff applies to dial failures
    }
    if (!SleepInterruptible(interval_ms_, &stop_)) return;
  }
}

// --- HeartbeatListener.

HeartbeatListener::HeartbeatListener(Callback callback, int idle_poll_ms,
                                     AuthKey auth)
    : callback_(std::move(callback)),
      idle_poll_ms_(idle_poll_ms),
      auth_(auth) {}

HeartbeatListener::~HeartbeatListener() { Stop(); }

util::Status HeartbeatListener::Start(std::uint16_t port) {
  if (running_) {
    return util::Status::InvalidArgument("listener already running");
  }
  auto listener = Listener::Open(port);
  if (!listener.ok()) return listener.status();
  listener_ = *std::move(listener);
  stop_.store(false, std::memory_order_release);
  running_ = true;
  accept_thread_ = std::thread(&HeartbeatListener::AcceptLoop, this);
  return util::Status::Ok();
}

void HeartbeatListener::Stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  // Wake the accept loop without touching the fd it polls; close after.
  listener_.Shutdown();
  accept_thread_.join();
  listener_.Close();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  for (auto& thread : connections) thread.join();
  running_ = false;
}

void HeartbeatListener::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    auto socket = listener_.Accept(idle_poll_ms_);
    if (!socket.ok()) {
      if (socket.status().code() == util::StatusCode::kUnavailable) {
        continue;
      }
      break;  // listener closed
    }
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections_.emplace_back(&HeartbeatListener::HandleConnection, this,
                              *std::move(socket));
  }
}

void HeartbeatListener::HandleConnection(Socket socket) {
  (void)socket.SetReadDeadline(idle_poll_ms_);
  MessageReader reader(&socket, auth_);
  while (!stop_.load(std::memory_order_acquire)) {
    auto message = reader.Next();
    if (!message.ok()) {
      if (message.status().code() == util::StatusCode::kUnavailable) {
        continue;
      }
      return;  // closed or damaged: the sender reconnects
    }
    if (message->type != MessageType::kHeartbeat) return;
    auto report = DecodeHeartbeat(message->payload);
    if (!report.ok()) return;
    received_.Increment();
    callback_(*report);
  }
}

}  // namespace tipsy::net
