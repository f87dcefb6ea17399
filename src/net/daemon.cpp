#include "net/daemon.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/atomic_file.h"
#include "util/checksum.h"

namespace tipsy::net {
namespace {

// Collector source ids land in metric names; anything outside the
// Prometheus-safe alphabet collapses to '_'.
[[nodiscard]] std::string SanitizeSourceId(const std::string& source_id) {
  if (source_id.empty()) return "anonymous";
  std::string out;
  out.reserve(source_id.size());
  for (const char c : source_id) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
    out.push_back(safe ? c : '_');
  }
  return out;
}

}  // namespace

Daemon::Daemon(ha::Replica* replica, obs::Registry* registry,
               DaemonConfig config)
    : replica_(replica),
      registry_(registry),
      config_(std::move(config)),
      journal_path_(replica->journal().path()),
      snapshot_path_(replica->snapshot_path()),
      journal_progress_(&replica->journal().progress()) {
  const std::string& p = config_.metric_prefix;
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_connections_total", "Connections accepted across listeners",
      &connections_accepted_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_frames_applied_total",
      "Ingest-stream frames applied to the replica", &frames_applied_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_frames_skipped_total",
      "Ingest-stream frames skipped by the hour idempotence gate",
      &frames_skipped_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_frames_corrupt_total",
      "Connections dropped for damaged bytes (bad magic, CRC, seq gap)",
      &frames_corrupt_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_frames_dropped_total",
      "Connections that ended inside a frame (torn wire tail)",
      &frames_dropped_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_predict_requests_total", "Batch PredictShift RPCs answered",
      &predict_requests_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_whatif_requests_total",
      "What-if sweep RPCs answered on the prediction port",
      &whatif_requests_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_ship_streams_total", "Journal shipping streams opened",
      &ship_streams_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_ship_frames_sent_total",
      "Journal frames shipped to standbys", &ship_frames_sent_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_snapshot_transfers_total",
      "Snapshot catch-up transfers served to standbys behind the "
      "compacted journal base",
      &snapshot_transfers_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_snapshot_bytes_sent_total",
      "Snapshot bytes shipped in catch-up transfers",
      &snapshot_bytes_sent_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_ingest_batches_total",
      "Ingest read batches durably processed (one fsync + one ack each)",
      &ingest_batches_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_ingest_batched_records_total",
      "Ingest records processed through batched acks",
      &ingest_batched_records_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_metrics_scrapes_total", "GET /metrics requests served",
      &metrics_scrapes_));
  metric_handles_.push_back(registry_->RegisterCounter(
      p + "_net_auth_failures_total",
      "Connections refused for failed or missing message authentication",
      &auth_failures_));
  metric_handles_.push_back(registry_->RegisterGauge(
      p + "_net_ingest_sources",
      "Distinct collector source identities seen on the ingest port",
      [this] { return ingest_sources_.value(); }));
  metric_handles_.push_back(registry_->RegisterGauge(
      p + "_net_ship_lag_seq",
      "Durable journal records the slowest live ship stream has yet to "
      "send",
      [this] { return ship_lag_seq(); }));
  auto epoch_handles = epoch_.RegisterMetrics(*registry_, p);
  for (auto& handle : epoch_handles) {
    metric_handles_.push_back(std::move(handle));
  }
}

Daemon::~Daemon() { Stop(); }

util::Status Daemon::Start() {
  if (running_) return util::Status::InvalidArgument("daemon already running");

  auto predict = Listener::Open(config_.predict_port, config_.any_interface);
  if (!predict.ok()) return predict.status();
  auto ingest = Listener::Open(config_.ingest_port, config_.any_interface);
  if (!ingest.ok()) return ingest.status();
  auto ship = Listener::Open(config_.ship_port, config_.any_interface);
  if (!ship.ok()) return ship.status();
  auto metrics = Listener::Open(config_.metrics_port, config_.any_interface);
  if (!metrics.ok()) return metrics.status();
  predict_listener_ = *std::move(predict);
  ingest_listener_ = *std::move(ingest);
  ship_listener_ = *std::move(ship);
  metrics_listener_ = *std::move(metrics);

  // The idempotence gate survives restarts because the replica does: its
  // last_data_hour is rebuilt from the snapshot *and* the replayed
  // journal, so it stays correct even after compaction emptied the
  // journal prefix that carried those hours.
  util::HourIndex last_applied = replica_->last_data_hour();
  if (last_applied == std::numeric_limits<util::HourIndex>::min()) {
    last_applied = -1;  // the wire convention for "nothing applied yet"
  }
  last_applied_hour_.store(last_applied, std::memory_order_release);

  // Serving goes through the epoch from here on; every later retrain
  // publishes into it. Compaction keeps what live ship streams still
  // need.
  replica_->mutable_retrainer().PublishTo(&epoch_);
  {
    std::lock_guard<std::mutex> lock(replica_mu_);
    replica_->SetRetentionFloor([this] { return SlowestShipCursor(); });
  }

  stop_.store(false, std::memory_order_release);
  running_ = true;
  accept_threads_.emplace_back(&Daemon::AcceptLoop, this, &predict_listener_,
                               &Daemon::HandlePredict);
  accept_threads_.emplace_back(&Daemon::AcceptLoop, this, &ingest_listener_,
                               &Daemon::HandleIngest);
  accept_threads_.emplace_back(&Daemon::AcceptLoop, this, &ship_listener_,
                               &Daemon::HandleShip);
  accept_threads_.emplace_back(&Daemon::AcceptLoop, this, &metrics_listener_,
                               &Daemon::HandleMetrics);
  return util::Status::Ok();
}

void Daemon::Stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  // Wake the accept loops without touching the fds they are polling; the
  // listeners are closed only after every loop has returned.
  Listener* listeners[] = {&predict_listener_, &ingest_listener_,
                           &ship_listener_, &metrics_listener_};
  for (Listener* listener : listeners) listener->Shutdown();
  for (auto& thread : accept_threads_) thread.join();
  accept_threads_.clear();
  for (Listener* listener : listeners) listener->Close();
  std::vector<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) connection.thread.join();
  replica_->mutable_retrainer().PublishTo(nullptr);
  {
    std::lock_guard<std::mutex> lock(replica_mu_);
    replica_->SetRetentionFloor(nullptr);
  }
  running_ = false;
}

util::Status Daemon::AdvanceClock(util::HourIndex hour) {
  std::lock_guard<std::mutex> lock(replica_mu_);
  if (hour <= replica_->retrainer().health_snapshot().last_ingest_hour) {
    return util::Status::Ok();  // the feed overtook the ticker
  }
  return replica_->Heartbeat(hour);
}

core::ModelHealth Daemon::health() const { return replica_->health(); }

double Daemon::ship_lag_seq() const {
  const std::uint64_t durable = journal_progress_->durable_next_seq();
  std::uint64_t lag = 0;
  std::lock_guard<std::mutex> lock(ship_cursors_mu_);
  for (const auto& [stream, cursor] : ship_cursors_) {
    if (durable > cursor) lag = std::max(lag, durable - cursor);
  }
  return static_cast<double>(lag);
}

void Daemon::TrackShipCursor(std::uint64_t stream, std::uint64_t cursor) {
  std::lock_guard<std::mutex> lock(ship_cursors_mu_);
  ship_cursors_[stream] = cursor;
}

void Daemon::ForgetShipStream(std::uint64_t stream) {
  std::lock_guard<std::mutex> lock(ship_cursors_mu_);
  ship_cursors_.erase(stream);
}

std::optional<std::uint64_t> Daemon::SlowestShipCursor() const {
  std::lock_guard<std::mutex> lock(ship_cursors_mu_);
  std::optional<std::uint64_t> slowest;
  for (const auto& [stream, cursor] : ship_cursors_) {
    if (!slowest || cursor < *slowest) slowest = cursor;
  }
  return slowest;
}

void Daemon::AcceptLoop(Listener* listener,
                        void (Daemon::*handler)(Socket)) {
  while (!stop_.load(std::memory_order_acquire)) {
    auto socket = listener->Accept(config_.idle_poll_ms);
    ReapFinishedConnections();
    if (!socket.ok()) {
      if (socket.status().code() == util::StatusCode::kUnavailable) {
        continue;  // poll tick
      }
      break;  // listener closed (Stop)
    }
    connections_accepted_.Increment();
    SpawnConnection(handler, *std::move(socket));
  }
}

void Daemon::SpawnConnection(void (Daemon::*handler)(Socket),
                             Socket socket) {
  Connection connection;
  connection.done = std::make_shared<std::atomic<bool>>(false);
  auto done = connection.done;
  connection.thread =
      std::thread([this, handler, done, sock = std::move(socket)]() mutable {
        (this->*handler)(std::move(sock));
        done->store(true, std::memory_order_release);
      });
  std::lock_guard<std::mutex> lock(connections_mu_);
  connections_.push_back(std::move(connection));
}

void Daemon::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(connections_mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string Daemon::AckBytes(std::uint64_t acked_wire_seq) {
  IngestAck ack;
  ack.last_applied_hour = last_applied_hour_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(replica_mu_);
    ack.next_seq = replica_->journal().next_seq();
  }
  ack.acked_wire_seq = acked_wire_seq;
  ack.credits = config_.ingest_window;
  return EncodeMessage(MessageType::kIngestAck, EncodeIngestAck(ack),
                       config_.auth);
}

Daemon::SourceState* Daemon::SourceFor(const std::string& source_id) {
  const std::string name = SanitizeSourceId(source_id);
  std::lock_guard<std::mutex> lock(sources_mu_);
  auto it = sources_.find(name);
  if (it != sources_.end()) return it->second.get();
  auto state = std::make_unique<SourceState>();
  const std::string base =
      config_.metric_prefix + "_net_ingest_source_" + name;
  state->handles.push_back(registry_->RegisterCounter(
      base + "_applied_total",
      "Records journaled from collector source " + name, &state->applied));
  state->handles.push_back(registry_->RegisterCounter(
      base + "_skipped_total",
      "Records from collector source " + name +
          " retired by the idempotence gates",
      &state->skipped));
  state->handles.push_back(registry_->RegisterCounter(
      base + "_batches_total",
      "Ingest read batches processed for collector source " + name,
      &state->batches));
  it = sources_.emplace(name, std::move(state)).first;
  ingest_sources_.Set(static_cast<double>(sources_.size()));
  return it->second.get();
}

std::vector<std::pair<std::string, Daemon::IngestSourceStats>>
Daemon::ingest_source_stats() const {
  std::lock_guard<std::mutex> lock(sources_mu_);
  std::vector<std::pair<std::string, IngestSourceStats>> out;
  out.reserve(sources_.size());
  for (const auto& [name, state] : sources_) {
    IngestSourceStats stats;
    stats.applied = state->applied.value();
    stats.skipped = state->skipped.value();
    stats.batches = state->batches.value();
    stats.last_hour = state->last_hour.load(std::memory_order_acquire);
    out.emplace_back(name, stats);
  }
  return out;
}

void Daemon::HandlePredict(Socket socket) {
  // Short read deadline so Stop() is observed promptly; the buffered
  // reader keeps partially-arrived envelopes across deadline ticks.
  (void)socket.SetReadDeadline(config_.idle_poll_ms);
  (void)socket.SetWriteDeadline(config_.io_deadline_ms);
  MessageReader reader(&socket, config_.auth);
  while (!stop_.load(std::memory_order_acquire)) {
    auto message = reader.Next();
    if (!message.ok()) {
      if (message.status().code() == util::StatusCode::kUnavailable) {
        continue;  // idle tick
      }
      if (message.status().code() == util::StatusCode::kCorrupt) {
        frames_corrupt_.Increment();
      } else if (message.status().code() == util::StatusCode::kTruncated) {
        frames_dropped_.Increment();
      } else if (message.status().code() == util::StatusCode::kAuthFailed) {
        auth_failures_.Increment();
      }
      return;  // clean close, torn close, damage, or OS error
    }
    if (message->type == MessageType::kWhatIfRequest) {
      auto request = DecodeWhatIfRequest(message->payload);
      if (!request.ok()) {
        frames_corrupt_.Increment();
        return;
      }
      whatif_requests_.Increment();
      if (!AnswerWhatIf(*request, socket)) return;
      continue;
    }
    if (message->type != MessageType::kPredictRequest) {
      frames_corrupt_.Increment();
      return;
    }
    auto request = DecodePredictRequest(message->payload);
    if (!request.ok()) {
      frames_corrupt_.Increment();
      return;
    }
    predict_requests_.Increment();

    PredictResponse response;
    // Lock-free: answered from the retrainer's published status and the
    // epoch, loaded in that order (a retrain publishes its model before
    // its status, so the stamp never claims a fresher model than the one
    // that answered). With no model yet (or after the feed died before
    // the first retrain), every byte is honestly unpredicted and health
    // says why.
    response.health = replica_->health();
    const auto service = epoch_.Acquire();
    if (service != nullptr) {
      core::ExclusionMask mask;
      if (!request->excluded.empty()) {
        mask.resize(request->excluded.back().value() + 1, false);
        for (const auto link : request->excluded) {
          if (link.value() < mask.size()) mask[link.value()] = true;
        }
      }
      response.prediction = service->PredictShift(request->flows, mask);
    } else {
      for (const auto& query : request->flows) {
        response.prediction.unpredicted_bytes += query.bytes;
      }
    }
    const std::string reply =
        EncodeMessage(MessageType::kPredictResponse,
                      EncodePredictResponse(response), config_.auth);
    if (!socket.SendAll(reply).ok()) return;
  }
}

bool Daemon::AnswerWhatIf(const WhatIfRequest& request, Socket& socket) {
  WhatIfResponse response;
  // Answered lock-free from the published status and epoch, like
  // PredictShift: no model yet means an empty report list, and the
  // stamped health says why.
  const core::ServingStatus status = replica_->retrainer().serving_status();
  response.health = status.health;
  response.drift_state = status.drift_state;
  const auto service = epoch_.Acquire();
  const wan::Wan* wan = replica_->retrainer().wan();
  if (service != nullptr &&
      request.link_loads.size() == wan->link_count()) {
    cms::WhatIfOptions options;
    if (request.prediction_k > 0) options.prediction_k = request.prediction_k;
    if (request.safety_headroom > 0.0) {
      options.safety_headroom = request.safety_headroom;
    }
    const cms::WhatIfSimulator simulator(wan, service.get(), options);
    response.reports =
        simulator.Sweep(request.rows, request.link_loads, request.candidates);
  }
  const std::string reply =
      EncodeMessage(MessageType::kWhatIfResponse,
                    EncodeWhatIfResponse(response), config_.auth);
  return socket.SendAll(reply).ok();
}

void Daemon::HandleIngest(Socket socket) {
  (void)socket.SetReadDeadline(config_.io_deadline_ms);
  (void)socket.SetWriteDeadline(config_.io_deadline_ms);

  // Handshake: hello in, resume-point ack out.
  auto hello = ReadMessage(socket, kMaxMessageBytes, config_.auth);
  if (!hello.ok() || hello->type != MessageType::kIngestHello) {
    if (hello.ok() ||
        hello.status().code() == util::StatusCode::kCorrupt) {
      frames_corrupt_.Increment();
    } else if (hello.status().code() == util::StatusCode::kAuthFailed) {
      auth_failures_.Increment();
    }
    return;
  }
  auto decoded = DecodeIngestHello(hello->payload);
  if (!decoded.ok()) {
    frames_corrupt_.Increment();
    return;
  }
  SourceState* source = SourceFor(decoded->source_id);
  if (!socket.SendAll(AckBytes(0)).ok()) return;

  // Stream phase: raw TIPSYHJ1 bytes. Per-connection seqs restart at zero
  // (each connection is a fresh stream; idempotence comes from the hour
  // gate, not the seq). Whatever a read delivers is drained as ONE batch:
  // every surviving record is journaled with the fsync deferred, one
  // fsync makes the batch durable, and one cumulative ack covers it —
  // that is how a pipelining collector gets N records per fsync instead
  // of lock-step.
  (void)socket.SetReadDeadline(config_.idle_poll_ms);
  JournalStreamDecoder decoder(/*base_seq=*/0);
  std::vector<ha::JournalRecord> records;
  std::vector<ha::JournalRecord> batch;
  std::uint64_t wire_processed = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    auto bytes = socket.RecvSome(64 * 1024);
    if (!bytes.ok()) {
      if (bytes.status().code() == util::StatusCode::kUnavailable) {
        continue;  // idle tick (the collector sends hourly)
      }
      if (bytes.status().code() == util::StatusCode::kNoData) {
        // Clean close: a torn buffered frame is still a drop.
        if (!decoder.Finish().ok()) frames_dropped_.Increment();
      }
      return;
    }
    records.clear();
    if (auto status = decoder.Feed(*bytes, records); !status.ok()) {
      frames_corrupt_.Increment();
      return;  // the collector reconnects and resumes from the ack
    }
    if (records.empty()) continue;  // mid-frame; keep reading
    {
      std::lock_guard<std::mutex> lock(replica_mu_);
      // Gate pass: decide per record against the hour gate (including
      // hours earlier in this same batch), then apply the survivors as
      // one durable batch.
      batch.clear();
      util::HourIndex gate =
          last_applied_hour_.load(std::memory_order_acquire);
      util::HourIndex heartbeat_gate =
          replica_->retrainer().health_snapshot().last_ingest_hour;
      std::uint64_t skipped_heartbeats = 0;
      for (auto& record : records) {
        const util::HourIndex record_hour = record.hour;
        if (record.kind == ha::JournalRecordKind::kIngest) {
          if (record.hour <= gate) {
            // Idempotence gate: a replayed hour never reaches the
            // replica, so dropped/duplicate accounting (and therefore
            // the model) stays bit-identical to an uninterrupted feed.
            // With several collectors feeding concurrently, the gate is
            // still the single global hour watermark — whichever source
            // lands an hour first wins it, every other delivery of that
            // hour (same source or not) retires here.
            frames_skipped_.Increment();
            source->skipped.Increment();
          } else {
            gate = record.hour;
            batch.push_back(std::move(record));
            source->applied.Increment();
          }
        } else {  // heartbeat: clock tick relayed from the collector
          if (record.hour > heartbeat_gate && record.hour > gate) {
            heartbeat_gate = record.hour;
            batch.push_back(std::move(record));
            source->applied.Increment();
          } else {
            frames_skipped_.Increment();
            source->skipped.Increment();
            ++skipped_heartbeats;
          }
        }
        util::HourIndex seen =
            source->last_hour.load(std::memory_order_acquire);
        while (record_hour > seen &&
               !source->last_hour.compare_exchange_weak(
                   seen, record_hour, std::memory_order_acq_rel)) {
        }
      }
      if (!batch.empty()) {
        if (auto status = replica_->IngestBatch(batch); !status.ok()) {
          return;  // journal append/sync failed: nothing was acked
        }
        last_applied_hour_.store(gate, std::memory_order_release);
        frames_applied_.Increment(batch.size());
        ingest_batches_.Increment();
        ingest_batched_records_.Increment(batch.size());
        source->batches.Increment();
      }
      // Heartbeats count as handled even when gated (they carried no
      // data), matching the one-at-a-time path's accounting.
      frames_applied_.Increment(skipped_heartbeats);
    }
    wire_processed += records.size();
    if (!socket.SendAll(AckBytes(wire_processed)).ok()) return;
  }
}

void Daemon::HandleShip(Socket socket) {
  (void)socket.SetWriteDeadline(config_.io_deadline_ms);
  (void)socket.SetReadDeadline(config_.io_deadline_ms);
  auto message = ReadMessage(socket, kMaxMessageBytes, config_.auth);
  if (!message.ok() || message->type != MessageType::kShipRequest) {
    if (message.ok() ||
        message.status().code() == util::StatusCode::kCorrupt) {
      frames_corrupt_.Increment();
    } else if (message.status().code() == util::StatusCode::kAuthFailed) {
      auth_failures_.Increment();
    }
    return;
  }
  auto request = DecodeShipRequest(message->payload);
  if (!request.ok()) {
    frames_corrupt_.Increment();
    return;
  }
  ship_streams_.Increment();

  // The ship plane never takes replica_mu_: the journal and snapshot
  // paths are fixed, the live base and durable tail come from the
  // journal's published progress, and the file is read through a tail
  // reader that ships only the verified frames past its last one, as the
  // journal's own bytes.
  //
  // The stream's cursor (the next seq it will send) sits in the
  // live-cursor table from before the base is first read until the
  // stream ends, so every compaction that starts meanwhile keeps it —
  // unless the stream falls more than a checkpoint behind.
  std::uint64_t stream = 0;
  {
    std::lock_guard<std::mutex> lock(ship_cursors_mu_);
    stream = next_ship_stream_++;
  }
  struct Forget {
    Daemon* daemon;
    std::uint64_t stream;
    ~Forget() { daemon->ForgetShipStream(stream); }
  } forget{this, stream};

  // Catch-up: a cursor below the LIVE base (not the file's: an empty
  // compacted file self-describes base 0) asks for a prefix that no
  // longer exists on disk. No journal bytes have gone out yet, so it is
  // served as a snapshot transfer (offer + chunks), and the stream
  // resumes from the snapshot's applied_seq once that is inside the
  // journal.
  std::uint64_t cursor = request->from_seq;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    TrackShipCursor(stream, cursor);
    const std::uint64_t live_base = journal_progress_->base_seq();
    if (cursor >= live_base) break;
    auto resume = SendSnapshotTransfer(socket, live_base);
    if (!resume.ok()) return;
    cursor = *resume;
  }
  if (!socket.SendAll(ha::JournalMagic()).ok()) return;

  // Tail: read, send, then sleep until the journal's durable tail moves
  // past what was read (the writer publishes right after each batch
  // fsync, before it applies or checkpoints). idle_poll_ms only bounds
  // the sleep, so Stop() and a departed standby are still noticed. A
  // cursor that compaction overtakes mid-stream (the stream stalled past
  // the previous checkpoint) cannot be spliced: the reader reports
  // kNoData and the standby reconnects into the snapshot path.
  ha::JournalTailReader tail(journal_path_);
  std::string frames;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint64_t seen = journal_progress_->durable_next_seq();
    frames.clear();
    auto read = tail.ReadFrom(cursor, frames);
    if (!read.ok()) return;
    if (*read > 0) {
      if (!socket.SendAll(frames).ok()) return;
      cursor += *read;
      ship_frames_sent_.Increment(*read);
      TrackShipCursor(stream, cursor);
    }
    if (!socket.PeerOpen()) return;  // the standby hung up
    (void)journal_progress_->WaitForAdvance(seen, config_.idle_poll_ms);
  }
}

util::StatusOr<std::uint64_t> Daemon::SendSnapshotTransfer(
    Socket& socket, std::uint64_t journal_base) {
  // Read and verify the snapshot file BEFORE offering it: a damaged or
  // stale snapshot must fail the transfer here (standby keeps its state
  // and retries) rather than mid-stream.
  auto blob = util::ReadFileToString(snapshot_path_);
  if (!blob.ok()) return blob.status();
  auto snapshot = ha::DecodeSnapshot(*blob);
  if (!snapshot.ok()) return snapshot.status();
  if (snapshot->applied_seq < journal_base) {
    // The journal was compacted past what this snapshot covers — there is
    // no way to bridge the gap. (Compaction only truncates through a
    // snapshot's applied_seq, so this indicates file-level interference.)
    return util::Status::Corrupt(
        "snapshot applied_seq " + std::to_string(snapshot->applied_seq) +
        " predates compacted journal base " + std::to_string(journal_base));
  }
  if (blob->size() > kMaxMessageBytes) {
    return util::Status::Corrupt("snapshot exceeds the wire transfer cap");
  }
  SnapshotOffer offer;
  offer.applied_seq = snapshot->applied_seq;
  offer.total_bytes = blob->size();
  offer.total_crc32c = util::Crc32c::Of(*blob);
  if (auto status = socket.SendAll(
          EncodeMessage(MessageType::kSnapshotOffer,
                        EncodeSnapshotOffer(offer), config_.auth));
      !status.ok()) {
    return status;
  }
  const std::size_t chunk_bytes =
      config_.snapshot_chunk_bytes > 0 ? config_.snapshot_chunk_bytes
                                       : (1u << 20);
  SnapshotChunk chunk;
  for (std::size_t offset = 0; offset < blob->size();
       offset += chunk_bytes, ++chunk.index) {
    chunk.data.assign(*blob, offset,
                      std::min(chunk_bytes, blob->size() - offset));
    if (auto status = socket.SendAll(
            EncodeMessage(MessageType::kSnapshotChunk,
                          EncodeSnapshotChunk(chunk), config_.auth));
        !status.ok()) {
      return status;
    }
    snapshot_bytes_sent_.Increment(chunk.data.size());
  }
  snapshot_transfers_.Increment();
  return snapshot->applied_seq;
}

void Daemon::HandleMetrics(Socket socket) {
  (void)socket.SetReadDeadline(config_.io_deadline_ms);
  (void)socket.SetWriteDeadline(config_.io_deadline_ms);
  // One-shot HTTP: read the request line(s), answer, close. The path is
  // not inspected — every GET serves the exposition (curl/Prometheus
  // compatible enough for scraping and the smoke job).
  auto request = socket.RecvSome(4096);
  if (!request.ok()) return;
  metrics_scrapes_.Increment();
  const std::string body = registry_->RenderPrometheusText();
  std::ostringstream response;
  response << "HTTP/1.1 200 OK\r\n"
           << "Content-Type: text/plain; version=0.0.4\r\n"
           << "Content-Length: " << body.size() << "\r\n"
           << "Connection: close\r\n\r\n"
           << body;
  (void)socket.SendAll(response.str());
}

}  // namespace tipsy::net
