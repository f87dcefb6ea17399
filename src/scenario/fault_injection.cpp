#include "scenario/fault_injection.h"

#include <optional>
#include <sstream>
#include <utility>

#include "util/hash.h"
#include "util/rng.h"

namespace tipsy::scenario {
namespace {

// Per-fault-class stream labels so one hour's fates are independent.
enum class FaultStream : std::uint64_t {
  kRowLoss = 1,
  kDuplicate = 2,
  kReorder = 3,
  kHeartbeatDrop = 4,
  kHeartbeatDelay = 5,
};

bool Chance(std::uint64_t seed, FaultStream stream, util::HourIndex hour,
            double probability) {
  if (probability <= 0.0) return false;
  util::Rng rng(util::HashAll(seed, static_cast<std::uint64_t>(stream),
                              static_cast<std::uint64_t>(hour)));
  return rng.NextBool(probability);
}

// Per-role variant for the heartbeat channel (primary and standby fates
// must be independent).
bool RoleChance(std::uint64_t seed, FaultStream stream, std::uint64_t role,
                util::HourIndex hour, double probability) {
  if (probability <= 0.0) return false;
  util::Rng rng(util::HashAll(seed, static_cast<std::uint64_t>(stream),
                              role, static_cast<std::uint64_t>(hour)));
  return rng.NextBool(probability);
}

bool InAnyWindow(const std::vector<util::HourRange>& windows,
                 util::HourIndex hour) {
  for (const auto& window : windows) {
    if (window.Contains(hour)) return true;
  }
  return false;
}

}  // namespace

FaultInjectingRowSource::FaultInjectingRowSource(RowSource& inner,
                                                 FaultScheduleConfig config)
    : inner_(&inner), config_(std::move(config)) {}

bool FaultInjectingRowSource::InWindow(
    const std::vector<util::HourRange>& windows, util::HourIndex hour) const {
  for (const auto& window : windows) {
    if (window.Contains(hour)) return true;
  }
  return false;
}

void FaultInjectingRowSource::Deliver(util::HourIndex hour,
                                      std::span<const pipeline::AggRow> rows,
                                      const RowSink& sink) {
  sink(hour, rows);
  if (Chance(config_.seed, FaultStream::kDuplicate, hour,
             config_.duplicate_hour_rate)) {
    ++hours_duplicated_;
    sink(hour, rows);
  }
}

void FaultInjectingRowSource::StreamHours(util::HourRange range,
                                          const RowSink& sink) {
  // At most one hour is held back for a pairwise swap; if the stream ends
  // (or the partner is dropped) it is flushed late - which downstream
  // consumers see as the out-of-order delivery it is.
  std::optional<std::pair<util::HourIndex, std::vector<pipeline::AggRow>>>
      held;
  inner_->StreamHours(range, [&](util::HourIndex hour,
                                 std::span<const pipeline::AggRow> rows) {
    if (InWindow(config_.collector_down, hour)) {
      ++hours_dropped_;
      return;
    }
    std::vector<pipeline::AggRow> thinned;
    std::span<const pipeline::AggRow> surviving = rows;
    if (config_.row_loss_rate > 0.0 && InWindow(config_.degraded, hour)) {
      util::Rng rng(util::HashAll(
          config_.seed, static_cast<std::uint64_t>(FaultStream::kRowLoss),
          static_cast<std::uint64_t>(hour)));
      thinned.reserve(rows.size());
      for (const auto& row : rows) {
        if (!rng.NextBool(config_.row_loss_rate)) thinned.push_back(row);
      }
      rows_dropped_ += rows.size() - thinned.size();
      surviving = thinned;
    }
    if (held.has_value()) {
      // Deliver the partner first, then the held hour: a pairwise swap.
      ++hours_reordered_;
      Deliver(hour, surviving, sink);
      Deliver(held->first, held->second, sink);
      held.reset();
      return;
    }
    if (Chance(config_.seed, FaultStream::kReorder, hour,
               config_.reorder_rate)) {
      held.emplace(hour, std::vector<pipeline::AggRow>(surviving.begin(),
                                                       surviving.end()));
      return;
    }
    Deliver(hour, surviving, sink);
  });
  if (held.has_value()) {
    ++hours_reordered_;
    Deliver(held->first, held->second, sink);
  }
}

std::size_t FaultInjectingRowSource::EstimatedRows(
    util::HourRange range) const {
  const std::size_t base = inner_->EstimatedRows(range);
  if (base == 0 || range.length() <= 0) return base;
  // Expected surviving fraction, hour by hour: collector-down hours
  // deliver nothing; degraded hours are thinned; duplicated hours are
  // delivered again. Reordering moves rows, it does not change counts.
  double expected_hours = 0.0;
  for (util::HourIndex hour = range.begin; hour < range.end; ++hour) {
    if (InWindow(config_.collector_down, hour)) continue;
    double weight = 1.0;
    if (config_.row_loss_rate > 0.0 && InWindow(config_.degraded, hour)) {
      weight *= 1.0 - config_.row_loss_rate;
    }
    weight *= 1.0 + config_.duplicate_hour_rate;
    expected_hours += weight;
  }
  return static_cast<std::size_t>(
      static_cast<double>(base) * expected_hours /
      static_cast<double>(range.length()));
}

RecoveredRows ReadRowFileBytes(const std::string& bytes) {
  RecoveredRows recovered;
  std::istringstream in(bytes);
  pipeline::RowFileReader reader(in);
  while (auto block = reader.ReadHour()) {
    recovered.total_rows += block->rows.size();
    recovered.blocks.push_back(std::move(*block));
  }
  recovered.status = reader.status();
  return recovered;
}

std::string FlipBit(std::string bytes, std::size_t byte_index,
                    int bit_index) {
  if (byte_index < bytes.size()) {
    bytes[byte_index] = static_cast<char>(
        static_cast<unsigned char>(bytes[byte_index]) ^
        (1u << (bit_index & 7)));
  }
  return bytes;
}

std::string TruncateTail(std::string bytes, std::size_t drop_bytes) {
  bytes.resize(bytes.size() - std::min(bytes.size(), drop_bytes));
  return bytes;
}

FaultyHeartbeatChannel::FaultyHeartbeatChannel(ha::Supervisor& supervisor,
                                               HeartbeatFaultConfig config)
    : supervisor_(&supervisor), config_(std::move(config)) {}

void FaultyHeartbeatChannel::Send(ha::ReplicaRole role,
                                  util::HourIndex hour) {
  DeliverDueBy(hour);
  const auto role_bits = static_cast<std::uint64_t>(role);
  if (InAnyWindow(config_.partitioned, hour) ||
      RoleChance(config_.seed, FaultStream::kHeartbeatDrop, role_bits, hour,
                 config_.drop_rate)) {
    ++dropped_;
    return;
  }
  if (config_.max_delay_hours > 0 &&
      RoleChance(config_.seed, FaultStream::kHeartbeatDelay, role_bits, hour,
                 config_.delay_rate)) {
    util::Rng rng(util::HashAll(
        config_.seed, static_cast<std::uint64_t>(FaultStream::kHeartbeatDelay),
        role_bits, static_cast<std::uint64_t>(hour), std::uint64_t{1}));
    const auto delay = rng.NextInRange(1, config_.max_delay_hours);
    ++delayed_;
    pending_.push_back(Pending{hour + delay, role, hour});
    return;
  }
  ++delivered_;
  supervisor_->ObserveHeartbeat(role, hour);
}

void FaultyHeartbeatChannel::DeliverDueBy(util::HourIndex hour) {
  for (std::size_t i = 0; i < pending_.size();) {
    if (pending_[i].due <= hour) {
      ++delivered_;
      supervisor_->ObserveHeartbeat(pending_[i].role, pending_[i].hour);
      pending_[i] = pending_.back();
      pending_.pop_back();
    } else {
      ++i;
    }
  }
}

// --- SocketFaultProxy.

struct SocketFaultProxy::Link {
  net::Socket client;
  net::Socket upstream;
  // Shared kill switch: either pump dying (EOF, error, injected reset)
  // cuts both directions, like a real connection teardown.
  std::atomic<bool> dead{false};
  // kResetMidFrame budget, client->upstream direction.
  std::atomic<std::size_t> reset_budget{0};
  std::thread to_upstream;
  std::thread to_client;
};

SocketFaultProxy::SocketFaultProxy(SocketFaultProxyConfig config)
    : config_(std::move(config)) {}

SocketFaultProxy::~SocketFaultProxy() { Stop(); }

util::Status SocketFaultProxy::Start() {
  if (running_) return util::Status::Ok();
  auto listener = net::Listener::Open(config_.listen_port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  stop_.store(false, std::memory_order_release);
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::Ok();
}

void SocketFaultProxy::Stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  // Wake the accept loop without touching the fd it polls; close after.
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::unique_ptr<Link>> links;
  {
    std::lock_guard<std::mutex> lock(links_mu_);
    links.swap(links_);
  }
  for (auto& link : links) {
    link->dead.store(true, std::memory_order_release);
    link->client.Shutdown();
    link->upstream.Shutdown();
    if (link->to_upstream.joinable()) link->to_upstream.join();
    if (link->to_client.joinable()) link->to_client.join();
  }
  running_ = false;
}

void SocketFaultProxy::DropConnections() {
  std::lock_guard<std::mutex> lock(links_mu_);
  for (auto& link : links_) {
    link->dead.store(true, std::memory_order_release);
    link->client.Shutdown();
    link->upstream.Shutdown();
  }
}

void SocketFaultProxy::ReapFinishedLinks() {
  std::lock_guard<std::mutex> lock(links_mu_);
  for (std::size_t i = 0; i < links_.size();) {
    if (links_[i]->dead.load(std::memory_order_acquire)) {
      if (links_[i]->to_upstream.joinable()) links_[i]->to_upstream.join();
      if (links_[i]->to_client.joinable()) links_[i]->to_client.join();
      links_[i] = std::move(links_.back());
      links_.pop_back();
    } else {
      ++i;
    }
  }
}

void SocketFaultProxy::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    auto accepted = listener_.Accept(config_.poll_ms);
    if (!accepted.ok()) {
      if (accepted.status().code() == util::StatusCode::kUnavailable) {
        ReapFinishedLinks();
        continue;
      }
      return;  // listener closed
    }
    if (mode() == ProxyMode::kRefuse) {
      connections_refused_.fetch_add(1, std::memory_order_relaxed);
      continue;  // Socket dtor closes: the client sees an immediate EOF
    }
    auto upstream = net::Connect(config_.upstream_host,
                                 config_.upstream_port,
                                 config_.connect_timeout_ms);
    if (!upstream.ok()) {
      connections_refused_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    auto link = std::make_unique<Link>();
    link->client = std::move(*accepted);
    link->upstream = std::move(*upstream);
    link->reset_budget.store(config_.reset_after_bytes,
                             std::memory_order_relaxed);
    // Short per-call deadlines so the pumps poll stop/mode promptly.
    (void)link->client.SetReadDeadline(config_.poll_ms);
    (void)link->upstream.SetReadDeadline(config_.poll_ms);
    Link* raw = link.get();
    link->to_upstream = std::thread(
        [this, raw] { PumpLoop(raw, /*client_to_upstream=*/true); });
    link->to_client = std::thread(
        [this, raw] { PumpLoop(raw, /*client_to_upstream=*/false); });
    {
      std::lock_guard<std::mutex> lock(links_mu_);
      links_.push_back(std::move(link));
    }
  }
}

void SocketFaultProxy::PumpLoop(Link* link, bool client_to_upstream) {
  net::Socket& from = client_to_upstream ? link->client : link->upstream;
  net::Socket& to = client_to_upstream ? link->upstream : link->client;
  while (!stop_.load(std::memory_order_acquire) &&
         !link->dead.load(std::memory_order_acquire)) {
    ProxyMode mode = this->mode();
    if (mode == ProxyMode::kRefuse) break;  // daemon "went down"
    if (mode == ProxyMode::kPartition) {
      // Black hole: read nothing, forward nothing. Bytes the peers send
      // pile up in kernel buffers exactly as on a partitioned path.
      net::SleepInterruptible(config_.poll_ms, &stop_);
      continue;
    }
    auto chunk = from.RecvSome(4096);
    if (!chunk.ok()) {
      if (chunk.status().code() == util::StatusCode::kUnavailable) {
        continue;  // poll deadline: check stop/mode and wait again
      }
      break;  // peer closed or error: tear down both directions
    }
    // Re-sample: the fault that governs these bytes is the mode at their
    // *arrival*, not the one sampled before blocking in RecvSome — a
    // harness that flips the mode and then sends must see the new fault
    // hit that very send (the pre-recv sample can be a full poll
    // interval stale).
    mode = this->mode();
    if (mode == ProxyMode::kRefuse) break;
    if (mode == ProxyMode::kPartition) {
      continue;  // arrived as the partition hit: lost in flight
    }
    std::string_view bytes = *chunk;
    if (mode == ProxyMode::kDelay) {
      if (!net::SleepInterruptible(config_.delay_ms, &stop_)) break;
    }
    if (mode == ProxyMode::kResetMidFrame && client_to_upstream) {
      std::size_t budget = link->reset_budget.load(std::memory_order_acquire);
      if (bytes.size() >= budget) {
        // Forward exactly the budget, then cut the connection inside
        // whatever frame those bytes belong to.
        if (budget > 0) {
          (void)to.SendAll(bytes.substr(0, budget));
          bytes_forwarded_.fetch_add(budget, std::memory_order_relaxed);
        }
        resets_injected_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      link->reset_budget.store(budget - bytes.size(),
                               std::memory_order_release);
    }
    if (mode == ProxyMode::kSlowDrip) {
      bool sent = true;
      for (std::size_t i = 0; i < bytes.size() && sent; ++i) {
        if (!net::SleepInterruptible(config_.drip_interval_ms, &stop_)) {
          sent = false;
          break;
        }
        sent = to.SendAll(bytes.substr(i, 1)).ok();
        if (sent) bytes_forwarded_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!sent) break;
      continue;
    }
    if (!to.SendAll(bytes).ok()) break;
    bytes_forwarded_.fetch_add(bytes.size(), std::memory_order_relaxed);
  }
  // First pump out marks the link dead and wakes the other side.
  link->dead.store(true, std::memory_order_release);
  link->client.Shutdown();
  link->upstream.Shutdown();
}

}  // namespace tipsy::scenario
