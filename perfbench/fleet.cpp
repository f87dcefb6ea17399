// The loopback deployment: primary daemon, shipping standby, collector.
#include <filesystem>

#include "perfbench.h"

namespace perfbench {

Fleet::Fleet(const World& world, std::string dir)
    : world_(world), dir_(std::move(dir)) {}

Fleet::~Fleet() {
  Stop();
  collector_.reset();
  shipper_.reset();
  daemon_.reset();
  replica_metrics_.clear();
  standby_.reset();
  primary_.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

util::Status Fleet::Start() {
  std::error_code error;
  std::filesystem::remove_all(dir_, error);
  std::filesystem::create_directories(dir_, error);
  if (error) return util::Status::IoError("cannot create " + dir_);

  auto primary = OpenReplica(world_, DaemonReplicaConfig(dir_, "primary"));
  if (!primary.ok()) return primary.status();
  primary_.emplace(*std::move(primary));
  replica_metrics_ = primary_->RegisterMetrics(registry_, "tipsyd_replica");
  daemon_ = std::make_unique<net::Daemon>(&*primary_, &registry_,
                                          net::DaemonConfig{});
  if (auto started = daemon_->Start(); !started.ok()) return started;

  auto standby = OpenReplica(world_, DaemonReplicaConfig(dir_, "standby"));
  if (!standby.ok()) return standby.status();
  standby_.emplace(*std::move(standby));
  net::ClientConfig ship_config;
  ship_config.port = daemon_->ship_port();
  shipper_ = std::make_unique<net::ShippingClient>(
      &*standby_, ship_config, &registry_, "perfbench_ship");
  shipper_->Start();
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (daemon_->ship_streams() == 0) {
    if (Clock::now() > deadline) {
      return util::Status::Unavailable("standby never connected");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  net::ClientConfig collector_config;
  collector_config.port = daemon_->ingest_port();
  collector_ = std::make_unique<net::CollectorClient>(
      collector_config, &registry_, "perfbench_collector");
  return util::Status::Ok();
}

void Fleet::Feed(int begin, int end, FeedStats& stats) {
  watch_base_ = fed_records_;
  const auto count = static_cast<std::size_t>(end - begin);
  covered_.assign(count, Clock::time_point{});
  acked_.assign(count, Clock::time_point{});

  // Polls the standby's applied_seq and stamps the moment each record of
  // this feed became covered.
  watch_stop_.store(false, std::memory_order_release);
  watch_seen_.store(watch_base_, std::memory_order_release);
  if (shipper_ != nullptr && shipper_->running()) {
    watcher_ = std::thread([this, count] {
      std::uint64_t seen = watch_base_;
      while (!watch_stop_.load(std::memory_order_acquire)) {
        const std::uint64_t applied = shipper_->applied_seq();
        if (applied > seen) {
          const auto now = Clock::now();
          for (std::uint64_t seq = seen; seq < applied; ++seq) {
            if (seq >= watch_base_ && seq - watch_base_ < count) {
              covered_[seq - watch_base_] = now;
            }
          }
          seen = applied;
          watch_seen_.store(seen, std::memory_order_release);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  for (int hour = begin; hour < end; ++hour) {
    const auto& rows = world_.hours[static_cast<std::size_t>(hour)];
    const auto t0 = Clock::now();
    const auto status = collector_->SendHour(hour, rows);
    const auto t1 = Clock::now();
    stats.sent_at.push_back(t0);
    stats.acked_at.push_back(t1);
    ++stats.hours;
    if (!status.ok()) {
      ++stats.failed;
      continue;
    }
    acked_[static_cast<std::size_t>(hour - begin)] = t1;
    ++fed_records_;
    stats.hour_rows.push_back(static_cast<double>(rows.size()));
    stats.hour_ms.push_back(MsBetween(t0, t1));
    const bool boundary = hour > 0 && hour % util::kHoursPerDay == 0;
    (boundary ? stats.boundary_ack_ms : stats.hour_ack_ms)
        .Add(MsBetween(t0, t1));
  }
}

bool Fleet::FinishFeed(FeedStats& stats) {
  if (!watcher_.joinable()) return true;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  bool caught_up = true;
  while (watch_seen_.load(std::memory_order_acquire) < fed_records_) {
    if (Clock::now() > deadline) {
      caught_up = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  watch_stop_.store(true, std::memory_order_release);
  watcher_.join();
  for (std::size_t i = 0; i < acked_.size(); ++i) {
    if (acked_[i] == Clock::time_point{}) continue;  // not acked: counted
    if (covered_[i] == Clock::time_point{}) {
      ++stats.failed;
      continue;
    }
    stats.ship_lag_ms.Add(std::max(0.0, MsBetween(acked_[i], covered_[i])));
  }
  return caught_up;
}

void Fleet::StopShipping() {
  if (shipper_ != nullptr) shipper_->Stop();
}

void Fleet::Stop() {
  if (watcher_.joinable()) {
    watch_stop_.store(true, std::memory_order_release);
    watcher_.join();
  }
  StopShipping();
  if (collector_ != nullptr) collector_->Disconnect();
  if (daemon_ != nullptr) daemon_->Stop();
}

net::ClientConfig Fleet::PredictConfig() const {
  net::ClientConfig config;
  config.port = daemon_->predict_port();
  return config;
}

std::uint64_t Fleet::client_reconnects() const {
  std::uint64_t total = 0;
  if (shipper_ != nullptr) total += shipper_->reconnects();
  if (collector_ != nullptr) total += collector_->reconnects();
  return total;
}

double Fleet::RegistryValue(const std::string& name) const {
  for (const auto& metric : registry_.Snapshot()) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

}  // namespace perfbench
