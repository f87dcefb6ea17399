// Loopback serving benchmark: shared declarations.
//
// The benchmark hosts a real net::Daemon over an ha::Replica (configured
// the way tipsyd configures it) and drives it over loopback with the
// repository's own clients. See README.md in this directory for the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cms/whatif.h"
#include "ha/replica.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "pipeline/aggregate.h"
#include "scenario/scenario.h"

namespace perfbench {

using namespace tipsy;
using Clock = std::chrono::steady_clock;

// A steady-clock time point in the nanoseconds obs::NowNanos() reads.
[[nodiscard]] inline std::uint64_t Nanos(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

[[nodiscard]] inline double MsBetween(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------- stats

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
// an empty one.
[[nodiscard]] double Quantile(std::vector<double> values, double q);

// A named sample of observations.
struct Sample {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  void Append(const Sample& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
  [[nodiscard]] std::size_t n() const { return values.size(); }
  [[nodiscard]] double P(double q) const { return Quantile(values, q); }
  [[nodiscard]] double Mean() const;
};

// One reported metric: value, unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};
using MetricMap = std::map<std::string, Metric>;

// ----------------------------------------------------- allocation counts

// Counting global operator new: active only on a thread between Begin and
// End (the traced run's wire-layer spans), so the count is exactly the
// allocations made by the calls inside the span.
void AllocCountBegin();
[[nodiscard]] std::uint64_t AllocCountEnd();

// ---------------------------------------------------------------- spans

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::uint64_t request_id = 0;
};

// Spans kept in memory for the whole traced run and written out at exit.
// Threads record into the log under a mutex (spans are recorded once per
// RPC, never per flow).
class SpanLog {
 public:
  [[nodiscard]] std::uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void Add(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  void AddAll(const std::vector<SpanRecord>& spans) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }
  // Writes the spans whose request has at least one child span (the
  // replayed sample) as JSON lines with each span's self time: its
  // duration minus the durations of its children.
  [[nodiscard]] bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// Times one call into a layer as a child span of `parent` (same request
// ID), recorded into the log when stopped.
class LayerTimer {
 public:
  LayerTimer(SpanLog* log, const SpanRecord& parent, const char* name)
      : log_(log), parent_(parent), name_(name),
        start_ns_(obs::NowNanos()) {}
  // Ends the span; returns its duration in nanoseconds.
  std::uint64_t Stop();

 private:
  SpanLog* log_;
  const SpanRecord& parent_;
  const char* name_;
  std::uint64_t start_ns_;
};

// --------------------------------------------------------------- inputs

// The generated traffic a run feeds the daemon: one vector of rows per
// hour, from scenario::Scenario at flow_target=6000 on the tiny topology.
struct World {
  World(std::uint64_t seed, int hour_count);
  std::unique_ptr<scenario::Scenario> scenario;
  std::vector<std::vector<pipeline::AggRow>> hours;
  [[nodiscard]] const wan::Wan& wan() const { return scenario->wan(); }
  [[nodiscard]] const geo::MetroCatalogue& metros() const {
    return scenario->metros();
  }
};

inline constexpr int kWindowDays = 14;

[[nodiscard]] ha::ReplicaConfig DaemonReplicaConfig(const std::string& dir,
                                                    const std::string& name);
[[nodiscard]] util::StatusOr<ha::Replica> OpenReplica(
    const World& world, const ha::ReplicaConfig& config);

[[nodiscard]] core::TipsyService::ShiftQueryFlow QueryOf(
    const pipeline::AggRow& row);

// ---------------------------------------------------------------- fleet

// Ingest-side observations from one lock-step feed.
struct FeedStats {
  Sample hour_ack_ms;      // ordinary hours
  Sample boundary_ack_ms;  // first hour of a day after day 0
  Sample ship_lag_ms;
  // Per acked hour, in feed order: rows and SendHour wall time.
  std::vector<double> hour_rows;
  std::vector<double> hour_ms;
  std::uint64_t hours = 0;
  std::uint64_t failed = 0;
  // Per hour fed: send start and ack time (the traced run's RPC spans and
  // the ingest_day model-epoch windows).
  std::vector<Clock::time_point> sent_at;
  std::vector<Clock::time_point> acked_at;
};

// One serving deployment on loopback: a primary replica behind a
// net::Daemon (window_days=14, fsync'd appends, compaction after
// day-boundary snapshots, default DaemonConfig), a standby replica tailing
// it through a ShippingClient, and the collector that feeds it.
class Fleet {
 public:
  explicit Fleet(const World& world, std::string dir);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Open + start + standby connected.
  [[nodiscard]] util::Status Start();
  // Sends hours [begin, end) lock-step with SendHour, timing each ack;
  // a watcher stamps when the standby covers each record.
  void Feed(int begin, int end, FeedStats& stats);
  // Waits (up to 10 s) for the standby to cover the feed and records the
  // ship lags; false when it did not catch up.
  [[nodiscard]] bool FinishFeed(FeedStats& stats);
  void StopShipping();
  void Stop();

  [[nodiscard]] net::Daemon& daemon() { return *daemon_; }
  [[nodiscard]] ha::Replica& primary() { return *primary_; }
  [[nodiscard]] ha::Replica& standby() { return *standby_; }
  [[nodiscard]] net::ClientConfig PredictConfig() const;
  [[nodiscard]] std::uint64_t client_reconnects() const;
  // Records the collector has had acked durable on this fleet.
  [[nodiscard]] std::uint64_t fed_records() const { return fed_records_; }
  // The value of a registry metric by full name (0 when absent).
  [[nodiscard]] double RegistryValue(const std::string& name) const;

 private:
  const World& world_;
  std::string dir_;
  obs::Registry registry_;
  std::optional<ha::Replica> primary_;
  std::optional<ha::Replica> standby_;
  obs::MetricGroup replica_metrics_;
  std::unique_ptr<net::Daemon> daemon_;
  std::unique_ptr<net::ShippingClient> shipper_;
  std::unique_ptr<net::CollectorClient> collector_;
  std::uint64_t fed_records_ = 0;
  // Ship-lag watcher state for the feed in progress.
  std::uint64_t watch_base_ = 0;
  std::vector<Clock::time_point> covered_;
  std::vector<Clock::time_point> acked_;
  std::atomic<bool> watch_stop_{false};
  std::atomic<std::uint64_t> watch_seen_{0};  // standby applied_seq seen
  std::thread watcher_;
};

// ------------------------------------------------------------ workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;   // replica files (created and removed)
  std::string outdir;    // report + span dump
};

// Per-phase request accounting.
struct PhaseCount {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

struct RunResult {
  MetricMap end_to_end;
  MetricMap per_layer;  // traced phase only
  std::map<std::string, PhaseCount> phases;  // "<phase>.<op>"
  std::vector<std::string> failures;         // why correct=false
  std::vector<std::string> notes;            // extra report lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Fleets whose daemon counters were checked against the clients'.
  std::uint64_t crosschecks = 0;
  void Fail(const std::string& why) { failures.push_back(why); }
};

// Runs one workload phase. With `traced`, RPCs are wrapped in spans, a
// deterministic sample is replayed layer by layer into `spans`, and the
// per-layer metrics are filled in.
void RunWorkload(const Options& options, const World& world, bool traced,
                 SpanLog* spans, RunResult& result);
[[nodiscard]] int WorldHours(const std::string& workload);

}  // namespace perfbench
