// Statistics, allocation counting, span log and generated inputs.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <unordered_map>

#include "perfbench.h"

// ----------------------------------------------------- allocation counts

namespace {
thread_local bool t_counting = false;
thread_local std::uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t size) {
  if (t_counting) ++t_allocs;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* CountedAllocNoThrow(std::size_t size) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
}  // namespace

// Every non-aligned form is replaced, so each allocation and its release
// go through the same malloc/free pair.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

void AllocCountBegin() {
  t_allocs = 0;
  t_counting = true;
}

std::uint64_t AllocCountEnd() {
  t_counting = false;
  return t_allocs;
}

// ---------------------------------------------------------------- stats

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sample::Mean() const {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------- spans

std::uint64_t LayerTimer::Stop() {
  SpanRecord span;
  span.name = name_;
  span.start_ns = start_ns_;
  span.end_ns = obs::NowNanos();
  span.id = log_->NextId();
  span.parent = parent_.id;
  span.request_id = parent_.request_id;
  log_->Add(span);
  return span.end_ns - span.start_ns;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  std::set<std::uint64_t> replayed;
  for (const auto& span : spans_) {
    if (span.parent == 0) continue;
    child_ns[span.parent] += span.end_ns - span.start_ns;
    replayed.insert(span.request_id);
  }
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& span : spans_) {
    if (replayed.count(span.request_id) == 0) continue;
    const std::uint64_t duration = span.end_ns - span.start_ns;
    const auto children = child_ns.find(span.id);
    const std::uint64_t covered =
        children == child_ns.end() ? 0 : children->second;
    out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent
        << ",\"request_id\":" << span.request_id
        << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns
        << ",\"self_ns\":" << (covered < duration ? duration - covered : 0)
        << "}\n";
  }
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- inputs

World::World(std::uint64_t seed, int hour_count) {
  // The topology and the flow set stay the daemon's default world
  // identity (tipsyd builds it from the default-seed tiny scenario), so
  // every seed feeds about the same volume (~3.7k rows per hour); the
  // seed drives the outage schedule and IPFIX sampling, and with them
  // which links carry which bytes.
  auto cfg = scenario::TinyScenarioConfig();
  cfg.traffic.flow_target = 6000;
  cfg.outages.seed = seed;
  cfg.ipfix.seed = seed + 1;
  cfg.horizon = util::HourRange{0, hour_count + util::kHoursPerDay};
  scenario = std::make_unique<scenario::Scenario>(cfg);
  hours.resize(static_cast<std::size_t>(hour_count));
  scenario->SimulateHours(
      {0, hour_count},
      [&](util::HourIndex hour, std::span<const pipeline::AggRow> rows) {
        hours[static_cast<std::size_t>(hour)].assign(rows.begin(),
                                                     rows.end());
      });
}

ha::ReplicaConfig DaemonReplicaConfig(const std::string& dir,
                                      const std::string& name) {
  ha::ReplicaConfig config;
  config.journal_path = dir + "/" + name + ".journal";
  config.snapshot_path = dir + "/" + name + ".snapshot";
  config.fsync_appends = true;
  config.snapshot_on_day_boundary = true;
  config.compact_after_snapshot = true;
  return config;
}

util::StatusOr<ha::Replica> OpenReplica(const World& world,
                                        const ha::ReplicaConfig& config) {
  return ha::Replica::Open(&world.wan(), &world.metros(), kWindowDays, {},
                           {}, config);
}

core::TipsyService::ShiftQueryFlow QueryOf(const pipeline::AggRow& row) {
  return {core::FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                             row.dest_region, row.dest_service},
          static_cast<double>(row.bytes)};
}

}  // namespace perfbench
