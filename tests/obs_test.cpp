// Observability layer: metrics primitives, registry/exporters, trace
// spans, concurrent scrape (the TSan target), and — the contract that
// matters for operators — parity between the legacy ad-hoc counters and
// their registry-served replacements through a degraded-mode scenario.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cms/cms.h"
#include "core/online.h"
#include "ha/replica.h"
#include "ha/supervisor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/fault_injection.h"
#include "scenario/scenario.h"
#include "topo/generator.h"
#include "util/parallel.h"

namespace tipsy {
namespace {

// ------------------------------------------------------------ primitives

TEST(ObsCounter, IncrementsFoldAndReset) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset(7);
  EXPECT_EQ(counter.value(), 7u);
  counter.Increment();
  EXPECT_EQ(counter.value(), 8u);
}

TEST(ObsCounter, CopyFoldsTheSource) {
  obs::Counter a;
  a.Increment(10);
  obs::Counter b(a);
  EXPECT_EQ(b.value(), 10u);
  b.Increment();
  EXPECT_EQ(b.value(), 11u);
  EXPECT_EQ(a.value(), 10u);  // independent after the copy
  a = b;
  EXPECT_EQ(a.value(), 11u);
}

TEST(ObsGauge, SetAndAdd) {
  obs::Gauge gauge;
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST(ObsHistogram, PlacesObservationsInBuckets) {
  obs::Histogram hist({0.1, 1.0, 10.0});
  hist.Observe(0.05);   // <= 0.1
  hist.Observe(0.1);    // boundary belongs to its bucket (le semantics)
  hist.Observe(0.5);    // <= 1.0
  hist.Observe(100.0);  // overflow (+Inf)
  const auto buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 100.65);
}

TEST(ObsHistogram, UnsortedBoundsAreSortedAndDeduped) {
  obs::Histogram hist({5.0, 1.0, 5.0});
  ASSERT_EQ(hist.bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(hist.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(hist.bounds()[1], 5.0);
}

TEST(ObsHistogram, CopyPreservesFoldedState) {
  obs::Histogram a({1.0});
  a.Observe(0.5);
  a.Observe(2.0);
  obs::Histogram b(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.sum(), 2.5);
  b.Observe(0.25);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_EQ(a.count(), 2u);
}

TEST(ObsScopedTimer, ObservesElapsedSeconds) {
  obs::Histogram hist;
  { obs::ScopedTimer timer(&hist); }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GE(hist.sum(), 0.0);
  { obs::ScopedTimer disabled(nullptr); }  // null histogram: no-op
  EXPECT_EQ(hist.count(), 1u);
}

// -------------------------------------------------------------- registry

TEST(ObsRegistry, SnapshotIsSortedAndTyped) {
  obs::Registry registry;
  obs::Counter counter;
  counter.Increment(3);
  obs::Histogram hist({1.0});
  hist.Observe(0.5);
  auto r1 = registry.RegisterCounter("b_total", "a counter", &counter);
  auto r2 = registry.RegisterGauge("a_gauge", "a gauge", [] { return 1.5; });
  auto r3 = registry.RegisterHistogram("c_hist", "a histogram", &hist);
  EXPECT_EQ(registry.size(), 3u);

  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "a_gauge");
  EXPECT_EQ(snapshot[0].type, obs::MetricType::kGauge);
  EXPECT_DOUBLE_EQ(snapshot[0].value, 1.5);
  EXPECT_EQ(snapshot[1].name, "b_total");
  EXPECT_EQ(snapshot[1].type, obs::MetricType::kCounter);
  EXPECT_DOUBLE_EQ(snapshot[1].value, 3.0);
  EXPECT_EQ(snapshot[2].name, "c_hist");
  EXPECT_EQ(snapshot[2].type, obs::MetricType::kHistogram);
  EXPECT_EQ(snapshot[2].count, 1u);
  ASSERT_EQ(snapshot[2].buckets.size(), 2u);
  EXPECT_EQ(snapshot[2].buckets[0], 1u);
}

TEST(ObsRegistry, RegistrationHandleUnregistersOnDestruction) {
  obs::Registry registry;
  obs::Counter counter;
  {
    auto handle = registry.RegisterCounter("x_total", "", &counter);
    EXPECT_EQ(registry.size(), 1u);
    // Moving the handle must not unregister.
    obs::Registration moved = std::move(handle);
    EXPECT_EQ(registry.size(), 1u);
  }
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ObsRegistry, PrometheusRendering) {
  obs::Registry registry;
  obs::Counter counter;
  counter.Increment(5);
  obs::Histogram hist({0.5, 1.0});
  hist.Observe(0.25);
  hist.Observe(0.75);
  hist.Observe(2.0);
  auto r1 = registry.RegisterCounter("tipsy_q_total", "queries", &counter);
  auto r2 =
      registry.RegisterHistogram("tipsy_lat_seconds", "latency", &hist);

  const std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("# HELP tipsy_q_total queries\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tipsy_q_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("tipsy_q_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tipsy_lat_seconds histogram\n"),
            std::string::npos);
  // Buckets are cumulative.
  EXPECT_NE(text.find("tipsy_lat_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tipsy_lat_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("tipsy_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("tipsy_lat_seconds_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("tipsy_lat_seconds_count 3\n"), std::string::npos);
}

TEST(ObsRegistry, JsonRenderingFollowsBenchConventions) {
  obs::Registry registry;
  obs::Counter counter;
  counter.Increment();
  auto r = registry.RegisterCounter("tipsy_x_total", "x", &counter);
  const std::string json = registry.RenderJsonText();
  // tools/check_bench_json.py accepts unknown BENCH artifacts that carry
  // a "bench" key and at least one non-empty list — the scrape follows
  // the same convention.
  EXPECT_NE(json.find("\"bench\": \"obs_scrape\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"tipsy_x_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 1"), std::string::npos);
}

// ----------------------------------------------------------------- spans

TEST(ObsTrace, SpansRecordDurationAndDepth) {
  obs::Tracer tracer(8);
  obs::Histogram hist;
  {
    obs::Span outer(&tracer, "outer", &hist);
    obs::Span inner(&tracer, "inner", nullptr);
  }
  const auto events = tracer.Recent();
  ASSERT_EQ(events.size(), 2u);
  // Spans record on close: inner first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_LE(events[0].duration_ns, events[1].duration_ns);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_NE(tracer.RenderJsonText().find("\"bench\": \"obs_trace\""),
            std::string::npos);
}

TEST(ObsTrace, RingKeepsTheNewestSpans) {
  obs::Tracer tracer(3);
  for (int i = 0; i < 5; ++i) {
    obs::Span span(&tracer, "s" + std::to_string(i), nullptr);
  }
  EXPECT_EQ(tracer.total_recorded(), 5u);
  const auto events = tracer.Recent();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "s2");  // oldest surviving
  EXPECT_EQ(events[2].name, "s4");
}

// ------------------------------------------------- concurrent scrape (TSan)

TEST(ObsConcurrency, WritersAndScrapersRace) {
  obs::Registry registry;
  obs::Counter counter;
  obs::Histogram hist({1e-6, 1e-3, 1.0});
  auto r1 = registry.RegisterCounter("tipsy_race_total", "", &counter);
  auto r2 = registry.RegisterHistogram("tipsy_race_seconds", "", &hist);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&counter, &hist] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter.Increment();
        hist.Observe(1e-4);
      }
    });
  }
  // A scraper folds the stripes while the writers hammer them.
  threads.emplace_back([&registry] {
    for (int i = 0; i < 50; ++i) {
      const auto text = registry.RenderPrometheusText();
      EXPECT_NE(text.find("tipsy_race_total"), std::string::npos);
    }
  });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(hist.count(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
}

// ------------------------------------------------ prediction-path wiring

core::FlowFeatures MakeFlow(std::uint32_t asn, std::uint32_t prefix_block,
                            std::uint32_t metro) {
  core::FlowFeatures flow;
  flow.src_asn = util::AsId{asn};
  flow.src_prefix24 =
      util::Ipv4Prefix(util::Ipv4Addr(prefix_block << 8), 24);
  flow.src_metro = util::MetroId{metro};
  flow.dest_region = util::RegionId{0};
  flow.dest_service = wan::ServiceType::kWeb;
  return flow;
}

pipeline::AggRow MakeRow(const core::FlowFeatures& flow, std::uint32_t link,
                         std::uint64_t bytes) {
  pipeline::AggRow row;
  row.link = util::LinkId{link};
  row.src_asn = flow.src_asn;
  row.src_prefix24 = flow.src_prefix24;
  row.src_metro = flow.src_metro;
  row.dest_region = flow.dest_region;
  row.dest_service = flow.dest_service;
  row.dest_prefix = util::PrefixId{1};
  row.bytes = bytes;
  return row;
}

struct ServiceFixture {
  ServiceFixture()
      : topology(topo::GenerateTinyTopology()),
        wan(topology.peering_links,
            topology.graph.node(topology.wan).presence, 8, 1),
        service(&wan, &topology.metros) {
    std::vector<pipeline::AggRow> rows;
    for (std::uint32_t f = 0; f < 12; ++f) {
      rows.push_back(MakeRow(MakeFlow(f % 3, f, f % 2),
                             f % static_cast<std::uint32_t>(wan.link_count()),
                             1000 + f));
    }
    service.Train(rows);
    service.FinalizeTraining();
  }

  topo::GeneratedTopology topology;
  wan::Wan wan;
  core::TipsyService service;
};

TEST(ObsServiceWiring, PredictShiftFeedsCountersAndRegistry) {
  ServiceFixture fixture;
  obs::Registry registry;
  const auto handles =
      fixture.service.RegisterMetrics(registry, "tipsy_service");

  std::vector<core::TipsyService::ShiftQueryFlow> flows;
  flows.push_back({MakeFlow(0, 0, 0), 100.0});
  flows.push_back({MakeFlow(1, 1, 1), 200.0});
  const core::ExclusionMask excluded(fixture.wan.link_count(), false);
  for (int i = 0; i < 20; ++i) {
    (void)fixture.service.PredictShift(flows, excluded);
  }

#ifdef TIPSY_NO_OBS
  // Compiled-out mode: the instrumentation must cost nothing and count
  // nothing — the metrics stay frozen at zero.
  EXPECT_EQ(fixture.service.predict_queries(), 0u);
  EXPECT_EQ(fixture.service.predict_flows(), 0u);
  EXPECT_EQ(fixture.service.predict_latency().count(), 0u);
#else
  EXPECT_EQ(fixture.service.predict_queries(), 20u);
  EXPECT_EQ(fixture.service.predict_flows(), 40u);
  // 1-in-64 sampling: of 20 queries only call 0 samples the clock.
  EXPECT_EQ(fixture.service.predict_latency().count(), 1u);
#endif

  // Accessors and the registry fold the same cells.
  const auto snapshot = registry.Snapshot();
  for (const auto& metric : snapshot) {
    if (metric.name == "tipsy_service_predict_queries_total") {
      EXPECT_DOUBLE_EQ(
          metric.value,
          static_cast<double>(fixture.service.predict_queries()));
    }
    if (metric.name == "tipsy_service_predict_flows_total") {
      EXPECT_DOUBLE_EQ(
          metric.value,
          static_cast<double>(fixture.service.predict_flows()));
    }
  }
  // The ensemble stage counters registered under sanitized names.
  EXPECT_NE(registry.RenderPrometheusText().find(
                "tipsy_service_ensemble_hist_ap_al_a_stage0_hits_total"),
            std::string::npos);
}

TEST(ObsServiceWiring, EnsembleStageHitsFollowLastStage) {
  ServiceFixture fixture;
  const auto* ensemble = dynamic_cast<const core::SequentialEnsemble*>(
      fixture.service.Find("Hist_AP/AL/A"));
  ASSERT_NE(ensemble, nullptr);

  const core::ExclusionMask excluded(fixture.wan.link_count(), false);
  // A flow the finest stage has seen answers at stage 0.
  (void)core::PredictTopK(*ensemble, MakeFlow(0, 0, 0), 3, &excluded);
  const int answered = ensemble->last_stage();
#ifdef TIPSY_NO_OBS
  EXPECT_EQ(ensemble->stage_hits(0), 0u);
  EXPECT_EQ(ensemble->miss_count(), 0u);
#else
  ASSERT_GE(answered, 0);
  EXPECT_EQ(ensemble->stage_hits(static_cast<std::size_t>(answered)), 1u);
  std::uint64_t total = ensemble->miss_count();
  for (std::size_t s = 0; s < ensemble->stage_count(); ++s) {
    total += ensemble->stage_hits(s);
  }
  EXPECT_EQ(total, 1u);
#endif
}

// ---------------------------------------- legacy-counter parity (satellite)
//
// The acceptance bar: migrating the ad-hoc counters onto the registry
// must not change a single value. Replays the PR 2 degraded-mode
// scenario (collector blackout ages the model FRESH -> STALE -> EXPIRED
// while the CMS health gate trips) and checks every legacy accessor
// against the registry snapshot.

double RegistryValue(const obs::Registry& registry, const std::string& name) {
  for (const auto& metric : registry.Snapshot()) {
    if (metric.name == name) return metric.value;
  }
  ADD_FAILURE() << "metric not registered: " << name;
  return -1.0;
}

TEST(ObsCounterParity, DegradedModeScenarioMatchesLegacyAccessors) {
  auto cfg = scenario::TinyScenarioConfig();
  cfg.traffic.flow_target = 200;
  cfg.horizon = util::HourRange{0, 9 * util::kHoursPerDay};
  scenario::Scenario world(cfg);

  scenario::FaultScheduleConfig faults;
  faults.collector_down = {
      util::HourRange{3 * util::kHoursPerDay, 6 * util::kHoursPerDay}};
  scenario::FaultInjectingRowSource source(world, faults);

  core::RetrainPolicy policy;
  policy.stale_after_days = 1;
  policy.expire_after_days = 2;
  core::DailyRetrainer retrainer(&world.wan(), &world.metros(), 3, {},
                                 policy);
  obs::Registry registry;
  const auto retrainer_handles =
      retrainer.RegisterMetrics(registry, "tipsy_retrainer");

  // The CMS gates on the retrainer's live health, exactly as an online
  // deployment wires it.
  core::TipsyService expired(&world.wan(), &world.metros());
  expired.FinalizeTraining();
  cms::CmsConfig cms_config;
  cms_config.health_provider = [&retrainer] { return retrainer.health(); };
  cms::CongestionMitigationSystem cms(&world, &expired, cms_config);
  const auto cms_handles = cms.RegisterMetrics(registry, "tipsy_cms");

  for (util::HourIndex day = 0; day < 9; ++day) {
    source.StreamHours(
        util::HourRange{day * util::kHoursPerDay,
                        (day + 1) * util::kHoursPerDay},
        [&](util::HourIndex hour, std::span<const pipeline::AggRow> rows) {
          retrainer.Ingest(hour, rows);
        });
    retrainer.AdvanceTo((day + 1) * util::kHoursPerDay - 1);
  }
  // Late replays arrive after the outage: dropped-and-counted.
  retrainer.Ingest(2, {});
  retrainer.Ingest(3, {});

  // Drive one congested hour against the (now FRESH again) gate, then
  // force an EXPIRED reading to trip the fallback path.
  const util::LinkId hot{0};
  std::vector<double> loads(world.wan().link_count(), 0.0);
  loads[hot.value()] = world.wan().link(hot).CapacityBytesPerHour() * 1.2;
  pipeline::AggRow row;
  row.link = hot;
  row.src_asn = util::AsId{100};
  row.src_prefix24 = util::Ipv4Prefix(util::Ipv4Addr(1, 1, 1, 0), 24);
  row.src_metro = util::MetroId{0};
  const auto& destination = world.wan().destination(0);
  row.dest_region = destination.region;
  row.dest_service = destination.service;
  row.dest_prefix = destination.prefix;
  row.bytes = static_cast<std::uint64_t>(loads[hot.value()]);
  cms_config.health_provider = [] { return core::ModelHealth::kExpired; };
  cms::CongestionMitigationSystem gated(&world, &expired, cms_config);
  const auto gated_handles = gated.RegisterMetrics(registry, "tipsy_gated");
  gated.ObserveHour(0, loads, std::vector<pipeline::AggRow>{row});
  ASSERT_FALSE(gated.events().empty());

  // The scenario exercised the counters (they are not trivially zero).
  const auto health = retrainer.health_snapshot();
  EXPECT_GE(health.missing_days, 2u);
  EXPECT_GE(health.retrain_failures, 1u);
  EXPECT_EQ(health.dropped_hours, 2u);
  EXPECT_GT(retrainer.retrain_count(), 0u);
  EXPECT_GT(retrainer.incremental_retrains(), 0u);
  EXPECT_EQ(gated.health_fallbacks(), 1u);

  // Parity: legacy accessor == health snapshot field == registry value.
  EXPECT_EQ(RegistryValue(registry, "tipsy_retrainer_retrain_total"),
            static_cast<double>(health.retrain_count));
  EXPECT_EQ(
      RegistryValue(registry, "tipsy_retrainer_retrain_failures_total"),
      static_cast<double>(health.retrain_failures));
  EXPECT_EQ(RegistryValue(registry, "tipsy_retrainer_dropped_hours_total"),
            static_cast<double>(health.dropped_hours));
  EXPECT_EQ(RegistryValue(registry, "tipsy_retrainer_missing_days_total"),
            static_cast<double>(health.missing_days));
  EXPECT_EQ(RegistryValue(registry, "tipsy_retrainer_partial_days_total"),
            static_cast<double>(health.partial_days));
  EXPECT_EQ(
      RegistryValue(registry, "tipsy_retrainer_incremental_retrains_total"),
      static_cast<double>(retrainer.incremental_retrains()));
  EXPECT_EQ(
      RegistryValue(registry, "tipsy_retrainer_incremental_rebuilds_total"),
      static_cast<double>(retrainer.incremental_rebuilds()));
  EXPECT_EQ(RegistryValue(registry, "tipsy_retrainer_consecutive_failures"),
            static_cast<double>(health.consecutive_failures));
  EXPECT_EQ(RegistryValue(registry, "tipsy_retrainer_buffered_days"),
            static_cast<double>(health.buffered_days));
  EXPECT_EQ(RegistryValue(registry, "tipsy_retrainer_model_health"),
            static_cast<double>(retrainer.health()));
  EXPECT_EQ(RegistryValue(registry, "tipsy_gated_health_fallbacks_total"),
            static_cast<double>(gated.health_fallbacks()));
  EXPECT_EQ(
      RegistryValue(registry, "tipsy_gated_unsafe_withdrawals_skipped_total"),
      static_cast<double>(gated.unsafe_withdrawals_skipped()));
  world.ResetAdvertisements();
}

TEST(ObsCounterParity, ReplicaDuplicateSkipAndJournalAppends) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "tipsy_obs_replica_parity";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto cfg = scenario::TinyScenarioConfig();
  cfg.traffic.flow_target = 150;
  scenario::Scenario world(cfg);

  ha::ReplicaConfig replica_config;
  replica_config.journal_path = (dir / "hours.journal").string();
  replica_config.snapshot_path = (dir / "state.snapshot").string();
  replica_config.fsync_appends = false;
  auto opened = ha::Replica::Open(&world.wan(), &world.metros(), 3, {}, {},
                                  replica_config);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ha::Replica replica = *std::move(opened);

  obs::Registry registry;
  const auto handles = replica.RegisterMetrics(registry, "tipsy_replica");

  std::vector<ha::JournalRecord> shipped;
  world.StreamHours(
      util::HourRange{0, 30},
      [&](util::HourIndex hour, std::span<const pipeline::AggRow> rows) {
        ASSERT_TRUE(replica.Ingest(hour, rows).ok());
        ha::JournalRecord record;
        record.seq = shipped.size();
        record.hour = hour;
        record.rows.assign(rows.begin(), rows.end());
        shipped.push_back(std::move(record));
      });
  ASSERT_TRUE(replica.SnapshotNow().ok());

  // Re-ship the whole stream: every record is already applied, so all of
  // them are duplicate-skipped.
  ASSERT_TRUE(replica.Replay(shipped).ok());
  EXPECT_EQ(replica.duplicate_records_skipped(), shipped.size());
  EXPECT_EQ(replica.journal().appends(), shipped.size());
  EXPECT_GT(replica.journal().append_bytes(), 0u);
  EXPECT_GE(replica.snapshots_taken(), 1u);

  EXPECT_EQ(
      RegistryValue(registry, "tipsy_replica_replay_duplicates_skipped_total"),
      static_cast<double>(replica.duplicate_records_skipped()));
  EXPECT_EQ(RegistryValue(registry, "tipsy_replica_journal_appends_total"),
            static_cast<double>(replica.journal().appends()));
  EXPECT_EQ(
      RegistryValue(registry, "tipsy_replica_journal_append_bytes_total"),
      static_cast<double>(replica.journal().append_bytes()));
  EXPECT_EQ(RegistryValue(registry, "tipsy_replica_snapshots_total"),
            static_cast<double>(replica.snapshots_taken()));
  EXPECT_EQ(RegistryValue(registry, "tipsy_replica_applied_seq"),
            static_cast<double>(replica.applied_seq()));

  // The retrainer metrics ride along under the replica's prefix.
  EXPECT_EQ(RegistryValue(registry, "tipsy_replica_retrain_total"),
            static_cast<double>(replica.retrainer().retrain_count()));
  std::filesystem::remove_all(dir);
}

TEST(ObsCounterParity, SupervisorStatsMatchRegistry) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "tipsy_obs_supervisor_parity";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto cfg = scenario::TinyScenarioConfig();
  cfg.traffic.flow_target = 150;
  scenario::Scenario world(cfg);

  auto open_replica = [&](const std::string& name) {
    ha::ReplicaConfig replica_config;
    replica_config.journal_path = (dir / (name + ".journal")).string();
    replica_config.snapshot_path = (dir / (name + ".snapshot")).string();
    replica_config.fsync_appends = false;
    return ha::Replica::Open(&world.wan(), &world.metros(), 3, {}, {},
                             replica_config);
  };
  auto primary = open_replica("primary");
  auto standby = open_replica("standby");
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(standby.ok());

  ha::Supervisor supervisor(&*primary, &*standby);
  obs::Registry registry;
  const auto handles =
      supervisor.RegisterMetrics(registry, "tipsy_supervisor");

  // Both replicas ingest two days; the primary then goes dark and the
  // supervisor fails over to the standby.
  world.StreamHours(
      util::HourRange{0, 2 * util::kHoursPerDay + 2},
      [&](util::HourIndex hour, std::span<const pipeline::AggRow> rows) {
        ASSERT_TRUE(primary->Ingest(hour, rows).ok());
        ASSERT_TRUE(standby->Ingest(hour, rows).ok());
        supervisor.ObserveHeartbeat(ha::ReplicaRole::kPrimary, hour);
        supervisor.ObserveHeartbeat(ha::ReplicaRole::kStandby, hour);
        supervisor.Tick(hour);
      });
  ASSERT_EQ(supervisor.serving(), ha::ServingSource::kPrimary);
  const util::HourIndex dark_start = 2 * util::kHoursPerDay + 2;
  for (util::HourIndex hour = dark_start; hour < dark_start + 6; ++hour) {
    ASSERT_TRUE(standby->Heartbeat(hour).ok());
    supervisor.ObserveHeartbeat(ha::ReplicaRole::kStandby, hour);
    supervisor.Tick(hour);
  }
  EXPECT_EQ(supervisor.serving(), ha::ServingSource::kStandby);

  const auto stats = supervisor.stats();
  EXPECT_GT(stats.heartbeats_observed, 0u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(
      RegistryValue(registry, "tipsy_supervisor_heartbeats_observed_total"),
      static_cast<double>(stats.heartbeats_observed));
  EXPECT_EQ(RegistryValue(registry, "tipsy_supervisor_failovers_total"),
            static_cast<double>(stats.failovers));
  EXPECT_EQ(RegistryValue(registry, "tipsy_supervisor_failbacks_total"),
            static_cast<double>(stats.failbacks));
  EXPECT_EQ(
      RegistryValue(registry, "tipsy_supervisor_promote_attempts_total"),
      static_cast<double>(stats.promote_attempts));
  EXPECT_EQ(
      RegistryValue(registry, "tipsy_supervisor_promote_failures_total"),
      static_cast<double>(stats.promote_failures));
  EXPECT_EQ(
      RegistryValue(registry, "tipsy_supervisor_unavailable_hours_total"),
      static_cast<double>(stats.unavailable_hours));
  EXPECT_EQ(
      RegistryValue(registry, "tipsy_supervisor_stale_served_hours_total"),
      static_cast<double>(stats.stale_served_hours));
  EXPECT_EQ(RegistryValue(registry, "tipsy_supervisor_serving_source"),
            static_cast<double>(supervisor.serving()));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------- thread-pool metrics

TEST(ObsPoolWiring, QueueDepthAndBatchCountersAreRegistrable) {
  util::ScopedPool scoped(4);
  util::ThreadPool& pool = scoped.pool();
  obs::Registry registry;
  auto r1 = registry.RegisterGauge(
      "tipsy_pool_queue_depth", "Fork-join batches queued",
      [&pool] { return static_cast<double>(pool.queue_depth()); });
  auto r2 = registry.RegisterGauge(
      "tipsy_pool_batches_run", "Fork-join batches executed",
      [&pool] { return static_cast<double>(pool.batches_run()); });

  const std::uint64_t before = pool.batches_run();
  pool.Run(8, [](std::size_t) {});
  EXPECT_EQ(pool.batches_run(), before + 1);
  EXPECT_GE(pool.chunks_run(), 8u);
  EXPECT_EQ(pool.queue_depth(), 0u);  // drained after the join
  EXPECT_EQ(RegistryValue(registry, "tipsy_pool_batches_run"),
            static_cast<double>(pool.batches_run()));
}

}  // namespace
}  // namespace tipsy
