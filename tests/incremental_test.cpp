// Incremental per-day-shard retraining (core/day_shard.h + the
// DailyRetrainer's window aggregate).
//
// The load-bearing property throughout is *bit-identity*: a retrainer
// maintaining mergeable day shards and refreshing the window by
// merge-newest / subtract-expired must serve, at every day boundary and
// after every ingest imperfection (duplicate re-delivery, out-of-order
// hours, day gaps, snapshot warm-start), exactly the model a from-scratch
// window rebuild serves - compared as core::SaveService bytes - and
// report exactly the same ServiceHealth.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "core/day_shard.h"
#include "core/online.h"
#include "core/serialize.h"
#include "core/tipsy_service.h"
#include "ha/snapshot.h"
#include "topo/generator.h"
#include "util/status.h"

namespace tipsy {
namespace {

// ---------------------------------------------------------------- fixtures

pipeline::AggRow MakeRow(std::uint32_t f, std::uint32_t link,
                         util::HourIndex hour, std::uint64_t bytes) {
  pipeline::AggRow row;
  row.link = util::LinkId{link};
  row.src_asn = util::AsId{100 + f};
  row.src_prefix24 = util::Ipv4Prefix(util::Ipv4Addr(f << 8), 24);
  row.src_metro = util::MetroId{f % 2};
  row.dest_region = util::RegionId{f % 3};
  row.dest_service =
      f % 2 == 0 ? wan::ServiceType::kWeb : wan::ServiceType::kStorage;
  row.dest_prefix = util::PrefixId{1 + f % 3};
  row.bytes = bytes;
  row.hour = hour;
  return row;
}

std::string ServiceBytes(const core::TipsyService* service) {
  if (service == nullptr) return {};
  std::ostringstream out;
  core::SaveService(*service, out);
  return out.str();
}

struct IncrementalFixture {
  IncrementalFixture()
      : topology(topo::GenerateTinyTopology()),
        wan(topology.peering_links,
            topology.graph.node(topology.wan).presence, 8, 1) {}

  // A small but non-trivial hour: several tuples, link choice rotating
  // with the hour so day shards genuinely differ from each other.
  [[nodiscard]] std::vector<pipeline::AggRow> HourRows(
      util::HourIndex hour) const {
    std::vector<pipeline::AggRow> rows;
    const auto links = static_cast<std::uint32_t>(wan.link_count());
    for (std::uint32_t f = 0; f < 5; ++f) {
      rows.push_back(MakeRow(f, (f + static_cast<std::uint32_t>(hour)) % links,
                             hour, 500 + 13 * f + 7 * hour));
    }
    return rows;
  }

  [[nodiscard]] core::DailyRetrainer MakeRetrainer(
      int window_days, bool incremental,
      core::TipsyConfig config = {}) const {
    core::RetrainPolicy policy;
    policy.incremental_retrain = incremental;
    return core::DailyRetrainer(&wan, &topology.metros, window_days, config,
                                policy);
  }

  [[nodiscard]] core::DailyRetrainer MakeRetrainer(
      int window_days, core::RetrainPolicy policy) const {
    return core::DailyRetrainer(&wan, &topology.metros, window_days, {},
                                policy);
  }

  topo::GeneratedTopology topology;
  wan::Wan wan;
};

// Drives an incremental and a full-rebuild retrainer through the same
// event stream, asserting bit-identical serving + health after every
// event. Events: ingest of HourRows(hour), or a bare heartbeat.
struct Event {
  util::HourIndex hour = 0;
  bool heartbeat = false;
};

void RunLockstep(const IncrementalFixture& fixture, int window_days,
                 const std::vector<Event>& events) {
  auto incremental = fixture.MakeRetrainer(window_days, true);
  auto full = fixture.MakeRetrainer(window_days, false);
  ASSERT_TRUE(incremental.incremental_enabled());
  ASSERT_FALSE(full.incremental_enabled());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    if (event.heartbeat) {
      incremental.AdvanceTo(event.hour);
      full.AdvanceTo(event.hour);
    } else {
      const auto rows = fixture.HourRows(event.hour);
      incremental.Ingest(event.hour, rows);
      full.Ingest(event.hour, rows);
    }
    ASSERT_EQ(ServiceBytes(incremental.current()),
              ServiceBytes(full.current()))
        << "diverged after event " << i << " (hour " << event.hour << ")";
    ASSERT_EQ(incremental.health_snapshot(), full.health_snapshot())
        << "health diverged after event " << i;
  }
  // Every successful retrain of the incremental retrainer took the
  // incremental path, and the window aggregate never had to self-heal.
  EXPECT_EQ(incremental.incremental_retrains(), incremental.retrain_count());
  EXPECT_EQ(incremental.incremental_rebuilds(), 0u);
  EXPECT_GT(incremental.retrain_count(), 0u);
}

std::vector<Event> InOrderHours(util::HourIndex begin, util::HourIndex end) {
  std::vector<Event> events;
  for (util::HourIndex h = begin; h < end; ++h) events.push_back({h, false});
  return events;
}

// --------------------------------------------------- count table algebra

TEST(TupleCountTable, MergeMatchesSerialAdd) {
  IncrementalFixture fixture;
  core::TupleCountTable serial(core::FeatureSet::kAP);
  core::TupleCountTable first(core::FeatureSet::kAP);
  core::TupleCountTable second(core::FeatureSet::kAP);
  for (util::HourIndex h = 0; h < 48; ++h) {
    for (const auto& row : fixture.HourRows(h)) {
      serial.Add(row);
      (h < 24 ? first : second).Add(row);
    }
  }
  core::TupleCountTable merged = first;
  merged.Merge(second);
  EXPECT_TRUE(merged.SameCounts(serial));
  // Merge appends links in first-seen order, exactly like the serial
  // pass, so even the exported link order is identical.
  const auto a = merged.Export();
  const auto b = serial.Export();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].total_bytes, b[i].total_bytes);
    ASSERT_EQ(a[i].links.size(), b[i].links.size());
    for (std::size_t j = 0; j < a[i].links.size(); ++j) {
      EXPECT_EQ(a[i].links[j].link, b[i].links[j].link);
      EXPECT_EQ(a[i].links[j].bytes, b[i].links[j].bytes);
    }
  }
}

TEST(TupleCountTable, SubtractInvertsMergeAndErasesZeros) {
  IncrementalFixture fixture;
  core::TupleCountTable day1(core::FeatureSet::kAL);
  core::TupleCountTable day2(core::FeatureSet::kAL);
  for (util::HourIndex h = 0; h < 24; ++h) {
    for (const auto& row : fixture.HourRows(h)) day1.Add(row);
  }
  for (util::HourIndex h = 24; h < 48; ++h) {
    for (const auto& row : fixture.HourRows(h)) day2.Add(row);
  }
  core::TupleCountTable window = day1;
  window.Merge(day2);
  ASSERT_TRUE(window.Subtract(day1).ok());
  // Exactly day2 remains: every day1-only link and tuple hit 0.0 and was
  // erased, none of day2's mass was touched.
  EXPECT_TRUE(window.SameCounts(day2));
  EXPECT_EQ(window.tuple_count(), day2.tuple_count());
}

TEST(TupleCountTable, SubtractingUnknownMassIsTypedAndNonDestructive) {
  IncrementalFixture fixture;
  core::TupleCountTable table(core::FeatureSet::kA);
  for (const auto& row : fixture.HourRows(3)) table.Add(row);
  const auto before = table.Export();

  // A tuple this table never saw.
  core::TupleCountTable foreign(core::FeatureSet::kA);
  foreign.Add(MakeRow(99, 0, 3, 1000));
  const auto unknown = table.Subtract(foreign);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.code(), util::StatusCode::kInvalidArgument);

  // A known tuple with more byte mass than the table holds (underflow).
  core::TupleCountTable doubled(core::FeatureSet::kA);
  for (const auto& row : fixture.HourRows(3)) {
    doubled.Add(row);
    doubled.Add(row);
  }
  const auto underflow = table.Subtract(doubled);
  ASSERT_FALSE(underflow.ok());
  EXPECT_EQ(underflow.code(), util::StatusCode::kInvalidArgument);

  // Both failures validated before mutating: the table is untouched.
  const auto after = table.Export();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].key, before[i].key);
    EXPECT_EQ(after[i].total_bytes, before[i].total_bytes);
  }
}

TEST(TupleCountTable, ExportRoundTrips) {
  IncrementalFixture fixture;
  core::TupleCountTable table(core::FeatureSet::kAP);
  for (util::HourIndex h = 0; h < 24; ++h) {
    for (const auto& row : fixture.HourRows(h)) table.Add(row);
  }
  const auto restored = core::TupleCountTable::FromExport(
      core::FeatureSet::kAP, true, table.Export());
  EXPECT_TRUE(restored.SameCounts(table));
  EXPECT_EQ(restored.tuple_count(), table.tuple_count());
}

TEST(DayShard, BuildMatchesIncrementalAddRows) {
  IncrementalFixture fixture;
  core::DayShard incremental;
  incremental.day = 0;
  std::vector<pipeline::AggRow> all;
  for (util::HourIndex h = 0; h < 24; ++h) {
    const auto rows = fixture.HourRows(h);
    incremental.AddRows(rows);
    all.insert(all.end(), rows.begin(), rows.end());
  }
  const auto built = core::DayShard::Build(0, all);
  EXPECT_EQ(built.row_count, incremental.row_count);
  EXPECT_TRUE(built.tables.a.SameCounts(incremental.tables.a));
  EXPECT_TRUE(built.tables.ap.SameCounts(incremental.tables.ap));
  EXPECT_TRUE(built.tables.al.SameCounts(incremental.tables.al));
}

// ------------------------------------------- retrainer window edge cases

TEST(IncrementalRetrain, BitIdenticalAtEveryBoundaryThroughWindowTurnover) {
  IncrementalFixture fixture;
  // 10 days through a 3-day window: the ring fills, then turns over seven
  // times, exercising merge-newest + subtract-expired on most boundaries.
  RunLockstep(fixture, /*window_days=*/3, InOrderHours(0, 240));
}

TEST(IncrementalRetrain, ColdStartWindowShorterThanHorizon) {
  IncrementalFixture fixture;
  // Only 4 days into a 21-day window: every boundary merges, nothing has
  // expired yet, and the early-window models must still match.
  RunLockstep(fixture, /*window_days=*/21, InOrderHours(0, 96));
}

TEST(IncrementalRetrain, DuplicateHourRedeliveryStaysIdentical) {
  IncrementalFixture fixture;
  // A journal replay that overlaps the live stream re-delivers hours at
  // the ingest clock; the retrainer accepts them (not behind the clock),
  // so both paths must double-count identically.
  std::vector<Event> events;
  for (util::HourIndex h = 0; h < 72; ++h) {
    events.push_back({h, false});
    if (h % 10 == 9) events.push_back({h, false});  // duplicate delivery
  }
  RunLockstep(fixture, /*window_days=*/3, events);
}

TEST(IncrementalRetrain, OutOfOrderAndGappedDaysStayIdentical) {
  IncrementalFixture fixture;
  std::vector<Event> events;
  for (util::HourIndex h = 0; h < 48; ++h) events.push_back({h, false});
  events.push_back({20, false});   // late replay from day 0: dropped
  for (util::HourIndex h = 96; h < 120; ++h) {
    events.push_back({h, false});  // days 2-3 never arrive (collector gap)
  }
  events.push_back({50, false});   // late replay from the gap: dropped
  events.push_back({130, true});   // heartbeat crosses a boundary, no data
  for (util::HourIndex h = 144; h < 192; ++h) events.push_back({h, false});
  RunLockstep(fixture, /*window_days=*/3, events);
}

TEST(IncrementalRetrain, NaiveBayesConfigFallsBackToFullRebuild) {
  IncrementalFixture fixture;
  core::TipsyConfig config;
  config.train_naive_bayes = true;
  auto retrainer = fixture.MakeRetrainer(/*window_days=*/3, true, config);
  // Naive Bayes is trained from the buffered rows only; the policy flag
  // must not put a NB-configured retrainer on the incremental path.
  EXPECT_FALSE(retrainer.incremental_enabled());
  for (util::HourIndex h = 0; h < 72; ++h) {
    retrainer.Ingest(h, fixture.HourRows(h));
  }
  EXPECT_NE(retrainer.current(), nullptr);
  EXPECT_GT(retrainer.retrain_count(), 0u);
  EXPECT_EQ(retrainer.incremental_retrains(), 0u);
}

// ------------------------------------------------- snapshot warm starts

// Runs `hours` of in-order ingest and returns the retrainer's state.
core::RetrainerState TrainedState(const IncrementalFixture& fixture,
                                  core::DailyRetrainer& retrainer,
                                  util::HourIndex hours) {
  for (util::HourIndex h = 0; h < hours; ++h) {
    retrainer.Ingest(h, fixture.HourRows(h));
  }
  return retrainer.ExportState();
}

TEST(IncrementalSnapshot, V2RoundTripsDayShardsExactly) {
  IncrementalFixture fixture;
  auto retrainer = fixture.MakeRetrainer(/*window_days=*/3, true);
  ha::SnapshotState state;
  // 100 hours: mid-day handoff, so the newest day's shard is unfolded.
  state.retrainer = TrainedState(fixture, retrainer, 100);
  state.applied_seq = 100;

  const std::string bytes = ha::EncodeSnapshot(state);
  auto decoded = ha::DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->retrainer.days.size(), state.retrainer.days.size());
  for (std::size_t i = 0; i < state.retrainer.days.size(); ++i) {
    const auto& original = state.retrainer.days[i];
    const auto& restored = decoded->retrainer.days[i];
    EXPECT_EQ(restored.shard_row_count, original.rows.size());
    ASSERT_EQ(restored.shard_ap.size(), original.shard_ap.size());
    for (std::size_t t = 0; t < original.shard_ap.size(); ++t) {
      EXPECT_EQ(restored.shard_ap[t].key, original.shard_ap[t].key);
      EXPECT_EQ(restored.shard_ap[t].total_bytes,
                original.shard_ap[t].total_bytes);
      ASSERT_EQ(restored.shard_ap[t].links.size(),
                original.shard_ap[t].links.size());
      for (std::size_t l = 0; l < original.shard_ap[t].links.size(); ++l) {
        EXPECT_EQ(restored.shard_ap[t].links[l].link,
                  original.shard_ap[t].links[l].link);
        EXPECT_EQ(restored.shard_ap[t].links[l].bytes,
                  original.shard_ap[t].links[l].bytes);
      }
    }
  }
  // Re-encoding the decoded state reproduces the snapshot byte for byte.
  EXPECT_EQ(ha::EncodeSnapshot(*decoded), bytes);
}

// Warm-starts a fresh retrainer from `bytes` and runs it lockstep against
// the uninterrupted original for two more days of ingest.
void ContinueBitIdentically(const IncrementalFixture& fixture,
                            core::DailyRetrainer& original,
                            const std::string& bytes,
                            util::HourIndex resume_hour) {
  auto decoded = ha::DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto restored = fixture.MakeRetrainer(/*window_days=*/3, true);
  ASSERT_TRUE(restored.RestoreState(decoded->retrainer).ok());
  ASSERT_EQ(ServiceBytes(restored.current()),
            ServiceBytes(original.current()));
  for (util::HourIndex h = resume_hour; h < resume_hour + 48; ++h) {
    const auto rows = fixture.HourRows(h);
    original.Ingest(h, rows);
    restored.Ingest(h, rows);
    ASSERT_EQ(ServiceBytes(restored.current()),
              ServiceBytes(original.current()))
        << "diverged at hour " << h;
    ASSERT_EQ(restored.health_snapshot(), original.health_snapshot());
  }
  // The warm-started replica is on the incremental path, not silently
  // re-aggregating the window each boundary.
  EXPECT_TRUE(restored.incremental_enabled());
  EXPECT_GT(restored.incremental_retrains(), 0u);
  EXPECT_EQ(restored.incremental_rebuilds(), 0u);
}

TEST(IncrementalSnapshot, WarmStartContinuesIncrementally) {
  IncrementalFixture fixture;
  auto original = fixture.MakeRetrainer(/*window_days=*/3, true);
  ha::SnapshotState state;
  state.retrainer = TrainedState(fixture, original, 100);
  ContinueBitIdentically(fixture, original, ha::EncodeSnapshot(state), 100);
}

TEST(IncrementalSnapshot, V1SnapshotRebuildsShardsBitIdentically) {
  IncrementalFixture fixture;
  auto original = fixture.MakeRetrainer(/*window_days=*/3, true);
  ha::SnapshotState state;
  state.retrainer = TrainedState(fixture, original, 100);
  // A v1 snapshot (pre-shard format) carries rows only; restore rebuilds
  // every day shard from them and the replica continues incrementally,
  // bit-identical to the exporter.
  const std::string v1 = ha::EncodeSnapshot(state, /*format_version=*/1);
  auto decoded = ha::DecodeSnapshot(v1);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (const auto& day : decoded->retrainer.days) {
    EXPECT_EQ(day.shard_row_count, 0u);
    EXPECT_TRUE(day.shard_a.empty());
    EXPECT_TRUE(day.shard_ap.empty());
    EXPECT_TRUE(day.shard_al.empty());
  }
  ContinueBitIdentically(fixture, original, v1, 100);
}

TEST(IncrementalSnapshot, HostileShardLengthsAreRejectedWithoutAllocating) {
  IncrementalFixture fixture;
  auto retrainer = fixture.MakeRetrainer(/*window_days=*/3, true);
  ha::SnapshotState state;
  state.retrainer = TrainedState(fixture, retrainer, 30);
  const std::string bytes = ha::EncodeSnapshot(state);
  ASSERT_TRUE(ha::DecodeSnapshot(bytes).ok());
  // Truncating inside the shard section must be caught (the CRC no longer
  // matches the shortened payload) - typed, not a crash or a bad alloc.
  for (std::size_t cut = 1; cut <= 64; cut += 7) {
    auto truncated = ha::DecodeSnapshot(bytes.substr(0, bytes.size() - cut));
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status().code(), util::StatusCode::kTruncated);
  }
}

// ------------------------------------------- decayed window aggregate

core::RetrainPolicy DecayPolicy(double half_life_days) {
  core::RetrainPolicy policy;
  policy.incremental_retrain = true;
  policy.decay_half_life_days = half_life_days;
  return policy;
}

// The canonical fold the decayed aggregate is DEFINED to equal
// (core/online.h): days ascending, bring the aggregate to the incoming
// day's decay generation before merging, final decay to now_day's
// generation, with now_day's own rows overlaid unfolded. Floor-halving
// is not distributive over merge, so this fold order IS the reference -
// the retrainer must reproduce it from incremental state at every
// boundary. All days ever ingested participate: decay mode never
// subtracts, expired day buffers only fall off the ring.
std::string DecayReference(
    const IncrementalFixture& fixture,
    const std::map<util::HourIndex, std::vector<pipeline::AggRow>>& days,
    util::HourIndex now_day, double half_life_days) {
  const auto half_life_hours =
      std::max<std::int64_t>(1, std::llround(half_life_days * 24.0));
  const auto generation = [&](util::HourIndex day) {
    return static_cast<std::int64_t>(day) * 24 / half_life_hours;
  };
  core::ShardTables window;
  std::int64_t folded_generation = 0;
  core::ShardTables overlay_tables;
  const core::ShardTables* overlay = nullptr;
  for (const auto& [day, rows] : days) {
    if (day < now_day) {
      window.Decay(static_cast<int>(generation(day) - folded_generation));
      folded_generation = generation(day);
      window.Merge(core::DayShard::Build(day, rows).tables);
    } else if (day == now_day) {
      overlay_tables = core::DayShard::Build(day, rows).tables;
      overlay = &overlay_tables;
    }
  }
  window.Decay(
      static_cast<int>(generation(now_day) - folded_generation));
  const auto service = core::TipsyService::FromWindowCounts(
      &fixture.wan, &fixture.topology.metros, core::TipsyConfig{}, window,
      overlay);
  return ServiceBytes(service.get());
}

// Streams `hours` of in-order ingest through a decayed retrainer,
// checking every published model against the canonical fold. Publishes
// are detected by retrain_count(): the cadence is day-granular
// (a mid-day explicit retrain consumes the day, so the next boundary is
// a deliberate no-op), so the checks key off actual publishes rather
// than assuming one per boundary. A publish inside Ingest(h) ran before
// hour h's rows were buffered, with the ingest clock still on the
// previous hour; an explicit TryRetrain after Ingest(h) sees hour h.
void RunDecayLockstep(const IncrementalFixture& fixture, int window_days,
                      double half_life_days, util::HourIndex hours) {
  auto retrainer =
      fixture.MakeRetrainer(window_days, DecayPolicy(half_life_days));
  ASSERT_TRUE(retrainer.decay_enabled());
  std::map<util::HourIndex, std::vector<pipeline::AggRow>> all_days;
  std::uint64_t published = 0;
  std::size_t publishes_checked = 0;
  for (util::HourIndex h = 0; h < hours; ++h) {
    const auto rows = fixture.HourRows(h);
    retrainer.Ingest(h, rows);
    if (retrainer.retrain_count() != published) {
      published = retrainer.retrain_count();
      ++publishes_checked;
      ASSERT_EQ(ServiceBytes(retrainer.current()),
                DecayReference(fixture, all_days, util::DayIndex(h - 1),
                               half_life_days))
          << "diverged from the canonical fold at hour " << h;
    }
    auto& day_rows = all_days[util::DayIndex(h)];
    day_rows.insert(day_rows.end(), rows.begin(), rows.end());
    if (util::DayIndex(h) % 3 == 1 && h % util::kHoursPerDay == 11) {
      // Mid-day explicit retrain: today's partial rows (hour h included,
      // the open slot folds at retrain entry) ride as overlay. NoData is
      // legitimate when an hourly retry already consumed today's data
      // and no half-life boundary has passed since.
      const std::string before = ServiceBytes(retrainer.current());
      const auto status = retrainer.TryRetrain();
      if (status.ok()) {
        published = retrainer.retrain_count();
        ++publishes_checked;
        ASSERT_EQ(ServiceBytes(retrainer.current()),
                  DecayReference(fixture, all_days, util::DayIndex(h),
                                 half_life_days))
            << "mid-day overlay diverged at hour " << h;
      } else {
        ASSERT_EQ(status.code(), util::StatusCode::kNoData)
            << "hour " << h << ": " << status.ToString();
        ASSERT_EQ(ServiceBytes(retrainer.current()), before);
      }
    }
  }
  EXPECT_GT(publishes_checked, 4u);
  EXPECT_EQ(retrainer.incremental_rebuilds(), 0u);
}

TEST(DecayedRetrain, MatchesCanonicalFoldAtEveryBoundary) {
  IncrementalFixture fixture;
  // 10 days, half-life 2 days, 3-day ring: several halving boundaries
  // and several ring turnovers (whose decayed residue must persist).
  RunDecayLockstep(fixture, /*window_days=*/3, /*half_life_days=*/2.0,
                   /*hours=*/240);
}

TEST(DecayedRetrain, SubDayHalfLifeHalvesMultiplePerBoundary) {
  IncrementalFixture fixture;
  // Half-life 6 hours: every day boundary advances four generations, so
  // each fold step applies multiple exact halvings at once.
  RunDecayLockstep(fixture, /*window_days=*/3, /*half_life_days=*/0.25,
                   /*hours=*/120);
}

TEST(DecayedRetrain, HalvingBoundaryAloneRefreshesTheModel) {
  IncrementalFixture fixture;
  auto retrainer =
      fixture.MakeRetrainer(/*window_days=*/3, DecayPolicy(1.0));
  for (util::HourIndex h = 0; h < 49; ++h) {
    retrainer.Ingest(h, fixture.HourRows(h));
  }
  // Catch up through the newest (partial) day, then verify idempotence:
  // same data, same decay generation, nothing to rebuild.
  ASSERT_TRUE(retrainer.TryRetrain().ok());
  const std::string before = ServiceBytes(retrainer.current());
  ASSERT_EQ(retrainer.TryRetrain().code(), util::StatusCode::kNoData);
  EXPECT_EQ(ServiceBytes(retrainer.current()), before);
  // Two days of heartbeat-only clock progress cross two half-life
  // boundaries: with no new data at all, a retrain must still publish -
  // the aggregate halves, which IS a model change.
  retrainer.AdvanceTo(97);
  ASSERT_TRUE(retrainer.TryRetrain().ok());
  EXPECT_NE(ServiceBytes(retrainer.current()), before);
}

// ---------------------------------------------------- drift detection

core::RetrainPolicy DriftPolicy(bool incremental) {
  core::RetrainPolicy policy;
  policy.incremental_retrain = incremental;
  policy.drift_detection = true;
  policy.drift_warmup_hours = 4;
  policy.drift_window_hours = 2;
  policy.drift_baseline_hours = 24;
  policy.drift_accuracy_drop = 0.2;
  policy.drift_distribution_threshold = 0.3;
  policy.drift_consecutive_hours = 2;
  policy.drift_cooldown_hours = 4;
  policy.drift_min_hour_flows = 1;
  return policy;
}

// A stationary regime: the same tuples on the same links with the same
// byte mix every hour, so a model trained on it scores top-1 accuracy 1
// and the hourly link shares never move.
std::vector<pipeline::AggRow> StableRows(util::HourIndex hour) {
  std::vector<pipeline::AggRow> rows;
  for (std::uint32_t f = 0; f < 5; ++f) {
    rows.push_back(MakeRow(f, f % 4, hour, 1000 + 100 * f));
  }
  return rows;
}

// The regime after a shift: the same tuples ingress entirely different
// links with a rebalanced byte mix, so both drift signals (top-1
// accuracy collapse, link-share TV distance) fire.
std::vector<pipeline::AggRow> ShiftedRows(const IncrementalFixture& fixture,
                                          util::HourIndex hour) {
  const auto links = static_cast<std::uint32_t>(fixture.wan.link_count());
  std::vector<pipeline::AggRow> rows;
  for (std::uint32_t f = 0; f < 5; ++f) {
    rows.push_back(MakeRow(f, (f % 4 + 4) % links, hour, 5000 - 700 * f));
  }
  return rows;
}

TEST(DriftDetection, CollectorOutageNeverFires) {
  IncrementalFixture fixture;
  auto retrainer = fixture.MakeRetrainer(/*window_days=*/3,
                                         DriftPolicy(/*incremental=*/true));
  ASSERT_TRUE(retrainer.drift_enabled());
  // Three stationary days: the baseline forms, nothing arms.
  for (util::HourIndex h = 0; h < 72; ++h) {
    retrainer.Ingest(h, StableRows(h));
  }
  ASSERT_EQ(retrainer.drift_state(), core::DriftState::kStable);
  ASSERT_EQ(retrainer.drift_events(), 0u);
  // The first heartbeat completes (and scores) the final fed hour;
  // every silent hour after that must leave the scored count alone.
  retrainer.AdvanceTo(72);
  const std::uint64_t scored_before =
      retrainer.ExportState().drift.hours_scored;
  ASSERT_GT(scored_before, 0u);

  // Three days of total collector darkness: heartbeats advance the
  // clock (the model ages toward STALE honestly) but empty hours are
  // skipped entirely - an outage is not evidence the traffic shifted,
  // and a detector scoring silence as 0% accuracy would page on every
  // feed interruption.
  for (util::HourIndex h = 73; h < 144; ++h) {
    retrainer.AdvanceTo(h);
  }
  EXPECT_EQ(retrainer.drift_state(), core::DriftState::kStable);
  EXPECT_EQ(retrainer.drift_events(), 0u);
  EXPECT_EQ(retrainer.ExportState().drift.hours_scored, scored_before);

  // The feed returns with the same regime: still no drift.
  for (util::HourIndex h = 144; h < 168; ++h) {
    retrainer.Ingest(h, StableRows(h));
  }
  EXPECT_EQ(retrainer.drift_state(), core::DriftState::kStable);
  EXPECT_EQ(retrainer.drift_events(), 0u);
}

TEST(DriftDetection, RegimeShiftTriggersEarlyRetrainAndLockstepHolds) {
  IncrementalFixture fixture;
  // The incremental and full-rebuild retrainers run the same drift
  // policy through the same shift; serving and health (including the
  // drift dimension) must stay bit-identical through the trigger, the
  // shrink-window early retrain, and the cooldown.
  auto incremental = fixture.MakeRetrainer(/*window_days=*/6,
                                           DriftPolicy(true));
  auto full = fixture.MakeRetrainer(/*window_days=*/6, DriftPolicy(false));
  const auto step = [&](util::HourIndex hour,
                        const std::vector<pipeline::AggRow>& rows) {
    incremental.Ingest(hour, rows);
    full.Ingest(hour, rows);
    ASSERT_EQ(ServiceBytes(incremental.current()),
              ServiceBytes(full.current()))
        << "diverged at hour " << hour;
    ASSERT_EQ(incremental.health_snapshot(), full.health_snapshot())
        << "health diverged at hour " << hour;
  };
  for (util::HourIndex h = 0; h < 72; ++h) step(h, StableRows(h));
  ASSERT_EQ(incremental.drift_state(), core::DriftState::kStable);
  ASSERT_EQ(incremental.drift_events(), 0u);

  // Mid-day regime shift: every flow relocates. Accuracy collapses and
  // the link shares move, so the armed streak completes within hours.
  for (util::HourIndex h = 72; h < 96; ++h) {
    step(h, ShiftedRows(fixture, h));
  }
  EXPECT_GE(incremental.drift_events(), 1u);
  EXPECT_GE(incremental.drift_early_retrains(), 1u);
  EXPECT_EQ(incremental.drift_events(), full.drift_events());
  EXPECT_EQ(incremental.drift_early_retrains(),
            full.drift_early_retrains());
  // The health surface carries the dimension the CMS gate consumes.
  const auto health = incremental.health_snapshot();
  EXPECT_GE(health.drift_events, 1u);
}

// ------------------------------------------------- published status

double GaugeValue(const obs::Registry& registry, const std::string& name) {
  for (const auto& metric : registry.Snapshot()) {
    if (metric.name == name) return metric.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -999.0;
}

// health() and drift_state() are loads of the status the retrainer
// publishes as the last step of every mutation, and the registry's
// derived gauges read values published alongside it. After every public
// mutator - a regime shift that fires drift, a dropped hour, failed
// retrains while the model ages to EXPIRED, forced retrains, a restore
// and a move - both must equal the writer-side fold of the internals.
TEST(PublishedStatus, MatchesWriterSideFoldAfterEveryMutation) {
  IncrementalFixture fixture;
  auto retrainer = fixture.MakeRetrainer(/*window_days=*/6, DriftPolicy(true));
  obs::Registry registry;
  const obs::MetricGroup handles = retrainer.RegisterMetrics(registry, "r");
  std::set<core::ModelHealth> healths;
  std::set<core::DriftState> drift_states;
  const auto check = [&](const std::string& where) {
    const core::ServiceHealth fold = retrainer.health_snapshot();
    EXPECT_EQ(retrainer.serving_status(),
              (core::ServingStatus{fold.health, fold.drift_state}))
        << where;
    EXPECT_EQ(retrainer.health(), fold.health) << where;
    EXPECT_EQ(retrainer.drift_state(), fold.drift_state) << where;
    EXPECT_EQ(GaugeValue(registry, "r_model_health"),
              static_cast<double>(fold.health)) << where;
    EXPECT_EQ(GaugeValue(registry, "r_drift_state"),
              static_cast<double>(fold.drift_state)) << where;
    EXPECT_EQ(GaugeValue(registry, "r_model_age_days"),
              static_cast<double>(fold.model_age_days)) << where;
    EXPECT_EQ(GaugeValue(registry, "r_buffered_days"),
              static_cast<double>(fold.buffered_days)) << where;
    EXPECT_EQ(GaugeValue(registry, "r_consecutive_failures"),
              static_cast<double>(fold.consecutive_failures)) << where;
    EXPECT_EQ(GaugeValue(registry, "r_drift_recent_accuracy"),
              fold.drift_recent_accuracy) << where;
    EXPECT_EQ(GaugeValue(registry, "r_drift_baseline_accuracy"),
              fold.drift_baseline_accuracy) << where;
    EXPECT_EQ(GaugeValue(registry, "r_drift_distribution_distance"),
              fold.drift_distribution_distance) << where;
    healths.insert(fold.health);
    drift_states.insert(fold.drift_state);
  };
  check("constructed");
  util::HourIndex hour = 0;
  for (; hour < 72; ++hour) {
    retrainer.Ingest(hour, StableRows(hour));
    check("stable hour " + std::to_string(hour));
  }
  for (; hour < 96; ++hour) {
    retrainer.Ingest(hour, ShiftedRows(fixture, hour));
    check("shifted hour " + std::to_string(hour));
  }
  retrainer.Ingest(10, StableRows(10));  // behind the clock: dropped
  check("dropped hour");

  // Every retrain fails while the collector is dark: the last-good model
  // ages through STALE to EXPIRED.
  retrainer.SetRetrainFault([](util::HourIndex) { return true; });
  for (; hour < 96 + 10 * util::kHoursPerDay; hour += 6) {
    retrainer.AdvanceTo(hour);
    check("heartbeat " + std::to_string(hour));
  }
  EXPECT_FALSE(retrainer.TryRetrain().ok());
  check("failed TryRetrain");
  retrainer.SetRetrainFault(nullptr);
  retrainer.Ingest(hour, StableRows(hour));
  check("feed back");
  (void)retrainer.Retrain();
  check("Retrain");

  EXPECT_TRUE(healths.count(core::ModelHealth::kNone));
  EXPECT_TRUE(healths.count(core::ModelHealth::kFresh));
  EXPECT_TRUE(healths.count(core::ModelHealth::kStale));
  EXPECT_TRUE(healths.count(core::ModelHealth::kExpired));
  EXPECT_TRUE(drift_states.count(core::DriftState::kDrifting));

  // A restore publishes the restored status; a move carries it along.
  auto restored = fixture.MakeRetrainer(/*window_days=*/6, DriftPolicy(true));
  EXPECT_EQ(restored.health(), core::ModelHealth::kNone);
  ASSERT_TRUE(restored.RestoreState(retrainer.ExportState()).ok());
  EXPECT_EQ(restored.serving_status(), retrainer.serving_status());
  const core::DailyRetrainer moved = std::move(restored);
  EXPECT_EQ(moved.serving_status(), retrainer.serving_status());
  EXPECT_EQ(moved.health_snapshot(), retrainer.health_snapshot());
}

// ------------------------------------- decay + drift snapshot round trip

TEST(DecayedSnapshot, V3RoundTripsDecayAndDriftExactly) {
  IncrementalFixture fixture;
  auto policy = DriftPolicy(/*incremental=*/true);
  policy.decay_half_life_days = 1.5;
  auto retrainer = fixture.MakeRetrainer(/*window_days=*/3, policy);
  ha::SnapshotState state;
  // 100 hours: mid-day handoff with a seeded drift detector and a
  // decayed aggregate mid-generation.
  state.retrainer = TrainedState(fixture, retrainer, 100);
  ASSERT_TRUE(state.retrainer.has_drift);
  ASSERT_GT(state.retrainer.drift.hours_scored, 0u);

  const std::string bytes = ha::EncodeSnapshot(state);
  auto decoded = ha::DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The decayed aggregate and the detector's EWMAs survive exactly -
  // doubles travel as raw IEEE-754 bits, counts as exact integers - so
  // re-encoding the decoded state reproduces the snapshot byte for byte.
  EXPECT_EQ(decoded->retrainer.decay_generation,
            state.retrainer.decay_generation);
  EXPECT_EQ(decoded->retrainer.drift.hours_scored,
            state.retrainer.drift.hours_scored);
  EXPECT_EQ(ha::EncodeSnapshot(*decoded), bytes);
}

TEST(DecayedSnapshot, WarmStartContinuesBitIdentically) {
  IncrementalFixture fixture;
  auto policy = DriftPolicy(/*incremental=*/true);
  policy.decay_half_life_days = 1.5;
  auto original = fixture.MakeRetrainer(/*window_days=*/3, policy);
  ha::SnapshotState state;
  state.retrainer = TrainedState(fixture, original, 100);

  auto decoded = ha::DecodeSnapshot(ha::EncodeSnapshot(state));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto restored = fixture.MakeRetrainer(/*window_days=*/3, policy);
  ASSERT_TRUE(restored.RestoreState(decoded->retrainer).ok());
  ASSERT_EQ(ServiceBytes(restored.current()),
            ServiceBytes(original.current()));
  // Two more days, crossing half-life generations and day boundaries:
  // the replica restored from the v3 snapshot evolves bit-identically,
  // decayed counts, drift EWMAs and all.
  for (util::HourIndex h = 100; h < 148; ++h) {
    const auto rows = fixture.HourRows(h);
    original.Ingest(h, rows);
    restored.Ingest(h, rows);
    ASSERT_EQ(ServiceBytes(restored.current()),
              ServiceBytes(original.current()))
        << "diverged at hour " << h;
    ASSERT_EQ(restored.health_snapshot(), original.health_snapshot())
        << "health diverged at hour " << h;
  }
  EXPECT_GT(restored.incremental_retrains(), 0u);
  EXPECT_EQ(restored.incremental_rebuilds(), 0u);
}

}  // namespace
}  // namespace tipsy
