// Online operation: daily retraining over a rolling window (§4), with the
// fault tolerance a prediction service feeding a CMS needs.
//
// "We designed TIPSY to run online as a prediction service and to retrain
// its models daily" - with a 21-day training window (Appendix B.1) and a
// 7-day validity horizon (Appendix B.2). DailyRetrainer buffers the
// aggregated rows of recent days and rebuilds the model suite whenever a
// simulated day completes, dropping days that have aged out.
//
// Operationally the input stream is imperfect: collectors crash (hours or
// whole days of rows never arrive), deliveries arrive out of order, and a
// retrain job can fail outright. The retrainer therefore:
//  * keeps serving the last successfully trained model when a retrain
//    fails or a day has no data (last-good fallback), retrying a failed
//    day-boundary retrain a bounded number of times on subsequent hours;
//  * drops-and-counts hours that arrive behind the ingest clock (the
//    contract is monotone non-decreasing HourIndex; late deliveries are
//    telemetry replays we must not fold into the wrong day);
//  * tracks model health against the paper's validity horizon: FRESH
//    while retrains keep up, STALE once the model is trained on data
//    older than `stale_after_days`, EXPIRED past `expire_after_days`
//    (Appendix B.2's 7 days) - the signal the CMS uses to refuse
//    prediction-gated mitigation (§2's conservative behaviour);
//  * retrains incrementally (RetrainPolicy::incremental_retrain): each
//    buffered day carries a mergeable count shard (core/day_shard.h) and
//    a scheduled retrain merges the newest day into a rolling window
//    aggregate and subtracts the expired day, instead of re-aggregating
//    all ~21 days of rows - bit-identical to the from-scratch rebuild,
//    including across snapshot/restore.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "core/day_shard.h"
#include "core/drift.h"
#include "core/tipsy_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/sim_time.h"
#include "util/status.h"

namespace tipsy::core {

// Health of the currently served model relative to the ingest clock.
enum class ModelHealth : std::uint8_t {
  kNone = 0,   // nothing trained yet
  kFresh,      // trained on data up to the previous day (normal operation)
  kStale,      // missed at least one daily retrain; still within horizon
  kExpired,    // past the validity horizon - do not gate actions on it
};

[[nodiscard]] constexpr const char* ModelHealthName(ModelHealth health) {
  switch (health) {
    case ModelHealth::kNone: return "NONE";
    case ModelHealth::kFresh: return "FRESH";
    case ModelHealth::kStale: return "STALE";
    case ModelHealth::kExpired: return "EXPIRED";
  }
  return "UNKNOWN";
}

struct RetrainPolicy {
  // Model age (days between the newest trained data day and the current
  // ingest day) thresholds. Age 1 is steady state.
  int stale_after_days = 1;   // age > this => STALE
  int expire_after_days = 7;  // age > this => EXPIRED (Appendix B.2)
  // A failed day-boundary retrain is retried on subsequent ingest hours
  // at most this many times before waiting for the next boundary.
  int max_retrain_retries = 3;
  // A completed day with fewer distinct ingest hours than this is counted
  // as partial in ServiceHealth (collector lost part of the day).
  int min_hours_per_day = 20;
  // Incremental retraining: maintain mergeable per-day count shards
  // (core/day_shard.h) and refresh the window aggregate by merging the
  // newest day and subtracting the expired one, instead of re-aggregating
  // every buffered row on each retrain. Bit-identical to the from-scratch
  // path (integer-valued counts, deterministic ranking); automatically
  // disabled when Naive Bayes training is requested, which always
  // retrains from the buffered rows.
  bool incremental_retrain = true;
  // Exponentially-decayed counts as an alternative to the hard window:
  // when > 0, retrains weight history by integer floor-halving
  // (TupleCountTable::Decay) on a day-granular staircase - every
  // `decay_half_life_days` of ingest-clock progress halves all older
  // counts (half-lives under one day apply multiple halvings per day
  // boundary). Counts stay integer-valued, so snapshots and restores
  // remain bit-exact, and the incrementally maintained aggregate equals a
  // from-scratch canonical fold (days ascending, decay-then-merge) over
  // the same day shards. Requires the incremental path (ignored when
  // incremental_retrain is off or Naive Bayes training is requested);
  // window_days then only bounds how many raw day buffers are retained.
  double decay_half_life_days = 0.0;
  // Online drift detection (core/drift.h): score each ingested hour's
  // rows against the served model and compare per-link byte shares
  // against a rolling baseline; a sustained accuracy drop or
  // distribution shift triggers an early retrain (optionally over a
  // shrunken window) and surfaces as ServiceHealth::drift_state for the
  // CMS gate. Off by default: scoring costs one top-1 prediction per
  // sampled row at ingest time.
  bool drift_detection = false;
  int drift_window_hours = 6;          // fast accuracy EWMA half-life
  int drift_baseline_hours = 48;       // slow baseline EWMA half-life
  double drift_accuracy_drop = 0.15;   // baseline - recent gap to arm
  double drift_distribution_threshold = 0.25;  // TV distance to arm
  int drift_consecutive_hours = 3;     // armed hours in a row to trigger
  int drift_cooldown_hours = 6;        // DRIFTING hold after a trigger
  int drift_warmup_hours = 24;         // scored hours before arming
  std::size_t drift_min_hour_flows = 8;   // skip thinner hours entirely
  std::size_t drift_sample_flows = 512;   // accuracy sample cap per hour
  // Early retrains triggered by drift rebuild from only the newest this
  // many days (0 = full window) on the hard-window path; the decay path
  // always rebuilds with its normal weighting.
  int drift_shrink_window_days = 7;
};

// What the predict plane stamps on every response. The retrainer
// publishes both fields together, so one load never pairs one
// mutation's health with another's drift state.
struct ServingStatus {
  ModelHealth health = ModelHealth::kNone;
  DriftState drift_state = DriftState::kStable;

  friend bool operator==(const ServingStatus&,
                         const ServingStatus&) = default;
};

// Snapshot of the serving plane's condition; cheap to copy.
struct ServiceHealth {
  ModelHealth health = ModelHealth::kNone;
  // Day of the newest data in the served model; min() when none.
  util::HourIndex trained_through_day =
      std::numeric_limits<util::HourIndex>::min();
  // Age of the served model in days relative to the ingest clock.
  int model_age_days = 0;
  util::HourIndex last_ingest_hour =
      std::numeric_limits<util::HourIndex>::min();
  std::size_t buffered_days = 0;
  std::size_t retrain_count = 0;
  std::size_t retrain_failures = 0;     // total failed attempts
  std::size_t consecutive_failures = 0; // since the last success
  std::size_t dropped_hours = 0;        // out-of-order deliveries dropped
  std::size_t missing_days = 0;         // day gaps in the ingest stream
  std::size_t partial_days = 0;         // completed days with missing hours
  // Drift dimension (core/drift.h); kStable with zero counters when
  // drift detection is off.
  DriftState drift_state = DriftState::kStable;
  double drift_recent_accuracy = -1.0;    // < 0 before the first score
  double drift_baseline_accuracy = -1.0;  // < 0 before the first score
  double drift_distribution_distance = 0.0;
  std::size_t drift_events = 0;         // triggers fired
  std::size_t drift_early_retrains = 0; // early retrains answered

  friend bool operator==(const ServiceHealth&,
                         const ServiceHealth&) = default;
};

// Plain-data mirror of a DailyRetrainer's complete serving state: the
// ingest clock, the buffered day window (rows verbatim, in arrival
// order), every health counter, and the last-good model serialized
// through core::SaveService. The HA layer (src/ha/snapshot) checkpoints
// this struct so a replica can warm-start and then continue
// bit-identically to the retrainer that exported it.
struct RetrainerState {
  struct Day {
    util::HourIndex day = 0;
    int hours_seen = 0;
    util::HourIndex last_hour = std::numeric_limits<util::HourIndex>::min();
    std::vector<pipeline::AggRow> rows;
    // The day's partial count tables (core/day_shard.h), so a restored
    // replica resumes the incremental retraining path without
    // re-aggregating the window. Empty (with shard_row_count != rows
    // count) when the exporter was not maintaining shards; Restore then
    // rebuilds them from `rows`, bit-identically.
    std::uint64_t shard_row_count = 0;
    std::vector<TupleCountTable::ExportEntry> shard_a;
    std::vector<TupleCountTable::ExportEntry> shard_ap;
    std::vector<TupleCountTable::ExportEntry> shard_al;
  };
  std::vector<Day> days;
  util::HourIndex last_observed_hour =
      std::numeric_limits<util::HourIndex>::min();
  util::HourIndex last_day = std::numeric_limits<util::HourIndex>::min();
  util::HourIndex trained_through_day =
      std::numeric_limits<util::HourIndex>::min();
  std::uint64_t retrain_count = 0;
  std::uint64_t retrain_failures = 0;
  std::uint64_t consecutive_failures = 0;
  std::uint64_t dropped_hours = 0;
  std::uint64_t missing_days = 0;
  std::uint64_t partial_days = 0;
  int pending_retries = 0;
  // Decay mode (RetrainPolicy::decay_half_life_days): the decayed window
  // aggregate itself, since it cannot be rebuilt from the retained day
  // buffers (trimmed days' residue still contributes). Empty with
  // decay_folded_through_day at min() outside decay mode.
  std::int64_t decay_generation = 0;
  util::HourIndex decay_folded_through_day =
      std::numeric_limits<util::HourIndex>::min();
  std::vector<TupleCountTable::ExportEntry> decay_a;
  std::vector<TupleCountTable::ExportEntry> decay_ap;
  std::vector<TupleCountTable::ExportEntry> decay_al;
  // Drift detector state + counters (meaningful when has_drift).
  bool has_drift = false;
  DriftDetectorState drift;
  std::uint64_t drift_events = 0;
  std::uint64_t drift_early_retrains = 0;
  // core::SaveService bytes of the last-good model; empty when nothing
  // has been trained yet.
  std::string model_bundle;
};

// Epoch-based publication point between the retrainer and the serving
// threads (RCU-flavored). The retrainer builds the next model suite
// entirely off-path - aggregation, ranking, flat-table build - and
// Publish() makes it visible with one atomic shared-ptr store; readers
// Acquire() a borrowed snapshot per query batch and keep predicting on
// it even while the next epoch is being built or published. Neither side
// ever blocks the other, and the PredictShift hot path itself takes no
// lock of any kind: the only synchronization is the pointer swap at the
// batch boundary. Old epochs are reclaimed by shared_ptr refcounting
// once the last in-flight batch drops its snapshot.
class ModelEpoch {
 public:
  ModelEpoch() = default;
  ModelEpoch(const ModelEpoch&) = delete;
  ModelEpoch& operator=(const ModelEpoch&) = delete;

  // Makes `service` the current epoch. nullptr is allowed (serving not
  // yet trained); the epoch counter still advances.
  void Publish(std::shared_ptr<const TipsyService> service) {
    current_.store(std::move(service), std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  // The current epoch's service (nullptr before the first publish).
  // Callers hold the returned snapshot for the duration of a query
  // batch, not per flow - one refcount bump amortized over the batch.
  [[nodiscard]] std::shared_ptr<const TipsyService> Acquire() const {
    return current_.load(std::memory_order_acquire);
  }

  // Number of publishes so far; readers can compare across batches to
  // detect a model swap.
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  // Swap observability: the epoch gauge plus whether a model is loaded.
  [[nodiscard]] obs::MetricGroup RegisterMetrics(
      obs::Registry& registry, const std::string& prefix) const {
    obs::MetricGroup group;
    group.push_back(registry.RegisterGauge(
        prefix + "_model_epoch", "Model publishes since process start",
        [this] { return static_cast<double>(epoch()); }));
    group.push_back(registry.RegisterGauge(
        prefix + "_model_loaded",
        "1 when an epoch holds a trained service, 0 before the first "
        "publish",
        [this] { return Acquire() != nullptr ? 1.0 : 0.0; }));
    return group;
  }

 private:
  std::atomic<std::shared_ptr<const TipsyService>> current_;
  std::atomic<std::uint64_t> epoch_{0};
};

class DailyRetrainer {
 public:
  DailyRetrainer(const wan::Wan* wan, const geo::MetroCatalogue* metros,
                 int window_days = 21, TipsyConfig config = {},
                 RetrainPolicy policy = {});

  // Feed the hour's aggregated rows. The contract is monotone
  // non-decreasing hours: an hour behind the ingest clock is dropped and
  // counted in ServiceHealth::dropped_hours (late telemetry replays must
  // not be folded into the wrong day). When a new day begins, the service
  // is retrained on the trailing window automatically; if that retrain
  // fails, the last-good model keeps serving and the retrain is retried
  // on following hours (bounded by RetrainPolicy::max_retrain_retries).
  void Ingest(util::HourIndex hour, std::span<const pipeline::AggRow> rows);

  // Advances the ingest clock without data - the serving loop's heartbeat
  // while collectors are down. Crossing a day boundary still triggers the
  // retrain attempt (over whatever the window holds), and model health
  // keeps aging, so an outage degrades FRESH -> STALE -> EXPIRED instead
  // of freezing time. Called implicitly by Ingest.
  void AdvanceTo(util::HourIndex hour);

  // The latest successfully trained service; nullptr until the first full
  // day has been ingested. Stable between retrains; on retrain failure
  // the previous (last-good) service keeps being returned.
  [[nodiscard]] const TipsyService* current() const {
    return current_.get();
  }
  // Shared ownership of the same service, for callers that outlive a
  // retrain (epoch publication, snapshot writers).
  [[nodiscard]] std::shared_ptr<const TipsyService> current_shared() const {
    return current_;
  }

  // Attaches an epoch publication point: the current service (possibly
  // nullptr) is published immediately, and every later successful
  // retrain or restore publishes its fresh service. The retrainer itself
  // is still single-writer - concurrent readers go through the epoch and
  // the published status (serving_status(), health(), drift_state()),
  // never through the other accessors. Pass nullptr to detach.
  void PublishTo(ModelEpoch* epoch) {
    epoch_ = epoch;
    if (epoch_ != nullptr) epoch_->Publish(current_);
  }

  // Force a retrain on whatever is buffered (e.g. at end of stream).
  // Returns the serving model - the fresh one on success, the last-good
  // one on failure (see TryRetrain).
  const TipsyService* Retrain();
  // Same, with the failure reason: kNoData when the window holds no rows,
  // kUnavailable when a training fault was injected (SetRetrainFault).
  [[nodiscard]] util::Status TryRetrain();

  // --- Health.
  // The serving status as of the end of the latest mutation: Ingest,
  // AdvanceTo, TryRetrain/Retrain, RestoreState and the constructor each
  // publish it last, so these are plain atomic loads that any thread may
  // call while the writer works (a predict stamping its response must
  // not wait behind a day-boundary retrain). A retrain publishes its
  // model to the attached ModelEpoch before the status that describes
  // it: a reader that loads the status first and then acquires the
  // epoch never pairs a health with an older model than it describes.
  [[nodiscard]] ServingStatus serving_status() const {
    return status_.Load();
  }
  [[nodiscard]] ModelHealth health() const { return status_.Load().health; }
  // Every health field, folded from the retrainer's internals: call it
  // from the writer's thread (or while no mutation is in flight).
  [[nodiscard]] ServiceHealth health_snapshot() const;

  // --- Snapshot/restore (HA warm-start).
  // Captures the complete serving state; Restore on a freshly constructed
  // retrainer (same wan/metros/window/config/policy) reproduces it
  // exactly, after which ingest, retrains and health evolve
  // bit-identically to the exporter. Only the production configuration is
  // supported: Naive Bayes tables are not part of the persisted bundle
  // (they are an evaluation baseline, not a serving model).
  [[nodiscard]] RetrainerState ExportState() const;
  // Replaces this retrainer's entire state. The last-good model is
  // rebuilt from state.model_bundle and validated first (typed
  // kCorrupt/kTruncated on damage); on any failure the retrainer is left
  // untouched.
  [[nodiscard]] util::Status RestoreState(const RetrainerState& state);

  // Fault injection for tests and the degradation harness: when set and
  // returning true for a day index, the retrain attempt at that boundary
  // fails with kUnavailable (a crashed training job).
  void SetRetrainFault(std::function<bool(util::HourIndex day)> fault) {
    retrain_fault_ = std::move(fault);
  }

  // Optional trace sink: every retrain records a "retrain_incremental" /
  // "retrain_full" span into it (no-op under TIPSY_NO_OBS). Borrowed; must
  // outlive the retrainer.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Registers the retrainer's health counters, the retrain-duration
  // histogram and derived gauges (model age, health, buffered days) under
  // `prefix` (e.g. "tipsy_retrainer"). Every gauge reads a value the
  // retrainer published at the end of its latest mutation, so a scrape
  // may run on any thread. The gauge callbacks capture `this`: drop the
  // handles before the retrainer is destroyed.
  [[nodiscard]] obs::MetricGroup RegisterMetrics(obs::Registry& registry,
                                                 const std::string& prefix)
      const;

  [[nodiscard]] int window_days() const { return window_days_; }
  [[nodiscard]] std::size_t buffered_days() const { return days_.size(); }
  [[nodiscard]] std::size_t retrain_count() const {
    return static_cast<std::size_t>(retrain_count_.value());
  }
  [[nodiscard]] const obs::Histogram& retrain_duration() const {
    return retrain_duration_;
  }

  // The WAN the models are trained against (link capacities for the
  // what-if plane; borrowed, set at construction).
  [[nodiscard]] const wan::Wan* wan() const { return wan_; }

  // --- Drift (RetrainPolicy::drift_detection).
  [[nodiscard]] bool drift_enabled() const {
    return policy_.drift_detection;
  }
  // kStable when drift detection is off - safe to wire into the CMS
  // drift gate unconditionally. A published load, like health().
  [[nodiscard]] DriftState drift_state() const {
    return status_.Load().drift_state;
  }
  [[nodiscard]] std::size_t drift_events() const {
    return static_cast<std::size_t>(drift_events_.value());
  }
  [[nodiscard]] std::size_t drift_early_retrains() const {
    return static_cast<std::size_t>(drift_early_retrains_.value());
  }

  // --- Incremental retraining diagnostics (not part of ServiceHealth:
  // the two retrain paths are bit-identical in everything they serve, and
  // these counters are the only place they may differ).
  // Whether retrains maintain the per-day shard ring + window aggregate.
  [[nodiscard]] bool incremental_enabled() const {
    return policy_.incremental_retrain && !config_.train_naive_bayes;
  }
  // Whether the window aggregate is exponentially decayed instead of
  // hard-trimmed (requires the incremental path).
  [[nodiscard]] bool decay_enabled() const {
    return policy_.decay_half_life_days > 0.0 && incremental_enabled();
  }
  [[nodiscard]] std::size_t incremental_retrains() const {
    return static_cast<std::size_t>(incremental_retrains_.value());
  }
  // Times the window aggregate had to be rebuilt by re-merging every
  // buffered day's shard (a failed subtract; never expected in practice).
  [[nodiscard]] std::size_t incremental_rebuilds() const {
    return static_cast<std::size_t>(incremental_rebuilds_.value());
  }

 private:
  struct DayBuffer {
    util::HourIndex day = 0;
    std::vector<pipeline::AggRow> rows;
    int hours_seen = 0;
    util::HourIndex last_hour = std::numeric_limits<util::HourIndex>::min();
    // Incremental path only: the day's mergeable partial counts, and
    // whether they have been folded into the window aggregate.
    DayShard shard;
    bool folded = false;
  };

  // Copyable atomic cell for the published status: the retrainer is
  // moved into ha::Replica, and std::atomic is neither copyable nor
  // movable. Release store, acquire load (see health()).
  class StatusCell {
   public:
    StatusCell() = default;
    StatusCell(const StatusCell& other) : value_(other.Load()) {}
    StatusCell& operator=(const StatusCell& other) {
      if (this != &other) Store(other.Load());
      return *this;
    }
    void Store(ServingStatus status) {
      value_.store(status, std::memory_order_release);
    }
    [[nodiscard]] ServingStatus Load() const {
      return value_.load(std::memory_order_acquire);
    }

   private:
    static_assert(std::atomic<ServingStatus>::is_always_lock_free);
    std::atomic<ServingStatus> value_{ServingStatus{}};
  };

  // Publishes health_snapshot()'s serving status and derived gauges;
  // the last step of every public mutation, and only the writer calls
  // it.
  void PublishStatus();
  // AdvanceTo without the publish, so Ingest publishes once, at its end.
  void AdvanceClock(util::HourIndex hour);

  // Newest buffered data day, min() when nothing is buffered.
  [[nodiscard]] util::HourIndex NewestBufferedDay() const;
  void OpenDay(util::HourIndex day);
  // Day-boundary bookkeeping + retrain attempt with retry scheduling.
  void OnDayBoundary(util::HourIndex new_day);
  void AttemptScheduledRetrain();
  // Merges the open hour slot into its day's shard (hour-resolution
  // ring); called whenever the ingest clock moves past the hour and
  // before any retrain reads the shards.
  void FoldOpenHour();
  // Decay generation of a day under the policy's half-life staircase.
  [[nodiscard]] std::int64_t DecayGeneration(util::HourIndex day) const;
  // The retrain engine; `drift_shrink` marks a drift-triggered early
  // retrain (bypasses the no-new-data guard; hard-window path rebuilds
  // from the newest drift_shrink_window_days only).
  [[nodiscard]] util::Status TryRetrainInternal(bool drift_shrink);

  const wan::Wan* wan_;
  const geo::MetroCatalogue* metros_;
  int window_days_;
  TipsyConfig config_;
  RetrainPolicy policy_;
  std::deque<DayBuffer> days_;
  util::HourIndex last_observed_hour_ =
      std::numeric_limits<util::HourIndex>::min();
  util::HourIndex last_day_ = std::numeric_limits<util::HourIndex>::min();
  // Shared so an attached ModelEpoch can hand out snapshots that outlive
  // the next retrain; the retrainer is the only writer.
  std::shared_ptr<const TipsyService> current_;
  ModelEpoch* epoch_ = nullptr;
  util::HourIndex trained_through_day_ =
      std::numeric_limits<util::HourIndex>::min();
  // Health counters are obs::Counter so the registry serves them
  // directly - health_snapshot()/ExportState() fold the same cells, no
  // double bookkeeping. consecutive_failures_ resets on every success,
  // so it stays a plain field (exported through a published gauge).
  obs::Counter retrain_count_;
  obs::Counter retrain_failures_;
  std::size_t consecutive_failures_ = 0;
  obs::Counter dropped_hours_;
  obs::Counter missing_days_;
  obs::Counter partial_days_;
  obs::Histogram retrain_duration_;
  obs::Tracer* tracer_ = nullptr;
  int pending_retries_ = 0;  // bounded retry budget after a failed boundary
  std::function<bool(util::HourIndex)> retrain_fault_;
  // Incremental path: aggregate of every folded day's shard. Invariant
  // (hard window): window_counts_ == merge of days_[i].shard for all i
  // with folded set. In decay mode the aggregate instead equals the
  // canonical fold (days ascending: decay to the day's generation, then
  // merge) of every day ever folded, held at decay_generation_.
  ShardTables window_counts_;
  obs::Counter incremental_retrains_;
  obs::Counter incremental_rebuilds_;
  // Hour-resolution ring: the hour currently accumulating. Folded into
  // the owning day's shard when the clock moves past it.
  HourSlot open_hour_;
  bool open_hour_active_ = false;
  // Decay mode: generation window_counts_ is decayed to, and the newest
  // day folded into it (folded days form a prefix of the ring).
  std::int64_t decay_generation_ = 0;
  util::HourIndex decay_folded_through_day_ =
      std::numeric_limits<util::HourIndex>::min();
  // Drift detection (engaged when policy_.drift_detection).
  std::optional<DriftDetector> drift_;
  bool drift_retrain_pending_ = false;
  obs::Counter drift_events_;
  obs::Counter drift_early_retrains_;
  // Published by PublishStatus for readers on other threads: the status
  // the predict plane stamps, and the values behind the registry's
  // derived gauges (a scrape never reads the fields above).
  StatusCell status_;
  struct PublishedGauges {
    obs::Gauge consecutive_failures;
    obs::Gauge buffered_days;
    obs::Gauge model_age_days;
    obs::Gauge drift_recent_accuracy;
    obs::Gauge drift_baseline_accuracy;
    obs::Gauge drift_distribution_distance;
  };
  PublishedGauges gauges_;
};

}  // namespace tipsy::core
