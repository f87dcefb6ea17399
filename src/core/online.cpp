#include "core/online.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "core/serialize.h"

namespace tipsy::core {

namespace {
constexpr util::HourIndex kNoDay = std::numeric_limits<util::HourIndex>::min();

// Decay steps are clamped to 53 (enough to drain any integer-valued
// count) before narrowing, so pathological generation gaps cannot
// overflow the int parameter.
int ClampDecaySteps(std::int64_t steps) {
  if (steps <= 0) return 0;
  return steps > 53 ? 53 : static_cast<int>(steps);
}
}  // namespace

DailyRetrainer::DailyRetrainer(const wan::Wan* wan,
                               const geo::MetroCatalogue* metros,
                               int window_days, TipsyConfig config,
                               RetrainPolicy policy)
    : wan_(wan), metros_(metros), window_days_(window_days),
      config_(config), policy_(policy) {
  assert(window_days_ >= 1);
  assert(policy_.stale_after_days >= 0);
  assert(policy_.expire_after_days >= policy_.stale_after_days);
  if (policy_.drift_detection) {
    drift_.emplace(DriftOptions{
        policy_.drift_window_hours, policy_.drift_baseline_hours,
        policy_.drift_accuracy_drop, policy_.drift_distribution_threshold,
        policy_.drift_consecutive_hours, policy_.drift_cooldown_hours,
        policy_.drift_warmup_hours, policy_.drift_min_hour_flows,
        policy_.drift_sample_flows});
  }
  PublishStatus();
}

std::int64_t DailyRetrainer::DecayGeneration(util::HourIndex day) const {
  const auto half_life_hours = std::max<std::int64_t>(
      1, std::llround(policy_.decay_half_life_days * 24.0));
  const std::int64_t hours = static_cast<std::int64_t>(day) * 24;
  std::int64_t generation = hours / half_life_hours;
  if (hours % half_life_hours != 0 && hours < 0) --generation;
  return generation;
}

void DailyRetrainer::FoldOpenHour() {
  if (!open_hour_active_) return;
  const util::HourIndex day = util::DayIndex(open_hour_.hour);
  // Hours are monotone, so a non-empty slot always belongs to the newest
  // buffered day.
  if (!days_.empty() && days_.back().day == day) {
    days_.back().shard.FoldHour(open_hour_);
  }
  open_hour_.Clear();
  open_hour_active_ = false;
}

util::HourIndex DailyRetrainer::NewestBufferedDay() const {
  return days_.empty() ? kNoDay : days_.back().day;
}

void DailyRetrainer::OpenDay(util::HourIndex day) {
  DayBuffer buffer;
  buffer.day = day;
  buffer.last_hour = kNoDay;
  buffer.shard.day = day;
  days_.push_back(std::move(buffer));
}

void DailyRetrainer::OnDayBoundary(util::HourIndex new_day) {
  // Account for what the completed day(s) looked like. Days the clock
  // skipped entirely, and the previous day if it never produced a buffer,
  // are missing; a previous day with too few distinct hours is partial.
  missing_days_.Increment(static_cast<std::uint64_t>(new_day - last_day_ - 1));
  if (!days_.empty() && days_.back().day == last_day_) {
    if (days_.back().hours_seen < policy_.min_hours_per_day) {
      partial_days_.Increment();
    }
  } else {
    missing_days_.Increment();
  }
  // A new day began: retrain on everything buffered so far (the just
  // completed days). On failure the last-good model keeps serving and a
  // bounded number of retries is scheduled on the following hours.
  if (TryRetrainInternal(drift_retrain_pending_).ok()) {
    pending_retries_ = 0;
  } else {
    pending_retries_ = policy_.max_retrain_retries;
  }
  last_day_ = new_day;
}

void DailyRetrainer::AttemptScheduledRetrain() {
  --pending_retries_;
  if (TryRetrainInternal(drift_retrain_pending_).ok()) pending_retries_ = 0;
}

void DailyRetrainer::AdvanceTo(util::HourIndex hour) {
  AdvanceClock(hour);
  PublishStatus();
}

void DailyRetrainer::AdvanceClock(util::HourIndex hour) {
  if (last_day_ == kNoDay) {
    // First observation: initialize the clock, nothing completed yet.
    last_day_ = util::DayIndex(hour);
    last_observed_hour_ = hour;
    return;
  }
  if (hour < last_observed_hour_) return;  // the clock never runs backwards
  const util::HourIndex day = util::DayIndex(hour);
  const bool hour_advanced = hour > last_observed_hour_;
  if (hour_advanced) {
    // The previous hour completed: fold its slot into the day shard and
    // let the drift detector judge it, before any retrain below reads
    // the shards. Heartbeat-only hours complete with no rows, which the
    // detector skips entirely (an outage must not fire drift).
    FoldOpenHour();
    if (drift_.has_value() && drift_->CompleteHour()) {
      drift_events_.Increment();
      drift_retrain_pending_ = true;
    }
  }
  if (day > last_day_) {
    OnDayBoundary(day);
  } else if (hour_advanced) {
    if (drift_retrain_pending_) {
      (void)TryRetrainInternal(true);
    } else if (pending_retries_ > 0) {
      AttemptScheduledRetrain();
    }
  }
  last_observed_hour_ = hour;
}

void DailyRetrainer::Ingest(util::HourIndex hour,
                            std::span<const pipeline::AggRow> rows) {
  if (last_day_ != kNoDay && hour < last_observed_hour_) {
    // Out-of-order delivery: dropping beats folding late telemetry into
    // the wrong day buffer (the contract is monotone non-decreasing).
    dropped_hours_.Increment();
    PublishStatus();
    return;
  }
  AdvanceClock(hour);
  const util::HourIndex day = util::DayIndex(hour);
  if (days_.empty() || days_.back().day != day) OpenDay(day);
  auto& buffer = days_.back();
  if (hour != buffer.last_hour) {
    ++buffer.hours_seen;
    buffer.last_hour = hour;
  }
  buffer.rows.insert(buffer.rows.end(), rows.begin(), rows.end());
  if (incremental_enabled()) {
    // Hour-resolution ring: rows accumulate into the open hour slot and
    // fold into the day shard when the clock moves past the hour -
    // bit-identical to adding them to the day shard directly, because
    // hours fold in ascending order (first-occurrence link order is
    // preserved) and all counts are integer-exact.
    if (!open_hour_active_) {
      open_hour_.hour = hour;
      open_hour_active_ = true;
    }
    open_hour_.AddRows(rows);
  }
  if (drift_.has_value()) drift_->ObserveRows(hour, rows, current_.get());
  PublishStatus();
}

util::Status DailyRetrainer::TryRetrain() {
  util::Status status = TryRetrainInternal(drift_retrain_pending_);
  PublishStatus();
  return status;
}

util::Status DailyRetrainer::TryRetrainInternal(bool drift_shrink) {
  // A retrain reads the day shards, so the open hour slot folds first
  // (idempotent; AdvanceTo already folded on an hour advance).
  FoldOpenHour();
  if (drift_retrain_pending_) {
    // This attempt answers the drift trigger whether or not it succeeds;
    // the detector enters its cooldown either way, so a flaky signal
    // cannot hammer the trainer.
    drift_retrain_pending_ = false;
    drift_early_retrains_.Increment();
    if (drift_.has_value()) drift_->OnEarlyRetrain();
  }
  // Trim the window relative to the newest buffered data so long-gone
  // days cannot linger in the model through an outage. On the incremental
  // path an expired day that was folded into the window aggregate is
  // subtracted back out - exact, because every count is integer-valued.
  // In decay mode the aggregate forgets by halving instead, so expired
  // day buffers simply fall off the ring (their decayed residue stays in
  // the aggregate by design).
  const util::HourIndex newest = NewestBufferedDay();
  if (newest != kNoDay) {
    while (!days_.empty() && days_.front().day + window_days_ <= newest) {
      if (days_.front().folded && !decay_enabled()) {
        if (!window_counts_.Subtract(days_.front().shard.tables).ok()) {
          // The aggregate disagrees with the shard (cannot happen unless
          // state was tampered with); drop it and re-merge below.
          window_counts_.Clear();
          for (auto& day : days_) day.folded = false;
          incremental_rebuilds_.Increment();
        }
      }
      days_.pop_front();
    }
  }
  std::size_t total_rows = 0;
  for (const auto& day : days_) total_rows += day.rows.size();

  const util::HourIndex now_day = util::DayIndex(last_observed_hour_);
  util::Status status;
  if (total_rows == 0) {
    status = util::Status::NoData("training window holds no rows");
  } else if (!drift_shrink && current_ != nullptr &&
             newest == trained_through_day_ &&
             (!decay_enabled() ||
              DecayGeneration(now_day) == decay_generation_)) {
    // Nothing new arrived since the last successful retrain (and, in
    // decay mode, no half-life boundary has passed); rebuilding would
    // reproduce the served model byte for byte.
    status = util::Status::NoData(
        "no new data since the model trained through day " +
        std::to_string(trained_through_day_));
  } else if (retrain_fault_ && retrain_fault_(now_day)) {
    status = util::Status::Unavailable("injected training fault");
  } else if (drift_shrink && !decay_enabled()) {
    // Drift trigger under a hard window: rebuild over only the newest
    // shrink-window days so the model forgets the pre-shift regime now
    // instead of waiting for it to age out. One-shot: the window
    // aggregate keeps its canonical fold state untouched, so the next
    // scheduled retrain returns to the full rolling window.
    TIPSY_OBS_SPAN(tracer_, "retrain_drift_shrink", &retrain_duration_);
    const int shrink =
        std::max(1, std::min(policy_.drift_shrink_window_days, window_days_));
    const util::HourIndex cutoff = newest - shrink;
    if (incremental_enabled()) {
      ShardTables shrunk;
      for (const auto& day : days_) {
        if (day.day > cutoff) shrunk.Merge(day.shard.tables);
      }
      current_ = TipsyService::FromWindowCounts(wan_, metros_, config_,
                                                shrunk, nullptr);
    } else {
      auto fresh = std::make_unique<TipsyService>(wan_, metros_, config_);
      for (const auto& day : days_) {
        if (day.day > cutoff) fresh->Train(day.rows);
      }
      fresh->FinalizeTraining();
      current_ = std::move(fresh);
    }
    if (epoch_ != nullptr) epoch_->Publish(current_);
    trained_through_day_ = newest;
    retrain_count_.Increment();
    consecutive_failures_ = 0;
    return util::Status::Ok();
  } else if (incremental_enabled()) {
    TIPSY_OBS_SPAN(tracer_, "retrain_incremental", &retrain_duration_);
    // Fold every day the ingest clock has moved past into the window
    // aggregate; a day the clock still sits on can keep growing, so its
    // shard is overlaid onto the aggregate during the model build
    // without being folded. Days are in ascending order, hence at most
    // the newest can be unfrozen.
    const DayBuffer* overlay = nullptr;
    for (auto& day : days_) {
      if (day.folded) continue;
      if (day.day < now_day) {
        if (decay_enabled()) {
          // Canonical fold: bring the aggregate to the incoming day's
          // decay generation before merging, so every count has been
          // halved exactly once per half-life boundary since it arrived.
          const std::int64_t generation = DecayGeneration(day.day);
          window_counts_.Decay(
              ClampDecaySteps(generation - decay_generation_));
          decay_generation_ = generation;
          decay_folded_through_day_ = day.day;
        }
        window_counts_.Merge(day.shard.tables);
        day.folded = true;
      } else {
        overlay = &day;
      }
    }
    if (decay_enabled()) {
      // The served model sees the aggregate at today's generation; the
      // overlay (today's rows) is at that generation by construction.
      const std::int64_t generation = DecayGeneration(now_day);
      window_counts_.Decay(ClampDecaySteps(generation - decay_generation_));
      decay_generation_ = generation;
    }
    current_ = TipsyService::FromWindowCounts(
        wan_, metros_, config_, window_counts_,
        overlay != nullptr ? &overlay->shard.tables : nullptr);
    if (epoch_ != nullptr) epoch_->Publish(current_);
    incremental_retrains_.Increment();
    trained_through_day_ = newest;
    retrain_count_.Increment();
    consecutive_failures_ = 0;
    return util::Status::Ok();
  } else {
    TIPSY_OBS_SPAN(tracer_, "retrain_full", &retrain_duration_);
    auto fresh = std::make_unique<TipsyService>(wan_, metros_, config_);
    for (const auto& day : days_) {
      fresh->Train(day.rows);
    }
    fresh->FinalizeTraining();
    current_ = std::move(fresh);
    if (epoch_ != nullptr) epoch_->Publish(current_);
    trained_through_day_ = newest;
    retrain_count_.Increment();
    consecutive_failures_ = 0;
    return util::Status::Ok();
  }
  retrain_failures_.Increment();
  ++consecutive_failures_;
  return status;
}

const TipsyService* DailyRetrainer::Retrain() {
  (void)TryRetrain();
  return current_.get();
}

void DailyRetrainer::PublishStatus() {
  const ServiceHealth fold = health_snapshot();
  gauges_.consecutive_failures.Set(
      static_cast<double>(fold.consecutive_failures));
  gauges_.buffered_days.Set(static_cast<double>(fold.buffered_days));
  gauges_.model_age_days.Set(static_cast<double>(fold.model_age_days));
  gauges_.drift_recent_accuracy.Set(fold.drift_recent_accuracy);
  gauges_.drift_baseline_accuracy.Set(fold.drift_baseline_accuracy);
  gauges_.drift_distribution_distance.Set(fold.drift_distribution_distance);
  // Last, with release order: the model this status describes is already
  // in the epoch (the retrain published it first).
  status_.Store(ServingStatus{fold.health, fold.drift_state});
}

RetrainerState DailyRetrainer::ExportState() const {
  RetrainerState state;
  state.days.reserve(days_.size());
  for (const auto& day : days_) {
    RetrainerState::Day exported;
    exported.day = day.day;
    exported.hours_seen = day.hours_seen;
    exported.last_hour = day.last_hour;
    exported.rows = day.rows;
    if (incremental_enabled()) {
      if (open_hour_active_ && util::DayIndex(open_hour_.hour) == day.day) {
        // The open hour's rows are in `rows` but not yet folded into the
        // day shard; export the folded view (on a copy - ExportState is
        // const and non-destructive) so the restore-side trust condition
        // shard_row_count == rows.size() holds.
        ShardTables folded = day.shard.tables;
        folded.Merge(open_hour_.tables);
        exported.shard_row_count = day.shard.row_count + open_hour_.row_count;
        exported.shard_a = folded.a.Export();
        exported.shard_ap = folded.ap.Export();
        exported.shard_al = folded.al.Export();
      } else {
        exported.shard_row_count = day.shard.row_count;
        exported.shard_a = day.shard.tables.a.Export();
        exported.shard_ap = day.shard.tables.ap.Export();
        exported.shard_al = day.shard.tables.al.Export();
      }
    }
    state.days.push_back(std::move(exported));
  }
  state.last_observed_hour = last_observed_hour_;
  state.last_day = last_day_;
  state.trained_through_day = trained_through_day_;
  state.retrain_count = retrain_count_.value();
  state.retrain_failures = retrain_failures_.value();
  state.consecutive_failures = consecutive_failures_;
  state.dropped_hours = dropped_hours_.value();
  state.missing_days = missing_days_.value();
  state.partial_days = partial_days_.value();
  state.pending_retries = pending_retries_;
  if (decay_enabled()) {
    state.decay_generation = decay_generation_;
    state.decay_folded_through_day = decay_folded_through_day_;
    state.decay_a = window_counts_.a.Export();
    state.decay_ap = window_counts_.ap.Export();
    state.decay_al = window_counts_.al.Export();
  }
  if (drift_.has_value()) {
    state.has_drift = true;
    state.drift = drift_->ExportState();
  }
  state.drift_events = drift_events_.value();
  state.drift_early_retrains = drift_early_retrains_.value();
  if (current_ != nullptr) {
    std::ostringstream bundle;
    SaveService(*current_, bundle);
    state.model_bundle = bundle.str();
  }
  return state;
}

util::Status DailyRetrainer::RestoreState(const RetrainerState& state) {
  if (config_.train_naive_bayes) {
    return util::Status::InvalidArgument(
        "snapshot/restore supports the production configuration only; "
        "Naive Bayes tables are not persisted in the bundle");
  }
  // Validate the bundle before touching anything, so a damaged snapshot
  // leaves the retrainer serving whatever it was serving.
  std::unique_ptr<TipsyService> restored;
  if (!state.model_bundle.empty()) {
    std::istringstream in(state.model_bundle);
    auto loaded = LoadService(in, wan_, metros_, config_);
    if (!loaded.ok()) return loaded.status();
    restored = *std::move(loaded);
  }
  days_.clear();
  window_counts_.Clear();
  open_hour_.Clear();
  open_hour_active_ = false;
  decay_generation_ = 0;
  decay_folded_through_day_ = kNoDay;
  drift_retrain_pending_ = false;
  for (const auto& day : state.days) {
    DayBuffer buffer;
    buffer.day = day.day;
    buffer.rows = day.rows;
    buffer.hours_seen = day.hours_seen;
    buffer.last_hour = day.last_hour;
    if (incremental_enabled()) {
      if (day.shard_row_count == day.rows.size()) {
        // The exporter maintained this shard; trust it verbatim so the
        // restored replica keeps the incremental path without
        // re-aggregating the window.
        buffer.shard.day = day.day;
        buffer.shard.row_count = day.shard_row_count;
        buffer.shard.tables.a =
            TupleCountTable::FromExport(FeatureSet::kA, true, day.shard_a);
        buffer.shard.tables.ap =
            TupleCountTable::FromExport(FeatureSet::kAP, true, day.shard_ap);
        buffer.shard.tables.al =
            TupleCountTable::FromExport(FeatureSet::kAL, true, day.shard_al);
      } else {
        // Shard missing or inconsistent (an exporter running without the
        // incremental path, or a v1 snapshot): rebuild from the rows -
        // the result is bit-identical to the incrementally built shard.
        buffer.shard = DayShard::Build(day.day, day.rows);
      }
    }
    days_.push_back(std::move(buffer));
  }
  if (decay_enabled() && state.decay_folded_through_day != kNoDay) {
    // The decayed window aggregate cannot be rebuilt from the buffered
    // days alone (older generations have fallen off the ring), so it
    // restores verbatim along with its generation bookkeeping.
    window_counts_.a =
        TupleCountTable::FromExport(FeatureSet::kA, true, state.decay_a);
    window_counts_.ap =
        TupleCountTable::FromExport(FeatureSet::kAP, true, state.decay_ap);
    window_counts_.al =
        TupleCountTable::FromExport(FeatureSet::kAL, true, state.decay_al);
    decay_generation_ = state.decay_generation;
    decay_folded_through_day_ = state.decay_folded_through_day;
    for (auto& buffer : days_) {
      buffer.folded = buffer.day <= decay_folded_through_day_;
    }
  }
  if (drift_.has_value()) {
    // Restore the detector bit-exactly, or reset it when the exporter
    // ran without drift detection (EWMAs re-seed from the live stream).
    drift_->RestoreState(state.has_drift ? state.drift
                                         : DriftDetectorState{});
  }
  drift_events_.Reset(state.drift_events);
  drift_early_retrains_.Reset(state.drift_early_retrains);
  last_observed_hour_ = state.last_observed_hour;
  last_day_ = state.last_day;
  trained_through_day_ = state.trained_through_day;
  retrain_count_.Reset(state.retrain_count);
  retrain_failures_.Reset(state.retrain_failures);
  consecutive_failures_ =
      static_cast<std::size_t>(state.consecutive_failures);
  dropped_hours_.Reset(state.dropped_hours);
  missing_days_.Reset(state.missing_days);
  partial_days_.Reset(state.partial_days);
  pending_retries_ = state.pending_retries;
  current_ = std::move(restored);
  if (epoch_ != nullptr) epoch_->Publish(current_);
  PublishStatus();
  return util::Status::Ok();
}

ServiceHealth DailyRetrainer::health_snapshot() const {
  ServiceHealth snapshot;
  if (current_ != nullptr) {
    const util::HourIndex age =
        util::DayIndex(last_observed_hour_) - trained_through_day_;
    snapshot.model_age_days = static_cast<int>(age);
    snapshot.health = age <= policy_.stale_after_days ? ModelHealth::kFresh
                      : age <= policy_.expire_after_days
                          ? ModelHealth::kStale
                          : ModelHealth::kExpired;
  }
  snapshot.trained_through_day = trained_through_day_;
  snapshot.last_ingest_hour = last_observed_hour_;
  snapshot.buffered_days = days_.size();
  snapshot.retrain_count = static_cast<std::size_t>(retrain_count_.value());
  snapshot.retrain_failures =
      static_cast<std::size_t>(retrain_failures_.value());
  snapshot.consecutive_failures = consecutive_failures_;
  snapshot.dropped_hours = static_cast<std::size_t>(dropped_hours_.value());
  snapshot.missing_days = static_cast<std::size_t>(missing_days_.value());
  snapshot.partial_days = static_cast<std::size_t>(partial_days_.value());
  if (drift_.has_value()) {
    snapshot.drift_state = drift_->state();
    snapshot.drift_recent_accuracy = drift_->recent_accuracy();
    snapshot.drift_baseline_accuracy = drift_->baseline_accuracy();
    snapshot.drift_distribution_distance = drift_->distribution_distance();
  }
  snapshot.drift_events = static_cast<std::size_t>(drift_events_.value());
  snapshot.drift_early_retrains =
      static_cast<std::size_t>(drift_early_retrains_.value());
  return snapshot;
}

obs::MetricGroup DailyRetrainer::RegisterMetrics(
    obs::Registry& registry, const std::string& prefix) const {
  obs::MetricGroup group;
  group.push_back(registry.RegisterCounter(
      prefix + "_retrain_total", "Successful model retrains",
      &retrain_count_));
  group.push_back(registry.RegisterCounter(
      prefix + "_retrain_failures_total", "Failed retrain attempts",
      &retrain_failures_));
  group.push_back(registry.RegisterCounter(
      prefix + "_dropped_hours_total",
      "Out-of-order hour deliveries dropped at ingest", &dropped_hours_));
  group.push_back(registry.RegisterCounter(
      prefix + "_missing_days_total", "Day gaps in the ingest stream",
      &missing_days_));
  group.push_back(registry.RegisterCounter(
      prefix + "_partial_days_total",
      "Completed days with fewer hours than the policy minimum",
      &partial_days_));
  group.push_back(registry.RegisterCounter(
      prefix + "_incremental_retrains_total",
      "Retrains served by the incremental window-aggregate path",
      &incremental_retrains_));
  group.push_back(registry.RegisterCounter(
      prefix + "_incremental_rebuilds_total",
      "Self-heal rebuilds of the window aggregate after a failed subtract",
      &incremental_rebuilds_));
  group.push_back(registry.RegisterHistogram(
      prefix + "_retrain_duration_seconds",
      "Model (re)build duration, incremental and full paths",
      &retrain_duration_));
  group.push_back(registry.RegisterGauge(
      prefix + "_consecutive_failures",
      "Failed retrain attempts since the last success",
      [this] { return gauges_.consecutive_failures.value(); }));
  group.push_back(registry.RegisterGauge(
      prefix + "_buffered_days", "Day buffers held in the rolling window",
      [this] { return gauges_.buffered_days.value(); }));
  group.push_back(registry.RegisterGauge(
      prefix + "_model_age_days",
      "Ingest days since the served model's newest training day",
      [this] { return gauges_.model_age_days.value(); }));
  group.push_back(registry.RegisterGauge(
      prefix + "_model_health",
      "Served model health: 0=NONE 1=FRESH 2=STALE 3=EXPIRED",
      [this] { return static_cast<double>(health()); }));
  group.push_back(registry.RegisterCounter(
      prefix + "_drift_events_total",
      "Drift triggers fired (sustained accuracy drop or tuple-distribution "
      "shift)",
      &drift_events_));
  group.push_back(registry.RegisterCounter(
      prefix + "_drift_early_retrains_total",
      "Early retrains answering a drift trigger", &drift_early_retrains_));
  group.push_back(registry.RegisterGauge(
      prefix + "_drift_state",
      "Drift detector state: 0=STABLE 1=WARNING 2=DRIFTING",
      [this] { return static_cast<double>(drift_state()); }));
  group.push_back(registry.RegisterGauge(
      prefix + "_drift_recent_accuracy",
      "Fast-EWMA top-1 accuracy of the served model on the live stream "
      "(-1 until seeded)",
      [this] { return gauges_.drift_recent_accuracy.value(); }));
  group.push_back(registry.RegisterGauge(
      prefix + "_drift_baseline_accuracy",
      "Slow-EWMA baseline top-1 accuracy (-1 until seeded)",
      [this] { return gauges_.drift_baseline_accuracy.value(); }));
  group.push_back(registry.RegisterGauge(
      prefix + "_drift_distribution_distance",
      "Total-variation distance of the last scored hour's per-link byte "
      "share against the baseline share",
      [this] { return gauges_.drift_distribution_distance.value(); }));
  return group;
}

}  // namespace tipsy::core
