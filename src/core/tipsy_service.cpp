#include "core/tipsy_service.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "util/parallel.h"

namespace tipsy::core {
namespace {

// Below this batch size the fork-join overhead outweighs the sharded
// accumulation; determinism does not depend on the cutoff (serial and
// sharded adds merge to bit-identical tables).
constexpr std::size_t kMinParallelTrainRows = 256;

#ifndef TIPSY_NO_OBS
// Sample the prediction latency timer on one query in 64: a steady-clock
// read pair plus a histogram observe costs ~100 ns, comparable to an
// entire query on the flat serving core, so the timer must be rare
// enough to vanish from the per-batch BENCH_obs.json acceptance rows.
// Counters are unsampled (exact).
constexpr std::uint64_t kPredictSampleMask = 63;
#endif

// How many flows ahead of the probe loop the flat table's buckets are
// prefetched. Far enough to cover a memory load, near enough to stay in
// the L1 shadow of small batches.
constexpr std::size_t kPrefetchLookahead = 8;

// Per-thread scratch reused across PredictShift calls, so the batched
// path performs no steady-state heap allocation. `accumulated[v]` is
// meaningful only while `stamp[v] == epoch`; stale entries are reset
// lazily on first touch instead of zeroing the arrays between calls.
struct ShiftScratch {
  std::vector<TupleKey> keys;           // per flow: its AL tuple key
  std::vector<std::uint32_t> flow_slot; // per flow: prediction cache slot
  // Open-addressing dedupe map from tuple key to cache slot + 1.
  std::vector<std::uint32_t> slot_of_bucket;
  std::vector<TupleKey> key_of_bucket;
  struct CacheSlot {
    std::uint32_t begin = 0;  // into `predictions`
    std::uint32_t count = 0;
    double total_probability = 0.0;
  };
  std::vector<CacheSlot> slots;
  std::vector<Prediction> predictions;  // arena of per-tuple predictions
  // Dense per-link byte accumulation, first-touch tracked by stamp.
  std::vector<double> accumulated;
  std::vector<std::uint64_t> stamp;
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> touched;   // link ids hit this call

  void EnsureLink(std::size_t link_value) {
    if (link_value >= accumulated.size()) {
      accumulated.resize(link_value + 1, 0.0);
      stamp.resize(link_value + 1, 0);
    }
  }
};

ShiftScratch& LocalShiftScratch() {
  thread_local ShiftScratch scratch;
  return scratch;
}

// Prometheus-safe metric-name fragment from a model label like
// "Hist_AP/AL/A": lowercase, non-alphanumerics collapsed to '_'.
std::string MetricNameFragment(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out += c;
    } else if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

}  // namespace

TipsyService::TipsyService(const wan::Wan* wan,
                           const geo::MetroCatalogue* metros,
                           TipsyConfig config)
    : wan_(wan), metros_(metros), config_(config) {
  hist_a_ = std::make_unique<HistoricalModel>(
      FeatureSet::kA, config_.max_links_per_tuple);
  hist_ap_ = std::make_unique<HistoricalModel>(
      FeatureSet::kAP, config_.max_links_per_tuple);
  hist_al_ = std::make_unique<HistoricalModel>(
      FeatureSet::kAL, config_.max_links_per_tuple);
  if (config_.train_naive_bayes) {
    nb_a_ = std::make_unique<NaiveBayesModel>(FeatureSet::kA);
    nb_al_ = std::make_unique<NaiveBayesModel>(FeatureSet::kAL);
  }
}

void TipsyService::Train(std::span<const pipeline::AggRow> rows) {
  assert(!finalized_);
  util::ThreadPool& pool = util::CurrentPool();
  const std::size_t shards = pool.thread_count();
  if (shards <= 1 || rows.size() < kMinParallelTrainRows) {
    for (const auto& row : rows) {
      hist_a_->Add(row);
      hist_ap_->Add(row);
      hist_al_->Add(row);
      if (nb_a_) nb_a_->Add(row);
      if (nb_al_) nb_al_->Add(row);
    }
    return;
  }
  hist_a_->EnsureShards(shards);
  hist_ap_->EnsureShards(shards);
  hist_al_->EnsureShards(shards);
  if (nb_a_) nb_a_->EnsureShards(shards);
  if (nb_al_) nb_al_->EnsureShards(shards);
  // Chunk s of the batch feeds shard s of every model, so each shard is
  // written by exactly one thread per batch.
  const std::size_t n = rows.size();
  pool.Run(shards, [&](std::size_t shard) {
    const std::size_t begin = n * shard / shards;
    const std::size_t end = n * (shard + 1) / shards;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& row = rows[i];
      hist_a_->AddToShard(shard, row);
      hist_ap_->AddToShard(shard, row);
      hist_al_->AddToShard(shard, row);
      if (nb_a_) nb_a_->AddToShard(shard, row);
      if (nb_al_) nb_al_->AddToShard(shard, row);
    }
  });
}

void TipsyService::ReserveTuples(std::size_t expected_tuples) {
  assert(!finalized_);
  if (expected_tuples == 0) return;
  // AP is the finest granularity (one tuple per /24 x destination); the
  // location and AS reductions collapse tuples by roughly these factors.
  hist_ap_->ReserveTuples(expected_tuples);
  hist_al_->ReserveTuples(expected_tuples / 4 + 1);
  hist_a_->ReserveTuples(expected_tuples / 8 + 1);
}

void TipsyService::FinalizeTraining() {
  assert(!finalized_);
  hist_a_->Finalize();
  hist_ap_->Finalize();
  hist_al_->Finalize();
  if (nb_a_) nb_a_->Finalize();
  if (nb_al_) nb_al_->Finalize();
  hist_al_g_ =
      std::make_unique<GeoAugmentedModel>(hist_al_.get(), wan_, metros_);
  hist_ap_al_a_ = std::make_unique<SequentialEnsemble>(
      std::vector<const Model*>{hist_ap_.get(), hist_al_.get(),
                                hist_a_.get()},
      "Hist_AP/AL/A");
  hist_al_ap_a_ = std::make_unique<SequentialEnsemble>(
      std::vector<const Model*>{hist_al_.get(), hist_ap_.get(),
                                hist_a_.get()},
      "Hist_AL/AP/A");
  if (nb_al_) {
    hist_al_nb_al_ = std::make_unique<SequentialEnsemble>(
        std::vector<const Model*>{hist_al_.get(), nb_al_.get()},
        "Hist_AL/NB_AL");
  }
  finalized_ = true;
}

std::unique_ptr<TipsyService> TipsyService::FromTrainedModels(
    const wan::Wan* wan, const geo::MetroCatalogue* metros,
    TipsyConfig config, HistoricalModel a, HistoricalModel ap,
    HistoricalModel al) {
  assert(a.finalized() && ap.finalized() && al.finalized());
  // No NB in a restored bundle: NB tables are cheap to retrain and are an
  // evaluation baseline, not a production model.
  config.train_naive_bayes = false;
  auto service =
      std::unique_ptr<TipsyService>(new TipsyService(wan, metros, config));
  *service->hist_a_ = std::move(a);
  *service->hist_ap_ = std::move(ap);
  *service->hist_al_ = std::move(al);
  service->hist_al_g_ = std::make_unique<GeoAugmentedModel>(
      service->hist_al_.get(), wan, metros);
  service->hist_ap_al_a_ = std::make_unique<SequentialEnsemble>(
      std::vector<const Model*>{service->hist_ap_.get(),
                                service->hist_al_.get(),
                                service->hist_a_.get()},
      "Hist_AP/AL/A");
  service->hist_al_ap_a_ = std::make_unique<SequentialEnsemble>(
      std::vector<const Model*>{service->hist_al_.get(),
                                service->hist_ap_.get(),
                                service->hist_a_.get()},
      "Hist_AL/AP/A");
  service->finalized_ = true;
  return service;
}

std::unique_ptr<TipsyService> TipsyService::FromWindowCounts(
    const wan::Wan* wan, const geo::MetroCatalogue* metros,
    TipsyConfig config, const ShardTables& window,
    const ShardTables* overlay) {
  return FromTrainedModels(
      wan, metros, config,
      HistoricalModel::FromCounts(config.max_links_per_tuple, window.a,
                                  overlay != nullptr ? &overlay->a : nullptr),
      HistoricalModel::FromCounts(config.max_links_per_tuple, window.ap,
                                  overlay != nullptr ? &overlay->ap : nullptr),
      HistoricalModel::FromCounts(config.max_links_per_tuple, window.al,
                                  overlay != nullptr ? &overlay->al : nullptr));
}

const HistoricalModel& TipsyService::hist(FeatureSet fs) const {
  switch (fs) {
    case FeatureSet::kA: return *hist_a_;
    case FeatureSet::kAP: return *hist_ap_;
    case FeatureSet::kAL: return *hist_al_;
  }
  return *hist_a_;
}

const Model* TipsyService::Find(std::string_view name) const {
  for (const Model* model : AllModels()) {
    if (model->name() == name) return model;
  }
  return nullptr;
}

std::vector<const Model*> TipsyService::AllModels() const {
  assert(finalized_);
  std::vector<const Model*> out{hist_a_.get(),       hist_ap_.get(),
                                hist_al_.get(),      hist_al_g_.get(),
                                hist_ap_al_a_.get(), hist_al_ap_a_.get()};
  if (nb_a_) out.push_back(nb_a_.get());
  if (nb_al_) out.push_back(nb_al_.get());
  if (hist_al_nb_al_) out.push_back(hist_al_nb_al_.get());
  return out;
}

const Model& TipsyService::Best() const {
  assert(finalized_);
  return *hist_al_g_;
}

double TipsyService::ShiftPrediction::BytesFor(LinkId link) const {
  const auto it = std::lower_bound(
      shifted.begin(), shifted.end(), link,
      [](const std::pair<LinkId, double>& entry, LinkId l) {
        return entry.first < l;
      });
  return it != shifted.end() && it->first == link ? it->second : 0.0;
}

TipsyService::ShiftPrediction TipsyService::PredictShiftImpl(
    std::span<const ShiftQueryFlow> flows, const ExclusionMask& excluded,
    std::size_t k, std::uint64_t* unpredicted_flow_count) const {
  assert(finalized_);
  ShiftPrediction out;
  if (flows.empty()) {
    if (unpredicted_flow_count != nullptr) *unpredicted_flow_count = 0;
    return out;
  }
  const Model& best = Best();
  ShiftScratch& s = LocalShiftScratch();
  const std::size_t n = flows.size();

  // Pass 1 - resolve each flow's prediction set with one model probe per
  // distinct AL tuple: Best() is Hist_AL+G, whose output (the base
  // lookup and the geo anchor alike) is a pure function of the flow's AL
  // tuple key plus the per-call k and mask, so flows sharing a tuple
  // share a cache slot. Upcoming tuples' buckets are prefetched a few
  // flows ahead of the probe.
  s.keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.keys[i] = MakeTupleKey(FeatureSet::kAL, flows[i].flow);
  }
  std::size_t bucket_count = 16;
  while (bucket_count < n * 2) bucket_count <<= 1;
  const std::size_t bucket_mask = bucket_count - 1;
  s.slot_of_bucket.assign(bucket_count, 0);
  s.key_of_bucket.resize(bucket_count);
  s.slots.clear();
  s.predictions.clear();
  s.flow_slot.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchLookahead < n) {
      hist_al_->PrefetchTuple(s.keys[i + kPrefetchLookahead]);
    }
    const TupleKey& key = s.keys[i];
    std::size_t b = TupleKeyHash{}(key) & bucket_mask;
    while (s.slot_of_bucket[b] != 0 && !(s.key_of_bucket[b] == key)) {
      b = (b + 1) & bucket_mask;
    }
    if (s.slot_of_bucket[b] == 0) {
      const std::size_t begin = s.predictions.size();
      s.predictions.resize(begin + k);
      const std::size_t count = best.PredictInto(
          flows[i].flow, k, &excluded,
          std::span<Prediction>(s.predictions.data() + begin, k));
      s.predictions.resize(begin + count);
      ShiftScratch::CacheSlot slot;
      slot.begin = static_cast<std::uint32_t>(begin);
      slot.count = static_cast<std::uint32_t>(count);
      for (std::size_t j = 0; j < count; ++j) {
        slot.total_probability += s.predictions[begin + j].probability;
      }
      s.slots.push_back(slot);
      s.slot_of_bucket[b] = static_cast<std::uint32_t>(s.slots.size());
      s.key_of_bucket[b] = key;
    }
    s.flow_slot[i] = s.slot_of_bucket[b] - 1;
  }

  // Pass 2 - spread bytes, strictly in the original flow order so every
  // per-link sum is bit-identical to querying flow by flow (cached
  // contributions are identical values; only the probes were shared).
  double unpredicted_bytes = 0.0;
  std::uint64_t unpredicted = 0;
  ++s.epoch;
  s.touched.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const ShiftScratch::CacheSlot& slot = s.slots[s.flow_slot[i]];
    if (slot.count == 0 || slot.total_probability <= 0.0) {
      unpredicted_bytes += flows[i].bytes;
      ++unpredicted;
      continue;
    }
    for (std::uint32_t j = 0; j < slot.count; ++j) {
      const Prediction& p = s.predictions[slot.begin + j];
      const std::size_t link_value = p.link.value();
      s.EnsureLink(link_value);
      if (s.stamp[link_value] != s.epoch) {
        s.stamp[link_value] = s.epoch;
        s.accumulated[link_value] = 0.0;
        s.touched.push_back(static_cast<std::uint32_t>(link_value));
      }
      s.accumulated[link_value] +=
          flows[i].bytes * (p.probability / slot.total_probability);
    }
  }

  std::sort(s.touched.begin(), s.touched.end());
  out.shifted.reserve(s.touched.size());
  for (const std::uint32_t link_value : s.touched) {
    out.shifted.emplace_back(LinkId(link_value), s.accumulated[link_value]);
  }
  out.unpredicted_bytes = unpredicted_bytes;
  if (unpredicted_flow_count != nullptr) {
    *unpredicted_flow_count = unpredicted;
  }
  return out;
}

TipsyService::ShiftPrediction TipsyService::PredictShift(
    std::span<const ShiftQueryFlow> flows, const ExclusionMask& excluded,
    std::size_t k) const {
  assert(finalized_);
#ifndef TIPSY_NO_OBS
  // The sampling cadence rides on the query counter's stripe-local
  // count: one atomic covers both the metric and the 1-in-N decision.
  const std::uint64_t query_index = predict_queries_.IncrementAndCount() - 1;
  obs::ScopedTimer latency_timer(
      (query_index & kPredictSampleMask) == 0 ? &predict_latency_ : nullptr);
  predict_flows_.Increment(flows.size());
  std::uint64_t unpredicted = 0;
  ShiftPrediction out = PredictShiftImpl(flows, excluded, k, &unpredicted);
  if (unpredicted > 0) unpredicted_flows_.Increment(unpredicted);
  return out;
#else
  return PredictShiftImpl(flows, excluded, k, nullptr);
#endif
}

TipsyService::ShiftPrediction TipsyService::PredictShiftNoMetrics(
    std::span<const ShiftQueryFlow> flows, const ExclusionMask& excluded,
    std::size_t k) const {
  return PredictShiftImpl(flows, excluded, k, nullptr);
}

obs::MetricGroup TipsyService::RegisterMetrics(
    obs::Registry& registry, const std::string& prefix) const {
  assert(finalized_);
  obs::MetricGroup group;
  group.push_back(registry.RegisterCounter(
      prefix + "_predict_queries_total",
      "PredictShift what-if queries answered", &predict_queries_));
  group.push_back(registry.RegisterCounter(
      prefix + "_predict_flows_total",
      "Flows evaluated across all PredictShift queries", &predict_flows_));
  group.push_back(registry.RegisterCounter(
      prefix + "_predict_unpredicted_flows_total",
      "Flows the best model had no ingress prediction for",
      &unpredicted_flows_));
  group.push_back(registry.RegisterHistogram(
      prefix + "_predict_latency_seconds",
      "PredictShift latency, sampled 1-in-64 queries",
      &predict_latency_));
  // Serving-core gauges: shape and build cost of the flat tables this
  // service probes.
  const auto flat_tables = [this] {
    return std::array<const FlatTupleTable*, 3>{&hist_a_->flat_table(),
                                                &hist_ap_->flat_table(),
                                                &hist_al_->flat_table()};
  };
  group.push_back(registry.RegisterGauge(
      prefix + "_flat_table_tuples",
      "Tuples across the historical models' flat serving tables", [flat_tables] {
        double total = 0.0;
        for (const auto* table : flat_tables()) {
          total += static_cast<double>(table->size());
        }
        return total;
      }));
  group.push_back(registry.RegisterGauge(
      prefix + "_flat_table_bytes",
      "Resident bytes of the flat serving tables", [flat_tables] {
        double total = 0.0;
        for (const auto* table : flat_tables()) {
          total += static_cast<double>(table->MemoryFootprintBytes());
        }
        return total;
      }));
  group.push_back(registry.RegisterGauge(
      prefix + "_flat_table_build_seconds",
      "Summed build time of the flat serving tables", [flat_tables] {
        double total = 0.0;
        for (const auto* table : flat_tables()) {
          total += static_cast<double>(table->build_ns()) * 1e-9;
        }
        return total;
      }));
  group.push_back(registry.RegisterGauge(
      prefix + "_flat_table_max_probe",
      "Longest lookup probe sequence across the flat serving tables",
      [flat_tables] {
        double longest = 0.0;
        for (const auto* table : flat_tables()) {
          longest = std::max(longest,
                             static_cast<double>(table->max_probe_length()));
        }
        return longest;
      }));
  // Per-stage answer counters for the sequential ensembles: which model
  // tier is actually serving (§3.3.1 fall-through behavior).
  for (const SequentialEnsemble* ensemble :
       {hist_ap_al_a_.get(), hist_al_ap_a_.get(), hist_al_nb_al_.get()}) {
    if (ensemble == nullptr) continue;
    const std::string base =
        prefix + "_ensemble_" + MetricNameFragment(ensemble->name());
    for (std::size_t i = 0; i < ensemble->stage_count(); ++i) {
      group.push_back(registry.RegisterCounter(
          base + "_stage" + std::to_string(i) + "_hits_total",
          "Queries answered by stage " + std::to_string(i) + " of " +
              ensemble->name(),
          &ensemble->stage_hit_counter(i)));
    }
    group.push_back(registry.RegisterCounter(
        base + "_miss_total",
        "Queries no stage of " + ensemble->name() + " could answer",
        &ensemble->miss_counter()));
  }
  return group;
}

}  // namespace tipsy::core
