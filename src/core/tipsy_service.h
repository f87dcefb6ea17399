// TIPSY as a service (§4): owns the trained model suite, exposes the model
// registry used by the evaluation harness, and answers the congestion
// mitigation system's "what-if" queries: if these flows are withdrawn from
// these links, where do their bytes go?
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ensemble.h"
#include "core/geo_model.h"
#include "core/historical.h"
#include "core/naive_bayes.h"
#include "obs/metrics.h"

namespace tipsy::core {

struct TipsyConfig {
  std::size_t max_links_per_tuple = 16;
  // Naive Bayes is an order of magnitude more expensive to query
  // (Appendix A); train it only when an experiment needs it.
  bool train_naive_bayes = false;
};

class TipsyService {
 public:
  TipsyService(const wan::Wan* wan, const geo::MetroCatalogue* metros,
               TipsyConfig config = {});

  // Single-pass, byte-weighted, streaming training. Feed any number of row
  // batches, then finalize once. Large batches are sharded over the
  // current thread pool (util::CurrentPool); the per-thread partials are
  // merged deterministically at FinalizeTraining(), so trained tables are
  // bit-identical to a serial run regardless of TIPSY_THREADS.
  void Train(std::span<const pipeline::AggRow> rows);
  void FinalizeTraining();

  // Capacity hint (expected distinct AP-granularity tuples) applied to
  // the historical models' hash tables before training.
  void ReserveTuples(std::size_t expected_tuples);

  // Assembles a service around already-trained (finalized) historical
  // models - the deserialization path.
  static std::unique_ptr<TipsyService> FromTrainedModels(
      const wan::Wan* wan, const geo::MetroCatalogue* metros,
      TipsyConfig config, HistoricalModel a, HistoricalModel ap,
      HistoricalModel al);

  // Assembles a finalized service directly from accumulated window count
  // tables, optionally overlaying one more day's partial counts - the
  // incremental retraining path (core/online.h). Bit-identical to
  // training a service over the rows the counts came from. Production
  // configuration only: Naive Bayes is an evaluation baseline and is not
  // part of the incremental serving path.
  static std::unique_ptr<TipsyService> FromWindowCounts(
      const wan::Wan* wan, const geo::MetroCatalogue* metros,
      TipsyConfig config, const ShardTables& window,
      const ShardTables* overlay = nullptr);

  // The three historical models (finalized service only); used by the
  // persistence layer.
  [[nodiscard]] const HistoricalModel& hist(FeatureSet fs) const;
  [[nodiscard]] bool trained() const { return finalized_; }

  // Registry: "Hist_A", "Hist_AP", "Hist_AL", "Hist_AL+G",
  // "Hist_AP/AL/A", "Hist_AL/AP/A", plus "NB_A", "NB_AL", "Hist_AL/NB_AL"
  // when Naive Bayes training is enabled. nullptr when unknown.
  [[nodiscard]] const Model* Find(std::string_view name) const;
  [[nodiscard]] std::vector<const Model*> AllModels() const;

  // The production pick for withdrawal what-ifs: Hist_AL+G (§5.3.2).
  [[nodiscard]] const Model& Best() const;

  struct ShiftQueryFlow {
    FlowFeatures flow;
    double bytes = 0.0;
  };
  struct ShiftPrediction {
    // Predicted additional bytes per destination link, sorted by link id
    // (deterministic iteration order for downstream accumulation).
    std::vector<std::pair<LinkId, double>> shifted;
    // Bytes of flows TIPSY had no prediction for.
    double unpredicted_bytes = 0.0;

    // Predicted bytes for one link (0 when absent); binary search.
    [[nodiscard]] double BytesFor(LinkId link) const;
  };
  // Where the given flows will go once the links in `excluded` stop being
  // valid ingress choices for them (§4.4). Uses Best() with top-k spread.
  //
  // The whole span is answered as one batch: flows sharing an AL tuple
  // share one model probe (Best() keys purely on the AL tuple), the flat
  // table's buckets are prefetched a few flows ahead, and byte spreads
  // accumulate into a dense per-link scratch. Per link the contributions
  // still sum in flow order, so every value is bit-identical to querying
  // the flows one by one.
  [[nodiscard]] ShiftPrediction PredictShift(
      std::span<const ShiftQueryFlow> flows, const ExclusionMask& excluded,
      std::size_t k = 3) const;
  // The same prediction path with the optional instrumentation skipped
  // entirely - the overhead-measurement baseline for bench_obs, and the
  // serving-core bench's uninstrumented lane. Equivalent to PredictShift
  // in a -DTIPSY_NO_OBS build.
  [[nodiscard]] ShiftPrediction PredictShiftNoMetrics(
      std::span<const ShiftQueryFlow> flows, const ExclusionMask& excluded,
      std::size_t k = 3) const;

  // Registers the prediction-path metrics (latency histogram, query/flow
  // counters, per-stage ensemble hits) under `prefix` (e.g. "tipsy").
  // The handles must be dropped before the service is destroyed. Under
  // TIPSY_NO_OBS the metrics register but stay at zero.
  [[nodiscard]] obs::MetricGroup RegisterMetrics(obs::Registry& registry,
                                                 const std::string& prefix)
      const;

  // Prediction-path counters (optional instrumentation: frozen at zero
  // under TIPSY_NO_OBS). Latency is sampled 1-in-64 queries so the
  // clock-read pair - comparable in cost to an entire query on the flat
  // serving core - stays off the hot path. Counters are exact.
  [[nodiscard]] std::uint64_t predict_queries() const {
    return predict_queries_.value();
  }
  [[nodiscard]] std::uint64_t predict_flows() const {
    return predict_flows_.value();
  }
  [[nodiscard]] std::uint64_t unpredicted_flows() const {
    return unpredicted_flows_.value();
  }
  [[nodiscard]] const obs::Histogram& predict_latency() const {
    return predict_latency_;
  }

 private:
  [[nodiscard]] ShiftPrediction PredictShiftImpl(
      std::span<const ShiftQueryFlow> flows, const ExclusionMask& excluded,
      std::size_t k, std::uint64_t* unpredicted_flow_count) const;

  const wan::Wan* wan_;
  const geo::MetroCatalogue* metros_;
  TipsyConfig config_;
  bool finalized_ = false;

  std::unique_ptr<HistoricalModel> hist_a_;
  std::unique_ptr<HistoricalModel> hist_ap_;
  std::unique_ptr<HistoricalModel> hist_al_;
  std::unique_ptr<GeoAugmentedModel> hist_al_g_;
  std::unique_ptr<SequentialEnsemble> hist_ap_al_a_;
  std::unique_ptr<SequentialEnsemble> hist_al_ap_a_;
  std::unique_ptr<NaiveBayesModel> nb_a_;
  std::unique_ptr<NaiveBayesModel> nb_al_;
  std::unique_ptr<SequentialEnsemble> hist_al_nb_al_;

  // PredictShift instrumentation (see TIPSY_OBS_ONLY in the .cpp). The
  // latency sampling cadence is driven off predict_queries_'s stripe-
  // local count (Counter::IncrementAndCount), not a separate atomic.
  mutable obs::Counter predict_queries_;
  mutable obs::Counter predict_flows_;
  mutable obs::Counter unpredicted_flows_;
  mutable obs::Histogram predict_latency_;
};

}  // namespace tipsy::core
