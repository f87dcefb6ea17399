// Naive Bayes classifier baseline (Appendix A).
//
// p(l|f) proportional to p(l) * prod_i p(f_i|l), with all probabilities
// estimated from byte-weighted counts. Unlike the historical model it can
// score flows whose exact tuple never appeared in training, as long as each
// individual feature value was seen; the price is a per-query scan over all
// candidate links (the O(l log l) prediction cost of Table 11).
//
// NB is an evaluation baseline, not a serving model: it is not persisted in
// model bundles and its finalized log-probabilities are not mergeable, so the
// DailyRetrainer's incremental per-day-shard path (core/day_shard.h) excludes
// it — configs with train_naive_bayes fall back to full-window rebuilds.
#pragma once

#include <array>
#include <unordered_map>

#include "core/model.h"

namespace tipsy::core {

class NaiveBayesModel : public Model {
 public:
  // Only kA and kAL are supported, as in the paper: NB_AP exceeded memory
  // limits there, and we keep the same model lineup.
  explicit NaiveBayesModel(FeatureSet feature_set, double smoothing = 1.0);

  void Add(const pipeline::AggRow& row);
  void Finalize();

  // Shard-local accumulation for parallel training, mirroring
  // HistoricalModel: shard s is written by one thread at a time and
  // Finalize() folds the shards into the main counts in shard order
  // (bit-identical to serial because byte counts are integers).
  void EnsureShards(std::size_t count);
  void AddToShard(std::size_t shard, const pipeline::AggRow& row);
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  // Scores every candidate link, keeps the top min(k, out.size()) and
  // normalizes their probabilities over that truncated set.
  [[nodiscard]] std::size_t PredictInto(
      const FlowFeatures& flow, std::size_t k, const ExclusionMask* excluded,
      std::span<Prediction> out) const override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t MemoryFootprintBytes() const override;

  [[nodiscard]] std::size_t class_count() const {
    return totals_.class_bytes.size();
  }

 private:
  // Feature dimensions: 0=src AS, 1=dest region, 2=dest service,
  // 3=src metro (AL only).
  static constexpr std::size_t kMaxDims = 4;
  [[nodiscard]] std::size_t DimCount() const {
    return feature_set_ == FeatureSet::kAL ? 4 : 3;
  }
  // Value of dimension d for a flow, as a raw 64-bit feature value.
  [[nodiscard]] static std::uint64_t DimValue(std::size_t d,
                                              const FlowFeatures& flow);

  FeatureSet feature_set_;
  double smoothing_;
  bool finalized_ = false;

  // Byte mass per (dimension, feature value, link).
  struct CondKey {
    std::uint64_t value;
    std::uint32_t link;
    std::uint8_t dim;
    bool operator==(const CondKey&) const = default;
  };
  struct CondKeyHash {
    std::size_t operator()(const CondKey& k) const {
      return util::HashAll(k.value, k.link, std::uint32_t{k.dim});
    }
  };
  // One set of training counts: the main model owns one (totals_), and
  // each parallel training shard owns a private one merged at Finalize().
  struct Counts {
    // Byte mass per class (link) and total.
    std::unordered_map<std::uint32_t, double> class_bytes;
    double total_bytes = 0.0;
    std::unordered_map<CondKey, double, CondKeyHash> cond_bytes;
    // Distinct values per dimension (for Laplace smoothing denominators).
    std::array<std::unordered_map<std::uint64_t, bool>, kMaxDims>
        seen_values;
  };

  void AddTo(Counts& counts, const pipeline::AggRow& row) const;
  void MergeShards();

  Counts totals_;
  std::vector<Counts> shards_;
};

}  // namespace tipsy::core
