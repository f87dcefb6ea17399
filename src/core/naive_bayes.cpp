#include "core/naive_bayes.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tipsy::core {

NaiveBayesModel::NaiveBayesModel(FeatureSet feature_set, double smoothing)
    : feature_set_(feature_set), smoothing_(smoothing) {
  assert(feature_set != FeatureSet::kAP &&
         "NB_AP is not supported (Appendix A: model size exceeds limits)");
  assert(smoothing_ > 0.0);
}

std::uint64_t NaiveBayesModel::DimValue(std::size_t d,
                                        const FlowFeatures& flow) {
  switch (d) {
    case 0: return flow.src_asn.value();
    case 1: return flow.dest_region.value();
    case 2: return static_cast<std::uint64_t>(flow.dest_service);
    case 3: return flow.src_metro.value();
    default: return 0;
  }
}

void NaiveBayesModel::AddTo(Counts& counts,
                            const pipeline::AggRow& row) const {
  const FlowFeatures flow{row.src_asn, row.src_prefix24, row.src_metro,
                          row.dest_region, row.dest_service};
  if (!HasFeatures(feature_set_, flow)) return;
  const auto bytes = static_cast<double>(row.bytes);
  counts.total_bytes += bytes;
  counts.class_bytes[row.link.value()] += bytes;
  for (std::size_t d = 0; d < DimCount(); ++d) {
    const std::uint64_t value = DimValue(d, flow);
    counts.cond_bytes[CondKey{value, row.link.value(),
                              static_cast<std::uint8_t>(d)}] += bytes;
    counts.seen_values[d][value] = true;
  }
}

void NaiveBayesModel::Add(const pipeline::AggRow& row) {
  assert(!finalized_);
  AddTo(totals_, row);
}

void NaiveBayesModel::EnsureShards(std::size_t count) {
  assert(!finalized_);
  if (shards_.size() < count) shards_.resize(count);
}

void NaiveBayesModel::AddToShard(std::size_t shard,
                                 const pipeline::AggRow& row) {
  assert(!finalized_ && shard < shards_.size());
  AddTo(shards_[shard], row);
}

void NaiveBayesModel::MergeShards() {
  // Every count is a sum of integer byte volumes, so folding shard
  // partials (in shard order) reproduces the serial counts exactly.
  for (auto& shard : shards_) {
    totals_.total_bytes += shard.total_bytes;
    for (const auto& [link, bytes] : shard.class_bytes) {
      totals_.class_bytes[link] += bytes;
    }
    for (const auto& [key, bytes] : shard.cond_bytes) {
      totals_.cond_bytes[key] += bytes;
    }
    for (std::size_t d = 0; d < kMaxDims; ++d) {
      for (const auto& [value, seen] : shard.seen_values[d]) {
        if (seen) totals_.seen_values[d][value] = true;
      }
    }
  }
  shards_.clear();
  shards_.shrink_to_fit();
}

void NaiveBayesModel::Finalize() {
  MergeShards();
  finalized_ = true;
}

std::size_t NaiveBayesModel::PredictInto(const FlowFeatures& flow,
                                         std::size_t k,
                                         const ExclusionMask* excluded,
                                         std::span<Prediction> out) const {
  assert(finalized_);
  if (k > out.size()) k = out.size();
  if (k == 0 || !HasFeatures(feature_set_, flow) ||
      totals_.total_bytes <= 0.0) {
    return 0;
  }
  // NB can only reason about flows whose every feature value appeared in
  // training (Appendix A).
  for (std::size_t d = 0; d < DimCount(); ++d) {
    if (!totals_.seen_values[d].contains(DimValue(d, flow))) return 0;
  }

  // Score every candidate class in log space.
  std::vector<std::pair<double, std::uint32_t>> scores;
  scores.reserve(totals_.class_bytes.size());
  for (const auto& [link_value, link_bytes] : totals_.class_bytes) {
    if (IsExcluded(excluded, LinkId{link_value})) continue;
    double log_score = std::log(link_bytes / totals_.total_bytes);
    for (std::size_t d = 0; d < DimCount(); ++d) {
      const auto it = totals_.cond_bytes.find(CondKey{
          DimValue(d, flow), link_value, static_cast<std::uint8_t>(d)});
      const double numer =
          (it != totals_.cond_bytes.end() ? it->second : 0.0) + smoothing_;
      const double denom =
          link_bytes +
          smoothing_ * static_cast<double>(totals_.seen_values[d].size());
      log_score += std::log(numer / denom);
    }
    scores.emplace_back(log_score, link_value);
  }
  if (scores.empty()) return 0;
  std::sort(scores.begin(), scores.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (scores.size() > k) scores.resize(k);

  // Convert the top-k log scores to normalized probabilities.
  const double max_log = scores.front().first;
  double total = 0.0;
  for (const auto& [log_score, link] : scores) {
    total += std::exp(log_score - max_log);
  }
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const auto& [log_score, link] = scores[i];
    out[i] = Prediction{LinkId{link}, std::exp(log_score - max_log) / total};
  }
  return scores.size();
}

std::string NaiveBayesModel::name() const {
  return std::string("NB_") + ToString(feature_set_);
}

std::size_t NaiveBayesModel::MemoryFootprintBytes() const {
  std::size_t bytes =
      totals_.class_bytes.size() * (sizeof(std::uint32_t) + sizeof(double));
  bytes += totals_.cond_bytes.size() * (sizeof(CondKey) + sizeof(double));
  for (const auto& dim : totals_.seen_values) {
    bytes += dim.size() * (sizeof(std::uint64_t) + sizeof(bool));
  }
  return bytes;
}

}  // namespace tipsy::core
