// Reference fold of the paper's Hist_* estimator (§3.3.1), the oracle the
// serving-core tests check the optimized tables against.
//
// Deliberately naive and independent of the production code path: rows
// are folded into a std::map keyed on the raw feature fields themselves
// (no packed tuple keys, no count tables, no flat tables), links are
// ranked by (bytes desc, link asc) and truncated to max_links_per_tuple,
// and a prediction is computed straight from the spec:
//
//   p(l|f) = B(f, l) / B(f)
//
// over the untruncated tuple total B(f), returning the top-k ranked
// links. Given an exclusion mask, the probabilities are renormalized over
// the non-excluded ranked links instead. With weight_by_bytes = false
// (the §3.3 ablation) every row counts 1 instead of its byte volume.
//
// Every count is an integer-valued double far below 2^53, so the sums are
// exact in any order and the fold must agree with the flat tables bit for
// bit.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/model.h"
#include "pipeline/aggregate.h"

namespace tipsy::reference {

class ReferenceFold {
 public:
  using RankedLinks = std::vector<std::pair<util::LinkId, double>>;

  // One folded tuple, for comparison against HistoricalModel::ExportTable.
  struct Tuple {
    core::FlowFeatures flow;  // a flow with exactly this tuple's features
    double total_bytes = 0.0;
    RankedLinks ranked;
  };

  ReferenceFold(core::FeatureSet feature_set, std::size_t max_links_per_tuple,
                bool weight_by_bytes = true)
      : feature_set_(feature_set),
        max_links_per_tuple_(max_links_per_tuple),
        weight_by_bytes_(weight_by_bytes) {}

  void Add(const pipeline::AggRow& row) {
    const core::FlowFeatures flow{row.src_asn, row.src_prefix24, row.src_metro,
                                  row.dest_region, row.dest_service};
    if (!Keyable(flow)) return;
    const double weight =
        weight_by_bytes_ ? static_cast<double>(row.bytes) : 1.0;
    Entry& entry = tuples_[KeyOf(flow)];
    entry.total_bytes += weight;
    entry.link_bytes[row.link.value()] += weight;
  }
  template <typename Rows>
  void AddAll(const Rows& rows) {
    for (const auto& row : rows) Add(row);
  }

  [[nodiscard]] std::size_t tuple_count() const { return tuples_.size(); }

  [[nodiscard]] bool Knows(const core::FlowFeatures& flow) const {
    return Keyable(flow) && tuples_.contains(KeyOf(flow));
  }

  // Up to k predictions, most likely first, straight from the spec.
  [[nodiscard]] std::vector<core::Prediction> Predict(
      const core::FlowFeatures& flow, std::size_t k,
      const core::ExclusionMask* excluded) const {
    std::vector<core::Prediction> out;
    if (k == 0 || !Keyable(flow)) return out;
    const auto it = tuples_.find(KeyOf(flow));
    if (it == tuples_.end()) return out;
    const RankedLinks ranked = Rank(it->second);
    double denominator = it->second.total_bytes;
    if (excluded != nullptr) {
      denominator = 0.0;
      for (const auto& [link, bytes] : ranked) {
        if (!core::IsExcluded(excluded, link)) denominator += bytes;
      }
    }
    if (denominator <= 0.0) return out;
    for (const auto& [link, bytes] : ranked) {
      if (out.size() == k) break;
      if (core::IsExcluded(excluded, link)) continue;
      out.push_back(core::Prediction{link, bytes / denominator});
    }
    return out;
  }

  // Every folded tuple, ranked and truncated, in raw-key order.
  [[nodiscard]] std::vector<Tuple> Tuples() const {
    std::vector<Tuple> out;
    out.reserve(tuples_.size());
    for (const auto& [key, entry] : tuples_) {
      core::FlowFeatures flow;
      flow.src_asn = util::AsId{key.asn};
      flow.src_prefix24 = util::Ipv4Prefix(util::Ipv4Addr(key.prefix_bits),
                                           key.prefix_length);
      flow.src_metro = util::MetroId{key.metro};
      flow.dest_region = util::RegionId{key.region};
      flow.dest_service = static_cast<wan::ServiceType>(key.service);
      out.push_back(Tuple{flow, entry.total_bytes, Rank(entry)});
    }
    return out;
  }

 private:
  // The raw fields the feature set keys on; the others stay zero.
  struct RawKey {
    std::uint32_t asn = 0;
    std::uint32_t region = 0;
    std::uint32_t service = 0;
    std::uint32_t prefix_bits = 0;
    std::uint32_t prefix_length = 0;
    std::uint32_t metro = 0;
    auto operator<=>(const RawKey&) const = default;
  };
  struct Entry {
    double total_bytes = 0.0;
    std::map<std::uint32_t, double> link_bytes;
  };

  // §3.2: every set needs the source AS; AP adds the /24, AL the metro.
  [[nodiscard]] bool Keyable(const core::FlowFeatures& flow) const {
    if (!flow.src_asn.valid()) return false;
    switch (feature_set_) {
      case core::FeatureSet::kA: return true;
      case core::FeatureSet::kAP: return flow.src_prefix24.length() == 24;
      case core::FeatureSet::kAL: return flow.src_metro.valid();
    }
    return false;
  }

  [[nodiscard]] RawKey KeyOf(const core::FlowFeatures& flow) const {
    RawKey key;
    key.asn = flow.src_asn.value();
    key.region = flow.dest_region.value();
    key.service = static_cast<std::uint32_t>(flow.dest_service);
    if (feature_set_ == core::FeatureSet::kAP) {
      key.prefix_bits = flow.src_prefix24.address().bits();
      key.prefix_length = flow.src_prefix24.length();
    } else if (feature_set_ == core::FeatureSet::kAL) {
      key.metro = flow.src_metro.value();
    }
    return key;
  }

  [[nodiscard]] RankedLinks Rank(const Entry& entry) const {
    RankedLinks ranked;
    for (const auto& [link, bytes] : entry.link_bytes) {
      ranked.emplace_back(util::LinkId{link}, bytes);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (ranked.size() > max_links_per_tuple_) {
      ranked.resize(max_links_per_tuple_);
    }
    return ranked;
  }

  core::FeatureSet feature_set_;
  std::size_t max_links_per_tuple_;
  bool weight_by_bytes_;
  std::map<RawKey, Entry> tuples_;
};

}  // namespace tipsy::reference
