// Geographic-distance augmentation, Hist_{AL+G} (§3.3.1).
//
// When the base model knows fewer than k alternative ingress links for a
// flow - common under unseen withdrawals - take the peer AS and ingress
// metro of the base model's best match and append that AS'es other peering
// interfaces ranked by geographic distance from it. This encodes hot-potato
// routing: under an outage the traffic tends to show up at the peer's next
// nearest interconnection, and the WAN knows the exact location of every
// one of its peering links.
#pragma once

#include "core/model.h"
#include "geo/geo.h"
#include "wan/wan.h"

namespace tipsy::core {

class GeoAugmentedModel : public Model {
 public:
  // `base` is borrowed and must outlive the model; `wan` and `metros`
  // are only read here, to precompute the geographic rankings.
  GeoAugmentedModel(const Model* base, const wan::Wan* wan,
                    const geo::MetroCatalogue* metros);

  [[nodiscard]] std::size_t PredictInto(
      const FlowFeatures& flow, std::size_t k, const ExclusionMask* excluded,
      std::span<Prediction> out) const override;

  [[nodiscard]] std::string name() const override {
    return base_->name() + "+G";
  }
  [[nodiscard]] std::size_t MemoryFootprintBytes() const override {
    return base_->MemoryFootprintBytes();
  }

 private:
  // The geographic fallback ranking when `anchor` is the historical best
  // match: anchor's peer AS'es other interfaces by distance from it.
  [[nodiscard]] std::span<const LinkId> GeoRanked(LinkId anchor) const {
    return geo_ranked_[anchor.value()];
  }

  const Model* base_;
  // Precomputed per possible anchor link (indexed by LinkId value): the
  // WAN topology is immutable for the model's lifetime, so the distance
  // sort is paid once at construction instead of per query.
  std::vector<std::vector<LinkId>> geo_ranked_;
};

}  // namespace tipsy::core
