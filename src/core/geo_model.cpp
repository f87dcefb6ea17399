#include "core/geo_model.h"

#include <algorithm>
#include <cassert>

namespace tipsy::core {

GeoAugmentedModel::GeoAugmentedModel(const Model* base, const wan::Wan* wan,
                                     const geo::MetroCatalogue* metros)
    : base_(base) {
  assert(base_ != nullptr && wan != nullptr && metros != nullptr);
  geo_ranked_.resize(wan->link_count());
  for (const wan::PeeringLink& link : wan->links()) {
    geo_ranked_[link.id.value()] = wan->LinksOfAsnByDistance(
        link.peer_asn, link.metro, *metros, link.id);
  }
}

std::size_t GeoAugmentedModel::PredictInto(const FlowFeatures& flow,
                                           std::size_t k,
                                           const ExclusionMask* excluded,
                                           std::span<Prediction> out) const {
  if (k > out.size()) k = out.size();
  std::size_t written = base_->PredictInto(flow, k, excluded, out);
  if (written >= k) return written;

  // Anchor on the best match ignoring exclusions: that is where the flow
  // historically entered, and geography is measured from there.
  Prediction anchor;
  if (base_->PredictInto(flow, 1, nullptr, {&anchor, 1}) == 0) {
    return written;
  }

  // Residual probability mass to hand to the geographic guesses: whatever
  // the base predictions left uncovered, split geometrically (closest
  // alternative gets the most).
  double covered = 0.0;
  for (std::size_t i = 0; i < written; ++i) covered += out[i].probability;
  double residual = std::max(0.05, 1.0 - covered);

  auto already_predicted = [&](LinkId link) {
    for (std::size_t i = 0; i < written; ++i) {
      if (out[i].link == link) return true;
    }
    return false;
  };
  for (LinkId link : GeoRanked(anchor.link)) {
    if (written >= k) break;
    if (IsExcluded(excluded, link) || already_predicted(link)) continue;
    residual *= 0.5;
    out[written++] = Prediction{link, residual};
  }
  return written;
}

}  // namespace tipsy::core
