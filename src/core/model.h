// Model interface shared by historical, Naive Bayes, ensemble, geographic,
// and oracle predictors.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/features.h"
#include "pipeline/aggregate.h"
#include "util/ids.h"

namespace tipsy::core {

using util::LinkId;

// One predicted ingress link and the fraction of the flow's bytes expected
// to arrive on it (§3.1: the probability value predicts what fraction of
// the flow's bytes will arrive on that link).
struct Prediction {
  LinkId link;
  double probability = 0.0;
};

// Optional per-query prior: links the model must not predict because they
// are known to be unavailable (down, or the prefix was withdrawn there).
// Indexed by LinkId value; nullptr means no exclusions.
using ExclusionMask = std::vector<bool>;

class Model {
 public:
  virtual ~Model() = default;

  // Writes up to min(k, out.size()) predictions into `out`, most likely
  // first, probabilities renormalized over the non-excluded choices, and
  // returns how many were written. Zero when the model has no prediction
  // for this flow (ensembles fall through on that). Allocation-free, so
  // the batched serving path (TipsyService::PredictShift) and the
  // evaluator keep a heap allocation off every per-flow query.
  [[nodiscard]] virtual std::size_t PredictInto(
      const FlowFeatures& flow, std::size_t k, const ExclusionMask* excluded,
      std::span<Prediction> out) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  // Approximate resident size, for the Table 3 / Table 11 cost analysis.
  [[nodiscard]] virtual std::size_t MemoryFootprintBytes() const = 0;
};

// Up to k predictions as a vector: sizes a buffer and calls PredictInto.
// For callers off the serving hot path (tests, examples, diagnostics).
[[nodiscard]] inline std::vector<Prediction> PredictTopK(
    const Model& model, const FlowFeatures& flow, std::size_t k,
    const ExclusionMask* excluded) {
  std::vector<Prediction> out(k);
  out.resize(model.PredictInto(flow, k, excluded, out));
  return out;
}

// Convenience used by implementations.
[[nodiscard]] inline bool IsExcluded(const ExclusionMask* excluded,
                                     LinkId link) {
  return excluded != nullptr && link.value() < excluded->size() &&
         (*excluded)[link.value()];
}

}  // namespace tipsy::core
