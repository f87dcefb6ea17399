// Sequential model ensembles (§3.3.1).
//
// A/B means: answer with model A unless it has no prediction for the flow,
// then fall through to B. The paper composes Hist_AP / Hist_AL / Hist_A so
// the most specific (most accurate) model answers first and the less
// specific ones contribute transfer learning for unseen tuples. Sequential
// composition, not voting, is deliberate (§3.3.1).
#pragma once

#include <atomic>
#include <vector>

#include "core/model.h"
#include "obs/metrics.h"

namespace tipsy::core {

class SequentialEnsemble : public Model {
 public:
  // `stages` are borrowed; they must outlive the ensemble. `label` names
  // the composition, e.g. "Hist_AP/AL/A".
  SequentialEnsemble(std::vector<const Model*> stages, std::string label);

  [[nodiscard]] std::size_t PredictInto(
      const FlowFeatures& flow, std::size_t k, const ExclusionMask* excluded,
      std::span<Prediction> out) const override;

  [[nodiscard]] std::string name() const override { return label_; }
  [[nodiscard]] std::size_t MemoryFootprintBytes() const override;

  // Which stage answered the last query (-1 if none); cheap diagnostics
  // for the fall-through statistics in tests. Relaxed atomic so the
  // parallel evaluator may call PredictInto concurrently.
  [[nodiscard]] int last_stage() const {
    return last_stage_.load(std::memory_order_relaxed);
  }

  // Per-stage answer counters (optional instrumentation: frozen at zero
  // under TIPSY_NO_OBS). stage_hits(i) counts queries stage i answered;
  // miss_count() counts queries every stage fell through.
  [[nodiscard]] std::size_t stage_count() const { return stages_.size(); }
  [[nodiscard]] std::uint64_t stage_hits(std::size_t i) const {
    return stage_hits_[i].value();
  }
  [[nodiscard]] std::uint64_t miss_count() const {
    return stage_hits_.back().value();
  }
  // The raw counters, for registration (registry borrows them).
  [[nodiscard]] const obs::Counter& stage_hit_counter(std::size_t i) const {
    return stage_hits_[i];
  }
  [[nodiscard]] const obs::Counter& miss_counter() const {
    return stage_hits_.back();
  }

 private:
  std::vector<const Model*> stages_;
  std::string label_;
  mutable std::atomic<int> last_stage_{-1};
  // stage_hits_[i] for stage i, one extra trailing slot for misses.
  mutable std::vector<obs::Counter> stage_hits_;
};

}  // namespace tipsy::core
