#include "core/ensemble.h"

#include <cassert>

namespace tipsy::core {

SequentialEnsemble::SequentialEnsemble(std::vector<const Model*> stages,
                                       std::string label)
    : stages_(std::move(stages)), label_(std::move(label)) {
  assert(!stages_.empty());
  stage_hits_ = std::vector<obs::Counter>(stages_.size() + 1);
}

std::size_t SequentialEnsemble::PredictInto(const FlowFeatures& flow,
                                            std::size_t k,
                                            const ExclusionMask* excluded,
                                            std::span<Prediction> out) const {
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const std::size_t written = stages_[i]->PredictInto(flow, k, excluded, out);
    if (written > 0) {
      last_stage_.store(static_cast<int>(i), std::memory_order_relaxed);
      TIPSY_OBS_ONLY(stage_hits_[i].Increment();)
      return written;
    }
  }
  last_stage_.store(-1, std::memory_order_relaxed);
  TIPSY_OBS_ONLY(stage_hits_.back().Increment();)
  return 0;
}

std::size_t SequentialEnsemble::MemoryFootprintBytes() const {
  // The ensemble's cost is the sum of its components (§4.3).
  std::size_t bytes = 0;
  for (const Model* stage : stages_) {
    bytes += stage->MemoryFootprintBytes();
  }
  return bytes;
}

}  // namespace tipsy::core
