#include "core/anomaly.h"

#include <algorithm>
#include <cassert>

namespace tipsy::core {

SuspiciousIngressDetector::SuspiciousIngressDetector(const Model* model,
                                                     AnomalyConfig config)
    : model_(model), config_(config) {
  assert(model_ != nullptr);
}

SuspicionVerdict SuspiciousIngressDetector::Check(const FlowFeatures& flow,
                                                  LinkId link) const {
  SuspicionVerdict verdict;
  const auto ranking =
      PredictTopK(*model_, flow, config_.ranking_depth, nullptr);
  if (ranking.empty()) return verdict;  // unknown flow: no basis
  verdict.known_flow = true;
  for (const auto& p : ranking) {
    if (p.link == link) {
      verdict.plausibility = p.probability;
      break;
    }
  }
  verdict.suspicious = verdict.plausibility < config_.min_probability;
  return verdict;
}

std::vector<FlaggedObservation> SuspiciousIngressDetector::Scan(
    std::span<const pipeline::AggRow> rows) const {
  std::vector<FlaggedObservation> flagged;
  for (const auto& row : rows) {
    const auto bytes = static_cast<double>(row.bytes);
    if (bytes < config_.min_bytes) continue;
    const FlowFeatures flow{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service};
    const auto verdict = Check(flow, row.link);
    if (verdict.known_flow && verdict.suspicious) {
      flagged.push_back(FlaggedObservation{flow, row.link, bytes,
                                           verdict.plausibility});
    }
  }
  std::sort(flagged.begin(), flagged.end(),
            [](const FlaggedObservation& a, const FlaggedObservation& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return a.link < b.link;
            });
  return flagged;
}

}  // namespace tipsy::core
