// Model persistence.
//
// TIPSY runs as a service that retrains daily (§4); operationally the
// trained tables need to move between the training job and the serving
// path, survive restarts, and be archived for post-incident analysis
// (§2/§6 replay incidents against models "trained on data ending the day
// before"). This is a compact, versioned binary format for the historical
// models and the whole service bundle.
//
// Format v2 (the only version) wraps every model section in a length +
// CRC-32C frame: a crash mid-save, a truncated copy or a flipped bit fails
// the load with a typed Status instead of producing a silently-wrong
// model. Any other version (including the unchecksummed v1) is a typed
// kVersionMismatch.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "core/historical.h"
#include "core/tipsy_service.h"
#include "util/status.h"

namespace tipsy::core {

// --- Single historical model.
void SaveModel(const HistoricalModel& model, std::ostream& out);
// kCorrupt / kVersionMismatch / kTruncated with a message on bad input;
// never crashes or over-allocates on hostile bytes.
[[nodiscard]] util::StatusOr<HistoricalModel> LoadModel(std::istream& in);

// --- Whole service bundle (the three historical models; ensembles and
// the geographic augmentation are reconstructed structurally).
void SaveService(const TipsyService& service, std::ostream& out);
[[nodiscard]] util::StatusOr<std::unique_ptr<TipsyService>> LoadService(
    std::istream& in, const wan::Wan* wan,
    const geo::MetroCatalogue* metros, TipsyConfig config = {});

// --- Crash-safe file round-trips: serialize to memory, then
// write-temp + fsync + rename (util::WriteFileAtomic), so a crash
// mid-save never leaves a half-written bundle at `path`.
[[nodiscard]] util::Status SaveServiceToFile(const TipsyService& service,
                                             const std::string& path);
[[nodiscard]] util::StatusOr<std::unique_ptr<TipsyService>>
LoadServiceFromFile(const std::string& path, const wan::Wan* wan,
                    const geo::MetroCatalogue* metros,
                    TipsyConfig config = {});

}  // namespace tipsy::core
