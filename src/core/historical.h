// The Historical model (§3.3.1).
//
// Training is a single byte-weighted pass: group ingress bytes by (tuple,
// link), then rank links per tuple. Prediction is a table lookup:
// p(l|f) = B(f, l) / B(f), with the top-k links by probability returned.
// Its known limitation - no transfer learning across tuples, no prediction
// at all for unseen tuples - is what the ensembles and the geographic
// augmentation compensate for.
//
// Accumulation is delegated to core/day_shard.h's TupleCountTable, the
// same mergeable counts the incremental retrainer keeps per day; this
// class owns what makes the counts a servable model: ranking, top-k
// truncation and prediction. A finalized model serves from a
// FlatTupleTable; the accumulation map is only its build input and is
// freed once the table is built.
#pragma once

#include "core/day_shard.h"
#include "core/flat_table.h"
#include "core/model.h"

namespace tipsy::core {

class HistoricalModel : public Model {
 public:
  // `max_links_per_tuple` bounds the ranking kept after finalization; the
  // paper keeps only the top-k links per tuple for scalability (§4.3).
  // `weight_by_bytes=false` is the ablation of §3.3's sample weighting:
  // every observation counts 1 instead of its byte volume.
  explicit HistoricalModel(FeatureSet feature_set,
                           std::size_t max_links_per_tuple = 16,
                           bool weight_by_bytes = true);

  // Streaming, byte-weighted training. Call Finalize() before predicting.
  void Add(const pipeline::AggRow& row);
  void Finalize();

  // --- Shard-local accumulation for parallel training. Each shard owns a
  // private partial table; shard s may only be written by one thread at a
  // time (TipsyService assigns shard s to row chunk s). Finalize() merges
  // the shards into the main table in shard order. Because byte counts
  // are integers (exactly representable in doubles far below 2^53) the
  // merged sums — and therefore ExportTable() and every prediction — are
  // bit-identical to a serial Add() over the same rows.
  void EnsureShards(std::size_t count);
  void AddToShard(std::size_t shard, const pipeline::AggRow& row);
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  // Capacity hint for the tuple tables (satellite of the parallel
  // substrate PR: avoid rehash churn on the training hot path).
  void ReserveTuples(std::size_t expected_tuples);

  [[nodiscard]] std::size_t PredictInto(
      const FlowFeatures& flow, std::size_t k, const ExclusionMask* excluded,
      std::span<Prediction> out) const override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t MemoryFootprintBytes() const override;

  [[nodiscard]] FeatureSet feature_set() const { return feature_set_; }
  [[nodiscard]] std::size_t tuple_count() const {
    return finalized_ ? flat_.size() : counts_.tuple_count();
  }
  [[nodiscard]] bool finalized() const { return finalized_; }
  // The flat serving table (empty until finalized). Exposed for
  // serving-core metrics and benches.
  [[nodiscard]] const FlatTupleTable& flat_table() const { return flat_; }

  // Prefetches the tuple's serving bucket. The batched prediction path
  // calls this a few flows ahead of the probe; `key` must come from
  // MakeTupleKey(feature_set(), flow).
  void PrefetchTuple(const TupleKey& key) const { flat_.Prefetch(key); }

  // Whether the model has any ranking for the flow's tuple (used by tests
  // and by the fall-through logic diagnostics).
  [[nodiscard]] bool Knows(const FlowFeatures& flow) const;

  [[nodiscard]] std::size_t max_links_per_tuple() const {
    return max_links_per_tuple_;
  }
  [[nodiscard]] bool weight_by_bytes() const { return weight_by_bytes_; }

  // --- Persistence support: a plain-data view of the trained table.
  struct TupleExport {
    TupleKey key;
    double total_bytes = 0.0;
    std::vector<std::pair<LinkId, double>> ranked;
  };
  // Finalized models only; deterministic order (sorted by key).
  [[nodiscard]] std::vector<TupleExport> ExportTable() const;
  // Rebuilds a finalized model from an exported table.
  static HistoricalModel FromExport(FeatureSet feature_set,
                                    std::size_t max_links_per_tuple,
                                    bool weight_by_bytes,
                                    const std::vector<TupleExport>& table);

  // Builds a finalized model directly from accumulated window counts,
  // optionally overlaying one more partial table (the retrainer's
  // still-unfolded newest day) - the incremental retraining path. The
  // result is bit-identical to training a model over the rows the counts
  // were accumulated from: sums are exact and the ranking depends only on
  // the summed (bytes, link) pairs.
  static HistoricalModel FromCounts(std::size_t max_links_per_tuple,
                                    const TupleCountTable& counts,
                                    const TupleCountTable* overlay = nullptr);

 private:
  // Sorts every tuple's links by (bytes desc, link asc) and truncates to
  // max_links_per_tuple_.
  void RankAndTruncate(TupleCountMap& table) const;
  // Builds the flat serving table from a ranked + truncated map and marks
  // the model servable; the map is only the build input.
  void Serve(const TupleCountMap& ranked);
  // The serving bucket for `flow`'s tuple; nullptr when the model cannot
  // key or has never seen the flow.
  [[nodiscard]] const FlatTupleTable::Bucket* Lookup(
      const FlowFeatures& flow) const;

  FeatureSet feature_set_;
  std::size_t max_links_per_tuple_;
  bool weight_by_bytes_;
  bool finalized_ = false;
  std::size_t reserve_hint_ = 0;
  // Pre-finalization accumulation (serial path) ...
  TupleCountTable counts_;
  std::vector<TupleCountTable> shards_;
  // ... and the finalized, ranked + truncated serving table.
  FlatTupleTable flat_;
};

}  // namespace tipsy::core
