#include "core/historical.h"

#include <algorithm>
#include <cassert>

namespace tipsy::core {

HistoricalModel::HistoricalModel(FeatureSet feature_set,
                                 std::size_t max_links_per_tuple,
                                 bool weight_by_bytes)
    : feature_set_(feature_set),
      max_links_per_tuple_(max_links_per_tuple),
      weight_by_bytes_(weight_by_bytes),
      counts_(feature_set, weight_by_bytes) {
  assert(max_links_per_tuple_ >= 1);
}

void HistoricalModel::Add(const pipeline::AggRow& row) {
  assert(!finalized_);
  counts_.Add(row);
}

void HistoricalModel::EnsureShards(std::size_t count) {
  assert(!finalized_);
  if (shards_.size() >= count) return;
  const std::size_t old_size = shards_.size();
  shards_.resize(count, TupleCountTable(feature_set_, weight_by_bytes_));
  if (reserve_hint_ > 0) {
    const std::size_t per_shard = reserve_hint_ / count + 1;
    for (std::size_t i = old_size; i < count; ++i) {
      shards_[i].Reserve(per_shard);
    }
  }
}

void HistoricalModel::AddToShard(std::size_t shard,
                                 const pipeline::AggRow& row) {
  assert(!finalized_ && shard < shards_.size());
  shards_[shard].Add(row);
}

void HistoricalModel::ReserveTuples(std::size_t expected_tuples) {
  reserve_hint_ = expected_tuples;
  counts_.Reserve(expected_tuples);
}

void HistoricalModel::RankAndTruncate(TupleCountMap& table) const {
  for (auto& [key, entry] : table) {
    std::sort(entry.ranked.begin(), entry.ranked.end(),
              [](const LinkBytes& a, const LinkBytes& b) {
                if (a.bytes != b.bytes) return a.bytes > b.bytes;
                return a.link < b.link;
              });
    if (entry.ranked.size() > max_links_per_tuple_) {
      entry.ranked.resize(max_links_per_tuple_);
    }
  }
}

void HistoricalModel::Serve(const TupleCountMap& ranked) {
  flat_ = FlatTupleTable::Build(ranked);
  finalized_ = true;
}

void HistoricalModel::Finalize() {
  // Shards merge in index order; per tuple every link's byte total is a
  // sum of integer-valued doubles, so the grouping does not change the
  // result and the merged table matches a serial pass bit for bit. The
  // ranked order after RankAndTruncate() is fully determined by
  // (bytes, link) regardless of the insertion order built here.
  for (auto& shard : shards_) {
    counts_.Merge(shard);
    shard.Clear();
  }
  shards_.clear();
  shards_.shrink_to_fit();
  TupleCountMap table = counts_.ReleaseCounts();
  RankAndTruncate(table);
  Serve(table);
}

const FlatTupleTable::Bucket* HistoricalModel::Lookup(
    const FlowFeatures& flow) const {
  if (!HasFeatures(feature_set_, flow)) return nullptr;
  return flat_.Find(MakeTupleKey(feature_set_, flow));
}

std::size_t HistoricalModel::PredictInto(const FlowFeatures& flow,
                                         std::size_t k,
                                         const ExclusionMask* excluded,
                                         std::span<Prediction> out) const {
  assert(finalized_);
  if (k > out.size()) k = out.size();
  if (k == 0) return 0;
  const FlatTupleTable::Bucket* bucket = Lookup(flow);
  if (bucket == nullptr) return 0;
  const std::span<const LinkBytes> ranked = flat_.links(*bucket);
  // Without exclusions, p(l|f) = B(f,l)/B(f). With exclusions the traffic
  // must land somewhere else, so renormalize over the remaining choices.
  double denominator = bucket->total_bytes;
  if (excluded != nullptr) {
    denominator = 0.0;
    for (const auto& lb : ranked) {
      if (!IsExcluded(excluded, lb.link)) denominator += lb.bytes;
    }
  }
  if (denominator <= 0.0) return 0;
  std::size_t written = 0;
  for (const auto& lb : ranked) {
    if (IsExcluded(excluded, lb.link)) continue;
    out[written++] = Prediction{lb.link, lb.bytes / denominator};
    if (written == k) break;
  }
  return written;
}

std::string HistoricalModel::name() const {
  return std::string("Hist_") + ToString(feature_set_);
}

std::size_t HistoricalModel::MemoryFootprintBytes() const {
  return flat_.MemoryFootprintBytes();
}

bool HistoricalModel::Knows(const FlowFeatures& flow) const {
  return Lookup(flow) != nullptr;
}

std::vector<HistoricalModel::TupleExport> HistoricalModel::ExportTable()
    const {
  assert(finalized_);
  std::vector<TupleExport> out;
  out.reserve(flat_.size());
  flat_.ForEachBucket([&](const FlatTupleTable::Bucket& bucket) {
    TupleExport exported;
    exported.key = bucket.key;
    exported.total_bytes = bucket.total_bytes;
    const auto links = flat_.links(bucket);
    exported.ranked.reserve(links.size());
    for (const auto& lb : links) {
      exported.ranked.emplace_back(lb.link, lb.bytes);
    }
    out.push_back(std::move(exported));
  });
  std::sort(out.begin(), out.end(),
            [](const TupleExport& a, const TupleExport& b) {
              if (a.key.hi != b.key.hi) return a.key.hi < b.key.hi;
              return a.key.lo < b.key.lo;
            });
  return out;
}

HistoricalModel HistoricalModel::FromExport(
    FeatureSet feature_set, std::size_t max_links_per_tuple,
    bool weight_by_bytes, const std::vector<TupleExport>& table) {
  HistoricalModel model(feature_set, max_links_per_tuple, weight_by_bytes);
  TupleCountMap ranked;
  ranked.reserve(table.size());
  for (const auto& exported : table) {
    TupleCounts entry;
    entry.total_bytes = exported.total_bytes;
    entry.ranked.reserve(exported.ranked.size());
    for (const auto& [link, bytes] : exported.ranked) {
      entry.ranked.push_back(LinkBytes{link, bytes});
    }
    ranked.emplace(exported.key, std::move(entry));
  }
  // Exported tables were already ranked and truncated.
  model.Serve(ranked);
  return model;
}

HistoricalModel HistoricalModel::FromCounts(std::size_t max_links_per_tuple,
                                            const TupleCountTable& counts,
                                            const TupleCountTable* overlay) {
  HistoricalModel model(counts.feature_set(), max_links_per_tuple,
                        counts.weight_by_bytes());
  // The window aggregate stays untouched (it keeps rolling forward); the
  // model ranks and truncates a private copy, overlay merged on top.
  TupleCountTable merged = counts;
  if (overlay != nullptr) merged.Merge(*overlay);
  TupleCountMap table = merged.ReleaseCounts();
  model.RankAndTruncate(table);
  model.Serve(table);
  return model;
}

}  // namespace tipsy::core
