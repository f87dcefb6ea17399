// Read-optimized serving table for finalized tuple rankings.
//
// Between retrains the B(f, l) counts are frozen, so the serving side
// does not need a mutable node-based hash map at all. FlatTupleTable is
// built once from a ranked TupleCountMap and then only probed: an
// open-addressing bucket array (32-byte buckets, two per cache line,
// linear probing) plus one contiguous arena holding every tuple's ranked
// links back to back. A lookup touches the probe cache line and then the
// ranked run it points into - no pointer chasing through map nodes and
// no per-tuple std::vector header.
//
// The layout is deterministic: buckets are inserted and the arena is
// filled in key-sorted order, so two tables built from maps with equal
// contents are identical byte for byte regardless of the maps' iteration
// order. Everything a table serves (totals, ranked runs) carries the
// exact double values of the source map, so PredictInto() and
// ExportTable() serve exactly the summed B(f, l) counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/day_shard.h"
#include "core/features.h"

namespace tipsy::core {

class FlatTupleTable {
 public:
  // links_begin == kEmpty marks an unoccupied bucket; occupied buckets
  // index into the links arena (a tuple may legitimately rank 0 links,
  // so link_count cannot be the sentinel).
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  struct alignas(32) Bucket {
    TupleKey key;
    double total_bytes = 0.0;
    std::uint32_t links_begin = kEmpty;
    std::uint32_t link_count = 0;
  };
  static_assert(sizeof(Bucket) == 32, "two buckets per cache line");

  FlatTupleTable() = default;

  // Builds from a finalized (ranked + truncated) map. The map is only
  // read; the caller usually discards it afterwards.
  [[nodiscard]] static FlatTupleTable Build(const TupleCountMap& ranked);

  // The bucket holding `key`, nullptr when the tuple is unknown.
  [[nodiscard]] const Bucket* Find(const TupleKey& key) const {
    if (buckets_.empty()) return nullptr;
    std::size_t i = TupleKeyHash{}(key) & mask_;
    while (true) {
      const Bucket& bucket = buckets_[i];
      if (bucket.links_begin == kEmpty) return nullptr;
      if (bucket.key == key) return &bucket;
      i = (i + 1) & mask_;
    }
  }
  [[nodiscard]] bool Contains(const TupleKey& key) const {
    return Find(key) != nullptr;
  }

  // The bucket's ranked links (bytes desc, link asc), in the arena.
  [[nodiscard]] std::span<const LinkBytes> links(const Bucket& bucket) const {
    return {links_.data() + bucket.links_begin, bucket.link_count};
  }

  // Hints the cache that `key` is about to be probed (its first probe
  // bucket; a displaced key costs at most the following lines). The
  // batched prediction path issues these a few flows ahead.
  void Prefetch(const TupleKey& key) const {
#if defined(__GNUC__) || defined(__clang__)
    if (!buckets_.empty()) {
      __builtin_prefetch(&buckets_[TupleKeyHash{}(key) & mask_]);
    }
#else
    (void)key;
#endif
  }

  // Visits every occupied bucket (hash order - callers needing a
  // deterministic order sort afterwards, as ExportTable() does).
  template <typename Fn>
  void ForEachBucket(Fn&& fn) const {
    for (const Bucket& bucket : buckets_) {
      if (bucket.links_begin != kEmpty) fn(bucket);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] std::size_t MemoryFootprintBytes() const {
    return buckets_.capacity() * sizeof(Bucket) +
           links_.capacity() * sizeof(LinkBytes);
  }

  // --- Build diagnostics, exported as serving-core metrics.
  [[nodiscard]] std::uint64_t build_ns() const { return build_ns_; }
  // Longest probe sequence any Find() can take (1 = every key sits in
  // its home bucket).
  [[nodiscard]] std::size_t max_probe_length() const {
    return max_probe_length_;
  }

 private:
  std::vector<Bucket> buckets_;  // power-of-two size; empty when size_==0
  std::vector<LinkBytes> links_;
  std::size_t mask_ = 0;  // buckets_.size() - 1
  std::size_t size_ = 0;
  std::size_t max_probe_length_ = 0;
  std::uint64_t build_ns_ = 0;
};

}  // namespace tipsy::core
