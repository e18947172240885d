// Chunk -> shard routing plus per-shard slot-range allocation for the
// rack-scale aggregation service. Routing is deterministic (the same job
// always lands on the same shards, so retransmissions find their state) and
// slot ranges are disjoint per tenant, so concurrent jobs sharing a shard
// never touch each other's aggregation registers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "switchml/wave_engine.h"

namespace fpisa::cluster {

enum class RoutingPolicy {
  kHash,   ///< splitmix64(chunk ^ salt) % shards — spreads hot prefixes
  kRange,  ///< contiguous chunk blocks per shard — locality, trivial debug
};

const char* routing_policy_name(RoutingPolicy p);

/// Deterministic chunk -> shard placement for a job of `total_chunks`.
class ShardRouter {
 public:
  ShardRouter(int num_shards, RoutingPolicy policy, std::uint64_t salt = 0);

  int num_shards() const { return num_shards_; }
  RoutingPolicy policy() const { return policy_; }

  /// Shard owning chunk `chunk` of a `total_chunks`-chunk job.
  int route(std::size_t chunk, std::size_t total_chunks) const;

  /// All chunks of a job grouped per shard; each shard's list is ascending.
  /// Every chunk in [0, total_chunks) appears in exactly one list.
  std::vector<std::vector<std::size_t>> partition(
      std::size_t total_chunks) const;

  /// Failover placement: deterministically re-homes `chunks` (a dead
  /// shard's chunk set, ascending) onto the surviving shards in `alive`
  /// (ascending ids, must exclude `dead_shard`). Salt-stable — the target
  /// of a chunk depends only on (chunk, salt, dead_shard, alive set), never
  /// on call order or timing, so a job's retry pass and a later job routing
  /// around the same corpse agree on placement. Always hash-spread (even
  /// under kRange) so the survivors absorb the load evenly. Returns one
  /// ascending list per shard (num_shards() entries; non-survivors empty).
  std::vector<std::vector<std::size_t>> reroute(
      std::span<const std::size_t> chunks, int dead_shard,
      std::span<const int> alive) const;
  /// Convenience: every shard except `dead_shard` survives.
  std::vector<std::vector<std::size_t>> reroute(
      std::span<const std::size_t> chunks, int dead_shard) const;

 private:
  int num_shards_;
  RoutingPolicy policy_;
  std::uint64_t salt_;
};

/// A half-open run of aggregation slots [lo, hi) on one shard: the range a
/// shard task's switchml::WaveEngine streams its waves through.
using switchml::SlotRange;

/// First-fit free-list allocator over one shard's aggregation slots.
/// Concurrent tenants receive disjoint ranges; release() coalesces
/// neighbours so the pool does not fragment across job churn.
///
/// allocate(want) returns a range of up to `want` slots: the first free
/// block large enough, else the largest free block (a smaller range just
/// means more protocol waves, not failure). Returns nullopt only when the
/// shard has zero free slots — callers wait and retry on release.
class SlotRangeAllocator {
 public:
  explicit SlotRangeAllocator(std::size_t total_slots);

  std::size_t total_slots() const { return total_; }
  std::size_t free_slots() const;

  std::optional<SlotRange> allocate(std::size_t want);
  void release(const SlotRange& r);

 private:
  std::size_t total_;
  std::vector<SlotRange> free_;  ///< sorted by lo, non-adjacent
};

}  // namespace fpisa::cluster
