// Packet-level in-network aggregation session (paper §5 / SwitchML §4):
// a vector is chunked across aggregation slots; every worker sends one
// packet per (chunk, slot); the switch aggregates and the packet that
// completes a slot's bitmap carries the result back. Lost packets are
// retransmitted after a timeout; the switch's worker bitmap makes
// retransmissions idempotent (dedup), and slots are reused round-robin via
// read-and-reset once their result is collected.
//
// This drives the REAL pisa::FpisaSwitch pipeline — it is the end-to-end
// integration of parser, MAUs, stateful ALUs and deparser, with failure
// injection for the loss-recovery path.
//
// Two datapaths, identical in every observable (results, stats, switch
// register evolution — proven in tests/test_switchml_session.cpp):
//  * batched (default): one switchml::WaveEngine over [0, slots) — each
//    wave's packets go through one FpisaSwitch::add_batch and its collect
//    through one read_and_reset_batch, with the loss schedule drawn in the
//    exact per-packet order.
//  * per-packet: one simulator traversal per packet (the reference).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "pisa/fpisa_program.h"
#include "switchml/wave_engine.h"
#include "telemetry/metrics.h"
#include "util/ordered_mutex.h"
#include "util/rng.h"

namespace fpisa::switchml {

struct SessionOptions {
  int num_workers = 4;
  std::size_t slots = 64;        ///< aggregation slots in the switch
  int lanes = 1;                 ///< FP values per packet
  double loss_rate = 0.0;        ///< probability a packet (either way) drops
  std::uint64_t loss_seed = 1;
  int max_retransmits = 64;      ///< per packet, before giving up
  /// Batched fast paths (add_batch waves + read_and_reset_batch collects)
  /// vs the per-packet reference protocol. Identical observables.
  bool batched = true;
  /// Byzantine-wire fault injection + the guarded recovery protocol
  /// (epoch-stamped, checksummed adds; wave replay; dead-worker policy).
  /// Requires the batched datapath.
  fault::FaultOptions fault;
};

/// A packet exhausted its retransmit budget: the protocol cannot make
/// progress without risking a silently wrong aggregate. Carries which
/// protocol phase gave up and the slot/worker context, like ShardDeadError
/// carries the shard (worker is -1 for the read/reset phases, which are
/// not worker-specific).
class RetransmitExhaustedError : public std::runtime_error {
 public:
  enum class Phase { kAdd, kRead, kReset };
  RetransmitExhaustedError(Phase phase, std::uint16_t slot, int worker)
      : std::runtime_error(
            std::string(phase == Phase::kAdd
                            ? "aggregation packet exceeded retransmits"
                        : phase == Phase::kRead
                            ? "read packet exceeded retransmits"
                            : "reset packet exceeded retransmits") +
            " (slot " + std::to_string(slot) +
            (worker >= 0 ? ", worker " + std::to_string(worker) : "") + ")"),
        phase_(phase),
        slot_(slot),
        worker_(worker) {}
  Phase phase() const { return phase_; }
  std::uint16_t slot() const { return slot_; }
  int worker() const { return worker_; }

 private:
  Phase phase_;
  std::uint16_t slot_;
  int worker_;
};

/// Aggregates `workers` equal-length FP32 vectors through a switch,
/// packet by packet, tolerating packet loss. Returns the aggregated sum.
class AggregationSession {
 public:
  /// Throws std::invalid_argument when num_workers is outside [1, 32] (the
  /// worker bitmap is 32 bits wide), slots is 0, or fault injection is
  /// asked of the per-packet datapath.
  AggregationSession(pisa::SwitchConfig config, SessionOptions opts);

  /// Zero-copy reduce over worker views (span-of-spans into caller-owned
  /// storage): the sum lands in `out`. Throws std::invalid_argument unless
  /// there are num_workers views of one length and out has that length.
  void reduce_into(std::span<const std::span<const float>> workers,
                   std::span<float> out);
  /// Legacy allocating form — materializes views (never the gradients) and
  /// forwards to reduce_into.
  std::vector<float> reduce(std::span<const std::vector<float>> workers);

  /// Cumulative protocol stats; `.ops` reflects the owned switch's kernel
  /// operation counters at call time (the session has exclusive access).
  const SessionStats& stats() const {
    stats_.ops = switch_.op_counters();
    return stats_;
  }
  pisa::FpisaSwitch& fpisa_switch() { return switch_; }

  /// Wall time split between the add (scatter) and collect (read+reset)
  /// protocol phases across all reduces — the same currency the cluster
  /// service exposes, here for the single-switch backend.
  telemetry::PhaseBreakdown phase_breakdown() const {
    return {static_cast<double>(add_ns_) / 1e9,
            static_cast<double>(collect_ns_) / 1e9};
  }

 private:
  /// One attempt at the whole job on the batched datapath, skipping the
  /// workers in `dead_mask`. Throws RetransmitExhaustedError, or
  /// fault::WorkerDeadError when a worker misses a wave deadline.
  void run_waves(WaveEngine& engine, std::span<float> result,
                 std::uint32_t dead_mask);
  /// The per-packet reference protocol: one simulator traversal per packet.
  void reduce_per_packet(std::span<const std::span<const float>> workers,
                         std::span<float> result);
  /// Sends one worker's packet for a chunk; applies loss on both
  /// directions; returns the switch's response if it survived.
  bool send_add(std::uint16_t slot, std::uint8_t worker,
                std::span<const std::uint32_t> values,
                pisa::FpisaResult* out);

  void init_metrics();
  /// Accumulates one wave's timings and pushes stats deltas to the registry.
  void note_wave(std::uint64_t add_ns, std::uint64_t collect_ns);

  SessionOptions opts_;
  pisa::FpisaSwitch switch_;
  /// Taken by the wave engine around every switch access; the session owns
  /// its switch, so it is never contended.
  util::OrderedMutex switch_mu_{util::lock_rank::kSessionSwitch};
  util::Rng loss_rng_;
  mutable SessionStats stats_{};  ///< mutable: stats() refreshes .ops

  std::uint64_t add_ns_ = 0;      ///< add-phase wall time across reduces
  std::uint64_t collect_ns_ = 0;  ///< collect-phase wall time
  SessionStats stats_flushed_{};  ///< registry high-water marks
  telemetry::Counter* m_waves_ = nullptr;
  telemetry::Counter* m_retrans_ = nullptr;
  telemetry::Counter* m_lost_ = nullptr;
  telemetry::Histogram* m_phase_[2] = {};  ///< [0]=add, [1]=collect

  /// The identity chunk list 0, 1, 2, ... the engine walks; grown on demand.
  std::vector<std::size_t> chunk_ids_;
  // Per-packet path scratch.
  std::vector<std::uint32_t> lane_buf_;
  pisa::FpisaResult result_buf_;
};

}  // namespace fpisa::switchml
