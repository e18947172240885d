// The SwitchML wave protocol (SwitchML §4, as FPISA runs it in §5), written
// once for every caller: a run of chunks is streamed through a slot range in
// waves of range-size chunks. Per wave, every worker's packet for every
// chunk is added with retransmission (the switch's worker bitmap makes
// retransmits idempotent), then each slot is read (idempotent, retried
// until acknowledged) and reset so the next wave can reuse it.
//
// The engine draws the loss schedule from the caller's rng in the exact
// per-packet protocol order, queues every copy the switch would have
// received, and applies each phase through the FpisaSwitch batch API under
// the switch's mutex: one add_batch (or add_batch_guarded) per wave, one
// read_and_reset_batch per collect. With a fault::FaultEngine attached it
// runs the guarded protocol: epoch-stamped, checksummed adds, wave replay
// after switch state loss, and the dead-worker bitmap probe.
//
// Callers keep only their short wave loop and their error mapping:
// switchml::AggregationSession is one engine over [0, slots) with the
// identity chunk list (its per-packet path stays as the reference oracle),
// and every cluster shard task is one engine over its tenant-private
// SlotRange.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/accumulator.h"
#include "fault/fault.h"
#include "pisa/fpisa_program.h"
#include "util/ordered_mutex.h"
#include "util/rng.h"

namespace fpisa::switchml {

/// A half-open run of aggregation slots [lo, hi) on one switch.
struct SlotRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t size() const { return hi - lo; }
  bool empty() const { return hi <= lo; }
};

struct SessionStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_absorbed = 0;  ///< dedup hits at the switch
  std::uint64_t slot_reuses = 0;
  // Failover accounting (cluster fabric; zero on single-switch sessions).
  std::uint64_t shard_failures = 0;   ///< shards declared dead serving this
  std::uint64_t chunks_rerouted = 0;  ///< chunks re-homed onto survivors
  std::uint64_t failover_retries = 0; ///< clean retry passes run
  /// Byzantine-fault injection/recovery books (zero with faults disabled).
  fault::FaultCounters faults{};
  /// Bitmask of workers declared dead while serving this. A monotone mask,
  /// not a count: several shards may each declare the same worker dead, and
  /// kMean-over-survivors needs the distinct-worker population.
  std::uint32_t dead_workers = 0;
  /// Per-MAU kernel operation counts (§5.2.1 taxonomy), carried through
  /// every merge so table-level accounting survives aggregation end to
  /// end. Populated where a layer exclusively owns its switch (sessions,
  /// cluster per-shard books); zero where attribution is ambiguous
  /// (concurrent jobs sharing switches).
  core::OpCounters ops{};

  /// Centralized merge (cluster/shard/tenant accounting all use this).
  SessionStats& operator+=(const SessionStats& o) {
    packets_sent += o.packets_sent;
    packets_lost += o.packets_lost;
    retransmissions += o.retransmissions;
    duplicates_absorbed += o.duplicates_absorbed;
    slot_reuses += o.slot_reuses;
    shard_failures += o.shard_failures;
    chunks_rerouted += o.chunks_rerouted;
    failover_retries += o.failover_retries;
    faults += o.faults;
    dead_workers |= o.dead_workers;
    ops += o.ops;
    return *this;
  }
  /// Delta against an earlier snapshot of the same cumulative stats (used
  /// to attribute one reduce out of a long-lived session's running total).
  SessionStats& operator-=(const SessionStats& o) {
    packets_sent -= o.packets_sent;
    packets_lost -= o.packets_lost;
    retransmissions -= o.retransmissions;
    duplicates_absorbed -= o.duplicates_absorbed;
    slot_reuses -= o.slot_reuses;
    shard_failures -= o.shard_failures;
    chunks_rerouted -= o.chunks_rerouted;
    failover_retries -= o.failover_retries;
    faults -= o.faults;
    // Delta semantics for a monotone mask: keep only the workers that died
    // after the `o` snapshot was taken.
    dead_workers &= ~o.dead_workers;
    ops -= o.ops;
    return *this;
  }
};

/// Outcome of drawing a wave's collect (read + reset) loss schedule in the
/// per-packet protocol order, without touching the switch.
struct CollectSchedule {
  std::uint64_t delivered = 0;  ///< switch traversals the schedule implies
  std::size_t cleared = 0;      ///< prefix of slots whose reset was delivered
  int failure = 0;              ///< 0: none, 1: read failed, 2: reset failed
};

/// Draws the per-slot read/reset retry schedule for `n` slots exactly as
/// the per-slot collect loop would — same rng draw order, same
/// packets_sent / packets_lost / slot_reuses counting. Reads are
/// idempotent and re-clearing an already-reset slot is a no-op, so ONE
/// physical read-and-reset per fully-collected slot (the `cleared`
/// prefix) plus `delivered` accounted traversals reproduces the per-slot
/// protocol's register evolution and packet accounting exactly.
CollectSchedule draw_collect_schedule(std::size_t n, double loss_rate,
                                      int max_retransmits, util::Rng& rng,
                                      SessionStats& stats);

/// One run of the wave protocol over one slot range of one switch. Wave w
/// carries chunks[w * range.size() ...] on slots range.lo + 0, 1, ...;
/// chunk c holds values [c * lanes, (c + 1) * lanes) of every worker view
/// (zero-padded past the end) and its sum lands in the same span of `out`.
/// Every switch access takes `mu`; the engine holds no lock between calls.
class WaveEngine {
 public:
  /// The job's wire: loss probability per packet (each way) and the
  /// per-packet retransmit budget.
  struct Wire {
    double loss_rate = 0.0;
    int max_retransmits = 0;
  };
  /// Where the add phase gave up: the slot and worker of the packet that
  /// exhausted its retransmit budget.
  struct AddFailure {
    std::uint16_t slot = 0;
    int worker = 0;
  };

  /// With `faults` set, the engine runs the guarded protocol and seeds its
  /// stamp mirror from the switch here. Every referenced object must
  /// outlive the engine.
  WaveEngine(pisa::FpisaSwitch& sw, util::OrderedMutex& mu, SlotRange range,
             std::span<const std::size_t> chunks,
             std::span<const std::span<const float>> workers,
             std::span<float> out, Wire wire, util::Rng& rng,
             SessionStats& stats, fault::FaultEngine* faults = nullptr);

  std::size_t waves() const;
  /// Starts wave `w` (releasing the fault engine's ghosts into it).
  void begin_wave(std::size_t w);
  /// Chunks in the current wave (the last wave may be short).
  std::size_t wave_chunks() const { return end_ - base_; }

  /// Queues every live worker's packet for the current wave's chunks
  /// [from, to), in chunk-then-worker order, skipping workers in
  /// `dead_mask`. On retransmit exhaustion the copies already received are
  /// applied (the register state a per-packet run leaves behind), the
  /// failure is recorded and false is returned.
  bool add(std::size_t from, std::size_t to, std::uint32_t dead_mask);
  const AddFailure& add_failure() const { return failure_; }
  /// Applies the queued copies in one add batch.
  void flush();
  /// Guarded protocol only (a no-op returning true otherwise): applies a
  /// scheduled switch wipe, replays the wave from the worker views while the
  /// switch generation disagrees with the mirror, then throws
  /// fault::WorkerDeadError for a live worker absent from every wave slot.
  /// Returns false when the replay budget runs out.
  bool recover(std::uint32_t dead_mask);
  /// Draws the wave's read/reset schedule, drains the cleared prefix in one
  /// read_and_reset_batch and, when every slot was collected, writes the
  /// sums into `out` and advances the stamp mirror. A schedule with
  /// failure != 0 leaves `out` untouched; its failed slot is
  /// range.lo + cleared.
  CollectSchedule collect();
  /// Reads and resets the range's first `n` slots outside the protocol (no
  /// loss, no packet accounting): a shard dying mid-collect, or a scrub.
  void drain(std::size_t n);
  /// Re-reads the range's slot stamps and the switch generation into the
  /// host mirror.
  void resync_stamps();

 private:
  /// Lane-encodes chunk `c` of worker `w` into lane_buf_.
  void encode(std::size_t c, int w);
  /// Draws one packet's loss schedule and queues every delivered copy.
  bool queue_add(std::uint16_t slot, std::uint8_t worker);
  /// queue_add through the fault engine: delivered copies carry the slot's
  /// stamp and may be corrupted, duplicated or held back as ghosts; a
  /// corrupted copy does not count as delivered.
  bool queue_add_guarded(std::uint16_t slot, std::uint8_t worker,
                         std::uint32_t stamp);
  /// Books the guard's rejections.
  void note_guard(const pisa::FpisaSwitch::GuardStats& guard);
  void clear_queue();

  pisa::FpisaSwitch& sw_;
  util::OrderedMutex& mu_;
  SlotRange range_;
  std::span<const std::size_t> chunks_;
  std::span<const std::span<const float>> workers_;
  std::span<float> out_;
  Wire wire_;
  util::Rng& rng_;
  SessionStats& stats_;
  fault::FaultEngine* faults_;
  std::size_t lanes_;

  std::size_t wave_ = 0;  ///< current wave: chunks [base_, end_)
  std::size_t base_ = 0;
  std::size_t end_ = 0;
  AddFailure failure_;

  // Reused across waves: zero steady-state allocation on the hot path.
  std::vector<std::uint16_t> q_slots_;  ///< queued copies, arrival order
  std::vector<std::uint8_t> q_workers_;
  std::vector<std::uint32_t> q_values_;
  std::vector<std::uint32_t> lane_buf_;
  std::vector<std::uint32_t> wave_values_;  ///< collect / probe results
  // Guarded-protocol state.
  std::vector<std::uint32_t> stamps_;  ///< host mirror of the range's stamps
  std::uint16_t mirror_generation_ = 0;
  std::vector<std::uint32_t> bitmaps_;  ///< dead-worker probe
  std::vector<std::uint32_t> replay_stamps_;
  std::vector<std::uint16_t> replay_checksums_;
};

}  // namespace fpisa::switchml
