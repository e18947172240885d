#include "switchml/session.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <string>

#include "core/packed.h"

namespace fpisa::switchml {

using Clock = std::chrono::steady_clock;

namespace {
std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Rejects options the switch program must never be built for: checked
/// before the switch is constructed.
SessionOptions checked(SessionOptions opts) {
  if (opts.num_workers < 1 || opts.num_workers > 32) {
    throw std::invalid_argument(
        "session: num_workers must be in [1, 32] (the worker bitmap is 32 "
        "bits wide)");
  }
  if (opts.slots == 0) {
    throw std::invalid_argument("session: needs at least one slot");
  }
  if (opts.fault.enabled && !opts.batched) {
    throw std::invalid_argument(
        "fault injection requires the batched datapath (the guarded ingress "
        "is a batch interface)");
  }
  return opts;
}
}  // namespace

AggregationSession::AggregationSession(pisa::SwitchConfig config,
                                       SessionOptions opts)
    : opts_(checked(opts)),
      switch_(config,
              [&] {
                pisa::FpisaProgramOptions p;
                p.variant = config.ext.rsaw ? core::Variant::kFull
                                            : core::Variant::kApproximate;
                p.lanes = opts.lanes;
                p.slots = opts.slots;
                p.num_workers = opts.num_workers;
                return p;
              }()),
      loss_rng_(opts.loss_seed),
      lane_buf_(static_cast<std::size_t>(opts.lanes), 0) {
  init_metrics();
}

void AggregationSession::init_metrics() {
  static std::atomic<int> next_id{0};
  const std::string id = std::to_string(next_id.fetch_add(1));
  auto& reg = telemetry::registry();
  m_waves_ = &reg.counter("switchml_session_waves_total", {{"sess", id}});
  m_retrans_ =
      &reg.counter("switchml_session_retransmissions_total", {{"sess", id}});
  m_lost_ =
      &reg.counter("switchml_session_packets_lost_total", {{"sess", id}});
  m_phase_[0] = &reg.histogram("switchml_session_phase_seconds",
                               {{"sess", id}, {"phase", "add"}},
                               telemetry::MetricsRegistry::time_buckets());
  m_phase_[1] = &reg.histogram("switchml_session_phase_seconds",
                               {{"sess", id}, {"phase", "collect"}},
                               telemetry::MetricsRegistry::time_buckets());
}

void AggregationSession::note_wave(std::uint64_t add_ns,
                                   std::uint64_t collect_ns) {
  add_ns_ += add_ns;
  collect_ns_ += collect_ns;
  if (!telemetry::enabled()) return;
  m_waves_->inc();
  m_phase_[0]->observe(static_cast<double>(add_ns) / 1e9);
  m_phase_[1]->observe(static_cast<double>(collect_ns) / 1e9);
  if (stats_.retransmissions != stats_flushed_.retransmissions) {
    m_retrans_->inc(stats_.retransmissions - stats_flushed_.retransmissions);
  }
  if (stats_.packets_lost != stats_flushed_.packets_lost) {
    m_lost_->inc(stats_.packets_lost - stats_flushed_.packets_lost);
  }
  stats_flushed_ = stats_;
}

bool AggregationSession::send_add(std::uint16_t slot, std::uint8_t worker,
                                  std::span<const std::uint32_t> values,
                                  pisa::FpisaResult* out) {
  bool delivered_before = false;
  for (int attempt = 0; attempt <= opts_.max_retransmits; ++attempt) {
    if (attempt > 0) ++stats_.retransmissions;
    ++stats_.packets_sent;

    // Request direction.
    if (loss_rng_.next_double() < opts_.loss_rate) {
      ++stats_.packets_lost;
      continue;  // switch never saw it: retransmit after "timeout"
    }
    if (delivered_before) ++stats_.duplicates_absorbed;
    delivered_before = true;
    const pisa::FpisaResult r = switch_.add(slot, worker, values);

    // Response direction.
    if (loss_rng_.next_double() < opts_.loss_rate) {
      ++stats_.packets_lost;
      continue;  // ack lost: worker retransmits; switch dedups
    }
    *out = r;
    return true;
  }
  return false;
}

std::vector<float> AggregationSession::reduce(
    std::span<const std::vector<float>> workers) {
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());
  std::vector<float> result(workers.empty() ? 0 : workers.front().size(),
                            0.0f);
  reduce_into(views, result);
  return result;
}

void AggregationSession::reduce_into(
    std::span<const std::span<const float>> workers, std::span<float> result) {
  if (static_cast<int>(workers.size()) != opts_.num_workers) {
    throw std::invalid_argument("session: expected num_workers worker views");
  }
  const std::size_t n = workers.front().size();
  for (const auto w : workers) {
    if (w.size() != n) {
      throw std::invalid_argument("session: worker vectors differ in length");
    }
  }
  if (result.size() != n) {
    throw std::invalid_argument("session: out span length mismatch");
  }
  if (!opts_.batched) {
    reduce_per_packet(workers, result);
    return;
  }
  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  const std::size_t chunks = (n + lanes - 1) / lanes;
  for (std::size_t c = chunk_ids_.size(); c < chunks; ++c) {
    chunk_ids_.push_back(c);
  }
  const WaveEngine::Wire wire{opts_.loss_rate, opts_.max_retransmits};
  const std::span<const std::size_t> ids(chunk_ids_.data(), chunks);
  if (!opts_.fault.enabled) {
    WaveEngine engine(switch_, switch_mu_, {0, opts_.slots}, ids, workers,
                      result, wire, loss_rng_, stats_);
    run_waves(engine, result, 0);
    return;
  }
  // The guarded protocol: every delivered copy runs through the fault
  // engine, every batch through the stamp/checksum guard, and a dead-worker
  // policy drives the retry loop.
  fault::FaultEngine faults(opts_.fault, opts_.fault.seed, opts_.lanes);
  WaveEngine engine(switch_, switch_mu_, {0, opts_.slots}, ids, workers,
                    result, wire, loss_rng_, stats_, &faults);
  std::uint32_t dead_mask = 0;
  for (;;) {
    try {
      run_waves(engine, result, dead_mask);
      return;
    } catch (const fault::WorkerDeadError& e) {
      stats_.faults.workers_declared_dead++;
      stats_.dead_workers |= 1u << e.worker();
      dead_mask |= 1u << e.worker();
      if (opts_.fault.dead_worker_policy == fault::DeadWorkerPolicy::kAbort ||
          std::popcount(dead_mask) >= opts_.num_workers) {
        throw;
      }
      // Degrade: abandon the partial attempt — scrub every slot (bumps the
      // epochs, so any in-flight stragglers from the dead attempt are
      // stale), forget the fault engine's ghosts, and rerun the job over
      // the survivors.
      engine.drain(opts_.slots);
      faults.clear_pending();
      faults.drop_ghosts();
      engine.resync_stamps();
      stats_.faults.epoch_bumps++;
    }
  }
}

void AggregationSession::run_waves(WaveEngine& engine, std::span<float> result,
                                   std::uint32_t dead_mask) {
  std::fill(result.begin(), result.end(), 0.0f);
  for (std::size_t w = 0; w < engine.waves(); ++w) {
    const Clock::time_point t_wave = Clock::now();
    engine.begin_wave(w);
    if (!engine.add(0, engine.wave_chunks(), dead_mask)) {
      const WaveEngine::AddFailure& f = engine.add_failure();
      throw RetransmitExhaustedError(RetransmitExhaustedError::Phase::kAdd,
                                     f.slot, f.worker);
    }
    engine.flush();
    if (!engine.recover(dead_mask)) {
      throw std::runtime_error(
          "switch state loss not recoverable within the wave-replay budget");
    }
    const Clock::time_point t_collect = Clock::now();
    const CollectSchedule sched = engine.collect();
    // A never-reset slot would swallow the next wave's adds through the
    // dedup bitmap — fail loudly rather than aggregate silently wrong.
    if (sched.failure != 0) {
      throw RetransmitExhaustedError(
          sched.failure == 1 ? RetransmitExhaustedError::Phase::kRead
                             : RetransmitExhaustedError::Phase::kReset,
          static_cast<std::uint16_t>(sched.cleared), -1);
    }
    note_wave(ns_between(t_wave, t_collect),
              ns_between(t_collect, Clock::now()));
  }
}

void AggregationSession::reduce_per_packet(
    std::span<const std::span<const float>> workers, std::span<float> result) {
  const std::size_t n = result.size();
  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  const std::size_t chunks = (n + lanes - 1) / lanes;
  std::fill(result.begin(), result.end(), 0.0f);

  for (std::size_t base = 0; base < chunks; base += opts_.slots) {
    const std::size_t wave_end = std::min(base + opts_.slots, chunks);
    const Clock::time_point t_wave = Clock::now();
    for (std::size_t c = base; c < wave_end; ++c) {
      const auto slot = static_cast<std::uint16_t>(c - base);
      for (int w = 0; w < opts_.num_workers; ++w) {
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::size_t i = c * lanes + l;
          lane_buf_[l] =
              i < n ? core::fp32_bits(workers[static_cast<std::size_t>(w)][i])
                    : 0;
        }
        pisa::FpisaResult r;
        if (!send_add(slot, static_cast<std::uint8_t>(w), lane_buf_, &r)) {
          throw RetransmitExhaustedError(
              RetransmitExhaustedError::Phase::kAdd, slot, w);
        }
      }
    }
    const Clock::time_point t_collect = Clock::now();
    // Collect + recycle every slot of the wave: an idempotent read
    // (retried until acknowledged), then a reset (extra resets re-clear an
    // already-empty slot, which is harmless once the value is captured).
    for (std::size_t c = base; c < wave_end; ++c) {
      const auto slot = static_cast<std::uint16_t>(c - base);
      bool have = false;
      for (int attempt = 0; attempt <= opts_.max_retransmits && !have;
           ++attempt) {
        ++stats_.packets_sent;
        if (loss_rng_.next_double() < opts_.loss_rate) {
          ++stats_.packets_lost;
          continue;
        }
        switch_.read_into(slot, result_buf_);
        if (loss_rng_.next_double() < opts_.loss_rate) {
          ++stats_.packets_lost;
          continue;
        }
        have = true;
      }
      if (!have) {
        throw RetransmitExhaustedError(
            RetransmitExhaustedError::Phase::kRead, slot, -1);
      }

      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t i = c * lanes + l;
        if (i < n) {
          result[i] = core::fp32_value(result_buf_.values[l]);
        }
      }

      bool cleared = false;
      for (int attempt = 0; attempt <= opts_.max_retransmits; ++attempt) {
        ++stats_.packets_sent;
        if (loss_rng_.next_double() < opts_.loss_rate) {
          ++stats_.packets_lost;
          continue;
        }
        switch_.read_and_reset_into(slot, result_buf_);
        ++stats_.slot_reuses;
        cleared = true;
        if (loss_rng_.next_double() >= opts_.loss_rate) break;
        ++stats_.packets_lost;  // ack lost: re-clearing is harmless
      }
      if (!cleared) {
        // A never-reset slot would swallow the next wave's adds through the
        // dedup bitmap — fail loudly rather than aggregate silently wrong.
        throw RetransmitExhaustedError(
            RetransmitExhaustedError::Phase::kReset, slot, -1);
      }
    }
    note_wave(ns_between(t_wave, t_collect),
              ns_between(t_collect, Clock::now()));
  }
}

}  // namespace fpisa::switchml
