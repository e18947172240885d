#include "switchml/wave_engine.h"

#include <algorithm>
#include <bit>

#include "core/packed.h"

namespace fpisa::switchml {

CollectSchedule draw_collect_schedule(std::size_t n, double loss_rate,
                                      int max_retransmits, util::Rng& rng,
                                      SessionStats& stats) {
  CollectSchedule sched;
  for (std::size_t k = 0; k < n; ++k) {
    bool have = false;
    for (int attempt = 0; attempt <= max_retransmits && !have; ++attempt) {
      ++stats.packets_sent;
      if (rng.next_double() < loss_rate) {
        ++stats.packets_lost;
        continue;
      }
      ++sched.delivered;
      if (rng.next_double() < loss_rate) {
        ++stats.packets_lost;
        continue;
      }
      have = true;
    }
    if (!have) {
      sched.failure = 1;
      return sched;
    }
    bool cleared_slot = false;
    for (int attempt = 0; attempt <= max_retransmits; ++attempt) {
      ++stats.packets_sent;
      if (rng.next_double() < loss_rate) {
        ++stats.packets_lost;
        continue;
      }
      ++sched.delivered;
      ++stats.slot_reuses;
      cleared_slot = true;
      if (rng.next_double() >= loss_rate) break;
      ++stats.packets_lost;  // ack lost: re-clearing is harmless
    }
    if (!cleared_slot) {
      sched.failure = 2;
      return sched;
    }
    ++sched.cleared;
  }
  return sched;
}

WaveEngine::WaveEngine(pisa::FpisaSwitch& sw, util::OrderedMutex& mu,
                       SlotRange range, std::span<const std::size_t> chunks,
                       std::span<const std::span<const float>> workers,
                       std::span<float> out, Wire wire, util::Rng& rng,
                       SessionStats& stats, fault::FaultEngine* faults)
    : sw_(sw),
      mu_(mu),
      range_(range),
      chunks_(chunks),
      workers_(workers),
      out_(out),
      wire_(wire),
      rng_(rng),
      stats_(stats),
      faults_(faults),
      lanes_(static_cast<std::size_t>(sw.options().lanes)),
      lane_buf_(lanes_, 0),
      wave_values_(range.size() * lanes_, 0) {
  if (faults_ != nullptr) resync_stamps();
}

std::size_t WaveEngine::waves() const {
  const std::size_t wave = range_.size();
  return wave == 0 ? 0 : (chunks_.size() + wave - 1) / wave;
}

void WaveEngine::begin_wave(std::size_t w) {
  wave_ = w;
  base_ = w * range_.size();
  end_ = std::min(base_ + range_.size(), chunks_.size());
  if (faults_ != nullptr) faults_->begin_wave(w);
}

void WaveEngine::encode(std::size_t c, int w) {
  const std::size_t n = out_.size();
  const std::span<const float> v = workers_[static_cast<std::size_t>(w)];
  for (std::size_t l = 0; l < lanes_; ++l) {
    const std::size_t i = c * lanes_ + l;
    lane_buf_[l] = i < n ? core::fp32_bits(v[i]) : 0;
  }
}

bool WaveEngine::add(std::size_t from, std::size_t to,
                     std::uint32_t dead_mask) {
  const int nw = static_cast<int>(workers_.size());
  for (std::size_t k = from; k < to; ++k) {
    const auto slot = static_cast<std::uint16_t>(range_.lo + k);
    for (int w = 0; w < nw; ++w) {
      if (dead_mask & (1u << static_cast<unsigned>(w))) continue;
      // An injected dead worker's packets never arrive.
      if (faults_ != nullptr && faults_->worker_silent(w, wave_)) continue;
      encode(chunks_[base_ + k], w);
      const auto worker = static_cast<std::uint8_t>(w);
      const bool ok = faults_ != nullptr
                          ? queue_add_guarded(slot, worker, stamps_[k])
                          : queue_add(slot, worker);
      if (!ok) {
        flush();
        failure_ = {slot, w};
        return false;
      }
    }
  }
  return true;
}

bool WaveEngine::queue_add(std::uint16_t slot, std::uint8_t worker) {
  // The loss schedule depends only on the rng stream, never on the switch,
  // so it is drawn here in the per-packet protocol's exact order; every copy
  // the switch would have seen is queued in arrival order (the dedup bitmap
  // absorbs the duplicates when the batch is applied).
  bool delivered_before = false;
  for (int attempt = 0; attempt <= wire_.max_retransmits; ++attempt) {
    if (attempt > 0) ++stats_.retransmissions;
    ++stats_.packets_sent;

    if (rng_.next_double() < wire_.loss_rate) {
      ++stats_.packets_lost;
      continue;  // request lost: retransmit after "timeout"
    }
    if (delivered_before) ++stats_.duplicates_absorbed;
    delivered_before = true;
    q_slots_.push_back(slot);
    q_workers_.push_back(worker);
    q_values_.insert(q_values_.end(), lane_buf_.begin(), lane_buf_.end());

    if (rng_.next_double() < wire_.loss_rate) {
      ++stats_.packets_lost;
      continue;  // ack lost: worker retransmits; switch bitmap dedups
    }
    return true;
  }
  return false;
}

bool WaveEngine::queue_add_guarded(std::uint16_t slot, std::uint8_t worker,
                                   std::uint32_t stamp) {
  // Same loss schedule as queue_add, from the same rng in the same order.
  // A corrupted copy still reaches the switch (which rejects and counts
  // it), but no ack is possible for it: keep retransmitting.
  bool delivered_before = false;
  for (int attempt = 0; attempt <= wire_.max_retransmits; ++attempt) {
    if (attempt > 0) ++stats_.retransmissions;
    ++stats_.packets_sent;

    if (rng_.next_double() < wire_.loss_rate) {
      ++stats_.packets_lost;
      continue;
    }
    if (!faults_->deliver(slot, worker, stamp, lane_buf_)) continue;
    if (delivered_before) ++stats_.duplicates_absorbed;
    delivered_before = true;

    if (rng_.next_double() < wire_.loss_rate) {
      ++stats_.packets_lost;
      continue;
    }
    return true;
  }
  return false;
}

void WaveEngine::note_guard(const pisa::FpisaSwitch::GuardStats& guard) {
  stats_.faults.corrupt_rejected += guard.corrupt_rejected;
  stats_.faults.stale_dups_rejected += guard.stale_rejected;
}

void WaveEngine::clear_queue() {
  q_slots_.clear();
  q_workers_.clear();
  q_values_.clear();
}

void WaveEngine::flush() {
  if (faults_ == nullptr) {
    if (!q_slots_.empty()) {
      util::LockGuard lk(mu_);
      sw_.add_batch(q_slots_, q_workers_, q_values_);
    }
    clear_queue();
    return;
  }
  faults_->shuffle_pending();
  if (faults_->pending() != 0) {
    pisa::FpisaSwitch::GuardStats guard;
    {
      util::LockGuard lk(mu_);
      sw_.add_batch_guarded(faults_->slots(), faults_->workers(),
                            faults_->stamps(), faults_->checksums(),
                            faults_->values(), guard);
    }
    note_guard(guard);
  }
  faults_->clear_pending();
}

void WaveEngine::resync_stamps() {
  util::LockGuard lk(mu_);
  stamps_.resize(range_.size());
  for (std::size_t k = 0; k < range_.size(); ++k) {
    stamps_[k] = sw_.slot_stamp(static_cast<std::uint16_t>(range_.lo + k));
  }
  mirror_generation_ = sw_.generation();
}

bool WaveEngine::recover(std::uint32_t dead_mask) {
  if (faults_ == nullptr) return true;
  const std::size_t wave_n = wave_chunks();
  const int nw = static_cast<int>(workers_.size());
  // Injected whole-switch state loss lands after the wave's adds.
  if (faults_->should_wipe(wave_)) {
    util::LockGuard lk(mu_);
    sw_.wipe_state();
  }

  // State loss: while the switch generation disagrees with the mirror,
  // everything this wave added is gone. Resync the mirror and replay the
  // wave from the worker views through one reliable guarded batch — the
  // dedup bitmap absorbs any copy that did survive, so replay is
  // idempotent.
  int replays = 0;
  for (;;) {
    {
      util::LockGuard lk(mu_);
      if (sw_.generation() == mirror_generation_) break;
    }
    if (replays++ >= faults_->options().max_wave_replays) return false;
    resync_stamps();
    ++stats_.faults.epoch_bumps;
    clear_queue();
    replay_stamps_.clear();
    replay_checksums_.clear();
    for (std::size_t k = 0; k < wave_n; ++k) {
      const auto slot = static_cast<std::uint16_t>(range_.lo + k);
      for (int w = 0; w < nw; ++w) {
        if (dead_mask & (1u << static_cast<unsigned>(w))) continue;
        if (faults_->worker_silent(w, wave_)) continue;
        encode(chunks_[base_ + k], w);
        const auto worker = static_cast<std::uint8_t>(w);
        q_slots_.push_back(slot);
        q_workers_.push_back(worker);
        q_values_.insert(q_values_.end(), lane_buf_.begin(), lane_buf_.end());
        replay_stamps_.push_back(stamps_[k]);
        replay_checksums_.push_back(
            pisa::fpisa_checksum(slot, worker, stamps_[k], lane_buf_));
      }
    }
    if (!q_slots_.empty()) {
      pisa::FpisaSwitch::GuardStats guard;
      {
        util::LockGuard lk(mu_);
        sw_.add_batch_guarded(q_slots_, q_workers_, replay_stamps_,
                              replay_checksums_, q_values_, guard);
      }
      note_guard(guard);
    }
    clear_queue();
    ++stats_.faults.waves_replayed;
  }

  // Wave deadline: loss is retried to acknowledgment, so a live worker
  // whose dedup bit is clear in EVERY wave slot is silent, not unlucky.
  // Declare the lowest such worker dead.
  std::uint32_t expected = 0;
  for (int w = 0; w < nw; ++w) {
    if (!(dead_mask & (1u << static_cast<unsigned>(w)))) {
      expected |= 1u << static_cast<unsigned>(w);
    }
  }
  bitmaps_.resize(wave_n);
  {
    util::LockGuard lk(mu_);
    sw_.read_batch(static_cast<std::uint16_t>(range_.lo), wave_n,
                   {wave_values_.data(), wave_n * lanes_}, bitmaps_);
  }
  std::uint32_t missing = expected;
  for (std::size_t k = 0; k < wave_n; ++k) missing &= ~bitmaps_[k];
  if (missing != 0) {
    throw fault::WorkerDeadError(std::countr_zero(missing), wave_);
  }
  return true;
}

CollectSchedule WaveEngine::collect() {
  const std::size_t wave_n = wave_chunks();
  const CollectSchedule sched = draw_collect_schedule(
      wave_n, wire_.loss_rate, wire_.max_retransmits, rng_, stats_);
  // Drain the cleared prefix in one compiled-egress call (values are read
  // before the clear, the per-slot read-then-reset order); a failed slot
  // and everything after it stay untouched, as they would per packet.
  {
    util::LockGuard lk(mu_);
    sw_.read_and_reset_batch(static_cast<std::uint16_t>(range_.lo),
                             sched.cleared,
                             {wave_values_.data(), sched.cleared * lanes_});
    sw_.sim().account_packets(sched.delivered - sched.cleared);
  }
  if (sched.failure != 0) return sched;

  const std::size_t n = out_.size();
  for (std::size_t k = 0; k < wave_n; ++k) {
    const std::size_t c = chunks_[base_ + k];
    for (std::size_t l = 0; l < lanes_; ++l) {
      const std::size_t i = c * lanes_ + l;
      if (i < n) out_[i] = core::fp32_value(wave_values_[k * lanes_ + l]);
    }
  }
  if (faults_ != nullptr) {
    // Every wave slot was reset, bumping its epoch on the switch: advance
    // the mirror in lockstep, so the next wave's adds carry the fresh stamp
    // and any ghost still buffered from this wave is provably stale.
    for (std::size_t k = 0; k < wave_n; ++k) {
      stamps_[k] = (stamps_[k] & 0xFFFF0000u) | ((stamps_[k] + 1u) & 0xFFFFu);
    }
  }
  return sched;
}

void WaveEngine::drain(std::size_t n) {
  util::LockGuard lk(mu_);
  sw_.read_and_reset_batch(static_cast<std::uint16_t>(range_.lo), n,
                           {wave_values_.data(), n * lanes_});
}

}  // namespace fpisa::switchml
