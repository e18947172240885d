// switchml::WaveEngine over a slot range that does not start at slot 0 — the
// shape every cluster shard task runs — against the per-packet session, the
// protocol's reference oracle: the same loss stream must give the same
// result bits, the same SessionStats, and the same registers (sums, worker
// bitmaps, counters) on the range, and must leave every other slot alone.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/packed.h"
#include "switchml/session.h"
#include "switchml/wave_engine.h"
#include "util/ordered_mutex.h"
#include "util/rng.h"

namespace fpisa::switchml {
namespace {

constexpr int kWorkers = 4;
constexpr int kLanes = 2;
constexpr std::size_t kValues = 150;  // 75 chunks: 10 waves of 8 slots
constexpr SlotRange kRange{5, 13};
constexpr std::size_t kSwitchSlots = 16;
constexpr int kMaxRetransmits = 256;
constexpr std::uint64_t kLossSeed = 191;
/// Per slot: kLanes exponent + mantissa registers, the bitmap, the counter.
constexpr int kRegisters = 2 * kLanes + 2;

std::vector<std::vector<float>> make_workers(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> out(kWorkers, std::vector<float>(kValues));
  for (auto& vec : out) {
    for (auto& v : vec) v = static_cast<float>(rng.normal(0.0, 0.1));
  }
  return out;
}

pisa::FpisaSwitch make_switch(std::size_t slots) {
  pisa::FpisaProgramOptions p;
  p.variant = core::Variant::kApproximate;
  p.lanes = kLanes;
  p.slots = slots;
  p.num_workers = kWorkers;
  return pisa::FpisaSwitch(pisa::SwitchConfig{}, p);
}

/// The per-packet session over kRange.size() slots from slot 0.
struct Reference {
  AggregationSession session;
  std::vector<float> result;

  Reference(const std::vector<std::vector<float>>& workers, double loss)
      : session(pisa::SwitchConfig{}, [&] {
          SessionOptions o;
          o.num_workers = kWorkers;
          o.slots = kRange.size();
          o.lanes = kLanes;
          o.loss_rate = loss;
          o.loss_seed = kLossSeed;
          o.max_retransmits = kMaxRetransmits;
          o.batched = false;
          return o;
        }()),
        result(session.reduce(workers)) {}
};

/// Runs every wave of `chunks` through one engine over kRange.
void run_engine(pisa::FpisaSwitch& sw,
                const std::vector<std::vector<float>>& workers,
                std::span<const std::size_t> chunks, double loss,
                std::vector<float>& out, SessionStats& stats) {
  util::OrderedMutex mu{util::lock_rank::kSessionSwitch};
  util::Rng rng(kLossSeed);
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());
  out.assign(kValues, 0.0f);
  WaveEngine engine(sw, mu, kRange, chunks, views, out,
                    {loss, kMaxRetransmits}, rng, stats);
  for (std::size_t w = 0; w < engine.waves(); ++w) {
    engine.begin_wave(w);
    ASSERT_TRUE(engine.add(0, engine.wave_chunks(), 0)) << "wave " << w;
    engine.flush();
    ASSERT_TRUE(engine.recover(0));
    ASSERT_EQ(engine.collect().failure, 0) << "wave " << w;
  }
}

void expect_bits_eq(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i])) << "i=" << i;
  }
}

TEST(WaveEngine, OffsetRangeMatchesPerPacketSession) {
  const auto workers = make_workers(190);
  std::vector<std::size_t> chunks((kValues + kLanes - 1) / kLanes);
  std::iota(chunks.begin(), chunks.end(), std::size_t{0});
  for (const double loss : {0.0, 0.2}) {
    SCOPED_TRACE(loss);
    Reference ref(workers, loss);
    pisa::FpisaSwitch sw = make_switch(kSwitchSlots);
    std::vector<float> got;
    SessionStats stats;
    run_engine(sw, workers, chunks, loss, got, stats);

    expect_bits_eq(got, ref.result);
    const SessionStats& want = ref.session.stats();
    if (loss > 0.0) {
      EXPECT_GT(want.retransmissions, 0u);
    }
    EXPECT_EQ(stats.packets_sent, want.packets_sent);
    EXPECT_EQ(stats.packets_lost, want.packets_lost);
    EXPECT_EQ(stats.retransmissions, want.retransmissions);
    EXPECT_EQ(stats.duplicates_absorbed, want.duplicates_absorbed);
    EXPECT_EQ(stats.slot_reuses, want.slot_reuses);
    EXPECT_EQ(stats.shard_failures, want.shard_failures);
    EXPECT_EQ(stats.chunks_rerouted, want.chunks_rerouted);
    EXPECT_EQ(stats.failover_retries, want.failover_retries);
    EXPECT_EQ(stats.dead_workers, want.dead_workers);
    EXPECT_EQ(stats.faults.corrupt_rejected, want.faults.corrupt_rejected);
    EXPECT_EQ(stats.faults.stale_dups_rejected,
              want.faults.stale_dups_rejected);
    EXPECT_EQ(stats.faults.epoch_bumps, want.faults.epoch_bumps);
    EXPECT_EQ(stats.faults.workers_declared_dead,
              want.faults.workers_declared_dead);
    EXPECT_EQ(stats.faults.waves_replayed, want.faults.waves_replayed);

    // The range's registers equal the reference's slots [0, size); every
    // slot outside the range was never touched.
    pisa::FpisaSwitch& ref_sw = ref.session.fpisa_switch();
    for (int r = 0; r < kRegisters; ++r) {
      for (std::size_t s = 0; s < kSwitchSlots; ++s) {
        const auto v = sw.sim().reg(r).read(s);
        if (s >= kRange.lo && s < kRange.hi) {
          EXPECT_EQ(v, ref_sw.sim().reg(r).read(s - kRange.lo))
              << "reg=" << r << " slot=" << s;
        } else {
          EXPECT_EQ(v, 0u) << "reg=" << r << " slot=" << s;
        }
      }
    }
  }
}

TEST(WaveEngine, ChunkOrderDoesNotChangeTheSums) {
  // A cluster shard streams an arbitrary chunk subset in any order. Each
  // chunk is one slot fed in worker order, so the sums cannot depend on
  // which wave or slot a chunk lands in — even under loss.
  const auto workers = make_workers(192);
  std::vector<std::size_t> chunks((kValues + kLanes - 1) / kLanes);
  std::iota(chunks.rbegin(), chunks.rend(), std::size_t{0});
  Reference ref(workers, 0.2);
  pisa::FpisaSwitch sw = make_switch(kSwitchSlots);
  std::vector<float> got;
  SessionStats stats;
  run_engine(sw, workers, chunks, 0.2, got, stats);
  expect_bits_eq(got, ref.result);
}

}  // namespace
}  // namespace fpisa::switchml
