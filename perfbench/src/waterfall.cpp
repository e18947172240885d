// The layer waterfall: each layer below the live service is driven through
// its own public entry point, single-threaded, on the workload's own first
// input and geometry (lanes, slots per job, loss, guard). A layer's self
// time is its time minus the time of the layer below on the same work.
// Every layer's output is checked bit for bit against the core reference.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "core/batch_accumulator.h"
#include "core/vector_accumulator.h"
#include "pisa/fpisa_program.h"
#include "switchml/session.h"

namespace perfbench {

namespace {

namespace fcore = fpisa::core;
namespace fpisa_ = fpisa::pisa;

/// Runs `rep` (which times its own parts into the vector it is given) until
/// both `min_reps` reps and `budget_s` seconds have passed; returns the
/// per-part medians.
template <typename Rep>
std::vector<double> median_parts(std::size_t parts, Rep rep,
                                 double budget_s = 0.6, int min_reps = 5) {
  std::vector<std::vector<double>> samples(parts);
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  std::vector<double> t(parts);
  for (int r = 0; r < min_reps || Clock::now() < until; ++r) {
    std::fill(t.begin(), t.end(), 0.0);
    rep(t);
    for (std::size_t p = 0; p < parts; ++p) samples[p].push_back(t[p]);
  }
  std::vector<double> out;
  for (auto& s : samples) out.push_back(median(std::move(s)));
  return out;
}

/// A quiet NaN no reference sum holds. Every output buffer is filled with
/// it (untimed) before each repetition, so a stage that stops writing its
/// output fails the check instead of passing on an earlier result.
constexpr std::uint32_t kPoisonBits = 0x7fc0dead;

void poison(std::span<std::uint32_t> out) {
  std::fill(out.begin(), out.end(), kPoisonBits);
}
void poison(std::span<float> out) {
  std::fill(out.begin(), out.end(), std::bit_cast<float>(kPoisonBits));
}

/// The workload's first job as the switch sees it: per-worker FP32 bits
/// and the wave-ordered packet stream (per chunk, one packet per worker),
/// exactly the order the session's batched wave loop queues them in.
struct Packets {
  std::vector<std::vector<std::uint32_t>> bits;  ///< [worker][value]
  std::vector<std::uint16_t> slots;
  std::vector<std::uint8_t> workers;
  std::vector<std::uint32_t> values;
};

Packets make_packets(const Workload& w, const JobInput& in) {
  Packets p;
  for (const auto& v : in.data) {
    auto& b = p.bits.emplace_back(v.size());
    std::memcpy(b.data(), v.data(), v.size() * 4);
  }
  const std::size_t chunks = w.values / kLanes;
  for (std::size_t c = 0; c < chunks; ++c) {
    for (int k = 0; k < w.workers; ++k) {
      p.slots.push_back(static_cast<std::uint16_t>(c % w.slots_per_job));
      p.workers.push_back(static_cast<std::uint8_t>(k));
      const auto& b = p.bits[static_cast<std::size_t>(k)];
      p.values.insert(p.values.end(), b.begin() + c * kLanes,
                      b.begin() + (c + 1) * kLanes);
    }
  }
  return p;
}

/// Calls `wave(base_chunk, chunks_in_wave)` for every wave of the job.
template <typename F>
void for_each_wave(const Workload& w, F wave) {
  const std::size_t chunks = w.values / kLanes;
  for (std::size_t base = 0; base < chunks; base += w.slots_per_job) {
    wave(base, std::min(w.slots_per_job, chunks - base));
  }
}

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

}  // namespace

void run_waterfall(const Workload& w, std::uint64_t seed,
                   const Inputs& inputs, Tally& tally, Metrics& m,
                   std::string& notes) {
  const JobInput& in = inputs.front().front();
  const fpisa::cluster::ClusterOptions copts = cluster_options(w, seed);
  const fcore::AccumulatorConfig cfg = reference_config(copts.switch_config);
  const Packets pk = make_packets(w, in);
  const double lane_adds = static_cast<double>(w.workers) *
                           static_cast<double>(w.values);
  const auto n = static_cast<double>(w.values);
  const auto wk = static_cast<std::size_t>(w.workers);
  std::vector<std::uint32_t> out_bits(w.values);
  const auto check_bits = [&] {
    ++tally.attempted;
    const std::span<const float> out(
        reinterpret_cast<const float*>(out_bits.data()), out_bits.size());
    if (!bit_exact(out, in.reference)) ++tally.mismatched;
  };

  // Each stage's state (register file, switch, session) persists across
  // reps, as it does across jobs in the service: every wave's read-and-reset
  // leaves it clear for the next. Each wave's input is first copied
  // (untimed) into a wave-sized buffer, as the session's encode step leaves
  // it, so the timed calls read cache-hot input as they do in the session.
  Packets wave;

  // core: the SIMD kernels over a wave-sized register file, wave by wave.
  fcore::RegisterFile regs(w.slots_per_job * kLanes);
  fcore::OpCounters ctr;
  const std::vector<double> core = median_parts(2, [&](std::vector<double>& t) {
    poison(out_bits);
    for_each_wave(w, [&](std::size_t base, std::size_t len_chunks) {
      const std::size_t off = base * kLanes, len = len_chunks * kLanes;
      const std::span<std::int32_t> e(regs.exp.data(), len);
      const std::span<std::int64_t> mm(regs.man.data(), len);
      wave.bits.resize(pk.bits.size());
      for (std::size_t k = 0; k < pk.bits.size(); ++k) {
        wave.bits[k].assign(pk.bits[k].begin() + off,
                            pk.bits[k].begin() + off + len);
      }
      const Clock::time_point t0 = Clock::now();
      for (const auto& b : wave.bits) {
        fcore::fpisa_add_batch(b, e, mm, cfg, ctr);
      }
      t[0] += since(t0);
      const Clock::time_point t1 = Clock::now();
      fcore::fpisa_read_reset_batch(e, mm, std::span(out_bits).subspan(off, len),
                                    cfg);
      t[1] += since(t1);
    });
    check_bits();
  });

  // pisa: the switch's batched ingress and egress on the packet stream,
  // plain and guarded (valid stamps and checksums, computed untimed).
  fpisa_::FpisaProgramOptions po;
  po.variant = cfg.variant;
  po.lanes = kLanes;
  po.slots = w.slots_per_job;
  po.num_workers = w.workers;
  // Copies the wave's packets into `wave`; returns the packet count.
  const auto load_wave = [&](std::size_t base, std::size_t len_chunks) {
    const std::size_t p0 = base * wk, np = len_chunks * wk;
    wave.slots.assign(pk.slots.begin() + p0, pk.slots.begin() + p0 + np);
    wave.workers.assign(pk.workers.begin() + p0,
                        pk.workers.begin() + p0 + np);
    wave.values.assign(pk.values.begin() + p0 * kLanes,
                       pk.values.begin() + (p0 + np) * kLanes);
    return np;
  };
  fpisa_::FpisaSwitch sw(copts.switch_config, po);
  const std::vector<double> pisa = median_parts(2, [&](std::vector<double>& t) {
    poison(out_bits);
    for_each_wave(w, [&](std::size_t base, std::size_t len_chunks) {
      load_wave(base, len_chunks);
      const Clock::time_point t0 = Clock::now();
      sw.add_batch(wave.slots, wave.workers, wave.values);
      t[0] += since(t0);
      const Clock::time_point t1 = Clock::now();
      sw.read_and_reset_batch(
          0, len_chunks,
          std::span(out_bits).subspan(base * kLanes, len_chunks * kLanes));
      t[1] += since(t1);
    });
    check_bits();
  });
  fpisa_::FpisaSwitch::GuardStats guard;
  std::vector<std::uint32_t> stamps;
  std::vector<std::uint16_t> sums;
  const std::vector<double> guarded =
      median_parts(1, [&](std::vector<double>& t) {
        poison(out_bits);
        for_each_wave(w, [&](std::size_t base, std::size_t len_chunks) {
          const std::size_t np = load_wave(base, len_chunks);
          stamps.resize(np);
          sums.resize(np);
          for (std::size_t i = 0; i < np; ++i) {
            stamps[i] = sw.slot_stamp(wave.slots[i]);
            sums[i] = fpisa_::fpisa_checksum(
                wave.slots[i], wave.workers[i], stamps[i],
                std::span(wave.values).subspan(i * kLanes, kLanes));
          }
          const Clock::time_point t0 = Clock::now();
          sw.add_batch_guarded(wave.slots, wave.workers, stamps, sums,
                               wave.values, guard);
          t[0] += since(t0);
          sw.read_and_reset_batch(
              0, len_chunks,
              std::span(out_bits).subspan(base * kLanes, len_chunks * kLanes));
        });
        check_bits();
      });
  // Every packet carried a valid stamp and checksum: a refusal is an error.
  if (guard.corrupt_rejected + guard.stale_rejected != 0) ++tally.mismatched;

  // switchml: one session, one switch, the workload's loss and guard.
  fpisa::switchml::SessionOptions so;
  so.num_workers = w.workers;
  so.slots = w.slots_per_job;
  so.lanes = kLanes;
  so.loss_rate = copts.loss_rate;
  so.loss_seed = copts.loss_seed;
  so.max_retransmits = copts.max_retransmits;
  so.fault = copts.fault;
  fpisa::switchml::AggregationSession session(copts.switch_config, so);
  std::vector<float> out(w.values);
  double dedup = 0;
  int session_reps = 0;
  const std::vector<double> sml = median_parts(1, [&](std::vector<double>& t) {
    poison(out);
    const std::uint64_t d0 = session.fpisa_switch().dedup_hits();
    const Clock::time_point t0 = Clock::now();
    session.reduce_into(in.views, out);
    t[0] = since(t0);
    dedup += static_cast<double>(session.fpisa_switch().dedup_hits() - d0);
    ++session_reps;
    ++tally.attempted;
    if (!bit_exact(out, in.reference)) ++tally.mismatched;
  });

  // cluster, inline dispatch: the whole service path on the calling thread.
  const std::string tenant = tenant_of(w, 0);
  const auto reduce_s = [&](fpisa::cluster::ClusterOptions::DispatchMode mode,
                             std::span<const std::span<const float>> views,
                             const std::vector<float>& ref, int min_reps) {
    fpisa::cluster::ClusterOptions o = copts;
    o.dispatch = mode;
    fpisa::cluster::AggregationService svc(o);
    std::vector<float> res(ref.size());
    return median_parts(
        1,
        [&](std::vector<double>& t) {
          poison(res);
          const Clock::time_point t0 = Clock::now();
          svc.reduce(fpisa::cluster::JobView{tenant, views}, res);
          t[0] = since(t0);
          ++tally.attempted;
          if (!bit_exact(res, ref)) ++tally.mismatched;
        },
        0.6, min_reps)[0];
  };
  using Mode = fpisa::cluster::ClusterOptions::DispatchMode;
  const double inline_s = reduce_s(Mode::kInline, in.views, in.reference, 3);

  // Dispatch price: mailbox workers minus inline on a one-pass job with
  // next to no shard work: the workload's own job when it fits in one wave
  // on every shard (small_jobs), else one chunk per shard.
  const std::size_t one_wave = w.slots_per_job * kLanes * w.shards;
  const std::size_t tiny = w.values <= one_wave
                               ? w.values
                               : static_cast<std::size_t>(kLanes * w.shards);
  std::vector<std::span<const float>> tiny_views;
  for (const auto& v : in.views) tiny_views.push_back(v.first(tiny));
  std::vector<float> tiny_ref(tiny);
  fcore::aggregate_into(tiny_views, tiny_ref, cfg);
  double workers_s = 0, inline_tiny_s = 0;
  for (int round = 0; round < 2; ++round) {  // ABBA against drift
    const bool workers_first = round == 0;
    for (int k = 0; k < 2; ++k) {
      const bool workers = (k == 0) == workers_first;
      const double s =
          reduce_s(workers ? Mode::kWorkers : Mode::kInline, tiny_views,
                    tiny_ref, 200);
      (workers ? workers_s : inline_tiny_s) += s / 2;
    }
  }

  const double pisa_add = w.guarded ? guarded[0] : pisa[0];
  const double core_s = core[0] + core[1];
  const double pisa_s = pisa_add + pisa[1];
  m["core.add_ns_per_lane_add"] = {core[0] / lane_adds * 1e9, "ns"};
  m["core.read_ns_per_value"] = {core[1] / n * 1e9, "ns"};
  m["pisa.add_ns_per_lane_add"] = {pisa[0] / lane_adds * 1e9, "ns"};
  m["pisa.read_reset_ns_per_value"] = {pisa[1] / n * 1e9, "ns"};
  m["pisa.add_guarded_ns_per_lane_add"] = {guarded[0] / lane_adds * 1e9,
                                           "ns"};
  m["pisa.dedup_hits"] = {dedup / session_reps, "count"};
  m["pisa.self_ms"] = {(pisa_s - core_s) * 1e3, "ms"};
  m["switchml.reduce_ms"] = {sml[0] * 1e3, "ms"};
  m["switchml.self_ms"] = {(sml[0] - pisa_s) * 1e3, "ms"};
  m["cluster.inline_self_ms"] = {(inline_s - sml[0]) * 1e3, "ms"};
  m["cluster.dispatch_us_per_pass"] = {(workers_s - inline_tiny_s) * 1e6,
                                       "us"};

  // Render: per job, the single-threaded layers first, then the live
  // service from the traced window.
  const double wall = m["cluster.job_wall_ms"].value;
  const double unattributed = m["cluster.unattributed_ms"].value;
  const double comm_self = m["collective.self_us_per_job"].value / 1e3;
  char buf[320];
  const auto row = [&](const char* layer, const char* entry, double t_ms,
                       double self_ms) {
    std::snprintf(buf, sizeof buf, "  %-10s %-46s %10.4f %10.4f\n", layer,
                  entry, t_ms, self_ms);
    notes += buf;
  };
  std::snprintf(buf, sizeof buf,
                "waterfall %s (per job, ms; single-threaded below the live "
                "service):\n  %-10s %-46s %10s %10s\n",
                w.name, "layer", "entry point", "time", "self");
  notes += buf;
  row("core", "fpisa_add_batch + fpisa_read_reset_batch", core_s * 1e3,
      core_s * 1e3);
  row("pisa",
      w.guarded ? "add_batch_guarded + read_and_reset_batch"
                : "add_batch + read_and_reset_batch",
      pisa_s * 1e3, (pisa_s - core_s) * 1e3);
  row("switchml", "AggregationSession::reduce_into", sml[0] * 1e3,
      (sml[0] - pisa_s) * 1e3);
  row("cluster", "AggregationService::reduce, inline dispatch",
      inline_s * 1e3, (inline_s - sml[0]) * 1e3);
  std::snprintf(buf, sizeof buf,
                "  -- live service, %d shard(s), %d client(s) --\n", w.shards,
                w.clients);
  notes += buf;
  row("cluster", "job wall (cluster_job_wall_seconds)", wall, wall);
  row("collective", "sync client latency - job wall", wall + comm_self,
      comm_self);
  std::snprintf(buf, sizeof buf,
                "  unattributed (job wall - max shard busy): %.4f ms = %.1f%% "
                "of job wall\n",
                unattributed, wall > 0 ? unattributed / wall * 100.0 : 0.0);
  notes += buf;
}

}  // namespace perfbench
