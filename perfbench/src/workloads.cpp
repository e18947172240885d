// Workload definitions, seeded inputs and the bit-exact reference.
#include <algorithm>
#include <cstring>

#include "bench.h"
#include "core/vector_accumulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

namespace fc = fpisa::cluster;

const std::vector<Workload>& workloads() {
  // Each entry records why it is in the benchmark: the three stress
  // different layers of the same allreduce path, so a change that helps one
  // and costs another shows up on the second.
  static const std::vector<Workload> kWorkloads = {
      {"bulk_allreduce",
       "1 MiB per worker: switch ingress/egress does nearly all the work, one "
       "4-shard dispatch pass per job",
       /*workers=*/8, /*values=*/262144, /*shards=*/4, /*slots_per_job=*/64,
       /*clients=*/1, /*async=*/false, /*loss_rate=*/0.0, /*guarded=*/false,
       /*qos=*/false, /*input_sets=*/3, /*tail_quantile=*/0.9},
      {"small_jobs",
       "512 lane-adds per job from 2 QoS tenants: admission, job-runner "
       "handoff, mailbox fan-out and merge dominate; bypasses switch work",
       /*workers=*/4, /*values=*/128, /*shards=*/2, /*slots_per_job=*/16,
       /*clients=*/2, /*async=*/true, /*loss_rate=*/0.0, /*guarded=*/false,
       /*qos=*/true, /*input_sets=*/64, /*tail_quantile=*/0.99},
      {"lossy_guarded",
       "2% loss each way on the guarded protocol: retransmission, dedup, "
       "stamped checksummed adds and the serial (never pipelined) wave loop",
       /*workers=*/8, /*values=*/65536, /*shards=*/2, /*slots_per_job=*/64,
       /*clients=*/1, /*async=*/false, /*loss_rate=*/0.02, /*guarded=*/true,
       /*qos=*/false, /*input_sets=*/4, /*tail_quantile=*/0.9},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string tenant_of(const Workload& w, int client) {
  return w.qos ? "t" + std::to_string(client) : "bench";
}

fc::ClusterOptions cluster_options(const Workload& w, std::uint64_t seed) {
  fc::ClusterOptions o;
  o.num_shards = w.shards;
  o.slots_per_shard = kSlotsPerShard;
  o.slots_per_job = w.slots_per_job;
  o.lanes = kLanes;
  o.loss_rate = w.loss_rate;
  std::uint64_t s = seed ^ 0x1055ULL;
  o.loss_seed = fpisa::util::splitmix64(s);
  o.fault.enabled = w.guarded;
  o.fault.seed = fpisa::util::splitmix64(s);
  o.qos.enabled = w.qos;
  if (w.qos) {
    // No rate limit and the default queue bound: nothing is refused, so
    // the workload measures the admission path, not backpressure.
    for (int c = 0; c < w.clients; ++c) {
      fpisa::qos::TenantQosConfig t;
      t.priority = c == 0 ? fpisa::qos::Priority::kTraining
                          : fpisa::qos::Priority::kQuery;
      o.qos.tenants[tenant_of(w, c)] = t;
    }
  }
  return o;
}

fpisa::core::AccumulatorConfig reference_config(
    const fpisa::pisa::SwitchConfig& sw) {
  fpisa::core::AccumulatorConfig cfg;
  cfg.variant = sw.ext.rsaw ? fpisa::core::Variant::kFull
                            : fpisa::core::Variant::kApproximate;
  cfg.overflow = fpisa::core::OverflowPolicy::kWrap;
  return cfg;
}

bool bit_exact(std::span<const float> out, std::span<const float> ref) {
  return out.size() == ref.size() &&
         std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)) == 0;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  const fpisa::core::AccumulatorConfig cfg =
      reference_config(cluster_options(w, seed).switch_config);
  Inputs in(static_cast<std::size_t>(w.clients));
  std::uint64_t state = seed;
  for (auto& client : in) {
    client.resize(static_cast<std::size_t>(w.input_sets));
    for (JobInput& job : client) {
      fpisa::util::Rng rng(fpisa::util::splitmix64(state));
      job.data.assign(static_cast<std::size_t>(w.workers),
                      std::vector<float>(w.values));
      for (auto& vec : job.data) {
        for (float& v : vec) v = static_cast<float>(rng.normal(0.0, 0.1));
      }
      job.views.assign(job.data.begin(), job.data.end());
      job.reference.resize(w.values);
      fpisa::core::aggregate_into(job.views, job.reference, cfg);
    }
  }
  return in;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return fpisa::util::sorted_percentile(xs, 0.5);
}

}  // namespace perfbench
