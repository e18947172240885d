// Shared declarations of the repository benchmark (perfbench): workload
// definitions, generated inputs, the measured window, the layer waterfall
// and the metric record the benchmark prints.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/aggregation_service.h"
#include "collective/communicator.h"
#include "core/accumulator.h"
#include "spans.h"

namespace perfbench {

/// One benchmark workload. Every workload runs closed loop: each client
/// waits for its reply before sending the next job, as a training worker
/// does. All use 32 lanes and 64 slots per shard.
struct Workload {
  const char* name;
  const char* why;
  int workers;               ///< gradient vectors per job
  std::size_t values;        ///< FP32 values per worker vector
  int shards;
  std::size_t slots_per_job;
  int clients;               ///< closed-loop client threads
  bool async;                ///< submit()+wait() instead of allreduce()
  double loss_rate;          ///< per-packet drop probability, each way
  bool guarded;              ///< fault.enabled with every injection rate 0
  bool qos;                  ///< QoS on, one tenant per client, no limits
  int input_sets;            ///< distinct inputs each client cycles through
  /// Latency tail percentile: the highest of p99/p90 that keeps well over
  /// ten samples beyond it at the benchmark's run length, fixed per
  /// workload so that run-to-run changes in the job count never move it.
  double tail_quantile;
};

inline constexpr int kLanes = 32;
inline constexpr std::size_t kSlotsPerShard = 64;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Tenant name and QoS class of client `c`.
std::string tenant_of(const Workload& w, int client);

/// The service configuration a workload runs against.
fpisa::cluster::ClusterOptions cluster_options(const Workload& w,
                                               std::uint64_t seed);

/// One job's inputs: `workers` equal-length normal(0, 0.1) vectors, the
/// span table the program receives, and the bit-exact reference sum.
struct JobInput {
  std::vector<std::vector<float>> data;
  std::vector<std::span<const float>> views;
  std::vector<float> reference;
};

/// inputs[client][set]. Generated from the seed before set-up and outside
/// every timed window.
using Inputs = std::vector<std::vector<JobInput>>;
Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// The reference every output is compared against bit for bit:
/// core::aggregate_into with the switch's variant (kApproximate unless the
/// switch config has the RSAW extension) and OverflowPolicy::kWrap.
fpisa::core::AccumulatorConfig reference_config(
    const fpisa::pisa::SwitchConfig& sw);

bool bit_exact(std::span<const float> out, std::span<const float> ref);

/// Named metric values as the benchmark prints them.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Outcome accounting shared by every phase of a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t thrown = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t failed() const { return thrown + mismatched; }
};

/// Communicator construction plus one warm-up job (per client), repeated
/// several times. Returns each set-up's seconds; `keep` receives the last
/// communicator, ready for the measured window.
std::vector<double> set_up(
    const Workload& w, std::uint64_t seed, const Inputs& inputs, Tally& tally,
    std::unique_ptr<fpisa::collective::ClusterCommunicator>& keep);

/// What a window reports besides its metrics.
struct WindowInfo {
  double steal_share = 0;  ///< CPU steal over the window (/proc/stat)
  double peak_rss_mib = 0;  ///< ru_maxrss when the window ended
  std::string notes;       ///< human-readable lines
};

/// Untraced measured window: end-to-end metrics.
Metrics measure_end_to_end(const Workload& w, const Inputs& inputs,
                           double seconds,
                           fpisa::collective::ClusterCommunicator& comm,
                           Tally& tally, WindowInfo& info);

/// Traced run: the window alternates untraced and traced segments, then a
/// short segment on the other call path (async for sync workloads, sync for
/// async ones). Returns the client-side per-layer metrics.
Metrics measure_traced(const Workload& w, const Inputs& inputs,
                       double seconds,
                       fpisa::collective::ClusterCommunicator& comm,
                       Tally& tally, WindowInfo& info);

/// Single-threaded waterfall over the workload's own inputs: each lower
/// layer's public entry point on the same work (core kernels, switch
/// ingress/egress, session, inline service). Adds its per-layer metrics to
/// `m` and renders the waterfall into `notes` using the client-side
/// metrics already in `m`.
void run_waterfall(const Workload& w, std::uint64_t seed,
                   const Inputs& inputs, Tally& tally, Metrics& m,
                   std::string& notes);

/// Median of a (copied) sample; 0 when empty.
double median(std::vector<double> xs);

}  // namespace perfbench
