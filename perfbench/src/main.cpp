// The repository benchmark program.
//
//   fpisa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Generates the workload's inputs from the seed, sets the communicator up
// several times (set-up time is the median), then measures one closed-loop
// window. --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics (traced window + layer waterfall) instead. Human-readable
// lines come first; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "host.h"

namespace {

using perfbench::Metrics;

int usage(const char* msg) {
  std::fprintf(stderr,
               "fpisa_perfbench: %s\nusage: fpisa_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\nworkloads:",
               msg);
  for (const auto& w : perfbench::workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

void print_result(const perfbench::Tally& tally, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed()));
  const char* sep = "";
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoll(val.c_str(), &end, 10);
      if (*end != '\0' || seed < 0) return usage("bad --seed");
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(seconds > 0 && seconds <= 3600)) {
        return usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("bad --trace");
      trace = val == "1";
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  const perfbench::Workload* w = perfbench::find_workload(workload);
  if (w == nullptr) return usage("unknown or missing --workload");
  if (seed < 0 || seconds <= 0 || trace < 0) {
    return usage("--seed, --seconds and --trace are required");
  }

  try {
    const auto useed = static_cast<std::uint64_t>(seed);
    std::printf("workload %s (seed %lld): %s\n", w->name, seed, w->why);
    std::printf("  %d workers x %zu values, %d shard(s), %zu slots/job, "
                "%d lanes, %d client(s) %s, loss %.3g, guarded %d, qos %d\n",
                w->workers, w->values, w->shards, w->slots_per_job,
                perfbench::kLanes, w->clients,
                w->async ? "submit+wait" : "allreduce", w->loss_rate,
                w->guarded, w->qos);
    const perfbench::Inputs inputs = perfbench::make_inputs(*w, useed);

    perfbench::Tally tally;
    std::unique_ptr<fpisa::collective::ClusterCommunicator> comm;
    const std::vector<double> setups =
        perfbench::set_up(*w, useed, inputs, tally, comm);

    Metrics m;
    perfbench::WindowInfo info;
    const double ref_before = perfbench::reference_kernel_ns();
    m = trace == 0 ? perfbench::measure_end_to_end(*w, inputs, seconds, *comm,
                                                   tally, info)
                   : perfbench::measure_traced(*w, inputs, seconds, *comm,
                                               tally, info);
    const double ref_after = perfbench::reference_kernel_ns();
    comm.reset();
    if (trace == 1) {
      perfbench::run_waterfall(*w, useed, inputs, tally, m, info.notes);
    }
    if (trace == 0) {
      m["setup_s"] = {perfbench::median(setups), "s"};
      const auto [lo, hi] = std::minmax_element(setups.begin(), setups.end());
      std::printf("set-up: median of %zu, range %.4g-%.4g s\n", setups.size(),
                  *lo, *hi);
      m["exact_job_fraction"] = {
          tally.attempted == 0
              ? 0.0
              : static_cast<double>(tally.attempted - tally.failed()) /
                    static_cast<double>(tally.attempted),
          "fraction"};
      m["peak_rss_mb"] = {info.peak_rss_mib, "MiB"};
    }
    std::printf("%s", info.notes.c_str());
    std::printf("jobs attempted %llu, threw %llu, not bit-exact %llu "
                "(error_rate %.6g)\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.thrown),
                static_cast<unsigned long long>(tally.mismatched),
                tally.attempted ? static_cast<double>(tally.failed()) /
                                      static_cast<double>(tally.attempted)
                                : 0.0);
    for (const auto& [name, metric] : m) {
      std::printf("  %-36s %14.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    std::printf("%s\n", perfbench::host_facts_json(info.steal_share,
                                                  ref_before, ref_after)
                            .c_str());
    print_result(tally, m);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fpisa_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
