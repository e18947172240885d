#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/batch_accumulator.h"
#include "core/packed.h"
#include "util/build_info.h"
#include "util/rng.h"

namespace perfbench {

HostSample HostSample::now() {
  HostSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string line;
  if (stat && std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream in(line.substr(4));
    std::uint64_t v[8] = {};
    int got = 0;
    while (got < 8 && (in >> v[got])) ++got;
    if (got == 8) {
      for (const std::uint64_t x : v) s.total += x;
      s.steal = v[7];
      s.have_proc_stat = true;
    }
  }
  return s;
}

double HostSample::steal_share(const HostSample& a, const HostSample& b) {
  if (!a.have_proc_stat || !b.have_proc_stat || b.total <= a.total) return 0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double reference_kernel_ns() {
  constexpr std::size_t kValues = 1 << 16;
  constexpr int kAdds = 8, kReps = 7;
  std::vector<std::uint32_t> bits(kValues);
  fpisa::util::Rng rng(0x5eed);
  for (auto& b : bits) {
    b = fpisa::core::fp32_bits(static_cast<float>(rng.normal(0.0, 0.1)));
  }
  fpisa::core::AccumulatorConfig cfg;
  cfg.variant = fpisa::core::Variant::kApproximate;
  fpisa::core::RegisterFile regs(kValues);
  fpisa::core::OpCounters ctr;
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    regs.clear();
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < kAdds; ++k) {
      fpisa::core::fpisa_add_batch(bits, regs.exp, regs.man, cfg, ctr);
    }
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 (kValues * kAdds));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

std::string host_facts_json(double steal_share, double ref_ns_before,
                            double ref_ns_after) {
  const fpisa::util::BuildInfo& b = fpisa::util::build_info();
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"host\": {\"nproc\": %ld, \"steal_share\": %.5f, "
      "\"ref_kernel_ns_per_lane_add\": [%.4f, %.4f], "
      "\"batch_backend\": \"%.*s\", \"build\": {\"git\": \"%.*s\", "
      "\"compiler\": \"%.*s\", \"type\": \"%.*s\", \"sanitizer\": \"%.*s\", "
      "\"avx2\": %s}}}",
      sysconf(_SC_NPROCESSORS_ONLN), steal_share, ref_ns_before, ref_ns_after,
      static_cast<int>(fpisa::core::batch_backend_name().size()),
      fpisa::core::batch_backend_name().data(),
      static_cast<int>(b.git_describe.size()), b.git_describe.data(),
      static_cast<int>(b.compiler.size()), b.compiler.data(),
      static_cast<int>(b.build_type.size()), b.build_type.data(),
      static_cast<int>(b.sanitizer.size()), b.sanitizer.data(),
      b.avx2 ? "true" : "false");
  return buf;
}

}  // namespace perfbench
