// Host facts stamped beside every result, so that a noisy host shows next
// to its numbers: process CPU time, CPU steal share, core count, kernel
// backend and build provenance.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostSample {
  double cpu_s = 0;             ///< process user + sys CPU (getrusage)
  std::uint64_t steal = 0;      ///< /proc/stat steal jiffies, all CPUs
  std::uint64_t total = 0;      ///< /proc/stat jiffies, all CPUs
  bool have_proc_stat = false;

  static HostSample now();
  /// Share of CPU time stolen by the hypervisor between two samples; 0
  /// when /proc/stat is unavailable.
  static double steal_share(const HostSample& a, const HostSample& b);
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// Host speed probe: ns per lane-add of core::fpisa_add_batch on a fixed
/// single-threaded input (median of several reps). Taken before and after
/// the window, it shows a host that ran slow or fast beside the numbers.
double reference_kernel_ns();

/// One JSON object: nproc, steal share, the speed probe before and after
/// the window, batch backend, build info.
std::string host_facts_json(double steal_share, double ref_ns_before,
                            double ref_ns_after);

}  // namespace perfbench
