// Set-up, the measured window and the traced window. Every call goes
// through the public collective::ClusterCommunicator API; the service's
// public accessors (total_stats, mailbox_stats, the registry's job-wall
// and shard-phase histograms) are read only between jobs.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <latch>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "host.h"
#include "spans.h"
#include "telemetry/metrics.h"
#include "util/stats.h"

namespace perfbench {

namespace fc = fpisa::collective;
namespace ft = fpisa::telemetry;

namespace {

/// When a job's call went out and came back. For sync jobs `submitted` is
/// the return of allreduce(); for async jobs the return of submit().
struct CallTimes {
  Clock::time_point submitted;
  Clock::time_point returned;
};

/// Runs one job the way the workload calls the communicator.
CallTimes call(fc::ClusterCommunicator& comm, bool async,
               const std::string& tenant, const JobInput& in,
               std::span<float> out) {
  const fc::WorkerViews views(
      std::span<const std::span<const float>>(in.views));
  if (!async) {
    comm.allreduce(views, out, fc::ReduceOp::kSum, tenant);
    const Clock::time_point t = Clock::now();
    return {t, t};
  }
  fc::JobHandle h = comm.submit(views, out, fc::ReduceOp::kSum, tenant);
  const Clock::time_point submitted = Clock::now();
  h.wait();
  return {submitted, Clock::now()};
}

/// Checked job: counts the attempt, a throw, or a mismatch in `tally`, and
/// leaves the call's timestamps (taken before the check) in `times`.
/// Returns false when the job threw.
bool checked_call(fc::ClusterCommunicator& comm, bool async,
                  const std::string& tenant, const JobInput& in,
                  std::span<float> out, Tally& tally, CallTimes& times) {
  ++tally.attempted;
  try {
    times = call(comm, async, tenant, in, out);
  } catch (const std::exception& e) {
    ++tally.thrown;
    std::fprintf(stderr, "perfbench: job threw: %s\n", e.what());
    return false;
  }
  if (!bit_exact(out, in.reference)) ++tally.mismatched;
  return true;
}

/// The service's job-wall histogram and per-shard phase histograms, found
/// in the registry by the service's instance label.
struct ServiceProbes {
  const ft::Histogram* job_wall = nullptr;
  std::vector<const ft::Histogram*> add, collect;  ///< per shard
};

ServiceProbes find_probes(int shards) {
  // The communicator kept by set_up() holds the newest service, so its
  // instance label is the largest "svc" value registered so far.
  long svc = -1;
  for (const ft::HistogramSample& h : ft::snapshot().histograms) {
    if (h.name != "cluster_job_wall_seconds") continue;
    for (const auto& [k, v] : h.labels) {
      if (k == "svc") svc = std::max(svc, std::stol(v));
    }
  }
  ServiceProbes p;
  if (svc < 0) return p;
  auto& reg = ft::registry();
  const auto bounds = ft::MetricsRegistry::time_buckets();
  const std::string id = std::to_string(svc);
  p.job_wall = &reg.histogram("cluster_job_wall_seconds", {{"svc", id}},
                              bounds);
  for (int s = 0; s < shards; ++s) {
    const std::string shard = std::to_string(s);
    p.add.push_back(&reg.histogram(
        "cluster_shard_phase_seconds",
        {{"svc", id}, {"shard", shard}, {"phase", "add"}}, bounds));
    p.collect.push_back(&reg.histogram(
        "cluster_shard_phase_seconds",
        {{"svc", id}, {"shard", shard}, {"phase", "collect"}}, bounds));
  }
  return p;
}

/// Cumulative service counters read between jobs.
struct ServiceReading {
  fpisa::switchml::SessionStats stats;
  double job_wall_s = 0;
  std::uint64_t jobs = 0;
  std::vector<double> busy_add_s, busy_collect_s;  ///< per shard
  std::uint64_t wakeups = 0, spurious = 0;
};

ServiceReading read_service(fc::ClusterCommunicator& comm,
                            const ServiceProbes& p) {
  ServiceReading r;
  r.stats = comm.total_stats();
  r.jobs = p.job_wall->count();
  r.job_wall_s = p.job_wall->sum();
  for (std::size_t s = 0; s < p.add.size(); ++s) {
    r.busy_add_s.push_back(p.add[s]->sum());
    r.busy_collect_s.push_back(p.collect[s]->sum());
    const fpisa::cluster::MailboxStats mb =
        comm.service().mailbox_stats(static_cast<int>(s));
    r.wakeups += mb.wakeups;
    r.spurious += mb.spurious_wakeups;
  }
  return r;
}

/// Per-client record of a window.
struct ClientLog {
  std::vector<float> start_s;  ///< job start, seconds into the window
  std::vector<float> latency_s;
  Tally tally;
  SpanLog spans;
  /// Untraced / traced split of the traced window: values reduced and
  /// the client's time spent on jobs of each mode.
  std::uint64_t values_by_mode[2] = {0, 0};
  double seconds_by_mode[2] = {0, 0};
};

/// A finished window. The clients' tallies are already merged into the
/// caller's.
struct Window {
  std::vector<ClientLog> logs;
  double wall_s = 0;
  HostSample h0, h1;
  double peak_rss_mib = 0;  ///< ru_maxrss right after the clients joined

  std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const ClientLog& log : logs) n += log.latency_s.size();
    return n;
  }
  double mean_latency_s() const {
    double sum = 0;
    for (const ClientLog& log : logs) {
      for (const float l : log.latency_s) sum += l;
    }
    return completed() ? sum / static_cast<double>(completed()) : 0.0;
  }
};

/// Runs `w.clients` closed-loop client threads for `seconds`, each cycling
/// through its input sets with checked calls on the workload's call path.
/// Every completed job's start and latency are logged, then
/// `after_job(log, t0_s, t0, times)` runs on the client thread, where `t0`
/// is the job's start and `t0_s` the same in seconds into the window.
template <typename AfterJob>
Window run_window(const Workload& w, const Inputs& inputs, double seconds,
                  fc::ClusterCommunicator& comm, Tally& tally,
                  AfterJob after_job) {
  Window win;
  win.logs.resize(static_cast<std::size_t>(w.clients));
  std::latch go(w.clients + 1);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  std::atomic<std::int64_t> start_ns{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < w.clients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = win.logs[static_cast<std::size_t>(c)];
      const auto& sets = inputs[static_cast<std::size_t>(c)];
      const std::string tenant = tenant_of(w, c);
      std::vector<float> out(w.values);
      // Room for far more jobs than any workload completes: the logs never
      // reallocate, so their pages grow with the job count alone and the
      // peak RSS does not jump at a doubling.
      const auto room = static_cast<std::size_t>(seconds * 100000);
      log.start_s.reserve(room);
      log.latency_s.reserve(room);
      go.arrive_and_wait();
      const Clock::time_point start(Clock::duration(start_ns.load()));
      const Clock::time_point deadline = start + window;
      CallTimes times;
      for (std::size_t i = 0;; ++i) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= deadline) break;
        const JobInput& in = sets[i % sets.size()];
        if (!checked_call(comm, w.async, tenant, in, out, log.tally, times)) {
          continue;
        }
        const double t0_s = seconds_between(start, t0);
        log.start_s.push_back(static_cast<float>(t0_s));
        log.latency_s.push_back(
            static_cast<float>(seconds_between(t0, times.returned)));
        after_job(log, t0_s, t0, times);
      }
    });
  }

  win.h0 = HostSample::now();
  const Clock::time_point t_start = Clock::now();
  start_ns.store(t_start.time_since_epoch().count());
  go.arrive_and_wait();
  for (std::thread& t : clients) t.join();
  const Clock::time_point t_end = Clock::now();
  win.h1 = HostSample::now();
  win.peak_rss_mib = peak_rss_mib();
  win.wall_s = seconds_between(t_start, t_end);
  for (const ClientLog& log : win.logs) {
    tally.attempted += log.tally.attempted;
    tally.thrown += log.tally.thrown;
    tally.mismatched += log.tally.mismatched;
  }
  return win;
}

/// The workload's tail percentile, or the highest lower one that still
/// has at least ten samples beyond it when the window is short.
double tail_quantile(const Workload& w, std::size_t n) {
  for (const double q : {w.tail_quantile, 0.9, 0.5}) {
    if (q <= w.tail_quantile &&
        static_cast<double>(n) * (1.0 - q) >= 10.0) {
      return q;
    }
  }
  return 0.5;
}

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

}  // namespace

std::vector<double> set_up(const Workload& w, std::uint64_t seed,
                           const Inputs& inputs, Tally& tally,
                           std::unique_ptr<fc::ClusterCommunicator>& keep) {
  // At least kMinSetups, then more until kSetupBudget has passed: cheap
  // set-ups (a few ms of thread start-up) are noisy one by one, so they get
  // more samples for the median. The cap is kept low because every set-up
  // starts and stops the service's threads, and the allocator memory that
  // churn leaves behind would count in peak_rss_mb.
  constexpr int kMinSetups = 20, kMaxSetups = 40;
  constexpr auto kSetupBudget = std::chrono::milliseconds(400);
  std::vector<double> out;
  std::vector<float> buf(w.values);
  const Clock::time_point until = Clock::now() + kSetupBudget;
  for (int r = 0; r < kMaxSetups && (r < kMinSetups || Clock::now() < until);
       ++r) {
    keep.reset();  // tear-down is not set-up: outside the timed span
    const Clock::time_point t0 = Clock::now();
    keep = std::make_unique<fc::ClusterCommunicator>(cluster_options(w, seed));
    CallTimes times;
    for (int c = 0; c < w.clients; ++c) {
      checked_call(*keep, w.async, tenant_of(w, c),
                   inputs[static_cast<std::size_t>(c)].front(), buf, tally,
                   times);
    }
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

Metrics measure_end_to_end(const Workload& w, const Inputs& inputs,
                           double seconds, fc::ClusterCommunicator& comm,
                           Tally& tally, WindowInfo& info) {
  const Window win = run_window(w, inputs, seconds, comm, tally,
                                [](ClientLog&, double, Clock::time_point,
                                   const CallTimes&) {});
  // The peak the program (plus the benchmark's inputs and per-job logs)
  // reached, before the analysis below allocates.
  info.peak_rss_mib = win.peak_rss_mib;

  std::vector<std::pair<float, float>> jobs;  // (start, latency)
  for (const ClientLog& log : win.logs) {
    for (std::size_t i = 0; i < log.latency_s.size(); ++i) {
      jobs.emplace_back(log.start_s[i], log.latency_s[i]);
    }
  }
  // The tail is taken per consecutive group of jobs (as many groups as
  // keep ten samples beyond the percentile, at most ten) and reported as
  // the median over groups: one disturbed second on a shared host then
  // moves it less than it would move a pooled percentile.
  std::sort(jobs.begin(), jobs.end());
  std::vector<double> lat;
  for (const auto& j : jobs) lat.push_back(j.second);
  const double tail_q = tail_quantile(w, lat.size());
  const auto beyond = static_cast<std::size_t>(
      static_cast<double>(lat.size()) * (1.0 - tail_q));
  const std::size_t groups = std::clamp<std::size_t>(beyond / 10, 1, 10);
  std::vector<double> group_tails;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<double> part(lat.begin() + g * lat.size() / groups,
                             lat.begin() + (g + 1) * lat.size() / groups);
    std::sort(part.begin(), part.end());
    group_tails.push_back(fpisa::util::sorted_percentile(part, tail_q));
  }
  std::sort(lat.begin(), lat.end());
  const double completed = static_cast<double>(win.completed());
  const double values = completed * static_cast<double>(w.values);

  Metrics m;
  m["values_per_s"] = {values / win.wall_s, "values/s"};
  m["job_latency_p50_ms"] = {fpisa::util::sorted_percentile(lat, 0.5) * 1e3,
                             "ms"};
  m["job_latency_tail_ms"] = {median(group_tails) * 1e3, "ms"};
  m["cpu_ns_per_value"] = {
      values > 0 ? (win.h1.cpu_s - win.h0.cpu_s) * 1e9 / values : 0.0, "ns"};
  info.steal_share = HostSample::steal_share(win.h0, win.h1);
  info.notes +=
      fmt("window: %.3f s, %.0f jobs completed\n", win.wall_s, completed) +
      fmt("tail = p%.1f over %.0f samples (%.0f beyond it)", tail_q * 100.0,
          static_cast<double>(lat.size()), static_cast<double>(beyond)) +
      fmt(", median of %.0f groups; pooled p%.1f = %.5g ms\n",
          static_cast<double>(groups), tail_q * 100.0,
          fpisa::util::sorted_percentile(lat, tail_q) * 1e3) +
      fmt("cpu steal during window: %.2f%%\n", info.steal_share * 100.0);
  return m;
}

Metrics measure_traced(const Workload& w, const Inputs& inputs,
                       double seconds, fc::ClusterCommunicator& comm,
                       Tally& tally, WindowInfo& info) {
  const ServiceProbes probes = find_probes(w.shards);
  if (probes.job_wall == nullptr) {
    throw std::runtime_error("perfbench: service job-wall histogram missing");
  }
  // Ten alternating segments, untraced first: drift over the window hits
  // both modes alike, so their values/s difference prices the tracing.
  constexpr int kSegments = 10;
  const double seg_s = seconds / kSegments;
  const ServiceReading r0 = read_service(comm, probes);
  Window win = run_window(
      w, inputs, seconds, comm, tally,
      [&](ClientLog& log, double t0_s, Clock::time_point t0,
          const CallTimes& times) {
        const int mode = static_cast<int>(t0_s / seg_s) % 2;  // 1: traced
        if (mode == 1) {
          log.spans.record_job(w.async, t0, times.submitted, times.returned);
        }
        log.values_by_mode[mode] += w.values;
        log.seconds_by_mode[mode] += seconds_between(t0, Clock::now());
      });
  const ServiceReading r1 = read_service(comm, probes);
  info.steal_share = HostSample::steal_share(win.h0, win.h1);

  // The other call path, one client: submit() timing on sync workloads,
  // sync-path communicator self time on the async one.
  constexpr double kOtherPathSeconds = 1.0;
  Workload other = w;
  other.async = !w.async;
  other.clients = 1;
  const ServiceReading o0 = read_service(comm, probes);
  Window other_win = run_window(
      other, inputs, kOtherPathSeconds, comm, tally,
      [&](ClientLog& log, double, Clock::time_point t0,
          const CallTimes& times) {
        log.spans.record_job(other.async, t0, times.submitted,
                             times.returned);
      });
  const ServiceReading o1 = read_service(comm, probes);

  // Per-mode throughput: each client's values over its own time spent in
  // that mode, summed over clients, so segment boundaries cutting a job in
  // two do not count.
  SpanLog spans;
  double vps[2] = {0, 0};
  for (ClientLog& log : win.logs) {
    spans.merge(std::move(log.spans));
    for (int k = 0; k < 2; ++k) {
      if (log.seconds_by_mode[k] > 0) {
        vps[k] += static_cast<double>(log.values_by_mode[k]) /
                  log.seconds_by_mode[k];
      }
    }
  }
  for (ClientLog& log : other_win.logs) spans.merge(std::move(log.spans));

  if (r1.jobs == r0.jobs || o1.jobs == o0.jobs) {
    throw std::runtime_error("perfbench: no service job in a traced window");
  }
  // Service job wall per job, as the mean over every job of a window.
  const auto wall_per_job_s = [](const ServiceReading& a,
                                 const ServiceReading& b) {
    return (b.job_wall_s - a.job_wall_s) / static_cast<double>(b.jobs - a.jobs);
  };
  const double jobs = static_cast<double>(r1.jobs - r0.jobs);
  const double job_wall_s = wall_per_job_s(r0, r1);
  // Time a job spends outside the service's own job span (communicator,
  // admission, job-runner queue and handoff): mean client latency minus
  // mean service job wall over every job of the window. No job has to be
  // matched to its own service wall.
  const double outside_s = win.mean_latency_s() - job_wall_s;
  const double sync_outside_s =
      w.async ? other_win.mean_latency_s() - wall_per_job_s(o0, o1)
              : outside_s;
  fpisa::switchml::SessionStats d = r1.stats;
  d -= r0.stats;
  double busy_max = 0, add_s = 0, collect_s = 0;
  for (std::size_t s = 0; s < r0.busy_add_s.size(); ++s) {
    const double add = r1.busy_add_s[s] - r0.busy_add_s[s];
    const double collect = r1.busy_collect_s[s] - r0.busy_collect_s[s];
    busy_max = std::max(busy_max, add + collect);
    add_s += add;
    collect_s += collect;
  }
  const double busy_mean = (add_s + collect_s) / static_cast<double>(w.shards);
  const double vps_untraced = vps[0], vps_traced = vps[1];

  Metrics m;
  m["switchml.packets_sent"] = {
      static_cast<double>(d.packets_sent) / jobs, "count"};
  m["switchml.retransmissions"] = {
      static_cast<double>(d.retransmissions) / jobs, "count"};
  m["switchml.delivered_per_sent"] = {
      d.packets_sent ? static_cast<double>(d.packets_sent - d.packets_lost) /
                           static_cast<double>(d.packets_sent)
                     : 0.0,
      "fraction"};
  m["cluster.job_wall_ms"] = {job_wall_s * 1e3, "ms"};
  m["cluster.queue_wait_ms"] = {outside_s * 1e3, "ms"};
  m["cluster.shard_add_busy_ms"] = {add_s / jobs * 1e3, "ms"};
  m["cluster.shard_collect_busy_ms"] = {collect_s / jobs * 1e3, "ms"};
  m["cluster.shard_imbalance"] = {busy_mean > 0 ? busy_max / busy_mean : 0.0,
                                  "ratio"};
  m["cluster.mailbox_wakeups_per_job"] = {
      static_cast<double>(r1.wakeups - r0.wakeups) / jobs, "count"};
  m["cluster.spurious_wakeups"] = {
      static_cast<double>(r1.spurious - r0.spurious), "count"};
  m["cluster.unattributed_ms"] = {(job_wall_s - busy_max / jobs) * 1e3, "ms"};
  m["qos.submit_us"] = {spans.submit_p50_s() * 1e6, "us"};
  m["collective.self_us_per_job"] = {sync_outside_s * 1e6, "us"};
  m["trace_overhead_pct"] = {
      vps_untraced > 0 ? (vps_untraced - vps_traced) / vps_untraced * 100.0
                       : 0.0,
      "%"};
  info.notes +=
      fmt("traced window: %.0f service jobs for %.0f client jobs, %.0f "
          "spans recorded\n",
          jobs, static_cast<double>(win.completed()),
          static_cast<double>(spans.jobs())) +
      fmt("values/s untraced %.4g, traced %.4g\n", vps_untraced, vps_traced);
  return m;
}

}  // namespace perfbench
