// In-memory spans around the benchmark's own calls into the communicator.
// One client job is a root span ("collective.allreduce" for sync calls,
// "collective.job" for async ones, which has the children "qos.submit" and
// "collective.wait").
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  /// One client job: call at `t0`, submit() returned at `submitted` (sync:
  /// equal to `t1`), result back at `t1`.
  void record_job(bool async, Clock::time_point t0,
                  Clock::time_point submitted, Clock::time_point t1) {
    jobs_.push_back({async, t0, submitted, t1});
  }
  void merge(SpanLog&& other) {
    jobs_.insert(jobs_.end(), other.jobs_.begin(), other.jobs_.end());
  }

  /// Median time inside submit() ("qos.submit") over the async jobs; 0
  /// when none was recorded.
  double submit_p50_s() const;
  std::size_t jobs() const { return jobs_.size(); }

 private:
  struct Job {
    bool async;
    Clock::time_point t0, submitted, t1;
  };
  std::vector<Job> jobs_;
};

}  // namespace perfbench
