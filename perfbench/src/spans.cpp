#include "spans.h"

#include "bench.h"

namespace perfbench {

double SpanLog::submit_p50_s() const {
  std::vector<double> submit;
  for (const Job& j : jobs_) {
    if (j.async) submit.push_back(seconds_between(j.t0, j.submitted));
  }
  return median(std::move(submit));
}

}  // namespace perfbench
