#ifndef HDMAP_PERFBENCH_COMMON_H_
#define HDMAP_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}
inline Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}
inline uint64_t SteadyNs(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
/// Infinite entries (failed operations) sort last, so a failure counts as
/// slower than any success.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  size_t idx = rank == 0 ? 0 : std::min(rank - 1, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

/// Run arguments. Everything else a workload needs is a constant of the
/// program (the k* constants and kWorkloads in workloads.cc), printed on the
/// first '#' line of every run.
struct Params {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = ".bench_data";

  // Self-test hooks.
  size_t max_pending_requests = 0;  ///< Server admission cap; 0 = default.
  /// 1: corrupt the bytes of one reply before the client decodes it.
  /// 2: drop one landmark from one sampled GetRegion reply after it has
  ///    decoded, so only the sampled region comparison can catch it.
  int tamper = 0;
};

}  // namespace perfbench

#endif  // HDMAP_PERFBENCH_COMMON_H_
