#ifndef HDMAP_PERFBENCH_WORKLOADS_H_
#define HDMAP_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one benchmark run.
struct RunResult {
  /// False when any output check failed (or the run could not be made).
  bool correct = true;
  /// Operations attempted / failed across every measured phase.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Run facts printed beside the result (fail_frac, sample counts, ...).
  std::vector<Metric> info;
  /// Free-form run notes, one line each.
  std::vector<std::string> notes;
  /// Output-check failures, one line each.
  std::vector<std::string> problems;
};

/// The fixed parameters and those of `workload`, as space-separated
/// key=value pairs; empty for an unknown workload.
std::string ConfigLine(const std::string& workload);

/// Runs one workload ("tile_fetch", "region_fetch" or "fleet_update")
/// end to end: cluster set-up, warm-up, measured phases, output checks.
RunResult RunWorkload(const Params& params);

}  // namespace perfbench

#endif  // HDMAP_PERFBENCH_WORKLOADS_H_
