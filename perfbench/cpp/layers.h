#ifndef HDMAP_PERFBENCH_LAYERS_H_
#define HDMAP_PERFBENCH_LAYERS_H_

#include <sys/resource.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace perfbench {

/// Readings of chosen counters and latency histograms, summed over a set
/// of registries. The registries are cumulative and may be shared by
/// several stores and servers, so per-window numbers are always the
/// difference of two marks.
struct RegistryMark {
  std::map<std::string, uint64_t> counters;
  /// Per-bucket (non-cumulative) sample counts of each histogram.
  std::map<std::string, std::vector<uint64_t>> buckets;
  std::vector<double> bounds_s;  ///< Upper bound of each bucket.
};

RegistryMark TakeMark(const std::vector<hdmap::MetricsRegistry*>& registries,
                      const std::vector<std::string>& counters,
                      const std::vector<std::string>& latencies);

uint64_t CounterDelta(const RegistryMark& begin, const RegistryMark& end,
                      const std::string& name);

/// Percentile (p in [0, 100]) in seconds of the samples a histogram took
/// between the two marks, interpolated log-linearly within the exporting
/// histogram's quarter-decade buckets; 0 with no samples.
double LatencyDeltaPercentile(const RegistryMark& begin,
                              const RegistryMark& end,
                              const std::string& name, double p);
uint64_t LatencyDeltaCount(const RegistryMark& begin, const RegistryMark& end,
                           const std::string& name);

/// Process CPU and context switches (getrusage) at one instant.
struct CpuMark {
  double user_s = 0.0;
  double sys_s = 0.0;
  uint64_t ctx_switches = 0;
};
CpuMark TakeCpuMark();

/// Per-layer view of a trace window.
struct SpanReport {
  /// Span durations by span name, microseconds.
  std::map<std::string, std::vector<double>> duration_us;
  /// Summed self time (duration minus the part its child spans cover)
  /// by layer, microseconds.
  std::map<std::string, double> self_us;
  /// Server time of client reads: "net.request" spans whose parent is a
  /// "bench.read" span, microseconds.
  std::vector<double> server_us;
  /// Client round trip minus client decode minus server time, per read.
  std::vector<double> wire_us;
};

/// Layer a span belongs to, from its name prefix: net, service,
/// tile_store, storage, replication or client.
std::string LayerOf(const std::string& span_name);

SpanReport AnalyzeSpans(const std::vector<hdmap::TraceEvent>& events);

}  // namespace perfbench

#endif  // HDMAP_PERFBENCH_LAYERS_H_
