#include "layers.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

RegistryMark TakeMark(const std::vector<hdmap::MetricsRegistry*>& registries,
                      const std::vector<std::string>& counters,
                      const std::vector<std::string>& latencies) {
  RegistryMark mark;
  for (hdmap::MetricsRegistry* registry : registries) {
    for (const std::string& name : counters) {
      mark.counters[name] += registry->GetCounter(name)->value();
    }
    for (const std::string& name : latencies) {
      std::vector<hdmap::LatencyHistogram::Bucket> cumulative =
          registry->GetLatency(name)->CumulativeBuckets();
      std::vector<uint64_t>& counts = mark.buckets[name];
      counts.resize(cumulative.size(), 0);
      mark.bounds_s.resize(cumulative.size(), 0.0);
      uint64_t below = 0;
      for (size_t i = 0; i < cumulative.size(); ++i) {
        counts[i] += cumulative[i].cumulative_count - below;
        below = cumulative[i].cumulative_count;
        mark.bounds_s[i] = cumulative[i].le_seconds;
      }
    }
  }
  return mark;
}

uint64_t CounterDelta(const RegistryMark& begin, const RegistryMark& end,
                      const std::string& name) {
  auto b = begin.counters.find(name);
  auto e = end.counters.find(name);
  if (b == begin.counters.end() || e == end.counters.end()) return 0;
  return e->second - b->second;
}

namespace {

std::vector<uint64_t> DeltaBuckets(const RegistryMark& begin,
                                   const RegistryMark& end,
                                   const std::string& name) {
  // A histogram missing from `begin` had no samples yet.
  auto e = end.buckets.find(name);
  if (e == end.buckets.end()) return {};
  std::vector<uint64_t> delta = e->second;
  auto b = begin.buckets.find(name);
  if (b == begin.buckets.end()) return delta;
  for (size_t i = 0; i < delta.size() && i < b->second.size(); ++i) {
    delta[i] -= b->second[i];
  }
  return delta;
}

}  // namespace

uint64_t LatencyDeltaCount(const RegistryMark& begin, const RegistryMark& end,
                           const std::string& name) {
  uint64_t total = 0;
  for (uint64_t n : DeltaBuckets(begin, end, name)) total += n;
  return total;
}

double LatencyDeltaPercentile(const RegistryMark& begin,
                              const RegistryMark& end,
                              const std::string& name, double p) {
  std::vector<uint64_t> delta = DeltaBuckets(begin, end, name);
  uint64_t total = 0;
  for (uint64_t n : delta) total += n;
  if (total == 0) return 0.0;
  // Nearest rank, placed at the middle of its share of the bucket.
  double rank =
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(total)));
  const std::vector<double>& bounds = end.bounds_s;
  double seen = 0.0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (seen + static_cast<double>(delta[i]) < rank) {
      seen += static_cast<double>(delta[i]);
      continue;
    }
    // The last bucket is +Inf: clamp to the previous bound.
    if (std::isinf(bounds[i])) return i == 0 ? 0.0 : bounds[i - 1];
    double hi = bounds[i];
    double lo = i == 0 ? hi / std::pow(10.0, 0.25) : bounds[i - 1];
    double frac = (rank - seen - 0.5) / static_cast<double>(delta[i]);
    return lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
  }
  return bounds.size() >= 2 ? bounds[bounds.size() - 2] : 0.0;
}

CpuMark TakeCpuMark() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  CpuMark mark;
  mark.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
                static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  mark.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
               static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  mark.ctx_switches = static_cast<uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  return mark;
}

std::string LayerOf(const std::string& span_name) {
  // A write's own span covers the replication node's log append and
  // semi-sync ack wait around the service calls it makes.
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"bench.write", "replication"}, {"bench.", "client"},
      {"net_client.", "client"},      {"net.", "net"},
      {"map_service.", "service"},    {"tile_store.", "tile_store"},
      {"wal.", "storage"},            {"storage.", "storage"},
      {"repl.", "replication"},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (span_name.rfind(prefix, 0) == 0) return layer;
  }
  return "other";
}

SpanReport AnalyzeSpans(const std::vector<hdmap::TraceEvent>& events) {
  SpanReport report;
  std::unordered_map<uint64_t, size_t> by_id;
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < events.size(); ++i) {
    by_id[events[i].span_id] = i;
    if (events[i].parent_span_id != 0) {
      children[events[i].parent_span_id].push_back(i);
    }
  }
  for (const hdmap::TraceEvent& e : events) {
    std::string name = e.name;
    report.duration_us[name].push_back(static_cast<double>(e.duration_ns) /
                                       1e3);
    // Self time: the span's interval minus the union of its children's
    // intervals (clipped to the parent; children may run on other
    // threads and overlap each other).
    uint64_t begin = e.start_ns;
    uint64_t end = e.start_ns + e.duration_ns;
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    auto kids = children.find(e.span_id);
    if (kids != children.end()) {
      for (size_t k : kids->second) {
        uint64_t kb = std::max(begin, events[k].start_ns);
        uint64_t ke = std::min(end, events[k].start_ns + events[k].duration_ns);
        if (kb < ke) covered.emplace_back(kb, ke);
      }
    }
    std::sort(covered.begin(), covered.end());
    uint64_t union_ns = 0;
    uint64_t reach = begin;
    for (const auto& [kb, ke] : covered) {
      uint64_t from = std::max(kb, reach);
      if (ke > from) union_ns += ke - from;
      reach = std::max(reach, ke);
    }
    report.self_us[LayerOf(name)] +=
        static_cast<double>(e.duration_ns - union_ns) / 1e3;

    if (name != "net.request") continue;
    auto parent = by_id.find(e.parent_span_id);
    if (parent == by_id.end()) continue;
    const hdmap::TraceEvent& read = events[parent->second];
    if (std::string(read.name) != "bench.read") continue;
    double server_us = static_cast<double>(e.duration_ns) / 1e3;
    double decode_us = 0.0;
    for (size_t k : children[read.span_id]) {
      if (std::string(events[k].name) == "bench.client_decode") {
        decode_us = static_cast<double>(events[k].duration_ns) / 1e3;
      }
    }
    report.server_us.push_back(server_us);
    report.wire_us.push_back(static_cast<double>(read.duration_ns) / 1e3 -
                             decode_us - server_us);
  }
  return report;
}

}  // namespace perfbench
