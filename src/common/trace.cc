#include "common/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/event_log.h"
#include "common/json_escape.h"
#include "common/metrics.h"

namespace hdmap {

namespace {

thread_local TraceContext g_trace_context;

/// Small dense thread ordinal (stable for the thread's lifetime): keys
/// the ring stripe and labels the Perfetto track.
uint32_t ThisThreadOrdinal() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Offset (µs) from the steady clock to the unix epoch, sampled now.
/// Spans store steady timestamps (immune to NTP steps mid-span); adding
/// this anchor at export time puts them on the shared wall clock so two
/// processes' timelines align.
int64_t WallAnchorUsNow() {
  int64_t wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  int64_t steady_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  return wall_us - steady_us;
}

}  // namespace

TraceContext CurrentTraceContext() { return g_trace_context; }

TraceContextScope::TraceContextScope(const TraceContext& ctx)
    : saved_(g_trace_context) {
  g_trace_context = ctx;
}

TraceContextScope::~TraceContextScope() { g_trace_context = saved_; }

TraceRecorder::TraceRecorder() : wall_anchor_us_(WallAnchorUsNow()) {
  Configure(Options{});
}

TraceRecorder::TraceRecorder(const Options& options)
    : wall_anchor_us_(WallAnchorUsNow()) {
  Configure(options);
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Configure(const Options& options) {
  enabled_.store(options.enabled, std::memory_order_relaxed);
  sample_every_n_.store(options.sample_every_n, std::memory_order_relaxed);
  slow_threshold_ns_.store(
      options.slow_threshold_s > 0.0
          ? static_cast<uint64_t>(options.slow_threshold_s * 1e9)
          : 0,
      std::memory_order_relaxed);
  stripe_capacity_ = std::max<size_t>(1, options.capacity / kStripes);
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.ring.assign(stripe_capacity_, TraceEvent{});
    stripe.next = 0;
    stripe.size = 0;
  }
}

TraceRecorder::Options TraceRecorder::options() const {
  Options out;
  out.enabled = enabled_.load(std::memory_order_relaxed);
  out.capacity = stripe_capacity_ * kStripes;
  out.sample_every_n = sample_every_n_.load(std::memory_order_relaxed);
  out.slow_threshold_s = slow_threshold_s();
  return out;
}

bool TraceRecorder::SampleNextTrace() {
  uint32_t n = sample_every_n_.load(std::memory_order_relaxed);
  if (n == 0) return false;
  return sample_counter_.fetch_add(1, std::memory_order_relaxed) % n == 0;
}

void TraceRecorder::Record(const TraceEvent& event) {
  recorded_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[ThisThreadOrdinal() % kStripes];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.ring.empty()) return;
  if (stripe.size == stripe.ring.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++stripe.size;
  }
  stripe.ring[stripe.next] = event;
  stripe.next = (stripe.next + 1) % stripe.ring.size();
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    // Oldest-first within the stripe: the ring's next write position is
    // also its oldest entry once it has wrapped.
    size_t start = stripe.size == stripe.ring.size()
                       ? stripe.next
                       : (stripe.next + stripe.ring.size() - stripe.size) %
                             stripe.ring.size();
    for (size_t i = 0; i < stripe.size; ++i) {
      out.push_back(stripe.ring[(start + i) % stripe.ring.size()]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.span_id < b.span_id;
            });
  return out;
}

void TraceRecorder::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.next = 0;
    stripe.size = 0;
  }
}

std::string TraceRecorder::ExportChromeTraceJson() const {
  return ExportChromeTraceJson(1, "hdmap");
}

std::string TraceRecorder::ExportChromeTraceJson(
    uint32_t process_id, const std::string& process_label) const {
  std::vector<TraceEvent> events = Snapshot();
  std::string out;
  out.reserve(events.size() * 220 + 192);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[448];
  // Perfetto names the process track from this metadata record, which
  // is what makes a merged multi-node export readable.
  std::snprintf(buf, sizeof(buf),
                "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                "\"args\":{\"name\":\"",
                process_id);
  out += buf;
  AppendJsonEscaped(process_label, &out);
  out += "\"}}";
  for (const TraceEvent& e : events) {
    out += ",\n{\"name\":\"";
    AppendJsonEscaped(e.name, &out);
    std::snprintf(
        buf, sizeof(buf),
        "\",\"cat\":\"hdmap\",\"ph\":\"X\","
        "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
        "\"args\":{\"trace_id\":\"%" PRIu64 "\",\"span_id\":\"%" PRIu64
        "\",\"parent_span_id\":\"%" PRIu64
        "\",\"status\":\"%.*s\",\"slow\":%s,\"sampled\":%s}}",
        static_cast<double>(e.start_ns) / 1e3 +
            static_cast<double>(wall_anchor_us_),
        static_cast<double>(e.duration_ns) / 1e3, process_id, e.thread_id,
        e.trace_id, e.span_id, e.parent_span_id,
        static_cast<int>(StatusCodeToString(e.status).size()),
        StatusCodeToString(e.status).data(), e.slow ? "true" : "false",
        e.sampled ? "true" : "false");
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

bool ReportSlow(const TraceRecorder& recorder, const char* name,
                uint64_t duration_ns, StatusCode status, uint64_t trace_id,
                EventLog* log) {
  uint64_t threshold_ns = recorder.slow_threshold_ns();
  if (threshold_ns == 0 || duration_ns <= threshold_ns) return false;
  if (log != nullptr) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " took %.1f ms (threshold %.1f ms)",
                  static_cast<double>(duration_ns) * 1e-6,
                  static_cast<double>(threshold_ns) * 1e-6);
    log->Append(EventLog::Type::kSlowRequest, trace_id,
                std::string(name) + buf, status);
  }
  return true;
}

TraceSpan::TraceSpan(const char* name, LatencyHistogram* latency,
                     EventLog* slow_log, TraceRecorder* recorder)
    : latency_(latency), slow_log_(slow_log) {
  event_.name = name;
  const TraceContext& ctx = g_trace_context;
  if (ctx.active()) {
    Open(recorder != nullptr ? recorder : &TraceRecorder::Global(), ctx);
  } else {
    StartTimer(recorder);  // No enclosing trace: inert unless timed.
  }
}

TraceSpan::TraceSpan(const char* name, RootTag, LatencyHistogram* latency,
                     EventLog* slow_log, TraceRecorder* recorder)
    : latency_(latency), slow_log_(slow_log) {
  event_.name = name;
  TraceRecorder* rec =
      recorder != nullptr ? recorder : &TraceRecorder::Global();
  const TraceContext& ambient = g_trace_context;
  if (ambient.active()) {
    // Already inside a trace: a layered entry point (e.g. a MapService
    // endpoint called by the network edge, whose per-request span is the
    // real root) joins the enclosing trace as a child, so one request
    // yields one trace instead of two disconnected ones.
    Open(rec, ambient);
    return;
  }
  if (!rec->enabled()) {
    StartTimer(rec);
    return;
  }
  TraceContext ctx;
  ctx.trace_id = rec->NextTraceId();
  ctx.parent_span_id = 0;
  ctx.sampled = rec->SampleNextTrace();
  Open(rec, ctx);
}

void TraceSpan::StartTimer(TraceRecorder* recorder) {
  if (latency_ == nullptr && slow_log_ == nullptr) return;
  recorder_ = recorder != nullptr ? recorder : &TraceRecorder::Global();
  event_.start_ns = NowNs();
}

void TraceSpan::Open(TraceRecorder* recorder, const TraceContext& ctx) {
  recorder_ = recorder;
  event_.trace_id = ctx.trace_id;
  event_.parent_span_id = ctx.parent_span_id;
  event_.span_id = recorder->NextSpanId();
  event_.sampled = ctx.sampled;
  event_.thread_id = ThisThreadOrdinal();
  event_.start_ns = NowNs();
  saved_ = g_trace_context;
  g_trace_context =
      TraceContext{event_.trace_id, event_.span_id, ctx.sampled};
  active_ = true;
}

void TraceSpan::End() {
  if (ended_) return;
  ended_ = true;
  if (recorder_ == nullptr) return;  // Inert and untimed.
  event_.duration_ns = NowNs() - event_.start_ns;
  if (latency_ != nullptr) {
    latency_->Record(static_cast<double>(event_.duration_ns) * 1e-9);
  }
  event_.slow = ReportSlow(*recorder_, event_.name, event_.duration_ns,
                           event_.status, event_.trace_id, slow_log_);
  if (!active_) return;
  g_trace_context = saved_;
  if (event_.sampled || event_.slow ||
      (event_.status != StatusCode::kOk && force_record_)) {
    recorder_->Record(event_);
  }
}

}  // namespace hdmap
