#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <unordered_map>
#include <utility>

#include "common/trace.h"

namespace perfbench {

using hdmap::NetRequest;
using hdmap::NetRequestType;
using hdmap::NetResponse;
using hdmap::NetResponseCode;
using hdmap::Status;
using hdmap::TraceEvent;
using hdmap::TraceRecorder;

struct ReadLoop::ConnState {
  std::unordered_map<uint64_t, Pending> pending;
  short revents = 0;
};

void LoopStats::Merge(const LoopStats& other) {
  attempted += other.attempted;
  ok += other.ok;
  busy += other.busy;
  error += other.error;
  wrong += other.wrong;
  dropped += other.dropped;
  reply_bytes += other.reply_bytes;
  done_per_slice.resize(
      std::max(done_per_slice.size(), other.done_per_slice.size()));
  for (size_t i = 0; i < other.done_per_slice.size(); ++i) {
    done_per_slice[i] += other.done_per_slice[i];
  }
}

Status OpenConnections(const std::vector<uint16_t>& node_ports,
                       const std::vector<size_t>& conn_nodes,
                       std::vector<std::unique_ptr<Conn>>* out) {
  for (size_t node : conn_nodes) {
    auto conn = std::make_unique<Conn>();
    conn->node = node;
    Status connected = conn->client.Connect("127.0.0.1", node_ports.at(node));
    if (!connected.ok()) return connected;
    int fd = conn->client.fd();
    if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
      return Status::Internal("cannot make the client socket non-blocking");
    }
    out->push_back(std::move(conn));
  }
  return Status::Ok();
}

ReadLoop::ReadLoop(std::vector<Conn*> conns, CompleteFn complete, bool traced,
                   size_t max_outstanding)
    : conns_(std::move(conns)),
      complete_(std::move(complete)),
      traced_(traced),
      max_outstanding_(max_outstanding) {
  for (size_t i = 0; i < conns_.size(); ++i) {
    state_.push_back(std::make_unique<ConnState>());
  }
}

ReadLoop::~ReadLoop() = default;

bool ReadLoop::Send(size_t c, const std::vector<ReadOp>& ops, size_t op,
                    Clock::time_point due, Clock::time_point now) {
  const ReadOp& read = ops[op];
  NetRequest request;
  request.type =
      read.region ? NetRequestType::kGetRegion : NetRequestType::kGetTile;
  request.request_id = next_request_id_++;
  request.tile = read.tile;
  request.box = read.box;
  Pending pending{op, due, now, 0, 0};
  if (traced_) {
    TraceRecorder& recorder = TraceRecorder::Global();
    pending.trace_id = recorder.NextTraceId();
    pending.span_id = recorder.NextSpanId();
    request.trace_id = pending.trace_id;
    request.parent_span_id = pending.span_id;
    request.trace_sampled = true;
  }
  if (!conns_[c]->client.Send(request).ok()) {
    conns_[c]->dead = true;
    return false;
  }
  state_[c]->pending.emplace(request.request_id, pending);
  return true;
}

size_t ReadLoop::Drain(size_t c, const std::vector<ReadOp>& ops,
                       LoopStats* stats) {
  static const std::string kWouldBlock = std::strerror(EAGAIN);
  size_t handled = 0;
  ConnState& state = *state_[c];
  for (;;) {
    hdmap::Result<NetResponse> response = conns_[c]->client.ReadResponse(0);
    if (!response.ok()) {
      if (response.status().message().find(kWouldBlock) == std::string::npos) {
        conns_[c]->dead = true;
      }
      return handled;
    }
    Clock::time_point arrived = Clock::now();
    auto it = state.pending.find(response->request_id);
    if (it == state.pending.end()) continue;  // Not ours (cannot happen).
    Pending pending = it->second;
    state.pending.erase(it);
    ++handled;
    Outcome outcome = Outcome::kOk;
    Clock::time_point decoded_at = arrived;
    if (response->code == NetResponseCode::kBusy) {
      outcome = Outcome::kBusy;
    } else if (response->code != NetResponseCode::kOk) {
      outcome = Outcome::kError;
    } else {
      outcome = complete_(ops[pending.op], response.value(), &decoded_at);
    }
    stats->reply_bytes += response->payload.size();
    Count(stats, outcome, pending.due, decoded_at);
    if (traced_ && outcome == Outcome::kOk) {
      TraceRecorder& recorder = TraceRecorder::Global();
      TraceEvent read;
      read.name = "bench.read";
      read.trace_id = pending.trace_id;
      read.span_id = pending.span_id;
      read.start_ns = SteadyNs(pending.sent);
      read.duration_ns = SteadyNs(decoded_at) - read.start_ns;
      read.sampled = true;
      recorder.Record(read);
      TraceEvent decode = read;
      decode.name = "bench.client_decode";
      decode.span_id = recorder.NextSpanId();
      decode.parent_span_id = pending.span_id;
      decode.start_ns = SteadyNs(arrived);
      decode.duration_ns = SteadyNs(decoded_at) - decode.start_ns;
      recorder.Record(decode);
    }
  }
}

void ReadLoop::Wait(double timeout_s) {
  std::vector<pollfd> fds;
  std::vector<size_t> index;
  for (size_t c = 0; c < conns_.size(); ++c) {
    state_[c]->revents = 0;
    if (conns_[c]->dead) continue;
    fds.push_back(pollfd{conns_[c]->client.fd(), POLLIN, 0});
    index.push_back(c);
  }
  if (fds.empty()) return;
  timeout_s = std::max(0.0, timeout_s);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
  for (size_t i = 0; i < fds.size(); ++i) {
    state_[index[i]]->revents = fds[i].revents;
  }
}

void ReadLoop::Count(LoopStats* stats, Outcome outcome, Clock::time_point due,
                     Clock::time_point done) {
  switch (outcome) {
    case Outcome::kOk: ++stats->ok; break;
    case Outcome::kBusy: ++stats->busy; break;
    case Outcome::kError: ++stats->error; break;
    case Outcome::kWrong: ++stats->wrong; break;
    default: ++stats->dropped; break;
  }
  if (slice_s_ > 0) {  // Closed loop: completions per sub-window only.
    double k = SecondsBetween(start_, done) / slice_s_;
    if (outcome == Outcome::kOk && k >= 0 &&
        k < static_cast<double>(stats->done_per_slice.size())) {
      ++stats->done_per_slice[static_cast<size_t>(k)];
    }
    return;
  }
  stats->at_s.push_back(SecondsBetween(start_, due));
  stats->latency_ms.push_back(
      outcome == Outcome::kOk ? SecondsBetween(due, done) * 1e3 : kInf);
}

void ReadLoop::DropPending(size_t c, LoopStats* stats) {
  Clock::time_point now = Clock::now();
  for (const auto& [id, pending] : state_[c]->pending) {
    Count(stats, Outcome::kDropped, pending.due, now);
  }
  state_[c]->pending.clear();
}

LoopStats ReadLoop::RunOpen(const std::vector<ReadOp>& ops,
                            const std::vector<double>& due_s,
                            double drain_s) {
  LoopStats stats;
  // Round-robin cursor per target node over that node's connections.
  std::unordered_map<size_t, size_t> cursor;
  slice_s_ = 0.0;
  start_ = Clock::now();
  Clock::time_point give_up =
      After(start_, (due_s.empty() ? 0.0 : due_s.back()) + drain_s);
  size_t next = 0;
  for (;;) {
    Clock::time_point now = Clock::now();
    while (next < ops.size() && After(start_, due_s[next]) <= now) {
      Clock::time_point due = After(start_, due_s[next]);
      ++stats.attempted;
      size_t chosen = conns_.size();
      size_t& turn = cursor[ops[next].node];
      for (size_t k = 0; k < conns_.size() && chosen == conns_.size(); ++k) {
        size_t c = (turn + k) % conns_.size();
        if (!conns_[c]->dead && conns_[c]->node == ops[next].node) chosen = c;
      }
      turn = chosen + 1;
      if (chosen == conns_.size() ||
          state_[chosen]->pending.size() >= max_outstanding_ ||
          !Send(chosen, ops, next, due, now)) {
        Count(&stats, Outcome::kDropped, due, now);
      } else {
        stats.late_ms.push_back(SecondsBetween(due, now) * 1e3);
      }
      ++next;
    }
    size_t outstanding = 0;
    for (const auto& state : state_) outstanding += state->pending.size();
    if (next == ops.size() && (outstanding == 0 || now >= give_up)) break;
    double timeout = next < ops.size()
                         ? SecondsBetween(now, After(start_, due_s[next]))
                         : 0.005;
    Wait(std::min(timeout, 0.005));
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (state_[c]->revents != 0) Drain(c, ops, &stats);
      if (conns_[c]->dead) DropPending(c, &stats);
    }
  }
  for (size_t c = 0; c < conns_.size(); ++c) DropPending(c, &stats);
  return stats;
}

LoopStats ReadLoop::RunClosed(const std::vector<ReadOp>& ops, size_t first,
                              size_t depth, double seconds, size_t slices) {
  LoopStats stats;
  stats.done_per_slice.assign(std::max<size_t>(1, slices), 0);
  slice_s_ = seconds / static_cast<double>(stats.done_per_slice.size());
  start_ = Clock::now();
  Clock::time_point deadline = After(start_, seconds);
  Clock::time_point give_up = After(deadline, 2.0);
  size_t next = first;
  auto send_next = [&](size_t c) {
    Clock::time_point now = Clock::now();
    size_t op = next++ % ops.size();
    ++stats.attempted;
    if (!Send(c, ops, op, now, now)) Count(&stats, Outcome::kDropped, now, now);
  };
  for (size_t c = 0; c < conns_.size(); ++c) {
    for (size_t d = 0; d < depth && !conns_[c]->dead; ++d) send_next(c);
  }
  for (;;) {
    Clock::time_point now = Clock::now();
    size_t outstanding = 0;
    for (const auto& state : state_) outstanding += state->pending.size();
    if (now >= deadline && (outstanding == 0 || now >= give_up)) break;
    Wait(0.005);
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (state_[c]->revents == 0) continue;
      size_t handled = Drain(c, ops, &stats);
      if (Clock::now() <= deadline) {
        for (size_t k = 0; k < handled && !conns_[c]->dead; ++k) send_next(c);
      }
      if (conns_[c]->dead) DropPending(c, &stats);
    }
  }
  for (size_t c = 0; c < conns_.size(); ++c) DropPending(c, &stats);
  return stats;
}

}  // namespace perfbench
