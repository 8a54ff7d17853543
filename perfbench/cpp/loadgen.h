#ifndef HDMAP_PERFBENCH_LOADGEN_H_
#define HDMAP_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/tile_store.h"
#include "geometry/aabb.h"
#include "net/tile_server.h"

namespace perfbench {

/// One scheduled read: a GetTile by id or a GetRegion by box, aimed at
/// one node of the serving set.
struct ReadOp {
  bool region = false;
  hdmap::TileId tile;
  hdmap::Aabb box;
  size_t node = 0;
};

/// How one operation ended. Everything but kOk counts in fail_frac.
enum class Outcome { kOk, kBusy, kError, kWrong, kDropped };

/// Client-side completion of one reply: decodes the payload through a
/// public decode call and checks it. Returns the outcome and sets
/// `*decoded_at` to the instant the decoded result was usable.
using CompleteFn = std::function<Outcome(
    const ReadOp& op, const hdmap::NetResponse& response,
    Clock::time_point* decoded_at)>;

/// One connection of the load generator.
struct Conn {
  size_t node = 0;
  hdmap::NetClient client;
  bool dead = false;
};

/// Connects one non-blocking NetClient per entry of `node_ports`
/// (the index of the node each connection targets is its port's index).
hdmap::Status OpenConnections(const std::vector<uint16_t>& node_ports,
                              const std::vector<size_t>& conn_nodes,
                              std::vector<std::unique_ptr<Conn>>* out);

/// What one phase of reads produced.
struct LoopStats {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t error = 0;
  uint64_t wrong = 0;
  uint64_t dropped = 0;
  uint64_t reply_bytes = 0;
  /// Open loop: due-time latency of every attempted op, ms; failures are
  /// +inf.
  std::vector<double> latency_ms;
  /// Open loop: due time of each latency_ms entry, seconds from the
  /// phase start.
  std::vector<double> at_s;
  /// Open loop: send lateness against the schedule, ms.
  std::vector<double> late_ms;
  /// Closed loop: successful completions in each equal sub-window of the
  /// phase. Its size is fixed, however many reads the server completes.
  std::vector<uint64_t> done_per_slice;

  uint64_t failed() const { return busy + error + wrong + dropped; }
  void Merge(const LoopStats& other);
};

/// Single-threaded event loop over a few non-blocking connections, driven
/// through NetClient's fd() poll seam: requests go out on their schedule
/// (open loop) or as replies free a pipeline slot (closed loop), replies
/// are matched to requests by request_id.
///
/// With `traced` set, every request carries a fresh trace context and the
/// loop records a "bench.read" span (send to decoded reply) with a
/// "bench.client_decode" child into TraceRecorder::Global(), so the
/// server's "net.request" spans parent under the client call.
class ReadLoop {
 public:
  ReadLoop(std::vector<Conn*> conns, CompleteFn complete, bool traced,
           size_t max_outstanding);
  ~ReadLoop();
  ReadLoop(const ReadLoop&) = delete;
  ReadLoop& operator=(const ReadLoop&) = delete;

  /// Open loop: op i is due at start + due_s[i]. A request whose
  /// connection already has max_outstanding replies pending is dropped
  /// at the client. Replies still missing `drain_s` after the last due
  /// time count as dropped.
  LoopStats RunOpen(const std::vector<ReadOp>& ops,
                    const std::vector<double>& due_s, double drain_s);

  /// Closed loop: keeps `depth` requests outstanding per connection for
  /// `seconds`, cycling through `ops` from `first`, and counts the
  /// completions in each of `slices` equal sub-windows.
  LoopStats RunClosed(const std::vector<ReadOp>& ops, size_t first,
                      size_t depth, double seconds, size_t slices);

 private:
  struct Pending {
    size_t op = 0;
    Clock::time_point due;
    Clock::time_point sent;
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
  };
  struct ConnState;

  /// Sends ops[op] on connection `c`; false when the connection failed.
  bool Send(size_t c, const std::vector<ReadOp>& ops, size_t op,
            Clock::time_point due, Clock::time_point now);
  /// Drains every complete reply on connection `c`. Returns the number
  /// of replies handled; marks the connection dead on IO failure.
  size_t Drain(size_t c, const std::vector<ReadOp>& ops, LoopStats* stats);
  /// Waits up to `timeout_s` for any connection to become readable.
  void Wait(double timeout_s);
  /// Counts every request still pending on connection `c` as dropped.
  void DropPending(size_t c, LoopStats* stats);
  /// Books one finished op.
  void Count(LoopStats* stats, Outcome outcome, Clock::time_point due,
             Clock::time_point done);

  std::vector<Conn*> conns_;
  std::vector<std::unique_ptr<ConnState>> state_;
  CompleteFn complete_;
  bool traced_ = false;
  size_t max_outstanding_ = 0;
  uint64_t next_request_id_ = 1;
  Clock::time_point start_;  ///< Start of the running phase.
  double slice_s_ = 0.0;     ///< Closed loop: sub-window length.
};

}  // namespace perfbench

#endif  // HDMAP_PERFBENCH_LOADGEN_H_
