#include "workloads.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/trace.h"
#include "core/map_patch.h"
#include "core/serialization.h"
#include "core/tile_store.h"
#include "core/tile_view.h"
#include "layers.h"
#include "loadgen.h"
#include "replication/node.h"
#include "sim/road_network_generator.h"

namespace perfbench {
namespace {

using hdmap::Aabb;
using hdmap::ElementId;
using hdmap::HdMap;
using hdmap::MapPatch;
using hdmap::ReplicationNode;
using hdmap::Status;
using hdmap::TileId;
using hdmap::TraceRecorder;
using hdmap::TraceSpan;
using hdmap::Vec2;
using hdmap::Vec3;

constexpr size_t kNodes = 3;
/// Replies still missing this long after the last due time are dropped.
constexpr double kDrainS = 2.0;
/// In-process replay length of the traced run (ops).
constexpr size_t kReplayOps = 2000;
/// How long a write may take to reach every follower before it counts
/// as never visible.
constexpr double kVisibleTimeoutS = 5.0;

enum class Kind { kTile, kRegion, kFleet };

// --- Configuration -------------------------------------------------------
// Every workload parameter is one of these constants; ConfigLine prints
// them on the first line of each run.

/// The town is the same for every --seed (which seeds the traffic and the
/// patches), so per-op costs do not move with the map drawn.
constexpr uint64_t kWorldSeed = 1;
constexpr int kTownRows = 20;  ///< Intersections; 900 tiles of 100 m.
constexpr int kTownCols = 20;
constexpr double kTileSizeM = 100.0;
constexpr double kZipfS = 1.0;  ///< Skew of the tile / box-centre draw.
constexpr double kRegionMinM = 200.0;  ///< Side of a GetRegion box.
constexpr double kRegionMaxM = 400.0;
constexpr size_t kConnections = 4;
constexpr size_t kPeakThreads = 2;  ///< Event loops of the closed loop.
constexpr size_t kPeakDepth = 16;   ///< Closed loop: in flight per conn.
/// Open loop: replies pending per connection beyond which the client
/// drops a due request.
constexpr size_t kClientMaxOutstanding = 256;
constexpr size_t kRegionCheckEvery = 16;  ///< GetRegion replies per sample.
constexpr double kWarmupS = 1.0;
/// Shares of --seconds: the write probe, the open loop, the peak.
constexpr double kProbeShare = 0.3;
constexpr double kOpenShare = 0.5;
constexpr double kPeakShare = 0.2;
constexpr size_t kSlices = 8;  ///< Sub-windows each metric takes a median of.
constexpr size_t kWorkerThreads = 2;
constexpr size_t kMinAckReplicas = 1;
constexpr double kWriteRateHz = 5.0;        ///< fleet_update writes.
constexpr double kProbeWriteRateHz = 10.0;  ///< Write probe of read loads.
/// Publishes between checkpoints of a durable cluster: more than a run
/// makes, so the bootstrap checkpoints are the only ones (see
/// record.json, "durability").
constexpr uint32_t kCheckpointEvery = 1000;
constexpr size_t kSetupRepeats = 11;  ///< Set-ups whose median is setup_s.

/// What differs between workloads. The read rates are fixed absolute
/// rates (see perfbench/record.json for the capacity they derive from).
struct WorkloadSpec {
  const char* name;
  Kind kind;
  double read_rate_hz;  ///< Open-loop read rate.
  bool durable;         ///< WAL + checkpoints, fsync kAlways.
};

constexpr WorkloadSpec kWorkloads[] = {
    {"tile_fetch", Kind::kTile, 6000.0, false},
    {"region_fetch", Kind::kRegion, 600.0, false},
    {"fleet_update", Kind::kFleet, 400.0, true},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// --- World and cluster ---------------------------------------------------

hdmap::Result<HdMap> MakeWorld() {
  hdmap::Rng rng(kWorldSeed);
  hdmap::TownOptions town;
  town.grid_rows = kTownRows;
  town.grid_cols = kTownCols;
  return hdmap::GenerateTown(town, rng);
}

/// 1 leader + 2 followers on loopback with semi-sync acks; durable (WAL
/// and checkpoints, fsync kAlways) when the workload is. Every node's
/// TileServer runs kWorkerThreads workers.
class Cluster {
 public:
  Cluster() = default;
  ~Cluster() { Stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Status Start(const HdMap& world, const WorkloadSpec& spec,
               size_t max_pending_requests, const std::string& dir) {
    for (size_t i = 0; i < kNodes; ++i) {
      ReplicationNode::Options o;
      o.node_id = static_cast<int>(i);
      o.service.tile_store.tile_size_m = kTileSizeM;
      if (spec.durable) {
        o.service.durability.data_dir = dir + "/node" + std::to_string(i);
        o.service.durability.fsync = hdmap::FsyncMode::kAlways;
        o.service.durability.checkpoint_every_n_publishes = kCheckpointEvery;
      }
      o.server.worker_threads = kWorkerThreads;
      if (max_pending_requests != 0) {
        o.server.max_pending_requests = max_pending_requests;
      }
      o.min_ack_replicas = kMinAckReplicas;
      nodes_.push_back(std::make_unique<ReplicationNode>(o));
      HDMAP_RETURN_IF_ERROR(nodes_.back()->Start(world));
    }
    std::vector<hdmap::WalShipper::FollowerInfo> followers;
    for (size_t i = 1; i < kNodes; ++i) {
      followers.push_back(
          {static_cast<int>(i), "127.0.0.1", nodes_[i]->port()});
    }
    nodes_[0]->BecomeLeader(1, followers);
    return Status::Ok();
  }

  void Stop() {
    for (auto& node : nodes_) node->Halt();
    nodes_.clear();
  }

  ReplicationNode& node(size_t i) { return *nodes_[i]; }
  ReplicationNode& leader() { return *nodes_[0]; }

  std::vector<uint16_t> Ports() const {
    std::vector<uint16_t> ports;
    for (const auto& node : nodes_) ports.push_back(node->port());
    return ports;
  }

  std::vector<hdmap::MetricsRegistry*> Registries(size_t count) {
    std::vector<hdmap::MetricsRegistry*> out;
    for (size_t i = 0; i < count; ++i) {
      out.push_back(&nodes_[i]->service().metrics());
    }
    return out;
  }

  /// Smallest published version across the followers.
  uint64_t MinFollowerVersion() const {
    uint64_t v = UINT64_MAX;
    for (size_t i = 1; i < nodes_.size(); ++i) {
      v = std::min(v, nodes_[i]->service().version());
    }
    return v;
  }

 private:
  std::vector<std::unique_ptr<ReplicationNode>> nodes_;
};

// --- Inputs --------------------------------------------------------------

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    double total = 0.0;
    for (size_t k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Next(hdmap::Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform());
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct WriteOp {
  MapPatch patch;
  Vec2 where;  ///< Position of the patch's first change.
};

/// Seeded generator of every input the workloads send.
class Inputs {
 public:
  Inputs(uint64_t seed, double read_rate_hz, const HdMap& world,
         std::vector<TileId> tiles)
      : seed_(seed),
        read_rate_hz_(read_rate_hz),
        tiles_(std::move(tiles)),
        zipf_(tiles_.size(), kZipfS) {
    // Popularity ranks land on a permutation of the tiles, so the hot set
    // is scattered over the town rather than one corner. Like the town,
    // it does not change with --seed: which tiles are hot (and so the
    // bytes a read moves) is part of the fixed world.
    hdmap::Rng rng(kWorldSeed ^ 0x5EEDull);
    rank_to_tile_.resize(tiles_.size());
    for (size_t i = 0; i < tiles_.size(); ++i) rank_to_tile_[i] = i;
    for (size_t i = tiles_.size(); i > 1; --i) {
      std::swap(rank_to_tile_[i - 1],
                rank_to_tile_[rng.NextU32() % static_cast<uint32_t>(i)]);
    }
    for (const auto& [id, landmark] : world.landmarks()) {
      signs_.emplace_back(id, landmark.position);
    }
  }

  static Vec2 TileCenter(const TileId& t) {
    return {(t.x + 0.5) * kTileSizeM, (t.y + 0.5) * kTileSizeM};
  }

  TileId HotTile(hdmap::Rng& rng) const {
    return tiles_[rank_to_tile_[zipf_.Next(rng)]];
  }

  ReadOp TileRead(hdmap::Rng& rng) const {
    ReadOp op;
    op.tile = HotTile(rng);
    return op;
  }

  ReadOp RegionRead(hdmap::Rng& rng, Vec2 centre) const {
    ReadOp op;
    op.region = true;
    double half = kTileSizeM / 2;
    centre.x += rng.Uniform(-half, half);
    centre.y += rng.Uniform(-half, half);
    double side = rng.Uniform(kRegionMinM, kRegionMaxM);
    op.box = Aabb({centre.x - side / 2, centre.y - side / 2},
                  {centre.x + side / 2, centre.y + side / 2});
    return op;
  }

  /// A box around a Zipf-drawn tile.
  ReadOp HotRegionRead(hdmap::Rng& rng) const {
    return RegionRead(rng, TileCenter(HotTile(rng)));
  }

  /// Open-loop reads at the workload's read rate for `seconds`.
  /// fleet_update reads rotate over the nodes, and every other one aims
  /// at the patch most recently due in `writes` (written at kWriteRateHz).
  void Reads(Kind kind, double seconds, uint64_t stream,
             const std::vector<WriteOp>& writes, std::vector<ReadOp>* ops,
             std::vector<double>* due) const {
    hdmap::Rng rng(seed_ * 0x9E3779B97F4A7C15ull + stream);
    size_t n = static_cast<size_t>(seconds * read_rate_hz_);
    for (size_t i = 0; i < n; ++i) {
      double t = static_cast<double>(i) / read_rate_hz_;
      ReadOp op;
      if (kind == Kind::kTile) {
        op = TileRead(rng);
      } else if (kind == Kind::kFleet && i % 2 == 1 && !writes.empty()) {
        size_t j = std::min(writes.size() - 1,
                            static_cast<size_t>(t * kWriteRateHz));
        op = RegionRead(rng, TileCenterOf(writes[j].where));
      } else {
        op = HotRegionRead(rng);
      }
      if (kind == Kind::kFleet) op.node = i % kNodes;
      ops->push_back(op);
      due->push_back(t);
    }
  }

  /// Small seeded patches: 1-3 changes, each a sign move (up to 2 m) or
  /// a new sign beside an existing one, so each touches 1-3 tiles.
  std::vector<WriteOp> Writes(double seconds, double rate_hz, uint64_t stream) {
    hdmap::Rng rng(seed_ * 0xC2B2AE3D27D4EB4Full + stream);
    size_t n = static_cast<size_t>(seconds * rate_hz);
    std::vector<WriteOp> out(n);
    for (WriteOp& w : out) {
      int changes = rng.UniformInt(1, 3);
      for (int c = 0; c < changes; ++c) {
        const auto& [id, pos] =
            signs_[rng.NextU32() % static_cast<uint32_t>(signs_.size())];
        Vec3 at = pos;
        if (rng.Bernoulli(0.5)) {
          at.x += rng.Uniform(-2.0, 2.0);
          at.y += rng.Uniform(-2.0, 2.0);
          w.patch.moved_landmarks.push_back({id, at});
        } else {
          hdmap::Landmark added;
          added.id = next_landmark_id_++;
          added.subtype = "speed_limit_30";
          added.reflectivity = 0.9;
          at.x += rng.Uniform(-5.0, 5.0);
          at.y += rng.Uniform(-5.0, 5.0);
          added.position = at;
          w.patch.added_landmarks.push_back(added);
        }
        if (c == 0) w.where = {at.x, at.y};
      }
    }
    return out;
  }

 private:
  static Vec2 TileCenterOf(Vec2 p) {
    TileId t{static_cast<int32_t>(std::floor(p.x / kTileSizeM)),
             static_cast<int32_t>(std::floor(p.y / kTileSizeM))};
    return TileCenter(t);
  }

  uint64_t seed_;
  double read_rate_hz_;
  std::vector<TileId> tiles_;
  Zipf zipf_;
  std::vector<size_t> rank_to_tile_;
  std::vector<std::pair<ElementId, Vec3>> signs_;
  ElementId next_landmark_id_ = 1'000'000'000;
};

// --- Output checks -------------------------------------------------------

/// FNV-1a over a map's element ids and geometry: equal digests mean the
/// same elements with the same coordinates.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void Add(double d) {
    uint64_t v = 0;
    std::memcpy(&v, &d, sizeof(v));
    Add(v);
  }
  void Add(const hdmap::LineString& line) {
    Add(static_cast<uint64_t>(line.size()));
    for (const Vec2& q : line.points()) {
      Add(q.x);
      Add(q.y);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

uint64_t MapDigest(const HdMap& map) {
  Digest d;
  for (const auto& [id, lm] : map.landmarks()) {
    d.Add(static_cast<uint64_t>(id));
    d.Add(lm.position.x);
    d.Add(lm.position.y);
    d.Add(lm.position.z);
  }
  for (const auto& [id, lf] : map.line_features()) {
    d.Add(static_cast<uint64_t>(id));
    d.Add(lf.geometry);
  }
  for (const auto& [id, ll] : map.lanelets()) {
    d.Add(static_cast<uint64_t>(id));
    d.Add(ll.centerline);
    d.Add(static_cast<uint64_t>(ll.left_boundary_id));
    d.Add(static_cast<uint64_t>(ll.right_boundary_id));
  }
  for (const auto& [id, area] : map.area_features()) {
    d.Add(static_cast<uint64_t>(id));
  }
  for (const auto& [id, reg] : map.regulatory_elements()) {
    d.Add(static_cast<uint64_t>(id));
  }
  return d.value();
}

/// The leader's tile store at every version a reply can carry (copies
/// share the tile bytes, so each costs only its index).
class VersionStores {
 public:
  void Add(const hdmap::MapSnapshot& snap) {
    std::lock_guard<std::mutex> lock(mu_);
    stores_.try_emplace(snap.version, snap.tiles);
  }
  /// Moves the stores out (after the load has stopped).
  std::map<uint64_t, hdmap::TileStore> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(stores_);
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, hdmap::TileStore> stores_;
};

struct RegionSample {
  Aabb box;
  uint64_t version = 0;
  uint64_t digest = 0;
};

/// Client-side completion: decode every reply through a public decode
/// call and check it. Runs on the load-generator threads (one instance
/// per thread).
class ReplyChecker {
 public:
  ReplyChecker(int tamper, const std::map<uint64_t, std::string>* blobs,
               uint64_t blob_version)
      : tamper_(tamper), blobs_(blobs), blob_version_(blob_version) {}

  Outcome Complete(const ReadOp& op, const hdmap::NetResponse& response,
                   Clock::time_point* decoded_at) {
    std::string_view payload = response.payload;
    std::string tampered;
    if (tamper_ == 1 && ++replies_ == 100) {
      tampered = response.payload;
      tampered[tampered.size() / 2] ^= 0x5A;
      payload = tampered;
    }
    if (!op.region) {
      hdmap::Result<hdmap::TileView> view = hdmap::TileView::Create(payload);
      *decoded_at = Clock::now();
      if (!view.ok()) return Wrong("tile decode: " + view.status().ToString());
      auto expected = blobs_->find(op.tile.Morton());
      if (expected == blobs_->end() || expected->second != payload ||
          response.version != blob_version_) {
        return Wrong("GetTile reply differs from the snapshot blob");
      }
      return Outcome::kOk;
    }
    hdmap::Result<HdMap> region = hdmap::DeserializeMap(payload);
    *decoded_at = Clock::now();
    if (!region.ok()) {
      return Wrong("region decode: " + region.status().ToString());
    }
    if (region_replies_++ % kRegionCheckEvery == 0) {
      if (tamper_ == 2 && !tampered_ && !region->landmarks().empty()) {
        tampered_ =
            region->RemoveLandmark(region->landmarks().begin()->first).ok();
      }
      samples_.push_back({op.box, response.version, MapDigest(*region)});
    }
    return Outcome::kOk;
  }

  const std::vector<RegionSample>& samples() const { return samples_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  Outcome Wrong(std::string why) {
    if (problems_.size() < 8) problems_.push_back(std::move(why));
    return Outcome::kWrong;
  }

  int tamper_;
  bool tampered_ = false;
  const std::map<uint64_t, std::string>* blobs_;
  uint64_t blob_version_;
  uint64_t replies_ = 0;
  uint64_t region_replies_ = 0;
  std::vector<RegionSample> samples_;
  std::vector<std::string> problems_;
};

// --- Writes --------------------------------------------------------------

struct WriteStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> publish_ms;  ///< From due time; failures +inf.
  std::vector<double> due_s;       ///< Due time of each op, from start.
  std::vector<double> visible_ms;  ///< Due time to every follower; +inf.
  double lag_records_max = 0.0;
  std::vector<bool> acked;
};

/// Open-loop write stream on the leader (StagePatch + Publish per op,
/// timed from due time) plus a poller that times each acked version
/// until every follower serves it.
class WriteStream {
 public:
  WriteStream(Cluster& cluster, VersionStores& stores)
      : cluster_(cluster), stores_(stores) {}
  ~WriteStream() { Finish(); }
  WriteStream(const WriteStream&) = delete;
  WriteStream& operator=(const WriteStream&) = delete;

  void Start(const std::vector<WriteOp>& ops, double rate_hz) {
    stats_ = WriteStats{};
    stats_.acked.assign(ops.size(), false);
    stats_.visible_ms.assign(ops.size(), kInf);
    for (size_t i = 0; i < ops.size(); ++i) {
      stats_.due_s.push_back(static_cast<double>(i) / rate_hz);
    }
    writer_done_ = false;
    Clock::time_point start = Clock::now();
    writer_ = std::thread(
        [this, &ops, rate_hz, start] { WriterMain(ops, rate_hz, start); });
    poller_ = std::thread([this] { PollerMain(); });
  }

  WriteStats Finish() {
    if (writer_.joinable()) writer_.join();
    if (poller_.joinable()) poller_.join();
    return stats_;
  }

 private:
  struct Awaiting {
    uint64_t version = 0;
    Clock::time_point due;
    size_t op = 0;
  };

  void WriterMain(const std::vector<WriteOp>& ops, double rate_hz,
                  Clock::time_point start) {
    ReplicationNode& leader = cluster_.leader();
    for (size_t i = 0; i < ops.size(); ++i) {
      Clock::time_point due = After(start, static_cast<double>(i) / rate_hz);
      std::this_thread::sleep_until(due);
      bool ok = false;
      {
        TraceSpan span("bench.write", TraceSpan::kRoot);
        ok = leader.StagePatch(ops[i].patch).ok() && leader.Publish().ok();
      }
      Clock::time_point acked = Clock::now();
      ++stats_.attempted;
      if (!ok) {
        ++stats_.failed;
        stats_.publish_ms.push_back(kInf);
        continue;
      }
      stats_.acked[i] = true;
      stats_.publish_ms.push_back(SecondsBetween(due, acked) * 1e3);
      std::shared_ptr<const hdmap::MapSnapshot> snap =
          leader.service().snapshot();
      {
        std::lock_guard<std::mutex> lock(mu_);
        awaiting_.push_back({snap->version, due, i});
      }
      stores_.Add(*snap);
    }
    std::lock_guard<std::mutex> lock(mu_);
    writer_done_ = true;
    writer_done_at_ = Clock::now();
  }

  void PollerMain() {
    hdmap::MetricsRegistry& metrics = cluster_.leader().service().metrics();
    std::vector<hdmap::Gauge*> lag;
    for (size_t i = 1; i < kNodes; ++i) {
      lag.push_back(metrics.GetGauge("replication.lag_records{FOLLOWER" +
                                     std::to_string(i) + "}"));
    }
    for (;;) {
      for (hdmap::Gauge* g : lag) {
        stats_.lag_records_max = std::max(stats_.lag_records_max, g->value());
      }
      uint64_t served = cluster_.MinFollowerVersion();
      Clock::time_point now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        while (!awaiting_.empty() && awaiting_.front().version <= served) {
          stats_.visible_ms[awaiting_.front().op] =
              SecondsBetween(awaiting_.front().due, now) * 1e3;
          awaiting_.pop_front();
        }
        if (writer_done_ &&
            (awaiting_.empty() ||
             SecondsBetween(writer_done_at_, now) > kVisibleTimeoutS)) {
          return;
        }
      }
      // 1 ms against publishes of tens of ms: fine enough for visible_ms,
      // and the poller's own wake-ups stay a small share of the CPU the
      // cost metrics count.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Cluster& cluster_;
  VersionStores& stores_;
  WriteStats stats_;  // Writer-owned fields vs poller-owned fields.
  std::mutex mu_;
  std::deque<Awaiting> awaiting_;
  bool writer_done_ = false;
  Clock::time_point writer_done_at_;
  std::thread writer_;
  std::thread poller_;
};

// --- Phases --------------------------------------------------------------

struct PhaseResult {
  double seconds = 0.0;
  LoopStats reads;
  WriteStats writes;
  CpuMark cpu_begin;
  CpuMark cpu_end;

  uint64_t attempted() const { return reads.attempted + writes.attempted; }
  uint64_t failed() const { return reads.failed() + writes.failed; }
  uint64_t completed() const {
    return reads.ok + writes.attempted - writes.failed;
  }
  /// Process CPU (user + sys) over the phase.
  double cpu_s() const {
    return (cpu_end.user_s + cpu_end.sys_s) -
           (cpu_begin.user_s + cpu_begin.sys_s);
  }
};

/// A percentile that may be +inf (failed operations) as a JSON-safe
/// number: failures read as 1e9 ms.
double Reported(double v) { return std::isfinite(v) ? v : 1e9; }

/// Registry marks at the two ends of a window.
struct Window {
  RegistryMark begin;
  RegistryMark end;
};

class Runner {
 public:
  explicit Runner(const Params& p) : p_(p) {}

  RunResult Run() {
    spec_ = FindWorkload(p_.workload);
    if (spec_ == nullptr) return Fail("unknown workload " + p_.workload);
    kind_ = spec_->kind;
    dir_ = p_.data_dir + "/run-" + std::to_string(::getpid());
    // setup_s is the median of kSetupRepeats set-ups of one kind, each
    // the process CPU (user + sys) it took: its wall-clock time (printed
    // as setup_wall_s) moved by 40% between ten-run sets of the same code
    // as the host's load changed. A durable cluster first bootstraps its
    // data directory (untimed: its checkpoint fsyncs vary several-fold
    // with the disk); every timed set-up is then a restart that recovers
    // from that state.
    RemoveDataDir();
    double bootstrap_s = 0.0;
    if (spec_->durable) {
      Clock::time_point t0 = Clock::now();
      Status up = SetUp();
      if (!up.ok()) return Fail("bootstrap failed: " + up.ToString());
      bootstrap_s = SecondsSince(t0);
      // The bootstrap checkpoints (one per node) are the run's only
      // checkpoints; keep their timing before a restart replaces the
      // cluster and its registries.
      bootstrap_checkpoints_ = TakeMark(cluster_->Registries(kNodes), {},
                                        {"storage.checkpoint_write"});
      checkpoint_bytes_ = cluster_->leader()
                              .service()
                              .metrics()
                              .GetGauge("storage.checkpoint_bytes")
                              ->value();
    }
    std::vector<double> setup_s, setup_wall_s;
    for (size_t r = 0; r < kSetupRepeats; ++r) {
      cluster_.reset();
      CpuMark cpu0 = TakeCpuMark();
      Clock::time_point t0 = Clock::now();
      Status up = SetUp();
      if (!up.ok()) return Fail("set-up failed: " + up.ToString());
      setup_wall_s.push_back(SecondsSince(t0));
      CpuMark cpu1 = TakeCpuMark();
      setup_s.push_back((cpu1.user_s + cpu1.sys_s) - (cpu0.user_s + cpu0.sys_s));
    }
    RunResult result = Measure();
    if (spec_->durable) {
      result.info.insert(result.info.begin(), {"bootstrap_s", bootstrap_s, "s"});
    }
    result.info.insert(result.info.begin(),
                       {"setup_wall_s", Percentile(setup_wall_s, 50), "s"});
    std::string line = "setup_s (CPU) / setup_wall_s by repeat:";
    for (size_t r = 0; r < setup_s.size(); ++r) {
      line += " " + std::to_string(setup_s[r]) + "/" +
              std::to_string(setup_wall_s[r]);
    }
    result.notes.insert(result.notes.begin(), line);
    if (!p_.trace) {
      result.metrics.insert(result.metrics.begin(),
                            {"setup_s", Percentile(setup_s, 50), "s"});
    }
    cluster_.reset();
    RemoveDataDir();
    return result;
  }

 private:
  /// Deletes the run's durable state and flushes the file system, so
  /// the deletion (and any earlier dirty data) is written back here
  /// rather than inside a timed set-up.
  void RemoveDataDir() {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(p_.data_dir);
    int fd = ::open(p_.data_dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
  }

  RunResult Fail(const std::string& why) {
    RunResult r;
    r.correct = false;
    r.problems.push_back(why);
    return r;
  }

  /// World generation + Init + cluster start, until the first read
  /// succeeds over the wire.
  Status SetUp() {
    HDMAP_ASSIGN_OR_RETURN(HdMap world, MakeWorld());
    world_ = std::move(world);
    cluster_ = std::make_unique<Cluster>();
    HDMAP_RETURN_IF_ERROR(
        cluster_->Start(world_, *spec_, p_.max_pending_requests, dir_));
    hdmap::NetClient client;
    HDMAP_RETURN_IF_ERROR(
        client.Connect("127.0.0.1", cluster_->leader().port()));
    TileId first =
        cluster_->leader().service().snapshot()->tiles.AllTiles().front();
    Clock::time_point give_up = After(Clock::now(), 10.0);
    while (Clock::now() < give_up) {
      hdmap::Result<hdmap::NetResponse> reply = client.GetTile(first);
      if (reply.ok() && reply->code == hdmap::NetResponseCode::kOk &&
          hdmap::TileView::Create(reply->payload).ok()) {
        return Status::Ok();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Internal("no successful read within 10 s of start");
  }

  /// Runs one open-loop phase: reads (and, for fleet_update, writes) at
  /// their fixed rates for `seconds`.
  PhaseResult OpenPhase(double seconds, bool reads, double write_rate_hz,
                        bool traced) {
    PhaseResult out;
    out.seconds = seconds;
    uint64_t stream = ++phase_;
    bool writes = write_rate_hz > 0;
    std::vector<WriteOp> write_ops;
    if (writes) write_ops = inputs_->Writes(seconds, write_rate_hz, stream);
    std::vector<ReadOp> ops;
    std::vector<double> due;
    if (reads) inputs_->Reads(kind_, seconds, stream, write_ops, &ops, &due);
    all_writes_.push_back(write_ops);
    out.cpu_begin = TakeCpuMark();
    WriteStream stream_writes(*cluster_, stores_);
    if (writes) stream_writes.Start(all_writes_.back(), write_rate_hz);
    if (reads) {
      ReadLoop loop(ConnPtrs(0, conns_.size()), CompleteOn(0), traced,
                    kClientMaxOutstanding);
      out.reads = loop.RunOpen(ops, due, kDrainS);
    }
    out.writes = stream_writes.Finish();
    out.cpu_end = TakeCpuMark();
    acked_.push_back(out.writes.acked);
    last_ops_ = std::move(ops);
    return out;
  }

  /// Closed-loop read peak, with no writes: every connection keeps
  /// kPeakDepth requests in flight for `seconds`, spread over
  /// kPeakThreads event loops.
  PhaseResult PeakPhase(double seconds) {
    PhaseResult out;
    out.seconds = seconds;
    hdmap::Rng rng(p_.seed * 0xD6E8FEB86659FD93ull + ++phase_);
    std::vector<ReadOp> ops;
    for (size_t i = 0; i < 65536; ++i) {
      ops.push_back(kind_ == Kind::kTile ? inputs_->TileRead(rng)
                                         : inputs_->HotRegionRead(rng));
    }
    size_t threads = std::min(kPeakThreads, conns_.size());
    std::vector<LoopStats> per(threads);
    auto run_loop = [&](size_t t) {
      size_t lo = t * conns_.size() / threads;
      size_t hi = (t + 1) * conns_.size() / threads;
      ReadLoop loop(ConnPtrs(lo, hi), CompleteOn(t), false,
                    kClientMaxOutstanding);
      per[t] = loop.RunClosed(ops, t * ops.size() / threads, kPeakDepth,
                              seconds, kSlices);
    };
    // This thread runs loop 0, so the phase uses kPeakThreads client
    // threads.
    out.cpu_begin = TakeCpuMark();
    std::vector<std::thread> loops;
    for (size_t t = 1; t < threads; ++t) loops.emplace_back(run_loop, t);
    run_loop(0);
    for (auto& th : loops) th.join();
    out.cpu_end = TakeCpuMark();
    for (const LoopStats& s : per) out.reads.Merge(s);
    return out;
  }

  std::vector<Conn*> ConnPtrs(size_t lo, size_t hi) {
    std::vector<Conn*> out;
    for (size_t i = lo; i < hi; ++i) out.push_back(conns_[i].get());
    return out;
  }

  CompleteFn CompleteOn(size_t checker) {
    ReplyChecker* c = checkers_[checker].get();
    return [c](const ReadOp& op, const hdmap::NetResponse& r,
               Clock::time_point* at) { return c->Complete(op, r, at); };
  }

  RunResult Measure();
  /// `writes` is the phase whose publishes are timed (fleet_update: the
  /// window itself; the others: the write probe); `probe` is the write
  /// probe.
  void AddEndToEnd(const PhaseResult& window, const PhaseResult& peak,
                   const PhaseResult& writes, const PhaseResult& probe,
                   RunResult* out);
  void AddPerLayer(const PhaseResult& ref, const PhaseResult& traced,
                   const std::vector<hdmap::TraceEvent>& events,
                   const std::vector<hdmap::TraceEvent>& replay,
                   const Window& nodes, const Window& leader,
                   const Window& replay_window, RunResult* out);
  /// Records every request into TraceRecorder::Global() from now on.
  void StartTrace();
  /// Appends the traced window's events to `events` and stops recording;
  /// a problem in `out` if the ring overwrote any of them.
  void StopTrace(std::vector<hdmap::TraceEvent>* events, RunResult* out);
  /// Replays the last phase's reads in-process on the leader, traced.
  std::vector<hdmap::TraceEvent> Replay(Window* window, RunResult* out);
  void CheckOutputs(RunResult* out);

  const Params& p_;
  const WorkloadSpec* spec_ = nullptr;
  Kind kind_ = Kind::kTile;
  std::string dir_;
  HdMap world_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Inputs> inputs_;
  std::map<uint64_t, std::string> blobs_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<ReplyChecker>> checkers_;
  VersionStores stores_;
  uint64_t phase_ = 0;
  std::deque<std::vector<WriteOp>> all_writes_;  // Stable addresses.
  std::vector<std::vector<bool>> acked_;
  std::vector<ReadOp> last_ops_;
  RegistryMark bootstrap_checkpoints_;
  uint64_t trace_dropped_ = 0;
  double checkpoint_bytes_ = 0.0;
};

const std::vector<std::string> kCounters = {
    "net.coalesced",         "net.computations",        "tile_store.cache_hits",
    "tile_store.cache_misses", "wal.fsync_batches",
};
const std::vector<std::string> kLatencies = {
    "map_service.get_region", "map_service.publish", "wal.append",
    "replication.ack_wait",
};

RunResult Runner::Measure() {
  RunResult result;
  bool fleet = kind_ == Kind::kFleet;
  double probe_s = p_.seconds * kProbeShare;
  double open_s = p_.seconds * kOpenShare;
  double peak_s = p_.seconds * kPeakShare;
  double fleet_writes = fleet ? kWriteRateHz : 0.0;
  inputs_ = std::make_unique<Inputs>(
      p_.seed, spec_->read_rate_hz, world_,
      cluster_->leader().service().snapshot()->tiles.AllTiles());
  std::vector<hdmap::MetricsRegistry*> registries =
      cluster_->Registries(kNodes);
  std::vector<hdmap::MetricsRegistry*> leader = cluster_->Registries(1);
  std::vector<hdmap::TraceEvent> events;
  Window nodes_window, leader_window;

  // Every workload first runs a probe of writes alone: publish_cpu_ms,
  // and the write-path layers of the read-only workloads' traced run
  // (fleet_update traces its writes beside the reads). It runs first so
  // that no read window sees its publishes; run after the closed-loop
  // peak instead, its publish times varied by a quarter between runs.
  bool trace_probe = p_.trace && !fleet;
  if (trace_probe) StartTrace();
  leader_window.begin = TakeMark(leader, kCounters, kLatencies);
  PhaseResult probe = OpenPhase(probe_s, false, kProbeWriteRateHz, false);
  leader_window.end = TakeMark(leader, kCounters, kLatencies);
  if (trace_probe) StopTrace(&events, &result);

  // Reads are checked against the tiles as they stand after the probe.
  std::shared_ptr<const hdmap::MapSnapshot> initial =
      cluster_->leader().service().snapshot();
  blobs_ = initial->tiles.RawTilesCopy();
  stores_.Add(*initial);
  std::vector<size_t> conn_nodes;
  for (size_t i = 0; i < kConnections; ++i) {
    conn_nodes.push_back(fleet ? i % kNodes : 0);
  }
  Status connected = OpenConnections(cluster_->Ports(), conn_nodes, &conns_);
  if (!connected.ok()) return Fail("connect: " + connected.ToString());
  for (size_t i = 0; i < conns_.size(); ++i) {
    checkers_.push_back(
        std::make_unique<ReplyChecker>(p_.tamper, &blobs_, initial->version));
  }

  OpenPhase(kWarmupS, true, fleet_writes, false);  // Warm-up, not measured.

  if (!p_.trace) {
    PhaseResult window = OpenPhase(open_s, true, fleet_writes, false);
    PhaseResult peak = PeakPhase(peak_s);
    AddEndToEnd(window, peak, fleet ? window : probe, probe, &result);
    result.attempted =
        probe.attempted() + window.attempted() + peak.attempted();
    result.failed = probe.failed() + window.failed() + peak.failed();
  } else {
    PhaseResult ref = OpenPhase(open_s / 2, true, fleet_writes, false);
    StartTrace();
    nodes_window.begin = TakeMark(registries, kCounters, kLatencies);
    if (fleet) leader_window.begin = TakeMark(leader, kCounters, kLatencies);
    PhaseResult traced = OpenPhase(open_s / 2, true, fleet_writes, true);
    nodes_window.end = TakeMark(registries, kCounters, kLatencies);
    if (fleet) leader_window.end = TakeMark(leader, kCounters, kLatencies);
    StopTrace(&events, &result);
    if (!fleet) traced.writes = probe.writes;
    Window replay_window;
    std::vector<hdmap::TraceEvent> replay = Replay(&replay_window, &result);
    AddPerLayer(ref, traced, events, replay, nodes_window, leader_window,
                replay_window, &result);
    result.attempted =
        probe.attempted() + ref.attempted() + traced.attempted();
    result.failed = probe.failed() + ref.failed() + traced.failed();
  }
  CheckOutputs(&result);
  for (auto& c : conns_) c->client.Close();
  return result;
}

void Runner::StartTrace() {
  TraceRecorder::Options trace;
  trace.enabled = true;
  trace.sample_every_n = 1;
  trace.capacity = size_t{1} << 21;
  TraceRecorder::Global().Configure(trace);
  trace_dropped_ = TraceRecorder::Global().dropped();
}

void Runner::StopTrace(std::vector<hdmap::TraceEvent>* events,
                       RunResult* out) {
  TraceRecorder& recorder = TraceRecorder::Global();
  std::vector<hdmap::TraceEvent> window = recorder.Snapshot();
  events->insert(events->end(), window.begin(), window.end());
  if (recorder.dropped() != trace_dropped_) {
    out->problems.push_back(
        "trace ring overwrote " +
        std::to_string(recorder.dropped() - trace_dropped_) +
        " events in a traced window; raise its capacity");
  }
  recorder.Clear();
  recorder.Configure(TraceRecorder::Options{});
}

/// Splits `values` into `slices` equal sub-windows of [0, duration) by
/// their times `at_s`.
std::vector<std::vector<double>> Slices(const std::vector<double>& values,
                                        const std::vector<double>& at_s,
                                        double duration, size_t slices) {
  std::vector<std::vector<double>> parts(std::max<size_t>(1, slices));
  for (size_t i = 0; i < values.size() && i < at_s.size(); ++i) {
    double k = at_s[i] / duration * static_cast<double>(parts.size());
    size_t slice = static_cast<size_t>(std::max(0.0, k));
    parts[std::min(slice, parts.size() - 1)].push_back(values[i]);
  }
  return parts;
}

/// Median, over the sub-windows of Slices, of the pct-th percentile
/// inside each. A stall that hits one sub-window moves one input of the
/// median, not the result.
double SliceMedian(const std::vector<double>& values,
                   const std::vector<double>& at_s, double duration,
                   size_t slices, double pct) {
  std::vector<double> per;
  for (const auto& part : Slices(values, at_s, duration, slices)) {
    if (!part.empty()) per.push_back(Percentile(part, pct));
  }
  return Percentile(per, 50);
}

/// The per-sub-window percentiles SliceMedian takes the median of, as
/// one printable line.
std::string SliceLine(const std::string& name,
                      const std::vector<double>& values,
                      const std::vector<double>& at_s, double duration,
                      size_t slices, double pct) {
  std::string line = name + " by sub-window:";
  char buf[32];
  for (const auto& part : Slices(values, at_s, duration, slices)) {
    std::snprintf(buf, sizeof(buf), " %.4g", Reported(Percentile(part, pct)));
    line += buf;
  }
  return line;
}

/// Median over the closed loop's sub-windows of the completions per
/// second.
double SliceMedianRate(const LoopStats& peak, double duration) {
  std::vector<double> rates;
  double slice_s = duration / static_cast<double>(peak.done_per_slice.size());
  for (uint64_t n : peak.done_per_slice) {
    rates.push_back(static_cast<double>(n) / slice_s);
  }
  return Percentile(rates, 50);
}

void Runner::AddEndToEnd(const PhaseResult& window, const PhaseResult& peak,
                         const PhaseResult& writes, const PhaseResult& probe,
                         RunResult* out) {
  const LoopStats& r = window.reads;
  const WriteStats& w = writes.writes;
  size_t k = kSlices;
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto cpu_per = [](const PhaseResult& phase, uint64_t ops) {
    return phase.cpu_s() / static_cast<double>(std::max<uint64_t>(1, ops));
  };
  // The gated metrics are process CPU per operation (getrusage; a guest
  // kernel with steal-time accounting does not charge the time the host
  // takes away to the process) and memory. Wall-clock latency and
  // throughput, and the peak's CPU per read, are printed on '#' lines but
  // not gated: on a shared 4-core VM, runs of the same code spread them
  // by more than a gate can allow (record.json, "statistics").
  out->metrics = {
      {"cpu_us_per_op", cpu_per(window, window.completed()) * 1e6, "us"},
      {"publish_cpu_ms", cpu_per(probe, probe.completed()) * 1e3, "ms"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
  };

  auto reads = [&](double pct) {
    return Reported(SliceMedian(r.latency_ms, r.at_s, window.seconds, k, pct));
  };
  auto publish = [&](const std::vector<double>& v, double pct) {
    return Reported(SliceMedian(v, w.due_s, writes.seconds, k, pct));
  };
  double fail_frac =
      static_cast<double>(window.failed()) /
      std::max(1.0, static_cast<double>(window.attempted()));
  for (double pct : {50.0, 90.0, 99.0}) {
    std::string p = "_p" + std::to_string(static_cast<int>(pct)) + "_ms";
    out->info.push_back({"read" + p, reads(pct), "ms"});
    out->info.push_back({"publish" + p, publish(w.publish_ms, pct), "ms"});
    out->info.push_back({"visible" + p, publish(w.visible_ms, pct), "ms"});
  }
  out->info.push_back(
      {"read_peak_rps", SliceMedianRate(peak.reads, peak.seconds), "1/s"});
  out->info.push_back(
      {"peak_cpu_us_per_read", cpu_per(peak, peak.reads.ok) * 1e6, "us"});
  out->info.push_back({"fail_frac", fail_frac, "1"});
  out->info.push_back({"reads", static_cast<double>(r.attempted), "count"});
  out->info.push_back({"busy", static_cast<double>(r.busy), "count"});
  out->info.push_back({"dropped", static_cast<double>(r.dropped), "count"});
  out->info.push_back({"wrong", static_cast<double>(r.wrong), "count"});
  out->info.push_back({"publishes", static_cast<double>(w.attempted), "count"});
  out->info.push_back(
      {"peak_reads", static_cast<double>(peak.reads.ok), "count"});
  out->info.push_back({"gen_late_p99_ms", Percentile(r.late_ms, 99), "ms"});
  out->notes.push_back(
      SliceLine("read_p50_ms", r.latency_ms, r.at_s, window.seconds, k, 50));
  out->notes.push_back(
      SliceLine("publish_p50_ms", w.publish_ms, w.due_s, writes.seconds, k, 50));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void Runner::AddPerLayer(const PhaseResult& ref, const PhaseResult& traced,
                         const std::vector<hdmap::TraceEvent>& events,
                         const std::vector<hdmap::TraceEvent>& replay,
                         const Window& nodes, const Window& leader,
                         const Window& replay_window, RunResult* out) {
  SpanReport spans = AnalyzeSpans(events);
  SpanReport replayed = AnalyzeSpans(replay);
  // tile_fetch sends no GetRegion, so its region-path layers are taken
  // from the in-process replay of its tile ids as one-tile regions.
  bool on_wire = kind_ != Kind::kTile;
  const SpanReport& region_spans = on_wire ? spans : replayed;
  const Window& region_window = on_wire ? nodes : replay_window;

  // Histogram window deltas, microseconds.
  auto hist_us = [](const Window& w, const char* name, double pct) {
    return LatencyDeltaPercentile(w.begin, w.end, name, pct) * 1e6;
  };
  auto counter = [](const Window& w, const char* name) {
    return static_cast<double>(CounterDelta(w.begin, w.end, name));
  };
  auto span = [](const SpanReport& r, const char* name, double pct) {
    auto it = r.duration_us.find(name);
    return it == r.duration_us.end() ? 0.0 : Percentile(it->second, pct);
  };
  auto region_us = [&](double pct) {
    return on_wire ? hist_us(nodes, "map_service.get_region", pct)
                   : span(replayed, "map_service.get_region", pct);
  };

  const LoopStats& rr = ref.reads;
  double ref_ops = static_cast<double>(std::max<uint64_t>(1, ref.completed()));
  double traced_ops =
      static_cast<double>(std::max<uint64_t>(1, traced.completed()));
  double attempted = static_cast<double>(rr.attempted);
  double publishes =
      static_cast<double>(traced.writes.attempted - traced.writes.failed);
  double computations = counter(nodes, "net.computations");
  double coalesced = counter(nodes, "net.coalesced");
  double hits = counter(region_window, "tile_store.cache_hits");
  double misses = counter(region_window, "tile_store.cache_misses");
  double region_reads = static_cast<double>(LatencyDeltaCount(
      region_window.begin, region_window.end, "map_service.get_region"));
  double ctx = static_cast<double>(ref.cpu_end.ctx_switches -
                                   ref.cpu_begin.ctx_switches);
  auto self = [&](const char* layer) {
    auto it = spans.self_us.find(layer);
    return it == spans.self_us.end() ? 0.0 : it->second / traced_ops;
  };

  out->metrics = {
      {"net.server_p50_us", Percentile(spans.server_us, 50), "us"},
      {"net.server_p99_us", Percentile(spans.server_us, 99), "us"},
      {"net.wire_p50_us", Percentile(spans.wire_us, 50), "us"},
      {"net.busy_frac", Ratio(static_cast<double>(rr.busy), attempted), "1"},
      {"net.coalesced_frac", Ratio(coalesced, coalesced + computations), "1"},
      {"net.reply_bytes_per_read",
       Ratio(static_cast<double>(rr.reply_bytes), static_cast<double>(rr.ok)),
       "B"},
      {"net.serialize_region_p50_us",
       on_wire ? span(spans, "net.serialize_region", 50)
               : span(replayed, "bench.replay_serialize", 50),
       "us"},
      {"net.client_decode_p50_us", span(spans, "bench.client_decode", 50),
       "us"},
      {"gen.late_p99_ms", Percentile(rr.late_ms, 99), "ms"},
      {"gen.sent_frac",
       Ratio(static_cast<double>(rr.late_ms.size()), attempted), "1"},
      {"cpu.user_us_per_op",
       (ref.cpu_end.user_s - ref.cpu_begin.user_s) * 1e6 / ref_ops, "us"},
      {"cpu.sys_us_per_op",
       (ref.cpu_end.sys_s - ref.cpu_begin.sys_s) * 1e6 / ref_ops, "us"},
      {"cpu.ctx_switches_per_op", ctx / ref_ops, "count"},
      {"service.get_region_p50_us", region_us(50), "us"},
      {"service.get_region_p99_us", region_us(99), "us"},
      {"service.get_tile_view_p50_us",
       span(replayed, "map_service.get_tile_view", 50), "us"},
      {"tile_store.decode_p50_us", span(region_spans, "tile_store.decode", 50),
       "us"},
      {"tile_store.stitch_p50_us", span(region_spans, "tile_store.stitch", 50),
       "us"},
      {"tile_store.tiles_per_read", Ratio(hits + misses, region_reads),
       "count"},
      {"tile_store.cache_hit_frac", Ratio(hits, hits + misses), "1"},
      {"service.publish_p50_us", hist_us(leader, "map_service.publish", 50),
       "us"},
      {"tile_store.rebuild_p50_us", span(spans, "tile_store.rebuild", 50),
       "us"},
      {"storage.wal_append_p50_us", hist_us(leader, "wal.append", 50), "us"},
      {"storage.wal_append_p99_us", hist_us(leader, "wal.append", 99), "us"},
      {"storage.fsyncs_per_publish",
       Ratio(counter(leader, "wal.fsync_batches"), publishes), "count"},
      {"storage.checkpoint_write_p50_ms",
       LatencyDeltaPercentile(RegistryMark{}, bootstrap_checkpoints_,
                              "storage.checkpoint_write", 50) * 1e3,
       "ms"},
      {"storage.checkpoint_bytes", checkpoint_bytes_, "B"},
      {"replication.ack_wait_p50_us",
       hist_us(leader, "replication.ack_wait", 50), "us"},
      {"replication.ack_wait_p99_us",
       hist_us(leader, "replication.ack_wait", 99), "us"},
      {"replication.ship_p50_us", span(spans, "repl.ship", 50), "us"},
      {"replication.lag_records_max", traced.writes.lag_records_max,
       "count"},
      {"trace.overhead_frac",
       Ratio(Percentile(traced.reads.latency_ms, 50),
             Percentile(rr.latency_ms, 50)) - 1.0,
       "1"},
      {"self.client_us_per_op", self("client"), "us"},
      {"self.net_us_per_op", self("net"), "us"},
      {"self.service_us_per_op", self("service"), "us"},
      {"self.tile_store_us_per_op", self("tile_store"), "us"},
      {"self.storage_us_per_op", self("storage"), "us"},
      {"self.replication_us_per_op", self("replication"), "us"},
  };
  out->info.push_back(
      {"traced_reads", static_cast<double>(traced.reads.attempted), "count"});
  for (const PhaseResult* half : {&ref, &traced}) {
    std::string name = half == &ref ? "untraced_half" : "traced_half";
    out->info.push_back(
        {name + "_busy", static_cast<double>(half->reads.busy), "count"});
    out->info.push_back(
        {name + "_dropped", static_cast<double>(half->reads.dropped), "count"});
    out->info.push_back({name + "_failed_writes",
                         static_cast<double>(half->writes.failed), "count"});
  }
  out->info.push_back({"traced_publishes", publishes, "count"});
  out->info.push_back(
      {"trace_events", static_cast<double>(events.size()), "count"});
}

std::vector<hdmap::TraceEvent> Runner::Replay(Window* window,
                                              RunResult* out) {
  hdmap::MapService& service = cluster_->leader().service();
  std::vector<hdmap::MetricsRegistry*> registries = cluster_->Registries(1);
  std::shared_ptr<const hdmap::MapSnapshot> snap = service.snapshot();
  StartTrace();
  window->begin = TakeMark(registries, kCounters, kLatencies);
  size_t n = std::min(kReplayOps, last_ops_.size());
  for (size_t i = 0; i < n; ++i) {
    const ReadOp& op = last_ops_[i];
    TraceSpan root("bench.replay", TraceSpan::kRoot);
    if (!op.region) {
      (void)service.GetTileView(op.tile);
      Vec2 c = inputs_->TileCenter(op.tile);
      double h = kTileSizeM / 2 - 1.0;
      hdmap::Result<HdMap> region =
          service.GetRegion(Aabb({c.x - h, c.y - h}, {c.x + h, c.y + h}));
      if (region.ok()) {
        TraceSpan serialize("bench.replay_serialize");
        (void)hdmap::EncodeTileV3(*region);
      }
      continue;
    }
    hdmap::Result<std::vector<TileId>> covered = snap->tiles.TilesInBox(op.box);
    if (!covered.ok()) continue;
    for (const TileId& t : *covered) (void)service.GetTileView(t);
  }
  window->end = TakeMark(registries, kCounters, kLatencies);
  std::vector<hdmap::TraceEvent> events;
  StopTrace(&events, out);
  return events;
}

void Runner::CheckOutputs(RunResult* out) {
  for (const auto& checker : checkers_) {
    for (const std::string& why : checker->problems()) {
      out->problems.push_back(why);
    }
  }
  // Let the followers settle on the leader's last version.
  ReplicationNode& leader = cluster_->leader();
  uint64_t target = leader.service().version();
  Clock::time_point give_up = After(Clock::now(), 10.0);
  while (cluster_->MinFollowerVersion() < target && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (cluster_->MinFollowerVersion() < target) {
    out->problems.push_back("followers did not reach leader version " +
                            std::to_string(target));
  }

  // Sampled GetRegion replies against an in-process region read at the
  // reply's version (the same TileStore::LoadRegion call MapService
  // makes, on the version's own tile store).
  std::map<uint64_t, std::vector<RegionSample>> by_version;
  size_t sampled = 0;
  for (const auto& checker : checkers_) {
    for (const RegionSample& s : checker->samples()) {
      by_version[s.version].push_back(s);
      ++sampled;
    }
  }
  std::map<uint64_t, hdmap::TileStore> stores = stores_.Take();
  size_t unmatched = 0;
  for (auto& [version, samples] : by_version) {
    auto store = stores.find(version);
    if (store == stores.end()) {
      out->problems.push_back("no tile store kept for reply version " +
                              std::to_string(version));
      continue;
    }
    for (const RegionSample& s : samples) {
      hdmap::Result<HdMap> expected =
          store->second.LoadRegion(s.box, nullptr, 1);
      if (!expected.ok() || MapDigest(*expected) != s.digest) ++unmatched;
    }
    stores.erase(store);  // Drop its decoded-tile cache.
  }
  if (unmatched > 0) {
    out->problems.push_back(std::to_string(unmatched) + " of " +
                            std::to_string(sampled) +
                            " sampled GetRegion replies differ from the "
                            "in-process region at their version");
  }
  out->info.push_back(
      {"region_samples_checked", static_cast<double>(sampled), "count"});

  // Every acked write is present on every node: the last acked state of
  // each landmark it touched (unless a later unacked write touched it
  // too).
  std::map<ElementId, std::pair<Vec3, bool>> last;
  for (size_t ph = 0; ph < all_writes_.size(); ++ph) {
    for (size_t i = 0; i < all_writes_[ph].size(); ++i) {
      bool acked = ph < acked_.size() && i < acked_[ph].size() && acked_[ph][i];
      const MapPatch& patch = all_writes_[ph][i].patch;
      for (const auto& move : patch.moved_landmarks) {
        last[move.id] = {move.new_position, acked};
      }
      for (const auto& lm : patch.added_landmarks) {
        last[lm.id] = {lm.position, acked};
      }
    }
  }
  size_t missing = 0, checked = 0;
  for (size_t n = 0; n < kNodes; ++n) {
    std::shared_ptr<const hdmap::MapSnapshot> snap =
        cluster_->node(n).service().snapshot();
    for (const auto& [id, state] : last) {
      if (!state.second) continue;
      ++checked;
      const hdmap::Landmark* lm = snap->map.FindLandmark(id);
      if (lm == nullptr || lm->position.x != state.first.x ||
          lm->position.y != state.first.y || lm->position.z != state.first.z) {
        ++missing;
      }
    }
  }
  if (missing > 0) {
    out->problems.push_back(std::to_string(missing) + " of " +
                            std::to_string(checked) +
                            " acked landmark states missing on some node");
  }
  // Followers converge byte-exactly on the leader's tiles.
  std::map<uint64_t, std::string> leader_tiles =
      leader.service().snapshot()->tiles.RawTilesCopy();
  for (size_t n = 1; n < kNodes; ++n) {
    std::shared_ptr<const hdmap::MapSnapshot> snap =
        cluster_->node(n).service().snapshot();
    if (snap->tiles.RawTilesCopy() != leader_tiles) {
      out->problems.push_back("follower " + std::to_string(n) +
                              " tile blobs differ from the leader's");
    }
  }
  out->info.push_back(
      {"acked_states_checked", static_cast<double>(checked), "count"});
  if (!out->problems.empty()) out->correct = false;
}

}  // namespace

std::string ConfigLine(const std::string& workload) {
  const WorkloadSpec* w = FindWorkload(workload);
  if (w == nullptr) return "";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "town=%dx%d tile_size_m=%g nodes=%zu worker_threads=%zu "
      "min_ack_replicas=%zu durable=%d fsync=%s checkpoint_every=%u "
      "read_rate_hz=%g write_rate_hz=%g probe_write_rate_hz=%g zipf_s=%g "
      "region_m=%g-%g connections=%zu peak_threads=%zu peak_depth=%zu "
      "client_max_outstanding=%zu region_check_every=%zu warmup_s=%g "
      "probe_share=%g open_share=%g peak_share=%g slices=%zu setup_repeats=%zu",
      kTownRows, kTownCols, kTileSizeM, kNodes, kWorkerThreads,
      kMinAckReplicas, w->durable ? 1 : 0, w->durable ? "always" : "none",
      w->durable ? kCheckpointEvery : 0, w->read_rate_hz,
      w->kind == Kind::kFleet ? kWriteRateHz : 0.0, kProbeWriteRateHz,
      kZipfS, kRegionMinM, kRegionMaxM, kConnections, kPeakThreads,
      kPeakDepth, kClientMaxOutstanding, kRegionCheckEvery, kWarmupS,
      kProbeShare, kOpenShare, kPeakShare, kSlices, kSetupRepeats);
  return buf;
}

RunResult RunWorkload(const Params& params) { return Runner(params).Run(); }

}  // namespace perfbench
