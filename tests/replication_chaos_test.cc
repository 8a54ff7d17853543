// Replication and failover tests: N in-process MapService nodes wired
// into a cluster over loopback TCP (real sockets, real framing), a
// FailoverController watching them, and a deterministic chaos schedule
// driving kill-leader / restart / partition / torn-ship / apply-fault
// sequences through the seeded FaultInjector sites ("repl.ship",
// "repl.apply", "repl.heartbeat").
//
// The three invariants every scenario asserts:
//   1. No acked write is ever lost: a patch whose StagePatch AND Publish
//      returned OK on the leader is present in the final leader's map.
//   2. No split-brain: each term has exactly one leader, ever.
//   3. Convergence is byte-exact: after the dust settles, every live
//      follower's tile store is byte-identical to the leader's.
//
// The chaos action count comes from HDMAP_FUZZ_ITERS (the repo-wide
// convention); the default keeps tier-1 fast, the tier-2
// `replication_chaos` target runs >= 500.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/serialization.h"
#include "net/protocol.h"
#include "net/tile_server.h"
#include "replication/failover_controller.h"
#include "replication/node.h"
#include "replication/replica.h"
#include "replication/replication_log.h"
#include "replication/wal_shipper.h"
#include "replication/wire.h"
#include "service/map_service.h"
#include "storage/patch_wal.h"
#include "tests/test_worlds.h"

namespace hdmap {
namespace {

namespace fs = std::filesystem;

size_t ChaosActions() {
  if (const char* env = std::getenv("HDMAP_FUZZ_ITERS")) {
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  return 40;  // Tier-1 smoke size.
}

MapService::Options SmallTileOptions() {
  MapService::Options opt;
  opt.tile_store.tile_size_m = 100.0;
  return opt;
}

MapPatch LandmarkPatch(uint64_t id) {
  MapPatch patch;
  Landmark lm;
  lm.id = id;
  lm.position = {static_cast<double>(id % 97), static_cast<double>(id % 89),
                 0.0};
  patch.added_landmarks.push_back(lm);
  return patch;
}

class ScopedDataDir {
 public:
  explicit ScopedDataDir(const std::string& tag) {
    path_ = fs::path(::testing::TempDir()) /
            ("hdmap_repl_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedDataDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// Wire format

TEST(ReplicationWireTest, ShipBatchRoundTrip) {
  ReplShipBatch batch;
  batch.term = 7;
  batch.leader_end_seq = 42;
  ReplRecord patch_record;
  patch_record.seq = 41;
  patch_record.term = 6;
  patch_record.kind = ReplRecordKind::kPatch;
  patch_record.version = 12;
  patch_record.payload = SerializePatch(LandmarkPatch(900001));
  ReplRecord publish_record;
  publish_record.seq = 42;
  publish_record.term = 7;
  publish_record.kind = ReplRecordKind::kPublish;
  publish_record.version = 13;
  batch.records = {patch_record, publish_record};

  auto decoded = DecodeShipBatch(EncodeShipBatch(batch));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->term, 7u);
  EXPECT_EQ(decoded->leader_end_seq, 42u);
  ASSERT_EQ(decoded->records.size(), 2u);
  EXPECT_EQ(decoded->records[0].seq, 41u);
  EXPECT_EQ(decoded->records[0].kind, ReplRecordKind::kPatch);
  EXPECT_EQ(decoded->records[0].payload, patch_record.payload);
  EXPECT_EQ(decoded->records[1].kind, ReplRecordKind::kPublish);
  EXPECT_EQ(decoded->records[1].version, 13u);

  // A heartbeat is an empty batch.
  ReplShipBatch heartbeat;
  heartbeat.term = 9;
  heartbeat.leader_end_seq = 42;
  auto hb = DecodeShipBatch(EncodeShipBatch(heartbeat));
  ASSERT_TRUE(hb.ok());
  EXPECT_TRUE(hb->records.empty());
}

TEST(ReplicationWireTest, DecodersRejectDamage) {
  ReplShipBatch batch;
  batch.term = 1;
  ReplRecord record;
  record.seq = 1;
  record.payload = "abc";
  batch.records = {record};
  std::string bytes = EncodeShipBatch(batch);

  EXPECT_FALSE(DecodeShipBatch(bytes.substr(0, bytes.size() - 2)).ok());
  EXPECT_FALSE(DecodeShipBatch(bytes + "x").ok());
  std::string bad_kind = bytes;
  bad_kind[8 + 8 + 4 + 8 + 8] = 9;  // record's kind byte
  EXPECT_FALSE(DecodeShipBatch(bad_kind).ok());

  ReplAck ack;
  ack.term = 3;
  ack.next_seq = 17;
  ack.version = 4;
  ack.flags = kReplAckNeedCatchUp;
  auto ack_rt = DecodeAck(EncodeAck(ack));
  ASSERT_TRUE(ack_rt.ok());
  EXPECT_EQ(ack_rt->next_seq, 17u);
  EXPECT_EQ(ack_rt->flags, kReplAckNeedCatchUp);
  std::string bad_flags = EncodeAck(ack);
  bad_flags.back() = 0x40;
  EXPECT_FALSE(DecodeAck(bad_flags).ok());

  ReplCatchUp snapshot;
  snapshot.term = 2;
  snapshot.resume_seq = 5;
  snapshot.version = 6;
  snapshot.published_unix_ms = 1234;
  snapshot.tile_size_m = 100.0;
  snapshot.tiles.emplace_back(TileId{1, -2}, std::string("tilebytes"));
  auto cu = DecodeCatchUp(EncodeCatchUp(snapshot));
  ASSERT_TRUE(cu.ok());
  ASSERT_EQ(cu->tiles.size(), 1u);
  EXPECT_EQ(cu->tiles[0].first.x, 1);
  EXPECT_EQ(cu->tiles[0].first.y, -2);
  EXPECT_EQ(cu->tiles[0].second, "tilebytes");
  EXPECT_FALSE(DecodeCatchUp(EncodeCatchUp(snapshot).substr(4)).ok());
}

TEST(ReplicationWireTest, ReplicationRequestFrameRoundTrip) {
  NetRequest request;
  request.type = NetRequestType::kReplicate;
  request.request_id = 77;
  request.payload = EncodeShipBatch(ReplShipBatch{5, 10, {}});

  std::string frame = EncodeRequestFrame(request);
  size_t frame_size = 0;
  std::string_view body;
  ASSERT_EQ(ExtractFrame(frame, kNetRequestMagic, kMaxNetReplicationBody,
                         &frame_size, &body),
            FrameParse::kFrame);
  uint32_t crc = 0;
  std::memcpy(&crc, frame.data() + 8, sizeof(crc));
  auto decoded = DecodeRequestBody(body, crc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, NetRequestType::kReplicate);
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->payload, request.payload);
  auto batch = DecodeShipBatch(decoded->payload);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->term, 5u);
  EXPECT_EQ(batch->leader_end_seq, 10u);
}

// ---------------------------------------------------------------------------
// Replication log

TEST(ReplicationLogTest, AppendReadTrim) {
  ReplicationLog log(/*capacity=*/4);
  EXPECT_EQ(log.end_seq(), 0u);
  EXPECT_EQ(log.start_seq(), 1u);

  for (int i = 0; i < 6; ++i) {
    uint64_t seq = log.Append(ReplRecordKind::kPatch, 1, 10 + i,
                              "payload" + std::to_string(i));
    EXPECT_EQ(seq, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(log.end_seq(), 6u);

  auto all = log.ReadFrom(1, 100, 1 << 20);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 6u);
  auto tail = log.ReadFrom(5, 100, 1 << 20);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 2u);
  EXPECT_EQ(tail->front().seq, 5u);
  auto caught_up = log.ReadFrom(7, 100, 1 << 20);
  ASSERT_TRUE(caught_up.ok());
  EXPECT_TRUE(caught_up->empty());

  // max_records caps the batch but always yields at least one record.
  auto capped = log.ReadFrom(1, 2, 1 << 20);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->size(), 2u);
  auto tiny = log.ReadFrom(1, 100, 1);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->size(), 1u);

  // Trim respects both capacity and the keep floor.
  log.TrimToCapacity(/*keep_from_seq=*/3);
  EXPECT_EQ(log.start_seq(), 3u);  // would trim to 3 by capacity, floor=3
  EXPECT_EQ(log.size(), 4u);
  EXPECT_FALSE(log.ReadFrom(2, 100, 1 << 20).ok());  // trimmed -> catch-up

  log.ResetTo(10);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.start_seq(), 10u);
  EXPECT_EQ(log.end_seq(), 9u);
  EXPECT_EQ(log.Append(ReplRecordKind::kPublish, 2, 9, ""), 10u);
}

TEST(ReplicationLogTest, MirrorAppendRequiresContiguity) {
  ReplicationLog log;
  ReplRecord record;
  record.seq = 2;
  EXPECT_FALSE(log.AppendReplicated(record).ok());
  record.seq = 1;
  EXPECT_TRUE(log.AppendReplicated(record).ok());
  record.seq = 2;
  EXPECT_TRUE(log.AppendReplicated(record).ok());
  EXPECT_EQ(log.end_seq(), 2u);
}

TEST(ReplicationLogTest, InitFromWalTailsThePatchLog) {
  ScopedDataDir dir("initfromwal");
  PatchWal::Options wal_options;
  wal_options.path = dir.str() + "/patches.wal";
  wal_options.fsync = FsyncMode::kNever;
  PatchWal wal(wal_options);
  MapPatch a = LandmarkPatch(700001);
  MapPatch b = LandmarkPatch(700002);
  ASSERT_TRUE(wal.Append(a, 3).ok());
  ASSERT_TRUE(wal.Append(b, 3).ok());

  ReplicationLog log;
  auto loaded = log.InitFromWal(wal, /*term=*/4, /*first_seq=*/9);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), 2u);
  EXPECT_EQ(log.start_seq(), 9u);
  EXPECT_EQ(log.end_seq(), 10u);
  auto records = log.ReadFrom(9, 10, 1 << 20);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(records->at(0).term, 4u);
  EXPECT_EQ(records->at(0).kind, ReplRecordKind::kPatch);
  EXPECT_EQ(records->at(0).version, 3u);
  EXPECT_EQ(records->at(0).payload, SerializePatch(a));
  EXPECT_EQ(records->at(1).payload, SerializePatch(b));

  // Non-empty log refuses a second bootstrap.
  EXPECT_FALSE(log.InitFromWal(wal, 4, 1).ok());
}

// ---------------------------------------------------------------------------
// Satellite 1: NetClient retry/backoff/deadline

TEST(NetClientRetryTest, RetriesTransientFailuresAndExportsMetrics) {
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
  auto server = std::make_unique<TileServer>(service, TileServer::Options{});
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();

  MetricsRegistry metrics;
  NetClient client;
  NetClient::RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 5;
  retry.max_backoff_ms = 20;
  retry.deadline_ms = 2000;
  retry.metrics = &metrics;
  client.set_retry_options(retry);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  NetRequest ping;
  ping.type = NetRequestType::kPing;
  auto ok = client.CallWithRetry(ping);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(metrics.GetCounter("net_client.attempts")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("net_client.retries")->value(), 0u);

  // Kill the server: every attempt now fails, the client backs off
  // between tries and reconnect attempts are refused.
  server->Stop();
  auto failed = client.CallWithRetry(ping);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(metrics.GetCounter("net_client.attempts")->value(), 4u);
  EXPECT_EQ(metrics.GetCounter("net_client.retries")->value(), 2u);
  EXPECT_GT(metrics.GetCounter("net_client.backoff_ms_total")->value(), 0u);

  // Bring a fresh server up on some port and point a client at it, then
  // verify the deadline cuts a long retry loop short.
  NetClient deadline_client;
  NetClient::RetryOptions tight = retry;
  tight.max_attempts = 1000;
  tight.deadline_ms = 80;
  tight.metrics = &metrics;
  deadline_client.set_retry_options(tight);
  // Never connected and no endpoint: fails fast with attempts bounded by
  // the deadline, not the huge attempt budget.
  auto start = std::chrono::steady_clock::now();
  auto dead = deadline_client.CallWithRetry(ping);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_FALSE(dead.ok());
  EXPECT_LT(elapsed_ms, 1500.0);
}

// ---------------------------------------------------------------------------
// Satellite 2: idle connection reaping

TEST(TileServerTest, ReapsIdleConnections) {
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
  TileServer::Options options;
  options.idle_timeout_s = 0.05;
  TileServer server(service, options);
  ASSERT_TRUE(server.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  NetRequest ping;
  ping.type = NetRequestType::kPing;
  ASSERT_TRUE(client.Call(ping).ok());
  EXPECT_EQ(server.NumConnections(), 1u);

  // Go idle past the timeout: the server reaps the connection, emits a
  // typed event, and counts it.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.NumConnections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.NumConnections(), 0u);
  EXPECT_GE(server.metrics().GetCounter("net.connections_reaped")->value(),
            1u);
  bool saw_event = false;
  for (const auto& event : server.RecentEvents()) {
    if (event.type == EventLog::Type::kConnectionReaped) saw_event = true;
  }
  EXPECT_TRUE(saw_event);

  // The reaped client notices on next use; a fresh connection works.
  NetClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(fresh.Call(ping).ok());
}

// ---------------------------------------------------------------------------
// Cluster harness

struct ClusterTimings {
  uint32_t heartbeat_interval_ms = 10;
  uint32_t io_timeout_ms = 150;
  uint32_t ack_timeout_ms = 1500;
  uint32_t poll_interval_ms = 10;
  uint32_t leader_timeout_ms = 100;
};

class TestCluster {
 public:
  TestCluster(int n, uint64_t fault_seed, ClusterTimings timings = {},
              size_t log_capacity = 4096,
              std::vector<std::string> data_dirs = {})
      : faults_(fault_seed),
        controller_([&] {
          FailoverController::Options co;
          co.poll_interval_ms = timings.poll_interval_ms;
          co.leader_timeout_ms = timings.leader_timeout_ms;
          return co;
        }()) {
    HdMap world = StraightRoad(300.0);
    for (int i = 0; i < n; ++i) {
      ReplicationNode::Options no;
      no.node_id = i;
      no.service = SmallTileOptions();
      if (static_cast<size_t>(i) < data_dirs.size() &&
          !data_dirs[i].empty()) {
        no.service.durability.data_dir = data_dirs[i];
        no.service.durability.fsync = FsyncMode::kNever;  // Speed.
      }
      no.log_capacity = log_capacity;
      no.heartbeat_interval_ms = timings.heartbeat_interval_ms;
      no.io_timeout_ms = timings.io_timeout_ms;
      no.min_ack_replicas = 1;
      no.ack_timeout_ms = timings.ack_timeout_ms;
      no.faults = &faults_;
      nodes_.push_back(std::make_unique<ReplicationNode>(no));
      EXPECT_TRUE(nodes_.back()->Start(world).ok());
      controller_.AddNode(nodes_.back().get());
    }
    EXPECT_TRUE(controller_.Start().ok());
  }

  ~TestCluster() {
    controller_.Stop();
    for (auto& node : nodes_) node->Halt();
  }

  ReplicationNode* node(int i) { return nodes_[i].get(); }
  ReplicationNode* leader() { return controller_.leader(); }
  FailoverController& controller() { return controller_; }
  FaultInjector& faults() { return faults_; }

  /// Stage + publish one landmark on the current leader. True only when
  /// BOTH calls acked — the definition of an acked write.
  bool WriteAcked(uint64_t landmark_id) {
    ReplicationNode* l = leader();
    if (l == nullptr || !l->alive()) return false;
    if (!l->StagePatch(LandmarkPatch(landmark_id)).ok()) return false;
    return l->Publish().ok();
  }

  /// Waits until the leader and every alive, unpartitioned node serve
  /// byte-identical tiles at the same version.
  bool WaitConverged(uint32_t timeout_ms = 15000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (Converged()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Converged();
  }

  bool Converged() {
    ReplicationNode* l = leader();
    if (l == nullptr || !l->alive() ||
        l->role() != ReplicationNode::Role::kLeader) {
      return false;
    }
    auto leader_tiles = l->service().snapshot()->tiles.RawTilesCopy();
    uint64_t version = l->service().version();
    for (auto& node : nodes_) {
      if (node.get() == l || !node->alive() || node->partitioned()) continue;
      if (node->service().version() != version) return false;
      if (node->service().snapshot()->tiles.RawTilesCopy() != leader_tiles) {
        return false;
      }
    }
    return true;
  }

  /// Brings every node back (restart the dead, heal partitions) and
  /// clears fault policies, so convergence can complete.
  void HealAll() {
    faults_.ClearPolicies();
    for (auto& node : nodes_) {
      node->SetPartitioned(false);
      if (!node->alive()) {
        EXPECT_TRUE(node->Restart().ok());
      }
    }
  }

  void ExpectInvariants(const std::set<uint64_t>& acked) {
    EXPECT_EQ(controller_.split_brain_observed(), 0u);
    ReplicationNode* l = leader();
    ASSERT_NE(l, nullptr);
    const HdMap& map = l->service().snapshot()->map;
    for (uint64_t id : acked) {
      EXPECT_NE(map.FindLandmark(id), nullptr)
          << "acked landmark " << id << " lost after failover";
    }
  }

 private:
  FaultInjector faults_;
  std::vector<std::unique_ptr<ReplicationNode>> nodes_;
  FailoverController controller_;
};

// ---------------------------------------------------------------------------
// Deterministic cluster scenarios

TEST(ReplicationClusterTest, FollowersConvergeByteExact) {
  TestCluster cluster(3, /*fault_seed=*/11);
  ASSERT_NE(cluster.leader(), nullptr);
  EXPECT_EQ(cluster.leader()->node_id(), 0);

  std::set<uint64_t> acked;
  for (uint64_t i = 0; i < 5; ++i) {
    uint64_t id = 800000 + i;
    ASSERT_TRUE(cluster.WriteAcked(id));
    acked.insert(id);
  }
  ASSERT_TRUE(cluster.WaitConverged());
  cluster.ExpectInvariants(acked);
  // Followers applied through the normal StagePatch/Publish path, so
  // their landmark view matches too, not just the raw bytes.
  EXPECT_NE(cluster.node(1)->service().snapshot()->map.FindLandmark(800004),
            nullptr);
  EXPECT_NE(cluster.node(2)->service().snapshot()->map.FindLandmark(800004),
            nullptr);
}

TEST(ReplicationClusterTest, TimedSpansFeedWritePathHistogramsUntraced) {
  // With tracing off (the global recorder's default), each timed span
  // still adds exactly one sample per call to the histograms the
  // benchmark reads: wal.append, replication.ack_wait,
  // map_service.publish, storage.checkpoint_write and
  // map_service.get_region.
  ASSERT_FALSE(TraceRecorder::Global().enabled());
  ScopedDataDir dir("timed_spans");
  TestCluster cluster(2, /*fault_seed=*/17, ClusterTimings{},
                      /*log_capacity=*/4096, {dir.str(), ""});
  ReplicationNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  ASSERT_EQ(leader->node_id(), 0);
  MetricsRegistry& metrics = leader->service().metrics();
  const std::vector<std::string> names = {
      "wal.append", "replication.ack_wait", "map_service.publish",
      "storage.checkpoint_write", "map_service.get_region"};
  auto counts = [&] {
    std::map<std::string, size_t> out;
    for (const std::string& name : names) {
      out[name] = metrics.GetLatency(name)->count();
    }
    return out;
  };
  auto expect_added = [&](const std::map<std::string, size_t>& before,
                          const std::map<std::string, size_t>& added) {
    std::map<std::string, size_t> now = counts();
    for (const std::string& name : names) {
      size_t delta = added.count(name) != 0 ? added.at(name) : 0;
      EXPECT_EQ(now[name], before.at(name) + delta) << name;
    }
  };

  auto before = counts();
  ASSERT_TRUE(leader->StagePatch(LandmarkPatch(880001)).ok());
  expect_added(before, {{"wal.append", 1}, {"replication.ack_wait", 1}});
  before = counts();
  ASSERT_TRUE(leader->Publish().ok());
  expect_added(before, {{"map_service.publish", 1},
                        {"storage.checkpoint_write", 1},
                        {"replication.ack_wait", 1}});
  before = counts();
  ASSERT_TRUE(
      leader->service()
          .GetRegion(leader->service().snapshot()->map.BoundingBox())
          .ok());
  expect_added(before, {{"map_service.get_region", 1}});
}

TEST(ReplicationClusterTest, LeaderDeathPromotesMostCaughtUpFollower) {
  TestCluster cluster(3, /*fault_seed=*/13);
  std::set<uint64_t> acked;
  for (uint64_t i = 0; i < 3; ++i) {
    uint64_t id = 810000 + i;
    ASSERT_TRUE(cluster.WriteAcked(id));
    acked.insert(id);
  }
  ASSERT_TRUE(cluster.WaitConverged());

  ReplicationNode* old_leader = cluster.leader();
  old_leader->Halt();
  // Failover: a new leader appears within the detection window.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((cluster.leader() == old_leader ||
          cluster.leader()->role() != ReplicationNode::Role::kLeader) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(cluster.leader(), old_leader);
  EXPECT_EQ(cluster.controller().failover_count(), 1u);
  EXPECT_GT(cluster.controller().last_degraded_window_ms(), 0.0);

  // The degraded window is visible in the controller's event log.
  bool detected = false, completed = false;
  for (const auto& event : cluster.controller().RecentEvents()) {
    if (event.type == EventLog::Type::kFailoverDetected) detected = true;
    if (event.type == EventLog::Type::kFailoverComplete &&
        event.detail.find("degraded window") != std::string::npos) {
      completed = true;
    }
  }
  EXPECT_TRUE(detected);
  EXPECT_TRUE(completed);

  // Writes keep working on the new leader; the restarted old leader
  // rejoins as a follower and re-converges byte-exact.
  uint64_t id = 810100;
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!cluster.WriteAcked(id) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  acked.insert(id);
  ASSERT_TRUE(old_leader->Restart().ok());
  ASSERT_TRUE(cluster.WaitConverged());
  EXPECT_EQ(old_leader->role(), ReplicationNode::Role::kFollower);
  cluster.ExpectInvariants(acked);
}

TEST(ReplicationClusterTest, FencingRejectsDeposedLeader) {
  TestCluster cluster(3, /*fault_seed=*/17);
  std::set<uint64_t> acked;
  ASSERT_TRUE(cluster.WriteAcked(820000));
  acked.insert(820000);
  ASSERT_TRUE(cluster.WaitConverged());

  // Partition the leader: to the cluster it goes silent; to itself it is
  // still "leader" and keeps accepting local writes (which cannot ack —
  // its followers are unreachable).
  ReplicationNode* old_leader = cluster.leader();
  old_leader->SetPartitioned(true);
  EXPECT_FALSE(cluster.WriteAcked(820001));  // unacked: partitioned leader

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.leader() == old_leader &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ReplicationNode* new_leader = cluster.leader();
  ASSERT_NE(new_leader, old_leader);
  uint64_t promoted_term = new_leader->term();
  EXPECT_GT(promoted_term, 1u);

  uint64_t id = 820002;
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!cluster.WriteAcked(id) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  acked.insert(id);

  // Heal: the deposed leader's own shipping gets stale-term acks, it
  // steps down, and its diverged history (the unacked local write) is
  // repaired wholesale by catch-up — landmark 820001 must be GONE.
  old_leader->SetPartitioned(false);
  ASSERT_TRUE(cluster.WaitConverged());
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (old_leader->role() == ReplicationNode::Role::kLeader &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(old_leader->role(), ReplicationNode::Role::kFollower);
  EXPECT_EQ(old_leader->service().snapshot()->map.FindLandmark(820001),
            nullptr);
  cluster.ExpectInvariants(acked);

  // One leader per term, before and after.
  std::map<uint64_t, int> by_term = cluster.controller().LeadersByTerm();
  EXPECT_GE(by_term.size(), 2u);
  EXPECT_EQ(cluster.controller().split_brain_observed(), 0u);
}

// Satellite 3: a follower that fell behind a trimmed log catches up by
// snapshot instead of records.
TEST(ReplicationClusterTest, CatchUpAfterLogTrim) {
  ClusterTimings timings;
  TestCluster cluster(3, /*fault_seed=*/19, timings, /*log_capacity=*/4);
  std::set<uint64_t> acked;

  // Take one follower down, then write far past the tiny log capacity.
  cluster.node(2)->Halt();
  for (uint64_t i = 0; i < 8; ++i) {
    uint64_t id = 830000 + i;
    ASSERT_TRUE(cluster.WriteAcked(id));  // node 1 still acks
    acked.insert(id);
  }
  EXPECT_GT(cluster.leader()->log().start_seq(), 1u);  // trimmed

  // The restarted follower's position predates the log: the shipper must
  // serve a snapshot, and the follower must land byte-exact.
  uint64_t installed_before = cluster.node(2)
                                  ->service()
                                  .metrics()
                                  .GetCounter("repl.catchups_installed")
                                  ->value();
  ASSERT_TRUE(cluster.node(2)->Restart().ok());
  ASSERT_TRUE(cluster.WaitConverged());
  EXPECT_GT(cluster.node(2)
                ->service()
                .metrics()
                .GetCounter("repl.catchups_installed")
                ->value(),
            installed_before);
  bool caught_up_event = false;
  for (const auto& event : cluster.node(2)->service().RecentEvents()) {
    if (event.type == EventLog::Type::kReplicaCatchUp) caught_up_event = true;
  }
  EXPECT_TRUE(caught_up_event);
  cluster.ExpectInvariants(acked);
}

// Satellite 3 (durable flavor): the leader's durable state — recovered
// from a SnapshotStore checkpoint after a crash — is what catch-up ships
// to a follower whose WAL position no longer exists.
TEST(ReplicationClusterTest, DurableLeaderServesCatchUpFromRecoveredState) {
  ScopedDataDir dir("durable_leader");
  ClusterTimings timings;
  TestCluster cluster(3, /*fault_seed=*/23, timings, /*log_capacity=*/4,
                      {dir.str(), "", ""});
  std::set<uint64_t> acked;
  for (uint64_t i = 0; i < 6; ++i) {
    uint64_t id = 840000 + i;
    ASSERT_TRUE(cluster.WriteAcked(id));
    acked.insert(id);
  }
  ASSERT_TRUE(cluster.WaitConverged());
  uint64_t version_before = cluster.node(0)->service().version();

  // Crash the durable leader AND a follower; promote the survivor.
  cluster.node(0)->Halt();
  cluster.node(2)->Halt();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.leader() != cluster.node(1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(cluster.leader(), cluster.node(1));

  // The durable ex-leader restarts: MapService::Init recovers its state
  // from the newest checkpoint (SnapshotStore), then the node rejoins by
  // catch-up under the new term. The blind follower comes back too.
  ASSERT_TRUE(cluster.node(0)->Restart().ok());
  ASSERT_TRUE(cluster.node(2)->Restart().ok());
  EXPECT_GE(cluster.node(0)->service().version(), version_before);
  ASSERT_TRUE(cluster.WaitConverged());
  cluster.ExpectInvariants(acked);
  EXPECT_EQ(cluster.node(0)->role(), ReplicationNode::Role::kFollower);
}

// ---------------------------------------------------------------------------
// The chaos harness

TEST(ReplicationChaosTest, SeededKillPartitionCorruptSchedule) {
  const size_t actions = ChaosActions();
  Rng rng(0xC0FFEE123u);
  ClusterTimings timings;
  timings.ack_timeout_ms = 800;
  TestCluster cluster(3, /*fault_seed=*/0xBADF00Du, timings);

  std::set<uint64_t> acked;
  uint64_t next_landmark = 900000;
  size_t burst_left = 0;  // actions until armed fault policies clear

  auto all_alive_and_connected = [&] {
    for (int i = 0; i < 3; ++i) {
      if (!cluster.node(i)->alive() || cluster.node(i)->partitioned()) {
        return false;
      }
    }
    return true;
  };

  for (size_t action = 0; action < actions; ++action) {
    if (burst_left > 0 && --burst_left == 0) cluster.faults().ClearPolicies();

    int pick = rng.UniformInt(0, 9);
    switch (pick) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: {  // Write (half the schedule): acked only when fully acked.
        uint64_t id = next_landmark++;
        if (cluster.WriteAcked(id)) acked.insert(id);
        break;
      }
      case 5: {  // Kill the leader — only within the designed tolerance
                 // (one failure at a time; see DESIGN.md crash matrix).
        if (all_alive_and_connected()) {
          ReplicationNode* l = cluster.leader();
          if (l != nullptr) l->Halt();
        }
        break;
      }
      case 6: {  // Partition a random node (leader or follower).
        if (all_alive_and_connected()) {
          cluster.node(rng.UniformInt(0, 2))->SetPartitioned(true);
        }
        break;
      }
      case 7: {  // Heal: restart the dead, reconnect the partitioned.
        for (int i = 0; i < 3; ++i) {
          cluster.node(i)->SetPartitioned(false);
          if (!cluster.node(i)->alive()) {
            ASSERT_TRUE(cluster.node(i)->Restart().ok());
          }
        }
        break;
      }
      case 8: {  // Fault burst on the replication sites.
        if (burst_left == 0) {
          int site = rng.UniformInt(0, 2);
          FaultPolicy policy;
          if (site == 0) {
            policy.site = WalShipper::kShipFaultSite;
            policy.kind = rng.Bernoulli(0.5) ? FaultKind::kBitFlip
                                             : FaultKind::kTornWrite;
            policy.probability = 0.4;
          } else if (site == 1) {
            policy.site = Replica::kApplyFaultSite;
            policy.kind = FaultKind::kFailStatus;
            policy.fail_code = StatusCode::kInternal;
            policy.probability = 0.3;
          } else {
            policy.site = WalShipper::kHeartbeatFaultSite;
            policy.kind = FaultKind::kFailStatus;
            policy.probability = 0.5;
          }
          cluster.faults().AddPolicy(policy);
          burst_left = static_cast<size_t>(rng.UniformInt(3, 8));
        }
        break;
      }
      default: {  // Let timers run: heartbeats, failover, catch-up.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(rng.UniformInt(5, 40)));
        break;
      }
    }

    // Periodic checkpoint: heal everything, converge, check invariants.
    if ((action + 1) % 25 == 0 || action + 1 == actions) {
      cluster.HealAll();
      burst_left = 0;
      ASSERT_TRUE(cluster.WaitConverged(20000))
          << "cluster failed to re-converge after action " << action;
      cluster.ExpectInvariants(acked);
    }
  }

  // Final quiesce: everything healed, every acked write present, every
  // follower byte-identical, one leader per term for the whole run.
  cluster.HealAll();
  ASSERT_TRUE(cluster.WaitConverged(20000));
  cluster.ExpectInvariants(acked);
  EXPECT_EQ(cluster.controller().split_brain_observed(), 0u);
  std::map<uint64_t, int> by_term = cluster.controller().LeadersByTerm();
  EXPECT_GE(by_term.size(), 1u);
  SUCCEED() << "chaos: " << actions << " actions, " << acked.size()
            << " acked writes, " << by_term.size() << " terms, "
            << cluster.controller().failover_count() << " failovers";
}

}  // namespace
}  // namespace hdmap
