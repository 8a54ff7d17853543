#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/serialization.h"
#include "core/tile_store.h"
#include "sim/road_network_generator.h"

namespace hdmap {
namespace {

HdMap SmallTown(uint64_t seed = 11) {
  Rng rng(seed);
  TownOptions opt;
  opt.grid_rows = 2;
  opt.grid_cols = 3;
  opt.block_size = 120.0;
  auto town = GenerateTown(opt, rng);
  EXPECT_TRUE(town.ok()) << town.status().ToString();
  return std::move(town).value();
}

/// Two lanelets in tiles far apart (tile size 100: tile (0,0) and (5,0)),
/// plus one regulatory element referencing both.
HdMap TwoTileWorldWithSharedRegElement() {
  HdMap map;
  Lanelet a;
  a.id = 1;
  a.centerline = LineString({{10, 10}, {20, 10}});
  a.regulatory_ids = {900};
  Lanelet b;
  b.id = 2;
  b.centerline = LineString({{510, 10}, {520, 10}});
  b.regulatory_ids = {900};
  EXPECT_TRUE(map.AddLanelet(a).ok());
  EXPECT_TRUE(map.AddLanelet(b).ok());
  RegulatoryElement reg;
  reg.id = 900;
  reg.type = RegulatoryType::kSpeedLimit;
  reg.speed_limit_mps = 8.0;
  reg.lanelet_ids = {1, 2};
  EXPECT_TRUE(map.AddRegulatoryElement(reg).ok());
  return map;
}

/// Test oracle for LoadRegion: decode every blob in full with
/// DeserializeMap (either encoding), then insert each element with the
/// first tile in `tiles` order winning. Blobs that fail decode are listed
/// as corrupt, like LoadRegion's degraded mode.
HdMap ReferenceStitch(const std::vector<TileId>& tiles,
                      const std::vector<std::string>& blobs,
                      RegionReport* report) {
  HdMap region;
  report->corrupt_tiles.clear();
  report->unresolved_regulatory_refs.clear();
  for (size_t i = 0; i < tiles.size(); ++i) {
    auto tile = DeserializeMap(blobs[i]);
    if (!tile.ok()) {
      report->corrupt_tiles.push_back(tiles[i]);
      continue;
    }
    for (const auto& [id, lm] : tile->landmarks()) {
      (void)region.AddLandmark(lm);
    }
    for (const auto& [id, lf] : tile->line_features()) {
      (void)region.AddLineFeature(lf);
    }
    for (const auto& [id, af] : tile->area_features()) {
      (void)region.AddAreaFeature(af);
    }
    for (const auto& [id, ll] : tile->lanelets()) {
      (void)region.AddLanelet(ll);
    }
    for (const auto& [id, reg] : tile->regulatory_elements()) {
      (void)region.AddRegulatoryElement(reg);
    }
  }
  for (const auto& [id, reg] : region.regulatory_elements()) {
    for (ElementId ll_id : reg.lanelet_ids) {
      if (region.FindLanelet(ll_id) == nullptr) {
        report->unresolved_regulatory_refs.emplace_back(id, ll_id);
      }
    }
  }
  return region;
}

TEST(TileStoreRegressionTest, RegulatoryElementRidesWithEveryLanelet) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  ASSERT_GE(store.NumTiles(), 2u);

  // The element must be present in the tile of each referenced lanelet,
  // not just the first one's.
  for (const Vec2& anchor : {Vec2{15, 10}, Vec2{515, 10}}) {
    auto tile = store.LoadTile(store.TileAt(anchor));
    ASSERT_TRUE(tile.ok()) << tile.status().ToString();
    EXPECT_NE(tile->FindRegulatoryElement(900), nullptr)
        << "element missing from tile at (" << anchor.x << "," << anchor.y
        << ")";
  }

  // A region covering only the *second* lanelet still sees the element
  // (this was silently lost before the fix).
  auto region_b = store.LoadRegion(Aabb({500, 0}, {530, 20}));
  ASSERT_TRUE(region_b.ok());
  EXPECT_NE(region_b->FindLanelet(2), nullptr);
  EXPECT_NE(region_b->FindRegulatoryElement(900), nullptr);

  auto region_a = store.LoadRegion(Aabb({0, 0}, {30, 20}));
  ASSERT_TRUE(region_a.ok());
  EXPECT_NE(region_a->FindRegulatoryElement(900), nullptr);
}

TEST(TileStoreRegressionTest, PartialRegionReportsUnresolvedRegRefs) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());

  // Region covering only lanelet 2: the element is kept, and its dangling
  // reference to lanelet 1 is reported instead of silently ignored.
  RegionReport report;
  auto region = store.LoadRegion(Aabb({500, 0}, {530, 20}), &report);
  ASSERT_TRUE(region.ok());
  ASSERT_EQ(report.unresolved_regulatory_refs.size(), 1u);
  EXPECT_EQ(report.unresolved_regulatory_refs[0].first, 900u);
  EXPECT_EQ(report.unresolved_regulatory_refs[0].second, 1u);

  // The full region resolves everything.
  auto full = store.LoadRegion(map.BoundingBox(), &report);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(report.unresolved_regulatory_refs.empty());
}

TEST(TileStoreTest, BuildOutputIsIdenticalAcrossThreadCounts) {
  HdMap map = SmallTown();
  TileStore serial(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(serial.Build(map, 1).ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    TileStore parallel(TileStore::Options{.tile_size_m = 128.0});
    ASSERT_TRUE(parallel.Build(map, threads).ok());
    ASSERT_EQ(parallel.NumTiles(), serial.NumTiles());
    EXPECT_EQ(parallel.RawTilesCopy(), serial.RawTilesCopy())
        << "tile bytes differ with " << threads << " threads";
  }
}

TEST(TileStoreTest, ParallelRegionLoadMatchesSerial) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());
  Aabb box = map.BoundingBox();
  auto serial = store.LoadRegion(box, nullptr, 1);
  auto parallel = store.LoadRegion(box, nullptr, 8);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(SerializeMap(*serial), SerializeMap(*parallel));
}

/// The store's exported view-cache counters, read back from `registry`.
struct CacheCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
};
CacheCounts ReadCacheCounts(MetricsRegistry& registry) {
  return {registry.GetCounter("tile_store.cache_hits")->value(),
          registry.GetCounter("tile_store.cache_misses")->value()};
}

TEST(TileStoreTest, CacheHitsOnRepeatedLoads) {
  MetricsRegistry registry;
  HdMap map = SmallTown();
  TileStore store(
      TileStore::Options{.tile_size_m = 128.0, .metrics = &registry});
  ASSERT_TRUE(store.Build(map).ok());
  ASSERT_GT(store.NumTiles(), 1u);

  auto present = store.TilesInBox(map.BoundingBox());
  ASSERT_TRUE(present.ok());
  ASSERT_FALSE(present->empty());
  TileId tile = present->front();
  ASSERT_TRUE(store.LoadTile(tile).ok());
  CacheCounts counts = ReadCacheCounts(registry);
  EXPECT_EQ(counts.hits, 0u);
  EXPECT_EQ(counts.misses, 1u);

  // LoadTile and GetTileView share the one validated-view cache.
  ASSERT_TRUE(store.LoadTile(tile).ok());
  ASSERT_TRUE(store.GetTileView(tile).ok());
  counts = ReadCacheCounts(registry);
  EXPECT_EQ(counts.hits, 2u);
  EXPECT_EQ(counts.misses, 1u);

  // A whole-map region load validates each remaining tile once...
  ASSERT_TRUE(store.LoadRegion(map.BoundingBox()).ok());
  counts = ReadCacheCounts(registry);
  EXPECT_EQ(counts.misses, store.NumTiles());
  // ...and a repeat is served fully from cache: one lookup per tile.
  ASSERT_TRUE(store.LoadRegion(map.BoundingBox()).ok());
  CacheCounts warm = ReadCacheCounts(registry);
  EXPECT_EQ(warm.misses, counts.misses);
  EXPECT_EQ(warm.hits, counts.hits + store.NumTiles());
}

TEST(TileStoreTest, PutTileInvalidatesCacheEntry) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId tile = store.TileAt({15, 10});
  auto old_view = store.GetTileView(tile);  // Warm the cache.
  ASSERT_TRUE(old_view.ok());

  HdMap replacement;
  Lanelet moved;
  moved.id = 77;
  moved.centerline = LineString({{12, 12}, {18, 12}});
  ASSERT_TRUE(replacement.AddLanelet(moved).ok());
  store.PutTile(tile, replacement);

  auto reloaded = store.LoadTile(tile);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_NE(reloaded->FindLanelet(77), nullptr);  // Fresh bytes, not cache.
  EXPECT_EQ(reloaded->FindLanelet(1), nullptr);
  auto new_view = store.GetTileView(tile);
  ASSERT_TRUE(new_view.ok());
  EXPECT_TRUE(new_view->view.FindLanelet(77).has_value());
  // The view taken before the Put still reads the old bytes it pins.
  EXPECT_TRUE(old_view->view.FindLanelet(1).has_value());
}

TEST(TileStoreTest, HugeQueryBoxIsRejected) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());

  Aabb degenerate({-1e9, -1e9}, {1e9, 1e9});
  auto tiles = store.TilesInBox(degenerate);
  EXPECT_EQ(tiles.status().code(), StatusCode::kInvalidArgument);
  auto region = store.LoadRegion(degenerate);
  EXPECT_EQ(region.status().code(), StatusCode::kInvalidArgument);

  // Sane boxes still work.
  auto ok_tiles = store.TilesInBox(map.BoundingBox());
  ASSERT_TRUE(ok_tiles.ok());
  EXPECT_EQ(ok_tiles->size(), store.NumTiles());
}

TEST(TileStoreTest, ExtremeQueryBoxesAreRejectedNotOverflowed) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 1.0});
  ASSERT_TRUE(store.Build(map).ok());

  // Per-axis spans near 2^32: the old span product overflowed int64 and
  // could wrap past the guard into a 2^64-iteration loop.
  Aabb full_range({-2e9, -2e9}, {2e9, 2e9});
  EXPECT_EQ(store.TilesInBox(full_range).status().code(),
            StatusCode::kInvalidArgument);

  // Coordinates whose tile index exceeds int32: the old code cast them
  // to int32 (UB) before any guard ran.
  Aabb far_away({1e18, 0.0}, {1e18 + 1.0, 1.0});
  EXPECT_EQ(store.TilesInBox(far_away).status().code(),
            StatusCode::kInvalidArgument);

  Aabb nan_box({std::numeric_limits<double>::quiet_NaN(), 0.0}, {1.0, 1.0});
  EXPECT_EQ(store.TilesInBox(nan_box).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TileStoreTest, BuildRejectsDegenerateElementBox) {
  HdMap map;
  Lanelet huge;
  huge.id = 1;
  // A bad sensor fix: one endpoint flies off by thousands of kilometers,
  // covering billions of tiles.
  huge.centerline = LineString({{0, 0}, {5e7, 5e7}});
  ASSERT_TRUE(map.AddLanelet(huge).ok());
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  Status s = store.Build(map);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.NumTiles(), 0u);
}

// The pre-Options scalar constructor is gone; Options is the only way to
// configure a store, and its fields cover what the scalars used to.
TEST(TileStoreTest, OptionsConstructorConfiguresStore) {
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  EXPECT_EQ(store.tile_size(), 128.0);
  HdMap map = SmallTown();
  ASSERT_TRUE(store.Build(map).ok());
  EXPECT_GT(store.NumTiles(), 0u);
}

TEST(TileStoreTest, CopyKeepsBytesDropsCache) {
  // The copy-on-write copy keeps the bytes and the validated views of
  // every tile; only what a later rebuild replaces drops out of its cache.
  MetricsRegistry registry;
  HdMap map = SmallTown();
  TileStore store(
      TileStore::Options{.tile_size_m = 128.0, .metrics = &registry});
  ASSERT_TRUE(store.Build(map).ok());
  auto present = store.TilesInBox(map.BoundingBox());
  ASSERT_TRUE(present.ok());
  ASSERT_GE(present->size(), 2u);
  const TileId untouched = present->front();
  const TileId rebuilt = present->back();
  ASSERT_TRUE(store.GetTileView(untouched).ok());  // Warm both entries.
  ASSERT_TRUE(store.GetTileView(rebuilt).ok());

  TileStore copy = store;
  EXPECT_EQ(copy.RawTilesCopy(), store.RawTilesCopy());
  EXPECT_EQ(copy.tile_size(), store.tile_size());
  ASSERT_TRUE(copy.RebuildTiles(map, {rebuilt}).ok());
  CacheCounts before = ReadCacheCounts(registry);
  ASSERT_TRUE(copy.GetTileView(untouched).ok());
  CacheCounts after = ReadCacheCounts(registry);
  EXPECT_EQ(after.hits, before.hits + 1);  // Carried across the copy.
  EXPECT_EQ(after.misses, before.misses);
  ASSERT_TRUE(copy.GetTileView(rebuilt).ok());
  CacheCounts last = ReadCacheCounts(registry);
  EXPECT_EQ(last.hits, after.hits);
  EXPECT_EQ(last.misses, after.misses + 1);  // Replaced bytes: revalidated.

  // Copy assignment shares the same path.
  TileStore assigned(TileStore::Options{.tile_size_m = 128.0});
  assigned = store;
  ASSERT_TRUE(assigned.GetTileView(untouched).ok());
  EXPECT_EQ(ReadCacheCounts(registry).hits, last.hits + 1);
}

TEST(TileStoreTest, RebuildTilesMatchesFullBuild) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());

  // Mutate the map: move every landmark by a small offset.
  HdMap changed = map;
  std::vector<std::pair<ElementId, Vec3>> moves;
  for (const auto& [id, lm] : changed.landmarks()) {
    moves.push_back({id, lm.position + Vec3{1, 1, 0}});
  }
  std::vector<TileId> touched;
  for (const auto& [id, pos] : moves) {
    const Landmark* lm = changed.FindLandmark(id);
    touched.push_back(store.TileAt(lm->position.xy()));
    touched.push_back(store.TileAt(pos.xy()));
    ASSERT_TRUE(changed.MoveLandmark(id, pos).ok());
  }

  ASSERT_TRUE(store.RebuildTiles(changed, touched).ok());
  TileStore full(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(full.Build(changed).ok());
  EXPECT_EQ(store.RawTilesCopy(), full.RawTilesCopy());
}

TEST(TileStoreTest, TileCoverageIncludesAbsentTiles) {
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  // Empty store: coverage still enumerates the tiling, TilesInBox doesn't.
  Aabb box{{-50, -50}, {49, 49}};
  auto coverage = store.TileCoverage(box);
  ASSERT_TRUE(coverage.ok());
  EXPECT_EQ(coverage->size(), 4u);
  auto present = store.TilesInBox(box);
  ASSERT_TRUE(present.ok());
  EXPECT_TRUE(present->empty());
}

TEST(TileStoreTest, CacheCountersExportThroughRegistry) {
  MetricsRegistry registry;
  HdMap map = SmallTown();
  TileStore store(
      TileStore::Options{.tile_size_m = 128.0, .metrics = &registry});
  ASSERT_TRUE(store.Build(map).ok());
  auto present = store.TilesInBox(map.BoundingBox());
  ASSERT_TRUE(present.ok());
  ASSERT_TRUE(store.GetTileView(present->front()).ok());
  ASSERT_TRUE(store.GetTileView(present->front()).ok());
  EXPECT_EQ(registry.GetCounter("tile_store.cache_misses")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("tile_store.cache_hits")->value(), 1u);
  // The view cache never evicts, so no eviction series is exported.
  EXPECT_EQ(registry.RenderPrometheus().find("cache_evictions"),
            std::string::npos);
}

/// Flips one payload byte of tile `id` in place via the raw-ingestion
/// path, so the frame CRC no longer matches.
void CorruptTile(TileStore* store, const TileId& id) {
  auto bytes = store->RawTileBytes(id);
  ASSERT_TRUE(bytes.ok());
  std::string bad(bytes->view());
  ASSERT_GT(bad.size(), 20u);
  bad[20] ^= 0x01;
  store->PutRawTile(id, std::move(bad));
}

TEST(TileStoreCorruptionTest, PartialModeStitchesAroundCorruptTile) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId bad_tile = store.TileAt({15, 10});  // Lanelet 1's tile.
  CorruptTile(&store, bad_tile);

  Aabb both({0, 0}, {530, 20});
  RegionReport report;
  auto region = store.LoadRegion(both, &report);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  // The surviving tile's content is served...
  EXPECT_NE(region->FindLanelet(2), nullptr);
  // ...the corrupt tile's is not, and the hole is reported.
  EXPECT_EQ(region->FindLanelet(1), nullptr);
  ASSERT_EQ(report.corrupt_tiles.size(), 1u);
  EXPECT_EQ(report.corrupt_tiles[0], bad_tile);
  EXPECT_EQ(store.NumQuarantined(), 1u);

  // Strict mode refuses the same region outright.
  auto strict = store.LoadRegion(both, nullptr, 0, RegionReadMode::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);
}

TEST(TileStoreCorruptionTest, QuarantineFailsFastAndNeverCaches) {
  MetricsRegistry registry;
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(
      TileStore::Options{.tile_size_m = 100.0, .metrics = &registry});
  ASSERT_TRUE(store.Build(map).ok());
  TileId bad_tile = store.TileAt({15, 10});
  CorruptTile(&store, bad_tile);

  auto first = store.LoadTile(bad_tile);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.NumQuarantined(), 1u);
  // The second load fails fast off the quarantine set (no
  // re-validation) and never lands in the cache: still zero hits.
  auto second = store.LoadTile(bad_tile);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.GetTileView(bad_tile).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(ReadCacheCounts(registry).hits, 0u);
}

TEST(TileStoreCorruptionTest, ReplacingBytesClearsQuarantine) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId bad_tile = store.TileAt({15, 10});
  std::string good_bytes = store.RawTilesCopy().at(bad_tile.Morton());
  CorruptTile(&store, bad_tile);
  ASSERT_FALSE(store.LoadTile(bad_tile).ok());
  ASSERT_EQ(store.NumQuarantined(), 1u);

  // PutRawTile with intact bytes lifts the quarantine...
  store.PutRawTile(bad_tile, good_bytes);
  EXPECT_EQ(store.NumQuarantined(), 0u);
  auto reloaded = store.LoadTile(bad_tile);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_NE(reloaded->FindLanelet(1), nullptr);

  // ...and so does a full rebuild after re-corrupting.
  CorruptTile(&store, bad_tile);
  ASSERT_FALSE(store.LoadTile(bad_tile).ok());
  ASSERT_EQ(store.NumQuarantined(), 1u);
  ASSERT_TRUE(store.Build(map).ok());
  EXPECT_EQ(store.NumQuarantined(), 0u);
  EXPECT_TRUE(store.LoadTile(bad_tile).ok());
}

TEST(TileStoreCorruptionTest, FaultInjectorCorruptsLoadsDeterministically) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  FaultInjector faults(1234);
  faults.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip, 1.0});
  TileStore store(TileStore::Options{.tile_size_m = 100.0,
                                     .fault_injector = &faults});
  ASSERT_TRUE(store.Build(map).ok());
  TileId id = store.TileAt({15, 10});
  const std::string pristine = store.RawTilesCopy().at(id.Morton());

  // The zero-copy path passes the same seam: the injected bytes are
  // validated, fail closed, and quarantine the tile.
  auto view = store.GetTileView(id);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(faults.InjectedCount(TileStore::kLoadFaultSite), 1u);
  EXPECT_EQ(store.NumQuarantined(), 1u);
  // Corruption is injected into a private copy: the stored bytes are
  // intact, and repairing the tile (same bytes) lifts the quarantine.
  EXPECT_EQ(store.RawTilesCopy().at(id.Morton()), pristine);
  store.PutRawTile(id, pristine);
  EXPECT_EQ(store.NumQuarantined(), 0u);

  auto load = store.LoadTile(id);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(faults.InjectedCount(TileStore::kLoadFaultSite), 2u);
  EXPECT_EQ(store.NumQuarantined(), 1u);

  // Same seed, fresh store: the identical blob makes the identical
  // decision (content-hash determinism, independent of call order).
  FaultInjector faults2(1234);
  faults2.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip, 1.0});
  TileStore store2(TileStore::Options{.tile_size_m = 100.0,
                                      .fault_injector = &faults2});
  ASSERT_TRUE(store2.Build(map).ok());
  EXPECT_FALSE(store2.GetTileView(id).ok());

  // Probability 0: injector wired but inert.
  FaultInjector quiet(1234);
  quiet.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip, 0.0});
  TileStore store3(TileStore::Options{.tile_size_m = 100.0,
                                      .fault_injector = &quiet});
  ASSERT_TRUE(store3.Build(map).ok());
  EXPECT_TRUE(store3.GetTileView(id).ok());
  EXPECT_TRUE(store3.LoadTile(id).ok());
  EXPECT_EQ(quiet.TotalInjected(), 0u);
}

TEST(TileStoreCorruptionTest, PutRawTileIngestsWireBytes) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore source(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(source.Build(map).ok());

  // Ship two tiles' bytes to a second store over the "wire".
  TileStore sink(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(sink.Build(HdMap{}).ok());
  TileId t1 = source.TileAt({15, 10});
  TileId t2 = source.TileAt({515, 10});
  sink.PutRawTile(t1, source.RawTilesCopy().at(t1.Morton()));
  sink.PutRawTile(t2, source.RawTilesCopy().at(t2.Morton()));
  EXPECT_EQ(sink.NumTiles(), 2u);
  auto region = sink.LoadRegion(Aabb({0, 0}, {530, 20}));
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_NE(region->FindLanelet(1), nullptr);
  EXPECT_NE(region->FindLanelet(2), nullptr);
}

// --- Region stitch equivalence ---

/// Stitches `boxes` seeded random query boxes (200..400 m a side
/// somewhere over `map`) through LoadRegion and through ReferenceStitch
/// over the same stored bytes; returns how many regions or reports
/// differ, and the first such box in `first_diff`.
int CountRegionMismatches(const TileStore& store, const HdMap& map,
                          uint64_t seed, int boxes, std::string* first_diff) {
  Rng rng(seed);
  Aabb bounds = map.BoundingBox();
  int mismatches = 0;
  for (int i = 0; i < boxes; ++i) {
    double w = rng.Uniform(200.0, 400.0);
    double h = rng.Uniform(200.0, 400.0);
    Vec2 lo{rng.Uniform(bounds.min.x - w / 2, bounds.max.x - w / 2),
            rng.Uniform(bounds.min.y - h / 2, bounds.max.y - h / 2)};
    Aabb box(lo, {lo.x + w, lo.y + h});
    auto tiles = store.TilesInBox(box);
    if (!tiles.ok()) return -1;
    std::vector<std::string> blobs;
    for (const TileId& id : *tiles) {
      blobs.emplace_back(store.RawTileBytes(id)->view());
    }
    RegionReport expected_report;
    HdMap expected = ReferenceStitch(*tiles, blobs, &expected_report);
    RegionReport report;
    auto region = store.LoadRegion(box, &report);
    bool same = region.ok() &&
                SerializeMap(*region) == SerializeMap(expected) &&
                report.corrupt_tiles == expected_report.corrupt_tiles &&
                report.unresolved_regulatory_refs ==
                    expected_report.unresolved_regulatory_refs;
    if (!same && mismatches++ == 0) {
      *first_diff = "box #" + std::to_string(i) + " at (" +
                    std::to_string(lo.x) + ", " + std::to_string(lo.y) + ")";
    }
  }
  return mismatches;
}

HdMap RegionTestTown() {
  Rng rng(5);
  TownOptions opt;
  opt.grid_rows = 5;
  opt.grid_cols = 5;
  auto town = GenerateTown(opt, rng);
  EXPECT_TRUE(town.ok()) << town.status().ToString();
  return std::move(town).value();
}

TEST(TileStoreRegionTest, LoadRegionMatchesReferenceStitch) {
  HdMap map = RegionTestTown();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  ASSERT_GT(store.NumTiles(), 30u);
  std::string first_diff;
  // Once cold (every view validated on the way), once with warm views.
  EXPECT_EQ(CountRegionMismatches(store, map, 42, 1000, &first_diff), 0)
      << first_diff;
  EXPECT_EQ(CountRegionMismatches(store, map, 43, 200, &first_diff), 0)
      << first_diff;
}

TEST(TileStoreRegionTest, LoadRegionMatchesReferenceStitchAroundCorruptTiles) {
  HdMap map = RegionTestTown();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  std::vector<TileId> all = store.AllTiles();
  size_t corrupted = 0;
  for (size_t i = 0; i < all.size(); i += 7) {
    auto bytes = store.RawTileBytes(all[i]);
    ASSERT_TRUE(bytes.ok());
    std::string bad(bytes->view());
    bad[bad.size() / 2] ^= 0x10;  // Breaks the frame CRC.
    store.PutRawTile(all[i], std::move(bad));
    ++corrupted;
  }
  ASSERT_GE(corrupted, 4u);
  std::string first_diff;
  EXPECT_EQ(CountRegionMismatches(store, map, 44, 1000, &first_diff), 0)
      << first_diff;
  EXPECT_EQ(store.NumQuarantined(), corrupted);
}

// --- Span-based view API ---

TEST(TileStoreViewTest, GetTileViewServesElementsInPlace) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());

  auto view = store.GetTileView(store.TileAt({15, 10}));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto lane = view->view.FindLanelet(1);
  ASSERT_TRUE(lane.has_value());
  EXPECT_EQ(lane->centerline().front(), (Vec2{10, 10}));
  EXPECT_EQ(lane->regulatory_ids().ToVector(),
            (std::vector<ElementId>{900}));
  EXPECT_FALSE(view->view.FindLanelet(2).has_value());  // Other tile.
  EXPECT_EQ(view->view.num_regulatory_elements(), 1u);

  // Unknown tiles are kNotFound, exactly like LoadTile.
  EXPECT_EQ(store.GetTileView(TileId{99, 99}).status().code(),
            StatusCode::kNotFound);
}

TEST(TileStoreViewTest, ViewPinsBytesAcrossReplaceAndDestruction) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  auto store =
      std::make_unique<TileStore>(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store->Build(map).ok());
  TileId id = store->TileAt({15, 10});

  auto pinned = store->GetTileView(id);
  ASSERT_TRUE(pinned.ok());

  // Replace the tile with an empty map's encoding, then free the store
  // entirely: the held view must keep reading the ORIGINAL bytes
  // (generation pinning — readers never synchronize with writers).
  store->PutRawTile(id, EncodeTileV3(HdMap{}));
  auto fresh = store->GetTileView(id);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->view.NumElements(), 0u);
  store.reset();

  auto lane = pinned->view.FindLanelet(1);
  ASSERT_TRUE(lane.has_value());
  EXPECT_EQ(lane->centerline().back(), (Vec2{20, 10}));
  auto materialized = pinned->view.Materialize();
  ASSERT_TRUE(materialized.ok());
  EXPECT_NE(materialized->FindRegulatoryElement(900), nullptr);
}

TEST(TileStoreViewTest, V1BytesFailClosedThroughPutRawTile) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId v1_tile = store.TileAt({15, 10});
  auto content = store.LoadTile(v1_tile);
  ASSERT_TRUE(content.ok());
  // Intact, correctly framed bytes — just not in the one tile format.
  store.PutRawTile(v1_tile, SerializeMap(*content));

  auto view = store.GetTileView(v1_tile);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(view.status().message().find("not a v3 tile payload"),
            std::string::npos)
      << view.status().ToString();
  EXPECT_EQ(store.NumQuarantined(), 1u);
  EXPECT_EQ(store.LoadTile(v1_tile).status().code(), StatusCode::kDataLoss);

  // Regions stitch around it and list it, exactly like a corrupt tile.
  Aabb both({0, 0}, {530, 20});
  RegionReport report;
  auto region = store.LoadRegion(both, &report);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_EQ(region->FindLanelet(1), nullptr);
  EXPECT_NE(region->FindLanelet(2), nullptr);
  EXPECT_EQ(report.corrupt_tiles, std::vector<TileId>{v1_tile});
  EXPECT_EQ(store.LoadRegion(both, nullptr, 0, RegionReadMode::kStrict)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST(TileStoreViewTest, FormatsDecodeToIdenticalMaps) {
  // The v1 encoding stays as a yardstick: a region stitched from every
  // tile's v1 re-encoding equals the one LoadRegion stitches from views.
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());
  Aabb box = map.BoundingBox();
  auto tiles = store.TilesInBox(box);
  ASSERT_TRUE(tiles.ok());
  std::vector<std::string> v1_blobs;
  for (const TileId& id : *tiles) {
    auto tile = store.LoadTile(id);
    ASSERT_TRUE(tile.ok());
    v1_blobs.push_back(SerializeMap(*tile));
  }
  RegionReport expected_report;
  HdMap expected = ReferenceStitch(*tiles, v1_blobs, &expected_report);
  RegionReport report;
  auto region = store.LoadRegion(box, &report);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(SerializeMap(*region), SerializeMap(expected));
  EXPECT_EQ(report.unresolved_regulatory_refs,
            expected_report.unresolved_regulatory_refs);
}

TEST(TileStoreViewTest, CorruptTileQuarantinesOnViewPath) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId id = store.TileAt({15, 10});
  std::string good = store.RawTilesCopy().at(id.Morton());
  CorruptTile(&store, id);

  auto view = store.GetTileView(id);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.NumQuarantined(), 1u);
  // Fail-fast off the quarantine set, same contract as LoadTile.
  EXPECT_EQ(store.GetTileView(id).status().code(), StatusCode::kDataLoss);

  // Repair lifts the quarantine for the view path too.
  store.PutRawTile(id, good);
  EXPECT_EQ(store.NumQuarantined(), 0u);
  auto repaired = store.GetTileView(id);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_TRUE(repaired->view.FindLanelet(1).has_value());
}

TEST(TileStoreConcurrencyTest, ConcurrentViewersRaceReplacesSafely) {
  // GetTileView readers race a writer alternating corrupt and pristine
  // bytes for the same tile. Under TSan this proves the view cache and
  // pin handoff are race-free; in any build it checks that (a) a held
  // view never goes bad mid-read and (b) no stale quarantine or cached
  // view outlives the final repair.
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());
  auto in_box = store.TilesInBox(map.BoundingBox());
  ASSERT_TRUE(in_box.ok());
  TileId victim = (*in_box)[in_box->size() / 2];
  std::string pristine = store.RawTilesCopy().at(victim.Morton());
  std::string corrupt = pristine;
  corrupt[corrupt.size() / 2] ^= 0x40;

  constexpr int kReaders = 4;
  constexpr int kWriterRounds = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &victim, &stop, &bad_reads] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto view = store.GetTileView(victim);
        if (!view.ok()) continue;  // Lost the race to corrupt bytes: fine.
        // A view that validated must stay fully readable even while the
        // writer keeps replacing the store's bytes underneath.
        auto materialized = view->view.Materialize();
        if (!materialized.ok()) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < kWriterRounds; ++i) {
    store.PutRawTile(victim, i % 2 == 0 ? corrupt : pristine);
  }
  store.PutRawTile(victim, pristine);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0);

  auto final_view = store.GetTileView(victim);
  ASSERT_TRUE(final_view.ok()) << final_view.status().ToString();
  EXPECT_EQ(store.NumQuarantined(), 0u);
}

TEST(TileStoreConcurrencyTest, ConcurrentCopyWhileReadersFillSourceCache) {
  // Publish copies the serving store while readers are still filling its
  // view cache. Under TSan this proves the copy reads the cache under its
  // lock; in any build every view a copy carries must be over exactly the
  // copy's own bytes for that tile.
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());
  const std::vector<TileId> tiles = store.AllTiles();
  ASSERT_GT(tiles.size(), 4u);

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &tiles, &stop, r] {
      for (size_t i = static_cast<size_t>(r);
           !stop.load(std::memory_order_relaxed); i += kReaders) {
        (void)store.GetTileView(tiles[i % tiles.size()]);
      }
    });
  }
  int mismatched = 0;
  for (int round = 0; round < 50; ++round) {
    TileStore copy = store;
    for (const TileId& id : tiles) {
      auto view = copy.GetTileView(id);
      auto raw = copy.RawTileBytes(id);
      if (!view.ok() || !raw.ok() ||
          view->bytes.view().data() != raw->view().data()) {
        ++mismatched;
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatched, 0);
}

TEST(TileStoreConcurrencyTest, PutRawTileRacesReadersSafely) {
  // The ingestion scenario: one thread repeatedly replaces a tile's bytes
  // (alternating corrupt and pristine payloads, as when re-fetching a
  // quarantined tile from a peer) while reader threads stitch regions
  // spanning it. Run under TSan this is the proof that per-tile Put is
  // safe against concurrent loads; in any build it checks the
  // generation guard — a reader that raced the old bytes must never leave
  // a stale quarantine verdict over the repaired payload.
  HdMap map = SmallTown();
  Aabb box = map.BoundingBox();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());
  auto in_box = store.TilesInBox(box);
  ASSERT_TRUE(in_box.ok());
  ASSERT_GT(in_box->size(), 1u);
  TileId victim = (*in_box)[in_box->size() / 2];
  std::string pristine = store.RawTilesCopy().at(victim.Morton());
  std::string corrupt = pristine;
  corrupt[corrupt.size() / 2] ^= 0x40;  // Breaks the frame CRC.

  constexpr int kReaders = 4;
  constexpr int kWriterRounds = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &box, &stop, &failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Partial mode must always succeed: the racing tile is at worst
        // skipped, never fatal.
        if (!store.LoadRegion(box).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < kWriterRounds; ++i) {
    store.PutRawTile(victim, i % 2 == 0 ? corrupt : pristine);
  }
  // Final repair, then let readers observe it.
  store.PutRawTile(victim, pristine);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // No stale verdict survived the last Put: a strict read of the whole
  // box decodes every tile, including the repaired one.
  auto strict =
      store.LoadRegion(box, nullptr, 0, RegionReadMode::kStrict);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(store.NumQuarantined(), 0u);
}

}  // namespace
}  // namespace hdmap
