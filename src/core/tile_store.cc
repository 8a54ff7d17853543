#include "core/tile_store.h"

#include <cmath>
#include <limits>
#include <mutex>
#include <set>
#include <shared_mutex>

#include "common/thread_pool.h"
#include "common/trace.h"

namespace hdmap {

namespace {

uint64_t Part1By1(uint32_t x) {
  uint64_t v = x;
  v = (v | (v << 16)) & 0x0000FFFF0000FFFFull;
  v = (v | (v << 8)) & 0x00FF00FF00FF00FFull;
  v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0Full;
  v = (v | (v << 2)) & 0x3333333333333333ull;
  v = (v | (v << 1)) & 0x5555555555555555ull;
  return v;
}

}  // namespace

uint64_t TileId::Morton() const {
  // Bias to keep coordinates non-negative.
  uint32_t bx = static_cast<uint32_t>(static_cast<int64_t>(x) + (1 << 30));
  uint32_t by = static_cast<uint32_t>(static_cast<int64_t>(y) + (1 << 30));
  return Part1By1(bx) | (Part1By1(by) << 1);
}

TileStore::TileStore(const Options& options)
    : tile_size_(options.tile_size_m), faults_(options.fault_injector) {
  if (options.metrics != nullptr) {
    hits_exported_ = options.metrics->GetCounter("tile_store.cache_hits");
    misses_exported_ = options.metrics->GetCounter("tile_store.cache_misses");
  }
}

TileStore::TileStore(const TileStore& other) { CopyFrom(other); }

TileStore& TileStore::operator=(const TileStore& other) {
  if (this != &other) CopyFrom(other);
  return *this;
}

void TileStore::CopyFrom(const TileStore& other) {
  tile_size_ = other.tile_size_;
  tiles_ = other.tiles_;
  tile_ids_ = other.tile_ids_;
  hits_exported_ = other.hits_exported_;
  misses_exported_ = other.misses_exported_;
  faults_ = other.faults_;
  // Readers of `other` insert views concurrently. Every cached view is
  // over the store's own bytes (views over injected corruption are never
  // cached), which the copy now shares, so each stays valid here.
  std::unordered_map<uint64_t, std::shared_ptr<const PinnedTileView>> views;
  {
    std::lock_guard<std::mutex> lock(other.cache_mu_);
    views = other.view_cache_;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  mutation_gen_.fetch_add(1, std::memory_order_release);
  quarantined_.clear();
  view_cache_ = std::move(views);
}

size_t TileStore::TotalBytes() const {
  std::shared_lock<std::shared_mutex> lock(tiles_mu_);
  size_t total = 0;
  for (const auto& [key, blob] : tiles_) total += blob.size();
  return total;
}

TileId TileStore::TileAt(const Vec2& p) const {
  return TileId{static_cast<int32_t>(std::floor(p.x / tile_size_)),
                static_cast<int32_t>(std::floor(p.y / tile_size_))};
}

Result<std::pair<TileId, TileId>> TileStore::TileRangeForBox(
    const Aabb& box) const {
  // Tile indices stay in floating point until every check has passed:
  // casting a double outside int32 range (or NaN) to int32 is UB.
  constexpr double kMinIndex = std::numeric_limits<int32_t>::min();
  constexpr double kMaxIndex = std::numeric_limits<int32_t>::max();
  double lo_x = std::floor(box.min.x / tile_size_);
  double lo_y = std::floor(box.min.y / tile_size_);
  double hi_x = std::floor(box.max.x / tile_size_);
  double hi_y = std::floor(box.max.y / tile_size_);
  // Negated comparisons so NaN coordinates are rejected too.
  if (!(lo_x >= kMinIndex && hi_x <= kMaxIndex && lo_y >= kMinIndex &&
        hi_y <= kMaxIndex && lo_x <= hi_x && lo_y <= hi_y)) {
    return Status::InvalidArgument(
        "box coordinates outside the tileable range; likely a degenerate "
        "bounding box");
  }
  // Both indices fit in int32, so each span fits in int64 exactly. The
  // per-axis checks run before the multiplication, so the product is
  // only formed when both factors are <= kMaxTilesPerBox.
  int64_t span_x = static_cast<int64_t>(hi_x - lo_x) + 1;
  int64_t span_y = static_cast<int64_t>(hi_y - lo_y) + 1;
  if (span_x > kMaxTilesPerBox || span_y > kMaxTilesPerBox ||
      span_x * span_y > kMaxTilesPerBox) {
    return Status::InvalidArgument(
        "box covers " + std::to_string(span_x) + "x" +
        std::to_string(span_y) + " tiles (max " +
        std::to_string(kMaxTilesPerBox) +
        "); likely a degenerate bounding box");
  }
  return std::make_pair(
      TileId{static_cast<int32_t>(lo_x), static_cast<int32_t>(lo_y)},
      TileId{static_cast<int32_t>(hi_x), static_cast<int32_t>(hi_y)});
}

Status TileStore::AssignTiles(const HdMap& map,
                              const std::map<uint64_t, TileId>* only,
                              std::map<uint64_t, HdMap>* tile_maps,
                              std::map<uint64_t, TileId>* ids) const {
  Status box_error;  // First oversized-box failure, if any.
  auto tiles_for_box = [&](const Aabb& box) {
    std::vector<TileId> out;
    if (box.IsEmpty() || !box_error.ok()) return out;
    auto range = TileRangeForBox(box);
    if (!range.ok()) {
      box_error = Status::InvalidArgument("element " +
                                          range.status().message());
      return out;
    }
    const TileId lo = range->first;
    const TileId hi = range->second;
    for (int32_t ty = lo.y; ty <= hi.y; ++ty) {
      for (int32_t tx = lo.x; tx <= hi.x; ++tx) {
        TileId t{tx, ty};
        if (only != nullptr && only->count(t.Morton()) == 0) continue;
        out.push_back(t);
      }
    }
    return out;
  };

  for (const auto& [id, lm] : map.landmarks()) {
    for (const TileId& t : tiles_for_box(Aabb::FromPoint(lm.position.xy()))) {
      uint64_t key = t.Morton();
      ids->emplace(key, t);
      // Ignore AlreadyExists: an element can only land once per tile.
      (void)(*tile_maps)[key].AddLandmark(lm);
    }
  }
  for (const auto& [id, lf] : map.line_features()) {
    for (const TileId& t : tiles_for_box(lf.geometry.BoundingBox())) {
      uint64_t key = t.Morton();
      ids->emplace(key, t);
      (void)(*tile_maps)[key].AddLineFeature(lf);
    }
  }
  for (const auto& [id, af] : map.area_features()) {
    for (const TileId& t : tiles_for_box(af.geometry.BoundingBox())) {
      uint64_t key = t.Morton();
      ids->emplace(key, t);
      (void)(*tile_maps)[key].AddAreaFeature(af);
    }
  }
  for (const auto& [id, ll] : map.lanelets()) {
    for (const TileId& t : tiles_for_box(ll.centerline.BoundingBox())) {
      uint64_t key = t.Morton();
      ids->emplace(key, t);
      // Cross-tile references (successors, boundaries, regulatory ids) are
      // kept verbatim: a tile is self-contained for geometry but not for
      // topology, and LoadRegion reports any reference that stays
      // unresolved after stitching.
      (void)(*tile_maps)[key].AddLanelet(ll);
    }
  }
  for (const auto& [id, reg] : map.regulatory_elements()) {
    // A regulatory element rides with every lanelet it references, so any
    // region covering one of those lanelets sees the element (previously
    // only the first reference was tiled, and the element vanished from
    // regions covering the others).
    std::set<uint64_t> reg_keys;
    for (ElementId ll_id : reg.lanelet_ids) {
      const Lanelet* ll = map.FindLanelet(ll_id);
      if (ll == nullptr) continue;
      for (const TileId& t : tiles_for_box(ll->centerline.BoundingBox())) {
        reg_keys.insert(t.Morton());
      }
    }
    for (uint64_t key : reg_keys) {
      auto it = tile_maps->find(key);
      if (it == tile_maps->end()) continue;
      (void)it->second.AddRegulatoryElement(reg);
    }
  }
  return box_error;
}

Status TileStore::Build(const HdMap& map, size_t num_threads) {
  TraceSpan span("tile_store.build");
  {
    std::unique_lock<std::shared_mutex> lock(tiles_mu_);
    tiles_.clear();
    tile_ids_.clear();
  }
  CacheClear();

  // Phase 1 (sequential, deterministic): assign every element to the tiles
  // its bounding box intersects.
  std::map<uint64_t, HdMap> tile_maps;
  std::map<uint64_t, TileId> ids;
  Status assigned = AssignTiles(map, nullptr, &tile_maps, &ids);
  if (!assigned.ok()) return assigned;

  // Phase 2 (parallel): encode each tile independently. Each task owns
  // one output slot, so the assembled result — and therefore the stored
  // bytes — do not depend on the thread count.
  std::vector<std::pair<uint64_t, const HdMap*>> work;
  work.reserve(tile_maps.size());
  for (const auto& [key, tile_map] : tile_maps) {
    work.emplace_back(key, &tile_map);
  }
  std::vector<std::string> blobs(work.size());
  ParallelFor(
      work.size(),
      [&](size_t i) { blobs[i] = EncodeTileV3(*work[i].second); },
      num_threads);

  std::unique_lock<std::shared_mutex> lock(tiles_mu_);
  for (size_t i = 0; i < work.size(); ++i) {
    uint64_t key = work[i].first;
    tiles_[key] = PinnedBytes::FromString(std::move(blobs[i]));
    tile_ids_[key] = ids[key];
  }
  return Status::Ok();
}

Status TileStore::RebuildTiles(const HdMap& map,
                               const std::vector<TileId>& tiles,
                               size_t num_threads) {
  if (tiles.empty()) return Status::Ok();
  TraceSpan span("tile_store.rebuild");

  std::map<uint64_t, TileId> requested;
  for (const TileId& t : tiles) requested.emplace(t.Morton(), t);

  // Same deterministic assignment as Build, restricted to the requested
  // tiles; everything outside `requested` keeps its serialized bytes.
  std::map<uint64_t, HdMap> tile_maps;
  std::map<uint64_t, TileId> ids;
  HDMAP_RETURN_IF_ERROR(AssignTiles(map, &requested, &tile_maps, &ids));

  std::vector<std::pair<uint64_t, const HdMap*>> work;
  work.reserve(tile_maps.size());
  for (const auto& [key, tile_map] : tile_maps) {
    work.emplace_back(key, &tile_map);
  }
  std::vector<std::string> blobs(work.size());
  ParallelFor(
      work.size(),
      [&](size_t i) { blobs[i] = EncodeTileV3(*work[i].second); },
      num_threads);

  {
    std::unique_lock<std::shared_mutex> lock(tiles_mu_);
    // Requested tiles with no remaining content disappear from the store
    // (exactly as a full Build would never have created them).
    for (const auto& [key, id] : requested) {
      (void)id;
      if (tile_maps.count(key) == 0) {
        tiles_.erase(key);
        tile_ids_.erase(key);
      }
    }
    for (size_t i = 0; i < work.size(); ++i) {
      uint64_t key = work[i].first;
      tiles_[key] = PinnedBytes::FromString(std::move(blobs[i]));
      tile_ids_[key] = ids[key];
    }
  }
  for (const auto& [key, id] : requested) {
    (void)id;
    CacheErase(key);
  }
  return Status::Ok();
}

void TileStore::PutTile(const TileId& id, const HdMap& tile_map) {
  PutRawTile(id, EncodeTileV3(tile_map));
}

void TileStore::PutRawTile(const TileId& id, std::string bytes) {
  PutPinnedTile(id, PinnedBytes::FromString(std::move(bytes)));
}

void TileStore::PutPinnedTile(const TileId& id, PinnedBytes bytes) {
  {
    std::unique_lock<std::shared_mutex> lock(tiles_mu_);
    tiles_[id.Morton()] = std::move(bytes);
    tile_ids_[id.Morton()] = id;
  }
  // After the bytes, not before: CacheErase bumps the mutation
  // generation, so any reader still decoding the old payload has observed
  // an older generation and its verdict is dropped.
  CacheErase(id.Morton());
}

Result<HdMap> TileStore::LoadTile(const TileId& id) const {
  HDMAP_ASSIGN_OR_RETURN(PinnedTileView tile, GetTileView(id));
  return tile.view.Materialize();
}

Result<PinnedTileView> TileStore::GetTileView(const TileId& id) const {
  const uint64_t key = id.Morton();
  // Cache hits are deliberately span-free: they are the hot path of every
  // warm GetRegion (already counted by tile_store.cache_hits), and a
  // span's two clock reads would cost more than the lookup itself. Spans
  // cover the cold path only: load -> decode (validate) -> quarantine.
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = view_cache_.find(key);
    if (it != view_cache_.end()) {
      if (hits_exported_ != nullptr) hits_exported_->Increment();
      return *it->second;
    }
    if (misses_exported_ != nullptr) misses_exported_->Increment();
  }
  // Child span of whatever request is loading (GetRegion fans these out
  // across ParallelFor workers, so they nest under the request's root).
  TraceSpan span("tile_store.load");
  if (IsQuarantined(key)) {
    // Expected repeat of an already-discovered corruption: don't force it
    // into the ring on every request, or it evicts the decode span that
    // found the corrupt bytes in the first place.
    span.SetStatus(StatusCode::kDataLoss, /*force=*/false);
    return Status::DataLoss("tile key " + std::to_string(key) +
                            " quarantined after a failed validation");
  }
  // Generation first, bytes second: if a Put* replaces the bytes after
  // this load, the verdict below is installed against a stale generation
  // and dropped (worst case a wasted validation, never a poisoned cache).
  uint64_t gen = mutation_gen_.load(std::memory_order_acquire);
  PinnedBytes bytes;
  {
    std::shared_lock<std::shared_mutex> lock(tiles_mu_);
    auto it = tiles_.find(key);
    if (it == tiles_.end()) {
      span.SetStatus(StatusCode::kNotFound);
      return Status::NotFound("tile (" + std::to_string(id.x) + "," +
                              std::to_string(id.y) + ")");
    }
    bytes = it->second;  // Pin: valid after the lock drops, forever.
  }
  // Injected corruption gets its own buffer, so the view below points at
  // the mutated bytes, and is never cached: the store's bytes are intact.
  bool injected = false;
  std::string corrupted;
  if (faults_ != nullptr &&
      faults_->MaybeCorrupt(kLoadFaultSite, bytes.view(), &corrupted)) {
    bytes = PinnedBytes::FromString(std::move(corrupted));
    injected = true;
  }
  Result<TileView> view = Status::Internal("tile not validated");
  {
    TraceSpan decode_span("tile_store.decode");
    view = TileView::Create(bytes.span());
    if (!view.ok()) decode_span.SetStatus(view.status().code());
  }
  if (!view.ok()) {
    span.SetStatus(view.status().code());
    // Corrupt bytes stay corrupt: remember the verdict so every later
    // load fails fast instead of re-running checksum and validation.
    if (view.status().code() == StatusCode::kDataLoss) {
      TraceSpan quarantine_span("tile_store.quarantine");
      quarantine_span.SetStatus(StatusCode::kDataLoss);
      Quarantine(key, gen);
    }
    return view.status();
  }
  PinnedTileView pinned{std::move(bytes), *view};
  if (!injected) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (mutation_gen_.load(std::memory_order_relaxed) == gen) {
      view_cache_.emplace(key, std::make_shared<const PinnedTileView>(pinned));
    }
  }
  return pinned;
}

Result<PinnedBytes> TileStore::RawTileBytes(const TileId& id) const {
  std::shared_lock<std::shared_mutex> lock(tiles_mu_);
  auto it = tiles_.find(id.Morton());
  if (it == tiles_.end()) {
    return Status::NotFound("tile (" + std::to_string(id.x) + "," +
                            std::to_string(id.y) + ")");
  }
  return it->second;
}

std::map<uint64_t, std::string> TileStore::RawTilesCopy() const {
  std::shared_lock<std::shared_mutex> lock(tiles_mu_);
  std::map<uint64_t, std::string> out;
  for (const auto& [key, blob] : tiles_) {
    out.emplace(key, std::string(blob.view()));
  }
  return out;
}

Result<std::vector<TileId>> TileStore::TileCoverage(const Aabb& box) const {
  std::vector<TileId> out;
  if (box.IsEmpty()) return out;
  auto range = TileRangeForBox(box);
  if (!range.ok()) {
    return Status::InvalidArgument("query " + range.status().message());
  }
  const TileId lo = range->first;
  const TileId hi = range->second;
  for (int32_t ty = lo.y; ty <= hi.y; ++ty) {
    for (int32_t tx = lo.x; tx <= hi.x; ++tx) {
      out.push_back(TileId{tx, ty});
    }
  }
  return out;
}

Result<std::vector<TileId>> TileStore::TilesInBox(const Aabb& box) const {
  std::vector<TileId> out;
  if (box.IsEmpty()) return out;
  auto range = TileRangeForBox(box);
  if (!range.ok()) {
    return Status::InvalidArgument("query " + range.status().message());
  }
  const TileId lo = range->first;
  const TileId hi = range->second;
  std::shared_lock<std::shared_mutex> lock(tiles_mu_);
  for (int32_t ty = lo.y; ty <= hi.y; ++ty) {
    for (int32_t tx = lo.x; tx <= hi.x; ++tx) {
      TileId t{tx, ty};
      if (tiles_.count(t.Morton()) > 0) out.push_back(t);
    }
  }
  return out;
}

std::vector<TileId> TileStore::AllTiles() const {
  std::shared_lock<std::shared_mutex> lock(tiles_mu_);
  std::vector<TileId> out;
  out.reserve(tile_ids_.size());
  for (const auto& [key, id] : tile_ids_) {
    (void)key;
    out.push_back(id);
  }
  return out;
}

Result<HdMap> TileStore::LoadRegion(const Aabb& box, RegionReport* report,
                                    size_t num_threads,
                                    RegionReadMode mode) const {
  HDMAP_ASSIGN_OR_RETURN(std::vector<TileId> tile_list, TilesInBox(box));
  return StitchTiles(tile_list, report, num_threads, mode);
}

Result<HdMap> TileStore::LoadAll(size_t num_threads) const {
  return StitchTiles(AllTiles(), nullptr, num_threads,
                     RegionReadMode::kStrict);
}

Result<HdMap> TileStore::StitchTiles(const std::vector<TileId>& tile_list,
                                     RegionReport* report,
                                     size_t num_threads,
                                     RegionReadMode mode) const {
  // Fan out: view (validating cold tiles) every tile concurrently. Each
  // task writes its own slot; stitching below is sequential in tile
  // order, so the stitched map is independent of thread timing.
  std::vector<Result<PinnedTileView>> views(
      tile_list.size(), Status::Internal("tile not loaded"));
  ParallelFor(
      tile_list.size(), [&](size_t i) { views[i] = GetTileView(tile_list[i]); },
      num_threads);

  TraceSpan stitch_span("tile_store.stitch");
  std::vector<TileId> corrupt_tiles;
  HdMap region;
  for (size_t i = 0; i < views.size(); ++i) {
    if (!views[i].ok()) {
      if (mode == RegionReadMode::kStrict) return views[i].status();
      // Degraded mode: the tile is already quarantined by GetTileView;
      // record it and keep stitching the survivors. (tile_list is in
      // Morton order, so this list is deterministic too.)
      corrupt_tiles.push_back(tile_list[i]);
      continue;
    }
    // Each element is materialized once, straight from the validated
    // view into the region; border duplicates already stitched from an
    // earlier tile are skipped by id before anything is built. Validation
    // guarantees every Add* below succeeds (unique ids, >= 2 centerline
    // points).
    const TileView& tile = views[i]->view;
    for (size_t j = 0; j < tile.num_landmarks(); ++j) {
      LandmarkView lm = tile.landmark(j);
      if (region.FindLandmark(lm.id()) == nullptr) {
        (void)region.AddLandmark(lm.Materialize());
      }
    }
    for (size_t j = 0; j < tile.num_line_features(); ++j) {
      LineFeatureView lf = tile.line_feature(j);
      if (region.FindLineFeature(lf.id()) == nullptr) {
        (void)region.AddLineFeature(lf.Materialize());
      }
    }
    for (size_t j = 0; j < tile.num_area_features(); ++j) {
      AreaFeatureView af = tile.area_feature(j);
      if (region.FindAreaFeature(af.id()) == nullptr) {
        (void)region.AddAreaFeature(af.Materialize());
      }
    }
    for (size_t j = 0; j < tile.num_lanelets(); ++j) {
      LaneletView ll = tile.lanelet(j);
      if (region.FindLanelet(ll.id()) == nullptr) {
        (void)region.AddLanelet(ll.Materialize());
      }
    }
    for (size_t j = 0; j < tile.num_regulatory_elements(); ++j) {
      RegulatoryElementView reg = tile.regulatory_element(j);
      if (region.FindRegulatoryElement(reg.id()) == nullptr) {
        (void)region.AddRegulatoryElement(reg.Materialize());
      }
    }
  }

  if (report != nullptr) {
    report->unresolved_regulatory_refs.clear();
    for (const auto& [id, reg] : region.regulatory_elements()) {
      for (ElementId ll_id : reg.lanelet_ids) {
        if (region.FindLanelet(ll_id) == nullptr) {
          report->unresolved_regulatory_refs.emplace_back(id, ll_id);
        }
      }
    }
    report->corrupt_tiles = std::move(corrupt_tiles);
  }
  return region;
}

size_t TileStore::NumQuarantined() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return quarantined_.size();
}

void TileStore::CacheErase(uint64_t key) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  // Invalidate any in-flight validation of the old bytes along with the
  // stored verdicts; new bytes get a fresh one.
  mutation_gen_.fetch_add(1, std::memory_order_release);
  quarantined_.erase(key);
  view_cache_.erase(key);
}

void TileStore::CacheClear() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  mutation_gen_.fetch_add(1, std::memory_order_release);
  quarantined_.clear();
  view_cache_.clear();
}

bool TileStore::IsQuarantined(uint64_t key) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return quarantined_.count(key) > 0;
}

void TileStore::Quarantine(uint64_t key, uint64_t gen) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  // Same staleness rule as the view cache: never quarantine bytes that
  // were replaced while this (failed) validation was in flight.
  if (mutation_gen_.load(std::memory_order_relaxed) != gen) return;
  quarantined_.insert(key);
}

}  // namespace hdmap
