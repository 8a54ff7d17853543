#ifndef HDMAP_CORE_TILE_STORE_H_
#define HDMAP_CORE_TILE_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/hd_map.h"
#include "core/pinned_bytes.h"
#include "core/tile_view.h"

namespace hdmap {

/// Tile coordinate in a uniform square tiling of the plane.
struct TileId {
  int32_t x = 0;
  int32_t y = 0;

  /// Morton (Z-order) code; the storage key. Interleaves offset-biased
  /// coordinates so nearby tiles get nearby keys.
  uint64_t Morton() const;

  friend bool operator==(const TileId& a, const TileId& b) {
    return a.x == b.x && a.y == b.y;
  }
  friend bool operator<(const TileId& a, const TileId& b) {
    return a.Morton() < b.Morton();
  }
};

/// Post-stitch integrity findings from LoadRegion. A regulatory element is
/// stitched into the region whenever any tile carrying one of its lanelets
/// is loaded, so elements near the region boundary may reference lanelets
/// that lie outside the queried box; those references are reported here
/// rather than silently kept dangling.
struct RegionReport {
  /// (regulatory element id, unresolvable lanelet id) pairs.
  std::vector<std::pair<ElementId, ElementId>> unresolved_regulatory_refs;
  /// Tiles that failed validation and were quarantined out of the
  /// stitch (partial mode only; in strict mode the load fails instead).
  /// Sorted by Morton key, i.e. deterministic across thread counts.
  std::vector<TileId> corrupt_tiles;
};

/// How LoadRegion treats a tile that fails validation.
enum class RegionReadMode {
  /// Serve what survives: quarantine the corrupt tile (skip it, count it
  /// in RegionReport::corrupt_tiles, never retry it into the cache) and
  /// stitch the rest. The production default — one bad tile must not
  /// take down a whole region.
  kAllowPartial,
  /// Fail the whole load with the tile's validation error.
  kStrict,
};

/// Keyed collection of serialized map tiles (the unit of distribution and
/// incremental update in production HD-map services; enables the
/// partitioned update workloads of Pannen et al. [44] and Qi et al. [47]).
///
/// One tile format, one read path: every tile is stored as a framed v3
/// blob (core/tile_view.h), and every read goes through a validated
/// TileView. A tile's bytes are CRC-checked and structurally validated
/// once per payload generation; the resulting view is cached, so repeated
/// GetTileView/LoadTile/LoadRegion calls over a tile skip validation and
/// LoadRegion materializes each element straight from the views into the
/// stitched region. Build and LoadRegion fan work out across threads; the
/// serialized output of Build is byte-identical regardless of thread
/// count (element-to-tile assignment is sequential and deterministic,
/// only the per-tile encoding is parallel).
///
/// Corruption resilience: tile payloads travel inside a CRC32 frame
/// (core/wire_frame.h), so a truncated or bit-flipped blob fails
/// validation with kDataLoss instead of producing a silently wrong tile;
/// so do bytes that are not a v3 payload at all (e.g. a v1 blob ingested
/// through PutRawTile or a checkpoint). A failed tile is quarantined
/// (fail-fast on later loads, never cached) until its bytes are replaced;
/// LoadRegion can stitch around it (kAllowPartial).
///
/// Thread safety: concurrent const calls (LoadTile/LoadRegion/TilesInBox)
/// are safe with respect to the view cache and quarantine set. Per-tile
/// replacement (PutTile/PutRawTile) is additionally safe against
/// concurrent readers: blob access is guarded by a shared mutex, and a
/// store-wide mutation generation keeps a reader that raced an old blob
/// from installing a stale cached view or quarantine verdict over the new
/// bytes — the ingestion path can repair a quarantined tile while other
/// threads keep serving. Wholesale mutations (Build/RebuildTiles) and
/// copies still require external serialization against readers and other
/// writers.
class TileStore {
 public:
  /// Construction knobs. New knobs land here so signatures don't churn.
  struct Options {
    /// Edge length of one square tile, meters.
    double tile_size_m = 256.0;
    /// When set, validated-view cache hit/miss counters are exported
    /// through this registry ("tile_store.cache_hits/misses"; one lookup
    /// per tile read). Counters are cumulative across stores sharing a
    /// registry — copies of a store (e.g. successive MapSnapshot
    /// versions) keep feeding the same series. The registry must outlive
    /// the store.
    MetricsRegistry* metrics = nullptr;
    /// When set, every tile load passes through this injector at site
    /// "tile_store.load" (see common/fault_injection.h), so tests and
    /// benches can corrupt serialized tiles on demand with reproducible
    /// seeds. Must outlive the store; null disables injection.
    FaultInjector* fault_injector = nullptr;
  };

  /// FaultInjector site name instrumenting every cold tile read
  /// (GetTileView, LoadTile, LoadRegion, LoadAll).
  static constexpr const char* kLoadFaultSite = "tile_store.load";

  /// Any single box (element bounding box in Build, query box in
  /// TilesInBox/LoadRegion) may cover at most this many tiles; larger
  /// boxes — usually a degenerate Aabb from a bad sensor fix — are
  /// rejected with kInvalidArgument instead of exploding memory.
  static constexpr int64_t kMaxTilesPerBox = 1 << 16;

  TileStore() : TileStore(Options{}) {}
  explicit TileStore(const Options& options);

  /// Copies configuration, serialized tiles, the metrics binding and the
  /// validated-view cache; the quarantine set starts empty. This is the
  /// copy-on-write step of snapshot publishing: tile bytes are immutable
  /// and reference-counted (PinnedBytes), so the copy shares them without
  /// duplicating a byte, and a cached view stays valid over them — only
  /// tiles a later RebuildTiles/Put* replaces are validated again. Safe
  /// against concurrent readers of `other`, not against its writers.
  TileStore(const TileStore& other);
  TileStore& operator=(const TileStore& other);

  double tile_size() const { return tile_size_; }
  size_t NumTiles() const { return tiles_.size(); }

  /// Total serialized bytes across tiles.
  size_t TotalBytes() const;

  TileId TileAt(const Vec2& p) const;

  /// Splits `map` into tiles: each element is assigned to every tile its
  /// bounding box intersects (border elements are duplicated, as in
  /// production tiling; a regulatory element rides with *every* lanelet
  /// it references). Per-tile encoding is spread over `num_threads`
  /// threads (0 = hardware concurrency). Replaces previous content and
  /// drops the view cache. Fails with kInvalidArgument when an element's box
  /// covers more than kMaxTilesPerBox tiles.
  Status Build(const HdMap& map, size_t num_threads = 0);

  /// Re-derives only the given tiles from `map`, leaving every other
  /// tile's serialized bytes untouched: the incremental-update half of
  /// Build for a patch whose touched-tile set is known. A requested tile
  /// that ends up with no content is erased; every requested tile's cached
  /// view is invalidated. Postcondition: if `tiles` covers every tile
  /// whose content changed, the store is byte-identical to a full
  /// Build(map).
  Status RebuildTiles(const HdMap& map, const std::vector<TileId>& tiles,
                      size_t num_threads = 0);

  /// Replaces one tile's payload with the v3 encoding of `tile_map`
  /// and invalidates that tile's cached view and quarantine entry.
  void PutTile(const TileId& id, const HdMap& tile_map);

  /// Installs `bytes` verbatim as tile `id`'s payload — the ingestion
  /// path for tiles received over the wire from another store or service.
  /// Nothing is validated here; corruption (or a payload that is not v3)
  /// surfaces as kDataLoss when the tile is first read. Invalidates the
  /// tile's cached view and quarantine entry.
  void PutRawTile(const TileId& id, std::string bytes);

  /// Same as PutRawTile but zero-copy: `bytes` may be backed by an
  /// external owner (e.g. an mmap'd checkpoint), and the store pins it
  /// rather than copying it onto the heap.
  void PutPinnedTile(const TileId& id, PinnedBytes bytes);

  /// The tile materialized into a heap HdMap (GetTileView +
  /// TileView::Materialize); kNotFound for absent tiles.
  Result<HdMap> LoadTile(const TileId& id) const;

  /// Zero-copy read of one tile — the store's only tile read path:
  /// validates the framed bytes once per payload generation (CRC +
  /// structural pass, then cached) and returns in-place accessors over
  /// them — no allocation, no decode. The returned view stays valid for
  /// its own lifetime even if the tile is replaced or the store destroyed
  /// (the PinnedTileView holds the pin). kNotFound for absent tiles;
  /// kDataLoss, and quarantine, for corrupt or non-v3 ones.
  Result<PinnedTileView> GetTileView(const TileId& id) const;

  /// The tile's serialized framed bytes, pinned — the serve-verbatim
  /// path (a network reply can hold the span with no copy and no lock).
  /// kNotFound for absent tiles. Thread-safe against Put*.
  Result<PinnedBytes> RawTileBytes(const TileId& id) const;

  /// Every tile id in the tiling intersecting `box`, present in the store
  /// or not (the touched-tile enumeration for incremental updates).
  /// kInvalidArgument when the box covers more than kMaxTilesPerBox tiles.
  Result<std::vector<TileId>> TileCoverage(const Aabb& box) const;

  /// Tile ids intersecting the query box (present tiles only).
  /// kInvalidArgument when the box covers more than kMaxTilesPerBox tiles.
  Result<std::vector<TileId>> TilesInBox(const Aabb& box) const;

  /// Every tile id present in the store, in Morton order.
  std::vector<TileId> AllTiles() const;

  /// Loads and stitches all tiles intersecting `box` into one map
  /// (duplicated border elements are materialized once, from the first
  /// tile in Morton order that carries them). Tile views are fetched and
  /// validated concurrently on `num_threads` threads (0 = hardware
  /// concurrency); stitching is sequential in tile order, so the result
  /// is deterministic. When `report` is non-null it receives post-stitch
  /// referential-integrity findings and the quarantined-tile list (see
  /// RegionReport). `mode` selects degraded-mode behaviour for tiles
  /// that fail validation: kAllowPartial (default) stitches the
  /// survivors and reports the corrupt tiles, kStrict fails the load.
  Result<HdMap> LoadRegion(
      const Aabb& box, RegionReport* report = nullptr,
      size_t num_threads = 0,
      RegionReadMode mode = RegionReadMode::kAllowPartial) const;

  /// Loads and stitches every tile in the store — the recovery path's
  /// whole-map read, with no query box and hence no kMaxTilesPerBox cap.
  /// Always strict: any tile failing validation fails the whole
  /// load (a recovered snapshot must be fully intact before it serves).
  Result<HdMap> LoadAll(size_t num_threads = 0) const;

  /// Tiles currently quarantined after a failed validation. A
  /// quarantined tile is reported instead of retried until its bytes are
  /// replaced (Build/RebuildTiles/PutTile/PutRawTile).
  size_t NumQuarantined() const;

  /// Copy of every serialized blob, keyed by Morton code — byte-equality
  /// checks in tests/benches and other whole-store sweeps. Thread-safe
  /// (unlike the raw_tiles() reference accessor it replaces); prefer
  /// RawTileBytes for single tiles — it pins instead of copying.
  std::map<uint64_t, std::string> RawTilesCopy() const;

 private:
  /// Validated [lo, hi] tile range covered by `box`. Computes the tile
  /// indices in floating point first, rejecting coordinates whose tile
  /// index is not representable as int32 (the double->int32 cast in a
  /// plain TileAt call would be UB for e.g. a bad sensor fix at 1e18 m)
  /// and boxes spanning more than kMaxTilesPerBox tiles — each axis is
  /// checked before the spans are multiplied, so the product cannot
  /// overflow.
  Result<std::pair<TileId, TileId>> TileRangeForBox(const Aabb& box) const;

  /// The deterministic element->tile assignment phase of Build. When
  /// `only` is non-null, assignment is restricted to those Morton keys
  /// (the RebuildTiles path). Fails with kInvalidArgument on an oversized
  /// element box.
  Status AssignTiles(const HdMap& map,
                     const std::map<uint64_t, TileId>* only,
                     std::map<uint64_t, HdMap>* tile_maps,
                     std::map<uint64_t, TileId>* ids) const;

  /// Views `tile_list` concurrently and materializes the survivors into
  /// one region in tile order (deterministic): the shared body of
  /// LoadRegion and LoadAll.
  Result<HdMap> StitchTiles(const std::vector<TileId>& tile_list,
                            RegionReport* report, size_t num_threads,
                            RegionReadMode mode) const;

  /// Quarantines a tile whose validation failed at mutation generation
  /// `gen`; dropped when a Put* replaced the bytes since, so a racing
  /// reader cannot poison the new payload's state with the old payload's
  /// verdict (GetTileView applies the same rule to cached views).
  void Quarantine(uint64_t key, uint64_t gen) const;
  /// The body of both copy operations (see the copy constructor).
  void CopyFrom(const TileStore& other);
  /// Drops one tile's derived read state: cached view and quarantine.
  void CacheErase(uint64_t key);
  /// Drops all derived read state: view cache and quarantine set.
  void CacheClear();
  bool IsQuarantined(uint64_t key) const;

  double tile_size_;
  // Blob map, guarded by tiles_mu_ for per-tile replacement vs reads
  // (wholesale Build/assignment still needs external serialization).
  // Blobs are immutable PinnedBytes: replacing a tile swaps the map
  // entry while readers holding the old pin keep a valid buffer.
  mutable std::shared_mutex tiles_mu_;
  std::map<uint64_t, PinnedBytes> tiles_;   // Morton key -> framed blob.
  std::map<uint64_t, TileId> tile_ids_;     // Morton key -> coordinates.
  // Bumped (under cache_mu_) by every mutation that replaces tile bytes;
  // lets in-flight loads detect that their verdict is stale.
  mutable std::atomic<uint64_t> mutation_gen_{0};

  mutable std::mutex cache_mu_;

  // Tiles whose payload failed validation, keyed by Morton code; guarded
  // by cache_mu_ (set during const loads, hence mutable).
  mutable std::set<uint64_t> quarantined_;

  // Validated-once views, keyed by Morton code; guarded by cache_mu_ and
  // invalidated by CacheErase/CacheClear. Entries are small (a pin plus
  // section pointers) and bounded by the tile count, so no eviction. The
  // pinned bytes are the store's own blobs — pinning them costs nothing
  // extra. Entries are immutable and shared, so a store copy (one per
  // publish, plus any a caller keeps per version) costs a pointer per
  // cached tile rather than a copy of each view.
  mutable std::unordered_map<uint64_t, std::shared_ptr<const PinnedTileView>>
      view_cache_;

  // Optional registry export of the view-cache counters (null when
  // unbound).
  Counter* hits_exported_ = nullptr;
  Counter* misses_exported_ = nullptr;

  // Optional fault-injection seam for tile loads (null when disabled).
  FaultInjector* faults_ = nullptr;
};

}  // namespace hdmap

#endif  // HDMAP_CORE_TILE_STORE_H_
