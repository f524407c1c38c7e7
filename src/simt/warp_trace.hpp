// Warp-level aggregation of lane accesses into architectural events.
//
// Lanes of a warp are executed sequentially by the host. Real SIMT hardware
// executes them in lockstep, so the aggregator reconstructs warp-level
// instructions by aligning accesses across lanes on (call site, occurrence
// index): the k-th access a lane issues at a given program point lines up
// with the k-th access every other lane issues there. For the
// loop-trip-count divergence that dominates triangle-counting kernels this
// alignment is exact; lanes that ran out of work simply have no k-th
// occurrence and count as inactive — which is precisely what
// warp_execution_efficiency measures.
//
// Record-time binning. Alignment happens when an access is recorded, not
// after the fact. Each call site owns a row table — row k holds 32 address
// slots, one per lane — and a per-lane occurrence counter. Lane l's k-th
// access at the site is written straight to row k, slot l, so row k's lanes
// are exactly the lanes whose counter exceeds k. Tables are indexed by the
// global site id; a first-appearance list remembers which sites were opened
// in this unit, in the order they were first recorded, and flush() closes
// exactly those. The inline record path checks the site's shape, bumps one
// counter and stores one address; opening a site (zeroing its counters) and
// growing a table go through an out-of-line slow path.
//
// flush() charges the rows: sites in first-appearance order, rows in
// ascending k. A row that all 32 lanes reached is charged in place; any
// other row gathers its lanes' slots in ascending lane order.
//
// Contracts:
//   * Ascending-lane recording. Within one unit, lane l records all of its
//     accesses before lane l+1 records any (the launcher runs lanes 0..31 of
//     a warp one after another). Grouping does not depend on it, but the
//     charge order does: record order is then the lane-major scan order,
//     which fixes the site order of the flush — and with it the install
//     order of the stateful sector cache and the summation order of the
//     cycle cost.
//   * One access shape per site. Kind and size are stored once per site per
//     unit; recording the same site with another kind or size throws a
//     one-line std::logic_error naming the site id.
//   * Row memory. A site keeps as many rows as the largest per-lane
//     occurrence count it has reached in one unit (capacity is kept across
//     units), at 256 bytes per row. The bound per aggregator is 256 bytes x
//     the sum, over sites, of that maximum, plus 256 bytes of bookkeeping
//     per site id. The launcher builds one aggregator per host thread per
//     launch.
//
// Per aligned group the aggregator derives:
//   * global kinds — one request, plus one transaction per distinct
//     32-byte sector touched by the group's addresses (nvprof's definition);
//   * shared kinds — one request, plus bank-conflict degree: accesses that
//     hit the same 4-byte-interleaved bank at different word addresses
//     serialize (same-word access broadcasts);
//   * cycle cost via the GpuSpec weights.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "simt/event.hpp"
#include "simt/gpu_spec.hpp"
#include "simt/metrics.hpp"

namespace tcgpu::simt {

class WarpAggregator {
 public:
  /// Lanes per warp: one address slot per lane in every row.
  static constexpr std::uint32_t kLanes = 32;

  /// Throws std::invalid_argument unless spec.warp_size == kLanes.
  explicit WarpAggregator(const GpuSpec& spec);

  /// Bins lane `lane`'s next access at `site` into its warp instruction.
  /// Lanes record in ascending order within a unit (see the file comment).
  /// The inline part is the common case — a site already open in this unit
  /// with the same shape, and a free row for the lane — small enough to
  /// inline at every metered access; everything else goes through
  /// record_slow().
  void record(std::uint32_t lane, std::uint64_t addr, std::uint32_t site,
              AccessKind kind, std::uint8_t size) {
    if (site < sites_.size()) [[likely]] {
      SiteRows& s = sites_[site];
      const std::uint32_t k = s.next[lane];
      if (s.shape == shape_of(kind, size) && k < s.cap) [[likely]] {
        s.next[lane] = k + 1;
        s.rows[k][lane] = addr;
        return;
      }
    }
    record_slow(lane, addr, site, shape_of(kind, size));
  }

  /// Charges n pure-ALU steps to lane `lane` in the current unit.
  void add_compute(std::uint32_t lane, std::uint64_t n) { compute_[lane] += n; }

  /// True when nothing was recorded since the last flush.
  bool empty() const;

  /// Clears the SM sector cache. The launcher calls this when the simulated
  /// block it is executing moves to a fresh SM context, keeping cache state
  /// deterministic regardless of host-thread scheduling. O(1): entries are
  /// generation-stamped, so a reset is one counter bump — a slot is live
  /// only while its stamp matches the current generation.
  void reset_cache() {
    if (++cache_gen_ == 0) {  // stamp wrap: invalidate the slow way, once
      cache_.assign(cache_.size(), CacheEntry{});
      cache_gen_ = 1;
    }
  }

  /// Charges every recorded warp instruction into `m`, returns the modeled
  /// cycle cost of this unit, and starts a fresh unit. A unit with no
  /// accesses and no compute work costs nothing and adds no steps.
  double flush(KernelMetrics& m);

 private:
  /// One warp instruction's address slots, indexed by lane.
  using Row = std::array<std::uint64_t, kLanes>;

  /// One call site's row table for the current unit; 256 bytes, so
  /// indexing and bounds-checking by site id are shifts.
  struct alignas(256) SiteRows {
    std::uint16_t shape = kClosed;  ///< shape_of(kind, size) while open
    std::uint32_t cap = 0;          ///< == rows.size()
    std::vector<Row> rows;          ///< capacity kept across units
    std::array<std::uint32_t, kLanes> next{};  ///< per-lane occurrence counter
  };

  /// Kind and size in one word, so the record path checks that the site is
  /// open and keeps its access shape with one compare. No access has size
  /// 0, so kClosed matches no shape.
  static constexpr std::uint16_t shape_of(AccessKind kind, std::uint8_t size) {
    return static_cast<std::uint16_t>(static_cast<std::uint8_t>(kind) |
                                      size << 8);
  }
  static constexpr std::uint16_t kClosed = 0;

  struct CacheEntry {
    std::uint64_t tag = 0;   ///< sector id
    std::uint32_t gen = 0;   ///< live iff == cache_gen_
  };

  /// Stamped open-addressing dedup scratch for one aligned group (<= 64 live
  /// keys in 128 slots). "Clearing" between groups is a generation bump, so a
  /// group costs O(probes), never O(table).
  struct StampSet {
    std::array<std::uint64_t, 128> key{};
    std::array<std::uint32_t, 128> gen{};
    std::uint32_t cur = 0;
  };

  /// Every other record: grows the site table, opens a closed site (its
  /// first record in this unit: zeroes its counters, appends it to the
  /// first-appearance order) or adds a row, then stores the address. Throws
  /// a one-line std::logic_error naming the site on a shape change.
  void record_slow(std::uint32_t lane, std::uint64_t addr, std::uint32_t site,
                   std::uint16_t shape);

  /// Looks up `n` sector ids in the direct-mapped cache, installing misses.
  /// Returns the number of misses (DRAM transactions).
  std::uint32_t cache_access(const std::uint64_t* sectors, std::uint32_t n);

  /// Distinct 32-byte sectors of one aligned group, in first-appearance
  /// order (the order the stateful sector cache must see them in).
  std::uint32_t distinct_sectors(const std::uint64_t* addrs, std::uint32_t size,
                                 std::uint32_t n,
                                 std::array<std::uint64_t, 64>& out);

  /// Bank-conflict degree of one aligned shared-memory group.
  std::uint32_t conflict_degree(const std::uint64_t* addrs, std::uint32_t n);

  const GpuSpec* spec_;
  std::vector<SiteRows> sites_;         ///< indexed by global site id
  std::vector<std::uint32_t> order_;    ///< open site ids, first appearance
  std::array<std::uint64_t, kLanes> compute_{};
  std::vector<CacheEntry> cache_;
  std::uint32_t cache_gen_ = 0;
  StampSet sector_set_;  ///< scattered-group sector dedup
  StampSet word_set_;    ///< scattered-group shared-word dedup
};

}  // namespace tcgpu::simt
