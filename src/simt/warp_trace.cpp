#include "simt/warp_trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

namespace tcgpu::simt {
namespace {

/// Starts a fresh generation in a stamped dedup set: one counter bump, with
/// a full invalidation only on the (rare) 32-bit wrap.
template <class Set>
void stamp_begin(Set& set) {
  if (++set.cur == 0) {
    set.gen.fill(0);
    set.cur = 1;
  }
}

/// Returns true iff `k` was already recorded this generation; records it
/// otherwise. At most 64 live keys in 128 slots, so probes stay short.
template <class Set>
bool seen_before(Set& set, std::uint64_t k) {
  auto slot = static_cast<std::uint32_t>((k * 0x9E3779B97F4A7C15ull) >> 57);
  for (;; slot = (slot + 1) & 127u) {
    if (set.gen[slot] != set.cur) {
      set.gen[slot] = set.cur;
      set.key[slot] = k;
      return false;
    }
    if (set.key[slot] == k) return true;
  }
}

/// Collects the distinct sectors of one aligned group into `out`, in
/// first-appearance order. Order matters: the caller feeds the sectors
/// through a stateful direct-mapped cache, so a different install order
/// would change which colliding sector survives and thereby the DRAM
/// transaction counts of later groups. Single pass; membership is one
/// stamped-set probe. Same drop-when-full cap as the monotone path: once
/// `out` is full nothing is ever emitted again, so the cap check can
/// short-circuit the probe without changing the result.
template <class SectorOf, class Set>
std::uint32_t distinct_sectors_scattered(const std::uint64_t* addrs,
                                         std::uint32_t size, std::uint32_t n,
                                         std::array<std::uint64_t, 64>& out,
                                         SectorOf sector_of, Set& set) {
  stamp_begin(set);
  std::uint32_t count = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    // A single access can straddle sectors; cover its full byte range.
    const std::uint64_t first = sector_of(addrs[i]);
    const std::uint64_t last = sector_of(addrs[i] + size - 1);
    for (std::uint64_t s = first; s <= last; ++s) {
      if (count < out.size() && !seen_before(set, s)) out[count++] = s;
    }
  }
  return count;
}

/// Single-pass variant for groups whose addresses are non-decreasing across
/// lanes (every coalesced access pattern). First-appearance order is then
/// simply ascending sector order, so dedup is a comparison against the last
/// emitted sector: all of [first_i, prev] was already emitted because
/// addr_i >= addr_{i-1} implies first_i >= first_{i-1} and the previous
/// access emitted through prev. Returns false (without touching `count`
/// semantics) when the addresses turn out not to be monotone.
template <class SectorOf>
bool distinct_sectors_monotone(const std::uint64_t* addrs, std::uint32_t size,
                               std::uint32_t n, std::array<std::uint64_t, 64>& out,
                               SectorOf sector_of, std::uint32_t& count_out) {
  std::uint32_t count = 0;
  std::uint64_t prev_addr = 0;
  std::uint64_t prev = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t a = addrs[i];
    if (i != 0 && a < prev_addr) return false;
    prev_addr = a;
    const std::uint64_t first = sector_of(a);
    const std::uint64_t last = sector_of(a + size - 1);
    std::uint64_t s = i == 0 ? first : std::max(first, prev + 1);
    for (; s <= last; ++s) {
      // Same drop-when-full cap as the generic paths: overflow sectors are
      // discarded, never retried.
      if (count < out.size()) out[count++] = s;
    }
    prev = last;  // same size per group, so last_i >= last_{i-1}
  }
  count_out = count;
  return true;
}

}  // namespace

std::uint32_t WarpAggregator::distinct_sectors(const std::uint64_t* addrs,
                                               std::uint32_t size, std::uint32_t n,
                                               std::array<std::uint64_t, 64>& out) {
  // Every GpuSpec preset uses a power-of-two sector; a shift keeps the
  // per-lane divide off the critical path (this runs once per lane per
  // group, the hottest arithmetic in the simulator).
  const std::uint32_t sector_bytes = spec_->sector_bytes;
  if (std::has_single_bit(sector_bytes)) {
    const std::uint32_t shift = std::countr_zero(sector_bytes);
    const auto sector_of = [shift](std::uint64_t a) { return a >> shift; };
    std::uint32_t count = 0;
    if (distinct_sectors_monotone(addrs, size, n, out, sector_of, count)) {
      return count;
    }
    return distinct_sectors_scattered(addrs, size, n, out, sector_of, sector_set_);
  }
  const auto sector_of = [sector_bytes](std::uint64_t a) { return a / sector_bytes; };
  std::uint32_t count = 0;
  if (distinct_sectors_monotone(addrs, size, n, out, sector_of, count)) {
    return count;
  }
  return distinct_sectors_scattered(addrs, size, n, out, sector_of, sector_set_);
}

/// Bank-conflict degree of one aligned shared-memory group: the maximum,
/// over banks, of the number of *distinct words* accessed in that bank.
/// 1 means conflict-free (or broadcast); d means the access replays d times.
/// The degree depends only on the set of words (order-independent), so the
/// dedup is a stamped-set probe per lane — no sort, even for the scattered
/// word patterns of the hash-probe kernels.
std::uint32_t WarpAggregator::conflict_degree(const std::uint64_t* addrs,
                                              std::uint32_t n) {
  const std::uint32_t banks = spec_->shared_banks;
  const std::uint32_t m = std::min<std::uint32_t>(n, 64);
  std::array<std::uint8_t, 64> per_bank{};  // banks <= 64 for every GpuSpec preset
  const bool pow2 = std::has_single_bit(banks);
  const std::uint64_t mask = banks - 1;  // valid only when pow2
  std::uint32_t worst = 1;
  stamp_begin(word_set_);
  std::uint64_t prev = 0;
  bool have_prev = false;
  for (std::uint32_t i = 0; i < m; ++i) {
    const std::uint64_t w = addrs[i] >> 2;
    // Broadcast runs (all lanes reading one word) are common; skip the probe.
    if (have_prev && w == prev) continue;
    prev = w;
    have_prev = true;
    if (seen_before(word_set_, w)) continue;
    const std::uint32_t bank =
        static_cast<std::uint32_t>(pow2 ? (w & mask) : (w % banks));
    per_bank[bank]++;
    worst = std::max<std::uint32_t>(worst, per_bank[bank]);
  }
  return worst;
}

WarpAggregator::WarpAggregator(const GpuSpec& spec)
    : spec_(&spec), cache_(spec.l1_cache_sectors) {
  if (spec.warp_size != kLanes) {
    throw std::invalid_argument("WarpAggregator: warp_size must be 32");
  }
  reset_cache();
}

void WarpAggregator::record_slow(std::uint32_t lane, std::uint64_t addr,
                                 std::uint32_t site, std::uint16_t shape) {
  if (site >= sites_.size()) sites_.resize(site + 1);
  SiteRows& s = sites_[site];
  if (s.shape == kClosed) {
    s.shape = shape;
    s.next.fill(0);
    order_.push_back(site);
  } else if (s.shape != shape) {
    auto describe = [](std::uint16_t sh) {
      return "kind " + std::to_string(sh & 0xFFu) + " size " +
             std::to_string(sh >> 8);
    };
    throw std::logic_error(
        "WarpAggregator: site " + std::to_string(site) + " recorded as " +
        describe(s.shape) + " and as " + describe(shape) +
        " in one unit; give each access shape its own call site");
  }
  const std::uint32_t k = s.next[lane]++;
  if (k == s.cap) {
    s.rows.emplace_back();
    ++s.cap;
  }
  s.rows[k][lane] = addr;
}

bool WarpAggregator::empty() const {
  return order_.empty() &&
         std::all_of(compute_.begin(), compute_.end(),
                     [](std::uint64_t c) { return c == 0; });
}

std::uint32_t WarpAggregator::cache_access(const std::uint64_t* sectors,
                                           std::uint32_t n) {
  std::uint32_t misses = 0;
  const std::uint32_t mask = spec_->l1_cache_sectors - 1;
  const std::uint32_t gen = cache_gen_;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t s = sectors[i];
    CacheEntry& e = cache_[static_cast<std::uint32_t>(s) & mask];
    if (e.gen != gen || e.tag != s) {
      e.tag = s;
      e.gen = gen;
      ++misses;
    }
  }
  return misses;
}

// Rows are charged sites-by-first-appearance, occurrences ascending, each
// group's addresses in ascending lane order. The stateful sector cache and
// the floating-point cycle accumulator see exactly this sequence, so it is
// part of every KernelStats value (tests/tc/test_stats_pinned.cpp).
double WarpAggregator::flush(KernelMetrics& m) {
  const GpuSpec& spec = *spec_;

  std::uint64_t max_compute = 0;
  std::uint64_t sum_compute = 0;
  for (std::uint64_t& c : compute_) {
    max_compute = std::max(max_compute, c);
    sum_compute += c;
    c = 0;
  }
  if (order_.empty() && sum_compute == 0) return 0.0;

  std::uint64_t steps = max_compute;
  std::uint64_t active = sum_compute;
  double cycles = static_cast<double>(max_compute) * spec.issue_cycles;

  std::array<std::uint64_t, 64> sectors;
  // Charges one aligned group of n accesses (addrs[0..n) in lane order).
  auto charge = [&](const std::uint64_t* addrs, std::uint32_t n, AccessKind kind,
                    std::uint8_t size) {
    steps += 1;
    active += n;
    cycles += spec.issue_cycles;
    auto global_cost = [&]() {
      const std::uint32_t tx = distinct_sectors(addrs, size, n, sectors);
      const std::uint32_t misses = cache_access(sectors.data(), tx);
      m.global_dram_transactions += misses;
      cycles += misses * spec.global_cycles_per_transaction +
                (tx - misses) * spec.l1_hit_cycles;
      return tx;
    };
    switch (kind) {
      case AccessKind::kGlobalLoad: {
        const std::uint32_t tx = global_cost();
        m.global_load_requests += 1;
        m.global_load_transactions += tx;
        break;
      }
      case AccessKind::kGlobalStore: {
        const std::uint32_t tx = global_cost();
        m.global_store_requests += 1;
        m.global_store_transactions += tx;
        break;
      }
      case AccessKind::kGlobalAtomic: {
        const std::uint32_t tx = global_cost();
        m.global_atomic_requests += 1;
        m.global_atomic_transactions += tx;
        cycles += n * spec.atomic_extra_cycles;
        break;
      }
      case AccessKind::kSharedLoad: {
        const std::uint32_t deg = conflict_degree(addrs, n);
        m.shared_load_requests += 1;
        m.shared_conflict_cycles += deg - 1;
        cycles += deg * spec.shared_cycles_per_access;
        break;
      }
      case AccessKind::kSharedStore: {
        const std::uint32_t deg = conflict_degree(addrs, n);
        m.shared_store_requests += 1;
        m.shared_conflict_cycles += deg - 1;
        cycles += deg * spec.shared_cycles_per_access;
        break;
      }
      case AccessKind::kSharedAtomic: {
        const std::uint32_t deg = conflict_degree(addrs, n);
        m.shared_atomic_requests += 1;
        m.shared_conflict_cycles += deg - 1;
        cycles +=
            deg * spec.shared_cycles_per_access + n * spec.atomic_extra_cycles;
        break;
      }
    }
  };

  std::array<std::uint64_t, kLanes> gathered;
  std::array<std::uint32_t, kLanes> act;  // lanes still holding row k
  for (const std::uint32_t site : order_) {
    SiteRows& s = sites_[site];
    const auto kind = static_cast<AccessKind>(s.shape & 0xFFu);
    const auto size = static_cast<std::uint8_t>(s.shape >> 8);
    s.shape = kClosed;
    const std::array<std::uint32_t, kLanes>& count = s.next;
    std::uint32_t lanes = 0;  // lanes that recorded here
    for (std::uint32_t l = 0; l < kLanes; ++l) {
      lanes |= static_cast<std::uint32_t>(count[l] != 0) << l;
    }
    // Row k's lanes are the lanes whose count exceeds k. Rows [k, end)
    // share one lane set: every active lane reaches row end - 1 and at
    // least one stops there. Only while all 32 lanes are active is a row
    // full, and then it is charged in place.
    std::uint32_t k = 0;
    std::uint32_t n = 0;
    if (lanes == ~0u) {
      std::uint32_t end = count[0];
      for (std::uint32_t l = 1; l < kLanes; ++l) end = std::min(end, count[l]);
      for (; k < end; ++k) charge(s.rows[k].data(), kLanes, kind, size);
      for (std::uint32_t l = 0; l < kLanes; ++l) {
        if (count[l] > end) act[n++] = l;
      }
    } else {
      for (std::uint32_t b = lanes; b != 0; b &= b - 1) {
        act[n++] = static_cast<std::uint32_t>(std::countr_zero(b));
      }
    }
    while (n != 0) {
      std::uint32_t end = count[act[0]];
      for (std::uint32_t i = 1; i < n; ++i) end = std::min(end, count[act[i]]);
      for (; k < end; ++k) {
        const Row& row = s.rows[k];
        for (std::uint32_t i = 0; i < n; ++i) gathered[i] = row[act[i]];
        charge(gathered.data(), n, kind, size);
      }
      std::uint32_t keep = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (count[act[i]] > end) act[keep++] = act[i];
      }
      n = keep;
    }
  }

  order_.clear();
  m.warp_steps += steps;
  m.active_lane_steps += active;
  return cycles;
}

}  // namespace tcgpu::simt
