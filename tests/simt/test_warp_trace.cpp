// Direct unit tests of the warp aggregator — lane accesses recorded by
// hand, so every grouping rule is pinned without a kernel in the loop.
#include "simt/warp_trace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace tcgpu::simt {
namespace {

GpuSpec unit_spec() {
  GpuSpec s = GpuSpec::v100();
  s.issue_cycles = 1.0;
  s.global_cycles_per_transaction = 10.0;
  s.l1_hit_cycles = 1.0;
  s.shared_cycles_per_access = 1.0;
  return s;
}

void push(WarpAggregator& agg, std::uint32_t l, std::uint64_t addr,
          std::uint32_t site, AccessKind kind, std::uint8_t size = 4) {
  agg.record(l, addr, site, kind, size);
}

TEST(WarpAggregator, EmptyFlushCostsNothing) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  KernelMetrics m;
  EXPECT_DOUBLE_EQ(agg.flush(m), 0.0);
  EXPECT_EQ(m.warp_steps, 0u);
}

TEST(WarpAggregator, SameSiteSameOccurrenceIsOneRequest) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (std::uint32_t l = 0; l < 32; ++l) {
    push(agg, l, l * 4, 7, AccessKind::kGlobalLoad);
  }
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 1u);
  EXPECT_EQ(m.global_load_transactions, 4u);  // 128 contiguous bytes
  EXPECT_EQ(m.warp_steps, 1u);
  EXPECT_EQ(m.active_lane_steps, 32u);
}

TEST(WarpAggregator, DifferentSitesAreSeparateRequests) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  push(agg, 0, 0, 1, AccessKind::kGlobalLoad);
  push(agg, 1, 4, 2, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 2u);
  EXPECT_EQ(m.warp_steps, 2u);
  EXPECT_EQ(m.active_lane_steps, 2u);
}

TEST(WarpAggregator, OccurrencesAlignInProgramOrder) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  // Two lanes, each issuing two loads at the same site: the first loads of
  // both lanes group, then the second loads.
  push(agg, 0, 0, 3, AccessKind::kGlobalLoad);
  push(agg, 0, 1024, 3, AccessKind::kGlobalLoad);
  push(agg, 1, 4, 3, AccessKind::kGlobalLoad);
  push(agg, 1, 1028, 3, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 2u);
  // Each aligned pair is contiguous -> one sector per request.
  EXPECT_EQ(m.global_load_transactions, 2u);
}

TEST(WarpAggregator, DivergentLaneCountsGiveMaxSteps) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (int k = 0; k < 5; ++k) {
    push(agg, 0, k * 4, 9, AccessKind::kGlobalLoad);
  }
  push(agg, 1, 0, 9, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.warp_steps, 5u);         // max lane occurrence count
  EXPECT_EQ(m.active_lane_steps, 6u);  // 5 + 1
}

TEST(WarpAggregator, ComputeStepsUseMaxAcrossLanes) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  agg.add_compute(0, 10);
  agg.add_compute(5, 4);
  KernelMetrics m;
  const double cycles = agg.flush(m);
  EXPECT_EQ(m.warp_steps, 10u);
  EXPECT_EQ(m.active_lane_steps, 14u);
  EXPECT_DOUBLE_EQ(cycles, 10.0);  // issue-only
}

TEST(WarpAggregator, CacheHitsAreCheaperThanMisses) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  KernelMetrics m;
  push(agg, 0, 0, 11, AccessKind::kGlobalLoad);
  const double miss_cycles = agg.flush(m);
  push(agg, 0, 0, 11, AccessKind::kGlobalLoad);
  const double hit_cycles = agg.flush(m);
  EXPECT_GT(miss_cycles, hit_cycles);
  EXPECT_EQ(m.global_dram_transactions, 1u);
  EXPECT_EQ(m.global_load_transactions, 2u);
}

TEST(WarpAggregator, ResetCacheForcesMissAgain) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  KernelMetrics m;
  push(agg, 0, 0, 13, AccessKind::kGlobalLoad);
  agg.flush(m);
  agg.reset_cache();
  push(agg, 0, 0, 13, AccessKind::kGlobalLoad);
  agg.flush(m);
  EXPECT_EQ(m.global_dram_transactions, 2u);
}

TEST(WarpAggregator, GenerationStampedResetIsSoundAcrossManyResets) {
  // The O(1) reset must behave exactly like a full invalidation every time:
  // the same sector misses once per generation, and entries installed in an
  // old generation are never read back as live.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  KernelMetrics m;
  for (int block = 0; block < 5; ++block) {
    agg.reset_cache();
    push(agg, 0, 0, 13, AccessKind::kGlobalLoad);
    agg.flush(m);
    push(agg, 0, 0, 13, AccessKind::kGlobalLoad);  // same generation: a hit
    agg.flush(m);
  }
  EXPECT_EQ(m.global_dram_transactions, 5u);
  EXPECT_EQ(m.global_load_transactions, 10u);
}

TEST(WarpAggregator, SharedConflictDegreeCharged) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  // Four lanes hit bank 0 at distinct words: offsets 0, 128, 256, 384.
  for (std::uint32_t l = 0; l < 4; ++l) {
    push(agg, l, l * 128, 17, AccessKind::kSharedLoad);
  }
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.shared_load_requests, 1u);
  EXPECT_EQ(m.shared_conflict_cycles, 3u);  // degree 4 => 3 replays
}

TEST(WarpAggregator, BroadcastSharedAccessIsConflictFree) {
  // All 32 lanes reading the same word broadcasts: degree 1, no replays.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (std::uint32_t l = 0; l < 32; ++l) {
    push(agg, l, 64, 18, AccessKind::kSharedLoad);
  }
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.shared_load_requests, 1u);
  EXPECT_EQ(m.shared_conflict_cycles, 0u);
}

TEST(WarpAggregator, MixedBroadcastAndConflictCountsDistinctWords) {
  // 8 lanes on word 0, 8 lanes on word 32 (same bank, different word),
  // 16 lanes on word 1 (another bank): bank 0 serves two distinct words.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (std::uint32_t l = 0; l < 8; ++l) push(agg, l, 0, 19, AccessKind::kSharedLoad);
  for (std::uint32_t l = 8; l < 16; ++l)
    push(agg, l, 32 * 4, 19, AccessKind::kSharedLoad);
  for (std::uint32_t l = 16; l < 32; ++l)
    push(agg, l, 4, 19, AccessKind::kSharedLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.shared_load_requests, 1u);
  EXPECT_EQ(m.shared_conflict_cycles, 1u);  // degree 2 on bank 0
}

TEST(WarpAggregator, StraddlingAccessTouchesBothSectors) {
  // An 8-byte load at byte 28 crosses the 32-byte sector boundary: nvprof
  // counts one transaction per touched sector.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  push(agg, 0, 28, 20, AccessKind::kGlobalLoad, 8);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 1u);
  EXPECT_EQ(m.global_load_transactions, 2u);
}

TEST(WarpAggregator, StraddlingGroupDedupsSharedSectors) {
  // Lanes 0..15 issue 8-byte loads at 16-byte stride: bytes [16k, 16k+8).
  // 256 bytes touched => 8 distinct sectors, each shared by two lanes.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (std::uint32_t l = 0; l < 16; ++l) {
    push(agg, l, l * 16, 21, AccessKind::kGlobalLoad, 8);
  }
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 1u);
  EXPECT_EQ(m.global_load_transactions, 8u);
}

TEST(WarpAggregator, ScatteredSectorsStillDedupExactly) {
  // Addresses spread far beyond the dedup bitmap's span (and duplicated):
  // the wide-span fallback must still count each distinct sector once.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  const std::uint64_t far = 1ull << 40;  // ~2^35 sectors away
  push(agg, 0, 0, 22, AccessKind::kGlobalLoad);
  push(agg, 1, far, 22, AccessKind::kGlobalLoad);
  push(agg, 2, 0, 22, AccessKind::kGlobalLoad);
  push(agg, 3, far + 4, 22, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 1u);
  EXPECT_EQ(m.global_load_transactions, 2u);
}

TEST(WarpAggregator, ConvergedInterleavedSitesGroupBySite) {
  // Every lane issues [site A, site B, site A], so every row is full and is
  // charged in place. Grouping must still be per (site, occurrence): 2
  // requests at A, 1 at B, and the A groups stay coalesced.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (std::uint32_t l = 0; l < 32; ++l) {
    push(agg, l, l * 4, 31, AccessKind::kGlobalLoad);
    push(agg, l, 4096 + l * 4, 33, AccessKind::kGlobalLoad);
    push(agg, l, 8192 + l * 4, 31, AccessKind::kGlobalLoad);
  }
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 3u);
  EXPECT_EQ(m.global_load_transactions, 12u);  // 3 groups x 4 sectors
  EXPECT_EQ(m.warp_steps, 3u);
  EXPECT_EQ(m.active_lane_steps, 96u);
}

TEST(WarpAggregator, ConvergedAndDivergentOrderingsAgree) {
  // The same logical warp once fully converged and once with one lane's
  // trailing access withheld (leaving a partial row to gather): request
  // totals match apart from the one missing lane-31 contribution.
  const GpuSpec spec = unit_spec();
  auto run = [&](bool withhold) {
    WarpAggregator agg(spec);
    KernelMetrics m;
    for (std::uint32_t l = 0; l < 32; ++l) {
      push(agg, l, l * 4, 41, AccessKind::kGlobalLoad);
      if (withhold && l == 31) continue;
      push(agg, l, 4096 + l * 4, 43, AccessKind::kGlobalLoad);
    }
    agg.flush(m);
    return m;
  };
  const KernelMetrics fast = run(false);
  const KernelMetrics sorted = run(true);
  EXPECT_EQ(fast.global_load_requests, 2u);
  EXPECT_EQ(sorted.global_load_requests, 2u);
  EXPECT_EQ(fast.warp_steps, sorted.warp_steps);
  EXPECT_EQ(fast.active_lane_steps, sorted.active_lane_steps + 1);
}

TEST(WarpAggregator, AtomicsCountedSeparately) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  push(agg, 0, 0, 19, AccessKind::kGlobalAtomic, 8);
  push(agg, 0, 64, 21, AccessKind::kSharedAtomic);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_atomic_requests, 1u);
  EXPECT_EQ(m.shared_atomic_requests, 1u);
  EXPECT_EQ(m.global_load_requests, 0u);
}

TEST(WarpAggregator, LanesAreClearedAfterFlush) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  push(agg, 0, 0, 23, AccessKind::kGlobalLoad);
  agg.add_compute(0, 3);
  EXPECT_FALSE(agg.empty());
  KernelMetrics m;
  agg.flush(m);
  EXPECT_TRUE(agg.empty());
  const std::uint64_t steps_before = m.warp_steps;
  agg.flush(m);  // nothing recorded since
  EXPECT_EQ(m.warp_steps, steps_before);
}

// Byte stride at which two sectors share a slot of the direct-mapped cache.
std::uint64_t alias_stride(const GpuSpec& spec) {
  return static_cast<std::uint64_t>(spec.l1_cache_sectors) * spec.sector_bytes;
}

TEST(WarpAggregator, PartialRowGathersLanesInAscendingOrder) {
  // Only lanes 3, 17 and 31 issue at the site: one instruction, 3 active
  // lanes. Lanes 3 and 17 touch colliding sectors, so the sector that
  // survives in the cache tells which lane the gather put last.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  const std::uint64_t stride = alias_stride(spec);
  push(agg, 3, 0, 51, AccessKind::kGlobalLoad);
  push(agg, 17, stride, 51, AccessKind::kGlobalLoad);
  push(agg, 31, 64, 51, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 1u);
  EXPECT_EQ(m.global_load_transactions, 3u);
  EXPECT_EQ(m.warp_steps, 1u);
  EXPECT_EQ(m.active_lane_steps, 3u);
  EXPECT_EQ(m.global_dram_transactions, 3u);
  // Lane 17's sector was installed after lane 3's and evicted it.
  push(agg, 0, stride, 51, AccessKind::kGlobalLoad);
  agg.flush(m);
  EXPECT_EQ(m.global_dram_transactions, 3u);  // hit
  push(agg, 0, 0, 51, AccessKind::kGlobalLoad);
  agg.flush(m);
  EXPECT_EQ(m.global_dram_transactions, 4u);  // miss
}

TEST(WarpAggregator, SitesAreChargedInCrossLaneFirstAppearanceOrder) {
  // Lane 0 issues only site B; lane 1 issues A, then B. B appeared first
  // (lane 0 records before lane 1), so B's group is charged before A's.
  // A's sector collides with B's: charged second, it is the one the cache
  // keeps, so re-reading it afterwards hits.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  const std::uint64_t stride = alias_stride(spec);
  constexpr std::uint32_t kSiteA = 61;
  constexpr std::uint32_t kSiteB = 63;
  push(agg, 0, 0, kSiteB, AccessKind::kGlobalLoad);
  push(agg, 1, stride, kSiteA, AccessKind::kGlobalLoad);
  push(agg, 1, 4, kSiteB, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 2u);
  EXPECT_EQ(m.global_dram_transactions, 2u);
  push(agg, 0, stride, kSiteA, AccessKind::kGlobalLoad);
  agg.flush(m);
  EXPECT_EQ(m.global_dram_transactions, 2u);  // A's sector survived: a hit
}

TEST(WarpAggregator, SiteRecordedWithTwoShapesInOneUnitThrows) {
  const GpuSpec spec = unit_spec();
  auto message = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return "";
  };
  {
    WarpAggregator agg(spec);
    push(agg, 0, 0, 71, AccessKind::kGlobalLoad, 4);
    const std::string what =
        message([&] { push(agg, 1, 0, 71, AccessKind::kGlobalLoad, 8); });
    EXPECT_NE(what.find("site 71"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
  {
    WarpAggregator agg(spec);
    push(agg, 0, 0, 73, AccessKind::kGlobalLoad);
    const std::string what =
        message([&] { push(agg, 0, 0, 73, AccessKind::kSharedLoad); });
    EXPECT_NE(what.find("site 73"), std::string::npos) << what;
  }
  {
    // The shape is per unit: a flush frees the site for another shape.
    WarpAggregator agg(spec);
    KernelMetrics m;
    push(agg, 0, 0, 75, AccessKind::kGlobalLoad, 4);
    agg.flush(m);
    push(agg, 0, 0, 75, AccessKind::kGlobalStore, 8);
    agg.flush(m);
    EXPECT_EQ(m.global_load_requests, 1u);
    EXPECT_EQ(m.global_store_requests, 1u);
  }
}

TEST(WarpAggregator, GroupsByLaneNotByRecordOrder) {
  // Lanes 3 and 1 each issue two loads at one site, lane 3 first. Each
  // occurrence still forms one 2-lane instruction, gathered in lane order:
  // lane 3's sector collides with lane 1's and, installed last, survives.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  const std::uint64_t stride = alias_stride(spec);
  push(agg, 3, 0, 81, AccessKind::kGlobalLoad);
  push(agg, 3, 64, 81, AccessKind::kGlobalLoad);
  push(agg, 1, stride, 81, AccessKind::kGlobalLoad);
  push(agg, 1, stride + 64, 81, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 2u);
  EXPECT_EQ(m.warp_steps, 2u);
  EXPECT_EQ(m.active_lane_steps, 4u);
  EXPECT_EQ(m.global_dram_transactions, 4u);
  push(agg, 0, 0, 81, AccessKind::kGlobalLoad);
  agg.flush(m);
  EXPECT_EQ(m.global_dram_transactions, 4u);  // lane 3's sector: a hit
}

TEST(WarpAggregator, RejectsWarpsOtherThan32Lanes) {
  GpuSpec spec = unit_spec();
  spec.warp_size = 64;
  EXPECT_THROW(WarpAggregator agg(spec), std::invalid_argument);
}

}  // namespace
}  // namespace tcgpu::simt
