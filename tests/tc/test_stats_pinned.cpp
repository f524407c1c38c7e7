// Bit-identical KernelStats regression gates on a fixed R-MAT graph.
//
// OneKernelPerFamilyBitIdentical is the tc/intersect/ library's porting
// contract: composing a kernel from the shared policies leaves its per-lane
// event sequence — and therefore every simulated counter — exactly as the
// pre-library kernel produced it. Those seeds pin counters only.
//
// The EveryKernel/StreamDelta/Support gates pin the simulator itself: every
// launch of every registered kernel, one stream::DynamicGraph::commit delta
// launch and the tc::support launch, with all 14 KernelMetrics fields and
// time_ms to the last bit (hexfloat). Any change to how the warp aggregator
// groups lane events into warp instructions, walks the sector cache or sums
// cycles shows up here as an exact row mismatch; the failure message prints
// the actual row in table syntax.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "framework/registry.hpp"
#include "framework/runner.hpp"
#include "gen/rmat.hpp"
#include "stream/churn.hpp"
#include "stream/dynamic_graph.hpp"
#include "tc/support.hpp"

namespace tcgpu::tc {
namespace {

struct PinnedMetrics {
  const char* algorithm;  // one per Table I intersection family
  const char* launch;
  std::uint64_t gld_req, gld_tx, gst_req, gst_tx, gatom_req, gatom_tx, dram;
  std::uint64_t sld_req, sst_req, satom_req, conflict;
  std::uint64_t warp_steps, lane_steps, warps;
};

// Captured on rmat(scale=11, edges=15000, seed=77), GpuSpec::v100(),
// default kernel configs, one fresh Device per kernel (DRAM sector counts
// depend on cache state, so each kernel is pinned cold); the graph counts
// 80612 triangles.
constexpr PinnedMetrics kPinned[] = {
    {"Polak", "polak_merge",  // Merge family
     35255, 321769, 0, 0, 461, 461, 30827, 0, 0, 0, 0, 35716, 645209, 640},
    {"GroupTC", "grouptc_chunk",  // Bin-Search family
     45375, 225870, 0, 0, 464, 464, 31283, 125319, 6608, 0, 2788, 177766,
     5579159, 640},
    {"TRUST", "trust_warp",  // Hash family
     63322, 108886, 1, 1, 1168, 1168, 36450, 19911, 4020, 1371, 8051, 100997,
     2861400, 1328},
    {"Bisson", "bisson_warp",  // BitMap family
     116786, 395043, 1648, 2925, 2816, 4093, 34010, 0, 0, 0, 0, 121250,
     1024482, 640},
};

TEST(StatsPinned, OneKernelPerFamilyBitIdentical) {
  gen::RmatParams p;
  p.scale = 11;
  p.edges = 15'000;
  const auto pg = framework::prepare_graph("rmat_pin", gen::generate_rmat(p, 77));
  const simt::GpuSpec spec = simt::GpuSpec::v100();

  for (const auto& pin : kPinned) {
    simt::Device dev;  // fresh device: every kernel is pinned on a cold cache
    const DeviceGraph g = DeviceGraph::upload(dev, pg.dag);
    const auto algo = framework::make_algorithm(pin.algorithm);
    const AlgoResult r = algo->count(dev, spec, g);
    EXPECT_EQ(r.triangles, 80'612u) << pin.algorithm;

    const simt::KernelMetrics* m = nullptr;
    for (const auto& [name, stats] : r.launches) {
      if (name == pin.launch) m = &stats.metrics;
    }
    ASSERT_NE(m, nullptr) << pin.algorithm << " lost launch " << pin.launch;

    EXPECT_EQ(m->global_load_requests, pin.gld_req) << pin.algorithm;
    EXPECT_EQ(m->global_load_transactions, pin.gld_tx) << pin.algorithm;
    EXPECT_EQ(m->global_store_requests, pin.gst_req) << pin.algorithm;
    EXPECT_EQ(m->global_store_transactions, pin.gst_tx) << pin.algorithm;
    EXPECT_EQ(m->global_atomic_requests, pin.gatom_req) << pin.algorithm;
    EXPECT_EQ(m->global_atomic_transactions, pin.gatom_tx) << pin.algorithm;
    EXPECT_EQ(m->global_dram_transactions, pin.dram) << pin.algorithm;
    EXPECT_EQ(m->shared_load_requests, pin.sld_req) << pin.algorithm;
    EXPECT_EQ(m->shared_store_requests, pin.sst_req) << pin.algorithm;
    EXPECT_EQ(m->shared_atomic_requests, pin.satom_req) << pin.algorithm;
    EXPECT_EQ(m->shared_conflict_cycles, pin.conflict) << pin.algorithm;
    EXPECT_EQ(m->warp_steps, pin.warp_steps) << pin.algorithm;
    EXPECT_EQ(m->active_lane_steps, pin.lane_steps) << pin.algorithm;
    EXPECT_EQ(m->warps_launched, pin.warps) << pin.algorithm;
  }
}

// One launch: its name, all 14 KernelMetrics fields in declaration order,
// and time_ms.
struct LaunchPin {
  const char* owner;  // algorithm name, "stream-delta" or "support"
  const char* launch;
  std::uint64_t f[14];
  double time_ms;
};

std::array<std::uint64_t, 14> fields_of(const simt::KernelMetrics& m) {
  return {m.global_load_requests,      m.global_load_transactions,
          m.global_store_requests,     m.global_store_transactions,
          m.global_atomic_requests,    m.global_atomic_transactions,
          m.global_dram_transactions,  m.shared_load_requests,
          m.shared_store_requests,     m.shared_atomic_requests,
          m.shared_conflict_cycles,    m.warp_steps,
          m.active_lane_steps,         m.warps_launched};
}

/// A launch as a kLaunchPins row, so a deliberate re-pin is a copy.
std::string row_of(const std::string& owner, const std::string& launch,
                   const std::uint64_t* f, double time_ms) {
  std::string row = "{\"" + owner + "\", \"" + launch + "\", {";
  for (std::size_t i = 0; i < 14; ++i) {
    row += (i ? ", " : "") + std::to_string(f[i]);
  }
  char t[64];
  std::snprintf(t, sizeof t, "%a", time_ms);
  return row + "}, " + t + "},";
}

// Captured on the rmat(scale=11, edges=15000, seed=77) graph below,
// GpuSpec::v100(), default configs, one fresh Device per kernel.
constexpr LaunchPin kLaunchPins[] = {
    {"Green", "green_merge_path", {189853, 343888, 0, 0, 12629, 12629, 65385, 0, 0, 0, 0, 202482, 4670704, 15008}, 0x1.238d55f3612b9p-6},
    {"Polak", "polak_merge", {35255, 321769, 0, 0, 461, 461, 30827, 0, 0, 0, 0, 35716, 645209, 640}, 0x1.a85e8d63a0b63p-7},
    {"Bisson", "bisson_warp", {116786, 395043, 1648, 2925, 2816, 4093, 34010, 0, 0, 0, 0, 121250, 1024482, 640}, 0x1.05ccb90b52056p-6},
    {"TriCore", "tricore_binsearch", {158277, 243839, 0, 0, 12629, 12629, 72009, 23494, 4438, 0, 0, 198838, 4345999, 15000}, 0x1.1e570f8f11b22p-6},
    {"Fox", "fox_bin0", {93, 1332, 0, 0, 5, 5, 770, 0, 0, 0, 0, 98, 2692, 640}, 0x1.0965a566b6f16p-7},
    {"Fox", "fox_bin1", {2182, 15624, 0, 0, 113, 113, 5574, 0, 0, 0, 0, 2295, 52642, 640}, 0x1.bfbbfe995b4b2p-8},
    {"Fox", "fox_bin2", {16881, 83094, 0, 0, 689, 689, 17412, 0, 0, 0, 0, 17570, 413937, 696}, 0x1.0866573407f46p-7},
    {"Fox", "fox_bin3", {47354, 188466, 0, 0, 1666, 1666, 34169, 0, 0, 0, 0, 49020, 1251015, 1672}, 0x1.6fc901ba39bc6p-7},
    {"Hu", "hu_fine_grained", {423109, 469302, 0, 0, 5897, 5897, 64172, 41941, 1648, 0, 204, 536715, 16752578, 12832}, 0x1.5daaf52179731p-6},
    {"H-INDEX", "hindex_warp", {213294, 282188, 19, 19, 12629, 12629, 74322, 42438, 44642, 14661, 10321, 360962, 8464911, 15000}, 0x1.0e7a7cfb3ebd7p-5},
    {"TRUST", "trust_warp", {63322, 108886, 1, 1, 1168, 1168, 36450, 19911, 4020, 1371, 8051, 100997, 2861400, 1328}, 0x1.a09ad12229bb5p-7},
    {"GroupTC", "grouptc_chunk", {45375, 225870, 0, 0, 464, 464, 31283, 125319, 6608, 0, 2788, 177766, 5579159, 640}, 0x1.04d074eb86a3cp-6},
    {"GroupTC-H", "grouptc_hash_chunk", {25016, 119318, 0, 0, 464, 464, 31271, 168293, 35656, 461, 217701, 245774, 6818936, 640}, 0x1.727af07a0c868p-6},
    {"MergePath", "mergepath_warp", {348608, 859753, 0, 0, 12629, 12629, 73834, 0, 0, 0, 0, 361237, 8255205, 15000}, 0x1.9fed92ed7c21fp-6},
    {"BSR", "bsr_warp", {40232, 147252, 0, 0, 1168, 1168, 25003, 0, 0, 0, 0, 46406, 541322, 1608}, 0x1.2b7ea9502e415p-7},
    {"BFS-LA", "bfsla_block", {105593, 524894, 0, 0, 1199, 1199, 60577, 47673, 1648, 0, 0, 156113, 2649223, 12832}, 0x1.fdf2313c2ffd1p-7},
    {"CMerge", "cmerge_thread", {9366, 150055, 0, 0, 43, 43, 3039, 0, 0, 0, 0, 33864, 750963, 640}, 0x1.2efcfd864b9dap-4},
    {"CStage", "cstage_block", {73482, 164769, 0, 0, 1199, 1199, 53500, 17244, 15000, 0, 0, 158006, 2227064, 12832}, 0x1.60c744766a7bfp-7},
    {"stream-delta", "wedge_delta", {7666, 41037, 191, 706, 0, 0, 3095, 0, 0, 0, 0, 7857, 42773, 640}, 0x1.a3117b71a62f6p-5},
    {"support", "edge_support", {45375, 225870, 0, 0, 12393, 123175, 48580, 134295, 7080, 0, 2788, 199143, 6109093, 640}, 0x1.1412c840ba8a4p-4},
};

/// Checks `launches` (in order) against the pins recorded for `owner`.
void expect_pinned(const std::string& owner,
                   const std::vector<std::pair<std::string, simt::KernelStats>>& launches) {
  std::vector<const LaunchPin*> pins;
  for (const auto& p : kLaunchPins) {
    if (owner == p.owner) pins.push_back(&p);
  }
  EXPECT_EQ(launches.size(), pins.size()) << owner;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    const auto& [name, stats] = launches[i];
    const auto f = fields_of(stats.metrics);
    const std::string actual = row_of(owner, name, f.data(), stats.time_ms);
    if (i >= pins.size()) {
      ADD_FAILURE() << "unpinned launch: " << actual;
      continue;
    }
    const LaunchPin& p = *pins[i];
    const bool same = name == p.launch &&
                      std::equal(f.begin(), f.end(), std::begin(p.f)) &&
                      stats.time_ms == p.time_ms;
    EXPECT_TRUE(same) << "pinned: " << row_of(p.owner, p.launch, p.f, p.time_ms)
                      << "\n actual: " << actual;
  }
}

framework::PreparedGraph pinned_graph() {
  gen::RmatParams p;
  p.scale = 11;
  p.edges = 15'000;
  return framework::prepare_graph("rmat_pin", gen::generate_rmat(p, 77));
}

TEST(StatsPinned, EveryKernelLaunchBitIdentical) {
  const auto pg = pinned_graph();
  const simt::GpuSpec spec = simt::GpuSpec::v100();
  for (const auto& entry : framework::extended_algorithms()) {
    simt::Device dev;  // cold cache per kernel, as the goldens were taken
    const DeviceGraph g = DeviceGraph::upload(dev, pg.dag);
    const AlgoResult r = entry.make()->count(dev, spec, g);
    EXPECT_EQ(r.triangles, 80'612u) << entry.name;
    expect_pinned(entry.name, r.launches);
  }
}

TEST(StatsPinned, StreamDeltaLaunchBitIdentical) {
  const auto pg = pinned_graph();
  stream::DynamicGraph dyn(pg.dag);
  stream::ChurnGenerator churn(2024);
  const auto ops = churn.next_batch(*dyn.snapshot(), 256);
  const auto cr = dyn.commit(ops);
  ASSERT_TRUE(cr.changed);
  expect_pinned("stream-delta", {{"wedge_delta", cr.stats}});
}

TEST(StatsPinned, SupportLaunchBitIdentical) {
  const auto pg = pinned_graph();
  simt::Device dev;
  const DeviceGraph g = DeviceGraph::upload(dev, pg.dag);
  auto support = dev.alloc<std::uint32_t>(g.num_edges, "support");
  const SupportResult r =
      count_edge_support(dev, simt::GpuSpec::v100(), g, support);
  EXPECT_EQ(r.triangles, 80'612u);
  expect_pinned("support", {{"edge_support", r.stats}});
}

}  // namespace
}  // namespace tcgpu::tc
