// Cluster behavior of MultiDeviceRunner: the one-host comm goldens, count
// exactness across topologies, the ordering of the four (aggregation,
// overlap) pricings, and the config plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "dist/runner.hpp"
#include "framework/runner.hpp"
#include "simt/gpu_spec.hpp"

namespace tcgpu::dist {
namespace {

framework::Engine::Config small_config() {
  framework::Engine::Config cfg;
  cfg.max_edges = 2000;
  cfg.workers = 1;
  return cfg;
}

/// A 2-hosts x 2-devices config over NVLink within / `inter` between.
MultiRunConfig cluster_config(PartitionStrategy strategy,
                              const simt::InterconnectSpec& inter) {
  MultiRunConfig cfg;
  cfg.cluster = simt::ClusterSpec::single_host(2);
  cfg.cluster.hosts = 2;
  cfg.cluster.inter = inter;
  cfg.strategy = strategy;
  return cfg;
}

TEST(ClusterRunner, HostsMustDivideDevices) {
  // A ClusterSpec divides its devices over its hosts by construction; what
  // is left to reject is an empty shape.
  framework::Engine engine(small_config());
  MultiRunConfig cfg;
  cfg.cluster = simt::ClusterSpec::ethernet(0, 4);
  EXPECT_THROW(MultiDeviceRunner(engine, cfg), std::invalid_argument);
  cfg.cluster = simt::ClusterSpec::ethernet(2, 0);
  EXPECT_THROW(MultiDeviceRunner(engine, cfg), std::invalid_argument);
}

TEST(ClusterRunner, ForClusterMirrorsTheSpec) {
  // A runner configured for a cluster shards over exactly its devices and
  // reports its shape.
  framework::Engine engine(small_config());
  const auto spec = simt::ClusterSpec::ethernet(2, 4);
  MultiDeviceRunner runner(engine, {spec, PartitionStrategy::kHostAware});
  EXPECT_EQ(runner.config().cluster.num_devices(), 8u);
  const MultiRunResult r = runner.run("Polak", engine.prepare("As-Caida"));
  EXPECT_EQ(r.num_devices, 8u);
  EXPECT_EQ(r.hosts, 2u);
  EXPECT_EQ(r.strategy, PartitionStrategy::kHostAware);
  EXPECT_EQ(r.devices.size(), 8u);
  EXPECT_EQ(r.partition.num_devices, 8u);
  EXPECT_TRUE(r.valid);
}

/// Expects `actual` within a relative 1e-12 of `golden`.
void expect_near_rel(double actual, double golden, const std::string& what) {
  EXPECT_NEAR(actual, golden, 1e-12 * golden) << what;
}

TEST(ClusterRunner, SingleHostCommMatchesPinnedGoldens) {
  // As-Caida (2000-edge cap) / Polak on one NVLink host of four devices.
  // The goldens come from the per-device flat model this path replaced:
  // bytes and messages exactly (every peer pair carries far less than one
  // flush buffer, so each pair is one buffered message), times to a relative
  // 1e-12 (the scatter now sums per pair, which reorders the rounding).
  // sync_ms is that model's whole-run time, device + scatter + reduce.
  struct Golden {
    PartitionStrategy strategy;
    double kernel_ms, device_ms;
    simt::TransferStats ghost, reduce;
    double comm_ms, sync_ms;
  };
  const simt::TransferStats reduce{48, 6, 0.0076012800000000002};
  const Golden goldens[] = {
      {PartitionStrategy::kRange, 0.023686956521739133, 0.0060253623188405801,
       {9840, 6, 0.005839679999999999}, reduce, 0.013440959999999998,
       0.01946632231884058},
      {PartitionStrategy::kHash, 0.02509710144927536, 0.0063144927536231878,
       {11068, 12, 0.0058158399999999992}, reduce, 0.013417119999999999,
       0.019731612753623187},
      {PartitionStrategy::k2D, 0.023884782608695653, 0.00703768115942029,
       {21912, 8, 0.0060260799999999996}, reduce, 0.01362736,
       0.020665041159420292},
      {PartitionStrategy::kHostAware, 0.02509710144927536,
       0.0063144927536231878, {11068, 12, 0.0058158399999999992}, reduce,
       0.013417119999999999, 0.019731612753623187},
  };
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  for (const Golden& g : goldens) {
    const std::string s = to_string(g.strategy);
    MultiDeviceRunner runner(
        engine, {simt::ClusterSpec::single_host(4), g.strategy});
    const MultiRunResult r = runner.run("Polak", graph);
    EXPECT_EQ(r.hosts, 1u) << s;
    EXPECT_EQ(r.triangles, 1261u) << s;
    expect_near_rel(r.combined.time_ms, g.kernel_ms, s + " kernel");
    expect_near_rel(r.device_ms, g.device_ms, s + " device");
    EXPECT_EQ(r.ghost_exchange.bytes, g.ghost.bytes) << s;
    EXPECT_EQ(r.ghost_exchange.messages, g.ghost.messages) << s;
    expect_near_rel(r.ghost_exchange.time_ms, g.ghost.time_ms, s + " ghost");
    EXPECT_EQ(r.count_reduce.bytes, g.reduce.bytes) << s;
    EXPECT_EQ(r.count_reduce.messages, g.reduce.messages) << s;
    expect_near_rel(r.count_reduce.time_ms, g.reduce.time_ms, s + " reduce");
    expect_near_rel(r.comm_ms, g.comm_ms, s + " comm");
    expect_near_rel(r.agg_sync_ms, g.sync_ms, s + " agg_sync");
    // One host: nothing crosses a network, and the reported time is the
    // pipelined combination.
    EXPECT_EQ(r.inter_exchange, simt::TransferStats{}) << s;
    EXPECT_EQ(r.intra_exchange, r.ghost_exchange) << s;
    EXPECT_DOUBLE_EQ(r.total_ms, r.agg_overlap_ms) << s;
  }
}

TEST(ClusterRunner, CountsStayExactAcrossTopologies) {
  // The comm model only prices time; the count must equal the CPU reference
  // on every topology and strategy.
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  for (const auto& inter :
       {simt::InterconnectSpec::eth10g(), simt::InterconnectSpec::ib_edr()}) {
    for (const auto s : all_partition_strategies()) {
      MultiDeviceRunner runner(engine, cluster_config(s, inter));
      const MultiRunResult r = runner.run("TRUST", graph);
      EXPECT_TRUE(r.valid) << to_string(s) << " over " << inter.name;
      EXPECT_EQ(r.triangles, graph->reference_triangles);
      EXPECT_EQ(r.hosts, 2u);
    }
  }
}

TEST(ClusterRunner, PricesAllFourCombosInOrder) {
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  MultiDeviceRunner runner(
      engine,
      cluster_config(PartitionStrategy::kHostAware,
                     simt::InterconnectSpec::eth10g()));
  const MultiRunResult r = runner.run("Polak", graph);

  // Aggregation can only drop messages; overlap can only hide time. The
  // full pipeline is the fastest corner, the flat synchronous baseline the
  // slowest; both come from this one run.
  EXPECT_GT(r.flat_sync_ms, 0.0);
  EXPECT_LE(r.agg_sync_ms, r.flat_sync_ms);
  EXPECT_LE(r.flat_overlap_ms, r.flat_sync_ms);
  EXPECT_LE(r.agg_overlap_ms, r.agg_sync_ms);
  EXPECT_LE(r.agg_overlap_ms, r.flat_overlap_ms);
  // A ghost row is far smaller than the flush buffer, so per-row messaging
  // on a slow link must strictly lose to the buffered scatter.
  EXPECT_LT(r.agg_sync_ms, r.flat_sync_ms);
  // Overlapped shards still finish no earlier than compute alone.
  EXPECT_GE(r.agg_overlap_ms, r.device_ms);

  // total_ms reports the pipelined combination.
  EXPECT_DOUBLE_EQ(r.total_ms, r.agg_overlap_ms);
}

TEST(ClusterRunner, AggregationShrinksMessagesNotBytes) {
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  const MultiRunResult r =
      MultiDeviceRunner(engine, cluster_config(PartitionStrategy::kHostAware,
                                               simt::InterconnectSpec::eth10g()))
          .run("Polak", graph);

  // Buffering coalesces per-row updates into bounded flushes: the per-row
  // scatter sends one message per ghost row, the buffered one far fewer,
  // and pays for them.
  EXPECT_GT(r.ghost_exchange.bytes, 0u);
  EXPECT_LT(r.ghost_exchange.messages, r.partition.ghost_vertices);
  EXPECT_LT(r.agg_sync_ms, r.flat_sync_ms);
}

TEST(ClusterRunner, SplitsExchangeByLinkLevel) {
  framework::Engine engine(small_config());
  const auto graph = engine.prepare("As-Caida");
  MultiDeviceRunner runner(
      engine,
      cluster_config(PartitionStrategy::kHostAware,
                     simt::InterconnectSpec::eth10g()));
  const MultiRunResult r = runner.run("Polak", graph);

  EXPECT_EQ(r.intra_exchange.bytes + r.inter_exchange.bytes,
            r.ghost_exchange.bytes);
  EXPECT_EQ(r.intra_exchange.messages + r.inter_exchange.messages,
            r.ghost_exchange.messages);
  // As-Caida sharded four ways ghosts rows in both directions on both
  // levels.
  EXPECT_GT(r.intra_exchange.bytes, 0u);
  EXPECT_GT(r.inter_exchange.bytes, 0u);
  // Per-shard receive time is populated for the overlap race.
  double max_recv = 0.0;
  for (const DeviceRun& d : r.devices) max_recv = std::max(max_recv, d.recv_ms);
  EXPECT_GT(max_recv, 0.0);
}

}  // namespace
}  // namespace tcgpu::dist
