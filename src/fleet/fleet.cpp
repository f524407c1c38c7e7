#include "fleet/fleet.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "framework/capacity.hpp"

namespace tcgpu::fleet {

namespace {

simt::ClusterSpec fleet_cluster(const Fleet::Config& cfg) {
  const std::uint32_t devices = std::max(1u, cfg.devices);
  const std::uint32_t hosts = std::max(1u, cfg.hosts);
  if (devices % hosts != 0) {
    throw std::invalid_argument(
        "Fleet: devices must be a positive multiple of hosts");
  }
  simt::ClusterSpec cs = simt::ClusterSpec::single_host(devices / hosts,
                                                        cfg.interconnect);
  cs.hosts = hosts;
  cs.inter = cfg.inter;
  return cs;
}

}  // namespace

Fleet::Fleet(framework::Engine& engine, Config cfg)
    : engine_(engine),
      cfg_(std::move(cfg)),
      cluster_(fleet_cluster(cfg_)),
      selector_(serve::Selector::Config{engine.config().spec, /*refine=*/false}),
      placer_(selector_,
              Placer::Config{cluster_, cfg_.max_shards, cfg_.strategy,
                             cfg_.shard_min_kernel_ms, cfg_.min_speedup}) {
  const std::uint64_t capacity =
      cfg_.device_capacity_bytes != 0
          ? cfg_.device_capacity_bytes
          : framework::device_budget_bytes(engine_.config().spec);
  slots_.resize(cluster_.num_devices());
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    slots_[i].id = i;
    slots_[i].capacity_bytes = capacity;
  }
}

Placement Fleet::placement_for(const serve::ExecutionRequest& req) {
  const auto key = std::make_pair(req.key, req.version);
  {
    std::lock_guard lk(mu_);
    const auto it = placements_.find(key);
    if (it != placements_.end()) return it->second;
  }
  // Latched on first decision per (graph, version) — like selector picks —
  // and computed from stats + config only (never load), so the table is
  // reproducible across worker counts and arrival orders.
  const Placement pl = placer_.decide(req.algorithm, req.modeled, req.graph->stats);
  std::lock_guard lk(mu_);
  return placements_.emplace(key, pl).first->second;
}

dist::MultiDeviceRunner& Fleet::runner_for(std::uint32_t shards) {
  std::lock_guard lk(mu_);
  auto& runner = runners_[shards];
  if (!runner) {
    // The placer only picks widths that have a layout, and prices them on
    // this same slice of the cluster.
    dist::MultiRunConfig rc;
    rc.cluster = cluster_.slice(shards).value();
    rc.strategy = cfg_.strategy;
    rc.measure_baseline = false;  // the serving path never pays an extra run
    runner = std::make_unique<dist::MultiDeviceRunner>(engine_, rc);
  }
  return *runner;
}

serve::ExecutionOutcome Fleet::run_single(const serve::ExecutionRequest& req) {
  std::uint32_t slot_id = 0;
  {
    // Bind to the slot already holding this graph's image (warm), else the
    // least-busy one (ties to the lowest id).
    std::lock_guard lk(mu_);
    const DeviceSlot* best = nullptr;
    for (const DeviceSlot& s : slots_) {
      if (s.holds(req.key)) {
        best = &s;
        break;
      }
    }
    if (best == nullptr) {
      for (const DeviceSlot& s : slots_) {
        if (best == nullptr || s.busy_ms < best->busy_ms) best = &s;
      }
    }
    slot_id = best->id;
  }

  serve::ExecutionOutcome out;
  out.run = engine_.run(req.algorithm, req.graph);

  std::lock_guard lk(mu_);
  DeviceSlot& slot = slots_[slot_id];
  // Residency is charged only for durable images — ones whose pooled name
  // IS the request key (registry datasets, streamed heads). One-shot graphs
  // (inline queries, version-pinned snapshots) release their upload when
  // their batch ends; charging them would leave the slot holding bytes the
  // engine already freed.
  if (req.graph->name == req.key) {
    const std::uint64_t bytes = engine_.device_image_bytes(req.graph);
    if (bytes != 0) slot.admit(req.key, bytes);
  }
  slot.busy_ms += out.run.result.total.time_ms;
  ++slot.runs;
  ++counters_.single_runs;
  return out;
}

serve::ExecutionOutcome Fleet::run_sharded(const serve::ExecutionRequest& req,
                                           const Placement& placement) {
  dist::MultiDeviceRunner& runner = runner_for(placement.shards);
  const dist::MultiRunResult mr = runner.run(req.algorithm, req.graph);
  // One-shot graphs (inline queries, version-pinned snapshots) are never
  // asked about again; their shard images go with the run.
  if (req.graph->name != req.key) runner.release(req.graph->name);

  serve::ExecutionOutcome out;
  out.run.algorithm = mr.algorithm;
  out.run.dataset = mr.dataset;
  out.run.result.triangles = mr.triangles;
  out.run.result.total = mr.combined;
  out.run.valid = mr.valid;
  out.sharded = true;
  out.devices = placement.shards;
  out.comm_ms = mr.comm_ms;

  // Charge each participating device its shard's kernel time. Binding picks
  // the least-busy slots (ties to the lowest id); it never feeds back into
  // placement, which is load-independent by contract.
  std::lock_guard lk(mu_);
  std::vector<std::uint32_t> order(slots_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return slots_[a].busy_ms < slots_[b].busy_ms;
                   });
  const std::size_t width =
      std::min<std::size_t>(mr.devices.size(), order.size());
  for (std::size_t i = 0; i < width; ++i) {
    DeviceSlot& slot = slots_[order[i]];
    slot.busy_ms += mr.devices[i].stats.time_ms;
    ++slot.runs;
  }
  ++counters_.sharded_runs;
  return out;
}

serve::ExecutionOutcome Fleet::execute(const serve::ExecutionRequest& req) {
  const Placement placement = placement_for(req);
  if (cfg_.result_cache) {
    ResultCache::Entry hit;
    if (cache_.lookup(req.key, req.version, req.hint, req.algorithm, &hit)) {
      serve::ExecutionOutcome out;
      out.cache_hit = true;
      out.run.algorithm = req.algorithm;
      out.run.dataset = req.graph ? req.graph->name : req.key;
      out.run.result.triangles = hit.triangles;
      out.run.valid = hit.valid;
      out.sharded = placement.sharded;
      out.devices = placement.shards;
      out.placement = placement.describe();
      std::lock_guard lk(mu_);
      ++counters_.cache_hits;
      return out;
    }
  }

  serve::ExecutionOutcome out =
      placement.sharded ? run_sharded(req, placement) : run_single(req);
  out.placement = placement.describe();
  if (cfg_.result_cache) {
    cache_.store(req.key, req.version, req.hint, req.algorithm,
                 ResultCache::Entry{out.run.result.triangles, out.run.valid});
  }
  return out;
}

void Fleet::invalidate(const std::string& key) {
  cache_.invalidate(key);
  std::vector<dist::MultiDeviceRunner*> runners;
  {
    std::lock_guard lk(mu_);
    ++counters_.invalidations;
    for (auto it = placements_.lower_bound(std::make_pair(key, std::uint64_t{0}));
         it != placements_.end() && it->first.first == key;) {
      it = placements_.erase(it);
    }
    for (DeviceSlot& s : slots_) s.drop(key);
    for (const auto& [width, runner] : runners_) runners.push_back(runner.get());
  }
  // Runners live as long as the fleet; their shard images are freed outside
  // the fleet lock so concurrent dispatch does not wait on it.
  for (dist::MultiDeviceRunner* runner : runners) runner->release(key);
}

std::vector<std::pair<std::string, std::string>> Fleet::placement_table()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  std::lock_guard lk(mu_);
  out.reserve(placements_.size());
  for (const auto& [key, placement] : placements_) {
    std::string label = key.first;
    if (key.second != 0) {
      label += "@v";
      label += std::to_string(key.second);
    }
    out.emplace_back(std::move(label), placement.describe());
  }
  return out;
}

std::vector<DeviceSlot> Fleet::slots() const {
  std::lock_guard lk(mu_);
  return slots_;
}

FleetCounters Fleet::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

std::map<std::uint32_t, std::size_t> Fleet::pooled_shard_sets() const {
  std::lock_guard lk(mu_);
  std::map<std::uint32_t, std::size_t> out;
  for (const auto& [width, runner] : runners_) {
    out[width] = runner->pooled_graphs();
  }
  return out;
}

}  // namespace tcgpu::fleet
