// serve: the fleet serving stack under two closed-loop clients.
//
// Set-up starts a fleet::FleetService over four modeled devices on one host
// (2 dispatchers, 2 service workers, 1 OpenMP thread, 100k edge cap),
// generates the cold inline graphs, and warms the result cache with one
// read of every named dataset. A pass runs two fixed client lists
// concurrently; the unit operation is one query, submit to reply:
//
//   reader: hot reads of As-Caida, Email-EuAll and Soc-Pokec (result-cache
//           hits) between cold reads of the inline graphs, each the full
//           prepare -> select -> upload -> kernel -> release path;
//   writer: a hot read of Com-Orkut, then insert -> read -> remove -> read
//           cycles, once on Wiki-Talk and three times on Com-Orkut (sharded across
//           the four devices). No other client touches these two datasets.
//
// Every pass leaves the graphs as it found them, so every pass asks the
// same questions. The cold graphs are resent with their edge list rotated
// by the pass number: the same graph, a new content hash, so each cold read
// misses the result cache yet produces identical simulator stats. Selector
// refinement is off so the picks of re-versioned graphs cannot drift from
// pass to pass.
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "fleet/service.hpp"
#include "gen/paper_datasets.hpp"
#include "gen/rng.hpp"
#include "graph/cpu_reference.hpp"
#include "graph/prepare.hpp"

namespace perfbench {
namespace {

using namespace tcgpu;

constexpr std::uint64_t kEdgeCap = 100'000;
constexpr std::uint32_t kDevices = 4;
constexpr std::size_t kColdGraphs = 14;
constexpr std::uint64_t kColdEdges = 40'000;
constexpr std::size_t kWriteEdges = 16;
constexpr auto kPolicy = graph::OrientationPolicy::kByDegree;

enum Class { kHot, kCold, kWrite, kRead, kClasses };
const char* const kClassNames[kClasses] = {"hot", "cold", "write", "read"};

struct Op {
  Class cls = kHot;
  std::string dataset;       ///< named dataset; empty for cold reads
  std::size_t cold = 0;      ///< cold graph index
  bool insert = true;        ///< writes: insert or remove the write batch
  std::uint64_t expect = 0;  ///< count (reads) or triangle delta (writes)
};

/// A dataset the writer mutates: its base count, the edges it inserts and
/// removes again, and the count while they are present.
struct WriteTarget {
  std::string dataset;
  std::uint64_t base = 0;
  std::uint64_t with_batch = 0;
  std::vector<graph::Edge> batch;
};

graph::PreparedDag prepare_named(const std::string& name, std::uint64_t seed) {
  return graph::prepare_dag(
      gen::generate_dataset(gen::dataset_by_name(name), kEdgeCap, seed), kPolicy);
}

bool has_edge(const graph::Csr& dag, graph::VertexId u, graph::VertexId v) {
  const auto row = dag.neighbors(std::min(u, v));
  return std::binary_search(row.begin(), row.end(), std::max(u, v));
}

/// Wedge-closing insert batch: u -> w -> v paths whose u-v edge is absent,
/// so every insert adds triangles. Endpoints are in the served id space.
std::vector<graph::Edge> pick_batch(const graph::Csr& dag, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<graph::Edge> batch;
  while (batch.size() < kWriteEdges) {
    const auto u = static_cast<graph::VertexId>(rng.uniform(dag.num_vertices()));
    const auto nu = dag.neighbors(u);
    if (nu.empty()) continue;
    const graph::VertexId w = nu[rng.uniform(nu.size())];
    const auto nw = dag.neighbors(w);
    if (nw.empty()) continue;
    const graph::VertexId v = nw[rng.uniform(nw.size())];
    if (has_edge(dag, u, v)) continue;
    const graph::Edge e{u, v};
    if (std::find(batch.begin(), batch.end(), e) != batch.end()) continue;
    batch.push_back(e);
  }
  return batch;
}

class Serve final : public Workload {
 public:
  explicit Serve(std::uint64_t seed) : seed_(seed) {}

  ~Serve() override { teardown(); }

  void prepare_expectations() override {
    for (const char* name : {"As-Caida", "Email-EuAll", "Soc-Pokec", "Com-Orkut"}) {
      hot_expect_[name] = graph::count_triangles_stamped(prepare_named(name, seed_).dag);
    }
    for (const char* name : {"Wiki-Talk", "Com-Orkut"}) {
      WriteTarget t;
      t.dataset = name;
      const auto pd = prepare_named(name, seed_);
      t.base = graph::count_triangles_stamped(pd.dag);
      t.batch = pick_batch(pd.dag, seed_ ^ std::hash<std::string>{}(name));
      graph::Coo with;
      with.num_vertices = pd.dag.num_vertices();
      for (graph::VertexId u = 0; u < pd.dag.num_vertices(); ++u) {
        for (const graph::VertexId v : pd.dag.neighbors(u)) with.edges.push_back({u, v});
      }
      with.edges.insert(with.edges.end(), t.batch.begin(), t.batch.end());
      t.with_batch = graph::count_triangles_stamped(
          graph::prepare_dag(std::move(with), graph::OrientationPolicy::kById).dag);
      targets_.push_back(std::move(t));
    }
    // The cold graphs themselves are generated in set-up; their counts are
    // taken from an independent prepare of the same seeded inputs.
    for (std::size_t i = 0; i < kColdGraphs; ++i) {
      cold_expect_.push_back(graph::count_triangles_stamped(
          graph::prepare_dag(cold_graph(i), kPolicy).dag));
    }

    // Reader: a hot read after every few cold reads.
    const char* hot[] = {"As-Caida", "Email-EuAll", "Soc-Pokec"};
    for (std::size_t i = 0; i < kColdGraphs; ++i) {
      if (i % 5 == 0) reader_.push_back({kHot, hot[i / 5], 0, true, hot_expect_[hot[i / 5]]});
      reader_.push_back({kCold, "", i, true, cold_expect_[i]});
    }
    // Writer: one insert/remove cycle on Wiki-Talk, three on Com-Orkut, so
    // the six sharded reads are the slowest 18% of the mix and the 90th
    // percentile falls near their middle rather than on the edge between
    // two classes.
    writer_.push_back({kHot, "Com-Orkut", 0, true, hot_expect_["Com-Orkut"]});
    for (const std::size_t t : {0, 1, 1, 1}) {
      const WriteTarget& w = targets_[t];
      writer_.push_back({kWrite, w.dataset, 0, true, w.with_batch - w.base});
      writer_.push_back({kRead, w.dataset, 0, true, w.with_batch});
      writer_.push_back({kWrite, w.dataset, 0, false, w.with_batch - w.base});
      writer_.push_back({kRead, w.dataset, 0, true, w.base});
    }
  }

  void setup(Tracer& tr) override {
    teardown();
    {
      Scope s(tr, "gen.generate");
      cold_.clear();
      for (std::size_t i = 0; i < kColdGraphs; ++i) cold_.push_back(cold_graph(i));
    }
    framework::Engine::Config ec;
    ec.max_edges = kEdgeCap;
    ec.seed = seed_;
    ec.policy = kPolicy;
    ec.workers = 1;
    engine_ = std::make_unique<framework::Engine>(ec);
    fleet::Fleet::Config fc;
    fc.devices = kDevices;
    fleet_ = std::make_unique<fleet::Fleet>(*engine_, fc);
    fleet::FleetService::Config sc;
    sc.dispatchers = 2;
    sc.service.workers = 2;
    sc.service.refine = false;
    service_ = std::make_unique<fleet::FleetService>(*engine_, *fleet_, sc);
    for (const char* name :
         {"As-Caida", "Email-EuAll", "Soc-Pokec", "Com-Orkut", "Wiki-Talk"}) {
      serve::QueryRequest req;
      req.dataset = name;
      const auto reply = service_->submit(std::move(req)).get();
      if (reply.status != serve::QueryStatus::kOk) {
        throw std::runtime_error(std::string("serve warm-up read of ") + name +
                                 " failed: " + reply.error);
      }
    }
  }

  PassRecord run_pass(Tracer& tr, bool /*warmup*/) override {
    const std::uint64_t invalidations0 = fleet_->counters().invalidations;
    const std::uint64_t uploaded0 = engine_->counters().bytes_uploaded;
    const std::size_t rotation = ++passes_;
    PassRecord rec;
    std::vector<ClientResult> results(2);
    {
      std::thread reader([&] { results[0] = run_client(tr, reader_, rotation, 1); });
      std::thread writer([&] { results[1] = run_client(tr, writer_, rotation, 1001); });
      reader.join();
      writer.join();
    }
    for (const ClientResult& r : results) {
      rec.op_ms.insert(rec.op_ms.end(), r.op_ms.begin(), r.op_ms.end());
      rec.fingerprint.insert(rec.fingerprint.end(), r.stats.begin(), r.stats.end());
      rec.attempted += r.op_ms.size();
      rec.failed += r.failed;
      rec.modeled_ms += r.modeled_ms;
    }
    tr.count("fleet.invalidations",
             static_cast<double>(fleet_->counters().invalidations - invalidations0));
    tr.count("tc.device_bytes",
             static_cast<double>(engine_->counters().bytes_uploaded - uploaded0));
    return rec;
  }

  LayerValues layers(const Tracer& tr, std::size_t setups,
                     std::size_t traced_passes) const override {
    LayerValues out;
    const double per_pass = 1.0 / static_cast<double>(traced_passes);
    out["gen.generate_ms"] =
        at(tr.self_ms(false), "gen.generate") / static_cast<double>(setups);
    {
      std::lock_guard lk(mu_);
      for (int c = 0; c < kClasses; ++c) {
        for (int s = 0; s < kStages; ++s) {
          out[std::string("serve.") + kStageNames[s] + "_ms." + kClassNames[c]] =
              median(stage_ms_[c][s]);
        }
      }
      out["fleet.sched_wait_ms"] = median(sched_wait_ms_);
      out["dist.run_ms"] = median(dist_run_ms_);
    }
    out["fleet.cache_hit_frac"] =
        ratio(tr.counter("fleet.cache_hits", true), tr.counter("serve.queries", true));
    out["fleet.sharded_runs"] = tr.counter("fleet.sharded_runs", true) * per_pass;
    out["fleet.invalidations"] = tr.counter("fleet.invalidations", true) * per_pass;
    out["dist.comm_ms"] = tr.counter("dist.comm_ms", true) * per_pass;
    out["dist.shard_kernel_ms"] = tr.counter("dist.shard_kernel_ms", true) * per_pass;
    out["tc.device_bytes"] = tr.counter("tc.device_bytes", true) * per_pass;
    out["tc.upload_ms"] = probe_cold_upload_ms();
    add_simt_layers(tr, traced_passes, out);
    const auto sc = service_->service().counters();
    out["serve.batched_frac"] =
        ratio(static_cast<double>(sc.batched), static_cast<double>(sc.submitted));
    add_engine_layers(engine_->counters(), out);
    return out;
  }

  int setup_repetitions() const override { return 5; }

  std::uint64_t ops_per_pass() const override {
    return reader_.size() + writer_.size();
  }

  std::string describe() const override {
    return "serve: FleetService, " + std::to_string(kDevices) +
           " modeled devices, 2 clients / 2 dispatchers / 2 workers, cap " +
           std::to_string(kEdgeCap) + " edges, " + std::to_string(reader_.size()) +
           " reader + " + std::to_string(writer_.size()) + " writer queries per pass";
  }

 private:
  enum Stage { kQueue, kPrepare, kSelect, kRun, kStages };
  static constexpr const char* kStageNames[kStages] = {"queue", "prepare",
                                                       "select", "run"};

  struct ClientResult {
    std::vector<double> op_ms;
    std::vector<simt::KernelStats> stats;
    std::uint64_t failed = 0;
    double modeled_ms = 0.0;
  };

  /// Host ms a pass spends uploading its cold graphs. The service does not
  /// report upload time, so after the traced passes each cold graph is
  /// uploaded again on a scratch Engine with the kernel the service picked
  /// for it: run wall time minus kernel host time, median of three uploads.
  double probe_cold_upload_ms() const {
    std::map<std::size_t, std::string> picks;
    {
      std::lock_guard lk(mu_);
      picks = cold_picks_;
    }
    framework::Engine::Config ec;
    ec.max_edges = kEdgeCap;
    ec.seed = seed_;
    ec.policy = kPolicy;
    framework::Engine probe(ec);
    double total = 0.0;
    for (const auto& [i, algorithm] : picks) {
      const auto graph = probe.prepare_raw("cold" + std::to_string(i), cold_[i]);
      std::vector<double> upload_ms;
      for (int r = 0; r < 3; ++r) {
        const auto t0 = Clock::now();
        const auto out = probe.run(algorithm, graph);
        upload_ms.push_back(ms_between(t0, Clock::now()) - out.host_seconds * 1e3);
        probe.release_device(graph);
      }
      total += median(upload_ms);
    }
    return total;
  }

  /// Cold inline graph i: a small seeded stand-in of one paper dataset.
  graph::Coo cold_graph(std::size_t i) const {
    const auto specs = gen::paper_datasets();
    return gen::generate_dataset(specs[(3 * i) % specs.size()], kColdEdges,
                                 seed_ * 31 + i);
  }

  serve::QueryRequest request(const Op& op, std::size_t rotation) const {
    serve::QueryRequest req;
    if (op.cls == kCold) {
      req.name = "cold" + std::to_string(op.cold);
      req.edges = cold_[op.cold];
      auto& e = req.edges.edges;
      std::rotate(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(rotation % e.size()),
                  e.end());
      return req;
    }
    req.dataset = op.dataset;
    if (op.cls == kWrite) {
      for (const WriteTarget& t : targets_) {
        if (t.dataset != op.dataset) continue;
        (op.insert ? req.insert_edges : req.remove_edges) = t.batch;
      }
    }
    return req;
  }

  ClientResult run_client(Tracer& tr, const std::vector<Op>& ops,
                          std::size_t rotation, std::uint64_t op_base) {
    ClientResult r;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      serve::QueryRequest req = request(op, rotation);
      req.tenant = op_base == 1 ? "reader" : "writer";
      const auto t0 = Clock::now();
      serve::QueryReply reply;
      {
        Scope s(tr, "serve.query", op_base + i);
        reply = service_->submit(std::move(req)).get();
      }
      const double ms = ms_between(t0, Clock::now());
      r.op_ms.push_back(ms);
      const bool counted = reply.status == serve::QueryStatus::kOk && reply.valid;
      const std::uint64_t got =
          op.cls == kWrite
              ? static_cast<std::uint64_t>(op.insert ? reply.delta_triangles
                                                     : -reply.delta_triangles)
              : reply.triangles;
      if (!counted || got != op.expect) ++r.failed;
      r.stats.push_back(reply.stats);
      r.modeled_ms += reply.stats.time_ms + reply.comm_ms;
      if (!tr.active()) continue;
      count_simt(tr, reply.stats);
      tr.count("serve.queries", 1.0);
      tr.count("fleet.cache_hits", reply.cache_hit ? 1.0 : 0.0);
      if (reply.sharded && !reply.cache_hit) {
        tr.count("fleet.sharded_runs", 1.0);
        tr.count("dist.comm_ms", reply.comm_ms);
        tr.count("dist.shard_kernel_ms", reply.stats.time_ms);
      }
      std::lock_guard lk(mu_);
      const auto& t = reply.trace;
      auto& stage = stage_ms_[op.cls];
      stage[kQueue].push_back(t.queue_ms());
      stage[kPrepare].push_back(t.prepare_ms());
      stage[kSelect].push_back(t.select_ms());
      stage[kRun].push_back(t.run_ms());
      sched_wait_ms_.push_back(ms - t.total_ms());
      if (reply.sharded && !reply.cache_hit) dist_run_ms_.push_back(t.run_ms());
      if (op.cls == kCold) cold_picks_[op.cold] = reply.algorithm;
    }
    return r;
  }

  void teardown() {
    service_.reset();  // joins dispatchers and workers first
    fleet_.reset();
    engine_.reset();
  }

  std::uint64_t seed_;
  std::map<std::string, std::uint64_t> hot_expect_;
  std::vector<std::uint64_t> cold_expect_;
  std::vector<WriteTarget> targets_;
  std::vector<Op> reader_, writer_;
  std::vector<graph::Coo> cold_;
  std::size_t passes_ = 0;

  std::unique_ptr<framework::Engine> engine_;
  std::unique_ptr<fleet::Fleet> fleet_;
  std::unique_ptr<fleet::FleetService> service_;

  mutable std::mutex mu_;  ///< guards the traced per-query samples below
  std::vector<double> stage_ms_[kClasses][kStages];
  std::vector<double> sched_wait_ms_;
  std::vector<double> dist_run_ms_;
  std::map<std::size_t, std::string> cold_picks_;  ///< cold graph -> kernel run
};

}  // namespace

std::unique_ptr<Workload> make_serve(std::uint64_t seed) {
  return std::make_unique<Serve>(seed);
}

}  // namespace perfbench
