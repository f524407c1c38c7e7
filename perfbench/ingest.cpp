// ingest: a cold build followed by churn, from scratch on every pass.
//
// For each of four datasets at a 500k edge cap (id orientation) a pass
// generates the graph, prepares the DAG, counts it on the CPU, builds a
// stream::DynamicGraph, commits 20 seeded ChurnGenerator batches of 256 ops
// (the unit operation), then materializes the final snapshot and recounts
// it on the CPU. The warm-up pass applies every batch to an edge set the
// benchmark keeps itself and records the stamped count of that set as the
// expected count after the batch; every pass must reproduce each one
// exactly, so an op the stream layer drops, duplicates or misroutes shows.
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "gen/paper_datasets.hpp"
#include "graph/cpu_reference.hpp"
#include "graph/prepare.hpp"
#include "stream/churn.hpp"
#include "stream/dynamic_graph.hpp"

namespace perfbench {
namespace {

using namespace tcgpu;

constexpr std::uint64_t kEdgeCap = 500'000;
constexpr std::size_t kBatches = 20;
constexpr std::size_t kBatchOps = 256;

const std::vector<std::string>& ingest_datasets() {
  static const std::vector<std::string> names = {"RoadNet-CA", "Wiki-Talk",
                                                 "Cit-Patents", "Soc-Pokec"};
  return names;
}

/// The benchmark's own copy of one dataset's edge set, churned op by op
/// under DynamicGraph's documented rules (self-loops, duplicate inserts and
/// absent deletes are no-ops) and counted from scratch.
class EdgeSet {
 public:
  explicit EdgeSet(const graph::Csr& dag) {
    keys_.reserve(dag.num_edges() * 2);
    for (graph::VertexId u = 0; u < dag.num_vertices(); ++u) {
      for (const graph::VertexId v : dag.neighbors(u)) keys_.insert(key(u, v));
    }
  }

  void apply(std::span<const stream::EdgeOp> ops) {
    for (const stream::EdgeOp& op : ops) {
      if (op.u == op.v) continue;
      const std::uint64_t k = key(std::min(op.u, op.v), std::max(op.u, op.v));
      if (op.insert) {
        keys_.insert(k);
      } else {
        keys_.erase(k);
      }
    }
  }

  std::uint64_t count() const {
    graph::Coo coo;
    coo.edges.reserve(keys_.size());
    for (const std::uint64_t k : keys_) {
      const auto u = static_cast<graph::VertexId>(k >> 32);
      const auto v = static_cast<graph::VertexId>(k & 0xffffffffu);
      coo.edges.push_back({u, v});
      coo.num_vertices = std::max(coo.num_vertices, v + 1);
    }
    return graph::count_triangles_stamped(
        graph::prepare_dag(std::move(coo), graph::OrientationPolicy::kById).dag);
  }

 private:
  static std::uint64_t key(graph::VertexId a, graph::VertexId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  std::unordered_set<std::uint64_t> keys_;
};

class Ingest final : public Workload {
 public:
  explicit Ingest(std::uint64_t seed) : seed_(seed) {}

  void prepare_expectations() override {}  // recorded by the warm-up pass
  void setup(Tracer&) override {}          // every pass builds from scratch
  int setup_repetitions() const override { return 1; }

  PassRecord run_pass(Tracer& tr, bool warmup) override {
    if (warmup) expected_.assign(ingest_datasets().size(), {});
    PassRecord rec;
    rec.cold_build_s = 0.0;
    std::uint64_t op = 0;
    for (std::size_t d = 0; d < ingest_datasets().size(); ++d) {
      auto& expected = expected_[d];
      const auto cold0 = Clock::now();
      graph::Coo raw;
      {
        Scope s(tr, "gen.generate");
        raw = gen::generate_dataset(gen::dataset_by_name(ingest_datasets()[d]),
                                    kEdgeCap, seed_);
      }
      graph::PreparedDag pd;
      {
        Scope s(tr, "graph.prepare");
        pd = graph::prepare_dag(std::move(raw), graph::OrientationPolicy::kById);
      }
      std::uint64_t reference = 0;
      {
        Scope s(tr, "graph.reference");
        reference = graph::count_triangles_forward_parallel(pd.dag);
      }
      std::unique_ptr<stream::DynamicGraph> dyn;
      {
        Scope s(tr, "stream.build");
        dyn = std::make_unique<stream::DynamicGraph>(pd.dag, cfg_);
      }
      rec.cold_build_s += std::chrono::duration<double>(Clock::now() - cold0).count();
      std::unique_ptr<EdgeSet> own;
      if (warmup) {
        own = std::make_unique<EdgeSet>(pd.dag);
        expected.push_back(own->count());
      }
      // A wrong base count makes every later absolute check below fail.
      const bool base_ok = reference == expected[0] && dyn->triangles() == reference;

      stream::ChurnGenerator churn(seed_ * 0x9e3779b97f4a7c15ull + d);
      for (std::size_t b = 0; b < kBatches; ++b) {
        const auto ops = churn.next_batch(*dyn->snapshot(), kBatchOps);
        const auto t0 = Clock::now();
        stream::CommitResult cr;
        {
          Scope s(tr, "stream.commit", ++op);
          cr = dyn->commit(ops);
        }
        rec.op_ms.push_back(ms_between(t0, Clock::now()));
        if (warmup) {
          own->apply(ops);
          expected.push_back(own->count());
        }
        ++rec.attempted;
        if (!base_ok || cr.triangles != expected[b + 1]) ++rec.failed;
        rec.modeled_ms += cr.stats.time_ms;
        rec.fingerprint.push_back(cr.stats);
        count_simt(tr, cr.stats);
        tr.count("stream.wedge_jobs", cr.wedge_jobs);
        tr.count("stream.effective_ops", cr.inserted + cr.removed);
        tr.count("stream.ops", static_cast<double>(ops.size()));
        tr.count("stream.delta_modeled_ms", cr.stats.time_ms);
      }
      graph::Csr final_dag;
      {
        Scope s(tr, "stream.materialize");
        final_dag = dyn->snapshot()->materialize_dag();
      }
      std::uint64_t recount = 0;
      {
        Scope s(tr, "graph.reference");
        recount = graph::count_triangles_forward_parallel(final_dag);
      }
      if (recount != dyn->triangles() && rec.failed == 0) ++rec.failed;
    }
    return rec;
  }

  LayerValues layers(const Tracer& tr, std::size_t /*setups*/,
                     std::size_t traced_passes) const override {
    LayerValues out;
    const double per_pass = 1.0 / static_cast<double>(traced_passes);
    const auto ms = tr.self_ms(true);
    out["gen.generate_ms"] = at(ms, "gen.generate") * per_pass;
    out["graph.prepare_ms"] = at(ms, "graph.prepare") * per_pass;
    out["graph.reference_ms"] = at(ms, "graph.reference") * per_pass;
    out["stream.build_ms"] = at(ms, "stream.build") * per_pass;
    out["stream.commit_ms"] = at(ms, "stream.commit") * per_pass;
    out["stream.materialize_ms"] = at(ms, "stream.materialize") * per_pass;
    out["stream.wedge_jobs"] = tr.counter("stream.wedge_jobs", true) * per_pass;
    out["stream.effective_frac"] =
        ratio(tr.counter("stream.effective_ops", true), tr.counter("stream.ops", true));
    out["stream.delta_modeled_ms"] =
        tr.counter("stream.delta_modeled_ms", true) * per_pass;
    add_simt_layers(tr, traced_passes, out);
    return out;
  }

  std::uint64_t ops_per_pass() const override {
    return ingest_datasets().size() * kBatches;
  }

  std::string describe() const override {
    return "ingest: " + std::to_string(ingest_datasets().size()) +
           " datasets, cap " + std::to_string(kEdgeCap) +
           " edges, id orientation, cold build + " + std::to_string(kBatches) +
           "x" + std::to_string(kBatchOps) + "-op churn batches per dataset";
  }

 private:
  std::uint64_t seed_;
  stream::DynamicGraph::Config cfg_;
  /// Per dataset: the cold-build count, then the count after each batch.
  std::vector<std::vector<std::uint64_t>> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_ingest(std::uint64_t seed) {
  return std::make_unique<Ingest>(seed);
}

}  // namespace perfbench
