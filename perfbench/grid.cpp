// grid: the paper's experiment — every paper kernel on every dataset.
//
// Set-up generates, prepares and reference-counts eight datasets at a 25k
// edge cap through the gen and graph layers, then uploads each into a fresh
// Engine's device pool (one Engine::run of the warm-up kernel per dataset).
// A pass runs the nine paper kernels on every dataset through
// Engine::run: 72 validated operations, ~95% of their host time inside the
// simulator and the kernels.
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "framework/engine.hpp"
#include "framework/registry.hpp"
#include "gen/paper_datasets.hpp"
#include "graph/cpu_reference.hpp"
#include "graph/prepare.hpp"

namespace perfbench {
namespace {

using namespace tcgpu;

constexpr std::uint64_t kEdgeCap = 25'000;
constexpr const char* kWarmKernel = "Polak";

const std::vector<std::string>& grid_datasets() {
  static const std::vector<std::string> names = {
      "As-Caida",    "P2p-Gnutella31", "Com-Dblp",  "RoadNet-CA",
      "Web-BerkStan", "Cit-Patents",   "Soc-Pokec", "Com-Orkut"};
  return names;
}

class Grid final : public Workload {
 public:
  explicit Grid(std::uint64_t seed) : seed_(seed) {
    for (const auto& entry : framework::all_algorithms()) {
      kernels_.push_back(entry.make());
      span_names_.push_back("tc.kernel_ms." + entry.name);
    }
  }

  void prepare_expectations() override {
    // Independent reference: the stamped counter, not the forward counter
    // the engine validates with.
    for (const auto& name : grid_datasets()) {
      auto raw = gen::generate_dataset(gen::dataset_by_name(name), kEdgeCap, seed_);
      const auto pd = graph::prepare_dag(std::move(raw), kPolicy);
      expected_.push_back(graph::count_triangles_stamped(pd.dag));
    }
  }

  void setup(Tracer& tr) override {
    graphs_.clear();
    engine_.reset();
    framework::Engine::Config cfg;
    cfg.max_edges = kEdgeCap;
    cfg.seed = seed_;
    cfg.policy = kPolicy;
    cfg.workers = 1;
    engine_ = std::make_unique<framework::Engine>(cfg);
    const auto warm = framework::make_algorithm(kWarmKernel);
    for (const auto& name : grid_datasets()) {
      const auto& spec = gen::dataset_by_name(name);
      graph::Coo raw;
      {
        Scope s(tr, "gen.generate");
        raw = gen::generate_dataset(spec, kEdgeCap, seed_);
      }
      auto pg = std::make_shared<framework::PreparedGraph>();
      pg->name = name;
      {
        Scope s(tr, "graph.prepare");
        auto pd = graph::prepare_dag(std::move(raw), kPolicy);
        pg->stats = pd.stats;
        pg->dag = std::move(pd.dag);
      }
      {
        Scope s(tr, "graph.reference");
        pg->reference_triangles = graph::count_triangles_forward_parallel(pg->dag);
      }
      graphs_.push_back(pg);
      // The first run of a graph uploads it into the pool; the upload is
      // the run's host time minus its kernel time.
      const auto t0 = Clock::now();
      const auto out = engine_->run(*warm, graphs_.back());
      tr.count("tc.upload_ms", ms_between(t0, Clock::now()) - out.host_seconds * 1e3);
    }
  }

  PassRecord run_pass(Tracer& tr, bool /*warmup*/) override {
    PassRecord rec;
    std::uint64_t op = 0;
    for (std::size_t d = 0; d < graphs_.size(); ++d) {
      for (std::size_t k = 0; k < kernels_.size(); ++k) {
        const auto t0 = Clock::now();
        framework::RunOutcome out;
        {
          Scope s(tr, span_names_[k].c_str(), ++op);
          out = engine_->run(*kernels_[k], graphs_[d]);
        }
        rec.op_ms.push_back(ms_between(t0, Clock::now()));
        ++rec.attempted;
        if (!out.valid || out.result.triangles != expected_[d]) ++rec.failed;
        rec.modeled_ms += out.result.total.time_ms;
        rec.fingerprint.push_back(out.result.total);
        count_simt(tr, out.result.total);
        tr.count("simt.kernel_host_ms", out.host_seconds * 1e3);
      }
    }
    return rec;
  }

  LayerValues layers(const Tracer& tr, std::size_t setups,
                     std::size_t traced_passes) const override {
    LayerValues out;
    const double per_setup = 1.0 / static_cast<double>(setups);
    const double per_pass = 1.0 / static_cast<double>(traced_passes);
    const auto setup_ms = tr.self_ms(false);
    const auto pass_ms = tr.self_ms(true);
    out["gen.generate_ms"] = at(setup_ms, "gen.generate") * per_setup;
    out["graph.prepare_ms"] = at(setup_ms, "graph.prepare") * per_setup;
    out["graph.reference_ms"] = at(setup_ms, "graph.reference") * per_setup;
    out["tc.upload_ms"] = tr.counter("tc.upload_ms", false) * per_setup;
    for (const auto& name : span_names_) out[name] = at(pass_ms, name) * per_pass;
    add_simt_layers(tr, traced_passes, out);
    out["simt.ns_per_step"] = ratio(tr.counter("simt.kernel_host_ms", true) * 1e6,
                                    tr.counter("simt.warp_steps", true));
    const auto c = engine_->counters();
    out["tc.device_bytes"] = static_cast<double>(c.bytes_uploaded);
    add_engine_layers(c, out);
    return out;
  }

  // A set-up takes ~0.3 s; seven keep its median steady at ~2 s a run.
  int setup_repetitions() const override { return 7; }

  std::uint64_t ops_per_pass() const override {
    return grid_datasets().size() * kernels_.size();
  }

  std::string describe() const override {
    return "grid: " + std::to_string(kernels_.size()) + " paper kernels x " +
           std::to_string(grid_datasets().size()) + " datasets, cap " +
           std::to_string(kEdgeCap) + " edges, Engine::run, 1 engine worker";
  }

 private:
  static constexpr auto kPolicy = graph::OrientationPolicy::kByDegree;

  std::uint64_t seed_;
  std::vector<std::unique_ptr<tc::TriangleCounter>> kernels_;
  std::vector<std::string> span_names_;
  std::vector<std::uint64_t> expected_;
  std::unique_ptr<framework::Engine> engine_;
  std::vector<framework::Engine::GraphHandle> graphs_;
};

}  // namespace

std::unique_ptr<Workload> make_grid(std::uint64_t seed) {
  return std::make_unique<Grid>(seed);
}

}  // namespace perfbench
