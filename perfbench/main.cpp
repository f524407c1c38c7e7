// perfbench — the repository benchmark program.
//
//   perfbench --workload grid|ingest|serve --seed N --seconds S --trace 0|1
//             [--trace-out DIR]
//
// One run: compute the CPU reference counts (untimed), set the workload up
// several times (setup_s = median), run one untimed warm-up pass, then run
// timed passes over the workload's fixed operation list until --seconds
// have passed (at least kMinPasses). Every operation is validated; the
// simulator stats of every pass must repeat exactly. The last line of
// stdout is one JSON object: correct, attempted, failed and the metrics —
// the end-to-end set untraced, the per-layer set with --trace 1.
//
// The traced run alternates untraced and traced passes; per-layer metrics
// come from the traced ones, and trace.overhead_s is the difference of the
// two medians. Spans are written to DIR/<workload>-seed<N>.spans.jsonl.
#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hpp"
#include "framework/capacity.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct MetricDef {
  std::string name;
  std::string unit;
  std::string moves;  ///< end-to-end metric(s) the layer metric should move
};

/// The per-layer catalogue, in report order. Every traced run emits all of
/// them; a layer the workload does not exercise reads 0.
std::vector<MetricDef> layer_catalogue() {
  std::vector<MetricDef> m = {
      {"gen.generate_ms", "ms", "ingest/pass_s; setup_s of every workload"},
      {"graph.prepare_ms", "ms", "ingest/pass_s; grid/setup_s"},
      {"graph.reference_ms", "ms", "ingest/pass_s; grid/setup_s"},
      {"tc.upload_ms", "ms", "grid/setup_s; serve/op_p90_ms"},
      {"tc.device_bytes", "bytes", "grid/setup_s; peak_rss_mb"},
  };
  for (const char* k : {"Green", "Polak", "Bisson", "TriCore", "Fox", "Hu",
                        "H-INDEX", "TRUST", "GroupTC"}) {
    m.push_back({std::string("tc.kernel_ms.") + k, "ms", "grid/pass_s"});
  }
  const std::vector<MetricDef> rest = {
      {"simt.warp_steps", "count", "grid/pass_s; grid/op_p90_ms"},
      {"simt.ns_per_step", "ns", "grid/pass_s; grid/op_p90_ms"},
      {"simt.load_requests", "count", "grid/modeled_ms"},
      {"simt.load_transactions", "count", "grid/modeled_ms"},
      {"simt.dram_transactions", "count", "grid/modeled_ms"},
      {"simt.warp_efficiency", "frac", "grid/modeled_ms"},
      {"framework.prepare_hit_frac", "frac", "serve/op_p50_ms; serve/setup_s"},
      {"framework.upload_hit_frac", "frac", "serve/op_p50_ms; serve/setup_s"},
      {"framework.bytes_resident", "bytes", "serve/op_p50_ms; serve/setup_s"},
      {"framework.evictions", "count", "serve/op_p50_ms; serve/setup_s"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (const char* stage : {"queue", "prepare", "select", "run"}) {
    for (const char* cls : {"hot", "cold", "write", "read"}) {
      m.push_back({std::string("serve.") + stage + "_ms." + cls, "ms",
                   std::string(stage) == "queue" ? "serve/op_p50_ms"
                                                 : "serve/op_p90_ms"});
    }
  }
  const std::vector<MetricDef> tail = {
      {"serve.batched_frac", "frac", "serve/op_p50_ms; serve/op_p90_ms"},
      {"fleet.sched_wait_ms", "ms", "serve/op_p50_ms; serve/pass_s"},
      {"fleet.cache_hit_frac", "frac", "serve/op_p50_ms; serve/pass_s"},
      {"fleet.sharded_runs", "count", "serve/op_p50_ms; serve/pass_s"},
      {"fleet.invalidations", "count", "serve/op_p50_ms; serve/pass_s"},
      {"dist.comm_ms", "ms", "serve/modeled_ms"},
      {"dist.shard_kernel_ms", "ms", "serve/modeled_ms"},
      {"dist.run_ms", "ms", "serve/op_p90_ms"},
      {"stream.build_ms", "ms", "ingest/pass_s"},
      {"stream.commit_ms", "ms", "ingest/op_p50_ms; ingest/op_p90_ms; ingest/pass_s"},
      {"stream.materialize_ms", "ms", "ingest/pass_s"},
      {"stream.wedge_jobs", "count", "ingest/modeled_ms; ingest/op_p90_ms"},
      {"stream.effective_frac", "frac", "ingest/op_p50_ms; ingest/modeled_ms"},
      {"stream.delta_modeled_ms", "ms", "ingest/modeled_ms"},
      {"trace.overhead_s", "s", "none (traced minus untraced pass_s)"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

const char* kUsage =
    "usage: perfbench --workload grid|ingest|serve --seed N --seconds S "
    "--trace 0|1 [--trace-out DIR]\n";

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (errno != 0 || end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else if (key == "--trace-out") {
      a->trace_out = val;
    } else {
      return false;
    }
  }
  return a->workload == "grid" || a->workload == "ingest" ||
         a->workload == "serve";
}

std::string build_type() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string fixed(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = args.workload == "grid"     ? make_grid(args.seed)
                                : args.workload == "ingest" ? make_ingest(args.seed)
                                                            : make_serve(args.seed);
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 1;
#endif
  Tracer tr(args.trace);
  w->prepare_expectations();
  std::cout << "# perfbench " << w->describe() << '\n'
            << "# context: seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0)
            << " nproc=" << std::thread::hardware_concurrency()
            << " omp_threads=" << omp_threads << " build=" << build_type()
            << " compiler=\"" << __VERSION__ << "\"\n";

  // Set-up, several times; the last one's state serves the passes.
  std::vector<double> setup_s;
  for (int r = 0; r < w->setup_repetitions(); ++r) {
    const auto t0 = Clock::now();
    w->setup(tr);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // Warm-up pass: validated, fingerprinted, never timed or traced.
  tr.set_recording(false);
  tr.set_in_pass(true);
  std::vector<PassRecord> passes;
  passes.push_back(w->run_pass(tr, /*warmup=*/true));

  // Timed passes. The traced run alternates untraced (even) and traced
  // (odd) passes so both medians see the same host conditions. Peak RSS is
  // read after set-up, warm-up and the first kMinPasses timed passes, so a
  // faster host or program, which fits more passes into --seconds, does not
  // move it.
  const std::size_t min_passes = args.trace ? 4 : kMinPasses;
  std::vector<double> untraced_s, traced_s;
  double peak_rss = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    tr.set_recording(traced);
    const auto t0 = Clock::now();
    PassRecord rec = w->run_pass(tr, /*warmup=*/false);
    rec.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    (traced ? traced_s : untraced_s).push_back(rec.seconds);
    passes.push_back(std::move(rec));
    if (i + 1 == kMinPasses) peak_rss = tcgpu::framework::peak_rss_mb();
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (i + 1 >= min_passes && elapsed >= args.seconds) break;
  }
  tr.set_recording(false);

  // Validation and the determinism contract.
  std::uint64_t attempted = 0, failed = 0;
  bool repeatable = true;
  std::vector<double> op_ms;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    attempted += passes[p].attempted;
    failed += passes[p].failed;
    if (passes[p].fingerprint != passes[0].fingerprint ||
        passes[p].modeled_ms != passes[0].modeled_ms ||
        passes[p].attempted != w->ops_per_pass()) {
      repeatable = false;
    }
    if (p > 0 && !(args.trace && p % 2 == 0)) {
      op_ms.insert(op_ms.end(), passes[p].op_ms.begin(), passes[p].op_ms.end());
    }
  }
  if (!repeatable) {
    std::cout << "# FAIL: simulator stats, modeled_ms or the operation count "
                 "differ between passes\n";
  }
  if (failed != 0) {
    std::cout << "# FAIL: " << failed << " of " << attempted
              << " operations did not match the CPU reference\n";
  }
  std::vector<double> cold;
  for (const PassRecord& p : passes) {
    if (p.cold_build_s >= 0.0) cold.push_back(p.cold_build_s);
  }
  if (!cold.empty()) setup_s = cold;

  const std::size_t timed = passes.size() - 1;
  std::cout << "# setup seconds:";
  for (const double s : setup_s) std::cout << ' ' << fixed(s, 3);
  std::cout << "\n# passes: 1 warm-up + " << timed << " timed, "
            << passes[0].attempted << " operations per pass, " << op_ms.size()
            << " timed operations\n# pass seconds:";
  for (std::size_t p = 1; p < passes.size(); ++p) std::cout << ' ' << fixed(passes[p].seconds, 3);
  std::cout << '\n';

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!args.trace) {
    const double ok_frac =
        attempted == 0 ? 0.0
                       : static_cast<double>(attempted - failed) /
                             static_cast<double>(attempted);
    metrics = {
        {"setup_s", {median(setup_s), "s"}},
        {"pass_s", {median(untraced_s), "s"}},
        {"op_p50_ms", {quantile(op_ms, 0.5), "ms"}},
        {"op_p90_ms", {quantile(op_ms, 0.9), "ms"}},
        {"modeled_ms", {passes[0].modeled_ms, "ms"}},
        {"peak_rss_mb", {peak_rss, "MiB"}},
        {"ok_frac", {ok_frac, "frac"}},
    };
    std::cout << "# " << std::left << std::setw(14) << "metric" << std::right
              << std::setw(16) << "value" << "  unit  samples\n";
    for (const auto& [name, vu] : metrics) {
      const std::size_t n = name == "setup_s"                         ? setup_s.size()
                            : name == "pass_s"                        ? untraced_s.size()
                            : name.rfind("op_", 0) == 0 ? op_ms.size()
                                                                      : 1;
      std::cout << "# " << std::left << std::setw(14) << name << std::right
                << std::setw(16) << fixed(vu.first, 4) << "  " << std::left
                << std::setw(6) << vu.second << std::right << n << '\n';
    }
  } else {
    LayerValues values = w->layers(tr, setup_s.size(), traced_s.size());
    values["trace.overhead_s"] = median(traced_s) - median(untraced_s);
    std::cout << "# " << std::left << std::setw(28) << "layer metric" << std::right
              << std::setw(18) << "value" << "  " << std::left << std::setw(6)
              << "unit" << "moves\n";
    for (const MetricDef& def : layer_catalogue()) {
      const auto it = values.find(def.name);
      const bool exercised = it != values.end();
      const double v = exercised ? it->second : 0.0;
      metrics.push_back({def.name, {v, def.unit}});
      std::cout << "# " << std::left << std::setw(28) << def.name << std::right
                << std::setw(18) << (exercised ? fixed(v, 4) : "-") << "  "
                << std::left << std::setw(6) << def.unit << def.moves << '\n';
    }
    std::cout << "# tracing overhead: traced pass_s " << fixed(median(traced_s), 4)
              << " s - untraced pass_s " << fixed(median(untraced_s), 4)
              << " s = " << fixed(values["trace.overhead_s"], 4) << " s\n";
    if (!args.trace_out.empty()) {
      const std::string path = args.trace_out + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".spans.jsonl";
      std::ofstream os(path);
      tr.write_jsonl(os);
      std::cout << "# spans: " << tr.num_spans() << " written to " << path << '\n';
    }
  }

  const bool correct = repeatable && failed == 0 && attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].first
              << "\": {\"value\": " << num(metrics[i].second.first)
              << ", \"unit\": \"" << metrics[i].second.second << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::cerr << perfbench::kUsage;
    return 2;
  }
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to time an unoptimized build (build type "
            << perfbench::build_type() << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 2;
#endif
  // OpenMP reads OMP_NUM_THREADS once, before main; threads the program
  // starts later (serve workers) take that value, not omp_set_num_threads.
  // Pin it by re-executing once with the variable set.
  const char* omp = std::getenv("OMP_NUM_THREADS");
  if (omp == nullptr || std::strcmp(omp, "1") != 0) {
    setenv("OMP_NUM_THREADS", "1", 1);
    execv("/proc/self/exe", argv);
    std::cerr << "perfbench: re-exec failed: " << std::strerror(errno) << '\n';
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
