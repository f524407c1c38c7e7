// Simulator hot-path microbenchmark: events/sec and ns/access through the
// full ThreadCtx -> WarpAggregator::record -> flush pipeline, on three
// synthetic kernels whose input shapes cover the pipeline's regimes:
//
//   * converged    — every lane issues the identical site sequence, so every
//                    row is full and is charged in place;
//   * divergent    — per-lane trip counts differ, so rows thin out and the
//                    flush gathers partial rows (occurrence alignment);
//   * atomic_heavy — global + shared atomics (serialization costs).
//
// Emits JSON so the perf trajectory is tracked across PRs; --check compares
// events/sec against a checked-in baseline and fails on >25% regression
// (the CI sim-throughput gate).
//
// Flags: --quick            smaller grids, CI-friendly runtimes
//        --out=PATH         write the JSON report to PATH
//        --check=PATH       compare against a baseline JSON, exit 1 on regression
//        --repeats=N        timing repeats per workload (default 3, best-of)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "simt/device.hpp"
#include "simt/launch.hpp"

namespace {

using namespace tcgpu;

struct WorkloadResult {
  std::string name;
  std::uint64_t events = 0;  ///< metered lane accesses per run
  double seconds = 0.0;      ///< best-of-repeats wall clock for one run
  double events_per_sec() const { return static_cast<double>(events) / seconds; }
  double ns_per_access() const { return seconds * 1e9 / static_cast<double>(events); }
};

/// Times one launch closure: returns best-of-`repeats` seconds and the
/// event count (identical across repeats — the simulator is deterministic).
template <class Fn>
WorkloadResult time_workload(const std::string& name, int repeats, Fn&& run) {
  WorkloadResult r;
  r.name = name;
  r.seconds = 1e100;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const simt::KernelStats stats = run();
    const auto t1 = std::chrono::steady_clock::now();
    // No compute() in these kernels, so every active lane step is exactly
    // one metered access event.
    r.events = stats.metrics.active_lane_steps;
    r.seconds = std::min(r.seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  return r;
}

simt::KernelStats run_converged(const simt::GpuSpec& spec, simt::Device& dev,
                                std::uint64_t items, std::uint32_t reps) {
  auto data = dev.alloc<std::uint32_t>(1 << 20, "bench_data");
  auto out = dev.alloc<std::uint32_t>(1 << 16, "bench_out");
  simt::LaunchConfig cfg{spec.sm_count * 4, 256, 1};
  return simt::launch_items<simt::NoState>(
      spec, cfg, items,
      [&](simt::ThreadCtx& ctx, simt::NoState&, std::uint64_t item) {
        std::uint32_t acc = 0;
        const std::uint64_t base = item * 7;
        for (std::uint32_t r = 0; r < reps; ++r) {
          acc += ctx.load(data, (base + r) & ((1 << 20) - 1), TCGPU_SITE());
        }
        ctx.store(out, item & ((1 << 16) - 1), acc, TCGPU_SITE());
      });
}

simt::KernelStats run_divergent(const simt::GpuSpec& spec, simt::Device& dev,
                                std::uint64_t items, std::uint32_t reps) {
  auto data = dev.alloc<std::uint32_t>(1 << 20, "bench_data");
  auto out = dev.alloc<std::uint32_t>(1 << 16, "bench_out");
  simt::LaunchConfig cfg{spec.sm_count * 4, 256, 1};
  return simt::launch_items<simt::NoState>(
      spec, cfg, items,
      [&](simt::ThreadCtx& ctx, simt::NoState&, std::uint64_t item) {
        // Lane-dependent trip count (1..reps): adjacent items diverge, so a
        // warp's lanes never share a site sequence.
        const std::uint32_t trips = 1 + static_cast<std::uint32_t>(item % reps);
        std::uint32_t acc = 0;
        const std::uint64_t base = item * 1315423911ull;
        for (std::uint32_t r = 0; r < trips; ++r) {
          acc += ctx.load(data, (base + r * 97) & ((1 << 20) - 1), TCGPU_SITE());
        }
        ctx.store(out, item & ((1 << 16) - 1), acc, TCGPU_SITE());
      });
}

simt::KernelStats run_atomic_heavy(const simt::GpuSpec& spec, simt::Device& dev,
                                   std::uint64_t items, std::uint32_t reps) {
  auto data = dev.alloc<std::uint32_t>(1 << 20, "bench_data");
  auto counters = dev.alloc<std::uint64_t>(1 << 10, "bench_counters");
  simt::LaunchConfig cfg{spec.sm_count * 4, 256, 32};
  return simt::launch_items<simt::NoState>(
      spec, cfg, items,
      [&](simt::ThreadCtx& ctx, simt::NoState&, std::uint64_t item) {
        auto tallies = ctx.shared_array_tagged<std::uint32_t>(0, 256);
        const std::uint32_t lane = ctx.group_lane();
        std::uint64_t acc = 0;
        for (std::uint32_t r = 0; r < reps; ++r) {
          acc += ctx.load(data, (item * 31 + r) & ((1 << 20) - 1), TCGPU_SITE());
          ctx.shared_atomic_add(tallies, (lane * 5 + r) & 255u, 1u, TCGPU_SITE());
        }
        ctx.atomic_add(counters, (item * 13) & 1023u, acc, TCGPU_SITE());
      });
}

// --- minimal JSON helpers (format is ours on both ends) --------------------

std::string to_json(const std::vector<WorkloadResult>& results) {
  std::ostringstream os;
  os << "{\n  \"bench\": \"sim_overhead\",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"events\": %llu, \"seconds\": %.6f, "
                  "\"events_per_sec\": %.0f, \"ns_per_access\": %.2f}%s\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.events),
                  r.seconds, r.events_per_sec(), r.ns_per_access(),
                  i + 1 < results.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  return os.str();
}

/// Pulls "name" -> events_per_sec pairs out of a sim_overhead JSON report.
/// Deliberately tiny: the format is produced by to_json above.
bool parse_baseline(const std::string& path,
                    std::vector<std::pair<std::string, double>>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const auto name_at = line.find("\"name\": \"");
    const auto eps_at = line.find("\"events_per_sec\": ");
    if (name_at == std::string::npos || eps_at == std::string::npos) continue;
    const auto name_begin = name_at + 9;
    const auto name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    const double eps = std::atof(line.c_str() + eps_at + 18);
    out.emplace_back(line.substr(name_begin, name_end - name_begin), eps);
  }
  return !out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int repeats = 3;
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--check=", 0) == 0) {
      check_path = arg.substr(8);
    } else if (arg.rfind("--repeats=", 0) == 0) {
      repeats = std::atoi(arg.c_str() + 10);
      if (repeats < 1) repeats = 1;
    } else {
      std::cerr << "unknown flag: " << arg
                << " (valid: --quick --out=PATH --check=PATH --repeats=N)\n";
      return 2;
    }
  }

  const simt::GpuSpec spec = simt::GpuSpec::v100();
  const std::uint64_t items = quick ? 40'000 : 400'000;
  const std::uint32_t reps = 24;

  std::vector<WorkloadResult> results;
  {
    simt::Device dev;
    results.push_back(time_workload("converged", repeats, [&] {
      return run_converged(spec, dev, items, reps);
    }));
  }
  {
    simt::Device dev;
    results.push_back(time_workload("divergent", repeats, [&] {
      return run_divergent(spec, dev, items, reps);
    }));
  }
  {
    simt::Device dev;
    results.push_back(time_workload("atomic_heavy", repeats, [&] {
      return run_atomic_heavy(spec, dev, items / 8, reps);
    }));
  }

  std::printf("%-14s %14s %10s %16s %12s\n", "workload", "events", "sec",
              "events/sec", "ns/access");
  for (const auto& r : results) {
    std::printf("%-14s %14llu %10.4f %16.0f %12.2f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events), r.seconds,
                r.events_per_sec(), r.ns_per_access());
  }

  const std::string json = to_json(results);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
    if (!out) {
      std::cerr << "failed to write " << out_path << '\n';
      return 1;
    }
    std::cerr << "wrote " << out_path << '\n';
  }

  if (!check_path.empty()) {
    std::vector<std::pair<std::string, double>> baseline;
    if (!parse_baseline(check_path, baseline)) {
      std::cerr << "failed to parse baseline " << check_path << '\n';
      return 2;
    }
    constexpr double kAllowedRegression = 0.25;
    bool ok = true;
    for (const auto& [name, base_eps] : baseline) {
      const auto it = std::find_if(results.begin(), results.end(),
                                   [&](const auto& r) { return r.name == name; });
      if (it == results.end()) {
        std::cerr << "baseline workload missing from run: " << name << '\n';
        ok = false;
        continue;
      }
      const double floor = base_eps * (1.0 - kAllowedRegression);
      const bool pass = it->events_per_sec() >= floor;
      std::fprintf(stderr, "check %-14s %16.0f ev/s vs baseline %16.0f (floor %16.0f) %s\n",
                   name.c_str(), it->events_per_sec(), base_eps, floor,
                   pass ? "ok" : "REGRESSED");
      ok = ok && pass;
    }
    if (!ok) return 1;
  }
  return 0;
}
