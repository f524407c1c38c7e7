// Shared pieces of the perfbench program: clock helpers, order statistics,
// the span tracer, and the interface every workload implements.
//
// The program calls the tcgpu libraries only through their public headers;
// every span below is recorded here, around a call into one layer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "framework/engine.hpp"
#include "simt/metrics.hpp"

namespace perfbench {

namespace simt = tcgpu::simt;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when
/// empty. The same rule as numpy's default and Python's "inclusive" method.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One recorded call into a layer. `parent` indexes the enclosing span on
/// the same thread (-1 at top level); `op` is the workload operation the
/// call served (0 for set-up work).
struct Span {
  std::string name;
  double start_ms = 0.0;  ///< since the tracer was created
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
  bool in_pass = false;  ///< recorded during a traced pass (else: set-up)
};

/// In-memory span and counter store. Disabled tracers record nothing and
/// cost one branch per call; spans are written out once, after the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Pauses or resumes recording (the traced run alternates passes).
  void set_recording(bool on) { recording_ = on; }
  /// Marks spans and counts from now on as pass work (vs set-up work).
  void set_in_pass(bool in_pass) { in_pass_ = in_pass; }
  bool active() const { return enabled_ && recording_; }

  int open(const char* name, std::uint64_t op);
  void close(int idx);
  /// Adds `value` to a named counter, split by set-up vs pass like spans.
  void count(const std::string& name, double value);

  /// Self time (duration minus time covered by child spans) summed per span
  /// name, over set-up spans (in_pass == false) or pass spans.
  std::map<std::string, double> self_ms(bool in_pass) const;
  double counter(const std::string& name, bool in_pass) const;
  std::size_t num_spans() const;
  /// One JSON object per line: name, start_ms, end_ms, parent, op, phase.
  void write_jsonl(std::ostream& os) const;

 private:
  bool enabled_;
  bool recording_ = true;
  bool in_pass_ = false;
  Clock::time_point t0_;
  mutable std::mutex mu_;  ///< guards spans_ and counters_ (serve clients)
  std::vector<Span> spans_;
  std::map<std::pair<std::string, bool>, double> counters_;
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Tracer& tr, const char* name, std::uint64_t op = 0)
      : tr_(tr), idx_(tr.active() ? tr.open(name, op) : -1) {}
  ~Scope() {
    if (idx_ >= 0) tr_.close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tr_;
  int idx_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// What one pass over a workload's fixed operation list produced.
struct PassRecord {
  double seconds = 0.0;       ///< host wall time of the whole pass (harness)
  double modeled_ms = 0.0;    ///< simulated device ms (the paper's clock)
  std::vector<double> op_ms;  ///< host latency of every unit operation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   ///< not kOk, or count != CPU reference
  /// Per-operation simulator stats in operation order; two passes of one
  /// run must match exactly.
  std::vector<simt::KernelStats> fingerprint;
  /// Host s of the pass's own cold build, for workloads whose passes set up
  /// from scratch (ingest); negative when the pass has none.
  double cold_build_s = -1.0;
};

/// Per-layer metrics a workload exercised, by name (catalogue in main.cpp).
using LayerValues = std::map<std::string, double>;

/// part / whole, 0 when nothing was counted.
inline double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// m[key], 0 when absent (a span name that never opened).
inline double at(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Computes, untimed, the CPU reference counts every operation is checked
  /// against. Runs once, before the first set-up.
  virtual void prepare_expectations() = 0;
  /// Builds the workload's state from nothing, dropping any previous state.
  /// Timed by the harness (setup_s), several times per run.
  virtual void setup(Tracer& tr) = 0;
  /// Runs the fixed operation list once and validates every operation.
  /// The untimed warm-up pass comes first; workloads whose reference counts
  /// depend on the pass itself (ingest) record them there, checked by an
  /// independent CPU recount after every operation.
  virtual PassRecord run_pass(Tracer& tr, bool warmup) = 0;
  /// Per-layer metrics from the traced set-ups and passes plus the
  /// program's own counters.
  virtual LayerValues layers(const Tracer& tr, std::size_t setups,
                             std::size_t traced_passes) const = 0;
  /// One line: what the workload runs (datasets, caps, threads).
  virtual std::string describe() const = 0;
  /// Operations in one pass. Fixed by the workload's definition, never by
  /// the seed: every pass of every run must attempt exactly this many.
  virtual std::uint64_t ops_per_pass() const = 0;
  /// Timed set-ups per run; setup_s is their median. Workloads whose every
  /// pass sets up from scratch (ingest) report the median of the passes'
  /// cold_build_s instead and set up once.
  virtual int setup_repetitions() const = 0;
};

std::unique_ptr<Workload> make_grid(std::uint64_t seed);
std::unique_ptr<Workload> make_ingest(std::uint64_t seed);
std::unique_ptr<Workload> make_serve(std::uint64_t seed);

/// Simulator counters of one or more kernel runs, folded into the per-layer
/// simt.* metrics (per pass) by add_simt_layers.
void count_simt(Tracer& tr, const simt::KernelStats& s);
void add_simt_layers(const Tracer& tr, std::size_t traced_passes,
                     LayerValues& out);
/// framework.* metrics from the engine's counters. The prepare-cache hit
/// ratio is left out when the workload never prepared through the engine.
void add_engine_layers(const tcgpu::framework::EngineCounters& c, LayerValues& out);

}  // namespace perfbench
