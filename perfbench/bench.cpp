#include "bench.hpp"

#include <cmath>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {
thread_local std::vector<int> t_open;  ///< open spans of this thread
}  // namespace

int Tracer::open(const char* name, std::uint64_t op) {
  const double now = ms_between(t0_, Clock::now());
  std::lock_guard lk(mu_);
  Span s;
  s.name = name;
  s.start_ms = now;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.op = op;
  s.in_pass = in_pass_;
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size() - 1);
  t_open.push_back(idx);
  return idx;
}

void Tracer::close(int idx) {
  const double now = ms_between(t0_, Clock::now());
  std::lock_guard lk(mu_);
  spans_[static_cast<std::size_t>(idx)].end_ms = now;
  if (!t_open.empty() && t_open.back() == idx) t_open.pop_back();
}

void Tracer::count(const std::string& name, double value) {
  if (!active()) return;
  std::lock_guard lk(mu_);
  counters_[{name, in_pass_}] += value;
}

std::map<std::string, double> Tracer::self_ms(bool in_pass) const {
  std::lock_guard lk(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.in_pass != in_pass) continue;
    out[s.name] += (s.end_ms - s.start_ms) - child_ms[i];
  }
  return out;
}

double Tracer::counter(const std::string& name, bool in_pass) const {
  std::lock_guard lk(mu_);
  const auto it = counters_.find({name, in_pass});
  return it == counters_.end() ? 0.0 : it->second;
}

std::size_t Tracer::num_spans() const {
  std::lock_guard lk(mu_);
  return spans_.size();
}

void Tracer::write_jsonl(std::ostream& os) const {
  std::lock_guard lk(mu_);
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ms\":" << s.start_ms
       << ",\"end_ms\":" << s.end_ms << ",\"parent\":" << s.parent
       << ",\"op\":" << s.op << ",\"phase\":\""
       << (s.in_pass ? "pass" : "setup") << "\"}\n";
  }
}

void count_simt(Tracer& tr, const simt::KernelStats& s) {
  if (!tr.active()) return;
  const auto& m = s.metrics;
  tr.count("simt.warp_steps", static_cast<double>(m.warp_steps));
  tr.count("simt.active_lane_steps", static_cast<double>(m.active_lane_steps));
  tr.count("simt.load_requests", static_cast<double>(m.global_load_requests));
  tr.count("simt.load_transactions",
           static_cast<double>(m.global_load_transactions));
  tr.count("simt.dram_transactions",
           static_cast<double>(m.global_dram_transactions));
}

void add_simt_layers(const Tracer& tr, std::size_t traced_passes,
                     LayerValues& out) {
  const double per = 1.0 / static_cast<double>(std::max<std::size_t>(1, traced_passes));
  const double steps = tr.counter("simt.warp_steps", true);
  out["simt.warp_steps"] = steps * per;
  out["simt.load_requests"] = tr.counter("simt.load_requests", true) * per;
  out["simt.load_transactions"] = tr.counter("simt.load_transactions", true) * per;
  out["simt.dram_transactions"] = tr.counter("simt.dram_transactions", true) * per;
  out["simt.warp_efficiency"] = ratio(tr.counter("simt.active_lane_steps", true), 32.0 * steps);
}

void add_engine_layers(const tcgpu::framework::EngineCounters& c, LayerValues& out) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  if (c.prepares + c.prepare_hits > 0) {
    out["framework.prepare_hit_frac"] = ratio(d(c.prepare_hits), d(c.prepares + c.prepare_hits));
  }
  out["framework.upload_hit_frac"] = ratio(d(c.upload_hits), d(c.uploads + c.upload_hits));
  out["framework.bytes_resident"] = d(c.bytes_resident);
  out["framework.evictions"] = d(c.evictions);
}

}  // namespace perfbench
