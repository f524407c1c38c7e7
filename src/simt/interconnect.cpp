#include "simt/interconnect.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tcgpu::simt {

namespace {

std::uint32_t tree_steps(std::uint32_t nodes) {
  std::uint32_t steps = 0;
  for (std::uint32_t span = 1; span < nodes; span <<= 1) ++steps;
  return steps;
}

}  // namespace

Interconnect::Interconnect(ClusterSpec spec) : spec_(std::move(spec)) {
  if (spec_.hosts == 0 || spec_.host.devices == 0) {
    throw std::invalid_argument(
        "Interconnect: cluster must have >= 1 host with >= 1 device");
  }
}

ScatterModel Interconnect::scatter(
    const std::vector<std::vector<std::uint64_t>>& bytes,
    const std::vector<std::vector<std::uint64_t>>& rows, bool aggregate,
    std::uint64_t buffer_bytes) const {
  const std::uint32_t n = num_devices();
  if (bytes.size() != n || rows.size() != n) {
    throw std::invalid_argument(
        "Interconnect::scatter: traffic matrices must have one row per "
        "device");
  }
  if (buffer_bytes == 0) {
    throw std::invalid_argument(
        "Interconnect::scatter: buffer_bytes must be >= 1");
  }
  ScatterModel m;
  m.per_device_ms.assign(n, 0.0);
  for (std::uint32_t d = 0; d < n; ++d) {
    if (bytes[d].size() != n || rows[d].size() != n) {
      throw std::invalid_argument(
          "Interconnect::scatter: traffic matrices must be N x N");
    }
    double intra_ms = 0.0, inter_ms = 0.0;
    for (std::uint32_t o = 0; o < n; ++o) {
      if (o == d) continue;
      const std::uint64_t b = bytes[d][o];
      const std::uint64_t msgs =
          aggregate ? (b == 0 ? 0 : (b + buffer_bytes - 1) / buffer_bytes)
                    : rows[d][o];
      if (b == 0 && msgs == 0) continue;
      const double ms = link(d, o).transfer_ms(b, msgs);
      TransferStats& level = same_host(d, o) ? m.intra : m.inter;
      level.bytes += b;
      level.messages += msgs;
      (same_host(d, o) ? intra_ms : inter_ms) += ms;
    }
    // Each device serializes its own incoming messages across both levels.
    m.per_device_ms[d] = intra_ms + inter_ms;
    m.intra.time_ms = std::max(m.intra.time_ms, intra_ms);
    m.inter.time_ms = std::max(m.inter.time_ms, inter_ms);
    m.total.time_ms = std::max(m.total.time_ms, m.per_device_ms[d]);
  }
  m.total.bytes = m.intra.bytes + m.inter.bytes;
  m.total.messages = m.intra.messages + m.inter.messages;
  return m;
}

TransferStats Interconnect::all_reduce(std::uint64_t bytes_per_device) const {
  TransferStats t;
  if (num_devices() <= 1) return t;  // nothing to exchange
  const std::uint32_t per_host = spec_.host.devices;
  const std::uint32_t hosts = spec_.hosts;
  // Reduce tree up + broadcast tree down within every host (hosts run in
  // parallel; per_host == 1 contributes nothing).
  const std::uint32_t intra_steps = tree_steps(per_host);
  t.bytes = 2ull * hosts * (per_host - 1) * bytes_per_device;
  t.messages = 2ull * hosts * (per_host - 1);
  t.time_ms = 2.0 * intra_steps * spec_.host.intra.transfer_ms(bytes_per_device);
  // One recursive-doubling exchange among the host leaders: every host sends
  // one payload per step, ceil(log2 hosts) steps on the critical path.
  const std::uint32_t inter_steps = tree_steps(hosts);
  t.bytes += static_cast<std::uint64_t>(hosts) * inter_steps * bytes_per_device;
  t.messages += static_cast<std::uint64_t>(hosts) * inter_steps;
  t.time_ms += inter_steps * spec_.inter.transfer_ms(bytes_per_device);
  return t;
}

}  // namespace tcgpu::simt
