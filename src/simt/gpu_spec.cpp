#include "simt/gpu_spec.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tcgpu::simt {

GpuSpec GpuSpec::v100() {
  GpuSpec s;
  s.name = "Tesla V100";
  s.sm_count = 80;
  s.shared_mem_per_block = 48 * 1024;
  s.clock_ghz = 1.38;
  s.mem_bandwidth_gbps = 900.0;
  return s;
}

GpuSpec GpuSpec::rtx4090() {
  GpuSpec s;
  s.name = "RTX 4090";
  s.sm_count = 144;  // per the paper's platform description
  s.shared_mem_per_block = 100 * 1024;
  s.clock_ghz = 2.52;
  s.mem_bandwidth_gbps = 1008.0;
  return s;
}

InterconnectSpec InterconnectSpec::nvlink() {
  InterconnectSpec s;
  s.name = "nvlink";
  s.peer_bandwidth_gbps = 25.0;
  s.latency_us = 1.9;
  return s;
}

InterconnectSpec InterconnectSpec::pcie3() {
  InterconnectSpec s;
  s.name = "pcie3";
  s.peer_bandwidth_gbps = 12.0;  // achieved, not the 15.75 theoretical
  s.latency_us = 10.0;
  return s;
}

InterconnectSpec InterconnectSpec::eth10g() {
  InterconnectSpec s;
  s.name = "eth10g";
  s.peer_bandwidth_gbps = 1.1;  // achieved over TCP, not the 1.25 line rate
  s.latency_us = 30.0;
  return s;
}

InterconnectSpec InterconnectSpec::ib_edr() {
  InterconnectSpec s;
  s.name = "ib-edr";
  s.peer_bandwidth_gbps = 11.0;  // achieved, not the 12.5 line rate
  s.latency_us = 2.5;
  return s;
}

InterconnectSpec interconnect_spec_from_string(const std::string& name) {
  if (name == "nvlink") return InterconnectSpec::nvlink();
  if (name == "pcie3") return InterconnectSpec::pcie3();
  if (name == "eth10g") return InterconnectSpec::eth10g();
  if (name == "ib-edr") return InterconnectSpec::ib_edr();
  throw std::invalid_argument("unknown interconnect '" + name +
                              "' (valid: " + valid_interconnect_list() + ")");
}

std::string valid_interconnect_list() { return "nvlink, pcie3, eth10g, ib-edr"; }

std::optional<ClusterSpec> ClusterSpec::slice(std::uint32_t width) const {
  for (std::uint32_t h = 1; h <= std::min(hosts, width); ++h) {
    if (width % h != 0 || width / h > host.devices) continue;
    ClusterSpec c = *this;
    c.hosts = h;
    c.host.devices = width / h;
    return c;
  }
  return std::nullopt;
}

ClusterSpec ClusterSpec::single_host(std::uint32_t devices, InterconnectSpec link) {
  ClusterSpec c;
  c.name = "single-host";
  c.hosts = 1;
  c.host.devices = devices;
  c.host.intra = std::move(link);
  return c;
}

ClusterSpec ClusterSpec::ethernet(std::uint32_t hosts,
                                  std::uint32_t devices_per_host) {
  ClusterSpec c;
  c.name = "eth10g";
  c.hosts = hosts;
  c.host.devices = devices_per_host;
  c.inter = InterconnectSpec::eth10g();
  return c;
}

ClusterSpec ClusterSpec::infiniband(std::uint32_t hosts,
                                    std::uint32_t devices_per_host) {
  ClusterSpec c;
  c.name = "ib-edr";
  c.hosts = hosts;
  c.host.devices = devices_per_host;
  c.inter = InterconnectSpec::ib_edr();
  return c;
}

}  // namespace tcgpu::simt
