// Metered memory access kinds recorded during simulated kernel execution.
//
// Every metered memory operation a lane issues (global/shared,
// load/store/atomic) is recorded once, through ThreadCtx, into the
// WarpAggregator as (lane, address, call site, kind, size). The aggregator
// bins it into its warp instruction on the spot — the lane's k-th access at
// a call site joins every other lane's k-th access there — so no per-lane
// event list is ever kept (see warp_trace.hpp).
//
// A call site has one access shape per aggregation unit: the aggregator
// stores the kind and size once per site and rejects a second shape at the
// same site with a std::logic_error naming the site id.
#pragma once

#include <cstdint>

namespace tcgpu::simt {

/// Classification of a metered memory operation.
enum class AccessKind : std::uint8_t {
  kGlobalLoad = 0,
  kGlobalStore = 1,
  kGlobalAtomic = 2,
  kSharedLoad = 3,
  kSharedStore = 4,
  kSharedAtomic = 5,
};

}  // namespace tcgpu::simt
