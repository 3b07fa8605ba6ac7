// Probes: the per-call cost of one layer's public function, timed on a
// machine of a workload's shape. Used where a driver's loop is internal and
// the benchmark cannot put its own span around each call; every value is
// reported as an estimate beside the program's own count.
#pragma once

#include <functional>

#include "hv/hypervisor.hpp"

namespace perfbench {

/// Median seconds per call.
struct LayerProbes {
  double walk_s = 0;      ///< sim::Mmu::walk of a guest directmap address
  double validate_s = 0;  ///< one validated mmu_update (same PTE rewritten)
  double hash_s = 0;      ///< state_hash() with one dirty frame
  double rewind_s = 0;    ///< `rewind` with one dirty frame
  double audit_s = 0;     ///< walk_system + InvariantAuditor + audit_system
  double invariant_audit_s = 0;  ///< walk_system + InvariantAuditor only
};

/// Probe every layer on `vmm`, issuing guest calls as `guest`. `rewind`
/// returns the machine to its baseline; it is called before the first probe
/// and after every probe that changes state, so the machine is left at its
/// baseline.
[[nodiscard]] LayerProbes probe_layers(ii::hv::Hypervisor& vmm,
                                       ii::hv::DomainId guest,
                                       const std::function<void()>& rewind);

}  // namespace perfbench
