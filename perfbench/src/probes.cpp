#include "probes.hpp"

#include <span>
#include <stdexcept>

#include "harness.hpp"
#include "hv/audit.hpp"
#include "hv/layout.hpp"
#include "hv/recovery.hpp"
#include "sim/mmu.hpp"

namespace perfbench {

using namespace ii;

LayerProbes probe_layers(hv::Hypervisor& vmm, hv::DomainId guest,
                         const std::function<void()>& rewind) {
  rewind();
  const hv::Domain& dom = vmm.domain(guest);
  const sim::Mfn root = dom.cr3();
  const sim::Vaddr va = hv::guest_directmap_vaddr(hv::kFirstFreePfn);
  const sim::Mmu mmu{vmm.memory()};
  const auto leaf_walk = mmu.walk(root, va);
  const auto data_mfn = dom.p2m(hv::kFirstFreePfn);
  if (!leaf_walk || !data_mfn) {
    throw std::runtime_error{"probe: guest directmap is not mapped"};
  }
  const sim::WalkStep leaf = leaf_walk.value().steps.back();
  const sim::Paddr data = sim::mfn_to_paddr(*data_mfn);
  std::uint64_t stamp = 0;
  unsigned faults = 0;

  LayerProbes out;
  constexpr unsigned kWalksPerSample = 64;
  out.walk_s = time_per_call(
                   [&] {
                     for (unsigned i = 0; i < kWalksPerSample; ++i) {
                       faults += mmu.walk(root, va).has_value() ? 0 : 1;
                     }
                   },
                   50, 0.05) /
               kWalksPerSample;

  const hv::MmuUpdate rewrite{
      (sim::mfn_to_paddr(leaf.table).raw() + leaf.index * 8ULL) |
          hv::kMmuNormalPtUpdate,
      leaf.entry.raw()};
  out.validate_s = time_per_call(
      [&] {
        faults += vmm.hypercall_mmu_update(guest, std::span{&rewrite, 1}) ==
                          hv::kOk
                      ? 0
                      : 1;
      },
      50, 0.05);
  rewind();

  out.hash_s = time_per_call(
      [&] {
        vmm.memory().write_u64(data, ++stamp);
        (void)vmm.state_hash();
      },
      10, 0.1);
  out.rewind_s = time_per_call(
      [&] {
        vmm.memory().write_u64(data, ++stamp);
        rewind();
      },
      10, 0.1);
  rewind();

  out.audit_s = time_per_call(
      [&] {
        const hv::SystemWalk walk = hv::walk_system(vmm);
        faults += hv::InvariantAuditor{vmm}.audit(walk).clean() ? 0 : 1;
        faults += hv::audit_system(vmm, walk).clean() ? 0 : 1;
      },
      10, 0.1);
  out.invariant_audit_s = time_per_call(
      [&] {
        const hv::SystemWalk walk = hv::walk_system(vmm);
        faults += hv::InvariantAuditor{vmm}.audit(walk).clean() ? 0 : 1;
      },
      10, 0.1);
  if (faults != 0) {
    throw std::runtime_error{"probe: a probed call failed on a clean machine"};
  }
  return out;
}

}  // namespace perfbench
