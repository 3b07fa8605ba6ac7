// Event channels: Xen's virtual-interrupt mechanism.
//
// Why this substrate exists here: Table I's Non-Memory class ("Induce a
// Hang State", "Uncontrolled Arbitrary Interrupts Requests") and the
// paper's §IX-C plan of "expanding our prototype to cover IMs related with
// malicious interrupts" both target interrupt machinery — which in Xen is
// *memory-backed*: pending/mask bits live in the guest's shared_info page.
// That makes interrupt-state intrusions injectable with the same
// arbitrary-access hypercall as the memory use cases.
//
// The model: 512 ports per domain; pending and mask bitmaps in the
// shared_info page (guest pseudo-physical page kSharedInfoPfn); an
// interdomain bind/send path; and the hypervisor-side delivery loop whose
// pre-4.13 behaviour re-queues events for ports without a registered
// handler — the modelled availability weakness that turns an injected
// pending-bit storm into a livelocked CPU.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "hv/frame_table.hpp"

namespace ii::hv {

class Hypervisor;

/// Layout of event state inside the shared_info page.
struct SharedInfoLayout {
  static constexpr unsigned kPorts = 512;
  static constexpr std::uint64_t kPendingOffset = 0x000;  ///< 8 u64 words
  static constexpr std::uint64_t kMaskOffset = 0x040;     ///< 8 u64 words
};

class EventChannelOps {
 public:
  explicit EventChannelOps(Hypervisor& hv) : hv_{&hv} {}

  /// EVTCHNOP_alloc_unbound: reserve a local port that `remote` may bind.
  long alloc_unbound(DomainId owner, DomainId remote, unsigned* port);

  /// EVTCHNOP_bind_interdomain: connect a fresh local port to the remote's
  /// unbound port.
  long bind_interdomain(DomainId caller, DomainId remote,
                        unsigned remote_port, unsigned* local_port);

  /// EVTCHNOP_send: raise the event on the peer end of a bound port — sets
  /// the peer's pending bit in its shared_info page.
  long send(DomainId caller, unsigned port);

  /// Guest-side: register an upcall handler for a local port.
  long register_handler(DomainId domain, unsigned port);

  /// Guest-side: mask/unmask a port (writes the shared_info mask bit).
  long set_mask(DomainId domain, unsigned port, bool masked);

  [[nodiscard]] bool pending(DomainId domain, unsigned port) const;

  /// Hypervisor delivery loop for one domain. Clears pending bits of
  /// handled ports and invokes nothing (delivery is counted, not executed).
  /// Ports with no handler: dropped on hardened versions, re-queued on
  /// older ones — where a storm of injected bits livelocks the loop and
  /// wedges the CPU (hv.cpu_hung()).
  struct DispatchResult {
    unsigned delivered = 0;
    unsigned dropped = 0;
    bool livelocked = false;
  };
  DispatchResult dispatch(DomainId domain, unsigned max_passes = 8);

  [[nodiscard]] std::uint64_t total_sent() const { return total_sent_; }

  /// Domain teardown: drop its ports and unbind any peers.
  void domain_destroyed(DomainId domain);

  /// One event-channel port's hypervisor-side state.
  struct Port {
    bool allocated = false;
    DomainId remote = kDomInvalid;  ///< allowed binder while unbound
    bool bound = false;
    DomainId peer_domain = kDomInvalid;
    unsigned peer_port = 0;
  };

  /// Complete port/handler state for hv/snapshot.hpp (pending/mask bits
  /// live in guest memory and are captured with the memory image).
  struct State {
    std::map<DomainId, std::map<unsigned, Port>> ports;
    std::set<std::pair<DomainId, unsigned>> handlers;
    std::map<DomainId, unsigned> next_port;
    std::uint64_t total_sent = 0;
  };
  [[nodiscard]] State state() const {
    return State{ports_, handlers_, next_port_, total_sent_};
  }
  /// In-place views of the port and handler maps (what state() copies).
  [[nodiscard]] const std::map<DomainId, std::map<unsigned, Port>>& ports()
      const {
    return ports_;
  }
  [[nodiscard]] const std::set<std::pair<DomainId, unsigned>>& handlers()
      const {
    return handlers_;
  }
  void restore(State state) {
    ports_ = std::move(state.ports);
    handlers_ = std::move(state.handlers);
    next_port_ = std::move(state.next_port);
    total_sent_ = state.total_sent;
  }

 private:
  [[nodiscard]] sim::Paddr shared_info_of(DomainId domain) const;
  void set_pending_bit(DomainId domain, unsigned port);

  Hypervisor* hv_;
  std::map<DomainId, std::map<unsigned, Port>> ports_;
  std::set<std::pair<DomainId, unsigned>> handlers_;
  std::map<DomainId, unsigned> next_port_;
  std::uint64_t total_sent_ = 0;
};

}  // namespace ii::hv
