// Grant tables: Xen's controlled page-sharing mechanism, v1 and v2.
//
// Why this substrate exists in an intrusion-injection reproduction: the
// paper's §IV-B derives its intrusion-model discussion from two grant-table
// advisories — XSA-387 (v2 status pages not released on downgrade to v1)
// and XSA-393 — whose common abusive functionality is *Keep Page Access*:
// "a malicious guest can retain access to Xen pages even after they are
// used for other purposes". This module implements enough of the grant ABI
// to host that model: per-domain grant entries, map/unmap by peers with
// frame reference accounting, the v2 status frames, and the version-switch
// path whose missing release is the modelled bug.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "hv/frame_table.hpp"

namespace ii::hv {

class Hypervisor;

using GrantRef = std::uint32_t;
using GrantHandle = std::uint32_t;

/// One grant entry: `owner` permits `peer` to map `pfn`.
struct GrantEntry {
  DomainId peer = kDomInvalid;
  sim::Pfn pfn{};
  bool readonly = false;
  bool in_use = false;   ///< granted and not yet revoked
  std::uint32_t maps = 0;  ///< live mappings by the peer
};

/// A live mapping created by grant_map.
struct GrantMapping {
  DomainId mapper = kDomInvalid;
  DomainId granter = kDomInvalid;
  GrantRef ref = 0;
  sim::Mfn frame{};
  bool readonly = false;
};

/// Per-domain grant-table state.
class GrantTable {
 public:
  static constexpr std::uint32_t kMaxEntries = 64;

  [[nodiscard]] unsigned version() const { return version_; }
  [[nodiscard]] const std::vector<GrantEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] const std::vector<sim::Mfn>& status_frames() const {
    return status_frames_;
  }

 private:
  friend class GrantOps;
  unsigned version_ = 1;
  std::vector<GrantEntry> entries_{kMaxEntries};
  /// v2 only: Xen-owned frames holding grant status words, mapped into the
  /// guest while v2 is active.
  std::vector<sim::Mfn> status_frames_;
};

/// The grant hypercall surface. Owns all grant state; the Hypervisor
/// forwards HYPERVISOR_grant_table_op here.
class GrantOps {
 public:
  explicit GrantOps(Hypervisor& hv) : hv_{&hv} {}

  /// GNTTABOP_setup_table-ish: ensure a table exists for the domain.
  GrantTable& table_of(DomainId domain) { return tables_[domain]; }
  [[nodiscard]] const GrantTable* find_table(DomainId domain) const;

  /// Grant `peer` access to `pfn`. Returns the grant reference.
  long grant_access(DomainId caller, GrantRef ref, DomainId peer,
                    sim::Pfn pfn, bool readonly);

  /// Revoke a grant. Fails with -EBUSY while the peer still maps it.
  long end_access(DomainId caller, GrantRef ref);

  /// GNTTABOP_map_grant_ref: the peer maps the granted frame. On success
  /// `*handle` identifies the mapping and `*frame` the machine frame.
  long map_grant(DomainId caller, DomainId granter, GrantRef ref,
                 GrantHandle* handle, sim::Mfn* frame);

  /// GNTTABOP_unmap_grant_ref.
  long unmap_grant(DomainId caller, GrantHandle handle);

  /// GNTTABOP_set_version: switch between grant v1 and v2. Upgrading to v2
  /// allocates Xen-owned status frames and maps them to the guest;
  /// downgrading must release them — XSA-387's bug is skipping that release
  /// (policy.grant_v2_status_leak).
  long set_version(DomainId caller, unsigned version);

  /// Frames the domain can still reach through grant machinery: live grant
  /// mappings plus any status frames mapped to it. Used by audits: after a
  /// clean downgrade this must not contain Xen-owned frames.
  [[nodiscard]] std::vector<sim::Mfn> reachable_frames(DomainId domain) const;

  /// True while other domains hold live mappings of `granter`'s pages —
  /// what blocks domain destruction with -EBUSY.
  [[nodiscard]] bool has_foreign_mappings_of(DomainId granter) const;

  /// Domain teardown: release every mapping the domain holds and drop its
  /// table state.
  void domain_destroyed(DomainId domain);

  [[nodiscard]] const std::map<GrantHandle, GrantMapping>& mappings() const {
    return mappings_;
  }

  /// Every per-domain grant table (recovery re-derives the status-page
  /// windows and mapping refcounts from these).
  [[nodiscard]] const std::map<DomainId, GrantTable>& tables() const {
    return tables_;
  }

  /// The handle the next map_grant returns.
  [[nodiscard]] GrantHandle next_handle() const { return next_handle_; }

  /// Complete grant state for hv/snapshot.hpp. GrantTable, GrantEntry and
  /// GrantMapping are plain values, so copying the maps captures everything
  /// — including the handle counter, which is guest-visible (a restored
  /// state must hand out the same handles the original would).
  struct State {
    std::map<DomainId, GrantTable> tables;
    std::map<GrantHandle, GrantMapping> mappings;
    GrantHandle next_handle = 1;
  };
  [[nodiscard]] State state() const {
    return State{tables_, mappings_, next_handle_};
  }
  void restore(State state) {
    tables_ = std::move(state.tables);
    mappings_ = std::move(state.mappings);
    next_handle_ = state.next_handle;
  }

 private:
  Hypervisor* hv_;
  std::map<DomainId, GrantTable> tables_;
  std::map<GrantHandle, GrantMapping> mappings_;
  GrantHandle next_handle_ = 1;
};

}  // namespace ii::hv
