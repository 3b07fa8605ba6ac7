// Randomized properties of the incremental snapshot engine (DESIGN.md §10).
//
// Three invariants hold after *any* accepted-or-refused hypercall stream:
//   1. The dirty logs are complete: state_hash() (which recomputes only the
//      logged frames' terms) equals state_hash_full() (every frame).
//   2. (baseline, delta) densely describes a state: restore_delta(base,
//      delta) rebuilds it byte-identically — the full memory image, frame
//      generations, frame table, console and hash all match a full
//      snapshot taken at capture time — and restore_delta(base) rewinds
//      byte-identically to the baseline.
//   3. Every rewind flavour — to the synced baseline or to another
//      snapshot, CoW nodes — leaves memory and every
//      PageInfo equal to a machine that reached the same state another
//      way, with the same hash. Across the same steps the memoized audit
//      (walk, structural report, invariant report) equals the audit made
//      from scratch, text and order included.
// They are fuzzed with seeded generators across the three paper versions,
// so any mutation path that skips the dirty log shows up as a hash split.
// SnapshotCost pins the other half of the claim: hash, capture, rewind and
// audit do the same work on a machine eight times larger, and so do the
// first hash and the baseline of a freshly booted machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "hv/audit.hpp"
#include "hv/hypervisor.hpp"
#include "hv/recovery.hpp"
#include "hv/snapshot.hpp"

namespace ii::hv {
namespace {

struct Harness {
  explicit Harness(XenVersion version, unsigned seed)
      : mem{4096}, hv{mem, VersionPolicy::for_version(version)}, rng{seed} {
    dom0 = hv.create_domain("dom0", true, 64);
    guest = hv.create_domain("guest01", false, 128);
  }

  std::uint64_t rand_pfn() { return rng() % hv.domain(guest).nr_pages(); }

  /// One random mutation through a public hypercall surface. Accepted and
  /// refused requests are both interesting: refusals still write the
  /// console and must not desynchronize the digest cache either way.
  void random_op() {
    switch (rng() % 5) {
      case 0: {  // mmu_update on a random own-table slot
        const Domain& dom = hv.domain(guest);
        const std::uint64_t table_pfn = 124 + rng() % 4;
        const unsigned index = static_cast<unsigned>(rng() % sim::kPtEntries);
        std::uint64_t flags = sim::Pte::kPresent;
        if (rng() % 2) flags |= sim::Pte::kWritable;
        if (rng() % 2) flags |= sim::Pte::kUser;
        if (rng() % 8 == 0) flags |= sim::Pte::kPageSize;
        const sim::Pte entry =
            sim::Pte::make(*dom.p2m(sim::Pfn{rand_pfn()}), flags);
        const MmuUpdate req{
            sim::mfn_to_paddr(*dom.p2m(sim::Pfn{table_pfn})).raw() +
                index * 8,
            entry.raw()};
        (void)hv.hypercall_mmu_update(guest, {&req, 1});
        break;
      }
      case 1: {  // memory_exchange, mostly invalid
        MemoryExchange exch{};
        exch.in_extents = {sim::Pfn{rand_pfn()}};
        exch.out_extent_start =
            sim::Vaddr{kGuestKernelBase + (rng() % 64) * sim::kPageSize};
        (void)hv.hypercall_memory_exchange(guest, exch);
        break;
      }
      case 2:
        (void)hv.hypercall_console_io(
            guest, "probe " + std::to_string(rng() % 1000));
        break;
      case 3:
        (void)hv.hypercall_decrease_reservation(guest, sim::Pfn{rand_pfn()});
        break;
      default:
        (void)hv.hypercall_populate_physmap(guest, sim::Pfn{rand_pfn()});
        break;
    }
  }

  bool guest_alive() const {
    for (const DomainId id : hv.domain_ids()) {
      if (id == guest) return true;
    }
    return false;
  }

  /// One random mutation from the wider alphabet of the mixed stream:
  /// random_op() plus pins, grants and event channels. Every guest op is
  /// skipped while the guest is destroyed.
  void mixed_op() {
    if (!guest_alive()) {
      (void)hv.hypercall_console_io(dom0, "idle");
      return;
    }
    switch (rng() % 8) {
      case 0: {  // pin or unpin a table candidate at a random level
        static constexpr MmuExtCmd kCmds[] = {
            MmuExtCmd::PinL1Table, MmuExtCmd::PinL2Table,
            MmuExtCmd::PinL3Table, MmuExtCmd::PinL4Table,
            MmuExtCmd::UnpinTable};
        const MmuExtOp op{kCmds[rng() % 5],
                          *hv.domain(guest).p2m(sim::Pfn{120 + rng() % 8})};
        (void)hv.hypercall_mmuext_op(guest, op);
        break;
      }
      case 1:  // grant a page to dom0 (refs collide on purpose)
        (void)hv.grants().grant_access(guest, static_cast<GrantRef>(rng() % 4),
                                       dom0, sim::Pfn{8 + rng() % 8},
                                       rng() % 2 == 0);
        break;
      case 2: {  // dom0 maps one of them
        GrantHandle handle = 0;
        sim::Mfn frame{};
        if (hv.grants().map_grant(dom0, guest,
                                  static_cast<GrantRef>(rng() % 4), &handle,
                                  &frame) == kOk) {
          handles.push_back(handle);
        }
        break;
      }
      case 3:  // unmap a live handle, or end a grant
        if (!handles.empty() && rng() % 2 == 0) {
          (void)hv.grants().unmap_grant(dom0, handles.back());
          handles.pop_back();
        } else {
          (void)hv.grants().end_access(guest, static_cast<GrantRef>(rng() % 4));
        }
        break;
      case 4:  // grant-table version switch (allocates status frames)
        (void)hv.grants().set_version(guest, 1 + rng() % 2);
        break;
      case 5: {  // an event channel between the two domains
        unsigned port = 0;
        (void)hv.events().alloc_unbound(guest, dom0, &port);
        break;
      }
      default:
        random_op();
        break;
    }
  }

  sim::PhysicalMemory mem;
  Hypervisor hv;
  std::mt19937 rng;
  DomainId dom0{}, guest{};
  std::vector<GrantHandle> handles;  ///< dom0's live grant mappings
};

/// What a rewind must reproduce exactly: every memory byte and every
/// PageInfo, read through the public const surface (so taking one never
/// syncs a dirty log).
struct Image {
  std::vector<std::uint8_t> memory;
  std::vector<PageInfo> frames;
};

Image image_of(const Hypervisor& hv) {
  Image img;
  img.memory.resize(hv.memory().byte_size());
  hv.memory().read(sim::Paddr{0}, img.memory);
  for (std::uint64_t m = 0; m < hv.frames().frame_count(); ++m) {
    img.frames.push_back(hv.frames().info(sim::Mfn{m}));
  }
  return img;
}

/// A snapshot's memory as one dense image, every frame read through
/// HvSnapshot::frame() (stored bytes, or zeros for a frame never written).
std::vector<std::uint8_t> dense_memory(const HvSnapshot& snap) {
  std::vector<std::uint8_t> out;
  out.reserve(snap.frame_gens.size() * sim::kPageSize);
  for (std::uint64_t m = 0; m < snap.frame_gens.size(); ++m) {
    const auto bytes = snap.frame(m);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

/// The first frame whose bytes or PageInfo differ, described; "" if none.
std::string first_difference(const Image& got, const Image& want) {
  for (std::uint64_t m = 0; m < want.frames.size(); ++m) {
    const auto at = static_cast<std::ptrdiff_t>(m * sim::kPageSize);
    if (!std::equal(got.memory.begin() + at,
                    got.memory.begin() + at + sim::kPageSize,
                    want.memory.begin() + at)) {
      return "memory of frame " + std::to_string(m);
    }
    if (!(got.frames[m] == want.frames[m])) {
      return "PageInfo of frame " + std::to_string(m);
    }
  }
  return "";
}

class SnapshotDeltaProperty
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(SnapshotDeltaProperty, IncrementalHashMatchesFullRehash) {
  const auto [minor, seed] = GetParam();
  Harness h{XenVersion{4, minor}, seed};
  ASSERT_EQ(h.hv.state_hash(), h.hv.state_hash_full());
  for (int batch = 0; batch < 12; ++batch) {
    const int ops = 1 + static_cast<int>(h.rng() % 20);
    for (int i = 0; i < ops; ++i) h.random_op();
    const std::uint64_t cached = h.hv.state_hash();
    ASSERT_EQ(cached, h.hv.state_hash_full()) << "batch " << batch;
    // A second cached call must be a pure cache hit with the same value.
    ASSERT_EQ(cached, h.hv.state_hash()) << "batch " << batch;
  }
}

TEST_P(SnapshotDeltaProperty, DeltaRestoreIsByteIdenticalToFullSnapshot) {
  const auto [minor, seed] = GetParam();
  Harness h{XenVersion{4, minor}, seed + 1000};
  const HvSnapshot base = h.hv.snapshot();

  for (int round = 0; round < 4; ++round) {
    const int ops = 1 + static_cast<int>(h.rng() % 30);
    for (int i = 0; i < ops; ++i) h.random_op();

    const HvDelta delta = h.hv.snapshot_delta(base);
    const HvSnapshot full = h.hv.snapshot();
    ASSERT_EQ(delta.hash, full.hash);

    // Rewind to the baseline, then rebuild the captured state from the
    // (baseline, delta) pair alone.
    h.hv.restore_delta(base);
    EXPECT_EQ(h.hv.state_hash(), base.hash) << "round " << round;
    const HvSnapshot at_base = h.hv.snapshot();
    EXPECT_EQ(dense_memory(at_base), dense_memory(base)) << "round " << round;
    EXPECT_EQ(at_base.frame_gens, base.frame_gens) << "round " << round;

    h.hv.restore_delta(base, delta);
    EXPECT_EQ(h.hv.state_hash(), full.hash) << "round " << round;
    const HvSnapshot rebuilt = h.hv.snapshot();
    EXPECT_EQ(dense_memory(rebuilt), dense_memory(full)) << "round " << round;
    EXPECT_EQ(rebuilt.frame_gens, full.frame_gens) << "round " << round;
    EXPECT_EQ(rebuilt.frames == full.frames, true) << "round " << round;
    EXPECT_EQ(rebuilt.console, full.console) << "round " << round;
    // Continue mutating from the rebuilt state next round.
  }
}

TEST_P(SnapshotDeltaProperty, DeltaAgainstWrongBaselineIsRefused) {
  const auto [minor, seed] = GetParam();
  Harness h{XenVersion{4, minor}, seed + 2000};
  const HvSnapshot base = h.hv.snapshot();
  for (int i = 0; i < 5; ++i) h.random_op();
  const HvSnapshot other = h.hv.snapshot();
  const HvDelta delta = h.hv.snapshot_delta(other);
  if (other.mem_generation != base.mem_generation) {
    EXPECT_THROW(h.hv.restore_delta(base, delta), std::logic_error);
  }
}

Image image_of(const HvSnapshot& snap) {
  return {dense_memory(snap), snap.frames};
}

TEST_P(SnapshotDeltaProperty, DirtyLogsStayCompleteAcrossEveryRewind) {
  const auto [minor, seed] = GetParam();
  const XenVersion version{4, minor};
  Harness h{version, seed + 3000};
  const Harness cold{version, 0};      // never mutated: the boot state
  const Image boot = image_of(cold.hv);
  const std::uint64_t boot_hash = cold.hv.state_hash();
  const HvSnapshot root = h.hv.snapshot();
  ASSERT_EQ(root.hash, boot_hash);

  // The memoized audit against its oracle, the audit made from scratch.
  const auto expect_audit = [&](const std::string& what) {
    const SystemWalk walk = walk_system(h.hv);
    ASSERT_EQ(walk, walk_system_full(h.hv)) << what;
    const AuditReport structural = audit_system(h.hv, walk);
    ASSERT_EQ(structural.findings, audit_system_full(h.hv).findings) << what;
    ASSERT_EQ(InvariantAuditor{h.hv}.audit(structural).findings,
              InvariantAuditor{h.hv}.audit_full().findings)
        << what;
  };
  const auto expect_state = [&](const Image& want, std::uint64_t want_hash,
                                const std::string& what) {
    EXPECT_EQ(first_difference(image_of(h.hv), want), "") << what;
    EXPECT_EQ(h.hv.state_hash(), want_hash) << what;
    ASSERT_EQ(h.hv.state_hash(), h.hv.state_hash_full()) << what;
    expect_audit(what);
  };
  const auto some_ops = [&](int n) {
    for (int i = 0; i < n; ++i) h.mixed_op();
  };

  // Both rewind paths, deterministically: to the synced baseline, and to
  // a snapshot the logs are not synced to (taking `second` synced them to
  // it, so the rewind to root is the unsynced one, and then vice versa).
  some_ops(8);
  std::optional<HvSnapshot> second = h.hv.snapshot();
  some_ops(8);
  (void)h.hv.restore_delta(root);
  expect_state(boot, boot_hash, "unsynced restore_delta(root)");
  some_ops(8);
  (void)h.hv.restore_delta(*second);
  expect_state(image_of(*second), second->hash,
               "unsynced restore_delta(second)");
  some_ops(8);
  (void)h.hv.restore_delta(*second);
  expect_state(image_of(*second), second->hash, "synced restore_delta(second)");

  struct Node {
    HvCowState cow;
    Image image;
  };
  std::optional<Node> node;
  for (int step = 0; step < 60; ++step) {
    const std::string at = "step " + std::to_string(step);
    switch (h.rng() % 11) {
      case 0:
        (void)h.hv.restore_delta(root);
        expect_state(boot, boot_hash, at + ": restore_delta(root)");
        break;
      case 1:
        second = h.hv.snapshot();
        break;
      case 2:
        (void)h.hv.restore_delta(*second);
        expect_state(image_of(*second), second->hash,
                     at + ": restore_delta(second)");
        break;
      case 3: {
        (void)h.hv.restore_delta(root);
        const std::uint64_t marker = h.hv.memory().generation();
        some_ops(3);
        HvCowState cow = h.hv.snapshot_cow(root, nullptr, marker);
        node = Node{std::move(cow), image_of(h.hv)};
        break;
      }
      case 4:
        if (node) {
          (void)h.hv.restore_cow(root, node->cow);
          expect_state(node->image, node->cow.hash, at + ": restore_cow");
        }
        break;
      case 5:
        // Either rewind sweeps when the logs follow the other snapshot.
        if (h.rng() % 2 == 0) {
          (void)h.hv.restore_delta(root);
          expect_state(boot, boot_hash, at + ": drawn restore_delta(root)");
        } else {
          (void)h.hv.restore_delta(*second);
          expect_state(image_of(*second), second->hash,
                       at + ": drawn restore_delta(second)");
        }
        break;
      case 6:
        (void)h.hv.recover();
        break;
      case 7:
        if (h.guest_alive()) {
          (void)h.hv.hypercall_domctl_destroy(h.dom0, h.guest);
        }
        break;
      case 8: {
        // A PageInfo change with no memory write must move the hash, and
        // a rewind must undo it.
        const sim::Mfn frame{h.rng() % h.hv.frames().frame_count()};
        const std::uint64_t gen = h.hv.memory().generation();
        const std::uint64_t before = h.hv.state_hash();
        ++h.hv.frames().info(frame).type_count;
        EXPECT_EQ(h.hv.memory().generation(), gen) << at;
        EXPECT_NE(h.hv.state_hash(), before) << at;
        ASSERT_EQ(h.hv.state_hash(), h.hv.state_hash_full()) << at;
        expect_audit(at + ": PageInfo-only change");
        (void)h.hv.restore_delta(root);
        expect_state(boot, boot_hash, at + ": PageInfo-only change rewound");
        break;
      }
      default:
        some_ops(1 + static_cast<int>(h.rng() % 4));
        break;
    }
    ASSERT_EQ(h.hv.state_hash(), h.hv.state_hash_full()) << at;
    expect_audit(at);
  }
}

TEST(SnapshotDirtyLog, PageInfoOnlyChangeMovesTheHashAndIsRewound) {
  Harness h{kXen46, 5};
  const HvSnapshot root = h.hv.snapshot();
  const Image boot = image_of(h.hv);
  const sim::Mfn frame = *h.hv.domain(h.guest).p2m(sim::Pfn{20});
  const std::uint64_t gen = h.hv.memory().generation();

  ++h.hv.frames().info(frame).ref_count;
  EXPECT_EQ(h.hv.memory().generation(), gen);  // no memory write
  const std::uint64_t changed = h.hv.state_hash();
  EXPECT_NE(changed, root.hash);
  EXPECT_EQ(changed, h.hv.state_hash_full());

  // A delta carries exactly that entry and no frame.
  const HvDelta delta = h.hv.snapshot_delta(root);
  EXPECT_TRUE(delta.mem_frames.empty());
  ASSERT_EQ(delta.frames.size(), 1u);
  EXPECT_EQ(delta.frames[0].first, frame.raw());

  (void)h.hv.restore_delta(root);
  EXPECT_EQ(first_difference(image_of(h.hv), boot), "");
  EXPECT_EQ(h.hv.state_hash(), root.hash);

  (void)h.hv.restore_delta(root, delta);
  EXPECT_EQ(h.hv.state_hash(), changed);

  // The same change as a CoW node, rewound by every path.
  (void)h.hv.restore_delta(root);
  const std::uint64_t marker = h.hv.memory().generation();
  ++h.hv.frames().info(frame).ref_count;
  const HvCowState cow = h.hv.snapshot_cow(root, nullptr, marker);
  EXPECT_TRUE(cow.mem_frames.empty());
  ASSERT_EQ(cow.frames.size(), 1u);
  (void)h.hv.restore_delta(root);
  EXPECT_EQ(first_difference(image_of(h.hv), boot), "");
  EXPECT_EQ(h.hv.state_hash(), root.hash);
  (void)h.hv.restore_cow(root, cow);
  EXPECT_EQ(h.hv.state_hash(), changed);
  EXPECT_EQ(h.hv.state_hash(), h.hv.state_hash_full());
  (void)h.hv.restore_delta(root);
  EXPECT_EQ(first_difference(image_of(h.hv), boot), "");
}

TEST(SnapshotDirtyLog, RefcountPassFollowsTheLogAndEachBaseline) {
  // The memoized refcount pass reads the PageInfos logged since the synced
  // baseline plus the frames that may fail at that baseline. Each step
  // below is one way to miss a finding if either set is wrong; after every
  // audit the report must equal the pass over every frame.
  Harness h{kXen46, 9};
  const sim::Mfn frame = *h.hv.domain(h.guest).p2m(sim::Pfn{20});
  const sim::Mfn other = *h.hv.domain(h.guest).p2m(sim::Pfn{21});
  const std::uint32_t refs = h.hv.frames().info(frame).ref_count;
  const auto expect_oracle = [&](const std::string& what) {
    const InvariantReport memo = InvariantAuditor{h.hv}.audit();
    EXPECT_TRUE(memo.violated(Invariant::RefcountConsistency)) << what;
    EXPECT_EQ(memo.findings, InvariantAuditor{h.hv}.audit_full().findings)
        << what;
  };

  // A baseline with a finding: an allocated frame with no existence ref.
  h.hv.frames().info(frame).ref_count = 0;
  const HvSnapshot base = h.hv.snapshot();
  const InvariantReport at_base = InvariantAuditor{h.hv}.audit_full();
  ASSERT_TRUE(at_base.violated(Invariant::RefcountConsistency));

  // The first audit against it sees the frame repaired, and only logged.
  h.hv.frames().info(frame).ref_count = refs;
  EXPECT_TRUE(InvariantAuditor{h.hv}.audit().clean());
  // A finding made since the baseline is found through the log.
  h.hv.frames().info(other).ref_count = 0;
  expect_oracle("finding made since the baseline");
  // Back at the baseline the frame is no longer logged, yet its finding
  // is back.
  (void)h.hv.restore_delta(base);
  EXPECT_EQ(InvariantAuditor{h.hv}.audit().findings, at_base.findings);
  // A new baseline with a finding the old one lacked.
  h.hv.frames().info(other).ref_count = 0;
  (void)h.hv.snapshot();  // the synced baseline from here on
  expect_oracle("new baseline");
}

/// The SnapshotStats of each step of one fixed scenario — one dirty frame,
/// then one PageInfo-changing hypercall, each followed by an audit — on a
/// machine of `frames` frames. The baseline's first audit, which reads
/// every PageInfo once, comes before the steps.
std::vector<SnapshotStats> work_of_one_dirty_frame(std::uint64_t frames) {
  sim::PhysicalMemory mem{frames};
  Hypervisor hv{mem, VersionPolicy::for_version(kXen46)};
  (void)hv.create_domain("dom0", true, 64);
  const DomainId guest = hv.create_domain("guest01", false, 128);
  // Rewinds rebuild the Domain objects, so keep MFNs, not references.
  const sim::Mfn data_mfn = *hv.domain(guest).p2m(sim::Pfn{20});
  const sim::Mfn l1_mfn = *hv.domain(guest).p2m(sim::Pfn{124});
  const sim::Paddr data = sim::mfn_to_paddr(data_mfn);
  const HvSnapshot base = hv.snapshot();
  hv.reset_snapshot_stats();
  EXPECT_TRUE(InvariantAuditor{hv}.audit().clean()) << frames << " frames";
  EXPECT_EQ(hv.snapshot_stats().page_infos_checked, frames);

  std::vector<SnapshotStats> work;
  const auto step = [&](const auto& fn) {
    hv.reset_snapshot_stats();
    fn();
    work.push_back(hv.snapshot_stats());
  };
  const auto audit = [&] {
    EXPECT_TRUE(InvariantAuditor{hv}.audit().clean()) << frames << " frames";
  };
  HvCowState cow;
  step([&] {
    mem.write_u64(data, 1);
    (void)hv.state_hash();
  });
  step(audit);
  step([&] { (void)hv.restore_delta(base); });
  step([&] {
    const std::uint64_t marker = mem.generation();
    mem.write_u64(data, 2);
    cow = hv.snapshot_cow(base, nullptr, marker);
  });
  step([&] { (void)hv.snapshot_delta(base); });
  step([&] { (void)hv.restore_delta(base); });
  step([&] { (void)hv.restore_cow(base, cow); });
  step([&] {
    // Map guest page 20 writable at a free slot of the guest's L1: one
    // table write plus a type reference on the target frame.
    const sim::Pte pte = sim::Pte::make(
        data_mfn, sim::Pte::kPresent | sim::Pte::kWritable | sim::Pte::kUser);
    const MmuUpdate req{sim::mfn_to_paddr(l1_mfn).raw() + 200 * 8,
                        pte.raw()};
    EXPECT_EQ(hv.hypercall_mmu_update(guest, {&req, 1}), kOk);
    (void)hv.state_hash();
  });
  step(audit);
  step([&] { (void)hv.restore_delta(base); });
  step(audit);
  return work;
}

std::string describe(const SnapshotStats& s) {
  return "visited " + std::to_string(s.frames_visited) + ", rehashed " +
         std::to_string(s.frames_rehashed) + ", cached " +
         std::to_string(s.frames_hash_cached) + ", copied " +
         std::to_string(s.frames_copied) + ", cow copied " +
         std::to_string(s.cow_frames_copied) + ", delta captured " +
         std::to_string(s.frames_delta_captured) + ", tables parsed " +
         std::to_string(s.tables_parsed) + ", PageInfos checked " +
         std::to_string(s.page_infos_checked);
}

TEST(SnapshotCost, WorkIsIndependentOfMachineSize) {
  // "O(dirty)" as a checked claim: on machines 8x apart, hash, capture,
  // rewind and audit report identical work — exact counts, not timings.
  const std::vector<SnapshotStats> small = work_of_one_dirty_frame(4096);
  const std::vector<SnapshotStats> large = work_of_one_dirty_frame(32768);
  ASSERT_EQ(small.size(), large.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_TRUE(small[i] == large[i])
        << "step " << i << ": " << describe(small[i]) << " vs "
        << describe(large[i]);
    EXPECT_LE(small[i].frames_visited, 16u)
        << "step " << i << ": " << describe(small[i]);
    EXPECT_LE(small[i].page_infos_checked, 16u)
        << "step " << i << ": " << describe(small[i]);
  }
  // The data-frame write left every table alone, so its audit walked
  // nothing; the mmu_update rewrote the guest's L1, so the audit after it
  // walked the guest's tables again, and so did the audit after the
  // rewind that gave that L1 back its baseline generation.
  const auto audit_after = [&](std::size_t step) {
    return small.at(step + 1);
  };
  EXPECT_EQ(audit_after(0).tables_parsed, 0u);
  EXPECT_GT(audit_after(7).tables_parsed, 0u);
  EXPECT_GT(audit_after(7).page_infos_checked, 0u);
  EXPECT_GT(audit_after(9).tables_parsed, 0u);
}

/// Boot a machine of `frames` frames exactly as work_of_one_dirty_frame
/// does, then take its first hash and its baseline.
struct BootCost {
  std::uint64_t first_hash_rehashed = 0;
  std::uint64_t baseline_stored = 0;
  /// The baseline stored exactly the frames holding a non-zero byte.
  bool stored_only_nonzero = false;
};

BootCost boot_cost(std::uint64_t frames) {
  sim::PhysicalMemory mem{frames};
  Hypervisor hv{mem, VersionPolicy::for_version(kXen46)};
  (void)hv.create_domain("dom0", true, 64);
  (void)hv.create_domain("guest01", false, 128);
  BootCost cost;
  hv.reset_snapshot_stats();
  const std::uint64_t first = hv.state_hash();
  cost.first_hash_rehashed = hv.snapshot_stats().frames_rehashed;
  EXPECT_EQ(first, hv.state_hash_full()) << frames << " frames";
  const HvSnapshot base = hv.snapshot();
  cost.baseline_stored = base.written_frames.size();
  EXPECT_EQ(base.hash, first) << frames << " frames";
  std::vector<std::uint64_t> nonzero;
  for (std::uint64_t m = 0; m < frames; ++m) {
    const auto bytes = mem.frame_bytes(sim::Mfn{m});
    if (std::any_of(bytes.begin(), bytes.end(),
                    [](std::uint8_t b) { return b != 0; })) {
      nonzero.push_back(m);
    }
  }
  cost.stored_only_nonzero = base.written_frames == nonzero;
  return cost;
}

TEST(SnapshotCost, FirstHashAndBaselineCostWhatBootWrote) {
  // Boot writes the same frames on machines 8x apart, and the first hash
  // digests and the baseline stores exactly those: every other frame is
  // still at its initial generation, so it is zero and is neither read nor
  // copied. Zeroing a frame that was never written stamps nothing, so the
  // domain builder's scrub of every domain page counts for no frame: the
  // frames stored are exactly the frames holding a non-zero byte.
  const BootCost small = boot_cost(4096);
  const BootCost large = boot_cost(32768);
  EXPECT_EQ(small.first_hash_rehashed, large.first_hash_rehashed);
  EXPECT_EQ(small.baseline_stored, large.baseline_stored);
  EXPECT_EQ(small.first_hash_rehashed, small.baseline_stored);
  EXPECT_GT(small.baseline_stored, 0u);
  EXPECT_LT(small.baseline_stored, 4096u / 8);
  EXPECT_TRUE(small.stored_only_nonzero) << small.baseline_stored << " stored";
  EXPECT_TRUE(large.stored_only_nonzero) << large.baseline_stored << " stored";
}

INSTANTIATE_TEST_SUITE_P(
    Versions, SnapshotDeltaProperty,
    ::testing::Combine(::testing::Values(6, 8, 13),
                       ::testing::Values(1u, 7u, 42u)));

}  // namespace
}  // namespace ii::hv
