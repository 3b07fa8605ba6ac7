// Snapshot / restore / state_hash: the exploration substrate the bounded
// model checker (src/analysis) is built on. These tests pin the properties
// the checker relies on: restore is exact (hash round-trips), the hash is
// canonical across bookkeeping-order differences, and distinct states hash
// apart.
#include <gtest/gtest.h>

#include <algorithm>

#include "hv/audit.hpp"
#include "hv/hypervisor.hpp"
#include "hv/layout.hpp"
#include "hv/snapshot.hpp"

namespace ii::hv {
namespace {

struct Fixture {
  explicit Fixture(XenVersion version = kXen46)
      : mem{256}, hv{mem, VersionPolicy::for_version(version)} {
    dom0 = hv.create_domain("dom0", true, 16);
    guest = hv.create_domain("guest01", false, 16);
  }
  sim::Mfn guest_mfn(std::uint64_t pfn) {
    return *hv.domain(guest).p2m(sim::Pfn{pfn});
  }
  sim::PhysicalMemory mem;
  Hypervisor hv;
  DomainId dom0{}, guest{};
};

long mmu_update(Hypervisor& hv, DomainId caller, sim::Mfn table,
                unsigned slot, std::uint64_t val) {
  const MmuUpdate req{sim::mfn_to_paddr(table).raw() + 8ULL * slot, val};
  return hv.hypercall_mmu_update(caller, std::span{&req, 1});
}

TEST(Snapshot, HashIsDeterministic) {
  Fixture f;
  EXPECT_EQ(f.hv.state_hash(), f.hv.state_hash());

  // A second machine built identically hashes identically.
  Fixture g;
  EXPECT_EQ(f.hv.state_hash(), g.hv.state_hash());
}

TEST(Snapshot, RestoreRoundTripsEverything) {
  Fixture f;
  const HvSnapshot snap = f.hv.snapshot();
  EXPECT_EQ(snap.hash, f.hv.state_hash());

  // Mutate broadly: a legal PTE write, a grant version switch, an event
  // channel, then a direct memory scribble.
  const sim::Mfn l1 = f.guest_mfn(12);
  ASSERT_EQ(kOk, mmu_update(f.hv, f.guest, l1, 4, 0));
  ASSERT_EQ(kOk, f.hv.grants().set_version(f.guest, 2));
  f.mem.write_slot(f.guest_mfn(5), 0, 0xdeadbeefULL);
  EXPECT_NE(snap.hash, f.hv.state_hash());

  (void)f.hv.restore_delta(snap);
  EXPECT_EQ(snap.hash, f.hv.state_hash());
  // And the restored state behaves like the original: the unmapped slot is
  // mapped again, so a second unmap still succeeds.
  EXPECT_EQ(kOk, mmu_update(f.hv, f.guest, l1, 4, 0));
}

TEST(Snapshot, RestoreRevertsCrashFlags) {
  Fixture f;
  const HvSnapshot snap = f.hv.snapshot();
  f.hv.panic("test-induced");
  EXPECT_TRUE(f.hv.crashed());
  (void)f.hv.restore_delta(snap);
  EXPECT_FALSE(f.hv.crashed());
  EXPECT_EQ(snap.hash, f.hv.state_hash());
}

TEST(Snapshot, HashSeesFrameContentAndBookkeeping) {
  Fixture f;
  const std::uint64_t h0 = f.hv.state_hash();

  // Raw content change only (no PageInfo change).
  f.mem.write_slot(f.guest_mfn(5), 7, 0x1234);
  const std::uint64_t h1 = f.hv.state_hash();
  EXPECT_NE(h0, h1);

  // Bookkeeping-only change.
  ++f.hv.frames().info(f.guest_mfn(5)).ref_count;
  EXPECT_NE(h1, f.hv.state_hash());
}

TEST(Snapshot, PinOrderIsCanonicalized) {
  // Two machines that pin the same two tables in opposite order must hash
  // identically — the pinned list is sorted into the hash so exploration
  // order does not split equivalent states.
  Fixture a, b;
  const sim::Mfn t1 = a.guest_mfn(kFirstFreePfn.raw());
  const sim::Mfn t2 = a.guest_mfn(kFirstFreePfn.raw() + 1);
  // Zero-fill makes both frames valid empty L1 tables.
  const auto pin = [](Fixture& f, sim::Mfn mfn) {
    ASSERT_EQ(kOk, f.hv.hypercall_mmuext_op(
                       f.guest, MmuExtOp{MmuExtCmd::PinL1Table, mfn}));
  };
  // Unmap both data pages first so they are type-free and pinnable.
  for (Fixture* f : {&a, &b}) {
    const sim::Mfn l1 = f->guest_mfn(12);
    ASSERT_EQ(kOk, mmu_update(f->hv, f->guest, l1, kFirstFreePfn.raw(), 0));
    ASSERT_EQ(kOk,
              mmu_update(f->hv, f->guest, l1, kFirstFreePfn.raw() + 1, 0));
  }
  pin(a, t1);
  pin(a, t2);
  pin(b, b.guest_mfn(kFirstFreePfn.raw() + 1));
  pin(b, b.guest_mfn(kFirstFreePfn.raw()));
  EXPECT_EQ(a.hv.state_hash(), b.hv.state_hash());
}

TEST(Snapshot, ConsoleIsExcludedFromHash) {
  Fixture f;
  const std::uint64_t h0 = f.hv.state_hash();
  f.hv.log("chatter that must not split states");
  EXPECT_EQ(h0, f.hv.state_hash());
  // But restore still rewinds the console ring.
  const HvSnapshot snap = f.hv.snapshot();
  const std::size_t lines = f.hv.console().size();
  f.hv.log("post-snapshot line");
  (void)f.hv.restore_delta(snap);
  EXPECT_EQ(lines, f.hv.console().size());
}

TEST(Snapshot, RejectsForeignShape) {
  Fixture f;
  HvSnapshot snap = f.hv.snapshot();
  snap.frame_gens.push_back(sim::PhysicalMemory::kInitialGeneration);
  EXPECT_THROW((void)f.hv.restore_delta(snap), std::logic_error);
}

TEST(Snapshot, StoresOnlyWrittenFramesAndReadsTheRestAsZero) {
  Fixture f;
  const HvSnapshot snap = f.hv.snapshot();
  ASSERT_FALSE(snap.written_frames.empty());
  EXPECT_LT(snap.written_frames.size(), f.mem.frame_count());
  EXPECT_EQ(snap.written_bytes.size(),
            snap.written_frames.size() * sim::kPageSize);
  for (std::uint64_t m = 0; m < f.mem.frame_count(); ++m) {
    const bool written = snap.frame_gens[m] !=
                         sim::PhysicalMemory::kInitialGeneration;
    EXPECT_EQ(written, std::binary_search(snap.written_frames.begin(),
                                          snap.written_frames.end(), m))
        << m;
    const auto want = f.mem.frame_bytes(sim::Mfn{m});
    const auto got = snap.frame(m);
    ASSERT_EQ(got.size(), sim::kPageSize);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << m;
  }

  // A frame first written after the snapshot is rewound to zero and to
  // its initial generation, by the sweep of an unsynced restore and by the
  // logged rewind of a synced one.
  std::uint64_t fresh = 0;
  while (snap.frame_gens[fresh] != sim::PhysicalMemory::kInitialGeneration) {
    ++fresh;
  }
  const sim::Paddr word = sim::mfn_to_paddr(sim::Mfn{fresh}) + 16;
  const auto expect_rewound = [&](const char* what) {
    EXPECT_EQ(f.mem.read_u64(word), 0u) << what;
    EXPECT_EQ(f.mem.frame_generation(sim::Mfn{fresh}),
              sim::PhysicalMemory::kInitialGeneration)
        << what;
    EXPECT_EQ(f.hv.state_hash(), snap.hash) << what;
    EXPECT_EQ(f.hv.state_hash(), f.hv.state_hash_full()) << what;
  };
  f.mem.write_u64(word, 0xFEEDULL);
  const HvSnapshot later = f.hv.snapshot();  // the logs now follow `later`
  EXPECT_EQ(later.frame(fresh)[16], 0xED);
  (void)f.hv.restore_delta(snap);
  expect_rewound("unsynced restore");
  f.mem.write_u64(word, 0xFEEDULL);
  (void)f.hv.restore_delta(snap);
  expect_rewound("synced restore");
  (void)f.hv.restore_delta(later);
  EXPECT_EQ(f.mem.read_u64(word), 0xFEEDULL);
  EXPECT_EQ(f.hv.state_hash(), later.hash);
}

}  // namespace
}  // namespace ii::hv
