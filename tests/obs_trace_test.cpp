// Trace ring and sink semantics: overflow/wrap, category filtering,
// sequence numbering, per-hypercall counters.
#include <gtest/gtest.h>

#include <vector>

#include "obs/trace.hpp"

namespace ii::obs {
namespace {

TEST(TraceRing, OverflowKeepsNewestAndCountsLost) {
  TraceRing ring{4};
  for (std::uint64_t i = 0; i < 6; ++i) {
    ring.push(TraceEvent{i, TraceCategory::HypercallEnter, 1,
                         static_cast<std::uint32_t>(i), 0, 0});
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.overwritten(), 2u);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first; the two oldest (seq 0, 1) were overwritten.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 2);
    EXPECT_EQ(events[i].code, i + 2);
  }
}

TEST(TraceRing, PartiallyFilledSnapshotsInOrder) {
  TraceRing ring{8};
  ring.push(TraceEvent{0, TraceCategory::Panic});
  ring.push(TraceEvent{1, TraceCategory::CpuHang});
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.overwritten(), 0u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].category, TraceCategory::Panic);
  EXPECT_EQ(events[1].category, TraceCategory::CpuHang);
}

TEST(TraceRing, ClearResets) {
  TraceRing ring{2};
  ring.push(TraceEvent{});
  ring.push(TraceEvent{});
  ring.push(TraceEvent{});
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, RefillsAfterClearAndOverwritesOldestFirst) {
  TraceRing ring{5};
  const auto push = [&](std::uint64_t seq) {
    ring.push(TraceEvent{seq, TraceCategory::GrantOp, 1,
                         static_cast<std::uint32_t>(seq), 0, 0});
  };
  const auto seqs = [&] {
    std::vector<std::uint64_t> out;
    for (const TraceEvent& e : ring.snapshot()) out.push_back(e.seq);
    return out;
  };
  using Seqs = std::vector<std::uint64_t>;

  // Part-grown, cleared, then pushed past capacity: the ring grows to its
  // capacity and then overwrites its oldest events.
  for (std::uint64_t s = 0; s < 3; ++s) push(s);
  ring.clear();
  for (std::uint64_t s = 100; s < 107; ++s) push(s);
  EXPECT_EQ(ring.capacity(), 5u);
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.recorded(), 7u);
  EXPECT_EQ(ring.overwritten(), 2u);
  EXPECT_EQ(seqs(), (Seqs{102, 103, 104, 105, 106}));

  // Wrapped, cleared, then refilled part-way and past capacity again.
  ring.clear();
  push(200);
  push(201);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.overwritten(), 0u);
  EXPECT_EQ(seqs(), (Seqs{200, 201}));
  for (std::uint64_t s = 202; s < 213; ++s) push(s);
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.recorded(), 13u);
  EXPECT_EQ(ring.overwritten(), 8u);
  EXPECT_EQ(seqs(), (Seqs{208, 209, 210, 211, 212}));
}

TEST(TraceRing, ZeroCapacityClampsToOne) {
  TraceRing ring{0};
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(TraceEvent{7, TraceCategory::Injection});
  EXPECT_EQ(ring.snapshot().at(0).seq, 7u);
}

TEST(TraceSink, CategoryMaskFiltersRingButNotCounters) {
  TraceSink sink{16, category_bit(TraceCategory::HypercallEnter)};
  sink.emit(TraceCategory::HypercallEnter, 1, /*code=*/12);
  sink.emit(TraceCategory::HypercallExit, 1, /*code=*/12, /*rc=*/0);
  sink.emit(TraceCategory::GrantOp, 1, /*code=*/3);

  // Aggregate counters always advance...
  EXPECT_EQ(sink.emitted(), 3u);
  EXPECT_EQ(sink.count(TraceCategory::HypercallEnter), 1u);
  EXPECT_EQ(sink.count(TraceCategory::HypercallExit), 1u);
  EXPECT_EQ(sink.count(TraceCategory::GrantOp), 1u);
  // ...but only masked-in categories reach the ring.
  const auto events = sink.ring().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].category, TraceCategory::HypercallEnter);
  EXPECT_EQ(events[0].seq, 0u);
}

TEST(TraceSink, SequenceNumbersAreGaplessAcrossMaskedEmits) {
  TraceSink sink{16, category_bit(TraceCategory::HypercallExit)};
  sink.emit(TraceCategory::HypercallEnter, 1, 1);  // seq 0, masked out
  sink.emit(TraceCategory::HypercallExit, 1, 1);   // seq 1, recorded
  sink.emit(TraceCategory::HypercallEnter, 1, 1);  // seq 2, masked out
  sink.emit(TraceCategory::HypercallExit, 1, 1);   // seq 3, recorded
  const auto events = sink.ring().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // The sequence counter names the emit, not the ring slot: masked events
  // leave visible gaps, keeping cross-mask traces comparable.
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 3u);
}

TEST(TraceSink, ZeroMaskCountsOnly) {
  TraceSink sink{16, 0};
  for (int i = 0; i < 5; ++i) sink.emit(TraceCategory::MmuWalk, kNoDomain);
  EXPECT_EQ(sink.count(TraceCategory::MmuWalk), 5u);
  EXPECT_EQ(sink.ring().size(), 0u);
}

TEST(TraceSink, PerHypercallCountersSumToEnterEvents) {
  TraceSink sink;
  sink.emit(TraceCategory::HypercallEnter, 1, 1);
  sink.emit(TraceCategory::HypercallExit, 1, 1);
  sink.emit(TraceCategory::HypercallEnter, 1, 1);
  sink.emit(TraceCategory::HypercallExit, 1, 1);
  sink.emit(TraceCategory::HypercallEnter, 2, 12);
  sink.emit(TraceCategory::HypercallExit, 2, 12, -22);

  EXPECT_EQ(sink.hypercall_count(1), 2u);
  EXPECT_EQ(sink.hypercall_count(12), 1u);
  std::uint64_t total = 0;
  for (const std::uint64_t n : sink.hypercall_counts()) total += n;
  EXPECT_EQ(total, sink.count(TraceCategory::HypercallEnter));
}

TEST(TraceSink, OutOfRangeHypercallNrIsSafe) {
  TraceSink sink;
  sink.emit(TraceCategory::HypercallEnter, 1, TraceSink::kMaxHypercallNr + 7);
  EXPECT_EQ(sink.count(TraceCategory::HypercallEnter), 1u);
  EXPECT_EQ(sink.hypercall_count(TraceSink::kMaxHypercallNr + 7), 0u);
}

TEST(TraceCategoryNames, StableStrings) {
  EXPECT_EQ(to_string(TraceCategory::HypercallEnter), "hypercall_enter");
  EXPECT_EQ(to_string(TraceCategory::Panic), "panic");
  EXPECT_EQ(to_string(TraceCategory::GrantOp), "grant_op");
  EXPECT_EQ(to_string(TraceCategory::EventChannel), "event_channel");
}

TEST(TraceCategoryMask, BitsAreDistinctAndCovered) {
  std::uint32_t seen = 0;
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    const std::uint32_t bit = category_bit(static_cast<TraceCategory>(c));
    EXPECT_EQ(seen & bit, 0u);
    seen |= bit;
  }
  EXPECT_EQ(seen, kAllCategories);
}

}  // namespace
}  // namespace ii::obs
