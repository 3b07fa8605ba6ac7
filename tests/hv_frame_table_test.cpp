// Unit tests for frame ownership/type tracking and the frame allocator.
#include <gtest/gtest.h>

#include <vector>

#include "hv/frame_table.hpp"

namespace ii::hv {
namespace {

TEST(FrameTable, AllocSetsOwnerAndRef) {
  FrameTable ft{8};
  const auto mfn = ft.alloc(3);
  ASSERT_TRUE(mfn.has_value());
  const PageInfo& pi = ft.info(*mfn);
  EXPECT_EQ(pi.owner, 3);
  EXPECT_EQ(pi.ref_count, 1u);
  EXPECT_EQ(pi.type, PageType::None);
  EXPECT_FALSE(pi.validated);
}

TEST(FrameTable, SequentialAllocationFromBumpRegion) {
  FrameTable ft{8};
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto mfn = ft.alloc(1);
    ASSERT_TRUE(mfn.has_value());
    EXPECT_EQ(mfn->raw(), i);
  }
  EXPECT_FALSE(ft.alloc(1).has_value());  // exhausted
}

TEST(FrameTable, FreeListIsFifoAfterExhaustion) {
  FrameTable ft{4};
  for (int i = 0; i < 4; ++i) (void)ft.alloc(1);
  ft.free(sim::Mfn{2});
  ft.free(sim::Mfn{0});
  EXPECT_EQ(ft.alloc(1)->raw(), 2u);  // first freed, first reused
  EXPECT_EQ(ft.alloc(1)->raw(), 0u);
}

TEST(FrameTable, DoubleFreeThrows) {
  FrameTable ft{2};
  const auto mfn = ft.alloc(1);
  ft.free(*mfn);
  EXPECT_THROW(ft.free(*mfn), std::logic_error);
}

TEST(FrameTable, FreeWithLiveReferencesThrows) {
  FrameTable ft{2};
  const auto mfn = ft.alloc(1);
  ft.info(*mfn).type_count = 1;
  EXPECT_THROW(ft.free(*mfn), std::logic_error);
  ft.info(*mfn).type_count = 0;
  ft.info(*mfn).ref_count = 2;
  EXPECT_THROW(ft.free(*mfn), std::logic_error);
}

TEST(FrameTable, ContiguousAllocation) {
  FrameTable ft{16};
  (void)ft.alloc(1);  // offset the bump pointer
  const auto start = ft.alloc_contiguous(2, 4);
  ASSERT_TRUE(start.has_value());
  EXPECT_EQ(start->raw(), 1u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ft.info(sim::Mfn{start->raw() + i}).owner, 2);
  }
  EXPECT_FALSE(ft.alloc_contiguous(2, 100).has_value());
  EXPECT_FALSE(ft.alloc_contiguous(2, 0).has_value());
}

TEST(FrameTable, FramesOfFiltersByOwner) {
  FrameTable ft{8};
  (void)ft.alloc(1);
  (void)ft.alloc(2);
  (void)ft.alloc(1);
  const auto of1 = ft.frames_of(1);
  ASSERT_EQ(of1.size(), 2u);
  EXPECT_EQ(of1[0].raw(), 0u);
  EXPECT_EQ(of1[1].raw(), 2u);
}

TEST(FrameTable, FreeFramesAccounting) {
  FrameTable ft{8};
  EXPECT_EQ(ft.free_frames(), 8u);
  const auto a = ft.alloc(1);
  EXPECT_EQ(ft.free_frames(), 7u);
  ft.free(*a);
  EXPECT_EQ(ft.free_frames(), 8u);
}

TEST(FrameTable, PageTypePredicates) {
  EXPECT_TRUE(is_pagetable_type(PageType::L1));
  EXPECT_TRUE(is_pagetable_type(PageType::L4));
  EXPECT_FALSE(is_pagetable_type(PageType::Writable));
  EXPECT_FALSE(is_pagetable_type(PageType::None));
  EXPECT_EQ(to_string(PageType::L2), "l2_pagetable");
  EXPECT_EQ(to_string(PageType::Writable), "writable");
}

TEST(FrameTable, InfoBoundsChecked) {
  FrameTable ft{2};
  EXPECT_THROW((void)ft.info(sim::Mfn{2}), std::out_of_range);
}

TEST(FrameTable, AllocatorAndMutableInfoFeedTheDirtyLog) {
  FrameTable ft{8};
  using Frames = std::vector<std::uint64_t>;
  const auto logged = [&] {
    const auto frames = ft.dirty_frames(sim::DirtyReader::Rewind);
    return Frames{frames.begin(), frames.end()};
  };
  const auto sync = [&] {
    ft.sync_dirty(sim::DirtyReader::Rewind);
    ft.sync_dirty(sim::DirtyReader::Digest);
  };

  (void)ft.alloc(1);                 // frame 0
  (void)ft.alloc_contiguous(1, 2);   // frames 1, 2
  EXPECT_EQ(logged(), (Frames{0, 1, 2}));
  EXPECT_EQ(logged(), (Frames{ft.dirty_frames(sim::DirtyReader::Digest).begin(),
                              ft.dirty_frames(sim::DirtyReader::Digest).end()}));

  sync();
  ft.free(sim::Mfn{1});
  (void)ft.alloc_prefer_recycled(2);  // frame 1 again
  EXPECT_EQ(logged(), (Frames{1}));

  // Reads through the const view log nothing; the mutable view logs.
  sync();
  const FrameTable& view = ft;
  (void)view.info(sim::Mfn{2});
  EXPECT_TRUE(logged().empty());
  ft.info(sim::Mfn{2}).type = PageType::Writable;
  EXPECT_EQ(logged(), (Frames{2}));
}

}  // namespace
}  // namespace ii::hv
