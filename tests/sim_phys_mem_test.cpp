// Unit tests for the physical-memory substrate.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/phys_mem.hpp"

namespace ii::sim {
namespace {

TEST(PhysicalMemory, SizesAndZeroInit) {
  PhysicalMemory mem{4};
  EXPECT_EQ(mem.frame_count(), 4u);
  EXPECT_EQ(mem.byte_size(), 4 * kPageSize);
  EXPECT_EQ(mem.read_u64(Paddr{0}), 0u);
  EXPECT_EQ(mem.read_u64(Paddr{4 * kPageSize - 8}), 0u);
}

TEST(PhysicalMemory, ZeroFramesRejected) {
  EXPECT_THROW(PhysicalMemory{0}, std::invalid_argument);
}

TEST(PhysicalMemory, U64RoundTrip) {
  PhysicalMemory mem{2};
  mem.write_u64(Paddr{16}, 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(mem.read_u64(Paddr{16}), 0xDEADBEEFCAFEBABEULL);
}

TEST(PhysicalMemory, ByteSpansRoundTripAcrossFrameBoundary) {
  PhysicalMemory mem{2};
  std::array<std::uint8_t, 16> in{};
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = std::uint8_t(i + 1);
  mem.write(Paddr{kPageSize - 8}, in);
  std::array<std::uint8_t, 16> out{};
  mem.read(Paddr{kPageSize - 8}, out);
  EXPECT_EQ(in, out);
}

TEST(PhysicalMemory, ContainsSemantics) {
  PhysicalMemory mem{1};
  EXPECT_TRUE(mem.contains(Paddr{0}));
  EXPECT_TRUE(mem.contains(Paddr{kPageSize - 1}));
  EXPECT_FALSE(mem.contains(Paddr{kPageSize}));
  EXPECT_TRUE(mem.contains(Paddr{0}, kPageSize));
  EXPECT_FALSE(mem.contains(Paddr{1}, kPageSize));
  EXPECT_FALSE(mem.contains(Paddr{0}, 0));  // empty ranges are invalid
  EXPECT_TRUE(mem.contains(Mfn{0}));
  EXPECT_FALSE(mem.contains(Mfn{1}));
}

TEST(PhysicalMemory, OutOfRangeThrows) {
  PhysicalMemory mem{1};
  std::array<std::uint8_t, 8> buf{};
  EXPECT_THROW(mem.read(Paddr{kPageSize}, buf), std::out_of_range);
  EXPECT_THROW(mem.write(Paddr{kPageSize - 4}, buf), std::out_of_range);
  EXPECT_THROW((void)mem.read_u64(Paddr{kPageSize - 7}), std::out_of_range);
}

TEST(PhysicalMemory, OverflowingRangeRejected) {
  PhysicalMemory mem{1};
  // len so large that pa + len wraps; contains() must not overflow.
  EXPECT_FALSE(mem.contains(Paddr{8}, ~0ULL));
}

TEST(PhysicalMemory, SlotAccess) {
  PhysicalMemory mem{2};
  mem.write_slot(Mfn{1}, 511, 0x77);
  EXPECT_EQ(mem.read_slot(Mfn{1}, 511), 0x77u);
  EXPECT_EQ(mem.read_u64(Paddr{kPageSize + 511 * 8}), 0x77u);
  EXPECT_THROW((void)mem.read_slot(Mfn{1}, 512), std::out_of_range);
  EXPECT_THROW(mem.write_slot(Mfn{1}, 512, 0), std::out_of_range);
}

TEST(PhysicalMemory, ZeroFrameClearsOnlyThatFrame) {
  PhysicalMemory mem{2};
  mem.write_u64(Paddr{0}, 1);
  mem.write_u64(Paddr{kPageSize}, 2);
  mem.zero_frame(Mfn{0});
  EXPECT_EQ(mem.read_u64(Paddr{0}), 0u);
  EXPECT_EQ(mem.read_u64(Paddr{kPageSize}), 2u);
}

TEST(PhysicalMemory, FrameBytesView) {
  PhysicalMemory mem{2};
  {
    auto view = mem.writable_frame(Mfn{1});
    ASSERT_EQ(view.bytes().size(), kPageSize);
    view[0] = 0xAB;
  }
  EXPECT_EQ(mem.read_slot(Mfn{1}, 0) & 0xFF, 0xABu);
  const auto& cmem = mem;
  EXPECT_EQ(cmem.frame_bytes(Mfn{1})[0], 0xAB);
}

TEST(PhysicalMemory, EveryMutationPathBumpsFrameGeneration) {
  PhysicalMemory mem{3};
  const auto gen_of = [&](std::uint64_t m) {
    return mem.frame_generation(Mfn{m});
  };

  std::uint64_t before = gen_of(0);
  mem.write_u64(Paddr{8}, 1);
  EXPECT_GT(gen_of(0), before);

  before = gen_of(1);
  mem.write_slot(Mfn{1}, 0, 0x77);
  EXPECT_GT(gen_of(1), before);

  before = gen_of(1);
  mem.zero_frame(Mfn{1});
  EXPECT_GT(gen_of(1), before);

  before = gen_of(2);
  mem.mark_dirty(Mfn{2});
  EXPECT_GT(gen_of(2), before);

  before = gen_of(2);
  { auto guard = mem.writable_frame(Mfn{2}); guard[7] = 1; }
  EXPECT_GT(gen_of(2), before);

  // A straddling write stamps every covered frame with the same generation.
  std::array<std::uint8_t, 16> buf{};
  mem.write(Paddr{kPageSize - 8}, buf);
  EXPECT_EQ(gen_of(0), gen_of(1));
  EXPECT_GT(gen_of(0), before);

  // Reads leave generations alone.
  before = mem.generation();
  (void)mem.read_u64(Paddr{0});
  (void)mem.frame_bytes(Mfn{0});
  std::array<std::uint8_t, 8> out{};
  mem.read(Paddr{0}, out);
  EXPECT_EQ(mem.generation(), before);
}

TEST(PhysicalMemory, DirtyLogAndRestoreFrameRollGenerationsBack) {
  PhysicalMemory mem{130};
  const std::vector<std::uint64_t> base{mem.frame_generations().begin(),
                                        mem.frame_generations().end()};
  std::vector<std::uint8_t> frame0{mem.frame_bytes(Mfn{0}).begin(),
                                   mem.frame_bytes(Mfn{0}).end()};
  const auto logged = [&](DirtyReader r) {
    const auto frames = mem.dirty_frames(r);
    return std::vector<std::uint64_t>{frames.begin(), frames.end()};
  };
  using Frames = std::vector<std::uint64_t>;
  mem.sync_dirty(DirtyReader::Digest);
  mem.sync_dirty(DirtyReader::Rewind);

  mem.write_u64(Paddr{129 * kPageSize}, 1);  // frame 129
  mem.write_u64(Paddr{0}, 0xAA);             // frame 0
  mem.write_u64(Paddr{8}, 0xBB);             // frame 0 again: logged once
  EXPECT_EQ(logged(DirtyReader::Digest), (Frames{129, 0}));
  EXPECT_EQ(logged(DirtyReader::Rewind), (Frames{129, 0}));

  // Readers sync independently.
  mem.sync_dirty(DirtyReader::Digest);
  EXPECT_TRUE(logged(DirtyReader::Digest).empty());
  EXPECT_EQ(logged(DirtyReader::Rewind), (Frames{129, 0}));

  // Restoring captured bytes at the captured generation rolls the frame
  // back, and is itself a logged write.
  mem.restore_frame(Mfn{0}, frame0, base[0]);
  EXPECT_EQ(mem.frame_generation(Mfn{0}), base[0]);
  EXPECT_EQ(mem.read_u64(Paddr{0}), 0u);
  EXPECT_EQ(logged(DirtyReader::Digest), (Frames{0}));
  // The global counter never rolls back.
  EXPECT_GE(mem.generation(), base[129]);
}

TEST(PhysicalMemory, ZeroingANeverWrittenFrameStampsNothing) {
  PhysicalMemory mem{3};
  const auto logged = [&](DirtyReader r) {
    const auto frames = mem.dirty_frames(r);
    return std::vector<std::uint64_t>{frames.begin(), frames.end()};
  };
  using Frames = std::vector<std::uint64_t>;

  // Frame 1 was never written, so it is zero already: zeroing it changes
  // no byte, stamps no generation and logs nothing.
  const std::uint64_t global = mem.generation();
  mem.zero_frame(Mfn{1});
  EXPECT_EQ(mem.frame_generation(Mfn{1}), PhysicalMemory::kInitialGeneration);
  EXPECT_EQ(mem.generation(), global);
  EXPECT_TRUE(logged(DirtyReader::Digest).empty());
  EXPECT_TRUE(logged(DirtyReader::Rewind).empty());
  EXPECT_EQ(mem.read_u64(Paddr{kPageSize}), 0u);

  // A written frame is still stamped, logged and zeroed.
  mem.write_u64(Paddr{2 * kPageSize + 8}, 0x55);
  mem.sync_dirty(DirtyReader::Digest);
  mem.sync_dirty(DirtyReader::Rewind);
  const std::uint64_t written = mem.frame_generation(Mfn{2});
  mem.zero_frame(Mfn{2});
  EXPECT_GT(mem.frame_generation(Mfn{2}), written);
  EXPECT_EQ(mem.read_u64(Paddr{2 * kPageSize + 8}), 0u);
  EXPECT_EQ(logged(DirtyReader::Digest), (Frames{2}));
  EXPECT_EQ(logged(DirtyReader::Rewind), (Frames{2}));
}

}  // namespace
}  // namespace ii::sim
