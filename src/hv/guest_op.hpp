// The guest-issuable operation vocabulary shared by every driver that
// replays hypercall sequences: the bounded model checker enumerates these
// ops, the sequence fuzzer generates and mutates them, and both execute
// them through the one executor below. One op record serializes them for
// the fuzzer's trace files and the checker's spill file alike, so a trace
// recorded by one driver replays in the other.
//
// An op is self-contained: absolute machine addresses and frame numbers
// against the deterministic boot layout, so it replays against a fresh
// machine of the same configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hv/frame_table.hpp"

namespace ii::hv {

class Hypervisor;

/// One guest-issuable operation: the validated hypercall surface plus the
/// injector's write-what-where. Kind order is part of the op record and of
/// the fuzzer's coverage contexts; append, never reorder.
struct GuestOp {
  enum class Kind : std::uint8_t {
    ArbitraryWrite,   ///< injector write (addr = machine byte address)
    MmuUpdate,        ///< validated PTE write (addr = slot machine address)
    Pin,              ///< pin mfn as an L<level> table
    Unpin,
    NewBaseptr,
    Exchange,         ///< trade pfn, replacement MFN written to out
    GrantSetVersion,
    GrantAccess,      ///< grant pfn to dom0 under gref
    GrantEndAccess,
  };
  Kind kind = Kind::ArbitraryWrite;
  std::uint8_t level = 0;     ///< Pin: table level 1..4
  std::uint64_t addr = 0;     ///< ArbitraryWrite/MmuUpdate target
  std::uint64_t value = 0;    ///< written value / raw PTE
  std::uint64_t mfn = 0;      ///< Pin/Unpin/NewBaseptr frame
  std::uint64_t pfn = 0;      ///< Exchange in-extent / GrantAccess page
  std::uint64_t out = 0;      ///< Exchange output pointer (guest VA)
  std::uint32_t gref = 0;     ///< grant reference
  std::uint32_t version = 0;  ///< GrantSetVersion argument

  friend bool operator==(const GuestOp&, const GuestOp&) = default;
};

inline constexpr std::size_t kGuestOpKindCount = 9;
static_assert(static_cast<std::size_t>(GuestOp::Kind::GrantEndAccess) + 1 ==
                  kGuestOpKindCount,
              "kGuestOpKindCount must follow the last GuestOp::Kind");

[[nodiscard]] std::string to_string(GuestOp::Kind kind);

/// Issue `op` as guest `caller` through the guest-facing interfaces: the
/// injector write goes through the hypercall table at the version's
/// arbitrary-access slot, the rest through the validated hypercalls. A Pin
/// whose level is outside 1..4 is refused with kEINVAL and changes nothing.
/// Returns the hypercall status.
long apply_guest_op(Hypervisor& vmm, DomainId caller, const GuestOp& op);

// ------------------------------------------------------------ op record

/// Bounds-checked little-endian cursor; `ok` latches false on any overrun.
struct ByteReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  bool ok = true;

  [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  /// The next `n` bytes (empty, and `ok` false, when fewer remain).
  std::span<const std::uint8_t> take(std::size_t n);
};

/// Little-endian appenders, the writing half of ByteReader.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);

/// Size of one encoded op: kind, level, five 64-bit operands, gref and
/// version.
inline constexpr std::size_t kGuestOpRecordBytes = 50;

/// Append `op`'s fixed-size record.
void encode_op(std::vector<std::uint8_t>& out, const GuestOp& op);
/// Read one op record; nullopt on overrun, an unknown kind, or a Pin whose
/// level is outside 1..4.
[[nodiscard]] std::optional<GuestOp> decode_op(ByteReader& in);

}  // namespace ii::hv
