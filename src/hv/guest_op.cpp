#include "hv/guest_op.hpp"

#include "hv/errors.hpp"
#include "hv/hypercall_table.hpp"
#include "hv/hypervisor.hpp"

namespace ii::hv {

std::string to_string(GuestOp::Kind kind) {
  switch (kind) {
    case GuestOp::Kind::ArbitraryWrite: return "arbitrary_write";
    case GuestOp::Kind::MmuUpdate: return "mmu_update";
    case GuestOp::Kind::Pin: return "pin";
    case GuestOp::Kind::Unpin: return "unpin";
    case GuestOp::Kind::NewBaseptr: return "new_baseptr";
    case GuestOp::Kind::Exchange: return "exchange";
    case GuestOp::Kind::GrantSetVersion: return "grant_set_version";
    case GuestOp::Kind::GrantAccess: return "grant_access";
    case GuestOp::Kind::GrantEndAccess: return "grant_end_access";
  }
  return "unknown";
}

namespace {

bool valid_pin_level(std::uint8_t level) { return level >= 1 && level <= 4; }

}  // namespace

long apply_guest_op(Hypervisor& vmm, DomainId caller, const GuestOp& op) {
  using Kind = GuestOp::Kind;
  switch (op.kind) {
    case Kind::ArbitraryWrite: {
      std::uint64_t value = op.value;
      ArbitraryAccess req{};
      req.addr = op.addr;
      req.buffer = {reinterpret_cast<std::uint8_t*>(&value), sizeof value};
      req.action = AccessAction::WritePhysical;
      HypercallPayload payload{ArbitraryAccessCall{req}};
      return dispatch_hypercall(vmm, caller,
                                arbitrary_access_nr(vmm.version()), payload);
    }
    case Kind::MmuUpdate: {
      const MmuUpdate req{op.addr | kMmuNormalPtUpdate, op.value};
      return vmm.hypercall_mmu_update(caller, std::span{&req, 1});
    }
    case Kind::Pin: {
      // PinL1Table + level - 1 with any other level names a different
      // command (UnpinTable, NewBaseptr, ...), not a pin.
      if (!valid_pin_level(op.level)) return kEINVAL;
      const auto cmd = static_cast<MmuExtCmd>(
          static_cast<int>(MmuExtCmd::PinL1Table) + op.level - 1);
      return vmm.hypercall_mmuext_op(caller, MmuExtOp{cmd, sim::Mfn{op.mfn}});
    }
    case Kind::Unpin:
      return vmm.hypercall_mmuext_op(
          caller, MmuExtOp{MmuExtCmd::UnpinTable, sim::Mfn{op.mfn}});
    case Kind::NewBaseptr:
      return vmm.hypercall_mmuext_op(
          caller, MmuExtOp{MmuExtCmd::NewBaseptr, sim::Mfn{op.mfn}});
    case Kind::Exchange: {
      MemoryExchange exch{{sim::Pfn{op.pfn}}, sim::Vaddr{op.out}, 0};
      return vmm.hypercall_memory_exchange(caller, exch);
    }
    case Kind::GrantSetVersion:
      return vmm.grants().set_version(caller, op.version);
    case Kind::GrantAccess:
      return vmm.grants().grant_access(caller, op.gref, kDom0,
                                       sim::Pfn{op.pfn}, /*readonly=*/false);
    case Kind::GrantEndAccess:
      return vmm.grants().end_access(caller, op.gref);
  }
  return kEINVAL;
}

// ------------------------------------------------------------ op record

std::uint8_t ByteReader::u8() {
  if (remaining() < 1) { ok = false; return 0; }
  return bytes[pos++];
}

std::uint32_t ByteReader::u32() {
  if (remaining() < 4) { ok = false; return 0; }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes[pos++]} << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  if (remaining() < 8) { ok = false; return 0; }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes[pos++]} << (8 * i);
  return v;
}

std::span<const std::uint8_t> ByteReader::take(std::size_t n) {
  if (remaining() < n) { ok = false; return {}; }
  const auto out = bytes.subspan(pos, n);
  pos += n;
  return out;
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void encode_op(std::vector<std::uint8_t>& out, const GuestOp& op) {
  put_u8(out, static_cast<std::uint8_t>(op.kind));
  put_u8(out, op.level);
  put_u64(out, op.addr);
  put_u64(out, op.value);
  put_u64(out, op.mfn);
  put_u64(out, op.pfn);
  put_u64(out, op.out);
  put_u32(out, op.gref);
  put_u32(out, op.version);
}

std::optional<GuestOp> decode_op(ByteReader& in) {
  GuestOp op;
  const std::uint8_t kind = in.u8();
  if (kind >= kGuestOpKindCount) return std::nullopt;
  op.kind = static_cast<GuestOp::Kind>(kind);
  op.level = in.u8();
  op.addr = in.u64();
  op.value = in.u64();
  op.mfn = in.u64();
  op.pfn = in.u64();
  op.out = in.u64();
  op.gref = in.u32();
  op.version = in.u32();
  if (!in.ok) return std::nullopt;
  if (op.kind == GuestOp::Kind::Pin && !valid_pin_level(op.level)) {
    return std::nullopt;
  }
  return op;
}

}  // namespace ii::hv
