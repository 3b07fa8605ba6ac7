#include "core/fuzz.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <set>
#include <sstream>

#include "core/chaos.hpp"
#include "hv/audit.hpp"
#include "hv/errors.hpp"
#include "hv/layout.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace ii::core {

std::string to_string(FuzzOutcome outcome) {
  switch (outcome) {
    case FuzzOutcome::NoObservableEffect: return "no observable effect";
    case FuzzOutcome::Refused: return "refused";
    case FuzzOutcome::DetectedByAudit: return "detected by audit";
    case FuzzOutcome::IsolationViolation: return "ISOLATION VIOLATION";
    case FuzzOutcome::HostCrash: return "HOST CRASH";
    case FuzzOutcome::CpuHang: return "CPU HANG";
  }
  return "unknown";
}

// -------------------------------------------------------------- draw helpers

std::uint64_t draw_below(std::mt19937_64& rng, std::uint64_t bound) {
  if (bound < 2) return 0;
  // Largest multiple of `bound` that fits in 64 bits; draws at or above it
  // would wrap unevenly, so reject and redraw. Expected redraws < 1.
  const std::uint64_t zone = bound * (~std::uint64_t{0} / bound);
  std::uint64_t r = rng();
  while (r >= zone) r = rng();
  return r % bound;
}

std::mt19937_64 rng_for(std::uint64_t seed, std::uint64_t iteration) {
  // splitmix64 decorrelation first (the chaos engine's primitive), then a
  // seed_seq over all four 32-bit words: every bit of the 64-bit campaign
  // seed reaches the engine. The previous scheme seeded std::mt19937 from a
  // product silently narrowed to 32 bits, colliding seeds that differed
  // only in their high word.
  std::uint64_t s = seed + 0x9E3779B97F4A7C15ULL * (iteration + 1);
  const std::uint64_t a = splitmix64_next(s);
  const std::uint64_t b = splitmix64_next(s);
  std::seed_seq seq{
      static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(a >> 32),
      static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(b >> 32)};
  return std::mt19937_64{seq};
}

// ------------------------------------------------------------ coverage map

CoverageMap::CoverageMap() : bits_(total_points(), false) {}

namespace {

std::size_t coverage_index(std::size_t context, hv::PageType frame_type,
                           hv::ValidationBranch branch) {
  return (context * hv::kCoverageFrameTypes +
          static_cast<std::size_t>(frame_type)) *
             hv::kValidationBranchCount +
         static_cast<std::size_t>(branch);
}

std::string context_name(std::size_t context) {
  return context < hv::kGuestOpKindCount
             ? hv::to_string(static_cast<FuzzOp::Kind>(context))
             : std::string{"activation"};
}

}  // namespace

bool CoverageMap::record(std::size_t context, hv::PageType frame_type,
                         hv::ValidationBranch branch) {
  const std::size_t idx = coverage_index(context, frame_type, branch);
  if (bits_[idx]) return false;
  bits_[idx] = true;
  ++points_;
  return true;
}

bool CoverageMap::covered(std::size_t context, hv::PageType frame_type,
                          hv::ValidationBranch branch) const {
  return bits_[coverage_index(context, frame_type, branch)];
}

std::string CoverageMap::render() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < kCoverageContexts; ++c) {
    for (std::size_t f = 0; f < hv::kCoverageFrameTypes; ++f) {
      for (std::size_t b = 0; b < hv::kValidationBranchCount; ++b) {
        const auto ft = static_cast<hv::PageType>(f);
        const auto br = static_cast<hv::ValidationBranch>(b);
        if (covered(c, ft, br)) {
          os << context_name(c) << " x " << hv::to_string(ft) << " x "
             << hv::to_string(br) << "\n";
        }
      }
    }
  }
  return os.str();
}

// ----------------------------------------------------- trace serialization

namespace {

constexpr std::uint32_t kTraceMagic = 0x5A464949;  // "IIFZ" little-endian
constexpr std::uint8_t kTraceFormat = 1;

}  // namespace

std::vector<std::uint8_t> serialize_trace(const CorpusEntry& entry,
                                          hv::XenVersion version) {
  std::vector<std::uint8_t> out;
  hv::put_u32(out, kTraceMagic);
  hv::put_u8(out, kTraceFormat);
  hv::put_u8(out, static_cast<std::uint8_t>(version.major));
  hv::put_u8(out, static_cast<std::uint8_t>(version.minor));
  hv::put_u32(out, static_cast<std::uint32_t>(entry.ops.size()));
  for (const FuzzOp& op : entry.ops) hv::encode_op(out, op);
  hv::put_u8(out, static_cast<std::uint8_t>(entry.outcome));
  hv::put_u32(out, static_cast<std::uint32_t>(entry.classes.size()));
  for (const auto c : entry.classes) {
    hv::put_u8(out, static_cast<std::uint8_t>(c));
  }
  hv::put_u64(out, entry.state_hash);
  return out;
}

std::optional<CorpusEntry> deserialize_trace(
    std::span<const std::uint8_t> bytes, hv::XenVersion* version) {
  hv::ByteReader in{bytes};
  if (in.u32() != kTraceMagic) return std::nullopt;
  if (in.u8() != kTraceFormat) return std::nullopt;
  const int major = in.u8();
  const int minor = in.u8();
  const std::uint32_t n_ops = in.u32();
  // Bound the count by the bytes actually present before reserving for it.
  if (!in.ok || n_ops > in.remaining() / hv::kGuestOpRecordBytes) {
    return std::nullopt;
  }
  CorpusEntry entry;
  entry.ops.reserve(n_ops);
  for (std::uint32_t i = 0; i < n_ops; ++i) {
    const std::optional<FuzzOp> op = hv::decode_op(in);
    if (!op) return std::nullopt;
    entry.ops.push_back(*op);
  }
  const std::uint8_t outcome = in.u8();
  if (outcome > static_cast<std::uint8_t>(FuzzOutcome::CpuHang)) {
    return std::nullopt;
  }
  entry.outcome = static_cast<FuzzOutcome>(outcome);
  const std::uint32_t n_classes = in.u32();
  if (!in.ok || n_classes > analysis::kErroneousStateClassCount) {
    return std::nullopt;
  }
  for (std::uint32_t i = 0; i < n_classes; ++i) {
    const std::uint8_t c = in.u8();
    if (c >= analysis::kErroneousStateClassCount) return std::nullopt;
    entry.classes.push_back(static_cast<analysis::ErroneousStateClass>(c));
  }
  entry.state_hash = in.u64();
  if (!in.ok || in.pos != bytes.size()) return std::nullopt;
  if (version != nullptr) *version = hv::XenVersion{major, minor};
  return entry;
}

bool store_trace_file(const std::string& path, const CorpusEntry& entry,
                      hv::XenVersion version) {
  if (chaos_fire("fuzz.corpus_write_fail")) return false;
  const std::vector<std::uint8_t> bytes = serialize_trace(entry, version);
  // Exclusive create: a file already at `path` (another run's, sharing the
  // directory) is never overwritten; the store fails instead.
  std::FILE* f = std::fopen(path.c_str(), "wbx");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0 || !written) {
    std::remove(path.c_str());  // ours, and torn: leave no partial record
    return false;
  }
  return true;
}

std::optional<CorpusEntry> load_trace_file(const std::string& path,
                                           hv::XenVersion* version) {
  if (chaos_fire("fuzz.corpus_read_fail")) return std::nullopt;
  std::ifstream is{path, std::ios::binary};
  if (!is) return std::nullopt;
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(is),
                                        std::istreambuf_iterator<char>()};
  return deserialize_trace(bytes, version);
}

// --------------------------------------------------------- trace execution

namespace {

/// CoverageHook bridging the hypervisor's validation branches into the
/// fuzzer's map, keyed by which op (or the activation workload) was driving
/// the hypervisor when the branch fired.
class MapHook final : public hv::CoverageHook {
 public:
  CoverageMap* map = nullptr;
  std::size_t context = hv::kGuestOpKindCount;
  unsigned fresh = 0;

  void on_branch(hv::ValidationBranch branch,
                 hv::PageType frame_type) override {
    if (map != nullptr && map->record(context, frame_type, branch)) ++fresh;
  }
};

/// Execute `ops` then the activation workload on a platform that is at its
/// boot baseline, recording coverage into `map` (when given) and
/// classifying what is left. The activation workload is deliberately
/// RNG-free: replaying a trace's ops must reproduce its recorded result
/// bit-for-bit, so everything the execution does is a pure function of the
/// ops and the boot layout.
TraceResult execute_trace(guest::VirtualPlatform& platform,
                          std::span<const FuzzOp> ops, CoverageMap* map) {
  MapHook hook;
  hook.map = map;
  hv::Hypervisor& vmm = platform.hv();
  if (map != nullptr) vmm.set_coverage_hook(&hook);
  guest::GuestKernel& attacker = platform.guest(0);

  TraceResult result;
  for (const FuzzOp& op : ops) {
    hook.context = static_cast<std::size_t>(op.kind);
    const long rc = hv::apply_guest_op(vmm, attacker.id(), op);
    ++result.ops_executed;
    if (rc != hv::kOk) ++result.ops_refused;
    if (vmm.crashed() || vmm.cpu_hung()) break;
  }

  if (!vmm.crashed() && !vmm.cpu_hung()) {
    hook.context = hv::kGuestOpKindCount;
    std::array<std::uint8_t, 8> buf{};
    for (unsigned i = 0; i < 4; ++i) {
      const sim::Pfn pfn{guest::kFirstFreePfn.raw() + i};
      (void)attacker.read_virt(attacker.pfn_va(pfn), buf);
    }
    (void)attacker.read_virt(sim::Vaddr{0xDEAD000000ULL}, buf);  // page fault
    (void)attacker.software_interrupt(3);
    (void)attacker.software_interrupt(14);
    (void)attacker.handle_events();
  }
  vmm.set_coverage_hook(nullptr);
  result.new_coverage = hook.fresh;

  if (vmm.crashed()) {
    result.outcome = FuzzOutcome::HostCrash;
  } else if (vmm.cpu_hung()) {
    result.outcome = FuzzOutcome::CpuHang;
  } else {
    // One structural audit per execution: the invariant report is derived
    // from it, and it alone tells "detected by audit" from "no effect".
    const hv::SystemWalk walk = hv::walk_system(vmm);
    const hv::AuditReport structural = hv::audit_system(vmm, walk);
    const hv::InvariantReport report =
        hv::InvariantAuditor{vmm}.audit(structural);
    if (!report.clean()) {
      result.outcome = FuzzOutcome::IsolationViolation;
      result.classes = analysis::classify_erroneous_state(vmm, walk, report);
    } else if (!structural.clean()) {
      result.outcome = FuzzOutcome::DetectedByAudit;
    } else if (!ops.empty() && result.ops_refused == ops.size()) {
      result.outcome = FuzzOutcome::Refused;
    } else {
      result.outcome = FuzzOutcome::NoObservableEffect;
    }
  }
  result.state_hash = vmm.state_hash();
  return result;
}

// --------------------------------------------------------- trace generation

/// A plausible-but-random PTE value: a frame somewhere in the machine plus
/// a random flag cocktail (biased towards present entries — non-present
/// injections are overwhelmingly inert).
std::uint64_t random_pte(std::mt19937_64& rng, std::uint64_t frames) {
  // Bias towards the low, populated frame region (hypervisor image, dom0,
  // guests all live there): a uniform draw over a mostly-empty machine
  // would make almost every injected entry point at free frames and tell
  // us nothing.
  const std::uint64_t frame =
      draw_below(rng, 4) == 0
          ? draw_below(rng, frames)
          : draw_below(rng, std::max<std::uint64_t>(frames / 32, 1));
  std::uint64_t flags = 0;
  if (draw_below(rng, 8) != 0) flags |= sim::Pte::kPresent;
  if (draw_below(rng, 2)) flags |= sim::Pte::kWritable;
  if (draw_below(rng, 4) != 0) flags |= sim::Pte::kUser;
  if (draw_below(rng, 8) == 0) flags |= sim::Pte::kPageSize;
  if (draw_below(rng, 16) == 0) flags |= sim::Pte::kNoExecute;
  return sim::Pte::make(sim::Mfn{frame}, flags).raw();
}

/// Target address and value of one ArbitraryWrite op.
void draw_injection(std::mt19937_64& rng, guest::VirtualPlatform& platform,
                    FuzzTarget target, std::uint64_t* address,
                    std::uint64_t* value) {
  guest::GuestKernel& attacker = platform.guest(0);
  const std::uint64_t frames = platform.memory().frame_count();
  *value = random_pte(rng, frames);
  switch (target) {
    case FuzzTarget::OwnL1Slot:
      *address = sim::mfn_to_paddr(attacker.l1_mfn(0)).raw() +
                 draw_below(rng, sim::kPtEntries) * 8;
      break;
    case FuzzTarget::OwnL4Slot:
      *address = sim::mfn_to_paddr(attacker.l4_mfn()).raw() +
                 draw_below(rng, sim::kPtEntries) * 8;
      break;
    case FuzzTarget::IdtBytes:
      *address = platform.hv().idt_base().raw() +
                 draw_below(rng, sim::kIdtVectors * sim::Idt::kGateBytes - 8);
      *value = rng();
      break;
    case FuzzTarget::XenL3Slot:
      *address = sim::mfn_to_paddr(platform.hv().xen_l3()).raw() +
                 draw_below(rng, sim::kPtEntries) * 8;
      break;
    case FuzzTarget::WildPhysical:
      *address = draw_below(rng, platform.memory().byte_size() - 8);
      *value = rng();
      break;
  }
}

FuzzOp random_op_of_kind(std::mt19937_64& rng,
                         guest::VirtualPlatform& platform,
                         FuzzOp::Kind kind) {
  using Kind = FuzzOp::Kind;
  guest::GuestKernel& attacker = platform.guest(0);
  const std::uint64_t frames = platform.memory().frame_count();
  // The attacker's own table frames: the targets the validation engine has
  // opinions about (self maps, PSE windows, pin/unpin type churn).
  const std::array<std::uint64_t, 3> tables{attacker.l1_mfn(0).raw(),
                                            attacker.l2_mfn().raw(),
                                            attacker.l4_mfn().raw()};
  FuzzOp op;
  op.kind = kind;
  switch (kind) {
    case Kind::ArbitraryWrite: {
      const auto target =
          static_cast<FuzzTarget>(draw_below(rng, kFuzzTargetCount));
      draw_injection(rng, platform, target, &op.addr, &op.value);
      break;
    }
    case Kind::MmuUpdate: {
      const std::uint64_t table = tables[draw_below(rng, tables.size())];
      std::uint64_t slot = draw_below(rng, sim::kPtEntries);
      const std::uint64_t bias = draw_below(rng, 8);
      if (bias == 0) slot = hv::kLinearPtSlot;
      else if (bias == 1) slot = hv::kXenFirstReservedSlot;
      op.addr = sim::mfn_to_paddr(sim::Mfn{table}).raw() + slot * 8;
      if (draw_below(rng, 4) == 0) {
        // Table-pointing PTE — the XSA-148/182 erroneous-state shapes.
        std::uint64_t flags =
            sim::Pte::kPresent | sim::Pte::kUser | sim::Pte::kWritable;
        if (draw_below(rng, 2) == 0) flags |= sim::Pte::kPageSize;
        op.value = sim::Pte::make(
                       sim::Mfn{tables[draw_below(rng, tables.size())]},
                       flags)
                       .raw();
      } else {
        op.value = random_pte(rng, frames);
      }
      break;
    }
    case Kind::Pin:
      op.level = static_cast<std::uint8_t>(1 + draw_below(rng, 4));
      op.mfn = draw_below(rng, 2) == 0 ? tables[draw_below(rng, tables.size())]
                                       : draw_below(rng, frames);
      break;
    case Kind::Unpin:
    case Kind::NewBaseptr:
      op.mfn = draw_below(rng, 2) == 0 ? tables[draw_below(rng, tables.size())]
                                       : draw_below(rng, frames);
      break;
    case Kind::Exchange:
      op.pfn = draw_below(rng, 2) == 0
                   ? guest::kFirstFreePfn.raw()
                   : draw_below(rng, attacker.nr_pages());
      // Output-pointer targets, in rising hostility: own data page, the
      // hypervisor's IDT through the directmap (the XSA-212 shape), Xen
      // text, a random own page.
      switch (draw_below(rng, 4)) {
        case 0:
          op.out = hv::guest_directmap_vaddr(
                       sim::Pfn{guest::kFirstFreePfn.raw() + 1})
                       .raw();
          break;
        case 1:
          op.out = hv::directmap_vaddr(platform.hv().idt_base()).raw();
          break;
        case 2:
          op.out = hv::kXenTextBase;
          break;
        default:
          op.out = hv::guest_directmap_vaddr(
                       sim::Pfn{draw_below(rng, attacker.nr_pages())})
                       .raw();
          break;
      }
      break;
    case Kind::GrantSetVersion:
      op.version = static_cast<std::uint32_t>(1 + draw_below(rng, 2));
      break;
    case Kind::GrantAccess:
      op.gref = static_cast<std::uint32_t>(draw_below(rng, 2));
      op.pfn = guest::kFirstFreePfn.raw() + draw_below(rng, 4);
      break;
    case Kind::GrantEndAccess:
      op.gref = static_cast<std::uint32_t>(draw_below(rng, 2));
      break;
  }
  return op;
}

FuzzOp random_op(std::mt19937_64& rng, guest::VirtualPlatform& platform) {
  return random_op_of_kind(
      rng, platform,
      static_cast<FuzzOp::Kind>(draw_below(rng, hv::kGuestOpKindCount)));
}

std::vector<FuzzOp> random_trace(std::mt19937_64& rng,
                                 guest::VirtualPlatform& platform,
                                 unsigned max_ops) {
  const std::uint64_t n = 1 + draw_below(rng, std::max(1u, max_ops));
  std::vector<FuzzOp> ops;
  ops.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) ops.push_back(random_op(rng, platform));
  return ops;
}

/// One corpus entry plus its scheduler energy (recent coverage yield).
struct ScoredEntry {
  CorpusEntry entry;
  std::uint64_t energy = 0;
};

/// The mutation dictionary: frames the validation engine treats specially —
/// the attacker's own tables, a *foreign* guest's tables, dom0's root, the
/// shared Xen L3 and the IDT frame. Uniform mfn draws almost never land on
/// these (each is one frame in thousands), so structured operand tweaks
/// against this pool are coverage the blind generator cannot cheaply reach:
/// foreign-frame and Xen-frame rejections across every op kind.
std::vector<std::uint64_t> interesting_mfns(guest::VirtualPlatform& platform) {
  guest::GuestKernel& attacker = platform.guest(0);
  std::vector<std::uint64_t> mfns{
      attacker.l1_mfn(0).raw(), attacker.l2_mfn().raw(),
      attacker.l4_mfn().raw(), platform.dom0().l4_mfn().raw(),
      platform.dom0().l1_mfn(0).raw(), platform.hv().xen_l3().raw(),
      sim::paddr_to_mfn(platform.hv().idt_base()).raw()};
  if (platform.config().n_guests > 1) {
    mfns.push_back(platform.guest(1).l4_mfn().raw());
    mfns.push_back(platform.guest(1).l1_mfn(0).raw());
  }
  return mfns;
}

/// Structured operand tweak — the dictionary mutator. Flag flips, ±1
/// slides and interesting-frame retargets, applied in place to one op.
void tweak_op(std::mt19937_64& rng, guest::VirtualPlatform& platform,
              FuzzOp& op) {
  using Kind = FuzzOp::Kind;
  const std::vector<std::uint64_t> pool = interesting_mfns(platform);
  const auto pick = [&]() { return pool[draw_below(rng, pool.size())]; };
  switch (op.kind) {
    case Kind::ArbitraryWrite:
      switch (draw_below(rng, 3)) {
        case 0:  // retarget the write at an interesting frame's slots
          op.addr = sim::mfn_to_paddr(sim::Mfn{pick()}).raw() +
                    draw_below(rng, sim::kPtEntries) * 8;
          break;
        case 1:  // flip one PTE-flag bit of the value
          op.value ^= std::uint64_t{1} << draw_below(rng, 8);
          break;
        default:  // repoint the value's frame
          op.value = sim::Pte::make(sim::Mfn{pick()},
                                    sim::Pte{op.value}.flags())
                         .raw();
          break;
      }
      break;
    case Kind::MmuUpdate:
      switch (draw_below(rng, 4)) {
        case 0:  // slide the slot
          op.addr += draw_below(rng, 2) == 0 ? 8 : -8;
          break;
        case 1:  // retarget the slot at an interesting table
          op.addr = sim::mfn_to_paddr(sim::Mfn{pick()}).raw() +
                    draw_below(rng, sim::kPtEntries) * 8;
          break;
        case 2:  // flip one flag bit
          op.value ^= std::uint64_t{1} << draw_below(rng, 8);
          break;
        default:  // repoint the entry at an interesting frame
          op.value = sim::Pte::make(sim::Mfn{pick()},
                                    sim::Pte{op.value}.flags())
                         .raw();
          break;
      }
      break;
    case Kind::Pin:
      if (draw_below(rng, 2) == 0) {
        op.level = static_cast<std::uint8_t>(1 + draw_below(rng, 4));
      }
      [[fallthrough]];
    case Kind::Unpin:
    case Kind::NewBaseptr:
      op.mfn = draw_below(rng, 3) == 0 ? op.mfn + 1 : pick();
      break;
    case Kind::Exchange:
      if (draw_below(rng, 2) == 0) {
        op.pfn += draw_below(rng, 2) == 0 ? 1 : -1;
      } else {
        op.out = hv::directmap_vaddr(
                     sim::mfn_to_paddr(sim::Mfn{pick()}))
                     .raw();
      }
      break;
    case Kind::GrantSetVersion:
      op.version = op.version == 2 ? 1 : 2;
      break;
    case Kind::GrantAccess:
      if (draw_below(rng, 2) == 0) op.gref += 1;
      else op.pfn += draw_below(rng, 2) == 0 ? 1 : -1;
      break;
    case Kind::GrantEndAccess:
      op.gref += draw_below(rng, 2) == 0 ? 1 : 0;
      break;
  }
}

std::vector<FuzzOp> mutate_trace(std::mt19937_64& rng,
                                 guest::VirtualPlatform& platform,
                                 std::vector<FuzzOp> ops,
                                 const std::vector<ScoredEntry>& corpus,
                                 unsigned max_ops) {
  const std::uint64_t limit = std::uint64_t{2} * std::max(1u, max_ops);
  // Stack one or two mutation steps, biased heavily towards *extension*:
  // a corpus entry earned its place by driving the validation engine
  // somewhere, and the cheap way to new coverage is issuing further ops
  // from that deeper state — the greybox argument. Destructive operators
  // (replace, truncate) stay in the mix at low weight for diversity.
  const std::uint64_t rounds = 1 + draw_below(rng, 2);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    switch (draw_below(rng, 10)) {
      case 0:
      case 1: {  // append a burst of fresh ops (2/10)
        if (ops.size() < limit) {
          const std::uint64_t burst = 1 + draw_below(rng, 3);
          for (std::uint64_t b = 0; b < burst && ops.size() < limit; ++b) {
            ops.push_back(random_op(rng, platform));
          }
          break;
        }
        [[fallthrough]];
      }
      case 2: {  // insert a fresh op at a random position
        if (ops.size() < limit) {
          const std::size_t pos = draw_below(rng, ops.size() + 1);
          ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(pos),
                     random_op(rng, platform));
          break;
        }
        [[fallthrough]];
      }
      case 3:
      case 4:
      case 5:
      case 6: {  // dictionary tweak of one op's operands (4/10)
        tweak_op(rng, platform, ops[draw_below(rng, ops.size())]);
        break;
      }
      case 7: {  // replace one op wholesale
        const std::size_t pos = draw_below(rng, ops.size());
        ops[pos] = random_op(rng, platform);
        break;
      }
      case 8: {  // splice: our prefix + another corpus entry's suffix
        if (!corpus.empty()) {
          const std::vector<FuzzOp>& other =
              corpus[draw_below(rng, corpus.size())].entry.ops;
          if (!other.empty()) {
            const std::size_t keep = 1 + draw_below(rng, ops.size());
            const std::size_t from = draw_below(rng, other.size());
            ops.resize(keep);
            for (std::size_t i = from;
                 i < other.size() && ops.size() < limit; ++i) {
              ops.push_back(other[i]);
            }
            break;
          }
        }
        ops.push_back(random_op(rng, platform));  // no donor: grow instead
        break;
      }
      default: {  // truncate to a nonempty prefix (1/10)
        const std::size_t keep = 1 + draw_below(rng, ops.size());
        ops.resize(keep);
        break;
      }
    }
  }
  if (ops.empty()) ops.push_back(random_op(rng, platform));
  return ops;
}

// -------------------------------------------------------------- minimizer

/// The signature minimization must preserve: same classified outcome, same
/// erroneous-state families.
bool same_signature(const TraceResult& result, FuzzOutcome outcome,
                    const std::vector<analysis::ErroneousStateClass>& classes) {
  return result.outcome == outcome && result.classes == classes;
}

/// ddmin-lite: repeatedly delete chunks (halving the chunk size down to
/// single ops) as long as the signature survives, to a fixpoint or the
/// execution budget. The coverage map is deliberately detached: probe
/// executions must not pollute the feedback signal.
std::vector<FuzzOp> minimize_trace_impl(
    guest::VirtualPlatform& platform, const guest::PlatformBaseline& baseline,
    std::vector<FuzzOp> ops, FuzzOutcome outcome,
    const std::vector<analysis::ErroneousStateClass>& classes,
    unsigned budget, unsigned* execs) {
  bool shrunk = true;
  while (shrunk && ops.size() > 1) {
    shrunk = false;
    for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
      std::size_t start = 0;
      while (start < ops.size() && ops.size() > 1) {
        if (*execs >= budget) return ops;
        std::vector<FuzzOp> candidate;
        candidate.reserve(ops.size());
        candidate.insert(candidate.end(), ops.begin(),
                         ops.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            ops.begin() + static_cast<std::ptrdiff_t>(
                              std::min(start + chunk, ops.size())),
            ops.end());
        if (candidate.empty()) {
          start += chunk;
          continue;
        }
        ++*execs;
        platform.restore(baseline);
        const TraceResult probe = execute_trace(platform, candidate, nullptr);
        if (same_signature(probe, outcome, classes)) {
          ops = std::move(candidate);
          shrunk = true;  // retry the same start at this size
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  return ops;
}

}  // namespace

// ------------------------------------------------------------ entry points

TraceResult replay_trace(const SeqFuzzConfig& config,
                         std::span<const FuzzOp> ops, CoverageMap* map) {
  guest::PlatformConfig pc = config.platform;
  pc.version = config.version;
  pc.injector_enabled = true;
  guest::VirtualPlatform platform{pc};
  return execute_trace(platform, ops, map);
}

unsigned SeqFuzzStats::novel_survivors() const {
  unsigned n = 0;
  for (const Survivor& s : survivors) n += s.novel ? 1 : 0;
  return n;
}

std::string SeqFuzzStats::render() const {
  std::ostringstream os;
  os << "sequence fuzzer: " << iterations << " iterations, "
     << (guided ? "guided" : "blind") << ", seed " << seed << "\n";
  os << "coverage: " << coverage_points << "/" << CoverageMap::total_points()
     << " points\n";
  os << "corpus: " << corpus_entries << " entries\n";
  os << "outcomes:\n";
  for (const auto& [outcome, count] : outcomes) {
    os << "  " << to_string(outcome) << ": " << count << "\n";
  }
  if (!class_hits.empty()) {
    os << "erroneous-state classes:\n";
    for (const auto& [c, count] : class_hits) {
      os << "  " << analysis::to_string(c) << ": " << count << "\n";
    }
  }
  os << "survivors: " << survivors.size() << " (novel: " << novel_survivors()
     << ")\n";
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const Survivor& s = survivors[i];
    os << "  #" << i << ": iteration " << s.found_iteration << ", ops "
       << s.raw_ops << " -> " << s.entry.ops.size() << ", "
       << to_string(s.entry.outcome);
    for (const auto c : s.entry.classes) {
      os << " [" << analysis::to_string(c) << "]";
    }
    os << (s.novel ? " NOVEL" : "") << std::hex << ", hash 0x"
       << s.entry.state_hash << std::dec;
    if (!s.file.empty()) os << ", " << s.file;
    os << "\n";
  }
  os << "ops: executed " << ops_executed << ", refused " << ops_refused
     << "\n";
  os << "minimizer executions: " << minimizer_execs << "\n";
  if (!coverage_curve.empty()) {
    os << "coverage curve:";
    for (const std::size_t p : coverage_curve) os << " " << p;
    os << "\n";
  }
  return os.str();
}

SeqFuzzStats run_sequence_fuzzer(const SeqFuzzConfig& config) {
  obs::ScopedSpan run_span{config.profiler, obs::kSpanFuzz};

  SeqFuzzStats stats;
  stats.iterations = config.iterations;
  stats.guided = config.guided;
  stats.seed = config.seed;

  guest::PlatformConfig pc = config.platform;
  pc.version = config.version;
  pc.injector_enabled = true;
  guest::VirtualPlatform platform{pc};
  const guest::PlatformBaseline baseline = platform.baseline();

  CoverageMap map;
  std::vector<ScoredEntry> corpus;
  std::set<std::uint64_t> survivor_hashes;

  if (!config.corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.corpus_dir, ec);
  }

  for (unsigned i = 0; i < config.iterations; ++i) {
    std::mt19937_64 rng = rng_for(config.seed, i);
    platform.restore(baseline);

    // Schedule: guided mode spends 3/4 of its budget mutating the corpus
    // entry with the best recent coverage yield; blind mode (and an empty
    // corpus) always draws a fresh trace.
    std::vector<FuzzOp> ops;
    std::size_t picked = corpus.size();  // sentinel: fresh trace
    if (config.guided && !corpus.empty() && draw_below(rng, 4) < 3) {
      std::uint64_t total = 0;
      for (const ScoredEntry& e : corpus) total += 1 + e.energy;
      std::uint64_t r = draw_below(rng, total);
      for (std::size_t k = 0; k < corpus.size(); ++k) {
        const std::uint64_t w = 1 + corpus[k].energy;
        if (r < w) { picked = k; break; }
        r -= w;
      }
      ops = mutate_trace(rng, platform, corpus[picked].entry.ops, corpus,
                         config.max_ops);
    } else {
      ops = random_trace(rng, platform, config.max_ops);
    }

    TraceResult result;
    {
      obs::ScopedSpan exec_span{config.profiler, obs::kSpanFuzzExec};
      result = execute_trace(platform, ops, &map);
      exec_span.add_steps(result.ops_executed);
    }

    ++stats.outcomes[result.outcome];
    stats.ops_executed += result.ops_executed;
    stats.ops_refused += result.ops_refused;
    for (const auto c : result.classes) ++stats.class_hits[c];

    // Feedback: traces that lit up new coverage join the corpus with energy
    // proportional to their yield; a picked entry that stopped yielding
    // decays so the scheduler moves on.
    if (config.guided) {
      if (result.new_coverage > 0) {
        corpus.push_back(ScoredEntry{
            CorpusEntry{ops, result.outcome, result.classes,
                        result.state_hash},
            result.new_coverage});
        // Credit assignment: a parent whose mutant grew coverage is still
        // a productive frontier — keep it hot.
        if (picked < corpus.size()) {
          corpus[picked].energy += result.new_coverage / 2;
        }
        if (corpus.size() > config.max_corpus) {
          const auto min_it = std::min_element(
              corpus.begin(), corpus.end(),
              [](const ScoredEntry& a, const ScoredEntry& b) {
                return a.energy < b.energy;
              });
          corpus.erase(min_it);
        }
      } else if (picked < corpus.size()) {
        // Exhausted frontier: halve instead of stepping down so a one-time
        // jackpot cannot monopolize the scheduler for hundreds of picks.
        corpus[picked].energy /= 2;
      }
    }

    // Survivors: erroneous states the monitor still observes after the
    // activation workload. Deduplicate by final state hash.
    const bool survived = result.outcome == FuzzOutcome::IsolationViolation ||
                          result.outcome == FuzzOutcome::HostCrash ||
                          result.outcome == FuzzOutcome::CpuHang;
    if (survived && survivor_hashes.insert(result.state_hash).second) {
      Survivor survivor;
      survivor.found_iteration = i;
      survivor.raw_ops = static_cast<unsigned>(ops.size());
      std::vector<FuzzOp> min_ops = ops;
      std::uint64_t entry_hash = result.state_hash;
      if (config.minimize) {
        obs::ScopedSpan min_span{config.profiler, obs::kSpanFuzzMinimize};
        unsigned execs = 0;
        min_ops = minimize_trace_impl(platform, baseline, std::move(min_ops),
                                      result.outcome, result.classes,
                                      config.max_minimize_execs, &execs);
        // The stored record must replay to ITS OWN result, and the shrunk
        // trace reaches a different (smaller) final state than the raw one:
        // re-execute once and record the minimized trace's state hash.
        platform.restore(baseline);
        entry_hash =
            execute_trace(platform, min_ops, nullptr).state_hash;
        stats.minimizer_execs += execs + 1;
        min_span.add_steps(execs + 1);
      }
      survivor.entry = CorpusEntry{std::move(min_ops), result.outcome,
                                   result.classes, entry_hash};
      // Novel: not one of the paper's four XSA families — either an
      // unexplained invariant violation (classified Other) or a crash/hang
      // with no classifiable post-state at all.
      survivor.novel =
          result.classes.empty() ||
          std::find(result.classes.begin(), result.classes.end(),
                    analysis::ErroneousStateClass::Other) !=
              result.classes.end();
      if (!config.corpus_dir.empty()) {
        obs::ScopedSpan io_span{config.profiler, obs::kSpanFuzzCorpus};
        std::ostringstream name;
        name << "survivor_"
             << std::setw(4) << std::setfill('0') << stats.survivors.size()
             << ".trace";
        survivor.file = name.str();
        if (!store_trace_file(config.corpus_dir + "/" + survivor.file,
                              survivor.entry, config.version)) {
          ++stats.corpus_write_failures;
          survivor.file.clear();
        }
        io_span.add_steps(1);
      }
      stats.survivors.push_back(std::move(survivor));
    }

    if ((i + 1) % 1000 == 0) stats.coverage_curve.push_back(map.points());
  }
  if (stats.coverage_curve.empty() ||
      stats.coverage_curve.back() != map.points()) {
    stats.coverage_curve.push_back(map.points());
  }

  // Persist the final corpus: the replayable seed set for the next run.
  if (!config.corpus_dir.empty()) {
    obs::ScopedSpan io_span{config.profiler, obs::kSpanFuzzCorpus};
    for (std::size_t k = 0; k < corpus.size(); ++k) {
      std::ostringstream name;
      name << "corpus_" << std::setw(4) << std::setfill('0') << k << ".trace";
      if (!store_trace_file(config.corpus_dir + "/" + name.str(),
                            corpus[k].entry, config.version)) {
        ++stats.corpus_write_failures;
      }
    }
    io_span.add_steps(corpus.size());
  }

  stats.coverage_points = map.points();
  stats.corpus_entries = static_cast<unsigned>(corpus.size());
  run_span.add_steps(stats.iterations);

  if (config.metrics != nullptr) {
    obs::MetricsRegistry& m = *config.metrics;
    m.counter("fuzz.iterations").inc(stats.iterations);
    m.counter("fuzz.coverage_points").inc(stats.coverage_points);
    m.counter("fuzz.corpus_entries").inc(stats.corpus_entries);
    m.counter("fuzz.survivors").inc(stats.survivors.size());
    m.counter("fuzz.novel_survivors").inc(stats.novel_survivors());
    m.counter("fuzz.ops_executed").inc(stats.ops_executed);
    m.counter("fuzz.ops_refused").inc(stats.ops_refused);
    m.counter("fuzz.minimizer_execs").inc(stats.minimizer_execs);
    m.counter("fuzz.corpus_write_failures").inc(stats.corpus_write_failures);
  }
  return stats;
}

}  // namespace ii::core
