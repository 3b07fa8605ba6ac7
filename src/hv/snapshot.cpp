// Hypervisor state capture/restore and the canonical state digest
// (see snapshot.hpp for the model, DESIGN.md §10 for the costs).
//
// Both follow the frames an execution dirtied, not the machine size.
// state_hash() is an order-independent sum with one term per memory frame
// and one per PageInfo: the Digest readers of the two dirty logs
// (sim/dirty_log.hpp) name the frames whose terms may have moved since the
// previous hash, and a memory frame's bytes are re-read only when its
// write generation moved. Capture and rewind against the synced baseline
// visit the Rewind logs' frames; against any other baseline they sweep
// every frame's generation. Generations decide which frames to copy — no
// byte comparisons anywhere — and a frame at kInitialGeneration is zero,
// so neither the first hash nor a full snapshot reads it.
#include "hv/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <ranges>
#include <stdexcept>
#include <utility>

namespace ii::hv {

namespace {

using sim::DirtyReader;

constexpr std::uint64_t kInitialGeneration =
    sim::PhysicalMemory::kInitialGeneration;

/// What every frame at kInitialGeneration holds.
constexpr std::array<std::uint8_t, sim::kPageSize> kZeroFrame{};

/// 64-bit FNV-1a of one frame's bytes. Not cryptographic — chosen for
/// determinism across runs and platforms. Word-at-a-time: one 8-byte load
/// feeding eight dependent FNV steps beats a byte load per step, and the
/// chunk is consumed LSB-first (memory order on little-endian), so the
/// value equals the byte-at-a-time loop's.
std::uint64_t frame_digest(std::span<const std::uint8_t> data) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < data.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, data.data() + i, 8);
    for (int b = 0; b < 8; ++b) h = (h ^ ((w >> (8 * b)) & 0xFF)) * kPrime;
  }
  return h;
}

/// Murmur3's 64-bit finalizer: a bijective avalanche mix.
constexpr std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDULL;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ULL;
  k ^= k >> 33;
  return k;
}

/// Lane salts keep a memory frame's term apart from the PageInfo term of
/// the same MFN.
constexpr std::uint64_t kMemLane = 0x6D656D5F6672616DULL;
constexpr std::uint64_t kInfoLane = 0x706167655F696E66ULL;

/// One summand of the state digest: `value` sitting at `mfn` of `lane`.
constexpr std::uint64_t term(std::uint64_t lane, std::uint64_t mfn,
                             std::uint64_t value) {
  return fmix64(value ^ fmix64(mfn + lane));
}

std::uint64_t mem_term(const sim::PhysicalMemory& mem, std::uint64_t mfn) {
  return term(kMemLane, mfn, frame_digest(mem.frame_bytes(sim::Mfn{mfn})));
}

/// mem_term() of a frame at kInitialGeneration, without reading it.
std::uint64_t zero_mem_term(std::uint64_t mfn) {
  static const std::uint64_t digest = frame_digest(kZeroFrame);
  return term(kMemLane, mfn, digest);
}

std::uint64_t info_term(std::uint64_t mfn, const PageInfo& pi) {
  const std::uint64_t tag = std::uint64_t{pi.owner} |
                            std::uint64_t{static_cast<std::uint8_t>(pi.type)}
                                << 16 |
                            std::uint64_t{pi.validated} << 24;
  const std::uint64_t counts =
      std::uint64_t{pi.type_count} | std::uint64_t{pi.ref_count} << 32;
  return term(kInfoLane, mfn, fmix64(counts + fmix64(tag)));
}

/// Sequential hash of the bookkeeping, one 64-bit field per step. Each
/// step is a bijection of the running value for a fixed field, so no two
/// field values fold alike from the same prefix.
class WordHasher {
 public:
  void add(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x9E3779B97F4A7C15ULL;
    h_ ^= h_ >> 32;
  }
  [[nodiscard]] std::uint64_t value() const { return fmix64(h_); }

 private:
  std::uint64_t h_ = 0x243F6A8885A308D3ULL;
};

/// Identity for the next snapshot: unique in the process, so a snapshot
/// carried to another machine can never pass for that machine's own.
std::uint64_t next_snapshot_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void check_shape(const HvSnapshot& base, const sim::PhysicalMemory& mem,
                 const FrameTable& frames, const char* what) {
  if (base.frame_gens.size() != mem.frame_count() ||
      base.frames.size() != frames.frame_count()) {
    throw std::logic_error{std::string{what} +
                           ": baseline shape does not match this machine"};
  }
}

}  // namespace

std::span<const std::uint8_t> HvSnapshot::frame(std::uint64_t mfn) const {
  const auto it =
      std::lower_bound(written_frames.begin(), written_frames.end(), mfn);
  if (it == written_frames.end() || *it != mfn) return kZeroFrame;
  const auto index = static_cast<std::size_t>(it - written_frames.begin());
  return {written_bytes.data() + index * sim::kPageSize, sim::kPageSize};
}

// ------------------------------------------------------------------ digest

std::uint64_t Hypervisor::bookkeeping_digest() const {
  WordHasher h;
  // The allocator's observable hidden state: future allocations depend on
  // it, so it is semantically part of the state.
  const FrameTable::AllocatorState& alloc = frames_.allocator_state();
  h.add(alloc.bump);
  h.add(alloc.free_list.size());
  for (const std::uint64_t f : alloc.free_list) h.add(f);

  // Domains (std::map iterates in id order). Pins are summed, not folded:
  // pin order is an artifact of operation history, not state — unpin works
  // per-mfn regardless of order.
  for (const auto& [id, dom] : domains_) {
    h.add(id);
    h.add(dom->crashed());
    h.add(dom->cr3().raw());
    h.add(dom->start_info_mfn().raw());
    h.add(dom->nr_pages());
    for (std::uint64_t p = 0; p < dom->nr_pages(); ++p) {
      const auto mfn = dom->p2m(sim::Pfn{p});
      h.add(mfn ? mfn->raw() + 1 : 0);
    }
    std::uint64_t pins = 0;
    for (const sim::Mfn m : dom->pinned_tables()) pins += fmix64(m.raw() + 1);
    h.add(dom->pinned_tables().size());
    h.add(pins);
    h.add(dom->trap_table().size());
    for (const auto& [vector, handler] : dom->trap_table()) {
      h.add(vector);
      h.add(handler.raw());
    }
  }
  h.add(next_domid_);

  // Grant state, including the guest-visible handle counter.
  for (const auto& [id, table] : grants_.tables()) {
    h.add(id);
    h.add(table.version());
    for (const GrantEntry& e : table.entries()) {
      h.add(e.peer);
      h.add(e.pfn.raw());
      h.add(std::uint64_t{e.readonly} | std::uint64_t{e.in_use} << 1);
      h.add(e.maps);
    }
    h.add(table.status_frames().size());
    for (const sim::Mfn f : table.status_frames()) h.add(f.raw());
  }
  h.add(grants_.mappings().size());
  for (const auto& [handle, m] : grants_.mappings()) {
    h.add(handle);
    h.add(m.mapper);
    h.add(m.granter);
    h.add(m.ref);
    h.add(m.frame.raw());
    h.add(m.readonly);
  }
  h.add(grants_.next_handle());

  // Event channels (pending/mask bits are in the memory image already).
  for (const auto& [id, ports] : events_.ports()) {
    h.add(id);
    h.add(ports.size());
    for (const auto& [port, p] : ports) {
      h.add(port);
      h.add(std::uint64_t{p.allocated} | std::uint64_t{p.bound} << 1);
      h.add(p.remote);
      h.add(p.peer_domain);
      h.add(p.peer_port);
    }
  }
  h.add(events_.handlers().size());
  for (const auto& [id, port] : events_.handlers()) {
    h.add(id);
    h.add(port);
  }

  // Liveness flags; the console ring is log-only and excluded.
  h.add(std::uint64_t{crashed_} | std::uint64_t{cpu_hung_} << 1);
  return h.value();
}

std::uint64_t Hypervisor::state_hash() const {
  ++snap_stats_.hash_calls;
  // Replace the terms of the given frames; a memory frame's bytes are
  // re-read only when its generation moved since its term was computed.
  const auto update = [&](const auto& mem_frames, const auto& info_frames) {
    for (const std::uint64_t m : mem_frames) {
      ++snap_stats_.frames_visited;
      const std::uint64_t gen = mem_->frame_generation(sim::Mfn{m});
      if (mem_term_gen_[m] == gen) {
        ++snap_stats_.frames_hash_cached;
        continue;
      }
      const std::uint64_t t = mem_term(*mem_, m);
      digest_sum_ += t - mem_term_[m];
      mem_term_[m] = t;
      mem_term_gen_[m] = gen;
      ++snap_stats_.frames_rehashed;
    }
    for (const std::uint64_t m : info_frames) {
      ++snap_stats_.frames_visited;
      const std::uint64_t t = info_term(m, frames_.info(sim::Mfn{m}));
      digest_sum_ += t - info_term_[m];
      info_term_[m] = t;
    }
  };
  const std::uint64_t n = mem_->frame_count();
  if (mem_term_.size() != n) {
    // First hash of this machine: every term is computed once. A frame
    // still at kInitialGeneration is zero, so it takes the zero-frame term
    // unread; only the frames written so far are digested. From here on
    // the Digest logs say which terms can have moved.
    mem_term_.assign(n, 0);
    mem_term_gen_.assign(n, 0);
    info_term_.assign(n, 0);
    digest_sum_ = 0;
    std::vector<std::uint64_t> written;
    for (std::uint64_t m = 0; m < n; ++m) {
      if (mem_->frame_generation(sim::Mfn{m}) != kInitialGeneration) {
        written.push_back(m);
        continue;
      }
      ++snap_stats_.frames_visited;
      mem_term_[m] = zero_mem_term(m);
      mem_term_gen_[m] = kInitialGeneration;
      digest_sum_ += mem_term_[m];
    }
    update(written, std::views::iota(std::uint64_t{0}, n));
  } else {
    update(mem_->dirty_frames(DirtyReader::Digest),
           frames_.dirty_frames(DirtyReader::Digest));
  }
  mem_->sync_dirty(DirtyReader::Digest);
  frames_.sync_dirty(DirtyReader::Digest);
  return fmix64(digest_sum_ + bookkeeping_digest());
}

std::uint64_t Hypervisor::state_hash_full() const {
  ++snap_stats_.hash_calls;
  const std::uint64_t n = mem_->frame_count();
  std::uint64_t sum = 0;
  for (std::uint64_t m = 0; m < n; ++m) {
    sum += mem_term(*mem_, m) + info_term(m, frames_.info(sim::Mfn{m}));
  }
  snap_stats_.frames_rehashed += n;
  snap_stats_.frames_visited += 2 * n;
  return fmix64(sum + bookkeeping_digest());
}

// --------------------------------------------------------- shared helpers

void Hypervisor::sync_rewind(std::uint64_t base_id) const {
  mem_->sync_dirty(DirtyReader::Rewind);
  frames_.sync_dirty(DirtyReader::Rewind);
  rewind_base_ = base_id;
}

std::vector<std::uint64_t> Hypervisor::rewind_set(
    const HvSnapshot& base, std::span<const std::uint64_t> log) const {
  std::vector<std::uint64_t> set;
  if (base.id != 0 && base.id == rewind_base_) {
    set.assign(log.begin(), log.end());
    std::sort(set.begin(), set.end());
  } else {
    set.resize(mem_->frame_count());
    std::iota(set.begin(), set.end(), std::uint64_t{0});
  }
  snap_stats_.frames_visited += set.size();
  return set;
}

std::vector<std::pair<std::uint64_t, PageInfo>> Hypervisor::changed_info(
    const HvSnapshot& base) const {
  std::vector<std::pair<std::uint64_t, PageInfo>> out;
  for (const std::uint64_t m :
       rewind_set(base, frames_.dirty_frames(DirtyReader::Rewind))) {
    const PageInfo& pi = frames_.info(sim::Mfn{m});
    if (!(pi == base.frames[m])) out.emplace_back(m, pi);
  }
  return out;
}

std::uint64_t Hypervisor::rewind_to(const HvSnapshot& base,
                                    std::span<const std::uint64_t> overlay) {
  // Both sets are taken before anything is written: writes below append
  // to the logs, and the sync decision must not change mid-rewind.
  const std::vector<std::uint64_t> mem_set =
      rewind_set(base, mem_->dirty_frames(DirtyReader::Rewind));
  const std::vector<std::uint64_t> info_set =
      rewind_set(base, frames_.dirty_frames(DirtyReader::Rewind));

  std::uint64_t copied = 0;
  std::size_t o = 0;  // cursor into overlay, ascending
  for (const std::uint64_t m : mem_set) {
    while (o < overlay.size() && overlay[o] < m) ++o;
    if (o < overlay.size() && overlay[o] == m) continue;  // caller writes it
    if (mem_->frame_generation(sim::Mfn{m}) == base.frame_gens[m]) continue;
    mem_->restore_frame(sim::Mfn{m}, base.frame(m), base.frame_gens[m]);
    ++copied;
  }
  for (const std::uint64_t m : info_set) {
    if (!(std::as_const(frames_).info(sim::Mfn{m}) == base.frames[m])) {
      frames_.info(sim::Mfn{m}) = base.frames[m];
    }
  }
  // Every frame outside `overlay` now matches `base`, so from here the
  // logs record exactly the divergence from it.
  sync_rewind(base.id);
  return copied;
}

template <class State>
void Hypervisor::capture_bookkeeping(State& s) const {
  s.allocator = frames_.allocator_state();
  for (const auto& [id, dom] : domains_) s.domains.push_back(*dom);
  s.next_domid = next_domid_;
  s.grants = grants_.state();
  s.events = events_.state();
  s.crashed = crashed_;
  s.cpu_hung = cpu_hung_;
  s.console = console_;
  s.hash = state_hash();
}

template <class State>
void Hypervisor::restore_bookkeeping(const State& s) {
  frames_.restore_allocator(s.allocator);
  domains_.clear();
  for (const Domain& dom : s.domains) {
    domains_.emplace(dom.id(), std::make_unique<Domain>(dom));
  }
  next_domid_ = s.next_domid;
  grants_.restore(s.grants);
  events_.restore(s.events);
  crashed_ = s.crashed;
  cpu_hung_ = s.cpu_hung;
  console_ = s.console;
}

// ------------------------------------------------------------ full images

HvSnapshot Hypervisor::snapshot() const {
  HvSnapshot snap;
  snap.id = next_snapshot_id();
  const auto gens = mem_->frame_generations();
  snap.frame_gens.assign(gens.begin(), gens.end());
  snap.mem_generation = mem_->generation();
  for (std::uint64_t m = 0; m < gens.size(); ++m) {
    if (gens[m] == kInitialGeneration) continue;  // zero: nothing to keep
    snap.written_frames.push_back(m);
  }
  snap.written_bytes.reserve(snap.written_frames.size() * sim::kPageSize);
  for (const std::uint64_t m : snap.written_frames) {
    const auto bytes = mem_->frame_bytes(sim::Mfn{m});
    snap.written_bytes.insert(snap.written_bytes.end(), bytes.begin(),
                              bytes.end());
  }

  snap.frames.reserve(frames_.frame_count());
  for (std::uint64_t m = 0; m < frames_.frame_count(); ++m) {
    snap.frames.push_back(frames_.info(sim::Mfn{m}));
  }
  capture_bookkeeping(snap);
  sync_rewind(snap.id);
  return snap;
}

void Hypervisor::restore(const HvSnapshot& snap) {
  check_shape(snap, *mem_, frames_, "HvSnapshot::restore");
  ++snap_stats_.full_restores;
  snap_stats_.frames_copied += rewind_to(snap, {});
  restore_bookkeeping(snap);
}

// ------------------------------------------------------------------ deltas

HvDelta Hypervisor::snapshot_delta(const HvSnapshot& base) const {
  check_shape(base, *mem_, frames_, "snapshot_delta");
  ++snap_stats_.delta_snapshots;
  HvDelta delta;
  delta.base_generation = base.mem_generation;

  for (const std::uint64_t m :
       rewind_set(base, mem_->dirty_frames(DirtyReader::Rewind))) {
    const std::uint64_t gen = mem_->frame_generation(sim::Mfn{m});
    if (gen == base.frame_gens[m]) continue;  // same generation => same bytes
    delta.mem_frames.push_back(m);
    delta.mem_frame_gens.push_back(gen);
    const auto bytes = mem_->frame_bytes(sim::Mfn{m});
    delta.mem_bytes.insert(delta.mem_bytes.end(), bytes.begin(), bytes.end());
  }
  snap_stats_.frames_delta_captured += delta.mem_frames.size();
  delta.frames = changed_info(base);
  capture_bookkeeping(delta);
  return delta;
}

std::uint64_t Hypervisor::restore_delta(const HvSnapshot& base) {
  check_shape(base, *mem_, frames_, "restore_delta");
  ++snap_stats_.delta_restores;
  const std::uint64_t copied = rewind_to(base, {});
  snap_stats_.frames_copied += copied;
  restore_bookkeeping(base);
  return copied;
}

std::uint64_t Hypervisor::restore_delta(const HvSnapshot& base,
                                        const HvDelta& delta) {
  check_shape(base, *mem_, frames_, "restore_delta");
  if (delta.base_generation != base.mem_generation) {
    throw std::logic_error{
        "restore_delta: delta was captured against a different baseline"};
  }
  ++snap_stats_.delta_restores;

  // Frames the delta does not carry are identical to the baseline in the
  // target state, so any that diverged here are rewound; then the delta's
  // frames are applied with the generations this machine stamped on them
  // when the delta was captured.
  std::uint64_t copied = rewind_to(base, delta.mem_frames);
  for (std::size_t d = 0; d < delta.mem_frames.size(); ++d) {
    const std::span bytes{delta.mem_bytes.data() + d * sim::kPageSize,
                          sim::kPageSize};
    mem_->restore_frame(sim::Mfn{delta.mem_frames[d]}, bytes,
                        delta.mem_frame_gens[d]);
    ++copied;
  }
  snap_stats_.frames_copied += copied;

  for (const auto& [m, pi] : delta.frames) frames_.info(sim::Mfn{m}) = pi;
  restore_bookkeeping(delta);
  return copied;
}

// ------------------------------------------------------------- CoW forest

HvCowState Hypervisor::snapshot_cow(const HvSnapshot& base,
                                    const HvCowState* parent,
                                    std::uint64_t gen_marker) const {
  check_shape(base, *mem_, frames_, "snapshot_cow");
  ++snap_stats_.cow_captures;
  HvCowState cow;

  // One ascending pass: frames at their root generation resolve to the
  // shared root; frames written after the marker (the op's own writes) are
  // materialized into fresh blocks; everything else diverged from the root
  // but untouched since the parent was restored, so it must be — and is —
  // aliased from the parent node. The marker must have been read right
  // after the parent restore, before any mutation.
  std::size_t p = 0;  // cursor into parent->mem_frames, ascending
  for (const std::uint64_t m :
       rewind_set(base, mem_->dirty_frames(DirtyReader::Rewind))) {
    const std::uint64_t gen = mem_->frame_generation(sim::Mfn{m});
    if (gen == base.frame_gens[m]) continue;  // same generation => same bytes
    if (gen > gen_marker) {
      auto block = std::make_shared<HvFrameBlock>();
      const auto bytes = mem_->frame_bytes(sim::Mfn{m});
      std::copy(bytes.begin(), bytes.end(), block->bytes.begin());
      cow.mem_frames.emplace_back(m, std::move(block));
      ++cow.owned_frames;
      ++snap_stats_.cow_frames_copied;
      continue;
    }
    if (parent != nullptr) {
      while (p < parent->mem_frames.size() &&
             parent->mem_frames[p].first < m) {
        ++p;
      }
      if (p < parent->mem_frames.size() && parent->mem_frames[p].first == m) {
        cow.mem_frames.emplace_back(m, parent->mem_frames[p].second);
        ++snap_stats_.cow_frames_shared;
        continue;
      }
    }
    throw std::logic_error{
        "snapshot_cow: frame diverged before the capture marker but is "
        "absent from the parent node"};
  }
  cow.frames = changed_info(base);
  capture_bookkeeping(cow);
  return cow;
}

std::uint64_t Hypervisor::restore_cow(const HvSnapshot& base,
                                      const HvCowState& cow) {
  check_shape(base, *mem_, frames_, "restore_cow");
  ++snap_stats_.cow_restores;

  // Frames diverged from the root that the node does not carry are rewound
  // to the root's generations; node frames go through write(), which
  // stamps fresh generations (CoW nodes carry none — they may have been
  // captured on any identically booted machine).
  std::vector<std::uint64_t> overlay;
  overlay.reserve(cow.mem_frames.size());
  for (const auto& [m, block] : cow.mem_frames) overlay.push_back(m);
  std::uint64_t copied = rewind_to(base, overlay);
  for (const auto& [m, block] : cow.mem_frames) {
    mem_->write(sim::mfn_to_paddr(sim::Mfn{m}),
                std::span<const std::uint8_t>{block->bytes});
    ++copied;
  }
  snap_stats_.frames_copied += copied;

  for (const auto& [m, pi] : cow.frames) frames_.info(sim::Mfn{m}) = pi;
  restore_bookkeeping(cow);
  return copied;
}

}  // namespace ii::hv
