#include "obs/span.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace ii::obs {

namespace {

struct SpanNameEntry {
  std::string_view name;
  std::string_view what;
};

// Render-name table: one row per registered span constant. ii-lint rule
// span-render-name checks that every kSpan* constant referenced from src/
// has a row here, so a new instrumentation site cannot ship an unnamed
// phase.
constexpr std::array kSpanNameTable{
    SpanNameEntry{kSpanCheck, "bounded model check run"},
    SpanNameEntry{kSpanExpand, "apply every enabled op to a parent state"},
    SpanNameEntry{kSpanAudit, "invariant audit of a newly discovered state"},
    SpanNameEntry{kSpanProduce, "parallel expand: apply ops, capture CoW children"},
    SpanNameEntry{kSpanAdmit, "owner-shard admission over candidate inboxes"},
    SpanNameEntry{kSpanSettle, "parallel audit of admitted states + assembly"},
    SpanNameEntry{kSpanSpill, "frontier spill-file writes and reads"},
    SpanNameEntry{kSpanCell, "one campaign cell (use case x version x mode)"},
    SpanNameEntry{kSpanAcquire, "platform acquisition (pool lease or boot)"},
    SpanNameEntry{kSpanRestore, "rewind platform to the boot baseline"},
    SpanNameEntry{kSpanInject, "run the cell's exploit or injection payload"},
    SpanNameEntry{kSpanMonitor, "erroneous-state and violation detection"},
    SpanNameEntry{kSpanRecover, "ReHype-style microreboot recovery"},
    SpanNameEntry{kSpanSupervisor, "campaign supervisor worker loop"},
    SpanNameEntry{kSpanRetry, "re-run of a failed cell attempt"},
    SpanNameEntry{kSpanQuarantine, "cell retired after repeated failures"},
    SpanNameEntry{kSpanJournal, "resume-journal rewrite and append"},
    SpanNameEntry{kSpanChaos, "chaos-engine fault absorbed by the worker"},
    SpanNameEntry{kSpanPreAudit, "invariant audit before recovery"},
    SpanNameEntry{kSpanIdt, "restore corrupted IDT gates"},
    SpanNameEntry{kSpanFrameTable, "rebuild frame types and refcounts"},
    SpanNameEntry{kSpanP2m, "reconcile p2m against the frame table"},
    SpanNameEntry{kSpanDomains, "scrub and re-pin per-domain page tables"},
    SpanNameEntry{kSpanGrants, "re-derive grant mapping bookkeeping"},
    SpanNameEntry{kSpanPostAudit, "invariant audit after recovery"},
    SpanNameEntry{kSpanFuzz, "coverage-guided sequence-fuzzer run"},
    SpanNameEntry{kSpanFuzzExec, "execute one fuzz trace on a rewound platform"},
    SpanNameEntry{kSpanFuzzMinimize, "delta-debug shrink of a surviving trace"},
    SpanNameEntry{kSpanFuzzCorpus, "corpus trace-file reads and writes"},
};

}  // namespace

std::string_view span_name_description(std::string_view name) {
  for (const SpanNameEntry& e : kSpanNameTable) {
    if (e.name == name) return e.what;
  }
  return {};
}

std::vector<std::string_view> registered_span_names() {
  std::vector<std::string_view> names;
  names.reserve(kSpanNameTable.size());
  for (const SpanNameEntry& e : kSpanNameTable) names.push_back(e.name);
  return names;
}

std::uint64_t SpanNode::total_steps(bool include_sched) const {
  if (!include_sched && kind == SpanKind::Sched) return 0;
  std::uint64_t total = steps;
  for (const auto& [name_, child] : children) {
    total += child->total_steps(include_sched);
  }
  return total;
}

// ------------------------------------------------------------ SpanProfiler

namespace {

SpanNode* child_of(SpanNode* parent, std::string_view name, SpanKind kind) {
  const auto it = parent->children.find(name);
  if (it != parent->children.end()) {
    // A node touched from both a Det and a Sched site is
    // scheduling-dependent; Sched is sticky so the deterministic render
    // never shows a partially accounted span.
    if (kind == SpanKind::Sched) it->second->kind = SpanKind::Sched;
    return it->second.get();
  }
  auto node = std::make_unique<SpanNode>();
  node->name = std::string{name};
  node->kind = kind;
  SpanNode* raw = node.get();
  parent->children.emplace(raw->name, std::move(node));
  return raw;
}

}  // namespace

void SpanProfiler::enter(std::string_view name, SpanKind kind) {
  SpanNode* parent = stack_.empty() ? &root_ : stack_.back();
  SpanNode* node = child_of(parent, name, kind);
  node->count += 1;
  stack_.push_back(node);
}

std::size_t SpanProfiler::enter_path(
    std::initializer_list<std::string_view> path, SpanKind kind) {
  const std::size_t mark = stack_.size();
  SpanNode* node = &root_;
  // Only the leaf carries `kind`: a Sched leaf under a Det ancestor (the
  // parallel checker's classify under check/dN) must not taint the
  // ancestor out of the deterministic render.
  std::size_t remaining = path.size();
  for (const std::string_view segment : path) {
    node = child_of(node, segment, --remaining == 0 ? kind : SpanKind::Det);
    stack_.push_back(node);
  }
  if (node != &root_) node->count += 1;
  return mark;
}

void SpanProfiler::exit() {
  if (stack_.empty()) throw std::logic_error{"SpanProfiler::exit at root"};
  stack_.pop_back();
}

void SpanProfiler::exit_to(std::size_t mark) {
  if (mark > stack_.size()) {
    throw std::logic_error{"SpanProfiler::exit_to beyond cursor"};
  }
  stack_.resize(mark);
}

void SpanProfiler::add_steps(std::uint64_t n) {
  SpanNode* node = stack_.empty() ? &root_ : stack_.back();
  node->steps += n;
}

void SpanProfiler::add_wall_ns(std::uint64_t ns) {
  SpanNode* node = stack_.empty() ? &root_ : stack_.back();
  node->wall_ns += ns;
}

void SpanProfiler::add(std::initializer_list<std::string_view> path,
                       std::uint64_t count, std::uint64_t steps,
                       SpanKind kind) {
  SpanNode* node = node_at(path, kind);
  node->count += count;
  node->steps += steps;
}

SpanNode* SpanProfiler::node_at(std::initializer_list<std::string_view> path,
                                SpanKind kind) {
  SpanNode* node = &root_;
  std::size_t remaining = path.size();
  for (const std::string_view segment : path) {
    node = child_of(node, segment, --remaining == 0 ? kind : SpanKind::Det);
  }
  return node;
}

std::string SpanProfiler::current_path() const {
  std::string path;
  for (const SpanNode* node : stack_) {
    if (!path.empty()) path += '/';
    path += node->name;
  }
  return path;
}

namespace {

void merge_node(SpanNode* into, const SpanNode& from) {
  into->count += from.count;
  into->steps += from.steps;
  into->wall_ns += from.wall_ns;
  if (from.kind == SpanKind::Sched) into->kind = SpanKind::Sched;
  for (const auto& [name, child] : from.children) {
    merge_node(child_of(into, name, child->kind), *child);
  }
}

}  // namespace

void SpanProfiler::merge(const SpanProfiler& other) {
  for (const auto& [name, child] : other.root_.children) {
    merge_node(child_of(&root_, name, child->kind), *child);
  }
  root_.steps += other.root_.steps;
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

void SpanProfiler::reset() {
  if (!stack_.empty()) {
    throw std::logic_error{"SpanProfiler::reset inside an open span"};
  }
  root_ = SpanNode{};
  events_.clear();
}

// -------------------------------------------------------------- ScopedSpan

ScopedSpan::ScopedSpan(SpanProfiler* profiler, std::string_view name,
                       SpanKind kind, const TraceSink* step_source)
    : profiler_{profiler} {
  if (profiler_ == nullptr) return;
  mark_ = profiler_->cursor_mark();
  profiler_->enter(name, kind);
  // A relative enter nests under the cursor, so the stack is the path.
  if (profiler_->record_events()) path_ = profiler_->current_path();
  begin(kind, step_source);
}

ScopedSpan::ScopedSpan(SpanProfiler* profiler,
                       std::initializer_list<std::string_view> path,
                       SpanKind kind, const TraceSink* step_source)
    : profiler_{profiler} {
  if (profiler_ == nullptr) return;
  mark_ = profiler_->enter_path(path, kind);
  if (profiler_->record_events()) {
    for (const std::string_view segment : path) {
      if (!path_.empty()) path_ += '/';
      path_ += segment;
    }
  }
  begin(kind, step_source);
}

void ScopedSpan::begin(SpanKind kind, const TraceSink* step_source) {
  kind_ = kind;
  step_source_ = step_source;
  if (step_source_ != nullptr) start_sink_steps_ = step_source_->emitted();
  start_ = SpanProfiler::Clock::now();
}

ScopedSpan::~ScopedSpan() { end(); }

void ScopedSpan::end() {
  if (profiler_ == nullptr) return;
  const auto now = SpanProfiler::Clock::now();
  if (step_source_ != nullptr) {
    const std::uint64_t delta = step_source_->emitted() - start_sink_steps_;
    span_steps_ += delta;
    profiler_->add_steps(delta);
  }
  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
          .count());
  profiler_->add_wall_ns(wall_ns);
  if (profiler_->record_events()) {
    SpanEvent event;
    event.path = path_;
    event.kind = kind_;
    event.tid = profiler_->tid();
    event.ts_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(start_ -
                                                              profiler_->epoch())
            .count());
    event.dur_us = wall_ns / 1000;
    event.steps = span_steps_;
    profiler_->record_event(std::move(event));
  }
  profiler_->exit_to(mark_);
  profiler_ = nullptr;  // idempotence: a later end()/dtor is a no-op
}

void ScopedSpan::add_steps(std::uint64_t n) {
  if (profiler_ == nullptr) return;
  span_steps_ += n;
  profiler_->add_steps(n);
}

// ----------------------------------------------------------------- renders

namespace {

bool subtree_visible(const SpanNode& node, bool include_wall) {
  return include_wall || node.kind == SpanKind::Det;
}

void render_node(std::ostringstream& os, const SpanNode& node, int depth,
                 bool include_wall) {
  if (!subtree_visible(node, include_wall)) return;
  std::string label(static_cast<std::size_t>(depth) * 2, ' ');
  label += node.name;
  if (node.kind == SpanKind::Sched) label += " *";
  os << "  " << label;
  const int pad = 28 - static_cast<int>(label.size());
  for (int i = 0; i < std::max(pad, 1); ++i) os << ' ';
  char buf[96];
  if (include_wall) {
    std::snprintf(buf, sizeof buf, "%10llu %12llu %12llu %12llu\n",
                  static_cast<unsigned long long>(node.count),
                  static_cast<unsigned long long>(node.total_steps(true)),
                  static_cast<unsigned long long>(node.steps),
                  static_cast<unsigned long long>(node.wall_ns / 1000));
  } else {
    std::snprintf(buf, sizeof buf, "%10llu %12llu %12llu\n",
                  static_cast<unsigned long long>(node.count),
                  static_cast<unsigned long long>(node.total_steps(false)),
                  static_cast<unsigned long long>(node.steps));
  }
  os << buf;
  for (const auto& [name, child] : node.children) {
    render_node(os, *child, depth + 1, include_wall);
  }
}

}  // namespace

std::string render_profile(const SpanProfiler& profiler, bool include_wall) {
  std::ostringstream os;
  os << "span profile (" << (include_wall ? "steps + wall" : "deterministic")
     << ")\n";
  os << "  span                             count  total steps   self steps";
  if (include_wall) os << "      wall us";
  os << '\n';
  for (const auto& [name, child] : profiler.root().children) {
    render_node(os, *child, 0, include_wall);
  }
  if (include_wall) {
    os << "  (* = scheduling-dependent span, excluded from the "
          "deterministic profile)\n";
  }
  return os.str();
}

std::string chrome_trace_json(const SpanProfiler& profiler) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& event : profiler.events()) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << event.path << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << event.tid << ",\"ts\":" << event.ts_us << ",\"dur\":" << event.dur_us
       << ",\"cat\":\"" << (event.kind == SpanKind::Sched ? "sched" : "det")
       << "\",\"args\":{\"steps\":" << event.steps << "}}";
  }
  os << "]}";
  return os.str();
}

}  // namespace ii::obs
