#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kFsRead: return "nfs.read";
    case SpanKind::kFsWrite: return "nfs.write";
    case SpanKind::kFsStat: return "nfs.stat";
    case SpanKind::kFsMeta: return "nfs.meta";
    case SpanKind::kFsFlush: return "nfs.flush";
    case SpanKind::kMount: return "gvfs.mount";
    case SpanKind::kVmResume: return "vm.resume";
    case SpanKind::kVmClone: return "vm.clone";
    case SpanKind::kWorkloadRun: return "workload.run";
    case SpanKind::kWriteBack: return "gvfs.write_back";
    case SpanKind::kReconnect: return "gvfs.reconnect";
    case SpanKind::kBuild: return "gvfs.build";
    case SpanKind::kInstall: return "gvfs.install";
    case SpanKind::kTeardown: return "gvfs.teardown";
  }
  return "?";
}

void SelfClock::install(gvfs::sim::SimKernel& kernel) {
  kernel.set_schedule_tracer(
      [this](gvfs::SimTime, gvfs::u64, const gvfs::sim::Process& p) { on_dispatch_(p); });
}

void SelfClock::on_dispatch_(const gvfs::sim::Process& p) {
  HostNs now = host_now_ns();
  if (current_ != nullptr) acc_[current_] += now - last_;
  current_ = &p;
  last_ = now;
  ++dispatches_;
}

HostNs SelfClock::self_ns(const gvfs::sim::Process& p) const {
  auto it = acc_.find(&p);
  HostNs total = it == acc_.end() ? 0 : it->second;
  if (current_ == &p) total += host_now_ns() - last_;
  return total;
}

std::uint32_t SpanLog::begin(const gvfs::sim::Process& p, SpanKind kind,
                             std::uint32_t group) {
  auto id = static_cast<std::uint32_t>(spans_.size());
  std::vector<Open>& stack = open_[&p];
  Span s;
  s.kind = kind;
  s.group = group;
  s.parent = stack.empty() ? -1 : static_cast<std::int32_t>(stack.back().id);
  s.host_start = host_now_ns();
  s.sim_start = p.now();
  spans_.push_back(s);
  stack.push_back(Open{id, clock_.self_ns(p), 0});
  return id;
}

HostNs SpanLog::end(const gvfs::sim::Process& p, std::uint32_t id) {
  std::vector<Open>& stack = open_[&p];
  // A span abandoned by an unwinding process leaves entries above `id`.
  while (!stack.empty() && stack.back().id != id) stack.pop_back();
  if (stack.empty()) return 0;
  Open o = stack.back();
  stack.pop_back();
  HostNs proc_ns = clock_.self_ns(p) - o.proc_start;
  Span& s = spans_[id];
  s.host_end = host_now_ns();
  s.sim_end = p.now();
  s.self_ns = proc_ns - o.child_ns;
  if (!stack.empty()) stack.back().child_ns += proc_ns;
  return s.self_ns;
}

void SpanLog::add_host(SpanKind kind, HostNs start, HostNs end) {
  Span s;
  s.kind = kind;
  s.host_start = start;
  s.host_end = end;
  s.self_ns = end - start;
  spans_.push_back(s);
}

HostNs SpanLog::self_total(SpanKind kind) const {
  HostNs total = 0;
  for (const Span& s : spans_) {
    if (s.kind == kind) total += s.self_ns;
  }
  return total;
}

gvfs::SimDuration SpanLog::sim_total(SpanKind kind) const {
  gvfs::SimDuration total = 0;
  for (const Span& s : spans_) {
    if (s.kind == kind) total += s.sim_end - s.sim_start;
  }
  return total;
}

HostNs SpanLog::attributed_total() const {
  HostNs total = 0;
  for (const Span& s : spans_) total += s.self_ns;
  return total;
}

gvfs::Status SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return gvfs::err(gvfs::ErrCode::kIo, "cannot write " + path);
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"group\":%u,\"parent\":%d,"
                 "\"host_start_ns\":%lld,\"host_end_ns\":%lld,\"self_ns\":%lld,"
                 "\"sim_start_ns\":%lld,\"sim_end_ns\":%lld}%s\n",
                 i, span_name(s.kind), s.group, s.parent,
                 static_cast<long long>(s.host_start), static_cast<long long>(s.host_end),
                 static_cast<long long>(s.self_ns), static_cast<long long>(s.sim_start),
                 static_cast<long long>(s.sim_end), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0 ? gvfs::Status::ok()
                             : gvfs::err(gvfs::ErrCode::kIo, "cannot write " + path);
}

}  // namespace perfbench
