// Outside-in tracing for the benchmark: host self time per simulated
// process, and spans recorded around the public calls the benchmark makes
// into each layer.
//
// All simulated processes share one OS thread, so a plain wall-clock
// interval around a call in a process also counts every other process that
// ran while the caller was blocked on virtual time. SelfClock fixes that: it
// installs SimKernel's schedule tracer and, at every dispatch, charges the
// host time since the previous dispatch to the process that was running.
// A process's self time therefore grows only while it is the one
// dispatched. (Scheduler work between a yield and the next dispatch is
// charged to the process that yielded.)
//
// SpanLog keeps spans in memory: a span's self time is its process self
// time minus that of the spans it opened (its children).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sim/kernel.h"

namespace perfbench {

using HostNs = std::int64_t;

inline HostNs host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(HostNs ns) { return static_cast<double>(ns) * 1e-9; }

enum class SpanKind : std::uint8_t {
  kFsRead,
  kFsWrite,
  kFsStat,
  kFsMeta,
  kFsFlush,
  kMount,
  kVmResume,
  kVmClone,
  kWorkloadRun,
  kWriteBack,
  kReconnect,
  kBuild,
  kInstall,
  kTeardown,
};

const char* span_name(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kFsRead;
  std::uint32_t group = 0;  // one id per VM / session; 0 for host-only spans
  std::int32_t parent = -1;
  HostNs host_start = 0;
  HostNs host_end = 0;
  HostNs self_ns = 0;  // process self time minus the children's
  gvfs::SimTime sim_start = 0;
  gvfs::SimTime sim_end = 0;
};

class SelfClock {
 public:
  void install(gvfs::sim::SimKernel& kernel);

  // Host time `p` has spent dispatched so far (including the current
  // dispatch when `p` is running).
  [[nodiscard]] HostNs self_ns(const gvfs::sim::Process& p) const;
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }

 private:
  void on_dispatch_(const gvfs::sim::Process& p);

  std::unordered_map<const gvfs::sim::Process*, HostNs> acc_;
  const gvfs::sim::Process* current_ = nullptr;
  HostNs last_ = 0;
  std::uint64_t dispatches_ = 0;
};

class SpanLog {
 public:
  explicit SpanLog(const SelfClock& clock) : clock_(clock) {}

  // Open a span on process `p`; the innermost span already open on `p`
  // becomes its parent. Returns the span's index.
  std::uint32_t begin(const gvfs::sim::Process& p, SpanKind kind,
                      std::uint32_t group);
  // Close the innermost open span of `p` (which must be `id`) and return
  // its self time.
  HostNs end(const gvfs::sim::Process& p, std::uint32_t id);
  // A span outside any simulated process (set-up and teardown phases).
  void add_host(SpanKind kind, HostNs start, HostNs end);

  // Sum of self time, and of virtual duration, over every span of `kind`.
  [[nodiscard]] HostNs self_total(SpanKind kind) const;
  [[nodiscard]] gvfs::SimDuration sim_total(SpanKind kind) const;
  // Self time summed over every span: the host time the trace accounts
  // for (children's self time is disjoint from their parents').
  [[nodiscard]] HostNs attributed_total() const;

  // Write the spans as a JSON array, one object per line.
  gvfs::Status write_json(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t id;
    HostNs proc_start;
    HostNs child_ns;
  };

  const SelfClock& clock_;
  std::vector<Span> spans_;
  std::unordered_map<const gvfs::sim::Process*, std::vector<Open>> open_;
};

}  // namespace perfbench
