// The benchmark's four workloads. One repetition ("rep") builds a fresh
// Testbed, installs the seeded inputs, runs the workload through the timing
// decorator, checks the outputs, and tears the Testbed down, recording host
// time per phase and every simulated outcome.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "timing_session.h"
#include "trace.h"

namespace perfbench {

// num / den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct RepConfig {
  std::string workload;
  gvfs::u64 seed = 1;
  bool traced = false;       // schedule tracer + spans + RPC trace ring
  bool setup_only = false;   // stop once set-up is done (set-up samples)
  bool full_checks = true;   // content checks (hashing); cheap checks always run
};

struct NamedValue {
  std::string name;
  double value = 0;
};

struct RepResult {
  // ---- host phases (seconds) -----------------------------------------------
  double build_s = 0;     // Testbed construction
  double install_s = 0;   // image install
  double mount_s = 0;     // kernel start -> last mount done
  double setup_s = 0;     // construction start -> last mount done
  double run_s = 0;       // first timed guest op -> simulation end
  double teardown_s = 0;  // Testbed destructor
  double kernel_s = 0;    // the whole SimKernel::run()
  gvfs::u64 allocs = 0;   // operator new calls over run + teardown
  double reference_s = 0;  // mean reference pass right before and after (reference.h)

  // ---- simulated outcome (identical for one seed) --------------------------
  OpLog ops;
  std::vector<double> vm_ready_s;
  double makespan_s = 0;
  std::vector<NamedValue> layers;  // per-layer counters, summed over nodes

  // ---- attempts and failures -----------------------------------------------
  gvfs::u64 vms = 0, vms_failed = 0;
  gvfs::u64 checks = 0, checks_failed = 0;
  gvfs::u64 procs = 0, procs_failed = 0;
  std::vector<std::string> problems;

  // ---- traced reps only ----------------------------------------------------
  std::unique_ptr<SelfClock> clock;
  std::unique_ptr<SpanLog> spans;
  std::vector<NamedValue> host_layers;  // host self times per layer

  [[nodiscard]] double host_s() const { return run_s + teardown_s; }
  // Guest ops per host second, and per reference-job pass: the second is
  // the first times the host time of one pass, taken around the same rep,
  // so the host's speed at the time cancels out.
  [[nodiscard]] double ops_per_host_s() const {
    return ratio(static_cast<double>(ops.calls()), host_s());
  }
  [[nodiscard]] double ops_per_reference_pass() const { return ops_per_host_s() * reference_s; }
  [[nodiscard]] gvfs::u64 attempted() const { return ops.calls() + vms + checks + procs; }
  [[nodiscard]] gvfs::u64 failed() const {
    return ops.failed + vms_failed + checks_failed + procs_failed;
  }
  [[nodiscard]] double layer(const std::string& name) const;
  // Every simulated value of the rep, in a fixed order: two reps of one
  // seed must produce identical fingerprints.
  [[nodiscard]] std::vector<double> fingerprint() const;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

RepResult run_rep(const RepConfig& cfg);

}  // namespace perfbench
