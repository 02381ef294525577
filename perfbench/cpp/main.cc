// gvfs_perfbench: runs one benchmark workload for a fixed host-time budget
// and prints its metrics. Usage:
//
//   gvfs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//   gvfs_perfbench --selftest
//
// A run first samples set-up time (kSetupSamples set-up-only reps), then
// makes one warm-up rep (it carries the content checks and gives the
// simulated figures), then repeats the workload ("reps") until the next rep
// would overrun the budget (at least kMinReps more). Every rep runs on the
// next CPU of the process's affinity mask (see CpuRotation), between two
// passes of a fixed reference job (reference.h) that give the host's speed
// around it. Host figures are medians over the reps after the warm-up;
// every rep must reproduce the warm-up's simulated figures exactly.
// Human-readable lines go first (each starting with "# "); the last line of
// stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run alternates untraced and traced reps and prints the per-layer set.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "quantile.h"
#include "reference.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::HostNs;
using perfbench::NamedValue;
using perfbench::Quantile;
using perfbench::RepConfig;
using perfbench::RepResult;
using perfbench::ratio;

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kSetupSamples = 51;
constexpr double kReferenceShare = 0.05;

// Moves the process to the next of the CPUs it may run on, round robin
// from the first. The CPUs of a shared machine run at different speeds
// (their siblings carry other load), and a process left on one carries that
// CPU's speed into every figure it takes; visiting every CPU in the same
// order gives each run the same mixture.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Args {
  std::string workload;
  gvfs::u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool selftest = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return a.selftest || (!a.workload.empty() && a.seconds > 0);
}

// ---- quantile self-test ----------------------------------------------------

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  using perfbench::quantile;
  using perfbench::tail;
  std::vector<double> ten = {7, 1, 9, 3, 5, 2, 8, 4, 10, 6};
  Quantile m = perfbench::median(ten);
  expect(m.value == 5 && m.n == 10 && m.beyond == 5, "median of 1..10 is 5 with 5 beyond");
  Quantile p90 = quantile(ten, 0.9);
  expect(p90.value == 9 && p90.beyond == 1 && !p90.meets_rule(), "p90 of 1..10");
  expect(quantile(ten, 1.0).value == 10 && quantile(ten, 0.01).value == 1, "extremes");
  expect(quantile({}, 0.5).n == 0 && quantile({}, 0.5).value == 0, "empty sample");
  expect(quantile({42}, 0.99).value == 42, "single sample");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Quantile p90h = quantile(hundred, 0.9);
  expect(p90h.value == 90 && p90h.beyond == 10 && p90h.meets_rule(), "p90 of 1..100 meets rule");
  Quantile p95h = quantile(hundred, 0.95);
  expect(p95h.value == 95 && p95h.beyond == 5 && !p95h.meets_rule(), "p95 of 1..100 fails rule");
  Quantile t = tail(hundred, 0.95);
  expect(t.value == 100 && t.q == 1.0, "unsupported tail falls back to the maximum");
  expect(tail(hundred, 0.9).value == 90, "supported tail is kept");
  std::vector<double> two_hundred;
  for (int i = 1; i <= 200; ++i) two_hundred.push_back(i * 0.5);
  Quantile p95 = tail(two_hundred, 0.95);
  expect(p95.value == 95 && p95.beyond == 10 && p95.q == 0.95, "p95 of 200 samples");
  std::vector<double> ties = {3, 3, 3, 1, 1};
  expect(perfbench::median(ties).value == 3, "median with ties");
  if (failures == 0) std::printf("selftest ok\n");
  return failures == 0 ? 0 : 1;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median_of(const std::vector<RepResult>& reps, double (*get)(const RepResult&)) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(get(r));
  return perfbench::median(v).value;
}

// The simulator's peak: the process's, less the reference job's memory,
// which stays resident from start to end.
double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0 -  // ru_maxrss is KiB
         perfbench::ReferenceJob::resident_mib();
}

void print_json(bool correct, gvfs::u64 attempted, gvfs::u64 failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<Metric> end_to_end(const RepResult& first, const std::vector<RepResult>& plain,
                               const std::vector<double>& setup_samples,
                               gvfs::u64 attempted, gvfs::u64 failed) {
  double ops = static_cast<double>(first.ops.calls());
  Quantile setup = perfbench::median(setup_samples);
  Quantile ready50 = perfbench::median(first.vm_ready_s);
  Quantile ready95 = perfbench::tail(first.vm_ready_s, 0.95);
  std::vector<double> fs_ms = first.ops.all_sim_ms();
  Quantile fs50 = perfbench::median(fs_ms);
  Quantile fs99 = perfbench::tail(fs_ms, 0.99);
  double wan = first.layer("sim.wan_up.bytes") + first.layer("sim.wan_down.bytes");
  double guest_bytes = first.layer("guest.bytes");
  double origin = first.layer("nfs.server.calls");
  double per_pass =
      median_of(plain, [](const RepResult& r) { return r.ops_per_reference_pass(); });
  double raw_rate = median_of(plain, [](const RepResult& r) { return r.ops_per_host_s(); });
  double allocs = median_of(plain, [](const RepResult& r) {
    return ratio(static_cast<double>(r.allocs), static_cast<double>(r.ops.calls()));
  });
  std::printf("# setup_s: %s over %zu set-ups\n", perfbench::describe(setup).c_str(),
              setup_samples.size());
  std::printf("# vm_ready_s: %s, %s\n", perfbench::describe(ready50).c_str(),
              perfbench::describe(ready95).c_str());
  std::printf("# fs_op_ms: %s, %s\n", perfbench::describe(fs50).c_str(),
              perfbench::describe(fs99).c_str());
  std::printf("# wan_bytes_per_guest_byte base: %.0f WAN bytes / %.0f guest bytes\n", wan,
              guest_bytes);
  std::printf("# origin_rpcs_per_guest_op base: %.0f origin calls / %.0f guest ops\n", origin,
              ops);
  std::printf("# guest_ops_per_ref_pass: median over %zu reps of guest ops / host s x host s "
              "of a reference pass around the rep (raw guest ops / host s: %.1f)\n",
              plain.size(), raw_rate);

  return {
      {"setup_s", setup.value, "s"},
      {"guest_ops_per_ref_pass", per_pass, "count"},
      {"host_peak_rss_mib", peak_rss_mib(), "MiB"},
      {"host_allocs_per_guest_op", allocs, "count"},
      {"vm_ready_s_p50", ready50.value, "sim_s"},
      {"vm_ready_s_p95", ready95.value, "sim_s"},
      {"fs_op_ms_p50", fs50.value, "sim_ms"},
      {"fs_op_ms_p99", fs99.value, "sim_ms"},
      {"sim_makespan_s", first.makespan_s, "sim_s"},
      {"wan_bytes_per_guest_byte", ratio(wan, guest_bytes), "ratio"},
      {"origin_rpcs_per_guest_op", ratio(origin, ops), "ratio"},
      {"op_success_frac", 1.0 - ratio(static_cast<double>(failed),
                                      static_cast<double>(attempted)),
       "ratio"},
  };
}

// The unit each per-layer name is printed with.
std::string layer_unit(const std::string& name) {
  auto ends = [&](const char* s) {
    std::size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("host_ns_per_dispatch")) return "ns";
  if (ends("per_host_s")) return "1/s";
  if (ends("_us_p50") || ends("_us_p99")) return "us";
  if (ends("sim_ms_p50") || ends("sim_ms_p99") || ends("service_ms_mean")) return "sim_ms";
  if (ends(".sim_s") || ends("outage_s") || ends("recovery_s")) return "sim_s";
  if (ends("host_s") || ends("host_self_s")) return "s";
  if (ends("hit_rate") || ends("ratio") || ends("frac") || ends("per_fs_op")) return "ratio";
  if (ends("bytes")) return "bytes";
  return "count";
}

std::vector<Metric> per_layer(const std::vector<RepResult>& plain,
                              const std::vector<RepResult>& traced) {
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double v) {
    out.push_back({name, v, layer_unit(name)});
  };
  const RepResult& last = traced.back();
  for (const NamedValue& nv : last.layers) add(nv.name, nv.value);
  // Host self times: medians over the traced reps.
  for (std::size_t i = 0; i < last.host_layers.size(); ++i) {
    std::vector<double> v;
    for (const auto& r : traced) v.push_back(r.host_layers[i].value);
    add(last.host_layers[i].name, perfbench::median(v).value);
  }
  add("gvfs.build.host_s", median_of(traced, [](const RepResult& r) { return r.build_s; }));
  add("gvfs.install.host_s", median_of(traced, [](const RepResult& r) { return r.install_s; }));
  add("gvfs.mount.host_s", median_of(traced, [](const RepResult& r) { return r.mount_s; }));
  add("gvfs.teardown.host_s",
      median_of(traced, [](const RepResult& r) { return r.teardown_s; }));

  // Per call class at the decorator: calls, host self and virtual latency.
  for (std::size_t c = 0; c < perfbench::kOpClasses; ++c) {
    std::string base = std::string("nfs.") +
                       perfbench::op_class_name(static_cast<perfbench::OpClass>(c));
    const auto& sim_ms = last.ops.sim_ms[c];
    const auto& host_us = last.ops.host_self_us[c];
    add(base + ".calls", static_cast<double>(sim_ms.size()));
    add(base + ".host_self_us_p50", perfbench::median(host_us).value);
    add(base + ".host_self_us_p99", perfbench::tail(host_us, 0.99).value);
    add(base + ".sim_ms_p50", perfbench::median(sim_ms).value);
    add(base + ".sim_ms_p99", perfbench::tail(sim_ms, 0.99).value);
    std::printf("# %s: host_self_us %s, sim_ms %s\n", base.c_str(),
                perfbench::describe(perfbench::tail(host_us, 0.99)).c_str(),
                perfbench::describe(perfbench::tail(sim_ms, 0.99)).c_str());
  }

  double untraced = median_of(plain, [](const RepResult& r) { return r.host_s(); });
  double traced_s = median_of(traced, [](const RepResult& r) { return r.host_s(); });
  double attributed = 0;
  for (const Metric& m : out) {
    if (m.name == "trace.attributed_host_s") attributed = m.value;
  }
  // The two factors of guest_ops_per_ref_pass, over the untraced reps.
  add("guest_ops_per_host_s",
      median_of(plain, [](const RepResult& r) { return r.ops_per_host_s(); }));
  add("reference.pass_host_s", median_of(plain, [](const RepResult& r) { return r.reference_s; }));
  add("trace.untraced_host_s", untraced);
  add("trace.traced_host_s", traced_s);
  add("trace.unattributed_host_s", traced_s - attributed);
  add("trace.overhead_frac", ratio(traced_s, untraced) - 1.0);
  std::printf("# trace: untraced %.4f s, traced %.4f s, attributed %.4f s (%zu + %zu reps)\n",
              untraced, traced_s, attributed, plain.size(), traced.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: gvfs_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] | --selftest\n");
    return 2;
  }
  if (a.selftest) return selftest();
  bool known = false;
  for (const auto& n : perfbench::workload_names()) known = known || n == a.workload;
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  const HostNs start = perfbench::host_now_ns();
  const auto budget = static_cast<HostNs>(a.seconds * 1e9);
  std::vector<std::string> problems;
  gvfs::u64 attempted = 0, failed = 0;
  std::vector<double> fingerprint;
  std::vector<double> rep_wall_s;
  CpuRotation cpus;
  perfbench::ReferenceJob reference;
  auto run = [&](const RepConfig& cfg) {
    cpus.next();
    // Each side of a rep gets kReferenceShare of the last rep's time in
    // reference passes, so a long rep is judged by more of them.
    const double side_s = rep_wall_s.empty() ? 0 : kReferenceShare * rep_wall_s.back();
    double ref0 = cfg.setup_only ? 0 : reference.time_pass(side_s);
    HostNs r0 = perfbench::host_now_ns();
    RepResult r = perfbench::run_rep(cfg);
    if (!cfg.setup_only) r.reference_s = (ref0 + reference.time_pass(side_s)) / 2;
    double wall = perfbench::ns_to_s(perfbench::host_now_ns() - r0);
    for (const auto& p : r.problems) problems.push_back(p);
    attempted += r.attempted();
    failed += r.failed();
    if (cfg.setup_only) return r;
    rep_wall_s.push_back(wall);
    std::printf("# rep %zu%s: wall %.3fs setup %.4fs run %.3fs teardown %.3fs | sim %.6gs, "
                "%llu ops, %llu failed | reference %.4fs\n",
                rep_wall_s.size() - 1, cfg.traced ? " traced" : "", wall, r.setup_s, r.run_s,
                r.teardown_s, r.makespan_s, static_cast<unsigned long long>(r.ops.calls()),
                static_cast<unsigned long long>(r.failed()), r.reference_s);
    if (fingerprint.empty()) {
      fingerprint = r.fingerprint();
    } else if (r.fingerprint() != fingerprint) {
      ++failed;
      problems.push_back("rep " + std::to_string(rep_wall_s.size() - 1) +
                         " did not reproduce the simulated results of rep 0");
    }
    return r;
  };
  RepConfig cfg;
  cfg.workload = a.workload;
  cfg.seed = a.seed;

  // Set-up time: the median of kSetupSamples set-up-only reps run back to
  // back first, while the process is fresh, so every run samples set-up
  // under the same conditions.
  std::vector<double> setup_samples;
  cfg.setup_only = true;
  const HostNs setup_start = perfbench::host_now_ns();
  while (setup_samples.size() < kSetupSamples) setup_samples.push_back(run(cfg).setup_s);
  const double setup_wall = perfbench::ns_to_s(perfbench::host_now_ns() - setup_start);
  cfg.setup_only = false;

  // Rep 0 warms the process up (allocator, page tables) and carries the
  // content checks; it gives the simulated results but no host figures.
  const RepResult warmup = run(cfg);
  cfg.full_checks = false;
  std::vector<RepResult> plain, traced;
  while (true) {
    cfg.traced = a.trace && traced.size() < plain.size();
    RepResult r = run(cfg);
    (cfg.traced ? traced : plain).push_back(std::move(r));
    bool enough = plain.size() >= kMinReps && (!a.trace || traced.size() >= kMinReps);
    double elapsed = perfbench::ns_to_s(perfbench::host_now_ns() - start);
    double next = perfbench::median(rep_wall_s).value;
    if (enough && (elapsed + next) * 1e9 > static_cast<double>(budget)) break;
  }

  std::printf("# workload=%s seed=%llu reps=1+%zu traced_reps=%zu set-ups=%zu (%.2fs) wall=%.2fs\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), plain.size(),
              traced.size(), setup_samples.size(), setup_wall,
              perfbench::ns_to_s(perfbench::host_now_ns() - start));
  for (const auto& p : problems) std::printf("# problem: %s\n", p.c_str());

  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = per_layer(plain, traced);
    if (!a.trace_out.empty()) {
      if (gvfs::Status st = traced.back().spans->write_json(a.trace_out); !st.is_ok()) {
        std::printf("# problem: %s\n", st.to_string().c_str());
      }
    }
  } else {
    metrics = end_to_end(warmup, plain, setup_samples, attempted, failed);
  }
  print_json(failed == 0, attempted, failed, metrics);
  return 0;
}
