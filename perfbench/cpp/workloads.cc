#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>

#include "alloc_hook.h"
#include "common/rng.h"
#include "gvfs/testbed.h"
#include "quantile.h"
#include "vm/guest_fs.h"
#include "vm/vm_cloner.h"
#include "vm/vm_monitor.h"
#include "workload/kernel_compile.h"
#include "workload/latex.h"

namespace perfbench {

using gvfs::Result;
using gvfs::SimTime;
using gvfs::Status;
using gvfs::u64;
using gvfs::operator""_MiB;
using gvfs::operator""_GiB;
namespace core = gvfs::core;
namespace sim = gvfs::sim;
namespace vm = gvfs::vm;
namespace blob = gvfs::blob;
namespace workload = gvfs::workload;

namespace {

// Large enough that no workload's RPCs overflow the ring (rpc.span.dropped
// must read 0).
constexpr gvfs::u32 kRpcTraceCapacity = 1u << 21;

// Independent streams from the one --seed: images, workload configs,
// fault draws and fault windows never share a value.
enum SeedTag : u64 { kImageSeed = 1, kWorkloadSeed = 2, kFaultSeed = 3, kWindowSeed = 4 };

u64 sub_seed(u64 seed, u64 tag) {
  gvfs::SplitMix64 g(seed * 0x9e3779b97f4a7c15ULL + tag);
  return g.next();
}

// Owns the rep's Testbed and stamps the host-time phases around it.
class Harness {
 public:
  Harness(const RepConfig& cfg, RepResult& out) : cfg_(cfg), out_(out) {
    if (cfg.traced) {
      out.clock = std::make_unique<SelfClock>();
      out.spans = std::make_unique<SpanLog>(*out.clock);
    }
  }

  core::Testbed& build(core::TestbedOptions opt) {
    if (cfg_.traced) {
      opt.enable_rpc_trace = true;
      opt.trace_capacity = kRpcTraceCapacity;
    }
    setup_start_ = host_now_ns();
    bed_ = std::make_unique<core::Testbed>(opt);
    HostNs t1 = host_now_ns();
    out_.build_s = ns_to_s(t1 - setup_start_);
    if (cfg_.traced) {
      out_.clock->install(bed_->kernel());
      out_.spans->add_host(SpanKind::kBuild, setup_start_, t1);
    }
    return *bed_;
  }

  Result<vm::VmImagePaths> install(const vm::VmImageSpec& spec) {
    HostNs t0 = host_now_ns();
    auto r = bed_->install_image(spec);
    HostNs t1 = host_now_ns();
    out_.install_s += ns_to_s(t1 - t0);
    if (cfg_.traced) out_.spans->add_host(SpanKind::kInstall, t0, t1);
    check(r.is_ok(), "install " + spec.name +
                         (r.is_ok() ? std::string() : ": " + r.status().to_string()));
    return r;
  }

  // Run `call` in process `p` inside a span of `kind` (traced reps only).
  template <typename Call>
  auto span(sim::Process& p, SpanKind kind, std::uint32_t group, Call&& call)
      -> decltype(call()) {
    if (!cfg_.traced) return call();
    std::uint32_t id = out_.spans->begin(p, kind, group);
    auto r = call();
    out_.spans->end(p, id);
    return r;
  }

  Status mount(sim::Process& p, int node) {
    Status st = span(p, SpanKind::kMount, static_cast<std::uint32_t>(node) + 1,
                     [&] { return bed_->mount(p, node); });
    check(st.is_ok(), "mount node" + std::to_string(node) +
                          (st.is_ok() ? std::string() : ": " + st.to_string()));
    return st;
  }

  // The last set-up step finished: set-up time ends and the timed region
  // (first guest op .. teardown) begins.
  void setup_done() {
    setup_end_ = host_now_ns();
    alloc_run_start_ = gvfs::bench::alloc_snapshot().count;
  }

  void run() {
    HostNs k0 = host_now_ns();
    bed_->kernel().run();
    HostNs k1 = host_now_ns();
    u64 alloc_end = gvfs::bench::alloc_snapshot().count;
    if (setup_end_ == 0) {  // set-up never completed
      setup_end_ = k1;
      alloc_run_start_ = alloc_end;
      fail("set-up did not complete");
    }
    out_.kernel_s = ns_to_s(k1 - k0);
    out_.mount_s = ns_to_s(setup_end_ - k0);
    out_.setup_s = ns_to_s(setup_end_ - setup_start_);
    out_.run_s = ns_to_s(k1 - setup_end_);
    out_.allocs = alloc_end - alloc_run_start_;
    out_.procs_failed += static_cast<u64>(bed_->kernel().failed_processes());
    if (bed_->kernel().failed_processes() > 0) {
      problem("failed sim processes: " + bed_->kernel().failed_names_joined());
    }
  }

  void teardown() {
    u64 a0 = gvfs::bench::alloc_snapshot().count;
    HostNs t0 = host_now_ns();
    bed_.reset();
    HostNs t1 = host_now_ns();
    out_.teardown_s = ns_to_s(t1 - t0);
    out_.allocs += gvfs::bench::alloc_snapshot().count - a0;
    if (cfg_.traced) out_.spans->add_host(SpanKind::kTeardown, t0, t1);
  }

  void check(bool ok, const std::string& what) {
    ++out_.checks;
    if (!ok) {
      ++out_.checks_failed;
      problem("check failed: " + what);
    }
  }

  void fail(const std::string& what) { check(false, what); }
  void problem(std::string what) { out_.problems.push_back(std::move(what)); }

  [[nodiscard]] SpanLog* spans() { return out_.spans.get(); }
  [[nodiscard]] const RepConfig& cfg() const { return cfg_; }
  [[nodiscard]] RepResult& out() { return out_; }

 private:
  const RepConfig& cfg_;
  RepResult& out_;
  std::unique_ptr<core::Testbed> bed_;
  HostNs setup_start_ = 0;
  HostNs setup_end_ = 0;
  u64 alloc_run_start_ = 0;
};

// ---- per-layer counters ------------------------------------------------------

// Sum of every registry counter whose id ends in one of `suffixes`.
double registry_sum(const gvfs::metrics::Registry::Snapshot& snap,
                    std::initializer_list<const char*> suffixes) {
  double total = 0;
  for (const auto& [id, value] : snap) {
    for (const char* suffix : suffixes) {
      std::string s(suffix);
      if (id.size() >= s.size() && id.compare(id.size() - s.size(), s.size(), s) == 0) {
        total += std::strtod(value.c_str(), nullptr);
      }
    }
  }
  return total;
}

// A field of a registry histogram rendered as {"count": .., "mean": ..}.
double registry_histogram_field(const gvfs::metrics::Registry::Snapshot& snap,
                                const std::string& id, const std::string& field) {
  for (const auto& [key, value] : snap) {
    if (key != id) continue;
    std::size_t at = value.find("\"" + field + "\":");
    if (at == std::string::npos) return 0;
    return std::strtod(value.c_str() + at + field.size() + 3, nullptr);
  }
  return 0;
}

// What the workload saw of its VMs before they were destroyed.
struct VmStats {
  u64 cache_hits = 0, cache_misses = 0;  // guest page caches
  double clone_copy_mem_s = 0, clone_resume_s = 0;
  void add(vm::VmMonitor& v) {
    cache_hits += v.guest_cache().hits();
    cache_misses += v.guest_cache().misses();
  }
};

// Counters from the Testbed's public accessors, summed over compute nodes
// (so a topology with per-node registration off reports the same names).
void collect_layers(core::Testbed& bed, const VmStats& vms, RepResult& out) {
  struct Sums {
    double rpcs = 0, wire_r = 0, wire_w = 0;
    double cp_hits = 0, cp_miss = 0, cp_evict = 0;
    double lp_hits = 0, lp_miss = 0, lp_evict = 0;
    double blk_hits = 0, blk_miss = 0, blk_evict = 0, blk_wb = 0;
    double file_hits = 0, file_miss = 0, file_evict = 0;
    double px_recv = 0, px_fwd = 0, px_zero = 0, px_sf_waits = 0;
    double px_unstable = 0, px_commits = 0, px_coalesced = 0;
    double px_queued = 0, px_replayed = 0, px_degraded = 0;
    double px_outage_s = 0, px_recovery_s = 0;
    double retransmits = 0, timeouts = 0;
  } s;
  for (int i = 0; i < bed.options().compute_nodes; ++i) {
    if (auto* c = bed.nfs_client(i)) {
      s.rpcs += static_cast<double>(c->rpcs_sent());
      s.wire_r += static_cast<double>(c->bytes_read_wire());
      s.wire_w += static_cast<double>(c->bytes_written_wire());
      s.cp_hits += static_cast<double>(c->page_cache().hits());
      s.cp_miss += static_cast<double>(c->page_cache().misses());
      s.cp_evict += static_cast<double>(c->page_cache().evictions());
    }
    auto& local = bed.local_session(i).buffer_cache();
    s.lp_hits += static_cast<double>(local.hits());
    s.lp_miss += static_cast<double>(local.misses());
    s.lp_evict += static_cast<double>(local.evictions());
    if (auto* b = bed.block_cache(i)) {
      s.blk_hits += static_cast<double>(b->hits());
      s.blk_miss += static_cast<double>(b->misses());
      s.blk_evict += static_cast<double>(b->evictions());
      s.blk_wb += static_cast<double>(b->writebacks());
    }
    if (auto* f = bed.file_cache(i)) {
      s.file_hits += static_cast<double>(f->hits());
      s.file_miss += static_cast<double>(f->misses());
      s.file_evict += static_cast<double>(f->evictions());
    }
    if (auto* px = bed.client_proxy(i)) {
      s.px_recv += static_cast<double>(px->calls_received());
      s.px_fwd += static_cast<double>(px->calls_forwarded());
      s.px_zero += static_cast<double>(px->zero_filtered_reads());
      s.px_sf_waits += static_cast<double>(px->single_flight_waits());
      s.px_unstable += static_cast<double>(px->flush_unstable_writes());
      s.px_commits += static_cast<double>(px->flush_commits());
      s.px_coalesced += static_cast<double>(px->coalesced_writebacks());
      s.px_queued += static_cast<double>(px->queued_writebacks());
      s.px_replayed += static_cast<double>(px->replayed_writebacks());
      s.px_degraded += static_cast<double>(px->degraded_reads());
      s.px_outage_s += gvfs::to_seconds(px->outage_time());
      s.px_recovery_s += gvfs::to_seconds(px->last_recovery_time());
    }
    if (auto* r = bed.retry_channel(i)) {
      s.retransmits += static_cast<double>(r->retransmits());
      s.timeouts += static_cast<double>(r->timeouts());
    }
  }
  // The shared L2 proxy is where single-flight coalescing happens.
  if (auto* l2 = bed.lan_proxy()) s.px_sf_waits += static_cast<double>(l2->single_flight_waits());

  const auto snap = bed.metrics().snapshot();
  double l2_hits = registry_sum(snap, {"lan_l2.block_cache.hits"});
  double l2_miss = registry_sum(snap, {"lan_l2.block_cache.misses"});
  double dropped = 0;
  if (auto* inj = bed.fault_injector()) {
    dropped = static_cast<double>(inj->requests_dropped() + inj->replies_dropped());
  }
  auto* server = bed.server();
  double guest_ops = static_cast<double>(out.ops.calls());

  auto add = [&](const char* name, double v) { out.layers.push_back({name, v}); };
  add("guest.ops", guest_ops);
  add("guest.bytes", static_cast<double>(out.ops.bytes_read + out.ops.bytes_written));
  add("sim.fiber_stacks", static_cast<double>(bed.kernel().fiber_stacks_created()));
  add("sim.wan_up.bytes", static_cast<double>(bed.wan_up()->bytes_sent()));
  add("sim.wan_down.bytes", static_cast<double>(bed.wan_down()->bytes_sent()));
  add("sim.wan.messages",
      static_cast<double>(bed.wan_up()->messages() + bed.wan_down()->messages()));
  add("sim.server_disk.ops", registry_sum(snap, {"server.disk.ops"}));
  add("nfs.client.rpcs_per_fs_op", ratio(s.rpcs, guest_ops));
  add("nfs.client.wire_read_bytes", s.wire_r);
  add("nfs.client.wire_write_bytes", s.wire_w);
  add("nfs.server.calls", server != nullptr ? static_cast<double>(server->total_calls()) : 0);
  add("nfs.server.service_ms_mean", registry_histogram_field(snap, "server.service_ms", "mean"));
  add("nfs.server.drc_hits", server != nullptr ? static_cast<double>(server->drc_hits()) : 0);
  add("vfs.client_page_cache.hit_rate", ratio(s.cp_hits, s.cp_hits + s.cp_miss));
  add("vfs.client_page_cache.evictions", s.cp_evict);
  add("vfs.local_page_cache.hit_rate", ratio(s.lp_hits, s.lp_hits + s.lp_miss));
  add("vfs.local_page_cache.evictions", s.lp_evict);
  add("vm.guest_cache.hit_rate", ratio(static_cast<double>(vms.cache_hits),
                                       static_cast<double>(vms.cache_hits + vms.cache_misses)));
  add("vm.clone.copy_mem.sim_s", vms.clone_copy_mem_s);
  add("vm.clone.resume.sim_s", vms.clone_resume_s);
  add("cache.block.hit_rate", ratio(s.blk_hits, s.blk_hits + s.blk_miss));
  add("cache.block.evictions", s.blk_evict);
  add("cache.block.writebacks", s.blk_wb);
  add("cache.file.hit_rate", ratio(s.file_hits, s.file_hits + s.file_miss));
  add("cache.file.evictions", s.file_evict);
  add("cache.l2.hit_rate", ratio(l2_hits, l2_hits + l2_miss));
  add("proxy.calls_received", s.px_recv);
  add("proxy.forward_ratio", ratio(s.px_fwd, s.px_recv));
  add("proxy.zero_filtered_reads", s.px_zero);
  add("proxy.single_flight_waits", s.px_sf_waits);
  add("proxy.flush_unstable_writes", s.px_unstable);
  add("proxy.flush_commits", s.px_commits);
  add("proxy.coalesced_writebacks", s.px_coalesced);
  add("proxy.queued_writebacks", s.px_queued);
  add("proxy.replayed_writebacks", s.px_replayed);
  add("proxy.degraded_reads", s.px_degraded);
  add("proxy.outage_s", s.px_outage_s);
  add("proxy.recovery_s", s.px_recovery_s);
  add("meta.file_channel.fetches", registry_sum(snap, {".file_channel.fetches"}));
  add("meta.file_channel.wire_bytes", registry_sum(snap, {".file_channel.wire_bytes"}));
  add("ssh.scp.bytes", registry_sum(snap, {".scp.bytes_moved", ".scp_up.bytes_moved"}));
  add("ssh.tunnel.messages", registry_sum(snap, {".tunnel.messages"}));
  add("ssh.tunnel.bytes", registry_sum(snap, {".tunnel.bytes_tunneled"}));
  add("rpc.retry.retransmits", s.retransmits);
  add("rpc.retry.timeouts", s.timeouts);
  add("rpc.fault.dropped", dropped);

  if (auto* tracer = bed.tracer()) {
    std::vector<double> ms;
    ms.reserve(tracer->spans().size());
    for (const auto& span : tracer->spans()) {
      ms.push_back(static_cast<double>(span.end - span.start) * 1e-6);
    }
    add("rpc.span.count", static_cast<double>(ms.size()));
    add("rpc.span.sim_ms_p50", median(ms).value);
    add("rpc.span.sim_ms_p99", tail(ms, 0.99).value);
    add("rpc.span.dropped", static_cast<double>(tracer->spans_dropped()));
  }
}

// Host self time per layer from a traced rep's spans.
void collect_host_layers(RepResult& out) {
  if (!out.spans) return;
  const SpanLog& log = *out.spans;
  auto add = [&](const char* name, double v) { out.host_layers.push_back({name, v}); };
  auto sim_s = [&](SpanKind k) { return gvfs::to_seconds(log.sim_total(k)); };
  add("sim.dispatches", static_cast<double>(out.clock->dispatches()));
  add("sim.host_ns_per_dispatch",
      ratio(out.kernel_s * 1e9, static_cast<double>(out.clock->dispatches())));
  add("gvfs.write_back.host_s", ns_to_s(log.self_total(SpanKind::kWriteBack)));
  add("gvfs.write_back.sim_s", sim_s(SpanKind::kWriteBack));
  add("gvfs.reconnect.sim_s", sim_s(SpanKind::kReconnect));
  add("vm.resume.host_self_s", ns_to_s(log.self_total(SpanKind::kVmResume)));
  add("vm.resume.sim_s", sim_s(SpanKind::kVmResume));
  add("workload.run.host_self_s", ns_to_s(log.self_total(SpanKind::kWorkloadRun)));
  add("workload.run.sim_s", sim_s(SpanKind::kWorkloadRun));
  // Host time the spans account for inside the timed region (set-up spans
  // excluded, teardown included).
  HostNs setup = log.self_total(SpanKind::kBuild) + log.self_total(SpanKind::kInstall) +
                 log.self_total(SpanKind::kMount);
  add("trace.attributed_host_s", ns_to_s(log.attributed_total() - setup));
}

// ---- inputs ------------------------------------------------------------------

// §4.2's application VM, with a 16 MiB memory state so the resume that
// makes it ready stays short next to the application run.
vm::VmImageSpec app_vm_spec(u64 seed) {
  vm::VmImageSpec spec;
  spec.name = "rh73";
  spec.memory_bytes = 16_MiB;
  spec.disk_bytes = 2_GiB;
  spec.mem_zero_fraction = 0.92;
  spec.seed = seed;
  return spec;
}

// devel_writeback runs Fig. 5 at a quarter of its size: the kernel tree
// (files, bytes and compute alike) and every cache the tree passes through,
// so the tree still overflows the same caches. A rep then takes about half a
// second of host time and a run holds enough reps for a steady median; a
// full-size rep takes several seconds.
constexpr u64 kDevelScale = 4;

workload::KernelCompileConfig scaled_kernel_tree() {
  workload::KernelCompileConfig k;
  k.source_files /= kDevelScale;
  k.source_bytes /= kDevelScale;
  k.object_files /= kDevelScale;
  k.object_bytes /= kDevelScale;
  k.bzimage_bytes /= kDevelScale;
  k.modules_out_bytes /= kDevelScale;
  k.dep_compute_s /= kDevelScale;
  k.bzimage_compute_s /= kDevelScale;
  k.modules_compute_s /= kDevelScale;
  k.install_compute_s /= kDevelScale;
  return k;
}

// Host page cache of a 1 GB compute server running a 512 MB VM (§4.2).
void shrink_host_caches(core::TestbedOptions& opt) {
  opt.client_page_cache_bytes = 224_MiB;
  opt.local_page_cache_bytes = 288_MiB;
}

// The origin holds, for every range written through the session, the bytes
// the replayed shadow holds.
bool origin_matches_shadow(core::Testbed& bed, const WriteShadow& shadow) {
  gvfs::vfs::MemFs mine;
  auto ranges = shadow.replay(mine);
  if (!ranges.is_ok() || ranges->empty()) return false;
  // One snapshot per file: a snapshot costs O(extents).
  std::string snap_path;
  blob::BlobRef origin, want;
  for (const auto& [path, offset, len] : *ranges) {
    if (path != snap_path) {
      auto o = bed.image_fs().get_file(bed.image_dir() + "/" + path);
      auto w = mine.get_file(path);
      if (!o.is_ok() || !w.is_ok()) return false;
      snap_path = path;
      origin = *o;
      want = *w;
    }
    if (origin->size() < offset + len ||
        blob::range_hash(*origin, offset, len) != blob::range_hash(*want, offset, len)) {
      return false;
    }
  }
  return true;
}

// After the final write-back: the written bytes are on the origin and the
// client proxy holds nothing dirty, queued or parked.
void check_write_back(Harness& h, core::Testbed& bed, const WriteShadow& shadow) {
  if (h.cfg().full_checks) {
    h.check(origin_matches_shadow(bed, shadow), "origin bytes match every written range");
  }
  auto* px = bed.client_proxy();
  auto* cache = bed.block_cache();
  h.check(px != nullptr && px->pending_writebacks() == 0 && px->pending_flush_blocks() == 0 &&
              !px->upstream_down(),
          "proxy holds no parked or queued write-backs");
  h.check(cache != nullptr && cache->dirty_blocks() == 0, "block cache holds no dirty blocks");
}

// ---- boot_storm --------------------------------------------------------------

constexpr int kStormVms = 200;

void boot_storm(Harness& h) {
  RepResult& out = h.out();
  core::TestbedOptions opt;
  opt.scenario = core::Scenario::kWanCached;
  opt.compute_nodes = kStormVms;
  opt.shared_l2_cache = true;
  opt.enable_meta = true;
  opt.per_node_metrics = false;
  opt.fault_seed = sub_seed(h.cfg().seed, kFaultSeed);
  core::Testbed& bed = h.build(opt);

  vm::VmImageSpec spec;
  spec.name = "golden";
  spec.memory_bytes = 64_MiB;
  spec.disk_bytes = 256_MiB;
  spec.seed = sub_seed(h.cfg().seed, kImageSeed);
  auto image = h.install(spec);
  if (!image.is_ok()) return h.teardown();

  // Released by the last mount. It registers with the kernel, so it is
  // destroyed (reset below) before the Testbed is.
  std::optional<sim::Signal> go(std::in_place, bed.kernel(), "storm-go");
  int mounts_done = 0;
  SimTime storm_start = 0, last_ready = 0;
  std::vector<double> ready(kStormVms, -1.0);
  std::vector<u64> vmss_read(kStormVms, 0);
  VmStats vms;
  for (int i = 0; i < kStormVms; ++i) {
    bed.kernel().spawn("vm" + std::to_string(i), [&, i](sim::Process& p) {
      Status m = h.mount(p, i);
      // Every VM is requested at the same instant, once all nodes mounted.
      if (++mounts_done == kStormVms) {
        h.setup_done();
        storm_start = p.now();
        go->notify_all();
      } else {
        p.wait(*go);
      }
      if (!m.is_ok() || h.cfg().setup_only) return;
      auto group = static_cast<std::uint32_t>(i) + 1;
      TimingSession session(bed.image_session(i), out.ops, h.spans(), group);
      vm::VmMonitor vmm;
      vmm.attach(session, image->cfg(), image->vmss(), session, image->flat_vmdk());
      Status r = h.span(p, SpanKind::kVmResume, group, [&] { return vmm.resume(p); });
      vmss_read[static_cast<std::size_t>(i)] = vmm.vmss_bytes_read();
      vms.add(vmm);
      if (!r.is_ok()) {
        h.problem("resume vm" + std::to_string(i) + ": " + r.to_string());
        return;
      }
      ready[static_cast<std::size_t>(i)] = gvfs::to_seconds(p.now() - storm_start);
      last_ready = std::max(last_ready, p.now());
    });
  }
  out.procs = kStormVms;
  h.run();
  go.reset();
  if (!h.cfg().setup_only) {
    out.vms = kStormVms;
    for (int i = 0; i < kStormVms; ++i) {
      auto k = static_cast<std::size_t>(i);
      if (ready[k] < 0) {
        ++out.vms_failed;
      } else {
        out.vm_ready_s.push_back(ready[k]);
      }
      h.check(vmss_read[k] == spec.memory_bytes,
              "vm" + std::to_string(i) + " read the whole memory state");
    }
    out.makespan_s = gvfs::to_seconds(last_ready - storm_start);
    collect_layers(bed, vms, out);
  }
  h.teardown();
}

// ---- clone_seq ---------------------------------------------------------------

constexpr int kCloneImages = 2;
constexpr int kClonesPerImage = 2;

void clone_seq(Harness& h) {
  RepResult& out = h.out();
  core::TestbedOptions opt;
  opt.scenario = core::Scenario::kWanCached;
  opt.fault_seed = sub_seed(h.cfg().seed, kFaultSeed);
  core::Testbed& bed = h.build(opt);

  // §4.3's 320 MiB / 1.6 GB images, each with its own content.
  std::vector<vm::VmImageSpec> specs;
  std::vector<vm::VmImagePaths> images;
  for (int k = 0; k < kCloneImages; ++k) {
    vm::VmImageSpec spec;
    spec.name = "vm" + std::to_string(k);
    spec.memory_bytes = 320_MiB;
    spec.disk_bytes = u64{1638} * 1_MiB;
    spec.seed = sub_seed(h.cfg().seed, kImageSeed + 16 * static_cast<u64>(k));
    auto paths = h.install(spec);
    if (!paths.is_ok()) return h.teardown();
    specs.push_back(spec);
    images.push_back(*paths);
  }

  constexpr int kClones = kCloneImages * kClonesPerImage;
  std::vector<std::string> clone_vmss(kClones);
  VmStats vms;
  bed.kernel().spawn("cloner", [&](sim::Process& p) {
    Status m = h.mount(p, 0);
    h.setup_done();
    if (!m.is_ok() || h.cfg().setup_only) return;
    TimingSession session(bed.image_session(0), out.ops, h.spans(), 1);
    SimTime start = p.now();
    // Images in turn, then again: cold fetches beside file-cache hits.
    for (int c = 0; c < kClones; ++c) {
      vm::CloneConfig cfg;
      cfg.image = images[static_cast<std::size_t>(c % kCloneImages)];
      cfg.clone_dir = "/clones/c" + std::to_string(c);
      cfg.clone_name = "clone" + std::to_string(c);
      SimTime t0 = p.now();
      auto r = h.span(p, SpanKind::kVmClone, static_cast<std::uint32_t>(c) + 1, [&] {
        return vm::VmCloner::clone(p, session, bed.local_session(0), cfg);
      });
      ++out.vms;
      if (!r.is_ok()) {
        ++out.vms_failed;
        h.problem("clone " + std::to_string(c) + ": " + r.status().to_string());
      } else {
        out.vm_ready_s.push_back(gvfs::to_seconds(p.now() - t0));
        vms.clone_copy_mem_s += r->timing.copy_mem_s;
        vms.clone_resume_s += r->timing.resume_s;
        vms.add(*r->vm);
        clone_vmss[static_cast<std::size_t>(c)] = r->clone_paths.vmss();
      }
      // A fresh middleware session per clone: the kernel client cache is
      // cold, the proxy caches persist (Fig. 6).
      if (auto* client = bed.nfs_client(0)) client->drop_caches();
    }
    out.makespan_s = gvfs::to_seconds(p.now() - start);
  });
  out.procs = 1;
  h.run();
  if (!h.cfg().setup_only) {
    if (h.cfg().full_checks) {
      for (int c = 0; c < kClones; ++c) {
        const std::string& path = clone_vmss[static_cast<std::size_t>(c)];
        auto copy = bed.local_session(0).fs().get_file(path);
        u64 want = blob::content_hash(
            *vm::memory_state_blob(specs[static_cast<std::size_t>(c % kCloneImages)]));
        h.check(!path.empty() && copy.is_ok() && blob::content_hash(**copy) == want,
                "clone " + std::to_string(c) + " memory copy matches its image");
      }
    }
    collect_layers(bed, vms, out);
  }
  h.teardown();
}

// ---- devel_writeback ---------------------------------------------------------

void devel_writeback(Harness& h) {
  RepResult& out = h.out();
  core::TestbedOptions opt;
  opt.scenario = core::Scenario::kWanCached;
  opt.enable_async_writeback = true;
  opt.generate_image_meta = false;  // block path only: no file channel
  opt.fault_seed = sub_seed(h.cfg().seed, kFaultSeed);
  shrink_host_caches(opt);
  opt.client_page_cache_bytes /= kDevelScale;
  opt.local_page_cache_bytes /= kDevelScale;
  core::Testbed& bed = h.build(opt);
  vm::VmImageSpec spec = app_vm_spec(sub_seed(h.cfg().seed, kImageSeed));
  auto image = h.install(spec);
  if (!image.is_ok()) return h.teardown();

  WriteShadow shadow;
  VmStats vms;
  bed.kernel().spawn("vm", [&](sim::Process& p) {
    Status m = h.mount(p, 0);
    h.setup_done();
    if (!m.is_ok() || h.cfg().setup_only) return;
    TimingSession session(bed.image_session(0), out.ops, h.spans(), 1,
                          h.cfg().full_checks ? &shadow : nullptr);
    SimTime start = p.now();
    vm::VmmConfig vcfg;
    vcfg.guest_cache_bytes /= kDevelScale;
    vm::VmMonitor vmm(vcfg);
    vmm.attach(session, image->cfg(), image->vmss(), session, image->flat_vmdk());
    out.vms = 1;
    Status r = h.span(p, SpanKind::kVmResume, 1, [&] { return vmm.resume(p); });
    if (!r.is_ok()) {
      out.vms_failed = 1;
      h.problem("resume: " + r.to_string());
      return;
    }
    out.vm_ready_s.push_back(gvfs::to_seconds(p.now() - start));

    vm::GuestFs gfs(vmm);
    workload::KernelCompileConfig kcfg = scaled_kernel_tree();
    kcfg.seed = sub_seed(h.cfg().seed, kWorkloadSeed);
    workload::KernelCompileWorkload wl(kcfg);
    if (Status st = wl.install(gfs); !st.is_ok()) {
      h.fail("kernel tree install: " + st.to_string());
      return;
    }
    bed.drop_all_caches();
    vmm.guest_cache().drop_all();
    // Two builds, cold then warm; each ends with a guest sync and the
    // middleware's write-back signal.
    for (int build = 0; build < 2; ++build) {
      auto rep = h.span(p, SpanKind::kWorkloadRun, 1, [&] { return wl.run(p, gfs); });
      Status st = rep.is_ok() ? vmm.sync(p) : rep.status();
      if (st.is_ok()) {
        st = h.span(p, SpanKind::kWriteBack, 1, [&] { return bed.signal_write_back(p); });
      }
      if (!st.is_ok()) {
        h.fail("build " + std::to_string(build) + ": " + st.to_string());
        return;
      }
    }
    vms.add(vmm);
    out.makespan_s = gvfs::to_seconds(p.now() - start);
  });
  out.procs = 1;
  h.run();
  if (!h.cfg().setup_only) {
    check_write_back(h, bed, shadow);
    collect_layers(bed, vms, out);
  }
  h.teardown();
}

// ---- outage_edit -------------------------------------------------------------

// LatexWorkload syncs the guest four times per iteration (patch, latex,
// bibtex, dvipdf); the fourth sync ends the iteration.
constexpr u64 kSyncsPerIteration = 4;
constexpr int kOutageWindows = 3;

void outage_edit(Harness& h) {
  RepResult& out = h.out();
  core::TestbedOptions opt;
  opt.scenario = core::Scenario::kWanCached;
  opt.generate_image_meta = false;
  opt.enable_fault_injection = true;
  opt.degraded_proxy = true;
  opt.retry.timeout = 250 * gvfs::kMillisecond;
  opt.retry.max_retransmits = 2;  // soft mount: timeouts reach the proxy
  opt.fault.drop_rate = 0.005;
  opt.fault_seed = sub_seed(h.cfg().seed, kFaultSeed);
  // Seeded 20 s partition windows, one per 70 s slot from t = 240 s, each
  // at a seeded offset within its slot. The cold first iteration (which
  // reads every input across the WAN) ends near t = 200 s; a later
  // iteration re-reads only what the proxy caches hold, so the outages
  // park write-backs without failing guest reads.
  gvfs::SplitMix64 windows(sub_seed(h.cfg().seed, kWindowSeed));
  SimTime heal = 0;
  for (int w = 0; w < kOutageWindows; ++w) {
    SimTime slot = (240 + 70 * static_cast<SimTime>(w)) * gvfs::kSecond;
    SimTime start = slot + static_cast<SimTime>(windows.next_below(30)) * gvfs::kSecond;
    opt.fault.partitions.push_back(sim::FaultWindow{start, start + 20 * gvfs::kSecond});
    heal = start + 20 * gvfs::kSecond;
  }
  shrink_host_caches(opt);
  core::Testbed& bed = h.build(opt);
  vm::VmImageSpec spec = app_vm_spec(sub_seed(h.cfg().seed, kImageSeed));
  auto image = h.install(spec);
  if (!image.is_ok()) return h.teardown();

  WriteShadow shadow;
  VmStats vms;
  u64 flushes = 0;
  workload::LatexConfig lcfg;
  lcfg.seed = sub_seed(h.cfg().seed, kWorkloadSeed);
  bed.kernel().spawn("vm", [&](sim::Process& p) {
    Status m = h.mount(p, 0);
    h.setup_done();
    if (!m.is_ok() || h.cfg().setup_only) return;
    TimingSession session(bed.image_session(0), out.ops, h.spans(), 1,
                          h.cfg().full_checks ? &shadow : nullptr);
    SimTime start = p.now();
    vm::VmMonitor vmm;
    vmm.attach(session, image->cfg(), image->vmss(), session, image->flat_vmdk());
    out.vms = 1;
    Status r = h.span(p, SpanKind::kVmResume, 1, [&] { return vmm.resume(p); });
    if (!r.is_ok()) {
      out.vms_failed = 1;
      h.problem("resume: " + r.to_string());
      return;
    }
    out.vm_ready_s.push_back(gvfs::to_seconds(p.now() - start));

    vm::GuestFs gfs(vmm);
    workload::LatexWorkload wl(lcfg);
    if (Status st = wl.install(gfs); !st.is_ok()) {
      h.fail("latex install: " + st.to_string());
      return;
    }
    bed.drop_all_caches();
    vmm.guest_cache().drop_all();
    // The middleware writes back after every iteration; inside a partition
    // the proxy parks the write-back.
    session.set_after_flush([&](sim::Process& q) {
      if (++flushes % kSyncsPerIteration != 0) return Status::ok();
      return h.span(q, SpanKind::kWriteBack, 1,
                    [&] { return bed.client_proxy(0)->signal_write_back(q); });
    });
    auto rep = h.span(p, SpanKind::kWorkloadRun, 1, [&] { return wl.run(p, gfs); });
    session.set_after_flush(nullptr);
    if (!rep.is_ok()) {
      h.fail("latex run at t=" + std::to_string(gvfs::to_seconds(p.now())) +
             "s: " + rep.status().to_string());
      return;
    }
    p.delay_until(std::max(p.now(), heal + gvfs::kSecond));
    Status st = h.span(p, SpanKind::kReconnect, 1,
                       [&] { return bed.client_proxy(0)->signal_reconnect(p); });
    if (st.is_ok()) {
      st = h.span(p, SpanKind::kWriteBack, 1, [&] { return bed.signal_write_back(p); });
    }
    if (!st.is_ok()) {
      h.fail("reconnect / final write-back: " + st.to_string());
      return;
    }
    vms.add(vmm);
    out.makespan_s = gvfs::to_seconds(p.now() - start);
  });
  out.procs = 1;
  h.run();
  if (!h.cfg().setup_only) {
    h.check(flushes == kSyncsPerIteration * lcfg.iterations,
            "one middleware write-back per LaTeX iteration");
    check_write_back(h, bed, shadow);
    collect_layers(bed, vms, out);
  }
  h.teardown();
}

using WorkloadFn = void (*)(Harness&);

const std::vector<std::pair<std::string, WorkloadFn>>& registry() {
  static const std::vector<std::pair<std::string, WorkloadFn>> kAll = {
      {"boot_storm", boot_storm},
      {"clone_seq", clone_seq},
      {"devel_writeback", devel_writeback},
      {"outage_edit", outage_edit},
  };
  return kAll;
}

}  // namespace

double RepResult::layer(const std::string& name) const {
  for (const auto& nv : layers) {
    if (nv.name == name) return nv.value;
  }
  return 0;
}

std::vector<double> RepResult::fingerprint() const {
  std::vector<double> f = vm_ready_s;
  f.push_back(makespan_s);
  f.push_back(static_cast<double>(ops.bytes_read));
  f.push_back(static_cast<double>(ops.bytes_written));
  f.push_back(static_cast<double>(ops.failed + vms_failed + procs_failed));
  for (const auto& v : ops.sim_ms) f.insert(f.end(), v.begin(), v.end());
  for (const auto& nv : layers) {
    // The RPC span ring exists only on traced reps.
    if (nv.name.rfind("rpc.span.", 0) != 0) f.push_back(nv.value);
  }
  return f;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> n;
    for (const auto& [name, fn] : registry()) n.push_back(name);
    return n;
  }();
  return kNames;
}

RepResult run_rep(const RepConfig& cfg) {
  RepResult out;
  for (const auto& [name, fn] : registry()) {
    if (name != cfg.workload) continue;
    Harness h(cfg, out);
    fn(h);
    collect_host_layers(out);
    return out;
  }
  out.problems.push_back("unknown workload " + cfg.workload);
  ++out.checks_failed;
  return out;
}

}  // namespace perfbench
