// Micro-benchmarks (google-benchmark) for the hot paths of the GVFS
// implementation itself: XDR codecs, proxy cache indexing, the kernel
// page-cache model, extent store operations, synthetic content generation
// and hashing.
//
// Every benchmark pins its iteration count (->Iterations): adaptive timing
// would re-derive the count from each machine's speed, making the
// alloc_count in BENCH_micro.json nondeterministic — and that number is a
// CI gate (tools/check_alloc_budget.sh) precisely because fixed iterations
// make it exactly reproducible.
#include <benchmark/benchmark.h>

#include "alloc_hook.h"
#include "bench_util.h"
#include "blob/blob.h"
#include "blob/extent_store.h"
#include "cache/block_cache.h"
#include "common/rng.h"
#include "nfs/nfs_types.h"
#include "sim/kernel.h"
#include "vfs/buffer_cache.h"
#include "xdr/xdr.h"

namespace gvfs {
namespace {

// Report allocation churn per iteration as user counters, so the zero-copy
// claims are measured, not asserted.
struct AllocProbe {
  bench::AllocCounters start = bench::alloc_snapshot();
  void finish(benchmark::State& state) const {
    bench::AllocCounters now = bench::alloc_snapshot();
    auto iters = static_cast<double>(std::max<i64>(1, state.iterations()));
    state.counters["allocs/iter"] =
        static_cast<double>(now.count - start.count) / iters;
    state.counters["alloc_bytes/iter"] =
        static_cast<double>(now.bytes - start.bytes) / iters;
  }
};

void BM_XdrEncodeReadArgs(benchmark::State& state) {
  nfs::ReadArgs args;
  args.fh = nfs::Fh{1, 42};
  args.offset = 1_MiB;
  args.count = 32_KiB;
  for (auto _ : state) {
    xdr::XdrEncoder enc;
    args.encode(enc);
    benchmark::DoNotOptimize(enc.size());
  }
}
BENCHMARK(BM_XdrEncodeReadArgs)->Iterations(1000000);

void BM_XdrDecodeReadArgs(benchmark::State& state) {
  nfs::ReadArgs args;
  args.fh = nfs::Fh{1, 42};
  args.offset = 1_MiB;
  args.count = 32_KiB;
  xdr::XdrEncoder enc;
  args.encode(enc);
  std::vector<u8> raw = enc.take();
  for (auto _ : state) {
    xdr::XdrDecoder dec(raw);
    auto back = nfs::ReadArgs::decode(dec);
    benchmark::DoNotOptimize(back.is_ok());
  }
}
BENCHMARK(BM_XdrDecodeReadArgs)->Iterations(2000000);

// The 32 KiB READ decode path: payload must cross the codec without being
// copied — the decoder hands out a ViewBlob sharing the receive buffer.
// alloc_bytes/iter stays in the tens of bytes (shared_ptr control blocks),
// not 32 KiB.
void BM_XdrDecodeReadRes32K(benchmark::State& state) {
  nfs::ReadRes res;
  res.status = nfs::NfsStat::kOk;
  res.count = 32_KiB;
  res.eof = false;
  std::vector<u8> payload(32_KiB, 0xab);
  res.data = blob::make_bytes(std::move(payload));
  xdr::XdrEncoder enc;
  res.encode(enc);
  auto backing = std::make_shared<const std::vector<u8>>(enc.take());
  AllocProbe probe;
  for (auto _ : state) {
    xdr::XdrDecoder dec(std::span<const u8>(*backing), backing);
    auto back = nfs::ReadRes::decode(dec);
    benchmark::DoNotOptimize(back.is_ok());
  }
  probe.finish(state);
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 32_KiB);
}
BENCHMARK(BM_XdrDecodeReadRes32K)->Iterations(500000);

// Scatter-gather encode of a 32 KiB WRITE: the payload blob is borrowed by
// reference; no flatten happens unless someone asks for the wire image.
void BM_XdrEncodeWriteArgs32K(benchmark::State& state) {
  nfs::WriteArgs args;
  args.fh = nfs::Fh{1, 42};
  args.offset = 1_MiB;
  args.count = 32_KiB;
  std::vector<u8> payload(32_KiB, 0xcd);
  args.data = blob::make_bytes(std::move(payload));
  AllocProbe probe;
  for (auto _ : state) {
    xdr::XdrEncoder enc;
    args.encode(enc);
    benchmark::DoNotOptimize(enc.size());
  }
  probe.finish(state);
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 32_KiB);
}
BENCHMARK(BM_XdrEncodeWriteArgs32K)->Iterations(200000);

void BM_XdrEncodeFattr(benchmark::State& state) {
  nfs::Fattr f;
  f.a.size = 320_MiB;
  for (auto _ : state) {
    xdr::XdrEncoder enc;
    f.encode(enc);
    benchmark::DoNotOptimize(enc.size());
  }
}
BENCHMARK(BM_XdrEncodeFattr)->Iterations(500000);

void BM_CacheLookupHit(benchmark::State& state) {
  sim::SimKernel kernel;
  sim::DiskConfig dcfg;
  dcfg.seek = 0;
  dcfg.seq_overhead = 0;
  dcfg.bytes_per_sec = 1e15;
  sim::DiskModel disk(kernel, "d", dcfg);
  cache::BlockCacheConfig cfg;
  cfg.capacity_bytes = 1_GiB;
  cache::ProxyDiskCache cache(disk, cfg);
  kernel.run_process("bench", [&](sim::Process& p) {
    for (u64 b = 0; b < 1024; ++b) {
      (void)cache.insert(p, cache::BlockId{7, b}, blob::make_zero(32_KiB), false);
    }
    SplitMix64 rng(1);
    for (auto _ : state) {
      auto hit = cache.lookup(p, cache::BlockId{7, rng.next_below(1024)});
      benchmark::DoNotOptimize(hit.has_value());
    }
  });
  bench::require_no_failed_processes(kernel, "BM_CacheLookupHit");
}
BENCHMARK(BM_CacheLookupHit)->Iterations(500000);

void BM_CacheSetIndexing(benchmark::State& state) {
  sim::SimKernel kernel;
  sim::DiskConfig dcfg;
  dcfg.seek = 0;
  dcfg.seq_overhead = 0;
  dcfg.bytes_per_sec = 1e15;
  sim::DiskModel disk(kernel, "d", dcfg);
  cache::BlockCacheConfig cfg;  // paper geometry: 8 GiB, 512 banks, 16-way
  cache::ProxyDiskCache cache(disk, cfg);
  kernel.run_process("bench", [&](sim::Process& p) {
    SplitMix64 rng(2);
    u64 b = 0;
    for (auto _ : state) {
      (void)cache.insert(p, cache::BlockId{rng.next() % 64, b++ % 262144},
                         blob::make_zero(1), false);
    }
  });
  bench::require_no_failed_processes(kernel, "BM_CacheSetIndexing");
}
BENCHMARK(BM_CacheSetIndexing)->Iterations(200000);

// invalidate_file at the paper's 8 GiB / 262,144-frame geometry: cost must
// scale with the number of file-resident blocks (the Arg), not capacity.
void BM_CacheInvalidateFile(benchmark::State& state) {
  sim::SimKernel kernel;
  sim::DiskConfig dcfg;
  dcfg.seek = 0;
  dcfg.seq_overhead = 0;
  dcfg.bytes_per_sec = 1e15;
  sim::DiskModel disk(kernel, "d", dcfg);
  cache::BlockCacheConfig cfg;  // paper geometry: 8 GiB, 512 banks, 16-way
  cache::ProxyDiskCache cache(disk, cfg);
  const u64 resident = static_cast<u64>(state.range(0));
  kernel.run_process("bench", [&](sim::Process& p) {
    auto block = blob::zero_ref(32_KiB);
    for (auto _ : state) {
      state.PauseTiming();
      for (u64 b = 0; b < resident; ++b) {
        (void)cache.insert(p, cache::BlockId{99, b}, block, false);
      }
      state.ResumeTiming();
      cache.invalidate_file(99);
    }
  });
  bench::require_no_failed_processes(kernel, "BM_CacheInvalidateFile");
  state.counters["resident"] = static_cast<double>(resident);
}
BENCHMARK(BM_CacheInvalidateFile)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Iterations(2000);

// Kernel page-cache model at capacity: every insert evicts the LRU page.
// Slots and index cells are reused, so the steady state allocates nothing
// (allocs/iter reads 0).
void BM_BufferCacheInsertEvict(benchmark::State& state) {
  constexpr u64 kPages = 4096;
  constexpr u64 kFiles = 16;
  sim::SimKernel kernel;
  vfs::BufferCache cache(kPages * 4_KiB, 4_KiB);
  auto page = blob::zero_ref(4_KiB);
  kernel.run_process("bench", [&](sim::Process& p) {
    u64 n = 0;
    for (; n < kPages; ++n) cache.insert(p, 1 + n % kFiles, n / kFiles, page, false);
    AllocProbe probe;
    for (auto _ : state) {
      cache.insert(p, 1 + n % kFiles, n / kFiles, page, false);
      ++n;
    }
    probe.finish(state);
  });
  bench::require_no_failed_processes(kernel, "BM_BufferCacheInsertEvict");
}
BENCHMARK(BM_BufferCacheInsertEvict)->Iterations(1000000);

// flush(file) of one file's 64 dirty pages with Arg pages resident in all:
// the cost must scale with the file's pages, not with the resident set.
void BM_BufferCacheFlush(benchmark::State& state) {
  constexpr u64 kDirty = 64;
  const u64 resident = static_cast<u64>(state.range(0));
  sim::SimKernel kernel;
  vfs::BufferCache cache(2 * resident * 4_KiB, 4_KiB);
  auto page = blob::zero_ref(4_KiB);
  kernel.run_process("bench", [&](sim::Process& p) {
    for (u64 n = 0; n < resident - kDirty; ++n) cache.insert(p, 2 + n % 64, n / 64, page, false);
    for (auto _ : state) {
      state.PauseTiming();
      for (u64 pg = 0; pg < kDirty; ++pg) cache.insert(p, 1, pg, page, true);
      state.ResumeTiming();
      benchmark::DoNotOptimize(cache.flush(p, 1));
    }
  });
  bench::require_no_failed_processes(kernel, "BM_BufferCacheFlush");
  state.counters["resident"] = static_cast<double>(resident);
}
BENCHMARK(BM_BufferCacheFlush)
    ->Arg(1 << 10)
    ->Arg(16 << 10)
    ->Arg(128 << 10)
    ->Iterations(2000);

void BM_ExtentStoreWrite(benchmark::State& state) {
  blob::ExtentStore es;
  SplitMix64 rng(3);
  auto data = blob::make_zero(4_KiB);
  for (auto _ : state) {
    es.write_blob(rng.next_below(1_GiB) & ~u64{4095}, data, 0, 4_KiB);
  }
  benchmark::DoNotOptimize(es.extent_count());
}
BENCHMARK(BM_ExtentStoreWrite)->Iterations(200000);

void BM_ExtentStoreReadSlice(benchmark::State& state) {
  blob::ExtentStore es;
  SplitMix64 rng(4);
  auto data = blob::make_zero(4_KiB);
  for (int i = 0; i < 10000; ++i) {
    es.write_blob(rng.next_below(1_GiB) & ~u64{4095}, data, 0, 4_KiB);
  }
  es.truncate(1_GiB);
  for (auto _ : state) {
    auto slice = es.read_slice(rng.next_below(1_GiB - 64_KiB), 64_KiB);
    benchmark::DoNotOptimize(slice->size());
  }
}
BENCHMARK(BM_ExtentStoreReadSlice)->Iterations(500000);

void BM_SyntheticRead32K(benchmark::State& state) {
  auto blob = blob::make_synthetic(5, 1_GiB, 0.92, 3.0);
  std::vector<u8> buf(32_KiB);
  SplitMix64 rng(6);
  for (auto _ : state) {
    blob->read(rng.next_below(1_GiB - 32_KiB), buf);
    benchmark::DoNotOptimize(buf[0]);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 32_KiB);
}
BENCHMARK(BM_SyntheticRead32K)->Iterations(100000);

void BM_ZeroRangeCheck(benchmark::State& state) {
  auto blob = blob::make_synthetic(7, 512_MiB, 0.92, 3.0);
  SplitMix64 rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        blob->is_zero_range(rng.next_below(512_MiB - 8_KiB) & ~u64{8191}, 8_KiB));
  }
}
BENCHMARK(BM_ZeroRangeCheck)->Iterations(2000000);

void BM_RangeHash1M(benchmark::State& state) {
  auto blob = blob::make_synthetic(9, 64_MiB, 0.5, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blob::range_hash(*blob, 0, 1_MiB));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 1_MiB);
}
BENCHMARK(BM_RangeHash1M)->Iterations(200);

void BM_SimProcessSwitch(benchmark::State& state) {
  // Cost of one virtual-time block/resume pair — the simulator's unit cost.
  sim::SimKernel kernel;
  kernel.run_process("bench", [&](sim::Process& p) {
    for (auto _ : state) {
      p.delay(1);
    }
  });
  bench::require_no_failed_processes(kernel, "BM_SimProcessSwitch");
}
BENCHMARK(BM_SimProcessSwitch)->Iterations(1000000);

}  // namespace
}  // namespace gvfs

int main(int argc, char** argv) {
  gvfs::bench::BenchReport rep("micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rep.write();
  return 0;
}
