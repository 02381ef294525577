#include "proxy/gvfs_proxy.h"

#include <algorithm>

#include "blob/extent_store.h"
#include "common/log.h"

namespace gvfs::proxy {

using nfs::Fh;
using nfs::NfsStat;
using nfs::Proc;

namespace {

// Max WRITE calls per pipelined burst while pushing a file's queued extents.
constexpr std::size_t kFlushBurst = 32;
// Verifier-mismatch re-send attempts per file before giving up.
constexpr u32 kFlushMaxAttempts = 3;
// Conflict back-off between LEASE_ACQUIRE retries (the server answered
// granted=false while it recalls the current holder). The retry horizon
// (delay * max_retries) must outlast the server's lease_duration so a
// partitioned holder lapses before the contender gives up.
constexpr SimDuration kLeaseRetryDelay = 500 * kMillisecond;
constexpr u32 kLeaseMaxRetries = 128;
// Write verifier of every COMMIT this proxy acknowledges locally ("gvfs").
constexpr u64 kLocalCommitVerifier = 0x67766673;

rpc::MessagePtr write_args(const Fh& fh, const DirtyLog::Extent& x, nfs::StableHow how) {
  auto a = std::make_shared<nfs::WriteArgs>();
  a->fh = fh;
  a->offset = x.offset;
  a->count = static_cast<u32>(x.size());
  a->stable = how;
  a->data = x.data;
  return a;
}

// A WRITE acknowledged locally (absorbed, or parked for replay): reported
// FILE_SYNC, as the proxy now owns the bytes' durability.
rpc::RpcReply local_write_reply(const rpc::RpcCall& call, u32 count,
                                std::optional<vfs::Attr> attr) {
  auto res = std::make_shared<nfs::WriteRes>();
  res->count = count;
  res->committed = nfs::StableHow::kFileSync;
  res->attr.attr = std::move(attr);
  return rpc::make_reply(call, res);
}

rpc::RpcReply local_commit_reply(const rpc::RpcCall& call, std::optional<vfs::Attr> attr) {
  auto res = std::make_shared<nfs::CommitRes>();
  res->attr.attr = std::move(attr);
  res->verifier = kLocalCommitVerifier;
  return rpc::make_reply(call, res);
}

}  // namespace

GvfsProxy::GvfsProxy(ProxyConfig cfg, rpc::RpcChannel& upstream)
    : cfg_(std::move(cfg)), upstream_(upstream), log_(cfg_.fetch_block) {}

void GvfsProxy::attach_block_cache(cache::ProxyDiskCache& c) {
  block_cache_ = &c;
  c.set_writeback([this](sim::Process& p, const cache::BlockId& id,
                         const blob::BlobRef& data) {
    return cache_writeback_(p, id, data);
  });
}

void GvfsProxy::attach_file_channel(meta::FileChannelClient& channel,
                                    cache::FileCache& fc) {
  file_channel_ = &channel;
  file_cache_ = &fc;
  fc.set_upload([this](sim::Process& p, u64 key, const blob::BlobRef& content) {
    auto it = key_to_fh_.find(key);
    if (it == key_to_fh_.end()) return err(ErrCode::kStale, "unknown file key");
    return file_channel_->upload_from_cache(p, key, it->second.fileid, content);
  });
}

void GvfsProxy::reset_stats() {
  calls_received_.reset();
  calls_forwarded_.reset();
  block_hits_.reset();
  file_hits_.reset();
  zero_filtered_.reset();
  writes_absorbed_.reset();
  blocks_prefetched_.reset();
  degraded_reads_.reset();
  queued_writebacks_.reset();
  replayed_writebacks_.reset();
  coalesced_writebacks_.reset();
  flush_enqueued_.reset();
  flush_unstable_writes_.reset();
  flush_commits_.reset();
  flush_verifier_resends_.reset();
  flush_queue_reads_.reset();
  single_flight_leads_.reset();
  single_flight_waits_.reset();
  leases_acquired_.reset();
  lease_acquire_retries_.reset();
  lease_acquire_failures_.reset();
  recalls_served_.reset();
  lease_fences_.reset();
  attr_evictions_.reset();
  attr_revalidations_.reset();
  outage_total_ = last_recovery_time_ = 0;
}

// ------------------------------------------------------- upstream helpers --

rpc::RpcCall GvfsProxy::nfs_call_(Proc proc, rpc::MessagePtr args,
                                  const rpc::Credential& cred) {
  rpc::RpcCall c;
  c.xid = next_xid_++;
  c.prog = rpc::kNfsProgram;
  c.vers = rpc::kNfsVersion3;
  c.proc = static_cast<u32>(proc);
  c.cred = cred;
  c.args = std::move(args);
  return c;
}

Result<rpc::MessagePtr> GvfsProxy::upstream_call_(sim::Process& p, Proc proc,
                                                  rpc::MessagePtr args,
                                                  const rpc::Credential& cred) {
  calls_forwarded_.inc();
  rpc::RpcReply reply = upstream_.call(p, nfs_call_(proc, std::move(args), cred));
  note_reply_(p, reply.status);
  if (!reply.status.is_ok()) return reply.status;
  return reply.result;
}

void GvfsProxy::note_reply_(sim::Process& p, const Status& st) {
  if (st.code() == ErrCode::kTimeout && cfg_.degraded_mode && !upstream_down_) {
    upstream_down_ = true;  // an outage opens
    outage_started_ = p.now();
  } else if (st.is_ok() && upstream_down_) {
    // First success after an outage: reconnect, replaying what was parked.
    (void)replay_parked_(p);
  }
}

bool GvfsProxy::parks_(const Status& st) const {
  return cfg_.degraded_mode && (st.code() == ErrCode::kTimeout || upstream_down_);
}

void GvfsProxy::park_(u64 key, const DirtyLog::Extent& x) {
  (log_.park(key, x) ? coalesced_writebacks_ : queued_writebacks_).inc();
}

template <typename Res>
Result<std::shared_ptr<const Res>> GvfsProxy::upstream_as_(sim::Process& p, Proc proc,
                                                           rpc::MessagePtr args,
                                                           const rpc::Credential& cred) {
  GVFS_ASSIGN_OR_RETURN(rpc::MessagePtr m, upstream_call_(p, proc, std::move(args), cred));
  auto res = rpc::message_cast<Res>(m);
  if (!res) return err(ErrCode::kBadXdr, "unexpected upstream result");
  return res;
}

rpc::RpcReply GvfsProxy::forward_(sim::Process& p, const rpc::RpcCall& call) {
  rpc::RpcCall fwd = call;
  fwd.xid = next_xid_++;
  if (cred_mapper_) fwd.cred = cred_mapper_(call.cred);
  calls_forwarded_.inc();
  if (tracer_) tracer_->annotate(&p, cfg_.name, "forward", p.now());
  rpc::RpcReply reply = upstream_.call(p, fwd);
  note_reply_(p, reply.status);
  reply.xid = call.xid;
  return reply;
}

// ---------------------------------------------------------- attr tracking --

std::optional<vfs::Attr> GvfsProxy::cached_attr_(const Fh& fh, SimTime now) {
  auto it = attr_cache_.find(fh.key());
  if (it == attr_cache_.end() || it->second.expires <= now) return std::nullopt;
  it->second.lru_tick = ++attr_tick_;
  return it->second.attr;
}

void GvfsProxy::remember_attr_(const Fh& fh, const vfs::Attr& a, SimTime now) {
  u64 key = fh.key();
  if (auto it = attr_cache_.find(key); it != attr_cache_.end()) {
    it->second = CachedAttr{a, now + cfg_.attr_ttl, ++attr_tick_};
  } else {
    if (attr_cache_.size() >= cfg_.attr_cache_entries) {
      // Bounded attr cache: evict the least-recently-touched entry. Linear
      // scan — eviction only runs past the (large) bound, and ticks are
      // unique, so the minimum is well defined and hash order cannot leak
      // into behavior.
      // gvfs-lint: allow(unordered-iteration) unique-min-tick scan; order cannot escape
      auto victim = attr_cache_.begin();
      // gvfs-lint: allow(unordered-iteration) unique-min-tick scan; order cannot escape
      for (auto it2 = attr_cache_.begin(); it2 != attr_cache_.end(); ++it2) {
        if (it2->second.lru_tick < victim->second.lru_tick) victim = it2;
      }
      // gvfs-lint: allow(per-file-drop) capacity eviction of the coldest attr, not a file drop
      attr_cache_.erase(victim);
      attr_evictions_.inc();
    }
    attr_cache_.emplace(key, CachedAttr{a, now + cfg_.attr_ttl, ++attr_tick_});
  }
  attr_gauge_sync_();
  key_to_fh_[key] = fh;
}

u64 GvfsProxy::effective_size_(const Fh& fh, const std::optional<vfs::Attr>& a) const {
  u64 size = a ? a->size : 0;
  auto it = size_override_.find(fh.key());
  if (it != size_override_.end()) size = std::max(size, it->second);
  return size;
}

// -------------------------------------------------------------- meta-data --

const meta::MetaFile* GvfsProxy::meta_for_(sim::Process& p, const Fh& fh,
                                           const rpc::Credential& cred) {
  if (!cfg_.enable_meta) return nullptr;
  u64 key = fh.key();
  auto hit = metas_.find(key);
  if (hit != metas_.end()) return &hit->second;
  if (meta_negative_.count(key) != 0) return nullptr;
  auto none = [&]() -> const meta::MetaFile* {
    meta_negative_.insert(key);
    return nullptr;
  };
  auto parent = parents_.find(key);
  if (parent == parents_.end()) return none();

  // Probe for "<dir>/.<name>.gvfsmeta" upstream.
  auto largs = std::make_shared<nfs::LookupArgs>();
  largs->dir = parent->second.dir;
  largs->name = meta::MetaFile::meta_name_for(parent->second.name);
  auto lres = upstream_as_<nfs::LookupRes>(p, Proc::kLookup, largs, cred);
  if (!lres.is_ok() || (*lres)->status != NfsStat::kOk) return none();
  Fh meta_fh = (*lres)->fh;
  u64 meta_size = (*lres)->obj_attr.attr ? (*lres)->obj_attr.attr->size : 0;
  if (meta_size == 0 || meta_size > 64_MiB) return none();

  // Read the whole (small) meta-data file over the block channel.
  blob::ExtentStore content;
  u64 off = 0;
  while (off < meta_size) {
    auto rargs = std::make_shared<nfs::ReadArgs>();
    rargs->fh = meta_fh;
    rargs->offset = off;
    rargs->count = static_cast<u32>(std::min<u64>(cfg_.fetch_block, meta_size - off));
    auto rres = upstream_as_<nfs::ReadRes>(p, Proc::kRead, rargs, cred);
    if (!rres.is_ok() || (*rres)->status != NfsStat::kOk || (*rres)->count == 0) {
      return none();
    }
    content.write_blob(off, (*rres)->data, 0, (*rres)->count);
    off += (*rres)->count;
    if ((*rres)->eof) break;
  }
  auto parsed = meta::MetaFile::parse(*content.snapshot());
  if (!parsed.is_ok()) {
    GVFS_WARN("proxy") << cfg_.name << ": malformed meta-data file ignored";
    return none();
  }
  return &metas_.emplace(key, std::move(parsed).value()).first->second;
}

// ------------------------------------------------------------ block cache --

Result<blob::BlobRef> GvfsProxy::get_block_(sim::Process& p, const Fh& fh, u64 block,
                                            const rpc::Credential& cred) {
  cache::BlockId id{fh.key(), block};
  if (auto hit = block_cache_->lookup(p, id)) {
    block_hits_.inc();
    if (upstream_down_) degraded_reads_.inc();
    if (tracer_) tracer_->annotate(&p, cfg_.name, "block_cache_hit", p.now());
    return *hit;
  }
  if (auto logged = log_.newest(fh.key(), block)) {
    // Bytes that left the cache dirty are newer than the server's until
    // they land — queued or in flight for the flusher, or parked for replay
    // (only ever while the upstream is down). Fetching would read stale
    // bytes; serve the logged ones.
    if (logged->staged) flush_queue_reads_.inc();
    if (upstream_down_) degraded_reads_.inc();
    if (tracer_) {
      tracer_->annotate(&p, cfg_.name,
                        logged->staged ? "flush_queue_read" : "degraded_read", p.now());
    }
    return logged->data;
  }
  if (tracer_) tracer_->annotate(&p, cfg_.name, "block_cache_miss", p.now());

  if (cfg_.dedup_blocks && cfg_.enable_meta && !dedup_written_.contains(fh.key())) {
    // Content-addressed probe: if this file's meta-data carries a
    // fingerprint table at our fetch granularity, identical bytes already
    // resident under any other file/block are aliased locally instead of
    // fetched upstream (the dedup generalization of zero-block filtering).
    // Files this session has written are excluded: the installed-image
    // table can no longer vouch for the server's current bytes.
    auto mit = metas_.find(fh.key());
    if (mit != metas_.end() && mit->second.has_fingerprints() &&
        mit->second.fp_block_size() == cfg_.fetch_block &&
        mit->second.fp_seed() == block_cache_->config().dedup_seed) {
      const meta::MetaFile& m = mit->second;
      u64 off = block * cfg_.fetch_block;
      if (off < m.file_size()) {
        u64 len = std::min<u64>(cfg_.fetch_block, m.file_size() - off);
        if (auto shared =
                block_cache_->lookup_fingerprint(m.block_fingerprint(block), len)) {
          dedup_filtered_.inc();
          if (tracer_) tracer_->annotate(&p, cfg_.name, "dedup_alias", p.now());
          // Install the alias (the insert re-fingerprints the shared payload
          // and lands on the same store entry, charging nothing new).
          GVFS_RETURN_IF_ERROR(
              block_cache_->insert(p, id, *shared, /*dirty=*/false));
          return *shared;
        }
      }
    }
  }

  if (!cfg_.single_flight) return fetch_block_upstream_(p, fh, block, cred);

  std::pair<u64, u64> key{fh.key(), block};
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    // Another downstream reader is already fetching this block: join its
    // fetch instead of issuing a duplicate upstream READ.
    std::shared_ptr<InflightFetch> entry = it->second;
    single_flight_waits_.inc();
    if (tracer_) tracer_->annotate(&p, cfg_.name, "single_flight_join", p.now());
    while (!entry->complete) p.wait(*entry->done);
    if (!entry->status.is_ok()) return entry->status;
    if (auto hit = block_cache_->lookup(p, id)) {
      block_hits_.inc();
      return *hit;
    }
    return entry->data;  // already evicted again: serve the fetched bytes
  }
  auto entry = std::make_shared<InflightFetch>();
  entry->done = std::make_unique<sim::Signal>(p.kernel(), cfg_.name + "-single-flight");
  inflight_.emplace(key, entry);
  single_flight_leads_.inc();
  Result<blob::BlobRef> r = fetch_block_upstream_(p, fh, block, cred);
  entry->complete = true;
  if (r.is_ok()) {
    entry->data = *r;
  } else {
    entry->status = r.status();
  }
  inflight_.erase(key);
  entry->done->notify_all();  // waiters hold the entry; the Signal outlives them
  return r;
}

Result<blob::BlobRef> GvfsProxy::fetch_block_upstream_(sim::Process& p, const Fh& fh,
                                                       u64 block,
                                                       const rpc::Credential& cred) {
  cache::BlockId id{fh.key(), block};
  auto rargs = std::make_shared<nfs::ReadArgs>();
  rargs->fh = fh;
  rargs->offset = block * cfg_.fetch_block;
  rargs->count = cfg_.fetch_block;
  GVFS_ASSIGN_OR_RETURN(auto rres, upstream_as_<nfs::ReadRes>(p, Proc::kRead, rargs, cred));
  if (rres->status != NfsStat::kOk) return err(rres->status, "upstream read");
  if (rres->attr.attr) remember_attr_(fh, *rres->attr.attr, p.now());
  blob::BlobRef data = rres->count > 0 ? rres->data : blob::zero_ref(0);
  // The RPC wait is a scheduling point: a concurrent write + eviction can
  // have logged newer bytes for this block while the READ was in flight.
  // Serve those (and keep the server's stale copy out of the cache, where it
  // would shadow them on the next read).
  if (auto logged = log_.newest(id.file_key, block)) {
    if (logged->staged) flush_queue_reads_.inc();
    return logged->data;
  }
  if (rres->count > 0) {
    GVFS_RETURN_IF_ERROR(block_cache_->insert(p, id, data, /*dirty=*/false));
  }
  return data;
}

void GvfsProxy::maybe_prefetch_(sim::Process& p, const nfs::Fh& fh, u64 block,
                                u64 file_size, const rpc::Credential& cred) {
  AccessProfile& prof = profiles_[fh.key()];
  if (prof.last_block != ~u64{0} && block == prof.last_block + 1) {
    ++prof.run;
  } else if (block != prof.last_block) {
    prof.run = 0;
  }
  prof.last_block = block;
  if (cfg_.prefetch_depth == 0 || block_cache_ == nullptr ||
      prof.run < cfg_.prefetch_trigger) {
    return;
  }
  // Keep a read-ahead window of `prefetch_depth` blocks open: refill only
  // when the reader has consumed half of it, so the refill is a genuinely
  // pipelined multi-block burst (one RTT amortized over the batch), not a
  // degenerate one-block fetch per request.
  if (block + cfg_.prefetch_depth / 2 < prof.ahead_until) return;
  u64 refill_from = std::max(block + 1, prof.ahead_until);
  u64 refill_to = block + cfg_.prefetch_depth;  // inclusive
  prof.ahead_until = refill_to + 1;

  // Pipeline the missing blocks of the window in one overlapped burst.
  std::vector<rpc::RpcCall> calls;
  std::vector<u64> blocks;
  for (u64 b = refill_from; b <= refill_to; ++b) {
    u64 start = b * cfg_.fetch_block;
    if (start >= file_size) break;
    if (block_cache_->contains(cache::BlockId{fh.key(), b})) continue;
    // Logged dirty bytes (queued, in flight or parked) are newer than the
    // server's; inserting a prefetched copy as clean would shadow them —
    // get_block_ consults the cache first.
    if (log_.overlaps(fh.key(), b)) continue;
    auto args = std::make_shared<nfs::ReadArgs>();
    args->fh = fh;
    args->offset = start;
    args->count = cfg_.fetch_block;
    calls.push_back(nfs_call_(Proc::kRead, std::move(args), cred));
    blocks.push_back(b);
  }
  if (calls.empty()) return;
  calls_forwarded_.inc(calls.size());
  std::vector<rpc::RpcReply> replies = upstream_.call_pipelined(p, calls);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].status.is_ok()) continue;
    auto res = rpc::message_cast<nfs::ReadRes>(replies[i].result);
    if (!res || res->status != NfsStat::kOk || res->count == 0) continue;
    if (res->attr.attr) remember_attr_(fh, *res->attr.attr, p.now());
    // Re-check after the RPC wait: an eviction during the burst may have
    // logged newer bytes for this block.
    if (log_.overlaps(fh.key(), blocks[i])) continue;
    (void)block_cache_->insert(p, cache::BlockId{fh.key(), blocks[i]}, res->data,
                               /*dirty=*/false);
    blocks_prefetched_.inc();
  }
}

Status GvfsProxy::cache_writeback_(sim::Process& p, const cache::BlockId& id,
                                   const blob::BlobRef& data) {
  auto it = key_to_fh_.find(id.file_key);
  if (it == key_to_fh_.end()) return err(ErrCode::kStale, "writeback: unknown fh");
  // Copy the handle out of the map: the upstream WRITE below yields, and a
  // concurrent insert (rehash) or drop_soft_state() invalidates `it`.
  nfs::Fh fh = it->second;
  if (cfg_.async_writeback) {
    // Asynchronous write-back: queue the block in the dirty-extent log; the
    // background flusher pushes it as pipelined UNSTABLE bursts + one
    // COMMIT. The evicting reader pays no WAN round trip here. Staging
    // supersedes older parked copies of the block's range.
    coalesced_writebacks_.inc(log_.stage(id.file_key, id.block, data));
    flush_enqueued_.inc();
    maybe_spawn_flusher_(p);
    return Status::ok();
  }
  // This block's bytes are newer than any copy parked for replay over the
  // same byte range; neutralize the stale entries so a reconnect replay
  // (possibly triggered by this very write-back landing) cannot overwrite
  // what we send now.
  const DirtyLog::Extent x{id.block * cfg_.fetch_block, data, log_.next_stamp()};
  coalesced_writebacks_.inc(log_.supersede(id.file_key, x));
  auto res = upstream_as_<nfs::WriteRes>(
      p, Proc::kWrite, write_args(fh, x, nfs::StableHow::kFileSync), session_cred_);
  if (!res.is_ok()) {
    // Any transport-level failure while the upstream is unreachable (not
    // just the first timeout — retries during an outage can surface other
    // transport errors) parks the block: it is leaving the cache, so the
    // log is the only place its data survives.
    if (!parks_(res.status())) return res.status();
    park_(id.file_key, x);
    return Status::ok();
  }
  // A removed file has nothing left to write to: its bytes are dropped (the
  // frame goes clean) and the write-back goes on to other files.
  if ((*res)->status == NfsStat::kStale) return Status::ok();
  if ((*res)->status != NfsStat::kOk) return err((*res)->status, "writeback write");
  if ((*res)->attr.attr) remember_attr_(fh, *(*res)->attr.attr, p.now());
  return Status::ok();
}

// ------------------------------------------------- async write-back flusher --

void GvfsProxy::maybe_spawn_flusher_(sim::Process& p) {
  if (flusher_active_ || sync_drain_) return;
  flusher_active_ = true;
  p.kernel().spawn(cfg_.name + "-flusher", [this](sim::Process& fp) {
    Status st = push_queued_(fp);
    flusher_active_ = false;
    if (!st.is_ok()) {
      // The extents were parked or requeued; the next stage or signal
      // retries them.
      GVFS_WARN("proxy") << cfg_.name << ": flusher stalled ("
                         << st.to_string() << ")";
    }
  });
}

Status GvfsProxy::push_queued_(sim::Process& p) {
  while (auto key = log_.next_queued_file()) {
    GVFS_RETURN_IF_ERROR(push_file_(p, *key));
  }
  return Status::ok();
}

Status GvfsProxy::push_file_(sim::Process& p, u64 key) {
  const nfs::Fh fh = key_to_fh_.at(key);
  // Take the file's queued extents in flight before blocking: blocks staged
  // while the RPCs are out queue afresh for a later push, and reads keep
  // seeing the in-flight bytes until they settle.
  const std::vector<DirtyLog::Extent> q = log_.take(key);
  // A failed push loses nothing. Mid-outage transport errors park the
  // extents: uncommitted UNSTABLE data on an unreachable server counts as
  // lost, and FILE_SYNC replay restores durability on reconnect. A file
  // removed upstream has nothing left to write to: its extents are dropped
  // and the push goes on. Any other failure requeues them for the next push
  // (blocks staged since win).
  auto fail = [&](const Status& st, bool transport) {
    if (transport && parks_(st)) {
      for (const auto& x : q) park_(key, x);
      return Status::ok();
    }
    if (!transport && st.code() == ErrCode::kStale) {
      for (const auto& x : q) log_.settle(key, x);
      return Status::ok();
    }
    for (const auto& x : q) log_.requeue(key, x);
    return st;
  };

  for (u32 attempt = 0; attempt < kFlushMaxAttempts; ++attempt) {
    std::vector<u64> write_verfs;
    write_verfs.reserve(q.size());
    // Pipelined UNSTABLE WRITE bursts (same overlap machinery as prefetch).
    for (std::size_t base = 0; base < q.size(); base += kFlushBurst) {
      std::size_t burst_end = std::min(q.size(), base + kFlushBurst);
      std::vector<rpc::RpcCall> calls;
      calls.reserve(burst_end - base);
      for (std::size_t i = base; i < burst_end; ++i) {
        calls.push_back(nfs_call_(Proc::kWrite,
                                  write_args(fh, q[i], nfs::StableHow::kUnstable),
                                  session_cred_));
      }
      calls_forwarded_.inc(calls.size());
      std::vector<rpc::RpcReply> replies = upstream_.call_pipelined(p, calls);
      for (std::size_t ri = 0; ri < replies.size(); ++ri) {
        const rpc::RpcReply& reply = replies[ri];
        if (!reply.status.is_ok()) {
          note_reply_(p, reply.status);
          return fail(reply.status, /*transport=*/true);
        }
        auto res = rpc::message_cast<nfs::WriteRes>(reply.result);
        if (!res) return fail(err(ErrCode::kBadXdr, "unexpected flush write result"), false);
        if (res->status != NfsStat::kOk) return fail(err(res->status, "flush write"), false);
        flush_unstable_writes_.inc();
        write_verfs.push_back(res->verifier);
        // A copy of this extent parked by an earlier failed push is now
        // stale; drop it before the replay below can put it back over the
        // bytes that just landed. Copies stamped newer stay intact.
        coalesced_writebacks_.inc(log_.supersede(key, q[base + ri]));
        if (res->attr.attr) remember_attr_(fh, *res->attr.attr, p.now());
      }
      if (upstream_down_) (void)replay_parked_(p);
    }

    // One COMMIT covers the whole file's unstable writes.
    auto cargs = std::make_shared<nfs::CommitArgs>();
    cargs->fh = fh;
    cargs->offset = 0;
    cargs->count = 0;  // RFC 1813: 0 = commit everything
    auto cres = upstream_as_<nfs::CommitRes>(p, Proc::kCommit, cargs, session_cred_);
    if (!cres.is_ok()) return fail(cres.status(), /*transport=*/true);
    if ((*cres)->status != NfsStat::kOk) {
      return fail(err((*cres)->status, "flush commit"), false);
    }
    flush_commits_.inc();
    const u64 commit_verf = (*cres)->verifier;
    if (std::all_of(write_verfs.begin(), write_verfs.end(),
                    [commit_verf](u64 v) { return v == commit_verf; })) {
      if ((*cres)->attr.attr) remember_attr_(fh, *(*cres)->attr.attr, p.now());
      for (const auto& x : q) log_.settle(key, x);
      return Status::ok();
    }
    // The server rebooted between the WRITEs and the COMMIT: every
    // unstable write may have been lost with its volatile state. Re-send
    // the whole file (RFC 1813 §3.3.7 writeverf protocol).
    flush_verifier_resends_.inc();
    if (tracer_) tracer_->annotate(&p, cfg_.name, "flush_verf_resend", p.now());
  }
  return fail(err(ErrCode::kIo, "flush: verifier kept changing (server reboot loop)"),
              false);
}

// ---------------------------------------------------------- degraded mode --

Status GvfsProxy::replay_parked_(sim::Process& p) {
  if (replaying_ || (!upstream_down_ && log_.count(DirtyLog::State::kParked) == 0)) {
    return Status::ok();
  }
  replaying_ = true;
  if (cfg_.enable_leases && !lease_unsupported_) {
    // Lease-loss fencing: a node whose write lease lapsed during the
    // partition must prove exclusive ownership again before its parked
    // writes replay — the lease may have moved to another writer whose
    // bytes these stale entries would otherwise clobber blindly. Probe the
    // parked files in key order, for determinism; snapshot them first, as
    // ensure_lease_ yields.
    const std::vector<u64> fence_keys = log_.parked_files();
    for (u64 k : fence_keys) {
      if (auto held = held_leases_.find(k);
          held != held_leases_.end() &&
          held->second.mode == nfs::LeaseMode::kWrite &&
          held->second.expiry > p.now()) {
        continue;
      }
      auto fh_it = key_to_fh_.find(k);
      if (fh_it == key_to_fh_.end()) continue;
      lease_fences_.inc();
      Status fs =
          ensure_lease_(p, fh_it->second, nfs::LeaseMode::kWrite, session_cred_);
      if (!fs.is_ok()) {
        // Cannot re-establish ownership: abort the replay and stay
        // degraded; the next reconnect signal (or upstream success) retries.
        replaying_ = false;
        return fs;
      }
    }
  }
  // Every WRITE below is an RPC wait point, and other fibers supersede,
  // coalesce and park extents while it blocks. Replay oldest stamp first
  // (so a newer overlapping write lands last on the server), and unpark an
  // extent only if its stamp is unchanged — a concurrent coalesce re-stamped
  // it, and the newer bytes deserve their own replay. An extent of a file
  // removed upstream is dropped: it has nothing left to land on.
  Status st = Status::ok();
  while (auto w = log_.oldest_parked()) {
    auto res = upstream_as_<nfs::WriteRes>(
        p, Proc::kWrite,
        write_args(key_to_fh_.at(w->file), w->extent, nfs::StableHow::kFileSync),
        session_cred_);
    if (!res.is_ok()) {
      st = res.status();
      break;
    }
    if ((*res)->status == NfsStat::kOk) {
      replayed_writebacks_.inc();
    } else if ((*res)->status != NfsStat::kStale) {
      st = err((*res)->status, "replay write");
      break;
    }
    log_.unpark(w->file, w->extent);
  }
  replaying_ = false;
  if (st.is_ok() && upstream_down_ && log_.count(DirtyLog::State::kParked) == 0) {
    upstream_down_ = false;
    last_recovery_time_ = p.now() - outage_started_;
    outage_total_ += last_recovery_time_;
  }
  return st;
}

std::optional<vfs::Attr> GvfsProxy::stale_attr_(const nfs::Fh& fh) {
  auto it = attr_cache_.find(fh.key());
  if (it == attr_cache_.end()) return std::nullopt;
  it->second.lru_tick = ++attr_tick_;
  // Remember that this answer may be a lie: signal_reconnect re-probes every
  // key served stale so a remote change mid-outage cannot linger until the
  // TTL happens to expire.
  if (upstream_down_) stale_served_.insert(fh.key());
  return it->second.attr;
}

Status GvfsProxy::revalidate_stale_attrs_(sim::Process& p) {
  if (stale_served_.empty()) return Status::ok();
  // gvfs-lint: allow(unordered-iteration) keys are sorted on the next line before any use
  std::vector<u64> keys(stale_served_.begin(), stale_served_.end());
  std::sort(keys.begin(), keys.end());
  stale_served_.clear();
  for (u64 k : keys) {
    auto fh_it = key_to_fh_.find(k);
    if (fh_it == key_to_fh_.end()) continue;
    const nfs::Fh fh = fh_it->second;  // copy: the GETATTR below yields
    u64 old_size = 0;
    if (auto it = attr_cache_.find(k); it != attr_cache_.end()) old_size = it->second.attr.size;

    auto gargs = std::make_shared<nfs::GetattrArgs>();
    gargs->fh = fh;
    auto gres = upstream_as_<nfs::GetattrRes>(p, Proc::kGetattr, gargs, session_cred_);
    if (!gres.is_ok()) return gres.status();
    if ((*gres)->status != NfsStat::kOk) {
      forget_file_(k);  // the file vanished during the outage
      continue;
    }
    const vfs::Attr fresh = (*gres)->attr.a;
    attr_revalidations_.inc();
    if (fresh.size < old_size) {
      // A remote truncate happened mid-outage: cached frames and staged
      // sizes describe the pre-outage file. Push any locally dirtied bytes
      // first (last-writer-wins, same promise replay makes), then forget
      // the file; the push may have re-extended it, so the next access
      // probes its attrs afresh.
      GVFS_RETURN_IF_ERROR(write_back_(p, k));
      forget_file_(k);
      continue;
    }
    remember_attr_(fh, fresh, p.now());
  }
  return Status::ok();
}

std::shared_ptr<nfs::LookupRes> GvfsProxy::degraded_lookup_(
    const nfs::LookupArgs& a) {
  // Serve a LOOKUP from the namespace learned before the outage (linear
  // scan: the learned set is small — files the session actually touched).
  // If a name was relearned under a new handle there can be two matches;
  // pick the smallest key so the answer never depends on hash order.
  bool found = false;
  u64 best_key = 0;
  // gvfs-lint: allow(unordered-iteration) commutative min-key scan; order cannot escape
  for (const auto& [key, link] : parents_) {
    if (link.dir.key() != a.dir.key() || link.name != a.name) continue;
    if (!found || key < best_key) {
      found = true;
      best_key = key;
    }
  }
  if (found) {
    auto fh_it = key_to_fh_.find(best_key);
    if (fh_it != key_to_fh_.end()) {
      auto res = std::make_shared<nfs::LookupRes>();
      res->fh = fh_it->second;
      if (auto attr = stale_attr_(fh_it->second)) res->obj_attr.attr = *attr;
      return res;
    }
  }
  return nullptr;
}

// ------------------------------------------------------------------ leases --

Status GvfsProxy::ensure_lease_(sim::Process& p, const Fh& fh, nfs::LeaseMode mode,
                                const rpc::Credential& cred) {
  if (!cfg_.enable_leases || lease_unsupported_) return Status::ok();
  u64 key = fh.key();
  if (auto it = held_leases_.find(key);
      it != held_leases_.end() && it->second.expiry > p.now() &&
      (it->second.mode == nfs::LeaseMode::kWrite || it->second.mode == mode)) {
    return Status::ok();
  }
  for (u32 attempt = 0; attempt <= kLeaseMaxRetries; ++attempt) {
    auto largs = std::make_shared<nfs::LeaseArgs>();
    largs->fh = fh;
    largs->client_id = cfg_.lease_client_id;
    largs->mode = mode;
    auto lres = upstream_as_<nfs::LeaseRes>(p, Proc::kLeaseAcquire, largs, cred);
    if (!lres.is_ok()) {
      lease_acquire_failures_.inc();
      return lres.status();
    }
    if ((*lres)->status == NfsStat::kNotSupported) {
      // Origin not lease-aware (or toggled off): stand down for the session.
      lease_unsupported_ = true;
      return Status::ok();
    }
    if ((*lres)->status != NfsStat::kOk) {
      lease_acquire_failures_.inc();
      return err((*lres)->status, "lease acquire");
    }
    if ((*lres)->granted) {
      held_leases_[key] = HeldLease{mode, (*lres)->expiry};
      leases_acquired_.inc();
      if (tracer_) tracer_->annotate(&p, cfg_.name, "lease_granted", p.now());
      return Status::ok();
    }
    // Conflict: the server is recalling the holder (NFS4ERR_DELAY shape).
    // Back off and retry; the retry horizon outlasts the server's lease
    // duration, so a partitioned holder lapses before we give up.
    lease_acquire_retries_.inc();
    p.delay(kLeaseRetryDelay);
  }
  lease_acquire_failures_.inc();
  return err(ErrCode::kTimeout, "lease acquire: conflict never cleared");
}

rpc::RpcReply GvfsProxy::handle_recall_(sim::Process& p, const rpc::RpcCall& call) {
  auto res = std::make_shared<nfs::RecallRes>();
  if (static_cast<nfs::CallbackProc>(call.proc) != nfs::CallbackProc::kRecall) {
    return rpc::make_reply(call, res);  // kNull ping
  }
  auto a = rpc::message_cast<nfs::RecallArgs>(call.args);
  if (!a) return rpc::make_error_reply(call, err(ErrCode::kBadXdr, "recall args"));
  u64 key = a->fh.key();
  recalls_served_.inc();
  if (tracer_) tracer_->annotate(&p, cfg_.name, "lease_recall", p.now());

  // Write the file's dirty state back, then drop every cached copy: the
  // contender may write the moment our reply lands, so anything kept here
  // would go stale silently. A failed write-back keeps the file's state
  // instead (its dirty frames may be the only copy of acked writes) so a
  // later write-back lands it; the reply says flushed=false either way.
  res->flushed = write_back_(p, key).is_ok();
  if (res->flushed) forget_file_(key);
  held_leases_.erase(key);
  return rpc::make_reply(call, res);
}

// ---------------------------------------------------------------- handlers --

void GvfsProxy::learn_(const Fh& dir, const std::string& name, const Fh& fh,
                       const std::optional<vfs::Attr>& attr, SimTime now) {
  parents_[fh.key()] = ParentLink{dir, name};
  key_to_fh_[fh.key()] = fh;
  if (attr) remember_attr_(fh, *attr, now);
}

template <typename Args>
rpc::RpcReply GvfsProxy::typed_(sim::Process& p, const rpc::RpcCall& call,
                               Handler<Args> h) {
  auto a = rpc::message_cast<Args>(call.args);
  if (!a) return forward_(p, call);
  return (this->*h)(p, call, *a);
}

rpc::RpcReply GvfsProxy::handle(sim::Process& p, const rpc::RpcCall& call) {
  calls_received_.inc();
  if (cfg_.per_call_cpu > 0) p.delay(cfg_.per_call_cpu);
  // Server-initiated lease recalls ride the callback program down the same
  // tunnel; they carry the server's identity, not a client credential, so
  // they bypass the authorizer / cred-mapping that guards client traffic.
  if (call.prog == nfs::kLeaseCallbackProgram) return handle_recall_(p, call);
  if (authorizer_ && !authorizer_(call.cred)) {
    return rpc::make_error_reply(call, err(ErrCode::kAuthError, "proxy policy"));
  }
  session_cred_ = cred_mapper_ ? cred_mapper_(call.cred) : call.cred;

  if (call.prog != rpc::kNfsProgram) return forward_(p, call);

  switch (static_cast<Proc>(call.proc)) {
    case Proc::kRead: return typed_(p, call, &GvfsProxy::handle_read_);
    case Proc::kWrite: return typed_(p, call, &GvfsProxy::handle_write_);
    case Proc::kGetattr: return typed_(p, call, &GvfsProxy::handle_getattr_);
    case Proc::kCommit: return typed_(p, call, &GvfsProxy::handle_commit_);
    case Proc::kSetattr: return typed_(p, call, &GvfsProxy::handle_setattr_);
    case Proc::kLookup: {
      // Forward, but learn the namespace so meta-data probing can find the
      // companion file later.
      auto a = rpc::message_cast<nfs::LookupArgs>(call.args);
      if (a && cfg_.degraded_mode && upstream_down_) {
        if (auto hit = degraded_lookup_(*a)) return rpc::make_reply(call, hit);
      }
      rpc::RpcReply reply = forward_(p, call);
      if (a && reply.status.is_ok()) {
        if (auto res = rpc::message_cast<nfs::LookupRes>(reply.result);
            res && res->status == NfsStat::kOk) {
          learn_(a->dir, a->name, res->fh, res->obj_attr.attr, p.now());
        }
      } else if (a && cfg_.degraded_mode &&
                 reply.status.code() == ErrCode::kTimeout) {
        if (auto hit = degraded_lookup_(*a)) return rpc::make_reply(call, hit);
      }
      return reply;
    }
    case Proc::kCreate: {
      auto a = rpc::message_cast<nfs::CreateArgs>(call.args);
      rpc::RpcReply reply = forward_(p, call);
      if (a && reply.status.is_ok()) {
        if (auto res = rpc::message_cast<nfs::CreateRes>(reply.result);
            res && res->status == NfsStat::kOk) {
          learn_(a->dir, a->name, res->fh, res->attr.attr, p.now());
        }
      }
      return reply;
    }
    default:
      break;
  }
  return forward_(p, call);
}

rpc::RpcReply GvfsProxy::handle_read_(sim::Process& p, const rpc::RpcCall& call,
                                      const nfs::ReadArgs& a) {
  // gvfs-lint: allow(yield-stale-ref) session_cred_ is a plain member, not a container element; its address is stable for the proxy's lifetime
  const rpc::Credential& cred = session_cred_;
  key_to_fh_[a.fh.key()] = a.fh;
  if (cfg_.enable_leases && !upstream_down_) {
    // Best-effort read lease: holding one means a future writer's recall
    // reaches us before our cached copies go stale. Failure (conflict that
    // never cleared, or a transport error) still serves the read — coherence
    // then falls back to the attr TTL, exactly the lease-free behavior.
    (void)ensure_lease_(p, a.fh, nfs::LeaseMode::kRead, cred);
  }
  const meta::MetaFile* meta = meta_for_(p, a.fh, cred);

  // ---- file-based channel (compress/copy/uncompress/read-locally) ---------
  if (meta != nullptr && meta->wants_file_channel() && file_channel_ != nullptr &&
      file_cache_ != nullptr) {
    u64 key = a.fh.key();
    if (!file_cache_->contains(key)) {
      Status st = file_channel_->fetch_into_cache(p, a.fh.fileid, key);
      if (!st.is_ok()) {
        GVFS_WARN("proxy") << cfg_.name << ": file channel failed ("
                           << st.to_string() << "), falling back to blocks";
      }
    }
    if (file_cache_->contains(key)) {
      u64 size = file_cache_->cached_size(key).value_or(0);
      auto res = std::make_shared<nfs::ReadRes>();
      u64 n = a.offset >= size ? 0 : std::min<u64>(a.count, size - a.offset);
      auto data = file_cache_->read(p, key, a.offset, n);
      file_hits_.inc();
      if (tracer_) tracer_->annotate(&p, cfg_.name, "file_cache_hit", p.now());
      res->count = static_cast<u32>(n);
      res->eof = a.offset + n >= size;
      res->data = data && *data ? *data : blob::zero_ref(0);
      if (auto attr = cached_attr_(a.fh, p.now())) {
        attr->size = std::max(attr->size, size);
        res->attr.attr = *attr;
      }
      return rpc::make_reply(call, res);
    }
    // fetch_into_cache() yielded on the file channel: a concurrent
    // drop_soft_state() frees the MetaFile this pointer aimed at. Re-acquire
    // — a no-op (cache hit, no yield) unless the table really was dropped.
    meta = meta_for_(p, a.fh, cred);
  }

  // ---- zero-block filtering ------------------------------------------------
  if (meta != nullptr && meta->has_zero_map() &&
      meta->range_is_zero(a.offset, a.count)) {
    zero_filtered_.inc();
    if (tracer_) tracer_->annotate(&p, cfg_.name, "zero_filtered", p.now());
    u64 size = meta->file_size();
    auto res = std::make_shared<nfs::ReadRes>();
    u64 n = a.offset >= size ? 0 : std::min<u64>(a.count, size - a.offset);
    res->count = static_cast<u32>(n);
    res->eof = a.offset + n >= size;
    res->data = blob::zero_ref(n);
    if (auto attr = cached_attr_(a.fh, p.now())) res->attr.attr = *attr;
    return rpc::make_reply(call, res);
  }

  // ---- block cache ----------------------------------------------------------
  if (block_cache_ == nullptr) return forward_(p, call);

  std::optional<vfs::Attr> attr = cached_attr_(a.fh, p.now());
  if (!attr && cfg_.degraded_mode && upstream_down_) {
    // Session consistency: an expired attribute beats failing the READ
    // while the upstream is unreachable.
    attr = stale_attr_(a.fh);
  }
  if (!attr) {
    auto gargs = std::make_shared<nfs::GetattrArgs>();
    gargs->fh = a.fh;
    auto gres = upstream_as_<nfs::GetattrRes>(p, Proc::kGetattr, gargs, cred);
    if (!gres.is_ok()) {
      if (cfg_.degraded_mode && gres.code() == ErrCode::kTimeout) {
        attr = stale_attr_(a.fh);  // serve what we knew before the outage
      }
      if (!attr) return rpc::make_error_reply(call, gres.status());
    } else {
      if ((*gres)->status != NfsStat::kOk) {
        auto res = std::make_shared<nfs::ReadRes>();
        res->status = (*gres)->status;
        return rpc::make_reply(call, res);
      }
      remember_attr_(a.fh, (*gres)->attr.a, p.now());
      attr = (*gres)->attr.a;
    }
  }
  u64 size = effective_size_(a.fh, attr);
  u64 n = a.offset >= size ? 0 : std::min<u64>(a.count, size - a.offset);

  auto res = std::make_shared<nfs::ReadRes>();
  if (n > 0) {
    u64 first = a.offset / cfg_.fetch_block;
    u64 last = (a.offset + n - 1) / cfg_.fetch_block;
    if (first == last) {
      // Single-block read: reference the cached block directly (whole-block
      // reads, the common case) or slice it — no extent map, no copy.
      auto blockr = get_block_(p, a.fh, first, cred);
      if (!blockr.is_ok()) return rpc::make_error_reply(call, blockr.status());
      const blob::BlobRef& data = *blockr;
      u64 block_start = first * cfg_.fetch_block;
      u64 off_in_block = a.offset - block_start;
      if (data && data->size() >= off_in_block + n) {
        res->data = (off_in_block == 0 && data->size() == n)
                        ? data
                        : std::make_shared<blob::SliceBlob>(data, off_in_block, n);
      } else {
        // Short block (read past cached tail): zero-fill the remainder.
        blob::ExtentStore assembled;
        assembled.truncate(n);
        u64 hi = std::min(block_start + (data ? data->size() : 0), a.offset + n);
        if (a.offset < hi)
          assembled.write_blob(0, data, off_in_block, hi - a.offset);
        res->data = assembled.snapshot();
      }
    } else {
      blob::ExtentStore assembled;
      assembled.truncate(n);
      for (u64 b = first; b <= last; ++b) {
        auto blockr = get_block_(p, a.fh, b, cred);
        if (!blockr.is_ok()) return rpc::make_error_reply(call, blockr.status());
        const blob::BlobRef& data = *blockr;
        u64 block_start = b * cfg_.fetch_block;
        u64 lo = std::max(block_start, a.offset);
        u64 hi = std::min(block_start + (data ? data->size() : 0), a.offset + n);
        if (lo < hi) assembled.write_blob(lo - a.offset, data, lo - block_start, hi - lo);
      }
      res->data = assembled.snapshot();
    }
    maybe_prefetch_(p, a.fh, last, size, cred);
  } else {
    res->data = blob::zero_ref(0);
  }
  res->count = static_cast<u32>(n);
  res->eof = a.offset + n >= size;
  if (attr) {
    vfs::Attr out = *attr;
    out.size = size;
    res->attr.attr = out;
  }
  return rpc::make_reply(call, res);
}

rpc::RpcReply GvfsProxy::handle_write_(sim::Process& p, const rpc::RpcCall& call,
                                       const nfs::WriteArgs& a) {
  // gvfs-lint: allow(yield-stale-ref) session_cred_ is a plain member, not a container element; its address is stable for the proxy's lifetime
  const rpc::Credential& cred = session_cred_;
  key_to_fh_[a.fh.key()] = a.fh;
  u64 key = a.fh.key();
  // The fingerprint table describes the image as installed; once this
  // session writes the file, the table can no longer prove that a resident
  // twin equals the server's current bytes, so the dedup probe stands down.
  if (cfg_.dedup_blocks) dedup_written_.insert(key);

  if (cfg_.enable_leases) {
    // During a partition degraded mode still absorbs/queues the write — the
    // replay path re-acquires the lease (fencing) before anything heads
    // upstream. Outside degraded mode a write without a lease would silently
    // break the multi-writer contract, so it fails loudly.
    Status ls = ensure_lease_(p, a.fh, nfs::LeaseMode::kWrite, cred);
    if (!ls.is_ok() && !parks_(ls)) return rpc::make_error_reply(call, ls);
  }

  // Writes to a file served by the file channel update the whole-file cache
  // (write-back uploads it later as compress+SCP).
  if (file_cache_ != nullptr && file_cache_->contains(key)) {
    Status st = file_cache_->write(p, key, a.offset, a.data);
    if (!st.is_ok()) return rpc::make_error_reply(call, st);
    writes_absorbed_.inc();
    if (tracer_) tracer_->annotate(&p, cfg_.name, "write_absorbed", p.now());
    size_override_[key] = std::max(effective_size_(a.fh, cached_attr_(a.fh, p.now())),
                                   a.offset + a.count);
    auto attr = cached_attr_(a.fh, p.now());
    if (attr) {
      attr->size = size_override_[key];
      attr->mtime = p.now();
    }
    return local_write_reply(call, a.count, attr);
  }

  if (block_cache_ == nullptr) return forward_(p, call);

  if (block_cache_->config().policy == cache::WritePolicy::kWriteThrough) {
    // Forward synchronously; drop overlapping cached blocks so the next read
    // refetches fresh data (coherence without dirty state).
    rpc::RpcReply reply = forward_(p, call);
    if (reply.status.is_ok()) {
      if (auto res = rpc::message_cast<nfs::WriteRes>(reply.result);
          res && res->status == NfsStat::kOk) {
        // gvfs-lint: allow(per-file-drop) write-through coherence: only the clean frames go
        block_cache_->invalidate_file(key);
        if (res->attr.attr) remember_attr_(a.fh, *res->attr.attr, p.now());
        size_override_.erase(key);
      }
    } else if (cfg_.degraded_mode && reply.status.code() == ErrCode::kTimeout) {
      // Degraded write-through: acknowledge locally, queue for replay.
      park_(key, DirtyLog::Extent{a.offset, a.data, log_.next_stamp()});
      // gvfs-lint: allow(per-file-drop) clean frames would shadow the parked bytes; attrs stay for degraded reads
      block_cache_->invalidate_file(key);
      size_override_[key] =
          std::max(effective_size_(a.fh, cached_attr_(a.fh, p.now())),
                   a.offset + a.count);
      return local_write_reply(call, a.count, std::nullopt);
    }
    return reply;
  }

  // ---- write-back: absorb locally ------------------------------------------
  std::optional<vfs::Attr> attr = cached_attr_(a.fh, p.now());
  u64 known = effective_size_(a.fh, attr);
  u64 end = a.offset + a.count;
  u64 first = a.offset / cfg_.fetch_block;
  u64 last = a.count > 0 ? (end - 1) / cfg_.fetch_block : first;
  for (u64 b = first; b <= last; ++b) {
    u64 block_start = b * cfg_.fetch_block;
    u64 lo = std::max(block_start, a.offset);
    u64 hi = std::min(block_start + cfg_.fetch_block, end);
    auto slice = std::make_shared<blob::SliceBlob>(a.data, lo - a.offset, hi - lo);
    cache::BlockId id{key, b};
    bool full = lo == block_start && hi - lo == cfg_.fetch_block;
    if (full) {
      Status st = block_cache_->insert(p, id, slice, /*dirty=*/true);
      if (!st.is_ok()) return rpc::make_error_reply(call, st);
      continue;
    }
    if (!block_cache_->contains(id) && block_start < known) {
      // Partial write into an existing block: fetch-and-merge. Bytes served
      // from the dirty-extent log come back without a cache insert; install
      // them, or the merge below would rebuild the block around zeros.
      auto blockr = get_block_(p, a.fh, b, cred);
      if (!blockr.is_ok()) return rpc::make_error_reply(call, blockr.status());
      if (!block_cache_->contains(id) && *blockr) {
        Status st = block_cache_->insert(p, id, *blockr, /*dirty=*/false);
        if (!st.is_ok()) return rpc::make_error_reply(call, st);
      }
    }
    if (block_cache_->contains(id)) {
      auto merged = block_cache_->merge(p, id, lo - block_start, slice);
      if (!merged.is_ok()) return rpc::make_error_reply(call, merged.status());
    } else {
      // New tail block: zeros up to the write, then the data.
      blob::ExtentStore compose;
      compose.truncate(hi - block_start);
      compose.write_blob(lo - block_start, slice, 0, hi - lo);
      Status st = block_cache_->insert(p, id, compose.snapshot(), /*dirty=*/true);
      if (!st.is_ok()) return rpc::make_error_reply(call, st);
    }
  }
  size_override_[key] = std::max(known, end);
  writes_absorbed_.inc();
  if (tracer_) tracer_->annotate(&p, cfg_.name, "write_absorbed", p.now());

  if (attr) {
    attr->size = size_override_[key];
    attr->mtime = p.now();
    remember_attr_(a.fh, *attr, p.now());
  }
  return local_write_reply(call, a.count, attr);
}

rpc::RpcReply GvfsProxy::handle_getattr_(sim::Process& p, const rpc::RpcCall& call,
                                         const nfs::GetattrArgs& a) {
  key_to_fh_[a.fh.key()] = a.fh;
  std::optional<vfs::Attr> attr = cached_attr_(a.fh, p.now());
  if (!attr && cfg_.degraded_mode && upstream_down_) attr = stale_attr_(a.fh);
  if (!attr) {
    rpc::RpcReply reply = forward_(p, call);
    if (reply.status.is_ok()) {
      auto res = rpc::message_cast<nfs::GetattrRes>(reply.result);
      if (!res || res->status != NfsStat::kOk) return reply;
      remember_attr_(a.fh, res->attr.a, p.now());
      u64 size = effective_size_(a.fh, res->attr.a);
      if (size == res->attr.a.size) return reply;
      auto patched = std::make_shared<nfs::GetattrRes>(*res);
      patched->attr.a.size = size;
      return rpc::make_reply(call, patched);
    }
    if (cfg_.degraded_mode && reply.status.code() == ErrCode::kTimeout) {
      attr = stale_attr_(a.fh);
    }
    if (!attr) return reply;
  }
  auto res = std::make_shared<nfs::GetattrRes>();
  res->attr.a = *attr;
  res->attr.a.size = effective_size_(a.fh, attr);
  return rpc::make_reply(call, res);
}

rpc::RpcReply GvfsProxy::handle_commit_(sim::Process& p, const rpc::RpcCall& call,
                                        const nfs::CommitArgs& a) {
  const bool write_back_mode =
      block_cache_ != nullptr &&
      block_cache_->config().policy == cache::WritePolicy::kWriteBack;
  const bool staged_here =
      write_back_mode || (file_cache_ != nullptr && file_cache_->contains(a.fh.key()));
  if (staged_here && cfg_.absorb_commit) {
    return local_commit_reply(call, cached_attr_(a.fh, p.now()));
  }
  if (staged_here) {
    // Honest COMMIT: the client asked for durability, so bytes staged here
    // (cache frames, the dirty-extent log, the whole-file copy) must reach
    // the server before the COMMIT is forwarded.
    Status st = write_back_(p, a.fh.key());
    if (!st.is_ok()) return rpc::make_error_reply(call, st);
  }
  rpc::RpcReply reply = forward_(p, call);
  if (cfg_.degraded_mode && reply.status.code() == ErrCode::kTimeout) {
    // The data this COMMIT covers is parked for replay; acknowledging it
    // locally is the same promise write-back mode makes (replayed durable on
    // reconnect).
    return local_commit_reply(call, stale_attr_(a.fh));
  }
  return reply;
}

rpc::RpcReply GvfsProxy::handle_setattr_(sim::Process& p, const rpc::RpcCall& call,
                                         const nfs::SetattrArgs& a) {
  u64 key = a.fh.key();
  if (a.sattr.sa.set_size) {
    // Truncation: bytes acknowledged before it land first (the server then
    // cuts what lies past the new EOF), and only then is the file's cached
    // state forgotten. Forgetting first would lose acked writes below the
    // new EOF and let logged ones past it re-extend the file later.
    if (cfg_.dedup_blocks) dedup_written_.insert(key);  // fp table now stale
    Status st = write_back_(p, key);
    // Parked bytes replay on the next upstream success, which would be this
    // SETATTR's own, after the cut: replay them first.
    if (st.is_ok() && upstream_down_) st = replay_parked_(p);
    if (!st.is_ok()) return rpc::make_error_reply(call, st);
    forget_file_(key);
  }
  rpc::RpcReply reply = forward_(p, call);
  if (reply.status.is_ok()) {
    if (auto res = rpc::message_cast<nfs::SetattrRes>(reply.result);
        res && res->status == NfsStat::kOk && res->attr.attr) {
      remember_attr_(a.fh, *res->attr.attr, p.now());
    }
  }
  return reply;
}

// ------------------------------------------------ write back / forget a file --

Status GvfsProxy::write_back_(sim::Process& p, std::optional<u64> key) {
  if (block_cache_ != nullptr) {
    // Durability is wanted now: drain inline instead of racing a background
    // flusher (sync_drain_ suppresses spawns from the stages and evictions
    // the cache write-back triggers).
    sync_drain_ = true;
    Status st = key ? block_cache_->write_back_file(p, *key) : block_cache_->write_back_all(p);
    if (st.is_ok()) st = push_queued_(p);
    sync_drain_ = false;
    GVFS_RETURN_IF_ERROR(st);
  }
  if (file_cache_ == nullptr) return Status::ok();
  return key ? file_cache_->write_back(p, *key) : file_cache_->write_back_all(p);
}

// The one place a file's cached state is dropped; gvfs_lint (per-file-drop)
// flags these calls anywhere else in this file.
void GvfsProxy::forget_file_(u64 key) {
  // gvfs-lint: allow(per-file-drop) forget_file_
  if (block_cache_ != nullptr) block_cache_->invalidate_file(key);
  // gvfs-lint: allow(per-file-drop) forget_file_
  if (file_cache_ != nullptr) file_cache_->invalidate(key);
  // gvfs-lint: allow(per-file-drop) forget_file_
  attr_cache_.erase(key);
  attr_gauge_sync_();
  size_override_.erase(key);
  profiles_.erase(key);
}

// ------------------------------------------------------ middleware signals --

Status GvfsProxy::signal_reconnect(sim::Process& p) {
  GVFS_RETURN_IF_ERROR(replay_parked_(p));
  return revalidate_stale_attrs_(p);
}

Status GvfsProxy::signal_write_back(sim::Process& p) { return write_back_(p, std::nullopt); }

void GvfsProxy::drop_soft_state() {
  attr_cache_.clear();
  attr_gauge_sync_();
  stale_served_.clear();
  size_override_.clear();
  metas_.clear();
  meta_negative_.clear();
  // Stale ahead_until/run would make the refill guard suppress read-ahead
  // on the next cold pass over the same file.
  profiles_.clear();
}

Status GvfsProxy::signal_flush(sim::Process& p) {
  GVFS_RETURN_IF_ERROR(write_back_(p, std::nullopt));
  if (block_cache_ != nullptr) block_cache_->invalidate_all();
  if (file_cache_ != nullptr) file_cache_->invalidate_all();
  drop_soft_state();
  return Status::ok();
}

}  // namespace gvfs::proxy
