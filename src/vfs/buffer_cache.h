// Kernel buffer/page cache model: a capacity-bounded LRU of fixed-size pages
// holding lazy data references. Shared by the local filesystem session and
// the NFS client — the paper's "memory file system buffer" whose limited
// capacity and write-through behaviour over WAN motivates the proxy disk
// cache (§1, §3.2.1).
//
// Dirty pages model kernel write staging; when a dirty page is evicted (or
// the owner flushes) a writeback callback pushes it to the backing store,
// charging whatever time that store costs.
//
// Layout (DESIGN.md §5.1): pages live in slots allocated in fixed-size
// chunks and named by stable u32 ids; an open-addressing index maps
// (file, page) to a slot; the LRU list and each file's page list are
// threaded through the slots. Each file's list hangs off a head slot that
// counts the file's dirty pages, and heads with dirty pages form a list of
// their own, so per-file operations cost O(that file's pages).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "blob/blob.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/types.h"
#include "sim/kernel.h"

namespace gvfs::vfs {

class BufferCache {
 public:
  // `file` is an owner-chosen file key (inode number / handle hash).
  using WritebackFn =
      std::function<void(sim::Process& p, u64 file, u64 page_index, const blob::BlobRef& data)>;

  BufferCache(u64 capacity_bytes, u32 page_size);

  [[nodiscard]] u32 page_size() const { return page_size_; }
  [[nodiscard]] u64 capacity_pages() const { return capacity_pages_; }

  void set_writeback(WritebackFn fn) { writeback_ = std::move(fn); }

  // Returns the cached page data (page-sized, or shorter at EOF) and
  // refreshes LRU position; nullopt on miss.
  std::optional<blob::BlobRef> lookup(u64 file, u64 page_index);

  // Insert/replace a page. Evicts LRU pages as needed (dirty evictions call
  // the writeback function with `p`).
  void insert(sim::Process& p, u64 file, u64 page_index, blob::BlobRef data, bool dirty);

  // Mark a page clean after an explicit writeback, only if it still holds
  // `written`: a page dirtied again while `written` was on its way to the
  // backing store stays dirty.
  void mark_clean(u64 file, u64 page_index, const blob::BlobRef& written);

  // Write back every dirty page of `file` (all files if file == 0) in
  // (file, page) order, cleaning each page that still holds what was
  // written. Returns number of pages written.
  u64 flush(sim::Process& p, u64 file = 0);

  // Drop all pages of a file (cache invalidation on close/reopen); dirty
  // pages are written back first.
  void invalidate_file(sim::Process& p, u64 file);

  // Drop all pages of a file WITHOUT writeback (truncate semantics: staged
  // data past the truncation point must not be written back).
  void discard_file(u64 file);

  // File keys that currently have dirty pages, sorted.
  [[nodiscard]] std::vector<u64> dirty_files() const;

  // Drop everything without writeback (unmount of a read-only session /
  // experiment reset to a cold state).
  void drop_all();

  // Sorted (page_index, data) list of dirty pages of `file` — used by the
  // NFS client to coalesce staged pages into wsize WRITE runs.
  [[nodiscard]] std::vector<std::pair<u64, blob::BlobRef>> dirty_pages_of(u64 file) const;

  // Peek without touching LRU order or stats.
  [[nodiscard]] bool contains(u64 file, u64 page_index) const {
    return find_(file, page_index) != kNil;
  }

  [[nodiscard]] u64 hits() const { return hits_.value(); }
  [[nodiscard]] u64 misses() const { return misses_.value(); }
  [[nodiscard]] u64 evictions() const { return evictions_.value(); }
  [[nodiscard]] u64 dirty_pages() const { return dirty_count_.value(); }
  [[nodiscard]] u64 resident_pages() const { return resident_; }
  void reset_stats() {
    hits_.reset();
    misses_.reset();
    evictions_.reset();
  }

  void register_metrics(metrics::Registry& r, const std::string& prefix) const {
    r.register_counter(prefix + "hits", &hits_);
    r.register_counter(prefix + "misses", &misses_);
    r.register_counter(prefix + "evictions", &evictions_);
    r.register_gauge(prefix + "dirty_pages", &dirty_count_);
  }

 private:
  using SlotId = u32;
  static constexpr SlotId kNil = ~SlotId{0};
  // Page key of a file's head slot; no real page index reaches it.
  static constexpr u64 kHeadPage = ~u64{0};
  // Slots and index cells live in chunks well below malloc's mmap threshold
  // (512 slots of 56 bytes, 4096 cells of 8 bytes): growing the cache never
  // copies a slot, and freeing a large mapped array, which raises glibc's
  // dynamic mmap threshold and leaves later large blocks on the heap, never
  // happens.
  static constexpr u32 kChunkSlots = 512;
  static constexpr std::size_t kIndexChunkCells = 4096;

  // A resident page, or the head of one file's page list (page == kHeadPage).
  struct Slot {
    u64 file = 0;
    u64 page = 0;
    blob::BlobRef data;  // page only
    // Page: LRU list (prev = more recent). Head: list of heads with dirty
    // pages. Free slot: `next` links the free list.
    SlotId prev = kNil;
    SlotId next = kNil;
    // Circular list of one file's pages, closed through its head.
    SlotId file_prev = kNil;
    SlotId file_next = kNil;
    SlotId head = kNil;  // page: its file's head slot
    // Dirty pages at this slot: a page's staged data not yet written back
    // (0 or 1), or the count of a head's dirty pages.
    u32 dirty = 0;
  };
  // Open-addressing index entry; `slot == kNil` marks an empty cell.
  struct IndexEntry {
    u32 hash = 0;
    SlotId slot = kNil;
  };
  struct Staged {
    u64 file;
    u64 page;
    blob::BlobRef data;
  };

  [[nodiscard]] Slot& at_(SlotId id) { return chunks_[id / kChunkSlots][id % kChunkSlots]; }
  [[nodiscard]] const Slot& at_(SlotId id) const {
    return chunks_[id / kChunkSlots][id % kChunkSlots];
  }
  [[nodiscard]] IndexEntry& cell_(std::size_t i) {
    return index_[i / kIndexChunkCells][i % kIndexChunkCells];
  }
  [[nodiscard]] const IndexEntry& cell_(std::size_t i) const {
    return index_[i / kIndexChunkCells][i % kIndexChunkCells];
  }
  // The file key is mixed on its own first: hash_combine collides on small
  // structured (file, page) pairs.
  [[nodiscard]] static u32 hash_(u64 file, u64 page) {
    return static_cast<u32>(mix64(mix64(file) ^ page) >> 32);
  }
  // Index cell holding (file, page), or index_cells_ if absent.
  [[nodiscard]] std::size_t find_pos_(u64 file, u64 page) const;
  [[nodiscard]] SlotId find_(u64 file, u64 page) const;
  void index_insert_(SlotId id);
  void index_erase_(u64 file, u64 page);
  void place_(IndexEntry e);

  SlotId alloc_slot_(u64 file, u64 page);
  void free_slot_(SlotId id);
  SlotId head_for_(u64 file);
  void lru_unlink_(SlotId id);
  void lru_push_front_(SlotId id);
  void set_dirty_(SlotId id, bool dirty);
  void remove_(SlotId id);
  void collect_dirty_(SlotId head, std::vector<Staged>& out) const;
  // Evicts the LRU page; true if it ran the (yielding) write-back.
  bool evict_one_(sim::Process& p);

  u32 page_size_;
  u64 capacity_pages_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  SlotId fresh_ = 0;       // slots below this id have been handed out
  SlotId free_ = kNil;     // free-list head
  std::vector<std::unique_ptr<IndexEntry[]>> index_;
  std::size_t index_cells_ = 0;  // power of two (or 0), load <= 3/4
  u64 index_used_ = 0;
  SlotId lru_front_ = kNil;  // most recent
  SlotId lru_back_ = kNil;   // next victim
  SlotId dirty_heads_ = kNil;
  u64 resident_ = 0;
  WritebackFn writeback_;
  metrics::Counter hits_;
  metrics::Counter misses_;
  metrics::Counter evictions_;
  metrics::Gauge dirty_count_;
};

}  // namespace gvfs::vfs
