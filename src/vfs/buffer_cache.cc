#include "vfs/buffer_cache.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace gvfs::vfs {

BufferCache::BufferCache(u64 capacity_bytes, u32 page_size)
    : page_size_(page_size),
      capacity_pages_(std::max<u64>(1, capacity_bytes / page_size)) {}

// ------------------------------------------------------------------ index --

std::size_t BufferCache::find_pos_(u64 file, u64 page) const {
  if (index_cells_ == 0) return index_cells_;
  u32 h = hash_(file, page);
  std::size_t mask = index_cells_ - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const IndexEntry& e = cell_(i);
    if (e.slot == kNil) return index_cells_;
    if (e.hash == h) {
      const Slot& s = at_(e.slot);
      if (s.file == file && s.page == page) return i;
    }
  }
}

BufferCache::SlotId BufferCache::find_(u64 file, u64 page) const {
  std::size_t pos = find_pos_(file, page);
  return pos == index_cells_ ? kNil : cell_(pos).slot;
}

void BufferCache::place_(IndexEntry e) {
  std::size_t mask = index_cells_ - 1;
  std::size_t i = e.hash & mask;
  while (cell_(i).slot != kNil) i = (i + 1) & mask;
  cell_(i) = e;
}

void BufferCache::index_insert_(SlotId id) {
  if ((index_used_ + 1) * 4 > index_cells_ * 3) {
    std::vector<std::unique_ptr<IndexEntry[]>> old = std::move(index_);
    std::size_t old_cells = index_cells_;
    index_cells_ = std::max<std::size_t>(16, old_cells * 2);
    std::size_t per_chunk = std::min<std::size_t>(index_cells_, kIndexChunkCells);
    index_.clear();
    for (std::size_t c = 0; c < index_cells_ / per_chunk; ++c) {
      index_.push_back(std::make_unique<IndexEntry[]>(per_chunk));
    }
    for (std::size_t i = 0; i < old_cells; ++i) {
      const IndexEntry& e = old[i / kIndexChunkCells][i % kIndexChunkCells];
      if (e.slot != kNil) place_(e);
    }
  }
  const Slot& s = at_(id);
  place_(IndexEntry{hash_(s.file, s.page), id});
  ++index_used_;
}

void BufferCache::index_erase_(u64 file, u64 page) {
  std::size_t i = find_pos_(file, page);
  assert(i != index_cells_);
  // Backward-shift deletion: pull later entries of the probe run into the
  // gap when the gap lies between their home cell and where they sit.
  std::size_t mask = index_cells_ - 1;
  for (std::size_t j = (i + 1) & mask; cell_(j).slot != kNil; j = (j + 1) & mask) {
    std::size_t home = cell_(j).hash & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      cell_(i) = cell_(j);
      i = j;
    }
  }
  cell_(i) = IndexEntry{};
  --index_used_;
}

// ------------------------------------------------------------------ slots --

BufferCache::SlotId BufferCache::alloc_slot_(u64 file, u64 page) {
  SlotId id = free_;
  if (id != kNil) {
    free_ = at_(id).next;
  } else {
    id = fresh_++;
    if (id / kChunkSlots == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
  }
  Slot& s = at_(id);
  s = Slot{};
  s.file = file;
  s.page = page;
  index_insert_(id);
  return id;
}

void BufferCache::free_slot_(SlotId id) {
  Slot& s = at_(id);
  index_erase_(s.file, s.page);
  s.data.reset();
  s.next = free_;
  free_ = id;
}

BufferCache::SlotId BufferCache::head_for_(u64 file) {
  SlotId h = find_(file, kHeadPage);
  if (h == kNil) {
    h = alloc_slot_(file, kHeadPage);
    at_(h).file_prev = at_(h).file_next = h;
  }
  return h;
}

void BufferCache::lru_unlink_(SlotId id) {
  Slot& s = at_(id);
  (s.prev == kNil ? lru_front_ : at_(s.prev).next) = s.next;
  (s.next == kNil ? lru_back_ : at_(s.next).prev) = s.prev;
  s.prev = s.next = kNil;
}

void BufferCache::lru_push_front_(SlotId id) {
  Slot& s = at_(id);
  s.prev = kNil;
  s.next = lru_front_;
  (lru_front_ == kNil ? lru_back_ : at_(lru_front_).prev) = id;
  lru_front_ = id;
}

void BufferCache::set_dirty_(SlotId id, bool dirty) {
  Slot& s = at_(id);
  if ((s.dirty != 0) == dirty) return;
  s.dirty = dirty ? 1 : 0;
  Slot& h = at_(s.head);
  if (dirty) {
    dirty_count_.add(1);
    if (h.dirty++ == 0) {  // first dirty page: join the dirty heads
      h.prev = kNil;
      h.next = dirty_heads_;
      if (dirty_heads_ != kNil) at_(dirty_heads_).prev = s.head;
      dirty_heads_ = s.head;
    }
  } else {
    dirty_count_.sub(1);
    if (--h.dirty == 0) {
      (h.prev == kNil ? dirty_heads_ : at_(h.prev).next) = h.next;
      if (h.next != kNil) at_(h.next).prev = h.prev;
      h.prev = h.next = kNil;
    }
  }
}

void BufferCache::remove_(SlotId id) {
  set_dirty_(id, false);
  lru_unlink_(id);
  Slot& s = at_(id);
  SlotId head = s.head;
  at_(s.file_prev).file_next = s.file_next;
  at_(s.file_next).file_prev = s.file_prev;
  free_slot_(id);
  --resident_;
  if (at_(head).file_next == head) free_slot_(head);  // the file's last page
}

void BufferCache::collect_dirty_(SlotId head, std::vector<Staged>& out) const {
  const Slot& h = at_(head);
  for (SlotId id = h.file_next; id != head; id = at_(id).file_next) {
    const Slot& s = at_(id);
    if (s.dirty) out.push_back(Staged{s.file, s.page, s.data});
  }
}

// ----------------------------------------------------------------- public --

std::optional<blob::BlobRef> BufferCache::lookup(u64 file, u64 page_index) {
  SlotId id = find_(file, page_index);
  if (id == kNil) {
    misses_.inc();
    return std::nullopt;
  }
  hits_.inc();
  lru_unlink_(id);
  lru_push_front_(id);
  return at_(id).data;
}

void BufferCache::insert(sim::Process& p, u64 file, u64 page_index,
                         blob::BlobRef data, bool dirty) {
  SlotId id = find_(file, page_index);
  // A write-back yields, and another process may insert this page
  // meanwhile: look again after each one.
  while (id == kNil && resident_ >= capacity_pages_) {
    if (evict_one_(p)) id = find_(file, page_index);
  }
  if (id != kNil) {
    lru_unlink_(id);
    lru_push_front_(id);
    // A clean refill must never clobber staged (newer) data; keep the
    // dirty page as-is, just refresh recency.
    if (at_(id).dirty && !dirty) return;
    at_(id).data = std::move(data);
    set_dirty_(id, dirty);
    return;
  }
  SlotId head = head_for_(file);
  id = alloc_slot_(file, page_index);
  Slot& s = at_(id);
  s.data = std::move(data);
  s.head = head;
  Slot& h = at_(head);
  s.file_prev = head;
  s.file_next = h.file_next;
  at_(h.file_next).file_prev = id;
  h.file_next = id;
  lru_push_front_(id);
  ++resident_;
  set_dirty_(id, dirty);
}

bool BufferCache::evict_one_(sim::Process& p) {
  assert(lru_back_ != kNil);
  SlotId victim = lru_back_;
  bool wrote = at_(victim).dirty && writeback_;
  if (wrote) {
    // The write-back yields; other processes may touch, refill, discard or
    // reuse the victim's slot meanwhile, so hold its key and data, not the
    // slot, across the call and find the page again afterwards.
    Staged wb{at_(victim).file, at_(victim).page, at_(victim).data};
    writeback_(p, wb.file, wb.page, wb.data);
    victim = find_(wb.file, wb.page);
    if (victim == kNil) return wrote;  // dropped meanwhile
    if (at_(victim).dirty && at_(victim).data != wb.data) return wrote;  // dirtied again
  }
  evictions_.inc();
  remove_(victim);
  return wrote;
}

void BufferCache::mark_clean(u64 file, u64 page_index, const blob::BlobRef& written) {
  SlotId id = find_(file, page_index);
  if (id != kNil && at_(id).data == written) set_dirty_(id, false);
}

u64 BufferCache::flush(sim::Process& p, u64 file) {
  // Snapshot first: the write-back yields and may recurse into the cache.
  std::vector<Staged> dirty;
  if (file != 0) {
    SlotId head = find_(file, kHeadPage);
    if (head != kNil && at_(head).dirty > 0) {
      dirty.reserve(at_(head).dirty);
      collect_dirty_(head, dirty);
    }
  } else {
    dirty.reserve(dirty_count_.value());
    for (SlotId head = dirty_heads_; head != kNil; head = at_(head).next) {
      collect_dirty_(head, dirty);
    }
  }
  std::sort(dirty.begin(), dirty.end(), [](const Staged& a, const Staged& b) {
    return a.file != b.file ? a.file < b.file : a.page < b.page;
  });
  for (const Staged& s : dirty) {
    if (writeback_) writeback_(p, s.file, s.page, s.data);
    mark_clean(s.file, s.page, s.data);
  }
  return dirty.size();
}

std::vector<std::pair<u64, blob::BlobRef>> BufferCache::dirty_pages_of(u64 file) const {
  std::vector<std::pair<u64, blob::BlobRef>> out;
  SlotId head = find_(file, kHeadPage);
  if (head == kNil || at_(head).dirty == 0) return out;
  out.reserve(at_(head).dirty);
  for (SlotId id = at_(head).file_next; id != head; id = at_(id).file_next) {
    if (at_(id).dirty) out.emplace_back(at_(id).page, at_(id).data);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void BufferCache::invalidate_file(sim::Process& p, u64 file) {
  // Repeat until a flush finds nothing: a page dirtied again during the
  // write-back must reach the store before the drop below.
  while (flush(p, file) > 0) {
  }
  discard_file(file);
}

void BufferCache::discard_file(u64 file) {
  SlotId head = find_(file, kHeadPage);
  if (head == kNil) return;
  for (bool last = false; !last;) {
    SlotId id = at_(head).file_next;
    last = at_(id).file_next == head;
    remove_(id);  // frees `head` with the last page
  }
}

std::vector<u64> BufferCache::dirty_files() const {
  std::vector<u64> out;
  for (SlotId head = dirty_heads_; head != kNil; head = at_(head).next) {
    out.push_back(at_(head).file);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BufferCache::drop_all() {
  chunks_.clear();
  fresh_ = 0;
  free_ = kNil;
  for (auto& chunk : index_) {
    std::fill_n(chunk.get(), std::min<std::size_t>(index_cells_, kIndexChunkCells), IndexEntry{});
  }
  index_used_ = 0;
  lru_front_ = lru_back_ = kNil;
  dirty_heads_ = kNil;
  resident_ = 0;
  dirty_count_.set(0);
}

}  // namespace gvfs::vfs
