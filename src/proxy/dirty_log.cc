#include "proxy/dirty_log.h"

#include <algorithm>

#include "blob/extent_store.h"

namespace gvfs::proxy {

namespace {

// Bytes of [lo, hi) that `x` covers, as a half-open range (empty: lo >= hi).
std::pair<u64, u64> clip(const DirtyLog::Extent& x, u64 lo, u64 hi) {
  return {std::max(lo, x.offset), std::min(hi, x.end())};
}

bool covers_any(const DirtyLog::Extent& x, u64 lo, u64 hi) {
  auto [olo, ohi] = clip(x, lo, hi);
  return olo < ohi;
}

}  // namespace

u64 DirtyLog::stage(u64 file, u64 block, blob::BlobRef data) {
  const Extent x{block * block_size_, std::move(data), next_stamp_++};
  const u64 superseded = supersede(file, x);
  put_(file, x, State::kQueued);
  return superseded;
}

std::optional<u64> DirtyLog::next_queued_file() const {
  std::optional<u64> best;
  u64 since = 0;
  for (const auto& [file, f] : files_) {
    if (f.queued_since != 0 && (!best || f.queued_since < since)) {
      best = file;
      since = f.queued_since;
    }
  }
  return best;
}

std::vector<DirtyLog::Extent> DirtyLog::take(u64 file) {
  FileLog& f = files_[file];
  std::vector<Entry*> queued;
  for (auto& [offset, e] : f.by_offset) {
    if (e.state == State::kQueued) queued.push_back(&e);
  }
  std::sort(queued.begin(), queued.end(),
            [](const Entry* a, const Entry* b) { return a->slot < b->slot; });
  std::vector<Extent> out;
  out.reserve(queued.size());
  for (Entry* e : queued) {
    e->state = State::kInFlight;
    out.push_back(e->x);
  }
  f.queued_since = 0;
  forget_if_empty_(file);
  return out;
}

u64 DirtyLog::supersede(u64 file, const Extent& e) {
  auto fit = files_.find(file);
  if (fit == files_.end()) return 0;
  auto& m = fit->second.by_offset;
  u64 n = 0;
  for (auto it = scan_from_(m, e.offset); it != m.end() && it->first < e.end();) {
    Extent& w = it->second.x;
    auto [olo, ohi] = clip(w, e.offset, e.end());
    // Entries stamped newer than the bytes heading upstream (parked by a
    // concurrent push that took fresher bytes) are left alone.
    if (it->second.state != State::kParked || w.stamp > e.stamp || olo >= ohi) {
      ++it;
      continue;
    }
    ++n;
    if (e.offset <= w.offset && w.end() <= e.end()) {
      it = m.erase(it);
      epoch_.bump();
      continue;
    }
    // Partial overlap (raw parked writes need not be block-aligned): patch
    // the overlap; the entry keeps its stamp, its remainder is no newer.
    blob::ExtentStore patched;
    patched.truncate(w.size());
    patched.write_blob(0, w.data, 0, w.size());
    patched.write_blob(olo - w.offset, e.data, olo - e.offset, ohi - olo);
    w.data = patched.snapshot();
    ++it;
  }
  forget_if_empty_(file);
  return n;
}

void DirtyLog::settle(u64 file, const Extent& e) { retire_(file, e, State::kInFlight); }

void DirtyLog::unpark(u64 file, const Extent& e) { retire_(file, e, State::kParked); }

bool DirtyLog::put_(u64 file, const Extent& e, State s) {
  FileLog& f = files_[file];
  const Iter none = f.by_offset.end();
  const Iter in = find_(f, e.offset, State::kInFlight, e.stamp);
  const Iter into = find_(f, e.offset, s);
  if (into == none) {
    const u64 slot = next_slot_++;
    if (s == State::kQueued && f.queued_since == 0) f.queued_since = slot;
    if (in != none) {
      in->second.state = s;
      in->second.slot = slot;
    } else {
      f.by_offset.emplace(e.offset, Entry{e, s, slot});
      max_extent_ = std::max(max_extent_, e.size());
      epoch_.bump();
    }
    return false;
  }
  // Coalesce: sending both would waste a round trip on dead bytes. The
  // higher stamp wins — a failed push re-parking taken bytes can arrive
  // after a newer write was parked.
  Extent& w = into->second.x;
  const bool incoming_newer = e.stamp > w.stamp;
  const Extent& win = incoming_newer ? e : w;
  const Extent& lose = incoming_newer ? w : e;
  if (win.size() >= lose.size()) {
    w.data = win.data;
  } else {
    // A shorter winner keeps the loser's tail, so the coalesced extent
    // still covers every byte either promised.
    blob::ExtentStore merged;
    merged.truncate(lose.size());
    merged.write_blob(0, lose.data, 0, lose.size());
    merged.write_blob(0, win.data, 0, win.size());
    w.data = merged.snapshot();
  }
  w.stamp = std::max(w.stamp, e.stamp);
  max_extent_ = std::max(max_extent_, w.size());
  if (in != none) {
    f.by_offset.erase(in);
    epoch_.bump();
  }
  return true;
}

std::optional<DirtyLog::Newest> DirtyLog::newest(u64 file, u64 block) const {
  // `top` and `parts` point into the log; this scope must stay yield-free
  // (it is: the log never yields; the guard asserts it).
  YieldGuard yield_free(epoch_);
  auto fit = files_.find(file);
  if (fit == files_.end()) return std::nullopt;
  const auto& m = fit->second.by_offset;
  const u64 lo = block * block_size_;
  const u64 hi = lo + block_size_;
  const auto end = m.lower_bound(hi);
  const Extent* top = nullptr;
  bool staged = false;
  u64 covered = lo;
  for (auto it = scan_from_(m, lo); it != end; ++it) {
    const Entry& e = it->second;
    if (!covers_any(e.x, lo, hi)) continue;
    staged = staged || e.state != State::kParked;
    covered = std::max(covered, std::min(hi, e.x.end()));
    if (top == nullptr || e.x.stamp > top->stamp) top = &e.x;
  }
  if (top == nullptr) return std::nullopt;
  if (top->offset == lo && top->end() == covered) return Newest{top->data, staged};

  std::vector<const Extent*> parts;
  for (auto it = scan_from_(m, lo); it != end; ++it) {
    if (covers_any(it->second.x, lo, hi)) parts.push_back(&it->second.x);
  }
  std::sort(parts.begin(), parts.end(),
            [](const Extent* a, const Extent* b) { return a->stamp < b->stamp; });
  // Bytes in the block that no extent covers read as zeros: the block left
  // the cache when it was logged, so this is the best available answer.
  blob::ExtentStore assembled;
  assembled.truncate(covered - lo);
  for (const Extent* x : parts) {
    auto [olo, ohi] = clip(*x, lo, hi);
    assembled.write_blob(olo - lo, x->data, olo - x->offset, ohi - olo);
  }
  return Newest{assembled.snapshot(), staged};
}

bool DirtyLog::overlaps(u64 file, u64 block) const {
  auto fit = files_.find(file);
  if (fit == files_.end()) return false;
  const auto& m = fit->second.by_offset;
  const u64 lo = block * block_size_;
  const u64 hi = lo + block_size_;
  return std::any_of(scan_from_(m, lo), m.lower_bound(hi),
                     [&](const auto& kv) { return covers_any(kv.second.x, lo, hi); });
}

std::optional<DirtyLog::FileExtent> DirtyLog::oldest_parked() const {
  YieldGuard yield_free(epoch_);
  const Entry* best = nullptr;
  u64 best_file = 0;
  for (const auto& [file, f] : files_) {
    for (const auto& [offset, e] : f.by_offset) {
      if (e.state == State::kParked && (best == nullptr || e.x.stamp < best->x.stamp)) {
        best = &e;
        best_file = file;
      }
    }
  }
  if (best == nullptr) return std::nullopt;
  return FileExtent{best_file, best->x};
}

std::vector<u64> DirtyLog::parked_files() const {
  std::vector<u64> out;
  for (const auto& [file, f] : files_) {
    if (std::any_of(f.by_offset.begin(), f.by_offset.end(),
                    [](const auto& kv) { return kv.second.state == State::kParked; })) {
      out.push_back(file);
    }
  }
  return out;
}

std::size_t DirtyLog::count(State s) const {
  std::size_t n = 0;
  for (const auto& [file, f] : files_) {
    n += static_cast<std::size_t>(
        std::count_if(f.by_offset.begin(), f.by_offset.end(),
                      [s](const auto& kv) { return kv.second.state == s; }));
  }
  return n;
}

DirtyLog::Iter DirtyLog::find_(FileLog& f, u64 offset, State s, std::optional<u64> stamp) {
  auto [it, end] = f.by_offset.equal_range(offset);
  for (; it != end; ++it) {
    if (it->second.state == s && (!stamp || it->second.x.stamp == *stamp)) return it;
  }
  return f.by_offset.end();
}

void DirtyLog::retire_(u64 file, const Extent& e, State s) {
  auto fit = files_.find(file);
  if (fit == files_.end()) return;
  if (Iter it = find_(fit->second, e.offset, s, e.stamp); it != fit->second.by_offset.end()) {
    fit->second.by_offset.erase(it);
    epoch_.bump();
  }
  forget_if_empty_(file);
}

void DirtyLog::forget_if_empty_(u64 file) {
  if (auto it = files_.find(file); it != files_.end() && it->second.by_offset.empty()) {
    files_.erase(it);
    epoch_.bump();
  }
}

}  // namespace gvfs::proxy
