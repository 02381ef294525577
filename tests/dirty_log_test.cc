// Seeded differential test of proxy::DirtyLog, the client proxy's one store
// of not-yet-durable bytes. Random mixes of the log's operations — stage,
// take for a push, ack (supersede), requeue, park a push, park a raw
// unaligned degraded write, supersede by a fresh write, replay — run over a
// few files against a naive reference: a flat list of extents where every
// operation is written the plainest way its contract allows, and a block's
// bytes are painted oldest stamp first onto a byte array (the last stamp
// wins). After every step the two must agree on every block's bytes and
// overlap, the per-state counts, the push order and the replay order.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include "blob/blob.h"
#include "proxy/dirty_log.h"

namespace gvfs::proxy {
namespace {

using State = DirtyLog::State;
using Bytes = std::vector<u8>;

constexpr u64 kBlock = 64;  // small blocks keep the byte-level reference cheap
constexpr u64 kFiles = 3;
constexpr u64 kBlocks = 6;     // staged blocks per file
constexpr u64 kMaxRaw = 2 * kBlock;  // raw parked writes may span blocks
constexpr u64 kCheckedBlocks = kBlocks + 2;

Bytes bytes_of(const blob::BlobRef& b) {
  Bytes out(b ? b->size() : 0);
  if (!out.empty()) b->read(0, out);
  return out;
}

struct RefEntry {
  u64 file = 0;
  u64 offset = 0;
  Bytes bytes;
  u64 stamp = 0;
  State state = State::kQueued;
  u64 slot = 0;
  [[nodiscard]] u64 end() const { return offset + bytes.size(); }
};

struct RefNewest {
  Bytes bytes;
  bool staged = false;
};

class Reference {
 public:
  u64 next_stamp() { return next_stamp_++; }

  u64 supersede(u64 file, u64 offset, const Bytes& bytes, u64 stamp) {
    const u64 lo = offset;
    const u64 hi = offset + bytes.size();
    u64 n = 0;
    for (std::size_t i = 0; i < entries_.size();) {
      RefEntry& w = entries_[i];
      const u64 olo = std::max(lo, w.offset);
      const u64 ohi = std::min(hi, w.end());
      if (w.file != file || w.state != State::kParked || w.stamp > stamp || olo >= ohi) {
        ++i;
        continue;
      }
      ++n;
      if (lo <= w.offset && w.end() <= hi) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      std::copy(bytes.begin() + static_cast<std::ptrdiff_t>(olo - lo),
                bytes.begin() + static_cast<std::ptrdiff_t>(ohi - lo),
                w.bytes.begin() + static_cast<std::ptrdiff_t>(olo - w.offset));
      ++i;
    }
    return n;
  }

  u64 stage(u64 file, u64 block, const Bytes& bytes) {
    const u64 stamp = next_stamp_++;
    const u64 offset = block * kBlock;
    const u64 n = supersede(file, offset, bytes, stamp);
    put(file, offset, bytes, stamp, State::kQueued);
    return n;
  }

  // The file holding the queued entry with the smallest queue slot.
  [[nodiscard]] std::optional<u64> next_queued_file() const {
    const RefEntry* best = nullptr;
    for (const RefEntry& e : entries_) {
      if (e.state == State::kQueued && (best == nullptr || e.slot < best->slot)) best = &e;
    }
    if (best == nullptr) return std::nullopt;
    return best->file;
  }

  std::vector<RefEntry> take(u64 file) {
    std::vector<RefEntry*> queued;
    for (RefEntry& e : entries_) {
      if (e.file == file && e.state == State::kQueued) queued.push_back(&e);
    }
    std::sort(queued.begin(), queued.end(),
              [](const RefEntry* a, const RefEntry* b) { return a->slot < b->slot; });
    std::vector<RefEntry> out;
    for (RefEntry* e : queued) {
      e->state = State::kInFlight;
      out.push_back(*e);
    }
    return out;
  }

  void settle(u64 file, u64 offset, u64 stamp) {
    if (auto in = find(file, offset, State::kInFlight, stamp)) erase(*in);
  }

  void requeue(u64 file, u64 offset, const Bytes& bytes, u64 stamp) {
    put(file, offset, bytes, stamp, State::kQueued);
  }

  bool park(u64 file, u64 offset, const Bytes& bytes, u64 stamp) {
    return put(file, offset, bytes, stamp, State::kParked);
  }

  void unpark(u64 file, u64 offset, u64 stamp) {
    if (auto it = find(file, offset, State::kParked, stamp)) erase(*it);
  }

  // Paint every entry overlapping the block onto a byte array, oldest stamp
  // first; the array ends at the furthest covered byte.
  [[nodiscard]] std::optional<RefNewest> newest(u64 file, u64 block) const {
    const u64 lo = block * kBlock;
    const u64 hi = lo + kBlock;
    std::vector<const RefEntry*> parts;
    for (const RefEntry& e : entries_) {
      if (e.file == file && std::max(lo, e.offset) < std::min(hi, e.end())) {
        parts.push_back(&e);
      }
    }
    if (parts.empty()) return std::nullopt;
    std::sort(parts.begin(), parts.end(),
              [](const RefEntry* a, const RefEntry* b) { return a->stamp < b->stamp; });
    RefNewest out;
    for (const RefEntry* e : parts) {
      out.staged = out.staged || e->state != State::kParked;
      const u64 olo = std::max(lo, e->offset);
      const u64 ohi = std::min(hi, e->end());
      if (out.bytes.size() < ohi - lo) out.bytes.resize(ohi - lo);
      for (u64 b = olo; b < ohi; ++b) out.bytes[b - lo] = e->bytes[b - e->offset];
    }
    return out;
  }

  [[nodiscard]] const RefEntry* oldest_parked() const {
    const RefEntry* best = nullptr;
    for (const RefEntry& e : entries_) {
      if (e.state == State::kParked && (best == nullptr || e.stamp < best->stamp)) best = &e;
    }
    return best;
  }

  [[nodiscard]] std::vector<u64> parked_files() const {
    std::vector<u64> out;
    for (const RefEntry& e : entries_) {
      if (e.state == State::kParked) out.push_back(e.file);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  [[nodiscard]] std::size_t count(State s) const {
    return static_cast<std::size_t>(std::count_if(
        entries_.begin(), entries_.end(), [s](const RefEntry& e) { return e.state == s; }));
  }

  // True if the block has queued, in-flight and parked bytes at once.
  [[nodiscard]] bool all_states_overlap(u64 file, u64 block) const {
    const u64 lo = block * kBlock;
    const u64 hi = lo + kBlock;
    bool seen[3] = {false, false, false};
    for (const RefEntry& e : entries_) {
      if (e.file == file && std::max(lo, e.offset) < std::min(hi, e.end())) {
        seen[static_cast<int>(e.state)] = true;
      }
    }
    return seen[0] && seen[1] && seen[2];
  }

 private:
  // Move the extent into state `s` (its in-flight entry, if any), merging
  // with the entry already in `s` at its offset: the loser's bytes padded
  // to the longer length, the higher stamp's bytes painted over them.
  bool put(u64 file, u64 offset, const Bytes& bytes, u64 stamp, State s) {
    auto in = find(file, offset, State::kInFlight, stamp);
    auto into = find(file, offset, s, std::nullopt);
    if (!into) {
      if (in) {
        entries_[*in].state = s;
        entries_[*in].slot = next_slot_++;
      } else {
        entries_.push_back(RefEntry{file, offset, bytes, stamp, s, next_slot_++});
      }
      return false;
    }
    RefEntry& w = entries_[*into];
    const bool incoming_newer = stamp > w.stamp;
    const Bytes& win = incoming_newer ? bytes : w.bytes;
    const Bytes& lose = incoming_newer ? w.bytes : bytes;
    Bytes merged = lose;
    merged.resize(std::max(win.size(), lose.size()));
    std::copy(win.begin(), win.end(), merged.begin());
    w.bytes = std::move(merged);
    w.stamp = std::max(w.stamp, stamp);
    if (in) erase(*in);
    return true;
  }

  [[nodiscard]] std::optional<std::size_t> find(u64 file, u64 offset, State s,
                                                std::optional<u64> stamp) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const RefEntry& e = entries_[i];
      if (e.file == file && e.offset == offset && e.state == s &&
          (!stamp || e.stamp == *stamp)) {
        return i;
      }
    }
    return std::nullopt;
  }
  void erase(std::size_t i) {
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  std::vector<RefEntry> entries_;
  u64 next_stamp_ = 1;
  u64 next_slot_ = 1;
};

struct Push {
  u64 file = 0;
  std::vector<DirtyLog::Extent> extents;
};

class DirtyLogDifferential : public ::testing::TestWithParam<u64> {
 protected:
  Bytes random_bytes(u64 n) {
    Bytes b(n);
    for (u8& v : b) v = static_cast<u8>(rng_() % 251 + 1);  // never zero: gaps stay visible
    return b;
  }
  u64 pick(u64 n) { return rng_() % n; }

  void check_agreement(int step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    for (u64 f = 0; f < kFiles; ++f) {
      for (u64 b = 0; b < kCheckedBlocks; ++b) {
        SCOPED_TRACE(::testing::Message() << "file " << f << " block " << b);
        auto got = log_.newest(f, b);
        auto want = ref_.newest(f, b);
        ASSERT_EQ(got.has_value(), want.has_value());
        EXPECT_EQ(log_.overlaps(f, b), want.has_value());
        if (got) {
          EXPECT_EQ(bytes_of(got->data), want->bytes);
          EXPECT_EQ(got->staged, want->staged);
        }
        if (ref_.all_states_overlap(f, b)) ++all_states_seen_;
      }
    }
    for (State s : {State::kQueued, State::kInFlight, State::kParked}) {
      EXPECT_EQ(log_.count(s), ref_.count(s));
    }
    EXPECT_EQ(log_.next_queued_file(), ref_.next_queued_file());
    EXPECT_EQ(log_.parked_files(), ref_.parked_files());
    auto oldest = log_.oldest_parked();
    const RefEntry* want = ref_.oldest_parked();
    ASSERT_EQ(oldest.has_value(), want != nullptr);
    if (oldest) {
      EXPECT_EQ(oldest->file, want->file);
      EXPECT_EQ(oldest->extent.offset, want->offset);
      EXPECT_EQ(oldest->extent.stamp, want->stamp);
      EXPECT_EQ(bytes_of(oldest->extent.data), want->bytes);
    }
  }

  Push take_push(u64 idx) {
    Push d = pushes_[idx];
    pushes_.erase(pushes_.begin() + static_cast<std::ptrdiff_t>(idx));
    return d;
  }

  void step(int i) {
    switch (pick(10)) {
      case 0:
      case 1: {  // stage a dirty block
        const u64 f = pick(kFiles);
        const u64 b = pick(kBlocks);
        Bytes bytes = random_bytes(1 + pick(kBlock));
        EXPECT_EQ(log_.stage(f, b, blob::make_bytes(bytes)), ref_.stage(f, b, bytes));
        break;
      }
      case 2: {  // take the first-queued file's extents for a push
        auto f = log_.next_queued_file();
        ASSERT_EQ(f, ref_.next_queued_file());
        if (!f) break;
        Push d{*f, log_.take(*f)};
        std::vector<RefEntry> want = ref_.take(*f);
        ASSERT_EQ(d.extents.size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k) {
          EXPECT_EQ(d.extents[k].offset, want[k].offset);
          EXPECT_EQ(d.extents[k].stamp, want[k].stamp);
          EXPECT_EQ(bytes_of(d.extents[k].data), want[k].bytes);
        }
        if (!d.extents.empty()) pushes_.push_back(std::move(d));
        break;
      }
      case 3: {  // a push's WRITE is acked: supersede older parked copies
        if (pushes_.empty()) break;
        const Push& d = pushes_[pick(pushes_.size())];
        const DirtyLog::Extent& x = d.extents[pick(d.extents.size())];
        EXPECT_EQ(log_.supersede(d.file, x),
                  ref_.supersede(d.file, x.offset, bytes_of(x.data), x.stamp));
        break;
      }
      case 4: {  // a push's COMMIT verified: settle it
        if (pushes_.empty()) break;
        Push d = take_push(pick(pushes_.size()));
        for (const auto& x : d.extents) {
          log_.settle(d.file, x);
          ref_.settle(d.file, x.offset, x.stamp);
        }
        break;
      }
      case 5: {  // a push failed outside an outage: requeue it
        if (pushes_.empty()) break;
        Push d = take_push(pick(pushes_.size()));
        for (const auto& x : d.extents) {
          log_.requeue(d.file, x);
          ref_.requeue(d.file, x.offset, bytes_of(x.data), x.stamp);
        }
        break;
      }
      case 6: {  // a push failed mid-outage: park it
        if (pushes_.empty()) break;
        Push d = take_push(pick(pushes_.size()));
        for (const auto& x : d.extents) {
          EXPECT_EQ(log_.park(d.file, x),
                    ref_.park(d.file, x.offset, bytes_of(x.data), x.stamp));
        }
        break;
      }
      case 7: {  // a raw, unaligned write fails mid-outage: park it
        const u64 f = pick(kFiles);
        const u64 off = pick(kBlocks * kBlock);
        Bytes bytes = random_bytes(1 + pick(kMaxRaw));
        const u64 stamp = log_.next_stamp();
        ASSERT_EQ(stamp, ref_.next_stamp());
        EXPECT_EQ(log_.park(f, DirtyLog::Extent{off, blob::make_bytes(bytes), stamp}),
                  ref_.park(f, off, bytes, stamp));
        break;
      }
      case 8: {  // a fresh write heads upstream: supersede older parked copies
        const u64 f = pick(kFiles);
        const u64 off = pick(kBlocks * kBlock);
        Bytes bytes = random_bytes(1 + pick(kMaxRaw));
        const u64 stamp = log_.next_stamp();
        ASSERT_EQ(stamp, ref_.next_stamp());
        EXPECT_EQ(log_.supersede(f, DirtyLog::Extent{off, blob::make_bytes(bytes), stamp}),
                  ref_.supersede(f, off, bytes, stamp));
        break;
      }
      case 9: {  // replay a few parked extents: oldest stamp first
        u64 last = 0;
        for (u64 n = 1 + pick(3); n > 0; --n) {
          auto w = log_.oldest_parked();
          const RefEntry* want = ref_.oldest_parked();
          ASSERT_EQ(w.has_value(), want != nullptr);
          if (!w) break;
          EXPECT_EQ(w->extent.stamp, want->stamp);
          EXPECT_GT(w->extent.stamp, last) << "replay order must ascend by stamp";
          last = w->extent.stamp;
          log_.unpark(w->file, w->extent);
          ref_.unpark(w->file, w->extent.offset, w->extent.stamp);
        }
        break;
      }
      default:
        break;
    }
    check_agreement(i);
  }

  std::mt19937_64 rng_{GetParam()};
  DirtyLog log_{kBlock};
  Reference ref_;
  std::vector<Push> pushes_;
  u64 all_states_seen_ = 0;
};

TEST_P(DirtyLogDifferential, AgreesWithLastStampWinsReference) {
  for (int i = 0; i < 1500; ++i) {
    step(i);
    if (HasFatalFailure()) return;
  }
  // The mix must reach the case no proxy test drives: queued, in-flight
  // and parked copies of one block at the same time.
  EXPECT_GT(all_states_seen_, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirtyLogDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace gvfs::proxy
