// DirtyLog: the one store of a client proxy's not-yet-durable bytes
// (DESIGN.md §5.5). Dirty cache blocks leaving the block cache and write-
// backs that failed during an outage both live here, one per-file log of
// extents. Each extent carries its bytes, its offset and a write stamp from
// the log's own counter (a per-write Lamport clock; the sim is cooperative,
// so a plain counter is exact), and sits in one state:
//
//   stage ──> queued ──take──> in_flight ──settle──> (erased)
//               ^                 │  │
//               └────requeue──────┘  └──park──> parked ──unpark──> (erased)
//                                          raw park ──┘
//
// Recency is decided by stamp, never by container position: reads assemble
// overlapping extents oldest stamp first, replay goes oldest stamp first,
// and a newer write heading upstream drops or patches older parked copies
// (supersede). The log never yields — it takes no sim::Process — so every
// operation is atomic with respect to the proxy's fibers; the RPCs that move
// extents between states stay in GvfsProxy.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "blob/blob.h"
#include "common/mutation_epoch.h"
#include "common/types.h"

namespace gvfs::proxy {

class DirtyLog {
 public:
  enum class State : u8 { kQueued, kInFlight, kParked };

  // A copy of one logged extent, as a push or replay sends it.
  struct Extent {
    u64 offset = 0;
    blob::BlobRef data;
    u64 stamp = 0;
    [[nodiscard]] u64 size() const { return data ? data->size() : 0; }
    [[nodiscard]] u64 end() const { return offset + size(); }
  };
  struct FileExtent {
    u64 file = 0;
    Extent extent;
  };
  // A block's newest logged bytes; `staged` says a queued or in-flight
  // extent contributed (the async flusher still owns them).
  struct Newest {
    blob::BlobRef data;
    bool staged = false;
  };

  explicit DirtyLog(u64 block_size) : block_size_(block_size) {}

  // A stamp for a write that heads upstream outside the log (synchronous
  // write-back); parking it later keeps its place in recency order.
  u64 next_stamp() { return next_stamp_++; }

  // Queue a dirty cache block under a fresh stamp, superseding older parked
  // copies of its range. Returns the number of parked extents superseded.
  // An extent entering the queue or the parked set coalesces with the one
  // already there at its offset, which keeps its queue slot: the higher
  // stamp's bytes win, and a shorter winner keeps the loser's tail.
  u64 stage(u64 file, u64 block, blob::BlobRef data);
  // The file whose queued extents were queued first (nullopt: none queued).
  [[nodiscard]] std::optional<u64> next_queued_file() const;
  // Move all of a file's queued extents in flight, in queue order.
  std::vector<Extent> take(u64 file);
  // Bytes stamped `e.stamp` are heading upstream: parked extents of the
  // file no newer than them are dropped when fully covered, patched when
  // partly. Returns the number of parked extents dropped or patched.
  u64 supersede(u64 file, const Extent& e);
  // A push landed (COMMIT verified): its in-flight extent is durable.
  void settle(u64 file, const Extent& e);
  // A push failed: its in-flight extent goes back to the end of the queue,
  // or coalesces into the block's newer queued copy.
  void requeue(u64 file, const Extent& e) { put_(file, e, State::kQueued); }
  // Park an extent for replay: a push's in-flight extent, or a raw write
  // that failed during an outage. Returns true if it coalesced.
  bool park(u64 file, const Extent& e) { return put_(file, e, State::kParked); }
  // Replay landed: drop the parked extent unless a coalesce re-stamped it.
  void unpark(u64 file, const Extent& e);

  // The block's bytes, newest stamp winning: the newest overlapping
  // extent as-is when it spans everything logged in the block, else the
  // overlaps assembled oldest stamp first (gaps read as zeros).
  [[nodiscard]] std::optional<Newest> newest(u64 file, u64 block) const;
  [[nodiscard]] bool overlaps(u64 file, u64 block) const;
  [[nodiscard]] std::optional<FileExtent> oldest_parked() const;
  // Files with parked extents, ascending.
  [[nodiscard]] std::vector<u64> parked_files() const;
  [[nodiscard]] std::size_t count(State s) const;

 private:
  struct Entry {
    Extent x;
    State state = State::kQueued;
    u64 slot = 0;  // queue position, for ordering queued entries
  };
  struct FileLog {
    std::multimap<u64, Entry> by_offset;
    u64 queued_since = 0;  // smallest queued slot; 0 = nothing queued
  };
  using Iter = std::multimap<u64, Entry>::iterator;

  // The first entry that can reach offset `lo`: no extent is longer than
  // max_extent_.
  template <typename Map>
  auto scan_from_(Map& m, u64 lo) const {
    return m.lower_bound(lo > max_extent_ ? lo - max_extent_ : 0);
  }
  // The file's entry at `offset` in state `s` (with `stamp`, if given).
  static Iter find_(FileLog& f, u64 offset, State s,
                    std::optional<u64> stamp = std::nullopt);
  // Move `e` into state `s` (its in-flight entry, if it has one), coalescing
  // with the entry already in `s` at its offset. True if it coalesced.
  bool put_(u64 file, const Extent& e, State s);
  // Erase the file's entry at e.offset in state `s` carrying e.stamp.
  void retire_(u64 file, const Extent& e, State s);
  // Drop the file's record once its last entry is gone.
  void forget_if_empty_(u64 file);

  u64 block_size_;
  u64 next_stamp_ = 1;
  u64 next_slot_ = 1;  // queue positions: a new queued entry goes last
  u64 max_extent_ = 0;
  std::map<u64, FileLog> files_;
  // Bumped on every entry insert/erase; the YieldGuards in the readers
  // assert no fiber switched while they hold raw entry pointers.
  MutationEpoch epoch_;
};

}  // namespace gvfs::proxy
