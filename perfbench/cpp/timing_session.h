// A timing vfs::FsSession decorator. The benchmark puts one around
// Testbed::image_session() and hands it to VmMonitor::attach /
// VmCloner::clone, exactly where core::prepare_vm hands over the bare
// session, so every call a VMM makes on its host mount passes through it.
//
// Per call it records the virtual latency (always) and, when a SpanLog is
// attached, a span whose self time is the caller's host time while it was
// dispatched. Calls are grouped into five classes: read, write, stat,
// meta (create, remove, truncate, mkdirs, symlink, hard_link, list) and
// flush.
#pragma once

#include <array>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "trace.h"
#include "vfs/fs_session.h"
#include "vfs/memfs.h"

namespace perfbench {

enum class OpClass : std::uint8_t { kRead, kWrite, kStat, kMeta, kFlush };
inline constexpr std::size_t kOpClasses = 5;

const char* op_class_name(OpClass c);

// Everything the decorators of one run saw, summed over sessions.
struct OpLog {
  std::array<std::vector<double>, kOpClasses> sim_ms;        // per call
  std::array<std::vector<double>, kOpClasses> host_self_us;  // traced runs only
  gvfs::u64 failed = 0;
  gvfs::u64 bytes_read = 0;
  gvfs::u64 bytes_written = 0;

  [[nodiscard]] gvfs::u64 calls() const;
  [[nodiscard]] std::vector<double> all_sim_ms() const;
};

// Every write made through a session, in order. After the timed region
// the writes are replayed into a MemFs shadow, and after the final
// write-back the origin's bytes for the written ranges must match it.
struct WriteShadow {
  struct Write {
    std::string path;
    gvfs::u64 offset;
    gvfs::blob::BlobRef data;
  };
  std::vector<Write> writes;

  void record(const std::string& path, gvfs::u64 offset, gvfs::blob::BlobRef data) {
    writes.push_back({path, offset, std::move(data)});
  }
  // Replay into `fs`; returns the distinct (path, offset, len) ranges written.
  gvfs::Result<std::set<std::tuple<std::string, gvfs::u64, gvfs::u64>>> replay(
      gvfs::vfs::MemFs& fs) const;
};

class TimingSession final : public gvfs::vfs::FsSession {
 public:
  // `spans` may be null (untraced run); `shadow` may be null (no
  // write-back check).
  TimingSession(gvfs::vfs::FsSession& inner, OpLog& log, SpanLog* spans,
                std::uint32_t group, WriteShadow* shadow = nullptr)
      : inner_(inner), log_(log), spans_(spans), group_(group), shadow_(shadow) {}

  // Run `hook` in the calling process after every successful flush().
  void set_after_flush(std::function<gvfs::Status(gvfs::sim::Process&)> hook) {
    after_flush_ = std::move(hook);
  }

  gvfs::Result<gvfs::vfs::Attr> stat(gvfs::sim::Process& p, const std::string& path) override;
  gvfs::Result<gvfs::blob::BlobRef> read(gvfs::sim::Process& p, const std::string& path,
                                         gvfs::u64 offset, gvfs::u64 len) override;
  gvfs::Status write(gvfs::sim::Process& p, const std::string& path, gvfs::u64 offset,
                     gvfs::blob::BlobRef data) override;
  gvfs::Status create(gvfs::sim::Process& p, const std::string& path) override;
  gvfs::Status mkdirs(gvfs::sim::Process& p, const std::string& path) override;
  gvfs::Status remove(gvfs::sim::Process& p, const std::string& path) override;
  gvfs::Status truncate(gvfs::sim::Process& p, const std::string& path,
                        gvfs::u64 size) override;
  gvfs::Status symlink(gvfs::sim::Process& p, const std::string& link_path,
                       const std::string& target) override;
  gvfs::Status hard_link(gvfs::sim::Process& p, const std::string& existing,
                         const std::string& link_path) override;
  gvfs::Result<std::vector<gvfs::vfs::DirEntry>> list(gvfs::sim::Process& p,
                                                      const std::string& path) override;
  gvfs::Status flush(gvfs::sim::Process& p) override;

 private:
  template <typename Call>
  auto timed_(gvfs::sim::Process& p, OpClass c, Call&& call) -> decltype(call());

  gvfs::vfs::FsSession& inner_;
  OpLog& log_;
  SpanLog* spans_;
  std::uint32_t group_;
  WriteShadow* shadow_;
  std::function<gvfs::Status(gvfs::sim::Process&)> after_flush_;
};

}  // namespace perfbench
