#include "timing_session.h"

namespace perfbench {

using gvfs::Result;
using gvfs::Status;
using gvfs::u64;
namespace sim = gvfs::sim;
namespace vfs = gvfs::vfs;
namespace blob = gvfs::blob;

const char* op_class_name(OpClass c) {
  switch (c) {
    case OpClass::kRead: return "read";
    case OpClass::kWrite: return "write";
    case OpClass::kStat: return "stat";
    case OpClass::kMeta: return "meta";
    case OpClass::kFlush: return "flush";
  }
  return "?";
}

u64 OpLog::calls() const {
  u64 n = 0;
  for (const auto& v : sim_ms) n += v.size();
  return n;
}

std::vector<double> OpLog::all_sim_ms() const {
  std::vector<double> all;
  all.reserve(calls());
  for (const auto& v : sim_ms) all.insert(all.end(), v.begin(), v.end());
  return all;
}

Result<std::set<std::tuple<std::string, u64, u64>>> WriteShadow::replay(
    vfs::MemFs& fs) const {
  std::set<std::tuple<std::string, u64, u64>> ranges;
  for (const Write& w : writes) {
    u64 len = w.data ? w.data->size() : 0;
    if (len == 0) continue;
    auto id = fs.resolve(w.path);
    if (!id.is_ok()) id = fs.put_file(w.path, blob::make_zero(0));
    if (!id.is_ok()) return id.status();
    GVFS_RETURN_IF_ERROR(fs.write_blob(*id, w.offset, w.data, 0, len));
    ranges.emplace(w.path, w.offset, len);
  }
  return ranges;
}

namespace {

SpanKind span_kind(OpClass c) {
  switch (c) {
    case OpClass::kRead: return SpanKind::kFsRead;
    case OpClass::kWrite: return SpanKind::kFsWrite;
    case OpClass::kStat: return SpanKind::kFsStat;
    case OpClass::kMeta: return SpanKind::kFsMeta;
    case OpClass::kFlush: return SpanKind::kFsFlush;
  }
  return SpanKind::kFsMeta;
}

}  // namespace

template <typename Call>
auto TimingSession::timed_(sim::Process& p, OpClass c, Call&& call) -> decltype(call()) {
  auto idx = static_cast<std::size_t>(c);
  gvfs::SimTime t0 = p.now();
  std::uint32_t span = spans_ != nullptr ? spans_->begin(p, span_kind(c), group_) : 0;
  auto result = call();
  if (spans_ != nullptr) {
    log_.host_self_us[idx].push_back(static_cast<double>(spans_->end(p, span)) * 1e-3);
  }
  log_.sim_ms[idx].push_back(static_cast<double>(p.now() - t0) * 1e-6);
  if (!result.is_ok()) ++log_.failed;
  return result;
}

Result<vfs::Attr> TimingSession::stat(sim::Process& p, const std::string& path) {
  return timed_(p, OpClass::kStat, [&] { return inner_.stat(p, path); });
}

Result<blob::BlobRef> TimingSession::read(sim::Process& p, const std::string& path,
                                          u64 offset, u64 len) {
  auto r = timed_(p, OpClass::kRead, [&] { return inner_.read(p, path, offset, len); });
  if (r.is_ok() && *r) log_.bytes_read += (*r)->size();
  return r;
}

Status TimingSession::write(sim::Process& p, const std::string& path, u64 offset,
                            blob::BlobRef data) {
  Status st = timed_(p, OpClass::kWrite, [&] { return inner_.write(p, path, offset, data); });
  if (st.is_ok() && data) {
    log_.bytes_written += data->size();
    if (shadow_ != nullptr) shadow_->record(path, offset, data);
  }
  return st;
}

Status TimingSession::create(sim::Process& p, const std::string& path) {
  return timed_(p, OpClass::kMeta, [&] { return inner_.create(p, path); });
}

Status TimingSession::mkdirs(sim::Process& p, const std::string& path) {
  return timed_(p, OpClass::kMeta, [&] { return inner_.mkdirs(p, path); });
}

Status TimingSession::remove(sim::Process& p, const std::string& path) {
  return timed_(p, OpClass::kMeta, [&] { return inner_.remove(p, path); });
}

Status TimingSession::truncate(sim::Process& p, const std::string& path, u64 size) {
  return timed_(p, OpClass::kMeta, [&] { return inner_.truncate(p, path, size); });
}

Status TimingSession::symlink(sim::Process& p, const std::string& link_path,
                              const std::string& target) {
  return timed_(p, OpClass::kMeta, [&] { return inner_.symlink(p, link_path, target); });
}

Status TimingSession::hard_link(sim::Process& p, const std::string& existing,
                                const std::string& link_path) {
  return timed_(p, OpClass::kMeta,
                [&] { return inner_.hard_link(p, existing, link_path); });
}

Result<std::vector<vfs::DirEntry>> TimingSession::list(sim::Process& p,
                                                       const std::string& path) {
  return timed_(p, OpClass::kMeta, [&] { return inner_.list(p, path); });
}

Status TimingSession::flush(sim::Process& p) {
  Status st = timed_(p, OpClass::kFlush, [&] { return inner_.flush(p); });
  if (st.is_ok() && after_flush_) return after_flush_(p);
  return st;
}

}  // namespace perfbench
