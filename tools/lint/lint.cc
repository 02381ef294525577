#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "lint/analyzer.h"
#include "lint/text.h"
#include "lint/yield_model.h"

namespace gvfs::lint {
namespace fs = std::filesystem;

// ------------------------------------------------------------ text prep --
// Shared with the yield analyzer via lint/text.h.

std::vector<std::string> strip_code(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  enum class S { kCode, kLineComment, kBlockComment, kString, kChar };
  S st = S::kCode;
  for (std::size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
      if (st == S::kLineComment) st = S::kCode;
      continue;
    }
    switch (st) {
      case S::kCode:
        if (c == '/' && next == '/') {
          st = S::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          st = S::kBlockComment;
          ++i;
        } else if (c == '"') {
          st = S::kString;
          cur += '"';
        } else if (c == '\'') {
          st = S::kChar;
          cur += '\'';
        } else {
          cur += c;
        }
        break;
      case S::kLineComment:
        break;
      case S::kBlockComment:
        if (c == '*' && next == '/') {
          st = S::kCode;
          ++i;
        }
        break;
      case S::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          st = S::kCode;
          cur += '"';
        }
        break;
      case S::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = S::kCode;
          cur += '\'';
        }
        break;
    }
  }
  lines.push_back(cur);
  return lines;
}

std::vector<std::string> split_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::stringstream ss(s);
  while (std::getline(ss, item, ',')) {
    std::size_t b = item.find_first_not_of(" \t");
    std::size_t e = item.find_last_not_of(" \t");
    if (b != std::string::npos) out.push_back(item.substr(b, e - b + 1));
  }
  return out;
}

// --------------------------------------------------------- suppressions --

Suppressions parse_suppressions(const std::vector<std::string>& raw_lines) {
  Suppressions sup;
  static const std::regex kAllow(R"(gvfs-lint:\s*allow\(([^)]*)\))");
  static const std::regex kFileAllow(R"(gvfs-lint:\s*file-allow\(([^)]*)\))");
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& text = raw_lines[i];
    std::smatch m;
    if (std::regex_search(text, m, kFileAllow)) {
      for (const std::string& r : split_csv(m[1].str())) {
        sup.file_allowed.insert(r);
      }
    } else if (std::regex_search(text, m, kAllow)) {
      int line = static_cast<int>(i) + 1;
      // A comment alone on its line shields the next line instead.
      std::size_t first = text.find_first_not_of(" \t");
      if (first != std::string::npos && text[first] == '/') ++line;
      for (const std::string& r : split_csv(m[1].str())) {
        sup.line_allowed[line].insert(r);
      }
    }
  }
  return sup;
}

bool path_starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

namespace {

// ------------------------------------------------------ path scoping ----

bool starts_with(const std::string& s, const std::string& prefix) {
  return path_starts_with(s, prefix);
}

bool is_header(const std::string& path) {
  return path.size() > 2 && path.rfind(".h") == path.size() - 2;
}

// Host clocks are the sim kernel's business alone.
bool clock_exempt(const std::string& path) { return starts_with(path, "src/sim/"); }

// Bench figure output, example demos and CLI tools legitimately print to
// stdout; libraries and tests never do.
bool print_sanctioned(const std::string& path) {
  return starts_with(path, "bench/") || starts_with(path, "tools/") ||
         starts_with(path, "examples/");
}

// Unordered iteration can feed BenchReport / simulated stdout from any
// library, bench, or CLI code path; tests only feed gtest.
bool unordered_scoped(const std::string& path) {
  return starts_with(path, "src/") || starts_with(path, "bench/") ||
         starts_with(path, "tools/");
}

// Counter members belong to library components; benches/tests/tools keep
// local tallies freely. The registry's own instrument storage is exempt.
bool counter_scoped(const std::string& path) {
  return starts_with(path, "src/") && path != "src/common/metrics.h";
}

// ------------------------------------------------------ token rules -----

struct TokenRule {
  const char* rule;
  std::regex pattern;
  const char* message;
  // Cheap substring gates: the regex only runs on lines containing one of
  // these. std::regex costs microseconds per line; a find() costs nanoseconds
  // — this is what keeps the whole-tree walk inside its wall-clock budget.
  std::vector<const char*> any_of;

  [[nodiscard]] bool gated_out(const std::string& line) const {
    if (any_of.empty()) return false;
    for (const char* s : any_of) {
      if (line.find(s) != std::string::npos) return false;
    }
    return true;
  }
};

const std::vector<TokenRule>& rng_rules() {
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> v;
    v.push_back({"determinism-rng", std::regex(R"(\brandom_device\b)"),
                 "host entropy source; use a seeded SplitMix64 (common/rng.h)",
                 {"random_device"}});
    v.push_back({"determinism-rng", std::regex(R"((^|[^:\w.])s?rand\s*\()"),
                 "C PRNG breaks bit-identical replays; use SplitMix64",
                 {"rand"}});
    v.push_back({"determinism-rng", std::regex(R"(\b[dlm]rand48\s*\()"),
                 "C PRNG breaks bit-identical replays; use SplitMix64",
                 {"rand48"}});
    v.push_back({"determinism-rng", std::regex(R"((^|[^:\w.])random\s*\(\s*\))"),
                 "C PRNG breaks bit-identical replays; use SplitMix64",
                 {"random"}});
    return v;
  }();
  return kRules;
}

const std::vector<TokenRule>& clock_rules() {
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> v;
    v.push_back({"determinism-clock",
                 std::regex(R"(\b(system_clock|steady_clock|high_resolution_clock)\b)"),
                 "host clock outside src/sim/; simulated code observes virtual time only",
                 {"_clock"}});
    v.push_back({"determinism-clock",
                 std::regex(R"(\b(gettimeofday|clock_gettime|timespec_get)\s*\()"),
                 "host clock outside src/sim/; simulated code observes virtual time only",
                 {"gettimeofday", "clock_gettime", "timespec_get"}});
    v.push_back({"determinism-clock",
                 std::regex(R"((^|[^:\w.>])(time|clock)\s*\(\s*(NULL|nullptr|0)?\s*\))"),
                 "host clock outside src/sim/; simulated code observes virtual time only",
                 {"time", "clock"}});
    return v;
  }();
  return kRules;
}

// Raw integer members with counter-style names (`u64 hits_`) bypass the
// metrics registry: they cannot be snapshotted into BENCH_*.json and drift
// back into the scattered ad-hoc stats the registry replaced. Components
// declare metrics::Counter/Gauge/Histogram and register them instead. The
// registry's own storage (src/common/metrics.h) is exempt by path.
const std::vector<TokenRule>& counter_rules() {
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> v;
    v.push_back(
        {"raw-counter",
         std::regex(
             R"(\b(u32|u64|i32|i64|std::size_t|size_t|unsigned)\s+\w*)"
             R"((hits|misses|evictions|retransmits|timeouts|collisions)"
             R"(|inserts|writebacks|transfers|fetches|uploads|absorbed)"
             R"(|prefetched|filtered|replayed)_\s*[={;])"),
         "raw member counter outside the metrics registry; declare a "
         "metrics::Counter/Gauge/Histogram and register_metrics() it",
         {"hits_", "misses_", "evictions_", "retransmits_", "timeouts_",
          "collisions_", "inserts_", "writebacks_", "transfers_", "fetches_",
          "uploads_", "absorbed_", "prefetched_", "filtered_", "replayed_"}});
    return v;
  }();
  return kRules;
}

// Topology code must build origin NfsServers through the Testbed cluster
// factory (Testbed::make_origin_server_): it is the single site that applies
// the shared server config and per-origin crash/restart wiring. A direct
// construction in src/gvfs/ silently skips both. The factory itself carries
// a `// gvfs-lint: allow(cluster-factory)` annotation.
const std::vector<TokenRule>& cluster_factory_rules() {
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> v;
    v.push_back(
        {"cluster-factory",
         std::regex(R"(\b(make_unique\s*<\s*(nfs::)?NfsServer\b|new\s+(nfs::)?NfsServer\b))"),
         "direct NfsServer construction in topology code; route through the "
         "Testbed cluster factory (make_origin_server_) so server config and "
         "restart wiring stay uniform",
         {"NfsServer"}});
    return v;
  }();
  return kRules;
}

bool cluster_factory_scoped(const std::string& path) {
  return starts_with(path, "src/gvfs/");
}

// The block cache's frame payloads participate in the content-dedup store:
// each assignment must route through set_frame_data_()/release_frame_data_()
// so the store refcount, the frame's shared flag, and the resident_bytes
// gauge move together. A direct `.data =` (or `.reset()`) silently corrupts
// dedup accounting and skips the copy-on-write split. The helpers' own
// assignment sites carry `// gvfs-lint: allow(frame-data-mutation)`.
const std::vector<TokenRule>& frame_data_rules() {
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> v;
    v.push_back(
        {"frame-data-mutation",
         std::regex(R"([\w\])]\s*(\.|->)\s*data\s*(=[^=]|\.\s*reset\s*\())"),
         "direct frame-payload mutation bypasses the CoW split helper "
         "(set_frame_data_/release_frame_data_); dedup refcounts and "
         "resident_bytes drift",
         {"data"}});
    return v;
  }();
  return kRules;
}

bool frame_data_scoped(const std::string& path) {
  return starts_with(path, "src/cache/block_cache");
}

// The server's lease table is the single source of truth for grant/recall
// ordering: every mutation must route through the sanctioned helpers
// (lease_add_holder_/lease_remove_holder_/lease_expire_holders_/clear_leases)
// so the expiry sweep, recall re-arm flag, and grant log move together. A
// direct `leases_[...]` or container-level erase/insert silently desyncs the
// recall state machine. The helpers' own sites carry
// a `// gvfs-lint: allow(lease-table-mutation)` annotation.
const std::vector<TokenRule>& lease_table_rules() {
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> v;
    v.push_back(
        {"lease-table-mutation",
         std::regex(
             R"(\bleases_\s*(\[|\.\s*(erase|emplace|insert|clear|try_emplace|insert_or_assign)\s*\())"),
         "direct lease-table mutation bypasses the sanctioned helpers "
         "(lease_add_holder_/lease_remove_holder_/lease_expire_holders_/"
         "clear_leases); recall re-arm and grant ordering drift",
         {"leases_"}});
    return v;
  }();
  return kRules;
}

bool lease_table_scoped(const std::string& path) {
  return starts_with(path, "src/nfs/nfs_server");
}

// A client proxy drops one file's cached state in exactly one place,
// GvfsProxy::forget_file_, which its callers reach only after writing the
// file's dirty bytes back (write_back_). A direct frame, whole-file or attr
// drop elsewhere can discard acknowledged writes, or forget part of a file
// and keep the rest. forget_file_'s own sites, and the few drops that are
// not a file drop (capacity eviction, write-through frame coherence), carry
// a `// gvfs-lint: allow(per-file-drop)` annotation.
const std::vector<TokenRule>& per_file_drop_rules() {
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> v;
    v.push_back(
        {"per-file-drop",
         std::regex(
             R"((\bblock_cache_\s*->\s*invalidate_file|\bfile_cache_\s*->\s*invalidate|\battr_cache_\s*\.\s*erase)\s*\()"),
         "per-file cache drop outside GvfsProxy::forget_file_; write the "
         "file back (write_back_) and forget it there, or acked bytes and "
         "half the file's state drift apart",
         {"invalidate", "erase"}});
    return v;
  }();
  return kRules;
}

bool per_file_drop_scoped(const std::string& path) {
  return path == "src/proxy/gvfs_proxy.cc";
}

const std::vector<TokenRule>& print_rules() {
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> v;
    v.push_back({"stdout-print", std::regex(R"(std::cout\b)"),
                 "direct stdout outside the sanctioned bench/CLI print sites; "
                 "log via GVFS_* (stderr) instead",
                 {"cout"}});
    v.push_back({"stdout-print", std::regex(R"((^|[^\w.>])(printf|puts|putchar)\s*\()"),
                 "direct stdout outside the sanctioned bench/CLI print sites; "
                 "log via GVFS_* (stderr) instead",
                 {"printf", "puts", "putchar"}});
    return v;
  }();
  return kRules;
}

void apply_token_rules(const std::vector<TokenRule>& rules,
                       const std::vector<std::string>& code_lines,
                       const Suppressions& sup, const std::string& path,
                       std::vector<Finding>* out) {
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    int line = static_cast<int>(i) + 1;
    for (const TokenRule& r : rules) {
      if (r.gated_out(code_lines[i])) continue;
      if (sup.allowed(r.rule, line)) continue;
      if (std::regex_search(code_lines[i], r.pattern)) {
        out->push_back({path, line, r.rule, r.message});
      }
    }
  }
}

// ------------------------------------------- unordered-iteration rule ---

// Names of variables/members declared as unordered containers. Balances
// template angle brackets so nested parameters don't confuse the capture.
std::set<std::string> unordered_decl_names(const std::vector<std::string>& code_lines) {
  std::set<std::string> names;
  static const std::regex kDecl(R"(\bunordered_(map|set|multimap|multiset)\s*<)");
  for (const std::string& text : code_lines) {
    if (text.find("unordered_") == std::string::npos) continue;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kDecl);
         it != std::sregex_iterator(); ++it) {
      std::size_t pos = static_cast<std::size_t>(it->position()) + it->length();
      int depth = 1;
      while (pos < text.size() && depth > 0) {
        if (text[pos] == '<') ++depth;
        if (text[pos] == '>') --depth;
        ++pos;
      }
      // Skip refs/pointers/whitespace, then capture the declared name.
      while (pos < text.size() &&
             (std::isspace(static_cast<unsigned char>(text[pos])) != 0 ||
              text[pos] == '&' || text[pos] == '*')) {
        ++pos;
      }
      std::string name;
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) != 0 ||
              text[pos] == '_')) {
        name += text[pos++];
      }
      if (!name.empty()) names.insert(name);
    }
  }
  return names;
}

void apply_unordered_rule(const std::vector<std::string>& code_lines,
                          const std::set<std::string>& decls,
                          const Suppressions& sup, const std::string& path,
                          std::vector<Finding>* out) {
  if (decls.empty()) return;
  // Range-for over a declared unordered container (last path component of
  // the range expression), or an explicit .begin()/.cbegin() walk.
  static const std::regex kRangeFor(R"(\bfor\s*\([^;)]*:\s*([A-Za-z_][\w.\->]*)\s*\))");
  static const std::regex kBegin(R"(\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\()");
  auto last_component = [](std::string expr) {
    std::size_t dot = expr.find_last_of('.');
    std::size_t arrow = expr.rfind("->");
    std::size_t cut = std::string::npos;
    if (dot != std::string::npos) cut = dot + 1;
    if (arrow != std::string::npos && (cut == std::string::npos || arrow + 2 > cut)) {
      cut = arrow + 2;
    }
    return cut == std::string::npos ? expr : expr.substr(cut);
  };
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    int line = static_cast<int>(i) + 1;
    if (sup.allowed("unordered-iteration", line)) continue;
    const std::string& text = code_lines[i];
    std::smatch m;
    bool hit = false;
    if (text.find("for") != std::string::npos &&
        std::regex_search(text, m, kRangeFor) &&
        decls.count(last_component(m[1].str())) != 0) {
      hit = true;
    }
    if (!hit && text.find("begin") != std::string::npos &&
        std::regex_search(text, m, kBegin) && decls.count(m[1].str()) != 0) {
      hit = true;
    }
    if (hit) {
      out->push_back({path, line, "unordered-iteration",
                      "iteration order of an unordered container is "
                      "hash-seed dependent; sort first, use an ordered "
                      "container, or annotate why order cannot escape"});
    }
  }
}

// ------------------------------------------------------- tree walking ---

bool lintable_source(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

bool skip_dir(const fs::path& p) {
  std::string name = p.filename().string();
  return name == "lint_fixtures" || starts_with(name, "build") ||
         name == ".git";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      "determinism-rng",  "determinism-clock",  "unordered-iteration",
      "stdout-print",     "raw-counter",        "header-guard",
      "cmake-registration", "cluster-factory",  "frame-data-mutation",
      "lease-table-mutation", "per-file-drop",
      "yield-stale-ref",  "yield-index-loop",   "yield-held-lock"};
  return kRules;
}

std::string to_string(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

std::vector<Finding> lint_content(const std::string& path,
                                  const std::string& content,
                                  const std::string& sibling_header) {
  std::vector<Finding> out;
  std::vector<std::string> raw = split_lines(content);
  std::vector<std::string> code = strip_code(content);
  Suppressions sup = parse_suppressions(raw);

  apply_token_rules(rng_rules(), code, sup, path, &out);
  if (!clock_exempt(path)) {
    apply_token_rules(clock_rules(), code, sup, path, &out);
  }
  if (!print_sanctioned(path)) {
    apply_token_rules(print_rules(), code, sup, path, &out);
  }
  if (counter_scoped(path)) {
    apply_token_rules(counter_rules(), code, sup, path, &out);
  }
  if (cluster_factory_scoped(path)) {
    apply_token_rules(cluster_factory_rules(), code, sup, path, &out);
  }
  if (frame_data_scoped(path)) {
    apply_token_rules(frame_data_rules(), code, sup, path, &out);
  }
  if (lease_table_scoped(path)) {
    apply_token_rules(lease_table_rules(), code, sup, path, &out);
  }
  if (per_file_drop_scoped(path)) {
    apply_token_rules(per_file_drop_rules(), code, sup, path, &out);
  }
  if (unordered_scoped(path)) {
    std::set<std::string> decls = unordered_decl_names(code);
    if (!sibling_header.empty()) {
      std::set<std::string> extra = unordered_decl_names(strip_code(sibling_header));
      decls.insert(extra.begin(), extra.end());
    }
    apply_unordered_rule(code, decls, sup, path, &out);
  }
  if (is_header(path) && !sup.allowed("header-guard", 1) &&
      content.find("#pragma once") == std::string::npos) {
    out.push_back({path, 1, "header-guard", "header is missing #pragma once"});
  }
  return out;
}

namespace {

// One walk, one read per file: source contents keyed by repo-relative path,
// CMakeLists contents keyed by directory. Sibling-header lookups and the
// yield model reuse the same cache instead of re-reading from disk.
struct TreeFiles {
  std::vector<fs::path> files;                     // sorted absolute paths
  std::map<std::string, std::string> contents;     // rel path -> content
  std::map<std::string, std::string> cmake_content;  // rel dir -> content
  fs::path base;
};

TreeFiles collect_tree(const std::string& root) {
  TreeFiles t;
  t.base = fs::path(root);
  std::vector<fs::path> cmake_files;
  for (const char* top : {"src", "bench", "tests", "tools", "examples"}) {
    fs::path dir = t.base / top;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory()) {
        if (skip_dir(it->path())) it.disable_recursion_pending();
        continue;
      }
      if (lintable_source(it->path())) t.files.push_back(it->path());
      if (it->path().filename() == "CMakeLists.txt") {
        cmake_files.push_back(it->path());
      }
    }
  }
  std::sort(t.files.begin(), t.files.end());
  std::sort(cmake_files.begin(), cmake_files.end());
  for (const fs::path& p : t.files) {
    t.contents[fs::relative(p, t.base).generic_string()] = read_file(p);
  }
  for (const fs::path& p : cmake_files) {
    t.cmake_content[fs::relative(p.parent_path(), t.base).generic_string()] =
        read_file(p);
  }
  return t;
}

// The call graph is built over src/ — the simulation libraries whose
// functions the yield rules reason about.
YieldModel build_src_model(const TreeFiles& t) {
  std::vector<std::pair<std::string, std::string>> inputs;
  for (const auto& [rel, content] : t.contents) {
    if (path_starts_with(rel, "src/")) inputs.push_back({rel, content});
  }
  return YieldModel::build(inputs);
}

}  // namespace

std::vector<Finding> lint_tree(const std::string& root) {
  std::vector<Finding> out;
  TreeFiles tree = collect_tree(root);
  const fs::path& base = tree.base;
  const std::map<std::string, std::string>& cmake_content = tree.cmake_content;
  YieldModel model = build_src_model(tree);

  for (const fs::path& p : tree.files) {
    std::string rel = fs::relative(p, base).generic_string();
    const std::string& content = tree.contents.at(rel);
    std::string sibling;
    if (p.extension() == ".cc" || p.extension() == ".cpp") {
      fs::path header = p;
      header.replace_extension(".h");
      auto sib = tree.contents.find(
          fs::relative(header, base).generic_string());
      if (sib != tree.contents.end()) sibling = sib->second;
    }
    std::vector<Finding> found = lint_content(rel, content, sibling);
    out.insert(out.end(), found.begin(), found.end());
    if (yield_rules_scoped(rel)) {
      std::vector<Finding> yf = analyze_content(rel, content, model);
      out.insert(out.end(), yf.begin(), yf.end());
    }

    // cmake-registration: compilation units must be named in their own or
    // an ancestor directory's CMakeLists.txt to be part of the build.
    if (p.extension() == ".cc" || p.extension() == ".cpp") {
      // Registered = the filename or its stem appears in an ancestor
      // CMakeLists.txt (tests/bench register by stem via helper functions).
      std::string name = p.filename().string();
      std::string stem = p.stem().string();
      bool registered = false;
      fs::path dir = fs::relative(p.parent_path(), base);
      for (fs::path d = dir;; d = d.parent_path()) {
        auto it = cmake_content.find(d.generic_string());
        if (it != cmake_content.end() &&
            (it->second.find(name) != std::string::npos ||
             it->second.find(stem) != std::string::npos)) {
          registered = true;
          break;
        }
        if (d.empty() || d == d.parent_path()) break;
      }
      if (!registered) {
        out.push_back({rel, 1, "cmake-registration",
                       "source file is not referenced by any CMakeLists.txt "
                       "on its directory path"});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<std::string> tree_yield_model(const std::string& root) {
  return build_src_model(collect_tree(root)).golden_lines();
}

}  // namespace gvfs::lint
