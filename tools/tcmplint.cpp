// tcmplint — repo-specific static analysis for rules generic clang-tidy
// cannot express. Exits nonzero when any rule fires; every finding is
// printed as `path:line: [rule] message` so editors can jump to it.
//
// Rules (select one with --rule, default all):
//   raw-unit          raw double/uint64_t declarations in src/ headers whose
//                     name carries a unit or identity suffix for which a
//                     strong type exists (units.hpp Quantity / types.hpp
//                     tags). Escape hatch: a `tcmplint: allow-raw-unit`
//                     comment on the same line (used at config boundaries
//                     that deliberately keep the paper's mm/raw units).
//   msgtype-tables    every MsgType enumerator must appear in the wire
//                     classification tables (protocol/coherence_msg.cpp) and
//                     the verifier spec table (verify/wire_check.cpp), and
//                     kNumMsgTypes must equal the enumerator count.
//   stat-registration ScalarStat/Histogram constructed as plain members or
//                     locals bypass StatRegistry and never reach reports.
//                     Escape hatch: `tcmplint: allow-local-stat`.
//   stat-string-hot-path string-keyed StatRegistry lookups (`counter("`,
//                     `scalar("`, `histogram("`) outside constructors /
//                     init functions in the hot-path directories
//                     (protocol, noc, het, core, cmp, obs, verify): stats
//                     must be resolved once via the *_ref handles at
//                     construction and bumped through the handle (see the
//                     hot-path contract in common/stats.hpp). Escape
//                     hatch: `tcmplint: allow-stat-string`.
//   obs-emit-interned per-event telemetry emit sites in the hot-path
//                     directories must bump through handles interned at init
//                     time: a `counter_ref("`, `scalar_ref("` or
//                     `histogram_ref("` call with an inline string literal
//                     outside constructors / init functions re-resolves the
//                     name on every event — exactly the map walk the _ref
//                     API exists to avoid. Escape hatch:
//                     `tcmplint: allow-string-emit`.
//   scheduled-contract a header under src/ declaring a per-cycle `tick(Cycle)`
//                     entry point must also declare the sim::Scheduled
//                     contract (`next_event(` and `quiescent(`) — otherwise
//                     the event kernel cannot see the component's work and
//                     dead-cycle skipping would silently drop its ticks.
//                     Escape hatch: `tcmplint: allow-unscheduled-tick` (for
//                     components ticked outside CmpSystem's kernel loop).
//   mutable-static    no non-const static-duration locals / class statics in
//                     src/: a mutable static is shared state every sweep
//                     worker thread can reach, invisible to the per-tile
//                     ownership story partitioning depends on. `static
//                     const`/`static constexpr` (immutable after once-init)
//                     and `static std::atomic<...>` are allowed. Escape
//                     hatch: `tcmplint: allow-mutable-static` (reserved for
//                     mutex-guarded singletons such as the abort-hook
//                     registry).
//   guarded-field     in any class holding a Mutex/std::mutex member, every
//                     sibling data member must carry TCMP_GUARDED_BY(<mu>)
//                     (common/sync.hpp) so Clang's -Wthread-safety can prove
//                     the locking discipline. Escape hatch:
//                     `tcmplint: allow-unguarded-field`.
//   tile-escape       raw pointers/references to tile-owned component types
//                     (L1Cache, ICache, Directory, Core, TileNic) must not
//                     escape outside the sanctioned seams: a type's own
//                     translation unit, the same-tile collaborator edges
//                     (core/ -> L1Cache/ICache), SimKernel registration
//                     (`add_component(`), and constructor wiring. This is
//                     the invariant Graphite-style mesh partitioning
//                     (ROADMAP item 1) depends on: cross-tile interaction
//                     flows through the NIC/message seam, never through a
//                     cached raw pointer. Escape hatch:
//                     `tcmplint: tile-seam` (each use documents a partition
//                     boundary the multi-threaded kernel must cut). In
//                     src/cmp/system.* the partitioned driver
//                     (docs/partitioning.md) already cut every cross-tile
//                     seam, so the reason there must start with "same-tile"
//                     or "single-threaded" — the closed allowed set; any
//                     other reason is reported as a new seam creeping back.
//   nondet-iteration  range-for / iterator loops over unordered_map /
//                     unordered_set anywhere in src/ (the container may be
//                     a class member declared in another TU — resolved via
//                     the cross-TU class model): hash-table iteration order
//                     is not pinned by the language, so such loops must use
//                     an ordered container, sort a snapshot first, or carry
//                     `tcmplint: order-insensitive` with a commutativity
//                     argument.
//   uninit-member     every scalar/pointer/enum data member of a class in
//                     src/ must have a default member initializer or be
//                     covered by every constructor's mem-init list
//                     (constructors defined out-of-line in .cpp included).
//                     Escape hatch: `tcmplint: allow-uninit`.
//   reset-coverage    a class exposing a reset()/zero_all()/clear_values()/
//                     clear_stats() lifecycle method must mention every
//                     data member in that method's body (wherever the body
//                     is defined), reassign `*this`, or annotate the member
//                     `tcmplint: reset-exempt` — the audited inventory a
//                     future snapshot/restore serializer will walk.
//   snapshot-coverage a class participating in checkpoint/restore — one that
//                     defines snapshot_io() or a save()/load() pair — must
//                     mention every data member in those bodies or annotate
//                     the member `tcmplint: snapshot-exempt` with the reason
//                     it is rebuilt rather than serialized. Runtime
//                     attachments (pointers, references, std::function,
//                     stat handles) are skipped automatically: they are
//                     re-wired by the constructor, never serialized.
//   ambient-nondeterminism rand/time/random_device/system_clock/getenv and
//                     friends are banned outside common/rng.hpp,
//                     common/env.hpp and the self-profiler: all randomness
//                     flows through the seeded Rng, all environment reads
//                     through env.hpp. Escape hatch:
//                     `tcmplint: allow-ambient`.
//   pragma-once       every header under src/ must contain #pragma once.
//
// The four determinism/state-integrity rules share a cross-TU class/field
// model (tools/tcmplint_model.hpp): one pass over src/ extracting every
// class/struct with its members (type + initializer), constructor mem-init
// lists and method bodies — including definitions that live in a different
// translation unit than the declaration.
//
// Header self-containment is not a rule here: the build checks it, with the
// project's real flags, through the tcmp_header_check target
// (src/CMakeLists.txt) and the header_check_seeded ctest.
//
// Usage: tcmplint --root <repo-root> [--rule <name>]
//        tcmplint --list-rules | tcmplint --dump-model --root <repo-root>
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tcmplint_model.hpp"

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  long line;
  std::string rule;
  std::string message;
};

std::vector<Finding> g_findings;

void report(const fs::path& file, long line, const std::string& rule,
            const std::string& message) {
  g_findings.push_back({file.string(), line, rule, message});
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<fs::path> collect(const fs::path& dir, const std::string& ext) {
  std::vector<fs::path> out;
  if (!fs::exists(dir)) return out;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ext)
      out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- raw-unit ------------------------------------------------------------

void check_raw_unit(const fs::path& root) {
  // Unit/identity suffixes for which src/common/{types,units}.hpp provides a
  // strong type. A declaration like `double energy_j` should be
  // `units::Joules energy`, `std::uint64_t start_cycle` should be `Cycle`.
  static const std::regex decl(
      R"((?:double|std::uint64_t|uint64_t)\s+)"
      R"(([a-z][a-z0-9_]*(?:_j|_pj|_nj|_w|_mw|_s|_ps|_ns|_hz|_m|_mm|_um|_mm2|_um2|_per_m|_cycles?|_addr|_line))\s*[;={,)(])");
  for (const auto& h : collect(root / "src", ".hpp")) {
    const std::string rel = fs::relative(h, root).generic_string();
    // The strong-type layer itself defines the raw-double boundary
    // (constructors and to_* escape accessors).
    if (rel == "src/common/units.hpp" || rel == "src/common/types.hpp")
      continue;
    const auto lines = split_lines(read_file(h));
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& l = lines[i];
      if (l.find("tcmplint: allow-raw-unit") != std::string::npos) continue;
      std::smatch m;
      if (std::regex_search(l, m, decl)) {
        report(h, static_cast<long>(i + 1), "raw-unit",
               "raw numeric declaration '" + m[1].str() +
                   "' carries a unit/identity suffix; use the strong type "
                   "from common/types.hpp or common/units.hpp (or annotate "
                   "'tcmplint: allow-raw-unit' with a reason)");
      }
    }
  }
}

// ---- msgtype-tables ------------------------------------------------------

void check_msgtype_tables(const fs::path& root) {
  const fs::path enum_hpp = root / "src/protocol/coherence_msg.hpp";
  const std::string text = read_file(enum_hpp);
  if (text.empty()) {
    report(enum_hpp, 0, "msgtype-tables", "cannot read MsgType header");
    return;
  }
  const auto begin = text.find("enum class MsgType");
  const auto end = text.find("};", begin);
  if (begin == std::string::npos || end == std::string::npos) {
    report(enum_hpp, 0, "msgtype-tables", "cannot locate enum class MsgType");
    return;
  }
  std::vector<std::string> enumerators;
  static const std::regex name(R"(^\s*(k[A-Za-z0-9]+)\s*,?)");
  for (const auto& l : split_lines(text.substr(begin, end - begin))) {
    std::smatch m;
    if (std::regex_search(l, m, name)) enumerators.push_back(m[1].str());
  }
  std::smatch count_m;
  static const std::regex count_re(
      R"(constexpr\s+unsigned\s+kNumMsgTypes\s*=\s*(\d+))");
  if (std::regex_search(text, count_m, count_re)) {
    if (std::stoul(count_m[1].str()) != enumerators.size()) {
      report(enum_hpp, 0, "msgtype-tables",
             "kNumMsgTypes = " + count_m[1].str() + " but enum has " +
                 std::to_string(enumerators.size()) + " enumerators");
    }
  } else {
    report(enum_hpp, 0, "msgtype-tables", "kNumMsgTypes constant not found");
  }
  const fs::path tables[] = {root / "src/protocol/coherence_msg.cpp",
                             root / "src/verify/wire_check.cpp"};
  for (const auto& table : tables) {
    const std::string body = read_file(table);
    for (const auto& e : enumerators) {
      // Word-boundary match: MsgType::kX not followed by more identifier.
      const std::regex use("MsgType::" + e + R"(\b)");
      if (!std::regex_search(body, use)) {
        report(table, 0, "msgtype-tables",
               "MsgType::" + e + " missing from this classification table");
      }
    }
  }
}

// ---- stat-registration ---------------------------------------------------

void check_stat_registration(const fs::path& root) {
  // A ScalarStat/Histogram constructed directly (member or local) is never
  // registered with StatRegistry, so it silently vanishes from reports.
  static const std::regex decl(
      R"(^\s*(?:tcmp::)?(ScalarStat|Histogram)\s+([a-zA-Z_]\w*)\s*[{;=(])");
  for (const std::string ext : {".hpp", ".cpp"}) {
    for (const auto& f : collect(root / "src", ext)) {
      const std::string rel = fs::relative(f, root).generic_string();
      if (rel == "src/common/stats.hpp" || rel == "src/common/stats.cpp")
        continue;  // the registry's own storage
      const auto lines = split_lines(read_file(f));
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& l = lines[i];
        if (l.find("tcmplint: allow-local-stat") != std::string::npos) continue;
        std::smatch m;
        if (std::regex_search(l, m, decl)) {
          report(f, static_cast<long>(i + 1), "stat-registration",
                 m[1].str() + " '" + m[2].str() +
                     "' constructed outside StatRegistry — it will never "
                     "appear in reports; register it via StatRegistry (or "
                     "annotate 'tcmplint: allow-local-stat' with a reason)");
        }
      }
    }
  }
}

// ---- stat-string-hot-path ------------------------------------------------

void check_stat_string_hot_path(const fs::path& root) {
  // Per-event string-keyed registry lookups are a map walk plus string
  // compares on every bump; the hot-path contract (common/stats.hpp) is to
  // resolve once via counter_ref/scalar_ref/histogram_ref at construction.
  // The regex cannot match the sanctioned calls: counter_ref(, counter_value(,
  // find_counter( and find_histogram( all put word characters between the
  // keyword and the paren.
  static const std::regex bump(R"(\b(counter|scalar|histogram)\s*\(\s*")");
  // A member function definition: `... ClassName::name(` — the enclosing
  // context for a .cpp bump site.
  static const std::regex member_def(R"(\b([A-Za-z_]\w*)::(~?[A-Za-z_]\w*)\s*\()");
  // An in-class constructor or init method definition: `Name(...)` at
  // declaration position (checked against `class/struct Name` in the file).
  static const std::regex inline_def(
      R"(^\s*(?:explicit\s+)?([A-Za-z_]\w*)\s*\()");
  static const char* kHotDirs[] = {"protocol", "noc",  "het",   "core",
                                   "cmp",      "obs",  "verify"};
  for (const char* dir : kHotDirs) {
    for (const std::string ext : {".hpp", ".cpp"}) {
      for (const auto& f : collect(root / "src" / dir, ext)) {
        const std::string text = read_file(f);
        const auto lines = split_lines(text);
        for (std::size_t i = 0; i < lines.size(); ++i) {
          const std::string& l = lines[i];
          if (l.find("tcmplint: allow-stat-string") != std::string::npos)
            continue;
          std::smatch m;
          if (!std::regex_search(l, m, bump)) continue;
          // Walk back to the nearest function definition to decide whether
          // the call sits in a constructor / init path (one-time resolution
          // is exactly what the contract asks for).
          bool allowed = false;
          for (std::size_t j = i + 1; j-- > 0;) {
            std::smatch d;
            if (std::regex_search(lines[j], d, member_def)) {
              const std::string cls = d[1].str(), fn = d[2].str();
              allowed = cls == fn || fn.find("init") != std::string::npos;
              break;
            }
            if (std::regex_search(lines[j], d, inline_def) &&
                (text.find("class " + d[1].str()) != std::string::npos ||
                 text.find("struct " + d[1].str()) != std::string::npos)) {
              allowed = true;  // in-class constructor definition
              break;
            }
          }
          if (!allowed) {
            report(f, static_cast<long>(i + 1), "stat-string-hot-path",
                   "string-keyed StatRegistry lookup '" + m[1].str() +
                       "(\"...\")' on a hot path — resolve a " + m[1].str() +
                       "_ref handle once at construction and bump through it "
                       "(see the hot-path contract in common/stats.hpp), or "
                       "annotate 'tcmplint: allow-stat-string' with a reason");
          }
        }
      }
    }
  }
}

// ---- obs-emit-interned ---------------------------------------------------

void check_obs_emit_interned(const fs::path& root) {
  // The stat-string-hot-path rule bans `counter("...")` bumps, but a
  // `counter_ref("...")` resolved at the emit site is the same map walk in a
  // handle costume. Interning is only an optimization when it happens once:
  // _ref calls with inline string literals are confined to constructors and
  // init functions, where the handle is cached for the run.
  static const std::regex emit(
      R"(\b(counter_ref|scalar_ref|histogram_ref)\s*\(\s*")");
  // Anchored at column 0: out-of-class definitions start unindented in this
  // codebase, while qualified *calls* (std::move(, protocol::to_string() sit
  // inside indented statements — the anchor keeps them out of the walk.
  static const std::regex member_def(
      R"(^(?=[^\s/]).*?\b([A-Za-z_]\w*)::(~?[A-Za-z_]\w*)\s*\()");
  static const std::regex inline_def(
      R"(^\s*(?:explicit\s+)?([A-Za-z_]\w*)\s*\()");
  static const char* kHotDirs[] = {"protocol", "noc",  "het",   "core",
                                   "cmp",      "obs",  "verify"};
  for (const char* dir : kHotDirs) {
    for (const std::string ext : {".hpp", ".cpp"}) {
      for (const auto& f : collect(root / "src" / dir, ext)) {
        const std::string text = read_file(f);
        const auto lines = split_lines(text);
        for (std::size_t i = 0; i < lines.size(); ++i) {
          const std::string& l = lines[i];
          if (l.find("tcmplint: allow-string-emit") != std::string::npos)
            continue;
          std::smatch m;
          if (!std::regex_search(l, m, emit)) continue;
          bool allowed = false;
          for (std::size_t j = i + 1; j-- > 0;) {
            std::smatch d;
            if (std::regex_search(lines[j], d, member_def)) {
              const std::string cls = d[1].str(), fn = d[2].str();
              allowed = cls == fn || fn.find("init") != std::string::npos;
              break;
            }
            if (std::regex_search(lines[j], d, inline_def) &&
                (text.find("class " + d[1].str()) != std::string::npos ||
                 text.find("struct " + d[1].str()) != std::string::npos)) {
              allowed = true;  // in-class constructor definition
              break;
            }
          }
          if (!allowed) {
            report(f, static_cast<long>(i + 1), "obs-emit-interned",
                   "emit-site handle resolution '" + m[1].str() +
                       "(\"...\")' outside init — intern the handle once at "
                       "construction/init and emit through it (hot-path "
                       "contract, common/stats.hpp), or annotate "
                       "'tcmplint: allow-string-emit' with a reason");
          }
        }
      }
    }
  }
}

// ---- scheduled-contract --------------------------------------------------

void check_scheduled_contract(const fs::path& root) {
  // A component with a per-cycle tick(Cycle) that does not expose
  // next_event()/quiescent() is invisible to SimKernel: dead-cycle skipping
  // would jump over cycles where it had work. The word boundary keeps
  // tick_deliver / sample_tick and friends out of scope — only the bare
  // `tick(Cycle` entry point implies kernel-driven stepping.
  static const std::regex tick_decl(R"(\btick\s*\(\s*(?:tcmp::)?Cycle\b)");
  for (const auto& h : collect(root / "src", ".hpp")) {
    const auto lines = split_lines(read_file(h));
    long tick_line = 0;
    bool has_next_event = false, has_quiescent = false, allowed = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& l = lines[i];
      if (l.find("tcmplint: allow-unscheduled-tick") != std::string::npos)
        allowed = true;
      if (tick_line == 0 && std::regex_search(l, tick_decl))
        tick_line = static_cast<long>(i + 1);
      if (l.find("next_event(") != std::string::npos) has_next_event = true;
      if (l.find("quiescent(") != std::string::npos) has_quiescent = true;
    }
    if (tick_line != 0 && !allowed && !(has_next_event && has_quiescent)) {
      report(h, tick_line, "scheduled-contract",
             "declares tick(Cycle) but not the sim::Scheduled contract "
             "(next_event() + quiescent()); the event kernel would skip this "
             "component's work — implement both (see docs/kernel.md) or "
             "annotate 'tcmplint: allow-unscheduled-tick' with a reason");
    }
  }
}

// ---- mutable-static ------------------------------------------------------

void check_mutable_static(const fs::path& root) {
  // A non-const static-duration object is mutable state shared by every
  // sweep worker thread — exactly what the tile-ownership story (and TSan)
  // must not find. `static const`/`static constexpr` are immutable after a
  // thread-safe once-init; `static std::atomic<...>` is race-free by type.
  // Everything else needs the allow-comment and a mutex-guarded design.
  static const std::regex decl(
      R"(^\s*(?:inline\s+)?static\s+([A-Za-z_][\w:<>,&*\s]*?)\s+\**)"
      R"(([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?(=|\{|;))");
  static const std::regex immutable(R"(\b(const|constexpr)\b)");
  for (const std::string ext : {".hpp", ".cpp"}) {
    for (const auto& f : collect(root / "src", ext)) {
      const auto lines = split_lines(read_file(f));
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& l = lines[i];
        if (l.find("tcmplint: allow-mutable-static") != std::string::npos)
          continue;
        std::smatch m;
        if (!std::regex_search(l, m, decl)) continue;
        const std::string type = m[1].str();
        if (std::regex_search(type, immutable)) continue;
        if (type.find("std::atomic") != std::string::npos) continue;
        report(f, static_cast<long>(i + 1), "mutable-static",
               "mutable static '" + m[2].str() +
                   "' is shared state every sweep thread can reach — make it "
                   "const/constexpr, std::atomic, or a mutex-guarded "
                   "singleton annotated 'tcmplint: allow-mutable-static' "
                   "with a reason");
      }
    }
  }
}

// ---- guarded-field -------------------------------------------------------

// Locate the class body enclosing line `idx` (brace counting, backward for
// the opening '{', forward for the close). Returns false when `idx` is not
// inside braces opened by a struct/class head.
bool enclosing_class_body(const std::vector<std::string>& lines,
                          std::size_t idx, std::size_t& body_begin,
                          std::size_t& body_end) {
  long depth = 0;
  std::size_t open_line = lines.size();
  for (std::size_t j = idx + 1; j-- > 0;) {
    const std::string& l = lines[j];
    for (std::size_t k = l.size(); k-- > 0;) {
      if (l[k] == '}') ++depth;
      if (l[k] == '{') {
        if (depth == 0) {
          open_line = j;
          break;
        }
        --depth;
      }
    }
    if (open_line != lines.size()) break;
  }
  if (open_line == lines.size()) return false;
  // The '{' must belong to a struct/class head (possibly on the line above,
  // for wrapped declarations).
  static const std::regex head(R"(\b(struct|class)\s+[A-Za-z_]\w*)");
  bool is_class = false;
  for (std::size_t j = open_line + 1; j-- > 0 && j + 3 > open_line;) {
    if (std::regex_search(lines[j], head)) {
      is_class = true;
      break;
    }
  }
  if (!is_class) return false;
  body_begin = open_line + 1;
  depth = 1;
  for (std::size_t j = body_begin; j < lines.size(); ++j) {
    // Depth at the *start* of line j decides whether it is a direct member.
    for (const char c : lines[j]) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
    }
    if (depth <= 0) {
      body_end = j;
      return true;
    }
  }
  return false;
}

void check_guarded_field(const fs::path& root) {
  // A class that owns a Mutex has declared "my fields are shared"; every
  // sibling data member must then say which lock protects it, so Clang's
  // -Wthread-safety can reject unlocked access paths. The scan is line-
  // oriented: a member line is one ending in ';' with no '(' (functions and
  // macros excluded) inside the mutex's class body.
  static const std::regex mutex_decl(
      R"(^\s*(?:tcmp::)?(?:Mutex|std::mutex)\s+([A-Za-z_]\w*)\s*(;|\{))");
  static const std::regex member_like(
      R"(^\s*[A-Za-z_][\w:<>,*&\s]*[\s*&]([A-Za-z_]\w*)\s*(\[[^\]]*\]\s*)?(=[^=]|\{|;))");
  static const std::regex skip_kw(
      R"(^\s*(using|typedef|friend|static|public:|private:|protected:|struct|class|enum|//|#))");
  for (const std::string ext : {".hpp", ".cpp"}) {
    for (const auto& f : collect(root / "src", ext)) {
      const std::string rel = fs::relative(f, root).generic_string();
      if (rel == "src/common/sync.hpp") continue;  // the wrappers themselves
      const auto lines = split_lines(read_file(f));
      for (std::size_t i = 0; i < lines.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(lines[i], m, mutex_decl)) continue;
        std::size_t begin = 0, end = 0;
        if (!enclosing_class_body(lines, i, begin, end)) continue;
        long depth = 0;
        for (std::size_t j = begin; j < end; ++j) {
          const std::string& l = lines[j];
          const long line_depth = depth;
          for (const char c : l) {
            if (c == '{') ++depth;
            if (c == '}') --depth;
          }
          if (line_depth != 0 || j == i) continue;  // nested scope / the mutex
          if (l.find("TCMP_GUARDED_BY") != std::string::npos) continue;
          if (l.find("tcmplint: allow-unguarded-field") != std::string::npos)
            continue;
          if (std::regex_search(l, skip_kw)) continue;
          if (l.find('(') != std::string::npos) continue;  // function-ish
          std::smatch fm;
          if (!std::regex_search(l, fm, member_like)) continue;
          report(f, static_cast<long>(j + 1), "guarded-field",
                 "field '" + fm[1].str() + "' shares a class with mutex '" +
                     m[1].str() +
                     "' but carries no TCMP_GUARDED_BY annotation "
                     "(common/sync.hpp) — annotate the lock that protects "
                     "it, or 'tcmplint: allow-unguarded-field' with a "
                     "reason");
        }
      }
    }
  }
}

// ---- tile-escape ---------------------------------------------------------

void check_tile_escape(const fs::path& root) {
  // The invariant Graphite-style partitioning (ROADMAP item 1) will cut
  // along: a tile's components (L1, L1I, directory slice, core, NIC) are
  // owned by that tile, and nothing outside the sanctioned seams may hold a
  // raw pointer/reference into them — cross-tile interaction flows through
  // the NIC/message seam or the SimKernel registration path, both of which
  // become partition boundaries. Two per-TU passes:
  //   (a) declarations of `TileType*` / `TileType&` anywhere in src/;
  //   (b) bindings that materialize a component handle from the tile table
  //       (`= *tiles_[..]->comp`, `x = t->comp.get()` captures).
  // Allowed without annotation: the type's own translation unit, the
  // documented same-tile collaborator edges (core/ -> L1Cache/ICache),
  // `add_component(` registration lines, and constructor wiring (walk-back
  // finds a constructor definition). Everything else must carry
  // `tcmplint: tile-seam (reason)` — the annotated sites are the complete
  // inventory of places the partitioned driver had to turn into messages
  // (it has: see docs/partitioning.md), which is why the reasons in
  // src/cmp/system.* are further held to the closed prefix set below.
  static const std::regex raw_handle(
      R"(\b(L1Cache|ICache|Directory|Core|TileNic)\s*(?:const\s*)?[*&])");
  static const std::regex tile_bind(
      R"(=\s*\*?\s*(?:&\s*)?[A-Za-z_]\w*(?:\[[^\]]*\])?\s*->\s*(l1i?|dir|core|nic)\b\s*(\.get\(\))?\s*[,;)\]}]?)");
  static const std::regex member_def(
      R"(\b([A-Za-z_]\w*)::(~?[A-Za-z_]\w*)\s*\()");
  struct Edge {
    const char* file_substr;  // TU allowed to hold the handle
    const char* type;         // "" = any tile-owned type
  };
  static const Edge kAllowedEdges[] = {
      // A type's own TU.
      {"protocol/l1_cache.", "L1Cache"},
      {"protocol/icache.", "ICache"},
      {"protocol/directory.", "Directory"},
      {"core/core_model.", "Core"},
      {"het/nic.", "TileNic"},
      // Same-tile collaborators, wired once at construction: the core
      // drives its own tile's L1/L1I directly (that pair never crosses a
      // partition boundary).
      {"core/core_model.", "L1Cache"},
      {"core/core_model.", "ICache"},
  };
  // The partitioned driver (docs/partitioning.md) eliminated every
  // cross-tile seam in the CmpSystem driver: delivery, the slack beneficiary
  // probe, and report aggregation now cross partitions via boundary-channel
  // messages and merged stat shards. What legitimately remains in
  // src/cmp/system.* is a closed set — same-tile construction wiring and
  // single-threaded access between partition phases (tests/verify, report
  // and warmup aggregation). The annotation reason there must say which,
  // by prefix; a reason outside the set means a cross-partition seam crept
  // back in and must be routed through the boundary channels instead.
  auto seam_reason_ok = [](const std::string& rel, const std::string& l,
                           std::size_t apos) {
    if (rel.rfind("src/cmp/system.", 0) != 0) return true;
    const auto open = l.find('(', apos);
    if (open == std::string::npos) return false;
    std::string reason = l.substr(open + 1);
    const auto ns = reason.find_first_not_of(" \t");
    if (ns == std::string::npos) return false;
    reason = reason.substr(ns);
    return reason.rfind("same-tile", 0) == 0 ||
           reason.rfind("single-threaded", 0) == 0;
  };
  for (const std::string ext : {".hpp", ".cpp"}) {
    for (const auto& f : collect(root / "src", ext)) {
      const std::string rel = fs::relative(f, root).generic_string();
      const auto lines = split_lines(read_file(f));
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& l = lines[i];
        // The seam annotation may sit on the line itself or the line above
        // (bind sites inside wrapped expressions get long).
        if (const auto apos = l.find("tcmplint: tile-seam");
            apos != std::string::npos) {
          if (!seam_reason_ok(rel, l, apos))
            report(f, static_cast<long>(i + 1), "tile-escape",
                   "tile-seam reason in src/cmp/system.* must start with "
                   "'same-tile' or 'single-threaded' — the partitioned "
                   "driver retired every cross-partition seam there; route "
                   "new cross-partition interaction through the boundary "
                   "channels (docs/partitioning.md)");
          continue;
        }
        if (i > 0 &&
            lines[i - 1].find("tcmplint: tile-seam") != std::string::npos)
          continue;
        if (l.find("add_component(") != std::string::npos) continue;
        std::smatch m;
        std::string what;
        if (std::regex_search(l, m, raw_handle)) {
          bool edge_ok = false;
          for (const Edge& e : kAllowedEdges) {
            if (rel.find(e.file_substr) != std::string::npos &&
                m[1].str() == e.type) {
              edge_ok = true;
              break;
            }
          }
          if (edge_ok) continue;
          what = "raw handle to tile-owned type '" + m[1].str() + "'";
        } else if (std::regex_search(l, m, tile_bind)) {
          what = "binding of per-tile component handle '" + m[1].str() + "'";
        } else {
          continue;
        }
        // Constructor wiring is single-threaded and happens-before the
        // simulation: walk back to the enclosing member definition and
        // allow `X::X(`.
        bool in_ctor = false;
        for (std::size_t j = i + 1; j-- > 0;) {
          std::smatch d;
          if (std::regex_search(lines[j], d, member_def)) {
            in_ctor = d[1].str() == d[2].str();
            break;
          }
        }
        if (in_ctor) continue;
        report(f, static_cast<long>(i + 1), "tile-escape",
               what +
                   " escapes the tile-ownership seams (NIC/message path, "
                   "SimKernel registration, constructor wiring) — route the "
                   "interaction through a message, or annotate "
                   "'tcmplint: tile-seam' with the partition-boundary "
                   "reason (docs/static-analysis.md)");
      }
    }
  }
}

// ---- cross-TU class/field model (tcmplint_model.hpp) ---------------------
//
// The four determinism / state-integrity rules below share one parse of
// src/ into a class model: fields with types and initializers, constructor
// mem-init lists (including out-of-line definitions in .cpp — the cross-TU
// part), and method bodies. Built lazily, once per process.

const tcmplint::Model& class_model(const fs::path& root) {
  static std::map<std::string, tcmplint::Model> cache;
  const std::string key = (root / "src").string();
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache.emplace(key, tcmplint::build_model_from_dir(root / "src"))
             .first;
  return it->second;
}

std::string path_stem(const std::string& p) {
  const std::size_t dot = p.rfind('.');
  return dot == std::string::npos ? p : p.substr(0, dot);
}

/// `// tcmplint: <tag>` on the 1-based line or the line above it.
bool annotated_at(const std::vector<std::string>& raw_lines, long line,
                  const std::string& tag) {
  const std::string needle = "tcmplint: " + tag;
  auto has = [&](long l) {
    return l >= 1 && l <= static_cast<long>(raw_lines.size()) &&
           raw_lines[static_cast<std::size_t>(l - 1)].find(needle) !=
               std::string::npos;
  };
  return has(line) || has(line - 1);
}

std::vector<std::string> raw_lines_of(const fs::path& p) {
  return split_lines(read_file(p));
}

// ---- nondet-iteration ----------------------------------------------------

void check_nondet_iteration(const fs::path& root) {
  // Iterating an unordered_map/unordered_set visits elements in hash-table
  // order — a function of libstdc++ internals, insertion history and the
  // hash seed, none of which the golden reports or a future partitioned
  // kernel can pin down. Any loop over an unordered container in src/ must
  // either switch to an ordered container, sort a snapshot before acting on
  // it, or prove the body commutative with an inline
  // `tcmplint: order-insensitive (reason)` annotation. The container may be
  // declared in another TU (a class member in the header, iterated in the
  // .cpp) — that resolution is what the class model is for.
  const tcmplint::Model& model = class_model(root);
  static const std::regex local_decl(
      R"(\bunordered_(?:map|set)\s*<.*>\s*[&*]?\s*([A-Za-z_]\w*)\s*[;,)=({])");
  static const std::regex begin_call(
      R"(([A-Za-z_]\w*)\s*\.\s*c?begin\s*\()");
  static const std::regex ident(R"([A-Za-z_]\w*)");
  for (const std::string ext : {".hpp", ".cpp"}) {
    for (const auto& f : collect(root / "src", ext)) {
      const std::string fname = f.generic_string();
      const std::string stem = path_stem(fname);
      // Names of unordered-typed variables visible in this file: members of
      // classes defined here or in the stem-paired header/source, members
      // of any class with an out-of-line method body in this file, plus
      // local/parameter declarations matched textually below.
      std::set<std::string> unordered_names;
      for (const auto& c : model.classes) {
        bool related = c.file == fname || path_stem(c.file) == stem;
        if (!related)
          for (const auto& b : c.bodies)
            if (b.file == fname) {
              related = true;
              break;
            }
        if (!related) continue;
        for (const auto& fd : c.fields)
          if (fd.type.find("unordered_map") != std::string::npos ||
              fd.type.find("unordered_set") != std::string::npos)
            unordered_names.insert(fd.name);
      }
      const std::string raw = read_file(f);
      const auto raw_lines = split_lines(raw);
      const auto code_lines = split_lines(tcmplint::strip_code(raw));
      for (const auto& l : code_lines) {
        std::smatch m;
        std::string rest = l;
        while (std::regex_search(rest, m, local_decl)) {
          unordered_names.insert(m[1].str());
          rest = m.suffix().str();
        }
      }
      if (unordered_names.empty()) continue;
      for (std::size_t i = 0; i < code_lines.size(); ++i) {
        const long line = static_cast<long>(i + 1);
        if (annotated_at(raw_lines, line, "order-insensitive")) continue;
        // Join a wrapped `for (...)` head (up to 4 continuation lines).
        std::string stmt = code_lines[i];
        const std::size_t for_pos = stmt.find("for");
        for (std::size_t j = i + 1;
             j < code_lines.size() && j < i + 4 &&
             for_pos != std::string::npos &&
             std::count(stmt.begin(), stmt.end(), '(') >
                 std::count(stmt.begin(), stmt.end(), ')');
             ++j)
          stmt += " " + code_lines[j];
        std::smatch m;
        static const std::regex range_for(
            R"(\bfor\s*\(([^;)]*[^:)]):([^:][^)]*)\))");
        if (std::regex_search(stmt, m, range_for)) {
          const std::string range_expr = m[2].str();
          for (auto it = std::sregex_iterator(range_expr.begin(),
                                              range_expr.end(), ident);
               it != std::sregex_iterator(); ++it) {
            if (unordered_names.count(it->str()) != 0U) {
              report(f, line, "nondet-iteration",
                     "range-for over unordered container '" + it->str() +
                         "' — iteration order is not deterministic across "
                         "stdlib implementations; use an ordered container, "
                         "sort a snapshot first, or annotate "
                         "'tcmplint: order-insensitive' with a proof the "
                         "body is commutative");
              break;
            }
          }
        }
        std::string rest = code_lines[i];
        while (std::regex_search(rest, m, begin_call)) {
          if (unordered_names.count(m[1].str()) != 0U) {
            report(f, line, "nondet-iteration",
                   "iterator walk over unordered container '" + m[1].str() +
                       "' — iteration order is not deterministic; use an "
                       "ordered container, sort a snapshot first, or "
                       "annotate 'tcmplint: order-insensitive' with a proof "
                       "the body is commutative");
            break;
          }
          rest = m.suffix().str();
        }
      }
    }
  }
}

// ---- uninit-member -------------------------------------------------------

bool scalar_like_type(const std::string& type,
                      const std::set<std::string>& enum_types) {
  static const std::set<std::string> kScalars = {
      "bool",           "char",          "signed char",  "unsigned char",
      "short",          "unsigned short", "int",          "unsigned",
      "unsigned int",   "long",          "unsigned long", "long long",
      "unsigned long long", "float",     "double",       "long double",
      "size_t",         "std::size_t",   "ptrdiff_t",    "std::ptrdiff_t",
      "std::byte",      "char32_t",      "char16_t",     "wchar_t",
      "int8_t",         "int16_t",       "int32_t",      "int64_t",
      "uint8_t",        "uint16_t",      "uint32_t",     "uint64_t",
      "std::int8_t",    "std::int16_t",  "std::int32_t", "std::int64_t",
      "std::uint8_t",   "std::uint16_t", "std::uint32_t", "std::uint64_t",
      "std::uintptr_t", "std::intptr_t",
  };
  std::string t = type;
  // Qualifiers don't change initialization semantics.
  t = std::regex_replace(t, std::regex(R"(\b(const|mutable|volatile)\b)"), "");
  t = std::regex_replace(t, std::regex(R"(\s+)"), " ");
  while (!t.empty() && (t.front() == ' ')) t.erase(t.begin());
  while (!t.empty() && (t.back() == ' ')) t.pop_back();
  if (!t.empty() && t.back() == '*') return true;  // raw pointer
  if (kScalars.count(t) != 0U) return true;
  if (enum_types.count(t) != 0U) return true;
  // Namespace-qualified enum (`protocol::L1State`).
  const std::size_t sep = t.rfind("::");
  if (sep != std::string::npos &&
      enum_types.count(t.substr(sep + 2)) != 0U &&
      t.compare(0, 5, "std::") != 0)
    return true;
  return false;
}

void check_uninit_member(const fs::path& root) {
  // A scalar/pointer/enum member with neither a default member initializer
  // nor coverage in every constructor's mem-init list is indeterminate
  // until first assignment — reads before that are UB and, worse for this
  // repo, *nondeterministic*: the goldens cannot localize a stack-residue
  // value that happens to differ between hosts. Class-typed members
  // default-construct and are exempt; the strong types (Cycle, LineAddr,
  // Quantity, CounterRef, ...) all zero-initialize themselves.
  const tcmplint::Model& model = class_model(root);
  std::map<std::string, std::vector<std::string>> raw_cache;
  for (const auto& c : model.classes) {
    // Non-deleted constructors; delegating ctors inherit the target's
    // coverage and don't count against a member.
    std::vector<const tcmplint::Ctor*> ctors;
    for (const auto& ct : c.ctors)
      if (!ct.deleted && !ct.delegating) ctors.push_back(&ct);
    for (const auto& fd : c.fields) {
      if (fd.is_static || fd.is_reference || fd.has_init) continue;
      if (!scalar_like_type(fd.type, model.enum_types)) continue;
      bool covered = !ctors.empty();
      for (const auto* ct : ctors)
        if (std::find(ct->inits.begin(), ct->inits.end(), fd.name) ==
            ct->inits.end())
          covered = false;
      if (covered) continue;
      auto rit = raw_cache.find(fd.file);
      if (rit == raw_cache.end())
        rit = raw_cache.emplace(fd.file, raw_lines_of(fd.file)).first;
      if (annotated_at(rit->second, fd.line, "allow-uninit")) continue;
      report(fd.file, fd.line, "uninit-member",
             "member '" + fd.name + "' of " + c.qual + " (type '" + fd.type +
                 "') has no default member initializer and is not covered "
                 "by every constructor's init list — an uninitialized read "
                 "is UB and nondeterministic; add '= ...' / '{}' (or "
                 "annotate 'tcmplint: allow-uninit' with a reason)");
    }
  }
}

// ---- reset-coverage ------------------------------------------------------

void check_reset_coverage(const fs::path& root) {
  // A reset()/zero_all()-style lifecycle method that silently skips a data
  // member leaks state across what callers believe is a clean boundary —
  // and the same member inventory is exactly what a checkpoint/restore
  // serializer (ROADMAP item 4) must walk. Every data member must be
  // mentioned in the method body (the body may live in another TU), be
  // covered by a whole-object `*this = ...;` reassignment, or carry a
  // `tcmplint: reset-exempt (reason)` annotation at its declaration.
  const tcmplint::Model& model = class_model(root);
  static const char* kLifecycle[] = {"reset", "zero_all", "clear_values",
                                     "clear_stats"};
  std::map<std::string, std::vector<std::string>> raw_cache;
  static const std::regex whole_object(R"(\*\s*this\s*=)");
  for (const auto& c : model.classes) {
    for (const char* method : kLifecycle) {
      const auto bodies = c.bodies_of(method);
      if (bodies.empty()) continue;
      bool whole = false;
      for (const auto* b : bodies)
        if (std::regex_search(b->body, whole_object)) whole = true;
      if (whole) continue;
      for (const auto& fd : c.fields) {
        if (fd.is_static) continue;
        const std::regex mention("\\b" + fd.name + "\\b");
        bool mentioned = false;
        for (const auto* b : bodies)
          if (std::regex_search(b->body, mention)) mentioned = true;
        if (mentioned) continue;
        auto rit = raw_cache.find(fd.file);
        if (rit == raw_cache.end())
          rit = raw_cache.emplace(fd.file, raw_lines_of(fd.file)).first;
        if (annotated_at(rit->second, fd.line, "reset-exempt")) continue;
        report(bodies.front()->file, bodies.front()->line, "reset-coverage",
               c.qual + "::" + method + "() does not mention member '" +
                   fd.name + "' (" + fd.file + ":" +
                   std::to_string(fd.line) +
                   ") — reset it, or annotate the member "
                   "'tcmplint: reset-exempt' with the reason it survives");
      }
    }
  }
}

// ---- snapshot-coverage ---------------------------------------------------

void check_snapshot_coverage(const fs::path& root) {
  // The checkpoint/restore mirror of reset-coverage: a class that takes part
  // in snapshotting — it defines snapshot_io() (the archive walker,
  // common/snapshot.hpp) or a save()/load() serializer pair — must account
  // for every data member in those bodies. A member silently skipped by the
  // serializer restores to its constructed value, which desynchronizes the
  // restored run from the uninterrupted one in a way the byte-identity
  // goldens can only localize to "somewhere". Members that are runtime
  // attachments rather than simulation state (raw pointers, references,
  // std::function callbacks, and the StatRegistry handle types, all re-wired
  // by the constructor) are skipped automatically; anything else that
  // legitimately survives restore without serialization must carry a
  // `tcmplint: snapshot-exempt (reason)` annotation at its declaration.
  const tcmplint::Model& model = class_model(root);
  std::map<std::string, std::vector<std::string>> raw_cache;
  static const std::regex attachment_type(
      R"(\*\s*$|std::function|CounterRef|ScalarRef|HistogramRef)");
  for (const auto& c : model.classes) {
    std::vector<const tcmplint::MethodBody*> bodies;
    for (const auto* b : c.bodies_of("snapshot_io")) bodies.push_back(b);
    if (bodies.empty()) {
      const auto saves = c.bodies_of("save");
      const auto loads = c.bodies_of("load");
      if (saves.empty() || loads.empty()) continue;  // not a serializer pair
      bodies.insert(bodies.end(), saves.begin(), saves.end());
      bodies.insert(bodies.end(), loads.begin(), loads.end());
    }
    for (const auto& fd : c.fields) {
      if (fd.is_static || fd.is_reference) continue;
      if (std::regex_search(fd.type, attachment_type)) continue;
      const std::regex mention("\\b" + fd.name + "\\b");
      bool mentioned = false;
      for (const auto* b : bodies)
        if (std::regex_search(b->body, mention)) mentioned = true;
      if (mentioned) continue;
      auto rit = raw_cache.find(fd.file);
      if (rit == raw_cache.end())
        rit = raw_cache.emplace(fd.file, raw_lines_of(fd.file)).first;
      if (annotated_at(rit->second, fd.line, "snapshot-exempt")) continue;
      report(bodies.front()->file, bodies.front()->line, "snapshot-coverage",
             c.qual + "'s snapshot serializer does not mention member '" +
                 fd.name + "' (" + fd.file + ":" + std::to_string(fd.line) +
                 ") — serialize it, or annotate the member "
                 "'tcmplint: snapshot-exempt' with the reason it is rebuilt "
                 "on restore instead");
    }
  }
}

// ---- ambient-nondeterminism ----------------------------------------------

void check_ambient_nondet(const fs::path& root) {
  // The simulator's reproducibility contract: all randomness flows through
  // the seeded tcmp::Rng (common/rng.hpp) and all host-environment reads
  // through common/env.hpp, so a (binary, flags, seed) triple fully
  // determines every report byte. Wall-clock time is allowed only in the
  // self-profiler (sim/profiler.hpp, steady_clock — measurement, never
  // simulation input). Everything else in src/ must not touch ambient
  // entropy: C rand/time, std::random_device, the std engines, system
  // clocks, getenv.
  static const char* kAllowedFiles[] = {
      "src/common/rng.hpp",   // the seeded PRNG itself
      "src/common/env.hpp",   // the sanctioned getenv wrapper
      "src/sim/profiler.hpp", // wall-clock self-profiling (output-only)
  };
  static const std::regex call(
      R"(\b(?:std\s*::\s*)?(rand|srand|rand_r|getenv|time|gettimeofday|clock_gettime|timespec_get)\s*\()");
  static const std::regex type_use(
      R"(\b(random_device|mt19937|mt19937_64|minstd_rand0?|ranlux\w*|system_clock|high_resolution_clock)\b)");
  for (const std::string ext : {".hpp", ".cpp"}) {
    for (const auto& f : collect(root / "src", ext)) {
      const std::string rel = fs::relative(f, root).generic_string();
      if (std::find_if(std::begin(kAllowedFiles), std::end(kAllowedFiles),
                       [&](const char* a) { return rel == a; }) !=
          std::end(kAllowedFiles))
        continue;
      const std::string raw = read_file(f);
      const auto raw_lines = split_lines(raw);
      const auto code_lines = split_lines(tcmplint::strip_code(raw));
      for (std::size_t i = 0; i < code_lines.size(); ++i) {
        const long line = static_cast<long>(i + 1);
        if (annotated_at(raw_lines, line, "allow-ambient")) continue;
        std::smatch m;
        std::string what;
        if (std::regex_search(code_lines[i], m, call))
          what = m[1].str() + "()";
        else if (std::regex_search(code_lines[i], m, type_use))
          what = m[1].str();
        else
          continue;
        report(f, line, "ambient-nondeterminism",
               "ambient entropy source '" + what +
                   "' outside common/rng.hpp / common/env.hpp / the "
                   "profiler — route randomness through the seeded "
                   "tcmp::Rng and environment reads through common/env.hpp "
                   "so runs stay bit-reproducible (or annotate "
                   "'tcmplint: allow-ambient' with a reason)");
      }
    }
  }
}

// ---- pragma-once ---------------------------------------------------------

void check_pragma_once(const fs::path& root) {
  for (const auto& h : collect(root / "src", ".hpp")) {
    if (read_file(h).find("#pragma once") == std::string::npos)
      report(h, 1, "pragma-once", "header is missing #pragma once");
  }
}

// Single source of truth for the rule set: --list-rules prints exactly this
// table, and tools/run_lint.sh enumerates it — a new rule registered here
// can never be silently skipped by the CI lint job or the seeded harness
// (which cross-checks its coverage against this list).
struct RuleEntry {
  const char* name;
  void (*run)(const fs::path& root);
};

const RuleEntry kRules[] = {
    {"raw-unit", check_raw_unit},
    {"msgtype-tables", check_msgtype_tables},
    {"stat-registration", check_stat_registration},
    {"stat-string-hot-path", check_stat_string_hot_path},
    {"obs-emit-interned", check_obs_emit_interned},
    {"scheduled-contract", check_scheduled_contract},
    {"mutable-static", check_mutable_static},
    {"guarded-field", check_guarded_field},
    {"tile-escape", check_tile_escape},
    {"nondet-iteration", check_nondet_iteration},
    {"uninit-member", check_uninit_member},
    {"reset-coverage", check_reset_coverage},
    {"snapshot-coverage", check_snapshot_coverage},
    {"ambient-nondeterminism", check_ambient_nondet},
    {"pragma-once", check_pragma_once},
};

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string rule = "all";
  bool dump_model = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tcmplint: %s needs an argument\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = next();
    } else if (arg == "--rule") {
      rule = next();
    } else if (arg == "--list-rules") {
      for (const RuleEntry& r : kRules) std::printf("%s\n", r.name);
      return 0;
    } else if (arg == "--dump-model") {
      dump_model = true;
    } else {
      std::fprintf(stderr,
                   "usage: tcmplint --root <dir> [--rule <name>] "
                   "[--dump-model] | tcmplint --list-rules\n");
      return 2;
    }
  }
  if (!fs::exists(root / "src")) {
    std::fprintf(stderr, "tcmplint: no src/ under %s\n", root.string().c_str());
    return 2;
  }
  if (dump_model) {
    // Debug view of the cross-TU class model the determinism rules share.
    for (const auto& c : class_model(root).classes) {
      std::printf("%s (%s:%ld) dir=%s base=%s\n", c.qual.c_str(),
                  c.file.c_str(), c.line, c.dir.c_str(), c.base.c_str());
      for (const auto& f : c.fields)
        std::printf("  field %s : %s%s%s\n", f.name.c_str(), f.type.c_str(),
                    f.has_init ? " [init]" : "", f.is_static ? " [static]" : "");
      for (const auto& ct : c.ctors) {
        std::printf("  ctor %s:%ld inits:", ct.file.c_str(), ct.line);
        for (const auto& n : ct.inits) std::printf(" %s", n.c_str());
        std::printf("%s\n", ct.deleted ? " [deleted]" : "");
      }
      for (const auto& b : c.bodies)
        std::printf("  body %s (%s:%ld)\n", b.name.c_str(), b.file.c_str(),
                    b.line);
    }
    return 0;
  }

  bool known = rule == "all";
  for (const RuleEntry& r : kRules) {
    if (rule == "all" || rule == r.name) {
      r.run(root);
      known = true;
    }
  }
  if (!known) {
    std::fprintf(stderr, "tcmplint: unknown rule '%s' (see --list-rules)\n",
                 rule.c_str());
    return 2;
  }

  for (const auto& f : g_findings) {
    std::fprintf(stderr, "%s:%ld: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (g_findings.empty()) {
    std::printf("tcmplint: clean (%s)\n", rule.c_str());
    return 0;
  }
  std::fprintf(stderr, "tcmplint: %zu finding(s)\n", g_findings.size());
  return 1;
}
