// wrt_lint — repo-specific static analysis for the WRT-Ring code base.
//
// Generic linters cannot know this repo's contracts, so this tool encodes
// them directly (see docs/API.md "Correctness tooling" for the rule table):
//
//   hot-path-assoc       The per-slot engine hot path is position-indexed
//                        by design (PR 1); node-based associative
//                        containers are banned from the hot-path files.
//   hot-path-front-erase `x.erase(x.begin())` in a hot-path file shifts
//                        every later element on each call; a bounded
//                        history belongs in a fixed ring with a head
//                        index (SlotKernel's SAT arrival ring).
//   by-value-frame-param Packet / LinkFrame parameters must be passed by
//                        reference (or moved); silent copies on the data
//                        path are the repo's most common perf regression.
//   stale-include        A curated table of std headers whose usage is
//                        reliably greppable; flags includes with no use.
//   missing-nodiscard    Zero-argument const accessors in headers must be
//                        [[nodiscard]] — dropping an accessor result is
//                        always a bug.
//   kernel-aos-access    The per-slot passes operate on the SlotKernel's
//                        dense arrays (PR 6); `stations_[...]` access in a
//                        kernel file reintroduces the per-station object
//                        indirection the SoA refactor removed.
//   mutable-global-state Non-const namespace-scope / static-local mutable
//                        variables are banned: a federation shard must own
//                        its state, and a hidden global is cross-shard
//                        state nobody annotated.  The sanctioned globals
//                        (the MetricRegistry singleton, the log sinks)
//                        carry justified suppressions — the whitelist is
//                        the suppression list, auditable via
//                        --list-suppressions.
//   cross-shard-handle   Ring/engine code (wrtring/, tpt/) may not declare
//                        raw pointer/reference variables or fields to
//                        Engine / SlotKernel: a stored handle
//                        into another shard's mutable core bypasses the
//                        epoch-synchronized gateway-message path.  Handles
//                        to *own-shard* objects get a justified
//                        suppression.  Additionally, `*Frame` structs in
//                        ring code must be pure value types (no pointer or
//                        reference members): mailbox frames cross shard
//                        boundaries by design (PR 8), so a pointer member
//                        would smuggle a handle into another shard's epoch.
//   unguarded-shared-field
//                        Types registered as shared via
//                        `// wrt-lint-shared-type(Name): <why>` (anywhere
//                        in the scanned tree) must have every field atomic,
//                        const, a lock, annotated WRT_GUARDED_BY /
//                        WRT_PT_GUARDED_BY, or itself a registered shared
//                        type — the textual complement of Clang's
//                        -Wthread-safety pass.
//   recovery-side-effect Ring recovery has exactly one decision point: the
//                        RecoveryFsm (PR 10).  Direct calls to the engine's
//                        start_recovery / start_rebuild from anywhere else
//                        in wrtring/ bypass the guard window, WTR hold-off,
//                        and request de-duplication; the FSM's own
//                        dispatch sites carry justified suppressions.
//   unreferenced-api     A function, type or k-constant declared in a
//                        header under src/ whose name occurs nowhere but at
//                        its declaration and its out-of-line definition.
//                        Names are counted over every scanned file, so the
//                        gate scans every tree that can call src/.  Names
//                        match by spelling alone: a member that shares its
//                        name with a name used anywhere is not reported.
//                        Hooks that the language or a library calls by name
//                        carry justified suppressions.
//
// Files under a tests/ directory are read for name uses only: no rule
// reports findings in them, and lint fixtures (fixtures/ below a scanned
// directory) are skipped.
//
// Suppressions (a justification is mandatory):
//   // wrt-lint-allow(<rule>): <reason>        same line or line above
//   // wrt-lint-allow-file(<rule>): <reason>   whole file
//
// Usage: wrt_lint [--list-rules] [--list-suppressions] [dir-or-file ...]
// (default: src tools bench examples tests).  Exits 0 when clean, 1 when
// any finding survives suppression.  --list-suppressions dumps every
// active wrt-lint-allow with its justification and fails on suppressions
// naming a rule that no longer exists (stale-suppression rot).
//
// The scanner is textual by intent: it blanks comments and string literals
// and then works with regular expressions.  That keeps it dependency-free
// (no libclang in the container) and fast enough to run on every check.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string path;            // repo-relative, as given
  std::string raw;             // exact file content
  std::string code;            // comments + string literals blanked
  bool is_header = false;
  bool api_header = false;     // a header under src/
  bool uses_only = false;      // under tests/: read for name uses only
  // The functions, types and k-constants an API header declares, with
  // the line of each (unreferenced-api).
  std::vector<std::pair<std::string, std::size_t>> api_names;
  // rule -> raw lines carrying a justified wrt-lint-allow for it.
  std::map<std::string, std::set<std::size_t>> suppressed_lines;
  std::set<std::string> suppressed_rules;  // file-wide
};

const std::set<std::string> kRules = {
    "hot-path-assoc",       "hot-path-front-erase", "by-value-frame-param",
    "stale-include",        "missing-nodiscard",    "kernel-aos-access",
    "mutable-global-state", "cross-shard-handle",   "unguarded-shared-field",
    "recovery-side-effect", "unreferenced-api"};

/// Active suppression, for --list-suppressions.
struct Suppression {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string reason;
  bool file_wide = false;
};

/// Cross-file context built in a first pass over every input file: the
/// shared-type registrations the unguarded-shared-field rule checks, and
/// the name counts the unreferenced-api rule checks.
struct LintContext {
  std::set<std::string> shared_types;
  std::vector<Suppression> suppressions;
  // Every identifier's occurrences, and how many of them declare or
  // define the name rather than use it.
  std::map<std::string, std::size_t> name_occurrences;
  std::map<std::string, std::size_t> name_declarations;
};

// Files whose per-slot code, or the code every ring re-formation runs (the
// search and the CDMA code assignment), must stay free of associative
// lookups.  The slot kernel's link columns, busy-link bitmap and
// Send-eligibility bitmap run in every slot.
const std::vector<std::string> kHotPathFiles = {
    "wrtring/engine.hpp", "wrtring/engine.cpp",
    "wrtring/soa_kernel.hpp", "wrtring/soa_kernel.cpp",
    "traffic/traffic.hpp", "traffic/traffic.cpp",
    "traffic/source_set.hpp", "traffic/source_set.cpp",
    "traffic/trace.hpp",   "traffic/trace.cpp",
    "ring/frame.hpp",      "ring/frame.cpp",
    "ring/virtual_ring.hpp", "ring/virtual_ring.cpp",
    "cdma/code_assignment.hpp", "cdma/code_assignment.cpp",
    "fault/gilbert_elliott.hpp", "fault/gilbert_elliott.cpp"};

// Files implementing the slot-kernel passes: all per-station state must be
// reached through the SlotKernel arrays, never a station-object vector.
const std::vector<std::string> kKernelFiles = {
    "wrtring/engine.cpp", "wrtring/soa_kernel.hpp", "wrtring/soa_kernel.cpp"};

// stale-include table: header -> regex proving it is used.  Only headers
// whose entire API is reliably greppable belong here.
const std::vector<std::pair<std::string, std::string>> kIncludeUsage = {
    {"map", R"(std::(multi)?map\s*<)"},
    {"set", R"(std::(multi)?set\s*<)"},
    {"unordered_map", R"(std::unordered_(multi)?map\s*<)"},
    {"unordered_set", R"(std::unordered_(multi)?set\s*<)"},
    {"deque", R"(std::deque\s*<)"},
    {"queue", R"(std::(priority_)?queue\s*<)"},
    {"list", R"(std::(forward_)?list\s*<)"},
    {"optional",
     R"(std::optional|std::nullopt|std::make_optional|std::in_place)"},
    {"functional",
     R"(std::function\s*<|std::bind|std::invoke|std::ref\b|std::cref\b|)"
     R"(std::hash\s*<|std::plus|std::minus|std::less|std::greater)"},
    {"memory",
     R"(std::unique_ptr|std::shared_ptr|std::weak_ptr|std::make_unique|)"
     R"(std::make_shared|std::addressof|std::pmr|std::allocator\b)"},
    {"sstream", R"(std::[io]?stringstream)"},
};

std::size_t line_of(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() +
                            static_cast<std::ptrdiff_t>(offset), '\n'));
}

/// True when the ' at `at` separates digits of a number (1'000'000).
bool is_digit_separator(const std::string& text, std::size_t at) {
  std::size_t start = at;
  while (start > 0 && (std::isalnum(static_cast<unsigned char>(text[start - 1])) != 0 ||
                       text[start - 1] == '\'' || text[start - 1] == '_')) {
    --start;
  }
  return start < at && std::isdigit(static_cast<unsigned char>(text[start])) != 0;
}

/// Blanks //- and /* */-comments plus string and char literals with spaces
/// (newlines preserved so offsets keep mapping to the same lines).
std::string strip_comments_and_strings(const std::string& raw) {
  std::string out = raw;
  enum class State { kCode, kLine, kBlock, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' && !is_digit_separator(out, i)) {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

void parse_suppressions(SourceFile& file, LintContext& context,
                        std::vector<Finding>& findings) {
  // Rule names start with a letter, so the regex cannot match its own
  // source text (where "-file(" follows "allow") when tools/ lints itself.
  static const std::regex kAllow(
      R"(wrt-lint-allow(-file)?\(([a-z][a-z0-9-]*)\)\s*:?\s*(.*))");
  std::istringstream stream(file.raw);
  std::string line;
  for (std::size_t number = 1; std::getline(stream, line); ++number) {
    std::smatch match;
    if (!std::regex_search(line, match, kAllow)) continue;
    const bool file_wide = match[1].matched;
    const std::string rule = match[2].str();
    const std::string reason = match[3].str();
    if (kRules.find(rule) == kRules.end()) {
      findings.push_back({file.path, number, "lint-suppression",
                          "suppression names unknown rule '" + rule + "'"});
      continue;
    }
    if (reason.find_first_not_of(" \t") == std::string::npos) {
      findings.push_back({file.path, number, "lint-suppression",
                          "suppression for '" + rule +
                              "' lacks a justification"});
      continue;
    }
    context.suppressions.push_back({file.path, number, rule, reason,
                                    file_wide});
    if (file_wide) {
      file.suppressed_rules.insert(rule);
    } else {
      // Covers the annotated line and the one below it.
      file.suppressed_lines[rule].insert(number);
      file.suppressed_lines[rule].insert(number + 1);
    }
  }
}

/// Collects `// wrt-lint-shared-type(Name)` registrations: the classes the
/// unguarded-shared-field rule audits, declared next to their definition so
/// the shared-type list lives with the code it describes.
void parse_shared_types(const SourceFile& file, LintContext& context) {
  static const std::regex kSharedType(R"(wrt-lint-shared-type\((\w+)\))");
  for (auto it = std::sregex_iterator(file.raw.begin(), file.raw.end(),
                                      kSharedType);
       it != std::sregex_iterator(); ++it) {
    context.shared_types.insert((*it)[1].str());
  }
}

bool suppressed(const SourceFile& file, const std::string& rule,
                std::size_t line) {
  if (file.suppressed_rules.count(rule) != 0) return true;
  const auto it = file.suppressed_lines.find(rule);
  return it != file.suppressed_lines.end() && it->second.count(line) != 0;
}

void report(const SourceFile& file, const std::string& rule,
            std::size_t line, const std::string& message,
            std::vector<Finding>& findings) {
  if (!suppressed(file, rule, line)) {
    findings.push_back({file.path, line, rule, message});
  }
}

bool is_hot_path(const std::string& path) {
  for (const std::string& suffix : kHotPathFiles) {
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return true;
    }
  }
  return false;
}

void rule_hot_path_assoc(const SourceFile& file,
                         std::vector<Finding>& findings) {
  if (!is_hot_path(file.path)) return;
  static const std::regex kAssoc(
      R"((std::(unordered_)?(multi)?(map|set)\s*<)|(#\s*include\s*<(map|set|unordered_map|unordered_set)>))");
  for (auto it = std::sregex_iterator(file.code.begin(), file.code.end(),
                                      kAssoc);
       it != std::sregex_iterator(); ++it) {
    report(file, "hot-path-assoc",
           line_of(file.code, static_cast<std::size_t>(it->position())),
           "associative container '" + it->str() +
               "' in a hot-path file; use util::FlatMap, a dense "
               "position-indexed vector, or a sorted vector",
           findings);
  }
}

void rule_hot_path_front_erase(const SourceFile& file,
                               std::vector<Finding>& findings) {
  if (!is_hot_path(file.path)) return;
  // The container expression must repeat verbatim: x.erase(x.begin()) and
  // a->b.erase(a->b.begin()) match, x.erase(x.begin() + i) does not.
  static const std::regex kFrontErase(
      R"(\b([A-Za-z_]\w*(\s*(\.|->)\s*[A-Za-z_]\w*)*)\s*(\.|->)\s*)"
      R"(erase\s*\(\s*\1\s*\4\s*begin\s*\(\s*\)\s*\))");
  for (auto it = std::sregex_iterator(file.code.begin(), file.code.end(),
                                      kFrontErase);
       it != std::sregex_iterator(); ++it) {
    report(file, "hot-path-front-erase",
           line_of(file.code, static_cast<std::size_t>(it->position())),
           "front erase '" + it->str() +
               "' in a hot-path file shifts every later element; keep a "
               "bounded history in a fixed ring with a head index",
           findings);
  }
}

void rule_by_value_frame_param(const SourceFile& file,
                               std::vector<Finding>& findings) {
  static const std::regex kByValue(
      R"([(,]\s*(const\s+)?((\w+::)*)(Packet|LinkFrame)\s+(\w+)\s*[,)])");
  for (auto it = std::sregex_iterator(file.code.begin(), file.code.end(),
                                      kByValue);
       it != std::sregex_iterator(); ++it) {
    const std::smatch& match = *it;
    report(file, "by-value-frame-param",
           line_of(file.code, static_cast<std::size_t>(match.position())),
           "parameter '" + match[5].str() + "' takes " + match[4].str() +
               " by value; pass by (const) reference or rvalue reference",
           findings);
  }
}

void rule_stale_include(const SourceFile& file,
                        std::vector<Finding>& findings) {
  for (const auto& [header, usage] : kIncludeUsage) {
    const std::regex include_re("#\\s*include\\s*<" + header + ">");
    std::smatch include_match;
    if (!std::regex_search(file.code, include_match, include_re)) continue;
    if (std::regex_search(file.code, std::regex(usage))) continue;
    report(file, "stale-include",
           line_of(file.code,
                   static_cast<std::size_t>(include_match.position())),
           "<" + header + "> is included but nothing from it is used",
           findings);
  }
}

void rule_missing_nodiscard(const SourceFile& file,
                            std::vector<Finding>& findings) {
  if (!file.is_header) return;
  static const std::regex kConstAccessor(R"(\(\s*\)\s*const\b[^;{}]*[;{])");
  const std::string& code = file.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                      kConstAccessor);
       it != std::sregex_iterator(); ++it) {
    const auto open = static_cast<std::size_t>(it->position());
    // Back up to the start of the declaration (past the previous ';', '{'
    // or '}') to see the attributes and the return type.
    std::size_t start = code.find_last_of(";{}", open);
    start = start == std::string::npos ? 0 : start + 1;
    std::string decl = code.substr(start, open - start);
    // Drop a leading access specifier left in range.
    for (const char* spec : {"public:", "private:", "protected:"}) {
      const std::size_t at = decl.rfind(spec);
      if (at != std::string::npos) {
        decl = decl.substr(at + std::string(spec).size());
      }
    }
    if (decl.find("[[nodiscard]]") != std::string::npos) continue;
    if (decl.find("operator") != std::string::npos) continue;
    if (decl.find("friend") != std::string::npos) continue;
    if (decl.find("~") != std::string::npos) continue;
    // Name = last identifier before '('; everything before is the return
    // type.  A void return has nothing to discard.
    static const std::regex kName(R"((\w+)\s*$)");
    std::smatch name_match;
    if (!std::regex_search(decl, name_match, kName)) continue;
    const std::string name = name_match[1].str();
    const std::string return_part =
        decl.substr(0, static_cast<std::size_t>(name_match.position()));
    if (std::regex_search(return_part, std::regex(R"(\bvoid\b(?!\s*\*))"))) {
      continue;
    }
    if (return_part.find_first_not_of(" \t\n") == std::string::npos) {
      continue;  // constructor-like, nothing to discard
    }
    report(file, "missing-nodiscard", line_of(code, open),
           "zero-argument const accessor '" + name +
               "()' lacks [[nodiscard]]",
           findings);
  }
}

void rule_kernel_aos_access(const SourceFile& file,
                            std::vector<Finding>& findings) {
  bool kernel = false;
  for (const std::string& suffix : kKernelFiles) {
    if (file.path.size() >= suffix.size() &&
        file.path.compare(file.path.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
      kernel = true;
      break;
    }
  }
  if (!kernel) return;
  static const std::regex kAosAccess(R"(\bstations_\s*\[)");
  for (auto it = std::sregex_iterator(file.code.begin(), file.code.end(),
                                      kAosAccess);
       it != std::sregex_iterator(); ++it) {
    report(file, "kernel-aos-access",
           line_of(file.code, static_cast<std::size_t>(it->position())),
           "per-station object indexing 'stations_[...]' in a kernel file; "
           "go through the SlotKernel arrays instead",
           findings);
  }
}

/// recovery-side-effect: ring recovery decisions are owned by RecoveryFsm
/// (PR 10) — a direct start_recovery / start_rebuild call anywhere else in
/// wrtring/ skips the guard window, the WTR hold-off, and the request
/// de-duplication the FSM provides.  Declarations and the Engine method
/// definitions themselves (segments led by `void`) are not call sites; the
/// FSM's dispatch lines carry justified suppressions.  tpt/ is out of
/// scope: TptEngine::start_rebuild is a different, unrelated method.
void rule_recovery_side_effect(const SourceFile& file,
                               std::vector<Finding>& findings) {
  if (file.path.find("wrtring/") == std::string::npos) return;
  static const std::regex kCall(R"(\b(start_recovery|start_rebuild)\s*\()");
  const std::string& code = file.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kCall);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    // The statement segment before the name tells call from definition:
    // `void Engine::start_rebuild() {` / `void start_rebuild();` lead with
    // the return type, a call site never does.
    std::size_t start = code.find_last_of(";{}", at);
    start = start == std::string::npos ? 0 : start + 1;
    const std::string before = code.substr(start, at - start);
    if (std::regex_search(before, std::regex(R"(\bvoid\s*$|\bvoid\s+Engine\s*::\s*$)"))) {
      continue;
    }
    report(file, "recovery-side-effect", line_of(code, at),
           "direct '" + (*it)[1].str() +
               "' call outside RecoveryFsm — recovery decisions must go "
               "through the FSM (guard/WTR/de-dup); justify a suppression "
               "only for the FSM's own dispatch",
           findings);
  }
}

// --- shard-safety rules (PR 7) --------------------------------------------

/// True when the declaration segment contains any of the words that make a
/// `static`/global immutable or per-thread (and therefore shard-safe).
bool is_immutable_decl(const std::string& segment) {
  static const std::regex kImmutable(
      R"(\b(const|constexpr|constinit|thread_local)\b)");
  return std::regex_search(segment, kImmutable);
}

/// mutable-global-state, detector 1: `static` storage-duration variables at
/// any scope (static locals and static data members).  A declaration whose
/// first delimiter is '(' is a function or a direct-initialised object and
/// is skipped — parenthesised initialisers of mutable statics are rare
/// enough that the fixture covers the brace/equals forms only.
void rule_mutable_static(const SourceFile& file,
                         std::vector<Finding>& findings) {
  static const std::regex kStatic(R"(\bstatic\b)");
  const std::string& code = file.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kStatic);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    const std::size_t delim = code.find_first_of(";{(", at);
    if (delim == std::string::npos || code[delim] != ';') {
      if (delim == std::string::npos || code[delim] == '(') continue;
      // '{' first: brace-initialised static variable — still a static.
    }
    const std::size_t stop = std::min(delim, code.size());
    std::string segment = code.substr(at, stop - at);
    if (segment.find('(') != std::string::npos) continue;
    if (is_immutable_decl(segment)) continue;
    // The declarator name precedes any `= ...` initializer.
    const std::size_t init = segment.find('=');
    if (init != std::string::npos) segment = segment.substr(0, init);
    // Name = last identifier of the segment.
    static const std::regex kName(R"((\w+)\s*$)");
    std::smatch name;
    std::string trimmed = segment;
    const std::size_t end = trimmed.find_last_not_of(" \t\n");
    if (end != std::string::npos) trimmed = trimmed.substr(0, end + 1);
    if (!std::regex_search(trimmed, name, kName)) continue;
    if (name[1].str() == "static") continue;  // bare keyword (e.g. macros)
    report(file, "mutable-global-state", line_of(code, at),
           "mutable static '" + name[1].str() +
               "' — shards must own their state; make it const, "
               "thread_local, or justify a suppression",
           findings);
  }
}

/// mutable-global-state, detector 2: namespace-scope mutable globals.  The
/// repo writes namespace-scope declarations at column 0 (function bodies
/// and class members are indented), so the scan is line-anchored: a
/// column-0 declaration with no parentheses and no const/using/type-intro
/// keyword is a mutable global.
void rule_mutable_namespace_global(const SourceFile& file,
                                   std::vector<Finding>& findings) {
  static const std::regex kDecl(
      R"(^(?:inline\s+)?[A-Za-z_][\w:]*(?:\s*<[^;()]*>)?[\w:\s*&\[\]]*[\s*&](\w+)\s*(?:\{[^;]*\}|=[^;]*)?;)");
  static const std::regex kSkip(
      R"(^\s*(?:using|typedef|extern|template|friend|namespace|struct|class|enum|union|return|public|private|protected|#)\b)");
  std::istringstream stream(file.code);
  std::string line;
  std::size_t number = 0;
  while (std::getline(stream, line)) {
    ++number;
    if (line.empty() || std::isspace(static_cast<unsigned char>(line[0]))) {
      continue;
    }
    if (line.find('(') != std::string::npos) continue;
    if (std::regex_search(line, kSkip)) continue;
    if (is_immutable_decl(line)) continue;
    if (line.find("static") != std::string::npos) continue;  // detector 1
    std::smatch match;
    if (!std::regex_search(line, match, kDecl)) continue;
    report(file, "mutable-global-state", number,
           "mutable namespace-scope variable '" + match[1].str() +
               "' — shards must own their state; make it const, "
               "thread_local, or justify a suppression",
           findings);
  }
}

void rule_mutable_global_state(const SourceFile& file,
                               std::vector<Finding>& findings) {
  rule_mutable_static(file, findings);
  rule_mutable_namespace_global(file, findings);
}

/// cross-shard-handle applies to the ring/engine trees: a stored pointer or
/// reference to another shard's Engine or SlotKernel would let one worker
/// thread reach into a second shard's mutable core.
bool is_ring_code(const std::string& path) {
  return path.find("wrtring/") != std::string::npos ||
         path.find("tpt/") != std::string::npos;
}

/// cross-shard-handle, detector 2: `*Frame` structs in ring code must be
/// pure value types.  Mailbox frames cross shard boundaries by design
/// (wrtring/mailbox.hpp), so ANY pointer or reference member — not just
/// the Engine/SlotKernel pair — would hand the receiving shard a live
/// handle into the sender's mutable state.
void rule_frame_value_type(const SourceFile& file,
                           std::vector<Finding>& findings) {
  static const std::regex kFrameType(R"(\bstruct\s+(\w*Frame)\b[^;{]*\{)");
  const std::string& code = file.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kFrameType);
       it != std::sregex_iterator(); ++it) {
    const std::string type = (*it)[1].str();
    const auto body_open =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    // Walk the body like the shared-field rule: depth-1 statements are the
    // members; nested braces (methods, nested types) are skipped.
    int depth = 0;
    std::string statement;
    std::size_t statement_start = body_open;
    for (std::size_t i = body_open; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '{') {
        ++depth;
        if (depth == 2) statement.clear();
        continue;
      }
      if (c == '}') {
        --depth;
        if (depth == 0) break;
        if (depth == 1) {
          statement.clear();
          statement_start = i + 1;
        }
        continue;
      }
      if (depth != 1) continue;
      if (c == ';') {
        // Members only: methods / ctors carry parentheses.  Cut the
        // initializer so a '*' inside `= a * b` cannot false-positive; the
        // declarator's pointer/reference marker sits before the name.
        if (!statement.empty() &&
            statement.find('(') == std::string::npos) {
          std::string decl = statement;
          const std::size_t cut = decl.find_first_of("={");
          if (cut != std::string::npos) decl = decl.substr(0, cut);
          static const std::regex kPointerMember(R"([*&]+\s*(\w+)\s*$)");
          std::smatch member;
          if (std::regex_search(decl, member, kPointerMember)) {
            report(file, "cross-shard-handle",
                   line_of(code, statement_start),
                   "frame type '" + type + "' has pointer/reference member '" +
                       member[1].str() +
                       "' — mailbox frames cross shards and must be pure "
                       "value types",
                   findings);
          }
        }
        statement.clear();
        continue;
      }
      if (statement.empty()) {
        if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
        statement_start = i;
      }
      statement += c;
    }
  }
}

void rule_cross_shard_handle(const SourceFile& file,
                             std::vector<Finding>& findings) {
  if (!is_ring_code(file.path)) return;
  rule_frame_value_type(file, findings);
  static const std::regex kHandle(
      R"((?:\bconst\s+)?(?:\w+::)*\b(Engine|SlotKernel)\s*[*&]+\s*(\w+)\s*(?:=[^;{}()]*)?;)");
  const std::string& code = file.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kHandle);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    // Declaration statements only: the segment since the previous
    // ';'/'{'/'}' must not sit inside a parameter list (no parens).
    std::size_t start = code.find_last_of(";{}", at);
    start = start == std::string::npos ? 0 : start + 1;
    const std::string before = code.substr(start, at - start);
    if (before.find('(') != std::string::npos ||
        before.find(')') != std::string::npos) {
      continue;
    }
    report(file, "cross-shard-handle", line_of(code, at),
           "stored raw handle '" + (*it)[2].str() + "' to a " +
               (*it)[1].str() +
               " — inter-ring communication must use value-type gateway "
               "messages; same-shard handles need a justified suppression",
           findings);
  }
}

/// One depth-1 statement of a registered shared type's body: flag it when
/// it is a field with no visible concurrency contract.
void check_shared_field(const SourceFile& file, const std::string& type,
                        const std::string& statement, std::size_t offset,
                        const LintContext& context,
                        std::vector<Finding>& findings) {
  std::string decl = statement;
  // Access specifiers share the statement slot with the first declaration
  // after them; strip them.
  static const std::regex kAccess(R"(\b(public|private|protected)\s*:)");
  decl = std::regex_replace(decl, kAccess, "");
  const std::size_t first = decl.find_first_not_of(" \t\n");
  if (first == std::string::npos) return;
  decl = decl.substr(first);
  static const std::regex kNotAField(
      R"(^(?:using|typedef|friend|template|static_assert|struct|class|enum|union)\b)");
  if (std::regex_search(decl, kNotAField)) return;
  const bool annotated =
      decl.find("WRT_GUARDED_BY") != std::string::npos ||
      decl.find("WRT_PT_GUARDED_BY") != std::string::npos;
  std::string probe = decl;
  static const std::regex kAnnotation(R"(WRT(_PT)?_GUARDED_BY\s*\([^)]*\))");
  probe = std::regex_replace(probe, kAnnotation, "");
  if (probe.find('(') != std::string::npos) return;  // method, ctor, =default
  static const std::regex kField(R"((\w+)\s*(?:\{[^;]*\}|=[^;]*)?$)");
  std::smatch name;
  if (!std::regex_search(probe, name, kField)) return;
  if (annotated || is_immutable_decl(probe)) return;
  static const std::regex kSyncType(
      R"(atomic|Mutex|mutex|once_flag|condition_variable)");
  if (std::regex_search(probe, kSyncType)) return;
  for (const std::string& shared : context.shared_types) {
    if (probe.find(shared) != std::string::npos) return;
  }
  report(file, "unguarded-shared-field", line_of(file.code, offset),
         "field '" + name[1].str() + "' of shared type '" + type +
             "' has no concurrency annotation — make it atomic/const, "
             "guard it with WRT_GUARDED_BY, or justify a suppression",
         findings);
}

/// unguarded-shared-field: every field of a registered shared type must
/// carry a concurrency story the analyser can see.
void rule_unguarded_shared_field(const SourceFile& file,
                                 const LintContext& context,
                                 std::vector<Finding>& findings) {
  if (context.shared_types.empty()) return;
  // alignas(...) is the one paren construct legitimate in a field decl;
  // blank it (preserving offsets) so the function-vs-field test stays "has
  // parentheses".
  std::string code = file.code;
  static const std::regex kAlignas(R"(\balignas\s*\([^)]*\))");
  for (std::smatch match;
       std::regex_search(code, match, kAlignas);) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(match.length());
         ++i) {
      char& c = code[static_cast<std::size_t>(match.position()) + i];
      if (c != '\n') c = ' ';
    }
  }
  for (const std::string& type : context.shared_types) {
    const std::regex class_re("(?:class|struct)\\s+(?:[A-Za-z_]\\w*\\s+)*" +
                              type + "\\b[^;{]*\\{");
    std::smatch class_match;
    std::string::const_iterator search_from = code.cbegin();
    if (!std::regex_search(search_from, code.cend(), class_match, class_re)) {
      continue;
    }
    const auto body_open =
        static_cast<std::size_t>(class_match.position() +
                                 class_match.length()) - 1;
    // Walk the class body: statements at depth 1 are member declarations;
    // nested braces (inline method bodies, nested types) are skipped, and
    // returning to depth 1 resets the statement so a field following an
    // inline body is still seen.
    int depth = 0;
    std::string statement;
    std::size_t statement_start = body_open;
    for (std::size_t i = body_open; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '{') {
        ++depth;
        if (depth == 2) statement.clear();
        continue;
      }
      if (c == '}') {
        --depth;
        if (depth == 0) break;
        if (depth == 1) {
          statement.clear();
          statement_start = i + 1;
        }
        continue;
      }
      if (depth != 1) continue;
      if (c == ';') {
        if (!statement.empty()) {
          check_shared_field(file, type, statement, statement_start,
                             context, findings);
        }
        statement.clear();
        continue;
      }
      if (statement.empty()) {
        if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
        statement_start = i;
      }
      statement += c;
    }
  }
}

// --- unreferenced-api -------------------------------------------------------

/// How one occurrence of a name stands.  Only an unqualified declaration
/// of a function, type or k-constant in an API header is reported when the
/// name has no use.
enum class NameRole { kUse, kDeclaration, kFunction, kType, kConstant };

const std::set<std::string> kKeywords = {
    "alignas", "alignof", "asm", "auto", "bool", "break", "case", "catch",
    "char", "class", "co_await", "co_return", "co_yield", "concept", "const",
    "const_cast", "consteval", "constexpr", "constinit", "continue",
    "decltype", "default", "delete", "do", "double", "dynamic_cast", "else",
    "enum", "explicit", "extern", "false", "final", "float", "for", "friend",
    "goto", "if", "inline", "int", "long", "mutable", "namespace", "new",
    "noexcept", "nullptr", "operator", "override", "private", "protected",
    "public", "register", "reinterpret_cast", "requires", "return", "short",
    "signed", "sizeof", "static", "static_assert", "static_cast", "struct",
    "switch", "template", "this", "thread_local", "throw", "true", "try",
    "typedef", "typeid", "typename", "union", "unsigned", "using", "virtual",
    "void", "volatile", "while"};

/// Words that make the name after them part of an expression.
const std::set<std::string> kExpressionWords = {
    "return", "else", "throw", "new", "delete", "case", "goto", "do",
    "co_return", "co_yield", "co_await", "sizeof", "namespace", "operator",
    "using"};

/// Words that may stand before a constructor's name.
const std::set<std::string> kCtorPrefixWords = {
    "static", "inline", "constexpr", "consteval", "explicit", "virtual",
    "friend", "extern", "public", "private", "protected"};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t skip_space_forward(const std::string& code, std::size_t at) {
  while (at < code.size() &&
         std::isspace(static_cast<unsigned char>(code[at])) != 0) {
    ++at;
  }
  return at;
}

/// One past the last non-space character before `at` (0 when none).
std::size_t skip_space_back(const std::string& code, std::size_t at) {
  while (at > 0 && std::isspace(static_cast<unsigned char>(code[at - 1])) != 0) {
    --at;
  }
  return at;
}

/// True when `word` stands at `at` as a whole word.
bool word_at(const std::string& code, std::size_t at, std::string_view word) {
  return code.compare(at, word.size(), word) == 0 &&
         (at + word.size() >= code.size() ||
          !is_ident_char(code[at + word.size()]));
}

/// The identifiers of `text`, in order.
std::vector<std::string> words_of(const std::string& text) {
  std::vector<std::string> words;
  for (std::size_t i = 0; i < text.size();) {
    if (!is_ident_char(text[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && is_ident_char(text[end])) ++end;
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      words.push_back(text.substr(i, end - i));
    }
    i = end;
  }
  return words;
}

bool is_k_constant(const std::string& name) {
  return name.size() > 1 && name[0] == 'k' &&
         std::isupper(static_cast<unsigned char>(name[1])) != 0;
}

/// A constructor's spelling: starts upper case and is not an ALL_CAPS macro.
bool is_camel_case(const std::string& name) {
  return std::isupper(static_cast<unsigned char>(name[0])) != 0 &&
         std::any_of(name.begin(), name.end(), [](char c) {
           return std::islower(static_cast<unsigned char>(c)) != 0;
         });
}

bool on_preprocessor_line(const std::string& code, std::size_t at) {
  const std::size_t newline = at == 0 ? std::string::npos
                                      : code.find_last_of('\n', at - 1);
  const std::size_t first = code.find_first_not_of(
      " \t", newline == std::string::npos ? 0 : newline + 1);
  return first != std::string::npos && first < at && code[first] == '#';
}

/// The declaration text in front of `at`: from the previous ';', '{' or
/// '}', without preprocessor lines, [[attributes]] and a template header.
std::string declaration_prefix(const std::string& code, std::size_t at) {
  std::size_t start =
      at == 0 ? std::string::npos : code.find_last_of(";{}", at - 1);
  start = start == std::string::npos ? 0 : start + 1;
  std::string prefix;
  std::istringstream lines(code.substr(start, at - start));
  for (std::string line; std::getline(lines, line);) {
    const std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '#') continue;
    prefix += line;
    prefix += '\n';
  }
  for (std::size_t open; (open = prefix.find("[[")) != std::string::npos;) {
    const std::size_t close = prefix.find("]]", open);
    prefix.erase(open, close == std::string::npos ? std::string::npos
                                                  : close + 2 - open);
  }
  const std::size_t first = prefix.find_first_not_of(" \t\n");
  if (first != std::string::npos && word_at(prefix, first, "template")) {
    int depth = 0;
    for (std::size_t i = first; i < prefix.size(); ++i) {
      if (prefix[i] == '<') ++depth;
      if (prefix[i] == '>' && --depth == 0) {
        prefix.erase(0, i + 1);
        break;
      }
    }
  }
  return prefix;
}

/// Classifies the name at [begin, end) of `code`.  A qualified name
/// `A::B::c` is judged as a whole: by the character after its last name
/// and by the text in front of its first.
NameRole classify(const std::string& code, std::size_t begin,
                  std::size_t end) {
  std::string last(code, begin, end - begin);
  if (kKeywords.count(last) != 0) return NameRole::kUse;
  // The chain in front: `A::B::` (or `A::~`) before this name.
  std::size_t head = begin;
  std::size_t at = skip_space_back(code, head);
  bool destructor = at > 0 && code[at - 1] == '~';
  if (destructor) head = at - 1;
  bool qualified = false;
  for (;;) {
    at = skip_space_back(code, head);
    if (at < 2 || code[at - 1] != ':' || code[at - 2] != ':') break;
    qualified = true;
    const std::size_t word_end = skip_space_back(code, at - 2);
    std::size_t word = word_end;
    while (word > 0 && is_ident_char(code[word - 1])) --word;
    head = word < word_end ? word : at - 2;
    if (word == word_end) break;  // `Foo<T>::name` or a leading `::`
  }
  // The chain behind: `::c` (or `::~C`) after this name.
  bool tail = false;
  std::size_t after = skip_space_forward(code, end);
  while (after + 1 < code.size() && code[after] == ':' &&
         code[after + 1] == ':') {
    tail = true;
    at = skip_space_forward(code, after + 2);
    destructor = at < code.size() && code[at] == '~';
    if (destructor) at = skip_space_forward(code, at + 1);
    std::size_t word_end = at;
    while (word_end < code.size() && is_ident_char(code[word_end])) ++word_end;
    if (word_end == at) return NameRole::kUse;
    last.assign(code, at, word_end - at);
    after = skip_space_forward(code, word_end);
  }
  if (kKeywords.count(last) != 0) return NameRole::kUse;
  const char next = after < code.size() ? code[after] : '\0';
  const bool final_next = word_at(code, after, "final");
  if (std::string_view("({=;[:").find(next) == std::string_view::npos &&
      !final_next) {
    return NameRole::kUse;
  }

  const std::string prefix = declaration_prefix(code, head);
  const std::vector<std::string> words = words_of(prefix);
  const std::size_t trimmed = skip_space_back(prefix, prefix.size());
  const bool ends_in_word = trimmed > 0 && is_ident_char(prefix[trimmed - 1]);
  const std::string last_word =
      ends_in_word && !words.empty() ? words.back() : std::string();
  const bool scoped = qualified || tail;

  if (last_word == "struct" || last_word == "class" || last_word == "union" ||
      last_word == "enum") {
    const bool declares =
        next == '{' || next == ';' || next == ':' || final_next;
    if (!declares) return NameRole::kUse;
    return scoped ? NameRole::kDeclaration : NameRole::kType;
  }
  if (last_word == "using") {
    return next == '=' && !scoped ? NameRole::kType : NameRole::kUse;
  }
  if (next == ':' || final_next) return NameRole::kUse;
  for (const std::string& word : words) {
    if (kExpressionWords.count(word) != 0) return NameRole::kUse;
  }
  if (prefix.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstu"
                               "vwxyz0123456789_:<>,*& \t\n") !=
      std::string::npos) {
    return NameRole::kUse;
  }
  const bool bare = std::all_of(words.begin(), words.end(), [](const auto& w) {
    return kCtorPrefixWords.count(w) != 0;
  });
  if (bare) {
    // A constructor or destructor declaration; otherwise a call statement.
    return next == '(' && (destructor || is_camel_case(last))
               ? NameRole::kDeclaration
               : NameRole::kUse;
  }
  const bool after_type =
      ends_in_word || (trimmed > 0 && std::string_view(">*&").find(
                                          prefix[trimmed - 1]) !=
                                          std::string_view::npos);
  if (!after_type) return NameRole::kUse;
  if (scoped || destructor) return NameRole::kDeclaration;
  if (next == '(') return NameRole::kFunction;
  return is_k_constant(last) ? NameRole::kConstant : NameRole::kDeclaration;
}

/// Offsets of the enumerator names in every enum body of `code`.
std::set<std::size_t> enumerator_offsets(const std::string& code) {
  static const std::regex kEnumBody(
      R"(\benum\b(?:\s+(?:class|struct))?(?:\s+\w+)?\s*(?::[^;{}]*)?\{)");
  std::set<std::size_t> offsets;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kEnumBody);
       it != std::sregex_iterator(); ++it) {
    int depth = 0;
    bool item_start = true;
    for (auto i = static_cast<std::size_t>(it->position() + it->length());
         i < code.size(); ++i) {
      const char c = code[i];
      if (c == '{' || c == '(') {
        ++depth;
      } else if (c == '}' || c == ')') {
        if (depth-- == 0) break;
      } else if (depth == 0 && c == ',') {
        item_start = true;
      } else if (item_start &&
                 std::isspace(static_cast<unsigned char>(c)) == 0) {
        if (is_ident_char(c)) offsets.insert(i);
        item_start = false;
      }
    }
  }
  return offsets;
}

/// Counts every identifier of `file` into the context and records the
/// functions, types and k-constants an API header declares.
void scan_names(SourceFile& file, LintContext& context) {
  const std::string& code = file.code;
  const std::set<std::size_t> enumerators = enumerator_offsets(code);
  for (std::size_t i = 0; i < code.size();) {
    if (!is_ident_char(code[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < code.size() && is_ident_char(code[end])) ++end;
    if (std::isdigit(static_cast<unsigned char>(code[i])) != 0) {
      i = end;  // a number literal
      continue;
    }
    const std::string name = code.substr(i, end - i);
    ++context.name_occurrences[name];
    NameRole role = NameRole::kUse;
    if (enumerators.count(i) != 0) {
      role = is_k_constant(name) ? NameRole::kConstant : NameRole::kDeclaration;
    } else if (!on_preprocessor_line(code, i)) {
      role = classify(code, i, end);
    }
    if (role != NameRole::kUse) ++context.name_declarations[name];
    if (file.api_header && role != NameRole::kUse &&
        role != NameRole::kDeclaration) {
      file.api_names.emplace_back(name, line_of(code, i));
    }
    i = end;
  }
}

/// unreferenced-api: a function, type or k-constant that an API header
/// declares and that no scanned file names anywhere else.
void rule_unreferenced_api(const SourceFile& file, const LintContext& context,
                           std::vector<Finding>& findings) {
  std::set<std::string> seen;
  for (const auto& [name, line] : file.api_names) {
    if (!seen.insert(name).second) continue;
    if (context.name_occurrences.at(name) >
        context.name_declarations.at(name)) {
      continue;
    }
    report(file, "unreferenced-api", line,
           "'" + name +
               "' is named only where it is declared or defined; delete it, "
               "or justify a suppression for a hook the language or a "
               "library calls by name",
           findings);
  }
}

/// One input file and where it sits below its scan root.
struct Input {
  fs::path path;
  bool under_src = false;    // below a src/ directory
  bool under_tests = false;  // below a tests/ directory
};

bool load(const Input& input, SourceFile& file, LintContext& context,
          std::vector<Finding>& findings) {
  std::ifstream in(input.path, std::ios::binary);
  if (!in) {
    std::cerr << "wrt_lint: cannot read " << input.path << '\n';
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  file.path = input.path.generic_string();
  file.raw = buffer.str();
  file.code = strip_comments_and_strings(file.raw);
  file.is_header =
      input.path.extension() == ".hpp" || input.path.extension() == ".h";
  file.uses_only = input.under_tests;
  file.api_header = file.is_header && input.under_src && !file.uses_only;
  if (!file.uses_only) {
    parse_suppressions(file, context, findings);
    parse_shared_types(file, context);
  }
  scan_names(file, context);
  return true;
}

/// Adds the source files below `root`.  Where a file sits (under src/,
/// under tests/) is read from the root's own name down, never from the
/// directories above the root, so the checkout's location cannot change a
/// finding.  Lint fixtures are skipped unless named as a root.
void collect(const fs::path& root, std::vector<Input>& files) {
  if (fs::is_regular_file(root)) {
    files.push_back({root});
    return;
  }
  fs::path base = root.lexically_normal();
  if (!base.has_filename()) base = base.parent_path();
  const fs::path top = base.filename();
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    const fs::path& p = it->path();
    if (it->is_directory() && p.filename() == "fixtures") {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file()) continue;
    if (p.extension() != ".hpp" && p.extension() != ".cpp" &&
        p.extension() != ".h") {
      continue;
    }
    Input input{p, top == "src", top == "tests"};
    for (const fs::path& part : p.lexically_relative(root).parent_path()) {
      input.under_src = input.under_src || part == "src";
      input.under_tests = input.under_tests || part == "tests";
    }
    files.push_back(input);
  }
  std::sort(files.begin(), files.end(),
            [](const Input& a, const Input& b) { return a.path < b.path; });
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  bool list_suppressions = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& rule : kRules) std::cout << rule << '\n';
      return 0;
    }
    if (arg == "--list-suppressions") {
      list_suppressions = true;
      continue;
    }
    roots.emplace_back(arg);
  }
  if (roots.empty()) {
    for (const char* root : {"src", "tools", "bench", "examples", "tests"}) {
      roots.emplace_back(root);
    }
  }

  std::vector<Input> files;
  for (const fs::path& root : roots) {
    if (!fs::exists(root)) {
      std::cerr << "wrt_lint: no such path: " << root << '\n';
      return 2;
    }
    collect(root, files);
  }

  // Pass 1: load everything — suppressions and shared-type registrations
  // are cross-file context the rules need before any file is judged.
  std::vector<Finding> findings;
  LintContext context;
  std::vector<SourceFile> sources(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!load(files[i], sources[i], context, findings)) return 2;
  }

  if (list_suppressions) {
    // Audit mode: every active suppression with its justification.  The
    // unknown-rule / missing-justification findings recorded during the
    // load pass still gate, so a suppression naming a retired rule rots
    // loudly instead of silently.
    for (const Suppression& s : context.suppressions) {
      std::cout << s.path << ':' << s.line << ": ["
                << (s.file_wide ? "file" : "line") << "] " << s.rule << ": "
                << s.reason << '\n';
    }
    std::cout << "wrt_lint: " << context.suppressions.size()
              << " active suppression(s)\n";
    for (const Finding& finding : findings) {
      std::cout << finding.path << ':' << finding.line << ": ["
                << finding.rule << "] " << finding.message << '\n';
    }
    return findings.empty() ? 0 : 1;
  }

  // Pass 2: the rules.
  for (SourceFile& file : sources) {
    if (file.uses_only) continue;
    rule_hot_path_assoc(file, findings);
    rule_hot_path_front_erase(file, findings);
    rule_by_value_frame_param(file, findings);
    rule_stale_include(file, findings);
    rule_missing_nodiscard(file, findings);
    rule_kernel_aos_access(file, findings);
    rule_recovery_side_effect(file, findings);
    rule_mutable_global_state(file, findings);
    rule_cross_shard_handle(file, findings);
    rule_unguarded_shared_field(file, context, findings);
    rule_unreferenced_api(file, context, findings);
  }

  for (const Finding& finding : findings) {
    std::cout << finding.path << ':' << finding.line << ": ["
              << finding.rule << "] " << finding.message << '\n';
  }
  if (findings.empty()) {
    std::cout << "wrt_lint: clean (" << files.size() << " files)\n";
    return 0;
  }
  std::cout << "wrt_lint: " << findings.size() << " finding(s) in "
            << files.size() << " files\n";
  return 1;
}
