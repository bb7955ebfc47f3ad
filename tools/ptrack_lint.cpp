// ptrack_lint: allocation-discipline and convention linter for src/
// (DESIGN.md §15). A deliberately lexer-level tool — no compiler frontend,
// no build graph — so it runs in milliseconds as a ctest and a CI job and
// never needs a compilation database. It tokenizes each translation unit
// (comments and literals stripped), tracks brace scopes well enough to know
// the enclosing function of every token, and enforces five rules:
//
//   alloc       In hot-path TUs (core/stages.cpp, dsp/*.cpp,
//               imu/sample_ring.cpp, runtime/*.cpp, net/*.cpp except the
//               chaos test clients and the http/admin control plane) no
//               `new`, `make_unique`/`make_shared`
//               or container-growth call (push_back, emplace_back, resize,
//               reserve, insert, emplace, assign) may appear outside a
//               constructor body (reserved setup). Steady-state growth into
//               pre-reserved scratch is legal but must carry an explicit
//               reviewed annotation (see directives below) so every such
//               site names its amortization argument.
//   span-name   Every PTRACK_OBS_SPAN argument must be a single string
//               literal of the form ptrack.<layer>.<name> (>= 3 dot-
//               separated lowercase segments) — non-literal names defeat
//               the obs trace viewer's aggregation.
//   entry-check Every public entry point defined in core/*.cpp (top-level,
//               outside anonymous namespaces) must contain a precondition
//               guard: expects(), PTRACK_CHECK or PTRACK_CHECK_MSG.
//   header      Every header has #pragma once and no `using namespace`.
//   log-key     Every PTRACK_LOG / PTRACK_LOG_<LEVEL> call site names its
//               subsystem and event with literal snake_case strings, and
//               every kv() inside the call carries a literal snake_case
//               key — computed names defeat grep and log indexing.
//
// Suppression directives (line comments, reviewed in code review like any
// other line):
//   // ptrack-lint: allow(rule[,rule]) [reason]     this line and the next
//   // ptrack-lint: push-allow(rule) [reason]       until the matching pop
//   // ptrack-lint: pop-allow(rule)
//
// Usage: ptrack_lint <path>... [--report <file.json>] [--dump-functions]
// Exits 0 when clean, 1 when findings exist, 2 on usage/IO errors. The
// JSON report is machine-readable: {"findings":[{file,line,rule,message}],
// "files_scanned":N, "clean":bool}.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Findings and suppression directives

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules = {"alloc", "span-name",
                                             "entry-check", "header",
                                             "log-key"};
  return rules;
}

struct Directives {
  // allow(...) on line L suppresses findings on L and L+1.
  std::map<std::size_t, std::set<std::string>> allow_lines;
  // Closed push/pop ranges per rule: [push_line, pop_line].
  std::vector<std::pair<std::string, std::pair<std::size_t, std::size_t>>>
      ranges;

  bool allows(const std::string& rule, std::size_t line) const {
    for (std::size_t l : {line, line == 0 ? line : line - 1}) {
      auto it = allow_lines.find(l);
      if (it != allow_lines.end() && it->second.count(rule) != 0) return true;
    }
    for (const auto& [r, span] : ranges) {
      if (r == rule && line >= span.first && line <= span.second) return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Lexer: comments and literals stripped, preprocessor lines skipped.

enum class Tok { kIdent, kNumber, kPunct, kString, kChar };

struct Token {
  Tok kind;
  std::string text;  // literal content for kString (quotes removed)
  std::size_t line;
};

struct LexedFile {
  std::vector<Token> tokens;
  Directives directives;
  bool has_pragma_once = false;
  std::vector<Finding> directive_findings;  // malformed/unbalanced directives
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Parses the text of one `// ptrack-lint: ...` comment into the directive
// tables. `open` tracks currently unclosed push-allow lines per rule.
void parse_directive(const std::string& file, std::size_t line,
                     std::string_view body, LexedFile& out,
                     std::map<std::string, std::vector<std::size_t>>& open) {
  const auto fail = [&](const std::string& msg) {
    out.directive_findings.push_back({file, line, "directive", msg});
  };
  // body starts right after "ptrack-lint:"; expect <verb>(<rules>) [reason]
  std::size_t i = 0;
  while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i]))) {
    ++i;
  }
  std::size_t v = i;
  while (v < body.size() && (ident_char(body[v]) || body[v] == '-')) ++v;
  const std::string verb(body.substr(i, v - i));
  if (verb != "allow" && verb != "push-allow" && verb != "pop-allow") {
    fail("unknown ptrack-lint directive '" + verb + "'");
    return;
  }
  if (v >= body.size() || body[v] != '(') {
    fail("ptrack-lint " + verb + " needs a (rule) list");
    return;
  }
  const std::size_t close = body.find(')', v);
  if (close == std::string_view::npos) {
    fail("unterminated rule list in ptrack-lint " + verb);
    return;
  }
  std::vector<std::string> rules;
  std::string cur;
  for (std::size_t k = v + 1; k < close; ++k) {
    const char c = body[k];
    if (c == ',') {
      if (!cur.empty()) rules.push_back(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) rules.push_back(cur);
  if (rules.empty()) {
    fail("empty rule list in ptrack-lint " + verb);
    return;
  }
  for (const std::string& r : rules) {
    if (known_rules().count(r) == 0) {
      fail("unknown lint rule '" + r + "'");
      continue;
    }
    if (verb == "allow") {
      out.directives.allow_lines[line].insert(r);
    } else if (verb == "push-allow") {
      open[r].push_back(line);
    } else {  // pop-allow
      auto& stack = open[r];
      if (stack.empty()) {
        fail("pop-allow(" + r + ") without a matching push-allow");
      } else {
        out.directives.ranges.push_back({r, {stack.back(), line}});
        stack.pop_back();
      }
    }
  }
}

LexedFile lex(const std::string& file, const std::string& text) {
  LexedFile out;
  std::map<std::string, std::vector<std::size_t>> open_pushes;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  bool at_line_start = true;  // only whitespace so far on this line

  const auto newline = [&] {
    ++line;
    at_line_start = true;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor line: skip wholesale (macro bodies may have unbalanced
    // braces); remember #pragma once. Honors backslash continuations.
    if (c == '#' && at_line_start) {
      std::string pp;
      while (i < n) {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (text[i] == '\n') break;
        pp.push_back(text[i]);
        ++i;
      }
      std::string squashed;
      for (char pc : pp) {
        if (std::isspace(static_cast<unsigned char>(pc)) == 0) {
          squashed.push_back(pc);
        }
      }
      if (squashed == "#pragmaonce") out.has_pragma_once = true;
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t e = i + 2;
      while (e < n && text[e] != '\n') ++e;
      std::string_view body(text.data() + i + 2, e - (i + 2));
      // Doc comments use /// — strip extra slashes before matching.
      while (!body.empty() && body.front() == '/') body.remove_prefix(1);
      std::size_t s = 0;
      while (s < body.size() &&
             std::isspace(static_cast<unsigned char>(body[s])) != 0) {
        ++s;
      }
      body.remove_prefix(s);
      constexpr std::string_view kTag = "ptrack-lint:";
      if (body.substr(0, kTag.size()) == kTag) {
        parse_directive(file, line, body.substr(kTag.size()), out,
                        open_pushes);
      }
      i = e;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    // String and char literals (escape-aware; raw strings are not used in
    // this codebase and are not handled).
    if (c == '"' || c == '\'') {
      const char quote = c;
      const std::size_t start_line = line;
      std::string content;
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) {
          content.push_back(text[i]);
          content.push_back(text[i + 1]);
          i += 2;
          continue;
        }
        if (text[i] == '\n') ++line;  // unterminated; keep line count sane
        content.push_back(text[i]);
        ++i;
      }
      if (i < n) ++i;  // closing quote
      out.tokens.push_back({quote == '"' ? Tok::kString : Tok::kChar,
                            std::move(content), start_line});
      continue;
    }
    if (ident_start(c)) {
      std::size_t e = i + 1;
      while (e < n && ident_char(text[e])) ++e;
      out.tokens.push_back({Tok::kIdent, text.substr(i, e - i), line});
      i = e;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t e = i + 1;
      while (e < n && (ident_char(text[e]) || text[e] == '.' ||
                       ((text[e] == '+' || text[e] == '-') &&
                        (text[e - 1] == 'e' || text[e - 1] == 'E')))) {
        ++e;
      }
      out.tokens.push_back({Tok::kNumber, text.substr(i, e - i), line});
      i = e;
      continue;
    }
    // Multi-char punctuation the scope tracker cares about.
    if (c == ':' && i + 1 < n && text[i + 1] == ':') {
      out.tokens.push_back({Tok::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && text[i + 1] == '>') {
      out.tokens.push_back({Tok::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back({Tok::kPunct, std::string(1, c), line});
    ++i;
  }
  for (const auto& [rule, stack] : open_pushes) {
    for (std::size_t l : stack) {
      out.directive_findings.push_back(
          {file, l, "directive",
           "push-allow(" + rule + ") never closed by pop-allow"});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scope tracking: classify each `{` so rules know the enclosing function.

enum class ScopeKind { kPlain, kNamespace, kAnonNamespace, kType, kFunction };

struct Scope {
  ScopeKind kind;
  std::string name;       // function or namespace/type name when known
  std::size_t name_line;  // line of the defining identifier
};

bool is_control_keyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype";
}

// Finds the index of the token that opens the group closed at `close`
// (matching ')' -> '(', '}' -> '{', '>' -> '<'). Returns npos on failure.
std::size_t match_back(const std::vector<Token>& t, std::size_t close,
                       const char* open_s, const char* close_s) {
  int depth = 0;
  for (std::size_t j = close + 1; j-- > 0;) {
    if (t[j].kind != Tok::kPunct) continue;
    if (t[j].text == close_s) ++depth;
    if (t[j].text == open_s) {
      --depth;
      if (depth == 0) return j;
    }
  }
  return static_cast<std::size_t>(-1);
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// Walks back from index `p` over a qualified name chain (A::B<T>::name),
// writing the dot-free qualified name. Returns the index of the first token
// of the chain, or kNpos if t[p] is not an identifier.
std::size_t name_chain_back(const std::vector<Token>& t, std::size_t p,
                            std::string* name_out) {
  if (t[p].kind != Tok::kIdent) return kNpos;
  std::string name = t[p].text;
  std::size_t first = p;
  while (first > 0 && t[first - 1].kind == Tok::kPunct &&
         t[first - 1].text == "::") {
    std::size_t q = first - 2;  // token before the ::
    if (q == kNpos) break;
    if (t[q].kind == Tok::kPunct && t[q].text == ">") {
      const std::size_t lt = match_back(t, q, "<", ">");
      if (lt == kNpos || lt == 0 || t[lt - 1].kind != Tok::kIdent) break;
      name = t[lt - 1].text + "::" + name;
      first = lt - 1;
    } else if (t[q].kind == Tok::kIdent) {
      name = t[q].text + "::" + name;
      first = q;
    } else {
      break;
    }
  }
  *name_out = name;
  return first;
}

// Classifies the `{` at token index i. A best-effort heuristic that is
// exact for this codebase's style (out-of-line methods, ctor init lists
// with parens, lambdas, trailing return types); anything unrecognized
// degrades to kPlain, which only ever relaxes the rules, never tightens.
Scope classify_brace(const std::vector<Token>& t, std::size_t i) {
  if (i == 0) return {ScopeKind::kPlain, "", t[i].line};
  std::size_t j = i - 1;

  if (t[j].kind == Tok::kIdent) {
    if (t[j].text == "namespace") {
      return {ScopeKind::kAnonNamespace, "", t[j].line};
    }
    if (j > 0 && t[j - 1].kind == Tok::kIdent &&
        t[j - 1].text == "namespace") {
      return {ScopeKind::kNamespace, t[j].text, t[j].line};
    }
    // class/struct/enum/union heading: scan back a bounded distance over
    // name, base-class list and template-argument tokens.
    for (std::size_t back = 0, k = j; back < 48 && k != kNpos; ++back, --k) {
      const Token& tk = t[k];
      if (tk.kind == Tok::kIdent) {
        if (tk.text == "class" || tk.text == "struct" ||
            tk.text == "union" || tk.text == "enum") {
          return {ScopeKind::kType, t[j].text, t[j].line};
        }
        if (tk.text == "namespace") {
          return {ScopeKind::kNamespace, t[j].text, t[j].line};
        }
      } else if (tk.kind == Tok::kPunct &&
                 (tk.text == ";" || tk.text == "}" || tk.text == "{" ||
                  tk.text == ")")) {
        break;
      }
      if (k == 0) break;
    }
    return {ScopeKind::kPlain, "", t[i].line};
  }

  // Walk back over function decorators / ctor init lists toward the
  // parameter list, resolving the function name.
  for (int hops = 0; hops < 64; ++hops) {
    if (j == kNpos) return {ScopeKind::kPlain, "", t[i].line};
    const Token& tk = t[j];
    if (tk.kind == Tok::kIdent) {
      if (tk.text == "const" || tk.text == "noexcept" ||
          tk.text == "override" || tk.text == "final" ||
          tk.text == "mutable" || tk.text == "try") {
        --j;
        continue;
      }
      // Trailing return type: scan back to the `->`.
      std::size_t k = j;
      for (std::size_t back = 0; back < 48 && k != kNpos; ++back, --k) {
        if (t[k].kind == Tok::kPunct && t[k].text == "->") {
          break;
        }
        if (t[k].kind == Tok::kPunct &&
            (t[k].text == ";" || t[k].text == "{" || t[k].text == "}")) {
          k = kNpos;
          break;
        }
        if (k == 0) k = kNpos;
      }
      if (k == kNpos || t[k].text != "->") {
        return {ScopeKind::kPlain, "", t[i].line};
      }
      j = k - 1;
      continue;
    }
    if (tk.kind != Tok::kPunct) return {ScopeKind::kPlain, "", t[i].line};
    if (tk.text == "&" || tk.text == "*" || tk.text == ">" ||
        tk.text == "<") {
      --j;
      continue;
    }
    if (tk.text == "}") {  // brace member-init in a ctor init list
      const std::size_t ob = match_back(t, j, "{", "}");
      if (ob == kNpos || ob == 0) return {ScopeKind::kPlain, "", t[i].line};
      j = ob - 1;
      // Expect the member name, then continue past the , or : below.
      std::string ignored;
      const std::size_t first = name_chain_back(t, j, &ignored);
      if (first == kNpos) return {ScopeKind::kPlain, "", t[i].line};
      j = first == 0 ? kNpos : first - 1;
      if (j != kNpos && t[j].kind == Tok::kPunct &&
          (t[j].text == ":" || t[j].text == ",")) {
        --j;
        continue;
      }
      return {ScopeKind::kPlain, "", t[i].line};
    }
    if (tk.text != ")") return {ScopeKind::kPlain, "", t[i].line};
    const std::size_t op = match_back(t, j, "(", ")");
    if (op == kNpos || op == 0) return {ScopeKind::kPlain, "", t[i].line};
    std::size_t p = op - 1;
    if (t[p].kind == Tok::kPunct && t[p].text == "]") {
      // Lambda introducer: the body belongs to the enclosing function.
      return {ScopeKind::kPlain, "", t[i].line};
    }
    if (t[p].kind == Tok::kIdent && t[p].text == "noexcept") {
      j = p - 1;
      continue;
    }
    if (t[p].kind == Tok::kIdent && is_control_keyword(t[p].text)) {
      return {ScopeKind::kPlain, "", t[i].line};
    }
    std::string name;
    std::size_t first = name_chain_back(t, p, &name);
    if (first == kNpos) return {ScopeKind::kPlain, "", t[i].line};
    // operator overloads: name_chain lands on `operator` or the symbol
    // after it; normalize to "...::operator".
    if (first > 0 && t[first - 1].kind == Tok::kIdent &&
        t[first - 1].text == "operator") {
      std::string qual;
      first = name_chain_back(t, first - 1, &qual);
      name = qual;
    }
    // Destructor: ~ right before the final name component.
    if (first > 0 && t[first - 1].kind == Tok::kPunct &&
        t[first - 1].text == "~") {
      name.insert(name.rfind(':') == std::string::npos
                      ? 0
                      : name.rfind(':') + 1,
                  "~");
      --first;
    }
    const std::size_t before = first == 0 ? kNpos : first - 1;
    if (before != kNpos && t[before].kind == Tok::kPunct &&
        (t[before].text == ":" || t[before].text == ",")) {
      // This was a ctor-init-list member; keep walking toward the real
      // parameter list.
      j = before - 1;
      continue;
    }
    return {ScopeKind::kFunction, name, t[p].line};
  }
  return {ScopeKind::kPlain, "", t[i].line};
}

bool in_anon_namespace(const std::vector<Scope>& stack) {
  return std::any_of(stack.begin(), stack.end(), [](const Scope& s) {
    return s.kind == ScopeKind::kAnonNamespace;
  });
}

const Scope* enclosing_function(const std::vector<Scope>& stack) {
  for (std::size_t k = stack.size(); k-- > 0;) {
    if (stack[k].kind == ScopeKind::kFunction) return &stack[k];
  }
  return nullptr;
}

// A::B::B and plain T (aggregate-like ctor name T::T only) — the blanket
// "reserved setup" exemption for the alloc rule.
bool is_constructor_name(const std::string& name) {
  const std::size_t pos = name.rfind("::");
  if (pos == std::string::npos) return false;
  const std::string last = name.substr(pos + 2);
  const std::string prev_rest = name.substr(0, pos);
  const std::size_t prev_pos = prev_rest.rfind("::");
  const std::string prev =
      prev_pos == std::string::npos ? prev_rest : prev_rest.substr(prev_pos + 2);
  return !last.empty() && last == prev;
}

// ---------------------------------------------------------------------------
// Rules

bool is_hot_path_tu(const std::string& generic_path) {
  const auto ends_with = [&](std::string_view suffix) {
    return generic_path.size() >= suffix.size() &&
           std::string_view(generic_path).substr(generic_path.size() -
                                                 suffix.size()) == suffix;
  };
  if (ends_with("core/stages.cpp")) return true;
  if (ends_with("imu/sample_ring.cpp")) return true;
  if (!ends_with(".cpp")) return false;
  if (generic_path.find("dsp/") != std::string::npos) return true;
  // The scheduler's steady state (submission, claiming) must be
  // allocation-free after warm-up: the lane FIFOs are pre-sized in
  // constructors and their one growth site is annotated.
  if (generic_path.find("runtime/") != std::string::npos) return true;
  // The ingest reactor's steady state must also be allocation-free. The
  // chaos test clients (blocking test support) and the HTTP admin control
  // plane (one bounded allocation burst per scrape, off the ingest path)
  // are deliberately exempt.
  return generic_path.find("net/") != std::string::npos &&
         !ends_with("net/chaos.cpp") && !ends_with("net/http.cpp") &&
         !ends_with("net/admin.cpp");
}

bool is_growth_call(const std::string& name) {
  static const std::set<std::string> kGrowth = {
      "push_back", "emplace_back", "resize",
      "reserve",   "insert",       "emplace",
      "assign"};
  return kGrowth.count(name) != 0;
}

/// Log subsystems, events and kv keys: non-empty [a-z0-9_]+.
bool valid_log_key(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c)) == 0 &&
        std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

bool valid_span_name(const std::string& name) {
  std::size_t segments = 0;
  std::size_t seg_len = 0;
  for (char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;
      ++segments;
      seg_len = 0;
      continue;
    }
    if ((std::islower(static_cast<unsigned char>(c)) == 0 &&
         std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '_')) {
      return false;
    }
    ++seg_len;
  }
  if (seg_len == 0) return false;
  ++segments;
  return segments >= 3 && name.rfind("ptrack.", 0) == 0;
}

struct LintOptions {
  bool dump_functions = false;
};

void lint_file(const fs::path& path, const std::string& rel,
               const LintOptions& opt, std::vector<Finding>& findings,
               std::vector<Finding>& raw) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  const LexedFile lexed = lex(rel, text);
  for (const Finding& f : lexed.directive_findings) raw.push_back(f);

  const bool is_header = rel.size() >= 4 &&
                         rel.compare(rel.size() - 4, 4, ".hpp") == 0;
  const bool core_cpp = rel.find("core/") != std::string::npos &&
                        !is_header;
  const bool hot_tu = is_hot_path_tu(rel);
  const std::vector<Token>& t = lexed.tokens;

  // header rule -------------------------------------------------------------
  if (is_header) {
    if (!lexed.has_pragma_once) {
      raw.push_back({rel, 1, "header", "header is missing #pragma once"});
    }
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind == Tok::kIdent && t[i].text == "using" &&
          t[i + 1].kind == Tok::kIdent && t[i + 1].text == "namespace") {
        raw.push_back({rel, t[i].line, "header",
                       "`using namespace` in a header leaks into every "
                       "includer"});
      }
    }
  }

  // Scope-tracking pass: alloc, span-name and entry-check in one sweep.
  std::vector<Scope> stack;
  struct PendingEntry {
    std::string name;
    std::size_t line;
    std::size_t depth;  // stack depth of the function scope
    bool has_check = false;
    std::size_t body_tokens = 0;
  };
  // Trivial forwarding bodies (getters, poll-style delegators) carry no
  // preconditions of their own; demanding a guard there would only breed
  // noise annotations. Anything with real logic exceeds this quickly.
  constexpr std::size_t kTrivialBodyTokens = 48;
  std::vector<PendingEntry> entries;

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind == Tok::kPunct && tok.text == "{") {
      Scope s = classify_brace(t, i);
      stack.push_back(s);
      if (s.kind == ScopeKind::kFunction) {
        if (opt.dump_functions) {
          std::cerr << rel << ":" << s.name_line << " function " << s.name
                    << (in_anon_namespace(stack) ? " (anon)" : "") << "\n";
        }
        // entry-check: top-level named functions in core/*.cpp outside
        // anonymous namespaces. Lambdas and local helpers never reach here
        // (lambdas classify kPlain; nested types are excluded below).
        bool nested = false;
        for (std::size_t k = 0; k + 1 < stack.size(); ++k) {
          if (stack[k].kind == ScopeKind::kFunction ||
              stack[k].kind == ScopeKind::kType) {
            nested = true;
          }
        }
        if (core_cpp && !nested && !in_anon_namespace(stack) &&
            s.name.find("operator") == std::string::npos &&
            s.name.find('~') == std::string::npos) {
          entries.push_back({s.name, s.name_line, stack.size(), false});
        }
      }
      continue;
    }
    if (tok.kind == Tok::kPunct && tok.text == "}") {
      if (!stack.empty()) {
        if (!entries.empty() && entries.back().depth == stack.size() &&
            stack.back().kind == ScopeKind::kFunction) {
          const PendingEntry e = entries.back();
          entries.pop_back();
          if (!e.has_check && e.body_tokens > kTrivialBodyTokens) {
            raw.push_back({rel, e.line, "entry-check",
                           "public core entry point '" + e.name +
                               "' has no expects()/PTRACK_CHECK guard"});
          }
        }
        stack.pop_back();
      }
      continue;
    }
    if (!entries.empty()) ++entries.back().body_tokens;
    if (tok.kind != Tok::kIdent) continue;

    // entry-check satisfaction.
    if ((tok.text == "expects" || tok.text == "PTRACK_CHECK" ||
         tok.text == "PTRACK_CHECK_MSG") &&
        !entries.empty()) {
      entries.back().has_check = true;
    }

    // span-name rule.
    if (tok.text == "PTRACK_OBS_SPAN") {
      const bool open_paren = i + 1 < t.size() &&
                              t[i + 1].kind == Tok::kPunct &&
                              t[i + 1].text == "(";
      if (!open_paren) continue;  // macro definition itself
      if (i + 2 >= t.size() || t[i + 2].kind != Tok::kString) {
        raw.push_back({rel, tok.line, "span-name",
                       "PTRACK_OBS_SPAN argument must be a string literal"});
      } else if (!valid_span_name(t[i + 2].text)) {
        raw.push_back({rel, tok.line, "span-name",
                       "span name '" + t[i + 2].text +
                           "' does not match ptrack.<layer>.<name>"});
      }
    }

    // log-key rule: scoped to one PTRACK_LOG* argument list so `kv` as an
    // ordinary identifier elsewhere (the overload definitions in obs/log)
    // is never confused with a call-site key.
    if (tok.text == "PTRACK_LOG" || tok.text == "PTRACK_LOG_TRACE" ||
        tok.text == "PTRACK_LOG_DEBUG" || tok.text == "PTRACK_LOG_INFO" ||
        tok.text == "PTRACK_LOG_WARN" || tok.text == "PTRACK_LOG_ERROR") {
      const bool open_paren = i + 1 < t.size() &&
                              t[i + 1].kind == Tok::kPunct &&
                              t[i + 1].text == "(";
      if (!open_paren) continue;  // macro definition itself
      // Plain PTRACK_LOG carries the level as argument 1, pushing the
      // event to argument 2; the leveled wrappers bake the level in.
      const std::size_t event_arg = tok.text == "PTRACK_LOG" ? 2 : 1;
      std::size_t depth = 1;
      std::size_t arg_index = 0;
      bool at_arg_start = true;
      for (std::size_t j = i + 2; j < t.size() && depth > 0; ++j) {
        const Token& tj = t[j];
        if (tj.kind == Tok::kPunct) {
          if (tj.text == "(") ++depth;
          if (tj.text == ")") --depth;
          if (tj.text == "," && depth == 1) {
            ++arg_index;
            at_arg_start = true;
            continue;
          }
        }
        if (at_arg_start && depth == 1 &&
            (arg_index == 0 || arg_index == event_arg)) {
          if (tj.kind != Tok::kString || !valid_log_key(tj.text)) {
            raw.push_back(
                {rel, tok.line, "log-key",
                 std::string(arg_index == 0 ? "subsystem" : "event") +
                     " of " + tok.text +
                     " must be a literal snake_case string"});
          }
        }
        at_arg_start = false;
        if (tj.kind == Tok::kIdent && tj.text == "kv" && j + 1 < t.size() &&
            t[j + 1].kind == Tok::kPunct && t[j + 1].text == "(") {
          if (j + 2 >= t.size() || t[j + 2].kind != Tok::kString ||
              !valid_log_key(t[j + 2].text)) {
            raw.push_back({rel, t[j].line, "log-key",
                           "kv() key must be a literal snake_case string"});
          }
        }
      }
    }

    // alloc rule (hot-path TUs only).
    if (!hot_tu) continue;
    const Scope* fn = enclosing_function(stack);
    const bool in_ctor = fn != nullptr && is_constructor_name(fn->name);
    if (in_ctor) continue;  // reserved setup
    const auto flag = [&](const std::string& what) {
      raw.push_back({rel, tok.line, "alloc",
                     what + " in hot-path TU outside constructor setup" +
                         (fn != nullptr ? " (in " + fn->name + ")" : "")});
    };
    if (tok.text == "new") {
      const bool op_new = i > 0 && t[i - 1].kind == Tok::kIdent &&
                          t[i - 1].text == "operator";
      if (!op_new) flag("`new` expression");
      continue;
    }
    if (tok.text == "make_unique" || tok.text == "make_shared") {
      flag("`" + tok.text + "` call");
      continue;
    }
    if (is_growth_call(tok.text)) {
      const bool member_call =
          i > 0 && t[i - 1].kind == Tok::kPunct &&
          (t[i - 1].text == "." || t[i - 1].text == "->");
      const bool called = i + 1 < t.size() &&
                          ((t[i + 1].kind == Tok::kPunct &&
                            t[i + 1].text == "(") ||
                           (t[i + 1].kind == Tok::kPunct &&
                            t[i + 1].text == "<"));
      if (member_call && called) {
        flag("container-growth call `" + tok.text + "`");
      }
    }
  }

  // Apply suppressions.
  for (Finding& f : raw) {
    if (f.rule == "directive" || !lexed.directives.allows(f.rule, f.line)) {
      findings.push_back(std::move(f));
    }
  }
  raw.clear();
}

// ---------------------------------------------------------------------------
// Report

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_report(std::ostream& os, const std::vector<Finding>& findings,
                  std::size_t files_scanned) {
  os << "{\n  \"files_scanned\": " << files_scanned
     << ",\n  \"clean\": " << (findings.empty() ? "true" : "false")
     << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i == 0 ? "\n" : ",\n")
       << "    {\"file\": \"" << json_escape(f.file) << "\", \"line\": "
       << f.line << ", \"rule\": \"" << json_escape(f.rule)
       << "\", \"message\": \"" << json_escape(f.message) << "\"}";
  }
  os << (findings.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  std::string report_path;
  LintOptions opt;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--report") {
      if (a + 1 >= argc) {
        std::cerr << "ptrack_lint: --report needs a path\n";
        return 2;
      }
      report_path = argv[++a];
    } else if (arg == "--dump-functions") {
      opt.dump_functions = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ptrack_lint: unknown option " << arg << "\n";
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "usage: ptrack_lint <path>... [--report <file.json>]\n";
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      std::cerr << "ptrack_lint: no such path: " << root << "\n";
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  std::vector<Finding> scratch;
  for (const fs::path& f : files) {
    lint_file(f, f.generic_string(), opt, findings, scratch);
  }

  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  std::cout << "ptrack_lint: " << files.size() << " files, "
            << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s") << "\n";

  if (!report_path.empty()) {
    std::ofstream rep(report_path);
    if (!rep.is_open()) {
      std::cerr << "ptrack_lint: cannot write report to " << report_path
                << "\n";
      return 2;
    }
    write_report(rep, findings, files.size());
  }
  return findings.empty() ? 0 : 1;
}
