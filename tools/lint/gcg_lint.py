#!/usr/bin/env python3
"""gcg_lint: project-specific static analysis for the gcgpu sources.

Rules (see docs/CORRECTNESS.md for the rationale):

  raw-mmap        no direct mmap/munmap/madvise/mincore calls outside
                  src/store/ — page-level lifetime must go through
                  store::Mapping so fallback, hints, and unmap stay in
                  one audited place.
  raw-process     no direct fork/vfork/exec*/posix_spawn calls anywhere —
                  every job is colored inside one process, so nothing in
                  the tree starts a child process.
  raw-simd        no <immintrin.h>-family includes or _mm*/__m* vector
                  intrinsics outside src/util/simd.* — SIMD must go
                  through gcg::simd so runtime dispatch, the scalar
                  fallback, and the GCG_FORCE_SCALAR escape hatch stay
                  in one audited place (and every call site stays
                  bit-identical to the scalar path by construction).
  raw-mutex       no std::mutex/std::lock_guard/std::unique_lock/
                  std::condition_variable (or the unannotated lowercase
                  sync::mutex/sync::condition_variable aliases) in
                  src/par/, src/svc/, src/store/ — locking
                  there must go through the capability-annotated
                  sync::Mutex / sync::LockGuard / sync::CondVar wrappers
                  (util/sync.hpp) so clang Thread Safety Analysis sees
                  every acquisition.
  raw-narrow      no integer-target static_cast in the conversion-clean
                  core (src/graph/, src/par/, src/svc/, src/store/,
                  src/check/, src/util/) outside
                  util/narrow.hpp — every cross-width or cross-sign
                  integer conversion must be a named, greppable call:
                  gcg::narrow<T> (checked value-preserving) or
                  gcg::narrow_cast<T> (documented-lossy). The compiler
                  rejects the implicit conversions (-Werror=conversion);
                  this rule closes the "just static_cast it" escape.
  lossy-comment   every `narrow_cast<` site must carry a `// lossy:`
                  justification, with the same placement rules as
                  `// order:` below — a lossy conversion is a design
                  decision, and the reader deserves the reason.
  order-comment   every `memory_order_*` site must carry an `// order:`
                  justification — on the same line, in an `// order:`
                  comment above it with no blank line in between (one
                  comment may cover a contiguous annotated block, e.g. a
                  Chase-Lev pop sequence; max 10 lines of reach), or on
                  a later line of the same statement (multi-line call
                  sites: the comment may sit on the closing line).
  include-cycle   the quoted-include graph of src/ must be acyclic.
  naked-new       no `new` expressions outside smart-pointer factories.
  naked-delete    no `delete` expressions (`= delete` declarations are fine).
  rand            no `rand()` / `srand()` — use util/rng.hpp generators.
  sync-seam       the concurrent core (src/par/, src/svc/, src/util/
                  stress.*) must spell atomics through the sync:: seam
                  (util/sync.hpp) so the model checker can swap them:
                  no direct std::atomic / std::atomic_flag /
                  std::atomic_thread_fence there. std::atomic_ref is
                  deliberately allowed (the seam does not alias it).
  thread-detach   no `.detach()` — every thread must be joined.
  volatile        no `volatile` — it is not a synchronization primitive;
                  use std::atomic.

Suppressions (a justification is mandatory):

  some_code();  // lint: allow(naked-new) interop with C API that frees it
  // lint: allow-next-line(volatile) memory-mapped register access
  volatile uint32_t* reg = ...;

Usage:
  gcg_lint.py [--root DIR] [PATHS...]   lint src/ (default) or PATHS
  gcg_lint.py --self-test               run the built-in rule tests
"""

import argparse
import os
import re
import sys
import tempfile

TOKEN_RULES = {
    "naked-new": (
        re.compile(r"(?<![\w.])new\b"),
        "naked `new` — use std::make_unique/std::vector instead",
    ),
    "naked-delete": (
        # `= delete` declarations are erased before matching (see lint_file).
        re.compile(r"(?<![\w.])delete\b"),
        "naked `delete` — ownership must live in a smart pointer/container",
    ),
    "rand": (
        re.compile(r"(?<![\w.:])s?rand\s*\("),
        "rand()/srand() — use the seeded generators in util/rng.hpp",
    ),
    "thread-detach": (
        re.compile(r"\.\s*detach\s*\(\s*\)"),
        "thread detach — detached threads outlive their invariants; join",
    ),
    "volatile": (
        re.compile(r"(?<!\w)volatile\b"),
        "volatile is not a synchronization primitive — use std::atomic",
    ),
}

ORDER_RULE = "order-comment"
CYCLE_RULE = "include-cycle"
SEAM_RULE = "sync-seam"
MMAP_RULE = "raw-mmap"
PROC_RULE = "raw-process"
SIMD_RULE = "raw-simd"
MUTEX_RULE = "raw-mutex"
NARROW_RULE = "raw-narrow"
LOSSY_RULE = "lossy-comment"
ALL_RULES = sorted(list(TOKEN_RULES) +
                   [ORDER_RULE, CYCLE_RULE, SEAM_RULE, MMAP_RULE, PROC_RULE,
                    SIMD_RULE, MUTEX_RULE, NARROW_RULE, LOSSY_RULE])

# sync-seam: matches std::atomic, std::atomic_flag, std::atomic_thread_fence
# but NOT std::atomic_ref / std::atomic_signal_fence (outside the seam) —
# the optional suffix must consume `_flag`/`_thread_fence` entirely or the
# trailing \b rejects the partial-word match.
SEAM_TOKEN = re.compile(r"\bstd\s*::\s*atomic(?:_flag|_thread_fence)?\b")
SEAM_SCOPE = re.compile(r"(^|/)src/(par|svc)/|(^|/)src/util/stress\.")
SEAM_MESSAGE = ("direct std:: atomic in the concurrent core — spell it "
                "sync:: (util/sync.hpp) so the model checker can swap it")

# raw-mmap: the store owns every page-table interaction. Call-shaped
# matches only (`mmap(...)`) so identifiers like `my_mmap` or prose in
# comments (already stripped) don't fire.
MMAP_TOKEN = re.compile(r"(?<![\w.:])(?:mmap64|mmap|munmap|madvise|mincore)\s*\(")
MMAP_SCOPE_OK = re.compile(r"(^|/)src/store/")
MMAP_MESSAGE = ("raw mmap/munmap/madvise/mincore outside src/store/ — go "
                "through store::Mapping so lifetime, fallback, and paging "
                "hints stay in one place")

# raw-process: no path is exempt. Call-shaped matches, with an optional
# global-scope `::` (the `(?<![\w.:])` guard still rejects
# `std::system`-style qualified names and members).
PROC_TOKEN = re.compile(
    r"(?<![\w.:])(?:::\s*)?"
    r"(?:fork|vfork|execl|execle|execlp|execv|execve|execvp|execvpe|"
    r"posix_spawnp?)\s*\(")
PROC_MESSAGE = ("raw fork/exec — every job is colored in one process; "
                "nothing in the tree starts a child process")

# raw-simd: gcg::simd owns every vector intrinsic. Matches the intrinsic
# headers (<immintrin.h> and friends, <arm_neon.h>), call-shaped _mm*/
# _mm256*/_mm512* intrinsics, and the __m128/__m256/__m512 vector types.
# The (?<![\w.:]) guard keeps identifiers like `my_mm256_add` quiet.
SIMD_TOKEN = re.compile(
    r"#\s*include\s*<(?:[a-z0-9_]*intrin|arm_neon|arm_sve)\.h>"
    r"|(?<![\w.:])_mm(?:256|512)?_\w+\s*\("
    r"|(?<!\w)__m(?:64|128|256|512)[a-z]*\b")
SIMD_SCOPE_OK = re.compile(r"(^|/)src/util/simd\.")
SIMD_MESSAGE = ("raw SIMD intrinsics outside src/util/simd.* — go through "
                "gcg::simd so runtime dispatch, the scalar fallback, and "
                "GCG_FORCE_SCALAR stay in one audited place")

# raw-mutex: the annotated directories must lock through the
# capability-annotated wrappers. Matches the std:: lockables/guards AND
# the unannotated lowercase seam aliases (sync::mutex /
# sync::condition_variable — those exist for the wrappers' internals,
# not for call sites). sync::Mutex/LockGuard/CondVar are capitalized, so
# the lowercase-only alternation leaves them alone.
MUTEX_TOKEN = re.compile(
    r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b"
    r"|\bsync\s*::\s*(?:mutex|condition_variable)\b")
MUTEX_SCOPE = re.compile(r"(^|/)src/(par|svc|store)/")
MUTEX_MESSAGE = ("raw mutex/lock in the annotated core — use sync::Mutex / "
                 "sync::LockGuard / sync::CondVar (util/sync.hpp) so clang "
                 "thread safety analysis sees every acquisition")

# raw-narrow: the conversion-clean core spells every integer conversion
# through gcg::narrow / gcg::narrow_cast (util/narrow.hpp, the one exempt
# file). The type alternation names every integer type the tree uses —
# a static_cast to a type NOT listed here (double, enums, pointers) is
# not an integer narrowing and stays legal. The trailing `\s*>` rejects
# pointer targets (`static_cast<int*>`).
NARROW_INT_TYPE = (
    r"(?:un)?signed(?:\s+(?:char|short|int|long(?:\s+long)?))?"
    r"|short|long\s+long|long|int"
    r"|char8_t|char16_t|char32_t|wchar_t|char"
    r"|u?int(?:8|16|32|64|max|ptr)_t"
    r"|u?int_(?:fast|least)(?:8|16|32|64)_t"
    r"|size_t|ssize_t|ptrdiff_t|streamoff|streamsize"
    r"|off_t|pid_t|mode_t|time_t|socklen_t|in_port_t|sa_family_t"
    r"|vid_t|eid_t|color_t")
NARROW_TOKEN = re.compile(
    r"static_cast\s*<\s*(?:const\s+)?(?:(?:std|gcg)\s*::\s*)?"
    r"(?:" + NARROW_INT_TYPE + r")\s*>")
NARROW_SCOPE = re.compile(
    r"(^|/)src/(graph|par|svc|store|check|util)/")
NARROW_SCOPE_OK = re.compile(r"(^|/)src/util/narrow\.")
NARROW_MESSAGE = ("integer-target static_cast in the conversion-clean core "
                  "— spell it gcg::narrow<T> (checked) or "
                  "gcg::narrow_cast<T> (documented-lossy), util/narrow.hpp")

# lossy-comment: narrow_cast sites justify WHY losing bits is correct,
# with the same placement rules as `// order:`.
LOSSY_TOKEN = re.compile(r"\bnarrow_cast\s*<")
LOSSY_COMMENT = re.compile(r"//\s*lossy:")
LOSSY_MESSAGE = ("narrow_cast without a `// lossy:` justification — say why "
                 "truncation/wrapping is the intended semantic")

ORDER_TOKEN = re.compile(r"\bmemory_order_\w+")
ORDER_COMMENT = re.compile(r"//\s*order:")
ORDER_REACH = 10  # max lines an // order: comment covers downward

SUPPRESS_RE = re.compile(
    r"//\s*lint:\s*(allow|allow-next-line)\(([\w\-, ]+)\)\s*(.*)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Blank out comments and string/char literals, preserving line
    structure, so token rules don't fire on prose. Returns a list of
    code-only lines."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append(" ")
                i += 1
            elif c == "/" and nxt == "*":
                state = "block-comment"
                out.append(" ")
                i += 1
            elif c == '"':
                state = "string"
                out.append(" ")
            elif c == "'":
                state = "char"
                out.append(" ")
            else:
                out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(" ")
                if nxt != "\n":
                    out.append(" " if nxt != "\n" else nxt)
                    i += 1
            elif c == quote:
                state = "code"
                out.append(" ")
            elif c == "\n":  # unterminated — bail out of the literal
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out).split("\n")


def suppressions(raw_lines):
    """Map line number (1-based) -> set of rules suppressed there.
    Returns (map, findings-for-bad-suppressions)."""
    allowed = {}
    bad = []
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            if "lint:" in line and ("allow(" in line or "allow-next-line(" in line):
                bad.append((idx, "malformed lint suppression"))
            continue
        kind, rules_str, reason = m.groups()
        rules = {r.strip() for r in rules_str.split(",") if r.strip()}
        unknown = rules - set(ALL_RULES)
        if unknown:
            bad.append((idx, f"suppression names unknown rule(s): "
                             f"{', '.join(sorted(unknown))}"))
            continue
        if not reason.strip():
            bad.append((idx, f"suppression of {', '.join(sorted(rules))} "
                             "has no justification"))
            continue
        target = idx if kind == "allow" else idx + 1
        allowed.setdefault(target, set()).update(rules)
    return allowed, bad


def justification_covered(raw_lines, code_lines, lineno, comment_re):
    """True if the site at 1-based `lineno` carries the justification
    comment `comment_re` demands: on the same line, above it within reach
    (no blank line in between), or — for a call split across lines — on a
    later line of the same statement (up to the `;` that ends it)."""
    if comment_re.search(raw_lines[lineno - 1]):
        return True
    for back in range(1, ORDER_REACH + 1):
        j = lineno - 1 - back
        if j < 0:
            break
        line = raw_lines[j]
        if not line.strip():
            break  # blank line ends the annotated block
        if comment_re.search(line):
            return True
    # Downward within the same statement: a multi-line call site may
    # carry its justification on the closing line. `;` in the *code*
    # (strings/comments stripped) ends the statement.
    j = lineno - 1
    for _ in range(ORDER_REACH):
        if ";" in code_lines[j]:
            return False  # statement ended without a justification
        j += 1
        if j >= len(raw_lines) or not raw_lines[j].strip():
            return False
        if comment_re.search(raw_lines[j]):
            return True
    return False


def lint_file(path, raw_text):
    raw_lines = raw_text.split("\n")
    code_lines = strip_code(raw_text)
    allowed, bad_suppressions = suppressions(raw_lines)
    findings = [Finding(path, ln, "lint-suppression", msg)
                for ln, msg in bad_suppressions]

    in_seam_scope = bool(SEAM_SCOPE.search(path.replace(os.sep, "/")))
    in_store_scope = bool(MMAP_SCOPE_OK.search(path.replace(os.sep, "/")))
    in_simd_scope = bool(SIMD_SCOPE_OK.search(path.replace(os.sep, "/")))
    in_mutex_scope = bool(MUTEX_SCOPE.search(path.replace(os.sep, "/")))
    in_narrow_scope = (
        bool(NARROW_SCOPE.search(path.replace(os.sep, "/"))) and
        not NARROW_SCOPE_OK.search(path.replace(os.sep, "/")))

    for idx, (raw, code) in enumerate(zip(raw_lines, code_lines), start=1):
        # Deleted special members (`= delete`) are not delete expressions.
        code = re.sub(r"=\s*delete\b", "", code)
        here = allowed.get(idx, set())
        for rule, (pattern, message) in TOKEN_RULES.items():
            if pattern.search(code) and rule not in here:
                findings.append(Finding(path, idx, rule, message))
        if in_seam_scope and SEAM_RULE not in here and SEAM_TOKEN.search(code):
            findings.append(Finding(path, idx, SEAM_RULE, SEAM_MESSAGE))
        if (not in_store_scope and MMAP_RULE not in here
                and MMAP_TOKEN.search(code)):
            findings.append(Finding(path, idx, MMAP_RULE, MMAP_MESSAGE))
        if PROC_RULE not in here and PROC_TOKEN.search(code):
            findings.append(Finding(path, idx, PROC_RULE, PROC_MESSAGE))
        if (not in_simd_scope and SIMD_RULE not in here
                and SIMD_TOKEN.search(code)):
            findings.append(Finding(path, idx, SIMD_RULE, SIMD_MESSAGE))
        if (in_mutex_scope and MUTEX_RULE not in here
                and MUTEX_TOKEN.search(code)):
            findings.append(Finding(path, idx, MUTEX_RULE, MUTEX_MESSAGE))
        if (in_narrow_scope and NARROW_RULE not in here
                and NARROW_TOKEN.search(code)):
            findings.append(Finding(path, idx, NARROW_RULE, NARROW_MESSAGE))
        if LOSSY_TOKEN.search(code) and LOSSY_RULE not in here:
            if not justification_covered(raw_lines, code_lines, idx,
                                         LOSSY_COMMENT):
                findings.append(Finding(path, idx, LOSSY_RULE, LOSSY_MESSAGE))
        if ORDER_TOKEN.search(code) and ORDER_RULE not in here:
            if not justification_covered(raw_lines, code_lines, idx,
                                         ORDER_COMMENT):
                findings.append(Finding(
                    path, idx, ORDER_RULE,
                    "memory_order use without an `// order:` justification"))
    return findings


def find_include_cycles(files_by_rel):
    """files_by_rel: {include-path: source text}. Returns list of cycles,
    each a list of include paths."""
    graph = {}
    for rel, text in files_by_rel.items():
        deps = []
        for line in text.split("\n"):
            m = INCLUDE_RE.match(line)
            if m and m.group(1) in files_by_rel:
                deps.append(m.group(1))
        graph[rel] = deps

    cycles = []
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {rel: WHITE for rel in graph}
    stack = []

    def dfs(u):
        color[u] = GRAY
        stack.append(u)
        for v in graph[u]:
            if color[v] == GRAY:
                cycles.append(stack[stack.index(v):] + [v])
            elif color[v] == WHITE:
                dfs(v)
        stack.pop()
        color[u] = BLACK

    for rel in sorted(graph):
        if color[rel] == WHITE:
            dfs(rel)
    return cycles


def include_key(full, root):
    """The path a quoted #include would use for this file: the project
    adds <root>/src to the include path, so files under src/ are keyed
    relative to it."""
    src_root = os.path.join(root, "src")
    rel = os.path.relpath(full, root)
    if rel.startswith("src" + os.sep):
        return os.path.relpath(full, src_root)
    return rel


def collect_files(root, paths):
    """Returns {absolute path: include-style relative path}."""
    out = {}
    if paths:
        for p in paths:
            if os.path.isdir(p):
                for dirpath, _, names in os.walk(p):
                    for name in sorted(names):
                        if name.endswith(EXTENSIONS):
                            full = os.path.join(dirpath, name)
                            out[full] = include_key(full, root)
            elif p.endswith(EXTENSIONS):
                out[p] = include_key(p, root)
    else:
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith(EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    out[full] = include_key(full, root)
    return out


def run_lint(root, paths):
    files = collect_files(root, paths)
    findings = []
    texts = {}
    for full, rel in sorted(files.items()):
        try:
            text = open(full, encoding="utf-8").read()
        except OSError as e:
            findings.append(Finding(full, 0, "io", str(e)))
            continue
        texts[rel] = text
        findings.extend(lint_file(full, text))

    for cycle in find_include_cycles(texts):
        findings.append(Finding(
            cycle[0], 0, CYCLE_RULE,
            "include cycle: " + " -> ".join(cycle)))
    return findings


# --------------------------- self test --------------------------------------

SELF_TEST_CASES = [
    # (name, source, expected rules firing)
    ("naked_new", "int main() { auto* p = new int(3); return *p; }\n",
     {"naked-new"}),
    ("naked_delete", "void f(int* p) { delete p; }\n", {"naked-delete"}),
    ("delete_array", "void f(int* p) { delete[] p; }\n", {"naked-delete"}),
    ("deleted_fn_ok", "struct S { S(const S&) = delete; };\n", set()),
    ("placement_new", "void f(void* b) { auto* p = new (b) int; (void)p; }\n",
     {"naked-new"}),
    ("rand_call", "#include <cstdlib>\nint f() { return rand(); }\n",
     {"rand"}),
    ("srand_call", "#include <cstdlib>\nvoid f() { srand(7); }\n", {"rand"}),
    ("random_fn_ok", "int my_rand();\nint f() { return my_rand(); }\n", set()),
    ("detach", "#include <thread>\nvoid f() { std::thread t; t.detach(); }\n",
     {"thread-detach"}),
    ("volatile_kw", "volatile int flag;\n", {"volatile"}),
    ("order_bare",
     "#include <atomic>\n"
     "std::atomic<int> a;\n"
     "int f() { return a.load(std::memory_order_relaxed); }\n",
     {"order-comment"}),
    ("order_same_line",
     "#include <atomic>\n"
     "std::atomic<int> a;\n"
     "int f() { return a.load(std::memory_order_relaxed); }"
     "  // order: counter only\n",
     set()),
    ("order_comment_above",
     "#include <atomic>\n"
     "std::atomic<int> a;\n"
     "int f() {\n"
     "  // order: relaxed — statistics counter, read when quiescent\n"
     "  return a.load(std::memory_order_relaxed);\n"
     "}\n",
     set()),
    ("order_block_coverage",
     "#include <atomic>\n"
     "std::atomic<long> b, t;\n"
     "void f() {\n"
     "  // order: relaxed + fence per PPoPP'13\n"
     "  long x = b.load(std::memory_order_relaxed);\n"
     "  b.store(x - 1, std::memory_order_relaxed);\n"
     "  std::atomic_thread_fence(std::memory_order_seq_cst);\n"
     "}\n",
     set()),
    ("order_blank_line_breaks_coverage",
     "#include <atomic>\n"
     "std::atomic<int> a;\n"
     "// order: this comment does not reach past the blank line\n"
     "\n"
     "int f() { return a.load(std::memory_order_acquire); }\n",
     {"order-comment"}),
    ("order_multiline_trailing_comment",
     # A call split across lines may justify on the closing line: both
     # memory_order sites belong to the statement the comment ends.
     "#include <atomic>\n"
     "std::atomic<int> a;\n"
     "bool f(int& e) {\n"
     "  return a.compare_exchange_strong(\n"
     "      e, e + 1,\n"
     "      std::memory_order_seq_cst,\n"
     "      std::memory_order_relaxed);  // order: CAS races the thieves\n"
     "}\n",
     set()),
    ("order_multiline_unjustified",
     "#include <atomic>\n"
     "std::atomic<int> a;\n"
     "bool f(int& e) {\n"
     "  return a.compare_exchange_strong(\n"
     "      e, e + 1,\n"
     "      std::memory_order_seq_cst,\n"
     "      std::memory_order_relaxed);\n"
     "}\n",
     {"order-comment"}),
    ("order_comment_on_next_statement_does_not_cover",
     # The `;` ends the site's statement, so a comment on the NEXT
     # statement's line must not count as its justification.
     "#include <atomic>\n"
     "std::atomic<int> a, b;\n"
     "int f() {\n"
     "  int x = a.load(std::memory_order_acquire);\n"
     "  x += b.load(std::memory_order_relaxed);  // order: covers b only\n"
     "  return x;\n"
     "}\n",
     {"order-comment"}),
    ("tokens_in_comments_ok",
     "// new delete rand() volatile .detach() memory_order_relaxed\n"
     "/* delete new */\n"
     "int x;\n",
     set()),
    ("tokens_in_strings_ok",
     'const char* s = "new delete rand() volatile";\n',
     set()),
    ("suppressed_new",
     "int* f() { return new int; }"
     "  // lint: allow(naked-new) C API owns and frees this\n",
     set()),
    ("suppressed_next_line",
     "// lint: allow-next-line(volatile) hardware register\n"
     "volatile int reg;\n",
     set()),
    ("suppression_needs_reason",
     "int* f() { return new int; }  // lint: allow(naked-new)\n",
     {"lint-suppression", "naked-new"}),
    ("suppression_unknown_rule",
     "int x;  // lint: allow(not-a-rule) whatever\n",
     {"lint-suppression"}),
    ("suppression_wrong_rule",
     "int* f() { return new int; }  // lint: allow(rand) wrong rule\n",
     {"naked-new"}),
    # sync-seam: scoped to src/par/, src/svc/, src/util/stress.* — the case
    # name doubles as the file path the scope check sees.
    ("src/par/seam_atomic",
     "#include <atomic>\nstd::atomic<int> a{0};\n",
     {"sync-seam"}),
    ("src/svc/detail/seam_flag",
     "#include <atomic>\nstd::atomic_flag f;\n",
     {"sync-seam"}),
    ("src/util/stress",  # lint_file sees "src/util/stress.cpp"
     "#include <atomic>\n"
     "// order: test fixture\n"
     "void f() { std::atomic_thread_fence(std::memory_order_seq_cst); }\n",
     {"sync-seam"}),
    ("src/par/seam_sync_ok",
     '#include "util/sync.hpp"\nsync::atomic<int> a{0};\n',
     set()),
    ("src/par/seam_atomic_ref_ok",
     "#include <atomic>\n"
     "// order: test fixture\n"
     "int f(int& s) { return std::atomic_ref<int>(s)"
     ".load(std::memory_order_relaxed); }\n",
     set()),
    ("src/graph/seam_out_of_scope_ok",
     "#include <atomic>\nstd::atomic<int> a{0};\n",
     set()),
    ("src/par/seam_suppressed_ok",
     "#include <atomic>\n"
     "std::atomic<int> a{0};"
     "  // lint: allow(sync-seam) pre-seam fixture kept verbatim\n",
     set()),
    # raw-mmap: everywhere EXCEPT src/store/ — again the case name is the
    # path the scope check sees.
    ("src/svc/raw_mmap",
     "#include <sys/mman.h>\n"
     "void* f(int fd, long n) "
     "{ return mmap(nullptr, n, 1, 1, fd, 0); }\n",
     {"raw-mmap"}),
    ("src/graph/raw_munmap",
     "#include <sys/mman.h>\nvoid f(void* p, long n) { munmap(p, n); }\n",
     {"raw-mmap"}),
    ("src/par/raw_madvise",
     "#include <sys/mman.h>\nvoid f(void* p, long n) { madvise(p, n, 3); }\n",
     {"raw-mmap"}),
    ("src/store/mmap_in_store_ok",
     "#include <sys/mman.h>\n"
     "void* f(int fd, long n) "
     "{ return mmap(nullptr, n, 1, 1, fd, 0); }\n",
     set()),
    ("src/util/mmap_named_fn_ok",
     "int my_mmap(int);\nint f() { return my_mmap(0); }\n",
     set()),
    ("src/util/mmap_suppressed_ok",
     "#include <sys/mman.h>\n"
     "void f(void* p, long n) { munmap(p, n); }"
     "  // lint: allow(raw-mmap) unmapping a region a C library handed us\n",
     set()),
    # raw-process: everywhere, with no exempt path — the case name is the
    # path the scope check sees.
    ("src/svc/raw_fork",
     "#include <unistd.h>\nint f() { return fork(); }\n",
     {"raw-process"}),
    ("src/par/raw_global_scope_fork",
     "#include <unistd.h>\nint f() { return ::fork(); }\n",
     {"raw-process"}),
    ("src/graph/raw_execv",
     "#include <unistd.h>\n"
     "void f(char** argv) { ::execv(argv[0], argv); }\n",
     {"raw-process"}),
    ("src/util/raw_posix_spawn",
     "#include <spawn.h>\n"
     "int f(pid_t* p, char** a, char** e) "
     "{ return posix_spawn(p, a[0], nullptr, nullptr, a, e); }\n",
     {"raw-process"}),
    ("src/shard/process",  # the one path exempt before; no longer
     "#include <unistd.h>\n"
     "int f(char** argv) { if (::fork() == 0) ::execv(argv[0], argv); "
     "return 0; }\n",
     {"raw-process"}),
    ("src/util/process_named_fn_ok",
     "int my_fork();\nint f() { return my_fork(); }\n",
     set()),
    ("src/util/process_member_ok",
     # A declaration `int fork();` is call-shaped and would fire, so the
     # type lives elsewhere; this checks the member/qualified-call guards.
     "int f(Proc& p) { return p.fork() + Proc::fork(); }\n",
     set()),
    ("src/util/process_suppressed_ok",
     "#include <unistd.h>\n"
     "int f() { return fork(); }"
     "  // lint: allow(raw-process) daemonizing at startup\n",
     set()),
    # raw-simd: everywhere EXCEPT src/util/simd.* — the case name is the
    # path the scope check sees.
    ("src/par/raw_simd_include",
     "#include <immintrin.h>\nint x;\n",
     {"raw-simd"}),
    ("src/graph/raw_simd_intrinsic",
     "void f(const long long* p) "
     "{ auto v = _mm256_loadu_si256((const __m256i*)p); (void)v; }\n",
     {"raw-simd"}),
    ("src/svc/raw_simd_sse",
     "void f() { _mm_pause(); }\n",
     {"raw-simd"}),
    ("src/util/simd",  # lint_file sees "src/util/simd.cpp"
     "#include <immintrin.h>\n"
     "long f(const long long* p) "
     "{ return _mm256_movemask_pd(_mm256_castsi256_pd("
     "_mm256_loadu_si256((const __m256i*)p))); }\n",
     set()),
    ("src/util/simd_helpers_not_exempt",  # "simd_helpers.cpp" != "simd.*"
     "#include <immintrin.h>\nint x;\n",
     {"raw-simd"}),
    ("src/graph/simd_named_fn_ok",
     "int x_mm256_add_epi64(int);\n"
     "int f() { return x_mm256_add_epi64(1); }\n",
     set()),
    ("src/par/simd_in_comment_ok",
     "// _mm256_or_si256 and __m256i are discussed here only\n"
     "int x;\n",
     set()),
    ("src/par/simd_suppressed_ok",
     "void f() { _mm_pause(); }"
     "  // lint: allow(raw-simd) spin-wait hint predates the seam\n",
     set()),
    # raw-mutex: scoped to src/par/, src/svc/, src/store/ —
    # the case name doubles as the path the scope check sees.
    ("src/svc/raw_mutex",
     "#include <mutex>\nstd::mutex mu;\n",
     {"raw-mutex"}),
    ("src/par/raw_lock_guard",
     "#include <mutex>\n"
     "void f(std::mutex& m) { std::lock_guard<std::mutex> lock(m); }\n",
     {"raw-mutex"}),
    ("src/svc/raw_condition_variable",
     "#include <condition_variable>\nstd::condition_variable cv;\n",
     {"raw-mutex"}),
    ("src/store/raw_unique_lock",
     "#include <mutex>\n"
     "void f(std::mutex& m) { std::unique_lock<std::mutex> lk(m); }\n",
     {"raw-mutex"}),
    ("src/svc/raw_sync_lowercase",
     # The lowercase seam aliases are unannotated — call sites must use
     # the capability-annotated wrappers instead.
     '#include "util/sync.hpp"\ngcg::sync::mutex mu;\n',
     {"raw-mutex"}),
    ("src/svc/wrapped_mutex_ok",
     '#include "util/sync.hpp"\n'
     "struct S {\n"
     "  void poke() { gcg::sync::LockGuard lock(mu_); ++v_; }\n"
     "  gcg::sync::Mutex mu_;\n"
     "  int v_ GCG_GUARDED_BY(mu_) = 0;\n"
     "};\n",
     set()),
    ("src/graph/raw_mutex_out_of_scope_ok",
     "#include <mutex>\nstd::mutex mu;\n",
     set()),
    ("src/par/raw_mutex_in_comment_ok",
     "// std::mutex and std::lock_guard are discussed here only\n"
     "int x;\n",
     set()),
    ("src/par/raw_mutex_suppressed_ok",
     "#include <mutex>\n"
     "std::mutex mu;"
     "  // lint: allow(raw-mutex) TSan regression fixture bypassing the seam\n",
     set()),
    ("src/par/raw_mutex_escape_no_reason",
     # An escape without a justification is caught twice: the bad
     # suppression AND the raw-mutex site it failed to cover.
     "#include <mutex>\n"
     "std::mutex mu;  // lint: allow(raw-mutex)\n",
     {"lint-suppression", "raw-mutex"}),
    # raw-narrow: integer-target static_cast banned in the
    # conversion-clean core (src/graph, par, svc, store, check, util)
    # outside util/narrow.* — the case name doubles as the path the
    # scope check sees.
    ("src/graph/raw_narrow_vid",
     '#include "graph/csr.hpp"\n'
     "gcg::vid_t f(gcg::eid_t e) { return static_cast<gcg::vid_t>(e); }\n",
     {"raw-narrow"}),
    ("src/par/raw_narrow_unsigned",
     "unsigned f(int x) { return static_cast<unsigned>(x); }\n",
     {"raw-narrow"}),
    ("src/svc/raw_narrow_std_uint64",
     "#include <cstdint>\n"
     "std::uint64_t f(std::int64_t i) "
     "{ return static_cast<std::uint64_t>(i); }\n",
     {"raw-narrow"}),
    ("src/store/raw_narrow_streamoff",
     "#include <ios>\n"
     "std::streamoff f(unsigned long o) "
     "{ return static_cast<std::streamoff>(o); }\n",
     {"raw-narrow"}),
    ("src/check/raw_narrow_size_t",
     "#include <cstddef>\n"
     "std::size_t f(long n) { return static_cast<std::size_t>(n); }\n",
     {"raw-narrow"}),
    ("src/util/raw_narrow_unsigned_long_long",
     "unsigned long long f(long x) "
     "{ return static_cast<unsigned long long>(x); }\n",
     {"raw-narrow"}),
    ("src/util/narrow",  # lint_file sees "src/util/narrow.cpp" — exempt
     "template <class To, class From>\n"
     "To narrow(From x) { return static_cast<To>(static_cast<int>(x)); }\n",
     set()),
    ("src/coloring/narrow_out_of_scope_ok",
     "unsigned f(int x) { return static_cast<unsigned>(x); }\n",
     set()),
    ("src/graph/narrow_double_target_ok",
     "double f(gcg::vid_t v) { return static_cast<double>(v); }\n",
     set()),
    ("src/graph/narrow_pointer_target_ok",
     "int* f(void* p) { return static_cast<int*>(p); }\n",
     set()),
    ("src/graph/narrow_enum_target_ok",
     "enum class Order : int {};\n"
     "Order f(int x) { return static_cast<Order>(x); }\n",
     set()),
    ("src/par/narrow_in_comment_ok",
     "// static_cast<unsigned> is discussed here only\n"
     "int x;\n",
     set()),
    ("src/svc/narrow_suppressed_ok",
     "unsigned f(int x) { return static_cast<unsigned>(x); }"
     "  // lint: allow(raw-narrow) pre-seam fixture kept verbatim\n",
     set()),
    # lossy-comment: narrow_cast sites carry a `// lossy:` justification
    # with the same placement rules as `// order:`.
    ("src/util/lossy_bare",
     '#include "util/narrow.hpp"\n'
     "int f(long x) { return gcg::narrow_cast<int>(x); }\n",
     {"lossy-comment"}),
    ("src/util/lossy_same_line",
     '#include "util/narrow.hpp"\n'
     "unsigned f(long x) { return gcg::narrow_cast<unsigned>(x); }"
     "  // lossy: hash salt, wrapping intended\n",
     set()),
    ("src/util/lossy_comment_above",
     '#include "util/narrow.hpp"\n'
     "int f(long x) {\n"
     "  // lossy: two's-complement transport, cast back bit-for-bit\n"
     "  return gcg::narrow_cast<int>(x);\n"
     "}\n",
     set()),
    ("src/util/lossy_multiline_trailing",
     '#include "util/narrow.hpp"\n'
     "int f(long a, long b) {\n"
     "  return gcg::narrow_cast<int>(\n"
     "      a + b);  // lossy: checksum folds high bits by design\n"
     "}\n",
     set()),
    ("src/util/lossy_blank_line_breaks_coverage",
     '#include "util/narrow.hpp"\n'
     "// lossy: does not reach past the blank line\n"
     "\n"
     "int f(long x) { return gcg::narrow_cast<int>(x); }\n",
     {"lossy-comment"}),
    ("tools/lossy_outside_src_still_required",
     "int f(long x) { return gcg::narrow_cast<int>(x); }\n",
     {"lossy-comment"}),
    ("src/util/lossy_suppressed_ok",
     "int f(long x) { return gcg::narrow_cast<int>(x); }"
     "  // lint: allow(lossy-comment) generated table, justified in header\n",
     set()),
]


def self_test():
    failures = []

    for name, source, expected in SELF_TEST_CASES:
        found = {f.rule for f in lint_file(name + ".cpp", source)}
        if found != expected:
            failures.append(
                f"{name}: expected rules {sorted(expected)}, got {sorted(found)}")

    # Include-cycle detection on a synthetic 3-file cycle + one clean file.
    cyclic = {
        "a/a.hpp": '#include "b/b.hpp"\n',
        "b/b.hpp": '#include "c/c.hpp"\n',
        "c/c.hpp": '#include "a/a.hpp"\n',
        "clean.hpp": '#include "a/a.hpp"\n',
    }
    cycles = find_include_cycles(cyclic)
    if len(cycles) != 1 or set(cycles[0]) != {"a/a.hpp", "b/b.hpp", "c/c.hpp"}:
        failures.append(f"include-cycle: expected one 3-cycle, got {cycles}")
    if find_include_cycles({"a.hpp": '#include "b.hpp"\n', "b.hpp": "\n"}):
        failures.append("include-cycle: false positive on acyclic graph")

    # End-to-end over a temp tree: seeded violations must be reported with
    # the right paths, and a clean tree must come back empty.
    with tempfile.TemporaryDirectory() as tmp:
        bad_dir = os.path.join(tmp, "src")
        os.makedirs(bad_dir)
        with open(os.path.join(bad_dir, "bad.cpp"), "w") as f:
            f.write("void f(int* p) { delete p; }\n")
        findings = run_lint(tmp, [])
        if len(findings) != 1 or findings[0].rule != "naked-delete":
            failures.append(f"end-to-end: expected one naked-delete, got "
                            f"{[str(f) for f in findings]}")

    # End-to-end cycle detection with the real src/-relative include keys.
    with tempfile.TemporaryDirectory() as tmp:
        for rel, text in [("a/a.hpp", '#include "b/b.hpp"\n'),
                          ("b/b.hpp", '#include "a/a.hpp"\n')]:
            full = os.path.join(tmp, "src", rel)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as f:
                f.write(text)
        findings = run_lint(tmp, [])
        if [f.rule for f in findings] != [CYCLE_RULE]:
            failures.append(f"end-to-end cycle: expected one {CYCLE_RULE}, "
                            f"got {[str(f) for f in findings]}")

    if failures:
        print("gcg_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print(f"gcg_lint self-test passed "
          f"({len(SELF_TEST_CASES)} cases, {len(ALL_RULES)} rules)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to lint (default: <root>/src)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels up from this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in rule tests and exit")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test())

    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    paths = args.paths or [os.path.join(root, "src")]

    findings = run_lint(root, paths)
    for f in findings:
        print(f)
    if findings:
        print(f"gcg_lint: {len(findings)} finding(s)", file=sys.stderr)
        sys.exit(1)
    print("gcg_lint: clean")


if __name__ == "__main__":
    main()
