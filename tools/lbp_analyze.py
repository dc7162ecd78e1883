#!/usr/bin/env python3
"""Scope-aware whole-program static analysis for the lbp simulator.

lbp_analyze is the repo's one static checker: it lexes every C++ file
(comment/string-aware, length preserving), tracks brace scopes
(namespace / class / function / lambda / control block), and runs
cross-file rules over the resulting scope model. No compiler is
involved — the pass is driven purely by the file set, so it runs
anywhere Python runs.

Rules (findings print as ``rule:file:line: message``):

  spec-state-write
      Mutations of predictor state fields (any class deriving from
      LocalPredictor, plus TagePredictor and LoopPatternTable) are only
      legal inside the sanctioned update/checkpoint/repair methods
      (specUpdate, retireTrain, writeState, restore, train, ...). The
      paper's whole subject is that speculative local state must flow
      through a repairable interface; a predictor mutating its BHT from
      predict() or a helper silently bypasses every repair scheme.

  unordered-iteration
      Iterating an ``unordered_map``/``unordered_set`` yields an
      unspecified order, which poisons anything it feeds — stats, CSV
      rows, serialization, store keys. Ordered containers or sorted
      snapshots only.

  pointer-keyed-container
      Containers keyed (or hashed) by pointer values order/bucket by
      allocator addresses, which vary run to run. Key by stable ids
      (Addr, names, indices) instead.

  parallel-float-accum
      Floating-point accumulation (``+=``/``-=`` on a float/double)
      inside a ThreadPool::parallelFor worker body is order-dependent:
      worker interleaving changes the rounding. Accumulate per-slot and
      reduce serially (the sanctioned assemble phases), or carry an
      explicit allow marker for inherently nondeterministic values
      (wall-clock telemetry).

  stats-counter-dead
      Every counter/histogram field of a ``*Stats`` struct (nested ones
      included) must be written somewhere in src/ (incremented,
      assigned or sampled) and read somewhere else. A declared-but-dead
      counter reports a permanent zero and hides the missing
      instrumentation; a written-but-never-read one is a result that
      never reaches any report.

  metric-row-coverage
      Whole-program counter coverage over the MetricsRegistry tables:
      every numeric RunResult field (and every CoreStats field behind
      RunResult::stats) must be read by exactly one runMetrics() row,
      every SweepStats field by exactly one primary sweepMetrics() row,
      every ServeStats field by exactly one primary serveMetrics() row
      and every StoreStats field by exactly one primary storeMetrics()
      row (rows combining several fields are derived and exempt), row
      names must be unique across all four tables, and no row may
      reference a field that does not exist. This closes the
      declared-but-dead and reported-but-unnamed gaps the registry
      itself cannot see.

  no-raw-assert / no-raw-random / no-raw-time / no-raw-thread
      The ThreadPool class and resolveJobs() may touch std::thread, the
      Stopwatch class may read the steady clock — everything else in
      src/ must use lbp_assert, common/random.hh, and the ThreadPool.
      Exemptions are scope-level, never whole files.

  no-hot-path-alloc
      The per-cycle stage functions of OooCore (core/core.cc) and the
      predict/update path of TagePredictor (bpu/tage.cc) must not
      allocate; bodies are found via the scope model.

  obs-doc-comment
      Every namespace-scope class in an obs/ or serve/ header, or in
      one of the DOC_HEADERS, needs a ``///`` or ``/** */`` comment on
      the line above it (above the ``template`` line for a class
      template): these types are the export surface docs/METRICS.md,
      TRACING.md, SWEEP.md and SERVER.md are written against.

  include-guard / no-parent-include
      Headers guard with LBP_<DIR>_<FILE>_HH matching their path, and
      project includes are rooted at src/ (no "../" escapes).

Suppression: a finding whose line (or the comment block above it)
carries ``analyze:allow(<rule>)`` is suppressed.

Baseline / diff: ``--baseline FILE --diff`` compares findings against a
committed baseline (tools/analyze_baseline.json) keyed by
``rule|file|message`` (line numbers drift too easily to gate on) and
fails only on findings not in the baseline — CI stays green on legacy
debt while rejecting new violations.

Usage:
    lbp_analyze.py <repo_root>                 analyze <repo_root>/src
    lbp_analyze.py --sarif out.sarif <root>    also write SARIF 2.1.0
    lbp_analyze.py --baseline B --diff <root>  fail on new findings only
    lbp_analyze.py --self-test <repo_root>     fixture suite + diff mode
"""

import argparse
import json
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cc", ".hh", ".cpp", ".hpp", ".h"}
HEADER_SUFFIXES = {".hh", ".hpp", ".h"}

# ---------------------------------------------------------------------
# Lexing: length-preserving strip of comments, strings and preprocessor
# lines so offsets in the stripped text equal offsets in the original.
# ---------------------------------------------------------------------


def strip_comments_and_strings(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.extend(ch if ch == "\n" else " "
                       for ch in text[i:j + 2])
            i = j + 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append(" ")
                    i += 1
                    if i < n:
                        out.append(" " if text[i] != "\n" else "\n")
                        i += 1
                else:
                    out.append(" " if text[i] != "\n" else "\n")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def blank_preprocessor(stripped):
    """Blank out preprocessor lines (length-preserving) so #include
    angle brackets and conditional compilation never confuse the scope
    walker."""
    lines = stripped.split("\n")
    for k, line in enumerate(lines):
        if line.lstrip().startswith("#"):
            lines[k] = " " * len(line)
    return "\n".join(lines)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def iter_source_files(root):
    for path in sorted(root.rglob("*")):
        if path.suffix in CPP_SUFFIXES and path.is_file():
            yield path


# ---------------------------------------------------------------------
# Scope model
# ---------------------------------------------------------------------

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "do", "else",
                    "try", "catch"}

LAMBDA_TAIL = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\b)?\s*"
    r"(?:noexcept\b)?\s*(?:->\s*[\w:<>,&*\s]+)?$")

CLASS_HEAD = re.compile(
    r"^(?:class|struct|union)\s+(?:\[\[[^\]]*\]\]\s*)?(\w+)"
    r"(?:\s+final\b)?\s*(?::\s*(.*))?$", re.S)

FUNC_NAME = re.compile(
    r"((?:\w+\s*::\s*)*~?\w+|operator\s*(?:\(\)|\[\]|[^\s(]+))\s*$")

ACCESS_LABELS = re.compile(r"^\s*(?:(?:public|private|protected)\s*:\s*)+")


class Scope:
    """One brace scope: kind is 'namespace', 'class', 'function',
    'lambda', 'block', 'enum' or 'init'."""

    def __init__(self, kind, name, start, head, header, parent):
        self.kind = kind
        self.name = name          # class/function/namespace name
        self.owner = None         # enclosing or :: qualified class
        self.bases = ""           # class base list text
        self.start = start        # offset of the opening '{'
        self.end = None           # offset just past the closing '}'
        self.head = head          # offset of the header's first token
        self.header = header
        self.parent = parent
        self.children = []


def _strip_templates(header):
    h = header.lstrip()
    while h.startswith("template"):
        i = h.find("<")
        if i < 0:
            break
        depth = 0
        j = i
        while j < len(h):
            if h[j] == "<":
                depth += 1
            elif h[j] == ">":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        h = h[j + 1:].lstrip()
    return h


def _classify(header):
    """Return (kind, name, bases) for the scope a '{' opens. Access
    labels before the header ('public: struct X {') are not part of
    it."""
    h = _strip_templates(ACCESS_LABELS.sub("", header)).strip()
    if not h:
        return "block", "", ""
    if LAMBDA_TAIL.search(h):
        return "lambda", "", ""
    first = re.match(r"[A-Za-z_]\w*", h)
    word = first.group(0) if first else ""
    if word == "namespace":
        m = re.match(r"namespace\s+(\w+)?", h)
        return "namespace", (m.group(1) or "") if m else "", ""
    if word == "enum":
        return "enum", "", ""
    if word in ("class", "struct", "union") and "(" not in h.split(
            ":", 1)[0]:
        m = CLASS_HEAD.match(h)
        if m:
            return "class", m.group(1), (m.group(2) or "")
    if word in CONTROL_KEYWORDS:
        return "block", "", ""
    if word == "extern":
        return "block", "", ""
    if h.endswith(("=", ",", "(", "return")):
        return "init", "", ""
    # A parenthesized parameter list makes this a function definition;
    # the name is the identifier before the first top-level '('.
    paren = -1
    depth = 0
    for i, c in enumerate(h):
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif c == "(" and depth == 0:
            paren = i
            break
    if paren > 0:
        m = FUNC_NAME.search(h[:paren].rstrip())
        if m:
            name = re.sub(r"\s+", "", m.group(1))
            bare = name.rsplit("::", 1)[-1]
            if bare in CONTROL_KEYWORDS:
                return "block", "", ""
            return "function", name, ""
    return "init", "", ""


def parse_scopes(code):
    """Parse blanked/stripped code into a scope tree. Returns the list
    of all scopes (preorder); roots have parent None."""
    scopes = []
    stack = []
    header_start = 0
    i = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "{":
            header = code[header_start:i]
            kind, name, bases = _classify(header)
            parent = stack[-1] if stack else None
            head = header_start + len(header) - len(header.lstrip())
            sc = Scope(kind, name, i, head, header.strip(), parent)
            sc.bases = bases
            if kind == "function":
                if "::" in name:
                    sc.owner = name.rsplit("::", 2)[-2]
                    sc.name = name.rsplit("::", 1)[-1]
                elif parent is not None and parent.kind == "class":
                    sc.owner = parent.name
            if parent is not None:
                parent.children.append(sc)
            scopes.append(sc)
            stack.append(sc)
            header_start = i + 1
        elif c == "}":
            if stack:
                stack.pop().end = i + 1
            header_start = i + 1
        elif c == ";":
            header_start = i + 1
        i += 1
    for sc in stack:  # unterminated (shouldn't happen on valid input)
        sc.end = n
    return scopes


# ---------------------------------------------------------------------
# Field extraction
# ---------------------------------------------------------------------

FIELD_DECL = re.compile(
    r"^(?:mutable\s+|volatile\s+)?"
    r"((?:const\s+)?(?:unsigned\s+|signed\s+|long\s+|short\s+)*"
    r"[A-Za-z_][\w:]*(?:\s*<.*>)?(?:\s*[*&])*)"
    r"\s+([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:=.*)?$", re.S)

SKIP_STMT = re.compile(
    r"^(?:using\b|typedef\b|friend\b|static\b|template\b|return\b|"
    r"public\b|private\b|protected\b|enum\b)")


def class_fields(code, scope):
    """{name: type} for the member fields declared directly inside a
    class scope. Child scopes (method bodies, default-init braces) are
    blanked; method bodies become ';' so the following declaration
    still starts a fresh statement."""
    body = list(code[scope.start + 1:scope.end - 1])
    for ch in scope.children:
        a = ch.start - (scope.start + 1)
        b = ch.end - (scope.start + 1)
        for k in range(a, b):
            if body[k] != "\n":
                body[k] = " "
        if b - 1 < len(body):
            body[b - 1] = ";"
    fields = {}
    for stmt in "".join(body).split(";"):
        s = re.sub(r"\s+", " ", ACCESS_LABELS.sub("", stmt)).strip()
        if not s or SKIP_STMT.match(s):
            continue
        eq = s.find("=")
        head = s if eq < 0 else s[:eq]
        if "(" in head:
            continue  # function declaration (or function-typed field)
        m = FIELD_DECL.match(s)
        if m:
            fields[m.group(2)] = re.sub(r"\s+", " ",
                                        m.group(1)).strip()
    return fields


# ---------------------------------------------------------------------
# Per-file analysis unit
# ---------------------------------------------------------------------


class SourceFile:
    def __init__(self, path, rel, sub):
        self.path = path
        self.rel = rel  # posix path relative to the repo root
        self.sub = sub  # posix path relative to the analyzed root
        self.raw = path.read_text(encoding="utf-8")
        self.stripped = strip_comments_and_strings(self.raw)
        self.code = blank_preprocessor(self.stripped)
        self.scopes = parse_scopes(self.code)
        self.raw_lines = self.raw.splitlines()

    def line(self, pos):
        return line_of(self.code, pos)

    def allowed(self, rule, line):
        """Marker on the finding's line, or anywhere in the block of
        comment lines immediately above it."""
        marker = f"analyze:allow({rule})"

        def hit(ln):
            if 1 <= ln <= len(self.raw_lines):
                return marker in self.raw_lines[ln - 1]
            return False

        if hit(line):
            return True
        ln = line - 1
        while ln >= 1 and self.raw_lines[ln - 1].lstrip().startswith(
                ("//", "*", "/*")):
            if hit(ln):
                return True
            ln -= 1
        return False


class Finding:
    def __init__(self, rule, rel, line, message):
        self.rule = rule
        self.rel = rel
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.rule}:{self.rel}:{self.line}: {self.message}"

    def key(self):
        return f"{self.rule}|{self.rel}|{self.message}"


def emit(findings, sf, rule, pos, message):
    line = sf.line(pos)
    if sf.allowed(rule, line):
        return
    findings.append(Finding(rule, sf.rel, line, message))


# ---------------------------------------------------------------------
# Rule: spec-state-write
# ---------------------------------------------------------------------

# Classes whose member state is speculative predictor state even though
# they do not derive from LocalPredictor.
STATE_CLASSES_EXTRA = {"TagePredictor", "LoopPatternTable"}

# Methods allowed to mutate predictor state: construction, the
# speculative/retirement update interface, and the checkpoint/repair
# interface of src/bpu/predictor.hh.
SANCTIONED_METHODS = {
    "specUpdate", "specUpdateHist", "retireTrain",
    "predictionFeedback", "train", "feedback", "update",
    "writeState", "advanceState", "invalidateEntry",
    "setAllRepairBits", "testClearRepairBit", "restoreBht",
    "checkpoint", "restore", "reset", "clear", "operator=",
}

MUTATING_CALLS = (
    "insert|erase|clear|push_back|pop_back|emplace|emplace_back|"
    "resize|assign|reserve|fill|swap|invalidate|install|touch|"
    "advance|train|update|set|reset")


def collect_predictor_classes(files):
    """{class name: {field: type}} for every predictor state class."""
    classes = {}
    for sf in files:
        for sc in sf.scopes:
            if sc.kind != "class":
                continue
            if ("LocalPredictor" in sc.bases
                    or sc.name in STATE_CLASSES_EXTRA):
                fields = class_fields(sf.code, sc)
                classes.setdefault(sc.name, {}).update(fields)
    return classes


def field_mutation_re(fields):
    alt = "|".join(re.escape(f) for f in sorted(fields))
    return re.compile(
        r"(?:\+\+|--)\s*(?:this\s*->\s*)?(?:%s)\b"
        r"|\b(?:this\s*->\s*)?(?:%s)\s*(?:\[[^\]]*\])?\s*"
        r"(?:(?:\+|-|\*|/|%%|&|\||\^|<<|>>)?=(?!=)|\+\+|--)"
        r"|\b(?:this\s*->\s*)?(?:%s)\s*\.\s*(?:%s)\s*\("
        % (alt, alt, alt, MUTATING_CALLS))


def _effective_sanctioned(cls, methods, bodies):
    """The sanctioned set plus its transitive closure: a private
    helper whose every in-class call site sits inside a sanctioned
    method inherits the sanction (e.g. LoopPredictor::runFor, reached
    only from retireTrain). A helper also reachable from predict()
    stays unsanctioned."""
    sanctioned = {m for m in methods
                  if m in SANCTIONED_METHODS or m == cls
                  or m == "~" + cls}
    calls = {}  # method -> set of in-class methods it calls
    for method, texts in bodies.items():
        called = set()
        for text in texts:
            for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", text):
                if m.group(1) in methods and m.group(1) != method:
                    called.add(m.group(1))
        calls[method] = called
    changed = True
    while changed:
        changed = False
        for method in methods:
            if method in sanctioned:
                continue
            callers = {c for c, callees in calls.items()
                       if method in callees}
            if callers and callers <= sanctioned:
                sanctioned.add(method)
                changed = True
    return sanctioned


def check_spec_state_writes(files, predictor_classes, findings):
    mut_res = {name: field_mutation_re(fields)
               for name, fields in predictor_classes.items() if fields}
    # Per class: every method scope and its body text (definitions may
    # be split across .hh and .cc).
    method_scopes = {name: [] for name in mut_res}
    for sf in files:
        for sc in sf.scopes:
            if sc.kind == "function" and sc.owner in mut_res:
                method_scopes[sc.owner].append((sf, sc))
    for cls, scoped in method_scopes.items():
        methods = {sc.name for _sf, sc in scoped}
        bodies = {}
        for sf, sc in scoped:
            bodies.setdefault(sc.name, []).append(
                sf.code[sc.start:sc.end])
        sanctioned = _effective_sanctioned(cls, methods, bodies)
        for sf, sc in scoped:
            if sc.name in sanctioned:
                continue
            body = sf.code[sc.start:sc.end]
            for m in mut_res[cls].finditer(body):
                emit(findings, sf, "spec-state-write",
                     sc.start + m.start(),
                     f"{cls}::{sc.name}() mutates predictor state "
                     f"('{m.group(0).strip()}'); speculative state "
                     f"may only change inside the sanctioned "
                     f"specUpdate/retire/checkpoint/repair methods")


# ---------------------------------------------------------------------
# Rules: determinism hazards
# ---------------------------------------------------------------------

UNORDERED_DECL = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")

POINTER_KEY = re.compile(
    r"\b(?:std\s*::\s*)?(?:unordered_)?map\s*<[^<>,]*\*\s*,"
    r"|\b(?:std\s*::\s*)?(?:unordered_)?set\s*<[^<>]*\*\s*>"
    r"|\bstd\s*::\s*hash\s*<[^<>]*\*\s*>")

RANGE_FOR = re.compile(r"\bfor\s*\(([^;{}]*?):([^;{})]*)\)")


def unordered_names(code):
    """Identifiers declared with an unordered container type anywhere
    in the file (fields, locals, params)."""
    names = set()
    for m in UNORDERED_DECL.finditer(code):
        depth = 0
        i = m.end() - 1
        while i < len(code):
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = code[i + 1:i + 120]
        dm = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", tail)
        if dm and dm.group(1) not in ("const",):
            names.add(dm.group(1))
    return names


def check_unordered_iteration(sf, findings):
    names = unordered_names(sf.code)
    if not names:
        return
    for m in RANGE_FOR.finditer(sf.code):
        expr = m.group(2).strip()
        base = re.match(r"(?:this\s*->\s*)?([A-Za-z_]\w*)", expr)
        if base and base.group(1) in names:
            emit(findings, sf, "unordered-iteration", m.start(),
                 f"iteration over unordered container "
                 f"'{base.group(1)}' has unspecified order; anything "
                 f"it feeds (stats, CSV, serialization, store keys) "
                 f"becomes nondeterministic — iterate an ordered "
                 f"container or a sorted snapshot")
    for name in sorted(names):
        for m in re.finditer(
                r"\b%s\s*\.\s*(?:begin|cbegin)\s*\(" % re.escape(name),
                sf.code):
            emit(findings, sf, "unordered-iteration", m.start(),
                 f"'{name}.begin()' walks an unordered container in "
                 f"unspecified order; iterate an ordered container or "
                 f"a sorted snapshot")


def check_pointer_keys(sf, findings):
    for m in POINTER_KEY.finditer(sf.code):
        emit(findings, sf, "pointer-keyed-container", m.start(),
             "container keyed/hashed by a pointer orders by allocator "
             "addresses, which vary run to run; key by a stable id "
             "(Addr, name, index) instead")


FLOAT_ACCUM = re.compile(
    r"\b([A-Za-z_][\w.\->\[\]]*?)\s*[+\-]=(?!=)")


def collect_float_fields(files):
    """Names of struct/class fields declared double or float anywhere
    in the tree (by name; ambiguity is resolved conservatively)."""
    floats = set()
    for sf in files:
        for sc in sf.scopes:
            if sc.kind != "class":
                continue
            for name, ftype in class_fields(sf.code, sc).items():
                base = ftype.replace("const", "").strip()
                if base in ("double", "float"):
                    floats.add(name)
    return floats


def parallel_lambdas(sf):
    """Lambda scopes executed by ThreadPool::parallelFor: either inline
    arguments of a parallelFor(...) call or named lambdas later passed
    to one."""
    named = set()
    for m in re.finditer(r"parallelFor\s*\(([^;{]*)", sf.code):
        for ident in re.findall(r"[A-Za-z_]\w*", m.group(1)):
            named.add(ident)
    out = []
    for sc in sf.scopes:
        if sc.kind != "lambda":
            continue
        if "parallelFor" in sc.header:
            out.append(sc)
            continue
        nm = re.search(r"([A-Za-z_]\w*)\s*=\s*\[[^\[\]]*\]\s*[(\s]",
                       sc.header.replace("\n", " ") + " ")
        if nm and nm.group(1) in named:
            out.append(sc)
    return out


def check_parallel_float_accum(sf, float_fields, findings):
    # Captured file-local doubles count as shared accumulators too.
    file_floats = set(
        re.findall(r"\b(?:double|float)\s+([A-Za-z_]\w*)\s*[=;{]",
                   sf.code))
    for sc in parallel_lambdas(sf):
        body = sf.code[sc.start:sc.end]
        # Locals declared inside the lambda are worker-private.
        local_floats = set(
            re.findall(r"\b(?:double|float)\s+([A-Za-z_]\w*)", body))
        for m in FLOAT_ACCUM.finditer(body):
            target = m.group(1)
            leaf = re.split(r"[.\->\[\]]+", target.strip())[-1]
            if not leaf or leaf in local_floats:
                continue
            if leaf not in float_fields and leaf not in file_floats:
                continue
            emit(findings, sf, "parallel-float-accum",
                 sc.start + m.start(),
                 f"float accumulation '{target.strip()} +=' inside a "
                 f"parallelFor worker is ordering-dependent; "
                 f"accumulate per-slot and reduce in the serial "
                 f"assemble phase")


# ---------------------------------------------------------------------
# Rule: stats-counter-dead
# ---------------------------------------------------------------------

STATS_FIELD_TYPES = ("std::uint64_t", "uint64_t", "double",
                     "FixedHistogram")


def collect_stats_structs(files):
    """[(struct, field, sf, line)] for counter fields of *Stats
    structs."""
    out = []
    for sf in files:
        if sf.path.suffix not in HEADER_SUFFIXES:
            continue
        for sc in sf.scopes:
            if sc.kind != "class" or not sc.name.endswith("Stats"):
                continue
            for name, ftype in class_fields(sf.code, sc).items():
                base = ftype.replace("const", "").strip()
                if base in STATS_FIELD_TYPES:
                    out.append((sc.name, name, sf, sf.line(sc.start)))
    return out


def check_stats_counter_dead(files, findings):
    # Blank the *Stats struct bodies themselves so a field's own
    # "= 0" initializer never counts as a write site.
    parts = []
    for sf in files:
        code = sf.code
        spans = [(sc.start, sc.end) for sc in sf.scopes
                 if sc.kind == "class" and sc.name.endswith("Stats")]
        if spans:
            buf = list(code)
            for a, b in spans:
                for k in range(a, b):
                    if buf[k] != "\n":
                        buf[k] = " "
            code = "".join(buf)
        parts.append(code)
    blob = "\n".join(parts)
    for struct, field, sf, line in collect_stats_structs(files):
        f = re.escape(field)
        # Offsets of the field name at write sites; any other use of
        # the name reads it.
        writes = {m.start(1) if m.group(1) else m.start(2)
                  for m in re.finditer(
                      r"(?:\+\+|--)\s*[\w.\->\[\]]*\b(%s)\b"
                      r"|\b(%s)\s*(?:\+\+|--|(?:[+\-*/%%&|^]|<<|>>)?="
                      r"(?!=)|\.\s*sample\s*\()" % (f, f), blob)}
        if not writes:
            message = (f"{struct}::{field} is declared but never "
                       f"incremented/assigned/sampled anywhere in the "
                       f"analyzed tree — dead counters report "
                       f"permanent zeros")
        elif all(m.start() in writes
                 for m in re.finditer(r"\b%s\b" % f, blob)):
            message = (f"{struct}::{field} is written but never read "
                       f"anywhere in the analyzed tree — a counter no "
                       f"report reads is a silently dropped result")
        else:
            continue
        findings.append(Finding("stats-counter-dead", sf.rel, line,
                                message))


# ---------------------------------------------------------------------
# Rule: metric-row-coverage
# ---------------------------------------------------------------------

NUMERIC_TYPES = {
    "double", "float", "int", "unsigned", "std::uint64_t", "uint64_t",
    "std::uint32_t", "uint32_t", "std::int64_t", "std::size_t",
    "unsigned long", "long",
}


def find_struct(files, name):
    for sf in files:
        for sc in sf.scopes:
            if sc.kind == "class" and sc.name == name:
                return sf, sc
    return None, None


def table_rows(sf, func_name):
    """Rows of a metric table: the direct {…} children of the table
    initializer inside function func_name. Returns
    [(name, refs, pos)] where refs is the set of field paths the row's
    accessor reads ('ipc', 'stats.mispredicts', ...)."""
    func = None
    for sc in sf.scopes:
        if sc.kind == "function" and sc.name == func_name:
            func = sc
            break
    if func is None:
        return None
    table = None
    for ch in func.children:
        if ch.kind == "init" and "=" in ch.header:
            table = ch
            break
    if table is None:
        return None
    rows = []
    for row in table.children:
        span_raw = sf.raw[row.start:row.end]
        span_code = sf.code[row.start:row.end]
        nm = re.search(r'"([^"]+)"', span_raw)
        if not nm:
            continue
        refs = set()
        for m in re.finditer(r"\b[rs]\s*\.\s*(\w+(?:\s*\.\s*\w+)?)",
                             span_code):
            refs.add(re.sub(r"\s+", "", m.group(1)))
        rows.append((nm.group(1), refs, row.start))
    return rows


# The per-struct metric tables after runMetrics(): (struct, table
# function, the surface rendered straight from the table). An uncovered
# field is a counter its owner maintains but that surface never shows.
STATS_TABLES = [
    ("SweepStats", "sweepMetrics", "manifest"),
    ("ServeStats", "serveMetrics", "stats frame"),
    ("StoreStats", "storeMetrics", "scrape"),
]


def primary_counts(rows, fields):
    """How many single-field (primary) rows read each of the fields."""
    counts = {f: 0 for f in fields}
    for _name, refs, _pos in rows:
        if len(refs) == 1:
            for ref in refs & counts.keys():
                counts[ref] += 1
    return counts


def check_stale_rows(findings, sf, table, struct, rows, fields):
    for name, refs, pos in rows:
        for ref in refs:
            if ref.split(".")[0] not in fields:
                emit(findings, sf, "metric-row-coverage", pos,
                     f"{table}() row '{name}' reads '{ref}', which "
                     f"is not a {struct} field — stale row")


def check_metric_rows(files, findings):
    runner_sf, runres = find_struct(files, "RunResult")
    metrics_sf = None
    for sf in files:
        if any(sc.kind == "function" and sc.name == "runMetrics"
               for sc in sf.scopes):
            metrics_sf = sf
            break
    if runner_sf is None or metrics_sf is None:
        return  # tree without a metrics surface (partial fixtures)

    run_rows = table_rows(metrics_sf, "runMetrics") or []
    tables = [(struct, table, surface,
               table_rows(metrics_sf, table) or [])
              for struct, table, surface in STATS_TABLES]

    # Row-name uniqueness across all four tables.
    seen = {}
    for name, _refs, pos in run_rows + [row for *_, rows in tables
                                        for row in rows]:
        if name in seen:
            emit(findings, metrics_sf, "metric-row-coverage", pos,
                 f"metric row name '{name}' is declared twice; "
                 f"export names must be unique")
        seen[name] = pos

    # RunResult numeric fields (plus the expanded CoreStats behind
    # RunResult::stats) must each be read by exactly one row.
    fields = class_fields(runner_sf.code, runres)
    expect = {}
    for fname, ftype in fields.items():
        base = ftype.replace("const", "").strip()
        if base in NUMERIC_TYPES:
            expect[fname] = (runner_sf, runres.start)
        elif base == "CoreStats":
            core_sf, core = find_struct(files, "CoreStats")
            if core is not None:
                for cf, ct in class_fields(core_sf.code, core).items():
                    if ct.replace("const", "").strip() in NUMERIC_TYPES:
                        expect[f"{fname}.{cf}"] = (core_sf, core.start)

    for path, cnt in sorted(primary_counts(run_rows, expect).items()):
        sf, pos = expect[path]
        if cnt == 0:
            emit(findings, sf, "metric-row-coverage", pos,
                 f"RunResult field '{path}' is not exported by any "
                 f"runMetrics() row — reported-but-unnamed results "
                 f"never reach the CSV/JSON surface")
        elif cnt > 1:
            emit(findings, sf, "metric-row-coverage", pos,
                 f"RunResult field '{path}' is exported by {cnt} "
                 f"runMetrics() rows; exactly one primary row per "
                 f"field")
    check_stale_rows(findings, metrics_sf, "runMetrics", "RunResult",
                     run_rows, fields)

    # Each stats struct the tree has a table for: every numeric field
    # read by exactly one primary row, and no stale rows.
    for struct, table, surface, rows in tables:
        sf, sc = find_struct(files, struct)
        if sc is None or not rows:
            continue
        sfields = {f for f, t in class_fields(sf.code, sc).items()
                   if t.replace("const", "").strip() in NUMERIC_TYPES}
        for field, cnt in sorted(primary_counts(rows, sfields).items()):
            if cnt == 0:
                emit(findings, sf, "metric-row-coverage", sc.start,
                     f"{struct} field '{field}' has no primary "
                     f"{table}() row — the {surface} never reports it")
            elif cnt > 1:
                emit(findings, sf, "metric-row-coverage", sc.start,
                     f"{struct} field '{field}' is exported by {cnt} "
                     f"primary {table}() rows; exactly one")
        check_stale_rows(findings, metrics_sf, table, struct, rows,
                         sfields)


# ---------------------------------------------------------------------
# Rules: banned calls and hot-path allocation
# ---------------------------------------------------------------------

BANNED_CALLS = [
    ("no-raw-assert", re.compile(r"(?<![\w:])assert\s*\("),
     "use lbp_assert (common/logging.hh) instead of assert"),
    ("no-raw-random", re.compile(r"(?<![\w:])s?rand\s*\("),
     "use common/random.hh instead of rand()/srand()"),
    ("no-raw-random", re.compile(r"\bstd\s*::\s*s?rand\b"),
     "use common/random.hh instead of std::rand/std::srand"),
    ("no-raw-time", re.compile(r"(?<![\w:])time\s*\("),
     "wall-clock time breaks determinism; seed explicitly"),
    ("no-raw-time",
     re.compile(r"\b(?:system|steady|high_resolution)_clock\b"),
     "wall-clock time breaks determinism; timing goes through "
     "Stopwatch (common/telemetry.hh)"),
    ("no-raw-thread",
     re.compile(r"\bstd\s*::\s*(?:jthread|thread|async)\b"),
     "spawn threads only via common/thread_pool.hh (ThreadPool)"),
    ("no-raw-thread", re.compile(r"\bpthread_create\s*\("),
     "spawn threads only via common/thread_pool.hh (ThreadPool)"),
]

BANNED_INCLUDES = [
    ("no-raw-random", re.compile(r"#\s*include\s*<random>"),
     "use common/random.hh instead of <random>"),
    ("no-raw-time", re.compile(r"#\s*include\s*<ctime>"),
     "wall-clock time breaks determinism; drop <ctime>"),
]

# Scopes sanctioned to implement the wrapped facility: class scopes by
# name, function scopes by (owner or bare) name.
SCOPE_ALLOW = {
    "no-raw-thread": {("class", "ThreadPool"),
                      ("function", "resolveJobs")},
    "no-raw-time": {("class", "Stopwatch")},
}


def scope_allows(rule, sf, pos):
    allowed = SCOPE_ALLOW.get(rule)
    if not allowed:
        return False
    for sc in sf.scopes:
        if sc.start < pos < (sc.end or 0):
            if (sc.kind, sc.name) in allowed:
                return True
            if sc.kind == "function" and sc.owner and \
                    ("class", sc.owner) in allowed:
                return True
    return False


def check_banned_calls(sf, findings):
    for rule, pattern, message in BANNED_CALLS:
        for m in pattern.finditer(sf.code):
            if scope_allows(rule, sf, m.start()):
                continue
            emit(findings, sf, rule, m.start(), message)
    for rule, pattern, message in BANNED_INCLUDES:
        # Includes live on blanked preprocessor lines; scan the
        # stripped text instead.
        for m in pattern.finditer(sf.stripped):
            emit(findings, sf, rule, m.start(), message)


HOT_ALLOC_FUNCS = {
    "core/core.cc": ("OooCore", [
        "stepCycle", "retireStage", "resolveStage", "deferStage",
        "allocStage", "fetchStage", "scheduleInst", "doFlush",
        "handleEarlyResteer", "makeInst", "nextWakeup",
        "fastForwardTo", "btbCheck", "icacheCheck",
    ]),
    "bpu/tage.cc": ("TagePredictor", [
        "predict", "specUpdateHist", "checkpoint", "restore", "train",
    ]),
}

HOT_ALLOC_PATTERN = re.compile(
    r"\bnew\b|\bmake_unique\s*<|\bmake_shared\s*<|"
    r"\.\s*(?:push_back|emplace_back|resize|reserve)\s*\(")


def check_hot_path_alloc(sf, findings):
    spec = None
    for suffix, s in HOT_ALLOC_FUNCS.items():
        if sf.rel.endswith(suffix):
            spec = s
            break
    if spec is None:
        return
    owner, names = spec
    for sc in sf.scopes:
        if sc.kind != "function" or sc.name not in names:
            continue
        if sc.owner is not None and sc.owner != owner:
            continue
        body = sf.code[sc.start:sc.end]
        for m in HOT_ALLOC_PATTERN.finditer(body):
            emit(findings, sf, "no-hot-path-alloc",
                 sc.start + m.start(),
                 f"allocation in hot function {sc.name}(): the "
                 f"per-cycle path must use preallocated pools/rings "
                 f"(construction-time code may carry "
                 f"'// analyze:allow(no-hot-path-alloc)')")


# ---------------------------------------------------------------------
# Rules: export-surface doc comments and include hygiene
# ---------------------------------------------------------------------

# Headers outside obs/ and serve/ whose namespace-scope types are part
# of the documented surface: the sweep, store and runner headers that
# docs/SWEEP.md, docs/METRICS.md and the manifest schema describe, the
# wire-format helpers, the public containers every layer reuses, the
# one histogram class and the command-line parser every tool reads.
DOC_DIRS = ("obs/", "serve/")
DOC_HEADERS = {
    "sim/sweep.hh", "sim/result_store.hh", "sim/runner.hh",
    "common/ring_queue.hh", "common/event_wheel.hh",
    "common/sat_counter.hh", "common/set_assoc.hh",
    "common/jsonl.hh", "common/socket.hh", "common/stats.hh",
    "common/cli.hh",
}


def check_doc_comments(sf, findings):
    if sf.path.suffix not in HEADER_SUFFIXES or not (
            sf.sub.startswith(DOC_DIRS) or sf.sub in DOC_HEADERS):
        return
    for sc in sf.scopes:
        if sc.kind != "class" or (sc.parent is not None
                                  and sc.parent.kind != "namespace"):
            continue
        # The header starts at the `template` introducer of a class
        # template, which is where its doc comment goes.
        line = sf.line(sc.head)
        prev = sf.raw_lines[line - 2].strip() if line >= 2 else ""
        if not (prev.startswith("///") or prev.endswith("*/")):
            emit(findings, sf, "obs-doc-comment", sc.head,
                 f"{sc.name} is part of the observability export "
                 f"surface and needs a /// or /** doc comment")


GUARD_IFNDEF = re.compile(r"#\s*ifndef\s+(\w+)")
PARENT_INCLUDE = re.compile(r"#\s*include\s*\"(\.\./[^\"]*)\"")


def check_include_hygiene(sf, findings):
    if sf.path.suffix in HEADER_SUFFIXES:
        *dirs, name = sf.sub.split("/")
        stem = re.sub(r"[^A-Za-z0-9]", "_", Path(name).stem)
        want = "_".join(["LBP", *dirs, stem]).upper() + "_HH"
        m = GUARD_IFNDEF.search(sf.stripped)
        if not m or m.group(1) != want:
            emit(findings, sf, "include-guard", m.start() if m else 0,
                 f"include guard should be {want} "
                 f"(found {m.group(1) if m else 'none'})")
    # Include paths are string literals, blanked in the stripped text:
    # match the raw text, and skip matches the stripped text shows to
    # sit inside a comment.
    for m in PARENT_INCLUDE.finditer(sf.raw):
        if sf.stripped[m.start()] == "#":
            emit(findings, sf, "no-parent-include", m.start(),
                 f"include \"{m.group(1)}\" escapes src/; use a "
                 f"src-rooted path")


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

RULE_IDS = [
    ("spec-state-write",
     "Predictor state mutated outside the repair interface"),
    ("unordered-iteration",
     "Iteration over an unordered container (nondeterministic order)"),
    ("pointer-keyed-container",
     "Container keyed or hashed by pointer values"),
    ("parallel-float-accum",
     "Order-dependent float accumulation in a parallel worker"),
    ("stats-counter-dead", "Stats counter never written or never read"),
    ("metric-row-coverage",
     "RunResult/SweepStats/ServeStats/StoreStats field vs "
     "metric-table row mismatch"),
    ("no-raw-assert", "Raw assert() instead of lbp_assert"),
    ("no-raw-random", "Unseeded libc/std randomness"),
    ("no-raw-time", "Wall-clock access outside Stopwatch"),
    ("no-raw-thread", "Thread spawned outside ThreadPool"),
    ("no-hot-path-alloc", "Allocation on the per-cycle hot path"),
    ("obs-doc-comment", "Undocumented type on the export surface"),
    ("include-guard", "Include guard does not match the header path"),
    ("no-parent-include", "Include path escapes src/ with ../"),
]


def analyze_tree(repo_root, src_root):
    files = []
    for path in iter_source_files(src_root):
        try:
            rel = path.relative_to(repo_root).as_posix()
        except ValueError:
            rel = path.as_posix()
        files.append(SourceFile(path, rel,
                                path.relative_to(src_root).as_posix()))

    findings = []
    predictor_classes = collect_predictor_classes(files)
    check_spec_state_writes(files, predictor_classes, findings)
    float_fields = collect_float_fields(files)
    for sf in files:
        check_unordered_iteration(sf, findings)
        check_pointer_keys(sf, findings)
        check_parallel_float_accum(sf, float_fields, findings)
        check_banned_calls(sf, findings)
        check_hot_path_alloc(sf, findings)
        check_doc_comments(sf, findings)
        check_include_hygiene(sf, findings)
    check_stats_counter_dead(files, findings)
    check_metric_rows(files, findings)
    findings.sort(key=lambda f: (f.rel, f.line, f.rule))
    return findings


def write_sarif(findings, out_path):
    results = []
    for f in findings:
        results.append({
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.rel},
                    "region": {"startLine": f.line},
                },
            }],
        })
    sarif = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0"
                    ".json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "lbp_analyze",
                "informationUri":
                    "https://example.invalid/lbp/docs/ANALYSIS.md",
                "rules": [{"id": rid,
                           "shortDescription": {"text": desc}}
                          for rid, desc in RULE_IDS],
            }},
            "results": results,
        }],
    }
    Path(out_path).write_text(json.dumps(sarif, indent=2) + "\n",
                              encoding="utf-8")


def load_baseline(path):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return set(data.get("findings", []))


# ---------------------------------------------------------------------
# Self-test over tools/analyze_fixtures/
# ---------------------------------------------------------------------

# Exact finding counts per fixture, keyed by fixture-relative path (the
# doc-comment rule matches on directory, so obs/ and sim/ matter).
FIXTURE_EXPECT = {
    "bad_spec_write.hh": {"spec-state-write": 2},
    "clean_spec.hh": {},
    "bad_unordered_iter.cc": {"unordered-iteration": 2},
    "bad_pointer_key.hh": {"pointer-keyed-container": 2},
    "bad_parallel_accum.cc": {"parallel-float-accum": 1},
    "clean_determinism.cc": {},
    "bad_counters.hh": {"stats-counter-dead": 2},
    "nested_stats.hh": {"stats-counter-dead": 1},
    "runner.hh": {"metric-row-coverage": 2},
    "metrics.cc": {"metric-row-coverage": 4},
    "protocol.hh": {"metric-row-coverage": 1},
    "result_store.hh": {"metric-row-coverage": 1},
    "core/core.cc": {"no-hot-path-alloc": 2},
    "bad_calls.cc": {"no-raw-assert": 1, "no-raw-random": 1,
                     "no-raw-time": 1},
    "bad_thread.cc": {"no-raw-thread": 1},
    "bad_include.hh": {"include-guard": 1, "no-parent-include": 1},
    "obs/bad_obs.hh": {"obs-doc-comment": 1},
    "serve/bad_serve.hh": {"obs-doc-comment": 1},
    "sim/sweep.hh": {"obs-doc-comment": 1},
    "common/ring_queue.hh": {"obs-doc-comment": 1},
    "clean.hh": {},
}


def self_test(repo_root):
    fixtures = repo_root / "tools" / "analyze_fixtures"
    if not fixtures.is_dir():
        print(f"lbp_analyze: fixture directory {fixtures} missing")
        return 1
    findings = analyze_tree(repo_root, fixtures)

    by_file = {}
    for f in findings:
        name = (repo_root / f.rel).relative_to(fixtures).as_posix()
        by_file.setdefault(name, {})
        by_file[name][f.rule] = by_file[name].get(f.rule, 0) + 1

    ok = True
    for name, rules in FIXTURE_EXPECT.items():
        got = by_file.get(name, {})
        if got != rules:
            print(f"lbp_analyze self-test: {name}: expected {rules}, "
                  f"got {got}")
            ok = False
    for name in by_file:
        if name not in FIXTURE_EXPECT:
            print(f"lbp_analyze self-test: unexpected findings in "
                  f"{name}: {by_file[name]}")
            ok = False

    # Diff mode: a baseline built from the current findings silences
    # them all; injecting a synthetic new finding must fail the diff.
    baseline = {f.key() for f in findings}
    new = [f for f in findings if f.key() not in baseline]
    if new:
        print("lbp_analyze self-test: diff mode leaked baselined "
              "findings")
        ok = False
    baseline.discard(findings[0].key() if findings else "")
    new = [f for f in findings if f.key() not in baseline]
    if len(new) != 1:
        print(f"lbp_analyze self-test: diff mode should flag exactly "
              f"the one non-baselined finding, got {len(new)}")
        ok = False

    print("lbp_analyze self-test: %s (%d findings across fixtures)" %
          ("PASS" if ok else "FAIL", len(findings)))
    return 0 if ok else 1


def main(argv):
    ap = argparse.ArgumentParser(
        description="scope-aware static analysis for the lbp tree")
    ap.add_argument("repo_root")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--sarif", help="write a SARIF 2.1.0 report here")
    ap.add_argument("--baseline",
                    help="baseline JSON (default "
                         "tools/analyze_baseline.json if present)")
    ap.add_argument("--diff", action="store_true",
                    help="fail only on findings not in the baseline")
    args = ap.parse_args(argv[1:])

    repo_root = Path(args.repo_root).resolve()
    if args.self_test:
        return self_test(repo_root)

    src_root = repo_root / "src"
    if not src_root.is_dir():
        print(f"lbp_analyze: {src_root} is not a directory")
        return 2

    findings = analyze_tree(repo_root, src_root)
    if args.sarif:
        write_sarif(findings, args.sarif)

    baseline_path = args.baseline
    if baseline_path is None:
        default = repo_root / "tools" / "analyze_baseline.json"
        if default.is_file():
            baseline_path = str(default)

    if args.diff and baseline_path:
        baseline = load_baseline(baseline_path)
        new = [f for f in findings if f.key() not in baseline]
        suppressed = len(findings) - len(new)
        for f in new:
            print(f)
        print(f"lbp_analyze: {len(new)} new finding(s), "
              f"{suppressed} baselined")
        return 1 if new else 0

    for f in findings:
        print(f)
    if findings:
        print(f"lbp_analyze: {len(findings)} finding(s)")
        return 1
    print("lbp_analyze: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
