#!/usr/bin/env python3
"""pier-lint: machine-checked rules for pier-cpp's recurring bug classes.

PIER's correctness rests on a single-threaded deterministic event loop; the
three bug classes that have actually bitten this repo (see tools/lint/README.md)
are all invisible to the compiler and tedious for reviewers:

  timer-capture   A lambda literal that captures `this` (or captures
                  everything via [=] / [&]) handed to EventLoop::ScheduleAt /
                  ScheduleAfter / Vri::ScheduleEvent while DISCARDING the
                  returned cancellation token — directly, or through one
                  named closure (a local `auto f = [this...]{...}` that the
                  scheduled lambda captures). The oldest leak class: nothing
                  can cancel the closure at teardown, so it fires into a
                  destroyed object (or pins it forever). Store the token and
                  cancel it in teardown, or capture a weak guard.

  wallclock       Wall-clock / ambient-nondeterminism sources
                  (std::chrono::*_clock, time(), gettimeofday, rand, ...)
                  anywhere in src/ outside src/runtime/physical_runtime.*.
                  Simulated time must flow from Vri::Now() and seeded Rng
                  streams, or runs stop being bit-for-bit reproducible and
                  every self-checking bench golden file (E15, E16) rots.

  blocking        Blocking sleeps/syscalls on event-loop paths. The Main
                  Scheduler is one thread per node; a sleep freezes every
                  query on the node (and in simulation, the whole fleet).

  hot-alloc       A per-row heap allocation of a Tuple (make_shared<Tuple>,
                  make_unique<Tuple>, new Tuple) inside a loop in an
                  operator's ProcessBatch body. The batch path exists to
                  amortize per-tuple costs; materializing a heap Tuple per
                  row silently gives the win back. Use the batch row
                  accessors (RowTuple/EncodeRow/RowHash are by-value and
                  stack-friendly) or hoist the allocation out of the loop.

  op-resource     A direct event-loop or DHT registration call
                  (ScheduleEvent, CancelEvent, OnNewData, OnNewDataBatch,
                  CancelNewData, RegisterUpcall, UnregisterUpcall), or a
                  direct DHT network call (dht->Send, SendToId, Get, Put,
                  PutBatch, Renew), in an operator file, src/qp/op_*.cc. The
                  base Operator owns every timer, subscription and upcall
                  (After, Subscribe, CatchUp, Intercept) and releases them
                  all in Close; a direct call is a resource that Close cannot
                  see. Its Put, Send and Get charge the query's cost ledger;
                  a direct network call is traffic the ledger cannot see.

  msg-type        Two direct-message type constants (`constexpr uint8_t
                  kMsg* = N`) in src/overlay or src/qp sharing a number, or
                  one missing from the "Direct message types" table in
                  src/overlay/README.md. OverlayRouter dispatches a frame on
                  its first byte, so a reused number silently routes one
                  layer's frames to another's handler. A tree-wide check;
                  src/apps (its own message space) is exempt.

  unset-option    A field of a struct named *Options in src/runtime,
                  src/overlay or src/qp that no file in src/, tests/,
                  bench/, benchmark/ or examples/ assigns (`.f =` or
                  `->f =`). A setting nothing sets is a constant spelled as
                  configuration: every one doubles the configurations tests
                  would have to cover. A field whose type is itself an
                  options struct is judged through its own fields.
                  Tree-wide, like msg-type.

  readme-ref      A backticked repository path or `Class::Member` in
                  README.md or src/*/README.md that does not resolve: the
                  path names no file (relative to the checkout, the README's
                  directory or src/; a bare file name anywhere in the source
                  directories), or no header under src/ that defines the
                  class names the member. Also a test cited by name in
                  parentheses after a backticked test binary, as in
                  `test_dht` (`OwnerCache`): each name must be the suite or
                  the test of a TEST*(Suite, Name) in tests/test_dht.cc.
                  Deleting a name the READMEs cite must take the citation
                  with it. Tree-wide, like msg-type.

Driving: reads compile_commands.json (pass -p BUILD_DIR) for the TU list and,
when the libclang python bindings are importable, uses the clang AST; without
them (this container ships none) it falls back to a built-in lexical engine
that strips comments/strings and reasons about statements. Both engines honor
the same suppressions and produce the same diagnostic format.

Suppressing: append `// pier-lint: allow(<rule>)` to the offending line, or
put it alone on the line directly above. Suppressions are for sites whose
safety argument lives in a comment next to them; the tree budget is small
(see README) so the default stays "fix it".

Exit status: 0 clean, 1 diagnostics were produced, 2 operational error.
"""

import argparse
import fnmatch
import glob
import json
import os
import re
import sys

RULES = ("timer-capture", "wallclock", "blocking", "hot-alloc", "op-resource",
         "msg-type", "unset-option", "readme-ref")

SCHEDULE_CALL = re.compile(r"\b(ScheduleAt|ScheduleAfter|ScheduleEvent)\s*\(")

PROCESS_BATCH = re.compile(r"\bProcessBatch\s*\(")
LOOP_KEYWORD = re.compile(r"\b(for|while|do)\b")
HOT_ALLOC_TOKENS = [
    (re.compile(r"\bmake_shared\s*<\s*Tuple\s*>"), "make_shared<Tuple>"),
    (re.compile(r"\bmake_unique\s*<\s*Tuple\s*>"), "make_unique<Tuple>"),
    (re.compile(r"\bnew\s+Tuple\b"), "new Tuple"),
]

# Ambient nondeterminism. Matched against comment/string-stripped text.
WALLCLOCK_TOKENS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(\bstd::)?\btime\s*\(\s*(nullptr|NULL|0|&)"), "time()"),
    (re.compile(r"\b[sd]?rand(om)?\s*\(\s*\)"), "rand()/random()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
]

BLOCKING_TOKENS = [
    (re.compile(r"\busleep\s*\("), "usleep()"),
    (re.compile(r"(?<![_A-Za-z0-9])sleep\s*\("), "sleep()"),
    (re.compile(r"\bnanosleep\s*\("), "nanosleep()"),
    (re.compile(r"\bsleep_for\s*\("), "std::this_thread::sleep_for"),
    (re.compile(r"\bsleep_until\s*\("), "std::this_thread::sleep_until"),
    (re.compile(r"(?<![_A-Za-z0-9:])system\s*\("), "system()"),
    (re.compile(r"\bpopen\s*\("), "popen()"),
]

# Resource calls operators must leave to the base Operator's helpers.
OP_RESOURCE_TOKENS = [
    (re.compile(r"\b%s\s*\(" % name), name + "()")
    for name in ("ScheduleEvent", "CancelEvent", "OnNewData", "OnNewDataBatch",
                 "CancelNewData", "RegisterUpcall", "UnregisterUpcall")
] + [
    # Anchored on `dht->`: the base's own Put/Send/Get and the local store's
    # dht->objects()->Get stay clean.
    (re.compile(r"\bdht\s*->\s*%s\s*\(" % name), "dht->" + name + "()")
    for name in ("Send", "SendToId", "Get", "Put", "PutBatch", "Renew")
]

# Direct-message type constants, and the README table that lists them.
MSG_TYPE_CONST = re.compile(r"\bconstexpr\s+uint8_t\s+(kMsg\w+)\s*=\s*(\d+)\s*;")
TYPE_TABLE = re.compile(r"^## Direct message types\n(.*?)(?=^## |\Z)",
                        re.M | re.S)
TYPE_TABLE_README = os.path.join("src", "overlay", "README.md")

# Options structs, and the trees whose assignments count as setting a field.
OPTIONS_STRUCT = re.compile(r"\bstruct\s+(\w*Options)\s*(?::[^;{]*)?\{")
NOT_A_FIELD = re.compile(r"^(static|using|typedef|friend|enum|struct|class|"
                         r"template|constexpr)\b")
FIELD_ASSIGN = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*=(?!=)")
ASSIGNER_DIRS = ("src", "tests", "bench", "benchmark", "examples")
SOURCE_SUFFIXES = (".cc", ".h", ".cpp", ".hpp")

# README references: a backticked span that is a `Class::Member` (arguments
# allowed) or a path (a name under one of SOURCE_DIRS, or a file name with a
# source or document suffix; `*` globs allowed).
README_FILES = ("README.md", os.path.join("src", "*", "README.md"))
BACKTICKED = re.compile(r"`([^`\n]+)`")
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
MEMBER_REF = re.compile(r"^([A-Z]\w*)((?:::~?\w+)+)(?:\(.*\))?$")
PATH_REF = re.compile(r"^[\w.*-]+(?:/[\w.*-]+)*/?$")
PATH_SUFFIX = re.compile(r"\.(cc|h|md|py|json|txt|yml|\*)$")
SOURCE_DIRS = ("src", "tests", "bench", "benchmark", "tools", "examples")
# A test binary followed by a parenthesized list of backticked names, and the
# suites and tests a test file defines.
TEST_CITE = re.compile(r"`(test_\w+)`\s*\(((?:\s*`\w+`\s*,?)+)\)")
TEST_DEF = re.compile(r"\bTEST\w*\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)")

SUPPRESS = re.compile(r"//\s*pier-lint:\s*allow\(([^)]*)\)")
PRETEND_PATH = re.compile(r"//\s*pier-lint-test:\s*pretend-path=(\S+)")
TYPE_TABLE_PRAGMA = re.compile(r"//\s*pier-lint-test:\s*type-table=(\S+)")
README_PRAGMA = re.compile(r"//\s*pier-lint-test:\s*readme=(\S+)")
EXPECT = re.compile(r"//\s*expect:\s*([a-z\-,\s]+)")
MD_EXPECT = re.compile(r"<!--\s*expect:\s*([a-z\-,\s]+?)\s*-->")


class Diagnostic:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: error: [%s] %s" % (self.path, self.line, self.rule,
                                          self.message)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literal bodies, preserving newlines
    and column positions so diagnostics point at real source locations."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"' or c == "'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def collect_suppressions(raw_lines):
    """Map line number -> set of suppressed rules. A bare-line suppression
    covers the following line as well."""
    sup = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        sup.setdefault(idx, set()).update(rules)
        if line.strip().startswith("//"):  # standalone comment line
            sup.setdefault(idx + 1, set()).update(rules)
    return sup


def matching_paren(text, open_idx):
    """Index of the ')' matching text[open_idx] == '(' (or -1)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def matching_brace(text, open_idx):
    """Index of the '}' matching text[open_idx] == '{' (or -1)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


LAMBDA_INTRO = re.compile(r"\[([^\[\]]*)\]\s*(?:\([^()]*\)\s*)?"
                          r"(?:mutable\s*)?(?:->\s*[\w:<>&*\s]+\s*)?\{")


def risky_captures(capture_list):
    """True if a lambda capture list captures `this` or defaults to
    capture-everything ([=] implies this; [&] additionally dangles locals)."""
    for item in capture_list.split(","):
        item = item.strip()
        if item in ("this", "*this", "=", "&"):
            return True
    return False


IDENTIFIER = re.compile(r"&?\s*([A-Za-z_]\w*)$")


def named_closure_captures(text, name, before):
    """Capture list of the lambda literal local `name` was initialised from
    (`auto name = [...]`), if that declaration is still in scope at offset
    `before`; the latest such declaration wins. None otherwise."""
    found = None
    decl = re.compile(r"\bauto\s+%s\s*=\s*\[([^\[\]]*)\]" % re.escape(name))
    for m in decl.finditer(text, 0, before):
        depth = 0
        for c in text[m.end():before]:
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth < 0:
                    break  # the declaring block closed before the call
        if depth >= 0:
            found = m.group(1)
    return found


def risky_named_capture(text, capture_list, before):
    """The first capture in `capture_list` naming an in-scope local closure
    whose own captures are risky (the closure reaches `this` through it)."""
    for item in capture_list.split(","):
        m = IDENTIFIER.match(item.strip())
        if not m or m.group(1) == "this":
            continue
        inner = named_closure_captures(text, m.group(1), before)
        if inner is not None and risky_captures(inner):
            return m.group(1)
    return None


def statement_prefix(text, call_start):
    """Source between the start of the enclosing statement and the call."""
    i = call_start - 1
    while i >= 0 and text[i] not in ";{}":
        i -= 1
    return text[i + 1:call_start]


def token_discarded(prefix):
    """True if nothing in the statement consumes the returned token: no
    assignment, no `return`, and the call is not itself an argument (an
    unclosed '(' in the prefix, e.g. timers_.push_back(Schedule...)."""
    if re.search(r"(^|[^=!<>])=([^=]|$)", prefix):
        return False
    if re.search(r"\breturn\b", prefix):
        return False
    if prefix.count("(") > prefix.count(")"):
        return False
    return True


def check_timer_capture(path, text, diags):
    for m in SCHEDULE_CALL.finditer(text):
        open_idx = text.index("(", m.end() - 1)
        close_idx = matching_paren(text, open_idx)
        if close_idx < 0:
            continue
        args = text[open_idx + 1:close_idx]
        risky = None
        for lm in LAMBDA_INTRO.finditer(args):
            if risky_captures(lm.group(1)):
                risky = "`%s`" % (
                    lm.group(0).split("]")[0].strip("[").strip() or "?")
                break
            named = risky_named_capture(text, lm.group(1), m.start())
            if named is not None:
                risky = "`%s`, a closure that captures `this`," % named
                break
        if risky is None:
            continue
        if token_discarded(statement_prefix(text, m.start())):
            diags.append(Diagnostic(
                path, line_of(text, m.start()), "timer-capture",
                "lambda captures %s but the %s cancellation token is "
                "discarded; store the token (and cancel it in teardown) or "
                "capture a weak guard" % (risky, m.group(1))))


def loop_body_ranges(body, base):
    """Absolute (start, end) offsets of brace-delimited for/while/do bodies
    inside `body` (which starts at offset `base` of the full text). Nested
    loops yield nested ranges; membership in any range is what matters."""
    ranges = []
    for lm in LOOP_KEYWORD.finditer(body):
        i = lm.end()
        if lm.group(1) in ("for", "while"):
            while i < len(body) and body[i] in " \t\n":
                i += 1
            if i >= len(body) or body[i] != "(":
                continue  # e.g. the trailing `while` of a do-while
            close = matching_paren(body, i)
            if close < 0:
                continue
            i = close + 1
        while i < len(body) and body[i] in " \t\n":
            i += 1
        if i < len(body) and body[i] == "{":
            end = matching_brace(body, i)
            if end >= 0:
                ranges.append((base + i, base + end))
    return ranges


def check_hot_alloc(path, text, diags):
    """Per-row heap Tuple allocation inside a loop in a ProcessBatch body."""
    for m in PROCESS_BATCH.finditer(text):
        open_idx = text.index("(", m.end() - 1)
        close_idx = matching_paren(text, open_idx)
        if close_idx < 0:
            continue
        j = close_idx + 1
        while j < len(text) and text[j] not in "{;":
            j += 1  # skip `override`, `const`, whitespace
        if j >= len(text) or text[j] != "{":
            continue  # declaration or a call statement, not a definition
        body_end = matching_brace(text, j)
        if body_end < 0:
            continue
        loops = loop_body_ranges(text[j + 1:body_end], j + 1)
        if not loops:
            continue
        seen = set()
        for rx, name in HOT_ALLOC_TOKENS:
            for am in rx.finditer(text, j + 1, body_end):
                pos = am.start()
                if not any(s <= pos < e for s, e in loops):
                    continue
                ln = line_of(text, pos)
                if (ln, name) in seen:
                    continue
                seen.add((ln, name))
                diags.append(Diagnostic(
                    path, ln, "hot-alloc",
                    "%s inside a ProcessBatch loop heap-allocates one Tuple "
                    "per row, forfeiting the batch path's amortization; use "
                    "the batch row accessors (RowTuple/EncodeRowTo/RowHash) "
                    "or hoist the allocation out of the loop" % name))


def check_token_rules(path, text, tokens, rule, why, diags):
    for lineno, line in enumerate(text.split("\n"), start=1):
        for rx, name in tokens:
            if rx.search(line):
                diags.append(Diagnostic(path, lineno, rule,
                                        "%s: %s" % (name, why)))
                break


def is_physical_runtime(path):
    return re.search(r"(^|/)src/runtime/physical_runtime\.(h|cc)$", path)


def in_runtime_dir(path):
    return re.search(r"(^|/)src/runtime/", path)


def is_operator_file(path):
    return re.search(r"(^|/)src/qp/op_[^/]*\.cc$", path)


def is_msg_type_file(path):
    return re.search(r"(^|/)src/(overlay|qp)/", path)


def is_option_file(path):
    return re.search(r"(^|/)src/(runtime|overlay|qp)/", path)


CLASS_HEAD = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{()]*\{")


def qualified_name(text, m):
    """`Outer::Options` for the struct opened by match `m`: every class or
    struct whose braces enclose it, outermost first."""
    names = [c.group(1) for c in CLASS_HEAD.finditer(text, 0, m.start())
             if matching_brace(text, c.end() - 1) > m.start()]
    return "::".join(names + [m.group(1)])


def option_fields(path, text):
    """(path, struct, field, line) of each data member of a struct named
    *Options, except members whose type is itself an options struct."""
    fields = []
    for m in OPTIONS_STRUCT.finditer(text):
        struct = qualified_name(text, m)
        close = matching_brace(text, m.end() - 1)
        start, depth = m.end(), 0
        for i in range(m.end(), max(close, m.end())):
            if text[i] in "({":
                depth += 1
            elif text[i] in ")}":
                depth -= 1
            elif text[i] == ";" and depth == 0:
                member = re.sub(r"^\s*(public|protected|private)\s*:", "",
                                text[start:i]).strip()
                decl = re.split(r"=|\{", member, maxsplit=1)[0]
                names = re.findall(r"[A-Za-z_]\w*", decl)
                if len(names) >= 2 and "(" not in decl and \
                        not NOT_A_FIELD.match(member) and \
                        not names[-2].endswith("Options"):
                    at = start + text[start:i].find(decl) + decl.rfind(names[-1])
                    fields.append((path, struct, names[-1],
                                   line_of(text, at)))
                start = i + 1
    return fields


def assigned_fields(text):
    """Every member name the (stripped) text assigns through `.` or `->`."""
    return set(FIELD_ASSIGN.findall(text))


def tree_assignments(files):
    """Assigned member names across the checkout the linted files sit in
    (ASSIGNER_DIRS under its root), or None when no root is in reach."""
    for f in files:
        m = re.search(r"^(.*?)src/(runtime|overlay|qp)/", f.replace(os.sep, "/"))
        if not m:
            continue
        names = set()
        for d in ASSIGNER_DIRS:
            for root, _dirs, entries in os.walk(os.path.join(m.group(1) or ".", d)):
                for n in entries:
                    if n.endswith(SOURCE_SUFFIXES):
                        with open(os.path.join(root, n), encoding="utf-8",
                                  errors="replace") as fh:
                            names |= assigned_fields(
                                strip_comments_and_strings(fh.read()))
        return names
    return None


def check_unset_options(fields, assigned, diags):
    for path, struct, field, line in fields:
        if field not in assigned:
            diags.append(Diagnostic(
                path, line, "unset-option",
                "%s::%s is never assigned in %s: make it a named constant in "
                "the class that reads it" %
                (struct, field, ", ".join(d + "/" for d in ASSIGNER_DIRS))))


def msg_type_consts(path, text):
    """(path, name, number, line) of each direct-message type constant."""
    return [(path, m.group(1), int(m.group(2)), line_of(text, m.start()))
            for m in MSG_TYPE_CONST.finditer(text)]


def type_table_names(readme_text):
    """Every kMsg* name in the README's "Direct message types" section."""
    m = TYPE_TABLE.search(readme_text)
    return set(re.findall(r"\bkMsg\w+", m.group(1))) if m else set()


def check_msg_types(consts, table, diags):
    """Tree-wide: `consts` from every msg-type file, `table` the README's
    names (None when the README is not in reach: numbers only)."""
    first = {}
    for path, name, number, line in sorted(consts, key=lambda c: (c[0], c[3])):
        if number in first:
            fpath, fname, fline = first[number]
            diags.append(Diagnostic(
                path, line, "msg-type",
                "%s reuses direct message type %d of %s (%s:%d); the router "
                "dispatches on the first byte, so one handler gets both" %
                (name, number, fname, fpath, fline)))
        else:
            first[number] = (path, name, line)
        if table is not None and name not in table:
            diags.append(Diagnostic(
                path, line, "msg-type",
                "%s is missing from the direct message type table in %s" %
                (name, TYPE_TABLE_README)))


def readme_refs(readme_text):
    """(line, span) of each backticked span outside fenced code blocks."""
    text = FENCE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), readme_text)
    return [(line_of(text, m.start()), m.group(1))
            for m in BACKTICKED.finditer(text)]


def test_citations(readme_text):
    """(line, test binary, name) of each name cited in parentheses after a
    backticked test binary, outside fenced code blocks."""
    text = FENCE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), readme_text)
    return [(line_of(text, m.start(2) + n.start()), m.group(1), n.group(1))
            for m in TEST_CITE.finditer(text)
            for n in re.finditer(r"`(\w+)`", m.group(2))]


def check_test_citations(path, text, root, diags):
    """Each test name `path` cites must be a suite or a test of a TEST*
    macro in tests/<binary>.cc of the checkout at `root`."""
    defined = {}
    for line, binary, name in test_citations(text):
        if binary not in defined:
            try:
                with open(os.path.join(root, "tests", binary + ".cc"),
                          encoding="utf-8") as fh:
                    src = strip_comments_and_strings(fh.read())
            except OSError:
                src = ""
            defined[binary] = {n for m in TEST_DEF.finditer(src)
                               for n in m.groups()}
        if name not in defined[binary]:
            diags.append(Diagnostic(
                path, line, "readme-ref",
                "`%s` (`%s`) does not resolve: tests/%s.cc defines no "
                "TEST suite or test named %s" % (binary, name, binary, name)))


def class_headers(headers):
    """Class or struct name -> the stripped text of each header defining it."""
    defs = {}
    for text in headers:
        for m in CLASS_HEAD.finditer(text):
            defs.setdefault(m.group(1), []).append(text)
    return defs


def path_resolves(ref, readme_dir, root, basenames):
    """A path ref names a file relative to the checkout, the README's
    directory or src/; a bare file name may live anywhere in SOURCE_DIRS."""
    ref = ref.rstrip("/")
    if "/" not in ref and any(fnmatch.fnmatch(n, ref) for n in basenames):
        return True
    return any(glob.glob(os.path.join(base, ref))
               for base in (root, readme_dir, os.path.join(root, "src")))


def check_readme_refs(readmes, headers, root, diags):
    """`readmes` maps each README path to its text; `headers` holds the
    stripped text of every header that may define a cited class."""
    defs = class_headers(headers)
    basenames = {n for d in SOURCE_DIRS
                 for _r, _d, names in os.walk(os.path.join(root, d))
                 for n in names}
    for path, text in sorted(readmes.items()):
        check_test_citations(path, text, root, diags)
        for line, ref in readme_refs(text):
            m = MEMBER_REF.match(ref)
            if m:
                names = m.group(2).lstrip(":").split("::")
                if not any(all(re.search(r"\b%s\b" % re.escape(n), h)
                               for n in names)
                           for h in defs.get(m.group(1), [])):
                    diags.append(Diagnostic(
                        path, line, "readme-ref",
                        "`%s` does not resolve: no header under src/ defines "
                        "%s with %s" % (ref, m.group(1), "::".join(names))))
            elif PATH_REF.match(ref) and (
                    ref.split("/")[0] in SOURCE_DIRS or PATH_SUFFIX.search(ref)):
                if not path_resolves(ref, os.path.dirname(path), root,
                                     basenames):
                    diags.append(Diagnostic(
                        path, line, "readme-ref",
                        "`%s` names no file in the checkout" % ref))


def checkout_readmes(files):
    """(root, {README path: text}, [stripped header text]) of the checkout
    the linted files sit in, or None when no checkout is in reach."""
    for f in files:
        m = re.search(r"^(.*?)src/(runtime|overlay|qp)/",
                      f.replace(os.sep, "/"))
        if not m:
            continue
        root = m.group(1) or "."
        readmes = {}
        for pattern in README_FILES:
            for p in sorted(glob.glob(os.path.join(root, pattern))):
                with open(p, encoding="utf-8") as fh:
                    readmes[p] = fh.read()
        headers = []
        for r, _dirs, names in os.walk(os.path.join(root, "src")):
            for n in names:
                if n.endswith(".h"):
                    with open(os.path.join(r, n), encoding="utf-8",
                              errors="replace") as fh:
                        headers.append(strip_comments_and_strings(fh.read()))
        return root, readmes, headers
    return None


def drop_suppressed(diags, suppressed):
    return [d for d in diags
            if not ({d.rule, "all"} & suppressed.get(d.line, set()))]


def lint_text(path, raw_text, effective_path=None, consts=None, fields=None):
    """Lint one file's contents; returns the unsuppressed diagnostics. The
    file's direct-message type constants are appended to `consts` and its
    options fields to `fields` (if given) for the tree-wide msg-type and
    unset-option checks."""
    epath = effective_path or path
    raw_lines = raw_text.split("\n")
    suppressed = collect_suppressions(raw_lines)
    text = strip_comments_and_strings(raw_text)
    if consts is not None and is_msg_type_file(epath):
        consts.extend(msg_type_consts(path, text))
    if fields is not None and is_option_file(epath):
        fields.extend(option_fields(path, text))

    diags = []
    # The runtime layer IS the scheduler: it owns the loop it schedules on,
    # so self-capture there cannot outlive the loop.
    if not in_runtime_dir(epath):
        check_timer_capture(path, text, diags)
    if not is_physical_runtime(epath):
        check_token_rules(
            path, text, WALLCLOCK_TOKENS, "wallclock",
            "simulated time must come from Vri::Now()/seeded Rng, or "
            "deterministic replays and bench golden files break", diags)
        check_token_rules(
            path, text, BLOCKING_TOKENS, "blocking",
            "the Main Scheduler is single-threaded; blocking here stalls "
            "every query on the node", diags)
    # hot-alloc applies everywhere: any ProcessBatch body is a batch hot path.
    check_hot_alloc(path, text, diags)
    if is_operator_file(epath):
        check_token_rules(
            path, text, OP_RESOURCE_TOKENS, "op-resource",
            "operators acquire timers, subscriptions and upcalls through the "
            "base Operator (After/Subscribe/CatchUp/Intercept), which releases "
            "them in Close, and reach the network through its Put/Send/Get, "
            "which charge the query's cost ledger", diags)

    return drop_suppressed(diags, suppressed)


def lint_tree_wide(consts, table, fields, assigned, raw_by_path):
    """The msg-type and unset-option passes over what lint_text gathered
    (`assigned` None: no checkout in reach, unset-option is skipped)."""
    diags, kept = [], []
    check_msg_types(consts, table, diags)
    if assigned is not None:
        check_unset_options(fields, assigned, diags)
    for d in diags:
        lines = raw_by_path[d.path].split("\n")
        kept += drop_suppressed([d], collect_suppressions(lines))
    return kept


def find_type_table(files):
    """The README table next to the linted tree, or None."""
    for f in files:
        m = re.search(r"^(.*?)src/(overlay|qp)/", f.replace(os.sep, "/"))
        if m:
            readme = os.path.join(m.group(1), TYPE_TABLE_README)
            if os.path.exists(readme):
                with open(readme, encoding="utf-8") as fh:
                    return type_table_names(fh.read())
    return None


# --------------------------------------------------------------------------
# Optional AST engine (libclang python bindings). The lexical engine above is
# authoritative in containers without the bindings; when they exist the AST
# engine re-checks timer-capture with real capture/usage information and
# falls back cleanly on any failure.
# --------------------------------------------------------------------------


def try_ast_engine(compile_commands):
    try:
        from clang import cindex  # noqa: F401
        return cindex
    except Exception:
        return None


def ast_lint_file(cindex, entry, diags):
    """AST-based timer-capture: find Schedule* member calls whose result is
    unused and whose lambda argument captures `this`."""
    index = cindex.Index.create()
    args = [a for a in entry["arguments"][1:] if a != "-c"]
    # Drop the -o <obj> pair; keep include dirs/defines/std.
    cleaned, skip = [], False
    for a in args:
        if skip:
            skip = False
            continue
        if a == "-o":
            skip = True
            continue
        cleaned.append(a)
    tu = index.parse(entry["file"], args=cleaned)

    def visit(node, parent_kinds):
        k = node.kind
        if (k == cindex.CursorKind.CALL_EXPR
                and node.spelling in ("ScheduleAt", "ScheduleAfter",
                                      "ScheduleEvent")):
            captures_this = False
            for d in node.walk_preorder():
                if d.kind == cindex.CursorKind.LAMBDA_EXPR:
                    for tok in d.get_tokens():
                        if tok.spelling == "]":
                            break
                        if tok.spelling in ("this", "=", "&"):
                            captures_this = True
            discarded = parent_kinds and parent_kinds[-1] in (
                cindex.CursorKind.COMPOUND_STMT,)
            if captures_this and discarded:
                loc = node.location
                diags.append(Diagnostic(
                    str(loc.file), loc.line, "timer-capture",
                    "lambda captures `this` but the cancellation token is "
                    "discarded (AST engine)"))
        for c in node.get_children():
            visit(c, parent_kinds + [k])

    visit(tu.cursor, [])


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------


def gather_files(paths, compile_db):
    files = set()
    for p in paths:
        if os.path.isfile(p):
            files.add(os.path.normpath(p))
        elif os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for n in names:
                    if n.endswith((".cc", ".h", ".cpp", ".hpp")):
                        files.add(os.path.normpath(os.path.join(root, n)))
    if compile_db:
        prefixes = tuple(os.path.abspath(p) for p in paths)
        seen_abs = {os.path.abspath(f) for f in files}
        for entry in compile_db:
            f = os.path.abspath(entry["file"])
            if f.endswith((".cc", ".cpp", ".h", ".hpp")) and \
                    (not prefixes or f.startswith(prefixes)) and \
                    f not in seen_abs:
                files.add(os.path.relpath(f))
    return sorted(files)


def load_compile_db(build_dir):
    if not build_dir:
        return None
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(path):
        sys.stderr.write("pier-lint: warning: %s not found; walking source "
                         "dirs instead\n" % path)
        return None
    with open(path) as f:
        db = json.load(f)
    for entry in db:
        if "arguments" not in entry and "command" in entry:
            entry["arguments"] = entry["command"].split()
    return db


def run_lint(paths, build_dir, engine):
    db = load_compile_db(build_dir)
    files = gather_files(paths, db)
    if not files:
        sys.stderr.write("pier-lint: error: no input files under %s\n" % paths)
        return 2

    diags, consts, fields, raw_by_path = [], [], [], {}
    for f in files:
        try:
            with open(f, encoding="utf-8", errors="replace") as fh:
                raw = fh.read()
        except OSError as e:
            sys.stderr.write("pier-lint: error: %s: %s\n" % (f, e))
            return 2
        raw_by_path[f] = raw
        diags.extend(lint_text(f, raw, consts=consts, fields=fields))
    diags.extend(lint_tree_wide(consts, find_type_table(files), fields,
                                tree_assignments(files), raw_by_path))
    checkout = checkout_readmes(files)
    if checkout is not None:
        root, readmes, headers = checkout
        check_readme_refs(readmes, headers, root, diags)

    used_ast = False
    if engine in ("auto", "ast") and db:
        cindex = try_ast_engine(db)
        if cindex is not None:
            try:
                ast_diags = []
                for entry in db:
                    if entry["file"].endswith((".cc", ".cpp")):
                        ast_lint_file(cindex, entry, ast_diags)
                seen = {(d.path, d.line, d.rule) for d in diags}
                diags.extend(d for d in ast_diags
                             if (d.path, d.line, d.rule) not in seen)
                used_ast = True
            except Exception as e:  # fall back, never block the build wrongly
                sys.stderr.write("pier-lint: warning: AST engine failed (%s); "
                                 "lexical results stand\n" % e)
        elif engine == "ast":
            sys.stderr.write("pier-lint: error: --engine=ast requested but "
                             "the libclang python bindings are missing\n")
            return 2

    for d in sorted(diags, key=lambda d: (d.path, d.line)):
        print(d)
    print("pier-lint: checked %d files (%s engine): %d diagnostic%s" %
          (len(files), "lexical+ast" if used_ast else "lexical", len(diags),
           "" if len(diags) == 1 else "s"), file=sys.stderr)
    return 1 if diags else 0


def expected_diagnostics(path, lines, marker):
    """(path, line, rule) of each finding `marker` announces in `lines`."""
    expected = set()
    for idx, line in enumerate(lines, start=1):
        m = marker.search(line)
        if m:
            expected |= {(path, idx, rule.strip())
                         for rule in m.group(1).split(",") if rule.strip()}
    return expected


def run_selftest(testdata_dir):
    """Fixture mode: every *.cc/*.h under testdata declares its expected
    diagnostics inline (`// expect: <rule>` on the offending line); a file
    with no markers must lint clean. Fails on any mismatch in either
    direction, so neither the rules nor the fixtures can rot silently. Each
    fixture is its own tree for msg-type and unset-option (only its own
    assignments set a field); a `type-table=FILE` pragma names the markdown
    file (in the fixture dir) standing in for the README. A `readme=FILE`
    pragma runs readme-ref over that markdown file (its expected findings
    marked `<!-- expect: <rule> -->`), with the fixture as the only header
    and the fixture dir as the checkout."""
    failures = 0
    files = sorted(
        os.path.join(testdata_dir, n) for n in os.listdir(testdata_dir)
        if n.endswith((".cc", ".h")))
    if not files:
        sys.stderr.write("pier-lint: error: no fixtures in %s\n" %
                         testdata_dir)
        return 2
    for f in files:
        with open(f, encoding="utf-8") as fh:
            raw = fh.read()
        lines = raw.split("\n")
        pretend, table, readme = None, None, None
        for line in lines:
            m = PRETEND_PATH.search(line)
            if m and pretend is None:
                pretend = m.group(1)
            m = TYPE_TABLE_PRAGMA.search(line)
            if m and table is None:
                with open(os.path.join(testdata_dir, m.group(1)),
                          encoding="utf-8") as th:
                    table = type_table_names(th.read())
            m = README_PRAGMA.search(line)
            if m and readme is None:
                readme = os.path.join(testdata_dir, m.group(1))
        expected = expected_diagnostics(f, lines, EXPECT)
        consts, fields = [], []
        diags = lint_text(f, raw, consts=consts, fields=fields,
                          effective_path=pretend or "src/%s" %
                          os.path.basename(f))
        diags += lint_tree_wide(consts, table, fields, assigned_fields(
            strip_comments_and_strings(raw)), {f: raw})
        if readme is not None:
            with open(readme, encoding="utf-8") as fh:
                md = fh.read()
            expected |= expected_diagnostics(readme, md.split("\n"),
                                             MD_EXPECT)
            check_readme_refs({readme: md}, [strip_comments_and_strings(raw)],
                              testdata_dir, diags)
        got = {(d.path, d.line, d.rule) for d in diags}
        if got == expected:
            print("PASS %s (%d expected diagnostic%s)" %
                  (f, len(expected), "" if len(expected) == 1 else "s"))
        else:
            failures += 1
            print("FAIL %s" % f)
            for path, line, rule in sorted(expected - got):
                print("  missing expected diagnostic: %s:%d [%s]" %
                      (path, line, rule))
            for path, line, rule in sorted(got - expected):
                print("  unexpected diagnostic: %s:%d [%s]" %
                      (path, line, rule))
    print("pier-lint selftest: %d fixtures, %d failure%s" %
          (len(files), failures, "" if failures == 1 else "s"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        prog="pier-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=[],
                    help="files/dirs to lint (default: src)")
    ap.add_argument("-p", "--build-dir", default=None,
                    help="build dir containing compile_commands.json")
    ap.add_argument("--engine", choices=("auto", "ast", "lex"),
                    default="auto")
    ap.add_argument("--selftest", metavar="TESTDATA_DIR",
                    help="run the fixture suite and exit")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0
    if args.selftest:
        return run_selftest(args.selftest)
    return run_lint(args.paths or ["src"], args.build_dir, args.engine)


if __name__ == "__main__":
    sys.exit(main())
