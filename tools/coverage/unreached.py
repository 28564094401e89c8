#!/usr/bin/env python3
"""unreached: list the src/*.cc functions a coverage run never executed.

Build with coverage, run whatever should count as "reached", then point this
script at the build directory:

  cmake -B build-cov -S . -DCMAKE_CXX_FLAGS=--coverage
  cmake --build build-cov -j
  ctest --test-dir build-cov            # plus any benches / examples
  python3 tools/coverage/unreached.py build-cov

It runs `gcov --json-format --stdout` over the .gcda files of the pier
library's object directory (CMakeFiles/pier.dir) and prints every function
defined in a src/*.cc file that never ran, one per line as
`src/<file>.cc:<line>  <demangled name>`, sorted by file and line. Lambdas
are listed on their own: a lambda that never ran inside a function that did
is unreached code too.

A function ran if its execution count is above 0 or any line gcov
attributes to it ran. GCC 12 reports a count of 0 for some single-block
functions whose lines ran (a one-line accessor, a static helper). A line
names its function (`function_name`); a line that names none belongs to
every function whose `start_line`..`end_line` holds it. A lambda's first
line does not count: it is also the line of the statement that creates the
lambda, and gcov gives it that statement's count.

  python3 tools/coverage/unreached.py --selftest

checks that rule, and the gate's rule below, against the fixtures in
testdata/.

  python3 tools/coverage/unreached.py build-cov --gate src \
      --allowlist tools/coverage/allowlist.txt

also gates: it fails when a function under a --gate directory is unreached
but not on the allowlist, or when an allowlist entry names a function that
is no longer unreached (it ran, or it is gone). An allowlist line is
`<file> <demangled name> -- <reason>`; blank lines and lines starting with
`#` are skipped, and a line with no reason is an error. Entries match by
file and name, not line, so moving a function does not stale its entry.

Only .cc files are judged. A function defined in a header is compiled into
every translation unit that uses it, and the test, bench and example
translation units are not in pier.dir, so header functions would show up as
false positives.

Exit status: 0 on success (whatever the list holds, when not gating), 1 if
the selftest or the gate fails, 2 if the build directory has no coverage
data, gcov fails or the allowlist is malformed.
Standard library only.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def fail(msg):
    print(f"unreached: {msg}", file=sys.stderr)
    sys.exit(2)


def gcda_by_dir(obj_root):
    """Map each object directory under `obj_root` to its .gcda files."""
    out = collections.defaultdict(list)
    for dirpath, _, files in os.walk(obj_root):
        for f in files:
            if f.endswith(".gcda"):
                out[dirpath].append(os.path.join(dirpath, f))
    return out


def gcov_reports(obj_dir, gcdas):
    """Yield one parsed gcov JSON report per .gcda in `obj_dir`."""
    # gcov writes nothing with --stdout, but run it in a scratch directory
    # anyway so a gcov that ignores the flag cannot litter the caller's tree.
    with tempfile.TemporaryDirectory() as scratch:
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", "-o", obj_dir] + sorted(gcdas),
            cwd=scratch, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"gcov failed in {obj_dir}:\n{proc.stderr.strip()}")
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line:
            yield json.loads(line)


def function_ran(fn, lines):
    """True if `fn` (a gcov function record) ran, judged with `lines`, the
    file's line records: its own count, or a line attributed to it."""
    if fn["execution_count"] > 0:
        return True
    lambda_line = (fn["start_line"] if "{lambda(" in fn.get("demangled_name", "")
                   else None)
    for line in lines:
        if line["count"] <= 0 or line["line_number"] == lambda_line:
            continue
        owner = line.get("function_name")
        if owner == fn["name"] or (
                owner is None and
                fn["start_line"] <= line["line_number"] <= fn["end_line"]):
            return True
    return False


def unreached_in(reports, src_dir):
    """The src/*.cc functions of `reports` that never ran, and how many
    functions were judged."""
    src_dir = os.path.realpath(src_dir)
    ran = {}
    for report in reports:
        cwd = report.get("current_working_directory", "")
        for f in report.get("files", []):
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.endswith(".cc") or not path.startswith(src_dir + os.sep):
                continue
            rel = os.path.relpath(path, os.path.dirname(src_dir))
            lines = f.get("lines", [])
            for fn in f.get("functions", []):
                key = (rel, fn["start_line"],
                       fn.get("demangled_name") or fn["name"])
                ran[key] = ran.get(key, False) or function_ran(fn, lines)
    return sorted(k for k, r in ran.items() if not r), len(ran)


def unreached(build_dir, src_dir):
    obj_root = os.path.join(build_dir, "CMakeFiles", "pier.dir")
    dirs = gcda_by_dir(obj_root)
    if not dirs:
        fail(f"no .gcda files under {obj_root}: configure with "
             "-DCMAKE_CXX_FLAGS=--coverage and run something first")
    reports = (report for obj_dir, gcdas in sorted(dirs.items())
               for report in gcov_reports(obj_dir, gcdas))
    return unreached_in(reports, src_dir)


def parse_allowlist(lines):
    """{(file, name): reason} from allowlist lines; ValueError on a line
    with no reason."""
    allow = {}
    for n, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entry, sep, reason = line.partition(" -- ")
        rel, _, name = entry.strip().partition(" ")
        if not sep or not reason.strip() or not name.strip():
            raise ValueError(f"line {n}: want `<file> <name> -- <reason>`")
        allow[(rel, name.strip())] = reason.strip()
    return allow


def gate(zero, dirs, allow):
    """The unreached functions under `dirs` that `allow` does not list, and
    the allowlist entries that name no unreached function."""
    prefixes = tuple(d.rstrip("/") + "/" for d in dirs)
    unlisted = [(rel, line, name) for rel, line, name in zero
                if rel.startswith(prefixes) and (rel, name) not in allow]
    now = {(rel, name) for rel, _, name in zero}
    stale = sorted(key for key in allow if key not in now)
    return unlisted, stale


def selftest():
    """Judge the checked-in fixtures: a gcov JSON report whose
    `expect_unreached` lists exactly the functions that must come out, and
    an allowlist gated on src/obs that leaves one of them unlisted and one
    entry stale."""
    testdata = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "testdata")
    with open(os.path.join(testdata, "gcov_report.json")) as f:
        report = json.load(f)
    zero, _ = unreached_in([report], os.path.join(
        report["current_working_directory"], "src"))
    got = [f"{rel}:{line}  {name}" for rel, line, name in zero]
    want = report["expect_unreached"]
    if got != want:
        print(f"unreached selftest FAILED\n  got:  {got}\n  want: {want}",
              file=sys.stderr)
        return 1
    with open(os.path.join(testdata, "allowlist.txt")) as f:
        allow = parse_allowlist(f)
    unlisted, stale = gate(zero, ["src/obs"], allow)
    want_unlisted = [("src/obs/metrics.cc", 131, "pier::MetricsRegistry::"
                      "Render() const::{lambda()#2}::operator()() const")]
    want_stale = [("src/obs/metrics.cc", "pier::Histogram::sum() const")]
    if unlisted != want_unlisted or stale != want_stale:
        print(f"unreached gate selftest FAILED\n  unlisted: {unlisted}\n"
              f"  stale: {stale}", file=sys.stderr)
        return 1
    try:
        parse_allowlist(["src/qp/x.cc pier::F() --"])
        print("unreached gate selftest FAILED: a line with no reason parsed",
              file=sys.stderr)
        return 1
    except ValueError:
        pass
    print(f"unreached selftest passed ({len(want)} unreached, 1 unlisted and "
          "1 stale under the gate, as expected)")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("build_dir", nargs="?",
                    help="a build configured with --coverage")
    ap.add_argument("--selftest", action="store_true",
                    help="check the rules against the fixtures in testdata/")
    ap.add_argument("--gate", action="append", default=[], metavar="DIR",
                    help="fail on an unreached function under DIR (a path "
                    "from the repository root) that --allowlist does not list")
    ap.add_argument("--allowlist", help="the gate's allowlist file")
    args = ap.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.build_dir is None:
        ap.error("build_dir is required")
    if args.gate and not args.allowlist:
        ap.error("--gate needs --allowlist")
    allow = {}
    if args.allowlist:
        try:
            with open(args.allowlist) as f:
                allow = parse_allowlist(f)
        except ValueError as e:
            fail(f"{args.allowlist}: {e}")
    zero, total = unreached(os.path.abspath(args.build_dir),
                            os.path.join(REPO, "src"))
    for rel, line, name in zero:
        print(f"{rel}:{line}  {name}")
    print(f"{len(zero)} of {total} src/*.cc functions executed 0 times",
          file=sys.stderr)
    if not args.gate:
        return 0
    unlisted, stale = gate(zero, args.gate, allow)
    for rel, line, name in unlisted:
        print(f"gate: {rel}:{line}  {name} is unreached and not on the "
              "allowlist: reach it with a test, delete it, or list it with "
              "a reason", file=sys.stderr)
    for rel, name in stale:
        print(f"gate: allowlisted {rel}  {name} is not unreached: drop its "
              "entry", file=sys.stderr)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
