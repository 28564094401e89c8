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
defined in a src/*.cc file whose execution count is 0, one per line as
`src/<file>.cc:<line>  <demangled name>`, sorted by file and line. Lambdas
are listed on their own: a lambda that never ran inside a function that did
is unreached code too.

Only .cc files are judged. A function defined in a header is compiled into
every translation unit that uses it, and the test, bench and example
translation units are not in pier.dir, so header functions would show up as
false positives.

Exit status: 0 on success (whatever the list holds), 2 if the build
directory has no coverage data or gcov fails. Standard library only.
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


def unreached(build_dir, src_dir):
    obj_root = os.path.join(build_dir, "CMakeFiles", "pier.dir")
    dirs = gcda_by_dir(obj_root)
    if not dirs:
        fail(f"no .gcda files under {obj_root}: configure with "
             "-DCMAKE_CXX_FLAGS=--coverage and run something first")
    src_dir = os.path.realpath(src_dir)
    counts = collections.Counter()
    for obj_dir, gcdas in sorted(dirs.items()):
        for report in gcov_reports(obj_dir, gcdas):
            cwd = report.get("current_working_directory", obj_dir)
            for f in report.get("files", []):
                path = os.path.realpath(os.path.join(cwd, f["file"]))
                if not path.endswith(".cc") or not path.startswith(src_dir + os.sep):
                    continue
                rel = os.path.relpath(path, os.path.dirname(src_dir))
                for fn in f.get("functions", []):
                    key = (rel, fn["start_line"],
                           fn.get("demangled_name") or fn["name"])
                    counts[key] += fn["execution_count"]
    return sorted(k for k, n in counts.items() if n == 0), len(counts)


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("build_dir", help="a build configured with --coverage")
    args = ap.parse_args(argv)
    zero, total = unreached(os.path.abspath(args.build_dir),
                            os.path.join(REPO, "src"))
    for rel, line, name in zero:
        print(f"{rel}:{line}  {name}")
    print(f"{len(zero)} of {total} src/*.cc functions executed 0 times",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
