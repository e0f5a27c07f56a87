#!/usr/bin/env python3
"""Usage: test_only_headers.py [REPO_ROOT] (default: the current directory).

Fails when a header under src/ has no includer in src/, examples/ or
cimbench/ other than its own .cpp: a module only tests reach is dead code
for the simulator, so it is either deleted or named an oracle here.
Prints one line per offender and exits 1; prints one OK line otherwise.
Includes are matched as written in this repo, `#include "dir/name.h"`
relative to src/.
"""

import os
import re
import sys

SCAN_DIRS = ("src", "examples", "cimbench")
SOURCE_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")
# Functional oracles: tests check the analytic cost models against them
# (cim_grid_test, systolic_functional_test), so nothing else includes them.
ORACLES = {"cim/cim_grid.h", "systolic/functional_array.h"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def source_files(root):
    for top in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    src = os.path.join(root, "src")
    headers = sorted(
        os.path.relpath(path, src).replace(os.sep, "/")
        for path in source_files(root)
        if path.startswith(src + os.sep) and path.endswith((".h", ".hpp")))
    includers = {header: set() for header in headers}
    for path in source_files(root):
        with open(path, encoding="utf-8") as f:
            for included in INCLUDE.findall(f.read()):
                if included in includers:
                    includers[included].add(
                        os.path.relpath(path, root).replace(os.sep, "/"))
    offenders = []
    for header in headers:
        own = {"src/" + header, "src/" + os.path.splitext(header)[0] + ".cpp"}
        if header not in ORACLES and not includers[header] - own:
            offenders.append(header)
    for header in offenders:
        print(f"test_only_headers: src/{header} has no includer in src/, "
              "examples/ or cimbench/ besides its own .cpp (delete it, or "
              "list it in ORACLES if tests use it as an oracle)")
    if offenders:
        sys.exit(1)
    print(f"test_only_headers: OK, {len(headers)} headers under src/ "
          f"({len(ORACLES)} oracles) have non-test includers")


if __name__ == "__main__":
    main()
