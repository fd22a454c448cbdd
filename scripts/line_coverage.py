#!/usr/bin/env python3
"""Print every statement of `src/multistep` that the unit tests never run.

A line tracer built on the standard library alone (`sys.settrace` and
`threading.settrace`, so rollout pool threads are traced too). It runs
`pytest -m "not acceptance" -p no:cacheprovider` in this process, with the
`src` of the checkout it is in first on the import path, and prints
`path:line: source` for each statement of the package that never ran, then
a count. A statement ran when a line it spans ran, leaving out the lines of
the statements nested in it; the statements are those of the package's
modules that compile to code. Tests run in a subprocess are not traced.

Tracing makes the unit layer about twice as slow (46 s, against 21 s, on a
2-core Xeon), so the suite runs this script on one small test file only.
The exit code is pytest's.

Example, from the root of the checkout:
    python3 scripts/line_coverage.py                          # every unit test
    python3 scripts/line_coverage.py tests/test_schema.py
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that `code` and the code nested in it compile to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def missed(path: Path, ran: set[int]) -> tuple[list[ast.stmt], int]:
    """The statements of the module at `path` that no line of `ran` belongs
    to, in line order, and the count of its statements."""
    source = path.read_text()
    owner: dict[int, ast.stmt] = {}  # each line -> the innermost statement spanning it
    for node in ast.walk(ast.parse(source)):  # breadth first: parents come first
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            for line in range(first, node.end_lineno + 1):
                owner[line] = node
    code = _code_lines(compile(source, str(path), "exec"))
    statements = {owner[line] for line in code if line in owner}
    covered = {owner[line] for line in ran if line in owner}
    return sorted(statements - covered, key=lambda node: node.lineno), len(statements)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tests", nargs="*", help="test paths (default: the suite's testpaths)")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "multistep"
    prefix = str(package) + os.sep
    ran: dict[str, set[int]] = {}  # each file -> the lines that ran

    def start(frame, event, arg):  # on each call: trace the package's frames alone
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        # setdefault and add are each one step under the interpreter lock, so
        # pool threads lose no line
        lines = ran.setdefault(frame.f_code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(root / "src"))
    threading.settrace(start)
    sys.settrace(start)
    try:
        code = pytest.main(["-m", "not acceptance", "-p", "no:cacheprovider", "-q", *args.tests])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = never = 0
    for path in sorted(package.glob("*.py")):
        statements, count = missed(path, ran.get(str(path), set()))
        total, never = total + count, never + len(statements)
        lines = path.read_text().splitlines()
        for node in statements:
            print(f"{path.relative_to(root)}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    print(f"{never} of {total} statements in src/multistep never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
