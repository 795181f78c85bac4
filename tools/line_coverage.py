"""Print the statements of gfsim that neither Tier-1 nor the demos run.

    python3 tools/line_coverage.py ROOT

ROOT is a checkout of this repository; gfsim is imported from ROOT/src.  The
script runs ROOT's Tier-1 suite (pytest, from ROOT, as CI runs it) and then the
five demos, all in this one process, under a `sys.settrace` hook that records
the lines run in frames whose code lies under ROOT/src/gfsim.  For each module
it then prints the statements that never ran, by start line: the statements
of the module's `ast`, not counting docstrings, `def` and `class` lines, or
imports.  A statement ran if a line of its own ran (its span, less the
statements nested in it) or, for a compound statement, if a statement of its
body ran.  It uses the standard library only, as `coverage` is not a
dependency.  Tracing makes the run about twice as long as plain Tier-1.  The
script exits 1 if Tier-1 fails, a demo raises, or a never-run statement is
anything but a `raise` or cli's `sys.exit(main())` line: a new statement that
nothing runs fails the run, marked `!` in the list.  It is not part of Tier-1.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
from pathlib import Path


def run_traced(root: Path, package: Path) -> dict[str, set[int]]:
    """Lines run per file under package, over Tier-1 and the demos."""
    import pytest

    executed: dict[str, set[int]] = {}
    prefix = str(package) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(root)
    sys.path.insert(0, str(package.parent))
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors"])
        if code != 0:
            sys.exit(f"line_coverage: Tier-1 failed (pytest exit code {int(code)})")
        for demo in sorted((root / "demos").glob("demo_*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
    return executed


def _bodies(node: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested directly in a statement, its own body first."""
    bodies = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
    bodies += [h.body for h in getattr(node, "handlers", [])] + [c.body for c in getattr(node, "cases", [])]
    return [body for body in bodies if body]


def never_ran(tree: ast.Module, ran: set[int]) -> list[ast.stmt]:
    """The counted statements of tree that did not run, by start line."""
    missed: list[ast.stmt] = []

    def visit(node: ast.stmt) -> bool:
        bodies = _bodies(node)
        ran_inside = [[visit(child) for child in body] for body in bodies]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
            return True
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            return True  # a docstring
        own = set(range(node.lineno, node.end_lineno + 1))
        for body in bodies:
            for child in body:
                own -= set(range(child.lineno, child.end_lineno + 1))
        done = bool(own & ran) or (bool(ran_inside) and any(ran_inside[0]))
        if not done:
            missed.append(node)
        return done

    for node in tree.body:
        visit(node)
    return sorted(missed, key=lambda node: node.lineno)


def expected(node: ast.stmt, path: Path) -> bool:
    """A statement no run is expected to reach: a raise, or cli's `sys.exit(main())` under `__main__`."""
    return isinstance(node, ast.Raise) or (path.name == "cli.py" and ast.unparse(node) == "sys.exit(main())")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    root = Path(sys.argv[1]).resolve()
    package = root / "src" / "gfsim"
    executed = run_traced(root, package)
    total = unexpected = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        missed = never_ran(ast.parse(source), executed.get(str(path), set()))
        total += len(missed)
        print(f"{path.relative_to(root)}: {len(missed)} statement(s) never ran")
        for node in missed:
            mark = " " if expected(node, path) else "!"
            unexpected += mark == "!"
            print(f"{mark} {node.lineno:4d}  {lines[node.lineno - 1].strip()}")
    print(f"total: {total} statement(s) never ran")
    if unexpected:
        sys.exit(f"line_coverage: {unexpected} never-run statement(s) (marked !) other than a raise or cli's __main__ line")


if __name__ == "__main__":
    main()
