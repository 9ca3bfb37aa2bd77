"""Statement-deletion probe: which statements of a module can go unnoticed.

For each statement of the given source files, a work copy of the checkout
gets that statement replaced by ``pass`` and the test suite runs on it.
A mutant that every test passes "survived": nothing checks what the
statement does. Each survivor needs a test that kills it, the deletion of
code whose effect nothing can observe, or a note that it is equivalent.

    python tests/tools/mutate_statements.py src/lbpmarkdex/cli.py
    python tests/tools/mutate_statements.py src/lbpmarkdex/image_io.py \\
        -- -x -q tests/test_image_io.py tests

Arguments after ``--`` go to pytest (default ``-x -q tests``); naming the
module's own test file before ``tests`` kills most mutants sooner, since
pytest ignores a path given twice. The work copy holds ``src/``,
``tests/`` and ``pyproject.toml``: the console-script test reads the
entry point from pyproject.toml, so without it every mutant would fail
that test and none would survive. Docstrings, ``pass`` and ``__future__``
imports are not mutated. A statement that shares a line with another one
is skipped and listed. Mutants run one at a time; one that runs past
TIMEOUT seconds is stopped and listed as a timeout, not a survivor. The
probe gates nothing: it exits 0 after a full run, 2 when its own
arguments are wrong and 1 when the unmutated work copy fails its tests
or runs past TIMEOUT.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT = 600  # seconds one pytest run may take


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _statements(tree: ast.Module):
    """Every statement of the module, except docstrings, pass and
    __future__ imports. ast.walk also visits except handlers and match
    cases, so the bodies they hold are included."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.mod, ast.stmt, ast.excepthandler, ast.match_case)):
            continue  # an IfExp's body is an expression
        for name in ("body", "orelse", "finalbody"):
            for child in getattr(node, name, ()):
                if isinstance(child, ast.Pass) or _is_docstring(child):
                    continue
                if isinstance(child, ast.ImportFrom) and child.module == "__future__":
                    continue
                yield child


def _first_line(node: ast.stmt) -> int:
    """The statement's first line, its decorators included."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _own_lines(lines: list[str], node: ast.stmt) -> bool:
    """True when the statement alone fills its lines, so they can be
    swapped for one indented pass."""
    before = lines[_first_line(node) - 1][: node.col_offset]
    after = lines[node.end_lineno - 1][node.end_col_offset :]
    return not before.strip() and (not after.strip() or after.strip().startswith("#"))


def _mutant(lines: list[str], node: ast.stmt) -> str:
    """The source with the statement replaced by pass; blank lines keep
    every later line number."""
    first = _first_line(node)
    span = node.end_lineno - first + 1
    replacement = [" " * node.col_offset + "pass\n"] + ["\n"] * (span - 1)
    return "".join(lines[: first - 1] + replacement + lines[node.end_lineno :])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pytest_args = ["-x", "-q", "tests"]
    if "--" in argv:
        at = argv.index("--")
        argv, pytest_args = argv[:at], argv[at + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="+", help="source files under src/ to mutate")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="mutate-statements-"))
    try:
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        # No .pyc: two mutants of one size written within a second would
        # share a cache entry, and the second would run the first's code.
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *pytest_args]
        try:
            baseline = subprocess.run(command, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            sys.exit(f"the unmutated work copy takes over {TIMEOUT} s; nothing to probe")
        if baseline.returncode != 0:
            sys.stderr.write(baseline.stdout.decode(errors="replace")[-2000:])
            sys.exit("the unmutated work copy fails its tests; nothing to probe")
        survived = total = 0
        for module in args.modules:
            relative = Path(module).resolve().relative_to(ROOT)
            target = work / relative
            text = target.read_text(encoding="utf-8")
            lines = text.splitlines(keepends=True)
            nodes = sorted(_statements(ast.parse(text)), key=lambda n: (n.lineno, n.col_offset))
            try:
                for node in nodes:
                    shown = f"{relative}:{node.lineno}  {lines[node.lineno - 1].strip()[:70]}"
                    if not _own_lines(lines, node):
                        print(f"skipped   {shown}", flush=True)
                        continue
                    target.write_text(_mutant(lines, node), encoding="utf-8")
                    total += 1
                    started = time.monotonic()
                    try:
                        run = subprocess.run(command, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
                        outcome = "SURVIVED" if run.returncode == 0 else "killed"
                    except subprocess.TimeoutExpired:
                        outcome = "timeout"
                    survived += outcome == "SURVIVED"
                    print(f"{outcome:9s} {shown}  ({time.monotonic() - started:.0f} s)", flush=True)
            finally:
                target.write_text(text, encoding="utf-8")
        print(f"{survived} of {total} mutants survived")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
