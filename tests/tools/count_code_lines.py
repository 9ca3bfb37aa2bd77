"""Count the code lines of Python source: lines that are not blank, a
comment or a docstring.

    python tests/tools/count_code_lines.py               # src/
    python tests/tools/count_code_lines.py src/lbpmarkdex/retrieval.py tests

A line counts when a token other than a comment or a line break starts,
ends or runs through it, so every line of a multi-line expression or
string counts. The lines of a docstring (a string literal that is the
first statement of a module, class or function) do not. Directories are
searched for *.py files. Each file's count is printed, then the total.
Uses only stdlib ast and tokenize; it gates nothing, and the file is not
named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: bytes) -> int:
    """The number of lines of source that hold code."""
    lines = set()
    for token in tokenize.tokenize(iter(source.splitlines(keepends=True)).__next__):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src"], help="files or directories (default: src/)")
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths:
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            count = code_lines(file.read_bytes())
            total += count
            print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
