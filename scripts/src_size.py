#!/usr/bin/env python3
"""Source size of ``src/``: physical lines and code lines, per package.

The roadmap tracks the size of ``src/`` as a metric that should fall.  A
*physical* line is any line of a ``.py`` file; a *code* line holds at least
one token that is not a comment, a blank or part of a docstring (``ast``
finds the docstrings, ``tokenize`` the tokens; no dependency).

    python scripts/src_size.py                 # table, total last
    python scripts/src_size.py --max-lines N   # exit 1 above N physical lines
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1] / "src"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(source: str) -> tuple[int, int]:
    """``(physical lines, code lines)`` of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="tree to measure")
    parser.add_argument(
        "--max-lines", type=int, help="exit 1 when the total physical lines exceed this"
    )
    args = parser.parse_args(argv)

    sizes: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for path in sorted(args.root.rglob("*.py")):
        package = path.relative_to(args.root).parent.as_posix()
        lines, code = measure(path.read_text(encoding="utf-8"))
        sizes[package][0] += lines
        sizes[package][1] += code
    total = [sum(column) for column in zip(*sizes.values())] or [0, 0]
    print(f"{'package':<24}{'lines':>8}{'code':>8}")
    for package, (lines, code) in sizes.items():
        print(f"{package:<24}{lines:>8}{code:>8}")
    print(f"{'total':<24}{total[0]:>8}{total[1]:>8}")
    if args.max_lines is not None and total[0] > args.max_lines:
        print(
            f"src is {total[0]} physical lines, over the ceiling of {args.max_lines}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
