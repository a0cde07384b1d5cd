#!/usr/bin/env python3
"""Code lines per module and in total, without blank, comment or docstring lines.

    python3 tools/loc.py [--src PATH]

Counts every ``*.py`` file under PATH (default: this checkout's ``src``).
A line counts when a token other than a comment, a line break or an indent
starts, ends or continues on it; the docstrings of modules, classes and
functions, found with ``ast``, are not such tokens.  ``wc -l`` also counts
comments and docstrings, so deleting them would read as simplification;
this count does not move for them.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_spans(source: str) -> list[tuple[int, int]]:
    """First and last line of every module, class and function docstring."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.append((first.lineno, first.end_lineno))
    return spans


def code_lines(source: str) -> int:
    """Lines of `source` that hold code other than a docstring."""
    spans = docstring_spans(source)
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        (start, _), (end, _) = token.start, token.end
        if token.type == tokenize.STRING and any(
            first <= start and end <= last for first, last in spans
        ):
            continue
        lines.update(range(start, end + 1))
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src",
        help="directory whose *.py files are counted",
    )
    args = parser.parse_args()
    root = args.src.resolve()
    paths = sorted(root.rglob("*.py"))
    if not paths:
        raise SystemExit(f"error: no *.py files under {root}")
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
