#!/usr/bin/env python3
"""Print raw and code line counts for each module of ``src/walktimes``.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the leading string of a module, class or
function, found with ``ast``). Blank lines, comment-only lines and
docstring lines are therefore left out; tokens come from ``tokenize``,
so lines inside other multi-line strings count.

When the directory is a package, two option counts follow the table:
the names in its ``__all__``, and the fields of its ``Tolerances``,
each an independently settable value.

    python scripts/code_lines.py            # the package under src/walktimes
    python scripts/code_lines.py some/dir   # any directory of .py files
"""
from __future__ import annotations

import ast
import dataclasses
import importlib
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def option_counts(root: Path) -> list[tuple[str, int]]:
    """Public names and ``Tolerances`` fields of the package at ``root``."""
    if not (root / "__init__.py").exists():
        return []
    sys.path.insert(0, str(root.resolve().parent))
    package = importlib.import_module(root.resolve().name)
    counts = [(f"{package.__name__}.__all__ names", len(package.__all__))]
    if hasattr(package, "Tolerances"):
        counts.append(("Tolerances fields", len(dataclasses.fields(package.Tolerances))))
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "walktimes"
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no .py files under {root}", file=sys.stderr)
        return 1
    raw_total = code_total = 0
    print(f"{'module':<16} {'raw':>6} {'code':>6}")
    for path in files:
        raw = len(path.read_text(encoding="utf-8").splitlines())
        code = code_lines(path)
        raw_total += raw
        code_total += code
        print(f"{path.name:<16} {raw:>6} {code:>6}")
    print(f"{'total':<16} {raw_total:>6} {code_total:>6}")
    for name, count in option_counts(root):
        print(f"{name:<23} {count:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
