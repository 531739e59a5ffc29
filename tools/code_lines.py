"""Count the lines of ``src/nvk`` that hold code.

    python3 tools/code_lines.py ROOT [BASE]

``ROOT`` is a source tree of the package (``src/nvk`` beneath it).  For each
module the script prints the number of lines that hold code, then their
total.  Given a second tree ``BASE``, it prints per module and in total the
count in BASE, the count in ROOT and the difference; a module missing from
one tree counts 0 there.  A line holds code when it has a token that is not a comment, a
blank or a docstring; a token that spans lines (a multi-line string or
bracket) counts on every line it spans.  Docstrings are the string
statements that open a module, class or function.  So comments, blank lines
and docstrings never count, and deleting them does not lower the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docs = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def module_counts(root: Path) -> dict[str, int]:
    """Module file name -> code lines, for each module of ``root/src/nvk``."""
    return {path.name: code_lines(path.read_text())
            for path in sorted((root / "src" / "nvk").glob("*.py"))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", type=Path, help="source tree with src/nvk")
    p.add_argument("base", type=Path, nargs="?", help="a second tree to compare with")
    args = p.parse_args(argv)
    counts = module_counts(args.root)
    if args.base is None:
        for name, count in [*counts.items(), ("total", sum(counts.values()))]:
            print(f"{name:20s} {count:6d}")
        return 0
    base = module_counts(args.base)
    rows = [(name, base.get(name, 0), counts.get(name, 0)) for name in sorted(base | counts)]
    rows.append(("total", sum(base.values()), sum(counts.values())))
    for name, before, after in rows:
        print(f"{name:20s} {before:6d} {after:6d} {after - before:+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
