"""Count the code lines of every Python module in a source directory.

Usage: python tools/code_lines.py SRC_DIR

A code line is a line that holds a token other than a comment: blank
lines, comment lines and the docstrings of modules, classes and functions
do not count, and a statement or string that spans several lines counts
each of them. Prints one line per module, sorted by path, then the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

def _docstring_starts(tree):
    """(line, column) of every module, class and function docstring in `tree`."""
    holders = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {(node.body[0].lineno, node.body[0].col_offset) for node in ast.walk(tree)
            if isinstance(node, holders) and ast.get_docstring(node, clean=False) is not None}


def count(source: str) -> int:
    """The number of code lines in the Python text `source`."""
    # Tokens that carry no code: comments, layout and the end marker.
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in skipped or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print("usage: python tools/code_lines.py SRC_DIR", file=sys.stderr)
        return 2
    root = argv[0]
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(root)
                   for f in files if f.endswith(".py"))
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n = count(fh.read())
        total += n
        print(f"{os.path.relpath(path, root)} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
