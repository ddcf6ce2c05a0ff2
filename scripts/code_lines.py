#!/usr/bin/env python3
"""Count the code lines of Python files: blank, comment and docstring lines excluded.

A line counts when a token other than a comment, a newline or an indent
change starts on it or spans it, and it lies outside every docstring (the
string statement that opens a module, class or function, found by ast).
Prints one "count path" line per file, then "count total". Example:

    python scripts/code_lines.py src/covspec/*.py
"""

import argparse
import ast
import io
import tokenize

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", metavar="PATH")
    args = parser.parse_args()
    total = 0
    for path in args.paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        print(count, path)
        total += count
    print(total, "total")


if __name__ == "__main__":
    main()
