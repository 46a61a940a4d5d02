"""Count the lines of Python code: the lines outside comments and
docstrings that hold a token (so blank lines count only inside a string
literal).  Docstrings are found with `ast` (the first statement of a
module, class or function, when it is a string), comments with
`tokenize`.  Prints one count per file and a total per path given.

Usage: python bench/loc.py [PATH ...]   (default: src/latglue tests)
"""

import ast
import sys
import tokenize
from pathlib import Path

DEFAULT_PATHS = ("src/latglue", "tests")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that docstrings take up."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """The lines of one file that hold code: a token other than a comment,
    outside every docstring.  A blank line holds no such token unless it
    lies inside a string literal, where it is part of the value."""
    text = Path(path).read_text()
    docs = _docstring_lines(ast.parse(text))
    code = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(argv):
    for root in argv or DEFAULT_PATHS:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for f in files:
            n = count(f)
            total += n
            print(f"{n:7d}  {f}")
        print(f"{total:7d}  {root} (total)")


if __name__ == "__main__":
    main(sys.argv[1:])
