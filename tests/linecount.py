"""Count the lines of Python source that hold code.

    python3 tests/linecount.py src/cpi3d/*.py
    python3 tests/linecount.py src

A line holds code when some token on it is neither a comment nor part of a
docstring, so blank lines, comment lines and docstring lines are left out.
Prints the total over the files given; a directory stands for every `*.py`
file under it.
"""

import ast
import glob
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of `source` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def total_code_lines(paths) -> int:
    """Code lines summed over `paths`, each a file or a directory."""
    total = 0
    for path in paths:
        files = (sorted(glob.glob(os.path.join(path, "**", "*.py"), recursive=True))
                 if os.path.isdir(path) else [path])
        for name in files:
            with open(name, encoding="utf-8") as fh:
                total += code_lines(fh.read())
    return total


if __name__ == "__main__":
    print(total_code_lines(sys.argv[1:]))
