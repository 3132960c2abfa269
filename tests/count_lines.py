"""Count the source lines that are neither comment, docstring nor blank.

    python tests/count_lines.py src/stencil_spectra/*.py

prints each file's count and the total. A line counts when a token other
than a comment or a line break lies on it (every line of a string that
spans several counts), unless the line belongs to a module, class or
function docstring. This is the net line count the ROADMAP tracks: a
deleted comment or docstring line does not change it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    tokens = tokenize.tokenize(io.BytesIO(source).readline)
    lines = {line for token in tokens if token.type not in _LAYOUT
             for line in range(token.start[0], token.end[0] + 1)}
    return len(lines - docstrings)


def main(paths: list[str]) -> None:
    counts = [(code_lines(path), path) for path in paths]
    for count, path in counts:
        print(f"{count:7d} {path}")
    print(f"{sum(count for count, _ in counts):7d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
