"""Count the lines of Python source that hold code.

    python tools/codelines.py [PATH ...]

A line counts when it holds a token other than a comment or a
docstring; blank lines, comment lines and docstring lines do not.  A
docstring here is any string that stands alone as a statement.  A token
spanning several lines (a multi-line string that is not a docstring)
counts each line it spans.  Prints one line per file and a total per
PATH (a file or a directory searched for ``*.py``; default ``src/ngl``
beside this tool).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold a token other than a comment or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        paths = [Path(__file__).resolve().parent.parent / "src" / "ngl"]
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        total = 0
        for file in files:
            count = code_lines(file.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d} {file}")
        print(f"{total:6d} total {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
