"""Print each module's total, code, docstring and comment-only line counts.

Usage: python tools/line_counts.py [DIR]   (default: src/bincp)

A code line holds a token that is neither a comment nor part of a
docstring; docstrings (module, class and function) are found with `ast`,
comments with `tokenize`.  A docstring line holds no code, and a
comment-only line holds a comment and neither code nor docstring.  The
rest of the total is blank.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def counts(source: str) -> tuple[int, int, int, int]:
    """(total, code, docstring, comment-only) lines of one module's source."""
    docstrings, doc_lines = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
                doc_lines.update(range(first.lineno, first.end_lineno + 1))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT and token.start not in docstrings:
            code.update(range(token.start[0], token.end[0] + 1))
    return (
        len(source.splitlines()),
        len(code),
        len(doc_lines - code),
        len(comments - code - doc_lines),
    )


def main(root: Path) -> None:
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(root.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    print(f"{'module':<18}{'total':>7}{'code':>7}{'doc':>7}{'comment':>9}")
    for name, total, code, doc, comment in rows:
        print(f"{name:<18}{total:>7}{code:>7}{doc:>7}{comment:>9}")


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else "src/bincp"))
