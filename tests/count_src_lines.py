"""Print the counted lines of the package source, per module and in total.

A counted line holds code: blank lines, comments and docstrings are left
out.  Docstrings (of the module, of each class and each function) are found
by ``ast``; comments and blank lines by ``tokenize``, so a line that holds
code and a trailing comment counts.  A statement or string spread over
several lines counts each of them.

Run from anywhere, standard library only:

    python tests/count_src_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the tokens that mark no line as code
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counted_lines(path: pathlib.Path) -> int:
    """The number of lines of ``path`` that hold code."""
    source = path.read_bytes()
    code: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main() -> None:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = counted_lines(path)
        total += lines
        print(f"{lines:6d}  {path.relative_to(SRC).as_posix()}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
