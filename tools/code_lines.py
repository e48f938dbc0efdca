"""Count the code lines of the treeprob package, per module and in total,
and the public names the package exports.

A code line holds at least one token that is not a comment and not part of
a docstring (the first statement of a module, class or function body, when
it is a string literal).  Blank lines, comment-only lines and docstring
lines do not count.  Lines are found with ``tokenize`` and docstrings with
``ast``.  The name count is the length of the ``__all__`` list in the
package's ``__init__.py``, read with ``ast`` without importing it.

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of every docstring literal in a parsed module."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_text("utf-8")
    docstrings = docstring_starts(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in SKIPPED:
                continue
            if token.type == tokenize.STRING and token.start in docstrings:
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def public_names(init: Path) -> int:
    """The number of names in the ``__all__`` list of ``init``."""
    for node in ast.parse(init.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return len(ast.literal_eval(node.value))
    raise ValueError(f"no __all__ in {init}")


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "treeprob"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    print(f"{public_names(root / '__init__.py'):6d}  names in treeprob.__all__")
    return 0


if __name__ == "__main__":
    sys.exit(main())
