"""Code lines of Python modules: not blank, not a comment and not inside a docstring.

Usage:

    python3 tools/code_lines.py src/semcal [more files or directories]

Prints one line per module, ``<code lines>  <path>``, in path order, and a
last line with the total.  A docstring is the string that opens a module,
a class or a function body, whichever lines it spans; every other string,
however many lines it spans, is code.  A comment line is one whose first
non-blank character is ``#``.  This is the count that ROADMAP aim 2 reads
as the size of the library.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that are not blank, not comments and not inside a docstring."""
    skipped = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skipped and line.strip() and not line.lstrip().startswith("#"))


def modules(paths) -> list[Path]:
    """The ``.py`` files among ``paths`` and under the directories among them, sorted."""
    found = set()
    for path in map(Path, paths):
        found.update(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories to count")
    args = parser.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
