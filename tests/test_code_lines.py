"""tools/code_lines.py counts code lines, not blanks, comments or docstrings, on a fixed source."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math    # a trailing comment leaves a code line

#: a doc comment
X = 1


class C:
    """Class docstring."""

    def f(self):
        """Method docstring.

        With a blank line inside.
        """
        # a comment line
        return """not a docstring:
a string that spans lines is code"""


async def g():
    \'\'\'Async docstring.\'\'\'
    text = "x"
    return text
'''


def test_counts_a_fixed_source():
    # import, X, class, def f, the return's two lines, async def, text, return
    assert code_lines.code_lines(SOURCE) == 9


def test_docstring_lines_cover_every_docstring_and_nothing_else():
    tree = code_lines.ast.parse(SOURCE)
    assert code_lines.docstring_lines(tree) == {1, 2, 11, 14, 15, 16, 17, 24}


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     9  {tmp_path / 'a.py'}",
        f"     1  {tmp_path / 'pkg' / 'b.py'}",
        "    10  total",
    ]
