"""Tests for ``tools/code_lines.py``: which lines of a module count as code."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "code_lines.py")

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves a code line

    # an indented comment line


class C:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        """Function docstring.

        With a blank line inside."""
        # a comment
        return 1


async def g():
    """Async docstring."""
    return 2
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_outside_docstrings_comments_and_blanks(code_lines):
    # import, class, the two lines of x, def f, return 1, async def, return 2
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("X = 1\n\n# c\n")
    (tmp_path / "notes.txt").write_text("not source\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "a.py 1\nb.py 8\ntotal 9\n"
