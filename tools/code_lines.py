"""Print the code lines of each module of the package and their total.

Usage, from anywhere::

    python3 tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to ``src/singpencil`` next to this script; every
``*.py`` file directly in it is counted.  A code line is a physical line
that is not blank, is not only a comment, and lies outside every
docstring (the string statement that opens a module, class or function
body, found with ``ast``).  The output is one ``<file> <count>`` line per
module, sorted by name, and a last ``total <count>`` line.
"""

from __future__ import annotations

import ast
import os
import sys

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines of the Python ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, _SCOPES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1 for number, line in enumerate(source.splitlines(), 1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    here = os.path.dirname(os.path.abspath(__file__))
    directory = argv[0] if argv else os.path.join(here, "..", "src", "singpencil")
    total = 0
    for name in sorted(f for f in os.listdir(directory) if f.endswith(".py")):
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            count = code_lines(f.read())
        print(name, count)
        total += count
    print("total", total)


if __name__ == "__main__":
    main()
