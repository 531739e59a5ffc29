"""The code-line count of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code


class A:
    """Class docstring."""

    # a comment line
    def f(self, x):
        """Function docstring."""
        s = """a string that is
not a docstring"""
        return (x +
                1)
'''


def test_counts_only_lines_with_code():
    # import, class, def, the two lines of s and the two of the return.
    assert code_lines.code_lines(_SOURCE) == 7


def test_comments_and_docstrings_do_not_count():
    bare = "import math\n\n\nclass A:\n    def f(self, x):\n        return x\n"
    documented = ('"""Doc."""\n# note\nimport math\n\n\nclass A:\n    """Doc."""\n\n'
                  '    def f(self, x):\n        """Doc\n        more."""\n        # why\n'
                  '        return x  # what\n')
    assert code_lines.code_lines(bare) == code_lines.code_lines(documented) == 4
