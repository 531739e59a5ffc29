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


def test_base_tree_prints_both_counts_and_the_difference(tmp_path, capsys):
    for tree, modules in {"root": {"a.py": "x = 1\ny = 2\n", "new.py": "z = 3\n"},
                          "base": {"a.py": "x = 1\n", "gone.py": "import math\nw = 4\n"}}.items():
        package = tmp_path / tree / "src" / "nvk"
        package.mkdir(parents=True)
        for name, source in modules.items():
            (package / name).write_text(source)
    assert code_lines.main([str(tmp_path / "root"), str(tmp_path / "base")]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["a.py", "1", "2", "+1"], ["gone.py", "2", "0", "-2"], ["new.py", "0", "1", "+1"],
        ["total", "3", "3", "+0"]]
    assert code_lines.main([str(tmp_path / "root")]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["a.py", "2"], ["new.py", "1"], ["total", "3"]]
