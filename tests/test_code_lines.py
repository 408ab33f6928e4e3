import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    x = """a string
that is not a docstring"""

    def f(self):
        \'\'\'Function docstring.\'\'\'
        return (1 +
                2)


async def g():
    """Async function docstring."""
'''


def test_counts_token_lines_without_docstrings_comments_or_blanks(tmp_path):
    # import, class, the two lines of x, def f, the two lines of the
    # return, async def.
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(path) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "inner.py").write_text("x = 1\n\n# note\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["8", "mod.py"], ["2", "pkg/inner.py"], ["10", "total"]]
