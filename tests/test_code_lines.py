"""The line count of tools/code_lines.py on a small hand-made module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# Code lines: 5 (import), 8 (class), 11 (def), 16-19 (the call over four
# lines), 20 (the string that is not a docstring), 21 (return): 9 in all.
FIXTURE = '''"""Module docstring,
over two lines."""

# A comment line.
import os


class Box:
    """Class docstring."""

    def size(self, a):
        """Function docstring,

        with a blank line inside.
        """
        total = max(  # a trailing comment does not hide the code
            a,
            len(os.sep),
        )
        note = "a string, not a docstring"
        return total
'''


def test_counts_code_lines_only():
    assert code_lines.count(FIXTURE) == 9


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "box.py").write_text(FIXTURE)
    (tmp_path / "top.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "pkg/box.py 9\ntop.py 1\ntotal 10\n"


def test_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "absent")]) == 2
    assert capsys.readouterr().err.startswith("usage: ")
