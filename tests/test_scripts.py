import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# 7 code lines: the import, the three lines of the call, the def, the
# return and the string that is an expression but no docstring.
_FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts

# a comment line does not

value = os.path.join(
    "a",  # neither does a blank line
)


def f():
    """A function docstring."""

    return 1


"""A string after the first statement is code."""
'''


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "fixture.py").write_text(_FIXTURE)
    (tmp_path / "empty.py").write_text("# nothing but a comment\n\n")
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py"), str(tmp_path / "fixture.py"), str(tmp_path / "empty.py")],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "7 fixture.py\n0 empty.py\n7 total\n"
