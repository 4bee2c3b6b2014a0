import subprocess
import sys
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE_A = '''\
"""A module docstring
over two lines."""

# a comment-only line
import os  # a code line with a trailing comment


class C:
    """A class docstring."""

    def f(self):
        """A function docstring
        over two lines."""
        return os.path.join(
            "a",
            "b",
        )

    async def g(self):
        """An async function docstring."""
        return 1
'''

MODULE_B = '''\
x = 1


def h():
    # a comment-only line in a body
    return x


y = """a string that is not a docstring
counts on each line"""
'''


def test_code_lines_per_module_and_total(tmp_path):
    """tools/code_lines.py leaves out blank lines, comment-only lines and
    module, class, function and async function docstrings, and counts a
    code line with a trailing comment, each line of a multi-line call
    and each line of a string that is not a docstring."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(MODULE_A, encoding="utf-8")
    (pkg / "b.py").write_text(MODULE_B, encoding="utf-8")
    (pkg / "notes.txt").write_text("not python\n", encoding="utf-8")
    run = subprocess.run([sys.executable, str(CODE_LINES), str(pkg)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stderr == ""
    counts = dict(line.split() for line in run.stdout.splitlines())
    assert counts == {"a.py": "9", "b.py": "5", "total": "14"}
