from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
two lines."""

# a comment
import os  # a trailing comment counts as code


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a multi-line
string that is not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_skip_blank_comment_and_docstring_lines(tmp_path, capsys):
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    assert code_lines.code_lines(tmp_path / "sample.py") == 7
    assert code_lines.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split() == ["sample.py", "16", "7"]
    assert rows[-1].split() == ["total", "16", "7"]


def test_empty_directory_is_an_error(tmp_path, capsys):
    assert code_lines.main([str(tmp_path)]) == 1
    assert "no .py files" in capsys.readouterr().err


def test_package_option_counts(capsys):
    assert code_lines.main([]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-2].split() == ["walktimes.__all__", "names", "54"]
    assert rows[-1].split() == ["Tolerances", "fields", "24"]


def test_plain_directory_has_no_option_counts(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    assert code_lines.option_counts(tmp_path) == []
