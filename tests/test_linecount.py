from linecount import code_lines, total_code_lines

SAMPLE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """One-line docstring."""
    # another comment
    y = """a string over
two lines"""
    "a string statement after the first is code"
    return x + y


class C:
    """Class docstring."""

    z = {
        # a comment inside brackets
        "a": 1,
    }
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, def, the two lines of y, the later string, return, class, z's
    # three lines
    assert code_lines(SAMPLE) == 10


def test_code_lines_of_source_without_code():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_a_directory_counts_every_python_file_under_it(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert total_code_lines([str(tmp_path / "pkg")]) == 11
    assert total_code_lines([str(tmp_path / "pkg"), str(tmp_path / "pkg" / "a.py")]) == 21
