import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_diff_finds_two_copies_of_one_tree_identical(tmp_path, monkeypatch, capsys):
    # each tree runs in its own interpreter on its own source, so two copies
    # of one tree give the same bits on every call; the workers get their
    # calls on stdin, so one call of each kind stands in for the matrix
    record_diff = load_tool("record_diff")
    calls = record_diff.call_matrix()
    kinds = ("pnorm", "fourth_moment", "dependent", "joint_tail", "sample")
    monkeypatch.setattr(record_diff, "call_matrix", lambda: [
        next(c for c in calls if c["kind"] == kind) for kind in kinds])
    for name in ("base", "head"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "diff.json"
    assert record_diff.main(["--base", str(tmp_path / "base"), "--head",
                             str(tmp_path / "head"), "--json", str(out)]) == 0
    diff = json.loads(out.read_text(encoding="utf-8"))
    assert tuple(call["call"]["kind"] for call in diff["calls"]) == kinds
    assert diff["summary"] == {"identical": 5}
    assert "5 calls: 5 identical" in capsys.readouterr().out


def test_record_diff_tells_a_changed_sample_by_its_digest():
    record_diff = load_tool("record_diff")
    assert record_diff.compare([{"sha256": "0a"}], [{"sha256": "0a"}]) == {"class": "identical"}
    assert record_diff.compare([{"sha256": "0a"}], [{"sha256": "0b"}]) == {"class": "changed"}


CODE_LINES_FIXTURE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment


# a comment line
def f(x):
    """A one-line docstring."""
    y = (x +
         1)
    text = """a string over
two lines, not a docstring"""
    return y, text


class C:
    """A class
    docstring."""

    value = math.pi
'''


def test_code_lines_counts_no_blank_comment_or_docstring_line(tmp_path, capsys):
    # import, def, the two lines of y, the two of text, return, class and
    # value: 9 of the fixture's 21 lines
    code_lines = load_tool("code_lines")
    assert code_lines.code_lines(CODE_LINES_FIXTURE) == 9
    path = tmp_path / "fixture.py"
    path.write_text(CODE_LINES_FIXTURE, encoding="utf-8")
    assert code_lines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.split() == ["9", str(path), "9", str(path), "18", "total"]
