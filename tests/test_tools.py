import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_record_diff():
    spec = importlib.util.spec_from_file_location(
        "record_diff", ROOT / "tools" / "record_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_diff_finds_two_copies_of_one_tree_identical(tmp_path, monkeypatch, capsys):
    # each tree runs in its own interpreter on its own source, so two copies
    # of one tree give the same bits on every call; the workers get their
    # calls on stdin, so three calls of the matrix stand in for all of it
    record_diff = load_record_diff()
    calls = record_diff.call_matrix()
    three = [next(c for c in calls if c["kind"] == kind)
             for kind in ("pnorm", "fourth_moment", "dependent")]
    monkeypatch.setattr(record_diff, "call_matrix", lambda: three)
    for name in ("base", "head"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "diff.json"
    assert record_diff.main(["--base", str(tmp_path / "base"), "--head",
                             str(tmp_path / "head"), "--json", str(out)]) == 0
    diff = json.loads(out.read_text(encoding="utf-8"))
    assert [call["call"]["kind"] for call in diff["calls"]] == [
        "pnorm", "fourth_moment", "dependent"]
    assert diff["summary"] == {"identical": 3}
    assert "3 calls: 3 identical" in capsys.readouterr().out
