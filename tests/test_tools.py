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
    # calls on stdin, so one call of each kind stands in for the matrix
    record_diff = load_record_diff()
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
    record_diff = load_record_diff()
    assert record_diff.compare([{"sha256": "0a"}], [{"sha256": "0a"}]) == {"class": "identical"}
    assert record_diff.compare([{"sha256": "0a"}], [{"sha256": "0b"}]) == {"class": "changed"}
