import json
import math

import numpy as np
import pytest

from lcmoments.cli import main
from lcmoments.errors import InvalidArgumentError
from lcmoments.harness import (
    CSV_COLUMNS,
    WORKERS_ENV,
    ExperimentConfig,
    coefficient_profile,
    row_from_csv_fields,
    rows_to_csv_bytes,
    run_experiment,
    worker_count,
    write_report,
)
from lcmoments.families import family_from_spec
from lcmoments.montecarlo import _child_seed

SMALL = dict(
    families=("exp", "cube"),
    profiles=("flat", "one_hot"),
    n_list=(3,),
    p_grid=(2.0, 4.0),
    n_samples=10_000,
    seed=13,
)


# -- config --------------------------------------------------------------------------

def test_config_accepts_small_grid():
    config = ExperimentConfig(**SMALL)
    assert config.output_dir == "out"


@pytest.mark.parametrize("patch", [
    dict(families=()),
    dict(profiles=()),
    dict(n_list=()),
    dict(p_grid=()),
    dict(n_list=(0,)),
    dict(p_grid=(1.5, 4.0)),
    dict(p_grid=(2.0, 40.0)),
    dict(p_grid=(4.0, 2.0)),
    dict(p_grid=(2.0, 2.0)),
    dict(n_samples=9_999),
    dict(families=("exp", "bal:q=2")),
    dict(families=("product:exp,exp",)),
    dict(profiles=("flat", "geometric:rho=2")),
    dict(profiles=("explicit:1,1",)),
    dict(profiles=("flat", "power:alpha=nan")),
    dict(profiles=("power:alpha=inf",)),
    dict(profiles=("explicit:1,nan,2",)),
    dict(profiles=("explicit:1,inf,2",)),
    dict(profiles=("explicit:0,0,0",)),
])
def test_config_rejects_bad_fields(patch):
    with pytest.raises(InvalidArgumentError):
        ExperimentConfig(**{**SMALL, **patch})


@pytest.mark.parametrize("name,value,message", [
    ("seed", 1.5, "seed must be int"),
    ("n_samples", 10_000.0, "n_samples must be an integer"),
    ("n_list", (4.0,), "n_list entry must be int"),
    ("families", "exp", "families must be a list"),
], ids=["seed", "n_samples", "n_list", "families"])
def test_config_construction_checks_field_types(name, value, message):
    # a config built in Python is checked exactly like one loaded from JSON
    with pytest.raises(InvalidArgumentError, match=message):
        ExperimentConfig(**{**SMALL, name: value})


def test_config_construction_stores_lists_as_tuples_and_orders_as_floats():
    config = ExperimentConfig(**{**SMALL, "families": ["exp", "cube"],
                                 "profiles": ["flat", "one_hot"], "n_list": [3], "p_grid": [2, 4]})
    assert config == ExperimentConfig(**SMALL)
    assert all(type(p) is float for p in config.p_grid)
    assert all(type(row.p) is float for row in run_experiment(config).rows)


def test_config_from_mapping_checks_keys():
    data = {k: list(v) if isinstance(v, tuple) else v for k, v in SMALL.items()}
    config = ExperimentConfig.from_mapping(data)
    assert config.families == ("exp", "cube")
    assert config.p_grid == (2.0, 4.0)
    with pytest.raises(InvalidArgumentError, match="unknown config keys"):
        ExperimentConfig.from_mapping({**data, "typo": 1})
    short = dict(data)
    del short["seed"]
    with pytest.raises(InvalidArgumentError, match="missing config keys"):
        ExperimentConfig.from_mapping(short)


def _mapping(**patch):
    data = {k: list(v) if isinstance(v, tuple) else v for k, v in SMALL.items()}
    return {**data, **patch}


@pytest.mark.parametrize("patch", [
    dict(families="exp"),
    dict(profiles="flat"),
    dict(n_list=3),
    dict(p_grid={"2": 4}),
    dict(families=["exp", 7]),
    dict(profiles=["flat", None]),
    dict(n_list=[3.0]),
    dict(n_list=[True]),
    dict(p_grid=[2.0, "4"]),
    dict(p_grid=[2.0, False]),
    dict(n_samples=10_000.9),
    dict(n_samples=10_000.0),
    dict(n_samples="10000"),
    dict(seed=True),
    dict(seed=13.0),
    dict(output_dir=5),
    dict(families=["exp", "cube", "exp"]),
    dict(profiles=["flat", "flat"]),
    dict(n_list=[3, 4, 3]),
    dict(families=["bal:q=2"]),
    dict(profiles=["flatt"]),
], ids=lambda patch: "-".join(f"{k}={v!r}" for k, v in patch.items()))
def test_config_from_mapping_is_strict(patch):
    with pytest.raises(InvalidArgumentError):
        ExperimentConfig.from_mapping(_mapping(**patch))


def test_config_from_mapping_accepts_integer_orders():
    assert ExperimentConfig.from_mapping(_mapping(p_grid=[2, 4])).p_grid == (2.0, 4.0)


def test_config_from_json_file(tmp_path):
    data = {k: list(v) if isinstance(v, tuple) else v for k, v in SMALL.items()}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert ExperimentConfig.from_json_file(path) == ExperimentConfig(**SMALL)
    path.write_text("{not json")
    with pytest.raises(InvalidArgumentError, match="not valid JSON"):
        ExperimentConfig.from_json_file(path)
    path.write_text("[1, 2]")
    with pytest.raises(InvalidArgumentError, match="JSON object"):
        ExperimentConfig.from_json_file(path)


def test_config_from_json_file_rejects_an_unreadable_file(tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"families": ["\xe9"]}')
    for path in (tmp_path / "missing.json", tmp_path, latin1):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig.from_json_file(path)


# -- profiles ------------------------------------------------------------------------

def test_profiles_materialize():
    np.testing.assert_array_equal(coefficient_profile("one_hot", 3), [1.0, 0.0, 0.0])
    flat = coefficient_profile("flat", 4)
    np.testing.assert_allclose(flat, 0.5)
    assert math.isclose(float(np.sum(flat ** 2)), 1.0)
    np.testing.assert_allclose(coefficient_profile("geometric:rho=0.5", 3),
                               [1.0, 0.5, 0.25])
    np.testing.assert_allclose(coefficient_profile("power:alpha=1", 3),
                               [1.0, 0.5, 1.0 / 3.0])
    np.testing.assert_array_equal(coefficient_profile("explicit:2,0,1", 3), [2.0, 0.0, 1.0])


def test_explicit_profile_length_mismatch_is_inapplicable():
    with pytest.raises(InvalidArgumentError, match="2 entries, not n = 3"):
        coefficient_profile("explicit:1,2", 3)


@pytest.mark.parametrize("spec", [
    "nope", "geometric:rho=0", "geometric:rho=1", "geometric:alpha=0.5",
    "power:alpha=0", "power:alpha=x", "explicit:1,zz", "geometric:rho=",
    "power:alpha=nan", "power:alpha=inf", "explicit:1,nan,2", "explicit:-inf,1,2",
    "explicit:0,0,0", "explicit:nan",
])
def test_profile_rejects_malformed_specs(spec):
    with pytest.raises(InvalidArgumentError):
        coefficient_profile(spec, 3)


def test_profile_rejects_bad_dimension():
    with pytest.raises(InvalidArgumentError):
        coefficient_profile("flat", 0)


# -- experiment runs ------------------------------------------------------------------

def test_run_experiment_grid_order_and_summary():
    result = run_experiment(ExperimentConfig(**SMALL))
    assert len(result.rows) == 8
    assert result.summary["cells"] == 8
    assert result.summary["skipped"] == 0
    assert [r.family for r in result.rows] == ["exp"] * 4 + ["cube"] * 4
    assert [r.p for r in result.rows[:2]] == [2.0, 4.0]
    for row in result.rows:
        assert row.ratio_lo == row.mc_value / row.hitczenko
        assert row.ratio_hi == row.bn_upper / row.mc_value
        assert row.band_lo <= row.band_up_indep
    envelopes = result.summary["families"]
    assert envelopes["exp"]["reference"] == "gk"
    assert envelopes["cube"]["reference"] == "momunc"
    for env in envelopes.values():
        assert env["cells"] == 4
        assert 0.0 < env["c_lo"]
        assert 0.0 < env["c_hi"] <= 1.0 + 1e-12


def test_each_row_makes_one_surrogate_pass(monkeypatch):
    import lcmoments.harness as harness
    from lcmoments.surrogates import surrogate_bundle

    calls = []

    def counted(a, p, family=None):
        calls.append(p)
        return surrogate_bundle(a, p, family=family)

    monkeypatch.setattr(harness, "surrogate_bundle", counted)
    config = ExperimentConfig(**SMALL)
    result = run_experiment(config)
    assert calls == [config.p_grid] * 4
    families = {spec: family_from_spec(spec, 3) for spec in config.families}
    for row in result.rows:
        a = coefficient_profile(row.profile, row.n)
        bundle = surrogate_bundle(a, row.p, family=families[row.family])
        assert (row.hitczenko, row.bn_upper, row.gk, row.bqn, row.momunc) == (
            bundle.hitczenko, bundle.bn_upper, bundle.gk, bundle.bqn, bundle.momunc)
        assert (row.band_lo, row.band_up_indep, row.band_up_klartag) == (
            bundle.band.lower, bundle.band.upper_indep, bundle.band.upper_klartag)


def test_run_experiment_skips_inapplicable_cells(caplog):
    config = ExperimentConfig(
        families=("exp",), profiles=("explicit:1,1",), n_list=(2, 3),
        p_grid=(2.0,), n_samples=10_000, seed=4)
    with caplog.at_level("INFO", logger="lcmoments.harness"):
        result = run_experiment(config)
    assert len(result.rows) == 1
    assert result.rows[0].n == 2
    assert result.summary["skipped"] == 1
    assert result.summary["skipped_by_reason"] == {"profile length": 1}
    assert any("skipped" in rec.message for rec in caplog.records)


def test_inapplicable_row_counts_every_order_as_a_skipped_cell():
    config = ExperimentConfig(
        families=("exp", "cube"), profiles=("explicit:1,1", "flat"), n_list=(2, 3),
        p_grid=(2.0, 3.0, 4.0), n_samples=10_000, seed=4)
    result = run_experiment(config)
    assert len(result.rows) == 18
    assert result.summary["cells"] == 18
    assert result.summary["skipped"] == 6
    assert result.summary["skipped_by_reason"] == {"profile length": 6}


def test_run_experiment_skips_invalid_family_dimension():
    # a two-tail product spec only applies at n = 2; other slices are skipped
    config = ExperimentConfig(
        families=("product:exp,exp",), profiles=("flat",), n_list=(2, 3),
        p_grid=(2.0,), n_samples=10_000, seed=4)
    result = run_experiment(config)
    assert len(result.rows) == 1
    assert result.rows[0].n == 2
    assert result.summary["skipped"] == 1
    assert result.summary["skipped_by_reason"] == {"family spec": 1}


def test_report_bytes_identical_across_worker_counts(monkeypatch):
    config = ExperimentConfig(**SMALL)
    blobs = []
    for workers in ("1", "4"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        blobs.append(rows_to_csv_bytes(run_experiment(config).rows))
    assert blobs[0] == blobs[1]


# -- serialization --------------------------------------------------------------------

def test_csv_round_trip_is_exact(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    rows = run_experiment(ExperimentConfig(**SMALL)).rows
    blob = rows_to_csv_bytes(rows)
    lines = blob.decode("ascii").split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[-1] == ""
    parsed = [row_from_csv_fields(line.split(",")) for line in lines[1:-1]]
    assert tuple(parsed) == rows
    cube_row = next(r for r in rows if r.family == "cube")
    assert cube_row.gk is None and cube_row.bqn is None
    assert cube_row.momunc is not None


def test_row_from_csv_fields_checks_width():
    with pytest.raises(InvalidArgumentError):
        row_from_csv_fields(["exp", "2"])


def test_write_report_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    result = run_experiment(ExperimentConfig(**SMALL))
    csv_path, summary_path = write_report(result, tmp_path / "out")
    assert csv_path.read_bytes() == rows_to_csv_bytes(result.rows)
    assert json.loads(summary_path.read_text()) == result.summary


# -- workers and seeds ----------------------------------------------------------------

def test_worker_count_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert worker_count() >= 1
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert worker_count() == 3
    monkeypatch.setenv(WORKERS_ENV, "zero")
    with pytest.raises(InvalidArgumentError):
        worker_count()
    monkeypatch.setenv(WORKERS_ENV, "0")
    with pytest.raises(InvalidArgumentError):
        worker_count()


def test_cell_seeds_are_stable_and_distinct():
    seeds = [_child_seed(13, k) for k in range(50)]
    assert seeds == [_child_seed(13, k) for k in range(50)]
    assert len(set(seeds)) == 50
    assert _child_seed(13, 0) != _child_seed(14, 0)
    # the row-seed formula of the README, with the seed taken mod 2^64
    for seed, k in ((13, 7), (-1, 0), (2 ** 70 + 5, 3)):
        state = np.random.SeedSequence((seed % 2 ** 64, k)).generate_state(1, np.uint64)
        assert _child_seed(seed, k) == int(state[0])
    # distinct tags and case indices name distinct children, in any order
    paths = [(5,), (5, 1), (6, 1), (1, 5), (5, 1, 2), (5, 2, 1), (6,)]
    assert len({_child_seed(13, *path) for path in paths}) == len(paths)
    # SeedSequence pads its entropy with zeros, so a trailing 0 adds nothing
    assert _child_seed(13, 5, 0) == _child_seed(13, 5)


# -- command line ---------------------------------------------------------------------

def test_cli_estimate_prints_rows_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "cell.csv"
    rc = main(["estimate", "--family", "exp", "--n", "2", "--profile", "flat",
               "--p", "2,4", "--samples", "10000", "--seed", "1",
               "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "p=2 " in out and "p=4 " in out
    assert "hitczenko=" in out and "gk=" in out
    lines = csv_path.read_bytes().decode("ascii").strip().split("\n")
    assert len(lines) == 3
    rows = [row_from_csv_fields(line.split(",")) for line in lines[1:]]
    assert [row.p for row in rows] == [2.0, 4.0]
    # both orders come from one draw, so the curve cannot decrease
    assert rows[0].mc_value <= rows[1].mc_value


def test_cli_estimate_invalid_inputs(capsys):
    assert main(["estimate", "--family", "nope", "--n", "2", "--profile", "flat",
                 "--p", "2"]) == 2
    assert main(["estimate", "--family", "exp", "--n", "3",
                 "--profile", "explicit:1,2", "--p", "2"]) == 2
    assert main(["estimate", "--family", "exp", "--n", "2", "--profile", "flat",
                 "--p", "2,bad"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_report_runs_config(tmp_path, capsys):
    data = {k: list(v) if isinstance(v, tuple) else v for k, v in SMALL.items()}
    data["n_samples"] = 10_000
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    out_dir = tmp_path / "report"
    rc = main(["report", "--config", str(config_path), "--out", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "8 rows" in out and "0 skipped" in out
    assert (out_dir / "report.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["cells"] == 8


@pytest.mark.parametrize("q", ["1e20", "1.7976931348623153e+308"])
def test_cli_report_runs_at_huge_ball_exponents(tmp_path, q):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_mapping(families=[f"ball:q={q}"])))
    out_dir = tmp_path / "report"
    assert main(["report", "--config", str(config_path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "report.csv").read_text().strip().split("\n")[1:]
    rows = [row_from_csv_fields(line.split(",")) for line in lines]
    assert len(rows) == 4
    for row in rows:
        assert 0.5 < row.mc_value / row.bqn < 2.0


def test_cli_report_invalid_config(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"families": ["exp"]}))
    assert main(["report", "--config", str(config_path)]) == 2


def test_cli_report_rejects_a_string_where_a_list_belongs(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_mapping(profiles="flat")))
    assert main(["report", "--config", str(config_path),
                 "--out", str(tmp_path / "report")]) == 2
    assert "profiles" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("patch,culprit", [
    (dict(families=["exp", "bal:q=2"]), "bal:q=2"),
    (dict(profiles=["flat", "geometric:rho=2"]), "geometric:rho=2"),
    (dict(profiles=["explicit:1,1"]), "explicit:1,1"),
    (dict(profiles=["flat", "power:alpha=nan"]), "power:alpha=nan"),
    (dict(profiles=["power:alpha=inf"]), "power:alpha=inf"),
    (dict(profiles=["explicit:1,nan,2"]), "explicit:1,nan,2"),
    (dict(profiles=["explicit:0,0,0"]), "explicit:0,0,0"),
])
def test_cli_report_rejects_a_mistyped_spec(tmp_path, capsys, patch, culprit):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_mapping(**patch)))
    assert main(["report", "--config", str(config_path),
                 "--out", str(tmp_path / "report")]) == 2
    assert culprit in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_cli_report_rejects_an_overflowing_profile(tmp_path, capsys):
    # the profile passes config load; its projections overflow in the sampler
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_mapping(
        families=["exp"], profiles=["explicit:1e308,1e308,1"], n_list=[3])))
    assert main(["report", "--config", str(config_path),
                 "--out", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert "overflows" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
def test_cli_report_unreadable_config_exits_2(tmp_path, capsys, case):
    path = {"missing": tmp_path / "missing.json", "directory": tmp_path,
            "not utf-8": tmp_path / "latin1.json"}[case]
    (tmp_path / "latin1.json").write_bytes(b'{"families": ["\xe9"]}')
    assert main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_cli_report_out_under_a_regular_file_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_mapping()))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["report", "--config", str(config_path),
                 "--out", str(blocker / "report")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_estimate_csv_in_a_missing_directory_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "missing" / "cell.csv"
    assert main(["estimate", "--family", "exp", "--n", "2", "--profile", "flat",
                 "--p", "2", "--samples", "10000", "--csv", str(csv_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_json_in_a_missing_directory_exits_2(monkeypatch, tmp_path, capsys):
    import lcmoments.acceptance as acceptance

    fake = [acceptance.CheckResult("alpha", True, {"m": 1.0}, 0.01)]
    monkeypatch.setattr(acceptance, "run_suite", lambda suite, seed: fake)
    json_path = tmp_path / "missing" / "verdicts.json"
    assert main(["verify", "--suite", "core", "--json", str(json_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_reports_pass_and_fail(monkeypatch, tmp_path, capsys):
    import lcmoments.acceptance as acceptance

    fake = [acceptance.CheckResult("alpha", True, {"m": 1.0}, 0.01),
            acceptance.CheckResult("beta", False, {"m": 9.0}, 0.20)]
    monkeypatch.setattr(acceptance, "run_suite", lambda suite, seed: fake)
    json_path = tmp_path / "verdicts.json"
    rc = main(["verify", "--suite", "core", "--json", str(json_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "[PASS] alpha" in captured.out
    assert "[FAIL] beta" in captured.out
    assert "failed checks: beta" in captured.err
    payload = json.loads(json_path.read_text())
    assert [entry["name"] for entry in payload] == ["alpha", "beta"]

    monkeypatch.setattr(acceptance, "run_suite", lambda suite, seed: fake[:1])
    assert main(["verify", "--suite", "core"]) == 0


def test_cli_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "everything"]) == 2
    assert "unknown suite" in capsys.readouterr().err
