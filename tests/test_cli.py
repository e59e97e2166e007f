import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fairmmd.cli import main
from conftest import run_python

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "report.schema.json").read_text()
)

POPULATION = {
    "pi_s": 0.5,
    "p_y_given_s": [[0.5, 0.5], [0.5, 0.5]],
    "cells": {
        "0,0": {"mean": [0.0, 0.0], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "0,1": {"mean": [1.5, 0.0], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "1,0": {"mean": [0.6, 0.8], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "1,1": {"mean": [2.0, 0.5], "cov": [[0.25, 0.0], [0.0, 0.25]]},
    },
}


def write_config(tmp_path, name="cfg.json", **extra):
    cfg = {
        "seed": 5,
        "n": 500,
        "out": str(tmp_path / "reports"),
        "population": POPULATION,
        "kernel": {"family": "rbf", "sigma": 1.0},
    }
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def load_report(tmp_path, command):
    return json.loads((tmp_path / "reports" / f"{command}.json").read_text())


def run(args):
    return main([str(a) for a in args])


def test_generate_writes_dataset_and_valid_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["generate", "--config", cfg]) == 0
    report = load_report(tmp_path, "generate")
    jsonschema.validate(report, SCHEMA)
    assert report["command"] == "generate"
    csv_path = Path(report["result"]["path"])
    assert csv_path.exists()
    assert report["result"]["n"] == 500
    assert sum(report["result"]["cell_counts"].values()) == 500


def test_each_command_report_validates(tmp_path):
    cfg = write_config(
        tmp_path,
        concentration={"grid": [[[1, 0], [0, 1]], [[1, 0], [0, 0]]],
                       "n_grid": [100, 200], "trials": 10},
        kernel={"family": "rbf", "sigma": 1.0},
        train={"lambda": 1.0, "steps": 10},
        sweep={"lambdas": [0.0, 2.0]},
    )
    conc_cfg = json.loads(cfg.read_text())
    conc_cfg["kernel"] = {"family": "linear", "radius": 9.1}
    conc_path = tmp_path / "conc.json"
    conc_path.write_text(json.dumps(conc_cfg))

    for command, path in [
        ("generate", cfg), ("metrics", cfg), ("eok", cfg), ("bounds", cfg),
        ("concentration", conc_path), ("train", cfg), ("sweep", cfg),
    ]:
        assert run([command, "--config", path]) == 0, command
        report = load_report(tmp_path, command)
        jsonschema.validate(report, SCHEMA)
        assert report["command"] == command
    assert (tmp_path / "reports" / "sweep.csv").exists()


def test_reports_identical_modulo_timing(tmp_path):
    cfg = write_config(tmp_path)
    for out in ("a", "b"):
        assert run(["eok", "--config", cfg, "--out", tmp_path / out]) == 0
    a = json.loads((tmp_path / "a" / "eok.json").read_text())
    b = json.loads((tmp_path / "b" / "eok.json").read_text())
    assert a.pop("timing") != b.pop("timing") or True  # drop the volatile key
    assert a == b


def test_reports_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    """Kernel passes split across 1 or 2 workers give byte-identical eok,
    metrics and bounds reports, apart from timing."""
    from fairmmd import kernels

    cfg = write_config(tmp_path, n=1200)
    texts = {}
    for workers in (1, 2):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        for command in ("eok", "metrics", "bounds"):
            assert run([command, "--config", cfg]) in (0, 1), command
            report = load_report(tmp_path, command)
            report.pop("timing")
            texts[workers, command] = json.dumps(report, sort_keys=True)
    for command in ("eok", "metrics", "bounds"):
        assert texts[1, command] == texts[2, command], command


def test_seed_override_shifts_digest_and_result(tmp_path):
    cfg = write_config(tmp_path)
    assert run(["eok", "--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run(["eok", "--config", cfg, "--out", tmp_path / "b", "--seed", "6"]) == 0
    a = json.loads((tmp_path / "a" / "eok.json").read_text())
    b = json.loads((tmp_path / "b" / "eok.json").read_text())
    assert a["seed"] == 5 and b["seed"] == 6
    assert a["config_digest"] != b["config_digest"]
    assert a["result"]["plugin"]["eok2"] != b["result"]["plugin"]["eok2"]


def test_metrics_on_csv_dataset_with_relative_path(tmp_path):
    gen = write_config(tmp_path)
    assert run(["generate", "--config", gen]) == 0
    cfg = {
        "seed": 1,
        "out": str(tmp_path / "reports"),
        "dataset": "reports/dataset.csv",  # relative to the config file
        "kernel": {"family": "rbf", "sigma": "median"},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    assert run(["metrics", "--config", path]) == 0
    report = load_report(tmp_path, "metrics")
    jsonschema.validate(report, SCHEMA)
    assert 0.0 <= report["result"]["metrics"]["dp"] <= 1.0


def test_bounds_failing_clause_exits_one(tmp_path):
    """The rate-matched equality holds only statistically; at a tolerance of
    1e-12 the clause must report a miss and the command must exit 1."""
    cfg = write_config(
        tmp_path,
        bounds={"checks": ["unbiased_equality"], "rate_threshold": 0.1,
                "tolerances": {"unbiased_equality": 1e-12}},
    )
    assert run(["bounds", "--config", cfg]) == 1
    report = load_report(tmp_path, "bounds")
    jsonschema.validate(report, SCHEMA)
    assert report["result"]["all_hold"] is False


def test_bounds_passing_exits_zero(tmp_path):
    cfg = write_config(tmp_path, bounds={"checks": ["biased_lower_bound", "ba_bounds"]})
    assert run(["bounds", "--config", cfg]) == 0
    report = load_report(tmp_path, "bounds")
    assert report["result"]["all_hold"] is True
    names = {c["name"] for c in report["result"]["clauses"]}
    assert names == {"sup_dp_biased_floor", "ba_group_upper", "ba_outcome_lower"}


def test_config_errors_exit_two(tmp_path, capsys):
    assert run(["eok", "--config", tmp_path / "missing.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["eok", "--config", bad]) == 2
    both = write_config(tmp_path, dataset="also.csv")  # population AND dataset
    assert run(["eok", "--config", both]) == 2
    neither = tmp_path / "n.json"
    neither.write_text(json.dumps({"seed": 1, "kernel": {"family": "rbf"}}))
    assert run(["eok", "--config", neither]) == 2
    unknown = write_config(tmp_path, bounds={"checks": ["nonsense"]})
    assert run(["bounds", "--config", unknown]) == 2
    capsys.readouterr()  # errors went to stderr, keep the terminal clean


@pytest.mark.parametrize("case", ["not-utf8", "nested-too-deep", "out-a-file",
                                  "out-under-a-file", "out-flag-under-a-file"])
def test_unreadable_config_or_unusable_out_exits_two_before_any_work(tmp_path, capsys,
                                                                      monkeypatch, case):
    """A config file that is not UTF-8 or is nested too deeply to parse, and
    an output directory that is an existing file or lies under one (from the
    config or from --out), exit 2 with one error line before any rows are
    read or drawn, where they used to end in a traceback and exit 1 (the
    output directory only once the work was done)."""
    from fairmmd import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config and out were checked")

    for name in ("sample_population", "read_csv"):
        monkeypatch.setattr(cli, name, no_work)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    cfg, args = tmp_path / "cfg.json", []
    if case == "not-utf8":
        cfg.write_bytes(b'{"seed": 1, "x": "\xff"}')
    elif case == "nested-too-deep":
        cfg.write_text("[" * 100_000)
    elif case == "out-flag-under-a-file":
        cfg, args = write_config(tmp_path), ["--out", taken / "reports"]
    else:
        cfg = write_config(tmp_path, out=str(taken if case == "out-a-file" else taken / "x"))
    assert run(["generate", "--config", cfg, *args]) == 2
    err = capsys.readouterr().err
    want = {"not-utf8": "not UTF-8", "nested-too-deep": "nested too deeply"}.get(
        case, f"{str(taken)!r} exists and is not a directory")
    assert err.startswith("error: ") and err.count("\n") == 1 and want in err, err
    assert taken.read_text() == "not a directory"
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("extra, named", [
    ({"kernal": 3}, "'kernal' at the top level"),
    ({"bounds": {"check": ["tvd_dominance"]}}, """'check' in section "bounds\""""),
])
def test_an_unknown_key_exits_two_before_any_rows(tmp_path, capsys, monkeypatch, extra, named):
    """A misspelled key, which used to be ignored without a word, exits 2
    before any rows are drawn, naming the key, its section and the allowed
    keys; a section of another command is allowed."""
    from fairmmd import cli

    def no_rows(*args, **kwargs):
        raise AssertionError("rows were drawn before the keys were checked")

    monkeypatch.setattr(cli, "sample_population", no_rows)
    cfg = write_config(tmp_path, concentration={"trials": 3}, **extra)
    assert run(["bounds", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown key {named} of the config; allowed keys: ")
    assert ("checks, " if "bounds" in extra else "bounds, concentration, ") in err, err


@pytest.mark.parametrize("command, name", [
    ("generate", "generate.json"), ("generate", "dataset.csv"), ("sweep", "sweep.csv"),
    ("sweep", "sweep.json"),
])
def test_a_failed_write_exits_two_naming_the_path(tmp_path, capsys, command, name):
    """A write that fails with an OSError (here a directory where the report,
    dataset.csv or sweep.csv goes) exits 2 with one error line naming the
    path, where it used to end in a traceback and exit 1.  The run leaves
    no file behind: no report, no CSV and no staged temporary file, and the
    files an earlier run wrote there keep their contents."""
    reports = tmp_path / "reports"
    blocked = reports / name
    blocked.mkdir(parents=True)
    csv = {"generate": "dataset.csv", "sweep": "sweep.csv"}[command]
    earlier = {f: f"{f} of an earlier run\n" for f in (f"{command}.json", csv) if f != name}
    for f, text in earlier.items():
        (reports / f).write_text(text)
    cfg = write_config(tmp_path, n=200, train={"steps": 2}, sweep={"lambdas": [0.0, 1.0]})
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocked}: ") and err.count("\n") == 1, err
    assert blocked.is_dir() and not list(blocked.iterdir())
    assert {p.name: p.read_text() for p in reports.iterdir() if p != blocked} == earlier


GRID = [[[1.0, 0.0], [0.0, 1.0]]]


@pytest.mark.parametrize("command, extra", [
    ("generate", {"n": "abc"}),
    ("metrics", {"kernel": {"family": "rbf", "sigma": "wide"}}),
    ("metrics", {"metrics": {"classifier": {"kind": "logistic_head", "bias": 0.0}}}),
    ("concentration", {"concentration": {"grid": GRID, "trials": "x"}}),
    ("concentration", {"concentration": {"grid": GRID, "n_grid": ["a", 200]}}),
    ("concentration", {"concentration": {"grid": GRID, "radius": "wide"}}),
    ("bounds", {"bounds": {"checks": ["ba_bounds"], "trials": "x"}}),
    ("bounds", {"bounds": {"tolerances": {"biased_lower_bound": "x"}}}),
    ("eok", {"eok": {"bootstrap_seed": "x"}}),
    ("train", {"train": {"steps": "x"}}),
    ("sweep", {"sweep": {"lambdas": ["x"]}}),
    ("bounds", {"bounds": 5}),
    ("generate", {"seed": 1.5}),
    ("generate", {"n": 10.9}),
    ("concentration", {"concentration": {"grid": GRID, "trials": 2.5}}),
], ids=["n-not-a-number", "sigma-not-a-number", "logistic-head-without-weights",
        "trials-not-a-number", "n-grid-entry-not-a-number", "radius-not-a-number",
        "bounds-trials-not-a-number", "tolerance-not-a-number",
        "bootstrap-seed-not-a-number", "steps-not-a-number", "lambda-not-a-number",
        "section-not-an-object", "seed-not-an-integer", "n-not-an-integer",
        "trials-not-an-integer"])
def test_malformed_config_value_exits_two(tmp_path, capsys, command, extra):
    cfg = write_config(tmp_path, **extra)
    assert run([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


CELL = POPULATION["cells"]["0,0"]

BAD_CSV = {
    "extra-field.csv": "z_0,z_1,s,y\n0.1,0.2,0,1\n0.3,0.4,1,0,7\n",
    "non-numeric.csv": "z_0,z_1,s,y\n0.1,0.2,0,1\n0.3,abc,1,0\n",
    "fractional-label.csv": "z_0,s,y\n0.1,0.7,1\n0.3,1,0\n0.5,0,0\n0.2,1,1\n",
    "empty.csv": "",
    "header-only.csv": "z_0,z_1,s,y\n",
}


@pytest.mark.parametrize("command, extra, args", [
    ("concentration", {"concentration": {"grid": GRID, "trials": 0}}, []),
    ("concentration", {"concentration": {"grid": GRID, "trials": -2}}, []),
    ("concentration", {"concentration": {"grid": GRID, "delta": 1.5}}, []),
    ("generate", {"seed": -1}, []),
    ("eok", {}, ["--seed", "-1"]),
    ("eok", {"eok": {"bootstrap_seed": -3}}, []),
    ("metrics", {"dataset": "extra-field.csv"}, []),
    ("eok", {"dataset": "non-numeric.csv"}, []),
    ("eok", {"dataset": "missing.csv"}, []),
    ("eok", {"dataset": "fractional-label.csv"}, []),
    ("metrics", {"dataset": "empty.csv"}, []),
    ("train", {"dataset": "header-only.csv"}, []),
    ("eok", {"kernel": {"family": "rbf", "sigma": 1e308}}, []),
    ("eok", {"kernel": {"family": "rbf", "sigma": 1e-170}}, []),
    # 8e17 bytes for one column of draws, more than any address space holds,
    # so the allocation fails at once.
    ("generate", {"n": 1e17}, []),
    ("generate", {"seed": "5"}, []),
    ("generate", {"n": "50"}, []),
    ("eok", {"kernel": {"family": "rbf", "sigma": True}}, []),
    ("eok", {"kernel": {"family": "rbf", "sigma": "1.0"}}, []),
    ("concentration", {"concentration": {"grid": GRID, "radius": "50"}}, []),
    ("concentration", {"concentration": {"grid": GRID, "delta": "0.1"}}, []),
    ("metrics", {"metrics": {"classifier": {"kind": "constant", "value": True}}}, []),
    ("metrics", {"metrics": {"classifier": {"kind": "logistic_head", "weights": [1.0, 0.0],
                                            "bias": "0"}}}, []),
    ("bounds", {"bounds": {"tolerances": {"biased_lower_bound": True}}}, []),
    ("bounds", {"bounds": {"checks": ["calibration_chain"], "sigma_u": "0.5"}}, []),
    ("train", {"train": {"lambda": True}}, []),
    ("train", {"train": {"step_size": "0.1"}}, []),
    ("sweep", {"sweep": {"lambdas": [0.0, True]}}, []),
    ("eok", {"eok": {"weights": ["0.5", "0.5"]}}, []),
    ("metrics", {"metrics": {"classifier": {"kind": "logistic_head", "weights": [True, "1"],
                                            "bias": 0.0}}}, []),
    ("concentration", {"concentration": {"grid": [[[1.0, 0.0], [0.0, "1"]]]}}, []),
    ("concentration", {"concentration": {"grid": [[[True, 0.0], [0.0, 1.0]]]}}, []),
    ("concentration", {"concentration": {"grid": [[[1.0, 0.0], [0.0]]]}}, []),
    ("generate", {"out": 5}, []),
    ("eok", {"dataset": 5}, []),
    ("eok", {"dataset": ["a.csv"]}, []),
    ("generate", {"population": dict(POPULATION, pi_s="abc")}, []),
    ("generate", {"population": dict(POPULATION, cells=dict(POPULATION["cells"],
                                                            **{"a,b": CELL}))}, []),
    ("generate", {"population": dict(POPULATION, cells=dict(POPULATION["cells"],
                                                            **{"0,0": dict(CELL, mean=["x", 0.0])}))}, []),
    ("generate", {"population": dict(POPULATION, cells=dict(POPULATION["cells"],
                                                            **{"0,0": dict(CELL, cov="x")}))}, []),
    ("bounds", {"bounds": {"checks": ["ba_bounds"], "n_anchors": -1}}, []),
    ("bounds", {"bounds": {"checks": ["ba_bounds"], "trials": -1}}, []),
    ("generate", {"population": dict(POPULATION, pi_s="0.5",
                                     p_y_given_s=[[True, False], ["0.5", "0.5"]])}, []),
    ("generate", {"population": dict(POPULATION, p_y_given_s=[[True, False], [0.5, 0.5]])}, []),
    ("generate", {"population": dict(POPULATION, cells=dict(POPULATION["cells"],
                                                            **{"2,0": CELL}))}, []),
    ("bounds", {"bounds": {"checks": ["tvd_dominance"], "max_support": -1}}, []),
    ("bounds", {"bounds": {"checks": ["tvd_dominance"], "max_support": 0}}, []),
    ("bounds", {"bounds": {"checks": ["unbiased_equality"], "rate_threshold": -1}}, []),
    ("sweep", {"sweep": {"dc_bins": 0}}, []),
    ("sweep", {"sweep": {"dc_bins": -1}}, []),
], ids=["trials-zero", "trials-negative", "delta-out-of-range", "negative-seed",
        "negative-seed-flag", "negative-bootstrap-seed", "csv-extra-field",
        "csv-non-numeric", "csv-missing", "csv-fractional-label", "csv-empty",
        "csv-header-only", "sigma-squared-overflows",
        "sigma-squared-underflows", "n-beyond-memory", "seed-a-string", "n-a-string",
        "sigma-a-boolean", "sigma-a-numeric-string", "radius-a-string", "delta-a-string",
        "classifier-value-a-boolean", "classifier-bias-a-string", "tolerance-a-boolean",
        "sigma-u-a-string", "lambda-a-boolean", "step-size-a-string",
        "lambdas-entry-a-boolean", "eok-weights-numeric-strings",
        "classifier-weights-a-boolean-and-a-string", "grid-entry-a-string",
        "grid-entry-a-boolean", "grid-map-ragged", "out-not-a-string",
        "dataset-not-a-string", "dataset-a-list", "population-pi-s-a-string",
        "population-cell-key-not-integers", "population-mean-entry-a-string",
        "population-cov-a-string", "ba-n-anchors-negative", "ba-trials-negative",
        "population-numeric-strings", "population-booleans", "population-extra-cell",
        "tvd-max-support-negative", "tvd-max-support-zero", "rate-threshold-negative",
        "sweep-dc-bins-zero", "sweep-dc-bins-negative"])
def test_malformed_input_exits_two_without_report(tmp_path, capsys, command, extra, args):
    for name, text in BAD_CSV.items():
        (tmp_path / name).write_text(text)
    cfg = write_config(tmp_path, **extra)
    if "dataset" in extra:
        cfg_dict = json.loads(cfg.read_text())
        del cfg_dict["population"]
        cfg.write_text(json.dumps(cfg_dict))
    assert run([command, "--config", cfg, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "reports").exists()


def test_median_bandwidth_of_one_row_exits_two_with_one_line(tmp_path):
    """A median bandwidth needs two rows: a one-row dataset CSV exits 2 with
    one error line that says so, and numpy prints no warning first."""
    (tmp_path / "one-row.csv").write_text("z_0,z_1,s,y\n0.1,0.2,0,1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": "one-row.csv", "out": str(tmp_path / "reports"),
                               "kernel": {"family": "rbf", "sigma": "median"}}))
    proc = run_python(f"import sys; from fairmmd.cli import main; "
                      f"sys.exit(main(['eok', '--config', {str(cfg)!r}]))")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and "median heuristic needs >= 2 rows" in proc.stderr, \
        proc.stderr
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("command, extra, allowed", [
    ("eok", {"kernel": {"family": "poly"}}, "'rbf', 'laplacian', 'linear'"),
    ("eok", {"eok": {"method": "nope"}}, "'both', 'plugin', 'bootstrap'"),
    ("bounds", {"bounds": {"checks": ["ba_bounds", "nope"]}}, "'ba_bounds', 'calibration_chain'"),
    ("metrics", {"metrics": {"classifier": {"kind": "zzz"}}}, "'witness', 'constant'"),
], ids=["kernel-family", "eok-method", "bounds-check", "classifier-kind"])
def test_value_outside_a_fixed_set_names_the_allowed_values(tmp_path, capsys, command, extra,
                                                            allowed):
    assert run([command, "--config", write_config(tmp_path, **extra)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "; expected one of " in err and allowed in err, err


def test_inapplicable_check_exits_two(tmp_path):
    biased = dict(POPULATION, p_y_given_s=[[0.8, 0.2], [0.2, 0.8]])
    cfg = write_config(tmp_path, population=biased,
                       bounds={"checks": ["unbiased_equality"]})
    assert run(["bounds", "--config", cfg]) == 2


def test_json_format_prints_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["metrics", "--config", cfg, "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == load_report(tmp_path, "metrics")


def test_table_format_prints_rows(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["metrics", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "dp" in out and "sup_dp" in out


def test_generate_csv_embeds_hash(tmp_path):
    import hashlib

    cfg = write_config(tmp_path)
    assert run(["generate", "--config", cfg]) == 0
    report = load_report(tmp_path, "generate")
    digest = hashlib.sha256(Path(report["result"]["path"]).read_bytes()).hexdigest()
    assert digest == report["result"]["csv_sha256"]


COMMAND_CONFIGS = {
    "generate": {},
    "metrics": {},
    "eok": {},
    "bounds": {},
    "concentration": {"kernel": {"family": "linear", "radius": 9.1},
                      "concentration": {"grid": [[[1, 0], [0, 1]], [[1, 0], [0, 0]]],
                                        "n_grid": [100, 200], "trials": 10}},
    "train": {"train": {"lambda": 1.0, "steps": 10}},
    "sweep": {"train": {"steps": 10}, "sweep": {"lambdas": [0.0, 2.0]}},
}


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
def test_json_format_prints_the_written_report(tmp_path, capsys, command):
    cfg = write_config(tmp_path, **COMMAND_CONFIGS[command])
    assert run([command, "--config", cfg, "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == load_report(tmp_path, command)


def test_command_failing_after_work_writes_no_report(tmp_path, capsys):
    """The malformed tvd tolerance is refused when the options are read,
    before the biased floor is computed: exit 2, with nothing written or
    printed even under --format json."""
    cfg = write_config(tmp_path, bounds={
        "checks": ["biased_lower_bound", "tvd_dominance"],
        "tolerances": {"tvd_dominance": "x"},
    })
    assert run(["bounds", "--config", cfg, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "reports").exists()


def test_training_that_leaves_the_linear_ball_exits_two(tmp_path, capsys):
    """A sweep whose training steps out of the linear kernel's ball stops
    at that step: exit 2, one stderr line naming the training, no report."""
    cfg = write_config(tmp_path, n=600, kernel={"family": "linear", "radius": 10},
                       train={"steps": 20, "batch": 128})
    assert run(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: training step ") and err.count("\n") == 1, err
    assert "train.step_size" in err
    assert not (tmp_path / "reports").exists()


def _eok_on_csv(name, field, **extra):
    """A row of BEFORE_WORK, ``eok-<name>``: ``eok`` on a dataset CSV with
    one malformed option, which names ``field``."""
    return pytest.param("eok", dict(extra, dataset="data.csv"), field, id=f"eok-{name}")


# One malformed option per command, which each row's last entry names; all
# but the sweep's were once read only after rows were drawn or a kernel pass
# was made.  The bounds tolerance is of a check that is not requested; the
# concentration radius was once refused without its name.  The rows after
# them are ``eok`` runs on a dataset CSV whose kernel parameter (out of its
# family's range), mixture weights or bootstrap draw count was once refused
# only after the CSV was read, and the draw counts also only after the
# plug-in's pass.  The last six, a negative lambda among the sweep's, a
# training step size (negative or NaN) or lambda out of range, and a
# concentration delta or sample-size grid that the certificate refuses, were
# once refused only after rows were drawn, training runs ran or a radius was
# suggested; the NaN step size was once refused only when training diverged.
BEFORE_WORK = [
    pytest.param("generate", {"out": 5}, "out", id="generate"),
    pytest.param("metrics", {"metrics": {"bins": "x"}}, "bins", id="metrics"),
    pytest.param("eok", {"dataset": "data.csv", "eok": {"m0": "x"}}, "m0", id="eok"),
    pytest.param("bounds", {"bounds": {"checks": ["biased_lower_bound"],
                                       "tolerances": {"tvd_dominance": "x"}}},
                 "tvd_dominance", id="bounds"),
    pytest.param("concentration", {"concentration": {"grid": GRID, "g_trials": "x"}},
                 "g_trials", id="concentration"),
    pytest.param("concentration", {"concentration": {"grid": GRID, "radius": 0}}, "radius",
                 id="concentration-radius-0"),
    pytest.param("train", {"train": {"steps": "x"}}, "steps", id="train"),
    pytest.param("sweep", {"sweep": {"dc_bins": "x"}}, "dc_bins", id="sweep"),
    *(_eok_on_csv(f"{family}-sigma-{sigma}", "sigma", kernel={"family": family, "sigma": sigma})
      for family, sigma in (("rbf", -1), ("rbf", 0), ("rbf", 1e-200),
                            ("laplacian", -2), ("laplacian", 1e-320))),
    *(_eok_on_csv(f"linear-radius-{radius}", "radius",
                  kernel={"family": "linear", "radius": radius})
      for radius in (-1, 0)),
    _eok_on_csv("m0-0", "m0", eok={"m0": 0}),
    _eok_on_csv("m1--3", "m1", eok={"m1": -3}),
    _eok_on_csv("one-weight", "weights", eok={"weights": [0.5]}),
    _eok_on_csv("weights-not-summing-to-1", "weights", eok={"weights": [0.7, 0.7]}),
    pytest.param("sweep", {"n": 2000, "sweep": {"lambdas": [0, 0.1, 1, -1]}}, "lambdas",
                 id="sweep-negative-lambda"),
    pytest.param("train", {"train": {"step_size": -0.5}}, "step_size", id="train-step-size"),
    pytest.param("train", {"train": {"step_size": float("nan")}}, "step_size",
                 id="train-step-size-nan"),
    pytest.param("train", {"train": {"lambda": -1}}, "lambda", id="train-negative-lambda"),
    *(pytest.param(command, {"train": {"init_scale": scale}}, "init_scale",
                   id=f"{command}-init-scale-{scale}")
      for command, scale in (("train", float("nan")), ("train", float("inf")),
                             ("sweep", float("-inf")))),
    pytest.param("concentration", {"concentration": {"grid": GRID, "delta": 2}}, "delta",
                 id="concentration-delta"),
    pytest.param("concentration", {"concentration": {"grid": GRID, "n_grid": [100, 7]}},
                 "n_grid", id="concentration-n-grid"),
]


@pytest.mark.parametrize("command, extra, field", BEFORE_WORK)
def test_malformed_option_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                     extra, field):
    """Every command reads all of its options before it reads a CSV, draws
    rows, makes a kernel pass or writes a file, and the error names the
    malformed field."""
    from fairmmd import cli, kernels, mmd

    def no_work(*args, **kwargs):
        raise AssertionError("work started before every option was read")

    for module, name in [(kernels, "_matmul_unchecked"), (mmd, "_matmul_unchecked"),
                         (cli, "sample_population"), (cli, "read_csv"),
                         (cli, "median_heuristic"), (cli, "suggest_radius"),
                         (cli, "concentration_check"), (cli, "train"), (cli, "lambda_sweep")]:
        monkeypatch.setattr(module, name, no_work)
    cfg = write_config(tmp_path, **extra)
    if "dataset" in extra:
        cfg_dict = json.loads(cfg.read_text())
        del cfg_dict["population"]
        cfg.write_text(json.dumps(cfg_dict))
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f'"{field}"' in err, err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("command, extra, field", [
    ("bounds", {"bounds": {"checks": ["tvd_dominance"], "max_support": -1}}, "max_support"),
    ("bounds", {"bounds": {"checks": ["unbiased_equality"], "rate_threshold": -1}},
     "rate_threshold"),
    ("sweep", {"sweep": {"dc_bins": 0}}, "dc_bins"),
    ("bounds", {"bounds": {"trials": -1}}, "trials"),
    ("bounds", {"bounds": {"n_anchors": 0}}, "n_anchors"),
    ("concentration", {"concentration": {"grid": [[[1, 0], [0, 1]]], "trials": 0}}, "trials"),
    ("concentration", {"concentration": {"grid": [[[1, 0], [0, 1]]], "g_trials": 1}},
     "g_trials"),
    ("metrics", {"metrics": {"bins": 0}}, "bins"),
    ("train", {"train": {"steps": 0}}, "steps"),
    ("train", {"train": {"encoder_dim": 0}}, "encoder_dim"),
    ("sweep", {"train": {"batch": 7}}, "batch"),
], ids=["max-support", "rate-threshold", "dc-bins", "bounds-trials", "n-anchors",
        "concentration-trials", "g-trials", "bins", "steps", "encoder-dim", "batch"])
def test_out_of_range_option_names_its_field_before_any_work(tmp_path, capsys, monkeypatch,
                                                             command, extra, field):
    """A count or threshold below its range is a malformed option: the error
    names the field and its range, and no rows are drawn and no training
    runs first."""
    from fairmmd import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before every option was read")

    for name in ("sample_population", "read_csv", "lambda_sweep"):
        monkeypatch.setattr(cli, name, no_work)
    assert run([command, "--config", write_config(tmp_path, **extra)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f'"{field}"' in err and "expected a value >= " in err, err


@pytest.mark.parametrize("field, value", [
    ("sigma_u", -1.0), ("sigma_u", 0.0), ("sigma_y", 1e-170), ("sigma_y", 1e308),
], ids=["sigma-u-negative", "sigma-u-zero", "sigma-y-reciprocal-overflows",
        "sigma-y-square-overflows"])
def test_calibration_bandwidth_names_its_field_before_any_work(tmp_path, capsys, monkeypatch,
                                                               field, value):
    """A calibration-chain bandwidth that the rbf kernel refuses is a
    malformed option: the error names the field, and no rows are read
    first."""
    from fairmmd import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before every option was read")

    monkeypatch.setattr(cli, "sample_population", no_work)
    assert run(["bounds", "--config", write_config(tmp_path, bounds={field: value})]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f'bounds "{field}"' in err and "sigma must" in err, err


@pytest.mark.parametrize("command, extra", [
    ("bounds", {"bounds": {"checks": ["biased_lower_bound"], "trials": -1, "n_anchors": 0,
                           "rate_threshold": -1, "max_support": 0, "sigma_u": -1,
                           "sigma_y": 0}}),
    ("concentration", {"n": 0, "concentration": {"grid": GRID, "n_grid": [20, 40],
                                                 "trials": 3, "g_trials": 4}}),
    ("metrics", {"n": 0, "dataset": "data.csv"}),
    ("eok", {"eok": {"method": "plugin", "m0": 0, "m1": -3}}),
], ids=["bounds-unselected-checks", "concentration-n", "dataset-n", "eok-plugin-draws"])
def test_option_out_of_range_is_refused_only_where_it_is_used(tmp_path, command, extra):
    """A command refuses an option's range only where it reads the option:
    the "bounds" options of checks it does not run, ``n`` for a dataset CSV
    or for "concentration", and the bootstrap draw counts of a plug-in
    ``eok``, may hold any integer."""
    from fairmmd.synth import population_from_dict, sample_population, write_csv

    write_csv(sample_population(population_from_dict(POPULATION), 200, 0), tmp_path / "data.csv")
    cfg = write_config(tmp_path, **extra)
    if "dataset" in extra:
        cfg_dict = json.loads(cfg.read_text())
        del cfg_dict["population"]
        cfg.write_text(json.dumps(cfg_dict))
    assert run([command, "--config", cfg]) in (0, 1)


def test_help_describes_every_command(capsys):
    """``fairmmd --help`` shows each command with the description of the
    module docstring's table, which is also the command's docstring."""
    from fairmmd import cli

    table = cli.__doc__.split("-----------\n")[1].split("\n\n")[0]
    described = dict(line.split(None, 1) for line in table.splitlines())
    assert sorted(described) == sorted(cli._COMMANDS)
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for name, fn in cli._COMMANDS.items():
        assert fn.__doc__ == described[name]
        assert f"{name} {described[name]}" in out


def test_generate_reports_empty_cells(tmp_path):
    """A draw with an empty S-group is a valid dataset: generate reports its
    zero cells instead of refusing it after writing the CSV."""
    cfg = write_config(tmp_path, seed=1, n=5, population=dict(POPULATION, pi_s=0.001))
    assert run(["generate", "--config", cfg]) == 0
    report = load_report(tmp_path, "generate")
    jsonschema.validate(report, SCHEMA)
    counts = report["result"]["cell_counts"]
    assert counts["1,0"] == counts["1,1"] == 0
    assert counts["0,0"] + counts["0,1"] == 5


def test_sweep_with_one_lambda_reports_null_spearman(tmp_path, capsys):
    """With one lambda the rank correlation is undefined: the report holds
    null (valid JSON, unlike NaN) and the table says so."""
    cfg = write_config(tmp_path, n=120, seed=0, train={"steps": 5},
                       sweep={"lambdas": [1.0]})
    assert run(["sweep", "--config", cfg]) == 0
    text = (tmp_path / "reports" / "sweep.json").read_text()
    report = json.loads(text, parse_constant=lambda token: pytest.fail(f"{token} in report"))
    jsonschema.validate(report, SCHEMA)
    assert report["result"]["spearman_lambda_eok2"] is None
    assert "spearman(lambda, eok2) = undefined" in capsys.readouterr().out


def test_spearman_matches_scipy_bit_for_bit():
    """The sweep's rank correlation has the bits of scipy's spearmanr on
    short sequences with ties, and is None where scipy gives NaN (constant
    sequences, NaN entries, fewer than two pairs)."""
    import warnings

    from scipy.stats import spearmanr

    from fairmmd.cli import _spearman

    rng = np.random.default_rng(2024)
    undefined = 0
    for trial in range(10_000):
        n = int(rng.integers(1, 15))
        a = rng.integers(0, int(rng.integers(1, 6)), n) * rng.choice([1.0, 0.1, -3.7])
        b = rng.integers(0, int(rng.integers(1, 8)), n) + rng.choice([0.0, 0.5]) * rng.normal(size=n)
        if trial % 50 == 0:
            a[rng.integers(n)] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = float(spearmanr(a, b).statistic)
        got = _spearman(a, b)
        if np.isnan(want):
            undefined += 1
            assert got is None, (a, b)
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (a, b)
    assert 1000 < undefined < 9000


def test_import_loads_no_scipy():
    proc = run_python(
        "import sys, fairmmd, fairmmd.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def package_modules(prefix="") -> str:
    """Code that prints, as its last line of output, the JSON list of the
    package modules loaded so far, with ``prefix`` run first."""
    return (prefix + "import json, sys\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'fairmmd')))\n")


def test_import_loads_no_module_and_star_import_binds_every_name():
    """``import fairmmd`` loads none of its modules; ``from fairmmd import *``
    then binds every name of ``fairmmd.__all__``."""
    proc = run_python(package_modules("import fairmmd\n")
                      + "ns = {}\nexec('from fairmmd import *', ns)\n"
                      + "print(json.dumps(sorted(set(fairmmd.__all__) - set(ns))))\n")
    assert proc.returncode == 0, proc.stderr
    loaded, unbound = map(json.loads, proc.stdout.splitlines()[-2:])
    assert loaded == ["fairmmd"]
    assert unbound == []


# The package modules each command loads when it runs cold, besides the
# package, fairmmd.cli and the modules every command needs.
EVERY_COMMAND = {"fairmmd", "fairmmd.cli", "fairmmd._rng", "fairmmd.errors", "fairmmd.synth"}
COMMAND_MODULES = {
    "generate": set(),
    "metrics": {"kernels", "mmd", "fairness"},
    "eok": {"kernels", "mmd", "eok"},
    "bounds": {"kernels", "mmd", "eok", "fairness", "bounds"},
    "concentration": {"kernels", "mmd", "eok", "complexity"},
    "train": {"kernels", "mmd", "eok", "fairness", "frl"},
    "sweep": {"kernels", "mmd", "eok", "fairness", "frl"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_the_modules_it_runs(tmp_path, command):
    """A command run cold, its options checked and its work done, has loaded
    no package module beyond those it calls into."""
    cfg = write_config(tmp_path, n=200, bounds={"trials": 3}, train={"steps": 3},
                       sweep={"lambdas": [0.0, 1.0]},
                       concentration={"grid": GRID, "n_grid": [20, 40], "trials": 3,
                                      "g_trials": 4})
    proc = run_python(package_modules(
        "from fairmmd import cli\n"
        f"assert cli.main([{command!r}, '--config', {str(cfg)!r}]) in (0, 1)\n"))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert set(loaded) == EVERY_COMMAND | {f"fairmmd.{m}" for m in COMMAND_MODULES[command]}


def test_generate_and_linear_concentration_run_without_scipy(tmp_path):
    """With every scipy import made to fail, the data path and the linear
    concentration certificate still run to exit 0."""
    cfg = write_config(tmp_path, n=40, kernel={"family": "linear", "radius": 9.1},
                       concentration={"grid": GRID, "n_grid": [20, 40], "trials": 3,
                                      "g_trials": 4})
    proc = run_python(
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
        "from fairmmd.cli import main\n"
        f"codes = [main([cmd, '--config', {str(cfg)!r}]) for cmd in ('generate', 'concentration')]\n"
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        "sys.exit(max(codes))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "reports" / "generate.json").exists()
    assert (tmp_path / "reports" / "concentration.json").exists()
