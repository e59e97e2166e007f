"""Each CLI path against the library call it stands for, on the same rows.

The commands' reports must carry exactly the numbers of the public API:
every classifier kind of ``metrics``, the linear kernel in each command that
takes a ``kernel`` section, and the TV check on a CSV with few distinct rows.
"""

import dataclasses
import json

import numpy as np
import pytest

from fairmmd.bounds import check_ba_bounds, check_biased_lower_bound, check_tvd_dominance
from fairmmd.cli import main
from fairmmd.eok import eok_hat_bootstrap, eok_hat_plugin
from fairmmd.fairness import (
    GROUP_CELLS,
    balanced_accuracy,
    constant_classifier,
    dc,
    dnc,
    dodds,
    dopp,
    dp,
    dpc,
    dr,
    external_scores_classifier,
    logistic_head_classifier,
    sup_dp,
    witness_scores,
)
from fairmmd.frl import TrainConfig, lambda_sweep, train
from fairmmd.kernels import linear, rbf
from fairmmd.mmd import cell_sums
from fairmmd.synth import (
    LabeledDataset,
    population_from_dict,
    read_csv,
    sample_population,
    write_csv,
)

SEED, N, RADIUS = 3, 300, 9.1
POPULATION = {
    "pi_s": 0.4,
    "p_y_given_s": [[0.6, 0.4], [0.3, 0.7]],
    "cells": {
        "0,0": {"mean": [0.0, 0.0], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "0,1": {"mean": [1.5, 0.0], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "1,0": {"mean": [0.6, 0.8], "cov": [[0.25, 0.0], [0.0, 0.25]]},
        "1,1": {"mean": [2.0, 0.5], "cov": [[0.25, 0.0], [0.0, 0.25]]},
    },
}
LINEAR = {"family": "linear", "radius": RADIUS}


def run_command(tmp_path, command, **cfg):
    """Run ``command`` on the sampled population (or on ``cfg["dataset"]``
    when given) and return its report's result."""
    cfg = dict({"seed": SEED, "n": N, "out": str(tmp_path / "reports"),
                "kernel": {"family": "rbf", "sigma": 1.0}}, **cfg)
    if "dataset" not in cfg:
        cfg["population"] = POPULATION
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 0
    return json.loads((tmp_path / "reports" / f"{command}.json").read_text())["result"]


def as_json(obj):
    """``obj`` as a report holds it, numpy values as lists and numbers."""
    return json.loads(json.dumps(obj, default=lambda value: value.tolist()))


def kernel_dict(spec):
    return {k: v for k, v in dataclasses.asdict(spec).items() if v is not None}


def sampled_rows():
    return sample_population(population_from_dict(POPULATION), N, SEED)


def library_metrics(h, spec, data, bins):
    return {
        "dp": dp(h, data), "dopp": dopp(h, data), "dr": dr(h, data), "dodds": dodds(h, data),
        "dpc": dpc(h, data, bins), "dnc": dnc(h, data, bins), "dc": dc(h, data, bins),
        "balanced_accuracy_s": balanced_accuracy(h, data, "s"),
        "balanced_accuracy_y": balanced_accuracy(h, data, "y"),
        "sup_dp": sup_dp(spec, data),
    }


@pytest.mark.parametrize("classifier, h", [
    ({"kind": "constant", "value": 0.3}, constant_classifier(0.3)),
    ({"kind": "logistic_head", "weights": [1.0, -0.5], "bias": 0.2},
     logistic_head_classifier([1.0, -0.5], 0.2)),
], ids=["constant", "logistic-head"])
def test_metrics_of_a_classifier_match_the_library(tmp_path, classifier, h):
    result = run_command(tmp_path, "metrics", metrics={"classifier": classifier, "bins": 5})
    assert result["classifier_kind"] == classifier["kind"]
    assert result["metrics"] == library_metrics(h, rbf(1.0), sampled_rows(), 5)


def test_metrics_of_external_scores_match_the_library(tmp_path):
    """The ``score`` column of a dataset CSV is the classifier's output."""
    data = sampled_rows()
    scores = np.random.default_rng(7).uniform(size=data.n)
    write_csv(data, tmp_path / "scored.csv", scores)
    result = run_command(tmp_path, "metrics", dataset="scored.csv",
                         metrics={"classifier": {"kind": "external_scores"}})
    rows, csv_scores = read_csv(tmp_path / "scored.csv")
    h = external_scores_classifier(csv_scores)
    assert result["classifier_kind"] == "external_scores"
    assert result["metrics"] == library_metrics(h, rbf(1.0), rows, None)


def test_linear_metrics_match_the_library(tmp_path):
    result = run_command(tmp_path, "metrics", kernel=LINEAR)
    data, spec = sampled_rows(), linear(RADIUS)
    t = witness_scores(cell_sums(spec, data), GROUP_CELLS[1], GROUP_CELLS[0])
    assert result["kernel"] == kernel_dict(spec)
    assert result["metrics"] == library_metrics(external_scores_classifier(t), spec, data, None)


def test_linear_eok_matches_the_library(tmp_path):
    result = run_command(tmp_path, "eok", kernel=LINEAR, eok={"m0": 150, "m1": 120})
    data, spec = sampled_rows(), linear(RADIUS)
    assert result["plugin"] == as_json(dataclasses.asdict(eok_hat_plugin(spec, data)))
    boot = eok_hat_bootstrap(spec, data, m0=150, m1=120, seed=SEED)
    assert result["bootstrap"] == as_json(dataclasses.asdict(boot))


def test_linear_bounds_match_the_library(tmp_path):
    result = run_command(tmp_path, "bounds", kernel=LINEAR,
                         bounds={"checks": ["biased_lower_bound", "ba_bounds"], "trials": 5,
                                 "n_anchors": 20})
    data, spec = sampled_rows(), linear(RADIUS)
    reports = [check_biased_lower_bound(spec, data, tol=0.03),
               *check_ba_bounds(spec, data, trials=5, tol=0.01, seed=SEED, n_anchors=20)]
    assert result["clauses"] == as_json([r.as_dict() for r in reports])
    assert result["all_hold"] is True


def test_linear_train_matches_the_library(tmp_path):
    result = run_command(tmp_path, "train", kernel=LINEAR, train={"steps": 6, "batch": 64})
    res = train(sampled_rows(), TrainConfig(kernel=linear(RADIUS), seed=SEED, steps=6, batch=64))
    assert result["trace"] == as_json({"sup": res.sup_trace, "penalty": res.penalty_trace,
                                       "total": res.total_trace})
    assert result["encoder"] == as_json(res.encoder)
    assert result["head"] == as_json({"weights": res.head_w, "bias": res.head_b})


def test_linear_sweep_matches_the_library(tmp_path):
    result = run_command(tmp_path, "sweep", kernel=LINEAR, train={"steps": 4},
                         sweep={"lambdas": [0.0, 2.0]})
    config = TrainConfig(kernel=linear(RADIUS), seed=SEED, steps=4)
    res = lambda_sweep(population_from_dict(POPULATION), [0.0, 2.0], config, n=N, seed=SEED)
    assert result["rows"] == as_json(res.as_dict()["rows"])
    assert result["kernel"] == kernel_dict(linear(RADIUS))


def test_tvd_bounds_on_few_distinct_rows_match_the_library(tmp_path):
    """A CSV whose rows take nine distinct values admits the exact TV check."""
    rng = np.random.default_rng(11)
    s, y = rng.integers(0, 2, (2, 200))
    z = rng.integers(0, 3, (200, 2)) + 0.5 * s[:, None]
    write_csv(LabeledDataset(z=z.astype(float), s=s, y=y), tmp_path / "atoms.csv")
    result = run_command(tmp_path, "bounds", dataset="atoms.csv",
                         bounds={"checks": ["tvd_dominance"], "max_support": 18})
    rows, _ = read_csv(tmp_path / "atoms.csv")
    report = check_tvd_dominance(rbf(1.0), rows, tol=1e-9, max_support=18)
    assert result["clauses"] == as_json([report.as_dict()])
    assert result["all_hold"] is True
