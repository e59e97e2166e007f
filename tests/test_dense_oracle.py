"""Every statistic that makes a kernel pass, against the same statistic with
every pass made densely (the ``dense_oracle`` fixture).

One case per kernel family of ``STREAMED_SPECS`` and per size: below one
tile, one tile, just over one tile, and just over two tiles, where a square
pass splits across two workers when two CPUs are allowed.  Vectors agree to
1e-12 relative to their largest entry; a scalar agrees to 1e-12 relative to
the larger of its dense value and 1e-3 nu, since a statistic near 0 has no
relative digits.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from fairmmd import (
    LabeledDataset,
    TrainConfig,
    check_ba_bounds,
    check_biased_lower_bound,
    check_calibration_chain,
    check_tvd_dominance,
    eok_gradient_plugin,
    eok_hat_bootstrap,
    eok_hat_plugin,
    gamma_biased,
    kernels,
    mmd2_biased,
    mmd2_unbiased,
    objective_gradient,
    random_ball_classifier,
    sample_population,
    sup_dp,
    witness_classifier,
    witness_eval,
)
from fairmmd.fairness import GROUP_CELLS, evaluate_batch, witness_scores
from fairmmd.kernels import TILE
from fairmmd.mmd import cell_sums
from conftest import STREAMED_SPECS, assert_matches_dense, random_population

SIZES = (57, TILE, TILE + 37, 2 * TILE + 5)
# The families whose plug-in penalty has a gradient.
GRADIENT_FAMILIES = ("rbf", "linear")


def _rows(n: int) -> tuple:
    """Rows, groups and outcomes of a biased d = 3 population, and of a
    dataset on 40 atoms for the total-variation clause."""
    data = sample_population(random_population(np.random.default_rng(31), biased=True, dim=3),
                             n, seed=32)
    rng = np.random.default_rng(33)
    atoms = rng.normal(size=(40, 3))
    s = rng.integers(0, 2, size=n)
    ids = np.where(s == 0, rng.integers(0, 30, size=n), rng.integers(10, 40, size=n))
    return (data.z, data.s, data.y), (atoms[ids], s, rng.integers(0, 2, size=n))


def _statistics(family: str, rows: tuple, atom_rows: tuple) -> dict:
    """Every statistic that makes a kernel pass, on fresh datasets (so none
    reads cell sums that another run kept)."""
    spec = STREAMED_SPECS[family]
    data, atoms = LabeledDataset(*rows), LabeledDataset(*atom_rows)
    A, B = data.z[data.s == 0], data.z[data.s == 1]
    rng = np.random.default_rng(34)
    W, w = rng.normal(scale=0.4, size=(3, 3)), rng.normal(size=3)
    out = {
        "eok plug-in": eok_hat_plugin(spec, data).eok2,
        "eok bootstrap": eok_hat_bootstrap(spec, data, seed=4).eok2,
        "sup_dp": sup_dp(spec, data),
        "witness scores": witness_scores(cell_sums(spec, data), GROUP_CELLS[1], GROUP_CELLS[0]),
        "mmd2_unbiased": mmd2_unbiased(spec, A, B).mmd2,
        "mmd2_biased": mmd2_biased(spec, A, B).mmd2,
        "gamma_biased": gamma_biased(spec, A, B),
        "witness_eval": witness_eval(spec, A, B, data.z),
        "witness classifier": evaluate_batch(witness_classifier(spec, B, A), data.z),
        "random ball classifier": evaluate_batch(random_ball_classifier(spec, data.z[:40], 5),
                                                 data.z),
        "penalty, lambda 0": objective_gradient(
            data, W, w, 0.1, TrainConfig(kernel=spec, lam=0.0, encoder_dim=3)).penalty,
    }
    reports = (check_biased_lower_bound(spec, data),
               *check_ba_bounds(spec, data, trials=4, seed=3, n_anchors=data.n // 2 + 1),
               *check_calibration_chain(spec, data),
               check_tvd_dominance(spec, atoms))
    for rep in reports:
        out[rep.name + " lhs"], out[rep.name + " rhs"] = rep.lhs, rep.rhs
    if family in GRADIENT_FAMILIES:
        out["eok gradient"] = eok_gradient_plugin(spec, data, W)
        ev = objective_gradient(data, W, w, 0.1, TrainConfig(kernel=spec, lam=1.5, encoder_dim=3))
        out["penalty, lambda 1.5"], out["encoder gradient, lambda 1.5"] = ev.penalty, ev.d_encoder
    return out


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_statistics_match_the_dense_oracle(dense_oracle, family, n):
    rows, atom_rows = _rows(n)
    got = _statistics(family, rows, atom_rows)
    want = dense_oracle(_statistics, family, rows, atom_rows)
    assert got.keys() == want.keys()
    floor = 1e-3 * STREAMED_SPECS[family].nu
    for name, value in want.items():
        if np.ndim(value):
            assert_matches_dense(got[name], value)
        else:
            assert abs(got[name] - value) <= 1e-12 * max(abs(value), floor), (name, got[name], value)


def test_every_pass_call_site_runs_under_the_oracle(dense_oracle):
    """Each call of ``_matmul_unchecked`` or ``kernel_matmul`` in the package
    source ran under the oracle in one rbf case, so the statistics above
    leave no pass unchecked."""
    dense_oracle(_statistics, "rbf", *_rows(57))
    package = Path(kernels.__file__).parent
    sites = [(path.name, node.lineno, node.end_lineno)
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("_matmul_unchecked", "kernel_matmul")]
    missed = [(name, first) for name, first, last in sites
              if not any(f == name and first <= line <= last for f, line in dense_oracle.sites)]
    assert len(sites) >= 8 and not missed, missed
