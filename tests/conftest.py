import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairmmd import (
    CellGaussian,
    PopulationSpec,
    kernel_sum,
    laplacian,
    linear,
    product,
    rbf,
    sample_population,
)
from fairmmd._rng import rng_for
from fairmmd.kernels import TILE

# One spec per kernel family, for checks of the streamed paths against dense
# kernel matrices; rows have d = 3, so the product kernel splits 1 + 2.
STREAMED_SPECS = {
    "rbf": rbf(0.8),
    "laplacian": laplacian(1.3),
    "linear": linear(50.0),
    "product": product(rbf(1.0), laplacian(2.0), split=1),
    "kernel_sum": kernel_sum(linear(50.0), rbf(0.7)),
}
# Below, at and just over one tile.
STREAMED_SIZES = (57, TILE, TILE + 37)


def assert_matches_dense(got, want):
    """Agreement with a dense reference to 1e-12, relative to its largest entry."""
    assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.fixture
def dense_oracle():
    """``dense_oracle(fn, *args)`` runs ``fn(*args)`` with every kernel pass
    made densely: ``_matmul_unchecked`` in ``fairmmd.kernels``, ``mmd`` and
    ``eok`` becomes ``pairwise(spec, A, B) @ M``, whatever its groups and its
    reduction.  ``dense_oracle.sites`` collects (file name, line) of every
    frame inside the package on the stack at each dense pass, so a test can
    see which call sites ran under it."""
    from fairmmd import eok, kernels, mmd

    package = os.path.dirname(kernels.__file__)

    def dense(spec, A, B, M, groups=None, *, row_stable=True):
        frame = sys._getframe(1)
        while frame is not None:
            if os.path.dirname(frame.f_code.co_filename) == package:
                oracle.sites.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
            frame = frame.f_back
        return kernels.pairwise(spec, A, B) @ M

    def oracle(fn, *args, **kw):
        with pytest.MonkeyPatch.context() as mp:
            for module in (kernels, mmd, eok):
                mp.setattr(module, "_matmul_unchecked", dense)
            return fn(*args, **kw)

    oracle.sites = set()
    return oracle


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports fairmmd from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def make_population(pi_s=0.5, p=((0.5, 0.5), (0.5, 0.5)), means=None, var=0.25, dim=2):
    """Four Gaussian cells with isotropic covariance; means default to a
    well-separated layout used across the suite."""
    if means is None:
        means = {(0, 0): [0.0, 0.0], (0, 1): [1.5, 0.0],
                 (1, 0): [0.6, 0.8], (1, 1): [2.0, 0.5]}
    cells = {
        cell: CellGaussian(np.asarray(mu, dtype=float), var * np.eye(dim))
        for cell, mu in means.items()
    }
    return PopulationSpec(pi_s=pi_s, p_y_given_s=np.asarray(p, dtype=float), cells=cells)


def masked_sample(spec, n, seed):
    """Reference sampler: the same draws, pushed through each cell's
    Cholesky factor (computed on the spot) one boolean mask at a time."""
    rng = rng_for(seed)
    s = (rng.random(n) < spec.pi_s).astype(np.int64)
    y = (rng.random(n) < spec.p_y_given_s[s, 1]).astype(np.int64)
    eps = rng.standard_normal((n, spec.dim))
    z = np.empty((n, spec.dim))
    for (cs, cy), cell in spec.cells.items():
        mask = (s == cs) & (y == cy)
        L = np.linalg.cholesky(cell.cov + 1e-12 * np.eye(spec.dim))
        z[mask] = cell.mean + eps[mask] @ L.T
    return z, s, y


def random_population(rng, biased=False, dim=2, spread=2.0, var_range=(0.1, 0.5)):
    """Random well-posed population; biased=True forces an outcome-rate gap
    of at least 0.15 between the groups."""
    means = {cell: rng.uniform(-spread, spread, size=dim)
             for cell in ((0, 0), (0, 1), (1, 0), (1, 1))}
    var = rng.uniform(*var_range)
    if biased:
        a = rng.uniform(0.2, 0.4)
        b = a + rng.uniform(0.15, 0.4)
    else:
        a = b = rng.uniform(0.3, 0.7)
    p = ((1.0 - a, a), (1.0 - b, b))
    return make_population(pi_s=rng.uniform(0.35, 0.65), p=p, means=means,
                           var=var, dim=dim)


@pytest.fixture
def unbiased_pop():
    return make_population()


@pytest.fixture
def biased_pop():
    return make_population(p=((0.7, 0.3), (0.3, 0.7)))


@pytest.fixture
def small_data(unbiased_pop):
    return sample_population(unbiased_pop, 160, seed=11)
