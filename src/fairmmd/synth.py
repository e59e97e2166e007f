"""Synthetic populations with analytically known fairness statistics.

A population is a joint law over (Z, S, Y) with binary group label S and
binary outcome Y: S ~ Bernoulli(pi_s), Y | S=s ~ Bernoulli(p_y_given_s[s, 1]),
and Z | S=s, Y=y Gaussian with the (s, y) cell's mean and covariance.
Gaussian cells are the one conditional family for which both oracle values
below have closed forms, which is what makes the estimator tests in this
package ground-truthed rather than self-referential:

* :func:`analytic_eok2_linear` — the population squared kernel discrepancy
  between the outcome-reweighted group mixtures under a linear kernel, which
  collapses to the squared distance of the weighted cell-mean differences.
* :func:`analytic_mmd2_rbf_gaussians` — the population squared MMD between
  two Gaussians under an rbf kernel, via the standard Gaussian integral
  E exp(-||D||^2 / (2 sigma^2)) = det(I + Cov/sigma^2)^(-1/2)
  * exp(-mu' (sigma^2 I + Cov)^(-1) mu / 2) for D ~ N(mu, Cov).

Datasets are kept as a flat (z, s, y) triple of read-only arrays, with each
row's (s, y) cell and the cell sizes worked out once; CSV round-trips use the
column layout ``z_0,...,z_{d-1},s,y`` with an optional trailing ``score``
column for externally supplied classifier scores.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._rng import rng_for
from .errors import NormalizationError, ValidationError

__all__ = [
    "CellGaussian",
    "PopulationSpec",
    "LabeledDataset",
    "sample_population",
    "analytic_eok2_linear",
    "analytic_mmd2_rbf_gaussians",
    "cell_rows",
    "write_csv",
    "read_csv",
    "population_to_dict",
    "population_from_dict",
]

CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class CellGaussian:
    """Gaussian conditional law of Z inside one (s, y) cell.

    The Cholesky factor of ``cov + 1e-12 I`` that :func:`sample_population`
    pushes standard normals through is computed once, here.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ValidationError("cell mean must be a 1-d vector")
        if cov.shape != (mean.size, mean.size):
            raise ValidationError(
                f"cell covariance must be ({mean.size}, {mean.size}), got {cov.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValidationError("cell parameters must be finite")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValidationError("cell covariance must be symmetric")
        # eigvalsh reads the lower triangle, as the Cholesky factor below
        # does, so no symmetrizing sum (which overflows near the float range).
        if np.linalg.eigvalsh(cov).min() <= 0.0:
            raise ValidationError("cell covariance must be positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", np.linalg.cholesky(cov + 1e-12 * np.eye(mean.size)))

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class PopulationSpec:
    """Full generative law: group rate, outcome rates per group, four cells.

    ``pi_s`` is P(S = 1).  ``p_y_given_s`` is a (2, 2) row-stochastic matrix
    with rows indexed by s and columns by y, so ``p_y_given_s[s, y]`` is
    P(Y = y | S = s).  ``cells`` maps each (s, y) pair to its Gaussian.
    """

    pi_s: float
    p_y_given_s: np.ndarray
    cells: dict

    def __post_init__(self):
        if not (np.isscalar(self.pi_s) and 0.0 < self.pi_s < 1.0):
            raise ValidationError(f"pi_s must lie strictly in (0, 1), got {self.pi_s!r}")
        p = np.asarray(self.p_y_given_s, dtype=float)
        if p.shape != (2, 2) or not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ValidationError("p_y_given_s must be a nonnegative (2, 2) matrix")
        if not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
            raise NormalizationError(
                f"rows of p_y_given_s must sum to 1, got sums {p.sum(axis=1)}"
            )
        missing = [c for c in CELLS if c not in self.cells]
        if missing:
            raise ValidationError(f"population is missing cells {missing}")
        dims = {self.cells[c].dim for c in CELLS}
        if len(dims) != 1:
            raise ValidationError(f"all cells must share one dimension, got {sorted(dims)}")
        object.__setattr__(self, "p_y_given_s", p)

    @property
    def dim(self) -> int:
        return self.cells[(0, 0)].dim


@dataclass(frozen=True)
class LabeledDataset:
    """Rows (z_i, s_i, y_i) with z float (n, d) and s, y binary (n,).

    ``z``, ``s`` and ``y`` are read-only copies of the arrays given, so the
    caller's arrays stay writable and later changes to them do not reach the
    dataset.  ``cell[i] = 2 s_i + y_i`` (int8) is row i's (s, y) cell, in the
    order of :data:`CELLS`, and ``counts[c]`` the size of cell c; both are
    read-only too.  The dataset also keeps the per-cell kernel sums that
    :func:`fairmmd.mmd.cell_sums` computes for each kernel, keyed by the
    kernel spec, so every statistic read from them shares one kernel pass.
    """

    z: np.ndarray
    s: np.ndarray
    y: np.ndarray
    cell: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    _kernel_sums: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        z = np.array(self.z, dtype=float)
        s = np.asarray(self.s)
        y = np.asarray(self.y)
        if z.ndim != 2 or z.shape[0] == 0:
            raise ValidationError("z must be a non-empty (n, d) array")
        if not np.all(np.isfinite(z)):
            raise ValidationError("z contains non-finite entries")
        for name, lab in (("s", s), ("y", y)):
            if lab.shape != (z.shape[0],):
                raise ValidationError(f"{name} must be a length-n vector matching z")
            if not ((lab == 0) | (lab == 1)).all():
                raise ValidationError(f"{name} must be binary (0/1)")
        s, y = s.astype(np.int64), y.astype(np.int64)
        # int8 cells: a stable sort of them is a radix sort.
        cell = (2 * s + y).astype(np.int8)
        counts = np.bincount(cell, minlength=4)
        for name, arr in (("z", z), ("s", s), ("y", y), ("cell", cell), ("counts", counts)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def dim(self) -> int:
        return self.z.shape[1]


def cell_rows(data: LabeledDataset, s: int, y: int) -> np.ndarray:
    """Row indices of the (s, y) cell."""
    return np.flatnonzero(data.cell == 2 * s + y)


def sample_population(spec: PopulationSpec, n: int, seed: int) -> LabeledDataset:
    """Draw ``n`` i.i.d. rows (z, s, y) from the population.

    The draw order is fixed (all group labels, then all outcomes, then one
    block of standard normals), so a given (spec, n, seed) always yields the
    identical dataset.  Each row's normals are then pushed through its own
    cell's mean and Cholesky factor in one gathered product; with diagonal
    covariances that gives the same bits as a per-cell matrix product.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    u, eps = np.empty((2, n)), np.empty((n, spec.dim))
    _draw(rng_for(seed), u, eps)
    z, s, y = _rows(spec, u, eps)
    return LabeledDataset(z=z, s=s, y=y)


def _draw(rng: np.random.Generator, u: np.ndarray, eps: np.ndarray) -> None:
    """Fill one dataset's raw draws in their fixed order: ``u`` (2, n) takes
    a uniform per row for its group label, then one per row for its outcome,
    from one call; then ``eps`` takes the rows' standard normals."""
    rng.random(out=u)
    rng.standard_normal(out=eps)


def _rows(spec: PopulationSpec, u: np.ndarray, eps: np.ndarray):
    """Rows (z, s, y) from the raw draws of :func:`_draw`, for any number of
    datasets stacked along leading axes (``u`` of shape (..., 2, n), ``eps``
    of shape (..., n, dim)); every row is transformed alone, so a stacked
    dataset gets the bits it gets on its own."""
    s = (u[..., 0, :] < spec.pi_s).astype(np.int64)
    y = (u[..., 1, :] < spec.p_y_given_s[:, 1].take(s)).astype(np.int64)
    cid = (2 * s + y).ravel()
    means = np.stack([spec.cells[c].mean for c in CELLS])
    chols = np.stack([spec.cells[c]._chol for c in CELLS])
    # np.take gathers rows about twice as fast as fancy indexing here.
    z = means.take(cid, axis=0) + np.einsum(
        "ij,ikj->ik", eps.reshape(-1, spec.dim), chols.take(cid, axis=0))
    return z.reshape(eps.shape), s, y


def analytic_eok2_linear(spec: PopulationSpec) -> float:
    """Population squared equalized-odds discrepancy under a linear kernel.

    Both group mixtures are reweighted with the S=0 stratum's outcome rates
    ``w_y = p_y_given_s[0, y]``, so the linear-kernel discrepancy reduces to
    ``|| sum_y w_y (mean(0, y) - mean(1, y)) ||^2``.
    """
    w = spec.p_y_given_s[0]
    diff = sum(w[y] * (spec.cells[(0, y)].mean - spec.cells[(1, y)].mean) for y in (0, 1))
    return float(diff @ diff)


def _rbf_mean_embedding_ip(mu: np.ndarray, cov: np.ndarray, sigma: float) -> float:
    """E exp(-||D||^2/(2 sigma^2)) for D ~ N(mu, cov)."""
    d = mu.size
    s2 = sigma * sigma
    sign, logdet = np.linalg.slogdet(np.eye(d) + cov / s2)
    if sign <= 0:  # pragma: no cover - covariances are validated PSD
        raise ValidationError("covariance produced a non-PD scaling matrix")
    quad = float(mu @ np.linalg.solve(s2 * np.eye(d) + cov, mu))
    return float(np.exp(-0.5 * logdet - 0.5 * quad))


def analytic_mmd2_rbf_gaussians(g1: CellGaussian, g2: CellGaussian, sigma: float) -> float:
    """Closed-form squared MMD between two Gaussians under an rbf kernel.

    For X ~ g1 and Y ~ g2 the three expected kernel values are Gaussian
    integrals (see module docstring); the squared discrepancy is their
    usual combination E k(X,X') + E k(Y,Y') - 2 E k(X,Y).
    """
    if g1.dim != g2.dim:
        raise ValidationError("Gaussians must share a dimension")
    if not (np.isscalar(sigma) and sigma > 0):
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    zero = np.zeros(g1.dim)
    kxx = _rbf_mean_embedding_ip(zero, 2.0 * g1.cov, sigma)
    kyy = _rbf_mean_embedding_ip(zero, 2.0 * g2.cov, sigma)
    kxy = _rbf_mean_embedding_ip(g1.mean - g2.mean, g1.cov + g2.cov, sigma)
    return float(kxx + kyy - 2.0 * kxy)


# ---------------------------------------------------------------------------
# serialization


# Rows that write_csv formats in one operation: all of them up to 65536 rows,
# and beyond that blocks whose text and Python floats take about 12 MB (d = 2).
_CSV_BLOCK_ROWS = 1 << 16


def write_csv(data: LabeledDataset, path, scores: np.ndarray | None = None) -> None:
    """Write a dataset as ``z_0,...,z_{d-1},s,y[,score]`` with full precision."""
    cols = [f"z_{j}" for j in range(data.dim)] + ["s", "y"]
    table = [data.z, data.s, data.y]
    fmt = ["%.17g"] * data.dim + ["%d", "%d"]
    if scores is not None:
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (data.n,):
            raise ValidationError("scores must be one value per row")
        cols.append("score")
        table.append(scores)
        fmt.append("%.17g")
    table, row = np.column_stack(table), ",".join(fmt) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, data.n, _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            # One format operation over the block: the bytes np.savetxt
            # writes with the same formats, without its loop over the rows.
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_csv(path) -> tuple[LabeledDataset, np.ndarray | None]:
    """Read a dataset written by :func:`write_csv`.

    Returns the dataset and, when the file carries a trailing ``score``
    column, the score vector (otherwise None).  A file with no data rows
    (empty, or a header alone) is refused.
    """
    try:
        with open(path) as fh, warnings.catch_warnings():
            header = fh.readline().strip().split(",")
            # loadtxt warns on a file with no data rows, which is refused below.
            warnings.simplefilter("ignore", UserWarning)
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ValidationError(f"cannot read dataset CSV {path}: {exc.strerror}") from exc
    except ValueError as exc:
        # A row with a field too many or too few, or a field that is not a number.
        raise ValidationError(f"malformed dataset CSV {path}: {exc}") from exc
    if raw.shape[0] == 0:
        raise ValidationError(f"dataset CSV {path} has no data rows")
    has_score = header[-1] == "score"
    d = len(header) - 2 - (1 if has_score else 0)
    expected = [f"z_{j}" for j in range(d)] + ["s", "y"] + (["score"] if has_score else [])
    if header != expected or d < 1:
        raise ValidationError(
            f"unexpected CSV header {header}; expected z_0,...,z_{{d-1}},s,y[,score]"
        )
    if raw.shape[1] != len(header):
        raise ValidationError("CSV rows do not match header width")
    data = LabeledDataset(z=raw[:, :d], s=raw[:, d], y=raw[:, d + 1])
    if not has_score:
        return data, None
    scores = raw[:, -1].copy()
    if scores.min() < 0.0 or scores.max() > 1.0:
        raise ValidationError("score column values must lie in [0, 1]")
    return data, scores


def population_to_dict(spec: PopulationSpec) -> dict:
    """Plain-dict form of a population, suitable for JSON config files."""
    return {
        "pi_s": float(spec.pi_s),
        "p_y_given_s": spec.p_y_given_s.tolist(),
        "cells": {
            f"{s},{y}": {
                "mean": spec.cells[(s, y)].mean.tolist(),
                "cov": spec.cells[(s, y)].cov.tolist(),
            }
            for (s, y) in CELLS
        },
    }


def _numbers(value):
    """A number, or nested lists of numbers, as floats: ``float()`` and
    ``np.asarray(..., dtype=float)`` would also read booleans and numeric
    strings, so those are refused."""
    if isinstance(value, (list, tuple)):
        return [_numbers(v) for v in value]
    if isinstance(value, (bool, str)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def population_from_dict(obj: dict) -> PopulationSpec:
    """Inverse of :func:`population_to_dict`, with full validation: cells
    are keyed "s,y" for the (s, y) of :data:`CELLS`, and every number must
    be a JSON number."""
    keys = {f"{s},{y}": (s, y) for (s, y) in CELLS}
    try:
        cells = {}
        for key, val in obj["cells"].items():
            if key not in keys:
                raise ValueError(f"unknown cell {key!r}, expected one of {', '.join(keys)}")
            cells[keys[key]] = CellGaussian(
                mean=np.asarray(_numbers(val["mean"])), cov=np.asarray(_numbers(val["cov"])))
        return PopulationSpec(
            pi_s=float(_numbers(obj["pi_s"])),
            p_y_given_s=np.asarray(_numbers(obj["p_y_given_s"])),
            cells=cells,
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValidationError(f"malformed population description: {exc!r}") from exc

