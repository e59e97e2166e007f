"""The outcome-reweighted kernel equalized-odds statistic.

The statistic compares the two *group mixtures* obtained by reweighting each
group's outcome-conditional representation laws with one shared pair of
weights,

    Zbar_s = w_0 * (Z | S=s, Y=0) + w_1 * (Z | S=s, Y=1),   s in {0, 1},

where (w_0, w_1) are the outcome rates of the S=0 stratum.  Taking both
groups' weights from the same stratum is deliberate: it makes the mixtures
comparable even when outcome rates differ across groups, at the price of an
asymmetry (relabeling the groups changes which stratum anchors the weights).
The squared statistic is the squared kernel discrepancy between Zbar_0 and
Zbar_1.

Two estimation routes are kept deliberately distinct:

* :func:`eok_hat_bootstrap` draws the mixtures by stratified resampling
  (the draws of :func:`reweight_sample`) and applies the unbiased
  two-sample U-statistic to the resampled groups.  It reads the statistic
  from each group's distinct drawn rows and their draw counts instead of
  materializing the repeated rows; the draws and the statistic are those of
  ``mmd2_unbiased`` on :func:`reweight_sample`'s output, up to float
  rounding.

* :func:`eok_hat_plugin` never resamples: it plugs weighted empirical cell
  embeddings straight into the squared-norm expansion

      eok2 = sum_{y, y'} w_y w_{y'} [ <m_0y, m_0y'> + <m_1y, m_1y'>
                                      - <m_0y, m_1y'> - <m_1y, m_0y'> ],

  with <m_c, m_c'> the mean of the cross Gram block between cells.  That is
  the quadratic form eok2 = v' K v with one coefficient per row,
  v_i = (2 s_i - 1) w_{y_i} / n_{cell(i)}.  A dataset's estimate reads it
  off the per-cell kernel sums it keeps (:func:`fairmmd.mmd.cell_sums`) as
  a' S a, with a the per-cell coefficients and S the 4 x 4 cell-block sums.
  This is the V-statistic of the mixture discrepancy, nonnegative up to
  rounding, and differentiable — :func:`eok_gradient_plugin` gives its exact
  gradient with respect to a linear encoder.  The penalized trainer reads
  the value, and when it needs it the gradient, from one pass K @ [v, X v]
  (or K @ v alone) over the encoded rows of each step.  It only sums that
  pass's rows, so the pass reduces its tiles by BLAS rather than row by
  row (:func:`fairmmd.kernels._tile_pass` says what that saves, and what
  its bits depend on).

Weights default to the empirical S=0 outcome rates; passing explicit weights
(e.g. the population's) is supported for oracle comparisons and flagged in
the result's ``weights_source``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .errors import (
    EmptyCellError,
    NormalizationError,
    SizeError,
    UnsupportedError,
    ValidationError,
)
from .kernels import KernelSpec, _checked_pair, _matmul_unchecked
from .mmd import _two_sample, cell_sums
from .synth import CELLS, LabeledDataset

__all__ = [
    "ReweightedSample",
    "EokEstimate",
    "empirical_weights",
    "reweight_sample",
    "eok_hat_bootstrap",
    "eok_hat_plugin",
    "eok_gradient_plugin",
]


@dataclass(frozen=True)
class ReweightedSample:
    """Materialized mixture samples for both groups plus the weights used."""

    z0: np.ndarray
    z1: np.ndarray
    weights: np.ndarray
    weights_source: str


@dataclass(frozen=True)
class EokEstimate:
    """Squared statistic, clip-aware root, and estimation metadata."""

    eok2: float
    eok: float
    method: str
    weights: np.ndarray
    weights_source: str
    clipped: bool


def _resolve_weights(data: LabeledDataset, weights) -> tuple[np.ndarray, str]:
    if weights is None:
        return empirical_weights(data), "empirical"
    return _checked_weights(weights), "spec-given"


def _checked_weights(weights) -> np.ndarray:
    """Explicit mixture weights as an array, after the one check they need,
    which reads no data: two nonnegative numbers that sum to 1."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (2,) or np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be two nonnegative numbers")
    if abs(w.sum() - 1.0) > 1e-9:
        raise NormalizationError(f"weights must sum to 1, got {w.sum()}")
    return w


def empirical_weights(data: LabeledDataset) -> np.ndarray:
    """Outcome rates (p_hat(Y=0 | S=0), p_hat(Y=1 | S=0)) of the S=0 stratum."""
    n0 = data.counts[:2].sum()
    if n0 == 0:
        raise EmptyCellError("weights come from the S=0 stratum, which is empty")
    return data.counts[:2] / n0


def _check_cells(data: LabeledDataset, w, context: str) -> None:
    """Every cell carrying weight must be populated."""
    for c, (s, y) in enumerate(CELLS):
        if data.counts[c] == 0 and w[y] > 0:
            raise EmptyCellError(f"{context} needs rows in cell (s={s}, y={y})")


def reweight_sample(
    data: LabeledDataset, m0: int, m1: int, seed: int, weights=None
) -> ReweightedSample:
    """Draw mixture samples of sizes m0, m1 by stratified resampling.

    For group s, each of the m_s draws picks outcome y with probability
    ``weights[y]`` and then one row uniformly (with replacement) from cell
    (s, y).  Fully deterministic given the seed.
    """
    idx, w, source = _mixture_draws(data, m0, m1, seed, weights)
    z = data.z.take(idx, axis=0)
    return ReweightedSample(z0=z[:m0], z1=z[m0:], weights=w, weights_source=source)


def _mixture_draws(data: LabeledDataset, m0: int, m1: int, seed: int, weights):
    """The row indices of :func:`reweight_sample`'s draws (group 0's m0,
    then group 1's m1), with the weights used and their source."""
    if m0 < 1 or m1 < 1:
        raise SizeError(f"mixture sizes must be >= 1, got {m0} and {m1}")
    w, source = _resolve_weights(data, weights)
    _check_cells(data, w, "reweight_sample")
    # A stable sort keeps each cell's rows in ascending order, which fixes
    # the row each draw picks; numpy sorts the int8 cells by radix.
    order = np.argsort(data.cell, kind="stable")
    return (_resample_rows(rng_for(seed), w[1], data.counts.tolist(), order, (m0, m1)),
            w, source)


def _resample_rows(
    rng: np.random.Generator, w1: float, counts: list, order: np.ndarray, sizes,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Row indices of one stratified resample, group after group, drawn from
    ``rng`` in a fixed order: for group s, its ``sizes[s]`` outcome draws
    (outcome 1 with probability ``w1``), then for each outcome y hit, the
    hits' uniform picks among the ``counts[2 s + y]`` rows of cell (s, y).
    ``counts`` holds the four cell sizes as Python ints, which numpy's
    ``integers`` takes faster than numpy integers, and ``order`` lists the
    rows of cell 0, then cell 1, and so on.  The indices go into ``out``
    (length sum(sizes)) when given, else into a new array.  Callers check
    first that every cell whose outcome has weight has rows."""
    idx = np.empty(sum(sizes), dtype=np.int64) if out is None else out
    pos = start = 0
    for s, m in enumerate(sizes):
        hit = rng.random(m) < w1
        part = idx[pos:pos + m]
        k1 = int(np.count_nonzero(hit))
        for mask, k, n_c in ((~hit, m - k1, counts[2 * s]), (hit, k1, counts[2 * s + 1])):
            if k:
                # The same stream words as start + rng.integers(0, n_c, size=k).
                part[mask] = order[rng.integers(start, start + n_c, size=k)]
            start += n_c
        pos += m
    return idx


def eok_hat_bootstrap(
    spec: KernelSpec,
    data: LabeledDataset,
    m0: int | None = None,
    m1: int | None = None,
    seed: int = 0,
    weights=None,
) -> EokEstimate:
    """Resampling estimator: unbiased two-sample statistic on the mixtures
    that :func:`reweight_sample` draws with the same arguments.

    Mixture sizes default to the observed group sizes.  The rows are not
    materialized: each group's draws collapse to its distinct rows U and
    their draw counts c, and the U-statistic of the m0 + m1 drawn rows is
    read from the count-weighted Gram sums of U, one square pass over the
    |U_0| + |U_1| distinct rows in place of one over the m0 + m1 drawn rows.
    It can be negative near the null; the root clips and flags.
    """
    if m0 is None:
        m0 = int(data.counts[:2].sum())
    if m1 is None:
        m1 = int(data.counts[2:].sum())
    idx, w, source = _mixture_draws(data, m0, m1, seed, weights)
    (ua, ca), (ub, cb) = (np.unique(part, return_counts=True) for part in (idx[:m0], idx[m0:]))
    A, B = _checked_pair(spec, data.z[ua], data.z[ub])
    est = _two_sample(spec, A, B, unbiased=True, a=ca, b=cb)
    return EokEstimate(eok2=est.mmd2, eok=est.mmd, method="bootstrap", weights=w,
                       weights_source=source, clipped=est.clipped)


def eok_hat_plugin(spec: KernelSpec, data: LabeledDataset, weights=None) -> EokEstimate:
    """Plug-in estimator: weighted cell embeddings, no resampling.

    Evaluates the squared-norm expansion from the module docstring as the
    quadratic form a' S a over the per-cell kernel sums S of the dataset's
    one pass (:func:`fairmmd.mmd.cell_sums`).  All four cells must be
    populated.
    """
    w, source = _penalty_weights(spec, data, weights, gradient=False)
    a = _cell_coefficients(w, data.counts)
    eok2 = float(a @ cell_sums(spec, data).block @ a)
    return EokEstimate(
        eok2=eok2, eok=float(np.sqrt(max(eok2, 0.0))), method="plugin",
        weights=w, weights_source=source, clipped=bool(eok2 < 0),
    )


def _penalty_weights(spec: KernelSpec, data: LabeledDataset, weights, gradient: bool):
    """The mixture weights and their source, after the checks the plug-in
    value (every cell populated) or its gradient (rbf or linear, every
    weighted cell populated) needs."""
    if gradient and spec.family not in ("rbf", "linear"):
        raise UnsupportedError(
            f"gradient defined for rbf and linear kernels only, got {spec.family!r}"
        )
    w, source = _resolve_weights(data, weights)
    _check_cells(data, w if gradient else (1, 1), "gradient" if gradient else "plugin estimator")
    return w, source


def _cell_coefficients(w: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each cell's plug-in coefficient (2 s - 1) w_y / n_(s,y), in
    :data:`CELLS` order; an empty cell (which must carry no weight) gets 0."""
    return np.array([(2 * s - 1) * w[y] for (s, y) in CELLS]) / np.maximum(counts, 1)


def eok_gradient_plugin(
    spec: KernelSpec, data: LabeledDataset, encoder, weights=None
) -> np.ndarray:
    """Exact gradient of the plug-in squared statistic w.r.t. a linear encoder.

    ``data.z`` is read as raw inputs X; the statistic is evaluated on the
    encoded rows Z = X W' for ``encoder`` W of shape (d_out, d_in), and the
    returned array is d(eok2)/dW of the same shape.

    The squared statistic is the quadratic form v' K(Z) v with the rank-one
    coefficient vector v_i = (2 s_i - 1) w_{y_i} / n_{cell(i)}, so for the
    linear kernel the gradient collapses to 2 (Z'v) (X'v)' and for the rbf
    kernel to (-2 / sigma^2) [Z' diag(r) X - Z' A X] with A = K * vv' and
    r = A 1 = v * (K v).  Both K terms come from one streamed pass,
    K @ [v, X * v], which never forms the n x n K.  Only those two families
    are differentiable here; laplacian and composite kernels raise
    UnsupportedError.
    """
    w, _ = _penalty_weights(spec, data, weights, gradient=True)
    W = np.asarray(encoder, dtype=float)
    if W.ndim != 2 or W.shape[1] != data.dim or not np.isfinite(W).all():
        raise ValidationError(f"encoder must be a finite (d_out, {data.dim}) array, got shape "
                              f"{W.shape}")
    v = _cell_coefficients(w, data.counts)[data.cell]
    return _penalty_and_gradient(spec, data.z, data.z @ W.T, v, gradient=True)[1]


def _penalty_and_gradient(spec: KernelSpec, X, Z, v,
                          gradient: bool) -> tuple[float, np.ndarray | None]:
    """The plug-in eok2 v' K(Z) v of checked rows Z = X W' with per-row
    coefficients ``v`` (which sum to zero), and its encoder gradient (None
    when ``gradient`` is false), from the one kernel pass of
    :func:`eok_gradient_plugin` (whose docstring has the formulas); without
    the gradient that pass is K @ v alone, for any kernel family.  Both
    read the pass's rows only through sums over them, so its tiles are
    reduced by BLAS (``row_stable=False``).

    The linear closed form centres Z and X on their means first: v sums to
    zero, so no value changes, but rows far from the origin keep their
    digits.  The means are matvecs, far cheaper than numpy's axis-0 mean of
    a narrow array."""
    if spec.family == "linear":
        n, ones = Z.shape[0], np.ones(Z.shape[0])
        zv = (Z - ones @ Z / n).T @ v
        d_pen = 2.0 * np.outer(zv, (X - ones @ X / n).T @ v) if gradient else None
        return float(zv @ zv), d_pen
    if not gradient:
        return float(v @ _matmul_unchecked(spec, Z, Z, v, row_stable=False)), None
    KM = _matmul_unchecked(spec, Z, Z, np.column_stack([v, X * v[:, None]]), row_stable=False)
    Kv = KM[:, 0]
    term_diag = (Z * (v * Kv)[:, None]).T @ X
    term_full = (Z * v[:, None]).T @ KM[:, 1:]
    return float(v @ Kv), (-2.0 / spec.sigma**2) * (term_diag - term_full)
