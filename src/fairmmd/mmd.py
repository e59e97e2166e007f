"""Kernel two-sample discrepancy estimators.

Three estimators of the squared population discrepancy between the laws of
two samples A (n0 x d) and B (n1 x d), plus the witness function that
attains it:

* :func:`mmd2_unbiased` — the U-statistic

      sum_{i != j} k(a_i, a_j) / (n0 (n0-1))
    + sum_{i != j} k(b_i, b_j) / (n1 (n1-1))
    - 2 sum_{i, j} k(a_i, b_j) / (n0 n1),

  which is exactly unbiased and may be negative on near-null data.  The
  square root reported alongside clips at zero and flags that it did.

* :func:`mmd2_biased` — the V-statistic (all pairs, diagonals included),
  the squared RKHS norm of the difference of empirical mean embeddings;
  nonnegative up to float rounding.

* :func:`mmd2_linear_time` — a seeded random pairing of rows into disjoint
  quadruples (a, a', b, b') scored by k(a,a') + k(b,b') - k(a,b') - k(a',b);
  O(n) work, and conditionally on the data its expectation over pairings is
  the U-statistic above.

* :func:`witness_eval` — values of the unit-norm witness
  (mu_A - mu_B) / ||mu_A - mu_B|| at query points, normalized by the biased
  root so that its A-mean minus B-mean reproduces that root exactly.

The U- and V-statistics differ only by their diagonal terms (Gretton et
al., *A Kernel Two-Sample Test*, JMLR 2012), so both, and the witness's
root, are read from one routine of Gram block sums.  Its rows may carry
multiplicities: row i of A stands for a[i] rows, so a sample with repeated
rows (a resample, or the atoms of a discrete law) is summed over its
distinct rows only, as a' K_AA a, a' K_AB b and b' K_BB b plus the
diagonal sums a . k(A, A) and b . k(B, B).  The sums come from two calls of
:func:`fairmmd.kernels.kernel_matmul`: K([A; B], A) @ a gives the A-A and
B-A sums from its two row ranges and K(B, B) @ b the B-B sum, so no kernel
entry is evaluated twice.  The primitive streams over fixed tiles in a
fixed order, so results are deterministic and memory stays O(TILE^2)
regardless of sample size.  The diagonal sums and the linear-time pairs
read aligned rows from :mod:`fairmmd.kernels` too, so this module knows no
kernel family's formula.  For the linear kernel the rows are first
centred on their weighted pooled mean (every estimate here is translation
invariant under it), so data far from the origin do not cancel away their
digits.

:class:`CellSums` is the same pass for a labelled dataset, with one column
per (s, y) cell: every estimate between unions of cells, and the witness
between them at the dataset's own rows, is then an O(n) read.  The dataset
keeps the sums of each kernel, so one pass serves every statistic read from
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .errors import SizeError, ValidationError
from .kernels import KernelSpec, _aligned_unchecked, _checked_pair, _matmul_unchecked, kernel_matmul
from .synth import LabeledDataset

__all__ = [
    "MmdEstimate",
    "CellSums",
    "cell_sums",
    "mmd2_unbiased",
    "mmd2_biased",
    "mmd2_linear_time",
    "witness_eval",
    "gamma_biased",
]

@dataclass(frozen=True)
class MmdEstimate:
    """One squared-discrepancy estimate plus the clip-aware root.

    ``mmd`` is always ``sqrt(max(mmd2, 0))``; ``clipped`` records whether the
    raw ``mmd2`` was negative, so no information is lost by the clip.
    ``n0``/``n1`` are the row counts actually used (after the linear-time
    estimator's truncation to an even common length).
    """

    mmd2: float
    mmd: float
    variant: str
    n0: int
    n1: int
    clipped: bool


def _estimate(mmd2: float, variant: str, n0: int, n1: int) -> MmdEstimate:
    mmd2 = float(mmd2)
    return MmdEstimate(
        mmd2=mmd2, mmd=float(np.sqrt(max(mmd2, 0.0))), variant=variant,
        n0=n0, n1=n1, clipped=bool(mmd2 < 0),
    )


def _from_sums(n0: int, n1: int, tot_a, cross, tot_b, *diags) -> MmdEstimate:
    """The V-statistic from Gram block sums, or the U-statistic when the
    diagonal sums diag_a, diag_b follow them."""
    if not diags:
        mmd2 = tot_a / (n0 * n0) + tot_b / (n1 * n1) - 2.0 * cross / (n0 * n1)
        return _estimate(mmd2, "biased", n0, n1)
    mmd2 = (
        (tot_a - diags[0]) / (n0 * (n0 - 1))
        + (tot_b - diags[1]) / (n1 * (n1 - 1))
        - 2.0 * cross / (n0 * n1)
    )
    return _estimate(mmd2, "unbiased", n0, n1)


def _pooled_sums(spec: KernelSpec, A: np.ndarray, B: np.ndarray, a=None, b=None):
    """Gram sums of two samples whose row i stands for a[i] (or b[i]) rows,
    all ones when not given: a' K_AA a, a' K_AB b, b' K_BB b and the
    diagonal sums a . k(A, A) and b . k(B, B).

    No kernel entry is evaluated twice.  Linear rows are first centred on
    their weighted pooled mean, which changes no estimate read from the sums.
    """
    a = np.ones(A.shape[0]) if a is None else np.asarray(a, dtype=float)
    b = np.ones(B.shape[0]) if b is None else np.asarray(b, dtype=float)
    if spec.family == "linear":
        mean = ((a[:, None] * A).sum(axis=0) + (b[:, None] * B).sum(axis=0)) / (a.sum() + b.sum())
        A, B = A - mean, B - mean
    n0 = A.shape[0]
    to_a = _matmul_unchecked(spec, np.vstack([A, B]), A, a)
    to_b = _matmul_unchecked(spec, B, B, b)
    return ((a * to_a[:n0]).sum(), (b * to_a[n0:]).sum(), (b * to_b).sum(),
            (a * _aligned_unchecked(spec, A, A)).sum(),
            (b * _aligned_unchecked(spec, B, B)).sum())


def mmd2_unbiased(spec: KernelSpec, A, B) -> MmdEstimate:
    """U-statistic estimate of the squared discrepancy (may be negative).

    Args:
        spec: kernel description.
        A: (n0, d) sample from the first law, n0 >= 2.
        B: (n1, d) sample from the second law, n1 >= 2.
    """
    A, B = _checked_pair(spec, A, B)
    n0, n1 = A.shape[0], B.shape[0]
    if n0 < 2 or n1 < 2:
        raise SizeError(f"unbiased estimator needs >= 2 rows per sample, got {n0} and {n1}")
    return _from_sums(n0, n1, *_pooled_sums(spec, A, B))


def mmd2_biased(spec: KernelSpec, A, B) -> MmdEstimate:
    """V-statistic (plug-in) estimate: the squared norm of the difference of
    empirical mean embeddings.  Nonnegative up to float rounding."""
    A, B = _checked_pair(spec, A, B)
    return _from_sums(A.shape[0], B.shape[0], *_pooled_sums(spec, A, B)[:3])


def mmd2_linear_time(spec: KernelSpec, A, B, seed: int) -> MmdEstimate:
    """Linear-time paired estimator.

    Rows of each sample are shuffled with a seeded generator, truncated to
    the largest common even length m, and consumed two at a time; quadruple i
    contributes k(a,a') + k(b,b') - k(a,b') - k(a',b).  Averaging the
    contributions costs O(m) kernel evaluations.
    """
    A, B = _checked_pair(spec, A, B)
    n0, n1 = A.shape[0], B.shape[0]
    if min(n0, n1) < 4:
        raise SizeError(f"linear-time estimator needs >= 4 rows per sample, got {n0} and {n1}")
    rng = rng_for(seed)
    a = A[rng.permutation(n0)]
    b = B[rng.permutation(n1)]
    m = min(n0, n1)
    m -= m % 2
    a0, a1 = a[0:m:2], a[1:m:2]
    b0, b1 = b[0:m:2], b[1:m:2]
    h = (
        _aligned_unchecked(spec, a0, a1)
        + _aligned_unchecked(spec, b0, b1)
        - _aligned_unchecked(spec, a0, b1)
        - _aligned_unchecked(spec, a1, b0)
    )
    return _estimate(h.mean(), "linear_time", m, m)


def witness_eval(spec: KernelSpec, A, B, query) -> np.ndarray | float:
    """Values of the normalized empirical witness at query points.

    The witness is f(q) = [mean_i k(q, a_i) - mean_j k(q, b_j)] / r with
    r = sqrt(biased mmd2), the unit-RKHS-norm direction separating the two
    empirical mean embeddings.  By construction its A-mean minus B-mean
    equals r exactly.

    Accepts a single point (returns a float) or a (m, d) array (returns a
    length-m vector).  Raises ValidationError when the two empirical
    embeddings coincide (r = 0), since no direction is defined.
    """
    single = np.asarray(query, dtype=float).ndim == 1
    anchors, coefs, root = _witness(spec, A, B)
    out = kernel_matmul(spec, query, anchors, coefs) / root
    return float(out[0]) if single else out


def _witness(spec: KernelSpec, A, B) -> tuple[np.ndarray, np.ndarray, float]:
    """Anchors [A; B], coefficients (1/n0, ..., -1/n1, ...) and root r of the
    unit witness of (A, B), whose values are K(., anchors) @ coefficients / r."""
    A, B = _checked_pair(spec, A, B)
    n0, n1 = A.shape[0], B.shape[0]
    root = _from_sums(n0, n1, *_pooled_sums(spec, A, B)[:3]).mmd
    if root <= 0.0:
        raise ValidationError("witness undefined: the empirical mean embeddings coincide")
    coefs = np.concatenate([np.full(n0, 1.0 / n0), np.full(n1, -1.0 / n1)])
    return np.vstack([A, B]), coefs, root


def gamma_biased(spec: KernelSpec, A, B) -> float:
    """Plug-in discrepancy root sqrt(max(biased mmd2, 0)).

    This is the exact kernel discrepancy between the two *empirical* laws,
    which is why the bound checkers use it on their right-hand sides:
    distribution-level inequalities then apply to the data verbatim.
    """
    return mmd2_biased(spec, A, B).mmd


@dataclass(frozen=True)
class CellSums:
    """Kernel sums of a labelled dataset against each of its four (s, y) cells.

    Made by :func:`cell_sums` alone, once per dataset and kernel.
    ``rows[i, c]`` is the sum of k(z_i, z_j) over the rows j of cell c, i.e.
    ``K(Z, Z) @ onehot(cell)`` from one kernel pass, whose columns a tiled
    kernel takes in cell order (row i's sums run over the rows j in that
    order); ``block[c, c']`` sums ``rows`` over the rows of cell c,
    ``diag[c]`` sums k(z_i, z_i) over cell c, and ``counts[c]`` is its
    size.  Cells are indexed c = 2 s + y, the order of
    :data:`fairmmd.synth.CELLS`.  Groups of cells are given as tuples of
    (s, y) pairs.

    For the linear kernel ``block`` and ``diag`` are taken from the rows
    centred on their pooled mean, so data far from the origin do not cancel
    their digits away.  Every estimate between unions of cells, and every
    quadratic form a' block a with sum_c a_c counts[c] = 0 (the plug-in
    eok2), is translation invariant, so the centring changes none of them.
    ``rows`` stays uncentred: the witness value at a row depends on where
    the row lies.
    """

    spec: KernelSpec
    rows: np.ndarray
    block: np.ndarray
    diag: np.ndarray
    counts: np.ndarray

    def mmd2(self, p, q, unbiased: bool = False) -> MmdEstimate:
        """Two-sample estimate between the rows of cells ``p`` and of cells
        ``q``: what :func:`mmd2_unbiased` (or :func:`mmd2_biased`) returns
        for those two row sets, up to float rounding."""
        P, Q = _cell_ids(p), _cell_ids(q)
        n0, n1 = int(self.counts[P].sum()), int(self.counts[Q].sum())
        least = 2 if unbiased else 1
        if n0 < least or n1 < least:
            raise SizeError(f"estimator needs >= {least} rows per sample, got {n0} and {n1}")
        diags = (self.diag[P].sum(), self.diag[Q].sum()) if unbiased else ()
        return _from_sums(
            n0, n1, self.block[np.ix_(P, P)].sum(), self.block[np.ix_(P, Q)].sum(),
            self.block[np.ix_(Q, Q)].sum(), *diags,
        )

    def witness(self, p, q) -> np.ndarray:
        """The unit witness of (cells ``p``, cells ``q``) at every row: what
        :func:`witness_eval` returns for those samples queried at all rows.

        Each value reads only its own row of ``rows``, so identical data rows
        get identical values.
        """
        root = self.mmd2(p, q).mmd
        if root <= 0.0:
            raise ValidationError("witness undefined: the empirical mean embeddings coincide")
        P, Q = _cell_ids(p), _cell_ids(q)
        coef = np.zeros(4)
        coef[P] = 1.0 / self.counts[P].sum()
        coef[Q] = -1.0 / self.counts[Q].sum()
        return np.einsum("ic,c->i", self.rows, coef) / root


def _cell_ids(cells) -> list:
    return [2 * s + y for (s, y) in cells]


def cell_sums(spec: KernelSpec, data: LabeledDataset) -> CellSums:
    """One kernel pass over ``data.z`` summarized per (s, y) cell.

    A tiled pass sums over the rows in cell order (a stable sort of the
    cells), so that each column tile of the pass holds one cell, or the few
    that meet in it, and is reduced against their columns only; its output
    rows stay in data order.  The linear kernel, which forms no tiles, keeps
    data order.

    The dataset keeps the result for ``spec``, so every later call with an
    equal spec returns the same object without a pass of its own; its arrays
    are read-only.
    """
    if spec in data._kernel_sums:
        return data._kernel_sums[spec]
    onehot = (data.cell[:, None] == np.arange(4)).astype(float)
    order = slice(None) if spec.family == "linear" else np.argsort(data.cell, kind="stable")
    rows = kernel_matmul(spec, data.z, data.z[order], onehot[order])
    if spec.family == "linear":
        zc = data.z - data.z.mean(axis=0)
        per_cell = onehot.T @ zc
        block, diag = per_cell @ per_cell.T, _aligned_unchecked(spec, zc, zc)
    else:
        block, diag = onehot.T @ rows, _aligned_unchecked(spec, data.z, data.z)
    diag = np.bincount(data.cell, weights=diag, minlength=4)
    for arr in (rows, block, diag):
        arr.flags.writeable = False
    data._kernel_sums[spec] = CellSums(spec, rows, block, diag, data.counts)
    return data._kernel_sums[spec]
