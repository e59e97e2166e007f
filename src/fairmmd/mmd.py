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
al., *A Kernel Two-Sample Test*, JMLR 2012), so every estimate here is a
read of weighted Gram sums, and one routine computes them all: for rows Z
and weight columns W it makes one square kernel pass, K W, and returns it
with the block sums W' K W and the diagonal sums W' k(z, z).  Weights
are row multiplicities: row i stands for W[i, g] rows of the sample of
column g, so a sample with repeated rows (a resample, or the atoms of a
discrete law) is summed over its distinct rows only.  One reader turns
those sums into the biased or unbiased estimate between two unions of
columns, after the one check of the sample sizes, which it makes before
the pass.  Two samples A and B are the rows Z = [A; B] with the columns
W = [a (+) 0 | 0 (+) b]; a labelled dataset is its rows with one one-hot
column per (s, y) cell.  Either way the rows are labelled by the one
column they weigh, so the pass takes them in label order and reduces each
column tile against the columns of the labels it holds only, and each pair
of kernel entries is evaluated once.  The pass streams over fixed tiles in a fixed order, so
results are deterministic and memory stays O(TILE^2) regardless of sample
size.  The diagonal sums and the linear-time pairs read aligned rows from
:mod:`fairmmd.kernels` too, so this module knows no kernel family's
formula.  For the linear kernel the block and diagonal sums are taken from
the rows centred on their weighted mean (every estimate here is
translation invariant under it), so data far from the origin do not
cancel away their digits.  The calibration chain of :mod:`fairmmd.bounds`
takes its score sums from the same routine; it reads only the block sums,
so its pass reduces tiles by BLAS (``row_stable=False``), and its root
from the same reader.

:class:`CellSums` keeps those sums for a labelled dataset: every estimate
between unions of cells, and the witness between them at the dataset's own
rows, is then an O(n) read.  The dataset keeps the sums of each kernel, so
one pass serves every statistic read from them.
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


def _gram_sums(spec: KernelSpec, Z: np.ndarray, W: np.ndarray, labels=None, *,
               row_stable: bool = True):
    """K W, W' K W and W' k(z, z) of checked rows Z (n x d) and weight
    columns W (n x k), from one square kernel pass.  ``row_stable=False``
    lets the pass reduce its tiles by BLAS (see
    :func:`fairmmd.kernels._matmul_unchecked`), for a caller that reads only
    the block and diagonal sums: K W's rows then lose the bits of a
    row-stable pass.

    ``labels``, when given, labels the rows so that W's column g is nonzero
    only on the rows labelled g.  A tiled pass then takes the rows in label
    order (a stable sort) on both sides, so each column tile holds one
    label, or the few that meet in it, and is reduced against their columns
    only.  K W comes back in row order; each of its rows depends only on its
    own input row, so it has the bits of a pass whose rows stay in row
    order.  For the linear kernel, which forms no tiles, the block and
    diagonal sums are taken from the rows centred on their weighted mean,
    and K W stays uncentred: a witness value depends on where its row lies.
    """
    tiled = labels is not None and spec.family != "linear"
    order = np.argsort(labels, kind="stable") if tiled else slice(None)
    Zs = Z[order]
    # W's rows in label order as the transpose of a contiguous (k, n) copy:
    # the pass reads M through its transpose, which is then that copy itself.
    Ws = np.ascontiguousarray(W.T[:, order]).T
    sorted_kw = _matmul_unchecked(spec, Zs, Zs, Ws, labels[order] if tiled else None,
                                  row_stable=row_stable)
    # Allocated after the pass, so that it is not live beside the pass's tiles.
    KW = np.empty(W.shape)
    KW[order] = sorted_kw
    if spec.family == "linear":
        w = W.sum(axis=1)
        Z = Z - w @ Z / w.sum()
        per_col = W.T @ Z
        return KW, per_col @ per_col.T, W.T @ _aligned_unchecked(spec, Z, Z)
    return KW, W.T @ KW, W.T @ _aligned_unchecked(spec, Z, Z)


def _between(totals, p: list, q: list, unbiased: bool, sums) -> MmdEstimate:
    """The biased (V-statistic) or unbiased (U-statistic) estimate between
    the union of the columns ``p`` and that of the columns ``q``, where
    column g stands for ``totals[g]`` rows, from the block sums W' K W and
    diagonal sums W' k(z, z) that ``sums()`` returns.  ``sums`` is called
    only once both samples are large enough for the estimator, so a sample
    too small is refused before any pass."""
    n0, n1 = int(totals[p].sum()), int(totals[q].sum())
    u = int(unbiased)  # the U-statistic leaves out the diagonal terms
    if n0 < 1 + u or n1 < 1 + u:
        raise SizeError(f"{'un' * u}biased estimator needs >= {1 + u} rows per sample, "
                        f"got {n0} and {n1}")
    block, diag = sums()
    d0, d1 = (diag[p].sum(), diag[q].sum()) if unbiased else (0.0, 0.0)
    mmd2 = ((block[np.ix_(p, p)].sum() - d0) / (n0 * (n0 - u))
            + (block[np.ix_(q, q)].sum() - d1) / (n1 * (n1 - u))
            - 2.0 * block[np.ix_(p, q)].sum() / (n0 * n1))
    return _estimate(mmd2, "unbiased" if unbiased else "biased", n0, n1)


def _two_sample(spec: KernelSpec, A: np.ndarray, B: np.ndarray, unbiased: bool,
                a=None, b=None) -> MmdEstimate:
    """The estimate between checked samples A and B whose row i stands for
    a[i] (or b[i]) rows, all ones when not given: the rows [A; B], labelled
    0 and 1 by sample, with the columns W = [a (+) 0 | 0 (+) b]."""
    n0, n1 = A.shape[0], B.shape[0]
    W = np.zeros((n0 + n1, 2))
    W[:n0, 0] = 1.0 if a is None else a
    W[n0:, 1] = 1.0 if b is None else b
    labels = np.repeat([0, 1], [n0, n1])
    return _between(W.sum(axis=0), [0], [1], unbiased,
                    lambda: _gram_sums(spec, np.vstack([A, B]), W, labels)[1:])


def mmd2_unbiased(spec: KernelSpec, A, B) -> MmdEstimate:
    """U-statistic estimate of the squared discrepancy (may be negative).

    Args:
        spec: kernel description.
        A: (n0, d) sample from the first law, n0 >= 2.
        B: (n1, d) sample from the second law, n1 >= 2.
    """
    return _two_sample(spec, *_checked_pair(spec, A, B), unbiased=True)


def mmd2_biased(spec: KernelSpec, A, B) -> MmdEstimate:
    """V-statistic (plug-in) estimate: the squared norm of the difference of
    empirical mean embeddings.  Nonnegative up to float rounding."""
    return _two_sample(spec, *_checked_pair(spec, A, B), unbiased=False)


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
    root = _two_sample(spec, A, B, unbiased=False).mmd
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

    Made by :func:`cell_sums` alone, once per dataset and kernel, from the
    Gram-sums routine with one one-hot weight column per cell.
    ``rows[i, c]`` is the sum of k(z_i, z_j) over the rows j of cell c, i.e.
    ``K(Z, Z) @ onehot(cell)`` from one square kernel pass, whose rows and
    columns a tiled kernel takes in cell order (row i's sums run over the
    rows j in that order), and which evaluates each pair of tiles once;
    ``rows`` is in data order.  ``block[c, c']`` sums ``rows`` over the
    rows of cell c, ``diag[c]`` sums k(z_i, z_i) over cell c, and
    ``counts[c]`` is its size.  Cells are indexed c = 2 s + y, the order of
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
        for those two row sets, up to float rounding; both are the one
        reader of Gram sums."""
        return _between(self.counts, _cell_ids(p), _cell_ids(q), unbiased,
                        lambda: (self.block, self.diag))

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
    """One kernel pass over ``data.z`` summarized per (s, y) cell: the
    Gram-sums routine with one one-hot weight column per cell and the cells
    as the rows' labels.  A tiled pass so takes the rows in cell order on
    both sides, reduces each column tile against the columns of the cells
    it holds only, and evaluates each pair of tiles once; its output rows
    have the bits of a pass whose rows stay in data order.

    The dataset keeps the result for ``spec``, so every later call with an
    equal spec returns the same object without a pass of its own; its arrays
    are read-only.
    """
    if spec in data._kernel_sums:
        return data._kernel_sums[spec]
    z, _ = _checked_pair(spec, data.z, data.z)
    sums = CellSums(spec, *_gram_sums(spec, z, np.eye(4)[data.cell], data.cell), data.counts)
    for arr in (sums.rows, sums.block, sums.diag):
        arr.flags.writeable = False
    data._kernel_sums[spec] = sums
    return sums
