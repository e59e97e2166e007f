"""Bounded positive-definite kernels with recorded constants.

Every statistic in this package is defined relative to a kernel whose
amplitude bound ``nu`` (``k(z, z) <= nu`` on the declared domain) and
Lipschitz constant enter the fairness bounds directly, so both constants are
derived once at construction time and stored on the spec instead of being
recomputed ad hoc.

Families
--------
``rbf``        exp(-||a - b||^2 / (2 sigma^2)); nu = 1; Lipschitz
               exp(-1/2)/sigma (max slope of the radial profile, attained at
               r = sigma; valid w.r.t. the Euclidean metric).
``laplacian``  exp(-||a - b||_1 / sigma); nu = 1; Lipschitz 1/sigma w.r.t.
               the L1 metric that defines the kernel (the Euclidean constant
               would pick up a sqrt(d) factor).
``linear``     <a, b> on the centered ball ||a|| <= radius; nu = radius^2;
               Lipschitz radius.
``product``    k1 (x) k2 on concatenated inputs split at index ``split``;
               nu = nu1 * nu2; Lipschitz l1*nu2 + l2*nu1.
``sum``        k1 + k2 on a shared domain; nu = nu1 + nu2; Lipschitz l1 + l2.
               With a linear first part this space contains the identity
               function with RKHS norm at most 1, which is what the
               calibration bound checker relies on.

Every kernel sum in the package streams through :func:`_matmul_unchecked`;
:func:`kernel_matmul` is its checked public entry, and
:func:`fairmmd.mmd._gram_sums` and the training step's penalty and
gradient (:func:`fairmmd.eok._penalty_and_gradient`) call it directly on
rows they have already checked.
A pass evaluates every TILE x TILE tile of K and reduces it against all of
M's columns, unless its caller labels B's rows with ascending groups, where
M's column g is nonzero only on the rows labelled g (as the cell sums and
the two-sample sums of :mod:`fairmmd.mmd` do): each tile is then reduced
against the columns of the groups it holds only, which leaves out exact
zeros alone.  A one-hot M whose rows come in cell order so costs about one
column per tile, whatever the number of cells.  A square pass (``B is A``,
as in K(Z, Z) @ M) evaluates each pair of tiles once: the tile pair
(p, b) with b >= p forms K(A_p, A_b), reduces it for row tile p, and
reduces its transpose against column tile p's coefficients for row tile
b.  Every kernel entry is symmetric bit for bit ((a - b)^2, |a - b|,
a . b, and sums and products of such), so the transpose has the bits of
K(A_b, A_p).

A pass reduces its tiles in one of two ways, chosen by what its caller
reads (:func:`_tile_pass` has the measurements):

* By default a pass is row-stable: einsum reduces each tile one output
  row at a time, so each output row's bits depend on its input row alone,
  wherever that row sits in a tile.  The witness rows of
  :func:`fairmmd.mmd.cell_sums`, the ball probes' scores and
  :func:`kernel_matmul`'s output are read row by row and rely on that;
  the two-sample and total-variation sums keep this route too, so their
  reports keep their bits.  Its mirrored tiles are copied transposed into a
  contiguous buffer.  TILE is 264, not 256, so that a tile's rows are not
  a power of two of bytes apart, which keeps that copy cheap (see TILE).
* A caller that only sums the output's rows passes ``row_stable=False``
  to :func:`_matmul_unchecked`: each tile, and a mirrored tile through its
  transposed view, is reduced by BLAS, with no copy, about three times as
  fast as einsum for three columns.  BLAS blocks its sums by the shapes it
  is handed, so these bits are fixed by n and the tile shapes, not by each
  row alone.  The training step's
  penalty and gradient (:mod:`fairmmd.eok`) and the calibration chain's
  cell-block sums (:mod:`fairmmd.bounds`, through
  :func:`fairmmd.mmd._gram_sums`) take this route.

A large pass hands its tile pairs out in order, one at a time, to one
thread per CPU; :class:`_InOrderSink` says how, and why the waiting
products stay bounded and the results keep their bits whatever the number
of CPUs.  A pass of one tile pair (at most TILE rows on each side, such as
a training step on a mini-batch of at most TILE rows) evaluates and reduces
that tile on the calling thread, with no sink, pool or per-worker buffers,
and with the bits of the same tile in a larger pass's loop.

All kernel arithmetic lives in this module: the tiles, :func:`pairwise`
and the aligned-row evaluation k(A[i], B[i]) that the estimators read
their diagonal sums and linear-time pairs from.  The rbf and laplacian
values scale their distances by a multiply with the negated reciprocal of
2 sigma^2 (or of sigma); that gives the bits of a divide whenever that
scale is a power of two (sigma = 1 or 0.5 for rbf, 1 for laplacian), and
other bandwidths differ from a divide by rounding only.  The constructors
refuse a bandwidth whose scale is not finite, and a linear radius whose
square (the kernel's nu) is not finite and positive.

The rbf and laplacian tiles of rows with d >= 2 and
:func:`median_heuristic` take their distances from three compiled routines
of scipy, ``cdist_sqeuclidean``, ``cdist_cityblock`` and
``pdist_euclidean``: the ones scipy's public ``cdist`` and ``pdist`` call
for those metrics after ``np.asarray``, so the distances have their bits.
:func:`_distance_routines` loads them on first use from scipy's
``spatial/_distance_pybind`` extension file alone and registers that module
under its own name, so a later ``import scipy.spatial.distance`` reuses
it.  That import runs ``scipy/spatial/__init__``, which loads
``scipy.sparse``, the k-d tree and more: 0.32-0.47 s and about 31 MB of
peak RSS in a process that has numpy loaded, against about 1 ms and under
1 MB for the extension alone (2-core container, scipy 1.17.1).  If the file is missing, fails to load or
lacks one of the three names, the public functions are called instead,
with the same bits.  The linear kernel, the concentration certificate,
dataset generation and every tile of rows with one coordinate (such as the
calibration chain's scores and outcomes) load nothing from scipy.  A
one-coordinate tile is the squared or absolute difference of the two
columns, formed by numpy with cdist's bits.  The first load holds a lock:
the calling thread and a pool thread of a split first pass may both ask
for the routines, and Python's import lock does not cover a module loaded
by hand.

scipy stays for d >= 2 because cdist is the faster tile.  A numpy tile
with cdist's bits (a subtract per coordinate into the tile buffer, square,
add) takes 266 us for a 256 x 256 rbf tile at d = 2, against cdist's
138 us (timeit, best of 7, 2-core container).  Over the 400 tiles of an
n = 5000 pass that would add about 80 ms to an audit cycle of the
benchmark, and about 0.15 s to a fit cycle, to save a load of about 1 ms
once per process.

The rbf and laplacian families are characteristic on R^d, so a zero kernel
discrepancy identifies the distributions; the linear kernel only separates
means.  Characteristicness is taken as a known property of these standard
families rather than re-derived here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "KernelSpec",
    "rbf",
    "laplacian",
    "linear",
    "product",
    "kernel_sum",
    "eval_kernel",
    "pairwise",
    "kernel_matmul",
    "median_heuristic",
]

_FAMILIES = ("rbf", "laplacian", "linear", "product", "sum")
# The cdist metric whose distances each exponential family scales.
_DISTANCES = {"rbf": "sqeuclidean", "laplacian": "cityblock"}

# scipy's compiled distance module, loaded alone on first use, and the three
# of its routines this module calls (see :func:`_distance_routines`).
_EXTENSION = "scipy.spatial._distance_pybind"
_ROUTINES: dict | None = None
_ROUTINES_LOCK = threading.Lock()

# Side of the square tiles :func:`kernel_matmul` streams over.  One 264 x 264
# float64 tile (545 KB) stays in cache while it is reduced; at n = 5000 (rbf)
# a full pass over 256-wide tiles beat 512 x 512 tiles and full-width row
# strips.  A row of 264 doubles is 2112 bytes, 33 cache lines: 64-byte
# aligned, but not a power of two.  With 2048-byte rows (TILE = 256) every
# other row of a tile maps to the same cache sets: the transposed copy of a
# 256 x 256 mirrored tile took 85 us, against 36 us for a 264 x 264 one
# (timeit, best of 9, 2-core container).  A side of 255 also breaks the power
# of two, but its rows are not 64-byte aligned and a fit cycle ran 2.9% slower.
TILE = 264

# CPUs this process may run on, read once: :func:`kernel_matmul` hands the
# tile pairs of a large pass out to this many threads.  The pool that runs
# all of them but the calling thread is created on first use.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - no affinity call on this platform
    _WORKERS = os.cpu_count() or 1
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of a kernel: family, parameters, and constants.

    Use the constructor helpers (:func:`rbf`, :func:`laplacian`,
    :func:`linear`, :func:`product`, :func:`kernel_sum`) rather than building
    instances by hand; they validate parameters and fill in ``nu`` and
    ``lipschitz``.
    """

    family: str
    sigma: float | None = None
    radius: float | None = None
    parts: tuple["KernelSpec", "KernelSpec"] | None = None
    split: int | None = None
    nu: float = field(default=np.nan)
    lipschitz: float = field(default=np.nan)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(
                f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}"
            )
        if not np.isfinite(self.nu) or self.nu <= 0:
            raise ValidationError(f"kernel amplitude bound nu must be finite and > 0, got {self.nu}")


def rbf(sigma: float = 1.0) -> KernelSpec:
    """Gaussian kernel exp(-||a-b||^2 / (2 sigma^2)) with bandwidth ``sigma``."""
    _check_positive("sigma", sigma)
    s2 = float(sigma) * float(sigma)
    if not (s2 > 0.0 and 2.0 * s2 < np.inf and 0.5 / s2 < np.inf):
        raise ValidationError(f"sigma must keep 2 sigma^2 and its reciprocal finite, got {sigma!r}")
    return KernelSpec("rbf", sigma=float(sigma), nu=1.0,
                      lipschitz=float(np.exp(-0.5) / sigma))


def laplacian(sigma: float = 1.0) -> KernelSpec:
    """Laplacian kernel exp(-||a-b||_1 / sigma) with bandwidth ``sigma``."""
    _check_positive("sigma", sigma)
    if not 1.0 / float(sigma) < np.inf:
        raise ValidationError(f"sigma must keep 1/sigma finite, got {sigma!r}")
    return KernelSpec("laplacian", sigma=float(sigma), nu=1.0, lipschitz=1.0 / float(sigma))


def linear(radius: float) -> KernelSpec:
    """Linear kernel <a, b> on the ball ||a|| <= radius."""
    _check_positive("radius", radius)
    r = float(radius)
    if not 0.0 < r * r < np.inf:
        raise ValidationError(f"radius must keep radius^2 finite and > 0, got {radius!r}")
    return KernelSpec("linear", radius=r, nu=r * r, lipschitz=r)


def product(k1: KernelSpec, k2: KernelSpec, split: int) -> KernelSpec:
    """Tensor-product kernel on concatenated inputs.

    Rows are split at column index ``split``: the first ``split`` coordinates
    feed ``k1``, the rest feed ``k2``, and the kernel value is the product.
    """
    if not isinstance(split, (int, np.integer)) or split < 1:
        raise ValidationError(f"split must be a positive integer, got {split!r}")
    return KernelSpec(
        "product", parts=(k1, k2), split=int(split),
        nu=k1.nu * k2.nu,
        lipschitz=k1.lipschitz * k2.nu + k2.lipschitz * k1.nu,
    )


def kernel_sum(k1: KernelSpec, k2: KernelSpec) -> KernelSpec:
    """Sum kernel k1 + k2, both parts evaluated on the full input."""
    return KernelSpec("sum", parts=(k1, k2), nu=k1.nu + k2.nu,
                      lipschitz=k1.lipschitz + k2.lipschitz)


def _check_positive(name: str, value) -> None:
    if not np.isscalar(value) or not np.isfinite(value) or value <= 0:
        raise ValidationError(f"{name} must be a finite positive scalar, got {value!r}")


def _as_points(X, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise ValidationError(f"{name} must be a vector or a 2-d array of row vectors")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ValidationError(f"{name} must be non-empty, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValidationError(f"{name} contains non-finite entries")
    return X


def _check_domain(spec: KernelSpec, X: np.ndarray, name: str) -> None:
    """Validate dimensionality and (for linear parts) ball membership."""
    if spec.family == "linear":
        # sqrt is monotone and correctly rounded, so the root of the largest
        # squared norm is the largest norm, bit for bit.  A NaN norm fails.
        worst = np.sqrt(np.einsum("ij,ij->i", X, X).max())
        if not worst <= spec.radius * (1 + 1e-9) + 1e-12:
            raise DomainError(
                f"{name} leaves the linear kernel's domain: max norm {worst:.6g} "
                f"exceeds radius {spec.radius:.6g}"
            )
    elif spec.family == "product":
        if X.shape[1] <= spec.split:
            raise DomainError(
                f"product kernel needs inputs with more than split={spec.split} "
                f"columns, got {X.shape[1]}"
            )
        _check_domain(spec.parts[0], X[:, : spec.split], name)
        _check_domain(spec.parts[1], X[:, spec.split :], name)
    elif spec.family == "sum":
        _check_domain(spec.parts[0], X, name)
        _check_domain(spec.parts[1], X, name)


def _has_ball(spec: KernelSpec) -> bool:
    """Whether ``spec`` has a linear part, whose ball :func:`_check_domain`
    checks rows against."""
    return spec.family == "linear" or any(map(_has_ball, spec.parts or ()))


def _checked_pair(spec: KernelSpec, A, B) -> tuple[np.ndarray, np.ndarray]:
    """Both row sets as float arrays, after the shape and domain checks; one
    row set passed as both (a square pass) is converted and checked once."""
    same = B is A
    A = _as_points(A, "A")
    B = A if same else _as_points(B, "B")
    if A.shape[1] != B.shape[1]:
        raise DomainError(f"dimension mismatch: A has d={A.shape[1]}, B has d={B.shape[1]}")
    _check_domain(spec, A, "A")
    if not same:
        _check_domain(spec, B, "B")
    return A, B


def pairwise(spec: KernelSpec, A, B) -> np.ndarray:
    """Dense kernel matrix between row sets ``A`` (n x d) and ``B`` (m x d).

    The package's one dense entry point, for small inputs.  It is the
    single evaluation path shared by :func:`eval_kernel` and the tiles of
    :func:`kernel_matmul`, so a value computed anywhere in the package is
    the same number everywhere; the aligned-row evaluation k(A[i], B[i])
    uses the same arithmetic, with the same bits for d <= 2 and equal to
    rounding otherwise.
    """
    return _pairwise_unchecked(spec, *_checked_pair(spec, A, B))


def kernel_matmul(spec: KernelSpec, A, B, M) -> np.ndarray:
    """``K(A, B) @ M`` without materializing the kernel matrix.

    The product is accumulated over ``TILE`` x ``TILE`` tiles of K(A, B),
    columns in ascending order, so memory stays O(TILE^2) per thread plus
    O(n k) whatever the sizes.  Each tile is reduced one output row at a
    time (a dot product of that row with each column of ``M``), so an
    output row depends only on its own input row: identical rows of ``A``
    get bit-identical outputs.  Every tile is evaluated and reduced against
    all columns of ``M``.  For the linear kernel the product is A (B' M),
    and no tile is formed.

    Passing the same array as ``A`` and ``B`` makes a square pass, which
    evaluates each pair of tiles once, T(T + 1)/2 tiles for T row tiles in
    place of T^2, with the same bits (see the module docstring).  The tile
    pairs of a large pass are handed out in order to one thread per CPU
    (see :class:`_InOrderSink`); the output does not depend on how many
    CPUs there are.

    Args:
        spec: kernel description.
        A: (n, d) rows.
        B: (m, d) rows.
        M: (m,) or (m, k) coefficients, one row per row of ``B``.

    Returns:
        (n,) or (n, k) array, matching the shape of ``M``.
    """
    A, B = _checked_pair(spec, A, B)
    M = np.asarray(M, dtype=float)
    if M.ndim not in (1, 2) or M.shape[0] != B.shape[0]:
        raise ValidationError(
            f"M must have one row per row of B ({B.shape[0]}), got shape {M.shape}"
        )
    if not np.all(np.isfinite(M)):
        raise ValidationError("M contains non-finite entries")
    return _matmul_unchecked(spec, A, B, M)


def _matmul_unchecked(spec: KernelSpec, A: np.ndarray, B: np.ndarray, M: np.ndarray,
                      groups=None, *, row_stable: bool = True) -> np.ndarray:
    """K(A, B) @ M on checked rows.  ``groups``, when given, holds ascending
    labels of B's rows, where M's column g is nonzero only on the rows
    labelled g: column tile j is then reduced against the columns from the
    label of its first row to that of its last only, which adds the same
    products and leaves out exact zeros.  ``row_stable`` picks how each
    tile is reduced (see :func:`_tile_pass`): by einsum, so that each output
    row's bits depend on its input row alone, or, when false, for a caller
    that only sums the output's rows, by BLAS.  The linear kernel forms no
    tiles and reads neither ``groups`` nor ``row_stable``."""
    # Columns of M as contiguous rows, so every output entry is one dot
    # product over contiguous memory; einsum, unlike BLAS, reduces every
    # output row in the same order wherever the row sits in the tile.
    Mt = np.ascontiguousarray(M.reshape(M.shape[0], -1).T)
    n, m = A.shape[0], B.shape[0]
    if spec.family == "linear":
        out = np.einsum("id,kd->ik", A, Mt @ B)
    else:
        starts = range(0, m, TILE)
        cols = ([slice(None)] * len(starts) if groups is None else
                [slice(groups[j], groups[min(j + TILE, m) - 1] + 1) for j in starts])
        out = np.zeros((n, Mt.shape[0]))
        small = n * m < 2 * TILE * TILE * _WORKERS
        _tiled_pass(spec, A, B, [(c, Mt[c, j : j + TILE]) for c, j in zip(cols, starts)],
                    out, 1 if small else min(_WORKERS, -(-n // TILE)), row_stable)
    return out.reshape(n) if M.ndim == 1 else out


def _tile_pass(spec: KernelSpec, A, B, blocks, t, k, square, sink, bufs, prod, flip,
               row_stable: bool) -> None:
    """Deliver to ``sink`` the product of tile pair (t, k): row tile ``t``
    of A against column tile ``k`` of B, whose block is ``blocks[k] = (cols,
    Mk)``.  The tile K(A_t, B_k), written into the flat buffers ``bufs``,
    is reduced against Mt's rows ``cols`` (``Mk``), the product written into
    the flat buffer ``prod``.  In a ``square`` pass, where only the pairs
    k >= t are handed out, a pair with k > t is used twice: for row tile t,
    and, transposed and reduced against ``blocks[t]``, for row tile k at
    position t, which pair (k, t) would have evaluated.  Every kernel entry
    is symmetric bit for bit, so the transpose has the bits of that tile.

    There are two reductions, for two kinds of caller.  A ``row_stable``
    pass reduces by einsum: each entry of a product is one dot of a tile
    row with one row of Mt, so an output row has the same bits wherever its
    input row sits and whatever rows share its tile.  Callers that read
    output rows one by one need that: the witness rows of the cell sums,
    the ball probes' scores, :func:`kernel_matmul`, and the test reference
    that pins the tiled loop.  Its mirrored tile is copied transposed into
    the flat buffer ``flip``, contiguous like the tile, so einsum reduces it
    with the same bits.  A pass that is not row-stable reduces each tile by
    BLAS, K @ Mk' (:func:`_blas_reduced`), and a mirrored pair through the
    transposed view K' with no copy.  Against three columns, a 256 x 256
    tile's product takes 22 us against 72 us for einsum, and a mirrored
    pair's two products 47 us against 185 us for einsum's two and the copy
    (timeit, best of 9, 2-core container).  BLAS blocks its sums by the
    shapes it is handed, so an entry's bits depend on the tile's shape and
    on where its row sits in it, which n and the column ranges fix; the
    training step's v' K v and encoder gradient and the calibration chain's
    cell-block sums (read through :func:`fairmmd.mmd._gram_sums`) only add
    the rows up, so they take this route.  Either
    way the sink adds the products in column order, so the output does not
    depend on the number of CPUs.

    A column left out of ``cols`` would only add zeros (finite kernel
    values times zero) to a row; so in a row-stable pass the sum of the
    products has the bits of reducing every tile against all of Mt.
    """
    At, Bk, mirrored = A[t * TILE : (t + 1) * TILE], B[k * TILE : (k + 1) * TILE], square and k > t
    K = _pairwise_unchecked(spec, At, Bk, bufs)
    if not row_stable:
        sink.deliver(t, k, _blas_reduced(K, blocks[k][1], prod))
        if mirrored:
            sink.deliver(k, t, _blas_reduced(K.T, blocks[t][1], prod))
        return
    sink.deliver(t, k, _reduced(K, blocks[k][1], prod))
    if mirrored:
        mirror = flip[: K.size].reshape(K.shape[::-1])
        np.copyto(mirror, K.T)
        sink.deliver(k, t, _reduced(mirror, blocks[t][1], prod))


def _reduced(K: np.ndarray, Mj: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """K @ Mj' by einsum, written into the flat buffer ``prod``."""
    rows = K.shape[0]
    return np.einsum("ij,kj->ik", K, Mj, out=prod[: rows * Mj.shape[0]].reshape(rows, -1))


def _blas_reduced(K: np.ndarray, Mj: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """K @ Mj' by BLAS, written into the flat buffer ``prod``; ``K`` may be
    a transposed view.  Each product takes at most 7 rows of Mj, so that
    it stays on one BLAS thread: OpenBLAS splits a product of more than
    2 x 65536 x 4 multiply-adds across its own threads, which 8 columns of
    a full tile pass and 7 x 264 x 264 do not.  Split products inside the
    pool's threads oversubscribed the CPUs: an n = 3000, d = 8 rbf pass
    (9 columns) on 2 workers took 39-46 ms, against 22 ms with one BLAS
    thread, and takes 23 ms either way in chunks (best of 7, 2-core
    container)."""
    rows = K.shape[0]
    out = prod[: rows * Mj.shape[0]].reshape(rows, -1)
    for c in range(0, Mj.shape[0], 7):
        np.matmul(K, Mj[c : c + 7].T, out=out[:, c : c + 7])
    return out


class _InOrderSink:
    """The tile pairs (t, k) of one pass, handed out one at a time in
    row-major order, and the products delivered for each row tile, summed
    into ``out`` in ascending column order.

    This is the one account of how a pass hands out its work.  The pairs
    are row tile t against column tile k: a square pass hands out the pairs
    k >= t, any other pass every pair.  A pass of fewer than two tiles per
    CPU, or of one row tile, runs on the calling thread alone; a larger one
    also on a small thread pool, one thread per CPU the process may use,
    each thread taking the next pair when it is done with its last, so a
    thread that runs slower draws fewer pairs.

    Row tile t adds the product of column tile k only after those of
    column tiles 0 .. k - 1 (``nxt[t]`` of them); a product that arrives
    early waits in a row of ``slab`` until its turn, and the thread that
    delivers the missing one adds it.  Every row tile receives its products
    in hand-out order (in a square pass, column tiles j < t come from the
    mirrored pairs (j, t), handed out before the pairs (t, j >= t)), so a
    product waits only behind one that a thread still holds.  Each thread
    holds one pair and a pair feeds at most two row tiles, so at most
    2 * workers row tiles have products waiting, at most (column tiles - 1)
    each: ``slab`` holds that many rows, O(workers n k) like ``out``,
    allocated by the calling thread.  No thread waits for another, and a
    thread stops only when the pairs run out.  Every output row still sums
    the same tiles in the same order, so the result has the same bits
    whatever the number of workers and whether the pass is square.
    """

    def __init__(self, out, blocks, pairs, slots: int, width: int):
        self.out, self.blocks, self.pairs = out, blocks, pairs
        self.lock = threading.Lock()
        self.nxt = [0] * -(-out.shape[0] // TILE)
        self.slab = np.empty((slots, width)) if slots else None
        self.free, self.waiting = list(range(slots)), {}

    def take(self):
        """The next tile pair (t, k), or None when there is none left."""
        with self.lock:
            return next(self.pairs, None)

    def deliver(self, t: int, k: int, part: np.ndarray) -> None:
        """Adds row tile t's product ``part`` with column tile k, and every
        waiting one it lets through, or keeps a copy until its turn."""
        with self.lock:
            if k != self.nxt[t]:
                slot = self.free.pop()
                kept = self.slab[slot, : part.size].reshape(part.shape)
                np.copyto(kept, part)
                self.waiting[t, k] = slot, kept
                return
            acc = self.out[t * TILE : (t + 1) * TILE]
            while True:
                cols = acc[:, self.blocks[k][0]]
                cols += part
                k += 1
                if (t, k) not in self.waiting:
                    break
                slot, part = self.waiting.pop((t, k))
                self.free.append(slot)
            self.nxt[t] = k


def _tiled_pass(spec: KernelSpec, A, B, blocks, out, workers: int, row_stable: bool) -> None:
    """Add K(A, B) @ Mt' to ``out``, over the column tiles' ``blocks``, on
    ``workers`` threads, the calling thread and ``workers - 1`` pool
    threads (no pool for one worker), each taking tile pairs from one
    shared :class:`_InOrderSink` (which says how they are handed out) and
    reducing them with :func:`_tile_pass` until none is left; only a
    ``row_stable`` square pass needs the mirror buffer.  A pass of one tile
    pair skips all of that, which cost it about 30 us against about 140 us
    for a 256 x 256 rbf tile itself (timeit, 2-core container): the calling
    thread evaluates the tile and adds its product to ``out`` by the same
    calls, so with the same bits.

    The calling thread allocates every worker's buffers and the sink's,
    since memory a pool thread allocates stays in that thread's malloc
    arena after it is freed.  numpy's floating-point error settings are per
    thread, so every worker takes the calling thread's: a split pass warns,
    or keeps quiet, as the serial one does.
    """
    n_tiles, n_cols = -(-A.shape[0] // TILE), len(blocks)
    if n_tiles == n_cols == 1:
        cols, Mk = blocks[0]
        reduce = _reduced if row_stable else _blas_reduced
        out[:, cols] += reduce(_pairwise_unchecked(spec, A, B), Mk, np.empty(out.size))
        return
    square = B is A
    mirrors = row_stable and square and n_tiles > 1
    tile_rows, cols = min(TILE, A.shape[0]), min(TILE, B.shape[0])
    pairs = ((t, k) for t in range(n_tiles) for k in range(t if square else 0, n_cols))
    sink = _InOrderSink(out, blocks, pairs, 2 * workers * (n_cols - 1) if workers > 1 else 0,
                        tile_rows * out.shape[1])
    err = np.geterr()

    def drain(bufs, prod, flip):
        with np.errstate(**err):
            for t, k in iter(sink.take, None):
                _tile_pass(spec, A, B, blocks, t, k, square, sink, bufs, prod, flip, row_stable)

    jobs = [([np.empty(tile_rows * cols) for _ in range(_tiles_needed(spec))],
             np.empty(tile_rows * out.shape[1]),
             np.empty(tile_rows * cols) if mirrors else None)
            for _ in range(workers)]
    futures = [_pool().submit(drain, *job) for job in jobs[1:]]
    try:
        drain(*jobs[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _tiles_needed(spec: KernelSpec) -> int:
    """Flat tile buffers :func:`_pairwise_unchecked` fills for ``spec``."""
    if spec.family in ("product", "sum"):
        first, second = spec.parts
        return max(_tiles_needed(first), 1 + _tiles_needed(second))
    return 1


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1),
                                       thread_name_prefix="fairmmd-kernel")
        return _POOL


def _forget_pool() -> None:
    # A forked child inherits the pool but none of its threads, and the locks
    # in whatever state another thread left them.
    global _POOL, _POOL_LOCK, _ROUTINES_LOCK
    _POOL, _POOL_LOCK, _ROUTINES_LOCK = None, threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _distance_routines() -> dict:
    """``cdist_sqeuclidean``, ``cdist_cityblock`` and ``pdist_euclidean``:
    the compiled routines that scipy's public ``cdist`` and ``pdist`` call for
    those metrics, found once per process under a lock, since the two threads
    of a split first pass may both ask."""
    global _ROUTINES
    if _ROUTINES is None:
        with _ROUTINES_LOCK:
            if _ROUTINES is None:
                _ROUTINES = _find_routines()
    return _ROUTINES


def _find_routines() -> dict:
    try:
        module = sys.modules.get(_EXTENSION) or _load_extension()
        return {name: getattr(module, name)
                for name in ("cdist_sqeuclidean", "cdist_cityblock", "pdist_euclidean")}
    except (ImportError, AttributeError):
        # The public functions call the same routines after np.asarray.
        from scipy.spatial.distance import cdist, pdist

        return {"cdist_sqeuclidean": partial(cdist, metric="sqeuclidean"),
                "cdist_cityblock": partial(cdist, metric="cityblock"),
                "pdist_euclidean": partial(pdist, metric="euclidean")}


def _load_extension():
    """scipy's ``spatial/_distance_pybind`` extension, loaded from its file
    without running ``scipy/__init__`` or ``scipy/spatial/__init__``, and
    registered under its own name so that a later ``import
    scipy.spatial.distance`` reuses it."""
    machinery = importlib.machinery
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed")
    folder = os.path.join(scipy.submodule_search_locations[0], "spatial")
    spec = machinery.FileFinder(folder, (machinery.ExtensionFileLoader,
                                         machinery.EXTENSION_SUFFIXES)).find_spec(_EXTENSION)
    if spec is None:
        raise ImportError(f"no {_EXTENSION} extension in {folder!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(_EXTENSION, module)


def _pairwise_unchecked(spec: KernelSpec, A: np.ndarray, B: np.ndarray, bufs=()) -> np.ndarray:
    """K(A, B), written into the first of the flat buffers ``bufs`` (a fresh
    array when there is none); the parts of a product or sum kernel take the
    buffers after it."""
    if spec.family in ("product", "sum"):
        first, second = spec.parts
        if spec.family == "product":
            s = spec.split
            K = _pairwise_unchecked(first, A[:, :s], B[:, :s], bufs)
            return np.multiply(K, _pairwise_unchecked(second, A[:, s:], B[:, s:], bufs[1:]), out=K)
        K = _pairwise_unchecked(first, A, B, bufs)
        return np.add(K, _pairwise_unchecked(second, A, B, bufs[1:]), out=K)
    n, m = A.shape[0], B.shape[0]
    K = bufs[0][: n * m].reshape(n, m) if bufs else None
    if spec.family == "linear":
        # Not matmul: numpy takes another routine for a one-row product, so a
        # row in a one-row tile could differ in its last bits from its copies.
        return np.einsum("id,jd->ij", A, B, out=K)
    if A.shape[1] == 1:
        # One coordinate: the squared or absolute difference, cdist's bits.
        D = np.subtract(A, B.T, out=K)
        return _exp_scaled(spec, np.square(D, out=D) if spec.family == "rbf"
                           else np.abs(D, out=D))
    cdist = _distance_routines()["cdist_" + _DISTANCES[spec.family]]
    return _exp_scaled(spec, cdist(A, B, out=K))


def _aligned_unchecked(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """k(A[i], B[i]) for each pair of aligned rows (no cross terms), by the
    arithmetic of :func:`_pairwise_unchecked`.  Each distance sums its d
    coordinates in numpy's order rather than cdist's, which gives the bits of
    K(A, B)'s entries for d <= 2 and agrees to rounding otherwise."""
    if spec.family in ("product", "sum"):
        first, second = spec.parts
        if spec.family == "product":
            s = spec.split
            return (_aligned_unchecked(first, A[:, :s], B[:, :s])
                    * _aligned_unchecked(second, A[:, s:], B[:, s:]))
        return _aligned_unchecked(first, A, B) + _aligned_unchecked(second, A, B)
    if spec.family == "linear":
        return np.einsum("ij,ij->i", A, B)
    D = A - B
    return _exp_scaled(spec, np.einsum("ij,ij->i", D, D) if spec.family == "rbf"
                       else np.abs(D, out=D).sum(axis=1))


def _exp_scaled(spec: KernelSpec, D: np.ndarray) -> np.ndarray:
    """The rbf or laplacian kernel values of the distances ``D`` (squared
    Euclidean for rbf, L1 for laplacian), computed in place in ``D``.

    One in-place array per step: with a temporary per step, a 256-tile rbf
    pass over 5000 rows took 0.46 s instead of 0.18 s.  Multiplying by the
    negated reciprocal takes 21 us per tile against 60 us for dividing by
    the negated scale, with the divide's bits when 2 sigma^2 (rbf) or sigma
    (laplacian) is a power of two.
    """
    D *= -0.5 / spec.sigma**2 if spec.family == "rbf" else -1.0 / spec.sigma
    return np.exp(D, out=D)


def eval_kernel(spec: KernelSpec, a, b) -> float:
    """Evaluate k(a, b) for two points."""
    return float(pairwise(spec, np.atleast_1d(a), np.atleast_1d(b))[0, 0])


def median_heuristic(X, cap: int = 2000, seed: int = 0) -> float:
    """Median pairwise Euclidean distance of ``X``, a common rbf bandwidth pick.

    Subsamples to ``cap`` rows for large inputs.  This is a convenience for
    the command-line layer only; no bound in this package depends on how the
    bandwidth was chosen.
    """
    X = _as_points(X, "X")
    if X.shape[0] < 2 or cap < 2:
        raise ValidationError(f"median heuristic needs >= 2 rows and cap >= 2, got "
                              f"{X.shape[0]} rows and cap {cap}")
    if X.shape[0] > cap:
        from ._rng import rng_for

        idx = rng_for(seed, 981).choice(X.shape[0], size=cap, replace=False)
        X = X[idx]
    med = float(np.median(_distance_routines()["pdist_euclidean"](X)))
    if not np.isfinite(med) or med <= 0:
        raise ValidationError("median heuristic undefined: all points coincide")
    return med
