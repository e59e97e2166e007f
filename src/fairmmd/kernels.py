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

Every kernel sum in the package streams through :func:`kernel_matmul`.
A pass first finds, for each TILE-column block of K, the smallest range of
M's columns that holds all of that block's nonzeros; each tile is reduced
against those columns only, and a block on which M is all zero is never
evaluated.  A one-hot M whose rows come in cell order so costs about one
column per tile, whatever the number of cells.  Every pass hands its row
tiles out one at a time, from one shared, lock-guarded iterator: a small
pass to the calling thread alone, a pass of at least two tiles per CPU
also to a small thread pool, one thread per CPU the process may use, so a
thread that runs slower draws fewer tiles.  Each thread writes its tiles
into buffers the calling thread allocated.  Every output row still sums
the same tiles in the same order, so results have the same bits whatever
the number of CPUs.

All kernel arithmetic lives in this module: the tiles, :func:`pairwise`
and the aligned-row evaluation k(A[i], B[i]) that the estimators read
their diagonal sums and linear-time pairs from.  The rbf and laplacian
values scale their distances by a multiply with the negated reciprocal of
2 sigma^2 (or of sigma); that gives the bits of a divide whenever that
scale is a power of two (sigma = 1 or 0.5 for rbf, 1 for laplacian), and
other bandwidths differ from a divide by rounding only.  The constructors
refuse a bandwidth whose scale is not finite.

The rbf and laplacian tiles of rows with d >= 2 and
:func:`median_heuristic` take their distances from
``scipy.spatial.distance`` (``cdist`` and ``pdist``), imported where they
call it rather than at the top of this module: that import costs about
half a second, and the linear kernel, the concentration certificate,
dataset generation and every tile of rows with one coordinate (such as the
calibration chain's scores and outcomes) never need it.  A one-coordinate
tile is the squared or absolute difference of the two columns, formed by
numpy with cdist's bits.  When the first rbf pass of a process is a split
pass, the calling thread and a pool thread may reach the import together;
Python's per-module import lock makes the later one wait for the module.

scipy stays for d >= 2 because cdist is the faster tile.  A numpy tile
with cdist's bits (a subtract per coordinate into the tile buffer, square,
add) takes 266 us for a 256 x 256 rbf tile at d = 2, against cdist's
138 us (timeit, best of 7, 2-core container).  Over the 400 tiles of an
n = 5000 pass that would add about 80 ms to an audit cycle of the
benchmark, and about 0.15 s to a fit cycle; the import it would save costs
0.27-0.40 s once per process.

The rbf and laplacian families are characteristic on R^d, so a zero kernel
discrepancy identifies the distributions; the linear kernel only separates
means.  Characteristicness is taken as a known property of these standard
families rather than re-derived here.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "KernelSpec",
    "GramMatrix",
    "rbf",
    "laplacian",
    "linear",
    "product",
    "kernel_sum",
    "eval_kernel",
    "pairwise",
    "kernel_matmul",
    "gram",
    "lipschitz_constant",
    "median_heuristic",
]

_FAMILIES = ("rbf", "laplacian", "linear", "product", "sum")
# The cdist metric whose distances each exponential family scales.
_DISTANCES = {"rbf": "sqeuclidean", "laplacian": "cityblock"}

# Side of the square tiles :func:`kernel_matmul` streams over.  One 256 x 256
# float64 tile (512 KB) stays in cache while it is reduced; at n = 5000 (rbf)
# a full pass over such tiles beat 512 x 512 tiles and full-width row strips.
TILE = 256

# CPUs this process may run on, read once: :func:`kernel_matmul` splits the
# output rows of a large pass into this many chunks.  The pool that runs all
# chunks but the caller's is created on first use.
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


@dataclass(frozen=True)
class GramMatrix:
    """Kernel matrix ``values[i, j] = k(A[i], B[j])`` plus the spec that built it."""

    values: np.ndarray
    spec: KernelSpec

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


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

    This is the single evaluation path shared by :func:`gram`,
    :func:`eval_kernel`, and the tiles of :func:`kernel_matmul`, so a value
    computed anywhere in the package is the same number everywhere; the
    aligned-row evaluation k(A[i], B[i]) uses the same arithmetic, with the
    same bits for d <= 2 and equal to rounding otherwise.
    """
    return _pairwise_unchecked(spec, *_checked_pair(spec, A, B))


def kernel_matmul(spec: KernelSpec, A, B, M) -> np.ndarray:
    """``K(A, B) @ M`` without materializing the kernel matrix.

    The product is accumulated over ``TILE`` x ``TILE`` tiles of K(A, B),
    columns in ascending order, so memory stays O(TILE^2) whatever the
    sizes.  Each tile is reduced one output row at a time (a dot product of
    that row with each column of ``M``), so an output row depends only on
    its own input row: identical rows of ``A`` get bit-identical outputs.
    Each tile is reduced against the live columns of its rows of ``M`` only
    (the smallest range holding their nonzeros), and a tile whose rows of
    ``M`` are all zero is skipped; neither changes a bit of the result.
    For the linear kernel the product is A (B' M), and no tile is formed.

    A pass of at least two tiles per CPU hands its row tiles out to one
    thread per CPU, a smaller pass to the calling thread alone (see the
    module docstring); the output does not depend on how many CPUs there
    are.

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


def _matmul_unchecked(spec: KernelSpec, A: np.ndarray, B: np.ndarray, M: np.ndarray) -> np.ndarray:
    # Columns of M as contiguous rows, so every output entry is one dot
    # product over contiguous memory; einsum, unlike BLAS, reduces every
    # output row in the same order wherever the row sits in the tile.
    Mt = np.ascontiguousarray(M.reshape(M.shape[0], -1).T)
    n, m = A.shape[0], B.shape[0]
    if spec.family == "linear":
        out = np.einsum("id,kd->ik", A, Mt @ B)
    else:
        out = np.zeros((n, Mt.shape[0]))
        small = n * m < 2 * TILE * TILE * _WORKERS
        _row_tile_pass(spec, A, B, _live_columns(Mt), out,
                       1 if small else min(_WORKERS, -(-n // TILE)))
    return out.reshape(n) if M.ndim == 1 else out


def _live_columns(Mt: np.ndarray) -> list:
    """``(j, cols, Mt[cols, j : j + TILE])`` for each TILE-column block ``j``
    of the pass whose coefficients ``Mt[:, j : j + TILE]`` hold a nonzero:
    ``cols`` is the smallest slice of Mt's rows (M's columns) that holds all
    of them.  A block without one is left out."""
    blocks = []
    for j in range(0, Mt.shape[1], TILE):
        live = Mt[:, j : j + TILE].any(axis=1).tolist()
        if True in live:
            cols = slice(live.index(True), len(live) - live[::-1].index(True))
            blocks.append((j, cols, Mt[cols, j : j + TILE]))
    return blocks


def _tile_pass(spec: KernelSpec, Ai, B, blocks, acc, bufs, prod) -> None:
    """Add K(Ai, B) @ Mt' to ``acc`` for one row tile ``Ai`` over the live
    column blocks ``blocks`` of :func:`_live_columns`, in ascending order:
    block ``(j, cols, Mj)`` reduces the tile K(Ai, B[j : j + TILE]), written
    into the flat buffers ``bufs``, against Mt's rows ``cols`` only (``Mj``),
    its product written into the flat buffer ``prod``.

    Each entry of the product is one dot of a tile row with one row of Mt,
    whatever other rows take part, and a skipped column or block would only
    add zeros (finite kernel values times zero) to ``acc``; so the result
    has the bits of reducing every tile against all of Mt.
    """
    rows = Ai.shape[0]
    for j, cols, Mj in blocks:
        part = prod[: rows * Mj.shape[0]].reshape(rows, -1)
        live = acc[:, cols]
        live += np.einsum("ij,kj->ik", _pairwise_unchecked(spec, Ai, B[j : j + TILE], bufs),
                          Mj, out=part)


def _row_tile_pass(spec: KernelSpec, A, B, blocks, out, workers: int) -> None:
    """Add K(A, B) @ Mt' to ``out``, over the live column blocks ``blocks``,
    on ``workers`` threads, the calling thread and ``workers - 1`` pool
    threads (no pool for one worker), each drawing one row tile at a time
    from one shared, lock-guarded iterator and reducing it with
    :func:`_tile_pass` until none is left.

    Each row tile is reduced by one thread over the same column tiles in the
    same order, so the result has the same bits whatever the number of
    workers.  The calling thread allocates every worker's buffers, since
    memory a pool thread allocates stays in that thread's malloc arena after
    it is freed.  numpy's floating-point error settings are per thread, so
    every worker takes the calling thread's: a split pass warns, or keeps
    quiet, as the serial one does.
    """
    rows, lock = iter(range(0, A.shape[0], TILE)), threading.Lock()
    tile_rows, cols = min(TILE, A.shape[0]), min(TILE, B.shape[0])
    err = np.geterr()

    def drain(bufs, prod):
        with np.errstate(**err):
            while True:
                with lock:
                    i = next(rows, None)
                if i is None:
                    return
                _tile_pass(spec, A[i : i + TILE], B, blocks, out[i : i + TILE], bufs, prod)

    jobs = [([np.empty(tile_rows * cols) for _ in range(_tiles_needed(spec))],
             np.empty(tile_rows * out.shape[1])) for _ in range(workers)]
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
    # A forked child inherits the pool but none of its threads, and the lock
    # in whatever state another thread left it.
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    from scipy.spatial.distance import cdist

    return _exp_scaled(spec, cdist(A, B, _DISTANCES[spec.family], out=K))


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


def gram(spec: KernelSpec, A, B=None) -> GramMatrix:
    """Kernel matrix between two point sets (``B`` defaults to ``A``).

    Args:
        spec: kernel description.
        A: (n, d) array of row vectors.
        B: optional (m, d) array; when omitted the symmetric PSD Gram of
            ``A`` with itself is returned.

    Returns:
        GramMatrix with ``values`` of shape (n, m).
    """
    values = pairwise(spec, A, A if B is None else B)
    return GramMatrix(values=values, spec=spec)


def lipschitz_constant(spec: KernelSpec) -> float:
    """Lipschitz constant of z -> k(z, anchor), in the family's native metric.

    See the module docstring for the per-family derivations; the constant is
    computed at construction time and merely read back here.
    """
    return spec.lipschitz


def median_heuristic(X, cap: int = 2000, seed: int = 0) -> float:
    """Median pairwise Euclidean distance of ``X``, a common rbf bandwidth pick.

    Subsamples to ``cap`` rows for large inputs.  This is a convenience for
    the command-line layer only; no bound in this package depends on how the
    bandwidth was chosen.
    """
    from scipy.spatial.distance import pdist

    X = _as_points(X, "X")
    if X.shape[0] > cap:
        from ._rng import rng_for

        idx = rng_for(seed, 981).choice(X.shape[0], size=cap, replace=False)
        X = X[idx]
    med = float(np.median(pdist(X)))
    if not np.isfinite(med) or med <= 0:
        raise ValidationError("median heuristic undefined: all points coincide")
    return med
