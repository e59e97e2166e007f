import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairmmd import (
    DomainError,
    ValidationError,
    eval_kernel,
    gram,
    kernel_matmul,
    kernel_sum,
    laplacian,
    linear,
    lipschitz_constant,
    median_heuristic,
    pairwise,
    product,
    rbf,
)
from fairmmd import kernels
from fairmmd.kernels import TILE
from conftest import STREAMED_SIZES, STREAMED_SPECS, assert_matches_dense, run_python


def _naive_rbf(a, b, sigma):
    return np.exp(-np.sum((a - b) ** 2) / (2.0 * sigma**2))


def _naive_laplacian(a, b, sigma):
    return np.exp(-np.sum(np.abs(a - b)) / sigma)


def test_rbf_matches_pointwise_formula():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(7, 3))
    B = rng.normal(size=(5, 3))
    K = pairwise(rbf(0.8), A, B)
    for i in range(7):
        for j in range(5):
            assert_allclose(K[i, j], _naive_rbf(A[i], B[j], 0.8), rtol=1e-12)


def test_laplacian_matches_pointwise_formula():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(6, 2))
    B = rng.normal(size=(6, 2))
    K = pairwise(laplacian(1.3), A, B)
    for i in range(6):
        for j in range(6):
            assert_allclose(K[i, j], _naive_laplacian(A[i], B[j], 1.3), rtol=1e-12)


def test_linear_is_dot_product():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 3))
    K = pairwise(linear(10.0), A, A)
    assert_allclose(K, A @ A.T, rtol=1e-14)


def test_gram_psd_all_families():
    """Gram matrices must be positive semidefinite for every family,
    including composites."""
    rng = np.random.default_rng(3)
    specs = [
        rbf(0.7),
        laplacian(1.1),
        linear(20.0),
        kernel_sum(rbf(0.5), linear(20.0)),
        product(rbf(0.9), laplacian(0.6), split=2),
    ]
    for trial in range(20):
        X = rng.normal(size=(12, 4))
        for spec in specs:
            K = pairwise(spec, X, X)
            evals = np.linalg.eigvalsh((K + K.T) / 2.0)
            assert evals.min() >= -1e-9, (spec.family, trial, evals.min())


def test_symmetry_and_diagonal():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(9, 3))
    for spec in (rbf(1.0), laplacian(2.0)):
        K = pairwise(spec, X, X)
        assert_allclose(K, K.T, atol=1e-15)
        assert_allclose(np.diag(K), 1.0, atol=1e-15)
    K = pairwise(linear(50.0), X, X)
    assert_allclose(np.diag(K), np.sum(X * X, axis=1), rtol=1e-14)


def test_amplitude_constants():
    assert rbf(0.5).nu == 1.0
    assert laplacian(2.0).nu == 1.0
    assert linear(3.0).nu == 9.0
    assert kernel_sum(rbf(1.0), linear(2.0)).nu == 5.0
    assert product(linear(2.0), rbf(1.0), split=1).nu == 4.0


def test_kernel_values_never_exceed_amplitude():
    rng = np.random.default_rng(5)
    for trial in range(30):
        X = rng.uniform(-1.0, 1.0, size=(10, 3))
        for spec in (rbf(0.6), laplacian(0.9), linear(np.sqrt(3.0)),
                     kernel_sum(rbf(1.0), linear(np.sqrt(3.0)))):
            K = pairwise(spec, X, X)
            assert K.max() <= spec.nu + 1e-12


def test_lipschitz_constants_documented_values():
    assert_allclose(rbf(2.0).lipschitz, np.exp(-0.5) / 2.0, rtol=1e-15)
    assert_allclose(laplacian(4.0).lipschitz, 0.25, rtol=1e-15)
    assert_allclose(linear(3.0).lipschitz, 3.0, rtol=1e-15)
    s = kernel_sum(rbf(1.0), linear(2.0))
    assert_allclose(s.lipschitz, np.exp(-0.5) + 2.0, rtol=1e-15)
    p = product(linear(2.0), rbf(1.0), split=1)
    # l = l1 * nu2 + l2 * nu1 with nu1 = 4, nu2 = 1
    assert_allclose(p.lipschitz, 2.0 * 1.0 + np.exp(-0.5) * 4.0, rtol=1e-15)
    assert lipschitz_constant(p) == p.lipschitz


def test_kernel_function_lipschitz_property():
    """|k(x, z) - k(y, z)| <= L * dist(x, y): the stored constant bounds the
    slope of the kernel in its first argument (laplacian in the L1 metric,
    the others in L2)."""
    rng = np.random.default_rng(6)
    for trial in range(50):
        x, y, z = rng.uniform(-1.0, 1.0, size=(3, 3))
        for spec in (rbf(0.7), laplacian(1.2), linear(np.sqrt(3.0))):
            gap = abs(eval_kernel(spec, x, z) - eval_kernel(spec, y, z))
            dist = (np.abs(x - y).sum() if spec.family == "laplacian"
                    else np.linalg.norm(x - y))
            assert gap <= spec.lipschitz * dist + 1e-9


def test_product_splits_coordinates():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(5, 2))
    v = rng.normal(size=(5, 3))
    X = np.hstack([u, v])
    spec = product(rbf(0.8), laplacian(1.5), split=2)
    K = pairwise(spec, X, X)
    expected = pairwise(rbf(0.8), u, u) * pairwise(laplacian(1.5), v, v)
    assert_allclose(K, expected, rtol=1e-13)


def test_sum_adds_values():
    rng = np.random.default_rng(8)
    X = rng.uniform(-0.5, 0.5, size=(6, 2))
    spec = kernel_sum(linear(1.0), rbf(0.4))
    assert_allclose(
        pairwise(spec, X, X),
        pairwise(linear(1.0), X, X) + pairwise(rbf(0.4), X, X),
        rtol=1e-13,
    )


def test_gram_carries_spec():
    X = np.zeros((3, 2))
    g = gram(rbf(1.0), X)
    assert g.values.shape == (3, 3)
    assert g.spec.family == "rbf"


def test_eval_kernel_scalar():
    v = eval_kernel(rbf(1.0), [0.0, 0.0], [1.0, 0.0])
    assert isinstance(v, float)
    assert_allclose(v, np.exp(-0.5), rtol=1e-14)


def test_linear_enforces_ball_domain():
    spec = linear(1.0)
    inside = np.array([[0.5, 0.5]]) / np.sqrt(2.0)
    pairwise(spec, inside, inside)  # fine
    with pytest.raises(DomainError):
        pairwise(spec, np.array([[2.0, 0.0]]), inside)


def test_product_checks_split_bounds():
    with pytest.raises(ValidationError):
        product(rbf(1.0), rbf(1.0), split=0)
    spec = product(rbf(1.0), rbf(1.0), split=3)
    with pytest.raises(ValidationError):
        pairwise(spec, np.zeros((2, 3)), np.zeros((2, 3)))


@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_aligned_rows_match_pairwise(family):
    """k(A[i], B[i]) from the aligned-row evaluation agrees with the
    diagonal of K(A, B) to 1e-14 relative for every family, at d = 3."""
    spec = STREAMED_SPECS[family]
    rng = np.random.default_rng(41)
    A, B = rng.normal(size=(400, 3)), rng.normal(size=(400, 3))
    B[:50] = A[:50]
    assert_allclose(kernels._aligned_unchecked(spec, A, B), np.diagonal(pairwise(spec, A, B)),
                    rtol=1e-14, atol=0)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("make", [rbf, laplacian], ids=["rbf", "laplacian"])
def test_aligned_rows_have_the_bits_of_pairwise(make, d):
    """At sigma = 0.7, whose scale is not a power of two, and d <= 2 the
    aligned rows have the bits of K(A, B)'s diagonal."""
    spec = make(0.7)
    rng = np.random.default_rng(42)
    A, B = rng.normal(size=(1000, d)), rng.normal(size=(1000, d))
    np.testing.assert_array_equal(kernels._aligned_unchecked(spec, A, B),
                                  np.diagonal(pairwise(spec, A, B)))


@pytest.mark.parametrize("make", [rbf, laplacian], ids=["rbf", "laplacian"])
def test_one_coordinate_tiles_have_the_bits_of_cdist(make):
    """At d = 1 the rbf and laplacian tiles take their distances from numpy,
    with the bits of scipy's cdist at several bandwidths and scales."""
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(43)
    for scale in (1e-3, 1.0, 1e3):
        A, B = rng.normal(size=(300, 1)) * scale, rng.normal(size=(TILE + 1, 1)) * scale
        B[:20] = A[:20]
        for sigma in (1e-3, 0.1, 0.5, 0.7, 1.0, 3.3):
            spec = make(sigma)
            want = kernels._exp_scaled(spec, cdist(A, B, kernels._DISTANCES[spec.family]))
            np.testing.assert_array_equal(pairwise(spec, A, B), want)


# Run in a fresh interpreter, where scipy is not loaded yet.
_ONE_COORDINATE_PASSES = """
import sys
import numpy as np
from fairmmd import kernels

rng = np.random.default_rng(44)
Z = rng.normal(size=(2 * kernels.TILE + 5, 2))
for spec, rows in ((kernels.rbf(0.7), Z[:, :1]), (kernels.laplacian(1.3), Z[:, 1:]),
                   (kernels.product(kernels.rbf(1.0), kernels.laplacian(2.0), split=1), Z)):
    kernels.kernel_matmul(spec, rows, rows, np.ones(Z.shape[0]))
assert not [m for m in sys.modules if m.startswith("scipy.spatial")], "scipy.spatial was imported"
"""


def test_one_coordinate_passes_never_import_scipy():
    proc = run_python(_ONE_COORDINATE_PASSES)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("sigma", [1e-160, 1e-300, 1e-320])
def test_bandwidth_scale_must_be_finite(sigma):
    """A bandwidth whose kernel scale, 1/(2 sigma^2) for rbf or 1/sigma for
    laplacian, overflows is refused and named."""
    with pytest.raises(ValidationError, match="sigma"):
        rbf(sigma)
    if 1.0 / sigma == np.inf:
        with pytest.raises(ValidationError, match="sigma"):
            laplacian(sigma)
    else:
        assert laplacian(sigma).sigma == sigma


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_bandwidth_must_be_positive(bad):
    with pytest.raises(ValidationError):
        rbf(bad)
    with pytest.raises(ValidationError):
        laplacian(bad)


def test_radius_must_be_positive():
    with pytest.raises(ValidationError):
        linear(0.0)


def test_shape_validation():
    with pytest.raises(ValidationError):
        pairwise(rbf(1.0), np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        pairwise(rbf(1.0), np.zeros((0, 2)), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        pairwise(rbf(1.0), np.array([[np.inf, 0.0]]), np.zeros((1, 2)))


def test_median_heuristic_small_oracle():
    # three points on a line: pairwise distances 1, 1, 2 -> median 1
    X = np.array([[0.0], [1.0], [2.0]])
    assert_allclose(median_heuristic(X), 1.0, rtol=1e-12)


def test_median_heuristic_subsampling_is_seeded():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(3000, 2))
    a = median_heuristic(X, cap=500, seed=3)
    b = median_heuristic(X, cap=500, seed=3)
    assert a == b and a > 0.0


def test_median_heuristic_matches_the_dense_upper_triangle():
    """The median has the bits of the median of the strict upper triangle of
    the dense distance matrix, duplicated rows included."""
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(21)
    for trial, n in enumerate((2, 3, 10, 57, 300, 2000)):
        X = rng.normal(size=(n, int(rng.integers(1, 9)))) * rng.choice([1e-3, 1.0, 1e3])
        if trial % 2:
            X = np.vstack([X, X[: n // 2 + 1]])
        D = cdist(X, X, "euclidean")
        want = float(np.median(D[np.triu_indices_from(D, k=1)]))
        assert np.float64(median_heuristic(X, cap=X.shape[0])).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("family", ["rbf", "linear"])
def test_square_pass_checks_its_rows_once(family, monkeypatch):
    """``kernel_matmul(spec, Z, Z, M)`` converts and checks ``Z`` once, and
    gives the bits of the pass whose B is a copy of ``Z``, checked twice."""
    from collections import Counter

    calls = Counter()
    for name in ("_as_points", "_check_domain"):
        def counted(*args, _name=name, _original=getattr(kernels, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(kernels, name, counted)
    spec = STREAMED_SPECS[family]
    rng = np.random.default_rng(5)
    Z, M = rng.normal(size=(300, 3)), rng.normal(size=(300, 2))
    out = kernel_matmul(spec, Z, Z, M)
    assert calls == {"_as_points": 1, "_check_domain": 1}
    calls.clear()
    assert np.array_equal(out, kernel_matmul(spec, Z, Z.copy(), M))
    assert calls == {"_as_points": 2, "_check_domain": 2}


@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_kernel_matmul_matches_dense_product(family):
    spec = STREAMED_SPECS[family]
    rng = np.random.default_rng(12)
    for n in STREAMED_SIZES:
        for m in STREAMED_SIZES:
            A = rng.normal(size=(n, 3))
            B = rng.normal(size=(m, 3)) + 0.3
            K = pairwise(spec, A, B)
            M = rng.uniform(-1.0, 1.0, size=(m, 3))
            assert_matches_dense(kernel_matmul(spec, A, B, M), K @ M)
            out = kernel_matmul(spec, A, B, M[:, 0])
            assert out.shape == (n,)
            assert_matches_dense(out, K @ M[:, 0])


def test_kernel_matmul_validates_inputs():
    A = np.zeros((4, 2))
    with pytest.raises(ValidationError):
        kernel_matmul(rbf(1.0), A, A, np.ones(3))
    with pytest.raises(ValidationError):
        kernel_matmul(rbf(1.0), A, A, np.full(4, np.nan))
    with pytest.raises(DomainError):
        kernel_matmul(rbf(1.0), A, np.zeros((4, 3)), np.ones(4))
    with pytest.raises(DomainError):
        kernel_matmul(linear(1.0), A + 2.0, A, np.ones(4))


@pytest.mark.parametrize("family", ["rbf", "laplacian", "linear"])
def test_kernel_matmul_duplicate_rows_get_identical_outputs(family):
    """An output row depends only on its own input row, so copies of a row at
    different places in (and across) tiles give bit-identical outputs."""
    spec = STREAMED_SPECS[family]
    rng = np.random.default_rng(13)
    A = rng.normal(size=(TILE + 50, 3))
    copies = [3, 130, TILE - 1, TILE + 7, TILE + 49]
    A[copies] = A[copies[0]]
    B = rng.normal(size=(TILE + 11, 3))
    for M in (rng.normal(size=TILE + 11), rng.normal(size=(TILE + 11, 5))):
        out = kernel_matmul(spec, A, B, M)
        for i in copies[1:]:
            np.testing.assert_array_equal(out[i], out[copies[0]])


@pytest.mark.parametrize("spec", [
    kernel_sum(linear(50.0), rbf(0.7)),
    product(linear(50.0), rbf(0.7), split=2),
], ids=["kernel_sum", "product"])
def test_row_in_a_one_row_tile_matches_its_copy(spec):
    """With 2 TILE + 1 rows the last row fills a tile on its own; under a
    kernel with a linear part its output still has the bits of its copy in
    the first tile."""
    rng = np.random.default_rng(17)
    A = rng.normal(size=(2 * TILE + 1, 3))
    A[2 * TILE] = A[0]
    B = rng.normal(size=(TILE + 11, 3))
    for M in (rng.normal(size=TILE + 11), rng.normal(size=(TILE + 11, 4))):
        out = kernel_matmul(spec, A, B, M)
        np.testing.assert_array_equal(out[2 * TILE], out[0])


def _tiled_reference(spec, A, B, M):
    """The serial tile loop, one fresh dense tile at a time."""
    Mt = np.ascontiguousarray(M.reshape(M.shape[0], -1).T)
    out = np.zeros((A.shape[0], Mt.shape[0]))
    for i in range(0, A.shape[0], TILE):
        for j in range(0, B.shape[0], TILE):
            tile = pairwise(spec, A[i : i + TILE], B[j : j + TILE])
            out[i : i + TILE] += np.einsum("ij,kj->ik", tile, Mt[:, j : j + TILE])
    return out.reshape(A.shape[0]) if M.ndim == 1 else out


@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_row_split_is_bit_identical_to_serial(family, monkeypatch):
    """A pass split across 1, 2 or 3 workers gives the bits of the serial
    tile loop: square and rectangular passes, 1 and 4 columns of M, a one-hot
    M in cell order, an M with an all-zero column tile and with zero columns
    inside another tile's live range, row counts that split unevenly, and
    copies of a row on both sides of a boundary."""
    spec = STREAMED_SPECS[family]
    rng = np.random.default_rng(31)
    pools = []

    def counting_pool():
        pools.append(1)
        return real_pool()

    real_pool = kernels._pool
    monkeypatch.setattr(kernels, "_pool", counting_pool)
    for n, m in ((3 * TILE + 37, None), (2 * TILE + 3, 5 * TILE + 20), (4 * TILE, 3 * TILE - 5)):
        A = rng.normal(size=(n, 3))
        copies = [0, TILE - 1, TILE, 2 * TILE - 1, 2 * TILE]
        A[copies] = A[copies[0]]
        B = A if m is None else rng.normal(size=(m, 3))
        vec, dense = rng.normal(size=B.shape[0]), rng.normal(size=(B.shape[0], 4))
        cells = np.arange(B.shape[0]) * 4 // B.shape[0]
        sparse = dense.copy()
        sparse[TILE : 2 * TILE] = 0.0
        sparse[:TILE, 1:3] = 0.0
        for M in (vec, dense, (cells[:, None] == np.arange(4)).astype(float), sparse):
            want = None if family == "linear" else _tiled_reference(spec, A, B, M)
            for workers in (1, 2, 3):
                monkeypatch.setattr(kernels, "_WORKERS", workers)
                got = kernels._matmul_unchecked(spec, A, B, M)
                if want is None:
                    want = got
                np.testing.assert_array_equal(got, want, err_msg=f"{n}x{B.shape[0]}, {workers} workers")
                for i in copies[1:]:
                    np.testing.assert_array_equal(got[i], got[copies[0]])
    assert pools or family == "linear"


def test_all_zero_column_tile_is_never_evaluated(monkeypatch):
    """A column tile on which M is all zero costs no kernel tile: with the
    middle of three column tiles zeroed, a pass over two row tiles evaluates
    the four other tiles and gives the bits of the serial tile loop; with M
    all zero it evaluates none and gives zeros."""
    rng = np.random.default_rng(39)
    A, B = rng.normal(size=(2 * TILE, 2)), rng.normal(size=(3 * TILE, 2))
    M = rng.normal(size=(3 * TILE, 3))
    M[TILE : 2 * TILE] = 0.0
    starts, real = [], kernels._pairwise_unchecked
    base = B.__array_interface__["data"][0]

    def counting(spec, Ai, Bj, *args):
        starts.append((Bj.__array_interface__["data"][0] - base) // B.strides[0])
        return real(spec, Ai, Bj, *args)

    monkeypatch.setattr(kernels, "_pairwise_unchecked", counting)
    got = kernels._matmul_unchecked(rbf(1.0), A, B, M)
    assert sorted(starts) == [0, 0, 2 * TILE, 2 * TILE]
    starts.clear()
    assert not kernels._matmul_unchecked(rbf(1.0), A, B, np.zeros((3 * TILE, 2))).any()
    assert starts == []
    monkeypatch.setattr(kernels, "_pairwise_unchecked", real)
    np.testing.assert_array_equal(got, _tiled_reference(rbf(1.0), A, B, M))


def test_small_pass_never_uses_the_pool(monkeypatch):
    """Below two tiles of work per worker, or with a single row tile, a pass
    runs serially and never asks for the pool."""

    def no_pool():
        raise AssertionError("a small pass asked for the pool")

    monkeypatch.setattr(kernels, "_pool", no_pool)
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    rng = np.random.default_rng(32)
    spec = STREAMED_SPECS["product"]
    for n, m in ((TILE + 2, TILE + 2), (2 * TILE - 1, 2 * TILE - 1), (TILE, 20 * TILE)):
        A, B = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
        M = rng.normal(size=(m, 4))
        np.testing.assert_array_equal(kernels._matmul_unchecked(spec, A, B, M),
                                      _tiled_reference(spec, A, B, M))
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    A = rng.normal(size=(4 * TILE, 3))
    kernels._matmul_unchecked(spec, A, A, np.ones(4 * TILE))


@pytest.mark.parametrize("workers", [2, 3])
def test_split_pass_reduces_each_row_tile_once(monkeypatch, workers):
    """The hand-out gives every row tile to exactly one thread: the rows
    :func:`kernels._tile_pass` reduces are the row tiles of the pass, each
    once, and the result has the serial bits."""
    rng = np.random.default_rng(37)
    A, M = rng.normal(size=(5 * TILE + 17, 2)), rng.normal(size=(5 * TILE + 17, 3))
    starts, real = [], kernels._tile_pass
    base = A.__array_interface__["data"][0]

    def counting(spec, Ai, *args):
        starts.append((Ai.__array_interface__["data"][0] - base) // A.strides[0])
        assert Ai.shape[0] == min(TILE, A.shape[0] - starts[-1])
        return real(spec, Ai, *args)

    monkeypatch.setattr(kernels, "_tile_pass", counting)
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    got = kernels._matmul_unchecked(rbf(1.0), A, A, M)
    assert sorted(starts) == list(range(0, A.shape[0], TILE))
    np.testing.assert_array_equal(got, _tiled_reference(rbf(1.0), A, A, M))


def test_error_in_a_pool_thread_reaches_the_caller(monkeypatch):
    """A tile that raises on a pool thread fails the pass in the calling
    thread, and the next pass still has the serial bits."""
    rng = np.random.default_rng(38)
    A = rng.normal(size=(6 * TILE, 2))
    caller, real = threading.get_ident(), kernels._tile_pass

    def failing(*args):
        if threading.get_ident() != caller:
            raise RuntimeError("tile failed on a pool thread")
        time.sleep(0.05)  # leaves the pool thread time to draw a tile
        return real(*args)

    monkeypatch.setattr(kernels, "_WORKERS", 2)
    monkeypatch.setattr(kernels, "_tile_pass", failing)
    with pytest.raises(RuntimeError, match="pool thread"):
        kernels._matmul_unchecked(rbf(1.0), A, A, np.ones(A.shape[0]))
    monkeypatch.setattr(kernels, "_tile_pass", real)
    np.testing.assert_array_equal(kernels._matmul_unchecked(rbf(1.0), A, A, np.ones(A.shape[0])),
                                  _tiled_reference(rbf(1.0), A, A, np.ones(A.shape[0])))


def test_split_pass_keeps_the_callers_error_settings(monkeypatch):
    """Pool threads compute under the calling thread's numpy error settings:
    under np.errstate(all="ignore") a split pass over rows whose differences
    overflow is as quiet as a serial one."""
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    A = np.full((8 * TILE, 1), 1e308)
    A[::2] = -1e308
    with np.errstate(all="ignore"):
        got = kernels._matmul_unchecked(rbf(1.0), A, A, np.ones(8 * TILE))
    np.testing.assert_array_equal(got, 4 * TILE)


def _split_pass_in_child(conn):
    from fairmmd import kernels

    kernels._WORKERS = 2
    A = np.random.default_rng(34).normal(size=(3 * TILE, 2))
    conn.send(kernels._matmul_unchecked(rbf(1.0), A, A, np.ones(3 * TILE)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_a_fresh_pool(monkeypatch):
    """A child forked after the pool started (whose threads it does not
    inherit) still completes a split pass."""
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    A = np.random.default_rng(34).normal(size=(3 * TILE, 2))
    want = kernels._matmul_unchecked(rbf(1.0), A, A, np.ones(3 * TILE))
    assert kernels._POOL is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_split_pass_in_child, args=(send,))
    child.start()
    try:
        assert recv.poll(60), "the forked child's kernel pass did not finish"
        np.testing.assert_array_equal(recv.recv(), want)
    finally:
        child.kill()
        child.join()


def test_concurrent_callers_share_one_pool(monkeypatch):
    """Callers on several threads, with more workers than CPUs and frequent
    thread switches, each get the serial bits, and only one pool is made."""
    made = []

    class CountingPool(kernels.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.05)  # widens the window a missing lock would leave
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(kernels, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(kernels, "_POOL", None)
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    spec = STREAMED_SPECS["product"]
    rng = np.random.default_rng(35)
    inputs = [(rng.normal(size=(3 * TILE + 9, 3)), rng.normal(size=(3 * TILE + 9, 2)))
              for _ in range(4)]
    wants = [_tiled_reference(spec, A, A, M) for A, M in inputs]
    gots = [[] for _ in inputs]
    start = threading.Barrier(len(inputs))

    def call(k):
        A, M = inputs[k]
        start.wait(timeout=60)
        for _ in range(3):
            gots[k].append(kernels._matmul_unchecked(spec, A, A, M))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert len(made) == 1
    for got, want in zip(gots, wants):
        assert len(got) == 3
        for out in got:
            np.testing.assert_array_equal(out, want)


# Run in a fresh interpreter: scipy's distance module is not loaded yet, so
# the calling thread and a pool thread both reach its import in their first
# tile, and the split pass must still give the serial pass's bits.
_FIRST_PASS_IS_SPLIT = """
import sys
import numpy as np
from fairmmd import kernels

assert "scipy.spatial.distance" not in sys.modules
kernels._WORKERS = 2
spec = kernels.{family}(1.0)
rng = np.random.default_rng(36)
A, M = rng.normal(size=(3 * kernels.TILE, 2)), rng.normal(size=(3 * kernels.TILE, 2))
split = kernels.kernel_matmul(spec, A, A, M)
assert kernels._POOL is not None, "the pass ran serially"
kernels._WORKERS = 1
serial = kernels.kernel_matmul(spec, A, A, M)
np.testing.assert_array_equal(split, serial)
"""


@pytest.mark.parametrize("family", ["rbf", "laplacian"])
def test_first_pass_of_a_process_may_be_split(family):
    proc = run_python(_FIRST_PASS_IS_SPLIT.format(family=family))
    assert proc.returncode == 0, proc.stderr
