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
    kernel_matmul,
    kernel_sum,
    laplacian,
    linear,
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


def _public_pairwise(spec, A, B):
    """K(A, B) with every distance from scipy's public ``cdist``."""
    from scipy.spatial.distance import cdist

    if spec.family == "product":
        s = spec.split
        return (_public_pairwise(spec.parts[0], A[:, :s], B[:, :s])
                * _public_pairwise(spec.parts[1], A[:, s:], B[:, s:]))
    if spec.family == "sum":
        return _public_pairwise(spec.parts[0], A, B) + _public_pairwise(spec.parts[1], A, B)
    return kernels._exp_scaled(spec, cdist(A, B, kernels._DISTANCES[spec.family]))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_distance_routines_have_the_bits_of_cdist(d):
    """The routines loaded from scipy's extension give the public cdist's
    bits with and without ``out=``, on contiguous rows and on the column
    slices that the parts of a product or sum kernel get, and pdist's bits."""
    from scipy.spatial.distance import cdist, pdist

    routines = kernels._distance_routines()
    rng = np.random.default_rng(45)
    Z, W = rng.normal(size=(300, d + 3)), rng.normal(size=(TILE + 1, d + 3)) * 2.0
    for A, B in ((Z[:, :d].copy(), W[:, :d].copy()), (Z[:, 2 : 2 + d], W[:, 1 : 1 + d])):
        for metric in ("sqeuclidean", "cityblock"):
            want = cdist(A, B, metric)
            routine = routines["cdist_" + metric]
            np.testing.assert_array_equal(routine(A, B), want)
            out = np.empty((A.shape[0], B.shape[0]))
            assert routine(A, B, out=out) is out
            np.testing.assert_array_equal(out, want)
    X = Z[:, 1:4]
    np.testing.assert_array_equal(routines["pdist_euclidean"](X), pdist(X))
    np.testing.assert_array_equal(routines["pdist_euclidean"](X.copy()), pdist(X))


@pytest.mark.parametrize("spec", [rbf(0.7), laplacian(1.3),
                                  product(rbf(1.0), laplacian(2.0), split=2),
                                  kernel_sum(laplacian(1.3), rbf(0.7))],
                         ids=["rbf", "laplacian", "product", "sum"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_tiles_of_several_coordinates_have_the_bits_of_cdist(spec, d):
    """At d >= 2 (in each part of a product or sum kernel too) ``pairwise``
    has the bits of the kernel matrix built from the public cdist, and square
    and rectangular ``kernel_matmul`` passes agree with it."""
    if spec.family == "product":
        d += 2
    rng = np.random.default_rng(46)
    A, B = rng.normal(size=(TILE + 37, d)), rng.normal(size=(2 * TILE + 5, d)) + 0.3
    M = rng.uniform(-1.0, 1.0, size=(B.shape[0], 3))
    for rows in (A, B):
        K = _public_pairwise(spec, rows, B)
        np.testing.assert_array_equal(pairwise(spec, rows, B), K)
        assert_matches_dense(kernel_matmul(spec, rows, B, M), K @ M)


@pytest.mark.parametrize("failure", ["missing", "load", "names"])
def test_distance_routines_fall_back_to_the_public_functions(failure, monkeypatch):
    """When scipy's extension file is missing, fails to load or lacks a
    routine, the tiles and the median heuristic call the public ``cdist`` and
    ``pdist``, with the same bits."""
    import importlib.machinery
    import types

    from scipy.spatial.distance import cdist, pdist

    rng = np.random.default_rng(47)
    A, B = rng.normal(size=(TILE + 37, 3)), rng.normal(size=(40, 3))
    specs = (rbf(0.7), laplacian(1.3))
    wants = [pairwise(spec, A, B) for spec in specs] + [median_heuristic(A)]

    def refuse(self, spec):
        raise ImportError("refused")

    monkeypatch.setattr(kernels, "_ROUTINES", None)
    if failure == "names":
        monkeypatch.setitem(sys.modules, kernels._EXTENSION, types.ModuleType(kernels._EXTENSION))
    else:
        monkeypatch.delitem(sys.modules, kernels._EXTENSION)
        if failure == "missing":
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        else:
            monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", refuse)
    routines = kernels._distance_routines()
    assert [routines[name].func for name in sorted(routines)] == [cdist, cdist, pdist]
    gots = [pairwise(spec, A, B) for spec in specs] + [median_heuristic(A)]
    for got, want in zip(gots, wants):
        np.testing.assert_array_equal(got, want)


# Run in a fresh interpreter, where scipy is not loaded yet.
_DISTANCE_PASSES = """
import sys
import numpy as np
from fairmmd import kernels

rng = np.random.default_rng(48)
Z = rng.normal(size=(2 * kernels.TILE + 5, 2))
for spec in (kernels.rbf(0.7), kernels.laplacian(1.3)):
    kernels.kernel_matmul(spec, Z, Z, np.ones(Z.shape[0]))
kernels.median_heuristic(Z)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == [kernels._EXTENSION], loaded
module = sys.modules[kernels._EXTENSION]
import scipy.spatial.distance

assert scipy.spatial.distance._distance_pybind is module
assert all(routine is getattr(module, name)
           for name, routine in kernels._distance_routines().items())
"""


def test_distance_passes_load_only_scipys_extension():
    """d = 2 rbf and laplacian passes and the median heuristic load scipy's
    compiled distance module alone, not ``scipy.spatial.distance`` or
    ``scipy.sparse``, and a later public import reuses that module."""
    proc = run_python(_DISTANCE_PASSES)
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


def test_median_heuristic_refuses_fewer_than_two_rows():
    """One row, or a subsample of one, has no pairwise distance: it is
    refused by its own message, before numpy takes the median of no
    distances and warns."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="got 1 rows and cap 2000"):
            median_heuristic(np.array([[0.1, 0.2]]))
        with pytest.raises(ValidationError, match="got 10 rows and cap 1"):
            median_heuristic(np.arange(20.0).reshape(10, 2), cap=1)


def test_median_heuristic_refusal_loads_no_scipy():
    """Too few rows or too small a cap is refused before scipy's distance
    routines are loaded."""
    proc = run_python(
        "import sys\n"
        "import numpy as np\n"
        "from fairmmd import ValidationError, median_heuristic\n"
        "for X, cap in ((np.zeros((1, 2)), 2000), (np.zeros((10, 2)), 1)):\n"
        "    try:\n"
        "        median_heuristic(X, cap=cap)\n"
        "    except ValidationError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError('not refused')\n"
        "assert not [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
    )
    assert proc.returncode == 0, proc.stderr


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


def test_groups_reduce_each_column_tile_against_its_own_columns(monkeypatch):
    """A pass given ``groups`` (ascending labels of B's rows, where M's
    column g is nonzero only on the rows labelled g) reduces each column
    tile against the columns from its first row's label to its last row's
    only, and has the bits of the serial tile loop, rectangular or square,
    on one worker or two.  Without ``groups`` every tile is evaluated and
    reduced against every column, even where M is all zero."""
    rng = np.random.default_rng(39)
    groups = np.repeat(np.arange(4), [TILE + 10, TILE - 30, 40, TILE + 7])
    m = groups.size
    M = np.where(groups[:, None] == np.arange(4), rng.normal(size=(m, 4)), 0.0)
    spans = [groups[min(j + TILE, m) - 1] - groups[j] + 1 for j in range(0, m, TILE)]
    assert spans == [1, 3, 2, 1]
    widths, tiles = [], []
    real_reduced, real_pairwise = kernels._reduced, kernels._pairwise_unchecked

    def reducing(K, Mj, prod):
        widths.append(Mj.shape[0])
        return real_reduced(K, Mj, prod)

    def evaluating(*args):
        tiles.append(1)
        return real_pairwise(*args)

    monkeypatch.setattr(kernels, "_reduced", reducing)
    B = rng.normal(size=(m, 2))
    for A in (rng.normal(size=(2 * TILE, 2)), B):
        want = _tiled_reference(rbf(1.0), A, B, M)
        row_tiles = -(-A.shape[0] // TILE)
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            widths.clear()
            got = kernels._matmul_unchecked(rbf(1.0), A, B, M, groups)
            assert sorted(widths) == sorted(spans * row_tiles), f"{workers} workers"
            np.testing.assert_array_equal(got, want, err_msg=f"{workers} workers")
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    A = rng.normal(size=(2 * TILE, 2))
    dead = rng.normal(size=(m, 3))
    dead[TILE : 2 * TILE] = 0.0
    for coefs in (dead, np.zeros((m, 3))):
        want = _tiled_reference(rbf(1.0), A, B, coefs)
        widths.clear()
        tiles.clear()
        monkeypatch.setattr(kernels, "_pairwise_unchecked", evaluating)
        got = kernels._matmul_unchecked(rbf(1.0), A, B, coefs)
        monkeypatch.setattr(kernels, "_pairwise_unchecked", real_pairwise)
        assert len(tiles) == 2 * len(spans) and widths == [3] * len(tiles)
        np.testing.assert_array_equal(got, want)
    assert not got.any()


@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_tiles_are_symmetric_bit_for_bit(family):
    """K(Y, X) is the transpose of K(X, Y) bit for bit, which lets a square
    pass hand one tile's transposed copy to the mirrored row tile."""
    spec = STREAMED_SPECS[family]
    rng = np.random.default_rng(40)
    for d in range(2 if family == "product" else 1, 6):
        for n, m in ((TILE, TILE), (TILE, 37), (5, TILE - 3)):
            X, Y = rng.normal(size=(n, d)), rng.normal(size=(m, d)) + 0.2
            np.testing.assert_array_equal(pairwise(spec, X, Y), pairwise(spec, Y, X).T)


def test_tile_rows_are_cache_line_aligned_and_not_a_power_of_two_apart():
    """A row of TILE doubles is a whole number of 64-byte cache lines but
    not a power of two of bytes: with 2048-byte rows (TILE = 256) every
    other row of a tile maps to the same cache sets, and the transposed copy
    of a square pass's mirrored tile took two to three times as long."""
    row_bytes = TILE * 8
    assert row_bytes % 64 == 0
    assert row_bytes & (row_bytes - 1) != 0


# The product kernel splits at 1, so its rows need d >= 2.
_SQUARE_CASES = [(family, d) for family in sorted(STREAMED_SPECS) for d in (1, 2, 3)
                 if not (family == "product" and d == 1)]


@pytest.mark.parametrize("family,d", _SQUARE_CASES)
def test_square_pass_is_bit_identical_to_the_tile_loop(family, d, monkeypatch):
    """A square pass, which evaluates each pair of tiles once, gives the bits
    of the serial loop over every tile on 1, 2 and 3 workers, and the dense
    product to 1e-12: a vector M, three dense columns, a one-hot in cell
    order, and an M with an all-zero column tile and zero columns in
    another tile's live range.  The linear kernel forms no tiles; its passes
    agree across worker counts."""
    spec = STREAMED_SPECS[family]
    rng = np.random.default_rng(41)
    for n in (TILE - 3, TILE + 37, 3 * TILE + 37, 5 * TILE):
        A = rng.normal(size=(n, d))
        cells = np.arange(n) * 4 // n
        dense = rng.normal(size=(n, 3))
        sparse = dense.copy()
        sparse[TILE : 2 * TILE] = 0.0
        sparse[:TILE, 1] = 0.0
        K = pairwise(spec, A, A)
        for M in (dense[:, 0], dense, (cells[:, None] == np.arange(4)).astype(float), sparse):
            want = None if family == "linear" else _tiled_reference(spec, A, A, M)
            for workers in (1, 2, 3):
                monkeypatch.setattr(kernels, "_WORKERS", workers)
                got = kernels._matmul_unchecked(spec, A, A, M)
                if want is None:
                    want = got
                np.testing.assert_array_equal(got, want, err_msg=f"n={n}, {workers} workers")
            assert_matches_dense(want, K @ M)


def test_square_pass_evaluates_each_tile_pair_once(monkeypatch):
    """A square pass over T row tiles evaluates T(T+1)/2 tiles, on one
    worker or two, whether M is dense, has an all-zero column tile or is
    all zero, and a rectangular pass still evaluates all T^2."""
    calls, real = [], kernels._pairwise_unchecked

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernels, "_pairwise_unchecked", counting)
    rng = np.random.default_rng(42)
    T = 5
    A, M = rng.normal(size=(T * TILE - 9, 2)), rng.normal(size=(T * TILE - 9, 2))
    dead = M.copy()
    dead[TILE : 2 * TILE] = 0.0
    for workers in (1, 2):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        for coefs in (M, dead, np.zeros_like(M)):
            calls.clear()
            kernels._matmul_unchecked(rbf(1.0), A, A, coefs)
            assert len(calls) == T * (T + 1) // 2, f"{workers} workers"
        calls.clear()
        kernels._matmul_unchecked(rbf(1.0), A, A.copy(), M)
        assert len(calls) == T * T


def test_cell_sums_make_a_square_pass_with_the_bits_of_the_data_order_pass(monkeypatch):
    """``cell_sums`` passes its rows sorted by cell on both sides, and its
    rows, blocks and diagonal sums have the bits of the pass whose output
    rows stay in data order."""
    from fairmmd import cell_sums, mmd, sample_population
    from fairmmd.kernels import _aligned_unchecked
    from conftest import make_population

    squares, real = [], mmd._matmul_unchecked

    def spying(spec, A, B, M, groups=None, **kw):
        squares.append(A is B)
        return real(spec, A, B, M, groups, **kw)

    monkeypatch.setattr(kernels, "_WORKERS", 2)
    data = sample_population(make_population(p=((0.7, 0.3), (0.3, 0.7))), 3 * TILE + 41, seed=4)
    for spec in (rbf(0.8), laplacian(1.3)):
        monkeypatch.setattr(mmd, "_matmul_unchecked", spying)
        sums = cell_sums(spec, data)
        monkeypatch.setattr(mmd, "_matmul_unchecked", real)
        onehot = (data.cell[:, None] == np.arange(4)).astype(float)
        order = np.argsort(data.cell, kind="stable")
        rows = kernel_matmul(spec, data.z, data.z[order], onehot[order])
        np.testing.assert_array_equal(sums.rows, rows)
        np.testing.assert_array_equal(sums.block, onehot.T @ rows)
        np.testing.assert_array_equal(
            sums.diag, np.bincount(data.cell, _aligned_unchecked(spec, data.z, data.z), 4))
    assert squares == [True, True]


def test_square_pass_memory_grows_linearly_with_n(monkeypatch):
    """A split square pass keeps the products that arrive early in buffers
    of O(workers n k) floats, never O(n^2 / TILE): doubling n at most about
    doubles the traced peak."""
    import tracemalloc

    monkeypatch.setattr(kernels, "_WORKERS", 2)
    rng = np.random.default_rng(43)
    A = rng.normal(size=(4 * TILE, 2))
    kernels._matmul_unchecked(rbf(1.0), A, A, A)  # imports cdist and starts the pool
    peaks = []
    for n in (16 * TILE, 32 * TILE):
        A, M = rng.normal(size=(n, 2)), rng.normal(size=(n, 4))
        tracemalloc.start()
        try:
            kernels._matmul_unchecked(rbf(1.0), A, A, M)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0], peaks


def test_slow_thread_does_not_stall_the_pass(monkeypatch):
    """While the calling thread holds its first tile pair, (0, 0) or, if the
    pool thread took that one, (0, 1), the pool thread takes every other
    pair rather than stopping: the products that arrive
    before their turn wait, never more than 2 workers (column tiles - 1) of
    them at once, and the pass has the serial bits."""
    rng = np.random.default_rng(44)
    T = 12
    A, M = rng.normal(size=(T * TILE, 2)), rng.normal(size=(T * TILE, 2))
    caller, real = threading.get_ident(), kernels._tile_pass
    mine, theirs = [], []
    caller_holds, rest_done = threading.Event(), threading.Event()
    real_deliver, peak = kernels._InOrderSink.deliver, [0]

    def slow_first(spec, A, B, blocks, t, k, *args):
        if threading.get_ident() == caller:
            mine.append((t, k))
            if len(mine) == 1:  # holds its first pair until the pool thread is done
                caller_holds.set()
                assert rest_done.wait(60), "the pool thread stopped before the pairs ran out"
            return real(spec, A, B, blocks, t, k, *args)
        assert caller_holds.wait(60)
        real(spec, A, B, blocks, t, k, *args)
        theirs.append((t, k))
        if len(theirs) == T * (T + 1) // 2 - 1:
            rest_done.set()

    def deliver(sink, *args):
        real_deliver(sink, *args)
        peak[0] = max(peak[0], len(sink.waiting))

    monkeypatch.setattr(kernels, "_WORKERS", 2)
    monkeypatch.setattr(kernels, "_tile_pass", slow_first)
    monkeypatch.setattr(kernels._InOrderSink, "deliver", deliver)
    got = kernels._matmul_unchecked(rbf(1.0), A, A, M)
    monkeypatch.setattr(kernels, "_tile_pass", real)
    assert len(mine) == 1 and mine[0] in ((0, 0), (0, 1)), mine
    assert 0 < peak[0] <= 2 * 2 * (T - 1), peak
    np.testing.assert_array_equal(got, _tiled_reference(rbf(1.0), A, A, M))


@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_blas_reduced_pass_matches_the_dense_product(family, monkeypatch):
    """A square pass that is not row-stable (tiles reduced by BLAS) equals
    the dense product pairwise(spec, A, A) @ M to rounding, with and without
    ``groups``, for n from 1 to 3 TILE + 41 and 1-5 columns, and has the same
    bits on 1, 2 and 3 workers, without an einsum reduction.  The linear
    kernel keeps its closed form, bit for bit."""
    spec = STREAMED_SPECS[family]
    rng = np.random.default_rng(50)
    real_reduced = kernels._reduced

    def no_einsum(*args):
        raise AssertionError("a BLAS-reduced pass reduced a tile by einsum")

    for n in (1, TILE - 1, TILE, TILE + 1, 3 * TILE + 41):
        A = rng.normal(size=(n, 3))
        K = pairwise(spec, A, A)
        for k in range(1, 6):
            groups = np.sort(rng.integers(0, k, size=n))
            dense = rng.normal(size=(n, k))
            for M, labels in ((dense, None),
                              (np.where(groups[:, None] == np.arange(k), dense, 0.0), groups)):
                got = []
                monkeypatch.setattr(kernels, "_reduced", no_einsum)
                for workers in (1, 2, 3):
                    monkeypatch.setattr(kernels, "_WORKERS", workers)
                    got.append(kernels._matmul_unchecked(spec, A, A, M, labels, row_stable=False))
                    np.testing.assert_array_equal(got[-1], got[0],
                                                  err_msg=f"n={n}, k={k}, {workers} workers")
                monkeypatch.setattr(kernels, "_reduced", real_reduced)
                if family == "linear":
                    np.testing.assert_array_equal(got[0], kernels._matmul_unchecked(spec, A, A, M))
                else:
                    assert_allclose(got[0], K @ M, rtol=1e-12,
                                    atol=1e-12 * (np.abs(K) @ np.abs(M)).max())


@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_one_tile_pass_runs_inline_with_the_bits_of_the_tile_loop(family, monkeypatch):
    """A pass of one tile pair, square or rectangular, with and without
    ``groups``, for 1, 2, TILE - 1 and TILE rows on each side, builds no
    sink and never asks for the pool, and has the bits of the tile loop:
    ``_tiled_reference`` when row-stable, one BLAS product of the dense
    tile when not.  Rows have one and two coordinates (for the product
    kernel, each part gets one and two).  The linear kernel forms no tile
    and matches the dense product to rounding."""

    def not_inline(*args, **kwargs):
        raise AssertionError("a one-tile pass built a sink or asked for the pool")

    monkeypatch.setattr(kernels, "_pool", not_inline)
    monkeypatch.setattr(kernels, "_InOrderSink", not_inline)
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    spec = STREAMED_SPECS[family]
    rng = np.random.default_rng(51)
    sizes = (1, 2, TILE - 1, TILE)
    for d in (1, 2):
        d += spec.split or 0
        for n, m in [(n, None) for n in sizes] + [(n, m) for n in sizes for m in sizes]:
            A = rng.normal(size=(n, d))
            B = A if m is None else rng.normal(size=(m, d))
            groups = np.sort(rng.integers(0, 3, size=B.shape[0]))
            dense = rng.normal(size=(B.shape[0], 3))
            for M, labels in ((dense, None),
                              (np.where(groups[:, None] == np.arange(3), dense, 0.0), groups)):
                K, where = pairwise(spec, A, B), f"d={d}, n={n}, m={m}, groups={labels is not None}"
                stable = kernels._matmul_unchecked(spec, A, B, M, labels)
                blas = kernels._matmul_unchecked(spec, A, B, M, labels, row_stable=False)
                if family == "linear":
                    assert_matches_dense(stable, K @ M)
                    np.testing.assert_array_equal(blas, stable, err_msg=where)
                    continue
                cols = slice(None) if labels is None else slice(labels[0], labels[-1] + 1)
                want = np.zeros((A.shape[0], M.shape[1]))
                want[:, cols] += K @ np.ascontiguousarray(M.T)[cols].T
                np.testing.assert_array_equal(stable, _tiled_reference(spec, A, B, M),
                                              err_msg=where)
                np.testing.assert_array_equal(blas, want, err_msg=where)


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
def test_split_pass_hands_out_each_tile_pair_once(monkeypatch, workers):
    """The hand-out gives every tile pair to exactly one thread: the pairs
    (t, k) :func:`kernels._tile_pass` receives are the upper triangle
    k >= t of a square pass and every pair of a rectangular one, each
    once, and the result has the serial bits."""
    rng = np.random.default_rng(37)
    A, M = rng.normal(size=(5 * TILE + 17, 2)), rng.normal(size=(5 * TILE + 17, 3))
    B = rng.normal(size=(3 * TILE + 5, 2))
    pairs, real = [], kernels._tile_pass

    def counting(spec, A, B, blocks, t, k, *args):
        pairs.append((t, k))
        return real(spec, A, B, blocks, t, k, *args)

    monkeypatch.setattr(kernels, "_tile_pass", counting)
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    got = kernels._matmul_unchecked(rbf(1.0), A, A, M)
    assert sorted(pairs) == [(t, k) for t in range(6) for k in range(t, 6)]
    np.testing.assert_array_equal(got, _tiled_reference(rbf(1.0), A, A, M))
    pairs.clear()
    got = kernels._matmul_unchecked(rbf(1.0), A, B, M[: B.shape[0]])
    assert sorted(pairs) == [(t, k) for t in range(6) for k in range(4)]
    np.testing.assert_array_equal(got, _tiled_reference(rbf(1.0), A, B, M[: B.shape[0]]))


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


# Run in a fresh interpreter: scipy's distance routines are not loaded yet,
# so the calling thread and a pool thread both ask for them in their first
# tile; the extension must be loaded once and the split pass must still give
# the serial pass's bits.
_FIRST_PASS_IS_SPLIT = """
import sys
import numpy as np
from fairmmd import kernels

assert "scipy.spatial.distance" not in sys.modules
assert kernels._EXTENSION not in sys.modules
# Each load of scipy's extension is counted and held for 50 ms, long enough
# for the other thread to reach its first tile.
import importlib.machinery
import time
loads = []
create = importlib.machinery.ExtensionFileLoader.create_module
def counted(self, spec):
    if spec.name == kernels._EXTENSION:
        loads.append(spec.name)
        time.sleep(0.05)
    return create(self, spec)
importlib.machinery.ExtensionFileLoader.create_module = counted
kernels._WORKERS = 2
spec = kernels.{family}(1.0)
rng = np.random.default_rng(36)
A, M = rng.normal(size=(3 * kernels.TILE, 2)), rng.normal(size=(3 * kernels.TILE, 2))
split = kernels.kernel_matmul(spec, A, A, M)
assert kernels._POOL is not None, "the pass ran serially"
assert len(loads) == 1, loads
kernels._WORKERS = 1
serial = kernels.kernel_matmul(spec, A, A, M)
np.testing.assert_array_equal(split, serial)
"""


@pytest.mark.parametrize("family", ["rbf", "laplacian"])
def test_first_pass_of_a_process_may_be_split(family):
    proc = run_python(_FIRST_PASS_IS_SPLIT.format(family=family))
    assert proc.returncode == 0, proc.stderr
