import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairmmd import (
    LabeledDataset,
    SizeError,
    TrainConfig,
    ValidationError,
    eok_hat_bootstrap,
    eok_hat_plugin,
    eval_kernel,
    gamma_biased,
    laplacian,
    linear,
    mmd2_biased,
    mmd2_linear_time,
    mmd2_unbiased,
    objective_gradient,
    pairwise,
    rbf,
    sup_dp,
    witness_eval,
)
from fairmmd.mmd import cell_sums
from conftest import STREAMED_SIZES, STREAMED_SPECS, assert_matches_dense

FAMILIES = (rbf(0.8), laplacian(1.2), linear(25.0))


def naive_mmd2_unbiased(spec, A, B):
    n0, n1 = len(A), len(B)
    kaa = sum(eval_kernel(spec, A[i], A[j])
              for i in range(n0) for j in range(n0) if i != j)
    kbb = sum(eval_kernel(spec, B[i], B[j])
              for i in range(n1) for j in range(n1) if i != j)
    kab = sum(eval_kernel(spec, a, b) for a in A for b in B)
    return kaa / (n0 * (n0 - 1)) + kbb / (n1 * (n1 - 1)) - 2.0 * kab / (n0 * n1)


def naive_mmd2_biased(spec, A, B):
    n0, n1 = len(A), len(B)
    kaa = sum(eval_kernel(spec, a, a2) for a in A for a2 in A)
    kbb = sum(eval_kernel(spec, b, b2) for b in B for b2 in B)
    kab = sum(eval_kernel(spec, a, b) for a in A for b in B)
    return kaa / n0**2 + kbb / n1**2 - 2.0 * kab / (n0 * n1)


def test_unbiased_matches_naive_reference():
    rng = np.random.default_rng(0)
    for trial in range(12):
        n0, n1 = rng.integers(3, 15, size=2)
        d = rng.integers(1, 4)
        A = rng.normal(size=(n0, d))
        B = rng.normal(scale=1.4, size=(n1, d))
        for spec in FAMILIES:
            est = mmd2_unbiased(spec, A, B)
            assert_allclose(est.mmd2, naive_mmd2_unbiased(spec, A, B), atol=1e-12)
            assert est.variant == "unbiased"
            assert (est.n0, est.n1) == (n0, n1)


def test_biased_matches_naive_reference():
    rng = np.random.default_rng(1)
    for trial in range(12):
        n0, n1 = rng.integers(2, 12, size=2)
        d = rng.integers(1, 4)
        A = rng.normal(size=(n0, d))
        B = rng.normal(size=(n1, d)) + 0.5
        for spec in FAMILIES:
            est = mmd2_biased(spec, A, B)
            assert_allclose(est.mmd2, naive_mmd2_biased(spec, A, B), atol=1e-12)
            assert est.mmd2 >= -1e-12  # V-statistic is a squared RKHS norm


def test_biased_dominates_unbiased():
    rng = np.random.default_rng(2)
    for trial in range(30):
        A = rng.normal(size=(rng.integers(4, 20), 2))
        B = rng.normal(size=(rng.integers(4, 20), 2))
        for spec in (rbf(1.0), laplacian(1.0)):
            assert mmd2_biased(spec, A, B).mmd2 >= mmd2_unbiased(spec, A, B).mmd2 - 1e-12


def test_unbiased_can_go_negative_and_clips_root():
    """Under the null the U-statistic fluctuates around zero; the root field
    is clipped at zero with the flag recorded, mmd2 itself untouched."""
    rng = np.random.default_rng(3)
    seen_negative = False
    for trial in range(40):
        A = rng.normal(size=(12, 2))
        B = rng.normal(size=(12, 2))
        est = mmd2_unbiased(rbf(1.0), A, B)
        if est.mmd2 < 0:
            seen_negative = True
            assert est.clipped
            assert est.mmd == 0.0
        else:
            assert not est.clipped
            assert_allclose(est.mmd, np.sqrt(est.mmd2), rtol=1e-12)
    assert seen_negative


def test_null_mean_near_zero():
    rng = np.random.default_rng(4)
    vals = []
    for trial in range(150):
        A = rng.normal(size=(60, 2))
        B = rng.normal(size=(60, 2))
        vals.append(mmd2_unbiased(rbf(1.0), A, B).mmd2)
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean()) < 3.5 * se


def test_minimum_sample_sizes():
    one = np.zeros((1, 2))
    two = np.zeros((2, 2))
    with pytest.raises(SizeError):
        mmd2_unbiased(rbf(1.0), one, two)
    with pytest.raises(SizeError):
        mmd2_linear_time(rbf(1.0), one, two, seed=0)
    # the biased form is defined from one point per side
    assert mmd2_biased(rbf(1.0), one, one).mmd2 == pytest.approx(0.0, abs=1e-15)


def test_linear_time_is_pair_average():
    """With the identity pairing recovered from the seed, the estimate equals
    the mean of h over the m/2 pairs; reseeding reproduces it exactly."""
    rng = np.random.default_rng(5)
    A = rng.normal(size=(10, 2))
    B = rng.normal(size=(11, 2)) + 0.3
    spec = rbf(0.9)
    est1 = mmd2_linear_time(spec, A, B, seed=7)
    est2 = mmd2_linear_time(spec, A, B, seed=7)
    assert est1.mmd2 == est2.mmd2
    assert est1.variant == "linear_time"
    assert est1.n0 == est1.n1 == 10  # truncated to the even common size
    est3 = mmd2_linear_time(spec, A, B, seed=8)
    assert est3.mmd2 != est1.mmd2  # different pairing, different value


def test_linear_time_mean_matches_quadratic():
    """Averaged over pairings (seeds), the paired estimator agrees with the
    U-statistic on the same data."""
    rng = np.random.default_rng(6)
    A = rng.normal(size=(80, 2))
    B = rng.normal(size=(80, 2)) + 0.6
    spec = rbf(1.0)
    quad = mmd2_unbiased(spec, A, B).mmd2
    vals = np.array([mmd2_linear_time(spec, A, B, seed=t).mmd2 for t in range(200)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - quad) < 4.0 * se


def test_witness_separates_means_by_exact_gap():
    """mean_A(w) - mean_B(w) equals the biased root gamma: the witness
    attains the discrepancy it normalizes."""
    rng = np.random.default_rng(7)
    for spec in FAMILIES:
        A = rng.normal(size=(40, 2))
        B = rng.normal(size=(40, 2)) + 1.0
        wa = witness_eval(spec, A, B, A)
        wb = witness_eval(spec, A, B, B)
        assert_allclose(wa.mean() - wb.mean(), gamma_biased(spec, A, B), atol=1e-10)


def test_witness_single_point_returns_scalar():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(10, 2))
    B = rng.normal(size=(10, 2)) + 2.0
    w = witness_eval(rbf(1.0), A, B, np.zeros(2))
    assert isinstance(w, float)


def test_witness_linear_kernel_hand_example():
    # A = {0}, B = {2} on the line, linear kernel: embeddings are the
    # points themselves, gamma = 2, witness w(t) = (0 - 2) t / 2 = -t
    A = np.array([[0.0]])
    B = np.array([[2.0]])
    spec = linear(9.0)
    assert_allclose(witness_eval(spec, A, B, np.array([0.0])), 0.0, atol=1e-14)
    assert_allclose(witness_eval(spec, A, B, np.array([2.0])), -2.0, atol=1e-14)


def test_witness_undefined_for_identical_samples():
    A = np.ones((5, 2))
    with pytest.raises(ValidationError):
        witness_eval(rbf(1.0), A, A.copy(), np.zeros(2))


def test_gamma_biased_is_root_of_biased():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(30, 3))
    B = rng.normal(size=(25, 3)) + 0.4
    spec = laplacian(1.5)
    assert_allclose(gamma_biased(spec, A, B), np.sqrt(mmd2_biased(spec, A, B).mmd2),
                    rtol=1e-12)


def test_blocked_streaming_matches_direct():
    """Estimates must not depend on whether inputs fit one block: compare a
    size just over the block boundary against a naive Gram evaluation."""
    from fairmmd.kernels import TILE

    rng = np.random.default_rng(10)
    n = TILE + 37
    A = rng.normal(size=(n, 2))
    B = rng.normal(size=(n, 2)) + 0.1
    spec = rbf(1.0)
    est = mmd2_biased(spec, A, B).mmd2
    from fairmmd import pairwise

    direct = (pairwise(spec, A, A).mean() + pairwise(spec, B, B).mean()
              - 2.0 * pairwise(spec, A, B).mean())
    assert_allclose(est, direct, atol=1e-10)


def test_linear_fast_paths_ignore_a_far_offset():
    """The linear-kernel closed forms must not cancel their digits away when
    both samples sit far from the origin: the statistics are translation
    invariant, so moving the data by 1e6 must leave them unchanged."""
    rng = np.random.default_rng(11)
    A = rng.normal(size=(500, 2))
    B = rng.normal(size=(500, 2)) + 0.01
    spec = linear(1e7)
    for estimator in (mmd2_unbiased, mmd2_biased):
        near = estimator(spec, A, B).mmd2
        far = estimator(spec, A + 1e6, B + 1e6).mmd2
        assert_allclose(far, near, rtol=1e-6)
    # The same for the statistics read from the per-cell kernel sums.
    s, y = rng.integers(0, 2, size=2000), rng.integers(0, 2, size=2000)
    z = rng.normal(size=(2000, 2)) + 0.3 * s[:, None] + 0.2 * y[:, None]
    near, far = (LabeledDataset(z=z + offset, s=s, y=y) for offset in (0.0, 1e6))
    assert_allclose(sup_dp(spec, far), sup_dp(spec, near), rtol=1e-6)
    assert_allclose(eok_hat_plugin(spec, far).eok2, eok_hat_plugin(spec, near).eok2, rtol=1e-6)
    assert_allclose(eok_hat_bootstrap(spec, far, seed=12).eok2,
                    eok_hat_bootstrap(spec, near, seed=12).eok2, rtol=1e-6)
    # The trainer's penalty, with and without its gradient, against the
    # plug-in estimate of the same far rows; a closed form on uncentred rows
    # is off by about 1e-10 here.
    for lam in (0.0, 1.0):
        cfg = TrainConfig(kernel=spec, lam=lam)
        assert_allclose(objective_gradient(far, np.eye(2), np.ones(2), 0.0, cfg).penalty,
                        eok_hat_plugin(spec, far).eok2, rtol=1e-13)


@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_cell_sums_match_dense_kernel(family):
    """The per-cell summary, and every estimate read from it, agrees with
    the dense kernel matrix and with the two-sample estimators."""
    spec = STREAMED_SPECS[family]
    rng = np.random.default_rng(14)
    for n in STREAMED_SIZES:
        data = LabeledDataset(z=rng.normal(size=(n, 3)) + rng.integers(0, 2, size=(n, 1)),
                              s=rng.integers(0, 2, size=n), y=rng.integers(0, 2, size=n))
        cell = 2 * data.s + data.y
        onehot = (cell[:, None] == np.arange(4)).astype(float)
        K = pairwise(spec, data.z, data.z)
        sums = cell_sums(spec, data)
        assert_matches_dense(sums.rows, K @ onehot)
        # The linear blocks are taken from the rows centred on their mean.
        zc = data.z - data.z.mean(axis=0)
        Kb = zc @ zc.T if family == "linear" else K
        assert_matches_dense(sums.block, onehot.T @ Kb @ onehot)
        assert_matches_dense(sums.diag, onehot.T @ np.diag(Kb))
        assert sums.counts.tolist() == onehot.sum(axis=0).tolist()
        groups = (((0, 0), (0, 1)), ((1, 0), (1, 1)))
        z0, z1 = data.z[data.s == 0], data.z[data.s == 1]
        scale = np.abs(K).max()
        for unbiased, estimator in ((False, mmd2_biased), (True, mmd2_unbiased)):
            assert_allclose(sums.mmd2(*groups, unbiased=unbiased).mmd2,
                            estimator(spec, z0, z1).mmd2, rtol=1e-12, atol=1e-12 * scale)
        assert_matches_dense(sums.witness(*groups), witness_eval(spec, z0, z1, data.z))


def test_cell_sums_are_kept_per_kernel(monkeypatch):
    """A dataset keeps the cell sums of each kernel: an equal spec reads them
    again without a pass, a different one gets its own pass."""
    from fairmmd import mmd

    passes, real = [], mmd.kernel_matmul

    def counted(*args):
        passes.append(args[0])
        return real(*args)

    monkeypatch.setattr(mmd, "kernel_matmul", counted)
    rng = np.random.default_rng(15)
    s, y = rng.integers(0, 2, size=300), rng.integers(0, 2, size=300)
    data = LabeledDataset(z=rng.normal(size=(300, 2)), s=s, y=y)
    sums = cell_sums(rbf(1.0), data)
    assert cell_sums(rbf(1.0), data) is sums
    assert len(passes) == 1
    wide = cell_sums(rbf(2.0), data)
    assert wide is not sums and len(passes) == 2
    assert cell_sums(rbf(2.0), data) is wide and cell_sums(rbf(1.0), data) is sums
    assert len(passes) == 2
    fresh = cell_sums(rbf(2.0), LabeledDataset(z=data.z, s=s, y=y))
    for name in ("rows", "block", "diag", "counts"):
        arr = getattr(wide, name)
        np.testing.assert_array_equal(arr, getattr(fresh, name))
        with pytest.raises(ValueError):
            arr[0] = 0
