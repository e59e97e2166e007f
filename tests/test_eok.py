import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fairmmd import (
    EmptyCellError,
    LabeledDataset,
    NormalizationError,
    SizeError,
    UnsupportedError,
    analytic_eok2_linear,
    empirical_weights,
    eok_gradient_plugin,
    eok_hat_bootstrap,
    eok_hat_plugin,
    laplacian,
    linear,
    mmd2_unbiased,
    pairwise,
    rbf,
    reweight_sample,
    sample_population,
)
from fairmmd import mmd
from fairmmd._rng import rng_for
from fairmmd.synth import cell_rows
from conftest import STREAMED_SPECS, make_population, masked_sample, random_population


def test_empirical_weights_come_from_reference_group():
    """Weights are the S=0 group's outcome rates — also applied to S=1."""
    z = np.zeros((10, 1))
    s = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    y = np.array([0, 0, 0, 1, 1, 0, 1, 1, 1, 1])
    data = LabeledDataset(z=z, s=s, y=y)
    assert_allclose(empirical_weights(data), [0.6, 0.4])


def test_plugin_matches_naive_quadratic_form():
    """eok2 is the quadratic form v' K v with the rank-one coefficient
    vector built from signs, weights, and cell sizes."""
    pop = make_population(p=((0.4, 0.6), (0.7, 0.3)))
    data = sample_population(pop, 60, seed=0)
    w = empirical_weights(data)
    for spec in (rbf(0.9), laplacian(1.1), linear(50.0)):
        counts = {(s, y): len(cell_rows(data, s, y)) for s in (0, 1) for y in (0, 1)}
        v = np.array([
            (2.0 * s - 1.0) * w[y] / counts[(s, y)]
            for s, y in zip(data.s, data.y)
        ])
        K = pairwise(spec, data.z, data.z)
        naive = float(v @ K @ v)
        est = eok_hat_plugin(spec, data)
        assert_allclose(est.eok2, naive, atol=1e-12)
        assert est.method == "plugin"
        assert est.weights_source == "empirical"


def test_plugin_linear_kernel_closed_form():
    """For the linear kernel the plug-in statistic equals the squared norm of
    the weighted difference of empirical cell means, exactly."""
    rng = np.random.default_rng(1)
    for trial in range(10):
        pop = random_population(rng, biased=bool(trial % 2))
        data = sample_population(pop, 200, seed=trial)
        w = empirical_weights(data)
        mu = {(s, y): data.z[cell_rows(data, s, y)].mean(axis=0)
              for s in (0, 1) for y in (0, 1)}
        md = w[0] * (mu[(0, 0)] - mu[(1, 0)]) + w[1] * (mu[(0, 1)] - mu[(1, 1)])
        est = eok_hat_plugin(linear(100.0), data)
        assert_allclose(est.eok2, float(md @ md), atol=1e-10)


def test_plugin_consistent_with_analytic_linear():
    pop = make_population(p=((0.6, 0.4), (0.3, 0.7)))
    truth = analytic_eok2_linear(pop)
    data = sample_population(pop, 40000, seed=2)
    est = eok_hat_plugin(linear(100.0), data)
    assert abs(est.eok2 - truth) < 0.05 * max(truth, 1.0)


def test_spec_given_weights():
    pop = make_population()
    data = sample_population(pop, 150, seed=3)
    est = eok_hat_plugin(rbf(1.0), data, weights=[0.5, 0.5])
    assert est.weights_source == "spec-given"
    assert_allclose(est.weights, [0.5, 0.5])
    with pytest.raises(NormalizationError):
        eok_hat_plugin(rbf(1.0), data, weights=[0.7, 0.7])


def test_reweight_sample_counts_and_sources(unbiased_pop):
    data = sample_population(unbiased_pop, 400, seed=4)
    rs = reweight_sample(data, m0=64, m1=48, seed=5)
    assert rs.z0.shape == (64, 2) and rs.z1.shape == (48, 2)
    assert rs.weights_source == "empirical"
    again = reweight_sample(data, m0=64, m1=48, seed=5)
    assert_array_equal(rs.z0, again.z0)
    assert_array_equal(rs.z1, again.z1)


def test_reweight_sample_draws_from_correct_cells():
    """Give every cell a distinct constant value; resampled rows must carry
    only values legal for their group."""
    z = np.repeat(np.array([[0.0], [1.0], [2.0], [3.0]]), 25, axis=0)
    s = np.repeat([0, 0, 1, 1], 25)
    y = np.tile(np.repeat([0, 1], 25), 2)
    data = LabeledDataset(z=z, s=s, y=y)
    rs = reweight_sample(data, m0=40, m1=40, seed=6)
    assert set(np.unique(rs.z0)) <= {0.0, 1.0}
    assert set(np.unique(rs.z1)) <= {2.0, 3.0}


def _flatnonzero_resample(data, m0, m1, seed, weights=None):
    """Reference resampler: the same draws from cell pools listed by
    flatnonzero scans; returns the resampled row indices of both groups."""
    w = empirical_weights(data) if weights is None else np.asarray(weights, dtype=float)
    pools = {(s, y): np.flatnonzero((data.s == s) & (data.y == y))
             for s in (0, 1) for y in (0, 1)}
    for (s, y), pool in pools.items():
        if pool.size == 0 and w[y] > 0:
            raise EmptyCellError(f"cell (s={s}, y={y}) is empty")
    rng = rng_for(seed)
    groups = []
    for s, m in ((0, m0), (1, m1)):
        ys = (rng.random(m) < w[1]).astype(np.int64)
        idx = np.empty(m, dtype=np.int64)
        for y in (0, 1):
            mask = ys == y
            if mask.any():
                pool = pools[(s, y)]
                idx[mask] = pool[rng.integers(0, pool.size, size=int(mask.sum()))]
        groups.append(idx)
    return groups


def test_reweight_sample_matches_flatnonzero_reference():
    """Every resampled index agrees with the reference, and tiny datasets
    with an empty weighted cell are still refused."""
    refused = 0
    for pop in (make_population(), make_population(p=((0.8, 0.2), (0.3, 0.7)))):
        for n in (2, 5, 7, 40, 301):
            for seed in range(6):
                labels = sample_population(pop, n, seed)
                data = LabeledDataset(z=np.arange(n, dtype=float)[:, None], s=labels.s, y=labels.y)
                m0, m1 = n // 2 + 1, n // 3 + 2
                try:
                    want = _flatnonzero_resample(data, m0, m1, seed + 50)
                except EmptyCellError:
                    refused += 1
                    with pytest.raises(EmptyCellError):
                        reweight_sample(data, m0, m1, seed + 50)
                    continue
                rs = reweight_sample(data, m0, m1, seed + 50)
                assert_array_equal(rs.z0[:, 0].astype(np.int64), want[0])
                assert_array_equal(rs.z1[:, 0].astype(np.int64), want[1])
    assert refused > 0


@pytest.mark.parametrize("w1", [0.0, 1.0, 0.35], ids=["w1-0", "w1-1", "w1-0.35"])
@pytest.mark.parametrize("n, one_row_cell", [(301, None), (40, 1)],
                         ids=["n-301", "one-row-cell"])
def test_draws_are_plain_numpy_calls_in_the_documented_order(w1, n, one_row_cell):
    """sample_population's rows and reweight_sample's indices equal their
    rebuild from rng_for(seed) with plain numpy calls in the documented
    order, for outcome-1 weights 0, 1 and in between; in the one-row case
    cell (0, 1) holds a single row, whose picks draw nothing from the
    stream.  The cells' covariances are diagonal, so the masked reference's
    rows have the sampler's bits."""
    pop = make_population(p=((0.9, 0.1), (0.3, 0.7)))
    seed = next(sd for sd in range(7, 200)
                if (counts := sample_population(pop, n, sd).counts).min() >= 1
                and (one_row_cell is None or counts[one_row_cell] == 1))
    data = sample_population(pop, n, seed)
    z, s, y = masked_sample(pop, n, seed)
    assert_array_equal(data.z, z)
    assert_array_equal(data.s, s)
    assert_array_equal(data.y, y)
    weights = (1.0 - w1, w1)
    want = _flatnonzero_resample(data, n // 2, n // 3, seed + 1, weights)
    rs = reweight_sample(data, n // 2, n // 3, seed + 1, weights=weights)
    assert_array_equal(rs.z0, data.z[want[0]])
    assert_array_equal(rs.z1, data.z[want[1]])


def test_bootstrap_seeded_and_near_plugin(unbiased_pop):
    data = sample_population(unbiased_pop, 600, seed=7)
    spec = rbf(1.0)
    a = eok_hat_bootstrap(spec, data, seed=8)
    b = eok_hat_bootstrap(spec, data, seed=8)
    assert a.eok2 == b.eok2
    assert a.method == "bootstrap"
    c = eok_hat_bootstrap(spec, data, seed=9)
    assert c.eok2 != a.eok2
    # across resampling seeds the bootstrap centers near the plug-in value
    vals = np.array([eok_hat_bootstrap(spec, data, seed=t).eok2 for t in range(30)])
    plug = eok_hat_plugin(spec, data).eok2
    assert abs(vals.mean() - plug) < 4.0 * vals.std(ddof=1) / np.sqrt(len(vals)) + 0.01


@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_bootstrap_is_the_u_statistic_of_the_drawn_rows(family, monkeypatch):
    """The bootstrap reads the U-statistic of reweight_sample's rows from
    each group's distinct drawn rows and their draw counts: it equals
    mmd2_unbiased on the materialized rows at the same seed, and it makes
    one square pass over the |U_0| + |U_1| distinct rows."""
    spec = STREAMED_SPECS[family]
    pop = random_population(np.random.default_rng(16), biased=True, dim=3)
    data = sample_population(pop, 700, seed=17)
    entries, real = [], mmd._matmul_unchecked

    def counted(spec, A, B, M, groups=None, **kw):
        entries.append(A.shape[0] * B.shape[0])
        return real(spec, A, B, M, groups, **kw)

    monkeypatch.setattr(mmd, "_matmul_unchecked", counted)
    for m0, m1, weights in ((None, None, None), (300, 41, None), (64, 257, [0.2, 0.8])):
        entries.clear()
        boot = eok_hat_bootstrap(spec, data, m0=m0, m1=m1, seed=18, weights=weights)
        made, calls = sum(entries), len(entries)
        rs = reweight_sample(data, m0 or int(data.counts[:2].sum()),
                             m1 or int(data.counts[2:].sum()), seed=18, weights=weights)
        want = mmd2_unbiased(spec, rs.z0, rs.z1).mmd2
        assert_allclose(boot.eok2, want, rtol=1e-12)
        assert boot.weights_source == rs.weights_source
        # Gaussian rows are distinct, so distinct rows are distinct draws.
        u0, u1 = (np.unique(z, axis=0).shape[0] for z in (rs.z0, rs.z1))
        assert calls == 1 and made == (u0 + u1) ** 2
    with pytest.raises(SizeError):  # as mmd2_unbiased on one drawn row
        eok_hat_bootstrap(spec, data, m0=1, seed=18)


def test_bootstrap_consistency_across_datasets():
    """Fresh data every trial: the estimator mean approaches the analytic value."""
    pop = make_population(p=((0.3, 0.7), (0.5, 0.5)))
    truth = analytic_eok2_linear(pop)
    vals = []
    for t in range(25):
        data = sample_population(pop, 800, seed=100 + t)
        vals.append(eok_hat_bootstrap(linear(60.0), data, seed=t).eok2)
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - truth) < 4.0 * se + 0.02


def test_empty_cell_rejected():
    z = np.zeros((6, 1))
    s = np.array([0, 0, 0, 0, 1, 1])
    y = np.array([0, 1, 0, 1, 0, 0])  # no (1, 1) rows
    data = LabeledDataset(z=z, s=s, y=y)
    with pytest.raises(EmptyCellError):
        eok_hat_plugin(rbf(1.0), data)
    with pytest.raises(EmptyCellError):
        reweight_sample(data, 4, 4, seed=0)


def test_gradient_matches_finite_differences():
    pop = make_population(p=((0.45, 0.55), (0.55, 0.45)))
    data = sample_population(pop, 50, seed=10)
    rng = np.random.default_rng(11)
    for spec in (rbf(0.8), linear(10_000.0)):
        W = rng.normal(scale=0.4, size=(2, 2))
        grad = eok_gradient_plugin(spec, data, W)
        eps = 1e-6
        fd = np.zeros_like(W)
        for i in range(2):
            for j in range(2):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += eps
                Wm[i, j] -= eps
                up = eok_hat_plugin(spec, LabeledDataset(z=data.z @ Wp.T, s=data.s, y=data.y)).eok2
                dn = eok_hat_plugin(spec, LabeledDataset(z=data.z @ Wm.T, s=data.s, y=data.y)).eok2
                fd[i, j] = (up - dn) / (2.0 * eps)
        assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)


def test_gradient_unsupported_families():
    pop = make_population()
    data = sample_population(pop, 40, seed=12)
    with pytest.raises(UnsupportedError):
        eok_gradient_plugin(laplacian(1.0), data, np.eye(2))


def test_clip_flag_only_for_bootstrap_negatives(unbiased_pop):
    """The plug-in form is a squared norm and never clips; the resampled
    U-statistic can dip negative near the null and then reports the clip."""
    means = {c: [0.0, 0.0] for c in ((0, 0), (0, 1), (1, 0), (1, 1))}
    pop = make_population(means=means)  # exact null
    saw_clip = False
    for t in range(15):
        data = sample_population(pop, 200, seed=200 + t)
        plug = eok_hat_plugin(rbf(1.0), data)
        assert plug.eok2 >= -1e-12 and not plug.clipped
        boot = eok_hat_bootstrap(rbf(1.0), data, seed=t)
        if boot.clipped:
            saw_clip = True
            assert boot.eok == 0.0 and boot.eok2 < 0.0
            rs = reweight_sample(data, int(data.counts[:2].sum()), int(data.counts[2:].sum()),
                                 seed=t)
            # The clipped value cancels terms of the kernel's amplitude (nu = 1),
            # so it agrees to 1e-12 of that amplitude.
            assert_allclose(boot.eok2, mmd2_unbiased(rbf(1.0), rs.z0, rs.z1).mmd2,
                            rtol=1e-12, atol=1e-12)
    assert saw_clip
