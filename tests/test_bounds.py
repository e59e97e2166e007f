import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairmmd import (
    InapplicableError,
    LabeledDataset,
    ValidationError,
    check_ba_bounds,
    check_biased_lower_bound,
    check_calibration_chain,
    check_tvd_dominance,
    check_unbiased_equality,
    kernel_sum,
    linear,
    logistic_head_classifier,
    product,
    random_ball_classifier,
    rbf,
    sample_population,
)
from fairmmd.bounds import _report
from fairmmd.fairness import GROUP_CELLS, evaluate_batch, witness_scores
from fairmmd.mmd import cell_sums, gamma_biased
from conftest import STREAMED_SPECS, make_population, random_population


def test_report_sign_conventions():
    ge = _report("x", "ge", 1.0, 0.9, 0.0, "d")
    assert ge.holds and ge.slack == pytest.approx(0.1)
    assert not _report("x", "ge", 0.8, 0.9, 0.05, "d").holds
    assert _report("x", "ge", 0.85, 0.9, 0.06, "d").holds  # within tolerance
    eq = _report("x", "eq", 1.0, 1.004, 0.01, "d")
    assert eq.holds
    assert not _report("x", "eq", 1.0, 1.02, 0.01, "d").holds
    d = ge.as_dict()
    assert set(d) == {"name", "kind", "lhs", "rhs", "slack", "tolerance",
                      "holds", "inputs_digest"}


def test_unbiased_equality_holds(unbiased_pop):
    data = sample_population(unbiased_pop, 4000, seed=0)
    rep = check_unbiased_equality(rbf(1.0), data)
    assert rep.kind == "eq" and rep.holds
    assert rep.name == "sup_dp_equals_scaled_eok"


def test_unbiased_equality_refuses_biased_data(biased_pop):
    data = sample_population(biased_pop, 2000, seed=1)
    with pytest.raises(InapplicableError):
        check_unbiased_equality(rbf(1.0), data)


def test_biased_floor_holds_across_specs():
    rng = np.random.default_rng(2)
    for trial in range(8):
        pop = random_population(rng, biased=True)
        data = sample_population(pop, 2500, seed=300 + trial)
        rep = check_biased_lower_bound(rbf(1.0), data)
        assert rep.holds, (trial, rep)


def test_biased_floor_on_near_null_population():
    """When the representation barely separates the groups, the floor's
    |rate_gap * beta - eok| form keeps the clause honest (both sides small)."""
    means = {c: [0.1, 0.1] for c in ((0, 0), (0, 1), (1, 0), (1, 1))}
    pop = make_population(p=((0.7, 0.3), (0.3, 0.7)), means=means)
    data = sample_population(pop, 2000, seed=3)
    rep = check_biased_lower_bound(rbf(1.0), data)
    assert rep.holds
    assert rep.rhs < 0.05


def test_ba_bounds_hold_and_attain(unbiased_pop):
    data = sample_population(unbiased_pop, 1500, seed=4)
    upper, lower = check_ba_bounds(rbf(1.0), data, trials=20, seed=5)
    assert upper.holds and lower.holds
    # the group witness is among the probes, so the upper bound is met with
    # equality; the outcome witness attains its lower bound the same way
    assert abs(upper.slack) < 1e-9
    assert abs(lower.slack) < 1e-9


@pytest.mark.parametrize("options", [{"trials": -1}, {"n_anchors": 0}, {"n_anchors": -1}])
def test_ba_bounds_refuse_negative_trials_and_no_anchors(unbiased_pop, options):
    data = sample_population(unbiased_pop, 200, seed=4)
    with pytest.raises(ValidationError, match="trials >= 0 and n_anchors >= 1"):
        check_ba_bounds(rbf(1.0), data, **options)


def test_ba_bounds_norm_every_probe_in_one_pass(unbiased_pop, monkeypatch):
    """With the dataset's cell sums kept, check_ba_bounds makes two kernel
    passes whatever the number of probes: one among the anchors for every
    probe's norm, and one of the rows against the anchors for every probe's
    scores."""
    from fairmmd import bounds, fairness, mmd

    data = sample_population(unbiased_pop, 600, seed=4)
    spec = rbf(0.7)
    cell_sums(spec, data)
    calls = []
    for module in (bounds, fairness, mmd):
        def counted(*args, _real=module.kernel_matmul):
            calls.append(args[1].shape[0])
            return _real(*args)
        monkeypatch.setattr(module, "kernel_matmul", counted)
    check_ba_bounds(spec, data, trials=30, seed=5, n_anchors=40)
    assert sorted(calls) == [40, 600]


def test_ba_bounds_scores_its_probes_in_place(biased_pop):
    """The probes' ball scores are formed in the pass's own output, so once
    the cell sums are kept check_ba_bounds peaks at 554 bytes a row or less
    for 50 probes at n = 5000 (818 when each score step made a copy)."""
    import tracemalloc

    data, spec = sample_population(biased_pop, 5000, seed=0), rbf(1.0)
    cell_sums(spec, data)
    tracemalloc.start()
    try:
        check_ba_bounds(spec, data, trials=50, n_anchors=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / data.n <= 650, peak / data.n


@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_ba_probes_are_random_ball_classifiers(family, monkeypatch):
    """check_ba_bounds's batched probe t scores every row as
    random_ball_classifier(spec, anchors, seed * 100003 + t) does: bit for
    bit for the tiled families, to rounding for the linear kernel, whose
    norms come from one product of all probes' columns."""
    from fairmmd import bounds

    spec = STREAMED_SPECS[family]
    data = sample_population(random_population(np.random.default_rng(40), biased=True, dim=3),
                             600, seed=41)
    passes = []

    # The probes' scores are read from the array the probe pass returns,
    # which check_ba_bounds scores in place.
    def scored(*args, _real=bounds.kernel_matmul):
        out = _real(*args)
        passes.append((args[2], out))
        return out

    monkeypatch.setattr(bounds, "kernel_matmul", scored)
    seed, trials = 3, 7
    check_ba_bounds(spec, data, trials=trials, seed=seed, n_anchors=300)
    [(anchors, probes)] = passes
    assert anchors.shape[0] == 300 and probes.shape == (data.n, trials)
    for t, got in enumerate(probes.T):
        want = evaluate_batch(random_ball_classifier(spec, anchors, seed * 100003 + t), data.z)
        if family == "linear":
            assert_allclose(got, want, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(got, want)


def test_ba_upper_survives_adversarial_probes(biased_pop):
    """No random ball member may beat the bound even on well-separated data."""
    data = sample_population(biased_pop, 1200, seed=6)
    upper, _ = check_ba_bounds(rbf(0.7), data, trials=60, seed=7)
    assert upper.holds


def test_calibration_chain_holds(biased_pop):
    data = sample_population(biased_pop, 1500, seed=8)
    a, b = check_calibration_chain(rbf(1.0), data)
    assert a.name == "dc_dominates_tensor" and a.holds
    assert b.name == "tensor_dominates_sup_dp" and b.holds


def test_calibration_chain_random_specs():
    rng = np.random.default_rng(9)
    for trial in range(5):
        pop = random_population(rng, biased=True)
        data = sample_population(pop, 1000, seed=400 + trial)
        a, b = check_calibration_chain(rbf(1.0), data)
        assert a.holds and b.holds, (trial, a, b)


@pytest.mark.parametrize("n", [200, 1001, 5000])
def test_calibration_chain_matches_product_kernel_discrepancy(biased_pop, n):
    """The tensor discrepancy read from per-cell score sums equals the plug-in
    root of the product kernel over (score, outcome) pairs, for the witness
    and for an external classifier."""
    data = sample_population(biased_pop, n, seed=17)
    spec = rbf(1.0)
    sums = cell_sums(spec, data)
    head = logistic_head_classifier(np.array([1.2, -0.7]), 0.1)
    for h, scores in ((None, witness_scores(sums, GROUP_CELLS[1], GROUP_CELLS[0])),
                      (head, evaluate_batch(head, data.z))):
        pairs = np.column_stack([scores, data.y.astype(float)])
        for sigma_u, sigma_y in ((0.5, 1.0), (0.2, 0.3)):
            k_t = product(kernel_sum(linear(1.0), rbf(sigma_u)), rbf(sigma_y), split=1)
            want = gamma_biased(k_t, pairs[data.s == 0], pairs[data.s == 1])
            a, b = check_calibration_chain(spec, data, h=h, sigma_u=sigma_u,
                                           sigma_y=sigma_y)
            assert_allclose(b.lhs, want, rtol=1e-12, atol=0)
            assert_allclose(a.rhs, want / (4.0 * np.sqrt(2.0)), rtol=1e-12, atol=0)


def test_checks_read_shared_cell_sums(biased_pop):
    """Each check reports the same clauses on a fresh dataset and on one
    whose cell sums an earlier call already computed."""
    spec = rbf(1.0)
    checks = [
        lambda data: [check_unbiased_equality(spec, data, rate_threshold=1.0)],
        lambda data: [check_biased_lower_bound(spec, data)],
        lambda data: list(check_ba_bounds(spec, data, trials=5, seed=3)),
        lambda data: list(check_calibration_chain(spec, data)),
    ]
    for check in checks:
        fresh, shared = (sample_population(biased_pop, 400, seed=21) for _ in range(2))
        sums = cell_sums(spec, shared)
        want = [r.as_dict() for r in check(fresh)]
        assert [r.as_dict() for r in check(shared)] == want
        assert cell_sums(spec, shared) is sums


def test_tvd_dominance_exact_small_support():
    rng = np.random.default_rng(10)
    for trial in range(20):
        k = rng.integers(2, 9)
        atoms = rng.normal(size=(k, 2))
        n = 300
        s = rng.integers(0, 2, size=n)
        # group-dependent atom laws
        p0 = rng.dirichlet(np.ones(k))
        p1 = rng.dirichlet(np.ones(k))
        ids = np.where(s == 0, rng.choice(k, size=n, p=p0), rng.choice(k, size=n, p=p1))
        y = rng.integers(0, 2, size=n)
        data = LabeledDataset(z=atoms[ids], s=s, y=y)
        rep = check_tvd_dominance(rbf(0.8), data)
        assert rep.holds, (trial, rep)
        assert rep.tolerance == 1e-9
        # The rhs, read from the atom counts, is gamma_biased of the groups.
        assert_allclose(rep.rhs, gamma_biased(rbf(0.8), data.z[s == 0], data.z[s == 1]),
                        rtol=1e-12)


@pytest.mark.parametrize("family", sorted(STREAMED_SPECS))
def test_tvd_rhs_is_one_square_pass_over_the_atoms(family, monkeypatch):
    """The TV check reads its rhs from one square kernel pass over the u
    distinct rows, weighted by each group's counts, not from a pass over
    both groups' atoms; it is gamma_biased of the two groups' rows."""
    from fairmmd import mmd

    spec = STREAMED_SPECS[family]
    calls, real = [], mmd._matmul_unchecked

    def spying(spec, A, B, M, groups=None, **kw):
        calls.append((A is B, A.shape[0], B.shape[0]))
        return real(spec, A, B, M, groups, **kw)

    monkeypatch.setattr(mmd, "_matmul_unchecked", spying)
    rng = np.random.default_rng(12)
    atoms = rng.normal(size=(40, 2))
    s = rng.integers(0, 2, size=600)
    ids = np.where(s == 0, rng.integers(0, 30, size=600), rng.integers(10, 40, size=600))
    data = LabeledDataset(z=atoms[ids], s=s, y=rng.integers(0, 2, size=600))
    rep = check_tvd_dominance(spec, data)
    assert calls == [(True, 40, 40)]
    assert_allclose(rep.rhs, gamma_biased(spec, data.z[s == 0], data.z[s == 1]), rtol=1e-12)


def test_tvd_identical_groups_zero_both_sides():
    # both groups see atoms 0 and 1 equally often
    atoms = np.array([[0.0, 0.0], [1.0, 1.0]])
    z = atoms[np.tile([0, 1], 30)]
    s = np.repeat([0, 1], 30)
    y = np.tile([0, 1], 30)
    data = LabeledDataset(z=z, s=s, y=y)
    rep = check_tvd_dominance(rbf(1.0), data)
    assert rep.holds
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-9)


def test_tvd_refuses_large_support():
    rng = np.random.default_rng(11)
    data = LabeledDataset(
        z=rng.normal(size=(200, 2)),
        s=rng.integers(0, 2, size=200),
        y=rng.integers(0, 2, size=200),
    )
    with pytest.raises(InapplicableError):
        check_tvd_dominance(rbf(1.0), data, max_support=64)


@pytest.mark.parametrize("check, option, value", [
    (check_tvd_dominance, "max_support", 0),
    (check_tvd_dominance, "max_support", -1),
    (check_unbiased_equality, "rate_threshold", -1.0),
    (check_unbiased_equality, "rate_threshold", float("nan")),
])
def test_out_of_range_option_is_refused_by_name(unbiased_pop, check, option, value):
    """An option out of its range is a malformed input naming the option, not
    a failed precondition of the data."""
    data = sample_population(unbiased_pop, 200, seed=14)
    with pytest.raises(ValidationError, match=option):
        check(rbf(1.0), data, **{option: value})


def test_digest_changes_with_inputs(unbiased_pop):
    d1 = sample_population(unbiased_pop, 500, seed=12)
    d2 = sample_population(unbiased_pop, 500, seed=13)
    r1 = check_biased_lower_bound(rbf(1.0), d1)
    r2 = check_biased_lower_bound(rbf(1.0), d2)
    assert r1.inputs_digest != r2.inputs_digest
    r1b = check_biased_lower_bound(rbf(1.0), d1)
    assert r1.inputs_digest == r1b.inputs_digest
