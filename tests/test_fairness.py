import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairmmd import (
    EmptyCellError,
    LabeledDataset,
    ValidationError,
    balanced_accuracy,
    ball_classifier,
    constant_classifier,
    dc,
    dnc,
    dodds,
    dopp,
    dp,
    dpc,
    dr,
    external_scores_classifier,
    group_stats,
    linear,
    logistic_head_classifier,
    mmd2_unbiased,
    random_ball_classifier,
    rbf,
    sample_population,
    sup_dp,
    witness_classifier,
)
from fairmmd.fairness import GROUP_CELLS, evaluate_batch, witness_scores
from fairmmd.kernels import TILE
from fairmmd.mmd import cell_sums


def hand_dataset():
    """Eight rows, two per cell, with externally fixed scores whose fairness
    gaps are computable by hand."""
    z = np.arange(16, dtype=float).reshape(8, 2)  # placeholder features
    s = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    y = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    scores = np.array([0.2, 0.4, 0.8, 0.6, 0.1, 0.5, 0.9, 0.7])
    return LabeledDataset(z=z, s=s, y=y), external_scores_classifier(scores)


def test_group_stats_counts():
    data, _ = hand_dataset()
    st = group_stats(data)
    assert st.counts.tolist() == [[2, 2], [2, 2]]
    assert_allclose(st.p_y_given_s, [[0.5, 0.5], [0.5, 0.5]])


def test_dp_hand_value():
    data, h = hand_dataset()
    # group means: S=0 -> 0.5, S=1 -> 0.55
    assert_allclose(dp(h, data), 0.05, atol=1e-15)


def test_per_outcome_gaps_hand_values():
    data, h = hand_dataset()
    assert_allclose(dopp(h, data), 0.1, atol=1e-15)   # |0.8 - 0.7|
    assert_allclose(dr(h, data), 0.0, atol=1e-15)     # |0.3 - 0.3|
    assert_allclose(dodds(h, data), 0.05, atol=1e-15)


def test_balanced_accuracy_hand_values():
    data, h = hand_dataset()
    assert_allclose(balanced_accuracy(h, data, "y"), 0.725, atol=1e-15)
    assert_allclose(balanced_accuracy(h, data, "s"), 0.525, atol=1e-15)
    with pytest.raises(ValidationError):
        balanced_accuracy(h, data, "group")


def test_calibration_gaps_exact_atoms():
    """All eight scores are distinct, so each atom carries one row and the
    joint-law differences can be summed by hand."""
    data, h = hand_dataset()
    assert_allclose(dpc(h, data), 0.5, atol=1e-15)
    assert_allclose(dnc(h, data), 0.5, atol=1e-15)
    assert_allclose(dc(h, data), 0.5, atol=1e-15)


def test_calibration_gaps_binned():
    data, h = hand_dataset()
    # two equal-width bins split at 0.5 (0.5 itself lands in the upper bin)
    assert_allclose(dpc(h, data, bins=2), 0.0, atol=1e-15)
    assert_allclose(dnc(h, data, bins=2), 0.25, atol=1e-15)
    assert_allclose(dc(h, data, bins=2), 0.125, atol=1e-15)
    with pytest.raises(ValidationError):
        dpc(h, data, bins=0)


def test_constant_classifier_has_no_gaps():
    data, _ = hand_dataset()
    h = constant_classifier(0.3)
    assert dp(h, data) == 0.0
    assert dodds(h, data) == 0.0
    assert balanced_accuracy(h, data, "y") == 0.5


def test_logistic_head_scores():
    data, _ = hand_dataset()
    h = logistic_head_classifier([1.0, -1.0], 0.5)
    t = evaluate_batch(h, data.z)
    expected = 1.0 / (1.0 + np.exp(-(data.z @ [1.0, -1.0] + 0.5)))
    assert_allclose(t, expected, rtol=1e-14)


def test_logistic_head_saturates_without_a_warning():
    """Logits far beyond exp's range score exactly 0 or 1 with no overflow
    warning (which pytest turns into an error), and the other scores keep
    the bits of 1 / (1 + exp(-x))."""
    Z = np.array([[1.0, 1.0], [0.3, -0.2], [-1.0, -1.0], [0.709, 0.0]])
    t = evaluate_batch(logistic_head_classifier([-1000.0, -1000.0], 0.0), Z)
    finite = 1.0 / (1.0 + np.exp(-(Z[1:3] @ [-1000.0, -1000.0])))
    np.testing.assert_array_equal(t, [0.0, *finite, 1.0 / (1.0 + np.exp(709.0))])


def test_external_scores_validation():
    with pytest.raises(ValidationError):
        external_scores_classifier([0.2, 1.4])
    data, h = hand_dataset()
    with pytest.raises(ValidationError):
        dp(h, LabeledDataset(z=data.z[:4], s=data.s[:4], y=data.y[:4]))


def test_scores_stay_in_unit_interval(unbiased_pop):
    data = sample_population(unbiased_pop, 300, seed=1)
    spec = rbf(0.7)
    classifiers = [
        witness_classifier(spec, data.z[data.s == 1], data.z[data.s == 0]),
        random_ball_classifier(spec, data.z[:50], seed=3),
        ball_classifier(spec, data.z[:10], np.linspace(-1, 1, 10)),
    ]
    for h in classifiers:
        t = evaluate_batch(h, data.z)
        assert t.min() >= 0.0 and t.max() <= 1.0


def test_ball_classifier_refuses_a_zero_norm():
    for spec, anchors, coefs in ((rbf(1.0), np.ones((3, 2)), np.zeros(3)),
                                 (linear(1.0), np.zeros((3, 2)), np.ones(3))):
        with pytest.raises(ValidationError, match="zero RKHS norm"):
            ball_classifier(spec, anchors, coefs)


def test_random_ball_classifier_is_seeded(unbiased_pop):
    data = sample_population(unbiased_pop, 100, seed=2)
    a = random_ball_classifier(rbf(1.0), data.z[:30], seed=9)
    b = random_ball_classifier(rbf(1.0), data.z[:30], seed=9)
    assert_allclose(evaluate_batch(a, data.z), evaluate_batch(b, data.z), atol=0)


def test_empty_cell_raises(unbiased_pop):
    data = sample_population(unbiased_pop, 120, seed=3)
    keep = ~((data.s == 1) & (data.y == 1))
    trimmed = LabeledDataset(z=data.z[keep], s=data.s[keep], y=data.y[keep])
    h = constant_classifier(0.5)
    with pytest.raises(EmptyCellError):
        dopp(h, trimmed)
    dr(h, trimmed)  # the Y=0 cells are intact


def test_sup_dp_is_scaled_unbiased_root(unbiased_pop):
    data = sample_population(unbiased_pop, 400, seed=5)
    for spec in (rbf(0.8), linear(40.0)):
        est = mmd2_unbiased(spec, data.z[data.s == 0], data.z[data.s == 1])
        expected = np.sqrt(max(est.mmd2, 0.0)) / (2.0 * np.sqrt(spec.nu))
        assert_allclose(sup_dp(spec, data), expected, rtol=1e-12)


def test_witness_classifier_attains_sup_dp(unbiased_pop):
    """The witness-based classifier's dp should sit essentially at the
    closed-form supremum (it is the supremum's achiever up to the
    unbiased-vs-plug-in root difference)."""
    data = sample_population(unbiased_pop, 2000, seed=6)
    spec = rbf(1.0)
    h = witness_classifier(spec, data.z[data.s == 1], data.z[data.s == 0])
    bound = sup_dp(spec, data)
    achieved = dp(h, data)
    assert achieved <= bound + 0.01
    assert achieved >= bound - 0.01


def test_metrics_agree_on_wrapped_scores(unbiased_pop):
    """Every metric reads the same numbers from a classifier and from its
    scores wrapped as external scores, and the witness scores read off the
    cell sums match the witness classifier's own pass."""
    data = sample_population(unbiased_pop, 300, seed=7)
    spec = rbf(0.9)
    h = witness_classifier(spec, data.z[data.s == 1], data.z[data.s == 0])
    t = evaluate_batch(h, data.z)
    assert_allclose(witness_scores(cell_sums(spec, data), GROUP_CELLS[1], GROUP_CELLS[0]), t,
                    rtol=1e-12, atol=1e-12)
    wrapped = external_scores_classifier(t)
    for metric in (dp, dopp, dr, dodds, dpc, dnc, dc):
        assert metric(wrapped, data) == metric(h, data)
    assert balanced_accuracy(wrapped, data, "s") == balanced_accuracy(h, data, "s")
    with pytest.raises(ValidationError):
        dp(external_scores_classifier(t[:-1]), data)


def test_witness_scores_of_duplicate_rows_are_identical(unbiased_pop):
    """Exact-atom calibration groups scores by value, so copies of one row
    must score bit-identically wherever they sit among the kernel tiles."""
    data = sample_population(unbiased_pop, TILE + 60, seed=8)
    z = data.z.copy()
    copies = [2, 97, TILE - 1, TILE, TILE + 59]
    z[copies] = z[copies[0]]
    data = LabeledDataset(z=z, s=data.s, y=data.y)
    spec = rbf(0.6)
    h = witness_classifier(spec, z[data.s == 1], z[data.s == 0])
    for t in (witness_scores(cell_sums(spec, data), GROUP_CELLS[1], GROUP_CELLS[0]),
              evaluate_batch(h, z)):
        np.testing.assert_array_equal(t[copies], np.full(len(copies), t[copies[0]]))
