from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fairmmd import (
    LabeledDataset,
    TrainConfig,
    TrainingError,
    ValidationError,
    empirical_weights,
    eok_hat_plugin,
    kernel_sum,
    lambda_sweep,
    laplacian,
    linear,
    objective_gradient,
    rbf,
    sample_population,
    train,
)
from fairmmd.frl import _cell_pools, _stratified_batch
from fairmmd._rng import rng_for
from conftest import make_population


def _cfg(**kw):
    base = dict(kernel=rbf(1.0), lam=1.0, steps=30, step_size=0.5,
                encoder_dim=2, seed=0, init_scale=0.1)
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValidationError):
        _cfg(steps=0)
    with pytest.raises(ValidationError):
        _cfg(step_size=0.0)
    with pytest.raises(ValidationError):
        _cfg(lam=-0.5)
    with pytest.raises(ValidationError):
        _cfg(batch=4)  # below the stratification minimum
    with pytest.raises(ValidationError):
        _cfg(encoder_dim=0)


def test_objective_gradient_matches_finite_differences(unbiased_pop):
    """Analytic gradients of the full objective (cross-entropy plus penalty)
    against central differences, all three parameter blocks."""
    data = sample_population(unbiased_pop, 60, seed=1)
    cfg = _cfg(lam=2.0)
    rng = np.random.default_rng(2)
    W = rng.normal(scale=0.3, size=(2, 2))
    w = rng.normal(size=2)
    b = 0.2
    ev = objective_gradient(data, W, w, b, cfg)
    eps = 1e-6

    fd_W = np.zeros_like(W)
    for i in range(2):
        for j in range(2):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += eps
            Wm[i, j] -= eps
            fd_W[i, j] = (
                objective_gradient(data, Wp, w, b, cfg).total
                - objective_gradient(data, Wm, w, b, cfg).total
            ) / (2 * eps)
    assert_allclose(ev.d_encoder, fd_W, rtol=2e-5, atol=1e-9)

    fd_w = np.zeros_like(w)
    for i in range(2):
        wp, wm = w.copy(), w.copy()
        wp[i] += eps
        wm[i] -= eps
        fd_w[i] = (
            objective_gradient(data, W, wp, b, cfg).total
            - objective_gradient(data, W, wm, b, cfg).total
        ) / (2 * eps)
    assert_allclose(ev.d_head_w, fd_w, rtol=2e-5, atol=1e-9)

    fd_b = (
        objective_gradient(data, W, w, b + eps, cfg).total
        - objective_gradient(data, W, w, b - eps, cfg).total
    ) / (2 * eps)
    assert_allclose(ev.d_head_b, fd_b, rtol=2e-5, atol=1e-9)


def test_objective_total_identity(unbiased_pop):
    data = sample_population(unbiased_pop, 80, seed=3)
    cfg = _cfg(lam=3.5)
    ev = objective_gradient(data, 0.1 * np.eye(2), np.ones(2), 0.0, cfg)
    assert_allclose(ev.total, ev.sup + 3.5 * ev.penalty, rtol=1e-14)
    # lam = 0 still reports the penalty value, it just stops driving updates
    ev0 = objective_gradient(data, 0.1 * np.eye(2), np.ones(2), 0.0, _cfg(lam=0.0))
    assert ev0.penalty > 0.0
    assert_allclose(ev0.total, ev0.sup, rtol=1e-14)


def test_train_is_deterministic(unbiased_pop):
    data = sample_population(unbiased_pop, 120, seed=4)
    a = train(data, _cfg(steps=15))
    b = train(data, _cfg(steps=15))
    assert_array_equal(a.encoder, b.encoder)
    assert_array_equal(a.head_w, b.head_w)
    assert a.head_b == b.head_b
    assert_array_equal(a.total_trace, b.total_trace)
    c = train(data, _cfg(steps=15, seed=1))
    assert not np.array_equal(a.encoder, c.encoder)


def test_trace_identity_and_length(unbiased_pop):
    data = sample_population(unbiased_pop, 100, seed=5)
    res = train(data, _cfg(steps=25, lam=1.7))
    assert len(res.sup_trace) == len(res.penalty_trace) == len(res.total_trace) == 25
    assert_allclose(res.total_trace, res.sup_trace + 1.7 * res.penalty_trace, rtol=1e-12)
    assert_allclose(res.weights, empirical_weights(data))


def test_training_reduces_objective(unbiased_pop):
    data = sample_population(unbiased_pop, 200, seed=6)
    # the large init scale starts the encoder with substantial group
    # discrepancy, so the penalty has real work to do regardless of the draw
    res = train(data, _cfg(steps=80, lam=1.0, step_size=0.5, init_scale=1.0))
    assert res.total_trace[-1] < res.total_trace[0]
    assert res.penalty_trace[-1] < 0.5 * res.penalty_trace[0]


def test_penalty_changes_the_fit(unbiased_pop):
    """Heavier penalty weight must yield a smaller final penalty than an
    unpenalized run of the same length."""
    data = sample_population(unbiased_pop, 250, seed=7)
    free = train(data, _cfg(steps=60, lam=0.0))
    tight = train(data, _cfg(steps=60, lam=8.0))
    assert tight.penalty_trace[-1] < free.penalty_trace[-1]


def test_minibatch_training_runs(unbiased_pop):
    data = sample_population(unbiased_pop, 300, seed=8)
    res = train(data, _cfg(steps=20, batch=64))
    assert np.all(np.isfinite(res.total_trace))


def test_stratified_batch_covers_cells(unbiased_pop):
    data = sample_population(unbiased_pop, 400, seed=9)
    rng = rng_for(0, 99)
    batch = _stratified_batch(data, 40, rng)
    for s in (0, 1):
        for y in (0, 1):
            assert ((batch.s == s) & (batch.y == y)).any()
    assert abs(batch.n - 40) <= 4  # rounding may move a row or two


def _per_step_batch(data, batch, rng):
    """Stratified batch drawn from pools rebuilt by a row scan on each call."""
    draws = []
    for s in (0, 1):
        for y in (0, 1):
            pool = np.flatnonzero((data.s == s) & (data.y == y))
            take = max(1, int(round(batch * pool.size / data.n)))
            draws.append(rng.choice(pool, size=min(take, pool.size), replace=False))
    return np.concatenate(draws)


@pytest.mark.parametrize("n, batch", [(40, 8), (301, 64), (800, 256)])
def test_stratified_batch_from_prebuilt_pools(biased_pop, n, batch):
    """Pools built once give the batches, and leave the generator in the
    state, that pools rebuilt on every step give."""
    data = sample_population(biased_pop, n, seed=n)
    pools = _cell_pools(data)
    ours, ref = rng_for(3, 7), rng_for(3, 7)
    for _ in range(25):
        got = _stratified_batch(data, batch, ours, pools)
        idx = _per_step_batch(data, batch, ref)
        assert_array_equal(got.z, data.z[idx])
        assert_array_equal(got.s, data.s[idx])
        assert_array_equal(got.y, data.y[idx])
    assert ours.random() == ref.random()


def test_minibatch_training_refuses_an_empty_cell(unbiased_pop):
    data = sample_population(unbiased_pop, 200, seed=12)
    keep = ~((data.s == 1) & (data.y == 1))
    data = LabeledDataset(z=data.z[keep], s=data.s[keep], y=data.y[keep])
    with pytest.raises(ValidationError, match=r"cell \(s=1, y=1\)"):
        train(data, _cfg(steps=3, batch=16))
    with pytest.raises(ValidationError):
        _stratified_batch(data, 16, rng_for(0, 7))


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_config_refuses_a_non_finite_init_scale(scale):
    with pytest.raises(ValidationError, match="init_scale"):
        _cfg(init_scale=scale)


def test_divergence_raises_training_error(unbiased_pop, monkeypatch):
    """A diverging run ends in TrainingError alone, with no numpy warning,
    also when its kernel passes are split across threads."""
    from fairmmd import kernels

    data = sample_population(unbiased_pop, 80, seed=10)
    with pytest.raises(TrainingError) as exc:
        train(data, _cfg(steps=8, step_size=1e160))
    assert exc.value.step is not None
    # A finite initial encoder whose encoded rows overflow.
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    wide = sample_population(unbiased_pop, 600, seed=10)
    with pytest.raises(TrainingError, match="training step 0"):
        train(wide, _cfg(steps=2, encoder_dim=1, init_scale=1e308))


def test_lambda_sweep_shape_and_frontier():
    pop = make_population(p=((0.6, 0.4), (0.4, 0.6)))
    cfg = _cfg(steps=120, step_size=0.5)
    res = lambda_sweep(pop, [0.0, 1.0, 6.0], cfg, n=400, seed=11)
    assert list(res.lambdas) == [0.0, 1.0, 6.0]
    assert len(res.rows) == 3
    expected_cols = {"lambda", "accuracy", "balanced_accuracy", "dp", "dodds",
                     "dc", "eok2", "sup_dp", "beta_hat"}
    for row in res.rows:
        assert set(row) == expected_cols
    eok2 = [row["eok2"] for row in res.rows]
    assert eok2[-1] < eok2[0]  # the penalty bites
    d = res.as_dict()
    assert d["lambdas"] == [0.0, 1.0, 6.0]


def test_lambda_sweep_of_a_saturated_head_warns_nothing():
    """Runs that start at init_scale 1e150 finish training with logits far
    beyond exp's range; their rows' head scores saturate with no numpy
    warning, which pytest turns into an error."""
    res = lambda_sweep(make_population(p=((0.7, 0.3), (0.3, 0.7))), [0.0, 1.0],
                       _cfg(steps=20, batch=64, init_scale=1e150), n=300)
    assert all(np.isfinite(row["accuracy"]) for row in res.rows)


def test_lambda_sweep_needs_lambdas(unbiased_pop):
    with pytest.raises(ValidationError):
        lambda_sweep(unbiased_pop, [], _cfg(), n=200)


@pytest.mark.parametrize("bins", [0, -1])
def test_lambda_sweep_refuses_bad_bins_before_training(unbiased_pop, monkeypatch, bins):
    from fairmmd import frl

    def no_training(*args, **kwargs):
        raise AssertionError("a training run started before dc_bins was checked")

    monkeypatch.setattr(frl, "train", no_training)
    monkeypatch.setattr(frl, "_lockstep", no_training)
    with pytest.raises(ValidationError, match="dc_bins"):
        lambda_sweep(unbiased_pop, [0.0, 1.0], _cfg(), n=200, dc_bins=bins)


def test_lambda_sweep_refuses_a_negative_lambda_before_any_work(unbiased_pop, monkeypatch):
    """A negative lambda listed after a valid one is refused before the data
    are sampled, not after the runs of the lambdas before it."""
    from fairmmd import frl

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the lambdas were checked")

    monkeypatch.setattr(frl, "sample_population", no_work)
    monkeypatch.setattr(frl, "train", no_work)
    monkeypatch.setattr(frl, "_lockstep", no_work)
    with pytest.raises(ValidationError, match="lambda must be finite and >= 0"):
        lambda_sweep(unbiased_pop, [0.0, -1.0], _cfg(), n=200)


def test_lambda_sweep_refuses_a_kernel_without_gradient_before_training(unbiased_pop,
                                                                       monkeypatch):
    """A laplacian sweep whose lambdas include a positive one exits before the
    lambda = 0 run listed first, not after it."""
    from fairmmd import UnsupportedError, frl

    def no_training(*args, **kwargs):
        raise AssertionError("a training run started before the kernel was checked")

    monkeypatch.setattr(frl, "train", no_training)
    monkeypatch.setattr(frl, "_lockstep", no_training)
    with pytest.raises(UnsupportedError, match="gradient"):
        lambda_sweep(unbiased_pop, [0.0, 0.1], _cfg(kernel=laplacian(1.0)), n=200)


def _written_out_train(data, cfg):
    """The training loop written out from the public step pieces: one
    :func:`_stratified_batch` and one :func:`objective_gradient` per step."""
    rng = rng_for(cfg.seed, 7)
    W = cfg.init_scale * rng.standard_normal((cfg.encoder_dim, data.dim)) / np.sqrt(data.dim)
    w = cfg.init_scale * rng.standard_normal(cfg.encoder_dim)
    b = 0.0
    frozen = empirical_weights(data)
    pools = None if cfg.batch is None else _cell_pools(data)
    traces = []
    for _ in range(cfg.steps):
        batch = data if cfg.batch is None else _stratified_batch(data, cfg.batch, rng, pools)
        ev = objective_gradient(batch, W, w, b, cfg, weights=frozen)
        traces.append((ev.sup, ev.penalty, ev.total))
        W = W - cfg.step_size * ev.d_encoder
        w = w - cfg.step_size * ev.d_head_w
        b = b - cfg.step_size * ev.d_head_b
    return W, w, b, np.array(traces).T


@pytest.mark.parametrize("kernel", [rbf(1.0), rbf(0.8), linear(20.0)],
                         ids=["rbf-1", "rbf-0.8", "linear"])
@pytest.mark.parametrize("batch", [None, 64], ids=["full", "batch-64"])
@pytest.mark.parametrize("lam", [0.0, 1.5], ids=["lam-0", "lam-1.5"])
def test_train_keeps_the_bits_of_the_written_out_loop(biased_pop, kernel, batch, lam):
    """train checks once and steps on raw batch rows; its traces and final
    parameters equal, bit for bit, a loop of validated batches and
    objective_gradient calls."""
    data = sample_population(biased_pop, 301, seed=21)
    cfg = _cfg(kernel=kernel, lam=lam, batch=batch, steps=12)
    res = train(data, cfg)
    W, w, b, (sup, penalty, total) = _written_out_train(data, cfg)
    assert_array_equal(res.encoder, W)
    assert_array_equal(res.head_w, w)
    assert res.head_b == b
    assert_array_equal(res.sup_trace, sup)
    assert_array_equal(res.penalty_trace, penalty)
    assert_array_equal(res.total_trace, total)


@pytest.mark.parametrize("kernel", [rbf(0.8), laplacian(1.3), linear(50.0),
                                    kernel_sum(linear(50.0), rbf(0.7))],
                         ids=["rbf", "laplacian", "linear", "kernel_sum"])
def test_unpenalized_step_reports_the_plugin_estimate(biased_pop, kernel):
    """At lambda = 0 the step's penalty, v' K v from its one pass, is the
    plug-in eok2 of the encoded rows."""
    data = sample_population(biased_pop, 301, seed=22)
    W = np.array([[0.9, -0.4], [0.3, 1.1]])
    ev = objective_gradient(data, W, np.ones(2), 0.1, _cfg(kernel=kernel, lam=0.0))
    encoded = LabeledDataset(z=data.z @ W.T, s=data.s, y=data.y)
    assert_allclose(ev.penalty, eok_hat_plugin(kernel, encoded).eok2, rtol=1e-12)


@pytest.mark.parametrize("kernel, lam, columns", [
    (rbf(0.8), 0.0, 1), (laplacian(1.3), 0.0, 1), (rbf(0.8), 1.5, 3),
], ids=["rbf-lam-0", "laplacian-lam-0", "rbf-lam-1.5"])
def test_step_makes_one_pass_of_one_shape(biased_pop, monkeypatch, kernel, lam, columns):
    """A step makes one kernel pass, reduced by BLAS since the step only
    sums its rows: K @ v without the gradient, and K @ [v, X v] with it."""
    from fairmmd import eok

    shapes, real = [], eok._matmul_unchecked

    def counted(spec, A, B, M, **kw):
        assert kw == {"row_stable": False}
        shapes.append(M.reshape(M.shape[0], -1).shape[1])
        return real(spec, A, B, M, **kw)

    monkeypatch.setattr(eok, "_matmul_unchecked", counted)
    data = sample_population(biased_pop, 301, seed=23)
    objective_gradient(data, 0.5 * np.eye(2), np.ones(2), 0.0, _cfg(kernel=kernel, lam=lam))
    assert shapes == [columns]


def test_training_stops_at_the_step_that_leaves_the_linear_ball(biased_pop, monkeypatch):
    """The update that takes an encoded training row out of the linear
    kernel's ball ends the run with a TrainingError naming that step; the
    steps before it keep every row inside."""
    from fairmmd import frl

    data = sample_population(biased_pop, 600, seed=0)
    cfg = _cfg(kernel=linear(10.0), lam=10.0, steps=20, batch=128)
    with pytest.raises(TrainingError, match=r"training step \d+: .* exceeds radius 10") as exc:
        train(data, cfg)
    step = exc.value.step
    assert step >= 1
    before = train(data, replace(cfg, steps=step))
    assert np.linalg.norm(data.z @ before.encoder.T, axis=1).max() <= 10.0

    assert "train.step_size or a larger kernel radius" in str(exc.value)

    # A kernel without a linear part checks no encoded rows.
    def no_check(*args):
        raise AssertionError("encoded rows checked")

    monkeypatch.setattr(frl, "_check_domain", no_check)
    train(data, replace(cfg, kernel=rbf(1.0), steps=5))


# Sweeps whose lambda lists hold repeats and 0, as the lockstep runs must
# keep each run apart; on the quick-start population with unequal outcome
# rates.
_SWEEP_POP = make_population(p=((0.7, 0.3), (0.3, 0.7)))
_SWEEP_LAMBDAS = [0.0, 1.0, 0.0, 3.0, 1.0]


def _sweep_one_by_one(lambdas, cfg, n, seed):
    """The sweep's rows from one :func:`train` call per lambda, tabulated in
    turn, or the first error that such a loop raises."""
    from fairmmd import frl

    data = sample_population(_SWEEP_POP, n, seed)
    rows = []
    for lam in lambdas:
        res = train(data, replace(cfg, lam=lam))
        rows.append(frl._sweep_row(cfg.kernel, data, lam, res.encoder, res.head_w,
                                   res.head_b, 20))
    return rows


@pytest.mark.parametrize("kernel, lambdas", [
    (rbf(1.0), _SWEEP_LAMBDAS), (linear(50.0), _SWEEP_LAMBDAS),
    (kernel_sum(linear(50.0), rbf(0.7)), [0.0, 0.0, 0.0]),
], ids=["rbf", "linear", "kernel_sum"])
@pytest.mark.parametrize("batch", [None, 64], ids=["full", "batch-64"])
def test_lambda_sweep_rows_equal_one_train_per_lambda(kernel, lambdas, batch):
    """The runs trained in lockstep give the rows of one train() run per
    lambda, bit for bit, with repeated lambdas and lambda = 0 in the list.
    The kernel sum has no penalty gradient, so its runs are unpenalized;
    its linear part still gives each run a ball check and a kernel pass
    per step."""
    cfg = _cfg(kernel=kernel, batch=batch, steps=15, step_size=0.1)
    got = lambda_sweep(_SWEEP_POP, lambdas, cfg, n=300, seed=5)
    assert list(got.rows) == _sweep_one_by_one(lambdas, cfg, 300, 5)


@pytest.mark.parametrize("batch", [None, 64], ids=["full", "batch-64"])
def test_lambda_sweep_draws_one_batch_per_step(monkeypatch, batch):
    """A mini-batch sweep draws one batch per step for all its runs, and a
    full-batch one draws none."""
    from fairmmd import frl

    draws, real = [], frl._batch_rows

    def counting(*args):
        draws.append(1)
        return real(*args)

    monkeypatch.setattr(frl, "_batch_rows", counting)
    lambda_sweep(_SWEEP_POP, _SWEEP_LAMBDAS, _cfg(batch=batch, steps=7), n=300, seed=5)
    assert len(draws) == (0 if batch is None else 7)


@pytest.mark.parametrize("batch", [None, 64], ids=["full", "batch-64"])
def test_lambda_sweep_makes_no_pass_for_an_unpenalized_run(monkeypatch, batch):
    """A sweep keeps no objective trace, so its lambda = 0 runs make no
    kernel pass: only the steps of the lambda > 0 runs do."""
    from fairmmd import eok

    passes, real = [], eok._matmul_unchecked

    def counting(*args, **kw):
        passes.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(eok, "_matmul_unchecked", counting)
    lambda_sweep(_SWEEP_POP, _SWEEP_LAMBDAS, _cfg(batch=batch, steps=7), n=300, seed=5)
    assert len(passes) == 3 * 7
    passes.clear()
    lambda_sweep(_SWEEP_POP, [0.0, 0.0], _cfg(batch=batch, steps=7), n=300, seed=5)
    assert passes == []


@pytest.mark.parametrize("kernel, step_size, lambdas", [
    (linear(10.0), 3.0, [0.0, 0.3, 0.0, 1.0, 0.3]),
    (rbf(1.0), 1e100, [0.0, 1e10, 0.0, 1e10]),
], ids=["linear", "rbf"])
@pytest.mark.parametrize("batch", [None, 64], ids=["full", "batch-64"])
def test_lambda_sweep_raises_the_first_error_of_the_runs_in_turn(kernel, step_size, lambdas,
                                                                 batch):
    """When several runs diverge, and a run listed later diverges at an
    earlier step, the sweep raises the error that the runs trained one after
    another raise first: same step, same message."""
    cfg = _cfg(kernel=kernel, step_size=step_size, batch=batch, steps=40, init_scale=1.0)
    data = sample_population(_SWEEP_POP, 300, 5)
    failed = []
    for lam in lambdas:
        try:
            train(data, replace(cfg, lam=lam))
        except TrainingError as exc:
            failed.append(exc.step)
    assert len(failed) >= 2 and min(failed[1:]) < failed[0], failed
    with pytest.raises(TrainingError) as want:
        _sweep_one_by_one(lambdas, cfg, 300, 5)
    with pytest.raises(TrainingError) as got:
        lambda_sweep(_SWEEP_POP, lambdas, cfg, n=300, seed=5)
    assert (got.value.step, str(got.value)) == (want.value.step, str(want.value))
