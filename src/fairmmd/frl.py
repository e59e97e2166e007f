"""Penalized training of fair linear representations.

The model is a linear encoder Z = X W' (W of shape (encoder_dim, d_in))
under a logistic head h(z) = sigmoid(w . z + b).  Training minimizes

    objective(W, w, b) = cross_entropy(h(XW'), Y) + lambda * eok2_plugin(XW')

by plain gradient descent — full-batch by default — where the penalty is the
differentiable plug-in squared equalized-odds statistic of the encoded
training rows (:func:`fairmmd.eok.eok_hat_plugin`), with its mixture weights
frozen to the full training set's empirical S=0 outcome rates before the
first step.  Mini-batches are stratified per (s, y) cell (proportional
counts, at least one row each) so the penalty stays defined; the frozen
weights are *not* recomputed per batch.  The penalty is the quadratic form
v' K v in the per-row coefficients v, which a run computes once from the
frozen weights and the batch's cells.  Both gradient components are
analytic: the cross-entropy part in closed form, the penalty part through
the code of :func:`fairmmd.eok.eok_gradient_plugin`.  Every step of
:func:`train` makes one kernel pass, K @ [v, X v] when lambda > 0 and K @ v
when lambda = 0, and reads the penalty value from its first column.  A run
checks its data, kernel and weights once; each step then works on the
batch's rows as plain arrays, with the formulas of
:func:`objective_gradient`.  The per-step trace
records the objective at the pre-update parameters, and total = sup +
lambda * penalty holds exactly by construction.

A run stops with :class:`fairmmd.errors.TrainingError`, naming the step,
as soon as the objective or a parameter stops being finite, or
(for a kernel with a linear part) as soon as the encoder maps a training
row outside that part's ball, on which the kernel's bound nu holds.  Its
arithmetic runs with numpy's floating-point warnings off: such a value ends
in that error alone.

:func:`lambda_sweep` maps the accuracy/fairness frontier: one dataset, one
training run per penalty weight, and a metrics row per run (computed on the
training rows — the frontier describes what the optimizer trades off, not
generalization).  Its runs share the seed, so one after another they would
start from the same parameters and draw the same batches; they train in
lockstep instead, through the one training loop that :func:`train` runs for
one run.  Each step draws its stratified batch and gathers its rows once
for all runs, and steps them as one stacked array program: one step
function takes the R runs' parameters as (R, e, d) encoders and their
logits as an (R, n) array, and runs the elementwise work and per-row
reductions (sigmoid, cross-entropy, residuals, updates, finiteness checks)
once on the stack.  Each run keeps its own BLAS products and its own
kernel pass, so its bits do not depend on the runs beside it;
:func:`objective_gradient` and :func:`train` call the same function with
R = 1.  A sweep keeps no objective trace, so a lambda = 0 run, whose
penalty feeds only that trace, makes no kernel pass, unless the kernel has
a linear part (whose penalty could overflow where the encoded rows do
not).  The rows and any error raised are those of the runs one after
another.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from ._rng import rng_for
from .eok import (_cell_coefficients, _check_cells, _penalty_and_gradient, _penalty_weights,
                  eok_hat_plugin)
from .errors import DomainError, TrainingError, ValidationError
from .fairness import (
    _sigmoid,
    balanced_accuracy,
    dc,
    dodds,
    dp,
    evaluate_batch,
    external_scores_classifier,
    logistic_head_classifier,
    sup_dp,
)
from .kernels import KernelSpec, _check_domain, _has_ball
from .mmd import cell_sums
from .synth import CELLS, LabeledDataset, PopulationSpec, cell_rows, sample_population

__all__ = [
    "TrainConfig",
    "TrainResult",
    "ObjectiveEval",
    "objective_gradient",
    "train",
    "lambda_sweep",
    "SweepResult",
]

_LOG_EPS = 1e-12


def _check_lambda(lam: float) -> None:
    if lam < 0 or not np.isfinite(lam):
        raise ValidationError(f"lambda must be finite and >= 0, got {lam}")


def _check_step_size(step_size: float) -> None:
    if not 0 < step_size < np.inf:
        raise ValidationError(f"step_size must be finite and > 0, got {step_size}")


def _check_init_scale(init_scale: float) -> None:
    if not np.isfinite(init_scale):
        raise ValidationError(f"init_scale must be finite, got {init_scale}")


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run."""

    kernel: KernelSpec
    lam: float = 1.0
    steps: int = 200
    step_size: float = 0.5
    encoder_dim: int = 2
    batch: int | None = None
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        _check_lambda(self.lam)
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        _check_step_size(self.step_size)
        _check_init_scale(self.init_scale)
        if self.encoder_dim < 1:
            raise ValidationError(f"encoder_dim must be >= 1, got {self.encoder_dim}")
        if self.batch is not None and self.batch < 8:
            raise ValidationError(f"batch must be >= 8 rows (or None), got {self.batch}")


@dataclass(frozen=True)
class ObjectiveEval:
    """Objective pieces and analytic gradients at one parameter point."""

    sup: float
    penalty: float
    total: float
    d_encoder: np.ndarray
    d_head_w: np.ndarray
    d_head_b: float


@dataclass(frozen=True)
class TrainResult:
    """Final parameters plus the per-step objective trace."""

    encoder: np.ndarray
    head_w: np.ndarray
    head_b: float
    weights: np.ndarray
    sup_trace: np.ndarray
    penalty_trace: np.ndarray
    total_trace: np.ndarray
    config: TrainConfig


def objective_gradient(
    data: LabeledDataset,
    encoder,
    head_w,
    head_b: float,
    cfg: TrainConfig,
    weights=None,
) -> ObjectiveEval:
    """Evaluate the penalized objective and its analytic gradients.

    ``weights`` are the frozen mixture weights; they default to the
    empirical S=0 outcome rates of ``data`` (the right thing for full-batch
    calls — mini-batch callers must pass the full-set weights explicitly).
    """
    W = np.asarray(encoder, dtype=float)
    w = np.asarray(head_w, dtype=float)
    if W.shape != (cfg.encoder_dim, data.dim) or not np.isfinite(W).all():
        raise ValidationError(f"encoder must be a finite ({cfg.encoder_dim}, {data.dim}) array")
    if w.shape != (cfg.encoder_dim,):
        raise ValidationError(f"head weights must be ({cfg.encoder_dim},)")
    weights, _ = _penalty_weights(cfg.kernel, data, weights, gradient=cfg.lam > 0)
    v = _cell_coefficients(weights, data.counts)[data.cell]
    sup, penalty, total, d_W, d_w, d_b = _step(
        cfg.kernel, np.array([cfg.lam]), data.z, data.y.astype(float), v, W[None], w[None],
        np.array([head_b], dtype=float), np.ones(1, dtype=bool))
    return ObjectiveEval(sup=float(sup[0]), penalty=float(penalty[0]), total=float(total[0]),
                         d_encoder=d_W[0], d_head_w=d_w[0], d_head_b=float(d_b[0]))


def _step(spec: KernelSpec, lams, X, y, v, W, w, b, passes) -> tuple:
    """The objective of :func:`objective_gradient` and its gradients for R
    runs that share one batch: rows ``X``, outcomes ``y`` as floats and the
    penalty's per-row coefficients ``v``, with run r's penalty weight
    ``lams[r]``, encoder ``W[r]`` (W is (R, e, d)) and head (``w[r]``,
    ``b[r]``).  Returns the stacked (sup, penalty, total, d_encoder,
    d_head_w, d_head_b), one entry per run.

    The elementwise work and the per-row reductions (the sigmoid, the
    cross-entropy, the residuals, the head bias's gradient) run once on the
    (R, n) logits.  Each BLAS product (X W', Z w, X' r, Z' r) and each
    kernel pass stays one call per run, so a run's bits do not depend on
    which runs share its step.  Run r makes its pass only where
    ``passes[r]``; one without (for lambda = 0 and a kernel without a linear
    part only) reads a penalty of 0 when its encoded rows are finite, where
    the kernel's values lie in [0, nu] and the computed penalty is finite
    too, and NaN otherwise, as the computed one would: so its total is
    finite exactly when the computed one would be."""
    n = X.shape[0]
    Z = np.empty((len(W), n, W.shape[1]))
    logits = np.empty((len(W), n))
    for r in range(len(W)):
        np.matmul(X, W[r].T, out=Z[r])
        np.matmul(Z[r], w[r], out=logits[r])
    logits += b[:, None]
    p = _sigmoid(logits)
    sup = -np.mean(y * np.log(p + _LOG_EPS) + (1.0 - y) * np.log(1.0 - p + _LOG_EPS), axis=1)
    resid = (p - y) / n
    d_x, d_w = np.empty((len(W), X.shape[1])), np.empty(w.shape)
    for r in range(len(W)):
        np.matmul(X.T, resid[r], out=d_x[r])
        np.matmul(Z[r].T, resid[r], out=d_w[r])
    d_W = w[:, :, None] * d_x[:, None, :]
    penalty = np.where(np.isfinite(Z).all(axis=(1, 2)), 0.0, np.nan)
    for r in np.flatnonzero(passes):
        penalty[r], d_pen = _penalty_and_gradient(spec, X, Z[r], v, gradient=lams[r] > 0)
        if d_pen is not None:
            d_W[r] += lams[r] * d_pen
    return sup, penalty, sup + lams * penalty, d_W, d_w, resid.sum(axis=1)


def _cell_pools(data: LabeledDataset) -> list:
    """Row indices of each (s, y) cell, in :data:`CELLS` order and ascending;
    every cell must be populated."""
    _check_cells(data, (1, 1), "training data")
    return [cell_rows(data, s, y) for (s, y) in CELLS]


def _batch_takes(pools, batch: int, n: int) -> list:
    """Rows a stratified batch takes from each cell's pool: the proportional
    count, at least one and at most the pool."""
    return [min(max(1, int(round(batch * pool.size / n))), pool.size) for pool in pools]


def _batch_rows(pools, takes, rng: np.random.Generator) -> np.ndarray:
    """One stratified batch's row indices, cell after cell."""
    return np.concatenate([rng.choice(pool, size=k, replace=False) for pool, k in zip(pools, takes)])


def _stratified_batch(
    data: LabeledDataset, batch: int, rng: np.random.Generator, pools=None
) -> LabeledDataset:
    """Proportional per-cell subsample with at least one row per cell.

    These are the rows a mini-batch :func:`train` step draws, though a
    training run draws them through :func:`_batch_rows` on pools it builds
    once, without a dataset per step.  ``pools``, when given, must be
    ``_cell_pools(data)``.
    """
    if pools is None:
        pools = _cell_pools(data)
    idx = _batch_rows(pools, _batch_takes(pools, batch, data.n), rng)
    return LabeledDataset(z=data.z[idx], s=data.s[idx], y=data.y[idx])


def _failed_run(spec: KernelSpec, X, step: int, option: str, W, *values) -> tuple:
    """The first of R runs that fails after ``step``, and its TrainingError
    naming the step, or (R, None) when none does.  Run r fails when its
    encoder ``W[r]`` (W is (R, e, d)) or its entry of another stacked
    parameter or objective value in ``values`` is not finite, or (when rows
    ``X`` are given) when ``W[r]`` encodes a row of ``X`` outside the ball
    of a linear part of ``spec``; the latter also names the config
    ``option`` to lower and the kernel radius to raise."""
    finite = np.isfinite(W).all(axis=(1, 2))
    for x in values:
        finite &= np.isfinite(x).reshape(len(W), -1).all(axis=1)
    for r in range(len(W)):
        fault = None
        if not finite[r]:
            fault = "the objective or the parameters diverged"
        elif X is not None:
            try:
                _check_domain(spec, X @ W[r].T, "the encoder")
            except DomainError as exc:
                fault = f"{exc}; try a smaller train.{option} or a larger kernel radius"
        if fault is not None:
            return r, TrainingError(f"training step {step}: {fault}", step=step)
    return len(W), None


def train(data: LabeledDataset, cfg: TrainConfig) -> TrainResult:
    """Gradient-descent run; deterministic given (data, cfg).

    The data, kernel and frozen weights are checked once, and the penalty's
    per-row coefficients computed once; each step then draws its batch's
    rows (the draws of :func:`_stratified_batch`) and evaluates the
    objective of :func:`objective_gradient` on them without a dataset of its
    own.  Raises TrainingError (with the offending step) if the objective or
    a parameter stops being finite, or if the encoder takes a training row
    out of the ball of a linear part of the kernel — typically a step size
    too large for the data scale.  The run computes with numpy's
    floating-point warnings off, so such a value ends in that error alone.
    It is the one-run case of the loop :func:`lambda_sweep` runs.
    """
    traces = np.empty((3, cfg.steps))
    params, frozen, failure = _lockstep(data, [cfg], traces)
    if failure is not None:
        raise failure
    (W, w, b), = params
    sup_t, pen_t, tot_t = traces
    return TrainResult(
        encoder=W, head_w=w, head_b=float(b), weights=frozen,
        sup_trace=sup_t, penalty_trace=pen_t, total_trace=tot_t, config=cfg,
    )


@np.errstate(all="ignore")
def _lockstep(data: LabeledDataset, configs: list, traces=None) -> tuple:
    """One training run per config, all in one loop: the parameters (W, w,
    b) of every run that finished, the frozen weights, and the TrainingError
    of the first run that failed (None when none did).

    The configs differ in ``lam`` alone, so their runs, one after another,
    would start from the same parameters and draw the same batches.  Here
    they step in lockstep: each step draws its batch and gathers its rows
    once for all of them, and the memory stays that of one batch.  The
    runs' parameters are stacked, (R, e, d) encoders, (R, e) head weights
    and (R,) biases, and each step is one :func:`_step` on the stack, with
    one update and one finiteness check for all runs.  The
    data and weights are checked as the first run's :func:`train` checks
    them, and in its order; :func:`lambda_sweep` checks the penalty
    gradient that a later run needs before.  When a run fails, it
    and the runs after it stop, and the runs before it go on, since one of
    them may fail at a later step: the error returned is the one the runs
    in turn would have raised first, and every run before it has finished.
    ``traces``, when given, is a (3, steps) array that receives the first
    run's objective per step; without it, a lambda = 0 run of a kernel
    without a linear part makes no kernel pass (see :func:`_step`).
    """
    cfg = configs[0]
    rng = rng_for(cfg.seed, 7)
    W = cfg.init_scale * rng.standard_normal((cfg.encoder_dim, data.dim)) / np.sqrt(data.dim)
    w = cfg.init_scale * rng.standard_normal(cfg.encoder_dim)
    X, y, cell, counts = data.z, data.y.astype(float), data.cell, data.counts
    if cfg.batch is not None:
        pools = _cell_pools(data)
        takes = _batch_takes(pools, cfg.batch, data.n)
        cell, counts = np.repeat(np.arange(4), takes), np.array(takes)
    frozen, _ = _penalty_weights(cfg.kernel, data, None, gradient=cfg.lam > 0)
    v = _cell_coefficients(frozen, counts)[cell]
    ball = data.z if _has_ball(cfg.kernel) else None
    _, failure = _failed_run(cfg.kernel, ball, 0, "init_scale", W[None], w[None])
    if failure is not None:
        raise failure
    lams = np.array([config.lam for config in configs])
    W, w, b = np.stack([W] * len(lams)), np.stack([w] * len(lams)), np.zeros(len(lams))
    passes = (lams > 0) | (traces is not None or ball is not None)
    for step in range(cfg.steps):
        if not len(lams):
            break
        if cfg.batch is not None:
            idx = _batch_rows(pools, takes, rng)
            X, y = data.z[idx], data.y[idx].astype(float)
        sup, penalty, total, d_W, d_w, d_b = _step(cfg.kernel, lams, X, y, v, W, w, b, passes)
        if traces is not None:
            traces[:, step] = sup[0], penalty[0], total[0]
        W = W - cfg.step_size * d_W
        w = w - cfg.step_size * d_w
        b = b - cfg.step_size * d_b
        r, fault = _failed_run(cfg.kernel, ball, step, "step_size", W, w, b, total)
        if fault is not None:
            failure = fault
            W, w, b, lams, passes = W[:r], w[:r], b[:r], lams[:r], passes[:r]
    return list(zip(W, w, b)), frozen, failure


@dataclass(frozen=True)
class SweepResult:
    """Frontier rows (one per penalty weight) for a single dataset."""

    rows: tuple
    lambdas: tuple
    n: int
    seed: int

    def as_dict(self) -> dict:
        return dict(asdict(self), rows=[dict(r) for r in self.rows], lambdas=list(self.lambdas))


def lambda_sweep(
    population: PopulationSpec,
    lambdas,
    cfg: TrainConfig,
    n: int,
    seed: int = 0,
    dc_bins: int | None = 20,
) -> SweepResult:
    """Train once per penalty weight on a shared dataset and tabulate metrics.

    Each row reports, on the encoded training rows: expected accuracy
    E[h 1{y=1} + (1-h) 1{y=0}], outcome balanced accuracy, dp, dodds, dc
    (binned by default for readability), the plug-in eok2, the dp supremum,
    and beta_hat (the S=1 group's outcome-conditional discrepancy) — the
    quantity whose product with the outcome-rate gap floors sup_dp.
    ``dc_bins`` must be None or >= 1; it and the lambdas are checked before
    the data are sampled, and, when a lambda is positive, the kernel's
    penalty gradient before the first training run.

    The runs are those of :func:`train` for each lambda, but trained in
    lockstep (see :func:`_lockstep`): each step draws one batch for all of
    them, and, since a sweep keeps no objective trace, a lambda = 0 run of a
    kernel without a linear part makes no kernel pass.  The rows, and any
    error raised, are those of the runs trained and tabulated in turn.
    """
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValidationError("need at least one lambda")
    if dc_bins is not None and not dc_bins >= 1:
        raise ValidationError(f"dc_bins must be None or >= 1, got {dc_bins!r}")
    configs = [replace(cfg, lam=lam) for lam in lambdas]
    data = sample_population(population, n, seed)
    if any(lam > 0 for lam in lambdas):
        _penalty_weights(cfg.kernel, data, None, gradient=True)
    params, _, failure = _lockstep(data, configs)
    rows = [_sweep_row(cfg.kernel, data, lam, W, w, b, dc_bins)
            for lam, (W, w, b) in zip(lambdas, params)]
    if failure is not None:
        raise failure
    return SweepResult(rows=tuple(rows), lambdas=tuple(lambdas), n=n, seed=seed)


def _sweep_row(spec: KernelSpec, data: LabeledDataset, lam: float, W, w, b,
               dc_bins: int | None) -> dict:
    """The :func:`lambda_sweep` row of the run with penalty weight ``lam``
    that ended at encoder ``W`` and head (``w``, ``b``)."""
    encoded = LabeledDataset(z=data.z @ W.T, s=data.s, y=data.y)
    t = evaluate_batch(logistic_head_classifier(w, float(b)), encoded.z)
    head = external_scores_classifier(t)
    yf = encoded.y.astype(float)
    return {
        "lambda": lam,
        "accuracy": float(np.mean(t * yf + (1.0 - t) * (1.0 - yf))),
        "balanced_accuracy": balanced_accuracy(head, encoded, "y"),
        "dp": dp(head, encoded),
        "dodds": dodds(head, encoded),
        "dc": dc(head, encoded, bins=dc_bins),
        "eok2": eok_hat_plugin(spec, encoded).eok2,
        "sup_dp": sup_dp(spec, encoded),
        "beta_hat": cell_sums(spec, encoded).mmd2(((1, 0),), ((1, 1),)).mmd,
    }
