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
the code of :func:`fairmmd.eok.eok_gradient_plugin`.  Every step makes one
kernel pass, K @ [v, X v] when lambda > 0 and K @ v when lambda = 0, and
reads the penalty value from its first column.  A run checks its data,
kernel and weights once; each step then works on the batch's rows as plain
arrays, with the formulas of :func:`objective_gradient`.  The per-step trace
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
generalization).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._rng import rng_for
from .eok import (_cell_coefficients, _check_cells, _penalty_and_gradient, _penalty_weights,
                  eok_hat_plugin)
from .errors import DomainError, TrainingError, ValidationError
from .fairness import (
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
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValidationError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if self.step_size <= 0:
            raise ValidationError(f"step_size must be > 0, got {self.step_size}")
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
    return _step(cfg, data.z, data.y.astype(float), v, W, w, head_b)


def _step(cfg: TrainConfig, X, y, v, W, w, b) -> ObjectiveEval:
    """:func:`objective_gradient` on checked arrays: rows ``X``, outcomes
    ``y`` as floats and the penalty's per-row coefficients ``v``."""
    Z = X @ W.T
    p = 1.0 / (1.0 + np.exp(-(Z @ w + b)))
    ce = float(-np.mean(y * np.log(p + _LOG_EPS) + (1.0 - y) * np.log(1.0 - p + _LOG_EPS)))
    resid = (p - y) / X.shape[0]
    d_enc = np.outer(w, X.T @ resid)
    penalty, d_pen = _penalty_and_gradient(cfg.kernel, X, Z, v, gradient=cfg.lam > 0)
    return ObjectiveEval(
        sup=ce, penalty=penalty, total=float(ce + cfg.lam * penalty),
        d_encoder=d_enc if d_pen is None else d_enc + cfg.lam * d_pen,
        d_head_w=Z.T @ resid, d_head_b=float(resid.sum()),
    )


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


def _check_step(spec: KernelSpec, X, step: int, option: str, W, *values) -> None:
    """Raise TrainingError naming ``step`` when the encoder ``W`` or another
    parameter or objective value in ``values`` is not finite, or (when rows
    ``X`` are given) when ``W`` encodes a row of ``X`` outside the ball of a
    linear part of ``spec``; the latter also names the config ``option`` to
    lower and the kernel radius to raise."""
    fault = None
    if not all(np.isfinite(x).all() for x in (W, *values)):
        fault = "the objective or the parameters diverged"
    elif X is not None:
        try:
            _check_domain(spec, X @ W.T, "the encoder")
        except DomainError as exc:
            fault = f"{exc}; try a smaller train.{option} or a larger kernel radius"
    if fault is not None:
        raise TrainingError(f"training step {step}: {fault}", step=step)


@np.errstate(all="ignore")
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
    """
    rng = rng_for(cfg.seed, 7)
    W = cfg.init_scale * rng.standard_normal((cfg.encoder_dim, data.dim)) / np.sqrt(data.dim)
    w = cfg.init_scale * rng.standard_normal(cfg.encoder_dim)
    b = 0.0
    sup_t, pen_t, tot_t = np.empty((3, cfg.steps))
    X, y, cell, counts = data.z, data.y.astype(float), data.cell, data.counts
    if cfg.batch is not None:
        pools = _cell_pools(data)
        takes = _batch_takes(pools, cfg.batch, data.n)
        cell, counts = np.repeat(np.arange(4), takes), np.array(takes)
    frozen, _ = _penalty_weights(cfg.kernel, data, None, gradient=cfg.lam > 0)
    v = _cell_coefficients(frozen, counts)[cell]
    ball = data.z if _has_ball(cfg.kernel) else None
    _check_step(cfg.kernel, ball, 0, "init_scale", W, w)
    for step in range(cfg.steps):
        if cfg.batch is not None:
            idx = _batch_rows(pools, takes, rng)
            X, y = data.z[idx], data.y[idx].astype(float)
        ev = _step(cfg, X, y, v, W, w, b)
        sup_t[step], pen_t[step], tot_t[step] = ev.sup, ev.penalty, ev.total
        W = W - cfg.step_size * ev.d_encoder
        w = w - cfg.step_size * ev.d_head_w
        b = b - cfg.step_size * ev.d_head_b
        _check_step(cfg.kernel, ball, step, "step_size", W, w, b, ev.total)
    return TrainResult(
        encoder=W, head_w=w, head_b=float(b), weights=frozen,
        sup_trace=sup_t, penalty_trace=pen_t, total_trace=tot_t, config=cfg,
    )


@dataclass(frozen=True)
class SweepResult:
    """Frontier rows (one per penalty weight) for a single dataset."""

    rows: tuple
    lambdas: tuple
    n: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "rows": [dict(r) for r in self.rows],
            "lambdas": list(self.lambdas), "n": self.n, "seed": self.seed,
        }


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
    ``dc_bins`` must be None or >= 1; both it and the lambdas are checked
    before the first training run.
    """
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValidationError("need at least one lambda")
    if dc_bins is not None and not dc_bins >= 1:
        raise ValidationError(f"dc_bins must be None or >= 1, got {dc_bins!r}")
    data = sample_population(population, n, seed)
    rows = []
    for lam in lambdas:
        res = train(data, replace(cfg, lam=lam))
        encoded = LabeledDataset(z=data.z @ res.encoder.T, s=data.s, y=data.y)
        t = evaluate_batch(logistic_head_classifier(res.head_w, res.head_b), encoded.z)
        head = external_scores_classifier(t)
        yf = encoded.y.astype(float)
        rows.append({
            "lambda": lam,
            "accuracy": float(np.mean(t * yf + (1.0 - t) * (1.0 - yf))),
            "balanced_accuracy": balanced_accuracy(head, encoded, "y"),
            "dp": dp(head, encoded),
            "dodds": dodds(head, encoded),
            "dc": dc(head, encoded, bins=dc_bins),
            "eok2": eok_hat_plugin(cfg.kernel, encoded).eok2,
            "sup_dp": sup_dp(cfg.kernel, encoded),
            "beta_hat": cell_sums(cfg.kernel, encoded).mmd2(((1, 0),), ((1, 1),)).mmd,
        })
    return SweepResult(rows=tuple(rows), lambdas=tuple(lambdas), n=n, seed=seed)
