"""Group-fairness metrics in expectation form, and RKHS-ball classifiers.

A classifier here is a score function h mapping representations to [0, 1],
read as h(z) = P(Yhat = 1 | z).  All metrics are phrased as expectations of
h over conditional empirical laws, never as thresholded counts.  dodds and
dc score the classifier once and hand the scores to their two parts as
``external_scores_classifier(scores)``; callers that compute many metrics
do the same:

  dp     | E[h | S=1] - E[h | S=0] |                  (demographic parity)
  dopp   | E[h | Y=1, S=1] - E[h | Y=1, S=0] |        (opportunity)
  dr     same with Y=0                                (false-positive side)
  dodds  (dopp + dr) / 2                              (equalized odds)
  dpc    (1/2) sum_t | P(Y=1, h=t | S=1) - P(Y=1, h=t | S=0) |
  dnc    same with Y=0                                (calibration, by score atom)
  dc     (dpc + dnc) / 2
  balanced_accuracy   (E[1-h | label=0] + E[h | label=1]) / 2

The classifier family tied to a kernel is the shifted RKHS ball
{ h = (g + 1)/2 : ||g||_H <= nu^(-1/2) }, whose members take values in
[0, 1] on the kernel's domain (|g(z)| <= ||g|| sqrt(k(z,z)) <= 1); empirical
constructions clip g to [-1, 1] before the shift so finite-sample
excursions cannot leave the range.  Over that family the demographic-parity
supremum has the closed form

  sup_h dp(h) = (2 sqrt(nu))^(-1) * gamma_k(Z | S=0, Z | S=1),

estimated by :func:`sup_dp` with the unbiased squared-discrepancy estimator
(clipped at zero before the root).  The supremum is attained by the witness
direction, available as :func:`witness_classifier`; random elements of the
same ball (:func:`random_ball_classifier`) are useful as probes that must
stay below the supremum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .errors import (
    EmptyCellError,
    StratificationError,
    ValidationError,
)
from .kernels import KernelSpec, kernel_matmul
from .mmd import CellSums, _witness, cell_sums
from .synth import LabeledDataset

__all__ = [
    "GroupStats",
    "Classifier",
    "group_stats",
    "witness_classifier",
    "ball_classifier",
    "random_ball_classifier",
    "constant_classifier",
    "logistic_head_classifier",
    "external_scores_classifier",
    "evaluate_batch",
    "dp",
    "dopp",
    "dr",
    "dodds",
    "dpc",
    "dnc",
    "dc",
    "balanced_accuracy",
    "sup_dp",
    "witness_scores",
]


# The (s, y) cells of each S-group and of each outcome, as CellSums reads them.
GROUP_CELLS = (((0, 0), (0, 1)), ((1, 0), (1, 1)))
OUTCOME_CELLS = (((0, 0), (1, 0)), ((0, 1), (1, 1)))


@dataclass(frozen=True)
class GroupStats:
    """Cell counts and conditional outcome rates of a dataset.

    ``counts[s, y]`` is the number of rows in cell (s, y);
    ``p_y_given_s[s, y]`` the empirical P(Y=y | S=s).
    """

    counts: np.ndarray
    p_y_given_s: np.ndarray
    n: int


def group_stats(data: LabeledDataset) -> GroupStats:
    """Tabulate cell counts; requires both S-groups to be nonempty."""
    counts = data.counts.reshape(2, 2)
    totals = counts.sum(axis=1)
    if (totals == 0).any():
        raise StratificationError(f"both S-groups must be nonempty, got sizes {totals.tolist()}")
    return GroupStats(counts=counts, p_y_given_s=counts / totals[:, None], n=data.n)


# ---------------------------------------------------------------------------
# classifiers


@dataclass(frozen=True)
class Classifier:
    """Score function dispatched on ``kind``.

    kinds and payloads:
      rkhs_witness     kernel spec + anchor rows + coefficients;
                       g(z) = sum_i coefs[i] k(z, anchors[i]),
                       h(z) = (clip(g, -1, 1) + 1) / 2
      constant         h(z) = value
      logistic_head    h(z) = sigmoid(weights . z + bias)
      external_scores  precomputed per-row scores aligned with one dataset
    """

    kind: str
    spec: KernelSpec | None = None
    anchors: np.ndarray | None = None
    coefs: np.ndarray | None = None
    value: float | None = None
    weights: np.ndarray | None = None
    bias: float | None = None
    scores: np.ndarray | None = None


def witness_classifier(spec: KernelSpec, A, B) -> Classifier:
    """Ball classifier along the witness direction separating samples A and B.

    g = nu^(-1/2) times the unit-norm witness of (A, B), so ||g||_H is
    exactly nu^(-1/2) and h = (g+1)/2 attains the dp supremum over the ball
    (oriented so E[h over A] >= E[h over B]).
    """
    anchors, coefs, root = _witness(spec, A, B)
    return Classifier(kind="rkhs_witness", spec=spec, anchors=anchors,
                      coefs=coefs * (1.0 / (np.sqrt(spec.nu) * root)))


def ball_classifier(spec: KernelSpec, anchors, coefs) -> Classifier:
    """Classifier from an explicit kernel expansion, normalized into the ball.

    g0 = sum_i coefs[i] k(., anchors[i]) has ||g0||^2 = coefs' K coefs; the
    classifier stores coefs times the scale that brings g0 to norm exactly
    nu^(-1/2), so g(z) = sum_i coefs[i] k(z, anchors[i]) with the stored
    coefs.
    """
    anchors = np.asarray(anchors, dtype=float)
    coefs = np.asarray(coefs, dtype=float)
    if coefs.shape != (anchors.shape[0],):
        raise ValidationError("coefs must align with anchor rows")
    return Classifier(kind="rkhs_witness", spec=spec, anchors=anchors,
                      coefs=coefs * _ball_scales(spec, anchors, coefs[:, None])[0])


def _ball_scales(spec: KernelSpec, anchors: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The scale 1 / sqrt(nu c' K c) that normalizes the expansion with
    coefficients c into the ball, for each column c of ``C``, all from one
    kernel pass.  Each c' K c is a dot of contiguous copies, so a column
    gets the bits it would get from a pass of its own (not for the linear
    kernel, whose pass multiplies all columns in one product)."""
    KC = kernel_matmul(spec, anchors, anchors, C)
    norm2 = np.array([np.ascontiguousarray(c) @ np.ascontiguousarray(k)
                      for c, k in zip(C.T, KC.T)])
    if (norm2 <= 0.0).any():
        raise ValidationError("expansion has zero RKHS norm; cannot normalize")
    return 1.0 / np.sqrt(spec.nu * norm2)


def random_ball_classifier(spec: KernelSpec, anchors, seed: int) -> Classifier:
    """Random direction in the nu^(-1/2)-ball, anchored at the given rows."""
    anchors = np.asarray(anchors, dtype=float)
    return ball_classifier(spec, anchors, _random_coefs(seed, anchors.shape[0]))


def _random_coefs(seed: int, size: int) -> np.ndarray:
    """The ``size`` expansion coefficients of :func:`random_ball_classifier`
    with ``seed``, before their scale."""
    return rng_for(seed, 17).standard_normal(size)


def constant_classifier(value: float) -> Classifier:
    if not (np.isscalar(value) and 0.0 <= value <= 1.0):
        raise ValidationError(f"constant score must lie in [0, 1], got {value!r}")
    return Classifier(kind="constant", value=float(value))


def logistic_head_classifier(weights, bias: float) -> Classifier:
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or not np.all(np.isfinite(weights)) or not np.isfinite(bias):
        raise ValidationError("logistic head needs a finite weight vector and bias")
    return Classifier(kind="logistic_head", weights=weights, bias=float(bias))


def external_scores_classifier(scores) -> Classifier:
    """Wrap precomputed per-row scores (must align with the dataset used)."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be a finite 1-d vector")
    if scores.min() < 0.0 or scores.max() > 1.0:
        raise ValidationError("scores must lie in [0, 1]")
    return Classifier(kind="external_scores", scores=scores)


def evaluate_batch(h: Classifier, Z) -> np.ndarray:
    """Scores h(z) for every row of Z, always within [0, 1]."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise ValidationError("Z must be an (n, d) array")
    if h.kind == "rkhs_witness":
        return _ball_scores(kernel_matmul(h.spec, Z, h.anchors, h.coefs))
    if h.kind == "constant":
        return np.full(Z.shape[0], h.value)
    if h.kind == "logistic_head":
        if Z.shape[1] != h.weights.size:
            raise ValidationError(
                f"logistic head expects d={h.weights.size}, got {Z.shape[1]}"
            )
        return _sigmoid(Z @ h.weights + h.bias)
    if h.kind == "external_scores":
        if Z.shape[0] != h.scores.size:
            raise ValidationError(
                f"external scores carry {h.scores.size} rows but dataset has {Z.shape[0]}"
            )
        return h.scores.copy()
    raise ValidationError(f"unknown classifier kind {h.kind!r}")  # pragma: no cover


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), which saturates to 0 without a warning where
    exp(-x) overflows, and has those bits wherever it is finite."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _ball_scores(g: np.ndarray) -> np.ndarray:
    """Scores h = (clip(g, -1, 1) + 1) / 2 of ball members with values g."""
    return (np.clip(g, -1.0, 1.0) + 1.0) / 2.0


def witness_scores(sums: CellSums, p, q) -> np.ndarray:
    """Scores at the summarized rows of the witness ball classifier of
    (cells ``p``, cells ``q``), read from their kernel sums.

    Equal, up to float rounding, to ``evaluate_batch(witness_classifier(
    spec, z[p], z[q]), z)``, without a kernel pass of its own.
    """
    return _ball_scores(sums.witness(p, q) / np.sqrt(sums.spec.nu))


# ---------------------------------------------------------------------------
# metrics


def _scores(h: Classifier, data: LabeledDataset) -> np.ndarray:
    # The metrics only read the scores, so aligned external scores are used
    # as they are, without evaluate_batch's defensive copy.
    if h.kind == "external_scores" and h.scores.size == data.n:
        return h.scores
    return evaluate_batch(h, data.z)


def _group_means(t: np.ndarray, mask0: np.ndarray, mask1: np.ndarray, what: str):
    if not mask0.any() or not mask1.any():
        raise StratificationError(f"{what} needs rows on both sides of the conditioning")
    return float(t[mask0].mean()), float(t[mask1].mean())


def dp(h: Classifier, data: LabeledDataset) -> float:
    """Demographic parity gap |E[h | S=1] - E[h | S=0]|."""
    t = _scores(h, data)
    m0, m1 = _group_means(t, data.s == 0, data.s == 1, "dp")
    return abs(m1 - m0)


def _cell_gap(h: Classifier, data: LabeledDataset, y: int, what: str) -> float:
    for s in (0, 1):
        if data.counts[2 * s + y] == 0:
            raise EmptyCellError(f"{what} needs rows in cell (s={s}, y={y})")
    t = _scores(h, data)
    m0, m1 = (float(t[data.cell == 2 * s + y].mean()) for s in (0, 1))
    return abs(m1 - m0)


def dopp(h: Classifier, data: LabeledDataset) -> float:
    """Opportunity gap: dp restricted to the Y=1 stratum."""
    return _cell_gap(h, data, 1, "dopp")


def dr(h: Classifier, data: LabeledDataset) -> float:
    """The Y=0 counterpart of dopp."""
    return _cell_gap(h, data, 0, "dr")


def dodds(h: Classifier, data: LabeledDataset) -> float:
    """Equalized-odds gap: mean of the two per-outcome gaps."""
    h = external_scores_classifier(_scores(h, data))
    return 0.5 * (dopp(h, data) + dr(h, data))


def _score_atoms(t: np.ndarray, bins: int | None) -> np.ndarray:
    """Atom index of each score: exact values, or equal-width bins on [0, 1]."""
    if bins is None:
        _, ids = np.unique(t, return_inverse=True)
        return ids
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    return np.clip(np.digitize(t, edges[1:-1]), 0, bins - 1)


def _calibration_gap(h: Classifier, data: LabeledDataset, y: int, bins: int | None) -> float:
    t = _scores(h, data)
    ids = _score_atoms(t, bins)
    k = int(ids.max()) + 1
    joint = []
    for s in (0, 1):
        size = data.counts[2 * s] + data.counts[2 * s + 1]
        if size == 0:
            raise StratificationError("calibration gaps need rows in both S-groups")
        joint.append(np.bincount(ids[data.cell == 2 * s + y], minlength=k) / size)
    return 0.5 * float(np.abs(joint[1] - joint[0]).sum())


def dpc(h: Classifier, data: LabeledDataset, bins: int | None = None) -> float:
    """Positive-class calibration gap, summed over score atoms.

    With ``bins=None`` the atoms are the exact observed score values, which
    makes 2 * dc the exact total-variation distance between the empirical
    joint laws of (Y, h(Z)) given S — the identity the calibration bound
    checker relies on.  Binning trades that exactness for stability.
    """
    return _calibration_gap(h, data, 1, bins)


def dnc(h: Classifier, data: LabeledDataset, bins: int | None = None) -> float:
    """Negative-class calibration gap (Y=0 side of dpc)."""
    return _calibration_gap(h, data, 0, bins)


def dc(h: Classifier, data: LabeledDataset, bins: int | None = None) -> float:
    """Calibration gap: mean of dpc and dnc."""
    h = external_scores_classifier(_scores(h, data))
    return 0.5 * (dpc(h, data, bins) + dnc(h, data, bins))


def balanced_accuracy(h: Classifier, data: LabeledDataset, label: str) -> float:
    """(E[1-h | label=0] + E[h | label=1]) / 2 with label "s" or "y"."""
    if label not in ("s", "y"):
        raise ValidationError(f'label must be "s" or "y", got {label!r}')
    lab = data.s if label == "s" else data.y
    t = _scores(h, data)
    m0, m1 = _group_means(t, lab == 0, lab == 1, f"balanced_accuracy over {label}")
    return 0.5 * ((1.0 - m0) + m1)


def sup_dp(spec: KernelSpec, data: LabeledDataset) -> float:
    """Closed-form dp supremum over the nu^(-1/2) RKHS ball.

    (2 sqrt(nu))^(-1) times the root of the unbiased squared discrepancy
    between the two group-conditional representation samples (clipped at
    zero before the root), read from the dataset's cell sums.
    """
    if data.counts[:2].sum() < 2 or data.counts[2:].sum() < 2:
        raise StratificationError("sup_dp needs at least two rows in each S-group")
    est = cell_sums(spec, data).mmd2(GROUP_CELLS[0], GROUP_CELLS[1], unbiased=True)
    return est.mmd / (2.0 * np.sqrt(spec.nu))
