"""Checkable certificates for the fairness trade-off inequalities.

Each checker evaluates both sides of one inequality (or equality) on a
dataset and returns a :class:`BoundReport`.  Reports use a single sign
convention: for ``kind="ge"`` clauses the theorem guarantees lhs >= rhs and
the clause holds when ``slack = lhs - rhs >= -tolerance``; for
``kind="eq"`` clauses it holds when ``|slack| <= tolerance``.  An
``inputs_digest`` ties every verdict to the exact data and parameters it was
computed from.

The clauses:

* :func:`check_unbiased_equality` — when the empirical outcome rates of the
  two groups agree (precondition), the dp supremum over the RKHS ball equals
  (2 sqrt(nu))^(-1) times the equalized-odds discrepancy root.

* :func:`check_biased_lower_bound` — in general the dp supremum is at least
  (2 sqrt(nu))^(-1) * | |p0(0) - p0(1)| * beta - eok |, where beta is the
  discrepancy between the S=1 group's two outcome-conditional laws and
  p0(s) = P(Y=0 | S=s): group-blind representations cannot hide outcome
  bias unless they also collapse outcome information.

* :func:`check_ba_bounds` — balanced accuracy of any ball classifier at
  predicting the *group* is at most (2 + nu^(-1/2) gamma(Z|S=0, Z|S=1)) / 4
  (probed with the group witness and random ball members), while the
  *outcome* witness achieves balanced accuracy at least
  (2 + nu^(-1/2) gamma(Z|Y=0, Z|Y=1)) / 4.

* :func:`check_calibration_chain` — scores u = h(z) paired with outcomes are
  compared across groups with the tensor kernel
  (u u' + rbf(u, u'; sigma_u)) (x) rbf(y, y'; sigma_y).  Clause A: the
  calibration gap dc dominates (4 sqrt(nu_u nu_y))^(-1) times that tensor
  discrepancy.  Clause B: the tensor discrepancy dominates the dp supremum —
  conservatively, since the identity's RKHS norm in the sum-kernel score
  space is only bounded above by 1 (via its linear part), and the true
  multiplier 1/||id|| >= 1 is not computed.

* :func:`check_tvd_dominance` — on finitely supported representations,
  2 sqrt(nu) times the total variation distance between the group laws
  dominates the kernel discrepancy; exact up to float error, so the default
  tolerance is 1e-9.  Both sides are read from each group's counts of the
  distinct rows (atoms): the rhs comes from one square kernel pass over the
  atoms, with the two groups' counts as its weight columns, so it costs
  kernel entries between atoms only, not between rows, and each pair of
  atoms once.

Right-hand-side discrepancies are always the plug-in root
(:func:`fairmmd.mmd.gamma_biased`): it is the exact kernel discrepancy of
the empirical laws, so each distribution-level inequality applies to the
data verbatim and a correct implementation cannot fail these checks by
estimator noise alone.  The dp supremum keeps its unbiased-root definition
from :func:`fairmmd.fairness.sup_dp`.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from ._rng import rng_for
from .eok import eok_hat_plugin
from .errors import InapplicableError, ValidationError
from .fairness import (
    GROUP_CELLS,
    OUTCOME_CELLS,
    Classifier,
    _ball_scales,
    _ball_scores,
    _random_coefs,
    balanced_accuracy,
    dc,
    evaluate_batch,
    external_scores_classifier,
    group_stats,
    sup_dp,
    witness_scores,
)
from .kernels import (
    KernelSpec,
    _checked_pair,
    kernel_matmul,
    kernel_sum,
    linear,
    pairwise,
    product,
    rbf,
)
from .mmd import _between, _gram_sums, cell_sums
from .synth import CELLS, LabeledDataset

__all__ = [
    "BoundReport",
    "check_unbiased_equality",
    "check_biased_lower_bound",
    "check_ba_bounds",
    "check_calibration_chain",
    "check_tvd_dominance",
]


@dataclass(frozen=True)
class BoundReport:
    """Evaluated clause: sides, slack, verdict, and an input fingerprint."""

    name: str
    kind: str  # "ge" (lhs >= rhs) or "eq" (lhs == rhs)
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    holds: bool
    inputs_digest: str

    def as_dict(self) -> dict:
        return asdict(self)


def _digest(data: LabeledDataset, spec: KernelSpec, *extra) -> str:
    """SHA-256 over the rows, labels, kernel description, and extras."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.z).tobytes())
    h.update(np.ascontiguousarray(data.s).tobytes())
    h.update(np.ascontiguousarray(data.y).tobytes())
    h.update(repr(spec).encode())
    for item in extra:
        h.update(repr(item).encode())
    return h.hexdigest()


def _report(name: str, kind: str, lhs: float, rhs: float, tol: float, digest: str) -> BoundReport:
    if tol < 0:
        raise ValidationError(f"tolerance must be >= 0, got {tol}")
    slack = lhs - rhs
    holds = (slack >= -tol) if kind == "ge" else (abs(slack) <= tol)
    return BoundReport(
        name=name, kind=kind, lhs=float(lhs), rhs=float(rhs), slack=float(slack),
        tolerance=float(tol), holds=bool(holds), inputs_digest=digest,
    )


def check_unbiased_equality(
    spec: KernelSpec,
    data: LabeledDataset,
    tol: float = 0.02,
    rate_threshold: float = 0.02,
) -> BoundReport:
    """Equality of the dp supremum and the scaled eok root under matched rates.

    Applicable only when |p_hat(Y=0|S=0) - p_hat(Y=0|S=1)| <= rate_threshold;
    otherwise the premise fails and InapplicableError is raised rather than
    returning a meaningless verdict.  Both sides, like every statistic the
    checks below read from cell sums, come from the dataset's one pass of
    :func:`fairmmd.mmd.cell_sums` under ``spec``.  ``rate_threshold`` must
    be >= 0.
    """
    if not rate_threshold >= 0:
        raise ValidationError(f"rate_threshold must be >= 0, got {rate_threshold!r}")
    stats = group_stats(data)
    rate_gap = abs(stats.p_y_given_s[0, 0] - stats.p_y_given_s[1, 0])
    if rate_gap > rate_threshold:
        raise InapplicableError(
            f"outcome rates differ by {rate_gap:.4f} > {rate_threshold}; "
            "the equality clause assumes matched rates"
        )
    lhs = sup_dp(spec, data)
    rhs = eok_hat_plugin(spec, data).eok / (2.0 * np.sqrt(spec.nu))
    return _report(
        "sup_dp_equals_scaled_eok", "eq", lhs, rhs, tol,
        _digest(data, spec, "unbiased_equality", tol, rate_threshold),
    )


def check_biased_lower_bound(
    spec: KernelSpec, data: LabeledDataset, tol: float = 0.03
) -> BoundReport:
    """General floor under the dp supremum from outcome-rate bias.

    rhs = (2 sqrt(nu))^(-1) * | |p_hat(0|0) - p_hat(0|1)| * beta_hat - eok |,
    with beta_hat the plug-in discrepancy between the S=1 group's outcome-
    conditional samples.
    """
    stats = group_stats(data)
    for y in (0, 1):
        if stats.counts[1, y] == 0:
            raise InapplicableError(f"beta_hat needs rows in cell (s=1, y={y})")
    rate_gap = abs(stats.p_y_given_s[0, 0] - stats.p_y_given_s[1, 0])
    beta = cell_sums(spec, data).mmd2(((1, 0),), ((1, 1),)).mmd
    eok = eok_hat_plugin(spec, data).eok
    lhs = sup_dp(spec, data)
    rhs = abs(rate_gap * beta - eok) / (2.0 * np.sqrt(spec.nu))
    return _report(
        "sup_dp_biased_floor", "ge", lhs, rhs, tol,
        _digest(data, spec, "biased_lower_bound", tol),
    )


def _best_balanced_accuracy(t: np.ndarray, data: LabeledDataset, label: str) -> float:
    """BA of the better orientation of scores t (the ball is symmetric under
    g -> -g, which maps h to 1 - h and BA to 1 - BA)."""
    ba = balanced_accuracy(external_scores_classifier(t), data, label)
    return max(ba, 1.0 - ba)


def check_ba_bounds(
    spec: KernelSpec,
    data: LabeledDataset,
    trials: int = 50,
    tol: float = 0.01,
    seed: int = 0,
    n_anchors: int = 100,
) -> tuple[BoundReport, BoundReport]:
    """Both balanced-accuracy clauses; returns (group_upper, outcome_lower).

    group_upper probes the bound with the group witness plus ``trials``
    random ball classifiers anchored at ``n_anchors`` subsampled rows, each
    tried in both orientations; lhs is the bound, rhs the best probe.
    outcome_lower evaluates the outcome witness against its guarantee.
    The discrepancies and both witnesses are read from one pass of cell
    sums; the probes share their anchors, so one pass among the anchors
    normalizes them all and one more, of the rows against the anchors,
    scores them all.  ``trials`` must be >= 0 and ``n_anchors`` >= 1.
    """
    if trials < 0 or n_anchors < 1:
        raise ValidationError(
            f"need trials >= 0 and n_anchors >= 1, got trials={trials}, n_anchors={n_anchors}")
    sums = cell_sums(spec, data)
    gamma_s = sums.mmd2(GROUP_CELLS[0], GROUP_CELLS[1]).mmd
    if gamma_s > 2.0 * np.sqrt(spec.nu) * (1 + 1e-9):  # pragma: no cover
        raise ValidationError("discrepancy exceeded its kernel-bounded maximum")
    rng = rng_for(seed, 29)
    anchors = data.z[rng.choice(data.n, size=min(n_anchors, data.n), replace=False)]
    scores = [witness_scores(sums, GROUP_CELLS[1], GROUP_CELLS[0])]
    if trials:
        # Probe t is random_ball_classifier(spec, anchors, seed * 100003 + t),
        # bit for bit for tiled kernels; the linear kernel's norms come from
        # one product of all columns, so they match it to rounding only
        # (tests/test_bounds.py::test_ba_probes_are_random_ball_classifiers).
        coefs = np.column_stack([_random_coefs(int(seed) * 100003 + t, anchors.shape[0])
                                 for t in range(trials)])
        coefs *= _ball_scales(spec, anchors, coefs)
        scores.extend(_ball_scores(kernel_matmul(spec, data.z, anchors, coefs)).T)
    best = max(_best_balanced_accuracy(t, data, "s") for t in scores)
    upper_bound = (2.0 + gamma_s / np.sqrt(spec.nu)) / 4.0
    upper = _report(
        "ba_group_upper", "ge", upper_bound, best, tol,
        _digest(data, spec, "ba_upper", trials, tol, seed, n_anchors),
    )

    gamma_y = sums.mmd2(OUTCOME_CELLS[0], OUTCOME_CELLS[1]).mmd
    h_y = external_scores_classifier(witness_scores(sums, OUTCOME_CELLS[1], OUTCOME_CELLS[0]))
    lower = _report(
        "ba_outcome_lower", "ge",
        balanced_accuracy(h_y, data, "y"), (2.0 + gamma_y / np.sqrt(spec.nu)) / 4.0, tol,
        _digest(data, spec, "ba_lower", tol),
    )
    return upper, lower


def check_calibration_chain(
    spec: KernelSpec,
    data: LabeledDataset,
    h: Classifier | None = None,
    sigma_u: float = 0.5,
    sigma_y: float = 1.0,
    tol: float = 0.05,
) -> tuple[BoundReport, BoundReport]:
    """Calibration-vs-parity chain through the score-outcome tensor kernel.

    ``h`` defaults to the group witness (the dp-supremum achiever).  Scores
    and outcomes are paired into rows (u, y); the tensor kernel is
    (u u' + rbf_{sigma_u}) (x) rbf_{sigma_y} with score-side amplitude
    nu_u = 2 on [0, 1] and outcome-side nu_y = 1.  The dc side uses exact
    score atoms (no binning), keeping clause A an identity-level inequality
    on the empirical laws.
    """
    k_u, k_y = kernel_sum(linear(1.0), rbf(sigma_u)), rbf(sigma_y)
    if h is None:
        scores = witness_scores(cell_sums(spec, data), GROUP_CELLS[1], GROUP_CELLS[0])
    else:
        scores = evaluate_batch(h, data.z)
    gamma_t = _tensor_gamma(k_u, k_y, scores, data)

    clause_a = _report(
        "dc_dominates_tensor", "ge",
        dc(external_scores_classifier(scores), data, bins=None),
        gamma_t / (4.0 * np.sqrt(k_u.nu * k_y.nu)),
        tol,
        _digest(data, spec, "calibration_a", sigma_u, sigma_y, tol),
    )
    clause_b = _report(
        "tensor_dominates_sup_dp", "ge",
        gamma_t, sup_dp(spec, data), tol,
        _digest(data, spec, "calibration_b", sigma_u, sigma_y, tol),
    )
    return clause_a, clause_b


def _tensor_gamma(k_u: KernelSpec, k_y: KernelSpec, scores: np.ndarray, data: LabeledDataset) -> float:
    """:func:`gamma_biased` under k_u (x) k_y between the (score, outcome)
    pairs of the two groups, where k_u is a linear kernel plus a second part.

    The outcome is binary, so over the rows of cells c and c' the tensor
    kernel sums to k_y(y_c, y_c') (S[c, c'] + T_c T_c'), where S is the cell-
    block of Gram sums of the scores under the second part and T_c the score
    total of cell c.  S is the block sums of :func:`fairmmd.mmd._gram_sums`
    over the scores with the cell one-hot as weight columns, one square pass
    of that part in place of a pass of the product kernel; only the block
    sums are read, so the pass reduces its tiles by BLAS
    (``row_stable=False``).  The root is the two-sample reader
    :func:`fairmmd.mmd._between` of the cell blocks, groups as unions of
    cells.  The pairs still get the product kernel's shape and domain
    checks.
    """
    pairs = np.column_stack([scores, data.y.astype(float)])
    _checked_pair(product(k_u, k_y, split=1), pairs[data.s == 0], pairs[data.s == 1])
    S = _gram_sums(k_u.parts[1], scores[:, None], np.eye(4)[data.cell], data.cell,
                   row_stable=False)[1]
    totals = np.bincount(data.cell, weights=scores, minlength=4)
    y_cell = np.array([[y] for (_, y) in CELLS], dtype=float)
    block = pairwise(k_y, y_cell, y_cell) * (S + np.outer(totals, totals))
    return _between(data.counts, [0, 1], [2, 3], False, lambda: (block, None)).mmd


def check_tvd_dominance(
    spec: KernelSpec,
    data: LabeledDataset,
    tol: float = 1e-9,
    max_support: int = 64,
) -> BoundReport:
    """2 sqrt(nu) * TV(Z|S=0, Z|S=1) >= gamma, on small discrete supports.

    Requires the representation rows to take at most ``max_support`` distinct
    values so the total variation distance is computable exactly; raises
    InapplicableError otherwise.  Both sides are exact functionals of the
    empirical laws, so the default tolerance is float-level.  Both are read
    from each group's counts of the distinct rows (atoms): the rhs is
    :func:`fairmmd.mmd.gamma_biased` of the two groups, read from one square
    kernel pass over the atoms with the counts c0, c1 as weight columns.
    ``max_support`` must be >= 1.
    """
    if not max_support >= 1:
        raise ValidationError(f"max_support must be >= 1, got {max_support!r}")
    atoms, ids = np.unique(data.z, axis=0, return_inverse=True)
    if atoms.shape[0] > max_support:
        raise InapplicableError(
            f"representation has {atoms.shape[0]} distinct rows > {max_support}; "
            "exact total variation needs a small support"
        )
    counts = np.bincount(2 * ids + data.s, minlength=2 * atoms.shape[0])
    counts = counts.reshape(-1, 2).astype(float)  # rows of group s at atom i in column s
    n0, n1 = counts.sum(axis=0)
    if n0 == 0 or n1 == 0:
        raise InapplicableError("total variation needs rows in both groups")
    tvd = 0.5 * float(np.abs(counts[:, 1] / n1 - counts[:, 0] / n0).sum())
    lhs = 2.0 * np.sqrt(spec.nu) * tvd
    atoms, _ = _checked_pair(spec, atoms, atoms)  # the rows' checks, as gamma_biased makes them
    rhs = _between(counts.sum(axis=0), [0], [1], False,
                   lambda: _gram_sums(spec, atoms, counts)[1:]).mmd
    return _report(
        "tvd_dominates_gamma", "ge", lhs, rhs, tol,
        _digest(data, spec, "tvd", tol, max_support),
    )
