"""Encoder-class complexity and finite-sample deviation certificates.

Gaussian complexity of an encoder family F at inputs X is

    G = E_xi  sup_{f in F}  sum_i <xi_i, f(x_i)>,   xi_i iid standard normal,

estimated here by Monte Carlo over finite families (:func:`gaussian_complexity_mc`
for grids of linear maps, :func:`gaussian_complexity_images` for precomputed
encoder images such as sampled networks).  For feed-forward networks with
layer matrices bounded in the (1, infinity) norm (every row's L1 norm at most
``width_bound``), scalar output, and a ``act_lipschitz``-Lipschitz activation
fixing 0, the closed form

    (2 width_bound)^depth * act_lipschitz^(depth-1)
        * sqrt(2 log(2 d0)) * max_k ||X[:, k]||_2

of :func:`fnn_complexity_bound` dominates the Monte Carlo value.

:func:`deviation_bound` turns a complexity value into a two-sided
finite-sample certificate for the squared equalized-odds statistic: with
mixture samples of total size n split in proportions rho0/rho1, kernel
amplitude nu and kernel Lipschitz constant lip, with probability 1 - delta
the estimate deviates from its population value by at most

    8 nu max(1/rho0, 1/rho1) sqrt(log(2/delta) / n)
      + (2 sqrt(2 pi) lip / n) max((1 + 1/rho0)/rho0, (1 + 1/rho1)/rho1) * G,

uniformly over the encoder family.  :func:`concentration_check` exercises
the certificate end to end on a linear-kernel population whose statistic has
a closed form: it resamples mixtures, measures the worst deviation over an
encoder grid, and reports whether the empirical (1 - delta) quantile stays
under the bound at every sample size, along with the log-log slope of the
mean deviation (the n^(-1/2) signature).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._rng import rng_for, streams, subseed
from .errors import DomainError, InapplicableError, SizeError, ValidationError
from .eok import _resample_rows, reweight_sample
from .kernels import KernelSpec, _check_domain, _checked_pair
from .synth import PopulationSpec, _draw, _rows, sample_population

__all__ = [
    "EncoderFamily",
    "ComplexityEstimate",
    "ConcentrationReport",
    "finite_grid",
    "fnn_family",
    "gaussian_complexity_mc",
    "gaussian_complexity_images",
    "fnn_complexity_bound",
    "sample_fnn_grid",
    "fnn_apply",
    "deviation_bound",
    "suggest_radius",
    "concentration_check",
]


@dataclass(frozen=True)
class EncoderFamily:
    """Either an explicit grid of linear maps or a feed-forward network class.

    finite_grid: ``maps`` holds (d_out, d_in) matrices sharing one shape.
    fnn: ``widths`` = (d0, ..., 1) layer sizes, ``width_bound`` the row-L1
    bound on every layer matrix, ``act_lipschitz`` the activation's Lipschitz
    constant (activation fixes 0).
    """

    kind: str
    maps: tuple = ()
    widths: tuple = ()
    width_bound: float = np.nan
    act_lipschitz: float = np.nan

    @property
    def depth(self) -> int:
        return len(self.widths) - 1


def finite_grid(maps) -> EncoderFamily:
    """Family from an explicit list of linear encoder matrices."""
    try:
        mats = tuple(np.asarray(W, dtype=float) for W in maps)
    except ValueError as exc:  # a ragged matrix, or an entry that is not a number
        raise ValidationError(f"grid maps must be matrices of numbers: {exc}") from exc
    if not mats:
        raise ValidationError("finite grid needs at least one map")
    shape = mats[0].shape
    for W in mats:
        if W.ndim != 2 or W.shape != shape or not np.all(np.isfinite(W)):
            raise ValidationError("all grid maps must be finite matrices of one shape")
    return EncoderFamily(kind="finite_grid", maps=mats)


def fnn_family(widths, width_bound: float, act_lipschitz: float = 1.0) -> EncoderFamily:
    """Scalar-output network class with (1, infinity)-bounded layers."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValidationError(f"widths must list >= 2 positive layer sizes, got {widths}")
    if widths[-1] != 1:
        raise ValidationError("the network class is scalar-output; last width must be 1")
    if not (width_bound > 0 and np.isfinite(width_bound)):
        raise ValidationError(f"width_bound must be positive, got {width_bound}")
    if not (act_lipschitz > 0 and np.isfinite(act_lipschitz)):
        raise ValidationError(f"act_lipschitz must be positive, got {act_lipschitz}")
    return EncoderFamily(
        kind="fnn", widths=widths, width_bound=float(width_bound),
        act_lipschitz=float(act_lipschitz),
    )


@dataclass(frozen=True)
class ComplexityEstimate:
    """Monte Carlo value with its standard error and trial count."""

    value: float
    std_error: float
    trials: int


def _check_mc_trials(trials: int) -> None:
    if trials < 2:
        raise SizeError(f"need >= 2 trials for a standard error, got {trials}")


def gaussian_complexity_images(images, trials: int = 200, seed: int = 0) -> ComplexityEstimate:
    """MC Gaussian complexity of a finite set of encoder images.

    ``images`` is a sequence of (n, d) arrays — one per family member — all
    with the same shape.  Each trial draws one standard-normal xi of size
    n*d from its own stream, that of ``rng_for(seed, 61, t)`` for trial t,
    so trials can be evaluated in any order (or split across workers)
    without changing the aggregate.
    """
    images = [np.asarray(img, dtype=float) for img in images]
    if not images or any(img.shape != images[0].shape for img in images):
        raise ValidationError("images must be a non-empty list of same-shape arrays")
    flats = np.stack([img.ravel() for img in images])
    _check_mc_trials(trials)
    sups, xi = np.empty(trials), np.empty(flats.shape[1])
    for t, rng in enumerate(streams(seed, 61, count=trials)):
        sups[t] = (flats @ rng.standard_normal(out=xi)).max()
    return ComplexityEstimate(
        value=float(sups.mean()),
        std_error=float(sups.std(ddof=1) / np.sqrt(trials)),
        trials=trials,
    )


def gaussian_complexity_mc(
    family: EncoderFamily, X, trials: int = 200, seed: int = 0
) -> ComplexityEstimate:
    """MC Gaussian complexity of a finite grid of linear encoders at inputs X."""
    if family.kind != "finite_grid":
        raise InapplicableError(
            "Monte Carlo needs an explicit finite family; sample one from the "
            "network class first (sample_fnn_grid + gaussian_complexity_images)"
        )
    X = np.asarray(X, dtype=float)
    d_in = family.maps[0].shape[1]
    if X.ndim != 2 or X.shape[1] != d_in:
        raise ValidationError(f"X must be (n, {d_in}) to match the grid maps")
    return gaussian_complexity_images([X @ W.T for W in family.maps], trials, seed)


def fnn_complexity_bound(family: EncoderFamily, X) -> float:
    """Closed-form Gaussian-complexity bound for the network class at X."""
    if family.kind != "fnn":
        raise InapplicableError("the closed-form bound is defined for network families")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != family.widths[0]:
        raise ValidationError(f"X must be (n, {family.widths[0]}) for this family")
    depth = family.depth
    col_norm = float(np.sqrt((X * X).sum(axis=0)).max())
    return float(
        (2.0 * family.width_bound) ** depth
        * family.act_lipschitz ** (depth - 1)
        * np.sqrt(2.0 * np.log(2.0 * family.widths[0]))
        * col_norm
    )


def sample_fnn_grid(family: EncoderFamily, count: int, seed: int = 0) -> list:
    """Draw ``count`` member networks (weight tuples) from the class.

    Every layer matrix gets uniform(-1, 1) entries with each row rescaled to
    an L1 norm between half the bound and the bound, so membership in the
    (1, infinity) ball is exact by construction.
    """
    if family.kind != "fnn":
        raise InapplicableError("can only sample networks from a network family")
    nets = []
    for g in range(count):
        rng = rng_for(seed, 57, g)
        weights = []
        for i in range(family.depth):
            shape = (family.widths[i + 1], family.widths[i])
            raw = rng.uniform(-1.0, 1.0, size=shape)
            row_l1 = np.abs(raw).sum(axis=1)
            row_l1[row_l1 == 0] = 1.0
            target = family.width_bound * rng.uniform(0.5, 1.0, size=shape[0])
            weights.append(raw * (target / row_l1)[:, None])
        nets.append(tuple(weights))
    return nets


def fnn_apply(weights, X, act_lipschitz: float = 1.0) -> np.ndarray:
    """Forward pass with activation act_lipschitz * max(., 0) between layers."""
    h = np.asarray(X, dtype=float)
    for W in weights[:-1]:
        h = act_lipschitz * np.maximum(h @ W.T, 0.0)
    return h @ weights[-1].T


def _check_delta(delta: float) -> None:
    # Below about 1.1e-308, 2/delta overflows and the bound's log(2/delta)
    # would be infinite.
    if not (0 < delta < 1 and 2.0 / float(delta) < np.inf):
        raise ValidationError(f"delta must be in (0, 1) with 2/delta finite, got {delta}")


def deviation_bound(
    n: int, rho0: float, rho1: float, nu: float, lip: float, delta: float, g_mean: float
) -> float:
    """Finite-sample deviation certificate for the squared statistic.

    See module docstring for the two terms.  ``g_mean`` is (an estimate of)
    the expected Gaussian complexity of the encoder family at the stacked
    mixture sample; the bound is increasing in nu, lip, and g_mean, and
    decreasing in n.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if not (0 < rho0 < 1 and 0 < rho1 < 1 and abs(rho0 + rho1 - 1.0) < 1e-9):
        raise ValidationError(f"rho0, rho1 must be in (0,1) and sum to 1, got {rho0}, {rho1}")
    _check_delta(delta)
    if nu <= 0 or lip <= 0 or g_mean < 0:
        raise ValidationError("nu and lip must be positive, g_mean nonnegative")
    term1 = 8.0 * nu * max(1.0 / rho0, 1.0 / rho1) * np.sqrt(np.log(2.0 / delta) / n)
    term2 = (
        (2.0 * np.sqrt(2.0 * np.pi) * lip / n)
        * max((1.0 + 1.0 / rho0) / rho0, (1.0 + 1.0 / rho1) / rho1)
        * g_mean
    )
    return float(term1 + term2)


def suggest_radius(population: PopulationSpec, maps, safety: float = 14.0) -> float:
    """Ball radius covering the encoded samples almost surely.

    Takes the largest cell mean norm plus ``safety`` standard deviations of
    the widest cell direction, scaled by the largest operator norm in the
    encoder grid.  At the default 14 sigma a Gaussian excursion beyond the
    radius has vanishing probability at any realistic sample size, so a
    linear kernel declared with this radius never sees an out-of-domain
    point in practice.  A cell whose mean norm plus reach is beyond the
    float range, or whose reach makes a radius with an infinite square (the
    linear kernel's nu), raises ValidationError naming the cell.
    """
    r_x, widest = 0.0, None
    for key, cell in population.cells.items():
        top = float(np.linalg.eigvalsh(cell.cov).max())
        with np.errstate(over="ignore"):
            reach = float(np.linalg.norm(cell.mean)) + safety * np.sqrt(top)
        if not np.isfinite(reach):
            raise ValidationError(f"population cell {key}: its mean and covariance make the "
                                  "suggested radius infinite")
        if reach > r_x:
            r_x, widest = reach, key
    op = max(float(np.linalg.norm(np.asarray(W, dtype=float), 2)) for W in maps)
    with np.errstate(over="ignore"):
        radius = op * r_x
        if not radius * radius < np.inf:
            raise ValidationError(f"population cell {widest}: its mean and covariance make the "
                                  f"suggested radius {radius:.3g}, whose square is infinite")
    return radius


@dataclass(frozen=True)
class ConcentrationReport:
    """Per-sample-size deviation summaries against the certificate."""

    rows: tuple
    slope: float
    holds: bool
    delta: float
    trials: int

    def as_dict(self) -> dict:
        return dict(asdict(self), rows=[dict(r) for r in self.rows])


def _grid_mmd2(spec: KernelSpec, maps: np.ndarray, z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """``mmd2_biased(spec, z0 @ W.T, z1 @ W.T).mmd2`` for every W in the
    (G, d_out, d_in) stack ``maps``, under the linear kernel ``spec``.

    Against the maps stacked into one (G d_out, d_in) matrix, one product per
    sample encodes every row under every map: column block g is map g's
    image, so the (rows G, d_out) reshape lists each encoded row once, and
    one domain check covers them all.  Each statistic is then the linear
    closed form ||mean(E0_g) - mean(E1_g)||^2.
    """
    n_maps, d_out, d_in = maps.shape
    flat = maps.reshape(n_maps * d_out, d_in)
    e0, e1 = _checked_pair(
        spec, (z0 @ flat.T).reshape(-1, d_out), (z1 @ flat.T).reshape(-1, d_out)
    )
    diff = (e0.reshape(-1, n_maps, d_out).mean(axis=0)
            - e1.reshape(-1, n_maps, d_out).mean(axis=0))
    return np.einsum("gk,gk->g", diff, diff)


# Encoded entries (rows x G x d_out) that one block of trials may hold:
# blocks of ~100 trials at small n, where per-trial overhead dominates, and a
# few MB of block arrays.  On the certify benchmark's check, 2^15 was 9%
# slower and 2^19 was 4% faster but raised the peak RSS by 9 MB, not 3 MB.
_BLOCK_ENTRIES = 2**17


def _checked_n_grid(n_grid) -> list[int]:
    """The sample sizes of :func:`concentration_check` as integers: at least
    two of them, for a slope, each even and >= 8."""
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 2:
        raise ValidationError("need at least two sample sizes for a slope")
    if any(n < 8 or n % 2 for n in n_grid):
        raise ValidationError(f"sample sizes must be even and >= 8, got {n_grid}")
    return n_grid


def concentration_check(
    population: PopulationSpec,
    grid,
    spec: KernelSpec,
    n_grid,
    trials: int = 100,
    delta: float = 0.05,
    seed: int = 0,
    g_trials: int = 64,
    g_repeats: int = 3,
) -> ConcentrationReport:
    """Empirical test of the deviation certificate on a linear-kernel population.

    For each n in ``n_grid`` (even, >= 8): draw ``trials`` datasets of n
    rows, resample equal mixtures of n/2 rows per group (one resample shared
    by the whole grid), and record the worst absolute gap over the grid
    between the plug-in squared statistic of the encoded mixtures and its
    closed-form population value.  Each trial encodes each mixture under the
    whole grid with one product against the stacked maps and reads every
    map's statistic from that product, ||mean(E0_g) - mean(E1_g)||^2, the
    linear closed form of :func:`fairmmd.mmd.mmd2_biased`.  Every encoded
    row of every map must be finite and inside the linear kernel's ball, so
    a radius too small for any of them raises DomainError.

    The trials of each n run in blocks of at most
    ``_BLOCK_ENTRIES // (n G d_out)`` trials and at least one, so the
    encoded rows of a block hold at most 2^17 entries (or one trial's, if
    more) and the block arrays take a few MB whatever ``trials`` is.  Each
    trial of a block draws its rows and its resample from its own streams,
    with the calls of :func:`fairmmd.synth.sample_population` and
    :func:`fairmmd.eok.reweight_sample`.  The Philox keys of those streams
    are hashed in one vectorized pass per chunk of 1024 trials, whatever
    the block size, and one kept generator per stream kind is reset to each
    trial's key (:func:`fairmmd._rng.streams`), so no trial pays a
    SeedSequence hash of its own.  The row transform, cell counts and
    weights then run once on the stacked block.  The resampled rows of a
    block of B trials are gathered in (row, trial, group) order and encoded
    under every map by one (m B 2, d_in) x (d_in, G d_out) product, m = n/2,
    so each group's mean is an in-order sum over the outer axis, whose inner
    loop spans the whole block; each trial gets the bits it gets on its own.
    The domain check reads the encoded rows one by one only when the bound
    ||W z|| <= ||W||_2 ||z|| over the resampled rows z does not already keep
    them all inside the ball.  A block with a failing trial is run again one
    trial at a time, so the first failing trial raises its own error.

    The certificate per n uses rho0 = rho1 = 1/2 and a small-sample MC
    estimate of the family's expected Gaussian complexity.  ``holds`` says
    whether the empirical (1 - delta) quantile stayed below the bound at
    every n; ``slope`` is the log-log slope of the mean deviation across n.
    """
    if spec.family != "linear":
        raise InapplicableError(
            "the closed-form population statistic used as reference needs a linear kernel"
        )
    family = finite_grid(grid)
    if family.maps[0].shape[1] != population.dim:
        raise ValidationError("grid maps must accept the population's dimension")
    n_grid = _checked_n_grid(n_grid)
    if trials < 1:
        raise SizeError(f"need >= 1 trial per sample size, got {trials}")
    _check_delta(delta)
    _check_mc_trials(g_trials)
    if g_repeats < 1:
        raise SizeError(f"need >= 1 complexity estimate per n, got g_repeats={g_repeats}")
    w = population.p_y_given_s[0]
    md_x = sum(
        w[y] * (population.cells[(0, y)].mean - population.cells[(1, y)].mean) for y in (0, 1)
    )
    analytic = np.array([float(np.square(W @ md_x).sum()) for W in family.maps])
    maps = np.stack(family.maps)

    rows = []
    for i_n, n in enumerate(n_grid):
        m = n // 2
        devs = _trial_deviations(population, spec, maps, analytic, n, trials, seed, i_n)
        g_vals = []
        for j in range(g_repeats):
            data = sample_population(population, n, subseed(seed, 3, i_n, j))
            rs = reweight_sample(data, m, m, subseed(seed, 4, i_n, j))
            stacked = np.vstack([rs.z0, rs.z1])
            images = [stacked @ W.T for W in family.maps]
            g_vals.append(gaussian_complexity_images(images, g_trials, subseed(seed, 5, i_n, j)).value)
        # The true complexity is nonnegative (the sup dominates any single
        # member, whose expectation is zero), so a negative MC mean is noise.
        g_mean = max(float(np.mean(g_vals)), 0.0)
        bound = deviation_bound(n, 0.5, 0.5, spec.nu, spec.lipschitz, delta, g_mean)
        rows.append({
            "n": n,
            "mean_dev": float(devs.mean()),
            "quantile_dev": float(np.quantile(devs, 1.0 - delta)),
            "bound": bound,
            "g_mean": g_mean,
        })
    slope = float(np.polyfit(np.log([r["n"] for r in rows]),
                             np.log([r["mean_dev"] for r in rows]), 1)[0])
    holds = all(r["quantile_dev"] <= r["bound"] for r in rows)
    return ConcentrationReport(
        rows=tuple(rows), slope=slope, holds=bool(holds), delta=delta, trials=trials
    )


def _trial_deviations(
    population: PopulationSpec, spec: KernelSpec, maps: np.ndarray, analytic: np.ndarray,
    n: int, trials: int, seed: int, i_n: int,
) -> np.ndarray:
    """Worst absolute gap over the grid between each trial's statistics and
    ``analytic``, for the ``trials`` trials at sample size n (the n_grid
    entry ``i_n``), in the blocks described in :func:`concentration_check`.
    """
    n_maps, d_out, d_in = maps.shape
    m, width = n // 2, n_maps * d_out
    step = min(max(_BLOCK_ENTRIES // (n * width), 1), trials)
    flat_t = maps.reshape(width, d_in).T
    widest = max(float(np.linalg.norm(W, 2)) for W in maps)
    # Buffers that every block of this n reuses: fresh ones per block would
    # be fresh pages to fault in.
    u, eps = np.empty((step, 2, n)), np.empty((step, n, d_in))
    idx = np.empty((step, n), dtype=np.int64)
    enc = np.empty(step * n * width)
    devs = np.empty(trials)
    # Trial t draws its rows from the stream of rng_for(subseed(seed, 1, i_n, t))
    # and its resample from that of rng_for(subseed(seed, 2, i_n, t)).
    draws = streams(seed, 1, i_n, count=trials, nested=True)
    resamples = streams(seed, 2, i_n, count=trials, nested=True)
    for t0 in range(0, trials, step):
        block = range(t0, min(t0 + step, trials))
        B = len(block)
        for b in range(B):
            _draw(next(draws), u[b], eps[b])
        z, s, y = _rows(population, u[:B], eps[:B])
        cell = 2 * s + y
        counts = np.bincount((cell + 4 * np.arange(B)[:, None]).ravel(),
                             minlength=4 * B).reshape(B, 4)
        # The empirical weights are the S=0 stratum's outcome rates; a trial
        # whose stratum is empty, or whose cell with weight is empty, fails.
        n0 = counts[:, 0] + counts[:, 1]
        w = counts[:, :2] / np.maximum(n0, 1)[:, None]
        failed = (n0 == 0).any() or ((counts == 0) & (np.tile(w, 2) > 0)).any()
        if not failed:
            # Labels of the block's flattened rows, each trial's cells in order.
            order = (np.argsort(cell.astype(np.int8), axis=1, kind="stable")
                     + n * np.arange(B)[:, None])
            for b, (w1, c) in enumerate(zip(w[:, 1].tolist(), counts.tolist())):
                _resample_rows(next(resamples), w1, c, order[b], (m, m), out=idx[b])
            # (row, trial, group) order: each group's mean is then an
            # in-order sum over the outer axis, as in _grid_mmd2.
            mixed = z.reshape(-1, d_in).take(
                idx[:B].reshape(B, 2, m).transpose(2, 0, 1), axis=0).reshape(-1, d_in)
            e = np.matmul(mixed, flat_t, out=enc[:B * n * width].reshape(-1, width))
            # ||W z|| <= ||W||_2 ||z||: when the widest map keeps every
            # resampled row inside the ball with a margin far wider than
            # rounding, no encoded row can leave it; only otherwise are the
            # encoded rows checked one by one.  The squared row norms come
            # from one matvec, about 3x faster than einsum's row-by-row sums.
            # At the benchmark's certify size (6 maps, n up to 3200, 250
            # trials) a check took 0.41 s median with this prefilter and
            # 0.55 s without (16 alternating in-process rounds, 2-core
            # container).
            if not widest * np.sqrt((np.square(mixed) @ np.ones(d_in)).max()) \
                    <= spec.radius * (1 - 1e-6):
                try:
                    _check_domain(spec, e.reshape(-1, d_out), "A")
                except DomainError:
                    failed = True
        if failed:
            # Rerun the block one trial at a time, so that the first failing
            # trial raises the error a trial-by-trial run raises.
            for t in block:
                data = sample_population(population, n, subseed(seed, 1, i_n, t))
                rs = reweight_sample(data, m, m, subseed(seed, 2, i_n, t))
                _grid_mmd2(spec, maps, rs.z0, rs.z1)
            raise ValidationError("a block of trials failed")  # pragma: no cover
        means = e.reshape(m, B, 2, width).mean(axis=0)
        diff = (means[:, 0] - means[:, 1]).reshape(-1, d_out)
        stats = np.einsum("gk,gk->g", diff, diff).reshape(B, n_maps)
        devs[t0:block.stop] = np.abs(stats - analytic).max(axis=1)
    return devs
