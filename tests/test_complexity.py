import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fairmmd import (
    DomainError,
    EmptyCellError,
    InapplicableError,
    SizeError,
    ValidationError,
    deviation_bound,
    finite_grid,
    fnn_complexity_bound,
    fnn_family,
    gaussian_complexity_images,
    gaussian_complexity_mc,
    linear,
    mmd2_biased,
    rbf,
    reweight_sample,
    sample_population,
    suggest_radius,
)
from fairmmd import complexity
from fairmmd._rng import rng_for, subseed
from fairmmd.complexity import _grid_mmd2, concentration_check, fnn_apply, sample_fnn_grid
from conftest import make_population


def test_two_point_family_recovers_half_normal_mean():
    """For the family {f, -f} with a single unit image, the complexity is
    E|xi| = sqrt(2/pi): the one closed form worth pinning the MC against."""
    family = finite_grid([np.array([[1.0]]), np.array([[-1.0]])])
    X = np.array([[1.0]])
    est = gaussian_complexity_mc(family, X, trials=10_000, seed=1)
    truth = np.sqrt(2.0 / np.pi)
    assert abs(est.value - truth) < 4.0 * est.std_error
    assert est.trials == 10_000


def test_mc_matches_images_route():
    rng = np.random.default_rng(0)
    maps = [rng.normal(size=(2, 3)) for _ in range(4)]
    X = rng.normal(size=(6, 3))
    family = finite_grid(maps)
    a = gaussian_complexity_mc(family, X, trials=300, seed=5)
    b = gaussian_complexity_images([X @ W.T for W in maps], trials=300, seed=5)
    assert a.value == b.value and a.std_error == b.std_error


@pytest.mark.parametrize("seed", [0, 2**40 + 3], ids=["seed-0", "multi-word-seed"])
def test_images_draw_the_single_stream_api(seed):
    """1100 trials, past one chunk of batched keys, give the bits of a loop
    that opens rng_for(seed, 61, t) for every trial t."""
    rng = np.random.default_rng(2)
    images = [rng.normal(size=(7, 2)) for _ in range(3)]
    flats = np.stack([img.ravel() for img in images])
    trials = 1100
    sups = np.array([(flats @ rng_for(seed, 61, t).standard_normal(flats.shape[1])).max()
                     for t in range(trials)])
    est = gaussian_complexity_images(images, trials=trials, seed=seed)
    assert est.value == float(sups.mean())
    assert est.std_error == float(sups.std(ddof=1) / np.sqrt(trials))


@pytest.mark.parametrize("images", [
    [], [np.zeros((3, 2)), np.zeros((4, 2))], [np.zeros((3, 2)), np.zeros((2, 3))],
], ids=["empty", "different-rows", "same-size-different-shape"])
def test_images_refuse_empty_or_mixed_shapes(images):
    with pytest.raises(ValidationError, match="same-shape"):
        gaussian_complexity_images(images, trials=4)


def test_complexity_grows_with_the_family():
    """A superset family can only have larger Gaussian complexity (same
    noise draws, pointwise larger supremum)."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 2))
    maps = [rng.normal(size=(2, 2)) for _ in range(6)]
    for k in range(1, 6):
        small = gaussian_complexity_mc(finite_grid(maps[:k]), X, trials=200, seed=7)
        big = gaussian_complexity_mc(finite_grid(maps[: k + 1]), X, trials=200, seed=7)
        assert big.value >= small.value - 1e-12


def test_network_bound_worked_identity_input():
    """Depth 2, unit row bound, unit activation, X = I_2: the closed form
    collapses to 4 sqrt(2 log 4)."""
    family = fnn_family((2, 2, 1), width_bound=1.0, act_lipschitz=1.0)
    bound = fnn_complexity_bound(family, np.eye(2))
    assert_allclose(bound, 4.0 * np.sqrt(2.0 * np.log(4.0)), rtol=1e-15)
    assert_allclose(bound, 6.6604368892615815, rtol=1e-15)


def test_network_bound_dominates_sampled_members():
    rng = np.random.default_rng(2)
    for trial in range(10):
        d0 = int(rng.integers(2, 5))
        widths = (d0,) + tuple(int(w) for w in rng.integers(1, 4, size=rng.integers(0, 2))) + (1,)
        family = fnn_family(widths, width_bound=float(rng.uniform(0.5, 2.0)))
        X = rng.normal(size=(int(rng.integers(4, 10)), d0))
        nets = sample_fnn_grid(family, count=24, seed=trial)
        images = [fnn_apply(w, X, family.act_lipschitz) for w in nets]
        est = gaussian_complexity_images(images, trials=300, seed=trial)
        bound = fnn_complexity_bound(family, X)
        assert bound >= est.value - 3.0 * est.std_error, (trial, bound, est)


def test_fnn_apply_hand_computation():
    W1 = np.array([[1.0, -1.0], [0.5, 0.5]])
    W2 = np.array([[2.0, -1.0]])
    X = np.array([[1.0, 2.0]])
    # layer 1: [1 - 2, 0.5 + 1] = [-1, 1.5] -> relu -> [0, 1.5]
    # output: 2*0 - 1*1.5 = -1.5
    out = fnn_apply((W1, W2), X)
    assert_allclose(out, [[-1.5]], rtol=1e-15)
    half = fnn_apply((W1, W2), X, act_lipschitz=0.5)
    assert_allclose(half, [[-0.75]], rtol=1e-15)


def test_sampled_networks_respect_row_bound():
    family = fnn_family((3, 4, 1), width_bound=1.7)
    for weights in sample_fnn_grid(family, count=10, seed=3):
        for W in weights:
            rows = np.abs(W).sum(axis=1)
            assert rows.max() <= 1.7 + 1e-12
            assert rows.min() >= 0.85 - 1e-12


def test_family_constructor_validation():
    with pytest.raises(ValidationError):
        fnn_family((2,), width_bound=1.0)
    with pytest.raises(ValidationError):
        fnn_family((2, 2), width_bound=1.0)  # last width must be 1
    with pytest.raises(ValidationError):
        fnn_family((2, 1), width_bound=0.0)
    with pytest.raises(ValidationError):
        finite_grid([])
    with pytest.raises(ValidationError):
        finite_grid([[[1.0, 0.0], [0.0]]])  # a ragged matrix
    with pytest.raises(ValidationError):
        finite_grid([[["x", 0.0], [0.0, 1.0]]])
    with pytest.raises(InapplicableError):
        gaussian_complexity_mc(fnn_family((2, 1), width_bound=1.0), np.eye(2))
    with pytest.raises(InapplicableError):
        fnn_complexity_bound(finite_grid([np.eye(2)]), np.eye(2))


def test_deviation_bound_worked_value():
    """Frozen reference for one parameter point, recomputed independently by
    hand: 16 sqrt(ln(4)/100) + (2 sqrt(2 pi)/100) * 6."""
    got = deviation_bound(100, 0.5, 0.5, 1.0, 1.0, 0.5, 1.0)
    by_hand = 16.0 * np.sqrt(np.log(4.0) / 100.0) + 2.0 * np.sqrt(2.0 * np.pi) * 6.0 / 100.0
    assert_allclose(got, by_hand, rtol=1e-15)
    assert_allclose(got, 2.1846514289804797, rtol=1e-12)


def test_deviation_bound_monotonicity():
    base = dict(n=500, rho0=0.5, rho1=0.5, nu=1.0, lip=0.5, delta=0.1, g_mean=2.0)
    b = deviation_bound(**base)
    assert deviation_bound(**{**base, "n": 2000}) < b
    assert deviation_bound(**{**base, "nu": 2.0}) > b
    assert deviation_bound(**{**base, "g_mean": 4.0}) > b
    assert deviation_bound(**{**base, "delta": 0.01}) > b


def test_deviation_bound_validation():
    with pytest.raises(ValidationError):
        deviation_bound(0, 0.5, 0.5, 1.0, 1.0, 0.05, 1.0)
    with pytest.raises(ValidationError):
        deviation_bound(100, 0.7, 0.5, 1.0, 1.0, 0.05, 1.0)  # rhos must sum to 1
    with pytest.raises(ValidationError):
        deviation_bound(100, 0.5, 0.5, 1.0, 1.0, 1.5, 1.0)
    with pytest.raises(ValidationError):
        deviation_bound(100, 0.5, 0.5, -1.0, 1.0, 0.05, 1.0)


def test_suggest_radius_contains_encoded_samples(unbiased_pop):
    grid = [np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]), 0.7 * np.ones((2, 2))]
    R = suggest_radius(unbiased_pop, grid)
    data = sample_population(unbiased_pop, 5000, seed=4)
    for W in grid:
        norms = np.linalg.norm(data.z @ W.T, axis=1)
        assert norms.max() <= R


def test_concentration_check_small_run(unbiased_pop):
    grid = [np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]])]
    R = suggest_radius(unbiased_pop, grid)
    rep = concentration_check(
        unbiased_pop, grid, linear(R), n_grid=[100, 200, 400],
        trials=25, seed=2,
    )
    assert rep.holds
    assert len(rep.rows) == 3
    devs = [r["mean_dev"] for r in rep.rows]
    assert devs[0] > devs[-1]  # deviations shrink with n
    for row in rep.rows:
        assert row["quantile_dev"] <= row["bound"]
    d = rep.as_dict()
    assert set(d) == {"rows", "slope", "holds", "delta", "trials"}


def test_concentration_requires_linear_kernel(unbiased_pop):
    with pytest.raises(InapplicableError):
        concentration_check(unbiased_pop, [np.eye(2)], rbf(1.0), n_grid=[100, 200])


def test_grid_statistics_match_per_map_mmd2_biased():
    rng = np.random.default_rng(12)
    maps = rng.normal(size=(5, 2, 3))
    z0 = rng.normal(size=(40, 3))
    z1 = rng.normal(size=(33, 3)) + 0.5
    spec = linear(100.0)
    want = [mmd2_biased(spec, z0 @ W.T, z1 @ W.T).mmd2 for W in maps]
    assert_allclose(_grid_mmd2(spec, maps, z0, z1), want, rtol=1e-12)


def test_concentration_checks_every_map_against_the_radius(unbiased_pop):
    """A radius that covers the small map's rows but not the large map's is
    refused, wherever the large map sits in the grid."""
    small, large = 0.1 * np.eye(2), 10.0 * np.eye(2)
    spec = linear(suggest_radius(unbiased_pop, [small]))
    concentration_check(unbiased_pop, [small, small], spec, n_grid=[100, 200], trials=2)
    for grid in ([large, small], [small, small, large]):
        with pytest.raises(DomainError):
            concentration_check(unbiased_pop, grid, spec, n_grid=[100, 200], trials=2)


def trial_by_trial_devs(population, grid, spec, n_grid, trials, delta, seed):
    """The trial loop of concentration_check run one trial at a time through
    the public per-trial functions: (mean_dev, quantile_dev) per n."""
    maps = np.stack(grid)
    w = population.p_y_given_s[0]
    md_x = sum(
        w[y] * (population.cells[(0, y)].mean - population.cells[(1, y)].mean) for y in (0, 1)
    )
    analytic = np.array([float(np.square(W @ md_x).sum()) for W in grid])
    out = []
    for i_n, n in enumerate(n_grid):
        devs = np.empty(trials)
        for t in range(trials):
            data = sample_population(population, n, subseed(seed, 1, i_n, t))
            rs = reweight_sample(data, n // 2, n // 2, subseed(seed, 2, i_n, t))
            devs[t] = np.abs(_grid_mmd2(spec, maps, rs.z0, rs.z1) - analytic).max()
        out.append((float(devs.mean()), float(np.quantile(devs, 1.0 - delta))))
    return out


@pytest.fixture(params=["budget", "one-trial-blocks"])
def block_budget(request, monkeypatch):
    """The real block budget, or one small enough that every block holds a
    single trial."""
    if request.param == "one-trial-blocks":
        monkeypatch.setattr(complexity, "_BLOCK_ENTRIES", 1)
    return request.param


@pytest.mark.parametrize("grid", [
    [np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.3, -0.7], [1.1, 0.2]]),
     0.5 * np.ones((2, 2)), np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([2.0, 0.5])],
    [np.array([[1.0, 0.5]]), np.array([[-0.2, 0.9]])],
    [np.array([[1.0, 0.2, -0.3], [0.0, 0.8, 0.5], [-0.4, 0.1, 1.1]]), 0.5 * np.eye(3),
     np.array([[0.3, -0.7, 0.0], [1.1, 0.2, -0.6], [0.0, 0.0, 0.9]])],
    [np.array([[0.6, -0.2, 0.9]]), np.array([[-0.5, 1.0, 0.3]])],
], ids=["six-2x2-maps", "two-1x2-maps", "three-3x3-maps-3d", "two-1x3-maps-3d"])
def test_block_trials_match_trial_by_trial(biased_pop, block_budget, grid):
    """Twelve trials at n = 1000 and 2000 cross block boundaries (blocks of
    10 and 5 trials under six 2 x 2 maps); every deviation summary equals the
    trial-by-trial loop's, bit for bit.  The 3 x 3 and 1 x 3 maps encode a
    three-coordinate population."""
    pop = biased_pop if grid[0].shape[1] == 2 else make_population(
        p=((0.7, 0.3), (0.3, 0.7)), dim=3,
        means={(0, 0): [0.0, 0.0, 0.3], (0, 1): [1.5, 0.0, -0.4],
               (1, 0): [0.6, 0.8, 0.0], (1, 1): [2.0, 0.5, 1.0]})
    spec = linear(suggest_radius(pop, grid))
    n_grid, trials, delta = [1000, 2000], 12, 0.1
    if block_budget == "budget" and len(grid) == 6:
        assert complexity._BLOCK_ENTRIES // (1000 * 12) == 10
    rep = concentration_check(pop, grid, spec, n_grid, trials=trials, delta=delta,
                              seed=3, g_trials=2, g_repeats=1)
    want = trial_by_trial_devs(pop, grid, spec, n_grid, trials, delta, seed=3)
    assert_array_equal([(r["mean_dev"], r["quantile_dev"]) for r in rep.rows], want)


@pytest.mark.parametrize("seed", [0, 2**40 + 3], ids=["seed-0", "multi-word-seed"])
def test_block_trials_match_trial_by_trial_at_more_seeds(biased_pop, block_budget, seed):
    grid = [np.eye(2), np.array([[0.3, -0.7], [1.1, 0.2]])]
    spec = linear(suggest_radius(biased_pop, grid))
    n_grid, trials, delta = [400, 1000], 15, 0.1
    rep = concentration_check(biased_pop, grid, spec, n_grid, trials=trials, delta=delta,
                              seed=seed, g_trials=2, g_repeats=1)
    want = trial_by_trial_devs(biased_pop, grid, spec, n_grid, trials, delta, seed=seed)
    assert_array_equal([(r["mean_dev"], r["quantile_dev"]) for r in rep.rows], want)


@pytest.mark.parametrize("n_grid, radius, seed, error", [
    ([40, 64], 2.9, 0, DomainError),
    ([8, 16], None, 0, EmptyCellError),
    ([8, 16], 2.6, 0, EmptyCellError),
    ([8, 16], 2.6, 4, DomainError),
], ids=["domain-error-mid-block", "empty-cell", "empty-cell-before-domain-error",
        "domain-error-before-empty-cell"])
def test_block_failure_is_the_first_failing_trials(
    unbiased_pop, block_budget, n_grid, radius, seed, error
):
    """Within one block, the error raised is the first failing trial's, with
    the text a trial-by-trial run gives (for the domain, the sample's name
    and its max norm).  Later trials of the same block fail differently: in
    the first case trials 2, 9 and 11 fail with three different max norms,
    in the last two an empty cell and a domain error follow each other."""
    grid = [np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]])]
    spec = linear(suggest_radius(unbiased_pop, grid) if radius is None else radius)
    with pytest.raises(error) as want:
        trial_by_trial_devs(unbiased_pop, grid, spec, n_grid, 12, 0.05, seed)
    with pytest.raises(error) as got:
        concentration_check(unbiased_pop, grid, spec, n_grid, trials=12, seed=seed)
    assert str(got.value) == str(want.value)


def test_concentration_rejects_bad_options_before_drawing(unbiased_pop, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before validating the options")

    monkeypatch.setattr(complexity, "rng_for", no_draws)
    monkeypatch.setattr(complexity, "streams", no_draws)
    grid = [np.eye(2)]
    spec = linear(10.0)
    for trials in (0, -2):
        with pytest.raises(SizeError):
            concentration_check(unbiased_pop, grid, spec, [100, 200], trials=trials)
    for delta in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValidationError, match="delta"):
            concentration_check(unbiased_pop, grid, spec, [100, 200], delta=delta)
    with pytest.raises(SizeError, match="need >= 2 trials for a standard error, got 1"):
        concentration_check(unbiased_pop, grid, spec, [100, 200], g_trials=1)
    with pytest.raises(SizeError, match="g_repeats"):
        concentration_check(unbiased_pop, grid, spec, [100, 200], g_repeats=0)
