import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fairmmd import (
    CellGaussian,
    LabeledDataset,
    NormalizationError,
    PopulationSpec,
    ValidationError,
    analytic_eok2_linear,
    analytic_mmd2_rbf_gaussians,
    population_from_dict,
    population_to_dict,
    read_csv,
    reweight_sample,
    sample_population,
    write_csv,
)
from fairmmd import synth
from conftest import make_population, masked_sample


def test_cell_gaussian_rejects_non_spd():
    with pytest.raises(ValidationError):
        CellGaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
    with pytest.raises(ValidationError):
        CellGaussian([0.0], [[0.0]])


def test_population_validation():
    cells = {c: CellGaussian([0.0], [[1.0]]) for c in ((0, 0), (0, 1), (1, 0), (1, 1))}
    with pytest.raises(ValidationError):
        PopulationSpec(0.0, [[0.5, 0.5], [0.5, 0.5]], cells)
    with pytest.raises(NormalizationError):
        PopulationSpec(0.5, [[0.6, 0.5], [0.5, 0.5]], cells)
    bad = dict(cells)
    bad[(1, 1)] = CellGaussian([0.0, 0.0], np.eye(2))  # dim mismatch
    with pytest.raises(ValidationError):
        PopulationSpec(0.5, [[0.5, 0.5], [0.5, 0.5]], bad)
    missing = {c: cells[c] for c in ((0, 0), (0, 1), (1, 0))}
    with pytest.raises(ValidationError):
        PopulationSpec(0.5, [[0.5, 0.5], [0.5, 0.5]], missing)


def test_labeled_dataset_validation():
    z = np.zeros((4, 2))
    with pytest.raises(ValidationError):
        LabeledDataset(z=z, s=np.array([0, 1, 2, 0]), y=np.zeros(4, dtype=int))
    with pytest.raises(ValidationError):
        LabeledDataset(z=z, s=np.zeros(3, dtype=int), y=np.zeros(4, dtype=int))
    with pytest.raises(ValidationError):
        LabeledDataset(z=np.array([[np.nan, 0.0]]), s=np.array([0]), y=np.array([0]))


def test_labeled_dataset_arrays_are_read_only_copies():
    z, s, y = np.zeros((4, 2)), np.array([0, 1, 1, 0]), np.array([1, 1, 0, 0])
    data = LabeledDataset(z=z, s=s, y=y)
    for arr in (data.z, data.s, data.y, data.cell, data.counts):
        with pytest.raises(ValueError):
            arr[0] = 1
    # The caller's arrays stay writable, and changing them does not reach
    # the dataset.
    z[0, 0], s[0], y[3] = 7.0, 1, 1
    assert_array_equal(data.z, np.zeros((4, 2)))
    assert_array_equal(data.s, [0, 1, 1, 0])
    assert_array_equal(data.y, [1, 1, 0, 0])
    assert_array_equal(data.cell, [1, 3, 2, 0])


@pytest.mark.parametrize("n, p_s, p_y", [(1, 0.5, 0.5), (50, 0.5, 0.5), (50, 0.0, 0.5),
                                         (50, 1.0, 0.3), (50, 0.4, 0.0), (1000, 0.3, 0.8)])
def test_labeled_dataset_cells_match_masks(n, p_s, p_y):
    rng = np.random.default_rng(n)
    s = (rng.random(n) < p_s).astype(int)
    y = (rng.random(n) < p_y).astype(int)
    data = LabeledDataset(z=rng.normal(size=(n, 2)), s=s, y=y)
    for c, (cs, cy) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        mask = (s == cs) & (y == cy)
        assert_array_equal(data.cell == c, mask)
        assert data.counts[c] == mask.sum()
    assert data.counts.shape == (4,)


def test_sampling_is_deterministic(unbiased_pop):
    a = sample_population(unbiased_pop, 100, seed=4)
    b = sample_population(unbiased_pop, 100, seed=4)
    assert_array_equal(a.z, b.z)
    assert_array_equal(a.s, b.s)
    assert_array_equal(a.y, b.y)
    c = sample_population(unbiased_pop, 100, seed=5)
    assert not np.array_equal(a.z, c.z)


@pytest.mark.parametrize("bad", [0.5, 2.0, np.nan])
def test_labeled_dataset_rejects_non_binary_labels(bad):
    z = np.zeros((3, 2))
    ok = np.array([0, 1, 0])
    lab = np.array([0.0, 1.0, bad])
    for s, y in ((lab, ok), (ok, lab)):
        with pytest.raises(ValidationError):
            LabeledDataset(z=z, s=s, y=y)
    data = LabeledDataset(z=z, s=np.array([0.0, 1.0, 1.0]), y=np.array([True, False, True]))
    assert_array_equal(data.y, [1, 0, 1])


def _correlated_population(rng, dim=3):
    cells = {}
    for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
        A = rng.normal(size=(dim, dim))
        cells[cell] = CellGaussian(rng.uniform(-2.0, 2.0, size=dim), A @ A.T + 0.1 * np.eye(dim))
    return PopulationSpec(0.4, [[0.6, 0.4], [0.25, 0.75]], cells)


@pytest.mark.parametrize("n", [1, 3, 7, 64, 1001])
def test_sampling_matches_masked_reference(n):
    """Same labels always; the same bits for diagonal covariances, where each
    product has one nonzero term; rounding-level agreement otherwise."""
    diagonal = make_population(p=((0.7, 0.3), (0.3, 0.7)))
    correlated = _correlated_population(np.random.default_rng(n))
    for seed in range(4):
        for pop in (diagonal, correlated):
            data = sample_population(pop, n, seed)
            z, s, y = masked_sample(pop, n, seed)
            assert_array_equal(data.s, s)
            assert_array_equal(data.y, y)
            if pop is diagonal:
                assert_array_equal(data.z, z)
            else:
                assert_allclose(data.z, z, rtol=0.0, atol=1e-14)


# sha256 of the bytes of z, s, y of sample_population(pop, n, seed) and of
# z0, z1 of reweight_sample(that, n // 2, n // 3, seed + 1), as drawn before
# the draws and the row transform were shared with concentration_check.
PINNED_DRAWS = [
    ("diagonal", 40, 0, "ef1bb3c023d60eef8607c392e20cdf3646bea6342136a999a6123ad173f4d3cb"),
    ("diagonal", 333, 7, "a29a5bbc9666b0cd4c491c34f62872693d551ba65c96b15deae3b2d15832898a"),
    ("diagonal", 2000, 12345, "156bbbaa1adb877784e9e1360aae6b42faf147e967cddd3a660c6df9314bbe99"),
    ("correlated", 40, 0, "44506e5834a8672565170643ad6f19af9d565711bd0a65e67486fa3f427bee28"),
    ("correlated", 333, 7, "320f2df700c1f7134a6bd9a480b84f1751188e3b1a3eb77e67b3ad591cc5e5ee"),
    ("correlated", 2000, 12345, "46b38f0d41bc1d2cd71d99bce9b65ec6c985ff99b90e48634534570668e0ea26"),
]


@pytest.mark.parametrize("kind, n, seed, digest", PINNED_DRAWS)
def test_draws_are_pinned(kind, n, seed, digest):
    pop = (make_population(p=((0.7, 0.3), (0.3, 0.7))) if kind == "diagonal"
           else _correlated_population(np.random.default_rng(0)))
    data = sample_population(pop, n, seed)
    rs = reweight_sample(data, n // 2, n // 3, seed + 1)
    h = hashlib.sha256()
    for a in (data.z, data.s, data.y, rs.z0, rs.z1):
        h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_sampling_matches_population_law():
    """Group shares, conditional outcome rates, and cell means should all
    settle near their population values at moderate n."""
    pop = make_population(pi_s=0.35, p=((0.8, 0.2), (0.4, 0.6)))
    data = sample_population(pop, 20000, seed=0)
    assert abs(data.s.mean() - 0.35) < 0.02
    p1_s0 = data.y[data.s == 0].mean()
    p1_s1 = data.y[data.s == 1].mean()
    assert abs(p1_s0 - 0.2) < 0.02
    assert abs(p1_s1 - 0.6) < 0.02
    for (s, y), cell in pop.cells.items():
        rows = data.z[(data.s == s) & (data.y == y)]
        assert_allclose(rows.mean(axis=0), cell.mean, atol=0.08)


def test_analytic_eok2_linear_hand_value():
    """Linear-kernel discrepancy of the reweighted mixtures is the squared
    norm of the weighted cell-mean difference, with weights taken from the
    S=0 conditional row for both groups."""
    pop = make_population(
        p=((0.3, 0.7), (0.5, 0.5)),
        means={(0, 0): [1.0, 0.0], (0, 1): [0.0, 2.0],
               (1, 0): [0.0, 0.0], (1, 1): [1.0, 1.0]},
    )
    md = 0.3 * (np.array([1.0, 0.0]) - np.array([0.0, 0.0])) \
        + 0.7 * (np.array([0.0, 2.0]) - np.array([1.0, 1.0]))
    assert_allclose(analytic_eok2_linear(pop), float(md @ md), rtol=1e-12)


def test_analytic_eok2_zero_when_groups_coincide():
    means = {(0, 0): [0.3, -0.2], (0, 1): [1.0, 0.4],
             (1, 0): [0.3, -0.2], (1, 1): [1.0, 0.4]}
    pop = make_population(means=means)
    assert analytic_eok2_linear(pop) == pytest.approx(0.0, abs=1e-15)


def test_analytic_rbf_mmd_near_delta_limit():
    """With nearly point-mass cells the closed form approaches the two-point
    formula 2 (1 - exp(-||d||^2 / (2 sigma^2)))."""
    eps = 1e-10
    g1 = CellGaussian([0.0, 0.0], eps * np.eye(2))
    g2 = CellGaussian([1.0, 0.0], eps * np.eye(2))
    expected = 2.0 * (1.0 - np.exp(-1.0 / 2.0))
    got = analytic_mmd2_rbf_gaussians(g1, g2, sigma=1.0)
    assert_allclose(got, expected, rtol=1e-6)
    assert_allclose(got, 0.7869386805747332, rtol=1e-6)


def test_analytic_rbf_mmd_identical_is_zero():
    g = CellGaussian([0.5, -0.5], 0.3 * np.eye(2))
    assert analytic_mmd2_rbf_gaussians(g, g, sigma=0.9) == pytest.approx(0.0, abs=1e-12)


def test_analytic_rbf_mmd_monte_carlo_agreement():
    """The closed form should match a direct plug-in estimate on large
    Gaussian samples."""
    from fairmmd import mmd2_biased, rbf

    g1 = CellGaussian([0.0, 0.0], 0.4 * np.eye(2))
    g2 = CellGaussian([1.2, -0.3], np.array([[0.5, 0.1], [0.1, 0.3]]))
    truth = analytic_mmd2_rbf_gaussians(g1, g2, sigma=1.1)
    rng = np.random.default_rng(12)
    n = 4000
    A = rng.multivariate_normal(g1.mean, g1.cov, size=n)
    B = rng.multivariate_normal(g2.mean, g2.cov, size=n)
    est = mmd2_biased(rbf(1.1), A, B).mmd2
    assert abs(est - truth) < 0.01


def test_csv_round_trip_bit_exact(tmp_path, small_data):
    path = tmp_path / "d.csv"
    write_csv(small_data, path)
    back, scores = read_csv(path)
    assert scores is None
    assert_array_equal(back.z, small_data.z)
    assert_array_equal(back.s, small_data.s)
    assert_array_equal(back.y, small_data.y)


def test_csv_round_trip_with_scores(tmp_path, small_data):
    rng = np.random.default_rng(3)
    scores = rng.uniform(size=small_data.n)
    path = tmp_path / "d.csv"
    write_csv(small_data, path, scores=scores)
    back, got = read_csv(path)
    assert_array_equal(got, scores)
    header = path.read_text().splitlines()[0]
    assert header == "z_0,z_1,s,y,score"


@pytest.mark.parametrize("block_rows", [None, 3], ids=["one-block", "blocks-of-3"])
@pytest.mark.parametrize("with_scores", [False, True], ids=["no-score", "score"])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_csv_bytes_match_savetxt(tmp_path, monkeypatch, d, with_scores, block_rows):
    """write_csv writes the bytes of ``np.savetxt`` with its column formats,
    signed zeros, subnormals, the largest doubles and integral values
    included, in one block or across several."""
    if block_rows is not None:
        monkeypatch.setattr(synth, "_CSV_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(d)
    n = 40
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 3.0, -7.0,
                        2.0 ** 53, 0.1])
    z = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    z.flat[rng.permutation(n * d)[:special.size]] = special
    data = LabeledDataset(z=z, s=rng.integers(0, 2, n), y=rng.integers(0, 2, n))
    scores = rng.permutation(np.r_[special, rng.uniform(size=n - special.size)])
    extra = ([scores], ["%.17g"], ["score"]) if with_scores else ([], [], [])
    table = [data.z, data.s, data.y] + extra[0]
    fmt = ["%.17g"] * d + ["%d", "%d"] + extra[1]
    header = ",".join([f"z_{j}" for j in range(d)] + ["s", "y"] + extra[2])
    np.savetxt(tmp_path / "ref.csv", np.column_stack(table), fmt=fmt, delimiter=",",
               header=header, comments="")
    write_csv(data, tmp_path / "got.csv", scores if with_scores else None)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_rejects_bad_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z_0,s,y\n0.1,2,0\n")
    with pytest.raises(ValidationError):
        read_csv(path)


@pytest.mark.parametrize("text", ["", "z_0,z_1,s,y\n", "z_0,z_1,s,y\n\n"],
                         ids=["empty", "header-only", "header-and-blank-line"])
def test_csv_without_data_rows_is_refused(tmp_path, text):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match="has no data rows"):
        read_csv(path)


def test_csv_rejects_out_of_range_scores(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z_0,s,y,score\n0.1,0,0,1.5\n")
    with pytest.raises(ValidationError):
        read_csv(path)


def test_population_dict_round_trip(biased_pop):
    d = population_to_dict(biased_pop)
    back = population_from_dict(d)
    assert back.pi_s == biased_pop.pi_s
    assert_allclose(back.p_y_given_s, biased_pop.p_y_given_s)
    for cell in biased_pop.cells:
        assert_allclose(back.cells[cell].mean, biased_pop.cells[cell].mean)
        assert_allclose(back.cells[cell].cov, biased_pop.cells[cell].cov)
    # dict form is JSON-serializable as-is
    import json

    json.dumps(d)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(pi_s="abc"),
    lambda d: d["cells"].update({"a,b": d["cells"]["0,0"]}),
    lambda d: d["cells"].update({"0,0,1": d["cells"]["0,0"]}),
    lambda d: d["cells"]["0,0"].update(mean=["x", 0.0]),
    lambda d: d["cells"]["0,0"].update(cov="x"),
    lambda d: d.update(pi_s="0.5"),
    lambda d: d.update(p_y_given_s=[[True, False], [0.5, 0.5]]),
    lambda d: d.update(p_y_given_s=[[0.5, 0.5], ["0.5", "0.5"]]),
    lambda d: d["cells"]["0,0"].update(mean=[True, 0.0]),
    lambda d: d["cells"].update({"2,0": d["cells"]["0,0"]}),
    lambda d: d["cells"].update({"0, 1": d["cells"].pop("0,1")}),
], ids=["pi-s-not-a-number", "cell-key-not-integers", "cell-key-three-parts",
        "mean-entry-not-a-number", "cov-not-a-matrix", "pi-s-a-numeric-string",
        "p-y-booleans", "p-y-numeric-strings", "mean-entry-a-boolean", "cell-outside-cells",
        "cell-key-with-a-space"])
def test_population_from_dict_refuses_unconvertible_values(biased_pop, edit):
    """A value that is not a JSON number, or a cell key other than the "s,y"
    of a cell, raises ValidationError, not the bare ValueError of a
    conversion, and is never read as a number or dropped."""
    d = population_to_dict(biased_pop)
    edit(d)
    with pytest.raises(ValidationError, match="malformed population description"):
        population_from_dict(d)
