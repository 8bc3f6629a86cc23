import os
import subprocess
import sys

import numpy as np
import pytest

from photonlink import readout


@pytest.fixture(scope="module")
def cal_a():
    return readout.default_calibration("A")


@pytest.fixture(scope="module")
def cal_b():
    return readout.default_calibration("B")


def simple_model(sep=4.0):
    means = np.array([[0.0, 0.0], [sep, 0.0], [sep / 2, sep * 0.9]])
    return readout.MixtureModel(
        weights=np.full(3, 1 / 3), means=means, cov=np.eye(2)
    )


def bare(model):
    """The model's own components: identity preparation weights."""
    return readout.ReadoutCalibration(model, np.eye(3))


def test_mixture_model_validation():
    with pytest.raises(ValueError):
        readout.MixtureModel(np.array([0.5, 0.5]), np.zeros((3, 2)), np.eye(2))
    with pytest.raises(ValueError):
        readout.MixtureModel(np.full(3, 1 / 3), np.zeros((3, 2)), -np.eye(2))


def test_sample_shots_pure_component():
    model = simple_model(sep=7.0)
    shots = bare(model).simulate_shots([1.0, 0.0, 0.0], 4000, seed=3)
    # every point from component g
    assert np.abs(shots.mean(axis=0) - model.means[0]).max() < 4 / np.sqrt(4000)
    labels = readout.classify(shots, model)
    assert np.mean(labels == 0) > 0.997


def test_sample_shots_law_of_large_numbers():
    model = simple_model()
    p = np.array([0.2, 0.5, 0.3])
    for n in (1000, 10000, 100000):
        shots = bare(model).simulate_shots(p, n, seed=11)
        target = p @ model.means[:, 0]
        assert abs(shots[:, 0].mean() - target) < 5 * 2.5 / np.sqrt(n)


def test_sample_shots_deterministic_seed():
    model = simple_model()
    a = bare(model).simulate_shots([0.3, 0.3, 0.4], 500, seed=42)
    b = bare(model).simulate_shots([0.3, 0.3, 0.4], 500, seed=42)
    assert np.array_equal(a, b)
    c = bare(model).simulate_shots([0.3, 0.3, 0.4], 500, seed=43)
    assert not np.array_equal(a, c)


def test_sample_shots_validates_probabilities():
    with pytest.raises(ValueError):
        bare(simple_model()).simulate_shots([0.5, 0.2, 0.2], 10, seed=0)


def test_samplers_reject_non_finite_probabilities():
    cal = bare(simple_model())
    for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]):
        for sampler in (readout.joint_shots, readout.joint_counts):
            with pytest.raises(ValueError, match="finite"):
                sampler([cal], bad, 10, seed=0)


def test_classify_at_means_and_tie_break():
    model = simple_model()
    assert readout.classify(model.means, model).tolist() == [0, 1, 2]
    midpoint = 0.5 * (model.means[0] + model.means[1])
    # equal discriminants: argmax returns the first, fixing the g<e<f order
    assert readout.classify(midpoint[None, :], model)[0] == 0


def skewed_model():
    """Correlated, anisotropic covariance and unequal weights."""
    means = np.array([[0.0, 0.0], [3.0, 0.5], [1.0, 2.5]])
    cov = np.array([[1.3, 0.5], [0.5, 0.6]])
    return readout.MixtureModel(np.array([0.5, 0.3, 0.2]), means, cov)


def test_classification_rates_match_analytic_overlap():
    for model in (simple_model(sep=3.0), skewed_model()):
        probs = readout.assignment_probabilities(model)
        n = 25000
        for s in range(3):
            shots = bare(model).simulate_shots(np.eye(3)[s], n, seed=100 + s)
            freq = np.bincount(readout.classify(shots, model), minlength=3) / n
            sigma = np.sqrt(probs[:, s] * (1 - probs[:, s]) / n)
            assert np.all(np.abs(freq - probs[:, s]) < 4 * sigma + 1e-4)
        # the affine classifier is the full quadratic MAP rule
        shots = bare(model).simulate_shots([0.4, 0.3, 0.3], 100000, seed=9)
        d = shots[:, None, :] - model.means
        inv = np.linalg.inv(model.cov)
        log_post = np.log(model.weights) - 0.5 * np.einsum("nsi,ij,nsj->ns", d, inv, d)
        assert np.array_equal(readout.classify(shots, model), np.argmax(log_post, axis=1))


def test_orthant_probability_against_monte_carlo():
    rng = np.random.default_rng(5)
    mean = np.array([0.4, -0.2])
    cov = np.array([[1.3, 0.5], [0.5, 0.9]])
    exact = readout._orthant_probability(mean, cov)
    samples = rng.multivariate_normal(mean, cov, size=400000)
    mc = np.mean((samples[:, 0] >= 0) & (samples[:, 1] >= 0))
    assert exact == pytest.approx(mc, abs=4 * np.sqrt(0.25 / 400000))


def test_assignment_matrix_columns_sum_to_one():
    counts = np.array([[900, 80, 20], [50, 930, 20], [10, 30, 960]])
    r = readout.assignment_matrix(counts)
    assert np.allclose(r.sum(axis=0), 1.0)
    assert r[0, 0] == pytest.approx(0.9)
    assert r[1, 0] == pytest.approx(0.08)  # prepared g assigned e
    with pytest.raises(ValueError):
        readout.assignment_matrix(np.array([[1, 0, 0], [0, 0, 0], [0, 0, 1]]))


def test_table_values():
    # measured assignment table, prepared states as columns
    assert readout.TABLE_R_A[:, 0] == pytest.approx([0.982, 0.010, 0.008])
    assert np.allclose(readout.TABLE_R_A.sum(axis=0), 1.0, atol=2e-3)
    assert np.allclose(readout.TABLE_R_B.sum(axis=0), 1.0, atol=2e-3)


def test_two_node_outer_product():
    r_a = readout.table_assignment_matrix("A")
    r_b = readout.table_assignment_matrix("B")
    two = readout.kron(r_a, r_b)
    assert two.shape == (9, 9)
    for i in range(9):
        for j in range(9):
            expected = r_a[i // 3, j // 3] * r_b[i % 3, j % 3]
            assert two[i, j] == pytest.approx(expected, abs=1e-12)
    assert two[0, 0] == pytest.approx(0.982 * 0.985)
    assert np.allclose(readout.kron(np.eye(3), np.eye(3)), np.eye(9))
    assert np.allclose(readout.kron(r_a, r_b, np.eye(3)), np.kron(two, np.eye(3)))


def test_two_node_matches_published_table_within_rounding():
    two = 100 * readout.kron(readout.TABLE_R_A, readout.TABLE_R_B)
    assert np.abs(two - readout.TABLE_R_TWO_NODE_PERCENT).max() <= 0.1 + 1e-9


def test_mitigate_exact_round_trip(rng):
    r = readout.table_assignment_matrix("A")
    p = np.array([0.6, 0.3, 0.1])
    res = readout.mitigate(r @ p, r)
    assert np.allclose(res.populations, p, atol=1e-12)
    assert res.condition_number > 1.0
    ident = readout.mitigate(p, np.eye(3))
    assert np.allclose(ident.populations, p)
    assert ident.error_score == 0.0
    # a (3, n) matrix of frequency columns is mitigated column by column
    freqs = r @ np.column_stack([p, [1.0, 0, 0], [0.2, 0.2, 0.6], [0, 0.5, 0.5]])
    table = readout.mitigate(freqs, r).populations
    assert table.shape == (3, 4)
    for col in range(4):
        single = readout.mitigate(freqs[:, col], r).populations
        assert np.abs(table[:, col] - single).max() < 1e-14


def test_mitigate_error_score_is_mean_misassignment():
    r = readout.table_assignment_matrix("A")
    res = readout.mitigate(np.array([1.0, 0, 0]), r)
    expected = np.abs(np.eye(3) - r).sum() / 6
    assert res.error_score == pytest.approx(expected)
    # equals the mean total misassignment probability per prepared state
    assert expected == pytest.approx((1 - np.diag(r)).sum() / 3, abs=2e-3)


def test_mitigate_warns_on_unphysical_populations():
    r = readout.table_assignment_matrix("A")
    with pytest.warns(UserWarning):
        readout.mitigate(np.array([1.2, -0.1, -0.1]), r)
    with pytest.raises(ValueError):
        readout.mitigate(np.array([1.0, 0, 0]), np.ones((3, 3)))


def test_mitigate_rejects_non_finite_frequencies():
    r = readout.table_assignment_matrix("A")
    for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            readout.mitigate(np.array(bad), r)
    with pytest.raises(ValueError, match="finite"):
        readout.mitigate(np.array([[0.5, np.nan], [0.3, 0.5], [0.2, 0.5]]), r)


def test_mitigation_monte_carlo_round_trip(cal_a):
    """Sampled shots of a mixed state are recovered within 3 binomial sigma."""
    truth = np.array([0.5, 0.3, 0.2])
    r = cal_a.analytic_assignment()
    n = 25000
    shots = cal_a.simulate_shots(truth, n, seed=7)
    freq = np.bincount(readout.classify(shots, cal_a.model), minlength=3) / n
    rec = readout.mitigate(freq, r).populations
    sigma = np.sqrt(truth * (1 - truth) / n)
    assert np.all(np.abs(rec - truth) < 3.5 * sigma)


def test_mitigation_error_shrinks_with_shots(cal_a):
    truth = np.array([0.5, 0.3, 0.2])
    r = cal_a.analytic_assignment()
    errs = []
    for n in (1000, 10000, 100000):
        shots = cal_a.simulate_shots(truth, n, seed=1)
        freq = np.bincount(readout.classify(shots, cal_a.model), minlength=3) / n
        errs.append(np.abs(readout.mitigate(freq, r).populations - truth).max())
        assert errs[-1] < 5.0 / np.sqrt(n)
    assert errs[-1] < errs[0]


def test_calibration_reproduces_measured_tables(cal_a, cal_b):
    assert np.abs(cal_a.analytic_assignment() - readout.TABLE_R_A).max() < 1e-9
    assert np.abs(cal_b.analytic_assignment() - readout.TABLE_R_B).max() < 1e-9
    assert cal_a.prep_weights.min() >= 0
    # the classifier regions are straight lines: shared covariance MAP
    assert np.abs(cal_a.model.cov - cal_a.model.cov.T).max() < 1e-12


def test_calibrated_sampling_matches_table_at_25000(cal_a, cal_b):
    n = 25000
    for cal, table in ((cal_a, readout.TABLE_R_A), (cal_b, readout.TABLE_R_B)):
        for s in range(3):
            shots = cal.simulate_shots(np.eye(3)[s], n, seed=200 + s)
            freq = np.bincount(readout.classify(shots, cal.model), minlength=3) / n
            sigma = np.sqrt(table[:, s] * (1 - table[:, s]) / n)
            assert np.all(np.abs(freq - table[:, s]) < 3.5 * sigma + 5e-4)


def _joint_labels(cals, p, n, seed):
    """A-major labels of n joint shots of the nodes ``cals``, classified node
    by node: 3 a + b for a pair."""
    labels = 0
    for cal, pts in zip(cals, readout.joint_shots(cals, p, n, seed)):
        labels = 3 * labels + readout.classify(pts, cal.model)
    return labels


def test_correlated_two_node_sampling(cal_a, cal_b):
    p9 = np.zeros(9)
    p9[[1, 3]] = 0.5  # perfectly correlated ge/eg mixture
    n = 20000
    freq = np.bincount(_joint_labels([cal_a, cal_b], p9, n, seed=31), minlength=9) / n
    r_two = readout.kron(cal_a.analytic_assignment(), cal_b.analytic_assignment())
    expected = r_two @ p9
    assert np.abs(freq - expected).max() < 4 * np.sqrt(0.25 / n) + 2e-3
    rec = readout.mitigate(freq, r_two).populations
    assert np.abs(rec - p9).max() < 0.02


def _asymmetric_p9():
    """A two-qutrit population vector that tells node A from node B."""
    p9 = np.full(9, 0.02)
    p9[5] = 0.7   # |e f>
    p9[1] += 0.1  # |g e>
    return p9 / p9.sum()


def _kronecker_fit(counts, first, second, p9):
    """(chi^2 per degree of freedom, max |z|) of 9 joint label counts against
    kron(M_1, M_2) @ kron(prep_1, prep_2) @ p9, normalized, with M the
    calibrations' overlap matrices and ``first``'s label the major digit."""
    overlap = np.kron(
        readout.assignment_probabilities(first.model),
        readout.assignment_probabilities(second.model),
    )
    clusters = np.kron(first.prep_weights, second.prep_weights) @ p9
    expected = counts.sum() * overlap @ clusters / clusters.sum()
    z = (counts - expected) / np.sqrt(expected)
    return (z**2).sum() / 8, np.abs(z).max()


def test_joint_shots_follow_the_kronecker_model(cal_a, cal_b):
    """Joint labels of an A/B-asymmetric state are multinomial in
    kron(M_A, M_B) @ kron(prep_A, prep_B) @ p9, normalized, with M the
    nodes' overlap matrices and node A's label the major digit."""
    p9 = _asymmetric_p9()
    n = 200000
    counts = np.bincount(_joint_labels([cal_a, cal_b], p9, n, seed=2024), minlength=9)
    chi2, zmax = _kronecker_fit(counts, cal_a, cal_b, p9)
    assert zmax < 5
    assert chi2 < 3  # chi^2 per degree of freedom, about 1
    # a sum off by the integrator's trace drift is normalized away, not refused
    a, b = readout.joint_shots([cal_a, cal_b], p9 * (1 + 2e-6), 10, seed=0)
    assert a.shape == b.shape == (10, 2)
    with pytest.raises(ValueError):
        readout.joint_shots([cal_a, cal_b], np.full(3, 1 / 3), 10, seed=0)
    with pytest.raises(ValueError):
        readout.joint_shots([cal_a, cal_b], p9 * 1.01, 10, seed=0)


def test_joint_counts_follow_the_kronecker_model(cal_a, cal_b):
    """The counts ``joint_counts`` returns pass the Kronecker-model test and
    fail it against the A/B-swapped expectation."""
    p9 = _asymmetric_p9()
    counts = readout.joint_counts([cal_a, cal_b], p9, 200000, seed=2024)
    assert counts.shape == (9,) and counts.sum() == 200000
    chi2, zmax = _kronecker_fit(counts, cal_a, cal_b, p9)
    assert zmax < 5 and chi2 < 3
    chi2, zmax = _kronecker_fit(counts, cal_b, cal_a, p9)
    assert zmax > 5 and chi2 > 3


class _Pinned(np.random.Generator):
    """A Generator whose cluster draw and normal draws return fixed arrays."""

    def __init__(self, joint, z):
        super().__init__(np.random.PCG64(0))
        self.joint, self.z = np.asarray(joint), np.asarray(z, dtype=float)

    def choice(self, a, size=None, replace=True, p=None, axis=0, shuffle=True):
        return self.joint

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        return self.z


@pytest.mark.parametrize("k", [1, 2])
def test_joint_counts_equal_the_classified_joint_shots(cal_a, cal_b, k):
    """``joint_counts`` gives the bincount of the A-major ``classify`` labels
    of ``joint_shots`` on an identically seeded Generator, and leaves it in
    the same state."""
    skewed = bare(skewed_model())
    node_sets = {
        1: [(cal_a,), (cal_b,), (skewed,)],
        2: [(cal_a, cal_b), (skewed, skewed), (skewed, cal_b)],
    }[k]
    p = np.random.default_rng(k).dirichlet(np.ones(3**k))
    for cals in node_sets:
        shots_rng, counts_rng = np.random.default_rng(17), np.random.default_rng(17)
        labels = _joint_labels(cals, p, 20000, shots_rng)
        counts = readout.joint_counts(cals, p, 20000, counts_rng)
        assert np.array_equal(counts, np.bincount(labels, minlength=3**k))
        assert shots_rng.bit_generator.state == counts_rng.bit_generator.state


def test_joint_counts_break_an_exact_tie_toward_g():
    """A shot exactly on the g|e boundary of a symmetric model, drawn from
    either cluster, is labelled g by both paths."""
    model = simple_model(sep=4.0)
    cal = bare(model)
    joint, z = [0, 1], [[2.0, 0.0], [-2.0, 0.0]]  # both shots at (2, 0)
    shots = readout.joint_shots([cal], [0.5, 0.5, 0.0], 2, _Pinned(joint, z))[0]
    assert np.array_equal(shots, [[2.0, 0.0], [2.0, 0.0]])
    w, h, logw = model.discriminant()
    scores = shots[0] @ w.T - h + logw
    assert scores[0] == scores[1] > scores[2]
    assert readout.classify(shots, model).tolist() == [0, 0]
    counts = readout.joint_counts([cal], [0.5, 0.5, 0.0], 2, _Pinned(joint, z))
    assert counts.tolist() == [2, 0, 0]


def test_default_calibration_rejects_unknown_node():
    with pytest.raises(ValueError):
        readout.default_calibration("C")
    with pytest.raises(ValueError):
        readout.table_assignment_matrix("C")


def test_default_calibration_loads_without_an_optimizer():
    code = (
        "import sys\n"
        "import photonlink.cli\n"
        "from photonlink import readout\n"
        "readout.default_calibration('A')\n"
        "readout.default_calibration('B')\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_calibrate_to_targets_reproduces_the_stored_parameters():
    for node in ("A", "B"):
        table, theta = readout._TABLE_FITS[node]
        cal = readout.calibrate_to_targets(table, x0=np.asarray(theta) + 0.05)
        mu, w = cal.model.means, cal.model.weights
        refit = [mu[1, 0], mu[2, 0], mu[2, 1], *np.log(w[1:] / w[0])]
        assert np.abs(np.subtract(refit, theta)).max() < 1e-6
        assert np.abs(cal.analytic_assignment() - table).max() < 1e-6


def test_shot_dump_csv(tmp_path, cal_a):
    shots = cal_a.simulate_shots([1, 0, 0], 50, seed=2)
    labels = readout.classify(shots, cal_a.model)
    path = tmp_path / "shots.csv"
    readout.write_shots_csv(path, shots, [0] * 50, labels)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "u,v,prepared,assigned"
    assert len(rows) == 51
    readout.write_assignment_json(tmp_path / "r.json", cal_a.analytic_assignment())
    import json

    raw = json.loads((tmp_path / "r.json").read_text())
    assert raw["labels"] == ["g", "e", "f"]
