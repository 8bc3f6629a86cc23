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


def test_mixture_model_validation():
    with pytest.raises(ValueError):
        readout.MixtureModel(np.array([0.5, 0.5]), np.zeros((3, 2)), np.eye(2))
    with pytest.raises(ValueError):
        readout.MixtureModel(np.full(3, 1 / 3), np.zeros((3, 2)), -np.eye(2))


def test_sample_shots_pure_component():
    model = simple_model(sep=7.0)
    shots = readout.sample_shots([1.0, 0.0, 0.0], model, 4000, seed=3)
    # every point from component g
    assert np.abs(shots.mean(axis=0) - model.means[0]).max() < 4 / np.sqrt(4000)
    labels = readout.classify(shots, model)
    assert np.mean(labels == 0) > 0.997


def test_sample_shots_law_of_large_numbers():
    model = simple_model()
    p = np.array([0.2, 0.5, 0.3])
    for n in (1000, 10000, 100000):
        shots = readout.sample_shots(p, model, n, seed=11)
        target = p @ model.means[:, 0]
        assert abs(shots[:, 0].mean() - target) < 5 * 2.5 / np.sqrt(n)


def test_sample_shots_deterministic_seed():
    model = simple_model()
    a = readout.sample_shots([0.3, 0.3, 0.4], model, 500, seed=42)
    b = readout.sample_shots([0.3, 0.3, 0.4], model, 500, seed=42)
    assert np.array_equal(a, b)
    c = readout.sample_shots([0.3, 0.3, 0.4], model, 500, seed=43)
    assert not np.array_equal(a, c)


def test_sample_shots_validates_probabilities():
    with pytest.raises(ValueError):
        readout.sample_shots([0.5, 0.2, 0.2], simple_model(), 10, seed=0)


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
            shots = readout.sample_shots(np.eye(3)[s], model, n, seed=100 + s)
            freq = np.bincount(readout.classify(shots, model), minlength=3) / n
            sigma = np.sqrt(probs[:, s] * (1 - probs[:, s]) / n)
            assert np.all(np.abs(freq - probs[:, s]) < 4 * sigma + 1e-4)
        # the affine classifier is the full quadratic MAP rule
        shots = readout.sample_shots([0.4, 0.3, 0.3], model, 100000, seed=9)
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
    two = readout.two_node(r_a, r_b)
    assert two.shape == (9, 9)
    for i in range(9):
        for j in range(9):
            expected = r_a[i // 3, j // 3] * r_b[i % 3, j % 3]
            assert two[i, j] == pytest.approx(expected, abs=1e-12)
    assert two[0, 0] == pytest.approx(0.982 * 0.985)
    assert np.allclose(readout.two_node(np.eye(3), np.eye(3)), np.eye(9))


def test_two_node_matches_published_table_within_rounding():
    two = 100 * readout.two_node(readout.TABLE_R_A, readout.TABLE_R_B)
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


def test_correlated_two_node_sampling(cal_a, cal_b):
    rng = np.random.default_rng(31)
    p9 = np.zeros(9)
    p9[[1, 3]] = 0.5  # perfectly correlated ge/eg mixture
    n = 20000
    joint = rng.choice(9, size=n, p=p9)
    shots_a = cal_a.shots_for_prepared_sequence(joint // 3, rng)
    shots_b = cal_b.shots_for_prepared_sequence(joint % 3, rng)
    labels = 3 * readout.classify(shots_a, cal_a.model) + readout.classify(
        shots_b, cal_b.model
    )
    freq = np.bincount(labels, minlength=9) / n
    r_two = readout.two_node(cal_a.analytic_assignment(), cal_b.analytic_assignment())
    expected = r_two @ p9
    assert np.abs(freq - expected).max() < 4 * np.sqrt(0.25 / n) + 2e-3
    rec = readout.mitigate(freq, r_two).populations
    assert np.abs(rec - p9).max() < 0.02


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
