import os
import subprocess
import sys

import numpy as np
import pytest

from photonlink import device, pulse, readout
from oracles import TABLE_R_TWO_NODE_PERCENT, joint_shots


@pytest.fixture(scope="module")
def cal_a():
    return readout.default_calibration("A")


@pytest.fixture(scope="module")
def cal_b():
    return readout.default_calibration("B")


def simple_model(sep=4.0):
    means = np.array([[0.0, 0.0], [sep, 0.0], [sep / 2, sep * 0.9]])
    return readout.MixtureModel(weights=np.full(3, 1 / 3), means=means)


def bare(model):
    """The model's own components: identity preparation weights."""
    return readout.ReadoutCalibration(model, np.eye(3))


def test_mixture_model_validation():
    means = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    with pytest.raises(ValueError):
        readout.MixtureModel(np.array([0.5, 0.5]), means)
    with pytest.raises(ValueError):
        readout.MixtureModel(np.full(3, 1 / 3), means[:2])
    with pytest.raises(ValueError):
        readout.MixtureModel(np.array([-0.1, 0.6, 0.5]), means)
    # non-finite numbers, for which every < check is False
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            readout.MixtureModel(np.array([bad, 0.5, 0.5]), means)
        with pytest.raises(ValueError, match="finite"):
            readout.MixtureModel(np.full(3, 1 / 3), np.where(means == 4.0, bad, means))


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


def _one_row(cals, p, n, seed):
    """The counts of one joint level population vector ``p``: a one-row
    ``count_table``."""
    return readout.count_table(cals, [p], n, seed)[0]


def _simulated(cals, p, n, seed):
    """The shots of the one node ``cals`` from its ``simulate_shots``."""
    [cal] = cals
    return cal.simulate_shots(p, n, seed)


def test_samplers_reject_non_finite_probabilities():
    cal = bare(simple_model())
    for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]):
        for sampler in (_simulated, _one_row):
            with pytest.raises(ValueError, match="finite"):
                sampler([cal], bad, 10, seed=0)


def test_samplers_reject_cluster_weights_without_mass():
    """A calibration whose clusters carry none of ``p``'s population leaves
    no distribution to draw from: both samplers raise ValueError."""
    cal = readout.ReadoutCalibration(simple_model(), np.diag([1.0, 1.0, 0.0]))
    for sampler in (_simulated, _one_row):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            sampler([cal], [0.0, 0.0, 1.0], 10, seed=0)


def test_classify_at_means_and_tie_break():
    model = simple_model()
    assert readout.classify(model.means, model).tolist() == [0, 1, 2]
    midpoint = 0.5 * (model.means[0] + model.means[1])
    # equal discriminants: argmax returns the first, fixing the g<e<f order
    assert readout.classify(midpoint[None, :], model)[0] == 0


def skewed_model():
    """Unequal weights and clusters off the axes."""
    means = np.array([[0.0, 0.0], [3.0, 0.5], [1.0, 2.5]])
    return readout.MixtureModel(np.array([0.5, 0.3, 0.2]), means)


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
        log_post = np.log(model.weights) - 0.5 * (d * d).sum(axis=2)
        assert np.array_equal(readout.classify(shots, model), np.argmax(log_post, axis=1))


def test_orthant_probability_against_monte_carlo():
    rng = np.random.default_rng(5)
    mean = np.array([0.4, -0.2])
    cov = np.array([[1.3, 0.5], [0.5, 0.9]])
    exact = readout._orthant_probability(mean, cov)
    samples = rng.multivariate_normal(mean, cov, size=400000)
    mc = np.mean((samples[:, 0] >= 0) & (samples[:, 1] >= 0))
    assert exact == pytest.approx(mc, abs=4 * np.sqrt(0.25 / 400000))


def ndtr_orthant_probability(mean, cov):
    """The orthant rule of ``readout._orthant_probability``, the same 201
    Gauss-Legendre nodes on [max(-m1/s1, -9), 9], with the normal CDF
    taken from scipy.special.ndtr instead of math.erfc."""
    from scipy.special import ndtr

    s1, s2 = np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1])
    rho = np.clip(cov[0, 1] / (s1 * s2), -1 + 1e-12, 1 - 1e-12)
    lo = max(-mean[0] / s1, -9.0)
    if lo > 9.0:
        return 0.0
    z, w = np.polynomial.legendre.leggauss(201)
    z = 0.5 * (z + 1.0) * (9.0 - lo) + lo
    w = 0.5 * (9.0 - lo) * w
    phi = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
    cond = ndtr((mean[1] / s2 + rho * z) / np.sqrt(1.0 - rho * rho))
    return float(np.sum(w * phi * cond))


def test_assignment_probabilities_match_the_ndtr_rule(cal_a, cal_b, monkeypatch):
    """The erfc normal CDF gives both default models' overlap matrices
    within 1e-15 of the same quadrature on scipy's ndtr."""
    ours = [readout.assignment_probabilities(cal.model) for cal in (cal_a, cal_b)]
    monkeypatch.setattr(readout, "_orthant_probability", ndtr_orthant_probability)
    for cal, r in zip((cal_a, cal_b), ours):
        assert np.abs(r - readout.assignment_probabilities(cal.model)).max() <= 1e-15


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


def test_two_node_matches_published_table_within_rounding(cal_a, cal_b):
    """The measured two-node table is the Kronecker product of the
    single-node ones to its 0.1 % rounding, the assumption behind mitigating
    two-node tomography with kron(R_A, R_B): for the printed single-node
    tables and for the calibrations' analytic assignment matrices, which
    ``protocols._measure`` mitigates with (largest difference 9.0e-4).
    Swapped (B, A) or repeated (A, A) factors miss it by 1.5e-2 and
    1.3e-2, so the check fixes the order of the product."""
    measured = TABLE_R_TWO_NODE_PERCENT / 100
    for r_a, r_b in (
        (readout.TABLE_R_A, readout.TABLE_R_B),
        (cal_a.analytic_assignment(), cal_b.analytic_assignment()),
    ):
        assert np.abs(readout.kron(r_a, r_b) - measured).max() <= 1e-3


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
    # made once per calibration, shared read-only, and equal bit for bit to
    # the product it stands for
    r = cal_a.analytic_assignment()
    assert r is cal_a.analytic_assignment()
    with pytest.raises(ValueError):
        r[0, 0] = 0.0
    assert np.array_equal(r, readout.assignment_probabilities(cal_a.model) @ cal_a.prep_weights)
    model = cal_a.model
    assert np.array_equal(bare(model).analytic_assignment(), readout.assignment_probabilities(model))


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
    for cal, pts in zip(cals, joint_shots(cals, p, n, seed)):
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
    a, b = joint_shots([cal_a, cal_b], p9 * (1 + 2e-6), 10, seed=0)
    assert a.shape == b.shape == (10, 2)
    with pytest.raises(ValueError):
        joint_shots([cal_a, cal_b], np.full(3, 1 / 3), 10, seed=0)
    with pytest.raises(ValueError):
        joint_shots([cal_a, cal_b], p9 * 1.01, 10, seed=0)


def test_count_table_follows_the_kronecker_model(cal_a, cal_b):
    """The counts of a one-row ``count_table`` pass the Kronecker-model test
    and fail it against the A/B-swapped expectation."""
    p9 = _asymmetric_p9()
    counts = _one_row([cal_a, cal_b], p9, 200000, seed=2024)
    assert counts.shape == (9,) and counts.sum() == 200000
    chi2, zmax = _kronecker_fit(counts, cal_a, cal_b, p9)
    assert zmax < 5 and chi2 < 3
    chi2, zmax = _kronecker_fit(counts, cal_b, cal_a, p9)
    assert zmax > 5 and chi2 > 3


class _Pinned(np.random.Generator):
    """A Generator whose uniform and normal draws are fixed arrays, returned
    or written into ``out``: the uniforms are the midpoints of the CDF bins
    of the clusters ``joint`` under the cluster weights ``w``, so the
    inverse-CDF cluster draw gives ``joint``."""

    def __init__(self, joint, z, w):
        super().__init__(np.random.PCG64(0))
        w = np.asarray(w, dtype=float)
        assert np.all(w[joint] > 0), "a pinned cluster needs a CDF bin"
        edges = np.concatenate([[0.0], np.cumsum(w) / w.sum()])
        self.u = 0.5 * (edges[joint] + edges[np.add(joint, 1)])
        self.z = np.asarray(z, dtype=float)

    @staticmethod
    def _give(values, out):
        if out is None:
            return values
        out[...] = values
        return out

    def random(self, size=None, dtype=np.float64, out=None):
        return self._give(self.u, out)

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        return self._give(self.z, out)


def test_pinned_generator_writes_into_out():
    """The pinned draws reach a buffered sampler as they reach one that
    allocates its draws."""
    z = [[1.0, 2.0], [3.0, 4.0]]
    rng = _Pinned([0, 1], z, [0.5, 0.5, 0.0])
    u, normal = np.empty(2), np.empty((2, 2))
    assert rng.random(out=u) is u and np.array_equal(u, rng.random(2))
    assert rng.standard_normal(out=normal) is normal and np.array_equal(normal, z)


@pytest.mark.parametrize("n", [1, 20000])
def test_simulated_shots_are_the_one_node_joint_shots(cal_a, cal_b, n):
    """``simulate_shots`` gives, bit for bit, the one-node ``joint_shots``
    of an identically seeded Generator and leaves it in the same state."""
    p = np.random.default_rng(n).dirichlet(np.ones(3))
    for cal in (cal_a, cal_b, bare(skewed_model())):
        shots_rng, oracle_rng = np.random.default_rng(23), np.random.default_rng(23)
        shots = cal.simulate_shots(p, n, shots_rng)
        assert shots.tobytes() == joint_shots([cal], p, n, oracle_rng)[0].tobytes()
        assert shots_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_shared_readout_state_is_read_only():
    """The cached default calibrations, the measured tables and the
    quadrature rule are shared by every run of a process: writing to any
    of them raises ValueError."""
    readout._orthant_probability(np.zeros(2), np.eye(2))  # the rule built
    shared = [readout.TABLE_R_A, readout.TABLE_R_B, *readout._leggauss()]
    for node in "AB":
        cal = readout.default_calibration(node)
        shared += [cal.prep_weights, cal.model.means, cal.model.weights]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


def test_calibration_holds_copies_of_its_inputs():
    """A model and a calibration freeze copies of the arrays they are given,
    never the caller's arrays, which a later write does not reach them
    through."""
    weights, means, prep = np.full(3, 1 / 3), simple_model().means.copy(), np.eye(3)
    cal = readout.ReadoutCalibration(readout.MixtureModel(weights, means), prep)
    held_copies = (cal.model.weights, cal.model.means, cal.prep_weights)
    for given, held in zip((weights, means, prep), held_copies):
        assert given.flags.writeable and not held.flags.writeable
        kept = held.copy()
        given += 1.0
        assert np.array_equal(held, kept)


@pytest.mark.parametrize("k", [1, 2])
def test_count_table_equals_the_classified_joint_shots(cal_a, cal_b, k):
    """A one-row ``count_table`` gives the bincount of the A-major
    ``classify`` labels of ``joint_shots`` on an identically seeded
    Generator, and leaves it in the same state."""
    skewed = bare(skewed_model())
    node_sets = {
        1: [(cal_a,), (cal_b,), (skewed,)],
        2: [(cal_a, cal_b), (skewed, skewed), (skewed, cal_b)],
    }[k]
    p = np.random.default_rng(k).dirichlet(np.ones(3**k))
    for cals in node_sets:
        shots_rng, counts_rng = np.random.default_rng(17), np.random.default_rng(17)
        labels = _joint_labels(cals, p, 20000, shots_rng)
        counts = _one_row(cals, p, 20000, counts_rng)
        assert np.array_equal(counts, np.bincount(labels, minlength=3**k))
        assert shots_rng.bit_generator.state == counts_rng.bit_generator.state


@pytest.mark.parametrize("k", [1, 2])
def test_count_table_rows_are_one_row_tables_in_order(cal_a, cal_b, k):
    """An R-row ``count_table`` equals R one-row tables drawn in order on one
    Generator and leaves it in the same state; a bad row anywhere raises
    before the first draw."""
    cals = [cal_a, cal_b][:k]
    rows = np.random.default_rng(k).dirichlet(np.ones(3**k), size=5)
    rows[2, 0] = 0.0  # a level without population
    rows[2] /= rows[2].sum()
    table_rng, row_rng = np.random.default_rng(7919), np.random.default_rng(7919)
    table = readout.count_table(cals, rows, 3000, table_rng)
    assert table.shape == (5, 3**k)
    for row, p in zip(table, rows):
        assert np.array_equal(row, _one_row(cals, p, 3000, row_rng))
    assert table_rng.bit_generator.state == row_rng.bit_generator.state
    state = table_rng.bit_generator.state
    bad = rows.copy()
    bad[-1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        readout.count_table(cals, bad, 3000, table_rng)
    assert table_rng.bit_generator.state == state


def test_count_table_holds_two_shot_buffers(cal_a):
    """A one-node table of 20000 shots holds two (shots, 2) float buffers,
    640 KB, at its peak: the uniforms and ``_decide``'s scratch share the
    normal draws' buffer.  A third (shots,) buffer would add 160 KB."""
    import tracemalloc

    rows = np.full((3, 3), 1 / 3)
    readout.count_table([cal_a], rows, 20000, 1)  # calibration tables built
    tracemalloc.start()
    try:
        readout.count_table([cal_a], rows, 20000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 900_000


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [1, 20000])
def test_cluster_draw_is_generator_choice(cal_a, cal_b, k, n):
    """The inverse-CDF cluster draw gives the indices of
    ``Generator.choice(3**k, size=n, p=w)`` on the normalized cluster weights
    w, the draw every recorded run made, and leaves the Generator in the
    same state: with a zero-weight cluster first, in the middle and last,
    and with the default calibrations."""
    cases = []
    for zero in (0, 3**k // 2, 3**k - 1):
        p = np.random.default_rng(zero).dirichlet(np.ones(3**k))
        p[zero] = 0.0
        cases.append(([bare(simple_model())] * k, p / p.sum()))
    cases.append(([cal_a, cal_b][:k], np.random.default_rng(k).dirichlet(np.ones(3**k))))
    for seed, (cals, p) in enumerate(cases):
        w = readout.kron(*[cal.prep_weights for cal in cals]) @ p
        w = np.clip(w / w.sum(), 0, None)
        choice_rng = np.random.default_rng(seed)
        expected = choice_rng.choice(3**k, size=n, p=w / w.sum())
        rng = np.random.default_rng(seed)
        cdf = readout._cluster_cdf(readout.kron(*[cal.prep_weights for cal in cals]), p)
        joint = readout._joint_clusters(cdf, rng.random(n), np.empty(n, np.uint8))
        assert np.array_equal(joint, expected), seed
        assert rng.bit_generator.state == choice_rng.bit_generator.state
    if n > 1:
        # the default calibrations' weights are all positive: every cluster,
        # so every CDF edge, is drawn
        assert set(joint.tolist()) == set(range(3**k))


def test_count_table_breaks_an_exact_tie_toward_g():
    """A shot exactly on the g|e boundary of a symmetric model, drawn from
    either cluster, is labelled g by both paths."""
    model = simple_model(sep=4.0)
    cal = bare(model)
    joint, z = [0, 1], [[2.0, 0.0], [-2.0, 0.0]]  # both shots at (2, 0)
    p = [0.5, 0.5, 0.0]  # the cluster weights too: ``cal`` is bare
    shots = cal.simulate_shots(p, 2, _Pinned(joint, z, p))
    assert np.array_equal(shots, [[2.0, 0.0], [2.0, 0.0]])
    w, h, logw = model.discriminant()
    scores = shots[0] @ w.T - h + logw
    assert scores[0] == scores[1] > scores[2]
    assert readout.classify(shots, model).tolist() == [0, 0]
    counts = _one_row([cal], p, 2, _Pinned(joint, z, p))
    assert counts.tolist() == [2, 0, 0]


@pytest.mark.parametrize(
    "point, tied, label",
    [
        ((0.0, 2.0), [0, 2], 0),     # g|f boundary
        ((3.0, 3.0), [1, 2], 1),     # e|f boundary
        ((2.0, 2.0), [0, 1, 2], 0),  # triple point
    ],
)
def test_exact_ties_break_toward_g_then_e(point, tied, label):
    """On the g|f and e|f boundaries and the triple point of g = (0, 0),
    e = (4, 0), f = (0, 4) with equal weights the scores tie exactly, and
    ``classify`` and ``count_table`` both give the first tied label, from
    whichever cluster the shot was drawn."""
    model = readout.MixtureModel(np.full(3, 1 / 3), [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    w, h, logw = model.discriminant()
    scores = np.asarray(point) @ w.T - h + logw
    assert np.flatnonzero(scores == scores.max()).tolist() == tied
    assert readout.classify(point, model).tolist() == [label]
    z = np.asarray(point) - model.means  # one shot from each cluster, all at the point
    p = np.full(3, 1 / 3)
    counts = _one_row([bare(model)], p, 3, _Pinned([0, 1, 2], z, p))
    assert counts.tolist() == np.bincount([label] * 3, minlength=3).tolist()


def test_default_calibration_rejects_unknown_node():
    with pytest.raises(ValueError):
        readout.default_calibration("C")
    with pytest.raises(ValueError):
        readout.table_assignment_matrix("C")


def test_default_calibration_loads_without_an_optimizer(tmp_path):
    """Loading both calibrations and a shot-mode entangle run, which draws
    and mitigates through them, import neither scipy.optimize nor
    scipy.special: readout needs only numpy and the standard library."""
    code = (
        "import sys\n"
        "from photonlink import cli, readout\n"
        "readout.default_calibration('A')\n"
        "readout.default_calibration('B')\n"
        "argv = ['--scenario', 'entangle', '--shots', '200', '--seed', '1', '--out', sys.argv[1]]\n"
        "assert cli.run(argv) == 0\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "assert 'scipy.special' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env, check=True)


def test_calibrate_to_targets_reproduces_the_stored_parameters():
    for node in ("A", "B"):
        table, theta = readout._TABLE_FITS[node]
        cal = readout.calibrate_to_targets(table, x0=np.asarray(theta) + 0.05)
        mu, w = cal.model.means, cal.model.weights
        refit = [mu[1, 0], mu[2, 0], mu[2, 1], *np.log(w[1:] / w[0])]
        assert np.abs(np.subtract(refit, theta)).max() < 1e-6
        assert np.abs(cal.analytic_assignment() - table).max() < 1e-6


def test_frozen_array_holders_compare_by_identity_and_hash():
    """A frozen dataclass that holds arrays compares by identity and hashes:
    field-wise ``==`` would ask an array for its truth value and raise, and
    its generated hash would hash an array and raise."""
    t = np.linspace(0.0, 1.0, 3)
    h = np.zeros((2, 2), complex)
    pairs = [
        (simple_model(), simple_model()),
        (bare(simple_model()), bare(simple_model())),
        (readout.mitigate([0.5, 0.5], np.eye(2)), readout.mitigate([0.5, 0.5], np.eye(2))),
        (device.TimeDependentOperator(h, (), t), device.TimeDependentOperator(h, (), t)),
        (pulse.DriveEnvelope(t, t), pulse.DriveEnvelope(t, t)),
    ]
    for a, b in pairs:
        assert a == a and a != b, type(a)
        assert len({a, b, a}) == 2, type(a)
