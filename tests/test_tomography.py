import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from photonlink import tomography as tomo
from photonlink.metrics import PAULI, PAULI_LABELS, trace_norm_distance
from photonlink.protocols import ProtocolSpec, _measure
from conftest import random_density, random_pure

REFERENCE = Path(__file__).parent / "link_reference.json"


def recorded_rho9_direct():
    ref = json.loads(REFERENCE.read_text())["rho9_direct"]
    return np.asarray(ref["re"]) + 1j * np.asarray(ref["im"])


def kraus_to_chi(kraus_ops):
    """Closed-form chi matrix of a channel given by Kraus operators."""
    paulis = np.stack([PAULI[p] for p in PAULI_LABELS])
    chi = np.zeros((4, 4), dtype=complex)
    for k in kraus_ops:
        c = np.einsum("mij,ji->m", paulis.conj().transpose(0, 2, 1), np.asarray(k, complex)) / 2.0
        chi += np.outer(c, c.conj())
    return tomo.ProcessMatrix(chi)


def dense_mle(populations, tol=1e-10, max_iter=5000):
    """The MLE on the dense Born matrix of the whole gate set: the same
    diluted fixed point as ``tomo.qst_mle``, one real view of conj(A) per
    iteration with no product structure (729 x 162 for the pair set)."""
    freqs = np.clip(np.asarray(populations, dtype=float), 0.0, 1.0)
    n, d = freqs.shape
    c = tomo._born_matrix("single" if d == 3 else "pair").conj().view(float)
    f = freqs.reshape(-1)
    f = f / f.sum() * n
    rho = np.eye(d, dtype=complex) / d
    last_ll = -np.inf
    for _ in range(max_iter):
        p = np.maximum(c @ rho.reshape(-1).view(float), 1e-14)
        ll = float(np.dot(f, np.log(p)))
        if ll - last_ll < tol and math.isfinite(last_ll):
            break
        last_ll = ll
        r = ((f / p) @ c).view(complex).reshape(d, d) / n
        step = np.eye(d) + 0.5 * r
        rho = step @ rho @ step.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    return rho


def test_gate_set_counts_and_identity():
    singles = tomo.gate_set("single")
    assert len(singles) == 9
    assert singles[0].name == "id"
    assert np.allclose(singles[0].unitary, np.eye(3))
    pairs = tomo.gate_set("pair")
    assert len(pairs) == 81
    assert np.allclose(pairs[0].unitary, np.eye(9))
    with pytest.raises(ValueError):
        tomo.gate_set("triple")


def test_gate_set_unitarity():
    for setting in tomo.gate_set("single"):
        u = setting.unitary
        assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12


def test_setting_rejects_nonunitary():
    with pytest.raises(ValueError):
        tomo.TomographySetting("bad", np.ones((3, 3)))


def test_gate_sets_are_built_once_and_read_only():
    assert tomo.gate_set("pair") is tomo.gate_set("pair")
    assert tomo.gate_set("single") is tomo.gate_set("single")
    for kind in ("single", "pair"):
        with pytest.raises(ValueError):
            tomo.gate_set(kind)[1].unitary[0, 0] = 0.0
    assert tomo.gate_set("single")[1].unitary[0, 0] == pytest.approx(np.cos(np.pi / 4))
    # the dense Born matrices too, each with one row per setting outcome
    for kind, d in (("single", 3), ("pair", 9)):
        a = tomo._born_matrix(kind)
        assert a is tomo._born_matrix(kind)
        assert a.shape == (len(tomo.gate_set(kind)) * d, d * d)
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    assert tomo._born_factor()[0] is tomo._born_matrix("single")
    # a setting keeps its own copy of the caller's array
    u = np.eye(3, dtype=complex)
    setting = tomo.TomographySetting("id", u)
    u[0, 0] = -1.0
    assert setting.unitary[0, 0] == 1.0


def test_born_probabilities_basics(rng):
    settings = tomo.gate_set("single")
    rho_g = np.diag([1.0, 0, 0]).astype(complex)
    assert np.allclose(tomo.born_probabilities(rho_g)[0], [1, 0, 0])
    # |e> after a ge pi pulse reads out as g
    rho_e = np.diag([0, 1.0, 0]).astype(complex)
    assert settings[3].name == "x180_ge"
    assert tomo.born_probabilities(rho_e)[3, 0] == pytest.approx(1.0)
    rho = random_density(3, rng)
    p = tomo.born_probabilities(rho)
    assert p.shape == (9, 3)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > -1e-12)
    for row, setting in zip(p, settings):
        u = setting.unitary
        assert np.abs(row - np.diag(u @ rho @ u.conj().T).real).max() < 1e-14
    pairs = tomo.gate_set("pair")
    rho = random_density(9, rng)
    p = tomo.born_probabilities(rho)
    assert p.shape == (81, 9)
    for row, setting in zip(p, pairs):
        u = setting.unitary
        assert np.abs(row - np.diag(u @ rho @ u.conj().T).real).max() < 1e-14


def test_ef_swap_is_permutation():
    u = tomo.ef_swap()
    assert np.abs(u @ u - np.eye(3)).max() < 1e-12
    assert np.allclose(u @ np.array([0, 0, 1.0]), [0, 1.0, 0])


def test_mle_round_trip_pure_qutrit(rng):
    psi = random_pure(3, rng)
    rho = np.outer(psi, psi.conj())
    pops = tomo.born_probabilities(rho)
    # boundary states approach the fixed point at ~1/iterations; the default
    # budget reaches 2e-4, a larger one the example's 1e-4
    rec = tomo.qst_mle(pops, tol=1e-13, max_iter=20000)
    assert trace_norm_distance(rec, rho) < 1e-4
    assert np.linalg.eigvalsh(rec).min() > -1e-10
    assert np.trace(rec).real == pytest.approx(1.0, abs=1e-10)


def test_mle_maximally_mixed(rng):
    pops = tomo.born_probabilities(np.eye(3, dtype=complex) / 3)
    assert np.abs(tomo.qst_mle(pops) - np.eye(3) / 3).max() < 1e-12
    pops9 = tomo.born_probabilities(np.eye(9, dtype=complex) / 9)
    assert np.abs(tomo.qst_mle(pops9) - np.eye(9) / 9).max() < 1e-12


def test_mle_round_trip_two_qutrit_mixed(rng):
    rho = random_density(9, rng)
    pops = tomo.born_probabilities(rho)
    rec = tomo.qst_mle(pops)
    assert np.sqrt(np.abs(np.trace((rec - rho) @ (rec - rho)))) < 1e-3
    # rank-deficient states converge more slowly but stay usable
    rho = random_density(9, rng, rank=4)
    pops = tomo.born_probabilities(rho)
    rec = tomo.qst_mle(pops)
    assert np.sqrt(np.abs(np.trace((rec - rho) @ (rec - rho)))) < 5e-3


def test_mle_round_trip_random_mixed_states(rng):
    for _ in range(5):
        rho = random_density(3, rng)
        pops = tomo.born_probabilities(rho)
        rec = tomo.qst_mle(pops)
        assert trace_norm_distance(rec, rho) < 1e-3


@pytest.mark.filterwarnings("ignore:MLE stopped")
@pytest.mark.filterwarnings("ignore:mitigated populations")
def test_factored_mle_matches_the_dense_iteration(rng):
    """The pair-set MLE, which applies the single-qutrit factor along each
    node axis, lands within 1e-12 of the dense iteration; the single set
    applies the same factor once and is bit-identical."""
    rho9 = recorded_rho9_direct()
    shots = ProtocolSpec(name="entangle", shots=20000, seed=1)
    mitigated = _measure(rho9, shots, np.random.default_rng(1))
    # near-pure and node-asymmetric: A mostly in e, B spread over g, e and f
    psi = np.kron([0.3, 0.9, 0.3165], [0.7, 0.1j, 0.707]).astype(complex)
    psi[4] += 0.4
    psi /= np.linalg.norm(psi)
    near_pure = 0.995 * np.outer(psi, psi.conj()) + 0.005 * random_density(9, rng)
    inputs = {
        "recorded exact": tomo.born_probabilities(rho9),
        "mitigated 20000 shots": mitigated,
        "random full rank": tomo.born_probabilities(random_density(9, rng)),
        "near-pure asymmetric": tomo.born_probabilities(near_pure),
    }
    for name, pops in inputs.items():
        err = np.abs(tomo.qst_mle(pops) - dense_mle(pops)).max()
        assert err <= 1e-12, (name, err)
    pops = tomo.born_probabilities(random_density(3, rng, rank=2))
    assert tomo.qst_mle(pops).tobytes() == dense_mle(pops).tobytes()


@pytest.mark.filterwarnings("ignore:MLE stopped")
@pytest.mark.filterwarnings("ignore:mitigated populations")
def test_mle_stack_states_stop_on_their_own(rng):
    """A stack whose states stop at different iterations returns each one
    bit-identical to its reconstruction alone: the maximally mixed state is
    the fixed point and stops at the second iteration, the others run on,
    and the stack shrinks as they stop."""
    for d in (9, 3):
        rhos = [random_density(d, rng), np.eye(d) / d, random_density(d, rng, rank=2)]
        pops = [tomo.born_probabilities(rho) for rho in rhos]
        shots = ProtocolSpec(name="qpt", shots=20000, seed=2)
        pops.append(_measure(rhos[0], shots, np.random.default_rng(2)))
        alone = [tomo.qst_mle(p) for p in pops]
        stack = tomo.qst_mle(np.stack(pops))
        assert stack.shape == (len(pops), d, d)
        for i, rec in enumerate(alone):
            assert np.array_equal(stack[i], rec), (d, i)
        assert np.array_equal(tomo.qst_mle(pops[1], max_iter=1), alone[1])
        assert not np.array_equal(tomo.qst_mle(pops[0], max_iter=2), alone[0])


def test_mle_warns_once_per_state_that_reaches_max_iter(rng):
    """Each stacked state that reaches max_iter short of convergence gets its
    own "MLE stopped" warning, which names it; a converged one gets none."""
    rhos = [random_density(9, rng), np.eye(9) / 9, random_density(9, rng, rank=3)]
    pops = np.stack([tomo.born_probabilities(rho) for rho in rhos])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stack = tomo.qst_mle(pops, max_iter=5)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2 and all(m.startswith("MLE stopped after 5 iterations") for m in messages)
    assert "on state 0;" in messages[0] and "on state 2;" in messages[1]
    for i, p in enumerate(pops):
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            assert np.array_equal(tomo.qst_mle(p, max_iter=5), stack[i])
        assert len(alone) == (i != 1)


def test_mle_shape_validation():
    """The dimension picks the gate set, and any other shape raises: a
    settings count that does not match the outcome count (a gate set with a
    setting missing), an outcome count of no gate set, or a state that is
    not 3x3 or 9x9."""
    for shape in ((4, 3), (8, 3), (80, 9), (81, 3), (9, 9), (9, 4), (2, 4, 3),
                  (2, 8, 3), (0, 9, 3), (2, 1, 9, 3), (27,), ()):
        with pytest.raises(ValueError, match="populations shape"):
            tomo.qst_mle(np.full(shape, 0.5))
    for shape in ((4, 4), (3, 9), (27, 27), (1, 9, 9), (9,)):
        with pytest.raises(ValueError, match="state shape"):
            tomo.born_probabilities(np.zeros(shape))


def test_mle_rejects_max_iter_below_one():
    pops = tomo.born_probabilities(np.eye(3) / 3)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            tomo.qst_mle(pops, max_iter=max_iter)


def test_mle_does_not_depend_on_the_blas_thread_count():
    """The exact 81-setting populations of the recorded entangled state give
    a byte-identical reconstruction with one and with two BLAS threads."""
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from photonlink import tomography as tomo\n"
        "ref = json.load(open(sys.argv[1]))['rho9_direct']\n"
        "rho = np.asarray(ref['re']) + 1j * np.asarray(ref['im'])\n"
        "rec = tomo.qst_mle(tomo.born_probabilities(rho))\n"
        "sys.stdout.write(rec.tobytes().hex())\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", code, str(REFERENCE)],
            env=env, check=True, capture_output=True, text=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_qpt_identity_channel():
    inputs = tomo.mub_qubit_states()
    outputs = [np.outer(psi, psi.conj()) for psi in inputs]
    chi = tomo.qpt_linear_inversion(inputs, outputs)
    assert np.abs(chi.chi - tomo.CHI_IDENTITY).max() < 1e-10
    assert chi.identity_weight == pytest.approx(1.0)


def test_qpt_depolarizing_channel():
    inputs = tomo.mub_qubit_states()
    outputs = [np.eye(2, dtype=complex) / 2 for _ in inputs]
    chi = tomo.qpt_linear_inversion(inputs, outputs)
    assert np.abs(chi.chi - np.eye(4) / 4).max() < 1e-10


def test_qpt_amplitude_damping_matches_kraus_oracle():
    gamma = 0.3
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    inputs = tomo.mub_qubit_states()
    outputs = []
    for psi in inputs:
        rho = np.outer(psi, psi.conj())
        outputs.append(k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T)
    chi = tomo.qpt_linear_inversion(inputs, outputs)
    oracle = kraus_to_chi([k0, k1])
    assert np.abs(chi.chi - oracle.chi).max() < 1e-6
    assert abs(np.trace(chi.chi) - 1.0) < 1e-10  # trace preserving


def test_qpt_unitary_channel_is_rank_one(rng):
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = h + h.conj().T
    from scipy.linalg import expm

    u = expm(-1j * h)
    inputs = tomo.mub_qubit_states()
    outputs = [u @ np.outer(p, p.conj()) @ u.conj().T for p in inputs]
    chi = tomo.qpt_linear_inversion(inputs, outputs)
    eig = np.sort(np.linalg.eigvalsh(chi.chi))[::-1]
    assert eig[1] < 1e-6


def test_qpt_rank_deficient_inputs():
    inputs = tomo.mub_qubit_states()[:2]
    outputs = [np.outer(p, p.conj()) for p in inputs]
    with pytest.raises(ValueError):
        tomo.qpt_linear_inversion(inputs, outputs)
    with pytest.raises(ValueError):
        tomo.qpt_linear_inversion(inputs, outputs[:1])


def test_process_matrix_validation():
    with pytest.raises(ValueError):
        tomo.ProcessMatrix(np.eye(3))
    assert tomo.ProcessMatrix(tomo.CHI_IDENTITY).identity_weight == 1.0
