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
from photonlink.metrics import PAULI, PAULI_LABELS
from photonlink.protocols import ProtocolSpec, _measure
from conftest import random_density, random_pure
from oracles import trace_norm_distance

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
    return chi


def pair_rotations():
    """The pair set's 81 rotations, each the np.kron of A's and B's single
    setting, A's major: the order of ``tomo.pair_names()``."""
    singles = tomo.gate_set()[1]
    return np.stack([np.kron(ua, ub) for ua in singles for ub in singles])


def dense_born_map(d):
    """The Born rule of the gate set of dimension d as one dense matrix A
    with A[k d + s, i d + j] = U_si conj(U_sj) for setting k's rotation U:
    27 x 9 for the single set, 729 x 81 for the pairs."""
    u = tomo.gate_set()[1] if d == 3 else pair_rotations()
    n = len(u)
    return (u[:, :, :, None] * u.conj()[:, :, None, :]).reshape(n * d, d * d)


def dense_mle(populations):
    """The MLE of one data set on the dense Born matrix of the whole gate
    set: the same diluted fixed point and stop rule as ``tomo.qst_mle``, one
    real view of conj(A) per iteration with no product structure (729 x 162
    for the pair set)."""
    freqs = np.clip(np.asarray(populations, dtype=float), 0.0, 1.0)
    n, d = freqs.shape
    c = dense_born_map(d).conj().view(float)
    f = freqs.reshape(-1)
    f = f / f.sum() * n
    rho = np.eye(d, dtype=complex) / d
    last_ll = -np.inf
    for _ in range(tomo.MLE_MAX_ITER):
        p = np.maximum(c @ rho.reshape(-1).view(float), 1e-14)
        ll = float(np.dot(f, np.log(p)))
        if ll - last_ll < tomo.MLE_TOL and math.isfinite(last_ll):
            break
        last_ll = ll
        r = ((f / p) @ c).view(complex).reshape(d, d) / n
        step = np.eye(d) + 0.5 * r
        rho = step @ rho @ step.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    return rho


def test_gate_set_counts_and_identity():
    names, singles = tomo.gate_set()
    assert len(names) == 9 and singles.shape == (9, 3, 3)
    assert names[0] == "id"
    assert np.allclose(singles[0], np.eye(3))
    # A's setting major: pair 9 a + b is "a|b"
    pairs = tomo.pair_names()
    assert len(pairs) == 81
    assert pairs[0] == "id|id" and pairs[1] == "id|x90_ge"
    assert pairs == tuple(f"{names[k // 9]}|{names[k % 9]}" for k in range(81))


def test_gate_set_unitarity():
    u = tomo.gate_set()[1]
    assert np.abs(u @ u.conj().mT - np.eye(3)).max() < 1e-12


def test_gate_sets_are_built_once_and_read_only():
    assert tomo.gate_set() is tomo.gate_set()
    with pytest.raises(ValueError):
        tomo.gate_set()[1][1, 0, 0] = 0.0
    assert tomo.gate_set()[1][1, 0, 0] == pytest.approx(np.cos(np.pi / 4))
    # the Born map's single-qutrit factor A1 and its index maps too
    factor = tomo._born_factor()
    assert factor is tomo._born_factor()
    assert factor[0].shape == (27, 9)
    assert np.array_equal(factor[0], dense_born_map(3))
    for shared in factor:
        with pytest.raises(ValueError):
            shared[0, 0] = 0
    # the identity channel's chi matrix, which every process fidelity reads
    with pytest.raises(ValueError):
        tomo.CHI_IDENTITY[0, 0] = 1.0


def test_born_probabilities_basics(rng):
    names, settings = tomo.gate_set()
    rho_g = np.diag([1.0, 0, 0]).astype(complex)
    assert np.allclose(tomo.born_probabilities(rho_g)[0], [1, 0, 0])
    # |e> after a ge pi pulse reads out as g
    rho_e = np.diag([0, 1.0, 0]).astype(complex)
    assert names[3] == "x180_ge"
    assert tomo.born_probabilities(rho_e)[3, 0] == pytest.approx(1.0)
    rho = random_density(3, rng)
    p = tomo.born_probabilities(rho)
    assert p.shape == (9, 3)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > -1e-12)
    for row, u in zip(p, settings):
        assert np.abs(row - np.diag(u @ rho @ u.conj().T).real).max() < 1e-14
    pairs = pair_rotations()
    rho = random_density(9, rng)
    p = tomo.born_probabilities(rho)
    assert p.shape == (81, 9)
    for row, u in zip(p, pairs):
        assert np.abs(row - np.diag(u @ rho @ u.conj().T).real).max() < 1e-14


def test_exact_populations_are_the_mle_model(rng):
    """born_probabilities returns, bit for bit, the forward products the
    MLE iterates with, here made as the MLE makes them: by the Born map of
    a stack of states, into its buffers, the pair set's in the
    (k_a s_a, k_b s_b) order of A1 (x) A1.  The map's adjoint is
    conj(A)^T w of the dense Born matrix A, in the same order."""
    pop_order = tomo._born_factor()[2]
    for d in (3, 9):
        rho, p, born, adjoint = tomo._born_map(4, d)
        rho[:] = np.stack([random_density(d, rng) for _ in range(4)])
        born()
        for state, model in zip(rho, p):
            exact = tomo.born_probabilities(state)
            if d == 9:
                exact = exact.reshape(-1)[pop_order]
            assert exact.tobytes() == model.reshape(exact.shape).tobytes()
        w = rng.random(p.shape)
        w_dense = np.empty((4, p[0].size))
        w_dense[:, pop_order.reshape(-1) if d == 9 else slice(None)] = w.reshape(4, -1)
        expected = (w_dense @ dense_born_map(d).conj()).reshape(4, d, d)
        assert np.abs(adjoint(w) - expected).max() < 1e-13


def test_ef_swap_is_permutation():
    u = tomo.ef_swap()
    assert np.abs(u @ u - np.eye(3)).max() < 1e-12
    assert np.allclose(u @ np.array([0, 0, 1.0]), [0, 1.0, 0])


def test_mle_round_trip_pure_qutrit(rng, monkeypatch):
    psi = random_pure(3, rng)
    rho = np.outer(psi, psi.conj())
    pops = tomo.born_probabilities(rho)
    # boundary states approach the fixed point at ~1/iterations; the default
    # budget reaches 2e-4, a larger one the example's 1e-4
    monkeypatch.setattr(tomo, "MLE_TOL", 1e-13)
    monkeypatch.setattr(tomo, "MLE_MAX_ITER", 20000)
    rec = tomo.qst_mle(pops[None])[0]
    assert trace_norm_distance(rec, rho) < 1e-4
    assert np.linalg.eigvalsh(rec).min() > -1e-10
    assert np.trace(rec).real == pytest.approx(1.0, abs=1e-10)


def test_mle_maximally_mixed(rng):
    pops = tomo.born_probabilities(np.eye(3, dtype=complex) / 3)
    assert np.abs(tomo.qst_mle(pops[None])[0] - np.eye(3) / 3).max() < 1e-12
    pops9 = tomo.born_probabilities(np.eye(9, dtype=complex) / 9)
    assert np.abs(tomo.qst_mle(pops9[None])[0] - np.eye(9) / 9).max() < 1e-12


def test_mle_round_trip_two_qutrit_mixed(rng):
    rho = random_density(9, rng)
    pops = tomo.born_probabilities(rho)
    rec = tomo.qst_mle(pops[None])[0]
    assert np.sqrt(np.abs(np.trace((rec - rho) @ (rec - rho)))) < 1e-3
    # rank-deficient states converge more slowly but stay usable
    rho = random_density(9, rng, rank=4)
    pops = tomo.born_probabilities(rho)
    rec = tomo.qst_mle(pops[None])[0]
    assert np.sqrt(np.abs(np.trace((rec - rho) @ (rec - rho)))) < 5e-3


def test_mle_round_trip_random_mixed_states(rng):
    for _ in range(5):
        rho = random_density(3, rng)
        pops = tomo.born_probabilities(rho)
        rec = tomo.qst_mle(pops[None])[0]
        assert trace_norm_distance(rec, rho) < 1e-3


@pytest.mark.filterwarnings("ignore:MLE stopped")
@pytest.mark.filterwarnings("ignore:mitigated populations")
def test_factored_mle_matches_the_dense_iteration(rng):
    """The pair-set MLE, which applies the single-qutrit factor along each
    node axis, lands within 1e-12 of the dense iteration; the single set
    applies the same factor once and is bit-identical."""
    rho9 = recorded_rho9_direct()
    shots = ProtocolSpec(shots=20000, seed=1)
    mitigated = _measure(rho9[None], shots)[0]
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
        err = np.abs(tomo.qst_mle(pops[None])[0] - dense_mle(pops)).max()
        assert err <= 1e-12, (name, err)
    pops = tomo.born_probabilities(random_density(3, rng, rank=2))
    assert tomo.qst_mle(pops[None])[0].tobytes() == dense_mle(pops).tobytes()


@pytest.mark.filterwarnings("ignore:MLE stopped")
@pytest.mark.filterwarnings("ignore:mitigated populations")
def test_mle_stack_states_stop_on_their_own(rng, monkeypatch):
    """A stack whose states stop at different iterations returns each one
    bit-identical to its reconstruction alone: the maximally mixed state is
    the fixed point and stops at the second iteration, the others run on,
    and the stack shrinks as they stop."""
    for d in (9, 3):
        rhos = [random_density(d, rng), np.eye(d) / d, random_density(d, rng, rank=2)]
        pops = [tomo.born_probabilities(rho) for rho in rhos]
        shots = ProtocolSpec(shots=20000, seed=2)
        pops.append(_measure(rhos[0][None], shots)[0])
        alone = [tomo.qst_mle(p[None])[0] for p in pops]
        stack = tomo.qst_mle(np.stack(pops))
        assert stack.shape == (len(pops), d, d)
        for i, rec in enumerate(alone):
            assert np.array_equal(stack[i], rec), (d, i)
        with monkeypatch.context() as patch:
            patch.setattr(tomo, "MLE_MAX_ITER", 1)
            assert np.array_equal(tomo.qst_mle(pops[1][None])[0], alone[1])
            patch.setattr(tomo, "MLE_MAX_ITER", 2)
            assert not np.array_equal(tomo.qst_mle(pops[0][None])[0], alone[0])


def test_mle_warns_once_per_state_that_reaches_max_iter(rng, monkeypatch):
    """Each stacked state that reaches MLE_MAX_ITER short of convergence gets
    its own "MLE stopped" warning, which names it; a converged one gets none."""
    monkeypatch.setattr(tomo, "MLE_MAX_ITER", 5)
    rhos = [random_density(9, rng), np.eye(9) / 9, random_density(9, rng, rank=3)]
    pops = np.stack([tomo.born_probabilities(rho) for rho in rhos])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stack = tomo.qst_mle(pops)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2 and all(m.startswith("MLE stopped after 5 iterations") for m in messages)
    assert "on state 0;" in messages[0] and "on state 2;" in messages[1]
    for i, p in enumerate(pops):
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            assert np.array_equal(tomo.qst_mle(p[None])[0], stack[i])
        assert len(alone) == (i != 1)


def test_mle_shape_validation():
    """The dimension picks the gate set, and any other shape raises: one
    data set outside a stack, a settings count that does not match the
    outcome count (a gate set with a setting missing), an outcome count of
    no gate set, or a state that is not 3x3 or 9x9."""
    for shape in ((9, 3), (81, 9), (4, 3), (8, 3), (80, 9), (81, 3), (9, 9), (9, 4),
                  (2, 4, 3), (2, 8, 3), (0, 9, 3), (2, 1, 9, 3), (27,), ()):
        with pytest.raises(ValueError, match="populations shape"):
            tomo.qst_mle(np.full(shape, 0.5))
    for shape in ((4, 4), (3, 9), (27, 27), (1, 9, 9), (9,)):
        with pytest.raises(ValueError, match="state shape"):
            tomo.born_probabilities(np.zeros(shape))


def test_mle_does_not_depend_on_the_blas_thread_count():
    """The exact 81-setting populations of the recorded entangled state give
    a byte-identical reconstruction with one and with two BLAS threads."""
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from photonlink import tomography as tomo\n"
        "ref = json.load(open(sys.argv[1]))['rho9_direct']\n"
        "rho = np.asarray(ref['re']) + 1j * np.asarray(ref['im'])\n"
        "rec = tomo.qst_mle(tomo.born_probabilities(rho)[None])\n"
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
    assert chi.shape == (4, 4)
    assert np.abs(chi - tomo.CHI_IDENTITY).max() < 1e-10


def test_qpt_depolarizing_channel():
    inputs = tomo.mub_qubit_states()
    outputs = [np.eye(2, dtype=complex) / 2 for _ in inputs]
    chi = tomo.qpt_linear_inversion(inputs, outputs)
    assert np.abs(chi - np.eye(4) / 4).max() < 1e-10


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
    assert np.abs(chi - oracle).max() < 1e-6
    assert abs(np.trace(chi) - 1.0) < 1e-10  # trace preserving


def test_qpt_unitary_channel_is_rank_one(rng):
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = h + h.conj().T
    from scipy.linalg import expm

    u = expm(-1j * h)
    inputs = tomo.mub_qubit_states()
    outputs = [u @ np.outer(p, p.conj()) @ u.conj().T for p in inputs]
    chi = tomo.qpt_linear_inversion(inputs, outputs)
    eig = np.sort(np.linalg.eigvalsh(chi))[::-1]
    assert eig[1] < 1e-6


def test_qpt_rank_deficient_inputs():
    inputs = tomo.mub_qubit_states()[:2]
    outputs = [np.outer(p, p.conj()) for p in inputs]
    with pytest.raises(ValueError):
        tomo.qpt_linear_inversion(inputs, outputs)
    with pytest.raises(ValueError):
        tomo.qpt_linear_inversion(inputs, outputs[:1])

