import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from photonlink import tomography as tomo
from photonlink.metrics import PAULI, PAULI_LABELS, trace_norm_distance
from conftest import random_density, random_pure


def kraus_to_chi(kraus_ops):
    """Closed-form chi matrix of a channel given by Kraus operators."""
    paulis = np.stack([PAULI[p] for p in PAULI_LABELS])
    chi = np.zeros((4, 4), dtype=complex)
    for k in kraus_ops:
        c = np.einsum("mij,ji->m", paulis.conj().transpose(0, 2, 1), np.asarray(k, complex)) / 2.0
        chi += np.outer(c, c.conj())
    return tomo.ProcessMatrix(chi)


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


def test_born_probabilities_basics(rng):
    settings = tomo.gate_set("single")
    rho_g = np.diag([1.0, 0, 0]).astype(complex)
    assert np.allclose(tomo.born_probabilities(rho_g, settings)[0], [1, 0, 0])
    # |e> after a ge pi pulse reads out as g
    rho_e = np.diag([0, 1.0, 0]).astype(complex)
    assert settings[3].name == "x180_ge"
    assert tomo.born_probabilities(rho_e, settings)[3, 0] == pytest.approx(1.0)
    rho = random_density(3, rng)
    p = tomo.born_probabilities(rho, settings)
    assert p.shape == (9, 3)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > -1e-12)
    for row, setting in zip(p, settings):
        u = setting.unitary
        assert np.abs(row - np.diag(u @ rho @ u.conj().T).real).max() < 1e-14


def test_ef_swap_is_permutation():
    u = tomo.ef_swap()
    assert np.abs(u @ u - np.eye(3)).max() < 1e-12
    assert np.allclose(u @ np.array([0, 0, 1.0]), [0, 1.0, 0])


def test_mle_round_trip_pure_qutrit(rng):
    settings = tomo.gate_set("single")
    psi = random_pure(3, rng)
    rho = np.outer(psi, psi.conj())
    pops = tomo.born_probabilities(rho, settings)
    # boundary states approach the fixed point at ~1/iterations; the default
    # budget reaches 2e-4, a larger one the example's 1e-4
    rec = tomo.qst_mle(pops, settings, tol=1e-13, max_iter=20000)
    assert trace_norm_distance(rec, rho) < 1e-4
    assert np.linalg.eigvalsh(rec).min() > -1e-10
    assert np.trace(rec).real == pytest.approx(1.0, abs=1e-10)


def test_mle_maximally_mixed(rng):
    settings = tomo.gate_set("single")
    pops = tomo.born_probabilities(np.eye(3, dtype=complex) / 3, settings)
    assert np.abs(tomo.qst_mle(pops, settings) - np.eye(3) / 3).max() < 1e-12
    pairs = tomo.gate_set("pair")
    pops9 = tomo.born_probabilities(np.eye(9, dtype=complex) / 9, pairs)
    assert np.abs(tomo.qst_mle(pops9, pairs) - np.eye(9) / 9).max() < 1e-12


def test_mle_round_trip_two_qutrit_mixed(rng):
    settings = tomo.gate_set("pair")
    rho = random_density(9, rng)
    pops = tomo.born_probabilities(rho, settings)
    rec = tomo.qst_mle(pops, settings)
    assert np.sqrt(np.abs(np.trace((rec - rho) @ (rec - rho)))) < 1e-3
    # rank-deficient states converge more slowly but stay usable
    rho = random_density(9, rng, rank=4)
    pops = tomo.born_probabilities(rho, settings)
    rec = tomo.qst_mle(pops, settings)
    assert np.sqrt(np.abs(np.trace((rec - rho) @ (rec - rho)))) < 5e-3


def test_mle_round_trip_random_mixed_states(rng):
    settings = tomo.gate_set("single")
    for _ in range(5):
        rho = random_density(3, rng)
        pops = tomo.born_probabilities(rho, settings)
        rec = tomo.qst_mle(pops, settings)
        assert trace_norm_distance(rec, rho) < 1e-3


def test_mle_shape_validation():
    settings = tomo.gate_set("single")
    with pytest.raises(ValueError):
        tomo.qst_mle(np.zeros((4, 3)), settings)


def test_mle_rejects_max_iter_below_one():
    settings = tomo.gate_set("single")
    pops = tomo.born_probabilities(np.eye(3) / 3, settings)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            tomo.qst_mle(pops, settings, max_iter=max_iter)


def test_mle_does_not_depend_on_the_blas_thread_count():
    """The exact 81-setting populations of the recorded entangled state give
    a byte-identical reconstruction with one and with two BLAS threads."""
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from photonlink import tomography as tomo\n"
        "ref = json.load(open(sys.argv[1]))['rho9_direct']\n"
        "rho = np.asarray(ref['re']) + 1j * np.asarray(ref['im'])\n"
        "pairs = tomo.gate_set('pair')\n"
        "rec = tomo.qst_mle(tomo.born_probabilities(rho, pairs), pairs)\n"
        "sys.stdout.write(rec.tobytes().hex())\n"
    )
    reference = Path(__file__).parent / "link_reference.json"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", code, str(reference)],
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
