import numpy as np
import pytest

from photonlink import metrics
from photonlink.qops import realign
from conftest import random_density, random_pure
from oracles import trace_norm_distance


def test_shared_states_are_read_only():
    """The Pauli matrices and the Bell state, built once at import and
    read by every run of a process, refuse writes."""
    for op in (*metrics.PAULI.values(), metrics.BELL_PSI_PLUS):
        with pytest.raises(ValueError, match="read-only"):
            op.flat[0] = op.flat[0]


def test_state_fidelity_pure_state(rng):
    psi = random_pure(4, rng)
    assert metrics.state_fidelity(np.outer(psi, psi.conj()), psi) == pytest.approx(1.0)
    assert metrics.state_fidelity(np.eye(4) / 4, metrics.BELL_PSI_PLUS) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        metrics.state_fidelity(np.eye(4) / 4, 2.0 * psi)


def test_process_fidelity_limits():
    ident = np.zeros((4, 4), complex)
    ident[0, 0] = 1.0
    assert metrics.process_fidelity(ident, ident) == pytest.approx(1.0)
    depol = np.eye(4, dtype=complex) / 4
    assert metrics.process_fidelity(depol, ident) == pytest.approx(0.25)


def test_hs_distance_examples(rng):
    x = random_density(4, rng)
    assert metrics.hs_distance(x, x) == 0.0
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert metrics.hs_distance(a, b) == pytest.approx(np.sqrt(2))
    # triangle inequality on random Hermitian triples
    for _ in range(20):
        x, y, z = (random_density(4, rng) for _ in range(3))
        assert metrics.hs_distance(x, z) <= (
            metrics.hs_distance(x, y) + metrics.hs_distance(y, z) + 1e-12
        )


def test_trace_norm_distance():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_norm_distance(a, b) == pytest.approx(1.0)


def test_qubit_reduction_preserves_bell_overlap(rng):
    rho9 = random_density(9, rng)
    rho_m = metrics.qubit_reduction(rho9)
    # embed psi+ into the two-qutrit space: |ge> -> index 1, |eg> -> index 3
    psi9 = np.zeros(9, dtype=complex)
    psi9[[1, 3]] = 1 / np.sqrt(2)
    assert metrics.state_fidelity(rho_m, metrics.BELL_PSI_PLUS) == pytest.approx(
        float((psi9.conj() @ rho9 @ psi9).real), abs=1e-14
    )
    # any state supported on the qubit block is preserved exactly
    psi4 = random_pure(4, rng)
    psi9 = np.zeros(9, dtype=complex)
    psi9[[0, 1, 3, 4]] = psi4
    assert metrics.state_fidelity(rho_m, psi4) == pytest.approx(
        float((psi9.conj() @ rho9 @ psi9).real), abs=1e-14
    )


def test_qubit_reduction_trace_deficit():
    rho9 = np.zeros((9, 9), dtype=complex)
    rho9[0, 0] = 0.9
    rho9[8, 8] = 0.1  # |ff> population escapes the block
    assert np.trace(metrics.qubit_reduction(rho9)).real == pytest.approx(0.9)
    # zero f-population keeps unit trace
    rho9 = np.zeros((9, 9), dtype=complex)
    rho9[[0, 1, 3, 4], [0, 1, 3, 4]] = 0.25
    assert np.trace(metrics.qubit_reduction(rho9)).real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        metrics.qubit_reduction(np.eye(4, dtype=complex))


def test_concurrence_bell_and_product(rng):
    bell = np.outer(metrics.BELL_PSI_PLUS, metrics.BELL_PSI_PLUS.conj())
    assert metrics.concurrence(bell) == pytest.approx(1.0)
    prod = np.kron(random_density(2, rng), random_density(2, rng))
    assert metrics.concurrence(prod) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        metrics.concurrence(np.diag([1.0, 0.1, -0.1, 0.0]).astype(complex))


def test_concurrence_renormalization():
    bell = 0.9 * np.outer(metrics.BELL_PSI_PLUS, metrics.BELL_PSI_PLUS.conj())
    assert metrics.concurrence(bell) == pytest.approx(0.9)
    assert metrics.concurrence(bell, renormalize=True) == pytest.approx(1.0)


def test_concurrence_and_fidelity_invariant_under_local_phases(rng):
    rho = random_density(4, rng)
    phi = 0.731
    u = np.kron(np.diag([1, np.exp(1j * phi)]), np.diag([1, np.exp(1j * phi)]))
    rotated = u @ rho @ u.conj().T
    # equal ge-frame phases on both nodes leave |psi+> invariant
    assert metrics.state_fidelity(rotated, metrics.BELL_PSI_PLUS) == pytest.approx(
        metrics.state_fidelity(rho, metrics.BELL_PSI_PLUS), abs=1e-12
    )
    # concurrence is invariant under any local unitary
    ua = np.diag([1, np.exp(0.41j)])
    ub = np.diag([1, np.exp(-1.13j)])
    rotated = np.kron(ua, ub) @ rho @ np.kron(ua, ub).conj().T
    assert metrics.concurrence(rotated) == pytest.approx(metrics.concurrence(rho), abs=1e-12)


def test_ccnr_witness_values(rng):
    psi = np.kron(random_pure(3, rng), random_pure(3, rng))
    assert metrics.ccnr(np.outer(psi, psi.conj()), (3, 3)) == pytest.approx(1.0)
    bell = np.outer(metrics.BELL_PSI_PLUS, metrics.BELL_PSI_PLUS.conj())
    assert metrics.ccnr(bell, (2, 2)) == pytest.approx(2.0)


def test_ccnr_separable_bound(rng):
    # 100 random mixed product states: ccnr <= 1
    for _ in range(100):
        rho = np.kron(random_density(3, rng), random_density(3, rng))
        assert metrics.ccnr(rho, (3, 3)) <= 1.0 + 1e-9


def test_gell_mann_basis_structure():
    basis = metrics.gell_mann_basis()
    assert len(basis) == 9
    assert np.allclose(basis[0], np.eye(3))
    assert np.allclose(basis[8], np.diag([1.0, 1.0, -2.0]) / np.sqrt(3))
    for i in range(1, 9):
        assert abs(np.trace(basis[i])) < 1e-12
        for j in range(1, 9):
            expected = 2.0 if i == j else 0.0
            assert np.trace(basis[i] @ basis[j]) == pytest.approx(expected, abs=1e-12)


def test_operator_expectations_pauli():
    bell = np.outer(metrics.BELL_PSI_PLUS, metrics.BELL_PSI_PLUS.conj())
    table = metrics.operator_expectations(bell)
    assert table["XX"] == pytest.approx(1.0)
    assert table["YY"] == pytest.approx(1.0)
    assert table["ZZ"] == pytest.approx(-1.0)
    assert table["II"] == pytest.approx(1.0)
    assert len(table) == 16


def test_operator_expectations_gellmann(rng):
    rho = np.eye(9, dtype=complex) / 9
    table = metrics.operator_expectations(rho)
    assert len(table) == 81
    assert table["l0l0"] == pytest.approx(1.0)
    for key, value in table.items():
        if key != "l0l0":
            assert value == pytest.approx(0.0, abs=1e-12)
    # normalization on an arbitrary state: <l0 l0> = Tr rho
    rho = 0.7 * random_density(9, rng)
    assert metrics.operator_expectations(rho)["l0l0"] == pytest.approx(0.7)


def test_operator_expectations_refuse_states_of_no_basis():
    """The state's shape picks the basis; a shape of neither two qubits nor
    two qutrits is refused, a single qutrit among them."""
    for shape in ((3, 3), (2, 2), (16, 16), (4, 9), (81,), (1, 9, 9)):
        with pytest.raises(ValueError, match="state shape"):
            metrics.operator_expectations(np.zeros(shape, dtype=complex))


def test_operator_expectations_match_kron_traces(rng):
    """Every entry of both tables equals Tr((G_j (x) G_k) rho) by np.kron."""
    paulis = [metrics.PAULI[p] for p in metrics.PAULI_LABELS]
    cases = (
        (paulis, metrics.PAULI_LABELS),
        (metrics.gell_mann_basis(), metrics.GELL_MANN_LABELS),
    )
    for ops, labels in cases:
        rho = random_density(len(ops[0]) ** 2, rng)
        table = metrics.operator_expectations(rho)
        assert len(table) == len(ops) ** 2
        for gj, lj in zip(ops, labels):
            for gk, lk in zip(ops, labels):
                expected = np.trace(np.kron(gj, gk) @ rho).real
                assert abs(table[f"{lj}{lk}"] - expected) <= 1e-14, (lj, lk)


def test_bundle_from_state(rng):
    psi9 = np.zeros(9, dtype=complex)
    psi9[[1, 3]] = 1 / np.sqrt(2)
    bundle = metrics.bundle_from_state(np.outer(psi9, psi9.conj()))
    assert bundle.state_fidelity == pytest.approx(1.0)
    assert bundle.concurrence == pytest.approx(1.0)
    assert bundle.ccnr > 1.0
    assert bundle.residual_f_population == pytest.approx(0.0, abs=1e-12)
    assert len(bundle.pauli_expectations) == 15
    assert len(bundle.gellmann_expectations) == 80


def test_ccnr_uses_realign(rng):
    rho = random_density(9, rng)
    sv = np.linalg.svd(realign(rho, (3, 3)), compute_uv=False)
    assert metrics.ccnr(rho, (3, 3)) == pytest.approx(sv.sum())
