"""State/process fidelities, entanglement measures and expectation tables.

An expectation table <G_j (x) G_k> is one contraction of the state with
the stacked single-node basis its dimension picks (Paulis for two qubits,
Gell-Mann matrices for two qutrits), built once per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qops import realign

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_LABELS = ("I", "X", "Y", "Z")

# Bell state (|eg> + |ge>)/sqrt(2) on the two-qubit {g,e} block, A-major order
BELL_PSI_PLUS = np.zeros(4, dtype=complex)
BELL_PSI_PLUS[[1, 2]] = 1.0 / np.sqrt(2.0)
# built once, at import, and shared read-only
for _op in (*PAULI.values(), BELL_PSI_PLUS):
    _op.flags.writeable = False


def gell_mann_basis():
    """Qutrit operator basis in the device's labelling.

    lambda_0 is the identity; lambda_1..3 the ge-subspace Paulis x, y, z;
    lambda_4,5 the gf pair x, y; lambda_6,7 the ef pair x, y; lambda_8 the
    diagonal (sigma_z^ge + 2 sigma_z^ef)/sqrt(3).
    """
    def sx(i, j):
        m = np.zeros((3, 3), dtype=complex)
        m[i, j] = m[j, i] = 1.0
        return m

    def sy(i, j):
        m = np.zeros((3, 3), dtype=complex)
        m[i, j] = -1j
        m[j, i] = 1j
        return m

    def sz(i, j):
        m = np.zeros((3, 3), dtype=complex)
        m[i, i] = 1.0
        m[j, j] = -1.0
        return m

    lam8 = (sz(0, 1) + 2.0 * sz(1, 2)) / np.sqrt(3.0)
    return [
        np.eye(3, dtype=complex),
        sx(0, 1), sy(0, 1), sz(0, 1),
        sx(0, 2), sy(0, 2),
        sx(1, 2), sy(1, 2),
        lam8,
    ]


GELL_MANN_LABELS = tuple(f"l{k}" for k in range(9))


def state_fidelity(rho: np.ndarray, target_psi: np.ndarray) -> float:
    """<psi|rho|psi> against a pure target state."""
    psi = np.asarray(target_psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("target state must be normalized")
    val = psi.conj() @ np.asarray(rho, complex) @ psi
    return float(val.real)


def process_fidelity(chi: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Tr(chi chi_ideal); real part reported."""
    return float(np.trace(np.asarray(chi) @ np.asarray(chi_ideal)).real)


def hs_distance(x: np.ndarray, y: np.ndarray) -> float:
    """sqrt(Tr[(X-Y)^2]) for Hermitian inputs (Hilbert-Schmidt norm)."""
    d = np.asarray(x, complex) - np.asarray(y, complex)
    return float(np.sqrt(max(np.trace(d @ d).real, 0.0)))


def qubit_reduction(rho9: np.ndarray) -> np.ndarray:
    """Two-qubit block of a two-qutrit state on span{gg, ge, eg, ee}.

    The trace of the result falls short of one by the residual f-level
    population; <psi|rho_m|psi> is preserved exactly for every |psi> in the
    qubit block, so Bell-state fidelities are unchanged by the reduction.
    """
    rho9 = np.asarray(rho9, dtype=complex)
    if rho9.shape != (9, 9):
        raise ValueError("expected a 9x9 two-qutrit state")
    idx = np.array([0, 1, 3, 4])  # gg, ge, eg, ee with B varying fastest
    return rho9[np.ix_(idx, idx)]


def concurrence(rho_m: np.ndarray, renormalize=False) -> float:
    """Wootters concurrence of a two-qubit matrix.

    Accepts a trace-deficient matrix and, by default, evaluates it without
    renormalization (a conservative estimate for reduced blocks); pass
    ``renormalize=True`` to rescale to unit trace first.
    """
    rho = np.asarray(rho_m, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("concurrence is defined for two-qubit states")
    lo = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if lo < -1e-8:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    if renormalize:
        rho = rho / np.trace(rho).real
    yy = np.kron(PAULI["Y"], PAULI["Y"])
    m = rho @ yy @ rho.conj() @ yy
    lam = np.sort(np.abs(np.linalg.eigvals(m).real))[::-1]
    lam = np.sqrt(np.clip(lam, 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def ccnr(rho: np.ndarray, dims) -> float:
    """Sum of operator-Schmidt coefficients; > 1 witnesses entanglement."""
    return float(np.linalg.svd(realign(rho, dims), compute_uv=False).sum())


@functools.cache
def _product_basis(d: int):
    """Labels and the stacked single-node basis of d-level nodes (Paulis for
    d = 2, Gell-Mann matrices for d = 3), transposed and flattened: row j
    holds G_j[a, c] at column c * d + a."""
    if d == 2:
        ops, labels = [PAULI[p] for p in PAULI_LABELS], PAULI_LABELS
    else:
        ops, labels = gell_mann_basis(), GELL_MANN_LABELS
    g = np.stack(ops).transpose(0, 2, 1).reshape(len(ops), d * d)
    g.flags.writeable = False
    return labels, g


def operator_expectations(rho: np.ndarray):
    """Expectation table <G_j (x) G_k> over the product operator basis of
    ``rho``'s dimension.

    A 4x4 (two-qubit) state uses the Paulis (labels like 'XY'), a 9x9
    (two-qutrit) state the qutrit basis of :func:`gell_mann_basis` (labels
    'l3l5'); any other shape raises ValueError.  Tr((G_j (x) G_k) rho)
    = sum G_j[a, c] G_k[b, e] rho[(c e), (a b)], so the table is g R g^T
    with g the flattened transposed basis and R = realign(rho),
    R[(c a), (e b)] = rho[(c e), (a b)].  Values are real up to numerical
    noise for Hermitian generators.
    """
    rho = np.asarray(rho, dtype=complex)
    d = {(4, 4): 2, (9, 9): 3}.get(rho.shape)
    if d is None:
        raise ValueError(f"state shape {rho.shape} is not 4x4 (two qubits) or 9x9 (two qutrits)")
    labels, g = _product_basis(d)
    table = (g @ realign(rho, (d, d)) @ g.T).real
    return {
        f"{lj}{lk}": float(table[j, k])
        for j, lj in enumerate(labels)
        for k, lk in enumerate(labels)
    }


@dataclass
class MetricsBundle:
    """Headline metrics of an entanglement run."""

    state_fidelity: float
    concurrence: float
    concurrence_renormalized: float
    ccnr: float
    residual_f_population: float
    qubit_block_trace: float
    hs_distance: float | None = None
    pauli_expectations: dict | None = None
    gellmann_expectations: dict | None = None


def bundle_from_state(rho9: np.ndarray) -> MetricsBundle:
    """Evaluate the full metrics bundle on a two-qutrit density matrix."""
    rho_m = qubit_reduction(rho9)
    tr_m = float(np.trace(rho_m).real)
    return MetricsBundle(
        state_fidelity=state_fidelity(rho_m, BELL_PSI_PLUS),
        concurrence=concurrence(rho_m),
        concurrence_renormalized=concurrence(rho_m, renormalize=True),
        ccnr=ccnr(rho9, (3, 3)),
        residual_f_population=1.0 - tr_m,
        qubit_block_trace=tr_m,
        pauli_expectations={k: v for k, v in operator_expectations(rho_m).items() if k != "II"},
        gellmann_expectations={k: v for k, v in operator_expectations(rho9).items() if k != "l0l0"},
    )
