"""Qutrit state tomography (MLE) and qubit process tomography (linear inversion).

Tomography settings are ideal instantaneous pre-rotations from the nine-gate
single-qutrit set (or its 81 ordered pairs for two qutrits), followed by a
population measurement in the energy basis.  States are reconstructed with a
diluted iterative maximum-likelihood fixed point that is positive by
construction; it iterates in real arithmetic on one real view of the
conjugated measurement matrix, which serves the forward and the adjoint
product, so its iterates do not depend on the BLAS thread count.  The
process matrix is obtained by plain linear inversion in the Pauli basis and
may therefore be slightly non-positive, as reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .metrics import PAULI, PAULI_LABELS

G, E, F = 0, 1, 2


def qutrit_rotation(subspace: str, angle: float, axis: str) -> np.ndarray:
    """exp(-i angle/2 * sigma_axis) on the ge or ef block of a qutrit."""
    lo, hi = (G, E) if subspace == "ge" else (E, F)
    if axis == "x":
        sig = np.array([[0, 1], [1, 0]], dtype=complex)
    elif axis == "y":
        sig = np.array([[0, -1j], [1j, 0]], dtype=complex)
    else:
        raise ValueError(f"unknown rotation axis {axis!r}")
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    block = c * np.eye(2) - 1j * s * sig
    u = np.eye(3, dtype=complex)
    u[np.ix_([lo, hi], [lo, hi])] = block
    return u


def ef_swap() -> np.ndarray:
    """Phase-referenced pi_ef mapping pulse: the plain |e><->|f> permutation.

    A resonant pi pulse realizes this up to an ef local-oscillator phase that
    the experiment calibrates away; using the permutation makes the composed
    ideal transfer the identity channel.
    """
    u = np.eye(3, dtype=complex)
    u[np.ix_([E, F], [E, F])] = np.array([[0, 1], [1, 0]])
    return u


@dataclass(frozen=True)
class TomographySetting:
    """A named measurement-basis rotation applied before readout."""

    name: str
    unitary: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        object.__setattr__(self, "unitary", u)
        if np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() > 1e-12:
            raise ValueError(f"setting {self.name}: rotation is not unitary")


def _single_qutrit_settings():
    x90_ge = qutrit_rotation("ge", np.pi / 2, "x")
    y90_ge = qutrit_rotation("ge", np.pi / 2, "y")
    x180_ge = qutrit_rotation("ge", np.pi, "x")
    x90_ef = qutrit_rotation("ef", np.pi / 2, "x")
    y90_ef = qutrit_rotation("ef", np.pi / 2, "y")
    x180_ef = qutrit_rotation("ef", np.pi, "x")
    # composite settings apply the ge pulse first in time
    return [
        TomographySetting("id", np.eye(3, dtype=complex)),
        TomographySetting("x90_ge", x90_ge),
        TomographySetting("y90_ge", y90_ge),
        TomographySetting("x180_ge", x180_ge),
        TomographySetting("x90_ef", x90_ef),
        TomographySetting("y90_ef", y90_ef),
        TomographySetting("x180_ge.x90_ef", x90_ef @ x180_ge),
        TomographySetting("x180_ge.y90_ef", y90_ef @ x180_ge),
        TomographySetting("x180_ge.x180_ef", x180_ef @ x180_ge),
    ]


def gate_set(kind: str):
    """The 9 single-qutrit tomography settings or the 81 ordered pairs."""
    singles = _single_qutrit_settings()
    if kind == "single":
        return singles
    if kind == "pair":
        return [
            TomographySetting(f"{sa.name}|{sb.name}", np.kron(sa.unitary, sb.unitary))
            for sa in singles
            for sb in singles
        ]
    raise ValueError(f"unknown gate-set kind {kind!r}")


def _measurement_matrix(settings):
    """Born rule of a settings list as one (n_settings * d, d * d) matrix A.

    A[k d + s, i d + j] = U_si conj(U_sj) for setting k's rotation U, so
    A @ rho.reshape(-1) lists every setting's populations diag(U rho U+).
    """
    u = np.stack([s.unitary for s in settings])
    n, d, _ = u.shape
    return (u[:, :, :, None] * u.conj()[:, :, None, :]).reshape(n * d, d * d)


def born_probabilities(rho: np.ndarray, settings) -> np.ndarray:
    """Populations diag(U rho U+) after each setting's rotation U, one row each."""
    p = _measurement_matrix(settings) @ np.asarray(rho, complex).reshape(-1)
    return p.real.reshape(len(settings), -1)


def qst_mle(
    populations,
    settings,
    tol: float = 1e-10,
    max_iter: int = 5000,
):
    """Maximum-likelihood state reconstruction from per-setting populations.

    ``populations`` has shape (n_settings, d); mitigated inputs may be
    slightly unphysical and are clipped to [0, 1] for the likelihood weights.
    Iterates the diluted fixed point rho -> (I + R/2) rho (I + R/2)+, which
    preserves positivity by construction, until the log-likelihood improves
    by less than ``tol`` or ``max_iter`` is reached (then a warning reports a
    gradient norm above 1e-6 and the last estimate is returned).  Both
    products of an iteration, the populations Re(A vec rho) and the weighted
    adjoint (f/p) conj(A), use one real view of conj(A), so the iterates are
    the same whatever the BLAS thread count.  Raises ValueError if
    ``max_iter`` < 1 or the populations do not match the settings.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    freqs = np.clip(np.asarray(populations, dtype=float), 0.0, 1.0)
    d = settings[0].unitary.shape[0]
    if freqs.shape != (len(settings), d):
        raise ValueError(f"populations shape {freqs.shape} does not match settings")
    # conj(A) viewed as float64 interleaves the columns Re A and -Im A, so
    # c @ vec(rho).view(float) = Re(A vec rho) and (w @ c).view(complex) = w conj(A)
    c = _measurement_matrix(settings).conj().view(float)
    f = freqs.reshape(-1)
    f = f / f.sum() * len(settings)  # per-setting normalization

    rho = np.eye(d, dtype=complex) / d
    eye = np.eye(d)
    last_ll = -np.inf
    for _ in range(max_iter):
        p = np.maximum(c @ rho.reshape(-1).view(float), 1e-14)
        ll = float(np.dot(f, np.log(p)))
        if ll - last_ll < tol and math.isfinite(last_ll):
            break
        last_ll = ll
        r = ((f / p) @ c).view(complex).reshape(d, d) / len(settings)
        step = eye + 0.5 * r
        rho = step @ rho @ step.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    else:
        # near-rank-deficient states approach the fixed point geometrically;
        # keep the estimate and report only a genuinely unconverged residual
        grad = np.abs(r @ rho - rho @ r).max()
        if grad > 1e-6:
            warnings.warn(
                f"MLE stopped after {max_iter} iterations; gradient norm {grad:.3e}",
                stacklevel=2,
            )
    return rho


@dataclass(frozen=True)
class ProcessMatrix:
    """chi matrix of a qubit channel in the Pauli basis {I, X, Y, Z}."""

    chi: np.ndarray

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=complex)
        object.__setattr__(self, "chi", chi)
        if chi.shape != (4, 4):
            raise ValueError("chi must be 4x4")

    @property
    def identity_weight(self) -> float:
        return float(self.chi[0, 0].real)


CHI_IDENTITY = np.zeros((4, 4), dtype=complex)
CHI_IDENTITY[0, 0] = 1.0


def mub_qubit_states():
    """The six mutually unbiased qubit input states |g>, |e>, (|g>+-|e>)/sqrt2,
    (|g>+-i|e>)/sqrt2, as kets."""
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
        np.array([s, s], dtype=complex),
        np.array([s, 1j * s], dtype=complex),
        np.array([s, -s], dtype=complex),
        np.array([s, -1j * s], dtype=complex),
    ]


def qpt_linear_inversion(input_states, output_states) -> ProcessMatrix:
    """chi matrix from measured input/output pairs by least-squares inversion.

    input_states are kets or density matrices of the prepared qubit states;
    output_states the (possibly trace-deficient) measured 2x2 blocks.  The
    overdetermined linear system vec(sigma_i) = sum_mn chi_mn vec(P_m rho_i
    P_n) is solved in least squares and chi is Hermitized.
    """
    if len(input_states) != len(output_states):
        raise ValueError("need one output per input state")
    paulis = [PAULI[p] for p in PAULI_LABELS]
    rows = []
    rhs = []
    for psi, sigma in zip(input_states, output_states):
        rho = np.asarray(psi, dtype=complex)
        if rho.ndim == 1:
            rho = np.outer(rho, rho.conj())
        sigma = np.asarray(sigma, dtype=complex)
        design = np.empty((4, 16), dtype=complex)
        block = np.empty((16, 2, 2), dtype=complex)
        for m in range(4):
            for n in range(4):
                block[4 * m + n] = paulis[m] @ rho @ paulis[n]
        rows.append(block.reshape(16, 4).T)
        rhs.append(sigma.reshape(-1))
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    chi_vec, *_ = np.linalg.lstsq(a, b, rcond=None)
    rank = np.linalg.matrix_rank(a)
    if rank < 16:
        raise ValueError(f"rank-deficient design matrix (rank {rank} < 16)")
    chi = chi_vec.reshape(4, 4)
    return ProcessMatrix(0.5 * (chi + chi.conj().T))
