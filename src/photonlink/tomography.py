"""Qutrit state tomography (MLE) and qubit process tomography (linear inversion).

Tomography settings are ideal instantaneous pre-rotations from the nine-gate
single-qutrit set (or its 81 ordered pairs for two qutrits), followed by a
population measurement in the energy basis.  The dimension of the data
picks the gate set: a 3x3 state or (9, 3) populations take the single set,
a 9x9 state or (81, 9) populations the pair set, and anything else is
refused.  Each gate set and its dense Born matrix are built once per
process and shared read-only.  States are reconstructed with a diluted
iterative maximum-likelihood fixed point that is positive by construction.
The reconstruction holds the Born map as its single-qutrit factor A1
(27 x 9): the single set applies A1 once, and the pair set, whose Born map
is A1 (x) A1, applies it along each node axis of the realigned state.
Both products of an iteration run in real arithmetic on one real view of
conj(A1), so the iterates do not depend on the BLAS thread count.  A stack
of data sets is reconstructed in one loop, each state stopping on its own
and bit-identical to its reconstruction alone, since every product makes
the call a single state makes.  The process matrix is obtained by plain
linear inversion in the Pauli basis and may therefore be slightly
non-positive, as reported.
"""

from __future__ import annotations

import functools
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
        # a private read-only copy: gate sets are shared between callers
        u = np.array(self.unitary, dtype=complex)
        u.flags.writeable = False
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


@functools.cache
def gate_set(kind: str):
    """The 9 single-qutrit tomography settings or the 81 ordered pairs (A's
    setting major), as a tuple built once per process."""
    if kind == "single":
        return tuple(_single_qutrit_settings())
    if kind == "pair":
        singles = gate_set("single")
        return tuple(
            TomographySetting(f"{sa.name}|{sb.name}", np.kron(sa.unitary, sb.unitary))
            for sa in singles
            for sb in singles
        )
    raise ValueError(f"unknown gate-set kind {kind!r}")


# the gate set a state is measured with, by its dimension: one qutrit or two
_GATE_SET_OF_DIM = {3: "single", 9: "pair"}


@functools.cache
def _born_matrix(kind: str):
    """Born rule of ``gate_set(kind)`` as one read-only (n_settings * d, d * d)
    matrix A, built once per process.

    A[k d + s, i d + j] = U_si conj(U_sj) for setting k's rotation U, so
    A @ rho.reshape(-1) lists every setting's populations diag(U rho U+).
    """
    u = np.stack([s.unitary for s in gate_set(kind)])
    n, d, _ = u.shape
    a = (u[:, :, :, None] * u.conj()[:, :, None, :]).reshape(n * d, d * d)
    a.flags.writeable = False
    return a


def born_probabilities(rho: np.ndarray) -> np.ndarray:
    """Populations diag(U rho U+) after each rotation U of the gate set of
    ``rho``'s dimension (9 settings for a 3x3 state, 81 for a 9x9 one), one
    row per setting.  Raises ValueError for any other shape."""
    rho = np.asarray(rho, complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or len(rho) not in _GATE_SET_OF_DIM:
        raise ValueError(f"state shape {rho.shape} is not 3x3 (one qutrit) or 9x9 (two)")
    p = _born_matrix(_GATE_SET_OF_DIM[len(rho)]) @ rho.reshape(-1)
    return p.real.reshape(-1, len(rho))


@functools.cache
def _born_factor():
    """The Born map of the gate sets, in the pieces the MLE applies.

    Returns (a1, c1, pop_order, realign): a1 is the single-qutrit
    measurement matrix A1 (27 x 9); c1 = conj(A1) viewed as float64 (27 x 18);
    pop_order sends the pair set's populations, rows (k_a k_b) and outcomes
    (s_a s_b), to the (k_a s_a, k_b s_b) order of A1 (x) A1 (27 x 27 indices);
    realign sends rho[(i_a i_b), (j_a j_b)] to X[(i_a j_a), (i_b j_b)] and,
    being a swap of two indices, back (9 x 9 indices into the flat matrix).
    """
    a1 = _born_matrix("single")
    c1 = a1.conj().view(float)
    pop_order = np.arange(729).reshape(9, 9, 3, 3).transpose(0, 2, 1, 3).reshape(27, 27)
    realign = np.arange(81).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    for shared in (c1, pop_order, realign):
        shared.flags.writeable = False
    return a1, c1, pop_order, realign


def qst_mle(populations, tol: float = 1e-10, max_iter: int = 5000):
    """Maximum-likelihood state reconstruction from per-setting populations.

    ``populations`` holds one row of d outcomes per setting of the gate set
    of d, (9, 3) for ``gate_set("single")`` and (81, 9) for
    ``gate_set("pair")``, or (m, 9, 3) and (m, 81, 9) for a stack of m data
    sets, which returns an (m, d, d) stack of states; mitigated inputs may
    be slightly unphysical and are clipped to [0, 1] for the likelihood
    weights.  Iterates the diluted fixed point rho -> (I + R/2) rho
    (I + R/2)+, which preserves positivity by construction, until the
    log-likelihood improves by less than ``tol`` or ``max_iter`` is reached
    (then a warning reports a gradient norm above 1e-6 and the last
    estimate is returned).  Every state of a stack stops by this rule on
    its own, leaves the stack there and gets its own warning, so it equals
    its reconstruction on its own.
    The populations Re(A vec rho) and the weighted adjoint (f/p) conj(A) use
    one real view c1 of conj(A1), the single-qutrit factor of A: once for
    one qutrit, and for two along each node axis of the realigned state X,
    as Re(A1 X A1^T) and conj(A1)^T W conj(A1).  Every product is a
    broadcast matmul that makes one BLAS call per state, the call a single
    state makes, and the likelihood f . log p is one dot product per state,
    so the iterates are the same whatever the stack and the BLAS thread
    count.  The loop writes into buffers made once per stack size.  Raises
    ValueError if ``max_iter`` < 1, or if the populations are empty or
    their shape is not one of those above.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    freqs = np.clip(np.asarray(populations, dtype=float), 0.0, 1.0)
    if freqs.ndim not in (2, 3) or freqs.shape[-2:] not in ((9, 3), (81, 9)) or not freqs.size:
        raise ValueError(
            f"populations shape {freqs.shape} is not (9, 3) or (81, 9), "
            "one row per setting of a gate set, or a stack of them"
        )
    n, d = freqs.shape[-2:]
    stacked = freqs.ndim == 3
    a1, c1, pop_order, realign = _born_factor()
    c1_t, a1_conj_t = c1.T, c1.view(complex).T
    # per-setting normalization of each data set
    f = np.stack([row / row.sum() * n for row in freqs.reshape(-1, n * d)])
    if d == 9:
        # C order: a strided row would take another BLAS dot product
        f = np.ascontiguousarray(f[:, pop_order.reshape(-1)])
    pop_shape = (27, 1) if d == 3 else (27, 27)

    def workspace(k):
        """Buffers of a k-state stack: the states and a view of their
        diagonals, the populations p and log p, the likelihoods, and the
        Born map and its adjoint, which write through further buffers."""
        rho = np.empty((k, d, d), complex)
        p, logp = np.empty((k, *pop_shape)), np.empty((k, *pop_shape))
        ll = np.empty(k)
        # c1 interleaves the columns Re A1 and -Im A1, so c1 @ x.view(float)
        # = Re(A1 x) and (w @ c1).view(complex) = w conj(A1)
        if d == 3:
            x = rho.reshape(k, 9).view(float)[:, :, None]
            z = np.empty((k, 1, 18))
            z_rho = z.view(complex).reshape(k, 3, 3)

            def born():
                np.matmul(c1, x, out=p)

            def adjoint(w):
                np.matmul(w.reshape(k, 1, 27), c1, out=z)
                return z_rho
        else:
            # the realignment indexes the flat stack at precomputed positions
            rho_flat, flat_realign = rho.reshape(-1), (81 * np.arange(k))[:, None, None] + realign
            y, z, r = np.empty((k, 27, 9), complex), np.empty((k, 27, 18)), np.empty((k, 9, 9), complex)
            y_f, z_c, r_flat = y.view(float), z.view(complex), r.reshape(-1)

            def born():
                np.matmul(a1, rho_flat[flat_realign], out=y)
                np.matmul(y_f, c1_t, out=p)

            def adjoint(w):
                np.matmul(w, c1, out=z)
                np.matmul(a1_conj_t, z_c, out=r)
                return r_flat[flat_realign]

        diag = rho.reshape(k, 1, -1)[:, :, :: d + 1]
        return rho, diag, p, logp, logp.reshape(k, -1, 1), ll, ll.reshape(k, 1, 1), born, adjoint

    m = len(f)
    f_col, f_row = f.reshape(m, *pop_shape), f.reshape(m, 1, -1)
    out = np.empty((m, d, d), dtype=complex)
    active = np.arange(m)
    rho, diag, p, logp, logp_col, ll, ll_out, born, adjoint = workspace(m)
    rho[:] = np.eye(d, dtype=complex) / d
    eye = np.eye(d)
    scale = 2.0 * n
    last_ll = [-np.inf] * m
    for _ in range(max_iter):
        born()
        np.maximum(p, 1e-14, out=p)
        np.log(p, out=logp)
        np.matmul(f_row, logp_col, out=ll_out)
        lls = ll.tolist()
        stop = [now - last < tol for now, last in zip(lls, last_ll)]
        if True in stop:
            # a state that stops leaves the stack
            keep = ~np.array(stop)
            out[active[~keep]] = rho[~keep]
            if not keep.any():
                break
            active, f_col, f_row = active[keep], f_col[keep], f_row[keep]
            lls = [now for now, halt in zip(lls, stop) if not halt]
            kept = p[keep], rho[keep]
            rho, diag, p, logp, logp_col, ll, ll_out, born, adjoint = workspace(len(active))
            p[:], rho[:] = kept
        last_ll = lls
        half_r = adjoint(f_col / p)
        half_r /= scale
        step = eye + half_r
        new = step @ rho @ step.conj().mT
        np.add(new, new.conj().mT, out=rho)
        rho /= np.add.reduce(diag, axis=2, keepdims=True).real
    else:
        out[active] = rho
        grads = 2.0 * np.abs(half_r @ rho - rho @ half_r).max(axis=(1, 2))
        for i, grad in zip(active, grads):
            if grad > 1e-6:
                where = f" on state {i}" if stacked else ""
                warnings.warn(
                    f"MLE stopped after {max_iter} iterations{where}; gradient norm {grad:.3e}",
                    stacklevel=2,
                )
    return out if stacked else out[0]


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
