"""Qutrit state tomography (MLE) and qubit process tomography (linear inversion).

Tomography settings are ideal instantaneous pre-rotations from the nine-gate
single-qutrit set (or its 81 ordered pairs for two qutrits), followed by a
population measurement in the energy basis.  The dimension of the data picks
the gate set: a 3x3 state or (m, 9, 3) populations take the single set, a
9x9 state or (m, 81, 9) populations the pair set, and anything else is
refused.  The single set (``gate_set()``) and its factor A1 (27 x 9) of the
Born map are built once per process and shared read-only, and the pair set's
rotations are never built: the single set applies A1 once, and the pair set,
whose Born map is A1 (x) A1, applies it along each node axis of the
realigned state.  One builder, ``_born_map``, makes these products and
their adjoints on a stack of states, with the buffers they write.  Exact
populations (``born_probabilities``) are its products, the model the
diluted maximum-likelihood fixed point (positive by construction) iterates
with, in real arithmetic on one real view of conj(A1), so its iterates do
not depend on the BLAS thread count.  A stack of data sets is reconstructed
in one loop, each state stopping on its own and bit-identical to its
reconstruction alone, since every product makes the call a single state
makes.  The process matrix is obtained by plain linear inversion in the
Pauli basis and may therefore be slightly non-positive, as reported.
"""

from __future__ import annotations

import functools
import warnings

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


def _single_qutrit_settings():
    x90_ge = qutrit_rotation("ge", np.pi / 2, "x")
    y90_ge = qutrit_rotation("ge", np.pi / 2, "y")
    x180_ge = qutrit_rotation("ge", np.pi, "x")
    x90_ef = qutrit_rotation("ef", np.pi / 2, "x")
    y90_ef = qutrit_rotation("ef", np.pi / 2, "y")
    x180_ef = qutrit_rotation("ef", np.pi, "x")
    # composite settings apply the ge pulse first in time
    return {
        "id": np.eye(3, dtype=complex),
        "x90_ge": x90_ge,
        "y90_ge": y90_ge,
        "x180_ge": x180_ge,
        "x90_ef": x90_ef,
        "y90_ef": y90_ef,
        "x180_ge.x90_ef": x90_ef @ x180_ge,
        "x180_ge.y90_ef": y90_ef @ x180_ge,
        "x180_ge.x180_ef": x180_ef @ x180_ge,
    }


@functools.cache
def gate_set():
    """The 9 single-qutrit tomography settings as (names, unitaries): a tuple
    of the names and a read-only (9, 3, 3) stack of the measurement-basis
    rotations, built once per process.  The pair set's setting (a, b) is
    the rotation kron(U_a, U_b), never built: the Born map applies the
    single set's factor along each node axis."""
    settings = _single_qutrit_settings()
    names, unitaries = tuple(settings), np.stack(list(settings.values()))
    unitaries.flags.writeable = False
    return names, unitaries


def pair_names():
    """The names of the pair set's 81 settings, "a|b" for A's setting a and
    B's setting b, A's major."""
    single = gate_set()[0]
    return tuple(f"{a}|{b}" for a in single for b in single)


@functools.cache
def _born_factor():
    """The Born map of the gate sets as its single-qutrit factor.

    Returns (a1, c1, pop_order, realign): a1 is A1 (27 x 9), with
    A1[k 3 + s, i 3 + j] = U_si conj(U_sj) for setting k's rotation U of
    ``gate_set()``, so A1 @ rho.reshape(-1) lists the populations
    diag(U rho U+); c1 = conj(A1) viewed as float64 (27 x 18); pop_order sends
    the pair set's populations, rows (k_a k_b) and outcomes (s_a s_b), to
    the (k_a s_a, k_b s_b) order of A1 (x) A1 (27 x 27 indices); realign
    sends rho[(i_a i_b), (j_a j_b)] to X[(i_a j_a), (i_b j_b)] and, being a
    swap of two indices, back (9 x 9 indices into the flat matrix).
    """
    u = gate_set()[1]
    a1 = (u[:, :, :, None] * u.conj()[:, :, None, :]).reshape(27, 9)
    c1 = a1.conj().view(float)
    pop_order = np.arange(729).reshape(9, 9, 3, 3).transpose(0, 2, 1, 3).reshape(27, 27)
    realign = np.arange(81).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    for shared in (a1, c1, pop_order, realign):
        shared.flags.writeable = False
    return a1, c1, pop_order, realign


def _born_map(k, d):
    """The Born map of the gate set of d on a stack of k states, with its
    buffers: (rho, p, born, adjoint).  born() writes Re(A vec rho) of the
    (k, d, d) states rho into p, (k, 27, 1) for one qutrit and (k, 27, 27)
    in the order of ``pop_order`` for two; adjoint(w) returns conj(A)^T w,
    w shaped as p, as (k, d, d) matrices.  c1 @ x.view(float) = Re(A1 x)
    and (w @ c1).view(complex) = w conj(A1); two qutrits apply them along
    each node axis of the realigned states X, as Re(A1 X A1^T) and
    conj(A1)^T W conj(A1), indexing the flat stack at precomputed positions.
    """
    a1, c1, _, realign = _born_factor()
    rho = np.empty((k, d, d), complex)
    if d == 3:
        x, p = rho.reshape(k, 9).view(float)[:, :, None], np.empty((k, 27, 1))
        z = np.empty((k, 1, 18))
        z_rho = z.view(complex).reshape(k, 3, 3)

        def born():
            np.matmul(c1, x, out=p)

        def adjoint(w):
            np.matmul(w.reshape(k, 1, 27), c1, out=z)
            return z_rho

        return rho, p, born, adjoint
    p, y = np.empty((k, 27, 27)), np.empty((k, 27, 9), complex)
    y_real, c1_t, a1_conj_t = y.view(float), c1.T, c1.view(complex).T
    rho_flat, flat_realign = rho.reshape(-1), (81 * np.arange(k))[:, None, None] + realign
    z, r = np.empty((k, 27, 18)), np.empty((k, 9, 9), complex)
    z_c, r_flat = z.view(complex), r.reshape(-1)

    def born():
        np.matmul(a1, rho_flat[flat_realign], out=y)
        np.matmul(y_real, c1_t, out=p)

    def adjoint(w):
        np.matmul(w, c1, out=z)
        np.matmul(a1_conj_t, z_c, out=r)
        return r_flat[flat_realign]

    return rho, p, born, adjoint


def born_probabilities(rho: np.ndarray) -> np.ndarray:
    """Populations diag(U rho U+) after each rotation U of the gate set of
    ``rho``'s dimension (9 settings for a 3x3 state, 81 for a 9x9 one), one
    row per setting: the MLE's own model of exact data, bit for bit.
    Raises ValueError for any other shape."""
    rho = np.asarray(rho, complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or len(rho) not in (3, 9):
        raise ValueError(f"state shape {rho.shape} is not 3x3 (one qutrit) or 9x9 (two)")
    states, p, born, _ = _born_map(1, len(rho))
    states[0] = rho
    born()
    if len(rho) == 3:
        return p.reshape(9, 3)
    out = np.empty((81, 9))
    out.reshape(-1)[_born_factor()[2]] = p[0]
    return out


# the MLE's stop rule: a state stops once its log-likelihood improves by
# less than MLE_TOL, or after MLE_MAX_ITER iterations with a warning
MLE_TOL = 1e-10
MLE_MAX_ITER = 5000


def qst_mle(populations):
    """Maximum-likelihood reconstruction of a stack of states from their
    per-setting populations.

    ``populations`` is a stack of m data sets, each one row of d outcomes
    per setting of the gate set of d: (m, 9, 3) for the single set or
    (m, 81, 9) for the pair set; it returns the (m, d, d) stack of states.
    Mitigated inputs may be slightly unphysical and are clipped to [0, 1]
    for the likelihood weights.  Iterates the diluted fixed point
    rho -> (I + R/2) rho (I + R/2)+, which preserves positivity by
    construction, until the log-likelihood improves by less than ``MLE_TOL``
    or ``MLE_MAX_ITER`` iterations are reached (then a warning names each
    state whose gradient norm is above 1e-6 and its last estimate is
    returned).  Every state of a stack stops by this rule on its own and
    leaves the stack there, so it equals its reconstruction in a stack of
    one.
    The populations Re(A vec rho) and the weighted adjoint (f/p) conj(A)
    are the products of ``_born_map``.  Every product is a broadcast matmul
    that makes one BLAS call per state, the call a single state makes, and
    the likelihood f . log p is one dot product per state, so the iterates
    are the same whatever the stack and the BLAS thread count.  The loop
    writes into buffers made once per stack size.  Raises ValueError if the
    populations are empty or their shape is not one of those above.
    """
    freqs = np.clip(np.asarray(populations, dtype=float), 0.0, 1.0)
    if freqs.ndim != 3 or freqs.shape[1:] not in ((9, 3), (81, 9)) or not freqs.size:
        raise ValueError(
            f"populations shape {freqs.shape} is not (m, 9, 3) or (m, 81, 9), "
            "a stack of data sets of one row per setting of a gate set"
        )
    n, d = freqs.shape[1:]
    pop_order = _born_factor()[2]
    # each data set scaled as a whole to sum to n, the number of settings
    f = np.stack([row / row.sum() * n for row in freqs.reshape(-1, n * d)])
    if d == 9:
        # C order: a strided row would take another BLAS dot product
        f = np.ascontiguousarray(f[:, pop_order.reshape(-1)])

    def workspace(k):
        """A k-state stack's Born map (``_born_map``) with a view of the
        states' diagonals, a buffer for log p and the likelihoods."""
        rho, p, born, adjoint = _born_map(k, d)
        logp, ll = np.empty_like(p), np.empty(k)
        diag = rho.reshape(k, 1, -1)[:, :, :: d + 1]
        return rho, diag, p, logp, logp.reshape(k, -1, 1), ll, ll.reshape(k, 1, 1), born, adjoint

    m = len(f)
    out = np.empty((m, d, d), dtype=complex)
    active = np.arange(m)
    rho, diag, p, logp, logp_col, ll, ll_out, born, adjoint = workspace(m)
    f_col, f_row = f.reshape(p.shape), f.reshape(m, 1, -1)
    rho[:] = np.eye(d, dtype=complex) / d
    eye = np.eye(d)
    scale = 2.0 * n
    last_ll = [-np.inf] * m
    for _ in range(MLE_MAX_ITER):
        born()
        np.maximum(p, 1e-14, out=p)
        np.log(p, out=logp)
        np.matmul(f_row, logp_col, out=ll_out)
        lls = ll.tolist()
        stop = [now - last < MLE_TOL for now, last in zip(lls, last_ll)]
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
                warnings.warn(
                    f"MLE stopped after {MLE_MAX_ITER} iterations on state {i}; "
                    f"gradient norm {grad:.3e}",
                    stacklevel=2,
                )
    return out


CHI_IDENTITY = np.zeros((4, 4), dtype=complex)
CHI_IDENTITY[0, 0] = 1.0
CHI_IDENTITY.flags.writeable = False


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


def qpt_linear_inversion(input_states, output_states) -> np.ndarray:
    """The (4, 4) chi matrix of a qubit channel in the Pauli basis {I, X, Y,
    Z}, from measured input/output pairs by least-squares inversion.

    input_states are the kets of the prepared qubit states, such as
    :func:`mub_qubit_states`; output_states the (possibly trace-deficient)
    measured 2x2 blocks.  The overdetermined linear system vec(sigma_i) =
    sum_mn chi_mn vec(P_m rho_i P_n), rho_i = |psi_i><psi_i|, is solved in
    least squares and chi is Hermitized.
    """
    if len(input_states) != len(output_states):
        raise ValueError("need one output per input state")
    paulis = [PAULI[p] for p in PAULI_LABELS]
    rows = []
    rhs = []
    for psi, sigma in zip(input_states, output_states):
        rho = np.outer(psi, np.conj(psi))
        sigma = np.asarray(sigma, dtype=complex)
        block = np.empty((16, 2, 2), dtype=complex)
        for m in range(4):
            for n in range(4):
                block[4 * m + n] = paulis[m] @ rho @ paulis[n]
        rows.append(block.reshape(16, 4).T)
        rhs.append(sigma.reshape(-1))
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    # lstsq's rank uses matrix_rank's threshold, eps max(M, N) s_max
    chi_vec, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 16:
        raise ValueError(f"rank-deficient design matrix (rank {rank} < 16)")
    chi = chi_vec.reshape(4, 4)
    return 0.5 * (chi + chi.conj().T)
