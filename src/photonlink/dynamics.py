"""Master-equation integration and field observables for the cascaded link.

The integrator has one call form: a batch, a list of (H, jumps, inputs,
expect) groups on one time grid.  Each group holds the Hamiltonian as a
TimeDependentOperator, whose grid is the integration grid, and a stack of
initial states (DensityMatrix) that share it and the jump operators; one
problem is a batch of one group.  The master equation is linear, so one RK4
loop carries every input of every group: the states are the columns of one
(G R^2, m) array.  Only the block of basis states a group's inputs can reach
is integrated: the union of their supports closed under the nonzero patterns
of H, the drive terms, the jump operators L_k and L_k+L_k.  The master
equation maps that block into itself whatever the operators are, and a union
of invariant blocks is invariant, so the restriction is exact; a single
excitation on the link reaches at most 7 of the 36 states of the two-node
model.  The static part of H and its drive terms, one per driven node, must
be Hermitian and the drive samples real; the integrator checks both before
it builds the generator.  On the block each Liouvillian is built densely
with numpy (``np.kron``, about R^4 entries for an R-state block while it is
built) and converted to CSR at once; they are stacked as [L_0 S_1 ... S_n],
each block-diagonal over the groups, which acts on the row-major vectorized
density matrices and their copies weighted by each group's real drive
coefficients as one sparse product per stage.  Every row keeps its nonzeros
in the order of its group alone, so a batch is bit-identical to its groups
integrated one by one.  Propagation is fixed-step Runge-Kutta
(deterministic, which keeps golden tests exact), and the drives are sampled
at the grid points and at the half steps between them, where the middle
stages evaluate H, so the scheme is fourth order.  Every state is
re-symmetrized after every step and its trace checked against its own
initial trace.  The trace, the level populations and the expectation values
are linear in the state, so every grid point records them for all inputs of
a group by one product with its readout matrix; outputs are zero-padded back
to the full dimensions.  Integrals over the recorded series use Simpson's
rule, which matches the fourth order of the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .pulse import DriveEnvelope
from .qops import DensityMatrix

G, E, F = 0, 1, 2


# largest trace drift an integration may accumulate before it is aborted
_TRACE_TOL = 1e-6
# largest |O - O+| entry of a Hamiltonian part accepted as Hermitian
_HERMITIAN_TOL = 1e-12


class TraceDriftError(RuntimeError):
    """Integration became unstable: the state trace left its target.

    ``run`` is the index of the failing problem in its batch; the message
    names it before ``detail``.
    """

    def __init__(self, detail, run):
        super().__init__(f"run {run}: {detail}")
        self.detail, self.run = detail, run


@dataclass
class Trajectory:
    """Time-resolved populations and field moments of a protocol run.

    pops_* columns are (P_g, P_e, P_f).  a_mean_out/flux_out hold <L> and
    <L+L> of the field L downstream of node B once filled in by
    :func:`output_observables`; expect carries any additional requested
    operator expectations.  dim is the number of basis states integrated (the
    union block of every input integrated with this one) and trace_drift the
    largest |Tr rho(t) - Tr rho0| of this input (both None when the
    trajectory did not come from :func:`integrate_me`).
    """

    t: np.ndarray
    pops: list                      # one (nt, 3) array per qutrit slot
    expect: dict = field(default_factory=dict)
    a_mean_out: np.ndarray | None = None
    flux_out: np.ndarray | None = None
    states: list = field(default_factory=list)   # optional (t, rho) snapshots
    dim: int | None = None
    trace_drift: float | None = None

    @property
    def pops_A(self):
        return self.pops[0]

    @property
    def pops_B(self):
        return self.pops[1]

    @property
    def photon_integral(self):
        """Emitted photon number: the output flux <L+L> integrated over t."""
        if self.flux_out is None:
            raise ValueError("output field not recorded for this trajectory")
        return _simpson(self.flux_out, self.t)

    @property
    def mean_field_power(self):
        """Coherent part of the emitted photon: |<L>|^2 integrated over t."""
        if self.a_mean_out is None:
            raise ValueError("output field not recorded for this trajectory")
        return _simpson(np.abs(self.a_mean_out) ** 2, self.t)


def _simpson(y, t):
    """Integral of the samples ``y`` over the uniform grid ``t``.

    Composite Simpson's rule; an odd interval count takes Simpson's 3/8 rule
    on the last three intervals, and a single interval the trapezoid.
    """
    n = len(t) - 1
    h = (t[-1] - t[0]) / n
    if n == 1:
        return float(0.5 * h * (y[0] + y[1]))
    m = n - 3 * (n % 2)     # intervals covered by Simpson's rule proper
    total = 0.0
    if m:
        total = h / 3.0 * (y[0] + 4.0 * y[1:m:2].sum() + 2.0 * y[2:m:2].sum() + y[m])
    if n % 2:
        total += 3.0 * h / 8.0 * (y[m] + 3.0 * (y[m + 1] + y[m + 2]) + y[m + 3])
    return float(total)


def _liouvillian(h, jumps=()):
    """Row-major Liouville matrix of rho -> -i[h, rho] + sum_k D[L_k] rho."""
    eye = np.eye(h.shape[0])
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in jumps:
        ldl = op.conj().T @ op
        out += np.kron(op, op.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return out


def _reachable(rhos, ops):
    """Ascending indices of the basis states reachable from the union of the
    supports of ``rhos`` under the nonzero patterns of ``ops`` (j leads to i
    if op[i, j] != 0)."""
    pattern = np.zeros(rhos[0].shape, dtype=bool)
    for op in ops:
        pattern |= op != 0
    reach = np.zeros(len(pattern), dtype=bool)
    for rho in rhos:
        reach |= (rho != 0).any(axis=0) | (rho != 0).any(axis=1)
    while True:
        grown = reach | pattern[:, reach].any(axis=1)
        if (grown == reach).all():
            return np.flatnonzero(reach)
        reach = grown


def _group(hamiltonian, collapse_ops, rho0s, expect, nt):
    """Check one (hamiltonian, collapse_ops, rho0s, expect) group of an
    integration and build what its block contributes: the basis states it
    integrates, its Liouvillians [L_0, S_1, ..., S_n] on that block, the
    drive samples and the readout matrix of its recorded observables."""
    dims, h0, td_terms = hamiltonian.dims, hamiltonian.static, hamiltonian.terms
    d = int(np.prod(dims))
    rhos = [rho0.data for rho0 in rho0s]
    if not rhos:
        raise ValueError("no initial state to integrate")
    for rho in rhos:
        if rho.shape != (d, d):
            raise ValueError(f"initial state shape {rho.shape} does not match dims {dims}")
    if h0.shape != (d, d):
        raise ValueError(f"Hamiltonian shape {h0.shape} does not match dims {dims}")
    if np.abs(h0 - h0.conj().T).max() > _HERMITIAN_TOL:
        raise ValueError("static Hamiltonian is not Hermitian")
    drive_ops = [np.asarray(op, dtype=complex) for op, _ in td_terms]
    if any(op.shape != (d, d) for op in drive_ops):
        raise ValueError("drive term dimension mismatch")
    if any(np.abs(op - op.conj().T).max() > _HERMITIAN_TOL for op in drive_ops):
        raise ValueError("drive term is not Hermitian")
    jumps = [np.asarray(op, dtype=complex) for _, op in collapse_ops]
    if any(op.shape != (d, d) for op in jumps):
        raise ValueError("collapse operator dimension mismatch")
    expect = {name: np.asarray(op, dtype=complex) for name, op in (expect or {}).items()}
    if any(op.shape != (d, d) for op in expect.values()):
        raise ValueError("expectation operator dimension mismatch")
    samples = np.empty((len(td_terms), 2 * nt - 1))
    for term, (_, values) in enumerate(td_terms):
        values = np.asarray(values)
        if values.shape != (2 * nt - 1,):
            raise ValueError(
                f"a drive term needs 2 * {nt} - 1 samples on the half-step grid, "
                f"not {values.shape}"
            )
        if np.imag(values).any():
            raise ValueError("drive samples must be real")
        samples[term] = np.real(values)

    decays = [op.conj().T @ op for op in jumps]
    idx = _reachable(rhos, [h0, *drive_ops, *jumps, *decays])
    block = np.ix_(idx, idx)
    r = len(idx)
    liouvillians = [_liouvillian(h0[block], [op[block] for op in jumps])]
    liouvillians += [_liouvillian(op[block]) for op in drive_ops]

    slots = [i for i, n in enumerate(dims) if n == 3]
    # V.T @ readout = [Tr rho, P_g P_e P_f of each slot, Tr(O rho) of each O],
    # one row per input
    first_expect = 1 + 3 * len(slots)
    readout = np.zeros((r * r, first_expect + len(expect)), dtype=complex)
    diag_idx = np.arange(r) * (r + 1)
    readout[diag_idx, 0] = 1.0
    levels = np.unravel_index(idx, dims)
    for n, slot in enumerate(slots):
        readout[diag_idx, 1 + 3 * n + levels[slot]] = 1.0
    for col, op in enumerate(expect.values(), start=first_expect):
        readout[:, col] = op[block].T.reshape(-1)
    return SimpleNamespace(
        dims=tuple(dims), d=d, block=block, r=r, rhos=rhos,
        liouvillians=liouvillians, samples=samples, readout=readout,
        n_slots=len(slots), expect=list(expect),
    )


def integrate_me(problems, *, store_states=0):
    """Integrate drho/dt = -i[H, rho] + sum_k D[L_k] rho on a fixed grid for
    a batch of problems that share the grid.

    ``problems`` is a list of (hamiltonian, collapse_ops, rho0s, expect)
    groups, one problem being a batch of one group.  The grid of each
    ``hamiltonian`` is the integration grid, the same for every group (a
    static H is a TimeDependentOperator with no terms), and each drive term
    carries its 2 nt - 1 samples on the half-step grid t_0, t_0 + dt/2,
    t_1, ...: the first and last RK4 stages of a step read the samples at
    its ends and the two middle stages the sample at its midpoint, which
    makes the scheme fourth order in dt.  ``collapse_ops`` holds (name,
    operator) pairs and ``rho0s`` the group's initial states, which share
    H and the jump operators.  ``expect`` (or None) maps labels to
    operators whose expectation values Tr(O rho) are recorded at every grid
    point.  ``store_states`` > 0 stores a density-matrix snapshot every that
    many steps (plus the final state).  Level populations are tracked for
    every three-level subsystem: the two transmons of ``device.DIMS``, or
    the one qutrit of a (3,) run.

    Only the reachable block of each group is integrated: the basis states
    in the union of the supports of its initial states, closed under the
    nonzero patterns of H, every drive term, every L_k and every L_k+L_k.
    The generator keeps that block invariant, so the result equals the
    full-space integration of each input; the final states and the
    snapshots are zero-padded back to the full dims.  Each R^2 x R^2
    Liouvillian of an R-state block is built densely with numpy (about R^4
    entries held while it is built) and converted to CSR at once; on
    ``device.DIMS`` R is at most 36.  The groups' blocks are zero-padded to
    the largest one and their inputs to the largest input count, and the
    state of the batch is one (G R^2, m) array: each RK4 stage applies
    [blockdiag(L_0) blockdiag(S_1) ... blockdiag(S_n)] to it and to its
    copies weighted by each group's drive coefficients (a group with fewer
    drive terms has empty blocks) as one sparse product.  Every row keeps
    its nonzeros in the order of a group integrated alone, so each group's
    result is bit-identical to its own integration.  One permutation
    re-symmetrizes every block after every step; the recording (by one
    product with the group's readout matrix) and the trace check stay per
    group.

    Returns, per group in order, one (Trajectory, final DensityMatrix) pair
    per input, in input order; every Trajectory's ``dim`` is its group's
    integrated (union) block size and its ``trace_drift`` that input's own.
    Raises ValueError if there is no problem or no input, if the groups are
    not on one grid, if an operator or an initial state is not (d, d), if
    the static H or a drive term is not Hermitian (to 1e-12), if drive
    samples are not real or not 2 nt - 1 of them, and TraceDriftError,
    naming the run (the index of its group) and the input, if the trace of
    any input wanders further than 1e-6 from its own initial value.
    """
    if not problems:
        raise ValueError("no problem to integrate")
    t = problems[0][0].t
    if len(t) < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")
    steps = np.diff(t)
    if np.abs(steps - steps[0]).max() > 1e-9:
        raise ValueError("time grid must be uniform")
    if any(not np.array_equal(h.t, t) for h, *_ in problems):
        raise ValueError("the problems of a batch must share one time grid")
    dt = float(steps[0])
    nt = len(t)
    groups = [_group(*problem, nt) for problem in problems]

    n_groups = len(groups)
    size = max(g.r * g.r for g in groups)    # every block padded to this
    m = max(len(g.rhos) for g in groups)     # every group's inputs padded to this
    n_terms = max(len(g.samples) for g in groups)

    def padded_csr(mat):
        out = sp.csr_matrix(mat, dtype=complex)
        out.resize((size, size))
        return out

    empty = sp.csr_matrix((size, size), dtype=complex)
    # L(t) V = [L_0 S_1 ... S_n] @ [V; c_1(t) V; ...; c_n(t) V], each of
    # L_0, S_j block-diagonal over the groups
    generator = sp.hstack(
        [
            sp.block_diag(
                [padded_csr(g.liouvillians[j]) if j < len(g.liouvillians) else empty for g in groups],
                format="csr",
            )
            for j in range(n_terms + 1)
        ],
        format="csr",
    )
    # drive coefficients on the half-step grid t_0, t_0 + dt/2, t_1, ...:
    # row j has shape (n_terms, n_groups, 1, 1) to scale the drive copies of
    # every group's inputs, and is stored complex (zero imaginary part) so
    # no stage pays numpy's float-to-complex cast, which gives the same
    # products
    coef = np.zeros((2 * nt - 1, n_terms, n_groups, 1, 1), dtype=complex)
    for n, g in enumerate(groups):
        coef[:, : len(g.samples), n, 0, 0] = g.samples.T
    stacked = np.empty((n_terms + 1, n_groups, size, m), dtype=complex)
    head, copies, flat = stacked[0], stacked[1:], stacked.reshape(-1, m)
    head_flat = head.reshape(-1, m)

    def rhs(j):
        """The generator at half-step sample j applied to the stage input,
        which the caller writes into ``head``."""
        np.multiply(coef[j], head, out=copies)
        return generator @ flat

    # the transpose of every block as one permutation of the rows; padding
    # rows map to themselves
    transpose = np.arange(n_groups * size)
    for n, g in enumerate(groups):
        transpose[n * size : n * size + g.r * g.r] = (
            n * size + np.arange(g.r * g.r).reshape(g.r, g.r).T.reshape(-1)
        )

    # the state of the batch, written in place by every step; each group's
    # inputs are a block of it
    v = np.zeros((n_groups * size, m), dtype=complex)
    blocks = [v[n * size : n * size + g.r * g.r, : len(g.rhos)] for n, g in enumerate(groups)]
    for g, block in zip(groups, blocks):
        block[...] = np.stack([rho[g.block].reshape(-1) for rho in g.rhos], axis=1)
    recs = [np.empty((nt, len(g.rhos), g.readout.shape[1]), dtype=complex) for g in groups]
    targets = [[np.trace(rho).real for rho in g.rhos] for g in groups]
    reads = [
        (n, block.T, g.readout, rec, rec[:, :, 0].real, target)
        for n, (g, block, rec, target) in enumerate(zip(groups, blocks, recs, targets))
    ]
    states = [[[] for _ in g.rhos] for g in groups]

    def padded(g, col):
        full = np.zeros((g.d, g.d), dtype=complex)
        full[g.block] = col.reshape(g.r, g.r)
        return full

    for _, inputs, readout, rec, _, _ in reads:
        rec[0] = inputs @ readout
    for k in range(nt - 1):
        head_flat[...] = v
        k1 = rhs(2 * k)
        np.add(v, (0.5 * dt) * k1, out=head_flat)
        k2 = rhs(2 * k + 1)
        np.add(v, (0.5 * dt) * k2, out=head_flat)
        k3 = rhs(2 * k + 1)
        np.add(v, dt * k3, out=head_flat)
        k4 = rhs(2 * k + 2)
        stepped = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.add(stepped, stepped.take(transpose, axis=0).conj(), out=v)
        v *= 0.5
        for n, inputs, readout, rec, traces, target in reads:
            np.matmul(inputs, readout, out=rec[k + 1])
            for i, (trace, want) in enumerate(zip(traces[k + 1].tolist(), target)):
                if not abs(trace - want) <= _TRACE_TOL:
                    raise TraceDriftError(
                        f"trace of input {i} drifted to {trace:.9f} (target "
                        f"{want:.9f}) at t = {t[k + 1]:.2f} ns; reduce dt",
                        n,
                    )
        if store_states and ((k + 1) % store_states == 0 or k == nt - 2):
            for g, block, group_states in zip(groups, blocks, states):
                for i, snapshots in enumerate(group_states):
                    snapshots.append((t[k + 1], padded(g, block[:, i])))

    results = []
    for g, block, rec, target, group_states in zip(groups, blocks, recs, targets, states):
        drift = np.abs(rec[1:, :, 0].real - target).max(axis=0)
        out = []
        for i in range(len(g.rhos)):
            pops = [rec[:, i, 1 + 3 * n : 4 + 3 * n].real.copy() for n in range(g.n_slots)]
            exp_vals = {
                name: rec[:, i, col].copy()
                for col, name in enumerate(g.expect, start=1 + 3 * g.n_slots)
            }
            traj = Trajectory(
                t=t, pops=pops, expect=exp_vals, states=group_states[i], dim=g.r,
                trace_drift=float(drift[i]),
            )
            out.append((traj, DensityMatrix(g.dims, padded(g, block[:, i]))))
        results.append(out)
    return results


# ---------------------------------------------------------------------------
# two-level emission model

@dataclass(frozen=True)
class TwoLevelResult:
    t: np.ndarray
    c_f: np.ndarray       # |f,0> amplitude
    c_g1: np.ndarray      # |g,1> amplitude
    flux: np.ndarray      # kappa |c_g1|^2, photons/ns

    @property
    def emitted(self):
        return _simpson(self.flux, self.t)

    @property
    def norm(self):
        return np.abs(self.c_f) ** 2 + np.abs(self.c_g1) ** 2


def two_level_oracle(g_env: DriveEnvelope, kappa: float) -> TwoLevelResult:
    """Integrate the lossy two-level model of the f0g1 transition.

    The Schrodinger equation i dpsi/dt = [[0, g(t)], [g(t), -i kappa/2]] psi
    acts on the amplitudes of |f,0> and |g,1>, starting in |f,0>; the
    anti-Hermitian part drains |g,1> at rate kappa into the emitted field, so
    the emitted flux is kappa |c_g1|^2 and the total emitted probability is
    1 - surviving norm.  As in :func:`integrate_me`, ``g_env`` is sampled on
    the half-step grid, an odd number of samples, and the RK4 scheme steps
    over every other one, ``g_env.t[::2]``, on which the result is returned.
    """
    g = g_env.g_mag
    if len(g) % 2 == 0:
        raise ValueError("the half-step grid needs an odd number of samples")
    t = g_env.t[::2]
    dt = float(t[1] - t[0])

    def deriv(psi, gi):
        return np.array(
            [-1j * gi * psi[1], -1j * gi * psi[0] - 0.5 * kappa * psi[1]],
            dtype=complex,
        )

    psi = np.array([1.0, 0.0], dtype=complex)
    out = np.empty((len(t), 2), dtype=complex)
    out[0] = psi
    for k in range(len(t) - 1):
        k1 = deriv(psi, g[2 * k])
        k2 = deriv(psi + 0.5 * dt * k1, g[2 * k + 1])
        k3 = deriv(psi + 0.5 * dt * k2, g[2 * k + 1])
        k4 = deriv(psi + dt * k3, g[2 * k + 2])
        psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = psi
    flux = kappa * np.abs(out[:, 1]) ** 2
    return TwoLevelResult(t=t, c_f=out[:, 0], c_g1=out[:, 1], flux=flux)


# ---------------------------------------------------------------------------
# output field and efficiencies

def output_observables(traj: Trajectory):
    """Fill in the field downstream of node B from its recorded moments.

    The run must have recorded <L> and <L+L> of the cascade's jump operator
    L (:func:`photonlink.device.output_field_op`) under the ``expect``
    labels "a_out" and "n_out"; they move to a_mean_out and flux_out.
    """
    if not {"a_out", "n_out"} <= set(traj.expect):
        raise ValueError("trajectory lacks the output-field moments a_out and n_out")
    traj.a_mean_out = traj.expect.pop("a_out")
    traj.flux_out = traj.expect.pop("n_out").real
    return traj.a_mean_out, traj.flux_out


@dataclass(frozen=True)
class TransferEfficiencies:
    transfer_eff: float
    saturation_ns: float
    absorption_eff: float
    loss: float


def transfer_saturation(traj: Trajectory):
    """Saturated mapped P_e at node B and the drive-start-to-saturation time.

    The final pi_ef map swaps e and f, so the mapped P_e is P_f before it.
    """
    curve = traj.pops_B[:, F]
    sat = curve.max()
    k = np.nonzero(curve >= 0.99 * sat)[0][0]
    return float(sat), float(traj.t[k] - traj.t[0])


def efficiencies(traj_with, traj_without, traj_emit_a, traj_emit_b) -> TransferEfficiencies:
    """Transfer/absorption efficiencies and channel loss from four runs.

    traj_with/traj_without: excitation transfer with the absorption drive on
    and off (flux-based); traj_emit_a/traj_emit_b: emission of the mean-field
    photon (|0>+|1>)/sqrt(2) from each node (coherent-amplitude-based).
    """
    residual = traj_with.photon_integral
    reference = traj_without.photon_integral
    if reference < 1e-12:
        raise ValueError("reference emission flux vanishes")
    absorption_eff = 1.0 - residual / reference

    power_a = traj_emit_a.mean_field_power
    power_b = traj_emit_b.mean_field_power
    if power_b < 1e-12:
        raise ValueError("reference mean-field power vanishes")
    loss = 1.0 - power_a / power_b

    plateau, saturation_ns = transfer_saturation(traj_with)
    return TransferEfficiencies(
        transfer_eff=plateau,
        saturation_ns=saturation_ns,
        absorption_eff=float(absorption_eff),
        loss=float(loss),
    )
