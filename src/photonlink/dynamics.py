"""Master-equation integration and field observables for the cascaded link.

The integrator takes a scenario's (H, jumps, inputs, expect) groups at once.
Each group holds the Hamiltonian as a TimeDependentOperator, whose grid is
that of the integration and whose (d, d) static part sets the dimension, and
a stack of initial (d, d) density matrices that share it and the jump
operators.  The groups on one grid form a batch.  The master equation is
linear, so one RK4 loop carries every input of every group of a batch: the
states are the columns of one (G R^2, m) array.  Only the block of basis
states a group's inputs can reach is integrated: the union of their supports
closed under the nonzero patterns of H, the drive terms, the jump operators
L_k and L_k+L_k.  The master equation maps that block into itself whatever
the operators are, and a union of invariant blocks is invariant, so the
restriction is exact; a single excitation on the link reaches at most 7 of
the 36 states of the two-node model.  The static part of H and its drive
terms, one per driven node, must be Hermitian and the drive samples real;
the integrator checks both before it builds the generator.  On the block
each Liouvillian is built densely with numpy (``np.kron``, about R^4 entries
for an R-state block while it is built); the nonzeros of
[L_0 S_1 ... S_n], each block-diagonal over the groups, are stored as padded
rows, and act on the row-major vectorized density matrices and their copies
weighted by each group's real drive coefficients as one numpy product per
stage: gather, multiply, and a sum over each row's positions in order.
Every row keeps its nonzeros in ascending column order, the order of its
group alone, so a batch is bit-identical to its groups integrated one by
one; on a link generator, whose every entry is real or imaginary, each row
sum is bit for bit the one a compressed-sparse-row (CSR) kernel forms.
Propagation is fixed-step Runge-Kutta (deterministic, which keeps golden
tests exact), and the drives are sampled at the grid points and at the half
steps between them, where the middle stages evaluate H, so the scheme is
fourth order.  The static part of H and its drive terms enter as their
Hermitian parts, so the generator maps Hermitian states to Hermitian states
and every step is the RK4 update alone; each input's trace is checked
against its own initial trace.  Only the trace and the expectation values of
the group's ``expect`` operators (a level population is its projector's) are
recorded; they are linear in the state, so every grid point records them for
all inputs of a group by one product with its readout matrix.  Outputs are
zero-padded back to the full dimensions.  Integrals over the recorded series
use Simpson's rule, which matches the fourth order of the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np


# largest trace drift an integration may accumulate before it is aborted
_TRACE_TOL = 1e-6
# largest |O - O+| entry of a Hamiltonian part accepted as Hermitian
_HERMITIAN_TOL = 1e-12


class TraceDriftError(RuntimeError):
    """Integration became unstable: the state trace left its target.

    ``run`` is the index of the failing problem in the list passed to
    :func:`integrate_me`; the message names it before ``detail``.
    """

    def __init__(self, detail, run):
        super().__init__(f"run {run}: {detail}")
        self.run = run


@dataclass
class Trajectory:
    """Time-resolved record of one input of an integration.

    expect maps each label of the run's ``expect`` operators O to the complex
    series Tr(O rho(t)); a link run's series include its level populations,
    named as ``device.LEVEL_PROJECTORS`` (Pg_A ... Pf_B).  a_mean_out and
    flux_out hold <L> and <L+L> of the field L downstream of node B once
    moved there by :func:`output_observables`.  dim is the number of basis
    states integrated (the union block of every input integrated with this
    one) and trace_drift the largest |Tr rho(t) - Tr rho0| of this input
    (both None when the trajectory did not come from :func:`integrate_me`).
    """

    t: np.ndarray
    expect: dict = field(default_factory=dict)
    a_mean_out: np.ndarray | None = None
    flux_out: np.ndarray | None = None
    dim: int | None = None
    trace_drift: float | None = None

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
    h0, td_terms = hamiltonian.static, hamiltonian.terms
    d = len(h0)
    if h0.shape != (d, d):
        raise ValueError(f"static Hamiltonian shape {h0.shape} is not square")
    rhos = [np.asarray(rho0, dtype=complex) for rho0 in rho0s]
    if not rhos:
        raise ValueError("no initial state to integrate")
    for rho in rhos:
        if rho.shape != (d, d):
            raise ValueError(f"initial state shape {rho.shape} is not the Hamiltonian's {h0.shape}")
    if np.abs(h0 - h0.conj().T).max() > _HERMITIAN_TOL:
        raise ValueError("static Hamiltonian is not Hermitian")
    drive_ops = [np.asarray(op, dtype=complex) for op, _ in td_terms]
    if any(op.shape != (d, d) for op in drive_ops):
        raise ValueError("drive term dimension mismatch")
    if any(np.abs(op - op.conj().T).max() > _HERMITIAN_TOL for op in drive_ops):
        raise ValueError("drive term is not Hermitian")
    # their Hermitian parts, a bitwise no-op on an exactly Hermitian operator,
    # make a generator that keeps every state Hermitian
    h0 = 0.5 * (h0 + h0.conj().T)
    drive_ops = [0.5 * (op + op.conj().T) for op in drive_ops]
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

    # V.T @ readout = [Tr rho, Tr(O rho) of each O], one row per input
    readout = np.zeros((r * r, 1 + len(expect)), dtype=complex)
    readout[np.arange(r) * (r + 1), 0] = 1.0
    for col, op in enumerate(expect.values(), start=1):
        readout[:, col] = op[block].T.reshape(-1)
    return SimpleNamespace(
        d=d, block=block, r=r, rhos=rhos, liouvillians=liouvillians,
        samples=samples, readout=readout, expect=list(expect),
    )


def _generator(liouvillians, size, m):
    """Padded rows (table, values) of [L_0 S_1 ... S_n], each block-diagonal
    over the groups, from each group's dense Liouvillians [L_0, S_1, ...]
    zero-padded to ``size`` rows and columns (a group with fewer drive terms
    has empty blocks), for ``m`` input columns.

    Entry (p, i) of the (w, n_rows) ``table`` is the column of row i's p-th
    nonzero, in ascending column order, the order of its group's generator
    alone; ``values`` (w, n_rows, m) holds the matching entries repeated
    over the m inputs.  w is the widest row's nonzero count, and a shorter
    row runs out into column 0 with value 0.
    """
    n_groups = len(liouvillians)
    n_rows = n_groups * size
    rows, cols, data = [], [], []
    for n, ops in enumerate(liouvillians):
        for j, op in enumerate(ops):
            r, c = np.nonzero(op)
            rows.append(r + n * size)
            cols.append(c + (j * n_groups + n) * size)
            data.append(op[r, c])
    rows, cols, data = (np.concatenate(parts) for parts in (rows, cols, data))
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    counts = np.bincount(rows, minlength=n_rows)
    # each nonzero's position in its row
    pos = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    table = np.zeros((counts.max(), n_rows), dtype=np.intp)
    table[pos, rows] = cols
    values = np.zeros((*table.shape, m), dtype=complex)
    values[pos, rows] = data[:, None]
    return table, values


def _product(generator, x, buf, out):
    """``generator @ x`` for the padded rows (table, values) of a
    ``generator`` (:func:`_generator`) and an (n_cols, m) ``x``, written
    into ``out`` (n_rows, m) and returned; ``buf`` is a (w, n_rows, m)
    complex scratch buffer.

    Each row is summed from +0 in ascending column order, one position at a
    time: numpy reduces over the non-contiguous leading axis slice by slice,
    in order, and the zero padding changes no sum.  A CSR kernel sums a row
    in that order, so the sums are a CSR ``generator @ x`` bit for bit
    wherever each product is rounded as that kernel rounds it, with the
    two-product formula (ac - bd) + (ad + bc)i.  numpy's complex multiply
    may fuse a multiply and an add (FMA) and round once less, so its
    products are the kernel's exactly when one factor of each is purely
    real or purely imaginary, as every stored entry of a link generator is.
    """
    table, values = generator
    # np.take(x, table, axis=0, out=buf, mode="clip") in its method form,
    # which skips a Python wrapper worth a fifth of the product here; every
    # index is in range, and "clip" writes straight into buf where "raise"
    # would buffer
    x.take(table, 0, buf, "clip")
    buf *= values
    return np.add.reduce(buf, axis=0, out=out, initial=0.0)


def integrate_me(problems):
    """Integrate drho/dt = -i[H, rho] + sum_k D[L_k] rho on a fixed grid for
    each of a scenario's problems, batched by grid.

    ``problems`` is a list of (hamiltonian, collapse_ops, rho0s, expect)
    groups.  The grid of each ``hamiltonian`` is its group's integration
    grid (a static H is a TimeDependentOperator with no terms), and each
    drive term carries its 2 nt - 1 samples on the half-step grid t_0,
    t_0 + dt/2, t_1, ...: the first and last RK4 stages of a step read the
    samples at its ends and the two middle stages the sample at its
    midpoint, which makes the scheme fourth order in dt.  ``collapse_ops``
    holds (name, operator) pairs and ``rho0s`` the group's initial (d, d)
    density matrices, which share H and the jump operators; d is the
    dimension of the static part of ``hamiltonian``.  ``expect`` (or None)
    maps labels to operators whose expectation values Tr(O rho) are recorded
    at every grid point, and nothing else: a level population is the
    expectation value of its projector, such as those of
    ``device.LEVEL_PROJECTORS``.

    The groups whose grids hold the same bytes are one batch, integrated
    as the module docstring describes; the batches run in the order of
    their first group.  Each group's result is bit-identical to its own
    integration: per group in input order, one (Trajectory, final (d, d)
    complex array) pair per input, in input order.  Every Trajectory's
    ``dim`` is its group's integrated (union) block size, at most 36 on
    ``device.DIMS``, and its ``trace_drift`` that input's own.  No
    intermediate state is kept: the state after step k is, bit for bit,
    the final state of the group cut to ``t[:k+1]`` and each drive term's
    first 2k + 1 samples, whose record is the full record's first k + 1 rows.
    Raises ValueError if there is no problem or no input, if a grid is not
    uniform and strictly increasing, if the static H is not square, if an
    operator or an initial state is not (d, d), if the static H or a drive
    term is not Hermitian (to 1e-12), if drive samples are not real or not
    2 nt - 1 of them, and TraceDriftError, naming the run (the index of its
    group in ``problems``) and the input, if the trace of any input wanders
    further than 1e-6 from its own initial value.
    """
    if not problems:
        raise ValueError("no problem to integrate")
    grids = {}
    for i, (h, *_) in enumerate(problems):
        grids.setdefault(h.t.tobytes(), []).append(i)
    results = [None] * len(problems)
    for runs in grids.values():
        for i, pairs in zip(runs, _integrate_batch([problems[i] for i in runs], runs)):
            results[i] = pairs
    return results


def _integrate_batch(problems, runs):
    """Integrate the groups ``problems``, which share one grid, as one
    batch (:func:`integrate_me`); ``runs`` holds each group's index in the
    caller's list, which a TraceDriftError names."""
    t = problems[0][0].t
    if len(t) < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")
    steps = np.diff(t)
    if np.abs(steps - steps[0]).max() > 1e-9:
        raise ValueError("time grid must be uniform")
    dt = float(steps[0])
    nt = len(t)
    groups = [_group(*problem, nt) for problem in problems]

    n_groups = len(groups)
    size = max(g.r * g.r for g in groups)    # every block padded to this
    m = max(len(g.rhos) for g in groups)     # every group's inputs padded to this
    n_terms = max(len(g.samples) for g in groups)
    # L(t) V = [L_0 S_1 ... S_n] @ [V; c_1(t) V; ...; c_n(t) V], each of
    # L_0, S_j block-diagonal over the groups
    generator = _generator([g.liouvillians for g in groups], size, m)
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
    # one buffer per RK4 stage, each stage's product written into its own
    stages = np.empty((4, n_groups * size, m), dtype=complex)
    gathered = np.empty_like(generator[1])

    def rhs(j, out):
        """The generator at half-step sample j applied to the stage input,
        which the caller writes into ``head``, written into ``out``."""
        np.multiply(coef[j], head, out=copies)
        return _product(generator, flat, gathered, out)

    # the state of the batch, written in place by every step; each group's
    # inputs are a block of it
    v = np.zeros((n_groups * size, m), dtype=complex)
    blocks = [v[n * size : n * size + g.r * g.r, : len(g.rhos)] for n, g in enumerate(groups)]
    for g, block in zip(groups, blocks):
        block[...] = np.stack([rho[g.block].reshape(-1) for rho in g.rhos], axis=1)
    recs = [np.empty((nt, len(g.rhos), g.readout.shape[1]), dtype=complex) for g in groups]
    targets = [[np.trace(rho).real for rho in g.rhos] for g in groups]
    reads = [
        (run, block.T, g.readout, rec, rec[:, :, 0].real, target)
        for run, g, block, rec, target in zip(runs, groups, blocks, recs, targets)
    ]
    for _, inputs, readout, rec, _, _ in reads:
        rec[0] = inputs @ readout
    for k in range(nt - 1):
        head_flat[...] = v
        k1 = rhs(2 * k, stages[0])
        np.multiply(k1, 0.5 * dt, out=head_flat)
        head_flat += v
        k2 = rhs(2 * k + 1, stages[1])
        np.multiply(k2, 0.5 * dt, out=head_flat)
        head_flat += v
        k3 = rhs(2 * k + 1, stages[2])
        np.multiply(k3, dt, out=head_flat)
        head_flat += v
        k4 = rhs(2 * k + 2, stages[3])
        # v += (dt / 6) (k1 + 2 k2 + 2 k3 + k4), summed left to right in place
        k2 *= 2.0
        k3 *= 2.0
        k1 += k2
        k1 += k3
        k1 += k4
        k1 *= dt / 6.0
        v += k1
        for run, inputs, readout, rec, traces, target in reads:
            np.matmul(inputs, readout, out=rec[k + 1])
            for i, (trace, want) in enumerate(zip(traces[k + 1].tolist(), target)):
                if not abs(trace - want) <= _TRACE_TOL:
                    raise TraceDriftError(
                        f"trace of input {i} drifted to {trace:.9f} (target "
                        f"{want:.9f}) at t = {t[k + 1]:.2f} ns; reduce dt",
                        run,
                    )

    results = []
    for g, block, rec, target in zip(groups, blocks, recs, targets):
        drift = np.abs(rec[1:, :, 0].real - target).max(axis=0)
        out = []
        for i in range(len(g.rhos)):
            exp_vals = {name: rec[:, i, col].copy() for col, name in enumerate(g.expect, start=1)}
            traj = Trajectory(t=t, expect=exp_vals, dim=g.r, trace_drift=float(drift[i]))
            final = np.zeros((g.d, g.d), dtype=complex)
            final[g.block] = block[:, i].reshape(g.r, g.r)
            out.append((traj, final))
        results.append(out)
    return results


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

    The final pi_ef map swaps e and f, so the mapped P_e is "Pf_B" before it.
    """
    curve = traj.expect["Pf_B"].real
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
