"""Master-equation integration and field observables for the cascaded link.

The Lindblad generator is assembled once as a sparse superoperator acting on
the row-major vectorized density matrix, with the drive terms entering
through sampled time-dependent coefficients; propagation is fixed-step
4th-order Runge-Kutta (deterministic, which keeps golden tests exact).
The state is re-symmetrized after every step and the trace is monitored.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .device import TimeDependentOperator
from .pulse import DriveEnvelope
from .qops import DensityMatrix

G, E, F = 0, 1, 2


# largest trace drift an integration may accumulate before it is aborted
_TRACE_TOL = 1e-6


class TraceDriftError(RuntimeError):
    """Integration became unstable: the state trace left its target."""


@dataclass
class Trajectory:
    """Time-resolved populations and field moments of a protocol run.

    pops_* columns are (P_g, P_e, P_f).  a_mean_out/flux_out hold <L> and
    <L+L> of the field L downstream of node B once filled in by
    :func:`output_observables`; expect carries any additional requested
    operator expectations.
    """

    t: np.ndarray
    pops: list                      # one (nt, 3) array per qutrit slot
    expect: dict = field(default_factory=dict)
    a_mean_out: np.ndarray | None = None
    flux_out: np.ndarray | None = None
    states: list = field(default_factory=list)   # optional (t, rho) snapshots

    @property
    def pops_A(self):
        return self.pops[0]

    @property
    def pops_B(self):
        return self.pops[1]

    @property
    def photon_integral(self):
        if self.flux_out is None:
            raise ValueError("output field not recorded for this trajectory")
        return float(np.trapezoid(self.flux_out, self.t))


def _super_commutator(h):
    hs = sp.csr_matrix(h)
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    return (-1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T))).tocsr()


def _super_dissipator(op):
    ls = sp.csr_matrix(op)
    eye = sp.identity(op.shape[0], dtype=complex, format="csr")
    ldl = (ls.conj().T @ ls).tocsr()
    out = sp.kron(ls, ls.conj()) - 0.5 * (sp.kron(ldl, eye) + sp.kron(eye, ldl.T))
    return out.tocsr()


def _strip_names(collapse_ops):
    ops = []
    for item in collapse_ops:
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str):
            ops.append(np.asarray(item[1], dtype=complex))
        else:
            ops.append(np.asarray(item, dtype=complex))
    return ops


def _qutrit_masks(dims, qutrit_slots):
    """(slot, 3 x D population mask) for the requested three-level subsystems."""
    grids = np.indices(dims).reshape(len(dims), -1)
    masks = []
    for slot in qutrit_slots:
        if dims[slot] != 3:
            raise ValueError(f"slot {slot} is not three-dimensional")
        m = np.zeros((3, grids.shape[1]))
        for level in range(3):
            m[level, grids[slot] == level] = 1.0
        masks.append((slot, m))
    return masks


def integrate_me(
    hamiltonian,
    collapse_ops,
    rho0,
    t=None,
    *,
    expect=None,
    store_states=0,
):
    """Integrate drho/dt = -i[H, rho] + sum_k D[L_k] rho on a fixed grid.

    ``hamiltonian`` is a TimeDependentOperator (whose grid defines the
    integration grid) or a static matrix (then ``t`` is required).  ``expect``
    maps labels to operators whose expectation values Tr(O rho) are recorded
    at every grid point.  ``store_states`` > 0 stores a density-matrix
    snapshot every that many steps (plus the final state).  Level
    populations are tracked for slots 0 and 2 of the four-part node layout,
    or else for every three-dimensional subsystem.

    Returns (Trajectory, final DensityMatrix).  Raises TraceDriftError if the
    trace wanders further than 1e-6 from its initial value.
    """
    if isinstance(hamiltonian, TimeDependentOperator):
        dims = hamiltonian.dims
        t = hamiltonian.t
        h0 = hamiltonian.static
        td_terms = hamiltonian.terms
    else:
        h0 = np.asarray(hamiltonian, dtype=complex)
        if t is None:
            raise ValueError("a time grid is required for a static Hamiltonian")
        t = np.asarray(t, dtype=float)
        dims = rho0.dims if isinstance(rho0, DensityMatrix) else (h0.shape[0],)
        td_terms = ()
    if len(t) < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")
    steps = np.diff(t)
    if np.abs(steps - steps[0]).max() > 1e-9:
        raise ValueError("time grid must be uniform")
    dt = float(steps[0])
    nt = len(t)
    d = int(np.prod(dims))

    rho = rho0.data if isinstance(rho0, DensityMatrix) else np.asarray(rho0, complex)
    if rho.shape != (d, d):
        raise ValueError(f"initial state shape {rho.shape} does not match dims {dims}")

    l_static = _super_commutator(h0)
    for op in _strip_names(collapse_ops):
        if op.shape != (d, d):
            raise ValueError("collapse operator dimension mismatch")
        l_static = l_static + _super_dissipator(op)
    l_static = l_static.tocsr()

    # drive superoperators with coefficients sampled at grid and midpoints
    drive_supers = []
    for op, samples in td_terms:
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != t.shape:
            raise ValueError("coefficient samples must match the time grid")
        mid = 0.5 * (samples[:-1] + samples[1:])
        drive_supers.append((_super_commutator(op), samples, mid))

    def rhs(v, k, stage):
        # stage: 0 -> t_k, 1 -> t_k + dt/2, 2 -> t_{k+1}
        out = l_static @ v
        for s_op, c, c_mid in drive_supers:
            coeff = c[k] if stage == 0 else (c_mid[k] if stage == 1 else c[k + 1])
            if coeff != 0.0:
                out = out + coeff * (s_op @ v)
        return out

    if len(dims) == 4:
        qutrit_slots = (0, 2)
    else:
        qutrit_slots = tuple(i for i, d in enumerate(dims) if d == 3)
    masks = _qutrit_masks(dims, qutrit_slots)
    pops = [np.empty((nt, 3)) for _ in masks]
    expect = expect or {}
    exp_rows = {}
    exp_vals = {name: np.empty(nt, dtype=complex) for name in expect}
    for name, op in expect.items():
        exp_rows[name] = np.ascontiguousarray(np.asarray(op, complex).T).reshape(-1)

    diag_idx = np.arange(d) * (d + 1)
    target_trace = float(np.trace(rho).real)
    v = rho.reshape(-1).astype(complex)
    states = []

    def record(k, v):
        diag = v[diag_idx].real
        for (slot, m), store in zip(masks, pops):
            store[k] = m @ diag
        for name, row in exp_rows.items():
            exp_vals[name][k] = row @ v
        return diag.sum()

    record(0, v)
    for k in range(nt - 1):
        k1 = rhs(v, k, 0)
        k2 = rhs(v + (0.5 * dt) * k1, k, 1)
        k3 = rhs(v + (0.5 * dt) * k2, k, 1)
        k4 = rhs(v + dt * k3, k, 2)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m = v.reshape(d, d)
        v = (0.5 * (m + m.conj().T)).reshape(-1)
        tr = record(k + 1, v)
        if abs(tr - target_trace) > _TRACE_TOL:
            raise TraceDriftError(
                f"trace drifted to {tr:.9f} (target {target_trace:.9f}) at "
                f"t = {t[k + 1]:.2f} ns; reduce dt"
            )
        if store_states and ((k + 1) % store_states == 0 or k == nt - 2):
            states.append((t[k + 1], v.reshape(d, d).copy()))

    traj = Trajectory(t=t, pops=pops, expect=exp_vals, states=states)
    final = DensityMatrix(tuple(dims), v.reshape(d, d).copy())
    return traj, final


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
        return float(np.trapezoid(self.flux, self.t))

    @property
    def norm(self):
        return np.abs(self.c_f) ** 2 + np.abs(self.c_g1) ** 2


def two_level_oracle(g_env: DriveEnvelope, kappa: float, psi0=(1.0, 0.0)) -> TwoLevelResult:
    """Integrate the lossy two-level model of the f0g1 transition.

    The Schrodinger equation i dpsi/dt = [[0, g(t)], [g*(t), -i kappa/2]] psi
    acts on the amplitudes of |f,0> and |g,1>; the anti-Hermitian part drains
    |g,1> at rate kappa into the emitted field, so the emitted flux is
    kappa |c_g1|^2 and the total emitted probability is 1 - surviving norm.
    """
    t = g_env.t
    dt = float(t[1] - t[0])
    g = g_env.complex_samples()
    g_mid = 0.5 * (g[:-1] + g[1:])

    def deriv(psi, gi):
        return np.array(
            [-1j * gi * psi[1], -1j * np.conj(gi) * psi[0] - 0.5 * kappa * psi[1]],
            dtype=complex,
        )

    psi = np.asarray(psi0, dtype=complex)
    out = np.empty((len(t), 2), dtype=complex)
    out[0] = psi
    for k in range(len(t) - 1):
        k1 = deriv(psi, g[k])
        k2 = deriv(psi + 0.5 * dt * k1, g_mid[k])
        k3 = deriv(psi + 0.5 * dt * k2, g_mid[k])
        k4 = deriv(psi + dt * k3, g[k + 1])
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

    power_a = np.trapezoid(np.abs(traj_emit_a.a_mean_out) ** 2, traj_emit_a.t)
    power_b = np.trapezoid(np.abs(traj_emit_b.a_mean_out) ** 2, traj_emit_b.t)
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


def write_trajectory_csv(traj: Trajectory, path):
    """Trajectory export: t_ns, per-node populations, output field, flux."""
    a_out = traj.a_mean_out
    flux = traj.flux_out
    if a_out is None:
        a_out = np.zeros(len(traj.t), dtype=complex)
        flux = np.zeros(len(traj.t))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t_ns", "Pg_A", "Pe_A", "Pf_A", "Pg_B", "Pe_B", "Pf_B", "re_aout", "im_aout", "flux"]
        )
        for k in range(len(traj.t)):
            row = [traj.t[k]]
            row.extend(traj.pops_A[k])
            row.extend(traj.pops_B[k] if len(traj.pops) > 1 else (0.0, 0.0, 0.0))
            row.extend([a_out[k].real, a_out[k].imag, flux[k]])
            writer.writerow([f"{x:.9g}" for x in row])
