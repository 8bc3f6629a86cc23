"""Device parameters and generators of the cascaded two-node dynamics.

Node parameters follow the device summary table (frequencies in GHz,
rates/shifts in linear MHz, coherence times in us).  The effective
Hamiltonian couples each transmon's |f,0> <-> |g,1> transition to its
transfer resonator via the modulated drive and cascades resonator A into
resonator B through a lossy circulator; dissipation is Lindblad-type with
per-transition decay and dephasing channels.  Every operator acts on
``DIMS``: each transfer resonator keeps the two Fock states one photon can
reach.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from importlib import resources

import numpy as np

from .qops import mhz, destroy, embed, projector, transition
from .pulse import DriveEnvelope

G, E, F = 0, 1, 2  # transmon level indices


def _require_finite(params):
    """Reject NaN and infinite fields: a comparison with NaN is always False."""
    bad = [f.name for f in fields(params) if not math.isfinite(getattr(params, f.name))]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be finite")


@dataclass(frozen=True)
class NodeParams:
    """Physical constants of one node.

    The readout block (nu_R, kappa_R, chi_R) is carried for documentation
    only and never enters the transfer dynamics.  Neither do the resonator
    Kerr shift K, since a resonator holds at most one photon, nor alpha,
    which the drives' frame removes (see :func:`build_hamiltonian`).
    """

    nu_ge: float      # GHz
    alpha: float      # MHz, negative
    nu_T: float       # GHz
    kappa_T: float    # MHz
    chi_T: float      # MHz
    K: float          # MHz
    kappa_int: float  # MHz
    T1ge: float       # us
    T1ef: float       # us
    T2ge: float       # us
    T2ef: float       # us
    nu_R: float = 0.0
    kappa_R: float = 0.0
    chi_R: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.kappa_T <= 0:
            raise ValueError("kappa_T must be positive")
        if self.alpha >= 0:
            raise ValueError("alpha must be negative")
        if min(self.T1ge, self.T1ef, self.T2ge, self.T2ef) <= 0:
            raise ValueError("coherence times must be positive")
        if self.T2ge > 2 * self.T1ge + 1e-12 or self.T2ef > 2 * self.T1ef + 1e-12:
            raise ValueError("T2 must not exceed 2*T1")
        # the coherence times must leave both pure-dephasing rates non-negative
        self.dephasing_rates()

    # angular rates in rad/ns
    @property
    def kappa_T_rad(self):
        return float(mhz(self.kappa_T))

    @property
    def kappa_int_rad(self):
        return float(mhz(self.kappa_int))

    @property
    def gamma1_ge(self):
        return 1e-3 / self.T1ge  # 1/ns

    @property
    def gamma1_ef(self):
        return 1e-3 / self.T1ef

    def dephasing_rates(self):
        return dephasing_rates(self.T1ge, self.T1ef, self.T2ge, self.T2ef)


@dataclass(frozen=True)
class LinkParams:
    """Directional channel: power transmission and emitter/absorber time offset."""

    eta_c: float          # dimensionless, 0..1
    time_offset: float = 0.0  # ns

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 <= self.eta_c <= 1.0:
            raise ValueError("eta_c must lie in [0, 1]")


def dephasing_rates(T1ge, T1ef, T2ge, T2ef):
    """Pure-dephasing rates (gamma_phi_ge, gamma_phi_ef) in 1/ns.

    The dephasing operators |e><e|-|g><g| and |f><f|-|e><e| cross-couple the
    two coherences: the ge coherence decays at gamma1_ge/2 + 2*g_ge + g_ef/2
    and the ef coherence at (gamma1_ge+gamma1_ef)/2 + g_ge/2 + 2*g_ef.  The
    rates are fixed by requiring that free-evolution Ramsey decay reproduces
    the input T2 values exactly, which pins the convention against the
    sign/prefactor ambiguity of the printed formula.
    """
    g1ge, g1ef = 1.0 / T1ge, 1.0 / T1ef
    rhs = np.array([1.0 / T2ge - 0.5 * g1ge, 1.0 / T2ef - 0.5 * (g1ge + g1ef)])
    sol = np.linalg.solve(np.array([[2.0, 0.5], [0.5, 2.0]]), rhs)
    if np.any(sol < -1e-9):  # per us; tolerates rounding in the no-decoherence limit
        raise ValueError(
            f"unphysical coherence times: negative dephasing rates {sol}"
        )
    return float(max(sol[0], 0.0)) * 1e-3, float(max(sol[1], 0.0)) * 1e-3


@dataclass(frozen=True)
class TimeDependentOperator:
    """Hamiltonian as a static matrix plus per-term sampled coefficients.

    H(t) = static + sum_j c_j(t) * term_j, all immutable and shareable.  The
    static part and every term are Hermitian and every c_j(t) is real, so
    H(t) is Hermitian at every sample.  ``t`` is the integration grid; each
    term carries 2 len(t) - 1 samples of c_j, at t_0, t_0 + dt/2, t_1, ...,
    the points where a fourth-order Runge-Kutta step evaluates H.
    """

    dims: tuple
    static: np.ndarray
    terms: tuple          # ((Hermitian op, real samples), ...)
    t: np.ndarray


def qutrit_lowering(which):
    """|g><e| or |e><f| on a single qutrit."""
    return transition(3, G, E) if which == "ge" else transition(3, E, F)


def qutrit_dephasing(which):
    """|e><e|-|g><g| or |f><f|-|e><e| on a single qutrit."""
    if which == "ge":
        return projector(3, E) - projector(3, G)
    return projector(3, F) - projector(3, E)


def single_node_collapse_ops(node: NodeParams):
    """Qutrit-only collapse operators (3x3), used for coherence calibration."""
    gphi_ge, gphi_ef = node.dephasing_rates()
    return [
        ("decay_ge", np.sqrt(node.gamma1_ge) * qutrit_lowering("ge")),
        ("decay_ef", np.sqrt(node.gamma1_ef) * qutrit_lowering("ef")),
        ("dephase_ge", np.sqrt(gphi_ge) * qutrit_dephasing("ge")),
        ("dephase_ef", np.sqrt(gphi_ef) * qutrit_dephasing("ef")),
    ]


# (transmon A, resonator A, transmon B, resonator B): a protocol starts with
# at most two transmon quanta, and f0g1 trades two quanta for one photon
DIMS = (3, 2, 3, 2)


def _node_ops(node_index):
    qutrit_slot = 2 * node_index
    b = embed(destroy(3), qutrit_slot, DIMS)
    a = embed(destroy(2), qutrit_slot + 1, DIMS)
    return b, a


def build_hamiltonian(
    a_node: NodeParams,
    b_node: NodeParams,
    link: LinkParams,
    g_a: DriveEnvelope | None,
    g_b: DriveEnvelope | None,
) -> TimeDependentOperator:
    """Effective two-node Hamiltonian with the circulator cascade term.

    Per node: 2 chi_T a+a b+b + (g(t) b+b+ a + h.c.)/sqrt(2), plus the
    cascade term -i sqrt(kappa_A kappa_B eta_c)/2 (a_A a_B+ - a_A+ a_B);
    Hermitian at every sampled t.  The matrix element <f,0|H|g,1> equals g(t)
    exactly.

    H acts on ``DIMS``, whose resonators hold at most one photon, so the
    resonator Kerr term (K/2) a+a+aa vanishes and K does not enter H.  H is
    built in the drives' local-oscillator frame: the qutrit diagonal
    -(alpha/2) b+b + (alpha/2) b+b+bb = diag(0, -alpha/2, 0) commutes with
    every other generator and is dropped, so alpha does not enter H either
    and resonant gate pulses are plain, time-independent unitaries.

    The drives are resonant with the Stark-shifted transitions, so each g(t)
    is real and a driven node adds one Hermitian term, (b+b+ a + h.c.)/sqrt(2)
    with samples g(t).  A node without a drive envelope (None) is not driven.
    The envelopes are sampled on the half-step grid, and H's integration grid
    is every other sample, ``env.t[::2]``.
    """
    envs = [e for e in (g_a, g_b) if e is not None]
    if len(envs) == 2 and (
        envs[0].t.shape != envs[1].t.shape or np.abs(envs[0].t - envs[1].t).max() > 1e-9
    ):
        raise ValueError("drive envelopes must be sampled on a common grid")
    if not envs:
        raise ValueError("at least one drive envelope is required")
    t = envs[0].t[::2]

    h0 = np.zeros((np.prod(DIMS),) * 2, dtype=complex)
    terms = []
    for idx, (node, env) in enumerate([(a_node, g_a), (b_node, g_b)]):
        b, a = _node_ops(idx)
        bd, ad = b.conj().T, a.conj().T
        h0 += 2.0 * mhz(node.chi_T) * (ad @ a) @ (bd @ b)
        if env is not None:
            coupling = (bd @ bd @ a) / np.sqrt(2.0)
            terms.append((coupling + coupling.conj().T, env.g_mag))

    cascade = 0.5 * np.sqrt(
        a_node.kappa_T_rad * b_node.kappa_T_rad * link.eta_c
    )
    _, a_a = _node_ops(0)
    _, a_b = _node_ops(1)
    h0 += -1j * cascade * (a_a @ a_b.conj().T - a_a.conj().T @ a_b)

    return TimeDependentOperator(DIMS, h0, tuple(terms), t)


def build_collapse_ops(a_node: NodeParams, b_node: NodeParams, link: LinkParams):
    """Rate-weighted collapse operators of the cascaded master equation.

    Returns (name, operator) pairs: the emitter's standalone circulator-loss
    channel at kappa_T^A (1-eta_c), the joint cascade channel
    :func:`output_field_op`, and per node internal
    resonator decay, transmon decay and transmon dephasing.
    """
    _, a_a = _node_ops(0)
    ops = []
    loss_rate = a_node.kappa_T_rad * (1.0 - link.eta_c)
    if loss_rate > 0:
        ops.append(("channel_loss", np.sqrt(loss_rate) * a_a))
    ops.append(("cascade_out", output_field_op(a_node, b_node, link)))
    for idx, (name, node) in enumerate([("A", a_node), ("B", b_node)]):
        _, a_i = _node_ops(idx)
        if node.kappa_int > 0:
            ops.append((f"internal_{name}", np.sqrt(node.kappa_int_rad) * a_i))
        qslot = 2 * idx
        for label, op in single_node_collapse_ops(node):
            if np.abs(op).max() > 0:
                ops.append((f"{label}_{name}", embed(op, qslot, DIMS)))
    return ops


def output_field_op(a_node: NodeParams, b_node: NodeParams, link: LinkParams):
    """Field operator downstream of node B: the cascade's collective jump
    operator sqrt(kappa_T^A eta_c) a_A + sqrt(kappa_T^B) a_B."""
    _, a_a = _node_ops(0)
    _, a_b = _node_ops(1)
    return (
        np.sqrt(a_node.kappa_T_rad * link.eta_c) * a_a
        + np.sqrt(b_node.kappa_T_rad) * a_b
    )


# ---------------------------------------------------------------------------
# device files

def load_device(path=None):
    """Load (node_a, node_b, link) from a JSON device file.

    With no path, returns the shipped defaults reproducing the measured
    device table and eta_c = 0.77.
    """
    if path is None:
        text = resources.files("photonlink.data").joinpath("device_default.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    raw = json.loads(text)
    try:
        node_a = NodeParams(**raw["node_a"])
        node_b = NodeParams(**raw["node_b"])
        link = LinkParams(**raw["link"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid device file: {exc}") from exc
    return node_a, node_b, link


def scale_coherence(node: NodeParams, factor: float) -> NodeParams:
    return replace(
        node,
        T1ge=node.T1ge * factor,
        T1ef=node.T1ef * factor,
        T2ge=node.T2ge * factor,
        T2ef=node.T2ef * factor,
    )


def without_decoherence(node: NodeParams) -> NodeParams:
    big = 1e9  # us; effectively infinite on protocol timescales
    return replace(node, T1ge=big, T1ef=big, T2ge=big, T2ef=big, kappa_int=0.0)
