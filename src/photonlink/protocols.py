"""The experiment sequences: emission, transfer, process tomography,
entanglement, the coherence-upgrade prediction and the error budget.

Every run integrates the cascaded master equation over a fixed window with
the photon envelope centred at t = 0; state preparations and the final
mapping pulse are ideal instantaneous unitaries.  ``idle_ns`` models the
real time occupied by the closing mapping/tomography pulses, during which
the drives are off but relaxation continues.  Runs are deterministic given
a ProtocolSpec and seed.

A scenario is a list of link runs: every run's drives are built first (a
drive that cannot be built raises ConfigError before anything integrates),
then the runs are integrated by one ``integrate_me`` call, which batches
them by time grid, then measured in order, and their tomography data are
reconstructed as one MLE stack.  Batching is exact: every result equals the
run on its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import device as dev
from . import metrics, pulse, readout, tomography
from .qops import embed, ket, mhz, partial_trace
from .dynamics import Trajectory, efficiencies, integrate_me, output_observables

G, E, F = 0, 1, 2

# default photon bandwidths (linear MHz): node A emits at its resonator
# linewidth, node B a little below its own
KAPPA_EFF_MHZ = {"A": 10.4, "B": 10.6}

# drive window (ns, photon peak at 0): the leading edge keeps the mandatory
# +-6/kappa_eff span; idle time models the closing pulses of the sequence
DEFAULT_WINDOW = (-95.0, 95.0)
DEFAULT_IDLE_NS = 40.0
# RK4 step (ns).  The drives are sampled at the half steps, so the scheme is
# fourth order and resolves the ~15 ns scale of the 10 MHz photons at 1 ns:
# rho9_direct of the entanglement run lies 5.1e-9 / 2.8e-10 / 1.6e-11 /
# 3.2e-13 from a dt 0.0125 run at dt 1.0 / 0.5 / 0.25 / 0.1, and the
# transfer pair's photon integrals 7.2e-8 and 2.4e-8 at 1.0.  The target is
# <= 1e-6, which 1 ns meets with a margin of about 200; |lambda| dt is 0.085
# on the shipped device, inside RK4's stability bound of 2.785.
DEFAULT_DT = 1.0

# the emission field studies use a 10 ns longer window and no closing pulses;
# their drive is sampled on all of it, so it runs to 105 ns (tapered over
# 90-105 ns: g(100 ns) is 6.2e-4 rad/ns on node A, 4.4e-3 on node B)
EMISSION_WINDOW = (-95.0, 105.0)
EMISSION_IDLE_NS = 0.0

# the largest run a spec describes, refused before anything is allocated:
# RK4 steps on the grid (the dt 0.0125 fine reference takes up to 24 000)
# and shots per tomography setting or readout state (25 000 at most in use)
MAX_STEPS = 100_000
MAX_SHOTS = 1_000_000


class ConfigError(ValueError):
    """A setting this run cannot honour, such as a drive it cannot build."""


@dataclass(frozen=True)
class ProtocolSpec:
    """Configuration of one run; JSON-serializable and hashable.  The
    protocol it configures is the function it is passed to.

    No field sizes the model: every run integrates on ``device.DIMS``, whose
    two-level resonators hold the one photon a protocol can make exactly.
    """

    eta_c: float | None = None          # override channel transmission
    time_offset: float | None = None    # override absorber delay (ns)
    kappa_eff_a: float = KAPPA_EFF_MHZ["A"]   # linear MHz
    kappa_eff_b: float = KAPPA_EFF_MHZ["B"]
    window: tuple = DEFAULT_WINDOW
    idle_ns: float = DEFAULT_IDLE_NS
    dt: float = DEFAULT_DT
    t_scale: float = 1.0                # multiplies all T1/T2
    decoherence: bool = True
    shots: int | None = None            # None: exact Born probabilities
    seed: int = 0

    def __post_init__(self):
        reals = [self.kappa_eff_a, self.kappa_eff_b, *self.window]
        reals += [self.idle_ns, self.dt, self.t_scale]
        reals += [x for x in (self.eta_c, self.time_offset) if x is not None]
        if not all(math.isfinite(x) for x in reals):
            raise ValueError("every real-valued setting must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not all(math.isclose(x / self.dt, round(x / self.dt), rel_tol=1e-9)
                   for x in (*self.window, self.idle_ns)):
            # else the grid would move the window edges, changing the problem
            raise ValueError("dt must divide both window edges and idle_ns")
        if self.t_scale <= 0:
            raise ValueError("t_scale must be positive")
        if self.idle_ns < 0:
            raise ValueError("idle_ns must be non-negative")
        # a float or bool would fail only once the run draws (rng, SeedSequence)
        for name, value in (("seed", self.seed), ("shots", self.shots)):
            if name == "shots" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.shots is not None and not 0 < self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must lie in [1, {MAX_SHOTS}]")
        if self.kappa_eff_a <= 0 or self.kappa_eff_b <= 0:
            raise ValueError("photon bandwidths kappa_eff must be positive (linear MHz)")
        if self.eta_c is not None and not 0.0 <= self.eta_c <= 1.0:
            raise ValueError("eta_c must lie in [0, 1]")
        if self.window[0] >= 0 or self.window[1] <= 0:
            raise ValueError("window must bracket the photon peak at t = 0")
        if (self.window[1] + self.idle_ns - self.window[0]) / self.dt > MAX_STEPS:
            raise ValueError(f"window and idle_ns must span at most {MAX_STEPS} steps of dt")


@dataclass
class RunResult:
    spec: ProtocolSpec
    trajectory: Trajectory | None
    final_state: np.ndarray | None
    extras: dict = field(default_factory=dict)


def resolve_device(nodes_link, spec: ProtocolSpec):
    """The (node_a, node_b, link) a run of ``spec`` integrates: the device
    (the shipped one for None) with the spec's overrides applied; raises
    ValueError when an override leaves a parameter invalid."""
    if nodes_link is None:
        node_a, node_b, link = dev.load_device()
    else:
        node_a, node_b, link = nodes_link
    if spec.t_scale != 1.0:
        node_a = dev.scale_coherence(node_a, spec.t_scale)
        node_b = dev.scale_coherence(node_b, spec.t_scale)
    if not spec.decoherence:
        node_a = dev.without_decoherence(node_a)
        node_b = dev.without_decoherence(node_b)
    if spec.eta_c is not None:
        link = replace(link, eta_c=spec.eta_c)
    if spec.time_offset is not None:
        link = replace(link, time_offset=spec.time_offset)
    return node_a, node_b, link


def _grid(spec: ProtocolSpec):
    """The half-step grid of a run: the integration grid t_k = k dt and the
    midpoints t_k + dt/2, built from integers so that the even samples are
    exactly k dt."""
    t0, t1 = spec.window
    n0, n1 = int(round(-t0 / spec.dt)), int(round((t1 + spec.idle_ns) / spec.dt))
    return np.arange(-2 * n0, 2 * n1 + 1) * (0.5 * spec.dt)


def _drive(spec, node, name, kappa_eff_mhz, reverse=False, offset=0.0):
    """The drive emitting a photon of bandwidth ``kappa_eff_mhz`` through
    the resonator of ``node`` (named ``name``), sampled on the drive window
    and zero-padded to the run's half-step grid.  ``reverse`` gives the
    receiver drive instead: the time reverse of that emission drive, delayed
    by ``offset`` ns inside the window.  A drive that cannot be built, such
    as one delayed so that over 1% of its energy leaves the window, raises
    ConfigError."""
    t = _grid(spec)
    sel = (t >= spec.window[0] - 1e-9) & (t <= spec.window[1] + 1e-9)
    try:
        env = pulse.emission_drive(t[sel], mhz(kappa_eff_mhz), node.kappa_T_rad)
        if reverse:
            catch = pulse.absorption_drive(env)
            env = pulse.shift(catch, offset)
            if env.energy() < 0.99 * catch.energy():
                raise ValueError(
                    f"time offset {offset} ns moves the receiver drive out of the "
                    f"drive window {spec.window} ns"
                )
    except ValueError as exc:
        raise ConfigError(
            f"{'receiver' if reverse else 'emission'} drive of the "
            f"{kappa_eff_mhz} MHz photon at node {name}: {exc}"
        ) from exc
    g = np.zeros_like(t)
    g[sel] = env.g_mag
    return pulse.DriveEnvelope(t, g)


QUTRIT_PREPS = {
    "g": ket(3, G),
    "e": ket(3, E),
    "f": ket(3, F),
    "gf": (ket(3, G) + ket(3, F)) / np.sqrt(2.0),
    "ef": (ket(3, E) + ket(3, F)) / np.sqrt(2.0),
}
for _ket in QUTRIT_PREPS.values():
    _ket.flags.writeable = False


def _link_problem(spec, nodes_link, emitter, preps, absorb=False):
    """The integration problem of one emission through the cascaded link for
    each preparation, as an ``integrate_me`` group (hamiltonian,
    collapse_ops, rho0s, expect).

    Node ``emitter`` ('A' or 'B') starts in each qutrit state of ``preps``
    and emits at its photon bandwidth, driven over the whole window; the
    other node starts in |g, 0> and, unless ``absorb`` makes B catch A's
    photon with the time-reversed drive, is not driven.  The preparations
    share one Hamiltonian and their initial states come from
    ``device.initial_state``.  The level populations
    (``device.LEVEL_PROJECTORS``), the mean output field <L> and the flux
    <L+L> of the cascade's jump operator L are recorded.  Building the
    drives raises ConfigError for a drive the run cannot build.
    """
    node_a, node_b, link = resolve_device(nodes_link, spec)
    from_a = emitter == "A"
    keff = spec.kappa_eff_a if from_a else spec.kappa_eff_b
    env = _drive(spec, node_a if from_a else node_b, emitter, keff)
    catch = _drive(spec, node_b, "B", keff, reverse=True, offset=link.time_offset) if absorb else None
    env_a, env_b = (env, catch) if from_a else (None, env)
    idle = ket(3, G)
    rho0s = [dev.initial_state(prep if from_a else idle, idle if from_a else prep) for prep in preps]
    h = dev.build_hamiltonian(node_a, node_b, link, env_a, env_b)
    cops = dev.build_collapse_ops(node_a, node_b, link)
    out = dev.output_field_op(node_a, node_b, link)
    return h, cops, rho0s, {**dev.LEVEL_PROJECTORS, "a_out": out, "n_out": out.conj().T @ out}


def _integrate_links(problems):
    """Integrate link problems (:func:`_link_problem`) in one
    ``integrate_me`` call and give every trajectory its output field.
    Returns, per problem in order, one (Trajectory, final state) pair per
    preparation."""
    runs = integrate_me(problems)
    for pairs in runs:
        for traj, _ in pairs:
            output_observables(traj)
    return runs


def _emission_result(spec, node, traj, rho_final):
    extras = {
        "final_populations": {level: traj.expect[f"P{level}_{node}"][-1].real for level in "gef"},
        "photon_integral": traj.photon_integral,
        "mean_field_power": traj.mean_field_power,
    }
    return RunResult(spec, traj, rho_final, extras)


def run_emissions(
    spec: ProtocolSpec | None = None,
    node: str = "B",
    initials=("f",),
    nodes_link=None,
) -> list[RunResult]:
    """Emit a shaped photon from one node (the other node sits idle), once
    for each initial state, in one integration.

    Each of ``initials`` is 'f' for the population curves or 'gf' for the
    mean-field photon (|0>+|1>)/sqrt(2).  The default spec has the
    emission-study window and no closing pulses.
    """
    spec = spec or ProtocolSpec(window=EMISSION_WINDOW, idle_ns=EMISSION_IDLE_NS)
    preps = [QUTRIT_PREPS[initial] for initial in initials]
    [runs] = _integrate_links([_link_problem(spec, nodes_link, node, preps)])
    return [_emission_result(spec, node, traj, rho_final) for traj, rho_final in runs]


def _mapped(runs):
    """Map B of each (trajectory, final state) pair back with an ideal
    pi_ef pulse and keep the two qutrits: (trajectory, two-qutrit state)."""
    u = embed(tomography.ef_swap(), dev.TRANSMON_SLOT["B"], dev.DIMS)
    keep = (dev.TRANSMON_SLOT["A"], dev.TRANSMON_SLOT["B"])
    return [
        (traj, partial_trace(u @ rho_final @ u.conj().T, dev.DIMS, keep=keep))
        for traj, rho_final in runs
    ]


def _transfer_problem(spec, nodes_link, prep, absorption=True):
    qubit = QUTRIT_PREPS[prep] if isinstance(prep, str) else np.asarray(prep, complex)
    return _link_problem(spec, nodes_link, "A", [tomography.ef_swap() @ qubit], absorption)


def _transfer_result(spec, run):
    [(traj, rho9)] = _mapped(run)
    extras = {"final_qutrit_b": partial_trace(rho9, (3, 3), keep=(1,))}
    return RunResult(spec, traj, rho9, extras)


def run_transfer(
    spec: ProtocolSpec | None = None,
    prep: str = "e",
    absorption: bool = True,
    nodes_link=None,
) -> RunResult:
    """Excitation transfer A -> B.

    The qubit state prepared at A is mapped to the {g, f} manifold with an
    ideal pi_ef pulse, emitted, absorbed at B with the time-reversed
    receiver-matched drive, and mapped back with a final pi_ef pulse on B.
    Returns the two-node trajectory and the final two-qutrit state.
    """
    spec = spec or ProtocolSpec()
    [run] = _integrate_links([_transfer_problem(spec, nodes_link, prep, absorption)])
    return _transfer_result(spec, run)


def run_transfer_efficiencies(spec: ProtocolSpec | None = None, nodes_link=None):
    """The four-run study behind the transfer efficiency and loss numbers.

    The transfer pair uses the protocol timing of ``spec``; the two
    mean-field emission references use the emission-study acquisition
    window.  Every drive is built first; each pair shares a grid and is
    integrated as one batch.
    """
    spec = spec or ProtocolSpec()
    emit_spec = replace(spec, window=EMISSION_WINDOW, idle_ns=EMISSION_IDLE_NS)
    gf = [QUTRIT_PREPS["gf"]]
    runs = _integrate_links([
        _transfer_problem(spec, nodes_link, "e", absorption=True),
        _transfer_problem(spec, nodes_link, "e", absorption=False),
        _link_problem(emit_spec, nodes_link, "A", gf),
        _link_problem(emit_spec, nodes_link, "B", gf),
    ])
    results = {
        "with": _transfer_result(spec, runs[0]),
        "without": _transfer_result(spec, runs[1]),
        "emit_a": _emission_result(emit_spec, "A", *runs[2][0]),
        "emit_b": _emission_result(emit_spec, "B", *runs[3][0]),
    }
    eff = efficiencies(*(results[k].trajectory for k in ("with", "without", "emit_a", "emit_b")))
    return eff, results


def _measure(rho, spec, rng):
    """Tomography populations of ``rho``, one row per setting of the gate
    set of its dimension: a 3x3 state is node B's qutrit, a 9x9 one the
    A-major pair.  Exact readout gives the Born probabilities.  With
    ``spec.shots``, the A-major label counts of every setting come from one
    ``readout.count_table`` call (per setting in order, an inverse-CDF
    joint cluster draw on ``Generator.random``, then each node's normal
    draws, labelled without building the shots through label tables built
    once per calibration) and are mitigated with the Kronecker product of the nodes' assignment
    matrices.
    """
    pops = tomography.born_probabilities(rho)
    if spec.shots is None:
        return pops
    nodes = ("B",) if len(rho) == 3 else ("A", "B")
    cals = [readout.default_calibration(node) for node in nodes]
    freqs = readout.count_table(cals, np.clip(pops, 0, None), spec.shots, rng) / spec.shots
    r = readout.kron(*[cal.analytic_assignment() for cal in cals])
    return readout.mitigate(freqs.T, r).populations.T


def run_state_transfer_qpt(spec: ProtocolSpec | None = None, nodes_link=None) -> RunResult:
    """Process tomography of the qubit transfer channel.

    Transfers the six mutually unbiased qubit input states in one
    integration, reconstructs each output at node B by MLE state tomography
    on the qutrit (the six as one stack), reduces to the {g, e} block
    without renormalization and inverts for the chi matrix.  Every input is
    integrated before the first readout draw, and the inputs are measured
    in order.  ``chi_direct`` is the same inversion of the directly
    simulated outputs.
    """
    spec = spec or ProtocolSpec()
    rng = np.random.default_rng(spec.seed)
    inputs = tomography.mub_qubit_states()
    swap = tomography.ef_swap()
    preps = [swap @ np.array([psi[0], psi[1], 0.0], dtype=complex) for psi in inputs]
    [runs] = _integrate_links([_link_problem(spec, nodes_link, "A", preps, absorb=True)])
    direct, measured = [], []
    for _, rho9 in _mapped(runs):
        rho3 = partial_trace(rho9, (3, 3), keep=(1,))
        direct.append(rho3[:2, :2])
        measured.append(_measure(rho3, spec, rng))
    outputs = tomography.qst_mle(np.stack(measured))[:, :2, :2]
    chi = tomography.qpt_linear_inversion(inputs, outputs)
    f_p = metrics.process_fidelity(chi, tomography.CHI_IDENTITY)
    extras = {
        "chi": chi,
        "chi_direct": tomography.qpt_linear_inversion(inputs, direct),
        "process_fidelity": f_p,
        "avg_state_fidelity_from_fp": (2.0 * f_p + 1.0) / 3.0,
        "avg_state_fidelity_direct": float(
            np.mean([(psi.conj() @ rho2 @ psi).real for psi, rho2 in zip(inputs, direct)])
        ),
    }
    return RunResult(spec, None, None, extras)


def run_entanglements(specs, nodes_link=None) -> list[RunResult]:
    """Deterministic remote entanglement, one run per spec of ``specs``.

    A starts in (|e>+|f>)/sqrt(2).  The f component is converted to a
    photon, absorbed at B and mapped to |e> by the final pi_ef pulse,
    targeting (|eg> + |ge>)/sqrt(2).  Every run's drives are built before
    the first one integrates (ConfigError); the runs are integrated as one
    batch per time grid, measured in order, each with its own ``spec.seed``
    RNG, and reconstructed as one MLE stack, so each result equals its run
    on its own.  Each returns the directly simulated two-qutrit state, its
    synthetic-tomography reconstruction, and the metrics bundle evaluated on
    the reconstruction.
    """
    runs = _integrate_links(
        [_link_problem(spec, nodes_link, "A", [QUTRIT_PREPS["ef"]], absorb=True) for spec in specs]
    )
    states = [_mapped(pairs)[0] for pairs in runs]
    measured = [
        _measure(rho9, spec, np.random.default_rng(spec.seed))
        for spec, (_, rho9) in zip(specs, states)
    ]
    recs = tomography.qst_mle(np.stack(measured))
    results = []
    for spec, (traj, rho9), pops, rho9_rec in zip(specs, states, measured, recs):
        bundle = metrics.bundle_from_state(rho9_rec)
        bundle.hs_distance = metrics.hs_distance(rho9, rho9_rec)
        extras = {
            "rho9_direct": rho9,
            "rho9_tomography": rho9_rec,
            "metrics": bundle,
            "tomography_populations": pops,
        }
        results.append(RunResult(spec, traj, rho9, extras))
    return results


def run_entanglement(spec: ProtocolSpec | None = None, nodes_link=None) -> RunResult:
    """The one-spec case of :func:`run_entanglements`."""
    [res] = run_entanglements([spec or ProtocolSpec()], nodes_link)
    return res


UPGRADE_COHERENCE_US = {"T1ge": 30.0, "T2ge": 30.0, "T1ef": 20.0, "T2ef": 20.0}
UPGRADE_ETA_C = 0.88


def run_upgrade_scenario(spec: ProtocolSpec | None = None, nodes_link=None) -> RunResult:
    """Entanglement with upgraded coherence (30/20 us) and 12% channel loss;
    the spec's overrides apply to the upgraded device, so its eta_c wins."""
    spec = spec or ProtocolSpec()
    node_a, node_b, link = dev.load_device() if nodes_link is None else nodes_link
    node_a, node_b = (replace(node, **UPGRADE_COHERENCE_US) for node in (node_a, node_b))
    return run_entanglement(spec, (node_a, node_b, replace(link, eta_c=UPGRADE_ETA_C)))


def error_budget(spec: ProtocolSpec | None = None, nodes_link=None) -> dict:
    """Fidelity gained by disabling the channel loss, decoherence, or both."""
    spec = spec or ProtocolSpec()
    specs = {
        "baseline": spec,
        "loss_off": replace(spec, eta_c=1.0),
        "decoherence_off": replace(spec, decoherence=False),
        "both_off": replace(spec, eta_c=1.0, decoherence=False),
    }
    runs = dict(zip(specs, run_entanglements(list(specs.values()), nodes_link)))
    fid = {name: run.extras["metrics"].state_fidelity for name, run in runs.items()}
    return {
        "fidelities": fid,
        "loss_off_delta": fid["loss_off"] - fid["baseline"],
        "decoherence_off_delta": fid["decoherence_off"] - fid["baseline"],
        "loss_only_infidelity": 1.0 - fid["decoherence_off"],
        "decoherence_only_infidelity": 1.0 - fid["loss_off"],
        "runs": runs,
    }

