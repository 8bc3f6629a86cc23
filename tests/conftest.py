import dataclasses

import numpy as np
import pytest

from photonlink import protocols
from photonlink.protocols import ProtocolSpec
from photonlink.qops import TWO_PI_MHZ, projector

# the level projectors of one qutrit, which a (3,) run records as its
# populations "Pg", "Pe" and "Pf"
QUTRIT_LEVELS = {f"P{level}": projector(3, k) for k, level in enumerate("gef")}


def default_grid(dt=0.1, span=300.0):
    """Symmetric time grid; +-300 ns keeps sech tails below 1e-4 of peak
    amplitude (1e-8 in power) for ~10 MHz bandwidths."""
    n = int(round(span / dt))
    return np.arange(-n, n + 1) * dt


def to_mhz(omega):
    """Convert an angular rate in rad/ns back to a linear frequency in MHz."""
    return np.asarray(omega, dtype=float) / TWO_PI_MHZ


def random_density(dim, rng, rank=None):
    """Ginibre-random density matrix."""
    rank = rank or dim
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def cut_short(problem, steps):
    """An ``integrate_me`` group (hamiltonian, collapse_ops, rho0s, expect)
    cut after ``steps`` steps of its grid: the grid's first steps + 1 points
    and each drive term's first 2 steps + 1 half-step samples.  Its final
    states are, bit for bit, the states of the full run after that many
    steps, and its record is the first steps + 1 rows of the full one."""
    h, *rest = problem
    terms = tuple((op, samples[: 2 * steps + 1]) for op, samples in h.terms)
    return (dataclasses.replace(h, t=h.t[: steps + 1], terms=terms), *rest)


def populations(traj, suffix=""):
    """The (nt, 3) level populations P_g, P_e, P_f that ``traj`` recorded as
    the series "Pg" + suffix, "Pe" + suffix and "Pf" + suffix: "_A" or "_B"
    for a link run (``device.LEVEL_PROJECTORS``), "" for ``QUTRIT_LEVELS``."""
    return np.column_stack([traj.expect[f"P{level}{suffix}"].real for level in "gef"])


def random_pure(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def read_only(obj):
    """``obj``, with every array it holds through dataclass fields, dicts,
    lists and tuples made read-only: a session run is shared by many tests,
    so no test may change another's input."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            read_only(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            read_only(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            read_only(value)
    return obj


# --- the runs at the default ProtocolSpec(), each built once per session -----

@pytest.fixture(scope="session")
def emission_b():
    """Node B's emission of f at ``run_emissions``' default spec, the
    emission-study window."""
    return read_only(protocols.run_emissions(node="B", initials=("f",))[0])


@pytest.fixture(scope="session")
def transfer_study():
    """(efficiencies, runs) of ``run_transfer_efficiencies``."""
    return read_only(protocols.run_transfer_efficiencies(ProtocolSpec()))


@pytest.fixture(scope="session")
def qpt_run():
    return read_only(protocols.run_state_transfer_qpt(ProtocolSpec()))


@pytest.fixture(scope="session")
def entangle_run():
    return read_only(protocols.run_entanglement(ProtocolSpec()))


@pytest.fixture(scope="session")
def budget():
    return read_only(protocols.error_budget(ProtocolSpec()))


@pytest.fixture(scope="session")
def upgrade_run():
    return read_only(protocols.run_upgrade_scenario(ProtocolSpec()))


# --- runs at dt 0.5, the step tests/link_reference.json was recorded at ------

@pytest.fixture(scope="session")
def entangle_dt05():
    """The entanglement run at dt 0.5 ns, read-only."""
    return read_only(protocols.run_entanglement(ProtocolSpec(dt=0.5)))
