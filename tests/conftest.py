import dataclasses

import numpy as np
import pytest

from photonlink.qops import projector

# the level projectors of one qutrit, which a (3,) run records as its
# populations "Pg", "Pe" and "Pf"
QUTRIT_LEVELS = {f"P{level}": projector(3, k) for k, level in enumerate("gef")}


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
