"""Independent references the tests compare the package against: the lossy
two-level model of the f0g1 emission, the trace distance, a density-matrix
check, the published two-node assignment table and the k-node joint shot
sampler.  No run of the package calls them."""

from dataclasses import dataclass

import numpy as np

from photonlink.dynamics import _simpson
from photonlink.pulse import DriveEnvelope
from photonlink.qops import kron
from photonlink.readout import _cluster_cdf, _cluster_dtype, _joint_clusters

# measured two-qutrit assignment probabilities (percent, prepared as columns,
# basis order gg, ge, gf, eg, ee, ef, fg, fe, ff)
TABLE_R_TWO_NODE_PERCENT = np.array(
    [
        [96.8, 3.9, 1.1, 4.9, 0.2, 0.1, 1.2, 0.0, 0.0],
        [0.9, 91.9, 6.0, 0.0, 4.7, 0.3, 0.0, 1.2, 0.1],
        [0.6, 2.5, 91.1, 0.0, 0.1, 4.6, 0.0, 0.0, 1.2],
        [1.0, 0.0, 0.0, 91.9, 3.7, 1.1, 4.7, 0.2, 0.1],
        [0.0, 0.9, 0.1, 0.8, 87.3, 5.7, 0.0, 4.5, 0.3],
        [0.0, 0.0, 0.9, 0.6, 2.4, 86.5, 0.0, 0.1, 4.4],
        [0.8, 0.0, 0.0, 1.6, 0.1, 0.0, 92.5, 3.7, 1.1],
        [0.0, 0.7, 0.0, 0.0, 1.6, 0.1, 0.8, 87.9, 5.8],
        [0.0, 0.0, 0.7, 0.0, 0.0, 1.6, 0.6, 2.4, 87.1],
    ]
)


def trace_norm_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Conventional trace distance (1/2)*||X-Y||_1."""
    d = np.asarray(x, complex) - np.asarray(y, complex)
    return float(0.5 * np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T))).sum())


def check_density_matrix(rho):
    """Check that ``rho`` is Hermitian (to 1e-10), has unit trace (to 1e-8)
    and no eigenvalue below -1e-7; raises ValueError on a violation."""
    rho = np.asarray(rho, dtype=complex)
    herm = np.abs(rho - rho.conj().T).max()
    if herm > 1e-10:
        raise ValueError(f"not Hermitian: max deviation {herm:.3e}")
    drift = abs(np.trace(rho) - 1.0)
    if drift > 1e-8:
        raise ValueError(f"trace off target by {drift:.3e}")
    lo = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if lo < -1e-7:
        raise ValueError(f"negative eigenvalue {lo:.3e}")


@dataclass(frozen=True)
class TwoLevelResult:
    t: np.ndarray
    c_f: np.ndarray       # |f,0> amplitude
    c_g1: np.ndarray      # |g,1> amplitude
    flux: np.ndarray      # kappa |c_g1|^2, photons/ns

    @property
    def emitted(self):
        return _simpson(self.flux, self.t)


def two_level_oracle(g_env: DriveEnvelope, kappa: float) -> TwoLevelResult:
    """Integrate the lossy two-level model of the f0g1 transition.

    The Schrodinger equation i dpsi/dt = [[0, g(t)], [g(t), -i kappa/2]] psi
    acts on the amplitudes of |f,0> and |g,1>, starting in |f,0>; the
    anti-Hermitian part drains |g,1> at rate kappa into the emitted field, so
    the emitted flux is kappa |c_g1|^2 and the total emitted probability is
    1 - surviving norm.  As in ``dynamics.integrate_me``, ``g_env`` is
    sampled on the half-step grid, an odd number of samples, and the RK4
    scheme steps over every other one, ``g_env.t[::2]``, on which the result
    is returned.
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


def joint_shots(cals, p, n: int, seed) -> list[np.ndarray]:
    """n joint shots of the nodes ``cals``, one (n, 2) array of (u, v) per node.

    ``p`` holds the populations of the 3**k joint levels, A-major in the order
    of ``cals``.  One draw picks a joint cluster per shot from the normalized
    kron(prep_1, ..., prep_k) @ p, by an inverse CDF on ``Generator.random``,
    so the labels follow the Kronecker product of the nodes'
    ``analytic_assignment()``; each node then draws its Gaussian shots, in
    node order.  ``seed`` is a seed or a numpy Generator.  These are the
    draws ``readout.count_table`` labels without building the shots, and
    for one node those of ``ReadoutCalibration.simulate_shots``.
    """
    k = len(cals)
    cdf = _cluster_cdf(kron(*[cal.prep_weights for cal in cals]), p)
    rng = np.random.default_rng(seed)  # a Generator is returned unchanged
    joint = _joint_clusters(cdf, rng.random(n), np.empty(n, _cluster_dtype(k)))
    # node i's cluster is digit i of the A-major joint cluster
    return [
        cal.model.draw((np.arange(3**k) // 3 ** (k - 1 - i) % 3).take(joint), rng)
        for i, cal in enumerate(cals)
    ]
