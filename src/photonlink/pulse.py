"""Shaped drives for emitting and absorbing sech-shaped single photons.

The emitter converts a transmon |f> excitation into a travelling photon with
the time-reversal-symmetric envelope phi(t) = sqrt(k_eff)/2 * sech(k_eff t/2)
by modulating the effective |f,0> <-> |g,1> coupling g(t).  The receiver
absorbs the photon with the time-reversed drive.  Each drive is resonant
with its Stark-shifted transition, so in that frame g(t) is real and a drive
is one nonnegative amplitude sampled on a time grid.  All rates are angular
(rad/ns) and times are in ns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


# the raised-cosine taper (ns) that turns every emission drive on over the
# first and off over the last TAPER_NS of its grid
TAPER_NS = 15.0


def _sech(x):
    # overflow-safe sech
    x = np.abs(np.asarray(x, dtype=float))
    e = np.exp(-x)
    return 2.0 * e / (1.0 + e * e)


@dataclass(frozen=True, eq=False)
class DriveEnvelope:
    """Sampled effective |f,0><->|g,1| coupling, real in the frame of the
    Stark-shifted transition.

    t : time grid (ns); g_mag : g(t) >= 0 (rad/ns).
    """

    t: np.ndarray
    g_mag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "g_mag", np.asarray(self.g_mag, dtype=float))
        if self.t.shape != self.g_mag.shape:
            raise ValueError("t and g_mag must share one grid")
        if np.any(self.g_mag < 0):
            raise ValueError("g_mag must be nonnegative")

    def energy(self) -> float:
        """Integrated |g(t)|^2 dt (rad^2/ns)."""
        return float(np.trapezoid(self.g_mag**2, self.t))


def emission_drive(t_grid, kappa_eff, kappa_T) -> DriveEnvelope:
    """Drive g(t) that emits the sech photon through a resonator of width kappa_T.

    Samples the analytic shape exactly on the grid.  For kappa_eff < kappa_T
    the exact drive saturates to the constant (kappa_eff/2)*sqrt(kappa_T/
    kappa_eff - 1) at late times, where the emitter amplitudes have already
    decayed to nothing; a raised-cosine taper over the first and last
    ``TAPER_NS`` turns the stored waveform on and off at the grid ends, so
    its first and last samples are 0.
    """
    t = np.asarray(t_grid, dtype=float)
    if kappa_eff <= 0 or kappa_T <= 0:
        raise ValueError("rates must be positive")
    if kappa_eff > kappa_T * (1 + 1e-12):
        raise ValueError("kappa_eff must not exceed kappa_T")
    if t[0] > -6.0 / kappa_eff or t[-1] < 6.0 / kappa_eff:
        raise ValueError("grid must span at least +-6/kappa_eff")

    r = kappa_T / kappa_eff
    x = kappa_eff * t
    g = np.empty_like(t)
    neg = x <= 0
    # direct form for x <= 0; exp(-x)-scaled form for x > 0 to avoid overflow
    ex = np.exp(x[neg])
    num = 1.0 - ex + (1.0 + ex) * r
    den = np.sqrt((1.0 + ex) * r - ex)
    g[neg] = 0.25 * kappa_eff * _sech(0.5 * x[neg]) * num / den
    pos = ~neg
    emx = np.exp(-x[pos])
    num = (r - 1.0) + emx * (1.0 + r)
    den = np.sqrt((r - 1.0) + r * emx)
    g[pos] = 0.25 * kappa_eff * _sech(0.5 * x[pos]) * np.exp(0.5 * x[pos]) * num / den

    for d in (t - t[0], t[-1] - t):
        g = g * np.where(d < TAPER_NS, 0.5 - 0.5 * np.cos(np.pi * d / TAPER_NS), 1.0)
    return DriveEnvelope(t, g)


def absorption_drive(emission: DriveEnvelope) -> DriveEnvelope:
    """Time-reverse an emission drive about t = 0.

    The amplitude is mirrored; applying the reversal twice returns the input
    exactly.
    """
    t = emission.t
    if abs(t[0] + t[-1]) > 1e-9:
        raise ValueError("time reversal requires a grid symmetric about t = 0")
    return replace(emission, g_mag=emission.g_mag[::-1].copy())


def shift(env: DriveEnvelope, offset_ns: float) -> DriveEnvelope:
    """Delay an envelope by offset_ns (positive = later), zero-padding edges."""
    if offset_ns == 0.0:
        return env
    g = np.interp(env.t - offset_ns, env.t, env.g_mag, left=0.0, right=0.0)
    return replace(env, g_mag=g)

