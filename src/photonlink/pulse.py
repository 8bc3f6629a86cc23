"""Shaped drives for emitting and absorbing sech-shaped single photons.

The emitter converts a transmon |f> excitation into a travelling photon with
the time-reversal-symmetric envelope phi(t) = sqrt(k_eff)/2 * sech(k_eff t/2)
by modulating the effective |f,0> <-> |g,1> coupling g(t).  The receiver
absorbs the photon with the time-reversed drive.  All rates are angular
(rad/ns), times are in ns; CSV export uses linear MHz.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .qops import TWO_PI_MHZ


def _sech(x):
    # overflow-safe sech
    x = np.abs(np.asarray(x, dtype=float))
    e = np.exp(-x)
    return 2.0 * e / (1.0 + e * e)


def photon_envelope(t, kappa_eff):
    """Photon amplitude envelope phi(t); normalized so integral |phi|^2 dt = 1."""
    if kappa_eff <= 0:
        raise ValueError("kappa_eff must be positive")
    return 0.5 * np.sqrt(kappa_eff) * _sech(0.5 * kappa_eff * np.asarray(t, float))


@dataclass(frozen=True)
class DriveEnvelope:
    """Sampled effective |f,0><->|g,1| coupling magnitude and phase.

    t : time grid (ns); g_mag : |g(t)| (rad/ns); phase : accumulated drive
    phase (rad).
    """

    t: np.ndarray
    g_mag: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "g_mag", np.asarray(self.g_mag, dtype=float))
        object.__setattr__(self, "phase", np.asarray(self.phase, dtype=float))
        if not (self.t.shape == self.g_mag.shape == self.phase.shape):
            raise ValueError("t, g_mag and phase must share one grid")
        if np.any(self.g_mag < 0):
            raise ValueError("g_mag must be nonnegative")

    @property
    def g_mag_mhz(self):
        return self.g_mag / TWO_PI_MHZ

    def complex_samples(self) -> np.ndarray:
        return self.g_mag * np.exp(1j * self.phase)

    def energy(self) -> float:
        """Integrated |g(t)|^2 dt (rad^2/ns)."""
        return float(np.trapezoid(self.g_mag**2, self.t))

    def check_tails(self, rel=1e-3):
        peak = self.g_mag.max()
        if peak > 0 and max(self.g_mag[0], self.g_mag[-1]) > rel * peak:
            raise ValueError("envelope does not vanish at the grid ends")
        return self


def default_grid(dt=0.1, span=300.0):
    """Symmetric time grid; +-300 ns keeps sech tails below 1e-4 of peak
    amplitude (1e-8 in power) for ~10 MHz bandwidths."""
    n = int(round(span / dt))
    return np.arange(-n, n + 1) * dt


def emission_drive(t_grid, kappa_eff, kappa_T, taper_ns=15.0) -> DriveEnvelope:
    """Drive g(t) that emits the sech photon through a resonator of width kappa_T.

    Samples the analytic shape exactly on the grid.  For kappa_eff < kappa_T
    the exact drive saturates to the constant (kappa_eff/2)*sqrt(kappa_T/
    kappa_eff - 1) at late times, where the emitter amplitudes have already
    decayed to nothing; a raised-cosine taper over the first/last ``taper_ns``
    turns the stored waveform off at the grid ends (set taper_ns=0 to disable).
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

    if taper_ns > 0:
        dt_lead = t - t[0]
        dt_tail = t[-1] - t
        for d in (dt_lead, dt_tail):
            w = np.where(d < taper_ns, 0.5 - 0.5 * np.cos(np.pi * d / taper_ns), 1.0)
            g = g * w
    return DriveEnvelope(t, g, np.zeros_like(t))


def absorption_drive(emission: DriveEnvelope, conjugate=True) -> DriveEnvelope:
    """Time-reverse an emission drive about t = 0.

    The magnitude is mirrored and the phase profile is mirrored and, by
    default, negated (complex conjugation under time reversal).  Applying the
    reversal twice returns the input exactly.
    """
    t = emission.t
    if abs(t[0] + t[-1]) > 1e-9:
        raise ValueError("time reversal requires a grid symmetric about t = 0")
    sign = -1.0 if conjugate else 1.0
    return replace(
        emission, g_mag=emission.g_mag[::-1].copy(), phase=sign * emission.phase[::-1]
    )


def shift(env: DriveEnvelope, offset_ns: float) -> DriveEnvelope:
    """Delay an envelope by offset_ns (positive = later), zero-padding edges."""
    if offset_ns == 0.0:
        return env
    g = np.interp(env.t - offset_ns, env.t, env.g_mag, left=0.0, right=0.0)
    ph = np.interp(env.t - offset_ns, env.t, env.phase)
    return replace(env, g_mag=g, phase=ph)


def truncate(env: DriveEnvelope, tau: float) -> DriveEnvelope:
    """Switch the drive off for t > tau, freezing the phase at its tau value."""
    if tau < env.t[0] - 1e-9 or tau > env.t[-1] + 1e-9:
        raise ValueError(f"tau = {tau} outside the envelope grid")
    late = env.t > tau
    g = env.g_mag.copy()
    g[late] = 0.0
    ph = env.phase.copy()
    ph[late] = np.interp(tau, env.t, env.phase)
    return replace(env, g_mag=g, phase=ph)


@dataclass(frozen=True)
class StarkModel:
    """Quadratic ac-Stark shift and linear coupling calibration of the f0g1 drive.

    quad_coeff_mhz: transition shift a*eps^2 in MHz at normalized drive
    amplitude eps; lin_coeff_mhz: coupling b*eps in MHz.  Defaults for the
    two nodes reproduce the calibrated peak couplings of 6.0 / 6.7 MHz at
    eps = 1; the quadratic coefficients are synthetic configuration inputs.
    """

    quad_coeff_mhz: float
    lin_coeff_mhz: float

    def __post_init__(self):
        if self.lin_coeff_mhz <= 0:
            raise ValueError("lin_coeff must be positive")


DEFAULT_STARK = {
    "A": StarkModel(quad_coeff_mhz=20.0, lin_coeff_mhz=6.0),
    "B": StarkModel(quad_coeff_mhz=20.0, lin_coeff_mhz=6.7),
}


def stark_phase_track(env: DriveEnvelope, model: StarkModel) -> DriveEnvelope:
    """Phase modulation compensating the drive-induced quadratic Stark shift.

    phase(t) = -2*pi * integral a*eps(t')^2 dt' with eps(t) = |g(t)|/b, both
    coefficients in MHz and t in ns; phase(start) = 0.
    """
    if not np.isfinite(model.quad_coeff_mhz) or not np.isfinite(model.lin_coeff_mhz):
        raise ValueError("Stark model coefficients must be finite")
    eps2 = (env.g_mag_mhz / model.lin_coeff_mhz) ** 2
    shift_rad_ns = TWO_PI_MHZ * model.quad_coeff_mhz * eps2
    phase = -_cumtrapz(shift_rad_ns, env.t)
    return replace(env, phase=phase)


def _cumtrapz(y, t):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def write_waveform_csv(env: DriveEnvelope, path):
    """Waveform export: columns t_ns, g_mag_MHz, phase_rad."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_ns", "g_mag_MHz", "phase_rad"])
        for ti, gi, pi in zip(env.t, env.g_mag_mhz, env.phase):
            writer.writerow([f"{ti:.9g}", f"{gi:.9g}", f"{pi:.9g}"])
