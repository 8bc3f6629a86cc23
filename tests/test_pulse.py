import numpy as np
import pytest

from photonlink import pulse
from photonlink.qops import mhz
from conftest import default_grid, to_mhz
from oracles import two_level_oracle

KEFF_A = mhz(10.4)
KEFF_B = mhz(10.6)
KT_A = mhz(10.4)
KT_B = mhz(13.5)


def test_emission_drive_matched_linewidth_is_sech():
    # kappa_eff = kappa_T: g(t) = (kappa/2) sech(kappa t / 2) wherever the
    # taper weight is exactly 1, at least TAPER_NS from both grid ends
    t = default_grid()
    env = pulse.emission_drive(t, KT_A, KT_A)
    inner = (t - t[0] >= pulse.TAPER_NS) & (t[-1] - t >= pulse.TAPER_NS)
    expected = 0.5 * KT_A / np.cosh(0.5 * KT_A * t)
    assert np.allclose(env.g_mag[inner], expected[inner], atol=1e-12)
    assert env.g_mag[len(t) // 2] == pytest.approx(KT_A / 2)


def test_emission_drive_vanishes_at_early_times():
    t = default_grid()
    env = pulse.emission_drive(t, KEFF_B, KT_B)
    peak = env.g_mag.max()
    assert env.g_mag[0] < 1e-3 * peak
    assert env.g_mag[-1] < 1e-3 * peak
    # the taper switches the stored drive off exactly at both grid ends
    assert env.g_mag[0] == env.g_mag[-1] == 0.0


def test_emission_drive_peak_below_calibrated_maximum():
    t = default_grid()
    env_a = pulse.emission_drive(t, KEFF_A, KT_A)
    env_b = pulse.emission_drive(t, KEFF_B, KT_B)
    assert to_mhz(env_a.g_mag.max()) <= 6.0
    assert to_mhz(env_b.g_mag.max()) <= 6.7


def test_emission_drive_rejects_bandwidth_above_linewidth():
    t = default_grid()
    with pytest.raises(ValueError):
        pulse.emission_drive(t, 1.01 * KT_A, KT_A)


def test_emission_drive_rejects_short_grid():
    t = np.arange(-50.0, 50.0, 0.1)
    with pytest.raises(ValueError):
        pulse.emission_drive(t, KEFF_A, KT_A)


def test_emission_energy_is_grid_converged():
    e = []
    for dt in (0.1, 0.05):
        t = default_grid(dt=dt)
        e.append(pulse.emission_drive(t, KEFF_B, KT_B).energy())
    assert abs(e[1] - e[0]) / e[0] < 1e-6


@pytest.mark.parametrize("ratio", [1.0, 0.77, 0.5])
def test_two_level_model_emits_sech_squared_flux(ratio):
    kappa_t = KEFF_A / ratio
    half = default_grid(dt=0.025)
    env = pulse.emission_drive(half, KEFF_A, kappa_t)
    res = two_level_oracle(env, kappa_t)
    ideal = 0.25 * KEFF_A / np.cosh(0.5 * KEFF_A * res.t) ** 2
    err = np.linalg.norm(res.flux - ideal) / np.linalg.norm(ideal)
    assert err < 1e-3
    assert res.emitted == pytest.approx(1.0, abs=1e-3)


def test_absorption_symmetric_case_equals_emission():
    t = default_grid()
    env = pulse.emission_drive(t, KT_A, KT_A)
    rev = pulse.absorption_drive(env)
    assert np.allclose(rev.g_mag, env.g_mag, atol=1e-12)


def test_absorption_reversal_is_involution():
    t = default_grid()
    env = pulse.emission_drive(t, KEFF_B, KT_B)
    twice = pulse.absorption_drive(pulse.absorption_drive(env))
    assert np.array_equal(twice.g_mag, env.g_mag)


def test_absorption_differs_when_bandwidth_below_linewidth():
    t = default_grid()
    env = pulse.emission_drive(t, KEFF_B, KT_B)
    rev = pulse.absorption_drive(env)
    assert np.abs(rev.g_mag - env.g_mag).max() > 0.01 * env.g_mag.max()


def test_shift_delays_envelope():
    t = default_grid()
    env = pulse.emission_drive(t, KEFF_B, KT_B)
    assert pulse.shift(env, 0.0) is env
    moved = pulse.shift(env, 5.0)
    k = np.argmax(env.g_mag)
    assert moved.t[np.argmax(moved.g_mag)] == pytest.approx(env.t[k] + 5.0, abs=0.2)
