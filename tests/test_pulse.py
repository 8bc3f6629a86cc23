import numpy as np
import pytest

from photonlink import pulse
from photonlink.dynamics import two_level_oracle
from photonlink.qops import mhz, to_mhz

KEFF_A = mhz(10.4)
KEFF_B = mhz(10.6)
KT_A = mhz(10.4)
KT_B = mhz(13.5)


def test_envelope_peak_value():
    for keff in (KEFF_A, KEFF_B):
        assert pulse.photon_envelope(0.0, keff) == pytest.approx(np.sqrt(keff) / 2)


def test_envelope_is_normalized_and_even():
    t = pulse.default_grid(dt=0.05)
    phi = pulse.photon_envelope(t, KEFF_A)
    assert np.trapezoid(phi**2, t) == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(phi, phi[::-1])


def test_envelope_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        pulse.photon_envelope(0.0, -1.0)


def test_emission_drive_matched_linewidth_is_sech():
    # kappa_eff = kappa_T: g(t) = (kappa/2) sech(kappa t / 2)
    t = pulse.default_grid()
    env = pulse.emission_drive(t, KT_A, KT_A, taper_ns=0.0)
    expected = 0.5 * KT_A / np.cosh(0.5 * KT_A * t)
    assert np.allclose(env.g_mag, expected, atol=1e-12)
    assert env.g_mag[len(t) // 2] == pytest.approx(KT_A / 2)


def test_emission_drive_vanishes_at_early_times():
    t = pulse.default_grid()
    env = pulse.emission_drive(t, KEFF_B, KT_B)
    peak = env.g_mag.max()
    assert env.g_mag[0] < 1e-3 * peak
    assert env.g_mag[-1] < 1e-3 * peak
    env.check_tails()


def test_emission_drive_peak_below_calibrated_maximum():
    t = pulse.default_grid()
    env_a = pulse.emission_drive(t, KEFF_A, KT_A)
    env_b = pulse.emission_drive(t, KEFF_B, KT_B)
    assert to_mhz(env_a.g_mag.max()) <= 6.0
    assert to_mhz(env_b.g_mag.max()) <= 6.7


def test_emission_drive_rejects_bandwidth_above_linewidth():
    t = pulse.default_grid()
    with pytest.raises(ValueError):
        pulse.emission_drive(t, 1.01 * KT_A, KT_A)


def test_emission_drive_rejects_short_grid():
    t = np.arange(-50.0, 50.0, 0.1)
    with pytest.raises(ValueError):
        pulse.emission_drive(t, KEFF_A, KT_A)


def test_emission_energy_is_grid_converged():
    e = []
    for dt in (0.1, 0.05):
        t = pulse.default_grid(dt=dt)
        e.append(pulse.emission_drive(t, KEFF_B, KT_B).energy())
    assert abs(e[1] - e[0]) / e[0] < 1e-6


@pytest.mark.parametrize("ratio", [1.0, 0.77, 0.5])
def test_two_level_model_emits_sech_squared_flux(ratio):
    kappa_t = KEFF_A / ratio
    t = pulse.default_grid(dt=0.05)
    env = pulse.emission_drive(t, KEFF_A, kappa_t)
    res = two_level_oracle(env, kappa_t)
    ideal = 0.25 * KEFF_A / np.cosh(0.5 * KEFF_A * t) ** 2
    err = np.linalg.norm(res.flux - ideal) / np.linalg.norm(ideal)
    assert err < 1e-3
    assert res.emitted == pytest.approx(1.0, abs=1e-3)


def test_absorption_symmetric_case_equals_emission():
    t = pulse.default_grid()
    env = pulse.emission_drive(t, KT_A, KT_A)
    rev = pulse.absorption_drive(env)
    assert np.allclose(rev.g_mag, env.g_mag, atol=1e-12)


def test_absorption_reversal_is_involution():
    t = pulse.default_grid()
    env = pulse.emission_drive(t, KEFF_B, KT_B)
    env = pulse.stark_phase_track(env, pulse.DEFAULT_STARK["B"])
    twice = pulse.absorption_drive(pulse.absorption_drive(env))
    assert np.array_equal(twice.g_mag, env.g_mag)
    assert np.array_equal(twice.phase, env.phase)


def test_absorption_differs_when_bandwidth_below_linewidth():
    t = pulse.default_grid()
    env = pulse.emission_drive(t, KEFF_B, KT_B)
    rev = pulse.absorption_drive(env)
    assert np.abs(rev.g_mag - env.g_mag).max() > 0.01 * env.g_mag.max()


def test_absorption_phase_conjugation_flag():
    t = pulse.default_grid()
    env = pulse.stark_phase_track(
        pulse.emission_drive(t, KEFF_B, KT_B), pulse.DEFAULT_STARK["B"]
    )
    conj = pulse.absorption_drive(env)
    plain = pulse.absorption_drive(env, conjugate=False)
    assert np.allclose(conj.phase, -plain.phase)


def test_truncate_limits():
    t = pulse.default_grid()
    env = pulse.emission_drive(t, KEFF_B, KT_B)
    assert np.array_equal(pulse.truncate(env, t[-1]).g_mag, env.g_mag)
    assert pulse.truncate(env, t[0]).g_mag[1:].max() == 0.0
    with pytest.raises(ValueError):
        pulse.truncate(env, t[-1] + 1.0)


def test_truncate_at_center_halves_energy():
    # symmetric magnitude at kappa_eff = kappa_T; the trapezoid rule adds at
    # most half a panel, g(0)^2 dt / 2, at the cut
    t = pulse.default_grid()
    env = pulse.emission_drive(t, KT_A, KT_A)
    half = pulse.truncate(env, 0.0)
    dt = t[1] - t[0]
    panel = env.g_mag.max() ** 2 * dt
    assert half.energy() == pytest.approx(env.energy() / 2, abs=panel)


def test_truncate_freezes_phase():
    t = pulse.default_grid()
    env = pulse.stark_phase_track(
        pulse.emission_drive(t, KEFF_B, KT_B), pulse.DEFAULT_STARK["B"]
    )
    cut = pulse.truncate(env, 10.0)
    frozen = np.interp(10.0, env.t, env.phase)
    assert np.allclose(cut.phase[cut.t > 10.0], frozen)


def test_stark_phase_zero_without_shift():
    t = pulse.default_grid()
    env = pulse.emission_drive(t, KEFF_A, KT_A)
    out = pulse.stark_phase_track(env, pulse.StarkModel(0.0, 6.0))
    assert np.all(out.phase == 0.0)


def test_stark_phase_constant_drive_is_linear_ramp():
    t = np.arange(0.0, 100.0, 0.1)
    lin = 6.0
    eps = 0.5
    env = pulse.DriveEnvelope(t, np.full_like(t, eps * mhz(lin)), np.zeros_like(t))
    model = pulse.StarkModel(quad_coeff_mhz=20.0, lin_coeff_mhz=lin)
    out = pulse.stark_phase_track(env, model)
    slope = np.diff(out.phase) / np.diff(t)
    expected = -2 * np.pi * 20.0 * eps**2 * 1e-3  # rad/ns
    assert np.allclose(slope, expected, atol=1e-12)
    assert out.phase[0] == 0.0


def test_stark_phase_quadratic_scaling():
    t = np.arange(0.0, 50.0, 0.1)
    model = pulse.StarkModel(quad_coeff_mhz=15.0, lin_coeff_mhz=6.0)
    shape = np.exp(-((t - 25.0) ** 2) / 50.0)
    one = pulse.stark_phase_track(
        pulse.DriveEnvelope(t, mhz(2.0) * shape, np.zeros_like(t)), model
    )
    two = pulse.stark_phase_track(
        pulse.DriveEnvelope(t, mhz(4.0) * shape, np.zeros_like(t)), model
    )
    assert two.phase[-1] == pytest.approx(4 * one.phase[-1], rel=1e-12)


def test_stark_phase_additive_over_concatenation():
    t = np.arange(0.0, 80.0, 0.1)
    model = pulse.StarkModel(quad_coeff_mhz=20.0, lin_coeff_mhz=6.0)
    g = mhz(3.0) * np.exp(-((t - 40.0) ** 2) / 100.0)
    full = pulse.stark_phase_track(
        pulse.DriveEnvelope(t, g, np.zeros_like(t)), model
    )
    k = len(t) // 2
    first = pulse.stark_phase_track(
        pulse.DriveEnvelope(t[: k + 1], g[: k + 1], np.zeros_like(t[: k + 1])),
        model,
    )
    second = pulse.stark_phase_track(
        pulse.DriveEnvelope(t[k:], g[k:], np.zeros_like(t[k:])), model
    )
    assert full.phase[-1] == pytest.approx(first.phase[-1] + second.phase[-1], rel=1e-12)


def test_stark_model_validation():
    with pytest.raises(ValueError):
        pulse.StarkModel(quad_coeff_mhz=10.0, lin_coeff_mhz=0.0)
    with pytest.raises(ValueError):
        pulse.stark_phase_track(
            pulse.DriveEnvelope(np.arange(3.0), np.zeros(3), np.zeros(3)),
            pulse.StarkModel(np.inf, 6.0),
        )


def test_default_stark_reproduces_peak_couplings():
    assert pulse.DEFAULT_STARK["A"].lin_coeff_mhz == pytest.approx(6.0)
    assert pulse.DEFAULT_STARK["B"].lin_coeff_mhz == pytest.approx(6.7)


def test_shift_delays_envelope():
    t = pulse.default_grid()
    env = pulse.emission_drive(t, KEFF_B, KT_B)
    assert pulse.shift(env, 0.0) is env
    moved = pulse.shift(env, 5.0)
    k = np.argmax(env.g_mag)
    assert moved.t[np.argmax(moved.g_mag)] == pytest.approx(env.t[k] + 5.0, abs=0.2)


def test_waveform_csv_round_trip(tmp_path):
    t = pulse.default_grid(dt=1.0)
    env = pulse.emission_drive(t, KEFF_B, KT_B)
    path = tmp_path / "wave.csv"
    pulse.write_waveform_csv(env, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "t_ns,g_mag_MHz,phase_rad"
    assert len(rows) == len(t) + 1
    mid = rows[1 + len(t) // 2].split(",")
    assert float(mid[1]) == pytest.approx(to_mhz(env.g_mag[len(t) // 2]), rel=1e-6)
