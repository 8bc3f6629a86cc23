import numpy as np
import pytest
from scipy.linalg import expm

from photonlink import device, dynamics, pulse
from photonlink.qops import DensityMatrix, destroy, embed, ket, mhz
from conftest import random_density


@pytest.fixture(scope="module")
def table():
    return device.load_device()


def test_frozen_dynamics(rng):
    rho0 = DensityMatrix((3,), random_density(3, rng))
    t = np.arange(0.0, 10.0, 0.5)
    traj, final = dynamics.integrate_me(np.zeros((3, 3), complex), [], rho0, t)
    assert np.abs(final.data - rho0.data).max() < 1e-12
    assert np.allclose(traj.pops[0][0], traj.pops[0][-1])


def test_single_qutrit_exponential_decay(table):
    node_a, _, _ = table
    t = np.arange(0.0, 2000.0, 1.0)
    decay = dict(device.single_node_collapse_ops(node_a))["decay_ge"]
    rho0 = DensityMatrix((3,), np.diag([0, 1.0, 0]).astype(complex))
    traj, _ = dynamics.integrate_me(np.zeros((3, 3), complex), [decay], rho0, t)
    expected = np.exp(-t / (node_a.T1ge * 1e3))
    err = np.abs(traj.pops[0][:, 1] - expected) / expected
    assert err.max() < 1e-4


def test_integrator_rejects_bad_grids(rng):
    rho0 = DensityMatrix((3,), random_density(3, rng))
    with pytest.raises(ValueError):
        dynamics.integrate_me(np.zeros((3, 3), complex), [], rho0, np.array([0.0, 1.0, 1.5]))
    with pytest.raises(ValueError):
        dynamics.integrate_me(np.zeros((3, 3), complex), [], rho0)


def test_trace_drift_aborts():
    # a decay rate far beyond the step stability limit blows up RK4
    t = np.arange(0.0, 20.0, 1.0)
    op = 10.0 * destroy(2)  # rate 100/ns at dt 1 ns
    rho0 = DensityMatrix((2,), np.diag([0, 1.0]).astype(complex))
    with pytest.raises(dynamics.TraceDriftError):
        dynamics.integrate_me(np.zeros((2, 2), complex), [op], rho0, t)


def test_two_level_oracle_zero_drive():
    t = pulse.default_grid(dt=0.1)
    env = pulse.DriveEnvelope(t, np.zeros_like(t), np.zeros_like(t), mhz(10), mhz(10))
    res = dynamics.two_level_oracle(env, mhz(10))
    assert np.all(res.flux == 0)
    assert np.abs(res.c_f - 1.0).max() < 1e-12


def test_two_level_oracle_constant_drive_matches_matrix_exponential():
    # constant g >> kappa: damped Rabi oscillation, checked against the
    # closed-form propagator of the constant non-Hermitian matrix
    kappa = mhz(2.0)
    g = mhz(20.0)
    t = np.arange(0.0, 200.0, 0.05)
    env = pulse.DriveEnvelope(t, np.full_like(t, g), np.zeros_like(t), kappa, kappa)
    res = dynamics.two_level_oracle(env, kappa)
    m = np.array([[0.0, -1j * g], [-1j * g, -kappa / 2]])
    for k in (500, 2000, 3999):
        exact = expm(m * t[k]) @ np.array([1.0, 0.0])
        assert abs(res.c_f[k] - exact[0]) < 1e-8
        assert abs(res.c_g1[k] - exact[1]) < 1e-8
    # eigenvalue analysis: decay kappa/2 shared between the hybridized modes
    eig = np.linalg.eigvals(m)
    assert np.allclose(eig.real, -kappa / 4)
    assert np.allclose(np.abs(eig.imag), np.sqrt(g**2 - (kappa / 4) ** 2))


def test_oracle_equivalence_with_full_master_equation(table):
    """Noiseless matched-linewidth emission: the 81-dim cascaded model
    reproduces the two-level oracle populations within 1e-3."""
    node_a, node_b, _ = table
    clean_a = device.without_decoherence(node_a)
    clean_b = device.without_decoherence(
        # matched kappa_T
        device.scale_coherence(node_b, 1.0)
    )
    import dataclasses

    clean_b = dataclasses.replace(clean_b, kappa_T=clean_a.kappa_T)
    link = device.LinkParams(eta_c=1.0)
    t = pulse.default_grid(dt=0.1, span=150)
    env = pulse.emission_drive(t, mhz(10.4), clean_a.kappa_T_rad)
    h = device.build_hamiltonian(clean_a, clean_b, link, env, None, fock=3, lo_frame=True)
    cops = device.build_collapse_ops(clean_a, clean_b, link, fock=3)
    dims = h.dims
    psi = np.kron(np.kron(ket(3, 2), ket(3, 0)), np.kron(ket(3, 0), ket(3, 0)))
    traj, _ = dynamics.integrate_me(h, cops, DensityMatrix(dims, np.outer(psi, psi.conj())))
    oracle = dynamics.two_level_oracle(env, clean_a.kappa_T_rad)
    assert np.abs(traj.pops_A[:, 2] - np.abs(oracle.c_f) ** 2).max() < 1e-3
    assert np.abs(traj.pops_A[:, 0] - (1 - np.abs(oracle.c_f) ** 2)).max() < 1e-3


def test_excitation_bookkeeping(table):
    """With only emission channels, qutrit weight + photons + integrated
    emitted and lost flux is conserved."""
    node_a, node_b, _ = table
    clean_a = device.without_decoherence(node_a)
    clean_b = device.without_decoherence(node_b)
    link = device.LinkParams(eta_c=0.77)
    t = pulse.default_grid(dt=0.1, span=150)
    env = pulse.emission_drive(t, mhz(10.4), clean_a.kappa_T_rad)
    h = device.build_hamiltonian(clean_a, clean_b, link, env, None, fock=3, lo_frame=True)
    cops = device.build_collapse_ops(clean_a, clean_b, link, fock=3)
    dims = h.dims
    a_a = embed(destroy(3), 1, dims)
    a_b = embed(destroy(3), 3, dims)
    out = device.output_field_op(clean_a, clean_b, link, fock=3)
    expect = {
        "n_A": a_a.conj().T @ a_a,
        "n_B": a_b.conj().T @ a_b,
        "a_out": out,
        "n_out": out.conj().T @ out,
    }
    psi = np.kron(np.kron(ket(3, 2), ket(3, 0)), np.kron(ket(3, 0), ket(3, 0)))
    traj, _ = dynamics.integrate_me(
        h, cops, DensityMatrix(dims, np.outer(psi, psi.conj())), expect=expect
    )
    dynamics.output_observables(traj)
    from scipy.integrate import cumulative_trapezoid

    # the f0g1 process trades two transmon quanta for one photon, so the
    # conserved count is ladder weight + 2*(photons + integrated flux)
    ladder = np.array([0.0, 1.0, 2.0])
    photons = traj.expect["n_A"].real + traj.expect["n_B"].real
    loss_flux = clean_a.kappa_T_rad * (1 - link.eta_c) * traj.expect["n_A"].real
    emitted = np.concatenate(
        [[0.0], cumulative_trapezoid(traj.flux_out + loss_flux, traj.t)]
    )
    total = traj.pops_A @ ladder + traj.pops_B @ ladder + 2 * photons + 2 * emitted
    assert np.abs(total - total[0]).max() < 1e-4


def test_drive_off_photon_handoff(table):
    """A lone photon in resonator A decays monotonically; with a lossless
    channel and matched linewidths it is fully emitted into B's input."""
    import dataclasses

    node_a, node_b, _ = table
    clean_a = device.without_decoherence(node_a)
    clean_b = dataclasses.replace(device.without_decoherence(node_b), kappa_T=node_a.kappa_T)
    link = device.LinkParams(eta_c=1.0)
    t = np.arange(0.0, 400.0, 0.1)
    zero = pulse.DriveEnvelope(t, np.zeros_like(t), np.zeros_like(t), mhz(10.4), clean_a.kappa_T_rad)
    h = device.build_hamiltonian(clean_a, clean_b, link, zero, None, fock=3, lo_frame=True)
    cops = device.build_collapse_ops(clean_a, clean_b, link, fock=3)
    dims = h.dims
    a_a = embed(destroy(3), 1, dims)
    a_b = embed(destroy(3), 3, dims)
    out = device.output_field_op(clean_a, clean_b, link, fock=3)
    expect = {
        "n_A": a_a.conj().T @ a_a,
        "n_B": a_b.conj().T @ a_b,
        "a_out": out,
        "n_out": out.conj().T @ out,
    }
    psi = np.kron(np.kron(ket(3, 0), ket(3, 1)), np.kron(ket(3, 0), ket(3, 0)))
    traj, _ = dynamics.integrate_me(
        h, cops, DensityMatrix(dims, np.outer(psi, psi.conj())), expect=expect
    )
    dynamics.output_observables(traj)
    photons = traj.expect["n_A"].real + traj.expect["n_B"].real
    assert np.all(np.diff(photons) < 1e-12)
    assert traj.photon_integral == pytest.approx(1.0, abs=1e-4)


def test_trace_preservation_and_positivity(table):
    node_a, node_b, link = table
    t = pulse.default_grid(dt=0.1, span=120)
    env = pulse.emission_drive(t, mhz(10.6), node_b.kappa_T_rad)
    h = device.build_hamiltonian(node_a, node_b, link, None, env, fock=3, lo_frame=True)
    cops = device.build_collapse_ops(node_a, node_b, link, fock=3)
    dims = h.dims
    psi = np.kron(np.kron(ket(3, 0), ket(3, 0)), np.kron(ket(3, 2), ket(3, 0)))
    traj, final = dynamics.integrate_me(
        h, cops, DensityMatrix(dims, np.outer(psi, psi.conj())), store_states=400
    )
    for _, rho in traj.states:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(rho).min() > -1e-7
    final.validate()


def test_step_halving_convergence(table):
    node_a, node_b, link = table
    finals = []
    for dt in (0.1, 0.05):
        t = pulse.default_grid(dt=dt, span=120)
        env = pulse.emission_drive(t, mhz(10.6), node_b.kappa_T_rad)
        h = device.build_hamiltonian(node_a, node_b, link, None, env, fock=3, lo_frame=True)
        cops = device.build_collapse_ops(node_a, node_b, link, fock=3)
        dims = h.dims
        psi = np.kron(np.kron(ket(3, 0), ket(3, 0)), np.kron(ket(3, 2), ket(3, 0)))
        _, final = dynamics.integrate_me(
            h, cops, DensityMatrix(dims, np.outer(psi, psi.conj()))
        )
        finals.append(final.data)
    assert np.abs(finals[0] - finals[1]).max() < 1e-6


def test_output_observables_requirements(rng):
    traj = dynamics.Trajectory(t=np.arange(3.0), pops=[np.zeros((3, 3))])
    with pytest.raises(ValueError):
        dynamics.output_observables(traj)
    with pytest.raises(ValueError):
        traj.photon_integral
    zeros = np.zeros(3, dtype=complex)
    traj.expect = {"a_out": zeros, "n_out": zeros}
    mean, flux = dynamics.output_observables(traj)
    assert np.all(mean == 0) and np.all(flux == 0)
    assert traj.photon_integral == 0.0


def test_efficiencies_guard_against_empty_reference():
    t = np.arange(4.0)
    empty = dynamics.Trajectory(
        t=t, pops=[np.zeros((4, 3)), np.zeros((4, 3))]
    )
    empty.flux_out = np.zeros(4)
    empty.a_mean_out = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError):
        dynamics.efficiencies(empty, empty, empty, empty)


def test_trajectory_csv_export(tmp_path, table):
    node_a, node_b, link = table
    t = pulse.default_grid(dt=1.0, span=100)
    env = pulse.emission_drive(t, mhz(10.6), node_b.kappa_T_rad)
    h = device.build_hamiltonian(node_a, node_b, link, None, env, fock=2, lo_frame=True)
    cops = device.build_collapse_ops(node_a, node_b, link, fock=2)
    dims = h.dims
    out = device.output_field_op(node_a, node_b, link, fock=2)
    psi = np.kron(np.kron(ket(3, 2), ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    traj, _ = dynamics.integrate_me(
        h,
        cops,
        DensityMatrix(dims, np.outer(psi, psi.conj())),
        expect={"a_out": out, "n_out": out.conj().T @ out},
    )
    dynamics.output_observables(traj)
    path = tmp_path / "traj.csv"
    dynamics.write_trajectory_csv(traj, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0].split(",") == [
        "t_ns", "Pg_A", "Pe_A", "Pf_A", "Pg_B", "Pe_B", "Pf_B", "re_aout", "im_aout", "flux",
    ]
    assert len(rows) == len(t) + 1
    first = [float(x) for x in rows[1].split(",")]
    assert first[3] == pytest.approx(1.0)  # Pf_A starts at 1
