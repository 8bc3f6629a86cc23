import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from photonlink import device, dynamics, pulse
from photonlink.qops import DensityMatrix, destroy, embed, ket, mhz, partial_trace
from conftest import random_density


@pytest.fixture(scope="module")
def table():
    return device.load_device()


def _static(dims, t):
    """H = 0 on the grid t."""
    d = int(np.prod(dims))
    return device.TimeDependentOperator(dims, np.zeros((d, d), complex), (), t)


def test_frozen_dynamics(rng):
    rho0 = DensityMatrix((3,), random_density(3, rng))
    t = np.arange(0.0, 10.0, 0.5)
    [(traj, final)] = dynamics.integrate_me(_static((3,), t), [], [rho0])
    assert np.abs(final.data - rho0.data).max() < 1e-12
    assert np.allclose(traj.pops[0][0], traj.pops[0][-1])


def test_single_qutrit_exponential_decay(table):
    node_a, _, _ = table
    t = np.arange(0.0, 2000.0, 1.0)
    decay = dict(device.single_node_collapse_ops(node_a))["decay_ge"]
    rho0 = DensityMatrix((3,), np.diag([0, 1.0, 0]).astype(complex))
    [(traj, _)] = dynamics.integrate_me(_static((3,), t), [("decay_ge", decay)], [rho0])
    expected = np.exp(-t / (node_a.T1ge * 1e3))
    err = np.abs(traj.pops[0][:, 1] - expected) / expected
    assert err.max() < 1e-4


def test_integrator_rejects_bad_grids(rng):
    rho0 = DensityMatrix((3,), random_density(3, rng))
    with pytest.raises(ValueError, match="uniform"):
        dynamics.integrate_me(_static((3,), np.array([0.0, 1.0, 1.5])), [], [rho0])


def test_integrator_rejects_wrong_shape_operators(table):
    node_a, node_b, link = table
    t = pulse.default_grid(dt=0.5, span=100)
    env = pulse.emission_drive(t, mhz(10.6), node_b.kappa_T_rad)
    h = device.build_hamiltonian(node_a, node_b, link, None, env)
    psi = np.kron(np.kron(ket(3, 0), ket(2, 0)), np.kron(ket(3, 2), ket(2, 0)))
    rho0 = DensityMatrix(h.dims, np.outer(psi, psi.conj()))
    wide = np.zeros((len(psi) + 1,) * 2, dtype=complex)
    with pytest.raises(ValueError, match="no initial state"):
        dynamics.integrate_me(h, [], [])
    with pytest.raises(ValueError, match="expectation operator"):
        dynamics.integrate_me(h, [], [rho0], expect={"wide": wide})
    extra = dataclasses.replace(h, terms=h.terms + ((wide, np.ones(len(t), complex)),))
    with pytest.raises(ValueError, match="drive term"):
        dynamics.integrate_me(extra, [], [rho0])
    with pytest.raises(ValueError, match="Hamiltonian"):
        dynamics.integrate_me(dataclasses.replace(h, static=wide), [], [rho0])
    # the static H and every drive term must be Hermitian, the samples real
    b, a = embed(destroy(3), 2, h.dims), embed(destroy(2), 3, h.dims)
    bd = b.conj().T
    one_sided = dataclasses.replace(h, terms=((bd @ bd @ a, np.ones(len(t))),))
    with pytest.raises(ValueError, match="not Hermitian"):
        dynamics.integrate_me(one_sided, [], [rho0])
    op, samples = h.terms[0]
    complex_drive = dataclasses.replace(h, terms=((op, samples * np.exp(0.1j)),))
    with pytest.raises(ValueError, match="real"):
        dynamics.integrate_me(complex_drive, [], [rho0])
    skew = np.zeros_like(h.static)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        dynamics.integrate_me(dataclasses.replace(h, static=h.static + skew), [], [rho0])


def test_integrator_rejects_drive_samples_off_the_half_step_grid(table):
    """A drive term carries 2 nt - 1 samples: one at every grid point and one
    at every half step between them.  Samples on the grid points alone, or
    one sample too many, are refused."""
    node_a, node_b, link = table
    env = pulse.emission_drive(pulse.default_grid(dt=0.5, span=100), mhz(10.6), node_b.kappa_T_rad)
    h = device.build_hamiltonian(node_a, node_b, link, None, env)
    psi = np.kron(np.kron(ket(3, 0), ket(2, 0)), np.kron(ket(3, 2), ket(2, 0)))
    rho0 = DensityMatrix(h.dims, np.outer(psi, psi.conj()))
    [(op, samples)] = h.terms
    assert len(samples) == 2 * len(h.t) - 1
    for wrong in (samples[::2], np.append(samples, 0.0)):
        with pytest.raises(ValueError, match="half-step grid"):
            dynamics.integrate_me(dataclasses.replace(h, terms=((op, wrong),)), [], [rho0])


def test_reachable_block_is_exact_by_linearity(table, rng):
    """The entanglement preparation integrates a 7-state block and a
    full-rank state the whole space; the map they define stays linear."""
    node_a, node_b, link = table
    t = pulse.default_grid(dt=0.25, span=100)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.shift(
        pulse.absorption_drive(pulse.emission_drive(t, mhz(10.4), node_b.kappa_T_rad)),
        link.time_offset,
    )
    h = device.build_hamiltonian(node_a, node_b, link, env_a, env_b)
    cops = device.build_collapse_ops(node_a, node_b, link)
    qutrit = (ket(3, 1) + ket(3, 2)) / np.sqrt(2.0)
    psi = np.kron(np.kron(qutrit, ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    rho_a = np.outer(psi, psi.conj())
    rho_b = random_density(len(psi), rng)

    def final(rho):
        [(traj, out)] = dynamics.integrate_me(h, cops, [DensityMatrix(h.dims, rho)])
        return traj.dim, out.data

    dim_a, out_a = final(rho_a)
    dim_b, out_b = final(rho_b)
    dim_mix, out_mix = final(0.5 * (rho_a + rho_b))
    assert (dim_a, dim_b, dim_mix) == (7, 36, 36)
    assert np.abs(out_mix - 0.5 * (out_a + out_b)).max() <= 1e-12


def test_batch_matches_single_input_integrations(table, rng):
    """Inputs with different reachable blocks (1 state, the 7-state
    entanglement block, a random density on that block) integrated as one
    batch on the union block reproduce their own single-input runs."""
    node_a, node_b, link = table
    t = pulse.default_grid(dt=0.25, span=100)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.shift(
        pulse.absorption_drive(pulse.emission_drive(t, mhz(10.4), node_b.kappa_T_rad)),
        link.time_offset,
    )
    h = device.build_hamiltonian(node_a, node_b, link, env_a, env_b)
    cops = device.build_collapse_ops(node_a, node_b, link)
    out = device.output_field_op(node_a, node_b, link)
    expect = {"a_out": out, "n_out": out.conj().T @ out}
    ground = np.kron(np.kron(ket(3, 0), ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    qutrit = (ket(3, 1) + ket(3, 2)) / np.sqrt(2.0)
    ef = np.kron(np.kron(qutrit, ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    [(ef_traj, _)] = dynamics.integrate_me(
        h, cops, [DensityMatrix(h.dims, np.outer(ef, ef.conj()))], store_states=40
    )
    block = np.flatnonzero(np.any([np.diag(rho).real > 0 for _, rho in ef_traj.states], axis=0))
    assert len(block) == 7
    mixed = np.zeros((len(ef), len(ef)), complex)
    mixed[np.ix_(block, block)] = random_density(len(block), rng)
    rhos = [
        DensityMatrix(h.dims, rho)
        for rho in (np.outer(ground, ground.conj()), np.outer(ef, ef.conj()), mixed)
    ]

    def run(batch):
        return dynamics.integrate_me(h, cops, batch, expect=expect, store_states=40)

    batched = run(rhos)
    assert len(batched) == len(rhos)
    single_dims = []
    for rho0, (traj, final) in zip(rhos, batched):
        [(single, single_final)] = run([rho0])
        single_dims.append(single.dim)
        assert traj.dim == 7
        assert traj.trace_drift == pytest.approx(single.trace_drift, abs=1e-12)
        assert np.abs(final.data - single_final.data).max() <= 1e-12
        for pops, ref in zip(traj.pops, single.pops):
            assert np.abs(pops - ref).max() <= 1e-12
        assert traj.expect.keys() == single.expect.keys()
        for name, series in traj.expect.items():
            assert np.abs(series - single.expect[name]).max() <= 1e-12
        assert [ts for ts, _ in traj.states] == [ts for ts, _ in single.states]
        for (_, rho), (_, ref) in zip(traj.states, single.states):
            assert np.abs(rho - ref).max() <= 1e-12
    assert single_dims == [1, 7, 7]


def test_recorded_observables_match_snapshots(table, rng):
    """Populations and expectation values come from one readout matrix on the
    integrated block; they must equal what the full stored state gives."""
    node_a, node_b, link = table
    t = pulse.default_grid(dt=0.25, span=100)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.shift(
        pulse.absorption_drive(pulse.emission_drive(t, mhz(10.4), node_b.kappa_T_rad)),
        link.time_offset,
    )
    h = device.build_hamiltonian(node_a, node_b, link, env_a, env_b)
    cops = device.build_collapse_ops(node_a, node_b, link)
    qutrit = (ket(3, 1) + ket(3, 2)) / np.sqrt(2.0)
    psi = np.kron(np.kron(qutrit, ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    d = len(psi)
    expect = {
        "a_out": device.output_field_op(node_a, node_b, link),
        "random": rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
    }
    [(traj, _)] = dynamics.integrate_me(
        h, cops, [DensityMatrix(h.dims, np.outer(psi, psi.conj()))],
        expect=expect, store_states=25,
    )
    assert len(traj.states) > 5
    for ts, rho in traj.states:
        k = int(np.argmin(np.abs(traj.t - ts)))
        for pops, slot in ((traj.pops_A, 0), (traj.pops_B, 2)):
            diag = np.diag(partial_trace(rho, h.dims, keep=(slot,))).real
            assert np.abs(pops[k] - diag).max() < 1e-12
        for name, op in expect.items():
            assert abs(traj.expect[name][k] - np.trace(op @ rho)) < 1e-12


def test_reachable_block_closes_under_jump_products():
    """L = |0><1| + |0><2| keeps the states {0, 1} among themselves, but L+L
    couples 1 to 2, so the block must take in state 2 as well."""
    jump = np.zeros((3, 3), complex)
    jump[0, 1] = jump[0, 2] = 1.0
    rho0 = DensityMatrix((3,), np.diag([0, 1.0, 0]).astype(complex))
    t = np.arange(0.0, 2.0, 0.01)
    [(traj, final)] = dynamics.integrate_me(_static((3,), t), [("jump", jump)], [rho0])
    ldl = jump.conj().T @ jump
    eye = np.eye(3)
    generator = np.kron(jump, jump.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    exact = (expm(generator * t[-1]) @ rho0.data.reshape(-1)).reshape(3, 3)
    assert traj.dim == 3
    assert np.abs(final.data - exact).max() < 1e-8


def test_trace_drift_aborts():
    # a decay rate far beyond the step stability limit blows up RK4
    t = np.arange(0.0, 20.0, 1.0)
    op = 10.0 * destroy(2)  # rate 100/ns at dt 1 ns
    rho0 = DensityMatrix((2,), np.diag([0, 1.0]).astype(complex))
    with pytest.raises(dynamics.TraceDriftError):
        dynamics.integrate_me(_static((2,), t), [("decay", op)], [rho0])


def test_trace_drift_of_one_input_aborts_the_batch():
    """A batch is checked input by input: one well-behaved input does not
    dilute the drift of the other."""
    t = np.arange(0.0, 20.0, 1.0)
    op = 10.0 * destroy(2)
    steady = DensityMatrix((2,), np.diag([1.0, 0]).astype(complex))
    drifting = DensityMatrix((2,), np.diag([0, 1.0]).astype(complex))
    [(traj, _)] = dynamics.integrate_me(_static((2,), t), [("decay", op)], [steady])
    assert traj.trace_drift == 0.0
    with pytest.raises(dynamics.TraceDriftError, match="input 1"):
        dynamics.integrate_me(_static((2,), t), [("decay", op)], [steady, drifting])
    with pytest.raises(dynamics.TraceDriftError, match="input 0"):
        dynamics.integrate_me(_static((2,), t), [("decay", op)], [drifting, steady])


def test_two_level_oracle_zero_drive():
    t = pulse.default_grid(dt=0.1)
    env = pulse.DriveEnvelope(t, np.zeros_like(t))
    res = dynamics.two_level_oracle(env, mhz(10))
    assert np.all(res.flux == 0)
    assert np.abs(res.c_f - 1.0).max() < 1e-12
    # an even sample count cannot be a half-step grid
    with pytest.raises(ValueError, match="odd number"):
        dynamics.two_level_oracle(pulse.DriveEnvelope(t[:-1], np.zeros(len(t) - 1)), mhz(10))


def test_two_level_oracle_constant_drive_matches_matrix_exponential():
    # constant g >> kappa: damped Rabi oscillation, checked against the
    # closed-form propagator of the constant non-Hermitian matrix
    kappa = mhz(2.0)
    g = mhz(20.0)
    half = np.arange(7999) * 0.025
    env = pulse.DriveEnvelope(half, np.full_like(half, g))
    res = dynamics.two_level_oracle(env, kappa)
    m = np.array([[0.0, -1j * g], [-1j * g, -kappa / 2]])
    for k in (500, 2000, 3999):
        exact = expm(m * res.t[k]) @ np.array([1.0, 0.0])
        assert abs(res.c_f[k] - exact[0]) < 1e-8
        assert abs(res.c_g1[k] - exact[1]) < 1e-8
    # eigenvalue analysis: decay kappa/2 shared between the hybridized modes
    eig = np.linalg.eigvals(m)
    assert np.allclose(eig.real, -kappa / 4)
    assert np.allclose(np.abs(eig.imag), np.sqrt(g**2 - (kappa / 4) ** 2))


def test_two_level_oracle_is_fourth_order():
    """Sampling the drive at the half steps makes the oracle's RK4 scheme
    fourth order: halving dt from 1 ns cuts the error against a dt 0.0125
    run about 16-fold (midpoint averages of the samples give about 4)."""

    def run(dt):
        env = pulse.emission_drive(pulse.default_grid(dt=dt / 2, span=150), mhz(10.4), mhz(13.5))
        return dynamics.two_level_oracle(env, mhz(13.5))

    ref = run(0.0125)
    errors = []
    for dt in (1.0, 0.5, 0.25):
        res = run(dt)
        stride = round(dt / 0.0125)
        assert np.array_equal(res.t, ref.t[::stride])
        errors.append(np.abs(res.c_f - ref.c_f[::stride]).max())
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders.min() >= 3.5, (errors, orders)


def test_oracle_equivalence_with_full_master_equation(table):
    """Noiseless matched-linewidth emission: the 36-dim cascaded model
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
    t = pulse.default_grid(dt=0.05, span=150)
    env = pulse.emission_drive(t, mhz(10.4), clean_a.kappa_T_rad)
    h = device.build_hamiltonian(clean_a, clean_b, link, env, None)
    cops = device.build_collapse_ops(clean_a, clean_b, link)
    dims = h.dims
    psi = np.kron(np.kron(ket(3, 2), ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    [(traj, _)] = dynamics.integrate_me(h, cops, [DensityMatrix(dims, np.outer(psi, psi.conj()))])
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
    t = pulse.default_grid(dt=0.05, span=150)
    env = pulse.emission_drive(t, mhz(10.4), clean_a.kappa_T_rad)
    h = device.build_hamiltonian(clean_a, clean_b, link, env, None)
    cops = device.build_collapse_ops(clean_a, clean_b, link)
    dims = h.dims
    a_a = embed(destroy(2), 1, dims)
    a_b = embed(destroy(2), 3, dims)
    out = device.output_field_op(clean_a, clean_b, link)
    expect = {
        "n_A": a_a.conj().T @ a_a,
        "n_B": a_b.conj().T @ a_b,
        "a_out": out,
        "n_out": out.conj().T @ out,
    }
    psi = np.kron(np.kron(ket(3, 2), ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    [(traj, _)] = dynamics.integrate_me(
        h, cops, [DensityMatrix(dims, np.outer(psi, psi.conj()))], expect=expect
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
    t = np.arange(7999) * 0.05
    zero = pulse.DriveEnvelope(t, np.zeros_like(t))
    h = device.build_hamiltonian(clean_a, clean_b, link, zero, None)
    cops = device.build_collapse_ops(clean_a, clean_b, link)
    dims = h.dims
    a_a = embed(destroy(2), 1, dims)
    a_b = embed(destroy(2), 3, dims)
    out = device.output_field_op(clean_a, clean_b, link)
    expect = {
        "n_A": a_a.conj().T @ a_a,
        "n_B": a_b.conj().T @ a_b,
        "a_out": out,
        "n_out": out.conj().T @ out,
    }
    psi = np.kron(np.kron(ket(3, 0), ket(2, 1)), np.kron(ket(3, 0), ket(2, 0)))
    [(traj, _)] = dynamics.integrate_me(
        h, cops, [DensityMatrix(dims, np.outer(psi, psi.conj()))], expect=expect
    )
    dynamics.output_observables(traj)
    photons = traj.expect["n_A"].real + traj.expect["n_B"].real
    assert np.all(np.diff(photons) < 1e-12)
    assert traj.photon_integral == pytest.approx(1.0, abs=1e-4)


def test_trace_preservation_and_positivity(table):
    node_a, node_b, link = table
    t = pulse.default_grid(dt=0.05, span=120)
    env = pulse.emission_drive(t, mhz(10.6), node_b.kappa_T_rad)
    h = device.build_hamiltonian(node_a, node_b, link, None, env)
    cops = device.build_collapse_ops(node_a, node_b, link)
    dims = h.dims
    psi = np.kron(np.kron(ket(3, 0), ket(2, 0)), np.kron(ket(3, 2), ket(2, 0)))
    [(traj, final)] = dynamics.integrate_me(
        h, cops, [DensityMatrix(dims, np.outer(psi, psi.conj()))], store_states=400
    )
    for _, rho in traj.states:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(rho).min() > -1e-7
    final.validate()


def test_step_halving_convergence(table):
    node_a, node_b, link = table
    finals = []
    for dt in (0.1, 0.05):
        t = pulse.default_grid(dt=dt / 2, span=120)
        env = pulse.emission_drive(t, mhz(10.6), node_b.kappa_T_rad)
        h = device.build_hamiltonian(node_a, node_b, link, None, env)
        cops = device.build_collapse_ops(node_a, node_b, link)
        dims = h.dims
        psi = np.kron(np.kron(ket(3, 0), ket(2, 0)), np.kron(ket(3, 2), ket(2, 0)))
        [(_, final)] = dynamics.integrate_me(
            h, cops, [DensityMatrix(dims, np.outer(psi, psi.conj()))]
        )
        finals.append(final.data)
    assert np.abs(finals[0] - finals[1]).max() < 1e-6


def test_output_observables_requirements(rng):
    traj = dynamics.Trajectory(t=np.arange(3.0), pops=[np.zeros((3, 3))])
    with pytest.raises(ValueError):
        dynamics.output_observables(traj)
    with pytest.raises(ValueError):
        traj.photon_integral
    with pytest.raises(ValueError):
        traj.mean_field_power
    zeros = np.zeros(3, dtype=complex)
    traj.expect = {"a_out": zeros, "n_out": zeros}
    mean, flux = dynamics.output_observables(traj)
    assert np.all(mean == 0) and np.all(flux == 0)
    assert traj.photon_integral == 0.0
    assert traj.mean_field_power == 0.0


@pytest.mark.parametrize("n_intervals", [1, 2, 3, 6, 7])
def test_field_integrals_use_simpsons_rule(n_intervals):
    """Simpson's rule, with the 3/8 rule on the last three intervals of an
    odd count, integrates a cubic exactly; one interval is a trapezoid."""
    t = np.linspace(-1.0, 2.0, n_intervals + 1)
    cubic = 5.0 + t - 2.0 * t**2 + t**3
    if n_intervals == 1:
        exact = 1.5 * (cubic[0] + cubic[-1])
    else:
        exact = 15.0 + 1.5 - 6.0 + 3.75  # integral of the cubic over [-1, 2]
    traj = dynamics.Trajectory(t=t, pops=[np.zeros((len(t), 3))])
    traj.flux_out = cubic
    traj.a_mean_out = np.sqrt(cubic) * np.exp(0.3j)
    assert traj.photon_integral == pytest.approx(exact, abs=1e-12)
    assert traj.mean_field_power == pytest.approx(exact, abs=1e-12)


def test_efficiencies_guard_against_empty_reference():
    t = np.arange(4.0)
    empty = dynamics.Trajectory(
        t=t, pops=[np.zeros((4, 3)), np.zeros((4, 3))]
    )
    empty.flux_out = np.zeros(4)
    empty.a_mean_out = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError):
        dynamics.efficiencies(empty, empty, empty, empty)
