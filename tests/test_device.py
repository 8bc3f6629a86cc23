import dataclasses
import json

import numpy as np
import pytest

from photonlink import device, pulse, qops
from photonlink.dynamics import integrate_me
from photonlink.qops import ket, mhz
from conftest import QUTRIT_LEVELS, default_grid, populations, to_mhz


@pytest.fixture(scope="module")
def table():
    return device.load_device()


def test_defaults_reproduce_device_table(table):
    node_a, node_b, link = table
    assert node_a.kappa_T == pytest.approx(10.4)
    assert node_b.kappa_T == pytest.approx(13.5)
    assert node_a.chi_T == pytest.approx(6.3)
    assert node_b.chi_T == pytest.approx(4.7)
    assert node_a.alpha == pytest.approx(-265.0)
    assert node_b.alpha == pytest.approx(-308.0)
    assert (node_a.T1ge, node_a.T1ef, node_a.T2ge, node_a.T2ef) == (4.9, 1.6, 3.4, 2.1)
    assert (node_b.T1ge, node_b.T1ef, node_b.T2ge, node_b.T2ef) == (4.6, 1.4, 2.6, 0.9)
    assert node_b.nu_ge == pytest.approx(6.096)  # table value, not the main-text 6.093
    assert link.eta_c == pytest.approx(0.77)


def test_node_params_validation(table):
    node_a, _, _ = table
    with pytest.raises(ValueError):
        dataclasses.replace(node_a, kappa_T=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(node_a, alpha=100.0)
    with pytest.raises(ValueError):
        dataclasses.replace(node_a, T2ge=2 * node_a.T1ge + 0.1)
    with pytest.raises(ValueError):
        device.LinkParams(eta_c=1.2)
    # non-finite values, for which the comparisons above are all False
    for value in (float("nan"), float("inf")):
        for name in ("T1ge", "T2ef", "kappa_int", "K", "nu_R"):
            with pytest.raises(ValueError):
                dataclasses.replace(node_a, **{name: value})
        with pytest.raises(ValueError):
            device.LinkParams(eta_c=0.77, time_offset=value)
        with pytest.raises(ValueError):
            device.LinkParams(eta_c=value)


def test_coherence_times_must_leave_dephasing_non_negative(tmp_path, table):
    """A short T1ge with T2ef near 2 T1ef asks for a negative ef dephasing
    rate: the node is refused when it is built, from a device file too.
    Scaling every time keeps the sign of the rates, and the no-decoherence
    limit stays inside the rounding tolerance."""
    node_a, node_b, link = table
    bad = {"T1ge": 5.0, "T1ef": 20.0, "T2ge": 5.0, "T2ef": 39.0}
    with pytest.raises(ValueError, match="negative dephasing"):
        dataclasses.replace(node_b, **bad)
    path = tmp_path / "bad.json"
    raw = {"node_a": dataclasses.asdict(node_a), "node_b": dataclasses.asdict(node_b) | bad,
           "link": dataclasses.asdict(link)}
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="invalid device file.*negative dephasing"):
        device.load_device(path)
    for name in ("T1ge", "T2ef"):
        with pytest.raises(ValueError, match="positive"):
            dataclasses.replace(node_a, **{name: 0.0})
    for node in (node_a, node_b):
        for factor in (1e-3, 3.0, 1e6):
            assert min(device.scale_coherence(node, factor).dephasing_rates()) > 0
        assert device.without_decoherence(node).kappa_int == 0.0


def test_device_file_round_trip(tmp_path, table):
    node_a, node_b, link = table
    path = tmp_path / "dev.json"
    raw = {"node_a": node_a, "node_b": node_b, "link": link}
    path.write_text(json.dumps({k: dataclasses.asdict(v) for k, v in raw.items()}))
    a2, b2, l2 = device.load_device(path)
    assert a2 == node_a and b2 == node_b and l2 == link


def test_device_file_rejects_bad_content(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"node_a": {"nu_ge": 1.0}}))
    with pytest.raises(ValueError):
        device.load_device(path)


def test_dephasing_rates_solve_table_values(table):
    node_a, node_b, _ = table
    for node in (node_a, node_b):
        g_ge, g_ef = node.dephasing_rates()
        assert g_ge >= 0 and g_ef >= 0
        # the solved rates reproduce the Ramsey rates exactly
        assert 2 * g_ge + 0.5 * g_ef == pytest.approx(
            1e-3 / node.T2ge - 0.5 * node.gamma1_ge
        )
        assert 0.5 * g_ge + 2 * g_ef == pytest.approx(
            1e-3 / node.T2ef - 0.5 * (node.gamma1_ge + node.gamma1_ef)
        )
    with pytest.raises(ValueError):
        device.dephasing_rates(10.0, 10.0, 0.1, 19.9)  # wildly inconsistent pair


# --- Hamiltonian ------------------------------------------------------------

def _basis_index(dims, qa, na, qb, nb):
    return ((qa * dims[1] + na) * dims[2] + qb) * dims[3] + nb


@pytest.fixture(scope="module")
def hamiltonian(table):
    node_a, node_b, link = table
    t = default_grid(dt=0.25, span=150)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.emission_drive(t, mhz(10.6), node_b.kappa_T_rad)
    return device.build_hamiltonian(node_a, node_b, link, env_a, env_b)


def _matrix_at(h, time):
    """H at grid point k of h: static + sum_j c_j(t_k) * term_j, where
    c_j(t_k) is sample 2k of the half-step samples."""
    k = int(np.argmin(np.abs(h.t - time)))
    assert abs(h.t[k] - time) < 1e-9
    return h.static + sum(samples[2 * k] * op for op, samples in h.terms)


def test_hamiltonian_is_hermitian(hamiltonian):
    for time in (-100.0, -20.0, 0.0, 15.0, 100.0):
        h = _matrix_at(hamiltonian, time)
        assert np.abs(h - h.conj().T).max() < 1e-12


def test_each_driven_node_adds_one_hermitian_term(hamiltonian):
    assert len(hamiltonian.terms) == 2
    for op, samples in hamiltonian.terms:
        assert np.abs(op - op.conj().T).max() == 0.0
        assert samples.dtype == float and samples.shape == (2 * len(hamiltonian.t) - 1,)


def test_cascade_coupling_strength(hamiltonian, table):
    node_a, node_b, link = table
    dims = device.DIMS
    # <g0g1| H |g1g0>: photon hopping A -> B
    row = _basis_index(dims, 0, 0, 0, 1)
    col = _basis_index(dims, 0, 1, 0, 0)
    expected = 0.5 * np.sqrt(node_a.kappa_T_rad * node_b.kappa_T_rad * link.eta_c)
    assert abs(hamiltonian.static[row, col]) == pytest.approx(expected)
    assert to_mhz(expected) == pytest.approx(np.sqrt(10.4 * 13.5 * 0.77) / 2, rel=1e-9)
    assert to_mhz(expected) == pytest.approx(5.20, abs=0.005)
    # the term is anti-symmetric with the -i prefactor
    assert hamiltonian.static[row, col] == pytest.approx(-hamiltonian.static[col, row])


def test_drive_matrix_element_equals_g(table):
    node_a, node_b, link = table
    t = default_grid(dt=0.25, span=150)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.emission_drive(t, mhz(10.6), node_b.kappa_T_rad)
    h = device.build_hamiltonian(node_a, node_b, link, env_a, env_b)
    dims = device.DIMS
    for time in (0.0, 12.5):
        m = _matrix_at(h, time)
        # <f,0|H|g,1> on node A (node B in its ground state)
        row = _basis_index(dims, 2, 0, 0, 0)
        col = _basis_index(dims, 0, 1, 0, 0)
        g_here = np.interp(time, env_a.t, env_a.g_mag)
        assert m[row, col] == pytest.approx(g_here, rel=1e-12)
        # same on node B
        row = _basis_index(dims, 0, 0, 2, 0)
        col = _basis_index(dims, 0, 0, 0, 1)
        g_here = np.interp(time, env_b.t, env_b.g_mag)
        assert m[row, col] == pytest.approx(g_here, rel=1e-12)


def test_hamiltonian_rejects_mismatched_grids(table):
    node_a, node_b, link = table
    env_a = pulse.emission_drive(default_grid(dt=0.5, span=150), mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.emission_drive(default_grid(dt=0.25, span=150), mhz(10.6), node_b.kappa_T_rad)
    with pytest.raises(ValueError):
        device.build_hamiltonian(node_a, node_b, link, env_a, env_b)


def test_hamiltonian_is_built_in_the_lo_frame(table):
    # the qutrit diagonal diag(0, -alpha/2, 0) is dropped, so alpha never enters H
    node_a, node_b, link = table
    t = default_grid(dt=0.5, span=150)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    ref = device.build_hamiltonian(node_a, node_b, link, env_a, None)
    shifted = device.build_hamiltonian(
        dataclasses.replace(node_a, alpha=2.0 * node_a.alpha),
        dataclasses.replace(node_b, alpha=0.5 * node_b.alpha),
        link, env_a, None,
    )
    assert np.array_equal(ref.static, shifted.static)


# --- collapse operators ------------------------------------------------------

def test_collapse_ops_lossless_channel(table):
    node_a, node_b, _ = table
    ops = dict(device.build_collapse_ops(node_a, node_b, device.LinkParams(1.0)))
    assert "channel_loss" not in ops
    a_a = qops.embed(qops.destroy(2), 1, device.DIMS)
    a_b = qops.embed(qops.destroy(2), 3, device.DIMS)
    expected = np.sqrt(node_a.kappa_T_rad) * a_a + np.sqrt(node_b.kappa_T_rad) * a_b
    assert np.allclose(ops["cascade_out"], expected)


def test_collapse_ops_broken_link(table):
    node_a, node_b, _ = table
    ops = dict(device.build_collapse_ops(node_a, node_b, device.LinkParams(0.0)))
    a_a = qops.embed(qops.destroy(2), 1, device.DIMS)
    a_b = qops.embed(qops.destroy(2), 3, device.DIMS)
    assert np.allclose(ops["cascade_out"], np.sqrt(node_b.kappa_T_rad) * a_b)
    assert np.allclose(ops["channel_loss"], np.sqrt(node_a.kappa_T_rad) * a_a)


def test_node_operators_are_built_once_and_read_only():
    """Each node's ladder operators and transmon level projectors are
    constants on DIMS (transmon A at slot 0, resonator A at 1, transmon B at
    2, resonator B at 3), the projectors named as the trajectory columns."""
    assert list(device.LEVEL_PROJECTORS) == ["Pg_A", "Pe_A", "Pf_A", "Pg_B", "Pe_B", "Pf_B"]
    for node, slot in (("A", 0), ("B", 2)):
        assert np.array_equal(device.TRANSMON[node], qops.embed(qops.destroy(3), slot, device.DIMS))
        assert np.array_equal(device.RESONATOR[node], qops.embed(qops.destroy(2), slot + 1, device.DIMS))
        levels = [device.LEVEL_PROJECTORS[f"P{level}_{node}"] for level in "gef"]
        for k, op in enumerate(levels):
            assert np.array_equal(op, qops.embed(qops.projector(3, k), slot, device.DIMS))
        assert np.array_equal(sum(levels), np.eye(36))
    for op in (*device.TRANSMON.values(), *device.RESONATOR.values(), *device.LEVEL_PROJECTORS.values()):
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def test_qutrit_decay_rate_from_table(table):
    node_a, _, _ = table
    ops = dict(device.single_node_collapse_ops(node_a))
    rate = np.abs(ops["decay_ge"]).max() ** 2  # 1/ns
    assert rate * 1e3 == pytest.approx(1 / 4.9, rel=1e-9)  # 0.204 per us


def test_internal_loss_channel_present_when_nonzero(table):
    node_a, node_b, link = table
    noisy = dataclasses.replace(node_a, kappa_int=0.5)
    ops = dict(device.build_collapse_ops(noisy, node_b, link))
    assert "internal_A" in ops


# --- coherence calibration ---------------------------------------------------

def _single_qutrit_run(node, rho0, t_end=1500.0, dt=1.0):
    t = np.arange(0.0, t_end + dt / 2, dt)
    cops = device.single_node_collapse_ops(node)
    h = device.TimeDependentOperator(np.zeros((3, 3), dtype=complex), (), t)
    expect = {
        **QUTRIT_LEVELS,
        "coh_ge": np.outer(ket(3, 1), ket(3, 0).conj()),
        "coh_ef": np.outer(ket(3, 2), ket(3, 1).conj()),
    }
    [[(traj, _)]] = integrate_me([(h, cops, [rho0], expect)])
    return t, traj


@pytest.mark.parametrize("which", ["A", "B"])
def test_free_decay_and_ramsey_reproduce_coherence_table(table, which):
    """Fixes the dephasing-rate convention: simulated T1/T2 match the inputs."""
    node = table[0] if which == "A" else table[1]

    # T1ge: |e> population decay
    t, traj = _single_qutrit_run(node, np.diag([0.0, 1.0, 0.0]).astype(complex))
    k = len(t) // 2
    t1_fit = -t[k] / np.log(populations(traj)[k, 1])
    assert t1_fit == pytest.approx(node.T1ge * 1e3, rel=0.01)

    # T1ef: |f> population decay
    t, traj = _single_qutrit_run(node, np.diag([0.0, 0.0, 1.0]).astype(complex))
    t1ef_fit = -t[k] / np.log(populations(traj)[k, 2])
    assert t1ef_fit == pytest.approx(node.T1ef * 1e3, rel=0.01)

    # T2ge: ge coherence decay of (|g>+|e>)/sqrt(2)
    psi = (ket(3, 0) + ket(3, 1)) / np.sqrt(2)
    t, traj = _single_qutrit_run(node, np.outer(psi, psi.conj()))
    coh = np.abs(traj.expect["coh_ge"])
    t2_fit = -t[k] / np.log(coh[k] / coh[0])
    assert t2_fit == pytest.approx(node.T2ge * 1e3, rel=0.01)

    # T2ef: ef coherence decay of (|e>+|f>)/sqrt(2)
    psi = (ket(3, 1) + ket(3, 2)) / np.sqrt(2)
    t, traj = _single_qutrit_run(node, np.outer(psi, psi.conj()), t_end=600.0)
    coh = np.abs(traj.expect["coh_ef"])
    k = len(t) // 2
    t2ef_fit = -t[k] / np.log(coh[k] / coh[0])
    assert t2ef_fit == pytest.approx(node.T2ef * 1e3, rel=0.01)


def test_coherence_helpers(table):
    node_a, _, _ = table
    scaled = device.scale_coherence(node_a, 3.0)
    assert scaled.T1ge == pytest.approx(3 * node_a.T1ge)
    clean = device.without_decoherence(node_a)
    g_ge, g_ef = clean.dephasing_rates()
    assert g_ge < 1e-9 and g_ef < 1e-9
    assert clean.kappa_int == 0.0
