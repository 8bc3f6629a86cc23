import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from photonlink import device, dynamics, metrics, protocols
from photonlink.protocols import ProtocolSpec

# cheap settings for machinery tests; physics numbers live in the acceptance suite
FAST = dict(dt=0.5, fock=2)


@pytest.fixture(autouse=True)
def _quiet_mle():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="MLE stopped")
        yield


def test_spec_validation():
    with pytest.raises(ValueError):
        ProtocolSpec(name="x", fock=1)
    with pytest.raises(ValueError):
        ProtocolSpec(name="x", dt=0.0)
    with pytest.raises(ValueError):
        ProtocolSpec(name="x", window=(10.0, 95.0))
    with pytest.raises(ValueError):
        ProtocolSpec(name="x", t_scale=0.0)
    with pytest.raises(ValueError):
        ProtocolSpec(name="x", idle_ns=-300.0)
    with pytest.raises(ValueError):
        ProtocolSpec(name="x", seed=-1)


def test_spec_json_round_trip(tmp_path):
    spec = ProtocolSpec(name="entangle", eta_c=0.9, shots=100, seed=7)
    path = tmp_path / "spec.json"
    spec.to_json(path)
    assert ProtocolSpec.from_json(path) == spec


def test_runs_are_deterministic():
    spec = ProtocolSpec(name="entangle", seed=3, **FAST)
    a = protocols.run_entanglement(spec)
    b = protocols.run_entanglement(spec)
    assert np.array_equal(a.extras["rho9_direct"], b.extras["rho9_direct"])
    assert np.array_equal(a.extras["rho9_tomography"], b.extras["rho9_tomography"])
    assert np.array_equal(a.trajectory.pops_B, b.trajectory.pops_B)


def test_sampled_mode_deterministic_and_seed_sensitive():
    spec = ProtocolSpec(name="entangle", shots=300, seed=5, **FAST)
    a = protocols.run_entanglement(spec)
    b = protocols.run_entanglement(spec)
    c = protocols.run_entanglement(dataclasses.replace(spec, seed=6))
    assert np.array_equal(a.extras["rho9_tomography"], b.extras["rho9_tomography"])
    assert not np.array_equal(a.extras["rho9_tomography"], c.extras["rho9_tomography"])


def test_emission_prep_g_stays_inert():
    res = protocols.run_transfer(ProtocolSpec(name="t", **FAST), "g")
    rho9 = res.final_state.data
    assert rho9[0, 0].real > 0.99  # both nodes remain in g


def test_emission_without_drive_is_frozen():
    spec = ProtocolSpec(name="emit-b", **FAST)
    res = protocols.run_emission(spec, "B", "f", tau=spec.window[0])
    pops = res.extras["final_populations"]
    # only T1 decay moves population out of f
    duration = spec.window[1] + spec.idle_ns - spec.window[0]
    node_b = device.load_device()[1]
    expected_f = np.exp(-duration / (node_b.T1ef * 1e3))
    assert pops["f"] == pytest.approx(expected_f, abs=2e-3)
    assert res.extras["photon_integral"] < 1e-6


def test_truncated_run_matches_full_trajectory_at_tau():
    """Measuring right after truncation equals the untruncated curve at tau."""
    spec = ProtocolSpec(name="emit-b", window=(-95.0, 95.0), idle_ns=0.0, dt=0.2, fock=3)
    full = protocols.run_emission(spec, "B", "f")
    for tau in (-20.0, 0.0, 30.0):
        cut = protocols.run_emission(spec, "B", "f", tau=tau)
        k = np.searchsorted(full.trajectory.t, tau)
        kc = np.searchsorted(cut.trajectory.t, tau)
        assert np.abs(cut.trajectory.pops_B[kc] - full.trajectory.pops_B[k]).max() < 1e-9


def test_transfer_saturation_helper():
    res = protocols.run_transfer(ProtocolSpec(name="t", **FAST), "e")
    sat, t_sat = dynamics.transfer_saturation(res.trajectory)
    assert 0 < sat < 1
    assert 0 < t_sat < 300


def test_fit_time_offset_prefers_zero():
    spec = ProtocolSpec(name="t", dt=0.5, fock=3)
    best_off, best_sat = protocols.fit_time_offset(spec, span=4.0, steps=5)
    assert abs(best_off) <= 2.0
    assert best_sat > 0.6


def test_upgrade_uses_stated_parameters():
    spec = ProtocolSpec(name="upgrade", **FAST)
    res = protocols.run_upgrade_scenario(spec)
    assert res.extras["metrics"].state_fidelity > 0.85
    # eta override is honored
    res_eta1 = protocols.run_upgrade_scenario(dataclasses.replace(spec, eta_c=1.0))
    assert res_eta1.extras["metrics"].state_fidelity > res.extras["metrics"].state_fidelity


def test_error_budget_structure():
    budget = protocols.error_budget(ProtocolSpec(name="budget", **FAST))
    fid = budget["fidelities"]
    assert fid["both_off"] > fid["loss_off"] > fid["baseline"]
    assert budget["loss_off_delta"] > 0
    assert budget["decoherence_off_delta"] > 0
    assert budget["loss_only_infidelity"] == pytest.approx(1 - fid["decoherence_off"])


def test_exact_tomography_matches_direct_state():
    spec = ProtocolSpec(name="entangle", dt=0.2, fock=3)
    res = protocols.run_entanglement(spec)
    assert res.extras["metrics"].hs_distance < 1e-3
    direct = res.extras["metrics_direct"]
    rec = res.extras["metrics"]
    assert rec.state_fidelity == pytest.approx(direct.state_fidelity, abs=1e-3)
    assert rec.ccnr == pytest.approx(direct.ccnr, abs=2e-3)


def test_sampled_entanglement_close_to_exact():
    exact = protocols.run_entanglement(ProtocolSpec(name="e", dt=0.5, fock=3))
    sampled = protocols.run_entanglement(
        ProtocolSpec(name="e", dt=0.5, fock=3, shots=25000, seed=1)
    )
    f_exact = exact.extras["metrics"].state_fidelity
    f_sampled = sampled.extras["metrics"].state_fidelity
    assert f_sampled == pytest.approx(f_exact, abs=0.02)


def test_qpt_noiseless_identity_process():
    spec = ProtocolSpec(
        name="qpt", dt=0.2, fock=3, decoherence=False, eta_c=1.0,
        window=(-150.0, 150.0), idle_ns=0.0,
    )
    node_a, node_b, link = device.load_device()
    matched_b = dataclasses.replace(node_b, kappa_T=node_a.kappa_T)
    res = protocols.run_state_transfer_qpt(spec, nodes_link=(node_a, matched_b, link))
    assert res.extras["process_fidelity"] > 0.999


def test_qpt_depolarized_floor():
    # fully depolarizing channel: F_p = 1/4, well below the classical bound 1/2
    from photonlink import tomography as tomo

    inputs = tomo.mub_qubit_states()
    outputs = [np.eye(2, dtype=complex) / 2] * 6
    chi = tomo.qpt_linear_inversion(inputs, outputs)
    assert metrics.process_fidelity(chi.chi, tomo.CHI_IDENTITY) == pytest.approx(0.25)


def test_entanglement_noiseless_limit():
    spec = ProtocolSpec(
        name="e", dt=0.2, fock=3, decoherence=False, eta_c=1.0,
        window=(-150.0, 150.0), idle_ns=0.0,
    )
    res = protocols.run_entanglement(spec)
    m = res.extras["metrics_direct"]
    assert m.state_fidelity > 0.995
    assert m.concurrence > 0.99
    assert m.ccnr > 1.98


def test_residual_downstream_flux_fraction():
    spec = ProtocolSpec(name="t", dt=0.2, fock=3)
    eff, _ = protocols.run_transfer_efficiencies(spec)
    assert eff.absorption_eff > 0.95  # residual flux is a few percent


def test_emission_scenario_defaults():
    res = protocols.run_emission(node="B", initial="f", spec=None)
    assert res.spec.window == protocols.EMISSION_WINDOW
    assert res.spec.idle_ns == protocols.EMISSION_IDLE_NS


def test_link_results_match_recorded_reference():
    """Exact changes must reproduce the recorded link results to round-off.

    tests/link_reference.json holds the direct entangled state, the
    exact-readout chi matrix and the four transfer-study numbers, recorded
    before the link protocols were merged into one code path.
    """
    ref = json.loads((Path(__file__).parent / "link_reference.json").read_text())
    fast = ref["spec"]

    def matrix(m):
        return np.asarray(m["re"]) + 1j * np.asarray(m["im"])

    rho9 = protocols.run_entanglement(ProtocolSpec(name="entangle", **fast)).extras["rho9_direct"]
    assert np.abs(rho9 - matrix(ref["rho9_direct"])).max() <= 1e-10
    chi = protocols.run_state_transfer_qpt(ProtocolSpec(name="qpt", **fast)).extras["chi"].chi
    assert np.abs(chi - matrix(ref["chi"])).max() <= 1e-10
    eff, _ = protocols.run_transfer_efficiencies(ProtocolSpec(name="transfer", **fast))
    for name, value in ref["transfer_efficiencies"].items():
        assert getattr(eff, name) == pytest.approx(value, abs=1e-10), name
