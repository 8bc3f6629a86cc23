import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from photonlink import cli, device, dynamics, metrics, protocols
from photonlink.protocols import ProtocolSpec

# cheap settings for machinery tests; physics numbers live in the acceptance suite
FAST = dict(dt=0.5)


@pytest.fixture(autouse=True)
def _quiet_mle():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="MLE stopped")
        yield


def test_spec_validation():
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
    with pytest.raises(ValueError):
        ProtocolSpec(name="x", shots=0)
    with pytest.raises(ValueError):
        ProtocolSpec(name="x", kappa_eff_b=0.0)
    with pytest.raises(ValueError):
        ProtocolSpec(name="x", eta_c=1.5)
    for value in (float("nan"), float("inf"), -float("inf")):
        for name in ("eta_c", "time_offset", "kappa_eff_a", "idle_ns", "dt", "t_scale"):
            with pytest.raises(ValueError):
                ProtocolSpec(name="x", **{name: value})
        with pytest.raises(ValueError):
            ProtocolSpec(name="x", window=(-95.0, value))
    # dt must divide the window edges and idle_ns, or the grid would move an
    # edge (at dt 0.3 it starts at -95.1 ns); 95 / 0.1 is inexact and passes
    for kwargs in (dict(dt=0.3), dict(idle_ns=40.25), dict(dt=0.2, window=(-95.0, 95.1))):
        with pytest.raises(ValueError, match="dt must divide"):
            ProtocolSpec(name="x", **kwargs)
    for dt in (1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 0.0125):
        ProtocolSpec(name="x", dt=dt)
        ProtocolSpec(name="x", dt=dt, window=protocols.EMISSION_WINDOW, idle_ns=0.0)
        ProtocolSpec(name="x", dt=dt, window=(-150.0, 150.0), idle_ns=0.0)


def test_runs_are_deterministic():
    spec = ProtocolSpec(name="entangle", seed=3, **FAST)
    a = protocols.run_entanglement(spec)
    b = protocols.run_entanglement(spec)
    assert np.array_equal(a.extras["rho9_direct"], b.extras["rho9_direct"])
    assert np.array_equal(a.extras["rho9_tomography"], b.extras["rho9_tomography"])
    assert np.array_equal(a.trajectory.pops_B, b.trajectory.pops_B)


@pytest.mark.filterwarnings("ignore:mitigated populations")
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
    spec = ProtocolSpec(name="emit-b", window=(-95.0, 95.0), idle_ns=0.0, dt=0.2)
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
    spec = ProtocolSpec(name="entangle", dt=0.2)
    res = protocols.run_entanglement(spec)
    assert res.extras["metrics"].hs_distance < 1e-3
    direct = metrics.bundle_from_state(res.extras["rho9_direct"])
    rec = res.extras["metrics"]
    assert rec.state_fidelity == pytest.approx(direct.state_fidelity, abs=1e-3)
    assert rec.ccnr == pytest.approx(direct.ccnr, abs=2e-3)


def test_sampled_entanglement_close_to_exact():
    exact = protocols.run_entanglement(ProtocolSpec(name="e", dt=0.5))
    sampled = protocols.run_entanglement(
        ProtocolSpec(name="e", dt=0.5, shots=25000, seed=1)
    )
    f_exact = exact.extras["metrics"].state_fidelity
    f_sampled = sampled.extras["metrics"].state_fidelity
    assert f_sampled == pytest.approx(f_exact, abs=0.02)


def test_qpt_noiseless_identity_process():
    spec = ProtocolSpec(
        name="qpt", dt=0.2, decoherence=False, eta_c=1.0,
        window=(-150.0, 150.0), idle_ns=0.0,
    )
    node_a, node_b, link = device.load_device()
    matched_b = dataclasses.replace(node_b, kappa_T=node_a.kappa_T)
    res = protocols.run_state_transfer_qpt(spec, nodes_link=(node_a, matched_b, link))
    assert res.extras["process_fidelity"] > 0.999


def test_qpt_exact_readout_chi_matches_direct_oracle():
    """With exact readout the tomographic chi differs from the inversion of
    the directly simulated outputs only by the MLE's stopping error."""
    res = protocols.run_state_transfer_qpt(ProtocolSpec(name="qpt", **FAST))
    gap = np.abs(res.extras["chi"].chi - res.extras["chi_direct"].chi).max()
    assert gap <= 5e-5


def test_qpt_integrates_before_drawing_and_measures_in_input_order():
    """The batched QPT draws the same shots as transferring and measuring
    each input in turn with one generator."""
    from photonlink import tomography as tomo

    spec = ProtocolSpec(name="qpt", dt=0.5, shots=2000, seed=3)
    rng = np.random.default_rng(3)
    inputs = tomo.mub_qubit_states()
    outputs = []
    for psi in inputs:
        qubit = np.array([psi[0], psi[1], 0.0], dtype=complex)
        rho3 = protocols.run_transfer(spec, qubit).extras["final_qutrit_b"]
        outputs.append(tomo.qst_mle(protocols._measure(rho3, spec, rng))[:2, :2])
    reference = tomo.qpt_linear_inversion(inputs, outputs).chi
    chi = protocols.run_state_transfer_qpt(spec).extras["chi"].chi
    assert np.abs(chi - reference).max() <= 1e-12


def _assert_same_entanglement(batched, alone):
    """Two entanglement runs are bit-identical: states, trajectories and
    metrics."""
    for key in ("rho9_direct", "rho9_tomography", "tomography_populations"):
        assert np.array_equal(batched.extras[key], alone.extras[key]), key
    assert dataclasses.asdict(batched.extras["metrics"]) == dataclasses.asdict(alone.extras["metrics"])
    a, b = batched.trajectory, alone.trajectory
    assert np.array_equal(a.pops_A, b.pops_A) and np.array_equal(a.pops_B, b.pops_B)
    assert np.array_equal(a.a_mean_out, b.a_mean_out) and np.array_equal(a.flux_out, b.flux_out)


def test_eta_c_sweep_batch_equals_its_single_runs():
    """A three-point eta_c sweep integrates as one batch and reconstructs as
    one MLE stack, bit-identical to running each point on its own, exact
    and with shots (each point draws from its own seed)."""
    for shots in (None, 2000):
        specs = [
            ProtocolSpec(name="sweep", eta_c=eta, shots=shots, seed=7, **FAST)
            for eta in (0.72, 0.77, 0.9)
        ]
        for batched, spec in zip(protocols.run_entanglements(specs), specs):
            _assert_same_entanglement(batched, protocols.run_entanglement(spec))


def test_error_budget_equals_its_single_runs():
    spec = ProtocolSpec(name="budget", **FAST)
    runs = protocols.error_budget(spec)["runs"]
    singles = {
        "baseline": spec,
        "loss_off": dataclasses.replace(spec, eta_c=1.0),
        "decoherence_off": dataclasses.replace(spec, decoherence=False),
        "both_off": dataclasses.replace(spec, eta_c=1.0, decoherence=False),
    }
    for name, single in singles.items():
        _assert_same_entanglement(runs[name], protocols.run_entanglement(single))


def test_runs_on_different_grids_integrate_as_separate_batches(monkeypatch):
    """A dt sweep splits into one batch per grid, and each run still equals
    its run on its own."""
    calls = []
    integrate = protocols.integrate_me

    def counting(problems, **kwargs):
        calls.append(len(problems))
        return integrate(problems, **kwargs)

    specs = [ProtocolSpec(name="sweep", dt=dt) for dt in (0.5, 1.0, 0.5)]
    monkeypatch.setattr(protocols, "integrate_me", counting)
    batched = protocols.run_entanglements(specs)
    assert calls == [2, 1]
    monkeypatch.setattr(protocols, "integrate_me", integrate)
    for run, spec in zip(batched, specs):
        _assert_same_entanglement(run, protocols.run_entanglement(spec))


def test_trace_drift_names_the_run_by_its_place_in_the_list():
    """Runs 0 and 2 share a grid and integrate as one batch, in which the
    drifting run 2 is the second group; the error names it as run 2."""
    from photonlink.qops import DensityMatrix, destroy

    def problem(t, rate):
        h = device.TimeDependentOperator((2,), np.zeros((2, 2), complex), (), t)
        excited = DensityMatrix((2,), np.diag([0, 1.0]).astype(complex))
        return h, [("decay", rate * destroy(2))], [excited], None

    coarse, fine = np.arange(0.0, 20.0, 1.0), np.arange(0.0, 20.0, 0.5)
    problems = [problem(coarse, 0.1), problem(fine, 0.1), problem(coarse, 10.0)]
    with pytest.raises(dynamics.TraceDriftError, match="^run 2: trace of input 0 ") as caught:
        protocols._integrate_links(problems)
    assert caught.value.run == 2


def test_qpt_reconstructs_its_outputs_as_one_stack(monkeypatch):
    """The six QPT outputs go through one MLE call, and the chi matrix is
    bit-identical to reconstructing each measured output on its own."""
    from photonlink import tomography as tomo

    spec = ProtocolSpec(name="qpt", shots=2000, seed=3, **FAST)
    stacks = []
    mle = tomo.qst_mle

    def recording(pops, **kwargs):
        stacks.append(np.array(pops))
        return mle(pops, **kwargs)

    monkeypatch.setattr(tomo, "qst_mle", recording)
    chi = protocols.run_state_transfer_qpt(spec).extras["chi"].chi
    [pops] = stacks
    assert pops.shape == (6, 9, 3)
    outputs = [mle(p)[:2, :2] for p in pops]
    assert np.array_equal(chi, tomo.qpt_linear_inversion(tomo.mub_qubit_states(), outputs).chi)


def test_transfer_study_and_emission_pairs_equal_their_single_runs():
    """The transfer study integrates its transfer pair and its emission pair
    as two batches, and the emission scenario its two preparations as one
    integration; every run is bit-identical to its run on its own."""
    spec = ProtocolSpec(name="transfer", **FAST)
    eff, runs = protocols.run_transfer_efficiencies(spec)
    emit_spec = dataclasses.replace(
        spec, window=protocols.EMISSION_WINDOW, idle_ns=protocols.EMISSION_IDLE_NS
    )
    singles = {
        "with": protocols.run_transfer(spec, "e", absorption=True),
        "without": protocols.run_transfer(spec, "e", absorption=False),
        "emit_a": protocols.run_emission(dataclasses.replace(emit_spec, name="emit-a"), "A", "gf"),
        "emit_b": protocols.run_emission(dataclasses.replace(emit_spec, name="emit-b"), "B", "gf"),
    }
    for name, single in singles.items():
        assert runs[name].spec == single.spec
        assert np.array_equal(runs[name].final_state.data, single.final_state.data), name
        assert np.array_equal(runs[name].trajectory.flux_out, single.trajectory.flux_out), name
        assert np.array_equal(runs[name].trajectory.pops_B, single.trajectory.pops_B), name
    assert eff == dynamics.efficiencies(*(singles[k].trajectory for k in singles))
    pair = protocols.run_emissions(emit_spec, "B", ("f", "gf"))
    for run, initial in zip(pair, ("f", "gf")):
        single = protocols.run_emission(emit_spec, "B", initial)
        assert np.array_equal(run.final_state.data, single.final_state.data), initial
        assert np.array_equal(run.trajectory.a_mean_out, single.trajectory.a_mean_out), initial
        assert run.extras == single.extras


@pytest.mark.filterwarnings("ignore:mitigated populations")
def test_measure_draws_states_within_the_integrator_bounds():
    """Shot-mode tomography measures states the integrator accepts, with an
    eigenvalue of -1e-7 and a trace 1e-6 above one, on either node count."""
    spec = ProtocolSpec(name="qpt", dt=0.5, shots=2000, seed=5)
    rho3 = np.diag([0.6, 0.4 + 1e-7, -1e-7]).astype(complex) * (1 + 1e-6)
    for rho in (rho3, np.kron(rho3, rho3)):
        pops = protocols._measure(rho, spec, np.random.default_rng(5))
        exact = protocols._measure(rho, dataclasses.replace(spec, shots=None), None)
        assert np.abs(pops - exact).max() < 0.1, len(rho)


@pytest.mark.filterwarnings("ignore:mitigated populations")
def test_measure_counts_equal_the_classified_joint_shots():
    """Shot-mode ``_measure`` returns the populations of classifying each
    setting's ``joint_shots`` node by node, counting the labels A-major and
    mitigating with the Kronecker product of the assignment matrices, from
    the same seed."""
    from photonlink import readout
    from photonlink import tomography as tomo

    spec = ProtocolSpec(name="qpt", dt=0.5, shots=20000, seed=11)
    psi = np.array([0.6, 0.8j, 0.0])
    rho3 = 0.9 * np.outer(psi, psi.conj()) + np.diag([0.05, 0.03, 0.02])
    bell = np.zeros(9, complex)
    bell[[1, 3]] = 1 / np.sqrt(2)  # (|ge> + |eg>) / sqrt 2
    rho9 = 0.85 * np.outer(bell, bell.conj()) + 0.15 * np.kron(rho3, rho3)
    for rho, nodes in ((rho3, ("B",)), (rho9, ("A", "B"))):
        pops = protocols._measure(rho, spec, np.random.default_rng(11))
        cals = [readout.default_calibration(node) for node in nodes]
        rng = np.random.default_rng(11)
        freqs = []
        for p in tomo.born_probabilities(rho):
            shots = readout.joint_shots(cals, np.clip(p, 0, None), spec.shots, rng)
            labels = 0
            for cal, pts in zip(cals, shots):
                labels = 3 * labels + readout.classify(pts, cal.model)
            freqs.append(np.bincount(labels, minlength=len(p)) / spec.shots)
        r = readout.kron(*[cal.analytic_assignment() for cal in cals])
        expected = readout.mitigate(np.array(freqs).T, r).populations.T
        assert np.array_equal(pops, expected), nodes


def test_qpt_depolarized_floor():
    # fully depolarizing channel: F_p = 1/4, well below the classical bound 1/2
    from photonlink import tomography as tomo

    inputs = tomo.mub_qubit_states()
    outputs = [np.eye(2, dtype=complex) / 2] * 6
    chi = tomo.qpt_linear_inversion(inputs, outputs)
    assert metrics.process_fidelity(chi.chi, tomo.CHI_IDENTITY) == pytest.approx(0.25)


def test_entanglement_noiseless_limit():
    spec = ProtocolSpec(
        name="e", dt=0.2, decoherence=False, eta_c=1.0,
        window=(-150.0, 150.0), idle_ns=0.0,
    )
    res = protocols.run_entanglement(spec)
    m = metrics.bundle_from_state(res.extras["rho9_direct"])
    assert m.state_fidelity > 0.995
    assert m.concurrence > 0.99
    assert m.ccnr > 1.98


def test_residual_downstream_flux_fraction():
    spec = ProtocolSpec(name="t", dt=0.2)
    eff, _ = protocols.run_transfer_efficiencies(spec)
    assert eff.absorption_eff > 0.95  # residual flux is a few percent


def test_emission_scenario_defaults():
    res = protocols.run_emission(node="B", initial="f", spec=None)
    assert res.spec.window == protocols.EMISSION_WINDOW
    assert res.spec.idle_ns == protocols.EMISSION_IDLE_NS


def test_a_drive_the_run_cannot_build_raises_config_error():
    """The drive builder refuses a photon broader than the resonator it
    passes (kappa_eff <= kappa_T) and names the drive, its bandwidth and its
    node."""
    with pytest.raises(protocols.ConfigError, match=r"11\.0 MHz photon at node A"):
        protocols.run_entanglement(ProtocolSpec(name="e", kappa_eff_a=11.0, dt=0.5))
    # node B's 10.6 MHz photon is built by the emit-b reference run alone
    node_a, node_b, link = device.load_device()
    narrow_b = (node_a, dataclasses.replace(node_b, kappa_T=10.5), link)
    with pytest.raises(protocols.ConfigError, match=r"emission drive of the 10\.6 MHz photon at node B"):
        protocols.run_transfer_efficiencies(ProtocolSpec(name="t", dt=0.5), nodes_link=narrow_b)


def _cli_spec(scenario, dt, fock):
    """The spec the CLI builds for ``--scenario SCENARIO --dt DT --fock FOCK``,
    checked to be the plain spec of that name and dt: ``--fock`` is accepted
    for old argvs and must change nothing."""
    args = cli.build_parser().parse_args(
        ["--scenario", scenario, "--dt", str(dt), "--fock", str(fock)]
    )
    spec = cli._spec_from_args(args, device.load_device(None))
    assert spec == ProtocolSpec(name=scenario, dt=dt)
    return spec


@pytest.mark.parametrize("fock", [2, 3])
def test_link_results_match_recorded_reference(fock):
    """Exact changes must reproduce the recorded link results to round-off.

    tests/link_reference.json holds the direct entangled state, its
    81-setting MLE reconstruction, the exact-readout chi matrix and the four
    transfer-study numbers at its recorded dt and fock 2.  They were recorded
    again when the drives came to be sampled at the half steps, which moved
    rho9_direct by the 3.5e-6 error of the earlier midpoint averages and the
    transfer numbers by up to 1.8e-6.  rho9_tomography was recorded again
    when the MLE came to iterate in real arithmetic: the earlier complex
    products stopped at an iterate that depended on the BLAS thread count,
    and the recorded one was the two-thread iterate, 7.5e-8 from the
    single-thread one that the MLE now reaches with any thread count.  A
    single excitation never fills a second photon level, so the same numbers
    held at fock 3; the model now fixes the two resonator levels
    ``device.DIMS`` holds, and the runs are built as the CLI builds them at
    either ``--fock`` value.
    """
    ref = json.loads((Path(__file__).parent / "link_reference.json").read_text())
    dt = ref["spec"]["dt"]

    def matrix(m):
        return np.asarray(m["re"]) + 1j * np.asarray(m["im"])

    ent = protocols.run_entanglement(_cli_spec("entangle", dt, fock)).extras
    assert np.abs(ent["rho9_direct"] - matrix(ref["rho9_direct"])).max() <= 1e-10
    assert np.abs(ent["rho9_tomography"] - matrix(ref["rho9_tomography"])).max() <= 1e-10
    chi = protocols.run_state_transfer_qpt(_cli_spec("qpt", dt, fock)).extras["chi"].chi
    assert np.abs(chi - matrix(ref["chi"])).max() <= 1e-10
    eff, _ = protocols.run_transfer_efficiencies(_cli_spec("transfer", dt, fock))
    for name, value in ref["transfer_efficiencies"].items():
        assert getattr(eff, name) == pytest.approx(value, abs=1e-10), name


@pytest.mark.parametrize("fock", [2, 3])
def test_link_runs_integrate_the_single_excitation_block(fock):
    """Every link protocol starts with at most one excitation, which reaches
    the same basis states whatever ``--fock`` the CLI is given: the 7 states
    with one excitation or none when B absorbs A's photon, and 5 of them when
    no node absorbs, since the idle node's qutrit then never leaves g.  The
    run counters are deterministic."""
    spec = _cli_spec("entangle", 0.5, fock)

    def counters():
        runs = [protocols.run_emission(spec, "B", initial) for initial in ("f", "gf")]
        runs += [protocols.run_transfer(spec, absorption=on) for on in (True, False)]
        runs.append(protocols.run_entanglement(spec))
        return [(run.trajectory.dim, run.trajectory.trace_drift) for run in runs]

    first = counters()
    assert [dim for dim, _ in first] == [5, 5, 7, 5, 7]
    assert all(drift < 1e-6 for _, drift in first)
    assert counters() == first


# the ground truth the step size is judged against: a run 40 times finer than
# the default step, whose own error on rho9_direct the fourth order puts near
# 1e-16
FINE_DT = 0.0125


@pytest.fixture(scope="module")
def fine_runs():
    spec = ProtocolSpec(name="fine", dt=FINE_DT)
    return {
        "rho9_direct": protocols.run_entanglement(spec).extras["rho9_direct"],
        "transfer_pair": [
            protocols.run_transfer(spec, absorption=on).trajectory.photon_integral
            for on in (True, False)
        ],
    }


def test_default_step_is_within_1e_8_of_the_fine_reference(fine_runs):
    """At the default dt the entangled state lies within 1e-8 of the fine
    run (2.8e-10 measured at dt 0.5), well inside the 1e-6 the step size
    may cost."""
    rho9 = protocols.run_entanglement(ProtocolSpec(name="entangle")).extras["rho9_direct"]
    assert np.abs(rho9 - fine_runs["rho9_direct"]).max() <= 1e-8


def test_drive_sampling_is_fourth_order(fine_runs):
    """Halving dt from 1 ns cuts the error of rho9_direct about 16-fold
    (measured order 4.2 and 4.1; midpoint averages of the drive samples,
    a second-order scheme, give 2)."""
    errors = [
        np.abs(
            protocols.run_entanglement(ProtocolSpec(name="entangle", dt=dt)).extras["rho9_direct"]
            - fine_runs["rho9_direct"]
        ).max()
        for dt in (1.0, 0.5, 0.25)
    ]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders.min() >= 3.5, (errors, orders)


def test_photon_integrals_match_the_fine_reference(fine_runs):
    """The emitted photon number of the transfer pair (absorption on and
    off) at dt 0.5 lies within 1e-8 of the fine run: Simpson's rule matches
    the scheme's order, where the trapezoid is 4e-8 and 2e-7 off."""
    spec = ProtocolSpec(name="transfer", dt=0.5)
    for on, fine in zip((True, False), fine_runs["transfer_pair"]):
        coarse = protocols.run_transfer(spec, absorption=on).trajectory.photon_integral
        assert coarse == pytest.approx(fine, abs=1e-8), on
