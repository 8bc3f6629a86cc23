import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from photonlink import cli, device, dynamics, metrics, protocols, tomography
from photonlink.protocols import ProtocolSpec
from conftest import cut_short, populations, read_only
from oracles import joint_shots


@pytest.fixture(autouse=True)
def _quiet_mle():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="MLE stopped")
        yield


def test_preparation_kets_are_read_only():
    """The named qutrit preparations, built once at import and read by
    every run of a process, refuse writes."""
    for ket in protocols.QUTRIT_PREPS.values():
        with pytest.raises(ValueError, match="read-only"):
            ket[0] = ket[0]


def test_spec_validation():
    with pytest.raises(ValueError):
        ProtocolSpec(dt=0.0)
    with pytest.raises(ValueError):
        ProtocolSpec(window=(10.0, 95.0))
    with pytest.raises(ValueError):
        ProtocolSpec(t_scale=0.0)
    with pytest.raises(ValueError):
        ProtocolSpec(idle_ns=-300.0)
    with pytest.raises(ValueError):
        ProtocolSpec(seed=-1)
    with pytest.raises(ValueError):
        ProtocolSpec(shots=0)
    # a run's size is bounded before anything is allocated: at most 1e5 RK4
    # steps on the window and idle time, at most 1e6 shots
    for kwargs in (dict(dt=1e-5), dict(idle_ns=1e7), dict(dt=0.001),
                   dict(shots=10**6 + 1), dict(shots=10**7)):
        with pytest.raises(ValueError, match="at most|must lie in"):
            ProtocolSpec(**kwargs)
    ProtocolSpec(shots=10**6)
    ProtocolSpec(dt=0.0025)  # 92 000 steps
    with pytest.raises(ValueError):
        ProtocolSpec(kappa_eff_b=0.0)
    with pytest.raises(ValueError):
        ProtocolSpec(eta_c=1.5)
    for value in (float("nan"), float("inf"), -float("inf")):
        for name in ("eta_c", "time_offset", "kappa_eff_a", "idle_ns", "dt", "t_scale"):
            with pytest.raises(ValueError):
                ProtocolSpec(**{name: value})
        with pytest.raises(ValueError):
            ProtocolSpec(window=(-95.0, value))
    # dt must divide the window edges and idle_ns, or the grid would move an
    # edge (at dt 0.3 it starts at -95.1 ns); 95 / 0.1 is inexact and passes
    for kwargs in (dict(dt=0.3), dict(idle_ns=40.25), dict(dt=0.2, window=(-95.0, 95.1))):
        with pytest.raises(ValueError, match="dt must divide"):
            ProtocolSpec(**kwargs)
    for dt in (1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 0.0125):
        ProtocolSpec(dt=dt)
        ProtocolSpec(dt=dt, window=protocols.EMISSION_WINDOW, idle_ns=0.0)
        ProtocolSpec(dt=dt, window=(-150.0, 150.0), idle_ns=0.0)


def test_spec_refuses_non_integer_shots_and_seed():
    """A float, bool or string count or seed is refused when the spec is
    built; the run would otherwise integrate and then fail with a TypeError
    from the readout draw or from SeedSequence."""
    for kwargs in (dict(shots=2000.5), dict(shots=2000.0), dict(shots=True), dict(shots="2000"),
                   dict(seed=1.5), dict(seed=False), dict(seed=None)):
        with pytest.raises(ValueError, match="must be an integer"):
            ProtocolSpec(**kwargs)
    spec = ProtocolSpec(shots=np.int64(2000), seed=np.int64(1))
    assert (spec.shots, spec.seed) == (2000, 1)


def test_level_populations_of_both_nodes_sum_to_the_trace(entangle_run):
    """Each node's recorded level populations sum to Tr rho at every grid
    point of the exact entanglement run, so the two nodes' sums agree."""
    traj = entangle_run.trajectory
    sum_a, sum_b = (sum(traj.expect[f"P{level}_{node}"] for level in "gef") for node in "AB")
    assert np.abs(sum_a - sum_b).max() <= 1e-12
    assert np.abs(sum_a - 1.0).max() <= 1e-6


def test_runs_are_deterministic(entangle_run):
    a = entangle_run
    b = protocols.run_entanglement(a.spec)
    assert np.array_equal(a.extras["rho9_direct"], b.extras["rho9_direct"])
    assert np.array_equal(a.extras["rho9_tomography"], b.extras["rho9_tomography"])
    assert np.array_equal(populations(a.trajectory, "_B"), populations(b.trajectory, "_B"))


@pytest.mark.filterwarnings("ignore:mitigated populations")
def test_sampled_mode_deterministic_and_seed_sensitive():
    spec = ProtocolSpec(shots=300, seed=5)
    a = protocols.run_entanglement(spec)
    b = protocols.run_entanglement(spec)
    c = protocols.run_entanglement(dataclasses.replace(spec, seed=6))
    assert np.array_equal(a.extras["rho9_tomography"], b.extras["rho9_tomography"])
    assert not np.array_equal(a.extras["rho9_tomography"], c.extras["rho9_tomography"])


def test_emission_prep_g_stays_inert():
    res = protocols.run_transfer(ProtocolSpec(), "g")
    rho9 = res.final_state
    assert rho9[0, 0].real > 0.99  # both nodes remain in g


def test_emission_without_drive_is_frozen():
    spec = ProtocolSpec()
    h, *rest = protocols._link_problem(spec, None, "B", [protocols.QUTRIT_PREPS["f"]])
    [(op, samples)] = h.terms
    undriven = dataclasses.replace(h, terms=((op, np.zeros_like(samples)),))
    [[(traj, _)]] = protocols._integrate_links([(undriven, *rest)])
    # only T1 decay moves population out of f
    duration = spec.window[1] + spec.idle_ns - spec.window[0]
    node_b = device.load_device()[1]
    expected_f = np.exp(-duration / (node_b.T1ef * 1e3))
    assert traj.expect["Pf_B"][-1].real == pytest.approx(expected_f, abs=2e-3)
    assert traj.photon_integral < 1e-6


def test_truncated_run_matches_full_trajectory_at_tau():
    """Measuring right after truncation equals the untruncated curve at tau."""
    spec = ProtocolSpec(window=(-95.0, 95.0), idle_ns=0.0, dt=0.2)
    [full] = protocols.run_emissions(spec, "B", ("f",))
    full_pops = populations(full.trajectory, "_B")
    problem = protocols._link_problem(spec, None, "B", [protocols.QUTRIT_PREPS["f"]])
    for tau in (-20.0, 0.0, 30.0):
        steps = int(round((tau - spec.window[0]) / spec.dt))
        [[(cut, rho)]] = protocols._integrate_links([cut_short(problem, steps)])
        assert cut.t[-1] == pytest.approx(tau)
        k = np.searchsorted(full.trajectory.t, tau - 1e-9)
        assert full.trajectory.t[k] == pytest.approx(tau)
        cut_pops = [np.trace(device.LEVEL_PROJECTORS[f"P{level}_B"] @ rho).real for level in "gef"]
        assert np.abs(cut_pops - full_pops[k]).max() < 1e-9, tau
        assert np.abs(populations(cut, "_B")[-1] - full_pops[k]).max() < 1e-9, tau


def test_transfer_saturation_helper(transfer_study):
    res = transfer_study[1]["with"]  # the transfer of "e" with absorption
    sat, t_sat = dynamics.transfer_saturation(res.trajectory)
    assert 0 < sat < 1
    assert 0 < t_sat < 300


def test_upgrade_uses_stated_parameters(upgrade_run):
    res = upgrade_run
    assert res.extras["metrics"].state_fidelity > 0.85
    # eta override is honored
    res_eta1 = protocols.run_upgrade_scenario(ProtocolSpec(eta_c=1.0))
    assert res_eta1.extras["metrics"].state_fidelity > res.extras["metrics"].state_fidelity


def test_error_budget_structure(budget):
    fid = budget["fidelities"]
    assert fid["both_off"] > fid["loss_off"] > fid["baseline"]
    assert budget["loss_off_delta"] > 0
    assert budget["decoherence_off_delta"] > 0
    assert budget["loss_only_infidelity"] == pytest.approx(1 - fid["decoherence_off"])


def test_exact_tomography_matches_direct_state():
    spec = ProtocolSpec(dt=0.2)
    res = protocols.run_entanglement(spec)
    assert res.extras["metrics"].hs_distance < 1e-3
    direct = metrics.bundle_from_state(res.extras["rho9_direct"])
    rec = res.extras["metrics"]
    assert rec.state_fidelity == pytest.approx(direct.state_fidelity, abs=1e-3)
    assert rec.ccnr == pytest.approx(direct.ccnr, abs=2e-3)


def test_sampled_entanglement_close_to_exact(entangle_run):
    exact = entangle_run
    sampled = protocols.run_entanglement(
        ProtocolSpec(dt=0.5, shots=25000, seed=1)
    )
    f_exact = exact.extras["metrics"].state_fidelity
    f_sampled = sampled.extras["metrics"].state_fidelity
    assert f_sampled == pytest.approx(f_exact, abs=0.02)


def test_qpt_noiseless_identity_process():
    spec = ProtocolSpec(
        dt=0.2, decoherence=False, eta_c=1.0,
        window=(-150.0, 150.0), idle_ns=0.0,
    )
    node_a, node_b, link = device.load_device()
    matched_b = dataclasses.replace(node_b, kappa_T=node_a.kappa_T)
    res = protocols.run_state_transfer_qpt(spec, nodes_link=(node_a, matched_b, link))
    assert res.extras["process_fidelity"] > 0.999


def test_qpt_exact_readout_chi_matches_direct_oracle(qpt_run):
    """With exact readout the tomographic chi differs from the inversion of
    the directly simulated outputs only by the MLE's stopping error."""
    res = qpt_run
    gap = np.abs(res.extras["chi"] - res.extras["chi_direct"]).max()
    assert gap <= 5e-5


def test_qpt_integrates_before_drawing_and_measures_in_input_order():
    """The batched QPT draws the same shots as transferring and measuring
    each input in turn with one generator."""
    from photonlink import tomography as tomo

    spec = ProtocolSpec(dt=0.5, shots=2000, seed=3)
    rng = np.random.default_rng(3)
    inputs = tomo.mub_qubit_states()
    outputs = []
    for psi in inputs:
        qubit = np.array([psi[0], psi[1], 0.0], dtype=complex)
        rho3 = protocols.run_transfer(spec, qubit).extras["final_qutrit_b"]
        outputs.append(tomo.qst_mle(protocols._measure(rho3, spec, rng)[None])[0, :2, :2])
    reference = tomo.qpt_linear_inversion(inputs, outputs)
    chi = protocols.run_state_transfer_qpt(spec).extras["chi"]
    assert np.abs(chi - reference).max() <= 1e-12


def _assert_same_entanglement(batched, alone):
    """Two entanglement runs are bit-identical: states, trajectories and
    metrics."""
    for key in ("rho9_direct", "rho9_tomography", "tomography_populations"):
        assert np.array_equal(batched.extras[key], alone.extras[key]), key
    assert dataclasses.asdict(batched.extras["metrics"]) == dataclasses.asdict(alone.extras["metrics"])
    a, b = batched.trajectory, alone.trajectory
    for node in ("_A", "_B"):
        assert np.array_equal(populations(a, node), populations(b, node)), node
    assert np.array_equal(a.a_mean_out, b.a_mean_out) and np.array_equal(a.flux_out, b.flux_out)


def test_eta_c_sweep_batch_equals_its_single_runs():
    """A three-point eta_c sweep integrates as one batch and reconstructs as
    one MLE stack, bit-identical to running each point on its own, exact
    and with shots (each point draws from its own seed)."""
    for shots in (None, 2000):
        specs = [
            ProtocolSpec(eta_c=eta, shots=shots, seed=7)
            for eta in (0.72, 0.77, 0.9)
        ]
        for batched, spec in zip(protocols.run_entanglements(specs), specs):
            _assert_same_entanglement(batched, protocols.run_entanglement(spec))


def test_error_budget_equals_its_single_runs(budget):
    spec = ProtocolSpec()
    runs = budget["runs"]
    singles = {
        "baseline": spec,
        "loss_off": dataclasses.replace(spec, eta_c=1.0),
        "decoherence_off": dataclasses.replace(spec, decoherence=False),
        "both_off": dataclasses.replace(spec, eta_c=1.0, decoherence=False),
    }
    for name, single in singles.items():
        _assert_same_entanglement(runs[name], protocols.run_entanglement(single))


def test_runs_on_different_grids_integrate_as_separate_batches(
    monkeypatch, entangle_dt05, entangle_run
):
    """A dt sweep splits into one batch per grid, and each run still equals
    its run on its own: ``entangle_dt05`` at dt 0.5, the default run at 1."""
    calls = []
    integrate = dynamics._integrate_batch

    def counting(problems, runs):
        calls.append(len(problems))
        return integrate(problems, runs)

    specs = [ProtocolSpec(dt=dt) for dt in (0.5, 1.0, 0.5)]
    monkeypatch.setattr(dynamics, "_integrate_batch", counting)
    batched = protocols.run_entanglements(specs)
    assert calls == [2, 1]
    assert entangle_run.spec.dt == 1.0
    alone = {0.5: entangle_dt05, 1.0: entangle_run}
    for run, spec in zip(batched, specs):
        _assert_same_entanglement(run, alone[spec.dt])


def test_trace_drift_names_the_run_by_its_place_in_the_list():
    """Runs 0 and 2 share a grid and integrate as one batch, in which the
    drifting run 2 is the second group; the error names it as run 2."""
    from photonlink.qops import destroy

    def problem(t, rate):
        h = device.TimeDependentOperator(np.zeros((2, 2), complex), (), t)
        excited = np.diag([0, 1.0]).astype(complex)
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

    spec = ProtocolSpec(shots=2000, seed=3)
    stacks = []
    mle = tomo.qst_mle

    def recording(pops):
        stacks.append(np.array(pops))
        return mle(pops)

    monkeypatch.setattr(tomo, "qst_mle", recording)
    chi = protocols.run_state_transfer_qpt(spec).extras["chi"]
    [pops] = stacks
    assert pops.shape == (6, 9, 3)
    outputs = [mle(p[None])[0, :2, :2] for p in pops]
    assert np.array_equal(chi, tomo.qpt_linear_inversion(tomo.mub_qubit_states(), outputs))


def test_transfer_study_and_emission_pairs_equal_their_single_runs(transfer_study, emission_b):
    """The transfer study integrates its transfer pair and its emission pair
    as two batches, and the emission scenario its two preparations as one
    integration; every run is bit-identical to its run on its own (node B's
    emission of f on its own is the session's ``emission_b``, at the same
    spec)."""
    spec = ProtocolSpec()
    eff, runs = transfer_study
    emit_spec = dataclasses.replace(
        spec, window=protocols.EMISSION_WINDOW, idle_ns=protocols.EMISSION_IDLE_NS
    )
    singles = {
        "with": protocols.run_transfer(spec, "e", absorption=True),
        "without": protocols.run_transfer(spec, "e", absorption=False),
        "emit_a": protocols.run_emissions(emit_spec, "A", ("gf",))[0],
        "emit_b": protocols.run_emissions(emit_spec, "B", ("gf",))[0],
    }
    for name, single in singles.items():
        assert runs[name].spec == single.spec
        assert np.array_equal(runs[name].final_state, single.final_state), name
        assert np.array_equal(runs[name].trajectory.flux_out, single.trajectory.flux_out), name
        assert np.array_equal(populations(runs[name].trajectory, "_B"), populations(single.trajectory, "_B")), name
    assert eff == dynamics.efficiencies(*(singles[k].trajectory for k in singles))
    pair = protocols.run_emissions(emit_spec, "B", ("f", "gf"))
    for run, single, initial in zip(pair, (emission_b, singles["emit_b"]), ("f", "gf")):
        assert np.array_equal(run.final_state, single.final_state), initial
        assert np.array_equal(run.trajectory.a_mean_out, single.trajectory.a_mean_out), initial
        assert run.extras == single.extras


@pytest.mark.filterwarnings("ignore:mitigated populations")
def test_measure_draws_states_within_the_integrator_bounds():
    """Shot-mode tomography measures states the integrator accepts, with an
    eigenvalue of -1e-7 and a trace 1e-6 above one, on either node count."""
    spec = ProtocolSpec(dt=0.5, shots=2000, seed=5)
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

    spec = ProtocolSpec(dt=0.5, shots=20000, seed=11)
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
            shots = joint_shots(cals, np.clip(p, 0, None), spec.shots, rng)
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
    assert metrics.process_fidelity(chi, tomo.CHI_IDENTITY) == pytest.approx(0.25)


def test_entanglement_noiseless_limit():
    spec = ProtocolSpec(
        dt=0.2, decoherence=False, eta_c=1.0,
        window=(-150.0, 150.0), idle_ns=0.0,
    )
    res = protocols.run_entanglement(spec)
    m = metrics.bundle_from_state(res.extras["rho9_direct"])
    assert m.state_fidelity > 0.995
    assert m.concurrence > 0.99
    assert m.ccnr > 1.98


def test_residual_downstream_flux_fraction():
    spec = ProtocolSpec(dt=0.2)
    eff, _ = protocols.run_transfer_efficiencies(spec)
    assert eff.absorption_eff > 0.95  # residual flux is a few percent


def test_emission_scenario_defaults(emission_b):
    res = emission_b  # run_emissions(node="B"), its spec left to the default
    assert res.spec.window == protocols.EMISSION_WINDOW
    assert res.spec.idle_ns == protocols.EMISSION_IDLE_NS


def test_a_drive_the_run_cannot_build_raises_config_error():
    """The drive builder refuses a photon broader than the resonator it
    passes (kappa_eff <= kappa_T) and names the drive, its bandwidth and its
    node."""
    with pytest.raises(protocols.ConfigError, match=r"11\.0 MHz photon at node A"):
        protocols.run_entanglement(ProtocolSpec(kappa_eff_a=11.0, dt=0.5))
    # node B's 10.6 MHz photon is built by the emit-b reference run alone
    node_a, node_b, link = device.load_device()
    narrow_b = (node_a, dataclasses.replace(node_b, kappa_T=10.5), link)
    with pytest.raises(protocols.ConfigError, match=r"emission drive of the 10\.6 MHz photon at node B"):
        protocols.run_transfer_efficiencies(ProtocolSpec(dt=0.5), nodes_link=narrow_b)


def _cli_spec(scenario, dt, fock):
    """The spec the CLI builds for ``--scenario SCENARIO --dt DT --fock FOCK``,
    checked to be the plain spec of that dt: ``--fock`` is accepted
    for old argvs and must change nothing."""
    args = cli.build_parser().parse_args(
        ["--scenario", scenario, "--dt", str(dt), "--fock", str(fock)]
    )
    spec = cli._spec_from_args(args, device.load_device(None))
    assert spec == ProtocolSpec(dt=dt)
    return spec


def test_fock_flag_builds_the_plain_spec():
    """``--fock 3`` builds the spec ``--fock 2`` does for every scenario
    the recorded-reference and block tests run, so the runs they read stand
    for either value."""
    for scenario in ("entangle", "qpt", "transfer"):
        _cli_spec(scenario, 0.5, 3)


def _block_counters(runs):
    return [(run.trajectory.dim, run.trajectory.trace_drift) for run in runs]


def _block_runs(spec):
    runs = [protocols.run_emissions(spec, "B", (initial,))[0] for initial in ("f", "gf")]
    runs += [protocols.run_transfer(spec, absorption=on) for on in (True, False)]
    runs.append(protocols.run_entanglement(spec))
    return runs


@pytest.mark.parametrize("fock", [2])
def test_link_results_match_recorded_reference(fock, entangle_dt05):
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
    ``device.DIMS`` holds, ``--fock`` changes no spec
    (``test_fock_flag_builds_the_plain_spec``), and the runs read here are
    the ones the CLI builds at the recorded dt, 0.5 ns.  The default step
    has been 1 ns since; its own error is checked against the fine run
    (``test_default_step_is_within_1e_8_of_the_fine_reference``).
    """
    ref = json.loads((Path(__file__).parent / "link_reference.json").read_text())
    dt = ref["spec"]["dt"]

    def matrix(m):
        return np.asarray(m["re"]) + 1j * np.asarray(m["im"])

    assert _cli_spec("entangle", dt, fock) == entangle_dt05.spec
    ent = entangle_dt05.extras
    assert np.abs(ent["rho9_direct"] - matrix(ref["rho9_direct"])).max() <= 1e-10
    assert np.abs(ent["rho9_tomography"] - matrix(ref["rho9_tomography"])).max() <= 1e-10
    chi = protocols.run_state_transfer_qpt(_cli_spec("qpt", dt, fock)).extras["chi"]
    assert np.abs(chi - matrix(ref["chi"])).max() <= 1e-10
    eff, _ = protocols.run_transfer_efficiencies(_cli_spec("transfer", dt, fock))
    for name, value in ref["transfer_efficiencies"].items():
        assert getattr(eff, name) == pytest.approx(value, abs=1e-10), name


@pytest.mark.parametrize("fock", [2])
def test_link_runs_integrate_the_single_excitation_block(fock, entangle_run, transfer_study):
    """Every link protocol starts with at most one excitation, which reaches
    the same basis states whatever ``--fock`` the CLI is given: the 7 states
    with one excitation or none when B absorbs A's photon, and 5 of them when
    no node absorbs, since the idle node's qutrit then never leaves g.  The
    run counters are deterministic: a second integration of the default
    spec gives the counters of its first, whose transfer pair and
    entanglement are the session's default runs."""
    spec = _cli_spec("entangle", protocols.DEFAULT_DT, fock)
    runs = transfer_study[1]
    first = _block_counters([
        *(protocols.run_emissions(spec, "B", (initial,))[0] for initial in ("f", "gf")),
        runs["with"], runs["without"], entangle_run,
    ])
    assert [dim for dim, _ in first] == [5, 5, 7, 5, 7]
    assert all(drift < 1e-6 for _, drift in first)
    assert _block_counters(_block_runs(spec)) == first


def test_link_final_states_are_exactly_hermitian():
    """The generator keeps a state Hermitian when H is Hermitian and the
    drive samples real, and the RK4 step repairs nothing: the final state
    of every link problem the CLI builds equals its conjugate transpose bit
    for bit.  These are the emissions of f and gf from either node, the
    transfer with and without absorption, qpt's six inputs and the
    entanglement preparation."""
    spec = ProtocolSpec()
    emit_spec = dataclasses.replace(
        spec, window=protocols.EMISSION_WINDOW, idle_ns=protocols.EMISSION_IDLE_NS
    )
    swap = tomography.ef_swap()
    qpt_preps = [swap @ np.array([psi[0], psi[1], 0.0]) for psi in tomography.mub_qubit_states()]
    emissions = [protocols.QUTRIT_PREPS["f"], protocols.QUTRIT_PREPS["gf"]]
    problems = [
        protocols._link_problem(emit_spec, None, "A", emissions),
        protocols._link_problem(emit_spec, None, "B", emissions),
        protocols._transfer_problem(spec, None, "e", absorption=True),
        protocols._transfer_problem(spec, None, "e", absorption=False),
        protocols._link_problem(spec, None, "A", qpt_preps, absorb=True),
        protocols._link_problem(spec, None, "A", [protocols.QUTRIT_PREPS["ef"]], absorb=True),
    ]
    runs = protocols._integrate_links(problems)
    assert [len(pairs) for pairs in runs] == [2, 2, 1, 1, 6, 1]
    for n, pairs in enumerate(runs):
        for i, (_, rho) in enumerate(pairs):
            assert np.array_equal(rho, rho.conj().T), (n, i)


# the ground truth the step size is judged against: a run 40 times finer than
# the default step, whose own error on rho9_direct the fourth order puts near
# 1e-16
FINE_DT = 0.0125


@pytest.fixture(scope="module")
def fine_runs():
    spec = ProtocolSpec(dt=FINE_DT)
    return {
        "rho9_direct": protocols.run_entanglement(spec).extras["rho9_direct"],
        "transfer_pair": [
            protocols.run_transfer(spec, absorption=on).trajectory.photon_integral
            for on in (True, False)
        ],
    }


def test_default_step_is_within_1e_8_of_the_fine_reference(fine_runs, entangle_run):
    """At the default dt the entangled state lies within 1e-8 of the fine
    run (5.1e-9 measured at dt 1), well inside the 1e-6 the step size may
    cost."""
    rho9 = entangle_run.extras["rho9_direct"]
    assert np.abs(rho9 - fine_runs["rho9_direct"]).max() <= 1e-8


def test_drive_sampling_is_fourth_order(fine_runs, entangle_run, entangle_dt05):
    """Halving dt from 1 ns cuts the error of rho9_direct about 16-fold
    (measured order 4.2 and 4.1; midpoint averages of the drive samples,
    a second-order scheme, give 2).  The default run is the one at 1 ns."""
    assert entangle_run.spec.dt == 1.0
    runs = [
        entangle_run,
        entangle_dt05,
        protocols.run_entanglement(ProtocolSpec(dt=0.25)),
    ]
    errors = [
        np.abs(run.extras["rho9_direct"] - fine_runs["rho9_direct"]).max() for run in runs
    ]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders.min() >= 3.5, (errors, orders)


def test_photon_integrals_match_the_fine_reference(fine_runs):
    """The emitted photon number of the transfer pair (absorption on and
    off) at dt 0.5 lies within 1e-8 of the fine run: Simpson's rule matches
    the scheme's order, where the trapezoid is 4e-8 and 2e-7 off."""
    spec = ProtocolSpec(dt=0.5)
    for on, fine in zip((True, False), fine_runs["transfer_pair"]):
        coarse = protocols.run_transfer(spec, absorption=on).trajectory.photon_integral
        assert coarse == pytest.approx(fine, abs=1e-8), on


def test_default_step_photon_integrals_are_within_1e_7_of_the_fine_reference(
    fine_runs, transfer_study
):
    """The default transfer study's pair, at dt 1, emits within 1e-7 of the
    fine run's photon number (7.2e-8 and 2.4e-8 measured)."""
    runs = transfer_study[1]
    assert runs["with"].spec.dt == protocols.DEFAULT_DT
    for on, fine in zip((True, False), fine_runs["transfer_pair"]):
        coarse = runs["with" if on else "without"].trajectory.photon_integral
        assert coarse == pytest.approx(fine, abs=1e-7), on
