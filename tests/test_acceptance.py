"""Acceptance suite: every headline number of the modelled experiment, each
asserted at its stated tolerance and reported as one PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import warnings

import numpy as np
import pytest

from photonlink import device, dynamics, metrics, protocols, pulse, readout
from photonlink import tomography as tomo
from photonlink.protocols import ProtocolSpec
from photonlink.qops import mhz
from conftest import random_density, random_pure

warnings.filterwarnings("ignore", message="MLE stopped")


def check(label, value, target, tol):
    ok = abs(value - target) <= tol
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {value:.4f} vs {target} +/- {tol}")
    assert ok, f"{label}: {value:.6f} outside {target} +/- {tol}"


def check_bool(label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label} {detail}")
    assert ok, f"{label} {detail}"


# --- shared heavy runs -------------------------------------------------------

@pytest.fixture(scope="session")
def emission_b():
    return protocols.run_emission(node="B", initial="f")


@pytest.fixture(scope="session")
def transfer_study():
    return protocols.run_transfer_efficiencies(ProtocolSpec(name="transfer"))


@pytest.fixture(scope="session")
def qpt_run():
    return protocols.run_state_transfer_qpt(ProtocolSpec(name="qpt"))


@pytest.fixture(scope="session")
def entangle_run():
    return protocols.run_entanglement(ProtocolSpec(name="entangle"))


@pytest.fixture(scope="session")
def entangle_snapshots():
    """(t, rho) snapshots every 200 steps of the entanglement run's
    integration, which the run itself does not keep."""
    problem = protocols._link_problem(
        ProtocolSpec(name="entangle"), None, "A", [protocols.QUTRIT_PREPS["ef"]], absorb=True
    )
    [[(traj, _)]] = dynamics.integrate_me([problem], store_states=200)
    return traj.states


@pytest.fixture(scope="session")
def budget():
    return protocols.error_budget(ProtocolSpec(name="budget"))


@pytest.fixture(scope="session")
def upgrade_run():
    return protocols.run_upgrade_scenario(ProtocolSpec(name="upgrade"))


# --- criterion 1: photon shaping oracle -------------------------------------

@pytest.mark.parametrize("ratio", [0.5, 0.77, 1.0])
def test_criterion_1_photon_shaping_oracle(ratio):
    kappa_eff = mhz(10.4)
    kappa_t = kappa_eff / ratio
    half = pulse.default_grid(dt=0.025)
    env = pulse.emission_drive(half, kappa_eff, kappa_t)
    res = dynamics.two_level_oracle(env, kappa_t)
    ideal = 0.25 * kappa_eff / np.cosh(0.5 * kappa_eff * res.t) ** 2
    err = np.linalg.norm(res.flux - ideal) / np.linalg.norm(ideal)
    check_bool(
        f"criterion 1 (shaping oracle, k_eff/k_T={ratio})",
        err < 1e-3,
        f"rel L2 = {err:.2e}",
    )


# --- criterion 2: emission efficiency ----------------------------------------

def test_criterion_2_emission_ground_population(emission_b):
    p_g = emission_b.extras["final_populations"]["g"]
    check("criterion 2 (emission from B, final P_g)", p_g, 0.95, 0.02)
    # the emitted photon number tracks the converted population (the gap is
    # the nonradiative f -> e decay path)
    flux = emission_b.extras["photon_integral"]
    check("criterion 2 (emitted photon number)", flux, 0.95, 0.02)
    check_bool(
        "criterion 2 (flux consistent with populations)",
        flux <= p_g and p_g - flux < 0.01,
        f"flux {flux:.4f} vs P_g {p_g:.4f}",
    )


# --- criterion 3: inter-node loss estimator ----------------------------------

def test_criterion_3_loss_ratio(transfer_study):
    eff, _ = transfer_study
    check("criterion 3 (integrated |<a_out>|^2 ratio A/B)", 1.0 - eff.loss, 0.77, 0.01)


# --- criterion 4: transfer ----------------------------------------------------

def test_criterion_4_transfer(transfer_study):
    eff, _ = transfer_study
    check("criterion 4 (P_e saturation)", eff.transfer_eff, 0.676, 0.03)
    check("criterion 4 (saturation time, ns)", eff.saturation_ns, 180.0, 30.0)
    check("criterion 4 (absorption efficiency)", eff.absorption_eff, 0.98, 0.01)


# --- criterion 5: state-transfer process tomography ---------------------------

def test_criterion_5_process_fidelity(qpt_run):
    f_p = qpt_run.extras["process_fidelity"]
    chi = qpt_run.extras["chi"].chi
    check("criterion 5 (process fidelity F_p)", f_p, 0.800, 0.03)
    check("criterion 5 (chi identity weight)", chi[0, 0].real, 0.80, 0.03)
    diag = np.diag(chi).real
    off = chi - np.diag(np.diag(chi))
    check_bool(
        "criterion 5 (chi diagonal-dominated)",
        diag[0] > diag[1:].max() and np.abs(off).max() < diag[0] / 4,
        f"diag={np.round(diag, 3)}",
    )
    # cross-check: F_avg = (2 F_p + 1)/3 agrees with the direct average
    # state fidelity of the simulated outputs
    gap = abs(
        qpt_run.extras["avg_state_fidelity_from_fp"]
        - qpt_run.extras["avg_state_fidelity_direct"]
    )
    check_bool(
        "criterion 5 (QPT vs direct average fidelity)",
        gap < 0.015,
        f"gap {gap:.4f}",
    )


# --- criterion 6: entanglement -------------------------------------------------

def test_criterion_6_entanglement(entangle_run):
    m = entangle_run.extras["metrics"]
    check("criterion 6 (Bell fidelity)", m.state_fidelity, 0.789, 0.03)
    check("criterion 6 (concurrence)", m.concurrence, 0.747, 0.04)
    check("criterion 6 (ccnr)", m.ccnr, 1.612, 0.05)
    check("criterion 6 (residual f population)", m.residual_f_population, 0.035, 0.01)


# --- criterion 7: error budget --------------------------------------------------

def test_criterion_7_error_budget(budget):
    # the published split attributes the infidelity of each single-impairment
    # counterfactual: photon loss alone accounts for 12.5%, decoherence alone
    # for 11%; the raw disable-deltas are reported alongside
    check(
        "criterion 7 (loss-only infidelity)",
        budget["loss_only_infidelity"],
        0.125,
        0.02,
    )
    check(
        "criterion 7 (decoherence-only infidelity)",
        budget["decoherence_only_infidelity"],
        0.11,
        0.02,
    )
    print(
        "       raw deltas: loss off +{:.3f}, decoherence off +{:.3f}".format(
            budget["loss_off_delta"], budget["decoherence_off_delta"]
        )
    )
    check_bool(
        "criterion 7 (noiseless floor)",
        budget["fidelities"]["both_off"] >= 0.99,
        f"F = {budget['fidelities']['both_off']:.4f}",
    )


# --- criterion 8: coherence upgrade prediction ----------------------------------

def test_criterion_8_upgrade(upgrade_run):
    f = upgrade_run.extras["metrics"].state_fidelity
    check("criterion 8 (upgraded-coherence Bell fidelity)", f, 0.93, 0.015)


# --- criterion 9: readout pipeline ----------------------------------------------

def test_criterion_9_assignment_tables():
    n = 25000
    worst = 0.0
    for node, table in (("A", readout.TABLE_R_A), ("B", readout.TABLE_R_B)):
        cal = readout.default_calibration(node)
        for s in range(3):
            shots = cal.simulate_shots(np.eye(3)[s], n, seed=900 + s)
            freq = np.bincount(readout.classify(shots, cal.model), minlength=3) / n
            sigma = np.sqrt(np.clip(table[:, s] * (1 - table[:, s]), 1e-9, None) / n)
            worst = max(worst, np.max(np.abs(freq - table[:, s]) / (3 * sigma + 5e-4)))
    check_bool(
        "criterion 9 (sampled assignment matches measured tables)",
        worst <= 1.0,
        f"worst deviation {worst:.2f} x allowance",
    )


def test_criterion_9_mitigation_round_trip():
    n = 25000
    cal = readout.default_calibration("A")
    rng = np.random.default_rng(77)
    counts = [
        np.bincount(
            readout.classify(cal.simulate_shots(np.eye(3)[s], n, rng), cal.model),
            minlength=3,
        )
        for s in range(3)
    ]
    r_hat = readout.assignment_matrix(np.stack(counts))
    truth = np.array([0.5, 0.3, 0.2])
    freq = np.bincount(
        readout.classify(cal.simulate_shots(truth, n, rng), cal.model), minlength=3
    ) / n
    recovered = readout.mitigate(freq, r_hat).populations
    sigma = np.sqrt(truth * (1 - truth) / n)
    ok = np.all(np.abs(recovered - truth) <= 3 * sigma + 2e-3)
    check_bool(
        "criterion 9 (R^-1 mitigation recovers populations)",
        ok,
        f"recovered {np.round(recovered, 4)}",
    )


def test_criterion_9_two_node_table():
    product = 100 * readout.kron(readout.TABLE_R_A, readout.TABLE_R_B)
    dev = np.abs(product - readout.TABLE_R_TWO_NODE_PERCENT).max()
    check_bool(
        "criterion 9 (two-node matrix matches published table)",
        dev <= 0.1 + 1e-9,
        f"max deviation {dev:.3f} percentage points (rounding)",
    )


# --- criterion 10: property suites ----------------------------------------------

def test_criterion_10_trace_and_positivity(entangle_snapshots):
    drift = max(abs(np.trace(rho).real - 1.0) for _, rho in entangle_snapshots)
    low = min(np.linalg.eigvalsh(rho).min() for _, rho in entangle_snapshots)
    check_bool("criterion 10 (trace preservation)", drift < 1e-8, f"max drift {drift:.2e}")
    check_bool("criterion 10 (positivity)", low > -1e-7, f"min eigenvalue {low:.2e}")


def test_criterion_10_mle_round_trip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        rho = random_density(3, rng)
        rec = tomo.qst_mle(tomo.born_probabilities(rho))
        worst = max(worst, metrics.trace_norm_distance(rec, rho))
    check_bool("criterion 10 (MLE round trip)", worst < 1e-3, f"worst {worst:.2e}")


def test_criterion_10_witness_anchors():
    rng = np.random.default_rng(8)
    psi = np.kron(random_pure(3, rng), random_pure(3, rng))
    ccnr_prod = metrics.ccnr(np.outer(psi, psi.conj()), (3, 3))
    bell = np.outer(metrics.BELL_PSI_PLUS, metrics.BELL_PSI_PLUS.conj())
    conc = metrics.concurrence(bell)
    check_bool(
        "criterion 10 (ccnr of product state = 1)",
        abs(ccnr_prod - 1.0) < 1e-9,
        f"{ccnr_prod:.6f}",
    )
    check_bool(
        "criterion 10 (concurrence of Bell state = 1)",
        abs(conc - 1.0) < 1e-9,
        f"{conc:.6f}",
    )


@pytest.fixture(scope="session")
def eta_sweep(budget, entangle_run):
    f_088 = protocols.run_entanglement(
        ProtocolSpec(name="entangle", eta_c=0.88)
    ).extras["metrics"].state_fidelity
    return {
        1.0: budget["fidelities"]["loss_off"],
        0.88: f_088,
        0.77: entangle_run.extras["metrics"].state_fidelity,
    }


def test_criterion_10_fidelity_monotonic_in_loss(eta_sweep):
    ok = eta_sweep[1.0] > eta_sweep[0.88] > eta_sweep[0.77]
    check_bool(
        "criterion 10 (fidelity non-increasing with loss)",
        ok,
        f"F(eta)={ {k: round(v, 4) for k, v in eta_sweep.items()} }",
    )


def test_criterion_10_fidelity_monotonic_in_coherence(entangle_run):
    f1 = entangle_run.extras["metrics"].state_fidelity
    f3 = protocols.run_entanglement(
        ProtocolSpec(name="entangle", t_scale=3.0)
    ).extras["metrics"].state_fidelity
    f10 = protocols.run_entanglement(
        ProtocolSpec(name="entangle", t_scale=10.0)
    ).extras["metrics"].state_fidelity
    check_bool(
        "criterion 10 (fidelity non-decreasing with T1/T2)",
        f1 < f3 < f10,
        f"F(x1)={f1:.4f} F(x3)={f3:.4f} F(x10)={f10:.4f}",
    )


def test_criterion_10_single_photon_sector():
    """Two Fock levels per resonator are exact, not a truncation.

    N = q_A + q_B + 2(n_A + n_B) counts transmon quanta plus two per photon.
    H conserves it, every jump operator lowers it by one fixed amount (so
    L+L conserves it too), and every protocol starts with N <= 2.  The
    dynamics therefore never leaves N <= 2, where n_A + n_B <= 1.
    """
    node_a, node_b, link = device.load_device()
    levels = np.indices(device.DIMS).reshape(len(device.DIMS), -1)
    n_exc = levels[0] + levels[2] + 2 * (levels[1] + levels[3])
    number = np.diag(n_exc.astype(float))
    shift = n_exc[:, None] - n_exc[None, :]  # N(i) - N(j) for an entry op[i, j]

    t = pulse.default_grid(dt=0.5, span=150)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.absorption_drive(pulse.emission_drive(t, mhz(10.4), node_b.kappa_T_rad))
    h = device.build_hamiltonian(node_a, node_b, link, env_a, env_b)
    assert len(h.terms) == 2
    h_parts = [h.static, *(op for op, _ in h.terms)]
    commutator = max(np.abs(op @ number - number @ op).max() for op in h_parts)

    jump_shifts = {
        name: set(shift[op != 0].tolist())
        for name, op in device.build_collapse_ops(node_a, node_b, link)
    }
    bad_jumps = {
        name: s for name, s in jump_shifts.items() if len(s) != 1 or max(s) > 0
    }

    idle = protocols.QUTRIT_PREPS["g"]
    swap = tomo.ef_swap()
    preps = [protocols._initial_state(q, idle) for q in protocols.QUTRIT_PREPS.values()]
    preps += [protocols._initial_state(idle, q) for q in protocols.QUTRIT_PREPS.values()]
    preps += [
        protocols._initial_state(swap @ np.array([psi[0], psi[1], 0.0]), idle)
        for psi in tomo.mub_qubit_states()
    ]
    n_start = max(n_exc[np.diag(rho.data) != 0].max() for rho in preps)

    check_bool(
        "criterion 10 (single-photon sector: [N, H] = 0, no jump raises N, N <= 2 at start)",
        commutator <= 1e-12 and not bad_jumps and n_start <= 2,
        f"|[N, H]| {commutator:.1e}, mixed or raising jumps {bad_jumps}, max N at start {n_start}",
    )


def test_criterion_10_ramsey_calibration():
    """The dephasing convention reproduces the coherence-time table."""
    from photonlink.qops import DensityMatrix, ket

    node_a, node_b, _ = device.load_device()
    worst = 0.0
    for node in (node_a, node_b):
        cops = device.single_node_collapse_ops(node)
        t = np.arange(0.0, 900.0, 1.0)
        free = device.TimeDependentOperator((3,), np.zeros((3, 3), complex), (), t)
        e_ge = np.outer(ket(3, 1), ket(3, 0).conj())
        e_ef = np.outer(ket(3, 2), ket(3, 1).conj())
        psi = (ket(3, 0) + ket(3, 1)) / np.sqrt(2)
        [[(traj, _)]] = dynamics.integrate_me(
            [(free, cops, [DensityMatrix((3,), np.outer(psi, psi.conj()))], {"c": e_ge})]
        )
        t2ge = -t[-1] / np.log(2 * np.abs(traj.expect["c"][-1]))
        worst = max(worst, abs(t2ge / (node.T2ge * 1e3) - 1.0))
        psi = (ket(3, 1) + ket(3, 2)) / np.sqrt(2)
        [[(traj, _)]] = dynamics.integrate_me(
            [(free, cops, [DensityMatrix((3,), np.outer(psi, psi.conj()))], {"c": e_ef})]
        )
        t2ef = -t[-1] / np.log(2 * np.abs(traj.expect["c"][-1]))
        worst = max(worst, abs(t2ef / (node.T2ef * 1e3) - 1.0))
    check_bool(
        "criterion 10 (Ramsey calibration reproduces T2 within 1%)",
        worst < 0.01,
        f"worst {100 * worst:.3f}%",
    )
