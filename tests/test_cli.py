import json
from dataclasses import asdict

import numpy as np
import scipy

from photonlink import cli, device
from photonlink.dynamics import TraceDriftError


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    code = cli.run(["--out", str(out), *argv])
    return code, out


def test_unknown_scenario_exits_2_without_files(tmp_path):
    out = tmp_path / "none"
    code = cli.run(["--scenario", "bogus", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def _device_file(path, section, **fields):
    """The shipped device table with some fields of one section replaced."""
    node_a, node_b, link = device.load_device()
    raw = {"node_a": asdict(node_a), "node_b": asdict(node_b), "link": asdict(link)}
    raw[section].update(fields)
    path.write_text(json.dumps(raw))  # writes NaN, which json.load accepts
    return str(path)


def test_conflicting_flags_exit_2(tmp_path):
    not_a_dir = tmp_path / "not-a-dir"
    not_a_dir.write_bytes(b"keep me\n")
    nan_t1 = _device_file(tmp_path / "nan.json", "node_a", T1ge=float("nan"))
    no_channel = _device_file(tmp_path / "eta0.json", "link", eta_c=0.0)
    for argv in (
        ["--shots", "10", "--exact"],
        ["--eta-c", "1.5"],
        ["--dt", "0"],
        ["--dt", "0.3"],  # does not divide the +-95 ns window
        ["--t-scale", "0"],
        ["--idle-ns", "-300"],
        ["--kappa-eff", "12"],  # above node A's kappa_T of 10.4 MHz
        # below about 10.05 MHz the +-95 ns drive window cannot span +-6/kappa_eff
        ["--kappa-eff", "10", "--dt", "0.5"],
        ["--scenario", "emit-b", "--kappa-eff", "10", "--dt", "0.5"],
        ["--seed", "-1"],
        ["--out", str(not_a_dir)],  # an existing regular file
        # non-finite numbers, for which every <= / < check is False
        ["--idle-ns", "nan"],
        ["--idle-ns", "inf"],
        ["--time-offset", "nan"],
        ["--time-offset", "inf"],
        # the receiver drive is delayed inside the drive window, whose edge
        # would cut it: 100% of its energy at +1000 ns, 12.7% at -40 ns
        ["--time-offset", "1000", "--dt", "0.5"],
        ["--scenario", "qpt", "--time-offset", "-40", "--dt", "0.5"],
        ["--kappa-eff", "nan"],
        ["--device", nan_t1],
        # a later --scenario overrides the entangle default below
        ["--scenario", "emit-b", "--dt", "nan"],
        ["--scenario", "emit-b", "--t-scale", "nan"],
        ["--scenario", "emit-b", "--t-scale", "inf"],
        ["--scenario", "emit-b", "--t-scale", "1e308"],  # scales T1 to inf
        # no photon reaches B: the absorption efficiency is undefined
        ["--scenario", "transfer", "--eta-c", "0"],
        ["--scenario", "transfer", "--device", no_channel],
        # --fock is accepted and ignored, but a value below 2 is still an error
        ["--fock", "1"],
    ):
        code, out = run_cli(tmp_path, "--scenario", "entangle", *argv)
        assert code == 2, argv
        assert not out.exists(), argv
    assert not_a_dir.read_bytes() == b"keep me\n"


def test_argparse_errors_return_2_without_files(tmp_path, capsys):
    for argv in (
        ["--scenario", "entangle", "--shots", "ten"],
        ["--scenario", "entangle", "--no-such-flag"],
        ["--scenario", "entangle", "--fock", "2.5"],
        ["--dt", "0.5"],  # --scenario is required
    ):
        out = tmp_path / "none"
        assert cli.run(["--out", str(out), *argv]) == 2, argv
        assert not out.exists(), argv
    assert "usage: photonlink" in capsys.readouterr().err


def test_fock_flag_is_accepted_and_ignored(tmp_path):
    """Resonators hold the one photon a protocol makes, so --fock changes no
    artifact; it stays accepted for existing scripts."""
    runs = {}
    for fock in ("2", "3"):
        code, out = run_cli(tmp_path / fock, "--scenario", "entangle", "--dt", "0.5", "--fock", fock)
        assert code == 0
        runs[fock] = out / "entangle"
    names = sorted(p.name for p in runs["2"].iterdir())
    assert names == sorted(p.name for p in runs["3"].iterdir())
    for name in names:
        assert (runs["2"] / name).read_bytes() == (runs["3"] / name).read_bytes(), name
    manifest = json.loads((runs["2"] / "manifest.json").read_text())
    assert "fock" not in manifest["config"]


def test_missing_device_file_exits_2(tmp_path):
    code, _ = run_cli(tmp_path, "--scenario", "entangle", "--device", "/no/such.json")
    assert code == 2


def test_sweep_requires_values(tmp_path):
    for argv in (
        ["--sweep-param", "eta_c"],
        ["--sweep-param", "eta_c", "--sweep-values", ""],
        ["--sweep-param", "voltage", "--sweep-values", "1"],
        # the Fock truncation is not a knob
        ["--sweep-param", "fock", "--sweep-values", "3,1"],
        ["--sweep-param", "fock", "--sweep-values", "2.5", "--dt", "0.5"],
        # every point is validated before the first one runs
        ["--sweep-param", "eta_c", "--sweep-values", "0.9,1.5"],
        ["--sweep-param", "dt", "--sweep-values", "0.5,0"],
        ["--sweep-param", "dt", "--sweep-values", "0.5,0.3"],
        ["--sweep-param", "kappa_eff", "--sweep-values", "10,0"],
        ["--sweep-param", "kappa_eff", "--sweep-values", "10.4,9", "--dt", "0.5"],
        ["--sweep-param", "dt", "--sweep-values", "nan"],
    ):
        code, out = run_cli(tmp_path, "--scenario", "sweep", *argv)
        assert code == 2, argv
        assert not out.exists(), argv


def test_emit_scenario_writes_artifacts(tmp_path):
    code, out = run_cli(
        tmp_path, "--scenario", "emit-b", "--dt", "0.5", "--truncate-sweep"
    )
    assert code == 0
    run_dir = out / "emit-b"
    for name in (
        "manifest.json",
        "summary.json",
        "run.log",
        "trajectory.csv",
        "trajectory_mean_field.csv",
        "truncation_sweep.csv",
    ):
        assert (run_dir / name).exists(), name
    summary = json.loads((run_dir / "summary.json").read_text())
    assert 0.9 < summary["final_populations"]["g"] <= 1.0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["scenario"] == "emit-b"
    assert manifest["config"]["dt"] == 0.5
    assert manifest["device"]["link"]["eta_c"] == 0.77
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_rerun_is_byte_identical(tmp_path):
    args = ["--scenario", "emit-b", "--dt", "0.5"]
    _, out1 = run_cli(tmp_path / "a", *args)
    _, out2 = run_cli(tmp_path / "b", *args)
    for path1 in sorted((out1 / "emit-b").glob("*")):
        path2 = out2 / "emit-b" / path1.name
        assert path1.read_bytes() == path2.read_bytes(), path1.name


def test_entangle_scenario_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "--scenario", "entangle", "--dt", "0.5")
    assert code == 0
    run_dir = out / "entangle"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert set(summary) >= {"state_fidelity", "concurrence", "ccnr", "residual_f_population"}
    rho = json.loads((run_dir / "rho_two_qutrit_direct.json").read_text())
    assert np.asarray(rho["re"]).shape == (9, 9)
    pauli = (run_dir / "pauli_expectations.csv").read_text().strip().split("\n")
    assert len(pauli) == 16  # header + 15 operators


def test_sampled_entangle_scenario(tmp_path):
    code, out = run_cli(
        tmp_path, "--scenario", "entangle", "--dt", "0.5",
        "--shots", "500", "--seed", "9",
    )
    assert code == 0
    summary = json.loads((out / "entangle" / "summary.json").read_text())
    assert 0 < summary["state_fidelity"] <= 1


def test_readout_sim_scenario(tmp_path):
    code, out = run_cli(tmp_path, "--scenario", "readout-sim", "--shots", "2000")
    assert code == 0
    run_dir = out / "readout-sim"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["A"]["max_table_deviation"] < 0.02
    assert (run_dir / "assignment_two_node.json").exists()
    assert (run_dir / "shots_A.csv").exists()


def test_sweep_scenario(tmp_path):
    code, out = run_cli(
        tmp_path, "--scenario", "sweep", "--sweep-param", "eta_c",
        "--sweep-values", "1.0,0.77", "--dt", "0.5",
    )
    assert code == 0
    rows = (out / "sweep" / "sweep.csv").read_text().strip().split("\n")
    assert rows[0].startswith("param,value,state_fidelity")
    assert len(rows) == 3
    f_1 = float(rows[1].split(",")[2])
    f_077 = float(rows[2].split(",")[2])
    assert f_1 > f_077


def test_transfer_scenario_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "--scenario", "transfer", "--dt", "0.5")
    assert code == 0
    summary = json.loads((out / "transfer" / "summary.json").read_text())
    assert {"transfer_efficiency", "saturation_ns", "absorption_efficiency", "loss"} <= set(summary)
    assert (out / "transfer" / "trajectory_absorption_off.csv").exists()


def test_qpt_scenario_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "--scenario", "qpt", "--dt", "0.5")
    assert code == 0
    summary = json.loads((out / "qpt" / "summary.json").read_text())
    assert 0.5 < summary["process_fidelity"] <= 1.0
    chi = json.loads((out / "qpt" / "chi.json").read_text())
    assert np.asarray(chi["re"]).shape == (4, 4)


def test_budget_and_upgrade_scenarios(tmp_path):
    code, out = run_cli(tmp_path, "--scenario", "budget", "--dt", "0.5")
    assert code == 0
    budget = json.loads((out / "budget" / "budget.json").read_text())
    assert budget["fidelities"]["both_off"] > budget["fidelities"]["baseline"]
    code, out = run_cli(tmp_path, "--scenario", "upgrade", "--dt", "0.5")
    assert code == 0
    summary = json.loads((out / "upgrade" / "summary.json").read_text())
    assert summary["state_fidelity"] > 0.85


def test_time_offset_flag(tmp_path):
    code, out = run_cli(
        tmp_path, "--scenario", "entangle", "--dt", "0.5",
        "--time-offset", "2.0",
    )
    assert code == 0
    manifest = json.loads((out / "entangle" / "manifest.json").read_text())
    assert manifest["config"]["time_offset"] == 2.0


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise TraceDriftError("trace left its target")

    monkeypatch.setattr(cli.protocols, "run_entanglement", boom)
    code, out = run_cli(tmp_path, "--scenario", "entangle")
    assert code == 3
    assert (out / "entangle" / "run.log").read_text().find("numerical failure") >= 0
    # one shot per prepared state estimates a singular assignment matrix
    code, out = run_cli(tmp_path, "--scenario", "readout-sim", "--shots", "1", "--seed", "0")
    assert code == 3
    log = (out / "readout-sim" / "run.log").read_text()
    assert "numerical failure: assignment matrix not invertible" in log
    # a channel this weak passes validation, but no reference flux arrives
    code, out = run_cli(tmp_path, "--scenario", "transfer", "--eta-c", "1e-13", "--dt", "0.5")
    assert code == 3
    log = (out / "transfer" / "run.log").read_text()
    assert "numerical failure: reference emission flux vanishes" in log


def test_custom_device_file(tmp_path):
    node_a, node_b, link = device.load_device()
    import dataclasses

    path = tmp_path / "dev.json"
    device.save_device(path, node_a, node_b, dataclasses.replace(link, eta_c=0.5))
    code, out = run_cli(
        tmp_path, "--scenario", "emit-b", "--dt", "0.5", "--device", str(path)
    )
    assert code == 0
    manifest = json.loads((out / "emit-b" / "manifest.json").read_text())
    assert manifest["device"]["link"]["eta_c"] == 0.5


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("PHOTONLINK_OUT", str(tmp_path / "envout"))
    code = cli.run(["--scenario", "emit-b", "--dt", "0.5"])
    assert code == 0
    assert (tmp_path / "envout" / "emit-b" / "summary.json").exists()
