import json
from dataclasses import asdict

import numpy as np
import pytest
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


def _assert_lf_only(run_dir):
    """Every file of a run directory ends its lines with LF alone."""
    for path in run_dir.iterdir():
        assert b"\r" not in path.read_bytes(), path.name


def _device_file(path, section, **fields):
    """The shipped device table with some fields of one section replaced."""
    node_a, node_b, link = device.load_device()
    raw = {"node_a": asdict(node_a), "node_b": asdict(node_b), "link": asdict(link)}
    raw[section].update(fields)
    path.write_text(json.dumps(raw))  # writes NaN, which json.load accepts
    return str(path)


# a valid value of every flag that some scenarios do not read
FLAG_VALUES = {
    "--shots": ["100"],
    "--eta-c": ["0.8"],
    "--kappa-eff": ["10.2"],
    "--time-offset": ["2"],
    "--dt": ["0.5"],
    "--idle-ns": ["40"],
    "--t-scale": ["2"],
    "--truncate-sweep": [],
    "--sweep-param": ["eta_c"],
    "--sweep-values": ["0.8,0.9"],
}
LINK_FLAGS = {"--eta-c", "--t-scale", "--kappa-eff", "--time-offset", "--dt", "--idle-ns"}
# the flags each scenario reads besides --scenario, --out, --seed, --device, --fock
READS = {
    "emit-a": {"--eta-c", "--kappa-eff", "--t-scale", "--dt", "--truncate-sweep"},
    "emit-b": {"--eta-c", "--kappa-eff", "--t-scale", "--dt", "--truncate-sweep"},
    "transfer": LINK_FLAGS,
    "qpt": LINK_FLAGS | {"--shots"},
    "entangle": LINK_FLAGS | {"--shots"},
    "upgrade": LINK_FLAGS | {"--shots"},
    "budget": LINK_FLAGS | {"--shots"},
    "readout-sim": {"--shots"},
    "sweep": LINK_FLAGS | {"--shots", "--sweep-param", "--sweep-values"},
}


def test_every_scenario_accepts_the_flags_it_reads():
    """The checks before the run pass each read flag at a valid value."""
    assert set(cli.SCENARIOS) == set(READS)
    nodes_link = device.load_device()
    for scenario, reads in READS.items():
        for flag in reads:
            args = cli.build_parser().parse_args(["--scenario", scenario, flag, *FLAG_VALUES[flag]])
            assert cli._spec_from_args(args, nodes_link).name == scenario, (scenario, flag)


def test_conflicting_flags_exit_2(tmp_path):
    not_a_dir = tmp_path / "not-a-dir"
    not_a_dir.write_bytes(b"keep me\n")
    nan_t1 = _device_file(tmp_path / "nan.json", "node_a", T1ge=float("nan"))
    no_channel = _device_file(tmp_path / "eta0.json", "link", eta_c=0.0)
    narrow_b = _device_file(tmp_path / "narrow-b.json", "node_b", kappa_T=10.5)
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
        # node B's 10.6 MHz photon exceeds its kappa_T; only the last of the
        # transfer study's runs, the emit-b reference, builds that drive
        ["--scenario", "transfer", "--dt", "0.5", "--device", narrow_b],
        # --fock is accepted and ignored, but a value below 2 is still an error
        ["--fock", "1"],
        # a flag of another scenario is refused, not ignored
        ["--sweep-param", "eta_c", "--sweep-values", "0.8,0.9"],
        ["--scenario", "emit-a", "--sweep-param", "eta_c", "--sweep-values", "0.8,0.9"],
        ["--scenario", "qpt", "--sweep-values", "0.8,0.9"],
        ["--scenario", "emit-b", "--sweep-param", "eta_c"],
        ["--truncate-sweep"],
        ["--scenario", "transfer", "--truncate-sweep"],
        ["--scenario", "sweep", "--sweep-param", "eta_c", "--sweep-values", "0.9",
         "--truncate-sweep"],
        # no readout to sample, or no receiver to delay
        ["--scenario", "emit-a", "--shots", "100"],
        ["--scenario", "emit-b", "--shots", "100"],
        ["--scenario", "transfer", "--shots", "100"],
        ["--scenario", "emit-a", "--time-offset", "5"],
        ["--scenario", "emit-b", "--time-offset", "5"],
        ["--scenario", "readout-sim", "--time-offset", "5"],
        ["--scenario", "emit-a", "--time-offset", "1000"],
        ["--scenario", "readout-sim", "--time-offset", "1000"],
        # emission studies have no closing pulses, and readout-sim no link
        ["--scenario", "emit-a", "--idle-ns", "80"],
        ["--scenario", "emit-b", "--idle-ns", "80"],
        ["--scenario", "readout-sim", "--eta-c", "0.1"],
        ["--scenario", "readout-sim", "--kappa-eff", "50"],
        ["--scenario", "readout-sim", "--t-scale", "5"],
        ["--scenario", "readout-sim", "--dt", "0.5"],
        ["--scenario", "readout-sim", "--idle-ns", "40"],
        # --exact is gone: no --shots already means exact Born probabilities
        ["--scenario", "emit-a", "--exact"],
        ["--scenario", "transfer", "--exact"],
        ["--scenario", "readout-sim", "--exact"],
        # every scenario refuses each flag it does not read
        *(
            ["--scenario", scenario, flag, *value]
            for scenario in cli.SCENARIOS
            for flag, value in FLAG_VALUES.items()
            if flag not in READS[scenario]
        ),
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


def test_device_with_negative_dephasing_exits_2_without_files(tmp_path):
    """Coherence times that need a negative dephasing rate make a bad device
    file, refused before the run starts."""
    bad = _device_file(tmp_path / "bad.json", "node_b", T1ge=5, T1ef=20, T2ge=5, T2ef=39)
    code, out = run_cli(tmp_path, "--scenario", "entangle", "--device", bad)
    assert code == 2
    assert not out.exists()


def test_sweep_requires_values(tmp_path, capsys):
    for argv in (
        ["--sweep-param", "eta_c"],
        ["--sweep-param", "eta_c", "--sweep-values", ""],
        ["--sweep-param", "voltage", "--sweep-values", "1"],
        # the Fock truncation is not a knob
        ["--sweep-param", "fock", "--sweep-values", "3,1"],
        ["--sweep-param", "fock", "--sweep-values", "2.5", "--dt", "0.5"],
        # an invalid point writes nothing, though its drives are checked
        # only when that point runs
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
    assert "sweep point eta_c = 1.5: eta_c must lie in [0, 1]" in capsys.readouterr().err


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
    rows = (run_dir / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0].split(",") == [
        "t_ns", "Pg_A", "Pe_A", "Pf_A", "Pg_B", "Pe_B", "Pf_B", "re_aout", "im_aout", "flux",
    ]
    assert len(rows) == 402
    assert float(rows[1].split(",")[6]) == pytest.approx(1.0)  # Pf_B starts at 1
    _assert_lf_only(run_dir)
    # a rerun into the same --out lists what it wrote, not what an earlier run left
    code, out = run_cli(tmp_path, "--scenario", "emit-b", "--dt", "0.5")
    assert code == 0
    log = (run_dir / "run.log").read_text()
    assert "'trajectory.csv'" in log and "truncation_sweep.csv" not in log
    assert not (run_dir / "truncation_sweep.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    # the shot run writes every JSON shape and both expectation CSVs
    for args in (
        ["--scenario", "emit-b", "--dt", "0.5"],
        ["--scenario", "entangle", "--dt", "0.5", "--shots", "2000", "--seed", "3"],
    ):
        _, out1 = run_cli(tmp_path / "a", *args)
        _, out2 = run_cli(tmp_path / "b", *args)
        paths = sorted((out1 / args[1]).glob("*"))
        assert len(paths) > 3, args
        for path1 in paths:
            path2 = out2 / args[1] / path1.name
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
    gellmann = (run_dir / "gellmann_expectations.csv").read_text().strip().split("\n")
    assert len(gellmann) == 81  # header + 80 operators
    records = json.loads((run_dir / "tomography_records.json").read_text())
    assert len(records) == 81
    assert "x180_ge.x90_ef|id" in records
    _assert_lf_only(run_dir)


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
    rows = (run_dir / "shots_A.csv").read_text().strip().split("\n")
    assert rows[0] == "u,v,prepared,assigned"
    assert len(rows) == 1 + 3 * 2000
    assignment = json.loads((run_dir / "assignment_A.json").read_text())
    assert assignment["labels"] == ["g", "e", "f"]
    _assert_lf_only(run_dir)


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
    _assert_lf_only(out / "sweep")


def test_transfer_scenario_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "--scenario", "transfer", "--dt", "0.5")
    assert code == 0
    summary = json.loads((out / "transfer" / "summary.json").read_text())
    assert {"transfer_efficiency", "saturation_ns", "absorption_efficiency", "loss"} <= set(summary)
    assert (out / "transfer" / "trajectory_absorption_off.csv").exists()
    _assert_lf_only(out / "transfer")


def test_qpt_scenario_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "--scenario", "qpt", "--dt", "0.5")
    assert code == 0
    summary = json.loads((out / "qpt" / "summary.json").read_text())
    assert 0.5 < summary["process_fidelity"] <= 1.0
    chi = json.loads((out / "qpt" / "chi.json").read_text())
    assert np.asarray(chi["re"]).shape == (4, 4)
    _assert_lf_only(out / "qpt")


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
        raise TraceDriftError("trace left its target", 0)

    monkeypatch.setattr(cli.protocols, "run_entanglement", boom)
    code, out = run_cli(tmp_path, "--scenario", "entangle")
    assert code == 3
    assert (out / "entangle" / "run.log").read_text().find("numerical failure") >= 0
    # one shot per prepared state estimates a singular assignment matrix
    code, out = run_cli(tmp_path, "--scenario", "readout-sim", "--shots", "1", "--seed", "0")
    assert code == 3
    log = (out / "readout-sim" / "run.log").read_text()
    assert "numerical failure: assignment matrix not invertible" in log
    assert sorted(p.name for p in (out / "readout-sim").iterdir()) == ["manifest.json", "run.log"]
    # a channel this weak passes validation, but no reference flux arrives
    code, out = run_cli(tmp_path, "--scenario", "transfer", "--eta-c", "1e-13", "--dt", "0.5")
    assert code == 3
    log = (out / "transfer" / "run.log").read_text()
    assert "numerical failure: reference emission flux vanishes" in log


def test_failed_rerun_leaves_no_file_of_the_earlier_run(tmp_path, monkeypatch):
    code, out = run_cli(tmp_path, "--scenario", "entangle", "--dt", "0.5")
    assert code == 0
    assert (out / "entangle" / "tomography_records.json").exists()

    def boom(*args, **kwargs):
        raise TraceDriftError("trace left its target", 0)

    monkeypatch.setattr(cli.protocols, "run_entanglement", boom)
    code, out = run_cli(tmp_path, "--scenario", "entangle")
    assert code == 3
    assert sorted(p.name for p in (out / "entangle").iterdir()) == ["manifest.json", "run.log"]


def test_rerun_deletes_only_listed_regular_files_in_the_run_directory(tmp_path, monkeypatch):
    run_dir = tmp_path / "out" / "entangle"
    (run_dir / "sub").mkdir(parents=True)
    for name in ("old.csv", "unlisted.csv", "sub/inner.csv"):
        (run_dir / name).write_text("x\n")
    (tmp_path / "out" / "outside.csv").write_text("x\n")
    (tmp_path / "target.csv").write_text("x\n")
    (run_dir / "link.csv").symlink_to(tmp_path / "target.csv")
    listed = ["old.csv", "../outside.csv", "sub", "sub/inner.csv", "link.csv", str(tmp_path / "target.csv")]
    (run_dir / "run.log").write_text(f"status: ok\nartifacts: {listed}\n")

    def boom(*args, **kwargs):
        raise TraceDriftError("trace left its target", 0)

    monkeypatch.setattr(cli.protocols, "run_entanglement", boom)
    code, _ = run_cli(tmp_path, "--scenario", "entangle")
    assert code == 3
    assert not (run_dir / "old.csv").exists()
    for path in ("out/entangle/unlisted.csv", "out/entangle/sub/inner.csv", "out/outside.csv", "target.csv"):
        assert (tmp_path / path).is_file(), path
    assert (run_dir / "link.csv").is_symlink()


def test_custom_device_file(tmp_path):
    path = _device_file(tmp_path / "dev.json", "link", eta_c=0.5)
    code, out = run_cli(
        tmp_path, "--scenario", "emit-b", "--dt", "0.5", "--device", path
    )
    assert code == 0
    manifest = json.loads((out / "emit-b" / "manifest.json").read_text())
    assert manifest["device"]["link"]["eta_c"] == 0.5


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("PHOTONLINK_OUT", str(tmp_path / "envout"))
    code = cli.run(["--scenario", "emit-b", "--dt", "0.5"])
    assert code == 0
    assert (tmp_path / "envout" / "emit-b" / "summary.json").exists()
