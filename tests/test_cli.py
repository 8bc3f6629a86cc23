import ast
import functools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from photonlink import cli, device, protocols, tomography
from photonlink.dynamics import TraceDriftError
from conftest import cut_short


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    code = cli.run(["--out", str(out), *argv])
    return code, out


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """``default_run(SCENARIO)`` is the run directory of ``--scenario
    SCENARIO`` with every other flag at its default (``--dt 1``, ``--fock
    2``, no ``--shots``), run once per session; the tests that take it only
    read it."""
    out = tmp_path_factory.mktemp("default-runs")

    @functools.cache
    def run_dir(scenario):
        assert cli.run(["--scenario", scenario, "--out", str(out)]) == 0
        return out / scenario

    return run_dir


def test_unknown_scenario_exits_2_without_files(tmp_path):
    out = tmp_path / "none"
    code = cli.run(["--scenario", "bogus", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def _assert_lf_only(run_dir):
    """Every file of a run directory ends its lines with LF alone."""
    for path in run_dir.iterdir():
        assert b"\r" not in path.read_bytes(), path.name


def _listed_artifacts(run_dir):
    """The ``artifacts:`` list of a run's run.log, which names every file of
    its directory but run.log itself."""
    [line] = [x for x in (run_dir / "run.log").read_text().splitlines() if x.startswith("artifacts: ")]
    listed = ast.literal_eval(line.removeprefix("artifacts: "))
    assert sorted(p.name for p in run_dir.iterdir()) == sorted([*listed, "run.log"])
    return listed


# the files each default run writes besides manifest.json, summary.json and
# run.log; no artifact repeats or subsamples another of the same run
DEFAULT_ARTIFACTS = {
    "emit-a": {"trajectory.csv", "trajectory_mean_field.csv"},
    "emit-b": {"trajectory.csv", "trajectory_mean_field.csv"},
    "transfer": {
        "trajectory_absorption_on.csv",
        "trajectory_absorption_off.csv",
        "trajectory_emit_a.csv",
        "trajectory_emit_b.csv",
    },
    "qpt": {"chi.json"},
    "entangle": {
        "rho_two_qutrit_direct.json",
        "rho_two_qutrit_tomography.json",
        "tomography_records.json",
        "metrics.json",
        "trajectory.csv",
    },
    "upgrade": {"metrics.json"},
    "budget": set(),
    "readout-sim": {
        "assignment_A.json",
        "assignment_B.json",
        "assignment_two_node.json",
        "shots_A.csv",
        "shots_B.csv",
    },
}


@pytest.mark.parametrize("scenario", [s for s in cli.SCENARIOS if s != "sweep"])
def test_default_run_lists_exactly_its_artifacts(default_run, scenario):
    """Each scenario run with its defaults (a sweep needs its flags) writes
    the artifacts of ``DEFAULT_ARTIFACTS`` and lists them in run.log."""
    expected = {"manifest.json", "summary.json", *DEFAULT_ARTIFACTS[scenario]}
    assert _listed_artifacts(default_run(scenario)) == sorted(expected)


def test_every_flag_has_help():
    for action in cli.build_parser()._actions:
        if action.dest != "help":
            assert action.help and action.help.strip(), action.option_strings


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
    "--sweep-param": ["eta_c"],
    "--sweep-values": ["0.8,0.9"],
}
LINK_FLAGS = {"--eta-c", "--t-scale", "--kappa-eff", "--time-offset", "--dt", "--idle-ns"}
# the flags each scenario reads besides --scenario, --out, --seed, --device, --fock
READS = {
    "emit-a": {"--eta-c", "--kappa-eff", "--t-scale", "--dt"},
    "emit-b": {"--eta-c", "--kappa-eff", "--t-scale", "--dt"},
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
            spec = cli._spec_from_args(args, nodes_link)
            assert isinstance(spec, protocols.ProtocolSpec), (scenario, flag)


def test_conflicting_flags_exit_2(tmp_path, monkeypatch):
    not_a_dir = tmp_path / "not-a-dir"
    not_a_dir.write_bytes(b"keep me\n")
    nan_t1 = _device_file(tmp_path / "nan.json", "node_a", T1ge=float("nan"))
    # a negative rate would drop node B's internal-loss channel, as if it were 0
    lossy_b = _device_file(tmp_path / "kappa-int.json", "node_b", kappa_int=-0.5)
    no_channel = _device_file(tmp_path / "eta0.json", "link", eta_c=0.0)
    narrow_b = _device_file(tmp_path / "narrow-b.json", "node_b", kappa_T=10.5)
    for argv in (
        ["--shots", "10", "--exact"],
        ["--eta-c", "1.5"],
        ["--dt", "0"],
        ["--dt", "0.3"],  # does not divide the +-95 ns window
        # above 1 ns; 5 ns divides both window edges and --idle-ns, so only
        # the (0, 1] bound refuses it
        ["--dt", "5"],
        ["--scenario", "emit-b", "--dt", "2.5"],
        ["--scenario", "sweep", "--sweep-param", "dt", "--sweep-values", "0.5,5"],
        ["--t-scale", "0"],
        ["--idle-ns", "-300"],
        ["--kappa-eff", "12"],  # above node A's kappa_T of 10.4 MHz
        # below about 10.05 MHz the +-95 ns drive window cannot span +-6/kappa_eff
        ["--kappa-eff", "10", "--dt", "0.5"],
        ["--scenario", "emit-b", "--kappa-eff", "10", "--dt", "0.5"],
        ["--seed", "-1"],
        # runs too large to allocate: 2.3e7 and 2e7 RK4 steps, 1e7 shots
        ["--dt", "0.00001"],
        ["--idle-ns", "10000000"],
        ["--shots", "10000000"],
        ["--scenario", "sweep", "--sweep-param", "dt", "--sweep-values", "0.5,0.00001"],
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
        ["--scenario", "entangle", "--device", lossy_b],
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
        # the swept flag itself: each point sets it, so a value would be dropped
        ["--scenario", "sweep", "--sweep-param", "eta_c", "--sweep-values", "0.7,0.8",
         "--eta-c", "0.5"],
        ["--scenario", "sweep", "--sweep-param", "kappa_eff", "--sweep-values", "10.2,10.4",
         "--kappa-eff", "10.3"],
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
    # an --out that cannot be used is refused before the scenario runs
    calls = []
    runner, reads = cli.SCENARIOS["entangle"]
    monkeypatch.setitem(
        cli.SCENARIOS, "entangle", (lambda *a: calls.append(a) or runner(*a), reads)
    )
    assert cli.run(["--scenario", "entangle", "--out", str(not_a_dir)]) == 2
    assert calls == []
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


def test_fock_flag_is_accepted_and_ignored(tmp_path, default_run):
    """Resonators hold the one photon a protocol makes, so --fock changes no
    artifact; it stays accepted for existing scripts.  The default run is
    the one at --fock 2."""
    code, out = run_cli(tmp_path, "--scenario", "entangle", "--fock", "3")
    assert code == 0
    runs = {"2": default_run("entangle"), "3": out / "entangle"}
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
    code, out = run_cli(tmp_path, "--scenario", "emit-b", "--dt", "0.5")
    assert code == 0
    run_dir = out / "emit-b"
    assert set(_listed_artifacts(run_dir)) == {"manifest.json", "summary.json", *DEFAULT_ARTIFACTS["emit-b"]}
    summary = json.loads((run_dir / "summary.json").read_text())
    assert 0.9 < summary["final_populations"]["g"] <= 1.0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["scenario"] == "emit-b"
    assert manifest["config"]["dt"] == 0.5
    assert manifest["device"]["link"]["eta_c"] == 0.77
    # the versions of what a run uses: the run imports no scipy
    assert set(manifest["versions"]) == {"python", "numpy", "photonlink"}
    rows = (run_dir / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0].split(",") == [
        "t_ns", "Pg_A", "Pe_A", "Pf_A", "Pg_B", "Pe_B", "Pf_B", "re_aout", "im_aout", "flux",
    ]
    assert len(rows) == 402
    assert float(rows[1].split(",")[6]) == pytest.approx(1.0)  # Pf_B starts at 1
    # node B's populations right after a drive cut at tau are the trajectory's
    # row at tau: the final state of the emission problem cut short there
    trajectory = np.loadtxt(run_dir / "trajectory.csv", delimiter=",", skiprows=1)
    spec = protocols.ProtocolSpec(
        window=protocols.EMISSION_WINDOW, idle_ns=protocols.EMISSION_IDLE_NS, dt=0.5
    )
    problem = protocols._link_problem(spec, None, "B", [protocols.QUTRIT_PREPS["f"]])
    for tau in (-20.0, 0.0, 30.0):
        [row] = trajectory[np.abs(trajectory[:, 0] - tau) < 1e-9]
        steps = int(round((tau - spec.window[0]) / spec.dt))
        [[(_, rho)]] = protocols._integrate_links([cut_short(problem, steps)])
        cut = [np.trace(device.LEVEL_PROJECTORS[f"P{level}_B"] @ rho).real for level in "gef"]
        assert np.abs(row[4:7] - cut).max() < 1e-9, tau  # Pg_B, Pe_B, Pf_B
    _assert_lf_only(run_dir)


def test_run_path_imports_no_scipy(tmp_path):
    """An exact entangle, a shot-mode qpt and readout-sim run to exit 0 in
    an interpreter where importing scipy fails: the run path needs only
    numpy and the standard library."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from photonlink import cli\n"
        "for argv in (['--scenario', 'entangle'],\n"
        "             ['--scenario', 'qpt', '--shots', '2000'],\n"
        "             ['--scenario', 'readout-sim', '--shots', '2000']):\n"
        "    assert cli.run(argv + ['--out', sys.argv[1]]) == 0, argv\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env, check=True)


def test_rerun_is_byte_identical(tmp_path):
    # the shot run writes every JSON shape; the transfer study's runs sit on
    # two grids, and the shot qpt run
    # reconstructs its six outputs as one MLE stack
    for args in (
        ["--scenario", "emit-b", "--dt", "0.5"],
        ["--scenario", "entangle", "--dt", "0.5", "--shots", "2000", "--seed", "3"],
        ["--scenario", "transfer"],
        ["--scenario", "qpt", "--shots", "2000", "--seed", "3"],
    ):
        _, out1 = run_cli(tmp_path / "a", *args)
        _, out2 = run_cli(tmp_path / "b", *args)
        paths = sorted((out1 / args[1]).glob("*"))
        assert len(paths) > 3, args
        for path1 in paths:
            path2 = out2 / args[1] / path1.name
            assert path1.read_bytes() == path2.read_bytes(), path1.name


def test_entangle_scenario_artifacts(default_run):
    run_dir = default_run("entangle")
    summary = json.loads((run_dir / "summary.json").read_text())
    assert set(summary) >= {"state_fidelity", "concurrence", "ccnr", "residual_f_population"}
    rho = json.loads((run_dir / "rho_two_qutrit_direct.json").read_text())
    assert np.asarray(rho["re"]).shape == (9, 9)
    bundle = json.loads((run_dir / "metrics.json").read_text())
    # metrics.json holds the fields of the bundle that summary.json does not
    assert set(bundle) == {"hs_distance", "pauli_expectations", "gellmann_expectations"}
    assert len(bundle["pauli_expectations"]) == 15
    assert len(bundle["gellmann_expectations"]) == 80
    records = json.loads((run_dir / "tomography_records.json").read_text())
    assert len(records) == 81
    assert "x180_ge.x90_ef|id" in records
    _assert_lf_only(run_dir)


def test_entangle_names_its_records_without_the_pair_rotations(default_run):
    """An exact entangle run names its 81 tomography records by
    ``pair_names()``, "a|b" over the single set; no pair rotation is built."""
    records = json.loads((default_run("entangle") / "tomography_records.json").read_text())
    assert set(records) == set(tomography.pair_names()) and len(records) == 81


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
    summary = json.loads((out / "sweep" / "summary.json").read_text())
    assert summary["param"] == "eta_c"
    rows = summary["rows"]
    assert [row["value"] for row in rows] == [1.0, 0.77]
    assert rows[0]["state_fidelity"] > rows[1]["state_fidelity"]
    assert _listed_artifacts(out / "sweep") == ["manifest.json", "summary.json"]
    _assert_lf_only(out / "sweep")


def test_transfer_scenario_artifacts(default_run):
    run_dir = default_run("transfer")
    summary = json.loads((run_dir / "summary.json").read_text())
    assert {"transfer_efficiency", "saturation_ns", "absorption_efficiency", "loss"} <= set(summary)
    assert (run_dir / "trajectory_absorption_off.csv").exists()
    _assert_lf_only(run_dir)


def test_qpt_scenario_artifacts(default_run):
    run_dir = default_run("qpt")
    summary = json.loads((run_dir / "summary.json").read_text())
    assert set(summary) == {"process_fidelity", "avg_state_fidelity_from_fp"}
    assert 0.5 < summary["process_fidelity"] <= 1.0
    chi = json.loads((run_dir / "chi.json").read_text())
    assert np.asarray(chi["re"]).shape == (4, 4)
    # the process fidelity against the identity is chi's II entry
    assert chi["re"][0][0] == summary["process_fidelity"]
    _assert_lf_only(run_dir)


def test_budget_and_upgrade_scenarios(default_run):
    budget = json.loads((default_run("budget") / "summary.json").read_text())
    assert budget["fidelities"]["both_off"] > budget["fidelities"]["baseline"]
    summary = json.loads((default_run("upgrade") / "summary.json").read_text())
    assert summary["state_fidelity"] > 0.85
    bundle = json.loads((default_run("upgrade") / "metrics.json").read_text())
    assert set(bundle) == {"hs_distance", "pauli_expectations", "gellmann_expectations"}


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


def test_a_negative_final_state_exits_3(tmp_path):
    # a step past RK4's stability bound that keeps every trace within 1e-6
    code, out = run_cli(tmp_path, "--scenario", "entangle", "--t-scale", "3.2e-4")
    assert code == 3
    log = (out / "entangle" / "run.log").read_text()
    assert "numerical failure: run 0: final state of input 0 has eigenvalue -0.00205" in log
    assert sorted(p.name for p in (out / "entangle").iterdir()) == ["manifest.json", "run.log"]


def test_failed_rerun_leaves_no_file_of_the_earlier_run(tmp_path, monkeypatch, default_run):
    # the earlier run is a copy of the session's default entangle run
    shutil.copytree(default_run("entangle"), tmp_path / "out" / "entangle")
    assert (tmp_path / "out" / "entangle" / "tomography_records.json").exists()

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
