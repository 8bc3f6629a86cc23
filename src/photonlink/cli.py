"""Command-line front end: run named scenarios and write their artifacts.

Each scenario returns its summary and its artifacts as data, a map from file
name to a JSON-able dict (``.json``) or a (header, rows) table (``.csv``);
this module alone writes files, and only after the scenario has run to its
end in memory.  CSV holds time series and shots, JSON everything else, and
no artifact repeats or subsamples another of the same run.  Every run writes
a manifest (resolved configuration and the versions of what the run uses:
Python, numpy and photonlink) sufficient to reproduce it byte-for-byte, the
summary and every artifact: JSON with sorted keys, CSV with LF line ends and
numbers as %.9g.  run.log lists the files this run wrote; a run into a
directory that holds an earlier run first deletes the files listed by the
run.log already there (plain names of regular files in that directory,
nothing else), so no file of the earlier run outlives it.
One table, ``SCENARIOS``, sends each scenario to its runner and names the
flags it reads; any other flag set on the command line exits 2, apart from
--scenario, --out, --seed, --device and --fock, which every scenario
accepts.  Exit codes: 0 success, 2 configuration error (a bad flag, spec or
device, an output directory that cannot be made or written, refused before
the scenario runs, or a drive the run cannot build: nothing written), 3
numerical failure (trace drift or another ValueError raised during the run;
only manifest.json and run.log are written, and run.log names the cause).
"""

from __future__ import annotations

import argparse
import ast
import itertools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import device as dev
from . import metrics, protocols, readout, tomography
from .dynamics import TraceDriftError
from .protocols import ConfigError

SWEEPABLE = ("eta_c", "t_scale", "kappa_eff", "time_offset", "dt", "idle_ns")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="photonlink",
        description="Cascaded two-node photon-link simulator",
    )
    parser.add_argument("--scenario", required=True, help=f"one of {', '.join(SCENARIOS)}")
    parser.add_argument("--device", help="device JSON file (default: shipped table)")
    parser.add_argument("--out", help="output directory (default: $PHOTONLINK_OUT or ./photonlink-out)")
    parser.add_argument("--seed", type=int, default=0, help="readout RNG seed, >= 0 (default 0)")
    parser.add_argument("--shots", type=int, help="sampled-readout shots per setting (default: exact)")
    parser.add_argument("--eta-c", type=float, help="channel transmission in [0, 1] (default: device table)")
    parser.add_argument("--kappa-eff", type=float, help="photon bandwidth override, linear MHz (both nodes)")
    parser.add_argument(
        "--time-offset",
        type=float,
        help="absorber delay (ns); must keep 99%% of the receiver drive's energy in the drive window",
    )
    parser.add_argument(
        "--fock",
        type=int,
        default=2,
        help="accepted and ignored (must be >= 2): each resonator holds the one photon a protocol makes",
    )
    parser.add_argument(
        "--dt",
        type=float,
        help="RK4 step (ns) in (0, 1], dividing both drive-window edges and --idle-ns"
        f" (default {protocols.DEFAULT_DT:g})",
    )
    parser.add_argument(
        "--idle-ns", type=float, help=f"closing-pulse time after the drive window (ns, default {protocols.DEFAULT_IDLE_NS:g})"
    )
    parser.add_argument("--t-scale", type=float, help="scale all T1/T2 times")
    parser.add_argument("--sweep-param", help=f"one of {', '.join(SWEEPABLE)}")
    parser.add_argument("--sweep-values", help="comma-separated values")
    return parser


def _spec_from_args(args, nodes_link) -> protocols.ProtocolSpec:
    if args.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {args.scenario!r}; choose from {tuple(SCENARIOS)}")
    reads = (*_EVERY_SCENARIO, *SCENARIOS[args.scenario][1])
    unread = ["--" + f.replace("_", "-") for f, v in vars(args).items() if v is not None and f not in reads]
    if unread:
        raise ConfigError(f"{args.scenario} does not read {', '.join(unread)}")
    if args.dt is not None and args.dt > 1.0:
        raise ConfigError("--dt must lie in (0, 1] ns")
    if args.fock < 2:
        raise ConfigError("--fock must be at least 2")
    # a flag left unset takes the ProtocolSpec default
    flags = ("eta_c", "time_offset", "dt", "idle_ns", "t_scale", "shots")
    kwargs = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    kwargs["seed"] = args.seed
    if args.scenario in ("emit-a", "emit-b"):
        # emission studies have no closing pulses and a longer window, over
        # which their drive runs and the output line is integrated
        kwargs["window"] = protocols.EMISSION_WINDOW
        kwargs["idle_ns"] = protocols.EMISSION_IDLE_NS
    if args.kappa_eff is not None:
        kwargs["kappa_eff_a"] = args.kappa_eff
        kwargs["kappa_eff_b"] = args.kappa_eff
    spec = protocols.ProtocolSpec(**kwargs)
    # the drives are checked where the run builds them (protocols.ConfigError)
    link = protocols.resolve_device(nodes_link, spec)[2]
    if args.scenario == "transfer" and link.eta_c == 0:
        # the absorption efficiency divides by the flux the channel delivers
        raise ConfigError("transfer needs eta_c > 0: with eta_c = 0 no photon reaches node B")
    return spec


def _sweep_specs(args, nodes_link):
    """(value, spec) of every sweep point, each checked like a single run."""
    if not args.sweep_param or args.sweep_param not in SWEEPABLE:
        raise ConfigError(f"--sweep-param must be one of {SWEEPABLE}")
    if getattr(args, args.sweep_param) is not None:
        flag = "--" + args.sweep_param.replace("_", "-")
        raise ConfigError(f"{flag} conflicts with --sweep-param {args.sweep_param}, which sets it per point")
    if not args.sweep_values:
        raise ConfigError("--sweep-values must be a non-empty comma-separated list")
    try:
        values = [float(v) for v in args.sweep_values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {exc}") from exc
    if not values:
        raise ConfigError("--sweep-values must be a non-empty comma-separated list")
    points = []
    for value in values:
        point = argparse.Namespace(**vars(args))
        setattr(point, args.sweep_param, value)
        try:
            points.append((value, _spec_from_args(point, nodes_link)))
        except ValueError as exc:
            raise ConfigError(f"sweep point {args.sweep_param} = {value}: {exc}") from exc
    return points


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_json(path: Path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_csv(path: Path, table):
    """A (header, rows) table with LF line ends, numbers as %.9g.  Every row
    has the column types of the first, so one template formats them all."""
    header, rows = table
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if first is not None:
            template = ",".join("%s" if isinstance(x, str) else "%.9g" for x in first) + "\n"
            fh.writelines(template % tuple(row) for row in itertools.chain([first], rows))


def _previous_run_files(outdir: Path):
    """The files that the run.log in ``outdir`` lists as written: plain names
    of regular files in ``outdir`` only."""
    log = outdir / "run.log"
    if not log.is_file():
        return []
    for line in log.read_text().splitlines():
        if line.startswith("artifacts: "):
            try:
                names = list(ast.literal_eval(line.removeprefix("artifacts: ")))
            except (ValueError, SyntaxError, TypeError):
                return []
            paths = [outdir / n for n in names if isinstance(n, str) and Path(n).name == n]
            return [p for p in paths if p.is_file() and not p.is_symlink()]
    return []


def _manifest(args, spec, nodes_link):
    node_a, node_b, link = nodes_link
    return {
        "scenario": args.scenario,
        "config": asdict(spec),
        "device": {
            "node_a": asdict(node_a),
            "node_b": asdict(node_b),
            "link": asdict(link),
        },
        "device_file": args.device,
        "versions": {
            "photonlink": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "sweep": {"param": args.sweep_param, "values": args.sweep_values},
    }


def _metrics_summary(bundle: metrics.MetricsBundle):
    return {
        "state_fidelity": bundle.state_fidelity,
        "concurrence": bundle.concurrence,
        "concurrence_renormalized": bundle.concurrence_renormalized,
        "ccnr": bundle.ccnr,
        "residual_f_population": bundle.residual_f_population,
        "qubit_block_trace": bundle.qubit_block_trace,
    }


def _trajectory_table(traj):
    """Per-node populations (the run's named series), output field and flux of one link run."""
    a_out = traj.a_mean_out
    pops = [traj.expect[name].real for name in dev.LEVEL_PROJECTORS]
    header = ("t_ns", *dev.LEVEL_PROJECTORS, "re_aout", "im_aout", "flux")
    return header, np.column_stack((traj.t, *pops, a_out.real, a_out.imag, traj.flux_out))


def _matrix(m, **fields):
    return {**fields, "re": m.real, "im": m.imag}


def _run_emit(args, spec, nodes_link):
    node = args.scenario[-1].upper()  # emit-a or emit-b
    # the population and the mean-field preparations share one integration
    pop_run, field_run = protocols.run_emissions(spec, node, ("f", "gf"), nodes_link=nodes_link)
    summary = {
        "final_populations": pop_run.extras["final_populations"],
        "photon_integral": pop_run.extras["photon_integral"],
        "mean_field_power": field_run.extras["mean_field_power"],
    }
    return summary, {
        "trajectory.csv": _trajectory_table(pop_run.trajectory),
        "trajectory_mean_field.csv": _trajectory_table(field_run.trajectory),
    }


def _run_transfer(args, spec, nodes_link):
    eff, runs = protocols.run_transfer_efficiencies(spec, nodes_link=nodes_link)
    summary = {
        "transfer_efficiency": eff.transfer_eff,
        "saturation_ns": eff.saturation_ns,
        "absorption_efficiency": eff.absorption_eff,
        "loss": eff.loss,
    }
    return summary, {
        "trajectory_absorption_on.csv": _trajectory_table(runs["with"].trajectory),
        "trajectory_absorption_off.csv": _trajectory_table(runs["without"].trajectory),
        "trajectory_emit_a.csv": _trajectory_table(runs["emit_a"].trajectory),
        "trajectory_emit_b.csv": _trajectory_table(runs["emit_b"].trajectory),
    }


def _run_qpt(args, spec, nodes_link):
    res = protocols.run_state_transfer_qpt(spec, nodes_link=nodes_link)
    chi = res.extras["chi"]
    summary = {
        "process_fidelity": res.extras["process_fidelity"],
        "chi_identity_weight": float(chi[0, 0].real),
        "avg_state_fidelity_from_fp": res.extras["avg_state_fidelity_from_fp"],
    }
    return summary, {"chi.json": _matrix(chi)}


def _run_entangle(args, spec, nodes_link):
    res = protocols.run_entanglement(spec, nodes_link=nodes_link)
    bundle = res.extras["metrics"]
    records = zip(tomography.pair_names(), res.extras["tomography_populations"])
    artifacts = {
        "rho_two_qutrit_direct.json": _matrix(res.extras["rho9_direct"], dims=[3, 3]),
        "rho_two_qutrit_tomography.json": _matrix(res.extras["rho9_tomography"], dims=[3, 3]),
        "tomography_records.json": {name: np.asarray(p, float) for name, p in records},
        "metrics.json": asdict(bundle),
        "trajectory.csv": _trajectory_table(res.trajectory),
    }
    return _metrics_summary(bundle), artifacts


def _run_upgrade(args, spec, nodes_link):
    bundle = protocols.run_upgrade_scenario(spec, nodes_link=nodes_link).extras["metrics"]
    return _metrics_summary(bundle), {"metrics.json": asdict(bundle)}


def _run_budget(args, spec, nodes_link):
    budget = protocols.error_budget(spec, nodes_link=nodes_link)
    return {k: v for k, v in budget.items() if k != "runs"}, {}


def _assignment(r, labels):
    return {
        "convention": "entries R[assigned][prepared]; columns are prepared states",
        "labels": list(labels),
        "matrix": np.asarray(r, float),
    }


def _run_readout_sim(args, spec, nodes_link):
    shots = spec.shots or 25000
    rng = np.random.default_rng(spec.seed)
    summary, artifacts, r_hats = {}, {}, {}
    for node in ("A", "B"):
        cal = readout.default_calibration(node)
        rows, counts = [], []
        for s, prepared in enumerate(readout.LABELS):
            pts = cal.simulate_shots(np.eye(3)[s], shots, rng)
            labels = readout.classify(pts, cal.model)
            counts.append(np.bincount(labels, minlength=3))
            assigned = np.take(readout.LABELS, labels).tolist()
            rows += zip(*pts.T.tolist(), [prepared] * shots, assigned)
        r_hat = readout.assignment_matrix(np.stack(counts))
        r_hats[node] = r_hat
        artifacts[f"assignment_{node}.json"] = _assignment(r_hat, readout.LABELS)
        artifacts[f"shots_{node}.csv"] = (("u", "v", "prepared", "assigned"), rows)
        target = readout.table_assignment_matrix(node)
        truth = np.array([0.5, 0.3, 0.2])
        measured = readout.count_table([cal], truth[None], shots, rng)[0] / shots
        mit = readout.mitigate(measured, r_hat)
        summary[node] = {
            "max_table_deviation": float(np.abs(r_hat - target).max()),
            "error_score": mit.error_score,
            "condition_number": mit.condition_number,
            "mitigation_truth": truth.tolist(),
            "mitigation_recovered": mit.populations.tolist(),
        }
    two = readout.kron(r_hats["A"], r_hats["B"])
    artifacts["assignment_two_node.json"] = _assignment(
        two, [a + b for a in readout.LABELS for b in readout.LABELS]
    )
    return summary, artifacts


def _run_sweep(args, spec, nodes_link):
    # every point is built, and so checked, before the first one integrates;
    # the points run as one batch
    points = _sweep_specs(args, nodes_link)
    runs = protocols.run_entanglements([run_spec for _, run_spec in points], nodes_link)
    rows = [
        {"value": value, **_metrics_summary(run.extras["metrics"])}
        for (value, _), run in zip(points, runs)
    ]
    return {"param": args.sweep_param, "rows": rows}, {}


# the flags every scenario accepts
_EVERY_SCENARIO = ("scenario", "out", "seed", "device", "fock")
# each scenario's runner(args, spec, nodes_link) and the other flags it reads;
# a flag it does not read exits 2 when set
_EMISSION = ("eta_c", "kappa_eff", "t_scale", "dt")
_MEASURED = (*SWEEPABLE, "shots")
SCENARIOS = {
    "emit-a": (_run_emit, _EMISSION),
    "emit-b": (_run_emit, _EMISSION),
    "transfer": (_run_transfer, SWEEPABLE),
    "qpt": (_run_qpt, _MEASURED),
    "entangle": (_run_entangle, _MEASURED),
    "upgrade": (_run_upgrade, _MEASURED),
    "budget": (_run_budget, _MEASURED),
    "readout-sim": (_run_readout_sim, ("shots",)),
    "sweep": (_run_sweep, (*_MEASURED, "sweep_param", "sweep_values")),
}


def _check_out(outdir: Path):
    """Raise ConfigError unless the nearest existing path at or above
    ``outdir`` is a directory this process may write: the run could not
    make or fill ``outdir`` otherwise.  Creates nothing."""
    for path in (outdir, *outdir.parents):
        if path.exists():
            if not (path.is_dir() and os.access(path, os.W_OK | os.X_OK)):
                raise ConfigError(
                    f"cannot write output directory {outdir}: {path} is not a writable directory"
                )
            return


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (2) or the help (0)
        return exc.code
    outdir = Path(args.out or os.environ.get("PHOTONLINK_OUT") or "photonlink-out") / args.scenario
    try:
        if args.device is not None and not Path(args.device).is_file():
            raise ConfigError(f"device file not found: {args.device}")
        nodes_link = dev.load_device(args.device)
        spec = _spec_from_args(args, nodes_link)
        _check_out(outdir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # the scenario runs to its end before the first file is written
    failure = None
    try:
        summary, artifacts = SCENARIOS[args.scenario][0](args, spec, nodes_link)
    except ConfigError as exc:
        # a drive the run cannot build, or a sweep point the spec refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TraceDriftError, ValueError) as exc:
        # any other ValueError (numpy's LinAlgError is one) is a numerical
        # failure such as a vanishing reference flux
        failure = exc
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for path in _previous_run_files(outdir):
            path.unlink()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _write_json(outdir / "manifest.json", _manifest(args, spec, nodes_link))
    log_lines = [f"photonlink {__version__} scenario={args.scenario} seed={spec.seed}"]
    if failure is not None:
        print(f"numerical failure: {failure}", file=sys.stderr)
        log_lines.append(f"numerical failure: {failure}")
        (outdir / "run.log").write_text("\n".join(log_lines) + "\n")
        return 3

    artifacts["summary.json"] = summary
    for name, payload in artifacts.items():
        (_write_json if name.endswith(".json") else _write_csv)(outdir / name, payload)
    log_lines.append("status: ok")
    log_lines.append(f"artifacts: {sorted(['manifest.json', *artifacts])}")
    (outdir / "run.log").write_text("\n".join(log_lines) + "\n")
    print(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
