"""Command-line front end: run named scenarios and write their artifacts.

Every run writes a manifest (resolved configuration and library versions)
sufficient to reproduce it byte-for-byte, a JSON summary with the headline
numbers, and scenario-specific CSV/JSON artifacts.  Exit codes: 0 success,
2 configuration error (nothing written), 3 numerical failure (trace drift or
a ValueError raised during the run; run.log names the cause).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import device as dev
from . import metrics, protocols, readout
from .dynamics import TraceDriftError, write_trajectory_csv

SCENARIOS = (
    "emit-a",
    "emit-b",
    "transfer",
    "qpt",
    "entangle",
    "upgrade",
    "budget",
    "readout-sim",
    "sweep",
)

SWEEPABLE = ("eta_c", "t_scale", "kappa_eff", "time_offset", "dt", "idle_ns")

# (photon bandwidth field, node index, receiver): the drives each scenario
# builds, emitting through a node's resonator or, for the receiver, catching
# there with the time-reversed drive delayed by the link's time offset; every
# other link scenario sends A's photon from A to B
_BANDWIDTH_PATHS = {
    "emit-a": (("kappa_eff_a", 0, False),),
    "emit-b": (("kappa_eff_b", 1, False),),
    "transfer": (("kappa_eff_a", 0, False), ("kappa_eff_a", 1, True), ("kappa_eff_b", 1, False)),
    "readout-sim": (),
}
_LINK_PATHS = (("kappa_eff_a", 0, False), ("kappa_eff_a", 1, True))


class ConfigError(ValueError):
    pass


def build_parser():
    parser = argparse.ArgumentParser(
        prog="photonlink",
        description="Cascaded two-node photon-link simulator",
    )
    parser.add_argument("--scenario", required=True, help=f"one of {', '.join(SCENARIOS)}")
    parser.add_argument("--device", default=None, help="device JSON file (default: shipped table)")
    parser.add_argument(
        "--out",
        default=None,
        help="output directory (default: $PHOTONLINK_OUT or ./photonlink-out)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shots", type=int, default=None, help="sampled-readout shots per setting")
    parser.add_argument("--exact", action="store_true", help="exact Born probabilities (default)")
    parser.add_argument("--eta-c", type=float, default=None)
    parser.add_argument("--kappa-eff", type=float, default=None, help="photon bandwidth override, linear MHz (both nodes)")
    parser.add_argument(
        "--time-offset",
        type=float,
        default=None,
        help="absorber delay (ns); must keep 99%% of the receiver drive's energy in the drive window",
    )
    parser.add_argument(
        "--fock",
        type=int,
        default=2,
        help="accepted and ignored (must be >= 2): each resonator holds the one photon a protocol makes",
    )
    parser.add_argument("--dt", type=float, default=protocols.DEFAULT_DT)
    parser.add_argument("--idle-ns", type=float, default=protocols.DEFAULT_IDLE_NS)
    parser.add_argument("--t-scale", type=float, default=1.0, help="scale all T1/T2 times")
    parser.add_argument("--truncate-sweep", action="store_true", help="emit-a/emit-b: write the truncation-time population family")
    parser.add_argument("--sweep-param", default=None, help=f"one of {', '.join(SWEEPABLE)}")
    parser.add_argument("--sweep-values", default=None, help="comma-separated values")
    return parser


def _spec_from_args(args, nodes_link) -> protocols.ProtocolSpec:
    if args.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {args.scenario!r}; choose from {SCENARIOS}")
    if args.shots is not None and args.exact:
        raise ConfigError("--shots and --exact are mutually exclusive")
    if args.dt > 1.0:
        raise ConfigError("--dt must lie in (0, 1] ns")
    if args.fock < 2:
        raise ConfigError("--fock must be at least 2")
    kwargs = dict(
        name=args.scenario,
        eta_c=args.eta_c,
        time_offset=args.time_offset,
        dt=args.dt,
        idle_ns=args.idle_ns,
        t_scale=args.t_scale,
        shots=args.shots,
        seed=args.seed,
    )
    if args.scenario in ("emit-a", "emit-b"):
        # emission studies have no closing pulses and a longer window, over
        # which their drive runs and the output line is integrated
        kwargs["window"] = protocols.EMISSION_WINDOW
        kwargs["idle_ns"] = protocols.EMISSION_IDLE_NS
    if args.kappa_eff is not None:
        kwargs["kappa_eff_a"] = args.kappa_eff
        kwargs["kappa_eff_b"] = args.kappa_eff
    spec = protocols.ProtocolSpec(**kwargs)
    *nodes, link = protocols.resolve_device(nodes_link, spec)
    if args.scenario == "transfer" and link.eta_c == 0:
        # the absorption efficiency divides by the flux the channel delivers
        raise ConfigError("transfer needs eta_c > 0: with eta_c = 0 no photon reaches node B")
    for name, node, receiver in _BANDWIDTH_PATHS.get(args.scenario, _LINK_PATHS):
        # the drive the run builds checks kappa_eff <= kappa_T, the window
        # span and, for the receiver, that the time offset keeps it in the window
        try:
            protocols._drive(
                spec, nodes[node], getattr(spec, name), reverse=receiver, offset=link.time_offset
            )
        except ValueError as exc:
            raise ConfigError(
                f"{'receiver' if receiver else 'emission'} drive of the "
                f"{getattr(spec, name)} MHz photon at node {'AB'[node]}: {exc}"
            ) from exc
    return spec


def _sweep_specs(args, nodes_link):
    """(value, spec) of every sweep point, each validated like a single run."""
    if not args.sweep_param or args.sweep_param not in SWEEPABLE:
        raise ConfigError(f"--sweep-param must be one of {SWEEPABLE}")
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
        points.append((value, _spec_from_args(point, nodes_link)))
    return points


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_json(path: Path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_state_json(path: Path, rho: np.ndarray, dims):
    _write_json(
        path,
        {"dims": list(dims), "re": rho.real.tolist(), "im": rho.imag.tolist()},
    )


def _write_manifest(outdir: Path, args, spec, nodes_link):
    node_a, node_b, link = nodes_link
    manifest = {
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
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "sweep": {"param": args.sweep_param, "values": args.sweep_values},
        "truncate_sweep": bool(args.truncate_sweep),
    }
    _write_json(outdir / "manifest.json", manifest)


def _metrics_summary(bundle: metrics.MetricsBundle):
    return {
        "state_fidelity": bundle.state_fidelity,
        "concurrence": bundle.concurrence,
        "concurrence_renormalized": bundle.concurrence_renormalized,
        "ccnr": bundle.ccnr,
        "residual_f_population": bundle.residual_f_population,
        "qubit_block_trace": bundle.qubit_block_trace,
    }


def _run_emit(args, spec, nodes_link, outdir, node):
    pop_run = protocols.run_emission(spec, node, "f", nodes_link=nodes_link)
    field_run = protocols.run_emission(
        replace(spec, name=spec.name + "-field"), node, "gf", nodes_link=nodes_link
    )
    write_trajectory_csv(pop_run.trajectory, outdir / "trajectory.csv")
    write_trajectory_csv(field_run.trajectory, outdir / "trajectory_mean_field.csv")
    if args.truncate_sweep:
        _write_truncation_csv(pop_run, outdir / "truncation_sweep.csv", node)
    summary = {
        "final_populations": pop_run.extras["final_populations"],
        "photon_integral": pop_run.extras["photon_integral"],
        "mean_field_power": field_run.extras["mean_field_power"],
    }
    return summary


def _write_truncation_csv(run, path, node):
    # populations measured right after truncating the drive at tau coincide
    # with the untruncated trajectory at tau; one row every 2 ns
    traj = run.trajectory
    step = max(1, int(round(2.0 / (traj.t[1] - traj.t[0]))))
    pops = traj.pops_A if node == "A" else traj.pops_B
    with open(path, "w", newline="") as fh:
        fh.write("tau_ns,Pg,Pe,Pf\n")
        for k in range(0, len(traj.t), step):
            fh.write(
                f"{traj.t[k]:.9g},{pops[k, 0]:.9g},{pops[k, 1]:.9g},{pops[k, 2]:.9g}\n"
            )


def _run_transfer(spec, nodes_link, outdir):
    eff, runs = protocols.run_transfer_efficiencies(spec, nodes_link=nodes_link)
    write_trajectory_csv(runs["with"].trajectory, outdir / "trajectory_absorption_on.csv")
    write_trajectory_csv(runs["without"].trajectory, outdir / "trajectory_absorption_off.csv")
    write_trajectory_csv(runs["emit_a"].trajectory, outdir / "trajectory_emit_a.csv")
    write_trajectory_csv(runs["emit_b"].trajectory, outdir / "trajectory_emit_b.csv")
    return {
        "transfer_efficiency": eff.transfer_eff,
        "saturation_ns": eff.saturation_ns,
        "absorption_efficiency": eff.absorption_eff,
        "loss": eff.loss,
    }


def _run_qpt(spec, nodes_link, outdir):
    res = protocols.run_state_transfer_qpt(spec, nodes_link=nodes_link)
    res.extras["chi"].to_json(outdir / "chi.json")
    return {
        "process_fidelity": res.extras["process_fidelity"],
        "chi_identity_weight": res.extras["chi"].identity_weight,
        "avg_state_fidelity_from_fp": res.extras["avg_state_fidelity_from_fp"],
    }


def _run_entangle(spec, nodes_link, outdir):
    from . import tomography

    res = protocols.run_entanglement(spec, nodes_link=nodes_link)
    bundle = res.extras["metrics"]
    _write_state_json(outdir / "rho_two_qutrit_direct.json", res.extras["rho9_direct"], (3, 3))
    _write_state_json(outdir / "rho_two_qutrit_tomography.json", res.extras["rho9_tomography"], (3, 3))
    tomography.write_tomography_records(
        outdir / "tomography_records.json",
        res.extras["tomography_settings"],
        res.extras["tomography_populations"],
    )
    bundle.to_json(outdir / "metrics.json")
    metrics.write_expectations_csv(bundle.pauli_expectations, outdir / "pauli_expectations.csv")
    metrics.write_expectations_csv(bundle.gellmann_expectations, outdir / "gellmann_expectations.csv")
    write_trajectory_csv(res.trajectory, outdir / "trajectory.csv")
    return _metrics_summary(bundle)


def _run_upgrade(spec, nodes_link, outdir):
    res = protocols.run_upgrade_scenario(spec, nodes_link=nodes_link)
    bundle = res.extras["metrics"]
    bundle.to_json(outdir / "metrics.json")
    return _metrics_summary(bundle)


def _run_budget(spec, nodes_link, outdir):
    budget = protocols.error_budget(spec, nodes_link=nodes_link)
    payload = {k: v for k, v in budget.items() if k != "runs"}
    _write_json(outdir / "budget.json", payload)
    return payload


def _run_readout_sim(spec, outdir):
    shots = spec.shots or 25000
    rng = np.random.default_rng(spec.seed)
    summary = {}
    r_hats = {}
    for node in ("A", "B"):
        cal = readout.default_calibration(node)
        all_shots, prepared, assigned = [], [], []
        counts = []
        for s in range(3):
            pts = cal.simulate_shots(np.eye(3)[s], shots, rng)
            labels = readout.classify(pts, cal.model)
            counts.append(np.bincount(labels, minlength=3))
            all_shots.append(pts)
            prepared.extend([s] * shots)
            assigned.extend(labels.tolist())
        r_hat = readout.assignment_matrix(np.stack(counts))
        r_hats[node] = r_hat
        readout.write_assignment_json(outdir / f"assignment_{node}.json", r_hat)
        readout.write_shots_csv(
            outdir / f"shots_{node}.csv", np.vstack(all_shots), prepared, assigned
        )
        target = readout.table_assignment_matrix(node)
        truth = np.array([0.5, 0.3, 0.2])
        measured = readout.joint_counts([cal], truth, shots, rng) / shots
        mit = readout.mitigate(measured, r_hat)
        summary[node] = {
            "max_table_deviation": float(np.abs(r_hat - target).max()),
            "error_score": mit.error_score,
            "condition_number": mit.condition_number,
            "mitigation_truth": truth.tolist(),
            "mitigation_recovered": mit.populations.tolist(),
        }
    two = readout.kron(r_hats["A"], r_hats["B"])
    readout.write_assignment_json(
        outdir / "assignment_two_node.json", two, labels=[a + b for a in "gef" for b in "gef"]
    )
    return summary


def _run_sweep(args, points, nodes_link, outdir):
    rows = []
    for value, run_spec in points:
        res = protocols.run_entanglement(run_spec, nodes_link=nodes_link)
        row = {"value": value}
        row.update(_metrics_summary(res.extras["metrics"]))
        rows.append(row)
    with open(outdir / "sweep.csv", "w", newline="") as fh:
        cols = list(rows[0].keys())
        fh.write(",".join(["param"] + cols) + "\n")
        for row in rows:
            fh.write(",".join([args.sweep_param] + [f"{row[c]:.9g}" for c in cols]) + "\n")
    return {"param": args.sweep_param, "rows": rows}


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (2) or the help (0)
        return exc.code
    # everything is validated before the first file is written
    try:
        if args.device is not None and not Path(args.device).is_file():
            raise ConfigError(f"device file not found: {args.device}")
        nodes_link = dev.load_device(args.device)
        spec = _spec_from_args(args, nodes_link)
        points = _sweep_specs(args, nodes_link) if args.scenario == "sweep" else None
        outdir = Path(
            args.out or os.environ.get("PHOTONLINK_OUT") or "photonlink-out"
        ) / args.scenario
        outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    log_lines = [f"photonlink {__version__} scenario={args.scenario} seed={spec.seed}"]
    try:
        _write_manifest(outdir, args, spec, nodes_link)
        if args.scenario in ("emit-a", "emit-b"):
            node = "A" if args.scenario == "emit-a" else "B"
            summary = _run_emit(args, spec, nodes_link, outdir, node)
        elif args.scenario == "transfer":
            summary = _run_transfer(spec, nodes_link, outdir)
        elif args.scenario == "qpt":
            summary = _run_qpt(spec, nodes_link, outdir)
        elif args.scenario == "entangle":
            summary = _run_entangle(spec, nodes_link, outdir)
        elif args.scenario == "upgrade":
            summary = _run_upgrade(spec, nodes_link, outdir)
        elif args.scenario == "budget":
            summary = _run_budget(spec, nodes_link, outdir)
        elif args.scenario == "readout-sim":
            summary = _run_readout_sim(spec, outdir)
        else:
            summary = _run_sweep(args, points, nodes_link, outdir)
    except (TraceDriftError, ValueError) as exc:
        # a ValueError raised by a validated run (numpy's LinAlgError is one)
        # is a numerical failure such as a vanishing reference flux
        print(f"numerical failure: {exc}", file=sys.stderr)
        log_lines.append(f"numerical failure: {exc}")
        (outdir / "run.log").write_text("\n".join(log_lines) + "\n")
        return 3

    _write_json(outdir / "summary.json", summary)
    log_lines.append("status: ok")
    log_lines.append(f"artifacts: {sorted(p.name for p in outdir.iterdir())}")
    (outdir / "run.log").write_text("\n".join(log_lines) + "\n")
    print(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
