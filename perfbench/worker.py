"""One benchmark process: set up, run a closed loop of CLI iterations, report.

Started by ``run.py`` as ``python3 -m perfbench.worker`` with the checkout
root as working directory.  Prints ``ready`` on stdout as soon as it is set
up (the parent times that), then, unless ``--setup-only``, one JSON line
with its measurements.  Everything the CLI itself prints is discarded.

The loop is closed: one client, one ``cli.run(argv)`` at a time, each into a
fresh output directory, each checked by the correctness gate.  Another
iteration starts only while it is expected to end within ``--seconds``; at
least one always runs.  A traced run alternates an untraced and a traced
iteration on the same argv, so their artifacts can be compared byte for byte
and their wall times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from perfbench import gate, tracing, workloads  # noqa: E402
from perfbench.speed import SpeedSampler, at_reference_speed  # noqa: E402


def set_up(workload: str):
    """What a fresh CLI process pays before a run of ``workload`` can start."""
    import photonlink
    from photonlink import cli, device, readout  # noqa: F401  (cli: the entry point)

    if not Path(photonlink.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"photonlink imported from {photonlink.__file__}, not from {SRC}")
    device.load_device()
    if workload in workloads.SHOT_WORKLOADS:
        # every CLI invocation with --shots calibrates both readouts
        readout.default_calibration("A")
        readout.default_calibration("B")


def _say(line: str):
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _differing_files(a: Path, b: Path) -> list[str]:
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    return sorted(
        str(n) for n in files(a) | files(b)
        if not ((a / n).is_file() and (b / n).is_file() and (a / n).read_bytes() == (b / n).read_bytes())
    )


def timed_run(argv, out: Path, tracer=None, sampler=None):
    """``cli.run(argv)`` into a fresh ``out``.

    Returns the exit code (None if it raised), the wall seconds and, given a
    sampler, the host speed during the run.
    """
    from photonlink import cli

    shutil.rmtree(out, ignore_errors=True)
    full = [*argv, "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        mark = sampler.mark() if sampler else 0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.run(full)
            else:
                rc = tracer.call("cli.run", "cli", cli.run, full)
        except Exception:  # a crashing iteration counts as failed; keep measuring
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        speed = sampler.since(mark) if sampler else None
    return rc, wall, speed


def iteration(workload, argv, out: Path, reference, tracer=None, sampler=None) -> dict:
    """One timed run, then the correctness gate."""
    rc, wall, speed = timed_run(argv, out, tracer, sampler)
    problems = gate.check(workload, argv, rc, out / argv[1], reference)
    for p in problems:
        print(f"perfbench: {workload} {' '.join(argv)}: {p}", file=sys.stderr)
    return {
        "argv": argv,
        "wall_s": wall,
        "rc": rc,
        "problems": problems,
        "bytes_written": _tree_bytes(out) if out.exists() else 0,
        "speed": speed,
    }


def _another_fits(start: float, done: int, seconds: float) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def run_plain(args, sampler: SpeedSampler) -> dict:
    reference = gate.load_reference()
    records = []
    start = time.perf_counter()
    while True:
        i = len(records)
        out = args.work_dir / str(i)
        rec = iteration(args.workload, workloads.argv(args.workload, args.seed, i), out, reference,
                        sampler=sampler)
        rec["wall_ref_s"] = at_reference_speed(rec["wall_s"], rec["speed"])
        records.append(rec)
        shutil.rmtree(out, ignore_errors=True)
        if not _another_fits(start, len(records), args.seconds):
            return {"records": records}


def run_traced(args, tracer: tracing.Tracer, missing: list[str]) -> dict:
    reference = gate.load_reference()
    records, per_iteration = [], []
    start = time.perf_counter()
    i = 0
    while True:
        argv = workloads.argv(args.workload, args.seed, i)
        outs = {mode: args.work_dir / f"{i}-{mode}" for mode in ("plain", "traced")}
        rec = {}
        # alternate which goes first so warm-up does not bias the overhead
        for mode in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            if mode == "plain":
                rec[mode] = iteration(args.workload, argv, outs[mode], reference)
            else:
                tracer.iteration = i
                inst = tracing.install(tracer)
                try:
                    rec[mode] = iteration(args.workload, argv, outs[mode], reference, tracer)
                finally:
                    tracing.uninstall(inst)
                left = tracing.leftover_wrappers()
                if left:
                    rec[mode]["problems"].append(f"wrappers left installed: {left}")
            rec[mode]["traced"] = mode == "traced"
        differ = _differing_files(outs["plain"], outs["traced"])
        if differ:
            rec["traced"]["problems"].append(f"traced artifacts differ from untraced: {differ}")
        m = tracing.iteration_metrics([s for s in tracer.spans if s.iteration == i])
        m["cli.bytes_written"] = rec["traced"]["bytes_written"]
        per_iteration.append(m)
        records += [rec["plain"], rec["traced"]]
        for out in outs.values():
            shutil.rmtree(out, ignore_errors=True)
        i += 1
        if not _another_fits(start, i, args.seconds):
            break

    def median(key, traced):
        return statistics.median(r[key] for r in records if r["traced"] == traced)

    setup_spans = [s for s in tracer.spans if s.iteration == "setup"]
    own = tracing.self_times(setup_spans)
    layer = tracing.median_metrics(per_iteration)
    layer["readout.calibrate_s"] = sum(
        own[s.sid] for s in setup_spans if s.name == "readout.calibrate_to_targets"
    )
    layer["trace.wall_s"] = median("wall_s", True)
    layer["trace.overhead_s"] = median("wall_s", True) - median("wall_s", False)
    layer["host.wall_s"] = median("wall_s", False)
    if args.spans_out:
        args.spans_out.write_text(json.dumps({
            "missing_targets": missing,
            "spans": [vars(s) for s in tracer.spans],
        }))
    return {"records": records, "per_layer": layer, "missing_targets": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.trace:
        # install before set-up so the readout calibration is traced too;
        # no speed sampling, so the per-layer times hold no sampling overhead
        tracer = tracing.Tracer()
        inst = tracing.install(tracer)
        try:
            set_up(args.workload)
        finally:
            tracing.uninstall(inst)
        _say("ready")
        result = run_traced(args, tracer, inst.missing)
    else:
        t0 = time.perf_counter()
        sampler = SpeedSampler()
        sampler.start()
        built = time.perf_counter() - t0
        try:
            set_up(args.workload)
            _say("ready")
            setup_speed = sampler.since(0)
            # building the sampler is the benchmark's time, not the program's
            setup_speed["busy_s"] += built
            if args.setup_only:
                _say(json.dumps({"setup_speed": setup_speed}))
                return 0
            result = run_plain(args, sampler)
        finally:
            sampler.stop()
        result["setup_speed"] = setup_speed

    import numpy
    import photonlink
    import scipy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "photonlink": photonlink.__version__,
    }
    _say(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
