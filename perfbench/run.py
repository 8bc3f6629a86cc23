"""Benchmark of the photonlink CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  For one workload it spawns
``SETUP_REPEATS - 1`` set-up-only interpreters and then the worker that runs
the closed loop of ``photonlink.cli.run(argv)`` iterations (see worker.py).
Times are reported at a reference host speed (see speed.py); the host times
are printed next to them.  It prints every metric by name with its unit, the
provenance of the result, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details land in ``.perfbench/`` under the checkout.  Exits 2 without a
result when the checkout holds no photonlink sources, 1 when the benchmark
itself fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.speed import KERNEL_REF_S, at_reference_speed  # noqa: E402

RESULTS_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
# a run must end within 180 s; the worker is killed past this
RUN_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one client: the closed loop runs one iteration at a time on one BLAS thread
BLAS_THREADS = "1"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "protocols.calls": "count",
    "protocols.self_s": "s",
    "device.calls": "count",
    "device.s": "s",
    "pulse.calls": "count",
    "pulse.s": "s",
    "dynamics.integrate_calls": "count",
    "dynamics.integrate_s": "s",
    "dynamics.grid_points": "count",
    "dynamics.us_per_grid_point": "us",
    "dynamics.trace_err_max": "1",
    "tomography.mle_calls": "count",
    "tomography.mle9_s": "s",
    "tomography.mle3_s": "s",
    "tomography.mle_unconverged": "count",
    "readout.calibrate_s": "s",
    "readout.shots": "count",
    "readout.sample_s": "s",
    "readout.classify_s": "s",
    "readout.mitigate_s": "s",
    "readout.s_per_1e5_shots": "s",
    "readout.mitigated_outside": "count",
    "readout.mitigated_total": "count",
    "metrics.calls": "count",
    "metrics.s": "s",
    "qops.calls": "count",
    "qops.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "host.wall_s": "s",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT), env.get("PYTHONPATH")]))
    return env


class Worker:
    """A ``perfbench.worker`` child, timed from spawn to its ``ready`` line."""

    def __init__(self, args: list[str], deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", *args],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, bufsize=0,
        )
        try:
            line = self._read_line()
            self.setup_s = time.perf_counter() - t0
            if line != b"ready\n":
                raise BenchError(f"worker {args} did not get ready (got {line!r})")
        except BaseException:
            self.stop()
            raise

    def _read_line(self) -> bytes:
        # byte by byte, so nothing after the line is buffered away from communicate()
        fd, line = self.proc.stdout.fileno(), b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([fd], [], [], self._left())
            byte = os.read(fd, 1) if ready else b""
            if not byte:
                break
            line += byte
        return line

    def _left(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker timed out") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out.decode()


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = ROOT / "src" / "photonlink"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: int, versions: dict) -> dict:
    rev = _git("rev-parse", "HEAD")
    env = _child_env()
    status = _git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "run_seconds": seconds,
        "trace": trace,
        "git_rev": rev,
        "git_dirty": bool(status) if rev else None,
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "versions": versions,
    }


def _last_json(out: str) -> dict:
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from None


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: metrics, counts and the worker's records."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    RESULTS_DIR.mkdir(exist_ok=True)
    work_dir = RESULTS_DIR / f"work-{workload}-{seed}"
    setups = []  # (host seconds, host speed while setting up)
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            w = Worker(["--workload", workload, "--setup-only"], deadline)
            setups.append((w.setup_s, _last_json(w.finish())["setup_speed"]))
    args = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work-dir", str(work_dir),
        "--spans-out", str(RESULTS_DIR / f"spans-{workload}-seed{seed}.json"),
    ]
    try:
        w = Worker(args, deadline)
        result = _last_json(w.finish())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not trace:
        setups.append((w.setup_s, result["setup_speed"]))
    records = result["records"]
    if trace:
        metrics = {k: (result["per_layer"][k], unit) for k, unit in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": (statistics.median(at_reference_speed(*s) for s in setups), "s"),
            "wall_s": (statistics.median(r["wall_ref_s"] for r in records), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    failed = sum(1 for r in records if r["problems"])
    return {
        "workload": workload,
        "attempted": len(records),
        "failed": failed,
        "setup_samples": setups,
        "metrics": metrics,
        "records": records,
        "missing_targets": result.get("missing_targets", []),
        "provenance": provenance(workload, seed, seconds, trace, result["versions"]),
    }


def report(res: dict, trace: int):
    prov = res["provenance"]
    records = res["records"]
    print(f"perfbench {res['workload']}  seed={prov['seed']}  trace={trace}  "
          f"iterations={res['attempted']}")
    notes = {} if trace else {
        "setup_s": f"median of {len(res['setup_samples'])} fresh interpreters; host time "
                   f"{statistics.median(s for s, _ in res['setup_samples']):.4g} s",
        "wall_s": f"median of {len(records)} iterations; host time "
                  f"{statistics.median(r['wall_s'] for r in records):.4g} s",
    }
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {unit}  {notes.get(name, '')}".rstrip())
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<28} {frac:>14.6g} ratio  ({res['failed']} of {res['attempted']})")
    if not trace:
        kernels = [r["speed"]["kernel_s"] for r in records] + [s["kernel_s"] for _, s in res["setup_samples"]]
        print(f"  host speed: reference kernel {min(kernels) * 1e3:.3g}..{max(kernels) * 1e3:.3g} ms "
              f"(reference {KERNEL_REF_S * 1e3:.3g} ms); times above are at the reference speed")
    if res["missing_targets"]:
        print(f"  trace targets missing from the program: {res['missing_targets']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "photonlink" / "cli.py").is_file():
        print(f"perfbench: no photonlink sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, args.trace)
            report(res, args.trace)
            path = RESULTS_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
            results.append(res)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": u}
        for r in results for k, (v, u) in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
