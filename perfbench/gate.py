"""Correctness gate applied to every benchmark iteration.

An iteration passes when ``cli.run`` returned 0, its ``summary.json``
headline numbers lie inside the paper's tolerances, and the artifacts that
do not depend on shot noise match the reference captured with
``python3 perfbench/gate.py --capture`` to within ``REFERENCE_ATOL``.  The
seed-dependent artifacts (the qpt chi matrix, the drawn sweep rows) are
compared only when the iteration's argv is the one the reference holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# the accuracy bound for changes that trade accuracy for speed
REFERENCE_ATOL = 1e-6

# paper values with their stated tolerances
ENTANGLE_TOLERANCES = {
    "state_fidelity": (0.789, 0.030),
    "concurrence": (0.747, 0.040),
    "ccnr": (1.612, 0.050),
    "residual_f_population": (0.035, 0.010),
}
QPT_TOLERANCES = {"process_fidelity": (0.800, 0.030)}

SWEEP_KEYS = ("value", *ENTANGLE_TOLERANCES)


def _within(values: dict, tolerances: dict, label: str) -> list[str]:
    problems = []
    for key, (target, tol) in tolerances.items():
        got = values.get(key)
        if not isinstance(got, (int, float)) or abs(got - target) > tol:
            problems.append(f"{label}{key} = {got!r}, expected {target}({tol})")
    return problems


def _max_abs_diff(a, b) -> float:
    """Largest elementwise |a - b| over equally shaped nested lists."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_max_abs_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b)
    return float("inf")


def _matrix_problems(path: Path, ref: dict, label: str) -> list[str]:
    got = json.loads(path.read_text())
    diff = max(_max_abs_diff(got[part], ref[part]) for part in ("re", "im"))
    if diff > REFERENCE_ATOL:
        return [f"{label} differs from the reference by {diff:.3e}"]
    return []


def _row_problems(row: dict, ref_row: dict) -> list[str]:
    diff = max(_max_abs_diff(row.get(k), ref_row[k]) for k in SWEEP_KEYS)
    if diff > REFERENCE_ATOL:
        return [f"sweep row {ref_row['value']} differs from the reference by {diff:.3e}"]
    return []


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def check(workload: str, argv: list[str], rc: int, run_dir: Path, reference: dict) -> list[str]:
    """Every reason the iteration fails the gate; empty when it passes.

    ``run_dir`` is the scenario directory ``cli.run`` wrote (``<out>/<scenario>``).
    """
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        summary = json.loads((run_dir / "summary.json").read_text())
        ref = reference[workload]
        if workload == "entangle-shots":
            problems = _within(summary, ENTANGLE_TOLERANCES, "")
            problems += _matrix_problems(
                run_dir / "rho_two_qutrit_direct.json", ref["rho_direct"], "rho_two_qutrit_direct"
            )
        elif workload == "qpt-shots":
            problems = _within(summary, QPT_TOLERANCES, "")
            if argv == ref["argv"]:
                problems += _matrix_problems(run_dir / "chi.json", ref["chi"], "chi")
        elif workload == "sweep-exact":
            rows = sorted(summary["rows"], key=lambda r: r["value"])
            problems = []
            fid = [r["state_fidelity"] for r in rows]
            if any(b < a for a, b in zip(fid, fid[1:])):
                problems.append(f"fidelity not non-decreasing in eta_c: {fid}")
            shipped = [r for r in rows if r["value"] == workloads.SHIPPED_ETA_C]
            if len(shipped) != 1:
                problems.append("no row for the shipped eta_c")
            else:
                problems += _within(shipped[0], ENTANGLE_TOLERANCES, "eta_c=0.77 ")
                problems += _row_problems(shipped[0], ref["shipped_row"])
            if argv == ref["argv"]:
                if len(rows) != len(ref["rows"]):
                    problems.append("sweep row count differs from the reference")
                for row, ref_row in zip(rows, ref["rows"]):
                    problems += _row_problems(row, ref_row)
        else:
            raise KeyError(workload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifacts: {exc!r}"]
    return problems


def capture(out: Path) -> dict:
    """Run the default-seed argv of every workload and record its reference artifacts."""
    import contextlib
    import io

    from photonlink import cli

    reference = {"seed": workloads.DEFAULT_SEED, "atol": REFERENCE_ATOL}
    for name in workloads.NAMES:
        argv = workloads.argv(name, workloads.DEFAULT_SEED)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run([*argv, "--out", str(out / name)])
        if rc != 0:
            raise RuntimeError(f"{name}: exit code {rc}")
        run_dir = out / name / argv[1]
        entry = {"argv": argv}
        if name == "entangle-shots":
            entry["rho_direct"] = json.loads((run_dir / "rho_two_qutrit_direct.json").read_text())
        elif name == "qpt-shots":
            entry["chi"] = json.loads((run_dir / "chi.json").read_text())
        else:
            rows = json.loads((run_dir / "summary.json").read_text())["rows"]
            entry["rows"] = [{k: r[k] for k in SWEEP_KEYS} for r in sorted(rows, key=lambda r: r["value"])]
            entry["shipped_row"] = next(r for r in entry["rows"] if r["value"] == workloads.SHIPPED_ETA_C)
        reference[name] = entry
    return reference


def main(argv=None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Capture the correctness reference of the benchmark")
    parser.add_argument("--capture", action="store_true", required=True)
    parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        reference = capture(Path(tmp))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
