"""Run a fixed list of CLI argvs under two source trees, this checkout and a
base checkout, and report every difference between them.

    python3 tools/compare_runs.py BASE_TREE [WORK_DIR]

BASE_TREE is another checkout of photonlink (its ``src/`` is imported);
WORK_DIR (default: a new temporary directory) receives one directory per
tree and argv, ``WORK_DIR/<base|this>/<i>``, holding the run's ``out/``,
``stdout``, ``stderr`` and ``exit_code``.  Each run is ``python -m
photonlink.cli --out out ARGV`` in that directory, importing ``<tree>/src``
on one BLAS thread, so the two trees' runs differ only where the programs
do; the tree's path is replaced by ``<tree>`` in stdout and stderr, where
warnings name source files.  The two trees of run directories are then
compared by ``numeric_diff.compare_trees``, which prints, for each file
that differs, the largest change of any number in it and where, and what
else differs, and names each file that only one tree holds.  Exits 0 when
nothing differs, 1 when something does, 2 on bad usage.

A change that moves a number on purpose differs from its parent here, and
the report lists every moved artifact with its largest change.  Given this
checkout itself as BASE_TREE (``python3 tools/compare_runs.py .``, a CI
step) it checks that every argv gives the same bytes in fresh processes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numeric_diff

ROOT = Path(os.path.abspath(__file__)).parents[1]
# perfbench/ sits beside tools/, which alone is on the path of the script
sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402

SEEDS = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)


def _benchmark(name: str) -> list[str]:
    """The benchmark's argvs of workload ``name`` at its two seeds, so a
    byte-identity claim covers every run its gate checks."""
    return [" ".join(workloads.argv(name, seed)) for seed in SEEDS]


# every scenario, shot and exact readout, seven sweeps (one of them sampled,
# two exiting 3, the last on a run of its second grid, so the error's run
# number is pinned across batches) and the benchmark's argvs; no argument
# holds a space
ARGVS = [line.split() for line in [
    "--scenario emit-a",
    "--scenario emit-b",
    "--scenario transfer",
    "--scenario transfer --dt 0.5",
    "--scenario qpt",
    *_benchmark("qpt-shots"),
    "--scenario entangle",
    *_benchmark("entangle-shots"),
    "--scenario upgrade",
    "--scenario upgrade --shots 5000 --seed 3",
    "--scenario budget",
    "--scenario readout-sim --shots 2000",
    "--scenario readout-sim --shots 25000 --seed 7919",
    "--scenario sweep --sweep-param eta_c --sweep-values 0.72,0.77,0.90,1.0",
    *_benchmark("sweep-exact"),
    "--scenario sweep --sweep-param eta_c --sweep-values 0.77,0.9 --shots 2000 --seed 5",
    "--scenario sweep --sweep-param dt --sweep-values 0.5,1,0.5",
    "--scenario sweep --sweep-param idle_ns --sweep-values 40,0 --t-scale 1e-4",
    "--scenario sweep --sweep-param dt --sweep-values 0.5,1 --t-scale 3e-4",
]]


def run(tree: Path, argv: list[str], rundir: Path) -> int:
    """Run the CLI of ``tree`` on ``argv`` in ``rundir`` and write its
    ``stdout``, ``stderr`` (the tree's path replaced by ``<tree>``) and
    ``exit_code`` there; returns the exit code."""
    rundir.mkdir(parents=True, exist_ok=True)
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    done = subprocess.run(
        [sys.executable, "-m", "photonlink.cli", "--out", "out", *argv],
        cwd=rundir, env=env, capture_output=True,
    )
    for name, data in (("stdout", done.stdout), ("stderr", done.stderr)):
        (rundir / name).write_bytes(data.replace(os.fsencode(tree), b"<tree>"))
    (rundir / "exit_code").write_text(f"{done.returncode}\n")
    return done.returncode


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2 or not (Path(argv[0]) / "src" / "photonlink").is_dir():
        usage = f"usage: {Path(__file__).name} BASE_TREE [WORK_DIR]  (BASE_TREE holds src/photonlink)"
        print(usage, file=sys.stderr)
        return 2
    base = Path(os.path.abspath(argv[0]))
    work = Path(argv[1] if len(argv) == 2 else tempfile.mkdtemp())
    for side, tree in (("base", base), ("this", ROOT)):
        for i, cli_argv in enumerate(ARGVS):
            code = run(tree, cli_argv, work / side / str(i))
            print(f"{side} {i}: exit {code}: {' '.join(cli_argv)}", flush=True)

    lines = numeric_diff.compare_trees(work / "base", work / "this")
    if not lines:
        print(f"no difference ({work})")
        return 0
    for line in lines:
        print(line)
    print(f"differences found ({work})", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
