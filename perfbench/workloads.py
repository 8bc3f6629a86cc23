"""Seeded workload generation: a benchmark seed becomes CLI argument lists.

The program only ever sees the generated argv.  Iteration ``i`` of a run with
seed ``s`` is ``argv(name, s, i)``; the same (name, s, i) always gives the same
argv.
"""

from __future__ import annotations

import random

# the seed the correctness reference was captured at
DEFAULT_SEED = 1
# kept out of every run made while the benchmark was tuned; a later speed
# claim is re-checked on it
HELD_OUT_SEED = 7919

# the shipped channel transmission; its sweep row is seed-independent
SHIPPED_ETA_C = 0.77
SWEEP_GRID = tuple(round(0.70 + 0.01 * k, 2) for k in range(31))
SHOTS = 20000

# consecutive iterations of one run sample independent shot-noise draws,
# because the MLE iteration count depends on the draw
SUB_SEED_STRIDE = 1000

NAMES = ("sweep-exact", "qpt-shots", "entangle-shots")
SHOT_WORKLOADS = ("qpt-shots", "entangle-shots")


def sweep_values(seed: int) -> list[float]:
    """The shipped 0.77 plus two distinct points of [0.70, 1.00] drawn from ``seed``."""
    rng = random.Random(f"sweep-exact:{seed}")
    others = rng.sample([v for v in SWEEP_GRID if v != SHIPPED_ETA_C], 2)
    return sorted([SHIPPED_ETA_C, *others])


def cli_seed(seed: int, iteration: int) -> int:
    """CLI ``--seed`` of one iteration; iteration 0 passes the benchmark seed."""
    return seed + SUB_SEED_STRIDE * iteration


def argv(name: str, seed: int, iteration: int = 0) -> list[str]:
    """Arguments of ``photonlink.cli.run`` (without ``--out``)."""
    if seed < 0 or iteration < 0:
        raise ValueError("seed and iteration must be non-negative")
    if name == "sweep-exact":
        values = ",".join(f"{v:.2f}" for v in sweep_values(seed))
        return ["--scenario", "sweep", "--sweep-param", "eta_c", "--sweep-values", values]
    if name == "qpt-shots":
        scenario = "qpt"
    elif name == "entangle-shots":
        scenario = "entangle"
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return [
        "--scenario", scenario,
        "--shots", str(SHOTS),
        "--seed", str(cli_seed(seed, iteration)),
    ]
