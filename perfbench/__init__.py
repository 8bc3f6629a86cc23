"""Benchmark of the photonlink CLI: seeded workloads, a correctness gate and
an outside-in per-layer trace.  Run ``python3 perfbench/run.py --help``."""
