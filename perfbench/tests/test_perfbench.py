"""Tests of the benchmark's own machinery (not of photonlink)."""

import json
import re
import signal
import time
from pathlib import Path

import pytest

from perfbench import gate, run, tracing, workloads, worker
from perfbench.speed import KERNEL_REF_S, SpeedSampler, at_reference_speed

ROOT = Path(__file__).resolve().parents[2]


# seed -> argv ----------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.NAMES)
def test_argv_is_a_function_of_the_seed(name):
    for seed in (0, 1, 2, workloads.HELD_OUT_SEED):
        for i in range(3):
            assert workloads.argv(name, seed, i) == workloads.argv(name, seed, i)


def test_sweep_points_include_the_shipped_value_and_vary_with_the_seed():
    draws = {tuple(workloads.sweep_values(seed)) for seed in range(20)}
    assert len(draws) > 10
    for values in draws:
        assert workloads.SHIPPED_ETA_C in values
        assert len(set(values)) == 3
        assert all(0.70 <= v <= 1.00 for v in values)


def test_shot_workloads_pass_the_benchmark_seed_first_then_distinct_sub_seeds():
    for name in workloads.SHOT_WORKLOADS:
        seeds = [int(workloads.argv(name, 5, i)[-1]) for i in range(4)]
        assert seeds[0] == 5
        assert len(set(seeds)) == 4
        assert workloads.argv(name, 5, 0)[:4] == ["--scenario", name.split("-")[0], "--shots", "20000"]


def test_bad_workload_and_seed_are_rejected():
    with pytest.raises(ValueError):
        workloads.argv("nope", 1)
    with pytest.raises(ValueError):
        workloads.argv("qpt-shots", -1)


# self time ---------------------------------------------------------------------

def _span(sid, parent, start, end, layer="cli"):
    return tracing.Span(sid, f"s{sid}", layer, 0, parent, start, end)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0, "protocols"),
        _span(2, 1, 2.0, 3.0, "dynamics"),
        _span(3, 0, 3.5, 6.0, "protocols"),  # overlaps span 1 by 0.5
        _span(4, 0, 9.0, 12.0, "protocols"),  # sticks out of its parent
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.5)
    assert own[4] == pytest.approx(3.0)


def test_iteration_metrics_count_calls_and_self_time_per_layer():
    spans = [
        _span(0, None, 0.0, 10.0),
        tracing.Span(1, "protocols.integrate_me", "dynamics", 0, 0, 1.0, 5.0,
                     {"grid_points": 400, "trace_err": 1e-12}),
        tracing.Span(2, "readout.shots_for_prepared_sequence", "readout", 0, 0, 5.0, 6.0,
                     {"shots": 1000}),
        tracing.Span(3, "readout.mitigate", "readout", 0, 0, 6.0, 6.5, {"outside": 1, "total": 9}),
    ]
    m = tracing.iteration_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(4.5)
    assert m["dynamics.integrate_calls"] == 1
    assert m["dynamics.integrate_s"] == pytest.approx(4.0)
    assert m["dynamics.us_per_grid_point"] == pytest.approx(1e4)
    assert m["readout.shots"] == 1000
    assert m["readout.s_per_1e5_shots"] == pytest.approx(100.0)
    assert (m["readout.mitigated_outside"], m["readout.mitigated_total"]) == (1, 9)
    assert set(m) | {"cli.bytes_written", "readout.calibrate_s", "trace.wall_s",
                     "trace.overhead_s", "host.wall_s"} == set(run.PER_LAYER)


# wrappers and byte identity ----------------------------------------------------

def test_every_wrapper_is_removed_after_uninstall():
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    assert inst.missing == []
    originals = [(owner, name, original) for owner, name, original in inst.patched]
    assert len(tracing.leftover_wrappers()) == len(tracing.TARGETS)
    tracing.uninstall(inst)
    assert tracing.leftover_wrappers() == []
    for owner, name, original in originals:
        assert vars(owner)[name] is original


def test_missing_target_is_skipped_and_reported():
    inst = tracing.install(tracing.Tracer(), (("photonlink.protocols", "no_such_name", "protocols"),))
    assert inst.patched == [] and inst.missing == ["photonlink.protocols.no_such_name"]


def test_traced_and_untraced_iterations_write_identical_artifacts(tmp_path):
    argv = ["--scenario", "entangle", "--dt", "0.5", "--fock", "2"]
    rc_plain, _, _ = worker.timed_run(argv, tmp_path / "plain")
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        rc_traced, _, _ = worker.timed_run(argv, tmp_path / "traced", tracer)
    finally:
        tracing.uninstall(inst)
    assert rc_plain == rc_traced == 0
    assert worker._differing_files(tmp_path / "plain", tmp_path / "traced") == []
    assert {s.layer for s in tracer.spans} >= {"cli", "protocols", "device", "dynamics", "tomography"}
    m = tracing.iteration_metrics(tracer.spans)
    assert m["dynamics.integrate_calls"] == 1 and m["readout.shots"] == 0


# correctness gate --------------------------------------------------------------

def _write_summary(run_dir: Path, summary: dict):
    run_dir.mkdir(parents=True)
    (run_dir / "summary.json").write_text(json.dumps(summary))


def test_gate_rejects_exit_codes_and_out_of_tolerance_numbers(tmp_path):
    reference = gate.load_reference()
    argv = workloads.argv("qpt-shots", 3)
    assert gate.check("qpt-shots", argv, 3, tmp_path, reference) == ["exit code 3"]
    _write_summary(tmp_path / "qpt", {"process_fidelity": 0.70})
    problems = gate.check("qpt-shots", argv, 0, tmp_path / "qpt", reference)
    assert len(problems) == 1 and "process_fidelity" in problems[0]


def test_gate_requires_fidelity_non_decreasing_in_eta_c(tmp_path):
    reference = gate.load_reference()
    shipped = reference["sweep-exact"]["shipped_row"]
    rows = [dict(shipped), dict(shipped, value=0.9, state_fidelity=shipped["state_fidelity"] - 0.01)]
    _write_summary(tmp_path / "sweep", {"rows": rows})
    argv = workloads.argv("sweep-exact", 2)
    problems = gate.check("sweep-exact", argv, 0, tmp_path / "sweep", reference)
    assert problems and "non-decreasing" in problems[0]


def test_reference_holds_every_workload_at_the_default_seed():
    reference = gate.load_reference()
    assert reference["seed"] == workloads.DEFAULT_SEED
    for name in workloads.NAMES:
        assert reference[name]["argv"] == workloads.argv(name, workloads.DEFAULT_SEED)


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# host-speed correction ---------------------------------------------------------

def test_reference_speed_removes_sampling_time_and_rescales():
    speed = {"samples": 10, "busy_s": 0.5, "kernel_s": 2 * KERNEL_REF_S}
    assert at_reference_speed(10.5, speed) == pytest.approx(5.0)


def test_sampler_times_the_kernel_while_running_and_restores_the_signal():
    sampler = SpeedSampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.45
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    speed = sampler.since(0)
    assert speed["samples"] >= 3
    assert 0 < speed["kernel_s"] < 0.1 and speed["busy_s"] == pytest.approx(sum(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_report_prints_every_metric_with_its_unit(capsys):
    rec = {"wall_s": 2.0, "speed": {"kernel_s": 0.004}}
    plain = {
        "workload": "qpt-shots", "attempted": 1, "failed": 0, "records": [rec],
        "missing_targets": [], "provenance": {"seed": 1},
        "setup_samples": [(1.0, {"kernel_s": 0.004})],
        "metrics": {k: (1.5, unit) for k, unit in run.END_TO_END.items()},
    }
    run.report(plain, 0)
    run.report(dict(plain, setup_samples=[], metrics={k: (0, u) for k, u in run.PER_LAYER.items()}), 1)
    out = capsys.readouterr().out
    for name, unit in {**run.END_TO_END, **run.PER_LAYER, "failed_frac": "ratio"}.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}\b", out, re.M), name
