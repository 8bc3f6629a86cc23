"""Outside-in tracing of photonlink's layers.

Wrappers go on the names the callers actually resolve at call time: a name
bound with ``from x import y`` is a separate binding, so ``integrate_me`` is
wrapped as ``photonlink.protocols.integrate_me``, not in ``dynamics``.  Each
wrapper records a span (name, layer, start, end, parent, iteration) plus the
counters readable at that boundary.  Spans stay in memory; the caller writes
them out at the end.  A target missing from the program is skipped and
reported, so the trace degrades instead of failing when code moves.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import warnings
from dataclasses import dataclass, field

# (module, attribute path, layer): the bindings each layer's callers resolve
TARGETS = (
    ("photonlink.protocols", "run_entanglement", "protocols"),
    ("photonlink.protocols", "run_state_transfer_qpt", "protocols"),
    ("photonlink.protocols", "run_transfer", "protocols"),
    ("photonlink.device", "load_device", "device"),
    ("photonlink.device", "build_hamiltonian", "device"),
    ("photonlink.device", "build_collapse_ops", "device"),
    ("photonlink.pulse", "emission_drive", "pulse"),
    ("photonlink.pulse", "absorption_drive", "pulse"),
    ("photonlink.pulse", "shift", "pulse"),
    ("photonlink.protocols", "integrate_me", "dynamics"),
    ("photonlink.protocols", "output_observables", "dynamics"),
    ("photonlink.tomography", "qst_mle", "tomography"),
    ("photonlink.tomography", "born_probabilities", "tomography"),
    ("photonlink.tomography", "qpt_linear_inversion", "tomography"),
    ("photonlink.readout", "calibrate_to_targets", "readout"),
    ("photonlink.readout", "ReadoutCalibration.simulate_shots", "readout"),
    ("photonlink.readout", "ReadoutCalibration.shots_for_prepared_sequence", "readout"),
    ("photonlink.readout", "classify", "readout"),
    ("photonlink.readout", "mitigate", "readout"),
    ("photonlink.metrics", "bundle_from_state", "metrics"),
    ("photonlink.metrics", "hs_distance", "metrics"),
    ("photonlink.metrics", "process_fidelity", "metrics"),
    ("photonlink.protocols", "embed", "qops"),
    ("photonlink.protocols", "partial_trace", "qops"),
    ("photonlink.device", "embed", "qops"),
)

LAYERS = ("cli", "protocols", "device", "pulse", "dynamics", "tomography", "readout", "metrics", "qops")
MLE_UNCONVERGED_PREFIX = "MLE stopped"
MITIGATED_RANGE = (-0.02, 1.02)
SHOT_SAMPLERS = ("readout.simulate_shots", "readout.shots_for_prepared_sequence")


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    iteration: object
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread; ``iteration`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration: object = "setup"
        self._stack: list[Span] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, layer, self.iteration, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)


# counters read at a boundary from the wrapped call's result --------------

def _integrate_counts(attrs, result):
    traj = result[0]
    attrs["grid_points"] = len(traj.t)
    trace = traj.pops[0].sum(axis=1)  # the level populations of one qutrit sum to Tr(rho)
    attrs["trace_err"] = float(abs(trace - trace[0]).max())


def _mle_counts(attrs, result):
    attrs["dim"] = int(result.shape[0])


def _shot_counts(attrs, result):
    attrs["shots"] = len(result)


def _mitigate_counts(attrs, result):
    pops = result.populations
    lo, hi = MITIGATED_RANGE
    attrs["outside"] = int(((pops < lo) | (pops > hi)).sum())
    attrs["total"] = int(pops.size)


COUNTERS = {
    "protocols.integrate_me": _integrate_counts,
    "tomography.qst_mle": _mle_counts,
    "readout.simulate_shots": _shot_counts,
    "readout.shots_for_prepared_sequence": _shot_counts,
    "readout.mitigate": _mitigate_counts,
}


def _span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    counter = COUNTERS.get(name)
    catch_mle = name == "tomography.qst_mle"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            if catch_mle:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                span.attrs["unconverged"] = sum(
                    str(w.message).startswith(MLE_UNCONVERGED_PREFIX) for w in caught
                )
            else:
                result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            try:
                counter(span.attrs, result)
            except (AttributeError, IndexError, TypeError):
                span.attrs["counter_error"] = True
        return result

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _resolve(module: str, attr: str):
    """(owner, name) of a target, or None when the program no longer has it."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if name in vars(owner) else None


@dataclass
class Installation:
    patched: list = field(default_factory=list)  # (owner, name, original)
    missing: list = field(default_factory=list)


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    inst = Installation()
    for module, attr, layer in targets:
        found = _resolve(module, attr)
        if found is None:
            inst.missing.append(f"{module}.{attr}")
            continue
        owner, name = found
        original = vars(owner)[name]
        setattr(owner, name, _wrap(tracer, original, _span_name(module, attr), layer))
        inst.patched.append((owner, name, original))
    return inst


def uninstall(inst: Installation):
    for owner, name, original in reversed(inst.patched):
        setattr(owner, name, original)
    inst.patched.clear()


def leftover_wrappers(targets=TARGETS) -> list[str]:
    """Targets that still hold a benchmark wrapper."""
    left = []
    for module, attr, _ in targets:
        found = _resolve(module, attr)
        if found and hasattr(vars(found[0])[found[1]], "__perfbench_wrapped__"):
            left.append(f"{module}.{attr}")
    return left


# self time and per-layer aggregation ---------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def iteration_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times of the spans of one iteration."""
    own = self_times(spans)
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list] = {}
    for s in spans:
        calls[s.layer] += 1
        busy[s.layer] += own[s.sid]
        by_name.setdefault(s.name, []).append(s)

    def total(name, key=None, where=None):
        sel = [s for s in by_name.get(name, ()) if where is None or where(s)]
        if key is None:
            return sum(own[s.sid] for s in sel)
        return sum(s.attrs.get(key, 0) for s in sel)

    integrate_s = total("protocols.integrate_me")
    grid = total("protocols.integrate_me", "grid_points")
    shots = sum(total(n, "shots") for n in SHOT_SAMPLERS)
    sample_s = sum(total(n) for n in SHOT_SAMPLERS)
    classify_s = total("readout.classify")
    return {
        "cli.self_s": busy["cli"],
        "protocols.calls": calls["protocols"],
        "protocols.self_s": busy["protocols"],
        "device.calls": calls["device"],
        "device.s": busy["device"],
        "pulse.calls": calls["pulse"],
        "pulse.s": busy["pulse"],
        "dynamics.integrate_calls": len(by_name.get("protocols.integrate_me", ())),
        "dynamics.integrate_s": integrate_s,
        "dynamics.grid_points": grid,
        "dynamics.us_per_grid_point": 1e6 * integrate_s / grid if grid else 0.0,
        "dynamics.trace_err_max": max(
            (s.attrs.get("trace_err", 0.0) for s in by_name.get("protocols.integrate_me", ())),
            default=0.0,
        ),
        "tomography.mle_calls": len(by_name.get("tomography.qst_mle", ())),
        "tomography.mle9_s": total("tomography.qst_mle", where=lambda s: s.attrs.get("dim") == 9),
        "tomography.mle3_s": total("tomography.qst_mle", where=lambda s: s.attrs.get("dim") == 3),
        "tomography.mle_unconverged": total("tomography.qst_mle", "unconverged"),
        "readout.shots": shots,
        "readout.sample_s": sample_s,
        "readout.classify_s": classify_s,
        "readout.mitigate_s": total("readout.mitigate"),
        "readout.s_per_1e5_shots": 1e5 * (sample_s + classify_s) / shots if shots else 0.0,
        "readout.mitigated_outside": total("readout.mitigate", "outside"),
        "readout.mitigated_total": total("readout.mitigate", "total"),
        "metrics.calls": calls["metrics"],
        "metrics.s": busy["metrics"],
        "qops.calls": calls["qops"],
        "qops.s": busy["qops"],
    }


def median_metrics(per_iteration: list[dict]) -> dict[str, float]:
    """Metric-wise median over iterations."""
    return {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
