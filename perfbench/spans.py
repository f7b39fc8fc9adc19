"""Spans around the benchmark's calls into the qcombs layers.

Tracing stays outside the package: a traced task receives a
``workloads.Layers`` bundle whose modules are proxies that time every
public function the benchmark calls on them.  Calls the package makes
internally (``pec`` calling ``combs.apply_comb``, say) are not seen.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median

import workloads

LAYERS = ("combs", "twirl", "pec", "vcp", "cli")

# Functions reported one by one as per-layer metrics.
FUNCTIONS = (
    "twirl.twirl_comb",
    "twirl.sampled_twirl",
    "twirl.extract_pauli_diag",
    "pec.pec_correct_exact",
    "pec.pec_sample",
    "pec.decompose_inverse",
    "combs.comb_from_env_model",
    "combs.validate_comb",
    "combs.apply_comb",
    "combs.simulate_env_model",
    "vcp.vcp_comb",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span; None for a task
    task: int


class Recorder:
    """Collects spans: one per task, and one per layer call inside it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._parent: int | None = None
        self._task = -1

    @contextmanager
    def task(self, task_id: int):
        index = len(self.spans)
        self.spans.append(None)  # placeholder, filled when the task ends
        self._parent, self._task = index, task_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = Span("task", start, time.perf_counter(), None, task_id)
            self._parent = None

    def call(self, name: str, fn, /, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(name, start, time.perf_counter(), self._parent, self._task))

    def layers(self) -> workloads.Layers:
        """A layer bundle whose calls are recorded here."""
        plain = workloads.Layers()

        def run_cli(name, argv, hash_seed=None):
            return self.call(f"cli.{name}", plain.run_cli, name, argv, hash_seed)

        return workloads.Layers(
            combs=_Traced(plain.combs, "combs", self),
            twirl=_Traced(plain.twirl, "twirl", self),
            pec=_Traced(plain.pec, "pec", self),
            vcp=_Traced(plain.vcp, "vcp", self),
            run_cli=run_cli,
        )

    def write(self, path, origin: float) -> None:
        """Write one JSON line per span, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - origin, "end": s.end - origin,
                    "parent": s.parent, "task": s.task,
                }) + "\n")


class _Traced:
    """Module proxy: public functions come back wrapped in a span."""

    def __init__(self, module, layer: str, recorder: Recorder):
        self._module, self._layer, self._recorder = module, layer, recorder

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            return value

        def traced(*args, **kwargs):
            return self._recorder.call(f"{self._layer}.{attr}", value, *args, **kwargs)

        return traced


def layer_metrics(spans: list[Span], traced_wall_s: float, cli_names) -> dict:
    """Per-function median, busy fraction and call count, plus layer totals.

    Busy fractions are over ``traced_wall_s``, the summed wall time of
    the traced tasks.  Only the benchmark's direct calls are spans, so
    they never nest and a span's self time is its duration.
    """
    by_name: dict[str, list[float]] = {}
    for s in spans:
        if s.parent is not None:
            by_name.setdefault(s.name, []).append(s.end - s.start)
    out = {}
    for name in FUNCTIONS:
        durs = by_name.get(name, [])
        out[f"{name}.ms"] = (median(durs) * 1e3 if durs else 0.0, "ms")
        out[f"{name}.busy_frac"] = (sum(durs) / traced_wall_s, "ratio")
        out[f"{name}.calls"] = (len(durs), "count")
    for name in cli_names:
        durs = by_name.get(f"cli.{name}", [])
        out[f"cli.{name}.ms"] = (median(durs) * 1e3 if durs else 0.0, "ms")
    for layer in LAYERS:
        busy = sum(sum(d) for n, d in by_name.items() if n.startswith(layer + "."))
        out[f"{layer}.busy_frac"] = (busy / traced_wall_s, "ratio")
    return out
