"""Spans around calls into thermoflow's layers, recorded from outside the package.

The tracer rebinds module and class attributes to timing wrappers for the
duration of one pass, including every alias a module imported by name (for
example ``experiments.sample_work_values``), and restores them afterwards.
Spans (name, start, end, parent index) stay in memory until the pass ends.

Only in-process calls are seen, so traced passes run at ``workers=1``: spans
in pool children would be lost.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path) of every wrapped callable.  A span's name is the
# module's last component followed by the attribute path, and its layer is
# that module.  Hot scalar helpers (splitmix64, smoothstep, gibbs_populations,
# HamiltonianPath.hamiltonian) are left unwrapped: their time counts as self
# time of the calling layer.
TARGETS = (
    ("thermoflow.seeding", "rng_for"),
    ("thermoflow.collision", "sample_work_values"),
    ("thermoflow.collision", "work_moments"),
    ("thermoflow.collision", "default_bin_edges"),
    ("thermoflow.collision", "loss_epsilon"),
    ("thermoflow.collision", "epsilon_upper_bound"),
    ("thermoflow.qudit", "asymptotic_dissipation"),
    ("thermoflow.qudit", "run_qudit_protocol"),
    ("thermoflow.qudit", "gamma_coefficient"),
    ("thermoflow.qudit", "path_preset"),
    ("thermoflow.qudit", "HamiltonianPath.gibbs_matrix"),
    ("thermoflow.maps", "dissipation_breakdown"),
    ("thermoflow.maps", "evolve_unitary"),
    ("thermoflow.core", "DensityOperator.__post_init__"),
    ("thermoflow.core", "gibbs_state"),
    ("thermoflow.core", "free_energy"),
    ("thermoflow.core", "trace_distance"),
    ("thermoflow.tth", "minimize_g"),
    ("thermoflow.tth", "g_function"),
    ("thermoflow.experiments", "run_experiment"),
    ("thermoflow.experiments", "resolve_config"),
    ("thermoflow.experiments", "_execute_task"),
)

LAYERS = ("seeding", "collision", "qudit", "maps", "core", "tth", "experiments")

# Work counted from a call's arguments, at the boundary where it is done.
ARGUMENT_COUNTERS = {
    "collision.sample_work_values": (
        "collision.uniforms_drawn",
        lambda config, runs, *args, **kwargs: runs * (2 * config.schedule.N + 1),
    ),
    "maps.evolve_unitary": (
        "maps.slice_exponentials",
        lambda path, t_start, t_end, substeps: substeps,
    ),
}


class Tracer:
    """Collects spans and argument counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        counter = ARGUMENT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counters[counter[0]] += counter[1](*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target (and its by-name imports) for the duration of the block."""
        package = [m for n, m in list(sys.modules.items()) if n == "thermoflow" or n.startswith("thermoflow.")]
        undo = []
        try:
            for module_name, path in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapped = self._wrap(f"{module_name.rsplit('.', 1)[1]}.{path}", original)
                for holder in (package if not outer else [owner]):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def profile(self) -> dict:
        """Calls, total and self time by span name, plus time covered by root spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
            if parent < 0:
                root_s += end - start
        layer_self_s = {layer: 0.0 for layer in LAYERS}
        for name, value in self_s.items():
            layer_self_s[name.split(".", 1)[0]] += value
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "layer_self_s": layer_self_s,
            "root_s": root_s,
            "counters": dict(self.counters),
        }
