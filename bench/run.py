"""thermoflow benchmark: one workload, closed loop with one client.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` a run first times ``setup_probe.py`` in fresh
interpreters.  It then makes one pass at the pinned default seed with
``workers=nproc``, whose output digests are compared with ``digests.json``
and whose peak memory is sampled, and repeats passes at ``master_seed=<n>``
for ``--seconds``: alternately at ``workers=1`` and ``workers=nproc``, and
with ``--trace 1`` also a traced pass at ``workers=1`` (see ``tracer.py``).
Every pass's outputs go through the oracles in ``checks.py``.

The end-to-end times (``setup_s``, ``wall_s``, ``wall_par_s``) are rescaled
to a fixed host speed: a reference task is timed between consecutive timed
steps, and each step's time is scaled by the reference time around it (see
``hostspeed.py``).  The raw times are printed and recorded beside them.
Per-layer times are raw.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record, with quartiles, sample counts and versions,
is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import NOMINAL_S, Rescaler
from tracer import LAYERS, Tracer
from workloads import DEFAULT_SEED, OUT, ROOT, WORKLOADS, configs_for, use_checkout_source

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 11
RSS_INTERVAL_S = 0.005
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("wall_par_s", "s"), ("peak_rss_mb", "MB"))
# Raw times recorded beside the rescaled ones, and the reference times between them.
RAW_TIMES = ("setup_raw_s", "wall_raw_s", "wall_par_raw_s", "reference_s")
TRACE_LIMITATION = "traced passes run at workers=1 only: spans in pool children would be lost"

# (metric, span name, field of the profile) for the per-layer metrics read off spans.
SPAN_METRICS = (
    ("seeding.rng_for.calls", "seeding.rng_for", "calls"),
    ("seeding.rng_for.self_s", "seeding.rng_for", "self_s"),
    ("collision.sample_work_values.self_s", "collision.sample_work_values", "self_s"),
    ("collision.work_moments.calls", "collision.work_moments", "calls"),
    ("collision.work_moments.self_s", "collision.work_moments", "self_s"),
    ("collision.loss_epsilon.self_s", "collision.loss_epsilon", "self_s"),
    ("qudit.run_qudit_protocol.calls", "qudit.run_qudit_protocol", "calls"),
    ("qudit.run_qudit_protocol.self_s", "qudit.run_qudit_protocol", "self_s"),
    ("qudit.gamma_coefficient.calls", "qudit.gamma_coefficient", "calls"),
    ("qudit.gamma_coefficient.self_s", "qudit.gamma_coefficient", "self_s"),
    ("qudit.HamiltonianPath.gibbs_matrix.calls", "qudit.HamiltonianPath.gibbs_matrix", "calls"),
    ("maps.dissipation_breakdown.self_s", "maps.dissipation_breakdown", "self_s"),
    ("maps.evolve_unitary.calls", "maps.evolve_unitary", "calls"),
    ("maps.evolve_unitary.self_s", "maps.evolve_unitary", "self_s"),
    ("core.DensityOperator.validations", "core.DensityOperator.__post_init__", "calls"),
    ("core.gibbs_state.calls", "core.gibbs_state", "calls"),
    ("tth.minimize_g.self_s", "tth.minimize_g", "self_s"),
    ("tth.g_function.calls", "tth.g_function", "calls"),
    ("experiments.run_experiment.self_s", "experiments.run_experiment", "self_s"),
    ("experiments.tasks", "experiments._execute_task", "calls"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="thermoflow benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed, passed as master_seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    return args


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Rescaled and raw wall times of fresh interpreters that import the CLI and resolve the configs."""
    rescaler = Rescaler()
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            check=True,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - start)
        scaled.append(rescaler.rescale(raw[-1]))
    return scaled, raw


def _hwm_kib(pid: int) -> int:
    """Peak resident set size (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _descendants(pid: int) -> list[int]:
    found = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
            for child in map(int, fh.read().split()):
                found.append(child)
                found.extend(_descendants(child))
    return found


class PeakRss:
    """Peak RSS of this process plus the peaks of its descendants, in KiB.

    The kernel tracks each process's peak (VmHWM); a thread reads the
    children's peaks while they live, since they are gone once the pool closes.
    """

    def __init__(self):
        self.peak_kib = 0
        self._children: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        try:
            for child in _descendants(os.getpid()):
                self._children[child] = max(self._children.get(child, 0), _hwm_kib(child))
        except (FileNotFoundError, ProcessLookupError):
            pass  # a child exited mid-sample; its last reading stands

    def _run(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_kib = _hwm_kib(os.getpid()) + sum(self._children.values())


class Session:
    """Runs passes of one workload and tallies attempted and failed experiment runs."""

    def __init__(self, workload: str, work_dir: Path):
        from checks import oracle_failures
        from thermoflow import experiments

        self._oracle_failures = oracle_failures
        self._experiments = experiments  # run_experiment is looked up per call, so a tracer can rebind it
        self.workload = workload
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, seed: int, workers: int, tracer=None, rescaler=None) -> tuple[float, float]:
        """One pass over the workload's configs; returns its raw and rescaled wall times in seconds.

        Each config's run is timed on its own and, given a rescaler, rescaled
        by the reference times just before and after it; the rescaled time is
        the raw time without one.
        """
        configs = configs_for(self.workload, seed)
        errors = {}
        wall = scaled = 0.0
        with tracer.installed() if tracer is not None else nullcontext():
            for label, config in configs:
                raw = {**config, "workers": workers, "output_dir": str(self.work_dir / label)}
                start = time.perf_counter()
                try:
                    self._experiments.run_experiment(raw)
                except Exception as exc:  # any raise is a failed run, recorded and counted
                    errors[label] = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                wall += elapsed
                scaled += rescaler.rescale(elapsed) if rescaler is not None else elapsed
        for label, config in configs:
            self.attempted += 1
            problems = [errors[label]] if label in errors else self._oracle_failures(config, self.work_dir / label)
            if problems:
                self.failures.append(f"{label} seed={seed} workers={workers}: " + "; ".join(problems))
        return wall, scaled

    @property
    def failed(self) -> int:
        return len(self.failures)


def per_layer_metrics(profiles: list[dict], walls: dict, nproc: int) -> dict:
    """Per-layer metrics from the traced passes' profiles and the untraced walls."""
    median = statistics.median
    first = profiles[0]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median(p["layer_self_s"][layer] for p in profiles), "s")
    for metric, span, field in SPAN_METRICS:
        if field == "calls":
            metrics[metric] = (first["calls"].get(span, 0), "count")
        else:
            metrics[metric] = (median(p["self_s"].get(span, 0.0) for p in profiles), "s")
    uniforms = first["counters"].get("collision.uniforms_drawn", 0)
    metrics["collision.uniforms_drawn"] = (uniforms, "count")
    metrics["collision.bytes_drawn"] = (8 * uniforms, "B")
    metrics["maps.slice_exponentials"] = (first["counters"].get("maps.slice_exponentials", 0), "count")
    serial, parallel, traced = (median(walls[key]) for key in ("serial", "parallel", "traced"))
    metrics["experiments.parallel_efficiency"] = (serial / (nproc * parallel), "1")
    metrics["trace.overhead_s"] = (traced - serial, "s")
    metrics["trace.unattributed_share"] = (
        median((wall - p["root_s"]) / wall for p, wall in zip(profiles, walls["traced"])),
        "1",
    )
    return metrics


def measure(args, session: Session, nproc: int) -> tuple[dict, dict, list[Tracer], list[float]]:
    """Alternate passes until another round would overrun ``--seconds``.

    Returns the raw and the rescaled pass walls by kind, the tracers and the
    reference times.
    """
    walls = {"serial": [], "parallel": [], "traced": []}
    scaled = {"serial": [], "parallel": [], "traced": []}
    tracers = []
    rescaler = Rescaler()

    def timed(kind: str, workers: int, tracer=None) -> None:
        wall, rescaled = session.run_pass(args.seed, workers, tracer, rescaler)
        walls[kind].append(wall)
        scaled[kind].append(rescaled)

    deadline = time.perf_counter() + args.seconds
    while True:
        round_start = time.perf_counter()
        timed("serial", 1)
        timed("parallel", nproc)
        if args.trace:
            tracers.append(Tracer())
            timed("traced", 1, tracers[-1])
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            return walls, scaled, tracers, rescaler.references


def trace_report(record: dict, walls: dict, tracers: list[Tracer], nproc: int) -> dict:
    """Per-layer metrics; records shares and writes the last traced pass's spans."""
    profiles = [t.profile() for t in tracers]
    metrics = per_layer_metrics(profiles, walls, nproc)
    traced_wall = statistics.median(walls["traced"])
    counts = [(p["calls"], p["counters"]) for p in profiles]
    record.update(
        trace_limitation=TRACE_LIMITATION,
        traced_wall_s=summarize(walls["traced"]),
        missing_targets=tracers[-1].missing,
        counts_repeat=all(c == counts[0] for c in counts),
        layer_self_share={layer: metrics[f"{layer}.self_s"][0] / traced_wall for layer in LAYERS},
        per_layer={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    spans = {"limitation": TRACE_LIMITATION, "fields": ["name", "start", "end", "parent"], "spans": tracers[-1].spans}
    (OUT / f"spans-{record['workload']}.json").write_text(json.dumps(spans), encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {unit:<6} {value!r}")
    print("layer self-time share: " + " ".join(f"{k}={v:.3f}" for k, v in record["layer_self_share"].items()))
    print(f"# {TRACE_LIMITATION}; counts repeat across {len(profiles)} traced passes: {record['counts_repeat']}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_source()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy

    from checks import count_changed, load_pinned, output_digests

    nproc = len(os.sched_getaffinity(0))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "closed_loop_clients": 1,
    }
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        session = Session(args.workload, work_dir)
        if not args.trace:
            setup_scaled, setup_raw = measure_setup(args.workload, args.seed)
            record["setup_s"] = summarize(setup_scaled)
            record["setup_raw_s"] = summarize(setup_raw)
        pinned = load_pinned()
        with PeakRss() as rss:
            session.run_pass(DEFAULT_SEED, nproc)
        outputs_changed = sum(
            count_changed(output_digests(work_dir / label), pinned["workloads"][args.workload].get(label, {}))
            for label, _ in configs_for(args.workload, DEFAULT_SEED)
        )
        record["peak_rss_mb"] = summarize([rss.peak_kib / 1024.0])
        record["digests"] = {"seed": DEFAULT_SEED, "pinned_numpy": pinned["numpy"], "outputs_changed": outputs_changed}
        walls, scaled, tracers, references = measure(args, session, nproc)
        record["wall_s"] = summarize(scaled["serial"])
        record["wall_par_s"] = summarize(scaled["parallel"])
        record["wall_raw_s"] = summarize(walls["serial"])
        record["wall_par_raw_s"] = summarize(walls["parallel"])
        record["reference_s"] = summarize(references)
        record["nominal_reference_s"] = NOMINAL_S
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record.update(
        attempted=session.attempted,
        failed=session.failed,
        fail_ratio=session.failed / session.attempted,
        failures=session.failures,
    )

    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} nproc={nproc} "
        f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']}"
    )
    if args.trace:
        metrics = trace_report(record, walls, tracers, nproc)
    else:
        metrics = {}
        for name, unit in END_TO_END:
            s = record[name]
            metrics[name] = (s["median"], unit)
            print(f"{name:<16} {unit:<6} median={s['median']!r} q1={s['q1']!r} q3={s['q3']!r} n={s['n']}")
        for name in RAW_TIMES:
            s = record[name]
            print(f"{name:<16} {'s':<6} median={s['median']!r} q1={s['q1']!r} q3={s['q3']!r} n={s['n']} (raw)")
    print(f"{'fail_ratio':<16} {'1':<6} {record['fail_ratio']!r} ({session.failed}/{session.attempted} runs)")
    print(f"{'outputs_changed':<16} {'count':<6} {outputs_changed} (digests at seed {DEFAULT_SEED})")
    for failure in session.failures:
        print(f"FAILED {failure}")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    result = {
        "correct": session.failed == 0 and outputs_changed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
