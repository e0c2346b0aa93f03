"""Self-checks of the benchmark: counts, digest and oracle checks, metric names.

    python3 -m pytest bench -q

Corruptions are made on copies of outputs, never in the program's sources.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest

from workloads import DEFAULT_SEED, ROOT, WORKLOADS, configs_for, use_checkout_source

use_checkout_source()

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from thermoflow.experiments import resolve_config, run_experiment  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7
DOMINANT_LAYER = {
    "mc-small-n": "seeding",
    "mc-large-n": "collision",
    "qudit-staircase": "qudit",
    "cyclic-maps": "maps",
}


@pytest.fixture
def work_dir():
    run.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def expected_counts(workload: str) -> dict[str, int]:
    """Counts implied by the workload's inputs alone."""
    counts = dict.fromkeys(
        ("seeding.rng_for.calls", "collision.uniforms_drawn", "maps.evolve_unitary.calls", "maps.slice_exponentials"), 0
    )
    for _, config in configs_for(workload, SEED):
        resolved = resolve_config(config)
        p = resolved["parameters"]
        if resolved["experiment"] == "fig4-histograms":
            counts["seeding.rng_for.calls"] += p["runs"] * len(p["N_values"])
            counts["collision.uniforms_drawn"] += sum(p["runs"] * (2 * n + 1) for n in p["N_values"])
        if resolved["experiment"] == "breakdown-scaling" and p["evolution"] == "unitary":
            counts["maps.evolve_unitary.calls"] += sum(p["N_values"])
            counts["maps.slice_exponentials"] += sum(p["N_values"]) * p["substeps"]
    return counts


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_and_match_inputs(workload, work_dir):
    session = run.Session(workload, work_dir)
    profiles, walls = [], []
    for _ in range(2):
        tracer = Tracer()
        walls.append(session.run_pass(SEED, 1, tracer)[0])
        assert tracer.missing == []
        profiles.append(tracer.profile())
    assert session.failures == []

    assert (profiles[0]["calls"], profiles[0]["counters"]) == (profiles[1]["calls"], profiles[1]["counters"])

    metrics = run.per_layer_metrics(profiles, {"serial": walls, "parallel": walls, "traced": walls}, 1)

    for name, value in expected_counts(workload).items():
        assert metrics[name][0] == value, name
    assert profiles[0]["calls"]["experiments.run_experiment"] == len(WORKLOADS[workload])

    layers = {layer: metrics[f"{layer}.self_s"][0] for layer in DOMINANT_LAYER.values()}
    assert max(layers, key=layers.get) == DOMINANT_LAYER[workload]


def test_metric_names_and_units_match_benchmark_json(work_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)

    tracer = Tracer()
    session = run.Session("cyclic-maps", work_dir)
    wall, _ = session.run_pass(SEED, 1, tracer)
    metrics = run.per_layer_metrics([tracer.profile()], {"serial": [wall], "parallel": [wall], "traced": [wall]}, 1)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, (_, u) in metrics.items()]


def test_changed_byte_raises_outputs_changed(work_dir):
    pinned = checks.load_pinned()["workloads"]["cyclic-maps"]
    for label, config in configs_for("cyclic-maps", DEFAULT_SEED):
        run_experiment({**config, "workers": 1, "output_dir": str(work_dir / label)})
        assert checks.count_changed(checks.output_digests(work_dir / label), pinned[label]) == 0

    label = "zx-unitary"
    copy = work_dir / "copy"
    shutil.copytree(work_dir / label, copy)
    target = copy / "breakdown_scaling.csv"
    data = bytearray(target.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
    target.write_bytes(bytes(data))
    assert checks.count_changed(checks.output_digests(copy), pinned[label]) == 1


def _shift_column(csv_path: Path, column: str, shift) -> None:
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    rows[0][column] = repr(shift(rows[0]))
    csv_path.write_text("\n".join([lines[0]] + [",".join(r[h] for h in header) for r in rows]) + "\n")


@pytest.mark.parametrize(
    "column, shift",
    [
        ("mean", lambda r: float(r["mean_exact"]) + 6.0 * float(r["mean_stderr"])),
        ("sigma", lambda r: 1.25 * float(r["sigma"])),
    ],
)
def test_shifted_moment_fails_oracle(column, shift, work_dir):
    config = {"experiment": "fig4-histograms", "parameters": {"N_values": [12, 1000], "runs": 4000}}
    run_experiment({**config, "workers": 1, "output_dir": str(work_dir / "fig4")})
    assert checks.oracle_failures(config, work_dir / "fig4") == []

    copy = work_dir / "copy"
    shutil.copytree(work_dir / "fig4", copy)
    _shift_column(copy / "fig4_summary.csv", column, shift)
    failures = checks.oracle_failures(config, copy)
    assert len(failures) == 1 and column in failures[0]


def test_split_and_law_oracles_reject_shifted_values(work_dir):
    for label, config in configs_for("cyclic-maps", SEED)[:1] + configs_for("qudit-staircase", SEED)[:1]:
        run_experiment({**config, "workers": 1, "output_dir": str(work_dir / label)})
        assert checks.oracle_failures(config, work_dir / label) == []
    _shift_column(work_dir / "zx-unitary" / "breakdown_scaling.csv", "kappa", lambda r: float(r["kappa"]) + 1e-9)
    csv_path = work_dir / "qudit-d4" / "qudit_convergence.csv"
    lines = csv_path.read_text().splitlines()
    last = lines[-1].split(",")
    last[4] = repr(float(last[4]) * 1.01)
    csv_path.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
    for label, config in configs_for("cyclic-maps", SEED)[:1] + configs_for("qudit-staircase", SEED)[:1]:
        assert len(checks.oracle_failures(config, work_dir / label)) == 1, label


def test_raising_run_counts_as_failed(monkeypatch, work_dir):
    bad = [("bad", {"experiment": "fig3-loss", "parameters": {"N_grid": [10], "no_such_parameter": 1}})]
    monkeypatch.setattr(run, "configs_for", lambda workload, seed: bad)
    session = run.Session("qudit-staircase", work_dir)
    session.run_pass(SEED, 1)
    assert (session.attempted, session.failed) == (1, 1)
    assert "ConfigError" in session.failures[0]


def test_rescaler_divides_each_step_by_the_reference_around_it(monkeypatch):
    references = iter([0.1, 0.3, 0.05])
    monkeypatch.setattr(hostspeed, "reference_s", lambda: next(references))
    rescaler = hostspeed.Rescaler()
    assert rescaler.rescale(2.0) == pytest.approx(2.0 * hostspeed.NOMINAL_S / 0.2)
    assert rescaler.rescale(1.0) == pytest.approx(1.0 * hostspeed.NOMINAL_S / 0.175)
    assert rescaler.references == [0.1, 0.3, 0.05]
