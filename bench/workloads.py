"""Benchmark workloads: thermoflow configs generated from the workload seed.

Each workload is a list of labelled experiment configs that one pass runs
through ``thermoflow.experiments.run_experiment``.  The seed is passed as the
configs' ``master_seed``; the two deterministic workloads do not draw random
numbers, so for them the seed changes nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Pass outputs, run records and spans; ignored by git.
OUT = ROOT / ".bench_out"

# thermoflow's DEFAULT_MASTER_SEED: output digests are pinned at this seed.
DEFAULT_SEED = 20260809

# Passes are sized to about 0.5-1.3 s at workers=1 on a 2-core machine, so a
# run holds tens of passes and its median is steady on a noisy shared host.
WORKLOADS = {
    # Short trials: per-trial seeding (seeding.rng_for) dominates, and every N
    # has an exact oracle in collision.enumerate_work_paths.
    "mc-small-n": (
        ("fig4", {"experiment": "fig4-histograms", "parameters": {"N_values": [12, 16, 20], "runs": 8000}}),
    ),
    # Long trials: the sampler's scan (collision.sample_work_values) dominates
    # and seeding is a minor share, so a seeding gain must shrink here.  The
    # work kurtosis is about 20 at N = 2000, so 6000 runs keep the program's
    # own 10% sigma gate more than 4 standard errors away.
    "mc-large-n": (
        ("fig4", {"experiment": "fig4-histograms", "parameters": {"N_values": [2000], "runs": 6000}}),
    ),
    # Deterministic staircases (qudit.run_qudit_protocol, gamma_coefficient)
    # plus the deterministic collision loss and tth presets; no RNG at all.
    "qudit-staircase": (
        ("qudit-d4", {
            "experiment": "qudit-convergence",
            "parameters": {"preset": "random-diagonal-d4", "N_values": [250, 500, 1000]},
        }),
        ("qudit-gap", {
            "experiment": "qudit-convergence",
            "parameters": {"preset": "qubit-gap-ramp", "N_values": [250, 500, 1000]},
        }),
        ("fig3", {"experiment": "fig3-loss", "parameters": {}}),
        ("tth", {"experiment": "fig5-fig6-tth", "parameters": {}}),
    ),
    # The same contact recursion as the qudit staircase, but through
    # maps._execute (unitary propagation and the dissipation split).  Kept
    # apart from qudit-staircase so a gain on one cannot hide a loss on the other.
    "cyclic-maps": (
        ("zx-unitary", {
            "experiment": "breakdown-scaling",
            "parameters": {"preset": "qubit-cyclic-zx", "N_values": [16, 32, 64, 128]},
        }),
        ("gap-pinch-quench", {
            "experiment": "breakdown-scaling",
            "parameters": {
                "preset": "qubit-cyclic-gap",
                "channel": "pinch",
                "evolution": "quench",
                "N_values": [64, 128, 256, 512],
            },
        }),
    ),
}


def use_checkout_source() -> None:
    """Import thermoflow from this checkout's ``src`` ahead of any installed copy."""
    if not (SRC / "thermoflow" / "__init__.py").is_file():
        raise FileNotFoundError(f"no thermoflow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def configs_for(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's (label, raw config) pairs with ``master_seed`` set to `seed`."""
    return [
        (label, {"experiment": cfg["experiment"], "parameters": dict(cfg["parameters"]), "master_seed": seed})
        for label, cfg in WORKLOADS[workload]
    ]
