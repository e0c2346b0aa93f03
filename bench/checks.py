"""Output checks for benchmark passes: pinned digests and independent oracles.

Both read only the files a pass wrote.  Digests are compared at the pinned
default seed; the oracles hold at any seed, each with its own threshold.

Run as a script to re-pin the digests after a declared output change:

    python3 bench/checks.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, OUT, WORKLOADS, configs_for, use_checkout_source

use_checkout_source()

from thermoflow.collision import (  # noqa: E402
    ENUMERATION_CAP,
    FixedAlpha,
    QubitProtocolConfig,
    enumerate_work_paths,
    work_moments,
)
from thermoflow.core import Temperature  # noqa: E402
from thermoflow.experiments import resolve_config, run_experiment  # noqa: E402

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# The manifest records the config, including output_dir and workers, so its
# bytes depend on where and how a pass ran; the data files it lists do not.
UNHASHED = {"manifest.json"}

# Standard errors a sampled fig4 moment may stray from its exact value.
MOMENT_SE_LIMIT = 5.0
# Upper bound on the work kurtosis where it is not enumerated (N > 20).
# Sampled kurtosis was 18 at N = 1000 and 31 at N = 2000 (8e4 trials each).
KURTOSIS_BOUND = 60.0
# Relative gap allowed between W_dis_exact and the 1/N law at the largest N.
# Observed at N = 1000: 9e-5 (random-diagonal-d4) and 2.8e-4 (qubit-gap-ramp).
DISSIPATION_LAW_TOL = 1e-3
# Absolute closure of the cyclic split recomputed from 17-digit CSV values.
SPLIT_TOL = 1e-12


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every data file a run wrote, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file() and path.name not in UNHASHED
    }


def count_changed(actual: dict[str, str], pinned: dict[str, str]) -> int:
    """Files whose digest differs from the pinned one, including missing and extra files."""
    return sum(actual.get(name) != pinned.get(name) for name in set(actual) | set(pinned))


def load_pinned() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _read_rows(path: Path) -> list[dict[str, float]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


@lru_cache(maxsize=None)
def _work_reference(N: int, alpha: float, T: float) -> tuple[float, float, float]:
    """Exact (mean, sigma, kurtosis) of the canonical erasure work."""
    cfg = QubitProtocolConfig.canonical_erasure(N, Temperature(T), FixedAlpha(alpha))
    if N <= ENUMERATION_CAP:
        dist = enumerate_work_paths(cfg)
        centred = dist.values - dist.mean
        fourth = float(np.dot(centred**4, dist.probabilities))
        return dist.mean, math.sqrt(dist.variance), fourth / dist.variance**2
    moments = work_moments(cfg)
    return moments.mean, math.sqrt(moments.variance), KURTOSIS_BOUND


def _check_fig4(params: dict, out_dir: Path) -> list[str]:
    failures = []
    for row in _read_rows(out_dir / "fig4_summary.csv"):
        N, runs = int(row["N"]), int(row["runs"])
        mean, sigma, kurtosis = _work_reference(N, params["alpha"], params["temperature"])
        mean_se = sigma / math.sqrt(runs)
        if abs(row["mean"] - mean) > MOMENT_SE_LIMIT * mean_se:
            failures.append(f"fig4 N={N}: mean {row['mean']!r} vs exact {mean!r} (> {MOMENT_SE_LIMIT} s.e.)")
        sigma_rel_se = math.sqrt((kurtosis - 1.0) / (4.0 * runs))
        if abs(row["sigma"] / sigma - 1.0) > MOMENT_SE_LIMIT * sigma_rel_se:
            failures.append(f"fig4 N={N}: sigma {row['sigma']!r} vs exact {sigma!r} (> {MOMENT_SE_LIMIT} s.e.)")
        binned = sum(r["count"] for r in _read_rows(out_dir / f"fig4_hist_N{N}.csv"))
        if binned > runs:
            failures.append(f"fig4 N={N}: histogram holds {binned} of {runs} trials")
    return failures


def _check_qudit(params: dict, out_dir: Path) -> list[str]:
    rows = _read_rows(out_dir / "qudit_convergence.csv")
    failures = [f"qudit N={int(r['N'])}: W_dis_exact {r['W_dis_exact']!r} <= 0" for r in rows if r["W_dis_exact"] <= 0]
    last = max(rows, key=lambda r: r["N"])
    gap = abs(last["W_dis_exact"] - last["W_dis_predicted"]) / abs(last["W_dis_exact"])
    if gap > DISSIPATION_LAW_TOL:
        failures.append(f"qudit N={int(last['N'])}: 1/N law off by {gap:.3e} > {DISSIPATION_LAW_TOL}")
    return failures


def _check_breakdown(params: dict, out_dir: Path) -> list[str]:
    failures = []
    for r in _read_rows(out_dir / "breakdown_scaling.csv"):
        residual = abs(r["gamma"] + r["epsilon"] + r["kappa"] - r["total"])
        if residual > SPLIT_TOL:
            failures.append(f"breakdown N={int(r['N'])}: split residual {residual:.3e} > {SPLIT_TOL}")
        if not r["total"] > 0:
            failures.append(f"breakdown N={int(r['N'])}: dissipated work {r['total']!r} not positive")
    return failures


def _check_fig3(params: dict, out_dir: Path) -> list[str]:
    return [
        f"fig3 N={int(r['N'])}: loss {r['epsilon_exact']!r} outside (0, {r['epsilon_bound']!r})"
        for r in _read_rows(out_dir / "fig3_loss.csv")
        if not 0 < r["epsilon_exact"] < r["epsilon_bound"]
    ]


def _check_tth(params: dict, out_dir: Path) -> list[str]:
    optimum = json.loads((out_dir / "tth_optimum.json").read_text(encoding="utf-8"))["cosine"]
    grid_min = min(r["G"] for r in _read_rows(out_dir / "tth_cosine.csv"))
    if not 0 < optimum["G_opt"] <= grid_min:
        return [f"tth: cosine optimum G {optimum['G_opt']!r} above the tabulated minimum {grid_min!r}"]
    return []


ORACLES = {
    "fig4-histograms": _check_fig4,
    "qudit-convergence": _check_qudit,
    "breakdown-scaling": _check_breakdown,
    "fig3-loss": _check_fig3,
    "fig5-fig6-tth": _check_tth,
}


def oracle_failures(config: dict, out_dir: Path) -> list[str]:
    """Oracle violations found in the outputs of one run of `config`."""
    resolved = resolve_config(config)
    try:
        return ORACLES[resolved["experiment"]](resolved["parameters"], out_dir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{resolved['experiment']}: unreadable outputs ({type(exc).__name__}: {exc})"]


def pin_digests() -> dict:
    """Run every workload at the default seed and return its output digests."""
    import numpy

    pinned = {"seed": DEFAULT_SEED, "numpy": numpy.__version__, "workloads": {}}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in WORKLOADS:
            digests = {}
            for label, cfg in configs_for(workload, DEFAULT_SEED):
                out_dir = Path(tmp) / workload / label
                run_experiment({**cfg, "workers": 1, "output_dir": str(out_dir)})
                digests[label] = output_digests(out_dir)
            pinned["workloads"][workload] = digests
    return pinned


if __name__ == "__main__":
    DIGESTS_PATH.write_text(json.dumps(pin_digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
