"""Fold the run records in ``.bench_out/`` into ``bench/baseline.json``.

    python3 bench/collect.py

For each workload and metric the baseline keeps the median, quartiles,
spread (IQR over median), count and list of the per-run values, the seeds
they came from, and the context the runs recorded.  End-to-end metrics, and
the raw times beside them, come from ``--trace 0`` records, per-layer
metrics from ``--trace 1`` records.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import END_TO_END, RAW_TIMES, summarize
from workloads import OUT

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"
CONTEXT = ("nproc", "python", "numpy", "scipy", "seconds")


def _spread(values: list) -> dict:
    summary = summarize(values)
    if summary["median"]:
        summary["iqr_over_median"] = (summary["q3"] - summary["q1"]) / summary["median"]
    return summary


def collect(records: list[dict]) -> dict:
    grouped = defaultdict(lambda: {"seeds": set(), "values": defaultdict(list), "context": {}})
    for record in records:
        entry = grouped[record["workload"]]
        entry["seeds"].add(record["seed"])
        entry["context"].update({key: record[key] for key in CONTEXT})
        entry["values"]["fail_ratio"].append(record["fail_ratio"])
        entry["values"]["outputs_changed"].append(record["digests"]["outputs_changed"])
        if record["trace"]:
            for name, metric in record["per_layer"].items():
                entry["values"][name].append(metric["value"])
        else:
            for name in [name for name, _ in END_TO_END] + list(RAW_TIMES):
                entry["values"][name].append(record[name]["median"])
    return {
        workload: {
            "context": entry["context"],
            "seeds": sorted(entry["seeds"]),
            "metrics": {name: _spread(values) for name, values in entry["values"].items()},
        }
        for workload, entry in sorted(grouped.items())
    }


if __name__ == "__main__":
    records = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(OUT.glob("*-seed*-trace*.json"))]
    if not records:
        sys.exit(f"no run records under {OUT}")
    BASELINE_PATH.write_text(json.dumps(collect(records), indent=2, sort_keys=True) + "\n", encoding="utf-8")
