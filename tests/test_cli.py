import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermoflow
from thermoflow.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from thermoflow.experiments import (
    ConfigError,
    DEFAULT_MASTER_SEED,
    NumericError,
    _group_name,
    canonical_config_hash,
    resolve_config,
    run_experiment,
    sweep,
)
from thermoflow.seeding import derive_seed, rng_for, splitmix64


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------

def test_splitmix64_known_values():
    # reference outputs of the standard SplitMix64 sequence from seed 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


def test_derive_seed_separates_tags_and_indices():
    seeds = {
        derive_seed(1, "a", 0),
        derive_seed(1, "a", 1),
        derive_seed(1, "b", 0),
        derive_seed(2, "a", 0),
    }
    assert len(seeds) == 4
    assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
    assert all(0 <= s < 2**64 for s in seeds)


def test_rng_for_reproduces_streams():
    a = rng_for(7, "x", 3).random(5)
    b = rng_for(7, "x", 3).random(5)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

def test_resolve_applies_documented_defaults():
    cfg = resolve_config({"experiment": "fig3-loss"})
    assert cfg["master_seed"] == DEFAULT_MASTER_SEED
    assert cfg["workers"] == 1
    assert cfg["parameters"]["alpha"] == 0.5
    assert abs(cfg["parameters"]["temperature"] - 1.0 / math.log(2.0)) < 1e-15


@pytest.mark.parametrize(
    "raw",
    [
        {"experiment": "fig3-loss", "bogus": 1},
        {"experiment": "no-such-experiment"},
        {"experiment": "fig3-loss", "parameters": {"alpa": 0.5}},
        {"experiment": "fig3-loss", "parameters": {"alpha": "half"}},
        {"experiment": "fig4-histograms", "parameters": {"runs": 10.5}},
        {"experiment": "fig3-loss", "master_seed": -1},
        {"experiment": "fig3-loss", "master_seed": True},
        {"experiment": "fig3-loss", "workers": 0},
        {"experiment": "custom"},
        {"experiment": "custom", "parameters": {"op": "no-such-op"}},
        {"experiment": "fig3-loss", "sweep": {"axis": "nope", "values": [1]}},
        {"experiment": "fig3-loss", "sweep": {"axis": "alpha"}},
        {"experiment": "fig4-histograms", "parameters": {"N_values": ["x"]}},
        {"experiment": "fig4-histograms", "parameters": {"runs": 0}},
        {"experiment": "fig4-histograms", "parameters": {"runs": 1}},
        {"experiment": "fig5-fig6-tth", "parameters": {"total_time": 0}},
        {"experiment": "fig5-fig6-tth", "parameters": {"total_time": -1}},
        {"experiment": "qudit-convergence", "parameters": {"N_values": []}},
        {"experiment": "fig3-loss", "parameters": {"N_grid": []}},
        {"experiment": "fig4-histograms", "parameters": {"N_values": []}},
        {"experiment": "breakdown-scaling", "parameters": {"N_values": []}},
        {"experiment": "fig3-loss", "parameters": {"N_grid": [5.5]}},
        {"experiment": "fig4-histograms", "parameters": {"N_values": [100.7]}},
        {"experiment": "breakdown-scaling", "parameters": {"N_values": [True]}},
        {"experiment": "fig4-histograms", "parameters": {"bins": 0}},
        {"experiment": "fig4-histograms", "parameters": {"bins": -1}},
        {"experiment": "fig5-fig6-tth", "parameters": {"t_points": 0}},
        {"experiment": "fig4-histograms", "parameters": {"N_values": [12, 12]}},
        {"experiment": "fig5-fig6-tth", "parameters": {"Gamma": math.nan}},
        {"experiment": "fig5-fig6-tth", "parameters": {"total_time": math.inf}},
        {"experiment": "fig3-loss", "parameters": {"temperature": math.inf}},
        {"experiment": "fig3-loss", "parameters": {"alpha": 1.0}},
        {"experiment": "qudit-convergence", "parameters": {"H0": [[0.0, 0.0], [0.0, 1.0]]}},
        {"experiment": "qudit-convergence", "parameters": {"H0": [[0.0, 1.0], [0.0]], "H1": [[1.0, 0.0], [0.0, 0.0]]}},
        {"experiment": "qudit-convergence", "parameters": {"H0": [[0.0, 1.0], [0.0, 0.0]], "H1": [[1.0, 0.0], [0.0, 0.0]]}},
        {"experiment": "qudit-convergence", "parameters": {"H0": [[1.0]], "H1": [[1.0, 0.0], [0.0, 0.0]]}},
        {"experiment": "breakdown-scaling", "parameters": {"preset": "no-such-loop"}},
        {"experiment": "fig3-loss", "sweep": {"axis": "N_grid", "values": [[10, 100], []]}},
        {"experiment": "qudit-convergence", "parameters": {"H0": [[1.0]], "H1": [[2.0]]}},
        {"experiment": "fig5-fig6-tth", "parameters": {"Gamma": 10**400}},
        {"experiment": "fig3-loss", "sweep": {"axis": ["alpha"], "values": [0.5]}},
    ],
)
def test_resolve_rejects_invalid_configs(raw):
    with pytest.raises(ConfigError):
        resolve_config(raw)


def test_canonical_hash_is_key_order_invariant():
    a = canonical_config_hash({"x": 1, "y": [1, 2]})
    b = canonical_config_hash({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 64


# ---------------------------------------------------------------------------
# Experiment runs
# ---------------------------------------------------------------------------

def fig3_config(out, grid=(10, 100, 1000)):
    return {
        "experiment": "fig3-loss",
        "parameters": {"N_grid": list(grid)},
        "output_dir": str(out),
    }


def test_fig3_run_writes_outputs_and_manifest(tmp_path):
    manifest = run_experiment(fig3_config(tmp_path / "o"))
    csv_path = tmp_path / "o" / "fig3_loss.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "N,epsilon_exact,epsilon_bound"
    assert len(lines) == 4
    for line in lines[1:]:
        n, eps, bound = line.split(",")
        assert float(eps) < float(bound)
        # floats round-trip exactly at 17 significant digits
        assert float(eps) == float(format(float(eps), ".17g"))
    # manifest digests match the files on disk
    data = json.loads((tmp_path / "o" / "manifest.json").read_text())
    for entry in data["outputs"]:
        blob = (tmp_path / "o" / entry["filename"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert blob.endswith(b"\n") and b"\r" not in blob


def test_fig4_worker_count_independence(tmp_path):
    base = {
        "experiment": "fig4-histograms",
        "parameters": {"N_values": [50], "runs": 1200},
    }
    hashes = {}
    for workers in (1, 4):
        cfg = dict(base, workers=workers, output_dir=str(tmp_path / f"w{workers}"))
        manifest = run_experiment(cfg)
        hashes[workers] = {name: digest for name, _, digest in manifest.outputs}
    assert hashes[1] == hashes[4]


def test_fig4_summary_contents(tmp_path):
    cfg = {
        "experiment": "fig4-histograms",
        "parameters": {"N_values": [50], "runs": 1500},
        "output_dir": str(tmp_path / "o"),
    }
    run_experiment(cfg)
    lines = (tmp_path / "o" / "fig4_summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert int(row["runs"]) == 1500
    assert abs(float(row["mean"]) - float(row["mean_exact"])) <= 4.0 * float(row["mean_stderr"])
    hist = (tmp_path / "o" / "fig4_hist_N50.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count"
    counts = sum(int(line.split(",")[2]) for line in hist[1:])
    assert counts <= 1500


def test_fig4_single_step_passes_sigma_gate(tmp_path):
    # a single step's work is deterministic: the sigma gate must accept sigma_exact = 0
    cfg = {
        "experiment": "fig4-histograms",
        "parameters": {"N_values": [1], "runs": 40},
        "output_dir": str(tmp_path / "o"),
    }
    run_experiment(cfg)
    row = (tmp_path / "o" / "fig4_summary.csv").read_text().splitlines()[1].split(",")
    assert float(row[5]) == 0.0


@pytest.mark.parametrize("temperature", [1e-300, 1e200])
def test_fig4_runs_at_extreme_temperatures(tmp_path, temperature):
    # at T = 1e-300 the work variance (order T^2) underflowed to 0 and the mean
    # gate failed on plain sampling noise; at T = 1e200 the sum of squares
    # overflowed.  fig4 now runs near T = 1, so its reports at T are exactly
    # 2^e times those at T / 2^e.
    e = round(math.log2(temperature))
    params = {"N_values": [10], "runs": 4000}
    for label, T in (("T", temperature), ("unit", math.ldexp(temperature, -e))):
        cfg = {"experiment": "fig4-histograms", "parameters": dict(params, temperature=T)}
        run_experiment(dict(cfg, output_dir=str(tmp_path / label)))

    def table(label, name):
        return np.loadtxt(tmp_path / label / name, delimiter=",", skiprows=1, ndmin=2)

    at_t, unit = table("T", "fig4_summary.csv"), table("unit", "fig4_summary.csv")
    assert at_t[0, 5] > 0.0  # sigma_exact no longer underflows
    assert np.array_equal(at_t[:, :2], unit[:, :2])
    assert np.array_equal(at_t[:, 2:], np.ldexp(unit[:, 2:], e))
    hist_t, hist_unit = table("T", "fig4_hist_N10.csv"), table("unit", "fig4_hist_N10.csv")
    assert np.array_equal(hist_t[:, :2], np.ldexp(hist_unit[:, :2], e))
    assert np.array_equal(hist_t[:, 2], hist_unit[:, 2])


def test_custom_op_emits_ledger_json(tmp_path):
    cfg = {
        "experiment": "custom",
        "parameters": {"op": "work-moments", "N": 40},
        "output_dir": str(tmp_path / "o"),
    }
    run_experiment(cfg)
    ledger = json.loads((tmp_path / "o" / "custom_ledger.json").read_text())
    assert set(ledger) >= {"cumulative_work", "mean", "variance", "per_step_work"}
    assert len(ledger["per_step_work"]) == 40
    assert ledger["variance"] >= 0.0


@pytest.mark.parametrize(
    "settings,expected",
    [
        (["op=work-moments", "N=40", "temperature=1e200"], EXIT_NUMERIC),  # variance ~1e400
        (["op=work-moments", "temperature=1e-310"], EXIT_OK),
        (["op=loss", "temperature=1e308"], EXIT_OK),
        (["op=average-work", "temperature=1e308"], EXIT_OK),
    ],
    ids=["work-moments-1e200", "work-moments-1e-310", "loss-1e308", "average-work-1e308"],
)
def test_cli_custom_runs_at_extreme_temperatures(settings, expected, tmp_path, capsys):
    # custom runs at T / 2^e like fig4; these inputs used to exit 2 with a numeric failure as a config error
    argv = ["--experiment", "custom", "--out", str(tmp_path / "o")]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == expected
    err = capsys.readouterr().err
    if expected == EXIT_NUMERIC:
        assert "result beyond the float range" in err
    else:
        value = float((tmp_path / "o" / "custom.csv").read_text().splitlines()[1].split(",")[1])
        assert math.isfinite(value) and value != 0.0


def test_json_format_renders_tables_as_json(tmp_path):
    cfg = fig3_config(tmp_path / "o")
    run_experiment(cfg, output_format="json")
    rows = json.loads((tmp_path / "o" / "fig3_loss.json").read_text())
    assert len(rows) == 3 and {"N", "epsilon_exact", "epsilon_bound"} == set(rows[0])


def test_qudit_convergence_accepts_endpoint_matrices(tmp_path):
    cfg = {
        "experiment": "qudit-convergence",
        "parameters": {
            "H0": [[0.0, 0.0], [0.0, 1.6]],
            "H1": [[0.0, [0.0, 0.0]], [[0.0, -0.0], 0.3]],  # [re, im] entries allowed
            "N_values": [500, 1000],
        },
        "output_dir": str(tmp_path / "o"),
    }
    run_experiment(cfg)
    lines = (tmp_path / "o" / "qudit_convergence.csv").read_text().splitlines()
    assert lines[0] == "N,alpha,W_exact,W_dis_exact,W_dis_predicted"
    assert len(lines) == 3
    with pytest.raises(ConfigError):
        bad = dict(cfg, parameters={"H0": [[0.0]]}, output_dir=str(tmp_path / "o2"))
        run_experiment(bad)


def test_numeric_gate_failure_raises(tmp_path):
    # a duplicated grid point breaks the strict-decrease gate deterministically
    cfg = fig3_config(tmp_path / "o", grid=(100, 100))
    with pytest.raises(NumericError):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_single_value_is_byte_identical(tmp_path):
    plain = run_experiment(fig3_config(tmp_path / "plain"))
    swept = sweep(fig3_config(tmp_path / "swept"), "alpha", [0.5])
    plain_bytes = (tmp_path / "plain" / "fig3_loss.csv").read_bytes()
    swept_bytes = (tmp_path / "swept" / "sweep-alpha" / "alpha=0.5" / "fig3_loss.csv").read_bytes()
    assert plain_bytes == swept_bytes
    assert [name for name, _, _ in swept.outputs] == ["sweep-alpha/alpha=0.5/fig3_loss.csv"]


def test_sweep_produces_row_group_per_value(tmp_path):
    manifest = sweep(fig3_config(tmp_path / "s"), "alpha", [0.0, 0.25, 0.5, 0.75])
    groups = {name.split("/")[1] for name, _, _ in manifest.outputs}
    assert groups == {"alpha=0.0", "alpha=0.25", "alpha=0.5", "alpha=0.75"}
    for value in (0.25, 0.75):
        table = (tmp_path / "s" / "sweep-alpha" / f"alpha={value}" / "fig3_loss.csv").read_text()
        assert table.startswith("N,epsilon_exact")


def test_sweep_axis_must_exist(tmp_path):
    with pytest.raises(ConfigError):
        sweep(fig3_config(tmp_path / "s"), "definitely-not-a-knob", [1])


def test_sweep_over_qudit_ladder(tmp_path):
    cfg = {
        "experiment": "qudit-convergence",
        "parameters": {"N_values": [250]},
        "output_dir": str(tmp_path / "s"),
    }
    manifest = sweep(cfg, "N_values", [[250], [500]])
    names = {name for name, _, _ in manifest.outputs}
    assert names == {
        "sweep-N_values/N_values=250-997829838baf/qudit_convergence.csv",
        "sweep-N_values/N_values=500-82678b87fb5a/qudit_convergence.csv",
    }


def test_sweep_group_names_are_safe_and_distinct():
    matrices = [
        [[0.0, 0.0], [0.0, 1.6]],
        [[0.0, [0.1, 0.2]], [[0.1, -0.2], 0.3]],
        [[0.0, [0.1, -0.2]], [[0.1, 0.2], 0.3]],
        [[float(i) for i in range(40)] for _ in range(40)],
    ]
    values = [[250], [250, 500], [[250]], [2, 50], [25, 0]] + matrices
    names = [_group_name("H1", v) for v in values]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"H1=[0-9A-Za-z_.+-]+", name) and len(name) <= 80
    assert _group_name("alpha", 0.25) == "alpha=0.25"


def test_sweep_key_inside_config_delegates(tmp_path):
    cfg = fig3_config(tmp_path / "s")
    cfg["sweep"] = {"axis": "alpha", "values": [0.25, 0.5]}
    manifest = run_experiment(cfg)
    groups = {name.split("/")[1] for name, _, _ in manifest.outputs}
    assert groups == {"alpha=0.25", "alpha=0.5"}


# ---------------------------------------------------------------------------
# Command-line entry point
# ---------------------------------------------------------------------------

def test_cli_happy_path(tmp_path, capsys):
    code = main(
        [
            "--experiment",
            "fig3-loss",
            "--set",
            "N_grid=[10,100]",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "fig3_loss.csv" in out and "config hash:" in out


def test_cli_config_file_plus_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "fig3-loss", "parameters": {"N_grid": [10, 50]}}))
    code = main(["--config", str(cfg_path), "--set", "alpha=0.25", "--out", str(tmp_path / "o"), "--seed", "42"])
    assert code == EXIT_OK
    assert (tmp_path / "o" / "fig3_loss.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--experiment", "custom"],  # missing required op
        ["--experiment", "fig3-loss", "--set", "alpa=1"],  # misspelled key
        ["--config", "/nonexistent/path.json"],
        [],  # no experiment at all
        ["--experiment", "fig4-histograms", "--set", 'N_values=["x"]'],  # a list holding a string
    ],
)
def test_cli_config_errors_exit_2(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_numeric_failure_exits_3(tmp_path, capsys):
    code = main(
        ["--experiment", "fig3-loss", "--set", "N_grid=[100,100]", "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_cli_non_finite_gate_value_exits_3(tmp_path, capsys):
    # at T = 1e300 the exact dissipation rounds to 0, so the relative error of
    # the 1/N law is NaN (it used to end in a ZeroDivisionError), and NaN must fail its gate
    for alpha in ("0", "0.5"):
        code = main(
            [
                "--experiment", "qudit-convergence", "--set", "N_values=[10]", "--set", "temperature=1e300",
                "--set", f"alpha={alpha}", "--out", str(tmp_path / alpha),
            ]
        )
        assert code == EXIT_NUMERIC
        assert "nan% relative error" in capsys.readouterr().err


def test_cli_tth_wide_search_window_terminates(tmp_path):
    # g = 1e-9 puts the golden-section window near pi/g, where the ulp of t exceeds the 1e-9 tolerance
    src = str(Path(thermoflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["--experiment", "fig5-fig6-tth", "--set", "g=1e-9", "--out", str(tmp_path / "o")]
    done = subprocess.run([sys.executable, "-m", "thermoflow.cli", *argv], env=env, capture_output=True, timeout=15)
    assert done.returncode == EXIT_OK, done.stderr.decode()
    assert (tmp_path / "o" / "tth_optimum.json").exists()


@pytest.mark.parametrize(
    "experiment,expected",
    [
        ("fig3-loss", ["fig3_loss.csv"]),
        ("fig4-histograms", ["fig4_summary.csv", "fig4_hist_N100.csv", "fig4_hist_N1000.csv"]),
        ("qudit-convergence", ["qudit_convergence.csv"]),
        ("breakdown-scaling", ["breakdown_scaling.csv"]),
        ("fig5-fig6-tth", ["tth_cosine.csv", "tth_exponential.csv", "tth_optimum.json"]),
    ],
)
def test_default_presets_run_clean(experiment, expected, tmp_path):
    # every preset at its documented defaults completes with its gates green
    cfg = {"experiment": experiment, "output_dir": str(tmp_path / "o")}
    run_experiment(cfg)
    for name in expected:
        assert (tmp_path / "o" / name).exists()


def test_cli_workers_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("THERMOFLOW_WORKERS", "2")
    code = main(["--experiment", "fig3-loss", "--set", "N_grid=[10,100]", "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    monkeypatch.setenv("THERMOFLOW_WORKERS", "zebra")
    assert main(["--experiment", "fig3-loss", "--out", str(tmp_path / "o")]) == EXIT_CONFIG


# small base parameters for every experiment, so one CLI run takes milliseconds
SMALL_BASES = {
    "fig3-loss": {"N_grid": [10, 100]},
    "fig4-histograms": {"N_values": [12], "runs": 40, "bins": 10},
    "qudit-convergence": {"N_values": [20]},
    "breakdown-scaling": {"N_values": [4], "substeps": 2},
    "fig5-fig6-tth": {"t_points": 8},
    "custom": {"op": "loss", "N": 20},
}
PARAMETER_NAMES = {
    "fig3-loss": ["alpha", "temperature", "N_grid"],
    "fig4-histograms": ["N_values", "runs", "alpha", "temperature", "bins"],
    "qudit-convergence": ["preset", "alpha", "temperature", "N_values", "H0", "H1"],
    "breakdown-scaling": ["preset", "alpha", "temperature", "N_values", "channel", "evolution", "substeps"],
    "fig5-fig6-tth": ["g", "tau_th", "t_points", "Gamma", "total_time"],
    "custom": ["op", "N", "alpha", "temperature"],
}
# wrong types, JSON constants, empty and non-finite values, a list holding a
# string, duplicates; small magnitudes only (a huge run count is valid work)
HOSTILE_VALUES = st.one_of(
    st.sampled_from(["x", True, None, [], {}, 0, -1, 0.5, 1, math.nan, math.inf, -math.inf, ["x"], [8, 8]]),
    st.integers(-2, 3),
    st.lists(st.integers(-1, 16), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), value=HOSTILE_VALUES)
def test_cli_never_ends_in_a_traceback(data, value):
    experiment = data.draw(st.sampled_from(sorted(SMALL_BASES)))
    name = data.draw(st.sampled_from(PARAMETER_NAMES[experiment]))
    params = dict(SMALL_BASES[experiment], **{name: value})
    with tempfile.TemporaryDirectory() as out:
        argv = ["--experiment", experiment, "--out", out]
        for key, item in params.items():
            argv += ["--set", f"{key}={json.dumps(item)}"]
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
