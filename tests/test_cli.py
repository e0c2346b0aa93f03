import contextlib
import dataclasses
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermoflow
from thermoflow import collision, experiments, qudit
from thermoflow.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from thermoflow.experiments import (
    ConfigError,
    DEFAULT_MASTER_SEED,
    NumericError,
    OutputDocument,
    OutputTable,
    _group_name,
    canonical_config_hash,
    resolve_config,
    run_experiment,
)
from thermoflow.collision import FixedAlpha, QubitProtocolConfig, epsilon_upper_bound, loss_epsilon
from thermoflow.core import Temperature, ValidationError
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


@pytest.mark.parametrize("op", ["average-work", "loss", "work-moments"])
def test_custom_N_is_bounded_before_any_task_runs(op):
    # N = 1e7 ran for 55 s at 1.7 GB and wrote a 274 MB ledger; only resolve_config runs here
    bound = experiments.CUSTOM_N_MAX
    assert resolve_config({"experiment": "custom", "parameters": {"op": op, "N": bound}})["parameters"]["N"] == bound
    with pytest.raises(ConfigError, match=rf"^parameters\.N: expected int in \[1, {bound}\], got 10000000$"):
        resolve_config({"experiment": "custom", "parameters": {"op": op, "N": 10**7}})


@pytest.mark.parametrize("axis,values", [("alpha", [0.5, 0.25, 0.5]), ("N_grid", [[10, 100], [250], [250]])])
def test_sweep_rejects_values_sharing_a_group_directory(axis, values, tmp_path):
    # such values overwrote each other's files, and the manifest listed them twice
    cfg = {"experiment": "fig3-loss", "sweep": {"axis": axis, "values": values}, "output_dir": str(tmp_path / "s")}
    with pytest.raises(ConfigError, match=r"^sweep\.values\[2\]: "):
        resolve_config(cfg)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["--config", str(tmp_path / "cfg.json")]) == EXIT_CONFIG
    assert not (tmp_path / "s").exists()


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


def test_fig4_runs_the_exact_moment_recursion_twice_per_size(tmp_path, monkeypatch):
    # once for the planned histogram edges, once for the summary and its edges (it was 3 per size)
    calls = []
    moments = collision.work_moments

    def counted(cfg):
        calls.append(cfg.schedule.N)
        return moments(cfg)

    monkeypatch.setattr(collision, "work_moments", counted)
    monkeypatch.setattr(experiments, "work_moments", counted)
    cfg = {"experiment": "fig4-histograms", "parameters": {"N_values": [12, 16, 20], "runs": 600},
           "output_dir": str(tmp_path / "o")}
    run_experiment(cfg)
    assert sorted(calls) == [12, 12, 16, 16, 20, 20]


def test_qudit_convergence_computes_the_law_once_per_run(tmp_path, monkeypatch):
    # Gamma is the path's, and each N runs one staircase (it was 3 and 6: Gamma and an alpha = 0 run per N)
    calls = {"gamma_coefficient": 0, "run_qudit_protocol": 0}

    def counting(name):
        original = getattr(qudit, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        counted = counting(name)
        for module in (qudit, experiments):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    cfg = {"experiment": "qudit-convergence", "parameters": {"N_values": [250, 500, 1000], "alpha": 0.5},
           "output_dir": str(tmp_path / "o")}
    run_experiment(cfg)
    assert calls == {"gamma_coefficient": 1, "run_qudit_protocol": 3}


def test_fig4_builds_each_scaled_config_once(tmp_path, monkeypatch):
    # the plan, each block and the assembly used to build it again: 12 configs for 3 sizes of 2 blocks
    built = []
    canonical = QubitProtocolConfig.canonical_erasure

    def counted(n, temp, noise):
        built.append(n)
        return canonical(n, temp, noise)

    monkeypatch.setattr(QubitProtocolConfig, "canonical_erasure", counted)
    experiments._scaled_qubit_config.cache_clear()
    cfg = {"experiment": "fig4-histograms", "parameters": {"N_values": [12, 16, 20], "runs": 600},
           "output_dir": str(tmp_path / "o")}
    run_experiment(cfg)
    assert sorted(built) == [12, 16, 20]


def _plan_fig4_per_block(p, seed):
    """The plan before tasks grouped summary blocks: one task per TRIAL_BLOCK trials."""
    items = []
    for n in p["N_values"]:
        cfg, _ = experiments._scaled_qubit_config(n, p["temperature"], p["alpha"])
        edges = collision.moment_bin_edges(collision.work_moments(cfg), p["bins"])
        for start in range(0, p["runs"], experiments.TRIAL_BLOCK):
            items.append((n, edges, derive_seed(seed, f"fig4:N={n}", 0), start,
                          min(experiments.TRIAL_BLOCK, p["runs"] - start)))
    return items


def _run_fig4_per_block(p, item):
    """One sampler call for the block and its one WorkSummary."""
    n, edges, seed, start, count = item
    cfg, _ = experiments._scaled_qubit_config(n, p["temperature"], p["alpha"])
    return n, [collision.WorkSummary.of(collision.sample_work_values(cfg, count, seed, trial_offset=start), edges)]


@pytest.mark.parametrize("runs", [3000, 5121])  # each cuts a summary block and, at some N, a task
def test_grouped_fig4_tasks_write_the_bytes_of_one_sampler_call_per_block(runs, tmp_path, monkeypatch):
    # N <= 63 groups blocks into one draw per task, N >= 64 keeps one block per task
    cfg = {"experiment": "fig4-histograms", "parameters": {"N_values": [12, 40, 63, 64, 300], "runs": runs}}
    grouped = run_experiment(dict(cfg, output_dir=str(tmp_path / "grouped"))).outputs
    entry = experiments._REGISTRY["fig4-histograms"]
    per_block = dataclasses.replace(entry, plan=_plan_fig4_per_block, run=_run_fig4_per_block)
    monkeypatch.setitem(experiments._REGISTRY, "fig4-histograms", per_block)
    assert run_experiment(dict(cfg, output_dir=str(tmp_path / "per-block"))).outputs == grouped  # SHA-256 per file


@pytest.mark.parametrize(
    "n_values,runs,spans",
    [
        # mc-small-n's plan: 8 tasks in place of 48
        ([12, 16, 20], 8000, {12: [5120, 2880], 16: [3584, 3584, 832], 20: [3072, 3072, 1856]}),
        ([63, 64, 2000], 1100, {63: [1024, 76], 64: [512, 512, 76], 2000: [512, 512, 76]}),
    ],
)
def test_fig4_tasks_span_whole_summary_blocks_up_to_one_sampler_chunk(n_values, runs, spans):
    p = resolve_config({"experiment": "fig4-histograms", "parameters": {"N_values": n_values, "runs": runs}})
    items = experiments._plan_fig4(p["parameters"], DEFAULT_MASTER_SEED)
    for n in n_values:
        starts, counts = zip(*[(start, count) for m, _, _, start, count in items if m == n])
        assert list(counts) == spans[n]
        assert list(starts) == [sum(counts[:i]) for i in range(len(counts))]


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


@pytest.mark.parametrize("op", ["average-work", "loss", "work-moments"])
def test_custom_ledger_holds_what_its_op_computes(op, tmp_path):
    # at the default temperature the run is at T itself (e = 0), so the ledger is work_moments' record as it is
    run_experiment({"experiment": "custom", "parameters": {"op": op, "N": 50}, "output_dir": str(tmp_path)})
    value = float((tmp_path / "custom.csv").read_text().splitlines()[1].split(",")[1])
    if op == "loss":
        assert not (tmp_path / "custom_ledger.json").exists()
        return
    ledger = json.loads((tmp_path / "custom_ledger.json").read_text())
    moments = collision.work_moments(QubitProtocolConfig.canonical_erasure(50, Temperature(1.0 / math.log(2.0)),
                                                                           FixedAlpha(0.5)))
    assert ledger["per_step_work"] == moments.per_step_work.tolist()
    if op == "average-work":
        assert set(ledger) == {"per_step_work"}
        assert value == float(np.array(ledger["per_step_work"]).sum())
    else:
        assert set(ledger) == {"mean", "variance", "per_step_work"}
        assert (ledger["mean"], ledger["variance"]) == (moments.mean, moments.variance)
        assert value == moments.mean


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


@pytest.mark.parametrize("temperature", ["1e308", "1.7e308", "1e-310"])
def test_cli_fig3_runs_at_extreme_temperatures(temperature, tmp_path, capsys):
    # fig3 runs at T / 2^e like fig4; E_k overflowed or lost its digits at T and exited 2 as a config error
    argv = ["--experiment", "fig3-loss", "--set", f"temperature={temperature}", "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    rows = [line.split(",") for line in (tmp_path / "o" / "fig3_loss.csv").read_text().splitlines()[1:]]
    assert rows and all(math.isfinite(float(x)) and float(x) > 0.0 for row in rows for x in row)


@pytest.mark.parametrize("temperature", [0.3, 1.0 / math.log(2.0), 3.7, 1e5, 1e-5, 7e-200, 2e200])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
def test_fig3_rows_equal_the_direct_computation(temperature, alpha):
    # the run at T / 2^e scaled back by 2^e is exact wherever nothing under- or overflows
    params = {"alpha": alpha, "temperature": temperature}
    for n in (1, 10, 1000):
        cfg = QubitProtocolConfig.canonical_erasure(n, Temperature(temperature), FixedAlpha(alpha))
        direct = [n, loss_epsilon(cfg), epsilon_upper_bound(n, alpha, Temperature(temperature))]
        assert experiments._run_fig3_point(params, n) == direct


@pytest.mark.parametrize(
    "setting,name",
    [("Gamma=-1", "Gamma"), ("g=1e-308", "g"), ("tau_th=1e308", "tau_th"), ("tau_th=5e-324", "tau_th"),
     ("tau_th=1e-318", "tau_th")],
)
def test_cli_tth_rejects_bad_parameters_before_any_task(setting, name, tmp_path, capsys, monkeypatch):
    # Gamma = -1 wrote negative W_dis with exit 0; the two windows overflowed to a NaN grid inside the task; at a
    # subnormal tau_th the optimizer window started at 0, and the task exited 2 on "need t > 0", naming no parameter
    monkeypatch.setattr(experiments, "_execute_task", lambda task: pytest.fail("a task ran"))
    argv = ["--experiment", "fig5-fig6-tth", "--set", setting, "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert f"config error: parameters.{name}:" in capsys.readouterr().err


def test_cli_tth_runs_at_a_subnormal_tau_th_whose_windows_start_above_0(tmp_path, capsys):
    # 1e-6 tau_th, the optimizer window's lower end, is 1e-321 here: the run is valid work
    argv = ["--experiment", "fig5-fig6-tth", "--set", "tau_th=1e-315", "--set", "t_points=8", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_cli_tth_overflowing_g_exits_3_without_a_warning(tmp_path, capsys):
    # G(t) = (1/2 + a/(1 - a)) t overflowed in a numpy scalar multiply, warning on stderr before the exit
    argv = ["--experiment", "fig5-fig6-tth", "--set", "g=1e-300", "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == ["numeric failure: tth_cosine.csv: result beyond the float range"]


def test_cli_qudit_rank_deficient_gibbs_start_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the first task used to fail with "use rank_deficient_scaling", naming no parameter
    monkeypatch.setattr(experiments, "_execute_task", lambda task: pytest.fail("a task ran"))
    argv = ["--experiment", "qudit-convergence", "--set", "temperature=1e-300", "--set", "N_values=[4]",
            "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert "config error: parameters.temperature: the Gibbs start is not full rank" in capsys.readouterr().err


def test_cli_qudit_subnormal_temperature_is_a_config_error_without_a_warning(tmp_path, capsys):
    # beta = inf times the ground level's zero shifted energy was NaN, with a RuntimeWarning before the exit
    argv = ["--experiment", "qudit-convergence", "--set", "temperature=5e-324", "--set", "N_values=[4]",
            "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: parameters.temperature: the Gibbs start is not full rank at T = 5e-324"
    ]


@pytest.mark.parametrize(
    "preset,temperature,expected",
    [
        ("qubit-linear-q", "5e307", EXIT_CONFIG),
        ("qubit-linear-q", "1e308", EXIT_CONFIG),
        ("qubit-linear-q", "1.7e308", EXIT_CONFIG),
        ("qubit-gap-ramp", "5e307", EXIT_NUMERIC),
        ("qubit-gap-ramp", "1e308", EXIT_NUMERIC),
        ("qubit-gap-ramp", "1.7e308", EXIT_NUMERIC),
        ("random-diagonal-d4", "5e307", EXIT_NUMERIC),
        ("random-diagonal-d4", "1e308", EXIT_NUMERIC),
        ("random-diagonal-d4", "1.7e308", EXIT_NUMERIC),
    ],
)
def test_cli_qudit_at_an_extreme_temperature_prints_one_line(preset, temperature, expected, tmp_path, capsys):
    # the derivative stencils, the smoothness probe and the free energies overflowed with RuntimeWarnings first
    argv = ["--experiment", "qudit-convergence", "--set", f'preset="{preset}"', "--set", f"temperature={temperature}",
            "--set", "N_values=[20]", "--out", str(tmp_path / "o")]
    assert main(argv) == expected
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    if preset == "qubit-linear-q":
        # the smoothness probe and the sampler overflow: refused at resolution, naming the parameter
        assert err[0].startswith("config error: parameters.temperature: ")


def test_cli_qudit_endpoint_pair_beyond_the_float_range_names_the_pair(tmp_path, capsys):
    # H1 - H0 overflowed with a RuntimeWarning, and the error then blamed parameters.temperature
    argv = ["--experiment", "qudit-convergence", "--set", "H0=[[0, 0], [0, 1e308]]", "--set", "H1=[[0, 0], [0, -1e308]]",
            "--set", "N_values=[20]", "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: parameters.H0/H1: path fails the smoothness probe (curvature blow-up) (T = 1.4426950408889634)"
    ]


@pytest.mark.parametrize("preset", ["qubit-cyclic-zx", "qubit-cyclic-gap"])
def test_cli_breakdown_at_a_subnormal_temperature_runs_without_a_warning(preset, tmp_path, capsys):
    # the NaN Gibbs weights above failed the first task with "non-finite entries" after resolution had passed
    argv = ["--experiment", "breakdown-scaling", "--set", "temperature=5e-324", "--set", f"preset={preset}",
            "--set", "N_values=[8, 16]", "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "o" / "breakdown_scaling.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def test_cli_fig4_edges_beyond_the_float_range_exit_3(tmp_path, capsys):
    # the histogram edges at 2^e times those at T / 2^e overflow; they were written as +-inf with exit 0
    argv = ["--experiment", "fig4-histograms", "--out", str(tmp_path / "o")]
    for setting in ("N_values=[10]", "runs=4000", "temperature=1.7e308"):
        argv += ["--set", setting]
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "fig4_hist_N10.csv: result beyond the float range" in err
    assert "Traceback" not in err


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
    swept = run_experiment(dict(fig3_config(tmp_path / "swept"), sweep={"axis": "alpha", "values": [0.5]}))
    plain_bytes = (tmp_path / "plain" / "fig3_loss.csv").read_bytes()
    swept_bytes = (tmp_path / "swept" / "sweep-alpha" / "alpha=0.5" / "fig3_loss.csv").read_bytes()
    assert plain_bytes == swept_bytes
    assert [name for name, _, _ in swept.outputs] == ["sweep-alpha/alpha=0.5/fig3_loss.csv"]


def test_sweep_produces_row_group_per_value(tmp_path):
    sweep = {"axis": "alpha", "values": [0.0, 0.25, 0.5, 0.75]}
    manifest = run_experiment(dict(fig3_config(tmp_path / "s"), sweep=sweep))
    groups = {name.split("/")[1] for name, _, _ in manifest.outputs}
    assert groups == {"alpha=0.0", "alpha=0.25", "alpha=0.5", "alpha=0.75"}
    for value in (0.25, 0.75):
        table = (tmp_path / "s" / "sweep-alpha" / f"alpha={value}" / "fig3_loss.csv").read_text()
        assert table.startswith("N,epsilon_exact")


def test_sweep_axis_must_exist(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(dict(fig3_config(tmp_path / "s"), sweep={"axis": "definitely-not-a-knob", "values": [1]}))


def test_sweep_over_qudit_ladder(tmp_path):
    cfg = {
        "experiment": "qudit-convergence",
        "parameters": {"N_values": [250]},
        "output_dir": str(tmp_path / "s"),
    }
    manifest = run_experiment(dict(cfg, sweep={"axis": "N_values", "values": [[250], [500]]}))
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


def count_helpers(monkeypatch, process=multiprocessing.Process):
    """Route every helper start through `process`; the list returned gets, per pool (_share call), its helpers."""
    built, share = [], experiments._share

    def counted_share(tasks, helpers):
        built.append(0)
        return share(tasks, helpers)

    def start(*args, **kwargs):
        built[-1] += 1
        return process(*args, **kwargs)

    monkeypatch.setattr(experiments, "_share", counted_share)
    monkeypatch.setattr(multiprocessing, "Process", start)
    return built


class OneTaskHelper:
    """A helper stand-in in the caller's process: its start claims one task from the head, runs it and sends
    the result, as a helper does whose next claim finds nothing left; the caller claims the rest from the tail."""

    def __init__(self, target, args):
        self.args = args

    def start(self):
        run, tasks, bounds, sender = self.args
        i = experiments._claim(bounds, at_tail=False)
        sender.send({i: run(tasks[i])})
        self.sentinel, end = os.pipe()  # the helper has ended, so its sentinel reads end of file
        os.close(end)

    def kill(self):
        pass

    def join(self):
        os.close(self.sentinel)


def test_sweep_runs_all_groups_on_one_pool(tmp_path, monkeypatch):
    # each value used to start a pool of its own; workers counts the caller, so 3 workers are 2 helpers
    ran = []
    execute = experiments._execute_task

    def counted(task):
        ran.append((task[1]["alpha"], task[2]))
        return execute(task)

    monkeypatch.setattr(experiments, "POOL_STARTUP_S", dict.fromkeys(experiments.POOL_STARTUP_S, 0.0))
    monkeypatch.setattr(experiments, "_execute_task", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # workers is capped at the core count
    built = count_helpers(monkeypatch, OneTaskHelper)
    grid = (10, 20, 50, 100, 1000)
    sweep = {"axis": "alpha", "values": [0.25, 0.5, 0.75]}
    run_experiment(dict(fig3_config(tmp_path / "pooled", grid), workers=3, sweep=sweep))
    assert built == [2]
    # every task ran once: the first two in the caller, the next two in the helpers, the rest in the caller
    # from the tail
    plan = [(alpha, n) for alpha in (0.25, 0.5, 0.75) for n in grid]
    assert ran == plan[:4] + plan[4:][::-1]
    run_experiment(dict(fig3_config(tmp_path / "serial", grid), sweep=sweep))
    for value in (0.25, 0.5, 0.75):
        files = [tmp_path / side / "sweep-alpha" / f"alpha={value}" / "fig3_loss.csv" for side in ("pooled", "serial")]
        assert files[0].read_bytes() == files[1].read_bytes()


@pytest.mark.parametrize("workers,cores,helpers", [(100_000, 3, 2), (100_000, None, 0), ("auto", 2, 1)])
def test_workers_are_capped_at_the_core_count(workers, cores, helpers, tmp_path, monkeypatch):
    # one helper per task left would start thousands of processes; an unknown core count counts as 1
    monkeypatch.setattr(experiments, "POOL_STARTUP_S", dict.fromkeys(experiments.POOL_STARTUP_S, 0.0))
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    built = count_helpers(monkeypatch, OneTaskHelper)
    sweep = {"axis": "alpha", "values": [0.25, 0.5, 0.75]}
    run_experiment(dict(fig3_config(tmp_path, (10, 20, 50, 100, 1000)), workers=workers, sweep=sweep))
    assert built == ([helpers] if helpers else [])


@pytest.fixture(params=multiprocessing.get_all_start_methods())
def start_method(request):
    """Each start method this platform offers, as the default for the test, restored after it."""
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(previous, force=True)


@pytest.mark.parametrize(
    "experiment,parameters,helpers",
    [
        # tasks of 3072 trials at N = 20 (3 tasks) and 1024 at N = 50 (7), so grouped summary blocks are pooled
        ("fig4-histograms", {"N_values": [20, 50], "runs": 7000}, 3),
        ("fig3-loss", {}, 3),
        ("breakdown-scaling", {}, 2),  # 4 tasks, so 2 are left for helpers
    ],
)
def test_forced_pool_writes_the_bytes_of_an_in_process_run(
    experiment, parameters, helpers, start_method, tmp_path, monkeypatch
):
    # the default presets' small plans stay in-process, so this keeps the pooled path under a byte-identity oracle;
    # under forkserver and spawn the tasks reach the helpers pickled in their Process arguments
    monkeypatch.setattr(experiments, "POOL_STARTUP_S", dict.fromkeys(experiments.POOL_STARTUP_S, 0.0))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # workers is capped at the core count
    built = count_helpers(monkeypatch)
    digests = {}
    for workers in (1, 2, 4):
        cfg = {"experiment": experiment, "parameters": parameters, "workers": workers,
               "output_dir": str(tmp_path / f"w{workers}")}
        digests[workers] = run_experiment(cfg).outputs
    assert digests[1] == digests[2] == digests[4]
    assert built == [1, helpers]  # the pool starts after the second task, with up to workers - 1 helpers
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failing", [2, -1])  # the head of the pooled tasks, usually a helper's; the tail, the caller's
def test_a_failing_task_reaches_the_caller_and_leaves_no_child_running(failing, monkeypatch):
    monkeypatch.setattr(experiments, "POOL_STARTUP_S", dict.fromkeys(experiments.POOL_STARTUP_S, 0.0))
    params = resolve_config({"experiment": "breakdown-scaling"})["parameters"]
    tasks = [("breakdown-scaling", params, n) for n in (16, 256, 256, 256, 256, 256)]
    tasks[failing] = ("breakdown-scaling", dict(params, substeps=0), 256)
    with pytest.raises(ValidationError, match="substeps"):
        experiments._run_tasks(tasks, 3)
    assert multiprocessing.active_children() == []


def timed(seconds):
    """A task that sleeps: where it ran, and when it started and ended."""
    start = time.monotonic()
    time.sleep(seconds)
    return os.getpid(), start, time.monotonic()


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the main thread, instead of hanging, once the block has run `seconds`."""
    def hung(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_no_task_waits_unclaimed_while_the_caller_is_idle(monkeypatch):
    # the helper's first task outlasts all the caller's; a task reserved for the helper would wait behind it
    monkeypatch.setattr(experiments, "_execute_task", timed)
    with deadline(30):
        runs = experiments._share([0.6] + [0.05] * 6, 1)
    caller_done = max(end for pid, _, end in runs if pid == os.getpid())
    unfinished = [(pid, start) for pid, start, end in runs if end > caller_done]
    assert unfinished and all(pid != os.getpid() and start < caller_done for pid, start in unfinished)


def exit_in_a_helper(caller: int) -> int:
    """A task that ends any process but the caller, which it gives a short task."""
    if os.getpid() != caller:
        os._exit(3)
    time.sleep(0.05)
    return caller


def test_a_helper_that_ends_without_sending_fails_the_run(monkeypatch):
    monkeypatch.setattr(experiments, "_execute_task", exit_in_a_helper)
    with deadline(10), pytest.raises(RuntimeError, match="exit code 3"):
        experiments._share([os.getpid()] * 8, 2)
    assert multiprocessing.active_children() == []


def run_once(task):
    """A task that counts its runs in a shared array."""
    runs, i = task
    with runs.get_lock():
        runs[i] += 1
    return i


def test_every_task_runs_once_with_more_helpers_than_cores(monkeypatch):
    # thousands of tiny tasks make the claims race; a lost update of the shared head or tail runs a task twice or never
    runs = multiprocessing.Array("i", 20000)
    monkeypatch.setattr(experiments, "_execute_task", run_once)
    tasks = [(runs, i) for i in range(len(runs))]
    with deadline(60):
        assert experiments._share(tasks, (os.cpu_count() or 1) + 2) == list(range(len(runs)))
    assert list(runs) == [1] * len(runs)


HELPER_ORPHAN_SCRIPT = """
import multiprocessing
import os
import sys
import time
from thermoflow import experiments

def slow(seconds):
    print(os.getpid(), flush=True)
    time.sleep(seconds)
    return seconds

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    experiments._execute_task = slow
    experiments._share([30.0] * 4, 1)
"""


def _descendants(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        for child in map(int, (task / "children").read_text().split()):
            found += [child] + _descendants(child)
    return found


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # an exited child no one has reaped yet is a zombie


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads child pids from /proc")
@pytest.mark.parametrize("method", ["fork", "forkserver"])  # the Linux default before and from Python 3.14
def test_helpers_exit_when_a_signal_kills_the_caller(method, tmp_path):
    # SIGTERM ends the caller without running its finally, so no pool shutdown reaches the helper
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method")
    script = tmp_path / "orphan.py"
    script.write_text(HELPER_ORPHAN_SCRIPT)
    src = str(Path(thermoflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    descendants = []
    with subprocess.Popen([sys.executable, str(script), method], env=env, stdout=subprocess.PIPE) as caller:
        try:
            # the caller and the helper each print their pid as they start a task
            pids = {caller.stdout.readline().strip(), caller.stdout.readline().strip()}
            helpers = {int(pid) for pid in pids - {str(caller.pid).encode()}}
            descendants = _descendants(caller.pid)  # under forkserver also the forkserver and its resource tracker
            assert len(helpers) == 1 and helpers <= set(descendants)
            caller.terminate()
            caller.wait(timeout=10)
            deadline = time.monotonic() + 3
            while any(map(_running, descendants)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, descendants))
        finally:
            caller.kill()
            for pid in filter(_running, descendants):
                os.kill(pid, 9)


@pytest.mark.parametrize("experiment", ["fig3-loss", "breakdown-scaling"])
def test_default_short_plans_start_no_pool(experiment, tmp_path, monkeypatch):
    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    run_experiment({"experiment": experiment, "workers": 2, "output_dir": str(tmp_path / "o")})


def no_pool(*args, **kwargs):
    pytest.fail("a helper was started")


@pytest.mark.parametrize("faked", ["set", "platform default"])
def test_a_spawned_pool_must_pay_for_its_import(faked, tmp_path, monkeypatch):
    # a fig4 plan of mc-large-n's size pools under fork; a spawned helper imports numpy afresh, which takes longer
    # than the whole plan runs
    if faked == "set":
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: "spawn")
    else:
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: None)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "fork"])
    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    cfg = {"experiment": "fig4-histograms", "parameters": {"N_values": [2000], "runs": 6000}, "workers": 2,
           "output_dir": str(tmp_path / "o")}
    run_experiment(cfg)


def test_time_spent_waiting_does_not_count_toward_the_pace(monkeypatch):
    # each task waits as long as the pool's start-up but does almost no work, as on a host whose CPUs are busy
    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    monkeypatch.setattr(experiments, "_execute_task", lambda t: time.sleep(experiments._pool_startup_s()) or t)
    assert experiments._run_tasks([1, 2, 3, 4, 5], 2) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("stalled", [0, 2])
def test_one_stalled_task_does_not_start_a_pool(stalled, monkeypatch):
    # a task's CPU time, read off a fake clock, is its item; one stall is 40 pool start-ups, the rest 1/40 of one
    clock = [0.0]

    def execute(cost):
        clock[0] += cost
        return cost

    costs = [experiments._pool_startup_s() / 40] * 6
    costs[stalled] = 40 * experiments._pool_startup_s()
    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    monkeypatch.setattr(experiments.time, "thread_time", lambda: clock[0])
    monkeypatch.setattr(experiments, "_execute_task", execute)
    assert experiments._run_tasks(costs, 2) == costs


def test_one_worker_never_shares(monkeypatch):
    # at workers = 1 the estimated work, pace * tasks left * (1 - 1/workers), is 0 however slow the tasks are
    clock = [0.0]

    def execute(cost):
        clock[0] += cost
        return cost

    def share(tasks, helpers):
        pytest.fail("a pool was started at workers = 1")

    costs = [40 * max(experiments.POOL_STARTUP_S.values())] * 6
    monkeypatch.setattr(experiments.time, "thread_time", lambda: clock[0])
    monkeypatch.setattr(experiments, "_execute_task", execute)
    monkeypatch.setattr(experiments, "_share", share)
    assert experiments._run_tasks(costs, 1) == costs


def test_finite_output_gate_names_each_file_holding_a_non_finite_number(tmp_path, monkeypatch):
    def assemble(p, results):
        return [
            OutputTable("finite.csv", ["op", "value", "flag"], [["loss", 1.5, True]]),
            OutputTable("nan.csv", ["op", "value"], [["loss", 1.0], ["loss", math.nan]]),
            OutputDocument("inf.json", {"ledger": {"per_step_work": [0.5, -math.inf]}}),
        ], []

    custom = experiments._REGISTRY["custom"]
    monkeypatch.setitem(experiments._REGISTRY, "custom", dataclasses.replace(custom, assemble=assemble))
    cfg = {"experiment": "custom", "parameters": {"op": "loss", "N": 10}, "output_dir": str(tmp_path / "o")}
    with pytest.raises(NumericError) as raised:
        run_experiment(cfg)
    assert str(raised.value) == "nan.csv: result beyond the float range; inf.json: result beyond the float range"
    assert {f.name for f in (tmp_path / "o").iterdir()} == {"finite.csv", "nan.csv", "inf.json", "manifest.json"}


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
        # these ended in a traceback with exit 1, an unusable output_dir only after every task had run
        ["--config", "{tmp}"],  # a directory
        ["--config", "{tmp}/latin-1.json"],  # bytes that are not UTF-8
        ["--config", "{tmp}/deep.json"],  # nesting deeper than the JSON decoder's recursion limit
        ["--experiment", "fig3-loss", "--out", "{tmp}/file"],
        ["--experiment", "fig3-loss", "--out", "{tmp}/file/sub"],
    ],
)
def test_cli_config_errors_exit_2(argv, tmp_path):
    (tmp_path / "latin-1.json").write_bytes(b'{"experiment": "fig3-loss", "parameters": {"op": "\xe9"}}')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "file").write_text("")
    code, err = run_cli(["--out", str(tmp_path / "o")] + [a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert code == EXIT_CONFIG and err.startswith("config error: "), err
    assert "--out" not in argv or "output_dir" in err


def test_cli_deeply_nested_set_value_is_a_config_error(tmp_path):
    # json.loads raises RecursionError past its nesting limit; a --config file of the same depth is refused too
    value = "[" * 5000 + "]" * 5000
    code, err = run_cli(["--experiment", "fig3-loss", "--set", f"N_grid={value}", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert err.startswith("config error: --set N_grid: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


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


def test_cli_import_loads_neither_scipy_nor_the_process_pool():
    # scipy is a test-only dependency; the pool machinery is imported only by runs that start a pool
    src = str(Path(thermoflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    modules = ("scipy", "concurrent.futures.process", "multiprocessing")
    probe = f"import sys, thermoflow.cli; print([m for m in {modules!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, timeout=15)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().strip() == "[]"


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
# the float extremes every numeric domain is probed at, with their negatives
FLOAT_EXTREMES = (5e-324, 1e-300, 1e-12, 1e308, 1.7e308, 1 - 2**-53, 2**-53)
# wrong types: JSON constants, strings, empty and nested lists, an object
HOSTILE_VALUES = (True, False, None, "x", "", [], [[]], [["x"]], [[1, [2]]], {})


def edge_numbers(domain):
    """The bounds with their neighbours, 0, -1, the float extremes and their negatives, and the non-finite floats.

    A count with no upper bound (runs, bins, a size) takes no large integral
    value: that is valid work, not an edge.
    """
    numbers = [0, -1, math.nan, math.inf, -math.inf, *FLOAT_EXTREMES, *(-x for x in FLOAT_EXTREMES)]
    for bound in (b for b in (domain.lo, domain.hi) if b is not None):
        numbers += [bound, bound - 1, bound + 1, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    return [x for x in numbers if not x > 1000] if domain.kind is int and domain.hi is None else numbers


def edge_values(domain):
    """The domain's edges: its edge numbers (one-size lists of them, and a repeat where sizes must be distinct),
    non-members of its choices, or matrices of the float extremes."""
    if domain.choices:
        return [*domain.choices, *(c.upper() for c in domain.choices), "no-such-name", 0]
    if domain.kind is list:
        return [[[x]] for x in FLOAT_EXTREMES] + [[[0.5, 1.0], [1.0, 0.5]]]
    if domain.sizes:
        return [[x] for x in edge_numbers(domain)] + ([[domain.lo, domain.lo]] if domain.distinct else [])
    return edge_numbers(domain)


def domain_values(domain):
    """Values drawn in and around the domain: its edges, lists of up to three sizes, and wrong types."""
    values = st.sampled_from(edge_values(domain))
    if domain.sizes:
        values |= st.lists(st.sampled_from(edge_numbers(domain)), min_size=1, max_size=3)
    return values | st.sampled_from(HOSTILE_VALUES) | st.lists(st.sampled_from(HOSTILE_VALUES), max_size=2)


def run_cli(argv) -> tuple[int, str]:
    """main(argv)'s exit code and stderr, held to the exit contract: exit 0, 2 or 3, at most one line on stderr,
    and no task run on exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), mock.patch.object(
        experiments, "_execute_task", wraps=experiments._execute_task
    ) as execute:
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    assert code != EXIT_CONFIG or execute.call_count == 0, "a task ran before the config error"
    return code, err.getvalue()


def assert_exit_contract(experiment, name, value, in_file=False):
    """One CLI run of the experiment at its small base with name = value, the base set by --set or, in_file, in a
    config file: the exit contract of run_cli, with exit 2 exactly when resolve_config refuses the config."""
    params = json.loads(json.dumps(dict(SMALL_BASES[experiment], **{name: value})))
    with tempfile.TemporaryDirectory() as out:
        argv = ["--experiment", experiment, "--out", out]
        if in_file:
            Path(out, "config.json").write_text(json.dumps({"parameters": SMALL_BASES[experiment]}))
            argv += ["--config", str(Path(out, "config.json"))]
        for key, item in ({name: params[name]} if in_file else params).items():
            argv += ["--set", f"{key}={json.dumps(item)}"]
        code, err = run_cli(argv)
        try:
            resolve_config({"experiment": experiment, "parameters": params, "output_dir": out})
            refused = False
        except ConfigError:
            refused = True
    assert (code == EXIT_CONFIG) == refused, err


PARAMETERS = [(experiment, name) for experiment, entry in experiments._REGISTRY.items() for name in entry.parameters]


def test_readme_lists_every_parameter_with_its_domain():
    # README's list restated each domain by hand; every bound's rule text must appear in its domain list
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("Experiments and their parameters"):text.index("### CSV dialect")]
    domain_list, *bullets = re.split(r"^- `([a-z0-9-]+)` — ", section, flags=re.M)
    described = dict(zip(bullets[::2], bullets[1::2]))
    assert sorted(described) == sorted(experiments._REGISTRY)
    for experiment, name in PARAMETERS:
        rule = experiments._REGISTRY[experiment].parameters[name].rule
        assert f"`{name}`" in described[experiment], f"{experiment}: {name} is not named in its bullet"
        assert rule in " ".join(domain_list.split()), f"{experiment}.{name}: {rule!r} is not in the domain list"


@pytest.mark.parametrize("experiment,name", PARAMETERS)
def test_cli_keeps_the_exit_contract_at_every_domain_edge(experiment, name):
    # fig5-fig6-tth at tau_th = 5e-324 passed resolution, then its task exited 2 on "need t > 0"
    for value in edge_values(experiments._REGISTRY[experiment].parameters[name]):
        assert_exit_contract(experiment, name, value)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_never_ends_in_a_traceback(data):
    experiment, name = data.draw(st.sampled_from(PARAMETERS))
    value = data.draw(domain_values(experiments._REGISTRY[experiment].parameters[name]))
    assert_exit_contract(experiment, name, value, in_file=data.draw(st.booleans()))


# a config file's parameters value in each JSON shape: an object, a list, a list of pairs, a string, a number, null
# and a bool; only the object is a config (dict() made [["N_grid", [10]]] one when --set merged into it)
@pytest.mark.parametrize("overrides", [[], ["--set", "N_grid=[10]"]], ids=["alone", "with-set"])
@pytest.mark.parametrize(
    "parameters",
    [{"N_grid": [10, 100]}, [1, 2], [["N_grid", [10]]], "ab", 0.5, None, True],
    ids=["object", "list", "pairs", "string", "number", "null", "bool"],
)
def test_cli_keeps_the_exit_contract_for_every_shape_of_config_parameters(parameters, overrides, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "fig3-loss", "parameters": parameters}))
    code, err = run_cli(["--config", str(config), *overrides, "--out", str(tmp_path / "o")])
    if isinstance(parameters, dict):
        assert code == EXIT_OK, err
    else:
        assert code == EXIT_CONFIG and err == "config error: parameters: expected a JSON object\n"


def test_sweep_output_dir_below_a_file_is_refused_before_any_task(tmp_path):
    (tmp_path / "file").write_text("")
    config = {"experiment": "fig3-loss", "parameters": {"N_grid": [10]}, "output_dir": str(tmp_path / "file" / "s"),
              "sweep": {"axis": "alpha", "values": [0.1, 0.2]}}
    with mock.patch.object(experiments, "_execute_task") as execute, pytest.raises(ConfigError, match="output_dir"):
        run_experiment(config)
    assert execute.call_count == 0
