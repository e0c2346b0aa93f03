"""Experiment presets, deterministic parallel execution, and output schemas.

A run is described by a strict JSON config (unknown keys rejected), expands
into an ordered list of independent tasks, executes them, on helper processes
too once the work pays for them, and reduces the results in task order.
Every stochastic trial derives its stream from the documented seed mix, so
outputs are identical for any worker count.

Each experiment is one registry entry declaring its typed parameters, its
planner, task runner and assembler, so ``resolve_config`` rejects every bad
input before a task starts.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .core import HERMITICITY_TOL, Temperature, ValidationError
from .collision import (
    CHUNK_ELEMENTS,
    SEED_BLOCK,
    FixedAlpha,
    QubitProtocolConfig,
    WorkSummary,
    epsilon_upper_bound,
    loss_epsilon,
    moment_bin_edges,
    work_moments,
    sample_work_values,
)
from .maps import (CHANNEL_KINDS, CYCLIC_PATH_PRESETS, DEFAULT_SUBSTEPS, EVOLUTION_MODES, CyclicProtocol,
                   dissipation_breakdown)
from .qudit import (
    FULL_RANK_THRESHOLD,
    PATH_PRESETS,
    QuditProtocolConfig,
    asymptotic_dissipation,
    exact_dissipation,
    linear_endpoint_path,
    path_preset,
)
from .seeding import derive_seed
from .tth import CosineSqAlpha, ExponentialAlpha, g_function, minimize_g

__all__ = [
    "ConfigError",
    "NumericError",
    "RunManifest",
    "DEFAULT_MASTER_SEED",
    "EXPERIMENTS",
    "resolve_config",
    "canonical_config_hash",
    "run_experiment",
]

DEFAULT_MASTER_SEED = 20260809
LN2 = math.log(2.0)
# Trials per fig4 summary block: WorkSummary.merge adds the blocks' sums in order, so this grouping fixes the output
# bytes; a task spans as many whole blocks as one sampler chunk holds (_plan_fig4).
TRIAL_BLOCK = 512


class ConfigError(ValueError):
    """Config rejected by the strict schema (exit code 2)."""


class NumericError(RuntimeError):
    """A preset's numeric gate failed (exit code 3)."""


# ---------------------------------------------------------------------------
# Parameter domains: Domain.check(value, path) returns the accepted value or raises
# ---------------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class Domain:
    """A parameter's domain and default (_REQUIRED: none): a finite float or int within lo and hi (closed unless
    lo_open or hi_open), one of the choices, or any list; sizes: a non-empty list of such ints, distinct if asked."""

    kind: type
    default: object = _REQUIRED
    lo: Optional[int] = None
    hi: Optional[int] = None
    lo_open: bool = False
    hi_open: bool = False
    choices: tuple = ()
    sizes: bool = False
    distinct: bool = False

    @property
    def rule(self) -> str:
        """The bounds as text, such as '> 0' or 'in [0, 1)'; empty without bounds."""
        if self.hi is None:
            return "" if self.lo is None else f"{'>' if self.lo_open else '>='} {self.lo}"
        return f"in {'(' if self.lo_open else '['}{self.lo}, {self.hi}{')' if self.hi_open else ']'}"

    def check(self, value, path):
        if self.choices:
            if value not in self.choices:
                raise ConfigError(f"{path}: expected one of {sorted(self.choices)}, got {value!r}")
            return value
        if self.kind is list and not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if not self.sizes:
            return value if self.kind is list else self._scalar(value, path)
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list of integers {self.rule}, got {value!r}")
        sizes = [self._scalar(n, f"{path}[{i}]") for i, n in enumerate(value)]
        if self.distinct and len(set(sizes)) < len(sizes):
            raise ConfigError(f"{path}: expected distinct sizes, got {value!r}")
        return value

    def _scalar(self, value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected {self.kind.__name__}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        if self.kind is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        if not ((self.lo is None or value > self.lo or value == self.lo and not self.lo_open)
                and (self.hi is None or value < self.hi or value == self.hi and not self.hi_open)):
            raise ConfigError(f"{path}: expected {self.kind.__name__} {self.rule}, got {value!r}")
        try:
            return self.kind(value)
        except OverflowError:  # an int beyond the float range
            raise ConfigError(f"{path}: expected a finite number, got {value!r}") from None


_ALPHA = Domain(float, 0.5, lo=0, hi=1, hi_open=True)
_TEMPERATURE = Domain(float, 1.0 / LN2, lo=0, lo_open=True)

CUSTOM_OPS = ("average-work", "loss", "work-moments")
# custom's N bound: each op is one O(N) pass, and the ledger ops write their per-step arrays.  Through the CLI on a
# 2-core host, work-moments (the slowest op) took 0.85 s at N = 1e5 (54 MB peak, 2.7 MB ledger), 1.9 s at 3e5 and
# 5.7 s at 1e6.
CUSTOM_N_MAX = 100_000

TOP_LEVEL_KEYS = ("experiment", "parameters", "master_seed", "workers", "output_dir", "sweep")


def _matrix_from_json(rows: list, path: str) -> np.ndarray:
    """Hermitian matrix from JSON rows; entries are numbers or [re, im] pairs."""
    if not all(isinstance(row, list) and len(row) == len(rows) for row in rows):
        raise ConfigError(f"{path}: expected a square matrix as a list of rows, got {rows!r}")

    def entry(x, where, real=Domain(float).check):
        if isinstance(x, list) and len(x) == 2:
            return complex(real(x[0], where), real(x[1], where))
        return complex(real(x, where))

    m = np.array([[entry(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(rows)])
    if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
        raise ConfigError(f"{path}: endpoint matrix is not Hermitian")
    return m


# ---------------------------------------------------------------------------
# Experiments: plan(params, master_seed) -> task items, run(params, item) ->
# result, assemble(params, results in item order) -> (artifacts, failures)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutputTable:
    filename: str
    header: list
    rows: list


@dataclass(frozen=True)
class OutputDocument:
    filename: str
    payload: dict


def _sizes_of(key):
    """Planner with one task item per step count in params[key]."""
    return lambda p, seed: [int(n) for n in p[key]]


def _single_task(p, seed):
    return [None]


def _run_fig3_point(p, n):
    cfg, e = _scaled_qubit_config(n, p["temperature"], p["alpha"])
    return [n, *_ldexp([loss_epsilon(cfg), epsilon_upper_bound(n, p["alpha"], cfg.schedule.temp)], e)]


def _assemble_fig3(p, rows):
    failures = []
    eps = [e for _, e, _ in rows]
    if p["alpha"] == 0.0:
        # noiseless limit: the loss and its bound both vanish identically
        if any(e != 0.0 for e in eps):
            failures.append("collision-qubit/loss_epsilon: nonzero loss at alpha = 0")
    else:
        for n, e, bound in rows:
            if not e < bound:
                failures.append(f"collision-qubit/loss_epsilon: bound not dominating at N={n}")
        if not all(a > b for a, b in zip(eps, eps[1:])):
            failures.append("collision-qubit/loss_epsilon: loss not decreasing along the N grid")
    return [OutputTable("fig3_loss.csv", ["N", "epsilon_exact", "epsilon_bound"], rows)], failures


@functools.lru_cache(maxsize=32)  # fig4 asks for each N's config in its plan, in every block and in its assembly
def _scaled_qubit_config(n: int, temperature: float, alpha: float) -> tuple[QubitProtocolConfig, int]:
    """The canonical qubit config at T / 2^e, with 2^e the power of two nearest T, and e.

    Works scale with T and their variance with T^2, which underflows or
    overflows at extreme T; fig3, fig4 and custom report 2^e times their works
    and 4^e times variances at T / 2^e.  The scaling is exact, so wherever nothing
    underflows or overflows the bytes are those of a run at T.
    """
    m, e = math.frexp(temperature)  # T = m 2^e with 0.5 <= m < 1
    e = e - 1 if m < 0.75 else e
    return QubitProtocolConfig.canonical_erasure(n, Temperature(math.ldexp(temperature, -e)), FixedAlpha(alpha)), e


def _ldexp(x, e: int):
    """x * 2^e as Python floats; a result beyond the float range is inf, which the finite-output gate fails."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, e).tolist()


def _plan_fig4(p, seed):
    """Tasks of whole TRIAL_BLOCK summary blocks per N, as many as one sampler chunk of (2N + 1)-uniform rows holds
    (at least one), so a short-trial task makes one draw; the histogram edges are computed once per N."""
    items = []
    for n in p["N_values"]:
        n = int(n)
        edges = moment_bin_edges(work_moments(_scaled_qubit_config(n, p["temperature"], p["alpha"])[0]), p["bins"])
        task_seed = derive_seed(seed, f"fig4:N={n}", 0)
        span = TRIAL_BLOCK * max(1, min(SEED_BLOCK, CHUNK_ELEMENTS // (2 * n + 1)) // TRIAL_BLOCK)
        for start in range(0, p["runs"], span):
            items.append((n, edges, task_seed, start, min(span, p["runs"] - start)))
    return items


def _run_fig4_block(p, item):
    """(N, the WorkSummary of each TRIAL_BLOCK trials of the task's span), from one sampler call over the span."""
    n, edges, seed, start, count = item
    cfg, _ = _scaled_qubit_config(n, p["temperature"], p["alpha"])
    works = sample_work_values(cfg, count, seed, trial_offset=start)
    return n, [WorkSummary.of(works[i : i + TRIAL_BLOCK], edges) for i in range(0, count, TRIAL_BLOCK)]


def _assemble_fig4(p, results):
    artifacts = []
    failures = []
    summary_rows = []
    for n in p["N_values"]:
        n = int(n)
        merged = WorkSummary.merge([block for m, blocks in results if m == n for block in blocks])
        mean, variance = merged.moments()
        sigma = math.sqrt(variance)
        cfg, e = _scaled_qubit_config(n, p["temperature"], p["alpha"])
        moments = work_moments(cfg)
        edges = _ldexp(moment_bin_edges(moments, p["bins"]), e)
        sigma_exact = math.sqrt(moments.variance)
        stderr = sigma_exact / math.sqrt(merged.count)
        summary = _ldexp([mean, sigma, moments.mean, sigma_exact, stderr], e)
        summary_rows.append([n, merged.count, *summary])
        hist_rows = [[lo, hi, int(c)] for lo, hi, c in zip(edges, edges[1:], merged.hist)]
        artifacts.append(OutputTable(f"fig4_hist_N{n}.csv", ["bin_left", "bin_right", "count"], hist_rows))
        if not abs(mean - moments.mean) <= 4.0 * stderr:
            failures.append(f"collision-qubit/sample_work: mean off by >4 s.e. at N={n}")
        if not abs(sigma - sigma_exact) <= 0.10 * sigma_exact:
            failures.append(f"collision-qubit/sample_work: sigma off by >10% at N={n}")
    summary_header = ["N", "runs", "mean", "sigma", "mean_exact", "sigma_exact", "mean_stderr"]
    return [OutputTable("fig4_summary.csv", summary_header, summary_rows)] + artifacts, failures


def _qudit_path(p):
    """The preset path, or the straight line between the parsed endpoint pair H0, H1."""
    temp = Temperature(p["temperature"])
    if bool(p["H0"]) != bool(p["H1"]):
        raise ConfigError("parameters.H0/H1: endpoint matrices must be given together")
    if not p["H0"]:
        return path_preset(p["preset"], temp)
    m0, m1 = _matrix_from_json(p["H0"], "parameters.H0"), _matrix_from_json(p["H1"], "parameters.H1")
    if m0.shape != m1.shape:
        raise ConfigError(f"parameters.H0/H1: endpoint matrices must share a dimension, got {m0.shape}, {m1.shape}")
    drive = m1 - m0
    if np.abs(drive - drive[0, 0] * np.eye(len(drive))).max() <= 1e-12:
        # the Gibbs state never changes, so there is no dissipation to predict
        raise ConfigError("parameters.H0/H1: H1 - H0 must not be a multiple of the identity")
    return linear_endpoint_path(m0, m1, temp)


def _check_qudit(p):
    """Check the endpoint pair, and that the path is smooth and its Gibbs start full rank, as the 1/N law needs."""
    where = "parameters.H0/H1" if p["H0"] else "parameters.temperature"
    with np.errstate(over="ignore", invalid="ignore"):  # at extreme T the probe overflows, and fails without a warning
        try:
            path = _qudit_path(p)
            start = path.gibbs_matrix(0.0)
            path.require_smooth()
        except ValidationError as exc:
            raise ConfigError(f"{where}: {exc} (T = {p['temperature']!r})") from None
    if not np.linalg.eigvalsh(start)[0] >= FULL_RANK_THRESHOLD:
        raise ConfigError(f"parameters.temperature: the Gibbs start is not full rank at T = {p['temperature']!r}")


def _plan_qudit(p, seed):
    """One item (N, law) per N: the path's 1/N law is computed once, under the tasks' errstate."""
    with np.errstate(over="ignore", invalid="ignore"):
        path = _qudit_path(p)
        law = asymptotic_dissipation(path, path.hamiltonian(1.0))
    return [(int(n), law) for n in p["N_values"]]


def _run_qudit_point(p, item):
    n, law = item
    # At extreme T the free energies overflow; the non-finite value goes on to the gates.
    with np.errstate(over="ignore", invalid="ignore"):
        path = _qudit_path(p)
        cfg = QuditProtocolConfig(path=path, rho0=path.gibbs(0.0), N=n, alpha=p["alpha"])
        w_dis = exact_dissipation(cfg)
        return [n, p["alpha"], cfg.free_energy_drop - w_dis, w_dis, law.prediction(p["alpha"], n)]


def _assemble_qudit(p, rows):
    header = ["N", "alpha", "W_exact", "W_dis_exact", "W_dis_predicted"]
    n, _, _, exact, predicted = rows[-1]
    rel = abs(exact - predicted) / abs(exact) if exact else math.nan  # NaN fails the gate
    failures = [f"qudit-collision/asymptotic_dissipation: {rel:.3%} relative error at N={n}"] if not rel <= 0.05 else []
    return [OutputTable("qudit_convergence.csv", header, rows)], failures


def _run_breakdown_point(p, n):
    path = CYCLIC_PATH_PRESETS[p["preset"]](Temperature(p["temperature"]))
    proto = CyclicProtocol(path=path, N=n, channel_alpha=p["alpha"], channel_kind=p["channel"],
                           evolution_mode=p["evolution"], substeps=p["substeps"])
    b = dissipation_breakdown(proto, path.gibbs(0.0))
    return [n, p["alpha"], b.gamma, b.epsilon, b.kappa, b.total, b.w_iso]


def _assemble_breakdown(p, rows):
    # DissipationBreakdown already refuses a split that does not close
    header = ["N", "alpha", "gamma", "epsilon", "kappa", "total", "W_iso"]
    return [OutputTable("breakdown_scaling.csv", header, rows)], []


def _tth_windows(p) -> dict:
    """Each model's parameter and its grid and optimizer windows (lo, hi): inside (0, pi/g), and up to 5 tau_th."""
    cosine, tau = (1e-3 * math.pi / p["g"], (1.0 - 1e-6) * math.pi / p["g"]), p["tau_th"]
    return {"g": (cosine, cosine), "tau_th": ((1e-3 * tau, 5.0 * tau), (1e-6 * tau, 5.0 * tau))}


def _check_tth(p):
    """Every search window lies in (0, inf): pi/g or 5 tau_th can overflow, and 1e-6 tau_th underflow to 0."""
    for key, windows in _tth_windows(p).items():
        for lo, hi in windows:
            if not (lo > 0.0 and math.isfinite(hi)):
                raise ConfigError(f"parameters.{key}: expected a search window in (0, inf), got [{lo!r}, {hi!r}] "
                                  f"at {key} = {p[key]!r}")


def _run_tth(p, _item):
    cosine = CosineSqAlpha(p["g"])
    expo = ExponentialAlpha(p["tau_th"])
    windows = _tth_windows(p)
    (cosine_grid, cosine_window), (expo_grid, expo_window) = windows["g"], windows["tau_th"]
    return {
        "cosine": _tth_rows(cosine, np.linspace(*cosine_grid, p["t_points"]), p["Gamma"], p["total_time"]),
        "exponential": _tth_rows(expo, np.linspace(*expo_grid, p["t_points"]), p["Gamma"], p["total_time"]),
        "optimum": minimize_g(cosine, cosine_window).as_dict(),
        "exponential_optimum": minimize_g(expo, expo_window).as_dict(),
    }


def _tth_rows(model, grid, gamma_value, total_time) -> list[list[float]]:
    rows = []
    for t in grid:
        g_val = g_function(model, float(t))
        w_dis = 2.0 * gamma_value * g_val / total_time if math.isfinite(g_val) else math.inf
        rows.append([float(t), model.alpha(float(t)), g_val, w_dis])
    return rows


def _assemble_tth(p, results):
    r = results[0]
    artifacts = [
        OutputTable("tth_cosine.csv", ["t", "alpha", "G", "W_dis"], r["cosine"]),
        OutputTable("tth_exponential.csv", ["t", "alpha", "G", "W_dis"], r["exponential"]),
        OutputDocument("tth_optimum.json", {"cosine": r["optimum"], "exponential": r["exponential_optimum"]}),
    ]
    failures = []
    g_t = r["optimum"]["t_opt"] * p["g"]
    if not 1.35 <= g_t <= 1.45:
        failures.append(f"tth-optimizer/minimize_g: g*t_opt = {g_t:.4f} outside [1.35, 1.45]")
    if not r["exponential_optimum"]["monotone_flag"]:
        failures.append("tth-optimizer/minimize_g: exponential model not flagged monotone")
    return artifacts, failures


def _run_custom(p, _item):
    """The op's value, and the ledger of what a ledger op computes: a run at T / 2^e reported at T, works times 2^e
    and the variance times 4^e.  average-work writes no variance, which can overflow where its works do not."""
    cfg, e = _scaled_qubit_config(p["N"], p["temperature"], p["alpha"])
    if p["op"] == "loss":
        return {"op": p["op"], "value": _ldexp(loss_epsilon(cfg), e)}
    moments = work_moments(cfg)
    ledger = {"per_step_work": _ldexp(moments.per_step_work, e)}
    if p["op"] == "average-work":
        return {"op": p["op"], "value": _ldexp(float(moments.per_step_work.sum()), e), "ledger": ledger}
    ledger.update(mean=_ldexp(moments.mean, e), variance=_ldexp(moments.variance, 2 * e))
    return {"op": p["op"], "value": ledger["mean"], "ledger": ledger}


def _assemble_custom(p, results):
    r = results[0]
    artifacts = [OutputTable("custom.csv", ["op", "value"], [[r["op"], r["value"]]])]
    if "ledger" in r:
        artifacts.append(OutputDocument("custom_ledger.json", r["ledger"]))
    return artifacts, []


@dataclass(frozen=True)
class Experiment:
    """One preset's registry entry.

    parameters maps each name to its Domain; check_all(params) rejects bad
    combinations.  plan gives the task items, which must pickle; run computes
    one, possibly in a worker process; assemble receives the results in item
    order.
    """

    parameters: dict
    plan: Callable
    run: Callable
    assemble: Callable
    check_all: Optional[Callable] = None


_REGISTRY = {
    "fig3-loss": Experiment(
        parameters={
            "alpha": _ALPHA,
            "temperature": _TEMPERATURE,
            "N_grid": Domain(int, sorted({int(round(n)) for n in np.logspace(1, 4, 25)}), lo=1, sizes=True),
        },
        plan=_sizes_of("N_grid"),
        run=_run_fig3_point,
        assemble=_assemble_fig3,
    ),
    "fig4-histograms": Experiment(
        parameters={
            "N_values": Domain(int, [100, 200, 500, 1000], lo=1, sizes=True, distinct=True),
            "runs": Domain(int, 10000, lo=2, hi=10**6),  # budget: 100 times the default
            "alpha": _ALPHA,
            "temperature": _TEMPERATURE,
            "bins": Domain(int, 60, lo=1, hi=10**5),  # budget: about 1,700 times the default
        },
        plan=_plan_fig4,
        run=_run_fig4_block,
        assemble=_assemble_fig4,
    ),
    "qudit-convergence": Experiment(
        parameters={
            "preset": Domain(str, "qubit-gap-ramp", choices=tuple(PATH_PRESETS)),
            "alpha": _ALPHA,
            "temperature": _TEMPERATURE,
            "N_values": Domain(int, [250, 500, 1000, 2000], lo=1, sizes=True),
            # endpoint pair alternative to the preset: Hermitian matrices as rows
            # of numbers (or [re, im] pairs), linearly interpolated
            "H0": Domain(list, []),
            "H1": Domain(list, []),
        },
        plan=_plan_qudit,
        run=_run_qudit_point,
        assemble=_assemble_qudit,
        check_all=_check_qudit,
    ),
    "breakdown-scaling": Experiment(
        parameters={
            "preset": Domain(str, "qubit-cyclic-zx", choices=tuple(CYCLIC_PATH_PRESETS)),
            "alpha": Domain(float, 0.5, lo=0, hi=1),
            "temperature": _TEMPERATURE,
            "N_values": Domain(int, [32, 64, 128, 256], lo=1, sizes=True),
            "channel": Domain(str, "partial", choices=CHANNEL_KINDS),
            "evolution": Domain(str, "unitary", choices=EVOLUTION_MODES),
            "substeps": Domain(int, DEFAULT_SUBSTEPS, lo=1, hi=1024),  # budget: 64 times the default
        },
        plan=_sizes_of("N_values"),
        run=_run_breakdown_point,
        assemble=_assemble_breakdown,
    ),
    "fig5-fig6-tth": Experiment(
        parameters={
            "g": Domain(float, 1.0, lo=0, lo_open=True),
            "tau_th": Domain(float, 1.0, lo=0, lo_open=True),
            "t_points": Domain(int, 400, lo=1, hi=10**5),  # budget: 250 times the default
            "Gamma": Domain(float, 1.0, lo=0),
            "total_time": Domain(float, 100.0, lo=0, lo_open=True),
        },
        plan=_single_task,
        run=_run_tth,
        assemble=_assemble_tth,
        check_all=_check_tth,
    ),
    "custom": Experiment(
        parameters={
            "op": Domain(str, choices=CUSTOM_OPS),
            "N": Domain(int, 1000, lo=1, hi=CUSTOM_N_MAX),
            "alpha": _ALPHA,
            "temperature": _TEMPERATURE,
        },
        plan=_single_task,
        run=_run_custom,
        assemble=_assemble_custom,
    ),
}

EXPERIMENTS = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

def _resolve_parameters(experiment: str, params_in) -> dict:
    entry = _REGISTRY[experiment]
    if not isinstance(params_in, dict):
        raise ConfigError("parameters: expected a JSON object")
    for key in params_in:
        if key not in entry.parameters:
            raise ConfigError(f"parameters.{key}: unknown parameter for experiment {experiment!r}")
    params = {}
    for key, domain in entry.parameters.items():
        if key in params_in:
            params[key] = domain.check(params_in[key], f"parameters.{key}")
        elif domain.default is _REQUIRED:
            raise ConfigError(f"parameters.{key}: required for experiment {experiment!r}")
        else:
            params[key] = domain.default
    if entry.check_all is not None:
        entry.check_all(params)
    return params


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and apply defaults (strict: unknown keys fail).

    Every parameter, and every sweep value in place of its axis parameter,
    is checked here, so a run that passes starts no task it must abandon.
    """
    return _resolve(raw)[0]


def _resolve(raw: dict) -> tuple[dict, list]:
    """resolve_config's result and the run's groups, (name, config) pairs.

    A plain run is the one group (None, config).  A sweep has one group per
    value, named by _group_name; its config is the one resolve_config gives
    for that value alone, with output_dir its sweep-<axis>/<name> directory.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    for key in raw:
        if key not in TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {sorted(EXPERIMENTS)}, got {experiment!r}")

    params_in = raw.get("parameters", {})
    params = _resolve_parameters(experiment, params_in)

    master_seed = raw.get("master_seed", DEFAULT_MASTER_SEED)
    if isinstance(master_seed, bool) or not isinstance(master_seed, int) or not 0 <= master_seed < 2**64:
        raise ConfigError(f"master_seed: expected a 64-bit unsigned integer, got {master_seed!r}")

    workers = raw.get("workers", 1)
    if workers != "auto" and (isinstance(workers, bool) or not isinstance(workers, int) or workers < 1):
        raise ConfigError(f"workers: expected a positive integer or 'auto', got {workers!r}")

    output_dir = raw.get("output_dir", "thermoflow-out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string path")

    resolved = {
        "experiment": experiment,
        "parameters": params,
        "master_seed": master_seed,
        "workers": workers,
        "output_dir": output_dir,
    }
    if "sweep" not in raw:
        return resolved, [(None, resolved)]
    sweep_spec = raw["sweep"]
    if not isinstance(sweep_spec, dict) or set(sweep_spec) != {"axis", "values"}:
        raise ConfigError("sweep: expected an object with exactly the keys 'axis' and 'values'")
    axis, values = sweep_spec["axis"], sweep_spec["values"]
    if not isinstance(axis, str) or axis not in _REGISTRY[experiment].parameters:
        raise ConfigError(f"sweep.axis: {axis!r} is not a parameter of experiment {experiment!r}")
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError("sweep.values: expected a non-empty list")
    groups = {}
    for i, value in enumerate(values):
        try:
            group_params = _resolve_parameters(experiment, {**params_in, axis: value})
        except ConfigError as exc:
            raise ConfigError(f"sweep.values[{i}]: {exc}") from None
        name = _group_name(axis, value)
        if name in groups:
            raise ConfigError(f"sweep.values[{i}]: {value!r} repeats the group directory {name!r} of an earlier value")
        groups[name] = dict(resolved, parameters=group_params, output_dir=str(Path(output_dir) / f"sweep-{axis}" / name))
    resolved["sweep"] = {"axis": axis, "values": list(values)}
    return resolved, list(groups.items())


def canonical_config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON form (sorted keys, minimal separators)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _execute_task(task: tuple[str, dict, object]) -> dict:
    experiment, params, item = task
    return _REGISTRY[experiment].run(params, item)


# ---------------------------------------------------------------------------
# Rendering, the finite-output gate and the writer
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _render(artifact, fmt: str) -> tuple[str, int, bytes]:
    """The file name, row count and bytes of a document, or of a table as CSV or as JSON rows."""
    if isinstance(artifact, OutputDocument):
        return artifact.filename, 1, _json_bytes(artifact.payload)
    if fmt == "json":
        name = artifact.filename[:-4] + ".json" if artifact.filename.endswith(".csv") else artifact.filename
        return name, len(artifact.rows), _json_bytes([dict(zip(artifact.header, row)) for row in artifact.rows])
    lines = [",".join(str(h) for h in artifact.header)]
    lines.extend(",".join(_format_cell(c) for c in row) for row in artifact.rows)
    return artifact.filename, len(artifact.rows), ("\n".join(lines) + "\n").encode("utf-8")


def _finite_gate(filename: str, data) -> list[str]:
    """No failure when every number in data, at any depth, is finite, else one naming the file."""
    try:
        json.dumps(data, allow_nan=False)
    except ValueError:  # NaN or +-inf
        return [f"{filename}: result beyond the float range"]
    return []


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    artifact_version: str
    outputs: list  # (filename, row_count, sha256)

    def as_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "artifact_version": self.artifact_version,
            "outputs": [
                {"filename": f, "row_count": n, "sha256": h} for f, n, h in self.outputs
            ],
        }


def _write(out_dir: Path, config: dict, files=(), listed=()) -> RunManifest:
    """Write files, (name, rows, bytes) triples, and a manifest of them and of the listed outputs."""
    for name, _, blob in files:
        (out_dir / name).write_bytes(blob)
    outputs = [(name, rows, hashlib.sha256(blob).hexdigest()) for name, rows, blob in files] + list(listed)
    manifest = RunManifest(canonical_config_hash(config), __version__, outputs)
    (out_dir / "manifest.json").write_bytes(_json_bytes(manifest.as_dict()))
    return manifest


# Helper start-up in seconds, by start method: what starting helpers costs the caller, plus the time until a helper
# works times 1 - 1/workers.  The caller runs tasks in order until, from the second on, the least CPU time of a task,
# times the tasks left, times 1 - 1/workers, exceeds the start-up of the method helpers will use: waiting for a busy
# CPU is no work a helper could take, and one stalled task must not start helpers.  Measured on a 2-core host with
# fig4 blocks of 1.0-1.5 ms, under fork: starting a helper takes the caller 1.1-1.5 ms, its next task runs 5-9 ms
# longer (copy-on-write faults), and the wait for the last result and the join take 1-4 ms; the helper claims its
# first task 6-7 ms in and runs it 1-2 ms longer.  That is 8-15 + (7-9) / 2 ms.  Pools paid from 32-48 ms of
# in-process work on; the 8000-run fig4 plan at N = 12, 16, 20 estimates 22-40 ms, where 25 ms left 1 pass in 6
# in-process.  Under forkserver and spawn a helper imports numpy and thermoflow afresh and claims its first task
# 0.17-0.36 s in.
POOL_STARTUP_S = {"fork": 0.015, "forkserver": 0.3, "spawn": 0.3}


def _run_tasks(tasks, workers: int) -> list[dict]:
    """The tasks' results in order; workers counts the caller, which up to workers - 1 helpers join (POOL_STARTUP_S).

    At workers = 1 the estimated work is 0, so no helper starts.
    """
    results, pace, start = [], math.inf, time.thread_time()
    while len(results) < len(tasks):
        results.append(_execute_task(tasks[len(results)]))
        pace, start, left = min(pace, time.thread_time() - start), time.thread_time(), len(tasks) - len(results)
        work = pace * left * (1 - 1 / workers)  # below the least start-up, no start method is read
        if len(results) >= 2 and left >= 2 and work > min(POOL_STARTUP_S.values()) and work > _pool_startup_s():
            return results + _share(tasks[len(results):], min(workers - 1, left))
    return results


def _pool_startup_s() -> float:
    """POOL_STARTUP_S of the start method helpers will use, read without fixing it."""
    import multiprocessing

    method = multiprocessing.get_start_method(allow_none=True) or multiprocessing.get_all_start_methods()[0]
    return POOL_STARTUP_S[method]


def _share(tasks, helpers: int) -> list[dict]:
    """The tasks' results in order; helpers claim tasks from the head, the caller from the tail, so none is reserved."""
    import multiprocessing.connection

    bounds, started, results = multiprocessing.Array("q", [0, len(tasks)]), [], {}
    try:
        for _ in range(helpers):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            helper = multiprocessing.Process(target=_help, args=(_execute_task, tasks, bounds, sender))
            helper.start()
            started.append((helper, receiver, sender))  # with the sender kept open, a helper's end is no EOF
        while (i := _claim(bounds, at_tail=True)) is not None:
            results[i] = _execute_task(tasks[i])
        for helper, receiver, _ in started:
            multiprocessing.connection.wait([receiver, helper.sentinel])
            done = receiver.recv() if receiver.poll() else None  # None: the helper ended without sending
            if not isinstance(done, dict):
                helper.join()
                raise done or RuntimeError(f"a helper ended with exit code {helper.exitcode} and sent no results")
            results.update(done)
        return [results[i] for i in range(len(tasks))]
    finally:
        for helper, *_ in started:
            helper.kill()
            helper.join()


def _claim(bounds, at_tail: bool) -> Optional[int]:
    """The index of a task claimed from the tail or the head of the unclaimed tasks, bounds[0] to bounds[1] - 1."""
    with bounds.get_lock():
        head, tail = bounds[:]
        if head < tail:
            bounds[:] = (head, tail - 1) if at_tail else (head + 1, tail)
            return tail - 1 if at_tail else head
    return None


def _help(run, tasks, bounds, sender) -> None:
    """A helper process: run claimed tasks until none is left, then send {index: result} or the exception hit."""
    _exit_with_parent()
    done = {}
    try:
        while (i := _claim(bounds, at_tail=False)) is not None:
            done[i] = run(tasks[i])
    except Exception as exc:
        done, bounds[0] = exc, len(tasks)  # leave nothing more to claim: the run fails anyway
    sender.send(done)


def _exit_with_parent() -> None:
    """End the helper once the caller is gone, as a caller killed by a signal runs no finally.  The caller's sentinel
    is a pipe whose write end only it holds under every start method; the forkserver is no sign of the caller."""
    from multiprocessing import connection, parent_process

    def watch():
        connection.wait([parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def run_experiment(raw_config: dict, output_format: str = "csv") -> RunManifest:
    """Execute one experiment config, or every group of its sweep; write outputs and manifests; gate results.

    The tasks of all groups run through at most one pool and are assembled in
    task order, so outputs are independent of the worker count.  Each group's
    files and manifest go into its own directory; a sweep's top-level
    manifest lists the files of the groups that passed.  Raises ConfigError
    for schema violations and, before any task runs, for an output directory
    that cannot be created, and NumericError when a preset's numeric gate or
    the finite-output gate of any file fails (outputs are still written for
    inspection), each failing group's message prefixed with its name.
    """
    config, groups = _resolve(raw_config)
    for out_dir in [config["output_dir"]] + [group["output_dir"] for _, group in groups]:
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output_dir: cannot create directory {out_dir!r}: {exc.strerror or exc}") from None
    entry = _REGISTRY[config["experiment"]]
    plans = [[(c["experiment"], c["parameters"], item) for item in entry.plan(c["parameters"], c["master_seed"])]
             for _, c in groups]
    cores = os.cpu_count() or 1  # more workers than cores would only add helpers that wait for a core
    workers = cores if config["workers"] == "auto" else min(config["workers"], cores)
    results = iter(_run_tasks([task for plan in plans for task in plan], workers))
    listed, failures = [], []
    for (name, group), plan in zip(groups, plans):
        artifacts, found = entry.assemble(group["parameters"], [next(results) for _ in plan])
        files = [_render(artifact, output_format) for artifact in artifacts]
        for (filename, _, _), artifact in zip(files, artifacts):
            found += _finite_gate(filename, vars(artifact))
        manifest = _write(Path(group["output_dir"]), group, files)
        if found:
            failures.append("; ".join(found) if name is None else f"{name}: " + "; ".join(found))
        elif name is not None:
            listed += [(f"sweep-{config['sweep']['axis']}/{name}/{f}", n, h) for f, n, h in manifest.outputs]
    if "sweep" in config:
        manifest = _write(Path(config["output_dir"]), config, listed=listed)
    if failures:
        raise NumericError("; ".join(failures))
    return manifest


def _group_name(axis: str, value) -> str:
    """Sweep directory ``axis=value``, filesystem-safe for list values too.

    A list is named by its numbers joined with '_' (cut at 48 characters) and
    12 hex digits of the SHA-256 of its JSON: short, and distinct per list.
    """
    if not isinstance(value, list):
        return f"{axis}={value}"
    text = json.dumps(value, separators=(",", ":"))
    numbers = "_".join(re.findall(r"[0-9A-Za-z.+-]+", text))[:48].rstrip("_")
    return f"{axis}={numbers}-{hashlib.sha256(text.encode()).hexdigest()[:12]}"

