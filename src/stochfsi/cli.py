"""Configuration, scenario construction, sweeps and the command-line front end.

Configs are JSON.  Every default is resolved at load time and echoed
into the run manifest, so a manifest alone reproduces the run.  Pressure
data come from a closed set of named profiles (constant, piecewise-
constant table, half-sine burst) rather than an expression language;
step averages are exact for the table kind and 5-point Gauss otherwise.

Commands:

    stochfsi run      --config cfg.json [--paths M] [--seed S]
                      [--axis N|epsilon --values v1,v2,...] [--out DIR]
    stochfsi validate --config cfg.json

A run is one ensemble of run.M paths, or, when the sweep block
(run.sweep_axis, run.sweep_values) is set, one such ensemble per value.
STOCHFSI_THREADS caps the worker processes of an ensemble (speed only;
results are keyed by path index and do not depend on scheduling).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .discretization import HsForm, build_spaces
from .errors import ConfigError, InitialDataError
from .geometry import ReferenceDomain
from .noise import NoiseSpec
from .scheme import (MAX_PICARD, TOL_PICARD, PathProblem, SchemeParams,
                     check_initial_admissibility)
from . import diagnostics
from .diagnostics import write_ledger_csv  # noqa: F401  (the benchmark calls cli.write_ledger_csv)

_GAUSS5 = np.polynomial.legendre.leggauss(5)


class _Kinds(dict):
    """An open section of _SCHEMA: each kind's field schema, by name.  A
    nonempty section names its kind; an empty one is the first kind's defaults."""


# Every config field as (default, rule).  A rule is a key of _RANGES (a
# number), a one-element list of one (a list of such numbers), a tuple of
# the values allowed, bool or str; None marks a field that parse_config
# resolves itself.  A field whose default is None under a rule must be given.
_NUM, _POS, _COUNT = "a number", "a number > 0", "an integer >= 1"
_AMPLITUDE = {"amplitude": (None, _NUM)}
_WALL = _Kinds({"zero": {}, "bump": _AMPLITUDE, "sine2": _AMPLITUDE})
_SCHEMA = {
    "domain": {"L": (1.0, _POS), "R": (1.0, _POS), "nz": (8, _COUNT), "nr": (4, _COUNT)},
    "physics": {"nu": (1.0, _POS), "delta": (0.1, _POS), "epsilon": (1e-3, _POS),
                "s": (1.75, "a number in (3/2, 2)")},
    "time": {"T": (1.0, _POS), "N": (32, _COUNT)},
    "pressure": _Kinds({
        "constant": {"P_in": (0.0, _NUM), "P_out": (0.0, _NUM)},
        "table": {"times": (None, [_NUM]), "P_in": (None, [_NUM]), "P_out": (None, [_NUM])},
        # ... (no JSON value) marks an absent duration, which parse_config sets to time.T
        "half-sine": {"amplitude": (1.0, _NUM), "duration": (..., None),
                      "side": ("in", ("in", "out"))}}),
    "initial": {"eta0": _WALL, "v0": _WALL, "u0": _Kinds({"zero": {}, "parabolic": _AMPLITUDE})},
    # a seed of None is run.master_seed; the Brownian tree is the one
    # sampler, every path runs N steps, and "sampling" and "halt_at_stop"
    # stay for configs that name their one value
    "noise": {"K": (0, "an integer >= 0"), "q": ([], [_POS]), "amplitude": ([], [_NUM]),
              "seed": (None, None), "sampling": ("dyadic", ("dyadic",))},
    "run": {"M": (1, _COUNT), "master_seed": (12345, "an integer in [0, 2^64)"),
            "sweep_axis": (None, None), "sweep_values": ([], None),
            "halt_at_stop": (False, (False,))},
    "output": {"directory": ("out", str)},
}


@dataclass
class RunConfig:
    domain: dict
    physics: dict
    time: dict
    pressure: dict
    initial: dict
    noise: dict
    run: dict
    output: dict

    @property
    def dt(self) -> float:
        return self.time["T"] / self.time["N"]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


# what a numeric field may hold, keyed by the words that name it
_RANGES = {
    "a number": lambda x: True,
    "a number > 0": lambda x: x > 0,
    "a number in (3/2, 2)": lambda x: 1.5 < x < 2.0,
    "an integer in [0, 2^64)": lambda x: 0 <= x < 2**64,
    "an integer >= 0": lambda x: x >= 0,
    "an integer >= 1": lambda x: x >= 1,
}


def _number(value, field: str, want: str = "a number"):
    """``value`` if it is ``want`` (a key of _RANGES): a finite real that is
    not a bool and, for an integer, integral (an integral float becomes an int)."""
    count = want.startswith("an integer")
    ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
          and (isinstance(value, numbers.Integral) or math.isfinite(value))
          and (not count or value == int(value)))
    if not (ok and _RANGES[want](value)):
        raise ConfigError(f"{field}: must be {want}, got {value!r}")
    return int(value) if count else value


def _numbers(value, field: str, want: str = "a number") -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{field}: must be a list, got {value!r}")
    return [_number(v, f"{field}[{i}]", want) for i, v in enumerate(value)]


def _check(value, field: str, rule):
    """``value`` held to a leaf ``rule`` of _SCHEMA."""
    if isinstance(rule, str):
        return _number(value, field, rule)
    if isinstance(rule, list):
        return _numbers(value, field, rule[0])
    if isinstance(rule, tuple):  # equal and of the same type: 0 == False, but is no false
        allowed = (json.dumps(r) if isinstance(r, bool) else repr(r) for r in rule)
        _require(any(type(value) is type(r) and value == r for r in rule),
                 f"{field}: must be {' or '.join(allowed)}, got {value!r}")
    elif rule is not None:
        _require(isinstance(value, rule), f"{field}: must be "
                 f"{'true or false' if rule is bool else 'a string'}, got {value!r}")
    return value


def _resolve(schema: dict, user, path: str) -> dict:
    """``user`` with every default of ``schema`` filled in and every field
    checked against its rule; ``path`` is the dotted prefix of its fields."""
    if not isinstance(user, dict):
        raise ConfigError(f"{path[:-1] or 'config'}: must be a JSON object, got {user!r}")
    out = {}
    if isinstance(schema, _Kinds):
        kind = user.get("kind") if user else next(iter(schema))
        if not isinstance(kind, str) or kind not in schema:
            raise ConfigError(f"{path}kind: unknown kind {kind!r}")
        out["kind"], schema = kind, schema[kind]
    for key in user:
        if key not in schema and key not in out:  # out holds at most "kind" here
            raise ConfigError(f"{path}{key}: unknown field")
    for key, entry in schema.items():
        if isinstance(entry, dict):
            out[key] = _resolve(entry, user.get(key, {}), f"{path}{key}.")
        else:  # a copy of the default, which no config may share
            out[key] = _check(user.get(key, copy.copy(entry[0])), path + key, entry[1])
    return out


def _noise_spec(noise: dict) -> NoiseSpec:
    return NoiseSpec(K=noise["K"], q=noise["q"], amplitude=noise["amplitude"],
                     seed=noise["seed"])


def _strictly_increasing(xs: list) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


def parse_config(data: dict) -> RunConfig:
    """Validate a raw dict against _SCHEMA and the rules that tie fields
    together; all defaults resolved.  Builds nothing: the admissibility of
    the initial wall needs the built problem and is checked by ``build_problem``."""
    merged = _resolve(_SCHEMA, data, "")

    pr = merged["pressure"]
    if pr["kind"] == "table":
        for key in ("times", "P_in", "P_out"):
            _require(pr[key], f"pressure.{key}: table kind needs a nonempty list")
        _require(len(pr["times"]) == len(pr["P_in"]) == len(pr["P_out"]),
                 "pressure.times/P_in/P_out: lengths must match")
        _require(pr["times"][0] == 0.0, "pressure.times: must start at 0")
        _require(_strictly_increasing(pr["times"]), "pressure.times: must be strictly increasing")
    elif pr["kind"] == "half-sine":
        duration = merged["time"]["T"] if pr["duration"] is ... else pr["duration"]
        pr["duration"] = _number(duration, "pressure.duration", _POS)

    nz = merged["noise"]
    seed = merged["run"]["master_seed"] if nz["seed"] is None else nz["seed"]
    nz["seed"] = _number(seed, "noise.seed", _SCHEMA["run"]["master_seed"][1])
    _noise_spec(nz)  # checks the lengths against K

    r, steps = merged["run"], {"time.T/N": merged["time"]["N"]}
    # either sweep field makes the run a sweep, which needs both
    if r["sweep_axis"] is not None or r["sweep_values"] != []:
        axis = _check(r["sweep_axis"], "run.sweep_axis", ("N", "epsilon"))
        # a sweep value is held to the rule of the field it sets
        want = _SCHEMA["time"]["N"][1] if axis == "N" else _SCHEMA["physics"]["epsilon"][1]
        values = r["sweep_values"] = _numbers(r["sweep_values"], "run.sweep_values", want)
        _require(values, "run.sweep_values: need at least one value")
        _require(_strictly_increasing(values) or _strictly_increasing(values[::-1]),
                 f"run.sweep_values: must be sorted with no value repeated, got {values!r}")
        if axis == "N":
            steps.update((f"run.sweep_values[{i}]", N) for i, N in enumerate(values))
    T = merged["time"]["T"]
    for field, N in steps.items():  # a step that rounds to 0 fails only once a path runs
        _require(T / N > 0, f"{field}: time step must be > 0, got {T!r} / {N!r}")
    return RunConfig(**merged)


def _read_json(path: str):
    """The JSON value in the file at ``path``; text that is not UTF-8 or
    not JSON, or JSON nested too deep to parse, raises ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: JSON and UTF-8 errors
            raise ConfigError(f"config: invalid JSON ({exc})") from exc


# ----------------------------------------------------------------------
# scenario construction


def step_pressures(pr: dict, T: float, N: int):
    """Step-averaged data (P_in^n, P_out^n), n = 0..N-1, of the pressure
    section ``pr`` on N steps over [0, T]."""
    dt = T / N
    if pr["kind"] == "constant":
        return (np.full(N, float(pr["P_in"])), np.full(N, float(pr["P_out"])))
    if pr["kind"] == "table":
        times = np.asarray(pr["times"] + [np.inf])
        pin = np.asarray(pr["P_in"], dtype=float)
        pout = np.asarray(pr["P_out"], dtype=float)
        out_in, out_out = np.zeros(N), np.zeros(N)
        for n in range(N):
            a, b = n * dt, (n + 1) * dt
            lo = np.maximum(times[:-1], a)
            hi = np.minimum(times[1:], b)
            w = np.maximum(hi - lo, 0.0) / dt
            out_in[n] = float(w @ pin)
            out_out[n] = float(w @ pout)
        return out_in, out_out
    # half-sine burst, 5-point Gauss per step
    A, dur = float(pr["amplitude"]), float(pr["duration"])

    def burst(tt):
        return np.where(tt < dur, A * np.sin(np.pi * np.clip(tt, 0, dur) / dur), 0.0)

    gx, gw = _GAUSS5
    out = np.zeros(N)
    for n in range(N):
        tt = (n + 0.5) * dt + 0.5 * dt * gx
        out[n] = float(gw @ burst(tt)) / 2.0
    zero = np.zeros(N)
    return (out, zero) if pr["side"] == "in" else (zero, out)


def _initial_wall(structure, spec: dict, what: str) -> np.ndarray:
    """Free beam DOFs (nodal values and slopes) of an initial wall field."""
    full = np.zeros(structure.ndof_full)
    n_el, L = structure.n_el, structure.L
    if spec["kind"] == "sine2":
        a = float(spec["amplitude"])
        z = np.linspace(0.0, L, n_el + 1)
        full[0::2] = a * np.sin(np.pi * z / L) ** 2
        full[1::2] = a * np.pi / L * np.sin(2 * np.pi * z / L)
    elif spec["kind"] == "bump":
        if n_el < 2:
            raise ConfigError(f"initial.{what}: bump needs an interior structure node (nz >= 2)")
        full[2 * (n_el // 2)] = float(spec["amplitude"])
    return full[structure.free]


def build_problem(cfg: RunConfig) -> PathProblem:
    """Spaces, forms scaffolding and initial vectors for one scenario, with
    the initial data checked for admissibility (``InitialDataError``)."""
    domain = ReferenceDomain(L=cfg.domain["L"], R=cfg.domain["R"],
                             nz=cfg.domain["nz"], nr=cfg.domain["nr"])
    fluid, structure, layout = build_spaces(domain)
    params = SchemeParams(nu=cfg.physics["nu"], delta=cfg.physics["delta"],
                          epsilon=cfg.physics["epsilon"], dt=cfg.dt)
    u_spec = cfg.initial["u0"]
    if u_spec["kind"] == "zero":
        u0 = np.zeros(fluid.n_free)
    else:
        a = float(u_spec["amplitude"])
        u0 = fluid.interpolate(lambda z, r: a * (1 - r**2), lambda z, r: np.zeros_like(z))

    P_in, P_out = step_pressures(cfg.pressure, cfg.time["T"], cfg.time["N"])
    problem = PathProblem(
        fluid=fluid, structure=structure, layout=layout, params=params,
        noise=_noise_spec(cfg.noise), hs_form=HsForm(structure, cfg.physics["s"]),
        N=cfg.time["N"], P_in=P_in, P_out=P_out, u0=u0,
        v0=_initial_wall(structure, cfg.initial["v0"], "v0"),
        eta0=_initial_wall(structure, cfg.initial["eta0"], "eta0"),
    )
    check_initial_admissibility(problem)
    return problem


# ----------------------------------------------------------------------
# sweeps


def problem_at_axis_value(cfg: RunConfig, problem: PathProblem, value) -> PathProblem:
    """The problem at one value of ``cfg``'s sweep axis, derived from
    ``problem``, the build of ``cfg``: the spaces, the layout, ``HsForm``,
    the initial vectors and their admissibility do not depend on N or
    epsilon, so only the parameters, N and the step pressures are set anew.
    ``parse_config`` has validated ``value`` as a sweep value."""
    T, N, eps = cfg.time["T"], cfg.time["N"], cfg.physics["epsilon"]
    N, eps = (value, eps) if cfg.run["sweep_axis"] == "N" else (N, value)
    params = dataclasses.replace(problem.params, epsilon=eps, dt=T / N)
    P_in, P_out = step_pressures(cfg.pressure, T, N)
    return dataclasses.replace(problem, params=params, N=N, P_in=P_in, P_out=P_out)


def sweep(config: RunConfig, reports: list) -> tuple[list, float | None]:
    """The table of a sweep from its ensemble ``reports``, one per value of
    ``config``'s axis in order: (rows, slope), one row per value, with the
    fitted log-log slope of the monitored statistic.  The axis and its
    values are ``config.run``'s, which ``parse_config`` validates whenever
    either is set.

    For the epsilon axis the monitored statistic is the ensemble mean of
    ||div^{eta*} u||_{L^2(0,T;L^2)} (target slope 1/2); for the N axis it
    is the estimated E[max_n E^n] (target: flat).  Each row counts its
    failed paths in ``failed``; the statistics cover the others only, and
    are None at a value where every path failed.  The slope is None
    unless every value has a positive statistic.
    """
    axis, values = config.run["sweep_axis"], config.run["sweep_values"]
    rows = []
    for val, report in zip(values, reports, strict=True):
        div_mean_sq = report.stats["div_sq_int"]["mean"]
        rows.append({
            "value": val,
            "div_l2t": None if div_mean_sq is None else float(np.sqrt(max(div_mean_sq, 0.0))),
            "max_E_mean": report.stats["max_E"]["mean"],
            "sum_D_mean": report.stats["sum_D"]["mean"],
            "frac_stopped": report.frac_stopped,
            "failed": len(report.failures),
        })

    slope = None
    y = [row["div_l2t" if axis == "epsilon" else "max_E_mean"] for row in rows]
    if len(values) >= 2 and all(v is not None and v > 0 for v in y):
        x = np.log(np.asarray(values, dtype=float))
        slope = float(np.polyfit(x, np.log(np.asarray(y, dtype=float)), 1)[0])
    return rows, slope


# ----------------------------------------------------------------------
# artifacts


def _write_json(path: str, data: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(path: str, cfg: RunConfig):
    """The manifest of a run, whose ensembles hold ``run.M`` paths each."""
    _write_json(path, {
        "version": __version__,
        "numpy": np.__version__, "scipy": scipy.__version__,
        "workers": min(diagnostics.ensemble_workers(), cfg.run["M"]),  # what ensemble_run starts
        "config": cfg.to_dict(),
        "solver": {"tol_picard": TOL_PICARD, "max_picard": MAX_PICARD},  # fixed, not config
        "dt": cfg.dt,
        "effective_seed": cfg.noise["seed"],
    })


def write_sweep_csv(path: str, rows: list, slope: float | None):
    """One row per value; a statistic that is None (every path at that
    value failed) is an empty cell."""
    cols = ["value", "div_l2t", "max_E_mean", "sum_D_mean", "frac_stopped", "failed"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else repr(row[c]) if c in ("value", "failed")
                              else repr(float(row[c])) for c in cols))
    if slope is not None:
        lines.append(f"# fitted log-log slope: {float(slope)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _output_dirs(cfg: RunConfig, out_dir: str | None) -> list:
    """The run's directory (``out_dir`` or the config's), then its ensembles'
    (a sweep's ``value_<i>``, else its own), made before anything is written."""
    out = out_dir or cfg.output["directory"]
    n_values = len(cfg.run["sweep_values"])
    dirs = [out] + ([os.path.join(out, f"value_{i}") for i in range(n_values)] or [out])
    try:
        for directory in dirs:
            os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.directory: {exc}") from None
    return dirs


def run(cfg: RunConfig, problem: PathProblem, out_dir: str | None = None) -> int:
    """Execute the configured run on ``build_problem(cfg)``; returns the
    process exit status.  Each ensemble's directory gets a ledger per path
    that did not raise and a ``report.json``; a sweep adds ``table.csv``."""
    out, *directories = _output_dirs(cfg, out_dir)
    axis, values = cfg.run["sweep_axis"], cfg.run["sweep_values"]
    # one ensemble of run.M paths, or one per sweep value
    problems = [problem_at_axis_value(cfg, problem, v) for v in values] if axis else [problem]
    write_manifest(os.path.join(out, "manifest.json"), cfg)
    reports = []
    for directory, ens_problem in zip(directories, problems, strict=True):
        reports.append(diagnostics.ensemble_run(ens_problem, cfg.run["M"], directory))
        _write_json(os.path.join(directory, "report.json"), reports[-1].to_dict())

    total = sum(report.M for report in reports)
    paths = f"{total} path{'s' if total > 1 else ''}"
    summary = f"run complete: {paths}"
    if axis:
        rows, slope = sweep(cfg, reports)
        write_sweep_csv(os.path.join(out, "table.csv"), rows, slope)
        summary += f" over {axis}, slope {'n/a' if slope is None else f'{slope:.4f}'}"
    where = [f" at {axis} = {v!r}" for v in values] or [""]
    failures = [(at, f) for at, report in zip(where, reports) for f in report.failures]
    if failures:
        at, first = failures[0]
        print(f"run failed: {len(failures)} of {paths}; path {first['path']}{at}: "
              f"{first['error']}", file=sys.stderr)
        return 1
    print(summary)
    return 0


# ----------------------------------------------------------------------
# entry point


def _number_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stochfsi",
                                     description="stochastic FSI splitting-scheme runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run run.M paths, one ensemble per sweep value if any")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--paths", type=int)
    p_run.add_argument("--seed", type=int)
    # no choices: parse_config names a bad axis, as it does in a config
    p_run.add_argument("--axis")
    p_run.add_argument("--values", type=_number_list)
    p_run.add_argument("--out")

    p_val = sub.add_parser("validate", help="validate a config and exit")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    overrides = {}
    if args.command == "run":
        overrides = {("run", "M"): args.paths, ("run", "master_seed"): args.seed,
                     ("noise", "seed"): args.seed, ("run", "sweep_axis"): args.axis,
                     ("run", "sweep_values"): args.values}
    try:
        data = _read_json(args.config)
        for (section, key), value in overrides.items():
            # a section that is not an object is left for parse_config to name
            sub = data.setdefault(section, {}) if isinstance(data, dict) else None
            if value is not None and isinstance(sub, dict):
                sub[key] = value
        cfg = parse_config(data)
        problem = build_problem(cfg)
        diagnostics.ensemble_workers()  # a bad STOCHFSI_THREADS fails here, not in the run
        if args.command != "validate":
            _output_dirs(cfg, args.out)  # so does a directory that cannot be made
    except (ConfigError, InitialDataError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config OK")
        return 0
    return run(cfg, problem, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
