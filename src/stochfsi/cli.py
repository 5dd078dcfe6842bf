"""Configuration, scenario construction, sweeps and the command-line front end.

Configs are JSON.  Every default is resolved at load time and echoed
into the run manifest, so a manifest alone reproduces the run.  Pressure
data come from a closed set of named profiles (constant, piecewise-
constant table, half-sine burst) rather than an expression language;
step averages are exact for the table kind and 5-point Gauss otherwise.

Commands:

    stochfsi run      --config cfg.json [--mode path|ensemble|sweep]
                      [--paths M] [--seed S] [--out DIR]
    stochfsi validate --config cfg.json
    stochfsi sweep    --config cfg.json --axis {N|epsilon} --values v1,v2,...

STOCHFSI_THREADS caps the worker processes of ensembles and sweeps (speed
only; results are keyed by path index and do not depend on scheduling).
"""

from __future__ import annotations

import argparse
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
                     check_initial_admissibility, run_path)
from . import diagnostics
from .diagnostics import write_ledger_csv

_GAUSS5 = np.polynomial.legendre.leggauss(5)

_DEFAULTS = {
    "domain": {"L": 1.0, "R": 1.0, "nz": 8, "nr": 4},
    "physics": {"nu": 1.0, "delta": 0.1, "epsilon": 1e-3, "s": 1.75},
    "time": {"T": 1.0, "N": 32},
    "pressure": {"kind": "constant", "P_in": 0.0, "P_out": 0.0},
    "initial": {
        "eta0": {"kind": "zero"},
        "v0": {"kind": "zero"},
        "u0": {"kind": "zero"},
    },
    "noise": {
        "K": 0,
        "q": [],
        "amplitude": [],
        "seed": None,
        "sampling": "dyadic",
    },
    "run": {
        "mode": "path",
        "M": 1,
        "master_seed": 12345,
        "sweep_axis": None,
        "sweep_values": [],
        "halt_at_stop": False,
    },
    "output": {"directory": "out"},
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


# sections whose field set depends on a "kind" discriminator; _merge takes
# them as given and parse_config checks their fields per kind
_OPEN_SECTIONS = {"pressure.", "initial.eta0.", "initial.v0.", "initial.u0."}


def _merge(defaults: dict, user, path: str) -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"{path[:-1] or 'config'}: must be a JSON object, got {user!r}")
    if path in _OPEN_SECTIONS:
        return dict(user) if user else dict(defaults)
    out = {}
    for key, dval in defaults.items():
        if isinstance(dval, dict):
            out[key] = _merge(dval, user.get(key, {}), f"{path}{key}.")
        else:
            out[key] = user.get(key, dval)
    for key in user:
        if key not in defaults:
            raise ConfigError(f"{path}{key}: unknown field")
    return out


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

# the numeric fields of the fixed sections
_NUMERIC = {
    "domain": {"L": "a number > 0", "R": "a number > 0",
               "nz": "an integer >= 1", "nr": "an integer >= 1"},
    "physics": {"nu": "a number > 0", "delta": "a number > 0",
                "epsilon": "a number > 0", "s": "a number in (3/2, 2)"},
    "time": {"T": "a number > 0", "N": "an integer >= 1"},
    "noise": {"K": "an integer >= 0"},
    "run": {"M": "an integer >= 1", "master_seed": "an integer in [0, 2^64)"},
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


def _noise_spec(noise: dict) -> NoiseSpec:
    return NoiseSpec(K=noise["K"], q=noise["q"], amplitude=noise["amplitude"],
                     seed=noise["seed"])


# the fields besides "kind" that each kind of an open section takes
_PRESSURE_KINDS = {"constant": ("P_in", "P_out"), "table": ("times", "P_in", "P_out"),
                   "half-sine": ("amplitude", "duration", "side")}
_WALL_KINDS = {"zero": (), "bump": ("amplitude",), "sine2": ("amplitude",)}
_INITIAL_KINDS = {"eta0": _WALL_KINDS, "v0": _WALL_KINDS,
                  "u0": {"zero": (), "parabolic": ("amplitude",)}}


def _strictly_increasing(xs: list) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


def _kind_fields(spec: dict, path: str, kinds: dict) -> str:
    """The kind of an open section, after checking it and every field name."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    for key in spec:
        if key != "kind" and key not in kinds[kind]:
            raise ConfigError(f"{path}.{key}: unknown field")
    return kind


def parse_config(data: dict) -> RunConfig:
    """Validate a raw dict against the schema; all defaults resolved.

    Builds nothing: the admissibility of the initial wall needs the built
    problem and is checked by ``build_problem``."""
    merged = _merge(_DEFAULTS, data, "")
    for section, fields in _NUMERIC.items():
        for key, want in fields.items():
            merged[section][key] = _number(merged[section][key], f"{section}.{key}", want)

    pr = merged["pressure"]
    kind = _kind_fields(pr, "pressure", _PRESSURE_KINDS)
    if kind == "constant":
        for key in ("P_in", "P_out"):
            pr[key] = _number(pr.get(key, 0.0), f"pressure.{key}")
    elif kind == "table":
        for key in ("times", "P_in", "P_out"):
            pr[key] = _numbers(pr.get(key), f"pressure.{key}")
            _require(pr[key], f"pressure.{key}: table kind needs a nonempty list")
        _require(len(pr["times"]) == len(pr["P_in"]) == len(pr["P_out"]),
                 "pressure.times/P_in/P_out: lengths must match")
        _require(pr["times"][0] == 0.0, "pressure.times: must start at 0")
        _require(_strictly_increasing(pr["times"]), "pressure.times: must be strictly increasing")
    else:
        pr["amplitude"] = _number(pr.get("amplitude", 1.0), "pressure.amplitude")
        pr["duration"] = _number(pr.get("duration", merged["time"]["T"]),
                                 "pressure.duration", "a number > 0")
        pr.setdefault("side", "in")
        _require(pr["side"] in ("in", "out"), "pressure.side: must be 'in' or 'out'")

    for name, kinds in _INITIAL_KINDS.items():
        spec = merged["initial"][name]
        if _kind_fields(spec, f"initial.{name}", kinds) != "zero":
            spec["amplitude"] = _number(spec.get("amplitude"), f"initial.{name}.amplitude")

    nz = merged["noise"]
    nz["q"] = _numbers(nz["q"], "noise.q", "a number > 0")
    nz["amplitude"] = _numbers(nz["amplitude"], "noise.amplitude")
    if nz["seed"] is None:
        nz["seed"] = merged["run"]["master_seed"]
    nz["seed"] = _number(nz["seed"], "noise.seed", "an integer in [0, 2^64)")
    _noise_spec(nz)  # checks the lengths against K
    # the Brownian tree is the one sampler; the key stays for configs that name it
    _require(nz["sampling"] == "dyadic",
             f"noise.sampling: must be 'dyadic', got {nz['sampling']!r}")

    r = merged["run"]
    _require(r["mode"] in ("path", "ensemble", "sweep"),
             f"run.mode: unknown mode {r['mode']!r}")
    # checked whenever set, so another mode never runs with junk sweep fields
    if r["mode"] == "sweep" or r["sweep_axis"] is not None or r["sweep_values"] != []:
        _require(r["sweep_axis"] in ("N", "epsilon"),
                 f"run.sweep_axis: must be 'N' or 'epsilon', got {r['sweep_axis']!r}")
        want = "an integer >= 1" if r["sweep_axis"] == "N" else "a number > 0"
        values = r["sweep_values"] = _numbers(r["sweep_values"], "run.sweep_values", want)
        _require(values, "run.sweep_values: need at least one value")
        _require(_strictly_increasing(values) or _strictly_increasing(values[::-1]),
                 f"run.sweep_values: must be sorted with no value repeated, got {values!r}")
    _require(isinstance(r["halt_at_stop"], bool),
             f"run.halt_at_stop: must be true or false, got {r['halt_at_stop']!r}")
    _require(isinstance(merged["output"]["directory"], str),
             f"output.directory: must be a string, got {merged['output']['directory']!r}")
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
        halt_at_stop=cfg.run["halt_at_stop"],
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
    if cfg.run["sweep_axis"] == "N":
        N = value
    else:
        eps = value
    params = dataclasses.replace(problem.params, epsilon=eps, dt=T / N)
    P_in, P_out = step_pressures(cfg.pressure, T, N)
    return dataclasses.replace(problem, params=params, N=N, P_in=P_in, P_out=P_out)


def sweep(config: RunConfig, problem: PathProblem) -> tuple[list, float | None]:
    """Re-run the ensemble for each value of N or epsilon with common
    per-path seeds, and fit the log-log slope of the monitored statistic;
    returns (rows, slope), one row per value.  The axis and its values are
    ``config.run``'s, which ``parse_config`` validates whenever either is
    set; a mode other than sweep is a ``ConfigError``.

    For the epsilon axis the monitored statistic is the ensemble mean of
    ||div^{eta*} u||_{L^2(0,T;L^2)} (target slope 1/2); for the N axis it
    is the estimated E[max_n E^n] (target: flat).  ``problem`` is the
    build of ``config``, and each value's problem is derived from it;
    each value runs ``config.run["M"]`` paths.  Each row counts its
    failed paths in ``failed``; the statistics cover the others only, and
    are None at a value where every path failed.  The slope is None
    unless every value has a positive statistic.
    """
    _require(config.run["mode"] == "sweep",
             f"run.mode: sweep needs mode 'sweep', got {config.run['mode']!r}")
    axis, values = config.run["sweep_axis"], config.run["sweep_values"]
    rows = []
    for val in values:
        report = diagnostics.ensemble_run(problem_at_axis_value(config, problem, val),
                                          config.run["M"])
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


def _fmt(x) -> str:
    return repr(float(x))


def write_manifest(path: str, cfg: RunConfig):
    manifest = {
        "version": __version__,
        "numpy": np.__version__, "scipy": scipy.__version__,
        "workers": diagnostics.ensemble_workers(),
        "config": cfg.to_dict(),
        "solver": {"tol_picard": TOL_PICARD, "max_picard": MAX_PICARD},  # fixed, not config
        "dt": cfg.dt,
        "effective_seed": cfg.noise["seed"],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_csv(path: str, rows: list, slope: float | None):
    """One row per value; a statistic that is None (every path at that
    value failed) is an empty cell."""
    cols = ["value", "div_l2t", "max_E_mean", "sum_D_mean", "frac_stopped", "failed"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else repr(row[c]) if c in ("value", "failed")
                              else _fmt(row[c]) for c in cols))
    if slope is not None:
        lines.append(f"# fitted log-log slope: {_fmt(slope)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg: RunConfig, problem: PathProblem, out_dir: str | None = None) -> int:
    """Execute the configured run on ``build_problem(cfg)``; returns the
    process exit status."""
    out = out_dir or cfg.output["directory"]
    os.makedirs(out, exist_ok=True)
    write_manifest(os.path.join(out, "manifest.json"), cfg)
    mode = cfg.run["mode"]

    if mode == "path":
        try:
            traj = run_path(problem, 0)
        except diagnostics.PATH_FAILURES + (InitialDataError,) as exc:
            print(f"path failed: {exc}", file=sys.stderr)
            return 1
        write_ledger_csv(os.path.join(out, "ledger.csv"), traj)
        print(f"path run complete: {traj.n_steps} steps, tau_idx={traj.tau_idx}")
        return 0

    if mode == "ensemble":
        M = cfg.run["M"]
        report = diagnostics.ensemble_run(problem, M, out)
        with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if report.failures:
            print(f"ensemble failed: {len(report.failures)} of {M} paths", file=sys.stderr)
            return 1
        print(f"ensemble complete: {M} paths")
        return 0

    rows, slope = sweep(cfg, problem)
    write_sweep_csv(os.path.join(out, "table.csv"), rows, slope)
    failed = sum(row["failed"] for row in rows)
    if failed:
        total = len(rows) * cfg.run["M"]
        print(f"sweep failed: {failed} of {total} paths", file=sys.stderr)
        return 1
    fitted = "n/a" if slope is None else f"{slope:.4f}"
    print(f"sweep complete over {cfg.run['sweep_axis']}: slope {fitted}")
    return 0


# ----------------------------------------------------------------------
# entry point


def _number_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stochfsi",
                                     description="stochastic FSI splitting-scheme runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a path/ensemble/sweep per the config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--mode", choices=["path", "ensemble", "sweep"])
    p_run.add_argument("--paths", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out")

    p_val = sub.add_parser("validate", help="validate a config and exit")
    p_val.add_argument("--config", required=True)

    p_sw = sub.add_parser("sweep", help="sweep N or epsilon over a value list")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--axis", required=True, choices=["N", "epsilon"])
    p_sw.add_argument("--values", required=True, type=_number_list)
    p_sw.add_argument("--out")

    args = parser.parse_args(argv)
    overrides = {}
    if args.command == "run":
        overrides = {("run", "mode"): args.mode, ("run", "M"): args.paths,
                     ("run", "master_seed"): args.seed, ("noise", "seed"): args.seed}
    elif args.command == "sweep":
        overrides = {("run", "mode"): "sweep", ("run", "sweep_axis"): args.axis,
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
    except (ConfigError, InitialDataError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config OK")
        return 0
    return run(cfg, problem, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
