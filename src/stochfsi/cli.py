"""Configuration, scenario construction and the command-line front end.

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

STOCHFSI_THREADS caps ensemble workers (speed only; results are keyed by
path index and do not depend on scheduling).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .discretization import HsForm, build_spaces
from .errors import ConfigError, InitialDataError
from .geometry import ReferenceDomain
from .noise import NoiseSpec
from .scheme import PathProblem, SchemeParams, Trajectory, run_path
from . import diagnostics

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
        "generator": "philox4x64-np",
        "sampling": "auto",
    },
    "run": {
        "mode": "path",
        "M": 1,
        "master_seed": 12345,
        "sweep_axis": None,
        "sweep_values": [],
        "halt_at_stop": False,
    },
    "solver": {"tol_picard": 1e-10, "max_picard": 50, "damping": 0.5, "damping_after": 20},
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
    solver: dict
    output: dict

    @property
    def dt(self) -> float:
        return self.time["T"] / self.time["N"]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


# sections whose field set depends on a "kind" discriminator
_OPEN_SECTIONS = {"pressure.", "initial.eta0.", "initial.v0.", "initial.u0."}


def _merge(defaults: dict, user: dict, path: str) -> dict:
    if path in _OPEN_SECTIONS:
        return dict(user) if user else dict(defaults)
    out = {}
    for key, dval in defaults.items():
        if isinstance(dval, dict):
            out[key] = _merge(dval, user.get(key, {}) or {}, f"{path}{key}.")
        else:
            out[key] = user.get(key, dval)
    for key in user:
        if key not in defaults:
            raise ConfigError(f"{path}{key}: unknown field")
    return out


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def parse_config(data: dict) -> RunConfig:
    """Validate a raw dict against the schema; all defaults resolved."""
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    merged = _merge(_DEFAULTS, data, "")
    d, p, t = merged["domain"], merged["physics"], merged["time"]
    _require(d["L"] > 0, f"domain.L: must be > 0, got {d['L']}")
    _require(d["R"] > 0, f"domain.R: must be > 0, got {d['R']}")
    _require(int(d["nz"]) >= 1, f"domain.nz: must be >= 1, got {d['nz']}")
    _require(int(d["nr"]) >= 1, f"domain.nr: must be >= 1, got {d['nr']}")
    d["nz"], d["nr"] = int(d["nz"]), int(d["nr"])
    _require(p["nu"] > 0, f"physics.nu: must be > 0, got {p['nu']}")
    _require(p["delta"] > 0, f"physics.delta: must be > 0, got {p['delta']}")
    _require(p["epsilon"] > 0, f"physics.epsilon: must be > 0, got {p['epsilon']}")
    _require(1.5 < p["s"] < 2.0, f"physics.s: must lie in (3/2, 2), got {p['s']}")
    _require(t["T"] > 0, f"time.T: must be > 0, got {t['T']}")
    _require(int(t["N"]) >= 1, f"time.N: must be >= 1, got {t['N']}")
    t["N"] = int(t["N"])

    pr = merged["pressure"]
    kind = pr.get("kind")
    if kind == "constant":
        pr.setdefault("P_in", 0.0)
        pr.setdefault("P_out", 0.0)
    elif kind == "table":
        for key in ("times", "P_in", "P_out"):
            _require(key in pr and isinstance(pr[key], list) and pr[key],
                     f"pressure.{key}: table kind needs a nonempty list")
        _require(len(pr["times"]) == len(pr["P_in"]) == len(pr["P_out"]),
                 "pressure.times/P_in/P_out: lengths must match")
        _require(pr["times"][0] == 0.0, "pressure.times: must start at 0")
        _require(all(a < b for a, b in zip(pr["times"], pr["times"][1:])),
                 "pressure.times: must be strictly increasing")
    elif kind == "half-sine":
        pr.setdefault("amplitude", 1.0)
        pr.setdefault("duration", t["T"])
        pr.setdefault("side", "in")
        _require(pr["duration"] > 0, "pressure.duration: must be > 0")
        _require(pr["side"] in ("in", "out"), "pressure.side: must be 'in' or 'out'")
    else:
        raise ConfigError(f"pressure.kind: unknown kind {kind!r}")

    for name in ("eta0", "v0"):
        spec = merged["initial"][name]
        if spec.get("kind") not in ("zero", "bump", "sine2"):
            raise ConfigError(f"initial.{name}.kind: unknown kind {spec.get('kind')!r}")
        if spec["kind"] != "zero":
            _require("amplitude" in spec, f"initial.{name}.amplitude: required")
    u0 = merged["initial"]["u0"]
    if u0.get("kind") not in ("zero", "parabolic"):
        raise ConfigError(f"initial.u0.kind: unknown kind {u0.get('kind')!r}")
    if u0["kind"] != "zero":
        _require("amplitude" in u0, "initial.u0.amplitude: required")

    nz = merged["noise"]
    nz["K"] = int(nz["K"])
    if nz["seed"] is None:
        nz["seed"] = int(merged["run"]["master_seed"])
    # NoiseSpec re-validates; surface its complaints with field names
    NoiseSpec(K=nz["K"], q=np.asarray(nz["q"], dtype=float),
              amplitude=np.asarray(nz["amplitude"], dtype=float),
              seed=int(nz["seed"]), generator_id=nz["generator"],
              sampling=nz["sampling"])

    r = merged["run"]
    _require(r["mode"] in ("path", "ensemble", "sweep"),
             f"run.mode: unknown mode {r['mode']!r}")
    _require(int(r["M"]) >= 1, f"run.M: must be >= 1, got {r['M']}")
    r["M"] = int(r["M"])
    if r["mode"] == "sweep":
        _require(r["sweep_axis"] in ("N", "epsilon"),
                 f"run.sweep_axis: must be 'N' or 'epsilon', got {r['sweep_axis']!r}")
        _require(len(r["sweep_values"]) >= 1, "run.sweep_values: need at least one value")

    s = merged["solver"]
    _require(s["tol_picard"] > 0, "solver.tol_picard: must be > 0")
    _require(int(s["max_picard"]) >= 1, "solver.max_picard: must be >= 1")
    s["max_picard"] = int(s["max_picard"])
    _require(0 < s["damping"] <= 1, "solver.damping: must lie in (0, 1]")

    cfg = RunConfig(**merged)
    # admissibility of the initial wall configuration is a load-time error
    problem = build_problem(cfg)
    from .scheme import check_initial_admissibility

    check_initial_admissibility(problem)
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return parse_config(data)


def with_axis_value(cfg: RunConfig, axis: str, value) -> RunConfig:
    data = json.loads(json.dumps(cfg.to_dict()))
    if axis == "N":
        data["time"]["N"] = int(value)
    else:
        data["physics"]["epsilon"] = float(value)
    data["run"]["mode"] = "ensemble"
    return parse_config(data)


# ----------------------------------------------------------------------
# scenario construction


def step_pressures(cfg: RunConfig):
    """Step-averaged pressure data (P_in^n, P_out^n), n = 0..N-1."""
    N, T = cfg.time["N"], cfg.time["T"]
    dt = cfg.dt
    pr = cfg.pressure
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


def _wall_shape(spec: dict, L: float):
    kind = spec["kind"]
    if kind == "zero":
        return (lambda z: np.zeros_like(z)), (lambda z: np.zeros_like(z))
    a = float(spec["amplitude"])
    if kind == "sine2":
        return (
            lambda z: a * np.sin(np.pi * z / L) ** 2,
            lambda z: a * np.pi / L * np.sin(2 * np.pi * z / L),
        )
    return None, None  # bump handled nodally


def build_problem(cfg: RunConfig) -> PathProblem:
    """Spaces, forms scaffolding and initial vectors for one scenario."""
    domain = ReferenceDomain(L=cfg.domain["L"], R=cfg.domain["R"],
                             nz=cfg.domain["nz"], nr=cfg.domain["nr"])
    fluid, structure, layout = build_spaces(domain, domain.nz)
    params = SchemeParams(
        nu=cfg.physics["nu"], delta=cfg.physics["delta"],
        epsilon=cfg.physics["epsilon"], s=cfg.physics["s"], dt=cfg.dt,
        tol_picard=cfg.solver["tol_picard"], max_picard=cfg.solver["max_picard"],
        damping=cfg.solver["damping"], damping_after=cfg.solver["damping_after"],
    )
    hs_form = HsForm(structure, cfg.physics["s"])
    noise_spec = NoiseSpec(
        K=cfg.noise["K"], q=np.asarray(cfg.noise["q"], dtype=float),
        amplitude=np.asarray(cfg.noise["amplitude"], dtype=float),
        seed=int(cfg.noise["seed"]), generator_id=cfg.noise["generator"],
        sampling=cfg.noise["sampling"],
    )

    L = domain.L

    def beam_vector(spec_dict, what):
        if spec_dict["kind"] == "bump":
            full = np.zeros(structure.ndof_full)
            mid_node = structure.n_el // 2
            if not 0 < mid_node < structure.n_el:
                raise ConfigError(f"initial.{what}: bump needs an interior structure node (nz >= 2)")
            full[2 * mid_node] = float(spec_dict["amplitude"])
            return full[structure.free]
        f, fp = _wall_shape(spec_dict, L)
        from .geometry import WallProfile
        return structure.from_profile(WallProfile.from_callable(L, structure.n_el, f, fp))

    eta0 = beam_vector(cfg.initial["eta0"], "eta0")
    v0 = beam_vector(cfg.initial["v0"], "v0")

    u_spec = cfg.initial["u0"]
    if u_spec["kind"] == "zero":
        u0 = np.zeros(fluid.n_free)
    else:
        a = float(u_spec["amplitude"])
        u0 = fluid.interpolate(lambda z, r: a * (1 - r**2), lambda z, r: np.zeros_like(z))

    P_in, P_out = step_pressures(cfg)
    return PathProblem(
        fluid=fluid, structure=structure, layout=layout, params=params,
        noise=noise_spec, hs_form=hs_form, N=cfg.time["N"],
        P_in=P_in, P_out=P_out, u0=u0, v0=v0, eta0=eta0,
        halt_at_stop=bool(cfg.run["halt_at_stop"]),
    )


# ----------------------------------------------------------------------
# artifacts


_LEDGER_COLUMNS = ("step", "t", "E", "E_half", "D", "C1", "C2", "div_residual",
                   "theta", "min_gap", "hs_norm", "stoch_work", "incr_norm", "stopped")


def _fmt(x) -> str:
    return repr(float(x))


def write_ledger_csv(path: str, traj: Trajectory):
    led = traj.ledger
    lines = [",".join(_LEDGER_COLUMNS)]
    for n in range(traj.n_steps):
        stopped = 1 if (n + 1) >= traj.tau_idx and traj.theta[n + 1] == 0 else 0
        row = [
            str(n), _fmt(n * traj.dt), _fmt(led.E[n]), _fmt(led.E_half[n]),
            _fmt(led.D[n]), _fmt(led.C1[n]), _fmt(led.C2[n]),
            _fmt(led.div_residual[n]), str(int(led.theta[n])),
            _fmt(led.min_gap[n]), _fmt(led.hs_norm[n]), _fmt(led.stoch_work[n]),
            _fmt(led.incr_norm[n]), str(stopped),
        ]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(path: str, cfg: RunConfig, extra: dict | None = None):
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "dt": cfg.dt,
        "effective_seed": cfg.noise["seed"],
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_csv(path: str, result):
    cols = ["value", "div_l2t", "max_E_mean", "sum_D_mean", "frac_stopped"]
    lines = [",".join(cols)]
    for row in result.rows:
        lines.append(",".join(_fmt(row[c]) if c != "value" else repr(row[c]) for c in cols))
    if result.slope is not None:
        lines.append(f"# fitted log-log slope: {_fmt(result.slope)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg: RunConfig, out_dir: str | None = None) -> int:
    """Execute the configured run; returns the process exit status."""
    out = out_dir or cfg.output["directory"]
    os.makedirs(out, exist_ok=True)
    mode = cfg.run["mode"]
    problem = build_problem(cfg)

    if mode == "path":
        write_manifest(os.path.join(out, "manifest.json"), cfg, {"mode": "path"})
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
        write_manifest(os.path.join(out, "manifest.json"), cfg, {"mode": "ensemble", "M": M})
        report, trajectories = ensemble_with_ledgers(problem, M, out)
        with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"ensemble complete: {M} paths, {len(report.failures)} failures")
        return 0

    # sweep
    axis = cfg.run["sweep_axis"]
    values = cfg.run["sweep_values"]
    write_manifest(os.path.join(out, "manifest.json"), cfg,
                   {"mode": "sweep", "axis": axis, "values": values})
    result = diagnostics.sweep(cfg, axis, values)
    write_sweep_csv(os.path.join(out, "table.csv"), result)
    slope = "n/a" if result.slope is None else f"{result.slope:.4f}"
    print(f"sweep complete over {axis}: slope {slope}")
    return 0


def ensemble_with_ledgers(problem: PathProblem, M: int, out: str):
    """Ensemble run that also writes one ledger CSV per path."""
    report, trajectories = diagnostics.ensemble_run(problem, M, keep="trajectory")
    for i, traj in enumerate(trajectories):
        if traj is not None:
            write_ledger_csv(os.path.join(out, f"ledger_{i:04d}.csv"), traj)
    return report, trajectories


# ----------------------------------------------------------------------
# entry point


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
    p_sw.add_argument("--values", required=True)
    p_sw.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, InitialDataError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config OK")
        return 0

    if args.command == "sweep":
        data = cfg.to_dict()
        data["run"]["mode"] = "sweep"
        data["run"]["sweep_axis"] = args.axis
        vals = [float(v) if args.axis == "epsilon" else int(v)
                for v in args.values.split(",") if v]
        data["run"]["sweep_values"] = vals
        cfg = parse_config(data)
        return run(cfg, args.out)

    # run
    data = cfg.to_dict()
    if args.mode:
        data["run"]["mode"] = args.mode
    if args.paths:
        data["run"]["M"] = args.paths
    if args.seed is not None:
        data["run"]["master_seed"] = args.seed
        data["noise"]["seed"] = args.seed
    cfg = parse_config(data)
    return run(cfg, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
