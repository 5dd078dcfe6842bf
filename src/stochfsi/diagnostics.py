"""Energy-ledger verification, ensemble statistics, tightness and stochastic error.

The per-step inequalities are re-checked from ledger entries alone, in
two forms:

* the sharp form, keeping the pressure work as the signed number it is
  and bounding the stochastic pairing with the explicit Young weights
  (1, 1/4) on the fluid side and (2, 1/8 -> 1/4 + 1/4) on the structure
  side; no unknown constants appear;

* the classical form with the pressure work absorbed into half the
  dissipation through the per-step trace constant, and the stochastic
  bound written as C_G * ||dW||^2 * ||G||_HS^2 with C_G = 2 max(1/delta, 1).

Both must hold at every step of every path up to roundoff.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from .errors import ConfigError, DegenerateJacobian, PicardDivergence, SolverFailure
from .scheme import EnergyLedger, PathProblem, Trajectory, run_path


# ----------------------------------------------------------------------
# inequality checks (all return signed violations; <= 0 means satisfied)


def _scale(led) -> np.ndarray:
    return np.maximum.reduce([led.E[:-1], led.E[1:], led.E_half, np.ones_like(led.D)])


def structure_identity_residuals(traj: Trajectory) -> np.ndarray:
    """|E^{n+1/2} + C1 - E^n| / scale; exact algebra up to roundoff."""
    led = traj.ledger
    res = led.E_half + led.C1 - led.E[: traj.n_steps]
    return np.abs(res) / _scale(led)


def _estimate(traj: Trajectory, delta: float | None, sharp: bool):
    """Per-step (dissipation, gain) of the fluid estimate in its sharp or
    classical form (see the module docstring); the checks below add the
    energies and the structure dissipation around them."""
    led = traj.ledger
    if sharp:
        return led.D, (traj.dt * led.pressure_work + led.S_bound
                       + np.abs(led.stoch_work) + 0.25 * led.vhalf_gap_sq)
    c_g = 2.0 * max(1.0 / delta, 1.0)
    return 0.5 * led.D, (0.5 * led.trace_const * traj.dt * (led.P_in**2 + led.P_out**2)
                         + c_g * led.incr_norm**2 * led.g_hs_sq
                         + np.abs(led.stoch_work) + 0.25 * led.vhalf_gap_sq)


def fluid_inequality_violations(traj: Trajectory, delta: float, sharp: bool = True) -> np.ndarray:
    """Signed, scale-normalized violation of the fluid substep's estimate,
    in its sharp pre-absorption form

    E^{n+1} + D + C2 <= E^{n+1/2} + dt*PW + S_bound + |(G dW, U^n)|
                         + 1/4 ||v^{n+1/2} - v^n||^2,

    or in its classical shape

    E^{n+1} + D/2 + C2 <= E^{n+1/2} + C_P dt (P_in^2 + P_out^2)
        + C_G ||dW||^2 ||G||_HS^2 + |(G dW, U^n)| + 1/4 ||v^{n+1/2}-v^n||^2,

    with C_P = trace_const/2 (per step) and C_G = 2 max(1/delta, 1).
    Absorbing the inlet/outlet trace costs half the dissipation; that is
    the sharpest constant the Cauchy-Schwarz/Young chain provides.
    """
    led = traj.ledger
    diss, gain = _estimate(traj, delta, sharp)
    return (led.E[1:] + diss + led.C2 - (led.E_half + gain)) / _scale(led)


def combined_step_violations(traj: Trajectory, delta: float, sharp: bool = True) -> np.ndarray:
    """One-step inequality with both substeps folded together,
    E^{n+1} + D' + C1 + C2 <= E^n + (pressure) + (noise) + |(G dW, U^n)| + 1/4 gap."""
    led = traj.ledger
    diss, gain = _estimate(traj, delta, sharp)
    return (led.E[1:] + diss + led.C1 + led.C2 - (led.E[:-1] + gain)) / _scale(led)


def summed_inequality_violations(traj: Trajectory, delta: float, sharp: bool = True) -> np.ndarray:
    """Violations of the summed pathwise estimate for every horizon m <= N:
    E^m + sum(D' + C1 + C2) <= E^0 + sum(rhs terms)."""
    led = traj.ledger
    diss, gain = _estimate(traj, delta, sharp)
    lhs = led.E[1:] + np.cumsum(diss + led.C1 + led.C2)
    rhs = led.E[0] + np.cumsum(gain)
    scale = np.maximum(np.maximum(np.maximum.accumulate(led.E[1:]), led.E[0]), 1.0)
    return (lhs - rhs) / scale


def ledger_positivity_min(traj: Trajectory) -> float:
    led = traj.ledger
    return float(min(led.E.min(), led.E_half.min(), led.D.min(),
                     led.C1.min(), led.C2.min()))


def write_ledger_csv(path: str, traj: Trajectory):
    """The ledger as CSV, one row per step: ``step``, ``t``, every
    ``EnergyLedger`` field in declaration order (``E`` is the energy at the
    start of the step) and ``E_next``, the energy at its end.  Floats are
    shortest round-trip decimals, so the file reads back bit for bit."""
    led = traj.ledger
    names = [f.name for f in fields(EnergyLedger)]
    steps = np.arange(traj.n_steps)
    columns = [steps, steps * traj.dt]
    columns += [led.E[:-1] if name == "E" else getattr(led, name) for name in names]
    columns.append(led.E[1:])
    cells = [map(repr, col.tolist()) for col in columns]
    lines = [",".join(["step", "t", *names, "E_next"]), *map(",".join, zip(*cells))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# time-shift norms (tightness diagnostic)


def time_shift_norm(dt: float, values: np.ndarray, gram, h: float, T: float | None = None) -> float:
    """Exact Int_h^T || X(t-h) - X(t) ||^2 dt for a piecewise-constant X.

    ``values`` holds X's value on each subinterval [n dt, (n+1) dt);
    ``gram`` is the spatial Gram matrix of the norm.  The integrand is
    piecewise constant between the merged breakpoints {n dt} u {n dt + h},
    so the integral is a finite sum of overlap lengths times squared
    differences; no quadrature error.
    """
    n = values.shape[0]
    if T is None:
        T = n * dt
    if not 0 < h < T:
        raise ConfigError(f"time shift h must lie in (0, T), got {h}")
    breaks = np.concatenate([np.arange(n + 1) * dt, np.arange(n + 1) * dt + h])
    breaks = np.unique(np.clip(breaks, h, T))
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a <= 0:
            continue
        tm = 0.5 * (a + b)
        i1 = min(int(tm / dt), n - 1)
        i0 = min(int((tm - h) / dt), n - 1)
        if i0 == i1:
            continue
        d = values[i1] - values[i0]
        total += (b - a) * float(d @ (gram @ d))
    return total


def tightness_diagnostic(traj: Trajectory, gram_u, gram_v, k_max: int = 8) -> dict:
    """sup over the dyadic grid h = 2^-k T of h^(-1/32) * (shift integral of
    the shifted fluid and wall velocities).  Reported, not thresholded:
    the exponent is a proof artifact and only boundedness is meaningful.
    """
    T = traj.n_steps * traj.dt
    out = {"h": [], "integral": [], "scaled": []}
    for k in range(1, k_max + 1):
        h = T * 0.5**k
        if h <= 0 or h >= T:
            continue
        iu = time_shift_norm(traj.dt, traj.u[1:], gram_u, h, T)
        iv = time_shift_norm(traj.dt, traj.v[1:], gram_v, h, T)
        out["h"].append(h)
        out["integral"].append(iu + iv)
        out["scaled"].append((iu + iv) * h ** (-1.0 / 32.0))
    out["sup_scaled"] = max(out["scaled"]) if out["scaled"] else 0.0
    return out


# ----------------------------------------------------------------------
# stochastic discretization error


def stochastic_error(traj: Trajectory, refinement: int) -> float:
    """Estimate of Int_0^T || E_N(t) ||^2 dt, the defect between the
    increment-based forcing and the true stochastic integral with the
    coefficient frozen at each level.

    Within step m the defect is G(U^m, eta*^m) applied to
    (t - t^m)/dt * dW_m - (W(t) - W(t^m)); the path is refined in place
    by Brownian bridges keyed by the same seed, so this is an honest
    sub-sampling of the very realization the scheme consumed.
    """
    if refinement < 2:
        raise ConfigError(f"refinement: must be >= 2, got {refinement}")
    spec = traj.noise.spec
    if spec.K == 0:
        return 0.0
    dt = traj.dt
    total = 0.0
    jfrac = np.arange(refinement + 1) / refinement
    for m in range(traj.n_steps):
        sub = traj.noise.refine(m, refinement)
        beta = np.concatenate([[0.0], np.cumsum(sub @ spec.amplitude)])
        defect = jfrac * traj.ledger.xi[m] - beta
        integral = float(np.trapezoid(defect**2, dx=dt / refinement))
        total += traj.ledger.g_state_sq[m] * integral
    return total


# ----------------------------------------------------------------------
# ensembles


_STAT_NAMES = ("max_E", "sum_D", "sum_C1", "sum_C2", "div_sq_int")


def path_statistics(traj: Trajectory) -> dict:
    led = traj.ledger
    return {
        "max_E": float(led.E[1:].max()) if traj.n_steps else float(led.E[0]),
        "sum_D": float(led.D.sum()),
        "sum_C1": float(led.C1.sum()),
        "sum_C2": float(led.C2.sum()),
        "div_sq_int": float(traj.dt * np.sum(led.div_residual**2)),
        "stopped": bool(traj.stopped),
        "tau_time": float(traj.tau_time),
        "tau_idx": int(traj.tau_idx),
    }


def _summary(xs: list) -> dict:
    """Mean, sample variance, 95% half-width and count of ``xs``; a value
    that needs more samples than there are is None."""
    x = np.asarray(xs, dtype=float)
    n = x.size
    var = float(x.var(ddof=1)) if n > 1 else None
    return {"mean": float(x.mean()) if n else None, "var": var,
            "ci95": 1.96 * float(np.sqrt(var / n)) if n > 1 else None, "n": n}


@dataclass
class EnsembleReport:
    """Statistics over the paths that did not fail; each is None when
    too few survived to define it."""

    M: int
    stats: dict
    frac_stopped: float | None
    mean_tau: float | None
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


# failures of one path that leave the rest of an ensemble meaningful
PATH_FAILURES = (PicardDivergence, SolverFailure, DegenerateJacobian)


def _run_one(problem: PathProblem, ledger_dir: str | None, idx: int):
    """Run path ``idx``, write its ledger into ``ledger_dir`` when one is
    given, and return (index, statistics, error)."""
    try:
        traj = run_path(problem, idx)
    except PATH_FAILURES as exc:
        return idx, None, f"{type(exc).__name__}: {exc}"
    if ledger_dir is not None:
        write_ledger_csv(os.path.join(ledger_dir, f"ledger_{idx:04d}.csv"), traj)
    return idx, path_statistics(traj), None


def ensemble_workers() -> int:
    """The STOCHFSI_THREADS worker processes of an ensemble (default 1)."""
    raw = os.environ.get("STOCHFSI_THREADS", "1") or "1"
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"STOCHFSI_THREADS: must be an integer, got {raw!r}") from None


def ensemble_run(problem: PathProblem, M: int, ledger_dir: str | None = None) -> EnsembleReport:
    """Run M seeded paths and aggregate ledger statistics in path order;
    with ``ledger_dir`` each path also writes ``ledger_<index>.csv`` there.

    Per-path failures are recorded, never fatal, and a failed path writes
    no ledger.  The STOCHFSI_THREADS environment variable caps the worker
    processes and can only change speed, not results, because paths are
    keyed by index.
    """
    if M < 1:
        raise ConfigError(f"run.M: must be >= 1, got {M}")
    run_one = partial(_run_one, problem, ledger_dir)
    if (workers := ensemble_workers()) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run_one, range(M)))
    else:
        results = list(map(run_one, range(M)))

    survived = [stats for _, stats, err in results if err is None]
    return EnsembleReport(
        M=M,
        stats={name: _summary([s[name] for s in survived]) for name in _STAT_NAMES},
        frac_stopped=_summary([s["stopped"] for s in survived])["mean"],
        mean_tau=_summary([s["tau_time"] for s in survived])["mean"],
        failures=[{"path": idx, "error": err} for idx, _, err in results if err is not None],
    )
