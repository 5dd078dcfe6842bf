"""One benchmark run: set-up, the measured phase, the correctness gate and
the result line.  README.md defines the metrics and the workloads.

A timed run (``--trace 0``) measures the end-to-end metrics with nothing
patched.  A traced run (``--trace 1``) runs a fixed number of paths twice,
once plain and once with span-recording wrappers installed, and reports
the per-layer metrics; both copies of a path must give the same ledger.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from stochfsi import cli, discretization, geometry, scheme

import gate
import spans
from workloads import DEFAULT_SEED

# before each path of a timed run, set-up repeats at least SETUP_REPS
# times and for at least SETUP_SECONDS
SETUP_REPS = 3
SETUP_SECONDS = 0.1
REFERENCE = Path(__file__).resolve().parent / "reference.json"

END_TO_END = {"steps_per_s": "steps/s", "path_s_p50": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}

# every span is reported as <name>.s (total duration), <name>.self_s
# (duration minus its children) and <name>.calls
SPAN_NAMES = (
    "scheme.run_path",
    "scheme.structure_step",
    "scheme.update_cutoff",
    "scheme.fluid_step",
    "scheme.trace_dissipation_constant",
    "discretization.assemble_all",
    "discretization.assemble_advection",
    "discretization.HsForm",
    "linalg.splu",
    "noise.sample_path",
    "geometry.WallProfile.value",
    "geometry.WallProfile.min_value",
    "diagnostics.checks",
    "cli.parse_config",
    "cli.build_problem",
    "cli.write_ledger_csv",
)
COUNTS = {
    "scheme.picard_iters_per_step": "iters/step",
    "scheme.forms_cache_hit_ratio": "ratio",
    "linalg.splu.n": "count",
    "linalg.splu.nnz_lu": "count",
    "cli.write_ledger_csv.bytes": "B",
    "trace_overhead_frac": "ratio",
}

# every workload reaches every layer; a layer a traced run records no
# call of fails the run, so a refactor that rebinds a name shows up here
REQUIRED = SPAN_NAMES + ("linalg.splu.n", "cli.write_ledger_csv.bytes")


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.s": "s", f"{name}.self_s": "s", f"{name}.calls": "count"})
    units.update(COUNTS)
    return units


# ----------------------------------------------------------------------
# units of work


@dataclass
class PathRun:
    """One verified path."""

    index: int
    seconds: float
    n_steps: int
    error: str | None
    summary: dict | None = None
    traj: object = None  # kept only where a later check needs it


def verified_path(problem, index: int, out_dir: str, tracer=None):
    """run_path, the ledger checks, then the ledger CSV, as
    cli.ensemble_with_ledgers does per path.  Returns (trajectory, error)."""
    try:
        traj = scheme.run_path(problem, index)
        with tracer.span("diagnostics.checks") if tracer else nullcontext():
            error = gate.ledger_error(traj, problem.params.delta)
        cli.write_ledger_csv(os.path.join(out_dir, f"ledger_{index:04d}.csv"), traj)
    except Exception as exc:  # a failing path is counted, never fatal
        return None, f"{type(exc).__name__}: {exc}"
    return traj, error


def path_step(problem, wl, out_dir, tracer=None, keep=False):
    def step(k: int) -> PathRun:
        index = k % wl.cycle
        t0 = time.perf_counter()
        traj, error = verified_path(problem, index, out_dir, tracer)
        seconds = time.perf_counter() - t0
        if traj is None:
            return PathRun(index, seconds, 0, error)
        return PathRun(index, seconds, traj.n_steps, error, gate.path_summary(traj),
                       traj if keep else None)
    return step


# ----------------------------------------------------------------------
# correctness


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    steps: int = 0          # time steps of the paths that passed
    max_ref_dev: float = 0.0
    errors: list = field(default_factory=list)

    def note(self, msg: str):
        if len(self.errors) < 20:
            self.errors.append(msg)


def path_error(run: PathRun, reference, verdict: Verdict) -> str | None:
    """The path's error: raised, failed a ledger check, or missed the reference."""
    if run.error is not None or reference is None:
        return run.error
    dev = gate.reference_deviation(run.summary, reference[run.index])
    verdict.max_ref_dev = max(verdict.max_ref_dev, dev)
    if not dev <= gate.REF_RTOL:
        return f"reference miss: relative deviation {dev:.3e}"
    return None


def check_paths(runs: list, reference, verdict: Verdict) -> None:
    for r in runs:
        error = path_error(r, reference, verdict)
        verdict.attempted += 1
        if error is None:
            verdict.steps += r.n_steps
        else:
            verdict.failed += 1
            verdict.note(f"path {r.index}: {error}")


# ----------------------------------------------------------------------
# timed run


def setup(config_of) -> tuple:
    t0 = time.perf_counter()
    problem = cli.build_problem(cli.parse_config(config_of()))
    return problem, time.perf_counter() - t0


def setup_times(config_of) -> list:
    """Time set-up at least SETUP_REPS times and for at least SETUP_SECONDS."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        times.append(setup(config_of)[1])
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(wl, config_of, seconds, out_dir, reference):
    """Verified paths back to back for ``seconds``, each one preceded by a
    few set-ups.  The run stops at the path boundary nearest to
    ``seconds``, so a workload with long paths does not overrun by a
    whole path.  The machine this was tuned on runs slow for spells of
    tens of seconds; interleaving samples set-up over the same stretch of
    time as the units, so a slow spell shifts both alike instead of
    landing on set-up alone."""
    problem, first = setup(config_of)
    setups = [first]
    step = path_step(problem, wl, out_dir)
    runs = []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 + runs[-1].seconds / 2 < seconds:
        setups += setup_times(config_of)
        runs.append(step(len(runs)))
    elapsed = time.perf_counter() - t0
    verdict = Verdict()
    check_paths(runs, reference, verdict)
    path_s = [r.seconds for r in runs]
    busy = sum(path_s)  # the timed phase less its set-ups
    metrics = {
        "steps_per_s": verdict.steps / busy,
        "path_s_p50": statistics.median(path_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {"elapsed_s": elapsed, "busy_s": busy, "path_s": path_s,
               "setup_reps": len(setups)}
    return verdict, metrics, details


# ----------------------------------------------------------------------
# traced run


def trace_patches(tracer) -> list:
    """Where each layer is entered, patched where its caller looks it up."""

    def record_lu(lu, A, *args, **kwargs):
        tracer.peak("linalg.splu.n", A.shape[0])
        tracer.add("linalg.splu.nnz_total", lu.L.nnz + lu.U.nnz)

    def record_csv(_, path, *args, **kwargs):
        tracer.add("cli.write_ledger_csv.bytes", os.path.getsize(path))

    P = spans.Patch
    return [
        P(scheme, "run_path", "scheme.run_path"),
        P(scheme, "structure_step", "scheme.structure_step"),
        P(scheme, "update_cutoff", "scheme.update_cutoff"),
        P(scheme, "fluid_step", "scheme.fluid_step"),
        P(scheme, "trace_dissipation_constant", "scheme.trace_dissipation_constant"),
        P(scheme, "assemble_all", "discretization.assemble_all"),
        P(scheme, "assemble_advection", "discretization.assemble_advection"),
        P(discretization.HsForm, "__init__", "discretization.HsForm"),
        P(scheme.spla, "splu", "linalg.splu", after=record_lu),
        P(scheme, "sample_path", "noise.sample_path"),
        P(geometry.WallProfile, "value", "geometry.WallProfile.value"),
        P(geometry.WallProfile, "min_value", "geometry.WallProfile.min_value"),
        P(cli, "parse_config", "cli.parse_config"),
        P(cli, "build_problem", "cli.build_problem"),
        P(cli, "write_ledger_csv", "cli.write_ledger_csv", after=record_csv),
    ]


def traced_run(wl, config_of, out_dir, reference, spans_path: Path):
    """``trace_units`` pairs of paths, one plain and one traced, alternating
    which goes first so that a drift in machine speed cancels in
    ``trace_overhead_frac``."""
    verdict = Verdict()
    problem, _ = setup(config_of)
    tracer = spans.Tracer()
    patches = trace_patches(tracer)
    with spans.installed(tracer, patches):
        problem_t, _ = setup(config_of)
    plain_step = path_step(problem, wl, out_dir, keep=True)
    traced_step = path_step(problem_t, wl, out_dir, tracer=tracer, keep=True)
    plain, traced = [], []
    for k in range(wl.trace_units):
        for is_traced in (False, True) if k % 2 == 0 else (True, False):
            if is_traced:
                with spans.installed(tracer, patches):
                    traced.append(traced_step(k))
            else:
                plain.append(plain_step(k))

    check_paths(plain + traced, reference, verdict)
    for a, b in zip(plain, traced):
        if a.traj is None or b.traj is None or \
                not gate.ledgers_identical(a.traj.ledger, b.traj.ledger):
            verdict.note(f"path {a.index}: traced ledger differs from the plain one")
    trajs = [r.traj for r in traced if r.traj is not None]
    t_plain = sum(r.seconds for r in plain)
    t_traced = sum(r.seconds for r in traced)

    table = spans.summarize(tracer.spans)
    for name in REQUIRED:
        if not (table.get(name, {}).get("calls") or tracer.counts.get(name)):
            verdict.note(f"traced run never reached {name}")

    row = lambda name: table.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
    metrics = {}
    for name in SPAN_NAMES:
        metrics.update({f"{name}.{k}": v for k, v in row(name).items()})
    steps = sum(t.n_steps for t in trajs)
    splu_calls = row("linalg.splu")["calls"]
    assembled = row("discretization.assemble_all")["calls"]
    metrics.update({
        "scheme.picard_iters_per_step":
            sum(int(t.ledger.picard_iters.sum()) for t in trajs) / steps if steps else 0.0,
        "scheme.forms_cache_hit_ratio": 1.0 - assembled / steps if steps else 0.0,
        "linalg.splu.n": tracer.counts.get("linalg.splu.n", 0),
        "linalg.splu.nnz_lu":
            tracer.counts.get("linalg.splu.nnz_total", 0) / splu_calls if splu_calls else 0.0,
        "cli.write_ledger_csv.bytes": tracer.counts.get("cli.write_ledger_csv.bytes", 0),
        # both sides did the same work, so the ratio of rates is that of times
        "trace_overhead_frac": t_plain / t_traced - 1.0,
    })

    in_paths = spans.summarize(tracer.spans, within="scheme.run_path")
    path_s = row("scheme.run_path")["s"]
    shares = {name: r["self_s"] / path_s for name, r in in_paths.items()}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([[s.name, s.start, s.end, s.parent] for s in tracer.spans], fh)
    details = {"plain_s": t_plain, "traced_s": t_traced, "pairs": wl.trace_units,
               "self_share_of_path": shares, "spans_file": spans_path.name}
    return verdict, metrics, details


# ----------------------------------------------------------------------
# environment and the result line


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, wl, seed: int) -> dict:
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "STOCHFSI_THREADS": os.environ.get("STOCHFSI_THREADS"),
        "workload": wl.name,
        "seed": seed,
    }


def main(wl, seed: int, seconds: float, trace: bool, root: Path) -> None:
    """Run one workload and print the result line; an incorrect run is
    reported as ``"correct": false``, not by the exit status."""
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())["workloads"][wl.name]
    work_dir = root / ".bench_build" / "perfbench"
    work_dir.mkdir(parents=True, exist_ok=True)
    config_of = lambda: wl.config(seed)
    with tempfile.TemporaryDirectory(dir=work_dir) as out_dir:
        if trace:
            spans_path = work_dir / f"spans-{wl.name}-seed{seed}.json"
            verdict, values, details = traced_run(wl, config_of, out_dir, reference,
                                                  spans_path)
            units = per_layer_units()
        else:
            verdict, values, details = timed_run(wl, config_of, seconds, out_dir, reference)
            units = END_TO_END
    details.update({
        "environment": environment(root, wl, seed),
        "reference_checked": reference is not None,
        "reference_max_rel_dev": verdict.max_ref_dev,
        "errors": verdict.errors,
    })
    print(json.dumps({"perfbench": details}, sort_keys=True))
    print(json.dumps({
        "correct": verdict.failed == 0 and not verdict.errors,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
