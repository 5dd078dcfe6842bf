"""The correctness gate every verified path must pass.

Ledger checks: the structure-substep identity residual and the sharp and
classical one-step and summed inequality violations must all be at most
TOL_ROUNDOFF, the test suite's normalized roundoff floor.

Reference: at the default seed, each path's final energy, summed
dissipation, summed numerical dissipation C1 + C2 and stopping index
must match reference.json.  The float fields are compared with the
relative tolerance REF_RTOL, not bit for bit, so that a change of
summation order in assembly is not a failure; the Picard tolerance is
1e-10, so deviations far below 1e-6 are expected from such a change.
tau_idx must match exactly.
"""

from __future__ import annotations

import math

from stochfsi import diagnostics

TOL_ROUNDOFF = 1e-9
REF_RTOL = 1e-6
_FLOAT_KEYS = ("E_final", "sum_D", "sum_C")


def ledger_violations(traj, delta: float) -> dict:
    """Worst value of each ledger check; each must be <= TOL_ROUNDOFF."""
    worst = lambda a: float(a.max())
    return {
        "structure_identity": worst(diagnostics.structure_identity_residuals(traj)),
        "step_sharp": worst(diagnostics.combined_step_violations(traj, delta, sharp=True)),
        "step_classical": worst(diagnostics.combined_step_violations(traj, delta, sharp=False)),
        "summed_sharp": worst(diagnostics.summed_inequality_violations(traj, delta, sharp=True)),
        "summed_classical": worst(
            diagnostics.summed_inequality_violations(traj, delta, sharp=False)),
    }


def ledger_error(traj, delta: float) -> str | None:
    """None when every ledger check passes, else a message naming the failures."""
    bad = {k: v for k, v in ledger_violations(traj, delta).items()
           if not v <= TOL_ROUNDOFF}  # a NaN fails too
    if not bad:
        return None
    return "ledger check failed: " + ", ".join(f"{k} {v:.3e}" for k, v in bad.items())


def path_summary(traj) -> dict:
    led = traj.ledger
    return {
        "E_final": float(led.E[-1]),
        "sum_D": float(led.D.sum()),
        "sum_C": float((led.C1 + led.C2).sum()),
        "tau_idx": int(traj.tau_idx),
    }


def reference_deviation(summary: dict, ref: dict) -> float:
    """Largest relative deviation of the float fields; inf if tau_idx differs."""
    if summary["tau_idx"] != ref["tau_idx"]:
        return math.inf
    return max(abs(summary[k] - ref[k]) / max(abs(ref[k]), 1e-300) for k in _FLOAT_KEYS)


def ledgers_identical(a, b) -> bool:
    """Bit-for-bit equality of two EnergyLedgers, field by field."""
    fa, fb = vars(a), vars(b)
    return fa.keys() == fb.keys() and all(
        fa[k].dtype == fb[k].dtype and fa[k].shape == fb[k].shape
        and fa[k].tobytes() == fb[k].tobytes()
        for k in fa)
