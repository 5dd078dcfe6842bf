"""The benchmark's workloads: one seeded stochfsi config each.

Every workload is a plain config dict for ``cli.parse_config``; the seed
enters only as ``noise.seed`` and ``run.master_seed``, so the same seed
always yields the same inputs.  Why each workload exists is recorded in
``why`` (and in README.md); the numbers below are part of the benchmark's
definition and change only in a change that redefines the benchmark.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

DEFAULT_SEED = 0

# the noisy acceptance scenario of the test suite (criteria 1-5)
_NOISE_K3 = {"K": 3, "q": [1.0, 0.25, 1.0 / 9.0], "amplitude": [1.0, 0.5, 0.3],
             "sampling": "dyadic"}


def _noisy_channel(nz: int, nr: int, N: int) -> dict:
    return {
        "domain": {"L": 1.0, "R": 1.0, "nz": nz, "nr": nr},
        "physics": {"nu": 1.0, "delta": 0.1, "epsilon": 1e-3, "s": 1.75},
        "time": {"T": 0.5, "N": N},
        "pressure": {"kind": "constant", "P_in": 1.0, "P_out": 0.0},
        "initial": {"eta0": {"kind": "sine2", "amplitude": 0.1},
                    "v0": {"kind": "zero"},
                    "u0": {"kind": "parabolic", "amplitude": 0.5}},
        "noise": dict(_NOISE_K3),
    }


def _cutoff_channel() -> dict:
    # acceptance criterion 9: the inflow collapses the wall, the cutoff
    # engages at step 24 and eta* freezes; run to N without halting
    return {
        "domain": {"L": 4.0, "R": 1.0, "nz": 8, "nr": 4},
        "physics": {"nu": 1.0, "delta": 0.25, "epsilon": 1e-3, "s": 1.55},
        "time": {"T": 4.0, "N": 64},
        "pressure": {"kind": "constant", "P_in": -8.0, "P_out": -8.0},
        "initial": {"eta0": {"kind": "zero"}, "v0": {"kind": "zero"},
                    "u0": {"kind": "zero"}},
        "noise": {"K": 0, "q": [], "amplitude": []},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: dict
    # path indices cycle through range(cycle); reference.json holds them all
    cycle: int
    # pairs of paths, one plain and one traced, in a traced run
    trace_units: int

    def config(self, seed: int) -> dict:
        """A fresh config dict for ``seed``; equal seeds give equal dicts."""
        cfg = copy.deepcopy(self.base)
        cfg["noise"]["seed"] = int(seed)
        cfg["run"] = {"master_seed": int(seed), "halt_at_stop": False}
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ens-4x2-n256",
            why="the suite's 4x2 mesh at N=256: per-step overhead regime, "
                "assembly every step and advection every Picard iteration, LU tiny",
            base=_noisy_channel(4, 2, 256), cycle=8, trace_units=4,
        ),
        Workload(
            name="path-32x16-n32",
            why="32x16 mesh at N=32: sparse linear-algebra regime, "
                "_pad_fluid and splu dominate; largest set-up",
            base=_noisy_channel(32, 16, 32), cycle=4, trace_units=2,
        ),
        Workload(
            name="cutoff-8x4-n64",
            why="criterion-9 collapse: cutoff engages at step 24, so the forms "
                "cache skips assembly and the noise layer is idle",
            base=_cutoff_channel(), cycle=8, trace_units=8,
        ),
    )
}
