import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stochfsi.cli import build_problem, parse_config, problem_at_axis_value, sweep
from stochfsi.diagnostics import ensemble_run


def make_config(**overrides):
    """Small noisy default scenario used across the suite."""
    base = {
        "domain": {"L": 1.0, "R": 1.0, "nz": 8, "nr": 4},
        "physics": {"nu": 1.0, "delta": 0.1, "epsilon": 1e-3, "s": 1.75},
        "time": {"T": 0.5, "N": 16},
        "pressure": {"kind": "constant", "P_in": 1.0, "P_out": 0.0},
        "initial": {
            "eta0": {"kind": "sine2", "amplitude": 0.1},
            "v0": {"kind": "zero"},
            "u0": {"kind": "parabolic", "amplitude": 0.5},
        },
        "noise": {
            "K": 4,
            "q": [1.0, 0.25, 1.0 / 9.0, 0.0625],
            "amplitude": [1.0, 0.5, 0.3, 0.2],
            "seed": 1234,
        },
    }

    def deep_update(dst, src):
        # a section with a "kind" is replaced whole: its fields depend on the kind
        for k, v in src.items():
            if isinstance(v, dict) and isinstance(dst.get(k), dict) and "kind" not in v:
                deep_update(dst[k], v)
            else:
                dst[k] = v

    deep_update(base, overrides)
    return parse_config(base)


def make_problem(**overrides):
    return build_problem(make_config(**overrides))


def sweep_table(cfg, problem):
    """A sweep config's (rows, slope), from one ensemble per axis value
    derived from ``problem``, the build of ``cfg``, as ``cli.run`` runs it."""
    return sweep(cfg, [ensemble_run(problem_at_axis_value(cfg, problem, v), cfg.run["M"])
                       for v in cfg.run["sweep_values"]])


# a config whose Picard iteration really diverges under the fixed tolerance
# and budget (scheme.TOL_PICARD, MAX_PICARD): every path of it raises
# PicardDivergence at its second step, at epsilon 1e-2 and 1e-3 alike
DIVERGING = {"domain": {"L": 4.0, "R": 0.5, "nz": 4, "nr": 3},
             "physics": {"nu": 0.01, "epsilon": 0.01, "delta": 0.015},
             "time": {"T": 0.5, "N": 2},
             "pressure": {"kind": "constant", "P_in": -17.4, "P_out": 5.5}}


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
