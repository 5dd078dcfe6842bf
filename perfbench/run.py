"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory and nowhere else, so the benchmark
measures the checkout it sits in.  The last line of standard output is
the result object; the line before it holds the run's details and
environment.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BLAS/OpenMP pools are pinned to one thread before numpy loads: every
# workload is serial, and a second thread would only add noise on 2 cores
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_package() -> str | None:
    """Pin the thread pools and import stochfsi from this checkout's src/.
    Returns None on success, else the reason it failed."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stochfsi
    except ImportError as exc:
        return f"cannot import stochfsi from {src}: {exc}"
    if Path(stochfsi.__file__).resolve().parent.parent != src:
        return f"stochfsi was imported from {stochfsi.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = load_package()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import harness

    harness.main(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
