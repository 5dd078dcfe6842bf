"""Regenerate reference.json: the per-path summaries of every workload at
the default seed, for path indices 0..cycle-1.

    python3 perfbench/make_reference.py

Run it only in a change that redefines the benchmark or that states which
ledger numbers moved and by how much; the file is what later runs are
checked against.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    error = run.load_package()
    if error:
        print(error, file=sys.stderr)
        return 2
    from stochfsi import cli, scheme

    import gate
    from workloads import DEFAULT_SEED, WORKLOADS

    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, wl in WORKLOADS.items():
        problem = cli.build_problem(cli.parse_config(wl.config(DEFAULT_SEED)))
        rows = []
        for i in range(wl.cycle):
            traj = scheme.run_path(problem, i)
            error = gate.ledger_error(traj, problem.params.delta)
            if error:
                print(f"{name} path {i}: {error}", file=sys.stderr)
                return 1
            rows.append(gate.path_summary(traj))
        out["workloads"][name] = rows
        print(f"{name}: {len(rows)} paths", file=sys.stderr)
    with open(run.ROOT / "perfbench" / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
