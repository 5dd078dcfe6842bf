"""Tests of the benchmark's own logic: seeded inputs, span arithmetic, the
correctness gate and the agreement of BENCHMARK.json with what runs print.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import gate  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stochfsi import cli, scheme  # noqa: E402


def test_seeded_workload_gives_the_same_config_twice():
    for wl in workloads.WORKLOADS.values():
        a, b = wl.config(7), wl.config(7)
        assert a == b and a is not b
        assert cli.parse_config(a).to_dict() == cli.parse_config(b).to_dict()
        a["noise"]["q"].append(1.0)  # configs share no mutable state
        assert wl.config(7) == b
    ens = workloads.WORKLOADS["ens-4x2-n256"]
    assert ens.config(7)["noise"]["seed"] == ens.config(7)["run"]["master_seed"] == 7
    assert ens.config(7) != ens.config(8)


def test_self_time_on_a_hand_built_span_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("c", 2.0, 3.0, 1),
        S("b", 5.0, 9.0, 0),
        S("a", 11.0, 12.0, None),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.0]
    table = spans.summarize(tree)
    assert table["a"] == {"s": 4.0, "self_s": 3.0, "calls": 2}
    assert table["root"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
    inside = spans.summarize(tree, within="root")
    assert inside["a"] == {"s": 3.0, "self_s": 2.0, "calls": 1}


def test_tracer_records_parents_and_restores_patched_names():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    owner = types.SimpleNamespace(inner=lambda x: x + 1)

    def outer(x):
        return owner.inner(x) * 2

    original_inner = owner.inner
    with spans.installed(tracer, [spans.Patch(owner, "inner", "inner")]):
        assert owner.inner is not original_inner
        assert tracer.wrap("outer", outer)(1) == 4
    assert owner.inner is original_inner
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0)]
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def _tiny_path():
    cfg = workloads._noisy_channel(2, 1, 8)
    cfg["noise"]["seed"] = 3
    problem = cli.build_problem(cli.parse_config(cfg))
    return problem, scheme.run_path(problem, 0)


def test_gate_flags_a_perturbed_ledger():
    problem, traj = _tiny_path()
    delta = problem.params.delta
    assert gate.ledger_error(traj, delta) is None

    clean = scheme.EnergyLedger(**{k: v.copy() for k, v in vars(traj.ledger).items()})
    traj.ledger.C1[3] += 1e-6 * max(1.0, traj.ledger.E[3])
    error = gate.ledger_error(traj, delta)
    assert error is not None and "structure_identity" in error
    assert not gate.ledgers_identical(clean, traj.ledger)

    one_ulp = scheme.EnergyLedger(**{k: v.copy() for k, v in vars(clean).items()})
    one_ulp.E[-1] = np.nextafter(one_ulp.E[-1], np.inf)
    assert not gate.ledgers_identical(clean, one_ulp)
    assert gate.ledgers_identical(clean, scheme.EnergyLedger(**vars(clean)))


def test_gate_counts_a_reference_miss_as_a_failed_path():
    _, traj = _tiny_path()
    summary = gate.path_summary(traj)
    near = dict(summary, E_final=summary["E_final"] * (1 + 1e-9))
    far = dict(summary, sum_D=summary["sum_D"] * (1 + 1e-4))
    late = dict(summary, tau_idx=summary["tau_idx"] - 1)
    reference = [summary, summary, summary, summary]

    verdict = harness.Verdict()
    runs = [harness.PathRun(i, 0.1, traj.n_steps, None, s)
            for i, s in enumerate((summary, near, far, late))]
    runs.append(harness.PathRun(0, 0.1, 0, "DegenerateJacobian: gap <= 0"))
    harness.check_paths(runs, reference, verdict)
    assert (verdict.attempted, verdict.failed) == (5, 3)
    assert verdict.steps == 2 * traj.n_steps
    assert verdict.max_ref_dev == float("inf")


def test_benchmark_json_lists_what_a_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    assert spec["paths"] == ["perfbench"]
