import copy
import dataclasses
import json
import os
import re

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from conftest import DIVERGING
from stochfsi import cli, diagnostics
from stochfsi.cli import (
    build_problem,
    main,
    parse_config,
    problem_at_axis_value,
    run,
    step_pressures,
)
from stochfsi.diagnostics import (
    combined_step_violations,
    fluid_inequality_violations,
    ledger_positivity_min,
    structure_identity_residuals,
    summed_inequality_violations,
)
from stochfsi.errors import ConfigError, DegenerateJacobian, InitialDataError
from stochfsi.scheme import EnergyLedger, run_path, structure_step


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


MINIMAL = {"time": {"T": 0.25, "N": 4}, "domain": {"nz": 4, "nr": 2}}


class TestLoadConfig:
    def test_minimal_config_resolves_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dt == 0.25 / 4
        assert cfg.physics["delta"] == 0.1
        assert cfg.noise["seed"] == cfg.run["master_seed"]
        assert cfg.pressure["kind"] == "constant"
        cfg.run["sweep_values"].append(1e-2)  # no resolved config shares a default
        assert parse_config(MINIMAL).run["sweep_values"] == []

    def test_zero_delta_names_field(self):
        with pytest.raises(ConfigError, match="physics.delta"):
            parse_config({**MINIMAL, "physics": {"delta": 0.0}})

    def test_unknown_field_names_path(self):
        cases = [
            ({"physics": {"viscosity": 1.0}}, "physics.viscosity"),
            ({"solver": {"damping": 0.5}}, "solver"),
            ({"time": {"dt": 0.01}}, "time.dt"),
            ({"noise": {"generator": "philox4x64-np"}}, "noise.generator"),
            ({"pressure": {"kind": "constant", "P_inn": 1.0}}, "pressure.P_inn"),
            ({"pressure": {"kind": "constant", "duration": 0.1}}, "pressure.duration"),
            ({"initial": {"eta0": {"kind": "sine2", "amplitud": 0.1}}},
             "initial.eta0.amplitud"),
        ]
        for data, field in cases:
            with pytest.raises(ConfigError, match=f"^{field}: unknown field$"):
                parse_config({**MINIMAL, **data})

    def test_inadmissible_wall_rejected_at_load(self, tmp_path, capsys):
        data = {**MINIMAL,
                "initial": {"eta0": {"kind": "sine2", "amplitude": -0.95}}}
        path = write_cfg(tmp_path, data)
        with pytest.raises(InitialDataError, match="initial.eta0"):
            build_problem(parse_config(data))
        assert main(["validate", "--config", path]) == 2
        assert "config error: initial.eta0: wall gap" in capsys.readouterr().err

    def test_bump_wall_runs_within_every_ledger_check(self):
        cfg = parse_config({**MINIMAL, "pressure": {"kind": "constant", "P_in": 1.0},
                            "initial": {"eta0": {"kind": "bump", "amplitude": 0.05}}})
        traj = run_path(build_problem(cfg), 0)
        assert traj.eta[0].any()
        delta = cfg.physics["delta"]
        worst = max([structure_identity_residuals(traj).max()] + [
            check(traj, delta, sharp).max() for sharp in (True, False)
            for check in (fluid_inequality_violations, combined_step_violations,
                          summed_inequality_violations)])
        assert worst <= 1e-9
        assert ledger_positivity_min(traj) >= 0.0

    def test_bump_without_interior_node_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"time": {"T": 0.25, "N": 4}, "domain": {"nz": 1, "nr": 2},
                                    "initial": {"eta0": {"kind": "bump", "amplitude": 0.05}}})
        assert main(["validate", "--config", path]) == 2
        assert ("config error: initial.eta0: bump needs an interior structure node"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("data,field", [
        ({"domain": {"L": "a"}}, "domain.L"),
        ({"domain": {"nz": "x"}}, "domain.nz"),
        ({"noise": {"K": "two"}}, "noise.K"),
        ({"physics": [1]}, "physics"),
        ({"time": {"N": 2.7}}, "time.N"),
        ({"run": {"M": 2.5}}, "run.M"),
        ({"domain": {"nz": True}}, "domain.nz"),
        ({"domain": {"L": float("inf")}}, "domain.L"),
        ({"run": {"halt_at_stop": "false"}}, "run.halt_at_stop"),
        ({"output": {"directory": 5}}, "output.directory"),
        ({"noise": {"seed": -1}}, "noise.seed"),
        ({"noise": {"seed": 2**64}}, "noise.seed"),
        ({"run": {"master_seed": -1}}, "run.master_seed"),
        # an absent duration is time.T, but a null one is no number
        ({"pressure": {"kind": "half-sine", "duration": None}}, "pressure.duration"),
        ({"pressure": {"kind": "half-sine", "duration": 0}}, "pressure.duration"),
    ])
    def test_wrong_typed_value_exit_2(self, tmp_path, capsys, data, field):
        path = write_cfg(tmp_path, {**MINIMAL, **data})
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: must be ")

    @pytest.mark.parametrize("data,message", [
        ({"run": {"mode": "x"}}, "run.mode: must be 'path' or 'ensemble' or 'sweep', got 'x'"),
        ({"pressure": {"kind": "half-sine", "side": "left"}},
         "pressure.side: must be 'in' or 'out', got 'left'"),
    ])
    def test_choice_message(self, data, message):
        with pytest.raises(ConfigError) as exc:
            parse_config({**MINIMAL, **data})
        assert str(exc.value) == message

    def test_open_section_defaults(self):
        # an empty open section is its first kind with that kind's defaults
        cfg = parse_config({**MINIMAL, "pressure": {}, "initial": {"eta0": {}}})
        assert cfg.pressure == {"kind": "constant", "P_in": 0.0, "P_out": 0.0}
        assert cfg.initial == {name: {"kind": "zero"} for name in ("eta0", "v0", "u0")}
        cfg = parse_config({**MINIMAL, "pressure": {"kind": "half-sine"}})
        assert cfg.pressure == {"kind": "half-sine", "amplitude": 1.0, "duration": 0.25,
                                "side": "in"}
        with pytest.raises(ConfigError, match="^pressure.kind: unknown kind None$"):
            parse_config({**MINIMAL, "pressure": {"P_in": 1.0}})

    def test_integral_float_count_stored_as_int(self):
        cfg = parse_config({**MINIMAL, "time": {"T": 0.25, "N": 4.0}})
        assert cfg.time["N"] == 4 and isinstance(cfg.time["N"], int)

    @pytest.mark.parametrize("text", [
        b"{not json",
        b'{"time": {"T": 0.25, "N": 4}, "output": {"directory": "\xff"}}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"time": {"N": 1' + b"0" * 5000 + b"}}",
    ], ids=["syntax", "not-utf8", "nested", "long-int"])
    def test_bad_json_reported(self, tmp_path, capsys, text):
        p = tmp_path / "broken.json"
        p.write_bytes(text)
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith("config error: config: invalid JSON (")

    def test_round_trip_stable(self):
        cfg1 = parse_config({
            **MINIMAL,
            "noise": {"K": 2, "q": [1.0, 0.5], "amplitude": [0.1, 0.2], "seed": 9},
            "pressure": {"kind": "half-sine", "amplitude": 2.0, "duration": 0.1,
                         "side": "in"},
        })
        cfg2 = parse_config(json.loads(json.dumps(cfg1.to_dict())))
        assert cfg1.to_dict() == cfg2.to_dict()

    def test_sweep_mode_requires_axis(self):
        with pytest.raises(ConfigError, match="sweep_axis"):
            parse_config({**MINIMAL, "run": {"mode": "sweep"}})


def _with(raw, path, value):
    """A deep copy of the raw config ``raw`` with ``value`` at ``path``."""
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return out


def _schema_leaves(schema, path=(), base=None):
    """(dotted field, rule, raw config) for every leaf of a config schema
    that has a rule, each open section's "kind" included.  The raw config
    sets every open section above the leaf to the leaf's kind, with a valid
    value for each of that kind's fields that have no default."""
    base = {} if base is None else base
    if isinstance(schema, cli._Kinds):
        yield ".".join(path + ("kind",)), tuple(schema), base
        for kind, fields in schema.items():
            required = {key: [1.0] if isinstance(rule, list) else 1.0
                        for key, (default, rule) in fields.items()
                        if default is None and rule is not None}
            yield from _schema_leaves(fields, path, _with(base, path, {"kind": kind, **required}))
        return
    for key, entry in schema.items():
        if isinstance(entry, dict):
            yield from _schema_leaves(entry, path + (key,), base)
        elif entry[1] is not None:
            yield ".".join(path + (key,)), entry[1], base


LEAVES = list(_schema_leaves(cli._SCHEMA))
JUNK = st.one_of(st.text(max_size=4), st.none(), st.lists(st.integers(), max_size=2),
                 st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False]))
NON_INTEGRAL = st.floats(min_value=-1e6, max_value=1e6).filter(lambda x: not x.is_integer())
OUT_OF_RANGE = {
    "a number > 0": st.floats(max_value=0.0),
    "a number in (3/2, 2)": st.one_of(st.floats(max_value=1.5), st.floats(min_value=2.0)),
    "an integer >= 0": st.integers(max_value=-1),
    "an integer >= 1": st.integers(max_value=0),
    "an integer in [0, 2^64)": st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)),
}


def junk_for(rule):
    """Values that break a leaf rule of cli._SCHEMA."""
    if isinstance(rule, str):  # a number
        return st.one_of(JUNK, OUT_OF_RANGE.get(rule, st.nothing()),
                         NON_INTEGRAL if rule.startswith("an integer") else st.nothing())
    if isinstance(rule, list):  # a list of numbers
        return st.one_of(JUNK.filter(lambda x: not isinstance(x, list)),
                         st.lists(junk_for(rule[0]), min_size=1, max_size=2))
    if isinstance(rule, tuple):  # one of these strings
        return st.one_of(st.text(max_size=8).filter(lambda x: x not in rule), st.none(),
                         st.integers(), st.booleans(), st.lists(st.sampled_from(rule), max_size=1))
    return st.one_of(st.none(), st.integers(), st.floats(), st.lists(st.booleans(), max_size=1),
                     st.text(max_size=4) if rule is bool else st.booleans())


def test_schema_leaves_reach_every_section_and_kind():
    fields = {field for field, _, _ in LEAVES}
    assert set(cli._SCHEMA) == {field.split(".")[0] for field in fields}
    assert {"pressure.kind", "pressure.times", "pressure.side", "initial.eta0.kind",
            "initial.v0.amplitude", "initial.u0.amplitude", "noise.sampling",
            "run.halt_at_stop", "output.directory"} <= fields


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_junk_leaf_names_its_field(data):
    """Every leaf of the schema, an open section's kind and fields
    included, set to junk, fails as a ConfigError whose message starts with
    that leaf's dotted path (an element of a list adds its index)."""
    field, rule, base = data.draw(st.sampled_from(LEAVES))
    junk = data.draw(junk_for(rule))
    with pytest.raises(ConfigError) as exc:
        parse_config(_with(base, tuple(field.split(".")), junk))
    assert re.match(rf"{re.escape(field)}(\[\d+\])?: ", str(exc.value)), str(exc.value)


class TestStepPressures:
    def test_constant(self):
        cfg = parse_config({**MINIMAL, "pressure": {"kind": "constant",
                                                    "P_in": 2.0, "P_out": -1.0}})
        pin, pout = step_pressures(cfg.pressure, cfg.time["T"], cfg.time["N"])
        assert np.all(pin == 2.0) and np.all(pout == -1.0)

    def test_table_exact_overlap_average(self):
        # switch at t = 0.09 inside step 1 of dt = 0.0625: exact overlap math
        cfg = parse_config({
            "time": {"T": 0.25, "N": 4}, "domain": {"nz": 4, "nr": 2},
            "pressure": {"kind": "table", "times": [0.0, 0.09],
                         "P_in": [1.0, 3.0], "P_out": [0.0, 0.0]},
        })
        pin, _ = step_pressures(cfg.pressure, cfg.time["T"], cfg.time["N"])
        dt = 0.0625
        assert pin[0] == pytest.approx(1.0)
        expected = (1.0 * (0.09 - dt) + 3.0 * (2 * dt - 0.09)) / dt
        assert pin[1] == pytest.approx(expected, rel=1e-14)
        assert pin[2] == pytest.approx(3.0)

    def test_half_sine_average_matches_quadrature(self):
        cfg = parse_config({**MINIMAL,
                            "pressure": {"kind": "half-sine", "amplitude": 2.0,
                                         "duration": 0.25, "side": "in"}})
        pin, pout = step_pressures(cfg.pressure, cfg.time["T"], cfg.time["N"])
        # exact step average of A sin(pi t / T_b): A*T_b/(pi*dt) * (cos(a)-cos(b))
        dt = cfg.dt
        n = 1
        a, b = n * dt * np.pi / 0.25, (n + 1) * dt * np.pi / 0.25
        exact = 2.0 * 0.25 / (np.pi * dt) * (np.cos(a) - np.cos(b))
        assert pin[1] == pytest.approx(exact, rel=1e-9)
        assert np.all(pout == 0.0)


def assert_ledger_reads_back(path, traj):
    """Every column of a ledger CSV parses back bit for bit to its field."""
    led, n = traj.ledger, traj.n_steps
    header, *rows = path.read_text().splitlines()
    names = [f.name for f in dataclasses.fields(EnergyLedger)]
    assert header.split(",") == ["step", "t", *names, "E_next"]
    assert len(rows) == n
    columns = dict(zip(header.split(","), np.array([row.split(",") for row in rows]).T))
    expected = {"step": np.arange(n), "t": np.arange(n) * traj.dt, "E_next": led.E[1:]}
    expected.update({name: getattr(led, name) for name in names}, E=led.E[:-1])
    for name, want in expected.items():
        assert np.array_equal(columns[name].astype(want.dtype), want), name


class TestRunArtifacts:
    def _zero_cfg(self, outdir):
        return parse_config({
            "time": {"T": 0.25, "N": 4}, "domain": {"nz": 4, "nr": 2},
            "pressure": {"kind": "constant", "P_in": 0.0, "P_out": 0.0},
            "output": {"directory": outdir},
        })

    def test_zero_path_run_writes_zero_ledger(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = self._zero_cfg(out)
        problem = build_problem(cfg)
        assert run(cfg, problem) == 0
        traj = run_path(problem, 0)
        assert_ledger_reads_back(tmp_path / "out" / "ledger_0000.csv", traj)
        led = traj.ledger
        for name in ("E", "E_half", "D", "C1", "C2", "div_residual", "stoch_work",
                     "incr_norm"):
            assert np.all(getattr(led, name) == 0.0), name
        assert np.all(led.theta == 1)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["dt"] == 0.0625
        # every defaulted section is echoed
        for key in ("domain", "physics", "time", "pressure", "initial",
                    "noise", "run", "output"):
            assert key in manifest["config"]
        # the fixed Picard tolerance and budget, which no config sets
        assert "solver" not in manifest["config"]
        assert manifest["solver"] == {"tol_picard": 1e-10, "max_picard": 50}

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config({
            "time": {"T": 0.25, "N": 8}, "domain": {"nz": 4, "nr": 2},
            "pressure": {"kind": "constant", "P_in": 1.0, "P_out": 0.0},
            "noise": {"K": 2, "q": [1.0, 0.25], "amplitude": [0.5, 0.2], "seed": 3},
            "initial": {"eta0": {"kind": "zero"}, "v0": {"kind": "zero"},
                        "u0": {"kind": "parabolic", "amplitude": 0.3}},
        })
        run(cfg, build_problem(cfg), str(tmp_path / "a"))
        run(cfg, build_problem(cfg), str(tmp_path / "b"))
        assert (tmp_path / "a" / "ledger_0000.csv").read_bytes() == \
            (tmp_path / "b" / "ledger_0000.csv").read_bytes()
        assert_ledger_reads_back(tmp_path / "a" / "ledger_0000.csv",
                                 run_path(build_problem(cfg), 0))

    def test_ensemble_prefix_property(self, tmp_path):
        base = {
            "time": {"T": 0.25, "N": 4}, "domain": {"nz": 4, "nr": 2},
            "pressure": {"kind": "constant", "P_in": 1.0, "P_out": 0.0},
            "noise": {"K": 2, "q": [1.0, 0.25], "amplitude": [0.5, 0.2], "seed": 3},
            "run": {"mode": "ensemble", "M": 4},
        }
        for M in (4, 8):
            base["run"]["M"] = M
            cfg = parse_config(base)
            run(cfg, build_problem(cfg), str(tmp_path / f"m{M}"))
        for i in range(4):
            a = (tmp_path / "m4" / f"ledger_{i:04d}.csv").read_bytes()
            b = (tmp_path / "m8" / f"ledger_{i:04d}.csv").read_bytes()
            assert a == b
        report = json.loads((tmp_path / "m8" / "report.json").read_text())
        assert report["M"] == 8
        assert report["failures"] == []

    def test_ensemble_failures_exit_1(self, tmp_path, capsys):
        path = write_cfg(tmp_path, DIVERGING)
        out = tmp_path / "ens"
        assert main(["run", "--config", path, "--mode", "ensemble", "--paths", "3",
                     "--out", str(out)]) == 1
        assert "ensemble failed: 3 of 3 paths" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert [f["path"] for f in report["failures"]] == [0, 1, 2]
        assert report["frac_stopped"] is None and report["mean_tau"] is None
        assert report["stats"]["max_E"] == {"mean": None, "var": None, "ci95": None, "n": 0}
        assert list(out.glob("ledger_*.csv")) == []

    def test_ledger_check_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        # a path whose ledger breaks the structure identity by 1e-6 E is a
        # failed path: its ledger is kept as the evidence, the report names
        # the check, and the run exits 1
        real = diagnostics.run_path

        def perturbed(problem, index):
            traj = real(problem, index)
            traj.ledger.C1[3] += 1e-6 * max(1.0, traj.ledger.E[3])
            return traj

        monkeypatch.setattr(diagnostics, "run_path", perturbed)
        monkeypatch.delenv("STOCHFSI_THREADS", raising=False)
        out = tmp_path / "ens"
        assert main(["run", "--config", write_cfg(tmp_path, MINIMAL), "--mode", "ensemble",
                     "--paths", "2", "--out", str(out)]) == 1
        assert "ensemble failed: 2 of 2 paths" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert [f["path"] for f in report["failures"]] == [0, 1]
        for failure in report["failures"]:
            assert failure["error"].startswith("ledger check failed: structure_identity ")
        assert report["stats"]["max_E"]["n"] == 0
        assert sorted(p.name for p in out.glob("ledger_*.csv")) == [
            "ledger_0000.csv", "ledger_0001.csv"]

    def test_sweep_writes_an_ensemble_per_value(self, tmp_path):
        # each value's directory holds the same layout as an ensemble run,
        # and the table is re-derived from the reports in those directories
        data = sweep_data("epsilon", [1e-2, 1e-3],
                          noise={"K": 2, "q": [1.0, 0.25], "amplitude": [0.5, 0.2], "seed": 3},
                          pressure={"kind": "constant", "P_in": 1.0, "P_out": 0.0})
        data["run"]["M"] = 2
        cfg = parse_config(data)
        problem = build_problem(cfg)
        out = tmp_path / "sweep"
        assert run(cfg, problem, str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "table.csv", "value_0", "value_1"]
        header, *rows = (out / "table.csv").read_text().splitlines()
        assert header == "value,div_l2t,max_E_mean,sum_D_mean,frac_stopped,failed"
        rows = [row for row in rows if not row.startswith("#")]
        assert len(rows) == 2
        for i, value in enumerate(cfg.run["sweep_values"]):
            directory = out / f"value_{i}"
            assert sorted(p.name for p in directory.iterdir()) == [
                "ledger_0000.csv", "ledger_0001.csv", "report.json"]
            derived = problem_at_axis_value(cfg, problem, value)
            for index in range(2):
                assert_ledger_reads_back(directory / f"ledger_{index:04d}.csv",
                                         run_path(derived, index))
            report = json.loads((directory / "report.json").read_text())
            assert report["M"] == 2 and report["failures"] == []
            stats = report["stats"]
            want = [value, float(np.sqrt(max(stats["div_sq_int"]["mean"], 0.0))),
                    stats["max_E"]["mean"], stats["sum_D"]["mean"], report["frac_stopped"], 0]
            assert [float(cell) for cell in rows[i].split(",")] == want


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINIMAL)
        assert main(["validate", "--config", path]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {**MINIMAL, "physics": {"delta": -1}})
        assert main(["validate", "--config", path]) == 2
        assert "physics.delta" in capsys.readouterr().err

    def test_solver_section_exit_2(self, tmp_path, capsys):
        # the Picard tolerance and budget are constants of scheme, not config
        path = write_cfg(tmp_path, {**MINIMAL, "solver": {"max_picard": 1, "tol_picard": 1e-14}})
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err == "config error: solver: unknown field\n"

    @pytest.mark.parametrize("data,field", [
        ({"run": {"mode": "sweep", "sweep_axis": "epsilon",
                  "sweep_values": [1e-3, 1e-2, 1e-4]}}, "run.sweep_values"),
        # the Brownian tree is the one sampler, so the key takes one value
        ({"noise": {"sampling": "per-step"}}, "noise.sampling"),
        ({"noise": {"sampling": "auto"}}, "noise.sampling"),
        # a repeated value would fit a slope to equal x values or run one
        # ensemble twice
        ({"run": {"mode": "sweep", "sweep_axis": "epsilon",
                  "sweep_values": [1e-2, 1e-2]}}, "run.sweep_values"),
        ({"run": {"mode": "sweep", "sweep_axis": "N", "sweep_values": [4, 4, 8]}},
         "run.sweep_values"),
    ])
    def test_run_time_faults_exit_2_at_load(self, tmp_path, capsys, data, field):
        # unsorted sweep values and a sampler other than the tree fail
        # before anything is written, not inside the run
        path = write_cfg(tmp_path, {**MINIMAL, **data})
        out = tmp_path / "out"
        for command in (["validate"], ["run", "--out", str(out)]):
            assert main([*command, "--config", path]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_bad_thread_count_exit_2(self, tmp_path, capsys, monkeypatch, raw):
        # refused before the run writes anything or starts a worker
        monkeypatch.setenv("STOCHFSI_THREADS", raw)
        want = f"must be an integer{'' if raw == 'abc' else ' >= 1'}, got '{raw}'"
        path = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "out"
        for mode in ("path", "ensemble"):
            assert main(["run", "--config", path, "--mode", mode, "--paths", "2",
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"config error: STOCHFSI_THREADS: {want}\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["file", "file/sub"])
    def test_output_directory_that_cannot_be_made_exit_2(self, tmp_path, capsys, where):
        # refused as a config error before any path runs
        (tmp_path / "file").write_text("not a directory")
        out = tmp_path / where
        assert main(["run", "--config", write_cfg(tmp_path, MINIMAL), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: output.directory: ")
        assert captured.out == ""
        assert (tmp_path / "file").read_text() == "not a directory"

    def test_unsorted_sweep_command_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_cfg(tmp_path, MINIMAL), "--axis", "epsilon",
                     "--values", "1e-3,1e-2,1e-4", "--out", str(out)]) == 2
        assert "config error: run.sweep_values: must be sorted" in capsys.readouterr().err
        assert not out.exists()

    def test_run_path_cli(self, tmp_path):
        path = write_cfg(tmp_path, {
            **MINIMAL,
            "pressure": {"kind": "constant", "P_in": 1.0, "P_out": 0.0},
        })
        out = str(tmp_path / "runout")
        assert main(["run", "--config", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "ledger_0000.csv"))
        assert os.path.exists(os.path.join(out, "manifest.json"))
        report = json.loads((tmp_path / "runout" / "report.json").read_text())
        assert report["M"] == 1 and report["failures"] == []

    def test_degenerate_jacobian_path_exit_1(self, tmp_path, capsys, monkeypatch):
        # a path run is an ensemble of one, so its failure is in report.json too
        def sunk(problem, index):
            raise DegenerateJacobian("R + eta <= 0 at a quadrature point")

        monkeypatch.setattr(diagnostics, "run_path", sunk)
        path = write_cfg(tmp_path, MINIMAL)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        error = "DegenerateJacobian: R + eta <= 0 at a quadrature point"
        assert f"path failed: {error}" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["failures"] == [{"path": 0, "error": error}]

    def test_seed_override_recorded(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL)
        out = str(tmp_path / "seeded")
        assert main(["run", "--config", path, "--seed", "777", "--out", out]) == 0
        manifest = json.loads((tmp_path / "seeded" / "manifest.json").read_text())
        assert manifest["effective_seed"] == 777

    @pytest.mark.parametrize("threads", [None, "3"])
    def test_manifest_records_versions_and_workers(self, threads, tmp_path, monkeypatch):
        # a path run starts no worker beyond itself, whatever the cap
        if threads is None:
            monkeypatch.delenv("STOCHFSI_THREADS", raising=False)
        else:
            monkeypatch.setenv("STOCHFSI_THREADS", threads)
        out = tmp_path / "out"
        assert main(["run", "--config", write_cfg(tmp_path, MINIMAL), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__
        assert manifest["workers"] == 1

    def test_manifest_records_the_workers_an_ensemble_starts(self, tmp_path, monkeypatch):
        # an ensemble of 2 paths under a cap of 3 starts 2 workers
        monkeypatch.setenv("STOCHFSI_THREADS", "3")
        out = tmp_path / "out"
        assert main(["run", "--config", write_cfg(tmp_path, MINIMAL), "--mode", "ensemble",
                     "--paths", "2", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["workers"] == 2

    def test_sweep_cli_writes_table(self, tmp_path):
        path = write_cfg(tmp_path, {
            **MINIMAL,
            "pressure": {"kind": "constant", "P_in": 1.0, "P_out": 0.0},
            "run": {"M": 2},
        })
        out = str(tmp_path / "sweepout")
        assert main(["sweep", "--config", path, "--axis", "epsilon",
                     "--values", "1e-2,1e-3", "--out", out]) == 0
        table = (tmp_path / "sweepout" / "table.csv").read_text().splitlines()
        assert table[0].startswith("value,")
        assert len([l for l in table if not l.startswith("#")]) == 3

    def test_sweep_over_N_that_is_not_a_power_of_two(self, tmp_path):
        # N = 6 and 12 keep the first leaves of one noisy tree per path
        path = write_cfg(tmp_path, {
            **MINIMAL,
            "noise": {"K": 2, "q": [1.0, 0.25], "amplitude": [0.5, 0.2], "seed": 3},
            "run": {"M": 2},
        })
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", path, "--axis", "N",
                     "--values", "6,12", "--out", str(out)]) == 0
        assert len((out / "table.csv").read_text().splitlines()) == 3

    def test_sweep_failures_exit_1(self, tmp_path, capsys):
        path = write_cfg(tmp_path, DIVERGING)
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", path, "--axis", "epsilon",
                     "--values", "1e-2,1e-3", "--out", str(out)]) == 1
        assert "sweep failed: 2 of 2 paths" in capsys.readouterr().err
        header, *rows = (out / "table.csv").read_text().splitlines()
        assert header.split(",")[-1] == "failed"
        assert [row.split(",")[1:] for row in rows] == [["", "", "", "", "1"]] * 2
        assert not any(row.startswith("#") for row in rows)  # no slope

    def test_one_build_per_command(self, tmp_path, monkeypatch):
        # each command parses its config once and builds its problem once;
        # a sweep derives every value's problem from that one build
        calls = []

        def counted(name):
            real = getattr(cli, name)

            def wrapper(arg):
                calls.append(name)
                return real(arg)
            return wrapper

        for name in ("parse_config", "build_problem"):
            monkeypatch.setattr(cli, name, counted(name))
        data = {**MINIMAL, "run": {"M": 2}}
        parse_config(data)
        assert calls == []
        path = write_cfg(tmp_path, data)
        for command, extra in (("run", ["--out", str(tmp_path / "run")]),
                               ("validate", []),
                               ("sweep", ["--axis", "epsilon", "--values", "1e-2,1e-3",
                                          "--out", str(tmp_path / "sweep")])):
            calls.clear()
            assert main([command, "--config", path, *extra]) == 0
            assert sorted(calls) == ["build_problem", "parse_config"], command


SWEEP_PRESSURES = {
    "constant": {"kind": "constant", "P_in": 1.0, "P_out": -0.5},
    "table": {"kind": "table", "times": [0.0, 0.09], "P_in": [1.0, 3.0], "P_out": [0.0, 0.5]},
    "half-sine": {"kind": "half-sine", "amplitude": 2.0, "duration": 0.1},
}


def sweep_data(axis, values, **sections):
    return {**MINIMAL, **sections,
            "run": {"mode": "sweep", "sweep_axis": axis, "sweep_values": values}}


class TestAxisOverride:
    @pytest.mark.parametrize("kind", SWEEP_PRESSURES)
    @pytest.mark.parametrize("axis,value", [("epsilon", 1e-4), ("N", 8)])
    def test_derived_problem_runs_as_built(self, axis, value, kind):
        # a sweep value's problem, derived from the base build, gives the
        # same path as a fresh build of that value's own config
        pressure = SWEEP_PRESSURES[kind]
        cfg = parse_config(sweep_data(axis, [value], pressure=pressure))
        derived = problem_at_axis_value(cfg, build_problem(cfg), value)
        own = {"time": {"T": 0.25, "N": value}} if axis == "N" else {"physics": {"epsilon": value}}
        built = build_problem(parse_config({**MINIMAL, "pressure": pressure, **own}))
        assert derived.params == built.params and derived.N == built.N == len(derived.P_in)
        assert np.array_equal(derived.P_in, built.P_in)
        assert np.array_equal(derived.P_out, built.P_out)
        a, b = run_path(derived, 0).ledger, run_path(built, 0).ledger
        for f in dataclasses.fields(EnergyLedger):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    def test_derived_problem_factors_its_own_structure_step(self, rng):
        # the structure factor is kept per dt on the shared structure space,
        # so a problem derived for another N steps with a factor of its dt
        cfg = parse_config(sweep_data("N", [8]))
        base = build_problem(cfg)
        s = base.structure
        eta, v = rng.normal(size=(2, s.n_free))
        structure_step(eta, v, base.params.dt, s)
        derived = problem_at_axis_value(cfg, base, 8)
        dt = derived.params.dt
        assert derived.structure is s and dt != base.params.dt
        _, vh = structure_step(eta, v, dt, derived.structure)
        fresh = cho_solve(cho_factor(s.M + dt * dt * s.S), s.M @ v - dt * (s.S @ eta))
        assert np.array_equal(vh, fresh)

    @pytest.mark.parametrize("axis,value,field", [
        ("epsilon", 0.0, "physics.epsilon"),
        ("epsilon", -1e-3, "physics.epsilon"),
        ("N", 0, "time.N"),
    ])
    def test_axis_value_validated(self, axis, value, field):
        # a sweep value is held to the rule of the field it sets
        section, key = field.split(".")
        with pytest.raises(ConfigError) as direct:
            parse_config({**MINIMAL, section: {**MINIMAL.get(section, {}), key: value}})
        rule = str(direct.value).removeprefix(f"{field}: ")
        assert rule.startswith("must be ")
        with pytest.raises(ConfigError) as swept:
            parse_config(sweep_data(axis, [value]))
        assert str(swept.value) == f"run.sweep_values[0]: {rule}"

    def test_sweep_needs_sweep_mode(self):
        # a valid sweep block parses in another mode, where sweep refuses it
        data = sweep_data("epsilon", [1e-2, 1e-3])
        cfg = parse_config({**data, "run": {**data["run"], "mode": "ensemble"}})
        with pytest.raises(ConfigError, match="^run.mode: "):
            cli.sweep(cfg, [])

    @pytest.mark.parametrize("mode", ["path", "ensemble"])
    @pytest.mark.parametrize("fields,field", [
        ({"sweep_axis": "nu", "sweep_values": [0.0]}, "run.sweep_axis"),
        ({"sweep_axis": "epsilon"}, "run.sweep_values"),
        ({"sweep_values": [1e-2]}, "run.sweep_axis"),
        ({"sweep_axis": "epsilon", "sweep_values": [1e-2, -1e-3]}, "run.sweep_values[1]"),
        ({"sweep_axis": "N", "sweep_values": [4, 4]}, "run.sweep_values"),
    ])
    def test_sweep_fields_checked_in_every_mode(self, mode, fields, field):
        # a set sweep field is checked outside sweep mode too, so a run
        # never echoes junk sweep fields into its manifest
        with pytest.raises(ConfigError) as err:
            parse_config({**MINIMAL, "run": {"mode": mode, **fields}})
        assert str(err.value).startswith(f"{field}: ")

    def test_valid_sweep_block_runs_as_ensemble(self, tmp_path):
        data = sweep_data("epsilon", [1e-2, 1e-3])
        out = tmp_path / "ens"
        assert main(["run", "--config", write_cfg(tmp_path, data), "--mode", "ensemble",
                     "--paths", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["run"]["sweep_values"] == [1e-2, 1e-3]
