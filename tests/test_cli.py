import copy
import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochfsi import cli
from stochfsi.cli import (
    build_problem,
    load_config,
    main,
    parse_config,
    run,
    step_pressures,
    with_axis_value,
)
from stochfsi.errors import ConfigError, DegenerateJacobian, InitialDataError
from stochfsi.scheme import EnergyLedger, run_path


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


MINIMAL = {"time": {"T": 0.25, "N": 4}, "domain": {"nz": 4, "nr": 2}}


class TestLoadConfig:
    def test_minimal_config_resolves_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.dt == 0.25 / 4
        assert cfg.physics["delta"] == 0.1
        assert cfg.noise["seed"] == cfg.run["master_seed"]
        assert cfg.pressure["kind"] == "constant"

    def test_zero_delta_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="physics.delta"):
            load_config(write_cfg(tmp_path, {**MINIMAL, "physics": {"delta": 0.0}}))

    def test_unknown_field_names_path(self, tmp_path):
        cases = [
            ({"physics": {"viscosity": 1.0}}, "physics.viscosity"),
            ({"solver": {"damping": 0.5}}, "solver.damping"),
            ({"solver": {"damping_after": 20}}, "solver.damping_after"),
            ({"pressure": {"kind": "constant", "P_inn": 1.0}}, "pressure.P_inn"),
            ({"pressure": {"kind": "constant", "duration": 0.1}}, "pressure.duration"),
            ({"initial": {"eta0": {"kind": "sine2", "amplitud": 0.1}}},
             "initial.eta0.amplitud"),
        ]
        for data, field in cases:
            with pytest.raises(ConfigError, match=f"^{field}: unknown field$"):
                load_config(write_cfg(tmp_path, {**MINIMAL, **data}))

    def test_inadmissible_wall_rejected_at_load(self, tmp_path, capsys):
        data = {**MINIMAL,
                "initial": {"eta0": {"kind": "sine2", "amplitude": -0.95}}}
        path = write_cfg(tmp_path, data)
        with pytest.raises(InitialDataError, match="initial.eta0"):
            build_problem(load_config(path))
        assert main(["validate", "--config", path]) == 2
        assert "config error: initial.eta0: wall gap" in capsys.readouterr().err

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
    ])
    def test_wrong_typed_value_exit_2(self, tmp_path, capsys, data, field):
        path = write_cfg(tmp_path, {**MINIMAL, **data})
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: must be ")

    def test_integral_float_count_stored_as_int(self):
        cfg = parse_config({**MINIMAL, "time": {"T": 0.25, "N": 4.0}})
        assert cfg.time["N"] == 4 and isinstance(cfg.time["N"], int)

    def test_bad_json_reported(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(p))

    def test_round_trip_stable(self, tmp_path):
        cfg1 = load_config(write_cfg(tmp_path, {
            **MINIMAL,
            "noise": {"K": 2, "q": [1.0, 0.5], "amplitude": [0.1, 0.2], "seed": 9},
            "pressure": {"kind": "half-sine", "amplitude": 2.0, "duration": 0.1,
                         "side": "in"},
        }))
        p2 = write_cfg(tmp_path, cfg1.to_dict(), name="echo.json")
        cfg2 = load_config(p2)
        assert cfg1.to_dict() == cfg2.to_dict()

    def test_sweep_mode_requires_axis(self, tmp_path):
        data = {**MINIMAL, "run": {"mode": "sweep"}}
        with pytest.raises(ConfigError, match="sweep_axis"):
            load_config(write_cfg(tmp_path, data))


def _numeric_leaves(tree, path=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, f"{path}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield f"{path}{key}", isinstance(value, int)


NUMERIC_LEAVES = sorted(_numeric_leaves(cli._DEFAULTS))
JUNK = st.one_of(st.text(max_size=4), st.none(), st.lists(st.integers(), max_size=2),
                 st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False]))
NON_INTEGRAL = st.floats(min_value=-1e6, max_value=1e6).filter(lambda x: not x.is_integer())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_junk_numeric_leaf_names_its_field(data):
    """Every numeric leaf of the defaults, set to junk, fails as a
    ConfigError whose message starts with that leaf's dotted path."""
    field, count = data.draw(st.sampled_from(NUMERIC_LEAVES))
    junk = data.draw(st.one_of(JUNK, NON_INTEGRAL) if count else JUNK)
    raw = copy.deepcopy(cli._DEFAULTS)
    section, key = field.split(".")
    raw[section][key] = junk
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert str(exc.value).startswith(f"{field}: ")


class TestStepPressures:
    def test_constant(self):
        cfg = parse_config({**MINIMAL, "pressure": {"kind": "constant",
                                                    "P_in": 2.0, "P_out": -1.0}})
        pin, pout = step_pressures(cfg)
        assert np.all(pin == 2.0) and np.all(pout == -1.0)

    def test_table_exact_overlap_average(self):
        # switch at t = 0.09 inside step 1 of dt = 0.0625: exact overlap math
        cfg = parse_config({
            "time": {"T": 0.25, "N": 4}, "domain": {"nz": 4, "nr": 2},
            "pressure": {"kind": "table", "times": [0.0, 0.09],
                         "P_in": [1.0, 3.0], "P_out": [0.0, 0.0]},
        })
        pin, _ = step_pressures(cfg)
        dt = 0.0625
        assert pin[0] == pytest.approx(1.0)
        expected = (1.0 * (0.09 - dt) + 3.0 * (2 * dt - 0.09)) / dt
        assert pin[1] == pytest.approx(expected, rel=1e-14)
        assert pin[2] == pytest.approx(3.0)

    def test_half_sine_average_matches_quadrature(self):
        cfg = parse_config({**MINIMAL,
                            "pressure": {"kind": "half-sine", "amplitude": 2.0,
                                         "duration": 0.25, "side": "in"}})
        pin, pout = step_pressures(cfg)
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
        assert_ledger_reads_back(tmp_path / "out" / "ledger.csv", traj)
        led = traj.ledger
        for name in ("E", "E_half", "D", "C1", "C2", "div_residual", "stoch_work",
                     "incr_norm"):
            assert np.all(getattr(led, name) == 0.0), name
        assert np.all(led.theta == 1)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["dt"] == 0.0625
        # every defaulted section is echoed
        for key in ("domain", "physics", "time", "pressure", "initial",
                    "noise", "run", "solver", "output"):
            assert key in manifest["config"]

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
        assert (tmp_path / "a" / "ledger.csv").read_bytes() == \
            (tmp_path / "b" / "ledger.csv").read_bytes()
        assert_ledger_reads_back(tmp_path / "a" / "ledger.csv",
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
        path = write_cfg(tmp_path, {
            "time": {"T": 0.25, "N": 8}, "domain": {"nz": 4, "nr": 2},
            "solver": {"max_picard": 1, "tol_picard": 1e-14},
            "initial": {"eta0": {"kind": "zero"}, "v0": {"kind": "zero"},
                        "u0": {"kind": "parabolic", "amplitude": 5.0}},
        })
        out = tmp_path / "ens"
        assert main(["run", "--config", path, "--mode", "ensemble", "--paths", "3",
                     "--out", str(out)]) == 1
        assert "ensemble failed: 3 of 3 paths" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert [f["path"] for f in report["failures"]] == [0, 1, 2]
        assert list(out.glob("ledger_*.csv")) == []


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINIMAL)
        assert main(["validate", "--config", path]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {**MINIMAL, "physics": {"delta": -1}})
        assert main(["validate", "--config", path]) == 2
        assert "physics.delta" in capsys.readouterr().err

    def test_run_path_cli(self, tmp_path):
        path = write_cfg(tmp_path, {
            **MINIMAL,
            "pressure": {"kind": "constant", "P_in": 1.0, "P_out": 0.0},
        })
        out = str(tmp_path / "runout")
        assert main(["run", "--config", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "ledger.csv"))
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_degenerate_jacobian_path_exit_1(self, tmp_path, capsys, monkeypatch):
        from stochfsi import cli

        def sunk(problem, index):
            raise DegenerateJacobian("R + eta <= 0 at a quadrature point")

        monkeypatch.setattr(cli, "run_path", sunk)
        path = write_cfg(tmp_path, MINIMAL)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "path failed: R + eta <= 0" in capsys.readouterr().err

    def test_seed_override_recorded(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL)
        out = str(tmp_path / "seeded")
        assert main(["run", "--config", path, "--seed", "777", "--out", out]) == 0
        manifest = json.loads((tmp_path / "seeded" / "manifest.json").read_text())
        assert manifest["effective_seed"] == 777

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

    def test_one_build_per_command(self, tmp_path, monkeypatch):
        builds = []
        real_build = cli.build_problem

        def counted(cfg):
            builds.append(cfg)
            return real_build(cfg)

        monkeypatch.setattr(cli, "build_problem", counted)
        data = {**MINIMAL, "run": {"M": 2}}
        parse_config(data)
        assert len(builds) == 0
        path = write_cfg(tmp_path, data)
        expected = {"run": 1, "validate": 1, "sweep": 3}
        for command, extra in (("run", ["--out", str(tmp_path / "run")]),
                               ("validate", []),
                               ("sweep", ["--axis", "epsilon", "--values", "1e-2,1e-3",
                                          "--out", str(tmp_path / "sweep")])):
            builds.clear()
            assert main([command, "--config", path, *extra]) == 0
            assert len(builds) == expected[command], command


class TestAxisOverride:
    def test_with_axis_value(self):
        cfg = parse_config(dict(MINIMAL))
        c2 = with_axis_value(cfg, "N", 8)
        assert c2.time["N"] == 8 and c2.run["mode"] == "ensemble"
        c3 = with_axis_value(cfg, "epsilon", 1e-4)
        assert c3.physics["epsilon"] == 1e-4

    @pytest.mark.parametrize("axis,value,field", [
        ("epsilon", 0.0, "physics.epsilon"),
        ("epsilon", -1e-3, "physics.epsilon"),
        ("N", 0, "time.N"),
    ])
    def test_axis_value_validated(self, axis, value, field):
        cfg = parse_config(dict(MINIMAL))
        with pytest.raises(ConfigError, match=field):
            with_axis_value(cfg, axis, value)
