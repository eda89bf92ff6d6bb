import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import redsafe as rs
from redsafe.cli import main
from redsafe.reach import simulate

from test_model import minimal_problem


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "redsafe.cli", *map(str, args)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def scalar_manifest(tmp_path):
    prob = rs.VerificationProblem(
        system=rs.LtiSystem([[-1.0]], [[2.0]], [[3.0]]),
        x0=rs.HyperBox([-1.0], [1.0]), inputs=rs.HyperBox([0.0], [1.0]),
        spec=(rs.PolytopeSpec([[1.0]], [-100.0], "safe-region"),), t_f=2.0,
        name="scalar")
    return rs.serialize_problem(prob, tmp_path / "scalar.json")


def small_manifest(tmp_path, seed=5, spec_scale=8.0):
    prob = rs.random_problem(seed, n=4, m=1, p=1, free_dims=3,
                             spec_scale=spec_scale)
    return rs.serialize_problem(prob, tmp_path / "small.json")


class TestGen:
    def test_deterministic_manifest(self, tmp_path):
        code1 = main(["gen", "-n", "4", "--seed", "11",
                      "--output", str(tmp_path / "a.json")])
        code2 = main(["gen", "-n", "4", "--seed", "11",
                      "--output", str(tmp_path / "b.json")])
        assert code1 == 0 and code2 == 0
        assert json.loads((tmp_path / "a.json").read_text())["type"] == "lti"
        # matrix files are byte-identical across runs with the same seed
        assert (tmp_path / "a_A.mtx").read_bytes() == (tmp_path / "b_A.mtx").read_bytes()

    def test_generated_system_is_stable(self, tmp_path):
        main(["gen", "-n", "6", "-m", "2", "-p", "2", "--seed", "3",
              "--output", str(tmp_path / "g.json")])
        prob = rs.parse_problem(tmp_path / "g.json")
        assert rs.check_stability(prob.system).stable

    def test_p_not_below_n_rejected(self, tmp_path):
        code = main(["gen", "-n", "3", "-p", "3",
                     "--output", str(tmp_path / "x.json")])
        assert code == 3


class TestReduce:
    def test_scalar_hsv(self, tmp_path, capsys):
        path = scalar_manifest(tmp_path)
        code = main(["reduce", str(path), "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hsv"] == pytest.approx([3.0], abs=1e-12)

    def test_identity_reduction_simulates_identically(self, tmp_path, capsys):
        path = small_manifest(tmp_path)
        code = main(["reduce", str(path), "-k", "4", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        reduced = rs.parse_problem(doc["reduced_manifest"])
        original = rs.parse_problem(path)
        x0 = original.x0.center
        bal = rs.balance(original.system)
        t1 = simulate(original.system, x0, np.array([0.5]), 1.0, 0.01)
        t2 = simulate(reduced.system, bal.H @ x0, np.array([0.5]), 1.0, 0.01)
        assert np.allclose(t1.outputs, t2.outputs, atol=1e-8)

    @pytest.mark.parametrize("kind", ["lti", "pss"])
    def test_k_builds_gramians_once_per_system(self, tmp_path, capsys, monkeypatch,
                                               kind):
        import redsafe.balancing as balancing
        if kind == "lti":
            main(["gen", "-n", "6", "--seed", "7", "--output", str(tmp_path / "g.json")])
            path = tmp_path / "g.json"
        else:
            path = rs.benchmarks.MOTOR_MANIFEST
        system = rs.parse_problem(path).system
        systems = system.modes if kind == "pss" else (system,)
        hsv = [rs.hankel_singular_values(s).tolist() for s in systems]
        capsys.readouterr()
        calls = []
        real = balancing.gramians
        monkeypatch.setattr(balancing, "gramians",
                            lambda sys_: calls.append(sys_) or real(sys_))
        code = main(["reduce", str(path), "-k", "3", "--format", "json",
                     "--reduced", str(tmp_path / "r.json")])
        assert code == 0
        assert len(calls) == len(systems)
        doc = json.loads(capsys.readouterr().out)
        assert doc["hsv"] == (hsv if kind == "pss" else hsv[0])

    def test_motor_pss_reduced_manifest(self, tmp_path, capsys):
        path = rs.benchmarks.MOTOR_MANIFEST
        system = rs.parse_problem(path).system
        assert main(["reduce", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["hsv"] == \
            [rs.hankel_singular_values(mode).tolist() for mode in system.modes]
        out = tmp_path / "r.json"
        assert main(["reduce", str(path), "-k", "5", "--reduced", str(out)]) == 0
        capsys.readouterr()
        assert sorted(f.name for f in tmp_path.glob("*.mtx")) == \
            [f"r_mode{i}_{key}.mtx" for i in (0, 1) for key in "ABC"]
        reduced = rs.parse_problem(out).system
        assert reduced.durations == system.durations
        for mode, box, got, got_box in zip(system.modes, system.mode_initial_sets,
                                           reduced.modes, reduced.mode_initial_sets):
            abstraction = rs.truncate(rs.balance(mode), 5, box)
            assert got == abstraction.reduced and got_box == abstraction.x0_reduced
        assert main(["verify-pss", str(out)]) == 0

    def test_missing_matrix_file_names_path(self, tmp_path):
        path = minimal_problem(tmp_path, matrices={"A": "gone.mtx", "B": "B.mtx",
                                                   "C": "C.mtx"})
        code, out, err = run_cli("reduce", path)
        assert code == 3
        assert "gone.mtx" in err


class TestBoundsCmd:
    def test_json_rows(self, tmp_path, capsys):
        path = small_manifest(tmp_path)
        code = main(["bounds", str(path), "-k", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # one row per e1 method, one per e2 method, then the assembled min
        filled = [(r["method"], r["e1"] is not None, r["e2"] is not None,
                   r["delta"] is not None) for r in doc["rows"]]
        assert filled == [("theorem1", True, False, False), ("theorem2", True, False, False),
                          ("simulation", True, False, False),
                          ("theorem3", False, True, False), ("simulation", False, True, False),
                          ("min", True, True, True)]
        e1_rows, e2_rows, least = doc["rows"][:3], doc["rows"][3:5], doc["rows"][5]
        assert least["e1"] == np.min([r["e1"] for r in e1_rows], axis=0).tolist()
        assert least["e2"] == np.min([r["e2"] for r in e2_rows], axis=0).tolist()
        assert least["delta"] == (np.array(least["e1"]) + least["e2"]).tolist()
        assert all(r["time_s"] == 0.0 for r in doc["rows"])

    def test_text_table(self, tmp_path, capsys):
        path = small_manifest(tmp_path)
        code = main(["bounds", str(path), "-k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta" in out and "method" in out

    def test_csv(self, tmp_path, capsys):
        path = small_manifest(tmp_path)
        code = main(["bounds", str(path), "-k", "2", "--format", "csv"])
        assert code == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == "system,k,method,output,e1,e2,delta,time_s"
        # null columns stay empty
        assert [line.split(",")[2:7].count("") for line in lines] == [2] * 5 + [0]

    @pytest.mark.parametrize("flag", ["--k0", "--k-max", "--step-h", "--step-lh",
                                      "--witness-budget", "--time-budget"])
    def test_loop_flags_rejected(self, tmp_path, capsys, flag):
        # bounds tabulates every order; the k-loop's flags would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["bounds", str(small_manifest(tmp_path)), flag, "3"])
        assert exc.value.code == 3 and "unrecognized arguments" in capsys.readouterr().err


class TestTransformSpecCmd:
    def test_round_trip(self, tmp_path, capsys):
        doc = {"spec": {"kind": "polytope", "polarity": "safe-region",
                        "Gamma": [[1.0]], "Psi": [-0.0015]},
               "delta": [3.7219e-4]}
        path = tmp_path / "ts.json"
        path.write_text(json.dumps(doc))
        code = main(["transform-spec", str(path), "--format", "json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        psi = out["transformed"][0]["safe_region"]["Psi"][0]
        assert psi == pytest.approx(-0.00112781, abs=1e-12)

    def test_per_mode_deltas(self, tmp_path, capsys):
        doc = {"spec": {"kind": "ellipsoid", "polarity": "unsafe-region",
                        "Q": [[178.0, 0.0], [0.0, 625.0]], "a": [0.325, 0.16],
                        "R": 1.0},
               "delta": [[0.0234, 0.0189], [0.0228, 0.0177]]}
        path = tmp_path / "tsm.json"
        path.write_text(json.dumps(doc))
        code = main(["transform-spec", str(path), "--format", "json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["per_mode"]) == 2
        assert out["per_mode"][0][0]["unsafe_region"]["R"] == pytest.approx(1.566, abs=5e-3)

    @pytest.mark.parametrize("delta, psi, message", [
        (0.5, [-0.0015], "error: delta"), (["x"], [-0.0015], "error: delta"),
        ([0.1], None, "error: spec is missing required field 'Psi'")])
    def test_malformed_input_exits_three(self, tmp_path, capsys, delta, psi, message):
        spec = {"kind": "polytope", "polarity": "safe-region", "Gamma": [[1.0]]}
        if psi is not None:
            spec["Psi"] = psi
        path = tmp_path / "ts.json"
        path.write_text(json.dumps({"spec": spec, "delta": delta}))
        assert main(["transform-spec", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_unreadable_input_exits_three(self, tmp_path, capsys):
        assert main(["transform-spec", str(tmp_path / "absent.json")]) == 3
        assert "not found" in capsys.readouterr().err
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        assert main(["transform-spec", str(path)]) == 3
        assert "not valid JSON" in capsys.readouterr().err


class TestReachCmd:
    def test_json_and_csv(self, tmp_path, capsys):
        path = small_manifest(tmp_path)
        code = main(["reach", str(path), "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"][0]["t0"] == 0.0
        assert "center" in doc["steps"][0] and "generators" in doc["steps"][0]
        code = main(["reach", str(path), "--format", "csv",
                     "--output", str(tmp_path / "r.csv")])
        assert code == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0].startswith("t0,t1,y0_lo,y0_hi")
        assert len(lines) > 10

    def test_step_h_zero_is_an_error(self, tmp_path, capsys):
        # a zero, NaN or infinite step is refused by name before the horizon
        # is divided into steps, not replaced by the default step
        path = small_manifest(tmp_path)
        for flag, value in (("--step-h", "0"), ("--step-h", "nan"), ("--step-h", "inf"),
                            ("--step-lh", "0")):
            assert main(["reach", str(path), flag, value]) == 3
            assert f"{flag[2:].replace('-', '_')} must be positive" in capsys.readouterr().err

    def test_pss_rejected(self, tmp_path):
        path = rs.serialize_problem(rs.motor_benchmark(), tmp_path / "motor.json")
        code, out, err = run_cli("reach", path)
        assert code == 3
        assert "LTI" in err


class TestVerifyCmd:
    def test_safe_exit_zero(self, tmp_path, capsys):
        path = small_manifest(tmp_path, spec_scale=8.0)
        code = main(["verify", str(path), "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "Safe"
        assert all(e["seconds"] == 0.0 for e in doc["per_k_log"])

    def test_unsafe_exit_one(self, tmp_path, capsys):
        prob = rs.VerificationProblem(
            system=rs.LtiSystem(np.diag([-1.0, -2.0]), np.array([[0.1], [0.2]]),
                                np.ones((1, 2))),
            x0=rs.HyperBox([1.0, 1.0], [1.1, 1.1]),
            inputs=rs.HyperBox([0.0], [0.0]),
            spec=(rs.PolytopeSpec([[1.0]], [-0.5], "safe-region"),), t_f=1.0)
        path = rs.serialize_problem(prob, tmp_path / "unsafe.json")
        code = main(["verify", str(path), "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "Unsafe" and "witness" in doc

    def test_unknown_flag_exits_three(self, tmp_path):
        # a removed flag (the e1 simulation's former vertex budget, the
        # k-loop's former absolute step) is unknown
        path = small_manifest(tmp_path)
        for args in (("verify", path, "--definitely-not-a-flag"),
                     ("verify", path, "--vertex-cap", "4096"),
                     ("verify", path, "--step-h", "0.1"),
                     ("bounds", path, "--vertex-cap", "4096")):
            code, out, err = run_cli(*args)
            assert code == 3 and "unrecognized arguments" in err

    @pytest.mark.parametrize("flag, value, field", [
        ("--step-lh", "0", "step_lh"),
        ("--witness-budget", "0", "witness_budget"),
        ("--time-budget", "-1", "time_budget")])
    def test_out_of_range_option_exits_three(self, tmp_path, capsys, flag, value, field):
        assert main(["verify", str(small_manifest(tmp_path)), flag, value]) == 3
        assert f"error: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("k0", 2.5), ("k_max", 2.5), ("witness_budget", 2.5), ("seed", -1), ("seed", 1.5)])
    def test_options_refuse_values_that_fail_later(self, field, value):
        # a fractional order or budget would only fail as a TypeError deep
        # in the k-loop, and a negative or fractional seed only once the
        # witness search draws from it
        with pytest.raises(rs.ModelError, match=f"^{field} must be"):
            rs.VerifyOptions(**{field: value})

    @pytest.mark.parametrize("command, flag", [
        *(pytest.param(c, ["--order-cap", "20"], id=c) for c in ("verify", "verify-pss", "reach")),
        *(pytest.param(c, ["--no-split"], id=f"{c}-no-split")
          for c in ("verify", "verify-pss", "bounds")),
        *(pytest.param(c, ["--gamma", "0.01"], id=f"{c}-gamma")
          for c in ("verify", "verify-pss", "bounds"))])
    def test_order_cap_removed(self, tmp_path, capsys, command, flag):
        # removed flags are unknown flags, exit 3
        with pytest.raises(SystemExit) as exc:
            main([command, str(small_manifest(tmp_path)), *flag])
        assert exc.value.code == 3 and "unrecognized arguments" in capsys.readouterr().err

    def test_gamma_option_removed(self):
        # every bound is rigorous as computed, so no bloat factor is left
        with pytest.raises(TypeError, match="gamma"):
            rs.VerifyOptions(gamma=0.01)

    def test_step_h_option_removed(self):
        # step_lh is the k-loop's one step control
        with pytest.raises(TypeError, match="step_h"):
            rs.VerifyOptions(step_h=0.1)

    def test_missing_manifest_exits_three(self, tmp_path):
        code, out, err = run_cli("verify", tmp_path / "absent.json")
        assert code == 3

    @pytest.mark.parametrize("field", ["t_f", "x0.lb", "spec", "manifest"])
    def test_malformed_field_exits_three(self, tmp_path, capsys, field):
        # one malformed field of a gen manifest is an input error that names
        # the field, not an internal one
        path = tmp_path / "g.json"
        assert main(["gen", "-n", "4", "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        if field == "t_f":
            doc["t_f"] = "abc"
        elif field == "x0.lb":
            doc["x0"]["lb"][0] = "x"
        elif field == "spec":
            doc["spec"] = [1]
        else:
            doc = [doc]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 3
        assert f"error: {field}" in capsys.readouterr().err

    def test_mode_without_duration_exits_three(self, tmp_path, capsys):
        path = rs.serialize_problem(rs.motor_benchmark(), tmp_path / "motor.json")
        doc = json.loads(path.read_text())
        del doc["modes"][1]["duration"]
        path.write_text(json.dumps(doc))
        assert main(["verify-pss", str(path)]) == 3
        assert "mode 1 is missing required field 'duration'" in capsys.readouterr().err

    def test_verify_pss_motor_smoke(self, capsys):
        from redsafe.benchmarks import MOTOR_MANIFEST
        code = main(["verify-pss", str(MOTOR_MANIFEST), "--k0", "5",
                     "--k-max", "5", "--e1", "theorem2", "--e1", "simulation",
                     "--e2", "simulation", "--step-lh", "0.05",
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "Safe"
        assert code == 0


class TestBench:
    def test_motor_rows_and_determinism(self, tmp_path):
        code1 = main(["bench", "--format", "json", "--output", str(tmp_path / "b1.json")])
        code2 = main(["bench", "--format", "json", "--output", str(tmp_path / "b2.json")])
        assert code1 == 0 and code2 == 0
        assert (tmp_path / "b1.json").read_bytes() == (tmp_path / "b2.json").read_bytes()
        doc = json.loads((tmp_path / "b1.json").read_text())
        rows = doc["rows"]
        assert {r["k"] for r in rows} == {4, 5}
        assert {r["method"] for r in rows} == {"theoretical", "mixed"}
        assert any("mode1" in r["system"] for r in rows)

    def test_missing_extra_skipped(self, tmp_path, capsys):
        code = main(["bench", "--extra", str(tmp_path / "nope.json"),
                     "--ks", "5", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipped" in captured.err


class TestHelp:
    @pytest.mark.parametrize("sub", ["reduce", "bounds", "transform-spec",
                                     "reach", "verify", "verify-pss", "bench",
                                     "gen"])
    def test_help_documents_flags(self, sub):
        code, out, err = run_cli(sub, "--help")
        assert code == 0
        for flag in ("--seed", "--output", "--format"):
            assert flag in out

    @pytest.mark.parametrize("sub", ["reduce", "bounds", "transform-spec",
                                     "reach", "verify", "verify-pss", "bench",
                                     "gen"])
    def test_negative_seed_exits_three(self, sub, tmp_path, capsys):
        # numpy's generators take only nonnegative seeds: a negative one is
        # a usage error on every subcommand, not an internal error where a
        # generator is drawn from
        args = {"transform-spec": [str(tmp_path / "spec.json")], "bench": [],
                "gen": ["-n", "4"]}.get(sub, [str(small_manifest(tmp_path))])
        with pytest.raises(SystemExit) as exc:
            main([sub, *args, "--seed", "-1"])
        assert exc.value.code == 3
        assert "seed must be a nonnegative integer" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Golden outputs: JSON of earlier releases on fixed instances.

GOLDEN = Path(__file__).parent / "golden"

#: fixture name -> (``gen`` arguments, None for the bundled motor or False
#: for a command that reads no manifest, and the command with its options)
GOLDEN_CASES = {
    "bounds_motor_k5": (None, ["bounds", "-k", "5"]),
    "bench_motor": (False, ["bench"]),
    "verify_n6_seed7": (["-n", "6", "--seed", "7"], ["verify"]),
    "verify_n8_seed6_tight": (["-n", "8", "--seed", "6", "--spec-scale", "0.3"], ["verify"]),
    "verify_pss_motor_k5": (None, ["verify-pss", "--k0", "5", "--k-max", "5",
                                   "--e1", "theorem2", "--e1", "simulation",
                                   "--e2", "simulation", "--step-lh", "0.05"]),
    # eleven even steps of 2.645 / 11, at most the 0.25 asked for
    "reach_n6_seed7_h025": (["-n", "6", "--seed", "7", "--free-dims", "4"],
                            ["reach", "--step-h", "0.25"]),
}


def assert_matches_golden(doc, expected, where="$"):
    """Keys, strings, integers and booleans equal; floats within 1e-12
    relative, so that another BLAS kernel's last bits do not count."""
    if isinstance(expected, dict):
        assert isinstance(doc, dict) and list(doc) == list(expected), where
        for key, value in expected.items():
            assert_matches_golden(doc[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(doc, list) and len(doc) == len(expected), where
        for i, (a, b) in enumerate(zip(doc, expected)):
            assert_matches_golden(a, b, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(doc, float) and doc == pytest.approx(expected, rel=1e-12, abs=0.0), where
    else:
        assert type(doc) is type(expected) and doc == expected, where


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_matches_golden(name, tmp_path, capsys):
    from redsafe.benchmarks import MOTOR_MANIFEST
    gen_args, (command, *options) = GOLDEN_CASES[name]
    manifest = [str(MOTOR_MANIFEST)]
    if gen_args is False:
        manifest = []
    elif gen_args is not None:
        manifest = [str(tmp_path / "g.json")]
        assert main(["gen", *gen_args, "--output", *manifest]) == 0
        capsys.readouterr()
    main([command, *manifest, *options, "--format", "json"])
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert_matches_golden(json.loads(capsys.readouterr().out), expected)


@pytest.mark.parametrize("budget", [8, 64])
def test_reach_golden_in_orbit_chunks(budget, tmp_path, capsys, monkeypatch):
    # reach's orbits built a state or a few at a time (8 doubles hold one
    # state of any of the n = 6 orbits, 64 a few) match the golden
    from redsafe import reach
    monkeypatch.setattr(reach, "REACH_CHUNK_DOUBLES", budget)
    test_json_matches_golden("reach_n6_seed7_h025", tmp_path, capsys)


#: Every kind and polarity of predicate over p = 2 outputs, a zero Gamma row
#: among them, with per-mode deltas; in mode 2 the shrunk ellipsoid vanishes
#: for both polarities.
TRANSFORM_SPEC_INPUT = {
    "spec": [
        {"kind": "polytope", "polarity": "safe-region",
         "Gamma": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]],
         "Psi": [-1.0, -1.0, -0.75, -0.75, -0.25]},
        {"kind": "polytope", "polarity": "unsafe-region",
         "Gamma": [[1.0, 1.0], [-1.0, 0.5]], "Psi": [-2.0, 0.3]},
        {"kind": "ellipsoid", "polarity": "safe-region",
         "Q": [[2.0, 0.6], [0.6, 1.0]], "a": [0.1, -0.2], "R": 0.5},
        {"kind": "ellipsoid", "polarity": "unsafe-region",
         "Q": [[178.0, 0.0], [0.0, 625.0]], "a": [0.325, 0.16], "R": 1.0},
    ],
    "delta": [[0.0234, 0.0189], [0.5, 0.4]],
}


def test_transform_spec_matches_golden(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TRANSFORM_SPEC_INPUT))
    assert main(["transform-spec", str(path), "--format", "json"]) == 0
    expected = json.loads((GOLDEN / "transform_spec_mixed.json").read_text())
    assert_matches_golden(json.loads(capsys.readouterr().out), expected)


# --------------------------------------------------------------------------
# numpy is the runtime: scipy is only the tests' oracle.

RUNTIME_SESSION = """
import sys
import redsafe as rs
from redsafe.cli import main
assert "scipy" not in sys.modules, "import redsafe"
verdict = rs.verify_pss(rs.motor_benchmark(), rs.VerifyOptions(
    k0=5, k_max=5, e1_methods=(rs.E1_THEOREM2, rs.SIMULATION),
    e2_methods=(rs.SIMULATION,), step_lh=0.05))
assert verdict.outcome == rs.SAFE and "scipy" not in sys.modules, "motor verify_pss"
manifest = sys.argv[1]
assert main(["gen", "-n", "6", "--seed", "7", "--output", manifest]) == 0
main(["verify", manifest, "--format", "json"])
assert "scipy" not in sys.modules, "gen and verify"
"""


def test_runtime_never_imports_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", RUNTIME_SESSION, str(tmp_path / "g.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
