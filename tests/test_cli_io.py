import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import bergbep.cli
import bergbep.io
from bergbep import BepProblem, FbepProblem, build_grid, solve_bep, solve_fbep
from bergbep.cli import main
from bergbep.io import (
    SchemaError,
    dumps_canonical,
    encode_complex_array,
    function_from_spec,
    load_json,
    normalize_function_spec,
    normalize_grid,
    normalize_problem,
    normalize_region_spec,
    problem_from_dict,
    region_from_spec,
)
from conftest import low_degree_infeasible_problem

DATA = os.path.join(os.path.dirname(__file__), "data")
BEP_FIXTURE = os.path.join(DATA, "bep_problem.json")
FBEP_FIXTURE = os.path.join(DATA, "fbep_problem.json")


def _no_build(*args):
    raise AssertionError("a problem file of the other kind was built")


class TestFunctionSpec:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "coeffs", "coeffs": [[1.0, 0.0], [0.5, -0.25]]},
            {"kind": "builtin", "name": "z_bar"},
            {"kind": "builtin", "name": "const", "value": [2.0, 1.0]},
            {"kind": "builtin", "name": "exp_x", "eps": 0.2},
            {"kind": "builtin", "name": "basis", "n": 3},
            {"kind": "grid", "values": [[1.0, 0.0]] * 32},
        ],
    )
    def test_round_trip(self, spec):
        once = normalize_function_spec(spec)
        twice = normalize_function_spec(json.loads(dumps_canonical(once)))
        assert once == twice

    def test_builtin_values(self, grid_16_64):
        zb = function_from_spec({"kind": "builtin", "name": "z_bar"}, grid_16_64)
        assert np.max(np.abs(zb.values - np.conj(grid_16_64.nodes))) == 0.0
        a2 = function_from_spec({"kind": "builtin", "name": "abs2"}, grid_16_64)
        assert np.max(np.abs(a2.values - np.abs(grid_16_64.nodes) ** 2)) == 0.0

    def test_grid_kind_round_trips_values(self, grid_16_64):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(grid_16_64.shape) + 1j * rng.standard_normal(grid_16_64.shape)
        spec = {
            "kind": "grid",
            "values": [[float(v.real), float(v.imag)] for v in vals.ravel()],
        }
        assert np.max(np.abs(function_from_spec(spec, grid_16_64).values - vals)) == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "builtin", "name": "nope"},
            {"kind": "coeffs", "coeffs": [[1.0]]},
            {"kind": "builtin", "name": "exp_x"},
            {"kind": "grid", "values": "zzz"},
            {"kind": "wat"},
            [],
            {"kind": "builtin", "name": "basis", "n": -1},
            {"kind": "coeffs", "coeffs": []},
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SchemaError):
            normalize_function_spec(bad)

    def test_grid_length_checked(self, grid_16_64):
        with pytest.raises(SchemaError):
            function_from_spec({"kind": "grid", "values": [[1.0, 0.0]] * 3}, grid_16_64)


class TestRegionSpec:
    @pytest.mark.parametrize(
        "spec,expected_area",
        [
            ({"variant": "radial_disc", "a": 0.5}, 0.25),
            ({"variant": "annulus", "a": 0.5}, 0.75),
            ({"variant": "sector", "theta": 1.0}, 1.0 / np.pi),
            ({"variant": "radial_disc", "a": 0.5, "complement": True}, 0.75),
            ({"variant": "full"}, 1.0),
        ],
    )
    def test_materialization(self, grid_16_64, spec, expected_area):
        region = region_from_spec(spec, grid_16_64)
        assert abs(region.area(grid_16_64) - expected_area) <= 1e-13

    def test_round_trip(self):
        spec = {"variant": "sector", "theta": 0.7, "complement": True}
        once = normalize_region_spec(spec)
        assert normalize_region_spec(json.loads(dumps_canonical(once))) == once

    def test_rejects_bad_variant(self):
        with pytest.raises(SchemaError):
            normalize_region_spec({"variant": "pentagon"})

    def test_rejects_non_object(self):
        with pytest.raises(SchemaError, match="region spec must be an object"):
            normalize_region_spec([])

    def test_rejects_out_of_range(self):
        with pytest.raises(SchemaError):
            region_from_spec({"variant": "radial_disc", "a": 1.5})

    def test_mask_needs_a_grid(self):
        with pytest.raises(SchemaError, match="mask regions require grid dimensions"):
            region_from_spec({"variant": "mask", "values": [True] * 8})


# a JSON integer beyond the float range in each number field of a problem file:
# float() of it raises OverflowError, which must surface as a schema error
_HUGE = 10**400
_OVERFLOWS = [
    pytest.param(lambda d: d.__setitem__("m", _HUGE), id="m_huge"),
    pytest.param(lambda d: d["h_k"].__setitem__("value", [_HUGE, 0.0]), id="pair_huge"),
    pytest.param(
        lambda d: d.__setitem__("h_k", {"kind": "coeffs", "coeffs": [[1.0, 0.0], [0.0, _HUGE]]}),
        id="coeffs_pair_huge",
    ),
    pytest.param(
        lambda d: d.__setitem__(
            "h_j", {"kind": "grid", "values": [[0.0, 0.0]] * (24 * 96 - 1) + [[_HUGE, 0.0]]}
        ),
        id="grid_pair_huge",
    ),
    pytest.param(lambda d: d["region_k"].__setitem__("a", _HUGE), id="region_a_huge"),
    pytest.param(
        lambda d: d.__setitem__("region_k", {"variant": "sector", "theta": _HUGE}),
        id="region_theta_huge",
    ),
    pytest.param(
        lambda d: d.__setitem__("h_j", {"kind": "builtin", "name": "exp_x", "eps": _HUGE}),
        id="eps_huge",
    ),
    pytest.param(
        lambda d: d.__setitem__("conductivity", {"kind": "exp_x", "eps": _HUGE}),
        id="conductivity_eps_huge",
    ),
    pytest.param(
        lambda d: d.update(conductivity={"kind": "exp_x", "eps": 0.1}, lift_tol=_HUGE),
        id="lift_tol_huge",
    ),
]

# a JSON boolean where a number belongs, a const conductivity that is no
# number, and the overflows above; each mutates the BEP fixture, and those
# that add a conductivity make it an f-BEP
_NON_NUMBERS = [
    pytest.param(lambda d: d.__setitem__("degree", True), id="degree_true"),
    pytest.param(lambda d: d.__setitem__("m", True), id="m_true"),
    pytest.param(lambda d: d["h_k"].__setitem__("value", [True, 0.0]), id="pair_true"),
    pytest.param(
        lambda d: d.__setitem__("h_j", {"kind": "builtin", "name": "exp_x", "eps": True}),
        id="eps_true",
    ),
    pytest.param(
        lambda d: d.__setitem__("conductivity", {"kind": "exp_x", "eps": True}),
        id="conductivity_eps_true",
    ),
    pytest.param(
        lambda d: d.update(conductivity={"kind": "exp_x", "eps": 0.1}, lift_tol=True),
        id="lift_tol_true",
    ),
    pytest.param(
        lambda d: d.__setitem__("conductivity", {"kind": "const", "value": None}),
        id="const_null",
    ),
    pytest.param(
        lambda d: d.__setitem__("conductivity", {"kind": "const", "value": [1.0]}),
        id="const_list",
    ),
    pytest.param(
        lambda d: d.__setitem__("conductivity", {"kind": "const", "value": {"re": 1.0}}),
        id="const_object",
    ),
    *_OVERFLOWS,
]


# a region flag that is no JSON boolean, put in the BEP fixture's K: its
# complement flag, or one entry of a 24x96 mask
_NON_BOOLEANS = [
    pytest.param(v, id=f"{type(v).__name__}_{v}") for v in ("false", "0", 0, 1)
]


def _with_region_flag(doc: dict, where: str, value) -> dict:
    if where == "complement":
        doc["region_k"]["complement"] = value
    else:
        doc["region_k"] = {"variant": "mask", "values": [True] * (24 * 96 - 1) + [value]}
    return doc


class TestProblemFile:
    def test_bep_golden_round_trip(self):
        with open(BEP_FIXTURE, "r", encoding="utf-8") as fh:
            raw = fh.read()
        assert dumps_canonical(normalize_problem(json.loads(raw))) == raw

    def test_fbep_golden_round_trip(self):
        with open(FBEP_FIXTURE, "r", encoding="utf-8") as fh:
            raw = fh.read()
        assert dumps_canonical(normalize_problem(json.loads(raw))) == raw

    def test_materializes_bep(self):
        problem = problem_from_dict(load_json(BEP_FIXTURE))
        assert isinstance(problem, BepProblem)
        assert problem.degree == 16

    def test_materializes_fbep(self):
        problem = problem_from_dict(load_json(FBEP_FIXTURE))
        assert isinstance(problem, FbepProblem)
        assert problem.f.kind == "exp_x"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("m"),
            lambda d: d.__setitem__("m", -1.0),
            lambda d: d.__setitem__("degree", -2),
            lambda d: d.__setitem__("grid", {"n_r": 1, "n_theta": 8}),
            lambda d: d.__setitem__("h_k", {"kind": "builtin", "name": "huh"}),
            *_NON_NUMBERS,
            pytest.param(lambda d: d.__setitem__("conductivity", []), id="conductivity_list"),
            pytest.param(
                lambda d: d.__setitem__("conductivity", {"kind": "grid"}), id="conductivity_grid"
            ),
        ],
    )
    def test_schema_violations(self, mutate):
        doc = load_json(BEP_FIXTURE)
        mutate(doc)
        with pytest.raises(SchemaError):
            problem_from_dict(doc)

    @pytest.mark.parametrize("doc", [[], "problem", 1.0])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(SchemaError, match="problem document must be an object"):
            problem_from_dict(doc)


    def test_each_spec_validated_once(self, monkeypatch):
        # normalize_problem validates every spec; the parts are built from its
        # normalized specs, with no second pass
        doc = load_json(FBEP_FIXTURE)
        calls = []
        for name in ("function", "region", "conductivity"):
            normalize = getattr(bergbep.io, f"normalize_{name}_spec")
            monkeypatch.setattr(
                bergbep.io,
                f"normalize_{name}_spec",
                lambda spec, normalize=normalize: calls.append(spec) or normalize(spec),
            )
        problem_from_dict(doc)
        expected = [doc["region_k"], doc["h_k"], doc["h_j"], doc["conductivity"]]
        assert len(calls) == len(expected)
        assert all(call is spec for call, spec in zip(calls, expected))

    @pytest.mark.parametrize("value", _NON_BOOLEANS)
    @pytest.mark.parametrize("where", ["complement", "mask"])
    def test_region_flags_must_be_booleans(self, where, value):
        # bool("false") is True: the problem would be solved on the complement
        doc = _with_region_flag(load_json(BEP_FIXTURE), where, value)
        with pytest.raises(SchemaError, match="true or false"):
            problem_from_dict(doc)


class TestCli:
    def test_solve_bep_with_oracle(self, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            ["solve-bep", "--problem", BEP_FIXTURE, "--out", str(out), "--oracle"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["lambda_convention"]
        assert doc["degree"] == 16
        assert abs(doc["err_j"] - 0.1) <= 1e-8 * 0.1
        assert doc["oracle_delta"] <= 1e-6
        assert doc["saturated"] is True

    def test_solve_bep_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve-bep", "--problem", BEP_FIXTURE, "--out", str(out1)]) == 0
        assert main(["solve-bep", "--problem", BEP_FIXTURE, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_solve_fbep(self, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve-fbep", "--problem", FBEP_FIXTURE, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "fbep"
        assert doc["lambda_convention"]
        assert doc["degree"] == 8
        assert abs(doc["err_j"] - 0.1) <= 1e-6 * 0.1
        assert doc["conjecture_residual"] <= 1e-4

    def test_solve_fbep_iterations(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve-fbep", "--problem", FBEP_FIXTURE, "--out", str(out1)]) == 0
        assert main(["solve-fbep", "--problem", FBEP_FIXTURE, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        sol = solve_fbep(problem_from_dict(load_json(FBEP_FIXTURE)))
        assert doc["iterations"] == sol.iterations > 0

    def test_exit_infeasible(self, tmp_path):
        doc = load_json(BEP_FIXTURE)
        doc["h_j"] = {"kind": "builtin", "name": "z_bar"}
        doc["m"] = 1e-9
        prob = tmp_path / "p.json"
        prob.write_text(dumps_canonical(doc))
        assert main(["solve-bep", "--problem", str(prob), "--out", str(tmp_path / "s.json")]) == 2

    def test_degree_gap_null_when_infeasible_at_low_degree(self, tmp_path):
        # M is feasible at the problem's degree 16 but not at 12: exit 0, no gap
        p = low_degree_infeasible_problem(build_grid(24, 96))
        doc = dict(load_json(BEP_FIXTURE), region_k={"variant": "sector", "theta": 1.0}, m=p.m)
        for key, func in (("h_k", p.h_k), ("h_j", p.h_j)):
            doc[key] = {"kind": "grid", "values": encode_complex_array(func.values.ravel())}
        prob, out = tmp_path / "p.json", tmp_path / "s.json"
        prob.write_text(dumps_canonical(doc))
        assert main(["solve-bep", "--problem", str(prob), "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        assert sol["saturated"] is True and sol["degree_gap"] is None

    @pytest.mark.parametrize("command", ["solve-bep", "solve-fbep"])
    def test_exit_degree_beyond_exactness(self, tmp_path, command):
        # 8x16 integrates exactly up to total degree 15, so N <= 7
        doc = load_json(BEP_FIXTURE if command == "solve-bep" else FBEP_FIXTURE)
        doc.update(grid={"n_r": 8, "n_theta": 16}, degree=12)
        prob, out = tmp_path / "p.json", tmp_path / "s.json"
        prob.write_text(dumps_canonical(doc))
        assert main([command, "--problem", str(prob), "--out", str(out)]) == 1
        assert not out.exists()

    def test_exit_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve-bep", "--problem", str(bad), "--out", str(tmp_path / "s.json")]) == 1

    def test_exit_non_convergence(self, tmp_path):
        # no lift reaches a fixed-point defect of 1e-30
        doc = load_json(FBEP_FIXTURE)
        doc["conductivity"] = {"kind": "exp_x", "eps": 8.0}
        doc["lift_tol"] = 1e-30
        prob = tmp_path / "p.json"
        prob.write_text(dumps_canonical(doc))
        assert (
            main(["solve-fbep", "--problem", str(prob), "--out", str(tmp_path / "s.json")]) == 3
        )

    def test_exit_stalled_lift(self, tmp_path):
        # a lift short of its tolerance is never accepted
        doc = load_json(FBEP_FIXTURE)
        doc["conductivity"] = {"kind": "exp_x", "eps": 2.0}
        doc["lift_tol"] = 1e-30
        prob = tmp_path / "p.json"
        prob.write_text(dumps_canonical(doc))
        assert (
            main(["solve-fbep", "--problem", str(prob), "--out", str(tmp_path / "s.json")]) == 3
        )

    @pytest.mark.parametrize("conductivity", [("exp_x", 2.0), ("exp_xy", 6.0)])
    def test_high_contrast_solves(self, tmp_path, conductivity):
        doc = load_json(FBEP_FIXTURE)
        doc["conductivity"] = {"kind": conductivity[0], "eps": conductivity[1]}
        prob = tmp_path / "p.json"
        prob.write_text(dumps_canonical(doc))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve-fbep", "--problem", str(prob), "--out", str(out1)]) == 0
        assert main(["solve-fbep", "--problem", str(prob), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("lift_tol", ["NaN", "Infinity", "0", "-1"])
    def test_invalid_lift_tol(self, tmp_path, lift_tol):
        text = dumps_canonical(load_json(FBEP_FIXTURE))
        assert '"lift_tol": 1e-10' in text
        prob = tmp_path / "p.json"
        prob.write_text(text.replace('"lift_tol": 1e-10', f'"lift_tol": {lift_tol}'))
        out = tmp_path / "s.json"
        assert main(["solve-fbep", "--problem", str(prob), "--out", str(out)]) == 1
        assert not out.exists()

    def test_wrong_solver_for_problem(self, tmp_path, capsys, monkeypatch):
        # the kind is read off the normalized document: no grid is built for it
        monkeypatch.setattr(bergbep.io, "build_grid", _no_build)
        out = tmp_path / "s.json"
        assert main(["solve-fbep", "--problem", BEP_FIXTURE, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: problem file lacks a conductivity; use solve-bep\n"
        assert not out.exists()

    def test_spectrum_radial(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--region", "radial:0.5", "--degree", "8", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,eigenvalue,closed_form"
        rows = [line.split(",") for line in lines[1:]]
        eigen = np.array([float(r[1]) for r in rows])
        closed = np.array([float(r[2]) for r in rows])
        expect = np.sort(0.25 ** (np.arange(9) + 1.0))[::-1]
        assert np.max(np.abs(eigen - expect)) <= 1e-12
        assert np.max(np.abs(closed - expect)) <= 1e-12

    def test_spectrum_full_disc(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--region", "full", "--degree", "5", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 1.0 for r in rows)

    def test_spectrum_sector_trace(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert (
            main(["spectrum", "--region", "sector:1.5707963267948966", "--degree", "8", "--out", str(out)])
            == 0
        )
        rows = out.read_text().strip().splitlines()[1:]
        eigen = [float(r.split(",")[1]) for r in rows]
        assert abs(sum(eigen) - 9.0 * 0.5) <= 1e-12
        assert all(-1e-10 <= v <= 1.0 + 1e-10 for v in eigen)

    def test_spectrum_negative_degree(self, tmp_path, capsys):
        # the closed forms used to return an empty matrix for degree -1
        out = str(tmp_path / "s.csv")
        assert main(["spectrum", "--region", "radial:0.5", "--degree", "-1", "--out", out]) == 1
        assert "degree must be >= 0" in capsys.readouterr().err

    def test_spectrum_bad_region(self, tmp_path):
        assert main(["spectrum", "--region", "blob:1", "--degree", "4", "--out", str(tmp_path / "s.csv")]) == 1

    def test_spectrum_bad_region_number(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--region", "radial:abc", "--degree", "4", "--out", str(out)]
        assert main(argv) == 1
        assert "bad region spec 'radial:abc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("region", ["full:0.5", "full:", "~full:1"])
    def test_spectrum_full_takes_no_parameter(self, tmp_path, capsys, region):
        # the tail used to be ignored, with exit 0
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--region", region, "--degree", "4", "--out", str(out)]) == 1
        assert "takes no parameter" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # numpy's "expected non-negative integer" used to come after the solve
        def forbidden(*args, **kwargs):
            raise AssertionError("solve-fbep solved before checking --seed")

        monkeypatch.setattr(bergbep.cli, "solve_fbep", forbidden)
        out = tmp_path / "sol.json"
        argv = ["solve-fbep", "--problem", FBEP_FIXTURE, "--out", str(out), "--seed", "-1"]
        assert main(argv) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_project_z_bar(self, tmp_path):
        out = tmp_path / "proj.json"
        assert (
            main(
                ["project", "--builtin", "z_bar", "--degree", "8", "--grid", "16,64", "--out", str(out)]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert max(abs(complex(a, b)) for a, b in doc["coefficients"]) <= 1e-12

    def test_teodorescu_const(self, tmp_path):
        out = tmp_path / "teo.json"
        assert (
            main(["teodorescu", "--builtin", "const", "--grid", "16,64", "--out", str(out)]) == 0
        )
        doc = json.loads(out.read_text())
        grid = build_grid(16, 64)
        vals = np.array([complex(a, b) for a, b in doc["values"]])
        target = np.conj(grid.nodes).ravel()
        inner = np.abs(grid.nodes).ravel() <= 0.9
        assert np.max(np.abs(vals - target)[inner]) <= 1e-6

    def test_lambda_sweep_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert (
            main(
                [
                    "lambda-sweep",
                    "--problem",
                    BEP_FIXTURE,
                    "--m-values",
                    "0.4,0.2,0.1,0.05",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,lambda,err_k"
        lams = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_lambda_sweep_bad_values(self, tmp_path):
        assert (
            main(
                ["lambda-sweep", "--problem", BEP_FIXTURE, "--m-values", "x,y", "--out", str(tmp_path / "s.csv")]
            )
            == 1
        )

    def test_fbep_sweep_lifts_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_space(*args, **kwargs)

        build_space = bergbep.cli.build_fbep_space
        monkeypatch.setattr(bergbep.cli, "build_fbep_space", counting)
        out = tmp_path / "sweep.csv"
        levels = (0.3, 0.1, 0.05)
        argv = ["lambda-sweep", "--problem", FBEP_FIXTURE, "--out", str(out)]
        assert main(argv + ["--m-values", ",".join(map(str, levels))]) == 0
        assert len(calls) == 1
        problem = problem_from_dict(load_json(FBEP_FIXTURE))
        rows = ["m,lambda,err_k"]
        for m in levels:
            sol = solve_fbep(dataclasses.replace(problem, m=m))
            rows.append(f"{m!r},{sol.lam!r},{sol.err_k!r}")
        assert out.read_text().splitlines() == rows

    def test_fbep_assembles_once(self, tmp_path, monkeypatch):
        # one core serves the solve and both checks, and every level of a sweep
        calls = []
        assemble = bergbep.cli.ConstrainedLSQ.from_problem

        def counting(problem, basis=None):
            calls.append(problem)
            return assemble(problem, basis)

        monkeypatch.setattr(bergbep.cli.ConstrainedLSQ, "from_problem", staticmethod(counting))
        out = tmp_path / "sol.json"
        assert main(["solve-fbep", "--problem", FBEP_FIXTURE, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["saturated"] is True  # both checks ran
        assert len(calls) == 1
        levels = "0.3,0.1,0.05"
        argv = ["lambda-sweep", "--problem", FBEP_FIXTURE, "--out", str(tmp_path / "s.csv")]
        assert main(argv + ["--m-values", levels]) == 0
        assert len(calls) == 2

    def test_bep_sweep_assembles_once(self, tmp_path, monkeypatch):
        calls = []
        assemble = bergbep.cli.ConstrainedLSQ.from_problem

        def counting(problem, basis=None):
            calls.append(problem)
            return assemble(problem, basis)

        monkeypatch.setattr(bergbep.cli.ConstrainedLSQ, "from_problem", staticmethod(counting))
        out = tmp_path / "sweep.csv"
        levels = (0.4, 0.2, 0.1, 0.05, 10.0)
        argv = ["lambda-sweep", "--problem", BEP_FIXTURE, "--out", str(out)]
        assert main(argv + ["--m-values", ",".join(map(str, levels))]) == 0
        assert len(calls) == 1
        problem = problem_from_dict(load_json(BEP_FIXTURE))
        rows = ["m,lambda,err_k"]
        for m in levels:
            sol = solve_bep(dataclasses.replace(problem, m=m), degree_diagnostic=False)
            rows.append(f"{m!r},{sol.lam!r},{sol.err_k!r}")
        assert out.read_text().splitlines() == rows

    def test_grid_spec_file_matches_builtin(self, tmp_path):
        # h_K and h_J as grid specs of their node values: the same bytes out
        doc = load_json(BEP_FIXTURE)
        grid = build_grid(doc["grid"]["n_r"], doc["grid"]["n_theta"])
        for key in ("h_k", "h_j"):
            values = function_from_spec(doc[key], grid).values
            doc[key] = {"kind": "grid", "values": encode_complex_array(values)}
        gridded = tmp_path / "grid.json"
        gridded.write_text(dumps_canonical(doc))
        for command in (["solve-bep"], ["lambda-sweep", "--m-values", "0.1,0.5,2"]):
            outs = [tmp_path / "builtin.out", tmp_path / "grid.out"]
            for problem, out in zip((BEP_FIXTURE, str(gridded)), outs):
                assert main(command + ["--problem", problem, "--out", str(out)]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_sweep_parses_the_file_once(self, tmp_path, monkeypatch):
        # the levels after the first are checked by the budget rule alone
        calls = []
        normalize = bergbep.io.normalize_problem
        monkeypatch.setattr(
            bergbep.io, "normalize_problem", lambda doc: calls.append(doc) or normalize(doc)
        )
        argv = ["lambda-sweep", "--problem", BEP_FIXTURE, "--out", str(tmp_path / "s.csv")]
        assert main(argv + ["--m-values", "0.4,0.2,0.1"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("fixture", [BEP_FIXTURE, FBEP_FIXTURE])
    @pytest.mark.parametrize("levels", ["0.1,nan", "0.1,inf", "0.1,0", "0.1,-0.2"])
    def test_lambda_sweep_rejects_bad_levels(self, tmp_path, fixture, levels):
        out = tmp_path / "s.csv"
        argv = ["lambda-sweep", "--problem", fixture, "--m-values", levels, "--out", str(out)]
        assert main(argv) == 1
        assert not out.exists()


# builtin name -> (a value of its parameter, its closed form at z)
_BUILTIN_VALUES = {
    "const": ([2.0, -1.0], lambda z: np.full(z.shape, 2.0 - 1.0j)),
    "z_bar": (None, np.conj),
    "abs2": (None, lambda z: np.abs(z) ** 2),
    "exp_x": (0.7, lambda z: np.exp(0.7 * z.real)),
    "exp_xy": (-1.3, lambda z: np.exp(-1.3 * z.real * z.imag)),
    "basis": (5, lambda z: np.sqrt(6.0) * z**5),
}


class TestCliInputPaths:
    """Input paths of io and the CLI: each bad input exits 1 with an error line."""

    @staticmethod
    def _write(tmp_path, doc):
        prob = tmp_path / "p.json"
        prob.write_text(dumps_canonical(doc))
        return str(prob)

    @staticmethod
    def _fails(argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("name", sorted(bergbep.io.BUILTINS))
    def test_builtin_table(self, tmp_path, capsys, grid_16_64, name):
        # each builtin normalizes, takes its closed-form values, and project and
        # teodorescu need exactly the flag its parameter key names (const's value
        # names none and keeps its default)
        assert sorted(_BUILTIN_VALUES) == sorted(bergbep.io.BUILTINS)
        key, _ = bergbep.io.BUILTINS[name]
        param, closed = _BUILTIN_VALUES[name]
        spec = {"kind": "builtin", "name": name} | ({} if key is None else {key: param})
        once = normalize_function_spec(spec)
        assert once == normalize_function_spec(json.loads(dumps_canonical(once))) == spec
        values = function_from_spec(spec, grid_16_64).values
        assert np.max(np.abs(values - closed(grid_16_64.nodes))) <= 1e-14
        flag = [f"--{key}", str(param)] if key in ("eps", "n") else []
        for command in ("project", "teodorescu"):
            out = tmp_path / f"{command}.json"
            argv = [command, "--builtin", name, "--grid", "8,32", "--out", str(out)]
            argv += ["--degree", "4"] if command == "project" else []
            if flag:
                assert f"needs {flag[0]}" in self._fails(argv, capsys)
                assert not out.exists()
            assert main(argv + flag) == 0

    @pytest.mark.parametrize(
        "argv, patch, message",
        [
            (["spectrum", "--region", "radial:0.5", "--degree", "1000000000"], None,
             "degree must be <="),
            (["project", "--builtin", "basis", "--n", "1000000000", "--degree", "2",
              "--grid", "8,32"], None, "basis index must be <="),
            (["teodorescu", "--builtin", "basis", "--n", "1000000000", "--grid", "8,32"], None,
             "basis index must be <="),
            (["solve-bep", "--problem"], {"h_j": {"kind": "builtin", "name": "basis", "n": 10**9}},
             "basis index must be <="),
            (["solve-bep", "--problem"], {"degree": 10**9}, "degree must be <="),
        ],
    )
    def test_sizes_beyond_every_grid_refused(self, tmp_path, capsys, argv, patch, message):
        # a degree or basis index above the largest any admitted grid supports
        # exits 1 before anything large is allocated (it used to ask for 16 GB)
        if patch is not None:  # the problem file of the fixture with patch applied
            argv = argv + [self._write(tmp_path, dict(load_json(BEP_FIXTURE), **patch))]
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            err = self._fails(argv + ["--out", str(out)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message in err and f"<= {bergbep.io.MAX_DEGREE}" in err
        assert peak < 1 << 22
        assert not out.exists()

    def test_largest_degree(self):
        # 2047 at n_r = 1024, n_theta = 4096, whose exactness is 4094
        assert bergbep.io.MAX_DEGREE == 2047
        assert normalize_grid({"n_r": 1024, "n_theta": 4096}) == {"n_r": 1024, "n_theta": 4096}
        assert bergbep.io.normalize_degree(2047) == 2047
        basis = {"kind": "builtin", "name": "basis", "n": 2047}
        assert normalize_function_spec(basis) == basis
        doc = dict(load_json(BEP_FIXTURE), degree=2047)
        assert normalize_problem(doc)["degree"] == 2047
        for bad in (dict(basis, n=2048), dict(basis, n=-1)):
            with pytest.raises(SchemaError, match="basis index must be"):
                normalize_function_spec(bad)

    def test_mask_region_solves(self, tmp_path):
        grid = build_grid(24, 96)
        values = [bool(x) for x in (grid.nodes.real > 0.0).ravel()]
        doc = dict(load_json(BEP_FIXTURE), region_k={"variant": "mask", "values": values})
        out = tmp_path / "s.json"
        assert main(["solve-bep", "--problem", self._write(tmp_path, doc), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["saturated"] is True

    @pytest.mark.parametrize("value", _NON_BOOLEANS)
    @pytest.mark.parametrize("where", ["complement", "mask"])
    def test_non_boolean_region_flag_exits_1(self, tmp_path, capsys, where, value):
        doc = _with_region_flag(load_json(BEP_FIXTURE), where, value)
        argv = ["solve-bep", "--problem", self._write(tmp_path, doc), "--out", str(tmp_path / "s")]
        assert "must be true or false" in self._fails(argv, capsys)
        assert not (tmp_path / "s").exists()

    def test_mask_of_wrong_length(self, tmp_path, capsys):
        doc = dict(load_json(BEP_FIXTURE), region_k={"variant": "mask", "values": [True] * 5})
        argv = ["solve-bep", "--problem", self._write(tmp_path, doc), "--out", str(tmp_path / "s")]
        assert "mask has 5 entries" in self._fails(argv, capsys)

    @pytest.mark.parametrize(
        "command, builtin, extra",
        [
            ("project", "exp_x", ["--eps", "0.5"]),
            ("project", "exp_xy", ["--eps", "0.5"]),
            ("project", "basis", ["--n", "2"]),
            ("teodorescu", "exp_x", ["--eps", "0.5"]),
            ("teodorescu", "exp_xy", ["--eps", "0.5"]),
            ("teodorescu", "basis", ["--n", "2"]),
        ],
    )
    def test_builtin_parameters(self, tmp_path, capsys, command, builtin, extra):
        out = tmp_path / "o.json"
        argv = [command, "--builtin", builtin, "--grid", "8,32", "--out", str(out)]
        argv += ["--degree", "4"] if command == "project" else []
        self._fails(argv, capsys)
        assert not out.exists()
        assert main(argv + extra) == 0
        doc = json.loads(out.read_text())
        assert len(doc["coefficients" if command == "project" else "values"]) > 0

    def test_const_conductivity_solves(self, tmp_path):
        doc = dict(load_json(FBEP_FIXTURE), conductivity={"kind": "const", "value": 2.0})
        out = tmp_path / "s.json"
        prob = self._write(tmp_path, doc)
        assert main(["solve-fbep", "--problem", prob, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["saturated"] is True

    @pytest.mark.parametrize("command", ["solve-fbep", "lambda-sweep"])
    def test_zero_const_conductivity(self, tmp_path, capsys, command):
        doc = dict(load_json(FBEP_FIXTURE), conductivity={"kind": "const", "value": 0})
        argv = [command, "--problem", self._write(tmp_path, doc), "--out", str(tmp_path / "s")]
        argv += ["--m-values", "0.1"] if command == "lambda-sweep" else []
        assert "non-zero and finite, got 0.0" in self._fails(argv, capsys)

    @pytest.mark.parametrize("mutate", _NON_NUMBERS)
    def test_non_numbers_rejected(self, tmp_path, capsys, mutate):
        doc = load_json(BEP_FIXTURE)
        mutate(doc)
        out = tmp_path / "s.json"
        command = "solve-fbep" if "conductivity" in doc else "solve-bep"
        self._fails([command, "--problem", self._write(tmp_path, doc), "--out", str(out)], capsys)
        assert not out.exists()

    def test_solve_bep_on_fbep_file(self, tmp_path, capsys, monkeypatch):
        # the kind is read off the normalized document: no grid is built for it
        monkeypatch.setattr(bergbep.io, "build_grid", _no_build)
        out = tmp_path / "s"
        err = self._fails(["solve-bep", "--problem", FBEP_FIXTURE, "--out", str(out)], capsys)
        assert "use solve-fbep" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve-fbep", "lambda-sweep"])
    @pytest.mark.parametrize("kind, eps", [("exp_x", 1000.0), ("exp_xy", 1e5)])
    def test_conductivity_bound_beyond_float_range(self, tmp_path, capsys, command, kind, eps):
        # k = exp(|eps|) (exp(|eps| / 2) for exp_xy) overflows: one error line names
        # the bound, with no numpy warning before it
        doc = dict(load_json(FBEP_FIXTURE), conductivity={"kind": kind, "eps": eps})
        out = tmp_path / "s"
        argv = [command, "--problem", self._write(tmp_path, doc), "--out", str(out)]
        argv += ["--m-values", "0.1"] if command == "lambda-sweep" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self._fails(argv, capsys)
        assert err == "error: conductivity bound k must be >= 1 and finite, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["project", "teodorescu", "solve-bep"])
    @pytest.mark.parametrize("name, eps", [("exp_x", 1000.0), ("exp_xy", 1e5)])
    def test_builtin_beyond_float_range(self, tmp_path, capsys, command, name, eps):
        # exp(eps x) (exp(eps x y)) overflows on the grid: one error line names the
        # builtin and its eps, with no numpy warning before it
        out = tmp_path / "o"
        if command == "solve-bep":
            doc = dict(load_json(BEP_FIXTURE), h_k={"kind": "builtin", "name": name, "eps": eps})
            argv = [command, "--problem", self._write(tmp_path, doc)]
        else:
            argv = [command, "--builtin", name, "--eps", str(eps), "--grid", "8,32"]
            argv += ["--degree", "4"] if command == "project" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self._fails(argv + ["--out", str(out)], capsys)
        assert err == f"error: builtin {name} eps {eps!r} overflows on the grid\n"
        assert not out.exists()

    def test_lambda_sweep_empty_levels(self, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        argv = ["lambda-sweep", "--problem", BEP_FIXTURE, "--m-values", ",", "--out", out]
        assert "at least one" in self._fails(argv, capsys)

    # a grid beyond 2^11 rings or 2^22 nodes is refused before anything is
    # allocated: an n_r of 10**400 would overflow the Gauss rule, and an
    # n_theta of 10**9 would allocate until the process is killed
    _HUGE_GRIDS = [
        pytest.param(10**400, 96, id="n_r_huge"),
        pytest.param(100000000000000000000000, 8, id="n_r_1e23"),
        pytest.param(24, 10**9, id="n_theta_1e9"),
        pytest.param(2**11 + 1, 4, id="rings"),
        pytest.param(2**10, 2**12 + 1, id="nodes"),
    ]

    @pytest.mark.parametrize("n_r, n_theta", _HUGE_GRIDS)
    def test_huge_grid_in_problem_file(self, tmp_path, capsys, n_r, n_theta):
        doc = dict(load_json(BEP_FIXTURE), grid={"n_r": n_r, "n_theta": n_theta})
        out = tmp_path / "s.json"
        argv = ["solve-bep", "--problem", self._write(tmp_path, doc), "--out", str(out)]
        assert "n_r <= 2048 and n_r n_theta <= 4194304" in self._fails(argv, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("n_r, n_theta", _HUGE_GRIDS)
    def test_huge_grid_argument(self, tmp_path, capsys, n_r, n_theta):
        out = tmp_path / "o.json"
        argv = ["teodorescu", "--builtin", "const", "--grid", f"{n_r},{n_theta}", "--out", str(out)]
        assert "n_r <= 2048 and n_r n_theta <= 4194304" in self._fails(argv, capsys)
        assert not out.exists()

    def test_grid_caps_are_inclusive(self):
        largest = {"n_r": 2**11, "n_theta": 2**11}
        assert normalize_grid(largest) == largest
        for n_r, n_theta in [(2**11 + 1, 2**10), (2**11, 2**11 + 1), (1, 8), (8, 3)]:
            with pytest.raises(SchemaError, match="grid must satisfy"):
                normalize_grid({"n_r": n_r, "n_theta": n_theta})

    def test_grid_argument_malformed(self, tmp_path, capsys):
        out = str(tmp_path / "o.json")
        argv = ["teodorescu", "--builtin", "const", "--grid", "24x96", "--out", out]
        assert "grid must look like" in self._fails(argv, capsys)

    def test_unknown_option(self, tmp_path, capsys):
        argv = ["solve-bep", "--problem", BEP_FIXTURE, "--out", str(tmp_path / "s"), "--fast"]
        assert main(argv) == 1
        assert "unrecognized arguments: --fast" in capsys.readouterr().err


# the answers of solve-bep and solve-fbep on the fixtures, recorded in
# data/cli_answers.json: lambda, mu, err_K, err_J, the feasibility distance,
# the basis's least eigenvalue and the coefficients (relative to their norm)
# to 1e-10, the counts exactly.  The saturated sector f-BEP pins lambda, err_K
# and err_J alone: its coefficients are defined only to the accuracy of the
# near-null band of its K-form.
_ANSWERS = load_json(os.path.join(DATA, "cli_answers.json"))


@pytest.mark.parametrize("fixture", sorted(_ANSWERS))
def test_fixture_answers(tmp_path, fixture):
    record = _ANSWERS[fixture]
    out = tmp_path / "s.json"
    assert main([record["command"], "--problem", os.path.join(DATA, fixture),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key, expected in record["answers"].items():
        if key.startswith("coefficients"):
            got, want = np.array(doc[key]), np.array(expected)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.linalg.norm(want), key
        elif isinstance(expected, float):
            assert doc[key] == pytest.approx(expected, rel=1e-10, abs=0.0), key
        else:  # iterations, dropped directions, saturation
            assert doc[key] == expected, key


def test_cli_as_a_process(tmp_path):
    # the module entry point in a fresh interpreter, as the console script runs it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv, **extra_env):
        cmd = [sys.executable, "-m", "bergbep.cli", *argv]
        return subprocess.run(
            cmd, env=dict(env, **extra_env), capture_output=True, text=True, timeout=120
        )

    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run("solve-bep", "--problem", BEP_FIXTURE, "--out", str(out)).returncode == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()

    doc = dict(load_json(BEP_FIXTURE), h_j={"kind": "builtin", "name": "z_bar"}, m=1e-9)
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(dumps_canonical(doc))
    done = run("solve-bep", "--problem", str(infeasible), "--out", str(tmp_path / "c.json"))
    assert done.returncode == 2 and done.stderr.startswith("error: infeasible problem")

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    done = run("solve-bep", "--problem", str(malformed), "--out", str(tmp_path / "d.json"))
    assert done.returncode == 1 and done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr

    # an unknown BERGBEP_LOG level falls back to errors only: a solve logs nothing
    done = run("solve-bep", "--problem", BEP_FIXTURE, "--out", str(tmp_path / "e.json"),
               BERGBEP_LOG="bogus")
    assert done.returncode == 0 and done.stderr == ""
