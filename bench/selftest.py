"""Self-test of the benchmark: `python3 bench/run.py --smoke`.

Runs every workload on tiny problems in both modes and checks that the
result line carries exactly the metrics BENCHMARK.json names, with
their units.  Then feeds each gate a correct result and deliberately
wrong ones, and checks that only the wrong ones are counted as failures.
Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys

import bergbep as B
import gates
import run
import tracing
import workloads


def check(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)
    print(f"  ok  {what}")


def contract_metrics() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def smoke_runs(expected: dict) -> None:
    print("metric lists in the code match BENCHMARK.json")
    check(dict(run.END_TO_END) == expected[0], "end-to-end names and units")
    check(dict(tracing.PER_LAYER) == expected[1], "per-layer names and units")
    check(list(run.WORKLOADS) == expected["workloads"], "workload names")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            print(f"tiny run: {workload} --trace {trace}")
            proc = subprocess.run(
                [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=False,
            )
            check(proc.returncode == 0,
                  "exit code 0" + ("" if proc.returncode == 0 else f": {proc.stderr[-300:]!r}"))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(result["correct"] is True and result["failed"] == 0, "every op passed")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], "every named metric present with its unit")
            values = [v["value"] for v in result["metrics"].values()]
            check(all(isinstance(x, (int, float)) and math.isfinite(x) for x in values),
                  "values are finite numbers")
            if trace == 0:
                check(all(x > 0 for x in values), "end-to-end values are positive")


def bep_gate_cases() -> None:
    print("BEP gate")
    grid = B.build_grid(12, 48)
    problem = workloads._probe_bep(grid, 8)
    sol = B.solve_bep(problem)
    cert = gates.BepCertificates(problem, B.basis_matrix(grid, 8))
    oracle = B.solve_bep_oracle(problem).g0.coeffs
    check(gates.bep_gate(cert, sol, True, oracle) == [], "correct solution passes")
    wrong = dataclasses.replace(sol, g0=B.AnalyticCoeffs(sol.g0.coeffs * (1.0 + 1e-5)))
    check(gates.bep_gate(cert, wrong, True, oracle) != [], "perturbed coefficients fail")
    check(gates.bep_gate(cert, sol, True, oracle + 1e-6) != [], "oracle disagreement fails")
    check(gates.bep_gate(cert, sol, False, oracle) != [], "unexpected saturation fails")


def fbep_gate_cases() -> None:
    print("f-BEP and transformed-data gates")
    bep = workloads._probe_bep(B.build_grid(8, 32), 3)
    problem = B.FbepProblem(B.Conductivity.exp_x(bep.grid, 0.1), bep.k_region, bep.j_region,
                            bep.h_k, B.GridFunction.constant(bep.grid, 0.0), 0.5 * bep.m, 3,
                            lift_tol=workloads.LIFT_TOL)
    sol = B.solve_fbep(problem)
    conj = B.fbep_conjecture_check(problem, sol)
    dk = B.directional_kkt_check(problem, sol)
    check(gates.fbep_gate(problem, sol, conj, dk) == [], "correct solution passes")
    elements = list(sol.basis.elements)
    elements[1] = dataclasses.replace(elements[1], converged=False)
    flipped = dataclasses.replace(sol, basis=B.VekuaBasis(sol.basis.alpha, elements))
    check(gates.fbep_gate(problem, flipped, conj, dk) != [], "a non-converged lift fails")
    nudged = dataclasses.replace(sol, coeffs=sol.coeffs * (1.0 + 1e-5))
    check(gates.fbep_gate(problem, nudged, conj, dk) != [], "perturbed coefficients fail")
    check(gates.fbep_gate(problem, sol, conj, -1.0) != [], "negative directional KKT fails")
    _, m_star = B.transformed_constraint_data(problem)
    alpha_max = 0.05
    check(gates.transform_gate(problem.m, m_star, alpha_max) == [], "correct rho passes")
    check(gates.transform_gate(problem.m, math.inf, alpha_max) != [], "infinite rho fails")
    check(gates.transform_gate(problem.m, 1.3e6 * problem.m, alpha_max) != [],
          "rho above the Schur bound fails")


def cli_gate_cases() -> None:
    print("CLI gate")
    doc = {"kind": "bep", "err_j": 0.5, "saturated": True, "kkt_residual": 1e-15,
           "lambda": 2.0, "oracle_delta": 1e-13}
    good = json.dumps(doc).encode()
    expect = {"exit": 0, "format": "bep", "m": 0.5}
    check(gates.cli_gate(expect, 0, good, b"", None) == [], "correct output passes")
    check(gates.cli_gate(expect, 0, good, b"", good) == [], "identical repetition passes")
    check(gates.cli_gate(expect, 3, good, b"", None) != [], "wrong exit code fails")
    check(gates.cli_gate(expect, 0, good, b"", good + b" ") != [], "changed bytes fail")
    check(gates.cli_gate(expect, 0, b"{not json", b"", None) != [], "unparsable output fails")
    off = json.dumps(dict(doc, err_j=0.6)).encode()
    check(gates.cli_gate(expect, 0, off, b"", None) != [], "unsaturated output fails")
    infeasible = {"exit": 2, "format": None, "m": 0.1}
    check(gates.cli_gate(infeasible, 2, None, b"error", b"error") == [], "exit 2 passes")
    check(gates.cli_gate(infeasible, 0, b"{}", b"", None) != [], "exit 0 when infeasible fails")
    sweep = {"exit": 0, "format": "sweep", "m": 0.2, "m_values": [0.1, 0.2]}
    rows = b"m,lambda,err_k\n0.1,3.0,0.5\n0.2,1.0,0.4\n"
    check(gates.cli_gate(sweep, 0, rows, b"", None) == [], "monotone sweep passes")
    rows = b"m,lambda,err_k\n0.1,1.0,0.5\n0.2,3.0,0.4\n"
    check(gates.cli_gate(sweep, 0, rows, b"", None) != [], "non-monotone sweep fails")


def parser_cases() -> None:
    print("import-time parser")
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |         50 |       _bz2",
        "import time:       300 |        350 |     scipy.optimize",
        "import time:       200 |        650 |   scipy",
        "import time:        10 |        660 | bergbep.bep",
        "import time:        70 |         70 | scipy.linalg",
    ])
    check(abs(workloads.scipy_import_seconds(log) - 720e-6) < 1e-12, "scipy subtrees summed")


def main() -> int:
    expected = contract_metrics()
    bep_gate_cases()
    fbep_gate_cases()
    cli_gate_cases()
    parser_cases()
    smoke_runs(expected)
    print("self-test passed")
    return 0
