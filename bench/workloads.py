"""The benchmark's three workloads: seeded instances, timed operations, gates.

A workload turns a seed into one cycle of operations.  Each operation
has a kind (the unit its latency is summarized over), a timed callable,
a gate that checks the callable's result, and a traced form that does
the same work as separate calls into the package's modules.  Instance
generation, including every library call it needs (placing M between
the feasibility distance and the unconstrained err_J), happens when the
cycle is built, outside every timed span.

Parameters that move the cost of an operation are drawn by stratified
sampling: with n instances of a kind, instance i draws from the i-th of
n equal strata in a seeded order.  Every seed therefore gets the same
spread of costs, and medians are steady across seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import bergbep as B
from bergbep import io as bio
from bergbep import cli as bcli

import gates

LIFT_TOL = 1e-10
HUGE_M = 1e300  # a budget that never binds: solve_bep returns the unconstrained fit


@dataclass
class Op:
    kind: str
    instance: str
    size: str
    run: Callable[[], object]
    gate: Callable[[object], list]
    traced: Callable[[object], object]  # same work as run, split into layer spans
    extras: Callable[[object], None] = lambda tracer: None  # further per-layer calls


@dataclass
class Workload:
    name: str
    ops: list
    setup_code: str  # python -c body: the set-up a fresh process needs before its first op
    probe_grid: tuple  # (n_r, n_theta, degree) for the layer probes this workload runs
    known_defects: list = field(default_factory=list)  # ops run once, outside the stream
    in_process: bool = True  # the ops run in this process, where the speed gauge runs


def strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """One draw from each of n equal strata of [lo, hi], in a seeded order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def analytic_poly(rng, degree: int) -> np.ndarray:
    n = np.arange(degree + 1)
    return (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) / (n + 1.0)


def grid_label(grid) -> str:
    return f"{grid.n_radial}x{grid.angular_count}"


# ---------------------------------------------------------------- traced layer calls


def trace_bep_layers(tr, problem, size: str) -> None:
    """Per-layer calls for one BEP: sampling, assembly, the solves, the oracle."""
    grid, n = problem.grid, problem.degree
    tr.call("grid.build_grid", grid_label(grid), B.build_grid, grid.n_radial, grid.angular_count)
    tr.call("grid.region_weights", grid_label(grid),
            lambda: (problem.k_region.weights(grid), problem.j_region.weights(grid)))
    tr.call("bergman.basis_matrix", size, B.basis_matrix, grid, n)
    tr.call("bergman.gram_quadrature", size, B.gram_quadrature, problem.j_region, n, grid)
    tr.call("bergman.project", size, B.project, problem.h_j, n)
    tr.call("bep.feasibility_distance", size, B.feasibility_distance, problem.h_j,
            problem.j_region, n)
    sol = tr.call("bep.solve_bep_nodiag", size, B.solve_bep, problem, degree_diagnostic=False)
    tr.call("bep.solve_at_lambda", size, B.solve_at_lambda, problem, sol.lam)
    tr.call("bep.oracle", size, B.solve_bep_oracle, problem)
    tr.count("bep.iterations", sol.iterations, size)
    tr.count("bep.saturated", int(sol.saturated), size)


def trace_fbep_solve(tr, problem, size: str, seed: int = 0):
    """The f-BEP solve as the CLI runs it, one span per public call."""
    try:
        basis = tr.call("fbep.build_fbep_space", size, B.build_fbep_space, problem.f,
                        problem.degree, tol=problem.lift_tol)
    except B.ConvergenceError:
        tr.count("vekua.lift_raised", 1, size)
        raise
    record_lift_counts(tr, basis, size)
    sol = tr.call("fbep.solve_fbep", size, B.solve_fbep, problem, basis)
    conj = tr.call("fbep.conjecture_check", size, B.fbep_conjecture_check, problem, sol)
    dk = None
    if sol.saturated:
        dk = tr.call("fbep.directional_kkt", size, B.directional_kkt_check, problem, sol,
                     seed=seed)
    tr.count("fbep.dropped", sol.dropped, size)
    return problem, sol, conj, dk


def record_lift_counts(tr, basis, size: str) -> None:
    its = [el.iterations for el in basis.elements]
    tr.count("vekua.lift_iterations_total", sum(its), size)
    tr.count("vekua.lift_iterations_max", max(its), size)
    tr.count("vekua.lift_nonconverged", sum(not el.converged for el in basis.elements), size)
    tr.count("vekua.lifts", len(its), size)


def trace_vekua_layers(tr, f, degree: int) -> None:
    """Operator build on a fresh grid, a warm apply, dbar, one lift and its defect."""
    grid = f.grid
    label = grid_label(grid)
    fresh = B.build_grid(grid.n_radial, grid.angular_count)
    tr.call("vekua.teodorescu_first", label, B.teodorescu, B.GridFunction.constant(fresh, 1.0))
    alpha = B.alpha_from_f(f)
    seed = B.AnalyticCoeffs.unit(0, degree)
    tr.call("vekua.teodorescu", label, B.teodorescu, alpha * seed.on_grid(grid).conj())
    tr.call("vekua.dbar", label, B.dbar, f.values)
    lift = tr.call("vekua.vekua_lift", f"{label}/{degree}", B.vekua_lift, seed, alpha,
                   tol=LIFT_TOL)
    tr.call("vekua.vekua_residual", f"{label}/{degree}", B.vekua_residual, lift.w, alpha,
            degree)


def trace_io_cli(tr, path: str, argv: list, size: str) -> None:
    """In-process reading, solving, writing and the CLI entry point for one file."""
    doc = tr.call("io.load_json", size, bio.load_json, path)
    problem = tr.call("io.problem_from_dict", size, bio.problem_from_dict, doc)
    out = path + ".inproc.json"
    if isinstance(problem, B.FbepProblem):
        _, sol, conj, _ = trace_fbep_solve(tr, problem, size)
        doc_out = tr.call("io.solution_to_dict", size, bio.fbep_solution_to_dict, sol,
                          problem.degree, conj)
    else:
        sol = tr.call("bep.solve_bep", size, B.solve_bep, problem)
        doc_out = tr.call("io.solution_to_dict", size, bio.bep_solution_to_dict, sol,
                          problem.degree)
    tr.call("io.write_json", size, bio.write_json, out, doc_out)
    os.remove(out)
    code = tr.call("cli.main", size, bcli.main, argv)
    tr.count("cli.main_exit", code, size)


# ---------------------------------------------------------------- bep-large

BEP_SIZES = {"full": (128, 256, 60), "tiny": (12, 48, 8)}
REGION_KINDS = ("disc", "annulus", "sector", "mask")
# parameter range per region kind of K: radius, inner radius, half-angle, blob radius
REGION_RANGES = {"disc": (0.45, 0.8), "annulus": (0.3, 0.7), "sector": (0.6, 2.4),
                 "mask": (0.35, 0.6)}


def make_k_region(kind: str, param: float, grid, rng) -> B.Region:
    if kind == "disc":
        return B.Region.radial_disc(param)
    if kind == "annulus":
        return B.Region.annulus(param)
    if kind == "sector":
        return B.Region.sector(param)
    # an off-centre blob resolved on the nodes: the region only the dense path handles
    centre = 0.35 * rng.random() * np.exp(2j * np.pi * rng.random())
    return B.Region.mask(np.abs(grid.nodes - centre) < param)


def bep_large(rng, scale: str) -> Workload:
    """Seeded BEPs at the largest ROADMAP size; one op is BepProblem(...) + solve_bep."""
    n_r, n_t, n = BEP_SIZES[scale]
    grid = B.build_grid(n_r, n_t)
    size = f"{n_r}x{n_t}/{n}"
    basis = B.basis_matrix(grid, n)  # shared by the gates of every instance
    z = grid.nodes
    plans = []  # (kind, region kind, param, saturated fraction or None)
    fracs = strata(rng, 2 * len(REGION_KINDS), 0.1, 0.9)
    for i, kind in enumerate(REGION_KINDS):
        for j, param in enumerate(strata(rng, 2, *REGION_RANGES[kind])):
            plans.append((kind, kind, param, fracs[2 * i + j]))
    for kind in rng.choice(REGION_KINDS, size=2, replace=False):
        plans.append(("inactive", str(kind), rng.uniform(*REGION_RANGES[kind]), None))

    ops = []
    for idx, (op_kind, region_kind, param, frac) in enumerate(plans):
        k_region = make_k_region(region_kind, param, grid, rng)
        j_region = k_region.complement()
        h_k = B.AnalyticCoeffs(analytic_poly(rng, 5)).on_grid(grid)
        p, q = rng.uniform(0.2, 0.4), rng.uniform(0.05, 0.15)
        h_j = B.GridFunction(grid, p * np.conj(z) + q * np.abs(z) ** 2)
        free = B.solve_bep(B.BepProblem(k_region, j_region, h_k, h_j, HUGE_M, n),
                           degree_diagnostic=False)
        if frac is None:
            m = free.err_j * rng.uniform(1.1, 1.5)
        else:
            m = free.feasibility + frac * (free.err_j - free.feasibility)
        saturated = frac is not None
        problem0 = B.BepProblem(k_region, j_region, h_k, h_j, m, n)
        name = f"bep{idx}:{region_kind} {param:.3f}:{'saturated' if saturated else 'inactive'}"
        ops.append(_bep_op(f"bep_solve:{op_kind}", name, size, problem0, basis, saturated))
    return Workload(
        name="bep-large",
        ops=ops,
        setup_code=f"import bergbep; bergbep.build_grid({n_r}, {n_t})",
        probe_grid=(n_r, n_t, n),
    )


def _bep_op(kind, name, size, problem0, basis, saturated) -> Op:
    p = problem0
    cert = gates.BepCertificates(p, basis)
    oracle = []  # filled on first use: the oracle is deterministic per instance

    def run():
        problem = B.BepProblem(p.k_region, p.j_region, p.h_k, p.h_j, p.m, p.degree)
        return B.solve_bep(problem)

    def gate(sol):
        if saturated and not oracle:
            oracle.append(B.solve_bep_oracle(p).g0.coeffs)
        return gates.bep_gate(cert, sol, saturated, oracle[0] if oracle else None)

    def traced(tr):
        problem = B.BepProblem(p.k_region, p.j_region, p.h_k, p.h_j, p.m, p.degree)
        return tr.call("bep.solve_bep", size, B.solve_bep, problem)

    return Op(kind, name, size, run, gate, traced, lambda tr: trace_bep_layers(tr, p, size))


# ---------------------------------------------------------------- fbep-lift

FBEP_SIZES = {"full": ((24, 96, 12), (32, 64, 8)), "tiny": ((8, 32, 3), (6, 24, 2))}
# (size slot, conductivity, eps): the contrast ladder, inside the Neumann
# contraction regime.  The rungs are fixed, because the lift's cost follows
# eps; the seed draws the regions, the data and the budget.  The first rung
# of each size is the tests/data conductivity, exp_x with eps = 0.1.
LADDER = (
    (0, "exp_x", 0.1), (0, "exp_x", 0.8), (0, "exp_x", 1.5),
    (0, "exp_xy", 0.5), (0, "exp_xy", 1.75), (0, "exp_xy", 3.0),
    (1, "exp_x", 0.1), (1, "exp_xy", 1.5),
)
# Well-posed inputs the package fails today, each run once per benchmark run
# beside the timed stream: (size slot, conductivity, eps, J, op that fails).
KNOWN_DEFECTS = (
    (0, "exp_x", 2.0, "disc", "fbep_solve"),  # lifts stall at max_iter, accepted
    (0, "exp_x", 2.5, "disc", "fbep_solve"),  # a lift diverges: ConvergenceError
    (0, "exp_xy", 6.0, "disc", "fbep_solve"),  # oscillating blow-up, accepted
    (0, "exp_x", 0.8, "annulus", "fbep_transform"),  # rounding-level J weight
    (1, "exp_x", 0.1, "annulus", "fbep_transform"),
    (0, "exp_xy", 1.75, "wide_disc", "fbep_transform"),  # same, J = complement of a wide disc
)
J_RANGES = {"disc": (0.3, 0.5), "wide_disc": (0.55, 0.7), "annulus": (0.3, 0.7)}


def fbep_lift(rng, scale: str) -> Workload:
    """f-BEPs over a contrast ladder; ops are the CLI's solve and the transformed data."""
    sizes = FBEP_SIZES[scale]
    grids = [B.build_grid(n_r, n_t) for n_r, n_t, _ in sizes]
    for grid in grids:  # the Teodorescu operator is built once per grid, in set-up
        B.teodorescu(B.GridFunction.constant(grid, 1.0))
    radii = strata(rng, len(LADDER), *J_RANGES["disc"])
    fracs = strata(rng, len(LADDER), 0.3, 0.7)

    def instance(idx, slot, kind, eps, j_kind, radius, frac):
        n_r, n_t, n = sizes[slot]
        grid = grids[slot]
        f = getattr(B.Conductivity, kind)(grid, eps)
        if j_kind == "annulus":
            k_region = B.Region.annulus(radius).complement()
        else:
            k_region = B.Region.radial_disc(radius)
        j_region = k_region.complement()
        coeffs = np.array([1.0, 0.5j, 0.0]) + 0.25 * analytic_poly(rng, 2)
        h_k = B.AnalyticCoeffs(coeffs).on_grid(grid)
        h_j = B.GridFunction.constant(grid, 0.0)
        # M from the Bergman problem with the same data: placing it on the
        # lifted basis would need the lifts this workload times
        free = B.solve_bep(B.BepProblem(k_region, j_region, h_k, h_j, HUGE_M, n),
                           degree_diagnostic=False)
        problem = B.FbepProblem(f, k_region, j_region, h_k, h_j, frac * free.err_j, n,
                                lift_tol=LIFT_TOL)
        size = f"{n_r}x{n_t}/{n}"
        name = f"fbep{idx}:{kind} {eps:.4g}:{j_kind} J a={radius:.3f}:{size}"
        alpha_max = float(np.max(np.abs(B.alpha_from_f(f).values)))
        return (_fbep_solve_op(name, size, f"{size} {kind} {eps:.3g}", problem),
                _fbep_transform_op(name, size, problem, alpha_max))

    ops = []
    for idx, (slot, kind, eps) in enumerate(LADDER):
        ops.extend(instance(idx, slot, kind, eps, "disc", radii[idx], fracs[idx]))
    defects = []
    for idx, (slot, kind, eps, j_kind, failing) in enumerate(KNOWN_DEFECTS, len(LADDER)):
        solve, transform = instance(idx, slot, kind, eps, j_kind,
                                    rng.uniform(*J_RANGES[j_kind]), rng.uniform(0.3, 0.7))
        defects.append(solve if failing == "fbep_solve" else transform)
    setup = "import bergbep; " + "; ".join(
        f"bergbep.teodorescu(bergbep.GridFunction.constant(bergbep.build_grid({n_r}, {n_t}), 1.0))"
        for n_r, n_t, _ in sizes
    )
    return Workload(name="fbep-lift", ops=ops, setup_code=setup, probe_grid=sizes[0],
                    known_defects=defects)


def _fbep_solve_op(name, size, label, p) -> Op:
    def run():
        problem = B.FbepProblem(p.f, p.k_region, p.j_region, p.h_k, p.h_j, p.m, p.degree,
                                lift_tol=p.lift_tol)
        sol = B.solve_fbep(problem)
        conj = B.fbep_conjecture_check(problem, sol)
        dk = B.directional_kkt_check(problem, sol, seed=0) if sol.saturated else None
        return problem, sol, conj, dk

    def gate(result):
        problem, sol, conj, dk = result
        return gates.fbep_gate(problem, sol, conj, dk)

    def traced(tr):
        problem = B.FbepProblem(p.f, p.k_region, p.j_region, p.h_k, p.h_j, p.m, p.degree,
                                lift_tol=p.lift_tol)
        return trace_fbep_solve(tr, problem, label)

    def extras(tr):
        trace_vekua_layers(tr, p.f, p.degree)
        grid = p.grid
        tr.call("grid.build_grid", grid_label(grid), B.build_grid, grid.n_radial,
                grid.angular_count)
        tr.call("grid.region_weights", grid_label(grid),
                lambda: (p.k_region.weights(grid), p.j_region.weights(grid)))

    return Op("fbep_solve", name, size, run, gate, traced, extras)


def _fbep_transform_op(name, size, p, alpha_max) -> Op:
    def run():
        return B.transformed_constraint_data(p)

    def gate(result):
        return gates.transform_gate(p.m, result[1], alpha_max)

    def traced(tr):
        return tr.call("fbep.transform", size, B.transformed_constraint_data, p)

    def extras(tr):
        tr.call("fbep.restriction_map_norm", size, B.restriction_map_norm, p.f, p.j_region)

    return Op("fbep_transform", name, size, run, gate, traced, extras)


# ---------------------------------------------------------------- cli-mix

CLI_SIZES = {
    "full": {"bep_small": (24, 96, 16), "bep_medium": (64, 128, 30), "fbep": (32, 64, 8)},
    "tiny": {"bep_small": (12, 24, 4), "bep_medium": (16, 32, 6), "fbep": (8, 24, 2)},
}
SWEEP_LEVELS = 4


def _bep_doc(rng, n_r, n_t, n) -> dict:
    kind = rng.choice(("radial_disc", "annulus", "sector"))
    region = {"variant": str(kind), "complement": False}
    if kind == "sector":
        region["theta"] = float(rng.uniform(0.8, 2.2))
    else:
        region["a"] = float(rng.uniform(0.4, 0.7))
    coeffs = analytic_poly(rng, 3)
    return {
        "grid": {"n_r": n_r, "n_theta": n_t},
        "region_k": region,
        "h_k": {"kind": "coeffs", "coeffs": [[c.real, c.imag] for c in coeffs]},
        "h_j": {"kind": "builtin", "name": str(rng.choice(("z_bar", "abs2")))},
        "m": 1.0,
        "degree": n,
    }


def _fbep_doc(rng, n_r, n_t, n) -> dict:
    coeffs = np.array([1.0, 0.5j]) + 0.25 * analytic_poly(rng, 1)
    return {
        "grid": {"n_r": n_r, "n_theta": n_t},
        "region_k": {"variant": "radial_disc", "a": float(rng.uniform(0.4, 0.5)),
                     "complement": False},
        "h_k": {"kind": "coeffs", "coeffs": [[c.real, c.imag] for c in coeffs]},
        "h_j": {"kind": "builtin", "name": "const", "value": [0.0, 0.0]},
        "conductivity": {"kind": "exp_x", "eps": 0.1},
        "lift_tol": LIFT_TOL,
        "m": 1.0,
        "degree": n,
    }


def _free_levels(doc) -> tuple[float, float]:
    """Feasibility distance and unconstrained err_J of a problem document."""
    big = dict(doc, m=HUGE_M)
    problem = bio.problem_from_dict(big)
    if isinstance(problem, B.FbepProblem):
        sol = B.solve_fbep(problem)
    else:
        sol = B.solve_bep(problem, degree_diagnostic=False)
    return sol.feasibility, sol.err_j


def cli_mix(rng, scale: str, root: str, child_env: dict, workdir: str) -> Workload:
    """Cold CLI commands on seeded problem files, one subprocess at a time."""
    sizes = CLI_SIZES[scale]
    specs = []  # (command name, size label, doc, extra arguments or sweep levels, expect)

    def place(doc, frac):
        feas, free = _free_levels(doc)
        return dict(doc, m=float(feas + frac * (free - feas))), feas, free

    small = sizes["bep_small"]
    label_small = "{}x{}/{}".format(*small)
    doc, _, _ = place(_bep_doc(rng, *small), rng.uniform(0.2, 0.8))
    specs.append(("solve-bep", label_small, doc, [], {"exit": 0, "format": "bep"}))
    medium = sizes["bep_medium"]
    doc, _, _ = place(_bep_doc(rng, *medium), rng.uniform(0.2, 0.8))
    specs.append(("solve-bep-medium", "{}x{}/{}".format(*medium), doc, [],
                  {"exit": 0, "format": "bep"}))
    doc, _, _ = place(_bep_doc(rng, *small), rng.uniform(0.2, 0.8))
    specs.append(("solve-bep-oracle", label_small, doc, ["--oracle"],
                  {"exit": 0, "format": "bep"}))
    fsize = sizes["fbep"]
    label_f = "{}x{}/{}".format(*fsize)
    doc, _, _ = place(_fbep_doc(rng, *fsize), rng.uniform(0.3, 0.7))
    specs.append(("solve-fbep", label_f, doc, [], {"exit": 0, "format": "fbep"}))
    doc, feas, free = place(_bep_doc(rng, *small), 0.5)
    levels = [float(feas + x * (free - feas)) for x in strata(rng, SWEEP_LEVELS, 0.1, 0.9)]
    specs.append(("lambda-sweep-bep", label_small, doc, levels,
                  {"exit": 0, "format": "sweep", "m_values": levels}))
    doc, feas, free = place(_fbep_doc(rng, *fsize), 0.5)
    levels = [float(feas + x * (free - feas)) for x in strata(rng, SWEEP_LEVELS, 0.1, 0.9)]
    specs.append(("lambda-sweep-fbep", label_f, doc, levels,
                  {"exit": 0, "format": "sweep", "m_values": levels}))
    doc, feas, _ = place(_bep_doc(rng, *small), 0.0)
    doc["m"] = float(feas * rng.uniform(0.3, 0.7))
    specs.append(("infeasible-bep", label_small, doc, [], {"exit": 2, "format": None}))

    ops = []
    for name, size, doc, extra, expect in specs:
        path = os.path.join(workdir, f"{name}.problem.json")
        bio.write_json(path, doc)
        out = os.path.join(workdir, f"{name}.out")
        if name.startswith("lambda-sweep"):
            argv = ["lambda-sweep", "--problem", path,
                    "--m-values", ",".join(repr(m) for m in extra), "--out", out]
        else:
            command = "solve-fbep" if name == "solve-fbep" else "solve-bep"
            argv = [command, "--problem", path, "--out", out] + list(extra)
        expect = dict(expect, m=doc["m"])
        ops.append(_cli_op(name, size, argv, out, expect, root, child_env, path))
    order = list(rng.permutation(len(ops)))
    return Workload(
        name="cli-mix",
        ops=[ops[i] for i in order],
        setup_code="import bergbep",
        probe_grid=sizes["bep_medium"],
        in_process=False,
    )


def run_cli(argv: list, out: str, root: str, env: dict, timeout: float = 60.0):
    """One cold `python -m bergbep.cli` process; returns (exit code, output bytes, stderr)."""
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run(
        [sys.executable, "-m", "bergbep.cli", *argv],
        cwd=root, env=env, capture_output=True, timeout=timeout, check=False,
    )
    output = None
    if os.path.exists(out):
        with open(out, "rb") as handle:
            output = handle.read()
    return proc.returncode, output, proc.stderr


def _cli_op(name, size, argv, out, expect, root, env, problem_path) -> Op:
    reference = {}

    def run():
        return run_cli(argv, out, root, env)

    def gate(result):
        code, output, stderr = result
        produced = output if expect["format"] is not None else stderr
        fails = gates.cli_gate(expect, code, output, stderr, reference.get("bytes"))
        if not fails and "bytes" not in reference:
            reference["bytes"] = produced
        return fails

    def traced(tr):
        return tr.call(f"cli.{name}", size, run_cli, argv, out, root, env)

    def extras(tr):
        inproc = [a if a != out else out + ".main" for a in argv]
        if name.startswith("solve"):
            trace_io_cli(tr, problem_path, inproc, size)
            doc = bio.load_json(problem_path)
            problem = bio.problem_from_dict(doc)
            if isinstance(problem, B.BepProblem):
                trace_bep_layers(tr, problem, size)
        else:
            code = tr.call("cli.main", size, bcli.main, inproc)
            tr.count("cli.main_exit", code, size)
        for path in (out + ".main",):
            if os.path.exists(path):
                os.remove(path)

    return Op(name, name, size, run, gate, traced, extras)


def cold_import(root: str, env: dict, importtime: bool = False) -> tuple[float, str]:
    """Wall time of a fresh `python -c "import bergbep"`, and its stderr."""
    flags = ["-X", "importtime"] if importtime else []
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import bergbep"],
        cwd=root, env=env, capture_output=True, timeout=60, check=True, text=True,
    )
    return time.perf_counter() - start, proc.stderr


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of every scipy subtree in a `-X importtime` log."""
    stack = []  # (depth, scipy seconds inside this finished node)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cum_us, raw_name = int(parts[1]), parts[2]
        name = raw_name.strip()
        depth = len(raw_name) - len(raw_name.lstrip())
        inner = 0.0
        while stack and stack[-1][0] > depth:
            inner += stack.pop()[1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        stack.append((depth, cum_us * 1e-6 if is_scipy else inner))
    return sum(v for _, v in stack)


# ---------------------------------------------------------------- layer probes

PROBE_BEP = (24, 96, 16)
PROBE_FBEP = (24, 96, 8)
IMPORT_REPEATS = 3


def _probe_bep(grid, degree: int):
    k_region = B.Region.radial_disc(0.5)
    j_region = k_region.complement()
    z = grid.nodes
    h_k = B.AnalyticCoeffs([1.0, 0.5j]).on_grid(grid)
    h_j = B.GridFunction(grid, 0.3 * np.conj(z) + 0.1 * np.abs(z) ** 2)
    free = B.solve_bep(B.BepProblem(k_region, j_region, h_k, h_j, HUGE_M, degree),
                       degree_diagnostic=False)
    m = 0.5 * (free.feasibility + free.err_j)
    return B.BepProblem(k_region, j_region, h_k, h_j, m, degree)


def run_probes(tr, layers: set, probe_grid: tuple, root: str, env: dict, workdir: str) -> None:
    """Per-layer calls at fixed sizes for the layers a workload's own ops do not reach.

    Grid, Bergman and Vekua calls run on the workload's probe grid; the
    BEP, f-BEP, io and CLI calls on small fixed problems.  The cold
    import of the package is timed in every traced run.
    """
    tr.cycle = 0
    if {"grid", "bergman", "vekua"} & layers:
        n_r, n_t, n = probe_grid
        problem = _probe_bep(B.build_grid(n_r, n_t), n)
        tr.new_op()
        if {"grid", "bergman"} & layers:
            grid, size = problem.grid, f"{n_r}x{n_t}/{n}"
            tr.call("grid.build_grid", grid_label(grid), B.build_grid, n_r, n_t)
            tr.call("grid.region_weights", grid_label(grid),
                    lambda: (problem.k_region.weights(grid), problem.j_region.weights(grid)))
            tr.call("bergman.basis_matrix", size, B.basis_matrix, grid, n)
            tr.call("bergman.gram_quadrature", size, B.gram_quadrature, problem.j_region, n,
                    grid)
            tr.call("bergman.project", size, B.project, problem.h_j, n)
        if "vekua" in layers:
            trace_vekua_layers(tr, B.Conductivity.exp_x(problem.grid, 0.1), n)
    if "bep" in layers:
        n_r, n_t, n = PROBE_BEP
        problem = _probe_bep(B.build_grid(n_r, n_t), n)
        size = f"{n_r}x{n_t}/{n}"
        tr.new_op()
        tr.call("bep.solve_bep", size, B.solve_bep, problem)
        trace_bep_layers(tr, problem, size)
    if "fbep" in layers:
        n_r, n_t, n = PROBE_FBEP
        bep = _probe_bep(B.build_grid(n_r, n_t), n)
        problem = B.FbepProblem(B.Conductivity.exp_x(bep.grid, 0.1), bep.k_region, bep.j_region,
                                bep.h_k, B.GridFunction.constant(bep.grid, 0.0), 0.5 * bep.m, n,
                                lift_tol=LIFT_TOL)
        size = f"{n_r}x{n_t}/{n}"
        tr.new_op()
        trace_fbep_solve(tr, problem, f"{size} exp_x 0.1")
        tr.call("fbep.transform", size, B.transformed_constraint_data, problem)
        tr.call("fbep.restriction_map_norm", size, B.restriction_map_norm, problem.f,
                problem.j_region)
    if {"io", "cli"} & layers:
        n_r, n_t, n = PROBE_BEP
        doc = _bep_doc(np.random.default_rng(0), n_r, n_t, n)
        feas, free = _free_levels(doc)
        doc["m"] = 0.5 * (feas + free)
        path = os.path.join(workdir, "probe.problem.json")
        bio.write_json(path, doc)
        tr.new_op()
        trace_io_cli(tr, path, ["solve-bep", "--problem", path, "--out", path + ".out"],
                     f"{n_r}x{n_t}/{n}")
    tr.new_op()
    for _ in range(IMPORT_REPEATS):
        with tr.span("cli.import", "cold"):
            cold_import(root, env)
    _, log = cold_import(root, env, importtime=True)
    tr.sample("cli.import_scipy_s", "cold", scipy_import_seconds(log))
