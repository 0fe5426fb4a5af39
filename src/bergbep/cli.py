"""Command-line interface for the disc solvers.

Exit codes: 0 success, 1 I/O or schema error, 2 infeasible constraint
level, 3 solver non-convergence.  The BERGBEP_LOG environment variable
(error, info, debug) controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import io as bio
from .bep import (
    ConstrainedLSQ,
    ConvergenceError,
    InfeasibleProblemError,
    _certificates,
    solve_bep,
    solve_bep_oracle,
)
from .bergman import gram, project, spectrum
from .fbep import (
    FbepProblem,
    build_fbep_space,
    directional_kkt_check,
    fbep_conjecture_check,
    solve_fbep,
)
from .grid import Region, build_grid
from .vekua import teodorescu

logger = logging.getLogger("bergbep")

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3


def _configure_logging() -> None:
    level = os.environ.get("BERGBEP_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        level = "error"
    logging.basicConfig(stream=sys.stderr, level=levels[level], format="%(levelname)s %(message)s")


def _parse_grid_arg(text: str):
    try:
        n_r, n_theta = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise bio.SchemaError(f"grid must look like '24,96', got {text!r}") from exc
    return build_grid(**bio.normalize_grid({"n_r": n_r, "n_theta": n_theta}))


# spectrum --region head -> io region variant; the key of its number is io's
_REGION_ARGS = {"radial": "radial_disc", "annulus": "annulus", "sector": "sector", "full": "full"}


def _parse_region_arg(text: str) -> Region:
    """radial:A, annulus:A, sector:THETA or full, ~ for the complement, as an io region spec."""
    head, colon, tail = text.partition(":")
    if head.lstrip("~") not in _REGION_ARGS:
        raise bio.SchemaError(f"unknown region spec {text!r}")
    variant = _REGION_ARGS[head.lstrip("~")]
    key, _ = bio.REGION_VARIANTS[variant]
    if key is None and colon:
        raise bio.SchemaError(f"region {variant} takes no parameter, got {text!r}")
    spec = {"variant": variant, "complement": head.startswith("~")}
    try:
        if key is not None:
            spec[key] = float(tail)
        return bio.region_from_spec(spec)
    except ValueError as exc:  # a SchemaError is a ValueError too
        raise bio.SchemaError(f"bad region spec {text!r}: {exc}") from exc


def _builtin_spec(args) -> dict:
    """--builtin NAME as an io spec: the flag its parameter key in io.BUILTINS names is
    required (const's value names no flag and keeps its default)."""
    spec = {"kind": "builtin", "name": args.builtin}
    key, _ = bio.BUILTINS.get(args.builtin, (None, None))
    if key in vars(args):
        if getattr(args, key) is None:
            raise bio.SchemaError(f"builtin {args.builtin} needs --{key}")
        spec[key] = getattr(args, key)
    return spec


def cmd_solve_bep(args) -> int:
    spec = bio.normalize_problem(bio.load_json(args.problem))
    if "conductivity" in spec:  # refused before anything is built
        raise bio.SchemaError("problem file declares a conductivity; use solve-fbep")
    problem = bio._problem(spec)
    solution = solve_bep(problem)
    doc = bio.bep_solution_to_dict(solution, problem.degree)
    if args.oracle:
        oracle = solve_bep_oracle(problem)
        doc["oracle_delta"] = float(
            np.max(np.abs(solution.g0.coeffs - oracle.g0.coeffs))
        )
        doc["oracle_lambda"] = oracle.lam
    bio.write_json(args.out, doc)
    logger.info("wrote %s", args.out)
    return EXIT_OK


def cmd_solve_fbep(args) -> int:
    if args.seed < 0:  # checked before the solve, as numpy would only after it
        raise bio.SchemaError(f"--seed must be a non-negative integer, got {args.seed}")
    spec = bio.normalize_problem(bio.load_json(args.problem))
    if "conductivity" not in spec:  # refused before anything is built
        raise bio.SchemaError("problem file lacks a conductivity; use solve-bep")
    problem = bio._problem(spec)
    solution = solve_fbep(problem)
    residual = fbep_conjecture_check(problem, solution)
    doc = bio.fbep_solution_to_dict(solution, problem.degree, residual)
    if solution.saturated:
        doc["directional_kkt_min"] = directional_kkt_check(problem, solution, seed=args.seed)
        doc["directional_kkt_seed"] = args.seed
    bio.write_json(args.out, doc)
    logger.info("wrote %s", args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    region = _parse_region_arg(args.region)
    matrix = gram(region, bio.normalize_degree(args.degree))
    eigenvalues = spectrum(matrix)
    # with no arc the closed form is diagonal: its eigenvalues are the sorted diagonal
    closed = np.sort(np.diag(matrix.entries).real)[::-1] if region.theta is None else None
    lines = ["index,eigenvalue,closed_form"]
    for i, val in enumerate(eigenvalues):
        closed_txt = repr(float(closed[i])) if closed is not None else ""
        lines.append(f"{i},{float(val)!r},{closed_txt}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_project(args) -> int:
    grid = _parse_grid_arg(args.grid)
    func = bio.function_from_spec(_builtin_spec(args), grid)
    coeffs = project(func, args.degree)
    bio.write_json(
        args.out,
        {
            "tool_version": bio.TOOL_VERSION,
            "degree": args.degree,
            "coefficients": bio.encode_complex_array(coeffs.coeffs),
        },
    )
    return EXIT_OK


def cmd_teodorescu(args) -> int:
    grid = _parse_grid_arg(args.grid)
    func = bio.function_from_spec(_builtin_spec(args), grid)
    values = teodorescu(func)
    bio.write_json(
        args.out,
        {
            "tool_version": bio.TOOL_VERSION,
            "grid": {"n_r": grid.n_radial, "n_theta": grid.angular_count},
            "values": bio.encode_complex_array(values.values),
        },
    )
    return EXIT_OK


def cmd_lambda_sweep(args) -> int:
    doc = bio.load_json(args.problem)
    try:
        m_values = [float(part) for part in args.m_values.split(",") if part]
    except ValueError as exc:
        raise bio.SchemaError(f"bad --m-values {args.m_values!r}") from exc
    if not m_values:
        raise bio.SchemaError("--m-values must list at least one constraint level")
    # one validation, one parse and one assembled core (over one lifted basis for
    # the f-BEP, e_0..e_N for the BEP) serve every level: the forms do not depend on M
    doc = bio.normalize_problem(dict(doc, m=m_values[0]))
    for m in m_values[1:]:  # the other levels pass the budget rule of a problem file's m
        bio.normalize_budget(m)
    problem = bio._problem(doc)
    basis = None
    if isinstance(problem, FbepProblem):
        basis = build_fbep_space(problem.f, problem.degree, tol=problem.lift_tol)
    core = ConstrainedLSQ.from_problem(problem, basis)
    lines = ["m,lambda,err_k"]
    for m in m_values:  # the lambda and err_K that solve_bep or solve_fbep report at this M
        row = _certificates(core.solve(m), core.err, core.kkt)
        lines.append(f"{m!r},{row['lam']!r},{row['err_k']!r}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergbep",
        description="Constrained analytic approximation on the unit disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-bep", help="solve a bounded extremal problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check with the independent operator-form solver",
    )
    p.set_defaults(func=cmd_solve_bep)

    p = sub.add_parser("solve-fbep", help="solve a Bergman-Vekua bounded extremal problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="seed for the directional KKT check")
    p.set_defaults(func=cmd_solve_fbep)

    p = sub.add_parser("spectrum", help="eigenvalues of a characteristic Toeplitz matrix")
    p.add_argument("--region", required=True, help="radial:A | annulus:A | sector:THETA | full")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    for name, handler in (("project", cmd_project), ("teodorescu", cmd_teodorescu)):
        p = sub.add_parser(name, help=f"{name} a builtin function")
        p.add_argument("--builtin", required=True)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--grid", default="24,96", help="n_r,n_theta")
        p.add_argument("--out", required=True)
        if name == "project":
            p.add_argument("--degree", type=int, required=True)
        p.set_defaults(func=handler)

    p = sub.add_parser("lambda-sweep", help="solve at several constraint levels")
    p.add_argument("--problem", required=True)
    p.add_argument("--m-values", required=True, help="comma-separated constraint levels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lambda_sweep)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_SCHEMA if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InfeasibleProblemError as exc:
        print(f"error: infeasible problem: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (bio.SchemaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


def main_script() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_script()
