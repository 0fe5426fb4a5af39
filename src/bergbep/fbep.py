"""The f-BEP: the bounded extremal problem over the Vekua space, on bep.ConstrainedLSQ.

The Vekua space of a conductivity f is a real vector space; its
truncation is spanned by the lifts of e_0..e_N and i e_0..i e_N.  The
f-BEP minimizes the K-misfit over real combinations of the lifted
elements subject to the J-misfit budget.  It is the same norm-constrained
least squares as the Bergman BEP with real coefficients, and is solved
by the same core, bep.ConstrainedLSQ, in the same path.  The lifts are
not orthonormal, so where the BEP's full-disc decomposition is its
diagonal grid norms beside identity eigenvectors, the f-BEP's is the
eigendecomposition of the full-disc Gram of its lifts, which the basis
computes once however many problems and budgets use it (a closed-form f
keeps it with its lift, so every basis built from f reads it); both whiten by
the same FullForm.whitening under one rank rule, read the K-form as
A_full - A_J, diagonalize
the whitened J-form and locate the Karush-Kuhn-Tucker multiplier
mu >= 0 by a safeguarded Newton search on the secular equation, whose
denominators are (1 - tau) + mu tau.  The multiplier maps to the
Bergman convention by lambda = mu - 1, and with f identically 1 the
lifted basis is exactly {e_n, i e_n} and the solve reproduces the
complex BEP solution.

The core takes the basis itself and asks it, as it asks the BEP's, for
its full-disc decomposition (_full_form), its form under the J weights
(_form), the moments of both sides (_moments) and the synthesis
(_synthesis), in one path for every basis: for the closed-form
conductivities, whose lifts each live in two angular modes, the basis
supplies them from those ring spectra without sampling the lifts on the
grid, and a J constant along theta (a disc complement, an annulus) and
the full disc take no weight table; a grid-sampled f, or a basis built
by hand, supplies them from its samples.  No Vekua basis gives a ring
spectrum, so the core measures both sides at the nodes, one ring block at
a time from the coefficients, and keeps no grid values; w_* is public, so
solve_fbep synthesizes it once, on all rings, from the returned
coefficients.  The returned
w_* carries its Vekua defect, which the basis also supplies
(_vekua_defect): for the closed forms it is sqrt(sum_n |z_n|^2 r_n^2)
over the per-degree span residuals r_n of the pair lifts, with z_n =
c_n + i c_{N+1+n}, so the solve applies no Teodorescu operator; a
sampled basis takes vekua_residual of w_*, one Teodorescu apply to w_*.

What depends only on a closed-form f, the grid, the degree and J is
computed once, on the objects that own it, by the one keep rule
(grid._once): f keeps its lift (build_fbep_space), and the J region keeps
the core's J record, beside the BEP's, keyed by f's kind, eps and the
degree.  So a repeat solve_fbep
on the same f and J takes no lift, no Gram form and no eigh; only the
moments of the data and the search are its own.  A grid-sampled f, or a
basis built by hand, keeps nothing.

The conjectured critical-point equation

    (lambda + 1) Pi(chi_J w - 0 v h_J) = -Pi(chi_K w - h_K v 0)

with Pi the span projection is exposed as a post-hoc residual check; at
the truncated level it coincides with the first-order optimality
condition of the real program.  A solution keeps the core it was solved
with, and the checks reuse it for the same problem object, so a solve
and its certificates assemble the forms once.

The constraint moves into the Bergman setting as h_J^* = h_J -
T_J(alpha conj(h_J)) and M^* = M rho, with rho the norm of h -> h -
T_J(alpha conj(h)) on L^2(J) (transformed_constraint_data), which J keeps
for a closed-form f (restriction_map_norm).  Data that
vanish take no transform: the core asks for no moments of a zero side,
and h_J zero on J's cells leaves h_J^* = h_J before alpha is sampled.
This module holds the problem, the solution, the solve and its checks;
the lifted space and rho come from vekua (build_fbep_space,
restriction_map_norm), which chooses their algorithms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bep import ConstrainedLSQ, _certificates, _check_problem
from .grid import DiscGrid, GridFunction, Region
from .vekua import (
    _LIFT_TOL,
    Conductivity,
    VekuaBasis,
    alpha_from_f,
    build_fbep_space,
    restriction_map_norm,
    teodorescu,
)

_KKT_DIRECTIONS = 50  # random feasible directions of directional_kkt_check


@dataclass(eq=False)
class FbepProblem:
    """Data for the f-BEP: conductivity, partition, data, budget, degree."""

    f: Conductivity
    k_region: Region
    j_region: Region
    h_k: GridFunction
    h_j: GridFunction
    m: float
    degree: int
    lift_tol: float = _LIFT_TOL

    def __post_init__(self):
        _check_problem(self)
        if not 0.0 < self.lift_tol < np.inf:
            raise ValueError(f"lift tolerance must be positive and finite, got {self.lift_tol}")
        if self.f.grid is not self.h_k.grid:
            raise ValueError("conductivity and data use different grids")

    @property
    def grid(self) -> DiscGrid:
        return self.h_k.grid


@dataclass(eq=False)
class FbepSolution:
    """Optimal Vekua approximant with saturation and defect diagnostics."""

    coeffs: np.ndarray
    w_star: GridFunction
    basis: VekuaBasis
    lam: float
    err_k: float
    err_j: float
    kkt_residual: float
    vekua_defect: float
    feasibility: float
    saturated: bool
    basis_min_eig: float
    dropped: int
    iterations: int
    # the problem and the core the solve assembled, reused by the checks
    _assembly: tuple | None = field(default=None, init=False, repr=False)

    @property
    def mu(self) -> float:
        return self.lam + 1.0


def solve_fbep(problem: FbepProblem, basis: VekuaBasis | None = None) -> FbepSolution:
    """Solve the f-BEP as a real norm-constrained least squares.

    The basis is lifted from the problem's conductivity unless one is
    supplied, and must live on the problem's grid (GridMismatchError
    otherwise); saturation locates the unique multiplier mu >= 0 with
    |err_J - M| within 1e-12 max(M, ||h_J||_J), far inside the 1e-6 contract.
    """
    if basis is None:
        basis = build_fbep_space(problem.f, problem.degree, tol=problem.lift_tol)
    core = ConstrainedLSQ.from_problem(problem, basis)
    result = core.solve(problem.m)
    w_star = GridFunction(problem.grid, basis._synthesis(result.coeffs))
    solution = FbepSolution(
        coeffs=result.coeffs,
        w_star=w_star,
        basis=basis,
        **_certificates(result, core.err, core.kkt),
        vekua_defect=basis._vekua_defect(result.coeffs, w_star, problem.degree),
        basis_min_eig=basis.min_eigenvalue(),
        dropped=core.dropped,
    )
    solution._assembly = (problem, core)
    return solution


def _core_for(problem: FbepProblem, solution: FbepSolution) -> ConstrainedLSQ:
    """The core solution was solved with if problem is its problem, else a fresh assembly."""
    if solution._assembly is not None and solution._assembly[0] is problem:
        return solution._assembly[1]
    return ConstrainedLSQ.from_problem(problem, solution.basis)


def fbep_conjecture_check(problem: FbepProblem, solution: FbepSolution) -> float:
    """Residual of the conjectured critical-point equation, relative to ||w_*||.

    Evaluates (lambda+1) Pi(chi_J w - 0 v h_J) + Pi(chi_K w - h_K v 0)
    in the span and returns its L^2 norm over ||w_*||; zero at the
    program's optimum up to root-finding precision.  The span norm of
    the projection is the whitened norm of the first-order residual.
    """
    core = _core_for(problem, solution)
    mu = solution.mu if solution.saturated else 0.0  # the multiplier the coefficients solve
    rho = core.whiten.T @ core.kkt(solution.coeffs, mu)
    return float(np.linalg.norm(rho)) / max(solution.w_star.norm(), 1e-300)


def directional_kkt_check(problem: FbepProblem, solution: FbepSolution, seed: int = 0) -> float:
    """Minimum of <grad(err_K^2), d> over _KKT_DIRECTIONS random first-order feasible directions.

    The 50 directions are drawn uniformly on the sphere from the seed,
    once per (seed, size) (_kkt_directions), and flipped to point into the
    feasible cone grad(err_J^2) . d <= 0; at an optimum the minimum is >= 0
    up to multiplier precision.  The seed must be an int (TypeError
    otherwise): the same seed gives the same directions on every call.
    """
    seed = operator.index(seed)
    core = _core_for(problem, solution)
    grad_k = 2.0 * core.kkt(solution.coeffs, 0.0)
    grad_j = 2.0 * (core.a_j @ solution.coeffs - core.r_j)
    d = _kkt_directions(seed, solution.coeffs.size)
    flip = np.where(d @ grad_j > 0.0, -1.0, 1.0)  # the table stays as drawn
    return float(np.min(flip * (d @ grad_k)))


@lru_cache(maxsize=8)
def _kkt_directions(seed: int, size: int) -> np.ndarray:
    """The _KKT_DIRECTIONS unit directions of directional_kkt_check, drawn from a fresh
    default_rng(seed) once per (seed, size) and kept read-only; only the most recent
    pairs are kept, as vekua._norm_grid keeps its grids."""
    d = np.random.default_rng(seed).standard_normal((_KKT_DIRECTIONS, size))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d.setflags(write=False)
    return d


def transformed_constraint_data(
    problem: FbepProblem, norm_grid_shape: tuple[int, int] = (12, 24)
) -> tuple[GridFunction, float]:
    """Diagnostic map of the constraint data into the Bergman setting.

    Returns h_J^* = h_J - T_J(alpha conj(h_J)) and M^* = M rho, where
    rho is the norm of h -> h - T_J(alpha conj(h)) on L^2(J), computed
    by restriction_map_norm on a coarse grid of norm_grid_shape.  T_J
    integrates over J only: its input is weighted by J's overlap
    fraction on every quadrature cell.  Where that input vanishes (h_J
    or alpha zero on J) h_J^* is h_J itself, with no transform; h_J zero
    on J's cells, read from J's kept weights, is seen before alpha is
    sampled or the fraction taken.  A mask
    J, like a grid-sampled f, needs norm_grid_shape equal to the
    problem's grid (ValueError at once).
    """
    mask = problem.j_region.mask_values
    if mask is not None and mask.shape != tuple(norm_grid_shape):
        raise ValueError(f"a mask J lives on its own grid: pass the problem's grid {mask.shape} "
                         f"as norm_grid_shape to get rho, not {tuple(norm_grid_shape)}")
    j, h_star = problem.j_region, problem.h_j
    if np.any(h_star.values[j.weights(problem.grid) > 0.0]):  # h_J zero on J takes no alpha
        phi = j.fraction(problem.grid)
        zero_ext = phi * alpha_from_f(problem.f).values * np.conj(h_star.values)
        if np.any(zero_ext):
            h_star = h_star - teodorescu(GridFunction(problem.grid, zero_ext))
    rho = restriction_map_norm(problem.f, problem.j_region, norm_grid_shape)
    return h_star, problem.m * rho


