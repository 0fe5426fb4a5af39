"""Bounded extremal problem over a lifted Bergman-Vekua basis.

The Vekua space of a conductivity f is a real vector space; its
truncation is spanned by the lifts of e_0..e_N and i e_0..i e_N.  The
f-BEP minimizes the K-misfit over real combinations of the lifted
elements subject to the J-misfit budget.  It is the same norm-constrained
least squares as the Bergman BEP with real coefficients, and is solved
by the same core, bep.ConstrainedLSQ: whiten by the full-disc Gram,
diagonalize the J-form and locate the Karush-Kuhn-Tucker multiplier
mu >= 0 in the secular denominators (1 - tau) + mu tau.  The multiplier
maps to the Bergman convention by lambda = mu - 1, and with f
identically 1 the lifted basis is exactly {e_n, i e_n} and the solve
reproduces the complex BEP solution.

The core takes its forms, moments and synthesis from the basis, in
one path for every basis: for the closed-form conductivities, whose
lifts each live in two angular modes, the basis supplies them from
those ring spectra without sampling the lifts on the grid; a
grid-sampled f, or a basis built by hand, supplies them from its
samples.  Either way the returned w_* carries the grid certificate
vekua_defect, from one Teodorescu apply to w_* itself.

The conjectured critical-point equation

    (lambda + 1) Pi(chi_J w - 0 v h_J) = -Pi(chi_K w - h_K v 0)

with Pi the span projection is exposed as a post-hoc residual check; at
the truncated level it coincides with the first-order optimality
condition of the real program.  A solution keeps the core it was solved
with, and the checks reuse it for the same problem object, so a solve
and its certificates assemble the forms once.

The constraint moves into the Bergman setting as h_J^* = h_J -
T_J(alpha conj(h_J)) and M^* = M rho, with rho the norm of h -> h -
T_J(alpha conj(h)) on L^2(J) (transformed_constraint_data).  For the
closed-form conductivities on a J that is invariant under rotation,
rho is exact by angular mode pairs, as the lift is; every other input
takes Lanczos on the normal operator.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .bep import ConstrainedLSQ, ConvergenceError, _check_problem
from .grid import DiscGrid, GridFunction, Region, build_grid
from .bergman import AnalyticCoeffs
from .vekua import (
    Conductivity,
    LiftDivergenceError,
    VekuaBasis,
    _alpha_mode,
    _lift_batch,
    _mode_pair_lift,
    _mode_pair_norm,
    _mode_samples,
    _ops,
    alpha_from_f,
    teodorescu,
    vekua_residual,
)

logger = logging.getLogger("bergbep")


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
    lift_tol: float = 1e-9

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


def build_fbep_space(
    f: Conductivity, degree: int, tol: float = 1e-9, max_iter: int = 60
) -> VekuaBasis:
    """Lift {e_0..e_N, i e_0..i e_N} into the Vekua space of f.

    For the closed-form kinds (const, exp_x, exp_xy) alpha is a single
    angular mode a(r) e^{i s theta}, and the discrete fixed-point
    equation w = seed + T[alpha conj(w)] is solved exactly by angular
    mode pairs (one small radial solve per degree), certified on the
    pair system, and the basis keeps the lifts' two-mode spectra; a lift
    whose fixed-point defect exceeds tol raises ConvergenceError naming
    its seed.  A grid-sampled f couples every mode, and its 2(N+1) seeds
    are lifted together by the Neumann iteration, each with its own
    iteration; a lift that diverges or stops at max_iter without
    reaching tol raises ConvergenceError naming its seed.
    """
    alpha = alpha_from_f(f)
    names = [f"{unit}e_{n}" for unit in ("", "i*") for n in range(degree + 1)]
    mode = _alpha_mode(f)
    if mode is None:
        seeds = [
            AnalyticCoeffs(unit * AnalyticCoeffs.unit(n, degree).coeffs)
            for unit in (1.0, 1.0j)
            for n in range(degree + 1)
        ]
        elements = _lift_batch(seeds, alpha, tol, max_iter)
        for name, lifted in zip(names, elements):  # the first failure in seed order
            if isinstance(lifted, LiftDivergenceError):
                raise ConvergenceError(f"lift of seed {name} diverged: {lifted}") from lifted
            if not lifted.converged:
                raise ConvergenceError(
                    f"lift of seed {name} did not converge in {lifted.iterations} "
                    f"iterations (last increment {lifted.increments[-1]:.3e} > tol {tol:.3e})"
                )
        basis = VekuaBasis(alpha=alpha, elements=elements)
    else:
        basis = _mode_pair_lift(alpha, mode, degree, tol)
        for name, defect in zip(names, basis._defects):
            if not defect <= tol:
                raise ConvergenceError(
                    f"lift of seed {name} has fixed-point defect {defect:.3e} > tol {tol:.3e}"
                )
    if logger.isEnabledFor(logging.INFO):  # the eigenvalue costs a full Gram
        logger.info(
            "fbep space: %d elements, Gram min eigenvalue %.3e",
            basis.size,
            basis.min_eigenvalue(),
        )
    return basis


def solve_fbep(problem: FbepProblem, basis: VekuaBasis | None = None) -> FbepSolution:
    """Solve the f-BEP as a real norm-constrained least squares.

    The basis is lifted from the problem's conductivity unless one is
    supplied, and must live on the problem's grid (GridMismatchError
    otherwise); saturation locates the unique multiplier mu >= 0 with
    |err_J - M| within 1e-12 max(1, M), far inside the 1e-6 contract.
    """
    if basis is None:
        basis = build_fbep_space(problem.f, problem.degree, tol=problem.lift_tol)
    return _fbep_solution(problem, basis, ConstrainedLSQ.from_problem(problem, basis))


def _fbep_solution(problem: FbepProblem, basis: VekuaBasis, core: ConstrainedLSQ) -> FbepSolution:
    """solve_fbep with the core of problem's forms over basis already assembled.

    The forms do not depend on M, so one core serves every budget.
    """
    result = core.solve(problem.m, 2.0)
    coeffs, mu = result.coeffs, result.mu
    w_star = GridFunction(problem.grid, core.synthesize(coeffs).reshape(problem.grid.shape))
    solution = FbepSolution(
        coeffs=coeffs,
        w_star=w_star,
        basis=basis,
        lam=mu - 1.0,
        err_k=core.err(coeffs, "k"),
        err_j=core.err(coeffs, "j"),
        kkt_residual=float(np.linalg.norm(core.kkt(coeffs, mu))),
        vekua_defect=vekua_residual(w_star, basis.alpha, problem.degree),
        feasibility=result.feasibility,
        saturated=result.saturated,
        basis_min_eig=core.min_eig,
        dropped=core.dropped,
        iterations=result.iterations,
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
    rho = core.whiten.T @ core.kkt(solution.coeffs, solution.mu)
    return float(np.linalg.norm(rho)) / max(solution.w_star.norm(), 1e-300)


def directional_kkt_check(
    problem: FbepProblem,
    solution: FbepSolution,
    n_directions: int = 50,
    seed: int = 0,
) -> float:
    """Minimum of <grad(err_K^2), d> over random first-order feasible directions.

    Directions are drawn uniformly on the sphere and flipped to point
    into the feasible cone grad(err_J^2) . d <= 0; at an optimum the
    minimum is >= 0 up to multiplier precision.
    """
    core = _core_for(problem, solution)
    grad_k = 2.0 * core.kkt(solution.coeffs, 0.0)
    grad_j = 2.0 * (core.a_j @ solution.coeffs - core.r_j)
    d = np.random.default_rng(seed).standard_normal((n_directions, solution.coeffs.size))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d[d @ grad_j > 0.0] *= -1.0
    return float(np.min(d @ grad_k, initial=np.inf))


def transformed_constraint_data(
    problem: FbepProblem, norm_grid_shape: tuple[int, int] = (12, 24)
) -> tuple[GridFunction, float]:
    """Diagnostic map of the constraint data into the Bergman setting.

    Returns h_J^* = h_J - T_J(alpha conj(h_J)) and M^* = M rho, where
    rho is the norm of h -> h - T_J(alpha conj(h)) on L^2(J), computed
    by restriction_map_norm on a coarse grid of norm_grid_shape.  T_J
    integrates over J only: its input is weighted by J's overlap
    fraction on every quadrature cell.
    """
    alpha = alpha_from_f(problem.f)
    phi = problem.j_region.fraction(problem.grid)
    zero_ext = GridFunction(problem.grid, phi * alpha.values * np.conj(problem.h_j.values))
    h_star = problem.h_j - teodorescu(zero_ext)
    rho = restriction_map_norm(problem.f, problem.j_region, norm_grid_shape)
    return h_star, problem.m * rho


def restriction_map_norm(
    f: Conductivity, j_region: Region, grid_shape: tuple[int, int] = (12, 24)
) -> float:
    """Operator norm of h -> h - T_J(alpha conj(h)) on L^2(J), on a coarse grid.

    The map is R h = h - A conj(h) on the weighted values at J's nodes,
    with the complex matrix A = S T_J S^-1 (S = diag sqrt(w_J)).  T_J
    integrates over J only, so the Teodorescu input is weighted by J's
    overlap fraction and the output is read on the nodes of J; a cell
    that J barely overlaps then contributes in proportion to its
    overlap.  With f constant the map is the identity and the norm is 1.

    For a closed-form f (alpha = a(r) e^{i s theta}) on a J whose
    overlap fraction is constant along theta (radial discs, annuli,
    their complements, the full disc), R sends ring mode p to mode
    s - 1 - p, and the norm is the largest singular value over the mode
    pairs (vekua._mode_pair_norm).  Otherwise A is taken from one batched
    Teodorescu apply to the unit inputs on J's nodes, and the norm is
    the square root of the top eigenvalue of R^T R, found by Lanczos
    (_normal_top_eigenvalue); R is only real-linear.  The norm grid of
    each shape is built once, and a closed-form alpha is evaluated on
    it directly.  A conductivity on a grid of grid_shape is used on its
    own grid; a grid-sampled one cannot be carried to another.
    """
    own = f.grid.shape == tuple(grid_shape)
    small = f.grid if own else _norm_grid(tuple(grid_shape))
    mode = _alpha_mode(f, small)
    if mode is None and not own:
        raise ValueError("grid-sampled conductivities cannot be rebuilt on another grid")
    phi = j_region.fraction(small)
    w_j = j_region.weights(small)
    if not np.any(w_j > 0.0):
        raise ValueError("region J carries no nodes on the norm-estimation grid")
    if mode is not None and np.all(phi == phi[:, :1]):
        return _mode_pair_norm(small, mode, phi[:, 0], w_j[:, 0])

    alpha = alpha_from_f(f).values if mode is None else _mode_samples(small, mode)
    w_j = w_j.ravel()
    idx = np.nonzero(w_j > 0.0)[0]
    n = idx.size
    sqw = np.sqrt(w_j[idx])
    inputs = np.zeros((n,) + small.shape, dtype=complex)
    inputs.reshape(n, -1)[np.arange(n), idx] = (phi * alpha).ravel()[idx] / sqw
    a = _ops(small).teo.apply(inputs).reshape(n, -1)[:, idx].T  # row: output node
    a *= sqw[:, None]
    theta, _ = _normal_top_eigenvalue(a)
    return float(np.sqrt(theta))


def _normal_top_eigenvalue(a: np.ndarray) -> tuple[float, int]:
    """Top eigenvalue of R^T R for R h = h - A conj(h), and the Lanczos steps taken.

    R is real-linear on C^n, so the Krylov space is one of R^2n under the
    inner product Re(x^H y), in which R^T g = g - A^T conj(g).  Symmetric
    Lanczos with full reorthogonalization starts from a fixed-seed random
    vector, so the result is deterministic and no symmetry of J or alpha
    can keep the start orthogonal to the top eigenvector.  It stops when
    the top Ritz pair's residual bound beta_k |s_k| falls to a few ulps
    of the Ritz value theta, or when the Krylov space spans R^2n, where
    theta is exact.
    """
    n = a.shape[0]
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((2 * n, n), dtype=complex)
    real_basis = basis.view(float)  # (Re, Im) interleaved: Re(x^H y) is a real dot
    tri = np.zeros((2 * n, 2 * n))  # the Lanczos tridiagonal, grown a step at a time
    stop = 4.0 * np.finfo(float).eps  # residual bound relative to theta
    for k in range(2 * n):
        basis[k] = q
        r = q - a @ np.conj(q)
        w = r - a.T @ np.conj(r)
        tri[k, k] = np.vdot(r, r).real  # q^T R^T R q = |R q|^2
        real_w = w.view(float)
        for _ in range(2):  # full reorthogonalization, repeated once for rounding
            real_w -= (real_basis[: k + 1] @ real_w) @ real_basis[: k + 1]
        beta = np.linalg.norm(w)
        thetas, vectors = np.linalg.eigh(tri[: k + 1, : k + 1])
        residual = beta * abs(vectors[-1, -1])
        if residual <= stop * thetas[-1] or k + 1 == 2 * n:
            break
        tri[k, k + 1] = tri[k + 1, k] = beta
        q = w / beta
    return float(thetas[-1]), k + 1


@functools.lru_cache(maxsize=8)
def _norm_grid(shape: tuple[int, int]) -> DiscGrid:
    """The norm grid of a shape, built once: its Teodorescu operator stays cached with it.

    Only the most recent shapes are kept; the operators of evicted grids
    are released with them.
    """
    return build_grid(*shape)

