"""Bounded extremal problem solver in the truncated Bergman space.

Given a partition of the disc into K and J = D \\ closure(K), data h_K,
h_J and a budget M, the solver finds the degree-N analytic g0 minimizing
||h_K - g0|| on K subject to ||h_J - g0|| <= M on J.  The optimum solves

    (I + lambda T_J) g0 = P(h_K v (1 + lambda) h_J)

for the unique lambda in (-1, inf) saturating the constraint when the
data is not attainable.  In mu = 1 + lambda this is a norm-constrained
least squares; one core, ConstrainedLSQ, solves it here and for the real
f-BEP.  It takes the Gram forms and moments of both sides and a synthesis
c -> grid values: for the BEP the ring-FFT forms and inverse ring FFT of
the polar layer in bergman, for the f-BEP those its lifted basis
supplies (vekua.VekuaBasis).  It whitens by the full-disc form and
diagonalizes the J-form, so c(mu) is a diagonal solve with a
rounding-level Karush-Kuhn-Tucker
residual, and bisects mu with err_J evaluated from the whitened forms at
O(N) per step (the secular function of a quadratically constrained least
squares; Gander 1981), verified monotone at runtime.  The end point is
checked on the grid by synthesis: if the grid value misses M by more
than the stop tolerance, as it can when err_J << ||h_J||_J and the form
value cancels, the bisection continues on grid evaluations.

The independent oracle shares only the bisection and its monotonicity
check: it assembles dense forms from basis_matrix samples, solves the
operator form (I + lambda G_J) c = b_K + (1 + lambda) b_J with one dense
linear solve per lambda and evaluates err_J on the dense samples, so
agreement with it checks the ring-FFT assembly as well as the solve.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bergman import (
    AnalyticCoeffs,
    _forms,
    _ring_gram,
    _ring_moments,
    _ring_synthesis,
    basis_matrix,
)
from .grid import GridFunction, GridMismatchError, Region

logger = logging.getLogger("bergbep")

_LAMBDA_FLOOR = -1.0 + 1e-9
_DROP_RCOND = 1e-10
_MAX_EXPANSIONS = 80
_MAX_BISECTIONS = 200
_STOP_TOL = 1e-12


class InfeasibleProblemError(ValueError):
    """The constraint level M is below the distance of h_J to the span."""


class ConvergenceError(RuntimeError):
    """The multiplier search failed (bracket exhausted or non-monotone)."""


@dataclass(eq=False)
class BepProblem:
    """Data for the bounded extremal problem on a partition K | J."""

    k_region: Region
    j_region: Region
    h_k: GridFunction
    h_j: GridFunction
    m: float
    degree: int

    def __post_init__(self):
        _check_problem(self)

    @property
    def grid(self):
        return self.h_k.grid


def _check_problem(problem) -> None:
    """The checks every BEP and f-BEP shares: the budget, the data grid, the partition."""
    if not 0.0 < problem.m < np.inf:
        raise ValueError(f"constraint level M must be positive and finite, got {problem.m}")
    problem.h_k._check_same_grid(problem.h_j)
    grid = problem.h_k.grid
    gap = np.max(
        np.abs(problem.k_region.weights(grid) + problem.j_region.weights(grid) - grid.weights)
    )
    if gap > 1e-12:
        raise ValueError(f"K and J do not partition the disc (defect {gap:.2e})")
    for name, region in (("K", problem.k_region), ("J", problem.j_region)):
        if region.node_count(grid) == 0:
            raise ValueError(f"region {name} carries no grid nodes")


@dataclass(eq=False)
class BepSolution:
    """Approximant, saturation multiplier and diagnostics."""

    g0: AnalyticCoeffs
    lam: float
    err_k: float
    err_j: float
    kkt_residual: float
    iterations: int
    feasibility: float
    saturated: bool
    degree_gap: float | None = None


class LsqSolution(NamedTuple):
    """Coefficients, multiplier mu and search record of ConstrainedLSQ.solve."""

    coeffs: np.ndarray
    mu: float
    feasibility: float
    iterations: int
    saturated: bool


class ConstrainedLSQ:
    """min err_K(c) subject to err_J(c) <= M over combinations c of basis elements.

    err_S(c)^2 = sum_S w_S |synthesize(c) - h_S|^2 on the grid nodes.  The
    core takes the Gram forms A_S and moments r_S of both sides and the
    synthesis c -> grid values: the BEP passes ring-FFT forms and the
    inverse ring FFT (_polar_core).  The f-BEP takes the real forms
    Re <w_m, w_n>, Re <h, w_m> of its lifts and their synthesis from the
    VekuaBasis itself (_lsq_forms, _synthesis), whatever its
    representation.  A basis on another grid than the problem's raises
    GridMismatchError.
    The full-disc form A_K + A_J is diagonalized once; directions below
    _DROP_RCOND of its top eigenvalue are dropped, and the rest are
    whitened so that the J-form is diag(tau) and the K-form diag(1 - tau).
    """

    def __init__(self, a_k, r_k, a_j, r_j, synthesize, w_k, w_j, h_k, h_j):
        self.a_k, self.r_k, self.a_j, self.r_j = a_k, r_k, a_j, r_j
        self.synthesize = synthesize
        self.w_k, self.w_j, self.h_k, self.h_j = w_k, w_j, h_k, h_j
        self._diagonalize()

    @classmethod
    def from_problem(cls, problem, basis=None) -> "ConstrainedLSQ":
        """The BEP over e_0..e_N, or with a VekuaBasis the real f-BEP over its lifts."""
        grid = problem.grid
        w_k, w_j = problem.k_region.weights(grid), problem.j_region.weights(grid)
        h_k, h_j = problem.h_k.values, problem.h_j.values
        if basis is None:
            return _polar_core(grid, problem.degree, w_k, w_j, h_k, h_j)
        if basis.grid is not grid:
            raise GridMismatchError("basis and problem live on different grids")
        return cls(
            *basis._lsq_forms(w_k, h_k), *basis._lsq_forms(w_j, h_j), basis._synthesis,
            w_k, w_j, h_k, h_j,
        )

    def _diagonalize(self) -> None:
        vals, vecs = np.linalg.eigh(self.a_k + self.a_j)
        self.min_eig = float(vals[0])  # of the full-disc form
        keep = vals > _DROP_RCOND * vals.max()
        self.dropped = int(np.count_nonzero(~keep))
        if self.dropped:
            logger.info("dropping %d near-dependent basis directions", self.dropped)
        whiten = vecs[:, keep] / np.sqrt(vals[keep])[None, :]
        b = whiten.conj().T @ self.a_j @ whiten
        taus, q = np.linalg.eigh((b + b.conj().T) / 2.0)
        self.taus = np.clip(taus, 0.0, 1.0)  # compression of a [0,1]-spectrum form
        # whitens A_K + A_J to the identity and A_J to diag(tau)
        self.whiten = whiten @ q
        self.bt_k = self.whiten.conj().T @ self.r_k
        self.bt_j = self.whiten.conj().T @ self.r_j

    def leading(self, n: int) -> "ConstrainedLSQ":
        """The same problem over the first n basis elements."""
        sub = copy.copy(self)
        pad = np.zeros(self.r_k.size - n)
        sub.synthesize = lambda c: self.synthesize(np.concatenate((c, pad)))
        sub.a_k, sub.a_j = self.a_k[:n, :n], self.a_j[:n, :n]
        sub.r_k, sub.r_j = self.r_k[:n], self.r_j[:n]
        sub._diagonalize()
        return sub

    def _y(self, mu: float) -> np.ndarray:
        denom = (1.0 - self.taus) + mu * self.taus
        keep = denom > 1e-12 * max(1.0, denom.max())
        return np.where(keep, (self.bt_k + mu * self.bt_j) / np.where(keep, denom, 1.0), 0.0)

    def coeffs(self, mu: float) -> np.ndarray:
        """Minimizer of err_K^2 + mu err_J^2: a diagonal solve in the whitened basis."""
        return self.whiten @ self._y(mu)

    def err(self, c: np.ndarray, side: str) -> float:
        w, h = (self.w_k, self.h_k) if side == "k" else (self.w_j, self.h_j)
        resid = self.synthesize(c) - h
        return float(np.sqrt(np.sum(w * np.abs(resid) ** 2)))

    def kkt(self, c: np.ndarray, mu: float) -> np.ndarray:
        """Gradient of (err_K^2 + mu err_J^2) / 2 in the coefficients."""
        return (self.a_k @ c - self.r_k) + mu * (self.a_j @ c - self.r_j)

    def _j_fit(self) -> tuple[np.ndarray, np.ndarray]:
        """Whitened best fit of h_J on J (the mu -> inf limit) and the directions it uses."""
        fit = self.taus > 1e-12 * self.taus.max()
        return fit, np.where(fit, self.bt_j / np.where(fit, self.taus, 1.0), 0.0)

    def feasibility(self) -> float:
        """Distance of h_J to the span on J, evaluated on the grid."""
        return self.err(self.whiten @ self._j_fit()[1], "j")

    def solve(self, m: float, mu_hi: float) -> LsqSolution:
        """Saturating multiplier by bracketed bisection on err_J(mu) over [0, mu_hi].

        If the fit at mu = 0 already meets the budget (on the grid) it is
        returned unsaturated.  The bracket and the bisection evaluate
        err_J from the whitened forms at O(N) per step,

            err_J(y)^2 = ||h_J||_J^2 - 2 Re y^H bt_J + sum tau |y|^2,

        and the returned err_J is evaluated on the grid by synthesis.  If
        that misses M by more than the stop tolerance (the form value
        cancels when err_J << ||h_J||_J), the bisection continues on grid
        evaluations from the current bracket.
        """
        feas = self.feasibility()
        if feas > m + 1e-9:
            raise InfeasibleProblemError(f"M = {m:.6g} below feasibility distance {feas:.6g}")
        c = self.coeffs(0.0)
        e_lo = self.err(c, "j")
        if e_lo <= m:
            return LsqSolution(c, 0.0, feas, 0, False)

        h_j_sq = float(np.sum(self.w_j * np.abs(self.h_j) ** 2))

        def err_from_forms(mu: float) -> float:
            y = self._y(mu)
            e2 = h_j_sq - 2.0 * np.vdot(y, self.bt_j).real + np.sum(self.taus * np.abs(y) ** 2)
            return float(np.sqrt(max(e2, 0.0)))

        evals = [(0.0, e_lo)]
        mu, _, lo, hi, iterations = _bisect(err_from_forms, m, 0.0, mu_hi, evals, feas)
        c = self.coeffs(mu)
        e_mu = self.err(c, "j")
        evals.append((mu, e_mu))
        if abs(e_mu - m) > _STOP_TOL * max(1.0, m):
            logger.debug("err_J from the forms missed M on the grid by %.3e", abs(e_mu - m))
            grid_err = lambda mu: self.err(self.coeffs(mu), "j")  # noqa: E731
            if lo > 0.0:  # the forms placed lo; on the grid the root may lie below it
                e_at_lo = grid_err(lo)
                evals.append((lo, e_at_lo))
                if e_at_lo <= m:
                    lo = 0.0
            mu, e_mu, _, _, more = _bisect(grid_err, m, lo, hi, evals, feas)
            iterations += more
            c = self.coeffs(mu)
        _check_saturated(evals, m, mu, e_mu)
        return LsqSolution(c, mu, feas, iterations, True)


def _polar_core(grid, degree, w_k, w_j, h_k, h_j) -> ConstrainedLSQ:
    """The BEP core over e_0..e_N: ring-FFT forms and inverse ring-FFT synthesis."""
    return ConstrainedLSQ(
        _ring_gram(grid, w_k, degree),
        _ring_moments(grid, w_k * h_k, degree),
        _ring_gram(grid, w_j, degree),
        _ring_moments(grid, w_j * h_j, degree),
        lambda c: _ring_synthesis(grid, c),
        w_k, w_j, h_k, h_j,
    )


def _bisect(err, m: float, lo: float, hi: float, evals: list, feas: float):
    """Bracketed bisection of err(mu) = M on [lo, hi], given err(lo) > M.

    hi doubles until err(hi) <= M, then the bracket halves until
    |err - M| <= _STOP_TOL max(1, M) or it collapses to a few ulps of hi
    (a relative floor: a root far below 1 is still resolved).  Every evaluation
    is appended to evals.  Returns mu, err(mu), the last bracket and
    the number of bisection steps.
    """
    scale = max(1.0, m)
    hi = float(hi)
    e_hi = err(hi)
    evals.append((hi, e_hi))
    expansions = 0
    while e_hi > m:
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            _check_monotone(evals, m)
            raise ConvergenceError(
                f"bracket expansion exhausted: e(mu = {hi:.3g}) = {e_hi:.9g} > "
                f"M = {m:.9g} (feasibility distance {feas:.9g})"
            )
        hi *= 2.0
        e_hi = err(hi)
        evals.append((hi, e_hi))

    for iterations in range(1, _MAX_BISECTIONS + 1):
        mu = 0.5 * (lo + hi)
        e_mu = err(mu)
        evals.append((mu, e_mu))
        if abs(e_mu - m) <= _STOP_TOL * scale or hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break
        lo, hi = (mu, hi) if e_mu > m else (lo, mu)
    return mu, e_mu, lo, hi, iterations


def _check_saturated(evals: list, m: float, mu: float, e_mu: float) -> None:
    _check_monotone(evals, m)
    if abs(e_mu - m) > 1e-8 * max(1.0, m):
        raise ConvergenceError(
            f"bisection stalled: |e(mu) - M| = {abs(e_mu - m):.3e} at mu = {mu:.6g}"
        )


def _check_monotone(evals: list[tuple[float, float]], m: float) -> None:
    pts = sorted(evals)
    slack = 1e-9 * max(1.0, m)
    for (mu_a, e_a), (mu_b, e_b) in zip(pts, pts[1:]):
        if e_b > e_a + slack:
            raise ConvergenceError(
                "constraint error is not monotone on the bracket: "
                f"e({mu_a:.6g}) = {e_a:.9g} < e({mu_b:.6g}) = {e_b:.9g}"
            )


def _mu(lam: float) -> float:
    if lam <= -1.0:
        raise ValueError(f"lambda must exceed -1, got {lam}")
    return 1.0 + lam


def feasibility_distance(h_j: GridFunction, j_region: Region, degree: int) -> float:
    """Distance of h_J to the degree-N analytic span restricted to J."""
    grid = h_j.grid
    w_j = j_region.weights(grid)
    zero = np.zeros(grid.shape)
    return _polar_core(grid, degree, grid.weights - w_j, w_j, zero, h_j.values).feasibility()


def solve_at_lambda(problem: BepProblem, lam: float) -> AnalyticCoeffs:
    """Solve (I + lambda Gram(J)) c = <h_K v (1+lambda) h_J, e_n> at fixed lambda."""
    return AnalyticCoeffs(ConstrainedLSQ.from_problem(problem).coeffs(_mu(lam)))


def constraint_error(problem: BepProblem, lam: float) -> float:
    """Constraint error e(lambda) = ||g0(lambda) - h_J|| on J."""
    core = ConstrainedLSQ.from_problem(problem)
    return core.err(core.coeffs(_mu(lam)), "j")


def _reported_lambda(result: LsqSolution) -> float:
    """The lambda a solution reports: mu - 1 if saturated, else _LAMBDA_FLOOR just above -1."""
    return result.mu - 1.0 if result.saturated else _LAMBDA_FLOOR


def _bep_solution(result: LsqSolution, err, kkt) -> BepSolution:
    """The BEP solution of a multiplier search, with err(c, side) and kkt(c, mu) of its forms."""
    c = result.coeffs
    lam = _reported_lambda(result)
    return BepSolution(
        g0=AnalyticCoeffs(c),
        lam=lam,
        err_k=err(c, "k"),
        err_j=err(c, "j"),
        kkt_residual=float(np.linalg.norm(kkt(c, 1.0 + lam))),
        iterations=result.iterations,
        feasibility=result.feasibility,
        saturated=result.saturated,
    )


def solve_bep(problem: BepProblem, hi0: float = 1.0, degree_diagnostic: bool = True) -> BepSolution:
    """Solve the bounded extremal problem by multiplier bisection.

    If the unconstrained K-fit already satisfies the constraint it is
    returned with lambda at the lower bracket; otherwise the multiplier
    is bisected from the bracket [-1, hi0] in lambda until the constraint
    saturates.  With degree_diagnostic the problem is re-solved at degree
    N - 4 on the leading blocks of the same forms and the coefficient gap
    stored as a truncation-convergence indicator; it stays None when M is
    below the degree N - 4 feasibility distance.
    """
    core = ConstrainedLSQ.from_problem(problem)
    solution = _bep_solution(core.solve(problem.m, 1.0 + hi0), core.err, core.kkt)
    if degree_diagnostic and problem.degree >= 5:
        n_low = problem.degree - 3
        try:
            low = core.leading(n_low).solve(problem.m, 1.0 + hi0).coeffs
        except InfeasibleProblemError as exc:
            logger.info("no degree gap: at degree %d, %s", n_low - 1, exc)
            return solution
        c = solution.g0.coeffs
        gap = np.concatenate((c[:n_low] - low, c[n_low:]))
        solution.degree_gap = float(np.linalg.norm(gap))
    return solution


def solve_bep_oracle(problem: BepProblem) -> BepSolution:
    """Independent check: the operator form (I + lambda G_J) c = b_K + (1 + lambda) b_J.

    Shares only the bisection and its monotonicity check with the core.
    The forms are assembled densely from basis_matrix samples, each
    lambda takes one dense linear solve in place of the core's diagonal
    solve, err_J is evaluated on the dense samples at every step from
    lambda just above -1, and the feasibility distance is the error of
    the pseudo-inverse J-fit.
    """
    grid = problem.grid
    e = basis_matrix(grid, problem.degree)
    sides = {
        "k": (problem.k_region.weights(grid).ravel(), problem.h_k.values.ravel()),
        "j": (problem.j_region.weights(grid).ravel(), problem.h_j.values.ravel()),
    }
    (a_k, r_k), (a_j, r_j) = (_forms(e, w, h, np.asarray) for w, h in sides.values())
    eye = np.eye(problem.degree + 1)

    def err(c: np.ndarray, side: str) -> float:
        w, h = sides[side]
        return float(np.sqrt(np.sum(w * np.abs(e @ c - h) ** 2)))

    def kkt(c: np.ndarray, mu: float) -> np.ndarray:
        return (a_k @ c - r_k) + mu * (a_j @ c - r_j)

    def operator_solve(mu: float) -> np.ndarray:
        return np.linalg.solve(eye + (mu - 1.0) * a_j, r_k + mu * r_j)

    feas = err(np.linalg.pinv(a_j, rcond=1e-12, hermitian=True) @ r_j, "j")
    if feas > problem.m + 1e-9:
        raise InfeasibleProblemError(
            f"M = {problem.m:.6g} below feasibility distance {feas:.6g}"
        )
    mu_lo = 1.0 + _LAMBDA_FLOOR
    c = operator_solve(mu_lo)
    e_lo = err(c, "j")
    if e_lo <= problem.m:
        return _bep_solution(LsqSolution(c, mu_lo, feas, 0, False), err, kkt)
    evals = [(mu_lo, e_lo)]
    mu, e_mu, _, _, iterations = _bisect(
        lambda mu: err(operator_solve(mu), "j"), problem.m, mu_lo, 2.0, evals, feas
    )
    _check_saturated(evals, problem.m, mu, e_mu)
    return _bep_solution(LsqSolution(operator_solve(mu), mu, feas, iterations, True), err, kkt)
