"""Bounded extremal problem solver in the truncated Bergman space.

Given a partition of the disc into K and J = D \\ closure(K), data h_K,
h_J and a budget M, the solver finds the degree-N analytic g0 minimizing
||h_K - g0|| on K subject to ||h_J - g0|| <= M on J.  The optimum solves

    (I + lambda T_J) g0 = P(h_K v (1 + lambda) h_J)

for the unique lambda in (-1, inf) saturating the constraint when the
data is not attainable.  In mu = 1 + lambda this is a norm-constrained
least squares; one core, ConstrainedLSQ, solves it here and for the real
f-BEP.  It assembles the Gram forms once, whitens by the full-disc form
and diagonalizes the J-form, so c(mu) is a diagonal solve with a
rounding-level Karush-Kuhn-Tucker residual, and bisects mu on the
grid-evaluated constraint error, verified monotone at runtime.

The independent oracle solves the operator form (I + lambda G_J) c =
b_K + (1 + lambda) b_J with one dense linear solve per lambda.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bergman import AnalyticCoeffs, basis_matrix
from .grid import GridFunction, Region

logger = logging.getLogger("bergbep")

_LAMBDA_FLOOR = -1.0 + 1e-9
_DROP_RCOND = 1e-10
_MAX_EXPANSIONS = 80
_MAX_BISECTIONS = 200


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
        if self.m <= 0.0:
            raise ValueError(f"constraint level M must be positive, got {self.m}")
        self.h_k._check_same_grid(self.h_j)
        grid = self.h_k.grid
        gap = np.max(
            np.abs(self.k_region.weights(grid) + self.j_region.weights(grid) - grid.weights)
        )
        if gap > 1e-12:
            raise ValueError(f"K and J do not partition the disc (defect {gap:.2e})")
        if self.k_region.node_count(grid) == 0:
            raise ValueError("region K carries no grid nodes")
        if self.j_region.node_count(grid) == 0:
            raise ValueError("region J carries no grid nodes")

    @property
    def grid(self):
        return self.h_k.grid


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
    """min err_K(c) subject to err_J(c) <= M over combinations c of sampled elements.

    err_S(c)^2 = sum_S w_S |samples @ c - h_S|^2 on the grid nodes.  With
    real=True the coefficients are real and the forms are the real parts
    Re <w_m, w_n>, Re <h, w_m> (the f-BEP over a lifted basis).  The
    full-disc form A_K + A_J is diagonalized once; directions below
    _DROP_RCOND of its top eigenvalue are dropped, and the rest are
    whitened so that the J-form is diag(tau) and the K-form diag(1 - tau).
    """

    def __init__(self, samples, w_k, w_j, h_k, h_j, real: bool = False):
        self.samples, self.w_k, self.w_j, self.h_k, self.h_j = samples, w_k, w_j, h_k, h_j
        part = np.real if real else np.asarray
        self.a_k, self.r_k = _forms(samples, w_k, h_k, part)
        self.a_j, self.r_j = _forms(samples, w_j, h_j, part)
        self._diagonalize()

    @classmethod
    def from_problem(cls, problem, basis=None) -> "ConstrainedLSQ":
        """The BEP over e_0..e_N, or with a VekuaBasis the real f-BEP over its lifts."""
        grid = problem.grid
        samples = basis_matrix(grid, problem.degree) if basis is None else basis.values_matrix()
        return cls(
            samples,
            problem.k_region.weights(grid).ravel(),
            problem.j_region.weights(grid).ravel(),
            problem.h_k.values.ravel(),
            problem.h_j.values.ravel(),
            real=basis is not None,
        )

    def _diagonalize(self) -> None:
        vals, vecs = np.linalg.eigh(self.a_k + self.a_j)
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
        """The same problem over the first n sampled elements."""
        sub = copy.copy(self)
        sub.samples = self.samples[:, :n]
        sub.a_k, sub.a_j = self.a_k[:n, :n], self.a_j[:n, :n]
        sub.r_k, sub.r_j = self.r_k[:n], self.r_j[:n]
        sub._diagonalize()
        return sub

    def coeffs(self, mu: float) -> np.ndarray:
        """Minimizer of err_K^2 + mu err_J^2: a diagonal solve in the whitened basis."""
        denom = (1.0 - self.taus) + mu * self.taus
        keep = denom > 1e-12 * max(1.0, denom.max())
        y = np.where(keep, (self.bt_k + mu * self.bt_j) / np.where(keep, denom, 1.0), 0.0)
        return self.whiten @ y

    def err(self, c: np.ndarray, side: str) -> float:
        w, h = (self.w_k, self.h_k) if side == "k" else (self.w_j, self.h_j)
        resid = self.samples @ c - h
        return float(np.sqrt(np.sum(w * np.abs(resid) ** 2)))

    def kkt(self, c: np.ndarray, mu: float) -> np.ndarray:
        """Gradient of (err_K^2 + mu err_J^2) / 2 in the coefficients."""
        return (self.a_k @ c - self.r_k) + mu * (self.a_j @ c - self.r_j)

    def feasibility(self) -> float:
        """Distance of h_J to the span on J (the mu -> inf limit)."""
        keep = self.taus > 1e-12 * self.taus.max()
        y = np.where(keep, self.bt_j / np.where(keep, self.taus, 1.0), 0.0)
        return self.err(self.whiten @ y, "j")

    def solve(self, m: float, mu_hi: float, coeffs=None, mu_lo: float = 0.0) -> LsqSolution:
        """Saturating multiplier by bracketed bisection on err_J(mu) over [mu_lo, mu_hi].

        If the fit at mu_lo already meets the budget it is returned
        unsaturated.  coeffs(mu) defaults to the diagonal solve; the
        operator-form oracle supplies its own.
        """
        coeffs = self.coeffs if coeffs is None else coeffs
        feas = self.feasibility()
        if feas > m + 1e-9:
            raise InfeasibleProblemError(f"M = {m:.6g} below feasibility distance {feas:.6g}")
        c = coeffs(mu_lo)
        e_lo = self.err(c, "j")
        if e_lo <= m:
            return LsqSolution(c, mu_lo, feas, 0, False)

        scale = max(1.0, m)
        lo, hi = mu_lo, float(mu_hi)
        e_hi = self.err(coeffs(hi), "j")
        evals = [(lo, e_lo), (hi, e_hi)]
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
            e_hi = self.err(coeffs(hi), "j")
            evals.append((hi, e_hi))

        for iterations in range(1, _MAX_BISECTIONS + 1):
            mu = 0.5 * (lo + hi)
            c = coeffs(mu)
            e_mu = self.err(c, "j")
            evals.append((mu, e_mu))
            if abs(e_mu - m) <= 1e-12 * scale or hi - lo < 1e-15 * max(1.0, hi):
                break
            lo, hi = (mu, hi) if e_mu > m else (lo, mu)
        _check_monotone(evals, m)
        if abs(e_mu - m) > 1e-8 * scale:
            raise ConvergenceError(
                f"bisection stalled: |e(mu) - M| = {abs(e_mu - m):.3e} at mu = {mu:.6g}"
            )
        return LsqSolution(c, mu, feas, iterations, True)


def _forms(samples, w, h, part):
    """Gram form and data moments of one side, summed over its nodes only."""
    on = np.flatnonzero(w)
    s, w = samples[on], w[on]
    adjoint = s.conj().T
    g = part(adjoint @ (w[:, None] * s))
    return (g + g.conj().T) / 2.0, part(adjoint @ (w * h[on]))


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
    w_j = j_region.weights(grid).ravel()
    e, w_k = basis_matrix(grid, degree), grid.weights.ravel() - w_j
    return ConstrainedLSQ(e, w_k, w_j, np.zeros(w_j.size), h_j.values.ravel()).feasibility()


def solve_at_lambda(problem: BepProblem, lam: float) -> AnalyticCoeffs:
    """Solve (I + lambda Gram(J)) c = <h_K v (1+lambda) h_J, e_n> at fixed lambda."""
    return AnalyticCoeffs(ConstrainedLSQ.from_problem(problem).coeffs(_mu(lam)))


def constraint_error(problem: BepProblem, lam: float) -> float:
    """Constraint error e(lambda) = ||g0(lambda) - h_J|| on J."""
    core = ConstrainedLSQ.from_problem(problem)
    return core.err(core.coeffs(_mu(lam)), "j")


def _bep_solution(core: ConstrainedLSQ, result: LsqSolution) -> BepSolution:
    c = result.coeffs
    lam = result.mu - 1.0 if result.saturated else _LAMBDA_FLOOR
    return BepSolution(
        g0=AnalyticCoeffs(c),
        lam=lam,
        err_k=core.err(c, "k"),
        err_j=core.err(c, "j"),
        kkt_residual=float(np.linalg.norm(core.kkt(c, 1.0 + lam))),
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
    stored as a truncation-convergence indicator.
    """
    core = ConstrainedLSQ.from_problem(problem)
    solution = _bep_solution(core, core.solve(problem.m, 1.0 + hi0))
    if degree_diagnostic and problem.degree >= 5:
        n_low = problem.degree - 3
        low = core.leading(n_low).solve(problem.m, 1.0 + hi0).coeffs
        c = solution.g0.coeffs
        gap = np.concatenate((c[:n_low] - low, c[n_low:]))
        solution.degree_gap = float(np.linalg.norm(gap))
    return solution


def solve_bep_oracle(problem: BepProblem) -> BepSolution:
    """Independent check: the operator form (I + lambda G_J) c = b_K + (1 + lambda) b_J.

    One dense linear solve per lambda in place of the core's diagonal
    solve, with the same bisection on the grid-evaluated constraint
    error from lambda just above -1.
    """
    core = ConstrainedLSQ.from_problem(problem)
    eye = np.eye(problem.degree + 1)

    def operator_solve(mu: float) -> np.ndarray:
        return np.linalg.solve(eye + (mu - 1.0) * core.a_j, core.r_k + mu * core.r_j)

    result = core.solve(problem.m, 2.0, coeffs=operator_solve, mu_lo=1.0 + _LAMBDA_FLOOR)
    return _bep_solution(core, result)
