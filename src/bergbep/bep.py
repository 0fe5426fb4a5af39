"""Bounded extremal problem solver in the truncated Bergman space.

Given a partition of the disc into K and J = D \\ closure(K), data h_K,
h_J and a budget M, the solver finds the degree-N analytic g0 minimizing
||h_K - g0|| on K subject to ||h_J - g0|| <= M on J.  The optimum solves

    (I + lambda T_J) g0 = P(h_K v (1 + lambda) h_J)

for the unique lambda in (-1, inf) saturating the constraint when the
data is not attainable.  In mu = 1 + lambda this is a norm-constrained
least squares; one core, ConstrainedLSQ, solves it here and for the real
f-BEP, in one path.  It takes the eigendecomposition of the full-disc
Gram form of its basis (FullForm), the K moments, the J-form with its
moments and a synthesis c -> grid values; it whitens by the full-disc
form and reads the K-form as A_full - A_J, so each core assembles one
region form.  The full-disc form belongs to the basis and is
diagonalized once per basis.  The BEP's basis is orthonormal on the
disc, so, as in the operator equation, only the compression T_J is
assembled (the ring-FFT J-form of the polar layer in bergman): its
full-disc form is the diagonal of the grid norms g_n = 1 + O(rounding)
with identity eigenvectors, and its whitening a scaling.  The f-BEP's
lifts are not orthonormal: its basis (vekua.VekuaBasis) holds the
eigendecomposition of its own full-disc form.  The core then
diagonalizes the whitened J-form, so c(mu) is a diagonal solve with a
rounding-level Karush-Kuhn-Tucker residual.  err_J(mu) and its slope
are then explicit rational functions of mu evaluated from the whitened
forms at O(N) (the secular function of a quadratically constrained
least squares; Gander 1981), and a safeguarded Newton search on
1/err_J(mu) - 1/M finds mu in a handful of evaluations, verified
monotone at runtime.  The end point is checked on the grid by
synthesis: if the grid value misses M by more than the stop tolerance,
as it can when err_J << ||h_J||_J and the form value cancels, the same
search continues on grid values with the forms' slope.

The independent oracle shares only the end checks (_check_saturated)
with the core: it assembles dense forms from basis_matrix samples,
solves the operator form (I + lambda G_J) c = b_K + (1 + lambda) b_J
with one dense linear solve per lambda, evaluates err_J on the dense
samples and bisects lambda, so agreement with it checks the ring-FFT
assembly as well as the solve.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bergman import (
    AnalyticCoeffs,
    _check_degree,
    _forms,
    _ring_gram,
    _ring_moments,
    _ring_norms,
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
_MU_START = 2.0  # the core's multiplier search starts at lambda = 1
_MAX_SHRINK = 16.0  # a safeguard step lowers mu by at most this factor


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
    """The checks every BEP and f-BEP shares: the budget, the data grid, the
    degree within the grid's exactness, the partition."""
    if not 0.0 < problem.m < np.inf:
        raise ValueError(f"constraint level M must be positive and finite, got {problem.m}")
    problem.h_k._check_same_grid(problem.h_j)
    grid = problem.h_k.grid
    _check_degree(grid, problem.degree)
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
    """Coefficients, multiplier mu and search record of ConstrainedLSQ.solve.

    values is the synthesis of coeffs on the grid, the one that checked
    them against the budget, and err_j their err_J on it.  The core's
    values are read-only: the mu = 0 fit's serve every budget.
    """

    coeffs: np.ndarray
    mu: float
    feasibility: float
    iterations: int
    saturated: bool
    values: np.ndarray
    err_j: float


class FullForm(NamedTuple):
    """A basis's full-disc Gram form as its eigendecomposition vals, vecs.

    vecs None stands for identity eigenvectors: the BEP's form is the
    diagonal of the grid norms g of e_0..e_N, so its products stay
    elementwise and its whitening a scaling of the kept degrees.  This is
    the one reader of vecs.
    """

    vals: np.ndarray
    vecs: np.ndarray | None = None

    def _rotate(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """V x, or V^H x with adjoint."""
        if self.vecs is None:
            return x
        return (self.vecs.conj().T if adjoint else self.vecs) @ x

    def apply(self, c: np.ndarray) -> np.ndarray:
        """A_full c."""
        return self._rotate(self.vals * self._rotate(c, adjoint=True))

    def whitened(self, keep: np.ndarray, a: np.ndarray):
        """W^H a W and the map q -> W q, for W = V[:, keep] diag(vals[keep])^(-1/2).

        W whitens the form to the identity on the kept directions; a is Hermitian.
        """
        kept = np.flatnonzero(keep)
        scale = 1.0 / np.sqrt(self.vals[kept])
        rotated = self._rotate(self._rotate(a, adjoint=True).conj().T, adjoint=True)
        b = rotated[np.ix_(kept, kept)] * np.outer(scale, scale)

        def lift(q: np.ndarray) -> np.ndarray:
            embedded = np.zeros((self.vals.size, kept.size), dtype=q.dtype)
            embedded[kept] = scale[:, None] * q
            return self._rotate(embedded)

        return b, lift

    def leading(self, n: int) -> "FullForm":
        """The diagonal form of the first n basis elements, for the BEP's degree diagnostic.
        A dense form raises: a prefix of the f-BEP's columns e_0..e_N, i e_0..i e_N
        is no degree truncation."""
        if self.vecs is not None:
            raise ValueError("leading blocks are defined for a diagonal form only")
        return FullForm(self.vals[:n])


def _support(w: np.ndarray, h: np.ndarray) -> tuple[slice, np.ndarray, np.ndarray]:
    """The rings that carry weight on a side, as one slice of the flat nodes, and
    views of the weights and data there.  Views, not gathered copies: a copy
    per side costs more in fresh pages than the nodes it leaves out save."""
    rows = np.atleast_2d(w)  # grid-shaped (n_r, n_theta); flat weights are one ring
    rings = np.flatnonzero(np.any(rows, axis=-1))
    n_t = rows.shape[-1]
    on = slice(rings[0] * n_t, (rings[-1] + 1) * n_t) if rings.size else slice(0, 0)
    return on, w.ravel()[on], h.ravel()[on]


class ConstrainedLSQ:
    """min err_K(c) subject to err_J(c) <= M over combinations c of basis elements.

    err_S(c)^2 = sum_S w_S |synthesize(c) - h_S|^2 on the grid nodes, summed
    over the rings that carry weight on S (w_S, h_S grid-shaped).  The core
    takes the eigendecomposition of the full-disc Gram form of its basis
    (FullForm), the K moments r_K, the J-form A_J with its moments r_J, the
    synthesis c -> grid values and the weights and data of both sides;
    A_K = A_full - A_J.  The BEP passes its diagonal grid norms,
    the ring-FFT J-form and the inverse ring FFT (_polar_core).  The f-BEP
    passes the full form its VekuaBasis holds, diagonalized once per
    basis, and the basis's real J-form, moments and synthesis
    (_lsq_forms, _lsq_moments, _synthesis), whatever its representation.
    A basis on another grid than the problem's raises GridMismatchError.
    Directions below _DROP_RCOND of the top full-disc eigenvalue are
    dropped, and the rest are whitened so that the J-form is diag(tau)
    and the K-form diag(1 - tau).
    """

    def __init__(self, full, r_k, a_j, r_j, synthesize, w_k, w_j, h_k, h_j):
        self.full, self.r_k, self.a_j, self.r_j = full, r_k, a_j, r_j
        self.synthesize = synthesize
        self._sides = {"k": _support(w_k, h_k), "j": _support(w_j, h_j)}
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
            basis._full_form, basis._lsq_moments(w_k, h_k), *basis._lsq_forms(w_j, h_j),
            basis._synthesis, w_k, w_j, h_k, h_j,
        )

    def _diagonalize(self) -> None:
        vals = self.full.vals
        self.min_eig = float(vals.min())  # of the full-disc form
        keep = vals > _DROP_RCOND * vals.max()
        self.dropped = int(np.count_nonzero(~keep))
        if self.dropped:
            logger.info("dropping %d near-dependent basis directions", self.dropped)
        b, lift = self.full.whitened(keep, self.a_j)
        taus, q = np.linalg.eigh((b + b.conj().T) / 2.0)
        self.taus = np.clip(taus, 0.0, 1.0)  # compression of a [0,1]-spectrum form
        # whitens the full-disc form to the identity and A_J to diag(tau)
        self.whiten = lift(q)
        self.bt_k = self.whiten.conj().T @ self.r_k
        self.bt_j = self.whiten.conj().T @ self.r_j
        self._free = None  # the M-independent part of solve, filled on first use

    def leading(self, n: int) -> "ConstrainedLSQ":
        """The same problem over the first n basis elements; ||h_J||_J^2 is shared."""
        sub = copy.copy(self)
        pad = np.zeros(self.r_k.size - n)
        sub.synthesize = lambda c: self.synthesize(np.concatenate((c, pad)))
        sub.full = self.full.leading(n)
        sub.a_j = self.a_j[:n, :n]
        sub.r_k, sub.r_j = self.r_k[:n], self.r_j[:n]
        sub._diagonalize()
        return sub

    @cached_property
    def _h_j_sq(self) -> float:
        """||h_J||_J^2, computed once and shared with the leading cores."""
        _, w, h = self._sides["j"]
        return float(np.sum(w * (h.real**2 + h.imag**2)))

    def _secular(self, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """Whitened solution y(mu) and its derivative y'(mu), with d = (1 - tau) + mu tau:

            y = (bt_K + mu bt_J) / d,    y' = ((1 - tau) bt_J - tau bt_K) / d^2.

        Directions whose denominator is at rounding level are left out of both.
        """
        denom = (1.0 - self.taus) + mu * self.taus
        keep = denom > 1e-12 * max(1.0, denom.max())
        d = np.where(keep, denom, 1.0)
        y = np.where(keep, (self.bt_k + mu * self.bt_j) / d, 0.0)
        dy = np.where(keep, ((1.0 - self.taus) * self.bt_j - self.taus * self.bt_k) / d**2, 0.0)
        return y, dy

    def coeffs(self, mu: float) -> np.ndarray:
        """Minimizer of err_K^2 + mu err_J^2: a diagonal solve in the whitened basis."""
        return self.whiten @ self._secular(mu)[0]

    def _form_err(self, mu: float) -> tuple[float, float]:
        """err_J(mu) from the whitened forms and d(err_J^2)/dmu = -2 sum d |y'|^2, at O(N)."""
        y, dy = self._secular(mu)
        e2 = self._h_j_sq - 2.0 * np.vdot(y, self.bt_j).real + np.sum(self.taus * np.abs(y) ** 2)
        slope = -2.0 * np.sum(((1.0 - self.taus) + mu * self.taus) * np.abs(dy) ** 2)
        return float(np.sqrt(max(e2, 0.0))), float(slope)

    def err(self, c: np.ndarray, side: str, values: np.ndarray | None = None) -> float:
        """err_K or err_J of c on the grid; values is synthesize(c) if already at hand."""
        on, w, h = self._sides[side]
        values = self.synthesize(c) if values is None else values
        resid = np.subtract(values.ravel()[on], h, dtype=complex)
        parts = resid.view(np.float64)  # re, im interleaved
        parts *= parts
        return float(np.sqrt(w @ (parts[::2] + parts[1::2])))

    def kkt(self, c: np.ndarray, mu: float) -> np.ndarray:
        """Gradient of (err_K^2 + mu err_J^2) / 2 in the coefficients."""
        a_j_c = self.a_j @ c
        return (self.full.apply(c) - a_j_c - self.r_k) + mu * (a_j_c - self.r_j)

    def _j_fit(self) -> tuple[np.ndarray, np.ndarray]:
        """Whitened best fit of h_J on J (the mu -> inf limit) and the directions it uses."""
        fit = self.taus > 1e-12 * self.taus.max()
        return fit, np.where(fit, self.bt_j / np.where(fit, self.taus, 1.0), 0.0)

    def feasibility(self) -> float:
        """Distance of h_J to the span on J, evaluated on the grid."""
        return self.err(self.whiten @ self._j_fit()[1], "j")

    def _m_free(self) -> tuple[float, np.ndarray, np.ndarray, float]:
        """What solve needs at every budget: the feasibility distance and the
        mu = 0 fit with its grid values and err_J; computed once per core."""
        if self._free is None:
            c0 = self.coeffs(0.0)
            values = self._checked_values(c0)
            self._free = (self.feasibility(), c0, values, self.err(c0, "j", values))
        return self._free

    def _checked_values(self, c: np.ndarray) -> np.ndarray:
        """synthesize(c), read-only: the grid values a returned solution carries."""
        values = self.synthesize(c)
        values.setflags(write=False)
        return values

    def solve(self, m: float) -> LsqSolution:
        """Saturating multiplier by a safeguarded Newton search on err_J(mu) = M, from _MU_START.

        If the fit at mu = 0 already meets the budget (on the grid) it is
        returned unsaturated.  The search (_newton) evaluates err_J and its
        slope from the whitened forms at O(N) per step,

            err_J(y)^2 = ||h_J||_J^2 - 2 Re y^H bt_J + sum tau |y|^2,

        and the returned err_J is evaluated on the grid by synthesis; the
        solution carries those grid values and that err_J.  If it misses M
        by more than the stop tolerance (the form value cancels when
        err_J << ||h_J||_J), the search continues from there on grid values
        with the forms' slope (a sum of non-positive terms, it does not cancel).
        """
        feas, c0, values, e_lo = self._m_free()
        if feas > m + 1e-9:
            raise InfeasibleProblemError(f"M = {m:.6g} below feasibility distance {feas:.6g}")
        if e_lo <= m:
            return LsqSolution(c0.copy(), 0.0, feas, 0, False, values, e_lo)

        evals = [(0.0, e_lo)]
        mu, _, iterations = _newton(self._form_err, m, _MU_START, evals, feas)
        c = self.coeffs(mu)
        values = self._checked_values(c)
        e_mu = self.err(c, "j", values)
        evals.append((mu, e_mu))
        if abs(e_mu - m) > _STOP_TOL * max(1.0, m):
            logger.debug("err_J from the forms missed M on the grid by %.3e", abs(e_mu - m))

            end_point = (mu, e_mu)  # where the search starts: its grid value is at hand

            def grid_err(x: float) -> tuple[float, float]:
                e_x = end_point[1] if x == end_point[0] else self.err(self.coeffs(x), "j")
                return e_x, self._form_err(x)[1]

            mu, e_mu, more = _newton(grid_err, m, mu, evals, feas)
            iterations += more
            c = self.coeffs(mu)  # e_mu is err_J of these coefficients
            values = self._checked_values(c)
        _check_saturated(evals, m, mu, e_mu)
        return LsqSolution(c, mu, feas, iterations, True, values, e_mu)


def _polar_core(grid, degree, w_k, w_j, h_k, h_j) -> ConstrainedLSQ:
    """The BEP core over e_0..e_N: the grid norms of the basis (its diagonal
    full-disc form), the ring-FFT J-form and inverse ring-FFT synthesis.
    Data that vanishes on K has zero K moments, taken without a transform."""
    r_k = (
        _ring_moments(grid, w_k * h_k, degree) if np.any(h_k)
        else np.zeros(degree + 1, dtype=complex)
    )
    return ConstrainedLSQ(
        FullForm(_ring_norms(grid, degree)),
        r_k,
        _ring_gram(grid, w_j, degree),
        _ring_moments(grid, w_j * h_j, degree),
        lambda c: _ring_synthesis(grid, c),
        w_k, w_j, h_k, h_j,
    )


def _newton(err_slope, m: float, mu: float, evals: list, feas: float):
    """Safeguarded Newton search for err(mu) = M on [0, inf) from mu, given err(0) > M.

    The core's only search.  err_slope(mu) returns err(mu) and d(err^2)/dmu.  The step is Newton's
    on the secular function phi(mu) = 1/err(mu) - 1/M, nearly linear in
    mu (Reinsch 1971; More and Sorensen 1983),

        mu <- mu - phi / phi' = mu + 2 phi err^3 / (d(err^2)/dmu),

    and it is kept only strictly inside the bracket [lo, hi] of the
    evaluations so far.  Otherwise the bracket is halved in log scale
    (its geometric mean, at most _MAX_SHRINK below hi: a root far below
    the start is reached in a few steps), or mu doubles while no upper
    end is known.  A search that finds no upper end in _MAX_EXPANSIONS
    steps, or none up to 2^_MAX_EXPANSIONS times the start, raises
    ConvergenceError.  The stops are those of the oracle's _bisect.  Every
    evaluation is appended to evals.  Returns mu, err(mu) and their count.
    """
    m = float(m)  # Python floats throughout: mu is reported as a plain float
    scale = max(1.0, m)
    reach = mu * 2.0**_MAX_EXPANSIONS
    lo, hi = 0.0, np.inf
    expansions = 0
    for iterations in range(1, _MAX_BISECTIONS + 1):
        e_mu, slope = err_slope(mu)
        evals.append((mu, e_mu))
        collapsed = hi < np.inf and hi - lo <= 4.0 * np.finfo(float).eps * hi
        if abs(e_mu - m) <= _STOP_TOL * scale or collapsed:
            break
        lo, hi = (mu, hi) if e_mu > m else (lo, mu)
        newton = np.nan
        if e_mu > 0.0 and slope < 0.0:  # phi' = -slope / (2 err^3) > 0
            newton = mu + 2.0 * (1.0 / e_mu - 1.0 / m) * e_mu * e_mu * e_mu / slope
        if lo < newton < hi:
            mu = newton
        elif hi < np.inf:  # halve the bracket in log scale (More and Sorensen 1983)
            mu = max(math.sqrt(lo * hi), hi / _MAX_SHRINK)
        else:
            mu = 2.0 * mu
        if hi == np.inf:
            expansions += 1
            if expansions > _MAX_EXPANSIONS or lo >= reach:
                _check_monotone(evals, m)
                raise ConvergenceError(
                    f"bracket expansion exhausted: e(mu = {lo:.3g}) = {e_mu:.9g} > "
                    f"M = {m:.9g} (feasibility distance {feas:.9g})"
                )
            mu = min(mu, reach)
    return mu, e_mu, iterations


def _bisect(err, m: float, lo: float, hi: float, evals: list, feas: float):
    """Bracketed bisection of err(mu) = M on [lo, hi], given err(lo) > M: the oracle's search.

    hi doubles until err(hi) <= M, then the bracket halves until
    |err - M| <= _STOP_TOL max(1, M) or it collapses to a few ulps of hi
    (a relative floor: a root far below 1 is still resolved).  Every evaluation
    is appended to evals.  Returns mu, err(mu) and the number of steps.
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
    return mu, e_mu, iterations


def _check_saturated(evals: list, m: float, mu: float, e_mu: float) -> None:
    _check_monotone(evals, m)
    if abs(e_mu - m) > 1e-8 * max(1.0, m):
        raise ConvergenceError(
            f"multiplier search stalled: |e(mu) - M| = {abs(e_mu - m):.3e} at mu = {mu:.6g}"
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
    _check_degree(grid, degree)
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
    """The BEP solution of a multiplier search, with err(c, side, values) and
    kkt(c, mu) of its forms.  err_K takes the search's grid values of the
    coefficients, err_J is the search's own, and the KKT residual takes the
    multiplier they solve."""
    c = result.coeffs
    return BepSolution(
        g0=AnalyticCoeffs(c),
        lam=_reported_lambda(result),
        err_k=err(c, "k", result.values),
        err_j=result.err_j,
        kkt_residual=float(np.linalg.norm(kkt(c, result.mu))),
        iterations=result.iterations,
        feasibility=result.feasibility,
        saturated=result.saturated,
    )


def solve_bep(problem: BepProblem, degree_diagnostic: bool = True) -> BepSolution:
    """Solve the bounded extremal problem by a safeguarded Newton search on the multiplier.

    If the unconstrained K-fit already satisfies the constraint it is
    returned with lambda at the lower bracket; otherwise the search
    starts at lambda = 1 on the bracket (-1, inf) and runs until the
    constraint saturates (ConstrainedLSQ.solve).  With degree_diagnostic
    the problem is re-solved at degree N - 4 on the leading blocks of the
    same forms and the coefficient gap stored as a truncation-convergence
    indicator; it stays None when M is below the degree N - 4 feasibility
    distance or that re-solve does not converge.
    """
    core = ConstrainedLSQ.from_problem(problem)
    solution = _bep_solution(core.solve(problem.m), core.err, core.kkt)
    if degree_diagnostic and problem.degree >= 5:
        n_low = problem.degree - 3
        try:
            low = core.leading(n_low).solve(problem.m).coeffs
        except (InfeasibleProblemError, ConvergenceError) as exc:
            logger.info("no degree gap: at degree %d, %s", n_low - 1, exc)
            return solution
        c = solution.g0.coeffs
        gap = np.concatenate((c[:n_low] - low, c[n_low:]))
        solution.degree_gap = float(np.linalg.norm(gap))
    return solution


def solve_bep_oracle(problem: BepProblem) -> BepSolution:
    """Independent check: the operator form (I + lambda G_J) c = b_K + (1 + lambda) b_J.

    Shares only the end checks (_check_saturated) with the core.  The forms are
    assembled densely from basis_matrix samples, each lambda takes one
    dense linear solve in place of the core's diagonal solve, lambda is
    bisected (_bisect) with err_J evaluated on the dense samples at every
    step from lambda just above -1, and the feasibility distance is the
    error of the pseudo-inverse J-fit.
    """
    grid = problem.grid
    e = basis_matrix(grid, problem.degree)
    sides = {
        "k": (problem.k_region.weights(grid).ravel(), problem.h_k.values.ravel()),
        "j": (problem.j_region.weights(grid).ravel(), problem.h_j.values.ravel()),
    }
    (a_k, r_k), (a_j, r_j) = (_forms(e, w, h, np.asarray) for w, h in sides.values())
    eye = np.eye(problem.degree + 1)

    def err(c: np.ndarray, side: str, values: np.ndarray | None = None) -> float:
        w, h = sides[side]
        values = e @ c if values is None else values
        return float(np.sqrt(np.sum(w * np.abs(values - h) ** 2)))

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
    values = e @ c
    e_lo = err(c, "j", values)
    if e_lo <= problem.m:
        return _bep_solution(LsqSolution(c, mu_lo, feas, 0, False, values, e_lo), err, kkt)
    evals = [(mu_lo, e_lo)]
    mu, e_mu, iterations = _bisect(
        lambda mu: err(operator_solve(mu), "j"), problem.m, mu_lo, 2.0, evals, feas
    )
    _check_saturated(evals, problem.m, mu, e_mu)
    c = operator_solve(mu)  # e_mu is err_J of these coefficients
    return _bep_solution(LsqSolution(c, mu, feas, iterations, True, e @ c, e_mu), err, kkt)
