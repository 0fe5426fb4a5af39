"""Bounded extremal problem solver in the truncated Bergman space.

Given a partition of the disc into K and J = D \\ closure(K), data h_K,
h_J and a budget M, the solver finds the degree-N analytic g0 minimizing
||h_K - g0|| on K subject to ||h_J - g0|| <= M on J.  The optimum solves

    (I + lambda T_J) g0 = P(h_K v (1 + lambda) h_J)

for the unique lambda in (-1, inf) saturating the constraint when the
data is not attainable.  In mu = 1 + lambda this is a norm-constrained
least squares; one core, ConstrainedLSQ, solves it here and for the real
f-BEP, in one path.  The core takes a basis and the weights and data of
both sides, and every basis answers it through the same four private
members: the eigendecomposition of its full-disc Gram form (_full_form,
a FullForm of eigenvalues and eigenvectors), its Gram form under any
node weights (_form(w)), the data moments (_moments(w, h)) and its
synthesis c -> values on the nodes of a slice of rings (_synthesis(c,
rings), all rings by default, a fresh array).  A basis whose elements each
live in one angular mode may give a fifth, its ring spectrum
(_ring_spectrum(rings)); the BEP's does.  The core whitens by the
full-disc form through its one whitening W = V diag(vals)^(-1/2) over
the directions above _DROP_RCOND of the top eigenvalue
(FullForm.whitening, the one rank rule, which the degree diagnostic
and the f-BEP's span projection read too) and reads the K-form as
A_full - A_J, so it assembles one region form, the J-form.  A core
assembles it once per (J region, grid, basis): the J-form and its
decomposition (the J record: A_J, tau and the whitening W q) depend on
J's weights and the basis alone, never on the data or M, and the region
keeps them beside its weights, as it does the leading core's of the
degree diagnostic, for the last degree solved on each grid; an f-BEP
core's under a name of its own, for the last closed-form lifts solved
(f's kind, eps and the degree).  So a repeat solve on the same
partition takes neither the J-form nor an eigh.
The BEP's basis,
_PolarBasis, is e_0..e_N on the polar grid: its forms, moments and
synthesis are the ring FFTs of the polar layer in bergman.  It is
orthonormal on the disc, so, as in the operator equation, only the
compression T_J is assembled: its full-disc decomposition is the grid
norms g_n = 1 + O(rounding) beside identity eigenvectors, taken with no
eigh, and its whitening the scaling diag(g^(-1/2)).  The f-BEP's lifts
(vekua.VekuaBasis) are not orthonormal: the basis diagonalizes its own
full-disc form, once however many cores use it.  The core then
diagonalizes the whitened J-form W^H A_J W, so c(mu) is a diagonal solve
with a rounding-level Karush-Kuhn-Tucker residual; a form with no
off-diagonal entry, as a J whose weights are constant along theta gives
over the polar basis, is its own eigendecomposition and takes no eigh.
err_J(mu) and its slope are then explicit rational functions of mu
evaluated from the whitened forms at O(N) (the secular function
of a quadratically constrained least squares; Gander 1981), and a
safeguarded Newton search on 1/err_J(mu) - 1/M finds mu in a handful of
evaluations, verified monotone at runtime.  The end point is checked on
the grid: if the grid value misses M by more than the stop tolerance, as
it can when err_J << ||h_J||_J and the form value cancels, the same
search continues on grid values with the forms' slope.  The degree
diagnostic's re-solve at N - 4 (_FormCore) measures on the forms alone:
it reports only a coefficient gap.  A grid value is the quadrature sum
sum_S w_S |g - h_S|^2, measured from the coefficients one of two ways.
A side whose weights are constant along theta (a disc, an annulus, their
complements, the full disc), over a basis with a ring spectrum, is
measured by Parseval on its rings from its data spectrum, taken once
(_RingSide), with no synthesis of g; that spectrum also gives its
moments and its diagonal form.  Sectors, masks and the Vekua bases are
measured at the nodes (_GridSide): the basis synthesizes g on one ring
block at a time (bergman._ring_blocks, at most _BLOCK_NODES nodes) and
the block's residual is summed at once, so the core holds no grid values
and makes no grid-sized array.  The moments and the data spectrum are
taken over the same blocks.  Neither way expands the square, which is
the cancellation the grid check exists to catch.  Which way, and on which
rings, are facts of the region alone (Region.ring_facts: the span of its
weighted rings, its constancy along theta), kept on it per grid, so a
repeat solve on the same regions takes them without a weight scan.
The problem is homogeneous in (h_K, h_J, M), so
every tolerance of the search, its infeasibility test and its end
checks is relative to size = max(M, ||h_J||_J), in the core and in the
oracle alike.

The independent oracle shares only the end checks (_check_saturated)
with the core: it sums the dense quadrature forms over blocks of rings
of basis samples (bergman._basis_forms; a block is about
bergman._BLOCK_BYTES), solves the operator form
(I + lambda G_J) c = b_K + (1 + lambda) b_J with one dense linear solve
per lambda, evaluates err_J on node values synthesized as one product
(radial * c) @ angular^T of the ring and angle factors, and bisects
lambda, so agreement with it checks the ring-FFT assembly as well as the
solve.  It never holds a sample matrix of the whole grid: its memory is
O(block + n_nodes).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .bergman import (
    AnalyticCoeffs,
    _basis_forms,
    _check_degree,
    _radial_powers,
    _ring_blocks,
    _ring_factors,
    _ring_gram,
    _ring_moments,
    _ring_norms,
    _ring_synthesis,
)
from .grid import GridFunction, GridMismatchError, Region, _once, _ring_facts

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

    err_j is the grid err_J of coeffs that checked them against the
    budget, measured from the coefficients as every err is; the solution
    holds no grid values.
    """

    coeffs: np.ndarray
    mu: float
    feasibility: float
    iterations: int
    saturated: bool
    err_j: float

    @property
    def lam(self) -> float:
        """The lambda a solution reports: mu - 1 if saturated, else _LAMBDA_FLOOR just above -1."""
        return self.mu - 1.0 if self.saturated else _LAMBDA_FLOOR


class FullForm(NamedTuple):
    """A basis's full-disc Gram form as its eigendecomposition vals, vecs.

    Every basis gives both: the BEP's vecs are the identity beside the grid
    norms g of e_0..e_N, the f-BEP's those of eigh.  whitening() is the one
    rank rule: the directions above _DROP_RCOND of the top eigenvalue.
    """

    vals: np.ndarray
    vecs: np.ndarray

    def apply(self, c: np.ndarray) -> np.ndarray:
        """A_full c."""
        return self.vecs @ (self.vals * (self.vecs.conj().T @ c))

    def whitening(self) -> np.ndarray:
        """W = V[:, keep] diag(vals[keep])^(-1/2), keep = vals > _DROP_RCOND max(vals):
        W^H A_full W is the identity on the kept directions."""
        keep = self.vals > _DROP_RCOND * self.vals.max()
        return self.vecs[:, keep] / np.sqrt(self.vals[keep])

    def leading(self, n: int) -> "FullForm":
        """The form of the first n basis elements, for the BEP's degree diagnostic.
        vecs that mix them with the rest raise: a prefix of the f-BEP's columns
        e_0..e_N, i e_0..i e_N is no degree truncation."""
        if np.any(self.vecs[:n, n:]) or np.any(self.vecs[n:, :n]):
            raise ValueError(f"the eigenvectors mix the first {n} basis elements with the rest")
        return FullForm(self.vals[:n], self.vecs[:n, :n])


class _PolarBasis:
    """e_0..e_N on the polar grid, as the core asks a basis: the grid norms beside
    identity eigenvectors, the ring-FFT forms and moments of bergman, the
    inverse ring FFT and the ring spectrum sqrt(n+1) r_i^n of e_n, which lives
    in angular mode n alone."""

    def __init__(self, grid, degree: int):
        self.grid, self.degree = grid, degree

    def _record_id(self, name: str, n: int) -> tuple:
        """Where a J region keeps the J record of the first n elements: under name, keyed
        by (degree, n), and what the log calls it."""
        return name, (self.degree, n), f"the J record of e_0..e_{n - 1} at degree {self.degree}"

    def _ring_spectrum(self, rings: slice) -> np.ndarray:
        """a_in = sqrt(n+1) r_i^n on the rings: sum_n c_n e_n has the forward-normalized
        angular spectrum a_in c_n at mode n of ring i, and none off modes 0..N."""
        n = np.arange(self.degree + 1)
        return np.sqrt(n + 1.0) * _radial_powers(self.grid, self.degree)[rings]

    @property
    def _full_form(self) -> FullForm:
        return FullForm(_ring_norms(self.grid, self.degree), np.eye(self.degree + 1))

    def _form(self, w: np.ndarray) -> np.ndarray:
        return _ring_gram(self.grid, w, self.degree)

    def _moments(self, w: np.ndarray, h: np.ndarray) -> np.ndarray:
        return _ring_moments(self.grid, w, h, self.degree)

    def _synthesis(self, coeffs: np.ndarray, rings: slice = slice(None)) -> np.ndarray:
        return _ring_synthesis(self.grid, coeffs, rings)


class _GridSide(NamedTuple):
    """A side measured at its nodes, one ring block at a time (bergman._ring_blocks,
    at most _BLOCK_NODES nodes): the rings that carry weight (rings, a slice of
    the grid's rings), the grid-shaped weights and data, read on those rings
    only, and the basis's synthesis of c on a block of rings.  err_S(c)^2
    synthesizes each of its rings once, a block at a time, so it makes no
    grid-sized array and each of its dots stays below BLAS's threading
    threshold."""

    rings: slice
    w: np.ndarray
    h: np.ndarray
    synthesis: Callable[[np.ndarray, slice], np.ndarray]

    def err_sq(self, c: np.ndarray) -> float:
        """sum w |synthesize(c) - h|^2 over the side's nodes."""
        total = 0.0
        for block in _ring_blocks(self.w.shape, self.rings):
            resid = self.synthesis(c, block)  # a fresh array: overwritten in place
            resid -= self.h[block]
            parts = resid.view(np.float64)  # re, im interleaved
            parts *= parts
            total += self.w[block].ravel() @ (parts[..., ::2] + parts[..., 1::2]).ravel()
        return total

    def h_sq(self) -> float:
        total = 0.0
        for block in _ring_blocks(self.w.shape, self.rings):
            h = self.h[block]
            total += self.w[block].ravel() @ (h.real**2 + h.imag**2).ravel()
        return total


class _RingSide(NamedTuple):
    """A side whose weights are constant along theta, measured by Parseval on its rings.

    On ring i of weight w_i per node, sum_j w_i |v_ij - h_ij|^2 =
    n_theta w_i sum_k |V_ik - H_ik|^2 over the forward-normalized angular
    spectra V of v = synthesize(c) and H of h.  V lives in the basis modes
    0..N (V_ik = a_ik c_k, the basis's _ring_spectrum), so the side keeps H
    only there (h_hat) and the power of H off them per ring (tail):

        err_S(c)^2 = sum_i n_theta w_i (sum_k |a_ik c_k - H_ik|^2 + tail_i),

    a sum of squares of differences, never the expanded form
    ||h||^2 - 2 Re <c, r> + c^H A c.  The same H gives the side's moments.
    """

    weights: np.ndarray  # n_theta w_i on the rings that carry weight
    amps: np.ndarray  # a_ik there, (rings, N+1)
    h_hat: np.ndarray  # H_ik at the basis modes, (rings, N+1)
    tail: np.ndarray  # sum of |H_ik|^2 over the other modes, (rings,)

    @classmethod
    def of(cls, basis, w: np.ndarray, h: np.ndarray, rings: slice) -> "_RingSide":
        """The side on the rings that carry weight, its data transformed one ring block
        at a time (bergman._ring_blocks)."""
        amps = basis._ring_spectrum(rings)
        h_hat = np.zeros(amps.shape, dtype=complex)
        tail = np.zeros(amps.shape[0])
        if np.any(h[rings]):  # zero data take no transform
            width = amps.shape[1]
            for block in _ring_blocks(w.shape, rings):
                spectrum = np.fft.fft(h[block], axis=-1, norm="forward")
                at = slice(block.start - rings.start, block.stop - rings.start)
                h_hat[at] = spectrum[:, :width]
                tail[at] = _power(spectrum[:, width:])
        return cls(w.shape[-1] * w[rings, 0], amps, h_hat, tail)

    def err_sq(self, c: np.ndarray) -> float:
        return self.weights @ (_power(self.amps * c - self.h_hat) + self.tail)

    def h_sq(self) -> float:
        return self.weights @ (_power(self.h_hat) + self.tail)

    def form(self) -> np.ndarray:
        """A_S = diag(sum_i n_theta w_i |a_in|^2): each basis element lives in its own mode."""
        return np.diag(self.weights @ np.abs(self.amps) ** 2)

    def moments(self) -> np.ndarray:
        """b_n = sum w h conj(e_n) = sum_i n_theta w_i conj(a_in) H_in."""
        return (self.amps.conj() * self.h_hat).T @ self.weights


def _power(spectrum: np.ndarray) -> np.ndarray:
    """sum_k |spectrum_ik|^2 along the last axis."""
    return np.sum(spectrum.real**2 + spectrum.imag**2, axis=-1)


def _side(basis, w: np.ndarray, h: np.ndarray, region: Region | None):
    """A _RingSide where the basis has a ring spectrum and w is constant along theta
    (discs, annuli, their complements, the full disc), else a _GridSide, both on the
    rings that carry weight: the region's kept ring facts (Region.ring_facts), or one
    scan of w without a region."""
    rings, constant = _ring_facts(w) if region is None else region.ring_facts(basis.grid)
    if constant and hasattr(basis, "_ring_spectrum"):
        return _RingSide.of(basis, w, h, rings)
    return _GridSide(rings, w, h, basis._synthesis)


class _JRecord(NamedTuple):
    """What a core takes of its J side beyond the data: A_J, the count of full-disc
    directions the whitening drops, and tau with whiten = W q, under which A_J is
    diag(tau) and the full-disc form the identity.  It depends on the basis and
    w_J alone, never on h_K, h_J or M."""

    a_j: np.ndarray
    dropped: int
    taus: np.ndarray
    whiten: np.ndarray


def _j_record(full: FullForm, a_j: np.ndarray) -> _JRecord:
    """The J record of the J-form a_j over a basis whose full-disc form is full: the
    eigenvectors q of W^H A_J W (the identity when that form is diagonal) and its
    eigenvalues tau, clipped to the [0, 1] spectrum of a compression."""
    w = full.whitening()
    dropped = full.vals.size - w.shape[1]
    b = w.conj().T @ a_j @ w
    if np.any(b - np.diag(b.diagonal())):
        taus, q = np.linalg.eigh((b + b.conj().T) / 2.0)
        w = w @ q
    else:  # a diagonal form (a _RingSide J) is its own eigendecomposition: q = I
        taus = b.diagonal().real
    return _JRecord(a_j, dropped, np.clip(taus, 0.0, 1.0), w)


class _FormCore:
    """The whitened forms of a norm-constrained least squares and its one search (solve).

    It holds the full-disc form, the moments r_K and r_J, the J record (_adopt)
    and ||h_J||_J^2, and measures err_J on them alone (_measure), with no grid
    work: the degree diagnostic's leading core (leading) is one.  ConstrainedLSQ
    adds the grid sides of its problem and measures on them.
    """

    def __init__(self, basis, j_region, full: FullForm):
        self._basis, self._j_region, self.full = basis, j_region, full

    def _record(self, name: str, n: int, build) -> _JRecord:
        """build(): the J record of the first n basis elements, kept on the J region for
        the grid (grid._once) and read back on a repeat solve, given a J region and a
        basis that names the record (_record_id: a name, a key and what the log calls it)."""
        record_id = getattr(self._basis, "_record_id", None)
        at = None if self._j_region is None or record_id is None else record_id(name, n)
        if at is None:
            return build()
        name, key, what = at
        return _once(self._j_region._resolved.setdefault(self._basis.grid, {}), name, build,
                     key, what)

    def _adopt(self, record: _JRecord) -> None:
        """Take A_J, tau and whiten = W q from the J record and whiten the moments."""
        self.a_j, self.dropped, self.taus, self.whiten = record
        if self.dropped:
            logger.info("dropping %d near-dependent basis directions", self.dropped)
        self.bt_k = self.whiten.conj().T @ self.r_k
        self.bt_j = self.whiten.conj().T @ self.r_j
        self._free = None  # the M-independent part of solve, filled on first use

    def leading(self, n: int) -> "_FormCore":
        """The same problem over the first n basis elements, as a forms core: prefixes of
        the forms, the J record of A_J's leading block and the parent's ||h_J||_J^2."""
        sub = _FormCore(self._basis, self._j_region, self.full.leading(n))
        sub.r_k, sub.r_j, sub._h_j_sq = self.r_k[:n], self.r_j[:n], self._h_j_sq
        sub._adopt(sub._record("j_leading_record", n,
                               lambda: _j_record(sub.full, self.a_j[:n, :n])))
        return sub

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

    def _form_value(self, y: np.ndarray) -> float:
        """err_J of the coefficients W y from the whitened forms, at O(N)."""
        e2 = self._h_j_sq - 2.0 * np.vdot(y, self.bt_j).real + np.sum(self.taus * np.abs(y) ** 2)
        return float(np.sqrt(max(e2, 0.0)))

    def _form_err(self, mu: float) -> tuple[float, float]:
        """err_J(mu) from the whitened forms and d(err_J^2)/dmu = -2 sum d |y'|^2, at O(N)."""
        y, dy = self._secular(mu)
        slope = -2.0 * np.sum(((1.0 - self.taus) + mu * self.taus) * np.abs(dy) ** 2)
        return self._form_value(y), float(slope)

    def _measure(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """The coefficients W y and err_J, from the forms."""
        return self.whiten @ y, self._form_value(y)

    def kkt(self, c: np.ndarray, mu: float) -> np.ndarray:
        """Gradient of (err_K^2 + mu err_J^2) / 2 in the coefficients."""
        a_j_c = self.a_j @ c
        return (self.full.apply(c) - a_j_c - self.r_k) + mu * (a_j_c - self.r_j)

    def feasibility(self) -> float:
        """Distance of h_J to the span on J: err_J of its whitened best fit (mu -> inf)."""
        fit = self.taus > 1e-12 * self.taus.max()
        y = np.where(fit, self.bt_j / np.where(fit, self.taus, 1.0), 0.0)
        return self._measure(y)[1]

    def _m_free(self) -> tuple[float, np.ndarray, float]:
        """What solve needs at every budget, computed once per core: the feasibility
        distance and the mu = 0 fit with its err_J."""
        if self._free is None:
            self._free = (self.feasibility(), *self._measure(self._secular(0.0)[0]))
        return self._free

    def solve(self, m: float) -> LsqSolution:
        """Saturating multiplier by a safeguarded Newton search on err_J(mu) = M, from _MU_START.

        If the fit at mu = 0 already meets the budget (as measured) it is
        returned unsaturated.  The search (_newton) evaluates err_J and its
        slope from the whitened forms at O(N) per step,

            err_J(y)^2 = ||h_J||_J^2 - 2 Re y^H bt_J + sum tau |y|^2,

        and the returned err_J is measured (_measure: on the grid for a
        ConstrainedLSQ, by Parseval on the rings or at the nodes, from the
        coefficients); the solution carries it.  If it misses M
        by more than the stop tolerance (the form value cancels when
        err_J << ||h_J||_J), the search continues from there on measured values
        with the forms' slope (a sum of non-positive terms, it does not cancel).
        Every tolerance is relative to size = max(M, ||h_J||_J).
        """
        feas, c0, e_lo = self._m_free()
        size = max(m, math.sqrt(self._h_j_sq))
        if feas > m + 1e-9 * size:
            raise InfeasibleProblemError(f"M = {m:.6g} below feasibility distance {feas:.6g}")
        if e_lo <= m:
            return LsqSolution(c0.copy(), 0.0, feas, 0, False, e_lo)

        evals = [(0.0, e_lo)]
        mu, _, iterations = _newton(self._form_err, m, _MU_START, evals, feas, size)
        c, e_mu = self._measure(self._secular(mu)[0])
        evals.append((mu, e_mu))
        if abs(e_mu - m) > _STOP_TOL * size:
            logger.debug("err_J from the forms missed M on the grid by %.3e", abs(e_mu - m))
            last = [mu, c, e_mu]  # the last point measured, first the end point

            def grid_err(x: float) -> tuple[float, float]:
                if x != last[0]:
                    last[:] = x, *self._measure(self._secular(x)[0])
                return last[2], self._form_err(x)[1]

            mu, e_mu, more = _newton(grid_err, m, mu, evals, feas, size)
            iterations += more
            mu, c, e_mu = last  # the search's last point, with its coefficients
        _check_saturated(evals, m, mu, e_mu, size)
        return LsqSolution(c, mu, feas, iterations, True, e_mu)


class ConstrainedLSQ(_FormCore):
    """min err_K(c) subject to err_J(c) <= M over combinations c of basis elements.

    err_S(c)^2 = sum_S w_S |synthesize(c) - h_S|^2 on the grid nodes, summed
    over the rings that carry weight on S (w_S, h_S grid-shaped).  The core
    takes a basis and the weights and data of both sides, and asks the
    basis for the eigendecomposition of its full-disc Gram form
    (_full_form), the J-form A_J (_form(w_J)) and the synthesis of a block of
    rings (_synthesis); A_K = A_full - A_J.  Each side (_side, on the rings
    its region's kept ring facts name, or one scan of its weights without a
    region) is a _RingSide, which takes its data spectrum once here and
    measures err_S by Parseval on its rings and gives its moments (and a J
    side its diagonal A_J) from that spectrum, or a _GridSide, measured at
    its nodes one ring block at a time, whose moments the basis gives
    (_moments).  Zero data take no transform: a _RingSide keeps a zero
    spectrum, a _GridSide zero moments in A_J's dtype.  Every err is
    measured from the coefficients (err), and the core keeps no grid
    values; only a _GridSide synthesizes, and only its own rings.  The BEP's
    basis is _PolarBasis, the f-BEP's a VekuaBasis, whatever its
    representation.  The whitening W (FullForm.whitening) drops the directions
    below _DROP_RCOND of the full-disc form's top eigenvalue, and the
    eigenvectors q of W^H A_J W (the identity when that form is diagonal) make
    whiten = W q, under which the J-form is diag(tau) and the K-form diag(1 - tau).

    The J part, A_J and its decomposition (a _JRecord), depends on the basis
    and w_J alone.  Given its J region and a basis that names its records by
    values (_record_id: the degree of e_0..e_N; f's kind, eps and the degree
    of closed-form lifts), the core keeps its record and its leading core's on
    the region (_record), so a repeat solve on the same J, grid and basis
    reads them; otherwise (no region, or lifts given by their samples) it
    builds its record every time and keeps nothing.  Each side given its
    region (from_problem gives both) reads the region's kept ring facts.
    """

    def __init__(self, basis, w_k, w_j, h_k, h_j, j_region=None, k_region=None):
        super().__init__(basis, j_region, basis._full_form)
        self._sides = {"k": _side(basis, w_k, h_k, k_region),
                       "j": _side(basis, w_j, h_j, j_region)}
        j = self._sides["j"]
        record = self._record("j_record", self.full.vals.size, lambda: _j_record(
            self.full, j.form() if isinstance(j, _RingSide) else basis._form(w_j)))
        self.r_k, self.r_j = (
            side.moments() if isinstance(side, _RingSide)
            else basis._moments(w, h) if np.any(h)
            else np.zeros(len(record.a_j), record.a_j.dtype)
            for side, w, h in ((self._sides["k"], w_k, h_k), (self._sides["j"], w_j, h_j))
        )
        self._adopt(record)

    @classmethod
    def from_problem(cls, problem, basis=None) -> "ConstrainedLSQ":
        """The BEP over e_0..e_N (basis None) or the real f-BEP over the lifts of a
        VekuaBasis, given the problem's J region to keep the J records on; a basis on
        another grid than the problem's raises GridMismatchError."""
        grid = problem.grid
        if basis is None:
            basis = _PolarBasis(grid, problem.degree)
        elif basis.grid is not grid:
            raise GridMismatchError("basis and problem live on different grids")
        k, j = problem.k_region, problem.j_region
        return cls(basis, k.weights(grid), j.weights(grid), problem.h_k.values,
                   problem.h_j.values, j, k)

    @cached_property
    def _h_j_sq(self) -> float:
        """||h_J||_J^2 on the grid, computed once and shared with the leading cores."""
        return float(self._sides["j"].h_sq())

    def err(self, c: np.ndarray, side: str) -> float:
        """err_K or err_J of c on the grid, from the coefficients: by Parseval on the
        rings of a _RingSide, at the nodes of a _GridSide, ring block by ring block."""
        return float(np.sqrt(self._sides[side].err_sq(c)))

    def _measure(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """c = W y and its err_J on the grid."""
        c = self.whiten @ y
        return c, self.err(c, "j")


def _newton(err_slope, m: float, mu: float, evals: list, feas: float, size: float):
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
    reach = mu * 2.0**_MAX_EXPANSIONS
    lo, hi = 0.0, np.inf
    expansions = 0
    for iterations in range(1, _MAX_BISECTIONS + 1):
        e_mu, slope = err_slope(mu)
        evals.append((mu, e_mu))
        collapsed = hi < np.inf and hi - lo <= 4.0 * np.finfo(float).eps * hi
        if abs(e_mu - m) <= _STOP_TOL * size or collapsed:
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
                _check_monotone(evals, size)
                raise ConvergenceError(
                    f"bracket expansion exhausted: e(mu = {lo:.3g}) = {e_mu:.9g} > "
                    f"M = {m:.9g} (feasibility distance {feas:.9g})"
                )
            mu = min(mu, reach)
    return mu, e_mu, iterations


def _bisect(err, m: float, lo: float, hi: float, evals: list, feas: float, size: float):
    """Bracketed bisection of err(mu) = M on [lo, hi], given err(lo) > M: the oracle's search.

    hi doubles until err(hi) <= M, then the bracket halves until
    |err - M| <= _STOP_TOL size (size = max(M, ||h_J||_J)) or it collapses to
    a few ulps of hi (a relative floor: a root far below 1 is still resolved).
    Every evaluation is appended to evals.  Returns mu, err(mu) and the steps.
    """
    hi = float(hi)
    e_hi = err(hi)
    evals.append((hi, e_hi))
    expansions = 0
    while e_hi > m:
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            _check_monotone(evals, size)
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
        if abs(e_mu - m) <= _STOP_TOL * size or hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break
        lo, hi = (mu, hi) if e_mu > m else (lo, mu)
    return mu, e_mu, iterations


def _check_saturated(evals: list, m: float, mu: float, e_mu: float, size: float) -> None:
    _check_monotone(evals, size)
    if abs(e_mu - m) > 1e-8 * size:
        raise ConvergenceError(
            f"multiplier search stalled: |e(mu) - M| = {abs(e_mu - m):.3e} at mu = {mu:.6g}"
        )


def _check_monotone(evals: list[tuple[float, float]], size: float) -> None:
    pts = sorted(evals)
    slack = 1e-9 * size
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
    core = ConstrainedLSQ(_PolarBasis(grid, degree), grid.weights - w_j, w_j, zero, h_j.values,
                          j_region)
    return core.feasibility()


def solve_at_lambda(problem: BepProblem, lam: float) -> AnalyticCoeffs:
    """Solve (I + lambda Gram(J)) c = <h_K v (1+lambda) h_J, e_n> at fixed lambda."""
    return AnalyticCoeffs(ConstrainedLSQ.from_problem(problem).coeffs(_mu(lam)))


def constraint_error(problem: BepProblem, lam: float) -> float:
    """Constraint error e(lambda) = ||g0(lambda) - h_J|| on J."""
    core = ConstrainedLSQ.from_problem(problem)
    return core.err(core.coeffs(_mu(lam)), "j")


def _certificates(result: LsqSolution, err, kkt) -> dict:
    """The fields every BEP and f-BEP solution reports, from a multiplier search with
    err(c, side) and kkt(c, mu) of its forms.  err_K is measured from the
    coefficients, err_J is the search's own, and the KKT residual takes the
    multiplier they solve."""
    c = result.coeffs
    return dict(
        lam=result.lam,
        err_k=err(c, "k"),
        err_j=result.err_j,
        kkt_residual=float(np.linalg.norm(kkt(c, result.mu))),
        iterations=result.iterations,
        feasibility=result.feasibility,
        saturated=result.saturated,
    )


def _bep_solution(result: LsqSolution, err, kkt) -> BepSolution:
    """The BEP solution of a multiplier search: its coefficients and _certificates."""
    return BepSolution(g0=AnalyticCoeffs(result.coeffs), **_certificates(result, err, kkt))


def solve_bep(problem: BepProblem, degree_diagnostic: bool = True) -> BepSolution:
    """Solve the bounded extremal problem by a safeguarded Newton search on the multiplier.

    If the unconstrained K-fit already satisfies the constraint it is
    returned with lambda at the lower bracket; otherwise the search
    starts at lambda = 1 on the bracket (-1, inf) and runs until the
    constraint saturates (ConstrainedLSQ.solve).  With degree_diagnostic
    the problem is re-solved at degree N - 4 on the leading blocks of the
    same forms and the coefficient gap stored as a truncation-convergence
    indicator; it stays None when M is below the degree N - 4 feasibility
    distance or that re-solve does not converge.  The re-solve measures its
    feasibility, mu = 0 test and end point on the forms alone, with no grid
    synthesis: where they cancel (err_J << ||h_J||_J) the gap can move at
    rounding level, or be None within rounding of that feasibility distance.
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
    the quadrature of dense basis samples, summed over blocks of rings
    (bergman._basis_forms), so no sample matrix of the whole grid is held;
    each lambda takes one dense linear solve in place of the core's diagonal
    solve, lambda is bisected (_bisect) from just above -1 with err_J
    evaluated at every step on the node values (radial * c) @ angular^T,
    and the feasibility distance is the error of the pseudo-inverse J-fit.
    Its tolerances are the core's.  Its memory is O(block + n_nodes): a
    ring block and a few arrays the size of the grid.
    """
    grid = problem.grid
    sides = {
        "k": (problem.k_region.weights(grid), problem.h_k.values),
        "j": (problem.j_region.weights(grid), problem.h_j.values),
    }
    radial, angular = _ring_factors(grid, problem.degree)
    (a_k, r_k), (a_j, r_j) = _basis_forms(radial, angular, sides.values())
    eye = np.eye(problem.degree + 1)

    def synthesize(c: np.ndarray) -> np.ndarray:
        return (radial * c) @ angular.T

    def err(c: np.ndarray, side: str) -> float:
        w, h = sides[side]
        return float(np.sqrt(np.sum(w * np.abs(synthesize(c) - h) ** 2)))

    def kkt(c: np.ndarray, mu: float) -> np.ndarray:
        return (a_k @ c - r_k) + mu * (a_j @ c - r_j)

    def operator_solve(mu: float) -> np.ndarray:
        return np.linalg.solve(eye + (mu - 1.0) * a_j, r_k + mu * r_j)

    w_j, h_j = sides["j"]
    size = max(problem.m, float(np.sqrt(np.sum(w_j * np.abs(h_j) ** 2))))  # as the core's
    feas = err(np.linalg.pinv(a_j, rcond=1e-12, hermitian=True) @ r_j, "j")
    if feas > problem.m + 1e-9 * size:
        raise InfeasibleProblemError(
            f"M = {problem.m:.6g} below feasibility distance {feas:.6g}"
        )
    mu_lo = 1.0 + _LAMBDA_FLOOR
    c = operator_solve(mu_lo)
    e_lo = err(c, "j")
    if e_lo <= problem.m:
        return _bep_solution(LsqSolution(c, mu_lo, feas, 0, False, e_lo), err, kkt)
    evals = [(mu_lo, e_lo)]
    mu, e_mu, iterations = _bisect(
        lambda mu: err(operator_solve(mu), "j"), problem.m, mu_lo, 2.0, evals, feas, size
    )
    _check_saturated(evals, problem.m, mu, e_mu, size)
    c = operator_solve(mu)  # e_mu is err_J of these coefficients
    return _bep_solution(LsqSolution(c, mu, feas, iterations, True, e_mu), err, kkt)
