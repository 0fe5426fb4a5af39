"""Generalized-analytic (Vekua) machinery on the disc.

The main Vekua equation dbar(w) = alpha * conj(w), alpha = dbar(f)/f for
a non-vanishing real conductivity f, is handled through the Teodorescu
transform T[g](z) = integral of g(zeta)/(z - zeta) dA(zeta), a right
inverse of dbar.  Membership of w in the Bergman-Vekua space is checked
through the analytic part u = w - T[alpha conj(w)], analytic seeds are
lifted into the space by the fixed-point iteration w = seed +
T[alpha conj(w)], and the real/imaginary parts of solutions are
diagnosed against their divergence-form conductivity equations and the
conjugate Beltrami equation.

Derivatives on the tensor grid use spectral (trigonometric) angular
differentiation and five-point finite differences on the nonuniform
radial rings.  The Teodorescu transform is evaluated per angular mode:
the Cauchy kernel sends input mode k+1 to output mode k with radial
weight

    T_k(r) = 2 r^k  int_0^r g_{k+1}(rho) rho^{-k} d rho    (k <= -1)
    T_k(r) = -2 r^k int_r^1 g_{k+1}(rho) rho^{-k} d rho    (k >= 0)

and the one-sided radial integrals are accumulated over the inter-node
panels in s = rho^2 with locally interpolated integrands, the steep
power factors evaluated exactly in scaled form so that no intermediate
over- or underflows.  The transform of a constant reproduces conj(z)
to rounding.

A reproducing identity for Vekua solutions can be written through the
similarity factor, w(z) = <w, exp(conj(s(z) - s(.))) K(z, .)>, but the
factor s depends on w itself, so it is not constructive and no
operation implements it.
"""

from __future__ import annotations

import logging
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .bergman import AnalyticCoeffs, project
from .grid import DiscGrid, GridFunction, Region, inner_product

logger = logging.getLogger("bergbep")

_N_AUX = 10
_N_STENCIL = 8


class LiftDivergenceError(RuntimeError):
    """The Neumann iteration for a Vekua lift diverged."""


def _fd_weights(x0: float, x: np.ndarray, m: int) -> np.ndarray:
    """Fornberg weights for derivatives 0..m at x0 from the nodes x."""
    n = x.size
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def _fourier_diff_matrix(n: int) -> np.ndarray:
    j = np.arange(n)
    diff = j[:, None] - j[None, :]
    d = np.zeros((n, n))
    off = diff != 0
    if n % 2 == 0:
        d[off] = 0.5 * (-1.0) ** diff[off] / np.tan(np.pi * diff[off] / n)
    else:
        d[off] = 0.5 * (-1.0) ** diff[off] / np.sin(np.pi * diff[off] / n)
    return d


def _radial_diff_matrices(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First/second derivative matrices, 5-point stencils, one-sided at the edges."""
    n = r.size
    width = min(5, n)
    d1 = np.zeros((n, n))
    d2 = np.zeros((n, n))
    for i in range(n):
        start = min(max(i - 2, 0), n - width)
        sten = slice(start, start + width)
        w = _fd_weights(r[i], r[sten], 2)
        d1[i, sten] = w[:, 1]
        d2[i, sten] = w[:, 2]
    return d1, d2


class _GridOps:
    """Differentiation and Teodorescu machinery cached per grid."""

    def __init__(self, grid: DiscGrid):
        self.grid = grid
        self.dtheta = _fourier_diff_matrix(grid.angular_count)
        self.phase = np.exp(1j * grid.thetas)[None, :]
        self.inv_r = (1.0 / grid.radial_nodes)[:, None]
        self._dr = None
        self._teo = None

    @property
    def dr1(self) -> np.ndarray:
        return self._radial()[0]

    @property
    def dr2(self) -> np.ndarray:
        return self._radial()[1]

    def _radial(self) -> tuple[np.ndarray, np.ndarray]:
        # only differentiation needs the 5-point radial stencils; the
        # Teodorescu transform works on any grid
        if self._dr is None:
            if self.grid.n_radial < 5:
                raise ValueError("grid too coarse for radial differentiation (need n_r >= 5)")
            self._dr = _radial_diff_matrices(self.grid.radial_nodes)
        return self._dr

    @property
    def teo(self) -> "_TeodorescuOperator":
        if self._teo is None:
            self._teo = _TeodorescuOperator(self.grid)
        return self._teo


_ops_cache: "weakref.WeakKeyDictionary[DiscGrid, _GridOps]" = weakref.WeakKeyDictionary()


def _ops(grid: DiscGrid) -> _GridOps:
    ops = _ops_cache.get(grid)
    if ops is None:
        ops = _GridOps(grid)
        _ops_cache[grid] = ops
    return ops


def dbar(g: GridFunction) -> GridFunction:
    """Wirtinger derivative dbar = (d/dx + i d/dy) / 2 on the grid.

    In polar form dbar = (e^{i theta}/2)(d_r + (i/r) d_theta); exact to
    rounding for polynomials in z, conj(z) of radial degree <= 4.
    """
    ops = _ops(g.grid)
    v_r = ops.dr1 @ g.values
    v_t = g.values @ ops.dtheta.T
    return GridFunction(g.grid, 0.5 * ops.phase * (v_r + 1j * ops.inv_r * v_t))


def dz(g: GridFunction) -> GridFunction:
    """Wirtinger derivative d = (d/dx - i d/dy) / 2 on the grid."""
    ops = _ops(g.grid)
    v_r = ops.dr1 @ g.values
    v_t = g.values @ ops.dtheta.T
    return GridFunction(g.grid, 0.5 * np.conj(ops.phase) * (v_r - 1j * ops.inv_r * v_t))


def _polar_second_derivatives(ops: _GridOps, v: np.ndarray):
    v_r = ops.dr1 @ v
    v_rr = ops.dr2 @ v
    v_t = v @ ops.dtheta.T
    v_tt = v_t @ ops.dtheta.T
    return v_r, v_rr, v_t, v_tt


class _TeodorescuOperator:
    """Per-grid discrete Teodorescu transform in angular-mode space."""

    def __init__(self, grid: DiscGrid):
        self.grid = grid
        n_r, n_t = grid.shape
        self.ks = ((np.arange(n_t) + n_t // 2) % n_t) - n_t // 2  # fft ordering
        th = grid.thetas
        self.analysis = np.exp(-1j * np.outer(self.ks, th)) / n_t  # (modes, n_t)
        self.k_out = self.ks - 1
        self.synthesis = np.exp(1j * np.outer(th, self.k_out))  # (n_t, modes)
        self.inner_modes = np.nonzero(self.ks <= 0)[0]
        self.outer_modes = np.nonzero(self.ks >= 1)[0]
        # mode k of a smooth function is r^|k| times an even function, so
        # odd modes carry a sqrt(s) factor that polynomial interpolation
        # in s cannot resolve; they are reduced by one power of r at the
        # nodes and the factor is restored exactly at the aux points
        self.parity = (np.abs(self.ks) % 2).astype(float)

        s = grid.s_nodes
        edges = np.concatenate(([0.0], s, [1.0]))  # panel l spans [edges_l, edges_{l+1}]
        n_panels = n_r + 1
        x, w = np.polynomial.legendre.leggauss(_N_AUX)
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        self.aux_s = mid[:, None] + half[:, None] * x[None, :]  # (panels, aux)
        self.aux_w = half[:, None] * w[None, :]
        self.log_aux_r = 0.5 * np.log(self.aux_s)
        self.log_r = np.log(grid.radial_nodes)

        n_st = min(_N_STENCIL, n_r)
        self.idx = np.empty((n_panels, n_st), dtype=int)
        self.interp = np.empty((n_panels, _N_AUX, n_st))
        for ell in range(n_panels):
            start = min(max(ell - n_st // 2, 0), n_r - n_st)
            cols = np.arange(start, start + n_st)
            self.idx[ell] = cols
            nodes = s[cols]
            bw = np.ones(n_st)
            for t in range(n_st):
                bw[t] = 1.0 / np.prod(np.delete(nodes, t) - nodes[t])
            diffs = self.aux_s[ell][:, None] - nodes[None, :]  # aux strictly inside panels
            terms = bw[None, :] / diffs
            self.interp[ell] = terms / terms.sum(axis=1)[:, None]

    def _panel_values(self, modes: np.ndarray) -> np.ndarray:
        """Interpolate per-mode radial data onto the panel aux nodes."""
        gathered = modes[:, self.idx]  # (n_modes, panels, n_st)
        return np.einsum("lqt,mlt->mlq", self.interp, gathered)

    def apply(self, values: np.ndarray) -> np.ndarray:
        grid = self.grid
        n_r = grid.n_radial
        r = grid.radial_nodes
        modes = self.analysis @ values.T  # (modes, n_r): g_k(r_i)
        reduced = np.where(self.parity[:, None] > 0.0, modes / r[None, :], modes)
        aux = self._panel_values(reduced)  # (modes, panels, aux)
        t_modes = np.zeros((self.ks.size, n_r), dtype=complex)

        # inner contributions: output mode k = k_in - 1 <= -1, p = -k >= 1
        mi = self.inner_modes
        p = 1.0 - self.ks[mi]  # p = -k_out
        par = self.parity[mi]
        cur = np.zeros(mi.size, dtype=complex)
        prev_log_r = None
        for i in range(n_r):
            if prev_log_r is not None:
                cur = cur * np.exp(p * (prev_log_r - self.log_r[i]))
            powfac = np.exp(
                (p - 1.0)[:, None] * (self.log_aux_r[i] - self.log_r[i])[None, :]
                + par[:, None] * self.log_aux_r[i][None, :]
            )
            cur = cur + np.einsum("mq,q,mq->m", aux[mi, i, :], self.aux_w[i], powfac) / r[i]
            prev_log_r = self.log_r[i]
            t_modes[mi, i] = cur

        # outer contributions: output mode k = k_in - 1 >= 0
        mo = self.outer_modes
        k = self.ks[mo] - 1.0
        par = self.parity[mo]
        cur = np.zeros(mo.size, dtype=complex)
        prev_log_r = None
        for i in range(n_r - 1, -1, -1):
            if prev_log_r is not None:
                cur = cur * np.exp(k * (self.log_r[i] - prev_log_r))
            powfac = np.exp(
                k[:, None] * (self.log_r[i] - self.log_aux_r[i + 1])[None, :]
                + (par - 1.0)[:, None] * self.log_aux_r[i + 1][None, :]
            )
            cur = cur + np.einsum("mq,q,mq->m", aux[mo, i + 1, :], self.aux_w[i + 1], powfac)
            prev_log_r = self.log_r[i]
            t_modes[mo, i] = -cur

        return (self.synthesis @ t_modes).T


def teodorescu(g: GridFunction) -> GridFunction:
    """Teodorescu transform T[g](z) = int g(zeta) / (z - zeta) dA(zeta).

    Evaluated at every grid node; a right inverse of dbar, and T[1]
    equals conj(z) to rounding.
    """
    return GridFunction(g.grid, _ops(g.grid).teo.apply(g.values))


@dataclass(eq=False)
class Conductivity:
    """Non-vanishing real conductivity f with 1/k <= |f| <= k on the disc.

    Closed-form kinds carry their alpha = dbar(f)/f exactly:
    "exp_x" is f = exp(eps x) with alpha = eps/2, "exp_xy" is
    f = exp(eps x y) with alpha = eps (y + i x)/2, "const" has alpha = 0.
    Grid-only conductivities differentiate f numerically.
    """

    values: GridFunction
    k_bound: float
    kind: str = "grid"
    eps: float = 0.0

    def __post_init__(self):
        v = self.values.values
        if np.max(np.abs(v.imag)) > 1e-12 * max(1.0, np.max(np.abs(v.real))):
            raise ValueError("conductivity must be real-valued")
        if self.k_bound < 1.0:
            raise ValueError(f"conductivity bound k must be >= 1, got {self.k_bound}")
        mag = np.abs(v.real)
        if mag.min() < 1.0 / self.k_bound - 1e-12 or mag.max() > self.k_bound + 1e-12:
            raise ValueError("conductivity violates 1/k <= |f| <= k on the grid")

    @property
    def grid(self) -> DiscGrid:
        return self.values.grid

    @classmethod
    def constant(cls, grid: DiscGrid, value: float = 1.0) -> "Conductivity":
        return cls(
            GridFunction.constant(grid, value),
            k_bound=max(abs(value), 1.0 / abs(value)),
            kind="const",
        )

    @classmethod
    def exp_x(cls, grid: DiscGrid, eps: float) -> "Conductivity":
        vals = np.exp(eps * grid.nodes.real)
        return cls(GridFunction(grid, vals), k_bound=np.exp(abs(eps)), kind="exp_x", eps=eps)

    @classmethod
    def exp_xy(cls, grid: DiscGrid, eps: float) -> "Conductivity":
        z = grid.nodes
        vals = np.exp(eps * z.real * z.imag)
        return cls(
            GridFunction(grid, vals), k_bound=np.exp(abs(eps) / 2.0), kind="exp_xy", eps=eps
        )

    @classmethod
    def from_grid(cls, values: GridFunction, k_bound: float) -> "Conductivity":
        return cls(values, k_bound=k_bound, kind="grid")


def alpha_from_f(f: Conductivity) -> GridFunction:
    """Vekua coefficient alpha = dbar(f) / f, exact for closed-form kinds."""
    grid = f.grid
    if np.min(np.abs(f.values.values)) < 1.0 / f.k_bound - 1e-12:
        raise ValueError("conductivity magnitude fell below its declared lower bound")
    if f.kind == "const":
        return GridFunction.constant(grid, 0.0)
    if f.kind == "exp_x":
        return GridFunction.constant(grid, f.eps / 2.0)
    if f.kind == "exp_xy":
        z = grid.nodes
        return GridFunction(grid, f.eps * (z.imag + 1j * z.real) / 2.0)
    df = dbar(f.values)
    return GridFunction(grid, df.values / f.values.values)


def vekua_residual(w: GridFunction, alpha: GridFunction, degree: int) -> float:
    """Distance of w - T[alpha conj(w)] from the degree-N analytic span.

    Near zero iff w solves the Vekua equation for this alpha (the
    analytic part then lies in A^2, up to the basis truncation).
    """
    w._check_same_grid(alpha)
    u = w - teodorescu(alpha * w.conj())
    return (u - project(u, degree).on_grid(w.grid)).norm()


@dataclass(eq=False)
class VekuaFunction:
    """Grid solution of the Vekua equation together with its defect."""

    w: GridFunction
    alpha: GridFunction
    residual: float
    converged: bool = True
    iterations: int = 0
    increments: list = field(default_factory=list)

    @property
    def grid(self) -> DiscGrid:
        return self.w.grid


def vekua_lift(
    seed: AnalyticCoeffs,
    alpha: GridFunction,
    tol: float = 1e-9,
    max_iter: int = 60,
) -> VekuaFunction:
    """Lift an analytic seed into the Vekua space of alpha.

    Iterates w <- seed + T[alpha conj(w)] from w = seed.  Converges
    geometrically when T composed with multiplication by alpha is a
    contraction; three consecutive increment growths raise
    LiftDivergenceError, and hitting max_iter returns the last iterate
    flagged as non-converged.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    grid = alpha.grid
    seed_vals = seed.on_grid(grid)
    w = seed_vals
    increments: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w_next = seed_vals + teodorescu(alpha * w.conj())
        inc = (w_next - w).norm()
        increments.append(inc)
        w = w_next
        if inc <= tol:
            converged = True
            break
        if len(increments) >= 4 and all(
            increments[-j] > increments[-j - 1] for j in (1, 2, 3)
        ):
            raise LiftDivergenceError(
                f"lift iteration diverging, increments {increments[-4:]}"
            )
    res = vekua_residual(w, alpha, seed.degree)
    if not converged:
        logger.warning("vekua_lift hit max_iter=%d (last increment %.3e)", max_iter, inc)
    return VekuaFunction(
        w=w,
        alpha=alpha,
        residual=res,
        converged=converged,
        iterations=iterations,
        increments=increments,
    )


def similarity_factor(w: VekuaFunction) -> GridFunction:
    """Logarithmic factor s with w = e^s F, F analytic.

    Constructed as s = T[alpha conj(w)/w], which solves
    dbar(s) = alpha conj(w)/w; the construction satisfies
    ||s||_inf <= 4 ||alpha||_inf, and a violation is reported.
    """
    vals = w.w.values
    scale = np.max(np.abs(vals))
    if scale == 0.0 or np.min(np.abs(vals)) < 1e-13 * scale:
        raise ValueError("w vanishes at a grid node; similarity factor undefined")
    ratio = GridFunction(w.grid, w.alpha.values * np.conj(vals) / vals)
    s = teodorescu(ratio)
    s_inf = np.max(np.abs(s.values))
    alpha_inf = np.max(np.abs(w.alpha.values))
    if s_inf > 4.0 * alpha_inf + 1e-8:
        warnings.warn(
            f"similarity factor bound violated: ||s||_inf = {s_inf:.3e} "
            f"> 4 ||alpha||_inf = {4.0 * alpha_inf:.3e}",
            RuntimeWarning,
        )
    return s


def pf_restricted(w: VekuaFunction, degree: int) -> GridFunction:
    """Bergman-Vekua projection restricted to the space, P w + (I-P) T[alpha conj(w)].

    Valid as the orthogonal projection only on Vekua solutions; for
    those it reproduces w up to truncation.
    """
    grid = w.grid
    t = teodorescu(w.alpha * w.w.conj())
    pw = project(w.w, degree).on_grid(grid)
    pt = project(t, degree).on_grid(grid)
    return pw + (t - pt)


def _interior_mask(grid: DiscGrid) -> np.ndarray:
    h = 1.0 / grid.n_radial
    mask = grid.radial_nodes <= 1.0 - 2.0 * h
    if not np.any(mask):
        raise ValueError("grid too coarse: no interior rings below 1 - 2h")
    return np.repeat(mask[:, None], grid.angular_count, axis=1)


def _interior_norm(grid: DiscGrid, values: np.ndarray, mask: np.ndarray) -> float:
    return float(np.sqrt(np.sum(grid.weights[mask] * np.abs(values[mask]) ** 2)))


def _divergence_form_residual(
    grid: DiscGrid, sigma: np.ndarray, u: np.ndarray, mask: np.ndarray
) -> float:
    """Relative residual of div(sigma grad u) = 0 on the interior nodes."""
    ops = _ops(grid)
    u_r, u_rr, u_t, u_tt = _polar_second_derivatives(ops, u)
    s_r = ops.dr1 @ sigma
    s_t = sigma @ ops.dtheta.T
    inv_r = ops.inv_r
    terms = [
        sigma * u_rr,
        sigma * inv_r * u_r,
        sigma * inv_r**2 * u_tt,
        s_r * u_r,
        s_t * inv_r**2 * u_t,
    ]
    num = _interior_norm(grid, sum(terms), mask)
    # the zeroth-order anchor keeps the ratio ~0 when u is constant and
    # every derivative term is pure rounding noise
    den = sum(_interior_norm(grid, t, mask) for t in terms)
    den += _interior_norm(grid, sigma * u, mask)
    return num / den if den > 0.0 else 0.0


def metaharmonic_residuals(w: VekuaFunction, f: Conductivity) -> tuple[float, float]:
    """Relative residuals of the two conductivity equations solved by w.

    w = w0 + i w1 in the Vekua space of f makes w0/f and f w1 weak
    solutions of div(f^2 grad(w0/f)) = 0 and div(f^-2 grad(f w1)) = 0;
    both are discretized in strong form on the interior nodes.
    """
    grid = w.grid
    if f.grid is not grid:
        raise ValueError("conductivity and Vekua function use different grids")
    mask = _interior_mask(grid)
    fv = f.values.values.real
    res0 = _divergence_form_residual(grid, fv**2, w.w.values.real / fv, mask)
    res1 = _divergence_form_residual(grid, fv**-2.0, fv * w.w.values.imag, mask)
    return res0, res1


def beltrami_residual(w: VekuaFunction, f: Conductivity) -> float:
    """Relative residual of the conjugate Beltrami equation for G = w0/f + i f w1.

    G satisfies dbar(G) = nu conj(d G) with nu = (1 - f^2)/(1 + f^2).
    """
    grid = w.grid
    if f.grid is not grid:
        raise ValueError("conductivity and Vekua function use different grids")
    mask = _interior_mask(grid)
    fv = f.values.values.real
    g = GridFunction(grid, w.w.values.real / fv + 1j * fv * w.w.values.imag)
    nu = (1.0 - fv**2) / (1.0 + fv**2)
    dbar_g = dbar(g).values
    dz_g = dz(g).values
    num = _interior_norm(grid, dbar_g - nu * np.conj(dz_g), mask)
    den = (
        _interior_norm(grid, dbar_g, mask)
        + _interior_norm(grid, dz_g, mask)
        + _interior_norm(grid, g.values, mask)
    )
    return num / den if den > 0.0 else 0.0


def laplacian_residual(g: GridFunction) -> float:
    """Relative strong-form Laplace residual on the interior nodes."""
    grid = g.grid
    mask = _interior_mask(grid)
    return _divergence_form_residual(grid, np.ones(grid.shape), g.values, mask)


@dataclass(eq=False)
class VekuaBasis:
    """Real-linear spanning family of Vekua functions (lifted e_n and i e_n)."""

    alpha: GridFunction
    elements: list[VekuaFunction]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("basis needs at least one element")
        self._matrix = np.column_stack([e.w.values.ravel() for e in self.elements])

    @property
    def grid(self) -> DiscGrid:
        return self.alpha.grid

    @property
    def size(self) -> int:
        return len(self.elements)

    def values_matrix(self) -> np.ndarray:
        """Element samples as columns, shape (n_nodes, n_elements)."""
        return self._matrix

    def real_gram(self, region: Region | None = None) -> np.ndarray:
        """Real Gram matrix Re <w_m, w_n> over the disc or a region."""
        w = self.grid.weights if region is None else region.weights(self.grid)
        g = (self._matrix.conj().T @ (w.ravel()[:, None] * self._matrix)).real
        return (g + g.T) / 2.0

    def real_rhs(self, h: GridFunction, region: Region | None = None) -> np.ndarray:
        """Vector Re <h, w_m> over the disc or a region."""
        w = self.grid.weights if region is None else region.weights(self.grid)
        return (self._matrix.conj().T @ (w.ravel() * h.values.ravel())).real

    def synthesize(self, coeffs: np.ndarray) -> GridFunction:
        vals = (self._matrix @ np.asarray(coeffs, dtype=float)).reshape(self.grid.shape)
        return GridFunction(self.grid, vals)

    def project_span(self, h: GridFunction, rcond: float = 1e-12) -> np.ndarray:
        """Real coefficients of the span projection of h (pinv-regularized)."""
        gram = self.real_gram()
        vals, vecs = np.linalg.eigh(gram)
        keep = vals > rcond * vals.max()
        rhs = vecs.T @ self.real_rhs(h)
        sol = np.zeros_like(rhs)
        sol[keep] = rhs[keep] / vals[keep]
        return vecs @ sol

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.real_gram())[0])


def invariance_defect(basis: VekuaBasis, g_coeffs: np.ndarray, h: GridFunction) -> float:
    """Defect of Re<g, h> = Re<g, Pi h> for g in the span, Pi the span projection."""
    g = basis.synthesize(g_coeffs)
    pi_h = basis.synthesize(basis.project_span(h))
    return abs(inner_product(g, h).real - inner_product(g, pi_h).real)
