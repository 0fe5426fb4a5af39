"""Quadrature grids, regions, and inner products on the unit disc.

All integrals are taken against the normalized area measure
dA = dx dy / pi, so the disc has total mass 1.  The quadrature is a
tensor product of a Gauss-Legendre rule in s = r^2 on (0, 1) with a
uniform (trapezoid) rule in the angle; with n_r radial rings and
n_theta angles, every monomial z^m conj(z)^n with m + n up to the
grid's exactness degree integrates exactly to delta_{mn} / (n + 1).

Regions (radial discs, annuli, angular sectors, node masks) resolve on
a grid in two ways: a node-wise indicator (a node belongs to the region
iff its center satisfies the defining inequality), and the overlap
fraction of each node's quadrature cell with the region.  Region
weights are the grid weights times that fraction, so the radial cell
or angular arc straddling the region boundary is weighted by its
overlap.  The overlap weighting makes region areas exact: the weights
of RadialDisc(a) sum to a^2 and those of Sector(theta) to theta/pi, to
rounding.  Every cell off the boundary has fraction exactly 0 or 1; a
boundary within a few ulps of a cell edge is snapped onto the edge,
since the edges themselves carry rounding of that size.

A grid also holds its operators, each built on first use and freed with
the grid.  Derivatives use spectral (trigonometric) angular
differentiation by fft and five-point finite differences on the
nonuniform radial rings.  The Teodorescu transform
T[g](z) = int g(zeta)/(z - zeta) dA(zeta), a right inverse of dbar, is
evaluated per angular mode: the Cauchy kernel sends input mode k+1 to
output mode k with radial weight

    T_k(r) = 2 r^k  int_0^r g_{k+1}(rho) rho^{-k} d rho    (k <= -1)
    T_k(r) = -2 r^k int_r^1 g_{k+1}(rho) rho^{-k} d rho    (k >= 0)

The one-sided radial integrals are sums over the inter-node panels in
s = rho^2 of locally interpolated integrands, with the steep power
factors evaluated in scaled form (every exponent <= 0) so that nothing
over- or underflows.  They are linear in the ring samples of the input
mode, so each grid assembles them once as one real n_r x n_r matrix per
angular mode; an apply to any stack of grid functions is an fft along
theta, one batched matmul over the modes and an inverse fft.  The
transform of a constant reproduces conj(z) to rounding.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np


class GridMismatchError(ValueError):
    """Two grid functions (or a function and a region) use different grids."""


def _gauss_legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (0, 1); weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True, eq=False)
class DiscGrid:
    """Tensor-product quadrature grid on the unit disc.

    radial_nodes holds the ring radii r_i = sqrt(s_i) where s_i are
    Gauss-Legendre nodes in s = r^2; radial_weights are the matching
    Gauss-Legendre weights (they live in the s variable and sum to 1).
    Angles are theta_j = 2 pi j / angular_count with uniform weight.
    Derived tables and operators are cached properties, built on first
    use and freed with the grid.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_count: int
    exactness_degree: int

    @property
    def n_radial(self) -> int:
        return self.radial_nodes.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_radial, self.angular_count)

    @cached_property
    def s_nodes(self) -> np.ndarray:
        return self.radial_nodes**2

    @cached_property
    def s_cell_edges(self) -> np.ndarray:
        """Edges of the radial cells in s: cell i carries mass radial_weights[i]."""
        edges = np.concatenate(([0.0], np.cumsum(self.radial_weights)))
        edges[-1] = 1.0
        return edges

    @cached_property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count

    @cached_property
    def nodes(self) -> np.ndarray:
        """Complex node positions, shape (n_radial, angular_count)."""
        return self.radial_nodes[:, None] * np.exp(1j * self.thetas[None, :])

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights per node for the normalized area measure."""
        return np.repeat(
            self.radial_weights[:, None] / self.angular_count, self.angular_count, axis=1
        )

    @cached_property
    def radial_powers(self) -> np.ndarray:
        """P[i, p] = r_i^p for p = 0..exactness_degree, built on first use.

        Every basis form and synthesis within the grid's exactness reads
        its powers from this one table.
        """
        return self.radial_nodes[:, None] ** np.arange(self.exactness_degree + 1)[None, :]

    @cached_property
    def radial_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """First and second radial derivative matrices on the rings, built on first use.

        Five-point finite-difference stencils, one-sided at the edges;
        only differentiation needs them, the Teodorescu transform works
        on any grid.
        """
        if self.n_radial < 5:
            raise ValueError("grid too coarse for radial differentiation (need n_r >= 5)")
        return _radial_diff_matrices(self.radial_nodes)

    @cached_property
    def angular_wavenumbers(self) -> np.ndarray:
        """i k per angular mode in fft order, the Nyquist mode of an even count zeroed."""
        ik = 1j * _fft_modes(self.angular_count)
        if self.angular_count % 2 == 0:
            ik[self.angular_count // 2] = 0.0  # the Nyquist mode has no real derivative
        return ik

    def dtheta(self, v: np.ndarray) -> np.ndarray:
        """Spectral angular derivative along the last axis."""
        d = np.fft.ifft(self.angular_wavenumbers * np.fft.fft(v, axis=-1), axis=-1)
        return d.real if np.isrealobj(v) else d

    @cached_property
    def teodorescu(self) -> _TeodorescuOperator:
        """The grid's discrete Teodorescu transform, built on first use and freed with the grid."""
        return _TeodorescuOperator(self.radial_nodes, self.thetas)


def build_grid(n_r: int, n_theta: int) -> DiscGrid:
    """Build the polar quadrature grid with n_r rings and n_theta angles.

    Monomials z^m conj(z)^n are integrated exactly for
    m + n <= min(4 n_r - 2, n_theta - 1): the angular rule annihilates
    every mode with 0 < |m - n| < n_theta, and the radial rule is a
    Gauss rule of degree 2 n_r - 1 in s = r^2.
    """
    if n_r < 2:
        raise ValueError(f"n_r must be >= 2, got {n_r}")
    if n_theta < 4:
        raise ValueError(f"n_theta must be >= 4, got {n_theta}")
    s, ws = _gauss_legendre_unit(n_r)
    return DiscGrid(
        radial_nodes=np.sqrt(s),
        radial_weights=ws,
        angular_count=int(n_theta),
        exactness_degree=min(4 * n_r - 2, n_theta - 1),
    )


_N_AUX = 10
_N_STENCIL = 8


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


def _fft_modes(n: int) -> np.ndarray:
    """Angular mode numbers in numpy's fft order; the Nyquist mode of even n is -n/2."""
    return ((np.arange(n) + n // 2) % n) - n // 2


class _TeodorescuOperator:
    """Discrete Teodorescu transform: one real n_r x n_r radial matrix per angular mode.

    matrices[m] maps the samples of input mode k_m on the rings to the
    samples of output mode k_m - 1; apply is an fft along theta, one
    batched matmul over the modes and an inverse fft.
    """

    def __init__(self, radial_nodes: np.ndarray, thetas: np.ndarray):
        r = radial_nodes
        n_r, n_t = r.size, thetas.size
        ks = _fft_modes(n_t)
        k_out = (ks - 1.0)[:, None, None]
        inner = ks <= 0  # output mode k_out <= -1 integrates over [0, r]
        # mode k of a smooth function is r^|k| times an even function, so
        # odd modes carry a sqrt(s) factor that polynomial interpolation
        # in s cannot resolve; they are reduced by one power of r at the
        # nodes and the factor is restored exactly at the aux points
        parity = (np.abs(ks) % 2).astype(float)[:, None, None]

        s = r**2
        edges = np.concatenate(([0.0], s, [1.0]))  # panel l spans [edges_l, edges_{l+1}]
        x, w = np.polynomial.legendre.leggauss(_N_AUX)
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        aux_s = mid[:, None] + half[:, None] * x[None, :]  # (panels, aux)
        aux_w = half[:, None] * w[None, :]
        log_a = 0.5 * np.log(aux_s)
        log_r = np.log(r)

        # barycentric interpolation in s from the _N_STENCIL nearest rings
        # onto each panel's aux points, as a dense (panels, aux, n_r) map
        n_st = min(_N_STENCIL, n_r)
        starts = np.clip(np.arange(n_r + 1) - n_st // 2, 0, n_r - n_st)
        idx = starts[:, None] + np.arange(n_st)[None, :]  # (panels, n_st)
        nodes = s[idx]
        gaps = nodes[:, None, :] - nodes[:, :, None]  # gaps[l, t, j] = s_j - s_t
        gaps[:, np.arange(n_st), np.arange(n_st)] = 1.0
        bw = 1.0 / np.prod(gaps, axis=2)
        # the aux points lie strictly inside the panels, never on a node
        terms = bw[:, None, :] / (aux_s[:, :, None] - nodes[:, None, :])
        interp = np.zeros((n_r + 1, _N_AUX, n_r))
        np.put_along_axis(
            interp, idx[:, None, :], terms / terms.sum(axis=2, keepdims=True), axis=2
        )

        # ring i collects the panels on its side of the Cauchy kernel:
        #   T_k(r_i) = sum_{l <= i} exp(k (log r_i - log r_l)) c_l   (k <= -1)
        #   T_k(r_i) = -sum_{l >= i} exp(k (log r_i - log r_l)) c_l  (k >= 0)
        # where c_l integrates panel l (k <= -1) or l + 1 (k >= 0) scaled
        # to ring l; every exponent is <= 0, so nothing overflows
        lower = np.tri(n_r, dtype=bool)
        gap = log_r[:, None] - log_r[None, :]
        self.matrices = np.empty((n_t, n_r, n_r))
        for modes, panels, keep, sign in (
            (np.nonzero(inner)[0], slice(0, n_r), lower, 1.0),
            (np.nonzero(~inner)[0], slice(1, n_r + 1), lower.T, -1.0),
        ):
            k, par, la = k_out[modes], parity[modes], log_a[panels]
            weights = aux_w[panels] * np.exp(k * (log_r[:, None] - la) + (par - 1.0) * la)
            cells = np.einsum("mlq,lqj->mlj", weights, interp[panels])
            cells /= np.where(par > 0.0, r, 1.0)  # the odd-mode reduction at the nodes
            decay = np.exp(np.where(keep, k * gap, -np.inf))
            self.matrices[modes] = sign * (decay @ cells)
        self.phase = np.exp(-1j * thetas)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """T on grid samples of shape (..., n_r, n_theta), one stack in one pass."""
        n_t, n_r, _ = self.matrices.shape
        lead = values.shape[:-2]
        # modes first and the stack last: one matmul per mode covers the
        # whole stack, and the real matrices act on re and im alike
        cols = np.ascontiguousarray(np.moveaxis(np.fft.fft(values, axis=-1), (-1, -2), (0, 1)))
        out = (self.matrices @ cols.reshape(n_t, n_r, -1).view(float)).view(complex)
        del cols  # stacks can be large: hold at most two copies at a time
        t = np.fft.ifft(np.moveaxis(out.reshape((n_t, n_r) + lead), (0, 1), (-1, -2)), axis=-1)
        t *= self.phase
        return t


@dataclass(eq=False)
class GridFunction:
    """Complex samples of an L^2 disc function at the nodes of a DiscGrid."""

    grid: DiscGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ValueError("grid function values must be finite")
        vals.setflags(write=False)  # immutable after construction
        self.values = vals

    @classmethod
    def from_function(cls, grid: DiscGrid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex))

    @classmethod
    def constant(cls, grid: DiscGrid, value: complex = 1.0) -> "GridFunction":
        return cls(grid, np.full(grid.shape, value, dtype=complex))

    def _check_same_grid(self, other: "GridFunction") -> None:
        if other.grid is not self.grid:
            raise GridMismatchError("grid functions live on different grids")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, other) -> "GridFunction":
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * other)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    def conj(self) -> "GridFunction":
        return GridFunction(self.grid, np.conj(self.values))

    def real_part(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.real.astype(complex))

    def imag_part(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.imag.astype(complex))

    def norm(self, region: "Region | None" = None) -> float:
        """L^2 norm over the disc, or over a region if given."""
        w = self.grid.weights if region is None else region.weights(self.grid)
        return float(np.sqrt(np.sum(w * np.abs(self.values) ** 2).real))


def _overlap(lo: np.ndarray, hi: np.ndarray, a: float, b: float) -> np.ndarray:
    """Lengths of [lo_i, hi_i] inter [a, b], vectorized."""
    return np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)


_SNAP_ULPS = 4


def _cell_fraction(
    overlap: np.ndarray, lo: np.ndarray, hi: np.ndarray, scale: float
) -> np.ndarray:
    """Fraction overlap / (hi - lo) of each cell, exactly 0 or 1 off the boundary.

    A cell wholly inside (outside) gives overlap == hi - lo (== 0) and
    hence fraction exactly 1 (0).  An overlap, or a remainder, of at
    most a few ulps of the coordinate scale is rounding in the cell
    edges, not a genuine overlap, and is snapped to 0 or 1.
    """
    width = hi - lo
    tol = _SNAP_ULPS * np.finfo(float).eps * scale
    frac = np.clip(overlap / width, 0.0, 1.0)
    frac[overlap <= tol] = 0.0
    frac[overlap >= width - tol] = 1.0
    return frac


@dataclass(frozen=True, eq=False)
class Region:
    """Measurable subset of the disc, resolvable on any DiscGrid.

    kind is one of "radial_disc" (|z| < a), "annulus" (a < |z| < 1),
    "sector" (-theta < arg z < theta), "mask" (explicit node booleans)
    or "full".  The complement flag swaps the region with its
    complement in the disc; indicators and quadrature weights of a
    region and its complement always add up to the full-grid ones.

    A region resolves on each grid once: fraction and weights are each
    kept on first use, read-only, per grid, and the grid is held weakly.
    """

    kind: str
    a: float | None = None
    theta: float | None = None
    mask_values: np.ndarray | None = None
    complement_flag: bool = False
    # grid -> {"fraction" or "weights": values}, filled on first use
    _resolved: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )

    @classmethod
    def radial_disc(cls, a: float) -> "Region":
        if not 0.0 < a < 1.0:
            raise ValueError(f"radial disc radius must be in (0,1), got {a}")
        return cls(kind="radial_disc", a=float(a))

    @classmethod
    def annulus(cls, a: float) -> "Region":
        if not 0.0 < a < 1.0:
            raise ValueError(f"annulus inner radius must be in (0,1), got {a}")
        return cls(kind="annulus", a=float(a))

    @classmethod
    def sector(cls, theta: float) -> "Region":
        if not 0.0 < theta < np.pi:
            raise ValueError(f"sector half-angle must be in (0,pi), got {theta}")
        return cls(kind="sector", theta=float(theta))

    @classmethod
    def mask(cls, mask_values: np.ndarray) -> "Region":
        values = np.array(mask_values, dtype=bool)  # a copy: the region is resolved once
        values.setflags(write=False)
        return cls(kind="mask", mask_values=values)

    @classmethod
    def full_disc(cls) -> "Region":
        return cls(kind="full")

    def complement(self) -> "Region":
        return replace(self, complement_flag=not self.complement_flag)

    def _base_indicator(self, grid: DiscGrid) -> np.ndarray:
        n_r, n_t = grid.shape
        if self.kind == "radial_disc":
            return np.repeat((grid.s_nodes < self.a**2)[:, None], n_t, axis=1)
        if self.kind == "annulus":
            return np.repeat((grid.s_nodes > self.a**2)[:, None], n_t, axis=1)
        if self.kind == "sector":
            wrapped = np.mod(grid.thetas + np.pi, 2.0 * np.pi) - np.pi
            return np.repeat((np.abs(wrapped) < self.theta)[None, :], n_r, axis=0)
        if self.kind == "mask":
            if self.mask_values.shape != grid.shape:
                raise GridMismatchError("mask shape does not match grid")
            return self.mask_values.copy()
        if self.kind == "full":
            return np.ones(grid.shape, dtype=bool)
        raise ValueError(f"unknown region kind {self.kind!r}")

    def indicator(self, grid: DiscGrid) -> np.ndarray:
        """Node-center membership, boolean per node."""
        ind = self._base_indicator(grid)
        return ~ind if self.complement_flag else ind

    def _base_fraction(self, grid: DiscGrid) -> np.ndarray:
        n_r, n_t = grid.shape
        if self.kind in ("radial_disc", "annulus"):
            edges = grid.s_cell_edges
            lo, hi = edges[:-1], edges[1:]
            fr = _cell_fraction(_overlap(lo, hi, 0.0, self.a**2), lo, hi, 1.0)
            if self.kind == "annulus":
                fr = 1.0 - fr
            return np.repeat(fr[:, None], n_t, axis=1)
        if self.kind == "sector":
            d = np.pi / n_t
            centers = np.mod(grid.thetas + np.pi, 2.0 * np.pi) - np.pi
            lo, hi = centers - d, centers + d
            # cells live in (-pi-d, pi+d); fold the overhanging pieces back
            arc = (
                _overlap(lo, hi, -self.theta, self.theta)
                + _overlap(lo - 2.0 * np.pi, hi - 2.0 * np.pi, -self.theta, self.theta)
                + _overlap(lo + 2.0 * np.pi, hi + 2.0 * np.pi, -self.theta, self.theta)
            )
            fr = _cell_fraction(arc, lo, hi, 2.0 * np.pi)
            return np.repeat(fr[None, :], n_r, axis=0)
        if self.kind in ("mask", "full"):
            return self._base_indicator(grid).astype(float)
        raise ValueError(f"unknown region kind {self.kind!r}")

    def _resolve(self, grid: DiscGrid, name: str, compute) -> np.ndarray:
        """compute(grid), kept read-only under name for this grid."""
        resolved = self._resolved.setdefault(grid, {})
        if name not in resolved:
            resolved[name] = compute(grid)
            resolved[name].setflags(write=False)
        return resolved[name]

    def fraction(self, grid: DiscGrid) -> np.ndarray:
        """Overlap fraction of each node's quadrature cell with the region.

        Exactly 1 (0) for a cell wholly inside (outside) the region; only
        the single radial ring or the at most two angular arcs straddling
        the boundary take values strictly between.
        """
        return self._resolve(grid, "fraction", self._fraction)

    def _fraction(self, grid: DiscGrid) -> np.ndarray:
        fr = self._base_fraction(grid)
        return 1.0 - fr if self.complement_flag else fr

    def weights(self, grid: DiscGrid) -> np.ndarray:
        """Quadrature weights for integration over the region.

        The grid weights times the overlap fraction of each cell, so
        weights(grid).sum() reproduces the exact normalized area for the
        closed-form variants and vanishes exactly on cells outside the
        region.  A complement takes grid.weights minus the region's
        weights, so the two always add up to the full-grid weights.
        """
        return self._resolve(grid, "weights", self._weights)

    def _weights(self, grid: DiscGrid) -> np.ndarray:
        w = grid.weights * self._base_fraction(grid)
        return grid.weights - w if self.complement_flag else w

    def area(self, grid: DiscGrid) -> float:
        """Normalized area of the region under the grid quadrature."""
        return float(self.weights(grid).sum())

    def node_count(self, grid: DiscGrid) -> int:
        """Number of nodes carrying positive quadrature weight.

        Only cells with a genuine overlap count: rounding-level overlaps
        are snapped to zero weight.
        """
        return int(np.count_nonzero(self.weights(grid) > 0.0))


def eval_basis(n: int, z) -> complex | np.ndarray:
    """Orthonormal monomial basis e_n(z) = sqrt(n+1) z^n of A^2."""
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    return np.sqrt(n + 1.0) * np.asarray(z) ** n if np.ndim(z) else np.sqrt(n + 1.0) * z**n


def inner_product(g: GridFunction, h: GridFunction, region: Region | None = None) -> complex:
    """Quadrature approximation of the L^2 inner product <g, h> over a region.

    With region None the integral runs over the whole disc.  The result
    is conjugate-symmetric: inner_product(g, h) == conj(inner_product(h, g))
    exactly, term by term.
    """
    g._check_same_grid(h)
    w = g.grid.weights if region is None else region.weights(g.grid)
    # split into real arithmetic: the vectorized complex product is not
    # conjugate-commutative to the last ulp, this formulation is
    gr, gi = g.values.real, g.values.imag
    hr, hi = h.values.real, h.values.imag
    re = np.sum(w * (gr * hr + gi * hi))
    im = np.sum(w * (gi * hr - gr * hi))
    return complex(re, im)


def glue(h_k: GridFunction, h_j: GridFunction, k_region: Region) -> GridFunction:
    """Glue h_K on K with h_J on the complementary region.

    Nodes whose quadrature cell lies entirely inside (outside) K keep
    the h_K (h_J) value; a node whose cell straddles the region
    boundary takes the cell-averaged mix, weighted by the overlap
    fraction.  This keeps integrating a glued function over the disc
    exactly consistent with integrating the pieces over K and its
    complement.
    """
    h_k._check_same_grid(h_j)
    grid = h_k.grid
    mu = k_region.fraction(grid)
    values = np.where(mu >= 1.0, h_k.values, np.where(mu <= 0.0, h_j.values, np.nan))
    straddle = (mu > 0.0) & (mu < 1.0)
    if np.any(straddle):
        values[straddle] = (
            mu[straddle] * h_k.values[straddle] + (1.0 - mu[straddle]) * h_j.values[straddle]
        )
    return GridFunction(grid, values)
