"""Quadrature grids, regions, and inner products on the unit disc.

All integrals are taken against the normalized area measure
dA = dx dy / pi, so the disc has total mass 1.  The quadrature is a
tensor product of a Gauss-Legendre rule in s = r^2 on (0, 1) with a
uniform (trapezoid) rule in the angle; with n_r radial rings and
n_theta angles, every monomial z^m conj(z)^n with m + n up to the
grid's exactness degree integrates exactly to delta_{mn} / (n + 1).

A region is a node mask or one shape, radii r0 < |z| < r1 times an arc
|arg z| < theta (radial discs, annuli, angular sectors, the full disc).
It resolves on a grid in two ways, a shape as ring times arc: a
node-wise indicator (a node belongs to the region iff its center
satisfies the defining inequalities), and the overlap fraction of each
node's quadrature cell with the region.  Region weights are the grid
weights times that fraction, so the cell straddling the boundary is
weighted by its overlap and region areas are exact: radial_disc(a)
sums to a^2 and sector(theta) to theta/pi, to rounding.  A cell off the
boundary has fraction exactly 0 or 1; a boundary within a few ulps of a
cell edge is snapped onto it, as the edges carry rounding of that size.

A grid also holds its operators, each built on first use and freed with
the grid.  Derivatives use spectral (trigonometric) angular
differentiation by fft and five-point finite differences on the
nonuniform radial rings, one-sided at the edges: each ring's weights
solve its 5 x 5 moment equations, one batched solve for all rings.
The Teodorescu transform T[g](z) = int g(zeta)/(z - zeta) dA(zeta), a
right inverse of dbar, is evaluated per angular mode: the Cauchy kernel
sends input mode k+1 to output mode k with radial weight

    T_k(r) = 2 r^k  int_0^r g_{k+1}(rho) rho^{-k} d rho    (k <= -1)
    T_k(r) = -2 r^k int_r^1 g_{k+1}(rho) rho^{-k} d rho    (k >= 0)

The one-sided radial integrals are sums over the inter-node panels in
s = rho^2 of integrands interpolated from 8 nearby rings, with the steep
power factors in scaled form (every factor <= 1) so nothing over- or
underflows.  Each grid assembles them once, one real n_r x n_r matrix
per angular mode: banded panel cells summed by one ring recurrence per
side, O(n_theta n_r^2) work, the matrices its only large allocation.  An
apply to a stack of grid functions is an fft along theta, one batched
matmul over the modes and an inverse fft; T[1] is conj(z) to rounding.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

logger = logging.getLogger("bergbep")


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
    use, read-only, and freed with the grid.
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
        return _read_only(self.radial_nodes**2)

    @cached_property
    def s_cell_edges(self) -> np.ndarray:
        """Edges of the radial cells in s: cell i carries mass radial_weights[i]."""
        edges = np.concatenate(([0.0], np.cumsum(self.radial_weights)))
        edges[-1] = 1.0
        return _read_only(edges)

    @cached_property
    def thetas(self) -> np.ndarray:
        return _read_only(2.0 * np.pi * np.arange(self.angular_count) / self.angular_count)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Complex node positions, shape (n_radial, angular_count)."""
        return _read_only(self.radial_nodes[:, None] * np.exp(1j * self.thetas[None, :]))

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights per node for the normalized area measure."""
        return _read_only(np.repeat(
            self.radial_weights[:, None] / self.angular_count, self.angular_count, axis=1
        ))

    @cached_property
    def radial_powers(self) -> np.ndarray:
        """P[i, p] = r_i^p for p = 0..exactness_degree, built on first use.

        Every basis form and synthesis within the grid's exactness reads
        its powers from this one table.
        """
        return _read_only(
            self.radial_nodes[:, None] ** np.arange(self.exactness_degree + 1)[None, :])

    @cached_property
    def radial_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """First and second radial derivative matrices on the rings, built on first use.

        Five-point finite-difference stencils from the moment equations of
        each ring (_radial_diff_matrices), one-sided at the edges; only
        differentiation needs them, the Teodorescu transform works on any
        grid.
        """
        if self.n_radial < 5:
            raise ValueError("grid too coarse for radial differentiation (need n_r >= 5)")
        return _read_only(_radial_diff_matrices(self.radial_nodes))

    @cached_property
    def angular_wavenumbers(self) -> np.ndarray:
        """i k per angular mode in fft order, the Nyquist mode of an even count zeroed."""
        ik = 1j * _fft_modes(self.angular_count)
        if self.angular_count % 2 == 0:
            ik[self.angular_count // 2] = 0.0  # the Nyquist mode has no real derivative
        return _read_only(ik)

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
        radial_nodes=_read_only(np.sqrt(s)),
        radial_weights=_read_only(ws),
        angular_count=int(n_theta),
        exactness_degree=min(4 * n_r - 2, n_theta - 1),
    )


_N_AUX = 10
_N_STENCIL = 8


def _radial_diff_matrices(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First/second derivative matrices on n_r >= 5 rings, five-point stencils.

    Ring i differentiates on the five rings nearest it, one-sided at the
    edges.  Its weights w_j solve the moment equations
    sum_j w_j h_j^k = d! [k == d], k = 0..4, for the derivative order
    d = 1, 2 in the offsets h_j = r_j - r_i.  They are solved in the
    offsets scaled by the widest, which divides the order-d weights by its
    d-th power, in one batched 5 x 5 solve for all rings.
    """
    n = r.size
    cols = np.clip(np.arange(n) - 2, 0, n - 5)[:, None] + np.arange(5)
    h = r[cols] - r[:, None]
    scale = np.abs(h).max(axis=1, keepdims=True)
    moments = (h / scale)[:, None, :] ** np.arange(5)[:, None]  # moments[i, k, j] = h_ij^k
    rhs = np.zeros((5, 2))
    rhs[1, 0], rhs[2, 1] = 1.0, 2.0
    w = np.linalg.solve(moments, np.broadcast_to(rhs, (n, 5, 2)))
    d1, d2, rows = np.zeros((n, n)), np.zeros((n, n)), np.arange(n)[:, None]
    d1[rows, cols] = w[..., 0] / scale
    d2[rows, cols] = w[..., 1] / scale**2
    return d1, d2


def _fft_modes(n: int) -> np.ndarray:
    """Angular mode numbers in numpy's fft order; the Nyquist mode of even n is -n/2."""
    return ((np.arange(n) + n // 2) % n) - n // 2


class _TeodorescuOperator:
    """Discrete Teodorescu transform: one real n_r x n_r radial matrix per angular mode.

    matrices[m] maps the samples of input mode k_m on the rings to the
    samples of output mode k_m - 1; apply is an fft along theta, one
    batched matmul over the modes and an inverse fft.  The build (banded
    cells, one ring recurrence per side) costs O(n_theta n_r^2).
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

        # barycentric weights in s onto the aux points from the _N_STENCIL rings idx
        n_st = min(_N_STENCIL, n_r)
        starts = np.clip(np.arange(n_r + 1) - n_st // 2, 0, n_r - n_st)
        idx = starts[:, None] + np.arange(n_st)[None, :]  # (panels, n_st)
        nodes = s[idx]
        gaps = nodes[:, None, :] - nodes[:, :, None]  # gaps[l, t, j] = s_j - s_t
        gaps[:, np.arange(n_st), np.arange(n_st)] = 1.0
        bw = 1.0 / np.prod(gaps, axis=2)
        # the aux points lie strictly inside the panels, never on a node
        terms = bw[:, None, :] / (aux_s[:, :, None] - nodes[:, None, :])
        bary = terms / terms.sum(axis=2, keepdims=True)

        # ring i collects the panels on its side of the Cauchy kernel:
        #   T_k(r_i) = sum_{l <= i} exp(k (log r_i - log r_l)) c_l   (k <= -1)
        #   T_k(r_i) = -sum_{l >= i} exp(k (log r_i - log r_l)) c_l  (k >= 0)
        # where c_l, banded on its stencil, integrates panel l (k <= -1) or
        # l + 1 (k >= 0) scaled to ring l; from the previous ring i' on its side,
        # row_i = exp(k (log r_i - log r_i')) row_i' + c_i, every factor <= 1
        self.matrices = np.empty((n_t, n_r, n_r))
        for modes, panels, rings, sign in (
            (np.nonzero(inner)[0], slice(0, n_r), range(n_r), 1.0),
            (np.nonzero(~inner)[0], slice(1, n_r + 1), range(n_r - 1, -1, -1), -1.0),
        ):
            k, par, la, first = k_out[modes], parity[modes], log_a[panels], starts[panels]
            weights = aux_w[panels] * np.exp(k * (log_r[:, None] - la) + (par - 1.0) * la)
            cells = np.einsum("mlq,lqt->mlt", sign * weights, bary[panels])
            cells /= np.where(par > 0.0, r[idx[panels]], 1.0)  # the odd-mode reduction
            row, prev = np.zeros((modes.size, n_r)), rings[0]
            for i in rings:
                row *= np.exp(k[:, 0] * (log_r[i] - log_r[prev]))
                row[:, first[i] : first[i] + n_st] += cells[:, i]
                self.matrices[modes, i], prev = row, i
        _read_only(self.matrices)
        self.phase = _read_only(np.exp(-1j * thetas))

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


def _read_only(value):
    """value, with every array in it or in the tuples it holds made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for part in value:
            _read_only(part)
    return value


def _once(store: dict, name: str, build, key=None, what: str | None = None):
    """The value store keeps under name for key, else build() kept there: the one keep rule.

    store maps a name to (key, value), one key per name, so a value built for
    another key replaces what the name held.  Every array a value holds is
    made read-only (_read_only).  Given what, a debug line says whether it
    was built or reused, before any build.
    """
    kept = store.get(name)
    reused = kept is not None and kept[0] == key
    if what is not None:
        logger.debug("%s %s", "reused" if reused else "built", what)
    if not reused:
        kept = store[name] = key, _read_only(build())
    return kept[1]


def _ring_facts(w: np.ndarray) -> tuple[slice, bool]:
    """The one weight scan of the grid-shaped weights w: the rings from the first to the
    last that carries weight, as a slice, and whether w is constant along theta."""
    rings = np.flatnonzero(np.any(w, axis=-1))
    span = slice(int(rings[0]), int(rings[-1]) + 1) if rings.size else slice(0, 0)
    return span, bool(np.all(w == w[:, :1]))


@dataclass(frozen=True, eq=False)
class Region:
    """Measurable subset of the disc, resolvable on any DiscGrid.

    Every kind but "mask" (explicit node booleans) is one shape, radii
    r0 < |z| < r1 times an arc |arg z| < theta (theta None: the whole
    circle): "radial_disc" (|z| < a) is (0, a), "annulus" (a < |z| < 1)
    is (a, 1), "sector" is (0, 1) on the arc theta, "full" is (0, 1).
    The complement flag swaps the region with its complement in the
    disc; the indicators and weights of the two add up to the grid's.

    A region resolves on each grid once: fraction, weights, node count and
    its ring facts (the span of the rings that carry weight and whether the
    weights are constant along theta) are each kept on first use in its
    per-grid dict _resolved (_once), and the grid is held weakly.  Other
    modules keep what depends only on the region and the grid in the same
    dict, one key per name, each keyed by values, never by an object that
    would hold the grid: bep keeps on a J region the J records of the last
    degree solved and of the last closed-form lifts solved (f's kind, eps
    and the degree), vekua rho of the last closed-form f (its kind and eps)
    on each norm grid.  A mask is copied read-only, so nothing kept derives
    from the caller's array.
    """

    kind: str
    a: float | None = None
    theta: float | None = None
    mask_values: np.ndarray | None = None
    complement_flag: bool = False
    # grid -> {name: (key, an array, a tuple of arrays or a count)}, filled by _once
    _resolved: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )

    def __post_init__(self):
        if self.mask_values is not None:  # a copy: the region is resolved once
            object.__setattr__(self, "mask_values", _read_only(np.array(self.mask_values, bool)))

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
        return cls(kind="mask", mask_values=mask_values)

    @classmethod
    def full_disc(cls) -> "Region":
        return cls(kind="full")

    @property
    def radii(self) -> tuple[float, float] | None:
        """(r0, r1) of the shape r0 < |z| < r1, |arg z| < theta; None for a mask."""
        shapes = {"radial_disc": (0.0, self.a), "annulus": (self.a, 1.0),
                  "sector": (0.0, 1.0), "full": (0.0, 1.0), "mask": None}
        if self.kind not in shapes:
            raise ValueError(f"unknown region kind {self.kind!r}")
        return shapes[self.kind]

    def complement(self) -> "Region":
        return replace(self, complement_flag=not self.complement_flag)

    def _base_indicator(self, grid: DiscGrid) -> np.ndarray:
        if self.radii is None:
            if self.mask_values.shape != grid.shape:
                raise GridMismatchError("mask shape does not match grid")
            return self.mask_values.copy()
        r0, r1 = self.radii
        ring = (grid.s_nodes > r0**2) & (grid.s_nodes < r1**2)
        arc = np.ones(grid.angular_count, dtype=bool)
        if self.theta is not None:
            arc = np.abs(np.mod(grid.thetas + np.pi, 2.0 * np.pi) - np.pi) < self.theta
        return ring[:, None] & arc[None, :]

    def indicator(self, grid: DiscGrid) -> np.ndarray:
        """Node-center membership, boolean per node."""
        ind = self._base_indicator(grid)
        return ~ind if self.complement_flag else ind

    def _base_fraction(self, grid: DiscGrid) -> np.ndarray:
        if self.radii is None:
            return self._base_indicator(grid).astype(float)
        # ring (r0, r1) = prefix (0, r1) - prefix (0, r0), each exactly 0 or 1 off its edge
        edges = grid.s_cell_edges
        lo, hi = edges[:-1], edges[1:]
        r0, r1 = self.radii
        prefix = _cell_fraction(_overlap(lo, hi, 0.0, np.array([[r1**2], [r0**2]])), lo, hi, 1.0)
        ring = (prefix[0] - prefix[1])[:, None]
        if self.theta is None:  # the whole circle: the ring fraction on every angle
            return np.repeat(ring, grid.angular_count, axis=1)
        d = np.pi / grid.angular_count
        centers = np.mod(grid.thetas + np.pi, 2.0 * np.pi) - np.pi
        left, right = centers - d, centers + d
        # cells live in (-pi-d, pi+d); fold the overhanging pieces back
        arc = sum(_overlap(left + shift, right + shift, -self.theta, self.theta)
                  for shift in (0.0, -2.0 * np.pi, 2.0 * np.pi))
        return ring * _cell_fraction(arc, left, right, 2.0 * np.pi)[None, :]

    def fraction(self, grid: DiscGrid) -> np.ndarray:
        """Overlap fraction of each node's quadrature cell with the region.

        Exactly 1 (0) for a cell wholly inside (outside) the region; only
        the single radial ring or the at most two angular arcs straddling
        the boundary take values strictly between.
        """
        return _once(self._resolved.setdefault(grid, {}), "fraction", lambda: self._fraction(grid))

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
        return _once(self._resolved.setdefault(grid, {}), "weights", lambda: self._weights(grid))

    def _weights(self, grid: DiscGrid) -> np.ndarray:
        w = grid.weights * self._base_fraction(grid)
        return grid.weights - w if self.complement_flag else w

    def area(self, grid: DiscGrid) -> float:
        """Normalized area of the region under the grid quadrature."""
        return float(self.weights(grid).sum())

    def ring_facts(self, grid: DiscGrid) -> tuple[slice, bool]:
        """The rings that carry weight, first to last as a slice, and whether the weights
        are constant along theta (_ring_facts), kept on first use."""
        return _once(self._resolved.setdefault(grid, {}), "ring_facts",
                     lambda: _ring_facts(self.weights(grid)))

    def node_count(self, grid: DiscGrid) -> int:
        """Number of nodes carrying positive quadrature weight.

        Only cells with a genuine overlap count: rounding-level overlaps
        are snapped to zero weight.
        """
        return _once(self._resolved.setdefault(grid, {}), "node_count",
                     lambda: int(np.count_nonzero(self.weights(grid) > 0.0)))


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
