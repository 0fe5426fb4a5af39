"""Truncated Bergman space machinery on the unit disc.

Functions analytic on the disc are represented by their coefficients in
the orthonormal monomial basis e_n(z) = sqrt(n+1) z^n of A^2 (normalized
area measure).  The module provides the degree-N Bergman projection via
basis inner products, the reproducing kernel 1/(1 - conj(z) zeta)^2 as a
cross-check path, and Gram/Toeplitz matrices G_mn = <chi_Omega e_n, e_m>
for characteristic-function symbols, with closed forms for every region
of one shape, radii times an arc (discs, annuli, sectors, the full disc).

On the polar grid every basis quadrature sum is a per-ring DFT.  With
e_n = sqrt(n+1) r^n e^{in theta}, the radial powers P[i, p] = r_i^p (kept
with the grid, DiscGrid.radial_powers) and W_i(k) = sum_j w_ij
e^{-ik theta_j} (an fft along theta), a private polar layer gives, for
any weights w (masks included):

    G_mn = sum w conj(e_m) e_n = sqrt((m+1)(n+1)) (P^T W)[m+n, m-n]   (m >= n)
    G_nm = conj(G_mn)
    b_n  = sum w h conj(e_n)   = sqrt(n+1) sum_i r_i^n fft_theta(w h)_i(n)
    sum_n c_n e_n              = ifft_theta of c_n sqrt(n+1) r_i^n per ring

The weights are real, so W(-k) = conj W(k) and the Gram form needs only
the half spectrum W(0..N) of a real fft; a degree within the grid's
exactness has |m - n| <= N < n_theta / 2, so no mode wraps around.
These only reorder the same sums, so they agree with the dense samples
of basis_matrix to rounding at any degree, without building them.  The
moments and a synthesis on a slice of rings work one ring block of at most
_BLOCK_NODES nodes at a time (_ring_blocks, the same blocks for every
pass over a grid): a block's temporaries stay in cache, and the BEP
core's dots over it stay below the size at which BLAS runs a dot on
threads.  A ring's values are the same, bit for bit, in any block.
The full-disc weights are constant along theta, so their Gram form is
diagonal, with the grid norms g_n = (n+1) sum_i omega_i r_i^{2n} of the
radial weights omega_i (_ring_norms); within the exactness g_n = 1 to
rounding, the orthonormality of the basis.
project, gram_quadrature and AnalyticCoeffs.on_grid use this layer, and
so do the BEP core and the Vekua residuals.

The dense samples are a tensor product: e_n at node (i, j) is
sqrt(n+1) r_i^n times e^{in theta_j} (_ring_factors, from the radii and
angles alone: no complex power and no table of the polar layer), and
basis_matrix is its all-rings call, kept for independent checks.
_gram and _moments are the plain quadrature of the same forms over any
sampled family, summed over the nodes that carry weight in row blocks of
about _BLOCK_BYTES, so they make no full-size copy; the dense Vekua bases
use them on their samples.  _basis_forms sums them over blocks of rings
sampled on the fly, so the BEP oracle assembles its forms in O(block)
memory and never holds a sample matrix of the whole grid.

Note on the radial spectrum convention: with J = a*D under the
normalized area measure, the truncated Toeplitz matrix is diagonal with
entries a^{2(n+1)} = (a^2)^{n+1}.  Sources that parameterize the symbol
by the disc a*D of *measure* a (radius sqrt(a)) quote the same spectrum
as {a^{n+1}}.  This package always uses the radius parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DiscGrid, GridFunction, Region


@dataclass(eq=False)
class AnalyticCoeffs:
    """Truncated element of A^2 in the basis e_n(z) = sqrt(n+1) z^n."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d array")
        if not np.all(np.isfinite(c.real)) or not np.all(np.isfinite(c.imag)):
            raise ValueError("coefficients must be finite")
        self.coeffs = c

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def unit(cls, n: int, degree: int) -> "AnalyticCoeffs":
        c = np.zeros(degree + 1, dtype=complex)
        c[n] = 1.0
        return cls(c)

    def norm(self) -> float:
        """A^2 norm, sqrt(sum |c_n|^2) by Parseval."""
        return float(np.linalg.norm(self.coeffs))

    def eval(self, z) -> complex | np.ndarray:
        """Evaluate sum c_n e_n(z) by Horner accumulation; z may be an array."""
        zv = np.asarray(z, dtype=complex)
        d = self.coeffs * np.sqrt(np.arange(self.coeffs.size) + 1.0)
        acc = np.full_like(zv, d[-1])
        for k in range(d.size - 2, -1, -1):
            acc = acc * zv + d[k]
        return acc if zv.ndim else complex(acc)

    def on_grid(self, grid: DiscGrid) -> GridFunction:
        return GridFunction(grid, _ring_synthesis(grid, self.coeffs))


def basis_matrix(grid: DiscGrid, degree: int) -> np.ndarray:
    """Samples of e_0..e_N at the grid nodes, shape (n_nodes, N+1), flattened row-major."""
    return _ring_rows(*_ring_factors(grid, degree))


# ---- dense samples: e_n = sqrt(n+1) r^n e^{in theta} as a tensor product of rings and angles

_BLOCK_BYTES = 1 << 22  # the sample rows a dense form holds at a time


def _ring_factors(grid: DiscGrid, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(n+1) r_i^n on every ring and e^{in theta_j} on every angle, n = 0..N.

    Real powers of the radii, and the angles n theta_j reduced mod 2 pi by
    their index (theta_j = 2 pi j / n_theta); no complex power and no table
    of the polar layer.  e_n at node (i, j) is their product, so
    sum_n c_n e_n on the grid is (radial * c) @ angular.T.
    """
    n = np.arange(degree + 1)
    radial = np.sqrt(n + 1.0) * grid.radial_nodes[:, None] ** n
    turns = np.multiply.outer(np.arange(grid.angular_count), n) % grid.angular_count
    return radial, np.exp(1j * grid.thetas)[turns]


def _ring_rows(radial: np.ndarray, angular: np.ndarray) -> np.ndarray:
    """Samples of e_0..e_N on the rings of radial (a block of _ring_factors' rows),
    shape (rings * n_theta, N+1), flattened row-major as the grid's nodes."""
    return (radial[:, None, :] * angular[None, :, :]).reshape(-1, radial.shape[1])


def _row_blocks(w: np.ndarray, width: int):
    """The nodes of the flat weights w that carry weight, in blocks of at most
    _BLOCK_BYTES of complex samples width wide: a slice where a block's nodes
    are contiguous (the samples are then a view), else their indices."""
    on = np.flatnonzero(w)
    step = max(1, _BLOCK_BYTES // (16 * width))
    for lo in range(0, on.size, step):
        idx = on[lo : lo + step]
        yield slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] + 1 == idx.size else idx


def _gram(samples: np.ndarray, w: np.ndarray, part) -> np.ndarray:
    """Gram form part(sum w conj(s_m) s_n) of the columns s of samples (n_nodes, B) over
    the nodes of the flat weights w only, exactly Hermitian (symmetric under np.real,
    the part of a real-linear family).  The sum runs over row blocks (_row_blocks);
    with t = w conj(s) on a block, the block's sum is conj(s^T t).
    """
    width = samples.shape[1]
    g = np.zeros((width, width), dtype=part(samples[:0]).dtype)
    for rows in _row_blocks(w, width):
        s = samples[rows]
        t = s.conj()
        t *= w[rows, None]
        g += part((s.T @ t).conj())
    return (g + g.conj().T) / 2.0


def _moments(samples: np.ndarray, w: np.ndarray, h: np.ndarray, part):
    """The data moments part(samples^H (w h)) for flat data h, over _gram's row blocks."""
    width = samples.shape[1]
    r = np.zeros(width, dtype=part(samples[:0]).dtype)
    for rows in _row_blocks(w, width):
        r += part((samples[rows].T @ (w[rows] * h[rows]).conj()).conj())
    return r


def _basis_forms(radial: np.ndarray, angular: np.ndarray, sides) -> list:
    """Gram form and moments of e_0..e_N (_ring_factors) for each side's grid-shaped
    weights w and data h, as a list of (gram, moments) pairs.

    The rings are sampled by _ring_rows in blocks of about _BLOCK_BYTES, and
    each block serves every side through _gram and _moments, which skip the
    nodes without weight: no full sample matrix is built.  Each block's Gram
    form is exactly Hermitian, so their sum is.
    """
    sides = list(sides)
    width = radial.shape[1]
    step = max(1, _BLOCK_BYTES // (16 * angular.shape[0] * width))
    forms = [(np.zeros((width, width), dtype=complex), np.zeros(width, dtype=complex))
             for _ in sides]
    for lo in range(0, radial.shape[0], step):
        block = slice(lo, lo + step)
        rows = _ring_rows(radial[block], angular)
        for (w, h), (gram, moments) in zip(sides, forms):
            gram += _gram(rows, w[block].ravel(), np.asarray)
            moments += _moments(rows, w[block].ravel(), h[block].ravel(), np.asarray)
    return forms


# ---- polar layer: e_n = sqrt(n+1) r^n e^{in theta} on the rings of the grid

_BLOCK_NODES = 8192  # nodes of a ring block: its temporaries stay in cache, its dots unthreaded


def _ring_blocks(shape: tuple[int, int], rings: slice = slice(None)):
    """The rings of the slice on a grid of shape (n_r, n_theta) in the grid's ring blocks:
    block b holds the step = max(1, _BLOCK_NODES // n_theta) rings from b step, clipped
    to the slice, so every pass over a grid meets the same blocks."""
    n_r, n_t = shape
    start, stop, _ = rings.indices(n_r)
    step = max(1, _BLOCK_NODES // n_t)
    for lo in range(start - start % step, stop, step):
        yield slice(max(lo, start), min(lo + step, stop))


def _radial_powers(grid: DiscGrid, top: int) -> np.ndarray:
    """P[i, p] = r_i^p for p = 0..top: a view of the grid's table within its exactness."""
    if top <= grid.exactness_degree:
        return grid.radial_powers[:, : top + 1]
    return grid.radial_nodes[:, None] ** np.arange(top + 1)[None, :]


def _ring_gram(grid: DiscGrid, w: np.ndarray, degree: int) -> np.ndarray:
    """G_mn = sum w conj(e_m) e_n from the half spectrum of the real weights w.

    For m >= n, G_mn = sqrt((m+1)(n+1)) (P^T rfft_theta(w))[m+n, m-n] and
    G_nm = conj(G_mn), so the form is exactly Hermitian.  The degree must
    lie within the grid's exactness (2N < n_theta: no mode wraps around).
    """
    n = np.arange(degree + 1)
    table = _radial_powers(grid, 2 * degree).T @ np.fft.rfft(w, axis=-1)[:, : degree + 1]
    scale = np.sqrt(n + 1.0)
    diff = n[:, None] - n[None, :]
    g = table[n[:, None] + n[None, :], np.abs(diff)] * (scale[:, None] * scale[None, :])
    g = np.where(diff >= 0, g, g.conj())
    np.fill_diagonal(g, g.diagonal().real)
    return g


def _ring_norms(grid: DiscGrid, degree: int) -> np.ndarray:
    """g_n = (n+1) sum_i omega_i r_i^{2n}, the diagonal of _ring_gram(grid, grid.weights, N).

    The full-disc weights are constant along theta, so that form has no
    off-diagonal entries; g_n is 1 to rounding within the exactness.
    """
    n = np.arange(degree + 1)
    return (n + 1.0) * (grid.radial_weights @ _radial_powers(grid, 2 * degree)[:, ::2])


def _ring_moments(grid: DiscGrid, w: np.ndarray, h: np.ndarray, degree: int) -> np.ndarray:
    """b_n = sum w h conj(e_n) = sqrt(n+1) sum_i r_i^n fft_theta(w h)_i(n).

    The product w h and its fft are taken one ring block at a time
    (_ring_blocks), so no grid-sized temporary is made.
    """
    n = np.arange(degree + 1)
    cols = n % grid.angular_count
    modes = np.empty((grid.n_radial, n.size), dtype=complex)
    for block in _ring_blocks(grid.shape):
        modes[block] = np.fft.fft(w[block] * h[block], axis=-1)[:, cols]
    return np.sqrt(n + 1.0) * np.sum(_radial_powers(grid, degree) * modes, axis=-2)


def _ring_synthesis(grid: DiscGrid, coeffs: np.ndarray, rings: slice = slice(None)) -> np.ndarray:
    """sum_n c_n e_n at the nodes of the rings by an inverse fft along theta, for stacks
    (..., N+1); each ring's values are those of the all-rings call, bit for bit."""
    n_t = grid.angular_count
    n = np.arange(coeffs.shape[-1])
    terms = (coeffs * np.sqrt(n + 1.0))[..., None, :] * _radial_powers(grid, n[-1])[rings]
    if n.size > n_t:  # modes n and n mod n_theta coincide on the nodes
        pad = -n.size % n_t
        terms = np.concatenate((terms, np.zeros(terms.shape[:-1] + (pad,))), axis=-1)
        terms = terms.reshape(terms.shape[:-1] + (-1, n_t)).sum(axis=-2)
    return np.fft.ifft(terms, n=n_t, axis=-1, norm="forward")  # zero-padded to n_theta modes


def _check_degree(grid: DiscGrid | None, degree: int) -> None:
    """degree >= 0, and within the exactness of grid if one is given."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if grid is not None and 2 * degree > grid.exactness_degree:
        raise ValueError(
            f"degree {degree} too large for grid exactness {grid.exactness_degree}"
        )


def project(g: GridFunction, degree: int) -> AnalyticCoeffs:
    """Degree-N Bergman projection of a grid function, c_n = <g, e_n>."""
    _check_degree(g.grid, degree)
    return AnalyticCoeffs(_ring_moments(g.grid, g.grid.weights, g.values, degree))


def kernel_eval(z: complex, zeta: complex) -> complex:
    """Bergman reproducing kernel K(z, zeta) = 1 / (1 - conj(z) zeta)^2."""
    denom = 1.0 - np.conj(z) * zeta
    if np.any(np.abs(denom) < 1e-14):
        raise ValueError("kernel pole: conj(z) * zeta == 1")
    return 1.0 / denom**2


def kernel_project_eval(g: GridFunction, z: complex) -> complex:
    """Bergman projection of g evaluated at z through kernel quadrature.

    Cross-check path for project(); the kernel is singular near the
    boundary, so this is only accurate for z well inside the disc.
    """
    zeta = g.grid.nodes.ravel()
    return complex(
        np.sum(g.grid.weights.ravel() * g.values.ravel() / (1.0 - z * np.conj(zeta)) ** 2)
    )


@dataclass(eq=False)
class GramMatrix:
    """Matrix of the Toeplitz operator g -> P(chi_Omega g) in the basis e_n."""

    region: Region
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Gram matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("Gram matrix entries must be finite")
        self.entries = m

    @property
    def degree(self) -> int:
        return self.entries.shape[0] - 1


def gram_quadrature(region: Region, degree: int, grid: DiscGrid) -> GramMatrix:
    """Gram matrix by grid quadrature over the region, G = E^H diag(w) E."""
    _check_degree(grid, degree)
    return GramMatrix(region, _ring_gram(grid, region.weights(grid), degree))


def _gram_closed_base(region: Region, degree: int) -> np.ndarray:
    """The closed form of the shape r0 < |z| < r1, |arg z| < theta (not a mask)."""
    r0, r1 = region.radii
    n = np.arange(degree + 1)
    if region.theta is None:  # on the whole circle the e_n stay orthogonal
        return np.diag(r1 ** (2.0 * (n + 1.0)) - r0 ** (2.0 * (n + 1.0))).astype(complex)
    m, k = np.meshgrid(n, n, indexing="ij")
    diff = k - m
    with np.errstate(divide="ignore", invalid="ignore"):
        angular = 2.0 * np.sin(diff * region.theta) / (diff * np.pi)
    # removable singularity at m == n: the diagonal is (r1^{2n+2} - r0^{2n+2}) theta / pi
    np.fill_diagonal(angular, 2.0 * region.theta / np.pi)
    p = m + k + 2.0
    radial = np.sqrt((m + 1.0) * (k + 1.0)) * (r1**p - r0**p) / p
    return (radial * angular).astype(complex)


def gram(region: Region, degree: int, grid: DiscGrid | None = None) -> GramMatrix:
    """Gram matrix G_mn = <chi_Omega e_n, e_m>.

    A region of radii r0 < r1 has a closed form at any degree >= 0:
    diag(r1^{2(n+1)} - r0^{2(n+1)}) on the whole circle, and on an arc
    the sector form with that radial factor.  A mask falls back to grid
    quadrature and requires a grid supporting the degree.
    """
    _check_degree(None, degree)
    if region.radii is None:
        if grid is None:
            raise ValueError("mask regions need a grid to assemble the Gram matrix")
        return gram_quadrature(region, degree, grid)
    base = _gram_closed_base(region, degree)
    if region.complement_flag:
        base = np.eye(degree + 1, dtype=complex) - base
    return GramMatrix(region, base)


def spectrum(g: GramMatrix) -> np.ndarray:
    """Real eigenvalues of a Hermitian Gram matrix, sorted descending."""
    herm_defect = np.max(np.abs(g.entries - g.entries.conj().T))
    if herm_defect > 1e-10:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.2e})")
    return np.linalg.eigvalsh(g.entries)[::-1]
