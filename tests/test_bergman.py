import warnings

import numpy as np
import pytest

from bergbep import (
    AnalyticCoeffs,
    GridFunction,
    Region,
    gram,
    gram_quadrature,
    inner_product,
    kernel_eval,
    kernel_project_eval,
    project,
    spectrum,
)
from bergbep.grid import build_grid, eval_basis


class TestProject:
    def test_z_bar_projects_to_zero(self, grid_24_96):
        zb = GridFunction.from_function(grid_24_96, lambda z: np.conj(z))
        assert np.max(np.abs(project(zb, 16).coeffs)) <= 1e-12

    def test_abs_z_squared(self, grid_24_96):
        g = GridFunction.from_function(grid_24_96, lambda z: np.abs(z) ** 2)
        c = project(g, 16).coeffs
        assert abs(c[0] - 0.5) <= 1e-12
        assert np.max(np.abs(c[1:])) <= 1e-12

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_basis_element_projects_to_unit(self, grid_24_96, k):
        g = GridFunction.from_function(grid_24_96, lambda z: eval_basis(k, z))
        c = project(g, 8).coeffs
        expect = np.zeros(9)
        expect[k] = 1.0
        assert np.max(np.abs(c - expect)) <= 1e-13

    def test_idempotence(self, grid_24_96):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = GridFunction(
                grid_24_96,
                rng.standard_normal(grid_24_96.shape)
                + 1j * rng.standard_normal(grid_24_96.shape),
            )
            c1 = project(g, 12)
            c2 = project(c1.on_grid(grid_24_96), 12)
            assert np.max(np.abs(c1.coeffs - c2.coeffs)) <= 1e-12

    def test_self_adjoint(self, grid_24_96):
        rng = np.random.default_rng(1)
        for _ in range(5):
            g = GridFunction(grid_24_96, rng.standard_normal(grid_24_96.shape) * (1 + 1j))
            h = GridFunction(grid_24_96, rng.standard_normal(grid_24_96.shape) * (1 - 0.3j))
            pg = project(g, 10).on_grid(grid_24_96)
            ph = project(h, 10).on_grid(grid_24_96)
            assert abs(inner_product(pg, h) - inner_product(g, ph)) <= 1e-12

    def test_degree_too_large(self, grid_16_64):
        g = GridFunction.constant(grid_16_64)
        with pytest.raises(ValueError):
            project(g, grid_16_64.exactness_degree)

    def test_negative_degree(self, grid_16_64):
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            project(GridFunction.constant(grid_16_64), -1)

    def test_rejects_empty_coefficients(self):
        with pytest.raises(ValueError, match="non-empty 1-d array"):
            AnalyticCoeffs([])

    def test_rejects_nonfinite_coefficients(self):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            AnalyticCoeffs([1.0, np.nan])

    def test_parseval(self, grid_24_96):
        c = AnalyticCoeffs(np.array([0.5, -0.25j, 0.0, 1.0 + 1.0j]))
        g = c.on_grid(grid_24_96)
        assert abs(inner_product(g, g).real - c.norm() ** 2) <= 1e-12


class TestEval:
    def test_constant(self, grid_16_64):
        c = AnalyticCoeffs(np.array([1.0]))
        assert np.max(np.abs(c.on_grid(grid_16_64).values - 1.0)) == 0.0

    def test_unit_degree_one(self):
        c = AnalyticCoeffs.unit(1, 1)
        assert abs(c.eval(0.5) - np.sqrt(2.0) * 0.5) <= 1e-15

    def test_projection_identity_on_polynomials(self, grid_24_96):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        g = AnalyticCoeffs(coeffs).on_grid(grid_24_96)
        z = 0.3 - 0.2j
        assert abs(project(g, 6).eval(z) - AnalyticCoeffs(coeffs).eval(z)) <= 1e-13


class TestKernel:
    def test_at_origin(self):
        assert kernel_eval(0.0, 0.3 + 0.1j) == 1.0

    def test_half(self):
        assert abs(kernel_eval(0.5, 0.5) - 16.0 / 9.0) <= 1e-14

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            kernel_eval(1.0, 1.0)

    def test_truncated_reproducing_sum(self):
        z, zeta = 0.3, 0.4
        total = sum(np.conj(eval_basis(n, z)) * eval_basis(n, zeta) for n in range(41))
        assert abs(total - kernel_eval(z, zeta)) <= 1e-10

    def test_kernel_quadrature_projection(self, grid_24_96):
        g = GridFunction.from_function(grid_24_96, lambda z: np.exp(0.9 * z) + 0.3 * np.conj(z))
        c = project(g, 30)
        for z0 in (0.1 + 0.2j, 0.5, -0.3 + 0.6j, 0.7j):
            assert abs(kernel_project_eval(g, z0) - c.eval(z0)) <= 1e-8


class TestGram:
    def test_radial_diagonal(self):
        g = gram(Region.radial_disc(0.5), 16)
        n = np.arange(17)
        assert np.max(np.abs(np.diag(g.entries) - 0.25 ** (n + 1))) <= 1e-12
        off = g.entries - np.diag(np.diag(g.entries))
        assert np.max(np.abs(off)) == 0.0

    def test_sector_diagonal(self):
        g = gram(Region.sector(np.pi / 2.0), 8)
        assert np.max(np.abs(np.diag(g.entries) - 0.5)) <= 1e-14

    def test_full_disc_identity(self):
        g = gram(Region.full_disc(), 12)
        assert g.degree == 12
        assert np.max(np.abs(g.entries - np.eye(13))) == 0.0

    def test_negative_degree(self, grid_16_64):
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            gram(Region.radial_disc(0.5), -1)
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            gram_quadrature(Region.radial_disc(0.5), -1, grid_16_64)

    def test_closed_form_matches_quadrature(self, grid_24_96):
        for region in (Region.radial_disc(0.45), Region.sector(1.1), Region.annulus(0.6)):
            closed = gram(region, 10).entries
            quad = gram_quadrature(region, 10, grid_24_96).entries
            assert np.max(np.abs(closed - quad)) <= 2e-3

    def test_hermitian_exact(self, grid_24_96):
        mask = Region.mask(grid_24_96.nodes.real > 0.1)
        g = gram(mask, 10, grid_24_96)
        assert np.array_equal(g.entries, g.entries.conj().T)

    def test_mask_needs_grid(self, grid_16_64):
        with pytest.raises(ValueError):
            gram(Region.mask(np.ones(grid_16_64.shape, dtype=bool)), 4)

    @pytest.mark.parametrize(
        "region",
        [Region.radial_disc(0.5), Region.sector(1.0), Region.annulus(0.35)],
    )
    def test_complementarity(self, region):
        total = gram(region, 12).entries + gram(region.complement(), 12).entries
        assert np.max(np.abs(total - np.eye(13))) <= 1e-12

    def test_ring_times_arc_closed_form(self, grid_24_96, monkeypatch):
        # a sector of an annulus, 0.55 < |z| < 1 and |arg z| < 1.3: the closed
        # form carries the radial factor of its radii on the arc
        ring = Region.annulus(0.55).fraction(grid_24_96)[:, 0]
        arc = Region.sector(1.3).fraction(grid_24_96)[0]
        monkeypatch.setattr(Region, "radii", property(lambda self: (0.55, 1.0)))
        region = Region.sector(1.3)
        assert np.array_equal(region.fraction(grid_24_96), np.outer(ring, arc))
        assert abs(region.area(grid_24_96) - (1.0 - 0.55**2) * 1.3 / np.pi) <= 1e-13
        closed = gram(region, 10).entries
        assert np.max(np.abs(closed - gram_quadrature(region, 10, grid_24_96).entries)) <= 2e-3
        total = closed + gram(region.complement(), 10).entries
        assert np.max(np.abs(total - np.eye(11))) <= 1e-12

    def test_mask_complementarity(self, grid_24_96):
        mask = Region.mask(grid_24_96.nodes.imag > 0.0)
        total = gram(mask, 10, grid_24_96).entries + gram(mask.complement(), 10, grid_24_96).entries
        assert np.max(np.abs(total - np.eye(11))) <= 1e-12


class TestSpectrum:
    def test_radial_spectrum(self):
        vals = spectrum(gram(Region.radial_disc(0.6), 12))
        expect = np.sort(0.36 ** (np.arange(13) + 1.0))[::-1]
        assert np.max(np.abs(vals - expect)) <= 1e-12

    def test_full_disc_all_ones(self):
        vals = spectrum(gram(Region.full_disc(), 9))
        assert np.max(np.abs(vals - 1.0)) == 0.0

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_sector_spectrum_range_and_trace(self, theta):
        g = gram(Region.sector(theta), 16)
        vals = spectrum(g)
        assert vals.min() >= -1e-10
        assert vals.max() <= 1.0 + 1e-10
        assert abs(vals.sum() - 17.0 * theta / np.pi) <= 1e-12

    def test_descending_order(self):
        vals = spectrum(gram(Region.sector(0.8), 10))
        assert np.all(np.diff(vals) <= 0.0)

    def test_rejects_non_hermitian(self):
        from bergbep import GramMatrix

        bad = GramMatrix(Region.full_disc(), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            spectrum(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_rejects_nonfinite_entries(self, bad):
        # refused on construction, before spectrum's Hermitian check or eigvalsh
        from bergbep import GramMatrix

        entries = np.eye(3, dtype=complex)
        entries[1, 2] = entries[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                GramMatrix(Region.full_disc(), entries)

    def test_rejects_non_square(self):
        from bergbep import GramMatrix

        with pytest.raises(ValueError, match="must be square"):
            GramMatrix(Region.full_disc(), np.zeros((2, 3)))


class TestUniquenessSurrogate:
    """No nonzero truncated analytic function vanishes on positive area."""

    @pytest.mark.parametrize(
        "region",
        [Region.radial_disc(0.3), Region.sector(0.5), Region.annulus(0.7)],
    )
    def test_region_gram_positive_definite(self, region):
        vals = spectrum(gram(region, 10))
        assert vals.min() > 0.0

    def test_quadratic_form_positive(self, grid_24_96):
        rng = np.random.default_rng(9)
        mask = Region.mask(np.abs(grid_24_96.nodes - 0.4) < 0.3)
        g = gram(mask, 8, grid_24_96).entries
        for _ in range(10):
            c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            assert (c.conj() @ g @ c).real > 0.0


def _regions(grid):
    return (
        Region.radial_disc(0.5),
        Region.annulus(0.4),
        Region.sector(1.1),
        Region.mask(np.abs(grid.nodes - (0.2 + 0.1j)) < 0.45),
        Region.sector(0.7).complement(),
    )


class TestDenseSamples:
    """The tensor-product samples of e_0..e_N and the blocked dense forms over them."""

    @pytest.mark.parametrize(
        "shape", [(12, 24, 11), (24, 96, 16), (64, 128, 30), (128, 256, 60), (4, 8, 20)]
    )
    def test_basis_matrix_matches_powers(self, shape):
        # (4, 8, 20): degrees past n_theta, whose angles wrap around more than once
        from bergbep.bergman import basis_matrix

        n_r, n_t, n = shape
        grid = build_grid(n_r, n_t)
        z = grid.nodes.ravel()
        powers = z[:, None] ** np.arange(n + 1) * np.sqrt(np.arange(n + 1) + 1.0)
        e = basis_matrix(grid, n)
        assert e.shape == powers.shape
        assert np.max(np.abs(e - powers)) <= 1e-13 * np.max(np.abs(powers))

    # the default block holds all 64 rings; 64 kB blocks hold one ring and split it in rows
    @pytest.mark.parametrize("block_bytes", [None, 1 << 16], ids=["default", "64kB"])
    def test_blocked_forms_match_one_shot(self, grid_64_128, monkeypatch, block_bytes):
        import bergbep.bergman as bergman

        if block_bytes is not None:
            monkeypatch.setattr(bergman, "_BLOCK_BYTES", block_bytes)
        grid, n = grid_64_128, 30
        e = bergman.basis_matrix(grid, n)
        rng = np.random.default_rng(7)
        h = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        factors = bergman._ring_factors(grid, n)
        for region in _regions(grid)[:4]:
            w = region.weights(grid)
            gram = e.conj().T @ (w.ravel()[:, None] * e)
            moments = e.conj().T @ (w * h).ravel()
            [(a, r)] = bergman._basis_forms(*factors, [(w, h)])
            assert np.max(np.abs(a - gram)) <= 1e-13 * np.max(np.abs(gram))
            assert np.max(np.abs(r - moments)) <= 1e-13 * np.max(np.abs(moments))
            assert np.array_equal(a, a.conj().T)
            real_a = bergman._gram(e, w.ravel(), np.real)
            real_r = bergman._moments(e, w.ravel(), h.ravel(), np.real)
            assert np.max(np.abs(real_a - gram.real)) <= 1e-13 * np.max(np.abs(gram))
            assert np.max(np.abs(real_r - moments.real)) <= 1e-13 * np.max(np.abs(moments))
            assert np.array_equal(real_a, real_a.T)


class TestPolarLayer:
    """Ring-DFT forms and synthesis against the dense basis samples."""

    # 12x24 at N = 11 is the exactness limit 2N = min(4 n_r - 2, n_theta - 1)
    @pytest.mark.parametrize(
        "shape", [(12, 24, 5), (24, 96, 16), (64, 128, 30), (16, 45, 20), (12, 24, 11)]
    )
    def test_forms_match_dense(self, shape):
        from bergbep.bergman import _gram, _moments, _ring_gram, _ring_moments, basis_matrix

        n_r, n_t, n = shape
        grid = build_grid(n_r, n_t)
        e = basis_matrix(grid, n)
        rng = np.random.default_rng(n)
        h = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        for region in _regions(grid):
            w = region.weights(grid)
            a, r = _gram(e, w.ravel(), np.asarray), _moments(e, w.ravel(), h.ravel(), np.asarray)
            ring_a, ring_r = _ring_gram(grid, w, n), _ring_moments(grid, w, h, n)
            assert np.max(np.abs(ring_a - a)) <= 1e-13 * np.max(np.abs(a))
            assert np.max(np.abs(ring_r - r)) <= 1e-13 * np.max(np.abs(r))
            assert np.array_equal(ring_a, ring_a.conj().T)

    @pytest.mark.parametrize("shape", [(24, 96, 16), (64, 128, 30), (128, 256, 60)])
    def test_full_disc_form_is_diagonal(self, shape):
        # the BEP core whitens by these grid norms and takes A_K = diag(g) - A_J
        from bergbep.bergman import _ring_gram, _ring_norms

        n_r, n_t, n = shape
        grid = build_grid(n_r, n_t)
        g = _ring_norms(grid, n)
        full = _ring_gram(grid, grid.weights, n)
        assert np.max(np.abs(full - np.diag(full.diagonal()))) <= 1e-15
        assert np.max(np.abs(full.diagonal() - g)) <= 1e-14
        assert np.max(np.abs(g - 1.0)) <= 1e-12
        for k in _regions(grid)[:4]:
            a_k = _ring_gram(grid, k.weights(grid), n)
            a_j = _ring_gram(grid, k.complement().weights(grid), n)
            assert np.max(np.abs(np.diag(g) - a_j - a_k)) <= 1e-12

    @pytest.mark.parametrize("shape", [(12, 24, 11), (24, 96, 16), (16, 45, 20), (64, 128, 30)])
    def test_synthesis_matches_eval(self, shape):
        n_r, n_t, n = shape
        grid = build_grid(n_r, n_t)
        rng = np.random.default_rng(n)
        c = AnalyticCoeffs(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        horner = c.eval(grid.nodes)
        assert np.max(np.abs(c.on_grid(grid).values - horner)) <= 1e-13 * np.max(np.abs(horner))

    def test_synthesis_beyond_angular_count(self):
        # degrees past n_theta alias onto the same node values, as eval gives them
        grid = build_grid(4, 8)
        c = AnalyticCoeffs(np.linspace(1.0, 0.1, 20) + 0.5j)
        horner = c.eval(grid.nodes)
        assert np.max(np.abs(c.on_grid(grid).values - horner)) <= 1e-13 * np.max(np.abs(horner))

    @pytest.mark.parametrize(
        "shape, count", [((128, 256), 61), ((24, 96), 17), ((4, 8), 20), ((4, 8), 16)]
    )
    def test_synthesis_pads_bit_for_bit(self, shape, count):
        # the inverse fft pads the spectrum itself: the same bits as the zero-padded
        # spectrum, for stacks and for degrees that fold past n_theta
        from bergbep.bergman import _radial_powers, _ring_synthesis

        grid = build_grid(*shape)
        n_t = grid.angular_count
        rng = np.random.default_rng(count)
        for coeffs in (
            rng.standard_normal(count) + 1j * rng.standard_normal(count),
            rng.standard_normal((2, count)),
        ):
            n = np.arange(count)
            terms = (coeffs * np.sqrt(n + 1.0))[..., None, :] * _radial_powers(grid, n[-1])
            folded = np.zeros(terms.shape[:-1] + (-(-count // n_t) * n_t,), dtype=terms.dtype)
            folded[..., :count] = terms
            folded = folded.reshape(terms.shape[:-1] + (-1, n_t)).sum(axis=-2)
            modes = np.zeros(terms.shape[:-1] + (n_t,), dtype=complex)
            modes[..., : min(count, n_t)] = folded[..., : min(count, n_t)]
            reference = np.fft.ifft(modes, axis=-1, norm="forward")
            assert np.array_equal(_ring_synthesis(grid, coeffs), reference)

    def test_project_matches_dense(self, grid_24_96):
        from bergbep.bergman import basis_matrix

        rng = np.random.default_rng(3)
        g = GridFunction(
            grid_24_96,
            rng.standard_normal(grid_24_96.shape) + 1j * rng.standard_normal(grid_24_96.shape),
        )
        e = basis_matrix(grid_24_96, 16)
        dense = e.conj().T @ (grid_24_96.weights.ravel() * g.values.ravel())
        assert np.max(np.abs(project(g, 16).coeffs - dense)) <= 1e-14

    def test_gram_quadrature_matches_dense(self, grid_24_96):
        from bergbep.bergman import basis_matrix

        e = basis_matrix(grid_24_96, 10)
        for region in _regions(grid_24_96):
            w = region.weights(grid_24_96).ravel()
            dense = e.conj().T @ (w[:, None] * e)
            quad = gram_quadrature(region, 10, grid_24_96).entries
            assert np.max(np.abs(quad - dense)) <= 1e-14
