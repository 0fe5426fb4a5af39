import dataclasses
import gc
import weakref

import numpy as np
import pytest

from bergbep import (
    GridFunction,
    GridMismatchError,
    Region,
    build_grid,
    eval_basis,
    glue,
    gram,
    inner_product,
)
from bergbep.grid import _N_AUX, _N_STENCIL, _fft_modes, _TeodorescuOperator


def monomial_integral(grid, m, n):
    z = grid.nodes
    return np.sum(grid.weights * z**m * np.conj(z) ** n)


class TestBuildGrid:
    def test_total_mass_is_one(self, grid_16_64):
        assert abs(grid_16_64.weights.sum() - 1.0) <= 1e-15

    def test_abs_z_squared(self, grid_16_64):
        # (1/pi) int_0^1 r^2 2 pi r dr = 1/2
        assert abs(monomial_integral(grid_16_64, 1, 1) - 0.5) <= 1e-15

    def test_angular_orthogonality(self, grid_16_64):
        assert abs(monomial_integral(grid_16_64, 1, 2)) <= 1e-15

    def test_monomial_exactness_full_range(self, grid_16_64):
        deg = grid_16_64.exactness_degree
        worst = 0.0
        for m in range(deg + 1):
            for n in range(deg + 1 - m):
                exact = 1.0 / (n + 1) if m == n else 0.0
                worst = max(worst, abs(monomial_integral(grid_16_64, m, n) - exact))
        assert worst <= 1e-13

    def test_weights_positive_nodes_inside(self, grid_16_64):
        assert np.all(grid_16_64.radial_weights > 0.0)
        assert np.all(grid_16_64.radial_nodes > 0.0)
        assert np.all(grid_16_64.radial_nodes < 1.0)

    def test_tables_are_read_only(self, grid_16_64):
        g = grid_16_64
        tables = (g.radial_nodes, g.radial_weights, g.s_nodes, g.s_cell_edges, g.thetas,
                  g.nodes, g.weights, g.radial_powers, *g.radial_derivatives,
                  g.angular_wavenumbers, g.teodorescu.matrices, g.teodorescu.phase)
        for table in tables:
            with pytest.raises(ValueError):
                table.flat[0] = 0.5

    @pytest.mark.parametrize("n_r,n_theta", [(1, 64), (0, 8), (4, 3), (2, 0)])
    def test_rejects_bad_sizes(self, n_r, n_theta):
        with pytest.raises(ValueError):
            build_grid(n_r, n_theta)


class TestRadialDerivatives:
    @pytest.mark.parametrize("n_r", [5, 6, 8, 24, 128, 2048])
    def test_stencils_differentiate_quartics(self, n_r):
        # every row, the one-sided edge rows included, is exact on r^0..r^4 to
        # rounding in the sum of its terms
        grid = build_grid(n_r, 8)
        r, (d1, d2) = grid.radial_nodes, grid.radial_derivatives
        for k in range(5):
            powers = r**k
            for d, order in ((d1, 1), (d2, 2)):
                exact = np.prod(np.arange(k, k - order, -1)) * r ** max(k - order, 0)
                terms = np.abs(d) @ np.abs(powers)
                assert np.all(np.abs(d @ powers - exact) <= 8 * np.finfo(float).eps * terms)


class TestRegion:
    def test_radial_disc_area(self, grid_16_64):
        assert abs(Region.radial_disc(0.5).area(grid_16_64) - 0.25) <= 1e-13

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_sector_area(self, grid_16_64, theta):
        assert abs(Region.sector(theta).area(grid_16_64) - theta / np.pi) <= 1e-13

    def test_annulus_area(self, grid_16_64):
        assert abs(Region.annulus(0.3).area(grid_16_64) - 0.91) <= 1e-13

    @pytest.mark.parametrize(
        "region",
        [
            Region.radial_disc(0.37),
            Region.annulus(0.61),
            Region.sector(1.234),
        ],
    )
    def test_partition(self, grid_16_64, region):
        comp = region.complement()
        ind = region.indicator(grid_16_64)
        assert np.all(ind ^ comp.indicator(grid_16_64))
        gap = region.weights(grid_16_64) + comp.weights(grid_16_64) - grid_16_64.weights
        assert np.max(np.abs(gap)) <= 1e-16

    def test_annulus_weight_exactly_zero_off_boundary(self):
        # the cumsum cell edges once left a 1.3e-16 J fraction on ring 1
        grid = build_grid(12, 24)
        region = Region.annulus(0.5)
        w = region.weights(grid)
        assert np.all(w[:3] == 0.0)
        assert np.all(region.fraction(grid)[4:] == 1.0)
        assert region.node_count(grid) == 9 * 24

    def test_boundary_on_cell_edge_snaps(self, grid_16_64):
        edge = grid_16_64.s_cell_edges[5]
        frac = Region.radial_disc(np.sqrt(edge)).fraction(grid_16_64)
        assert np.all((frac == 0.0) | (frac == 1.0))
        assert np.all(frac[:5] == 1.0) and np.all(frac[5:] == 0.0)

    def test_mask_region(self, grid_16_64):
        mask = grid_16_64.nodes.real > 0.0
        region = Region.mask(mask)
        assert np.array_equal(region.indicator(grid_16_64), mask)
        expected = grid_16_64.weights[mask].sum()
        assert abs(region.area(grid_16_64) - expected) <= 1e-15

    def test_mask_shape_mismatch(self, grid_16_64):
        with pytest.raises(GridMismatchError):
            Region.mask(np.ones((3, 3), dtype=bool)).indicator(grid_16_64)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_bad_radius(self, bad):
        for make in (Region.radial_disc, Region.annulus):
            with pytest.raises(ValueError):
                make(bad)

    def test_rejects_bad_sector(self):
        with pytest.raises(ValueError):
            Region.sector(3.5)

    @pytest.mark.parametrize(
        "region, radii, theta",
        [
            (Region.radial_disc(0.4), (0.0, 0.4), None),
            (Region.annulus(0.4), (0.4, 1.0), None),
            (Region.sector(1.2), (0.0, 1.0), 1.2),
            (Region.full_disc(), (0.0, 1.0), None),
            (Region.mask(np.ones((2, 4), dtype=bool)), None, None),
        ],
    )
    def test_shape(self, region, radii, theta):
        # every kind but a mask is radii times an arc, and a complement keeps the shape
        for r in (region, region.complement()):
            assert r.radii == radii and r.theta == theta

    def test_unknown_kind_raises(self, grid_16_64):
        region = Region(kind="pentagon")
        for resolve in (region.indicator, region.fraction, region.weights):
            with pytest.raises(ValueError, match="unknown region kind 'pentagon'"):
                resolve(grid_16_64)
        with pytest.raises(ValueError, match="unknown region kind 'pentagon'"):
            gram(region, 4)

    @pytest.mark.parametrize("shape", [(5, 7), (12, 24), (16, 45)])
    def test_annulus_is_exactly_the_disc_complement(self, shape):
        # the ring (a, 1) is the prefix (0, 1) less the prefix (0, a): on every
        # cell, edges included, its fraction is 1 minus the disc's to the bit
        grid = build_grid(*shape)
        radii = [0.3, 0.5, 0.8] + [float(np.sqrt(e)) for e in grid.s_cell_edges[1:-1]]
        for a in radii:
            disc, ring = Region.radial_disc(a), Region.annulus(a)
            assert np.array_equal(ring.fraction(grid), 1.0 - disc.fraction(grid))
            assert np.array_equal(ring.fraction(grid), disc.complement().fraction(grid))
            outside = np.repeat((grid.s_nodes > a * a)[:, None], grid.angular_count, axis=1)
            assert np.array_equal(ring.indicator(grid), outside)


def _resolution_regions(grid):
    return (
        Region.radial_disc(0.5),
        Region.annulus(0.4).complement(),
        Region.sector(1.1),
        Region.sector(0.7).complement(),
        Region.mask(np.abs(grid.nodes - (0.2 + 0.1j)) < 0.45),
        Region.mask(grid.nodes.real > 0.1).complement(),
        Region.full_disc(),
    )


class TestRegionResolution:
    """A region resolves once per grid into one kept record, its weights read-only;
    the fraction and the node count are computed on each call."""

    def test_memoized_equals_fresh(self, grid_16_64):
        for region in _resolution_regions(grid_16_64):
            fresh = dataclasses.replace(region)  # same region, nothing resolved yet
            w, fr = region.weights(grid_16_64), region.fraction(grid_16_64)
            assert region.weights(grid_16_64) is w and region.resolve(grid_16_64).weights is w
            assert region.fraction(grid_16_64) is not fr
            assert np.array_equal(fr, region.fraction(grid_16_64))
            assert np.array_equal(w, fresh.weights(grid_16_64))
            assert np.array_equal(fr, fresh.fraction(grid_16_64))
            base = region.complement() if region.complement_flag else region
            expected = grid_16_64.weights * base._base_fraction(grid_16_64)
            if region.complement_flag:
                expected = grid_16_64.weights - expected
            assert np.array_equal(w, expected)

    def test_read_only(self, grid_16_64):
        for region in _resolution_regions(grid_16_64):
            for values in (region.weights(grid_16_64), region.fraction(grid_16_64)):
                with pytest.raises(ValueError):
                    values[0, 0] = 0.5

    def test_mask_is_copied(self, grid_16_64):
        mask = grid_16_64.nodes.real > 0.0
        region = Region.mask(mask)
        area = region.area(grid_16_64)
        mask[:] = True  # the caller's array is not the region's
        assert region.area(grid_16_64) == area
        assert Region.mask(mask).area(grid_16_64) != area

    def test_constructed_mask_is_copied(self, grid_16_64):
        # the dataclass constructor copies too: what the region keeps, and what it
        # resolves later, derive from the mask it was given
        mask = np.abs(grid_16_64.nodes - (0.2 + 0.1j)) < 0.45
        expected = Region.mask(mask).weights(grid_16_64)
        region = Region(kind="mask", mask_values=mask)
        weights = region.weights(grid_16_64)
        mask[:] = False
        assert region.weights(grid_16_64) is weights and weights.sum() > 0.0
        assert np.array_equal(weights, expected)
        assert np.array_equal(region.fraction(grid_16_64), region.indicator(grid_16_64))
        assert np.array_equal(region.fraction(grid_16_64) * grid_16_64.weights, weights)
        assert not region.mask_values.flags.writeable

    def test_separate_per_grid(self, grid_16_64):
        # two grids of one shape; the second carries half the radial weights
        half = dataclasses.replace(
            grid_16_64, radial_weights=grid_16_64.radial_weights * 0.5
        )
        regions = (
            Region.sector(1.1),
            Region.sector(0.7).complement(),
            Region.mask(grid_16_64.nodes.real > 0.1),
            Region.mask(grid_16_64.nodes.real > 0.1).complement(),
        )
        for region in regions:
            w, w_half = region.weights(grid_16_64), region.weights(half)
            assert w_half is not w
            assert np.array_equal(w_half, 0.5 * w)
            assert np.array_equal(region.fraction(half), region.fraction(grid_16_64))
            assert region.weights(grid_16_64) is w

    def test_node_count_once_per_grid(self, grid_16_64, monkeypatch):
        # the count is taken from the kept weights on each call: the weights are
        # resolved once per grid, and nothing but the record is kept
        import bergbep.grid as grid_module

        scans = []
        ring_facts = grid_module._ring_facts
        monkeypatch.setattr(grid_module, "_ring_facts", lambda w: scans.append(1) or ring_facts(w))
        half = dataclasses.replace(grid_16_64, radial_weights=grid_16_64.radial_weights * 0.5)
        region = Region.sector(1.1)
        counts = [region.node_count(grid) for grid in (grid_16_64, grid_16_64, half, half)]
        assert len(scans) == 2
        assert counts == [np.count_nonzero(region.weights(grid_16_64) > 0.0)] * 4
        assert [set(region._resolved[grid]) for grid in (grid_16_64, half)] == [{"facts"}] * 2

    def test_holds_grid_weakly(self):
        region = Region.sector(1.0)
        grid = build_grid(8, 32)
        region.weights(grid)
        ref = weakref.ref(grid)
        del grid
        gc.collect()
        assert ref() is None


class TestInnerProduct:
    def test_ones(self, grid_16_64):
        one = GridFunction.constant(grid_16_64, 1.0)
        assert abs(inner_product(one, one) - 1.0) <= 1e-15

    def test_z_with_z(self, grid_16_64):
        zf = GridFunction.from_function(grid_16_64, lambda z: z)
        assert abs(inner_product(zf, zf) - 0.5) <= 1e-15

    def test_over_radial_disc(self, grid_16_64):
        one = GridFunction.constant(grid_16_64, 1.0)
        val = inner_product(one, one, Region.radial_disc(0.5))
        assert abs(val - 0.25) <= 1e-14

    def test_conjugate_symmetry_exact(self, grid_16_64):
        rng = np.random.default_rng(7)
        g = GridFunction(grid_16_64, rng.standard_normal(grid_16_64.shape) * (1 + 0.5j))
        h = GridFunction(
            grid_16_64,
            rng.standard_normal(grid_16_64.shape) + 1j * rng.standard_normal(grid_16_64.shape),
        )
        assert inner_product(g, h) == np.conj(inner_product(h, g))

    def test_grid_mismatch(self, grid_16_64):
        other = build_grid(8, 16)
        with pytest.raises(GridMismatchError):
            inner_product(GridFunction.constant(grid_16_64), GridFunction.constant(other))

    def test_positive_definite_on_region(self, grid_16_64):
        region = Region.sector(0.9)
        w = region.weights(grid_16_64)
        rng = np.random.default_rng(11)
        g = GridFunction(
            grid_16_64,
            rng.standard_normal(grid_16_64.shape) + 1j * rng.standard_normal(grid_16_64.shape),
        )
        assert inner_product(g, g, region).real > 0.0
        # vanishing exactly on the region's nodes gives exactly zero
        vals = g.values.copy()
        vals[w > 0.0] = 0.0
        assert inner_product(GridFunction(grid_16_64, vals), GridFunction(grid_16_64, vals), region) == 0.0

    def test_nonzero_at_single_region_node(self, grid_16_64):
        region = Region.radial_disc(0.5)
        w = region.weights(grid_16_64)
        vals = np.zeros(grid_16_64.shape, dtype=complex)
        i, j = np.argwhere(w > 0.0)[0]
        vals[i, j] = 1.0
        g = GridFunction(grid_16_64, vals)
        assert inner_product(g, g, region).real > 0.0


class TestGlue:
    def test_indicator_mass(self, grid_16_64):
        one = GridFunction.constant(grid_16_64, 1.0)
        zero = GridFunction.constant(grid_16_64, 0.0)
        k = Region.radial_disc(0.5)
        assert abs(inner_product(glue(one, zero, k), one) - k.area(grid_16_64)) <= 1e-14

    def test_identity_gluing(self, grid_16_64):
        h = GridFunction.from_function(grid_16_64, lambda z: np.exp(z) * np.conj(z))
        glued = glue(h, h, Region.sector(0.8))
        assert np.max(np.abs(glued.values - h.values)) <= 1e-15

    def test_complement_mass(self, grid_16_64):
        one = GridFunction.constant(grid_16_64, 1.0)
        zero = GridFunction.constant(grid_16_64, 0.0)
        glued = glue(zero, one, Region.radial_disc(0.5))
        assert abs(inner_product(glued, one) - 0.75) <= 1e-14

    def test_pure_nodes_keep_values(self, grid_16_64):
        k = Region.radial_disc(0.5)
        h_k = GridFunction.constant(grid_16_64, 2.0)
        h_j = GridFunction.constant(grid_16_64, -1.0)
        glued = glue(h_k, h_j, k)
        mu = k.weights(grid_16_64) / grid_16_64.weights
        assert np.all(glued.values[mu >= 1.0] == 2.0)
        assert np.all(glued.values[mu <= 0.0] == -1.0)

    @pytest.mark.parametrize("shape", [(5, 7), (12, 24), (16, 64), (24, 96)])
    def test_one_expression_is_the_patched_mix(self, shape):
        # mu h_K + (1 - mu) h_J over the fraction is, bit for bit, the former glue:
        # h_K where mu is 1, h_J where it is 0, the mix only on the straddling cells
        grid = build_grid(*shape)
        rng = np.random.default_rng(sum(shape))

        def data():
            return GridFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        for k in _resolution_regions(grid):
            h_k, h_j = data(), data()
            mu = k.fraction(grid)
            patched = np.where(mu >= 1.0, h_k.values, np.where(mu <= 0.0, h_j.values, np.nan))
            mix = (mu > 0.0) & (mu < 1.0)
            patched[mix] = mu[mix] * h_k.values[mix] + (1.0 - mu[mix]) * h_j.values[mix]
            assert glue(h_k, h_j, k).values.tobytes() == patched.tobytes()

    def test_grid_mismatch(self, grid_16_64):
        other = build_grid(8, 16)
        with pytest.raises(GridMismatchError):
            glue(
                GridFunction.constant(grid_16_64),
                GridFunction.constant(other),
                Region.radial_disc(0.5),
            )


class TestEvalBasis:
    def test_constant(self):
        assert eval_basis(0, 0.3 + 0.4j) == 1.0

    def test_degree_one(self):
        assert abs(eval_basis(1, 0.5) - np.sqrt(2.0) * 0.5) <= 1e-15

    def test_orthonormality(self, grid_16_64):
        funcs = [
            GridFunction.from_function(grid_16_64, lambda z, n=n: eval_basis(n, z))
            for n in range(10)
        ]
        for m in range(10):
            for n in range(10):
                expect = 1.0 if m == n else 0.0
                assert abs(inner_product(funcs[m], funcs[n]) - expect) <= 1e-13

    def test_negative_index(self):
        with pytest.raises(ValueError):
            eval_basis(-1, 0.5)


class TestGridFunction:
    def test_rejects_nonfinite(self, grid_16_64):
        vals = np.ones(grid_16_64.shape, dtype=complex)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            GridFunction(grid_16_64, vals)

    def test_rejects_wrong_shape(self, grid_16_64):
        with pytest.raises(ValueError, match="values shape"):
            GridFunction(grid_16_64, np.ones((grid_16_64.n_radial + 1, grid_16_64.angular_count)))

    def test_arithmetic_stays_finite(self, grid_16_64):
        g = GridFunction.from_function(grid_16_64, lambda z: z)
        h = (2.0 * g - g * g + g.conj()) * 0.5
        assert np.all(np.isfinite(h.values.real))

    def test_negation(self, grid_16_64):
        g = GridFunction.from_function(grid_16_64, lambda z: z + 1j)
        assert np.array_equal((-g).values, -g.values)
        assert (-g).grid is grid_16_64

    def test_norm_matches_inner_product(self, grid_16_64):
        g = GridFunction.from_function(grid_16_64, lambda z: z + 1j)
        assert abs(g.norm() ** 2 - inner_product(g, g).real) <= 1e-14


def _dense_teodorescu(r, thetas):
    """The Teodorescu mode matrices by the dense construction: a (panels, aux,
    n_r) interpolation map and the masked triangular kernel times the cells."""
    n_r, n_t = r.size, thetas.size
    ks = _fft_modes(n_t)
    k_out = (ks - 1.0)[:, None, None]
    inner = ks <= 0
    parity = (np.abs(ks) % 2).astype(float)[:, None, None]
    s = r**2
    edges = np.concatenate(([0.0], s, [1.0]))
    x, w = np.polynomial.legendre.leggauss(_N_AUX)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    aux_s = mid[:, None] + half[:, None] * x[None, :]
    aux_w = half[:, None] * w[None, :]
    log_a = 0.5 * np.log(aux_s)
    log_r = np.log(r)
    n_st = min(_N_STENCIL, n_r)
    starts = np.clip(np.arange(n_r + 1) - n_st // 2, 0, n_r - n_st)
    idx = starts[:, None] + np.arange(n_st)[None, :]
    nodes = s[idx]
    gaps = nodes[:, None, :] - nodes[:, :, None]
    gaps[:, np.arange(n_st), np.arange(n_st)] = 1.0
    terms = (1.0 / np.prod(gaps, axis=2))[:, None, :] / (aux_s[:, :, None] - nodes[:, None, :])
    interp = np.zeros((n_r + 1, _N_AUX, n_r))
    np.put_along_axis(interp, idx[:, None, :], terms / terms.sum(axis=2, keepdims=True), axis=2)
    lower = np.tri(n_r, dtype=bool)
    gap = log_r[:, None] - log_r[None, :]
    matrices = np.empty((n_t, n_r, n_r))
    for modes, panels, keep, sign in (
        (np.nonzero(inner)[0], slice(0, n_r), lower, 1.0),
        (np.nonzero(~inner)[0], slice(1, n_r + 1), lower.T, -1.0),
    ):
        k, par, la = k_out[modes], parity[modes], log_a[panels]
        weights = aux_w[panels] * np.exp(k * (log_r[:, None] - la) + (par - 1.0) * la)
        cells = np.einsum("mlq,lqj->mlj", weights, interp[panels])
        cells /= np.where(par > 0.0, r, 1.0)
        decay = np.exp(np.where(keep, k * gap, -np.inf))
        matrices[modes] = sign * (decay @ cells)
    return matrices


class TestTeodorescuBuild:
    # the operator sums banded panel cells by one ring recurrence per side;
    # the dense construction is the reference, mode by mode
    @pytest.mark.parametrize(
        "shape",
        [(n_r, n_t) for n_r in range(2, 12) for n_t in (4, 5, 8, 9, 16, 33)]
        + [(24, 96), (64, 128)],
    )
    def test_matches_dense_construction(self, shape):
        grid = build_grid(*shape)
        ref = _dense_teodorescu(grid.radial_nodes, grid.thetas)
        got = grid.teodorescu.matrices
        assert got.shape == ref.shape
        for m in range(shape[1]):
            assert np.linalg.norm(got[m] - ref[m]) <= 1e-14 * np.linalg.norm(ref[m])

    def test_build_holds_no_dense_temporary(self):
        # a (modes, n_r, n_r) temporary or the (panels, aux, n_r) map would
        # take the traced peak of the build past 1.5x the matrices it returns
        import tracemalloc

        grid = build_grid(128, 256)
        r, thetas = grid.radial_nodes, grid.thetas
        tracemalloc.start()
        try:
            op = _TeodorescuOperator(r, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * op.matrices.nbytes
