import gc
import weakref

import numpy as np
import pytest

from bergbep import (
    AnalyticCoeffs,
    Conductivity,
    ConvergenceError,
    GridFunction,
    LiftDivergenceError,
    Region,
    VekuaFunction,
    alpha_from_f,
    beltrami_residual,
    build_fbep_space,
    build_grid,
    dbar,
    dz,
    invariance_defect,
    laplacian_residual,
    metaharmonic_residuals,
    pf_restricted,
    project,
    restriction_map_norm,
    similarity_factor,
    teodorescu,
    vekua_lift,
    vekua_residual,
)
from bergbep.vekua import _alpha_mode, _lift_batch, _mode_pair_lift, _norm_grid


def zero_alpha(grid):
    return GridFunction.constant(grid, 0.0)


class TestDbar:
    def test_z_bar(self, grid_32_64):
        g = GridFunction.from_function(grid_32_64, lambda z: np.conj(z))
        assert np.max(np.abs(dbar(g).values - 1.0)) <= 1e-11

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_analytic_monomials(self, grid_32_64, n):
        g = GridFunction.from_function(grid_32_64, lambda z: z**n)
        assert np.max(np.abs(dbar(g).values)) <= 1e-11

    def test_abs_squared(self, grid_32_64):
        g = GridFunction.from_function(grid_32_64, lambda z: np.abs(z) ** 2)
        assert np.max(np.abs(dbar(g).values - grid_32_64.nodes)) <= 1e-11

    def test_dz_on_z_squared(self, grid_32_64):
        g = GridFunction.from_function(grid_32_64, lambda z: z**2)
        assert np.max(np.abs(dz(g).values - 2.0 * grid_32_64.nodes)) <= 1e-11

    def test_too_coarse(self):
        grid = build_grid(4, 16)
        with pytest.raises(ValueError):
            dbar(GridFunction.constant(grid))


class TestAlphaFromF:
    def test_exp_x(self, grid_32_64):
        alpha = alpha_from_f(Conductivity.exp_x(grid_32_64, 1.0))
        assert np.max(np.abs(alpha.values - 0.5)) == 0.0

    def test_constant(self, grid_32_64):
        alpha = alpha_from_f(Conductivity.constant(grid_32_64, 2.0))
        assert np.max(np.abs(alpha.values)) == 0.0

    def test_exp_xy(self, grid_32_64):
        alpha = alpha_from_f(Conductivity.exp_xy(grid_32_64, 1.0))
        z = grid_32_64.nodes
        assert np.max(np.abs(alpha.values - (z.imag + 1j * z.real) / 2.0)) == 0.0

    def test_numerical_matches_closed_form(self, grid_32_64):
        f_exact = Conductivity.exp_x(grid_32_64, 0.3)
        f_grid = Conductivity.from_grid(f_exact.values, k_bound=np.exp(0.3))
        gap = alpha_from_f(f_grid) - alpha_from_f(f_exact)
        assert gap.norm() <= 1e-9

    def test_rejects_complex_values(self, grid_32_64):
        vals = GridFunction.from_function(grid_32_64, lambda z: 1.0 + 0.1j * z)
        with pytest.raises(ValueError):
            Conductivity.from_grid(vals, k_bound=2.0)

    def test_rejects_vanishing(self, grid_32_64):
        vals = GridFunction.from_function(grid_32_64, lambda z: z.real)
        with pytest.raises(ValueError):
            Conductivity.from_grid(vals, k_bound=2.0)


class TestTeodorescu:
    def test_constant_gives_z_bar(self, grid_64_128):
        t = teodorescu(GridFunction.constant(grid_64_128, 1.0))
        inner = np.abs(grid_64_128.nodes) <= 0.9
        assert np.max(np.abs(t.values - np.conj(grid_64_128.nodes))[inner]) <= 1e-6

    def test_zero(self, grid_32_64):
        t = teodorescu(GridFunction.constant(grid_32_64, 0.0))
        assert np.max(np.abs(t.values)) == 0.0

    def test_coarse_grid(self):
        # T needs no radial derivative, so grids too coarse for dbar work
        grid = build_grid(4, 16)
        t = teodorescu(GridFunction.constant(grid, 1.0))
        assert np.max(np.abs(t.values - np.conj(grid.nodes))) <= 1e-12
        with pytest.raises(ValueError):
            dbar(GridFunction.constant(grid))

    def test_z_closed_form(self, grid_32_64):
        t = teodorescu(GridFunction.from_function(grid_32_64, lambda z: z))
        expect = np.abs(grid_32_64.nodes) ** 2 - 1.0
        assert np.max(np.abs(t.values - expect)) <= 1e-12

    def test_z_bar_closed_form(self, grid_32_64):
        t = teodorescu(GridFunction.from_function(grid_32_64, lambda z: np.conj(z)))
        expect = np.conj(grid_32_64.nodes) ** 2 / 2.0
        assert np.max(np.abs(t.values - expect)) <= 1e-12

    def test_right_inverse_band_limited(self, grid_64_128):
        rng = np.random.default_rng(13)
        deg = grid_64_128.n_radial // 4
        coeffs = rng.standard_normal(deg) / np.arange(1, deg + 1) ** 2
        g = GridFunction.from_function(
            grid_64_128,
            lambda z: np.polyval(coeffs[::-1], z) + 0.5 * np.conj(z) ** 3,
        )
        res = (dbar(teodorescu(g)) - g).norm() / g.norm()
        assert res <= 1e-3

    def test_linearity(self, grid_32_64):
        rng = np.random.default_rng(3)
        g = GridFunction(grid_32_64, rng.standard_normal(grid_32_64.shape) * (1 + 1j))
        h = GridFunction(grid_32_64, rng.standard_normal(grid_32_64.shape) * (1 - 2j))
        lhs = teodorescu(2.0 * g - 1.5j * h)
        rhs = 2.0 * teodorescu(g) - 1.5j * teodorescu(h)
        assert (lhs - rhs).norm() <= 1e-13


class TestVekuaResidual:
    @pytest.mark.parametrize(
        "factory,eps",
        [(Conductivity.exp_x, 0.2), (Conductivity.exp_xy, 0.1)],
    )
    def test_f_and_i_over_f_are_members(self, grid_32_64, factory, eps):
        f = factory(grid_32_64, eps)
        alpha = alpha_from_f(f)
        assert vekua_residual(f.values, alpha, 16) <= 1e-6
        i_over_f = GridFunction(grid_32_64, 1j / f.values.values)
        assert vekua_residual(i_over_f, alpha, 16) <= 1e-6

    def test_z_bar_is_not_classical_member(self, grid_32_64):
        zb = GridFunction.from_function(grid_32_64, lambda z: np.conj(z))
        res = vekua_residual(zb, zero_alpha(grid_32_64), 16)
        assert abs(res - 1.0 / np.sqrt(2.0)) <= 1e-12

    def test_real_linear_subadditivity(self, grid_32_64):
        f = Conductivity.exp_x(grid_32_64, 0.2)
        alpha = alpha_from_f(f)
        w1 = vekua_lift(AnalyticCoeffs.unit(0, 6), alpha, tol=1e-10)
        w2 = vekua_lift(AnalyticCoeffs.unit(2, 6), alpha, tol=1e-10)
        for a, b in ((1.0, 1.0), (2.5, -0.7), (-1.1, 0.3)):
            combo = a * w1.w + b * w2.w
            bound = abs(a) * w1.residual + abs(b) * w2.residual + 1e-10
            assert vekua_residual(combo, alpha, 6) <= bound


class TestVekuaLift:
    def test_zero_alpha_returns_seed_exactly(self, grid_32_64):
        seed = AnalyticCoeffs(np.array([0.3, -1.0j, 0.8]))
        lifted = vekua_lift(seed, zero_alpha(grid_32_64), tol=1e-12)
        assert lifted.iterations == 1
        assert lifted.converged
        assert np.array_equal(lifted.w.values, seed.on_grid(grid_32_64).values)

    def test_contraction_ratio_scales_with_eps(self, grid_32_64):
        for eps, bound in ((0.1, 0.1), (0.2, 0.2)):
            alpha = alpha_from_f(Conductivity.exp_x(grid_32_64, eps))
            lifted = vekua_lift(AnalyticCoeffs.unit(0, 4), alpha, tol=1e-11)
            assert lifted.converged
            ratios = [
                b / a for a, b in zip(lifted.increments, lifted.increments[1:]) if a > 1e-13
            ]
            assert ratios and max(ratios) <= bound

    def test_lift_residuals(self, grid_32_64):
        alpha = alpha_from_f(Conductivity.exp_x(grid_32_64, 0.1))
        for n in range(4):
            lifted = vekua_lift(AnalyticCoeffs.unit(n, 4), alpha, tol=1e-10)
            assert lifted.residual <= 1e-6

    def test_divergence_detected(self, grid_16_64):
        alpha = GridFunction.constant(grid_16_64, 4.0)
        with pytest.raises(LiftDivergenceError):
            vekua_lift(AnalyticCoeffs.unit(0, 2), alpha, tol=1e-10)

    def test_max_iter_flags_non_convergence(self, grid_16_64):
        alpha = alpha_from_f(Conductivity.exp_x(grid_16_64, 0.4))
        lifted = vekua_lift(AnalyticCoeffs.unit(0, 2), alpha, tol=1e-14, max_iter=2)
        assert not lifted.converged

    def test_rejects_bad_tol(self, grid_16_64):
        with pytest.raises(ValueError):
            vekua_lift(AnalyticCoeffs.unit(0, 2), zero_alpha(grid_16_64), tol=0.0)


class TestSimilarity:
    def test_zero_alpha_gives_zero_factor(self, grid_32_64):
        w = VekuaFunction(
            w=AnalyticCoeffs(np.array([1.0, 0.2])).on_grid(grid_32_64),
            alpha=zero_alpha(grid_32_64),
            residual=0.0,
        )
        s = similarity_factor(w)
        assert np.max(np.abs(s.values)) == 0.0

    def test_defining_equation(self, grid_64_128):
        f = Conductivity.exp_x(grid_64_128, 0.2)
        alpha = alpha_from_f(f)
        w = VekuaFunction(w=f.values, alpha=alpha, residual=0.0)
        s = similarity_factor(w)
        ratio = GridFunction(grid_64_128, alpha.values * np.conj(w.w.values) / w.w.values)
        assert (dbar(s) - ratio).norm() / ratio.norm() <= 1e-3

    def test_factor_bound(self, grid_32_64):
        for eps in (0.1, 0.2, 0.4):
            f = Conductivity.exp_x(grid_32_64, eps)
            alpha = alpha_from_f(f)
            w = VekuaFunction(w=f.values, alpha=alpha, residual=0.0)
            s = similarity_factor(w)
            s_inf = np.max(np.abs(s.values))
            a_inf = np.max(np.abs(alpha.values))
            assert s_inf <= 4.0 * a_inf + 1e-8

    def test_analytic_remainder(self, grid_64_128):
        f = Conductivity.exp_x(grid_64_128, 0.2)
        alpha = alpha_from_f(f)
        lifted = vekua_lift(AnalyticCoeffs(np.array([1.0, 0.1])), alpha, tol=1e-11)
        s = similarity_factor(lifted)
        analytic = GridFunction(grid_64_128, lifted.w.values * np.exp(-s.values))
        assert dbar(analytic).norm() / analytic.norm() <= 1e-3

    def test_vanishing_w_rejected(self, grid_32_64):
        vals = np.ones(grid_32_64.shape, dtype=complex)
        vals[3, 5] = 0.0
        w = VekuaFunction(
            w=GridFunction(grid_32_64, vals),
            alpha=zero_alpha(grid_32_64),
            residual=0.0,
        )
        with pytest.raises(ValueError):
            similarity_factor(w)


class TestPfRestricted:
    def test_classical_projection(self, grid_32_64):
        w = VekuaFunction(
            w=AnalyticCoeffs(np.array([0.5, 1.0j, -0.2])).on_grid(grid_32_64),
            alpha=zero_alpha(grid_32_64),
            residual=0.0,
        )
        out = pf_restricted(w, 8)
        assert (out - w.w).norm() <= 1e-10

    def test_identity_on_lifted_elements(self, grid_32_64):
        alpha = alpha_from_f(Conductivity.exp_x(grid_32_64, 0.2))
        lifted = vekua_lift(AnalyticCoeffs.unit(1, 8), alpha, tol=1e-11)
        out = pf_restricted(lifted, 8)
        assert (out - lifted.w).norm() / lifted.w.norm() <= 1e-4

    def test_invariance_formula(self, basis_exp01_n8):
        _, basis = basis_exp01_n8
        rng = np.random.default_rng(21)
        grid = basis.grid
        for _ in range(5):
            coeffs = rng.standard_normal(basis.size)
            h = GridFunction(
                grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            )
            assert invariance_defect(basis, coeffs, h) <= 1e-6


class TestPdeDiagnostics:
    def test_classical_harmonic(self, grid_64_128):
        f = Conductivity.constant(grid_64_128, 1.0)
        for n in (1, 3):
            w = VekuaFunction(
                w=GridFunction.from_function(grid_64_128, lambda z, n=n: z**n),
                alpha=zero_alpha(grid_64_128),
                residual=0.0,
            )
            r0, r1 = metaharmonic_residuals(w, f)
            assert r0 <= 1e-3 and r1 <= 1e-3
            assert beltrami_residual(w, f) <= 1e-3

    def test_w_equals_f_is_exact(self, grid_64_128):
        f = Conductivity.exp_x(grid_64_128, 0.2)
        w = VekuaFunction(w=f.values, alpha=alpha_from_f(f), residual=0.0)
        r0, r1 = metaharmonic_residuals(w, f)
        assert r0 <= 1e-9 and r1 == 0.0
        assert beltrami_residual(w, f) <= 1e-9

    def test_i_over_f(self, grid_64_128):
        f = Conductivity.exp_x(grid_64_128, 0.2)
        w = VekuaFunction(
            w=GridFunction(grid_64_128, 1j / f.values.values),
            alpha=alpha_from_f(f),
            residual=0.0,
        )
        assert beltrami_residual(w, f) <= 1e-2

    def test_lifted_residuals_and_refinement(self, grid_64_128, grid_128_256):
        seed = AnalyticCoeffs(np.array([0.3, 1.0, 0.2j]))
        results = {}
        for grid in (grid_64_128, grid_128_256):
            f = Conductivity.exp_x(grid, 0.2)
            alpha = alpha_from_f(f)
            lifted = vekua_lift(seed, alpha, tol=1e-11)
            m0, m1 = metaharmonic_residuals(lifted, f)
            results[grid.n_radial] = (m0, m1, beltrami_residual(lifted, f))
        coarse, fine = results[64], results[128]
        assert max(coarse) <= 1e-2
        for c, fval in zip(coarse, fine):
            assert np.log2(c / fval) >= 1.0

    def test_nonharmonicity_witness(self, grid_64_128):
        f = Conductivity.exp_x(grid_64_128, 0.2)
        alpha = alpha_from_f(f)
        lifted = vekua_lift(AnalyticCoeffs(np.array([0.3, 1.0, 0.2j])), alpha, tol=1e-11)
        assert np.max(np.abs(lifted.w.values.real)) > 0.1
        assert np.max(np.abs(lifted.w.values.imag)) > 0.1
        meta = max(metaharmonic_residuals(lifted, f))
        lap = laplacian_residual(lifted.w)
        assert lap > 1e-4
        assert lap > 100.0 * meta

    def test_grid_mismatch_guard(self, grid_64_128, grid_32_64):
        f = Conductivity.exp_x(grid_64_128, 0.2)
        w = VekuaFunction(
            w=GridFunction.constant(grid_32_64, 1.0),
            alpha=zero_alpha(grid_32_64),
            residual=0.0,
        )
        with pytest.raises(ValueError):
            metaharmonic_residuals(w, f)


class TestClassicalReduction:
    """Every operation with alpha == 0 reproduces the Bergman machinery."""

    def test_residual_matches_projection_defect(self, grid_32_64):
        rng = np.random.default_rng(17)
        g = GridFunction(
            grid_32_64,
            rng.standard_normal(grid_32_64.shape) + 1j * rng.standard_normal(grid_32_64.shape),
        )
        alpha = zero_alpha(grid_32_64)
        direct = (g - project(g, 10).on_grid(grid_32_64)).norm()
        assert abs(vekua_residual(g, alpha, 10) - direct) <= 1e-10

    def test_basis_of_identity_conductivity(self, grid_32_64):
        f = Conductivity.constant(grid_32_64, 1.0)
        alpha = alpha_from_f(f)
        for n in range(3):
            seed = AnalyticCoeffs.unit(n, 4)
            lifted = vekua_lift(seed, alpha, tol=1e-12)
            assert np.array_equal(lifted.w.values, seed.on_grid(grid_32_64).values)


class TestVekuaBasisType:
    def test_real_linear_independence_reported(self, basis_exp01_n8):
        _, basis = basis_exp01_n8
        assert basis.min_eigenvalue() > 1e-8

    def test_span_projection_reproduces_members(self, basis_exp01_n8):
        _, basis = basis_exp01_n8
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(basis.size)
        member = basis.synthesize(coeffs)
        recovered = basis.project_span(member)
        assert np.max(np.abs(recovered - coeffs)) <= 1e-9


def _reference_teodorescu(grid, values):
    """The per-ring recurrence the per-mode matrices were derived from.

    Dense DFT analysis and synthesis, and the one-sided radial integrals
    accumulated ring by ring with the same panels, interpolation and
    odd-mode reduction as the operator.
    """
    n_r, n_t = grid.shape
    r, s, log_r = grid.radial_nodes, grid.s_nodes, np.log(grid.radial_nodes)
    ks = ((np.arange(n_t) + n_t // 2) % n_t) - n_t // 2
    modes = (np.exp(-1j * np.outer(ks, grid.thetas)) / n_t) @ values.T  # (modes, n_r)
    parity = (np.abs(ks) % 2).astype(float)
    reduced = np.where(parity[:, None] > 0.0, modes / r[None, :], modes)
    edges = np.concatenate(([0.0], s, [1.0]))
    x, w = np.polynomial.legendre.leggauss(10)
    mid, half = (edges[:-1] + edges[1:]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    aux_s = mid[:, None] + half[:, None] * x[None, :]
    aux_w = half[:, None] * w[None, :]
    log_a = 0.5 * np.log(aux_s)
    n_st = min(8, n_r)
    aux = np.empty((ks.size, n_r + 1, 10), dtype=complex)
    for ell in range(n_r + 1):
        start = min(max(ell - n_st // 2, 0), n_r - n_st)
        nodes = s[start : start + n_st]
        bw = np.array([1.0 / np.prod(np.delete(nodes, t) - nodes[t]) for t in range(n_st)])
        terms = bw[None, :] / (aux_s[ell][:, None] - nodes[None, :])
        interp = terms / terms.sum(axis=1)[:, None]
        aux[:, ell, :] = reduced[:, start : start + n_st] @ interp.T
    t_modes = np.zeros((ks.size, n_r), dtype=complex)
    mi = np.nonzero(ks <= 0)[0]
    p, par = 1.0 - ks[mi], parity[mi]
    cur = np.zeros(mi.size, dtype=complex)
    for i in range(n_r):
        if i > 0:
            cur = cur * np.exp(p * (log_r[i - 1] - log_r[i]))
        powfac = np.exp(
            (p - 1.0)[:, None] * (log_a[i] - log_r[i])[None, :] + par[:, None] * log_a[i][None, :]
        )
        cur = cur + np.einsum("mq,q,mq->m", aux[mi, i, :], aux_w[i], powfac) / r[i]
        t_modes[mi, i] = cur
    mo = np.nonzero(ks >= 1)[0]
    k, par = ks[mo] - 1.0, parity[mo]
    cur = np.zeros(mo.size, dtype=complex)
    for i in range(n_r - 1, -1, -1):
        if i < n_r - 1:
            cur = cur * np.exp(k * (log_r[i] - log_r[i + 1]))
        powfac = np.exp(
            k[:, None] * (log_r[i] - log_a[i + 1])[None, :]
            + (par - 1.0)[:, None] * log_a[i + 1][None, :]
        )
        cur = cur + np.einsum("mq,q,mq->m", aux[mo, i + 1, :], aux_w[i + 1], powfac)
        t_modes[mo, i] = -cur
    return (np.exp(1j * np.outer(grid.thetas, ks - 1)) @ t_modes).T


def _dense_fourier_diff(n):
    """Trigonometric differentiation matrix on n equispaced angles."""
    j = np.arange(n)
    diff = j[:, None] - j[None, :]
    d = np.zeros((n, n))
    off = diff != 0
    trig = np.tan if n % 2 == 0 else np.sin
    d[off] = 0.5 * (-1.0) ** diff[off] / trig(np.pi * diff[off] / n)
    return d


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestModeMatrices:
    @pytest.mark.parametrize("shape", [(12, 24), (24, 96), (32, 64), (7, 9)])
    def test_matches_ring_recurrence(self, shape):
        grid = build_grid(*shape)
        rng = np.random.default_rng(5)
        for _ in range(3):
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            t = teodorescu(GridFunction(grid, v)).values
            assert _rel(t, _reference_teodorescu(grid, v)) <= 1e-13

    def test_stack_equals_single_applies(self, grid_24_96):
        rng = np.random.default_rng(6)
        stack = rng.standard_normal((3,) + grid_24_96.shape) * (1 - 0.5j)
        batched = grid_24_96.teodorescu.apply(stack)
        assert batched.shape == stack.shape
        for b in range(3):
            single = teodorescu(GridFunction(grid_24_96, stack[b])).values
            assert _rel(batched[b], single) <= 1e-14

    @pytest.mark.parametrize("shape", [(4, 16), (24, 96), (64, 128)])
    def test_constant_gives_z_bar_to_rounding(self, shape):
        grid = build_grid(*shape)
        t = teodorescu(GridFunction.constant(grid, 1.0))
        assert np.max(np.abs(t.values - np.conj(grid.nodes))) <= 1e-14


class TestAngularDerivative:
    @pytest.mark.parametrize("n_theta", [24, 25, 96, 256])
    def test_fft_matches_dense_matrix(self, n_theta):
        grid = build_grid(6, n_theta)
        dense = _dense_fourier_diff(n_theta)
        rng = np.random.default_rng(n_theta)
        v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        for values in (v, v.real):
            d = grid.dtheta(values)
            assert np.isrealobj(d) == np.isrealobj(values)
            assert _rel(d, values @ dense.T) <= 2.3e-15


class TestBatchedLift:
    def test_space_equals_separate_lifts(self, grid_16_64):
        # grid samples of f: build_fbep_space lifts them by the Neumann batch
        exp_xy = Conductivity.exp_xy(grid_16_64, 1.75)
        f = Conductivity.from_grid(exp_xy.values, exp_xy.k_bound)
        alpha = alpha_from_f(f)
        basis = build_fbep_space(f, 6, tol=1e-10)
        units = [AnalyticCoeffs.unit(n, 6).coeffs for n in range(7)]
        seeds = [AnalyticCoeffs(u * c) for u in (1.0, 1.0j) for c in units]
        assert basis.size == len(seeds)
        for element, seed in zip(basis.elements, seeds):
            alone = vekua_lift(seed, alpha, tol=1e-10)
            assert element.iterations == alone.iterations
            assert element.converged and alone.converged
            # each seed stops at its first increment <= tol
            assert element.increments[-1] <= 1e-10 < min(element.increments[:-1])
            np.testing.assert_allclose(element.increments, alone.increments, rtol=1e-9, atol=1e-15)
            assert np.max(np.abs(element.w.values - alone.w.values)) <= 1e-13
            assert abs(element.residual - alone.residual) <= 1e-13

    def test_batched_residuals_match_per_seed(self, grid_16_64):
        from bergbep.bergman import basis_matrix

        f = Conductivity.exp_xy(grid_16_64, 1.75)
        alpha = alpha_from_f(f)
        basis = build_fbep_space(f, 6, tol=1e-10)
        e = basis_matrix(grid_16_64, 6)
        w = grid_16_64.weights.ravel()
        for element in basis.elements:
            assert abs(element.residual - vekua_residual(element.w, alpha, 6)) <= 1e-14
            # the dense projection as reference
            u = (element.w - teodorescu(alpha * element.w.conj())).values.ravel()
            u = u - e @ (e.conj().T @ (w * u))
            assert abs(element.residual - np.sqrt(np.sum(w * np.abs(u) ** 2))) <= 1e-14

    def test_one_diverging_seed_in_a_batch(self):
        # under exp(2.5 x) the lift of e_0 diverges while e_2 and e_3 converge
        grid = build_grid(8, 32)
        alpha = alpha_from_f(Conductivity.exp_x(grid, 2.5))
        seeds = [AnalyticCoeffs.unit(n, 3) for n in (2, 0, 3)]
        out = _lift_batch(seeds, alpha, 1e-9, 60)
        assert isinstance(out[1], LiftDivergenceError)
        with pytest.raises(LiftDivergenceError) as alone:
            vekua_lift(seeds[1], alpha)
        assert str(out[1]) == str(alone.value)
        for b in (0, 2):
            assert out[b].converged
            assert out[b].iterations == vekua_lift(seeds[b], alpha).iterations
        exp_x = Conductivity.exp_x(grid, 2.5)
        with pytest.raises(ConvergenceError, match="lift of seed e_0 diverged"):
            build_fbep_space(Conductivity.from_grid(exp_x.values, exp_x.k_bound), 3)


def _dense_lift_oracle(f, degree):
    """Lifts of e_0..e_N, i e_0..i e_N from the dense realified v -> v - T[alpha conj(v)].

    The matrix is assembled column by column from batched Teodorescu
    applies to the unit inputs (real and imaginary) and solved densely.
    """
    grid = f.grid
    alpha = alpha_from_f(f).values
    size = grid.n_radial * grid.angular_count
    columns = []
    for start in range(0, 2 * size, 256):
        units = np.zeros((min(256, 2 * size - start), size), dtype=complex)
        idx = np.arange(start, start + units.shape[0])
        units[np.arange(units.shape[0]), idx % size] = np.where(idx < size, 1.0, 1.0j)
        units = units.reshape((-1,) + grid.shape)
        out = units - grid.teodorescu.apply(alpha * np.conj(units))
        out = out.reshape(units.shape[0], size)
        columns.append(np.concatenate((out.real, out.imag), axis=1).T)
    matrix = np.concatenate(columns, axis=1)
    vals = np.stack(
        [
            AnalyticCoeffs(u * AnalyticCoeffs.unit(n, degree).coeffs).on_grid(grid).values.ravel()
            for u in (1.0, 1.0j)
            for n in range(degree + 1)
        ]
    )
    sol = np.linalg.solve(matrix, np.concatenate((vals.real, vals.imag), axis=1).T).T
    return (sol[:, :size] + 1j * sol[:, size:]).reshape((-1,) + grid.shape)


def _closed_lifts(f, degree, tol=1e-12):
    return _mode_pair_lift(alpha_from_f(f), _alpha_mode(f), degree, tol).elements


class TestModePairLift:
    @pytest.mark.parametrize(
        "kind, eps", [("exp_x", 0.8), ("exp_x", 2.5), ("exp_xy", 1.75), ("exp_xy", 6.0)]
    )
    def test_matches_dense_oracle(self, grid_16_64, kind, eps):
        f = getattr(Conductivity, kind)(grid_16_64, eps)
        oracle = _dense_lift_oracle(f, 6)
        lifts = _closed_lifts(f, 6)
        assert len(lifts) == oracle.shape[0] == 14
        for lifted, ref in zip(lifts, oracle):
            assert _rel(lifted.w.values, ref) <= 1e-12
            assert lifted.converged and lifted.iterations == 1
            assert lifted.increments[0] <= 1e-13

    def test_constant_returns_seeds(self, grid_16_64):
        f = Conductivity.constant(grid_16_64, 2.0)
        for b, lifted in enumerate(_closed_lifts(f, 6)):
            unit = 1.0 if b < 7 else 1.0j
            seed = AnalyticCoeffs(unit * AnalyticCoeffs.unit(b % 7, 6).coeffs)
            assert np.max(np.abs(lifted.w.values - seed.on_grid(grid_16_64).values)) <= 1e-15

    @pytest.mark.parametrize(
        "kind, eps, shape, degree",
        [
            ("exp_x", 0.8, (16, 64), 6),
            ("exp_x", 2.5, (16, 64), 6),
            ("exp_xy", 1.75, (16, 64), 6),
            ("exp_xy", 6.0, (16, 64), 6),
            ("exp_x", 0.5, (8, 31), 15),  # e_15 in a collided pair
            ("exp_xy", 0.5, (8, 32), 15),  # e_15 in a collided pair
            ("exp_xy", 0.5, (8, 31), 15),  # e_14 and e_15 in each other's modes
        ],
    )
    def test_certificate_matches_grid_apply(self, kind, eps, shape, degree):
        # the pair-system defects and residuals against the grid Teodorescu
        # apply to the lift samples, which the certificate replaces
        from bergbep.vekua import _analytic_modes, _mode_norms, _span_distances

        grid = build_grid(*shape)
        f = getattr(Conductivity, kind)(grid, eps)
        alpha = alpha_from_f(f)
        lifts = _closed_lifts(f, degree)
        w = np.stack([lifted.w.values for lifted in lifts])
        modes = _analytic_modes(w, alpha).reshape(2, degree + 1, *grid.shape)
        n = np.arange(degree + 1)
        seeds = np.sqrt(n + 1.0) * grid.radial_nodes[:, None] ** n  # e_n on the rings
        residuals = _span_distances(grid, modes.copy(), degree).ravel()
        modes[0, n, :, n] -= seeds.T
        modes[1, n, :, n] -= 1j * seeds.T
        defects = _mode_norms(grid, modes).ravel()
        for lifted, defect, residual in zip(lifts, defects, residuals):
            assert abs(lifted.increments[0] - defect) <= 1e-14
            assert abs(lifted.residual - residual) <= 1e-14

    @pytest.mark.parametrize("kind, shape", [("exp_x", (8, 31)), ("exp_xy", (8, 32))])
    def test_collided_pair_at_exactness_limit(self, kind, shape):
        # modes n and s - 1 - n coincide for n = (n_theta - 1)/2 (exp_x, odd
        # n_theta) and n = n_theta/2 - 1 (exp_xy, even n_theta)
        grid = build_grid(*shape)
        f = getattr(Conductivity, kind)(grid, 0.1)
        alpha = alpha_from_f(f)
        degree = n = grid.exactness_degree // 2
        assert (_alpha_mode(f)[1] - 1 - n) % grid.angular_count == n
        lifts = _closed_lifts(f, degree)
        seeds = [AnalyticCoeffs(u * AnalyticCoeffs.unit(n, degree).coeffs) for u in (1.0, 1.0j)]
        neumann = _lift_batch(seeds, alpha, 1e-13, 60)
        for lifted, ref in zip((lifts[n], lifts[2 * n + 1]), neumann):
            assert lifted.increments[0] <= 1e-13
            assert ref.converged
            assert np.max(np.abs(lifted.w.values - ref.w.values)) <= 1e-9

    @pytest.mark.parametrize("kind, eps", [("const", 0.0), ("exp_x", 1.3), ("exp_xy", -2.2)])
    def test_alpha_mode_matches_formula_in_z(self, grid_16_64, kind, eps):
        # alpha_from_f builds the closed forms from _alpha_mode's a(r) e^{i s theta};
        # dbar(f)/f written in z = x + i y is 0, eps/2 and eps (y + i x)/2
        z = grid_16_64.nodes
        if kind == "const":
            f = Conductivity.constant(grid_16_64, 3.0)
            expected = np.zeros_like(z)
        elif kind == "exp_x":
            f = Conductivity.exp_x(grid_16_64, eps)
            expected = np.full_like(z, eps / 2.0)
        else:
            f = Conductivity.exp_xy(grid_16_64, eps)
            expected = eps * (z.imag + 1j * z.real) / 2.0
        assert np.max(np.abs(alpha_from_f(f).values - expected)) <= 1e-15

    def test_grid_sampled_has_no_mode(self, grid_16_64):
        f = Conductivity.exp_x(grid_16_64, 0.5)
        assert _alpha_mode(Conductivity.from_grid(f.values, f.k_bound)) is None

    @pytest.mark.parametrize(
        "slot, kind, eps",
        [
            (0, "exp_x", 0.1), (0, "exp_x", 0.8), (0, "exp_x", 1.5),
            (0, "exp_xy", 0.5), (0, "exp_xy", 1.75), (0, "exp_xy", 3.0),
            (1, "exp_x", 0.1), (1, "exp_xy", 1.5),
        ],
    )
    def test_matches_neumann_on_contrast_ladder(self, grid_24_96, grid_32_64, slot, kind, eps):
        grid, degree = ((grid_24_96, 12), (grid_32_64, 8))[slot]
        f = getattr(Conductivity, kind)(grid, eps)
        alpha = alpha_from_f(f)
        seeds = [
            AnalyticCoeffs(u * AnalyticCoeffs.unit(n, degree).coeffs)
            for u in (1.0, 1.0j)
            for n in range(degree + 1)
        ]
        for lifted, ref in zip(_closed_lifts(f, degree), _lift_batch(seeds, alpha, 1e-12, 100)):
            assert ref.converged
            assert np.max(np.abs(lifted.w.values - ref.w.values)) <= 1e-9

    @pytest.mark.parametrize(
        "kind, eps", [("exp_x", 2.0), ("exp_x", 3.0), ("exp_x", 4.0), ("exp_xy", 6.0)]
    )
    def test_defect_beyond_contraction(self, grid_24_96, kind, eps):
        f = getattr(Conductivity, kind)(grid_24_96, eps)
        lifts = _closed_lifts(f, 12)
        assert max(lifted.increments[0] for lifted in lifts) <= 1e-13
        alpha = alpha_from_f(f)
        for lifted in lifts[::5]:  # the certificate agrees with the public residual
            assert abs(lifted.residual - vekua_residual(lifted.w, alpha, 12)) <= 1e-14

    def test_unreachable_tol_flags_every_lift(self, grid_16_64):
        f = Conductivity.exp_x(grid_16_64, 0.8)
        assert not any(lifted.converged for lifted in _closed_lifts(f, 4, tol=1e-30))
        with pytest.raises(ConvergenceError, match="seed e_0 has fixed-point defect"):
            build_fbep_space(f, 4, tol=1e-30)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
    def test_tol_must_be_positive_and_finite(self, grid_16_64, tol):
        f = Conductivity.exp_x(grid_16_64, 0.8)
        seed = AnalyticCoeffs.unit(1, 3)
        with pytest.raises(ValueError, match="tol"):
            vekua_lift(seed, alpha_from_f(f), tol=tol)
        with pytest.raises(ValueError, match="tol"):
            _closed_lifts(f, 3, tol=tol)


class TestOpsCache:
    """A grid holds its operators: built once, freed with the grid."""

    def test_teodorescu_built_once(self, monkeypatch):
        from bergbep import grid as grid_module

        builds = []
        build = grid_module._TeodorescuOperator

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(grid_module, "_TeodorescuOperator", counting)
        grid = build_grid(8, 16)
        first = teodorescu(GridFunction.constant(grid, 1.0))
        second = teodorescu(GridFunction.constant(grid, 1.0))
        assert len(builds) == 1
        assert np.array_equal(first.values, second.values)

    def test_operators_freed_with_grid(self):
        grid = build_grid(8, 16)
        teodorescu(GridFunction.constant(grid, 1.0))
        dbar(GridFunction.constant(grid, 1.0))
        refs = [weakref.ref(grid.teodorescu), weakref.ref(grid.radial_derivatives[0])]
        del grid
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_norm_grids_are_released(self, grid_24_96):
        # the norm grid of a shape is built once and reused, and a grid
        # evicted from the bounded cache releases its Teodorescu operator
        f = Conductivity.exp_x(grid_24_96, 0.2)
        j_region = Region.annulus(0.5)
        restriction_map_norm(f, j_region)
        before = _norm_grid.cache_info()
        for _ in range(10):
            restriction_map_norm(f, j_region)
        after = _norm_grid.cache_info()
        assert (after.hits, after.misses) == (before.hits + 10, before.misses)
        operator = weakref.ref(_norm_grid((12, 24)).teodorescu)
        for n_theta in range(8, 8 + after.maxsize):  # every other shape, each used once
            _norm_grid((5, n_theta))
        gc.collect()
        assert operator() is None
