import copy
import dataclasses
import gc
import logging
import re
import weakref

import numpy as np
import pytest

from bergbep import (
    AnalyticCoeffs,
    BepProblem,
    Conductivity,
    ConvergenceError,
    FbepProblem,
    GridFunction,
    GridMismatchError,
    InfeasibleProblemError,
    Region,
    VekuaBasis,
    build_fbep_space,
    directional_kkt_check,
    fbep_conjecture_check,
    build_grid,
    invariance_defect,
    restriction_map_norm,
    solve_bep,
    solve_fbep,
    teodorescu,
    transformed_constraint_data,
)
from bergbep.bep import _LAMBDA_FLOOR, ConstrainedLSQ
from bergbep.vekua import (
    VekuaFunction,
    _lift_batch,
    _normal_top_eigenvalue,
    alpha_from_f,
    vekua_residual,
)


def make_problem(grid, f, m=0.1, degree=8, h_k_val=1.0, lift_tol=1e-9):
    k = Region.radial_disc(0.5)
    return FbepProblem(
        f=f,
        k_region=k,
        j_region=k.complement(),
        h_k=GridFunction.constant(grid, h_k_val),
        h_j=GridFunction.constant(grid, 0.0),
        m=m,
        degree=degree,
        lift_tol=lift_tol,
    )


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _grid_sampled(f):
    """The same conductivity as bare grid samples, with alpha differentiated numerically."""
    return Conductivity.from_grid(f.values, f.k_bound)


class TestBuildSpace:
    def test_identity_conductivity_gives_seeds(self, grid_32_64):
        f = Conductivity.constant(grid_32_64, 1.0)
        basis = build_fbep_space(f, 3)
        assert basis.size == 8
        for n in range(4):
            seed = AnalyticCoeffs.unit(n, 3)
            imag_seed = AnalyticCoeffs(1j * seed.coeffs)
            assert np.array_equal(
                basis.elements[n].w.values, seed.on_grid(grid_32_64).values
            )
            assert np.array_equal(
                basis.elements[4 + n].w.values, imag_seed.on_grid(grid_32_64).values
            )

    def test_all_lifts_converge(self, basis_exp01_n8):
        _, basis = basis_exp01_n8
        assert basis.size == 18
        for element in basis.elements:
            assert element.converged
            assert element.residual <= 1e-6

    def test_f_and_i_over_f_in_span(self, basis_exp01_n8):
        f, basis = basis_exp01_n8
        for target in (f.values, GridFunction(f.grid, 1j / f.values.values)):
            fitted = basis.synthesize(basis.project_span(target))
            assert (fitted - target).norm() / target.norm() <= 1e-4

    def test_divergent_lift_reported_with_seed(self, grid_16_64):
        # a grid-sampled f keeps the Neumann iteration, which diverges here
        f = _grid_sampled(Conductivity.exp_x(grid_16_64, 8.0))
        with pytest.raises(ConvergenceError, match="e_0"):
            build_fbep_space(f, 2)

    @pytest.mark.parametrize(
        "kind, eps, increment",
        [("exp_x", 2.0, "1.308e-05"), ("exp_xy", 6.0, "6.376e\\+05")],
    )
    def test_stalled_lift_rejected(self, kind, eps, increment):
        # the Neumann lift of e_0 on the exact alpha stalls (exp_x) or blows
        # up in oscillation (exp_xy) without tripping the divergence
        # detector, and stops at the 60-step cap; build_fbep_space lifts these closed
        # forms by mode pairs instead
        f = getattr(Conductivity, kind)(build_grid(8, 32), eps)
        seeds = [
            AnalyticCoeffs(unit * AnalyticCoeffs.unit(n, 2).coeffs)
            for unit in (1.0, 1.0j)
            for n in range(3)
        ]
        lifted = _lift_batch(seeds, alpha_from_f(f), 1e-9)[0]
        assert not lifted.converged
        assert lifted.iterations == 60
        assert re.fullmatch(increment, f"{lifted.increments[-1]:.3e}")

    @pytest.mark.parametrize("kind, eps", [("exp_x", 2.0), ("exp_xy", 6.0)])
    def test_stalled_lift_rejected_grid_sampled(self, kind, eps):
        # on the grid samples of f the Neumann lift of e_0 stalls (exp_x) or
        # blows up in oscillation (exp_xy) without tripping the divergence
        # detector, and reaches max_iter
        f = _grid_sampled(getattr(Conductivity, kind)(build_grid(8, 32), eps))
        pattern = "seed e_0 did not converge in 60 iterations \\(last increment "
        with pytest.raises(ConvergenceError, match=pattern):
            build_fbep_space(f, 2)

    @pytest.mark.parametrize("kind, eps", [("exp_x", 2.0), ("exp_x", 2.5), ("exp_xy", 6.0)])
    def test_closed_forms_beyond_contraction_lift(self, kind, eps):
        # the same inputs in closed form take the mode-pair lift
        basis = build_fbep_space(getattr(Conductivity, kind)(build_grid(8, 32), eps), 2)
        for element in basis.elements:
            assert element.converged and element.iterations == 1
            assert element.increments[0] <= 1e-13
            assert element.residual <= 1e-13

    @pytest.mark.parametrize("m", [np.nan, np.inf, 0.0, -1.0])
    def test_budget_validated(self, m):
        # NaN passes "m <= 0" and used to saturate against a NaN budget
        grid = build_grid(12, 48)
        with pytest.raises(ValueError, match="constraint level M must be positive and finite"):
            make_problem(grid, Conductivity.exp_x(grid, 0.1), m=m)

    def test_lift_tol_validated(self, grid_16_64):
        f = Conductivity.exp_x(grid_16_64, 0.1)
        for tol in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="lift tolerance"):
                make_problem(grid_16_64, f, degree=2, lift_tol=tol)


class TestSolveFbep:
    def test_iterations_from_core(self, grid_32_64, basis_exp01_n8):
        f, basis = basis_exp01_n8
        p = make_problem(grid_32_64, f)
        sol = solve_fbep(p, basis)
        core = ConstrainedLSQ.from_problem(p, basis)
        assert sol.iterations == core.solve(p.m).iterations
        assert sol.iterations > 0

    def test_reduction_to_bep(self, grid_24_96):
        f = Conductivity.constant(grid_24_96, 1.0)
        k = Region.radial_disc(0.5)
        h_k = GridFunction.constant(grid_24_96, 1.0)
        h_j = GridFunction.constant(grid_24_96, 0.0)
        pf = FbepProblem(
            f=f, k_region=k, j_region=k.complement(), h_k=h_k, h_j=h_j, m=0.1, degree=16
        )
        pb = BepProblem(
            k_region=k, j_region=k.complement(), h_k=h_k, h_j=h_j, m=0.1, degree=16
        )
        sf = solve_fbep(pf)
        sb = solve_bep(pb, degree_diagnostic=False)
        as_complex = sf.coeffs[:17] + 1j * sf.coeffs[17:]
        assert np.max(np.abs(as_complex - sb.g0.coeffs)) <= 1e-8
        assert abs(sf.lam - sb.lam) <= 1e-7

    def test_attainable_data(self, basis_exp01_n8):
        f, basis = basis_exp01_n8
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(basis.size) * 0.3
        member = basis.synthesize(coeffs)
        k = Region.radial_disc(0.5)
        p = FbepProblem(
            f=f,
            k_region=k,
            j_region=k.complement(),
            h_k=member,
            h_j=member,
            m=1.0,
            degree=8,
        )
        sol = solve_fbep(p, basis=basis)
        assert not sol.saturated
        assert sol.err_k <= 1e-8

    def test_inactive_reports_bep_lambda(self, grid_24_96):
        # one multiplier rule: lambda stays inside (-1, inf) when the budget is slack
        k = Region.radial_disc(0.5)
        h = AnalyticCoeffs(np.array([1.0, 0.5j])).on_grid(grid_24_96)
        data = dict(k_region=k, j_region=k.complement(), h_k=h, h_j=h, m=1.0, degree=8)
        sf = solve_fbep(FbepProblem(f=Conductivity.constant(grid_24_96), **data))
        sb = solve_bep(BepProblem(**data))
        assert not sf.saturated and not sb.saturated
        assert sf.lam == sb.lam > -1.0
        assert sf.mu > 0.0

    def test_inactive_certificates_at_one_multiplier(self, grid_24_96):
        # an inactive solve's coefficients solve mu = 0, so both optimality
        # certificates are taken there, while lambda stays just above -1
        k = Region.radial_disc(0.5)
        h = AnalyticCoeffs(np.array([1.0, 0.5j])).on_grid(grid_24_96)
        data = dict(k_region=k, j_region=k.complement(), h_k=h, h_j=h, m=1.0, degree=8)
        pf = FbepProblem(f=Conductivity.constant(grid_24_96), **data)
        pb = BepProblem(**data)
        sf, sb = solve_fbep(pf), solve_bep(pb)
        assert not sf.saturated and not sb.saturated
        assert sf.lam == sb.lam == _LAMBDA_FLOOR
        core_f, core_b = ConstrainedLSQ.from_problem(pf, sf.basis), ConstrainedLSQ.from_problem(pb)
        grad_f, grad_b = core_f.kkt(sf.coeffs, 0.0), core_b.kkt(sb.g0.coeffs, 0.0)
        assert sf.kkt_residual == float(np.linalg.norm(grad_f))
        assert sb.kkt_residual == float(np.linalg.norm(grad_b))
        expected = float(np.linalg.norm(core_f.whiten.T @ grad_f)) / sf.w_star.norm()
        assert fbep_conjecture_check(pf, sf) == expected

    def test_degree_beyond_exactness_rejected(self):
        # 8x16 integrates z^m conj(z)^n exactly up to m + n = 15, so N <= 7
        grid = build_grid(8, 16)
        f = Conductivity.constant(grid)
        with pytest.raises(ValueError, match="too large for grid exactness 15"):
            make_problem(grid, f, degree=12)
        assert make_problem(grid, f, degree=7).degree == 7

    def test_solved_problem_releases_grid_and_regions(self):
        # the per-grid and per-region caches hold the grid weakly; the ring facts of
        # both regions are kept on the regions alone
        def solved():
            grid = build_grid(12, 48)
            p = make_problem(grid, Conductivity.exp_x(grid, 0.1), degree=6)
            sol = solve_fbep(p)
            fbep_conjecture_check(p, sol)
            transformed_constraint_data(p)
            for region in (p.k_region, p.j_region):
                kept = region._resolved[grid]
                assert gc.get_referrers(kept["ring_facts"]) == [kept]
            return [weakref.ref(obj) for obj in (grid, p.k_region, p.j_region)]

        refs = solved()
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    def test_saturation_and_kkt(self, basis_exp01_n8):
        f, basis = basis_exp01_n8
        p = make_problem(f.grid, f)
        sol = solve_fbep(p, basis=basis)
        assert sol.saturated
        assert abs(sol.err_j - p.m) <= 1e-6 * max(1.0, p.m)
        assert directional_kkt_check(p, sol, seed=0) >= -1e-6

    def test_vekua_defect_bound(self, basis_exp01_n8):
        f, basis = basis_exp01_n8
        p = make_problem(f.grid, f)
        sol = solve_fbep(p, basis=basis)
        assert sol.vekua_defect <= 1e-9 * max(1.0, np.abs(sol.coeffs).sum())

    def test_homogeneity(self, basis_exp01_n8):
        f, basis = basis_exp01_n8
        p1 = make_problem(f.grid, f, m=0.1, h_k_val=1.0)
        t = 3.7
        p2 = make_problem(f.grid, f, m=t * 0.1, h_k_val=t)
        s1 = solve_fbep(p1, basis=basis)
        s2 = solve_fbep(p2, basis=basis)
        assert np.max(np.abs(s2.coeffs - t * s1.coeffs)) <= 1e-9 * t

    def test_infeasible(self, grid_32_64):
        f = Conductivity.exp_x(grid_32_64, 0.1)
        k = Region.radial_disc(0.5)
        p = FbepProblem(
            f=f,
            k_region=k,
            j_region=k.complement(),
            h_k=GridFunction.constant(grid_32_64, 0.0),
            h_j=GridFunction.from_function(grid_32_64, lambda z: np.conj(z)),
            m=1e-8,
            degree=4,
        )
        with pytest.raises(InfeasibleProblemError):
            solve_fbep(p)

    def test_duplicate_elements_dropped(self, basis_exp01_n8):
        f, basis = basis_exp01_n8
        doubled = VekuaBasis(alpha=basis.alpha, elements=basis.elements + basis.elements)
        p = make_problem(f.grid, f)
        sol = solve_fbep(p, basis=doubled)
        assert sol.dropped == basis.size
        assert abs(sol.err_j - p.m) <= 1e-6


class TestSelfAdjointSurrogate:
    @pytest.mark.parametrize("region_fn", [Region.radial_disc, lambda a: Region.sector(2 * a)])
    def test_region_form_symmetric(self, basis_exp01_n8, region_fn):
        _, basis = basis_exp01_n8
        region = region_fn(0.5)
        w = region.weights(basis.grid).ravel()
        mat = basis.values_matrix()
        raw = (mat.conj().T @ (w[:, None] * mat)).real
        assert np.max(np.abs(raw - raw.T)) <= 1e-10


class TestCheckCoreReuse:
    """The checks reuse the solve's core for its own problem object, else assemble."""

    def _count_assemblies(self, monkeypatch):
        calls = []
        assemble = ConstrainedLSQ.from_problem

        def counting(problem, basis=None):
            calls.append(problem)
            return assemble(problem, basis)

        monkeypatch.setattr(ConstrainedLSQ, "from_problem", staticmethod(counting))
        return calls

    def test_same_problem_reuses_core(self, basis_exp01_n8, monkeypatch):
        f, basis = basis_exp01_n8
        p = make_problem(f.grid, f)
        calls = self._count_assemblies(monkeypatch)
        sol = solve_fbep(p, basis)
        residual = fbep_conjecture_check(p, sol)
        directional = directional_kkt_check(p, sol)
        assert calls == [p]
        # a copy of the problem is another object: the checks assemble afresh,
        # from the same forms, so the values agree bit for bit
        other = copy.copy(p)
        assert fbep_conjecture_check(other, sol) == residual
        assert directional_kkt_check(other, sol) == directional
        assert calls == [p, other, other]

    def test_directions_flipped_into_feasible_cone(self, basis_exp01_n8):
        f, basis = basis_exp01_n8
        p = make_problem(f.grid, f)
        sol = solve_fbep(p, basis)
        core = ConstrainedLSQ.from_problem(p, basis)
        grad_k = 2.0 * core.kkt(sol.coeffs, 0.0)
        grad_j = 2.0 * (core.a_j @ sol.coeffs - core.r_j)
        rng = np.random.default_rng(7)
        values = []
        for _ in range(50):  # one direction at a time from the same stream
            d = rng.standard_normal(sol.coeffs.size)
            d /= np.linalg.norm(d)
            values.append(grad_k @ (-d if grad_j @ d > 0.0 else d))
        worst = directional_kkt_check(p, sol, seed=7)
        assert abs(worst - min(values)) <= 1e-14 * np.linalg.norm(grad_k)

    def test_directions_drawn_once_per_seed_and_size(self, basis_exp01_n8):
        # the table of one (seed, size) is drawn once and read-only; a flip by sign
        # leaves it as drawn, and the minimum is that of a fresh draw, bit for bit
        import bergbep.fbep as fbep

        f, basis = basis_exp01_n8
        p = make_problem(f.grid, f)
        sol = solve_fbep(p, basis)
        core = ConstrainedLSQ.from_problem(p, basis)
        grad_k = 2.0 * core.kkt(sol.coeffs, 0.0)
        grad_j = 2.0 * (core.a_j @ sol.coeffs - core.r_j)
        for seed in (0, 7, 0):
            d = np.random.default_rng(seed).standard_normal((50, sol.coeffs.size))
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            d[d @ grad_j > 0.0] *= -1.0
            assert directional_kkt_check(p, sol, seed=seed) == float(np.min(d @ grad_k))
        table = fbep._kkt_directions(7, sol.coeffs.size)
        drawn = np.random.default_rng(7).standard_normal(table.shape)
        assert np.array_equal(table, drawn / np.linalg.norm(drawn, axis=1, keepdims=True))
        assert not table.flags.writeable
        assert fbep._kkt_directions(7, sol.coeffs.size) is table

    def test_seed_must_be_an_int(self, basis_exp01_n8):
        # the directions are kept per seed, so a seed that is not an int (None, a
        # Generator, an array) fails at once instead of reusing or missing a table
        f, basis = basis_exp01_n8
        p = make_problem(f.grid, f)
        sol = solve_fbep(p, basis)
        assert directional_kkt_check(p, sol, seed=np.int64(7)) == directional_kkt_check(p, sol, seed=7)
        for seed in (None, np.random.default_rng(7), [7], 7.0):
            with pytest.raises(TypeError):
                directional_kkt_check(p, sol, seed=seed)


class TestConjectureCheck:
    def test_identity_conductivity(self, grid_24_96):
        f = Conductivity.constant(grid_24_96, 1.0)
        p = make_problem(grid_24_96, f, degree=12)
        sol = solve_fbep(p)
        assert fbep_conjecture_check(p, sol) <= 1e-8

    def test_exp_conductivity(self, basis_exp01_n8):
        f, basis = basis_exp01_n8
        p = make_problem(f.grid, f)
        sol = solve_fbep(p, basis=basis)
        assert fbep_conjecture_check(p, sol) <= 1e-4

    def test_non_optimal_contrast(self, basis_exp01_n8):
        f, basis = basis_exp01_n8
        p = make_problem(f.grid, f)
        sol = solve_fbep(p, basis=basis)
        best = fbep_conjecture_check(p, sol)
        rng = np.random.default_rng(8)
        sol.coeffs = sol.coeffs + 0.05 * rng.standard_normal(sol.coeffs.size)
        sol.w_star = basis.synthesize(sol.coeffs)
        assert fbep_conjecture_check(p, sol) > 10.0 * max(best, 1e-12)


class TestRestrictionMapNorm:
    def test_identity_for_constant_f(self, grid_32_64):
        f = Conductivity.constant(grid_32_64, 1.0)
        rho = restriction_map_norm(f, Region.annulus(0.5))
        assert abs(rho - 1.0) <= 1e-12

    def test_exp_conductivity_near_one(self, grid_32_64):
        f = Conductivity.exp_x(grid_32_64, 0.1)
        rho = restriction_map_norm(f, Region.annulus(0.5))
        assert 0.9 <= rho <= 1.2

    def test_transformed_data_report(self, basis_exp01_n8):
        f, _ = basis_exp01_n8
        p = make_problem(f.grid, f)
        h_star, m_star = transformed_constraint_data(p)
        assert h_star.values.shape == f.grid.shape
        assert m_star > 0.0

    @pytest.mark.parametrize("shape", [(4, 8), (2, 8)])
    def test_coarse_norm_grid(self, grid_24_96, shape):
        f = Conductivity.exp_x(grid_24_96, 0.2)  # alpha = 0.1
        p = make_problem(grid_24_96, f)
        _, m_star = transformed_constraint_data(p, norm_grid_shape=shape)
        rho = m_star / p.m
        assert np.isfinite(rho)
        assert abs(rho - 1.0) <= 2.0 * 0.1

    @pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
    def test_tiny_j_fraction(self, delta):
        # J = annulus(a) with a^2 just inside a cell edge: the ring below
        # the edge overlaps J by a fraction of about delta / cell width
        f = Conductivity.exp_x(build_grid(8, 16), 0.2)  # alpha = 0.1
        shape = (8, 16)
        edge = build_grid(*shape).s_cell_edges[3]
        at_edge = restriction_map_norm(f, Region.annulus(np.sqrt(edge)), shape)
        rho = restriction_map_norm(f, Region.annulus(np.sqrt(edge - delta)), shape)
        assert np.isfinite(rho)
        assert abs(rho - 1.0) <= 2.0 * 0.1
        assert abs(rho - at_edge) <= 1e-6

    def test_j_without_nodes(self, grid_24_96):
        # a J that no cell of the norm grid overlaps has no restriction map
        f = Conductivity.exp_x(grid_24_96, 0.2)
        with pytest.raises(ValueError, match="carries no nodes"):
            restriction_map_norm(f, Region.radial_disc(1e-9))


def _norm_by_columns(kind, eps, j_region, shape):
    """The restriction-map norm assembled column by column, two applies per J node."""
    small = build_grid(*shape)
    alpha = alpha_from_f(getattr(Conductivity, kind)(small, eps)).values
    phi = j_region.fraction(small)
    w_j = j_region.weights(small).ravel()
    idx = np.nonzero(w_j > 0.0)[0]
    sqw = np.sqrt(w_j[idx])
    n = idx.size
    cols = np.empty((2 * n, 2 * n))
    for j in range(n):
        for block, unit in enumerate((1.0, 1.0j)):
            full = np.zeros(small.shape, dtype=complex)
            full.ravel()[idx[j]] = unit / sqw[j]
            t = teodorescu(GridFunction(small, phi * alpha * np.conj(full)))
            out = (full - t.values).ravel()[idx] * sqw
            cols[:n, block * n + j] = out.real
            cols[n:, block * n + j] = out.imag
    return float(np.linalg.norm(cols, ord=2))


class TestRestrictionMapAssembly:
    @pytest.mark.parametrize("kind, eps", [("exp_x", 0.8), ("exp_xy", 1.75)])
    @pytest.mark.parametrize(
        "j_region", [Region.annulus(0.5), Region.radial_disc(0.6).complement(), Region.sector(1.0)]
    )
    def test_matches_column_assembly(self, grid_16_64, kind, eps, j_region):
        f = getattr(Conductivity, kind)(grid_16_64, eps)
        rho = restriction_map_norm(f, j_region, (6, 12))
        assert abs(rho - _norm_by_columns(kind, eps, j_region, (6, 12))) <= 1e-12


def _single_node_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    mask[-1, 1] = True
    return Region.mask(mask)


def _node_mask(shape):
    rng = np.random.default_rng(3)
    return Region.mask(rng.random(shape) < 0.4)


_MODE_PAIR_SHAPES = [(12, 24), (6, 12), (2, 8), (4, 9), (5, 7), (3, 5)]


class TestRestrictionMapModePairs:
    """rho by angular mode pairs for closed-form f on a J that is constant along theta."""

    # exp_x (s = 0) has a collided pair on odd n_theta, exp_xy (s = -1) two on even n_theta
    @pytest.mark.parametrize(
        "kind, eps",
        [("constant", 1.0), ("exp_x", 0.8), ("exp_x", 2.5), ("exp_xy", 1.75), ("exp_xy", 6.0)],
    )
    @pytest.mark.parametrize(
        "j_region",
        [Region.annulus(0.5), Region.radial_disc(0.6).complement(), Region.full_disc()],
    )
    def test_matches_column_assembly(self, grid_16_64, kind, eps, j_region):
        f = getattr(Conductivity, kind)(grid_16_64, eps)
        for shape in _MODE_PAIR_SHAPES:
            rho = restriction_map_norm(f, j_region, shape)
            dense = _norm_by_columns(kind, eps, j_region, shape)
            assert abs(rho - dense) <= 1e-13 * dense, shape

    @pytest.mark.parametrize(
        "f_of, j_of, lanczos",
        [
            (lambda g: Conductivity.exp_x(g, 0.8), lambda s: Region.annulus(0.5), False),
            (lambda g: Conductivity.exp_xy(g, 1.75), lambda s: Region.full_disc(), False),
            (lambda g: Conductivity.exp_x(g, 0.8), lambda s: Region.sector(1.0), True),
            (lambda g: Conductivity.exp_xy(g, 1.75), _node_mask, True),
            (lambda g: _grid_sampled(Conductivity.exp_x(g, 0.8)), lambda s: Region.annulus(0.5), True),
        ],
        ids=["annulus", "full_disc", "sector", "mask", "grid_sampled"],
    )
    def test_path_selection(self, monkeypatch, f_of, j_of, lanczos):
        calls = []
        top = _normal_top_eigenvalue

        def counting(a):
            calls.append(a.shape)
            return top(a)

        monkeypatch.setattr("bergbep.vekua._normal_top_eigenvalue", counting)
        shape = (6, 12)  # f on its own grid: a grid-sampled f gets a rho too
        rho = restriction_map_norm(f_of(build_grid(*shape)), j_of(shape), shape)
        assert np.isfinite(rho)
        assert len(calls) == int(lanczos)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_collided_block_is_the_realified_map(self, k):
        # a collided pair's block [[I, -B], [-conj B, I]] maps (z, conj z) to
        # (L z, conj L z) for L z = z - B conj(z): it equals U R U^H with R the
        # realified L and U unitary, so the two have the same singular values
        rng = np.random.default_rng(k)
        b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        eye = np.eye(k)
        block = np.block([[eye, -b], [-np.conj(b), eye]])
        real = np.block([[eye - b.real, -b.imag], [-b.imag, eye + b.real]])
        u = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)
        assert np.max(np.abs(block - u @ real @ u.conj().T)) <= 1e-14 * np.max(np.abs(b))
        sv_block = np.linalg.svd(block, compute_uv=False)
        sv_real = np.linalg.svd(real, compute_uv=False)
        assert np.max(np.abs(sv_block - sv_real)) <= 1e-13 * sv_real[0]

    def test_norm_grid_built_once(self, grid_16_64, monkeypatch):
        f = Conductivity.exp_x(grid_16_64, 0.8)
        shape = (7, 13)
        first = restriction_map_norm(f, Region.annulus(0.5), shape)
        builds = []
        monkeypatch.setattr("bergbep.vekua.build_grid", lambda *a: builds.append(a))
        for j_region in (Region.annulus(0.5), Region.sector(1.0)):
            restriction_map_norm(f, j_region, shape)
        assert builds == []
        assert restriction_map_norm(f, Region.annulus(0.5), shape) == first


class TestRestrictionMapLanczos:
    """rho by Lanczos on R^T R against the SVD of the realified matrix."""

    @pytest.mark.parametrize(
        "kind, eps, j_of, shape",
        [
            ("constant", 1.0, lambda s: Region.annulus(0.5), (12, 24)),
            ("exp_x", 0.8, lambda s: Region.annulus(0.5), (12, 24)),
            ("exp_x", 0.8, lambda s: Region.radial_disc(0.6).complement(), (12, 24)),
            ("exp_xy", 1.75, lambda s: Region.sector(1.0), (12, 24)),
            ("exp_xy", 1.75, _node_mask, (12, 24)),
            ("exp_xy", 1.75, _single_node_mask, (12, 24)),
            ("exp_x", 0.2, _single_node_mask, (2, 8)),
            ("exp_xy", 1.75, lambda s: Region.radial_disc(0.5).complement(), (2, 8)),
            ("exp_x", 2.0, lambda s: Region.sector(1.0), (4, 8)),
            ("exp_xy", 1.75, _node_mask, (4, 8)),
            # a negative eps on a radial J: the mode pairs with their sign and phase
            ("exp_x", -0.8, lambda s: Region.radial_disc(0.6).complement(), (12, 24)),
            ("exp_xy", -1.75, lambda s: Region.annulus(0.5), (12, 24)),
        ],
    )
    def test_matches_dense_norm(self, grid_16_64, kind, eps, j_of, shape):
        f = getattr(Conductivity, kind)(grid_16_64, eps)
        j_region = j_of(shape)
        rho = restriction_map_norm(f, j_region, shape)
        dense = _norm_by_columns(kind, eps, j_region, shape)
        assert abs(rho - dense) <= 1e-13 * dense
        assert restriction_map_norm(f, j_region, shape) == rho  # bit for bit

    def test_constant_f_in_one_step(self, grid_16_64):
        theta, steps = _normal_top_eigenvalue(np.zeros((216, 216), dtype=complex))
        assert steps == 1
        assert abs(theta - 1.0) <= 1e-15
        rho = restriction_map_norm(Conductivity.constant(grid_16_64, 2.0), Region.annulus(0.5))
        assert abs(rho - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_exact_termination(self, n):
        # the Krylov space reaches the real dimension 2n at the latest
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        theta, steps = _normal_top_eigenvalue(a)
        realified = np.eye(2 * n) - np.block([[a.real, a.imag], [a.imag, -a.real]])
        top = np.linalg.norm(realified, ord=2) ** 2
        assert steps <= 2 * n
        assert abs(theta - top) <= 1e-13 * top


class TestGridSampledConductivity:
    def test_rho_on_its_own_grid(self, monkeypatch):
        grid = build_grid(16, 32)
        exact = Conductivity.exp_x(grid, 0.2)
        sampled = Conductivity.from_grid(exact.values, k_bound=np.exp(0.2))
        j_region = Region.annulus(0.5)
        alpha_error = np.max(np.abs(alpha_from_f(sampled).values - 0.1))  # 2.4e-9
        closed = restriction_map_norm(exact, j_region, (16, 32))
        # f's own grid is used as it is: no norm grid gets built
        monkeypatch.setattr("bergbep.vekua.build_grid", None)
        rho = restriction_map_norm(sampled, j_region, (16, 32))
        assert np.isfinite(rho)
        assert abs(rho - closed) <= 1e-11  # measured 1.4e-12
        assert abs(rho - closed) <= alpha_error
        monkeypatch.undo()
        with pytest.raises(ValueError, match="cannot be rebuilt on another grid"):
            restriction_map_norm(sampled, j_region, (12, 24))


class TestTransformedData:
    @pytest.mark.parametrize("a", [0.37, 0.73])
    def test_closed_form_for_exp_x(self, a):
        # f = exp(eps x) has alpha = eps/2; with h_J = 1 on J = annulus(a),
        # T_J[1] = conj(z) - a^2/z on |z| > a and 0 inside, so
        # h_J^* = 1 - (eps/2)(conj(z) - a^2/z) on J
        grid = build_grid(24, 48)
        eps = 0.1
        j = Region.annulus(a)
        p = FbepProblem(
            f=Conductivity.exp_x(grid, eps),
            k_region=j.complement(),
            j_region=j,
            h_k=GridFunction.constant(grid, 0.0),
            h_j=GridFunction.constant(grid, 1.0),
            m=1.0,
            degree=4,
        )
        h_star, _ = transformed_constraint_data(p, norm_grid_shape=(6, 12))
        z = grid.nodes
        t_j = np.where(np.abs(z) > a, np.conj(z) - a * a / z, 0.0)
        exact = GridFunction(grid, 1.0 - (eps / 2.0) * t_j)
        assert (h_star - exact).norm(j) / (eps / 2.0) <= 1e-2

    def _mask_problem(self, shape):
        # exp(0.8 x) has max |alpha| = 0.4; K is a disc of nodes, J its complement
        grid = build_grid(*shape)
        k = Region.mask(np.abs(grid.nodes - 0.2) < 0.5)
        return FbepProblem(
            f=Conductivity.exp_x(grid, 0.8),
            k_region=k,
            j_region=k.complement(),
            h_k=GridFunction.constant(grid, 1.0),
            h_j=GridFunction(grid, np.conj(grid.nodes)),
            m=1.0,
            degree=6,
        )

    def test_mask_j_names_its_grid(self, monkeypatch):
        # a mask lives on its own grid: rho is refused on the default norm
        # grid before any work, with the override that gets it
        p = self._mask_problem((24, 96))

        def forbidden(*args, **kwargs):
            raise AssertionError("work done before the mask check")

        for name in ("alpha_from_f", "teodorescu", "restriction_map_norm"):
            monkeypatch.setattr(f"bergbep.fbep.{name}", forbidden)
        message = re.escape("a mask J lives on its own grid: pass the problem's grid (24, 96) "
                            "as norm_grid_shape to get rho")
        with pytest.raises(ValueError, match=message):
            transformed_constraint_data(p)
        with pytest.raises(ValueError, match=message):
            transformed_constraint_data(p, norm_grid_shape=(12, 48))

    @pytest.mark.parametrize("kind", ["exp_x", "exp_xy"])
    def test_zero_data_take_no_transform(self, grid_24_96, monkeypatch, kind):
        # phi alpha conj(h_J) vanishes: h_J^* is h_J itself, and rho is the same
        p = make_problem(grid_24_96, getattr(Conductivity, kind)(grid_24_96, 0.8), degree=4)
        _, m_star = transformed_constraint_data(p)

        def forbidden(*args, **kwargs):
            raise AssertionError("a Teodorescu transform of zero data")

        monkeypatch.setattr("bergbep.fbep.teodorescu", forbidden)
        h_star, m_again = transformed_constraint_data(p)
        assert h_star is p.h_j
        assert m_again == m_star

    @pytest.mark.parametrize("kind", ["exp_x", "exp_xy"])
    def test_zero_data_sample_no_alpha(self, grid_24_96, monkeypatch, kind):
        # h_J vanishing on J's cells decides before alpha is sampled: zero data, and
        # data that live on K's cells alone, leave h_J^* = h_J and rho unchanged
        f = getattr(Conductivity, kind)(grid_24_96, 0.8)
        p = make_problem(grid_24_96, f, degree=4)
        on_k = dataclasses.replace(p, h_j=GridFunction(
            grid_24_96, np.where(np.abs(grid_24_96.nodes) < 0.3, 1.0 + 0.5j, 0.0)))
        on_j = dataclasses.replace(p, h_j=GridFunction(grid_24_96, np.conj(grid_24_96.nodes)))
        _, m_star = transformed_constraint_data(p)
        calls = []
        for module in ("fbep", "vekua"):
            monkeypatch.setattr(f"bergbep.{module}.alpha_from_f",
                                lambda f, _a=alpha_from_f: calls.append(f) or _a(f))
        for problem in (p, on_k):
            h_star, m_again = transformed_constraint_data(problem)
            assert h_star is problem.h_j
            assert m_again == m_star
        assert calls == []
        transformed_constraint_data(on_j)
        assert calls == [f]

    def test_mask_j_on_the_problem_grid(self):
        p = self._mask_problem((16, 64))
        h_star, m_star = transformed_constraint_data(p, norm_grid_shape=(16, 64))
        rho = m_star / p.m
        assert np.all(np.isfinite(h_star.values))
        assert 1.0 <= rho <= 1.0 + 4.0 * 0.4  # measured 1.029


class TestBasisDiagnostics:
    def test_min_eigenvalue_from_core(self, grid_32_64, basis_exp01_n8):
        # the core and the basis read the basis's one full-disc decomposition;
        # the reference is the Gram of the samples
        f, basis = basis_exp01_n8
        sol = solve_fbep(make_problem(grid_32_64, f), basis)
        vals = np.linalg.eigvalsh(basis.real_gram())
        assert abs(sol.basis_min_eig - vals[0]) <= 1e-12 * vals[-1]
        assert abs(basis.min_eigenvalue() - vals[0]) <= 1e-12 * vals[-1]

    def test_no_gram_unless_logged(self, grid_32_64, caplog, monkeypatch):
        # the logged eigenvalue comes from the pair spectra: no lift is sampled.  A
        # conductivity keeps its lift and, once taken, its decomposition, so each
        # build lifts a fresh f
        from bergbep.vekua import _PairBasis

        forms, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: forms.append("eigh") or eigh(*a))
        form = _PairBasis._form
        monkeypatch.setattr(_PairBasis, "_form",
                            lambda self, w: forms.append("form") or form(self, w))
        with caplog.at_level(logging.WARNING, logger="bergbep"):
            build_fbep_space(Conductivity.exp_x(grid_32_64, 0.1), 4)
        assert forms == []
        with caplog.at_level(logging.INFO, logger="bergbep"):
            basis = build_fbep_space(Conductivity.exp_x(grid_32_64, 0.1), 4)
        assert forms == ["form", "eigh"]
        assert "_matrix" not in vars(basis) and "elements" not in vars(basis)
        assert any("Gram min eigenvalue" in r.getMessage() for r in caplog.records)

    def test_span_projection_builds_one_gram(self, basis_exp01_n8, monkeypatch):
        # the projection reads the basis's one decomposition: once _full_form
        # exists, it assembles no form and takes no eigh
        from bergbep.vekua import _PairBasis

        f, basis = basis_exp01_n8
        basis._full_form
        calls = []
        for cls in (VekuaBasis, _PairBasis):
            form = cls.__dict__["_form"]
            monkeypatch.setattr(
                cls, "_form", lambda self, w, _form=form: calls.append("form") or _form(self, w)
            )
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append("eigh") or eigh(*a))
        basis.project_span(f.values)
        assert calls == []

    def test_span_projection_keeps_the_core_directions(self, basis_exp01_n8):
        # a near-duplicate lift puts one full-disc eigenvalue between 1e-12 and
        # 1e-10 of the top: the core drops that direction, and the projection,
        # under the same rank rule, puts nothing in it
        f, basis = basis_exp01_n8
        w0 = basis.elements[0].w.values
        w9 = build_fbep_space(f, 9, tol=1e-10).elements[9].w.values  # e_9 lifted: off the span
        twin = VekuaFunction(GridFunction(basis.grid, w0 + 1e-5 * w9), basis.alpha, 0.0)
        near = VekuaBasis(basis.alpha, basis.elements + [twin])
        vals = near._full_form.vals
        assert 1e-12 < vals[0] / vals[-1] < 1e-10 < vals[1] / vals[-1]
        k = Region.radial_disc(0.5)
        rng = np.random.default_rng(3)
        h = GridFunction(near.grid, rng.standard_normal(near.grid.shape) + 0.5j)
        w_k, w_j = k.weights(near.grid), k.complement().weights(near.grid)
        core = ConstrainedLSQ(near, w_k, w_j, h.values, h.values)
        assert core.dropped == 1
        pi = near.project_span(h)
        in_core = core.whiten @ np.linalg.lstsq(core.whiten, pi, rcond=None)[0]
        assert np.linalg.norm(pi - in_core) <= 1e-12 * np.linalg.norm(pi)

    @pytest.mark.parametrize("kind, eps", [("exp_x", 0.8), ("exp_xy", 1.75)])
    def test_span_projection_on_pair_spectra(self, grid_24_96, kind, eps):
        # a mode-pair basis projects and checks invariance from its spectra,
        # sampling no lift, and agrees with the dense basis of its samples
        f = getattr(Conductivity, kind)(grid_24_96, eps)
        basis = build_fbep_space(f, 12)
        rng = np.random.default_rng(5)
        shape = grid_24_96.shape
        h = GridFunction(grid_24_96, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        coeffs = rng.standard_normal(basis.size)
        pi, defect = basis.project_span(h), invariance_defect(basis, coeffs, h)
        assert basis._matrix is None and "elements" not in vars(basis)
        dense = VekuaBasis(alpha=basis.alpha, elements=basis.elements)
        ref = dense.project_span(h)
        assert np.max(np.abs(pi - ref)) <= 1e-14 * np.max(np.abs(ref))
        scale = dense.synthesize(coeffs).norm() * h.norm()
        assert abs(defect - invariance_defect(dense, coeffs, h)) <= 1e-14 * scale


# (conductivity kind, eps, grid shape, degree); the last two put the lift of
# e_N in a collided pair (odd n_theta for exp_x, even for exp_xy), and exp_xy
# on odd n_theta pairs e_{N-1} and e_N with each other's modes
_PAIR_CASES = [
    ("const", 1.0, (16, 64), 6),
    ("exp_x", 0.8, (16, 64), 6),
    ("exp_x", 2.5, (16, 64), 6),
    ("exp_xy", 1.75, (16, 64), 6),
    ("exp_xy", 6.0, (16, 64), 6),
    ("exp_x", 0.5, (8, 31), 15),
    ("exp_xy", 0.5, (8, 32), 15),
    ("exp_xy", 0.5, (8, 31), 15),
]


_DEFECT_CONDUCTIVITIES = [
    ("const", 1.0),
    ("exp_x", 0.8),
    ("exp_x", -0.8),
    ("exp_x", 2.5),
    ("exp_xy", 1.75),
    ("exp_xy", -1.75),
    ("exp_xy", 6.0),
]


def _pair_basis(kind, eps, shape, degree):
    grid = build_grid(*shape)
    if kind == "const":
        f = Conductivity.constant(grid, 2.0)
    else:
        f = getattr(Conductivity, kind)(grid, eps)
    return build_fbep_space(f, degree, tol=1e-10)


def _pair_regions(shape):
    regions = [Region.radial_disc(0.55), Region.annulus(0.4), Region.sector(1.1), _node_mask(shape)]
    return regions + [region.complement() for region in regions]


class TestPairCore:
    """The f-BEP over mode-pair lifts: forms, synthesis and solve against the dense samples."""

    @pytest.mark.parametrize("kind, eps, shape, degree", _PAIR_CASES)
    def test_forms_match_dense_samples(self, kind, eps, shape, degree):
        from bergbep.bergman import _gram, _moments

        basis = _pair_basis(kind, eps, shape, degree)
        grid = basis.grid
        h = GridFunction.from_function(grid, lambda z: np.conj(z) + 0.3 * np.abs(z) ** 2 + 0.5j)
        samples = basis.values_matrix()
        for region in _pair_regions(shape):
            w = region.weights(grid)
            gram = _gram(samples, w.ravel(), np.real)
            moments = _moments(samples, w.ravel(), h.values.ravel(), np.real)
            assert _rel(basis._form(w), gram) <= 1e-13
            assert _rel(basis._moments(w, h.values), moments) <= 1e-13

    @pytest.mark.parametrize("kind, eps, shape, degree", _PAIR_CASES)
    def test_full_gram_matches_dense_samples(self, kind, eps, shape, degree):
        # the full-disc weights are constant along theta: only equal modes couple
        basis = _pair_basis(kind, eps, shape, degree)
        assert _rel(basis._form(basis.grid.weights), basis.real_gram()) <= 1e-14

    @pytest.mark.parametrize("kind, eps, shape, degree", _PAIR_CASES)
    def test_theta_invariant_forms_match_dense_samples(self, kind, eps, shape, degree):
        # so are those of radial discs, annuli and their complements: the same
        # equal-mode sum, with no weight table
        basis = _pair_basis(kind, eps, shape, degree)
        regions = [Region.radial_disc(0.55), Region.annulus(0.4)]
        for region in regions + [region.complement() for region in regions]:
            w = region.weights(basis.grid)
            assert _rel(basis._form(w), basis.real_gram(region)) <= 1e-14

    @pytest.mark.parametrize("region", ["disc", "annulus", "sector", "mask", "full"])
    def test_weight_table_only_for_theta_dependent_weights(self, region):
        # the (n_r, 2(N+1), 2(N+1)) table of the weights' ring spectra at the two
        # parts of each lift is the one array of _form that grows with n_r N^2; the
        # traced peak shows whether it was built, and that nothing of its size was
        # built beside it
        import tracemalloc

        basis = _pair_basis("exp_x", 0.8, (32, 64), 15)
        grid = basis.grid
        w = {
            "disc": Region.radial_disc(0.55).complement(),
            "annulus": Region.annulus(0.4),
            "sector": Region.sector(1.1),
            "mask": _node_mask(grid.shape),
            "full": Region.full_disc(),
        }[region].weights(grid)
        table_bytes = 16 * grid.n_radial * basis.size**2  # N+1 lifts, two parts each
        tracemalloc.start()
        try:
            basis._form(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if region in ("sector", "mask"):
            assert table_bytes <= peak < 2 * table_bytes
        else:
            assert peak < table_bytes / 4

    @pytest.mark.parametrize("kind, eps, shape, degree", _PAIR_CASES)
    def test_synthesis_matches_dense_samples(self, kind, eps, shape, degree):
        basis = _pair_basis(kind, eps, shape, degree)
        c = np.random.default_rng(5).standard_normal(basis.size)
        dense = (basis.values_matrix() @ c).reshape(basis.grid.shape)
        assert _rel(basis._synthesis(c), dense) <= 1e-14

    @pytest.mark.parametrize("kind, eps, shape, degree", [_PAIR_CASES[3], _PAIR_CASES[7]])
    def test_dense_reference_on_pair_basis(self, kind, eps, shape, degree, monkeypatch):
        # real_gram, real_rhs and synthesize are the reference for the pair
        # forms: they sample the lifts and never go through the spectra
        from bergbep.bergman import _gram, _moments

        def forbidden(*args, **kwargs):
            raise AssertionError("the dense reference used the pair forms")

        basis = _pair_basis(kind, eps, shape, degree)
        for name in ("_form", "_moments", "_synthesis"):
            monkeypatch.setattr(type(basis), name, forbidden)
        grid = basis.grid
        h = GridFunction.from_function(grid, lambda z: np.conj(z) + 0.3 * np.abs(z) ** 2 + 0.5j)
        assert basis._matrix is None
        gram = basis.real_gram()
        samples = basis._matrix
        assert samples is not None and samples.shape == (grid.weights.size, basis.size)
        full_gram = _gram(samples, grid.weights.ravel(), np.real)
        full_moments = _moments(samples, grid.weights.ravel(), h.values.ravel(), np.real)
        assert np.array_equal(gram, full_gram)
        assert np.array_equal(basis.real_rhs(h), full_moments)
        for region in _pair_regions(shape):
            w = region.weights(grid).ravel()
            assert np.array_equal(basis.real_gram(region), _gram(samples, w, np.real))
            moments = _moments(samples, w, h.values.ravel(), np.real)
            assert np.array_equal(basis.real_rhs(h, region), moments)
        c = np.random.default_rng(5).standard_normal(basis.size)
        assert np.array_equal(basis.synthesize(c).values.ravel(), samples @ c)

    @pytest.mark.parametrize("kind, eps", [("exp_x", 0.8), ("exp_x", 2.5), ("exp_xy", 6.0),
                                           ("constant", 2.0), ("exp_xy", -1.75)])
    def test_solve_matches_dense_core(self, grid_24_96, kind, eps):
        f = getattr(Conductivity, kind)(grid_24_96, eps)
        basis = build_fbep_space(f, 12)
        p = make_problem(grid_24_96, f, m=0.05, degree=12)
        sol = solve_fbep(p, basis)
        # the same lifts as a hand-built basis take the dense samples
        dense = solve_fbep(p, VekuaBasis(basis.alpha, basis.elements))
        assert sol.saturated and dense.saturated
        assert _rel(sol.coeffs, dense.coeffs) <= 1e-10
        assert abs(sol.vekua_defect - dense.vekua_defect) <= 1e-14

    @pytest.mark.parametrize("shape, degree", [((16, 64), 6), ((8, 31), 15), ((8, 32), 15)])
    @pytest.mark.parametrize("kind, eps", _DEFECT_CONDUCTIVITIES)
    def test_defect_matches_grid_residual(self, kind, eps, shape, degree):
        # the pair sum against one grid apply to the synthesized values, with
        # the collided pairs at degree 15 (exp_x on 31 angles, exp_xy on 32)
        basis = _pair_basis(kind, eps, shape, degree)
        grid = basis.grid
        dense = VekuaBasis(basis.alpha, basis.elements)
        rng = np.random.default_rng(11)
        for c in (rng.standard_normal(basis.size), np.eye(basis.size)[degree]):
            w = GridFunction(grid, basis._synthesis(c))
            grid_defect = vekua_residual(w, basis.alpha, degree)
            assert abs(basis._vekua_defect(c, w, degree) - grid_defect) <= 1e-14
            # a lower problem degree leaves the upper modes unprojected
            low = vekua_residual(w, basis.alpha, degree - 3)
            assert abs(basis._vekua_defect(c, w, degree - 3) - low) <= 1e-14 * max(1.0, low)
            assert dense._vekua_defect(c, w, degree) == grid_defect

    def _record_forms(self, monkeypatch):
        """Record the class of every basis that hands out a form, and whether it was
        the full disc's (once per basis, for its decomposition) or a region's (J)."""
        from bergbep.vekua import _PairBasis

        calls = []
        for cls in (VekuaBasis, _PairBasis):
            original = cls.__dict__["_form"]

            def recording(self, w, _cls=cls, _original=original):
                calls.append((_cls.__name__, "full" if w is self.grid.weights else "J"))
                return _original(self, w)

            monkeypatch.setattr(cls, "_form", recording)
        return calls

    def test_path_selection(self, grid_16_64, monkeypatch):
        # each solve on a fresh f and fresh regions (make_problem), so none reads what
        # another kept: a closed form takes the pair forms, a grid-sampled f and a
        # hand-built basis the forms of their samples
        def exp_x():
            return Conductivity.exp_x(grid_16_64, 0.3)

        basis = build_fbep_space(exp_x(), 4)
        calls = self._record_forms(monkeypatch)
        sol = solve_fbep(make_problem(grid_16_64, exp_x(), degree=4))
        pair = [("_PairBasis", "full"), ("_PairBasis", "J")]
        dense = [("VekuaBasis", "full"), ("VekuaBasis", "J")]
        assert calls == pair
        assert sol.basis._matrix is None  # the spectra, not the samples
        solve_fbep(make_problem(grid_16_64, _grid_sampled(exp_x()), degree=4))
        assert calls == pair + dense
        p_closed = make_problem(grid_16_64, exp_x(), degree=4)
        solve_fbep(p_closed, VekuaBasis(basis.alpha, basis.elements))
        assert calls == pair + dense + dense

    @pytest.mark.parametrize("sampled", [False, True])
    def test_one_full_decomposition_per_basis(self, grid_16_64, monkeypatch, sampled):
        # two partitions and three budgets each over one basis of a fresh f: one
        # full-disc form and one decomposition of it.  The J form is one per J region
        # for the pair basis, whose record the region keeps, and one per core for
        # the hand-built basis of its samples, which names no key to keep one by
        from bergbep.vekua import _PairBasis

        f = Conductivity.exp_x(grid_16_64, 0.3)
        basis = build_fbep_space(f, 4)
        if sampled:
            basis = VekuaBasis(basis.alpha, basis.elements)
        cls = type(basis)
        forms = self._record_forms(monkeypatch)
        cores = []
        for k in (Region.radial_disc(0.5), Region.sector(1.2)):
            j = k.complement()
            for m in (0.05, 0.2, 1e3):
                p = FbepProblem(
                    f, k, j, GridFunction.constant(grid_16_64, 1.0),
                    GridFunction.constant(grid_16_64, 0.0), m, 4,
                )
                sol = solve_fbep(p, basis)
                cores.append(sol._assembly[1])
        assert all(core.full is basis._full_form for core in cores)
        assert forms == [(cls.__name__, "full")] + [(cls.__name__, "J")] * (6 if sampled else 2)
        assert (cls is _PairBasis) != sampled

    def test_closed_form_solve_samples_nothing(self, grid_24_96, monkeypatch):
        from bergbep.grid import _TeodorescuOperator

        applies = []
        apply = _TeodorescuOperator.apply

        def counting(self, values):
            applies.append(values.shape)
            return apply(self, values)

        monkeypatch.setattr(_TeodorescuOperator, "apply", counting)
        f = Conductivity.exp_xy(grid_24_96, 1.75)
        p = make_problem(grid_24_96, f, degree=12)
        sol = solve_fbep(p)
        fbep_conjecture_check(p, sol)
        directional_kkt_check(p, sol)
        assert applies == []  # w_* is certified from the pair residuals
        assert sol.basis._matrix is None
        assert "elements" not in vars(sol.basis)  # no lift was sampled on the grid
        # the samples, built when asked for, give the same w_* and certificate
        w_star = sol.basis.synthesize(sol.coeffs)
        assert np.max(np.abs(w_star.values - sol.w_star.values)) <= 1e-14
        assert abs(sol.vekua_defect - vekua_residual(w_star, sol.basis.alpha, 12)) <= 1e-14
        assert all(el.converged and el.iterations == 1 for el in sol.basis.elements)

    def test_w_star_synthesized_once(self, grid_24_96, monkeypatch):
        # the pair basis gives no ring spectrum, so even a disc K is measured at the
        # nodes, from the coefficients: err_J of the J-fit, the mu = 0 fit and the end
        # point on J's rings, each one ring block, then w_* on all rings and err_K on K's
        from bergbep.bep import _GridSide
        from bergbep.vekua import _PairBasis

        f = Conductivity.exp_x(grid_24_96, 0.8)
        p = make_problem(grid_24_96, f, degree=12)
        basis = build_fbep_space(f, 12)
        assert isinstance(basis, _PairBasis)
        calls = []
        synthesis = _PairBasis._synthesis
        monkeypatch.setattr(_PairBasis, "_synthesis", lambda self, c, rings=slice(None):
                            calls.append(rings.indices(24)[:2]) or synthesis(self, c, rings))
        sol = solve_fbep(p, basis)
        sides = sol._assembly[1]._sides
        assert {type(side) for side in sides.values()} == {_GridSide}
        k_rings, j_rings = (sides[s].rings.indices(24)[:2] for s in ("k", "j"))
        assert k_rings[0] == 0 and j_rings[1] == 24 and k_rings != j_rings
        assert sol.saturated and calls == [j_rings] * 3 + [(0, 24), k_rings]
        assert np.array_equal(sol.w_star.values, synthesis(basis, sol.coeffs))

    @pytest.mark.parametrize("sampled", [False, True])
    def test_zero_j_data_take_no_moments(self, grid_16_64, monkeypatch, sampled):
        # h_J = 0 has zero moments: the core asks the basis for the K-moments alone
        from bergbep.vekua import _PairBasis

        f = Conductivity.exp_xy(grid_16_64, 1.75)
        basis = build_fbep_space(f, 4)
        if sampled:
            basis = VekuaBasis(basis.alpha, basis.elements)
        p = make_problem(grid_16_64, f, degree=4)
        expected = solve_fbep(p, basis)
        calls = []
        for cls in (VekuaBasis, _PairBasis):
            original = cls.__dict__["_moments"]

            def recording(self, w, h, _original=original):
                calls.append("K" if h is p.h_k.values else "J")
                return _original(self, w, h)

            monkeypatch.setattr(cls, "_moments", recording)
        sol = solve_fbep(p, basis)
        assert calls == ["K"]
        assert np.array_equal(sol.coeffs, expected.coeffs)
        assert sol._assembly[1].r_j.dtype == float and not np.any(sol._assembly[1].r_j)


def _kept_problem(grid, kind="sector", f=None, degree=12):
    """A saturated f-BEP on fresh regions, with data on both sides."""
    k = Region.sector(1.2) if kind == "sector" else Region.radial_disc(0.5)
    return FbepProblem(
        Conductivity.exp_x(grid, 0.8) if f is None else f, k, k.complement(),
        GridFunction.from_function(grid, lambda z: np.exp(z) + 0.2 * np.conj(z)),
        GridFunction(grid, 0.3 * np.conj(grid.nodes)), 0.5, degree,
    )


class TestKeptLift:
    """What depends only on a closed-form f, the grid, the degree and J is computed
    once: f keeps its pair lift (with the full-disc decomposition, once taken), the
    J region keeps the core's J record, keyed by f's kind, eps and the degree, and
    rho, keyed by kind and eps, for the norm grid.  Every array kept is read-only,
    and a grid-sampled f keeps nothing."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or original(*a, **k))
        return calls

    @pytest.mark.parametrize("kind, first", [("disc", (1, 1, 2)), ("sector", (1, 2, 2))])
    def test_repeat_solve_reads_what_was_kept(self, grid_24_96, monkeypatch, kind, first):
        from bergbep import io as bio
        from bergbep import vekua
        from bergbep.vekua import _PairBasis

        p = _kept_problem(grid_24_96, kind)
        counts = [self._count(monkeypatch, vekua, "_mode_pair_lift"),
                  self._count(monkeypatch, np.linalg, "eigh"),
                  self._count(monkeypatch, _PairBasis, "_form")]
        docs = []
        for expected in (first, (0, 0, 0)):
            for calls in counts:
                calls.clear()
            sol = solve_fbep(p)
            assert tuple(len(calls) for calls in counts) == expected
            assert sol.saturated
            doc = bio.fbep_solution_to_dict(sol, p.degree, fbep_conjecture_check(p, sol))
            docs.append(bio.dumps_canonical(doc))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("kind, path", [("disc", "_mode_pair_norm"),
                                            ("sector", "_normal_top_eigenvalue")])
    def test_repeat_transform_reads_rho(self, grid_24_96, monkeypatch, kind, path):
        from bergbep import vekua

        p = _kept_problem(grid_24_96, kind)
        calls = self._count(monkeypatch, vekua, path)
        first = transformed_constraint_data(p)
        assert len(calls) == 1
        again = transformed_constraint_data(p)
        assert len(calls) == 1
        assert np.array_equal(again[0].values, first[0].values) and again[1] == first[1]

    def test_each_f_degree_j_and_norm_grid_builds_its_own(self, grid_24_96, monkeypatch):
        # the lift is keyed by its f and one degree; rho and the J record by values, so
        # a new f of the same kind and eps lifts again but reads what its J keeps
        from bergbep import bep, vekua

        lifts = self._count(monkeypatch, vekua, "_mode_pair_lift")
        norms = self._count(monkeypatch, vekua, "_mode_pair_norm")
        records = self._count(monkeypatch, bep, "_j_record")
        f, twin = Conductivity.exp_x(grid_24_96, 0.8), Conductivity.exp_x(grid_24_96, 0.8)
        j = Region.radial_disc(0.5).complement()
        # (f, degree, J, norm grid) and the (lifts, pair norms, J records) they build
        steps = (
            (f, 12, j, (12, 24), (1, 1, 1)),
            (f, 12, j, (12, 24), (0, 0, 0)),
            (twin, 12, j, (12, 24), (1, 0, 0)),  # its own lift; J's keys are the same values
            (f, 8, j, (12, 24), (1, 0, 1)),  # another degree replaces the lift and the record
            (f, 12, j, (12, 24), (1, 0, 1)),
            (f, 12, dataclasses.replace(j), (12, 24), (0, 1, 1)),  # another J object
            (f, 12, j, (6, 12), (0, 1, 0)),  # another norm grid
            (f, 12, j, (12, 24), (0, 0, 0)),  # J keeps rho per norm grid
            (Conductivity.exp_x(grid_24_96, 0.5), 12, j, (12, 24), (1, 1, 1)),  # another eps
        )
        for cond, degree, region, shape, expected in steps:
            for calls in (lifts, norms, records):
                calls.clear()
            p = dataclasses.replace(_kept_problem(grid_24_96, "disc", cond, degree),
                                    j_region=region, k_region=region.complement())
            solve_fbep(p)
            transformed_constraint_data(p, shape)
            assert (len(lifts), len(norms), len(records)) == expected, (degree, shape)

    def test_tighter_tol_on_kept_lift_raises(self, grid_16_64, monkeypatch):
        from bergbep import vekua

        f = Conductivity.exp_x(grid_16_64, 0.8)
        build_fbep_space(f, 4, tol=1e-9)
        with pytest.raises(ConvergenceError) as cold:
            build_fbep_space(Conductivity.exp_x(grid_16_64, 0.8), 4, tol=1e-30)
        lifts = self._count(monkeypatch, vekua, "_mode_pair_lift")
        with pytest.raises(ConvergenceError) as kept:
            build_fbep_space(f, 4, tol=1e-30)
        assert lifts == []
        assert str(kept.value) == str(cold.value)
        assert str(kept.value).startswith("lift of seed e_0 has fixed-point defect")
        basis = build_fbep_space(f, 4, tol=1e-9)  # the kept lift, under its own tol
        assert lifts == [] and all(el.converged for el in basis.elements)

    def test_kept_state_is_read_only(self, grid_24_96):
        p = _kept_problem(grid_24_96)
        sol = solve_fbep(p)
        transformed_constraint_data(p)
        key, lift = p.f._resolved["pair_lift"]
        assert key == p.degree
        full = sol.basis._full_form
        key, record = p.j_region._resolved[grid_24_96]["lift_j_record"]
        assert key == (("exp_x", 0.8, 12), 26)
        arrays = [lift.mode[0], lift.modes, lift.parts, lift.defects, lift.residuals,
                  lift.analytic, full.vals, full.vecs, record.a_j, record.taus, record.whiten]
        for array in arrays:
            with pytest.raises(ValueError):
                array.flat[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.f.eps = 0.5

    def test_solve_samples_no_alpha(self, grid_24_96, monkeypatch):
        # the pair path reads b on the rings: neither a cold nor a repeat solve samples
        # alpha, which a basis samples on first use and keeps for its own life
        from bergbep import vekua

        p = _kept_problem(grid_24_96)
        samples = self._count(monkeypatch, vekua, "_mode_samples")
        sol = solve_fbep(p)
        again = solve_fbep(p)
        assert samples == []
        assert again.basis.alpha is again.basis.alpha and len(samples) == 1
        assert "alpha" not in vars(sol.basis)

    @pytest.mark.parametrize("make", [lambda g: Conductivity.exp_x(g, 0.8),
                                      lambda g: Conductivity.exp_xy(g, 1.75),
                                      lambda g: Conductivity.constant(g, 2.0)])
    def test_kept_lift_holds_no_grid_samples(self, grid_24_96, make):
        f = make(grid_24_96)
        basis = build_fbep_space(f, 12)
        basis.elements, basis._full_form  # the samples a basis makes stay on it
        _, lift = f._resolved["pair_lift"]
        arrays = [a for a in (*lift, *lift.mode, *lift.full["form"][1])
                  if isinstance(a, np.ndarray)]
        assert len(arrays) == 8
        assert max(a.size for a in arrays) < grid_24_96.n_radial * grid_24_96.angular_count
        assert basis.alpha.values.tobytes() == alpha_from_f(f).values.tobytes()
        assert build_fbep_space(f, 12).alpha.values.tobytes() == basis.alpha.values.tobytes()

    def test_hand_built_pair_basis_keeps_nothing(self, grid_24_96, monkeypatch):
        # a _PairBasis without a key names no J record: its core builds one every solve
        from bergbep import bep
        from bergbep.vekua import _alpha_mode, _mode_pair_lift, _PairBasis

        p = _kept_problem(grid_24_96)
        basis = _PairBasis(_mode_pair_lift(grid_24_96, _alpha_mode(p.f), p.degree), p.lift_tol)
        records = self._count(monkeypatch, bep, "_j_record")
        sols = [solve_fbep(p, basis) for _ in range(2)]
        assert len(records) == 2
        assert p.f._resolved == {}
        assert not {"j_record", "lift_j_record"} & set(p.j_region._resolved[grid_24_96])
        keyed = solve_fbep(p)
        assert all(np.array_equal(sol.coeffs, keyed.coeffs) for sol in sols)

    def test_repeat_build_samples_nothing(self, grid_24_96):
        # the grid samples stay on the basis that made them
        f = Conductivity.exp_xy(grid_24_96, 1.75)
        first = build_fbep_space(f, 12)
        first.elements, first.values_matrix()
        again = build_fbep_space(f, 12)
        assert again._parts is first._parts
        assert "elements" not in vars(again) and "_matrix" not in vars(again)

    def test_grid_sampled_f_keeps_nothing(self, monkeypatch):
        from bergbep import vekua

        grid = build_grid(12, 48)
        f = _grid_sampled(Conductivity.exp_x(grid, 0.2))
        p = _kept_problem(grid, "disc", f, degree=4)
        lifts = self._count(monkeypatch, vekua, "_lift_batch")
        for _ in range(2):
            solve_fbep(p)
            transformed_constraint_data(p, grid.shape)
        assert len(lifts) == 2
        assert f._resolved == {}
        assert not {"j_record", "lift_j_record", "rho"} & set(p.j_region._resolved[grid])

    def test_kept_state_dies_with_f_and_region(self):
        # values, never objects, key what J keeps: the grid does not outlive its
        # problem while J lives, and what f and J keep dies with them
        def solved():
            grid = build_grid(16, 64)
            p = _kept_problem(grid)
            sol = solve_fbep(p)
            transformed_constraint_data(p, grid.shape)
            assert "rho" in p.j_region._resolved[grid]
            refs = [weakref.ref(x) for x in (grid, p.f, p.f._resolved["pair_lift"][1].parts,
                                             sol.basis._full_form.vecs)]
            return p.j_region, refs

        j_region, refs = solved()
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4
        assert len(j_region._resolved) == 0
        record = weakref.ref(j_region)
        del j_region
        gc.collect()
        assert record() is None

    def test_bep_and_fbep_records_share_a_region(self, grid_24_96, monkeypatch):
        # a BEP and an f-BEP solved in turn on one partition each keep their own record
        from bergbep import bep

        p = _kept_problem(grid_24_96)
        bep_p = BepProblem(p.k_region, p.j_region, p.h_k, p.h_j, p.m, p.degree)
        records = self._count(monkeypatch, bep, "_j_record")
        for expected in (3, 0):  # the BEP's core and leading core, the f-BEP's core
            records.clear()
            solve_bep(bep_p)
            solve_fbep(p)
            assert len(records) == expected

    def test_debug_log_names_built_and_reused(self, grid_24_96, caplog):
        p = _kept_problem(grid_24_96)
        for expected in ("built", "reused"):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="bergbep"):
                solve_fbep(p)
                transformed_constraint_data(p)
            lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG
                     and r.getMessage().startswith(expected)]
            assert lines == [f"{expected} the lifted space of exp_x 0.8 at degree 12",
                             f"{expected} the J record of the exp_x 0.8 lifts at degree 12",
                             f"{expected} rho of exp_x 0.8 on the 12x24 norm grid"]


class TestBasisGrid:
    """A basis must live on its problem's grid, even one with the same node count."""

    def test_basis_from_another_grid_rejected(self, grid_24_96):
        other = build_grid(48, 48)  # 2304 nodes, as 24x96
        basis = build_fbep_space(Conductivity.exp_x(grid_24_96, 0.3), 4)
        p = make_problem(other, Conductivity.exp_x(other, 0.3), degree=4)
        for candidate in (basis, VekuaBasis(basis.alpha, basis.elements)):
            with pytest.raises(GridMismatchError):
                solve_fbep(p, candidate)
            with pytest.raises(GridMismatchError):
                ConstrainedLSQ.from_problem(p, candidate)

    def test_conductivity_from_another_grid_rejected(self, grid_24_96):
        f = Conductivity.exp_x(build_grid(24, 96), 0.3)  # the same shape, another grid object
        with pytest.raises(ValueError, match="conductivity and data use different grids"):
            make_problem(grid_24_96, f, degree=4)

    def test_elements_from_another_grid_rejected(self, grid_24_96):
        other = build_grid(48, 48)
        basis = build_fbep_space(Conductivity.exp_x(other, 0.3), 4)
        alpha = alpha_from_f(Conductivity.exp_x(grid_24_96, 0.3))
        with pytest.raises(GridMismatchError, match="different grids"):
            VekuaBasis(alpha, basis.elements)

    @pytest.mark.parametrize("other_shape", [(16, 64), (24, 96)])
    def test_span_projection_of_h_from_another_grid_rejected(self, other_shape):
        # another grid object of the same shape, and a larger one, whose first
        # nodes the samples would otherwise read
        grid = build_grid(16, 64)
        basis = build_fbep_space(Conductivity.exp_x(grid, 0.5), 4)
        other = build_grid(*other_shape)
        h = GridFunction(other, np.exp(other.nodes))
        coeffs = np.ones(basis.size)
        for candidate in (basis, VekuaBasis(basis.alpha, basis.elements)):
            with pytest.raises(GridMismatchError):
                candidate.project_span(h)
            with pytest.raises(GridMismatchError):
                candidate.real_rhs(h)
            with pytest.raises(GridMismatchError):
                invariance_defect(candidate, coeffs, h)
            on_grid = GridFunction(grid, np.exp(grid.nodes))
            assert np.all(np.isfinite(candidate.project_span(on_grid)))

    def test_dense_matrix_built_on_first_use(self, basis_exp01_n8):
        _, basis = basis_exp01_n8
        hand_built = VekuaBasis(basis.alpha, basis.elements)
        assert hand_built._matrix is None
        matrix = hand_built.values_matrix()
        assert hand_built.values_matrix() is matrix
        assert np.array_equal(matrix[:, 3], basis.elements[3].w.values.ravel())
