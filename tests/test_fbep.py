import copy
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
    restriction_map_norm,
    solve_bep,
    solve_fbep,
    teodorescu,
    transformed_constraint_data,
)
from bergbep.bep import _LAMBDA_FLOOR, ConstrainedLSQ
from bergbep.vekua import _lift_batch, _normal_top_eigenvalue, alpha_from_f


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
        # detector, and reaches max_iter; build_fbep_space lifts these closed
        # forms by mode pairs instead
        f = getattr(Conductivity, kind)(build_grid(8, 32), eps)
        seeds = [
            AnalyticCoeffs(unit * AnalyticCoeffs.unit(n, 2).coeffs)
            for unit in (1.0, 1.0j)
            for n in range(3)
        ]
        lifted = _lift_batch(seeds, alpha_from_f(f), 1e-9, 60)[0]
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
        # the per-grid and per-region caches hold the grid weakly
        def solved():
            grid = build_grid(12, 48)
            p = make_problem(grid, Conductivity.exp_x(grid, 0.1), degree=6)
            sol = solve_fbep(p)
            fbep_conjecture_check(p, sol)
            transformed_constraint_data(p)
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
        assert directional_kkt_check(p, sol, n_directions=50, seed=0) >= -1e-6

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
        for _ in range(20):  # one direction at a time from the same stream
            d = rng.standard_normal(sol.coeffs.size)
            d /= np.linalg.norm(d)
            values.append(grad_k @ (-d if grad_j @ d > 0.0 else d))
        worst = directional_kkt_check(p, sol, n_directions=20, seed=7)
        assert abs(worst - min(values)) <= 1e-14 * np.linalg.norm(grad_k)
        assert directional_kkt_check(p, sol, n_directions=0) == np.inf


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


class TestBasisDiagnostics:
    def test_min_eigenvalue_from_core(self, grid_32_64, basis_exp01_n8):
        # the core and the basis read the basis's one full-disc decomposition;
        # the reference is the Gram of the samples
        f, basis = basis_exp01_n8
        sol = solve_fbep(make_problem(grid_32_64, f), basis)
        vals = np.linalg.eigvalsh(basis.real_gram())
        assert abs(sol.basis_min_eig - vals[0]) <= 1e-12 * vals[-1]
        assert abs(basis.min_eigenvalue() - vals[0]) <= 1e-12 * vals[-1]

    def test_no_gram_unless_logged(self, grid_32_64, caplog):
        # the logged eigenvalue comes from the pair spectra: no lift is sampled
        f = Conductivity.exp_x(grid_32_64, 0.1)
        with caplog.at_level(logging.WARNING, logger="bergbep"):
            basis = build_fbep_space(f, 4)
        assert "_full_form" not in vars(basis)
        with caplog.at_level(logging.INFO, logger="bergbep"):
            basis = build_fbep_space(f, 4)
        assert "_full_form" in vars(basis)
        assert basis._matrix is None and "elements" not in vars(basis)
        assert any("Gram min eigenvalue" in r.getMessage() for r in caplog.records)

    def test_span_projection_builds_one_gram(self, basis_exp01_n8, monkeypatch):
        # real_rhs takes the moments alone, so the projection's one Gram is real_gram's
        import bergbep.vekua as vekua

        f, basis = basis_exp01_n8
        grams = []
        forms = vekua._forms
        monkeypatch.setattr(vekua, "_forms", lambda *a: grams.append(1) or forms(*a))
        basis.project_span(f.values)
        assert grams == [1]


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
        from bergbep.bergman import _forms

        basis = _pair_basis(kind, eps, shape, degree)
        grid = basis.grid
        h = GridFunction.from_function(grid, lambda z: np.conj(z) + 0.3 * np.abs(z) ** 2 + 0.5j)
        samples = basis.values_matrix()
        for region in _pair_regions(shape):
            w = region.weights(grid)
            gram, moments = _forms(samples, w.ravel(), h.values.ravel(), np.real)
            pair_gram, pair_moments = basis._lsq_forms(w, h.values)
            assert _rel(pair_gram, gram) <= 1e-13
            assert _rel(pair_moments, moments) <= 1e-13

    @pytest.mark.parametrize("kind, eps, shape, degree", _PAIR_CASES)
    def test_full_gram_matches_dense_samples(self, kind, eps, shape, degree):
        # the full-disc weights are constant along theta: only equal modes couple
        basis = _pair_basis(kind, eps, shape, degree)
        assert _rel(basis._full_gram(), basis.real_gram()) <= 1e-14

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
        from bergbep.bergman import _forms

        def forbidden(*args, **kwargs):
            raise AssertionError("the dense reference used the pair forms")

        basis = _pair_basis(kind, eps, shape, degree)
        for name in ("_lsq_forms", "_lsq_moments", "_synthesis"):
            monkeypatch.setattr(type(basis), name, forbidden)
        grid = basis.grid
        h = GridFunction.from_function(grid, lambda z: np.conj(z) + 0.3 * np.abs(z) ** 2 + 0.5j)
        assert basis._matrix is None
        gram = basis.real_gram()
        samples = basis._matrix
        assert samples is not None and samples.shape == (grid.weights.size, basis.size)
        full_gram, full_moments = _forms(samples, grid.weights.ravel(), h.values.ravel(), np.real)
        assert np.array_equal(gram, full_gram)
        assert np.array_equal(basis.real_rhs(h), full_moments)
        for region in _pair_regions(shape):
            w = region.weights(grid).ravel()
            gram, moments = _forms(samples, w, h.values.ravel(), np.real)
            assert np.array_equal(basis.real_gram(region), gram)
            assert np.array_equal(basis.real_rhs(h, region), moments)
        c = np.random.default_rng(5).standard_normal(basis.size)
        assert np.array_equal(basis.synthesize(c).values.ravel(), samples @ c)

    @pytest.mark.parametrize("kind, eps", [("exp_x", 0.8), ("exp_x", 2.5), ("exp_xy", 6.0)])
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

    def _record_forms(self, monkeypatch):
        """Record the class of every basis that hands the core a region form (J only)."""
        from bergbep.vekua import _PairBasis

        calls = []
        for cls in (VekuaBasis, _PairBasis):
            original = cls.__dict__["_lsq_forms"]

            def recording(self, *args, _cls=cls, _original=original):
                calls.append(_cls.__name__)
                return _original(self, *args)

            monkeypatch.setattr(cls, "_lsq_forms", recording)
        return calls

    def test_path_selection(self, grid_16_64, monkeypatch):
        closed = Conductivity.exp_x(grid_16_64, 0.3)
        p_closed = make_problem(grid_16_64, closed, degree=4)
        p_sampled = make_problem(grid_16_64, _grid_sampled(closed), degree=4)
        basis = build_fbep_space(closed, 4)
        calls = self._record_forms(monkeypatch)
        sol = solve_fbep(p_closed)
        assert calls == ["_PairBasis"]
        assert sol.basis._matrix is None  # the spectra, not the samples
        solve_fbep(p_sampled)
        assert calls == ["_PairBasis", "VekuaBasis"]
        solve_fbep(p_closed, VekuaBasis(basis.alpha, basis.elements))
        assert calls == ["_PairBasis", "VekuaBasis", "VekuaBasis"]

    @pytest.mark.parametrize("sampled", [False, True])
    def test_one_full_decomposition_per_basis(self, grid_16_64, monkeypatch, sampled):
        # two problems and three budgets over one basis: one full-disc Gram and
        # one eigh of it, and one region form (J) per core
        from bergbep.vekua import _PairBasis

        f = Conductivity.exp_x(grid_16_64, 0.3)
        basis = build_fbep_space(f, 4)
        if sampled:
            basis = VekuaBasis(basis.alpha, basis.elements)
        grams = []
        cls = type(basis)
        full_gram = cls._full_gram
        monkeypatch.setattr(cls, "_full_gram", lambda self: grams.append(1) or full_gram(self))
        forms = self._record_forms(monkeypatch)
        cores = []
        for k in (Region.radial_disc(0.5), Region.sector(1.2)):
            for m in (0.05, 0.2, 1e3):
                p = FbepProblem(
                    f, k, k.complement(), GridFunction.constant(grid_16_64, 1.0),
                    GridFunction.constant(grid_16_64, 0.0), m, 4,
                )
                sol = solve_fbep(p, basis)
                cores.append(sol._assembly[1])
        assert grams == [1]
        assert all(core.full is basis._full_form for core in cores)
        assert forms == [cls.__name__] * 6
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
        assert applies == [grid_24_96.shape]  # the certificate of w_*
        assert sol.basis._matrix is None
        assert "elements" not in vars(sol.basis)  # no lift was sampled on the grid
        # the samples, built when asked for, give the same certificate
        w_star = sol.basis.synthesize(sol.coeffs)
        assert np.max(np.abs(w_star.values - sol.w_star.values)) <= 1e-14
        assert all(el.converged and el.iterations == 1 for el in sol.basis.elements)


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

    def test_elements_from_another_grid_rejected(self, grid_24_96):
        other = build_grid(48, 48)
        basis = build_fbep_space(Conductivity.exp_x(other, 0.3), 4)
        alpha = alpha_from_f(Conductivity.exp_x(grid_24_96, 0.3))
        with pytest.raises(GridMismatchError, match="different grids"):
            VekuaBasis(alpha, basis.elements)

    def test_dense_matrix_built_on_first_use(self, basis_exp01_n8):
        _, basis = basis_exp01_n8
        hand_built = VekuaBasis(basis.alpha, basis.elements)
        assert hand_built._matrix is None
        matrix = hand_built.values_matrix()
        assert hand_built.values_matrix() is matrix
        assert np.array_equal(matrix[:, 3], basis.elements[3].w.values.ravel())
