import functools
import gc
import logging
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import bergbep

from bergbep import (
    AnalyticCoeffs,
    BepProblem,
    ConvergenceError,
    GridFunction,
    InfeasibleProblemError,
    Region,
    build_grid,
    constraint_error,
    feasibility_distance,
    glue,
    project,
    solve_at_lambda,
    solve_bep,
    solve_bep_oracle,
)
from bergbep.bep import ConstrainedLSQ, FullForm, _newton
from bergbep.bergman import _forms, basis_matrix
from conftest import low_degree_infeasible_problem, saturated_problem

# frozen regression: distance of conj(z) to the degree-16 span on the
# annulus 0.5 < |z| < 1, computed once from the normal equations
ZBAR_ANNULUS_DISTANCE = 0.6846657600639249


def constant_fixture(grid, m=0.1, degree=16):
    k = Region.radial_disc(0.5)
    return BepProblem(
        k_region=k,
        j_region=k.complement(),
        h_k=GridFunction.constant(grid, 1.0),
        h_j=GridFunction.constant(grid, 0.0),
        m=m,
        degree=degree,
    )


class TestFeasibilityDistance:
    def test_member_of_span(self, grid_24_96):
        j = Region.annulus(0.5)
        h = AnalyticCoeffs.unit(2, 2).on_grid(grid_24_96)
        assert feasibility_distance(h, j, 8) <= 1e-10

    def test_zero_data(self, grid_24_96):
        j = Region.annulus(0.5)
        assert feasibility_distance(GridFunction.constant(grid_24_96, 0.0), j, 8) == 0.0

    def test_zbar_regression(self, grid_24_96):
        j = Region.annulus(0.5)
        h = GridFunction.from_function(grid_24_96, lambda z: np.conj(z))
        assert abs(feasibility_distance(h, j, 16) - ZBAR_ANNULUS_DISTANCE) <= 1e-10


class TestSolveAtLambda:
    def test_lambda_zero_is_projection(self, grid_24_96):
        k = Region.radial_disc(0.5)
        h_k = GridFunction.from_function(grid_24_96, lambda z: np.abs(z) ** 2)
        h_j = GridFunction.from_function(grid_24_96, lambda z: z)
        p = BepProblem(
            k_region=k, j_region=k.complement(), h_k=h_k, h_j=h_j, m=0.5, degree=10
        )
        c = solve_at_lambda(p, 0.0)
        expected = project(glue(h_k, h_j, k), 10)
        assert np.max(np.abs(c.coeffs - expected.coeffs)) <= 1e-13

    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
    def test_analytic_data_is_fixed_point(self, grid_24_96, lam):
        k = Region.radial_disc(0.5)
        e0 = GridFunction.constant(grid_24_96, 1.0)
        p = BepProblem(k_region=k, j_region=k.complement(), h_k=e0, h_j=e0, m=1.0, degree=8)
        c = solve_at_lambda(p, lam)
        unit = np.zeros(9)
        unit[0] = 1.0
        assert np.max(np.abs(c.coeffs - unit)) <= 1e-10

    def test_disc_limit_surrogate(self, grid_24_96):
        # tiny K: for large lambda the solution drifts to the J-side fit
        k = Region.radial_disc(0.05)
        h_j = GridFunction.from_function(grid_24_96, lambda z: np.abs(z) ** 2)
        p = BepProblem(
            k_region=k,
            j_region=k.complement(),
            h_k=GridFunction.constant(grid_24_96, 5.0),
            h_j=h_j,
            m=1.0,
            degree=8,
        )
        from bergbep.bergman import basis_matrix

        e = basis_matrix(grid_24_96, 8)
        w = k.complement().weights(grid_24_96).ravel()
        g = e.conj().T @ (w[:, None] * e)
        b = e.conj().T @ (w * h_j.values.ravel())
        target = np.linalg.solve(g, b)
        gaps = [
            np.linalg.norm(solve_at_lambda(p, lam).coeffs - target)
            for lam in (10.0, 100.0, 1000.0)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_rejects_lambda_at_minus_one(self, grid_24_96):
        p = constant_fixture(grid_24_96)
        with pytest.raises(ValueError):
            solve_at_lambda(p, -1.0)


class TestConstraintError:
    def test_monotone_two_points(self, grid_24_96):
        p = constant_fixture(grid_24_96)
        assert constraint_error(p, 1e6) <= constraint_error(p, 0.0)

    def test_monotone_sampled(self, grid_24_96):
        p = constant_fixture(grid_24_96)
        lams = [-0.9, -0.5, 0.0, 0.7, 2.0, 8.0, 50.0]
        errs = [constraint_error(p, lam) for lam in lams]
        for a, b in zip(errs, errs[1:]):
            assert a >= b - 1e-12

    def test_representable_data_zero_for_all_lambda(self, grid_24_96):
        k = Region.radial_disc(0.5)
        h = AnalyticCoeffs(np.array([0.2, 1.0j, -0.4])).on_grid(grid_24_96)
        p = BepProblem(k_region=k, j_region=k.complement(), h_k=h, h_j=h, m=1.0, degree=8)
        for lam in (0.0, 3.0, 100.0):
            assert constraint_error(p, lam) <= 1e-12

    def test_lambda_zero_definition(self, grid_24_96):
        k = Region.radial_disc(0.5)
        h_k = GridFunction.from_function(grid_24_96, lambda z: np.exp(z))
        h_j = GridFunction.from_function(grid_24_96, lambda z: np.conj(z) ** 2)
        p = BepProblem(k_region=k, j_region=k.complement(), h_k=h_k, h_j=h_j, m=0.9, degree=10)
        g0 = project(glue(h_k, h_j, k), 10).on_grid(grid_24_96)
        expected = (g0 - h_j).norm(k.complement())
        assert abs(constraint_error(p, 0.0) - expected) <= 1e-12


class TestSolveBep:
    def test_attainable_data(self, grid_24_96):
        k = Region.radial_disc(0.5)
        h = AnalyticCoeffs(np.array([1.0, 0.5j])).on_grid(grid_24_96)
        p = BepProblem(k_region=k, j_region=k.complement(), h_k=h, h_j=h, m=1.0, degree=8)
        sol = solve_bep(p)
        assert not sol.saturated
        assert sol.err_k <= 1e-10
        assert sol.err_j <= p.m

    @pytest.mark.parametrize("m", [np.nan, np.inf, 0.0, -1.0])
    def test_budget_validated(self, m):
        # NaN passes "m <= 0" and used to saturate against a NaN budget
        grid = build_grid(12, 48)
        k = Region.radial_disc(0.5)
        h = GridFunction.constant(grid, 1.0)
        with pytest.raises(ValueError, match="constraint level M must be positive and finite"):
            BepProblem(k_region=k, j_region=k.complement(), h_k=h, h_j=h, m=m, degree=8)

    def test_degree_beyond_exactness_rejected(self):
        # 8x16 integrates z^m conj(z)^n exactly up to m + n = 15, so N <= 7
        grid = build_grid(8, 16)
        k = Region.radial_disc(0.5)
        h = GridFunction.constant(grid, 1.0)
        BepProblem(k_region=k, j_region=k.complement(), h_k=h, h_j=h, m=1.0, degree=7)
        with pytest.raises(ValueError, match="too large for grid exactness 15"):
            BepProblem(k_region=k, j_region=k.complement(), h_k=h, h_j=h, m=1.0, degree=12)
        with pytest.raises(ValueError, match="too large for grid exactness 15"):
            feasibility_distance(h, k.complement(), 8)

    def test_solved_problem_releases_grid_and_regions(self):
        # the per-grid and per-region caches hold the grid weakly
        def solved():
            grid = build_grid(12, 48)
            k = Region.mask(np.abs(grid.nodes - 0.2) < 0.5)
            h_k = AnalyticCoeffs(np.array([1.0, 0.5j, 0.2])).on_grid(grid)
            h_j = GridFunction.from_function(grid, lambda z: 0.3 * np.conj(z))
            p = saturated_problem(grid, k, h_k, h_j, 8)
            assert solve_bep(p).saturated
            return [weakref.ref(obj) for obj in (grid, p.k_region, p.j_region)]

        refs = solved()
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    def test_saturation(self, grid_24_96):
        p = constant_fixture(grid_24_96)
        sol = solve_bep(p)
        assert sol.saturated
        assert abs(sol.err_j - p.m) <= 1e-8 * max(1.0, p.m)
        assert sol.kkt_residual <= 1e-8 * (1.0 + sol.g0.norm())
        assert -1.0 < sol.lam

    def test_lambda_increases_as_m_shrinks(self, grid_24_96):
        lams = [
            solve_bep(constant_fixture(grid_24_96, m=m), degree_diagnostic=False).lam
            for m in (0.4, 0.04, 0.004)
        ]
        assert lams[0] < lams[1] < lams[2]

    def test_lambda_toward_minus_one_as_m_grows(self, grid_24_96):
        lams = [
            solve_bep(constant_fixture(grid_24_96, m=m), degree_diagnostic=False).lam
            for m in (0.1, 0.4, 0.8)
        ]
        assert lams[0] > lams[1] > lams[2] > -1.0

    def test_err_k_non_increasing_in_m(self, grid_24_96):
        errs = [
            solve_bep(constant_fixture(grid_24_96, m=m), degree_diagnostic=False).err_k
            for m in (0.05, 0.2, 0.6)
        ]
        assert errs[0] >= errs[1] >= errs[2]

    def test_bracket_independence(self, grid_24_96):
        # the search's root does not depend on where it starts
        p = constant_fixture(grid_24_96)
        core = ConstrainedLSQ.from_problem(p)
        feas = core.feasibility()
        c1, c2 = (core.coeffs(_newton(core._form_err, p.m, mu, [], feas)[0]) for mu in (2.0, 10.7))
        assert np.max(np.abs(c1 - c2)) <= 1e-9

    def test_infeasible_raises(self, grid_24_96):
        k = Region.radial_disc(0.5)
        p = BepProblem(
            k_region=k,
            j_region=k.complement(),
            h_k=GridFunction.constant(grid_24_96, 0.0),
            h_j=GridFunction.from_function(grid_24_96, lambda z: np.conj(z)),
            m=1e-6,
            degree=8,
        )
        with pytest.raises(InfeasibleProblemError):
            solve_bep(p)

    def test_degenerate_region_guard(self, grid_24_96):
        empty = Region.mask(np.zeros(grid_24_96.shape, dtype=bool))
        with pytest.raises(ValueError):
            BepProblem(
                k_region=empty,
                j_region=empty.complement(),
                h_k=GridFunction.constant(grid_24_96),
                h_j=GridFunction.constant(grid_24_96),
                m=0.5,
                degree=4,
            )

    def test_rejects_non_partition(self, grid_24_96):
        k = Region.radial_disc(0.5)
        with pytest.raises(ValueError):
            BepProblem(
                k_region=k,
                j_region=Region.annulus(0.7),
                h_k=GridFunction.constant(grid_24_96),
                h_j=GridFunction.constant(grid_24_96),
                m=0.5,
                degree=4,
            )

    def test_rejects_nonpositive_m(self, grid_24_96):
        k = Region.radial_disc(0.5)
        with pytest.raises(ValueError):
            BepProblem(
                k_region=k,
                j_region=k.complement(),
                h_k=GridFunction.constant(grid_24_96),
                h_j=GridFunction.constant(grid_24_96),
                m=0.0,
                degree=4,
            )

    def test_degree_diagnostic_reported(self, grid_24_96):
        sol = solve_bep(constant_fixture(grid_24_96, degree=12))
        assert sol.degree_gap is not None
        assert sol.degree_gap < 0.1

    def test_degree_gap_matches_separate_solve(self, saturated_family):
        p = saturated_family[1]
        sol = solve_bep(p)
        low = solve_bep(
            BepProblem(p.k_region, p.j_region, p.h_k, p.h_j, p.m, p.degree - 4),
            degree_diagnostic=False,
        ).g0.coeffs
        c = sol.g0.coeffs
        gap = np.linalg.norm(np.concatenate((c[: low.size] - low, c[low.size :])))
        assert abs(sol.degree_gap - gap) <= 1e-12

    def test_degree_gap_none_when_infeasible_at_low_degree(self, grid_24_96, caplog):
        # the budget is feasible at N = 16 but not at N - 4: the diagnostic
        # is left out and the solve is the diagnostic-free one
        p = low_degree_infeasible_problem(grid_24_96)
        with caplog.at_level(logging.INFO, logger="bergbep"):
            sol = solve_bep(p)
        plain = solve_bep(p, degree_diagnostic=False)
        assert sol.saturated and sol.degree_gap is None
        assert np.array_equal(sol.g0.coeffs, plain.g0.coeffs)
        assert (sol.lam, sol.iterations) == (plain.lam, plain.iterations)
        assert sum("no degree gap" in r.getMessage() for r in caplog.records) == 1

    def test_degree_gap_none_when_low_degree_search_fails(self, grid_128_256, caplog):
        # the N - 4 re-solve searches into the K-null band, where err_J(mu) is not
        # monotone, and raises ConvergenceError; the problem's own solve saturates
        h_k = GridFunction.from_function(grid_128_256, lambda z: np.exp(z) + 0.2 * np.conj(z))
        h_j = GridFunction.from_function(grid_128_256, lambda z: 0.3 * np.conj(z))
        p = saturated_problem(grid_128_256, Region.sector(1.2), h_k, h_j, 60)
        with caplog.at_level(logging.INFO, logger="bergbep"):
            sol = solve_bep(p)
        assert sol.saturated and sol.degree_gap is None
        assert abs(sol.err_j - p.m) <= 1e-8 * max(1.0, p.m)
        assert sol.kkt_residual <= 1e-8 * (1.0 + sol.g0.norm())
        gap_lines = [r.getMessage() for r in caplog.records if "no degree gap" in r.getMessage()]
        assert len(gap_lines) == 1 and "not monotone" in gap_lines[0]

    def test_bracket_exhaustion_reports(self, grid_24_96):
        # M a hair below the feasibility floor still passes the 1e-9
        # feasibility gate, but e(lambda) can never get under it
        k = Region.radial_disc(0.5)
        h_j = GridFunction.from_function(grid_24_96, lambda z: np.conj(z))
        j = k.complement()
        feas = feasibility_distance(h_j, j, 8)
        p = BepProblem(
            k_region=k,
            j_region=j,
            h_k=GridFunction.constant(grid_24_96, 1.0),
            h_j=h_j,
            m=feas - 5e-10,
            degree=8,
        )
        with pytest.raises(ConvergenceError):
            solve_bep(p)


class TestOracle:
    def test_matches_on_saturated_family(self, saturated_family):
        for p in saturated_family:
            sol = solve_bep(p, degree_diagnostic=False)
            oracle = solve_bep_oracle(p)
            assert sol.saturated and oracle.saturated
            assert np.max(np.abs(sol.g0.coeffs - oracle.g0.coeffs)) <= 1e-6

    def test_inactive_case_matches(self, grid_24_96):
        k = Region.radial_disc(0.5)
        h = AnalyticCoeffs(np.array([1.0, 0.5j])).on_grid(grid_24_96)
        p = BepProblem(k_region=k, j_region=k.complement(), h_k=h, h_j=h, m=1.0, degree=8)
        sol, oracle = solve_bep(p), solve_bep_oracle(p)
        assert not sol.saturated and not oracle.saturated
        assert np.max(np.abs(sol.g0.coeffs - oracle.g0.coeffs)) <= 1e-8

    def test_matches_on_mask_region(self, grid_24_96):
        z = grid_24_96.nodes
        k = Region.mask(np.abs(z - (0.2 + 0.1j)) < 0.45)
        h_k = AnalyticCoeffs(np.array([1.0, -0.5j, 0.3])).on_grid(grid_24_96)
        h_j = GridFunction.from_function(grid_24_96, lambda z: 0.3 * np.conj(z))
        p = saturated_problem(grid_24_96, k, h_k, h_j, 12)
        sol, oracle = solve_bep(p, degree_diagnostic=False), solve_bep_oracle(p)
        assert sol.saturated and oracle.saturated
        assert np.max(np.abs(sol.g0.coeffs - oracle.g0.coeffs)) <= 1e-8

    def test_never_uses_core_diagonal_solve(self, grid_24_96, monkeypatch):
        def forbidden(self, mu):
            raise AssertionError("the oracle called ConstrainedLSQ.coeffs")

        p = constant_fixture(grid_24_96)
        expected = solve_bep(p, degree_diagnostic=False).g0.coeffs
        monkeypatch.setattr(ConstrainedLSQ, "coeffs", forbidden)
        oracle = solve_bep_oracle(p)
        assert oracle.saturated
        assert np.max(np.abs(oracle.g0.coeffs - expected)) <= 1e-8

    def test_saturation_reported_by_both(self, grid_24_96):
        p = constant_fixture(grid_24_96)
        for s in (solve_bep(p, degree_diagnostic=False), solve_bep_oracle(p)):
            assert abs(s.err_j - p.m) <= 1e-8 * max(1.0, p.m)

    def test_infeasible_raises(self, grid_24_96):
        k = Region.radial_disc(0.5)
        p = BepProblem(
            k_region=k,
            j_region=k.complement(),
            h_k=GridFunction.constant(grid_24_96, 0.0),
            h_j=GridFunction.from_function(grid_24_96, lambda z: np.conj(z)),
            m=1e-6,
            degree=8,
        )
        with pytest.raises(InfeasibleProblemError):
            solve_bep_oracle(p)


class TestSaturatedFamilyProperties:
    def test_kkt_residuals(self, saturated_family):
        for p in saturated_family:
            sol = solve_bep(p, degree_diagnostic=False)
            assert abs(sol.err_j - p.m) <= 1e-8 * max(1.0, p.m)
            assert sol.kkt_residual <= 1e-8 * (1.0 + sol.g0.norm())

    def test_mixed_region_fixture(self, grid_24_96):
        k = Region.sector(1.2)
        h_k = GridFunction.from_function(grid_24_96, lambda z: np.exp(z))
        h_j = GridFunction.from_function(grid_24_96, lambda z: 0.5 * np.conj(z))
        p = saturated_problem(grid_24_96, k, h_k, h_j, 12)
        sol = solve_bep(p, degree_diagnostic=False)
        assert sol.saturated
        assert abs(sol.err_j - p.m) <= 1e-8 * max(1.0, p.m)


def test_import_loads_no_scipy():
    code = "import sys, bergbep; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.dirname(os.path.dirname(bergbep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _dense_core(p: BepProblem) -> ConstrainedLSQ:
    """The core over the basis_matrix samples: the full-disc form diagonalized by
    eigh, and the K moments, J-form and J moments by quadrature of the samples."""
    grid = p.grid
    e = basis_matrix(grid, p.degree)
    w_k, w_j = p.k_region.weights(grid).ravel(), p.j_region.weights(grid).ravel()
    f_k, f_j = p.h_k.values.ravel(), p.h_j.values.ravel()
    a_full = _forms(e, grid.weights.ravel(), f_k, np.asarray)[0]
    return ConstrainedLSQ(
        FullForm(*np.linalg.eigh(a_full)),
        _forms(e, w_k, f_k, np.asarray)[1],
        *_forms(e, w_j, f_j, np.asarray),
        lambda c: e @ c,
        w_k, w_j, f_k, f_j,
    )


def _cancellation_problem(grid, eps: float) -> BepProblem:
    """err_J << ||h_J||_J: h_J = e^z + eps conj(z) nearly in the span, M just above
    the feasibility distance, so the form value of err_J loses its digits to
    ||h_J||_J^2 and its end point misses M on the grid."""
    k = Region.radial_disc(0.5)
    h_k = GridFunction.from_function(grid, lambda z: np.exp(z) + 0.5)
    h_j = GridFunction.from_function(grid, lambda z: np.exp(z) + eps * np.conj(z))
    feas = feasibility_distance(h_j, k.complement(), 12)
    free = solve_bep(BepProblem(k, k.complement(), h_k, h_j, 1e8, 12), degree_diagnostic=False)
    m = feas + 1e-6 * (free.err_j - feas)
    return BepProblem(k, k.complement(), h_k, h_j, m, 12)


class TestPolarCore:
    def test_cancellation_falls_back_to_grid(self, grid_24_96, caplog):
        # the form end point misses M on the grid (by about 4e-11), and the
        # search continues on grid values of err_J
        p = _cancellation_problem(grid_24_96, 1e-7)
        m = p.m
        with caplog.at_level(logging.DEBUG, logger="bergbep"):
            sol = solve_bep(p, degree_diagnostic=False)
        assert any("missed M on the grid" in r.getMessage() for r in caplog.records)
        assert sol.saturated
        assert abs(sol.err_j - m) <= 1e-8 * max(1.0, m)
        # the grid search reaches the stop tolerance, not just the 1e-8 contract
        assert abs(sol.err_j - m) <= 1e-12 * max(1.0, m)
        assert sol.kkt_residual <= 1e-8 * (1.0 + sol.g0.norm())
        oracle = solve_bep_oracle(p)
        assert np.max(np.abs(oracle.g0.coeffs - sol.g0.coeffs)) <= 1e-8

    @pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-6, 1e-5])
    def test_grid_continuation_by_newton(self, grid_24_96, monkeypatch, caplog, eps):
        # the continuation is the Newton search on grid values with the forms'
        # slope: no bisection, and a few grid evaluations (a bisection took 18-20)
        import bergbep.bep as bep

        p = _cancellation_problem(grid_24_96, eps)
        core = ConstrainedLSQ.from_problem(p)
        core._m_free()  # the budget-free grid passes, counted apart

        def forbidden(*args, **kwargs):
            raise AssertionError("the core used the bisection")

        calls = []
        err = ConstrainedLSQ.err
        monkeypatch.setattr(bep, "_bisect", forbidden)
        monkeypatch.setattr(
            ConstrainedLSQ,
            "err",
            lambda self, c, side, *a: calls.append((side, c.tobytes())) or err(self, c, side, *a),
        )
        with caplog.at_level(logging.DEBUG, logger="bergbep"):
            result = core.solve(p.m)
        assert any("missed M on the grid" in r.getMessage() for r in caplog.records)
        assert result.saturated
        grid_j = [c for side, c in calls if side == "j"]
        assert len(grid_j) <= 3  # the end point and the continuation
        assert len(set(grid_j)) == len(grid_j)  # no mu is evaluated twice on the grid
        assert abs(result.err_j - p.m) <= 1e-12 * max(1.0, p.m)

    def test_oracle_without_polar_assembly(self, grid_24_96, monkeypatch):
        import bergbep.bep as bep

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle used the polar assembly")

        p = constant_fixture(grid_24_96)
        expected = solve_bep(p, degree_diagnostic=False).g0.coeffs
        for name in ("_polar_core", "_ring_gram", "_ring_moments", "_ring_synthesis"):
            monkeypatch.setattr(bep, name, forbidden)
        oracle = solve_bep_oracle(p)
        assert oracle.saturated
        assert np.max(np.abs(oracle.g0.coeffs - expected)) <= 1e-8


    def test_one_gram_and_one_eigh_per_core(self, saturated_family, monkeypatch):
        # two cores: the problem's, and the degree diagnostic's leading core,
        # which slices the J-form and the grid norms of its parent
        import bergbep.bep as bep

        calls = []
        ring_gram, eigh = bep._ring_gram, np.linalg.eigh
        monkeypatch.setattr(bep, "_ring_gram", lambda *a: calls.append("gram") or ring_gram(*a))
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append("eigh") or eigh(*a))
        sol = solve_bep(saturated_family[0])
        assert sol.degree_gap is not None
        assert sorted(calls) == ["eigh", "eigh", "gram"]

    def test_feasibility_distance_transforms_j_data_only(self, saturated_family, monkeypatch):
        # the feasibility core has zero K data, whose moments are zero without a transform
        import bergbep.bep as bep

        calls = []
        ring_moments = bep._ring_moments
        monkeypatch.setattr(bep, "_ring_moments", lambda *a: calls.append(1) or ring_moments(*a))
        p = saturated_family[0]
        feas = feasibility_distance(p.h_j, p.j_region, p.degree)
        assert calls == [1]
        assert feas == ConstrainedLSQ.from_problem(p).feasibility()

    def test_grid_passes(self, saturated_family, monkeypatch):
        # the problem's core: the J-fit, the mu = 0 fit, the end point and err_K;
        # the leading core: the first three, with ||h_J||_J^2 from its parent
        calls = []
        err, h_j_sq = ConstrainedLSQ.err, ConstrainedLSQ._h_j_sq.func
        counted = functools.cached_property(lambda self: calls.append("h") or h_j_sq(self))
        counted.__set_name__(ConstrainedLSQ, "_h_j_sq")
        monkeypatch.setattr(ConstrainedLSQ, "_h_j_sq", counted)
        monkeypatch.setattr(
            ConstrainedLSQ,
            "err",
            lambda self, c, side, *a: calls.append(side) or err(self, c, side, *a),
        )
        sol = solve_bep(saturated_family[0])
        assert sol.saturated and sol.degree_gap is not None
        assert sorted(calls) == ["h", "j", "j", "j", "j", "j", "j", "k"]

    def test_matches_two_eigh_reference(self, saturated_family, sector_mask_64):
        # the same core over dense forms of basis_matrix, whitened by eigh of the full-disc form
        for p in saturated_family + sector_mask_64:
            reference = _dense_core(p).solve(p.m)
            sol = solve_bep(p, degree_diagnostic=False)
            assert reference.saturated and sol.saturated
            c = sol.g0.coeffs
            assert np.max(np.abs(c - reference.coeffs)) <= 1e-11 * np.max(np.abs(reference.coeffs))


class TestFullForm:
    """The full-disc eigendecomposition the core whitens by, with vecs None for the identity."""

    @staticmethod
    def _data(n=7, seed=2):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.5, 2.0, n)
        vals[2] = 1e-14  # a dropped direction
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return vals, (a + a.conj().T) / 2.0, c, vals > 1e-10 * vals.max()

    def test_identity_as_none_matches_dense_identity(self):
        vals, a, c, keep = self._data()
        none, eye = FullForm(vals), FullForm(vals, np.eye(vals.size))
        assert np.allclose(none.apply(c), eye.apply(c), rtol=1e-15, atol=0.0)
        (b_none, lift_none), (b_eye, lift_eye) = none.whitened(keep, a), eye.whitened(keep, a)
        assert np.allclose(b_none, b_eye, rtol=1e-15, atol=0.0)
        q = np.linalg.eigh(b_none)[1]
        assert np.allclose(lift_none(q), lift_eye(q), rtol=1e-15, atol=1e-300)
        assert none.leading(4).vecs is None
        assert np.allclose(none.leading(4).apply(c[:4]), vals[:4] * c[:4], rtol=1e-15, atol=0.0)

    def test_dense_whitens_applies_and_leads(self):
        vals, a, c, keep = self._data()
        v = np.linalg.qr(a + 3.0 * np.eye(vals.size))[0]
        full = FullForm(vals, v)
        a_full = (v * vals) @ v.conj().T
        assert np.allclose(full.apply(c), a_full @ c, rtol=0.0, atol=1e-14)
        b, lift = full.whitened(keep, a_full)
        assert np.allclose(b, np.eye(b.shape[0]), rtol=0.0, atol=1e-13)
        w = lift(np.eye(b.shape[0]))
        assert np.allclose(w.conj().T @ a_full @ w, np.eye(b.shape[0]), rtol=0.0, atol=1e-13)
        # a prefix of a dense form's basis is no degree truncation: it has no leading form
        with pytest.raises(ValueError, match="diagonal form only"):
            full.leading(4)


class TestInactive:
    """Inactive BEPs: err_K is well defined, the K-null coefficients are not.

    At 64x128/30 the whitened K-form 1 - tau has directions at every
    level down to rounding, so two correct solvers may fill those
    directions differently; only err_K and the budget are pinned.
    """

    @staticmethod
    def _check(grid, k, degree=30):
        j = k.complement()
        h_k = GridFunction.from_function(grid, lambda z: np.exp(z) + 0.2 * np.conj(z))
        h_j = GridFunction.from_function(grid, lambda z: 0.3 * np.conj(z))
        p = BepProblem(k, j, h_k, h_j, 1e3, degree)
        sol = solve_bep(p, degree_diagnostic=False)
        dense = _dense_core(p)  # the same core over the dense samples of the basis
        c = dense.solve(p.m).coeffs
        assert not sol.saturated
        assert sol.err_j <= p.m and dense.err(c, "j") <= p.m
        scale = max(1.0, h_k.norm(k))
        assert abs(sol.err_k - dense.err(c, "k")) <= 1e-9 * scale

    def test_disc(self, grid_64_128):
        self._check(grid_64_128, Region.radial_disc(0.5))

    def test_mask(self, grid_64_128):
        self._check(grid_64_128, Region.mask(np.abs(grid_64_128.nodes - (0.2 + 0.1j)) < 0.45))


class TestSteepSecularRoot:
    """A saturating root far below mu = 1, where err_J(mu) is very steep."""

    def test_sector_saturates(self, grid_64_128):
        # the root lies at mu ~ 1.2e-12 with slope ~ -4e14; an absolute
        # bisection floor of 1e-15 stalled there ("bisection stalled", CLI exit 3)
        k = Region.sector(2.0)
        h_k = GridFunction.from_function(grid_64_128, lambda z: np.exp(z) + 0.2 * np.conj(z))
        h_j = GridFunction.from_function(grid_64_128, lambda z: 0.3 * np.conj(z) + 0.5 * z**3)
        p = BepProblem(k, k.complement(), h_k, h_j, 1e3, 30)
        sol = solve_bep(p, degree_diagnostic=False)
        assert sol.saturated
        assert abs(sol.err_j - p.m) <= 1e-8 * p.m
        # the oracle's inactive answer is feasible, so the optimum cannot be worse
        assert sol.err_k <= solve_bep_oracle(p).err_k

    @pytest.mark.xfail(
        strict=True,
        raises=ConvergenceError,
        reason="err_J(mu) is not monotone in the K-null band: e(0) < e(1.8e-12)",
    )
    def test_sector_budget_near_free_fit(self, grid_64_128):
        # M close to the free fit's err_J: the oracle finds the problem inactive
        # (err_J 9.62 <= M = 79.95), while the core searches below mu ~ 1e-12 and
        # finds err_J(0) below err_J(1.8e-12); sector 0.8 fails the same way
        h_k = GridFunction.from_function(grid_64_128, lambda z: np.exp(z) + 0.2 * np.conj(z))
        h_j = GridFunction.from_function(grid_64_128, lambda z: 0.3 * np.conj(z))
        p = saturated_problem(grid_64_128, Region.sector(1.2), h_k, h_j, 30, frac=0.9)
        oracle = solve_bep_oracle(p)
        sol = solve_bep(p, degree_diagnostic=False)
        assert sol.err_j <= p.m
        assert sol.err_k <= oracle.err_k + 1e-12 * max(1.0, oracle.err_k)


def _region_problem(grid, kind, degree):
    """A BEP with data off the span on a disc, annulus, sector or mask K (budget unused)."""
    k = {
        "disc": Region.radial_disc(0.5),
        "annulus": Region.annulus(0.6),
        "sector": Region.sector(1.2),
        "mask": Region.mask(np.abs(grid.nodes - (0.2 + 0.1j)) < 0.45),
    }[kind]
    h_k = GridFunction.from_function(grid, lambda z: np.exp(z) + 0.2 * np.conj(z))
    h_j = GridFunction.from_function(grid, lambda z: 0.3 * np.conj(z) + 0.1 * np.abs(z) ** 2)
    return BepProblem(k, k.complement(), h_k, h_j, 1.0, degree)


@pytest.fixture(scope="module")
def sector_mask_64(grid_64_128):
    """Saturated sector and mask instances at 64x128/30."""
    h_k = AnalyticCoeffs(np.array([1.0, -0.5j, 0.3])).on_grid(grid_64_128)
    h_j = GridFunction.from_function(grid_64_128, lambda z: 0.3 * np.conj(z))
    regions = (
        Region.sector(1.2),
        Region.mask(np.abs(grid_64_128.nodes - (0.2 + 0.1j)) < 0.45),
    )
    return [saturated_problem(grid_64_128, k, h_k, h_j, 30) for k in regions]


class TestNewtonSearch:
    """The core's safeguarded Newton search on 1/err_J(mu) - 1/M = 0."""

    @pytest.mark.parametrize("kind", ["disc", "annulus", "sector", "mask"])
    def test_slope_matches_central_differences(self, grid_24_96, kind):
        core = ConstrainedLSQ.from_problem(_region_problem(grid_24_96, kind, 16))
        for mu in (1e-3, 0.05, 0.5, 3.0, 40.0):
            h = 1e-4 * mu
            e_plus, e_minus = (core._form_err(mu + step)[0] for step in (h, -h))
            slope = core._form_err(mu)[1]
            assert slope < 0.0
            assert abs((e_plus**2 - e_minus**2) / (2.0 * h) - slope) <= 1e-6 * abs(slope)

    def test_mu_matches_oracle_bisection(self, saturated_family, sector_mask_64):
        for p in saturated_family + sector_mask_64:
            sol = solve_bep(p, degree_diagnostic=False)
            oracle = solve_bep_oracle(p)
            assert sol.saturated and oracle.saturated
            mu, mu_oracle = 1.0 + sol.lam, 1.0 + oracle.lam
            assert abs(mu - mu_oracle) <= 1e-10 * mu_oracle

    def test_few_evaluations(self, saturated_family, sector_mask_64):
        # plain bisection took 33-47 steps on these instances
        for p in saturated_family + sector_mask_64:
            assert solve_bep(p, degree_diagnostic=False).iterations <= 15

    @pytest.mark.parametrize("bad", ["nan", "wrong_sign"])
    def test_safeguard_without_a_usable_slope(self, saturated_family, monkeypatch, bad):
        expected = [solve_bep(p, degree_diagnostic=False) for p in saturated_family]
        form_err = ConstrainedLSQ._form_err

        def broken(self, mu):
            e, slope = form_err(self, mu)
            return e, np.nan if bad == "nan" else -slope

        monkeypatch.setattr(ConstrainedLSQ, "_form_err", broken)
        for p, good in zip(saturated_family, expected):
            sol = solve_bep(p, degree_diagnostic=False)
            assert sol.saturated
            assert abs(sol.lam - good.lam) <= 1e-10 * (1.0 + good.lam)
            assert sol.iterations > good.iterations  # every step was a safeguard step

    def test_oracle_without_newton(self, grid_24_96, monkeypatch):
        import bergbep.bep as bep

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle used the Newton search")

        p = constant_fixture(grid_24_96)
        expected = solve_bep(p, degree_diagnostic=False).g0.coeffs
        monkeypatch.setattr(bep, "_newton", forbidden)
        oracle = solve_bep_oracle(p)
        assert oracle.saturated
        assert np.max(np.abs(oracle.g0.coeffs - expected)) <= 1e-8

    def test_budget_free_parts_once_per_core(self, saturated_family, monkeypatch):
        # a lambda-sweep's levels share one core: its feasibility distance and
        # mu = 0 fit are computed once, with the answers of a fresh core per level
        p = saturated_family[0]
        levels = (p.m, 1.1 * p.m, 1e6)
        fresh = [ConstrainedLSQ.from_problem(p).solve(m) for m in levels]
        calls = []
        feasibility = ConstrainedLSQ.feasibility
        monkeypatch.setattr(
            ConstrainedLSQ, "feasibility", lambda self: calls.append(1) or feasibility(self)
        )
        core = ConstrainedLSQ.from_problem(p)
        shared = [core.solve(m) for m in levels]
        assert len(calls) == 1
        for a, b in zip(shared, fresh):
            assert np.array_equal(a.coeffs, b.coeffs)
            assert (a.mu, a.iterations, a.saturated) == (b.mu, b.iterations, b.saturated)
        assert not shared[-1].saturated
        shared[-1].coeffs[:] = 0.0  # a returned fit does not alias the core's
        assert np.array_equal(core.solve(1e6).coeffs, fresh[-1].coeffs)

    def test_solution_errors_share_one_synthesis(self, saturated_family, monkeypatch):
        # saturated: the J-fit, the mu = 0 fit and the end point; inactive: the
        # first two.  The solution's errors reuse the search's grid values.
        import bergbep.bep as bep

        p = saturated_family[0]
        inactive = BepProblem(p.k_region, p.j_region, p.h_k, p.h_j, 1e6, p.degree)
        synthesis, calls = bep._ring_synthesis, []
        monkeypatch.setattr(
            bep, "_ring_synthesis", lambda grid, c: calls.append(1) or synthesis(grid, c)
        )
        for problem, count in ((p, 3), (inactive, 2)):
            calls.clear()
            sol = solve_bep(problem, degree_diagnostic=False)
            assert len(calls) == count
            assert sol.saturated == (problem is p)
            core = ConstrainedLSQ.from_problem(problem)
            c = sol.g0.coeffs
            assert (sol.err_k, sol.err_j) == (core.err(c, "k"), core.err(c, "j"))
