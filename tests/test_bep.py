import dataclasses
import gc
import logging
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import bergbep

from bergbep import (
    AnalyticCoeffs,
    BepProblem,
    Conductivity,
    ConvergenceError,
    GridFunction,
    InfeasibleProblemError,
    Region,
    VekuaBasis,
    build_fbep_space,
    build_grid,
    constraint_error,
    feasibility_distance,
    glue,
    project,
    solve_at_lambda,
    solve_bep,
    solve_bep_oracle,
)
from bergbep import io as bio
from bergbep.bep import (
    ConstrainedLSQ,
    FullForm,
    _FormCore,
    _bisect,
    _check_saturated,
    _GridSide,
    _newton,
    _PolarBasis,
    _RingSide,
)
from bergbep.bergman import (
    _BLOCK_NODES,
    _gram,
    _moments,
    _ring_blocks,
    _ring_norms,
    basis_matrix,
)
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
        # the per-grid and per-region caches hold the grid weakly; the record of
        # each region's own facts is kept on the region alone
        def solved():
            grid = build_grid(12, 48)
            k = Region.mask(np.abs(grid.nodes - 0.2) < 0.5)
            h_k = AnalyticCoeffs(np.array([1.0, 0.5j, 0.2])).on_grid(grid)
            h_j = GridFunction.from_function(grid, lambda z: 0.3 * np.conj(z))
            p = saturated_problem(grid, k, h_k, h_j, 8)
            assert solve_bep(p).saturated
            assert _kept_on_region_only(p.k_region, grid, ["facts"])
            assert _kept_on_region_only(p.j_region, grid, ["facts"])
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
        feas, size = core.feasibility(), max(p.m, np.sqrt(core._h_j_sq))
        c1, c2 = (
            core.coeffs(_newton(core._form_err, p.m, mu, [], feas, size)[0]) for mu in (2.0, 10.7)
        )
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

    @pytest.mark.parametrize(
        "family, index",
        [("saturated_family", i) for i in range(10)] + [("sector_mask_64", i) for i in range(2)]
        + [("annulus_24", 0)],
    )
    def test_degree_gap_matches_separate_solve(self, request, family, index):
        # the N - 4 re-solve measures on its forms alone; its gap is the one a
        # separate, grid-checked solve at degree N - 4 gives, on disc, sector,
        # mask and annulus K
        p = request.getfixturevalue(family)[index]
        sol = solve_bep(p)
        assert sol.degree_gap is not None
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


class TestOracleAssembly:
    """The oracle's forms come from ring blocks of basis samples, never a full sample matrix."""

    @staticmethod
    def _zbar_problem(grid, k: Region, degree: int) -> BepProblem:
        # h_K = 1, h_J = conj z, M = 0.75: saturated on these K at every size tried
        h_k = GridFunction.constant(grid, 1.0)
        h_j = GridFunction(grid, np.conj(grid.nodes))
        return BepProblem(k, k.complement(), h_k, h_j, 0.75, degree)

    def test_never_builds_basis_matrix(self, monkeypatch):
        import bergbep.bep as bep
        import bergbep.bergman as bergman

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle built the dense basis matrix")

        k = Region.radial_disc(0.5)
        p = self._zbar_problem(build_grid(24, 96), k, 16)
        expected = solve_bep(p, degree_diagnostic=False)
        for module in (bergman, bep):
            monkeypatch.setattr(module, "basis_matrix", forbidden, raising=False)
        grid = build_grid(24, 96)  # fresh: none of the polar layer's tables is built
        oracle = solve_bep_oracle(self._zbar_problem(grid, k, 16))
        assert oracle.saturated
        assert np.max(np.abs(oracle.g0.coeffs - expected.g0.coeffs)) <= 1e-8
        assert "radial_powers" not in grid.__dict__

    @pytest.mark.parametrize("kind", ["disc", "mask"])
    def test_peak_below_one_dense_basis(self, grid_128_256, kind):
        # at 128x256/60 one dense basis is 16 n_nodes (N + 1) B = 32 MB; the
        # oracle's traced peak stays below it (the dense assembly held about three)
        import tracemalloc

        grid = grid_128_256
        k = {
            "disc": Region.radial_disc(0.5),
            "mask": Region.mask(np.abs(grid.nodes - (0.2 + 0.1j)) < 0.45),
        }[kind]
        p = self._zbar_problem(grid, k, 60)
        tracemalloc.start()
        try:
            oracle = solve_bep_oracle(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert oracle.saturated
        assert peak < 16 * grid.weights.size * (p.degree + 1)


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


class _DenseBasis:
    """e_0..e_N as the basis_matrix samples, answering the core as a basis does: the
    full-disc form diagonalized by eigh, the forms and moments by quadrature of the
    samples and the synthesis of a block of rings by one product over their rows."""

    def __init__(self, grid, degree):
        self.grid, self.samples = grid, basis_matrix(grid, degree)
        self._full_form = FullForm(*np.linalg.eigh(self._form(grid.weights)))

    def _form(self, w):
        return _gram(self.samples, w.ravel(), np.asarray)

    def _moments(self, w, h):
        return _moments(self.samples, w.ravel(), h.ravel(), np.asarray)

    def _synthesis(self, c, rings=slice(None)):
        n_r, n_t = self.grid.shape
        start, stop, _ = rings.indices(n_r)
        return (self.samples[start * n_t : stop * n_t] @ c).reshape(-1, n_t)


def _dense_core(p: BepProblem) -> ConstrainedLSQ:
    """The core over the dense samples of the basis, through the one assembly route."""
    return ConstrainedLSQ.from_problem(p, _DenseBasis(p.grid, p.degree))


def _kept_on_region_only(region, grid, names) -> bool:
    """Whether what the region keeps for the grid under names is held by its per-grid dict
    alone: no store outside the region refers to it."""
    kept = region._resolved[grid]
    return all(gc.get_referrers(kept[name]) == [kept] for name in names)


def _record_syntheses(monkeypatch) -> list:
    """The rings (start, stop) of every polar synthesis the core asks for, in order."""
    import bergbep.bep as bep

    synthesis, calls = bep._ring_synthesis, []

    def recording(grid, c, rings=slice(None)):
        calls.append(rings.indices(grid.n_radial)[:2])
        return synthesis(grid, c, rings)

    monkeypatch.setattr(bep, "_ring_synthesis", recording)
    return calls


def _blocks(grid, rings: slice) -> list:
    """The ring blocks (start, stop) one measurement of a side on the rings synthesizes."""
    return [(b.start, b.stop) for b in _ring_blocks(grid.shape, rings)]


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
        for name in ("_PolarBasis", "_ring_gram", "_ring_moments", "_ring_synthesis"):
            monkeypatch.setattr(bep, name, forbidden)
        oracle = solve_bep_oracle(p)
        assert oracle.saturated
        assert np.max(np.abs(oracle.g0.coeffs - expected)) <= 1e-8


    def test_one_gram_and_one_eigh_per_core(self, saturated_family, monkeypatch):
        # two cores: the problem's, and the degree diagnostic's leading core,
        # which slices the J-form and the grid norms of its parent.  On fresh
        # regions a sector K assembles one ring-FFT Gram form and diagonalizes
        # each core's; a disc K takes its diagonal J-form from the ring spectrum,
        # with no eigh.  Both records are kept on J: a second solve makes neither
        import bergbep.bep as bep

        calls = []
        ring_gram, eigh = bep._ring_gram, np.linalg.eigh
        monkeypatch.setattr(bep, "_ring_gram", lambda *a: calls.append("gram") or ring_gram(*a))
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append("eigh") or eigh(*a))
        for p, first in zip(saturated_family[:2], ([], ["eigh", "eigh", "gram"])):
            fresh = dataclasses.replace(p, k_region=dataclasses.replace(p.k_region),
                                        j_region=dataclasses.replace(p.j_region))
            for expected in (first, []):
                calls.clear()
                sol = solve_bep(fresh)
                assert sol.degree_gap is not None
                assert sorted(calls) == expected

    def test_feasibility_distance_transforms_j_data_only(self, saturated_family, monkeypatch):
        # the feasibility core has zero K data, whose moments (and, on a disc, ring
        # spectrum) are zero without a transform: one fft, of the J data
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append(1) or fft(*a, **k))
        for p in saturated_family[:2]:  # a disc K, a sector K
            calls.clear()
            feas = feasibility_distance(p.h_j, p.j_region, p.degree)
            assert calls == [1]
            assert feas == ConstrainedLSQ.from_problem(p).feasibility()

    def test_feasibility_distance_resolves_j_alone(self, grid_24_96, monkeypatch):
        # K carries no data and is never measured, so J stands in for it: a first call
        # builds J's facts record alone, a repeat call on the kept J builds none, and
        # the value is the partition core's, bit for bit
        calls = []
        facts = Region._facts
        monkeypatch.setattr(Region, "_facts",
                            lambda self, grid: calls.append(self) or facts(self, grid))
        for kind in ("disc", "sector", "mask"):
            p = _region_problem(grid_24_96, kind, 16)
            j = dataclasses.replace(p.j_region)  # not resolved yet
            values = []
            for expected in ([j], []):
                calls.clear()
                values.append(feasibility_distance(p.h_j, j, p.degree))
                assert calls == expected
            assert values[0] == values[1] == ConstrainedLSQ.from_problem(p).feasibility()

    def test_grid_passes(self, saturated_family, grid_128_256, monkeypatch):
        # the problem's core: the J-fit, the mu = 0 fit and the end point, where err_J
        # and err_K are measured together.  The degree diagnostic's leading core measures
        # on its forms and makes none.  A disc K measures by Parseval on the rings (four
        # err_sq) and synthesizes nothing; a sector K measures at the nodes in three
        # passes (_grid_err_sq): J alone twice, then J and K from one synthesis of each
        # ring block of their rings, so each pass synthesizes each ring once, one ring
        # block at a time (4 blocks at 128x256: 12 syntheses)
        import bergbep.bep as bep

        calls = []
        for cls in (_RingSide, _GridSide):
            for name in ("err_sq", "h_sq"):
                method = getattr(cls, name)
                monkeypatch.setattr(
                    cls, name, lambda self, *a, _c=cls, _n=name, _m=method:
                    calls.append((_c, _n, self)) or _m(self, *a)
                )
        grid_pass = bep._grid_err_sq
        monkeypatch.setattr(bep, "_grid_err_sq", lambda c, sides: calls.append(
            (_GridSide, "pass", tuple(sides))) or grid_pass(c, sides))
        syntheses = _record_syntheses(monkeypatch)
        p = _region_problem(grid_128_256, "sector", 60)
        large = saturated_problem(grid_128_256, p.k_region, p.h_k, p.h_j, 60, frac=0.6)
        for p, path in zip(saturated_family[:2] + [large], (_RingSide, _GridSide, _GridSide)):
            calls.clear(), syntheses.clear()
            sol = solve_bep(p)
            assert sol.saturated and sol.degree_gap is not None
            assert {cls for cls, _, _ in calls} == {path}
            names = sorted(name for _, name, _ in calls)
            passes = [sides for _, name, sides in calls if name == "pass"]
            if path is _RingSide:
                assert names == ["err_sq"] * 4 + ["h_sq"] and not passes and not syntheses
                continue
            assert names == ["err_sq"] * 2 + ["h_sq"] + ["pass"] * 3
            j, k = passes[-1]
            assert passes == [(j,), (j,), (j, k)]
            expected = [block for sides in passes for block in _blocks(p.grid, slice(
                min(s.rings.start for s in sides), max(s.rings.stop for s in sides)))]
            assert syntheses == expected
            assert all(hi - lo <= max(1, _BLOCK_NODES // p.grid.angular_count)
                       for lo, hi in syntheses)
        assert len(syntheses) == 12 and {hi - lo for lo, hi in syntheses} == {32}

    def test_matches_two_eigh_reference(self, saturated_family, sector_mask_64):
        # the same core over dense forms of basis_matrix, whitened by eigh of the full-disc form
        for p in saturated_family + sector_mask_64:
            reference = _dense_core(p).solve(p.m)
            sol = solve_bep(p, degree_diagnostic=False)
            assert reference.saturated and sol.saturated
            c = sol.g0.coeffs
            assert np.max(np.abs(c - reference.coeffs)) <= 1e-11 * np.max(np.abs(reference.coeffs))


def _fresh_problem(grid, kind, degree=16):
    """A saturated BEP with a K of the kind, on regions nothing has resolved yet."""
    p = _region_problem(grid, kind, degree)
    p = saturated_problem(grid, p.k_region, p.h_k, p.h_j, degree)
    k = dataclasses.replace(p.k_region)
    return dataclasses.replace(p, k_region=k, j_region=k.complement())


class TestJRecord:
    """The J part of a polar core (A_J, the dropped count, tau and the whitening
    W q) depends on J's weights and the basis alone: it is built once per (J
    region, grid, degree) for the core and for the degree diagnostic's leading
    core, and kept on the region, read-only, for the last degree solved on each
    grid."""

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or original(*a, **k))
        return calls

    @pytest.mark.parametrize("kind", ["sector", "mask"])
    def test_repeat_solve_reads_the_record(self, grid_24_96, monkeypatch, kind):
        import bergbep.bep as bep

        p = _fresh_problem(grid_24_96, kind)
        gram = self._count(monkeypatch, bep, "_ring_gram")
        eigh = self._count(monkeypatch, np.linalg, "eigh")
        docs = []
        for expected in ((1, 2), (0, 0)):
            gram.clear(), eigh.clear()
            sol = solve_bep(p)
            assert (len(gram), len(eigh)) == expected
            assert sol.saturated and sol.degree_gap is not None
            docs.append(bio.dumps_canonical(bio.bep_solution_to_dict(sol, 16)))
        assert docs[0] == docs[1]

    def test_each_region_degree_and_grid_builds_its_own(self, grid_24_96, grid_16_64,
                                                         monkeypatch):
        import bergbep.bep as bep

        builds = self._count(monkeypatch, bep, "_j_record")
        j = Region.sector(1.2).complement()

        def feas(region, grid, degree):
            return feasibility_distance(GridFunction.from_function(grid, np.conj), region, degree)

        first = feas(j, grid_24_96, 12)
        # one degree is kept per grid: degree 10 replaces 12 on grid_24_96 only
        steps = ((j, grid_24_96, 12, 0), (dataclasses.replace(j), grid_24_96, 12, 1),
                 (j, grid_16_64, 12, 1), (j, grid_24_96, 12, 0), (j, grid_24_96, 10, 1),
                 (j, grid_16_64, 12, 0), (j, grid_24_96, 12, 1))
        for region, grid, degree, built in steps:
            builds.clear()
            value = feas(region, grid, degree)
            assert len(builds) == built
            if (grid, degree) == (grid_24_96, 12):
                assert value == first

    def test_record_is_read_only(self, grid_24_96):
        p = _fresh_problem(grid_24_96, "sector")
        core = ConstrainedLSQ.from_problem(p)
        for record in (core, core.leading(13)):
            for array in (record.a_j, record.taus, record.whiten):
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_callers_mask_mutated_after_a_solve_changes_nothing(self, grid_24_96):
        mask = np.abs(grid_24_96.nodes - (0.2 + 0.1j)) < 0.45
        k = Region(kind="mask", mask_values=mask)
        p = _region_problem(grid_24_96, "mask", 16)
        p = saturated_problem(grid_24_96, k, p.h_k, p.h_j, 16)
        before = solve_bep(p)
        mask[:] = False
        after = solve_bep(p)
        assert before.saturated and np.array_equal(after.g0.coeffs, before.g0.coeffs)
        assert (after.err_k, after.err_j) == (before.err_k, before.err_j)
        for region in (p.k_region, p.j_region):  # what is kept and what is resolved now agree
            fraction = region.fraction(grid_24_96)
            assert np.array_equal(fraction > 0.0, region.indicator(grid_24_96))
            assert np.array_equal(fraction * grid_24_96.weights, region.weights(grid_24_96))

    def test_record_dies_with_its_region(self, grid_24_96):
        # beside the J record, the region's own facts, which the J region alone holds
        def solved():
            p = _fresh_problem(grid_24_96, "sector")
            sol = solve_bep(p)
            assert sol.saturated
            key, record = p.j_region._resolved[grid_24_96]["j_record"]
            assert key == (16, 17)
            assert _kept_on_region_only(p.j_region, grid_24_96, ["j_record", "facts"])
            return weakref.ref(record.whiten), weakref.ref(p.j_region)

        refs = solved()
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_constraint_error_curve_makes_one_eigh(self, grid_24_96, monkeypatch):
        p = _fresh_problem(grid_24_96, "sector")
        eigh = self._count(monkeypatch, np.linalg, "eigh")
        errs = [constraint_error(p, lam) for lam in (-0.5, 0.0, 1.0, 4.0, 16.0)]
        assert len(eigh) == 1
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_oracle_reads_no_record(self, grid_24_96, monkeypatch):
        import bergbep.bep as bep

        p = _fresh_problem(grid_24_96, "sector")
        before = solve_bep_oracle(p)
        solve_bep(p)  # keeps both records on J

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle read a J record")

        monkeypatch.setattr(bep.ConstrainedLSQ, "_record", forbidden)
        monkeypatch.setattr(bep, "_j_record", forbidden)
        after = solve_bep_oracle(p)
        assert np.array_equal(after.g0.coeffs, before.g0.coeffs)
        assert (after.lam, after.err_k, after.err_j) == (before.lam, before.err_k, before.err_j)

    def test_degree_sweep_keeps_one_degree(self, grid_24_96):
        # a degree-convergence study on one partition keeps the records of the
        # last degree only: what the region holds does not grow with the sweep
        def held(region):
            records = {name: value for name, value in region._resolved[grid_24_96].items()
                       if "record" in name}
            return {name: key for name, (key, _) in records.items()}, sum(
                part.nbytes for _, value in records.values()
                for part in value if isinstance(part, np.ndarray))

        p = _fresh_problem(grid_24_96, "sector", degree=20)
        sweep = [held(p.j_region)]
        for degree in (8, 12, 16, 20):
            solve_bep(dataclasses.replace(p, degree=degree, m=1e3))
            sweep.append(held(p.j_region))
        alone = _fresh_problem(grid_24_96, "sector", degree=20)
        solve_bep(dataclasses.replace(alone, m=1e3))
        assert sweep[0] == ({}, 0)
        assert sweep[-1] == held(alone.j_region)
        assert sweep[-1][0] == {"j_record": (20, 21), "j_leading_record": (20, 17)}

    def test_debug_log_names_built_and_reused(self, grid_24_96, caplog):
        p = _fresh_problem(grid_24_96, "sector")
        for expected in ("built", "reused"):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="bergbep"):
                solve_bep(p)
            lines = [r.getMessage() for r in caplog.records if "J record" in r.getMessage()]
            assert lines == [f"{expected} the J record of e_0..e_16 at degree 16",
                             f"{expected} the J record of e_0..e_12 at degree 16"]


class TestKeptRegionFacts:
    """Each region's record (its weights, the span of its weighted rings and whether
    the weights are constant along theta) is resolved once per region and grid
    (Region.resolve), so a repeat problem on the same regions scans no weights."""

    @staticmethod
    def _count(monkeypatch):
        import bergbep.grid as grid_module

        calls = []
        original = grid_module._ring_facts
        monkeypatch.setattr(grid_module, "_ring_facts", lambda w: calls.append(w) or original(w))
        return calls

    @pytest.mark.parametrize("kind", ["disc", "sector", "mask"])
    def test_repeat_problem_scans_no_weights(self, grid_24_96, monkeypatch, kind):
        template = _region_problem(grid_24_96, kind, 16)
        calls = self._count(monkeypatch)
        k = dataclasses.replace(template.k_region)
        j = k.complement()
        docs = []
        for expected in (2, 0):
            calls.clear()
            p = BepProblem(k, j, template.h_k, template.h_j, template.m, 16)
            sol = solve_bep(p)
            assert len(calls) == expected
            docs.append(bio.dumps_canonical(bio.bep_solution_to_dict(sol, 16)))
        assert docs[0] == docs[1]

    def test_non_partition_raises_every_time(self, grid_24_96):
        k, j = Region.radial_disc(0.5), Region.radial_disc(0.6).complement()
        h = GridFunction.constant(grid_24_96, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="do not partition the disc"):
                BepProblem(k, j, h, h, 1.0, 8)


class TestParsevalSides:
    """Sides whose weights are constant along theta are measured by Parseval on
    their rings, from the data spectrum taken once when the core is built."""

    @staticmethod
    def _sides():
        """(K, J) of a disc, an annulus, a disc complement and the full disc."""
        return [(k, k.complement()) for k in (Region.radial_disc(0.45), Region.annulus(0.6),
                                              Region.radial_disc(0.7).complement(),
                                              Region.full_disc())]

    @pytest.mark.parametrize("shape, degree", [((24, 96), 16), ((128, 256), 60)])
    def test_err_is_the_grid_sum(self, shape, degree):
        grid = build_grid(*shape)
        rng = np.random.default_rng(degree)
        h = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        basis = _PolarBasis(grid, degree)
        for k, j in self._sides():
            core = ConstrainedLSQ(basis, k, j, h, 0.5 * h)
            w_k, w_j = k.weights(grid), j.weights(grid)
            assert {type(side) for side in core._sides.values()} == {_RingSide}
            for _ in range(3):
                c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
                values = basis._synthesis(c)
                for side, w, data in (("k", w_k, h), ("j", w_j, 0.5 * h)):
                    grid_sum = np.sqrt(np.sum(w * np.abs(values - data) ** 2))
                    scale = np.sqrt(np.sum(w * np.abs(data) ** 2)) + np.sqrt(
                        np.sum(w * np.abs(values) ** 2))
                    assert abs(core.err(c, side) - grid_sum) <= 1e-14 * scale

    def test_moments_and_norm_match_the_grid(self, grid_24_96):
        # the same data spectrum gives the moments and ||h_J||_J^2 of a core.  The
        # degree diagnostic's leading core takes prefixes of the moments, and the
        # err_J it measures on its forms alone is the grid sum of the padded
        # synthesis, on radial sides and on sides measured at the nodes alike
        grid = grid_24_96
        rng = np.random.default_rng(5)
        h = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        basis = _PolarBasis(grid, 16)
        nodes = [(k, k.complement())
                 for k in (Region.sector(1.2), Region.mask(np.abs(grid.nodes - 0.2) < 0.45))]
        for k, j in self._sides()[:3] + nodes:
            core = ConstrainedLSQ(basis, k, j, h, h)
            w_k, w_j = k.weights(grid), j.weights(grid)
            for r, w in ((core.r_k, w_k), (core.r_j, w_j)):
                grid_r = basis._moments(w, h)
                assert np.max(np.abs(r - grid_r)) <= 1e-14 * np.max(np.abs(grid_r))
            h_sq = np.sum(w_j * np.abs(h) ** 2)
            assert abs(core._h_j_sq - h_sq) <= 1e-14 * h_sq
            lead = core.leading(9)
            assert np.array_equal(lead.r_k, core.r_k[:9])
            assert np.array_equal(lead.r_j, core.r_j[:9])
            width = lead.whiten.shape[1]
            for mu in (0.0, 0.4, 9.0):
                c, err_j = lead._measure(mu)
                values = basis._synthesis(np.concatenate((c, np.zeros(8))))
                grid_sum = np.sqrt(np.sum(w_j * np.abs(values - h) ** 2))
                scale = np.sqrt(h_sq) + np.sqrt(np.sum(w_j * np.abs(values) ** 2))
                assert abs(err_j - grid_sum) <= 1e-14 * scale

    def test_sectors_and_masks_measure_at_the_nodes(self, grid_24_96):
        basis = _PolarBasis(grid_24_96, 12)
        h = np.ones(grid_24_96.shape)
        for k in (Region.sector(1.2), Region.mask(np.abs(grid_24_96.nodes - 0.2) < 0.45)):
            core = ConstrainedLSQ(basis, k, k.complement(), h, h)
            assert {type(side) for side in core._sides.values()} == {_GridSide}

    @pytest.mark.parametrize("index, count", [(0, 0), (1, 3)])  # a disc K, a sector K
    def test_radial_solve_synthesizes_nothing(self, saturated_family, monkeypatch, index,
                                              count):
        # a disc K takes no synthesis; a sector K the J-fit and the mu = 0 fit on J,
        # then the end point on J and K together, each one block of the 24 rings the
        # sides span.  The degree diagnostic's takes none on either
        calls = _record_syntheses(monkeypatch)
        sol = solve_bep(saturated_family[index])
        assert sol.saturated and sol.degree_gap is not None
        assert calls == [(0, 24)] * count

    @pytest.mark.parametrize("kind", ["disc", "annulus", "sector", "mask"])
    @pytest.mark.parametrize("zero", ["k", "j"])
    def test_zero_data_take_no_fft(self, grid_24_96, monkeypatch, kind, zero):
        p = _region_problem(grid_24_96, kind, 12)
        data = {"k": p.h_k.values, "j": p.h_j.values, zero: np.zeros(grid_24_96.shape)}
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append(1) or fft(*a, **k))
        core = ConstrainedLSQ(_PolarBasis(grid_24_96, 12), p.k_region, p.j_region, data["k"],
                              data["j"])
        assert calls == [1]  # the other side's data
        assert not np.any(core.r_k if zero == "k" else core.r_j)


class TestRingBlocks:
    """A grid side is measured from the coefficients one ring block at a time, and the
    moments and a ring side's data spectrum are taken over the same blocks
    (bergman._ring_blocks): the blocked sums are the one-shot grid sums, and a
    block's synthesis is the same rows of the all-rings synthesis, bit for bit."""

    CASES = [((24, 96), 16), ((64, 128), 30), ((40, 512), 30)]  # 40 rings: 2.5 blocks

    @staticmethod
    def _basis(grid, degree, kind):
        if kind == "polar":
            return _PolarBasis(grid, degree), basis_matrix(grid, degree), np.asarray
        lifted = build_fbep_space(Conductivity.exp_x(grid, 0.8), degree)
        basis = lifted if kind == "pair" else VekuaBasis(lifted.alpha, lifted.elements)
        return basis, lifted.values_matrix(), np.real

    @staticmethod
    def _coeffs(rng, basis, part):
        c = rng.standard_normal(basis._full_form.vals.size)
        return c if part is np.real else c + 1j * rng.standard_normal(c.size)

    @pytest.mark.parametrize("kind", ["polar", "pair", "sampled"])
    @pytest.mark.parametrize("shape, degree", CASES)
    def test_blocked_sums_are_the_grid_sums(self, kind, shape, degree):
        grid = build_grid(*shape)
        basis, samples, part = self._basis(grid, degree, kind)
        rng = np.random.default_rng(degree)
        data = [rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
                for _ in range(2)]
        step = max(1, _BLOCK_NODES // grid.angular_count)
        regions = [Region.sector(1.2), Region.mask(np.abs(grid.nodes - 0.2) < 0.45),
                   Region.annulus(0.6).complement(), Region.annulus(0.72)]
        starts = []
        for k in regions:
            j = k.complement()
            core = ConstrainedLSQ(basis, k, j, *data)
            for side, region, h, r in (("k", k, data[0], core.r_k), ("j", j, data[1], core.r_j)):
                w = region.weights(grid)
                starts.append(region.resolve(grid).rings.start)
                wh = (w * h).ravel()
                one_shot = part(samples.conj().T @ wh)
                scale = np.abs(samples).T @ np.abs(wh)
                assert np.all(np.abs(r - one_shot) <= 1e-14 * scale)
                for _ in range(2):
                    c = self._coeffs(rng, basis, part)
                    grid_sum = np.sum(w * np.abs(basis._synthesis(c) - h) ** 2)
                    assert abs(core.err(c, side) ** 2 - grid_sum) <= 1e-14 * grid_sum
        if grid.n_radial % step:  # the ragged grid: a side starts inside a block
            assert any(start % step for start in starts)

    @pytest.mark.parametrize("kind", ["polar", "pair", "sampled"])
    def test_block_synthesis_is_the_full_rows(self, kind):
        grid = build_grid(40, 512)
        basis, _, part = self._basis(grid, 30, kind)
        c = self._coeffs(np.random.default_rng(3), basis, part)
        full = basis._synthesis(c)
        assert full.shape == grid.shape
        blocks = list(_ring_blocks(grid.shape)) + list(_ring_blocks(grid.shape, slice(21, 38)))
        assert [(b.start, b.stop) for b in blocks] == [
            (0, 16), (16, 32), (32, 40), (21, 32), (32, 38)]
        for rings in blocks + [slice(5, 6), slice(0, 40)]:
            assert np.array_equal(basis._synthesis(c, rings), full[rings])


class TestFullForm:
    """The full-disc eigendecomposition the core whitens by, and its one rank rule."""

    @staticmethod
    def _data(n=7, seed=2):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.5, 2.0, n)
        vals[2] = 1e-14  # a dropped direction
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return vals, (a + a.conj().T) / 2.0, c

    def test_bep_form_is_grid_norms_and_identity(self, grid_24_96):
        # the BEP's form: its grid norms g beside identity eigenvectors, so its
        # whitening is the scaling diag(g^(-1/2)) and its leading form a prefix
        full = _PolarBasis(grid_24_96, 12)._full_form
        g = _ring_norms(grid_24_96, 12)
        assert np.array_equal(full.vals, g) and np.array_equal(full.vecs, np.eye(13))
        assert np.allclose(full.whitening(), np.diag(g**-0.5), rtol=1e-15, atol=0.0)
        lead = full.leading(4)
        assert np.array_equal(lead.vals, g[:4]) and np.array_equal(lead.vecs, np.eye(4))

    def test_dense_whitens_applies_and_leads(self):
        vals, a, c = self._data()
        v = np.linalg.qr(a + 3.0 * np.eye(vals.size))[0]
        full = FullForm(vals, v)
        a_full = (v * vals) @ v.conj().T
        assert np.allclose(full.apply(c), a_full @ c, rtol=0.0, atol=1e-14)
        w = full.whitening()
        assert w.shape == (vals.size, vals.size - 1)  # vals[2] is below the rank rule
        assert np.allclose(w.conj().T @ a_full @ w, np.eye(w.shape[1]), rtol=0.0, atol=1e-13)
        # a prefix of a dense form's basis is no degree truncation: it has no leading form
        with pytest.raises(ValueError, match="mix the first 4 basis elements"):
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


@pytest.fixture(scope="module")
def annulus_24(grid_24_96):
    """A saturated instance on annulus 0.6 K at 24x96/16."""
    return [_fresh_problem(grid_24_96, "annulus")]


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

    @staticmethod
    def _complex_form_err(core, mu):
        """err_J(mu) and its slope from the complex whitened solution y(mu) and y'(mu),
        over the directions whose d = (1 - tau) + mu tau is above rounding level."""
        t = core.taus
        d = (1.0 - t) + mu * t
        keep = d > 1e-12 * max(1.0, d.max())
        dd = np.where(keep, d, 1.0)
        y = np.where(keep, (core.bt_k + mu * core.bt_j) / dd, 0.0)
        dy = np.where(keep, ((1.0 - t) * core.bt_j - t * core.bt_k) / dd**2, 0.0)
        e2 = core._h_j_sq - 2.0 * np.vdot(y, core.bt_j).real + np.sum(t * np.abs(y) ** 2)
        return np.sqrt(max(e2, 0.0)), -2.0 * np.sum(d * np.abs(dy) ** 2)

    @pytest.mark.parametrize("kind", ["disc", "sector", "mask", "fbep"])
    def test_real_terms_match_the_complex_solution(self, grid_24_96, kind):
        # the search's err_J and slope from the real secular terms equal those of the
        # complex y(mu), y'(mu) across the whole range of mu, on the problem's core
        # and on the degree diagnostic's leading core (worst seen 4e-16 and 9e-16),
        # and so does the leading core's forms-only feasibility distance
        if kind == "fbep":
            f = Conductivity.exp_x(grid_24_96, 0.8)
            p = _region_problem(grid_24_96, "sector", 12)
            core = ConstrainedLSQ.from_problem(p, build_fbep_space(f, 12))
            cores = [core]
        else:
            core = ConstrainedLSQ.from_problem(_region_problem(grid_24_96, kind, 16))
            cores = [core, core.leading(13)]
        for core in cores:
            for mu in (0.0, 1e-13, 1e-9, 1e-3, 1.0, 2.0, 1e3, 1e12, 1e13):
                e, slope = core._form_err(mu)
                e_ref, slope_ref = self._complex_form_err(core, mu)
                assert abs(e - e_ref) <= 1e-13 * e_ref
                assert slope < 0.0 and abs(slope - slope_ref) <= 1e-13 * abs(slope_ref)
        lead = cores[-1]
        fit = lead.taus > 1e-12 * lead.taus.max()
        y = np.where(fit, lead.bt_j / np.where(fit, lead.taus, 1.0), 0.0)
        e2 = lead._h_j_sq - 2.0 * np.vdot(y, lead.bt_j).real + np.sum(lead.taus * np.abs(y) ** 2)
        assert abs(_FormCore.feasibility(lead) - np.sqrt(e2)) <= 1e-13 * np.sqrt(e2)

    def test_form_err_divides_by_no_zero(self, grid_24_96):
        # a direction with d = 0 exactly (tau = 1 at mu = 0) is left out by the mask,
        # with no division: no warning under -W error, and the value is finite
        core = ConstrainedLSQ.from_problem(_region_problem(grid_24_96, "sector", 16))
        core.taus = core.taus.copy()
        core.taus[-1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e, slope = core._form_err(0.0)
            c = core.coeffs(0.0)
        assert np.isfinite(e) and np.isfinite(slope) and np.all(np.isfinite(c))
        e_ref, slope_ref = self._complex_form_err(core, 0.0)
        assert abs(e - e_ref) <= 1e-13 * e_ref and abs(slope - slope_ref) <= 1e-13 * -slope_ref

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

    def test_doubles_without_a_usable_slope(self):
        # err = 1/(1 + mu) reported with a zero slope: no Newton step, so mu
        # doubles while err > M, then the bracket halves in log scale
        evals = []
        mu, e_mu, _ = _newton(lambda mu: (1.0 / (1.0 + mu), 0.0), 0.01, 1.0, evals, 0.0, 0.01)
        assert [x for x, _ in evals[:8]] == [2.0**k for k in range(8)]
        assert abs(e_mu - 0.01) <= 1e-12 and abs(mu - 99.0) <= 1e-8

    def test_bisection_expansion_exhausted(self):
        # the oracle's search on an err that never falls to M
        evals = []
        with pytest.raises(ConvergenceError, match="bracket expansion exhausted"):
            _bisect(lambda mu: 1.0, 0.5, 0.0, 1.0, evals, 0.25, 0.5)
        assert len(evals) == 81  # hi = 1 and its 80 doublings

    def test_stalled_search_rejected(self):
        # err jumps across M at mu = 1: the bracket collapses there, 1 away from M
        evals = []
        mu, e_mu, _ = _bisect(lambda mu: 2.0 if mu < 1.0 else 0.0, 1.0, 0.0, 4.0, evals, 0.0, 1.0)
        assert abs(mu - 1.0) <= 1e-14 and e_mu in (0.0, 2.0)
        with pytest.raises(ConvergenceError, match="multiplier search stalled"):
            _check_saturated(evals, 1.0, mu, e_mu, 1.0)

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

    def test_solution_errors_measured_from_the_coefficients(self, saturated_family,
                                                             monkeypatch):
        # a sector K, saturated: err_J of the J-fit and the mu = 0 fit, then err_J and
        # err_K of the end point from one synthesis; inactive: the first two, then
        # err_K.  Each is measured from the coefficients, one block of the 24 rings per
        # measurement, and equals the side's own measurement bit for bit.  A disc K
        # measures by Parseval on the rings and synthesizes nothing.
        calls = _record_syntheses(monkeypatch)
        for p, counts in ((saturated_family[1], (3, 3)), (saturated_family[0], (0, 0))):
            inactive = BepProblem(p.k_region, p.j_region, p.h_k, p.h_j, 1e6, p.degree)
            for problem, count in zip((p, inactive), counts):
                calls.clear()
                sol = solve_bep(problem, degree_diagnostic=False)
                assert calls == [(0, 24)] * count
                assert sol.saturated == (problem is p)
                core = ConstrainedLSQ.from_problem(problem)
                c = sol.g0.coeffs
                assert (sol.err_k, sol.err_j) == (core.err(c, "k"), core.err(c, "j"))


class TestDataScale:
    """The BEP is homogeneous in (h_K, h_J, M): scaling all three by s scales the
    solution by s and keeps lambda, so the searches' tolerances are relative to
    max(M, ||h_J||_J).  With absolute tolerances below M = 1, the data scaled by
    1e-10 stopped 1e-4 M away from the budget and an infeasible M raised
    ConvergenceError."""

    @staticmethod
    def _problems(grid, scale):
        k = Region.radial_disc(0.5)
        h_k = GridFunction.from_function(grid, lambda z: scale * (np.exp(z) + 0.2 * np.conj(z)))
        h_j = GridFunction.from_function(grid, lambda z: scale * 0.3 * np.conj(z))
        feas = feasibility_distance(h_j, k.complement(), 16)
        m = scale * 0.5402132417275145  # between feas and the free fit's err_J at scale 1
        return (BepProblem(k, k.complement(), h_k, h_j, m, 16),
                BepProblem(k, k.complement(), h_k, h_j, feas / 2.0, 16))

    @pytest.mark.parametrize("solver", [solve_bep, solve_bep_oracle])
    def test_lambda_and_saturation_at_every_scale(self, grid_24_96, solver):
        reference = solver(self._problems(grid_24_96, 1.0)[0])
        assert reference.saturated
        for scale in (1.0, 1e-6, 1e-10):
            p, infeasible = self._problems(grid_24_96, scale)
            sol = solver(p)
            assert sol.saturated
            assert abs(sol.err_j - p.m) <= 1e-12 * p.m
            assert abs(sol.lam - reference.lam) <= 1e-10 * (1.0 + abs(reference.lam))
            with pytest.raises(InfeasibleProblemError):
                solver(infeasible)


class TestScaling:
    """The BEP is homogeneous in (h_K, h_J, M) over the complex numbers: the data
    (s h_K, s h_J) with budget |s| M give s times the coefficients, |s| times
    err_K, err_J and the degree gap, and the same lambda.

    Over the cases below the coefficients agree to 2.6e-12 relative, and the
    gaps to 7.7e-13 |s| max(1, ||g0||); the bounds are 1e-11 relative for the
    coefficients, errors and lambda, and 1e-12 |s| max(1, ||g0||) absolute for the
    gap, which is at rounding level (about 1e-17) on a disc K."""

    @pytest.mark.parametrize("frac", [0.1, 0.5])
    @pytest.mark.parametrize("kind", ["disc", "annulus", "sector", "mask"])
    def test_scaled_data_scale_the_solution(self, grid_24_96, kind, frac):
        grid = grid_24_96
        k = {
            "disc": Region.radial_disc(0.5),
            "annulus": Region.annulus(0.6),
            "sector": Region.sector(2.0),
            "mask": Region.mask(np.abs(grid.nodes - 0.2) < 0.5),
        }[kind]

        def h_k(z):
            return np.exp(z) + 0.2 * np.conj(z)

        def h_j(z):
            return 0.3 * np.conj(z) + 0.1 * np.abs(z) ** 2

        p = saturated_problem(grid, k, GridFunction.from_function(grid, h_k),
                              GridFunction.from_function(grid, h_j), 16, frac=frac)
        ref = solve_bep(p)
        assert ref.saturated and ref.degree_gap is not None
        c = ref.g0.coeffs
        for s in (1e-3 * np.exp(0.7j), 1e3 * np.exp(-2.1j), -1.0):
            scaled = BepProblem(p.k_region, p.j_region,
                                GridFunction.from_function(grid, lambda z: s * h_k(z)),
                                GridFunction.from_function(grid, lambda z: s * h_j(z)),
                                abs(s) * p.m, p.degree)
            sol = solve_bep(scaled)
            assert sol.saturated
            assert np.linalg.norm(sol.g0.coeffs - s * c) <= 1e-11 * abs(s) * np.linalg.norm(c)
            for got, want in ((sol.err_k, ref.err_k), (sol.err_j, ref.err_j)):
                assert abs(got - abs(s) * want) <= 1e-11 * abs(s) * want
            assert abs(sol.lam - ref.lam) <= 1e-11 * abs(ref.lam)
            gap_bound = 1e-12 * abs(s) * max(1.0, np.linalg.norm(c))
            assert abs(sol.degree_gap - abs(s) * ref.degree_gap) <= gap_bound
