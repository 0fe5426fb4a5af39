"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines on stdout.
"""

import json

import numpy as np
import pytest

from bergbep import (
    AnalyticCoeffs,
    BepProblem,
    Conductivity,
    FbepProblem,
    GridFunction,
    Region,
    VekuaFunction,
    alpha_from_f,
    basis_matrix,
    beltrami_residual,
    dbar,
    directional_kkt_check,
    fbep_conjecture_check,
    gram,
    inner_product,
    metaharmonic_residuals,
    project,
    similarity_factor,
    solve_bep,
    solve_bep_oracle,
    solve_fbep,
    spectrum,
    teodorescu,
    vekua_lift,
    vekua_residual,
)
from bergbep.cli import main
from bergbep.io import dumps_canonical, load_json, normalize_problem
from conftest import random_saturated_problems

from test_cli_io import BEP_FIXTURE, FBEP_FIXTURE


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number:2d}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def solved_family(grid_24_96):
    problems = random_saturated_problems(grid_24_96, 10)
    return [(p, solve_bep(p, degree_diagnostic=False), solve_bep_oracle(p)) for p in problems]


def test_criterion_01_quadrature_basis_exactness(grid_24_96):
    e = basis_matrix(grid_24_96, 16)
    g = e.conj().T @ (grid_24_96.weights.ravel()[:, None] * e)
    worst = np.max(np.abs(g - np.eye(17)))
    report(1, "basis orthonormality on build_grid(24, 96)", worst <= 1e-13, f"max defect {worst:.2e}")


def test_criterion_02_projection_identities(grid_24_96):
    zb = GridFunction.from_function(grid_24_96, lambda z: np.conj(z))
    abs2 = GridFunction.from_function(grid_24_96, lambda z: np.abs(z) ** 2)
    worst = np.max(np.abs(project(zb, 16).coeffs))
    c = project(abs2, 16).coeffs
    worst = max(worst, abs(c[0] - 0.5), np.max(np.abs(c[1:])))
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = GridFunction(
            grid_24_96,
            rng.standard_normal(grid_24_96.shape) + 1j * rng.standard_normal(grid_24_96.shape),
        )
        h = GridFunction(
            grid_24_96,
            rng.standard_normal(grid_24_96.shape) + 1j * rng.standard_normal(grid_24_96.shape),
        )
        cg = project(g, 12)
        worst = max(worst, np.max(np.abs(project(cg.on_grid(grid_24_96), 12).coeffs - cg.coeffs)))
        ph = project(h, 12).on_grid(grid_24_96)
        worst = max(
            worst, abs(inner_product(cg.on_grid(grid_24_96), h) - inner_product(g, ph))
        )
    report(2, "Bergman projection identities", worst <= 1e-12, f"max defect {worst:.2e}")


def test_criterion_03_toeplitz_spectra():
    n = np.arange(17)
    worst_diag = np.max(np.abs(np.diag(gram(Region.radial_disc(0.5), 16).entries) - 0.25 ** (n + 1)))
    ok = worst_diag <= 1e-12
    worst_range = 0.0
    for theta in (0.3, 1.0, 2.5):
        vals = spectrum(gram(Region.sector(theta), 16))
        worst_range = max(worst_range, -vals.min(), vals.max() - 1.0)
    ok = ok and worst_range <= 1e-10
    worst_comp = 0.0
    for region in (Region.radial_disc(0.5), Region.sector(1.0), Region.annulus(0.35)):
        total = gram(region, 16).entries + gram(region.complement(), 16).entries
        worst_comp = max(worst_comp, np.max(np.abs(total - np.eye(17))))
    ok = ok and worst_comp <= 1e-12
    report(
        3,
        "Toeplitz spectra and complementarity",
        ok,
        f"diag {worst_diag:.2e}, range {worst_range:.2e}, comp {worst_comp:.2e}",
    )


def test_criterion_04_bep_saturation_and_optimality(solved_family):
    worst_sat = worst_kkt = 0.0
    for problem, solution, _ in solved_family:
        assert solution.saturated
        worst_sat = max(worst_sat, abs(solution.err_j - problem.m) / max(1.0, problem.m))
        worst_kkt = max(worst_kkt, solution.kkt_residual / (1.0 + solution.g0.norm()))
    ok = worst_sat <= 1e-8 and worst_kkt <= 1e-8
    report(4, "BEP saturation and optimality", ok, f"sat {worst_sat:.2e}, kkt {worst_kkt:.2e}")


def test_criterion_05_oracle_equivalence(solved_family):
    worst = max(
        np.max(np.abs(solution.g0.coeffs - oracle.g0.coeffs))
        for _, solution, oracle in solved_family
    )
    report(5, "operator vs secular-oracle agreement", worst <= 1e-6, f"sup diff {worst:.2e}")


def test_criterion_06_lambda_limits(grid_24_96):
    k = Region.radial_disc(0.5)

    def solve_at_m(m):
        p = BepProblem(
            k_region=k,
            j_region=k.complement(),
            h_k=GridFunction.constant(grid_24_96, 1.0),
            h_j=GridFunction.constant(grid_24_96, 0.0),
            m=m,
            degree=16,
        )
        return solve_bep(p, degree_diagnostic=False).lam

    halving = [solve_at_m(0.4 / 2**i) for i in range(5)]
    doubling = [solve_at_m(0.05 * 2**i) for i in range(5)]
    ok = all(a < b for a, b in zip(halving, halving[1:]))
    ok = ok and all(a > b for a, b in zip(doubling, doubling[1:]))
    ok = ok and doubling[-1] > -1.0
    report(6, "lambda limit behavior in M", ok, f"lam {halving[0]:.3g}..{halving[-1]:.3g}")


def test_criterion_07_teodorescu(grid_64_128):
    t = teodorescu(GridFunction.constant(grid_64_128, 1.0))
    inner = np.abs(grid_64_128.nodes) <= 0.9
    worst_t1 = np.max(np.abs(t.values - np.conj(grid_64_128.nodes))[inner])
    smooth = [
        lambda z: np.full(z.shape, 1.0, dtype=complex),
        lambda z: z**2 * np.conj(z),
        lambda z: np.exp(0.3 * z.real),
        lambda z: np.cos(z.real) * np.sin(z.imag),
        lambda z: 1.0 / (2.0 + z),
    ]
    worst_ri = 0.0
    for fn in smooth:
        g = GridFunction.from_function(grid_64_128, fn)
        worst_ri = max(worst_ri, (dbar(teodorescu(g)) - g).norm() / g.norm())
    ok = worst_t1 <= 1e-6 and worst_ri <= 1e-3
    report(7, "Teodorescu identities", ok, f"T[1] {worst_t1:.2e}, right-inverse {worst_ri:.2e}")


def test_criterion_08_vekua_membership(grid_32_64):
    worst = 0.0
    for factory, eps in ((Conductivity.exp_x, 0.2), (Conductivity.exp_xy, 0.1)):
        f = factory(grid_32_64, eps)
        alpha = alpha_from_f(f)
        worst = max(worst, vekua_residual(f.values, alpha, 16))
        i_over_f = GridFunction(grid_32_64, 1j / f.values.values)
        worst = max(worst, vekua_residual(i_over_f, alpha, 16))
    report(8, "f and i/f belong to the Vekua space", worst <= 1e-6, f"residual {worst:.2e}")


def test_criterion_09_lift_convergence(basis_exp01_n8, grid_32_64):
    _, basis = basis_exp01_n8
    ok = basis.size == 18
    worst_res, worst_ratio = 0.0, 0.0
    for element in basis.elements:
        ok = ok and element.converged
        worst_res = max(worst_res, element.residual)
    # the basis is lifted by mode pairs in one step; the Neumann iteration
    # of vekua_lift on the same 18 seeds must contract geometrically
    alpha = basis.alpha
    for unit in (1.0, 1.0j):
        for n in range(9):
            seed = AnalyticCoeffs(unit * AnalyticCoeffs.unit(n, 8).coeffs)
            lifted = vekua_lift(seed, alpha, tol=1e-10)
            ok = ok and lifted.converged and lifted.iterations > 1
            worst_res = max(worst_res, lifted.residual)
            ratios = [
                b / a for a, b in zip(lifted.increments, lifted.increments[1:]) if a > 1e-12
            ]
            if ratios:
                worst_ratio = max(worst_ratio, max(ratios))
    ok = ok and worst_res <= 1e-6 and worst_ratio <= 0.5
    seed = AnalyticCoeffs(np.array([0.4, -0.3j, 1.0]))
    classical = vekua_lift(seed, GridFunction.constant(grid_32_64, 0.0), tol=1e-12)
    ok = ok and classical.iterations == 1
    ok = ok and np.array_equal(classical.w.values, seed.on_grid(grid_32_64).values)
    report(
        9,
        "geometric lift convergence, classical reduction",
        ok,
        f"residual {worst_res:.2e}, ratio {worst_ratio:.3f}",
    )


def test_criterion_10_pde_diagnostics(grid_64_128, grid_128_256):
    seed = AnalyticCoeffs(np.array([0.3, 1.0, 0.2j]))
    residuals = {}
    for grid in (grid_64_128, grid_128_256):
        f = Conductivity.exp_x(grid, 0.2)
        lifted = vekua_lift(seed, alpha_from_f(f), tol=1e-11)
        m0, m1 = metaharmonic_residuals(lifted, f)
        residuals[grid.n_radial] = (m0, m1, beltrami_residual(lifted, f))
    coarse, fine = residuals[64], residuals[128]
    orders = [np.log2(c / f) for c, f in zip(coarse, fine)]
    ok = max(coarse) <= 1e-2 and min(orders) >= 1.0
    report(
        10,
        "conductivity-equation and Beltrami residuals",
        ok,
        f"coarse {max(coarse):.2e}, min order {min(orders):.2f}",
    )


def test_criterion_11_similarity_bound(grid_32_64, basis_exp01_n8):
    constructed = []
    for eps in (0.1, 0.2, 0.4):
        f = Conductivity.exp_x(grid_32_64, eps)
        alpha = alpha_from_f(f)
        constructed.append((f.values, alpha))
        constructed.append((GridFunction(grid_32_64, 1j / f.values.values), alpha))
    f_xy = Conductivity.exp_xy(grid_32_64, 0.1)
    constructed.append((f_xy.values, alpha_from_f(f_xy)))
    _, basis = basis_exp01_n8
    for element in basis.elements[:3]:
        constructed.append((element.w, basis.alpha))
    worst = -np.inf
    for w_values, alpha in constructed:
        w = VekuaFunction(w=w_values, alpha=alpha, residual=0.0)
        s = similarity_factor(w)
        excess = np.max(np.abs(s.values)) - 4.0 * np.max(np.abs(alpha.values))
        worst = max(worst, excess)
    report(11, "similarity factor sup-norm bound", worst <= 1e-8, f"worst excess {worst:.2e}")


def test_criterion_12_fbep(grid_24_96, basis_exp01_n8):
    k = Region.radial_disc(0.5)
    h_k = GridFunction.constant(grid_24_96, 1.0)
    h_j = GridFunction.constant(grid_24_96, 0.0)
    f1 = Conductivity.constant(grid_24_96, 1.0)
    pf = FbepProblem(
        f=f1, k_region=k, j_region=k.complement(), h_k=h_k, h_j=h_j, m=0.1, degree=16
    )
    pb = BepProblem(k_region=k, j_region=k.complement(), h_k=h_k, h_j=h_j, m=0.1, degree=16)
    sf, sb = solve_fbep(pf), solve_bep(pb, degree_diagnostic=False)
    reduction_gap = np.max(np.abs(sf.coeffs[:17] + 1j * sf.coeffs[17:] - sb.g0.coeffs))
    ok = reduction_gap <= 1e-8

    f, basis = basis_exp01_n8
    grid = f.grid
    p = FbepProblem(
        f=f,
        k_region=k,
        j_region=k.complement(),
        h_k=GridFunction.constant(grid, 1.0),
        h_j=GridFunction.constant(grid, 0.0),
        m=0.1,
        degree=8,
    )
    sol = solve_fbep(p, basis=basis)
    sat_gap = abs(sol.err_j - p.m) / max(1.0, p.m)
    directional = directional_kkt_check(p, sol, seed=0)
    conjecture = fbep_conjecture_check(p, sol)
    ok = ok and sol.saturated and sat_gap <= 1e-6 and directional >= -1e-6 and conjecture <= 1e-4
    report(
        12,
        "f-BEP reduction, saturation, KKT, conjecture",
        ok,
        f"reduction {reduction_gap:.2e}, sat {sat_gap:.2e}, "
        f"dir {directional:.2e}, conj {conjecture:.2e}",
    )


def test_criterion_13_cli(tmp_path):
    ok = True
    for fixture in (BEP_FIXTURE, FBEP_FIXTURE):
        with open(fixture, "r", encoding="utf-8") as fh:
            raw = fh.read()
        ok = ok and dumps_canonical(normalize_problem(json.loads(raw))) == raw
    codes = []
    codes.append(main(["solve-bep", "--problem", BEP_FIXTURE, "--out", str(tmp_path / "b.json")]))
    codes.append(main(["solve-fbep", "--problem", FBEP_FIXTURE, "--out", str(tmp_path / "f.json")]))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    codes.append(main(["solve-bep", "--problem", str(bad), "--out", str(tmp_path / "x.json")]))
    doc = load_json(BEP_FIXTURE)
    doc["h_j"] = {"kind": "builtin", "name": "z_bar"}
    doc["m"] = 1e-9
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(dumps_canonical(doc))
    codes.append(main(["solve-bep", "--problem", str(infeasible), "--out", str(tmp_path / "x.json")]))
    doc = load_json(FBEP_FIXTURE)
    doc["conductivity"] = {"kind": "exp_x", "eps": 8.0}
    doc["lift_tol"] = 1e-30  # no lift reaches it
    divergent = tmp_path / "divergent.json"
    divergent.write_text(dumps_canonical(doc))
    codes.append(main(["solve-fbep", "--problem", str(divergent), "--out", str(tmp_path / "x.json")]))
    ok = ok and codes == [0, 0, 1, 2, 3]
    report(13, "CLI golden round-trip and exit codes", ok, f"exit codes {codes}")
