import numpy as np
import pytest

from bergbep import (
    AnalyticCoeffs,
    BepProblem,
    Conductivity,
    GridFunction,
    Region,
    build_fbep_space,
    build_grid,
    feasibility_distance,
    solve_bep,
)


@pytest.fixture(scope="session")
def grid_24_96():
    return build_grid(24, 96)


@pytest.fixture(scope="session")
def grid_16_64():
    return build_grid(16, 64)


@pytest.fixture(scope="session")
def grid_32_64():
    return build_grid(32, 64)


@pytest.fixture(scope="session")
def grid_64_128():
    return build_grid(64, 128)


@pytest.fixture(scope="session")
def grid_128_256():
    return build_grid(128, 256)


@pytest.fixture(scope="session")
def basis_exp01_n8(grid_32_64):
    """Lifted basis for f = exp(0.1 x) at degree 8 (18 elements)."""
    f = Conductivity.exp_x(grid_32_64, 0.1)
    return f, build_fbep_space(f, 8, tol=1e-10)


def saturated_problem(grid, k_region, h_k, h_j, degree, frac=0.35):
    """Build a BEP instance whose constraint is guaranteed active.

    M is placed between the feasibility distance and the constraint
    error of the unconstrained K-fit.
    """
    j_region = k_region.complement()
    feas = feasibility_distance(h_j, j_region, degree)
    free = solve_bep(
        BepProblem(k_region=k_region, j_region=j_region, h_k=h_k, h_j=h_j, m=1e8, degree=degree),
        degree_diagnostic=False,
    )
    assert free.err_j > feas, "fixture data must not be attainable"
    m = feas + frac * (free.err_j - feas)
    return BepProblem(k_region=k_region, j_region=j_region, h_k=h_k, h_j=h_j, m=m, degree=degree)


def low_degree_infeasible_problem(grid, degree=16):
    """A BEP feasible at degree N whose budget is below the feasibility distance at N - 4.

    M lies midway between the two distances (on 24x96 and N = 16, 0.101546
    and 0.102198), so a solve at N saturates while one at N - 4 is infeasible.
    """
    k_region = Region.sector(1.0)
    j_region = k_region.complement()
    h_k = GridFunction.from_function(grid, lambda z: np.exp(z) + 0.2 * np.conj(z))
    h_j = GridFunction.from_function(
        grid, lambda z: 0.3 * np.conj(z) + 0.2 * np.abs(z) ** 2 + 0.5 * z**9
    )
    low, high = (feasibility_distance(h_j, j_region, n) for n in (degree, degree - 4))
    assert low < high, "fixture data must lose feasibility at degree N - 4"
    m = (low + high) / 2.0
    return BepProblem(k_region=k_region, j_region=j_region, h_k=h_k, h_j=h_j, m=m, degree=degree)


def random_saturated_problems(grid, count, degree=12, seed=42):
    """Reproducible family of saturated BEP instances on mixed regions."""
    rng = np.random.default_rng(seed)
    problems = []
    for t in range(count):
        if t % 2 == 0:
            k_region = Region.radial_disc(rng.uniform(0.35, 0.65))
        else:
            k_region = Region.sector(rng.uniform(0.8, 2.2))
        ck = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        h_k = AnalyticCoeffs(ck).on_grid(grid)
        h_j = GridFunction.from_function(
            grid, lambda z: 0.3 * np.conj(z) + 0.1 * np.abs(z) ** 2
        )
        problems.append(
            saturated_problem(grid, k_region, h_k, h_j, degree, frac=rng.uniform(0.2, 0.7))
        )
    return problems


@pytest.fixture(scope="session")
def saturated_family(grid_24_96):
    return random_saturated_problems(grid_24_96, 10)
