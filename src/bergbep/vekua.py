"""Generalized-analytic (Vekua) machinery on the disc.

The main Vekua equation dbar(w) = alpha * conj(w), alpha = dbar(f)/f for
a non-vanishing real conductivity f, is handled through the Teodorescu
transform T[g](z) = integral of g(zeta)/(z - zeta) dA(zeta), a right
inverse of dbar.  Membership of w in the Bergman-Vekua space is checked
through the analytic part u = w - T[alpha conj(w)], analytic seeds are
lifted into the space as solutions of the fixed-point equation w =
seed + T[alpha conj(w)], and the real/imaginary parts of solutions are
diagnosed against their divergence-form conductivity equations and the
conjugate Beltrami equation.  The module builds what the f-BEP needs
from alpha: the lifted space (build_fbep_space) and the norm rho of the
restriction map h -> h - T_J(alpha conj(h)) on L^2(J), which carries
its constraint into the Bergman setting (restriction_map_norm).  Both
choose their algorithm from how alpha is represented.

vekua_lift solves the fixed-point equation by Neumann iteration, which
converges when T composed with alpha conj is a contraction; it lifts
the f-BEP space of a grid-sampled f, whose alpha couples every mode.
For the closed-form conductivities alpha is one angular mode
a(r) e^{i s theta} (_alpha_mode), and v -> T[alpha conj(v)] sends the
ring samples of mode k to mode s - 1 - k.  The lift of e_n lives in the mode
pair n, s - 1 - n, and _mode_pair_lift solves the discrete equation
exactly for any contrast: one n_r x n_r complex solve per degree
(realified to 2 n_r where the two modes coincide).  Each such lift is
certified by its fixed-point defect ||seed + T[alpha conj(w)] - w||,
evaluated on the unreduced pair system with the same radial matrices;
the lifts are sampled on the grid only when asked for.  The norm of the
restriction map h -> h - T_J(alpha conj(h)) splits into the same mode
pairs on a J invariant under rotation (_mode_pair_norm); both take the
partner mode and its radial operator from _pair_operator.  Every other
input takes rho by Lanczos on the normal operator
(_normal_top_eigenvalue).

A VekuaBasis hands the f-BEP core the eigendecomposition of its
full-disc Gram form, taken once per basis (_full_form), a region's real
Gram form and moments (_lsq_forms, _lsq_moments) and its synthesis
(_synthesis).  A basis of sampled lifts takes them from its samples by
quadrature (bergman._forms).  The mode-pair basis keeps each lift as a
two-mode ring spectrum, w_b = sum_u X_bu(r) e^{i p_bu theta} (u = 0, 1),
and with W = fft_theta(w) the reordering of the polar layer in bergman
gives

    G_ab = Re sum w conj(w_a) w_b
         = Re sum_{u,v} sum_i conj(X_au,i) X_bv,i W_i[(p_au - p_bv) mod n_theta]
    r_a  = Re sum wh conj(w_a) = Re sum_u sum_i conj(X_au,i) fft_theta(wh)_i[p_au]
    sum_b c_b w_b = ifft_theta of the c_b X_b gathered at their modes,

exact discrete identities for any weights.  The full-disc weights
omega_i / n_theta are constant along theta, so W_i is omega_i in mode 0
alone and the full-disc form couples only lifts with equal modes; it
needs no weight table.  real_gram, real_rhs and synthesize use the
samples on every basis, so they stay an independent reference for the
spectral forms.

dbar, dz and teodorescu apply the operators their grid holds (see
grid.py): its radial stencils, angular wavenumbers and Teodorescu
radial matrices.

A reproducing identity for Vekua solutions can be written through the
similarity factor, w(z) = <w, exp(conj(s(z) - s(.))) K(z, .)>, but the
factor s depends on w itself, so it is not constructive and no
operation implements it.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bep import ConvergenceError, FullForm
from .bergman import AnalyticCoeffs, _check_degree, _forms, _radial_powers, project
from .grid import DiscGrid, GridFunction, GridMismatchError, Region, build_grid, inner_product

logger = logging.getLogger("bergbep")

_MAX_LIFT_ITER = 60  # Neumann steps of a lift


class LiftDivergenceError(RuntimeError):
    """The Neumann iteration for a Vekua lift diverged."""


def _polar_parts(g: GridFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^{i theta}, d_r g and (i/r) d_theta g, the parts of dbar and d in polar form."""
    grid = g.grid
    v_r = grid.radial_derivatives[0] @ g.values
    v_t = grid.dtheta(g.values)
    return np.exp(1j * grid.thetas)[None, :], v_r, 1j * (1.0 / grid.radial_nodes)[:, None] * v_t


def dbar(g: GridFunction) -> GridFunction:
    """Wirtinger derivative dbar = (d/dx + i d/dy) / 2 on the grid.

    In polar form dbar = (e^{i theta}/2)(d_r + (i/r) d_theta); exact to
    rounding for polynomials in z, conj(z) of radial degree <= 4.
    """
    phase, v_r, v_t = _polar_parts(g)
    return GridFunction(g.grid, 0.5 * phase * (v_r + v_t))


def dz(g: GridFunction) -> GridFunction:
    """Wirtinger derivative d = (d/dx - i d/dy) / 2 on the grid."""
    phase, v_r, v_t = _polar_parts(g)
    return GridFunction(g.grid, 0.5 * np.conj(phase) * (v_r - v_t))


def teodorescu(g: GridFunction) -> GridFunction:
    """Teodorescu transform T[g](z) = int g(zeta) / (z - zeta) dA(zeta).

    Evaluated at every grid node by the grid's operator; a right inverse
    of dbar, and T[1] equals conj(z) to rounding.
    """
    return GridFunction(g.grid, g.grid.teodorescu.apply(g.values))


@dataclass(eq=False)
class Conductivity:
    """Non-vanishing real conductivity f with 1/k <= |f| <= k on the disc.

    Closed-form kinds carry their alpha = dbar(f)/f exactly:
    "exp_x" is f = exp(eps x) with alpha = eps/2, "exp_xy" is
    f = exp(eps x y) with alpha = eps (y + i x)/2, "const" has alpha = 0.
    Grid-only conductivities differentiate f numerically.
    """

    values: GridFunction
    k_bound: float
    kind: str = "grid"
    eps: float = 0.0

    def __post_init__(self):
        v = self.values.values
        if np.max(np.abs(v.imag)) > 1e-12 * max(1.0, np.max(np.abs(v.real))):
            raise ValueError("conductivity must be real-valued")
        if self.k_bound < 1.0:
            raise ValueError(f"conductivity bound k must be >= 1, got {self.k_bound}")
        mag = np.abs(v.real)
        if mag.min() < 1.0 / self.k_bound - 1e-12 or mag.max() > self.k_bound + 1e-12:
            raise ValueError("conductivity violates 1/k <= |f| <= k on the grid")

    @property
    def grid(self) -> DiscGrid:
        return self.values.grid

    @classmethod
    def constant(cls, grid: DiscGrid, value: float = 1.0) -> "Conductivity":
        return cls(
            GridFunction.constant(grid, value),
            k_bound=max(abs(value), 1.0 / abs(value)),
            kind="const",
        )

    @classmethod
    def exp_x(cls, grid: DiscGrid, eps: float) -> "Conductivity":
        vals = np.exp(eps * grid.nodes.real)
        return cls(GridFunction(grid, vals), k_bound=np.exp(abs(eps)), kind="exp_x", eps=eps)

    @classmethod
    def exp_xy(cls, grid: DiscGrid, eps: float) -> "Conductivity":
        z = grid.nodes
        vals = np.exp(eps * z.real * z.imag)
        return cls(
            GridFunction(grid, vals), k_bound=np.exp(abs(eps) / 2.0), kind="exp_xy", eps=eps
        )

    @classmethod
    def from_grid(cls, values: GridFunction, k_bound: float) -> "Conductivity":
        return cls(values, k_bound=k_bound, kind="grid")


def alpha_from_f(f: Conductivity) -> GridFunction:
    """Vekua coefficient alpha = dbar(f) / f.

    Exact for the closed-form kinds, built from _alpha_mode; differentiated
    numerically for a grid-sampled f.
    """
    grid = f.grid
    if np.min(np.abs(f.values.values)) < 1.0 / f.k_bound - 1e-12:
        raise ValueError("conductivity magnitude fell below its declared lower bound")
    mode = _alpha_mode(f)
    if mode is not None:
        return GridFunction(grid, _mode_samples(grid, mode))
    df = dbar(f.values)
    return GridFunction(grid, df.values / f.values.values)


def _alpha_mode(f: Conductivity, grid: DiscGrid | None = None) -> tuple[np.ndarray, int] | None:
    """alpha = a(r) e^{i s theta} of a closed-form kind as (a on the rings, s).

    a is evaluated on the rings of grid, f's own grid by default: a
    closed form needs no samples of f.  None for a grid-sampled
    conductivity, whose alpha couples every angular mode.  exp_xy has
    alpha = eps (y + i x)/2 = (i eps/2) r e^{-i theta}.
    """
    r = (f.grid if grid is None else grid).radial_nodes
    if f.kind == "const":
        return np.zeros(r.size, dtype=complex), 0
    if f.kind == "exp_x":
        return np.full(r.size, f.eps / 2.0, dtype=complex), 0
    if f.kind == "exp_xy":
        return 0.5j * f.eps * r, -1
    return None


def _mode_samples(grid: DiscGrid, mode: tuple[np.ndarray, int]) -> np.ndarray:
    """a(r) e^{i s theta} at the nodes of grid, for mode = (a on its rings, s)."""
    a, s = mode
    return a[:, None] * np.exp(1j * s * grid.thetas)[None, :]


def vekua_residual(w: GridFunction, alpha: GridFunction, degree: int) -> float:
    """Distance of w - T[alpha conj(w)] from the degree-N analytic span.

    Near zero iff w solves the Vekua equation for this alpha (the
    analytic part then lies in A^2, up to the basis truncation).
    """
    w._check_same_grid(alpha)
    return float(_residuals(w.values, alpha, degree))


def _residuals(w: np.ndarray, alpha: GridFunction, degree: int) -> np.ndarray:
    """vekua_residual of a stack (..., n_r, n_theta): one T apply and one fft."""
    _check_degree(alpha.grid, degree)
    return _span_distances(alpha.grid, _analytic_modes(w, alpha), degree)


def _analytic_modes(w: np.ndarray, alpha: GridFunction) -> np.ndarray:
    """Ring modes U of u = w - T[alpha conj(w)], u = ifft(U, norm="forward"), for a stack."""
    u = np.conj(w)
    u *= alpha.values
    u = alpha.grid.teodorescu.apply(u)
    np.subtract(w, u, out=u)
    return np.fft.fft(u, axis=-1, norm="forward")


def _span_distances(grid: DiscGrid, modes: np.ndarray, degree: int) -> np.ndarray:
    """Distances from the degree-N analytic span of a stack given by its ring modes.

    On the rings e_n is sqrt(n+1) r^n in mode n alone, so by Parseval
    <v, e_n> = sum_i rw_i sqrt(n+1) r_i^n V_in and the projection only
    touches modes 0..N.  Overwrites modes.
    """
    e = np.sqrt(np.arange(degree + 1) + 1.0) * _radial_powers(grid, degree)  # (n_r, N+1)
    low = modes[..., : degree + 1]
    low -= np.sum(grid.radial_weights[:, None] * e * low, axis=-2)[..., None, :] * e
    return _mode_norms(grid, modes)


def _mode_norms(grid: DiscGrid, modes: np.ndarray) -> np.ndarray:
    """L^2 norms of a stack from its ring modes (Parseval on each ring)."""
    return np.sqrt((modes.real**2 + modes.imag**2).sum(axis=-1) @ grid.radial_weights)


@dataclass(eq=False)
class VekuaFunction:
    """Grid solution of the Vekua equation together with its defect."""

    w: GridFunction
    alpha: GridFunction
    residual: float
    converged: bool = True
    iterations: int = 0
    increments: list = field(default_factory=list)

    @property
    def grid(self) -> DiscGrid:
        return self.w.grid


def vekua_lift(
    seed: AnalyticCoeffs,
    alpha: GridFunction,
    tol: float = 1e-9,
    max_iter: int = _MAX_LIFT_ITER,
) -> VekuaFunction:
    """Lift an analytic seed into the Vekua space of alpha.

    Iterates w <- seed + T[alpha conj(w)] from w = seed.  Converges
    geometrically when T composed with multiplication by alpha is a
    contraction; three consecutive increment growths raise
    LiftDivergenceError, and hitting max_iter returns the last iterate
    flagged as non-converged.
    """
    (lifted,) = _lift_batch([seed], alpha, tol, max_iter)
    if isinstance(lifted, LiftDivergenceError):
        raise lifted
    return lifted


def _lift_batch(
    seeds: list[AnalyticCoeffs], alpha: GridFunction, tol: float, max_iter: int
) -> list:
    """Lift several seeds as vekua_lift does, with one Teodorescu apply per step.

    Each seed keeps its own increments, iteration count and divergence
    detector, and stops updating once its increment is <= tol; a step
    applies T to the stack of seeds still iterating, and the residuals of
    all lifts take one more apply and one ring projection.  Returns, per
    seed, its VekuaFunction or the LiftDivergenceError that ended it.
    """
    _check_tol(tol)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    grid = alpha.grid
    teo = grid.teodorescu
    seed_vals = np.stack([seed.on_grid(grid).values for seed in seeds])
    w = seed_vals.copy()
    increments: list[list[float]] = [[] for _ in seeds]
    converged = [False] * len(seeds)
    diverged: dict[int, LiftDivergenceError] = {}
    active = list(range(len(seeds)))
    for _ in range(max_iter):
        if not active:
            break
        # in place where possible: each stack holds every seed still iterating
        x = w[active]
        np.conjugate(x, out=x)
        x *= alpha.values
        w_next = teo.apply(x)
        w_next += seed_vals[active]
        x = w[active]
        x -= w_next
        incs = np.sqrt(np.sum(grid.weights * np.abs(x) ** 2, axis=(-2, -1)))
        w[active] = w_next
        still = []
        for b, inc in zip(active, incs.tolist()):
            history = increments[b]
            history.append(inc)
            if inc <= tol:
                converged[b] = True
            elif len(history) >= 4 and all(history[-j] > history[-j - 1] for j in (1, 2, 3)):
                diverged[b] = LiftDivergenceError(
                    f"lift iteration diverging, increments {history[-4:]}"
                )
            else:
                still.append(b)
        active = still

    del x, w_next, seed_vals  # keep the residuals' stacks within the iteration's peak
    residuals = np.zeros(len(seeds))
    for degree in {seed.degree for seed in seeds}:
        idx = [b for b, seed in enumerate(seeds) if seed.degree == degree and b not in diverged]
        if idx:
            residuals[idx] = _residuals(w[idx], alpha, degree)
    results: list = []
    for b, seed in enumerate(seeds):
        if b in diverged:
            results.append(diverged[b])
            continue
        if not converged[b]:
            logger.warning(
                "vekua_lift hit max_iter=%d (last increment %.3e)", max_iter, increments[b][-1]
            )
        w_b = GridFunction(grid, w[b])
        results.append(
            VekuaFunction(
                w=w_b,
                alpha=alpha,
                residual=float(residuals[b]),
                converged=converged[b],
                iterations=len(increments[b]),
                increments=increments[b],
            )
        )
    return results


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _pair_operator(mats: np.ndarray, coef: np.ndarray, s: int, p: np.ndarray) -> tuple:
    """Partner modes q and radial operators of v -> T[alpha conj(v)] into ring modes p.

    For alpha = a(r) e^{i s theta}, conj of ring mode q = s - 1 - p (mod
    n_theta) times alpha lands in mode s - q = p + 1, which T sends to
    mode p, so the ring samples of mode p receive mats[p + 1] diag(coef)
    conj(Y_q) with coef the ring samples of a.  mats is the stack of
    Teodorescu radial matrices, one per input mode, possibly restricted
    to some rings or scaled along its rows.
    """
    n_t = mats.shape[0]
    return (s - 1 - p) % n_t, mats[(p + 1) % n_t] * coef


def _mode_pair_lift(
    alpha: GridFunction, mode: tuple[np.ndarray, int], degree: int, tol: float
) -> "VekuaBasis":
    """Lifts of e_0..e_N, i e_0..i e_N for alpha = a(r) e^{i s theta}, solved exactly.

    mode is (a, s) from _alpha_mode, and alpha its grid samples.  On the
    grid, v -> T[alpha conj(v)] sends angular mode k to mode s - 1 - k,
    so the lift of e_n lives in modes n and m = s - 1 - n (mod n_theta)
    alone.  With x, y its ring samples there, x = S_n + A conj(y) and
    y = C conj(x), where A and C are the Teodorescu radial matrices of
    input modes n + 1 and m + 1 times diag(a); then

        (I - A conj(C)) x = S_n,   y = C conj(x),

    one batched n_r x n_r solve over n, and the lift of i e_n is
    (i x, -i y).  When m = n the equation x = S_n + A conj(x) is only
    real-linear and is solved in its 2 n_r realified form for both
    seeds.  The basis (_PairBasis) keeps each lift's two-mode spectrum,
    from which the f-BEP takes its forms; it samples the lifts on the
    grid only when its elements are asked for.

    Each lift is certified by its fixed-point defect ||seed +
    T[alpha conj(w)] - w|| and its span residual, evaluated on the
    unreduced pair system: the ring modes of w - T[alpha conj(w)] are
    x - A conj(y) and y - C conj(x) (collided: x - A conj(x)), since alpha
    is exactly one mode on the grid, and their norms are Parseval sums
    over the rings.  Each element then has iterations = 1, increments =
    [defect], and converged iff defect <= tol.
    """
    _check_tol(tol)
    grid = alpha.grid
    _check_degree(grid, degree)
    a, s = mode
    n_r = grid.n_radial
    mats = grid.teodorescu.matrices
    n = np.arange(degree + 1)
    m, big_a = _pair_operator(mats, a, s, n)  # M diag(a)
    _, big_c = _pair_operator(mats, a, s, m)
    collided = m == n
    seeds = np.sqrt(n + 1.0)[:, None] * _radial_powers(grid, degree).T  # e_n in mode n
    eye = np.eye(n_r)
    system = eye - big_a @ np.conj(big_c)
    system[collided] = eye  # the collided pair is solved below
    x = np.linalg.solve(system, seeds[..., None])[..., 0]
    y = np.einsum("nij,nj->ni", big_c, np.conj(x))
    # rings[unit, n, slot]: the ring coefficients in modes (n, m) of the
    # lifts of e_n (x, y) and of i e_n (i x, -i y)
    rings = np.stack((np.stack((x, y), axis=1), np.stack((1j * x, -1j * y), axis=1)))
    for c in np.nonzero(collided)[0]:  # the collided pair: x = S_n + A conj(x)
        ar, ai = big_a[c].real, big_a[c].imag
        real_form = np.block([[eye - ar, -ai], [-ai, eye + ar]])
        rhs = np.zeros((2 * n_r, 2))
        rhs[:n_r, 0] = rhs[n_r:, 1] = seeds[c]
        sol = np.linalg.solve(real_form, rhs)
        rings[:, c, 0] = (sol[:n_r] + 1j * sol[n_r:]).T
        rings[:, c, 1] = 0.0

    # the certificate: u = w - T[alpha conj(w)] in the pair's modes
    own, other = rings[:, :, 0], rings[:, :, 1]
    partner = np.where(collided[:, None], own, other)
    u = np.empty_like(rings)
    u[:, :, 0] = own - np.einsum("nij,unj->uni", big_a, np.conj(partner))
    u[:, :, 1] = other - np.einsum("nij,unj->uni", big_c, np.conj(own))
    u[:, collided, 1] = 0.0
    gap = u.copy()  # u - seed, whose norm is the defect
    gap[0, :, 0] -= seeds
    gap[1, :, 0] -= 1j * seeds
    defects = _mode_norms(grid, np.swapaxes(gap, -1, -2)).ravel()
    # the residual: u less its projection on e_p in each slot whose mode p <= N
    pair_modes = np.stack((n, m), axis=1)
    e = np.sqrt(n + 1.0) * _radial_powers(grid, degree)  # (n_r, N+1)
    profile = np.where((pair_modes <= degree)[..., None], e.T[np.minimum(pair_modes, degree)], 0.0)
    u -= np.sum(grid.radial_weights * profile * u, axis=-1, keepdims=True) * profile
    residuals = _mode_norms(grid, np.swapaxes(u, -1, -2)).ravel()

    modes = np.concatenate((pair_modes, pair_modes))
    return _PairBasis(alpha, modes, rings.reshape(modes.shape + (n_r,)), defects, residuals, tol)


def build_fbep_space(f: Conductivity, degree: int, tol: float = 1e-9) -> VekuaBasis:
    """Lift {e_0..e_N, i e_0..i e_N} into the Vekua space of f.

    For the closed-form kinds (const, exp_x, exp_xy) alpha is a single
    angular mode a(r) e^{i s theta}, and the discrete fixed-point
    equation w = seed + T[alpha conj(w)] is solved exactly by angular
    mode pairs (one small radial solve per degree), certified on the
    pair system, and the basis keeps the lifts' two-mode spectra; a lift
    whose fixed-point defect exceeds tol raises ConvergenceError naming
    its seed.  A grid-sampled f couples every mode, and its 2(N+1) seeds
    are lifted together by the Neumann iteration, each with its own
    iteration; a lift that diverges or stops at _MAX_LIFT_ITER steps
    without reaching tol raises ConvergenceError naming its seed.
    """
    alpha = alpha_from_f(f)
    names = [f"{unit}e_{n}" for unit in ("", "i*") for n in range(degree + 1)]
    mode = _alpha_mode(f)
    if mode is None:
        seeds = [
            AnalyticCoeffs(unit * AnalyticCoeffs.unit(n, degree).coeffs)
            for unit in (1.0, 1.0j)
            for n in range(degree + 1)
        ]
        elements = _lift_batch(seeds, alpha, tol, _MAX_LIFT_ITER)
        for name, lifted in zip(names, elements):  # the first failure in seed order
            if isinstance(lifted, LiftDivergenceError):
                raise ConvergenceError(f"lift of seed {name} diverged: {lifted}") from lifted
            if not lifted.converged:
                raise ConvergenceError(
                    f"lift of seed {name} did not converge in {lifted.iterations} "
                    f"iterations (last increment {lifted.increments[-1]:.3e} > tol {tol:.3e})"
                )
        basis = VekuaBasis(alpha=alpha, elements=elements)
    else:
        basis = _mode_pair_lift(alpha, mode, degree, tol)
        for name, defect in zip(names, basis._defects):
            if not defect <= tol:
                raise ConvergenceError(
                    f"lift of seed {name} has fixed-point defect {defect:.3e} > tol {tol:.3e}"
                )
    if logger.isEnabledFor(logging.INFO):  # the eigenvalue costs a full Gram
        logger.info(
            "fbep space: %d elements, Gram min eigenvalue %.3e",
            basis.size,
            basis.min_eigenvalue(),
        )
    return basis


def _mode_pair_norm(
    grid: DiscGrid, mode: tuple[np.ndarray, int], phi: np.ndarray, w: np.ndarray
) -> float:
    """Norm of R h = h - S T_J(alpha conj(S^-1 h)) for alpha = a(r) e^{i s theta}, by mode pairs.

    mode is (a on the rings of grid, s), and phi and w are J's overlap
    fraction and node weight per ring, both constant along theta.  In
    the ring modes H_p of h on J's rings, R sends H_p to H_p - B_p
    conj(H_p'), with p' = s - 1 - p (mod n_theta) and B_p = S M_{p+1}
    diag(phi a) S^-1, M the Teodorescu radial matrices (_pair_operator).
    For p != p' the pair is complex-linear in (H_p, conj H_p'), with
    matrix [[I, -B_p], [-conj(B_p'), I]]; a collided pair p = p' is only
    real-linear, and its realified matrix is [[I - Re B, -Im B], [-Im B,
    I + Re B]].  The norm is the largest singular value over these
    blocks X, each 2 n_J wide, from one batched eigvalsh of X^H X.
    """
    a, s = mode
    rings = np.nonzero(w > 0.0)[0]
    k = rings.size
    sqw = np.sqrt(w[rings])
    scaled = sqw[:, None] * grid.teodorescu.matrices[:, rings[:, None], rings]  # S M
    p = np.arange(grid.angular_count)
    q, b = _pair_operator(scaled, (phi * a)[rings] / sqw, s, p)  # b[p] = B_p
    pairs, collided = p[p < q], p[p == q]
    blocks = np.zeros((pairs.size + collided.size, 2 * k, 2 * k), dtype=complex)
    blocks[:, :k, :k] = blocks[:, k:, k:] = np.eye(k)
    blocks[: pairs.size, :k, k:] = -b[pairs]
    blocks[: pairs.size, k:, :k] = -np.conj(b[q[pairs]])
    real, imag = b[collided].real, b[collided].imag
    blocks[pairs.size :, :k, :k] -= real
    blocks[pairs.size :, k:, k:] += real
    blocks[pairs.size :, :k, k:] = blocks[pairs.size :, k:, :k] = -imag
    return float(np.sqrt(np.linalg.eigvalsh(np.swapaxes(blocks, 1, 2).conj() @ blocks).max()))


def restriction_map_norm(
    f: Conductivity, j_region: Region, grid_shape: tuple[int, int] = (12, 24)
) -> float:
    """Operator norm of h -> h - T_J(alpha conj(h)) on L^2(J), on a coarse grid.

    The map is R h = h - A conj(h) on the weighted values at J's nodes,
    with the complex matrix A = S T_J S^-1 (S = diag sqrt(w_J)).  T_J
    integrates over J only, so the Teodorescu input is weighted by J's
    overlap fraction and the output is read on the nodes of J; a cell
    that J barely overlaps then contributes in proportion to its
    overlap.  With f constant the map is the identity and the norm is 1.

    For a closed-form f (alpha = a(r) e^{i s theta}) on a J whose
    overlap fraction is constant along theta (radial discs, annuli,
    their complements, the full disc), R sends ring mode p to mode
    s - 1 - p, and the norm is the largest singular value over the mode
    pairs (_mode_pair_norm).  Otherwise A is taken from one batched
    Teodorescu apply to the unit inputs on J's nodes, and the norm is
    the square root of the top eigenvalue of R^T R, found by Lanczos
    (_normal_top_eigenvalue); R is only real-linear.  The norm grid of
    each shape is built once, and a closed-form alpha is evaluated on
    it directly.  A conductivity on a grid of grid_shape is used on its
    own grid; a grid-sampled one cannot be carried to another.
    """
    own = f.grid.shape == tuple(grid_shape)
    small = f.grid if own else _norm_grid(tuple(grid_shape))
    mode = _alpha_mode(f, small)
    if mode is None and not own:
        raise ValueError("grid-sampled conductivities cannot be rebuilt on another grid")
    phi = j_region.fraction(small)
    w_j = j_region.weights(small)
    if not np.any(w_j > 0.0):
        raise ValueError("region J carries no nodes on the norm-estimation grid")
    if mode is not None and np.all(phi == phi[:, :1]):
        return _mode_pair_norm(small, mode, phi[:, 0], w_j[:, 0])

    alpha = alpha_from_f(f).values if mode is None else _mode_samples(small, mode)
    w_j = w_j.ravel()
    idx = np.nonzero(w_j > 0.0)[0]
    n = idx.size
    sqw = np.sqrt(w_j[idx])
    inputs = np.zeros((n,) + small.shape, dtype=complex)
    inputs.reshape(n, -1)[np.arange(n), idx] = (phi * alpha).ravel()[idx] / sqw
    a = small.teodorescu.apply(inputs).reshape(n, -1)[:, idx].T  # row: output node
    a *= sqw[:, None]
    theta, _ = _normal_top_eigenvalue(a)
    return float(np.sqrt(theta))


def _normal_top_eigenvalue(a: np.ndarray) -> tuple[float, int]:
    """Top eigenvalue of R^T R for R h = h - A conj(h), and the Lanczos steps taken.

    R is real-linear on C^n, so the Krylov space is one of R^2n under the
    inner product Re(x^H y), in which R^T g = g - A^T conj(g).  Symmetric
    Lanczos with full reorthogonalization starts from a fixed-seed random
    vector, so the result is deterministic and no symmetry of J or alpha
    can keep the start orthogonal to the top eigenvector.  It stops when
    the top Ritz pair's residual bound beta_k |s_k| falls to a few ulps
    of the Ritz value theta, or when the Krylov space spans R^2n, where
    theta is exact.
    """
    n = a.shape[0]
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((2 * n, n), dtype=complex)
    real_basis = basis.view(float)  # (Re, Im) interleaved: Re(x^H y) is a real dot
    tri = np.zeros((2 * n, 2 * n))  # the Lanczos tridiagonal, grown a step at a time
    stop = 4.0 * np.finfo(float).eps  # residual bound relative to theta
    for k in range(2 * n):
        basis[k] = q
        r = q - a @ np.conj(q)
        w = r - a.T @ np.conj(r)
        tri[k, k] = np.vdot(r, r).real  # q^T R^T R q = |R q|^2
        real_w = w.view(float)
        for _ in range(2):  # full reorthogonalization, repeated once for rounding
            real_w -= (real_basis[: k + 1] @ real_w) @ real_basis[: k + 1]
        beta = np.linalg.norm(w)
        thetas, vectors = np.linalg.eigh(tri[: k + 1, : k + 1])
        residual = beta * abs(vectors[-1, -1])
        if residual <= stop * thetas[-1] or k + 1 == 2 * n:
            break
        tri[k, k + 1] = tri[k + 1, k] = beta
        q = w / beta
    return float(thetas[-1]), k + 1


@lru_cache(maxsize=8)
def _norm_grid(shape: tuple[int, int]) -> DiscGrid:
    """The norm grid of a shape, built once: its Teodorescu operator stays cached with it.

    Only the most recent shapes are kept; the operators of evicted grids
    are released with them.
    """
    return build_grid(*shape)


def similarity_factor(w: VekuaFunction) -> GridFunction:
    """Logarithmic factor s with w = e^s F, F analytic.

    Constructed as s = T[alpha conj(w)/w], which solves
    dbar(s) = alpha conj(w)/w; the construction satisfies
    ||s||_inf <= 4 ||alpha||_inf, and a violation is reported.
    """
    vals = w.w.values
    scale = np.max(np.abs(vals))
    if scale == 0.0 or np.min(np.abs(vals)) < 1e-13 * scale:
        raise ValueError("w vanishes at a grid node; similarity factor undefined")
    ratio = GridFunction(w.grid, w.alpha.values * np.conj(vals) / vals)
    s = teodorescu(ratio)
    s_inf = np.max(np.abs(s.values))
    alpha_inf = np.max(np.abs(w.alpha.values))
    if s_inf > 4.0 * alpha_inf + 1e-8:
        warnings.warn(
            f"similarity factor bound violated: ||s||_inf = {s_inf:.3e} "
            f"> 4 ||alpha||_inf = {4.0 * alpha_inf:.3e}",
            RuntimeWarning,
        )
    return s


def pf_restricted(w: VekuaFunction, degree: int) -> GridFunction:
    """Bergman-Vekua projection restricted to the space, P w + (I-P) T[alpha conj(w)].

    Valid as the orthogonal projection only on Vekua solutions; for
    those it reproduces w up to truncation.
    """
    grid = w.grid
    t = teodorescu(w.alpha * w.w.conj())
    pw = project(w.w, degree).on_grid(grid)
    pt = project(t, degree).on_grid(grid)
    return pw + (t - pt)


def _interior_mask(grid: DiscGrid) -> np.ndarray:
    h = 1.0 / grid.n_radial
    mask = grid.radial_nodes <= 1.0 - 2.0 * h
    if not np.any(mask):
        raise ValueError("grid too coarse: no interior rings below 1 - 2h")
    return np.repeat(mask[:, None], grid.angular_count, axis=1)


def _interior_norm(grid: DiscGrid, values: np.ndarray, mask: np.ndarray) -> float:
    return float(np.sqrt(np.sum(grid.weights[mask] * np.abs(values[mask]) ** 2)))


def _divergence_form_residual(
    grid: DiscGrid, sigma: np.ndarray, u: np.ndarray, mask: np.ndarray
) -> float:
    """Relative residual of div(sigma grad u) = 0 on the interior nodes."""
    d1, d2 = grid.radial_derivatives
    u_t = grid.dtheta(u)
    u_r, u_rr, u_tt = d1 @ u, d2 @ u, grid.dtheta(u_t)
    s_r, s_t = d1 @ sigma, grid.dtheta(sigma)
    inv_r = (1.0 / grid.radial_nodes)[:, None]
    terms = [
        sigma * u_rr,
        sigma * inv_r * u_r,
        sigma * inv_r**2 * u_tt,
        s_r * u_r,
        s_t * inv_r**2 * u_t,
    ]
    num = _interior_norm(grid, sum(terms), mask)
    # the zeroth-order anchor keeps the ratio ~0 when u is constant and
    # every derivative term is pure rounding noise
    den = sum(_interior_norm(grid, t, mask) for t in terms)
    den += _interior_norm(grid, sigma * u, mask)
    return num / den if den > 0.0 else 0.0


def metaharmonic_residuals(w: VekuaFunction, f: Conductivity) -> tuple[float, float]:
    """Relative residuals of the two conductivity equations solved by w.

    w = w0 + i w1 in the Vekua space of f makes w0/f and f w1 weak
    solutions of div(f^2 grad(w0/f)) = 0 and div(f^-2 grad(f w1)) = 0;
    both are discretized in strong form on the interior nodes.
    """
    grid = w.grid
    if f.grid is not grid:
        raise ValueError("conductivity and Vekua function use different grids")
    mask = _interior_mask(grid)
    fv = f.values.values.real
    res0 = _divergence_form_residual(grid, fv**2, w.w.values.real / fv, mask)
    res1 = _divergence_form_residual(grid, fv**-2.0, fv * w.w.values.imag, mask)
    return res0, res1


def beltrami_residual(w: VekuaFunction, f: Conductivity) -> float:
    """Relative residual of the conjugate Beltrami equation for G = w0/f + i f w1.

    G satisfies dbar(G) = nu conj(d G) with nu = (1 - f^2)/(1 + f^2).
    """
    grid = w.grid
    if f.grid is not grid:
        raise ValueError("conductivity and Vekua function use different grids")
    mask = _interior_mask(grid)
    fv = f.values.values.real
    g = GridFunction(grid, w.w.values.real / fv + 1j * fv * w.w.values.imag)
    nu = (1.0 - fv**2) / (1.0 + fv**2)
    dbar_g = dbar(g).values
    dz_g = dz(g).values
    num = _interior_norm(grid, dbar_g - nu * np.conj(dz_g), mask)
    den = (
        _interior_norm(grid, dbar_g, mask)
        + _interior_norm(grid, dz_g, mask)
        + _interior_norm(grid, g.values, mask)
    )
    return num / den if den > 0.0 else 0.0


def laplacian_residual(g: GridFunction) -> float:
    """Relative strong-form Laplace residual on the interior nodes."""
    grid = g.grid
    mask = _interior_mask(grid)
    return _divergence_form_residual(grid, np.ones(grid.shape), g.values, mask)


@dataclass(eq=False)
class VekuaBasis:
    """Real-linear spanning family of Vekua functions (lifted e_n and i e_n).

    The dense (n_nodes, n_elements) matrix of element samples is built on
    first use.  The f-BEP core takes the full-disc decomposition
    (_full_form, one eigh per basis), a region's real forms and the
    synthesis from the basis, here the quadrature of the samples; a
    basis lifted by mode pairs (_PairBasis) supplies them from its
    spectra instead.
    """

    alpha: GridFunction
    elements: list[VekuaFunction]
    _matrix: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("basis needs at least one element")
        if any(e.w.grid is not self.alpha.grid for e in self.elements):
            raise GridMismatchError("basis elements and alpha live on different grids")

    @property
    def grid(self) -> DiscGrid:
        return self.alpha.grid

    @property
    def size(self) -> int:
        return len(self.elements)

    def values_matrix(self) -> np.ndarray:
        """Element samples as columns, shape (n_nodes, n_elements)."""
        if self._matrix is None:
            self._matrix = np.column_stack([e.w.values.ravel() for e in self.elements])
        return self._matrix

    def _lsq_forms(self, w: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The core's Re <w_m, w_n> and Re <h, w_m> under the node weights w (grid-shaped)."""
        return _forms(self.values_matrix(), w.ravel(), h.ravel(), np.real)

    def _lsq_moments(self, w: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The core's Re <h, w_m> under the node weights w (grid-shaped)."""
        on = np.flatnonzero(w)
        return (self.values_matrix()[on].conj().T @ (w.ravel()[on] * h.ravel()[on])).real

    def _full_gram(self) -> np.ndarray:
        """The full-disc Re <w_m, w_n>, here from the samples."""
        return self.real_gram()

    @cached_property
    def _full_form(self) -> FullForm:
        """The eigendecomposition of the full-disc Gram form, taken once per basis;
        every core over the basis whitens by it."""
        return FullForm(*np.linalg.eigh(self._full_gram()))

    def _synthesis(self, coeffs: np.ndarray) -> np.ndarray:
        """The core's sum_b c_b w_b at the nodes, grid-shaped."""
        return (self.values_matrix() @ coeffs).reshape(self.grid.shape)

    def real_gram(self, region: Region | None = None) -> np.ndarray:
        """Real Gram matrix Re <w_m, w_n> over the disc or a region, from the samples."""
        w = (self.grid.weights if region is None else region.weights(self.grid)).ravel()
        return _forms(self.values_matrix(), w, np.zeros(w.size), np.real)[0]

    def real_rhs(self, h: GridFunction, region: Region | None = None) -> np.ndarray:
        """Vector Re <h, w_m> over the disc or a region, from the samples on every basis."""
        w = self.grid.weights if region is None else region.weights(self.grid)
        return VekuaBasis._lsq_moments(self, w, h.values)

    def synthesize(self, coeffs: np.ndarray) -> GridFunction:
        """sum_b c_b w_b from the samples."""
        vals = self.values_matrix() @ np.asarray(coeffs, dtype=float)
        return GridFunction(self.grid, vals.reshape(self.grid.shape))

    def project_span(self, h: GridFunction, rcond: float = 1e-12) -> np.ndarray:
        """Real coefficients of the span projection of h (pinv-regularized)."""
        gram = self.real_gram()
        vals, vecs = np.linalg.eigh(gram)
        keep = vals > rcond * vals.max()
        rhs = vecs.T @ self.real_rhs(h)
        sol = np.zeros_like(rhs)
        sol[keep] = rhs[keep] / vals[keep]
        return vecs @ sol

    def min_eigenvalue(self) -> float:
        """The smallest eigenvalue of the full-disc Gram form, from its one decomposition."""
        return float(self._full_form.vals[0])


class _PairBasis(VekuaBasis):
    """The VekuaBasis of a mode-pair lift (_mode_pair_lift), sampled on first use.

    Each lift is kept as its two-mode ring spectrum: the modes (B, 2)
    and the ring coefficients (B, 2, n_r), a collided pair's second slot
    zero.  The core's forms and synthesis are the pair identities of the
    module docstring, and the elements are synthesized from the spectra
    when first asked for, by one inverse fft of the whole stack.
    """

    def __init__(self, alpha, modes, rings, defects, residuals, tol):
        self.alpha = alpha
        self._modes, self._rings = modes, rings
        self._matrix = None
        self._defects, self._residuals, self._tol = defects, residuals, tol

    @property
    def size(self) -> int:
        return self._modes.shape[0]

    def _lsq_forms(self, w: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The real Gram form and moments by Parseval on each ring, over the pair spectra."""
        modes, rings = self._modes, self._rings
        p = modes.ravel()
        x = rings.reshape(p.size, -1)
        table = np.fft.fft(w, axis=-1)[:, (p[:, None] - p[None, :]) % self.grid.angular_count]
        g = np.einsum("ai,iab,bi->ab", x.conj(), table, x).real
        g = g.reshape(modes.shape + modes.shape).sum(axis=(1, 3))
        return (g + g.T) / 2.0, self._lsq_moments(w, h)

    def _lsq_moments(self, w: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The real moments by Parseval on each ring, over the pair spectra."""
        moments = np.fft.fft(w * h, axis=-1)[:, self._modes]  # (n_r, B, 2)
        return np.einsum("bui,ibu->b", self._rings.conj(), moments).real

    def _full_gram(self) -> np.ndarray:
        """The full-disc form from the spectra, without a weight table.

        The full-disc weights omega_i / n_theta are constant along theta,
        so only lifts with equal modes (mod n_theta) couple:
        G_ab = Re sum_{u,v: p_au = p_bv} sum_i omega_i conj(X_au,i) X_bv,i.
        """
        modes = self._modes
        p = modes.ravel() % self.grid.angular_count
        x = self._rings.reshape(p.size, -1)
        g = ((x.conj() * self.grid.radial_weights) @ x.T).real
        g = np.where(p[:, None] == p[None, :], g, 0.0)
        g = g.reshape(modes.shape + modes.shape).sum(axis=(1, 3))
        return (g + g.T) / 2.0

    def _synthesis(self, coeffs: np.ndarray) -> np.ndarray:
        """One spectrum gathers every c_b X_b at its modes, then one inverse fft."""
        spectrum = np.zeros(self.grid.shape, dtype=complex)
        terms = np.asarray(coeffs)[:, None, None] * self._rings
        np.add.at(spectrum.T, self._modes.ravel(), terms.reshape(self._modes.size, -1))
        return np.fft.ifft(spectrum, axis=-1, norm="forward")

    @cached_property
    def elements(self) -> list[VekuaFunction]:
        modes, rings = self._modes, self._rings
        spectra = np.zeros((self.size,) + self.grid.shape, dtype=complex)
        lifts = np.arange(self.size)
        spectra[lifts, :, modes[:, 1]] = rings[:, 1]
        spectra[lifts, :, modes[:, 0]] = rings[:, 0]  # after slot 1: a collided slot 1 is zero
        w = np.fft.ifft(spectra, axis=-1, norm="forward")
        return [
            VekuaFunction(
                w=GridFunction(self.grid, w[b]),
                alpha=self.alpha,
                residual=float(self._residuals[b]),
                converged=bool(self._defects[b] <= self._tol),
                iterations=1,
                increments=[float(self._defects[b])],
            )
            for b in lifts
        ]


def invariance_defect(basis: VekuaBasis, g_coeffs: np.ndarray, h: GridFunction) -> float:
    """Defect of Re<g, h> = Re<g, Pi h> for g in the span, Pi the span projection."""
    g = basis.synthesize(g_coeffs)
    pi_h = basis.synthesize(basis.project_span(h))
    return abs(inner_product(g, h).real - inner_product(g, pi_h).real)
