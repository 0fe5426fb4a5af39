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
choose their algorithm from how alpha is represented.  Neither depends on
the data or the budget, so for a closed-form f each is computed once, by
the one keep rule grid._once: f keeps its lift (a _PairLift: alpha's mode,
the parts, their certificates and, once taken, the full-disc
decomposition) for the last degree lifted, and J keeps rho for each norm
grid, keyed by f's kind and eps.  A grid-sampled f keeps nothing.

vekua_lift solves the fixed-point equation by Neumann iteration, which
converges when T composed with alpha conj is a contraction and stops at
_MAX_LIFT_ITER steps; it lifts the f-BEP space of a grid-sampled f,
whose alpha couples every mode.
For the closed-form conductivities alpha is one angular mode
phase b(r) e^{i s theta} with b real and a unit phase (_alpha_mode), and
v -> T[alpha conj(v)] sends the ring samples of mode k to mode s - 1 - k
through real radial matrices.  The lift of e_n lives in the mode pair
n, s - 1 - n, and _mode_pair_lift solves the discrete equation exactly
for any contrast: the pair system is real up to the phase, one
n_r x n_r real solve per degree, also where the two modes coincide; the
lift of i e_n follows from the same two parts.  Each lift is certified
by its fixed-point defect ||seed + T[alpha conj(w)] - w|| and its span
residual, from one real residual per degree of the unreduced pair
system with the same radial matrices, and sampled on the grid only when
asked for.  The norm of the restriction map h -> h - T_J(alpha conj(h))
splits into the same mode pairs on a J invariant under rotation
(_mode_pair_norm), whose blocks are real by a unitary similarity that
takes out the phase; both take the partner mode and its radial
operator from _pair_operator.  Every other input takes rho by Lanczos
on the normal operator (_normal_top_eigenvalue).

A VekuaBasis answers the f-BEP core through the four private members
every basis of bep.ConstrainedLSQ has: its real Gram form under any
node weights (_form(w)), its real moments (_moments(w, h)), its
synthesis on a slice of rings (_synthesis(c, rings), each row that of
the all-rings synthesis, bit for bit) and the eigendecomposition of its
full-disc form, eigh(_form(grid.weights)), taken once per basis, and
once per kept lift for the mode-pair bases over it (_full_form); the
span projection (project_span, invariance_defect) whitens by the same
decomposition under the core's rank rule (bep.FullForm.whitening), so it
takes no second Gram or eigh and keeps exactly the core's directions.
A fifth member, _vekua_defect(c, w, N), certifies a solution w = sum
c_b w_b: the distance of w - T[alpha conj(w)] from the degree-N
analytic span, vekua_residual.  A basis of sampled lifts takes them
from its samples by quadrature (bergman._gram, bergman._moments) and
the defect by one Teodorescu apply to w.  The
mode-pair basis keeps each lift of e_n once, as its two complex parts
P_nk = X_nk(r) e^{i p_nk theta} (k = 0, 1); the lift of e_n is X + Y and
that of i e_n is i X - i Y, the unit rule w_un = sum_k U_uk P_nk with
U = [[1, 1], [i, -i]].  With W = fft_theta(w) the reordering of the
polar layer in bergman gives, over the parts a = (n, k), b = (m, l),

    S_ab = sum w conj(P_a) P_b = sum_i conj(X_a,i) X_b,i W_i[(p_a - p_b) mod n_theta]
    G    = Re(U^H S U),   G_{un,vm} = Re sum_{k,l} conj(U_uk) S_{nk,ml} U_vl
    r_un = Re sum wh conj(w_un) = Re sum_k conj(U_uk) sum_i conj(X_nk,i) fft_theta(wh)_i[p_nk]
    sum c_un w_un = ifft_theta of the sum_u c_un U_uk X_nk gathered at their modes,
    ||w - T[alpha conj(w)] less its span projection||^2 = sum_n |c_0n + i c_1n|^2 r_n^2,

exact discrete identities for any weights.  Weights constant along
theta, w_ij = w_i0 (the full disc, radial discs, annuli and their
complements), have W_i = n_theta w_i0 in mode 0 alone, so their form
couples only parts with equal modes and needs no weight table; only
the other weights (sectors, masks) build the (n_r, 2(N+1), 2(N+1))
table of W_i[(p_a - p_b) mod n_theta].  The last line, with r_n the
span residual of lift n, takes no sampling (_PairBasis._vekua_defect).
real_gram, real_rhs, synthesize and vekua_residual use
the samples on every basis, so they stay an independent reference for
the spectral forms and the certificate.

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
from typing import NamedTuple

import numpy as np

from .bep import ConvergenceError, FullForm
from .bergman import (
    AnalyticCoeffs,
    _check_degree,
    _radial_powers,
    project,
)
from .bergman import _gram as _sample_gram
from .bergman import _moments as _sample_moments
from .grid import (
    DiscGrid,
    GridFunction,
    GridMismatchError,
    Region,
    _once,
    build_grid,
    inner_product,
)

logger = logging.getLogger("bergbep")

_MAX_LIFT_ITER = 60  # Neumann steps of a lift
_LIFT_TOL = 1e-9  # a lift's default relative tolerance
_UNITS = np.array([[1.0, 1.0], [1.0j, -1.0j]])  # lifts of e_n, i e_n: X + Y, i X - i Y


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


@dataclass(frozen=True, eq=False)
class Conductivity:
    """Non-vanishing real conductivity f with 1/k <= |f| <= k on the disc.

    Closed-form kinds carry their alpha = dbar(f)/f exactly:
    "exp_x" is f = exp(eps x) with alpha = eps/2, "exp_xy" is
    f = exp(eps x y) with alpha = eps (y + i x)/2, "const" has alpha = 0.
    Grid-only conductivities differentiate f numerically.

    A closed-form f keeps its mode-pair lift (a _PairLift) for the last
    degree lifted, read-only, and frees it with f (build_fbep_space); a
    grid-sampled f keeps nothing.
    """

    values: GridFunction
    k_bound: float
    kind: str = "grid"
    eps: float = 0.0
    # name -> (key, value), filled on first use (grid._once)
    _resolved: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        v = self.values.values
        if np.max(np.abs(v.imag)) > 1e-12 * max(1.0, np.max(np.abs(v.real))):
            raise ValueError("conductivity must be real-valued")
        _check_bound(self.k_bound)
        mag = np.abs(v.real)
        if mag.min() < 1.0 / self.k_bound - 1e-12 or mag.max() > self.k_bound + 1e-12:
            raise ValueError("conductivity violates 1/k <= |f| <= k on the grid")

    @property
    def grid(self) -> DiscGrid:
        return self.values.grid

    @classmethod
    def constant(cls, grid: DiscGrid, value: float = 1.0) -> "Conductivity":
        if not (np.isfinite(value) and value != 0.0):
            raise ValueError(f"constant conductivity must be non-zero and finite, got {value}")
        return cls(
            GridFunction.constant(grid, value),
            k_bound=max(abs(value), 1.0 / abs(value)),
            kind="const",
        )

    @classmethod
    def exp_x(cls, grid: DiscGrid, eps: float) -> "Conductivity":
        k = _exp_bound(abs(eps))
        vals = np.exp(eps * grid.nodes.real)
        return cls(GridFunction(grid, vals), k_bound=k, kind="exp_x", eps=eps)

    @classmethod
    def exp_xy(cls, grid: DiscGrid, eps: float) -> "Conductivity":
        k = _exp_bound(abs(eps) / 2.0)  # |x y| <= 1/2 on the disc
        z = grid.nodes
        vals = np.exp(eps * z.real * z.imag)
        return cls(GridFunction(grid, vals), k_bound=k, kind="exp_xy", eps=eps)

    @classmethod
    def from_grid(cls, values: GridFunction, k_bound: float) -> "Conductivity":
        return cls(values, k_bound=k_bound, kind="grid")


def _check_bound(k: float) -> None:
    if not 1.0 <= k < np.inf:  # a NaN k would pass every bound check
        raise ValueError(f"conductivity bound k must be >= 1 and finite, got {k}")


def _exp_bound(log_k: float) -> float:
    """k = exp(log_k) of a closed-form conductivity, checked before f is sampled: a k
    beyond the float range is refused, as the samples it bounds would overflow too."""
    with np.errstate(over="ignore"):
        k = float(np.exp(log_k))
    _check_bound(k)
    return k


def alpha_from_f(f: Conductivity) -> GridFunction:
    """Vekua coefficient alpha = dbar(f) / f.

    Exact for the closed-form kinds, built from _alpha_mode; differentiated
    numerically for a grid-sampled f.
    """
    grid = f.grid
    mode = _alpha_mode(f)
    if mode is not None:
        return GridFunction(grid, _mode_samples(grid, mode))
    df = dbar(f.values)
    return GridFunction(grid, df.values / f.values.values)


def _alpha_mode(f: Conductivity, grid: DiscGrid | None = None) -> tuple | None:
    """alpha = phase b(r) e^{i s theta} of a closed-form kind as (b on the rings, s, phase).

    b is real and the phase one unit constant, so every radial operator
    built from b is real.  b is evaluated on the rings of grid, f's own
    grid by default: a closed form needs no samples of f.  None for a
    grid-sampled conductivity, whose alpha couples every angular mode.
    exp_xy has alpha = eps (y + i x)/2 = i (eps/2) r e^{-i theta}.
    """
    r = (f.grid if grid is None else grid).radial_nodes
    if f.kind == "const":
        return np.zeros(r.size), 0, 1.0
    if f.kind == "exp_x":
        return np.full(r.size, f.eps / 2.0), 0, 1.0
    if f.kind == "exp_xy":
        return 0.5 * f.eps * r, -1, 1.0j
    return None


def _mode_samples(grid: DiscGrid, mode: tuple) -> np.ndarray:
    """phase b(r) e^{i s theta} at the nodes of grid, for mode = (b on its rings, s, phase)."""
    b, s, phase = mode
    return (phase * b)[:, None] * np.exp(1j * s * grid.thetas)[None, :]


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


def vekua_lift(seed: AnalyticCoeffs, alpha: GridFunction, tol: float = _LIFT_TOL) -> VekuaFunction:
    """Lift an analytic seed into the Vekua space of alpha.

    Iterates w <- seed + T[alpha conj(w)] from w = seed.  Converges
    geometrically when T composed with multiplication by alpha is a
    contraction; three consecutive increment growths raise
    LiftDivergenceError, and stopping at _MAX_LIFT_ITER (60) steps
    returns the last iterate flagged as non-converged.
    """
    (lifted,) = _lift_batch([seed], alpha, tol)
    if isinstance(lifted, LiftDivergenceError):
        raise lifted
    return lifted


def _lift_batch(seeds: list[AnalyticCoeffs], alpha: GridFunction, tol: float) -> list:
    """Lift several seeds of one degree as vekua_lift does, with one Teodorescu apply per step.

    Each seed keeps its own increments, iteration count and divergence
    detector, and stops updating once its increment is <= tol; a step
    applies T to the stack of seeds still iterating, and the residuals of
    all lifts take one more apply and one ring projection.  Returns, per
    seed, its VekuaFunction or the LiftDivergenceError that ended it.
    """
    _check_tol(tol)
    grid = alpha.grid
    teo = grid.teodorescu
    seed_vals = np.stack([seed.on_grid(grid).values for seed in seeds])
    w = seed_vals.copy()
    increments: list[list[float]] = [[] for _ in seeds]
    converged = [False] * len(seeds)
    diverged: dict[int, LiftDivergenceError] = {}
    active = list(range(len(seeds)))
    for _ in range(_MAX_LIFT_ITER):
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
    kept = [b for b in range(len(seeds)) if b not in diverged]
    if kept:
        residuals[kept] = _residuals(w[kept], alpha, seeds[0].degree)
    results: list = []
    for b in range(len(seeds)):
        if b in diverged:
            results.append(diverged[b])
            continue
        if not converged[b]:
            logger.warning(
                "vekua_lift hit %d steps (last increment %.3e)", _MAX_LIFT_ITER, increments[b][-1]
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
    """Partner modes q and real radial operators of v -> T[alpha conj(v)] into ring modes p.

    For alpha = phase b(r) e^{i s theta}, conj of ring mode q = s - 1 - p
    (mod n_theta) times alpha lands in mode s - q = p + 1, which T sends
    to mode p, so the ring samples of mode p receive phase mats[p + 1]
    diag(coef) conj(Y_q) with coef the ring samples of b.  mats is the
    stack of real Teodorescu radial matrices, one per input mode,
    possibly restricted to some rings or scaled along its rows.
    """
    n_t = mats.shape[0]
    return (s - 1 - p) % n_t, mats[(p + 1) % n_t] * coef


def _mode_pair_lift(grid: DiscGrid, mode: tuple, degree: int) -> "_PairLift":
    """Lifts of e_0..e_N, i e_0..i e_N for alpha = phase b(r) e^{i s theta}, solved exactly.

    mode is (b on the rings of grid, s, phase) from _alpha_mode; alpha is
    never sampled.  On the grid, v -> T[alpha conj(v)] sends angular mode
    k to mode s - 1 - k, so the lift of e_n lives in modes n and m = s - 1
    - n (mod n_theta) alone.  With x, y its ring samples there, x = S_n + phase A
    conj(y) and y = phase C conj(x), where A and C are the real
    Teodorescu radial matrices of input modes n + 1 and m + 1 times
    diag(b); |phase| = 1 and S_n is real, so x is real and

        (I - A C) x = S_n,   y = phase C x,

    one batched real n_r x n_r solve over n.  The lift of e_n is x + y and
    that of i e_n is i x - i y (_UNITS), also when m = n (C = A) and both
    parts share mode n: w = x + y solves the real-linear w = S_n +
    phase A conj(w).  The system is then singular exactly when the lift
    equation is: I - A A = (I + phase A conj)(I - phase A conj), and
    z = phase A conj(z) iff i z = -phase A conj(i z).  The lift
    (_PairLift) keeps each lift once, as its parts (x, y); a basis over
    it (_PairBasis) samples the lifts on the grid only when asked for.

    Each lift is certified by its fixed-point defect ||seed +
    T[alpha conj(w)] - w|| and its span residual on the unreduced pair
    system: alpha is exactly one mode on the grid, so u = w -
    T[alpha conj(w)] is x - A C x in mode n and y - phase C x = 0 in mode
    m, and the unit i^k (x + (-1)^k y) takes i^k times both.  One real
    residual per degree serves both units: the defect is ||u - S_n|| and
    the residual ||u less its e_n projection||, Parseval sums over the
    rings; the basis keeps that projection's coefficient too, for the
    certificate of a combination below degree N (_PairBasis._vekua_defect).
    """
    _check_degree(grid, degree)
    b, s, phase = mode
    mats = grid.teodorescu.matrices
    n = np.arange(degree + 1)
    m, big_a = _pair_operator(mats, b, s, n)  # M diag(b)
    _, big_c = _pair_operator(mats, b, s, m)
    seeds = np.sqrt(n + 1.0)[:, None] * _radial_powers(grid, degree).T  # e_n in mode n
    x = np.linalg.solve(np.eye(grid.n_radial) - big_a @ big_c, seeds[..., None])[..., 0]
    c_x = np.einsum("nij,nj->ni", big_c, x)

    # the certificate: u = x - A C x, the mode-n part of w - T[alpha conj(w)]
    u = x - np.einsum("nij,nj->ni", big_a, c_x)
    defects = np.sqrt((u - seeds) ** 2 @ grid.radial_weights)
    analytic = np.sum(grid.radial_weights * seeds * u, axis=-1)  # the e_n coefficient of u
    u -= analytic[:, None] * seeds
    residuals = np.sqrt(u**2 @ grid.radial_weights)
    parts = np.stack((x, phase * c_x), axis=1)
    return _PairLift(grid, mode, np.stack((n, m), axis=1), parts, np.tile(defects, 2),
                     np.tile(residuals, 2), analytic, {})


def build_fbep_space(f: Conductivity, degree: int, tol: float = _LIFT_TOL) -> VekuaBasis:
    """Lift {e_0..e_N, i e_0..i e_N} into the Vekua space of f.

    For the closed-form kinds (const, exp_x, exp_xy) alpha is a single
    angular mode phase b(r) e^{i s theta}, and the discrete fixed-point
    equation w = seed + T[alpha conj(w)] is solved exactly by angular
    mode pairs (one small real radial solve per degree), certified on the
    pair system, and the basis keeps each lift's two parts; a lift
    whose fixed-point defect exceeds tol raises ConvergenceError naming
    its seed.  f keeps that lift (_PairLift) for the last degree lifted, so
    a repeat call at the degree solves nothing: each call returns a fresh
    basis over the kept arrays with its own tol, and checks the defects
    against it.  A grid-sampled f couples every mode, and its 2(N+1) seeds
    are lifted together by the Neumann iteration, each with its own
    iteration, every call; a lift that diverges or stops at _MAX_LIFT_ITER
    steps without reaching tol raises ConvergenceError naming its seed.
    """
    names = [f"{unit}e_{n}" for unit in ("", "i*") for n in range(degree + 1)]
    mode = _alpha_mode(f)
    if mode is None:
        alpha = alpha_from_f(f)
        seeds = [
            AnalyticCoeffs(unit * AnalyticCoeffs.unit(n, degree).coeffs)
            for unit in (1.0, 1.0j)
            for n in range(degree + 1)
        ]
        elements = _lift_batch(seeds, alpha, tol)
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
        lift = _once(f._resolved, "pair_lift", lambda: _mode_pair_lift(f.grid, mode, degree),
                     degree, "the lifted space of %s %g at degree %d" % (f.kind, f.eps, degree))
        basis = _PairBasis(lift, tol, (f.kind, f.eps, degree))
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


def _mode_pair_norm(grid: DiscGrid, mode: tuple, phi: np.ndarray, w: np.ndarray) -> float:
    """Norm of R h = h - S T_J(alpha conj(S^-1 h)) for a closed-form alpha, by mode pairs.

    mode is (b on the rings of grid, s, phase), and phi and w are J's
    overlap fraction and node weight per ring, both constant along theta.
    In the ring modes H_p of h on J's rings, R sends H_p to H_p - phase
    B_p conj(H_p'), with p' = s - 1 - p (mod n_theta) and the real B_p =
    S M_{p+1} diag(phi b) S^-1, M the Teodorescu radial matrices
    (_pair_operator).  Each pair p <= p' is complex-linear in (H_p,
    conj H_p'), with matrix [[I, -phase B_p], [-conj(phase) B_p', I]];
    the unitary diag(I, conj(phase) I) makes it similar to the real
    [[I, -B_p], [-B_p', I]], with the same singular values.  For a
    collided pair p = p', where H_p -> H_p - phase B_p conj(H_p) is only
    real-linear, the complex matrix maps (z, conj z) to (L z, conj L z):
    it is unitarily similar to the realified map.  The norm is the
    largest singular value over the real blocks X, each 2 n_J wide, from
    one batched eigvalsh of X^T X.
    """
    b, s, _ = mode
    rings = np.nonzero(w > 0.0)[0]
    k = rings.size
    sqw = np.sqrt(w[rings])
    scaled = sqw[:, None] * grid.teodorescu.matrices[:, rings[:, None], rings]  # S M
    p = np.arange(grid.angular_count)
    q, b_p = _pair_operator(scaled, (phi * b)[rings] / sqw, s, p)  # b_p[p] = B_p
    pairs = p[p <= q]
    blocks = np.zeros((pairs.size, 2 * k, 2 * k))
    blocks[:, :k, :k] = blocks[:, k:, k:] = np.eye(k)
    blocks[:, :k, k:] = -b_p[pairs]
    blocks[:, k:, :k] = -b_p[q[pairs]]
    return float(np.sqrt(np.linalg.eigvalsh(np.swapaxes(blocks, 1, 2) @ blocks).max()))


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

    For a closed-form f (alpha = phase b(r) e^{i s theta}) on a J whose
    overlap fraction is constant along theta (radial discs, annuli,
    their complements, the full disc), R sends ring mode p to mode
    s - 1 - p, and the norm is the largest singular value over the real
    mode-pair blocks (_mode_pair_norm).  Otherwise A is taken from one batched
    Teodorescu apply to the unit inputs on J's nodes, and the norm is
    the square root of the top eigenvalue of R^T R, found by Lanczos
    (_normal_top_eigenvalue); R is only real-linear.  The norm grid of
    each shape is built once, and a closed-form alpha is evaluated on
    it directly.  A conductivity on a grid of grid_shape is used on its
    own grid; a grid-sampled one cannot be carried to another.  For a
    closed-form f, rho depends on J, the norm grid and f's kind and eps
    alone: J keeps it for that grid under "rho", keyed by (kind, eps), so
    a repeat call reads it; a grid-sampled f keeps nothing.
    """
    own = f.grid.shape == tuple(grid_shape)
    small = f.grid if own else _norm_grid(tuple(grid_shape))
    mode = _alpha_mode(f, small)
    if mode is None:
        if not own:
            raise ValueError("grid-sampled conductivities cannot be rebuilt on another grid")
        return _restriction_norm(f, j_region, small, mode)
    return _once(j_region._resolved.setdefault(small, {}), "rho",
                 lambda: _restriction_norm(f, j_region, small, mode), (f.kind, f.eps),
                 "rho of %s %g on the %dx%d norm grid" % (f.kind, f.eps, *small.shape))


def _restriction_norm(f: Conductivity, j_region: Region, small: DiscGrid, mode) -> float:
    """restriction_map_norm on the norm grid small, with mode = _alpha_mode(f, small)."""
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
    first use.  The f-BEP core and the span projection take the
    full-disc decomposition (_full_form, one eigh per basis), the real
    forms and moments under any weights (_form, _moments) and the
    synthesis from the basis, here the quadrature of the samples, and
    solve_fbep its solution's Vekua defect (_vekua_defect), here
    vekua_residual of the synthesized values; a basis lifted by mode
    pairs (_PairBasis) supplies them from its spectra and its pair
    residuals instead.
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

    def _form(self, w: np.ndarray) -> np.ndarray:
        """The core's Re <w_m, w_n> under the node weights w (grid-shaped)."""
        return _sample_gram(self.values_matrix(), w.ravel(), np.real)

    def _moments(self, w: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The core's Re <h, w_m> under the node weights w (grid-shaped)."""
        return _sample_moments(self.values_matrix(), w.ravel(), h.ravel(), np.real)

    @cached_property
    def _full_form(self) -> FullForm:
        """The eigendecomposition of the full-disc Gram form, taken once per basis;
        every core over the basis whitens by it."""
        return FullForm(*np.linalg.eigh(self._form(self.grid.weights)))

    def _synthesis(self, coeffs: np.ndarray, rings: slice = slice(None)) -> np.ndarray:
        """The core's sum_b c_b w_b at the nodes of the rings, grid-shaped: one product
        over their rows of the samples."""
        n_r, n_t = self.grid.shape
        start, stop, _ = rings.indices(n_r)
        return (self.values_matrix()[start * n_t : stop * n_t] @ coeffs).reshape(-1, n_t)

    def _vekua_defect(self, coeffs: np.ndarray, w: GridFunction, degree: int) -> float:
        """The Vekua defect of w = sum_b c_b w_b, synthesized: vekua_residual on its values."""
        return vekua_residual(w, self.alpha, degree)

    def real_gram(self, region: Region | None = None) -> np.ndarray:
        """Real Gram matrix Re <w_m, w_n> over the disc or a region, from the samples."""
        w = self.grid.weights if region is None else region.weights(self.grid)
        return VekuaBasis._form(self, w)

    def real_rhs(self, h: GridFunction, region: Region | None = None) -> np.ndarray:
        """Vector Re <h, w_m> over the disc or a region, from the samples on every basis."""
        h._check_same_grid(self)
        w = self.grid.weights if region is None else region.weights(self.grid)
        return VekuaBasis._moments(self, w, h.values)

    def synthesize(self, coeffs: np.ndarray) -> GridFunction:
        """sum_b c_b w_b from the samples."""
        return GridFunction(self.grid, VekuaBasis._synthesis(self, np.asarray(coeffs, dtype=float)))

    def project_span(self, h: GridFunction) -> np.ndarray:
        """Real coefficients of the span projection of h, W W^T r on its full-disc
        moments r, with the whitening W of the basis's one full-disc decomposition
        (FullForm.whitening): the directions the f-BEP core keeps, under the same
        rank rule.  h must live on the basis's grid (GridMismatchError)."""
        h._check_same_grid(self)
        w = self._full_form.whitening()
        return w @ (w.T @ self._moments(self.grid.weights, h.values))

    def min_eigenvalue(self) -> float:
        """The smallest eigenvalue of the full-disc Gram form, from its one decomposition."""
        return float(self._full_form.vals[0])


class _PairLift(NamedTuple):
    """A mode-pair lift (_mode_pair_lift), as a closed-form f keeps it: the grid and
    alpha's mode (_alpha_mode), the lifts' modes and parts, their defects, span
    residuals and e_n coefficients, and in full the full-disc FullForm under
    "form", once a basis over the lift takes it (grid._once).  It holds no grid
    samples, of alpha or of the lifts."""

    grid: DiscGrid
    mode: tuple
    modes: np.ndarray
    parts: np.ndarray
    defects: np.ndarray
    residuals: np.ndarray
    analytic: np.ndarray
    full: dict


class _PairBasis(VekuaBasis):
    """The VekuaBasis over a mode-pair lift (a _PairLift), sampled on first use.

    Each lift of e_n is kept once, as its two parts X, Y (real for a real phase): parts
    (N+1, 2, n_r) in modes (N+1, 2) = (n, s - 1 - n), shared by a collided
    pair.  The lift of e_n is X + Y and that of i e_n is i X - i Y (_UNITS):
    the core's forms and synthesis are the pair identities of the module
    docstring, and the elements are one inverse fft of the parts, on first use.
    A solution's Vekua defect is the sum over the degrees of its pair
    residuals (_vekua_defect), with no Teodorescu apply.  Each element has
    iterations = 1, increments = [defect] and converged iff defect <= tol.
    key, a value naming the lifts (build_fbep_space: f's kind, eps and the
    degree), keys the J record a core keeps on its region; None keeps none.
    alpha is sampled from the lift's mode on first use and dies with the basis.
    """

    def __init__(self, lift: _PairLift, tol: float, key: tuple | None = None):
        _check_tol(tol)
        self._lift, self._tol, self._key = lift, tol, key
        self._modes, self._parts = lift.modes, lift.parts
        self._defects, self._residuals, self._analytic = lift.defects, lift.residuals, lift.analytic

    @property
    def grid(self) -> DiscGrid:
        return self._lift.grid

    @cached_property
    def alpha(self) -> GridFunction:
        return GridFunction(self.grid, _mode_samples(self.grid, self._lift.mode))

    def _record_id(self, name: str, n: int) -> tuple | None:
        """Where a J region keeps the J record of the lifts, keyed by (key, n), under a
        name of their own, so that a BEP's record on the same region stays; None
        without a key."""
        if self._key is None:
            return None
        return ("lift_" + name, (self._key, n),
                "the J record of the {} {:g} lifts at degree {}".format(*self._key))

    @property
    def size(self) -> int:
        return self._modes.size

    @property
    def _full_form(self) -> FullForm:
        """The full-disc decomposition, taken on first use and kept with the lift, so
        every basis over one lift reads the same one."""
        return _once(self._lift.full, "form",
                     lambda: FullForm(*np.linalg.eigh(self._form(self.grid.weights))))

    def _form(self, w: np.ndarray) -> np.ndarray:
        """The real Gram form Re(U^H S U) over the units U = _UNITS of the part form S,
        S_ab = sum w conj(P_a) P_b by Parseval on each ring (module docstring).

        Weights constant along theta couple only parts with equal modes
        (mod n_theta) and take no weight table; other weights take the
        (n_r, 2(N+1), 2(N+1)) table of their ring spectra.
        """
        modes, n_t = self._modes, self.grid.angular_count
        p = modes.ravel() % n_t
        x = self._parts.reshape(p.size, -1)
        if np.all(w == w[:, :1]):
            s = (x.conj() * (n_t * w[:, 0])) @ x.T
            s = np.where(p[:, None] == p[None, :], s, 0.0)
        else:
            table = np.fft.fft(w, axis=-1)[:, (p[:, None] - p[None, :]) % n_t]
            s = np.einsum("ai,iab,bi->ab", x.conj(), table, x)
        g = np.einsum("uk,akbl,vl->uavb", _UNITS.conj(), s.reshape(modes.shape * 2), _UNITS)
        g = g.real.reshape(self.size, self.size)
        return (g + g.T) / 2.0

    def _moments(self, w: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The real moments by Parseval on each ring: the part moments, then the units."""
        moments = np.fft.fft(w * h, axis=-1)[:, self._modes]  # (n_r, N+1, 2)
        by_part = np.einsum("aki,iak->ka", self._parts.conj(), moments)
        return (_UNITS.conj() @ by_part).real.ravel()

    def _synthesis(self, coeffs: np.ndarray, rings: slice = slice(None)) -> np.ndarray:
        """One spectrum of the rings gathers each part times its coefficient c U at its
        mode, then one ifft."""
        parts = self._parts[..., rings]
        spectrum = np.zeros((parts.shape[-1], self.grid.angular_count), dtype=complex)
        terms = (np.asarray(coeffs).reshape(2, -1).T @ _UNITS)[..., None] * parts
        np.add.at(spectrum.T, self._modes.ravel(), terms.reshape(self._modes.size, -1))
        return np.fft.ifft(spectrum, axis=-1, norm="forward")

    def _vekua_defect(self, coeffs: np.ndarray, w: GridFunction, degree: int) -> float:
        """The Vekua defect of sum_b c_b w_b from the pair residuals, without the grid.

        With z_n = c_n + i c_{N+1+n}, the coefficient of X under _UNITS, w -
        T[alpha conj(w)] = sum_n z_n u_n, u_n the real mode-n residual of
        _mode_pair_lift: its part in the partner mode is exactly 0, a collided
        pair's too.  The modes are distinct, so the distance from the degree-D
        span is sqrt(sum_n |z_n|^2 r_n^2), r_n the span residual of lift n; a
        mode n > D is not projected and keeps its e_n coefficient a_n as well.
        """
        z = np.asarray(coeffs).reshape(2, -1)
        r2 = self._residuals[: z.shape[1]] ** 2
        r2[degree + 1 :] += self._analytic[degree + 1 :] ** 2
        return float(np.sqrt((z[0] ** 2 + z[1] ** 2) @ r2))

    @cached_property
    def elements(self) -> list[VekuaFunction]:
        lifts = np.arange(self._modes.shape[0])
        spectra = np.zeros((2, lifts.size) + self.grid.shape, dtype=complex)
        for k in (0, 1):  # a collided pair's second part adds into the first's mode
            spectra[:, lifts, :, self._modes[:, k]] += _UNITS[:, k, None] * self._parts[:, k, None]
        w = np.fft.ifft(spectra.reshape((self.size,) + self.grid.shape), axis=-1, norm="forward")
        return [
            VekuaFunction(
                w=GridFunction(self.grid, w[b]),
                alpha=self.alpha,
                residual=float(self._residuals[b]),
                converged=bool(self._defects[b] <= self._tol),
                iterations=1,
                increments=[float(self._defects[b])],
            )
            for b in range(self.size)
        ]


def invariance_defect(basis: VekuaBasis, g_coeffs: np.ndarray, h: GridFunction) -> float:
    """Defect of Re<g, h> = Re<g, Pi h> for g in the span, Pi the span projection;
    g and Pi h are synthesized as the f-BEP core does (_synthesis)."""
    grid = basis.grid
    g = GridFunction(grid, basis._synthesis(np.asarray(g_coeffs, dtype=float)))
    pi_h = GridFunction(grid, basis._synthesis(basis.project_span(h)))
    return abs(inner_product(g, h).real - inner_product(g, pi_h).real)
