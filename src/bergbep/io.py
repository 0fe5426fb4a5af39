"""JSON schemas for problems, solutions, and function specs.

Complex numbers are interchanged as two-element [re, im] arrays; grids
of values are flattened row-major over (ring, angle).  Serialization is
canonical (sorted keys, two-space indent), so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .bep import BepProblem, BepSolution
from .bergman import AnalyticCoeffs
from .fbep import FbepProblem, FbepSolution
from .grid import DiscGrid, GridFunction, Region, build_grid
from .vekua import _LIFT_TOL, Conductivity

TOOL_VERSION = "0.1.0"
LAMBDA_CONVENTION = (
    "operator lambda in (-1, inf); Karush-Kuhn-Tucker multiplier mu = 1 + lambda"
)

# builtin name -> (the key of its parameter, or None, and its values on a grid given that
# parameter); const's value is optional, 1 by default, every other parameter is required
BUILTINS = {
    "const": ("value", lambda grid, value: np.full(grid.shape, complex(*value))),
    "z_bar": (None, lambda grid, _: np.conj(grid.nodes)),
    "abs2": (None, lambda grid, _: np.abs(grid.nodes) ** 2),
    "exp_x": ("eps", lambda grid, eps: np.exp(eps * grid.nodes.real)),
    "exp_xy": ("eps", lambda grid, eps: np.exp(eps * grid.nodes.real * grid.nodes.imag)),
    "basis": ("n", lambda grid, n: AnalyticCoeffs.unit(n, n).on_grid(grid).values),
}
# region variant -> (the key of its number, or None, and its Region constructor)
REGION_VARIANTS = {"radial_disc": ("a", Region.radial_disc), "annulus": ("a", Region.annulus),
                   "sector": ("theta", Region.sector), "mask": (None, Region.mask),
                   "full": (None, Region.full_disc)}
# conductivity kind -> (the key of its number and its Conductivity constructor)
_CONDUCTIVITIES = {"const": ("value", Conductivity.constant), "exp_x": ("eps", Conductivity.exp_x),
                   "exp_xy": ("eps", Conductivity.exp_xy)}
MAX_GRID_RINGS, MAX_GRID_NODES = 2**11, 2**22  # 16x the rings, 128x the nodes of 128 x 256
# the largest degree N any admitted grid supports, 2 N <= min(4 n_r - 2, n_theta - 1): 2047
_RINGS = np.arange(2, MAX_GRID_RINGS + 1)  # every admitted n_r, with its widest n_theta
MAX_DEGREE = int(np.minimum(4 * _RINGS - 2, MAX_GRID_NODES // _RINGS - 1).max()) // 2


class SchemaError(ValueError):
    """A problem or solution document violates the interchange schema."""


def _typed(value, kinds) -> bool:
    """isinstance for JSON values: a boolean is no number, though Python counts it an int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _finite(value, what: str, pairs: bool = False):
    """A number of a problem file as a finite float, or with pairs a non-empty
    list of [re, im] pairs as one (n, 2) float array.  Booleans, strings and
    integers beyond the float range raise SchemaError, as NaN, infinities and
    an empty list do."""
    cells = np.array(value, dtype=object)
    ok = cells.shape[1:] == (2,) if pairs else cells.ndim == 0
    kinds = set(map(type, cells.flat))
    ok = ok and all(issubclass(t, (int, float)) and t is not bool for t in kinds)
    try:
        numbers = cells.astype(float) if ok else None
    except OverflowError:
        numbers = None
    if numbers is None or not np.isfinite(numbers).all():
        expected = "a non-empty list of finite [re, im] pairs" if pairs else "a finite number"
        raise SchemaError(f"{what} must be {expected}, got {value!r:.60}")
    return numbers if pairs else float(numbers)


def _complex_array(pairs: list) -> np.ndarray:
    """The validated [re, im] pairs of a normalized spec as one complex array."""
    return np.array(pairs, dtype=float).reshape(-1, 2).view(complex)[:, 0]


def encode_complex_array(values: np.ndarray) -> list[list[float]]:
    return np.asarray(values, dtype=complex).ravel().view(float).reshape(-1, 2).tolist()


def _require(d: dict, key: str, kinds, what: str):
    if key not in d:
        raise SchemaError(f"{what} is missing required key {key!r}")
    value = d[key]
    if kinds is not None and not _typed(value, kinds):
        raise SchemaError(f"{what} key {key!r} has invalid type {type(value).__name__}")
    return value


def normalize_function_spec(spec) -> dict:
    """Validate and canonicalize a FunctionSpec document."""
    if not isinstance(spec, dict):
        raise SchemaError("function spec must be an object")
    kind = _require(spec, "kind", str, "function spec")
    if kind == "coeffs":
        coeffs = _require(spec, "coeffs", list, "coeffs spec")
        return {"kind": "coeffs", "coeffs": _finite(coeffs, "coeffs spec", pairs=True).tolist()}
    if kind == "builtin":
        name = _require(spec, "name", str, "builtin spec")
        if name not in BUILTINS:
            raise SchemaError(f"unknown builtin {name!r}; expected one of {tuple(BUILTINS)}")
        out = {"kind": "builtin", "name": name}
        key, _ = BUILTINS[name]
        if key == "value":
            value = _finite([spec.get(key, [1.0, 0.0])], f"builtin {name} value", pairs=True)
            out[key] = value[0].tolist()
        elif key == "eps":
            out[key] = _finite(_require(spec, key, None, f"builtin {name}"), f"builtin {name} eps")
        elif key == "n":
            out[key] = normalize_degree(_require(spec, key, int, f"builtin {name}"), "basis index")
        return out
    if kind == "grid":
        values = _require(spec, "values", list, "grid spec")
        return {"kind": "grid", "values": _finite(values, "grid spec", pairs=True).tolist()}
    raise SchemaError(f"unknown function spec kind {kind!r}")


def function_from_spec(spec: dict, grid: DiscGrid) -> GridFunction:
    return _function(normalize_function_spec(spec), grid)


def _function(spec: dict, grid: DiscGrid) -> GridFunction:
    """The grid function of a normalized function spec."""
    if spec["kind"] == "coeffs":
        return AnalyticCoeffs(_complex_array(spec["coeffs"])).on_grid(grid)
    if spec["kind"] == "grid":
        values = _complex_array(spec["values"])
        if values.size != grid.shape[0] * grid.shape[1]:
            raise SchemaError(
                f"grid spec has {values.size} values, expected {grid.shape[0] * grid.shape[1]}"
            )
        return GridFunction(grid, values.reshape(grid.shape))
    key, values = BUILTINS[spec["name"]]
    with np.errstate(over="ignore"):  # an overflow is refused below, as one error
        samples = values(grid, spec.get(key))
    if not np.all(np.isfinite(samples)):
        raise SchemaError(f"builtin {spec['name']} {key} {spec.get(key)!r} overflows on the grid")
    return GridFunction(grid, samples)


def normalize_region_spec(spec) -> dict:
    """Validate and canonicalize a region spec against REGION_VARIANTS."""
    if not isinstance(spec, dict):
        raise SchemaError("region spec must be an object")
    variant = _require(spec, "variant", str, "region spec")
    if variant not in REGION_VARIANTS:
        raise SchemaError(f"unknown region variant {variant!r}")
    complement = spec.get("complement", False)
    if not isinstance(complement, bool):
        raise SchemaError(f"region complement must be true or false, got {complement!r}")
    out = {"variant": variant, "complement": complement}
    key, _ = REGION_VARIANTS[variant]
    if key is not None:
        value = _require(spec, key, None, f"{variant} region")
        out[key] = _finite(value, f"{variant} region {key}")
    elif variant == "mask":
        values = _require(spec, "values", list, "mask region")
        bad = [v for v in values if not isinstance(v, bool)]
        if bad:
            raise SchemaError(f"mask entries must be true or false, got {bad[0]!r}")
        out["values"] = list(values)
    return out


def region_from_spec(spec: dict, grid: DiscGrid | None = None) -> Region:
    """The Region of a region spec; a mask's values are read on grid."""
    return _region(normalize_region_spec(spec), grid)


def _region(spec: dict, grid: DiscGrid | None) -> Region:
    """The Region of a normalized region spec, built by its REGION_VARIANTS constructor."""
    key, make = REGION_VARIANTS[spec["variant"]]
    try:
        if spec["variant"] == "mask":
            if grid is None:
                raise SchemaError("mask regions require grid dimensions")
            values = np.asarray(spec["values"], dtype=bool)
            if values.size != grid.shape[0] * grid.shape[1]:
                raise SchemaError(
                    f"mask has {values.size} entries, expected {grid.shape[0] * grid.shape[1]}"
                )
            region = make(values.reshape(grid.shape))
        else:
            region = make() if key is None else make(spec[key])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return region.complement() if spec["complement"] else region


def normalize_conductivity_spec(spec) -> dict:
    """Validate and canonicalize a conductivity spec against _CONDUCTIVITIES."""
    if not isinstance(spec, dict):
        raise SchemaError("conductivity spec must be an object")
    kind = _require(spec, "kind", str, "conductivity spec")
    if kind not in _CONDUCTIVITIES:
        raise SchemaError(f"unknown conductivity kind {kind!r}")
    if kind != "const":
        eps = _require(spec, "eps", None, f"conductivity {kind}")
        return {"kind": kind, "eps": _finite(eps, f"conductivity {kind} eps")}
    return {"kind": "const", "value": _finite(spec.get("value", 1.0), "conductivity const value")}


def normalize_budget(m) -> float:
    """The constraint level m of a problem file, or of a sweep level: positive and finite."""
    m = _finite(m, "constraint level m")
    if m <= 0.0:
        raise SchemaError(f"constraint level m must be positive, got {m}")
    return m


def normalize_degree(n: int, what: str = "degree") -> int:
    """A degree, or a basis index, checked before anything is allocated: 0 <= n <= MAX_DEGREE."""
    if n < 0:
        raise SchemaError(f"{what} must be >= 0")
    if n > MAX_DEGREE:
        raise SchemaError(
            f"{what} must be <= {MAX_DEGREE}, the largest degree any admitted grid supports, "
            f"got {n!r:.20}"
        )
    return n


def normalize_grid(doc: dict) -> dict:
    """The grid {n_r, n_theta} of a problem file or of --grid, checked before anything is
    allocated: 2 <= n_r <= MAX_GRID_RINGS, n_theta >= 4 and n_r n_theta <= MAX_GRID_NODES."""
    n_r, n_theta = (_require(doc, key, int, "grid spec") for key in ("n_r", "n_theta"))
    if not (2 <= n_r <= MAX_GRID_RINGS and n_theta >= 4 and n_r * n_theta <= MAX_GRID_NODES):
        raise SchemaError(
            f"grid must satisfy n_r >= 2, n_theta >= 4, n_r <= {MAX_GRID_RINGS} and "
            f"n_r n_theta <= {MAX_GRID_NODES}, got {n_r!r:.20}, {n_theta!r:.20}"
        )
    return {"n_r": n_r, "n_theta": n_theta}


def normalize_problem(doc) -> dict:
    """Validate a ProblemFile document and return its canonical form."""
    if not isinstance(doc, dict):
        raise SchemaError("problem document must be an object")
    grid = normalize_grid(_require(doc, "grid", dict, "problem"))
    m = normalize_budget(_require(doc, "m", None, "problem"))
    degree = normalize_degree(_require(doc, "degree", int, "problem"))
    out = {
        "grid": grid,
        "region_k": normalize_region_spec(_require(doc, "region_k", dict, "problem")),
        "h_k": normalize_function_spec(_require(doc, "h_k", dict, "problem")),
        "h_j": normalize_function_spec(_require(doc, "h_j", dict, "problem")),
        "m": m,
        "degree": degree,
    }
    if "conductivity" in doc:
        out["conductivity"] = normalize_conductivity_spec(doc["conductivity"])
        lift_tol = _finite(doc.get("lift_tol", _LIFT_TOL), "lift_tol")
        if lift_tol <= 0.0:
            raise SchemaError(f"lift_tol must be positive, got {lift_tol!r}")
        out["lift_tol"] = lift_tol
    return out


def problem_from_dict(doc: dict) -> BepProblem | FbepProblem:
    """Materialize a BEP or f-BEP (when a conductivity is given) problem, validated once."""
    return _problem(normalize_problem(doc))


def _problem(doc: dict) -> BepProblem | FbepProblem:
    """The problem of a normalized problem document, its parts built from their specs."""
    grid = build_grid(doc["grid"]["n_r"], doc["grid"]["n_theta"])
    k_region = _region(doc["region_k"], grid)
    shared = dict(k_region=k_region, j_region=k_region.complement(),
                  h_k=_function(doc["h_k"], grid), h_j=_function(doc["h_j"], grid),
                  m=doc["m"], degree=doc["degree"])
    try:
        if "conductivity" in doc:
            key, make = _CONDUCTIVITIES[doc["conductivity"]["kind"]]
            f = make(grid, doc["conductivity"][key])
            return FbepProblem(f=f, lift_tol=doc["lift_tol"], **shared)
        return BepProblem(**shared)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _solution_doc(kind: str, sol: BepSolution | FbepSolution, degree: int, **fields) -> dict:
    """A solution document: the keys every solve writes, then the fields of its kind."""
    return {
        "kind": kind,
        "tool_version": TOOL_VERSION,
        "degree": degree,
        "lambda_convention": LAMBDA_CONVENTION,
        "lambda": sol.lam,
        "err_k": sol.err_k,
        "err_j": sol.err_j,
        "kkt_residual": sol.kkt_residual,
        "iterations": sol.iterations,
        "feasibility_distance": sol.feasibility,
        "saturated": sol.saturated,
        **fields,
    }


def bep_solution_to_dict(sol: BepSolution, degree: int) -> dict:
    return _solution_doc("bep", sol, degree, coefficients=encode_complex_array(sol.g0.coeffs),
                         degree_gap=sol.degree_gap)


def fbep_solution_to_dict(sol: FbepSolution, degree: int, conjecture_residual: float) -> dict:
    return _solution_doc(
        "fbep", sol, degree,
        mu=sol.mu,
        basis=f"lifted e_0..e_{degree} and i e_0..i e_{degree}",
        coefficients_real=[float(c) for c in sol.coeffs],
        vekua_defect=sol.vekua_defect,
        basis_min_eigenvalue=sol.basis_min_eig,
        dropped_basis_directions=sol.dropped,
        conjecture_residual=conjecture_residual,
    )


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot load {path}: {exc}") from exc


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dumps_canonical(doc))
