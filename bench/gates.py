"""Correctness gates applied to every timed operation.

Each gate takes what an operation returned and gives back the list of
checks it failed; an empty list means the operation passed.  The gates
recompute the certificates from the returned coefficients instead of
trusting the fields the solver filled in, so a wrong coefficient vector
fails even when the solver's own diagnostics look fine.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

SAT_TOL = 1e-6  # |err_J - M| <= SAT_TOL * max(1, M)
KKT_TOL = 1e-10  # KKT residual relative to the scale of the data moments
ORACLE_TOL = 1e-8  # max |c - c_oracle|
DEFECT_TOL = 1e-8  # Vekua defect and conjecture residual, relative to ||w_*||
DIRECTIONAL_TOL = 1e-8  # directional_kkt_min >= -DIRECTIONAL_TOL * max(1, ||grad||)


def _close_to_m(err_j: float, m: float, saturated: bool) -> list[str]:
    if not math.isfinite(err_j):
        return ["err_j_not_finite"]
    if saturated:
        if abs(err_j - m) > SAT_TOL * max(1.0, m):
            return [f"saturation |err_J-M|={abs(err_j - m):.2e}"]
        return []
    if err_j > m * (1.0 + 1e-12):
        return [f"inactive err_J={err_j:.6g} > M={m:.6g}"]
    return []


class BepCertificates:
    """Independent BEP certificates for one problem, from grid sums.

    basis is the sampled e_0..e_N matrix of the problem's grid (shared
    between instances on one grid); everything else comes from the
    problem's regions and data.
    """

    def __init__(self, problem, basis: np.ndarray):
        grid = problem.grid
        self.m = problem.m
        self.e = basis
        self.w_k = problem.k_region.weights(grid).ravel()
        self.w_j = problem.j_region.weights(grid).ravel()
        self.hk = problem.h_k.values.ravel()
        self.hj = problem.h_j.values.ravel()
        self.b_k = self.e.conj().T @ (self.w_k * self.hk)
        self.b_j = self.e.conj().T @ (self.w_j * self.hj)

    def err_j(self, c: np.ndarray) -> float:
        r = self.e @ c - self.hj
        return float(np.sqrt(np.sum(self.w_j * np.abs(r) ** 2)))

    def kkt(self, c: np.ndarray, mu: float) -> tuple[float, float]:
        ec = self.e @ c
        grad = self.e.conj().T @ (self.w_k * (ec - self.hk) + mu * self.w_j * (ec - self.hj))
        scale = max(1.0, float(np.linalg.norm(self.b_k) + mu * np.linalg.norm(self.b_j)))
        return float(np.linalg.norm(grad)), scale


def bep_gate(cert: BepCertificates, solution, expect_saturated: bool, oracle_coeffs) -> list[str]:
    """Gate a BEP solution: saturation or feasibility, KKT, oracle agreement."""
    c = solution.g0.coeffs
    if not np.all(np.isfinite(c)):
        return ["coefficients_not_finite"]
    fails = []
    if bool(solution.saturated) != expect_saturated:
        fails.append(f"saturated={solution.saturated}, expected {expect_saturated}")
    fails += _close_to_m(cert.err_j(c), cert.m, expect_saturated)
    if expect_saturated:
        kkt, scale = cert.kkt(c, 1.0 + solution.lam)
        if kkt > KKT_TOL * scale:
            fails.append(f"kkt={kkt:.2e} > {KKT_TOL:g}*{scale:.3g}")
        delta = float(np.max(np.abs(c - oracle_coeffs)))
        if not delta <= ORACLE_TOL:
            fails.append(f"oracle_delta={delta:.2e}")
    return fails


def fbep_gate(problem, solution, conjecture_residual: float, directional_min) -> list[str]:
    """Gate an f-BEP solve: converged lifts, defect, KKT, saturation, optimality."""
    basis = solution.basis
    fails = []
    bad = sum(1 for el in basis.elements if not el.converged)
    if bad:
        fails.append(f"lift_not_converged {bad}/{basis.size}")
    c = np.asarray(solution.coeffs, dtype=float)
    if not np.all(np.isfinite(c)):
        return fails + ["coefficients_not_finite"]
    w_star = basis.synthesize(c)
    w_norm = max(1.0, w_star.norm())
    if not solution.vekua_defect <= DEFECT_TOL * w_norm:
        fails.append(f"vekua_defect={solution.vekua_defect:.2e}")
    if not conjecture_residual <= DEFECT_TOL:
        fails.append(f"conjecture_residual={conjecture_residual:.2e}")
    mu = solution.lam + 1.0
    a_k, a_j = basis.real_gram(problem.k_region), basis.real_gram(problem.j_region)
    r_k = basis.real_rhs(problem.h_k, problem.k_region)
    r_j = basis.real_rhs(problem.h_j, problem.j_region)
    grad_k = a_k @ c - r_k
    kkt = float(np.linalg.norm(grad_k + mu * (a_j @ c - r_j)))
    scale = max(1.0, float(np.linalg.norm(r_k) + mu * np.linalg.norm(r_j)))
    if not kkt <= KKT_TOL * scale:
        fails.append(f"kkt={kkt:.2e} > {KKT_TOL:g}*{scale:.3g}")
    err_j = (w_star - problem.h_j).norm(problem.j_region)
    fails += _close_to_m(err_j, problem.m, bool(solution.saturated))
    if solution.saturated:
        floor = -DIRECTIONAL_TOL * max(1.0, 2.0 * float(np.linalg.norm(grad_k)))
        if directional_min is None or not directional_min >= floor:
            fails.append(f"directional_kkt_min={directional_min}")
    return fails


def transform_gate(m: float, m_star: float, alpha_max: float) -> list[str]:
    """Gate transformed constraint data: rho = M*/M within the Schur bound."""
    rho = m_star / m
    bound = 1.0 + 4.0 * alpha_max
    if not math.isfinite(rho):
        return ["rho_not_finite"]
    if rho > bound:
        return [f"rho={rho:.4g} > schur_bound={bound:.4g}"]
    return []


def cli_gate(expect: dict, returncode: int, output: bytes | None, stderr: bytes, reference) -> list[str]:
    """Gate one cold CLI command.

    expect holds "exit" (the expected code), "format" ("bep", "fbep",
    "sweep" or None when no output file is written) and the problem
    facts the output must agree with ("m", "m_values").  reference is
    the bytes the same command produced earlier in the run, or None.
    """
    if returncode != expect["exit"]:
        return [f"exit={returncode}, expected {expect['exit']}"]
    produced = output if expect["format"] is not None else stderr
    if reference is not None and produced != reference:
        return ["output_bytes_differ_between_repetitions"]
    if expect["format"] is None:
        return [] if output is None else ["unexpected_output_file"]
    if output is None:
        return ["missing_output_file"]
    try:
        text = output.decode("utf-8")
        if expect["format"] == "sweep":
            return _sweep_gate(expect, list(csv.DictReader(io.StringIO(text))))
        doc = json.loads(text)
    except (UnicodeDecodeError, ValueError, KeyError) as exc:
        return [f"unparsable_output: {exc}"]
    return _solution_doc_gate(expect, doc)


def _solution_doc_gate(expect: dict, doc: dict) -> list[str]:
    fails = []
    if doc.get("kind") != expect["format"]:
        fails.append(f"kind={doc.get('kind')!r}")
    fails += _close_to_m(float(doc["err_j"]), expect["m"], bool(doc["saturated"]))
    if not doc["kkt_residual"] <= KKT_TOL * max(1.0, doc.get("mu", doc["lambda"] + 1.0)):
        fails.append(f"kkt_residual={doc['kkt_residual']:.2e}")
    if "oracle_delta" in doc and not doc["oracle_delta"] <= ORACLE_TOL:
        fails.append(f"oracle_delta={doc['oracle_delta']:.2e}")
    if expect["format"] == "fbep":
        if not doc["vekua_defect"] <= DEFECT_TOL:
            fails.append(f"vekua_defect={doc['vekua_defect']:.2e}")
        if not doc["conjecture_residual"] <= DEFECT_TOL:
            fails.append(f"conjecture_residual={doc['conjecture_residual']:.2e}")
        if doc["saturated"] and not doc.get("directional_kkt_min", -1.0) >= -DIRECTIONAL_TOL:
            fails.append(f"directional_kkt_min={doc.get('directional_kkt_min')}")
    return fails


def _sweep_gate(expect: dict, rows: list[dict]) -> list[str]:
    ms = [float(r["m"]) for r in rows]
    lams = [float(r["lambda"]) for r in rows]
    if ms != expect["m_values"]:
        return [f"sweep_levels={ms}"]
    if not all(math.isfinite(x) for x in lams + [float(r["err_k"]) for r in rows]):
        return ["sweep_not_finite"]
    # a looser budget never needs a larger multiplier
    order = np.argsort(ms)
    if np.any(np.diff(np.asarray(lams)[order]) > 1e-9 * max(1.0, max(map(abs, lams)))):
        return ["sweep_lambda_not_monotone"]
    return []
