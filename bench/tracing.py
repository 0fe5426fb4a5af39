"""In-memory spans around the benchmark's calls into each bergbep module.

A span has a name ("<module>.<function>"), a start, an end, a parent
span and the id of the operation it belongs to.  Spans are recorded
only around calls the benchmark itself makes; nothing inside the
package is instrumented.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

LAYERS = ("grid", "bergman", "bep", "vekua", "fbep", "io", "cli")

# Values from the ROADMAP baseline probe (2 cores, numpy 2.4.6, scipy
# 1.17.1), keyed by (layer metric, size label), in seconds.
ROADMAP_PROBE = {
    ("bep.solve_at_lambda_s", "24x96/16"): 0.0039,  # row "Gram + moments"
    ("bep.solve_at_lambda_s", "64x128/30"): 0.027,
    ("bep.solve_at_lambda_s", "128x256/60"): 0.203,
    ("bep.multiplier_s", "24x96/16"): 0.0085,  # row "BEP bisection solve"
    ("bep.multiplier_s", "64x128/30"): 0.048,
    ("bep.multiplier_s", "128x256/60"): 0.412,
    ("bep.solve_bep_s", "24x96/16"): 0.0155,
    ("bep.solve_bep_s", "64x128/30"): 0.073,
    ("bep.solve_bep_s", "128x256/60"): 0.717,
    ("bep.oracle_s", "24x96/16"): 0.0051,
    ("bep.oracle_s", "64x128/30"): 0.027,
    ("bep.oracle_s", "128x256/60"): 0.273,
    ("vekua.teodorescu_s", "24x96"): 0.0026,
    ("vekua.teodorescu_s", "64x128"): 0.012,
    ("vekua.teodorescu_s", "128x256"): 0.038,
    ("fbep.build_fbep_space_s", "24x96/12 exp_x 0.1"): 0.612,
    ("fbep.transform_s", "24x96/12"): 0.418,
    ("cli.import_s", "cold"): 1.1,
    ("cli.import_scipy_s", "cold"): 0.8,
    ("cli.solve-bep_s", "24x96/16"): 1.25,
    ("cli.solve-fbep_s", "32x64/8"): 1.9,
}


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: list[dict] = []
        self.values: list[dict] = []  # samples measured outside a span, e.g. parsed from a log
        self._stack: list[int] = []
        self.op_id = 0
        self.cycle = 0  # 0 outside the operation stream; its cycles count from 1

    @contextmanager
    def span(self, name: str, size: str | None = None):
        rec = {
            "id": len(self.spans),
            "op": self.op_id,
            "cycle": self.cycle,
            "name": name,
            "size": size,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, size: str | None, fn, *args, **kwargs):
        with self.span(name, size):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float, size: str | None = None) -> None:
        self.counters.append(
            {"op": self.op_id, "cycle": self.cycle, "name": name, "size": size, "value": value}
        )

    def sample(self, metric: str, size: str | None, value: float) -> None:
        self.values.append(
            {"metric": metric, "size": size, "value": value, "op": self.op_id, "cycle": self.cycle}
        )

    def new_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def self_times(self) -> list[dict]:
        """Spans with their self time: duration minus time covered by children.

        Spans of one thread nest without overlapping, so the children's
        cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [
            dict(s, self_s=(s["end"] - s["start"]) - child_time[s["id"]]) for s in self.spans
        ]

    def layers_to_probe(self) -> set[str]:
        """Layers with a per-layer call no span of this run has timed yet."""
        seen = {s["name"] for s in self.spans}
        return {
            layer for layer, calls in LAYER_CALLS.items()
            if any(f"{layer}.{fn}" not in seen for fn in calls if fn not in DERIVED_OR_ALWAYS)
        }

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(extra, spans=self.self_times(), counters=self.counters), handle)


def _layer_seconds(name: str) -> list[tuple[str, str]]:
    return [(f"{name}.{fn}_s", "s") for fn in LAYER_CALLS[name]]


# Span names, without the "_s" suffix, that become per-layer metrics.
LAYER_CALLS = {
    "grid": ("build_grid", "region_weights"),
    "bergman": ("basis_matrix", "gram_quadrature", "project"),
    "bep": ("feasibility_distance", "solve_at_lambda", "solve_bep_nodiag", "solve_bep",
            "multiplier", "degree_diagnostic", "oracle"),
    "vekua": ("teodorescu_first", "teodorescu", "dbar", "vekua_lift", "vekua_residual"),
    "fbep": ("build_fbep_space", "solve_fbep", "conjecture_check", "directional_kkt",
             "restriction_map_norm", "transform"),
    "io": ("load_json", "problem_from_dict", "solution_to_dict", "write_json"),
    "cli": ("import", "import_scipy", "main"),
}
# per-layer times that are not spans of their own (derived from others) or
# that every traced run measures anyway
DERIVED_OR_ALWAYS = ("multiplier", "degree_diagnostic", "import", "import_scipy")
COUNTS = (
    ("bep.iterations", "count"),
    ("vekua.lift_iterations_total", "count"),
    ("vekua.lift_iterations_max", "count"),
    ("vekua.lift_nonconverged", "count"),
    ("vekua.lift_converged_ratio", "ratio"),
    ("fbep.dropped", "count"),
    ("fbep.known_defect_ops", "count"),
)
PER_LAYER = (
    [m for layer in LAYERS for m in _layer_seconds(layer)]
    + list(COUNTS)
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_frac", "ratio")]
)


def samples(tracer: Tracer) -> list[dict]:
    """Per-call samples (metric, size, value, op) from spans, plus derived BEP stages.

    bep.multiplier_s is solve_bep without the degree diagnostic minus one
    solve_at_lambda (one assembly and one solve); bep.degree_diagnostic_s
    is solve_bep minus solve_bep without it.  Both are taken per operation.
    """
    out = [
        {"metric": s["name"] + "_s", "size": s["size"], "value": s["self_s"], "op": s["op"]}
        for s in tracer.self_times()
    ] + list(tracer.values)
    by_op: dict = {}
    for s in out:
        by_op.setdefault(s["op"], {})[s["metric"]] = s
    for metrics in by_op.values():
        nodiag = metrics.get("bep.solve_bep_nodiag_s")
        if nodiag is None:
            continue
        at_lambda = metrics.get("bep.solve_at_lambda_s")
        full = metrics.get("bep.solve_bep_s")
        if at_lambda is not None:
            out.append(dict(nodiag, metric="bep.multiplier_s",
                            value=nodiag["value"] - at_lambda["value"]))
        if full is not None:
            out.append(dict(nodiag, metric="bep.degree_diagnostic_s",
                            value=full["value"] - nodiag["value"]))
    return out


def per_layer_metrics(tracer: Tracer, cycles: int, overhead: float) -> dict:
    """Every per-layer metric: medians per call, counts, layer self time per cycle."""
    spans = tracer.self_times()
    values: dict = {}
    for r in samples(tracer):
        values.setdefault(r["metric"], []).append(r["value"])
    counts: dict = {}
    for c in tracer.counters:
        if c["cycle"] <= 1:  # distinct instances: probes, known defects, the first cycle
            counts.setdefault(c["name"], []).append(c["value"])
    out = {}
    for name, unit in PER_LAYER:
        if unit == "s" and name.endswith(".self_s"):
            layer = name.split(".", 1)[0]
            in_cycles = sum(s["self_s"] for s in spans
                            if s["name"].startswith(layer + ".") and s["cycle"] > 0)
            probed = sum(s["self_s"] for s in spans
                         if s["name"].startswith(layer + ".") and s["cycle"] == 0)
            value = in_cycles / max(cycles, 1) + probed
        elif unit == "s":
            value = statistics.median(values[name]) if name in values else None
        else:
            value = _count(name, counts)
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return out


def _count(name: str, counts: dict):
    get = lambda key: counts.get(key, [])  # noqa: E731
    if name == "bep.iterations":
        return statistics.median(get(name)) if get(name) else None
    if name == "vekua.lift_iterations_max":
        return max(get(name), default=None)
    if name == "vekua.lift_converged_ratio":
        lifts = sum(get("vekua.lifts"))
        return (lifts - sum(get("vekua.lift_nonconverged"))) / lifts if lifts else None
    return sum(get(name))


def reconciliation(tracer: Tracer) -> list[dict]:
    """Traced medians at ROADMAP sizes beside the ROADMAP probe values."""
    measured: dict = {}
    for r in samples(tracer):
        measured.setdefault((r["metric"], r["size"]), []).append(r["value"])
    rows = []
    for (name, size), ref in ROADMAP_PROBE.items():
        values = measured.get((name, size))
        if values:
            value = statistics.median(values)
            ratio = value / ref
            rows.append(
                {"metric": name, "size": size, "traced": value, "roadmap": ref,
                 "ratio": ratio, "off_by_2x": not 0.5 <= ratio <= 2.0, "n": len(values)}
            )
    return rows
