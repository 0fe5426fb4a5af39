#!/usr/bin/env python3
"""Benchmark of the bergbep BEP and f-BEP solvers, run from the root of a checkout.

    python3 bench/run.py --workload bep-large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke        # self-test on tiny sizes

Workloads (one caller, closed loop: each operation starts when the
previous one has returned and been checked):

  bep-large  seeded BEPs at 128x256, N=60, solved in-process
  fbep-lift  f-BEPs over a conductivity contrast ladder, in-process
  cli-mix    cold `python -m bergbep.cli` commands, one process at a time

The operations of a workload form a cycle that repeats, whole, for
about --seconds (the run ends at the cycle boundary nearest the end).
Every operation is gated (gates.py); a failed one counts as taking the
whole window.  End-to-end metrics: setup_s (fresh interpreter to ready,
median of five), norm_cycle_s (median over cycles of the time one cycle
spends in its operations), norm_ops_per_s (passed operations per second
of operation time) and peak_rss_mb.

The timings of the in-process workloads are speed-normalized: right
before each operation a fixed gauge kernel (pure Python and small numpy,
no bergbep) is timed, and the raw figures, set-up included, are scaled
by GAUGE_REF_S / (the run's median gauge time).  On a shared machine
whose speed swings by a quarter over tens of seconds, this more than
halves the run-to-run spread.  cli-mix does its work in child processes
the gauge does not share, and there the scaling doubled the spread, so
its figures stay raw.  Raw wall times are printed beside them and kept
in the result file.

With --trace 0 the last line of standard output holds the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run
(tracing.py).  Everything else the run learns (environment, per-kind
latencies, failures, known defects, the traced layer table) is printed
above that line and written to
.bench_out/result-<workload>-seed<seed>-trace<t>.json.

The package is imported from the checkout's src/ (never an installed
copy), and BLAS is pinned to min(2, nproc) threads.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
try:
    LIBC = ctypes.CDLL("libc.so.6")
    LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc: no trimming
    LIBC = None
WORKLOADS = ("bep-large", "fbep-lift", "cli-mix")
SETUP_REPEATS = 5
GAUGE_REF_S = 0.045  # SpeedGauge.seconds() on an unloaded Xeon vCPU of the reference machine

END_TO_END = (
    ("setup_s", "s"),
    ("norm_cycle_s", "s"),
    ("norm_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# The per-workload figures named in the benchmark's design, printed beside
# the gated metrics: (workload, name, op kinds it covers, "latency" or "rate").
NAMED = (
    ("bep-large", "bep_solve_s", ("bep_solve",), "latency"),
    ("bep-large", "bep_solves_per_s", ("bep_solve",), "rate"),
    ("fbep-lift", "fbep_solve_s", ("fbep_solve",), "latency"),
    ("fbep-lift", "fbep_solves_per_s", ("fbep_solve",), "rate"),
    ("fbep-lift", "fbep_transform_s", ("fbep_transform",), "latency"),
    ("cli-mix", "cli_solve_bep_s", ("solve-bep", "infeasible-bep"), "latency"),
    ("cli-mix", "cli_solve_fbep_s", ("solve-fbep",), "latency"),
    ("cli-mix", "cli_sweep_s", ("lambda-sweep",), "latency"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["BERGBEP_LOG"] = "error"
    return env


def in_tree(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


# ---------------------------------------------------------------- environment


def blas_threads_in_use():
    """Thread count OpenBLAS reports, read through its C API when it can be found."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib_path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(bergbep_file: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": NPROC,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "cpu": cpu,
        "git_commit": commit,
        "bergbep_file": bergbep_file,
    }


# ---------------------------------------------------------------- measuring


def measure_setup(code: str, env: dict) -> dict:
    """Time from spawning a fresh interpreter until it has run the set-up."""
    child = (
        "import sys, time\n" + code.replace("; ", "\n")
        + "\nimport bergbep\nsys.stdout.write(repr(time.time()) + ' ' + bergbep.__file__)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        spawned = time.time()
        proc = subprocess.run([sys.executable, "-c", child], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        ready, path = proc.stdout.split(" ", 1)
        if not in_tree(path):
            raise RuntimeError(f"set-up child imported bergbep from {path}, not {SRC}")
        times.append(float(ready) - spawned)
    return {"raw_s": statistics.median(times), "samples_s": times}


def release_memory() -> None:
    """Collect garbage and hand freed heap back to the OS between operations.

    Without this the peak RSS of a run depends on where glibc's dynamic
    mmap threshold happens to sit, and varies by a fifth between runs.
    """
    gc.collect()
    if LIBC is not None:
        LIBC.malloc_trim(0)


class SpeedGauge:
    """A fixed CPU kernel whose time tells how fast the machine runs right now."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((160, 160))
        self.rhs = rng.standard_normal((160, 8))
        self.v = rng.standard_normal(4096)

    def seconds(self) -> float:
        np = self.np
        start = time.perf_counter()
        acc = 0.0
        for i in range(60000):
            acc += i * 0.5
        for _ in range(40):
            np.fft.fft(self.v)
            np.linalg.solve(self.a @ self.a + 50.0 * np.eye(160), self.rhs)
        return time.perf_counter() - start


def run_op(op, gauge) -> dict:
    """Time one operation and gate its result; any exception is a failure."""
    release_memory()
    gauge_s = gauge.seconds()
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the op failed; the run goes on
        seconds = time.perf_counter() - start
        fails = [f"raised {type(exc).__name__}: {str(exc)[:160]}"]
    else:
        seconds = time.perf_counter() - start
        try:
            fails = op.gate(result)
        except Exception as exc:  # a gate that cannot evaluate the result fails it
            fails = [f"gate raised {type(exc).__name__}: {str(exc)[:160]}"]
    return {"kind": op.kind, "instance": op.instance, "size": op.size, "seconds": seconds,
            "gauge_s": gauge_s, "fails": fails}


def run_stream(ops, seconds: float, gauge, tracer=None) -> tuple[list, int]:
    """Whole cycles of the ops, ending at the cycle boundary nearest the window's end.

    Traced when a tracer is given.
    """
    records = []
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or (time.perf_counter() - start) * (1 + 0.5 / cycles) < seconds:
        cycles += 1
        for op in ops:
            record = dict(run_op(op, gauge), cycle=cycles)
            records.append(record)
            if tracer is not None:
                tracer.cycle = cycles
                tracer.new_op()
                with tracer.span("op." + op.kind, op.size) as span:
                    try:
                        op.traced(tracer)
                    except Exception:  # already counted by the plain run
                        span["error"] = traceback.format_exc(limit=1)
                record["traced_seconds"] = span["end"] - span["start"]
                op.extras(tracer)
    return records, cycles


def run_known_defects(ops, gauge, tracer=None) -> list:
    """Run each known-defect op once, outside the stream; traced when asked."""
    records = []
    for op in ops:
        record = run_op(op, gauge)
        records.append(record)
        if tracer is not None:
            tracer.cycle = 0
            tracer.new_op()
            try:
                op.traced(tracer)
            except Exception:  # expected for some of these inputs
                pass
            tracer.count("fbep.known_defect_ops", int(bool(record["fails"])), op.size)
    return records


# ---------------------------------------------------------------- summaries


def failed_latency(record: dict, window: float) -> float:
    """A failed op misses every latency limit: it ranks as taking the whole window."""
    return max(window, record["seconds"]) if record["fails"] else record["seconds"]


def tail(values: list):
    """The highest of p90/p99 with at least ten samples beyond it, else None."""
    n = len(values)
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def summarize(records: list, window: float, normalize: bool) -> dict:
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(failed_latency(r, window))
    per_kind = {k: {"median_s": statistics.median(v), "n": len(v), "tail": tail(v)}
                for k, v in sorted(kinds.items())}
    cycles = {}
    for r in records:
        cycles[r["cycle"]] = cycles.get(r["cycle"], 0.0) + failed_latency(r, window)
    passed = sum(1 for r in records if not r["fails"])
    cycle_s = statistics.median(cycles.values())
    ops_per_s = passed / sum(r["seconds"] for r in records)
    speed = GAUGE_REF_S / statistics.median(r["gauge_s"] for r in records) if normalize else 1.0
    return {
        "per_kind": per_kind,
        "cycle_s": cycle_s,
        "cycle_samples_s": list(cycles.values()),
        "ops_per_s": ops_per_s,
        "speed": speed,
        "norm_cycle_s": cycle_s * speed,
        "norm_ops_per_s": ops_per_s / speed,
        "attempted": len(records),
        "failed": len(records) - passed,
    }


def named_figures(workload: str, records: list, window: float) -> dict:
    out = {}
    for wl, name, prefixes, what in NAMED:
        if wl != workload:
            continue
        rows = [r for r in records if r["kind"].startswith(prefixes)]
        if what == "latency":
            value = statistics.median(failed_latency(r, window) for r in rows)
            out[name] = {"value": value, "unit": "s", "n": len(rows)}
        else:
            ok = sum(1 for r in rows if not r["fails"])
            out[name] = {"value": ok / sum(r["seconds"] for r in rows), "unit": "1/s",
                         "n": len(rows)}
    out["fail_frac"] = {"value": sum(1 for r in records if r["fails"]) / len(records),
                        "unit": "ratio", "n": len(records)}
    return out


def failure_table(records: list) -> list:
    """Failures grouped by instance and gate, with how often each occurred."""
    seen = {}
    for r in records:
        for gate in r["fails"]:
            key = (r["instance"], r["kind"], gate)
            seen[key] = seen.get(key, 0) + 1
    return [{"instance": i, "op": k, "gate": g, "count": c} for (i, k, g), c in seen.items()]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="problem sizes; tiny is for the self-test")
    parser.add_argument("--smoke", action="store_true", help="run the self-test and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported anywhere in this process
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "bergbep" / "__init__.py").is_file():
        print(f"error: no bergbep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bergbep

    if not in_tree(bergbep.__file__):
        print(f"error: bergbep imported from {bergbep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        import selftest

        return selftest.main()
    import numpy as np

    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return measure(args, bergbep.__file__, np, tracing, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, bergbep_file, np, tracing, workloads, workdir) -> int:
    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "env": environment(bergbep_file)}
    print(f"bergbep benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print("env " + json.dumps(record["env"], sort_keys=True))

    rng = np.random.default_rng(np.random.SeedSequence([args.seed,
                                                        WORKLOADS.index(args.workload)]))
    if args.workload == "bep-large":
        wl = workloads.bep_large(rng, args.scale)
    elif args.workload == "fbep-lift":
        wl = workloads.fbep_lift(rng, args.scale)
    else:
        wl = workloads.cli_mix(rng, args.scale, str(ROOT), env, workdir)

    tracer = tracing.Tracer() if args.trace else None
    gauge = SpeedGauge()
    if not args.trace:
        record["setup"] = measure_setup(wl.setup_code, env)
    records, cycles = run_stream(wl.ops, args.seconds, gauge, tracer)
    defects = run_known_defects(wl.known_defects, gauge, tracer)
    summary = summarize(records, args.seconds, wl.in_process)
    record.update(cycles=cycles, summary=summary, failures=failure_table(records),
                  named=named_figures(args.workload, records, args.seconds),
                  known_defects=[dict(r, expected_to_fail=True) for r in defects])

    print(f"{summary['attempted']} ops in {cycles} cycles, {summary['failed']} failed; "
          f"cycle times {', '.join(f'{c:.3f}' for c in summary['cycle_samples_s'])} s")
    print(f"  raw cycle_s {summary['cycle_s']:.4f} s, raw ops_per_s {summary['ops_per_s']:.4f} 1/s,"
          f" machine speed factor {summary['speed']:.4f}")
    if "setup" in record:
        print(f"  raw setup {record['setup']['raw_s']:.4f} s (samples "
              f"{', '.join(f'{x:.3f}' for x in record['setup']['samples_s'])})")
    for kind, k in summary["per_kind"].items():
        extra = f"  p{k['tail'][0]} {k['tail'][1]:.4f} s" if k["tail"] else ""
        print(f"  {kind:<24} median {k['median_s']:.4f} s  n={k['n']}{extra}")
    for name, v in record["named"].items():
        print(f"  {name:<24} {v['value']:.4g} {v['unit']}  n={v['n']}")
    for f in record["failures"]:
        print(f"  FAILED {f['instance']} [{f['op']}] {f['gate']} x{f['count']}")
    if defects:
        shown = sum(1 for r in defects if r["fails"])
        print(f"known defects: {shown}/{len(defects)} ops fail (run once, outside the stream)")
        for r in defects:
            print(f"  {'FAIL' if r['fails'] else 'pass'} {r['instance']} [{r['kind']}] "
                  f"{r['seconds']:.3f} s  {'; '.join(r['fails'])}")

    if args.trace:
        missing = tracer.layers_to_probe()
        workloads.run_probes(tracer, missing, wl.probe_grid, str(ROOT), env, workdir)
        plain = sum(r["seconds"] for r in records)
        traced = sum(r["traced_seconds"] for r in records)
        metrics = tracing.per_layer_metrics(tracer, cycles, traced / plain - 1.0)
        rows = tracing.reconciliation(tracer)
        record.update(probed_layers=sorted(missing), reconciliation=rows)
        print_layers(metrics, sorted(missing), rows, plain, traced)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "env": record["env"]})
    else:
        metrics = {
            "setup_s": {"value": record["setup"]["raw_s"] * summary["speed"], "unit": "s"},
            "norm_cycle_s": {"value": summary["norm_cycle_s"], "unit": "s"},
            "norm_ops_per_s": {"value": summary["norm_ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(args.workload), "unit": "MB"},
        }
    record["metrics"] = metrics
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


def print_layers(metrics: dict, probed: list, rows: list, plain: float, traced: float) -> None:
    print(f"layers probed at fixed small sizes (calls this workload does not make): "
          f"{', '.join(probed) or 'none'}")
    for name, v in metrics.items():
        print(f"  {name:<34} {v['value']:.6g} {v['unit']}")
    print(f"tracing overhead: traced ops {traced:.3f} s vs plain {plain:.3f} s "
          f"({100.0 * (traced / plain - 1.0):+.2f} %)")
    print("reconciliation with the ROADMAP probe (traced median / ROADMAP value):")
    for r in rows:
        flag = "  <-- differs by more than 2x" if r["off_by_2x"] else ""
        print(f"  {r['metric']:<26} {r['size']:<22} {r['traced']:.4f} s vs "
              f"{r['roadmap']:.4f} s  x{r['ratio']:.2f}  n={r['n']}{flag}")


if __name__ == "__main__":
    sys.exit(main())
