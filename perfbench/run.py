"""Closed-loop benchmark of alexlab: one client, the next op starts only
after the last one finished.

Run from the repository root:

    python3 perfbench/run.py --workload geodesic_cold --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run first times
ops untraced for half the time, then replays the same ops with every public
alexlab function wrapped, and reports per-layer self time and counts per op
plus the tracing overhead.  Earlier lines carry provenance and a summary;
the same record and, when traced, every span go to ``perfbench/_out/``.
"""

from __future__ import annotations

import os

PINNED_THREADS = 1
# BLAS/OpenMP pools read these once, when numpy and scipy are first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples a reported tail percentile must have above it


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny meshes, for the harness smoke test")
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples above it: (value, pct, beyond)."""
    xs = sorted(latencies)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


class Runner:
    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.failures = []
        self.verdicts = []
        self.oracle_err = 0.0
        self.tracer = None

    def attempt(self, run, state, i):
        """One op; returns its latency.  Failures are recorded, not raised."""
        inp = self.wl.op_input(self.seed, i)
        if self.tracer is not None:
            self.tracer.op = i
        t0 = time.perf_counter()
        try:
            outcome = run(state, inp)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            t1 = time.perf_counter()
            self.failures.append({"op": i, "error": f"{type(exc).__name__}: {exc}"})
            return t1 - t0
        t1 = time.perf_counter()
        bad = sorted(name for name, ok in outcome.checks.items() if not ok)
        if bad:
            self.failures.append({"op": i, "failed_checks": bad})
        self.verdicts += outcome.verdicts
        self.oracle_err = max(self.oracle_err, outcome.oracle_err)
        return t1 - t0

    def loop(self, run, state, seconds, count=None):
        """Ops 0, 1, ... until `seconds` have passed (or exactly `count` ops)."""
        latencies = []
        start = time.perf_counter()
        while True:
            latencies.append(self.attempt(run, state, len(latencies)))
            elapsed = time.perf_counter() - start
            if count is None and elapsed >= seconds or len(latencies) == count:
                return latencies, elapsed


def trace_targets():
    """Every wrapped function: (owner, attribute, span name, counter hook)."""
    import numpy as np
    from scipy.sparse import csgraph

    from alexlab import model as M
    from workloads import C, H, P, R, S

    def dijkstra(tr, args, kwargs, result):
        mat = args[0]
        sources = np.size(kwargs["indices"]) if "indices" in kwargs else mat.shape[0]
        tr.add("dijkstra_calls", 1)
        tr.add("graph_nodes", mat.shape[0])
        tr.add("graph_edges", mat.nnz // 2)
        if tr.current() == "space.vertex_block_s":
            tr.add("vertex_block_cells", sources * mat.shape[0])

    def hopf_lax(tr, args, kwargs, result):
        tr.add("hopf_lax_calls", 1)
        tr.peak("prune_radius_max", result.prune_radius)

    def solve(tr, args, kwargs, result):
        tr.add("dirichlet_solves", 1)

    return [
        (S, "cone_disk", "space.generator_s", None),
        (S, "flat_disk", "space.generator_s", None),
        (S, "flat_torus", "space.generator_s", None),
        (S, "icosphere", "space.generator_s", None),
        (S, "build_surface", "space.build_surface_s", None),
        (S, "save_off", "space.save_off_s", None),
        (S, "load_off", "space.load_off_s", None),
        (S.ConeSurface, "graph", "space.graph_build_s", None),
        (S, "distance_field", "space.distance_field_s", None),
        (csgraph, "dijkstra", "space.dijkstra_s", dijkstra),
        (S.DistanceCache, "vertex_block", "space.vertex_block_s", None),
        (S, "initial_direction", "space.initial_direction_s", None),
        (S, "toponogov_check", "space.toponogov_s", None),
        (S, "trace_shortest_path", "space.trace_path_s", None),
        (C, "assemble_operator", "calculus.assemble_s", None),
        (C, "face_gradient", "calculus.face_gradient_s", None),
        (C, "lip_field", "calculus.lip_field_s", None),
        (P, "solve_poisson_dirichlet", "pde.dirichlet_solve_s", solve),
        (P, "harmonic_measure", "pde.harmonic_measure_s", None),
        (P, "hm_integrate", "pde.hm_integrate_s", None),
        (P, "first_nonzero_eigenpair", "pde.eigenpair_s", None),
        (P, "check_maximum_principle", "pde.max_principle_s", None),
        (H, "hopf_lax", "hopflax.hopf_lax_s", hopf_lax),
        (H, "interior_margin_mask", "hopflax.margin_mask_s", None),
        (H, "semigroup_audit", "hopflax.semigroup_audit_s", None),
        (H, "footpoint_audit", "hopflax.footpoint_audit_s", None),
        (M, "comparison_angle", "model.comparison_angle_s", None),
        (R.ExperimentReport, "to_json", "report.to_json_s", None),
    ]


def per_layer(tracer, span_names, n_ops, overhead_pct):
    """Self seconds and counts per op from the traced phase."""
    selfs = tracer.self_times()
    sums, calls = tracer.sums, max(tracer.sums["dijkstra_calls"], 1)
    m = {name: (selfs.get(name, 0.0) / n_ops, "s") for name in span_names}
    m.update({
        "space.graph_nodes": (sums["graph_nodes"] / calls, "count"),
        "space.graph_edges": (sums["graph_edges"] / calls, "count"),
        "space.dijkstra_calls": (sums["dijkstra_calls"] / n_ops, "count"),
        "space.vertex_block_cells": (sums["vertex_block_cells"] / n_ops, "count"),
        "space.vertex_block_bytes": (8 * sums["vertex_block_cells"] / n_ops, "B"),
        "pde.dirichlet_solves": (sums["dirichlet_solves"] / n_ops, "count"),
        "hopflax.hopf_lax_calls": (sums["hopf_lax_calls"] / n_ops, "count"),
        "hopflax.prune_radius_max": (tracer.maxima["prune_radius_max"], "length"),
        "trace.spans_per_op": (len(tracer.spans) / n_ops, "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "alexlab" / "__init__.py").is_file():
        print(f"alexlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import scipy

    import alexlab
    from alexlab import model as M
    from spans import Tracer
    from workloads import C, H, P, R, S, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.tiny)
    OUT.mkdir(exist_ok=True)
    runner = Runner(wl, args.seed)

    # set up several times and keep the last; then one untimed warm-up op
    # (index -1) fills lazy caches.  setup_s = median set-up + warm-up.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        state = wl.setup(OUT)
        setup_times.append(time.perf_counter() - t0)
    warmup_s = runner.attempt(wl.run, state, -1)
    warmup_failures = list(runner.failures)
    runner.failures.clear()
    runner.verdicts.clear()

    summary = {"setup_times_s": setup_times, "warmup_s": warmup_s}
    if args.trace:
        latencies, elapsed = runner.loop(wl.run, state, args.seconds / 2)
        targets = trace_targets()
        tracer = Tracer()
        tracer.install(targets, [S, C, P, H, M, R])
        runner.tracer = tracer
        try:
            traced, traced_elapsed = runner.loop(
                tracer.span("bench.self_s", wl.run), state, 0.0, count=len(latencies)
            )
        finally:
            tracer.uninstall()
        overhead = 100.0 * (traced_elapsed / elapsed - 1.0)
        span_names = list(dict.fromkeys(t[2] for t in targets)) + ["bench.self_s"]
        metrics = per_layer(tracer, span_names, len(traced), overhead)
        attempted = len(latencies) + len(traced)
        summary.update(latencies_s=latencies, traced_latencies_s=traced)
    else:
        latencies, elapsed = runner.loop(wl.run, state, args.seconds)
        tail_s, tail_pct, beyond = tail(latencies)
        verdicts = runner.verdicts
        metrics = {
            "setup_s": (statistics.median(setup_times) + warmup_s, "s"),
            "ops_per_s": (len(latencies) / elapsed, "1/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "verdict_pass_ratio": (sum(verdicts) / max(len(verdicts), 1), "ratio"),
            "oracle_err": (runner.oracle_err, "ratio"),
        }
        attempted = len(latencies)
        summary.update(latencies_s=latencies, op_tail_percentile=tail_pct,
                       op_tail_beyond=beyond, verdicts=len(verdicts))

    failed = len(runner.failures)
    summary.update(fail_ratio=failed / attempted, failures=runner.failures[:20],
                   warmup_failures=warmup_failures)
    provenance = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "alexlab": alexlab.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_threads": PINNED_THREADS,
        "closed_loop_clients": 1,
        "meshes": wl.describe(state),
    }
    result = {
        "correct": failed == 0 and not warmup_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = OUT / f"{wl.name}_seed{args.seed}_trace{args.trace}"
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"provenance": provenance, "summary": summary, "result": result}, fh)
    if args.trace:
        tracer.write(stem.with_name(stem.name + "_spans.json"), {"provenance": provenance})
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
