"""Run one benchmark workload against the checkout it sits in.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bp_powerlaw --seed 1 --seconds 10 --trace 0

The workload is set up ``SETUP_REPEATS`` times (``setup_s`` is the median),
then jobs run for ``--seconds``.  With ``--trace 0`` the last stdout line
is the end-to-end result; with ``--trace 1`` the first half of the time
runs untraced and the second half traced, and the last line carries the
per-layer metrics (the difference of the two halves is the tracing
overhead).  Every result is checked; any failed check makes the exit code
non-zero.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# One BLAS thread: on a 2-core machine helper threads contend with the
# server's workers and the client, and make solve times depend on
# scheduling.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, p):
    """The ``p``-th percentile (inclusive method), 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(values):
    """The highest of p90/p75/p50 with at least 10 samples beyond it."""
    for p in (90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p
    return 50


def objective_ratio(jobs):
    """Mean over the workload's instances of final ÷ planted objective."""
    by_instance = {}
    for job in jobs:
        if not job.error and job.kind != "cached":
            ratio = job.objective / job.planted_objective
            by_instance[job.instance] = min(
                ratio, by_instance.get(job.instance, ratio))
    return statistics.fmean(by_instance.values()) if by_instance else 0.0


def solve_seconds(jobs):
    """Mean time of each unit's solves (cached jobs excluded).

    A unit mixes jobs of different sizes (the two ``bp_paper`` instances,
    the steps of an edit chain, the first and second cold submission of
    a ``serve_mixed`` round); its mean is comparable from unit to unit
    where single jobs are not.
    """
    units = {}
    for job in jobs:
        if job.kind != "cached" and not job.error:
            units.setdefault(job.unit, []).append(job.seconds)
    return [statistics.fmean(times) for times in units.values()]


def end_to_end(wl, jobs, wall, setup_times):
    timed = sum(job.seconds for job in jobs)
    return {
        "setup_s": statistics.median(setup_times),
        "solve_s_p50": statistics.median(solve_seconds(jobs) or [0.0]),
        # In-process workloads run one job at a time; the serve loop runs
        # two connections, so its throughput is per wall second.
        "jobs_per_s": len(jobs) / (wall if wl.serve else timed),
        "objective_ratio": objective_ratio(jobs),
        "peak_rss_mb": wl.peak_rss_mb(),
    }


def layer_metrics(wl, summary, jobs, untraced, server):
    """Per-layer metrics of the traced half (see README.md)."""

    def get(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    def ratio(x, y):
        return x / y if y else 0.0

    n = len(jobs)
    job_time = sum(job.seconds for job in jobs)
    squares = get("core.squares.build") + get("core.squares.transpose") \
        + get("core.squares.delta")
    bp_self = get("core.bp", "self_s") + get("core.othermax") \
        + get("sparse.ops.row_sums")
    cold = [job for job in jobs if job.kind == "cold"]
    cached = sorted(job.seconds for job in untraced if job.kind == "cached")
    tail = tail_percentile(cached)
    if wl.serve:
        server_side = (get("serve.jobs.submit") + get("serve.http.json")
                       + sum(job.queue_wait_s + job.run_s for job in cold))
        http_self = job_time - server_side
        coverage = ratio(server_side, job_time)
    else:
        http_self = 0.0
        coverage = 1.0 - ratio(get("job", "self_s"), job_time)
    metrics = {
        "core.problem.build_s": get("core.problem.build") / n,
        "core.squares.build_s": get("core.squares.build") / n,
        "core.squares.transpose_s": get("core.squares.transpose") / n,
        "core.squares.delta_s": get("core.squares.delta") / n,
        "core.squares.calls": get("core.squares.build", "calls") / n,
        "core.squares.candidate_pairs": ratio(
            get("core.squares.build", "candidate_pairs"),
            get("core.squares.build", "calls")),
        "core.squares.nnz": ratio(get("core.squares.build", "nnz"),
                                  get("core.squares.build", "calls")),
        "core.squares.hit_ratio": ratio(
            get("core.squares.build", "nnz"),
            get("core.squares.build", "candidate_pairs")),
        "core.squares.share": ratio(squares, job_time),
        "core.bp.self_s": get("core.bp", "self_s") / n,
        "core.othermax.s": get("core.othermax") / n,
        "sparse.ops.row_sums_s": get("sparse.ops.row_sums") / n,
        "core.bp.iterations": ratio(get("core.bp", "iterations"),
                                    get("core.bp", "cold")),
        "core.bp.best_iteration": ratio(get("core.bp", "best_iteration"),
                                        get("core.bp", "cold")),
        "core.bp.share": ratio(bp_self, job_time),
        "core.rounding.round_s": get("core.rounding.round") / n,
        "core.rounding.calls": get("core.rounding.round", "calls") / n,
        "core.rounding.improved_frac": ratio(
            get("core.rounding.round", "improved"),
            get("core.rounding.round", "tracked")),
        "core.rounding.share": ratio(get("core.rounding.round"), job_time),
        "core.problem.objective_s": get("core.problem.objective") / n,
        "matching.locally_dominant_s": get("matching.locally_dominant") / n,
        "matching.locally_dominant.calls":
            get("matching.locally_dominant", "calls") / n,
        "matching.exact_s": get("matching.exact") / n,
        "incremental.apply_delta_s": get("incremental.apply_delta") / n,
        "incremental.touched_edges": ratio(
            get("incremental.apply_delta", "touched_edges"),
            get("incremental.apply_delta", "calls")),
        "incremental.seed_s": get("incremental.seed") / n,
        "incremental.capture_s": get("incremental.capture") / n,
        "core.bp.warm_iterations": ratio(get("core.bp", "warm_iterations"),
                                         get("core.bp", "warm")),
        "core.bp.full_sweeps": ratio(get("core.bp", "full_sweeps"),
                                     get("core.bp", "warm")),
        "serve.wire.decode_s": get("serve.wire.decode") / n,
        "serve.wire.digest_s": get("serve.wire.digest") / n,
        "serve.wire.encode_s": get("serve.wire.encode") / n,
        "serve.wire.body_bytes": float(getattr(wl, "body_bytes", 0)),
        "serve.jobs.submit_s": get("serve.jobs.submit") / n,
        "serve.jobs.queue_wait_s": ratio(
            sum(job.queue_wait_s for job in cold), len(cold)),
        "serve.jobs.run_s": ratio(sum(job.run_s for job in cold), len(cold)),
        "serve.store.persist_s": get("serve.store.persist") / n,
        "serve.store.writes": get("serve.store.persist", "writes") / n,
        "serve.cache.hit_ratio": ratio(get("serve.cache.get", "hit"),
                                       get("serve.cache.get", "calls")),
        "serve.http.json_s": get("serve.http.json") / n,
        "serve.http.self_s": http_self / n,
        "serve.cached_s_p50": percentile(cached, 50),
        "serve.cached_s_tail": percentile(cached, tail),
        "serve.cached.solver_s": ratio(server.get("cached_solver_s", 0.0),
                                       len(jobs) - len(cold)),
        "trace.coverage": coverage,
        "trace.solve_s_p50": statistics.median(solve_seconds(jobs) or [0.0]),
    }
    metrics["trace.overhead_s"] = metrics["trace.solve_s_p50"] - \
        statistics.median(solve_seconds(untraced) or [0.0])
    sample_counts = {
        "solve_s_p50": len(solve_seconds(jobs)),
        "untraced_solve_s_p50": len(solve_seconds(untraced)),
        "serve.cached": len(cached),
        "serve.cached_s_tail_percentile": tail,
    }
    return metrics, sample_counts


def traced_run(wl, seconds, spans):
    """Half the time untraced, half traced: (jobs, metrics, samples)."""
    untraced, _ = wl.run_loop(seconds / 2, spans.Recorder())
    recorder = spans.Recorder()
    if wl.serve:
        wl.trace_on()
    else:
        spans.install(recorder)
    try:
        jobs, _ = wl.run_loop(seconds / 2, recorder)
    finally:
        server = wl.trace_off() if wl.serve else {}
        recorder.unpatch()
    summary = server["summary"] if wl.serve \
        else spans.summarize(recorder.spans)
    wl.check(untraced + jobs)
    metrics, samples = layer_metrics(wl, summary, jobs, untraced, server)
    return untraced + jobs, metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    missing = [path for path in (os.path.join(SRC, "repro"), spec_path)
               if not os.path.exists(path)]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [SRC, HERE]
    import numpy
    import scipy

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        if args.trace:
            checked, metrics, samples = traced_run(wl, args.seconds, spans)
            wanted = spec["per_layer"]
        else:
            checked, wall = wl.run_loop(args.seconds, spans.Recorder())
            wl.check(checked)
            metrics = end_to_end(wl, checked, wall, setup_times)
            samples = {"solve_s_p50": len(solve_seconds(checked)),
                       "setup_s": len(setup_times)}
            wanted = spec["end_to_end"]
    finally:
        wl.close()

    failed = [job for job in checked if job.error]
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "instances": wl.instance_stats(), "samples": samples,
        "jobs": {kind: sum(job.kind == kind for job in checked)
                 for kind in sorted({job.kind for job in checked})},
        "errors": sorted({job.error for job in failed})[:5],
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
