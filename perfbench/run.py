"""Benchmark of the drivenspin CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is used from ``src``.
Workloads (see ``workloads.py``):

* ``interactive`` -- the README's six commands at README sizes, plus two
  expected-error jobs; per-call overhead of small eigensolves.
* ``lattice`` -- 400x400 lattice Chern numbers in both regimes and a 10x10
  lattice-method phase diagram at one thread and at two.
* ``propagate`` -- 100000-step RK4 propagators, by CLI and by library.
* ``diagram`` -- 200x200 closed-method phase diagrams as CSV and JSON, and
  library ``classify_point`` on random draws; no eigensolver runs.

The seed fixes the workload's job list.  This process is the worker: it
sets BLAS/OpenMP threads to 1, runs one untimed warm-up job, then runs the
job list a fixed number of times (passes; ``workloads.PASS_SECONDS`` turns S
into a pass count) as one closed-loop client.  CLI jobs call
``drivenspin.cli.main(argv)`` in-process with stdout and stderr captured;
library jobs call the public functions.  Only the program call is timed.
The Wilson-phase cache is cleared before every job, so it only serves reuse
inside one job.  Every output is checked by ``checker.py``; a wrong output
counts as failed and the run goes on.

Each job's latency is its best over the passes, because the host's speed
drifts by up to 2x over tens of seconds.  With ``--trace 0``: ``wall_s`` is
the sum of the job latencies, ``job_p50_s`` their median and ``job_tail_s``
the latency at the highest percentile with at least 10 jobs beyond it (the
slowest job when the list has 10 jobs or fewer).  ``setup_s`` is the best
of at least 12 fresh-interpreter samples, taken between passes, of
importing drivenspin and building the CLI parser.  ``peak_rss_mb`` is this process's
peak resident set.  The share of wrong outputs is printed as
``failed_ratio``; the JSON line gives it as ``failed`` over ``attempted``.

With ``--trace 1`` passes alternate between untraced and traced, at least
three of each, with every layer function wrapped by ``tracer.py`` in the
traced ones, and the per-layer metrics of ``BENCHMARK.json`` are reported.
The tracing overhead is the median, over pairs of adjacent passes, of the
traced pass's wall over the untraced one's, minus one; it is printed as
unresolved unless every traced pass was slower than the one before it.  The
last line printed is the JSON result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in set-up samples
os.environ["PYTHONPATH"] = str(ROOT / "src")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import drivenspin as ds  # noqa: E402
from drivenspin import cli, geometry  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 12
SETUP_CODE = (
    "import time; t = time.perf_counter(); import drivenspin.cli; "
    "drivenspin.cli.build_parser(); print(time.perf_counter() - t)"
)


def metric_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def setup_seconds() -> float:
    """Time, in a fresh interpreter, to import drivenspin and build the CLI parser."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _config(p: checker.Point, theta: float) -> ds.DriveConfig:
    return ds.DriveConfig(b=p.b, theta=theta, phi_l=0.0, phi_r=-math.pi if p.anti else 0.0,
                          omega=p.omega, t_lr=p.t_lr)


def _library_call(job):
    if job.kind == "propagate_library":
        cfg = _config(job.point, job.point.theta)
        period = 2.0 * math.pi / cfg.omega
        return ds.propagator_rk4(cfg, period, job.rk4_steps), ds.propagator_exact(cfg, period)
    return [ds.classify_point(_config(p, 0.0)).render() for p in job.points]


def run_job(job):
    """(latency seconds, outcome) of one job; see ``checker.check``."""
    if job.command is not None:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(job.argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = f"crash {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        return latency, (code, out.getvalue(), err.getvalue())
    start = time.perf_counter()
    try:
        outcome = (None, _library_call(job))
    except ds.DrivenSpinError as exc:
        outcome = (type(exc).__name__, None)
    return time.perf_counter() - start, outcome


def run_pass(jobs, index, trace=None) -> dict:
    """Run the job list once; with a ``trace``, every layer call is recorded."""
    gc.collect()
    records = []
    for k, job in enumerate(jobs):
        if trace is not None:
            trace.job = (index, k)
        geometry._wilson_band_phases.cache_clear()
        latency, outcome = run_job(job)
        cache = geometry._wilson_band_phases.cache_info()
        problems = checker.check(job, outcome)
        emitted = len(outcome[1]) if job.command and outcome[0] == 0 else 0
        records.append({"kind": job.kind, "command": job.command,
                        "expect_error": bool(job.expect_error), "latency": latency,
                        "problems": problems, "emit_bytes": emitted,
                        "cache_hits": cache.hits, "cache_misses": cache.misses})
    return {"index": index, "traced": trace is not None, "jobs": records,
            "wall": sum(r["latency"] for r in records)}


def best_latencies(passes) -> list[float]:
    """Each job's best latency over ``passes``."""
    return [min(p["jobs"][k]["latency"] for p in passes) for k in range(len(passes[0]["jobs"]))]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest rank with at least 10 jobs beyond it.

    With 10 jobs or fewer that is the slowest job.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(passes, setup, peak_rss_kb) -> dict:
    best = best_latencies(passes)
    tail_s, pct = tail(best)
    print(f"{len(passes)} passes of {len(best)} jobs; job_tail_s is p{pct:.1f}; "
          f"setup_s from {len(setup)} samples")
    return {
        "wall_s": sum(best),
        "job_p50_s": statistics.median(best),
        "job_tail_s": tail_s,
        "setup_s": min(setup),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def thread_speedup(passes, threads: int) -> float:
    """Best one-thread over best ``threads``-thread latency of the same scan, or 0."""
    best = dict(zip((j["kind"] for j in passes[0]["jobs"]), best_latencies(passes)))
    one = [v for k, v in best.items() if k.endswith("_t1")]
    many = [v for k, v in best.items() if threads > 1 and k.endswith(f"_t{threads}")]
    return one[0] / many[0] if one and many else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, traced, untraced, threads) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced passes) and per-kind shares.

    Passes alternate, untraced first; a traced pass's overhead is its wall
    over that of the untraced pass just before it.

    A kind's shares are each layer's self time over the kind's traced time,
    given with the kind's mean traced and untraced job latency.
    """
    self_s = tracer.self_times(spans)
    name_of = {s[0]: s[1] for s in spans}
    job_of = {(p["index"], k): j for p in traced for k, j in enumerate(p["jobs"])}
    per_pass = defaultdict(lambda: defaultdict(float))
    kind_layer = defaultdict(lambda: defaultdict(float))
    for sid, name, start, end, parent, job, _, work in spans:
        m = per_pass[job[0]]
        m[f"{name}.self_s"] += self_s[sid]
        m["trace.self_sum_s"] += self_s[sid]
        m["trace.spans"] += 1
        kind_layer[job_of[job]["kind"]][name] += self_s[sid]
        if name_of.get(parent) == name:
            continue  # nested call of the same layer: counted by its caller
        m[f"{name}.calls"] += 1
        if name == "qmodel.build":
            m["qmodel.build.matrices"] += work
        elif name == "spectra.eigh":
            m["spectra.eigh.matrices"] += work
            if job_of[job]["command"] == "evolve" and not job_of[job]["expect_error"]:
                m["evolve_eigh"] += 1
        elif name == "geometry.flux":
            m["geometry.flux.plaquettes"] += work
        elif name == "evolution.rk4":
            m["evolution.rk4.steps"] += work
        elif name == "phasescan.scan":
            cells, errors, workers = work
            m["phasescan.cells"] += cells
            m["cell_errors"] += errors
            m["thread_wall"] += workers * (end - start)
        elif name == "phasescan.cell":
            m["phasescan.worker_busy_s"] += end - start
        elif name == "cli.handler":
            m["cli.handler_s"] += end - start
    traced_wall, untraced_wall = sum(best_latencies(traced)), sum(best_latencies(untraced))
    table = []
    for p, before in zip(traced, untraced):
        m = per_pass[p["index"]]
        jobs = p["jobs"]
        evolves = sum(j["command"] == "evolve" and not j["expect_error"] for j in jobs)
        hits = sum(j["cache_hits"] for j in jobs)
        lookups = hits + sum(j["cache_misses"] for j in jobs)
        table.append({
            "qmodel.build.calls": m["qmodel.build.calls"],
            "qmodel.build.matrices": m["qmodel.build.matrices"],
            "qmodel.build.self_s": m["qmodel.build.self_s"],
            "spectra.eigh.calls": m["spectra.eigh.calls"],
            "spectra.eigh.matrices": m["spectra.eigh.matrices"],
            "spectra.eigh.matrices_per_call": _ratio(m["spectra.eigh.matrices"],
                                                     m["spectra.eigh.calls"]),
            "spectra.eigh.self_s": m["spectra.eigh.self_s"],
            "spectra.eigh.bytes_computed": m["spectra.eigh.matrices"]
            * tracer.EIGH_BYTES_PER_MATRIX,
            "spectra.label.calls": m["spectra.label.calls"],
            "spectra.label.self_s": m["spectra.label.self_s"],
            "geometry.wilson.calls": m["geometry.wilson.calls"],
            "geometry.wilson.self_s": m["geometry.wilson.self_s"],
            "geometry.wilson_cache.hit_ratio": _ratio(hits, lookups),
            "geometry.band_states.self_s": m["geometry.band_states.self_s"],
            "geometry.flux.calls": m["geometry.flux.calls"],
            "geometry.flux.plaquettes": m["geometry.flux.plaquettes"],
            "geometry.flux.self_s": m["geometry.flux.self_s"],
            "evolution.rk4.calls": m["evolution.rk4.calls"],
            "evolution.rk4.steps": m["evolution.rk4.steps"],
            "evolution.rk4.self_s": m["evolution.rk4.self_s"],
            "evolution.exact.calls": m["evolution.exact.calls"],
            "evolution.eigh_per_evolve": _ratio(m["evolve_eigh"], evolves),
            "phasescan.cells": m["phasescan.cells"],
            "phasescan.scan.self_s": m["phasescan.scan.self_s"],
            "phasescan.cell_error_ratio": _ratio(m["cell_errors"], m["phasescan.cells"]),
            "phasescan.worker_busy_s": m["phasescan.worker_busy_s"],
            "phasescan.worker_utilization": _ratio(m["phasescan.worker_busy_s"],
                                                   m["thread_wall"]),
            "phasescan.thread_speedup": thread_speedup(untraced, threads),
            "phasescan.classify.calls": m["phasescan.classify.calls"],
            "phasescan.classify.self_s": m["phasescan.classify.self_s"],
            "cli.parse_s": m["cli.parse.self_s"],
            "cli.handler_s": m["cli.handler_s"],
            "cli.emit.self_s": m["cli.emit.self_s"],
            "cli.emit.bytes": sum(j["emit_bytes"] for j in jobs),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_ratio": p["wall"] / before["wall"] - 1.0,
            "trace.self_share": m["trace.self_sum_s"] / p["wall"],
            "trace.spans": m["trace.spans"],
        })
    metrics = {key: statistics.median(t[key] for t in table) for key in table[0]}
    metrics["trace.self_sum_ok"] = all(t["trace.self_share"] <= 1.0 for t in table)

    shares = {}
    for kind, layers in sorted(kind_layer.items()):
        on, off = ([j["latency"] for p in ps for j in p["jobs"] if j["kind"] == kind]
                   for ps in (traced, untraced))
        shares[kind] = ({layer: t / sum(on) for layer, t in sorted(layers.items())},
                        statistics.mean(on), statistics.mean(off))
    return metrics, shares


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    e2e_units, layer_units = metric_units()
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    jobs = workloads.job_list(opts.workload, opts.seed, threads)
    warm = workloads.warmup_job(opts.workload, opts.seed)
    warm_problems = checker.check(warm, run_job(warm)[1])
    # A fixed pass count per workload keeps the work measured independent of
    # the machine's speed.
    n_passes = max(MIN_PASSES, round(opts.seconds / workloads.PASS_SECONDS[opts.workload]))

    passes, setup = [], []
    trace = tracer.Tracer() if opts.trace else None
    if trace is not None:
        n_passes = 2 * max(3, n_passes // 2)  # alternately untraced and traced
    for index in range(n_passes):
        if trace is not None and index % 2:
            trace.install()
            try:
                passes.append(run_pass(jobs, index, trace))
            finally:
                trace.uninstall()
        else:
            if trace is None:
                setup += [setup_seconds() for _ in range(-(-SETUP_SAMPLES // n_passes))]
            passes.append(run_pass(jobs, index))

    records = [j for p in passes for j in p["jobs"]]
    failed = [j for j in records if j["problems"]]
    print(f"workload {opts.workload}  seed {opts.seed}  trace {opts.trace}  nproc {nproc}  "
          f"threads {threads}  python {platform.python_version()}  numpy {np.__version__}")
    print(f"jobs {len(records)}  failed {len(failed)}  "
          f"failed_ratio {len(failed) / len(records):.4g} ratio")
    for j in failed[:10] + ([{"kind": "warm-up", "problems": warm_problems}]
                            if warm_problems else []):
        print(f"  FAILED {j['kind']}: {'; '.join(j['problems'])}")
    correct = not failed and not warm_problems

    if trace is None:
        values = end_to_end(passes, setup,
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        units = e2e_units
    else:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        values, shares = layer_metrics(trace.spans, traced, untraced, threads)
        correct = correct and values.pop("trace.self_sum_ok")
        units = layer_units
        for kind, (layers, mean_traced, mean_untraced) in shares.items():
            top = ", ".join(f"{layer} {share:.0%}" for layer, share in
                            sorted(layers.items(), key=lambda kv: -kv[1]) if share >= 0.01)
            print(f"share {kind} (mean job {mean_traced:.4g} s traced, {mean_untraced:.4g} s "
                  f"untraced): {top}")
        # The host's drift between passes can exceed the overhead.
        pairs = [t["wall"] / u["wall"] - 1.0 for u, t in zip(untraced, traced)]
        if min(pairs) <= 0.0:
            print("trace.overhead_ratio unresolved: traced over untraced pass walls "
                  + " ".join(f"{r:+.3f}" for r in pairs))
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not match "
                         "BENCHMARK.json")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
