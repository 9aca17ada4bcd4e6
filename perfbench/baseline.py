"""Runs every workload over several seeds and summarizes the results.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/BASELINE.json

For each workload: ``--seeds`` untraced runs (seeds 1..N) and one traced run
(seed 1).  Each end-to-end metric is summarized by its median and its spread,
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
traced run contributes the per-layer metrics and the per-job-kind layer
shares that run.py prints.  ``--seconds`` defaults to BENCHMARK.json's
``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("interactive", "lattice", "propagate", "diagram")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {"median": median, "spread": (q3 - q1) / median,
                         "unit": results[0]["metrics"][name]["unit"], "values": values}
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--out", type=Path, required=True)
    opts = ap.parse_args()
    doc = json.loads(opts.out.read_text()) if opts.out.exists() else {}
    for workload in opts.workloads:
        results = [run(workload, seed, opts.seconds, 0)[1] for seed in range(1, opts.seeds + 1)]
        lines, traced = run(workload, 1, opts.seconds, 1)
        doc.setdefault("workloads", {})[workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "end_to_end": summarize(results),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_lines": lines,
        }
        for name, s in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name} median {s['median']:.4g} {s['unit']} "
                  f"spread {s['spread']:.3f}", flush=True)
        opts.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
