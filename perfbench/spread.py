"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads cluster_twin packet_collective --runs 10

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
with seeds ``first-seed .. first-seed+runs-1``, and prints for every metric
the median, the quartiles and the quartile spread ``(q3 - q1) / median``
as ``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound from ``BENCHMARK.json``, and the spreads of the unscaled wall-time
figures from the ``# info`` line.  ``--out`` also writes the raw values and
the spreads as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = next(line for line in lines if line.startswith("# info "))
    return {"result": json.loads(lines[-1]), "info": json.loads(info[len("# info "):])}


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = [
            run_once(workload, args.first_seed + i, args.seconds)
            for i in range(args.runs)
        ]
        failed = sum(r["result"]["failed"] for r in runs)
        names = list(runs[0]["result"]["metrics"])
        stats = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats[name] = dict(spread(values), values=values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if stats[name]["spread"] <= bound / 3 else "WIDE"
                if stats[name]["spread"] > bound:
                    flag = "OVER BOUND"
            print(
                f"{workload:18s} {name:26s} median {stats[name]['median']:12.6g} "
                f"spread {stats[name]['spread']:7.4f} bound {bound} {flag}",
                flush=True,
            )
        # the unscaled wall-time figures, for comparison with the reference ones
        for name in ("wall_ops_per_s", "wall_op_p50_ms", "wall_op_p90_ms"):
            values = [r["info"][name] for r in runs]
            stats[name] = dict(spread(values), values=values)
            print(f"{workload:18s} {name:26s} spread {stats[name]['spread']:7.4f}", flush=True)
        print(f"{workload:18s} failed operations: {failed}", flush=True)
        report[workload] = {
            "failed": failed,
            "metrics": stats,
            "samples": [r["info"]["samples"] for r in runs],
            "loadavg_start": [r["info"]["loadavg_start"][0] for r in runs],
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
