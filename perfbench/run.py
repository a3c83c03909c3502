"""Closed-loop benchmark of the HammingMesh what-if stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload topology_sweep --seed 0 --seconds 8 --trace 0

One client, one process, one operation at a time: the next operation
starts when the previous one returns.  The run

1. pins BLAS/OpenMP thread pools to one thread before NumPy is imported;
2. imports the library from ``src/`` and sets the workload up once;
3. collects garbage, then runs whole passes of the workload's operations
   (see ``workloads.py``) for ``--seconds`` seconds, checking every
   operation's outputs;
4. repeats the import and set-up in ``SETUP_REPS - 1`` fresh interpreters,
   one after the other, which exit without running the workload;
   ``setup_s`` is the median over the run's own set-up and theirs, each
   timed from the start of ``run.py`` to the first timed operation;
5. prints every metric by name with its unit and sample count, the host
   metadata and the digest of the first :data:`WINDOW` operations'
   simulated outputs, and, as the last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

**Reference-host time.**  On a shared host the speed of one core moves by
tens of percent within seconds, and by as much again over minutes, while
every run does identical work.  So every time the benchmark reports is
host wall time rescaled to a reference speed: a fixed pure-Python loop
(:func:`_probe`) is timed right before and right after each operation, and
before and after each set-up, and the measured wall time is multiplied by
``REF_PROBE_S`` over the probe's time measured there.  A program change
that halves an operation's wall time halves its reference time; a host
that runs everything 30% slower for a while does not move it.  The
unscaled wall-time figures are printed on the ``# info`` line.

``--trace 0`` reports the end-to-end metrics with every ``repro.obs``
histogram off.  ``--trace 1`` wraps the library's entry points in spans
(see ``spans.py``), reports the per-layer metrics instead, and writes the
spans to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

import time

#: iterations of the probe loop, and the time one probe is taken to take on
#: the reference host (a shared 2-vCPU cloud host measures 0.6-1.2 ms)
REF_ITERS = 10_000
REF_PROBE_S = 0.001


def _probe() -> float:
    """Host speed now: the fastest of three timings of a fixed loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


_START_PROBES = [_probe() for _ in range(5)]
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]  # measure the library's defaults
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (imports repro: fails before any output without src/)
import workloads  # noqa: E402

#: operations covered by the digest and the exact per-layer counts
WINDOW = 48
#: set-ups per run: the run's own and ``SETUP_REPS - 1`` in fresh
#: interpreters afterwards; ``setup_s`` reports their median
SETUP_REPS = 3
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _percentiles(latencies_s):
    deciles = statistics.quantiles(latencies_s, n=10, method="inclusive")
    return 1e3 * statistics.median(latencies_s), 1e3 * deciles[8]


def _timed_phase(workload, seconds, tracer, on_window):
    """Run whole passes of the workload's operations for ``seconds``.

    Returns the per-operation latencies in reference seconds and in wall
    seconds, the failure count, the digest of the first :data:`WINDOW`
    operations' outputs and the peak CSR route-table bytes seen.
    """
    run = workload.run
    if tracer is not None:
        run = tracer.wrap(spans.Tracer.ROOT, run)
    csr_peak = spans.csr_bytes()
    stream = workload.ops()
    latencies, wall_latencies, outputs = [], [], []
    failed = 0
    before = _probe()
    t_start = time.perf_counter()
    while (
        len(latencies) < WINDOW
        or len(latencies) % workload.PASS
        or time.perf_counter() - t_start < seconds
    ):
        op = next(stream)
        if tracer is not None:
            tracer.op_id = len(latencies)
        t0 = time.perf_counter()
        try:
            ok, out = run(op)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            ok, out = False, b"raised"
        wall_latencies.append(time.perf_counter() - t0)
        after = _probe()
        latencies.append(wall_latencies[-1] * 2.0 * REF_PROBE_S / (before + after))
        before = after
        outputs.append(out)
        failed += not ok
        if tracer is not None:
            csr_peak = max(csr_peak, spans.csr_bytes())
        if len(latencies) == WINDOW:
            on_window()
    digest = hashlib.sha256(b"".join(outputs[:WINDOW])).hexdigest()
    return latencies, wall_latencies, failed, digest, csr_peak


def _setup_times(wall_s: float):
    """(reference seconds, wall seconds) of the set-up that ends now."""
    probes = _START_PROBES + [_probe() for _ in range(5)]
    return wall_s * REF_PROBE_S / statistics.median(probes), wall_s


def _setup_in_fresh_process(args):
    """Set-up times of one more interpreter that imports and sets up the
    workload, then exits without running it."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "loadavg_start": os.getloadavg(),
    }

    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.make_workload(args.workload, args.seed, workdir)
    try:
        workload.setup()
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(prefixes=("repro", "workloads"))
        marks = {}
        counters_before = spans.counter_values()

        def on_window():
            marks["counters"] = spans.counter_values()
            marks["tally"] = dict(tracer.tally) if tracer is not None else {}

        gc.collect()
        setups = [_setup_times(time.perf_counter() - _T0)]
        if args.setup_only:
            print(json.dumps(setups[0]))
            return 0
        latencies, wall_latencies, failed, digest, csr_peak = _timed_phase(
            workload, args.seconds, tracer, on_window
        )
        counters_after = spans.counter_values()
        if tracer is not None:
            tracer.uninstall()
    finally:
        workload.close()

    ops = len(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50, p90 = _percentiles(latencies)
    wall_p50, wall_p90 = _percentiles(wall_latencies)
    info["loadavg_end"] = os.getloadavg()
    info.update({
        "samples": ops,
        "passes": ops // workload.PASS,
        "digest_ops": WINDOW,
        "digest": digest,
        "wall_ops_per_s": ops / sum(wall_latencies),
        "wall_op_p50_ms": wall_p50,
        "wall_op_p90_ms": wall_p90,
    })
    if args.trace:
        window = {k: marks["counters"][k] - counters_before[k] for k in counters_before}
        values = spans.per_layer_metrics(
            tracer,
            ops=ops,
            ops_seconds=sum(latencies),
            window=window,
            window_tally=marks["tally"],
            csr_peak_bytes=csr_peak,
            events_total=counters_after["packet.events"] - counters_before["packet.events"],
        )
        units = spans.PER_LAYER
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        info["spans"] = tracer.num_spans
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        setups += [_setup_in_fresh_process(args) for _ in range(SETUP_REPS - 1)]
        info["setup_reps_s"] = [ref for ref, _ in setups]
        info["wall_setup_reps_s"] = [wall for _, wall in setups]
        values = {
            "ops_per_s": ops / sum(latencies),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "setup_s": statistics.median(ref for ref, _ in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    print("# info " + json.dumps(info, sort_keys=True))
    for name, unit in units.items():
        print(f"# {args.workload:18s} {name:26s} {values[name]:>14.6g} {unit:6s} (n={ops})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
