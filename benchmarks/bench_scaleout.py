"""Scale-out simulation path: sparse route tables + batched max-min.

The large-N contract of the simulator substrate, asserted and recorded in
``BENCH_scaleout.json``:

* **Bounded route tables**: a 4,096-accelerator ``Hx2Mesh(2,2,32,32)``
  permutation sweep runs end-to-end through the experiment engine (the
  registered ``scaleout_permutation`` sweep) and every live route table
  together stays under a hard byte bound that the dense ``n**2`` pair
  index would exceed, while the whole run's peak RSS stays below a hard
  process cap.  The committed artifact carries the dense-pair-index
  projection next to the measured route-table bytes as the before/after
  evidence.
* **Batched solver**: stacking a fig12-style permutation sweep into one
  :meth:`~repro.sim.flowsim.FlowSimulator.maxmin_rates_batch` call is at
  least 2x faster than per-scenario solves, with bit-identical rates.
* **Zero-copy parallel**: the 4,096-endpoint sweep re-runs on a 2-worker
  persistent pool seeded with the parent's shared-memory route table.
  Workers attach instead of rebuilding: per-worker private route-table
  bytes stay below 25% of the shared footprint (an unseeded pool's workers
  rebuild their share of it), and the parallel payload is bit-identical to
  the serial one.
* **Sparse link-space solver**: job-local permutations (256-rank slabs of
  the 4,096-endpoint fabric — the paper's multi-job regime, a few percent
  of links active) solve at least 1.5x faster with the compacted
  link-space water-fill than with the dense O(L) path, bit-identically
  (``REPRO_SPARSE_LINKS=0`` pins the dense reference).
* **Headline scale**: the 16,384-accelerator ``Hx2Mesh(2,2,64,64)`` sweep
  (whose dense pair index alone would need ~7.7 GB) keeps its route tables
  under 4 GiB.  It costs tens of seconds, so it only re-runs when
  ``REPRO_BENCH_SCALEOUT_FULL=1`` is set (the baseline-regeneration mode);
  ordinary perf-smoke runs carry the committed baseline's headline
  evidence forward unchanged.

Fresh runs are compared against the committed baseline (within 2x,
absolute wall-clock — set ``REPRO_BENCH_SKIP_BASELINE=1`` on hardware
where that is meaningless).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.exp import Runner, Scenario, run_sweep
from repro.exp.cells import flowsim_batch_cell
from repro.exp.scenario import kernel_ref
from repro.sim import clear_route_tables, live_route_tables
from repro.sim.traffic import Flow

from _bench_utils import bench_runner, committed_artifact, run_once

#: CI-scale bounded sweep: 4,096 accelerators whose live route tables must
#: stay under a deliberately tight bound (the dense pair index alone would
#: take ~428 MB).
CI_TOPO = dict(a=2, b=2, x=32, y=32)
CI_TABLE_BOUND = 256 << 20
#: Hard cap on the whole process' peak RSS during the bounded sweep.
CI_RSS_CAP = 2 << 30
#: Headline scale (run with REPRO_BENCH_SCALEOUT_FULL=1): 16,384
#: accelerators whose route tables must stay under 4 GiB.
FULL_TOPO = dict(a=2, b=2, x=64, y=64)
FULL_TABLE_BOUND = 4 << 30
#: Zero-copy parallel contract: workers in a seeded warm pool must keep
#: their private route-table bytes below this fraction of the shared
#: footprint (an unseeded worker rebuilds its share of the table).
PARALLEL_WORKERS = 2
PARALLEL_TABLE_FRACTION = 0.25
#: Sparse link-space contract: job-local permutations (slab-rank blocks of
#: the 4k fabric) must solve at least this much faster than the dense path.
SPARSE_SPEEDUP_FLOOR = 1.5
SPARSE_SLAB = 256


def _eager_pair_index_bytes(a: int, b: int, x: int, y: int) -> int:
    """Projected bytes of the dense O(nodes^2) pair index (the "before")."""
    from repro.core import build_hammingmesh

    n = build_hammingmesh(a, b, x, y).num_nodes
    return 3 * 8 * n * n


def _bounded_sweep(topo: dict, bound: int, num_permutations: int) -> dict:
    """Run the registered scale-out sweep; gather route-table evidence."""
    clear_route_tables()
    # In-process on purpose (not bench_runner): the route table the sweep
    # builds must stay inspectable via live_route_tables() afterwards.
    run = run_sweep(
        "scaleout_permutation",
        runner=Runner(workers=1, cache=False),
        num_permutations=num_permutations,
        **topo,
    )
    stats = run.report.stats()
    evidence = {
        "topology": dict(topo),
        "accelerators": topo["a"] * topo["b"] * topo["x"] * topo["y"],
        "route_table_bound_bytes": bound,
        "eager_pair_index_bytes": _eager_pair_index_bytes(**topo),
        "route_table_bytes": sum(t.estimated_csr_bytes() for t in live_route_tables()),
        "peak_rss_bytes": stats["peak_rss_bytes"],
        "wall_seconds": stats["wall_seconds"],
        "num_permutations": num_permutations,
        "mean_fraction": run.payload["mean_fraction"],
        "min_fraction": run.payload["min_fraction"],
    }
    clear_route_tables()
    return evidence


def _assert_bounded(evidence: dict) -> None:
    """Live route tables fit the bound that the dense index would break."""
    bound = evidence["route_table_bound_bytes"]
    assert evidence["eager_pair_index_bytes"] > bound, (
        "the bound must be infeasible for a dense n**2 pair index"
    )
    assert 0 < evidence["route_table_bytes"] <= bound, (
        f"route tables hold {evidence['route_table_bytes']} bytes, above the "
        f"{bound}-byte bound"
    )


def _run_cell(kernel, **params):
    report = bench_runner().run(Scenario(kernel_ref(kernel), params))
    return report.values()[0]


def _worker_memory(report) -> dict:
    """Worst per-cell worker memory of a run (live cells only)."""
    table_bytes = [(c.memory or {}).get("route_table_bytes") for c in report.cells]
    anon = [(c.memory or {}).get("anon_growth_bytes") for c in report.cells]
    table_bytes = [b for b in table_bytes if b is not None]
    anon = [a for a in anon if a is not None]
    return {
        "route_table_bytes": max(table_bytes, default=None),
        "anon_growth_bytes": max(anon, default=None),
    }


def _parallel_sweep(topo: dict, num_permutations: int, workers: int) -> dict:
    """Cold serial build -> seeded warm pool -> unseeded rebuild; evidence.

    The cold pass builds the route table in-process; the warm pass
    re-runs the same grid on a persistent pool whose initializer seeds
    every worker with the table's shared-memory handle (workers attach
    zero-copy); the rebuild pass runs once more on an unseeded pool as the
    per-worker-memory "before".  All three payloads must agree
    bit-for-bit.
    """
    params = dict(num_permutations=num_permutations, **topo)
    clear_route_tables()
    cold = run_sweep(
        "scaleout_permutation", runner=Runner(workers=1, cache=False), **params
    )
    footprint = max((t.estimated_csr_bytes() for t in live_route_tables()), default=0)
    with Runner(workers=workers, cache=False) as runner:
        warm = run_sweep("scaleout_permutation", runner=runner, **params)
        shared_bytes = obs.snapshot()["gauges"].get("routing.shm_bytes", 0)
    clear_route_tables()  # unseeded "before": each worker rebuilds its share
    with Runner(workers=workers, cache=False) as runner:
        rebuild = run_sweep("scaleout_permutation", runner=runner, **params)
    evidence = {
        "workers": workers,
        "num_permutations": num_permutations,
        "table_footprint_bytes": int(footprint),
        "shared_segment_bytes": int(shared_bytes),
        "warm_worker": _worker_memory(warm.report),
        "rebuild_worker": _worker_memory(rebuild.report),
        "cold_wall_seconds": cold.report.stats()["wall_seconds"],
        "warm_wall_seconds": warm.report.stats()["wall_seconds"],
        "warm_chunks": warm.report.chunks,
        "bit_identical": cold.payload == warm.payload == rebuild.payload,
    }
    clear_route_tables()
    return evidence


def _slab_permutation(base: int, slab: int, seed: int) -> list:
    """A random derangement among ranks ``[base, base + slab)``."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(slab)
    while np.any(perm == np.arange(slab)):
        perm = np.roll(perm, 1)
    return [Flow(base + i, base + int(perm[i])) for i in range(slab)]


def _sparse_vs_dense(
    topo: dict, *, slab: int = SPARSE_SLAB, scenarios: int = 8, rounds: int = 3
) -> dict:
    """Job-local permutations on the full fabric: compacted vs dense solves.

    Permutations among ``slab``-rank blocks of the fabric model the
    paper's multi-job regime: each scenario touches a few percent of the
    links, which is where the dense solver's O(L) per-round arrays waste
    their work.  Both paths run on identical inputs (min-of-``rounds``
    timing after a warm-up that routes the pairs and builds the
    assignments) and must agree bit-for-bit.
    """
    from repro.core import build_hammingmesh
    from repro.sim import FlowSimulator

    clear_route_tables()
    fabric = build_hammingmesh(**topo)
    p = fabric.num_accelerators
    flow_sets = [
        _slab_permutation((s % (p // slab)) * slab, slab, s) for s in range(scenarios)
    ]
    sim = FlowSimulator(fabric, max_paths=8)

    def timed(fn, flag):
        prev = os.environ.get("REPRO_SPARSE_LINKS")
        os.environ["REPRO_SPARSE_LINKS"] = flag
        try:
            result = fn()  # warm-up: routes the pairs, fills assignment caches
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                result = fn()
                best = min(best, time.perf_counter() - start)
        finally:
            if prev is None:
                os.environ.pop("REPRO_SPARSE_LINKS", None)
            else:
                os.environ["REPRO_SPARSE_LINKS"] = prev
        return result, best

    solo_dense, solo_dense_s = timed(lambda: sim.maxmin_rates(flow_sets[0]), "0")
    solo_sparse, solo_sparse_s = timed(lambda: sim.maxmin_rates(flow_sets[0]), "1")
    batch_dense, batch_dense_s = timed(lambda: sim.maxmin_rates_batch(flow_sets), "0")
    batch_sparse, batch_sparse_s = timed(lambda: sim.maxmin_rates_batch(flow_sets), "1")

    pairs = [(solo_dense, solo_sparse)] + list(zip(batch_dense, batch_sparse))
    bitwise = all(
        np.array_equal(d.flow_rates, s.flow_rates)
        and np.array_equal(d.link_utilization, s.link_utilization)
        and int(d.bottleneck_link) == int(s.bottleneck_link)
        for d, s in pairs
    )
    max_abs = max(
        float(np.max(np.abs(np.asarray(d.flow_rates) - np.asarray(s.flow_rates))))
        for d, s in pairs
    )
    num_links = len(solo_dense.link_utilization)
    evidence = {
        "fabric_accelerators": int(p),
        "slab_ranks": slab,
        "scenarios": scenarios,
        "active_link_fraction": float(
            np.count_nonzero(solo_dense.link_utilization) / num_links
        ),
        "solo": {
            "dense_seconds": solo_dense_s,
            "sparse_seconds": solo_sparse_s,
            "speedup": solo_dense_s / solo_sparse_s,
        },
        "batch": {
            "dense_seconds": batch_dense_s,
            "sparse_seconds": batch_sparse_s,
            "speedup": batch_dense_s / batch_sparse_s,
        },
        "bit_identical": bitwise,
        "max_abs_diff": max_abs,
    }
    clear_route_tables()
    return evidence


@pytest.mark.benchmark(group="scaleout")
def test_scaleout_path(benchmark):
    """Table bound + batch + headline contracts, recorded as one artifact."""
    # Read the committed baseline before run_once regenerates the artifact.
    baseline = committed_artifact("scaleout")

    def run():
        bounded = _bounded_sweep(CI_TOPO, CI_TABLE_BOUND, num_permutations=4)
        serial = _run_cell(flowsim_batch_cell, impl="serial")
        batched = _run_cell(flowsim_batch_cell, impl="batched")
        batch = {
            "before": serial,
            "after": batched,
            "speedup": serial["seconds"] / batched["seconds"],
        }
        parallel = _parallel_sweep(CI_TOPO, num_permutations=4, workers=PARALLEL_WORKERS)
        sparse = _sparse_vs_dense(CI_TOPO)
        headline = None
        if os.environ.get("REPRO_BENCH_SCALEOUT_FULL"):
            headline = _bounded_sweep(FULL_TOPO, FULL_TABLE_BOUND, num_permutations=2)
        elif baseline and isinstance(baseline.get("result"), dict):
            headline = baseline["result"].get("headline")
        return {
            "bounded": bounded,
            "batch": batch,
            "parallel": parallel,
            "sparse": sparse,
            "headline": headline,
        }

    data = run_once(benchmark, run, record="scaleout")
    bounded, batch = data["bounded"], data["batch"]
    parallel, sparse = data["parallel"], data["sparse"]
    print(
        f"\nbounded sweep ({bounded['accelerators']} accels): "
        f"route tables {bounded['route_table_bytes'] / 1e6:.1f} MB "
        f"(eager projection {bounded['eager_pair_index_bytes'] / 1e6:.0f} MB), "
        f"peak RSS {bounded['peak_rss_bytes'] / 1e6:.0f} MB, "
        f"{bounded['wall_seconds']:.1f}s"
    )
    print(
        f"batched max-min: serial {batch['before']['seconds'] * 1e3:.0f} ms, "
        f"batched {batch['after']['seconds'] * 1e3:.0f} ms "
        f"({batch['speedup']:.2f}x)"
    )
    warm_tb = parallel["warm_worker"]["route_table_bytes"]
    rebuild_tb = parallel["rebuild_worker"]["route_table_bytes"]
    print(
        f"zero-copy parallel ({parallel['workers']} workers, "
        f"{parallel['warm_chunks']} chunks): shared table "
        f"{parallel['table_footprint_bytes'] / 1e6:.1f} MB, per-worker private "
        f"{(warm_tb or 0) / 1e6:.2f} MB warm vs {(rebuild_tb or 0) / 1e6:.2f} MB "
        f"rebuild, bit-identical={parallel['bit_identical']}"
    )
    print(
        f"sparse link-space ({sparse['slab_ranks']}-rank slabs, "
        f"{sparse['active_link_fraction'] * 100:.1f}% links active): "
        f"solo {sparse['solo']['speedup']:.2f}x, "
        f"batch {sparse['batch']['speedup']:.2f}x, "
        f"bit-identical={sparse['bit_identical']}"
    )

    # -- route-table bound contract ----------------------------------------
    _assert_bounded(bounded)
    assert bounded["peak_rss_bytes"] is not None
    assert bounded["peak_rss_bytes"] < CI_RSS_CAP, (
        f"peak RSS {bounded['peak_rss_bytes'] / 1e9:.2f} GB breached the "
        f"{CI_RSS_CAP / 1e9:.0f} GB cap"
    )
    assert 0.0 < bounded["min_fraction"] <= bounded["mean_fraction"] <= 1.0

    # -- batched-solver contract -----------------------------------------
    # The batch solver is bit-identical to the serial one, so the means
    # must agree exactly, not approximately.
    assert batch["after"]["mean_rates"] == batch["before"]["mean_rates"]
    assert batch["speedup"] >= 2.0, (
        f"batched max-min is only {batch['speedup']:.2f}x the serial solver"
    )

    # -- zero-copy parallel contract ---------------------------------------
    assert parallel["bit_identical"], (
        "parallel (warm + rebuild) payloads diverged from the serial run"
    )
    assert parallel["table_footprint_bytes"] > 0
    assert parallel["warm_chunks"] >= 2, (
        "single-topology sweep did not split across workers"
    )
    assert warm_tb is not None and rebuild_tb is not None
    cap = PARALLEL_TABLE_FRACTION * parallel["table_footprint_bytes"]
    assert warm_tb <= cap, (
        f"seeded worker rebuilt {warm_tb / 1e6:.2f} MB of route table, above "
        f"{PARALLEL_TABLE_FRACTION:.0%} of the {cap / PARALLEL_TABLE_FRACTION / 1e6:.1f} MB "
        f"shared footprint"
    )
    assert warm_tb < rebuild_tb, (
        "seeded workers should build strictly less route table than unseeded ones"
    )

    # -- sparse link-space contract ----------------------------------------
    assert sparse["bit_identical"], "sparse solver diverged from the dense path"
    assert sparse["max_abs_diff"] <= 1e-12
    assert sparse["solo"]["speedup"] >= SPARSE_SPEEDUP_FLOOR, (
        f"sparse solo solve is only {sparse['solo']['speedup']:.2f}x dense"
    )
    assert sparse["batch"]["speedup"] >= SPARSE_SPEEDUP_FLOOR, (
        f"sparse batch solve is only {sparse['batch']['speedup']:.2f}x dense"
    )

    # -- headline evidence ------------------------------------------------
    headline = data["headline"]
    if headline is not None:
        assert headline["route_table_bound_bytes"] == FULL_TABLE_BOUND
        _assert_bounded(headline)

    if baseline and isinstance(baseline.get("result"), dict):
        committed = baseline["result"].get("bounded", {}).get("wall_seconds")
        if committed:
            assert bounded["wall_seconds"] <= committed * 2.0, (
                f"bounded sweep took {bounded['wall_seconds']:.1f}s, more "
                f"than 2x the committed baseline {committed:.1f}s"
            )
