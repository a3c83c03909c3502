"""Scale-out path tests: batched max-min and wave kernels.

The route table's sparse pair index is pinned in ``test_route_index``; this
module covers the other legs of the scale-out contract:

* :meth:`FlowSimulator.maxmin_rates_batch` returns bit-identical results to
  per-scenario solves, both called directly and through the experiment
  engine's batch grouping;
* the packet wave kernel registry resolves numpy/python (and numba only
  when importable), with exact cross-kernel parity.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.exp import Runner, run_sweep
from repro.exp.cells import maxmin_permutation_cell
from repro.exp.recording import MemoryProbe
from repro.sim import (
    FlowSimulator,
    available_wave_kernels,
    clear_route_tables,
    random_permutation,
    resolve_wave_kernel,
)
from repro.sim.wavekernel import wave_ends_numpy, wave_ends_python


def _has_numba() -> bool:
    try:
        import numba  # noqa: F401

        return True
    except ImportError:
        return False


# --------------------------------------------------------------------------
# Batched max-min
# --------------------------------------------------------------------------
class TestMaxminBatch:
    def test_batch_bit_identical_fig12_grid(self, all_small_topologies):
        for name, topo in all_small_topologies.items():
            sim = FlowSimulator(topo, max_paths=4)
            flow_sets = [
                random_permutation(topo.num_accelerators, seed=7 + p) for p in range(4)
            ]
            solo = [sim.maxmin_rates(flows) for flows in flow_sets]
            batch = sim.maxmin_rates_batch(flow_sets)
            assert len(batch) == len(solo)
            for a, b in zip(solo, batch):
                assert np.array_equal(a.flow_rates, b.flow_rates), name
                assert np.array_equal(a.link_utilization, b.link_utilization), name
                assert a.bottleneck_link == b.bottleneck_link, name

    def test_batch_handles_empty_and_mixed_scenarios(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        perm = random_permutation(hx2mesh_4x4.num_accelerators, seed=11)
        flow_sets = [perm, [], perm[: len(perm) // 2]]
        solo = [sim.maxmin_rates(flows) for flows in flow_sets]
        batch = sim.maxmin_rates_batch(flow_sets)
        for a, b in zip(solo, batch):
            assert np.array_equal(a.flow_rates, b.flow_rates)
            assert np.array_equal(a.link_utilization, b.link_utilization)
        assert sim.maxmin_rates_batch([]) == []

    def test_batch_observes_instruments(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        flow_sets = [
            random_permutation(hx2mesh_4x4.num_accelerators, seed=p) for p in range(3)
        ]
        solves_before = obs.counter("flowsim.maxmin_solves").value
        hist = obs.histogram("flowsim.batch_size")
        count_before = hist.count
        was_enabled = obs.is_enabled()
        obs.enable()
        try:
            sim.maxmin_rates_batch(flow_sets)
        finally:
            if not was_enabled:
                obs.disable()
        assert obs.counter("flowsim.maxmin_solves").value == solves_before + 3
        assert hist.count == count_before + 1
        assert hist.max >= 3


# --------------------------------------------------------------------------
# Experiment-engine batching (the scale-out sweep path)
# --------------------------------------------------------------------------
class TestEngineBatching:
    def test_runner_batches_chunk_and_matches_solo(self):
        clear_route_tables()
        params = dict(a=2, b=2, x=2, y=2, max_paths=4)
        batched_before = obs.counter("exp.cells_batched").value
        run = run_sweep(
            "scaleout_permutation",
            runner=Runner(workers=1, cache=False),
            num_permutations=3,
            **params,
        )
        assert obs.counter("exp.cells_batched").value == batched_before + 3
        solo = [maxmin_permutation_cell(seed=s, **params) for s in range(3)]
        assert run.payload["permutations"] == solo
        assert run.payload["num_permutations"] == 3
        fractions = [p["mean_fraction"] for p in solo]
        assert run.payload["mean_fraction"] == pytest.approx(np.mean(fractions))
        # Process-parallel execution produces the same bits as the batched
        # in-process chunk and the solo calls.
        parallel = run_sweep(
            "scaleout_permutation",
            runner=Runner(workers=2, cache=False),
            num_permutations=3,
            **params,
        )
        assert parallel.payload["permutations"] == solo
        clear_route_tables()

    def test_sweep_reports_peak_memory(self):
        run = run_sweep(
            "scaleout_permutation",
            runner=Runner(workers=1, cache=False),
            a=2,
            b=2,
            x=2,
            y=2,
            max_paths=4,
            num_permutations=2,
        )
        stats = run.report.stats()
        assert stats["peak_rss_bytes"] is not None
        assert stats["peak_rss_bytes"] > 0
        clear_route_tables()

    def test_memory_probe_tracks_rss(self):
        with MemoryProbe() as probe:
            ballast = np.ones(1 << 16)
        assert probe.peak_rss_bytes > 0
        assert probe.rss_growth_bytes >= 0
        assert ballast.shape == (1 << 16,)


# --------------------------------------------------------------------------
# Wave kernels
# --------------------------------------------------------------------------
class TestWaveKernels:
    def test_registry_always_has_portable_kernels(self):
        kernels = available_wave_kernels()
        assert kernels["numpy"] is wave_ends_numpy
        assert kernels["python"] is wave_ends_python
        assert ("numba" in kernels) == _has_numba()

    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_PACKET_KERNEL", raising=False)
        assert resolve_wave_kernel() is wave_ends_numpy
        monkeypatch.setenv("REPRO_PACKET_KERNEL", "python")
        assert resolve_wave_kernel() is wave_ends_python
        # An explicit name wins over the environment.
        assert resolve_wave_kernel("numpy") is wave_ends_numpy
        with pytest.raises(ValueError):
            resolve_wave_kernel("fortran")

    @pytest.mark.skipif(_has_numba(), reason="numba importable: request succeeds")
    def test_numba_request_fails_loudly_when_missing(self):
        with pytest.raises(RuntimeError, match="numba"):
            resolve_wave_kernel("numba")

    def test_kernel_parity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(1, 60))
            counts = rng.integers(1, 5, size=int(rng.integers(1, 12)))
            counts = counts[: np.searchsorted(np.cumsum(counts), k) + 1]
            total = int(counts.sum())
            starts = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(np.int64)
            base = rng.random(total)
            sser = rng.random(total)
            out_np = wave_ends_numpy(base, sser, starts, counts.astype(np.int64))
            out_py = wave_ends_python(base, sser, starts, counts.astype(np.int64))
            assert np.array_equal(out_np, out_py)
