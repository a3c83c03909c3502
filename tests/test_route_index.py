"""The route table's sparse pair index against a first-contact reference.

A :class:`RouteTable` answers every query from its CSR arrays and a sparse
pair index (sorted keys plus a dict of pairs not yet merged).  These tests
pin every query to a plain reference that calls
``policy.routes(provider, src, dst, max_paths)`` in first-contact order,
including the hit/miss counters, and bound the table's memory by the pairs
it routes rather than by the square of the node count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import FlowSimulator, RouteTable, random_permutation
from repro.sim.paths import path_provider_for
from repro.sim.policy import get_policy
from repro.topology.hyperx import build_hyperx2d

MAX_PATHS = 4


class _ReferenceRoutes:
    """Routes stored in first-contact order, one ``policy.routes`` per pair."""

    def __init__(self, topo, policy, max_paths):
        self.provider = path_provider_for(topo)
        self.policy = get_policy(policy)
        self.max_paths = max_paths
        self.index = {}  # (src, dst) -> (first path id, path count, minimal count)
        self.path_links = []
        self.weights = []
        self.hits = 0
        self.misses = 0

    def entry(self, src, dst):
        if (src, dst) in self.index:
            self.hits += 1
            return self.index[(src, dst)]
        routes = self.policy.routes(self.provider, src, dst, self.max_paths)
        self.misses += 1
        entry = (len(self.path_links), len(routes.paths), routes.num_minimal)
        self.path_links.extend(routes.paths)
        self.weights.extend(routes.weights)
        self.index[(src, dst)] = entry
        return entry

    def paths(self, src, dst, max_paths=None):
        first, count, _nmin = self.entry(src, dst)
        if max_paths is not None:
            count = min(count, max_paths)
        return self.path_links[first : first + count]


def _pairs(topo, count=12):
    """A deterministic spread of distinct-endpoint accelerator pairs."""
    accels = list(topo.accelerators)
    step = max(1, len(accels) // count)
    pairs = [
        (accels[i], accels[(3 * i + len(accels) // 2 + 1) % len(accels)])
        for i in range(0, step * count, step)
    ]
    return [(s, d) for s, d in pairs if s != d]


def _arrays(pairs):
    return (
        np.array([s for s, _ in pairs], dtype=np.int64),
        np.array([d for _, d in pairs], dtype=np.int64),
    )


class TestRouteIndexIdentity:
    def test_queries_match_reference_all_families(self, all_small_topologies):
        for policy in ("minimal", "ugal"):
            for name, topo in all_small_topologies.items():
                label = f"{name}/{policy}"
                table = RouteTable(topo, max_paths=MAX_PATHS, policy=policy)
                ref = _ReferenceRoutes(topo, policy, MAX_PATHS)
                pairs = _pairs(topo)
                assert len(pairs) >= 8, label

                # Scalar first contact: these pairs wait in the pending dict.
                for s, d in pairs[:4]:
                    assert table.paths(s, d) == ref.paths(s, d), label
                assert table.paths(pairs[0][0], pairs[0][0]) == [[]], label

                # One vectorized call over pending, new and repeated pairs.
                batch = pairs[2:] + [pairs[-1], pairs[5], pairs[0]]
                first, npaths = table.pair_arrays(*_arrays(batch))
                expected = [ref.entry(s, d) for s, d in batch]
                assert first.dtype == np.int64 and npaths.dtype == np.int64, label
                assert first.tolist() == [e[0] for e in expected], label
                assert npaths.tolist() == [e[1] for e in expected], label

                for s, d in pairs:
                    assert table.pair_slice(s, d) == ref.entry(s, d)[:2], label
                for s, d in pairs[:3]:
                    lists = table.pair_path_lists(s, d)
                    assert lists == ref.paths(s, d), label
                    assert table.pair_path_lists(s, d) is lists, label
                    ref.entry(s, d)
                    narrowed = table.pair_path_lists(s, d, max_paths=1)
                    assert narrowed == ref.paths(s, d, max_paths=1), label

                # A scalar miss after the merge, then a vectorized hit on it.
                extra = (pairs[1][1], pairs[1][0])
                assert table.pair_slice(*extra) == ref.entry(*extra)[:2], label
                first, _npaths = table.pair_arrays(*_arrays([extra, pairs[0]]))
                assert first.tolist() == [ref.entry(*extra)[0], ref.entry(*pairs[0])[0]], label

                path_ids = np.arange(len(ref.path_links), dtype=np.int64)
                links, lengths = table.gather_links(path_ids)
                assert links.tolist() == [li for p in ref.path_links for li in p], label
                assert lengths.tolist() == [len(p) for p in ref.path_links], label
                assert table.gather_path_weights(path_ids).tolist() == ref.weights, label
                nmin = table.pair_minimal_counts(*_arrays(batch))
                assert nmin.tolist() == [ref.index[p][2] for p in batch], label

                assert table.stats.hits == ref.hits, label
                assert table.stats.misses == ref.misses, label
                assert table.num_pairs_routed == len(ref.index), label

    def test_misses_past_the_merge_threshold(self, hx2mesh_4x4):
        """Hundreds of misses merge on their own, mid-call too, and stay exact."""
        table = RouteTable(hx2mesh_4x4, max_paths=MAX_PATHS)
        ref = _ReferenceRoutes(hx2mesh_4x4, "minimal", MAX_PATHS)
        accels = list(hx2mesh_4x4.accelerators)
        pairs = [(s, d) for s in accels[:16] for d in accels if s != d]
        # New pairs sort before the old ones, so merging them moves every
        # old pair's row in the sorted index.
        old, new = pairs[400:1000], pairs[:400]
        for s, d in old:
            assert table.pair_slice(s, d) == ref.entry(s, d)[:2]
        for s, d in old[::7]:
            assert table.paths(s, d) == ref.paths(s, d)
        # Merged, pending and new pairs in one call, with enough new ones
        # to fill the pending dict while the call runs.
        mixed = [p for pair in zip(old[::-1][:400], new) for p in pair]
        first, npaths = table.pair_arrays(*_arrays(mixed))
        assert first.tolist() == [ref.entry(s, d)[0] for s, d in mixed]
        assert npaths.tolist() == [ref.index[p][1] for p in mixed]
        nmin = table.pair_minimal_counts(*_arrays(mixed))
        assert nmin.tolist() == [ref.index[p][2] for p in mixed]
        assert (table.stats.hits, table.stats.misses) == (ref.hits, ref.misses)
        assert table.num_pairs_routed == len(old) + len(new)

    def test_random_interleavings_match_reference(self, hx2mesh_4x4):
        """Seeded mixes of scalar and vectorized queries across many merges."""
        rng = np.random.default_rng(7)
        table = RouteTable(hx2mesh_4x4, max_paths=MAX_PATHS)
        ref = _ReferenceRoutes(hx2mesh_4x4, "minimal", MAX_PATHS)
        accels = np.array(hx2mesh_4x4.accelerators)
        for _ in range(150):
            src = accels[rng.integers(0, len(accels), rng.integers(1, 40))]
            dst = accels[rng.integers(0, len(accels), len(src))]
            batch = [(int(s), int(d)) for s, d in zip(src, dst) if s != d]
            if rng.random() < 0.5:
                first, npaths = table.pair_arrays(*_arrays(batch))
                expected = [ref.entry(s, d) for s, d in batch]
                assert first.tolist() == [e[0] for e in expected]
                assert npaths.tolist() == [e[1] for e in expected]
            else:
                for s, d in batch:
                    assert table.paths(s, d) == ref.paths(s, d)
        assert (table.stats.hits, table.stats.misses) == (ref.hits, ref.misses)
        path_ids = np.arange(len(ref.path_links), dtype=np.int64)
        links, _lengths = table.gather_links(path_ids)
        assert links.tolist() == [li for p in ref.path_links for li in p]

    def test_minimal_counts_need_routed_pairs(self, hx2mesh_4x4):
        table = RouteTable(hx2mesh_4x4, max_paths=MAX_PATHS)
        s, d = _pairs(hx2mesh_4x4)[0]
        with pytest.raises(KeyError):
            table.pair_minimal_counts(*_arrays([(s, d)]))

    def test_flow_rates_independent_of_route_order(self, all_small_topologies):
        """Path ids follow first contact; the solved rates do not."""
        for name, topo in all_small_topologies.items():
            flows = random_permutation(topo.num_accelerators, seed=3)
            reversed_table = RouteTable(topo, max_paths=MAX_PATHS)
            for f in reversed(flows):
                reversed_table.pair_slice(topo.accelerators[f.src], topo.accelerators[f.dst])
            forward = FlowSimulator(topo, table=RouteTable(topo, max_paths=MAX_PATHS))
            backward = FlowSimulator(topo, table=reversed_table)
            a = forward.maxmin_rates(flows)
            b = backward.maxmin_rates(flows)
            assert np.array_equal(a.flow_rates, b.flow_rates), name
            assert np.array_equal(a.link_utilization, b.link_utilization), name
            assert a.bottleneck_link == b.bottleneck_link, name


class TestRouteIndexMemory:
    def test_permutation_on_small_hyperx_stays_small(self):
        """One 1,024-pair permutation on the 2,048-node HyperX: < 4 MiB.

        A dense ``n**2`` pair index would hold 96 MiB here before routing
        a single pair.
        """
        topo = build_hyperx2d(32, 32, terminals=1, link_capacity=4.0)
        assert topo.num_nodes == 2048
        table = RouteTable(topo)
        FlowSimulator(topo, table=table).assign(
            random_permutation(topo.num_accelerators, seed=0)
        )
        assert table.num_pairs_routed == topo.num_accelerators
        assert table.estimated_csr_bytes() < 4 << 20
