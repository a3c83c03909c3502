"""Batched surviving-subgraph reachability against a pure-Python reference.

The reference below is the per-destination BFS the degraded and generic
providers used before reachability was batched: a deque BFS from the
destination over the surviving in-links, then a depth-first descent along
distance-decreasing surviving out-links.  Every answer of the batched
numpy BFS (:class:`repro.sim.paths.SurvivorReach`) must equal it exactly.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, List

import numpy as np
import pytest

from repro.sim import (
    FaultSet,
    GenericPathProvider,
    degraded_route_table,
    sample_link_faults,
    sample_switch_faults,
    split_connected,
)
from repro.sim import paths as sim_paths
from repro.sim.faults import DegradedPathProvider, fault_candidate_links


# --------------------------------------------------------------------- reference
def ref_distances(
    topo, dst: int, dead_links: FrozenSet[int] = frozenset(),
    dead_nodes: FrozenSet[int] = frozenset(),
) -> List[int]:
    dist = [-1] * topo.num_nodes
    if dst not in dead_nodes:
        dist[dst] = 0
        q = deque([dst])
        while q:
            u = q.popleft()
            for li in topo.in_links(u):
                if li in dead_links:
                    continue
                v = topo.link(li).src
                if dist[v] < 0 and v not in dead_nodes:
                    dist[v] = dist[u] + 1
                    q.append(v)
    return dist


def ref_descend(topo, src, dst, max_paths, dist, dead_links=frozenset()):
    out: List[List[int]] = []

    def descend(node: int, acc: List[int]) -> None:
        if len(out) >= max_paths:
            return
        if node == dst:
            out.append(list(acc))
            return
        for li in topo.out_links(node):
            if li in dead_links:
                continue
            v = topo.link(li).dst
            if dist[v] == dist[node] - 1:
                acc.append(li)
                descend(v, acc)
                acc.pop()
                if len(out) >= max_paths:
                    return

    if dist[src] >= 0:
        descend(src, [])
    return out


def ref_connected(topo, src, dst, faults: FaultSet, rows=None) -> bool:
    """Reference reachability; ``rows`` memoizes distance rows by destination."""
    if src == dst:
        return True
    if src in faults.dead_nodes or dst in faults.dead_nodes:
        return False
    rows = {} if rows is None else rows
    if dst not in rows:
        rows[dst] = ref_distances(topo, dst, faults.dead_links, faults.dead_nodes)
    return rows[dst][src] >= 0


# ------------------------------------------------------------------ fault kinds
def _fault_sets(name, topo):
    """Cable, node, board and raw one-way fault sets for one topology."""
    if fault_candidate_links(topo):
        cables = sample_link_faults(topo, min(4, len(fault_candidate_links(topo))), seed=3)
    else:  # single-switch fat tree: its only cables are access cables
        cables = FaultSet.from_links(topo, topo.out_links(topo.accelerators[9]))
    kinds = {"cable": cables}
    if topo.num_switches:
        kinds["node"] = sample_switch_faults(topo, 1, seed=1).union(
            FaultSet.from_nodes(topo, [topo.accelerators[5]])
        )
    else:
        kinds["node"] = FaultSet.from_nodes(topo, topo.accelerators[5:7])
    if name == "hammingmesh":
        kinds["board"] = FaultSet.from_boards(topo, [(0, 1), (2, 0)])
    # one direction only, as PacketNetwork._surviving_paths builds it: cut
    # every out-link of one accelerator but keep its in-links
    victim = topo.accelerators[3]
    kinds["oneway"] = FaultSet(dead_links=frozenset(topo.out_links(victim)))
    return kinds


def _cases(all_small_topologies):
    for name, topo in all_small_topologies.items():
        for kind, faults in _fault_sets(name, topo).items():
            yield f"{name}/{kind}", topo, faults


class TestSurvivorReachParity:
    def test_distance_rows_and_connected(self, all_small_topologies):
        for label, topo, faults in _cases(all_small_topologies):
            provider = DegradedPathProvider(topo, faults)
            nodes = range(topo.num_nodes)
            for dst in nodes:
                ref = ref_distances(topo, dst, faults.dead_links, faults.dead_nodes)
                row = provider._reach.distances_to(dst)
                assert row.dtype == np.int32, label
                assert row.tolist() == ref, (label, dst)
                rows = {dst: ref}
                for src in topo.accelerators:
                    assert provider.connected(src, dst) == ref_connected(
                        topo, src, dst, faults, rows
                    ), (label, src, dst)

    @staticmethod
    def _check_all_pairs(label, topo, faults, cache_entries):
        n = topo.num_nodes
        src, dst = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
        provider = DegradedPathProvider(topo, faults, dist_cache_entries=cache_entries)
        got = provider.connected_many(src, dst)
        rows = {}
        ref = [
            ref_connected(topo, s, d, faults, rows)
            for s, d in zip(src.tolist(), dst.tolist())
        ]
        assert got.tolist() == ref, label

    @pytest.mark.parametrize("cache_entries", [1024, 5])
    def test_batched_connected_across_chunks(
        self, all_small_topologies, cache_entries, monkeypatch
    ):
        # a small chunk puts several chunk boundaries into every family
        monkeypatch.setattr(sim_paths, "BFS_CHUNK", 7)
        for label, topo, faults in _cases(all_small_topologies):
            self._check_all_pairs(label, topo, faults, cache_entries)

    def test_query_larger_than_one_chunk(self, hx4mesh_2x3):
        topo = hx4mesh_2x3
        assert topo.num_nodes > sim_paths.BFS_CHUNK
        for kind, faults in _fault_sets("hammingmesh", topo).items():
            self._check_all_pairs(kind, topo, faults, 1024)

    def test_survivor_paths(self, all_small_topologies):
        for label, topo, faults in _cases(all_small_topologies):
            provider = DegradedPathProvider(topo, faults)
            accs = topo.accelerators
            for dst in accs[::3]:
                dist = ref_distances(topo, dst, faults.dead_links, faults.dead_nodes)
                for src in accs[1::2]:
                    if src == dst:
                        continue
                    for width in (1, 4):
                        ref = ref_descend(topo, src, dst, width, dist, faults.dead_links)
                        assert provider._survivor_paths(src, dst, width) == ref, (
                            label, src, dst, width,
                        )

    def test_split_connected(self, all_small_topologies):
        for label, topo, faults in _cases(all_small_topologies):
            table = degraded_route_table(topo, faults, max_paths=4)
            accs = topo.accelerators
            pairs = [(s, d) for s in accs for d in accs[::2]]
            ok, dead = split_connected(table, pairs)
            rows = {}
            ref = [ref_connected(topo, s, d, faults, rows) for s, d in pairs]
            assert ok == [i for i, c in enumerate(ref) if c], label
            assert dead == [i for i, c in enumerate(ref) if not c], label

    def test_generic_provider_paths(self, all_small_topologies):
        for name, topo in all_small_topologies.items():
            provider = GenericPathProvider(topo)
            accs = topo.accelerators
            for dst in accs[::5]:
                dist = ref_distances(topo, dst)
                assert provider._distances_to(dst).tolist() == dist, name
                for src in accs:
                    if src == dst:
                        continue
                    for width in (1, 4):
                        assert provider.paths(src, dst, max_paths=width) == ref_descend(
                            topo, src, dst, width, dist
                        ), (name, src, dst, width)
