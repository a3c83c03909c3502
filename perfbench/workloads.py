"""The four closed-loop benchmark workloads over the what-if stack.

Each workload is one object with the same small surface:

* ``setup()`` builds everything the timed phase needs (topologies,
  simulators, warm route tables, cache directory), starting from an empty
  route-table memo.
* ``ops()`` yields an endless stream of operation inputs in passes of
  ``PASS`` operations, each pass a sequence of blocks.  Pass ``p`` always
  holds the same blocks of operations, fixed by the workload and ``p``
  alone; the workload seed only shuffles the order within each block.  The
  timed phase runs whole passes, so every run of a workload does the same
  work whatever its seed, and only the host's speed moves its figures.
  The same seed always yields the same stream; the library only ever sees
  the generated inputs.
* ``run(op)`` executes one operation through the public ``repro`` API and
  returns ``(ok, out)``: whether every output check passed and a byte
  string summarising the simulated outputs (fed to the run digest).
* ``close()`` releases what ``setup`` created on disk.

Passes are balanced: every family, simulator, message set, size or policy
appears equally often in one.

The route-table memo (``repro.sim.routing.route_table_for``) keeps every
table, and through it every topology, alive until ``clear_route_tables()``
-- its weak topology keys never expire because each table holds its
topology strongly.  Workloads whose operations build fresh topologies
(``topology_sweep``, ``cluster_twin``) therefore open a new session with
``clear_route_tables()`` at the start of every block: the retention still
shows in ``peak_rss_mb`` (one block's worth of tables), while a run's
memory stays bounded and independent of how many operations it completes
and of their order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import struct
from pathlib import Path
from typing import Iterator, List, Tuple

import numpy as np

from repro.analysis.clusters import cluster_configs
from repro.analysis.figures import fig12_cell
from repro.cluster import ClusterSimConfig, ClusterSimulator
from repro.cluster.coupling import NetworkCoupling
from repro.cluster.failures import FailureModel
from repro.core.hammingmesh import build_hammingmesh
from repro.exp import ResultCache, Runner, Scenario, canonical_json, kernel_ref
from repro.sim.faults import DegradedPathProvider, sample_link_faults
from repro.sim.flowsim import FlowSimulator
from repro.sim.network import PacketNetwork, PacketSimConfig
from repro.sim.routing import clear_route_tables
from repro.sim.search import anneal_adversary
from repro.sim.traffic import alltoall_phase, random_permutation, ring_neighbor_flows

__all__ = ["WORKLOADS", "make_workload"]

#: receive fractions are ratios of float sums; allow for summation round-off
#: above the exact upper bound of 1
_FRACTION_SLACK = 1e-9


def _floats(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


class _Workload:
    name = ""
    PASS = 0
    #: separates the random streams of the workloads
    SALT = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def _blocks(self, index: int) -> List[list]:
        """The ``PASS`` operations of pass ``index`` as blocks, before
        shuffling."""
        raise NotImplementedError

    def _pass_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.SALT, index])

    def ops(self) -> Iterator[tuple]:
        order = np.random.default_rng([int(self.seed), self.SALT])
        for index in itertools.count():
            for block in self._blocks(index):
                for i in order.permutation(len(block)):
                    yield block[int(i)]

    def close(self) -> None:
        pass


class TopologySweep(_Workload):
    """Fig 12 / Table II design-space queries through the experiment engine.

    One operation is one ``Runner.run`` of one ``fig12_cell`` query (one of
    the eight 1,024-accelerator ``small`` families, one permutation,
    ``max_paths=8``, policy ``minimal``).  A pass is ten blocks of eleven
    operations; a block holds one query per family plus three repeats of
    them, and is one routing session.  Whichever copy of a repeated query
    runs second is answered by the run's fresh on-disk cache.
    """

    name = "topology_sweep"
    SALT = 0x5EE9
    _REPEATS = 3
    BLOCK = 8 + _REPEATS
    PASS = 10 * BLOCK

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.configs = {c.key: c for c in cluster_configs("small")}
        self.families = sorted(self.configs)
        self.runner = None
        self._first: dict = {}
        self._done = 0

    def setup(self) -> None:
        # Warm every family's topology construction and the cold query path
        # without touching the run's cache.
        clear_route_tables()
        for key in self.families:
            self.configs[key].build()
        fig12_cell(
            cluster="small", key="torus", num_permutations=1, max_paths=8,
            seed=0, backend="flow", policy="minimal",
        )
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.runner = Runner(workers=1, cache=ResultCache(self.workdir / "cache"))

    def _blocks(self, index: int) -> List[List[Tuple[str, int]]]:
        rng = self._pass_rng(index)
        blocks = []
        for b in range(self.PASS // self.BLOCK):
            fresh = [(key, 1 + 1000 * index + 100 * b + f) for f, key in enumerate(self.families)]
            repeats = rng.choice(len(fresh), self._REPEATS, replace=False)
            blocks.append(fresh + [fresh[int(i)] for i in repeats])
        return blocks

    def run(self, op: Tuple[str, int]) -> Tuple[bool, bytes]:
        key, perm_seed = op
        if self._done % self.BLOCK == 0:
            clear_route_tables()
        self._done += 1
        repeat = op in self._first
        scenario = Scenario(
            kernel_ref(fig12_cell),
            {
                "cluster": "small", "key": key, "num_permutations": 1,
                "max_paths": 8, "seed": perm_seed, "backend": "flow",
                "policy": "minimal",
            },
        )
        report = self.runner.run(scenario)
        cell = report.cells[0]
        values = cell.value if cell.error is None else None
        ok = (
            values is not None
            and cell.cached == repeat
            and len(values) == self.configs[key].num_accelerators
            and all(0.0 < v <= 1.0 + _FRACTION_SLACK for v in values)
        )
        out = hashlib.sha256(canonical_json(values).encode()).digest()
        if repeat:
            ok = ok and self._first[op] == out
        else:
            self._first[op] = out
        return ok, out

    def close(self) -> None:
        if self.runner is not None:
            self.runner.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class AdversarySearch(_Workload):
    """Annealed adversary searches on warm, prebuilt flow simulators.

    One operation is one ``anneal_adversary(sim, steps=64, batch=16,
    seed=k)``; a pass holds twenty searches per simulator.
    """

    name = "adversary_search"
    SALT = 0xAD75
    _PER_MEMBER = 20
    _MEMBERS = (
        ("hx2mesh", "minimal"),
        ("hx4mesh", "minimal"),
        ("torus", "minimal"),
        ("ft_tapered50", "minimal"),
        ("hx2mesh", "ugal"),
    )
    PASS = len(_MEMBERS) * _PER_MEMBER

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.configs = {c.key: c for c in cluster_configs("small")}
        self.sims: List[FlowSimulator] = []

    def setup(self) -> None:
        # Fresh topologies: their route tables start empty, and one warm-up
        # search per simulator fills them.
        clear_route_tables()
        self.sims = []
        for key, policy in self._MEMBERS:
            sim = FlowSimulator(self.configs[key].build(), policy=policy, max_paths=8)
            anneal_adversary(sim, steps=64, batch=16, seed=0)
            self.sims.append(sim)

    def _blocks(self, index: int) -> List[List[Tuple[int, int]]]:
        return [[
            (member, 1 + 1000 * index + j)
            for member in range(len(self._MEMBERS))
            for j in range(self._PER_MEMBER)
        ]]

    def run(self, op: Tuple[int, int]) -> Tuple[bool, bytes]:
        member, search_seed = op
        res = anneal_adversary(self.sims[member], steps=64, batch=16, seed=search_seed)
        ok = (
            res.best_objective <= res.seed_objective
            and res.best_objective > 0.0
            and res.steps == 64
            and res.warm_evals + res.cold_evals == res.steps
        )
        out = hashlib.sha256(
            _floats(res.best_objective, res.seed_objective)
            + struct.pack("<4q", member, res.accepted, res.warm_evals, res.cold_evals)
            + np.asarray([f.dst for f in res.best_flows], dtype=np.int64).tobytes()
        ).digest()
        return ok, out

    def close(self) -> None:
        self.sims = []


class PacketCollective(_Workload):
    """Packet-level message sets on a prebuilt 64-accelerator Hx2Mesh.

    One operation is one fresh ``PacketNetwork`` run to completion.  A pass
    holds every (message set, size, policy) combination once; three
    operations per pass also kill two cables mid-flight.
    """

    name = "packet_collective"
    SALT = 0xFAC7
    _SETS = ("permutation", "alltoall", "ring")
    _SIZES = (8 * 1024, 32 * 1024, 128 * 1024, 256 * 1024)
    #: adaptive candidates per pair.  Set-up enumerates every pair's UGAL
    #: detours, which costs about four times as much at 8 paths as at 2.
    _MAX_PATHS = 2
    _POLICIES = ("minimal", "ugal")
    _COMBOS = list(itertools.product(_SETS, _SIZES, _POLICIES))
    PASS = len(_COMBOS)
    _FAULTS_PER_PASS = 3
    _FAULT_CABLES = 2
    _RANKS = 64

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.topo = None
        self.configs = {
            p: PacketSimConfig(policy=p, max_paths=self._MAX_PATHS) for p in self._POLICIES
        }

    def setup(self) -> None:
        # A fresh topology (cold tables); every ordered pair's candidate
        # paths are enumerated under each policy, and one small permutation
        # warms the simulator itself.
        clear_route_tables()
        self.topo = build_hammingmesh(2, 2, 4, 4)
        nodes = list(self.topo.accelerators)
        for config in self.configs.values():
            net = PacketNetwork(self.topo, config=config)
            for src in nodes:
                for dst in nodes:
                    if src != dst:
                        net.table.pair_path_lists(src, dst, max_paths=config.max_paths)
            net.send_flows(random_permutation(self._RANKS, seed=0), config.packet_size)
            net.run()

    def _blocks(self, index: int) -> List[list]:
        rng = self._pass_rng(index)
        faulty = set(
            int(i) for i in rng.choice(self.PASS, self._FAULTS_PER_PASS, replace=False)
        )
        items = []
        for i, (kind, size, policy) in enumerate(self._COMBOS):
            flow_seed = int(rng.integers(2**31))
            fault = None
            if i in faulty:
                # a kill time inside the transfer: a fraction of the time
                # one link needs to serialise the message twice
                when = float(rng.uniform(0.2, 0.8)) * 2.0 * size / 50e9
                fault = (int(rng.integers(2**31)), when)
            items.append((kind, size, policy, flow_seed, fault))
        return [items]

    def _flows(self, kind: str, flow_seed: int):
        p = self._RANKS
        if kind == "permutation":
            return random_permutation(p, seed=flow_seed)
        rng = np.random.default_rng(flow_seed)
        if kind == "alltoall":
            return alltoall_phase(p, int(rng.integers(1, p)))
        return ring_neighbor_flows([int(r) for r in rng.permutation(p)])

    def run(self, op: tuple) -> Tuple[bool, bytes]:
        kind, size, policy, flow_seed, fault = op
        config = self.configs[policy]
        flows = self._flows(kind, flow_seed)
        net = PacketNetwork(self.topo, config=config)
        net.send_flows(flows, size)
        faults = None
        if fault is not None:
            fault_seed, when = fault
            faults = sample_link_faults(self.topo, self._FAULT_CABLES, seed=fault_seed)
            net.schedule_link_faults(when, faults)
        res = net.run()
        # A message may stay unfinished only when the faults cut every
        # path between its endpoints.
        survivors = DegradedPathProvider(self.topo, faults) if faults is not None else None
        reachable = [
            m for m in res.messages
            if survivors is None or survivors.connected(m.src, m.dst)
        ]
        offered = sum(m.size for m in reachable)
        delivered = sum(min(m.packets_arrived * config.packet_size, m.size) for m in reachable)
        ok = (
            len(res.messages) == len(flows)
            and all(m.finished for m in reachable)
            and delivered == offered
            and (res.packets_lost == 0 or len(reachable) < len(res.messages))
            and (len(reachable) < len(res.messages) or res.all_finished)
        )
        completion = [
            m.completion_time if m.completion_time is not None else -1.0
            for m in res.messages
        ]
        out = hashlib.sha256(
            _floats(res.finish_time, *completion)
            + struct.pack("<3q", res.packets_dropped, res.packets_retried, res.packets_lost)
        ).digest()
        return ok, out

    def close(self) -> None:
        self.topo = None


class ClusterTwin(_Workload):
    """Digital-twin lifetime runs with failures coupled into the network.

    One operation is one ``ClusterSimulator.run()`` of an 8x8-board cluster:
    100 jobs at load 1.5, board MTBF 200 h, network coupling on.  A pass
    is ten blocks of ten consecutive config seeds, and a block is one
    routing session.  An operation's cost varies with its config seed by
    more than ten times (its failures and queueing), which is why a run
    executes the same seeds whatever its workload seed.
    """

    name = "cluster_twin"
    SALT = 0xC1A5
    BLOCK = 10
    PASS = 10 * BLOCK
    _WARMUP_SEED = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._done = 0

    @staticmethod
    def _config(seed: int) -> ClusterSimConfig:
        return ClusterSimConfig(
            x=8, y=8, num_jobs=100, load=1.5, seed=seed,
            failures=FailureModel(mtbf_hours=200), network=NetworkCoupling(),
        )

    def setup(self) -> None:
        # One coupled warm-up run: builds the coupled fabric, its probe
        # route tables and fault-event state, and the scheduler path.
        clear_route_tables()
        ClusterSimulator(self._config(self._WARMUP_SEED)).run()

    def _blocks(self, index: int) -> List[List[int]]:
        first = 1 + self.PASS * index
        return [
            list(range(first + b, first + b + self.BLOCK))
            for b in range(0, self.PASS, self.BLOCK)
        ]

    def run(self, config_seed: int) -> Tuple[bool, bytes]:
        if self._done % self.BLOCK == 0:
            clear_route_tables()
        self._done += 1
        report = ClusterSimulator(self._config(config_seed)).run()
        summary = report.summary()
        ok = (
            summary["completed_jobs"] == summary["submitted_jobs"]
            and summary["submitted_jobs"] == 100
        )
        out = hashlib.sha256(
            struct.pack("<Q", report.fingerprint())
            + json.dumps(summary, sort_keys=True).encode()
        ).digest()
        return ok, out


WORKLOADS = {
    cls.name: cls for cls in (TopologySweep, AdversarySearch, PacketCollective, ClusterTwin)
}


def make_workload(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)
