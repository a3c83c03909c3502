"""Multipath route enumeration for every topology family.

The flow-level simulator approximates packet-level adaptive routing by
splitting each flow evenly over a small set of minimal paths; the packet
simulator uses the same candidate sets to constrain its adaptive next-hop
choices.  This module provides a uniform ``PathProvider`` interface and a
structured (i.e. non-search-based) implementation per topology family, plus
a generic BFS fallback used for tests and custom topologies.

Besides the minimal candidate sets, :func:`valiant_paths` enumerates
*non-minimal* two-phase candidates (minimal to a randomized intermediate,
then minimal to the destination) used by the ``valiant`` and ``ugal``
routing policies (:mod:`repro.sim.policy`).  Intermediates are chosen per
topology family — a different board on a HammingMesh, a different group on a
Dragonfly, a different switch on a HyperX — so the detour actually crosses
the resources the minimal route would avoid.

All providers return paths as lists of **directed link indices** of the
underlying :class:`~repro.topology.base.Topology`.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .._hash import mix64
from ..core.routing import HxMeshRouter
from ..topology.base import Topology, TopologyError

__all__ = [
    "DEFAULT_MAX_PATHS",
    "PathProvider",
    "BFS_CHUNK",
    "SurvivorReach",
    "GenericPathProvider",
    "FatTreePathProvider",
    "DragonflyPathProvider",
    "TorusPathProvider",
    "HyperXPathProvider",
    "HxMeshPathProvider",
    "path_provider_for",
    "valiant_intermediates",
    "valiant_paths",
]

#: Default multipath width shared by every provider, :class:`RouteTable`,
#: and :func:`route_table_for` — the single source of truth for the
#: "how many candidate paths per pair" default.
DEFAULT_MAX_PATHS = 4


class PathProvider(Protocol):
    """Protocol of a multipath route provider."""

    topo: Topology

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        """Minimal candidate paths from accelerator ``src`` to ``dst``."""
        ...


# ---------------------------------------------------------------------------
#: Destinations per batched BFS sweep.  A sweep holds one int32 distance
#: row per destination, so reachability memory is ``BFS_CHUNK * num_nodes``
#: however many destinations a query names.
BFS_CHUNK = 64


class SurvivorReach:
    """Hop distances *to* destinations over a topology's surviving links.

    A link survives when it is not in ``dead_links`` and neither endpoint
    is in ``dead_nodes`` (both empty == the whole topology).  Distances come
    from one level-synchronous numpy BFS over the reversed surviving links
    that advances a whole chunk of :data:`BFS_CHUNK` destinations one hop
    level per step.  Rows are int32 arrays over node indices, ``-1`` ==
    unreachable (a dead destination reaches nothing, not even itself); the
    most recently used ``cache_entries`` rows are kept.  The reversed link
    CSR is built on first use, from the links the topology has then.
    """

    def __init__(
        self,
        topo: Topology,
        *,
        dead_links: Iterable[int] = (),
        dead_nodes: Iterable[int] = (),
        cache_entries: int = 1024,
    ):
        self.topo = topo
        self._dead_links = frozenset(dead_links)
        self._dead_nodes = frozenset(dead_nodes)
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._cache_entries = max(1, int(cache_entries))
        self._csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _reverse_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(node_dead, offsets, preds): ``preds[offsets[u]:offsets[u+1]]``
        are the sources of ``u``'s surviving in-links."""
        if self._csr is None:
            topo = self.topo
            n, num_links = topo.num_nodes, topo.num_links
            src = np.fromiter((l.src for l in topo.links), dtype=np.int32, count=num_links)
            dst = np.fromiter((l.dst for l in topo.links), dtype=np.int32, count=num_links)
            node_dead = np.zeros(n, dtype=bool)
            node_dead[list(self._dead_nodes)] = True
            alive = ~(node_dead[src] | node_dead[dst])
            alive[list(self._dead_links)] = False
            src, dst = src[alive], dst[alive]
            offsets = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.bincount(dst, minlength=n), out=offsets[1:])
            preds = src[np.argsort(dst, kind="stable")]
            self._csr = (node_dead, offsets, preds)
        return self._csr

    def _sweep(self, dsts: np.ndarray) -> np.ndarray:
        """``(len(dsts), num_nodes)`` distance rows by one batched BFS.

        The frontier is the set of flat ``row * num_nodes + node`` indices
        reached at the previous level; each level gathers the surviving
        in-link sources of every frontier entry at once and labels the
        ones not reached yet.
        """
        node_dead, offsets, preds = self._reverse_csr()
        k, n = len(dsts), self.topo.num_nodes
        index = np.int32 if k * n < 2**31 else np.int64
        dist = np.full(k * n, -1, dtype=np.int32)
        live = ~node_dead[dsts]
        frontier = (np.flatnonzero(live) * n + dsts[live]).astype(index)
        dist[frontier] = 0
        level = 0
        while frontier.size:
            level += 1
            rows, nodes = np.divmod(frontier, index(n))
            starts = offsets[nodes]
            counts = offsets[nodes + 1] - starts
            total = int(counts.sum())
            shift = starts - np.cumsum(counts, dtype=index) + counts
            reached = np.arange(total, dtype=index)
            reached += np.repeat(shift, counts)
            reached = preds[reached].astype(index, copy=False)
            reached += np.repeat(rows * index(n), counts)
            dist[reached[dist[reached] < 0]] = level
            frontier = np.flatnonzero(dist == level).astype(index, copy=False)
        return dist.reshape(k, n)

    def _remember(self, dst: int, row: np.ndarray) -> None:
        self._cache[dst] = row
        if len(self._cache) > self._cache_entries:
            self._cache.popitem(last=False)

    def distances_to(self, dst: int) -> np.ndarray:
        """Distance row of one destination (cached; treat as read-only).

        A miss sweeps the whole aligned block of :data:`BFS_CHUNK` node ids
        around ``dst``: one batched sweep of a block costs a fraction of one
        sweep per destination, and callers that ask pair by pair usually
        name neighbouring destinations next.
        """
        row = self._cache.get(dst)
        if row is not None:
            self._cache.move_to_end(dst)
            return row
        first = dst - dst % BFS_CHUNK
        block = np.arange(first, min(first + BFS_CHUNK, self.topo.num_nodes))
        return self._rows(block)[dst - first]

    def _rows(self, dsts: np.ndarray) -> np.ndarray:
        """Distance rows of at most :data:`BFS_CHUNK` destinations."""
        out = np.empty((len(dsts), self.topo.num_nodes), dtype=np.int32)
        missing: List[int] = []
        for i, dst in enumerate(dsts.tolist()):
            row = self._cache.get(dst)
            if row is None:
                missing.append(i)
            else:
                self._cache.move_to_end(dst)
                out[i] = row
        if missing:
            out[missing] = self._sweep(dsts[missing])
            for i in missing:
                self._remember(int(dsts[i]), out[i].copy())
        return out

    def reachable(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Per pair: does a surviving path lead from ``src`` to ``dst``?

        A node always reaches itself.  The distinct destinations are swept
        :data:`BFS_CHUNK` at a time.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        ok = src == dst
        pending = np.flatnonzero(~ok)
        if not pending.size:
            return ok
        order = pending[np.argsort(dst[pending], kind="stable")]
        targets, first = np.unique(dst[order], return_index=True)
        bounds = np.append(first, len(order))
        for start in range(0, len(targets), BFS_CHUNK):
            chunk = targets[start : start + BFS_CHUNK]
            rows = self._rows(chunk)
            sel = order[bounds[start] : bounds[start + len(chunk)]]
            row_of = np.searchsorted(chunk, dst[sel])
            ok[sel] = rows[row_of, src[sel]] >= 0
        return ok

    def descend(self, src: int, dst: int, max_paths: int) -> List[List[int]]:
        """Up to ``max_paths`` shortest surviving paths, in out-link order.

        Depth-first along surviving links that step one hop closer to
        ``dst``; ``[]`` when ``dst`` is unreachable.
        """
        dist = self.distances_to(dst)
        if dist[src] < 0:
            return []
        topo = self.topo
        dead = self._dead_links
        out: List[List[int]] = []

        def walk(node: int, acc: List[int]) -> None:
            if node == dst:
                out.append(list(acc))
                return
            closer = dist[node] - 1
            for li in topo.out_links(node):
                if li in dead:
                    continue
                v = topo.link(li).dst
                if dist[v] == closer:
                    acc.append(li)
                    walk(v, acc)
                    acc.pop()
                    if len(out) >= max_paths:
                        return

        if max_paths > 0:
            walk(src, [])
        return out


class GenericPathProvider:
    """BFS-based shortest-path provider for arbitrary topologies.

    Enumerates up to ``max_paths`` shortest paths by BFS from the destination
    (:class:`SurvivorReach`) followed by a depth-first descent along
    distance-decreasing links.  This is exact but O(V+E) per destination,
    so it is only used for small topologies, tests, and as a fallback when
    a structured provider cannot produce a path.
    """

    #: default cap on cached per-destination distance rows (each row is
    #: O(num_nodes), so an unbounded cache is an all-pairs memory hazard at
    #: scale); override per instance with ``dist_cache_entries``
    DEFAULT_DIST_CACHE_ENTRIES = 1024

    def __init__(self, topo: Topology, *, dist_cache_entries: Optional[int] = None):
        self.topo = topo
        if dist_cache_entries is None:
            dist_cache_entries = self.DEFAULT_DIST_CACHE_ENTRIES
        self._reach = SurvivorReach(topo, cache_entries=dist_cache_entries)

    def _distances_to(self, dst: int) -> np.ndarray:
        return self._reach.distances_to(dst)

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        if self._reach.distances_to(dst)[src] < 0:
            raise TopologyError(f"no path from {src} to {dst}")
        return self._reach.descend(src, dst, max_paths)


# ---------------------------------------------------------------------------
class FatTreePathProvider:
    """Paths through a standalone fat-tree cluster (up/down routing)."""

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "fattree":
            raise TopologyError("not a fat-tree topology")
        self.topo = topo
        self.network = topo.meta["network"]
        self._fallback = GenericPathProvider(topo)

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        out = self.network.paths(src, dst, max_paths=max_paths)
        if not out:
            out = self._fallback.paths(src, dst, max_paths=max_paths)
        return out


# ---------------------------------------------------------------------------
class DragonflyPathProvider:
    """Minimal (local-global-local) Dragonfly routing with channel multipath."""

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "dragonfly":
            raise TopologyError("not a Dragonfly topology")
        self.topo = topo
        m = topo.meta
        self.acc_router: Dict[int, int] = m["acc_router"]
        self.router_group: Dict[int, int] = m["router_group"]
        self.local_links: Dict[Tuple[int, int], Tuple[int, int]] = m["local_links"]
        self.group_links: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = m["group_links"]
        self.access_links: Dict[int, Tuple[int, int]] = m["access_links"]

    def _local(self, r1: int, r2: int) -> List[int]:
        if r1 == r2:
            return []
        return [self.local_links[(r1, r2)][0]]

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        up = self.access_links[src][0]
        down = self.access_links[dst][1]
        rs, rd = self.acc_router[src], self.acc_router[dst]
        gs, gd = self.router_group[rs], self.router_group[rd]
        if rs == rd:
            return [[up, down]]
        if gs == gd:
            return [[up] + self._local(rs, rd) + [down]]
        channels = self.group_links.get((gs, gd), [])
        if not channels:
            raise TopologyError(f"no global channel between groups {gs} and {gd}")
        # Rotate the channel list by a pair-dependent offset so the capped
        # path enumeration spreads different flows over different global
        # channels (approximates adaptive routing's load balancing).
        off = mix64(src * 1000003 + dst) % len(channels)
        channels = channels[off:] + channels[:off]
        candidates: List[List[int]] = []
        for r1, r2, glink in channels:
            path = [up] + self._local(rs, r1) + [glink] + self._local(r2, rd) + [down]
            candidates.append(path)
        candidates.sort(key=len)
        shortest = len(candidates[0])
        minimal = [p for p in candidates if len(p) == shortest]
        # Keep some longer alternatives if there are few strictly minimal
        # ones (approximates UGAL's willingness to take non-minimal paths).
        if len(minimal) < max_paths:
            minimal = candidates[: max(max_paths, len(minimal))]
        return minimal[:max_paths]


# ---------------------------------------------------------------------------
class TorusPathProvider:
    """Dimension-ordered routing on the 2D torus with minimal wrap choice."""

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "torus":
            raise TopologyError("not a torus topology")
        self.topo = topo
        m = topo.meta
        self.rows: int = m["rows"]
        self.cols: int = m["cols"]
        self.coord_of: Dict[int, Tuple[int, int]] = m["coord_of"]
        self.grid = m["grid"]
        self.dir_links: Dict[Tuple[int, int, str], int] = m["dir_links"]

    def _dim_moves(self, delta: int, size: int, pos_dir: str, neg_dir: str) -> List[Tuple[str, int]]:
        """Candidate (direction, hop count) moves along one dimension."""
        fwd = delta % size
        back = (-delta) % size
        moves: List[Tuple[str, int]] = []
        if fwd == 0:
            return [("", 0)]
        if fwd <= back:
            moves.append((pos_dir, fwd))
        if back <= fwd:
            moves.append((neg_dir, back))
        return moves

    def _walk(self, r: int, c: int, direction: str, hops: int) -> Tuple[List[int], int, int]:
        links: List[int] = []
        for _ in range(hops):
            links.append(self.dir_links[(r, c, direction)])
            if direction == "E":
                c = (c + 1) % self.cols
            elif direction == "W":
                c = (c - 1) % self.cols
            elif direction == "S":
                r = (r + 1) % self.rows
            elif direction == "N":
                r = (r - 1) % self.rows
        return links, r, c

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        (r1, c1), (r2, c2) = self.coord_of[src], self.coord_of[dst]
        hmoves = self._dim_moves(c2 - c1, self.cols, "E", "W")
        vmoves = self._dim_moves(r2 - r1, self.rows, "S", "N")
        out: List[List[int]] = []
        for (hd, hn), (vd, vn), order in itertools.product(hmoves, vmoves, ("xy", "yx")):
            r, c = r1, c1
            links: List[int] = []
            steps = [(hd, hn), (vd, vn)] if order == "xy" else [(vd, vn), (hd, hn)]
            for direction, hops in steps:
                if hops == 0 or not direction:
                    continue
                seg, r, c = self._walk(r, c, direction, hops)
                links.extend(seg)
            if (r, c) != (r2, c2):  # pragma: no cover - defensive
                continue
            if links not in out:
                out.append(links)
            if len(out) >= max_paths:
                break
        return out


# ---------------------------------------------------------------------------
class HyperXPathProvider:
    """Minimal routing on the switch-based 2D HyperX.

    A flow crosses at most two switch-to-switch links: one in the row
    dimension and one in the column dimension, via either of the two corner
    switches (dimension order is the adaptive choice).
    """

    def __init__(self, topo: Topology):
        if topo.meta.get("family") != "hyperx":
            raise TopologyError("not a HyperX topology")
        self.topo = topo
        m = topo.meta
        self.acc_switch: Dict[int, int] = m["acc_switch"]
        self.switch_coord: Dict[int, Tuple[int, int]] = m["switch_coord"]
        self.switch_grid = m["switch_grid"]
        self.switch_links: Dict[Tuple[int, int], int] = m["switch_links"]
        self.access_links: Dict[int, Tuple[int, int]] = m["access_links"]

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        if src == dst:
            return [[]]
        up = self.access_links[src][0]
        down = self.access_links[dst][1]
        s1, s2 = self.acc_switch[src], self.acc_switch[dst]
        if s1 == s2:
            return [[up, down]]
        (r1, c1), (r2, c2) = self.switch_coord[s1], self.switch_coord[s2]
        if r1 == r2 or c1 == c2:
            return [[up, self.switch_links[(s1, s2)], down]]
        mid_a = self.switch_grid[r1][c2]   # row first
        mid_b = self.switch_grid[r2][c1]   # column first
        out = [
            [up, self.switch_links[(s1, mid_a)], self.switch_links[(mid_a, s2)], down],
            [up, self.switch_links[(s1, mid_b)], self.switch_links[(mid_b, s2)], down],
        ]
        return out[:max_paths]


# ---------------------------------------------------------------------------
class HxMeshPathProvider:
    """Adaptive minimal routing on HammingMesh (wraps :class:`HxMeshRouter`)."""

    def __init__(self, topo: Topology):
        self.topo = topo
        self.router = HxMeshRouter(topo)
        self._fallback: Optional[GenericPathProvider] = None

    def paths(self, src: int, dst: int, max_paths: int = DEFAULT_MAX_PATHS) -> List[List[int]]:
        try:
            return self.router.paths(src, dst, max_paths=max_paths)
        except TopologyError:
            if self._fallback is None:
                self._fallback = GenericPathProvider(self.topo)
            return self._fallback.paths(src, dst, max_paths=max_paths)


# ---------------------------------------------------------------------------
#  Non-minimal (Valiant) candidate enumeration
# ---------------------------------------------------------------------------
def valiant_intermediates(
    topo: Topology, src: int, dst: int, count: int, *, seed: int = 0
) -> List[int]:
    """Deterministic randomized intermediate accelerators for Valiant routing.

    The intermediate is chosen per topology family so the detour actually
    leaves the congested region of the minimal route:

    * **HammingMesh** — an accelerator on a board different from both the
      source's and the destination's board (reusing the intermediate-board
      idea of :class:`~repro.core.routing.HxMeshRouter`);
    * **Dragonfly** — an accelerator in a third group (classic Valiant
      group-level misrouting);
    * **HyperX** — an accelerator on a third switch;
    * **fat tree / torus / generic** — any third accelerator.

    The sequence is a pure function of ``(src, dst, seed)`` (SplitMix64
    probing over the accelerator list), so candidate sets are reproducible
    across processes and cache layers.  Falls back to the relaxed "any third
    accelerator" rule when the family-specific filter leaves no candidates
    (e.g. a two-board HxMesh).
    """
    accs = topo.accelerators
    if len(accs) <= 2 or count <= 0:
        return []
    family = topo.meta.get("family")
    if family == "hammingmesh":
        coord_of = topo.meta["coord_of"]
        sgr, sgc = coord_of[src][:2]
        dgr, dgc = coord_of[dst][:2]

        def accept(mid: int) -> bool:
            # A true diagonal detour: the intermediate board shares neither
            # a global row nor a global column with either endpoint, so both
            # detour phases can cross networks the minimal route never uses.
            gr, gc = coord_of[mid][:2]
            return gr not in (sgr, dgr) and gc not in (sgc, dgc)

    elif family == "dragonfly":
        acc_router = topo.meta["acc_router"]
        router_group = topo.meta["router_group"]
        gs = router_group[acc_router[src]]
        gd = router_group[acc_router[dst]]

        def accept(mid: int) -> bool:
            g = router_group[acc_router[mid]]
            return g != gs and g != gd

    elif family == "hyperx":
        acc_switch = topo.meta["acc_switch"]
        ss, sd = acc_switch[src], acc_switch[dst]

        def accept(mid: int) -> bool:
            sw = acc_switch[mid]
            return sw != ss and sw != sd

    else:

        def accept(mid: int) -> bool:
            return True

    base = mix64(src * 1_000_003 + dst) ^ mix64(0x51A7 + seed)
    attempts = 4 * count + 16

    def probe(filter_fn) -> List[int]:
        out: List[int] = []
        seen = set()
        for k in range(attempts):
            if len(out) >= count:
                break
            mid = accs[mix64(base + k) % len(accs)]
            if mid == src or mid == dst or mid in seen:
                continue
            seen.add(mid)
            if filter_fn(mid):
                out.append(mid)
        return out

    out = probe(accept)
    if not out and family == "hammingmesh":
        # No fully-diagonal board (e.g. a single global row): relax to any
        # board distinct from both endpoints' boards.
        coord_of = topo.meta["coord_of"]
        boards = (coord_of[src][:2], coord_of[dst][:2])
        out = probe(lambda mid: coord_of[mid][:2] not in boards)
    if not out:
        out = probe(lambda mid: True)
    return out


def valiant_paths(
    provider: PathProvider,
    src: int,
    dst: int,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
    seed: int = 0,
    exclude: Iterable[Sequence[int]] = (),
) -> List[List[int]]:
    """Non-minimal two-phase (Valiant) candidate paths from ``src`` to ``dst``.

    Each candidate routes minimally to a randomized intermediate accelerator
    (see :func:`valiant_intermediates`) and minimally onwards to the
    destination.  Within each phase the segment is chosen to **minimise
    link overlap with the pair's own minimal routes** (hash-rotated
    tie-break): a detour that funnels straight back through the links
    minimal routing congests (e.g. a HammingMesh phase class re-crossing
    the source's own global-row network) defeats its purpose — and leaves
    UGAL's congestion filter without a usable alternate.  ``exclude``
    suppresses duplicates of already-enumerated (e.g. minimal) paths.
    Deterministic per ``(src, dst, seed)``.
    """
    if src == dst:
        return [[]]
    banned = {tuple(p) for p in exclude}
    try:
        minimal_links = {
            li for p in provider.paths(src, dst, max_paths=max(2, max_paths)) for li in p
        }
    except TopologyError:
        minimal_links = set()
    out: List[List[int]] = []
    mids = valiant_intermediates(provider.topo, src, dst, 2 * max_paths, seed=seed)
    pair_key = mix64(src * 1_000_003 + dst)

    def pick(segments: List[List[int]], salt: int) -> List[int]:
        return min(
            segments,
            key=lambda q: (
                sum(li in minimal_links for li in q),
                mix64(salt ^ (q[0] if q else 0)),
            ),
        )

    for j, mid in enumerate(mids):
        if len(out) >= max_paths:
            break
        try:
            heads = provider.paths(src, mid, max_paths=DEFAULT_MAX_PATHS)
            tails = provider.paths(mid, dst, max_paths=DEFAULT_MAX_PATHS)
        except TopologyError:
            continue
        if not heads or not tails:
            continue
        h = mix64(pair_key ^ mix64(seed * 0x9E37 + j))
        path = pick(heads, h) + pick(tails, h >> 16)
        key = tuple(path)
        if not path or key in banned:
            continue
        banned.add(key)
        out.append(path)
    return out


# ---------------------------------------------------------------------------
_PROVIDERS = {
    "fattree": FatTreePathProvider,
    "dragonfly": DragonflyPathProvider,
    "torus": TorusPathProvider,
    "hammingmesh": HxMeshPathProvider,
    "hyperx": HyperXPathProvider,
}


def path_provider_for(topo: Topology) -> PathProvider:
    """Return the structured path provider for ``topo``'s family, or the
    generic BFS provider when the family is unknown."""
    family = topo.meta.get("family")
    cls = _PROVIDERS.get(family)
    if cls is None:
        return GenericPathProvider(topo)
    return cls(topo)
