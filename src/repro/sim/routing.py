"""Shared, vectorized route tables: one routing state per topology.

Both simulators (flow-level and packet-level) route over the same candidate
minimal paths, yet historically each simulator instance rebuilt its own
per-``(src, dst)`` path cache and every consumer that constructed a fresh
simulator (``analysis.bandwidth``, the figure benchmarks, the cluster
lifetime simulator's service-time model) threw that work away.  A
:class:`RouteTable` factors the routing state out of the simulators:

* paths are stored **vectorized** in CSR-style NumPy arrays (a flat array of
  directed link indices plus per-path offsets), so the flow simulator can
  build its subflow/link incidence arrays with pure array operations instead
  of per-flow Python loops;
* population is **lazy**: a pair's paths are enumerated by the topology's
  structured :class:`~repro.sim.paths.PathProvider` the first time the pair
  is routed, then served from the table forever after;
* paths and per-path **split weights** are produced by a pluggable
  :class:`~repro.sim.policy.RoutingPolicy` (``minimal`` / ``ecmp`` /
  ``valiant`` / ``ugal``); the default ``minimal`` policy reproduces the
  historical behaviour bit-identically;
* tables are **memoized per ``(topology, policy, max_paths)``** — every
  simulator (and every backend, see :mod:`repro.sim.backend`) asking for the
  same topology at the same policy and multipath width shares one table, so
  route state survives across simulator instances.

``RouteTable.stats`` counts pair-level hits/misses, which the test suite
uses to assert cache reuse across simulator instances.

**Sparse pair index.**  A table's memory follows the pairs it has routed,
not the square of the node count: the pair index is a sorted array of
int64 keys ``src * num_nodes + dst`` with parallel arrays of first path id,
path count and minimal count (the counts in the narrowest integer dtype
that holds ``max_paths``).  A newly routed pair waits in a small dict;
once it holds 64 pairs, the next miss merges them into the sorted arrays
with one insert, so a miss never shifts the arrays by itself.  A
vectorized query answers every merged pair with one ``searchsorted`` and
looks the rest up in that dict one by one; a scalar query probes the
dict, then binary-searches the sorted keys (about a microsecond), and
:meth:`RouteTable.pair_path_lists` answers a repeat call from its memo
with one dict probe.
A 16,384-endpoint Hx2Mesh permutation sweep, whose dense ``n**2`` index
would take 7.7 GB, routes in tens of megabytes.

:func:`clear_route_tables` drops the memo **and** clears every derived
route cache registered via :func:`register_route_cache_client` (the flow
simulator's :class:`FlowAssignment` LRUs, the tables' materialized
``pair_path_lists`` and the packet simulator's per-pair scoring state), so
a full reset can never serve stale routes out of a derived cache.

**Zero-copy sharing across processes.**  A built table exports its index
and CSR arrays into one ``multiprocessing.shared_memory`` segment with
:meth:`RouteTable.share`, which returns a picklable
:class:`SharedRouteHandle`; :meth:`RouteTable.attach` maps the same bytes
in another process — read-only, zero-copy, bit-identical query results for
every pair the snapshot contains (misses re-enumerate deterministically
into process-private copies, never writing the segment).  The experiment
runner seeds its worker pool with the parent's handles
(:func:`seed_shared_route_tables`), and :func:`route_table_for` attaches a
matching seed instead of rebuilding — the topology objects differ by
identity across processes, so seeds are matched by structural signature
``(name, nodes, links, accelerators, total capacity)`` plus
``(policy, max_paths)``.  Segment lifetime follows the owning table: a
weakref finalizer closes and (owner-side only) unlinks the segment when
the table is garbage collected — so :func:`clear_route_tables` releases
segments with the tables it drops — and an ``atexit`` sweep catches tables
still alive at interpreter exit.  Attached processes deregister the
segment from their ``resource_tracker`` so a dying worker can never unlink
a segment the parent still serves.
"""

from __future__ import annotations

import atexit
import os
import weakref
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import registry as _obs
from ..topology.base import Topology, TopologyError
from .paths import DEFAULT_MAX_PATHS, PathProvider, path_provider_for
from .policy import RouteSet, RoutingPolicy, get_policy

__all__ = [
    "RouteTable",
    "RouteTableStats",
    "SharedRouteHandle",
    "route_table_for",
    "live_route_tables",
    "private_route_table_bytes",
    "clear_route_tables",
    "register_route_cache_client",
    "seed_shared_route_tables",
    "clear_shared_route_seeds",
    "csr_range_indices",
]

_GROW = 4  # geometric growth factor of the flat CSR arrays

#: pairs routed since the last merge into the sorted index; bounds the
#: pending dict, at one ``np.insert`` per this many misses
_PENDING_MAX = 64

#: key of the sentinel row that ends the sorted index: above every pair key
#: (``src * num_nodes + dst < num_nodes**2``), so a ``searchsorted`` row is
#: always a valid index and the index is never empty
_SENTINEL_KEY = np.iinfo(np.int64).max

#: measured cost of one pending dict entry (key int, 3-tuple, hash-table
#: slot), counted by :meth:`RouteTable.estimated_csr_bytes`
_PENDING_ENTRY_BYTES = 170


def _release_csr_bytes(reported: List[int]) -> None:
    """Finalizer: subtract a dead table's last-reported CSR bytes."""
    _obs.gauge("routing.csr_mem_bytes").add(-reported[0])


def _count_dtype(max_paths: int) -> np.dtype:
    """Narrowest signed integer dtype holding path counts up to ``max_paths``."""
    for dtype in (np.int8, np.int16, np.int32):
        if max_paths <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _reserve(arr: np.ndarray, need: int) -> np.ndarray:
    """``arr`` if it is writable and holds ``need`` items, else a grown copy.

    Read-only arrays (views into an attached shared segment) are always
    copied, so appending never writes shared memory.
    """
    if need <= len(arr) and arr.flags.writeable:
        return arr
    grown = np.zeros(max(need, _GROW * max(len(arr), 16)), dtype=arr.dtype)
    grown[: len(arr)] = arr
    return grown


def csr_range_indices(offsets: np.ndarray, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices covering ``arange(offsets[i], offsets[i+1])`` for every id.

    The CSR multi-range gather shared by :meth:`RouteTable.gather_links`
    and the flow simulator's incremental max-min solver: returns
    ``(indices, lengths)`` where ``indices`` concatenates each id's range
    in order.
    """
    starts = offsets[ids]
    lengths = offsets[ids + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), lengths
    ends = np.cumsum(lengths)
    out_starts = ends - lengths
    indices = (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_starts, lengths)
        + np.repeat(starts, lengths)
    )
    return indices, lengths


# ------------------------------------------------------------- shared memory
def _topo_signature(topo: Topology) -> Tuple:
    """Structural identity of a topology for cross-process seed matching.

    Topology objects never compare equal across processes (identity
    semantics), so shared-table seeds are matched on the structure the
    route enumeration actually depends on: the family/instance name, the
    node/link/accelerator counts, and the total link capacity.
    """
    return (
        topo.name,
        int(topo.num_nodes),
        int(topo.num_links),
        int(topo.num_accelerators),
        float(topo.link_capacity_array().sum()),
    )


@dataclass(frozen=True)
class SharedRouteHandle:
    """Picklable description of a route table exported to shared memory.

    ``arrays`` carries one ``(key, byte_offset, length, dtype)`` span per
    index or CSR array inside the single shared segment ``name``.  The
    handle embeds the (picklable) topology and policy so
    :meth:`RouteTable.attach` is self-contained, and :meth:`seed_key` is
    the structural memo key :func:`route_table_for` uses to match a seed
    against a locally constructed topology.
    """

    name: str
    nbytes: int
    topo: Topology
    signature: Tuple
    policy: RoutingPolicy
    max_paths: int
    owner_pid: int = -1
    owner_tracker_pid: Optional[int] = None
    arrays: Tuple[Tuple[str, int, int, str], ...] = ()

    def seed_key(self) -> Tuple:
        return (self.signature, get_policy(self.policy).cache_key(), self.max_paths)


#: lease id -> lease dict for every shared segment this process holds open
#: (owned or attached); the atexit sweep releases stragglers whose table is
#: still alive at interpreter shutdown.
_LIVE_SEGMENTS: Dict[int, Dict[str, object]] = {}


def _release_segment(lease: Dict[str, object]) -> None:
    """Finalizer: close a segment mapping; unlink it if this process owns it.

    The owner-pid guard makes the finalizer safe under ``fork``: children
    inherit the parent's finalizers and ``_LIVE_SEGMENTS`` entries and may
    close their inherited mapping, but must never unlink the segment the
    parent still serves.
    """
    if lease.get("released"):
        return
    lease["released"] = True
    _LIVE_SEGMENTS.pop(lease["lease_id"], None)  # type: ignore[arg-type]
    shm = lease["shm"]
    try:
        shm.close()  # type: ignore[union-attr]
    except (OSError, BufferError):
        pass
    if lease.get("owner_pid") == os.getpid():
        try:
            shm.unlink()  # type: ignore[union-attr]
        except (OSError, FileNotFoundError):
            pass
        _obs.gauge("routing.shm_segments").add(-1)
        _obs.gauge("routing.shm_bytes").add(-int(lease["nbytes"]))  # type: ignore[call-overload]


def _release_all_segments() -> None:
    for lease in list(_LIVE_SEGMENTS.values()):
        _release_segment(lease)


atexit.register(_release_all_segments)


def _tracker_pid() -> Optional[int]:
    """Pid of this process's ``resource_tracker`` daemon (POSIX), if any."""
    try:
        from multiprocessing import resource_tracker

        return resource_tracker._resource_tracker._pid  # type: ignore[attr-defined]
    except Exception:
        return None


def _new_lease(shm, nbytes: int, *, owned: bool) -> Dict[str, object]:
    lease: Dict[str, object] = {
        "shm": shm,
        "nbytes": int(nbytes),
        "owner_pid": os.getpid() if owned else -1,
        "released": False,
    }
    lease["lease_id"] = id(lease)
    _LIVE_SEGMENTS[id(lease)] = lease
    return lease


class RouteTableStats:
    """Pair-level cache counters of one :class:`RouteTable`.

    A thin view over two table-local :class:`repro.obs.registry.Counter`
    instruments whose parents are the registry's ``routing.pair_hits`` /
    ``routing.pair_misses`` aggregates: bumping a table's stats also rolls
    up into the process-wide routing family, with no extra bookkeeping at
    the call sites.  The ``hits`` / ``misses`` / ``pairs_routed`` read API
    predates ``repro.obs`` and is pinned by the routing backend tests.
    """

    __slots__ = ("_hits", "_misses")

    def __init__(self) -> None:
        self._hits = _obs.Counter("hits", parent=_obs.counter("routing.pair_hits"))
        self._misses = _obs.Counter("misses", parent=_obs.counter("routing.pair_misses"))

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def pairs_routed(self) -> int:
        return self.misses

    def record_hits(self, n: int = 1) -> None:
        self._hits.inc(n)

    def record_misses(self, n: int = 1) -> None:
        self._misses.inc(n)

    def __repr__(self) -> str:  # keeps the old dataclass repr shape
        return f"RouteTableStats(hits={self.hits}, misses={self.misses})"


class RouteTable:
    """Lazily-populated CSR store of multipath routes on one topology.

    Path ``p`` occupies ``path_links[path_offsets[p]:path_offsets[p+1]]``
    (directed link indices).  Path ids are assigned in first-contact order,
    and the pair ``(src, dst)`` owns the contiguous id range
    ``[first, first + npaths)``.  Contiguity is what makes the flow
    simulator's incidence construction a gather instead of a loop.

    The pair index is sparse (see the module docstring): sorted int64 keys
    ``src * num_nodes + dst`` with parallel ``first`` / ``npaths`` /
    ``nmin`` arrays ending in a sentinel row, plus a dict of at most 64
    pairs routed since the last merge.
    """

    def __init__(
        self,
        topo: Topology,
        *,
        max_paths: int = DEFAULT_MAX_PATHS,
        provider: Optional[PathProvider] = None,
        policy: Union[str, RoutingPolicy, None] = None,
    ):
        if max_paths < 1:
            raise ValueError("max_paths must be at least 1")
        counts = _count_dtype(max_paths)
        self._setup(
            topo,
            max_paths,
            provider,
            get_policy(policy),
            {
                "keys": np.array([_SENTINEL_KEY], dtype=np.int64),
                "first": np.zeros(1, dtype=np.int64),
                "npaths": np.zeros(1, dtype=counts),
                "nmin": np.zeros(1, dtype=counts),
                "offsets": np.zeros(1, dtype=np.int64),
                "links": np.zeros(0, dtype=np.int64),
                "weights": np.zeros(0, dtype=np.float64),
            },
        )
        _obs.counter("routing.tables_built").inc()
        self._report_csr_bytes()

    def _setup(
        self,
        topo: Topology,
        max_paths: int,
        provider: Optional[PathProvider],
        policy: RoutingPolicy,
        arrays: Dict[str, np.ndarray],
    ) -> None:
        """State shared by a fresh table and one attached to a segment."""
        self.topo = topo
        self.max_paths = max_paths
        self.provider = provider if provider is not None else path_provider_for(topo)
        self.policy = policy
        self.stats = RouteTableStats()
        # Sorted pair index: key -> first path id / path count / leading
        # minimal paths (== path count except under UGAL), ending in the
        # sentinel row.
        self._keys = arrays["keys"]
        self._first = arrays["first"]
        self._npaths = arrays["npaths"]
        self._nmin = arrays["nmin"]
        self._count_limit = int(np.iinfo(self._npaths.dtype).max)
        # key -> (first, npaths, nmin) of pairs routed since the last merge
        self._pending: Dict[int, Tuple[int, int, int]] = {}
        # CSR storage, grown geometrically; exact-length views when attached.
        self._path_offsets = arrays["offsets"]
        self._path_links = arrays["links"]
        self._path_weights = arrays["weights"]
        self._num_paths = len(self._path_offsets) - 1
        self._links_used = int(self._path_offsets[-1])
        # (key, max_paths) -> materialized Python path lists (shared, immutable)
        self._pylists: Dict[Tuple[int, Optional[int]], List[List[int]]] = {}
        # routing.csr_mem_bytes tracks the estimated bytes of *live* tables:
        # growth is reported as gauge deltas, and a finalizer releases the
        # table's last-reported contribution when it is garbage collected.
        # Attached tables set a nonzero baseline so bytes the owning process
        # already reported are not double counted.
        self._csr_baseline = 0
        self._builder_pid = os.getpid()
        self._reported_bytes = [0]
        weakref.finalize(self, _release_csr_bytes, self._reported_bytes)
        register_route_cache_client(self)

    def estimated_csr_bytes(self) -> int:
        """Estimated bytes held by the table's pair index + CSR arrays.

        Proportional to the pairs routed (about 18 bytes of index per
        merged pair, 170 per pair still pending) plus the paths they own;
        never to ``num_nodes**2``.
        """
        return int(
            self._keys.nbytes
            + self._first.nbytes
            + self._npaths.nbytes
            + self._nmin.nbytes
            + _PENDING_ENTRY_BYTES * len(self._pending)
            + self._path_offsets.nbytes
            + self._path_links.nbytes
            + self._path_weights.nbytes
        )

    def _report_csr_bytes(self) -> None:
        now = self.estimated_csr_bytes() - self._csr_baseline
        delta = now - self._reported_bytes[0]
        if delta:
            self._reported_bytes[0] = now
            _obs.gauge("routing.csr_mem_bytes").add(delta)

    def clear_route_caches(self) -> None:
        """Drop derived route caches (the materialized Python path lists)."""
        self._pylists.clear()

    # ------------------------------------------------------------- population
    def _route(self, key: int, src: int, dst: int) -> Tuple[int, int, int]:
        """Enumerate a new pair into the CSR; return its index entry."""
        routes = self.policy.routes(self.provider, src, dst, self.max_paths)
        if not routes.paths:
            raise TopologyError(f"no path between nodes {src} and {dst}")
        self.stats.record_misses()
        if len(self._pending) == _PENDING_MAX:
            self._merge()
        entry = (self._num_paths, len(routes.paths), routes.num_minimal)
        self._append_paths(routes)
        self._pending[key] = entry
        self._report_csr_bytes()
        return entry

    def _append_paths(self, routes: RouteSet) -> None:
        count = len(routes.paths)
        if count > self._count_limit:
            raise ValueError(
                f"policy {self.policy.name!r} returned {count} paths, more than "
                f"the table's max_paths={self.max_paths} allows"
            )
        first, used = self._num_paths, self._links_used
        ends = list(accumulate((len(p) for p in routes.paths), initial=used))
        end = ends[-1]
        self._path_offsets = _reserve(self._path_offsets, first + count + 1)
        self._path_weights = _reserve(self._path_weights, first + count)
        self._path_links = _reserve(self._path_links, end)
        self._path_offsets[first + 1 : first + count + 1] = ends[1:]
        self._path_weights[first : first + count] = routes.weights
        self._path_links[used:end] = list(chain.from_iterable(routes.paths))
        self._num_paths = first + count
        self._links_used = end

    def _merge(self) -> None:
        """Move the pending pairs into the sorted index with one insert."""
        count = len(self._pending)
        if not count:
            return
        keys = np.fromiter(self._pending, dtype=np.int64, count=count)
        rows = np.array(list(self._pending.values()), dtype=np.int64)
        order = np.argsort(keys)
        keys, rows = keys[order], rows[order]
        at = np.searchsorted(self._keys, keys)
        self._keys = np.insert(self._keys, at, keys)
        self._first = np.insert(self._first, at, rows[:, 0])
        self._npaths = np.insert(self._npaths, at, rows[:, 1])
        self._nmin = np.insert(self._nmin, at, rows[:, 2])
        self._pending.clear()
        self._report_csr_bytes()

    def _find(self, key: int) -> Optional[Tuple[int, int, int]]:
        """``(first, npaths, nmin)`` of a routed pair key, else ``None``."""
        entry = self._pending.get(key)
        if entry is not None:
            return entry
        i = int(self._keys.searchsorted(key))
        if self._keys[i] == key:
            return int(self._first[i]), int(self._npaths[i]), int(self._nmin[i])
        return None

    def _entry(self, src: int, dst: int) -> Tuple[int, int, int]:
        """``(first, npaths, nmin)`` of one pair; routes it on first contact."""
        key = src * self.topo.num_nodes + dst
        entry = self._find(key)
        if entry is None:
            return self._route(key, src, dst)
        self.stats.record_hits()
        return entry

    def _resolve(
        self, src_nodes: np.ndarray, dst_nodes: np.ndarray, *, route: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Sorted-index rows of a batch of pairs, patched for unmerged pairs.

        Returns ``(rows, patch, entries)``: every pair's row in the sorted
        index arrays, except that pair ``patch[j]`` (pending or new) has its
        ``(first, npaths, nmin)`` in ``entries[j]`` instead; ``patch`` is
        ``None`` when every pair is merged.  Merged pairs answer from one
        ``searchsorted``; the rest, usually a handful, are looked up one by
        one in input order, and a first contact is routed when ``route`` is
        set (a repeat later in the batch then finds it), else ``KeyError``.
        """
        keys = (
            np.asarray(src_nodes, dtype=np.int64) * self.topo.num_nodes
            + np.asarray(dst_nodes, dtype=np.int64)
        )
        rows = self._keys.searchsorted(keys)
        found = self._keys[rows] == keys
        if found.all():
            if route:
                self.stats.record_hits(len(keys))
            return rows, None, None
        patch = np.flatnonzero(~found)
        entries = []
        routed = 0
        index = self._keys
        for i, key in zip(patch.tolist(), keys[patch].tolist()):
            entry = self._find(key)
            if entry is None:
                src, dst = int(src_nodes[i]), int(dst_nodes[i])
                if not route:
                    raise KeyError(f"pair ({src}, {dst}) is not routed")
                entry = self._route(key, src, dst)
                routed += 1
            entries.append(entry)
        if self._keys is not index:  # a miss filled the pending dict and merged
            rows = self._keys.searchsorted(keys)
        if route:
            self.stats.record_hits(len(keys) - routed)
        return rows, patch, np.array(entries, dtype=np.int64)

    def _path_lists(self, first: int, count: int) -> List[List[int]]:
        offsets, links = self._path_offsets, self._path_links
        return [links[offsets[p] : offsets[p + 1]].tolist() for p in range(first, first + count)]

    # ---------------------------------------------------------------- queries
    @property
    def num_pairs_routed(self) -> int:
        return len(self._keys) - 1 + len(self._pending)

    def paths(self, src: int, dst: int, max_paths: Optional[int] = None) -> List[List[int]]:
        """Candidate paths as lists of directed link indices.

        ``max_paths`` may narrow (never widen) the table's configured width;
        the packet simulator uses this to constrain adaptive choices without
        a second table.
        """
        if src == dst:
            return [[]]
        first, count, _nmin = self._entry(src, dst)
        if max_paths is not None:
            count = min(count, max_paths)
        return self._path_lists(first, count)

    def pair_slice(self, src: int, dst: int) -> Tuple[int, int]:
        """CSR slice of one pair: ``(first_path_id, num_paths)``.

        Populates the pair on first contact.  Path ``p`` of the pair
        (``first <= p < first + count``) occupies
        ``path_links[path_offsets[p]:path_offsets[p+1]]``.
        """
        first, count, _nmin = self._entry(src, dst)
        return first, count

    def pair_path_lists(
        self, src: int, dst: int, max_paths: Optional[int] = None
    ) -> List[List[int]]:
        """Candidate paths of a pair as **memoized** Python link-index lists.

        Unlike :meth:`paths`, the returned lists are cached on the table and
        shared by every caller — the packet simulator's per-packet adaptive
        scoring iterates these lists millions of times, and because the table
        itself is memoized per ``(topology, max_paths)``, the materialization
        cost is paid once per pair across *all* simulator instances.  A
        repeat call is one dict probe.  Treat the result as immutable.
        """
        if src == dst:
            return [[]]
        cache_key = (src * self.topo.num_nodes + dst, max_paths)
        cached = self._pylists.get(cache_key)
        if cached is not None:
            self.stats.record_hits()
            return cached
        first, count, _nmin = self._entry(src, dst)
        if max_paths is not None:
            count = min(count, max_paths)
        cached = self._pylists[cache_key] = self._path_lists(first, count)
        return cached

    def pair_arrays(self, src_nodes: np.ndarray, dst_nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First path id and path count per ``(src, dst)`` pair, vectorized.

        Merged pairs answer from one ``searchsorted`` over the sorted index.
        The rest are looked up in the pending dict or enumerated, in input
        order (the only Python-level loop, over at most 64 pending pairs
        plus the call's first contacts); a pair repeated within the call
        counts one miss and then hits, as it would one at a time.
        """
        rows, patch, entries = self._resolve(src_nodes, dst_nodes, route=True)
        first = self._first[rows]
        npaths = self._npaths[rows].astype(np.int64)
        if patch is not None:
            first[patch] = entries[:, 0]
            npaths[patch] = entries[:, 1]
        return first, npaths

    def gather_links(self, path_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated link indices and per-path lengths for ``path_ids``.

        Returns ``(links, lengths)`` where ``links`` is the concatenation of
        every path's link indices in order — the CSR gather at the heart of
        :meth:`FlowSimulator.assign`.
        """
        idx, lengths = csr_range_indices(self._path_offsets, path_ids)
        if len(idx) == 0:
            return np.zeros(0, dtype=np.int64), lengths
        return self._path_links[idx], lengths

    def gather_path_weights(self, path_ids: np.ndarray) -> np.ndarray:
        """Policy split weight of every path in ``path_ids`` (vectorized)."""
        return self._path_weights[path_ids]

    def pair_weights(self, src: int, dst: int) -> List[float]:
        """Split weights of one pair's candidate paths (populates the pair)."""
        if src == dst:
            return [1.0]
        first, count, _nmin = self._entry(src, dst)
        return self._path_weights[first : first + count].tolist()

    def pair_minimal_counts(self, src_nodes: np.ndarray, dst_nodes: np.ndarray) -> np.ndarray:
        """Number of leading minimal paths per pair, vectorized.

        Pairs must already be routed (call :meth:`pair_arrays` first);
        an unrouted pair raises ``KeyError``.  Equals the pair's path count
        under ``minimal``/``ecmp``, the minimal-group size under ``ugal``
        (whose trailing paths are the Valiant alternates), and 0 under
        ``valiant`` (every stored path is a detour).
        """
        rows, patch, entries = self._resolve(src_nodes, dst_nodes, route=False)
        nmin = self._nmin[rows].astype(np.int64)
        if patch is not None:
            nmin[patch] = entries[:, 2]
        return nmin

    # ---------------------------------------------------------- shared memory
    def share(self) -> SharedRouteHandle:
        """Export the table's current contents into a shared-memory segment.

        Returns a picklable :class:`SharedRouteHandle`; repeated calls
        return the same handle (one segment per table — the snapshot covers
        the pairs routed so far, and attached processes re-enumerate later
        pairs into private memory).  The segment is unlinked when this
        table is garbage collected or the process exits.
        """
        handle = getattr(self, "_shared_handle", None)
        if handle is not None:
            return handle
        from multiprocessing import shared_memory

        self._merge()
        arrays = [
            ("keys", self._keys),
            ("first", self._first),
            ("npaths", self._npaths),
            ("nmin", self._nmin),
            ("offsets", self._path_offsets[: self._num_paths + 1]),
            ("links", self._path_links[: self._links_used]),
            ("weights", self._path_weights[: self._num_paths]),
        ]
        specs = []
        offset = 0
        for key, arr in arrays:
            offset = -(-offset // 8) * 8  # keep every array 8-byte aligned
            specs.append((key, offset, len(arr), arr.dtype.str))
            offset += arr.nbytes
        total = max(offset, 8)  # zero-size segments are not allowed
        seg = shared_memory.SharedMemory(create=True, size=total)
        for (_key, off, length, _dtype), (_name, arr) in zip(specs, arrays):
            if length:
                np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=off)[:] = arr
        handle = SharedRouteHandle(
            name=seg.name,
            nbytes=total,
            topo=self.topo,
            signature=_topo_signature(self.topo),
            policy=self.policy,
            max_paths=self.max_paths,
            owner_pid=os.getpid(),
            owner_tracker_pid=_tracker_pid(),
            arrays=tuple(specs),
        )
        lease = _new_lease(seg, total, owned=True)
        weakref.finalize(self, _release_segment, lease)
        _obs.gauge("routing.shm_segments").add(1)
        _obs.gauge("routing.shm_bytes").add(total)
        self._shared_handle = handle
        self._shm_lease = lease
        return handle

    @classmethod
    def attach(
        cls, handle: SharedRouteHandle, topo: Optional[Topology] = None
    ) -> "RouteTable":
        """Map a shared table exported by :meth:`share` into this process.

        Array payloads are zero-copy, read-only views into the shared
        segment; queries over snapshot pairs are bit-identical to the
        owning table's.  Misses re-enumerate deterministically into
        process-private copies (the shared bytes are never written).
        ``topo`` defaults to the handle's embedded topology; passing a
        locally built topology with a different structural signature
        raises ``ValueError``.
        """
        from multiprocessing import shared_memory

        if topo is None:
            topo = handle.topo
        elif _topo_signature(topo) != handle.signature:
            raise ValueError(
                "topology does not match the shared route table "
                f"(local {_topo_signature(topo)!r} != shared {handle.signature!r})"
            )
        seg = shared_memory.SharedMemory(name=handle.name)
        # CPython registers *every* SharedMemory open with this process's
        # resource tracker, which would unlink the owner's live segment when
        # this (attaching) process exits.  Lifetime belongs to the owning
        # table's finalizer, so deregister the attachment — unless this
        # process *shares* the owner's tracker daemon (in-process attach,
        # or a fork child that inherited the tracker pipe): there the
        # registration is the owner's single entry, the shared tracker
        # outlives this process, and deregistering here would orphan the
        # owner's eventual ``unlink`` bookkeeping instead.
        if _tracker_pid() != handle.owner_tracker_pid or handle.owner_tracker_pid is None:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(seg._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:
                pass

        views = {}
        for key, off, length, dtype in handle.arrays:
            arr = np.ndarray((length,), dtype=np.dtype(dtype), buffer=seg.buf, offset=off)
            arr.flags.writeable = False
            views[key] = arr
        table = cls.__new__(cls)
        table._setup(topo, handle.max_paths, None, get_policy(handle.policy), views)
        table._attach_lease = _new_lease(seg, handle.nbytes, owned=False)
        weakref.finalize(table, _release_segment, table._attach_lease)
        table._shared_handle = handle
        table._csr_baseline = table.estimated_csr_bytes()
        _obs.counter("routing.tables_attached").inc()
        return table


# ------------------------------------------------------------------ memoization
# topology -> {(policy key, max_paths): RouteTable}; weak keys so tables die
# with the topology.
_TABLES: "weakref.WeakKeyDictionary[Topology, Dict[Tuple, RouteTable]]" = weakref.WeakKeyDictionary()

# Objects holding caches derived from route tables (simulator assignment
# LRUs, materialized path lists, packet scoring state).  Weak so registering
# never extends a lifetime; each client exposes ``clear_route_caches()``.
_CACHE_CLIENTS: "weakref.WeakSet" = weakref.WeakSet()


def register_route_cache_client(client) -> None:
    """Register an object whose ``clear_route_caches()`` must run when
    :func:`clear_route_tables` resets the routing state."""
    _CACHE_CLIENTS.add(client)


# seed key (signature, policy key, max_paths) -> SharedRouteHandle;
# consulted by route_table_for on memo miss so worker processes attach the
# parent's shared tables instead of rebuilding them.
_SHARED_SEEDS: Dict[Tuple, SharedRouteHandle] = {}


def seed_shared_route_tables(handles: Sequence[SharedRouteHandle]) -> None:
    """Install shared-table seeds for :func:`route_table_for` to attach.

    Called in pool workers (via the initializer) with the handles the
    parent exported: any subsequent ``route_table_for`` whose
    ``(topology signature, policy, max_paths)`` matches a seed
    attaches the shared segment instead of building a table.  Later seeds
    with the same key replace earlier ones.
    """
    for handle in handles:
        _SHARED_SEEDS[handle.seed_key()] = handle


def clear_shared_route_seeds() -> None:
    """Drop every installed shared-table seed (attached tables survive)."""
    _SHARED_SEEDS.clear()


def _attach_seed(
    topo: Topology, policy: RoutingPolicy, max_paths: int
) -> Optional[RouteTable]:
    """Attach a matching seed, or ``None`` (stale seeds fail soft)."""
    if not _SHARED_SEEDS:
        return None
    key = (_topo_signature(topo), policy.cache_key(), max_paths)
    handle = _SHARED_SEEDS.get(key)
    if handle is None:
        return None
    try:
        return RouteTable.attach(handle, topo=topo)
    except (FileNotFoundError, ValueError, OSError):
        # the owner died or dropped the table; fall back to a local build
        _SHARED_SEEDS.pop(key, None)
        return None


def route_table_for(
    topo: Topology,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
    policy: Union[str, RoutingPolicy, None] = None,
) -> RouteTable:
    """The shared :class:`RouteTable` of ``(topo, policy, max_paths)``.

    Repeated calls return the *same* table object, so any number of
    simulators and backends built on one topology reuse each other's route
    enumeration work.  ``policy`` is a registered policy name or a
    :class:`~repro.sim.policy.RoutingPolicy` instance (``None`` ==
    ``"minimal"``); policies with equal :meth:`cache_key` share a table.
    """
    resolved = get_policy(policy)
    per_topo = _TABLES.get(topo)
    if per_topo is None:
        per_topo = {}
        _TABLES[topo] = per_topo
    key = (resolved.cache_key(), max_paths)
    table = per_topo.get(key)
    if table is None:
        table = _attach_seed(topo, resolved, max_paths)
        if table is None:
            table = RouteTable(topo, max_paths=max_paths, policy=resolved)
        per_topo[key] = table
    return table


def live_route_tables() -> List[RouteTable]:
    """Every currently memoized :class:`RouteTable`, across all topologies.

    Introspection for benchmarks and tests asserting route-table memory: after an in-process run, the tables it built are exactly the
    memoized ones (each table holds a strong reference to its topology, so
    entries outlive the simulators that created them until
    :func:`clear_route_tables`).
    """
    return [table for per_topo in _TABLES.values() for table in per_topo.values()]


def private_route_table_bytes() -> int:
    """Route-table CSR bytes *private to this process*.

    A table this process built counts in full; a table attached to another
    process' shared segment counts only what it added beyond the zero-copy
    views (privately routed misses).  Tables inherited through ``fork``
    (built by the parent, still memoized in the child's copied module
    state) are excluded — they are the parent's bytes, shared
    copy-on-write.  This is the per-worker memory metric the scale-out
    benchmarks assert on: a warm-pool worker solving against attached
    tables reports ~0 where a rebuilding worker reports the table
    footprint.
    """
    pid = os.getpid()
    total = 0
    for table in live_route_tables():
        if getattr(table, "_builder_pid", None) != pid:
            continue
        total += max(0, table.estimated_csr_bytes() - table._csr_baseline)
    return total


def clear_route_tables() -> None:
    """Drop every memoized table *and* every derived route cache.

    Besides the table memo itself, this clears the registered cache
    clients — live :class:`FlowSimulator` assignment LRUs, the tables'
    materialized ``pair_path_lists`` and packet-simulator scoring state.
    Simulators constructed before the reset keep their (immutable, still
    valid) table object, but their derived caches are rebuilt on next use
    and every simulator constructed afterwards gets a fresh table.
    """
    _TABLES.clear()
    for client in list(_CACHE_CLIENTS):
        client.clear_route_caches()
