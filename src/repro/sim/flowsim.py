"""Flow-level network simulator: max-min fair bandwidth allocation.

This is the cluster-scale substitute for the paper's SST packet-level
simulations (see DESIGN.md, substitution table).  Traffic is modelled as a
set of flows; every flow is split evenly over its candidate minimal paths
(approximating packet-spraying / adaptive routing) and link bandwidth is
shared max-min fairly between the subflows using the classic progressive
filling algorithm.  For symmetric patterns (alltoall, rings) a faster
bottleneck analysis is provided that assumes all flows progress at the same
rate, which is exact for such patterns.

All rates are in normalised units of one 400 Gb/s port; per-accelerator
injection capacity is 4.0 in every simulated configuration (Section III-D).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import registry as _obs
from ..topology.base import Topology
from .paths import DEFAULT_MAX_PATHS, PathProvider
from .policy import RoutingPolicy, get_policy
from .routing import (
    RouteTable,
    register_route_cache_client,
    route_table_for,
)
from .traffic import Flow

__all__ = [
    "DeltaSolve",
    "FlowAssignment",
    "FlowSimulator",
    "PhaseResult",
    "WarmState",
]

_EPS = 1e-9

#: Sentinel water level for links that are not saturated (no constraint).
_NO_LAM = 1e30

# flowsim.* instruments (module-bound; the registry resets them in place).
_MAXMIN_SOLVES = _obs.counter("flowsim.maxmin_solves")
_MAXMIN_ROUNDS = _obs.histogram("flowsim.maxmin_rounds")
_FROZEN_PER_ROUND = _obs.histogram("flowsim.frozen_per_round")
_ASSIGNMENTS_BUILT = _obs.counter("flowsim.assignments_built")
_ASSIGNMENT_HITS = _obs.counter("flowsim.assignment_cache_hits")
_BATCH_SIZE = _obs.histogram("flowsim.batch_size")
# delta-solve attribution: how many perturbation solves were served warm,
# how many fell back to the cold solver, and how local each one was.
_DELTA_SOLVES = _obs.counter("flowsim.delta_solves")
_DELTA_WARM = _obs.counter("flowsim.delta_warm_hits")
_DELTA_FALLBACKS = _obs.counter("flowsim.delta_fallbacks")
_DELTA_ASSIGNS = _obs.counter("flowsim.delta_assignments")
_DELTA_CHANGED = _obs.histogram("flowsim.delta_changed_flows")
_DELTA_ACTIVE = _obs.histogram("flowsim.delta_active_subflows")
_DELTA_BATCH = _obs.histogram("flowsim.delta_batch_size")
# sparse link-space compaction: active (touched) links per solve
_ACTIVE_LINKS = _obs.histogram("flowsim.active_links")


def _sparse_links_enabled() -> bool:
    """Whether solvers compact onto the active-link subset (default: yes).

    ``REPRO_SPARSE_LINKS=0`` (or ``false``/``no``/``off``) restores the
    dense O(num_links)-per-round path; both paths are bit-identical, the
    flag exists for benchmarking and for bisecting regressions.
    """
    raw = os.environ.get("REPRO_SPARSE_LINKS")
    if raw is None or not raw.strip():
        return True
    return raw.strip().lower() not in ("0", "false", "no", "off")


#: Batch solves compact onto active (scenario, link) cells only when the
#: active fraction is below this: at high density the compaction's per-round
#: gathers cost more than the dense path's fixed-shape broadcasts save.
#: Both paths are bit-identical, so the gate is a pure performance choice.
_SPARSE_BATCH_MAX_DENSITY = 0.5

#: Distinct flow patterns whose :class:`FlowAssignment` is kept per simulator.
#: Collective schedules and the alltoall aggregate re-assign identical flow
#: sets (same endpoints and demands) many times; 64 patterns comfortably
#: cover the phase structure of every schedule in the repository.  Override
#: per simulator with the ``assign_cache`` constructor argument (0 disables
#: the cache).
_ASSIGNMENT_CACHE_SIZE = 64


@dataclass
class FlowAssignment:
    """Internal representation of a set of flows routed onto the topology.

    ``entry_link[i]`` / ``entry_subflow[i]`` give, for every (subflow, link)
    incidence, the directed link index and the subflow index; ``subflow_flow``
    maps subflows back to the originating flow and ``subflow_weight`` holds
    the share of the flow's demand carried by the subflow (1/k for k paths).

    ``entry_subflow`` is sorted by construction, so the entries of subflow
    ``s`` form a contiguous slice; the incremental max-min solver leans on
    that plus a lazily-built link-to-entries CSR index (both cached here,
    since assignments themselves are cached and reused across solves).
    """

    num_flows: int
    num_subflows: int
    entry_link: np.ndarray
    entry_subflow: np.ndarray
    subflow_flow: np.ndarray
    subflow_weight: np.ndarray
    flow_demand: np.ndarray
    # Lazily-built indexes for the incremental solver (see subflow_offsets /
    # link_index); None until first used.
    _subflow_offsets: Optional[np.ndarray] = None
    _link_entry_offsets: Optional[np.ndarray] = None
    _link_entry_ids: Optional[np.ndarray] = None
    _link_entry_order: Optional[np.ndarray] = None
    # Lazily-built indexes for the delta path (see flow_subflow_offsets /
    # subflow_weights / entry_weights); None until first used.
    _flow_subflow_offsets: Optional[np.ndarray] = None
    _subflow_weights: Optional[np.ndarray] = None
    _entry_weights: Optional[np.ndarray] = None
    # Lazily-built active-link compaction (see compact_link_index).
    _compact_links: Optional[np.ndarray] = None
    _compact_inverse: Optional[np.ndarray] = None
    _compact_offsets: Optional[np.ndarray] = None
    _compact_subflows: Optional[np.ndarray] = None

    def subflow_offsets(self) -> np.ndarray:
        """Entry-range offsets per subflow: entries of ``s`` are
        ``[offsets[s], offsets[s+1])`` (valid because ``entry_subflow`` is
        sorted)."""
        if self._subflow_offsets is None:
            counts = np.bincount(self.entry_subflow, minlength=self.num_subflows)
            self._subflow_offsets = np.concatenate(
                ([0], np.cumsum(counts))
            ).astype(np.int64)
        return self._subflow_offsets

    def link_index(self, num_links: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSR index from links to crossing subflows: the subflows whose
        entries cross link ``l`` are ``subs[offsets[l]:offsets[l+1]]`` (one
        id per crossing entry, in entry order; a subflow crossing twice
        appears twice)."""
        if self._link_entry_offsets is None:
            order = np.argsort(self.entry_link, kind="stable").astype(np.int64)
            counts = np.bincount(self.entry_link, minlength=num_links)
            self._link_entry_offsets = np.concatenate(
                ([0], np.cumsum(counts))
            ).astype(np.int64)
            self._link_entry_ids = self.entry_subflow[order]
            self._link_entry_order = order
        return self._link_entry_offsets, self._link_entry_ids

    def compact_link_index(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Active-link compaction: ``(links, inverse, offsets, subflows)``.

        ``links`` is the sorted unique set of links the assignment touches;
        ``inverse`` remaps ``entry_link`` onto compact indices (``inverse``
        is a *monotone* relabeling, so per-link entry order — and therefore
        every sequential ``bincount`` summation — is preserved exactly);
        ``offsets``/``subflows`` are the compact-space equivalent of
        :meth:`link_index`.  This is what lets the solvers water-fill in
        O(active links) per round instead of O(num_links).
        """
        if self._compact_links is None:
            uL, inv = np.unique(self.entry_link, return_inverse=True)
            inv = inv.astype(np.int64, copy=False)
            order = np.argsort(inv, kind="stable").astype(np.int64)
            counts = np.bincount(inv, minlength=len(uL))
            self._compact_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            self._compact_subflows = self.entry_subflow[order]
            self._compact_links = uL.astype(np.int64, copy=False)
            self._compact_inverse = inv
        return (
            self._compact_links,
            self._compact_inverse,
            self._compact_offsets,
            self._compact_subflows,
        )

    def link_entry_order(self, num_links: int) -> np.ndarray:
        """Entry ids sorted by link (the permutation behind
        :meth:`link_index`): the entries crossing link ``l`` are
        ``order[offsets[l]:offsets[l+1]]``."""
        self.link_index(num_links)
        return self._link_entry_order

    def flow_subflow_offsets(self) -> np.ndarray:
        """Subflow-range offsets per flow: the subflows of flow ``i`` are
        ``[offsets[i], offsets[i+1])`` (``subflow_flow`` is sorted by
        construction)."""
        if self._flow_subflow_offsets is None:
            counts = np.bincount(self.subflow_flow, minlength=self.num_flows)
            self._flow_subflow_offsets = np.concatenate(
                ([0], np.cumsum(counts))
            ).astype(np.int64)
        return self._flow_subflow_offsets

    def flow_entry_offsets(self) -> np.ndarray:
        """Entry-range offsets per flow (a flow's subflows are contiguous, so
        its entries are too)."""
        return self.subflow_offsets()[self.flow_subflow_offsets()]

    def subflow_weights(self) -> np.ndarray:
        """Per-subflow demand share: path weight times the flow's demand."""
        if self._subflow_weights is None:
            self._subflow_weights = self.subflow_weight * self.flow_demand[self.subflow_flow]
        return self._subflow_weights

    def entry_weights(self) -> np.ndarray:
        """Per-entry demand share (the crossing subflow's weight)."""
        if self._entry_weights is None:
            self._entry_weights = self.subflow_weights()[self.entry_subflow]
        return self._entry_weights

    def apply_delta(
        self,
        changed: np.ndarray,
        num_flows: int,
        seg_demand: np.ndarray,
        seg_counts: np.ndarray,
        seg_weights: np.ndarray,
        seg_links: np.ndarray,
        seg_lengths: np.ndarray,
    ) -> "FlowAssignment":
        """A new assignment with the routed state of ``changed`` flows replaced.

        ``changed`` (sorted, unique) indexes flows in the *new* flow list of
        ``num_flows`` flows: indices past the old flow count describe appended
        flows (all of which must be listed), while old flows past
        ``num_flows`` are dropped.  The ``seg_*`` arrays hold the changed
        flows' new routing concatenated in ``changed`` order — demand and
        path count per flow, then per-subflow weights and entry counts, then
        the concatenated entry links — exactly the per-pair arrays a cold
        :meth:`FlowSimulator.assign` gathers.  Unchanged flows' CSR rows are
        spliced in verbatim, so the result is element-wise identical to a
        cold assignment of the new flow list (same flow-major order, same
        per-pair path order); only O(changed) routing work is done.
        """
        changed = np.asarray(changed, dtype=np.int64)
        if len(changed) and (int(changed[0]) < 0 or int(changed[-1]) >= num_flows):
            raise ValueError("changed flow indices out of range")
        if num_flows > self.num_flows:
            appended = np.arange(self.num_flows, num_flows, dtype=np.int64)
            if not np.isin(appended, changed).all():
                raise ValueError("appended flows must all be listed as changed")
        n_common = min(self.num_flows, num_flows)
        fso = self.flow_subflow_offsets()
        seo = self.subflow_offsets()
        old_counts = np.diff(fso)
        old_lengths = np.diff(seo)
        seg_counts = np.asarray(seg_counts, dtype=np.int64)
        seg_lengths = np.asarray(seg_lengths, dtype=np.int64)
        seg_sub_off = np.concatenate(([0], np.cumsum(seg_counts))).astype(np.int64)
        seg_entry_off = np.concatenate(([0], np.cumsum(seg_lengths))).astype(np.int64)
        # Entry offset of each changed flow's segment (its subflows'
        # entry counts are contiguous in seg_lengths).
        seg_flow_entry = seg_entry_off[seg_sub_off]
        w_parts: List[np.ndarray] = []
        len_parts: List[np.ndarray] = []
        link_parts: List[np.ndarray] = []
        cnt_parts: List[np.ndarray] = []
        dem_parts: List[np.ndarray] = []

        def _old_chunk(lo: int, hi: int) -> None:
            s0, s1 = int(fso[lo]), int(fso[hi])
            w_parts.append(self.subflow_weight[s0:s1])
            len_parts.append(old_lengths[s0:s1])
            link_parts.append(self.entry_link[int(seo[s0]) : int(seo[s1])])
            cnt_parts.append(old_counts[lo:hi])
            dem_parts.append(self.flow_demand[lo:hi])

        prev = 0
        for k, fi in enumerate(changed.tolist()):
            hi = min(fi, n_common)
            if hi > prev:
                _old_chunk(prev, hi)
            w_parts.append(seg_weights[seg_sub_off[k] : seg_sub_off[k + 1]])
            len_parts.append(seg_lengths[seg_sub_off[k] : seg_sub_off[k + 1]])
            link_parts.append(seg_links[seg_flow_entry[k] : seg_flow_entry[k + 1]])
            cnt_parts.append(seg_counts[k : k + 1])
            dem_parts.append(seg_demand[k : k + 1])
            prev = fi + 1
        if n_common > prev:
            _old_chunk(prev, n_common)
        subflow_weight = np.concatenate(w_parts) if w_parts else np.zeros(0)
        sub_lengths = (
            np.concatenate(len_parts) if len_parts else np.zeros(0, dtype=np.int64)
        )
        entry_link = (
            np.concatenate(link_parts) if link_parts else np.zeros(0, dtype=np.int64)
        )
        counts = (
            np.concatenate(cnt_parts) if cnt_parts else np.zeros(0, dtype=np.int64)
        )
        if sub_lengths.dtype != np.int64:
            sub_lengths = sub_lengths.astype(np.int64)
        if entry_link.dtype != np.int64:
            entry_link = entry_link.astype(np.int64)
        if counts.dtype != np.int64:
            counts = counts.astype(np.int64)
        flow_demand = np.concatenate(dem_parts) if dem_parts else np.zeros(0)
        num_subflows = int(counts.sum())
        out = FlowAssignment(
            num_flows=num_flows,
            num_subflows=num_subflows,
            entry_link=entry_link,
            entry_subflow=np.repeat(np.arange(num_subflows, dtype=np.int64), sub_lengths),
            subflow_flow=np.repeat(np.arange(num_flows, dtype=np.int64), counts),
            subflow_weight=subflow_weight,
            flow_demand=flow_demand,
        )
        # The splice already knows both CSR layouts; seed the lazy indexes.
        out._subflow_offsets = np.concatenate(([0], np.cumsum(sub_lengths))).astype(np.int64)
        out._flow_subflow_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return out


def _gather_ranges(offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(offsets[i], offsets[i+1])`` for every id.

    The CSR multi-range gather (same contract as
    :func:`repro.sim.routing.csr_range_indices`, minus the per-range lengths),
    used by the incremental solver to collect the entries of a set of
    subflows (or of a set of links) without a Python loop.  Inlined rather
    than delegated: the delta path calls this a dozen times per solve on
    tiny id sets, so per-call overhead is what matters.
    """
    if not len(ids):
        return np.zeros(0, dtype=np.int64)
    starts = offsets[ids]
    counts = offsets[ids + 1] - starts
    ends = np.cumsum(counts)
    out = np.arange(int(ends[-1]), dtype=np.int64)
    out += np.repeat(starts - (ends - counts), counts)
    return out


def _splice_flow_array(
    old_vals: np.ndarray,
    old_off: np.ndarray,
    new_off: np.ndarray,
    changed_idx: np.ndarray,
    n_common: int,
) -> np.ndarray:
    """Splice a per-flow CSR payload across a delta: old chunks for unchanged
    flows (flow ids below ``n_common`` keep their numbering), zero-filled
    chunks (sized by ``new_off``) for every changed or appended flow."""
    parts = []
    prev = 0
    for fi in changed_idx.tolist():
        hi = fi if fi < n_common else n_common
        if hi > prev:
            parts.append(old_vals[old_off[prev] : old_off[hi]])
        parts.append(np.zeros(int(new_off[fi + 1] - new_off[fi])))
        prev = fi + 1
    if n_common > prev:
        parts.append(old_vals[old_off[prev] : old_off[n_common]])
    return np.concatenate(parts) if parts else np.zeros(0)


def _pair_range_path_ids(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated path ids ``[first[i], first[i] + counts[i])`` per pair."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    offset_within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(first, counts) + offset_within


@dataclass
class PhaseResult:
    """Result of simulating one traffic phase."""

    flow_rates: np.ndarray          # achieved rate per flow (bandwidth units)
    link_utilization: np.ndarray    # fraction of each link's capacity in use
    bottleneck_link: int            # index of the most utilised link

    @property
    def min_rate(self) -> float:
        return float(self.flow_rates.min()) if len(self.flow_rates) else 0.0

    @property
    def mean_rate(self) -> float:
        return float(self.flow_rates.mean()) if len(self.flow_rates) else 0.0


@dataclass
class WarmState:
    """The fixed point of one max-min solve, packaged for delta re-solves.

    Besides the solved :class:`PhaseResult` it carries everything the warm
    path needs to re-verify a perturbed instance: the routed assignment, the
    per-subflow freeze levels, the per-entry rates they imply, and the
    per-link used bandwidth.  Produced by
    :meth:`FlowSimulator.maxmin_warm_state` and by every
    :meth:`FlowSimulator.maxmin_rates_delta` call (chainable: each delta
    solve returns the state of the *new* flow list).
    """

    src: np.ndarray
    dst: np.ndarray
    demand: np.ndarray
    asg: FlowAssignment
    levels: np.ndarray
    entry_rate: np.ndarray
    used: np.ndarray
    #: Per-link water level: the max crossing freeze level on saturated
    #: links, ``_NO_LAM`` elsewhere.  Lets delta solves seed the cascade
    #: closure and re-verify only touched links.
    link_lam: np.ndarray
    result: PhaseResult


@dataclass
class DeltaSolve:
    """Result of one :meth:`FlowSimulator.maxmin_rates_delta` call.

    ``warm`` is True when the warm-started candidate passed the exact
    max-min verification; False means the solve fell back to the cold
    progressive filling (the rates are correct either way).  ``attempts``
    counts relaxed-fill rounds tried before success or fallback.  ``state``
    is ``None`` when the solve was invoked with ``want_state=False``.
    """

    result: PhaseResult
    state: Optional[WarmState]
    warm: bool
    changed: int
    attempts: int


class FlowSimulator:
    """Max-min fair flow-level simulator over a :class:`Topology`.

    Routing state lives in a :class:`~repro.sim.routing.RouteTable` shared
    per ``(topology, policy, max_paths)``: constructing a second simulator on
    the same topology reuses every path already enumerated by the first one.
    Pass ``table`` to share an explicitly-built table, ``provider`` to
    route through a custom provider (which gets a private table), or
    ``policy`` to select a routing policy by name or instance
    (:mod:`repro.sim.policy`; the default reproduces minimal multipath
    routing bit-identically).
    """

    def __init__(
        self,
        topo: Topology,
        *,
        provider: Optional[PathProvider] = None,
        max_paths: int = DEFAULT_MAX_PATHS,
        table: Optional[RouteTable] = None,
        policy: Union[str, RoutingPolicy, None] = None,
        assign_cache: Optional[int] = None,
    ):
        self.topo = topo
        if table is not None:
            if policy is not None and get_policy(policy).cache_key() != table.policy.cache_key():
                raise ValueError(
                    "explicit table was built for a different routing policy"
                )
            self.table = table
        elif provider is not None:
            self.table = RouteTable(topo, max_paths=max_paths, provider=provider, policy=policy)
        else:
            self.table = route_table_for(topo, max_paths=max_paths, policy=policy)
        self.provider = self.table.provider
        self.max_paths = self.table.max_paths
        self.policy = self.table.policy
        self.capacity = topo.link_capacity_array()
        self.ranks = list(topo.accelerators)
        self._rank_nodes = np.asarray(self.ranks, dtype=np.int64)
        self.injection_capacity = float(topo.meta.get("injection_capacity", 4.0))
        self.assign_cache = _ASSIGNMENT_CACHE_SIZE if assign_cache is None else int(assign_cache)
        if self.assign_cache < 0:
            raise ValueError(f"assign_cache must be >= 0, got {assign_cache}")
        self._assignments: "OrderedDict[Tuple, FlowAssignment]" = OrderedDict()
        register_route_cache_client(self)

    def clear_route_caches(self) -> None:
        """Drop cached :class:`FlowAssignment` objects (route-state reset)."""
        self._assignments.clear()

    # ------------------------------------------------------------------ paths
    def _paths(self, src_node: int, dst_node: int) -> List[List[int]]:
        return self.table.paths(src_node, dst_node)

    def node_of_rank(self, rank: int) -> int:
        return self.ranks[rank]

    # -------------------------------------------------------------- assignment
    def assign(self, flows: Sequence[Flow]) -> FlowAssignment:
        """Route ``flows`` (given in ranks) and build the incidence arrays.

        The incidence arrays are gathered from the route table's CSR storage
        with pure NumPy operations; assignments for recently-seen flow
        patterns (identical endpoints and demands) are returned from a small
        LRU cache, since collective schedules and the alltoall aggregate
        re-assign the same flow sets repeatedly.

        Subflow weights come from the routing policy's per-path table
        weights (an even ``1/k`` for minimal routing, a single unit weight
        for ECMP, an even split over the Valiant detours).  Under the
        ``ugal`` policy each flow is first tentatively routed minimally;
        the resulting link utilisation estimate then decides, per flow,
        whether its minimal or its Valiant candidate group carries the
        traffic (see :meth:`_ugal_paths`).
        """
        key = tuple((f.src, f.dst, f.demand) for f in flows)
        if self.assign_cache:
            cached = self._assignments.get(key)
            if cached is not None:
                self._assignments.move_to_end(key)
                _ASSIGNMENT_HITS.inc()
                return cached
        _ASSIGNMENTS_BUILT.inc()
        src_ranks = np.fromiter((f.src for f in flows), dtype=np.int64, count=len(flows))
        dst_ranks = np.fromiter((f.dst for f in flows), dtype=np.int64, count=len(flows))
        if (src_ranks == dst_ranks).any():
            raise ValueError("flows must have distinct endpoints")
        flow_demand = np.fromiter((f.demand for f in flows), dtype=np.float64, count=len(flows))
        first, npaths = self.table.pair_arrays(
            self._rank_nodes[src_ranks], self._rank_nodes[dst_ranks]
        )
        if self.policy.selects_group:
            nmin = self.table.pair_minimal_counts(
                self._rank_nodes[src_ranks], self._rank_nodes[dst_ranks]
            )
            path_ids, npaths = self._ugal_paths(flow_demand, first, npaths, nmin)
            # The chosen candidates split evenly (table weights describe the
            # static minimal-first layout, not the per-flow choice).
            subflow_weight = np.repeat(1.0 / np.maximum(npaths, 1), npaths)
        else:
            # Per-subflow path id: each flow's subflows cover the contiguous
            # path-id range [first, first + npaths) of its (src, dst) pair.
            path_ids = _pair_range_path_ids(first, npaths)
            subflow_weight = self.table.gather_path_weights(path_ids)
        num_subflows = int(npaths.sum())
        subflow_flow = np.repeat(np.arange(len(flows), dtype=np.int64), npaths)
        entry_link, path_lengths = self.table.gather_links(path_ids)
        entry_subflow = np.repeat(np.arange(num_subflows, dtype=np.int64), path_lengths)
        asg = FlowAssignment(
            num_flows=len(flows),
            num_subflows=num_subflows,
            entry_link=entry_link,
            entry_subflow=entry_subflow,
            subflow_flow=subflow_flow,
            subflow_weight=subflow_weight,
            flow_demand=flow_demand,
        )
        if self.assign_cache:
            self._assignments[key] = asg
            while len(self._assignments) > self.assign_cache:
                self._assignments.popitem(last=False)
        return asg

    def _ugal_paths(
        self,
        flow_demand: np.ndarray,
        first: np.ndarray,
        npaths: np.ndarray,
        nmin: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """UGAL's per-flow choice between minimal and Valiant candidates.

        Estimates link utilisation as if every flow routed minimally (the
        UGAL null hypothesis) and scores each candidate path as ``hop count
        x bottleneck utilisation`` (the flow-level analogue of UGAL's
        ``queue length x path length`` comparison).  When scoring a flow's
        own candidates, its own minimal-route contribution is subtracted
        from the load — a queue a packet samples never contains the packet
        itself, and without the exclusion a lone flow in an empty network
        would read its own load as congestion and misroute.  A flow whose
        cheapest
        Valiant candidate beats its cheapest minimal one spreads over its
        minimal group *plus* all strictly-cheaper Valiant candidates — the
        fluid-steady-state picture of UGAL, whose per-packet queue feedback
        keeps sending minimally while the detours are no worse, equalising
        load across both groups (an either/or choice would just move the
        congestion to whichever group was picked).  Otherwise the flow
        keeps the even split over its minimal group; ties — in particular
        the fully uncongested case, where every score is zero — keep the
        shorter minimal routes.  Deterministic for a given flow set and
        independent of flow order.

        Returns ``(path_ids, counts)``: the selected path ids of all flows
        concatenated, and how many each flow owns.
        """
        L = len(self.capacity)
        # Pass 1: link load if everyone routed minimally (even 1/k split).
        min_ids = _pair_range_path_ids(first, nmin)
        links, lengths = self.table.gather_links(min_ids)
        per_path_w = np.repeat(flow_demand / np.maximum(nmin, 1), nmin)
        load = np.bincount(
            links, weights=np.repeat(per_path_w, lengths), minlength=L
        )
        inv_capacity = np.where(self.capacity > 0, 1.0 / self.capacity, 0.0)
        # Pass 2: per-candidate congestion score, excluding the flow's own
        # minimal-route contribution from the load it samples.
        all_ids = _pair_range_path_ids(first, npaths)
        links_all, lengths_all = self.table.gather_links(all_ids)
        entry_starts = np.concatenate(([0], np.cumsum(lengths_all)))
        path_starts = np.cumsum(npaths) - npaths
        # Per-flow slices of the minimal-entry arrays (pass 1's layout).
        min_entry_ends = np.cumsum(
            np.add.reduceat(lengths, np.cumsum(nmin) - nmin)
        ) if len(lengths) else np.zeros(len(npaths), dtype=np.int64)
        own = np.zeros(L)
        ids: List[int] = []
        counts = np.empty(len(npaths), dtype=np.int64)
        for i in range(len(npaths)):
            m, k = int(nmin[i]), int(npaths[i])
            f0, s = int(first[i]), int(path_starts[i])
            # This flow's own minimal load (what pass 1 charged for it).
            o_start = int(min_entry_ends[i - 1]) if i > 0 else 0
            o_end = int(min_entry_ends[i])
            own_links = links[o_start:o_end]
            # Pass 1 charged demand/m per link occurrence of each of this
            # flow's m minimal paths; undo exactly that (occurrences stack).
            np.add.at(own, own_links, flow_demand[i] / max(m, 1))
            cheaper: List[int] = []
            if 0 < m < k:
                e0, e1 = int(entry_starts[s]), int(entry_starts[s + k])
                seg_links = links_all[e0:e1]
                exclusive = np.maximum(load[seg_links] - own[seg_links], 0.0)
                util = exclusive * inv_capacity[seg_links]
                # Every candidate has >= 1 link (self-pairs are rejected
                # upstream), so the segmented max never sees an empty segment.
                seg_bounds = (entry_starts[s : s + k] - e0).astype(np.int64)
                bottleneck = np.maximum.reduceat(util, seg_bounds)
                cost = lengths_all[s : s + k] * bottleneck
                best_minimal = cost[:m].min()
                cheaper = [f0 + m + j for j in range(k - m) if cost[m + j] < best_minimal]
            own[own_links] = 0.0
            end = m if 0 < m <= k else k
            chosen = list(range(f0, f0 + end)) + cheaper
            ids.extend(chosen)
            counts[i] = len(chosen)
        return np.asarray(ids, dtype=np.int64), counts

    # -------------------------------------------------------- symmetric solver
    def symmetric_rate(self, flows: Sequence[Flow]) -> PhaseResult:
        """Throughput when all flows progress at a common rate.

        Exact for symmetric patterns (ring phases, balanced-shift alltoall
        phases) where fairness forces every flow to the same rate: the common
        rate is ``min_e capacity_e / load_e`` with per-link load computed from
        the even multipath split and per-flow demand weights.
        """
        asg = self.assign(flows)
        weights = (
            asg.subflow_weight[asg.entry_subflow]
            * asg.flow_demand[asg.subflow_flow[asg.entry_subflow]]
        )
        load = np.bincount(asg.entry_link, weights=weights, minlength=len(self.capacity))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(load > _EPS, self.capacity / np.maximum(load, _EPS), np.inf)
        rate = float(ratio.min()) if len(ratio) else 0.0
        bottleneck = int(np.argmin(ratio)) if len(ratio) else -1
        link_util = np.where(self.capacity > 0, load * rate / self.capacity, 0.0)
        return PhaseResult(
            flow_rates=asg.flow_demand * rate,
            link_utilization=link_util,
            bottleneck_link=bottleneck,
        )

    # ----------------------------------------------------------- max-min solver
    def maxmin_rates(self, flows: Sequence[Flow], *, max_iterations: int = 100000) -> PhaseResult:
        """Max-min fair per-flow rates via **incremental** progressive filling.

        Subflows (one per candidate path) are filled simultaneously; a flow's
        rate is the sum of its subflow rates.  Flow demands scale the filling
        speed, so a flow with demand 2 receives twice the rate of a demand-1
        flow sharing the same bottleneck (weighted max-min fairness).

        Unlike the reference solver
        (:func:`repro.sim.reference.reference_maxmin_rates`), per-link load
        is maintained incrementally: it is bincounted once, and each
        bottleneck round subtracts only the entries of the subflows frozen in
        that round — O(total entries) amortized over the whole solve instead
        of O(entries) per round.  Subflows to freeze are likewise found by
        gathering only the entries of *freshly* saturated links through a
        link-to-entries CSR index (a subflow crossing a previously saturated
        link was already frozen in that earlier round).  Rates match the
        reference to ~1e-12 relative (the subtraction reorders float
        summation); the parity test pins the two solvers together at 1e-9.
        """
        asg = self.assign(flows)
        sub_weights, fill_at_freeze, remaining = self._fill_levels(
            asg, max_iterations=max_iterations
        )
        return self._phase_result(asg, sub_weights, fill_at_freeze, remaining)

    def _fill_levels(
        self, asg: FlowAssignment, *, max_iterations: int = 100000
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cold progressive-filling loop on an assignment.

        Returns ``(sub_weights, fill_at_freeze, remaining)``: the per-subflow
        demand shares, the fill level each subflow froze at, and the per-link
        remaining capacity at the fixed point.  Shared by
        :meth:`maxmin_rates`, :meth:`maxmin_warm_state` and the delta path's
        exact fallback — all three produce bit-identical levels.
        """
        L = len(self.capacity)
        # Per-entry weight: demand share carried by the subflow on that link.
        sub_weights = asg.subflow_weights()
        entry_weight = asg.entry_weights()
        sub_offsets = asg.subflow_offsets()
        # Sparse link-space compaction (default): every per-round array runs
        # over the links the assignment actually touches.  The compaction's
        # ``inverse`` is a monotone relabeling of ``entry_link``, so every
        # bincount sums entries in the same order as the dense path, the
        # headroom minimum matches (untouched links contribute +inf), and
        # the scattered-back ``remaining`` equals the dense output bitwise
        # (untouched links see a +0.0 load, and ``x - 0.0 * inc == x``).
        if _sparse_links_enabled():
            active_links, entry_link, link_offsets, link_subflows = asg.compact_link_index()
            nL = len(active_links)
            _ACTIVE_LINKS.observe(nL)
            capacity = self.capacity[active_links]
        else:
            active_links = None
            entry_link = asg.entry_link
            link_offsets, link_subflows = asg.link_index(L)
            nL = L
            capacity = self.capacity
        remaining = capacity.copy()
        active = np.ones(asg.num_subflows, dtype=bool)
        num_active = asg.num_subflows
        load = np.bincount(entry_link, weights=entry_weight, minlength=nL)
        # A subflow's rate is its weight times the cumulative fill level at
        # the moment it froze, so the loop only records freeze levels — no
        # per-round pass over the subflows.
        fill = 0.0
        fill_at_freeze = np.zeros(asg.num_subflows)
        # Loop-invariant pieces, hoisted: the saturation threshold and the
        # errstate guard for the 0/0 -> masked-away headroom entries.
        sat_threshold = _EPS * (1.0 + capacity)
        saturated_ever = np.zeros(nL, dtype=bool)
        iterations = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while num_active and nL:
                iterations += 1
                if iterations > max_iterations:  # pragma: no cover - defensive
                    raise RuntimeError("max-min filling did not converge")
                headroom = np.where(load > _EPS, remaining / np.maximum(load, _EPS), np.inf)
                inc = float(headroom.min())
                if not np.isfinite(inc):
                    break
                fill += inc
                remaining = remaining - load * inc
                # Freeze subflows crossing freshly saturated links; previously
                # saturated links cannot contribute (their crossing subflows
                # froze when they saturated), so only fresh links are gathered.
                sat_idx = np.nonzero(remaining <= sat_threshold)[0]
                new_idx = sat_idx[~saturated_ever[sat_idx]]
                if not len(new_idx):  # pragma: no cover - numerical safety
                    break
                saturated_ever[new_idx] = True
                frozen = link_subflows[_gather_ranges(link_offsets, new_idx)]
                frozen = frozen[active[frozen]]
                if len(frozen):
                    frozen = np.unique(frozen)
                    _FROZEN_PER_ROUND.observe(len(frozen))
                    active[frozen] = False
                    num_active -= len(frozen)
                    fill_at_freeze[frozen] = fill
                    gone = _gather_ranges(sub_offsets, frozen)
                    load = load - np.bincount(
                        entry_link[gone], weights=entry_weight[gone], minlength=nL
                    )
                # Active load on a saturated link is exactly zero (every
                # crossing subflow is now frozen); pin it to kill drift.
                load[new_idx] = 0.0
        # Subflows still active on exit (inf headroom: nothing left to fill
        # against) receive the full accumulated fill, as in the reference.
        if num_active:
            fill_at_freeze[active] = fill
        _MAXMIN_SOLVES.inc()
        _MAXMIN_ROUNDS.observe(iterations)
        if active_links is not None:
            remaining_full = self.capacity.copy()
            remaining_full[active_links] = remaining
            remaining = remaining_full
        return sub_weights, fill_at_freeze, remaining

    def _phase_result(
        self,
        asg: FlowAssignment,
        sub_weights: np.ndarray,
        fill_at_freeze: np.ndarray,
        remaining: np.ndarray,
    ) -> PhaseResult:
        """Assemble a :class:`PhaseResult` from solved freeze levels."""
        sub_rate = sub_weights * fill_at_freeze
        flow_rates = np.bincount(asg.subflow_flow, weights=sub_rate, minlength=asg.num_flows)
        used = self.capacity - remaining
        link_util = np.where(self.capacity > 0, used / self.capacity, 0.0)
        bottleneck = int(np.argmax(link_util)) if len(self.capacity) else -1
        return PhaseResult(
            flow_rates=flow_rates, link_utilization=link_util, bottleneck_link=bottleneck
        )

    # ------------------------------------------------------------ delta solves
    def maxmin_warm_state(
        self, flows: Sequence[Flow], *, max_iterations: int = 100000
    ) -> WarmState:
        """Cold-solve ``flows`` and capture the fixed point for delta solves.

        The returned :class:`WarmState` seeds
        :meth:`maxmin_rates_delta`; its ``result`` field holds the same
        :class:`PhaseResult` a plain :meth:`maxmin_rates` call produces.
        """
        flows = list(flows)
        asg = self.assign(flows)
        sub_weights, levels, remaining = self._fill_levels(
            asg, max_iterations=max_iterations
        )
        result = self._phase_result(asg, sub_weights, levels, remaining)
        return self._warm_state_from(flows, asg, sub_weights, levels, result)

    def _warm_state_from(
        self,
        flows: Sequence[Flow],
        asg: FlowAssignment,
        sub_weights: np.ndarray,
        levels: np.ndarray,
        result: PhaseResult,
        *,
        src: Optional[np.ndarray] = None,
        dst: Optional[np.ndarray] = None,
        demand: Optional[np.ndarray] = None,
    ) -> WarmState:
        if src is None:
            n = len(flows)
            src = np.fromiter((f.src for f in flows), dtype=np.int64, count=n)
            dst = np.fromiter((f.dst for f in flows), dtype=np.int64, count=n)
            demand = np.fromiter((f.demand for f in flows), dtype=np.float64, count=n)
        entry_rate = (sub_weights * levels)[asg.entry_subflow]
        used = np.bincount(asg.entry_link, weights=entry_rate, minlength=len(self.capacity))
        return WarmState(
            src=src,
            dst=dst,
            demand=demand,
            asg=asg,
            levels=levels,
            entry_rate=entry_rate,
            used=used,
            link_lam=self._link_lam_of(asg, levels, used),
            result=result,
        )

    def _link_lam_of(
        self, asg: FlowAssignment, levels: np.ndarray, used: np.ndarray
    ) -> np.ndarray:
        """Per-link water level: max crossing level on saturated links."""
        cap = self.capacity
        lam = np.full(len(cap), _NO_LAM)
        if asg.num_subflows and len(asg.entry_link):
            order = np.argsort(asg.entry_link, kind="stable")
            sl = asg.entry_link[order]
            slev = levels[asg.entry_subflow[order]]
            starts = np.empty(len(sl), dtype=bool)
            starts[0] = True
            np.not_equal(sl[1:], sl[:-1], out=starts[1:])
            firsts = np.flatnonzero(starts)
            gmax = np.maximum.reduceat(slev, firsts)
            ul = sl[firsts]
            sat = used[ul] >= cap[ul] - 2.0 * _EPS * (1.0 + cap[ul])
            lam[ul[sat]] = gmax[sat]
        return lam

    def maxmin_rates_delta(
        self,
        state: WarmState,
        flows: Sequence[Flow],
        *,
        changed: Optional[Sequence[int]] = None,
        max_iterations: int = 100000,
        max_attempts: int = 3,
        max_active_fraction: float = 0.85,
        want_state: bool = True,
    ) -> DeltaSolve:
        """Max-min rates of ``flows`` warm-started from a previous fixed point.

        ``state`` is the solved state of a *similar* flow list (from
        :meth:`maxmin_warm_state` or a previous delta solve).  The changed
        flows' routes are spliced into the previous assignment
        (:meth:`FlowAssignment.apply_delta`) instead of re-gathering every
        pair, and their freeze levels are re-solved against the previous
        solution's per-link residuals (the *relaxed fill*: every unchanged
        subflow keeps its prior level).  The candidate is then verified
        against the exact max-min optimality conditions over the **whole**
        instance — feasibility on every link, and a saturated bottleneck
        link on which its level is maximal for every positive-weight subflow
        (the Bertsekas–Gallager characterisation, whose satisfaction pins
        the unique max-min point).  Candidates that fail grow the re-solved
        set once or twice (``max_attempts``); if verification still fails,
        or the perturbation is too large a fraction of the instance, the
        solve **falls back to the cold solver exactly** — results agree with
        :meth:`maxmin_rates` to well under 1e-12 either way.

        ``changed`` optionally lists the indices of flows that differ (it
        must cover every difference; same-length flow lists only) to skip
        the O(flows) diff.  Policies with per-flow group selection (UGAL)
        always solve cold: their routing depends on the global load, so no
        local perturbation argument applies.

        ``want_state=False`` skips building the chainable
        :class:`WarmState` (``DeltaSolve.state`` is then ``None``); the
        :class:`PhaseResult` is still returned.  Search loops use this for
        proposals they are likely to reject — evaluating the objective does
        not need the state — and re-solve with ``want_state=True`` only on
        acceptance.
        """
        flows = list(flows)
        n_new = len(flows)
        n_old = int(state.asg.num_flows)
        if changed is not None and n_new == n_old:
            changed_idx = np.asarray(
                sorted({int(i) for i in changed}), dtype=np.int64
            )
            if len(changed_idx) and (
                int(changed_idx[0]) < 0 or int(changed_idx[-1]) >= n_new
            ):
                raise ValueError("changed flow indices out of range")
            src = state.src.copy()
            dst = state.dst.copy()
            demand = state.demand.copy()
            for i in changed_idx.tolist():
                f = flows[i]
                src[i], dst[i], demand[i] = f.src, f.dst, f.demand
        else:
            src = np.fromiter((f.src for f in flows), dtype=np.int64, count=n_new)
            dst = np.fromiter((f.dst for f in flows), dtype=np.int64, count=n_new)
            demand = np.fromiter((f.demand for f in flows), dtype=np.float64, count=n_new)
            m = min(n_old, n_new)
            diff = (
                (src[:m] != state.src[:m])
                | (dst[:m] != state.dst[:m])
                | (demand[:m] != state.demand[:m])
            )
            changed_idx = np.concatenate(
                [np.flatnonzero(diff), np.arange(m, n_new, dtype=np.int64)]
            )
        _DELTA_SOLVES.inc()
        _DELTA_CHANGED.observe(len(changed_idx))
        if n_new == n_old and not len(changed_idx):
            _DELTA_WARM.inc()
            return DeltaSolve(result=state.result, state=state, warm=True, changed=0, attempts=0)
        if n_new == 0 or n_old == 0 or self.policy.selects_group:
            # UGAL re-selects per-flow path groups from the *global* load, so
            # no local perturbation argument applies; degenerate sizes (all
            # flows new or all gone) have nothing to reuse either.
            _DELTA_FALLBACKS.inc()
            new_state = self.maxmin_warm_state(flows, max_iterations=max_iterations)
            return DeltaSolve(
                result=new_state.result,
                state=new_state,
                warm=False,
                changed=len(changed_idx),
                attempts=0,
            )
        # The splice is valid regardless of how the solve goes.
        new_asg = self._assign_delta(state.asg, changed_idx, n_new, src, dst, demand)
        attempts = 0
        levels = used = link_lam = ae = ae_rate = active_set = None
        if len(changed_idx) <= max(4.0, max_active_fraction * n_new):
            (
                levels,
                used,
                link_lam,
                ae,
                ae_rate,
                active_set,
                attempts,
            ) = self._warm_levels(
                state, new_asg, changed_idx, max_attempts, max_active_fraction
            )
        if levels is not None:
            _DELTA_WARM.inc()
            cap = self.capacity
            if n_new == n_old:
                # Only the active subflows' rates moved: patch the prior
                # per-flow totals instead of re-reducing the whole instance.
                flow_rates = state.result.flow_rates.copy()
                new_fso = new_asg.flow_subflow_offsets()
                fpatch = np.unique(new_asg.subflow_flow[active_set])
                ps = _gather_ranges(new_fso, fpatch)
                plen = new_fso[fpatch + 1] - new_fso[fpatch]
                p_off = np.concatenate(([0], np.cumsum(plen[:-1]))).astype(np.int64)
                sw_ps = new_asg.subflow_weight[ps] * new_asg.flow_demand[
                    new_asg.subflow_flow[ps]
                ]
                flow_rates[fpatch] = np.add.reduceat(sw_ps * levels[ps], p_off)
            else:
                flow_rates = np.bincount(
                    new_asg.subflow_flow,
                    weights=new_asg.subflow_weights() * levels,
                    minlength=n_new,
                )
            link_util = np.where(cap > 0, used / cap, 0.0)
            bottleneck = int(np.argmax(link_util)) if len(cap) else -1
            result = PhaseResult(
                flow_rates=flow_rates,
                link_utilization=link_util,
                bottleneck_link=bottleneck,
            )
            new_state = None
            if want_state:
                entry_rate = _splice_flow_array(
                    state.entry_rate,
                    state.asg.flow_entry_offsets(),
                    new_asg.flow_entry_offsets(),
                    changed_idx,
                    min(n_old, n_new),
                )
                entry_rate[ae] = ae_rate
                new_state = WarmState(
                    src=src,
                    dst=dst,
                    demand=demand,
                    asg=new_asg,
                    levels=levels,
                    entry_rate=entry_rate,
                    used=used,
                    link_lam=link_lam,
                    result=result,
                )
            return DeltaSolve(
                result=result,
                state=new_state,
                warm=True,
                changed=len(changed_idx),
                attempts=attempts,
            )
        # Exact fallback: the cold fill on the spliced assignment.
        _DELTA_FALLBACKS.inc()
        sw, lv, remaining = self._fill_levels(new_asg, max_iterations=max_iterations)
        result = self._phase_result(new_asg, sw, lv, remaining)
        new_state = None
        if want_state:
            new_state = self._warm_state_from(
                flows, new_asg, sw, lv, result, src=src, dst=dst, demand=demand
            )
        return DeltaSolve(
            result=result,
            state=new_state,
            warm=False,
            changed=len(changed_idx),
            attempts=attempts,
        )

    def _assign_delta(
        self,
        asg: FlowAssignment,
        changed_idx: np.ndarray,
        n_new: int,
        src: np.ndarray,
        dst: np.ndarray,
        demand: np.ndarray,
    ) -> FlowAssignment:
        """Route only the changed pairs and splice them into ``asg``."""
        csrc = src[changed_idx]
        cdst = dst[changed_idx]
        if (csrc == cdst).any():
            raise ValueError("flows must have distinct endpoints")
        first, npaths = self.table.pair_arrays(
            self._rank_nodes[csrc], self._rank_nodes[cdst]
        )
        path_ids = _pair_range_path_ids(first, npaths)
        seg_weights = self.table.gather_path_weights(path_ids)
        seg_links, seg_lengths = self.table.gather_links(path_ids)
        _DELTA_ASSIGNS.inc()
        return asg.apply_delta(
            changed_idx, n_new, demand[changed_idx], npaths, seg_weights, seg_links, seg_lengths
        )

    def _warm_levels(
        self,
        state: WarmState,
        new_asg: FlowAssignment,
        changed_idx: np.ndarray,
        max_attempts: int,
        max_active_fraction: float,
    ):
        """Warm-start candidate levels for the spliced assignment.

        Carries every unchanged flow's freeze levels across the renumbering,
        then seeds the *active set* — the subflows whose levels the
        perturbation can move — by a directional closure over the prior
        bottleneck hierarchy: starting from the saturated links the changed
        flows touch, a link recruits the crossing subflows at (or above) its
        water level, and a recruited subflow recruits its other saturated
        links whose water level is at or above its own.  Max-min cascades
        propagate upward through bottleneck levels, so the closure tracks
        the true cascade instead of flooding the instance.  The active set
        is re-solved against the prior solution's residual capacities
        (:meth:`_relaxed_fill`) and verified against the exact optimality
        conditions (:meth:`_verify_delta`).  On verification failure the
        active set grows by the subflows crossing the violated links and the
        fill is retried, up to ``max_attempts`` times.  Returns ``(levels,
        used, link_lam, ae, ae_rate, active_set, attempts)`` or all-``None``
        plus the attempt count when the cold solver must take over.
        """
        fail = (None, None, None, None, None, None)
        old = state.asg
        n_old, n_new = old.num_flows, new_asg.num_flows
        n_common = min(n_old, n_new)
        cap = self.capacity
        L = len(cap)
        old_fso = old.flow_subflow_offsets()
        new_fso = new_asg.flow_subflow_offsets()
        old_seo = old.subflow_offsets()
        new_seo = new_asg.subflow_offsets()
        changed_mask = np.zeros(n_new, dtype=bool)
        changed_mask[changed_idx] = True
        levels = _splice_flow_array(
            state.levels, old_fso, new_fso, changed_idx, n_common
        )
        # Links whose load the perturbation touches: the changed flows' old
        # routes (load leaves) and new routes (load arrives), plus dropped
        # flows' routes on shrink.
        changed_before = changed_idx[changed_idx < n_common]
        dropped = (
            np.arange(n_new, n_old, dtype=np.int64)
            if n_old > n_new
            else np.empty(0, dtype=np.int64)
        )
        gone_subs = _gather_ranges(old_fso, np.concatenate([changed_before, dropped]))
        gone_e = _gather_ranges(old_seo, gone_subs)
        seg_subs = _gather_ranges(new_fso, changed_idx)
        seg_e = _gather_ranges(new_seo, seg_subs)
        dirty = np.zeros(L, dtype=bool)
        if len(gone_e):
            dirty[old.entry_link[gone_e]] = True
        dirty[new_asg.entry_link[seg_e]] = True
        # Directional closure over the prior bottleneck hierarchy.  A dirty
        # link's water level moves to roughly ``lam * W / (W + net_added)``
        # (weight-proportional drop when the changed flows add net load, no
        # drop when load only leaves), so residents at or above that
        # estimate are recruited; from there, a moved subflow can shift load
        # on its other links whose water level is at or above its own,
        # recruiting the residents at (or filling above) those levels in
        # turn.  Upward steps dominate real cascades, so the climb tracks
        # them without flooding the instance.  This is a seed heuristic —
        # exactness comes from :meth:`_verify_delta` plus expansion (which
        # recruits *every* resident of a violated link) and cold fallback.
        lam = state.link_lam
        sat_link = lam < _NO_LAM
        lo, ls = old.link_index(L)
        start0 = np.flatnonzero(dirty & sat_link)
        if len(start0):
            # Water-level-drop estimate on the seeded links only (an
            # underestimate recruits more residents — the safe direction).
            seg_sub = new_asg.entry_subflow[seg_e]
            seg_w = new_asg.subflow_weight[seg_sub] * new_asg.flow_demand[
                new_asg.subflow_flow[seg_sub]
            ]
            # bincount of an empty input yields int64 even with weights.
            add_w = np.bincount(
                new_asg.entry_link[seg_e], weights=seg_w, minlength=L
            ).astype(np.float64, copy=False)
            if len(gone_e):
                add_w -= np.bincount(
                    old.entry_link[gone_e],
                    weights=old.entry_weights()[gone_e],
                    minlength=L,
                )
            np.maximum(add_w, 0.0, out=add_w)
            lam_pos = np.where(sat_link & (lam > 0.0), lam, 1.0)
            w_est = state.used / lam_pos
            with np.errstate(divide="ignore", invalid="ignore"):
                thr0 = np.where(add_w > 0.0, lam * w_est / (w_est + add_w), lam)
        else:
            thr0 = None
        sub_seen = np.zeros(old.num_subflows, dtype=bool)
        if len(gone_subs):
            sub_seen[gone_subs] = True  # gone: accounted separately
        link_seen = np.zeros(L, dtype=bool)
        budget = max_active_fraction * max(new_asg.num_subflows, 1)
        seen_count = [0]

        def _closure(start_links: np.ndarray, thr: Optional[np.ndarray]) -> bool:
            frontier = start_links
            first = True
            for _ in range(64):
                if not len(frontier):
                    return True
                link_seen[frontier] = True
                cross = ls[_gather_ranges(lo, frontier)]
                if first:
                    first = False
                    if thr is None:
                        cand = cross
                    else:
                        t_rep = np.repeat(
                            thr[frontier], lo[frontier + 1] - lo[frontier]
                        )
                        cand = cross[
                            state.levels[cross] >= t_rep - 1e-9 * (1.0 + np.abs(t_rep))
                        ]
                else:
                    lam_rep = np.repeat(
                        lam[frontier], lo[frontier + 1] - lo[frontier]
                    )
                    cand = cross[
                        state.levels[cross] >= lam_rep - 1e-9 * (1.0 + lam_rep)
                    ]
                cand = cand[~sub_seen[cand]]
                if not len(cand):
                    return True
                cand = np.unique(cand)
                sub_seen[cand] = True
                seen_count[0] += len(cand)
                if seen_count[0] + len(seg_subs) > budget:
                    return False
                ce = _gather_ranges(old_seo, cand)
                cl = old.entry_link[ce]
                lvl_rep = np.repeat(
                    state.levels[cand], old_seo[cand + 1] - old_seo[cand]
                )
                up = (
                    sat_link[cl]
                    & ~link_seen[cl]
                    & (lam[cl] >= lvl_rep - 1e-9 * (1.0 + lvl_rep))
                )
                frontier = np.unique(cl[up])
            return False  # no closure after 64 layers: effectively global

        def _active_from_seen() -> np.ndarray:
            seen = np.flatnonzero(sub_seen)
            sf = old.subflow_flow[seen]
            keep = sf < n_common
            seen, sf = seen[keep], sf[keep]
            keep = ~changed_mask[sf]
            seen, sf = seen[keep], sf[keep]
            return np.unique(
                np.concatenate([seg_subs, seen + (new_fso[sf] - old_fso[sf])])
            )

        if not _closure(start0, thr0):
            return fail + (0,)
        active_set = _active_from_seen()
        keep_old = np.ones(old.num_subflows, dtype=bool)
        if len(gone_subs):
            keep_old[gone_subs] = False
        attempts = 0
        while attempts < max_attempts:
            attempts += 1
            if len(active_set) > budget:
                return fail + (attempts,)
            # Per-link load the re-solved set (plus everything gone) held in
            # the prior solution; subtracting it leaves the constants' load.
            af = new_asg.subflow_flow[active_set]
            unch = ~changed_mask[af]
            old_active = active_set[unch] - (new_fso[af[unch]] - old_fso[af[unch]])
            oe = _gather_ranges(old_seo, np.concatenate([old_active, gone_subs]))
            freed = np.bincount(
                old.entry_link[oe], weights=state.entry_rate[oe], minlength=L
            )
            base_used = state.used - freed
            ae = _gather_ranges(new_seo, active_set)
            ae_link = new_asg.entry_link[ae]
            # Demand shares of the active subflows (and their entries),
            # gathered directly: the O(entries) cached weight arrays of the
            # candidate assignment are never materialised on the warm path.
            aw = new_asg.subflow_weight[active_set] * new_asg.flow_demand[
                new_asg.subflow_flow[active_set]
            ]
            ae_w = np.repeat(aw, new_seo[active_set + 1] - new_seo[active_set])
            self._relaxed_fill(
                new_asg, levels, active_set, ae, ae_link, ae_w, aw, base_used
            )
            ok, bad_links, used, link_lam, ae_rate = self._verify_delta(
                state,
                new_asg,
                levels,
                active_set,
                ae,
                ae_link,
                ae_w,
                aw,
                base_used,
                dirty,
                keep_old,
                old_active,
            )
            if ok:
                _DELTA_ACTIVE.observe(len(active_set))
                return levels, used, link_lam, ae, ae_rate, active_set, attempts
            # Expansion: close over the violated links (all their residents,
            # then the upward climb) — one attempt absorbs the whole reachable
            # part of a mispredicted cascade instead of a single BFS layer.
            if not _closure(np.flatnonzero(bad_links), None):
                return fail + (attempts,)
            grown = np.unique(
                np.concatenate(
                    [
                        _active_from_seen(),
                        new_asg.entry_subflow[
                            np.flatnonzero(bad_links[new_asg.entry_link])
                        ],
                    ]
                )
            )
            if len(grown) == len(active_set):  # no progress: give up
                return fail + (attempts,)
            active_set = grown
        return fail + (attempts,)

    def _relaxed_fill(
        self,
        new_asg: FlowAssignment,
        levels: np.ndarray,
        active_set: np.ndarray,
        ae: np.ndarray,
        ae_link: np.ndarray,
        ae_w: np.ndarray,
        aw: np.ndarray,
        base_used: np.ndarray,
    ) -> None:
        """Progressive filling of ``active_set`` against residual capacities.

        Non-active subflows are constants at their prior levels;
        ``base_used`` carries their per-link load (the prior used bandwidth
        minus everything re-solved or gone), so each crossed link offers
        ``capacity - base_used`` of room.  Writes the solved levels into
        ``levels[active_set]`` in place (zero-weight subflows get level 0;
        their rate is 0 regardless).  This is a candidate generator —
        correctness comes from :meth:`_verify_delta`.
        """
        cap = self.capacity
        new_seo = new_asg.subflow_offsets()
        uL, ae_clink = np.unique(ae_link, return_inverse=True)
        nL = len(uL)
        _ACTIVE_LINKS.observe(nL)
        residual = cap[uL] - base_used[uL]
        np.maximum(residual, 0.0, out=residual)
        # Mini progressive fill on the compact link set (the cold loop's
        # structure at O(active) scale).  The vectorised part of each round
        # — the headroom scan and the load/residual updates — stays numpy;
        # the per-event bookkeeping (which subflows freeze at which link)
        # runs on python lists: events touch a handful of elements each, and
        # at that size scalar indexing beats an array-dispatch cascade.
        nA = len(active_set)
        active = aw > 0.0
        num_active = int(active.sum())
        ae_lsub = active_set.searchsorted(new_asg.entry_subflow[ae])
        order = np.argsort(ae_clink, kind="stable")
        clink_off = np.concatenate(
            ([0], np.cumsum(np.bincount(ae_clink, minlength=nL)))
        ).astype(np.int64)
        clink_sub_l = ae_lsub[order].tolist()
        clink_off_l = clink_off.tolist()
        a_lengths = new_seo[active_set + 1] - new_seo[active_set]
        asub_off = np.concatenate(([0], np.cumsum(a_lengths))).astype(np.int64)
        asub_off_l = asub_off.tolist()
        ae_clink_l = ae_clink.tolist()
        ae_w_l = ae_w.tolist()
        active_l = active.tolist()
        lvl_l = [0.0] * nA
        load = np.bincount(ae_clink, weights=ae_w, minlength=nL)
        remaining = residual
        sat_thr_c = _EPS * (1.0 + cap[uL])
        head = np.empty(nL)
        tmp = np.empty(nL)
        sat_ever = [False] * nL
        inf = float("inf")
        fill = 0.0
        rounds = 0
        max_rounds = 4 * nA + 16
        while num_active and rounds <= max_rounds:
            rounds += 1
            head.fill(inf)
            np.divide(remaining, load, out=head, where=load > _EPS)
            inc = float(head.min()) if nL else inf
            if not inc < inf:  # every crossed link drained: no constraint left
                break
            fill += inc
            np.multiply(load, inc, out=tmp)
            np.subtract(remaining, tmp, out=remaining)
            newly = [
                li for li in np.flatnonzero(remaining <= sat_thr_c).tolist()
                if not sat_ever[li]
            ]
            if not newly:
                break
            frozen = []
            for li in newly:
                sat_ever[li] = True
                for s in clink_sub_l[clink_off_l[li] : clink_off_l[li + 1]]:
                    if active_l[s]:
                        active_l[s] = False
                        frozen.append(s)
            if frozen:
                num_active -= len(frozen)
                if len(frozen) > 48:
                    fr = np.asarray(frozen, dtype=np.int64)
                    gone = _gather_ranges(asub_off, fr)
                    load -= np.bincount(
                        ae_clink[gone], weights=ae_w[gone], minlength=nL
                    )
                    for s in frozen:
                        lvl_l[s] = fill
                else:
                    for s in frozen:
                        lvl_l[s] = fill
                        for e in range(asub_off_l[s], asub_off_l[s + 1]):
                            load[ae_clink_l[e]] -= ae_w_l[e]
            for li in newly:
                load[li] = 0.0
        lvl = np.asarray(lvl_l)
        if num_active:
            # Unfrozen active subflows have no saturated bottleneck in the
            # relaxed instance; verification rejects them (correctly — they
            # should have filled further against some link that must then be
            # in the active set's closure).
            lvl[np.asarray(active_l)] = fill
        lvl[aw <= 0.0] = 0.0
        levels[active_set] = lvl

    def _verify_delta(
        self,
        state: WarmState,
        new_asg: FlowAssignment,
        levels: np.ndarray,
        active_set: np.ndarray,
        ae: np.ndarray,
        ae_link: np.ndarray,
        ae_w: np.ndarray,
        aw: np.ndarray,
        base_used: np.ndarray,
        dirty: np.ndarray,
        keep_old: np.ndarray,
        old_active: np.ndarray,
    ):
        """Exact max-min optimality check, incremental over touched links.

        A feasible allocation where every positive-weight subflow has a
        saturated link on which its level is maximal *is* the unique max-min
        fixed point (feasible use is monotone in the fill, so final
        feasibility implies trajectory feasibility).  Every rate change is
        confined to the touched links ``T`` — the dirty links plus the
        active subflows' links — so elsewhere ``used``, saturation, and the
        per-link water level carry over from ``state`` verbatim, and the
        prior state's certificates keep holding for subflows crossing no
        touched link.  Only the active subflows and the persisting constants
        crossing ``T`` are re-checked (gathered via the old assignment's
        link-to-entries index, so the check is O(T), not O(entries)).  The
        tolerance is tight: the relaxed fill reproduces true levels to
        ~1e-13, while structurally-wrong candidates miss by far more; a
        false reject merely costs a retry or a cold solve.  Returns ``(ok,
        bad_links, used, link_lam, ae_rate)``; on failure ``bad_links``
        marks the oversubscribed links and every link of each
        bottleneck-less subflow, for the active-set expansion (``link_lam``
        and ``ae_rate`` are then None).
        """
        cap = self.capacity
        L = len(cap)
        sat_thr = _EPS * (1.0 + cap)
        old = state.asg
        old_seo = old.subflow_offsets()
        new_seo = new_asg.subflow_offsets()
        ae_lev = levels[new_asg.entry_subflow[ae]]
        ae_rate = ae_w * ae_lev
        used = base_used + np.bincount(ae_link, weights=ae_rate, minlength=L)
        over = used > cap + sat_thr
        satur = used >= cap - 2.0 * sat_thr
        T = dirty.copy()
        T[ae_link] = True
        # Persisting constants' entries on touched links.  The re-solved
        # subflows' old entries and gone flows' entries are excluded: the
        # former are represented in ``ae`` at their new levels, the latter
        # left the instance.
        rep = keep_old.copy()
        rep[old_active] = False
        lo_e, _ = old.link_index(L)
        sel = old.link_entry_order(L)[_gather_ranges(lo_e, np.flatnonzero(T))]
        osub = old.entry_subflow[sel]
        keep_sel = rep[osub]
        sel = sel[keep_sel]
        osub = osub[keep_sel]
        olev = state.levels[osub]
        # Water levels on touched links, from every crossing entry.
        all_l = np.concatenate([old.entry_link[sel], ae_link])
        all_v = np.concatenate([olev, ae_lev])
        link_lam = state.link_lam.copy()
        link_lam[T] = _NO_LAM
        if len(all_l):
            order = np.argsort(all_l, kind="stable")
            l_s = all_l[order]
            v_s = all_v[order]
            starts = np.empty(len(l_s), dtype=bool)
            starts[0] = True
            np.not_equal(l_s[1:], l_s[:-1], out=starts[1:])
            firsts = np.flatnonzero(starts)
            gmax = np.maximum.reduceat(v_s, firsts)
            ul = l_s[firsts]
            sat_ul = satur[ul]
            link_lam[ul[sat_ul]] = gmax[sat_ul]
        # Condition B for the active subflows ...
        a_len = new_seo[active_set + 1] - new_seo[active_set]
        if len(active_set):
            a_off = np.concatenate(([0], np.cumsum(a_len[:-1]))).astype(np.int64)
            lam_ae = link_lam[ae_link]
            ok_e = satur[ae_link] & (
                ae_lev >= lam_ae - 1e-11 * (1.0 + np.minimum(lam_ae, 1.0e6))
            )
            okA = np.logical_or.reduceat(ok_e, a_off)
            failA = (aw > 0.0) & ~okA
        else:
            # A pure removal can leave nothing to re-solve: the surviving
            # flows' old certificates are re-checked below as constants.
            failA = np.zeros(0, dtype=bool)
        # ... and for the persisting constants crossing T: their own levels
        # did not move, but their certificate links' water levels may have.
        cs = np.unique(osub)
        ce = _gather_ranges(old_seo, cs)
        c_len = old_seo[cs + 1] - old_seo[cs]
        cl = old.entry_link[ce]
        lam_c = link_lam[cl]
        ok_ce = satur[cl] & (
            np.repeat(state.levels[cs], c_len)
            >= lam_c - 1e-11 * (1.0 + np.minimum(lam_c, 1.0e6))
        )
        if len(ce):
            c_off = np.concatenate(([0], np.cumsum(c_len[:-1]))).astype(np.int64)
            okC = np.logical_or.reduceat(ok_ce, c_off)
        else:
            okC = np.zeros(0, dtype=bool)
        failC = (old.subflow_weights()[cs] > 0.0) & ~okC
        if not over.any() and not failA.any() and not failC.any():
            return True, None, used, link_lam, ae_rate
        bad = over.copy()
        if failA.any():
            bad[ae_link[np.repeat(failA, a_len)]] = True
        if failC.any():
            bad[cl[np.repeat(failC, c_len)]] = True
        return False, bad, used, None, None

    def maxmin_rates_delta_batch(
        self,
        state: WarmState,
        flow_sets: Sequence[Sequence[Flow]],
        *,
        changed: Optional[Sequence[Optional[Sequence[int]]]] = None,
        max_iterations: int = 100000,
        max_attempts: int = 3,
        max_active_fraction: float = 0.85,
    ) -> List[DeltaSolve]:
        """Warm-started delta solves of **many candidates at once**.

        Every candidate perturbs the *same* prior fixed point ``state``, so
        the warm machinery of :meth:`maxmin_rates_delta` — the directional
        closure that seeds each candidate's active set, the relaxed fill of
        those sets against the prior residuals, and the exact optimality
        verification — runs **batched** in virtual link space
        (``candidate * num_links + link``): each BFS layer, fill round, and
        verification pass costs one set of NumPy dispatches for the whole
        batch instead of one per candidate.  This is what makes per-neighbor
        evaluation cheap inside a search loop: at fig12 scale the solve cost
        is dispatch-dominated, and the batch divides the dispatch count by
        the batch width.  Candidates whose closure floods, whose fill fails
        verification ``max_attempts`` times, or whose perturbation is too
        large fall back together through :meth:`_batch_fill`, whose rounds
        are bit-identical to solo cold solves — so every returned result
        matches :meth:`maxmin_rates` to well under 1e-12, warm or not.

        ``changed[j]`` optionally lists candidate ``j``'s changed flow
        indices (same contract as :meth:`maxmin_rates_delta`).  Results are
        objective-only: ``DeltaSolve.state`` is always ``None`` — re-solve
        an accepted candidate with ``maxmin_rates_delta(want_state=True)``
        to advance the chain.  Candidates with a different flow count than
        ``state`` (or a group-selecting policy like UGAL) are solved through
        the sequential path.
        """
        flow_sets = [list(fs) for fs in flow_sets]
        C = len(flow_sets)
        _DELTA_BATCH.observe(C)
        if C == 0:
            return []
        n = int(state.asg.num_flows)
        changed_list = list(changed) if changed is not None else [None] * C
        if len(changed_list) != C:
            raise ValueError("changed must align with flow_sets")
        if self.policy.selects_group or n == 0 or any(
            len(fs) != n for fs in flow_sets
        ):
            return [
                self.maxmin_rates_delta(
                    state,
                    fs,
                    changed=ch,
                    max_iterations=max_iterations,
                    max_attempts=max_attempts,
                    max_active_fraction=max_active_fraction,
                    want_state=False,
                )
                for fs, ch in zip(flow_sets, changed_list)
            ]
        old = state.asg
        cap = self.capacity
        L = len(cap)
        nso = old.num_subflows
        old_fso = old.flow_subflow_offsets()
        old_seo = old.subflow_offsets()
        old_el = old.entry_link
        old_es = old.entry_subflow
        old_sff = old.subflow_flow
        old_sw = old.subflow_weights()
        old_ew = old.entry_weights()
        lo, ls = old.link_index(L)
        leo = old.link_entry_order(L)
        lam = state.link_lam
        sat_link = lam < _NO_LAM
        olev = state.levels
        # Exact at-level weight per saturated link (the weight the new
        # segment traffic competes with): one O(entries) pass, amortised
        # over the whole batch.  Tighter than the used/lam overestimate
        # the sequential path uses, so the layer-0 recruitment threshold
        # under-recruits less and verification retries are rarer.
        lam_e = lam[old_el]
        at_lam = (lam_e < _NO_LAM) & (
            olev[old_es] >= lam_e - 1e-9 * (1.0 + lam_e)
        )
        w_est = np.bincount(old_el, weights=old_ew * at_lam, minlength=L)
        np.maximum(w_est, 1e-12, out=w_est)

        # ------------------------------------------------ per-candidate setup
        # Evaluation candidates never materialise the spliced assignment:
        # the active set is described by old-CSR slices plus the changed
        # pairs' freshly gathered segment routes, and the warm finalize
        # patches flow rates by delta.  Only fallbacks splice for real.
        out: List[Optional[DeltaSolve]] = [None] * C
        chg_idx: List[Optional[np.ndarray]] = [None] * C
        chg_mask_c: List[Optional[np.ndarray]] = [None] * C
        chg_src: List[Optional[np.ndarray]] = [None] * C
        chg_dst: List[Optional[np.ndarray]] = [None] * C
        chg_dem: List[Optional[np.ndarray]] = [None] * C
        gone_subs_c: List[Optional[np.ndarray]] = [None] * C
        gone_e_c: List[Optional[np.ndarray]] = [None] * C
        npaths_c: List[Optional[np.ndarray]] = [None] * C
        seg_links_c: List[Optional[np.ndarray]] = [None] * C
        seg_lengths_c: List[Optional[np.ndarray]] = [None] * C
        seg_w_c: List[Optional[np.ndarray]] = [None] * C
        seg_ew_c: List[Optional[np.ndarray]] = [None] * C
        fallbacks: List[int] = []
        pend: List[int] = []
        dirty_flat = np.zeros(C * L, dtype=bool)
        thr_flat = np.full(C * L, _NO_LAM)
        start_parts: List[np.ndarray] = []
        for j, fs in enumerate(flow_sets):
            ch = changed_list[j]
            if ch is not None:
                cidx = np.asarray(sorted({int(i) for i in ch}), dtype=np.int64)
                if len(cidx) and (
                    int(cidx[0]) < 0 or int(cidx[-1]) >= n
                ):
                    raise ValueError("changed flow indices out of range")
                src = state.src.copy()
                dst = state.dst.copy()
                dem = state.demand.copy()
                for i in cidx.tolist():
                    f = fs[i]
                    src[i], dst[i], dem[i] = f.src, f.dst, f.demand
            else:
                src = np.fromiter((f.src for f in fs), dtype=np.int64, count=n)
                dst = np.fromiter((f.dst for f in fs), dtype=np.int64, count=n)
                dem = np.fromiter(
                    (f.demand for f in fs), dtype=np.float64, count=n
                )
                diff = (
                    (src != state.src)
                    | (dst != state.dst)
                    | (dem != state.demand)
                )
                cidx = np.flatnonzero(diff)
            _DELTA_SOLVES.inc()
            _DELTA_CHANGED.observe(len(cidx))
            chg_idx[j] = cidx
            chg_src[j], chg_dst[j], chg_dem[j] = src, dst, dem
            if not len(cidx):
                _DELTA_WARM.inc()
                out[j] = DeltaSolve(
                    result=state.result,
                    state=state,
                    warm=True,
                    changed=0,
                    attempts=0,
                )
                continue
            if len(cidx) > max(4.0, max_active_fraction * n):
                fallbacks.append(j)
                continue
            csrc = src[cidx]
            cdst = dst[cidx]
            if (csrc == cdst).any():
                raise ValueError("flows must have distinct endpoints")
            first, npaths = self.table.pair_arrays(
                self._rank_nodes[csrc], self._rank_nodes[cdst]
            )
            path_ids = _pair_range_path_ids(first, npaths)
            seg_pw = self.table.gather_path_weights(path_ids)
            seg_links, seg_lengths = self.table.gather_links(path_ids)
            seg_w = seg_pw * np.repeat(dem[cidx], npaths)
            seg_ew = np.repeat(seg_w, seg_lengths)
            npaths_c[j] = npaths
            seg_links_c[j] = seg_links
            seg_lengths_c[j] = seg_lengths
            seg_w_c[j] = seg_w
            seg_ew_c[j] = seg_ew
            cm = np.zeros(n, dtype=bool)
            cm[cidx] = True
            chg_mask_c[j] = cm
            gone_subs = _gather_ranges(old_fso, cidx)
            gone_e = _gather_ranges(old_seo, gone_subs)
            gone_subs_c[j] = gone_subs
            gone_e_c[j] = gone_e
            row = dirty_flat[j * L : (j + 1) * L]
            if len(gone_e):
                row[old_el[gone_e]] = True
            row[seg_links] = True
            s0 = np.flatnonzero(row & sat_link)
            if len(s0):
                # bincount of an empty input yields int64 even with weights.
                add_w = np.bincount(
                    seg_links, weights=seg_ew, minlength=L
                ).astype(np.float64, copy=False)
                if len(gone_e):
                    add_w -= np.bincount(
                        old_el[gone_e], weights=old_ew[gone_e], minlength=L
                    )
                # Thresholds are only read on the closure's first frontier,
                # which is exactly s0 — no need for a full-L row.
                a0 = np.maximum(add_w[s0], 0.0)
                thr_flat[s0 + j * L] = np.where(
                    a0 > 0.0,
                    lam[s0] * w_est[s0] / (w_est[s0] + a0),
                    lam[s0],
                )
                start_parts.append(s0 + j * L)
            pend.append(j)

        # --------------------------------------------------- batched closure
        sub_seen = np.zeros(C * nso, dtype=bool)
        link_seen = np.zeros(C * L, dtype=bool)
        alive = np.zeros(C, dtype=bool)
        seen_count = np.zeros(C, dtype=np.int64)
        budget_arr = np.full(C, -1.0)
        seg_len_arr = np.zeros(C, dtype=np.int64)
        for j in pend:
            alive[j] = True
            nsub_new = nso - len(gone_subs_c[j]) + len(seg_w_c[j])
            budget_arr[j] = max_active_fraction * max(nsub_new, 1)
            seg_len_arr[j] = len(seg_w_c[j])
            gs = gone_subs_c[j]
            if len(gs):
                sub_seen[j * nso + gs] = True
        tol = 1e-9

        def _closure_batch(
            frontier: np.ndarray, *, use_thr: bool, recruit_all: bool
        ) -> None:
            """Batched BFS over the prior bottleneck hierarchy; layer-exact
            per candidate (candidates live in disjoint virtual id ranges).
            Over-budget or non-converging candidates are marked dead."""
            first = True
            for _ in range(64):
                if not len(frontier):
                    return
                fc = frontier // L
                keep = alive[fc]
                if not keep.all():
                    frontier = frontier[keep]
                    fc = fc[keep]
                if not len(frontier):
                    return
                link_seen[frontier] = True
                fl = frontier - fc * L
                cnt = lo[fl + 1] - lo[fl]
                cross = ls[_gather_ranges(lo, fl)]
                cross_c = np.repeat(fc, cnt)
                if first and recruit_all:
                    vsub = cross_c * nso + cross
                elif first and use_thr:
                    t_rep = np.repeat(thr_flat[frontier], cnt)
                    m = olev[cross] >= t_rep - tol * (1.0 + np.abs(t_rep))
                    vsub = (cross_c * nso + cross)[m]
                else:
                    lam_rep = np.repeat(lam[fl], cnt)
                    m = olev[cross] >= lam_rep - tol * (1.0 + lam_rep)
                    vsub = (cross_c * nso + cross)[m]
                first = False
                vsub = vsub[~sub_seen[vsub]]
                if not len(vsub):
                    return
                vsub = np.unique(vsub)
                sub_seen[vsub] = True
                vc = vsub // nso
                seen_count[:] += np.bincount(vc, minlength=C)
                dead = alive & (seen_count + seg_len_arr > budget_arr)
                if dead.any():
                    alive[dead] = False
                    keepc = alive[vc]
                    vsub = vsub[keepc]
                    vc = vc[keepc]
                    if not len(vsub):
                        return
                sub = vsub - vc * nso
                cnt2 = old_seo[sub + 1] - old_seo[sub]
                cl = old_el[_gather_ranges(old_seo, sub)]
                vcl = np.repeat(vc, cnt2) * L + cl
                lvl_rep = np.repeat(olev[sub], cnt2)
                up = (
                    sat_link[cl]
                    & ~link_seen[vcl]
                    & (lam[cl] >= lvl_rep - tol * (1.0 + lvl_rep))
                )
                frontier = np.unique(vcl[up])
            if len(frontier):  # no closure after 64 layers: effectively global
                alive[np.unique(frontier // L)] = False

        if start_parts:
            _closure_batch(
                np.concatenate(start_parts), use_thr=True, recruit_all=False
            )

        def _active_from_seen(j: int) -> np.ndarray:
            """Recruited *old* subflow ids (unchanged flows only); the
            changed flows' segment subflows are always active."""
            seen = np.flatnonzero(sub_seen[j * nso : (j + 1) * nso])
            return seen[~chg_mask_c[j][old_sff[seen]]]

        def _ctx(j: int, old_active: np.ndarray) -> dict:
            """Fill/verify context of one candidate's active set: old-CSR
            slices for the recruited unchanged subflows, then the changed
            pairs' gathered segment routes — no spliced assignment."""
            oa_e = _gather_ranges(old_seo, old_active)
            oe = np.concatenate([oa_e, gone_e_c[j]])
            freed = np.bincount(
                old_el[oe], weights=state.entry_rate[oe], minlength=L
            )
            return {
                "j": j,
                "old_active": old_active,
                "n_active": len(old_active) + len(seg_w_c[j]),
                "ae_link": np.concatenate(
                    [old_el[oa_e], seg_links_c[j]]
                ),
                "aw": np.concatenate([old_sw[old_active], seg_w_c[j]]),
                "a_len": np.concatenate(
                    [
                        old_seo[old_active + 1] - old_seo[old_active],
                        seg_lengths_c[j],
                    ]
                ),
                "ae_w": np.concatenate([old_ew[oa_e], seg_ew_c[j]]),
                "base_used": state.used - freed,
            }

        def _fill_batch(ctxs: List[dict]) -> None:
            """Batched relaxed fill: every candidate's active set filled
            against its own residuals, rounds shared across the batch."""
            k = len(ctxs)
            lenA = np.fromiter(
                (c["n_active"] for c in ctxs), dtype=np.int64, count=k
            )
            a_off = np.concatenate(([0], np.cumsum(lenA))).astype(np.int64)
            aw_cat = np.concatenate([c["aw"] for c in ctxs])
            ae_w_cat = np.concatenate([c["ae_w"] for c in ctxs])
            a_len_cat = np.concatenate([c["a_len"] for c in ctxs])
            asub_off = np.concatenate(
                ([0], np.cumsum(a_len_cat))
            ).astype(np.int64)
            vlink = np.concatenate(
                [i * L + c["ae_link"] for i, c in enumerate(ctxs)]
            )
            bu_flat = np.concatenate([c["base_used"] for c in ctxs])
            A = len(aw_cat)
            lvl_cat = np.zeros(A)
            uL, inv = np.unique(vlink, return_inverse=True)
            nLc = len(uL)
            if nLc:
                ucand = uL // L
                ulink = uL - ucand * L
                residual = cap[ulink] - bu_flat[uL]
                np.maximum(residual, 0.0, out=residual)
                load = np.bincount(inv, weights=ae_w_cat, minlength=nLc)
                order = np.argsort(inv, kind="stable")
                cell_off = np.concatenate(
                    ([0], np.cumsum(np.bincount(inv, minlength=nLc)))
                ).astype(np.int64)
                e_sub = np.repeat(np.arange(A, dtype=np.int64), a_len_cat)
                cell_subs = e_sub[order]
                sub_cand = np.repeat(np.arange(k, dtype=np.int64), lenA)
                ccounts = np.bincount(ucand, minlength=k)
                for c in ccounts.tolist():
                    _ACTIVE_LINKS.observe(int(c))
                nonempty = ccounts > 0
                ne_starts = np.concatenate(([0], np.cumsum(ccounts)))[:-1][
                    nonempty
                ].astype(np.int64)
                still = aw_cat > 0.0
                num_active = np.bincount(sub_cand[still], minlength=k)
                fill = np.zeros(k)
                sat_thr_c = _EPS * (1.0 + cap[ulink])
                sat_ever = np.zeros(nLc, dtype=bool)
                cap_rounds = 4 * lenA + 16
                live = num_active > 0
                inc_c = np.empty(k)
                rounds = 0
                with np.errstate(divide="ignore", invalid="ignore"):
                    while live.any():
                        rounds += 1
                        if rounds > max_iterations:  # pragma: no cover
                            raise RuntimeError(
                                "batched delta filling did not converge"
                            )
                        live &= rounds <= cap_rounds
                        if not live.any():
                            break
                        head = np.where(
                            load > _EPS,
                            residual / np.maximum(load, _EPS),
                            np.inf,
                        )
                        inc_c.fill(np.inf)
                        inc_c[nonempty] = np.minimum.reduceat(head, ne_starts)
                        live &= np.isfinite(inc_c)
                        if not live.any():
                            break
                        inc_l = np.where(live, inc_c, 0.0)
                        fill += inc_l
                        residual -= load * inc_l[ucand]
                        newly = np.flatnonzero(
                            (residual <= sat_thr_c) & ~sat_ever & live[ucand]
                        )
                        if not len(newly):  # pragma: no cover - numerical
                            break
                        sat_ever[newly] = True
                        frozen = cell_subs[_gather_ranges(cell_off, newly)]
                        frozen = frozen[still[frozen]]
                        if len(frozen):
                            frozen = np.unique(frozen)
                            still[frozen] = False
                            num_active -= np.bincount(
                                sub_cand[frozen], minlength=k
                            )
                            lvl_cat[frozen] = fill[sub_cand[frozen]]
                            gone2 = _gather_ranges(asub_off, frozen)
                            load -= np.bincount(
                                inv[gone2],
                                weights=ae_w_cat[gone2],
                                minlength=nLc,
                            )
                        load[newly] = 0.0
                        live &= num_active > 0
                if still.any():
                    lvl_cat[still] = fill[sub_cand[still]]
                lvl_cat[aw_cat <= 0.0] = 0.0
            for i, c in enumerate(ctxs):
                c["lvl"] = lvl_cat[a_off[i] : a_off[i + 1]]

        def _verify_batch(ctxs: List[dict]) -> None:
            """Batched exact optimality check (see :meth:`_verify_delta`);
            sets ``ok``/``used``/``bad`` on every context."""
            k = len(ctxs)
            lenA = [len(c["aw"]) for c in ctxs]
            a_len_cat = np.concatenate([c["a_len"] for c in ctxs])
            aw_cat = np.concatenate([c["aw"] for c in ctxs])
            ae_w_cat = np.concatenate([c["ae_w"] for c in ctxs])
            lvl_cat = np.concatenate([c["lvl"] for c in ctxs])
            vlink = np.concatenate(
                [i * L + c["ae_link"] for i, c in enumerate(ctxs)]
            )
            bu_flat = np.concatenate([c["base_used"] for c in ctxs])
            ae_lev = np.repeat(lvl_cat, a_len_cat)
            ae_rate = ae_w_cat * ae_lev
            used_flat = bu_flat + np.bincount(
                vlink, weights=ae_rate, minlength=k * L
            )
            cap_t = np.tile(cap, k)
            sat_thr_t = _EPS * (1.0 + cap_t)
            over = used_flat > cap_t + sat_thr_t
            satur = used_flat >= cap_t - 2.0 * sat_thr_t
            T = np.zeros(k * L, dtype=bool)
            for i, c in enumerate(ctxs):
                j = c["j"]
                T[i * L : (i + 1) * L] = dirty_flat[j * L : (j + 1) * L]
            T[vlink] = True
            rep_flat = np.ones(k * nso, dtype=bool)
            for i, c in enumerate(ctxs):
                gs = gone_subs_c[c["j"]]
                if len(gs):
                    rep_flat[i * nso + gs] = False
                rep_flat[i * nso + c["old_active"]] = False
            vT = np.flatnonzero(T)
            Tc = vT // L
            Tl = vT - Tc * L
            cntT = lo[Tl + 1] - lo[Tl]
            sel = leo[_gather_ranges(lo, Tl)]
            sel_c = np.repeat(Tc, cntT)
            osub = old_es[sel]
            keepm = rep_flat[sel_c * nso + osub]
            sel = sel[keepm]
            sel_c = sel_c[keepm]
            osub = osub[keepm]
            all_l = np.concatenate([sel_c * L + old_el[sel], vlink])
            all_v = np.concatenate([olev[osub], ae_lev])
            lam_flat = np.tile(lam, k)
            lam_flat[vT] = _NO_LAM
            if len(all_l):
                order = np.argsort(all_l, kind="stable")
                l_s = all_l[order]
                v_s = all_v[order]
                starts = np.empty(len(l_s), dtype=bool)
                starts[0] = True
                np.not_equal(l_s[1:], l_s[:-1], out=starts[1:])
                firsts = np.flatnonzero(starts)
                gmax = np.maximum.reduceat(v_s, firsts)
                ul = l_s[firsts]
                sat_ul = satur[ul]
                lam_flat[ul[sat_ul]] = gmax[sat_ul]
            a_off2 = np.concatenate(
                ([0], np.cumsum(a_len_cat[:-1]))
            ).astype(np.int64)
            lam_ae = lam_flat[vlink]
            ok_e = satur[vlink] & (
                ae_lev >= lam_ae - 1e-11 * (1.0 + np.minimum(lam_ae, 1.0e6))
            )
            okA = np.logical_or.reduceat(ok_e, a_off2)
            failA = (aw_cat > 0.0) & ~okA
            vcs = np.unique(sel_c * nso + osub)
            csc = vcs // nso
            cs = vcs - csc * nso
            ce = _gather_ranges(old_seo, cs)
            c_len = old_seo[cs + 1] - old_seo[cs]
            cl = old_el[ce]
            vcl = np.repeat(csc, c_len) * L + cl
            lam_cc = lam_flat[vcl]
            ok_ce = satur[vcl] & (
                np.repeat(olev[cs], c_len)
                >= lam_cc - 1e-11 * (1.0 + np.minimum(lam_cc, 1.0e6))
            )
            if len(ce):
                c_off = np.concatenate(
                    ([0], np.cumsum(c_len[:-1]))
                ).astype(np.int64)
                okC = np.logical_or.reduceat(ok_ce, c_off)
            else:
                okC = np.zeros(0, dtype=bool)
            failC = (old_sw[cs] > 0.0) & ~okC
            over_c = over.reshape(k, L).any(axis=1)
            sub_cand = np.repeat(np.arange(k, dtype=np.int64), lenA)
            failA_c = np.zeros(k, dtype=bool)
            failA_c[sub_cand[failA]] = True
            failC_c = np.zeros(k, dtype=bool)
            failC_c[csc[failC]] = True
            bad_flat = over.copy()
            if failA.any():
                bad_flat[vlink[np.repeat(failA, a_len_cat)]] = True
            if failC.any():
                bad_flat[vcl[np.repeat(failC, c_len)]] = True
            for i, c in enumerate(ctxs):
                c["ok"] = not (over_c[i] or failA_c[i] or failC_c[i])
                c["used"] = used_flat[i * L : (i + 1) * L]
                c["bad"] = bad_flat[i * L : (i + 1) * L]

        # ----------------------------------------- attempts loop + finalize
        attempts_arr = np.zeros(C, dtype=np.int64)

        def _finish_warm(c: dict) -> None:
            j = c["j"]
            used = c["used"]
            _DELTA_WARM.inc()
            _DELTA_ACTIVE.observe(c["n_active"])
            # Patch flow rates by delta: unchanged flows shift by their
            # re-solved subflows' weighted level change; changed flows are
            # recomputed from their segment routes.
            flow_rates = state.result.flow_rates.copy()
            oa = c["old_active"]
            n_oa = len(oa)
            lvl = c["lvl"]
            if n_oa:
                flow_rates += np.bincount(
                    old_sff[oa],
                    weights=old_sw[oa] * (lvl[:n_oa] - olev[oa]),
                    minlength=n,
                )
            cidx = chg_idx[j]
            segf = np.repeat(
                np.arange(len(cidx), dtype=np.int64), npaths_c[j]
            )
            flow_rates[cidx] = np.bincount(
                segf, weights=seg_w_c[j] * lvl[n_oa:], minlength=len(cidx)
            )
            link_util = np.where(cap > 0, used / cap, 0.0)
            bottleneck = int(np.argmax(link_util)) if L else -1
            out[j] = DeltaSolve(
                result=PhaseResult(
                    flow_rates=flow_rates,
                    link_utilization=link_util,
                    bottleneck_link=bottleneck,
                ),
                state=None,
                warm=True,
                changed=len(chg_idx[j]),
                attempts=int(attempts_arr[j]),
            )

        ctxs: List[dict] = []
        for j in pend:
            if alive[j]:
                ctxs.append(_ctx(j, _active_from_seen(j)))
            else:
                fallbacks.append(j)
        for attempt in range(max_attempts):
            if not ctxs:
                break
            kept: List[dict] = []
            for c in ctxs:
                attempts_arr[c["j"]] += 1
                if c["n_active"] > budget_arr[c["j"]]:
                    alive[c["j"]] = False
                    fallbacks.append(c["j"])
                else:
                    kept.append(c)
            ctxs = kept
            if not ctxs:
                break
            _fill_batch(ctxs)
            _verify_batch(ctxs)
            failed: List[dict] = []
            for c in ctxs:
                if c["ok"]:
                    _finish_warm(c)
                else:
                    failed.append(c)
            if not failed:
                ctxs = []
                break
            if attempt == max_attempts - 1:
                for c in failed:
                    fallbacks.append(c["j"])
                ctxs = []
                break
            # Expansion: close over the violated links (all their residents,
            # then the upward climb), per failing candidate.
            _closure_batch(
                np.concatenate(
                    [c["j"] * L + np.flatnonzero(c["bad"]) for c in failed]
                ),
                use_thr=False,
                recruit_all=True,
            )
            next_ctxs: List[dict] = []
            for c in failed:
                j = c["j"]
                if not alive[j]:
                    fallbacks.append(j)
                    continue
                badl = np.flatnonzero(c["bad"])
                crossing = ls[_gather_ranges(lo, badl)]
                crossing = crossing[~chg_mask_c[j][old_sff[crossing]]]
                grown = np.unique(
                    np.concatenate([_active_from_seen(j), crossing])
                )
                if len(grown) == len(c["old_active"]):  # no progress
                    alive[j] = False
                    fallbacks.append(j)
                    continue
                next_ctxs.append(_ctx(j, grown))
            ctxs = next_ctxs

        # --------------------------- batched exact fallback for the rest
        if fallbacks:
            fb_results = self._batch_fill(
                [
                    self._assign_delta(
                        old, chg_idx[j], n, chg_src[j], chg_dst[j], chg_dem[j]
                    )
                    for j in fallbacks
                ],
                max_iterations=max_iterations,
            )
            for j, res in zip(fallbacks, fb_results):
                _DELTA_FALLBACKS.inc()
                out[j] = DeltaSolve(
                    result=res,
                    state=None,
                    warm=False,
                    changed=len(chg_idx[j]),
                    attempts=int(attempts_arr[j]),
                )
        return out

    def maxmin_rates_batch(
        self,
        flow_sets: Sequence[Sequence[Flow]],
        *,
        max_iterations: int = 100000,
    ) -> List[PhaseResult]:
        """Max-min fair rates of **many scenarios at once**, vectorized.

        Scenarios on one topology are independent, so their per-link loads
        stack into one ``(scenarios, links)`` array and the progressive
        filling rounds run across the whole batch: each round takes the
        per-scenario headroom minimum over the rows, advances every live
        scenario's fill level by its own increment (finished rows advance by
        exactly 0.0, leaving their state untouched bit-for-bit), and freezes
        the union of freshly saturated (scenario, link) cells through one
        combined link-to-subflows CSR index in *virtual* link space
        (``scenario * num_links + link``).

        Every float operation a scenario sees — headroom, increment, load
        subtraction, freeze level — is elementwise identical to what its solo
        :meth:`maxmin_rates` solve performs, so the returned
        :class:`PhaseResult` list is **bit-identical** to solving each
        scenario separately; what the batch amortizes is the per-round
        Python/NumPy dispatch overhead, the dominant cost at fig12 scale
        (many scenarios x small link counts).  The number of rounds is the
        *maximum* over the batch instead of the sum.
        """
        flow_sets = list(flow_sets)
        S = len(flow_sets)
        _BATCH_SIZE.observe(S)
        if S == 0:
            return []
        asgs = [self.assign(flows) for flows in flow_sets]
        return self._batch_fill(asgs, max_iterations=max_iterations)

    def _batch_fill(
        self,
        asgs: Sequence[FlowAssignment],
        *,
        max_iterations: int = 100000,
    ) -> List[PhaseResult]:
        """The vectorized cold fill of :meth:`maxmin_rates_batch` on
        already-built assignments (also the batched delta path's exact
        fallback — the batch rounds are bit-identical to per-scenario solo
        solves, so a fallback through here matches :meth:`maxmin_rates`
        exactly)."""
        if _sparse_links_enabled() and len(self.capacity) and asgs:
            # Density gate: per-scenario active links are cached on the
            # assignments, so this costs one pass after warm-up.  Dense-ish
            # batches (fig12 full permutations) stay on the fixed-shape
            # broadcast path, which beats per-round compact-space gathers
            # once most cells are loaded anyway.
            active_cells = sum(len(a.compact_link_index()[0]) for a in asgs)
            if active_cells <= _SPARSE_BATCH_MAX_DENSITY * len(asgs) * len(self.capacity):
                return self._batch_fill_sparse(asgs, max_iterations=max_iterations)
        S = len(asgs)
        L = len(self.capacity)
        sub_counts = np.fromiter((a.num_subflows for a in asgs), dtype=np.int64, count=S)
        sub_base = np.concatenate(([0], np.cumsum(sub_counts)))
        total_subs = int(sub_base[-1])
        entry_counts = np.fromiter((len(a.entry_link) for a in asgs), dtype=np.int64, count=S)
        entry_base = np.concatenate(([0], np.cumsum(entry_counts)))
        # Combined entry arrays in virtual link space; per-scenario slices
        # keep their solo ordering, so every bincount below reproduces the
        # solo summation order exactly.
        entry_scen = np.repeat(np.arange(S, dtype=np.int64), entry_counts)
        if total_subs:
            entry_link = np.concatenate([a.entry_link for a in asgs])
            entry_sub = np.concatenate(
                [a.entry_subflow + sub_base[s] for s, a in enumerate(asgs)]
            )
            sub_weights = np.concatenate(
                [a.subflow_weight * a.flow_demand[a.subflow_flow] for a in asgs]
            )
        else:  # pragma: no cover - all-empty batch
            entry_link = np.zeros(0, dtype=np.int64)
            entry_sub = np.zeros(0, dtype=np.int64)
            sub_weights = np.zeros(0)
        entry_vlink = entry_scen * L + entry_link
        sub_scen = np.repeat(np.arange(S, dtype=np.int64), sub_counts)
        entry_weight = sub_weights[entry_sub]
        load_full = np.bincount(entry_vlink, weights=entry_weight, minlength=S * L).reshape(S, L)
        # Combined subflow -> entries CSR (per-scenario offsets shifted by the
        # scenario's entry base; the trailing total closes the last range).
        sub_offsets = np.concatenate(
            [a.subflow_offsets()[:-1] + entry_base[s] for s, a in enumerate(asgs)]
            + [np.array([entry_base[-1]], dtype=np.int64)]
        )
        # Combined virtual-link -> crossing-subflows CSR.
        order = np.argsort(entry_vlink, kind="stable").astype(np.int64)
        vlink_counts = np.bincount(entry_vlink, minlength=S * L)
        link_offsets = np.concatenate(([0], np.cumsum(vlink_counts))).astype(np.int64)
        link_offsets_list = link_offsets.tolist()
        link_subflows = entry_sub[order]

        # Fixed-shape working set with preallocated scratch buffers.  The
        # per-scenario round counts at fig12 scale differ by only a few
        # percent, so a finished row padded with a 0.0 increment (which
        # leaves its state untouched bit-for-bit: ``x - 0.0 * load == x``)
        # wastes far less than live-set compaction bookkeeping would cost,
        # and fixed shapes let every per-round elementwise pass write into a
        # reusable ``out=`` buffer instead of allocating a fresh (S, L)
        # temporary — at fig12 scale the allocator, not the FPU, dominates.
        loadc = load_full                              # (S, L) active load
        remc = np.tile(self.capacity, (S, 1))          # (S, L) remaining
        satc = np.broadcast_to(_EPS * (1.0 + self.capacity), (S, L))
        fillc = np.zeros(S)                            # fill level per scenario
        live = sub_counts > 0
        active = np.ones(total_subs, dtype=bool)
        num_active = sub_counts.copy()                 # per scenario
        fill_at_freeze = np.zeros(total_subs)
        # Saturation-time remaining is flushed here and the live cell is then
        # pinned: ``remc`` to +inf (so the threshold scan cannot re-fire) and
        # its load to 0.0 (so the cell's headroom is masked to inf, exactly
        # like the solo loop after ``load[new_idx] = 0.0``).  The solo loop
        # never updates a saturated link's remaining again either — its load
        # is zero — so the flushed value *is* the solo final remaining.
        remaining_final = np.tile(self.capacity, (S, 1))
        hm = np.empty((S, L))                          # headroom scratch
        mload = np.empty((S, L))                       # cached masked |load|
        bmask = np.empty((S, L), dtype=bool)           # comparison scratch
        loadc_flat = loadc.reshape(-1)
        remc_flat = remc.reshape(-1)
        mload_flat = mload.reshape(-1)
        remaining_final_flat = remaining_final.reshape(-1)
        # headroom = where(load > eps, remaining / max(load, eps), inf)
        # — the solo formula, with the masked divisor |load * (load > eps)|
        # *cached*: the bool multiply zeroes masked lanes and the abs pass
        # turns the -0.0 of masked *negative* lanes (tiny residues left by
        # the freeze subtraction) into +0.0 while passing unmasked lanes
        # through bitwise (load > eps > 0 there), so remaining / +0.0 lands
        # +inf in masked lanes on its own, exactly the value the solo
        # formula assigns.  Load only ever changes at the cells a freeze
        # touches, so the cache is refreshed there incrementally and the
        # steady-state headroom is a single full-width divide.
        np.greater(loadc, _EPS, out=bmask)
        np.multiply(loadc, bmask, out=mload)
        np.abs(mload, out=mload)
        iterations = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while live.any():
                iterations += 1
                if iterations > max_iterations:  # pragma: no cover - defensive
                    raise RuntimeError("batched max-min filling did not converge")
                np.divide(remc, mload, out=hm)
                if iterations == 1:
                    # Only 0.0 / 0.0 cells produce NaN, and they can only
                    # exist in round one: a zero remaining always trips the
                    # threshold scan (0 <= eps * (1 + capacity)), so any
                    # such cell is pinned to remaining = +inf before the
                    # next round's divide ever sees it.
                    np.isnan(hm, out=bmask)
                    np.copyto(hm, np.inf, where=bmask)
                inc = hm.min(axis=1)
                # A row whose headroom went to +inf is finished (solo breaks
                # there); it keeps advancing by exactly 0.0 from now on.
                live &= np.isfinite(inc)
                if not live.any():
                    break
                inc[~live] = 0.0
                np.add(fillc, inc, out=fillc)
                # The *raw* load drives the remaining update (as in solo),
                # including sub-eps residue lanes; hm is free scratch here.
                np.multiply(loadc, inc[:, None], out=hm)
                np.subtract(remc, hm, out=remc)
                np.less_equal(remc, satc, out=bmask)
                # Flat indices are ``scenario * L + link``: ascending order ==
                # scenario-major, link-ascending == solo per-scenario order.
                vcells = np.flatnonzero(bmask)
                if not len(vcells):  # pragma: no cover - numerical safety
                    break
                remaining_final_flat[vcells] = remc_flat[vcells]
                remc_flat[vcells] = np.inf
                # Most rounds saturate a handful of cells; direct slice
                # concatenation beats the vectorized multi-range gather
                # there (both produce the ranges in the same order).  The
                # plain-int offsets list sidesteps the NumPy scalar-slicing
                # overhead the hot path would otherwise pay per cell.
                if len(vcells) <= 48:
                    frozen = np.concatenate(
                        [
                            link_subflows[link_offsets_list[v] : link_offsets_list[v + 1]]
                            for v in vcells.tolist()
                        ]
                    )
                else:
                    frozen = link_subflows[_gather_ranges(link_offsets, vcells)]
                frozen = frozen[active[frozen]]
                if len(frozen):
                    # Sorted dedup == np.unique, minus its dispatch overhead.
                    frozen.sort()
                    dmask = np.empty(len(frozen), dtype=bool)
                    dmask[0] = True
                    np.not_equal(frozen[1:], frozen[:-1], out=dmask[1:])
                    frozen = frozen[dmask]
                    _FROZEN_PER_ROUND.observe(len(frozen))
                    active[frozen] = False
                    num_active -= np.bincount(sub_scen[frozen], minlength=S)
                    fill_at_freeze[frozen] = fillc[sub_scen[frozen]]
                    gone = _gather_ranges(sub_offsets, frozen)
                    # Group the gone entries by virtual link and subtract the
                    # per-link weight sums at the touched cells only.  This
                    # matches solo's full-width ``load = load - bincount(...)``
                    # bit for bit: the *stable* argsort keeps every link's
                    # weights in their original entry order, bincount over
                    # the group ids adds strictly sequentially per bucket
                    # (unlike a segmented ufunc reduce, which reassociates
                    # into pairwise sums), and the cells not touched see a
                    # 0.0 delta in solo (``x - 0.0 == x`` bitwise).
                    gv = entry_vlink[gone]
                    sidx = np.argsort(gv, kind="stable")
                    gv = gv[sidx]
                    gw = entry_weight[gone][sidx]
                    smask = np.empty(len(gv), dtype=bool)
                    smask[0] = True
                    np.not_equal(gv[1:], gv[:-1], out=smask[1:])
                    gid = np.cumsum(smask)
                    gid -= 1
                    touched = gv[smask]
                    loadc_flat[touched] -= np.bincount(gid, weights=gw)
                    # Refresh the masked-|load| headroom cache at the cells
                    # the subtraction changed (same mask-multiply-abs passes
                    # as the full-width initialisation, on the slice).
                    msub = loadc_flat[touched]
                    np.multiply(msub, np.greater(msub, _EPS), out=msub)
                    np.abs(msub, out=msub)
                    mload_flat[touched] = msub
                loadc_flat[vcells] = 0.0
                mload_flat[vcells] = 0.0
                # A scenario whose last subflow froze exits at the top of the
                # solo loop; here it just goes (and stays) dead.
                live &= num_active > 0
        # Unsaturated links keep their final remaining (the solo loop simply
        # stops updating them on exit); saturated cells were flushed when
        # pinned.  Subflows never frozen (inf headroom on exit) get their
        # scenario's final fill, as in the solo solver.
        np.copyto(remaining_final, remc, where=np.isfinite(remc))
        if active.any():
            fill_at_freeze[active] = fillc[sub_scen[active]]
        _MAXMIN_SOLVES.inc(S)
        _MAXMIN_ROUNDS.observe(iterations)
        sub_rate = sub_weights * fill_at_freeze
        results: List[PhaseResult] = []
        for s, asg in enumerate(asgs):
            rates_s = sub_rate[sub_base[s] : sub_base[s + 1]]
            flow_rates = np.bincount(asg.subflow_flow, weights=rates_s, minlength=asg.num_flows)
            used = self.capacity - remaining_final[s]
            link_util = np.where(self.capacity > 0, used / self.capacity, 0.0)
            bottleneck = int(np.argmax(link_util)) if L else -1
            results.append(
                PhaseResult(
                    flow_rates=flow_rates,
                    link_utilization=link_util,
                    bottleneck_link=bottleneck,
                )
            )
        return results

    def _batch_fill_sparse(
        self,
        asgs: Sequence[FlowAssignment],
        *,
        max_iterations: int = 100000,
    ) -> List[PhaseResult]:
        """Sparse sibling of :meth:`_batch_fill`: the same vectorized rounds
        on the **active** ``(scenario, link)`` cells only.

        The dense path's state is ``(scenarios, links)``; here it is one
        flat array over the unique virtual cells the batch actually loads
        (``np.unique`` of ``scenario * L + link``, once per batch).  Every
        float operation is elementwise identical to the dense rounds — the
        compaction inverse is a monotone relabeling, so bincount summation
        order, the stable freeze-subtraction grouping, and the headroom
        minima (untouched cells contribute +inf) all carry over — which
        keeps this path bit-identical to :meth:`_batch_fill` and therefore
        to per-scenario solo solves, while each round costs O(active cells)
        instead of O(scenarios x links).
        """
        S = len(asgs)
        L = len(self.capacity)
        sub_counts = np.fromiter((a.num_subflows for a in asgs), dtype=np.int64, count=S)
        sub_base = np.concatenate(([0], np.cumsum(sub_counts)))
        total_subs = int(sub_base[-1])
        entry_counts = np.fromiter((len(a.entry_link) for a in asgs), dtype=np.int64, count=S)
        entry_base = np.concatenate(([0], np.cumsum(entry_counts)))
        entry_scen = np.repeat(np.arange(S, dtype=np.int64), entry_counts)
        if total_subs:
            entry_link = np.concatenate([a.entry_link for a in asgs])
            entry_sub = np.concatenate(
                [a.entry_subflow + sub_base[s] for s, a in enumerate(asgs)]
            )
            sub_weights = np.concatenate(
                [a.subflow_weight * a.flow_demand[a.subflow_flow] for a in asgs]
            )
        else:  # pragma: no cover - all-empty batch
            entry_link = np.zeros(0, dtype=np.int64)
            entry_sub = np.zeros(0, dtype=np.int64)
            sub_weights = np.zeros(0)
        entry_vlink = entry_scen * L + entry_link
        sub_scen = np.repeat(np.arange(S, dtype=np.int64), sub_counts)
        entry_weight = sub_weights[entry_sub]
        sub_offsets = np.concatenate(
            [a.subflow_offsets()[:-1] + entry_base[s] for s, a in enumerate(asgs)]
            + [np.array([entry_base[-1]], dtype=np.int64)]
        )
        # Active-cell compaction: cells ascend scenario-major/link-ascending
        # (np.unique sorts), so per-scenario cells are contiguous runs and
        # ``flatnonzero`` scans reproduce the dense cell order exactly.
        cells, inv = np.unique(entry_vlink, return_inverse=True)
        inv = inv.astype(np.int64, copy=False)
        nV = len(cells)
        cell_scen = cells // L
        cell_counts = np.bincount(cell_scen, minlength=S)
        for c in cell_counts.tolist():
            _ACTIVE_LINKS.observe(int(c))
        cell_starts = np.concatenate(([0], np.cumsum(cell_counts)))[:-1].astype(np.int64)
        nonempty = cell_counts > 0
        ne_starts = cell_starts[nonempty]
        cap_v = self.capacity[cells - cell_scen * L]
        loadc = np.bincount(inv, weights=entry_weight, minlength=nV)
        remc = cap_v.copy()
        satc = _EPS * (1.0 + cap_v)
        # Compact cell -> crossing-subflows CSR (same stable order as dense).
        order = np.argsort(inv, kind="stable").astype(np.int64)
        link_offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(inv, minlength=nV)))
        ).astype(np.int64)
        link_offsets_list = link_offsets.tolist()
        link_subflows = entry_sub[order]
        fillc = np.zeros(S)
        live = sub_counts > 0
        active = np.ones(total_subs, dtype=bool)
        num_active = sub_counts.copy()
        fill_at_freeze = np.zeros(total_subs)
        remaining_final = np.tile(self.capacity, (S, 1))
        remaining_final_flat = remaining_final.reshape(-1)
        hm = np.empty(nV)
        mload = np.empty(nV)
        bmask = np.empty(nV, dtype=bool)
        inc = np.empty(S)
        np.greater(loadc, _EPS, out=bmask)
        np.multiply(loadc, bmask, out=mload)
        np.abs(mload, out=mload)
        iterations = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while live.any() and nV:
                iterations += 1
                if iterations > max_iterations:  # pragma: no cover - defensive
                    raise RuntimeError("batched max-min filling did not converge")
                np.divide(remc, mload, out=hm)
                if iterations == 1:
                    # 0.0 / 0.0 cells exist in round one only (see the dense
                    # sibling): a zero remaining trips the threshold scan and
                    # the cell is pinned before the next divide.
                    np.isnan(hm, out=bmask)
                    np.copyto(hm, np.inf, where=bmask)
                # Per-scenario minimum over that scenario's contiguous cell
                # run; scenarios with no cells read +inf, exactly what their
                # all-inf dense row minimizes to.
                inc.fill(np.inf)
                inc[nonempty] = np.minimum.reduceat(hm, ne_starts)
                live &= np.isfinite(inc)
                if not live.any():
                    break
                inc[~live] = 0.0
                np.add(fillc, inc, out=fillc)
                np.multiply(loadc, inc[cell_scen], out=hm)
                np.subtract(remc, hm, out=remc)
                np.less_equal(remc, satc, out=bmask)
                vcells = np.flatnonzero(bmask)
                if not len(vcells):  # pragma: no cover - numerical safety
                    break
                remaining_final_flat[cells[vcells]] = remc[vcells]
                remc[vcells] = np.inf
                if len(vcells) <= 48:
                    frozen = np.concatenate(
                        [
                            link_subflows[link_offsets_list[v] : link_offsets_list[v + 1]]
                            for v in vcells.tolist()
                        ]
                    )
                else:
                    frozen = link_subflows[_gather_ranges(link_offsets, vcells)]
                frozen = frozen[active[frozen]]
                if len(frozen):
                    frozen.sort()
                    dmask = np.empty(len(frozen), dtype=bool)
                    dmask[0] = True
                    np.not_equal(frozen[1:], frozen[:-1], out=dmask[1:])
                    frozen = frozen[dmask]
                    _FROZEN_PER_ROUND.observe(len(frozen))
                    active[frozen] = False
                    num_active -= np.bincount(sub_scen[frozen], minlength=S)
                    fill_at_freeze[frozen] = fillc[sub_scen[frozen]]
                    gone = _gather_ranges(sub_offsets, frozen)
                    # Same stable grouping as dense, over compact cell ids
                    # (``inv`` is monotone in the virtual id, so the stable
                    # argsort is the identical permutation and bincount adds
                    # each cell's weights in the identical order).
                    gv = inv[gone]
                    sidx = np.argsort(gv, kind="stable")
                    gv = gv[sidx]
                    gw = entry_weight[gone][sidx]
                    smask = np.empty(len(gv), dtype=bool)
                    smask[0] = True
                    np.not_equal(gv[1:], gv[:-1], out=smask[1:])
                    gid = np.cumsum(smask)
                    gid -= 1
                    touched = gv[smask]
                    loadc[touched] -= np.bincount(gid, weights=gw)
                    msub = loadc[touched]
                    np.multiply(msub, np.greater(msub, _EPS), out=msub)
                    np.abs(msub, out=msub)
                    mload[touched] = msub
                loadc[vcells] = 0.0
                mload[vcells] = 0.0
                live &= num_active > 0
        # Unsaturated cells keep their final remaining; untouched links were
        # never loaded and stay at capacity from the initialisation.
        fin = np.isfinite(remc)
        remaining_final_flat[cells[fin]] = remc[fin]
        if active.any():
            fill_at_freeze[active] = fillc[sub_scen[active]]
        _MAXMIN_SOLVES.inc(S)
        _MAXMIN_ROUNDS.observe(iterations)
        sub_rate = sub_weights * fill_at_freeze
        results: List[PhaseResult] = []
        for s, asg in enumerate(asgs):
            rates_s = sub_rate[sub_base[s] : sub_base[s + 1]]
            flow_rates = np.bincount(asg.subflow_flow, weights=rates_s, minlength=asg.num_flows)
            used = self.capacity - remaining_final[s]
            link_util = np.where(self.capacity > 0, used / self.capacity, 0.0)
            bottleneck = int(np.argmax(link_util)) if L else -1
            results.append(
                PhaseResult(
                    flow_rates=flow_rates,
                    link_utilization=link_util,
                    bottleneck_link=bottleneck,
                )
            )
        return results

    # -------------------------------------------------------- derived analyses
    def alltoall_bandwidth(
        self,
        *,
        num_phases: Optional[int] = None,
        seed: int = 0,
        method: str = "aggregate",
    ) -> float:
        """Achievable per-accelerator alltoall bandwidth (fraction of injection).

        Two models of the balanced-shift alltoall (Section V-A1a) are
        available:

        * ``"aggregate"`` (default, used for Table II): the classic global
          bandwidth analysis.  Traffic of all shifts is aggregated into one
          uniform load (every rank sends equally to every other rank), the
          per-link load is computed for the even multipath split, and the
          achievable injection rate is limited by the most loaded link.  With
          long messages and adaptive routing, consecutive shift phases overlap
          in the network, which this model captures.
        * ``"phased"``: phases are barrier-synchronised; the result is the
          harmonic mean of the per-phase achievable rates.  This is the more
          pessimistic model and is exposed for sensitivity studies.

        For large systems a stratified sample of shifts approximates the full
        pattern; sampling whole permutation phases keeps every accelerator's
        injection/ejection links exactly balanced, so the estimate has no
        endpoint-sampling noise.
        """
        from .traffic import alltoall_phases, sampled_alltoall_phases

        p = len(self.ranks)
        if num_phases is None or num_phases >= p - 1:
            phases = alltoall_phases(p)
        else:
            phases = sampled_alltoall_phases(p, num_phases, seed=seed)
        if method == "phased":
            inv_rates = []
            for phase in phases:
                rate = self.symmetric_rate(phase).min_rate
                inv_rates.append(1.0 / max(rate, _EPS))
            harmonic = len(inv_rates) / sum(inv_rates)
            return min(harmonic / self.injection_capacity, 1.0)
        if method != "aggregate":
            raise ValueError(f"unknown alltoall method {method!r}")
        # Aggregate all sampled phases into a single uniform-traffic load.
        all_flows: List[Flow] = [f for phase in phases for f in phase]
        asg = self.assign(all_flows)
        weights = asg.subflow_weight[asg.entry_subflow]
        load = np.bincount(asg.entry_link, weights=weights, minlength=len(self.capacity))
        # Each accelerator appears exactly once per phase as a source, so an
        # injection rate of R corresponds to R / num_phases per flow.
        load = load / len(phases)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(load > _EPS, self.capacity / np.maximum(load, _EPS), np.inf)
        injection_rate = float(ratio.min())
        return min(injection_rate / self.injection_capacity, 1.0)

    def permutation_bandwidths(self, flows: Sequence[Flow]) -> np.ndarray:
        """Per-rank receive bandwidth (fraction of injection) for a permutation."""
        result = self.maxmin_rates(flows)
        by_dst = np.zeros(len(self.ranks))
        dst = np.fromiter((f.dst for f in flows), dtype=np.int64, count=len(flows))
        np.add.at(by_dst, dst, result.flow_rates)
        return by_dst / self.injection_capacity

    def phase_bandwidth(self, flows: Sequence[Flow], *, exact: bool = False) -> float:
        """Common achievable flow rate for one symmetric phase (units of ports)."""
        if exact:
            result = self.maxmin_rates(flows)
            return result.min_rate
        return self.symmetric_rate(flows).min_rate
