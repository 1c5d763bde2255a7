"""Mutable partition state used by the modified Kernighan-Lin loop.

A :class:`PartitionState` tracks, for one basic-block DFG, which nodes are
currently mapped to hardware (the cut) and keeps every quantity the gain
function needs ready for O(degree) candidate evaluation:

* ``I_ISE`` / ``O_ISE`` via :class:`repro.core.iostate.IOState`,
* convexity of the cut via ancestor/descendant bitset unions,
* the software latency of the cut (incremental sum),
* the hardware critical path of the cut and of each of its weakly-connected
  components, updated only where a committed toggle reaches: the toggled
  node's ``path_end`` and those of the cut descendants whose longest
  incoming path changes, and the toggled node's own component (merged on an
  addition, re-flooded on a removal that may split it),
* which nodes may be toggled at all (forbidden nodes and nodes already
  claimed by previously generated ISEs are excluded).

The state is exact after every committed toggle; hypothetical queries
(``*_if_added`` / ``*_if_removed``) are exact for I/O and convexity and use a
documented estimate for the critical path (see :meth:`estimate_merit_if_toggled`).
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable

from ..dfg import DataFlowGraph, mask_of, popcount
from ..dfg.kernels import MaskKernel, resolve_kernel
from ..errors import ISEGenError
from ..hwmodel import ISEConstraints, LatencyModel
from .iostate import IOState


class PartitionState:
    """Hardware/software partition of one DFG with incremental bookkeeping."""

    def __init__(
        self,
        dfg: DataFlowGraph,
        constraints: ISEConstraints,
        latency_model: LatencyModel | None = None,
        *,
        allowed: Collection[int] | None = None,
        initial_members: Iterable[int] = (),
        kernel: str | MaskKernel | None = None,
    ):
        dfg.prepare()
        self.dfg = dfg
        self.index = dfg.bitset_index()
        if isinstance(kernel, MaskKernel):
            self.kernel = kernel
        elif kernel is None:
            self.kernel = self.index.kernel
        else:
            self.kernel = resolve_kernel(kernel)
        self.constraints = constraints
        self.latency_model = latency_model or LatencyModel()
        # Per-node latency tables under this state's model; every committed
        # toggle and every merit estimate reads them, so one pass over the
        # nodes here replaces a model call per read.
        n = dfg.num_nodes
        self._sw_table = [
            self.latency_model.node_software_cycles(dfg, i) for i in range(n)
        ]
        self._hw_table = [
            self.latency_model.node_hardware_delay(dfg, i) for i in range(n)
        ]
        if allowed is None:
            allowed_mask = dfg.full_mask()
        else:
            allowed_mask = mask_of(allowed)
        if not constraints.allow_memory:
            allowed_mask &= ~dfg.forbidden_mask
        self.allowed_mask = allowed_mask

        self.io = IOState(dfg)
        self.cut_mask = 0
        self._sw_latency = 0
        self._desc_union = 0
        self._anc_union = 0
        self._hw_delay = 0.0
        #: Nodes outside the cut that witness a convexity violation
        #: (``desc_union & anc_union & ~cut``); empty iff the cut is convex.
        self._violation_mask = 0
        #: Longest hardware path (normalized delay) ending at each node;
        #: 0.0 outside the cut.
        self._path_end: list[float] = [0.0] * n
        #: Multiset of the cut's ``_path_end`` values (value -> count).
        self._path_counts: dict[float, int] = {}
        #: ``(top delay, multiplicity of top delay, second-best delay)`` over
        #: the cut's ``_path_end`` — lets removal estimates run in O(1).
        self._top_path: tuple[float, int, float] = (0.0, 0, 0.0)
        #: Label of each cut node's weakly-connected component (the
        #: component's smallest member); -1 outside the cut.
        self._component_of: list[int] = [-1] * n
        #: Members of every component, by label.
        self._component_members: dict[int, list[int]] = {}
        #: Critical-path delay of every component, by label.
        self._component_delay: dict[int, float] = {}
        #: Sum of the component delays in ascending label order.
        self._component_total: float = 0
        #: Nodes whose ``_path_end`` entered, left or changed value in the
        #: last committed toggle (what the gain caches invalidate from).
        self.path_changed = 0
        #: Total committed toggles (lets caches detect untracked mutation).
        self.toggle_count = 0

        for index in initial_members:
            self.toggle(index)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def in_cut(self, index: int) -> bool:
        return bool(self.cut_mask >> index & 1)

    def is_allowed(self, index: int) -> bool:
        return bool(self.allowed_mask >> index & 1)

    def members(self) -> frozenset[int]:
        return self.io.members()

    @property
    def cut_size(self) -> int:
        return self.io.cut_size

    # ------------------------------------------------------------------
    # Committed toggles
    # ------------------------------------------------------------------
    def toggle(self, index: int) -> None:
        """Move node *index* to the other partition and refresh all caches."""
        if not self.is_allowed(index):
            raise ISEGenError(
                f"node {self.dfg.node_by_index(index).name!r} may not be toggled "
                "(forbidden operation or already claimed by another ISE)"
            )
        bit = 1 << index
        entering = not self.cut_mask & bit
        self.io.toggle(index)
        sw = self._sw_table[index]
        if entering:
            self.cut_mask |= bit
            self._sw_latency += sw
            self._desc_union |= self.index.desc[index]
            self._anc_union |= self.index.anc[index]
        else:
            self.cut_mask &= ~bit
            self._sw_latency -= sw
            self._desc_union, self._anc_union = self.index.closure_masks(
                self.cut_mask, self.kernel
            )
        self._violation_mask = self._desc_union & self._anc_union & ~self.cut_mask
        self.toggle_count += 1
        if entering:
            self._join_component(index, self._update_paths(index, entering))
        else:
            self._update_paths(index, entering)
            self._split_component(index)
        # Float addition is order-sensitive: sum in ascending-label order,
        # the order in which a scan of the cut in index order meets them.
        # (A generator, not component_delays(): a tuple per toggle would
        # fill CPython's tuple free lists and raise the peak RSS.)
        delays = self._component_delay
        self._component_total = sum(delays[label] for label in sorted(delays))
        top1 = top2 = 0.0
        for value in self._path_counts:
            if value > top1:
                top2 = top1
                top1 = value
            elif top2 < value < top1:
                top2 = value
        self._top_path = (top1, self._path_counts.get(top1, 0), top2)
        self._hw_delay = top1

    # ------------------------------------------------------------------
    # Incremental critical path and components
    # ------------------------------------------------------------------
    def _count_path(self, value: float, delta: int) -> None:
        counts = self._path_counts
        count = counts.get(value, 0) + delta
        if count:
            counts[value] = count
        else:
            del counts[value]

    def _update_paths(self, index: int, entering: bool) -> float:
        """Refresh ``_path_end`` after *index* entered or left the cut.

        Only *index* and the cut descendants whose longest incoming path
        changes are visited, in ascending index order (a topological order),
        and propagation stops at every node whose value stays the same.
        Sets :attr:`path_changed`; returns the largest value written (on an
        addition paths only grow, so it bounds the merged component).
        """
        cut_mask = self.cut_mask
        path_end = self._path_end
        preds_table = self.dfg._preds
        hw_table = self._hw_table
        succ_mask = self.index.succ_mask
        changed = 1 << index
        if entering:
            # Counted at the 0.0 it held outside the cut; the loop below
            # moves it to its value like any other changed node.
            self._count_path(0.0, 1)
            pending = changed
        else:
            self._count_path(path_end[index], -1)
            path_end[index] = 0.0
            pending = succ_mask[index] & cut_mask
        highest = 0.0
        while pending:
            low = pending & -pending
            pending ^= low
            node = low.bit_length() - 1
            incoming = 0.0
            for pred in preds_table[node]:
                if cut_mask >> pred & 1:
                    value = path_end[pred]
                    if value > incoming:
                        incoming = value
            total = incoming + hw_table[node]
            old = path_end[node]
            if total == old:
                continue
            path_end[node] = total
            self._count_path(old, -1)
            self._count_path(total, 1)
            if total > highest:
                highest = total
            changed |= low
            pending |= succ_mask[node] & cut_mask
        self.path_changed = changed
        return highest

    def _join_component(self, index: int, highest: float) -> None:
        """Merge the components *index* touches into one, with *index*."""
        component_of = self._component_of
        members_of = self._component_members
        delays = self._component_delay
        touched = {
            component_of[node]
            for node in (*self.dfg._preds[index], *self.dfg._succs[index])
            if component_of[node] >= 0
        }
        label = min(touched, default=index)
        if index <= label:
            label = index
            members = [index]
            delay = highest
        else:
            members = members_of[label]
            members.append(index)
            delay = max(delays[label], highest)
        component_of[index] = label
        for other in touched:
            if other != label:
                moved = members_of.pop(other)
                delay = max(delay, delays.pop(other))
                for node in moved:
                    component_of[node] = label
                members.extend(moved)
        members_of[label] = members
        delays[label] = delay

    def _split_component(self, index: int) -> None:
        """Drop *index* from its component and re-label what is left.

        The rest stays connected unless *index* had at least two cut
        neighbours; only then is it re-flooded into its parts."""
        component_of = self._component_of
        members_of = self._component_members
        label = component_of[index]
        component_of[index] = -1
        members = members_of.pop(label)
        del self._component_delay[label]
        preds_table = self.dfg._preds
        succs_table = self.dfg._succs
        seeds = {
            node
            for node in (*preds_table[index], *succs_table[index])
            if component_of[node] == label
        }
        flooded = len(seeds) > 1
        if not flooded:
            members.remove(index)
            parts = [members] if members else []
        else:
            parts = []
            for seed in seeds:
                if component_of[seed] != label:
                    continue  # reached from an earlier seed
                component_of[seed] = -2  # visited; re-labelled below
                part = [seed]
                for node in part:
                    for other in (*preds_table[node], *succs_table[node]):
                        if component_of[other] == label:
                            component_of[other] = -2
                            part.append(other)
                parts.append(part)
        path_end = self._path_end
        for part in parts:
            new_label = min(part)
            if flooded or new_label != label:
                for node in part:
                    component_of[node] = new_label
            members_of[new_label] = part
            self._component_delay[new_label] = max(map(path_end.__getitem__, part))

    # ------------------------------------------------------------------
    # Exact current-state queries
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return self.io.num_inputs

    @property
    def num_outputs(self) -> int:
        return self.io.num_outputs

    @property
    def software_latency(self) -> int:
        return self._sw_latency

    @property
    def hardware_delay(self) -> float:
        return self._hw_delay

    @property
    def hardware_latency(self) -> int:
        if self.cut_size == 0:
            return 0
        cycles = math.ceil(self._hw_delay * self.latency_model.cycles_per_mac - 1e-9)
        return max(self.latency_model.min_hardware_cycles, cycles)

    @property
    def merit(self) -> int:
        """Exact merit M(C) of the current cut."""
        return self._sw_latency - self.hardware_latency

    def is_convex(self) -> bool:
        return self._violation_mask == 0

    @property
    def violation_mask(self) -> int:
        """Bitmask of non-cut nodes witnessing a convexity violation."""
        return self._violation_mask

    def io_violation(self) -> int:
        return max(0, self.num_inputs - self.constraints.max_inputs) + max(
            0, self.num_outputs - self.constraints.max_outputs
        )

    def is_legal(self) -> bool:
        """Convex and within the register-file port budget."""
        return self.is_convex() and self.io_violation() == 0

    def component_delays(self) -> tuple[float, ...]:
        """Critical-path delay of every component, by smallest member."""
        delays = self._component_delay
        return tuple(delays[label] for label in sorted(delays))

    def other_components_delay(self, index: int) -> float:
        """Sum of the critical-path delays of the cut's connected components
        *excluding* the component containing node *index* (the quantity the
        independent-cuts gain component uses).  If the node is in software the
        sum over all components is returned."""
        label = self._component_of[index]
        if label < 0:
            return self._component_total
        return self._component_total - self._component_delay[label]

    def neighbors_in_cut(self, index: int) -> int:
        return popcount(self.index.neighbor_mask[index] & self.cut_mask)

    # ------------------------------------------------------------------
    # Hypothetical queries used by the gain function
    # ------------------------------------------------------------------
    def io_if_toggled(self, index: int) -> tuple[int, int]:
        return self.io.io_if_toggled(index)

    def io_violation_if_toggled(self, index: int) -> int:
        new_in, new_out = self.io.io_if_toggled(index)
        return max(0, new_in - self.constraints.max_inputs) + max(
            0, new_out - self.constraints.max_outputs
        )

    def convex_if_toggled(self, index: int) -> bool:
        """Exact convexity of the cut after a hypothetical toggle of *index*
        (O(|V|/64) for additions, O(|V|/64) for removals from a convex cut;
        removals from an already non-convex cut are conservatively reported
        as non-convex)."""
        bit = 1 << index
        if not self.in_cut(index):
            # Every current violation witness other than *index* itself stays
            # a witness after the addition (the closure unions only grow), so
            # the answer is an O(1) "no" unless the cut is convex or *index*
            # is the unique witness.
            if self._violation_mask & ~bit:
                return False
            desc = self._desc_union | self.index.desc[index]
            anc = self._anc_union | self.index.anc[index]
            cut = self.cut_mask | bit
            return (desc & anc & ~cut) == 0
        if not self.is_convex():
            return False
        rest = self.cut_mask & ~bit
        has_ancestor = (self.index.anc[index] & rest) != 0
        has_descendant = (self.index.desc[index] & rest) != 0
        return not (has_ancestor and has_descendant)

    def estimate_hw_delay_if_toggled(self, index: int) -> float:
        """Estimated critical-path delay after a hypothetical toggle.

        For additions the estimate considers the longest cut path reaching
        the node's parents and is exact unless the new node bridges two
        previously independent chains below it.  For removals the estimate
        subtracts the node's delay only when it currently terminates the
        critical path.  Committed toggles always keep it exact.
        """
        hw = self._hw_table[index]
        if not self.in_cut(index):
            incoming = 0.0
            for pred in self.dfg.preds(index):
                if self.in_cut(pred):
                    incoming = max(incoming, self._path_end[pred])
            return max(self._hw_delay, incoming + hw)
        top1, count1, top2 = self._top_path
        if self.cut_size <= 1:
            return 0.0
        if count1 > 1 or self._path_end[index] < top1:
            return top1
        return top2

    def estimate_merit_if_toggled(self, index: int) -> int:
        """Estimated merit M(C') of the cut after a hypothetical toggle."""
        sw = self._sw_table[index]
        new_sw = self._sw_latency + (sw if not self.in_cut(index) else -sw)
        new_size = self.cut_size + (1 if not self.in_cut(index) else -1)
        if new_size == 0:
            return 0
        delay = self.estimate_hw_delay_if_toggled(index)
        cycles = math.ceil(delay * self.latency_model.cycles_per_mac - 1e-9)
        hw_cycles = max(self.latency_model.min_hardware_cycles, cycles)
        return new_sw - hw_cycles

    def exact_merit_if_toggled(self, index: int) -> int:
        """Exact merit of the hypothetical cut (toggle / measure / restore).

        Costs two committed toggles, each touching the node's cut
        descendants and its component; used when
        ``ISEGenConfig.exact_candidate_merit`` is set and by the tests that
        bound the estimation error.
        """
        self.toggle(index)
        merit = self.merit
        self.toggle(index)
        return merit

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> frozenset[int]:
        """Immutable copy of the current cut membership."""
        return self.members()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionState(cut_size={self.cut_size}, io=({self.num_inputs},"
            f"{self.num_outputs}), convex={self.is_convex()}, merit={self.merit})"
        )
