"""Incremental gain caching for the Kernighan-Lin inner loop.

``bipartition`` evaluates the gain of every unmarked node before each
committed toggle, so one improvement pass over an ``n``-node block performs
O(n^2) full gain evaluations even though a single toggle of node ``u`` can
only change a small part of most candidates' gains.  :class:`GainCache` /
:class:`CachedGainEvaluator` exploit that structure: every per-node quantity
that survives a toggle is memoized, and a committed toggle of ``u``
invalidates exactly the entries it can affect.

What a toggle of ``u`` can change, per gain component of a candidate ``v``:

* **I/O addendum** ``(dI, dO)`` of ``v`` — only when ``u`` is ``v`` itself, a
  parent, a child, or a *sibling* (sharing a producer value or an external
  input with ``v``); this is exactly the update neighbourhood of the paper's
  Figure 3 addendum rules.  The cut's base ``(I, O)`` totals are global but
  O(1) to read, so the penalty is assembled fresh from the cached addendum.
* **Convexity affinity** (neighbours of ``v`` inside the cut) — only when
  ``u`` is a direct neighbour of ``v``.
* **Convexity feasibility** of toggling ``v`` — only when ``u`` is an
  ancestor or descendant of ``v``, *provided* the set of violation witnesses
  (``PartitionState.violation_mask``) did not change; when the witness set
  changes every cached answer is dropped (the subsequent recomputation is
  O(1) per node for non-convex cuts thanks to the witness fast path in
  :meth:`PartitionState.convex_if_toggled`).
* **Merit estimate** — the global software-latency sum, cut size, and
  hardware critical path are O(1) reads; the only cacheable per-node part is
  ``incoming(v)``, the longest cut path reaching a parent of ``v``, which
  changes only when a parent's membership or ``path_end`` changes.  Removal
  estimates use the state's top-2 path statistics and need no cache.
* **Independent-cuts credit** and the **directional-growth** term are O(1)
  reads of maintained state (component delays) and static data (barrier
  proximities) respectively.

The cache also snapshots ``PartitionState.toggle_count``; if the state is
mutated behind the cache's back (e.g. the exact-merit probe's
toggle/measure/untoggle), everything is conservatively flushed, so cached
results always equal a fresh :class:`GainEvaluator`'s.
"""

from __future__ import annotations

import math

from ..dfg import mask_of
from ..dfg.kernels import MaskKernel, NumpyKernel, PurePythonKernel, resolve_kernel
from ..errors import ISEGenError
from .config import GainWeights
from .gain import GainBreakdown, GainEvaluator
from .state import PartitionState

#: Table ops over plain lists of big-int masks, such as ``succ_mask``.
_LIST_TABLES = PurePythonKernel()


class CachedGainEvaluator(GainEvaluator):
    """Drop-in :class:`GainEvaluator` with per-node memoization.

    The K-L loop must call :meth:`note_commit` after every committed toggle
    of the underlying state; gains then stay exactly equal to a fresh
    evaluator's while only the affected entries are ever recomputed.
    """

    def __init__(self, state: PartitionState, weights: GainWeights | None = None):
        super().__init__(state, weights, exact_merit=False)
        dfg = state.dfg
        n = dfg.num_nodes
        index = dfg.bitset_index()
        # Static per-node data (graph-shaped tables come from the shared
        # BitsetIndex; the latency tables are the state's own precomputed
        # ones — same model, same values).
        self._sw_cycles = state._sw_table
        self._hw_delays = state._hw_table
        self._proximity = [self.barrier_proximity(i) for i in range(n)]
        self._io_affected = index.io_affected
        self._succ_masks = index.succ_mask
        # Cached per-node entries (None = unknown).
        self._dio: list[tuple[int, int] | None] = [None] * n
        self._nbr: list[int | None] = [None] * n
        self._cvx: list[bool | None] = [None] * n
        self._incoming: list[float | None] = [None] * n
        # State snapshot backing the invalidation rules.
        self._seen_toggles = state.toggle_count
        self._seen_violation = state.violation_mask

    def rebind(self, state: PartitionState) -> None:
        """Point the evaluator at *state*, reusing the static per-DFG tables
        (software cycles, barrier proximities, invalidation masks), which are
        the expensive part of construction.  Counters restart; cached entries
        survive only when *state* is the same object the cache already
        tracks and nothing mutated it since."""
        if state.dfg is not self.state.dfg:
            raise ValueError("rebind requires a state over the same DFG")
        in_sync = state is self.state and state.toggle_count == self._seen_toggles
        self.state = state
        self.full_evals = 0
        self.cache_hits = 0
        if not in_sync:
            self._flush()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        n = self.state.dfg.num_nodes
        self._dio = [None] * n
        self._nbr = [None] * n
        self._cvx = [None] * n
        self._incoming = [None] * n
        self._seen_toggles = self.state.toggle_count
        self._seen_violation = self.state.violation_mask

    @staticmethod
    def _clear(entries: list, mask: int) -> None:
        while mask:
            low = mask & -mask
            entries[low.bit_length() - 1] = None
            mask ^= low

    def note_commit(self, index: int) -> None:
        """Invalidate every entry a committed toggle of *index* can affect."""
        state = self.state
        if state.toggle_count != self._seen_toggles + 1:
            self._flush()
            return
        dfg = state.dfg
        bit = 1 << index
        self._clear(self._dio, self._io_affected[index])
        self._clear(self._nbr, self._io_affected[index])
        if state.violation_mask != self._seen_violation:
            # The witness set moved: convexity feasibility may flip anywhere.
            self._cvx = [None] * dfg.num_nodes
            self._seen_violation = state.violation_mask
        else:
            dfg_index = dfg.bitset_index()
            self._clear(
                self._cvx,
                bit | dfg_index.anc[index] | dfg_index.desc[index],
            )
        # ``incoming`` reads the parents' ``path_end``: it goes stale at the
        # children of every node whose ``path_end`` the toggle touched.
        self._clear(
            self._incoming,
            _LIST_TABLES.union_selected(self._succ_masks, state.path_changed),
        )
        self._seen_toggles = state.toggle_count

    def cached_toggle_entries(
        self, index: int
    ) -> tuple[bool | None, tuple[int, int] | None]:
        """Currently-valid cached ``(convex_if_toggled, (dI, dO))`` of
        *index* (either part ``None`` when not cached).  Only meaningful
        while the cache is in sync with its state."""
        if self.state.toggle_count != self._seen_toggles:
            return None, None
        return self._cvx[index], self._dio[index]

    # ------------------------------------------------------------------
    # Cached evaluation
    # ------------------------------------------------------------------
    def breakdown(self, index: int) -> GainBreakdown:
        state = self.state
        if state.toggle_count != self._seen_toggles:
            self._flush()
        missed = False
        dio = self._dio[index]
        if dio is None:
            # Mask-based Figure-3 addendum: one O(degree) pass over the
            # node's pred/succ/external masks, bit-identical to the
            # ``IOState`` toggle/read/toggle-back probe it replaced.
            dio = state.index.toggle_addendum(state.cut_mask, index)
            self._dio[index] = dio
            missed = True
        nbr = self._nbr[index]
        if nbr is None:
            nbr = state.neighbors_in_cut(index)
            self._nbr[index] = nbr
            missed = True
        in_cut = state.in_cut(index)
        violations = state.violation_mask
        if violations and (in_cut or violations & ~(1 << index)):
            # O(1) global fast path: a non-convex cut rejects every removal,
            # and an addition only heals the cut if the toggled node is the
            # unique violation witness.  No cache entry is involved.
            cvx = False
        else:
            cvx = self._cvx[index]
            if cvx is None:
                cvx = state.convex_if_toggled(index)
                self._cvx[index] = cvx
                missed = True
        new_in = state.io.num_inputs + dio[0]
        new_out = state.io.num_outputs + dio[1]
        constraints = state.constraints
        io_penalty = -float(
            max(0, new_in - constraints.max_inputs)
            + max(0, new_out - constraints.max_outputs)
        )
        proximity = self._proximity[index]
        if in_cut:
            convexity = -float(nbr)
            large_cut = -proximity
            independent = float(state.other_components_delay(index))
        else:
            convexity = float(nbr)
            large_cut = proximity
            independent = 0.0

        merit = 0.0
        if cvx:
            merit, merit_missed = self._merit_estimate(index, in_cut)
            missed = missed or merit_missed

        if missed:
            self.full_evals += 1
        else:
            self.cache_hits += 1
        return GainBreakdown(
            merit=merit,
            io_penalty=io_penalty,
            convexity=convexity,
            large_cut=large_cut,
            independent=independent,
        )

    def _merit_estimate(self, index: int, in_cut: bool) -> tuple[float, bool]:
        """Mirror of :meth:`PartitionState.estimate_merit_if_toggled` reading
        the cached ``incoming`` delay; returns ``(merit, cache_missed)``."""
        state = self.state
        model = state.latency_model
        sw = self._sw_cycles[index]
        new_sw = state._sw_latency + (-sw if in_cut else sw)
        new_size = state.cut_size + (-1 if in_cut else 1)
        if new_size == 0:
            return 0.0, False
        missed = False
        if in_cut:
            delay = state.estimate_hw_delay_if_toggled(index)
        else:
            incoming = self._incoming[index]
            if incoming is None:
                incoming = 0.0
                for pred in state.dfg.preds(index):
                    if state.in_cut(pred):
                        incoming = max(incoming, state._path_end[pred])
                self._incoming[index] = incoming
                missed = True
            delay = max(state._hw_delay, incoming + self._hw_delays[index])
        cycles = math.ceil(delay * model.cycles_per_mac - 1e-9)
        hw_cycles = max(model.min_hardware_cycles, cycles)
        return float(new_sw - hw_cycles), missed


class VectorizedGainEvaluator(GainEvaluator):
    """Array-resident gain cache: one vectorized sweep per committed toggle.

    The scalar :class:`CachedGainEvaluator` already avoids *recomputing*
    unchanged entries, but the K-L loop still pays one Python ``breakdown``
    call per candidate per toggle — on the 696-node AES block that is half a
    million calls that mostly re-assemble five floats from cached parts.
    This evaluator keeps the same per-node entries (``(dI, dO)``, neighbour
    counts, convexity verdicts, ``incoming`` delays) in numpy arrays with
    boolean validity masks and answers :meth:`best_candidate` with one
    vectorized gain assembly plus an ``argmax``.

    Bit-identicality with the scalar cache (and hence with a fresh
    :class:`~repro.core.gain.GainEvaluator`) holds by construction:

    * every cached entry is an integer or a double computed by the *same*
      scalar routine at the same invalidation points (the invalidation
      rules in :meth:`note_commit` are copied verbatim);
    * the vectorized assembly performs elementwise IEEE-754 operations on
      exactly the operands, in exactly the association order, of
      ``GainBreakdown.weighted_total`` — elementwise numpy arithmetic on
      identical doubles yields identical doubles;
    * ``argmax`` returns the first maximum, which is the scalar loop's
      lowest-index tie-break;
    * ``full_evals`` / ``cache_hits`` are emulated exactly: a candidate
      counts as missed iff the sweep had to fill one of its invalid
      entries, which is precisely when the scalar ``breakdown`` would have.

    Requires the numpy kernel; :func:`~repro.core.kernighan_lin.bipartition`
    selects this class when the effective kernel is numpy and falls back to
    the scalar cache otherwise.
    """

    def __init__(
        self,
        state: PartitionState,
        weights: GainWeights | None = None,
        kernel: NumpyKernel | None = None,
    ):
        super().__init__(state, weights, exact_merit=False)
        if kernel is None:
            kernel = resolve_kernel("numpy")
        if kernel.name != "numpy":
            raise ISEGenError(
                "VectorizedGainEvaluator requires the numpy mask kernel"
            )
        self.kernel: NumpyKernel = kernel
        np = kernel.np
        self._np = np
        dfg = state.dfg
        n = dfg.num_nodes
        self._n = n
        index = dfg.bitset_index()
        self._index = index
        # Static tables.
        self._sw_arr = np.asarray(state._sw_table, dtype=np.int64)
        self._hw_arr = np.asarray(state._hw_table, dtype=np.float64)
        self._prox_arr = np.asarray(
            [self.barrier_proximity(i) for i in range(n)], dtype=np.float64
        )
        self._io_affected = index.io_affected
        self._succ_masks = index.succ_mask
        self._neighbor_masks = index.neighbor_mask
        self._preds = [dfg.preds(i) for i in range(n)]
        # Dynamic entries + validity masks (invalid entries hold stale
        # values that are never read while invalid).
        self._dio_in = np.zeros(n, dtype=np.int64)
        self._dio_out = np.zeros(n, dtype=np.int64)
        self._nbr = np.zeros(n, dtype=np.int64)
        self._cvx = np.zeros(n, dtype=np.bool_)
        self._incoming = np.zeros(n, dtype=np.float64)
        self._valid_dn = np.zeros(n, dtype=np.bool_)
        self._valid_cvx = np.zeros(n, dtype=np.bool_)
        self._valid_inc = np.zeros(n, dtype=np.bool_)
        # State snapshot backing the invalidation rules.
        self._seen_toggles = state.toggle_count
        self._seen_violation = state.violation_mask

    # ------------------------------------------------------------------
    # Cache lifecycle (mirrors CachedGainEvaluator)
    # ------------------------------------------------------------------
    def rebind(self, state: PartitionState) -> None:
        """Same contract as :meth:`CachedGainEvaluator.rebind`."""
        if state.dfg is not self.state.dfg:
            raise ValueError("rebind requires a state over the same DFG")
        in_sync = state is self.state and state.toggle_count == self._seen_toggles
        self.state = state
        self.full_evals = 0
        self.cache_hits = 0
        if not in_sync:
            self._flush()

    def _flush(self) -> None:
        self._valid_dn[:] = False
        self._valid_cvx[:] = False
        self._valid_inc[:] = False
        self._seen_toggles = self.state.toggle_count
        self._seen_violation = self.state.violation_mask

    def _bits(self, mask: int):
        return self.kernel.bits_of(mask, self._n)

    def _invalidate(self, valid, mask: int) -> None:
        if mask:
            valid &= ~self._bits(mask)

    def note_commit(self, index: int) -> None:
        """Invalidation rules copied from the scalar cache, applied to the
        validity arrays through mask → bit-array expansion."""
        state = self.state
        if state.toggle_count != self._seen_toggles + 1:
            self._flush()
            return
        self._invalidate(self._valid_dn, self._io_affected[index])
        if state.violation_mask != self._seen_violation:
            self._valid_cvx[:] = False
            self._seen_violation = state.violation_mask
        else:
            self._invalidate(
                self._valid_cvx,
                1 << index | self._index.anc[index] | self._index.desc[index],
            )
        self._invalidate(
            self._valid_inc,
            _LIST_TABLES.union_selected(self._succ_masks, state.path_changed),
        )
        self._seen_toggles = state.toggle_count

    def cached_toggle_entries(
        self, index: int
    ) -> tuple[bool | None, tuple[int, int] | None]:
        if self.state.toggle_count != self._seen_toggles:
            return None, None
        cvx = bool(self._cvx[index]) if self._valid_cvx[index] else None
        dio = (
            (int(self._dio_in[index]), int(self._dio_out[index]))
            if self._valid_dn[index]
            else None
        )
        return cvx, dio

    # ------------------------------------------------------------------
    # Entry refresh (scalar routines, touched only for invalid rows)
    # ------------------------------------------------------------------
    def _fill_dn(self, index: int) -> None:
        cut_mask = self.state.cut_mask
        di, do = self._index.toggle_addendum(cut_mask, index)
        self._dio_in[index] = di
        self._dio_out[index] = do
        self._nbr[index] = (self._neighbor_masks[index] & cut_mask).bit_count()
        self._valid_dn[index] = True

    def _fill_incoming(self, index: int) -> None:
        state = self.state
        cut_mask = state.cut_mask
        path_end = state._path_end
        incoming = 0.0
        for pred in self._preds[index]:
            if cut_mask >> pred & 1:
                value = path_end[pred]
                if value > incoming:
                    incoming = value
        self._incoming[index] = incoming
        self._valid_inc[index] = True

    # ------------------------------------------------------------------
    # Scalar protocol (API parity; the K-L loop only uses best_candidate)
    # ------------------------------------------------------------------
    def breakdown(self, index: int) -> GainBreakdown:
        state = self.state
        if state.toggle_count != self._seen_toggles:
            self._flush()
        missed = False
        if not self._valid_dn[index]:
            self._fill_dn(index)
            missed = True
        in_cut = state.in_cut(index)
        violations = state.violation_mask
        if violations and (in_cut or violations & ~(1 << index)):
            cvx = False
        else:
            if not self._valid_cvx[index]:
                self._cvx[index] = state.convex_if_toggled(index)
                self._valid_cvx[index] = True
                missed = True
            cvx = bool(self._cvx[index])
        constraints = state.constraints
        new_in = state.io.num_inputs + int(self._dio_in[index])
        new_out = state.io.num_outputs + int(self._dio_out[index])
        io_penalty = -float(
            max(0, new_in - constraints.max_inputs)
            + max(0, new_out - constraints.max_outputs)
        )
        nbr = int(self._nbr[index])
        proximity = float(self._prox_arr[index])
        if in_cut:
            convexity = -float(nbr)
            large_cut = -proximity
            independent = float(state.other_components_delay(index))
        else:
            convexity = float(nbr)
            large_cut = proximity
            independent = 0.0
        merit = 0.0
        if cvx:
            merit, merit_missed = self._merit_estimate(index, in_cut)
            missed = missed or merit_missed
        if missed:
            self.full_evals += 1
        else:
            self.cache_hits += 1
        return GainBreakdown(
            merit=merit,
            io_penalty=io_penalty,
            convexity=convexity,
            large_cut=large_cut,
            independent=independent,
        )

    def _merit_estimate(self, index: int, in_cut: bool) -> tuple[float, bool]:
        state = self.state
        model = state.latency_model
        sw = int(self._sw_arr[index])
        new_sw = state._sw_latency + (-sw if in_cut else sw)
        new_size = state.cut_size + (-1 if in_cut else 1)
        if new_size == 0:
            return 0.0, False
        missed = False
        if in_cut:
            delay = state.estimate_hw_delay_if_toggled(index)
        else:
            if not self._valid_inc[index]:
                self._fill_incoming(index)
                missed = True
            delay = max(
                state._hw_delay,
                float(self._incoming[index]) + float(self._hw_arr[index]),
            )
        cycles = math.ceil(delay * model.cycles_per_mac - 1e-9)
        hw_cycles = max(model.min_hardware_cycles, cycles)
        return float(new_sw - hw_cycles), missed

    # ------------------------------------------------------------------
    # The vectorized sweep
    # ------------------------------------------------------------------
    def best_candidate(self, candidates) -> tuple[int, float] | None:
        np = self._np
        state = self.state
        if state.toggle_count != self._seen_toggles:
            self._flush()
        candidate_list = list(candidates)
        if not candidate_list:
            return None
        n = self._n
        unmarked = np.zeros(n, dtype=np.bool_)
        unmarked[candidate_list] = True
        cut_mask = state.cut_mask
        in_cut = self._bits(cut_mask)

        # The scalar evaluator's O(1) non-convex fast path, per candidate:
        # with violations present, removals and additions other than the
        # unique witness are rejected without touching the convexity cache.
        violations = state.violation_mask
        if violations == 0:
            fastpath = np.zeros(n, dtype=np.bool_)
        elif violations & (violations - 1):
            fastpath = np.ones(n, dtype=np.bool_)
        else:
            fastpath = np.ones(n, dtype=np.bool_)
            fastpath[violations.bit_length() - 1] = in_cut[
                violations.bit_length() - 1
            ]

        # Refresh invalid entries of the swept candidates (scalar routines,
        # exactly the rows the scalar cache would have recomputed).
        need_dn = unmarked & ~self._valid_dn
        for v in np.nonzero(need_dn)[0].tolist():
            self._fill_dn(v)
        need_cvx = unmarked & ~fastpath & ~self._valid_cvx
        for v in np.nonzero(need_cvx)[0].tolist():
            self._cvx[v] = state.convex_if_toggled(v)
            self._valid_cvx[v] = True
        cvx_eff = np.where(fastpath, False, self._cvx)
        need_inc = unmarked & cvx_eff & ~in_cut & ~self._valid_inc
        for v in np.nonzero(need_inc)[0].tolist():
            self._fill_incoming(v)

        # Counter emulation: a candidate missed iff one of its entries had
        # to be filled this sweep.
        missed = need_dn | need_cvx | need_inc
        miss_count = int(np.count_nonzero(missed))
        self.full_evals += miss_count
        self.cache_hits += len(candidate_list) - miss_count

        # --- vectorized gain assembly (same operands, same op order) ---
        state_io = state.io
        constraints = state.constraints
        new_in = state_io.num_inputs + self._dio_in
        new_out = state_io.num_outputs + self._dio_out
        io_penalty = -(
            np.maximum(new_in - constraints.max_inputs, 0)
            + np.maximum(new_out - constraints.max_outputs, 0)
        ).astype(np.float64)
        nbr_f = self._nbr.astype(np.float64)
        convexity = np.where(in_cut, -nbr_f, nbr_f)
        large_cut = np.where(in_cut, -self._prox_arr, self._prox_arr)
        # Component delays by label, gathered per node through the state's
        # label list (-1 outside the cut reads the trailing 0.0).
        delay_of_label = np.zeros(n + 1, dtype=np.float64)
        delays = state._component_delay
        delay_of_label[list(delays)] = list(delays.values())
        component_delay = delay_of_label[state._component_of]
        independent = np.where(
            in_cut, state._component_total - component_delay, 0.0
        )

        model = state.latency_model
        size = state.cut_size
        sw_latency = state._sw_latency
        new_sw = np.where(
            in_cut, sw_latency - self._sw_arr, sw_latency + self._sw_arr
        )
        new_size = np.where(in_cut, size - 1, size + 1)
        delay_add = np.maximum(state._hw_delay, self._incoming + self._hw_arr)
        if size <= 1:
            delay_rem = np.zeros(n, dtype=np.float64)
        else:
            top1, count1, top2 = state._top_path
            path_end = np.array(state._path_end, dtype=np.float64)
            delay_rem = np.where(
                (count1 > 1) | (path_end < top1), top1, top2
            ).astype(np.float64)
        delay = np.where(in_cut, delay_rem, delay_add)
        cycles = np.ceil(delay * model.cycles_per_mac - 1e-9).astype(np.int64)
        hw_cycles = np.maximum(model.min_hardware_cycles, cycles)
        merit = (new_sw - hw_cycles).astype(np.float64)
        merit = np.where(new_size == 0, 0.0, merit)
        merit = np.where(cvx_eff, merit, 0.0)

        weights = self.weights
        gain = (
            weights.alpha * merit
            + weights.beta * io_penalty
            + weights.gamma * convexity
            + weights.delta * large_cut
            + weights.epsilon * independent
        )
        scores = np.where(unmarked, gain, -np.inf)
        best = int(np.argmax(scores))
        return best, float(scores[best])


class ShadowCutCache:
    """Cached legality oracle for the K-L shadow cut ``BC``.

    ``bipartition`` projects every committed toggle of the working cut ``C``
    onto the legal shadow cut ``BC`` — but only when the toggle keeps ``BC``
    convex and within the I/O budget.  Historically that check
    (``_shadow_can_toggle``) re-derived both answers per committed toggle:
    an I/O probe that toggles the shadow's ``IOState`` forth and back (two
    O(degree) counter sweeps) and a convexity query against the shadow's
    closure unions.

    This cache answers the same query from memoized per-node entries:

    * ``(dI, dO)`` addendums, invalidated through the shared
      ``BitsetIndex.io_affected`` neighbourhood masks on every shadow
      commit — the same Figure-3 rule the working cut's
      :class:`CachedGainEvaluator` uses;
    * ``convex_if_toggled`` verdicts, invalidated through ancestor /
      descendant masks (the shadow stays convex by construction, so the
      witness-set fast-path complication of the working cache collapses;
      the rare non-convex intermediate during a fallback reset flushes).

    Three tricks keep every query off the from-scratch path:

    * **Transfer from the working cache** — when ``C`` (before the commit)
      and ``BC`` agree on the whole cut, or at least on the toggled node's
      I/O neighbourhood, the entries the working evaluator just computed
      for the gain sweep are byte-for-byte the shadow's answers, so they
      are copied instead of recomputed.
    * **Mask-based addendum** — a first-time ``(dI, dO)`` query that cannot
      transfer is answered by :meth:`BitsetIndex.toggle_addendum`, a pure
      O(degree) mask formula over the shadow's cut mask, instead of
      toggling the shadow's ``IOState`` forth and back.  With it, no query
      ever needs a from-scratch probe: ``fresh_probes`` stays 0 on the
      cached path (the counter remains for the uncached-loop comparison in
      :class:`~repro.core.kernighan_lin.PassTrace`).
    * **Pass-persistent shadow** — instead of rebuilding ``BC`` from
      scratch at every pass, the K-L loop resets it to the pass seed via
      :meth:`reset_to`, which walks a convexity-preserving toggle order
      (:meth:`BitsetIndex.convex_reset_order`) so only the entries around
      the actually-changed nodes are invalidated and every other memo
      survives into the next pass.

    The verdicts are bit-identical to ``_shadow_can_toggle``'s; only the
    amount of recomputation changes.  ``cached_queries`` / ``fresh_probes``
    feed the :class:`~repro.core.kernighan_lin.PassTrace` counters.
    """

    def __init__(self, shadow: PartitionState):
        self.shadow = shadow
        self.index = shadow.dfg.bitset_index()
        n = shadow.dfg.num_nodes
        self._dio: list[tuple[int, int] | None] = [None] * n
        self._cvx: list[bool | None] = [None] * n
        self._seen_violation = shadow.violation_mask
        #: Queries answered from memoized / transferred / mask-formula
        #: entries — with the toggle-addendum path this is every query.
        self.cached_queries = 0
        #: Queries that needed a from-scratch probe of the shadow state;
        #: structurally 0 now, kept for the uncached-loop comparison.
        self.fresh_probes = 0

    def begin_pass(self) -> None:
        """Reset the per-pass counters (memoized entries survive)."""
        self.cached_queries = 0
        self.fresh_probes = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def can_toggle(
        self,
        index: int,
        working_mask_before: int,
        pre_entries: tuple[bool | None, tuple[int, int] | None] = (None, None),
    ) -> bool:
        """Would toggling *index* keep the shadow cut legal?

        *working_mask_before* is the working cut ``C`` as it was when the
        gain of *index* was evaluated (i.e. before the commit);
        *pre_entries* are the working evaluator's cached
        ``(convex, (dI, dO))`` for *index* at that same instant.
        """
        shadow = self.shadow
        diff = working_mask_before ^ shadow.cut_mask
        pre_cvx, pre_dio = pre_entries
        convex = self._cvx[index]
        if convex is None:
            if diff == 0 and pre_cvx is not None:
                convex = pre_cvx
            else:
                # O(words) derivation from the shadow's incrementally
                # maintained closure unions — never walks the graph, so it
                # does not count as a from-scratch probe.
                convex = shadow.convex_if_toggled(index)
            self._cvx[index] = convex
        if not convex:
            self.cached_queries += 1
            return False
        dio = self._dio[index]
        if dio is None:
            if pre_dio is not None and not (self.index.io_affected[index] & diff):
                dio = pre_dio
            else:
                # Mask-based Figure-3 addendum over the shadow's cut mask —
                # bit-identical to the IOState toggle/read/toggle-back probe
                # it replaced (pinned by the property suite), but a pure
                # O(degree) mask formula, so it counts as a cached answer.
                dio = self.index.toggle_addendum(shadow.cut_mask, index)
            self._dio[index] = dio
        self.cached_queries += 1
        new_in = shadow.io.num_inputs + dio[0]
        new_out = shadow.io.num_outputs + dio[1]
        constraints = shadow.constraints
        return (
            new_in <= constraints.max_inputs and new_out <= constraints.max_outputs
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, index: int) -> None:
        """Commit a toggle to the shadow cut, invalidating affected entries."""
        self.shadow.toggle(index)
        self.note_commit(index)

    def note_commit(self, index: int) -> None:
        shadow = self.shadow
        CachedGainEvaluator._clear(self._dio, self.index.io_affected[index])
        if shadow.violation_mask != self._seen_violation:
            # Witness set moved (only possible during a non-convex reset
            # fallback): every convexity verdict may flip.
            self._cvx = [None] * shadow.dfg.num_nodes
            self._seen_violation = shadow.violation_mask
        else:
            CachedGainEvaluator._clear(
                self._cvx,
                1 << index | self.index.anc[index] | self.index.desc[index],
            )

    def reset_to(self, members) -> None:
        """Re-seed the shadow cut for a new pass, preserving the memo.

        Walks a convexity-preserving toggle order from the current shadow
        cut to *members* (both are legal cuts, so one always exists) and
        invalidates only along the way.  Falls back to an arbitrary order —
        and hence a convexity-memo flush — if the search fails.
        """
        target = mask_of(members)
        current = self.shadow.cut_mask
        if target == current:
            return
        order = self.index.convex_reset_order(current, target)
        if order is None:  # pragma: no cover - defensive fallback
            from ..dfg import indices_of_mask

            order = indices_of_mask(current ^ target)
        for index in order:
            self.apply(index)
