"""Property-based tests for convexity checks and PartitionState invariants."""

from hypothesis import given, settings

from repro.core import PartitionState
from repro.dfg import (
    convex_closure,
    count_io,
    is_convex,
    is_convex_mask,
    mask_of,
    violating_nodes,
)
from repro.hwmodel import ISEConstraints
from repro.merit import MeritFunction

from oracles.partition import changed_paths, recompute

from .strategies import graphs_with_subsets, toggle_sequences

CONSTRAINTS = ISEConstraints(max_inputs=4, max_outputs=2, max_ises=4)


def reference_is_convex(dfg, members):
    """Definition-level convexity check: no path between two members passes
    through a non-member (checked via per-pair ancestor/descendant masks)."""
    member_set = set(members)
    for outside in range(dfg.num_nodes):
        if outside in member_set:
            continue
        ancestors_in_cut = dfg.ancestors_mask(outside) & mask_of(member_set)
        descendants_in_cut = dfg.descendants_mask(outside) & mask_of(member_set)
        if ancestors_in_cut and descendants_in_cut:
            return False
    return True


@given(graphs_with_subsets())
@settings(max_examples=150, deadline=None)
def test_convexity_matches_reference_definition(case):
    dfg, members = case
    expected = reference_is_convex(dfg, members)
    assert is_convex(dfg, members) == expected
    assert is_convex_mask(dfg, mask_of(members)) == expected
    if expected:
        assert violating_nodes(dfg, members) == []
    else:
        assert violating_nodes(dfg, members)


@given(graphs_with_subsets())
@settings(max_examples=100, deadline=None)
def test_convex_closure_is_convex_and_minimal_superset(case):
    dfg, members = case
    closure = convex_closure(dfg, members)
    assert members <= closure
    assert is_convex(dfg, closure)
    if is_convex(dfg, members):
        assert closure == frozenset(members)


@given(toggle_sequences(max_nodes=14, max_toggles=30))
@settings(max_examples=80, deadline=None)
def test_partition_state_invariants_under_toggles(case):
    dfg, sequence = case
    state = PartitionState(dfg, CONSTRAINTS)
    merit_function = MeritFunction()
    for index in sequence:
        if not state.is_allowed(index):
            continue
        state.toggle(index)
        members = state.members()
        assert (state.num_inputs, state.num_outputs) == count_io(dfg, members)
        assert state.is_convex() == is_convex(dfg, members)
        assert state.merit == merit_function.merit(dfg, members)
        assert state.cut_size == len(members)


@given(toggle_sequences(max_nodes=12, max_toggles=20))
@settings(max_examples=60, deadline=None)
def test_hypothetical_convexity_matches_committed_toggle(case):
    dfg, sequence = case
    state = PartitionState(dfg, CONSTRAINTS)
    for index in sequence:
        if not state.is_allowed(index):
            continue
        predicted = state.convex_if_toggled(index)
        was_convex = state.is_convex()
        state.toggle(index)
        actual = state.is_convex()
        if was_convex:
            assert predicted == actual
        else:
            # From an already non-convex cut the prediction is conservative:
            # it may claim non-convexity even if the toggle repairs the cut.
            assert predicted in (False, actual)
        state.toggle(index)


@given(toggle_sequences(max_nodes=15, max_toggles=40))
@settings(max_examples=150, deadline=None)
def test_incremental_paths_and_components_match_full_recompute(case):
    """After every toggle the incremental critical path and components equal
    a from-scratch recompute, bit for bit, and the published changed mask is
    exactly the recompute's before/after diff."""
    dfg, sequence = case
    state = PartitionState(dfg, CONSTRAINTS)
    hw_table = [state.latency_model.node_hardware_delay(dfg, i) for i in range(dfg.num_nodes)]
    before = recompute(dfg, state.cut_mask, hw_table)
    for index in sequence:
        if not state.is_allowed(index):
            continue
        state.toggle(index)
        after = recompute(dfg, state.cut_mask, hw_table)
        assert state._path_end == [
            after.path_end.get(node, 0.0) for node in range(dfg.num_nodes)
        ]
        assert state.hardware_delay == after.hardware_delay
        assert state._top_path == after.top_path
        assert state.component_delays() == after.component_delays
        for node in range(dfg.num_nodes):
            assert state.other_components_delay(node) == after.other_components_delay(node)
        assert state.path_changed == changed_paths(before, after)
        before = after
