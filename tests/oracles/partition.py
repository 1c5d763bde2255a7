"""Full recompute of a cut's critical path and weakly-connected components.

:class:`repro.core.PartitionState` updates these incrementally, touching only
what a committed toggle reaches.  This module rebuilds them from scratch over
the whole cut, so the tests can check the incremental values against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dfg import indices_of_mask


@dataclass(frozen=True)
class PathsAndComponents:
    #: Longest hardware path ending at each cut node.
    path_end: dict[int, float]
    #: ``(top delay, multiplicity of top delay, second-best delay)``.
    top_path: tuple[float, int, float]
    #: Component id of each cut node; ids count up in ascending order of
    #: each component's smallest member.
    component_of: dict[int, int]
    #: Critical-path delay of each component, by id.
    component_delays: tuple[float, ...]
    hardware_delay: float

    def other_components_delay(self, index: int) -> float:
        total = sum(self.component_delays)
        cid = self.component_of.get(index)
        if cid is None:
            return total
        return total - self.component_delays[cid]


def recompute(dfg, cut_mask: int, hw_table: list[float]) -> PathsAndComponents:
    """Exact critical path and weakly-connected components of the cut."""
    members = indices_of_mask(cut_mask)
    preds_table = [dfg.preds(index) for index in range(dfg.num_nodes)]
    path_end: dict[int, float] = {}
    # Longest path ending at each node (members are in topological order).
    best = 0.0
    for index in members:
        incoming = 0.0
        for pred in preds_table[index]:
            if cut_mask >> pred & 1:
                value = path_end[pred]
                if value > incoming:
                    incoming = value
        total = incoming + hw_table[index]
        path_end[index] = total
        if total > best:
            best = total
    # Union-find component labelling.
    parent = {index: index for index in members}

    def find(index: int) -> int:
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    for index in members:
        for pred in preds_table[index]:
            if cut_mask >> pred & 1:
                root_a, root_b = find(index), find(pred)
                if root_a != root_b:
                    parent[root_a] = root_b
    roots: dict[int, int] = {}
    component_of: dict[int, int] = {}
    component_delays: list[float] = []
    for index in members:
        root = find(index)
        if root not in roots:
            roots[root] = len(component_delays)
            component_delays.append(0.0)
        cid = roots[root]
        component_of[index] = cid
        component_delays[cid] = max(component_delays[cid], path_end[index])
    top1 = 0.0
    count1 = 0
    top2 = 0.0
    for value in path_end.values():
        if value > top1:
            top2 = top1
            top1 = value
            count1 = 1
        elif value == top1:
            count1 += 1
        elif value > top2:
            top2 = value
    return PathsAndComponents(
        path_end=path_end,
        top_path=(top1, count1, top2),
        component_of=component_of,
        component_delays=tuple(component_delays),
        hardware_delay=best,
    )


def changed_paths(before: PathsAndComponents, after: PathsAndComponents) -> int:
    """Mask of the nodes whose ``path_end`` entered, left or changed value."""
    mask = 0
    for index in before.path_end.keys() | after.path_end.keys():
        if before.path_end.get(index) != after.path_end.get(index):
            mask |= 1 << index
    return mask
