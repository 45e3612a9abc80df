"""The index/deduction graph of Section 5.2 (Figure 3).

Index nodes represent size estimations for compressed indexes and carry
one of three states — NONE, SAMPLED, DEDUCED.  Deduction nodes connect a
parent index node to the child index nodes its size can be deduced from;
a deduction is enabled only when every child is decided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache

from repro.compression.base import CompressionMethod
from repro.errors import SizeEstimationError
from repro.physical.index_def import IndexDef
from repro.storage.index_build import IndexKind


class NodeState(enum.Enum):
    NONE = "none"
    SAMPLED = "sampled"
    DEDUCED = "deduced"


#: Node identity: (table, kind tag, column sequence, method).  The kind
#: tag separates base structures (heap/clustered — which store *every*
#: table column) from secondary indexes on the same key columns.
#: Deductions only apply to plain (non-partial, non-MV) indexes; partial
#: and MV indexes always go through SampleCF.
NodeKey = tuple[str, str, tuple[str, ...], CompressionMethod]

#: Kind tag: every base structure stores the full column set, so heaps
#: and clustered indexes share one tag class for ColSet purposes.
_BASE_KINDS = (IndexKind.HEAP, IndexKind.CLUSTERED)


#: ColSet class of a node: (table, method, "base" | column set).  Two
#: ORD-IND nodes can be deduced from one another iff they share it.
ColSetKey = tuple[str, CompressionMethod, "str | frozenset[str]"]


def _colset_key(key: NodeKey) -> ColSetKey:
    table, tag, columns, method = key
    # Every base structure stores the table's full column set: any two
    # are ColSet-equivalent (the paper's clustered-index observation in
    # Section 4.2).
    return (table, method, "base" if tag == "base" else frozenset(columns))


def node_key(index: IndexDef) -> NodeKey:
    if index.is_partial or index.is_mv_index:
        raise SizeEstimationError(
            "deduction graph holds plain table indexes only"
        )
    tag = "base" if index.kind in _BASE_KINDS else "sec"
    return (index.table, tag, index.column_sequence, index.method)


@dataclass
class DeductionNode:
    """A possible deduction: estimate ``parent`` from ``children``."""

    kind: str  # 'colset' | 'colext'
    parent: NodeKey
    children: tuple[NodeKey, ...]

    @property
    def arity(self) -> int:
        """The 'a' of the error model: #indexes extrapolated from."""
        return len(self.children)


@dataclass
class IndexNode:
    """One size-estimation decision in the graph."""

    key: NodeKey
    index: IndexDef
    state: NodeState = NodeState.NONE
    is_target: bool = False
    is_existing: bool = False
    chosen_deduction: DeductionNode | None = None

    @property
    def width(self) -> int:
        return len(self.key[2])


class EstimationGraph:
    """Holds index nodes and their candidate deductions."""

    #: ColExt partitions split the column sequence into at most this
    #: many contiguous segments.
    max_segments = 3

    def __init__(self) -> None:
        self.nodes: dict[NodeKey, IndexNode] = {}
        self.deductions: dict[NodeKey, list[DeductionNode]] = {}
        #: node keys per ColSet class, in insertion order (the order
        #: ``nodes`` holds them in, which ties in the planners break on).
        self._colset_classes: dict[ColSetKey, list[NodeKey]] = {}

    # ------------------------------------------------------------------
    def add_index(
        self,
        index: IndexDef,
        is_target: bool = False,
        is_existing: bool = False,
    ) -> IndexNode:
        key = node_key(index)
        node = self.nodes.get(key)
        if node is None:
            node = IndexNode(key=key, index=index)
            self.nodes[key] = node
            self._colset_classes.setdefault(_colset_key(key), []).append(key)
        node.is_target = node.is_target or is_target
        if is_existing:
            node.is_existing = True
            node.state = NodeState.SAMPLED  # known exactly from catalog
        return node

    def node(self, key: NodeKey) -> IndexNode:
        return self.nodes[key]

    # ------------------------------------------------------------------
    def expand_node(self, key: NodeKey) -> list[DeductionNode]:
        """Create this node's deduction candidates (and their children).

        ColSet children: other nodes already in the graph with the same
        column set and method (ORD-IND only).  ColExt children: indexes on
        the contiguous segments of the column sequence.
        """
        if key in self.deductions:
            return self.deductions[key]
        out: list[DeductionNode] = []
        table, tag, columns, method = key

        if method.is_order_independent:
            out.extend(
                DeductionNode("colset", key, (other,))
                for other in self._colset_classes[_colset_key(key)]
                if other != key
            )

        # ColExt over column segments: secondary indexes only (a base
        # structure's stored columns are the whole table, not its key).
        if tag == "sec" and len(columns) >= 2 and method.is_compressed:
            for partition in _segment_partitions(columns, self.max_segments):
                children = tuple(
                    (table, "sec", segment, method) for segment in partition
                )
                for child in children:
                    if child not in self.nodes:
                        # A helper index over a column segment.
                        self.add_index(IndexDef(
                            table=table,
                            key_columns=child[2],
                            kind=IndexKind.SECONDARY,
                            method=method,
                        ))
                out.append(DeductionNode("colext", key, children))

        self.deductions[key] = out
        return out

    # ------------------------------------------------------------------
    def targets(self) -> list[IndexNode]:
        return [n for n in self.nodes.values() if n.is_target]

    def decided(self, key: NodeKey) -> bool:
        return self.nodes[key].state is not NodeState.NONE

    def prune_unused(self) -> None:
        """Remove helper nodes no chosen deduction references (the final
        step of the paper's greedy algorithm): wider to narrower."""
        used: set[NodeKey] = set()
        for node in self.nodes.values():
            if node.is_target or node.is_existing:
                used.add(node.key)
        changed = True
        while changed:
            changed = False
            for node in self.nodes.values():
                if node.key in used and node.chosen_deduction is not None:
                    for child in node.chosen_deduction.children:
                        if child not in used:
                            used.add(child)
                            changed = True
        for key in list(self.nodes):
            if key not in used:
                del self.nodes[key]
                self.deductions.pop(key, None)
                self._colset_classes[_colset_key(key)].remove(key)


def _segment_partitions(
    columns: tuple[str, ...], max_segments: int
) -> list[tuple[tuple[str, ...], ...]]:
    """All partitions of ``columns`` into 2..max_segments contiguous,
    order-preserving segments (A+B, AB+C, A+B+C, ...)."""
    return [
        tuple(columns[start:end] for start, end in partition)
        for partition in _segment_bounds(len(columns), max_segments)
    ]


@cache
def _segment_bounds(
    n: int, max_segments: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """:func:`_segment_partitions` of ``n`` columns as (start, end)
    slices — a function of the width alone, so computed once."""
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(start: int, parts: list[tuple[int, int]]) -> None:
        if start == n:
            if len(parts) >= 2:
                out.append(tuple(parts))
            return
        if len(parts) == max_segments:
            return
        for end in range(start + 1, n + 1):
            parts.append((start, end))
            rec(end, parts)
            parts.pop()

    rec(0, [])
    return tuple(out)
