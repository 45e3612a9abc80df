"""Logical index definitions — the objects the advisor designs over.

An :class:`IndexDef` names a physical structure without materializing it:
(table or MV, key columns, included columns, kind, compression method,
optional partial-index filter).  Size comes from the size-estimation
framework; cost from the what-if optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compression.base import CompressionMethod
from repro.errors import AdvisorError
from repro.physical.mv_def import MVDefinition
from repro.storage.index_build import IndexKind
from repro.workload.expr import Predicate


@dataclass(frozen=True)
class IndexDef:
    """A (possibly hypothetical) index.

    Attributes:
        table: base table name (or the MV name for an MV index).
        key_columns: ordered key.
        included_columns: non-key leaf columns (secondary only).
        kind: heap / clustered / secondary.
        method: compression package.
        filter: optional partial-index predicate.
        mv: the MV definition when this indexes a materialized view.
    """

    table: str
    key_columns: tuple[str, ...]
    included_columns: tuple[str, ...] = ()
    kind: IndexKind = IndexKind.SECONDARY
    method: CompressionMethod = CompressionMethod.NONE
    filter: Predicate | None = None
    mv: MVDefinition | None = None

    def __post_init__(self) -> None:
        if self.kind is not IndexKind.HEAP and not self.key_columns:
            raise AdvisorError(f"{self.kind} index on {self.table} needs keys")
        overlap = set(self.key_columns) & set(self.included_columns)
        if overlap:
            raise AdvisorError(f"columns {overlap} both key and included")

    def __hash__(self) -> int:
        # The dataclass's own field-tuple hash, computed once per
        # instance: every Configuration set operation and size-map
        # lookup hashes its members.  Not pickled (__getstate__): str
        # hashes differ between processes.
        cached = self.__dict__.get("_hash_cache")
        if cached is None:
            cached = hash((
                self.table, self.key_columns, self.included_columns,
                self.kind, self.method, self.filter, self.mv,
            ))
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash_cache", None)
        state.pop("_variants", None)
        return state

    # ------------------------------------------------------------------
    @property
    def is_partial(self) -> bool:
        return self.filter is not None

    @property
    def is_mv_index(self) -> bool:
        return self.mv is not None

    @property
    def is_compressed(self) -> bool:
        return self.method.is_compressed

    @property
    def column_sequence(self) -> tuple[str, ...]:
        """Key then included columns (leaf storage order)."""
        return self.key_columns + self.included_columns

    @property
    def column_set(self) -> frozenset[str]:
        return frozenset(self.column_sequence)

    # ------------------------------------------------------------------
    def with_method(self, method: CompressionMethod) -> "IndexDef":
        """The same index under ``method``: ``self`` for its own
        method, else one variant per method, built on first request and
        kept on the instance.  The search asks for the same variants of
        the same structures on every sweep and every rerun, and a held
        stage's structures outlive its runs.  Invisible to eq/hash, and
        not pickled (``__getstate__``)."""
        if method is self.method:
            return self
        variants = self.__dict__.get("_variants")
        if variants is None:
            variants = {}
            object.__setattr__(self, "_variants", variants)
        variant = variants.get(method)
        if variant is None:
            variant = variants[method] = replace(self, method=method)
        return variant

    def uncompressed(self) -> "IndexDef":
        return self.with_method(CompressionMethod.NONE)

    def covers(self, columns) -> bool:
        """Whether the leaf rows contain every column in ``columns``
        (clustered indexes cover everything on their table)."""
        if self.kind in (IndexKind.CLUSTERED, IndexKind.HEAP):
            return True
        return set(columns) <= set(self.column_sequence)

    def key_prefix_length(self, equality_columns, range_columns=()) -> int:
        """How many leading key columns are usable by a seek: a maximal run
        of equality columns optionally followed by one range column."""
        usable = 0
        eq = set(equality_columns)
        rng = set(range_columns)
        for col in self.key_columns:
            if col in eq:
                usable += 1
            elif col in rng:
                usable += 1
                break
            else:
                break
        return usable

    # ------------------------------------------------------------------
    def display_name(self) -> str:
        # Memoized on the instance: enumeration tie-breaks render the
        # name for every candidate on every sweep.  Invisible to the
        # frozen dataclass's eq/hash, which use declared fields only.
        cached = self.__dict__.get("_display_cache")
        if cached is not None:
            return cached
        parts = [self.table, "_".join(self.key_columns) or "heap"]
        if self.included_columns:
            parts.append("incl_" + "_".join(self.included_columns))
        if self.kind is IndexKind.CLUSTERED:
            parts.append("cl")
        if self.is_partial:
            parts.append("part")
        if self.method.is_compressed:
            parts.append(self.method.value)
        name = "ix_" + "_".join(parts)
        object.__setattr__(self, "_display_cache", name)
        return name

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.display_name()
