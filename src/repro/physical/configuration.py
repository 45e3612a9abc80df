"""Configurations: sets of indexes the what-if optimizer costs.

A configuration always contains exactly one *base structure* per table
(heap or clustered index) plus any number of secondary / partial / MV
indexes.  The advisor's enumeration moves between configurations by adding
indexes or swapping a table's base structure.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import AdvisorError
from repro.physical.index_def import IndexDef
from repro.storage.index_build import IndexKind


def structure_order_key(index: IndexDef) -> tuple[str, str]:
    """The total, content-determined sort key of a structure: its
    display name, then its full signature.  The name alone is not
    total — two partial indexes on the same keys with different filters
    both render ``..._part`` — and the optimizer's first-minimum
    tie-break follows this order, so it must not fall back to
    ``frozenset`` iteration (PYTHONHASHSEED).  Cached on the (frozen)
    index: every per-table sort of every configuration asks for it."""
    key = index.__dict__.get("_order_key")
    if key is None:
        # Imported here: repro.parallel.signature imports this module.
        from repro.parallel.signature import index_signature

        key = (index.display_name(), index_signature(index))
        object.__setattr__(index, "_order_key", key)
    return key


def member_order_key(index: IndexDef) -> str:
    """The key :meth:`Configuration.ordered` sorts members by: the
    index's ``repr``, total and content-determined.  Cached on the
    (frozen) index, like :func:`structure_order_key`: a search orders
    many configurations over the same structures."""
    key = index.__dict__.get("_member_key")
    if key is None:
        key = repr(index)
        object.__setattr__(index, "_member_key", key)
    return key


def _is_base(index: IndexDef) -> bool:
    """Whether ``index`` is its table's base structure (heap or
    clustered, not on an MV)."""
    return (
        index.kind in (IndexKind.HEAP, IndexKind.CLUSTERED)
        and index.mv is None
    )


class Configuration:
    """An immutable set of :class:`IndexDef` (hashable, comparable)."""

    #: ``(the parent's members, the added member)`` of a configuration
    #: :meth:`add` built by putting one new non-base structure into a
    #: parent; None otherwise.  Outside eq/hash and never pickled.
    provenance: "tuple[frozenset[IndexDef], IndexDef] | None" = None

    def __init__(self, indexes: Iterable[IndexDef] = ()) -> None:
        members = frozenset(indexes)
        base_tables: dict[str, IndexDef] = {}
        for ix in members:
            if _is_base(ix):
                if ix.table in base_tables:
                    raise AdvisorError(
                        f"two base structures for table {ix.table!r}"
                    )
                base_tables[ix.table] = ix
        self._set(members, base_tables)

    def _set(
        self, indexes: frozenset[IndexDef], base: dict[str, IndexDef]
    ) -> None:
        self._indexes = indexes
        #: table -> its base structure; never mutated (derived
        #: configurations share it or build a new one).
        self._base = base
        self._ordered: tuple[IndexDef, ...] | None = None
        self._mv_indexes: tuple[IndexDef, ...] | None = None
        #: table -> :meth:`structures_on` (cached).
        self._structures: dict[str, tuple[IndexDef, ...]] = {}

    @classmethod
    def _derived(
        cls, indexes: frozenset[IndexDef], base: dict[str, IndexDef]
    ) -> "Configuration":
        """A configuration whose base map its caller already knows
        (:meth:`add` and :meth:`remove` keep one base per table)."""
        config = cls.__new__(cls)
        config._set(indexes, base)
        return config

    # ------------------------------------------------------------------
    @property
    def indexes(self) -> frozenset[IndexDef]:
        return self._indexes

    def __iter__(self) -> Iterator[IndexDef]:
        return iter(self._indexes)

    def __len__(self) -> int:
        return len(self._indexes)

    def __contains__(self, index: IndexDef) -> bool:
        return index in self._indexes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Configuration)
            and self._indexes == other._indexes
        )

    def __hash__(self) -> int:
        return hash(self._indexes)

    def __getstate__(self) -> dict:
        # Provenance is the search's bookkeeping: pickled, it would
        # ship the parent's member set along with every sweep result.
        state = dict(self.__dict__)
        state.pop("provenance", None)
        return state

    def ordered(self) -> tuple[IndexDef, ...]:
        """Members in a stable, content-determined order (cached).

        ``frozenset`` iteration order follows the process hash seed;
        anything whose *result* can depend on member order — summing
        float costs, first-wins tie-breaking — iterates this instead so
        runs are reproducible across processes and PYTHONHASHSEED.
        """
        if self._ordered is None:
            self._ordered = tuple(
                sorted(self._indexes, key=member_order_key)
            )
        return self._ordered

    # ------------------------------------------------------------------
    def base_structure(self, table: str) -> IndexDef | None:
        """The heap/clustered structure of ``table`` (None if untracked)."""
        return self._base.get(table)

    def indexes_on(self, table: str) -> list[IndexDef]:
        return sorted(
            (ix for ix in self._indexes if ix.table == table),
            key=structure_order_key,
        )

    def structures_on(self, table: str) -> tuple[IndexDef, ...]:
        """The non-MV structures storing rows of ``table`` in the
        optimizer's plan-search order (cached): the base structure
        first, when the table is tracked, then the secondaries by
        :func:`structure_order_key`.  The plan search keeps the first
        minimum in this order, so everything that must reproduce its
        choice iterates this and nothing else."""
        structures = self._structures.get(table)
        if structures is None:
            base = self._base.get(table)
            rest = sorted(
                (
                    ix for ix in self._indexes
                    if ix.table == table and ix.mv is None
                    and ix is not base
                ),
                key=structure_order_key,
            )
            structures = tuple(rest) if base is None else (base, *rest)
            self._structures[table] = structures
        return structures

    def mv_indexes(self) -> tuple[IndexDef, ...]:
        """The MV-index members, in :meth:`ordered` order (cached;
        sorts only the MV indexes, usually none)."""
        if self._mv_indexes is None:
            self._mv_indexes = tuple(sorted(
                (ix for ix in self._indexes if ix.mv is not None),
                key=member_order_key,
            ))
        return self._mv_indexes

    # ------------------------------------------------------------------
    def add(self, index: IndexDef) -> "Configuration":
        """A new configuration with ``index`` added; adding a base
        structure replaces the table's existing base structure.

        A non-base ``index`` that is new here makes the result a child
        of this configuration: its :attr:`provenance` is ``(these
        members, index)``, so a reader that knows this parent — the
        delta coster's memo key, the search's budget sum — takes the
        one new member from it instead of a set difference."""
        if not _is_base(index):
            indexes = self._indexes
            config = self._derived(indexes.union((index,)), self._base)
            if len(config._indexes) != len(indexes):
                config.provenance = (indexes, index)
            return config
        existing = self._base.get(index.table)
        if existing == index:
            return self
        base = dict(self._base)
        base[index.table] = index
        if existing is None:
            return self._derived(self._indexes.union((index,)), base)
        # Neither is the other, and only ``existing`` is a member: one
        # symmetric difference drops it and adds ``index``.
        return self._derived(
            self._indexes.symmetric_difference((existing, index)), base
        )

    def remove(self, index: IndexDef) -> "Configuration":
        if index not in self._indexes:
            raise AdvisorError(f"{index} not in configuration")
        base = self._base
        if _is_base(index):
            base = dict(base)
            del base[index.table]
        return self._derived(self._indexes.difference((index,)), base)

    def replace(self, old: IndexDef, new: IndexDef) -> "Configuration":
        return self.remove(old).add(new)

    # ------------------------------------------------------------------
    def total_size(self, sizes: Mapping[IndexDef, float]) -> float:
        """Total bytes under a size assignment (estimates or truths)."""
        return sum(sizes[ix] for ix in self._indexes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = sorted(ix.display_name() for ix in self._indexes)
        return f"Configuration({names})"
