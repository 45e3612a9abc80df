"""In-memory table: schema plus column-wise data.

Tables hold their data column-wise (one Python list per column), which is
convenient both for the compression codecs (which operate per column) and
for the statistics builders.  Row-wise views are materialized on demand.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Iterator, Sequence

from repro.catalog.column import Column
from repro.errors import CatalogError


class Table:
    """A named collection of columns with (optional) data.

    Args:
        name: table name, unique within a schema.
        columns: ordered column definitions.
        primary_key: names of the primary key columns (may be empty).
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
    ) -> None:
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {name!r}")
        unknown = [k for k in primary_key if k not in names]
        if unknown:
            raise CatalogError(
                f"primary key columns {unknown} not in table {name!r}"
            )
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self.primary_key: tuple[str, ...] = tuple(primary_key)
        self._by_name = {c.name: c for c in self.columns}
        self._data: dict[str, list] = {c.name: [] for c in self.columns}
        #: memo of :meth:`content_digest`; the mutators below drop it
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # Schema access
    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def row_width(self) -> int:
        """Uncompressed fixed row width in bytes (sum of column widths)."""
        return sum(c.width for c in self.columns)

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self._data[self.columns[0].name])

    def column_values(self, name: str) -> list:
        """The raw value list of one column (shared, do not mutate)."""
        self.column(name)
        return self._data[name]

    def append_row(self, values: Sequence) -> None:
        """Append one row given values in column order."""
        self._check_arity(values)
        for col, value in zip(self.columns, values):
            self._data[col.name].append(value)
        self._digest = None

    def extend_rows(self, rows: Iterable[Sequence]) -> None:
        """Append many rows (in column order), all or none: every row's
        arity is checked before the first one lands."""
        rows = list(rows)
        for row in rows:
            self._check_arity(row)
        if not rows:
            return
        for col, values in zip(self.columns, zip(*rows)):
            self._data[col.name].extend(values)
        self._digest = None

    def _check_arity(self, values: Sequence) -> None:
        if len(values) != len(self.columns):
            raise CatalogError(
                f"row of {len(values)} values for {len(self.columns)}-column "
                f"table {self.name!r}"
            )

    def set_column_data(self, name: str, values: list) -> None:
        """Replace one column's data wholesale (generators use this)."""
        self.column(name)
        if self.num_rows and len(values) != self.num_rows:
            raise CatalogError(
                f"column {name!r}: {len(values)} values but table "
                f"{self.name!r} has {self.num_rows} rows"
            )
        self._data[name] = values
        self._digest = None

    def content_digest(self) -> str:
        """Stable digest of the table's name, schema and every value.

        Exact (no value is skipped) but column-wise: one ``repr`` per
        column list, each prefixed by the column's name and type, so a
        value cannot move between rows, columns or tables — or change
        type, ``1`` vs ``'1'`` — without changing the digest.  Memoised
        until the next :meth:`append_row` / :meth:`set_column_data`;
        lists handed out by :meth:`column_values` must not be mutated.
        """
        if self._digest is None:
            h = hashlib.sha256()
            h.update(f"table={self.name!r};rows={self.num_rows};".encode())
            for col in self.columns:
                h.update(f"column={col.name!r}:{col.dtype.name};".encode())
                h.update(repr(self._data[col.name]).encode())
            self._digest = h.hexdigest()
        return self._digest

    def iter_rows(self, columns: Sequence[str] | None = None) -> Iterator[tuple]:
        """Iterate rows as tuples, optionally projecting to ``columns``."""
        names = list(columns) if columns is not None else list(self.column_names)
        cols = [self.column_values(n) for n in names]
        return zip(*cols) if cols else iter(())

    def rows(self, columns: Sequence[str] | None = None) -> list[tuple]:
        """Materialize :meth:`iter_rows` into a list."""
        return list(self.iter_rows(columns))

    # ------------------------------------------------------------------
    # Derived tables
    # ------------------------------------------------------------------
    def empty_clone(self, name: str | None = None) -> "Table":
        """A new empty table with the same columns (and primary key)."""
        return Table(name or self.name, self.columns, self.primary_key)

    def sample(self, fraction: float, rng: random.Random) -> "Table":
        """A uniform Bernoulli row sample of this table.

        Args:
            fraction: sampling fraction in (0, 1].
            rng: the random source (callers own seeding for determinism).
        """
        if not 0.0 < fraction <= 1.0:
            raise CatalogError(f"sampling fraction {fraction} not in (0, 1]")
        out = self.empty_clone(f"{self.name}_sample")
        if fraction >= 1.0:
            for col in self.column_names:
                out.set_column_data(col, list(self.column_values(col)))
            return out
        n = self.num_rows
        picks = [i for i in range(n) if rng.random() < fraction]
        for col in self.column_names:
            src = self.column_values(col)
            out.set_column_data(col, [src[i] for i in picks])
        return out

    def project(self, columns: Sequence[str], name: str | None = None) -> "Table":
        """A new table holding only ``columns`` (data shared by copy)."""
        cols = [self.column(c) for c in columns]
        out = Table(name or f"{self.name}_proj", cols)
        for c in columns:
            out.set_column_data(c, list(self.column_values(c)))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Table({self.name!r}, {len(self.columns)} cols, "
            f"{self.num_rows} rows)"
        )
