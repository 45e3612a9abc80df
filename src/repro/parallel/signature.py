"""Stable content signatures for cross-process and on-disk cache keys.

Python's builtin ``hash()`` is randomized per process (PYTHONHASHSEED),
so any cache that outlives a process — or is shared between the advisor
and its worker processes — needs explicit, deterministic keys.  The
functions here derive those keys from the *content* of the objects:
an index signature spells out every field that can change a size or a
cost (table, kind, columns, compression method, filter, MV definition),
and a sample fingerprint digests the sampled data plus the sampling
seed, so a cache entry can never be replayed against different data.
"""

from __future__ import annotations

import hashlib

from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.workload.query import SelectQuery, Statement


def index_identity(index: IndexDef) -> tuple:
    """Every field of an index the size/cost models can observe, as a
    hashable tuple — in particular the compression method, so two
    hypothetical structures that differ only in method can never share
    a cache entry.

    This is the single source of truth for index identity: the what-if
    cost cache uses the tuple directly (hot path) and
    :func:`index_signature` renders it for persistent string keys, so
    the two can never drift apart.

    The tuple is cached on the (frozen, hence content-stable) IndexDef
    instance: delta recosting builds identity-keyed signatures for
    every candidate of every sweep, so this is one of the hottest
    pure functions in an advisor run.
    """
    cached = index.__dict__.get("_identity_cache")
    if cached is not None:
        return cached
    ident = (
        index.table,
        index.kind.value,
        index.key_columns,
        index.included_columns,
        index.method.value,
        index.filter,
        index.mv,
    )
    object.__setattr__(index, "_identity_cache", ident)
    return ident


def index_signature(index: IndexDef) -> str:
    """Canonical string identity of an index definition (the rendered
    form of :func:`index_identity`)."""
    table, kind, key, incl, method, filt, mv = index_identity(index)
    parts = [
        "tbl=" + table,
        "kind=" + kind,
        "key=" + ",".join(key),
        "incl=" + ",".join(incl),
        "method=" + method,
    ]
    if filt is not None:
        parts.append("filter=" + repr(filt))
    if mv is not None:
        parts.append("mv=" + repr(mv))
    return ";".join(parts)


def sized_index_signature(
    index: IndexDef, est_bytes: float, est_rows: float
) -> str:
    """An index signature extended with the estimated size the cost
    model would observe.  What-if cost entries are keyed on these, so a
    persisted cost can never be replayed against size estimates other
    than the ones it was computed from (e.g. a cache warmed under a
    different sampling seed or accuracy constraint)."""
    return f"{index_signature(index)}@bytes={est_bytes!r};rows={est_rows!r}"


def statement_signature(statement: Statement) -> str:
    """Canonical string identity of a workload statement."""
    if isinstance(statement, SelectQuery):
        return "select;" + repr(statement)
    return type(statement).__name__.lower() + ";" + repr(statement)


def config_signature(config: Configuration) -> str:
    """Canonical identity of a configuration: the sorted member
    signatures (order-independent, method-inclusive)."""
    return "|".join(sorted(index_signature(ix) for ix in config))


def _digest(material: bytes) -> str:
    return hashlib.sha256(material).hexdigest()


def sample_fingerprint(manager) -> str:
    """Digest of everything the sampling layer's output depends on.

    Covers the sampling seed, the minimum-sample-row clamp, and each
    table's name, schema and content.  Any change — regenerated data, a
    different scale or skew, another seed — yields a new fingerprint,
    which invalidates every persisted estimate derived from the old
    samples (their keys simply never match again).

    Deliberately exact (every value of every column is hashed, see
    :meth:`~repro.catalog.table.Table.content_digest`): that buys a
    hard guarantee that a cache entry can never be replayed against
    modified data — a probabilistic subsample would trade that away.
    The O(values) scan is paid once per table object, not per run: the
    digest is memoised on the table until its data changes, so only the
    first estimator over a database scans; later runs re-hash a few
    hex digests.

    Args:
        manager: a :class:`~repro.sampling.sample_manager.SampleManager`.
    """
    h = hashlib.sha256()
    h.update(f"seed={manager.seed};min_rows={manager.min_sample_rows};".encode())
    for table in sorted(manager.database.tables, key=lambda t: t.name):
        h.update(table.content_digest().encode())
    return h.hexdigest()
