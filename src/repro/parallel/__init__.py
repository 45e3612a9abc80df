"""Run-level sharding and the persistent, content-addressed caches
shared across advisor runs.

The package has three parts:

* :mod:`repro.parallel.signature` — stable (process-independent)
  content signatures for indexes, statements, configurations and the
  sample population; every cross-process or on-disk cache key is built
  from these, never from Python's randomized ``hash()``.
* :mod:`repro.parallel.cache` — :class:`EstimationCache`, the on-disk
  size-estimate cache keyed on index signature x compression method x
  sample fingerprint, and :class:`CostCache`, the on-disk what-if cost
  cache keyed on statement x sized-structure signatures x run context.
* :mod:`repro.parallel.engine` — :class:`ParallelEngine`, one ordered
  ``map`` of whole advisor runs (sweep units) over forked workers, with
  a transparent sequential fallback (``workers=1``, one effective CPU,
  or platforms without ``fork``).
"""

from repro.parallel.cache import CostCache, EstimationCache
from repro.parallel.engine import ParallelEngine
from repro.parallel.signature import (
    config_signature,
    index_identity,
    index_signature,
    sample_fingerprint,
    sized_index_signature,
    statement_signature,
)

__all__ = [
    "CostCache",
    "EstimationCache",
    "ParallelEngine",
    "config_signature",
    "index_identity",
    "index_signature",
    "sample_fingerprint",
    "sized_index_signature",
    "statement_signature",
]
