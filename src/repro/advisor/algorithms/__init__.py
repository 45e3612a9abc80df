"""Pluggable selection algorithms.

``AdvisorOptions.algorithm`` names a strategy registered here; the
advisor resolves it through :func:`get` and hands it the shared
machinery (candidate pool, a workload coster and a per-statement
coster, the delta coster's certificates, progress hooks).  Importing this package registers the built-ins:

========================  ============================================
``greedy-backtrack``      the paper's DTA/DTAc search (default)
``ibm``                   benefit/size-ratio knapsack + try_variations
``relaxation``            drop from the full pool until the budget fits
``anytime``               greedy streaming ``best_so_far`` job events
========================  ============================================

Third-party strategies subclass :class:`SelectionAlgorithm` and call
:func:`register` (usable as a class decorator).
"""

from repro.advisor.algorithms.base import (
    DEFAULT_ALGORITHM,
    EnumerationOptions,
    EnumerationResult,
    IndexBenefit,
    SelectionAlgorithm,
    get,
    names,
    register,
    registered,
)
from repro.advisor.algorithms.anytime import AnytimeGreedyAlgorithm
from repro.advisor.algorithms.greedy_backtrack import GreedyBacktrackAlgorithm
from repro.advisor.algorithms.ibm import IBMKnapsackAlgorithm
from repro.advisor.algorithms.relaxation import RelaxationAlgorithm

__all__ = [
    "DEFAULT_ALGORITHM",
    "EnumerationOptions",
    "EnumerationResult",
    "IndexBenefit",
    "SelectionAlgorithm",
    "AnytimeGreedyAlgorithm",
    "GreedyBacktrackAlgorithm",
    "IBMKnapsackAlgorithm",
    "RelaxationAlgorithm",
    "get",
    "names",
    "register",
    "registered",
]
