"""The value rules shared by every boundary that takes a number or a
path.

:data:`repro.advisor.advisor.OPTION_RULES` applies them to advisor
options, and :class:`~repro.sizeest.estimator.SizeEstimator` to its
``(e, q)`` accuracy constraint — which is why they live below both.
Each returns the value as a plain ``float`` (a count as a plain
``int``) or raises :class:`AdvisorError` naming the field.
"""

from __future__ import annotations

import math
import numbers
import os

from repro.errors import AdvisorError


def check_budget(name: str, value) -> float:
    """``value`` as a storage budget — a real number (a bool is not
    one), finite and non-negative — or :class:`AdvisorError` naming
    ``name``.  The one rule for a budget in bytes or as a fraction, and
    for any finite non-negative number: :data:`OPTION_RULES`, a
    session's budgets, :func:`repro.api.run_sweep`'s budgets, a service
    payload's budgets, the job tier's routing numbers, an estimator's
    error tolerance ``e``, a statement's weight, a drift spec's numbers
    and the CLI's dataset flags apply it."""
    budget = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            budget = float(value)
        except OverflowError:  # an int past float range
            pass
    if not 0 <= budget < math.inf:
        raise AdvisorError(
            f"{name} must be a finite non-negative number, got {value!r}"
        )
    return budget


def check_probability(name: str, value) -> float:
    """``value`` as a probability in [0, 1] (an estimator's confidence
    ``q``), or :class:`AdvisorError` naming ``name``."""
    number = check_budget(name, value)
    if number > 1:
        raise AdvisorError(f"{name} must be in [0, 1], got {value!r}")
    return number


def check_count(name: str, value) -> int:
    """``value`` as a count — an integer (a bool is not one) >= 1 — or
    :class:`AdvisorError` naming ``name``.  :data:`OPTION_RULES` applies
    it to the advisor's integer options, and the CLI to ``--phases``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 1:
        raise AdvisorError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def check_path(name: str, value) -> str:
    """``value`` as a path string — a non-empty ``str`` or path-like —
    or :class:`AdvisorError` naming ``name``.  An empty path would name
    the working directory (``Path("")`` is ``.``), which nobody asks for
    by leaving a path empty.  A cache directory's append log applies it,
    and the CLI to ``--cache-dir``."""
    path = os.fspath(value)
    if not path:
        raise AdvisorError(f"{name} must be a non-empty path, got {value!r}")
    return path
