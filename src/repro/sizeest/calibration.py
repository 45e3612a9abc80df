"""Error-model calibration: measure SampleCF and deduction errors
against full-build ground truths, and re-fit the coefficients of
:class:`~repro.sizeest.error_model.ErrorModel` from them.

The paper ships fitted coefficients (its Tables 2/3) and notes the
framework works for any estimation method "if their errors can be
characterized by parametric distributions with a given bias and
variance".  :class:`ErrorLab` runs the measurements through one
:class:`~repro.sizeest.estimator.SizeEstimator` — its SampleCF runner,
its deduction engine and its memoized full-build ``true_size`` — and
its ``samplecf_errors`` / ``deduction_errors`` are the two loops over
an index population.  :func:`calibrate_error_model` fits a model
from them, so users can point the framework at their own data; the
paper's Tables 2/3 and Figures 9/10 (``repro.experiments``) call the
same two loops over their own populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.catalog.schema import Database
from repro.compression.base import CompressionMethod
from repro.errors import SizeEstimationError
from repro.physical.index_def import IndexDef
from repro.sampling.sample_manager import SampleManager
from repro.sizeest.error_model import ErrorModel, ErrorRV, _error_class
from repro.sizeest.estimator import SizeEstimator
from repro.sizeest.samplecf import SizeEstimate
from repro.storage.index_build import IndexKind

#: Default sampling-fraction grid for SampleCF calibration.
CALIBRATION_FRACTIONS = (0.01, 0.025, 0.05, 0.10)


def fit_through_origin(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of y = m*x (the paper fits errors through the
    origin: zero error at f=1 / a=0)."""
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    return sxy / sxx if sxx else 0.0


def error_stats(errors: Sequence[float]) -> tuple[float, float]:
    """(bias, stddev) of ratio errors given as est/true - 1."""
    n = len(errors)
    if n == 0:
        return 0.0, 0.0
    mean = sum(errors) / n
    var = sum((e - mean) ** 2 for e in errors) / max(1, n - 1)
    return mean, math.sqrt(var)


def fit_errors(
    points: Iterable[tuple[float, Sequence[float]]]
) -> tuple[float, float]:
    """The slopes through the origin of the bias and of the stddev of
    the errors measured at each x (``-ln f`` for SampleCF, ``a`` for
    deduction), for points given as ``(x, errors)``."""
    xs, bias_ys, std_ys = [], [], []
    for x, errors in points:
        bias, std = error_stats(errors)
        xs.append(x)
        bias_ys.append(bias)
        std_ys.append(std)
    return fit_through_origin(xs, bias_ys), fit_through_origin(xs, std_ys)


class ErrorLab:
    """Measures SampleCF / deduction errors of one
    :class:`SizeEstimator` against its own full-build truths; each
    measurement walks the population in the order given, so float sums
    over its errors keep that order.

    ``min_sample_rows`` is the sample manager's floor: a low one keeps
    the sampling-fraction grid meaningful on small tables (the
    production default of 200 would clamp every f below ~5% to the same
    sample).
    """

    def __init__(self, database: Database, min_sample_rows: int = 50) -> None:
        self.estimator = SizeEstimator(
            database,
            manager=SampleManager(database, min_sample_rows=min_sample_rows),
        )

    def _error(self, index: IndexDef, est_bytes: float) -> float:
        return est_bytes / self.estimator.true_size(index) - 1.0

    def _exact(self, like: IndexDef, key_columns: tuple) -> SizeEstimate:
        """The measured truth of ``like`` keyed on ``key_columns``, as an
        estimate (the 'perfectly accurate inputs' of the paper's X_ColExt
        analysis)."""
        index = IndexDef(like.table, key_columns, kind=like.kind,
                         method=like.method)
        return SizeEstimate(
            index=index,
            est_bytes=self.estimator.true_size(index),
            compression_fraction=1.0,
            source="exact",
            error=ErrorRV.exact(),
            cost=0.0,
        )

    def samplecf_errors(
        self, population: Sequence[IndexDef], fractions: Iterable[float]
    ) -> dict[tuple[str, float], list[float]]:
        """{(class, fraction): [est/true - 1, ...]}: one SampleCF run
        per index of ``population`` at each fraction."""
        errors: dict[tuple[str, float], list[float]] = {}
        for f in fractions:
            for ix in population:
                est = self.estimator.runner.run(ix, f)
                errors.setdefault((_error_class(ix.method), f), []).append(
                    self._error(ix, est.est_bytes)
                )
        return errors

    def deduction_errors(
        self, population: Iterable[IndexDef]
    ) -> tuple[dict[tuple[str, int], list[float]], list[float]]:
        """({(class, a): [ColExt errors]}, [ColSet errors of the NS
        class]) over the composite members of ``population`` (``a`` =
        key columns): ColExt extrapolates each from its single-column
        sub-indexes, ColSet from its reversed-key sibling, every input
        exact."""
        deduction = self.estimator.deduction
        colext: dict[tuple[str, int], list[float]] = {}
        colset: list[float] = []
        for ix in population:
            if len(ix.key_columns) < 2:
                continue
            cls = _error_class(ix.method)
            parts = [self._exact(ix, (col,)) for col in ix.key_columns]
            colext.setdefault((cls, len(ix.key_columns)), []).append(
                self._error(ix, deduction.colext(ix, parts))
            )
            if cls == "NS":
                sibling = self._exact(ix, tuple(reversed(ix.key_columns)))
                colset.append(self._error(ix, deduction.colset(ix, sibling)))
        return colext, colset


@dataclass(frozen=True)
class CalibrationReport:
    """A fitted model plus the raw measurements that produced it.

    Attributes:
        model: the calibrated error model.
        samplecf_errors: {(class, fraction): [est/true - 1, ...]}.
        colext_errors: {(class, a): [...]}; colset_errors: [...].
    """

    model: ErrorModel
    samplecf_errors: Mapping[tuple, list]
    colext_errors: Mapping[tuple, list]
    colset_errors: list

    def summary(self) -> str:
        m = self.model
        lines = ["calibrated error model:"]
        for cls in ("NS", "LD"):
            lines.append(
                f"  SampleCF[{cls}]: bias={m.samplecf_bias[cls]:+.4f}·(-ln f)"
                f", std={m.samplecf_std[cls]:.4f}·(-ln f)"
            )
            lines.append(
                f"  ColExt[{cls}]:   bias={m.colext_bias[cls]:+.4f}·a, "
                f"std={m.colext_std[cls]:.4f}·a"
            )
        lines.append(
            f"  ColSet: bias={m.colset_bias['NS']:+.5f}, "
            f"std={m.colset_std['NS']:.5f}"
        )
        return "\n".join(lines)


def calibrate_error_model(
    database: Database,
    keysets: Mapping[str, Sequence[Sequence[str]]],
    fractions: Sequence[float] = CALIBRATION_FRACTIONS,
    min_sample_rows: int = 50,
) -> CalibrationReport:
    """Measure estimation errors on ``database`` and fit an ErrorModel.

    Args:
        database: the database to calibrate on.
        keysets: per-table key-column lists defining the index
            population (composites of length >= 2 also feed the
            deduction fits).
        fractions: SampleCF sampling fractions to measure at.
        min_sample_rows: sample-size floor for the internal manager.

    Returns:
        A :class:`CalibrationReport`; use ``report.model`` as the
        ``error_model`` argument of :class:`~repro.sizeest.SizeEstimator`.
    """
    if not keysets:
        raise SizeEstimationError("calibration needs a non-empty keyset map")
    lab = ErrorLab(database, min_sample_rows)
    population = [
        IndexDef(table, tuple(cols), kind=IndexKind.SECONDARY, method=method)
        for table, keys in keysets.items()
        for cols in keys
        for method in (CompressionMethod.ROW, CompressionMethod.PAGE)
    ]
    samplecf = lab.samplecf_errors(population, fractions)
    colext, colset = lab.deduction_errors(population)

    # Fit SampleCF statistics to c * (-ln f), ColExt ones to c * a.
    samplecf_bias: dict[str, float] = {}
    samplecf_std: dict[str, float] = {}
    colext_bias: dict[str, float] = {}
    colext_std: dict[str, float] = {}
    for cls in ("NS", "LD"):
        samplecf_bias[cls], std = fit_errors(
            (-math.log(f), samplecf.get((cls, f), [])) for f in fractions
        )
        samplecf_std[cls] = max(1e-4, std)
        colext_bias[cls], std = fit_errors(
            (float(a), errors)
            for (c, a), errors in sorted(colext.items()) if c == cls
        )
        colext_std[cls] = max(1e-4, std)

    cs_bias, cs_std = error_stats(colset)
    model = ErrorModel(
        samplecf_bias=samplecf_bias,
        samplecf_std=samplecf_std,
        colset_bias={"NS": cs_bias, "LD": cs_bias},
        colset_std={"NS": max(1e-5, cs_std), "LD": max(1e-5, cs_std)},
        colext_bias=colext_bias,
        colext_std=colext_std,
    )
    return CalibrationReport(
        model=model,
        samplecf_errors=samplecf,
        colext_errors=colext,
        colset_errors=colset,
    )
