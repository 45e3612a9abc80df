"""Error-model calibration: re-fit the coefficients of
:class:`~repro.sizeest.error_model.ErrorModel` from measurements on a
concrete database.

The paper ships fitted coefficients (its Tables 2/3) and notes the
framework works for any estimation method "if their errors can be
characterized by parametric distributions with a given bias and
variance".  This module is the library-side fitter: it measures SampleCF
and deduction errors against full-build ground truths over an index
population and returns a calibrated :class:`ErrorModel`, so users can
point the framework at their own data.

This is exactly what the Table 2 / Table 3 experiments run; they share
this implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.catalog.schema import Database
from repro.compression.base import CompressionMethod
from repro.errors import SizeEstimationError
from repro.physical.index_def import IndexDef
from repro.sizeest.error_model import ErrorModel
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
    # Local import: the experiments' ErrorLab already packages exactly
    # the measurement machinery needed here.
    from repro.experiments.samplecf_errors import ErrorLab

    if not keysets:
        raise SizeEstimationError("calibration needs a non-empty keyset map")
    lab = ErrorLab(database)
    lab.manager.min_sample_rows = min_sample_rows

    population: list[IndexDef] = []
    for table, keys in keysets.items():
        for cols in keys:
            for method in (CompressionMethod.ROW, CompressionMethod.PAGE):
                population.append(
                    IndexDef(table, tuple(cols), kind=IndexKind.SECONDARY,
                             method=method)
                )

    # SampleCF errors per (class, fraction).
    samplecf: dict[tuple, list] = {}
    for f in fractions:
        for ix in population:
            cls = "NS" if ix.method is CompressionMethod.ROW else "LD"
            err = lab.samplecf_error(ix, f)
            samplecf.setdefault((cls, f), []).append(err)

    # Deduction errors per (class, a), plus ColSet (NS only).
    colext: dict[tuple, list] = {}
    colset: list[float] = []
    for ix in population:
        if len(ix.key_columns) < 2:
            continue
        cls = "NS" if ix.method is CompressionMethod.ROW else "LD"
        a = len(ix.key_columns)
        colext.setdefault((cls, a), []).append(lab.colext_error(ix))
        if cls == "NS":
            colset.append(lab.colset_error(ix))

    # Fit SampleCF coefficients: statistic = c * (-ln f).
    samplecf_bias: dict[str, float] = {}
    samplecf_std: dict[str, float] = {}
    for cls in ("NS", "LD"):
        xs, bias_ys, std_ys = [], [], []
        for f in fractions:
            errors = samplecf.get((cls, f), [])
            bias, std = error_stats(errors)
            xs.append(-math.log(f))
            bias_ys.append(bias)
            std_ys.append(std)
        samplecf_bias[cls] = fit_through_origin(xs, bias_ys)
        samplecf_std[cls] = max(1e-4, fit_through_origin(xs, std_ys))

    # Fit ColExt coefficients: statistic = c * a.
    colext_bias: dict[str, float] = {}
    colext_std: dict[str, float] = {}
    for cls in ("NS", "LD"):
        xs, bias_ys, std_ys = [], [], []
        for (c, a), errors in sorted(colext.items()):
            if c != cls:
                continue
            bias, std = error_stats(errors)
            xs.append(float(a))
            bias_ys.append(bias)
            std_ys.append(std)
        colext_bias[cls] = fit_through_origin(xs, bias_ys)
        colext_std[cls] = max(1e-4, fit_through_origin(xs, std_ys))

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
