"""Convergence-rate estimation shared by the solver front ends.

A study runs a builder closure on the mesh of each listed size, records the
mesh's ``h`` and the named errors per level, and fits one least-squares
slope per error series on the log-log points.  Failed levels are kept in
the report (with the failure message) and simply drop out of the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import unit_square_mesh

MIN_LEVELS_FOR_SLOPE = 3


class DegenerateFit(ValueError):
    """Slope requested from fewer than two usable points."""


@dataclass(frozen=True)
class Level:
    h: float
    errors: dict[str, float] = field(default_factory=dict)
    failure: str | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    method: str
    problem: str
    levels: tuple[Level, ...]       # sorted by decreasing h
    slopes: dict[str, float]


def fit_slope(hs, errs) -> float:
    """Ordinary least squares slope of log(err) against log(h): x·y / x·x
    on the centred logs, with no LAPACK call (a first ``np.polyfit`` adds
    1 MB to the resident memory of a run)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if hs.size < 2:
        raise DegenerateFit("slope needs at least two points")
    if np.any(hs <= 0) or np.any(errs <= 0):
        raise DegenerateFit("log-log fit needs positive h and errors")
    if np.all(hs == hs[0]):
        raise DegenerateFit("slope needs two distinct h")
    x, y = np.log(hs), np.log(errs)
    x, y = x - x.mean(), y - y.mean()
    return float(x @ y / (x @ x))


def run_convergence(builder, ns, method: str, problem: str) -> ConvergenceReport:
    """Run ``builder(mesh) -> {name: error}`` on the mesh of each size in
    ``ns``.

    Solver failures are caught per level and recorded; slopes are fitted per
    error name over the successful levels, and omitted entirely when fewer
    than three levels survive.
    """
    levels = []
    for n in sorted(set(int(n) for n in ns)):
        mesh = unit_square_mesh(n)
        try:
            errors = {k: float(v) for k, v in builder(mesh).items()}
        except Exception as exc:    # recorded, not masked: see report
            levels.append(Level(h=mesh.h,
                                failure=f"{type(exc).__name__}: {exc}"))
        else:
            levels.append(Level(h=mesh.h, errors=errors))
    levels.sort(key=lambda lv: -lv.h)

    good = [lv for lv in levels if lv.failure is None]
    slopes: dict[str, float] = {}
    if len(good) >= MIN_LEVELS_FOR_SLOPE:
        names = set(good[0].errors)
        for lv in good[1:]:
            names &= set(lv.errors)
        for name in sorted(names):
            try:
                slopes[name] = fit_slope([lv.h for lv in good],
                                         [lv.errors[name] for lv in good])
            except DegenerateFit:
                pass                # zero/negative series: no slope claimed
    return ConvergenceReport(method=method, problem=problem,
                             levels=tuple(levels), slopes=slopes)


def report_dict(report: ConvergenceReport) -> dict:
    """JSON-ready view of a report."""
    return {
        "method": report.method,
        "problem": report.problem,
        "levels": [
            {"h": lv.h, "errors": dict(lv.errors),
             **({"failure": lv.failure} if lv.failure else {})}
            for lv in report.levels
        ],
        "slopes": dict(report.slopes),
    }


def report_rows(report: ConvergenceReport):
    """(header, rows) for CSV export: level index, h, one error column each
    in order of first appearance, blank where a level has no such error."""
    names = list(dict.fromkeys(k for lv in report.levels for k in lv.errors))
    rows = [[i, lv.h] + [lv.errors.get(k, "") for k in names]
            for i, lv in enumerate(report.levels)]
    return ["level", "h"] + names, rows
