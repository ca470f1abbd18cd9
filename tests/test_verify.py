"""Slope fitting and convergence report plumbing."""

import numpy as np
import pytest

from infsup_lab import stokes, verify
from infsup_lab.linalg import SingularMatrix
from infsup_lab.mesh import unit_square_mesh


def test_fit_slope_two_points():
    assert verify.fit_slope([1.0, 0.5], [4.0, 1.0]) == pytest.approx(2.0)


def test_fit_slope_exact_power_law():
    assert verify.fit_slope([1, 0.5, 0.25], [4, 1, 0.25]) == pytest.approx(2.0, abs=1e-12)


def test_fit_slope_degenerate():
    with pytest.raises(verify.DegenerateFit):
        verify.fit_slope([1.0], [1.0])
    with pytest.raises(verify.DegenerateFit):
        verify.fit_slope([1.0, 0.5], [1.0, 0.0])
    with pytest.raises(verify.DegenerateFit):
        verify.fit_slope([1.0, -0.5], [1.0, 1.0])


def test_fit_slope_noisy_quadratic():
    rng = np.random.default_rng(11)
    hs = 2.0 ** -np.arange(6)
    errs = hs ** 2 * (1.0 + 0.05 * rng.uniform(-1, 1, size=6))
    assert 1.85 <= verify.fit_slope(hs, errs) <= 2.15


def test_fit_slope_scale_invariant():
    rng = np.random.default_rng(12)
    hs = 2.0 ** -np.arange(5)
    errs = hs ** 1.5 * (1.0 + 0.1 * rng.uniform(-1, 1, size=5))
    s1 = verify.fit_slope(hs, errs)
    s2 = verify.fit_slope(hs, 1e6 * errs)
    assert abs(s1 - s2) <= 1e-12


def test_fit_slope_matches_polyfit():
    rng = np.random.default_rng(13)
    for _ in range(20):
        size = rng.integers(2, 8)
        hs = np.sort(rng.uniform(1e-3, 1.0, size=size))
        errs = rng.uniform(0.5, 2.0) * hs ** rng.uniform(0.5, 4.0) \
            * np.exp(0.1 * rng.standard_normal(size))
        expected = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert verify.fit_slope(hs, errs) == pytest.approx(expected, rel=1e-12)


def test_fit_slope_needs_two_distinct_h():
    with pytest.raises(verify.DegenerateFit):
        verify.fit_slope([0.5, 0.5, 0.5], [1.0, 2.0, 3.0])


def test_run_convergence_fits_without_lapack_least_squares(monkeypatch):
    def no_lstsq(*args, **kwargs):
        raise AssertionError("slope fit called LAPACK least squares")

    # polyfit holds its own reference to lstsq, so both are replaced
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    monkeypatch.setattr(np, "polyfit", no_lstsq)
    report = verify.run_convergence(
        lambda mesh: {"err": 3.0 * mesh.h ** 2}, [4, 8, 16],
        method="synthetic", problem="powerlaw")
    assert report.slopes["err"] == pytest.approx(2.0, abs=1e-12)


def test_run_convergence_synthetic():
    report = verify.run_convergence(
        lambda mesh: {"err": 3.0 * mesh.h ** 2, "flat": 7.0},
        [4, 8, 16], method="synthetic", problem="powerlaw")
    assert report.slopes["err"] == pytest.approx(2.0, abs=1e-10)
    assert report.slopes["flat"] == pytest.approx(0.0, abs=1e-12)
    hs = [lv.h for lv in report.levels]
    # sorted by decreasing h, each level's h read from its mesh
    assert hs == [unit_square_mesh(n).h for n in (4, 8, 16)]


def test_run_convergence_too_few_levels_no_slopes():
    report = verify.run_convergence(lambda mesh: {"err": mesh.h},
                                    [4, 8], method="m", problem="p")
    assert report.slopes == {}
    assert len(report.levels) == 2


def test_run_convergence_records_failures():
    def builder(mesh):
        if mesh.h == np.sqrt(2.0) / 8:
            raise SingularMatrix("forced")
        return {"err": mesh.h ** 2}

    report = verify.run_convergence(builder, [4, 8, 16, 32], method="m",
                                    problem="p")
    failed = [lv for lv in report.levels if lv.failure]
    assert len(failed) == 1 and "SingularMatrix" in failed[0].failure
    # three healthy levels remain, enough for a fit
    assert report.slopes["err"] == pytest.approx(2.0, abs=1e-10)

    short = verify.run_convergence(builder, [4, 8, 16], method="m",
                                   problem="p")
    assert short.slopes == {}


def test_run_convergence_stokes_integration():
    exact = stokes.manufactured_problem()

    def builder(mesh):
        sol = stokes.run(stokes.method_from_name("brezzi-pitkaranta"), mesh,
                         exact.f)
        u_l2, u_h1, p_l2 = stokes.errors(sol, exact)
        return {"err_u_l2": u_l2, "err_u_h1": u_h1, "err_p_l2": p_l2}

    report = verify.run_convergence(builder, [4, 8, 16],
                                    method="brezzi-pitkaranta", problem="mms")
    assert report.slopes["err_u_h1"] >= 0.8
    assert report.slopes["err_u_l2"] >= 1.7


def test_report_serialization_views():
    report = verify.run_convergence(
        lambda mesh: {"e1": mesh.h, "e2": 2.0 * mesh.h}, [2, 4, 8],
        method="m", problem="p")
    d = verify.report_dict(report)
    assert d["method"] == "m" and len(d["levels"]) == 3
    assert set(d["slopes"]) == {"e1", "e2"}
    header, rows = verify.report_rows(report)
    assert header == ["level", "h", "e1", "e2"]
    assert len(rows) == 3 and rows[0][0] == 0
    assert rows[0][1] == pytest.approx(np.sqrt(2) / 2)


def test_report_rows_with_failure_blank_cells():
    def builder(mesh):
        if mesh.h == np.sqrt(2.0) / 4:
            raise ValueError("boom")
        return {"err": mesh.h}

    report = verify.run_convergence(builder, [2, 4, 8], method="m",
                                    problem="p")
    header, rows = verify.report_rows(report)
    assert rows[1][2] == ""        # failed level leaves the column empty
    assert verify.report_dict(report)["levels"][1]["failure"].startswith("ValueError")
