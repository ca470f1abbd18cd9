"""CLI surface: grammar, exit codes, JSON/CSV/VTK serialization."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import infsup_lab
from infsup_lab import assembly, cli, locking, selftest, weakbc
from infsup_lab.linalg import SingularMatrix

SUBCOMMANDS = ("stokes", "convergence", "infsup", "locking", "weakbc",
               "selftest")


def run(args, tmp_path=None, json_out=False):
    """main() plus the parsed JSON document when requested."""
    if json_out:
        path = tmp_path / "out.json"
        code = cli.main(list(args) + ["--json", str(path)])
        return code, json.loads(path.read_text())
    return cli.main(list(args))


# --- grammar and exit codes -----------------------------------------------

#: options with a default, per subcommand
DEFAULTED_OPTIONS = {"stokes": 2, "convergence": 2, "infsup": 2, "locking": 5,
                     "weakbc": 4, "selftest": 0}

#: the choices of ``infsup --mode``
INFSUP_MODES = ["weighted"]


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_help_mentions_defaults(sub, capsys):
    # each default is stated once, and an unset option shows no None
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([sub, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default: None)" not in text
    assert text.count("(default: ") == DEFAULTED_OPTIONS[sub]


def test_no_subcommand_is_usage_error():
    assert cli.main([]) == 2


@pytest.mark.parametrize("argv", [
    ["stokes", "--method", "p3p2"],                      # unknown method
    ["stokes", "--method", "taylor-hood", "--eps", "0.1"],
    ["stokes", "--method", "th", "--n", "0"],
    ["stokes", "--method", "bp", "--eps", "-1"],
    ["convergence", "--method", "th", "--ns", "8,16"],   # needs >= 3
    ["convergence", "--method", "th", "--ns", "8,x,32"],
    ["infsup", "--pair", "p2p2"],
    ["locking", "--lambdas", ""],
    ["locking", "--lambdas", "1e2,-5"],
    ["locking", "--method", "multiplier", "--grad-div", "--lambdas", "0.5"],
    ["weakbc", "--method", "nitsche", "--trace", "p2"],
    ["weakbc", "--method", "bh", "--alpha", "-0.25"],
    # non-finite floats
    ["stokes", "--method", "bp", "--eps", "nan"],
    ["stokes", "--method", "bp", "--eps", "inf"],
    ["convergence", "--method", "bp", "--ns", "4,8,16", "--eps", "nan"],
    ["locking", "--lambdas", "nan"],
    ["locking", "--lambdas", "1e2,inf"],
    ["convergence", "--method", "gls", "--ns", "4,8,16", "--eps", "inf"],
    ["weakbc", "--method", "nitsche", "--gamma", "nan"],
    ["weakbc", "--method", "bh", "--alpha", "inf"],
    # options the method does not read, even at their default values
    ["weakbc", "--method", "multiplier", "--alpha", "0.3"],
    ["weakbc", "--method", "bh", "--gamma", "7"],
    ["weakbc", "--method", "nitsche", "--trace", "p1"],
    ["locking", "--method", "plain", "--w-mass", "lumped"],
    ["locking", "--method", "plain", "--grad-div", "--lambdas", "1e3"],
    ["locking", "--method", "corrected", "--gamma-space", "discontinuous"],
    ["locking", "--method", "multiplier", "--w-mass", "consistent"],
    # fewer than 3 distinct mesh sizes
    ["convergence", "--method", "th", "--ns", "8,8,16"],
    ["convergence", "--method", "th", "--ns", "4,4,4"],
    # the one inf-sup mode is the weighted pencil
    ["infsup", "--pair", "th", "--mode", "euclidean"],
    # every penalty of a sweep is checked, not only the smallest
    ["locking", "--method", "corrected", "--lambdas", "1e2,0"],
    ["locking", "--method", "multiplier", "--grad-div", "--lambdas",
     "1e3,1"],
])
def test_usage_errors_exit_2(argv, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert cli.main(argv + ["--json", str(path)]) == 2
    assert not path.exists()


def test_expected_singular_pair_exits_0(tmp_path):
    code, doc = run(["stokes", "--method", "p1p1-plain", "--n", "4"],
                    tmp_path, json_out=True)
    assert code == 0
    assert doc["status"] == "singular"
    assert "error" in doc["results"]


@pytest.mark.parametrize("argv", [
    ["stokes", "--method", "p1p1-plain", "--n", "1"],
    ["stokes", "--method", "p1p1-loss", "--n", "1"],
    ["stokes", "--method", "bp", "--n", "1"],
    ["locking", "--n", "1"],
    ["locking", "--method", "corrected", "--n", "1"],
    ["convergence", "--method", "bp", "--ns", "1,2,4"],
])
def test_a_mesh_without_free_velocity_dofs_solves(argv, tmp_path):
    # n=1: every velocity dof lies on the boundary, so the velocity block
    # is 0 × 0; u = 0, and the unstabilized pair keeps its verdict
    code, doc = run(argv, tmp_path, json_out=True)
    assert code == 0
    plain = "p1p1-plain" in argv
    assert doc["status"] == ("singular" if plain else "ok")
    results = doc["results"]
    if argv[0] == "locking":
        assert all(r["solve_ok"] and r["u_h1_norm"] == 0.0
                   for r in results["reports"])
    elif argv[0] == "convergence":
        assert len(results["levels"]) == 3 and set(results["slopes"]) == {
            "err_u_l2", "err_u_h1", "err_p_l2"}
    elif not plain:
        assert results["residual_norm"] == 0.0


@pytest.mark.parametrize("n", ["1", "2"])
def test_small_mesh_verdict_is_one_fixed_line(n, tmp_path, capsys):
    # the sparse Schur route: SuperLU's own abort text named its source
    # file and line, with a stray newline (n=1), or read "Factor is
    # exactly singular" (n=2)
    code, doc = run(["stokes", "--method", "p1p1-plain", "--n", n],
                    tmp_path, json_out=True)
    out = capsys.readouterr().out
    assert code == 0 and doc["status"] == "singular"
    assert out.startswith("status: singular (") and out.count("\n") == 1
    for word in ("line", "file"):
        assert word not in out
    # one fixed text at both sizes
    assert doc["results"]["error"] == \
        "Schur complement: exactly singular (SuperLU)"


def test_p0_multiplier_is_singular_by_design(tmp_path):
    code, doc = run(["weakbc", "--method", "multiplier", "--trace", "p0",
                     "--n", "4"], tmp_path, json_out=True)
    assert code == 0
    assert doc["status"] == "singular"
    assert set(doc["results"]) == {"method", "h", "beta", "kernel_dim",
                                   "error"}
    # beta is taken past the kernel, as ``infsup`` reports it
    assert doc["results"]["kernel_dim"] == 1
    assert round(doc["results"]["beta"], 4) == 0.1241


def _no_solve(*args):
    raise AssertionError("weak-bc saddle solve attempted")


@pytest.mark.parametrize("n", ["2", "8", "32", "128"])
def test_p0_multiplier_verdict_is_measured_before_any_solve(
        n, tmp_path, monkeypatch, capsys):
    # the pivot test of the saddle solve let n=128 through as "ok"; the
    # pencil's kernel decides at every n
    monkeypatch.setattr(weakbc, "solve_saddle", _no_solve)
    code, doc = run(["weakbc", "--method", "multiplier", "--trace", "p0",
                     "--n", n], tmp_path, json_out=True)
    assert code == 0 and doc["status"] == "singular"
    assert doc["results"]["kernel_dim"] == 1
    assert capsys.readouterr().out == \
        "status: singular (multiplier inf-sup kernel of dimension 1)\n"


@pytest.mark.parametrize("method, route", [
    ("th", "schur-pcg"), ("dw", "schur-pcg"), ("p1p1-plain", "schur-lu")])
def test_stokes_reports_its_solver_route(method, route, tmp_path):
    code, doc = run(["stokes", "--method", method, "--n", "4"], tmp_path,
                    json_out=True)
    assert code == 0
    assert doc["results"]["route"] == route
    iterations = doc["results"]["cg_iterations"]
    assert iterations is None if route == "schur-lu" else iterations > 0


@pytest.mark.parametrize("method", ["dw", "th"])
def test_stokes_reports_pressure_diagnostics(method, tmp_path):
    code, doc = run(["stokes", "--method", method, "--n", "8"], tmp_path,
                    json_out=True)
    assert code == 0
    res = doc["results"]
    assert math.isfinite(res["pressure_oscillation"])
    assert res["pressure_oscillation"] > 0.0
    assert math.isfinite(res["boundary_pressure_flux"])
    assert res["boundary_pressure_flux"] > 0.0
    if method == "th":
        # the exact p = sin(2 pi x) sin(2 pi y) has perimeter-mean |dp/dn| = 4
        assert res["boundary_pressure_flux"] == pytest.approx(4.0, rel=0.1)


def test_p0_pressure_reports_null_boundary_flux(tmp_path):
    code, doc = run(["stokes", "--method", "p2p0", "--n", "4"], tmp_path,
                    json_out=True)
    assert code == 0
    assert doc["results"]["boundary_pressure_flux"] is None
    assert doc["results"]["pressure_oscillation"] > 0.0


def test_singular_verdict_carries_no_pressure_diagnostics(tmp_path):
    code, doc = run(["stokes", "--method", "p1p1-plain", "--n", "4"],
                    tmp_path, json_out=True)
    assert code == 0
    assert set(doc["results"]) == {"h", "route", "cg_iterations", "error"}


@pytest.mark.parametrize("mode", INFSUP_MODES)
@pytest.mark.parametrize("pair", ["p1p1", "p1p0", "mini", "th", "p2p0"])
def test_infsup_reports_constant_pressure_angle(pair, mode, tmp_path):
    code, doc = run(["infsup", "--pair", pair, "--n", "4", "--mode", mode],
                    tmp_path, json_out=True)
    assert code == 0
    assert 0.0 <= doc["results"]["constant_pressure_angle"] <= 1e-8


def test_pressure_cg_failure_exits_1(tmp_path, monkeypatch):
    import scipy.sparse.linalg
    monkeypatch.setattr(scipy.sparse.linalg, "cg",
                        lambda op, rhs, **kw: (np.zeros_like(rhs), 1))
    code, doc = run(["stokes", "--method", "th", "--n", "4"], tmp_path,
                    json_out=True)
    assert code == 1
    assert doc["status"] == "fail"
    assert "pressure CG" in doc["results"]["error"]


def test_taylor_hood_convergence_past_n_32(tmp_path):
    code, doc = run(["convergence", "--method", "th", "--ns", "16,32,64"],
                    tmp_path, json_out=True)
    assert code == 0
    slopes = doc["results"]["slopes"]
    assert slopes["err_u_l2"] == pytest.approx(3.0, abs=0.05)
    assert slopes["err_u_h1"] == pytest.approx(2.0, abs=0.05)
    assert slopes["err_p_l2"] == pytest.approx(2.0, abs=0.05)


def test_convergence_of_singular_pair_is_singular(tmp_path, capsys):
    code, doc = run(["convergence", "--method", "p1p1-plain",
                     "--ns", "2,3,4"], tmp_path, json_out=True)
    assert code == 0
    assert doc["status"] == "singular"
    levels = doc["results"]["levels"]
    assert len(levels) == 3
    assert all(lv["failure"].startswith("SingularMatrix:") for lv in levels)
    assert doc["results"]["slopes"] == {}
    assert doc["results"]["error"] == levels[0]["failure"]
    assert "status: singular" in capsys.readouterr().out


def test_convergence_without_slopes_fails(tmp_path, monkeypatch):
    # one failed level leaves two: too few for a slope, so no "ok"
    real_run = cli.stokes.run

    def run_failing_at_4(method, mesh, f):
        if mesh.h == math.sqrt(2.0) / 4:
            raise SingularMatrix("synthetic level breakdown")
        return real_run(method, mesh, f)

    monkeypatch.setattr(cli.stokes, "run", run_failing_at_4)
    code, doc = run(["convergence", "--method", "gls", "--ns", "2,4,8"],
                    tmp_path, json_out=True)
    assert code == 1
    assert doc["status"] == "fail"
    assert doc["results"]["slopes"] == {}
    failures = [lv.get("failure") for lv in doc["results"]["levels"]]
    assert failures == [None, "SingularMatrix: synthetic level breakdown",
                        None]


def test_other_weakbc_singularity_exits_1(tmp_path, monkeypatch):
    def singular_solve(*args):
        raise SingularMatrix("synthetic weak-bc breakdown")
    monkeypatch.setattr(weakbc, "solve", singular_solve)
    code, doc = run(["weakbc", "--method", "bh", "--trace", "p0", "--n", "4"],
                    tmp_path, json_out=True)
    assert code == 1
    assert doc["status"] == "fail"


def test_unexpected_numerical_failure_exits_1(tmp_path, monkeypatch, capsys):
    def blow_up(config):
        raise SingularMatrix("synthetic breakdown")
    monkeypatch.setitem(cli._RUNNERS, "infsup", blow_up)
    code, doc = run(["infsup", "--pair", "th", "--n", "2"],
                    tmp_path, json_out=True)
    assert code == 1
    assert doc["status"] == "fail"
    assert "synthetic breakdown" in capsys.readouterr().err


@pytest.mark.parametrize("mode", INFSUP_MODES)
def test_eigensolver_failure_exits_1(mode, tmp_path, monkeypatch, capsys):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic eigh breakdown")
    monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
    code, doc = run(["infsup", "--pair", "th", "--n", "2", "--mode", mode],
                    tmp_path, json_out=True)
    assert code == 1
    assert doc["status"] == "fail"
    assert "synthetic eigh breakdown" in capsys.readouterr().err


def _python(*argv):
    """A fresh interpreter run with this checkout's package on the path."""
    src = os.path.dirname(os.path.dirname(infsup_lab.__file__))
    return subprocess.run([sys.executable, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_runs_cli():
    proc = _python("-m", "infsup_lab", "infsup", "--pair", "th", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    assert "beta=" in proc.stdout


def test_python_dash_m_runs_cli_module():
    proc = _python("-m", "infsup_lab.cli", "infsup", "--pair", "th",
                   "--n", "2")
    assert proc.returncode == 0, proc.stderr
    assert "beta=" in proc.stdout


_DEFERRED = ("infsup_lab.locking", "infsup_lab.weakbc", "infsup_lab.verify",
             "infsup_lab.selftest")


@pytest.mark.parametrize("argv, unloaded", [
    # scipy.sparse.linalg loads the SuperLU, ARPACK and PROPACK extensions;
    # only a saddle solve may pay for them
    (None, (*_DEFERRED, "scipy.sparse.linalg")),
    (["infsup", "--pair", "th", "--n", "2"], _DEFERRED),
    (["locking", "--n", "2", "--lambdas", "1e2"],
     ("infsup_lab.weakbc", "infsup_lab.verify")),
    (["weakbc", "--method", "nitsche", "--n", "2"],
     ("infsup_lab.locking", "infsup_lab.verify")),
], ids=["import", "infsup", "locking", "weakbc"])
def test_run_imports_only_its_subcommands_modules(argv, unloaded):
    # a module that one subcommand alone reads is imported when that
    # subcommand is dispatched, not with the front end
    proc = _python("-c", "import sys, infsup_lab.cli; "
                   f"argv = {argv!r}; "
                   "code = 0 if argv is None else infsup_lab.cli.main(argv); "
                   f"print(code, sorted(set({unloaded!r}) & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


# --- JSON ------------------------------------------------------------------

def test_json_document_shape(tmp_path):
    code, doc = run(["infsup", "--pair", "th", "--n", "2"],
                    tmp_path, json_out=True)
    assert code == 0
    assert set(doc) == {"config", "results", "status", "version", "timestamp"}
    assert doc["status"] == "ok"
    assert doc["version"]
    assert doc["config"]["subcommand"] == "infsup"
    assert doc["config"]["pair"] == "taylor-hood"       # alias resolved
    assert doc["results"]["beta"] > 0.3
    assert len(doc["results"]["sigma"]) == doc["results"]["numerical_rank"] \
        + doc["results"]["kernel_dim_pressure"]


@pytest.mark.parametrize("argv, config", [
    (["stokes", "--method", "bp", "--n", "2", "--eps", "0.1"],
     {"subcommand": "stokes", "method": "bp", "n": 2, "eps": 0.1}),
    (["convergence", "--method", "gls", "--ns", "2,3,4"],
     {"subcommand": "convergence", "method": "gls", "ns": [2, 3, 4]}),
    (["infsup", "--pair", "th", "--n", "2", "--mode", "weighted"],
     {"subcommand": "infsup", "pair": "taylor-hood", "n": 2,
      "mode": "weighted"}),
    (["locking", "--n", "3", "--lambdas", "1e2,1e4"],
     {"subcommand": "locking", "method": "plain", "lambdas": [1e2, 1e4],
      "n": 3}),
    (["weakbc", "--method", "nitsche", "--n", "2", "--gamma", "10"],
     {"subcommand": "weakbc", "method": "nitsche", "n": 2, "gamma": 10.0}),
    (["selftest"], {"subcommand": "selftest"}),
], ids=SUBCOMMANDS)
def test_json_config_echoes_the_arguments(argv, config, tmp_path,
                                          monkeypatch):
    # unset options are left out; the output paths are echoed as given
    monkeypatch.setattr(selftest, "run_all", lambda: [])
    code, doc = run(argv, tmp_path, json_out=True)
    assert code == 0
    assert doc["config"] == {**config, "json_path": str(tmp_path / "out.json")}


def _recording(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls."""
    real, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("argv, module", [
    (["stokes", "--method", "th", "--n", "2"], cli.stokes),
    (["stokes", "--method", "bp", "--n", "2", "--eps", "0.1"], cli.stokes),
    (["weakbc", "--method", "nitsche", "--n", "2"], weakbc),
    (["weakbc", "--method", "bh", "--trace", "p0", "--n", "2"], weakbc),
], ids=["stokes-th", "stokes-bp", "weakbc-nitsche", "weakbc-bh-p0"])
def test_each_run_resolves_its_method_once(argv, module, monkeypatch):
    calls = _recording(monkeypatch, module, "method_from_name")
    assert cli.main(argv) == 0
    assert len(calls) == 1


def test_multiplier_run_assembles_its_system_once(monkeypatch):
    # beta_h is measured on the blocks of the system that is solved
    calls = _recording(monkeypatch, weakbc, "stiffness")
    assert cli.main(["weakbc", "--method", "multiplier", "--n", "4"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("lambdas", ["1e2", "1e4,1e2,1e6"])
def test_locking_sweep_builds_one_config_per_penalty(lambdas, monkeypatch):
    # the config carries every penalty of the sweep: one per run
    calls = _recording(monkeypatch, locking.LockingConfig, "__post_init__")
    assert cli.main(["locking", "--n", "3", "--lambdas", lambdas]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("mode", INFSUP_MODES)
def test_infsup_one_cell_mesh_has_no_free_velocity(mode, tmp_path):
    # --n 1 leaves P1 velocity no free dof: every pressure is in the kernel
    code, doc = run(["infsup", "--pair", "p1p1", "--n", "1", "--mode", mode],
                    tmp_path, json_out=True)
    assert code == 0
    assert doc["results"]["numerical_rank"] == 0
    assert doc["results"]["kernel_dim_pressure"] == 4


def test_json_floats_carry_17_significant_digits(tmp_path):
    path = tmp_path / "out.json"
    cli.main(["stokes", "--method", "gls", "--n", "2", "--json", str(path)])
    text = path.read_text()
    assert format(math.sqrt(2.0) / 2.0, ".17g") in text   # the h entry


def test_json_deterministic_apart_from_timestamp(tmp_path):
    path = tmp_path / "out.json"
    argv = ["infsup", "--pair", "p1p1", "--n", "2", "--json", str(path)]
    cli.main(argv)
    first = path.read_text()
    cli.main(argv)
    second = path.read_text()
    strip = lambda t: [l for l in t.splitlines() if "timestamp" not in l]
    assert strip(first) == strip(second)


def test_nan_serializes_as_null(tmp_path):
    # a singular locking run reports NaN norms; JSON must stay parseable
    code, doc = run(["locking", "--method", "multiplier", "--gamma-space",
                     "continuous", "--lambdas", "1e6", "--n", "4"],
                    tmp_path, json_out=True)
    assert code == 0
    assert doc["status"] == "singular"
    row = doc["results"]["reports"][0]
    assert row["solve_ok"] is False
    assert row["u_h1_norm"] is None


# --- CSV -------------------------------------------------------------------

def test_singular_locking_sweep_writes_parseable_csv_and_no_vtk(tmp_path):
    # NaN norms of a singular penalty are written as nan, which float()
    # reads; with no solved penalty there is no field to export
    path, vtk = tmp_path / "sweep.csv", tmp_path / "lock.vtk"
    code, doc = run(["locking", "--method", "multiplier", "--gamma-space",
                     "continuous", "--n", "4", "--lambdas", "1e2,1e4",
                     "--csv", str(path), "--vtk", str(vtk)], tmp_path,
                    json_out=True)
    assert code == 0 and doc["status"] == "singular"
    assert not vtk.exists()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,u_h1_norm,p_h1_norm,solve_ok"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [1e2, 1e4]
    for row in rows:
        assert all(math.isnan(float(v)) for v in row[1:3])
        assert row[3] == "False"


@pytest.mark.parametrize("argv", [
    ["stokes", "--method", "p1p1-plain", "--n", "4"],
    ["weakbc", "--method", "multiplier", "--trace", "p0", "--n", "4"],
], ids=["stokes", "weakbc"])
def test_singular_run_writes_no_csv_or_vtk(argv, tmp_path):
    csv_path, vtk_path = tmp_path / "out.csv", tmp_path / "out.vtk"
    code, doc = run(argv + ["--csv", str(csv_path), "--vtk", str(vtk_path)],
                    tmp_path, json_out=True)
    assert code == 0 and doc["status"] == "singular"
    assert not csv_path.exists() and not vtk_path.exists()


def test_stokes_csv_header_and_row(tmp_path):
    path = tmp_path / "errs.csv"
    assert cli.main(["stokes", "--method", "p1p1-loss", "--n", "4",
                     "--csv", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "h,err_u_l2,err_u_h1,err_p_l2"
    assert len(lines) == 2
    h = float(lines[1].split(",")[0])
    assert abs(h - math.sqrt(2.0) / 4.0) < 1e-15


def test_convergence_csv_levels(tmp_path):
    path = tmp_path / "conv.csv"
    assert cli.main(["convergence", "--method", "gls", "--ns", "2,4,8",
                     "--csv", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "level,h,err_u_l2,err_u_h1,err_p_l2"
    assert len(lines) == 4
    hs = [float(l.split(",")[1]) for l in lines[1:]]
    assert hs == sorted(hs, reverse=True)


def test_locking_sweep_cardinality(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, doc = run(["locking", "--method", "plain",
                     "--lambdas", "1e2,1e4,1e6", "--n", "4",
                     "--csv", str(path)], tmp_path, json_out=True)
    assert code == 0
    assert len(doc["results"]["reports"]) == 3
    assert len(path.read_text().strip().splitlines()) == 4
    assert len([l for l in capsys.readouterr().out.splitlines()
                if l.startswith("lambda=")]) == 3


def test_large_lambda_multiplier_is_not_singular(tmp_path):
    # the multiplier form with discontinuous gamma must reproduce plain;
    # its -M_gamma/lambda pivots are tiny against the stiffness columns,
    # which a pivot test on the whole matrix took for singularity
    docs = {}
    for method in ("plain", "multiplier"):
        code, docs[method] = run(["locking", "--method", method, "--n", "16",
                                  "--lambdas", "1e10"], tmp_path,
                                 json_out=True)
        assert code == 0
        assert docs[method]["status"] == "ok"
    plain, mult = (docs[m]["results"]["reports"][0]
                   for m in ("plain", "multiplier"))
    assert f"{mult['u_h1_norm']:.6e}" == f"{plain['u_h1_norm']:.6e}" \
        == "1.254222e-09"
    assert mult["residual_norm"] <= 1e-14
    assert plain["residual_norm"] <= 1e-14


# --- VTK -------------------------------------------------------------------

def vtk_sections(text):
    lines = text.splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    return lines


def test_stokes_vtk_nodal_fields(tmp_path):
    path = tmp_path / "f.vtk"
    cli.main(["stokes", "--method", "th", "--n", "2", "--vtk", str(path)])
    lines = vtk_sections(path.read_text())
    assert "POINTS 9 double" in lines
    assert "CELLS 8 32" in lines
    assert lines.count("5") >= 8                    # cell type 5 rows
    assert "POINT_DATA 9" in lines
    assert "SCALARS pressure double 1" in lines     # P1 pressure is nodal
    assert "VECTORS velocity double" in lines
    i = lines.index("VECTORS velocity double")
    assert all(len(l.split()) == 3 for l in lines[i + 1: i + 10])


def test_locking_vtk_reuses_its_blocks(tmp_path, monkeypatch):
    # the export writes the sweep's own fields: one assembly and no
    # second factorization
    blocks = _recording(monkeypatch, locking, "_blocks")
    factors = _recording(monkeypatch, assembly, "sparse_lu")
    path = tmp_path / "lock.vtk"
    for lambdas in ("1e2", "1e2,1e4"):
        counts = []
        for vtk in ([], ["--vtk", str(path)]):
            blocks.clear()
            factors.clear()
            assert cli.main(["locking", "--n", "4", "--lambdas", lambdas,
                             *vtk]) == 0
            assert len(blocks) == 1
            counts.append(len(factors))
        assert counts[0] == counts[1] > 0
        assert "VECTORS u double" in path.read_text()


def vtk_block(lines, header, count):
    """The ``count`` rows of numbers after ``header``, as an array."""
    start = lines.index(header) + 1
    if lines[start] == "LOOKUP_TABLE default":
        start += 1
    return np.array([[float(v) for v in row.split()]
                     for row in lines[start:start + count]])


@pytest.mark.parametrize("w_mass, lambdas, exported", [
    ("consistent", "1e2,1e6", 1e6),
    # the lumped form is singular at n=4, lambda=1e16: the export is the
    # last solved penalty
    ("lumped", "1e2,1e16", 1e2),
], ids=["last", "last-singular"])
def test_locking_vtk_fields_are_the_last_solved_penalty(w_mass, lambdas,
                                                        exported, tmp_path):
    path = tmp_path / "lock.vtk"
    assert cli.main(["locking", "--method", "corrected", "--w-mass", w_mass,
                     "--n", "4", "--lambdas", lambdas,
                     "--vtk", str(path)]) == 0
    config = locking.LockingConfig(lambdas=(exported,), n=4,
                                   method="corrected", w_mass=w_mass)
    direct = locking.solve(locking.build(config, exported))
    lines = path.read_text().splitlines()
    u = vtk_block(lines, "VECTORS u double", 25)
    p = vtk_block(lines, "SCALARS p double 1", 25)
    # u stacks the x then the y components of the 25 nodes
    assert np.array_equal(u, np.column_stack([direct.u[:25], direct.u[25:],
                                              np.zeros(25)]))
    assert np.array_equal(p[:, 0], direct.p)


def test_p0_pressure_lands_in_cell_data(tmp_path):
    path = tmp_path / "f.vtk"
    cli.main(["stokes", "--method", "p2p0", "--n", "2", "--vtk", str(path)])
    lines = vtk_sections(path.read_text())
    assert "CELL_DATA 8" in lines
    idx = lines.index("CELL_DATA 8")
    assert lines[idx + 1] == "SCALARS pressure double 1"


def test_infsup_vtk_exports_worst_mode(tmp_path):
    path = tmp_path / "mode.vtk"
    cli.main(["infsup", "--pair", "p1p0", "--n", "4", "--vtk", str(path)])
    lines = vtk_sections(path.read_text())
    assert "SCALARS pressure_mode double 1" in lines
    assert "CELL_DATA 32" in lines
    start = lines.index("SCALARS pressure_mode double 1") + 2
    mode = np.array([float(v) for v in lines[start:start + 32]])
    assert abs(np.linalg.norm(mode) - 1.0) < 1e-12


def test_weakbc_vtk_and_report(tmp_path):
    vtk = tmp_path / "u.vtk"
    code, doc = run(["weakbc", "--method", "multiplier", "--n", "4",
                     "--vtk", str(vtk)], tmp_path, json_out=True)
    assert code == 0
    res = doc["results"]
    assert res["err_l2"] < 0.1
    assert res["kernel_dim"] == 0
    assert round(res["beta"], 4) == 0.3619
    assert "SCALARS u double 1" in vtk.read_text().splitlines()


@pytest.mark.parametrize("method", ["nitsche", "bh"])
def test_weakbc_report_has_beta_for_multiplier_only(method, tmp_path):
    code, doc = run(["weakbc", "--method", method, "--n", "4"],
                    tmp_path, json_out=True)
    assert code == 0
    assert not {"beta", "kernel_dim"} & set(doc["results"])


def test_stokes_stdout_summary(capsys):
    assert cli.main(["stokes", "--method", "mini", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("h=")
    assert "err_u_h1=" in out
