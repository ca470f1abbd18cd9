"""Command-line front end.

One subcommand per experiment family (``stokes``, ``convergence``,
``infsup``, ``locking``, ``weakbc``) plus ``selftest``, which replays the
acceptance checks and prints a pass/fail table.  Results serialize to
JSON (floats at 17 significant digits), CSV (a header row; ``nan`` for a
non-finite value) and legacy-ASCII VTK of solved fields: a singular
``stokes`` or ``weakbc`` run writes neither, nor ``locking --vtk`` a sweep
with no solved penalty.

The parsed arguments are the run's configuration: each runner builds its
domain object from them once, before any work or output, and the JSON
``"config"`` object echoes them (unset options left out).  A module that
one runner alone reads is imported inside it, so a run loads only its own.

Exit codes: 0 success, including a pair that is singular by design (the
unstabilized equal-order ``p1p1-plain`` in ``stokes`` and ``convergence``,
and a ``weakbc`` multiplier whose measured inf-sup kernel is not empty, as
for ``--trace p0``), reported as ``status: singular``; 1 numerical failure,
a failed selftest check, or a ``convergence`` study that fitted no slope;
2 usage error.
"""

import argparse
import contextlib
import csv
import datetime
import gc
import math
import sys

import numpy as np

from . import __version__, infsup, stokes
from .fespace import ElementKind, FeSpace
from .linalg import NotPositiveDefinite, SingularMatrix
from .mesh import Mesh, unit_square_mesh

_PAIR_ALIASES = {"th": "taylor-hood"}

#: the method-specific options (argparse dests) each method reads; giving
#: one that the chosen method does not read is a usage error
_METHOD_OPTIONS = {
    "weakbc": {"multiplier": ("trace",), "barbosa-hughes": ("alpha", "trace"),
               "bh": ("alpha", "trace"), "nitsche": ("gamma",)},
    "locking": {"plain": (), "corrected": ("w_mass",),
                "multiplier": ("gamma_space", "grad_div_form")},
}


class UsageError(ValueError):
    """Bad arguments; maps to exit code 2."""


@contextlib.contextmanager
def _usage():
    """Report a domain constructor's ``ValueError`` as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _float_text(x: float) -> str:
    if not np.isfinite(x):
        return "null"                   # JSON has no NaN/inf
    return format(float(x), ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (stdlib json hardwires
    shortest-repr float formatting)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  "{k}": {_json_text(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rows = [f"{pad}  {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(obj)
    if obj is None:
        return "null"
    import json
    return json.dumps(str(obj))


def _write_json(path: str, args: argparse.Namespace, results,
                status: str) -> None:
    config = {k: (list(v) if isinstance(v, tuple) else v)
              for k, v in vars(args).items() if v is not None}
    doc = {
        "config": config,
        "results": results,
        "status": status,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                     .isoformat(timespec="seconds"),
    }
    with open(path, "w") as fh:
        fh.write(_json_text(doc) + "\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                             for v in row])


def _write_vtk(path: str, mesh: Mesh, point_scalars=None, point_vectors=None,
               cell_scalars=None) -> None:
    """Legacy ASCII VTK: linear triangles (cell type 5), nodal fields as
    POINT_DATA, elementwise-constant fields as CELL_DATA."""
    out = ["# vtk DataFile Version 3.0", "infsup-lab field export", "ASCII",
           "DATASET UNSTRUCTURED_GRID"]
    n_pts, n_tris = len(mesh.nodes), len(mesh.triangles)
    out.append(f"POINTS {n_pts} double")
    out.extend(f"{_float_text(x)} {_float_text(y)} 0" for x, y in mesh.nodes)
    out.append(f"CELLS {n_tris} {4 * n_tris}")
    out.extend(f"3 {a} {b} {c}" for a, b, c in mesh.triangles)
    out.append(f"CELL_TYPES {n_tris}")
    out.extend("5" for _ in range(n_tris))
    if point_scalars or point_vectors:
        out.append(f"POINT_DATA {n_pts}")
        for name, vals in (point_scalars or {}).items():
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            out.extend(_float_text(v) for v in vals)
        for name, vecs in (point_vectors or {}).items():
            out.append(f"VECTORS {name} double")
            out.extend(f"{_float_text(vx)} {_float_text(vy)} 0"
                       for vx, vy in vecs)
    if cell_scalars:
        out.append(f"CELL_DATA {n_tris}")
        for name, vals in cell_scalars.items():
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            out.extend(_float_text(v) for v in vals)
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def _vertex_values(space: FeSpace, vec: np.ndarray) -> np.ndarray:
    """(n_nodes, components) samples of a coefficient vector; every nodal
    element numbers its vertex dofs first."""
    n_nodes = len(space.mesh.nodes)
    cols = [vec[c * space.n_scalar_dofs: c * space.n_scalar_dofs + n_nodes]
            for c in range(space.components)]
    return np.stack(cols, axis=-1)


def _pressure_data(name: str, kind: ElementKind, vec: np.ndarray,
                   mesh: Mesh) -> dict:
    """``_write_vtk`` keywords for a P0 or P1 pressure field: cell data for
    P0, vertex values otherwise."""
    if kind is ElementKind.P0:
        return {"cell_scalars": {name: vec}}
    return {"point_scalars": {name: vec[:len(mesh.nodes)]}}


# ---------------------------------------------------------------------------
# subcommand runners: return (results, status, stdout lines)
# ---------------------------------------------------------------------------

def _singular(error: str, results: dict):
    """The verdict of a pair that is singular by design: status
    ``singular`` (exit 0), with the message that decided it kept."""
    return ({**results, "error": error}, "singular",
            [f"status: singular ({error})"])


def _run_stokes(args: argparse.Namespace):
    with _usage():
        method = stokes.method_from_name(args.method, args.eps)
    mesh = unit_square_mesh(args.n)
    h = mesh.h
    try:
        solution, errs = stokes.manufactured_run(method, mesh)
    except SingularMatrix as exc:
        if method.name != "p1p1-plain":
            raise                       # singularity only expected there
        return _singular(str(exc), {"h": h, "route": method.route,
                                    "cg_iterations": None})
    results = {"h": h, **errs, "residual_norm": solution.residual_norm,
               "route": method.route, "cg_iterations": solution.cg_iterations,
               "pressure_oscillation": stokes.oscillation_indicator(solution),
               "boundary_pressure_flux": stokes.boundary_pressure_flux(solution)}
    if args.csv_path:
        _write_csv(args.csv_path, ["h", *errs], [[h, *errs.values()]])
    if args.vtk_path:
        vectors = {"velocity": _vertex_values(solution.v_space, solution.u)}
        if method.name == "p1p1-loss":
            vectors["projection"] = _vertex_values(
                solution.v_space, stokes.loss_projection(solution))
        _write_vtk(args.vtk_path, mesh, point_vectors=vectors,
                   **_pressure_data("pressure", solution.p_space.kind,
                                    solution.p, mesh))
    line = "  ".join([f"h={h:.5f}"] + [f"{k}={v:.6e}" for k, v in errs.items()])
    return results, "ok", [line]


def _run_convergence(args: argparse.Namespace):
    from . import verify
    with _usage():
        method = stokes.method_from_name(args.method, args.eps)
    report = verify.run_convergence(
        lambda mesh: stokes.manufactured_run(method, mesh)[1], args.ns,
        method=method.name, problem="stokes-mms")
    results = verify.report_dict(report)
    if args.csv_path:
        header, rows = verify.report_rows(report)
        _write_csv(args.csv_path, header, rows)
    lines = [f"slope[{k}] = {v:.3f}" for k, v in sorted(report.slopes.items())]
    failed = [lv for lv in report.levels if lv.failure]
    lines += [f"h={lv.h:.5f}: {lv.failure}" for lv in failed]
    if report.slopes:                   # "ok" means slopes were fitted
        return results, "ok", lines
    if method.name == "p1p1-plain" and failed and all(
            lv.failure.startswith("SingularMatrix:") for lv in failed):
        results, status, verdict = _singular(failed[0].failure, results)
        return results, status, lines + verdict
    return results, "fail", lines + ["status: fail (no slope fitted)"]


def _run_infsup(args: argparse.Namespace):
    mesh = unit_square_mesh(args.n)
    report = infsup.study(args.pair, mesh)
    results = {
        "pair": args.pair, "mode": args.mode, "h": mesh.h,
        "beta": report.beta, "numerical_rank": report.numerical_rank,
        "kernel_dim_pressure": report.kernel_dim_pressure,
        "constant_pressure_angle": report.constant_pressure_angle,
        "sigma": list(report.sigma),
    }
    if args.csv_path:
        _write_csv(args.csv_path, ["index", "sigma"],
                   list(enumerate(report.sigma)))
    if args.vtk_path:
        _write_vtk(args.vtk_path, mesh, **_pressure_data(
            "pressure_mode", infsup.PAIRS[args.pair][1],
            report.worst_pressure_mode, mesh))
    line = (f"beta={report.beta:.6f}  pair={args.pair}  mode={args.mode}"
            f"  rank={report.numerical_rank}"
            f"  pressure_kernel_dim={report.kernel_dim_pressure}")
    return results, "ok", [line]


def _run_locking(args: argparse.Namespace):
    from . import locking
    options = {"w_mass": args.w_mass, "gamma_space": args.gamma_space,
               "grad_div_form": args.grad_div_form}
    with _usage():
        config = locking.LockingConfig(
            lambdas=args.lambdas, n=args.n, method=args.method,
            **{k: v for k, v in options.items() if v is not None})
    solutions = locking.lambda_sweep(config)
    reports = [s.report for s in solutions]
    rows = [{"lambda": r.lambda_, "u_h1_norm": r.u_h1_norm,
             "p_h1_norm": r.p_h1_norm, "solve_ok": r.solve_ok,
             "residual_norm": r.residual_norm}
            for r in reports]
    results = {"method": config.method, "n": config.n, "reports": rows}
    status = "ok" if all(r.solve_ok for r in reports) else "singular"
    if args.csv_path:
        _write_csv(args.csv_path,
                   ["lambda", "u_h1_norm", "p_h1_norm", "solve_ok"],
                   [[r.lambda_, r.u_h1_norm, r.p_h1_norm, r.solve_ok]
                    for r in reports])
    solved = [s for s in solutions if s.report.solve_ok]
    if args.vtk_path and solved:
        # P1 fields: u holds the x, then the y nodal values
        _write_vtk(args.vtk_path, unit_square_mesh(config.n),
                   point_scalars={"p": solved[-1].p},
                   point_vectors={"u": solved[-1].u.reshape(2, -1).T})
    lines = [f"lambda={r.lambda_:.3e}  u_h1={r.u_h1_norm:.6e}  "
             f"p_h1={r.p_h1_norm:.6e}" + ("" if r.solve_ok else "  (singular)")
             for r in reports]
    return results, status, lines


def _run_weakbc(args: argparse.Namespace):
    from . import weakbc
    options = {"alpha": args.alpha, "gamma": args.gamma, "trace": args.trace}
    with _usage():
        method = weakbc.method_from_name(
            args.method, **{k: v for k, v in options.items() if v is not None})
    mesh, problem = unit_square_mesh(args.n), weakbc.mms_problem()
    system = weakbc.build(method, mesh, problem.f, problem.d)
    results = {"method": method.name, "h": mesh.h}
    try:
        solution = weakbc.solve(method, system)
    except weakbc.MultiplierKernel as exc:
        results.update(beta=exc.report.beta,
                       kernel_dim=exc.report.kernel_dim_pressure)
        return _singular(str(exc), results)
    if solution.report is not None:          # beta_h of the solved blocks
        results.update(beta=solution.report.beta,
                       kernel_dim=solution.report.kernel_dim_pressure)
    err_l2, err_h1 = weakbc.errors(system.spaces[0], solution.u, problem)
    results.update(err_l2=err_l2, err_h1=err_h1,
                   residual_norm=solution.residual_norm)
    if args.csv_path:
        _write_csv(args.csv_path, ["h", "err_l2", "err_h1"],
                   [[mesh.h, err_l2, err_h1]])
    if args.vtk_path:
        _write_vtk(args.vtk_path, mesh, point_scalars={"u": solution.u})
    return results, "ok", [f"err_l2={err_l2:.6e}  err_h1={err_h1:.6e}"]


def _run_selftest(args: argparse.Namespace):
    from . import selftest
    checks = selftest.run_all()
    results = [{"number": c.number, "label": c.label, "passed": c.passed,
                "detail": c.detail} for c in checks]
    lines = [f"{c.number:2d}  {'ok  ' if c.passed else 'FAIL'}  {c.label}"
             f"  [{c.detail}]" for c in checks]
    n_ok = sum(c.passed for c in checks)
    lines.append(f"{n_ok}/{len(checks)} checks passed")
    status = "ok" if n_ok == len(checks) else "fail"
    return results, status, lines


_RUNNERS = {
    "stokes": _run_stokes,
    "convergence": _run_convergence,
    "infsup": _run_infsup,
    "locking": _run_locking,
    "weakbc": _run_weakbc,
    "selftest": _run_selftest,
}


# ---------------------------------------------------------------------------
# argument parsing and validation
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a float: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite float: {text!r}")
    return value


def _float_list(text: str) -> tuple:
    return tuple(_finite_float(tok) for tok in text.split(",") if tok.strip())


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _add_outputs(sub, vtk: bool = True) -> None:
    sub.add_argument("--json", metavar="PATH", dest="json_path",
                     help="write a JSON report")
    sub.add_argument("--csv", metavar="PATH", dest="csv_path",
                     help="write a CSV report")
    if vtk:
        sub.add_argument("--vtk", metavar="PATH", dest="vtk_path",
                         help="write fields as legacy ASCII VTK")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infsup-lab",
        description="Saddle-point stability laboratory on the unit square.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    methods = stokes.method_names() + list(stokes.ALIASES)
    st = sub.add_parser("stokes",
                        help="solve one manufactured Stokes problem and "
                             "report errors")
    st.add_argument("--method", required=True, choices=methods)
    st.add_argument("--n", type=int, default=8,
                    help="mesh cells per side (default: %(default)s)")
    st.add_argument("--eps", type=_finite_float, default=None,
                    help="stabilization weight of the stabilized methods "
                         "(default: 0.05)")
    _add_outputs(st)

    cv = sub.add_parser("convergence",
                        help="manufactured-solution error study over mesh "
                             "levels")
    cv.add_argument("--method", required=True, choices=methods)
    cv.add_argument("--ns", type=_int_list, default=(8, 16, 32),
                    help="comma-separated mesh sizes, at least 3 distinct "
                         "(default: %(default)s)")
    cv.add_argument("--eps", type=_finite_float, default=None,
                    help="stabilization weight of the stabilized methods "
                         "(default: 0.05)")
    _add_outputs(cv, vtk=False)

    inf = sub.add_parser("infsup",
                         help="discrete inf-sup constant of an element pair")
    inf.add_argument("--pair", required=True,
                     choices=list(infsup.PAIRS) + list(_PAIR_ALIASES))
    inf.add_argument("--n", type=int, default=8,
                     help="mesh cells per side (default: %(default)s)")
    inf.add_argument("--mode", choices=("weighted",), default="weighted",
                     help="norms of the constant, |v|_1 and ||q||_0 "
                          "(default: %(default)s)")
    _add_outputs(inf)

    lk = sub.add_parser("locking",
                        help="penalized problem: locking sweep over "
                             "penalty values")
    lk.add_argument("--method", default="plain",
                    choices=("plain", "corrected", "multiplier"),
                    help="penalty scheme (default: %(default)s)")
    lk.add_argument("--lambdas", type=_float_list, default=(1e2, 1e4, 1e6),
                    help="comma-separated penalty values "
                         "(default: %(default)s)")
    lk.add_argument("--n", type=int, default=8,
                    help="mesh cells per side (default: %(default)s)")
    lk.add_argument("--w-mass", dest="w_mass",
                    choices=("lumped", "consistent"),
                    help="corrected projection mass (default: lumped)")
    lk.add_argument("--gamma-space", dest="gamma_space",
                    choices=("discontinuous", "continuous"),
                    help="multiplier space (default: discontinuous)")
    lk.add_argument("--grad-div", dest="grad_div_form", action="store_true",
                    default=None,
                    help="keep one penalty unit inside a(.,.) "
                         "(multiplier method, lambda > 1)")
    _add_outputs(lk)

    wb = sub.add_parser("weakbc",
                        help="weak Dirichlet conditions for a reaction-"
                             "diffusion problem")
    wb.add_argument("--method", required=True,
                    choices=("multiplier", "barbosa-hughes", "bh", "nitsche"))
    wb.add_argument("--n", type=int, default=8,
                    help="mesh cells per side (default: %(default)s)")
    wb.add_argument("--alpha", type=_finite_float,
                    help="flux-multiplier stabilization weight "
                         "(default: 0.25 = 0.5/C_i^2)")
    wb.add_argument("--gamma", type=_finite_float,
                    help="penalty weight (default: 8 = 4*C_i^2)")
    wb.add_argument("--trace", choices=("p1", "p0"),
                    help="multiplier trace space (default: p1)")
    _add_outputs(wb)

    stest = sub.add_parser("selftest",
                           help="replay the acceptance checks and print a "
                                "pass/fail table")
    stest.add_argument("--json", metavar="PATH", dest="json_path",
                       help="write a JSON report")
    return parser


def _validate(args: argparse.Namespace) -> None:
    """Reject the bad parameters that no domain constructor checks and the
    options the method does not read, and resolve the pair alias, before
    any assembly or solve."""
    if getattr(args, "n", None) is not None and args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    reads = _METHOD_OPTIONS.get(args.subcommand, {})
    options = sorted({k for keys in reads.values() for k in keys})
    unread = [k for k in options
              if getattr(args, k) is not None and k not in reads[args.method]]
    if unread:
        raise UsageError(f"{args.subcommand} --method {args.method} does "
                         f"not read {', '.join(unread)}")
    if args.subcommand == "convergence":
        if len(set(args.ns)) < 3:
            raise UsageError("convergence needs at least 3 distinct mesh "
                             "sizes")
        if any(n < 1 for n in args.ns):
            raise UsageError("mesh sizes must be >= 1")
    elif args.subcommand == "infsup":
        args.pair = _PAIR_ALIASES.get(args.pair, args.pair)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    """Run one subcommand; returns the exit code.  What the imports and
    the run leave alive is frozen on return, so the collector never scans
    it again, and process exit skips a last pass over it (about 0.1 s)."""
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:           # argparse --help (0) / usage (2)
            return int(exc.code or 0)

        try:
            _validate(args)
            results, status, lines = _RUNNERS[args.subcommand](args)
        except UsageError as exc:
            print(f"infsup-lab: error: {exc}", file=sys.stderr)
            return 2
        except (SingularMatrix, NotPositiveDefinite,
                np.linalg.LinAlgError) as exc:
            print(f"infsup-lab: numerical failure: {exc}", file=sys.stderr)
            if args.json_path:
                _write_json(args.json_path, args, {"error": str(exc)}, "fail")
            return 1

        for line in lines:
            print(line)
        if args.json_path:
            _write_json(args.json_path, args, results, status)
        return 1 if status == "fail" else 0
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
