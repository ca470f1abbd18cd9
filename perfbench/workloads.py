"""The benchmark's workloads: fixed lists of infsup-lab invocations, each
with reference values recorded from the CLI's output.

References are compared at the digits the CLI prints: beta to 6 decimals,
slopes to 3, error norms and locking norms to 7 significant digits (the
``%.6e`` of the text output); kernel dimensions, solve flags and statuses
exactly.  Every invocation also writes ``--json``; one without a JSON
document counts as failed.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    argv: tuple
    expect: tuple               # (path, format or None, expected value)
    csv: bool = False           # also write --csv and check it


def _infsup(pair, n, beta, kernel_dim):
    return Case(("infsup", "--pair", pair, "--n", str(n), "--mode", "weighted"),
                (("status", None, "ok"),
                 ("results.beta", ".6f", beta),
                 ("results.kernel_dim_pressure", None, kernel_dim)))


_ERRORS = ("err_u_l2", "err_u_h1", "err_p_l2")


def _convergence(method, slopes, levels, csv=False):
    expect = [("status", None, "ok")]
    expect += [(f"results.slopes.{k}", ".3f", v) for k, v in slopes.items()]
    for i, errs in enumerate(levels):
        expect += [(f"results.levels.{i}.errors.{k}", ".6e", v)
                   for k, v in zip(_ERRORS, errs)]
    return Case(("convergence", "--method", method, "--ns", "8,16,32"),
                tuple(expect), csv)


def _locking(method, rows, extra=()):
    lambdas = ",".join(lam for lam, _, _ in rows)
    expect = [("status", None, "ok")]
    for i, (_, u_h1, p_h1) in enumerate(rows):
        expect += [(f"results.reports.{i}.u_h1_norm", ".6e", u_h1),
                   (f"results.reports.{i}.p_h1_norm", ".6e", p_h1),
                   (f"results.reports.{i}.solve_ok", None, True)]
    return Case(("locking", "--method", method, "--n", "16", *extra,
                 "--lambdas", lambdas), tuple(expect))


def _weakbc(method, err_l2, err_h1):
    return Case(("weakbc", "--method", method, "--n", "32"),
                (("status", None, "ok"),
                 ("results.err_l2", ".6e", err_l2),
                 ("results.err_h1", ".6e", err_h1)))


# beta_h of the three pairs, weighted norms.  n stays at 12: the Python
# Jacobi SVD makes n=16 cost 20-30 s per pair.
STABILITY = (
    _infsup("th", 8, "0.366191", 1),
    _infsup("th", 12, "0.365765", 1),
    _infsup("mini", 8, "0.314316", 1),
    _infsup("mini", 12, "0.313798", 1),
    _infsup("p1p1", 8, "0.071672", 8),
    _infsup("p1p1", 12, "0.052232", 8),
)

# One large dense saddle solve (Taylor-Hood at n=32, N=9540), a stabilized
# equal-order study, and the singular verdict of the unstabilized pair.
CONVERGENCE = (
    _convergence("taylor-hood",
                 {"err_p_l2": "2.109", "err_u_h1": "1.975", "err_u_l2": "2.991"},
                 (("3.363163e-03", "1.968794e-01", "3.019042e-02"),
                  ("4.240118e-04", "5.056403e-02", "6.682715e-03"),
                  ("5.322165e-05", "1.273447e-02", "1.621697e-03")),
                 csv=True),
    _convergence("p1p1-loss",
                 {"err_p_l2": "1.726", "err_u_h1": "0.984", "err_u_l2": "1.951"},
                 (("6.707415e-02", "1.393335e+00", "2.751783e-01"),
                  ("1.789340e-02", "7.098607e-01", "9.418368e-02"),
                  ("4.484502e-03", "3.559380e-01", "2.515958e-02"))),
    Case(("stokes", "--method", "p1p1-plain", "--n", "16"),
         (("status", None, "singular"),)),
)

# Penalty sweeps (many mid-size dense solves, locking blocks rebuilt per
# lambda) and the weak-boundary methods (C_i calibration through sym_eig).
SWEEPS = (
    _locking("plain", (("1e2", "5.562145e-02", "3.803519e-03"),
                       ("1e3", "9.144644e-03", "4.506430e-04"),
                       ("1e4", "1.177395e-03", "4.312541e-05"),
                       ("1e5", "1.245107e-04", "4.230628e-06"),
                       ("1e6", "1.253292e-05", "4.220395e-07"))),
    _locking("corrected", (("1e2", "6.977918e-02", "4.682249e-02"),
                           ("1e3", "2.119488e-02", "1.373971e-02"),
                           ("1e4", "1.641087e-02", "4.832075e-03"),
                           ("1e5", "1.632455e-02", "3.645287e-03"),
                           ("1e6", "1.632867e-02", "3.519889e-03")),
             extra=("--w-mass", "consistent")),
    _locking("multiplier", (("1e2", "5.562145e-02", "3.803519e-03"),
                            ("1e4", "1.177395e-03", "4.312541e-05"),
                            ("1e6", "1.253292e-05", "4.220395e-07"))),
    _weakbc("nitsche", "9.828032e-04", "1.091707e-01"),
    _weakbc("bh", "9.635083e-04", "1.098060e-01"),
    _weakbc("multiplier", "1.009742e-03", "1.090127e-01"),
)

WORKLOADS = {"stability": STABILITY, "convergence": CONVERGENCE,
             "sweeps": SWEEPS}


def _lookup(doc, path):
    for part in path.split("."):
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc


def check_json(case: Case, doc: dict) -> list:
    """Mismatches between a JSON document and the case's references."""
    bad = []
    for path, fmt, want in case.expect:
        try:
            got = _lookup(doc, path)
        except (KeyError, IndexError, TypeError):
            bad.append(f"{path}: missing")
            continue
        text = format(got, fmt) if fmt and isinstance(got, (int, float)) else got
        if text != want or (fmt is None and type(got) is not type(want)):
            bad.append(f"{path}: {text!r} != {want!r}")
    return bad


def check_csv(doc: dict, rows: list) -> list:
    """The convergence CSV: header row plus one row per level, matching
    the JSON document's errors at the printed digits."""
    levels = doc["results"]["levels"]
    if not rows or rows[0] != ["level", "h", *_ERRORS]:
        return [f"csv header {rows[:1]!r}"]
    if len(rows) != 1 + len(levels):
        return [f"csv has {len(rows) - 1} rows for {len(levels)} levels"]
    bad = []
    for row, level in zip(rows[1:], levels):
        for text, name in zip(row[2:], _ERRORS):
            if format(float(text), ".6e") != format(level["errors"][name], ".6e"):
                bad.append(f"csv {name}: {text} != {level['errors'][name]}")
    return bad
