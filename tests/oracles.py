"""Dense test oracles for the package's sparse and in-place routes."""

import numpy as np

from infsup_lab.linalg import _lu_solve_overwrite


def lu_solve(a, b) -> np.ndarray:
    """Dense ``a x = b`` by the package's one dense LU, on a copy of ``a``;
    ``SingularMatrix`` under its pivot contract."""
    return _lu_solve_overwrite(np.array(a, dtype=float, order="F"),
                               np.asarray(b, dtype=float))


def column_scale(m) -> float:
    """The largest column 2-norm of the scipy sparse ``m`` by scipy's sparse
    norm, which builds |m| and |m|² in full: the route that
    ``linalg.column_scale`` replaced."""
    from scipy.sparse.linalg import norm
    return float(norm(m.tocsc(), axis=0).max())
