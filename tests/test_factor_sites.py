"""Every factorization of the package goes through ``assembly.sparse_lu``
or ``linalg.dense_lu``, and a factor is told apart by its ``route``; every
eigen decomposition goes through ``infsup.pencil``.  Every
triplet array is built in ``assembly._scatter``, the one place that picks
an operator's index type.  The mesh, space and assembly kernels call no
BLAS on dense arrays: in a CLI child, a numpy BLAS-3 call wakes numpy's
own OpenBLAS and raises the peak RSS (0.3-1.1 MB measured), and they
build no table of physical basis gradients.  The volume forms integrate
exactly, through ``fespace.moments``, so none of them names a quadrature
rule or a tabulated basis.

The scan reads the package's AST: a reference is a name, an attribute or
an imported alias, and it is charged to the top-level function or class
that holds it.  Docstrings are strings, so naming a routine in prose is no
reference.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "infsup_lab"


def _top_level_nodes(src: pathlib.Path):
    """(module.owner, node) of each top-level statement; owner is the
    function or class name, or None for other statements."""
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            yield f"{path.stem}.{getattr(node, 'name', None)}", node


def _referenced_names(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in sub.names)
    return names


def _sites(src: pathlib.Path, names: set) -> set:
    """The owners that reference any of ``names``."""
    return {owner for owner, node in _top_level_nodes(src)
            if _referenced_names(node) & names}


def _factor_isinstance_calls(src: pathlib.Path) -> list:
    """Owners of each ``isinstance`` call whose object is named like a
    factor (``lu``, ``*_lu``, ``factor``) or whose class is named like
    one (``*Factor*``, ``SuperLU``)."""
    found = []
    for owner, node in _top_level_nodes(src):
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Call)
                    and getattr(sub.func, "id", None) == "isinstance"
                    and len(sub.args) == 2):
                continue
            obj, cls = (_referenced_names(arg) for arg in sub.args)
            if (any(n == "lu" or n.endswith("_lu") or n == "factor"
                    for n in obj)
                    or any("Factor" in n or n == "SuperLU" for n in cls)):
                found.append(owner)
    return found


#: the modules whose kernels run on dense per-cell arrays
KERNEL_MODULES = ("mesh", "fespace", "assembly")


def _blas_kernel_calls(src: pathlib.Path) -> list:
    """``owner:name`` of each call in ``KERNEL_MODULES`` that would run
    numpy's BLAS: ``tensordot``, ``matmul``, ``dot``, or an ``einsum`` given
    ``optimize`` (which contracts through ``tensordot``)."""
    found = []
    for owner, node in _top_level_nodes(src):
        if owner.split(".")[0] not in KERNEL_MODULES:
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            name = getattr(sub.func, "attr", getattr(sub.func, "id", None))
            if (name in ("tensordot", "matmul", "dot")
                    or (name == "einsum"
                        and any(k.arg == "optimize" for k in sub.keywords))):
                found.append(f"{owner}:{name}")
    return found


def test_kernels_call_no_blas():
    assert _blas_kernel_calls(SRC) == []


def test_no_physical_gradient_table_helper():
    owners = {owner.split(".")[1] for owner, _ in _top_level_nodes(SRC)}
    assert "_phys_gradients" not in owners
    assert _sites(SRC, {"_phys_gradients"}) == set()


def test_kernel_scan_sees_blas_calls_in_kernel_modules_only(tmp_path):
    kernel = ("import numpy as np\n\n\n"
              "def plain(a):\n    return np.einsum('ij,jk->ik', a, a)\n\n\n"
              "def optimized(a):\n"
              "    return np.einsum('ij,jk->ik', a, a, optimize=True)\n\n\n"
              "def blas(a):\n"
              "    return np.tensordot(a, a), np.matmul(a, a), a.dot(a)\n")
    (tmp_path / "assembly.py").write_text(kernel)
    (tmp_path / "linalg.py").write_text(kernel)
    assert _blas_kernel_calls(tmp_path) == [
        "assembly.optimized:einsum", "assembly.blas:tensordot",
        "assembly.blas:matmul", "assembly.blas:dot"]


#: the volume forms, whose reference tensors are slices of
#: ``fespace.moments``: no quadrature rule and no tabulated basis
VOLUME_FORMS = {f"assembly.{name}" for name in (
    "stiffness", "cross_mass", "mass", "divergence", "grad_coupling",
    "_value_gradient")}


def test_volume_forms_take_no_quadrature():
    assert not _sites(SRC, {"quadrature", "tabulate"}) & VOLUME_FORMS


def test_splu_is_named_only_in_sparse_lu():
    assert _sites(SRC, {"splu"}) == {"assembly.sparse_lu"}


def test_eigh_is_named_only_in_the_pencil_routine():
    assert _sites(SRC, {"eigh"}) == {"infsup.pencil"}


def test_coo_triplets_are_built_only_in_scatter():
    assert _sites(SRC, {"coo_array", "coo_matrix"}) == {"assembly._scatter"}


def test_lapack_lu_is_named_only_in_the_dense_route():
    assert _sites(SRC, {"lu_factor", "lu_solve"}) == {"linalg.dense_lu"}


def test_no_isinstance_tests_a_factor():
    assert _factor_isinstance_calls(SRC) == []


def test_scan_sees_calls_and_imports_but_not_docstrings(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""splu and lu_factor are named in this docstring only."""\n'
        "import scipy.linalg\n\n\n"
        "def dense(a):\n    return scipy.linalg.lu_factor(a)\n\n\n"
        "def sparse(a):\n"
        "    from scipy.sparse.linalg import splu\n    return splu(a)\n\n\n"
        "def route(lu, other):\n"
        "    return isinstance(lu, dict), isinstance(other, _TwoFactor)\n\n\n"
        "def plain(x):\n    return isinstance(x, dict)\n")
    assert _sites(tmp_path, {"splu"}) == {"a.sparse"}
    assert _sites(tmp_path, {"lu_factor", "lu_solve"}) == {"a.dense"}
    assert _factor_isinstance_calls(tmp_path) == ["a.route", "a.route"]
