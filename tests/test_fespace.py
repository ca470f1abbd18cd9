"""Element space tests: quadrature exactness, shape functions, dof layout."""

import itertools
import math

import numpy as np
import pytest

from infsup_lab.fespace import (
    _RULES,
    ELEMENTS,
    ERROR_BLOCK,
    ElementKind,
    UnsupportedDegree,
    build_space,
    field_errors,
    fields_at_quadrature,
    quadrature,
    tabulate,
)
from infsup_lab.mesh import triangle_grad_lambda, unit_square_mesh
from infsup_lab.stokes import manufactured_problem
from infsup_lab.weakbc import mms_problem
from oracles import (branch_build_space, dof_coords, shape_gradients_bary,
                     shape_values, table_fields_at_quadrature,
                     whole_mesh_field_errors)

#: the kinds whose tabulated values are the hand table's bit for bit: the
#: vertex values of P2, 2 l^2 - l against l (2 l - 1), round differently,
#: by at most 1.1e-16; every tabulated derivative is the hand table's
EXACT_KINDS = (ElementKind.P0, ElementKind.P1, ElementKind.P1_DISC,
               ElementKind.P1_BUBBLE)


def barycentric(mesh, t, x):
    """Barycentric coordinates of physical point ``x`` in triangle ``t``."""
    grad = triangle_grad_lambda(mesh)[t]
    p = mesh.nodes[mesh.triangles[t]]
    x = np.asarray(x, dtype=float)
    return np.array([1.0 + grad[k] @ (x - p[k]) for k in range(3)])


def evaluate(space, coeffs, t, bary):
    """Value of a discrete function at one barycentric point of triangle t:
    a pointwise oracle for ``fields_at_quadrature``.  A scalar for
    1-component spaces, else an array of length ``components``, from the
    hand-written basis."""
    vals = shape_values(space.kind, bary)
    local = np.asarray(coeffs, dtype=float)[space.cell_dofs[t]]
    out = local.reshape(space.components, space.n_local) @ vals
    return out[0] if space.components == 1 else out


def bary_monomial_integral(a, b, c):
    """Exact integral of l1^a l2^b l3^c over a unit-area triangle."""
    return (2.0 * math.factorial(a) * math.factorial(b) * math.factorial(c)
            / math.factorial(a + b + c + 2))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
def test_quadrature_exact_for_barycentric_monomials(degree):
    rule = quadrature(degree)
    assert rule.degree >= degree
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(rule.points >= 0.0)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            c = degree - a - b
            approx = np.sum(rule.weights * rule.points[:, 0] ** a
                            * rule.points[:, 1] ** b * rule.points[:, 2] ** c)
            assert approx == pytest.approx(bary_monomial_integral(a, b, c),
                                           abs=1e-15, rel=1e-13)


@pytest.mark.parametrize("rule", _RULES, ids=["6-point", "12-point"])
def test_stocked_rule_integrates_every_monomial_to_its_degree(rule):
    # the 15-digit tables leave the weights' sum off one by -1.0e-15 (6
    # points) and 2.0e-15 (12 points); the largest relative residual of a
    # monomial is 3.6e-15 and 8.1e-15
    assert abs(rule.weights.sum() - 1.0) <= 2e-15
    for a, b, c in itertools.product(range(rule.degree + 1), repeat=3):
        if a + b + c <= rule.degree:
            approx = np.sum(rule.weights * rule.points[:, 0] ** a
                            * rule.points[:, 1] ** b * rule.points[:, 2] ** c)
            exact = bary_monomial_integral(a, b, c)
            assert abs(approx - exact) <= 1e-14 * exact


def test_quadrature_degree_mapping_and_limit():
    assert quadrature(0) is quadrature(4)          # one rule up to degree 4
    assert quadrature(3).degree == 4
    assert quadrature(5).degree == 6
    assert len(quadrature(4).points) == 6
    assert len(quadrature(6).points) == 12
    with pytest.raises(UnsupportedDegree):
        quadrature(7)
    with pytest.raises(UnsupportedDegree):
        quadrature(-1)


# ---------------------------------------------------------------------------
# shape functions
# ---------------------------------------------------------------------------

def shapes(kind, points):
    return tabulate(kind, points)[0]


def test_shape_values_kronecker_property():
    vertices = np.eye(3)
    assert np.allclose(shapes(ElementKind.P1, vertices), np.eye(3))
    # P2: vertices then midpoints, matching the local dof order
    mids = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    nodes = np.vstack([vertices, mids])
    assert np.allclose(shapes(ElementKind.P2, nodes), np.eye(6), atol=1e-14)
    # bubble is zero at vertices and 1 at the barycenter
    bub = shapes(ElementKind.P1_BUBBLE, np.array([1, 1, 1]) / 3.0)
    assert bub[3] == pytest.approx(1.0)
    assert np.allclose(shapes(ElementKind.P1_BUBBLE, vertices)[:, 3], 0.0)


def test_partition_of_unity():
    rng = np.random.default_rng(0)
    pts = rng.dirichlet([1, 1, 1], size=20)
    for kind in (ElementKind.P1, ElementKind.P2):
        assert np.allclose(shapes(kind, pts).sum(axis=-1), 1.0, atol=1e-13)
    # P1 part of the enriched space also sums to one
    vals = shapes(ElementKind.P1_BUBBLE, pts)
    assert np.allclose(vals[:, :3].sum(axis=-1), 1.0, atol=1e-13)


def test_shape_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    step = 1e-6
    for kind in ElementKind:
        lam = rng.dirichlet([2, 2, 2])
        grads = tabulate(kind, lam)[1]
        for axis in range(3):
            plus = lam.copy()
            plus[axis] += step
            minus = lam.copy()
            minus[axis] -= step
            fd = (shapes(kind, plus) - shapes(kind, minus)) / (2 * step)
            assert np.allclose(grads[:, axis], fd, atol=1e-7)


@pytest.mark.parametrize("degree", [4, 6])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_tabulate_matches_the_hand_written_basis(kind, degree):
    points = quadrature(degree).points
    got_values, got_derivatives = tabulate(kind, points)
    want_values = shape_values(kind, points)
    want_derivatives = shape_gradients_bary(kind, points)
    assert got_values.shape == want_values.shape
    assert np.array_equal(got_derivatives, want_derivatives)
    if kind in EXACT_KINDS:
        assert np.array_equal(got_values, want_values)
    else:
        assert np.abs(got_values - want_values).max() <= 1e-15


# ---------------------------------------------------------------------------
# spaces and dof layout
# ---------------------------------------------------------------------------

def test_dof_counts_on_n4():
    mesh = unit_square_mesh(4)
    assert build_space(ElementKind.P0, mesh).n_dofs == 32
    assert build_space(ElementKind.P1, mesh).n_dofs == 25
    assert build_space(ElementKind.P1_BUBBLE, mesh).n_dofs == 57
    p2 = build_space(ElementKind.P2, mesh)
    assert p2.n_dofs == 81                     # == (2n+1)^2 on this mesh
    vec = build_space(ElementKind.P2, mesh, components=2)
    assert vec.n_dofs == 162
    assert vec.cell_dofs.shape == (32, 12)


def test_boundary_dof_counts():
    mesh = unit_square_mesh(4)
    assert len(build_space(ElementKind.P0, mesh).boundary_dofs) == 0
    assert len(build_space(ElementKind.P1, mesh).boundary_dofs) == 16
    assert len(build_space(ElementKind.P1_BUBBLE, mesh).boundary_dofs) == 16
    assert len(build_space(ElementKind.P2, mesh).boundary_dofs) == 32
    vec = build_space(ElementKind.P1, mesh, components=2)
    assert len(vec.boundary_dofs) == 32
    assert len(vec.free_dofs()) == vec.n_dofs - 32


def test_boundary_dofs_sit_on_the_boundary():
    mesh = unit_square_mesh(3)
    for kind in (ElementKind.P1, ElementKind.P1_BUBBLE, ElementKind.P2):
        space = build_space(kind, mesh)
        coords = dof_coords(space)
        for dof in space.boundary_dofs:
            x, y = coords[dof]
            assert min(x, y, 1 - x, 1 - y) < 1e-12
        free = space.free_dofs()
        interior_scalar = [d for d in free if d < space.n_scalar_dofs]
        for dof in interior_scalar:
            x, y = coords[dof]
            assert min(x, y, 1 - x, 1 - y) > 1e-12


def test_vector_dof_layout_is_component_major():
    mesh = unit_square_mesh(2)
    space = build_space(ElementKind.P1, mesh, components=2)
    ns = space.n_scalar_dofs
    assert np.all(space.cell_dofs[:, :3] == space.scalar_cell_dofs)
    assert np.all(space.cell_dofs[:, 3:] == space.scalar_cell_dofs + ns)


def test_p1_interpolation_is_exact_for_affine_functions():
    mesh = unit_square_mesh(3)
    space = build_space(ElementKind.P1, mesh)
    f = lambda p: 2.0 * p[..., 0] - 0.7 * p[..., 1] + 0.25
    coeffs = f(dof_coords(space))
    rng = np.random.default_rng(4)
    for _ in range(10):
        t = rng.integers(0, mesh.n_triangles)
        lam = rng.dirichlet([1, 1, 1])
        x = lam @ mesh.nodes[mesh.triangles[t]]
        assert evaluate(space, coeffs, t, lam) == pytest.approx(f(x), abs=1e-13)
        assert np.allclose(barycentric(mesh, t, x), lam, atol=1e-12)


def test_p2_interpolation_exact_for_quadratics_with_gradients():
    mesh = unit_square_mesh(2)
    space = build_space(ElementKind.P2, mesh)
    f = lambda p: p[..., 0] ** 2 + 0.5 * p[..., 0] * p[..., 1] - p[..., 1]
    grad_f = lambda p: np.stack([2 * p[..., 0] + 0.5 * p[..., 1],
                                 0.5 * p[..., 0] - 1.0 + 0 * p[..., 1]], axis=-1)
    coeffs = f(dof_coords(space))
    pts, vals, grads = fields_at_quadrature(space, coeffs, quadrature(4),
                                             slice(None))
    assert np.allclose(vals[..., 0], f(pts), atol=1e-12)
    assert np.allclose(grads[:, :, 0, :], grad_f(pts), atol=1e-11)


@pytest.mark.parametrize("kind", [ElementKind.P1, ElementKind.P1_BUBBLE,
                                  ElementKind.P2])
def test_fields_at_quadrature_match_pointwise_evaluation(kind):
    mesh = unit_square_mesh(2)
    space = build_space(kind, mesh, components=2)
    coeffs = np.random.default_rng(5).standard_normal(space.n_dofs)
    rule = quadrature(4)
    _, values, _ = fields_at_quadrature(space, coeffs, rule, slice(None))
    for t in range(mesh.n_triangles):
        for q, lam in enumerate(rule.points):
            assert np.allclose(evaluate(space, coeffs, t, lam), values[t, q],
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_fields_at_quadrature_match_the_gradient_table(kind, components, n):
    mesh = unit_square_mesh(n)
    space = build_space(kind, mesh, components=components)
    coeffs = np.random.default_rng(n).standard_normal(space.n_dofs)
    rule = quadrature(6)
    points, values, grads = fields_at_quadrature(space, coeffs, rule,
                                                 slice(None))
    ref_points, ref_values, ref_grads = table_fields_at_quadrature(
        space, coeffs, rule)
    assert np.array_equal(points, ref_points)
    if kind in EXACT_KINDS:
        assert np.array_equal(values, ref_values)
    else:
        assert np.linalg.norm(values - ref_values) \
            <= 1e-15 * np.linalg.norm(ref_values)
    assert grads.shape == ref_grads.shape
    assert np.linalg.norm(grads - ref_grads) \
        <= 1e-14 * np.linalg.norm(ref_grads)


FIELD_PROBLEMS = {1: mms_problem(), 2: manufactured_problem()}


@pytest.mark.parametrize("n", [1, 5, 32])
@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_field_errors_match_the_whole_mesh_quadrature(kind, components, n):
    # n = 1 and 5 give T = 2 and 50, inside one block; n = 32 gives
    # T = 2048, eight blocks of 256
    space = build_space(kind, unit_square_mesh(n), components=components)
    coeffs = np.random.default_rng(n).standard_normal(space.n_dofs)
    problem = FIELD_PROBLEMS[components]
    got = field_errors(space, coeffs, problem.u, problem.grad_u)
    want = whole_mesh_field_errors(space, coeffs, problem.u, problem.grad_u)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kind", list(ElementKind))
def test_a_block_of_cells_is_rows_of_the_whole_mesh_evaluation(kind):
    # 50 cells in blocks of 16: the last block is short
    space = build_space(kind, unit_square_mesh(5), components=2)
    coeffs = np.random.default_rng(3).standard_normal(space.n_dofs)
    rule = quadrature(6)
    whole = fields_at_quadrature(space, coeffs, rule, slice(None))
    blocks = [fields_at_quadrature(space, coeffs, rule, slice(j, j + 16))
              for j in range(0, 50, 16)]
    for full, parts in zip(whole, zip(*blocks)):
        assert np.array_equal(full, np.concatenate(parts))


@pytest.mark.parametrize("kind, components, bound", [
    (ElementKind.P2, 2, 17.0),
    (ElementKind.P1, 1, 10.0),
], ids=["vector-p2", "scalar-p1"])
def test_field_errors_form_no_full_size_temporaries(kind, components, bound):
    # traced peak in (B, nq) float arrays, B = ERROR_BLOCK cells, the exact
    # callables' own arrays included: 15.6 (vector P2) and 9.1 (scalar P1)
    # at n = 32 and 64 alike; the whole-mesh quadrature peaked at 16.5 and
    # 9.8 (T, nq) arrays, a bound that grew with the mesh
    import tracemalloc

    problem = FIELD_PROBLEMS[components]
    for n in (32, 64):
        space = build_space(kind, unit_square_mesh(n), components=components)
        coeffs = np.random.default_rng(2).standard_normal(space.n_dofs)
        args = (space, coeffs, problem.u, problem.grad_u)
        field_errors(*args)                  # first-call allocations aside
        tracemalloc.start()
        try:
            field_errors(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * ERROR_BLOCK * len(quadrature(6).weights)


def test_p2_is_continuous_across_interior_edges():
    mesh = unit_square_mesh(3)
    space = build_space(ElementKind.P2, mesh)
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(space.n_dofs)
    interior = np.flatnonzero(mesh.interior_mask())
    for eid in interior[:: max(1, len(interior) // 6)]:
        a, b = mesh.edges[eid]
        t1, t2 = mesh.edge_tris[eid]
        for s in (0.2, 0.5, 0.9):
            x = (1 - s) * mesh.nodes[a] + s * mesh.nodes[b]
            v1 = evaluate(space, coeffs, t1, barycentric(mesh, t1, x))
            v2 = evaluate(space, coeffs, t2, barycentric(mesh, t2, x))
            assert v1 == pytest.approx(v2, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_entity_numbering_matches_the_per_kind_branches(kind, components, n):
    mesh = unit_square_mesh(n)
    got = build_space(kind, mesh, components)
    want = branch_build_space(kind, mesh, components)
    assert got.n_scalar_dofs == want.n_scalar_dofs
    for name in ("scalar_cell_dofs", "scalar_boundary_dofs"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
        assert getattr(got, name).dtype == getattr(want, name).dtype


@pytest.mark.parametrize("kind", [kind for kind in ElementKind
                                  if ELEMENTS[kind].vertex])
def test_vertex_dofs_come_first_and_follow_the_nodes(kind):
    # cli's nodal output reads the first n_nodes scalar dofs of each
    # component as the values at the mesh nodes, in node order
    mesh = unit_square_mesh(3)
    space = build_space(kind, mesh)
    assert np.array_equal(space.scalar_cell_dofs[:, :3], mesh.triangles)


def test_local_dof_counts():
    mesh = unit_square_mesh(1)
    counts = {kind: build_space(kind, mesh).n_local for kind in ElementKind}
    assert counts == {ElementKind.P0: 1, ElementKind.P1: 3,
                      ElementKind.P1_DISC: 3, ElementKind.P1_BUBBLE: 4,
                      ElementKind.P2: 6}
    for kind, element in ELEMENTS.items():
        assert 3 * element.vertex + 3 * element.edge + element.cell \
            == counts[kind]


def test_invalid_components():
    mesh = unit_square_mesh(1)
    with pytest.raises(ValueError):
        build_space(ElementKind.P1, mesh, components=3)
