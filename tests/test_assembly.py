"""Assembly tests: hand stencils, integral identities, table-kernel oracles."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from infsup_lab import assembly, infsup, locking, stokes, weakbc
from infsup_lab.assembly import (
    SCHUR_BLOCK,
    SaddleSystem,
    _diagonal_half,
    _element_blocks,
    _index_dtype,
    _scatter,
    cross_mass,
    divergence,
    edge_bases,
    edge_form,
    edge_load,
    free_vector_block,
    grad_coupling,
    load_vector,
    lumped_mass,
    mass,
    schur_complement,
    solve_saddle,
    solve_saddle_pcg,
    sparse_lu,
    stiffness,
)
from infsup_lab.fespace import ElementKind, build_space, quadrature
from infsup_lab.linalg import (NotPositiveDefinite, SingularMatrix,
                                column_scale, dense_lu)
from infsup_lab.mesh import boundary_edge_geometry, unit_square_mesh
from oracles import (
    boundary_edge_integrals,
    boundary_flux_flux,
    boundary_load,
    boundary_mass,
    boundary_normal_flux,
    column_scale as column_scale_oracle,
    dof_coords,
    edge_trace_ops,
    identity_schur_complement,
    int64_scatter,
    lu_solve,
    table_cross_mass,
    table_divergence,
    stroud_rule,
    table_grad_coupling,
    table_stiffness,
)


def frob(csr):
    return np.linalg.norm(csr.toarray())


# ---------------------------------------------------------------------------
# sparse storage
# ---------------------------------------------------------------------------

def test_scatter_sums_duplicate_entries():
    # two cells share dofs 0 and 1, listed in opposite orders
    dofs = np.array([[0, 1], [1, 0]])
    locals_ = np.array([[[1.0, 2.0], [3.0, 4.0]],
                        [[10.0, 20.0], [30.0, 40.0]]])
    m = _scatter(dofs, dofs, locals_, 3, 3)
    assert m.nnz == 4
    assert np.array_equal(m.toarray(), [[41.0, 32.0, 0.0],
                                        [23.0, 14.0, 0.0],
                                        [0.0, 0.0, 0.0]])
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 5, (40, 3))
    cols = rng.integers(0, 4, (40, 2))
    locals_ = rng.standard_normal((40, 3, 2))
    dense = np.zeros((5, 4))
    np.add.at(dense, (rows[:, :, None], cols[:, None, :]), locals_)
    m = _scatter(rows, cols, locals_, 5, 4)
    assert m.has_canonical_format
    assert np.allclose(m.toarray(), dense, atol=1e-14)


def _canonical_csr(m):
    return isinstance(m, sp.csr_array) and m.has_canonical_format


def test_operators_are_canonical_csr_arrays():
    # relative_residual's Frobenius norm reads .data, which counts an entry
    # twice if it is stored twice; a stored 0.0 (a cancelled coupling) would
    # be a structural nonzero to SuperLU
    mesh = unit_square_mesh(3)
    p0, p1 = (build_space(k, mesh) for k in (ElementKind.P0, ElementKind.P1))
    lengths, _, _ = boundary_edge_geometry(mesh)
    ops = [stiffness(p1, cell_weights=np.arange(1.0, 19.0))]
    ops += [edge_form(r, c, lengths) for r, c in
            itertools.product(edge_bases(mesh), repeat=2)]
    for kind in (ElementKind.P1, ElementKind.P1_BUBBLE, ElementKind.P2):
        v = build_space(kind, mesh, components=2)
        ops += [stiffness(v), mass(v), divergence(v, p0), divergence(v, p1)]
    v1 = build_space(ElementKind.P1, mesh, components=2)
    disc = build_space(ElementKind.P1_DISC, mesh, components=2)
    ops += [grad_coupling(v1, p1), cross_mass(disc, v1)]
    assert all(_canonical_csr(op) for op in ops)
    assert all(np.all(op.data != 0.0) for op in ops)
    systems = ([stokes_system(name, 3) for name in stokes.method_names()]
               + [weakbc_system(name, 3) for name in WEAKBC_METHODS]
               + [weakbc.build(weakbc.method_from_name(name, trace="p0"),
                               unit_square_mesh(3), WEAKBC_MMS.f, WEAKBC_MMS.d)
                  for name in ("multiplier", "bh")]
               + [locking_system(name, 3, 1e2) for name in LOCKING_VARIANTS])
    for system in systems:
        blocks = [system.a, system.b] + ([] if system.c is None else [system.c])
        assert all(_canonical_csr(op) for op in blocks)
        assert all(np.all(op.data != 0.0) for op in blocks)


def _sparse_operators(obj) -> list:
    """Every scipy sparse array in ``obj``, its dataclass fields and its
    tuples and lists, recursively."""
    if sp.issparse(obj):
        return [obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (tuple, list)):
        return [op for item in obj for op in _sparse_operators(item)]
    return []


def test_every_assembled_operator_has_int32_indices():
    # the systems the CLI assembles: their blocks, and the operators
    # locking keeps to build one system per penalty
    mesh = unit_square_mesh(3)
    assembled = (
        [stokes_system(name, 3) for name in stokes.method_names()]
        + [infsup.pair_operators(*infsup.pair_spaces(pair, mesh))
           for pair in infsup.PAIRS]
        + [locking.build(locking.LockingConfig(lambdas=(1e2,), n=3,
                                               **variant), 1e2)
           for variant in LOCKING_VARIANTS.values()]
        + [weakbc.build(weakbc.method_from_name(name, trace=trace), mesh,
                        WEAKBC_MMS.f, WEAKBC_MMS.d)
           for name in WEAKBC_METHODS for trace in ("p1", "p0")])
    for system in assembled:
        ops = _sparse_operators(system)
        assert len(ops) >= 2
        for op in ops:
            assert op.indices.dtype == np.int32
            assert op.indptr.dtype == np.int32


def test_superlu_gets_intc_index_arrays(monkeypatch):
    # splu casts its CSC's index arrays to intc, which copies them unless
    # they already are: the two-block K, a whole a and a condensed Schur
    factors = recorded_factors(monkeypatch)
    for system in (stokes_system("taylor-hood", 4),
                   weakbc_system("barbosa-hughes", 4),
                   locking_system("corrected-consistent", 4, 1e2),
                   locking_system("multiplier", 4, 1e2)):
        solve_saddle(system)
    infsup.infsup_weighted(*infsup.pair_operators(
        *infsup.pair_spaces("mini", unit_square_mesh(4))))
    assert len(factors) == 5
    for a, _ in factors:
        assert a.format == "csc"
        assert a.indices.dtype == np.intc and a.indptr.dtype == np.intc


INT32_MAX = int(np.iinfo(np.int32).max)


@pytest.mark.parametrize("axis", range(3))
def test_index_dtype_switches_where_the_doubled_size_reaches_int32_max(axis):
    # rows, columns or triplets alone: _expand_components doubles every
    # one of them (2 n_cols - 1 is its largest column index, 2 nnz its
    # last pointer), so int32 holds while the doubled size is below the
    # maximum; sizes only, nothing is allocated
    def dtype(size):
        sizes = [1, 1, 1]
        sizes[axis] = size
        return _index_dtype(*sizes)

    assert dtype(INT32_MAX // 2) is np.int32        # doubled: max - 1
    for size in (INT32_MAX // 2 + 1, INT32_MAX - 1, INT32_MAX,
                 INT32_MAX + 1, 2 ** 40):
        assert dtype(size) is np.int64
    assert _index_dtype(*[INT32_MAX // 2] * 3) is np.int32


def _assert_same_csr(new, old):
    """The same shape, ``data`` bit for bit and ``indices``/``indptr``
    values, in int32 against the oracle's int64 (which scipy narrows on
    slicing an empty block)."""
    assert new.shape == old.shape
    assert new.data.tobytes() == old.data.tobytes()
    for name in ("indices", "indptr"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == np.int32 and (b.dtype == np.int64 or not old.nnz)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 32])
def test_operators_equal_the_int64_scatter(n, monkeypatch):
    mesh = unit_square_mesh(n)
    lengths, _, _ = boundary_edge_geometry(mesh)
    scalar = {kind: build_space(kind, mesh) for kind in ElementKind}
    vector = {kind: build_space(kind, mesh, 2) for kind in ElementKind}
    builds = []
    for kind in ElementKind:
        for space in (scalar[kind], vector[kind]):
            builds += [lambda s=space: stiffness(s),
                       lambda s=space: mass(s)]
        builds += [lambda s=vector[kind]: free_vector_block(stiffness, s),
                   lambda s=vector[kind]: free_vector_block(mass, s)]
    for rows, cols in itertools.product(ElementKind, repeat=2):
        builds += [lambda r=scalar[rows], c=scalar[cols]: cross_mass(r, c),
                   lambda v=vector[rows], p=scalar[cols]: divergence(v, p),
                   lambda v=vector[rows], p=scalar[cols]:
                       grad_coupling(v, p)]
    builds += [lambda r=r, c=c: edge_form(r, c, lengths)
               for r, c in itertools.product(edge_bases(mesh), repeat=2)]
    new = [build() for build in builds]
    monkeypatch.setattr(assembly, "_scatter", int64_scatter)
    for op, build in zip(new, builds):
        _assert_same_csr(op, build())


# ---------------------------------------------------------------------------
# volume operators
# ---------------------------------------------------------------------------

def test_p1_stiffness_is_the_five_point_stencil():
    n = 4
    mesh = unit_square_mesh(n)
    k = stiffness(build_space(ElementKind.P1, mesh)).toarray()
    side = n + 1
    center = 2 * side + 2                      # node (2, 2), interior
    row = k[center]
    assert row[center] == pytest.approx(4.0)
    for nbr in (center - 1, center + 1, center - side, center + side):
        assert row[nbr] == pytest.approx(-1.0)
    # diagonal neighbours cancel on this triangulation
    assert row[center + side + 1] == pytest.approx(0.0, abs=1e-14)
    assert row[center - side - 1] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(k, k.T, atol=1e-14)
    assert np.allclose(k.sum(axis=1), 0.0, atol=1e-13)   # constants in kernel


def test_mass_total_and_lumped():
    mesh = unit_square_mesh(3)
    for kind in (ElementKind.P0, ElementKind.P1, ElementKind.P1_BUBBLE,
                 ElementKind.P2):
        space = build_space(kind, mesh)
        m = mass(space)
        one = np.ones(space.n_dofs)
        if kind is ElementKind.P1_BUBBLE:
            one[mesh.n_nodes:] = 0.0           # bubbles are not part of 1
        assert one @ (m @ one) == pytest.approx(1.0, abs=1e-13)
    lump = lumped_mass(build_space(ElementKind.P1, mesh))
    assert lump.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.all(lump > 0)
    # vector space: each component integrates to one
    vec = build_space(ElementKind.P1, mesh, components=2)
    assert lumped_mass(vec).sum() == pytest.approx(2.0, abs=1e-13)


def test_lumped_mass_rejects_p2():
    # quadratic vertex functions have zero integral, so the row-sum diagonal
    # is not invertible
    mesh = unit_square_mesh(2)
    with pytest.raises(NotPositiveDefinite):
        lumped_mass(build_space(ElementKind.P2, mesh))


def test_mass_reproduces_loads_for_interpolated_polynomials():
    mesh = unit_square_mesh(3)
    p1 = build_space(ElementKind.P1, mesh)
    f_affine = lambda p: 1.5 * p[..., 0] - 0.5 * p[..., 1] + 2.0
    coeffs = f_affine(dof_coords(p1))
    assert np.allclose(mass(p1) @ coeffs,
                       load_vector(p1, f_affine), atol=1e-14)
    p2 = build_space(ElementKind.P2, mesh)
    f_quad = lambda p: p[..., 0] ** 2 - p[..., 0] * p[..., 1]
    coeffs = f_quad(dof_coords(p2))
    assert np.allclose(mass(p2) @ coeffs,
                       load_vector(p2, f_quad), atol=1e-14)


def test_load_vector_totals():
    mesh = unit_square_mesh(2)
    p1 = build_space(ElementKind.P1, mesh)
    assert load_vector(p1, lambda p: np.ones(p.shape[:-1])).sum() \
        == pytest.approx(1.0, abs=1e-14)
    vec = build_space(ElementKind.P1, mesh, components=2)
    rhs = load_vector(vec, lambda p: np.stack(
        [np.ones(p.shape[:-1]), 3.0 * np.ones(p.shape[:-1])], axis=-1))
    ns = vec.n_scalar_dofs
    assert rhs[:ns].sum() == pytest.approx(1.0, abs=1e-14)
    assert rhs[ns:].sum() == pytest.approx(3.0, abs=1e-14)


@pytest.mark.parametrize("vkind", [ElementKind.P1, ElementKind.P1_BUBBLE,
                                   ElementKind.P2])
@pytest.mark.parametrize("pkind", [ElementKind.P0, ElementKind.P1])
def test_divergence_of_linear_field_matches_pressure_integrals(vkind, pkind):
    # u = (x, 0) has div u = 1, so B u = -(psi_q, 1) for every pressure basis
    mesh = unit_square_mesh(3)
    v = build_space(vkind, mesh, components=2)
    p = build_space(pkind, mesh)
    u = np.zeros(v.n_dofs)
    u[:v.n_scalar_dofs] = dof_coords(v)[:, 0]
    if vkind is ElementKind.P1_BUBBLE:
        u[mesh.n_nodes:v.n_scalar_dofs] = 0.0  # affine field needs no bubbles
    b = divergence(v, p)
    expected = -load_vector(p, lambda q: np.ones(q.shape[:-1]))
    assert np.allclose(b @ u, expected, atol=1e-13)


def test_divergence_annihilates_rigid_translations():
    mesh = unit_square_mesh(2)
    v = build_space(ElementKind.P2, mesh, components=2)
    p = build_space(ElementKind.P1, mesh)
    b = divergence(v, p)
    u = np.zeros(v.n_dofs)
    u[:v.n_scalar_dofs] = 1.0                  # constant x-velocity
    assert np.allclose(b @ u, 0.0, atol=1e-13)


def test_grad_coupling_is_minus_transpose_of_divergence_inside():
    # (phi, grad psi) = -(div phi, psi) when phi vanishes on the boundary
    mesh = unit_square_mesh(3)
    v = build_space(ElementKind.P1, mesh, components=2)
    p = build_space(ElementKind.P1, mesh)
    g = grad_coupling(v, p).toarray()
    bt = divergence(v, p).toarray().T
    free = v.free_dofs()
    assert np.allclose(g[free], bt[free], atol=1e-13)


def test_reassembly_with_higher_degree_is_identical():
    # the degree-4 and degree-6 stocked rules integrate every form the
    # solvers assemble (the bubble enters only through gradients), so the
    # table kernels re-assembled on either give the exact forms to round-off
    mesh = unit_square_mesh(2)
    for rule in (quadrature(4), quadrature(6)):
        pairs = []
        for kind in (ElementKind.P1, ElementKind.P1_BUBBLE, ElementKind.P2):
            space = build_space(kind, mesh, components=2)
            pairs.append((stiffness(space), table_stiffness(space, rule)))
            if kind is not ElementKind.P1_BUBBLE:
                pairs.append((mass(space),
                              table_cross_mass(space, space, rule)))
            for pkind in (ElementKind.P0, ElementKind.P1):
                p = build_space(pkind, mesh)
                pairs.append((divergence(space, p),
                              table_divergence(space, p, rule)))
        p1 = build_space(ElementKind.P1, mesh)
        v1 = build_space(ElementKind.P1, mesh, components=2)
        pairs.append((grad_coupling(v1, p1), table_grad_coupling(v1, p1, rule)))
        for exact, table in pairs:
            assert np.linalg.norm(exact.toarray() - table.toarray()) \
                <= 1e-12 * max(frob(exact), 1e-30)


#: an entry that the exact form stores and the oracle cancels to an exact
#: zero is round-off of a zero integral summed over cells whose geometry
#: rounds differently: 5 entries of the P2-pressure couplings at n = 5, at
#: most 1.3e-16 of the largest entry
ROUND_OFF = 1e-15


def assert_matches_table(new, old):
    """``new`` is ``old`` within 1e-14 in the Frobenius norm, and stores
    no entry beyond ROUND_OFF that ``old`` cancels.  The converse need not
    hold: the oracle keeps 17,901 zero integrals over n = 1, 2, 5 as
    round-off (at most 4.6e-15 of its largest entry), which the exact
    forms cancel."""
    a, b = new.toarray(), old.toarray()
    assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)
    cancelled = (a != 0.0) & (b == 0.0)
    assert np.all(np.abs(a[cancelled]) <= ROUND_OFF * np.abs(b).max())


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stiffness_matches_the_table_kernel(n):
    mesh, rule = unit_square_mesh(n), stroud_rule()
    weights = np.linspace(0.5, 2.0, mesh.n_triangles)
    for kind, components, cell_weights in itertools.product(
            ElementKind, (1, 2), (None, weights)):
        space = build_space(kind, mesh, components)
        assert_matches_table(stiffness(space, cell_weights),
                             table_stiffness(space, rule, cell_weights))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_cross_mass_matches_the_table_kernel(n):
    mesh, rule = unit_square_mesh(n), stroud_rule()
    for rows, cols, components in itertools.product(
            ElementKind, ElementKind, (1, 2)):
        row_space = build_space(rows, mesh, components)
        col_space = build_space(cols, mesh, components)
        assert_matches_table(cross_mass(row_space, col_space),
                             table_cross_mass(row_space, col_space, rule))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_couplings_match_the_table_kernels(n):
    mesh, rule = unit_square_mesh(n), stroud_rule()
    for vkind, pkind in itertools.product(ElementKind, ElementKind):
        v = build_space(vkind, mesh, components=2)
        p = build_space(pkind, mesh)
        assert_matches_table(divergence(v, p), table_divergence(v, p, rule))
        assert_matches_table(grad_coupling(v, p),
                             table_grad_coupling(v, p, rule))


def test_bubble_mass_is_exact():
    # the bubble mass is of degree 6, beyond the 6-point rule (18% off)
    space = build_space(ElementKind.P1_BUBBLE, unit_square_mesh(4), 2)
    assert_matches_table(mass(space),
                         table_cross_mass(space, space, stroud_rule()))


def test_taylor_hood_operators_store_no_zero_integral():
    # a zero integral is an exact zero, which the scatter drops, not a
    # round-off entry at 1e-16 of the largest
    v, p = infsup.pair_spaces("taylor-hood", unit_square_mesh(8))
    for op in (divergence(v, p), stiffness(v)):
        assert np.abs(op.data).min() >= 1e-12 * np.abs(op.data).max()


@pytest.mark.parametrize("kind", [ElementKind.P1, ElementKind.P1_BUBBLE,
                                  ElementKind.P2])
def test_free_vector_block_is_the_restricted_vector_form(kind):
    # the same CSR arrays as restricting the full two-component operator,
    # so sparse_lu still sees diag(K, K)
    space = build_space(kind, unit_square_mesh(8), components=2)
    free = space.free_dofs()
    for form in (stiffness, mass):
        block, full = free_vector_block(form, space), form(space)[free][:, free]
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(block, name), getattr(full, name))
        assert block.indices.dtype == full.indices.dtype
        assert sparse_lu(block, "test").route == "two-block"


def _traced_peak(build):
    """(result, traced peak in bytes) of ``build()``."""
    import tracemalloc

    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _csr_bytes(op):
    return op.data.nbytes + op.indices.nbytes + op.indptr.nbytes


def test_pair_assembly_forms_no_full_size_temporaries(monkeypatch):
    # traced peak over the bytes of the returned (B, X, M) at TH n=32: 2.94
    # here (2.73 of 0.93 MB), 4.21 with a (T, nq, n_local, 2) gradient
    # table beside the stiffness.  The scatter's transient sets that peak,
    # so neither the full-size vector stiffness restricted to the free dofs
    # (2.97) nor a block_diag doubling (2.94) shows in it: the one
    # two-component doubling must be of the free block, and it must peak
    # at 1.10 times its output (2.42 through block_diag)
    spaces = infsup.pair_spaces("taylor-hood", unit_square_mesh(32))
    infsup.pair_operators(*spaces)          # imports are not the assembly
    ops, peak = _traced_peak(lambda: infsup.pair_operators(*spaces))
    assert peak <= 3.2 * sum(_csr_bytes(op) for op in ops)
    doubled, real = [], assembly._expand_components

    def recording(scalar, components):
        if components == 2:
            doubled.append(scalar)
        return real(scalar, components)

    monkeypatch.setattr(assembly, "_expand_components", recording)
    infsup.pair_operators(*spaces)
    n_free = len(dataclasses.replace(spaces[0], components=1).free_dofs())
    assert [block.shape for block in doubled] == [(n_free, n_free)]
    out, peak = _traced_peak(lambda: real(doubled[0], 2))
    assert peak <= 1.3 * _csr_bytes(out)


# ---------------------------------------------------------------------------
# boundary operators
# ---------------------------------------------------------------------------

def test_boundary_mass_total_is_perimeter():
    mesh = unit_square_mesh(2)
    hats, _, _ = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    bm = edge_form(hats, hats, lengths)
    ones = np.ones(mesh.n_nodes)
    assert ones @ (bm @ ones) == pytest.approx(4.0, abs=1e-13)


def test_boundary_operators_on_two_triangles():
    # n=1: nodes 0=(0,0), 1=(1,0), 2=(0,1), 3=(1,1).  Hand-computed hat
    # normal derivatives per edge give these exact operator entries.
    mesh = unit_square_mesh(1)
    hats, flux, _ = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    nf = edge_form(hats, flux, lengths).toarray()
    assert np.allclose(nf[0], [0.0, 0.5, 0.5, -1.0], atol=1e-14)
    assert np.allclose(nf[1], [-0.5, 1.0, 0.0, -0.5], atol=1e-14)
    assert np.allclose(nf[2], [-0.5, 0.0, 1.0, -0.5], atol=1e-14)
    assert np.allclose(nf[3], [-1.0, 0.5, 0.5, 0.0], atol=1e-14)
    ff = edge_form(flux, flux, lengths).toarray()
    assert np.allclose(np.diag(ff), 2.0, atol=1e-14)
    assert np.allclose(ff, ff.T, atol=1e-14)
    # flux-flux is PSD: x^T N x = sum_E w_E (du/dn)^2 >= 0
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(4)
        assert x @ ff @ x >= -1e-13


def test_normal_flux_on_linear_function_integrates_exactly():
    # u = x has du/dn = n_x: +1 on the right edge, -1 on the left, 0 top and
    # bottom; pairing with v = 1 over the whole boundary gives zero total
    mesh = unit_square_mesh(3)
    space = build_space(ElementKind.P1, mesh)
    hats, flux, _ = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    u = dof_coords(space)[:, 0].copy()
    nf = edge_form(hats, flux, lengths)
    assert np.ones(space.n_dofs) @ (nf @ u) == pytest.approx(0.0, abs=1e-13)
    # pairing with v = x concentrates on the right edge: int_right 1*1 = 1
    # and on the left edge v = 0, so the total is 1
    v = dof_coords(space)[:, 0].copy()
    assert v @ (nf @ u) == pytest.approx(1.0, abs=1e-13)


def test_boundary_load_integrates_polynomials_exactly():
    mesh = unit_square_mesh(2)
    hats, _, _ = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    # sum_i int_E d phi_i = int_Gamma d; take d = x^2 (2-pt Gauss is exact)
    rhs = edge_load(mesh, hats, lambda p: p[..., 0] ** 2, lengths)
    # int over bottom+top: 2 * int_0^1 x^2 = 2/3; left: 0; right: 1 * 1 = 1
    assert rhs.sum() == pytest.approx(2.0 / 3.0 + 1.0, abs=1e-13)


def _closed_form_edge_ops(space, edge_weights):
    """{(rows, cols): operator} of the hand-integrated oracles over the
    bases (hats, flux, constants), for one set of edge weights w_E."""
    t0, c0, d0 = edge_trace_ops(space, edge_weights)
    nf = boundary_normal_flux(space, edge_weights)
    ops = {(0, 0): boundary_mass(space, edge_weights), (0, 1): nf,
           (1, 1): boundary_flux_flux(space, edge_weights),
           (2, 0): t0, (2, 1): c0, (2, 2): d0}
    for (i, j) in list(ops):
        ops[j, i] = sp.csr_array(ops[i, j].T)
    return ops


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 32])
def test_edge_form_and_load_match_closed_forms(n):
    # every pair of edge bases and every weight the weak-bc forms use
    # (|E| w_E with w_E = 1/|E|, 1, |E|, alpha |E|): the CSR pattern of
    # the hand-integrated operator and its entries to round-off
    mesh = unit_square_mesh(n)
    space = build_space(ElementKind.P1, mesh)
    bases = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    for weights in (np.ones_like(lengths), lengths, lengths ** 2,
                    0.25 * lengths ** 2):
        oracle = _closed_form_edge_ops(space, weights / lengths)
        for (i, j), expected in oracle.items():
            op = edge_form(bases[i], bases[j], weights)
            assert _canonical_csr(op) and expected.has_canonical_format
            assert np.array_equal(op.indptr, expected.indptr)
            assert np.array_equal(op.indices, expected.indices)
            assert (np.linalg.norm(op.data - expected.data)
                    <= 1e-15 * np.linalg.norm(expected.data))
    hats, flux, constants = bases
    d = lambda p: np.exp(p[..., 0]) * np.cos(2.0 * p[..., 1])
    for load, expected in [
            (edge_load(mesh, hats, d, lengths), boundary_load(space, d)),
            (edge_load(mesh, flux, d, lengths),
             boundary_load(space, d, flux_test=True)),
            (edge_load(mesh, constants, d, lengths),
             boundary_edge_integrals(mesh, d))]:
        assert (np.linalg.norm(load - expected)
                <= 1e-15 * np.linalg.norm(expected))


# ---------------------------------------------------------------------------
# mean constraint
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ("taylor-hood", "p2p0", "brezzi-pitkaranta"))
def test_mean_row_is_pressure_mass_times_ones(name):
    # P0 and P1 are partitions of unity, so M 1 is the integral of each
    # pressure basis function; the mean row borders the free-dof blocks
    system = stokes_system(name, 2)
    p_space = system.spaces[1]
    integrals = load_vector(p_space, lambda q: np.ones(q.shape[:-1]))
    assert np.allclose(system.mean_row, integrals, rtol=1e-13, atol=0)
    k = system.full_matrix()
    n_free = len(system.spaces[0].free_dofs())
    assert k.shape == (n_free + p_space.n_dofs + 1,) * 2
    assert np.array_equal(k[-1, n_free:-1], system.mean_row)
    assert np.array_equal(k[n_free:-1, -1], system.mean_row)


# ---------------------------------------------------------------------------
# block-elimination saddle solve (dense LU of the full matrix as the oracle)
# ---------------------------------------------------------------------------

STOKES_MMS = stokes.manufactured_problem()
WEAKBC_MMS = weakbc.mms_problem()
WEAKBC_METHODS = ("multiplier", "barbosa-hughes", "nitsche")


def stokes_system(name, n):
    return stokes.build(stokes.method_from_name(name), unit_square_mesh(n),
                        STOKES_MMS.f)


def weakbc_system(name, n):
    return weakbc.build(weakbc.method_from_name(name), unit_square_mesh(n),
                        WEAKBC_MMS.f, WEAKBC_MMS.d)


# every variant that picks its own eliminated block, plus the singular one
LOCKING_VARIANTS = {
    "plain": {},
    "corrected-lumped": {"method": "corrected", "w_mass": "lumped"},
    "corrected-consistent": {"method": "corrected", "w_mass": "consistent"},
    "multiplier": {"method": "multiplier"},
    "multiplier-grad-div": {"method": "multiplier", "grad_div_form": True},
    "multiplier-continuous-grad-div": {"method": "multiplier",
                                       "gamma_space": "continuous",
                                       "grad_div_form": True},
    "multiplier-continuous": {"method": "multiplier",
                              "gamma_space": "continuous"},
}


def locking_system(name, n, lam):
    config = locking.LockingConfig(lambdas=(lam,), n=n,
                                   **LOCKING_VARIANTS[name])
    return locking.build(config, lam).saddle


def check_against_dense(system, rtol=1e-12):
    x, residual = solve_saddle(system)
    x_dense = lu_solve(system.full_matrix(), system.full_rhs())
    assert np.linalg.norm(x - x_dense) <= rtol * np.linalg.norm(x_dense)
    assert residual <= 1e-14


def check_singular_on_both_routes(system):
    with pytest.raises(SingularMatrix):
        solve_saddle(system)
    with pytest.raises(SingularMatrix):
        lu_solve(system.full_matrix(), system.full_rhs())


@pytest.mark.parametrize("n", (4, 8))
@pytest.mark.parametrize("name", stokes.method_names())
def test_solve_saddle_matches_dense_lu_stokes(name, n):
    system = stokes_system(name, n)
    if name == "p1p1-plain":
        # both routes reach the same verdict on the unstable pair
        check_singular_on_both_routes(system)
        return
    check_against_dense(system)


@pytest.mark.parametrize("name", WEAKBC_METHODS)
def test_solve_saddle_matches_dense_lu_weakbc(name):
    check_against_dense(weakbc_system(name, 8))


@pytest.mark.parametrize("lam", (1e2, 1e6))
@pytest.mark.parametrize("n", (4, 8))
@pytest.mark.parametrize("name", LOCKING_VARIANTS)
def test_solve_saddle_matches_dense_lu_locking(name, n, lam):
    system = locking_system(name, n, lam)
    if name == "multiplier-continuous":
        # A_X has no coercivity on the projected-constraint kernel
        check_singular_on_both_routes(system)
        return
    # conditioning grows with lambda: the widest measured gap between the
    # routes is 7.2e-12 (corrected-consistent, n=8, lambda=1e6)
    check_against_dense(system, rtol=1e-10)


@pytest.mark.parametrize("n", (4, 8))
@pytest.mark.parametrize("name", ("plain", "corrected-lumped",
                                  "corrected-consistent"))
def test_locking_lambda_zero_is_singular_on_both_routes(name, n):
    # the config rejects lambda = 0; its builders still assemble it
    config = locking.LockingConfig(lambdas=(1e2,), n=n,
                                   **LOCKING_VARIANTS[name])
    check_singular_on_both_routes(locking.build(config, 0.0).saddle)


@pytest.mark.parametrize("name", [*stokes.method_names(), *WEAKBC_METHODS,
                                  *(f"locking-{v}" for v in LOCKING_VARIANTS)])
def test_relative_residual_matches_dense_formula(name):
    # nitsche: a system with an empty b block and no c or mean row;
    # locking: a c block and no mean row
    if name.startswith("locking-"):
        system = locking_system(name.removeprefix("locking-"), 4, 1e2)
    else:
        build = weakbc_system if name in WEAKBC_METHODS else stokes_system
        system = build(name, 4)
    x = np.random.default_rng(7).standard_normal(system.n_total)
    k, rhs = system.full_matrix(), system.full_rhs()
    dense = (np.linalg.norm(k @ x - rhs)
             / (np.linalg.norm(k) * np.linalg.norm(x) + np.linalg.norm(rhs)))
    assert system.relative_residual(x) == pytest.approx(dense, rel=1e-12)


def recorded_factors(monkeypatch):
    """(matrix, SuperLU factor) of every ``splu`` call from now on."""
    import scipy.sparse.linalg
    real_splu, factors = scipy.sparse.linalg.splu, []

    def recording_splu(a, *args, **kwargs):
        factors.append((a, real_splu(a, *args, **kwargs)))
        return factors[-1][1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    return factors


def test_only_the_velocity_block_is_factored(monkeypatch):
    factors = recorded_factors(monkeypatch)
    # (system, how a is factored): diag(K, K) as K alone; the discontinuous
    # multiplier mass element by element, so SuperLU factors only its
    # sparse Schur complement (n_p × n_p, no mean row)
    element = ("multiplier", "multiplier-grad-div")
    whole = ("corrected-lumped", "corrected-consistent",
             "multiplier-continuous-grad-div")
    cases = ([(stokes_system(name, 4), "K") for name in stokes.method_names()]
             + [(weakbc_system(name, 4), "a") for name in WEAKBC_METHODS]
             + [(locking_system(name, 4, 1e2),
                 "element" if name in element else
                 "a" if name in whole else "K")
                for name in LOCKING_VARIANTS])
    for system, route in cases:
        factors.clear()
        try:
            solve_saddle(system)
        except SingularMatrix:
            pass                   # p1p1-plain, multiplier-continuous
        n = {"K": system.n_u // 2, "a": system.n_u,
             "element": system.n_p}[route]
        assert [a.shape for a, _ in factors] == [(n, n)]


@pytest.mark.parametrize("pair", ("taylor-hood", "mini", "p2p0"))
def test_beta_factors_only_k_of_the_velocity_norm(pair, monkeypatch):
    # X = diag(K, K) takes the K-only factor of every Stokes solve
    factors = recorded_factors(monkeypatch)
    b, x, m = infsup.pair_operators(
        *infsup.pair_spaces(pair, unit_square_mesh(4)))
    infsup.infsup_weighted(b, x, m)
    n = x.shape[0] // 2
    assert [a.shape for a, _ in factors] == [(n, n)]


#: symmetric and diagonally dominant, two negative eigenvalues: every
#: route pivots on its diagonal
TRIDIAGONAL = (np.diag([4.0, -5.0, 6.0, -4.0, 5.0])
               + np.eye(5, k=1) + np.eye(5, k=-1))


@pytest.mark.parametrize("route, a", [
    ("element", sp.block_diag([[[4.0, 1.0, 1.0], [1.0, -5.0, 1.0],
                                [1.0, 1.0, 6.0]],
                               [[-4.0, 1.0, 0.5], [1.0, 5.0, 1.0],
                                [0.5, 1.0, -6.0]]]).toarray()),
    ("two-block", sp.block_diag([TRIDIAGONAL, TRIDIAGONAL]).toarray()),
    ("superlu", TRIDIAGONAL),
    ("dense", TRIDIAGONAL),
])
def test_diagonal_pivots_give_the_inertia(route, a):
    # Sylvester's law: pivots taken on the diagonal of a symmetric
    # permutation of a symmetric matrix have the signs of its eigenvalues
    if route == "dense":
        factor = dense_lu(np.array(a, order="F"))
    else:
        factor = sparse_lu(sp.csr_array(a), "test matrix")
    assert factor.route == route and factor.diagonal_pivots
    assert factor.pivots.shape == (len(a),)
    assert (np.count_nonzero(factor.pivots < 0.0)
            == np.count_nonzero(np.linalg.eigvalsh(a) < 0.0) > 0)


def test_two_block_factor_solves_like_the_full_factor(monkeypatch):
    from scipy.sparse.linalg import splu
    a = stokes_system("taylor-hood", 4).a
    n = a.shape[0] // 2
    factors = recorded_factors(monkeypatch)
    lu = sparse_lu(a, "velocity block")
    assert [k.shape for k, _ in factors] == [(n, n)]       # K alone
    assert lu.route == "two-block" and lu.pivots.shape == (2 * n,)
    full = splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
    rng = np.random.default_rng(5)
    block = rng.standard_normal((2 * n, 7))
    for rhs in (rng.standard_normal(2 * n), block, np.asfortranarray(block),
                sp.eye_array(2 * n, 64, k=-3, format="csc").toarray()):
        x, ref = lu.solve(rhs), full.solve(rhs)
        assert x.shape == rhs.shape
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


#: the SuperLU options of ``sparse_lu``: a fresh factor with them is its
#: unreleased twin
SPARSE_LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 1e-3,
                     "options": {"SymmetricMode": True}}


@pytest.mark.parametrize("route, matrix", [
    ("two-block", lambda: stokes_system("taylor-hood", 4).a),
    ("superlu", lambda: mass(build_space(ElementKind.P1,
                                         unit_square_mesh(4)))),
    ("superlu", lambda: weakbc_system("barbosa-hughes", 4).a),
])
def test_superlu_factor_releases_the_copies_of_its_pivot_read(
        route, matrix, monkeypatch):
    # the pivot read's CSC copies of L and U are emptied; the pivots and
    # every solve are those of a factor that keeps them, bit for bit
    from scipy.sparse.linalg import splu
    a = matrix()
    factors = recorded_factors(monkeypatch)
    factor = sparse_lu(a, "test matrix")
    [(factored, lu)] = factors
    assert factor.route == route
    assert lu.L.nnz == lu.U.nnz == 0
    fresh = splu(factored, **SPARSE_LU_OPTIONS)
    tiles = a.shape[0] // factored.shape[0]
    assert (factor.pivots.tobytes()
            == np.tile(fresh.U.diagonal(), tiles).tobytes())
    rng = np.random.default_rng(11)
    for rhs in (rng.standard_normal(a.shape[0]),
                np.asfortranarray(rng.standard_normal((a.shape[0], 16)))):
        ref = fresh.solve(rhs.reshape((factored.shape[0], -1), order="F"))
        assert (factor.solve(rhs).tobytes()
                == ref.reshape(rhs.shape, order="F").tobytes())
        rhs = rhs[:factored.shape[0]]
        assert lu.solve(rhs).tobytes() == fresh.solve(rhs).tobytes()


def test_superlu_factor_holds_no_copy_of_l_and_u():
    # TH n=32, X = diag(K, K): tracemalloc sees the first L/U read of a
    # fresh factor of K allocate 2.03 MiB of copies, and ``sparse_lu``
    # keep 0.02 MiB beyond its pivots (2.04 MiB while it kept the copies;
    # as much with ``resize((0, 0))``, which only slices views)
    import tracemalloc

    from scipy.sparse.linalg import splu
    _, x, _ = infsup.pair_operators(
        *infsup.pair_spaces("taylor-hood", unit_square_mesh(32)))
    fresh = splu(_diagonal_half(x).tocsc(), **SPARSE_LU_OPTIONS)
    sparse_lu(x, "X")                    # imports are not the factor
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fresh.U
        copies = tracemalloc.get_traced_memory()[0] - start
        start = tracemalloc.get_traced_memory()[0]
        factor = sparse_lu(x, "X")
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert copies > 2 ** 20
    assert held - factor.pivots.nbytes < 0.05 * copies


def test_diagonal_half_recognizes_only_exact_replicas():
    a = stokes_system("taylor-hood", 4).a
    n = a.shape[0] // 2
    k = _diagonal_half(a)
    assert np.array_equal(k.toarray(), a[:n, :n].toarray())
    perturbed = a.copy()
    perturbed.data[-1] *= 1.0 + 1e-15
    coupling = sp.csr_array(([1e-3], ([0], [n])), shape=a.shape)
    for other in (a[:-1, :-1], perturbed, a + coupling):
        assert _diagonal_half(sp.csr_array(other)) is None
        lu = sparse_lu(other, "velocity block")
        assert lu.route == "superlu"
        assert lu.pivots.shape == (other.shape[0],)    # the whole matrix


@pytest.mark.parametrize("k", (np.diag([1.0, 0.0, 2.0]),
                               np.diag([1.0, 1e-17, 2.0])))
def test_singular_scalar_block_raises(k, monkeypatch):
    # the element and the K-only factors keep the pivot contract of the
    # full one: an exact zero pivot names the block, a tiny one fails the
    # pivot threshold (block_diag stores both 3×3 blocks in full, zeros
    # included, so a is an element-block matrix until SuperLU is forced)
    a = sp.csr_array(sp.block_diag([k, k]))
    assert _diagonal_half(a) is not None
    assert _element_blocks(a).shape == (2, 3, 3)
    system = SaddleSystem(a=a, b=sp.csr_array((0, 6)), c=None,
                          f=np.ones(6), g=np.zeros(0), pressure_mass=None)
    match = "velocity block" if k[1, 1] == 0.0 else "pivot"
    with pytest.raises(SingularMatrix, match=match):
        solve_saddle(system)
    superlu_route(monkeypatch)
    with pytest.raises(SingularMatrix, match=match):
        solve_saddle(system)


def test_dense_route_holds_one_schur_matrix(monkeypatch):
    # the bordered Schur matrix is written and factored in one array: the
    # traced peak stays under 1.5 copies of it plus the n_u × SCHUR_BLOCK
    # workspace (three copies of S at n=24 before the in-place route); the
    # multiplier's gamma block is sent to SuperLU, the dense route
    import tracemalloc

    import scipy.sparse.linalg  # noqa: F401  (imports are not the solve)
    superlu_route(monkeypatch)
    system = locking_system("multiplier", 24, 1e6)
    tracemalloc.start()
    try:
        solve_saddle(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1.5 * 8 * (system.n_p + 1) ** 2
                    + 8 * system.n_u * SCHUR_BLOCK)


def factor(system):
    from scipy.sparse.linalg import splu
    return splu(system.a.tocsc(), permc_spec="MMD_AT_PLUS_A")


def dense_schur(lu, b, c):
    """``schur_complement`` into a new Fortran-order n_p × n_p buffer, the
    buffer that both of its callers in the package pass."""
    return schur_complement(lu, b, c, np.empty((b.shape[0],) * 2, order="F"))


def with_asymmetric_c(system):
    """``system`` with a random sparse c whose transpose differs from it."""
    c = sp.random_array((system.n_p,) * 2, density=0.2, format="csr",
                        rng=np.random.default_rng(5))
    assert (c - c.T).count_nonzero()
    return dataclasses.replace(system, c=c)


@pytest.mark.parametrize("make, n_p", [
    (lambda: stokes_system("taylor-hood", 8), 81),     # blocks of 16 + 1
    (lambda: stokes_system("taylor-hood", 4), 25),     # 16 + 9
    (lambda: weakbc_system("nitsche", 4), 0),          # empty b
    (lambda: locking_system("multiplier", 8, 1e6), 147),   # c present
    (lambda: with_asymmetric_c(stokes_system("taylor-hood", 4)), 25),
], ids=["ragged", "single", "empty", "locking-c", "asymmetric-c"])
def test_schur_complement_matches_one_shot(make, n_p):
    system = make()
    assert system.n_p == n_p
    lu = factor(system)
    one_shot = system.b @ lu.solve(system.b.T.toarray())
    if system.c is not None:
        one_shot += system.c.toarray()
    blocked = dense_schur(lu, system.b, system.c)
    assert blocked.shape == (n_p, n_p)
    assert np.linalg.norm(blocked - one_shot) \
        <= 1e-13 * np.linalg.norm(one_shot)
    # the sliced columns of b^T and c reproduce the identity-column route
    # bit for bit
    assert np.array_equal(blocked,
                          identity_schur_complement(lu, system.b, system.c))


class RecordingFactor:
    """A SuperLU factor that records the shape of every right-hand side."""

    def __init__(self, lu, shapes):
        self._lu, self.shapes = lu, shapes

    def solve(self, rhs):
        self.shapes.append(np.shape(rhs))
        return self._lu.solve(rhs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_schur_solves_take_at_most_schur_block_columns(monkeypatch):
    import scipy.sparse.linalg
    real_splu = scipy.sparse.linalg.splu
    shapes = []
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda *args, **kw:
                        RecordingFactor(real_splu(*args, **kw), shapes))
    system = stokes_system("taylor-hood", 16)
    assert system.n_p == 289 == 18 * SCHUR_BLOCK + 1
    x, residual = solve_saddle(system)
    assert residual <= 1e-14
    # a = diag(K, K): each solve is one block of K with twice the columns,
    # so a block of b^T stays n_u × SCHUR_BLOCK doubles
    n_k = system.n_u // 2
    assert all(shape[0] == n_k for shape in shapes)
    widths = [shape[1] for shape in shapes]
    assert widths[0] == widths[-1] == 2         # a^{-1} f and a^{-1} (f - b^T p)
    assert widths[1:-1] == [2 * SCHUR_BLOCK] * 18 + [2]    # 289 = 18·16 + 1
    assert max(n_k * w for w in widths) <= SCHUR_BLOCK * system.n_u


@pytest.mark.parametrize("name, n", [
    *[(name, n) for name in stokes.method_names()[1:] for n in (4, 8)],
    ("taylor-hood", 16), ("p1p1-loss", 16)])
def test_pcg_route_matches_dense_schur_lu(name, n):
    system = stokes_system(name, n)
    x, residual, iterations = solve_saddle_pcg(system)
    x_lu, _ = solve_saddle(system)
    fields = slice(0, system.n_u + system.n_p)         # u and p, not mu
    assert np.linalg.norm(x[fields] - x_lu[fields]) \
        <= 1e-10 * np.linalg.norm(x_lu[fields])
    assert residual <= 1e-14
    assert 0 < iterations <= system.n_p


@pytest.mark.parametrize("name", ("taylor-hood", "mini", "p2p0",
                                  "p1p1-loss", "douglas-wang",
                                  "brezzi-pitkaranta", "galerkin-ls"))
def test_pcg_iterations_do_not_grow_with_n(name):
    # M + C is spectrally equivalent to S + C, with lower bound beta_h^2 for
    # a stable pair (C = 0, measured 18-34 at n = 8..64) and from the
    # stabilized inf-sup condition otherwise (measured 13-21 at n = 8..128;
    # 47-304 with M alone for p1p1-loss and douglas-wang)
    most = 40 if name in ("taylor-hood", "mini", "p2p0") else 30
    for n in (8, 16, 32):
        system = stokes_system(name, n)
        assert solve_saddle_pcg(system)[2] <= most


def test_pcg_that_does_not_converge_raises(monkeypatch):
    import scipy.sparse.linalg
    monkeypatch.setattr(scipy.sparse.linalg, "cg",
                        lambda op, rhs, **kw: (np.zeros_like(rhs), 1))
    system = stokes_system("taylor-hood", 4)
    with pytest.raises(np.linalg.LinAlgError, match="pressure CG"):
        solve_saddle_pcg(system)


def test_taylor_hood_solve_factors_velocity_and_pressure_mass_only(
        monkeypatch):
    import scipy.sparse.linalg
    from infsup_lab import assembly
    real_splu, shapes = scipy.sparse.linalg.splu, []

    def recording_splu(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_splu(a, *args, **kwargs)

    def no_dense_schur(*args):
        raise AssertionError("schur_complement called")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    monkeypatch.setattr(assembly, "schur_complement", no_dense_schur)
    method = stokes.method_from_name("th")
    system = stokes_system("th", 8)
    solution = stokes.solve(system, method)
    n_k = system.n_u // 2                  # a = diag(K, K), factored as K
    assert shapes == [(n_k, n_k), (system.n_p, system.n_p)]
    assert solution.cg_iterations > 0 and method.route == "schur-pcg"


@pytest.mark.parametrize("a", (np.diag([1.0, 0.0, 2.0]),
                               np.diag([1.0, 1e-17, 2.0]),
                               np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                         [0.0, 0.0, 1.0]])))
def test_singular_velocity_block_raises(a, monkeypatch):
    # an exact zero pivot is SuperLU's own error, a tiny one fails the
    # pivot contract; both surface as SingularMatrix (the tiny pivot's
    # stored diagonal is a 1×1 element-block matrix until SuperLU is forced)
    system = SaddleSystem(a=sp.csr_array(a), b=sp.csr_array((0, 3)), c=None,
                          f=np.ones(3), g=np.zeros(0), pressure_mass=None)
    with pytest.raises(SingularMatrix):
        solve_saddle(system)
    superlu_route(monkeypatch)
    with pytest.raises(SingularMatrix):
        solve_saddle(system)


# ---------------------------------------------------------------------------
# element-block factor (static condensation of an element-local field)
# ---------------------------------------------------------------------------

def superlu_route(monkeypatch):
    """Send every factor of ``sparse_lu`` to SuperLU: the oracle route."""
    from infsup_lab import assembly
    monkeypatch.setattr(assembly, "_element_blocks", lambda matrix: None)


def block_diagonal(blocks):
    """CSR of a block-diagonal matrix storing every entry of its blocks."""
    nb, k, _ = blocks.shape
    n = nb * k
    cols = (np.arange(n) // k * k)[:, None] + np.arange(k)
    return sp.csr_array((blocks.ravel(), cols.ravel(),
                         np.arange(n + 1) * k), shape=(n, n))


@pytest.mark.parametrize("lam", (1e2, 1e6, 1e10))
@pytest.mark.parametrize("n", (4, 8))
@pytest.mark.parametrize("name", ("multiplier", "multiplier-grad-div"))
def test_element_route_matches_superlu(name, n, lam, monkeypatch):
    # the sparse Schur route of an element-block factor against the dense
    # one, which SuperLU's factor of a takes
    system = locking_system(name, n, lam)
    lu = sparse_lu(system.a, "velocity block")
    assert lu.route == "element"
    a_inv = lu.solve(sp.eye_array(system.n_u, format="csr"))
    assert a_inv.nnz == system.a.nnz == 3 * system.n_u     # 3×3 blocks
    schur = dense_schur(lu, system.b, system.c)
    ref = dense_schur(factor(system), system.b, system.c)
    assert np.linalg.norm(schur - ref) <= 1e-10 * np.linalg.norm(ref)
    x, residual = solve_saddle(system)
    superlu_route(monkeypatch)
    x_ref, _ = solve_saddle(system)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert residual <= 1e-14


def test_element_schur_matches_the_dense_elimination():
    # selftest check 9: eliminating discontinuous gamma reproduces plain
    cfg = locking.LockingConfig(lambdas=(1e2,), n=4, method="multiplier")
    multiplier = locking.build(cfg, 1e2)
    system = multiplier.saddle
    schur = dense_schur(sparse_lu(system.a, "velocity block"),
                        system.b, system.c)
    b = system.b.toarray()
    dense = system.c.toarray() + b @ np.linalg.solve(system.a.toarray(), b.T)
    assert np.linalg.norm(schur - dense) <= 1e-13 * np.linalg.norm(dense)
    plain = locking.build_plain(cfg, multiplier.blocks,
                                1e2).saddle.full_matrix()
    assert np.linalg.norm(-schur - plain) <= 1e-12


@pytest.mark.parametrize("pivot, match", ((0.0, "velocity block: element "
                                           "block 1 is exactly singular"),
                                          (1e-17, "pivot")))
def test_element_route_keeps_the_pivot_contract(pivot, match):
    blocks = np.stack([np.eye(3) + 0.5, np.diag([1.0, pivot, 1.0]),
                       2.0 * np.eye(3)])
    blocks[1, 0, 2] = blocks[1, 2, 0] = 0.25
    if pivot == 0.0:
        blocks[1] = 0.0                      # stored, not dropped
    a = block_diagonal(blocks)
    assert _element_blocks(a) is not None
    with pytest.raises(SingularMatrix, match=match):
        sparse_lu(a, "velocity block")


def test_superlu_abort_becomes_one_fixed_text():
    # SuperLU's own text varies with where it stopped (it can name its
    # source file and line); the verdict names ``what`` and keeps the
    # original as the cause
    a = sp.csr_array(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0]]))
    with pytest.raises(SingularMatrix) as info:
        sparse_lu(a, "velocity block")
    assert str(info.value) == "velocity block: exactly singular (SuperLU)"
    assert isinstance(info.value.__cause__, RuntimeError)


def test_element_detection_falls_back_to_superlu():
    a = locking_system("multiplier", 4, 1e2).a
    n = a.shape[0]
    assert _element_blocks(a).shape == (n // 3, 3, 3)
    dropped = a.copy()
    dropped.data[4] = 0.0                    # an off-diagonal mass entry
    dropped.eliminate_zeros()
    coupling = a + sp.csr_array(([1e-3, 1e-3], ([0, 3], [3, 0])),
                                shape=a.shape)
    order = np.arange(n).reshape(-1, 3).T.ravel()     # blocks strided
    strided = sp.csr_array(a[order][:, order])
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((7, 7)) + 7.0 * np.eye(7)     # k = 7 > 6
    at_cap = rng.standard_normal((2, 6, 6)) + 6.0 * np.eye(6)
    assert _element_blocks(block_diagonal(at_cap)).shape == (2, 6, 6)
    for other in (dropped, coupling, strided, sp.csr_array(dense)):
        assert _element_blocks(other) is None
        lu = sparse_lu(other, "velocity block")
        assert lu.route == "superlu"
        rhs = rng.standard_normal(other.shape[0])
        x = lu.solve(rhs)
        assert np.linalg.norm(other @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_element_route_with_an_empty_schur_matrix(monkeypatch):
    # n=1: no free u or p dof, only gamma; the Schur matrix is 0 × 0
    config = locking.LockingConfig(lambdas=(1e2, 1e6), n=1,
                                   method="multiplier")
    system = locking.build(config, 1.0).saddle
    assert system.n_p == 0 and system.n_u == 12
    assert dense_schur(sparse_lu(system.a, "velocity block"),
                       system.b, system.c).shape == (0, 0)
    reports = [s.report for s in locking.lambda_sweep(config)]
    superlu_route(monkeypatch)
    assert reports == [s.report for s in locking.lambda_sweep(config)]
    assert all(r.solve_ok and r.u_h1_norm == 0.0 for r in reports)


def test_element_route_forms_no_dense_schur_matrix():
    # the Schur matrix of an element-block factor is a sparse product and
    # is factored sparse: the traced peak stays under 0.3 of the dense
    # bordered Schur array (0.19 measured at n=24; the dense route read
    # 1.14 here)
    import tracemalloc

    import scipy.sparse.linalg  # noqa: F401  (imports are not the solve)
    system = locking_system("multiplier", 24, 1e6)
    tracemalloc.start()
    try:
        solve_saddle(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * 8 * (system.n_p + 1) ** 2


def test_element_schur_factor_keeps_its_fill(monkeypatch):
    # SuperLU's symmetric mode keeps the minimum-degree order of the
    # condensed Schur matrix: 4.3 × nnz(S) at n=16 (34.6 × under partial
    # pivoting)
    factors = recorded_factors(monkeypatch)
    system = locking_system("multiplier", 16, 1e6)
    solve_saddle(system)
    [(schur, lu)] = factors
    assert schur.shape == (system.n_p, system.n_p)
    assert lu.nnz <= 10 * schur.nnz


def test_singular_condensed_schur_raises_on_both_routes(monkeypatch):
    # a repeated row of b repeats a row of b a^{-1} b^T (c = None): the
    # sparse Schur factor and the dense one both give the verdict
    system = locking_system("multiplier", 4, 1e2)
    b = sp.csr_array(sp.vstack([system.b, system.b[[0]]]))
    singular = SaddleSystem(a=system.a, b=b, c=None, f=system.f,
                            g=np.append(system.g, 1.0), pressure_mass=None)
    with pytest.raises(SingularMatrix):
        solve_saddle(singular)
    superlu_route(monkeypatch)
    with pytest.raises(SingularMatrix):
        solve_saddle(singular)


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_bordered_element_route_matches_the_dense_route(sign, monkeypatch):
    # an element-local a with a mean row: the sparse Schur matrix is
    # bordered by m = M 1 before it is factored; either sign of the
    # constraint load
    import dataclasses

    system = locking_system("multiplier", 4, 1e2)
    weights = np.random.default_rng(13).uniform(1.0, 2.0, system.n_p)
    bordered = dataclasses.replace(system, g=sign * system.g,
                                   pressure_mass=sp.diags_array(weights,
                                                                format="csr"))
    factors = recorded_factors(monkeypatch)
    x, residual = solve_saddle(bordered)
    assert [a.shape for a, _ in factors] == [(system.n_p + 1,) * 2]
    superlu_route(monkeypatch)
    x_ref, _ = solve_saddle(bordered)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert residual <= 1e-14


# ---------------------------------------------------------------------------
# the pivot contract's column scale and the solves of each route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", (4, 8))
def test_column_scale_matches_the_sparse_norm_route(n):
    # every block a pivot route sees: the Stokes velocity blocks (and the K
    # that SuperLU factors) and pressure preconditioners, the locking
    # eliminated and c blocks, the weak-bc systems
    stokes_systems = [stokes_system(name, n) for name in stokes.method_names()]
    locking_systems = [locking_system(name, n, 1e4)
                       for name in ("plain", "corrected-lumped",
                                    "corrected-consistent", "multiplier")]
    matrices = ([m for s in stokes_systems
                 for m in (s.a, _diagonal_half(s.a), s.pressure_mass
                           if s.c is None else s.pressure_mass + s.c)]
                + [m for s in locking_systems for m in (s.a, s.c)]
                + [weakbc_system(name, n).a for name in WEAKBC_METHODS])
    for m in matrices:
        assert column_scale(m) == column_scale_oracle(m)


def recorded_scales(monkeypatch, module):
    """The col_scale of every ``check_pivots`` call made from ``module``."""
    from infsup_lab.linalg import check_pivots
    scales = []

    def recording(pivots, col_scale):
        scales.append(col_scale)
        return check_pivots(pivots, col_scale)

    monkeypatch.setattr(module, "check_pivots", recording)
    return scales


def test_element_route_scale_is_the_blockwise_einsum(monkeypatch):
    from infsup_lab import assembly
    scales = recorded_scales(monkeypatch, assembly)
    rng = np.random.default_rng(11)
    for a in (locking_system("multiplier", 8, 1e4).a,
              block_diagonal(rng.standard_normal((5, 4, 4)))):
        blocks = _element_blocks(a)
        scales.clear()
        sparse_lu(a, "velocity block")
        assert scales == [float(np.sqrt(np.max(
            np.einsum("bij,bij->bj", blocks, blocks))))]


def test_dense_route_scale_is_the_columnwise_einsum(monkeypatch):
    from infsup_lab import assembly, linalg
    scales, expected = recorded_scales(monkeypatch, linalg), []
    real = assembly.dense_lu

    def recording(a):
        expected.append(float(np.sqrt(np.max(np.einsum("ij,ij->j", a, a)))))
        return real(a)

    monkeypatch.setattr(assembly, "dense_lu", recording)
    solve_saddle(locking_system("plain", 8, 1e4))
    assert len(expected) == 1 and scales == expected


def test_a_system_without_multiplier_rows_solves_once(monkeypatch):
    # nitsche: the first solve a^{-1} f is already u
    from infsup_lab import assembly
    real, calls = assembly.sparse_lu, []

    def counting(matrix, what):
        lu = real(matrix, what)

        def solve(rhs):
            calls.append(rhs.shape)
            return lu.solve(rhs)

        return dataclasses.replace(lu, solve=solve)

    monkeypatch.setattr(assembly, "sparse_lu", counting)
    system = weakbc_system("nitsche", 8)
    x, _ = solve_saddle(system)
    assert calls == [(system.n_u,)]
    assert np.array_equal(x, real(system.a, "a").solve(system.f))
