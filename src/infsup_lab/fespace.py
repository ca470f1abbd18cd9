"""Scalar and vector finite element spaces on triangles, plus quadrature.

Each ``ElementKind`` is one ``Element`` record of ``ELEMENTS``: its basis as
polynomials in the barycentric coordinates and its dof count per vertex,
edge and cell.  From that table ``moments`` gives the exact means of the
products of two bases and their derivatives (the volume forms), ``tabulate``
evaluates any basis at points (the loads and errors, by quadrature), and
``build_space`` numbers the dofs of any kind by entity.

Vector-valued spaces store dofs component-major: global dof
``c * n_scalar_dofs + scalar_dof`` for component c.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, cell_geometry


class UnsupportedDegree(ValueError):
    """Requested quadrature degree outside the implemented range."""


class ElementKind(enum.Enum):
    P0 = "p0"
    P1 = "p1"
    P1_DISC = "p1-disc"          # elementwise P1, no interelement continuity
    P1_BUBBLE = "p1-bubble"
    P2 = "p2"


# ---------------------------------------------------------------------------
# quadrature on the reference triangle (barycentric points, 15-digit tables)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    degree: int                  # highest polynomial degree integrated exactly
    points: np.ndarray           # (nq, 3) barycentric coordinates
    weights: np.ndarray          # (nq,) summing to 1 - 1e-15 or 1 + 2e-15


def _symmetric_rule(degree: int, threes, sixes) -> QuadratureRule:
    """The points (a, b, b), b = (1 - a) / 2, in their three cyclic orders
    per (a, w) of ``threes``, then the six orders of (a, b, c) per (a, b, c,
    w) of ``sixes``, each of weight w."""
    pts, wts = [], []
    for a, w in threes:
        b = 0.5 * (1.0 - a)
        pts += [(a, b, b), (b, a, b), (b, b, a)]
        wts += [w] * 3
    for *abc, w in sixes:
        pts += list(itertools.permutations(abc))
        wts += [w] * 6
    return QuadratureRule(degree, np.array(pts), np.array(wts))


_RULES = (_symmetric_rule(4, [(0.108103018168070, 0.223381589678011),
                              (0.816847572980459, 0.109951743655322)], []),
          _symmetric_rule(6, [(0.501426509658179, 0.116786275726379),
                              (0.873821971016996, 0.050844906370207)],
                          [(0.053145049844816, 0.310352451033785,
                            0.636502499121399, 0.082851075618374)]))


def quadrature(degree: int) -> QuadratureRule:
    """Smallest stocked rule exact for polynomials of the given degree: the
    6-point rule up to degree 4, the 12-point rule for 5 and 6."""
    if not 0 <= degree <= 6:
        raise UnsupportedDegree(f"no quadrature rule for degree {degree}")
    return next(rule for rule in _RULES if rule.degree >= degree)


# ---------------------------------------------------------------------------
# reference shape functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Element:
    """One element kind as data: its ``basis``, one polynomial ``{(a, b,
    c): coef}`` over l1^a l2^b l3^c per local dof, in the local order
    (vertex dofs, dofs of edges (v0,v1), (v1,v2), (v2,v0), cell dofs), and
    its dof count per ``vertex``, ``edge`` and ``cell``.

    The constructor lists the terms coef l^e of the basis functions and of
    their derivatives d(l^e)/dl_k = e_k l^(e - 1_k): ``powers`` (T, 3),
    ``coefs`` (T,), and ``slots`` (T, n_local, 4), which adds each term to
    its function's value (slot 0) or d/dl_k (slot 1 + k).
    """

    basis: tuple
    vertex: int
    edge: int
    cell: int
    powers: np.ndarray = field(init=False)
    coefs: np.ndarray = field(init=False)
    slots: np.ndarray = field(init=False)

    def __post_init__(self):
        terms = [(power, coef, b, 0) for b, poly in enumerate(self.basis)
                 for power, coef in poly.items()]
        terms += [(power[:k] + (e - 1,) + power[k + 1:], coef * e, b, 1 + k)
                  for power, coef, b, _ in terms
                  for k, e in enumerate(power) if e]
        powers, coefs, functions, slots = zip(*terms)
        one_hot = np.zeros((len(terms), len(self.basis), 4))
        one_hot[np.arange(len(terms)), functions, slots] = 1.0
        object.__setattr__(self, "powers", np.array(powers))
        object.__setattr__(self, "coefs", np.array(coefs))
        object.__setattr__(self, "slots", one_hot)


_P1 = ({(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}, {(0, 0, 1): 1.0})

ELEMENTS = {
    ElementKind.P0: Element(({(0, 0, 0): 1.0},), vertex=0, edge=0, cell=1),
    ElementKind.P1: Element(_P1, vertex=1, edge=0, cell=0),
    ElementKind.P1_DISC: Element(_P1, vertex=0, edge=0, cell=3),
    ElementKind.P1_BUBBLE: Element(_P1 + ({(1, 1, 1): 27.0},),   # 27 l1 l2 l3
                                   vertex=1, edge=0, cell=1),
    ElementKind.P2: Element((   # l_i (2 l_i - 1), then 4 l_i l_j on the edges
        {(2, 0, 0): 2.0, (1, 0, 0): -1.0}, {(0, 2, 0): 2.0, (0, 1, 0): -1.0},
        {(0, 0, 2): 2.0, (0, 0, 1): -1.0},
        {(1, 1, 0): 4.0}, {(0, 1, 1): 4.0}, {(1, 0, 1): 4.0}),
        vertex=1, edge=1, cell=0),
}


def moments(row_kind: ElementKind, col_kind: ElementKind) -> np.ndarray:
    """Exact means over a triangle of D_l phi_b D_m psi_c, (4, 4, n_row,
    n_col), D_0 the value and D_k d/dl_k: coefficients of pairs of terms
    times the mean of l1^a l2^b l3^c, 2 a! b! c! / (a + b + c + 2)!."""
    rows, cols = ELEMENTS[row_kind], ELEMENTS[col_kind]
    e = rows.powers[:, None] + cols.powers[None]                  # (S, T, 3)
    factorial = np.cumprod([1.0, *range(1, e.sum(axis=-1).max() + 3)])
    means = 2.0 * factorial[e].prod(axis=-1) / factorial[e.sum(axis=-1) + 2]
    return np.einsum("s,t,st,sbl,tcm->lmbc", rows.coefs, cols.coefs, means,
                     rows.slots, cols.slots)


def tabulate(kind: ElementKind, points) -> tuple[np.ndarray, np.ndarray]:
    """Basis values (..., n_local) and d(basis)/d(lambda) (..., n_local, 3)
    at barycentric ``points`` (..., 3), from ``ELEMENTS[kind]``'s terms,
    each evaluated as ((coef l1^a) l2^b) l3^c by products (``**`` would
    load numpy's power loop, about 60 KB of RSS per run).  A triangle's
    ``grad_lambda`` (3, 2) maps the derivatives to physical gradients."""
    element, lam = ELEMENTS[kind], np.asarray(points, dtype=float)
    table = [np.ones_like(lam), lam]                 # l^0, l^1, l^2 = l l
    while len(table) <= element.powers.max():
        table.append(table[-1] * lam)
    f = np.stack(table, axis=-1)[..., range(3), element.powers]  # (..., T, 3)
    terms = element.coefs * f[..., 0] * f[..., 1] * f[..., 2]
    return (np.einsum("...t,tb->...b", terms, element.slots[..., 0]),
            np.einsum("...t,tbl->...bl", terms, element.slots[..., 1:]))


# ---------------------------------------------------------------------------
# global spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeSpace:
    """Global dof management for one element kind on one mesh."""

    kind: ElementKind
    mesh: Mesh
    components: int
    n_scalar_dofs: int
    scalar_cell_dofs: np.ndarray   # (n_triangles, n_local)
    scalar_boundary_dofs: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.components * self.n_scalar_dofs

    @property
    def n_local(self) -> int:
        return len(ELEMENTS[self.kind].basis)

    @property
    def cell_dofs(self) -> np.ndarray:
        """(n_triangles, components * n_local), component-major."""
        blocks = [c * self.n_scalar_dofs + self.scalar_cell_dofs
                  for c in range(self.components)]
        return np.concatenate(blocks, axis=1)

    @property
    def boundary_dofs(self) -> np.ndarray:
        """Sorted global dofs whose basis functions are nonzero on the boundary."""
        blocks = [c * self.n_scalar_dofs + self.scalar_boundary_dofs
                  for c in range(self.components)]
        return np.sort(np.concatenate(blocks))

    def free_dofs(self) -> np.ndarray:
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        return np.flatnonzero(mask)

    def extend_by_zero(self, free_values: np.ndarray) -> np.ndarray:
        """Full-length coefficients from values on ``free_dofs()``, zero on
        the boundary dofs (homogeneous Dirichlet data)."""
        out = np.zeros(self.n_dofs)
        out[self.free_dofs()] = free_values
        return out


def build_space(kind: ElementKind, mesh: Mesh, components: int = 1) -> FeSpace:
    """The space of ``kind`` on ``mesh``, its dofs numbered by entity, k
    in a row per entity: vertex dofs first, by node (dof i at node i), then
    edge dofs by edge, then cell dofs by cell.  The boundary dofs are the
    vertex and edge dofs on boundary nodes and edges."""
    if components not in (1, 2):
        raise ValueError("components must be 1 or 2")
    element, cells = ELEMENTS[kind], np.arange(mesh.n_triangles)
    offset, columns, bdofs = 0, [], []
    for k, count, entities, boundary in [
            (element.vertex, mesh.n_nodes, mesh.triangles,
             np.unique(mesh.boundary_edges[:, :2])),
            (element.edge, mesh.n_edges, mesh.cell_edges,
             np.flatnonzero(~mesh.interior_mask())),
            (element.cell, mesh.n_triangles, cells[:, None], cells[:0])]:
        local = np.arange(k)
        columns.append(offset + (k * entities[..., None] + local).reshape(
            mesh.n_triangles, -1))
        bdofs.append(offset + (k * boundary[:, None] + local).ravel())
        offset += k * count
    return FeSpace(kind=kind, mesh=mesh, components=components,
                   n_scalar_dofs=offset,
                   scalar_cell_dofs=np.concatenate(columns, axis=1),
                   scalar_boundary_dofs=np.sort(np.concatenate(bdofs)))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def quadrature_points(mesh: Mesh, rule: QuadratureRule) -> np.ndarray:
    """(T, nq, 2) physical positions of the rule's points in every cell."""
    return np.einsum("qk,tkd->tqd", rule.points, mesh.nodes[mesh.triangles])


def fields_at_quadrature(space: FeSpace, coeffs, rule: QuadratureRule,
                         cells: slice):
    """Values and physical gradients at the quadrature points of the block
    ``cells`` of B triangles (``slice(None)``: all of them).

    Returns ``(points, values, gradients)`` with shapes ``(B, nq, 2)``,
    ``(B, nq, components)`` and ``(B, nq, components, 2)``; the gradients
    pass through (B, nq, components, 3), not a (B, nq, n_local, 2) table.
    """
    mesh = space.mesh
    points = np.einsum("qk,tkd->tqd", rule.points,
                       mesh.nodes[mesh.triangles[cells]])
    dofs = space.scalar_cell_dofs[cells]
    local = np.stack([component[dofs] for component in      # (B, c, nb)
                      np.reshape(coeffs, (space.components, -1))], axis=1)
    shapes, derivatives = tabulate(space.kind, rule.points)
    values = np.einsum("qb,tcb->tqc", shapes, local)
    bary = np.einsum("qbl,tcb->tqcl", derivatives, local)      # (B, nq, c, 3)
    return points, values, np.einsum("tqcl,tld->tqcd", bary,
                                     cell_geometry(mesh, cells)[1])


#: cells per block of ``field_errors``.  Its traced peak is 16 (B, nq)
#: float arrays for a vector P2 field (0.38 MB at nq = 12), whatever the
#: mesh; the time at n = 32 ... 128 was the same at 256, 512 and 1024 cells
ERROR_BLOCK = 256


def field_errors(space: FeSpace, coeffs, exact, exact_grad):
    """(L2, H1-seminorm) error of a field against the callables ``exact``
    and ``exact_grad`` of (..., 2) points, by degree-6 quadrature, in place,
    summed over blocks of ERROR_BLOCK cells, so that no temporary grows
    with the mesh."""
    rule, mesh = quadrature(6), space.mesh
    l2 = h1 = 0.0
    for start in range(0, mesh.n_triangles, ERROR_BLOCK):
        cells = slice(start, start + ERROR_BLOCK)
        pts, dv, dg = fields_at_quadrature(space, coeffs, rule, cells)
        w = np.outer(cell_geometry(mesh, cells)[0], rule.weights)  # (B, nq)
        dv -= np.reshape(exact(pts), dv.shape)
        l2 += np.einsum("tq,tqc->", w, np.square(dv, out=dv))
        del dv                               # before exact_grad allocates
        dg -= np.reshape(exact_grad(pts), dg.shape)
        h1 += np.einsum("tq,tqcd->", w, np.square(dg, out=dg))
        del pts, dg, w
    return float(np.sqrt(l2)), float(np.sqrt(h1))


def interior_edge_pairs(mesh: Mesh, kind: ElementKind):
    """(left, right) dofs of a P0 or P1 field across each interior edge:
    the two cells that share it (P0) or its two end vertices (P1)."""
    if kind is ElementKind.P0:
        pairs = mesh.edge_tris[mesh.interior_mask()]
    elif kind is ElementKind.P1:
        pairs = mesh.edges[mesh.interior_mask()]
    else:
        raise ValueError("interior-edge pairs are defined for P0/P1 fields")
    return pairs[:, 0], pairs[:, 1]
