"""Scalar and vector Lagrange-type spaces on triangles, plus quadrature.

Supported local bases (per scalar component):

* ``P0``        -- one constant per triangle
* ``P1``        -- vertex hat functions
* ``P1_BUBBLE`` -- P1 enriched with the cubic bubble 27*l1*l2*l3
* ``P2``        -- six-node quadratic (vertices + edge midpoints)

Vector-valued spaces store dofs component-major: global dof
``c * n_scalar_dofs + scalar_dof`` for component c.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


LOCAL_DOFS = {
    ElementKind.P0: 1,
    ElementKind.P1: 3,
    ElementKind.P1_DISC: 3,
    ElementKind.P1_BUBBLE: 4,
    ElementKind.P2: 6,
}


# ---------------------------------------------------------------------------
# quadrature on the reference triangle (barycentric points, weights sum to 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    degree: int                  # highest polynomial degree integrated exactly
    points: np.ndarray           # (nq, 3) barycentric coordinates
    weights: np.ndarray          # (nq,) summing to one


def _expand_symmetric(a: float, w: float):
    """The three cyclic permutations of (a, b, b) with b = (1-a)/2."""
    b = 0.5 * (1.0 - a)
    pts = [(a, b, b), (b, a, b), (b, b, a)]
    return pts, [w] * 3


def _rule_six_point() -> QuadratureRule:
    pts, wts = [], []
    for a, w in [(0.108103018168070, 0.223381589678011),
                 (0.816847572980459, 0.109951743655322)]:
        p, ws = _expand_symmetric(a, w)
        pts += p
        wts += ws
    return QuadratureRule(4, np.array(pts), np.array(wts))


def _rule_twelve_point() -> QuadratureRule:
    pts, wts = [], []
    for a, w in [(0.501426509658179, 0.116786275726379),
                 (0.873821971016996, 0.050844906370207)]:
        p, ws = _expand_symmetric(a, w)
        pts += p
        wts += ws
    a, b, c = 0.053145049844816, 0.310352451033785, 0.636502499121399
    w = 0.082851075618374
    for perm in [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
        pts.append(perm)
        wts.append(w)
    return QuadratureRule(6, np.array(pts), np.array(wts))


_RULES = (_rule_six_point(), _rule_twelve_point())


def quadrature(degree: int) -> QuadratureRule:
    """Smallest stocked rule exact for polynomials of the given degree: the
    6-point rule up to degree 4, the 12-point rule for 5 and 6."""
    if not 0 <= degree <= 6:
        raise UnsupportedDegree(f"no quadrature rule for degree {degree}")
    return next(rule for rule in _RULES if rule.degree >= degree)


# ---------------------------------------------------------------------------
# reference shape functions
# ---------------------------------------------------------------------------

def shape_values(kind: ElementKind, points) -> np.ndarray:
    """Basis values at barycentric ``points``; shape (..., n_local)."""
    lam = np.asarray(points, dtype=float)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    if kind is ElementKind.P0:
        vals = [np.ones_like(l1)]
    elif kind in (ElementKind.P1, ElementKind.P1_DISC):
        vals = [l1, l2, l3]
    elif kind is ElementKind.P1_BUBBLE:
        vals = [l1, l2, l3, 27.0 * l1 * l2 * l3]
    elif kind is ElementKind.P2:
        vals = [l1 * (2 * l1 - 1), l2 * (2 * l2 - 1), l3 * (2 * l3 - 1),
                4 * l1 * l2, 4 * l2 * l3, 4 * l3 * l1]
    else:
        raise ValueError(f"unknown element kind {kind}")
    return np.stack(vals, axis=-1)


def shape_gradients_bary(kind: ElementKind, points) -> np.ndarray:
    """d(basis)/d(lambda) at barycentric ``points``; shape (..., n_local, 3).

    Multiply by a triangle's ``grad_lambda`` (3, 2) to get physical gradients.
    """
    lam = np.asarray(points, dtype=float)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    zero = np.zeros_like(l1)
    one = np.ones_like(l1)
    if kind is ElementKind.P0:
        rows = [[zero, zero, zero]]
    elif kind in (ElementKind.P1, ElementKind.P1_DISC):
        rows = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    elif kind is ElementKind.P1_BUBBLE:
        rows = [[one, zero, zero], [zero, one, zero], [zero, zero, one],
                [27 * l2 * l3, 27 * l1 * l3, 27 * l1 * l2]]
    elif kind is ElementKind.P2:
        rows = [[4 * l1 - 1, zero, zero],
                [zero, 4 * l2 - 1, zero],
                [zero, zero, 4 * l3 - 1],
                [4 * l2, 4 * l1, zero],
                [zero, 4 * l3, 4 * l2],
                [4 * l3, zero, 4 * l1]]
    else:
        raise ValueError(f"unknown element kind {kind}")
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


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
        return LOCAL_DOFS[self.kind]

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
    if components not in (1, 2):
        raise ValueError("components must be 1 or 2")
    n_nodes = mesh.n_nodes
    n_tris = mesh.n_triangles
    boundary_nodes = np.unique(mesh.boundary_edges[:, :2])

    if kind is ElementKind.P0:
        cell = np.arange(n_tris, dtype=np.int64)[:, None]
        bdofs = np.zeros(0, dtype=np.int64)
        n_scalar = n_tris
    elif kind is ElementKind.P1:
        cell = mesh.triangles.copy()
        bdofs = boundary_nodes
        n_scalar = n_nodes
    elif kind is ElementKind.P1_DISC:
        cell = np.arange(3 * n_tris, dtype=np.int64).reshape(n_tris, 3)
        bdofs = np.zeros(0, dtype=np.int64)       # purely L2-conforming
        n_scalar = 3 * n_tris
    elif kind is ElementKind.P1_BUBBLE:
        bubble = n_nodes + np.arange(n_tris, dtype=np.int64)
        cell = np.column_stack([mesh.triangles, bubble])
        bdofs = boundary_nodes           # the bubble vanishes on all edges
        n_scalar = n_nodes + n_tris
    elif kind is ElementKind.P2:
        cell = np.column_stack([mesh.triangles, n_nodes + mesh.cell_edges])
        boundary_eids = np.flatnonzero(~mesh.interior_mask())
        bdofs = np.concatenate([boundary_nodes, n_nodes + boundary_eids])
        n_scalar = n_nodes + mesh.n_edges
    else:
        raise ValueError(f"unknown element kind {kind}")

    return FeSpace(kind=kind, mesh=mesh, components=components,
                   n_scalar_dofs=n_scalar, scalar_cell_dofs=cell,
                   scalar_boundary_dofs=np.sort(bdofs))


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
    values = np.einsum("qb,tcb->tqc", shape_values(space.kind, rule.points),
                       local)
    bary = np.einsum("qbl,tcb->tqcl",                         # (B, nq, c, 3)
                     shape_gradients_bary(space.kind, rule.points), local)
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
