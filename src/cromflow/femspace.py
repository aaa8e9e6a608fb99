"""Taylor-Hood finite element spaces on component meshes.

Velocity is continuous piecewise-quadratic (P2, vector valued), pressure
continuous piecewise-linear (P1).  Velocity dofs are blocked: the x values
of all scalar nodes first, then the y values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ComponentMesh, MeshError

# 7-point triangle rule, exact for polynomial degree 5.  Weights sum to the
# reference-triangle area 1/2.
_S15 = np.sqrt(15.0)
_A1 = (6.0 + _S15) / 21.0
_A2 = (6.0 - _S15) / 21.0
TRI_QP = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0],
        [_A1, _A1],
        [1.0 - 2.0 * _A1, _A1],
        [_A1, 1.0 - 2.0 * _A1],
        [_A2, _A2],
        [1.0 - 2.0 * _A2, _A2],
        [_A2, 1.0 - 2.0 * _A2],
    ]
)
TRI_QW = np.array(
    [9.0 / 80.0]
    + [(155.0 + _S15) / 2400.0] * 3
    + [(155.0 - _S15) / 2400.0] * 3
)

# 3-point Gauss rule on [0, 1], exact for degree 5.
_G = np.sqrt(0.6)
LINE_QP = np.array([0.5 * (1.0 - _G), 0.5, 0.5 * (1.0 + _G)])
LINE_QW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def p2_shape(pts: np.ndarray) -> np.ndarray:
    """P2 shape values at reference points (..., 2) -> (..., 6).

    Node order: three vertices, then midpoints of edges (0,1), (1,2), (2,0).
    """
    pts = np.asarray(pts, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    z = 1.0 - x - y
    return np.stack(
        [z * (2 * z - 1), x * (2 * x - 1), y * (2 * y - 1), 4 * z * x, 4 * x * y, 4 * y * z],
        axis=-1,
    )


def p2_grad(pts: np.ndarray) -> np.ndarray:
    """Reference gradients of the P2 shape functions, (..., 6, 2)."""
    pts = np.asarray(pts, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    zero = np.zeros_like(x)
    gx = np.stack(
        [4 * x + 4 * y - 3, 4 * x - 1, zero, 4 - 8 * x - 4 * y, 4 * y, -4 * y], axis=-1
    )
    gy = np.stack(
        [4 * x + 4 * y - 3, zero, 4 * y - 1, -4 * x, 4 * x, 4 - 4 * x - 8 * y], axis=-1
    )
    return np.stack([gx, gy], axis=-1)


def p1_shape(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([1.0 - x - y, x, y], axis=-1)


P1_GRAD = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass
class FaceData:
    """Trace of one boundary edge: quadrature and owner-element basis data."""

    xy: np.ndarray        # (q, 2) points on the edge, component-local coords
    w: np.ndarray         # (q,) physical quadrature weights
    p2v: np.ndarray       # (q, 6) P2 values of the owning triangle
    p2g: np.ndarray       # (q, 6, 2) physical P2 gradients
    p1v: np.ndarray       # (q, 3) P1 values
    tri: int              # owning triangle
    normal: np.ndarray    # outward unit normal
    length: float


class TaylorHoodSpace:
    """P2/P1 pair on one component mesh with precomputed assembly data."""

    def __init__(self, mesh: ComponentMesh):
        self.mesh = mesh
        tris = mesh.triangles
        n_v = mesh.n_vertices

        # unique edges and the per-triangle edge map in local midpoint order
        pair_index = {}
        tri_edges = np.empty((tris.shape[0], 3), dtype=np.int64)
        edge_pairs = []
        for t, (i, j, k) in enumerate(tris):
            for loc, (a, b) in enumerate(((i, j), (j, k), (k, i))):
                key = (min(a, b), max(a, b))
                if key not in pair_index:
                    pair_index[key] = len(edge_pairs)
                    edge_pairs.append(key)
                tri_edges[t, loc] = pair_index[key]
        self.edges = np.asarray(edge_pairs, dtype=np.int64)
        self.tri_nodes = np.hstack([tris, n_v + tri_edges])
        midpoints = 0.5 * (mesh.vertices[self.edges[:, 0]] + mesh.vertices[self.edges[:, 1]])
        self.node_xy = np.vstack([mesh.vertices, midpoints])

        self.n_scalar = self.node_xy.shape[0]
        self.n_u = 2 * self.n_scalar
        self.n_p = n_v

        v0 = mesh.vertices[tris[:, 0]]
        jac = np.stack(
            [mesh.vertices[tris[:, 1]] - v0, mesh.vertices[tris[:, 2]] - v0], axis=-1
        )  # (t, 2, 2), columns are edge vectors
        self.det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        self.inv_jac = inv / self.det[:, None, None]
        self._v0 = v0

        # volume quadrature caches
        self.qw = TRI_QW[None, :] * self.det[:, None]          # (t, q)
        self.qxy = v0[:, None, :] + np.einsum(
            "qd,tcd->tqc", TRI_QP, jac
        )                                                       # (t, q, 2)
        self.p2v_q = p2_shape(TRI_QP)                           # (q, 6)
        ref_grad = p2_grad(TRI_QP)                              # (q, 6, 2)
        self.p2g_q = np.einsum("qad,tdc->tqac", ref_grad, self.inv_jac)
        self.p1v_q = p1_shape(TRI_QP)                           # (q, 3)

        # boundary edge -> owning triangle
        owner = {}
        for t, (i, j, k) in enumerate(tris):
            for a, b in ((i, j), (j, k), (k, i)):
                owner.setdefault((min(a, b), max(a, b)), []).append(t)
        self._bedge_tri = []
        for b, (i, j) in enumerate(mesh.boundary_edges):
            tris_here = owner.get((min(i, j), max(i, j)), [])
            if len(tris_here) != 1:
                raise MeshError(f"boundary edge {b} is not a conforming mesh boundary")
            self._bedge_tri.append(tris_here[0])
        self._face_cache = {}

    # -- element-level evaluation -------------------------------------------

    def eval_basis(self, tri: int, ref_pts: np.ndarray):
        """P2/P1 values and physical P2 gradients at reference points of one triangle."""
        ref_pts = np.atleast_2d(ref_pts)
        p2v = p2_shape(ref_pts)
        p2g = np.einsum("qad,dc->qac", p2_grad(ref_pts), self.inv_jac[tri])
        return p2v, p2g, p1_shape(ref_pts)

    def to_reference(self, tri: int, xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        return (xy - self._v0[tri]) @ self.inv_jac[tri].T

    def face_data(self, bedge: int) -> FaceData:
        """Quadrature and basis traces for one boundary edge (cached)."""
        if bedge in self._face_cache:
            return self._face_cache[bedge]
        i, j = self.mesh.boundary_edges[bedge]
        pa, pb = self.mesh.vertices[i], self.mesh.vertices[j]
        xy = pa[None, :] + LINE_QP[:, None] * (pb - pa)[None, :]
        fd = self.face_data_at(bedge, xy)
        self._face_cache[bedge] = fd
        return fd

    def face_data_at(self, bedge: int, xy: np.ndarray) -> FaceData:
        """Like :meth:`face_data` but at caller-specified points on the edge.

        The returned weights assume the standard Gauss points of the full
        edge; callers supplying other points must use their own weights.
        """
        i, j = self.mesh.boundary_edges[bedge]
        pa, pb = self.mesh.vertices[i], self.mesh.vertices[j]
        tangent = pb - pa
        length = float(np.linalg.norm(tangent))
        tri = self._bedge_tri[bedge]
        ref = self.to_reference(tri, xy)
        p2v, p2g, p1v = self.eval_basis(tri, ref)
        normal = np.array([tangent[1], -tangent[0]]) / length
        centroid = self.mesh.vertices[self.mesh.triangles[tri]].mean(axis=0)
        if normal @ (centroid - 0.5 * (pa + pb)) > 0:
            normal = -normal
        w = LINE_QW * length
        return FaceData(np.atleast_2d(xy), w, p2v, p2g, p1v, tri, normal, length)

    # -- interpolation and norms --------------------------------------------

    def interpolate_velocity(self, f) -> np.ndarray:
        vals = np.asarray(f(self.node_xy), dtype=float).reshape(self.n_scalar, 2)
        return np.concatenate([vals[:, 0], vals[:, 1]])

    def interpolate_pressure(self, f) -> np.ndarray:
        return np.asarray(f(self.mesh.vertices), dtype=float).reshape(self.n_p)

    def velocity_at_quad(self, u: np.ndarray) -> np.ndarray:
        """Velocity dof vector -> values at all volume quadrature points (t, q, 2)."""
        loc = self.local_velocity(u)
        return np.einsum("qa,tac->tqc", self.p2v_q, loc)

    def local_velocity(self, u: np.ndarray) -> np.ndarray:
        ns = self.n_scalar
        comps = np.stack([u[:ns][self.tri_nodes], u[ns:][self.tri_nodes]], axis=-1)
        return comps  # (t, 6, 2)

    def velocity_l2(self, u: np.ndarray, exact=None) -> float:
        vals = self.velocity_at_quad(u)
        if exact is not None:
            pts = self.qxy.reshape(-1, 2)
            vals = vals - np.asarray(exact(pts), dtype=float).reshape(vals.shape)
        return float(np.sqrt(np.einsum("tq,tqc,tqc->", self.qw, vals, vals)))

    def pressure_l2(self, p: np.ndarray, exact=None) -> float:
        loc = p[self.mesh.triangles]
        vals = np.einsum("qa,ta->tq", self.p1v_q, loc)
        if exact is not None:
            pts = self.qxy.reshape(-1, 2)
            vals = vals - np.asarray(exact(pts), dtype=float).reshape(vals.shape)
        return float(np.sqrt(np.einsum("tq,tq,tq->", self.qw, vals, vals)))
