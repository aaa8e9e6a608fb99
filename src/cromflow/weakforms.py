"""Assembly of the per-component operators of the decomposed weak form.

For one reference component this produces the viscous matrix, the
divergence matrix, the pressure Laplacian (used only by the reduced
pressure stabilization), the single-sided Nitsche blocks for weak Dirichlet
boundaries, boundary load builders, and the nonlinear advection evaluator.
Interface coupling between two components is assembled once per
(component, component, orientation) configuration and reused for every
grid interface with that configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .femspace import P1_GRAD, TaylorHoodSpace, LINE_QP, LINE_QW
from .geometry import ComponentMesh, OBSTACLE_TAG, SIDES, match_side_faces


def penalty_strength(nu: float, degree: int = 2) -> float:
    """Interface/boundary penalty nu * (degree + 1)^2 for the velocity space.

    ``degree`` is the polynomial order of the penalized (velocity) space;
    the quadratic Taylor-Hood velocity gives 9 nu.  Weaker penalties leave
    the coupled viscous operator indefinite on component grids.
    """
    return nu * (degree + 1) ** 2


def _coo(rows, cols, vals, shape):
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsr()


def assemble_viscous(space: TaylorHoodSpace, nu: float) -> sp.csr_matrix:
    """Domain viscous matrix: nu * (grad u_test, grad u) on the component."""
    ke = nu * np.einsum("tq,tqac,tqbc->tab", space.qw, space.p2g_q, space.p2g_q)
    nd = space.tri_nodes
    rows = np.broadcast_to(nd[:, :, None], ke.shape)
    cols = np.broadcast_to(nd[:, None, :], ke.shape)
    ns = space.n_scalar
    return _coo(
        [rows.ravel(), rows.ravel() + ns],
        [cols.ravel(), cols.ravel() + ns],
        [ke.ravel(), ke.ravel()],
        (space.n_u, space.n_u),
    )


def assemble_divergence(space: TaylorHoodSpace) -> sp.csr_matrix:
    """Domain divergence matrix: -(p_test, div u) on the component."""
    be = -np.einsum("tq,qi,tqbc->tibc", space.qw, space.p1v_q, space.p2g_q)
    verts = space.mesh.triangles
    ns = space.n_scalar
    rows = np.broadcast_to(verts[:, :, None], be.shape[:3])
    cols = np.broadcast_to(space.tri_nodes[:, None, :], be.shape[:3])
    return _coo(
        [rows.ravel(), rows.ravel()],
        [cols.ravel(), cols.ravel() + ns],
        [be[..., 0].ravel(), be[..., 1].ravel()],
        (space.n_p, space.n_u),
    )


def assemble_pressure_mean(space: TaylorHoodSpace) -> np.ndarray:
    """Row vector of integrals of the P1 basis, for the mean-zero constraint."""
    me = np.einsum("tq,qi->ti", space.qw, space.p1v_q)
    out = np.zeros(space.n_p)
    np.add.at(out, space.mesh.triangles.ravel(), me.ravel())
    return out


def assemble_pressure_stiffness(space: TaylorHoodSpace) -> sp.csr_matrix:
    """Pressure Laplacian (grad p_test, grad p); P1 gradients are constant per triangle."""
    grads = np.einsum("id,tdc->tic", P1_GRAD, space.inv_jac)
    ke = np.einsum("t,tic,tjc->tij", space.qw.sum(axis=1), grads, grads)
    verts = space.mesh.triangles
    rows = np.broadcast_to(verts[:, :, None], ke.shape)
    cols = np.broadcast_to(verts[:, None, :], ke.shape)
    return _coo([rows.ravel()], [cols.ravel()], [ke.ravel()], (space.n_p, space.n_p))


class AdvectionKernel:
    """Evaluates the advection form (u_test, u . grad u) and its Jacobian."""

    def __init__(self, space: TaylorHoodSpace):
        self.space = space

    def value(self, u: np.ndarray) -> np.ndarray:
        s = self.space
        loc = s.local_velocity(u)
        uq = np.einsum("qa,tac->tqc", s.p2v_q, loc)
        gq = np.einsum("tqad,tac->tqcd", s.p2g_q, loc)
        aq = np.einsum("tqd,tqcd->tqc", uq, gq)
        fe = np.einsum("tq,qa,tqc->tac", s.qw, s.p2v_q, aq)
        out = np.zeros(s.n_u)
        nd = s.tri_nodes
        np.add.at(out, nd.ravel(), fe[:, :, 0].ravel())
        np.add.at(out, nd.ravel() + s.n_scalar, fe[:, :, 1].ravel())
        return out

    def jacobian(self, u: np.ndarray) -> sp.csr_matrix:
        s = self.space
        loc = s.local_velocity(u)
        uq = np.einsum("qa,tac->tqc", s.p2v_q, loc)
        gq = np.einsum("tqad,tac->tqcd", s.p2g_q, loc)
        # (test a,c; trial b,d): w * phi_a * (phi_b dd u_c + delta_cd u . grad phi_b)
        m1 = np.einsum("tq,qa,qb,tqcd->tacbd", s.qw, s.p2v_q, s.p2v_q, gq)
        conv = np.einsum("tqd,tqbd->tqb", uq, s.p2g_q)
        m2 = np.einsum("tq,qa,tqb->tab", s.qw, s.p2v_q, conv)
        m1[:, :, 0, :, 0] += m2
        m1[:, :, 1, :, 1] += m2
        nd = s.tri_nodes
        ns = s.n_scalar
        dof = np.stack([nd, nd + ns], axis=-1)             # (t, 6, 2)
        rows = np.broadcast_to(dof[:, :, :, None, None], m1.shape)
        cols = np.broadcast_to(dof[:, None, None, :, :], m1.shape)
        return sp.coo_matrix(
            (m1.ravel(), (rows.ravel(), cols.ravel())), shape=(s.n_u, s.n_u)
        ).tocsr()

    def basis_at_quad(self, phi: np.ndarray):
        """Basis columns evaluated at all volume quadrature points.

        Returns values (n_pts, R, 2) and gradients (n_pts, R, 2, 2) with
        points flattened in (triangle, local quadrature) order.
        """
        s = self.space
        ns = s.n_scalar
        phi = np.asarray(phi)
        locx = phi[:ns][s.tri_nodes]                       # (t, 6, R)
        locy = phi[ns:][s.tri_nodes]
        loc = np.stack([locx, locy], axis=-1)              # (t, 6, R, 2)
        vals = np.einsum("qa,tarc->tqrc", s.p2v_q, loc)
        grads = np.einsum("tqad,tarc->tqrcd", s.p2g_q, loc)
        n_pts = vals.shape[0] * vals.shape[1]
        return vals.reshape(n_pts, -1, 2), grads.reshape(n_pts, -1, 2, 2)

    @property
    def quad_weights(self) -> np.ndarray:
        return self.space.qw.reshape(-1)

    @property
    def n_points(self) -> int:
        return self.space.qw.size

    def point_ids(self):
        """(element id, local quadrature index) for the flattened point order."""
        t = self.space.qw.shape[0]
        q = self.space.qw.shape[1]
        return np.repeat(np.arange(t), q), np.tile(np.arange(q), t)


@dataclass
class BoundaryLoadBuilder:
    """Linear maps from boundary-data samples to load vectors of one side.

    Data samples are the velocity values at the side's face quadrature
    points, flattened row-major as (point, component).  ``dirichlet_u``
    already combines the penalty and Nitsche consistency terms.
    """

    xy: np.ndarray                 # (q_total, 2) quadrature points, local coords
    dirichlet_u: sp.csr_matrix     # (n_u, 2 q_total); dense once projected
    dirichlet_p: sp.csr_matrix     # (n_p, 2 q_total)
    neumann_u: sp.csr_matrix       # (n_u, 2 q_total)

    def eval_data(self, g: Callable, origin=np.zeros(2)) -> np.ndarray:
        return np.asarray(g(self.xy + origin), dtype=float).reshape(-1)

    def dirichlet_loads(self, g: Callable, origin=np.zeros(2)):
        gv = self.eval_data(g, origin)
        return self.dirichlet_u @ gv, self.dirichlet_p @ gv

    def neumann_load(self, g: Callable, origin=np.zeros(2)) -> np.ndarray:
        return self.neumann_u @ self.eval_data(g, origin)


@dataclass
class ComponentOperators:
    """All assembled per-component blocks for one reference component."""

    space: TaylorHoodSpace
    nu: float
    gamma: float
    K: sp.csr_matrix
    B: sp.csr_matrix
    K_di: dict                     # side/obstacle tag -> csr (n_u, n_u)
    B_di: dict                     # side/obstacle tag -> csr (n_p, n_u)
    loads: dict                    # side/obstacle tag -> BoundaryLoadBuilder
    adv: AdvectionKernel
    pressure_mean: np.ndarray = field(repr=False, default=None)
    pressure_stiffness: sp.csr_matrix = field(repr=False, default=None)

    @property
    def C(self) -> sp.csr_matrix:
        """Pressure block of the saddle system: empty at full order."""
        return sp.csr_matrix((self.space.n_p, self.space.n_p))

    def forcing_load(self, f: Callable, origin=np.zeros(2)) -> np.ndarray:
        """Body-force load (u_test, f) with f given in global coordinates."""
        s = self.space
        fv = np.asarray(f(s.qxy.reshape(-1, 2) + origin), dtype=float)
        fv = fv.reshape(s.qxy.shape)
        fe = np.einsum("tq,qa,tqc->tac", s.qw, s.p2v_q, fv)
        out = np.zeros(s.n_u)
        np.add.at(out, s.tri_nodes.ravel(), fe[:, :, 0].ravel())
        np.add.at(out, s.tri_nodes.ravel() + s.n_scalar, fe[:, :, 1].ravel())
        return out


def _dirichlet_face_terms(space, fd, nu, gamma):
    """Single-sided Nitsche matrices and load maps for one boundary face."""
    ndg = nu * np.einsum("c,qac->qa", fd.normal, fd.p2g)     # nu n . grad phi
    pen = gamma / fd.length
    a = (
        -np.einsum("q,qa,qb->ab", fd.w, ndg, fd.p2v)
        - np.einsum("q,qa,qb->ab", fd.w, fd.p2v, ndg)
        + pen * np.einsum("q,qa,qb->ab", fd.w, fd.p2v, fd.p2v)
    )
    b = np.einsum("q,qi,qb,c->ibc", fd.w, fd.p1v, fd.p2v, fd.normal)
    # load maps: columns indexed by (point, data component); the consistency
    # part carries the sign that cancels the symmetrizing term at u = g
    lu = np.einsum("q,qa->qa", fd.w, pen * fd.p2v - ndg)     # (q, a): same for both comps
    lne = np.einsum("q,qa->qa", fd.w, fd.p2v)
    lp = np.einsum("q,qi,c->qci", fd.w, fd.p1v, fd.normal)
    return a, b, lu, lne, lp


def _side_faces(mesh: ComponentMesh, tag: str):
    if tag == OBSTACLE_TAG:
        return [b for b, t in enumerate(mesh.boundary_tags) if t == OBSTACLE_TAG]
    return list(mesh.side_trace[tag])


def assemble_dirichlet_blocks(space: TaylorHoodSpace, tag: str, nu: float, gamma: float):
    """Nitsche velocity/divergence blocks for one tagged boundary (side or O)."""
    ns, n_u, n_p = space.n_scalar, space.n_u, space.n_p
    kr, kc, kv = [], [], []
    br, bc, bv = [], [], []
    for bedge in _side_faces(space.mesh, tag):
        fd = space.face_data(bedge)
        a, b, _, _, _ = _dirichlet_face_terms(space, fd, nu, gamma)
        nd = space.tri_nodes[fd.tri]
        rows = np.broadcast_to(nd[:, None], a.shape)
        cols = np.broadcast_to(nd[None, :], a.shape)
        for off in (0, ns):
            kr.append(rows.ravel() + off)
            kc.append(cols.ravel() + off)
            kv.append(a.ravel())
        verts = space.mesh.triangles[fd.tri]
        prows = np.broadcast_to(verts[:, None], b.shape[:2])
        pcols = np.broadcast_to(nd[None, :], b.shape[:2])
        for c, off in enumerate((0, ns)):
            br.append(prows.ravel())
            bc.append(pcols.ravel() + off)
            bv.append(b[:, :, c].ravel())
    if not kr:
        return sp.csr_matrix((n_u, n_u)), sp.csr_matrix((n_p, n_u))
    return _coo(kr, kc, kv, (n_u, n_u)), _coo(br, bc, bv, (n_p, n_u))


def build_load_builder(space: TaylorHoodSpace, tag: str, nu: float, gamma: float) -> BoundaryLoadBuilder:
    faces = _side_faces(space.mesh, tag)
    nq = LINE_QP.size
    n_cols = 2 * nq * len(faces)
    xy = np.zeros((nq * len(faces), 2))
    ur, uc, uv = [], [], []
    nr, nc, nv = [], [], []
    pr, pc, pv = [], [], []
    ns = space.n_scalar
    for f, bedge in enumerate(faces):
        fd = space.face_data(bedge)
        _, _, lu, lne, lp = _dirichlet_face_terms(space, fd, nu, gamma)
        xy[f * nq : (f + 1) * nq] = fd.xy
        nd = space.tri_nodes[fd.tri]
        verts = space.mesh.triangles[fd.tri]
        pts = f * nq + np.arange(nq)
        for c, off in enumerate((0, ns)):
            cols = np.broadcast_to((2 * pts + c)[None, :], (6, nq))
            rows = np.broadcast_to(nd[:, None], (6, nq))
            ur.append(rows.ravel() + off)
            uc.append(cols.ravel())
            uv.append(lu.T.ravel())
            nr.append(rows.ravel() + off)
            nc.append(cols.ravel())
            nv.append(lne.T.ravel())
            pr.append(np.broadcast_to(verts[:, None], (3, nq)).ravel())
            pc.append(np.broadcast_to((2 * pts + c)[None, :], (3, nq)).ravel())
            pv.append(lp[:, c, :].T.ravel())
    shape_u = (space.n_u, n_cols)
    shape_p = (space.n_p, n_cols)
    if not faces:
        return BoundaryLoadBuilder(
            xy, sp.csr_matrix(shape_u), sp.csr_matrix(shape_p), sp.csr_matrix(shape_u)
        )
    return BoundaryLoadBuilder(
        xy,
        _coo(ur, uc, uv, shape_u),
        _coo(pr, pc, pv, shape_p),
        _coo(nr, nc, nv, shape_u),
    )


def assemble_rhs(ops: ComponentOperators, bc: dict, forcing=None, origin=np.zeros(2)):
    """Right-hand side vectors (L, L_u, L_p) for one component.

    ``bc`` maps a subset of sides to ("dirichlet", g) or ("neumann", g/None);
    obstacle walls are homogeneous Dirichlet and contribute nothing here.
    """
    n_u, n_p = ops.space.n_u, ops.space.n_p
    L = np.zeros(n_u) if forcing is None else ops.forcing_load(forcing, origin)
    L_u, L_p = np.zeros(n_u), np.zeros(n_p)
    for side, (kind, g) in bc.items():
        if kind == "dirichlet":
            lu, lp = ops.loads[side].dirichlet_loads(g, origin)
            L_u += lu
            L_p += lp
        elif kind == "neumann":
            if g is not None:
                L_u += ops.loads[side].neumann_load(g, origin)
        else:
            raise ValueError(f"unknown bc kind {kind!r}")
    return L, L_u, L_p


def build_component_operators(space: TaylorHoodSpace, nu: float, gamma=None) -> ComponentOperators:
    if gamma is None:
        gamma = penalty_strength(nu)
    tags = list(SIDES)
    if any(t == OBSTACLE_TAG for t in space.mesh.boundary_tags):
        tags.append(OBSTACLE_TAG)
    K_di, B_di, loads = {}, {}, {}
    for tag in tags:
        K_di[tag], B_di[tag] = assemble_dirichlet_blocks(space, tag, nu, gamma)
        loads[tag] = build_load_builder(space, tag, nu, gamma)
    return ComponentOperators(
        space=space,
        nu=nu,
        gamma=gamma,
        K=assemble_viscous(space, nu),
        B=assemble_divergence(space),
        K_di=K_di,
        B_di=B_di,
        loads=loads,
        adv=AdvectionKernel(space),
        pressure_mean=assemble_pressure_mean(space),
        pressure_stiffness=assemble_pressure_stiffness(space),
    )


@dataclass
class InterfaceBlocks:
    """Coupling blocks of one (component, component, orientation) configuration."""

    K: dict                        # ("mm"|"mn"|"nm"|"nn") -> csr (n_u_i, n_u_j)
    B: dict                        # same keys -> csr (n_p_i, n_u_j)


def assemble_interface_blocks(
    space_m: TaylorHoodSpace,
    space_n: TaylorHoodSpace,
    orientation: str,
    nu: float,
    gamma=None,
) -> InterfaceBlocks:
    """Symmetric interior penalty coupling across one interface configuration.

    The fixed face normal points from m into n; jumps are (value on m) minus
    (value on n) and averages carry factor 1/2 from each side.
    """
    if gamma is None:
        gamma = penalty_strength(nu)
    pairs = match_side_faces(space_m.mesh, space_n.mesh, orientation)
    normal = np.array([1.0, 0.0]) if orientation == "H" else np.array([0.0, 1.0])
    axis = 1 if orientation == "H" else 0           # coordinate varying along the face
    level_m, level_n = 1.0, 0.0                      # fixed coordinate on each side

    spaces = {"m": space_m, "n": space_n}
    sign = {"m": 1.0, "n": -1.0}
    acc = {
        (s, t): ([], [], []) for s in ("m", "n") for t in ("m", "n")
    }
    acc_b = {(s, t): ([], [], []) for s in ("m", "n") for t in ("m", "n")}

    for bm, bn in pairs:
        em = space_m.mesh.boundary_edges[bm]
        lo, hi = np.sort(space_m.mesh.vertices[em, axis])
        coord = lo + LINE_QP * (hi - lo)
        dx = hi - lo
        xy = {
            "m": np.column_stack([np.full_like(coord, level_m), coord])
            if orientation == "H"
            else np.column_stack([coord, np.full_like(coord, level_m)]),
            "n": np.column_stack([np.full_like(coord, level_n), coord])
            if orientation == "H"
            else np.column_stack([coord, np.full_like(coord, level_n)]),
        }
        fd = {
            "m": space_m.face_data_at(bm, xy["m"]),
            "n": space_n.face_data_at(bn, xy["n"]),
        }
        w = LINE_QW * dx
        ndg = {
            s: nu * np.einsum("c,qac->qa", normal, fd[s].p2g) for s in ("m", "n")
        }
        for s in ("m", "n"):
            for t in ("m", "n"):
                a = (
                    -0.5 * sign[t] * np.einsum("q,qa,qb->ab", w, ndg[s], fd[t].p2v)
                    - 0.5 * sign[s] * np.einsum("q,qa,qb->ab", w, fd[s].p2v, ndg[t])
                    + (gamma / dx) * sign[s] * sign[t]
                    * np.einsum("q,qa,qb->ab", w, fd[s].p2v, fd[t].p2v)
                )
                b = 0.5 * sign[t] * np.einsum(
                    "q,qi,qb,c->ibc", w, fd[s].p1v, fd[t].p2v, normal
                )
                nd_s = spaces[s].tri_nodes[fd[s].tri]
                nd_t = spaces[t].tri_nodes[fd[t].tri]
                rows = np.broadcast_to(nd_s[:, None], a.shape)
                cols = np.broadcast_to(nd_t[None, :], a.shape)
                r, c, v = acc[(s, t)]
                for off_s, off_t in ((0, 0), (spaces[s].n_scalar, spaces[t].n_scalar)):
                    r.append(rows.ravel() + off_s)
                    c.append(cols.ravel() + off_t)
                    v.append(a.ravel())
                verts_s = spaces[s].mesh.triangles[fd[s].tri]
                prows = np.broadcast_to(verts_s[:, None], b.shape[:2])
                pcols = np.broadcast_to(nd_t[None, :], b.shape[:2])
                rb, cb, vb = acc_b[(s, t)]
                for comp, off_t in enumerate((0, spaces[t].n_scalar)):
                    rb.append(prows.ravel())
                    cb.append(pcols.ravel() + off_t)
                    vb.append(b[:, :, comp].ravel())

    K = {}
    Bd = {}
    for s in ("m", "n"):
        for t in ("m", "n"):
            r, c, v = acc[(s, t)]
            K[s + t] = _coo(r, c, v, (spaces[s].n_u, spaces[t].n_u))
            rb, cb, vb = acc_b[(s, t)]
            Bd[s + t] = _coo(rb, cb, vb, (spaces[s].n_p, spaces[t].n_u))
    return InterfaceBlocks(K=K, B=Bd)


# --- operator cache file (CROMOP1) ----------------------------------------


def save_operator_cache(ops: ComponentOperators, path) -> None:
    """Cache the sparse matrix blocks of one component (coordinate format)."""
    from . import _binio

    mats = {"K": ops.K, "B": ops.B}
    for tag, m in ops.K_di.items():
        mats[f"K_di:{tag}"] = m
    for tag, m in ops.B_di.items():
        mats[f"B_di:{tag}"] = m
    _binio.write_sparse_dict(path, b"CROMOP1\x00", mats)


def load_operator_cache(path) -> dict:
    from . import _binio

    return _binio.read_sparse_dict(path, b"CROMOP1\x00")
