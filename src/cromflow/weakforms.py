"""Assembly of the per-component operators of the decomposed weak form.

For one reference component this produces the viscous matrix, the
divergence matrix, the pressure Laplacian (used only by the reduced
pressure stabilization), the single-sided Nitsche blocks for weak Dirichlet
boundaries and no-slip obstacle walls, the Dirichlet load builders of the
four sides, and the nonlinear advection evaluator.
Interface coupling between two components is assembled once per
(component, component, orientation) configuration and reused for every
grid interface with that configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .femspace import P1_GRAD, TaylorHoodSpace, LINE_QP, LINE_QW
from .geometry import ComponentMesh, OBSTACLE_TAG, SIDES, match_side_faces


def penalty_strength(nu: float) -> float:
    """Interface/boundary penalty nu * (k + 1)^2 = 9 nu for the quadratic
    (k = 2) Taylor-Hood velocity.

    Weaker penalties leave the coupled viscous operator indefinite on
    component grids.
    """
    return nu * 9


class Triplets:
    """Coordinate entries of one sparse matrix, gathered block by block.

    :meth:`tocsr` sums duplicate entries; the order in which blocks are
    added fixes the order of those sums.  :meth:`tocoo` gives the same
    entries in COO form, which :meth:`add` places without a conversion.
    """

    def __init__(self, shape):
        self.shape = shape
        self.rows, self.cols, self.vals = [], [], []

    def add(self, mat, row_off, col_off):
        """One whole matrix at an offset.

        Sparse blocks contribute their stored entries; dense blocks
        contribute every entry, so the pattern does not depend on the values.
        """
        if sp.issparse(mat):
            coo = mat.tocoo()  # the matrix itself when it is COO
            rows, cols, vals = coo.row, coo.col, coo.data
        else:
            nr, nc = mat.shape
            rows, cols = np.repeat(np.arange(nr), nc), np.tile(np.arange(nc), nr)
            vals = np.asarray(mat).ravel()
        self.rows.append(rows + row_off)
        self.cols.append(cols + col_off)
        self.vals.append(vals)

    def add_elements(self, rows, cols, vals, offsets=((0, 0),)):
        """Element blocks: ``vals[..., a, b]`` at ``(rows[..., a], cols[..., b])``.

        The blocks are placed once per (row, column) offset, e.g.
        ``((0, 0), (ns, ns))`` for both velocity components.  ``vals`` is one
        array for every offset or a list with one array per offset.
        """
        per_offset = vals if isinstance(vals, list) else [vals] * len(offsets)
        shape = per_offset[0].shape
        r = np.broadcast_to(rows[..., :, None], shape).ravel()
        c = np.broadcast_to(cols[..., None, :], shape).ravel()
        for (row_off, col_off), v in zip(offsets, per_offset):
            self.rows.append(r + row_off)
            self.cols.append(c + col_off)
            self.vals.append(v.ravel())

    def tocsr(self) -> sp.csr_matrix:
        if not self.vals:
            return sp.csr_matrix(self.shape)
        return sp.coo_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=self.shape,
        ).tocsr()

    def tocoo(self) -> sp.coo_matrix:
        """The summed entries in row-major order."""
        return self.tocsr().tocoo()


def assemble_viscous(space: TaylorHoodSpace, nu: float) -> sp.coo_matrix:
    """Domain viscous matrix: nu * (grad u_test, grad u) on the component."""
    ke = nu * np.einsum("tq,tqac,tqbc->tab", space.qw, space.p2g_q, space.p2g_q)
    ns = space.n_scalar
    K = Triplets((space.n_u, space.n_u))
    K.add_elements(space.tri_nodes, space.tri_nodes, ke, ((0, 0), (ns, ns)))
    return K.tocoo()


def assemble_divergence(space: TaylorHoodSpace) -> sp.coo_matrix:
    """Domain divergence matrix: -(p_test, div u) on the component."""
    be = -np.einsum("tq,qi,tqbc->tibc", space.qw, space.p1v_q, space.p2g_q)
    B = Triplets((space.n_p, space.n_u))
    B.add_elements(
        space.mesh.triangles,
        space.tri_nodes,
        [be[..., 0], be[..., 1]],
        ((0, 0), (0, space.n_scalar)),
    )
    return B.tocoo()


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
    A = Triplets((space.n_p, space.n_p))
    A.add_elements(space.mesh.triangles, space.mesh.triangles, ke)
    return A.tocsr()


class AdvectionKernel:
    """Evaluates the advection form (u_test, u . grad u) and its Jacobian.

    Both are computed element by element for a stack of M velocity states
    on the space, ``U`` of shape (M, n_u); callers scatter the element
    arrays by :attr:`element_dofs`.  The quadrature weights times basis
    products are precomputed, so an evaluation is a few batched matrix
    products over the elements.
    """

    def __init__(self, space: TaylorHoodSpace):
        self.space = space
        nd = space.tri_nodes
        # velocity dof of (element, component c, node a)
        self.element_dofs = np.stack([nd, nd + space.n_scalar], axis=1)  # (t, 2, 6)
        phi = space.p2v_q.T                                              # (6, q)
        t, q = space.qw.shape
        self._w_phi = space.qw[:, None, :] * phi                         # (t, 6, q)
        # w phi_a phi_b, (t, q, 36) with (a, b) flattened
        self._w_phi2 = np.einsum("taq,bq->tqab", self._w_phi, phi).reshape(t, q, 36)
        # physical gradients d_d phi_a, as (t, a, (d, q)) and (t, d, a, q)
        self._grad_d = np.ascontiguousarray(space.p2g_q.transpose(0, 3, 2, 1))
        self._grad = self._grad_d.transpose(0, 2, 1, 3).reshape(t, 6, 2 * q)

    def _at_quad(self, U: np.ndarray):
        """Values (M, t, 2, q) and gradients (M, t, 2, 2, q), indexed [c, q]
        and [c, d, q] for d_d u_c, of the states ``U``."""
        loc = U[:, self.element_dofs]                                    # (M, t, 2, 6)
        M, t = loc.shape[:2]
        uq = (loc.reshape(-1, 6) @ self.space.p2v_q.T).reshape(M, t, 2, -1)
        gq = (loc @ self._grad).reshape(M, t, 2, 2, -1)
        return uq, gq

    def element_values(self, U: np.ndarray) -> np.ndarray:
        """Element vectors (M, t, 2, 6) of the advection term, indexed
        [component c, node a]."""
        uq, gq = self._at_quad(U)
        aq = gq[:, :, :, 0] * uq[:, :, None, 0] + gq[:, :, :, 1] * uq[:, :, None, 1]
        return aq @ self._w_phi.transpose(0, 2, 1)

    def element_jacobians(self, U: np.ndarray) -> np.ndarray:
        """Element Jacobians (M, t, 2, 2, 6, 6) of the advection term,
        indexed [test component c, trial component d, test node a, trial
        node b]: w phi_a (phi_b d_d u_c + delta_cd u . grad phi_b)."""
        uq, gq = self._at_quad(U)
        M, t = uq.shape[:2]
        jac = gq.reshape(M, t, 4, -1) @ self._w_phi2                     # (M, t, 4, 36)
        conv = self._grad_d[:, 0] * uq[:, :, None, 0] + self._grad_d[:, 1] * uq[:, :, None, 1]
        diag = (self._w_phi @ conv.transpose(0, 1, 3, 2)).reshape(M, t, 36)
        jac[:, :, 0] += diag
        jac[:, :, 3] += diag
        return jac.reshape(M, t, 2, 2, 6, 6)

    def value(self, u: np.ndarray) -> np.ndarray:
        """The assembled advection term of one state."""
        fe = self.element_values(u[None])[0]
        return np.bincount(self.element_dofs.ravel(), weights=fe.ravel(), minlength=self.space.n_u)

    @cached_property
    def jacobian_pattern(self):
        """CSC pattern of the assembled Jacobian on the space.

        Returns (indptr, indices, position): ``position`` gives, for each
        entry of :meth:`element_jacobians` of one state in C order, its
        place in the CSC data.
        """
        n, dofs = self.space.n_u, self.element_dofs
        shape = dofs.shape[:2] + (2, 6, 6)
        rows = np.broadcast_to(dofs[:, :, None, :, None], shape)
        cols = np.broadcast_to(dofs[:, None, :, None, :], shape)
        keys, position = np.unique((cols * n + rows).ravel(), return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(keys // n, minlength=n))
        return indptr, keys % n, position

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
    """Linear maps from Dirichlet data samples to the loads of one side.

    Data samples are the velocity values at the side's face quadrature
    points, flattened row-major as (point, component).  ``dirichlet_u``
    already combines the penalty and Nitsche consistency terms.
    """

    xy: np.ndarray                 # (q_total, 2) quadrature points, local coords
    dirichlet_u: sp.csr_matrix     # (n_u, 2 q_total); dense once projected
    dirichlet_p: sp.csr_matrix     # (n_p, 2 q_total)

    def dirichlet_loads(self, g: Callable, origin=np.zeros(2)):
        gv = np.asarray(g(self.xy + origin), dtype=float).reshape(-1)
        return self.dirichlet_u @ gv, self.dirichlet_p @ gv


@dataclass
class ComponentOperators:
    """All assembled per-component blocks for one reference component.

    The blocks that global assembly places (``K``, ``B``, ``C``, ``K_di``,
    ``B_di``) are kept in COO form, built once per component.  Outflow sides
    are homogeneous and obstacle walls no-slip, so only the four sides have
    load builders, for their Dirichlet data.
    """

    space: TaylorHoodSpace
    K: sp.coo_matrix
    B: sp.coo_matrix
    C: sp.coo_matrix               # pressure block of the saddle system: empty
    K_di: dict                     # side/obstacle tag -> coo (n_u, n_u)
    B_di: dict                     # side/obstacle tag -> coo (n_p, n_u)
    loads: dict                    # side -> BoundaryLoadBuilder
    adv: AdvectionKernel
    pressure_mean: np.ndarray = field(repr=False, default=None)
    pressure_stiffness: sp.csr_matrix = field(repr=False, default=None)

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


def _dirichlet_face_terms(fd, nu, gamma):
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
    lp = np.einsum("q,qi,c->qci", fd.w, fd.p1v, fd.normal)
    return a, b, lu, lp


def _side_faces(mesh: ComponentMesh, tag: str):
    if tag == OBSTACLE_TAG:
        return [b for b, t in enumerate(mesh.boundary_tags) if t == OBSTACLE_TAG]
    return list(mesh.side_trace[tag])


def assemble_dirichlet_blocks(space: TaylorHoodSpace, tag: str, nu: float, gamma: float):
    """Nitsche blocks and Dirichlet load maps of one tagged boundary (side or O).

    Returns ``(K_di, B_di, BoundaryLoadBuilder)``; each face's terms are
    computed once.
    """
    ns, n_u, n_p = space.n_scalar, space.n_u, space.n_p
    faces = _side_faces(space.mesh, tag)
    nq = LINE_QP.size
    n_cols = 2 * nq * len(faces)
    xy = np.zeros((nq * len(faces), 2))
    K, B = Triplets((n_u, n_u)), Triplets((n_p, n_u))
    load_u, load_p = Triplets((n_u, n_cols)), Triplets((n_p, n_cols))
    for f, bedge in enumerate(faces):
        fd = space.face_data(bedge)
        a, b, lu, lp = _dirichlet_face_terms(fd, nu, gamma)
        xy[f * nq : (f + 1) * nq] = fd.xy
        nd = space.tri_nodes[fd.tri]
        verts = space.mesh.triangles[fd.tri]
        cols = 2 * (f * nq + np.arange(nq))             # data column (point, x-component)
        K.add_elements(nd, nd, a, ((0, 0), (ns, ns)))
        B.add_elements(verts, nd, [b[:, :, 0], b[:, :, 1]], ((0, 0), (0, ns)))
        load_u.add_elements(nd, cols, lu.T, ((0, 0), (ns, 1)))
        load_p.add_elements(verts, cols, [lp[:, 0, :].T, lp[:, 1, :].T], ((0, 0), (0, 1)))
    return K.tocoo(), B.tocoo(), BoundaryLoadBuilder(xy, load_u.tocsr(), load_p.tocsr())


def build_component_operators(space: TaylorHoodSpace, nu: float) -> ComponentOperators:
    gamma = penalty_strength(nu)
    tags = list(SIDES)
    if any(t == OBSTACLE_TAG for t in space.mesh.boundary_tags):
        tags.append(OBSTACLE_TAG)
    blocks = {tag: assemble_dirichlet_blocks(space, tag, nu, gamma) for tag in tags}
    return ComponentOperators(
        space=space,
        K=assemble_viscous(space, nu),
        B=assemble_divergence(space),
        C=sp.coo_matrix((space.n_p, space.n_p)),
        K_di={tag: K_di for tag, (K_di, _, _) in blocks.items()},
        B_di={tag: B_di for tag, (_, B_di, _) in blocks.items()},
        # a no-slip wall carries no data
        loads={side: blocks[side][2] for side in SIDES},
        adv=AdvectionKernel(space),
        pressure_mean=assemble_pressure_mean(space),
        pressure_stiffness=assemble_pressure_stiffness(space),
    )


@dataclass
class InterfaceBlocks:
    """Coupling blocks of one (component, component, orientation) configuration:
    sparse at full order, dense once projected onto reduced bases."""

    K: dict                        # ("mm"|"mn"|"nm"|"nn") -> coo or dense (n_u_i, n_u_j)
    B: dict                        # same keys -> coo or dense (n_p_i, n_u_j)


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
    sides = [(s, t) for s in ("m", "n") for t in ("m", "n")]
    K = {(s, t): Triplets((spaces[s].n_u, spaces[t].n_u)) for s, t in sides}
    B = {(s, t): Triplets((spaces[s].n_p, spaces[t].n_u)) for s, t in sides}

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
        for s, t in sides:
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
            ns_t = spaces[t].n_scalar
            K[s, t].add_elements(nd_s, nd_t, a, ((0, 0), (spaces[s].n_scalar, ns_t)))
            verts_s = spaces[s].mesh.triangles[fd[s].tri]
            B[s, t].add_elements(verts_s, nd_t, [b[:, :, 0], b[:, :, 1]], ((0, 0), (0, ns_t)))

    return InterfaceBlocks(
        K={s + t: K[s, t].tocoo() for s, t in sides},
        B={s + t: B[s, t].tocoo() for s, t in sides},
    )
