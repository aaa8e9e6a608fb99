"""Empirical quadrature for the reduced advection term.

A sparse non-negative reweighting of the component's quadrature points is
trained so that the projected advection integrals of all training snapshots
are reproduced within a relative threshold.  The weights come from a
Lawson-Hanson active-set iteration stopped as soon as the threshold is met,
which favors small support over least-squares optimality.  The iteration
runs on the Gram matrix of the constraints, formed once, with a Cholesky
factor of the passive block that grows by one row per entering column and
is refactored once per step back (least squares where that block is
singular).  It tests its stop by the residual identity at the passive
solution and confirms it by the exact residual, so the loop forms a
product with the constraint rows only to confirm a stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import _binio
from .reduction import SnapshotSet, basis_checksum
from .weakforms import ComponentOperators

RULE_MAGIC = b"CROMEQP3"

# a Cholesky pivot of the passive Gram block at or below this share of its
# diagonal entry is roundoff: that column lies in the span of the others
_SINGULAR_PIVOT = 1e-13


class EqpError(RuntimeError):
    """Raised when the weight training cannot reach its residual target."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass
class EqpManifest:
    """Constraint system for one component: G w = d over quadrature weights.

    Row (b, s) of G holds the unit-weight contribution of every quadrature
    point to the projection of snapshot s's advection onto basis column b;
    d holds the full-quadrature values, so G @ w_full == d.
    """

    component: str
    G: np.ndarray                # (R * S, n_points)
    d: np.ndarray                # (R * S,)
    w_full: np.ndarray           # (n_points,)
    n_basis: int
    n_snapshots: int


@dataclass
class EqpRule:
    """Sparse positive quadrature rule with the velocity basis data at its points.

    ``phi_u_checksum`` is the :func:`~cromflow.reduction.basis_checksum` of
    the velocity basis that data was taken from.
    """

    component: str
    element_ids: np.ndarray      # (n,) int
    local_ids: np.ndarray        # (n,) int, quadrature index within the element
    weights: np.ndarray          # (n,) strictly positive
    eps: float                   # trained relative threshold
    residual: float              # achieved relative residual
    n_basis: int
    basis_values: np.ndarray = field(repr=False, default=None)    # (n, R, 2)
    basis_grads: np.ndarray = field(repr=False, default=None)     # (n, R, 2, 2)
    phi_u_checksum: str = ""
    _layouts: tuple = field(repr=False, default=None, init=False, compare=False)

    def __post_init__(self):
        if not np.all((self.weights > 0.0) & np.isfinite(self.weights)):
            raise ValueError("EQP weights must be finite and strictly positive")
        if self.eps > 0 and not self.residual <= self.eps * (1.0 + 1e-9):
            raise ValueError(
                f"stored residual {self.residual:.3e} violates threshold {self.eps:.3e}"
            )

    @property
    def n_points(self) -> int:
        return self.weights.size

    def layouts(self):
        """The basis data as matrices for the stacked kernels.

        Returns ``basis`` (2n, 4, R), whose rows for point q and velocity
        component c are phi_0, phi_1, d_0 phi_c and d_1 phi_c, and the
        weighted test values (R, 2n), w_q phi_c at column (q, c).  Derived on
        first use and again whenever ``basis_values`` is replaced.
        """
        if self._layouts is None or self._layouts[0] is not self.basis_values:
            v = self.basis_values
            n, r = v.shape[:2]
            basis = np.empty((n, 2, 4, r))
            basis[:, :, :2] = v.transpose(0, 2, 1)[:, None]
            basis[:, :, 2:] = self.basis_grads.transpose(0, 2, 3, 1)
            test = np.ascontiguousarray((self.weights[:, None, None] * v).transpose(1, 0, 2))
            self._layouts = (v, basis.reshape(2 * n, 4, r), test.reshape(r, 2 * n))
        return self._layouts[1:]


def build_manifest(
    ops: ComponentOperators, phi_u: np.ndarray, snapshots: SnapshotSet
) -> EqpManifest:
    """Assemble the EQP constraint matrix from basis columns and the
    velocity snapshots of one component.

    G has one row per (snapshot, basis column) and one column per
    quadrature point.  It is allocated once and each snapshot's rows are
    written into it, so the scratch beside G is one snapshot's block.  It
    is Fortran-ordered: ``d = G @ w_full`` and the NNLS products round
    according to that layout, and the stored rules depend on their bits.
    """
    U = snapshots.U
    vals, _ = ops.adv.basis_at_quad(phi_u)          # (n_pts, R, 2)
    w_full = ops.adv.quad_weights
    space = ops.space
    r = phi_u.shape[1]
    s_count = U.shape[1]
    G = np.empty((s_count * r, w_full.size), order="F")   # rows grouped (s, b)
    for s in range(s_count):
        loc = space.local_velocity(U[:, s])
        uq = np.einsum("qa,tac->tqc", space.p2v_q, loc).reshape(-1, 2)
        gq = np.einsum("tqad,tac->tqcd", space.p2g_q, loc).reshape(-1, 2, 2)
        aq = np.einsum("qd,qcd->qc", uq, gq)          # u . grad u per point
        G[s * r : (s + 1) * r] = np.einsum("qbc,qc->bq", vals, aq)
    d = G @ w_full
    return EqpManifest(
        component=snapshots.component,
        G=G,
        d=d,
        w_full=w_full,
        n_basis=r,
        n_snapshots=s_count,
    )


def nnls(G: np.ndarray, d: np.ndarray, rel_tol: float = 0.0):
    """Non-negative least squares by Lawson-Hanson active sets, early-stopped.

    With ``rel_tol > 0`` the active-set loop terminates as soon as
    ||G w - d|| <= rel_tol ||d||, trading least-squares optimality for a
    small support; :class:`EqpError` is raised when even the NNLS optimum
    misses that target.  With ``rel_tol = 0`` it runs to the NNLS optimum.
    Ties in column selection break to the lowest index.  The outer loop
    runs at most 3 n times for n columns.

    The loop works on the Gram matrix A = GᵀG and b = Gᵀd, formed once
    (Bro & De Jong, J. Chemometrics 11, 1997).  The passive columns are
    kept in the order they entered, with their rows of A in one buffer and
    the lower Cholesky factor of their Gram block in another: an entering
    column appends one row to the factor by a triangular solve, and a step
    back that drops columns refactors the kept block once.  The gradient is
    b minus the passive rows of A weighted by the passive solution z.  At
    that solution the residual norm is sqrt(||d||² - b_P·z), which the loop
    tests instead of forming G w; a stop it allows is confirmed by the exact
    ||G_P z - d||, and the loop goes on when that misses the target.  A
    passive block whose new pivot is roundoff (a column in the span of the
    others) is solved by least squares until a step back makes it
    independent again.
    """
    G = np.asarray(G, dtype=float)
    d = np.asarray(d, dtype=float)
    n = G.shape[1]
    d_norm = float(np.linalg.norm(d))
    target = rel_tol * d_norm
    w = np.zeros(n)
    if d_norm == 0.0 or (rel_tol > 0 and d_norm <= target):
        return w

    A = G.T @ G
    b = G.T @ d
    grad_tol = 1e-12 * max(np.abs(b).max(), 1.0)
    # passive columns in entry order: idx[:m], their rows of A, and the
    # lower Cholesky factor L[:m, :m] of A[idx[:m]][:, idx[:m]]
    idx = np.empty(n, dtype=np.intp)
    rows = np.empty((n, n))
    L = np.zeros((n, n))
    m = 0
    z = np.zeros(0)
    factored = True

    def residual():
        return float(np.linalg.norm(G[:, idx[:m]] @ z - d))

    at_optimum = False
    for _ in range(3 * n):
        grad = b - z @ rows[:m]
        grad[idx[:m]] = -np.inf
        k = int(np.argmax(grad))
        if grad[k] <= grad_tol:
            at_optimum = True
            break
        if factored:
            col = sla.solve_triangular(L[:m, :m], rows[:m, k], lower=True, check_finite=False)
            L[m, :m] = col
            L[m, m] = np.sqrt(max(A[k, k] - col @ col, 0.0))
            factored = L[m, m] ** 2 > _SINGULAR_PIVOT * A[k, k]
        idx[m] = k
        rows[m] = A[k]
        m += 1
        # inner loop: unconstrained solve on the passive set, step back on
        # negative entries until feasible; the entering column starts at 0
        w_p = np.append(z, 0.0)
        while True:
            P = idx[:m]
            if factored:
                z = sla.cho_solve((L[:m, :m], True), b[P], check_finite=False)
            else:
                z, *_ = np.linalg.lstsq(rows[:m, P], b[P], rcond=None)
            if z.size == 0 or z.min() > 0.0:
                break
            neg = z <= 0.0
            alpha = np.min(w_p[neg] / (w_p[neg] - z[neg]))
            w_p = w_p + alpha * (z - w_p)
            keep = w_p > 0.0
            w_p = w_p[keep]
            m = w_p.size
            idx[:m] = P[keep]
            rows[:m] = rows[: keep.size][keep]
            try:
                L[:m, :m] = np.linalg.cholesky(rows[:m, idx[:m]])
                pivots = np.diag(L)[:m] ** 2
                factored = bool(np.all(pivots > _SINGULAR_PIVOT * A[idx[:m], idx[:m]]))
            except np.linalg.LinAlgError:
                factored = False
        if rel_tol > 0 and d_norm**2 - b[idx[:m]] @ z <= target**2 and residual() <= target:
            break

    w[idx[:m]] = z
    if at_optimum and rel_tol == 0.0:
        return w
    best = residual()
    if best <= target:
        return w
    raise EqpError(
        f"NNLS stalled at relative residual {best / d_norm:.3e} (target {rel_tol:.3e})",
        best_residual=best / d_norm,
    )


def train_rule(
    manifest: EqpManifest,
    ops: ComponentOperators,
    phi_u: np.ndarray,
    eps: float,
) -> EqpRule:
    """Train a sparse rule meeting the relative threshold on the manifest."""
    w = nnls(manifest.G, manifest.d, rel_tol=eps)
    support = np.flatnonzero(w > 0.0)
    d_norm = np.linalg.norm(manifest.d)
    res = float(np.linalg.norm(manifest.G @ w - manifest.d))
    res_rel = res / d_norm if d_norm > 0 else 0.0
    if support.size > manifest.n_basis * manifest.n_snapshots + 1:
        raise EqpError("support exceeds the constraint count")
    elem, loc = ops.adv.point_ids()
    rule = EqpRule(
        component=manifest.component,
        element_ids=elem[support],
        local_ids=loc[support],
        weights=w[support],
        eps=float(eps),
        residual=res_rel,
        n_basis=manifest.n_basis,
    )
    return attach_basis_data(rule, ops, phi_u)


def attach_basis_data(rule: EqpRule, ops: ComponentOperators, phi_u: np.ndarray) -> EqpRule:
    """Evaluate the velocity basis ``phi_u`` at the rule's points.

    Raises :class:`~cromflow._binio.FormatError` when a point lies outside
    the component's mesh or quadrature rule.
    """
    n_el, n_q = ops.space.qw.shape
    if np.any((rule.element_ids < 0) | (rule.element_ids >= n_el)):
        raise _binio.FormatError(
            f"quadrature rule {rule.component!r}: element index outside 0..{n_el - 1}"
        )
    if np.any((rule.local_ids < 0) | (rule.local_ids >= n_q)):
        raise _binio.FormatError(
            f"quadrature rule {rule.component!r}: local point index outside 0..{n_q - 1}"
        )
    flat = rule.element_ids * n_q + rule.local_ids
    vals, grads = ops.adv.basis_at_quad(phi_u)
    rule.basis_values = vals[flat]
    rule.basis_grads = grads[flat]
    rule.n_basis = phi_u.shape[1]
    rule.phi_u_checksum = basis_checksum(phi_u)
    return rule


def _at_points(basis: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
    """u_0, u_1, d_0 u_c and d_1 u_c at each (point, component c), (2n, 4, M),
    of one state (R,) or M stacked states (R, M)."""
    n2, _, r = basis.shape
    U = np.reshape(u_hat, (r, -1))
    return (basis.reshape(-1, r) @ U).reshape(n2, 4, U.shape[1])


def eqp_advection_value(rule: EqpRule, u_hat: np.ndarray) -> np.ndarray:
    """Reduced advection evaluated on the sparse point set.

    ``u_hat`` is one reduced state (R,) or M states as columns (R, M); the
    result has the same shape.
    """
    basis, test = rule.layouts()
    z = _at_points(basis, u_hat)
    # (u . grad) u_c at every (point, c), one column per state
    return (test @ (z[:, 0] * z[:, 2] + z[:, 1] * z[:, 3])).reshape(np.shape(u_hat))


def eqp_advection_jacobian(rule: EqpRule, u_hat: np.ndarray) -> np.ndarray:
    """Derivative of :func:`eqp_advection_value`: (R, R), or (M, R, R) for
    M stacked states."""
    basis, test = rule.layouts()
    z = _at_points(basis, u_hat)
    r, m = test.shape[0], z.shape[2]
    # d/du_l of (u . grad) u_c = d_d u_c phi_l,d + u_d d_d phi_l,c: the basis
    # rows against z with its halves swapped, one (M, 4) @ (4, R) per (point, c)
    t = np.matmul(np.roll(z, 2, axis=1).transpose(0, 2, 1), basis)
    jac = (test @ t.reshape(-1, m * r)).reshape(r, m, r).transpose(1, 0, 2)
    return jac[0] if np.ndim(u_hat) == 1 else jac


_RULE_ARRAYS = {
    "component": ("i8", ("name",)),
    "element_ids": ("i8", ("n",)),
    "local_ids": ("i8", ("n",)),
    "weights": ("f8", ("n",)),
    "eps": ("f8", ()),
    "residual": ("f8", ()),
    "basis_values": ("f8", ("n", "r", 2)),
    "basis_grads": ("f8", ("n", "r", 2, 2)),
    "phi_u_checksum": ("i8", (64,)),
}


def save_rule(rule: EqpRule, path) -> None:
    arrays = {name: getattr(rule, name) for name in _RULE_ARRAYS}
    arrays["component"] = _binio.text_array(rule.component)
    arrays["phi_u_checksum"] = _binio.text_array(rule.phi_u_checksum)
    _binio.write_arrays(path, RULE_MAGIC, arrays)


def load_rule(path) -> EqpRule:
    a = _binio.read_arrays(path, RULE_MAGIC, _RULE_ARRAYS)
    component = _binio.array_text(a["component"])
    try:
        return EqpRule(
            component, a["element_ids"], a["local_ids"], a["weights"],
            float(a["eps"]), float(a["residual"]), a["basis_values"].shape[1],
            a["basis_values"], a["basis_grads"], _binio.array_text(a["phi_u_checksum"]),
        )
    except ValueError as exc:
        raise _binio.FormatError(f"{path}: {exc}") from exc
