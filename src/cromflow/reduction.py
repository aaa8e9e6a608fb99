"""Per-component bases and their Galerkin projection.

Velocity/pressure bases come from the thin SVD of snapshot matrices; the
velocity basis is augmented with pressure supremizers so the reduced
saddle-point problem keeps a stable pressure.  Each basis also carries a
pressure-gradient penalty coefficient balanced against its velocity
truncation error (see :func:`balanced_pressure_penalty`), which keeps
pressure modes the velocity basis does not control from driving the
velocity.  All linear operator blocks are projected once per component /
interface configuration.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import _binio
from .weakforms import BoundaryLoadBuilder, ComponentOperators, InterfaceBlocks

BASIS_MAGIC = b"CROMBAS3"
TENSOR_MAGIC = b"CROMTEN2"

# velocity modes j per slice of the advection tensor build.  At the default
# 60 modes, 8 gives the bits of one product over all modes under
# single-threaded OpenBLAS (1 and 15 do not); at some other sizes the last
# slice's final columns round differently, by up to 3e-16 of the largest entry
_TENSOR_SLICE = 8


@dataclass
class SnapshotSet:
    """Velocity/pressure snapshot columns restricted to one reference component."""

    component: str
    U: np.ndarray                # (n_u, S)
    P: np.ndarray                # (n_p, S)

    @property
    def count(self) -> int:
        return self.U.shape[1]


def pod(A: np.ndarray):
    """Thin SVD of a snapshot matrix: orthonormal modes and singular values.

    The right singular vectors are computed transiently and discarded.
    A zero matrix yields an empty basis.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] == 0:
        raise ValueError("snapshot matrix must be nonempty")
    if not np.any(A):
        return np.zeros((A.shape[0], 0)), np.zeros(0)
    phi, sigma, _ = sla.svd(A, full_matrices=False)
    keep = sigma > sigma[0] * np.finfo(float).eps * max(A.shape)
    return phi[:, keep], sigma[keep]


def missing_energy(sigma: np.ndarray, R: int) -> float:
    """Truncation-quality estimate: one minus the retained singular-value mass."""
    sigma = np.asarray(sigma, dtype=float)
    if R < 0 or R > sigma.size:
        raise ValueError(f"R={R} out of range for {sigma.size} singular values")
    total = sigma.sum()
    if total == 0.0:
        return 0.0
    return float(1.0 - sigma[:R].sum() / total)


def supremizers(B: sp.spmatrix, phi_p: np.ndarray, Z: int) -> np.ndarray:
    """Candidate compressible velocity directions B^T q for leading pressure modes."""
    if Z > phi_p.shape[1]:
        raise ValueError(f"requested {Z} supremizers but only {phi_p.shape[1]} pressure modes")
    return B.T @ phi_p[:, :Z]


def enrich_and_orthonormalize(phi: np.ndarray, candidates: np.ndarray):
    """Append candidate columns to an orthonormal basis by modified Gram-Schmidt.

    The existing columns are untouched; candidates whose post-projection norm
    falls below 1e-10 of their own norm are dropped with a warning.  Returns
    (augmented basis, number of columns kept).
    """
    cols = [phi[:, k] for k in range(phi.shape[1])]
    kept = 0
    dropped = 0
    for j in range(candidates.shape[1]):
        z = candidates[:, j].astype(float, copy=True)
        scale = np.linalg.norm(z)
        if scale == 0.0:
            dropped += 1
            continue
        for _ in range(2):                      # one re-orthogonalization pass
            for q in cols:
                z -= (q @ z) * q
        norm = np.linalg.norm(z)
        if norm <= 1e-10 * scale:
            dropped += 1
            continue
        cols.append(z / norm)
        kept += 1
    if dropped:
        warnings.warn(
            f"dropped {dropped} supremizer column(s) already spanned by the basis",
            stacklevel=2,
        )
    return np.column_stack(cols) if cols else phi, kept


def balanced_pressure_penalty(
    snapshots: SnapshotSet, ops: ComponentOperators, phi_u: np.ndarray
) -> float:
    """Pressure-gradient penalty coefficient eps for one component.

    eps = sum_s |(I - P) u_s|_K^2 / sum_s |grad p_s|^2, with P the orthogonal
    projector onto ``phi_u`` and K the viscous matrix: on the training
    snapshots, the penalty energy eps |grad p|^2 equals the viscous energy
    the velocity basis misses.  It is zero when the basis spans the velocity
    snapshots.
    """
    U = snapshots.U
    E = U - phi_u @ (phi_u.T @ U)
    missed = float(np.einsum("is,is->", E, ops.K @ E))
    gradient = float(np.einsum("is,is->", snapshots.P, ops.pressure_stiffness @ snapshots.P))
    if gradient <= 0.0:
        return 0.0
    return max(missed, 0.0) / gradient


@dataclass
class PodBasis:
    """Orthonormal component bases; velocity columns include the supremizers.

    ``pressure_penalty`` scales the reduced pressure-gradient penalty block
    (see :func:`balanced_pressure_penalty`); zero leaves the plain Galerkin
    saddle system.
    """

    component: str
    phi_u: np.ndarray            # (n_u, R_u + Z)
    phi_p: np.ndarray            # (n_p, R_p)
    sigma_u: np.ndarray
    sigma_p: np.ndarray
    R_u: int
    R_p: int
    Z: int
    pressure_penalty: float = 0.0

    @property
    def n_u(self) -> int:
        return self.phi_u.shape[0]

    @property
    def n_p(self) -> int:
        return self.phi_p.shape[0]


def build_pod_basis(
    snapshots: SnapshotSet,
    ops: ComponentOperators,
    R_u: int,
    R_p: int,
    Z: Optional[int] = None,
) -> PodBasis:
    """POD + supremizer enrichment for one component.

    ``Z`` defaults to ``R_p`` (one supremizer per retained pressure mode).
    The pressure penalty is balanced against the ``R_u`` POD modes alone, so
    it is the same for every ``Z``.
    """
    phi_u_all, sigma_u = pod(snapshots.U)
    phi_p_all, sigma_p = pod(snapshots.P)
    if R_u > phi_u_all.shape[1] or R_p > phi_p_all.shape[1]:
        raise ValueError(
            f"component {snapshots.component}: requested ({R_u}, {R_p}) modes, "
            f"snapshots provide ({phi_u_all.shape[1]}, {phi_p_all.shape[1]})"
        )
    if Z is None:
        Z = R_p
    cand = supremizers(ops.B, phi_p_all, Z)
    phi_u, kept = enrich_and_orthonormalize(phi_u_all[:, :R_u], cand)
    return PodBasis(
        component=snapshots.component,
        phi_u=phi_u,
        phi_p=phi_p_all[:, :R_p],
        sigma_u=sigma_u,
        sigma_p=sigma_p,
        R_u=R_u,
        R_p=R_p,
        Z=kept,
        pressure_penalty=balanced_pressure_penalty(snapshots, ops, phi_u_all[:, :R_u]),
    )


@dataclass
class ReducedComponentOperators:
    """Dense reduced blocks of one component, laid out like :class:`ComponentOperators`."""

    component: str
    basis: PodBasis
    K: np.ndarray                       # (R, R)
    B: np.ndarray                       # (R_p, R)
    C: np.ndarray                       # (R_p, R_p) pressure-gradient penalty
    K_di: dict
    B_di: dict
    loads: dict                         # side -> projected (dense) BoundaryLoadBuilder
    pressure_mean: np.ndarray
    tensor: Optional[np.ndarray] = None
    eqp_rule: object = None

    @property
    def r_u(self) -> int:
        return self.K.shape[0]

    @property
    def r_p(self) -> int:
        return self.B.shape[0]


def project_component(ops: ComponentOperators, basis: PodBasis) -> ReducedComponentOperators:
    pu, pp = basis.phi_u, basis.phi_p
    K_di = {t: pu.T @ (m @ pu) for t, m in ops.K_di.items()}
    B_di = {t: pp.T @ (m @ pu) for t, m in ops.B_di.items()}
    loads = {
        side: BoundaryLoadBuilder(b.xy, pu.T @ b.dirichlet_u, pp.T @ b.dirichlet_p)
        for side, b in ops.loads.items()
    }
    return ReducedComponentOperators(
        component=basis.component,
        basis=basis,
        K=pu.T @ (ops.K @ pu),
        B=pp.T @ (ops.B @ pu),
        C=basis.pressure_penalty * (pp.T @ (ops.pressure_stiffness @ pp)),
        K_di=K_di,
        B_di=B_di,
        loads=loads,
        pressure_mean=pp.T @ ops.pressure_mean,
    )


def project_interface(
    blocks: InterfaceBlocks, basis_m: PodBasis, basis_n: PodBasis
) -> InterfaceBlocks:
    pu = {"m": basis_m.phi_u, "n": basis_n.phi_u}
    pp = {"m": basis_m.phi_p, "n": basis_n.phi_p}
    K = {
        s + t: pu[s].T @ (blocks.K[s + t] @ pu[t])
        for s in ("m", "n")
        for t in ("m", "n")
    }
    B = {
        s + t: pp[s].T @ (blocks.B[s + t] @ pu[t])
        for s in ("m", "n")
        for t in ("m", "n")
    }
    return InterfaceBlocks(K=K, B=B)


def project_linear(
    operators: Mapping,
    interface_blocks: Mapping,
    bases: Mapping,
):
    """Project all component and interface blocks onto the given bases.

    Returns (reduced component operators by name, reduced interface blocks
    keyed like ``interface_blocks``).
    """
    reduced = {name: project_component(operators[name], bases[name]) for name in bases}
    riface = {
        (rm, rn, o): project_interface(blk, bases[rm], bases[rn])
        for (rm, rn, o), blk in interface_blocks.items()
        if rm in bases and rn in bases
    }
    return reduced, riface


def build_advection_tensor(ops: ComponentOperators, phi_u: np.ndarray) -> np.ndarray:
    """Third-order reduced advection tensor C[i,j,k] = (phi_i, phi_j . grad phi_k).

    Quadrature-exact for the quadratic velocity space, so contracting the
    tensor reproduces the projected advection evaluation to roundoff.

    Built ``_TENSOR_SLICE`` velocity modes j at a time: each slice forms the
    point-wise products D[(q, c), (j, k)] for its j only and writes
    C[:, j0:j1, :] = vwᵀ D into the preallocated result, so the scratch is
    n_points · 2 · r · ``_TENSOR_SLICE`` doubles rather than n_points · 2 · r².
    Slicing the output columns keeps every entry's sum over the points whole.
    """
    vals, grads = ops.adv.basis_at_quad(phi_u)
    w = ops.adv.quad_weights
    r = phi_u.shape[1]
    vw = (w[:, None, None] * vals).transpose(0, 2, 1).reshape(-1, r)   # (q*c, i)
    tensor = np.empty((r, r, r))
    for j0 in range(0, r, _TENSOR_SLICE):
        j1 = min(j0 + _TENSOR_SLICE, r)
        # D[(q, c), (j, k)] = sum_d phi_j,d(q) * d_d phi_k,c(q)
        d = np.einsum("qjd,qkcd->qcjk", vals[:, j0:j1], grads, optimize=True)
        tensor[:, j0:j1, :] = (vw.T @ d.reshape(vw.shape[0], -1)).reshape(r, j1 - j0, r)
    return tensor


def _contract_last(tensor: np.ndarray, u_hat: np.ndarray):
    """Stacked states U (R, M) and C:(., u) per state, (M, R, R)."""
    U = np.reshape(u_hat, (tensor.shape[0], -1))
    # R products (R, R) @ (R, M), not one (R^2, R) @ (R, M) GEMM: with the
    # few states per component type of an array the tall GEMM measured up
    # to 3x slower with single-threaded OpenBLAS at R = 60
    return U, (tensor @ U).transpose(2, 0, 1)


def tensor_contract(tensor: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
    """Advection value C:(u,u) in reduced coordinates.

    ``u_hat`` is one reduced state (R,) or M states as columns (R, M); the
    result has the same shape.
    """
    U, cu = _contract_last(tensor, u_hat)
    return np.matmul(cu, U.T[:, :, None])[:, :, 0].T.reshape(np.shape(u_hat))


def tensor_jacobian(tensor: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
    """Derivative of the contraction, C:(., u) + C:(u, .): (R, R), or
    (M, R, R) for M stacked states."""
    U, cu = _contract_last(tensor, u_hat)
    jac = cu + np.matmul(tensor.transpose(0, 2, 1), U).transpose(2, 0, 1)
    return jac[0] if np.ndim(u_hat) == 1 else jac


# --- file formats -----------------------------------------------------------


_BASIS_ARRAYS = {
    "component": ("i8", ("name",)),
    "phi_u": ("f8", ("n_u", "r_u")),
    "phi_p": ("f8", ("n_p", "r_p")),
    "sigma_u": ("f8", ("s_u",)),
    "sigma_p": ("f8", ("s_p",)),
    "Z": ("i8", ()),
    "pressure_penalty": ("f8", ()),
}


def save_basis(basis: PodBasis, path) -> None:
    arrays = {name: getattr(basis, name) for name in _BASIS_ARRAYS}
    arrays["component"] = _binio.text_array(basis.component)
    _binio.write_arrays(path, BASIS_MAGIC, arrays)


def load_basis(path) -> PodBasis:
    a = _binio.read_arrays(path, BASIS_MAGIC, _BASIS_ARRAYS)
    # column-major, as loaded bases were before the container, so operators
    # projected from a stored basis round exactly as they did
    phi_u, phi_p = np.asfortranarray(a["phi_u"]), np.asfortranarray(a["phi_p"])
    Z = int(a["Z"])
    if not 0 <= Z <= phi_u.shape[1]:
        raise _binio.FormatError(f"{Z} supremizers in a basis of {phi_u.shape[1]} columns")
    penalty = float(a["pressure_penalty"])
    if not (np.isfinite(penalty) and penalty >= 0.0):
        raise _binio.FormatError(f"invalid pressure penalty {penalty!r}")
    basis = PodBasis(
        _binio.array_text(a["component"]),
        phi_u, phi_p, a["sigma_u"], a["sigma_p"],
        phi_u.shape[1] - Z, phi_p.shape[1], Z, penalty,
    )
    _check_orthonormal(basis.phi_u, "velocity")
    _check_orthonormal(basis.phi_p, "pressure")
    return basis


def check_rows(path, name: str, space, n_u: int, n_p: int) -> None:
    """Refuse a file whose velocity/pressure row counts are not the component space's."""
    if (n_u, n_p) != (space.n_u, space.n_p):
        raise _binio.FormatError(
            f"{path}: component {name!r} expects {space.n_u} velocity and "
            f"{space.n_p} pressure rows, found {n_u} and {n_p}"
        )


def basis_checksum(phi_u: np.ndarray) -> str:
    """SHA-256 of a velocity basis's shape and values, whatever its memory order.

    Files derived from a basis store it, so a basis retrained since is noticed.
    """
    a = np.ascontiguousarray(phi_u, dtype="<f8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _check_orthonormal(phi, label):
    if phi.shape[1]:
        with np.errstate(all="ignore"):     # corrupt entries may overflow
            dev = np.abs(phi.T @ phi - np.eye(phi.shape[1])).max()
        if not dev <= 1e-8:                 # NaN entries fail too
            raise _binio.FormatError(f"{label} basis not orthonormal (deviation {dev:.2e})")


def save_tensor(tensor: np.ndarray, path) -> None:
    _binio.write_arrays(path, TENSOR_MAGIC, {"tensor": tensor})


def load_tensor(path) -> np.ndarray:
    return _binio.read_arrays(path, TENSOR_MAGIC, {"tensor": ("f8", ("r", "r", "r"))})["tensor"]
