"""Global block system over a component grid, and its steady solves.

One block layout serves both the full-order and the reduced system: each
subdomain owns a contiguous range of velocity and pressure rows, and the
per-component blocks (domain, weak Dirichlet, interface configurations) are
placed at those offsets, once, into one linear saddle operator over the
whole stacked state.  At full order the blocks are the sparse component
operators, summed into one sparse matrix; in the reduced system they are
their dense projections, summed into dense cell blocks.  The steady
nonlinear problem is solved by one Newton-Raphson function on one
residual, :func:`solve_newton`, the only solve entry of both systems; each
system supplies its start state with the elimination order of the solve,
its Newton matrix (the saddle operator plus the advection Jacobian) and a
direct factorization of that matrix in that order.  A system is not changed
by a solve, so two solves on one system give the same numbers.  Every step
solves its matrix by one flexible GMRES cycle right-preconditioned by the
latest factorization (:func:`fgmres`), which refines a factorization in
lower precision, the reduced system's float32 block LU, to float64.  Once
Newton contracts fast, a step tries the factorization of an earlier step
before it factors its own (inexact Newton, Eisenstat & Walker, SISC 17,
1996, with a frozen preconditioner, Knoll & Keyes, JCP 193, 2004).  The
full-order system factors in float64 (SuperLU), so a step on its own LU
takes one iteration.  The full-order system starts from a Stokes solve;
the Stokes matrix and every Newton matrix share one sparse pattern, built
once, and SuperLU orders the unknowns once per solve, at the Stokes start.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Mapping, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from . import _binio
from .geometry import GridConfig, SIDES, interface_topology
from .weakforms import Triplets

# global sides touching a subdomain, by grid position
_SIDE_OF_CELL = {
    "L": lambda col, row, grid: col == 0,
    "R": lambda col, row, grid: col == grid.cols - 1,
    "B": lambda col, row, grid: row == 0,
    "T": lambda col, row, grid: row == grid.rows - 1,
}

# a Newton step reuses the latest LU when the step before it cut the
# residual norm below this fraction of the one before
_REUSE_BELOW = 0.1
# every Newton step is one flexible GMRES cycle of at most this many
# iterations, right-preconditioned by the latest LU, which must bring the
# linear residual below this fraction of the Newton target; a target below
# the floor fraction of the residual norm, which float64 cannot resolve, is
# raised to it
_GMRES_RESTART = 30
_GMRES_TOL = 1e-3
_GMRES_FLOOR = 1e-13


def saddle_lu(mat, permc_spec: str = "COLAMD"):
    """SuperLU factorization of a saddle matrix in symmetric mode.

    The unknowns are ordered by ``permc_spec`` (COLAMD by default;
    ``"NATURAL"`` for a matrix already permuted), rows and columns alike,
    and a pivot stays on the diagonal unless it is below 0.01 of the largest
    entry of its column.  Callers check accuracy through residuals.
    """
    return spla.splu(
        mat, permc_spec=permc_spec, diag_pivot_thresh=0.01, options=dict(SymmetricMode=True)
    )


@dataclass
class SolveReport:
    newton_iterations: int
    residual_history: list
    # Euclidean norm of each Newton step, one per iteration
    step_norms: list
    # entries stored by each Newton factorization (LU fill), one per
    # factorization; the full-order Stokes start is not counted
    fill_nnz: list
    # one per iteration: whether FGMRES on the kept LU solved the step, and
    # the step's FGMRES iterations, at least 1 (a failed attempt on the kept
    # LU adds its count to the iterations on the step's own LU)
    reused_lu: list
    gmres_iterations: list
    # seconds: assembly; the Newton phases jacobian (advection Jacobian),
    # saddle (the Newton matrix: the linear saddle blocks plus the Jacobian),
    # factorization (LU, and the start state: the full-order Stokes solve),
    # solve (back-solve, GMRES and update) and residual; total, from the
    # start of the solve
    wall_times: dict
    converged: bool
    # why not converged: failed start, singular LU, linear solve failed on a
    # fresh LU, divergence, max_iter
    message: str = ""


@dataclass(kw_only=True)
class BlockSystem:
    """Global saddle-point system in the subdomain block layout.

    Subdomain m owns velocity rows ``off_u[m]:off_u[m + 1]`` and pressure
    rows ``off_p[m]:off_p[m + 1]``; the stacked state is all velocities, all
    pressures, then the multiplier if any.  ``saddle`` is the linear part of
    the system over that state, ``[[K, B^T, m^T], [B, -C, 0], [m, 0, 0]]``:
    the pressure block ``-C`` is empty at full order and the
    pressure-gradient penalty in the reduced system; without an outflow side
    the mean pressure ``m`` is fixed by a Lagrange multiplier, the last
    unknown, and otherwise its row and column are absent.  Subclasses store
    ``saddle`` in their own format, which their ``block_sink`` builds from
    the placements of :func:`assemble_blocks` (a sparse CSC matrix at full
    order, a :class:`~cromflow.blocklu.CellBlockMatrix` in the reduced
    system), and supply the advection term, the Newton matrix, ``start()``,
    which returns the start state and the elimination order of a solve, and
    ``factorize(mat, order)``, the factorization of a Newton matrix in that
    order.  Neither changes the system.  ``local`` maps component names to
    the blocks the system was placed from.
    """

    grid: GridConfig
    local: Mapping                      # component name -> its operators
    interfaces: list                    # (m, n, orientation) per grid interface
    off_u: np.ndarray
    off_p: np.ndarray
    n_u: int
    n_p: int
    pressure_constraint: bool
    saddle: object                      # the linear operator; ``saddle @ x``
    rhs: np.ndarray                     # loads over the stacked state
    assembly_time: float                # seconds in :func:`assemble_blocks`

    def local_of(self, m: int):
        """The operators of subdomain m's component."""
        return self.local[self.grid.component_name(m)]

    def slice_u(self, m: int) -> slice:
        return slice(self.off_u[m], self.off_u[m + 1])

    @cached_property
    def type_groups(self) -> list:
        """(component name, subdomains, velocity rows (M, n)) per component type.

        The advection kernels take the M states of one type stacked, so each
        type costs one kernel call per evaluation.
        """
        members = {}
        for m in range(self.grid.n_subdomains):
            members.setdefault(self.grid.component_name(m), []).append(m)
        groups = []
        for name, ms in members.items():
            size = self.off_u[ms[0] + 1] - self.off_u[ms[0]]
            groups.append((name, ms, self.off_u[ms][:, None] + np.arange(size)))
        return groups

    def slice_p(self, m: int) -> slice:
        return slice(self.off_p[m], self.off_p[m + 1])

    @property
    def n_dof(self) -> int:
        return self.n_u + self.n_p + (1 if self.pressure_constraint else 0)

    def _split(self, x: np.ndarray):
        return x[: self.n_u], x[self.n_u : self.n_u + self.n_p]

    def residual(self, x: np.ndarray) -> np.ndarray:
        """``saddle @ x + [N(u); 0] - rhs`` at the stacked state ``x``."""
        r = self.saddle @ x
        r[: self.n_u] += self.advection_value(x[: self.n_u])
        return r - self.rhs


class _TripletSink:
    """Block placements summed into the sparse saddle matrix.

    ``B`` and the multiplier's row are gathered apart and mirrored once at
    the end, so each of their blocks is placed once.
    """

    def __init__(self, off_u, off_p, n_dof):
        self._u = off_u
        self._p = off_u[-1] + off_p
        self._diagonal = Triplets((n_dof, n_dof))   # K and -C
        self._border = Triplets((n_dof, n_dof))     # B and the multiplier's row

    def add(self, name: str, mat, m: int, n: int) -> None:
        """Block ``mat`` of matrix ``name`` at rows of subdomain m, columns of n."""
        if name == "K":
            self._diagonal.add(mat, self._u[m], self._u[n])
        elif name == "B":
            self._border.add(mat, self._p[m], self._u[n])
        else:
            self._diagonal.add(-mat, self._p[m], self._p[n])

    def add_mean(self, row: np.ndarray, m: int) -> None:
        """The multiplier's row over the pressures of subdomain m (and its column)."""
        self._border.add(row[None, :], self._border.shape[0] - 1, self._p[m])

    def saddle(self) -> sp.csc_matrix:
        # the sum drops the exact zeros that the triplets keep
        border = self._border.tocsr()
        return (self._diagonal.tocsr() + border + border.T).tocsc()


def _offsets(sizes) -> np.ndarray:
    off = np.zeros(len(sizes) + 1, dtype=int)
    off[1:] = np.cumsum(sizes)
    return off


def assemble_blocks(cls, grid: GridConfig, local: Mapping, interface_blocks: Mapping, **fields):
    """Place per-component and per-configuration blocks at subdomain offsets.

    Every block goes to ``cls.block_sink``, which sums the placements into
    the system's own storage of the saddle matrix.

    ``local`` maps component names to :class:`ComponentOperators` or their
    reduced projections; either carries ``K``, ``B``, ``C`` (empty at full
    order), ``K_di``/``B_di`` by boundary tag, the Dirichlet ``loads`` by
    side (outflow sides and no-slip walls carry no data) and
    ``pressure_mean``.  A grid with a body force also needs
    ``forcing_load``, which only the full-order operators have.
    ``interface_blocks`` maps (ref_m, ref_n, orientation) to blocks keyed
    "mm".."nn"; a missing needed configuration is an error.  Returns
    ``cls`` built from ``local``, the sink's saddle matrix, the seconds this
    took and ``fields``.
    """
    t0 = time.perf_counter()
    grid.validate_components(local)
    M = grid.n_subdomains
    parts = [local[grid.component_name(m)] for m in range(M)]
    off_u = _offsets([ops.K.shape[0] for ops in parts])
    off_p = _offsets([ops.B.shape[0] for ops in parts])
    n_u, n_p = int(off_u[-1]), int(off_p[-1])
    pressure_constraint = not any(grid.bc[s].kind == "neumann" for s in SIDES)
    n_dof = n_u + n_p + (1 if pressure_constraint else 0)

    sink = cls.block_sink(off_u, off_p, n_dof)
    rhs = np.zeros(n_dof)

    for m, ops in enumerate(parts):
        # views of the loads on subdomain m's velocity and pressure rows
        load_u = rhs[off_u[m] : off_u[m + 1]]
        load_p = rhs[n_u + off_p[m] : n_u + off_p[m + 1]]
        sink.add("K", ops.K, m, m)
        sink.add("B", ops.B, m, m)
        sink.add("C", ops.C, m, m)
        if pressure_constraint:
            sink.add_mean(ops.pressure_mean, m)
        origin = grid.cell_origin(m)
        col, row = m % grid.cols, m // grid.cols
        if grid.forcing is not None:
            load_u += ops.forcing_load(grid.forcing, origin)
        for side in SIDES:
            if not _SIDE_OF_CELL[side](col, row, grid):
                continue
            bc = grid.bc[side]
            if bc.kind == "dirichlet":
                sink.add("K", ops.K_di[side], m, m)
                sink.add("B", ops.B_di[side], m, m)
                lu, lp = ops.loads[side].dirichlet_loads(bc.velocity, origin)
                load_u += lu
                load_p += lp
        if "O" in ops.K_di:
            sink.add("K", ops.K_di["O"], m, m)
            sink.add("B", ops.B_di["O"], m, m)

    interfaces = interface_topology(grid)
    for m, n, orientation in interfaces:
        key = (grid.component_name(m), grid.component_name(n), orientation)
        if key not in interface_blocks:
            raise KeyError(f"missing interface blocks for configuration {key}")
        blocks = interface_blocks[key]
        cell = {"m": m, "n": n}
        for s in ("m", "n"):
            for t in ("m", "n"):
                sink.add("K", blocks.K[s + t], cell[s], cell[t])
                sink.add("B", blocks.B[s + t], cell[s], cell[t])

    return cls(
        grid=grid,
        local=local,
        interfaces=interfaces,
        off_u=off_u,
        off_p=off_p,
        n_u=n_u,
        n_p=n_p,
        pressure_constraint=pressure_constraint,
        saddle=sink.saddle(),
        rhs=rhs,
        assembly_time=time.perf_counter() - t0,
        **fields,
    )


@contextmanager
def _timed(times: dict, phase: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        times[phase] += time.perf_counter() - t0


def fgmres(mat, lu, b: np.ndarray, atol: float):
    """``mat⁻¹ b`` by one cycle of flexible GMRES right-preconditioned by ``lu``.

    The flexible variant (Saad, SISC 14, 1993) keeps each preconditioned
    vector z_k = ``lu.solve(v_k)`` and returns x = Σ y_k z_k, so ``lu`` need
    not be a linear map: a factorization in lower precision rounds its
    input, and refines to float64 here (Carson & Higham, SISC 40, 2018).
    The Arnoldi basis grows by one vector per iteration.  Once the Arnoldi
    estimate of the residual reaches ``atol``, one product ``b − mat @ x``
    confirms it.  Returns (x, or None where the cycle of ``_GMRES_RESTART``
    iterations ends above ``atol``, iterations, the residual norm: the true
    one, or the estimate where the Arnoldi process broke down).
    """
    restart = _GMRES_RESTART
    beta = float(np.linalg.norm(b))
    basis, precond = [b / beta], []
    hess = np.zeros((restart + 1, restart))
    cos, sin = np.zeros(restart), np.zeros(restart)
    g = np.zeros(restart + 1)   # the rotated right-hand side beta * e_1
    g[0] = beta
    for k in range(restart):
        precond.append(lu.solve(basis[k]))
        w = mat @ precond[k]
        for i, v in enumerate(basis):  # modified Gram-Schmidt
            hess[i, k] = v @ w
            w -= hess[i, k] * v
        norm_w = float(np.linalg.norm(w))
        h = hess[: k + 2, k]
        h[k + 1] = norm_w
        for i in range(k):  # the earlier Givens rotations
            h[i], h[i + 1] = cos[i] * h[i] + sin[i] * h[i + 1], cos[i] * h[i + 1] - sin[i] * h[i]
        rho = np.hypot(h[k], h[k + 1])
        if not rho > 0.0:  # breakdown, or a non-finite preconditioned vector
            return None, k + 1, float(abs(g[k]))
        cos[k], sin[k] = h[k] / rho, h[k + 1] / rho
        h[k], h[k + 1] = rho, 0.0
        g[k + 1], g[k] = -sin[k] * g[k], cos[k] * g[k]
        last = k + 1 == restart or norm_w == 0.0
        if abs(g[k + 1]) <= atol or last:
            y = solve_triangular(hess[: k + 1, : k + 1], g[: k + 1], check_finite=False)
            x = sum(yk * zk for yk, zk in zip(y, precond))
            res = float(np.linalg.norm(b - mat @ x))
            if res <= atol:
                return x, k + 1, res
            if last:
                return None, k + 1, res
        basis.append(w / norm_w)


def solve_newton(system: BlockSystem, tol_rel=1e-8, tol_abs=1e-10, max_iter=50):
    """Newton-Raphson on a block system from its start state.

    The start (``system.start()``, timed as factorization) is the Stokes
    solve at full order and the zero state in the reduced system; it also
    gives the elimination order, which the solve holds to its end.  Each
    step asks the system for its Newton matrix
    (``newton_matrix(advection_jacobian(u))``) and solves it by one
    :func:`fgmres` cycle right-preconditioned by the latest factorization
    (``factorize(mat, order)``), to ``_GMRES_TOL`` of the Newton target
    (never below ``_GMRES_FLOOR`` of the residual norm).  That LU is kept:
    once the previous step cut the residual norm below ``_REUSE_BELOW`` of
    the one before, a step tries it first.  Otherwise, or where the cycle
    falls short, the step drops the old LU, factors its own matrix and runs
    the cycle on it.  A failed start or a singular factorization
    (``RuntimeError``), a cycle that falls short on a fresh factorization, a
    non-finite residual or ``max_iter`` steps without reaching the
    tolerance end the solve with a non-converged report whose ``message``
    says which; nothing is raised.  A failed start leaves the zero state.
    Returns (u, p, report).
    """
    t_start = time.perf_counter()
    times = dict.fromkeys(("jacobian", "saddle", "factorization", "solve", "residual"), 0.0)
    message = ""
    try:
        with _timed(times, "factorization"):
            x, order = system.start()
    except RuntimeError as exc:
        x, order, message = np.zeros(system.n_dof), None, f"failed start: {exc}"
    with _timed(times, "residual"):
        r = system.residual(x)
    history = [float(np.linalg.norm(r))]
    step_norms, fill_nnz, reused_lu, gmres_iterations = [], [], [], []
    target = max(tol_rel * history[0], tol_abs)
    converged = not message and history[0] <= target
    lu = None  # the latest factorization; at most one is alive
    it = 0
    while not (converged or message) and it < max_iter:
        if lu is not None and history[-1] >= _REUSE_BELOW * history[-2]:
            lu = None  # this step factors: the old LU goes before its matrix is built
        u, _ = system._split(x)
        with _timed(times, "jacobian"):
            adv = system.advection_jacobian(u)
        with _timed(times, "saddle"):
            jac = system.newton_matrix(adv)
        step, iterations = None, 0
        atol = max(_GMRES_TOL * target, _GMRES_FLOOR * history[-1])
        if lu is not None:
            with _timed(times, "solve"):
                step, iterations, _ = fgmres(jac, lu, -r, atol)
        reused = step is not None
        if not reused:
            lu = None  # freed before the refactorization
            try:
                with _timed(times, "factorization"):
                    lu = system.factorize(jac, order)
            except RuntimeError as exc:
                message = f"singular Newton factorization: {exc}"
                break
            fill_nnz.append(int(lu.nnz))
            with _timed(times, "solve"):
                step, fresh, res = fgmres(jac, lu, -r, atol)
            iterations += fresh
            if step is None:
                message = f"linear solve failed on a fresh factorization (residual {res:.3e})"
                break
        del jac  # freed before the next step builds its own
        with _timed(times, "solve"):
            x = x + step
        reused_lu.append(reused)
        gmres_iterations.append(iterations)
        step_norms.append(float(np.linalg.norm(step)))
        with _timed(times, "residual"):
            r = system.residual(x)
        history.append(float(np.linalg.norm(r)))
        it += 1
        if history[-1] <= target:
            converged = True
        elif not np.isfinite(history[-1]):
            message = "residual diverged"
            break
    if not converged and not message:
        message = f"no convergence in {it} iterations (residual {history[-1]:.3e})"
    u, p = system._split(x)
    report = SolveReport(
        newton_iterations=it,
        residual_history=history,
        step_norms=step_norms,
        fill_nnz=fill_nnz,
        reused_lu=reused_lu,
        gmres_iterations=gmres_iterations,
        wall_times={
            "assembly": system.assembly_time,
            **times,
            "total": time.perf_counter() - t_start,
        },
        converged=bool(converged),
        message=message,
    )
    return u, p, report


class _PermutedLU:
    """Solves with ``mat`` from the LU of ``mat[order][:, order]``."""

    def __init__(self, lu, order: np.ndarray):
        self._lu = lu
        self._order = order

    @property
    def nnz(self) -> int:
        return self._lu.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self._order] = self._lu.solve(b[self._order])
        return x


@dataclass(kw_only=True)
class GlobalFomSystem(BlockSystem):
    """Full-order block system of component operators; ``saddle`` is one CSC matrix.

    Every Newton matrix of the system lies on one fixed pattern, the saddle
    pattern joined with that of the advection Jacobian: a Newton step only
    updates values on it.  The Stokes start factors the Newton matrix at
    u = 0 under COLAMD, and its ordering is the order of the solve: every
    Newton factorization factors the matrix permuted by it.
    """

    block_sink: ClassVar = _TripletSink

    @cached_property
    def _value_map(self) -> np.ndarray:
        """Velocity row of every element vector entry :meth:`advection_value` scatters."""
        rows = [
            self.off_u[ms][:, None, None, None] + self.local[name].adv.element_dofs
            for name, ms, _ in self.type_groups
        ]
        return np.concatenate([r.ravel() for r in rows])

    @cached_property
    def _newton_pattern(self):
        """The CSC structure (indptr, indices) of saddle + advection Jacobian,
        the saddle's values on it, and the place in its data of every entry
        that :meth:`advection_jacobian` scatters.

        The Jacobian's pattern is block diagonal in the per-component
        patterns.  It and the saddle are canonical CSC, so their sum keeps
        each one's entries in order: marking the saddle's entries 1 and the
        Jacobian's 2 tells which places of the sum are whose.
        """
        n, saddle = self.n_dof, self.saddle
        patterns = [self.local_of(m).adv.jacobian_pattern for m in range(self.grid.n_subdomains)]
        # where each subdomain's block starts in the Jacobian's data
        starts = np.cumsum([0] + [ptr[-1] for ptr, _, _ in patterns])
        indptr = np.concatenate(
            [[0]]
            + [start + ptr[1:] for start, (ptr, _, _) in zip(starts, patterns)]
            + [np.full(n - self.n_u, starts[-1])]
        )
        indices = np.concatenate([idx + self.off_u[m] for m, (_, idx, _) in enumerate(patterns)])
        jac = sp.csc_matrix((np.full(starts[-1], 2.0), indices, indptr), shape=(n, n))
        marks = sp.csc_matrix((np.ones(saddle.nnz), saddle.indices, saddle.indptr), shape=(n, n))
        pattern = marks + jac
        base = np.zeros(pattern.nnz)
        base[pattern.data != 2.0] = saddle.data
        jac_places = np.flatnonzero(pattern.data >= 2.0)
        scatter = [
            jac_places[starts[ms][:, None] + self.local[name].adv.jacobian_pattern[2]].ravel()
            for name, ms, _ in self.type_groups
        ]
        return pattern.indptr, pattern.indices, base, np.concatenate(scatter)

    def advection_value(self, u: np.ndarray) -> np.ndarray:
        values = [
            self.local[name].adv.element_values(u[rows]).ravel()
            for name, _, rows in self.type_groups
        ]
        return np.bincount(self._value_map, weights=np.concatenate(values), minlength=self.n_u)

    def advection_jacobian(self, u: np.ndarray) -> np.ndarray:
        """The advection Jacobian's values on the Newton pattern, one per
        stored entry; it is zero outside the velocity block."""
        _, _, base, scatter = self._newton_pattern
        values = [
            self.local[name].adv.element_jacobians(u[rows]).ravel()
            for name, _, rows in self.type_groups
        ]
        return np.bincount(scatter, weights=np.concatenate(values), minlength=base.size)

    def newton_matrix(self, adv: np.ndarray) -> sp.csc_matrix:
        indptr, indices, base, _ = self._newton_pattern
        return sp.csc_matrix((base + adv, indices, indptr), shape=self.saddle.shape)

    def factorize(self, mat: sp.csc_matrix, order: tuple) -> _PermutedLU:
        """Sparse LU of ``mat``, a matrix on the Newton pattern, permuted
        symmetrically by ``order`` (from :meth:`start`), in natural order."""
        perm, gather, indices, indptr = order
        permuted = sp.csc_matrix((mat.data[gather], indices, indptr), shape=mat.shape)
        return _PermutedLU(saddle_lu(permuted, permc_spec="NATURAL"), perm)

    def start(self) -> tuple:
        """The Stokes solve, which factors the Newton matrix at u = 0 under
        COLAMD, and the order of the solve: that ordering with the Newton
        pattern permuted by it (:func:`_permuted_pattern`).  Raises
        ``RuntimeError`` when singular or inaccurate."""
        rhs, mat = self.rhs, self.newton_matrix(0.0)
        lu = saddle_lu(mat)
        x = lu.solve(rhs)
        res = np.linalg.norm(self.saddle @ x - rhs)
        if res > 1e-10 * max(np.linalg.norm(rhs), 1.0):
            raise RuntimeError(f"Stokes solve inaccurate: residual {res:.3e}")
        return x, _permuted_pattern(mat, np.argsort(lu.perm_c))


def _permuted_pattern(mat: sp.csc_matrix, order: np.ndarray):
    """The CSC structure of ``mat[order][:, order]`` and the map that gathers
    its data from ``mat.data``: (order, gather, indices, indptr)."""
    new = np.empty_like(order)
    new[order] = np.arange(order.size)
    counts = np.diff(mat.indptr)[order]
    indptr = np.concatenate([[0], np.cumsum(counts)])
    # column j holds the entries of column order[j] of mat, rows unsorted
    places = np.arange(mat.nnz) - np.repeat(indptr[:-1] - mat.indptr[order], counts)
    unsorted = sp.csc_matrix((places, new[mat.indices[places]], indptr), shape=mat.shape)
    # two counting sorts, through CSR, order the rows within each column
    permuted = unsorted.tocsr().tocsc()
    return order, permuted.data, permuted.indices, permuted.indptr


def assemble_global(
    grid: GridConfig,
    operators: Mapping,
    interface_blocks: Mapping,
) -> GlobalFomSystem:
    """Full-order global system from the component operators.

    ``interface_blocks`` maps (ref_m, ref_n, orientation) to
    :class:`InterfaceBlocks`; a missing needed configuration is an error,
    and so is fully Dirichlet data with a net boundary flux.  The P1
    pressure basis sums to one, so the pressure load sums to that flux.
    """
    system = assemble_blocks(GlobalFomSystem, grid, operators, interface_blocks)
    if system.pressure_constraint:
        load_p = system._split(system.rhs)[1]
        flux = float(load_p.sum())
        if abs(flux) > 1e-9 * max(float(np.abs(load_p).sum()), 1.0):
            raise ValueError(f"incompatible Dirichlet data: net boundary flux {flux:.3e} != 0")
    return system


def solve_stokes(system: GlobalFomSystem):
    """Linear saddle-point solve with the advection term dropped (the
    Newton start); an inaccurate solve raises ``RuntimeError``."""
    return system._split(system.start()[0])


def mms_convergence(
    exact_u,
    exact_p,
    forcing,
    rows: int,
    cols: int,
    resolutions,
    viscosity: float,
) -> dict:
    """Observed L2 convergence orders on empty grids against a manufactured solution.

    All four global sides take the exact velocity as Dirichlet data, so the
    pressure is determined through the mean-zero constraint; ``exact_p``
    should have zero mean on the global domain.
    """
    from .femspace import TaylorHoodSpace
    from .geometry import SideBC, generate_empty_mesh
    from .weakforms import assemble_interface_blocks, build_component_operators

    errs_u, errs_p, hs = [], [], []
    for n in resolutions:
        mesh = generate_empty_mesh(n)
        space = TaylorHoodSpace(mesh)
        ops = {"empty": build_component_operators(space, viscosity)}
        blocks = {
            ("empty", "empty", o): assemble_interface_blocks(space, space, o, viscosity)
            for o in ("H", "V")
        }
        bc = {s: SideBC("dirichlet", exact_u) for s in SIDES}
        grid = GridConfig(rows, cols, [["empty"] * cols] * rows, viscosity, bc, forcing)
        system = assemble_global(grid, ops, blocks)
        u, p, report = solve_newton(system)
        if not report.converged:
            raise RuntimeError(f"MMS solve failed to converge at n={n}")
        eu2, ep2, nu2, np2 = 0.0, 0.0, 0.0, 0.0
        for m in range(grid.n_subdomains):
            origin = grid.cell_origin(m)
            su = space.velocity_l2(u[system.slice_u(m)], lambda xy: exact_u(xy + origin))
            spp = space.pressure_l2(p[system.slice_p(m)], lambda xy: exact_p(xy + origin))
            ru = space.velocity_l2(space.interpolate_velocity(lambda xy: exact_u(xy + origin)))
            rp = space.pressure_l2(space.interpolate_pressure(lambda xy: exact_p(xy + origin)))
            eu2 += su**2
            ep2 += spp**2
            nu2 += ru**2
            np2 += rp**2
        errs_u.append(np.sqrt(eu2) / np.sqrt(nu2))
        errs_p.append(np.sqrt(ep2) / max(np.sqrt(np2), 1e-300))
        hs.append(1.0 / n)
    order_u = np.polyfit(np.log(hs), np.log(errs_u), 1)[0]
    order_p = np.polyfit(np.log(hs), np.log(errs_p), 1)[0]
    return {
        "h": hs,
        "velocity_errors": errs_u,
        "pressure_errors": errs_p,
        "velocity_order": float(order_u),
        "pressure_order": float(order_p),
    }


# --- solution dump and VTK export ------------------------------------------

SOLUTION_MAGIC = b"CROMSOL2"


def save_solution(path, u: np.ndarray, p: np.ndarray, extra: Optional[dict] = None):
    arrays = {"u": u, "p": p}
    if extra:
        arrays.update(extra)
    _binio.write_arrays(path, SOLUTION_MAGIC, arrays)


def load_solution(path) -> dict:
    """``u`` and ``p`` (one solution, or one snapshot per column) and any extras."""
    fields = {"u": ("f8", None), "p": ("f8", None)}
    data = _binio.read_arrays(path, SOLUTION_MAGIC, fields, extra=True)
    u, p = data["u"], data["p"]
    if u.ndim not in (1, 2) or u.shape[1:] != p.shape[1:]:
        raise _binio.FormatError(f"{path}: velocity {u.shape} and pressure {p.shape} do not pair")
    return data


def export_vtk(path, grid: GridConfig, spaces: Mapping, u: np.ndarray, p: np.ndarray):
    """Legacy ASCII VTK grid of triangles; velocity sampled at mesh vertices.

    ``u`` and ``p`` are laid out subdomain by subdomain on the component
    ``spaces``, as both solvers (the reduced one after lifting) lay them out.
    """
    pts, cells, vel, pres = [], [], [], []
    base = off_u = off_p = 0
    for m in range(grid.n_subdomains):
        space = spaces[grid.component_name(m)]
        mesh, n_v, n_s = space.mesh, space.mesh.n_vertices, space.n_scalar
        pts.append(mesh.vertices + grid.cell_origin(m))
        cells.append(mesh.triangles + base)
        um = u[off_u : off_u + space.n_u]
        vel.append(np.column_stack([um[:n_v], um[n_s : n_s + n_v]]))
        pres.append(p[off_p : off_p + space.n_p])
        base, off_u, off_p = base + n_v, off_u + space.n_u, off_p + space.n_p
    pts, cells = np.vstack(pts), np.vstack(cells)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# vtk DataFile Version 3.0\ncromflow solution\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(pts)} double\n")
        np.savetxt(fh, pts, fmt="%.12g %.12g 0")
        fh.write(f"CELLS {len(cells)} {4 * len(cells)}\n")
        np.savetxt(fh, cells, fmt="3 %d %d %d")
        fh.write(f"CELL_TYPES {len(cells)}\n")
        fh.write("\n".join(["5"] * len(cells)) + "\n")
        fh.write(f"POINT_DATA {len(pts)}\n")
        fh.write("VECTORS velocity double\n")
        np.savetxt(fh, np.vstack(vel), fmt="%.12g %.12g 0")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        np.savetxt(fh, np.concatenate(pres), fmt="%.12g")
