"""Global block system over a component grid, and its steady solves.

One block layout serves both the full-order and the reduced system: each
subdomain owns a contiguous range of velocity and pressure rows, and the
per-component blocks (domain, weak Dirichlet, interface configurations) are
placed at those offsets.  At full order the blocks are the sparse component
operators; in the reduced system they are their dense projections.  The
steady nonlinear problem is solved by Newton-Raphson with a sparse direct
LU factorization; the full-order solve starts from a Stokes solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _binio
from .geometry import GridConfig, SIDES, interface_topology
from .weakforms import ComponentOperators

# global sides touching a subdomain, by grid position
_SIDE_OF_CELL = {
    "L": lambda col, row, grid: col == 0,
    "R": lambda col, row, grid: col == grid.cols - 1,
    "B": lambda col, row, grid: row == 0,
    "T": lambda col, row, grid: row == grid.rows - 1,
}


def saddle_lu(mat):
    """Sparse LU tuned for the saddle sparsity pattern.

    Symmetric-pattern mode with a relaxed pivot threshold roughly halves the
    factorization time on these systems; the callers all guard accuracy with
    explicit residual checks.
    """
    return spla.splu(mat, diag_pivot_thresh=0.01, options=dict(SymmetricMode=True))


@dataclass
class SolveReport:
    newton_iterations: int
    residual_history: list
    wall_times: dict                    # assembly, factorization, total (seconds)
    converged: bool
    message: str = ""


@dataclass(kw_only=True)
class BlockSystem:
    """Global saddle-point system in the subdomain block layout.

    Subdomain m owns velocity rows ``off_u[m]:off_u[m + 1]`` and pressure
    rows ``off_p[m]:off_p[m + 1]``.  The pressure block of the saddle matrix
    is ``-C``: empty at full order, the pressure-gradient penalty in the
    reduced system.  Without an outflow side the mean pressure is fixed by a
    Lagrange multiplier, the last unknown.  Subclasses supply the advection
    term.
    """

    grid: GridConfig
    interfaces: list                    # (m, n, orientation) per grid interface
    off_u: np.ndarray
    off_p: np.ndarray
    n_u: int
    n_p: int
    K: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    rhs_u: np.ndarray
    rhs_p: np.ndarray
    pressure_constraint: bool
    mean_row: Optional[np.ndarray]
    assembly_time: float = 0.0

    def slice_u(self, m: int) -> slice:
        return slice(self.off_u[m], self.off_u[m + 1])

    def slice_p(self, m: int) -> slice:
        return slice(self.off_p[m], self.off_p[m + 1])

    @property
    def n_dof(self) -> int:
        return self.n_u + self.n_p + (1 if self.pressure_constraint else 0)

    def residual(self, u: np.ndarray, p: np.ndarray):
        """Momentum and continuity residual blocks at a given state."""
        r_u = self.K @ u + self.B.T @ p + self.advection_value(u) - self.rhs_u
        r_p = self.B @ u - self.C @ p - self.rhs_p
        return r_u, r_p

    def _split(self, x: np.ndarray):
        return x[: self.n_u], x[self.n_u : self.n_u + self.n_p]

    def _residual_vector(self, x: np.ndarray) -> np.ndarray:
        u, p = self._split(x)
        r_u, r_p = self.residual(u, p)
        if self.pressure_constraint:
            r_p = r_p + x[-1] * self.mean_row
            return np.concatenate([r_u, r_p, [self.mean_row @ p]])
        return np.concatenate([r_u, r_p])

    def _saddle(self, A_uu: sp.spmatrix) -> sp.csc_matrix:
        if self.pressure_constraint:
            m = sp.csr_matrix(self.mean_row[None, :])
            return sp.bmat(
                [[A_uu, self.B.T, None], [self.B, -self.C, m.T], [None, m, None]],
                format="csc",
            )
        return sp.bmat([[A_uu, self.B.T], [self.B, -self.C]], format="csc")


class _Triplets:
    """Coordinate entries of one global matrix, gathered block by block.

    Sparse blocks contribute their stored entries; dense blocks contribute
    every entry, so the global pattern does not depend on the values.
    """

    def __init__(self, shape):
        self.shape = shape
        self.rows, self.cols, self.vals = [], [], []

    def add(self, mat, row_off, col_off):
        if sp.issparse(mat):
            coo = mat.tocoo()
            rows, cols, vals = coo.row, coo.col, coo.data
        else:
            nr, nc = mat.shape
            rows, cols = np.repeat(np.arange(nr), nc), np.tile(np.arange(nc), nr)
            vals = np.asarray(mat).ravel()
        self.rows.append(rows + row_off)
        self.cols.append(cols + col_off)
        self.vals.append(vals)

    def tocsr(self) -> sp.csr_matrix:
        return sp.coo_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=self.shape,
        ).tocsr()


def _offsets(sizes) -> np.ndarray:
    off = np.zeros(len(sizes) + 1, dtype=int)
    off[1:] = np.cumsum(sizes)
    return off


def assemble_blocks(cls, grid: GridConfig, local: Mapping, interface_blocks: Mapping, **fields):
    """Place per-component and per-configuration blocks at subdomain offsets.

    ``local`` maps component names to :class:`ComponentOperators` or their
    reduced projections; either carries ``K``, ``B``, ``C`` (empty at full
    order), ``K_di``/``B_di`` and ``loads`` by boundary tag,
    ``pressure_mean`` and ``forcing_load``.  ``interface_blocks`` maps
    (ref_m, ref_n, orientation) to blocks keyed "mm".."nn"; a missing needed
    configuration is an error.  Returns ``cls`` built from the assembled
    fields plus ``fields``.
    """
    grid.validate_components(local)
    M = grid.n_subdomains
    parts = [local[grid.component_name(m)] for m in range(M)]
    off_u = _offsets([ops.K.shape[0] for ops in parts])
    off_p = _offsets([ops.B.shape[0] for ops in parts])
    n_u, n_p = int(off_u[-1]), int(off_p[-1])

    K = _Triplets((n_u, n_u))
    B = _Triplets((n_p, n_u))
    C = _Triplets((n_p, n_p))
    rhs_u = np.zeros(n_u)
    rhs_p = np.zeros(n_p)
    any_neumann = any(grid.bc[s].kind == "neumann" for s in SIDES)

    for m, ops in enumerate(parts):
        K.add(ops.K, off_u[m], off_u[m])
        B.add(ops.B, off_p[m], off_u[m])
        C.add(ops.C, off_p[m], off_p[m])
        origin = grid.cell_origin(m)
        col, row = m % grid.cols, m // grid.cols
        if grid.forcing is not None:
            rhs_u[off_u[m] : off_u[m + 1]] += ops.forcing_load(grid.forcing, origin)
        for side in SIDES:
            if not _SIDE_OF_CELL[side](col, row, grid):
                continue
            bc = grid.bc[side]
            if bc.kind == "dirichlet":
                K.add(ops.K_di[side], off_u[m], off_u[m])
                B.add(ops.B_di[side], off_p[m], off_u[m])
                lu, lp = ops.loads[side].dirichlet_loads(bc.velocity, origin)
                rhs_u[off_u[m] : off_u[m + 1]] += lu
                rhs_p[off_p[m] : off_p[m + 1]] += lp
            elif bc.velocity is not None:
                rhs_u[off_u[m] : off_u[m + 1]] += ops.loads[side].neumann_load(
                    bc.velocity, origin
                )
        if "O" in ops.K_di:
            K.add(ops.K_di["O"], off_u[m], off_u[m])
            B.add(ops.B_di["O"], off_p[m], off_u[m])  # no-slip walls: zero loads

    interfaces = interface_topology(grid)
    for m, n, orientation in interfaces:
        key = (grid.component_name(m), grid.component_name(n), orientation)
        if key not in interface_blocks:
            raise KeyError(f"missing interface blocks for configuration {key}")
        blocks = interface_blocks[key]
        offs = {"m": m, "n": n}
        for s in ("m", "n"):
            for t in ("m", "n"):
                K.add(blocks.K[s + t], off_u[offs[s]], off_u[offs[t]])
                B.add(blocks.B[s + t], off_p[offs[s]], off_u[offs[t]])

    C_mat = C.tocsr()
    C_mat.eliminate_zeros()
    mean_row = None
    if not any_neumann:
        mean_row = np.concatenate([ops.pressure_mean for ops in parts])
    return cls(
        grid=grid,
        interfaces=interfaces,
        off_u=off_u,
        off_p=off_p,
        n_u=n_u,
        n_p=n_p,
        K=K.tocsr(),
        B=B.tocsr(),
        C=C_mat,
        rhs_u=rhs_u,
        rhs_p=rhs_p,
        pressure_constraint=not any_neumann,
        mean_row=mean_row,
        **fields,
    )


def newton(system: BlockSystem, x, factorize, tol_rel, tol_abs, max_iter, t_start, t_fact):
    """Newton-Raphson on a block system from the stacked state ``x``.

    ``factorize`` is the sparse LU of the calling solver; ``t_start`` and
    ``t_fact`` are the solve's start time and the factorization seconds it
    has spent before the loop.  A singular factorization or a non-finite
    residual ends the loop with a non-converged report.  Returns
    (u, p, report).
    """
    r = system._residual_vector(x)
    history = [float(np.linalg.norm(r))]
    target = max(tol_rel * history[0], tol_abs)
    converged = history[0] <= target
    message = ""
    it = 0
    while not converged and it < max_iter:
        u, _ = system._split(x)
        t0 = time.perf_counter()
        jac = system._saddle(system.K + system.advection_jacobian(u))
        try:
            lu = factorize(jac)
        except RuntimeError as exc:
            t_fact += time.perf_counter() - t0
            message = f"singular Newton factorization: {exc}"
            break
        x = x + lu.solve(-r)
        t_fact += time.perf_counter() - t0
        r = system._residual_vector(x)
        history.append(float(np.linalg.norm(r)))
        it += 1
        if history[-1] <= target:
            converged = True
        elif not np.isfinite(history[-1]):
            message = "residual diverged"
            break
    u, p = system._split(x)
    report = SolveReport(
        newton_iterations=it,
        residual_history=history,
        wall_times={
            "assembly": system.assembly_time,
            "factorization": t_fact,
            "total": time.perf_counter() - t_start,
        },
        converged=bool(converged),
        message=message,
    )
    return u, p, report


@dataclass(kw_only=True)
class GlobalFomSystem(BlockSystem):
    operators: Mapping                  # component name -> ComponentOperators

    def ops_of(self, m: int) -> ComponentOperators:
        return self.operators[self.grid.component_name(m)]

    def advection_value(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_u)
        for m in range(self.grid.n_subdomains):
            sl = self.slice_u(m)
            out[sl] = self.ops_of(m).adv.value(u[sl])
        return out

    def advection_jacobian(self, u: np.ndarray) -> sp.csr_matrix:
        blocks = []
        for m in range(self.grid.n_subdomains):
            blocks.append(self.ops_of(m).adv.jacobian(u[self.slice_u(m)]))
        return sp.block_diag(blocks, format="csr")


def _check_dirichlet_compatibility(grid: GridConfig, operators, tol=1e-9):
    """Fully Dirichlet data must carry zero net flux through the boundary."""
    total = 0.0
    scale = 0.0
    for m in range(grid.n_subdomains):
        ops = operators[grid.component_name(m)]
        origin = grid.cell_origin(m)
        col, row = m % grid.cols, m // grid.cols
        for side in SIDES:
            if not _SIDE_OF_CELL[side](col, row, grid):
                continue
            bc = grid.bc[side]
            if bc.kind != "dirichlet":
                continue
            builder = ops.loads[side]
            gv = builder.eval_data(bc.velocity, origin).reshape(-1, 2)
            normal = {"L": (-1, 0), "R": (1, 0), "B": (0, -1), "T": (0, 1)}[side]
            w = _builder_weights(ops.space, side)
            flux = float(np.sum(w * (gv @ np.asarray(normal, dtype=float))))
            total += flux
            scale += float(np.sum(w * np.linalg.norm(gv, axis=1)))
    if abs(total) > tol * max(scale, 1.0):
        raise ValueError(
            f"incompatible Dirichlet data: net boundary flux {total:.3e} != 0"
        )


def _builder_weights(space, side):
    from .femspace import LINE_QW

    lengths = []
    for bedge in space.mesh.side_trace[side]:
        i, j = space.mesh.boundary_edges[bedge]
        lengths.append(np.linalg.norm(space.mesh.vertices[j] - space.mesh.vertices[i]))
    return np.concatenate([LINE_QW * L for L in lengths])


def assemble_global(
    grid: GridConfig,
    operators: Mapping,
    interface_blocks: Mapping,
) -> GlobalFomSystem:
    """Full-order global system from the component operators.

    ``interface_blocks`` maps (ref_m, ref_n, orientation) to
    :class:`InterfaceBlocks`; a missing needed configuration is an error,
    and so is fully Dirichlet data with a net boundary flux.
    """
    t0 = time.perf_counter()
    system = assemble_blocks(
        GlobalFomSystem, grid, operators, interface_blocks, operators=operators
    )
    if system.pressure_constraint:
        _check_dirichlet_compatibility(grid, operators)
    system.assembly_time = time.perf_counter() - t0
    return system


def _solve_stokes_full(system: GlobalFomSystem) -> np.ndarray:
    mat = system._saddle(system.K)
    rhs = np.concatenate([system.rhs_u, system.rhs_p])
    if system.pressure_constraint:
        rhs = np.concatenate([rhs, [0.0]])
    lu = saddle_lu(mat)
    x = lu.solve(rhs)
    res = np.linalg.norm(mat @ x - rhs)
    if res > 1e-10 * max(np.linalg.norm(rhs), 1.0):
        raise RuntimeError(f"Stokes solve inaccurate: residual {res:.3e}")
    return x


def solve_stokes(system: GlobalFomSystem):
    """Linear saddle-point solve with the advection term dropped."""
    return system._split(_solve_stokes_full(system))


def solve_newton(
    system: GlobalFomSystem,
    tol_rel: float = 1e-8,
    tol_abs: float = 1e-10,
    max_iter: int = 50,
):
    """Newton-Raphson on the steady system, starting from a Stokes solve.

    Returns (u, p, report); non-convergence, a singular Newton factorization
    included, is reported, not raised.  An inaccurate Stokes start raises.
    """
    t_start = time.perf_counter()
    x = _solve_stokes_full(system)
    t_fact = time.perf_counter() - t_start
    return newton(system, x, saddle_lu, tol_rel, tol_abs, max_iter, t_start, t_fact)


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

SOLUTION_MAGIC = b"CROMSOL1"


def save_solution(path, u: np.ndarray, p: np.ndarray, extra: Optional[dict] = None):
    arrays = {"u": u, "p": p}
    if extra:
        arrays.update(extra)
    _binio.write_named_arrays(path, SOLUTION_MAGIC, arrays)


def load_solution(path) -> dict:
    return _binio.read_named_arrays(path, SOLUTION_MAGIC)


def export_vtk(path, system: GlobalFomSystem, u: np.ndarray, p: np.ndarray):
    """Legacy VTK unstructured grid; velocity sampled at mesh vertices."""
    pts, cells, vel, pres = [], [], [], []
    base = 0
    for m in range(system.grid.n_subdomains):
        space = system.ops_of(m).space
        mesh = space.mesh
        origin = system.grid.cell_origin(m)
        pts.append(mesh.vertices + origin)
        cells.append(mesh.triangles + base)
        um = u[system.slice_u(m)]
        n_v = mesh.n_vertices
        vel.append(np.column_stack([um[:n_v], um[space.n_scalar : space.n_scalar + n_v]]))
        pres.append(p[system.slice_p(m)])
        base += n_v
    pts = np.vstack(pts)
    cells = np.vstack(cells)
    vel = np.vstack(vel)
    pres = np.concatenate(pres)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# vtk DataFile Version 3.0\ncromflow solution\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(pts)} double\n")
        for x, y in pts:
            fh.write(f"{x:.12g} {y:.12g} 0\n")
        fh.write(f"CELLS {len(cells)} {4 * len(cells)}\n")
        for i, j, k in cells:
            fh.write(f"3 {i} {j} {k}\n")
        fh.write(f"CELL_TYPES {len(cells)}\n")
        fh.write("\n".join(["5"] * len(cells)) + "\n")
        fh.write(f"POINT_DATA {len(pts)}\n")
        fh.write("VECTORS velocity double\n")
        for vx, vy in vel:
            fh.write(f"{vx:.12g} {vy:.12g} 0\n")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        for q in pres:
            fh.write(f"{q:.12g}\n")
