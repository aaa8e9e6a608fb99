"""Global reduced system: assembly from per-component reduced blocks,
Newton solve, lifting back to full order, and error evaluation.

The reduced system is the full-order block system of :mod:`cromflow.fom`
with every component and interface block replaced by its dense projection;
boundary loads come from the projected load builders, so any boundary
condition can be applied without reassembling full-order operators.

The pressure block holds the per-component pressure-gradient penalty
``-C`` (zero for a basis that spans its training snapshots).  Without it,
reduced continuity rows along pressure directions the velocity basis barely
controls are inconsistent by the velocity truncation error, and a Galerkin
solve answers with a velocity component of size inconsistency / singular
value.  The penalty bounds that response while leaving well-controlled
pressure directions almost untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import numpy as np
import scipy.sparse as sp

from . import _binio
from .eqp import eqp_advection_jacobian, eqp_advection_value
from .fom import BlockSystem, GlobalFomSystem, _offsets, assemble_blocks, newton, saddle_lu
from .geometry import GridConfig
from .reduction import ReducedComponentOperators, tensor_contract, tensor_jacobian

ROM_SOLUTION_MAGIC = b"CROMRSOL2"

TENSORIAL = "tensorial"
EQP = "eqp"


@dataclass(kw_only=True)
class GlobalRomSystem(BlockSystem):
    reduced: Mapping                     # component name -> ReducedComponentOperators
    backend: str
    fom_off_u: np.ndarray
    fom_off_p: np.ndarray

    def red_of(self, m: int) -> ReducedComponentOperators:
        return self.reduced[self.grid.component_name(m)]

    @cached_property
    def _type_groups(self) -> list:
        """(reduced operators, subdomains, velocity rows (M, R)) per component type.

        The advection kernels take the M reduced states of one type stacked
        as columns, so each type costs one kernel call per evaluation.
        """
        members = {}
        for m in range(self.grid.n_subdomains):
            members.setdefault(self.grid.component_name(m), []).append(m)
        groups = []
        for name, ms in members.items():
            red = self.reduced[name]
            groups.append((red, ms, self.off_u[ms][:, None] + np.arange(red.r_u)))
        return groups

    def advection_value(self, u_hat: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_u)
        for red, _, rows in self._type_groups:
            if self.backend == TENSORIAL:
                out[rows] = tensor_contract(red.tensor, u_hat[rows].T).T
            else:
                out[rows] = eqp_advection_value(red.eqp_rule, u_hat[rows].T).T
        return out

    def advection_jacobian(self, u_hat: np.ndarray) -> sp.csr_matrix:
        blocks = [None] * self.grid.n_subdomains
        for red, ms, rows in self._type_groups:
            if self.backend == TENSORIAL:
                jac = tensor_jacobian(red.tensor, u_hat[rows].T)
            else:
                jac = eqp_advection_jacobian(red.eqp_rule, u_hat[rows].T)
            for m, block in zip(ms, jac):
                blocks[m] = block
        return sp.block_diag(blocks, format="csr")

    def divergence_sigma_min(self) -> float:
        """Smallest singular value of the assembled reduced B in l2 coordinates."""
        return float(np.linalg.svd(self.B.toarray(), compute_uv=False)[-1])


@dataclass
class LiftedSolution:
    """Full-order fields lifted subdomain-wise from reduced coordinates."""

    u: np.ndarray
    p: np.ndarray
    off_u: np.ndarray
    off_p: np.ndarray


def assemble_global_rom(
    grid: GridConfig,
    reduced: Mapping,
    reduced_interfaces: Mapping,
    backend: str = TENSORIAL,
) -> GlobalRomSystem:
    """Reduced global system from the projected component blocks.

    ``reduced_interfaces`` maps (ref_m, ref_n, orientation) to
    :class:`ReducedInterfaceBlocks`.
    """
    if backend not in (TENSORIAL, EQP):
        raise ValueError(f"unknown advection backend {backend!r}")
    t0 = time.perf_counter()
    grid.validate_components(reduced)
    names = [grid.component_name(m) for m in range(grid.n_subdomains)]
    for name in set(names):
        red = reduced[name]
        if backend == TENSORIAL:
            if red.tensor is None:
                raise ValueError(f"component {name!r} has no advection tensor")
            if red.tensor.shape != (red.r_u,) * 3:
                raise ValueError(
                    f"component {name!r}: advection tensor of shape {red.tensor.shape}"
                    f" does not match its {red.r_u} velocity modes"
                )
        else:
            if red.eqp_rule is None:
                raise ValueError(f"component {name!r} has no trained quadrature rule")
            if red.eqp_rule.n_basis != red.r_u:
                raise ValueError(
                    f"component {name!r}: quadrature rule attached to a basis of"
                    f" {red.eqp_rule.n_basis} velocity modes, not its {red.r_u}"
                )
    system = assemble_blocks(
        GlobalRomSystem,
        grid,
        reduced,
        reduced_interfaces,
        reduced=reduced,
        backend=backend,
        fom_off_u=_offsets([reduced[name].basis.n_u for name in names]),
        fom_off_p=_offsets([reduced[name].basis.n_p for name in names]),
    )
    system.assembly_time = time.perf_counter() - t0
    return system


def solve_rom_newton(
    system: GlobalRomSystem,
    tol_rel: float = 1e-8,
    tol_abs: float = 1e-10,
    max_iter: int = 50,
):
    """Newton on the reduced system from the zero reduced state.

    Returns (u_hat, p_hat, report); non-convergence, a singular
    factorization included, is reported, not raised.
    """
    t_start = time.perf_counter()
    x = np.zeros(system.n_dof)
    return newton(system, x, saddle_lu, tol_rel, tol_abs, max_iter, t_start, 0.0)


def lift(system: GlobalRomSystem, u_hat: np.ndarray, p_hat: np.ndarray) -> LiftedSolution:
    """Lift to full-order fields, laid out like the matching FOM system."""
    u = np.zeros(system.fom_off_u[-1])
    p = np.zeros(system.fom_off_p[-1])
    for m in range(system.grid.n_subdomains):
        red = system.red_of(m)
        u[system.fom_off_u[m] : system.fom_off_u[m + 1]] = red.basis.phi_u @ u_hat[
            system.slice_u(m)
        ]
        p[system.fom_off_p[m] : system.fom_off_p[m + 1]] = red.basis.phi_p @ p_hat[
            system.slice_p(m)
        ]
    return LiftedSolution(u=u, p=p, off_u=system.fom_off_u, off_p=system.fom_off_p)


def project_state(system: GlobalRomSystem, u: np.ndarray, p: np.ndarray):
    """Best-approximation reduced coordinates of a full-order state."""
    u_hat = np.zeros(system.n_u)
    p_hat = np.zeros(system.n_p)
    for m in range(system.grid.n_subdomains):
        red = system.red_of(m)
        u_hat[system.slice_u(m)] = red.basis.phi_u.T @ u[
            system.fom_off_u[m] : system.fom_off_u[m + 1]
        ]
        p_hat[system.slice_p(m)] = red.basis.phi_p.T @ p[
            system.fom_off_p[m] : system.fom_off_p[m + 1]
        ]
    return u_hat, p_hat


def relative_errors(
    fom_system: GlobalFomSystem,
    u_fom: np.ndarray,
    p_fom: np.ndarray,
    lifted: LiftedSolution,
) -> dict:
    """Global relative L2 field errors of a lifted solution against a FOM one."""
    eu2 = nu2 = ep2 = np2 = 0.0
    for m in range(fom_system.grid.n_subdomains):
        space = fom_system.ops_of(m).space
        du = u_fom[fom_system.slice_u(m)] - lifted.u[lifted.off_u[m] : lifted.off_u[m + 1]]
        dp = p_fom[fom_system.slice_p(m)] - lifted.p[lifted.off_p[m] : lifted.off_p[m + 1]]
        eu2 += space.velocity_l2(du) ** 2
        ep2 += space.pressure_l2(dp) ** 2
        nu2 += space.velocity_l2(u_fom[fom_system.slice_u(m)]) ** 2
        np2 += space.pressure_l2(p_fom[fom_system.slice_p(m)]) ** 2
    return {
        "velocity_rel_l2": float(np.sqrt(eu2 / max(nu2, 1e-300))),
        "pressure_rel_l2": float(np.sqrt(ep2 / max(np2, 1e-300))),
    }


def save_rom_solution(path, u_hat: np.ndarray, p_hat: np.ndarray, extra: Optional[dict] = None):
    arrays = {"u_hat": u_hat, "p_hat": p_hat}
    if extra:
        arrays.update(extra)
    _binio.write_arrays(path, ROM_SOLUTION_MAGIC, arrays)


def load_rom_solution(path) -> dict:
    return _binio.read_arrays(
        path, ROM_SOLUTION_MAGIC,
        {"u_hat": ("f8", ("r_u",)), "p_hat": ("f8", ("r_p",))}, extra=True,
    )
