"""Global reduced system: the stored reduced model, assembly from
per-component reduced blocks, lifting back to full order, and error
evaluation.

The reduced system is the full-order block system of :mod:`cromflow.fom`
with every component and interface block replaced by its dense projection;
the Dirichlet loads come from the projected load builders of the sides, so
any inflow data can be applied without reassembling full-order operators.  The
projections are summed into one dense saddle block per cell and per
neighbouring cell pair, and each Newton matrix is rounded to float32 and
factored block by block in nested-dissection order (:mod:`cromflow.blocklu`);
the Newton loop refines each step to float64.  The system is solved
by the one Newton function of :mod:`cromflow.fom`, here named
:func:`solve_rom_newton`, from the zero reduced state.

The pressure block holds the per-component pressure-gradient penalty
``-C`` (zero for a basis that spans its training snapshots).  Without it,
reduced continuity rows along pressure directions the velocity basis barely
controls are inconsistent by the velocity truncation error, and a Galerkin
solve answers with a velocity component of size inconsistency / singular
value.  The penalty bounds that response while leaving well-controlled
pressure directions almost untouched.

Training stores every projected block in one file (:func:`save_model`), so
the online stage (:func:`load_model`) reads reduced blocks, bases and the
advection tensors or quadrature rules, and builds no mesh, space or
full-order operator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Mapping, Optional

import numpy as np

from . import _binio, eqp, reduction
from .blocklu import BlockLU, CellBlockMatrix, nested_dissection
from .eqp import eqp_advection_jacobian, eqp_advection_value
from .fom import BlockSystem, GlobalFomSystem, _offsets, assemble_blocks
from .fom import solve_newton as solve_rom_newton  # the one Newton entry, under its reduced name
from .fom import saddle_lu  # noqa: F401  not called: perfbench/tracing.py wraps rom.saddle_lu
from .geometry import SIDES, GridConfig
from .reduction import (
    ReducedComponentOperators,
    basis_checksum,
    tensor_contract,
    tensor_jacobian,
)
from .weakforms import BoundaryLoadBuilder, InterfaceBlocks

ROM_SOLUTION_MAGIC = b"CROMRSOL2"
MODEL_MAGIC = b"CROMROM2"
MODEL_FILE = "reduced_model.bin"
# the config keys that shape the stored blocks; a model is refused under others
MODEL_CONFIG_KEYS = (
    "n_per_side",
    "components",
    "reynolds",
    "basis_size",
    "pressure_basis_size",
    "supremizer_size",
)

TENSORIAL = "tensorial"
EQP = "eqp"


class _CellBlockSink:
    """Block placements summed into one dense saddle block per cell pair.

    The block of cells (m, n) is ``[[K_mn, B_nm^T], [B_mn, -C_mn]]`` in the
    order (velocity modes, pressure modes) of each cell.  The multiplier,
    where present, is one more node, the last, bordering each cell's
    pressure modes.
    """

    def __init__(self, off_u, off_p, n_dof):
        self._r_u = np.diff(off_u)
        n_u = off_u[-1]
        self._nodes = [
            np.concatenate([np.arange(u0, u1), n_u + np.arange(p0, p1)])
            for u0, u1, p0, p1 in zip(off_u[:-1], off_u[1:], off_p[:-1], off_p[1:])
        ]
        if n_dof > n_u + off_p[-1]:
            self._nodes.append(np.array([n_dof - 1]))
        self._blocks = {}

    def _block(self, m: int, n: int) -> np.ndarray:
        if (m, n) not in self._blocks:
            self._blocks[m, n] = np.zeros((len(self._nodes[m]), len(self._nodes[n])))
        return self._blocks[m, n]

    def add(self, name: str, mat, m: int, n: int) -> None:
        """Block ``mat`` of matrix ``name`` at rows of cell m, columns of n."""
        rm, rn = self._r_u[m], self._r_u[n]
        if name == "K":
            self._block(m, n)[:rm, :rn] += mat
        elif name == "B":
            self._block(m, n)[rm:, :rn] += mat
            self._block(n, m)[:rn, rm:] += mat.T
        else:
            self._block(m, n)[rm:, rn:] -= mat

    def add_mean(self, row: np.ndarray, m: int) -> None:
        """The multiplier's row over the pressure modes of cell m, and its column."""
        last, rm = len(self._nodes) - 1, self._r_u[m]
        self._block(last, m)[0, rm:] += row
        self._block(m, last)[rm:, 0] += row

    def saddle(self) -> CellBlockMatrix:
        return CellBlockMatrix(self._nodes, self._blocks)


@dataclass(kw_only=True)
class GlobalRomSystem(BlockSystem):
    """Reduced block system of :class:`ReducedComponentOperators`."""

    block_sink: ClassVar = _CellBlockSink

    backend: str
    fom_off_u: np.ndarray
    fom_off_p: np.ndarray

    def start(self) -> tuple:
        """The zero reduced state and the pivot groups of the solve: the
        cells in nested-dissection order, then the multiplier, where
        present, as the last group."""
        groups = nested_dissection(self.grid.rows, self.grid.cols)
        if self.pressure_constraint:
            groups.append([self.grid.n_subdomains])
        return np.zeros(self.n_dof), groups

    def advection_value(self, u_hat: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_u)
        for name, _, rows in self.type_groups:
            red = self.local[name]
            if self.backend == TENSORIAL:
                out[rows] = tensor_contract(red.tensor, u_hat[rows].T).T
            else:
                out[rows] = eqp_advection_value(red.eqp_rule, u_hat[rows].T).T
        return out

    def advection_jacobian(self, u_hat: np.ndarray) -> list:
        """The dense advection Jacobian block of each cell."""
        blocks = [None] * self.grid.n_subdomains
        for name, ms, rows in self.type_groups:
            red = self.local[name]
            if self.backend == TENSORIAL:
                jac = tensor_jacobian(red.tensor, u_hat[rows].T)
            else:
                jac = eqp_advection_jacobian(red.eqp_rule, u_hat[rows].T)
            for m, block in zip(ms, jac):
                blocks[m] = block
        return blocks

    def newton_matrix(self, adv: list) -> CellBlockMatrix:
        """The saddle blocks with each cell's Jacobian added."""
        blocks = dict(self.saddle.blocks)
        for m, jac in enumerate(adv):
            diag = blocks[m, m].copy()
            diag[: jac.shape[0], : jac.shape[1]] += jac
            blocks[m, m] = diag
        return CellBlockMatrix(self.saddle.nodes, blocks)

    def factorize(self, mat: CellBlockMatrix, groups: list) -> BlockLU:
        """Block LU of ``mat`` in float32, by the pivot groups from
        :meth:`start`; the Newton solve refines its steps in float64."""
        return BlockLU(mat, groups, np.float32)

    def divergence_sigma_min(self) -> float:
        """Smallest singular value of the assembled reduced B in l2 coordinates."""
        B = self.saddle.toarray()[self.n_u : self.n_u + self.n_p, : self.n_u]
        return float(np.linalg.svd(B, compute_uv=False)[-1])


@dataclass
class LiftedSolution:
    """Full-order fields lifted subdomain-wise from reduced coordinates, laid
    out like the FOM system of the same grid."""

    u: np.ndarray
    p: np.ndarray


def assemble_global_rom(
    grid: GridConfig,
    reduced: Mapping,
    reduced_interfaces: Mapping,
    backend: str = TENSORIAL,
) -> GlobalRomSystem:
    """Reduced global system from the projected component blocks.

    ``reduced_interfaces`` maps (ref_m, ref_n, orientation) to the dense
    projected :class:`~cromflow.weakforms.InterfaceBlocks`.  A grid with a
    body force is refused: the reduced blocks hold boundary loads only.
    """
    if backend not in (TENSORIAL, EQP):
        raise ValueError(f"unknown advection backend {backend!r}")
    if grid.forcing is not None:
        raise ValueError(
            "the reduced model has no body-force load; solve a forced grid at full order"
        )
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
    return assemble_blocks(
        GlobalRomSystem,
        grid,
        reduced,
        reduced_interfaces,
        backend=backend,
        fom_off_u=_offsets([reduced[name].basis.n_u for name in names]),
        fom_off_p=_offsets([reduced[name].basis.n_p for name in names]),
    )


def lift(system: GlobalRomSystem, u_hat: np.ndarray, p_hat: np.ndarray) -> LiftedSolution:
    """Lift to full-order fields, laid out like the matching FOM system."""
    ou, op = system.fom_off_u, system.fom_off_p
    u, p = np.zeros(ou[-1]), np.zeros(op[-1])
    for m in range(system.grid.n_subdomains):
        basis = system.local_of(m).basis
        u[ou[m] : ou[m + 1]] = basis.phi_u @ u_hat[system.slice_u(m)]
        p[op[m] : op[m + 1]] = basis.phi_p @ p_hat[system.slice_p(m)]
    return LiftedSolution(u=u, p=p)


def project_state(system: GlobalRomSystem, u: np.ndarray, p: np.ndarray):
    """Best-approximation reduced coordinates of a full-order state."""
    ou, op = system.fom_off_u, system.fom_off_p
    u_hat, p_hat = np.zeros(system.n_u), np.zeros(system.n_p)
    for m in range(system.grid.n_subdomains):
        basis = system.local_of(m).basis
        u_hat[system.slice_u(m)] = basis.phi_u.T @ u[ou[m] : ou[m + 1]]
        p_hat[system.slice_p(m)] = basis.phi_p.T @ p[op[m] : op[m + 1]]
    return u_hat, p_hat


def relative_errors(
    fom_system: GlobalFomSystem,
    u_fom: np.ndarray,
    p_fom: np.ndarray,
    lifted: LiftedSolution,
) -> dict:
    """Global relative L2 field errors of a lifted solution against a FOM one,
    both laid out like ``fom_system``; a lifted state of another length is
    refused with ``ValueError``."""
    if (len(lifted.u), len(lifted.p)) != (fom_system.n_u, fom_system.n_p):
        raise ValueError(
            f"lifted state of {len(lifted.u)} velocity and {len(lifted.p)} pressure dofs;"
            f" the FOM system has {fom_system.n_u} and {fom_system.n_p}"
        )
    eu2 = nu2 = ep2 = np2 = 0.0
    for m in range(fom_system.grid.n_subdomains):
        space = fom_system.local_of(m).space
        su, sp = fom_system.slice_u(m), fom_system.slice_p(m)
        eu2 += space.velocity_l2(u_fom[su] - lifted.u[su]) ** 2
        ep2 += space.pressure_l2(p_fom[sp] - lifted.p[sp]) ** 2
        nu2 += space.velocity_l2(u_fom[su]) ** 2
        np2 += space.pressure_l2(p_fom[sp]) ** 2
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


# --- the stored reduced model -------------------------------------------------

_LOAD_MAPS = ("dirichlet_u", "dirichlet_p")
_BLOCK_KEYS = ("mm", "mn", "nm", "nn")


def model_config(cfg, keys=MODEL_CONFIG_KEYS) -> dict:
    """The values of ``keys`` in ``cfg``, as JSON reads them back."""
    return json.loads(json.dumps({key: getattr(cfg, key) for key in keys}))


def check_config(path, stored: Mapping, cfg, keys=MODEL_CONFIG_KEYS, rerun="train") -> None:
    """Refuse a file that stores a config key outside ``keys`` or was written
    under other values of ``keys`` than ``cfg`` has, naming the file and the
    first such key; ``rerun`` is the command that writes the file anew."""
    extra = sorted(set(stored) - set(keys))
    if extra:
        raise _binio.FormatError(
            f"{path}: stores the config key {extra[0]!r}, which is no longer read; "
            f"run {rerun} again"
        )
    for key, value in model_config(cfg, keys).items():
        if stored.get(key) != value:
            raise _binio.FormatError(
                f"{path}: trained with {key}={stored.get(key)!r}, the config has {value!r}"
            )


def _interface_keys(components) -> list:
    return [(a, b, o) for a in components for b in components for o in ("H", "V")]


def _block_name(key, matrix: str, blocks: str) -> str:
    """Array name of one reduced interface block, e.g. ``empty/circle/H/K/mn``."""
    return "/".join((*key, matrix, blocks))


def save_model(path, cfg, reduced: Mapping, reduced_interfaces: Mapping) -> None:
    """Write the projected blocks of every component and interface configuration.

    A JSON header holds :func:`model_config` and, per component, the tags
    of its Nitsche blocks (the four sides, and the obstacle wall if any) and
    the :func:`~cromflow.reduction.basis_checksum` of the velocity basis the
    blocks were projected on.  Load maps are stored for the four sides only.
    A load map's columns, (point, component) pairs, are stored as two axes,
    so the quadrature points' count ties it to ``xy``.
    """
    config = model_config(cfg)
    header = {"config": config, "components": {}}
    arrays = {}
    for name in config["components"]:
        red = reduced[name]
        header["components"][name] = {
            "tags": list(red.K_di),
            "phi_u_checksum": basis_checksum(red.basis.phi_u),
        }
        for key in ("K", "B", "C", "pressure_mean"):
            arrays[f"{name}/{key}"] = getattr(red, key)
        for tag in red.K_di:
            arrays[f"{name}/{tag}/K_di"] = red.K_di[tag]
            arrays[f"{name}/{tag}/B_di"] = red.B_di[tag]
        for side in SIDES:
            load = red.loads[side]
            arrays[f"{name}/{side}/xy"] = load.xy
            for key in _LOAD_MAPS:
                m = getattr(load, key)
                arrays[f"{name}/{side}/{key}"] = m.reshape(m.shape[0], m.shape[1] // 2, 2)
    for key in _interface_keys(config["components"]):
        blocks = reduced_interfaces[key]
        for st in _BLOCK_KEYS:
            arrays[_block_name(key, "K", st)] = blocks.K[st]
            arrays[_block_name(key, "B", st)] = blocks.B[st]
    _binio.write_arrays(
        path, MODEL_MAGIC, {"header": _binio.text_array(json.dumps(header)), **arrays}
    )


def read_model(path):
    """Read a file of :func:`save_model`: (config, velocity basis checksums,
    reduced component operators, reduced interface blocks).

    The component operators come without their basis.  Every array's name,
    dtype and shape is checked against the layout the header describes.
    """
    arrays = _binio.read_arrays(path, MODEL_MAGIC, {"header": ("i8", ("header",))}, extra=True)
    try:
        header = json.loads(_binio.array_text(arrays["header"]))
        config, parts = header["config"], header["components"]
        names = list(config["components"])
        tags = {name: list(parts[name]["tags"]) for name in names}
        checksums = {name: str(parts[name]["phi_u_checksum"]) for name in names}
    except (ValueError, KeyError, TypeError) as exc:
        raise _binio.FormatError(f"{path}: unreadable header: {exc!r}") from exc

    # shape symbols: the velocity and pressure modes of each component, the
    # quadrature points of each of its sides
    r_u = {name: f"r_u of {name}" for name in names}
    r_p = {name: f"r_p of {name}" for name in names}
    layout = {"header": ("i8", ("header",))}
    for name in names:
        u, p = r_u[name], r_p[name]
        layout[f"{name}/K"] = ("f8", (u, u))
        layout[f"{name}/B"] = ("f8", (p, u))
        layout[f"{name}/C"] = ("f8", (p, p))
        layout[f"{name}/pressure_mean"] = ("f8", (p,))
        for tag in tags[name]:
            layout[f"{name}/{tag}/K_di"] = ("f8", (u, u))
            layout[f"{name}/{tag}/B_di"] = ("f8", (p, u))
        for side in SIDES:
            q = f"points of {name}/{side}"
            layout[f"{name}/{side}/xy"] = ("f8", (q, 2))
            layout[f"{name}/{side}/dirichlet_u"] = ("f8", (u, q, 2))
            layout[f"{name}/{side}/dirichlet_p"] = ("f8", (p, q, 2))
    for key in _interface_keys(names):
        side = {"m": key[0], "n": key[1]}
        for st in _BLOCK_KEYS:
            rows, cols = side[st[0]], side[st[1]]
            layout[_block_name(key, "K", st)] = ("f8", (r_u[rows], r_u[cols]))
            layout[_block_name(key, "B", st)] = ("f8", (r_p[rows], r_u[cols]))
    _binio.check_arrays(path, arrays, layout)

    def load_builder(prefix):
        maps = (arrays[f"{prefix}/{key}"] for key in _LOAD_MAPS)
        return BoundaryLoadBuilder(
            arrays[f"{prefix}/xy"], *(m.reshape(m.shape[0], 2 * m.shape[1]) for m in maps)
        )

    reduced = {
        name: ReducedComponentOperators(
            component=name,
            basis=None,
            K=arrays[f"{name}/K"],
            B=arrays[f"{name}/B"],
            C=arrays[f"{name}/C"],
            K_di={tag: arrays[f"{name}/{tag}/K_di"] for tag in tags[name]},
            B_di={tag: arrays[f"{name}/{tag}/B_di"] for tag in tags[name]},
            loads={side: load_builder(f"{name}/{side}") for side in SIDES},
            pressure_mean=arrays[f"{name}/pressure_mean"],
        )
        for name in names
    }
    interfaces = {
        key: InterfaceBlocks(
            K={st: arrays[_block_name(key, "K", st)] for st in _BLOCK_KEYS},
            B={st: arrays[_block_name(key, "B", st)] for st in _BLOCK_KEYS},
        )
        for key in _interface_keys(names)
    }
    return config, checksums, reduced, interfaces


def load_model(out_dir, cfg, backends):
    """The reduced model that ``train`` (and ``train-eqp``) wrote to ``out_dir``.

    Returns (reduced component operators by name, reduced interface blocks),
    ready for :func:`assemble_global_rom` with each of ``backends``.  Reads
    :data:`MODEL_FILE`, the bases and the advection tensors (tensorial)
    and/or quadrature rules (EQP); builds no mesh, space or full-order
    operator.

    Raises :class:`~cromflow._binio.FormatError` when the model stores a
    config key outside :data:`MODEL_CONFIG_KEYS` or was trained under other
    values of them than ``cfg`` has, or when the model or a rule was derived
    from another velocity basis than the one stored.  The meshes depend on
    ``n_per_side`` and ``components`` alone, so the checksums also tie each
    basis to the meshes of ``cfg``.
    """
    out_dir = Path(out_dir)
    path = out_dir / MODEL_FILE
    config, checksums, reduced, interfaces = read_model(path)
    check_config(path, config, cfg)
    for name, red in reduced.items():
        basis_path = out_dir / f"basis_{name}.bin"
        red.basis = reduction.load_basis(basis_path)
        checksum = basis_checksum(red.basis.phi_u)
        if checksums[name] != checksum:
            raise _binio.FormatError(
                f"{path} was projected on another velocity basis than {basis_path};"
                " run train again"
            )
        if TENSORIAL in backends:
            red.tensor = reduction.load_tensor(out_dir / f"tensor_{name}.bin")
        if EQP in backends:
            rule_path = out_dir / f"eqp_{name}.bin"
            red.eqp_rule = eqp.load_rule(rule_path)
            if red.eqp_rule.phi_u_checksum != checksum:
                raise _binio.FormatError(
                    f"{rule_path} was trained on another velocity basis than {basis_path};"
                    " run train-eqp again"
                )
    return reduced, interfaces
