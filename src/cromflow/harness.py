"""Experiment harness: sampling, training, and the prediction studies.

Training draws random 2x2 component arrays with random inflow conditions,
solves the full-order problem, and routes the per-subdomain restrictions
into snapshot sets per reference component.  Prediction studies assemble
larger grids from the trained per-component artifacts and compare the
reduced solutions against fresh full-order solves.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .femspace import TaylorHoodSpace
from .fom import assemble_global, solve_newton
from .geometry import GridConfig, SideBC, build_component_meshes
from .eqp import build_manifest, train_rule
from .reduction import (
    SnapshotSet,
    build_advection_tensor,
    build_pod_basis,
    missing_energy,
    project_linear,
)
from .rom import (
    EQP,
    TENSORIAL,
    assemble_global_rom,
    lift,
    relative_errors,
    solve_rom_newton,
)
from .weakforms import assemble_interface_blocks, build_component_operators

log = logging.getLogger("cromflow")


@dataclass
class InflowSample:
    """One random inflow: mean velocity plus a sinusoidal perturbation."""

    g1: float
    g2: float
    dg1: float
    dg2: float
    k1: np.ndarray
    k2: np.ndarray
    th1: float
    th2: float

    def velocity(self):
        g1, g2, dg1, dg2 = self.g1, self.g2, self.dg1, self.dg2
        k1, k2, th1, th2 = self.k1, self.k2, self.th1, self.th2

        def g(xy):
            xy = np.atleast_2d(xy)
            return np.stack(
                [
                    g1 + dg1 * np.sin(2 * np.pi * (xy @ k1 + th1)),
                    g2 + dg2 * np.sin(2 * np.pi * (xy @ k2 + th2)),
                ],
                axis=-1,
            )

        return g

    def as_row(self) -> dict:
        return {
            "g1": self.g1,
            "g2": self.g2,
            "dg1": self.dg1,
            "dg2": self.dg2,
            "k1x": self.k1[0],
            "k1y": self.k1[1],
            "k2x": self.k2[0],
            "k2y": self.k2[1],
            "th1": self.th1,
            "th2": self.th2,
        }


def sample_inflow(rng: np.random.Generator) -> InflowSample:
    """Draw one inflow from the training distribution."""
    return InflowSample(
        g1=rng.uniform(-1.0, 1.0),
        g2=rng.uniform(-1.0, 1.0),
        dg1=rng.uniform(-0.1, 0.1),
        dg2=rng.uniform(-0.1, 0.1),
        k1=rng.uniform(-0.5, 0.5, size=2),
        k2=rng.uniform(-0.5, 0.5, size=2),
        th1=rng.uniform(0.0, 1.0),
        th2=rng.uniform(0.0, 1.0),
    )


def bc_from_sample(sample: InflowSample) -> dict:
    """Dirichlet on strictly upwind sides, homogeneous Neumann elsewhere.

    A zero mean component leaves both transverse sides Neumann, so the
    problem always keeps an outflow.
    """
    g = sample.velocity()
    bc = {side: SideBC("neumann") for side in ("L", "R", "B", "T")}
    if sample.g1 > 0.0:
        bc["L"] = SideBC("dirichlet", g)
    elif sample.g1 < 0.0:
        bc["R"] = SideBC("dirichlet", g)
    if sample.g2 > 0.0:
        bc["B"] = SideBC("dirichlet", g)
    elif sample.g2 < 0.0:
        bc["T"] = SideBC("dirichlet", g)
    if not any(s.kind == "dirichlet" for s in bc.values()):
        raise ValueError("inflow sample has no upwind side (zero mean velocity)")
    return bc


@dataclass
class ExperimentConfig:
    """Knobs for training and the prediction studies (desk-scale defaults)."""

    n_per_side: int = 8
    components: tuple = ("empty", "square", "circle")
    square_half_width: float = 0.25
    circle_half_width: float = 0.2
    reynolds: float = 25.0
    train_samples: int = 200
    train_rows: int = 2
    train_cols: int = 2
    basis_size: int = 30                      # velocity modes R_u
    pressure_basis_size: Optional[int] = None  # defaults to basis_size
    supremizer_size: Optional[int] = None      # defaults to pressure basis size
    eqp_tol: Optional[float] = None            # defaults to the missing-energy ratio
    predict_sizes: tuple = (2, 4, 8)
    tests_per_size: int = 20
    seed: int = 0
    newton_tol: float = 1e-8
    newton_max_iter: int = 50

    @property
    def viscosity(self) -> float:
        return 1.0 / self.reynolds

    @property
    def r_p(self) -> int:
        return self.pressure_basis_size or self.basis_size

    @property
    def z(self) -> int:
        return self.supremizer_size if self.supremizer_size is not None else self.r_p

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text())
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("components", "predict_sizes"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)

    def to_json(self, path) -> None:
        data = asdict(self)
        data["components"] = list(self.components)
        data["predict_sizes"] = list(self.predict_sizes)
        Path(path).write_text(json.dumps(data, indent=2) + "\n")


@dataclass
class ComponentSet:
    """Spaces (on their meshes) and assembled operators of the component pool."""

    cfg: ExperimentConfig
    spaces: dict
    operators: dict
    interface_blocks: dict


def build_component_spaces(cfg: ExperimentConfig) -> dict:
    """Taylor-Hood space of each component of the pool, on its mesh."""
    return {name: TaylorHoodSpace(mesh) for name, mesh in build_component_meshes(cfg).items()}


def build_component_set(cfg: ExperimentConfig) -> ComponentSet:
    spaces = build_component_spaces(cfg)
    nu = cfg.viscosity
    operators = {name: build_component_operators(space, nu) for name, space in spaces.items()}
    blocks = {
        (a, b, o): assemble_interface_blocks(spaces[a], spaces[b], o, nu)
        for a in spaces
        for b in spaces
        for o in ("H", "V")
    }
    return ComponentSet(cfg, spaces, operators, blocks)


def random_cells(rng: np.random.Generator, rows: int, cols: int, pool) -> list:
    pool = list(pool)
    picks = rng.integers(0, len(pool), size=(rows, cols))
    return [[pool[picks[r, c]] for c in range(cols)] for r in range(rows)]


def generate_snapshots(cfg: ExperimentConfig, parts: ComponentSet):
    """Solve random small arrays and restrict solutions per reference component.

    Non-convergent samples are skipped and logged.  Returns (snapshot sets
    by component, number of skipped samples).
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    columns = {name: ([], []) for name in cfg.components}
    skipped = 0
    for i in range(cfg.train_samples):
        cells = random_cells(rng, cfg.train_rows, cfg.train_cols, cfg.components)
        sample = sample_inflow(rng)
        grid = GridConfig(
            cfg.train_rows, cfg.train_cols, cells, cfg.viscosity, bc_from_sample(sample)
        )
        system = assemble_global(grid, parts.operators, parts.interface_blocks)
        try:
            u, p, report = solve_newton(
                system, tol_rel=cfg.newton_tol, max_iter=cfg.newton_max_iter
            )
        except RuntimeError as exc:
            log.warning("training sample %d failed: %s", i, exc)
            skipped += 1
            continue
        if not report.converged:
            log.warning(
                "training sample %d did not converge (residual %.3e), skipped",
                i,
                report.residual_history[-1],
            )
            skipped += 1
            continue
        for m in range(grid.n_subdomains):
            us, ps = columns[grid.component_name(m)]
            us.append(u[system.slice_u(m)])
            ps.append(p[system.slice_p(m)])
    sets = {}
    for name, (us, ps) in columns.items():
        space = parts.spaces[name]
        # the empty leading block keeps the row count when no column came in
        sets[name] = SnapshotSet(
            name,
            np.column_stack([np.zeros((space.n_u, 0)), *us]),
            np.column_stack([np.zeros((space.n_p, 0)), *ps]),
        )
    log.info(
        "snapshot generation: %d samples (%d skipped) in %.1fs",
        cfg.train_samples,
        skipped,
        time.perf_counter() - t0,
    )
    return sets, skipped


@dataclass
class TrainedModel:
    cfg: ExperimentConfig
    parts: ComponentSet
    snapshots: dict
    reduced: dict
    reduced_interfaces: dict

    @property
    def bases(self) -> dict:
        return {name: red.basis for name, red in self.reduced.items()}


def train_bases(cfg: ExperimentConfig, parts: ComponentSet, snapshots: dict) -> dict:
    return {
        name: build_pod_basis(
            snapshots[name], parts.operators[name], cfg.basis_size, cfg.r_p, cfg.z
        )
        for name in cfg.components
    }


def train_model(
    cfg: ExperimentConfig, parts: ComponentSet, snapshots: dict, with_eqp: bool = True
) -> TrainedModel:
    """POD + supremizers, projection, tensors and EQP on the given snapshots."""
    bases = train_bases(cfg, parts, snapshots)
    reduced, riface = project_linear(parts.operators, parts.interface_blocks, bases)
    for name in cfg.components:
        red = reduced[name]
        red.tensor = build_advection_tensor(parts.operators[name], bases[name].phi_u)
        if with_eqp:
            red.eqp_rule = train_eqp_rule(
                cfg, parts.operators[name], bases[name], snapshots[name]
            )
    return TrainedModel(cfg, parts, snapshots, reduced, riface)


def train_eqp_rule(cfg: ExperimentConfig, ops, basis, snapshots):
    """EQP rule of one component, trained to the threshold ``rule.eps``.

    The threshold is ``cfg.eqp_tol``, or the missing-energy ratio of the
    velocity basis when that is unset.
    """
    eps = cfg.eqp_tol
    if eps is None:
        eps = missing_energy(basis.sigma_u, basis.R_u)
    manifest = build_manifest(ops, basis.phi_u, snapshots)
    rule = train_rule(manifest, ops, basis.phi_u, eps)
    log.info(
        "EQP %s: %d of %d points (eps %.2e, residual %.2e)",
        rule.component, rule.n_points, manifest.G.shape[1], eps, rule.residual,
    )
    return rule


# --- prediction studies -----------------------------------------------------


def _solve_case(model: TrainedModel, grid: GridConfig, backends):
    """One test case: FOM reference plus a ROM solve per requested backend.

    The ``*_assembly_s`` and ``*_solve_s`` columns are the systems' own
    assembly times and the solve reports' total wall times.
    """
    cfg = model.cfg
    parts = model.parts
    row = {}
    fom_sys = assemble_global(grid, parts.operators, parts.interface_blocks)
    u_f, p_f, rep_f = solve_newton(fom_sys, tol_rel=cfg.newton_tol, max_iter=cfg.newton_max_iter)
    row.update(
        fom_dofs=fom_sys.n_dof,
        fom_converged=rep_f.converged,
        fom_iterations=rep_f.newton_iterations,
        fom_residual=rep_f.residual_history[-1],
        fom_assembly_s=fom_sys.assembly_time,
        fom_solve_s=rep_f.wall_times["total"],
    )
    lifted = {}
    for backend in backends:
        rom_sys = assemble_global_rom(grid, model.reduced, model.reduced_interfaces, backend)
        uh, ph, rep_r = solve_rom_newton(
            rom_sys, tol_rel=cfg.newton_tol, max_iter=cfg.newton_max_iter
        )
        lifted[backend] = lift(rom_sys, uh, ph)
        errs = relative_errors(fom_sys, u_f, p_f, lifted[backend])
        row.update(
            {
                "rom_dim": rom_sys.n_dof,
                f"rom_{backend}_converged": rep_r.converged,
                f"rom_{backend}_iterations": rep_r.newton_iterations,
                f"vel_err_{backend}": errs["velocity_rel_l2"],
                f"pres_err_{backend}": errs["pressure_rel_l2"],
                f"rom_{backend}_assembly_s": rom_sys.assembly_time,
                f"rom_{backend}_solve_s": rep_r.wall_times["total"],
            }
        )
    if len(backends) == 2:
        a, b = (lifted[bk] for bk in backends)
        diff = relative_errors(fom_sys, a.u, a.p, b)
        row["backend_vel_diff"] = diff["velocity_rel_l2"]
        row["backend_pres_diff"] = diff["pressure_rel_l2"]
    return row


def _write_csv(path, rows) -> None:
    if not rows:
        raise ValueError("no rows to report")
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _test_cases(cfg: ExperimentConfig, rng: np.random.Generator, L: int) -> list:
    """``tests_per_size`` random L x L arrays: (cells, inflow sample, grid) each."""
    cases = []
    for _ in range(cfg.tests_per_size):
        cells = random_cells(rng, L, L, cfg.components)
        sample = sample_inflow(rng)
        grid = GridConfig(L, L, cells, cfg.viscosity, bc_from_sample(sample))
        cases.append((cells, sample, grid))
    return cases


def run_scaling_study(model: TrainedModel, out_dir) -> Path:
    """Errors and timings of both backends over grid sizes; one row per
    (size, test case)."""
    cfg = model.cfg
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed + 1)
    rows = []
    for L in cfg.predict_sizes:
        for case, (cells, sample, grid) in enumerate(_test_cases(cfg, rng, L)):
            row = {
                "L": L,
                "case": case,
                "cells": ";".join(c for r in cells for c in r),
                **sample.as_row(),
            }
            row.update(_solve_case(model, grid, (TENSORIAL, EQP)))
            rows.append(row)
            log.info(
                "scaling L=%d case %d: vel err %s",
                L,
                case,
                {b: row.get(f"vel_err_{b}") for b in (TENSORIAL, EQP)},
            )
    path = out_dir / "results.csv"
    _write_csv(path, rows)
    return path


def run_supremizer_ablation(model: TrainedModel, out_dir, z_values, grid_size=4) -> Path:
    """Re-enrich the trained bases per supremizer count and compare errors.

    Each row also records ``B_sigma_min_l2``, the smallest singular value of
    the case's assembled reduced divergence matrix in l2 coordinates (the
    reduced inf-sup diagnostic).
    """
    cfg = model.cfg
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    # the test set is fixed across Z so rows are comparable
    cases = _test_cases(cfg, np.random.default_rng(cfg.seed + 2), grid_size)
    for z in z_values:
        sub_cfg = replace(cfg, supremizer_size=z)
        sub = train_model(sub_cfg, model.parts, model.snapshots, with_eqp=False)
        for case, (_, sample, grid) in enumerate(cases):
            row = {"Z": z, "case": case, **sample.as_row()}
            row.update(_solve_case(sub, grid, (TENSORIAL,)))
            row["B_sigma_min_l2"] = assemble_global_rom(
                grid, sub.reduced, sub.reduced_interfaces
            ).divergence_sigma_min()
            rows.append(row)
            log.info(
                "ablation Z=%d case %d: vel %.3e pres %.3e sigma_min(B) %.2e",
                z,
                case,
                row["vel_err_tensorial"],
                row["pres_err_tensorial"],
                row["B_sigma_min_l2"],
            )
    path = out_dir / "results.csv"
    _write_csv(path, rows)
    return path


def run_backend_comparison(model: TrainedModel, out_dir, r_values, grid_size=4) -> Path:
    """Tensorial vs EQP at several basis sizes on identical test sets.

    Bases are retrained by truncating the stored snapshots at each R.
    """
    cfg = model.cfg
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = _test_cases(cfg, np.random.default_rng(cfg.seed + 3), grid_size)
    rows = []
    for r in r_values:
        sub_cfg = replace(cfg, basis_size=r, pressure_basis_size=r, supremizer_size=r)
        sub = train_model(sub_cfg, model.parts, model.snapshots)
        for case, (_, sample, grid) in enumerate(cases):
            row = {"R": r, "case": case, **sample.as_row()}
            row["eqp_points"] = ";".join(
                str(sub.reduced[name].eqp_rule.n_points) for name in cfg.components
            )
            row.update(_solve_case(sub, grid, (TENSORIAL, EQP)))
            rows.append(row)
            log.info(
                "backend R=%d case %d: diff %.3e",
                r,
                case,
                row["backend_vel_diff"],
            )
    path = out_dir / "results.csv"
    _write_csv(path, rows)
    return path
