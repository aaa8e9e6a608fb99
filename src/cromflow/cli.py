"""Command-line entry points for meshing, training, prediction, and studies."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import fom, geometry, harness, reduction, rom
from .eqp import save_rule
from .reduction import save_basis, save_tensor


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="experiment config JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out-dir", type=Path, default=Path("out"), help="output directory")


def _load_config(args) -> harness.ExperimentConfig:
    cfg = (
        harness.ExperimentConfig.from_json(args.config)
        if args.config
        else harness.ExperimentConfig()
    )
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _snapshot_path(out_dir: Path, name: str) -> Path:
    return out_dir / f"snapshots_{name}.bin"


def _save_snapshots(out_dir: Path, snapshots):
    for name, snap in snapshots.items():
        fom.save_solution(_snapshot_path(out_dir, name), snap.U, snap.P)


def _load_snapshots(out_dir: Path, cfg, parts):
    sets = {}
    for name in cfg.components:
        data = fom.load_solution(_snapshot_path(out_dir, name))
        sets[name] = reduction.SnapshotSet(name, data["u"], data["p"])
    return sets


def cmd_mesh_gen(args):
    if args.kind == "empty":
        mesh = geometry.generate_empty_mesh(args.n)
    else:
        mesh = geometry.generate_obstacle_mesh(args.n, args.kind, args.half_width)
    geometry.save_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles")


def cmd_sample(args):
    cfg = _load_config(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    parts = harness.build_component_set(cfg)
    snapshots, skipped = harness.generate_snapshots(cfg, parts)
    _save_snapshots(args.out_dir, snapshots)
    counts = {name: snap.count for name, snap in snapshots.items()}
    print(f"snapshots per component: {counts} ({skipped} samples skipped)")


def cmd_train(args):
    cfg = _load_config(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    parts = harness.build_component_set(cfg)
    snapshots = None
    if _snapshot_path(args.out_dir, cfg.components[0]).exists():
        snapshots = _load_snapshots(args.out_dir, cfg, parts)
    model = harness.train_model(cfg, parts=parts, snapshots=snapshots, with_eqp=False)
    _save_snapshots(args.out_dir, model.snapshots)
    for name in cfg.components:
        save_basis(model.bases[name], args.out_dir / f"basis_{name}.bin")
        save_tensor(model.reduced[name].tensor, args.out_dir / f"tensor_{name}.bin")
    cfg.to_json(args.out_dir / "config.json")
    print(f"trained bases for {list(cfg.components)} -> {args.out_dir}")


def cmd_train_eqp(args):
    from .eqp import build_manifest, train_rule
    from .reduction import load_basis, missing_energy

    cfg = _load_config(args)
    parts = harness.build_component_set(cfg)
    snapshots = _load_snapshots(args.out_dir, cfg, parts)
    for name in cfg.components:
        basis = load_basis(args.out_dir / f"basis_{name}.bin")
        eps = cfg.eqp_tol
        if eps is None:
            eps = missing_energy(basis.sigma_u, basis.R_u)
        manifest = build_manifest(parts.operators[name], basis.phi_u, snapshots[name])
        rule = train_rule(manifest, parts.operators[name], basis.phi_u, eps)
        save_rule(rule, args.out_dir / f"eqp_{name}.bin")
        print(f"{name}: {rule.n_points} points, residual {rule.residual:.3e} (eps {eps:.3e})")


def _grid_from_args(args, cfg, rng):
    L = args.grid_size
    cells = harness.random_cells(rng, L, L, cfg.components)
    sample = harness.sample_inflow(rng)
    if args.inflow:
        g1, g2 = (float(v) for v in args.inflow.split(","))
        sample.g1, sample.g2 = g1, g2
        sample.dg1 = sample.dg2 = 0.0
    grid = geometry.GridConfig(
        L, L, cells, cfg.viscosity, harness.bc_from_sample(sample)
    )
    return grid, sample


def cmd_predict_fom(args):
    cfg = _load_config(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    parts = harness.build_component_set(cfg)
    rng = np.random.default_rng(cfg.seed)
    grid, sample = _grid_from_args(args, cfg, rng)
    system = fom.assemble_global(grid, parts.operators, parts.interface_blocks)
    u, p, report = fom.solve_newton(system, tol_rel=cfg.newton_tol, max_iter=cfg.newton_max_iter)
    fom.save_solution(args.out_dir / "fom_solution.bin", u, p)
    if args.vtk:
        fom.export_vtk(args.out_dir / "fom_solution.vtk", system, u, p)
    print(
        f"{args.grid_size}x{args.grid_size} FOM: converged={report.converged} "
        f"iterations={report.newton_iterations} dofs={system.n_dof} "
        f"time={report.wall_times['total']:.2f}s"
    )


def cmd_predict_rom(args):
    from .eqp import attach_basis_data, load_rule
    from .reduction import load_basis

    cfg = _load_config(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    parts = harness.build_component_set(cfg)
    bases = {
        name: load_basis(args.out_dir / f"basis_{name}.bin") for name in cfg.components
    }
    reduced, riface = reduction.project_linear(
        parts.operators, parts.interface_blocks, bases
    )
    for name in cfg.components:
        if args.backend == rom.TENSORIAL:
            reduced[name].tensor = reduction.load_tensor(args.out_dir / f"tensor_{name}.bin")
        else:
            rule = load_rule(args.out_dir / f"eqp_{name}.bin")
            reduced[name].eqp_rule = attach_basis_data(
                rule, parts.operators[name], bases[name].phi_u
            )
    rng = np.random.default_rng(cfg.seed)
    grid, sample = _grid_from_args(args, cfg, rng)
    system = rom.assemble_global_rom(grid, reduced, riface, args.backend)
    uh, ph, report = rom.solve_rom_newton(
        system, tol_rel=cfg.newton_tol, max_iter=cfg.newton_max_iter
    )
    rom.save_rom_solution(args.out_dir / "rom_solution.bin", uh, ph)
    if args.vtk:
        lifted = rom.lift(system, uh, ph)
        fom_sys = fom.assemble_global(grid, parts.operators, parts.interface_blocks)
        fom.export_vtk(args.out_dir / "rom_solution.vtk", fom_sys, lifted.u, lifted.p)
    print(
        f"{args.grid_size}x{args.grid_size} ROM ({args.backend}): "
        f"converged={report.converged} iterations={report.newton_iterations} "
        f"dim={system.n_dof} time={report.wall_times['total']:.3f}s"
    )


def cmd_study(args):
    cfg = _load_config(args)
    # only the scaling study reads the trained EQP rules; the backend
    # comparison retrains its own per basis size
    model = harness.train_model(cfg, with_eqp=args.which == "scaling")
    if args.which == "scaling":
        path = harness.run_scaling_study(model, args.out_dir)
    elif args.which == "supremizer":
        z_values = args.z_values or [0, cfg.r_p // 2, cfg.r_p]
        path = harness.run_supremizer_ablation(model, args.out_dir, z_values)
    else:
        r_values = args.r_values or [10, 20, cfg.basis_size]
        path = harness.run_backend_comparison(model, args.out_dir, r_values)
    print(f"study results -> {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cromflow",
        description="Component reduced-order modeling of steady incompressible flow",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh-gen", help="generate a component mesh file")
    p.add_argument("--kind", choices=("empty", "square", "circle"), default="empty")
    p.add_argument("--n", type=int, default=8, help="segments per side")
    p.add_argument("--half-width", type=float, default=0.25)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_mesh_gen)

    p = sub.add_parser("sample", help="generate training snapshots")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="POD + supremizers + projection + tensors")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-eqp", help="train empirical quadrature rules")
    _add_common(p)
    p.set_defaults(func=cmd_train_eqp)

    p = sub.add_parser("predict-fom", help="solve one random array full-order")
    _add_common(p)
    p.add_argument("--grid-size", type=int, default=4)
    p.add_argument("--inflow", help="mean inflow as 'g1,g2' (overrides the random draw)")
    p.add_argument("--vtk", action="store_true", help="also write a VTK field file")
    p.set_defaults(func=cmd_predict_fom)

    p = sub.add_parser("predict-rom", help="solve one random array reduced-order")
    _add_common(p)
    p.add_argument("--grid-size", type=int, default=4)
    p.add_argument("--inflow", help="mean inflow as 'g1,g2' (overrides the random draw)")
    p.add_argument("--backend", choices=(rom.TENSORIAL, rom.EQP), default=rom.TENSORIAL)
    p.add_argument("--vtk", action="store_true")
    p.set_defaults(func=cmd_predict_rom)

    p = sub.add_parser("study", help="run a full experiment study")
    p.add_argument("which", choices=("scaling", "supremizer", "backend"))
    _add_common(p)
    p.add_argument("--z-values", type=int, nargs="*", help="supremizer counts")
    p.add_argument("--r-values", type=int, nargs="*", help="basis sizes")
    p.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(levelname)s %(message)s",
        datefmt="%H:%M:%S",
    )
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
