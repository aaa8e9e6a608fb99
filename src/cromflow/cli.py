"""Command-line entry points for sampling, training, prediction, and studies."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import _binio, fom, geometry, harness, reduction, rom
from .eqp import save_rule
from .reduction import check_rows, load_basis, save_basis, save_tensor


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


# the config keys that shape the snapshot draws and solves; snapshots are
# refused under others
SNAPSHOT_CONFIG_KEYS = (
    "n_per_side", "components", "square_half_width", "circle_half_width", "reynolds",
    "train_samples", "train_rows", "train_cols", "seed", "newton_tol", "newton_max_iter",
)


def _snapshot_path(out_dir: Path, name: str) -> Path:
    return out_dir / f"snapshots_{name}.bin"


def _save_snapshots(out_dir: Path, cfg, snapshots):
    config = _binio.text_array(json.dumps(rom.model_config(cfg, SNAPSHOT_CONFIG_KEYS)))
    for name, snap in snapshots.items():
        fom.save_solution(_snapshot_path(out_dir, name), snap.U, snap.P, {"config": config})


def _load_snapshots(out_dir: Path, cfg, parts) -> dict:
    """Snapshot file of each component, its row counts checked against the
    component's space and its stored config against ``cfg``."""
    sets = {}
    for name in cfg.components:
        path = _snapshot_path(out_dir, name)
        data = fom.load_solution(path)
        u, p = data["u"], data["p"]
        check_rows(path, name, parts.spaces[name], u.shape[0], p.shape[0])
        try:
            stored = dict(json.loads(_binio.array_text(data["config"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise _binio.FormatError(
                f"{path}: no readable config ({exc!r}); run sample again"
            ) from exc
        rom.check_config(path, stored, cfg, SNAPSHOT_CONFIG_KEYS)
        sets[name] = reduction.SnapshotSet(name, u, p)
    return sets


def _load_bases(out_dir: Path, cfg, parts) -> dict:
    """Basis file of each component, its row counts checked against the component's space."""
    bases = {}
    for name in cfg.components:
        path = out_dir / f"basis_{name}.bin"
        basis = load_basis(path)
        check_rows(path, name, parts.spaces[name], basis.n_u, basis.n_p)
        bases[name] = basis
    return bases


def cmd_sample(args):
    cfg = _load_config(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    parts = harness.build_component_set(cfg)
    snapshots, skipped = harness.generate_snapshots(cfg, parts)
    _save_snapshots(args.out_dir, cfg, snapshots)
    counts = {name: snap.count for name, snap in snapshots.items()}
    print(f"snapshots per component: {counts} ({skipped} samples skipped)")


def cmd_train(args):
    cfg = _load_config(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    parts = harness.build_component_set(cfg)
    if _snapshot_path(args.out_dir, cfg.components[0]).exists():
        snapshots = _load_snapshots(args.out_dir, cfg, parts)
    else:
        snapshots, _ = harness.generate_snapshots(cfg, parts)
        _save_snapshots(args.out_dir, cfg, snapshots)
    model = harness.train_model(cfg, parts, snapshots, with_eqp=False)
    for name in cfg.components:
        save_basis(model.bases[name], args.out_dir / f"basis_{name}.bin")
        save_tensor(model.reduced[name].tensor, args.out_dir / f"tensor_{name}.bin")
    rom.save_model(args.out_dir / rom.MODEL_FILE, cfg, model.reduced, model.reduced_interfaces)
    cfg.to_json(args.out_dir / "config.json")
    print(f"trained bases for {list(cfg.components)} -> {args.out_dir}")


def cmd_train_eqp(args):
    cfg = _load_config(args)
    parts = harness.build_component_set(cfg)
    bases = _load_bases(args.out_dir, cfg, parts)
    snapshots = _load_snapshots(args.out_dir, cfg, parts)
    for name in cfg.components:
        ops = parts.operators[name]
        rule = harness.train_eqp_rule(cfg, ops, bases[name], snapshots[name])
        save_rule(rule, args.out_dir / f"eqp_{name}.bin")
        print(f"{name}: {rule.n_points} points, residual {rule.residual:.3e} (eps {rule.eps:.3e})")


def _grid_from_args(args, cfg):
    """The random array of ``--grid-size`` drawn from the config seed."""
    rng = np.random.default_rng(cfg.seed)
    L = args.grid_size
    cells = harness.random_cells(rng, L, L, cfg.components)
    sample = harness.sample_inflow(rng)
    return geometry.GridConfig(L, L, cells, cfg.viscosity, harness.bc_from_sample(sample))


def cmd_predict_fom(args):
    cfg = _load_config(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    parts = harness.build_component_set(cfg)
    grid = _grid_from_args(args, cfg)
    system = fom.assemble_global(grid, parts.operators, parts.interface_blocks)
    u, p, report = fom.solve_newton(system, tol_rel=cfg.newton_tol, max_iter=cfg.newton_max_iter)
    fom.save_solution(args.out_dir / "fom_solution.bin", u, p)
    if args.vtk:
        fom.export_vtk(args.out_dir / "fom_solution.vtk", grid, parts.spaces, u, p)
    print(
        f"{args.grid_size}x{args.grid_size} FOM: converged={report.converged} "
        f"iterations={report.newton_iterations} dofs={system.n_dof} "
        f"time={report.wall_times['total']:.2f}s"
    )


def cmd_predict_rom(args):
    cfg = _load_config(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    reduced, riface = rom.load_model(args.out_dir, cfg, (args.backend,))
    grid = _grid_from_args(args, cfg)
    system = rom.assemble_global_rom(grid, reduced, riface, args.backend)
    uh, ph, report = rom.solve_rom_newton(
        system, tol_rel=cfg.newton_tol, max_iter=cfg.newton_max_iter
    )
    rom.save_rom_solution(args.out_dir / "rom_solution.bin", uh, ph)
    if args.vtk:
        lifted = rom.lift(system, uh, ph)
        spaces = harness.build_component_spaces(cfg)
        fom.export_vtk(args.out_dir / "rom_solution.vtk", grid, spaces, lifted.u, lifted.p)
    print(
        f"{args.grid_size}x{args.grid_size} ROM ({args.backend}): "
        f"converged={report.converged} iterations={report.newton_iterations} "
        f"dim={system.n_dof} time={report.wall_times['total']:.3f}s"
    )


def cmd_study(args):
    cfg = _load_config(args)
    # the full-order component set serves the FOM references; the sweeps
    # retrain per Z or R from the stored snapshots, and only the scaling
    # study reads the trained EQP rules
    parts = harness.build_component_set(cfg)
    snapshots = _load_snapshots(args.out_dir, cfg, parts)
    backends = (rom.TENSORIAL, rom.EQP) if args.which == "scaling" else (rom.TENSORIAL,)
    reduced, riface = rom.load_model(args.out_dir, cfg, backends)
    model = harness.TrainedModel(cfg, parts, snapshots, reduced, riface)
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
    p.add_argument("--vtk", action="store_true", help="also write a VTK field file")
    p.set_defaults(func=cmd_predict_fom)

    p = sub.add_parser("predict-rom", help="solve one random array reduced-order")
    _add_common(p)
    p.add_argument("--grid-size", type=int, default=4)
    p.add_argument("--backend", choices=(rom.TENSORIAL, rom.EQP), default=rom.TENSORIAL)
    p.add_argument("--vtk", action="store_true")
    p.set_defaults(func=cmd_predict_rom)

    p = sub.add_parser("study", help="run an experiment study on the trained artifacts")
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
