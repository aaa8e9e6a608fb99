"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The trained model used by criteria 3-7 is built once per session at the
desk-scale defaults (200 training samples, R_u = R_p = Z = 30, meshes with
8 segments per side, Re = 25).
"""

import csv
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cromflow.eqp import build_manifest
from cromflow.femspace import TaylorHoodSpace
from cromflow.fom import assemble_global, mms_convergence, solve_newton
from cromflow.geometry import GridConfig, SideBC, generate_empty_mesh
from cromflow.harness import (
    ExperimentConfig,
    bc_from_sample,
    build_component_set,
    generate_snapshots,
    random_cells,
    run_scaling_study,
    run_supremizer_ablation,
    sample_inflow,
    train_model,
    _solve_case,
)
from cromflow.reduction import PodBasis, project_linear, build_advection_tensor, tensor_contract
from cromflow.rom import assemble_global_rom
from cromflow.weakforms import assemble_interface_blocks, build_component_operators

SEED = 2026


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} -- {detail}")


@pytest.fixture(scope="session")
def model():
    cfg = ExperimentConfig(
        train_samples=200,
        basis_size=30,
        tests_per_size=20,
        predict_sizes=(8,),
        seed=SEED,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parts = build_component_set(cfg)
        snapshots, _ = generate_snapshots(cfg, parts)
        return train_model(cfg, parts, snapshots)


class TestCriterion1:
    def test_fom_channel_exactness(self):
        t0 = time.perf_counter()
        nu = 0.04
        space = TaylorHoodSpace(generate_empty_mesh(8))
        ops = {"empty": build_component_operators(space, nu)}
        blocks = {
            ("empty", "empty", o): assemble_interface_blocks(space, space, o, nu)
            for o in ("H", "V")
        }

        def g(xy):
            return np.stack([xy[:, 1] * (1 - xy[:, 1]), np.zeros(len(xy))], axis=-1)

        worst_err = 0.0
        worst_iters = 0
        for rows, cols in ((1, 1), (2, 2), (2, 3)):
            bc = {
                "L": SideBC("dirichlet", g),
                "B": SideBC("dirichlet", g),
                "T": SideBC("dirichlet", g),
                "R": SideBC("neumann"),
            }
            grid = GridConfig(rows, cols, [["empty"] * cols] * rows, nu, bc)
            system = assemble_global(grid, ops, blocks)
            u, p, rep = solve_newton(system)
            pex = lambda xy: 2 * nu * (cols - xy[:, 0])
            eu2 = nu2 = ep2 = np2 = 0.0
            for m in range(grid.n_subdomains):
                o = grid.cell_origin(m)
                eu2 += space.velocity_l2(u[system.slice_u(m)], lambda xy: g(xy + o)) ** 2
                nu2 += space.velocity_l2(space.interpolate_velocity(lambda xy: g(xy + o))) ** 2
                ep2 += space.pressure_l2(p[system.slice_p(m)], lambda xy: pex(xy + o)) ** 2
                np2 += space.pressure_l2(space.interpolate_pressure(lambda xy: pex(xy + o))) ** 2
            err = max(np.sqrt(eu2 / nu2), np.sqrt(ep2 / np2))
            worst_err = max(worst_err, err)
            worst_iters = max(worst_iters, rep.newton_iterations)
            assert rep.converged
        elapsed = time.perf_counter() - t0
        passed = worst_err <= 1e-8 and worst_iters <= 2 and elapsed < 10.0
        report(
            1,
            "FOM exactness",
            passed,
            f"max rel error {worst_err:.2e} (tol 1e-8), {worst_iters} Newton iterations, "
            f"{elapsed:.1f}s (< 10 s)",
        )
        assert worst_err <= 1e-8
        assert worst_iters <= 2
        assert elapsed < 10.0


class TestCriterion2:
    def test_mms_orders(self):
        t0 = time.perf_counter()
        nu = 1.0
        pi = np.pi

        def exact_u(xy):
            x, y = xy[:, 0], xy[:, 1]
            return np.stack(
                [np.sin(pi * x) * np.cos(pi * y), -np.cos(pi * x) * np.sin(pi * y)],
                axis=-1,
            )

        def exact_p(xy):
            return np.sin(pi * xy[:, 0]) * np.cos(pi * xy[:, 1])

        def forcing(xy):
            x, y = xy[:, 0], xy[:, 1]
            fx = (
                2 * nu * pi**2 * np.sin(pi * x) * np.cos(pi * y)
                + pi * np.cos(pi * x) * np.cos(pi * y)
                + 0.5 * pi * np.sin(2 * pi * x)
            )
            fy = (
                -2 * nu * pi**2 * np.cos(pi * x) * np.sin(pi * y)
                - pi * np.sin(pi * x) * np.sin(pi * y)
                + 0.5 * pi * np.sin(2 * pi * y)
            )
            return np.stack([fx, fy], axis=-1)

        orders = {}
        for rows, cols in ((1, 1), (2, 2)):
            out = mms_convergence(exact_u, exact_p, forcing, rows, cols, (4, 8, 16), nu)
            orders[(rows, cols)] = (out["velocity_order"], out["pressure_order"])
        elapsed = time.perf_counter() - t0
        ok = all(
            2.7 <= vo <= 3.3 and 1.7 <= po <= 2.5 for vo, po in orders.values()
        )
        passed = ok and elapsed < 120.0
        report(
            2,
            "FOM convergence",
            passed,
            "orders "
            + ", ".join(
                f"{k}: u {v[0]:.2f} / p {v[1]:.2f}" for k, v in orders.items()
            )
            + f" in {elapsed:.0f}s (< 120 s)",
        )
        for vo, po in orders.values():
            assert 2.7 <= vo <= 3.3
            assert 1.7 <= po <= 2.5
        assert elapsed < 120.0


class TestCriterion3:
    def test_oracle_equivalence(self, model):
        cfg = model.cfg
        details = []

        # (a) POD singular values against a dense eigenvalue oracle
        worst_a = 0.0
        for name in cfg.components:
            for mat, sigma in (
                (model.snapshots[name].U, model.bases[name].sigma_u),
                (model.snapshots[name].P, model.bases[name].sigma_p),
            ):
                lam = np.linalg.eigvalsh(mat.T @ mat)[::-1]
                oracle = np.sqrt(np.maximum(lam, 0.0))[: sigma.size]
                worst_a = max(worst_a, np.abs(sigma - oracle).max() / sigma[0])
        details.append(f"(a) sigma vs eigen-oracle {worst_a:.1e} (tol 1e-9)")
        assert worst_a <= 1e-9

        # (b) every reduced linear block against the dense triple product
        worst_b = 0.0

        def block_err(red_block, full, left, right):
            ref = left.T @ (full.toarray() @ right)
            return np.abs(red_block - ref).max() / max(1.0, np.abs(ref).max())

        for name in cfg.components:
            red = model.reduced[name]
            ops = model.parts.operators[name]
            pu, pp = model.bases[name].phi_u, model.bases[name].phi_p
            worst_b = max(worst_b, block_err(red.K, ops.K, pu, pu))
            worst_b = max(worst_b, block_err(red.B, ops.B, pp, pu))
            for tag in red.K_di:
                worst_b = max(worst_b, block_err(red.K_di[tag], ops.K_di[tag], pu, pu))
                worst_b = max(worst_b, block_err(red.B_di[tag], ops.B_di[tag], pp, pu))
        for (rm, rn, o), rblocks in model.reduced_interfaces.items():
            full = model.parts.interface_blocks[(rm, rn, o)]
            pu = {"m": model.bases[rm].phi_u, "n": model.bases[rn].phi_u}
            pp = {"m": model.bases[rm].phi_p, "n": model.bases[rn].phi_p}
            for s in ("m", "n"):
                for t in ("m", "n"):
                    worst_b = max(
                        worst_b, block_err(rblocks.K[s + t], full.K[s + t], pu[s], pu[t])
                    )
                    worst_b = max(
                        worst_b, block_err(rblocks.B[s + t], full.B[s + t], pp[s], pu[t])
                    )
        details.append(f"(b) reduced blocks vs triple product {worst_b:.1e} (tol 1e-12)")
        assert worst_b <= 1e-12

        # (c) tensorial contraction against the projected advection evaluation
        rng = np.random.default_rng(SEED)
        worst_c = 0.0
        for name in cfg.components:
            red = model.reduced[name]
            ops = model.parts.operators[name]
            phi = model.bases[name].phi_u
            for _ in range(100):
                uh = rng.standard_normal(red.r_u)
                ref = phi.T @ ops.adv.value(phi @ uh)
                got = tensor_contract(red.tensor, uh)
                worst_c = max(
                    worst_c, np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-12)
                )
        details.append(f"(c) tensor vs projected advection {worst_c:.1e} (tol 1e-11)")
        assert worst_c <= 1e-11

        # (d) trained EQP rules satisfy their stored criterion exactly
        worst_d = 0.0
        for name in cfg.components:
            rule = model.reduced[name].eqp_rule
            assert np.all(rule.weights > 0.0)
            manifest = build_manifest(
                model.parts.operators[name],
                model.bases[name].phi_u,
                model.snapshots[name],
            )
            w = np.zeros(manifest.G.shape[1])
            n_q = model.parts.spaces[name].qw.shape[1]
            w[rule.element_ids * n_q + rule.local_ids] = rule.weights
            res = np.linalg.norm(manifest.G @ w - manifest.d)
            rel = res / np.linalg.norm(manifest.d)
            assert rel <= rule.eps
            worst_d = max(worst_d, rel / rule.eps)
        details.append(f"(d) EQP residual at {worst_d:.2f} x threshold (must be <= 1)")
        report(3, "oracle equivalence", True, "; ".join(details))


class TestCriterion4:
    def test_supremizer_ablation(self, model, tmp_path):
        t0 = time.perf_counter()
        sub = replace(model, cfg=replace(model.cfg, tests_per_size=4))
        r_p = model.cfg.r_p
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = run_supremizer_ablation(
                sub, tmp_path, z_values=(0, r_p // 2, r_p), grid_size=4
            )
        rows = list(csv.DictReader(open(path, newline="", encoding="utf-8")))
        vel = {}
        pres = {}
        sigma_min = {}
        converged = {}
        for z in (0, r_p // 2, r_p):
            sel = [r for r in rows if int(r["Z"]) == z]
            # the means count every case, converged or not
            vel[z] = float(np.mean([float(r["vel_err_tensorial"]) for r in sel]))
            pres[z] = float(np.mean([float(r["pres_err_tensorial"]) for r in sel]))
            sigma_min[z] = min(float(r["B_sigma_min_l2"]) for r in sel)
            converged[z] = f"{sum(r['rom_tensorial_converged'] == 'True' for r in sel)}/{len(sel)}"
        elapsed = time.perf_counter() - t0
        pressure_ratio = pres[0] / pres[r_p]
        vel_spread = max(vel.values()) / min(vel.values())
        passed = pressure_ratio >= 10.0 and vel_spread < 2.0 and elapsed < 600.0
        report(
            4,
            "supremizer ablation",
            passed,
            f"pressure error Z=0 / Z={r_p}: {pressure_ratio:.1e} (need >= 10); "
            f"velocity errors {[f'{vel[z]:.3e}' for z in sorted(vel)]} spread "
            f"{vel_spread:.1e} (need < 2); {elapsed:.0f}s (< 600 s); per Z "
            f"{sorted(vel)}: smallest singular value of the assembled reduced B "
            f"(l2) {[f'{sigma_min[z]:.1e}' for z in sorted(vel)]}, converged "
            f"{[converged[z] for z in sorted(vel)]}",
        )
        assert elapsed < 600.0
        assert pressure_ratio >= 10.0
        # Without supremizers about 140 of the 480 pressure directions of the
        # assembled reduced B fall below 1e-3 of its largest singular value
        # (smallest 1e-11..1e-9 at Z=0, 2.5e-3 at Z=R_p).  Along them the
        # reduced continuity rows are inconsistent by about 2e-4: the
        # interface and weak-Dirichlet divergence blocks act on the velocity
        # truncation error.  A plain Galerkin solve answers with a velocity
        # component of size inconsistency / singular value (errors up to 1e8
        # at Z=0, non-convergence on 2 of 4 cases).  The reduced system now
        # carries a pressure-gradient penalty whose coefficient balances the
        # viscous energy the velocity POD basis misses on the training
        # snapshots (zero for a full basis, the same for every Z), which
        # bounds that response; see README.md, criterion 4.
        assert vel_spread < 2.0


class TestCriterion5:
    def test_backend_agreement(self, model):
        t0 = time.perf_counter()
        cfg = model.cfg
        eps = max(model.reduced[name].eqp_rule.eps for name in cfg.components)
        tol = max(2.0 * eps, 0.005)
        rng = np.random.default_rng(SEED + 5)
        diffs = []
        for _ in range(20):
            cells = random_cells(rng, 4, 4, cfg.components)
            grid = GridConfig(
                4, 4, cells, cfg.viscosity, bc_from_sample(sample_inflow(rng))
            )
            row = _solve_case(model, grid, ("tensorial", "eqp"))
            diffs.append(row["backend_vel_diff"])
        elapsed = time.perf_counter() - t0
        passed = max(diffs) <= tol and elapsed < 600.0
        report(
            5,
            "backend agreement",
            passed,
            f"max lifted-solution difference {max(diffs):.4f} over 20 cases "
            f"(tol {tol:.4f} = max(2 eps_EQP, 0.5%)); {elapsed:.0f}s (< 600 s)",
        )
        assert max(diffs) <= tol
        assert elapsed < 600.0


class TestCriterion6:
    def test_scaled_up_generalization(self, model, tmp_path):
        path = run_scaling_study(model, tmp_path)
        rows = list(csv.DictReader(open(path, newline="", encoding="utf-8")))
        assert len(rows) == 20
        vel_errs = [float(r["vel_err_tensorial"]) for r in rows]
        converged = [r["rom_tensorial_converged"] == "True" for r in rows]
        mean_err = float(np.mean(vel_errs))
        conv_rate = float(np.mean(converged))
        fom_t = np.array([float(r["fom_solve_s"]) for r in rows])
        rom_t = np.array([float(r["rom_tensorial_solve_s"]) for r in rows])
        rom_te = np.array([float(r["rom_eqp_solve_s"]) for r in rows])
        speedup = fom_t.mean() / rom_t.mean()
        speedup_eqp = fom_t.mean() / rom_te.mean()

        # reduced dimension is set by the basis sizes alone, not the mesh
        # (n = 8 doubled to 16; coarser meshes cannot hold 30 pressure modes)
        dims = []
        for n in (8, 16):
            space = TaylorHoodSpace(generate_empty_mesh(n))
            ops = {"empty": build_component_operators(space, model.cfg.viscosity)}
            blocks = {
                ("empty", "empty", o): assemble_interface_blocks(
                    space, space, o, model.cfg.viscosity
                )
                for o in ("H", "V")
            }
            rng = np.random.default_rng(1)
            pu = np.linalg.qr(rng.standard_normal((space.n_u, 60)))[0]
            pp = np.linalg.qr(rng.standard_normal((space.n_p, 30)))[0]
            basis = PodBasis("empty", pu, pp, np.ones(60), np.ones(30), 30, 30, 30)
            reduced, riface = project_linear(ops, blocks, {"empty": basis})
            reduced["empty"].tensor = build_advection_tensor(ops["empty"], pu)
            g = lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
            bc = {
                "L": SideBC("dirichlet", g),
                "B": SideBC("neumann"),
                "T": SideBC("neumann"),
                "R": SideBC("neumann"),
            }
            grid = GridConfig(8, 8, [["empty"] * 8] * 8, model.cfg.viscosity, bc)
            dims.append(assemble_global_rom(grid, reduced, riface).n_dof)

        passed = mean_err <= 0.10 and conv_rate >= 0.90 and dims[0] == dims[1]
        report(
            6,
            "scaled-up generalization",
            passed,
            f"8x8 mean velocity error {mean_err:.4f} (tol 0.10), ROM convergence "
            f"{conv_rate:.0%} (need >= 90%); measured solve speedup "
            f"{speedup:.1f}x tensorial / {speedup_eqp:.1f}x EQP (reported, not "
            f"asserted); reduced dimension {dims[0]} at n=8 vs {dims[1]} at n=16",
        )
        assert mean_err <= 0.10
        assert conv_rate >= 0.90
        assert dims[0] == dims[1]


class TestCriterion7:
    def test_study_determinism(self, model, tmp_path):
        sub = replace(model, cfg=replace(model.cfg, predict_sizes=(2,), tests_per_size=3))
        p1 = run_scaling_study(sub, tmp_path / "run1")
        p2 = run_scaling_study(sub, tmp_path / "run2")
        r1 = list(csv.DictReader(open(p1, newline="", encoding="utf-8")))
        r2 = list(csv.DictReader(open(p2, newline="", encoding="utf-8")))
        mismatches = []
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            for key in a:
                if key.endswith("_s"):
                    continue
                if a[key] != b[key]:
                    mismatches.append(key)
        passed = not mismatches
        report(
            7,
            "determinism",
            passed,
            "all non-timing CSV columns identical across two runs"
            if passed
            else f"mismatched columns: {sorted(set(mismatches))}",
        )
        assert not mismatches
