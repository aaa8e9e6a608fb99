import csv
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cromflow import fom
from cromflow.geometry import SIDES
from cromflow.harness import (
    TRAIN_SHAPE,
    ExperimentConfig,
    bc_from_sample,
    build_component_meshes,
    build_component_set,
    generate_snapshots,
    random_cells,
    random_grid,
    run_backend_comparison,
    run_scaling_study,
    run_supremizer_ablation,
    sample_inflow,
    train_model,
)

TINY = dict(
    n_per_side=6,
    train_samples=25,
    basis_size=8,
    tests_per_size=2,
    predict_sizes=(2,),
    seed=11,
)


@pytest.fixture(scope="module")
def tiny_model():
    cfg = ExperimentConfig(**TINY)
    parts = build_component_set(cfg)
    snapshots, _ = generate_snapshots(cfg, parts)
    return train_model(cfg, parts, snapshots)


class TestInflowSampling:
    def test_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            s = sample_inflow(rng)
            assert -1 <= s.g1 <= 1 and -1 <= s.g2 <= 1
            assert -0.1 <= s.dg1 <= 0.1 and -0.1 <= s.dg2 <= 0.1
            assert np.all((-0.5 <= s.k1) & (s.k1 <= 0.5))
            assert np.all((-0.5 <= s.k2) & (s.k2 <= 0.5))
            assert 0 <= s.th1 <= 1 and 0 <= s.th2 <= 1

    def test_empirical_mean(self):
        rng = np.random.default_rng(1)
        g1s = [sample_inflow(rng).g1 for _ in range(10_000)]
        assert abs(np.mean(g1s)) < 0.02

    def test_velocity_formula(self):
        rng = np.random.default_rng(2)
        s = sample_inflow(rng)
        g = s.velocity()
        xy = rng.uniform(0, 2, size=(20, 2))
        expect_x = s.g1 + s.dg1 * np.sin(2 * np.pi * (xy @ s.k1 + s.th1))
        expect_y = s.g2 + s.dg2 * np.sin(2 * np.pi * (xy @ s.k2 + s.th2))
        got = g(xy)
        assert np.allclose(got[:, 0], expect_x)
        assert np.allclose(got[:, 1], expect_y)


class TestBcFromSample:
    def test_diagonal_inflow(self):
        rng = np.random.default_rng(3)
        s = sample_inflow(rng)
        s.g1, s.g2 = 1.0, -0.5
        bc = bc_from_sample(s)
        assert bc["L"].kind == "dirichlet"
        assert bc["T"].kind == "dirichlet"
        assert bc["R"].kind == "neumann"
        assert bc["B"].kind == "neumann"

    def test_zero_component_tie_break(self):
        rng = np.random.default_rng(4)
        s = sample_inflow(rng)
        s.g1, s.g2 = 1.0, 0.0
        bc = bc_from_sample(s)
        assert bc["L"].kind == "dirichlet"
        assert bc["T"].kind == "neumann"
        assert bc["B"].kind == "neumann"

    def test_always_has_outflow(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            bc = bc_from_sample(sample_inflow(rng))
            kinds = [bc[s].kind for s in SIDES]
            assert "dirichlet" in kinds
            assert "neumann" in kinds

    def test_random_grid_draws_cells_then_inflow(self):
        cfg = ExperimentConfig(**TINY)
        grid, sample = random_grid(np.random.default_rng(5), 3, 2, cfg)
        rng = np.random.default_rng(5)
        cells = random_cells(rng, 3, 2, cfg.components)
        assert grid.cell_component == cells
        assert sample.as_row() == sample_inflow(rng).as_row()
        assert (grid.rows, grid.cols, grid.viscosity) == (3, 2, cfg.viscosity)

    def test_zero_inflow_rejected(self):
        rng = np.random.default_rng(6)
        s = sample_inflow(rng)
        s.g1 = s.g2 = 0.0
        with pytest.raises(ValueError):
            bc_from_sample(s)


class TestSnapshots:
    def test_bookkeeping_and_convergence(self):
        cfg = ExperimentConfig(**{**TINY, "train_samples": 10})
        parts = build_component_set(cfg)
        sets, skipped = generate_snapshots(cfg, parts)
        total = sum(s.count for s in sets.values())
        assert total == (10 - skipped) * 4
        for name, snap in sets.items():
            assert snap.U.shape[0] == parts.spaces[name].n_u
            assert snap.U.shape[1] == snap.P.shape[1]

    def test_no_samples_give_empty_sets_of_full_height(self):
        cfg = ExperimentConfig(**{**TINY, "train_samples": 0})
        parts = build_component_set(cfg)
        sets, skipped = generate_snapshots(cfg, parts)
        assert skipped == 0
        for name in cfg.components:
            assert sets[name].U.shape == (parts.spaces[name].n_u, 0)
            assert sets[name].P.shape == (parts.spaces[name].n_p, 0)

    def test_failed_start_counts_as_skipped(self, monkeypatch):
        cfg = ExperimentConfig(**{**TINY, "train_samples": 2})
        parts = build_component_set(cfg)
        calls = []
        factorize = fom.saddle_lu

        def singular_first(mat, **options):
            calls.append(mat.shape)
            if len(calls) == 1:
                raise RuntimeError("Factor is exactly singular")
            return factorize(mat, **options)

        monkeypatch.setattr(fom, "saddle_lu", singular_first)
        sets, skipped = generate_snapshots(cfg, parts)
        assert skipped == 1
        assert sum(s.count for s in sets.values()) == 4

    def test_duplicate_seed_bit_identical(self):
        cfg = ExperimentConfig(**{**TINY, "train_samples": 6})
        parts = build_component_set(cfg)
        a, _ = generate_snapshots(cfg, parts)
        b, _ = generate_snapshots(cfg, parts)
        for name in cfg.components:
            assert np.array_equal(a[name].U, b[name].U)
            assert np.array_equal(a[name].P, b[name].P)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig(**TINY)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        loaded = ExperimentConfig.from_json(path)
        assert loaded == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"no_such_knob": 1}))
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize(
        "key",
        [
            "timing_repeats",
            "square_half_width",
            "circle_half_width",
            "eqp_tol",
            "train_rows",
            "train_cols",
            "newton_tol",
            "newton_max_iter",
        ],
    )
    def test_removed_config_key_rejected(self, tmp_path, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: 3}))
        with pytest.raises(ValueError, match=re.escape(f"unknown config keys: ['{key}']")):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize(
        "key, value, bound",
        [
            ("basis_size", 0, 1),
            ("basis_size", -2, 1),
            ("pressure_basis_size", 0, 1),
            ("supremizer_size", -1, 0),
            ("reynolds", 0, "positive and finite"),
            ("reynolds", -5, "positive and finite"),
            ("reynolds", float("inf"), "positive and finite"),
        ],
    )
    def test_out_of_range_size_rejected(self, tmp_path, key, value, bound):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        if not isinstance(bound, str):
            bound = f"at least {bound}"
        with pytest.raises(
            ValueError, match=re.escape(f"config key {key} must be {bound}, not {value}")
        ):
            ExperimentConfig.from_json(path)

    def test_readme_config_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config keys (JSON)", 1)[1].split("\n#", 1)[0]
        listed = [
            key
            for line in section.splitlines()
            if line.startswith("| `")
            for key in re.findall(r"`(\w+)`", line.split("|")[1])
        ]
        assert sorted(listed) == sorted(f.name for f in fields(ExperimentConfig))

    def test_unknown_component_names_the_supported_ones(self):
        cfg = ExperimentConfig(n_per_side=4, components=("empty", "hexagon"))
        with pytest.raises(
            ValueError,
            match="unknown component 'hexagon'; supported components are "
            "'empty', 'square' and 'circle'",
        ):
            build_component_meshes(cfg)

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.r_p == cfg.basis_size
        assert cfg.z == cfg.r_p
        assert cfg.viscosity == pytest.approx(1.0 / 25.0)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestStudies:
    def test_scaling_study_rows_and_columns(self, tiny_model, tmp_path):
        path = run_scaling_study(tiny_model, tmp_path / "scaling")
        rows = read_csv(path)
        assert len(rows) == 2
        for row in rows:
            assert row["fom_converged"] == "True"
            assert "fom_residual" in row and "rom_tensorial_converged" in row
            assert float(row["vel_err_tensorial"]) < 1.0

    def test_determinism_modulo_timing(self, tiny_model, tmp_path):
        p1 = run_scaling_study(tiny_model, tmp_path / "a")
        p2 = run_scaling_study(tiny_model, tmp_path / "b")
        r1, r2 = read_csv(p1), read_csv(p2)
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            for key in a:
                if key.endswith("_s"):
                    continue
                assert a[key] == b[key], key

    def test_supremizer_ablation(self, tiny_model, tmp_path):
        path = run_supremizer_ablation(
            tiny_model, tmp_path / "sup", z_values=(0, 8), grid_size=2
        )
        rows = read_csv(path)
        assert {r["Z"] for r in rows} == {"0", "8"}
        err_z0 = np.mean([float(r["pres_err_tensorial"]) for r in rows if r["Z"] == "0"])
        err_z8 = np.mean([float(r["pres_err_tensorial"]) for r in rows if r["Z"] == "8"])
        assert err_z8 < err_z0

    def test_backend_comparison(self, tiny_model, tmp_path):
        path = run_backend_comparison(
            tiny_model, tmp_path / "cmp", r_values=(6, 8), grid_size=2
        )
        rows = read_csv(path)
        assert {r["R"] for r in rows} == {"6", "8"}
        for row in rows:
            assert "backend_vel_diff" in row
            assert "eqp_points" in row

    def test_sweeps_solve_each_fom_reference_once(self, tiny_model, tmp_path, monkeypatch):
        from cromflow import harness

        calls = []

        def counted(grid, *args, **kwargs):
            calls.append(grid)
            return fom.assemble_global(grid, *args, **kwargs)

        monkeypatch.setattr(harness, "assemble_global", counted)
        cases = TINY["tests_per_size"]
        path = run_supremizer_ablation(tiny_model, tmp_path / "sup", (0, 4, 8), grid_size=2)
        assert len(calls) == cases and len(read_csv(path)) == 3 * cases
        path = run_backend_comparison(tiny_model, tmp_path / "cmp", (6, 8), grid_size=2)
        assert len(calls) == 2 * cases
        rows = read_csv(path)
        # rows stay in (R, case) order, and each case's FOM cells are shared
        order = [("6", "0"), ("6", "1"), ("8", "0"), ("8", "1")]
        assert [(r["R"], r["case"]) for r in rows] == order
        assert rows[0]["fom_residual"] == rows[2]["fom_residual"]


class TestSelfConsistency:
    def test_rom_reproduces_training_condition(self, tiny_model):
        # solving a condition that contributed snapshots must give a lifted
        # error comparable to the snapshot projection error
        import numpy as np
        from cromflow.fom import assemble_global, solve_newton
        from cromflow.geometry import GridConfig
        from cromflow.rom import assemble_global_rom, lift, relative_errors, solve_rom_newton
        from cromflow.harness import random_cells, sample_inflow, bc_from_sample

        cfg = tiny_model.cfg
        rng = np.random.default_rng(cfg.seed)
        rows, cols = TRAIN_SHAPE
        cells = random_cells(rng, rows, cols, cfg.components)
        sample = sample_inflow(rng)          # the first training condition
        grid = GridConfig(rows, cols, cells, cfg.viscosity, bc_from_sample(sample))
        fom_sys = assemble_global(
            grid, tiny_model.parts.operators, tiny_model.parts.interface_blocks
        )
        u_f, p_f, rep_f = solve_newton(fom_sys)
        assert rep_f.converged
        rom_sys = assemble_global_rom(
            grid, tiny_model.reduced, tiny_model.reduced_interfaces, "tensorial"
        )
        uh, ph, rep_r = solve_rom_newton(rom_sys)
        assert rep_r.converged
        errs = relative_errors(fom_sys, u_f, p_f, lift(rom_sys, uh, ph))
        # projection error of the FOM solution onto the velocity bases
        proj2 = 0.0
        norm2 = 0.0
        for m in range(grid.n_subdomains):
            phi = tiny_model.bases[grid.component_name(m)].phi_u
            um = u_f[fom_sys.slice_u(m)]
            proj2 += np.linalg.norm(um - phi @ (phi.T @ um)) ** 2
            norm2 += np.linalg.norm(um) ** 2
        proj_err = np.sqrt(proj2 / norm2)
        assert errs["velocity_rel_l2"] <= max(10.0 * proj_err, 1e-8)

    def test_snapshot_reconstruction_tracks_missing_energy(self, tiny_model):
        import numpy as np
        from cromflow.reduction import missing_energy

        for name in tiny_model.cfg.components:
            basis = tiny_model.bases[name]
            snaps = tiny_model.snapshots[name]
            bound = missing_energy(basis.sigma_u, basis.R_u)
            phi = basis.phi_u
            worst = 0.0
            for s in range(0, snaps.count, max(1, snaps.count // 5)):
                u = snaps.U[:, s]
                rel = np.linalg.norm(u - phi @ (phi.T @ u)) / np.linalg.norm(u)
                worst = max(worst, rel)
            assert worst <= 10.0 * bound


def tiny_cli_config(tmp_path, **changes):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "train_samples": 8,
                "basis_size": 5,
                "n_per_side": 6,
                "tests_per_size": 1,
                "predict_sizes": [2],
                "seed": 3,
                **changes,
            }
        )
    )
    return path


class TestCli:
    def test_module_entry_runs_the_cli(self):
        import cromflow

        src = str(Path(cromflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "cromflow", "train", "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: cromflow train")

    def test_full_pipeline(self, tmp_path):
        from cromflow.cli import main

        cfg_path = tiny_cli_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sample", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert main(["train-eqp", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert (out / "basis_empty.bin").exists()
        assert (out / "tensor_circle.bin").exists()
        assert (out / "eqp_square.bin").exists()
        assert main(
            ["predict-fom", "--config", str(cfg_path), "--out-dir", str(out),
             "--grid-size", "2", "--vtk"]
        ) == 0
        assert (out / "fom_solution.vtk").exists()
        assert main(
            ["predict-rom", "--config", str(cfg_path), "--out-dir", str(out),
             "--grid-size", "2", "--backend", "eqp"]
        ) == 0
        assert (out / "rom_solution.bin").exists()

    def test_study_command(self, tmp_path):
        from cromflow.cli import main

        cfg_path = tiny_cli_config(tmp_path)
        out = tmp_path / "study"
        common = ["--config", str(cfg_path), "--out-dir", str(out)]
        assert main(["train", *common]) == 0
        assert main(["train-eqp", *common]) == 0
        assert main(["study", "scaling", *common]) == 0
        assert (out / "scaling.csv").exists()

    def test_study_reads_the_stored_model(self, tiny_artifacts, tmp_path, monkeypatch):
        from cromflow import cli, harness

        def forbidden(*args, **kwargs):
            raise AssertionError("study retrained what train and train-eqp wrote")

        for name in ("generate_snapshots", "build_pod_basis", "project_linear"):
            monkeypatch.setattr(harness, name, forbidden)
        out, common = copy_artifacts(tiny_artifacts, tmp_path)
        assert cli.main(["study", "scaling", *common]) == 0
        rows = read_csv(out / "scaling.csv")
        assert rows and all(row["rom_eqp_converged"] in ("True", "False") for row in rows)

    def test_study_refuses_snapshots_of_another_seed(self, tiny_artifacts, tmp_path):
        from cromflow._binio import FormatError
        from cromflow.cli import main

        _, common = copy_artifacts(tiny_artifacts, tmp_path)
        with pytest.raises(
            FormatError, match=r"snapshots_empty\.bin: trained with seed=3, the config has 4"
        ):
            main(["study", "scaling", *common, "--seed", "4"])

    def test_study_without_artifacts_names_the_missing_file(self, tmp_path):
        from cromflow.cli import main

        out = tmp_path / "empty"
        out.mkdir()
        argv = ["study", "scaling", "--config", str(tiny_cli_config(tmp_path)), "--out-dir", str(out)]
        with pytest.raises(FileNotFoundError, match=r"snapshots_empty\.bin"):
            main(argv)

    @pytest.mark.parametrize(
        "which, flag, column, values, backends",
        [
            ("supremizer", "--z-values", "Z", ["0", "2"], ["tensorial"]),
            ("backend", "--r-values", "R", ["3", "4"], ["tensorial", "eqp"]),
        ],
    )
    def test_study_sweeps(self, tmp_path, which, flag, column, values, backends):
        from cromflow.cli import main

        cfg_path = tiny_cli_config(tmp_path)
        out = tmp_path / which
        common = ["--config", str(cfg_path), "--out-dir", str(out)]
        assert main(["train", *common]) == 0
        assert main(["study", which, *common, flag, *values]) == 0
        rows = read_csv(out / f"{which}.csv")
        # one test case per value, on the study's 4x4 array
        assert [row[column] for row in rows] == values
        for row in rows:
            for backend in backends:
                assert row[f"rom_{backend}_converged"] in ("True", "False")
                assert float(row[f"rom_{backend}_solve_s"]) > 0.0
        if which == "backend":
            assert all(len(row["eqp_points"].split(";")) == 3 for row in rows)
            assert all("backend_vel_diff" in row for row in rows)
        else:
            assert "rom_eqp_converged" not in rows[0]

    def test_studies_in_one_directory_keep_their_files(self, tiny_artifacts, tmp_path):
        from cromflow.cli import main

        out, common = copy_artifacts(tiny_artifacts, tmp_path)
        assert main(["study", "scaling", *common]) == 0
        scaling = (out / "scaling.csv").read_text()
        assert main(["study", "supremizer", *common, "--z-values", "0"]) == 0
        assert (out / "scaling.csv").read_text() == scaling
        assert [row["Z"] for row in read_csv(out / "supremizer.csv")] == ["0"]

    def test_default_sweep_values_run_once_each(self, tmp_path):
        from cromflow.cli import main

        # r_p // 2 == 0: the default Z values 0, r_p // 2, r_p hold 0 twice
        cfg_path = tiny_cli_config(tmp_path, pressure_basis_size=1)
        common = ["--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]
        assert main(["train", *common]) == 0
        assert main(["study", "supremizer", *common]) == 0
        rows = read_csv(tmp_path / "out" / "supremizer.csv")
        assert [row["Z"] for row in rows] == ["0", "1"]

    def test_snapshots_of_another_mesh_size_rejected(self, tmp_path):
        from cromflow.cli import main
        from cromflow._binio import FormatError
        from cromflow.femspace import TaylorHoodSpace
        from cromflow.geometry import generate_empty_mesh

        out = tmp_path / "out"
        cfg = {"train_samples": 6, "basis_size": 4, "tests_per_size": 1, "seed": 3}
        paths = {}
        for n in (4, 8):
            paths[n] = tmp_path / f"cfg{n}.json"
            paths[n].write_text(json.dumps({**cfg, "n_per_side": n}))
        assert main(["sample", "--config", str(paths[4]), "--out-dir", str(out)]) == 0
        coarse = TaylorHoodSpace(generate_empty_mesh(4))
        fine = TaylorHoodSpace(generate_empty_mesh(8))
        expected = (
            rf"snapshots_empty\.bin: component 'empty' expects {fine.n_u} velocity and "
            rf"{fine.n_p} pressure rows, found {coarse.n_u} and {coarse.n_p}"
        )
        with pytest.raises(FormatError, match=expected):
            main(["train", "--config", str(paths[8]), "--out-dir", str(out)])

    def test_basis_of_another_mesh_size_rejected(self, tmp_path):
        from cromflow.cli import main
        from cromflow._binio import FormatError
        from cromflow.femspace import TaylorHoodSpace
        from cromflow.geometry import generate_empty_mesh

        out = tmp_path / "out"
        cfg = {"train_samples": 6, "basis_size": 4, "tests_per_size": 1, "seed": 3}
        paths = {}
        for n in (4, 8):
            paths[n] = tmp_path / f"cfg{n}.json"
            paths[n].write_text(json.dumps({**cfg, "n_per_side": n}))
        assert main(["train", "--config", str(paths[4]), "--out-dir", str(out)]) == 0
        coarse = TaylorHoodSpace(generate_empty_mesh(4))
        fine = TaylorHoodSpace(generate_empty_mesh(8))
        common = ["--config", str(paths[8]), "--out-dir", str(out)]
        # train-eqp reads the trained directory as study does: the snapshots,
        # checked against the config's spaces, come first
        expected = (
            rf"snapshots_empty\.bin: component 'empty' expects {fine.n_u} velocity and "
            rf"{fine.n_p} pressure rows, found {coarse.n_u} and {coarse.n_p}"
        )
        with pytest.raises(FormatError, match=expected):
            main(["train-eqp", *common])
        # predict-rom builds no space: the stored config names the mesh size
        with pytest.raises(
            FormatError,
            match=r"reduced_model\.bin: trained with n_per_side=4, the config has 8",
        ):
            main(["predict-rom", *common, "--grid-size", "2"])

    def test_snapshots_of_another_seed_rejected(self, tmp_path):
        from cromflow.cli import main
        from cromflow._binio import FormatError

        from cromflow.fom import load_solution, save_solution

        out = tmp_path / "out"
        common = ["--config", str(tiny_cli_config(tmp_path)), "--out-dir", str(out)]
        assert main(["sample", *common]) == 0
        with pytest.raises(
            FormatError, match=r"snapshots_empty\.bin: trained with seed=3, the config has 4"
        ):
            main(["train", *common, "--seed", "4"])
        # a snapshot file that records no config
        data = load_solution(out / "snapshots_empty.bin")
        save_solution(out / "snapshots_empty.bin", data["u"], data["p"])
        with pytest.raises(FormatError, match=r"snapshots_empty\.bin: no readable config"):
            main(["train", *common])


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    """``train`` and ``train-eqp`` output at the tiny CLI config, once per module."""
    from cromflow.cli import main

    root = tmp_path_factory.mktemp("tiny_artifacts")
    cfg_path = tiny_cli_config(root)
    out = root / "out"
    assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert main(["train-eqp", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    return out


def copy_artifacts(tiny_artifacts, tmp_path, name="out"):
    """A copy of the tiny artifacts and the arguments naming it."""
    out = tmp_path / name
    shutil.copytree(tiny_artifacts, out)
    return out, ["--config", str(tiny_cli_config(tmp_path)), "--out-dir", str(out)]


class TestStoredModel:
    """``predict-rom`` reads the stored reduced model and refuses a stale one."""

    def test_predict_rom_builds_no_full_order_operator(self, tiny_artifacts, tmp_path, monkeypatch):
        from cromflow import cli, geometry, harness, reduction, weakforms
        from cromflow.rom import load_rom_solution

        out, common = copy_artifacts(tiny_artifacts, tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("predict-rom built or projected full-order operators")

        monkeypatch.setattr(harness, "build_component_set", forbidden)
        monkeypatch.setattr(weakforms, "build_component_operators", forbidden)
        monkeypatch.setattr(reduction, "project_linear", forbidden)
        # nor any mesh (and so no space) without --vtk
        monkeypatch.setattr(geometry, "generate_empty_mesh", forbidden)
        monkeypatch.setattr(geometry, "generate_obstacle_mesh", forbidden)
        for backend in ("tensorial", "eqp"):
            argv = ["predict-rom", *common, "--grid-size", "2", "--backend", backend]
            assert cli.main(argv) == 0
            u_hat = load_rom_solution(out / "rom_solution.bin")["u_hat"]
            assert np.isfinite(u_hat).all() and u_hat.any()

    def test_vtk_export_writes_the_lifted_field(self, tiny_artifacts, tmp_path, monkeypatch):
        from cromflow import cli, fom, harness, weakforms

        def forbidden(*args, **kwargs):
            raise AssertionError("predict-rom --vtk built full-order operators")

        # the field file needs the component spaces only
        monkeypatch.setattr(harness, "build_component_set", forbidden)
        monkeypatch.setattr(weakforms, "build_component_operators", forbidden)
        monkeypatch.setattr(fom, "assemble_global", forbidden)
        out, common = copy_artifacts(tiny_artifacts, tmp_path)
        argv = ["predict-rom", *common, "--grid-size", "2", "--backend", "tensorial", "--vtk"]
        assert cli.main(argv) == 0
        text = (out / "rom_solution.vtk").read_text()
        assert text.startswith("# vtk DataFile") and "POINT_DATA" in text

    def test_model_trained_under_another_config_rejected(self, tiny_artifacts, tmp_path):
        from cromflow._binio import FormatError
        from cromflow.cli import main

        out, _ = copy_artifacts(tiny_artifacts, tmp_path)
        cfg_path = tiny_cli_config(tmp_path)
        cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "reynolds": 30.0}))
        argv = ["predict-rom", "--config", str(cfg_path), "--out-dir", str(out), "--grid-size", "2"]
        with pytest.raises(
            FormatError,
            match=r"reduced_model\.bin: trained with reynolds=25\.0, the config has 30\.0",
        ):
            main(argv)

    def test_files_storing_a_removed_config_key_rejected(self, tiny_artifacts, tmp_path):
        from cromflow import _binio
        from cromflow.cli import main
        from cromflow.fom import load_solution, save_solution
        from cromflow.rom import MODEL_MAGIC

        out, common = copy_artifacts(tiny_artifacts, tmp_path)
        # a model whose header still records an obstacle half width
        model = out / "reduced_model.bin"
        arrays = _binio.read_arrays(model, MODEL_MAGIC, {}, extra=True)
        header = json.loads(_binio.array_text(arrays["header"]))
        header["config"]["square_half_width"] = 0.25
        arrays["header"] = _binio.text_array(json.dumps(header))
        _binio.write_arrays(model, MODEL_MAGIC, arrays)
        with pytest.raises(
            _binio.FormatError,
            match=r"reduced_model\.bin: stores the config key 'square_half_width'"
            r".*; run train again",
        ):
            main(["predict-rom", *common, "--grid-size", "2"])

        # a snapshot file likewise
        snapshots = out / "snapshots_empty.bin"
        data = load_solution(snapshots)
        config = json.loads(_binio.array_text(data["config"]))
        config["square_half_width"] = 0.25
        data["config"] = _binio.text_array(json.dumps(config))
        save_solution(snapshots, data.pop("u"), data.pop("p"), data)
        with pytest.raises(
            _binio.FormatError,
            match=r"snapshots_empty\.bin: stores the config key 'square_half_width'"
            r".*; run sample again",
        ):
            main(["train", *common])

    def test_snapshots_of_the_old_seven_keys_rejected(self, tiny_artifacts, tmp_path):
        from cromflow import _binio
        from cromflow.cli import main
        from cromflow.fom import load_solution, save_solution

        out, common = copy_artifacts(tiny_artifacts, tmp_path)
        # snapshot files once also stored the Newton controls
        snapshots = out / "snapshots_empty.bin"
        data = load_solution(snapshots)
        config = json.loads(_binio.array_text(data["config"]))
        config.update(newton_tol=1e-8, newton_max_iter=50)
        data["config"] = _binio.text_array(json.dumps(config))
        save_solution(snapshots, data.pop("u"), data.pop("p"), data)
        with pytest.raises(
            _binio.FormatError,
            match=r"snapshots_empty\.bin: stores the config key 'newton_max_iter'"
            r".*; run sample again",
        ):
            main(["train", *common])

    def test_train_eqp_refuses_a_model_of_another_basis_size(
        self, tiny_artifacts, tmp_path, monkeypatch
    ):
        from cromflow import harness
        from cromflow._binio import FormatError
        from cromflow.cli import main

        def forbidden(*args, **kwargs):
            raise AssertionError("train-eqp trained a rule on a stale model")

        monkeypatch.setattr(harness, "train_eqp_rule", forbidden)
        out, _ = copy_artifacts(tiny_artifacts, tmp_path)
        argv = ["--config", str(tiny_cli_config(tmp_path, basis_size=4)), "--out-dir", str(out)]
        with pytest.raises(
            FormatError, match=r"reduced_model\.bin: trained with basis_size=5, the config has 4"
        ):
            main(["train-eqp", *argv])

    def test_artifacts_of_a_replaced_basis_rejected(self, tiny_artifacts, tmp_path):
        from cromflow._binio import FormatError
        from cromflow.cli import main

        out, common = copy_artifacts(tiny_artifacts, tmp_path)
        # train reuses stored snapshots, so new ones come first
        assert main(["sample", *common, "--seed", "4"]) == 0
        assert main(["train", *common, "--seed", "4"]) == 0
        predict = ["predict-rom", *common, "--grid-size", "2"]
        assert main(predict + ["--backend", "tensorial"]) == 0
        with pytest.raises(
            FormatError,
            match=r"eqp_empty\.bin was trained on another velocity basis than "
            r".*basis_empty\.bin; run train-eqp again",
        ):
            main(predict + ["--backend", "eqp"])

        # the old model under the new basis of one component
        old, common = copy_artifacts(tiny_artifacts, tmp_path, "old")
        shutil.copy(out / "basis_square.bin", old / "basis_square.bin")
        with pytest.raises(
            FormatError,
            match=r"reduced_model\.bin was projected on another velocity basis than "
            r".*basis_square\.bin; run train again",
        ):
            main(["predict-rom", *common, "--grid-size", "2"])
