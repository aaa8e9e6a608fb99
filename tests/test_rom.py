import numpy as np
import pytest

from cromflow import rom
from cromflow.femspace import TaylorHoodSpace
from cromflow.fom import assemble_global, solve_newton
from cromflow.geometry import GridConfig, SideBC, generate_empty_mesh
from cromflow.reduction import (
    PodBasis,
    build_advection_tensor,
    project_linear,
)
from cromflow.rom import (
    assemble_global_rom,
    lift,
    load_rom_solution,
    project_state,
    relative_errors,
    save_rom_solution,
    solve_rom_newton,
)
from cromflow.weakforms import assemble_interface_blocks, build_component_operators

NU = 0.04


def channel_profile(xy):
    return np.stack([xy[:, 1] * (1 - xy[:, 1]), np.zeros(len(xy))], axis=-1)


@pytest.fixture(scope="module")
def parts():
    space = TaylorHoodSpace(generate_empty_mesh(4))
    ops = {"empty": build_component_operators(space, NU)}
    blocks = {
        ("empty", "empty", o): assemble_interface_blocks(space, space, o, NU)
        for o in ("H", "V")
    }
    return space, ops, blocks


def identity_basis(space):
    return PodBasis(
        "empty",
        np.eye(space.n_u),
        np.eye(space.n_p),
        np.ones(space.n_u),
        np.ones(space.n_p),
        space.n_u,
        space.n_p,
        0,
    )


def random_basis(space, r_u, r_p, seed=0, pressure_penalty=0.0):
    rng = np.random.default_rng(seed)
    pu = np.linalg.qr(rng.standard_normal((space.n_u, r_u)))[0]
    pp = np.linalg.qr(rng.standard_normal((space.n_p, r_p)))[0]
    return PodBasis(
        "empty", pu, pp, np.ones(r_u), np.ones(r_p), r_u, r_p, 0, pressure_penalty
    )


def channel_bc():
    return {
        "L": SideBC("dirichlet", channel_profile),
        "B": SideBC("dirichlet", channel_profile),
        "T": SideBC("dirichlet", channel_profile),
        "R": SideBC("neumann"),
    }


class TestAssembly:
    def test_reduced_dimension(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 8, 3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        system = assemble_global_rom(grid, reduced, riface)
        assert system.n_dof == 8 + 3

    def test_reduced_dimension_2x2(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 10, 4)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(2, 2, [["empty"] * 2] * 2, NU, channel_bc())
        system = assemble_global_rom(grid, reduced, riface)
        assert system.n_dof == 4 * 14

    def test_identity_basis_reproduces_fom_system(self, parts):
        space, ops, blocks = parts
        basis = identity_basis(space)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 2, [["empty", "empty"]], NU, channel_bc())
        fom_sys = assemble_global(grid, ops, blocks)
        rom_sys = assemble_global_rom(grid, reduced, riface)
        assert np.abs(rom_sys.K - fom_sys.K).max() < 1e-12
        assert np.abs(rom_sys.B - fom_sys.B).max() < 1e-12
        assert np.abs(rom_sys.rhs_u - fom_sys.rhs_u).max() < 1e-12
        assert np.abs(rom_sys.rhs_p - fom_sys.rhs_p).max() < 1e-12

    def test_missing_backend_data_raises(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 5, 2)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        with pytest.raises(ValueError, match="tensor"):
            assemble_global_rom(grid, reduced, riface, "tensorial")
        with pytest.raises(ValueError, match="rule"):
            assemble_global_rom(grid, reduced, riface, "eqp")


class TestSolve:
    def test_identity_basis_matches_fom_solution(self, parts):
        space, ops, blocks = parts
        basis = identity_basis(space)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 2, [["empty", "empty"]], NU, channel_bc())
        fom_sys = assemble_global(grid, ops, blocks)
        u_f, p_f, _ = solve_newton(fom_sys)
        rom_sys = assemble_global_rom(grid, reduced, riface)
        uh, ph, report = solve_rom_newton(rom_sys)
        assert report.converged
        errs = relative_errors(fom_sys, u_f, p_f, lift(rom_sys, uh, ph))
        assert errs["velocity_rel_l2"] < 1e-10
        assert errs["pressure_rel_l2"] < 1e-10

    def test_reports_share_wall_time_keys_with_fom(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 8, 3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 2, [["empty", "empty"]], NU, channel_bc())
        _, _, rep_f = solve_newton(assemble_global(grid, ops, blocks))
        _, _, rep_r = solve_rom_newton(assemble_global_rom(grid, reduced, riface))
        keys = {"assembly", "factorization", "total"}
        assert set(rep_f.wall_times) == set(rep_r.wall_times) == keys
        assert rep_r.newton_iterations > 0
        assert rep_r.wall_times["factorization"] > 0.0

    def test_singular_factorization_is_reported(self, parts, monkeypatch):
        space, ops, blocks = parts
        basis = random_basis(space, 8, 3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 2, [["empty", "empty"]], NU, channel_bc())
        system = assemble_global_rom(grid, reduced, riface)

        def singular(mat):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(rom, "saddle_lu", singular)
        uh, ph, report = solve_rom_newton(system)
        assert not report.converged
        assert report.newton_iterations == 0
        assert "singular" in report.message
        assert not np.any(uh) and not np.any(ph)
        assert set(report.wall_times) == {"assembly", "factorization", "total"}

    def test_zero_inflow_zero_state(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 6, 3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        zero = lambda xy: np.zeros_like(xy)
        bc = {
            "L": SideBC("dirichlet", zero),
            "B": SideBC("neumann"),
            "T": SideBC("neumann"),
            "R": SideBC("neumann"),
        }
        grid = GridConfig(1, 1, [["empty"]], NU, bc)
        system = assemble_global_rom(grid, reduced, riface)
        uh, ph, report = solve_rom_newton(system)
        assert report.converged
        assert np.abs(uh).max() < 1e-12
        assert np.abs(ph).max() < 1e-12

    def test_galerkin_consistency(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 9, 4, seed=2)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(2, 2, [["empty"] * 2] * 2, NU, channel_bc())
        fom_sys = assemble_global(grid, ops, blocks)
        rom_sys = assemble_global_rom(grid, reduced, riface)
        rng = np.random.default_rng(3)
        for _ in range(5):
            uh = rng.standard_normal(rom_sys.n_u)
            ph = rng.standard_normal(rom_sys.n_p)
            lifted = lift(rom_sys, uh, ph)
            r_u, r_p = fom_sys.residual(lifted.u, lifted.p)
            pr_u, pr_p = project_state(rom_sys, r_u, r_p)
            rr_u, rr_p = rom_sys.residual(uh, ph)
            scale = max(np.abs(rr_u).max(), np.abs(rr_p).max(), 1.0)
            assert np.abs(rr_u - pr_u).max() < 1e-10 * scale
            assert np.abs(rr_p - pr_p).max() < 1e-10 * scale

    def test_penalty_enters_continuity_only(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 9, 4, seed=2, pressure_penalty=1e-3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(2, 2, [["empty"] * 2] * 2, NU, channel_bc())
        fom_sys = assemble_global(grid, ops, blocks)
        rom_sys = assemble_global_rom(grid, reduced, riface)
        pp = basis.phi_p
        block = 1e-3 * pp.T @ ops["empty"].pressure_stiffness.toarray() @ pp
        assert np.abs(rom_sys.C.toarray() - np.kron(np.eye(4), block)).max() < 1e-15
        rng = np.random.default_rng(3)
        uh = rng.standard_normal(rom_sys.n_u)
        ph = rng.standard_normal(rom_sys.n_p)
        lifted = lift(rom_sys, uh, ph)
        pr_u, pr_p = project_state(rom_sys, *fom_sys.residual(lifted.u, lifted.p))
        rr_u, rr_p = rom_sys.residual(uh, ph)
        assert np.abs(rr_u - pr_u).max() < 1e-10
        assert np.abs(rr_p - (pr_p - rom_sys.C @ ph)).max() < 1e-10

    def test_zero_penalty_leaves_pressure_block_empty(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 9, 4, seed=2)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(2, 2, [["empty"] * 2] * 2, NU, channel_bc())
        rom_sys = assemble_global_rom(grid, reduced, riface)
        assert rom_sys.C.nnz == 0
        n = rom_sys.n_u
        assert rom_sys._saddle(rom_sys.K)[n:, n:].nnz == 0


class TestLift:
    def test_basis_column(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 5, 2, seed=4)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        system = assemble_global_rom(grid, reduced, riface)
        e2 = np.zeros(5)
        e2[2] = 1.0
        lifted = lift(system, e2, np.zeros(2))
        assert np.abs(lifted.u - basis.phi_u[:, 2]).max() < 1e-15

    def test_norm_preservation(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 5, 2, seed=5)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        system = assemble_global_rom(grid, reduced, riface)
        rng = np.random.default_rng(6)
        uh = rng.standard_normal(5)
        lifted = lift(system, uh, np.zeros(2))
        assert abs(np.linalg.norm(lifted.u) - np.linalg.norm(uh)) < 1e-12

    def test_projection_is_best_approximation(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 12, 5, seed=7)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        system = assemble_global_rom(grid, reduced, riface)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(space.n_u)
        uh, _ = project_state(system, u, np.zeros(space.n_p))
        lifted = lift(system, uh, np.zeros(5))
        assert np.abs(lifted.u - basis.phi_u @ (basis.phi_u.T @ u)).max() < 1e-12


class TestErrors:
    def test_identical_fields(self, parts):
        space, ops, blocks = parts
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        fom_sys = assemble_global(grid, ops, blocks)
        u, p, _ = solve_newton(fom_sys)
        basis = identity_basis(space)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        rom_sys = assemble_global_rom(grid, reduced, riface)
        from cromflow.rom import LiftedSolution

        lifted = LiftedSolution(u.copy(), p.copy(), rom_sys.fom_off_u, rom_sys.fom_off_p)
        errs = relative_errors(fom_sys, u, p, lifted)
        assert errs["velocity_rel_l2"] == 0.0
        assert errs["pressure_rel_l2"] == 0.0

    def test_uniform_scaling_gives_one_percent(self, parts):
        space, ops, blocks = parts
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        fom_sys = assemble_global(grid, ops, blocks)
        u, p, _ = solve_newton(fom_sys)
        from cromflow.rom import LiftedSolution

        basis = identity_basis(space)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        rom_sys = assemble_global_rom(grid, reduced, riface)
        lifted = LiftedSolution(1.01 * u, 1.01 * p, rom_sys.fom_off_u, rom_sys.fom_off_p)
        errs = relative_errors(fom_sys, u, p, lifted)
        assert errs["velocity_rel_l2"] == pytest.approx(0.01, rel=1e-9)
        assert errs["pressure_rel_l2"] == pytest.approx(0.01, rel=1e-9)


class TestDims:
    def test_rom_dimension_invariant_under_refinement(self):
        dims = []
        for n in (4, 8):
            space = TaylorHoodSpace(generate_empty_mesh(n))
            ops = {"empty": build_component_operators(space, NU)}
            blocks = {
                ("empty", "empty", o): assemble_interface_blocks(space, space, o, NU)
                for o in ("H", "V")
            }
            basis = random_basis(space, 7, 3, seed=9)
            reduced, riface = project_linear(ops, blocks, {"empty": basis})
            reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
            grid = GridConfig(2, 2, [["empty"] * 2] * 2, NU, channel_bc())
            system = assemble_global_rom(grid, reduced, riface)
            dims.append(system.n_dof)
        assert dims[0] == dims[1]


class TestRomSolutionFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        uh, ph = rng.standard_normal(12), rng.standard_normal(5)
        path = tmp_path / "rsol.bin"
        save_rom_solution(path, uh, ph)
        data = load_rom_solution(path)
        assert np.array_equal(data["u_hat"], uh)
        assert np.array_equal(data["p_hat"], ph)
