import numpy as np
import pytest
import scipy.sparse as sp

from cromflow import fom
from cromflow.femspace import TaylorHoodSpace
from cromflow.fom import (
    assemble_global,
    export_vtk,
    load_solution,
    mms_convergence,
    save_solution,
    solve_newton,
    solve_stokes,
)
from cromflow.geometry import (
    GridConfig,
    SideBC,
    generate_empty_mesh,
    generate_obstacle_mesh,
)
from cromflow.weakforms import assemble_interface_blocks, build_component_operators

NU = 0.04


def channel_profile(xy):
    return np.stack([xy[:, 1] * (1 - xy[:, 1]), np.zeros(len(xy))], axis=-1)


def zero_g(xy):
    return np.zeros_like(xy)


@pytest.fixture(scope="module")
def empty_parts():
    space = TaylorHoodSpace(generate_empty_mesh(4))
    ops = {"empty": build_component_operators(space, NU)}
    blocks = {
        ("empty", "empty", o): assemble_interface_blocks(space, space, o, NU)
        for o in ("H", "V")
    }
    return space, ops, blocks


def channel_grid(rows, cols, forcing=None):
    bc = {
        "L": SideBC("dirichlet", channel_profile),
        "B": SideBC("dirichlet", channel_profile),
        "T": SideBC("dirichlet", channel_profile),
        "R": SideBC("neumann"),
    }
    return GridConfig(rows, cols, [["empty"] * cols] * rows, NU, bc, forcing)


def global_errors(system, space, u, p, exact_u, exact_p):
    eu2 = nu2 = ep2 = np2 = 0.0
    for m in range(system.grid.n_subdomains):
        o = system.grid.cell_origin(m)
        eu2 += space.velocity_l2(u[system.slice_u(m)], lambda xy: exact_u(xy + o)) ** 2
        nu2 += space.velocity_l2(space.interpolate_velocity(lambda xy: exact_u(xy + o))) ** 2
        ep2 += space.pressure_l2(p[system.slice_p(m)], lambda xy: exact_p(xy + o)) ** 2
        np2 += space.pressure_l2(space.interpolate_pressure(lambda xy: exact_p(xy + o))) ** 2
    return np.sqrt(eu2 / nu2), np.sqrt(ep2 / max(np2, 1e-300))


class TestAssembly:
    def test_1x1_has_no_interfaces(self, empty_parts):
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(1, 1), ops, blocks)
        assert len(system.interfaces) == 0
        # global K = component K + Dirichlet blocks of the three sides
        ref = ops["empty"].K + sum(ops["empty"].K_di[s] for s in "LBT")
        assert np.abs((system.K - ref)).max() < 1e-14

    def test_2x1_mirrored_interface_blocks(self, empty_parts):
        space, ops, blocks = empty_parts
        bc = {
            "L": SideBC("dirichlet", channel_profile),
            "B": SideBC("neumann"),
            "T": SideBC("neumann"),
            "R": SideBC("neumann"),
        }
        grid = GridConfig(1, 2, [["empty", "empty"]], NU, bc)
        system = assemble_global(grid, ops, blocks)
        n = space.n_u
        K01 = system.K[:n, n:].toarray()
        K10 = system.K[n:, :n].toarray()
        assert np.abs(K01 - K10.T).max() < 1e-12

    def test_total_dof_count(self, empty_parts):
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(2, 2), ops, blocks)
        assert system.n_u == 4 * space.n_u
        assert system.n_p == 4 * space.n_p
        assert system.n_dof == 4 * (space.n_u + space.n_p)

    def test_missing_configuration_raises(self, empty_parts):
        space, ops, blocks = empty_parts
        partial = {k: v for k, v in blocks.items() if k[2] == "H"}
        with pytest.raises(KeyError, match="configuration"):
            assemble_global(channel_grid(2, 2), ops, partial)

    def test_pressure_schur_full_rank(self, empty_parts):
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(1, 1), ops, blocks)
        sv = np.linalg.svd(system.B.toarray(), compute_uv=False)
        assert sv.min() > 1e-6


class TestStokes:
    def test_channel_exact(self, empty_parts):
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(1, 1), ops, blocks)
        u, p = solve_stokes(system)
        err_u, err_p = global_errors(
            system, space, u, p, channel_profile, lambda xy: 2 * NU * (1 - xy[:, 0])
        )
        assert err_u < 1e-8
        assert err_p < 1e-8

    def test_zero_data_zero_solution(self, empty_parts):
        space, ops, blocks = empty_parts
        bc = {s: SideBC("dirichlet", zero_g) for s in "LRBT"}
        grid = GridConfig(1, 1, [["empty"]], NU, bc)
        system = assemble_global(grid, ops, blocks)
        assert system.pressure_constraint
        u, p = solve_stokes(system)
        assert np.abs(u).max() < 1e-12
        assert np.abs(p).max() < 1e-12

    def test_uniform_flow(self, empty_parts):
        space, ops, blocks = empty_parts
        g1 = lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        bc = {
            "L": SideBC("dirichlet", g1),
            "B": SideBC("dirichlet", g1),
            "T": SideBC("dirichlet", g1),
            "R": SideBC("neumann"),
        }
        grid = GridConfig(1, 1, [["empty"]], NU, bc)
        system = assemble_global(grid, ops, blocks)
        u, p = solve_stokes(system)
        err_u, _ = global_errors(system, space, u, p, g1, lambda xy: np.zeros(len(xy)))
        assert err_u < 1e-10
        assert space.pressure_l2(p) < 1e-9

    def test_incompatible_dirichlet_rejected(self, empty_parts):
        space, ops, blocks = empty_parts
        inflow = lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        bc = {
            "L": SideBC("dirichlet", inflow),
            "R": SideBC("dirichlet", zero_g),
            "B": SideBC("dirichlet", zero_g),
            "T": SideBC("dirichlet", zero_g),
        }
        grid = GridConfig(1, 1, [["empty"]], NU, bc)
        with pytest.raises(ValueError, match="flux"):
            assemble_global(grid, ops, blocks)


class TestNewton:
    def test_channel_converges_immediately(self, empty_parts):
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(1, 1), ops, blocks)
        u, p, report = solve_newton(system)
        assert report.converged
        assert report.newton_iterations <= 2
        err_u, _ = global_errors(
            system, space, u, p, channel_profile, lambda xy: 2 * NU * (1 - xy[:, 0])
        )
        assert err_u < 1e-8

    def test_obstacle_array_converges_monotone(self):
        n = 8
        se = TaylorHoodSpace(generate_empty_mesh(n))
        ss = TaylorHoodSpace(generate_obstacle_mesh(n, "square", 0.25))
        spaces = {"empty": se, "square": ss}
        ops = {k: build_component_operators(v, NU) for k, v in spaces.items()}
        blocks = {
            (a, b, o): assemble_interface_blocks(spaces[a], spaces[b], o, NU)
            for a in spaces
            for b in spaces
            for o in ("H", "V")
        }
        g = lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        bc = {
            "L": SideBC("dirichlet", g),
            "B": SideBC("neumann"),
            "T": SideBC("neumann"),
            "R": SideBC("neumann"),
        }
        grid = GridConfig(2, 2, [["square", "empty"], ["empty", "square"]], NU, bc)
        system = assemble_global(grid, ops, blocks)
        u, p, report = solve_newton(system)
        assert report.converged
        hist = report.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_quadratic_convergence_window(self):
        n = 8
        se = TaylorHoodSpace(generate_empty_mesh(n))
        ss = TaylorHoodSpace(generate_obstacle_mesh(n, "square", 0.25))
        spaces = {"empty": se, "square": ss}
        ops = {k: build_component_operators(v, NU) for k, v in spaces.items()}
        blocks = {
            (a, b, o): assemble_interface_blocks(spaces[a], spaces[b], o, NU)
            for a in spaces
            for b in spaces
            for o in ("H", "V")
        }
        g = lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        bc = {
            "L": SideBC("dirichlet", g),
            "B": SideBC("neumann"),
            "T": SideBC("neumann"),
            "R": SideBC("neumann"),
        }
        grid = GridConfig(2, 2, [["square", "empty"], ["empty", "square"]], NU, bc)
        system = assemble_global(grid, ops, blocks)
        _, _, report = solve_newton(system, tol_rel=1e-12, tol_abs=1e-12)
        hist = np.asarray(report.residual_history)
        win = (hist < 1e-2) & (hist > 1e-10)
        ratios = [
            hist[k + 1] / hist[k] ** 2
        for k in range(len(hist) - 1) if win[k] and win[k + 1]
        ]
        assert ratios, "no iterates in the quadratic window"
        assert np.isfinite(ratios).all()

    def test_max_iter_zero_reports_not_converged(self, empty_parts):
        space, ops, blocks = empty_parts
        g = lambda xy: np.stack([xy[:, 1], np.zeros(len(xy))], axis=-1)
        bc = {
            "L": SideBC("dirichlet", g),
            "B": SideBC("dirichlet", zero_g),
            "T": SideBC("neumann"),
            "R": SideBC("neumann"),
        }
        grid = GridConfig(1, 1, [["empty"]], NU, bc)
        system = assemble_global(grid, ops, blocks)
        u, p, report = solve_newton(system, tol_rel=1e-14, tol_abs=1e-16, max_iter=0)
        assert not report.converged
        assert report.newton_iterations == 0

    def test_singular_newton_factorization_is_reported(self, empty_parts, monkeypatch):
        space, ops, blocks = empty_parts
        g = lambda xy: np.stack([xy[:, 1], np.zeros(len(xy))], axis=-1)
        bc = {
            "L": SideBC("dirichlet", g),
            "B": SideBC("dirichlet", zero_g),
            "T": SideBC("neumann"),
            "R": SideBC("neumann"),
        }
        system = assemble_global(GridConfig(1, 1, [["empty"]], NU, bc), ops, blocks)
        calls = []
        factorize = fom.saddle_lu

        def singular_after_stokes(mat):
            calls.append(mat.shape)
            if len(calls) > 1:
                raise RuntimeError("Factor is exactly singular")
            return factorize(mat)

        monkeypatch.setattr(fom, "saddle_lu", singular_after_stokes)
        u, p, report = solve_newton(system)
        assert len(calls) == 2
        assert not report.converged
        assert report.newton_iterations == 0
        assert "singular" in report.message
        assert len(report.residual_history) == 1
        assert u.shape == (system.n_u,) and p.shape == (system.n_p,)
        assert set(report.wall_times) == {"assembly", "factorization", "total"}

    def test_interpolated_channel_residual_tiny(self, empty_parts):
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(2, 2), ops, blocks)
        u = np.zeros(system.n_u)
        p = np.zeros(system.n_p)
        pex = lambda xy: 2 * NU * (2 - xy[:, 0])
        for m in range(4):
            o = system.grid.cell_origin(m)
            u[system.slice_u(m)] = space.interpolate_velocity(
                lambda xy: channel_profile(xy + o)
            )
            p[system.slice_p(m)] = space.interpolate_pressure(lambda xy: pex(xy + o))
        r_u, r_p = system.residual(u, p)
        assert np.linalg.norm(np.concatenate([r_u, r_p])) < 1e-9


class TestMms:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2)])
    def test_orders(self, rows, cols):
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

        out = mms_convergence(exact_u, exact_p, forcing, rows, cols, (4, 8, 16), nu)
        assert 2.7 <= out["velocity_order"] <= 3.3
        assert 1.7 <= out["pressure_order"] <= 2.5

    def test_polynomial_exactness(self, empty_parts):
        # quadratic velocity, linear pressure: reproduced to machine precision
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(1, 1), ops, blocks)
        u, p, report = solve_newton(system)
        assert report.converged
        err_u, err_p = global_errors(
            system, space, u, p, channel_profile, lambda xy: 2 * NU * (1 - xy[:, 0])
        )
        assert err_u < 1e-12
        assert err_p < 1e-12

    def test_penalty_scaling_with_refinement(self):
        # halving h halves the face size, doubling the per-face gamma / dx
        from cromflow.weakforms import penalty_strength

        gamma = penalty_strength(NU)
        factors = []
        for n in (4, 8):
            mesh = generate_empty_mesh(n)
            dx = mesh.side_breakpoints("L")[1] - mesh.side_breakpoints("L")[0]
            assert abs(dx - 1.0 / n) < 1e-14
            factors.append(gamma / dx)
        assert factors[1] == pytest.approx(2.0 * factors[0])


class TestIo:
    def test_solution_round_trip(self, tmp_path, empty_parts):
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(1, 1), ops, blocks)
        u, p = solve_stokes(system)
        path = tmp_path / "sol.bin"
        save_solution(path, u, p)
        data = load_solution(path)
        assert np.array_equal(data["u"], u)
        assert np.array_equal(data["p"], p)

    def test_vtk_export(self, tmp_path, empty_parts):
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(2, 1), ops, blocks)
        u, p = solve_stokes(system)
        path = tmp_path / "sol.vtk"
        export_vtk(path, system, u, p)
        text = path.read_text()
        assert "UNSTRUCTURED_GRID" in text
        assert "VECTORS velocity" in text
        assert "SCALARS pressure" in text
        n_pts = 2 * space.mesh.n_vertices
        assert f"POINTS {n_pts} double" in text
