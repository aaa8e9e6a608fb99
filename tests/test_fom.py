import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lu_factor, lu_solve

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
from cromflow.harness import ExperimentConfig, build_component_set
from cromflow.reduction import build_advection_tensor, project_linear
from cromflow.rom import assemble_global_rom, solve_rom_newton
from cromflow.weakforms import (
    InterfaceBlocks,
    assemble_interface_blocks,
    build_component_operators,
)

from test_rom import assert_same_solve, fail_on_kept_lu, random_basis, route_kept_lu

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
        K = system.saddle[: system.n_u, : system.n_u]
        assert np.abs((K - ref)).max() < 1e-14

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
        K01 = system.saddle[:n, n : 2 * n].toarray()
        K10 = system.saddle[n : 2 * n, :n].toarray()
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

    def test_coo_blocks_place_as_their_csr_form(self, mixed_parts):
        # the placed blocks are kept in COO form; placing their CSR form
        # instead gives the same saddle matrix, bit for bit
        ops, blocks = mixed_parts
        csr_ops = {
            name: dataclasses.replace(
                o,
                K=o.K.tocsr(),
                B=o.B.tocsr(),
                K_di={t: m.tocsr() for t, m in o.K_di.items()},
                B_di={t: m.tocsr() for t, m in o.B_di.items()},
            )
            for name, o in ops.items()
        }
        csr_blocks = {
            key: InterfaceBlocks(
                {st: m.tocsr() for st, m in ib.K.items()},
                {st: m.tocsr() for st, m in ib.B.items()},
            )
            for key, ib in blocks.items()
        }
        for outflow in (True, False):
            grid = mixed_3x3_grid(outflow)
            got = assemble_global(grid, ops, blocks)
            ref = assemble_global(grid, csr_ops, csr_blocks)
            assert all(o.K.format == "coo" for o in ops.values())
            for field in ("data", "indices", "indptr"):
                assert getattr(got.saddle, field).tobytes() == getattr(ref.saddle, field).tobytes()
            assert got.rhs.tobytes() == ref.rhs.tobytes()

    def test_pressure_schur_full_rank(self, empty_parts):
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(1, 1), ops, blocks)
        B = system.saddle[system.n_u : system.n_u + system.n_p, : system.n_u]
        sv = np.linalg.svd(B.toarray(), compute_uv=False)
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

    @pytest.mark.parametrize(
        "g, flux",
        [
            (lambda xy: np.stack([xy[:, 0], -xy[:, 1]], axis=-1), None),
            (lambda xy: np.stack([xy[:, 0] ** 2, np.zeros(len(xy))], axis=-1), 8.0),
        ],
        ids=["solenoidal", "x_squared"],
    )
    def test_flux_check_on_obstacle_array(self, g, flux):
        spaces = {
            "empty": TaylorHoodSpace(generate_empty_mesh(4)),
            "square": TaylorHoodSpace(generate_obstacle_mesh(4, "square", 0.25)),
            "circle": TaylorHoodSpace(generate_obstacle_mesh(4, "circle", 0.25)),
        }
        ops = {k: build_component_operators(v, NU) for k, v in spaces.items()}
        blocks = {
            (a, b, o): assemble_interface_blocks(spaces[a], spaces[b], o, NU)
            for a in spaces
            for b in spaces
            for o in ("H", "V")
        }
        bc = {s: SideBC("dirichlet", g) for s in "LRBT"}
        grid = GridConfig(2, 2, [["empty", "square"], ["circle", "empty"]], NU, bc)
        if flux is None:
            system = assemble_global(grid, ops, blocks)
            assert system.pressure_constraint
            assert abs(system._split(system.rhs)[1].sum()) < 1e-12
        else:
            # only the right side x = 2 carries flux: 2^2 * side length 2
            with pytest.raises(ValueError, match="flux") as err:
                assemble_global(grid, ops, blocks)
            assert f"flux {flux:.3e} " in str(err.value)


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
        steps = report.step_norms
        assert len(steps) == report.newton_iterations > 0
        assert all(b < a for a, b in zip(steps, steps[1:]))

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
        # the state returned is the start: the Stokes solve at full order ...
        u_stokes, p_stokes = solve_stokes(system)
        assert np.array_equal(u, u_stokes) and np.array_equal(p, p_stokes)
        # ... and zero in the reduced system
        basis = random_basis(space, 6, 3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        rom_sys = assemble_global_rom(grid, reduced, riface)
        uh, ph, report = solve_rom_newton(rom_sys, tol_rel=1e-14, tol_abs=1e-16, max_iter=0)
        assert not report.converged
        assert report.newton_iterations == 0
        assert uh.shape == (rom_sys.n_u,) and not np.any(uh)
        assert ph.shape == (rom_sys.n_p,) and not np.any(ph)

    def test_max_iter_reached_is_explained(self, empty_parts):
        space, ops, blocks = empty_parts
        g = lambda xy: np.stack([xy[:, 1], np.zeros(len(xy))], axis=-1)
        bc = {
            "L": SideBC("dirichlet", g),
            "B": SideBC("dirichlet", zero_g),
            "T": SideBC("neumann"),
            "R": SideBC("neumann"),
        }
        system = assemble_global(GridConfig(1, 1, [["empty"]], NU, bc), ops, blocks)
        u, p, report = solve_newton(system, tol_rel=1e-14, tol_abs=1e-16, max_iter=1)
        assert not report.converged
        assert report.newton_iterations == 1
        residual = report.residual_history[-1]
        assert report.message == f"no convergence in 1 iterations (residual {residual:.3e})"

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

        def singular_after_stokes(mat, **options):
            calls.append(mat.shape)
            if len(calls) > 1:
                raise RuntimeError("Factor is exactly singular")
            return factorize(mat, **options)

        monkeypatch.setattr(fom, "saddle_lu", singular_after_stokes)
        u, p, report = solve_newton(system)
        assert len(calls) == 2
        assert not report.converged
        assert report.newton_iterations == 0
        assert "singular" in report.message
        assert len(report.residual_history) == 1
        assert report.fill_nnz == []
        assert u.shape == (system.n_u,) and p.shape == (system.n_p,)
        phases = ("jacobian", "saddle", "factorization", "solve", "residual")
        assert set(report.wall_times) == {"assembly", "total", *phases}
        # disjoint intervals of one clock; the slack covers the rounding of the sum
        assert sum(report.wall_times[k] for k in phases) <= report.wall_times["total"] + 1e-9

    def test_failed_stokes_start_is_reported(self, empty_parts, monkeypatch):
        space, ops, blocks = empty_parts
        system = assemble_global(channel_grid(1, 1), ops, blocks)
        calls = []

        def singular(mat, **options):
            calls.append(mat.shape)
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(fom, "saddle_lu", singular)
        u, p, report = solve_newton(system)
        assert len(calls) == 1
        assert not report.converged
        assert report.newton_iterations == 0
        assert report.message == "failed start: Factor is exactly singular"
        assert len(report.residual_history) == 1
        assert report.fill_nnz == [] and report.step_norms == []
        assert u.shape == (system.n_u,) and not np.any(u)
        assert p.shape == (system.n_p,) and not np.any(p)
        phases = ("jacobian", "saddle", "factorization", "solve", "residual")
        assert set(report.wall_times) == {"assembly", "total", *phases}
        assert sum(report.wall_times[k] for k in phases) <= report.wall_times["total"] + 1e-9

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
        assert np.linalg.norm(system.residual(np.concatenate([u, p]))) < 1e-9


@pytest.fixture(scope="module")
def mixed_parts():
    """All three component types at n_per_side 4, as `cromflow train` builds them."""
    parts = build_component_set(ExperimentConfig(n_per_side=4))
    return parts.operators, parts.interface_blocks


def mixed_3x3_grid(outflow: bool) -> GridConfig:
    cells = [
        ["empty", "square", "circle"],
        ["circle", "empty", "square"],
        ["square", "circle", "empty"],
    ]
    g = lambda xy: np.stack([np.ones(len(xy)), 0.3 * np.ones(len(xy))], axis=-1)
    if outflow:
        bc = {"L": SideBC("dirichlet", g), "B": SideBC("dirichlet", g)}
        bc.update(R=SideBC("neumann"), T=SideBC("neumann"))
    else:
        # uniform flow carries no net flux through the closed boundary
        bc = {s: SideBC("dirichlet", g) for s in "LRBT"}
    return GridConfig(3, 3, cells, NU, bc)


def element_jacobian_oracle(system, u) -> sp.csc_matrix:
    """saddle + the block diagonal of per-subdomain Jacobians, each summed
    from its element Jacobians through COO."""
    blocks = []
    for m in range(system.grid.n_subdomains):
        adv = system.local_of(m).adv
        jac = adv.element_jacobians(u[system.slice_u(m)][None])[0]
        dofs = adv.element_dofs
        rows = np.broadcast_to(dofs[:, :, None, :, None], jac.shape).ravel()
        cols = np.broadcast_to(dofs[:, None, :, None, :], jac.shape).ravel()
        n = adv.space.n_u
        blocks.append(sp.coo_matrix((jac.ravel(), (rows, cols)), shape=(n, n)).tocsr())
    jac = sp.block_diag(blocks, format="csc")
    jac.resize(system.saddle.shape)
    return (system.saddle + jac).tocsc()


class TestNewtonPattern:
    @pytest.mark.parametrize("outflow", [True, False], ids=["outflow", "all-dirichlet"])
    def test_fixed_pattern_matrix_equals_element_oracle(self, mixed_parts, outflow):
        ops, blocks = mixed_parts
        system = assemble_global(mixed_3x3_grid(outflow), ops, blocks)
        assert system.pressure_constraint == (not outflow)
        assert {name for name, _, _ in system.type_groups} == {"empty", "square", "circle"}
        rng = np.random.default_rng(11)
        for _ in range(2):  # the pattern is built once and reused
            u = rng.standard_normal(system.n_u)
            mat = system.newton_matrix(system.advection_jacobian(u))
            ref = element_jacobian_oracle(system, u)
            assert mat.format == "csc" and mat.shape == ref.shape
            assert abs(mat - ref).max() <= 1e-13 * abs(ref).max()
            # the fixed pattern holds every entry of the saddle and the Jacobian
            assert mat.nnz >= ref.nnz
        # the multiplier's row and column, where present, are the saddle's
        n_u, last = system.n_u, system.n_dof - 1
        if system.pressure_constraint:
            assert abs(mat[last] - system.saddle[last]).max() == 0.0
        assert abs(mat[n_u:, n_u:] - system.saddle[n_u:, n_u:]).max() == 0.0

    def test_advection_value_is_the_per_subdomain_sum(self, mixed_parts):
        ops, blocks = mixed_parts
        system = assemble_global(mixed_3x3_grid(True), ops, blocks)
        u = np.random.default_rng(12).standard_normal(system.n_u)
        ref = np.concatenate(
            [
                system.local_of(m).adv.value(u[system.slice_u(m)])
                for m in range(system.grid.n_subdomains)
            ]
        )
        assert np.abs(system.advection_value(u) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("outflow", [True, False], ids=["outflow", "all-dirichlet"])
    def test_one_ordering_per_solve(self, mixed_parts, monkeypatch, outflow):
        ops, blocks = mixed_parts
        grid = mixed_3x3_grid(outflow)
        specs = []
        factorize = fom.saddle_lu

        def recording(mat, permc_spec="COLAMD"):
            specs.append(permc_spec)
            return factorize(mat, permc_spec=permc_spec)

        monkeypatch.setattr(fom, "saddle_lu", recording)
        u, p, report = solve_newton(assemble_global(grid, ops, blocks), tol_rel=1e-12)
        assert report.converged and report.newton_iterations >= 3
        # the Stokes start, on the Newton pattern, orders; every Newton
        # factorization reuses that ordering
        assert specs == ["COLAMD"] + ["NATURAL"] * len(report.fill_nnz)

        # the reference orders afresh at every Newton step
        monkeypatch.setattr(
            fom.GlobalFomSystem, "factorize", lambda self, mat, order: factorize(mat)
        )
        u_ref, p_ref, ref = solve_newton(assemble_global(grid, ops, blocks), tol_rel=1e-12)
        assert ref.converged and ref.newton_iterations == report.newton_iterations
        x, x_ref = np.concatenate([u, p]), np.concatenate([u_ref, p_ref])
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        # the reused ordering keeps the fill of a fresh one
        for got, fresh in zip(report.fill_nnz, ref.fill_nnz, strict=True):
            assert abs(got - fresh) <= 0.01 * fresh

    def test_permuted_factorization_solves_the_unpermuted_matrix(self, mixed_parts):
        ops, blocks = mixed_parts
        system = assemble_global(mixed_3x3_grid(False), ops, blocks)
        rng = np.random.default_rng(13)
        _, order = system.start()
        mat = system.newton_matrix(system.advection_jacobian(rng.standard_normal(system.n_u)))
        lu = system.factorize(mat, order)
        b = rng.standard_normal(system.n_dof)
        x = lu.solve(b)
        assert np.linalg.norm(mat @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert lu.nnz > mat.nnz


def refuse_a_second_live_lu(monkeypatch):
    """Make every full-order factorization, the Stokes start's included,
    fail while an earlier one is alive."""
    factorize, alive = fom.saddle_lu, []

    class Held:  # SuperLU objects take no weak references
        def __init__(self, lu):
            self.lu, self.nnz, self.perm_c = lu, lu.nnz, lu.perm_c

        def solve(self, b):
            return self.lu.solve(b)

    def checked(mat, **options):
        assert all(ref() is None for ref in alive), "an earlier LU is still alive"
        held = Held(factorize(mat, **options))
        alive.append(weakref.ref(held))
        return held

    monkeypatch.setattr(fom, "saddle_lu", checked)


class TestLuReuse:
    def test_reuse_matches_refactoring_every_step(self, mixed_parts, monkeypatch):
        ops, blocks = mixed_parts
        grid = mixed_3x3_grid(True)
        refuse_a_second_live_lu(monkeypatch)
        u, p, report = solve_newton(assemble_global(grid, ops, blocks))
        route_kept_lu(monkeypatch, fail_on_kept_lu)
        u_ref, p_ref, ref = solve_newton(assemble_global(grid, ops, blocks))
        assert report.converged and ref.converged
        assert report.newton_iterations == ref.newton_iterations
        x, x_ref = np.concatenate([u, p]), np.concatenate([u_ref, p_ref])
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert any(report.reused_lu) and not any(ref.reused_lu)
        assert len(report.fill_nnz) < len(ref.fill_nnz) == ref.newton_iterations
        assert len(report.fill_nnz) == report.newton_iterations - sum(report.reused_lu)
        # every step ran FGMRES; on its own exact LU a step takes one iteration
        assert all(k >= 1 for k in report.gmres_iterations)
        assert [k for k, reused in zip(report.gmres_iterations, report.reused_lu) if not reused] == [
            1
        ] * len(report.fill_nnz)
        assert ref.gmres_iterations == [1] * ref.newton_iterations

    def test_gmres_failure_refactors_on_the_same_step(self, mixed_parts, monkeypatch):
        ops, blocks = mixed_parts
        grid = mixed_3x3_grid(True)
        _, _, report = solve_newton(assemble_global(grid, ops, blocks))

        def short(fgmres, mat, lu, b, atol, *args):  # iterates, then reports failure
            _, iterations, res = fgmres(mat, lu, b, atol, *args)
            return None, iterations, res

        route_kept_lu(monkeypatch, short)
        refuse_a_second_live_lu(monkeypatch)
        _, _, failed = solve_newton(assemble_global(grid, ops, blocks))
        assert failed.converged and failed.newton_iterations == report.newton_iterations
        assert not any(failed.reused_lu)
        # every step factors, a failed attempt's included
        assert len(failed.fill_nnz) == failed.newton_iterations
        # the attempts' iterations add to the one on the step's own LU, where
        # the kept LU was tried
        assert [k > 1 for k in failed.gmres_iterations] == report.reused_lu
        assert all(k >= 1 for k in failed.gmres_iterations)

    @pytest.mark.parametrize("outflow", [True, False], ids=["outflow", "all-dirichlet"])
    def test_two_solves_on_one_system_are_identical(self, mixed_parts, outflow):
        ops, blocks = mixed_parts
        system = assemble_global(mixed_3x3_grid(outflow), ops, blocks)
        first = solve_newton(system)
        assert first[2].converged and any(first[2].reused_lu)
        assert_same_solve(first, solve_newton(system))

    def test_singular_factorization_after_a_reused_step(self, mixed_parts, monkeypatch):
        ops, blocks = mixed_parts
        system = assemble_global(mixed_3x3_grid(True), ops, blocks)
        factorize = fom.GlobalFomSystem.factorize
        solved = []

        def once(fgmres, mat, lu, b, atol, *args):  # solves the first reused step only
            if solved:
                return fail_on_kept_lu(fgmres, mat, lu, b, atol)
            solved.append(True)
            return fgmres(mat, lu, b, atol, *args)

        def singular_after_reuse(self, mat, order):
            if solved:
                raise RuntimeError("Factor is exactly singular")
            return factorize(self, mat, order)

        route_kept_lu(monkeypatch, once)
        monkeypatch.setattr(fom.GlobalFomSystem, "factorize", singular_after_reuse)
        u, p, report = solve_newton(system)
        assert not report.converged
        assert "singular" in report.message
        # the reused step counts; the step whose factorization failed does not
        assert report.reused_lu[-1] and sum(report.reused_lu) == 1
        assert len(report.fill_nnz) == report.newton_iterations - 1
        assert len(report.gmres_iterations) == len(report.step_norms) == report.newton_iterations
        assert len(report.residual_history) == report.newton_iterations + 1
        assert u.shape == (system.n_u,) and p.shape == (system.n_p,)

    @pytest.mark.parametrize("good", [0, 1], ids=["first", "second"])
    def test_poor_fresh_factorization_ends_the_solve(self, mixed_parts, monkeypatch, good):
        ops, blocks = mixed_parts
        system = assemble_global(mixed_3x3_grid(True), ops, blocks)
        factorize, made = fom.GlobalFomSystem.factorize, []

        def poor_after(self, mat, order):  # the first ``good`` LUs are exact
            made.append(True)
            return factorize(self, mat, order) if len(made) <= good else _NoLU()

        monkeypatch.setattr(fom.GlobalFomSystem, "factorize", poor_after)
        u, p, report = solve_newton(system)
        assert not report.converged
        assert report.message.startswith("linear solve failed on a fresh factorization (residual ")
        # the steps on exact LUs count, the failed step does not; its
        # factorization does
        assert len(made) == len(report.fill_nnz) == good + 1
        assert report.newton_iterations == good
        assert len(report.step_norms) == len(report.gmres_iterations) == good
        assert len(report.residual_history) == good + 1
        assert u.shape == (system.n_u,) and p.shape == (system.n_p,)


class _DenseLU:
    """LU of a dense matrix in ``dtype``; solves round their input to it."""

    def __init__(self, a, dtype=np.float64):
        self.dtype, self._factor = dtype, lu_factor(a.astype(dtype))

    def solve(self, b):
        return lu_solve(self._factor, b.astype(self.dtype)).astype(np.float64)


class _NoLU:
    """A preconditioner that does nothing: the poorest LU."""

    nnz = 1

    def solve(self, b):
        return b.copy()


def conditioned_system(seed, n=200, cond=1e4):
    """A dense matrix with singular values spread from 1 to ``cond``, and a
    right-hand side."""
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q1 @ np.diag(np.logspace(0, np.log10(cond), n)) @ q2, rng.standard_normal(n)


class TestFgmres:
    @pytest.mark.parametrize("seed", range(3))
    def test_exact_lu_takes_one_iteration(self, seed):
        a, b = conditioned_system(seed)
        atol = 1e-11 * np.linalg.norm(b)
        x, iterations, res = fom.fgmres(a, _DenseLU(a), b, atol)
        assert iterations == 1
        assert res == np.linalg.norm(b - a @ x) <= atol

    @pytest.mark.parametrize("seed", range(3))
    def test_float32_lu_refines_to_double_precision(self, seed):
        a, b = conditioned_system(seed)
        lu = _DenseLU(a, np.float32)
        atol = 1e-12 * np.linalg.norm(b)
        x, iterations, res = fom.fgmres(a, lu, b, atol)
        assert x is not None and 1 < iterations < fom._GMRES_RESTART
        assert res == np.linalg.norm(b - a @ x) <= atol
        # GMRES that assumes a linear preconditioner fails on the same LU
        op = spla.LinearOperator(a.shape, matvec=lambda y: a @ lu.solve(y), dtype=float)
        y, info = spla.gmres(op, b, restart=fom._GMRES_RESTART, maxiter=1, rtol=0.0, atol=atol)
        assert info != 0
        assert np.linalg.norm(b - a @ lu.solve(y)) > atol

    def test_reports_failure_at_the_cap(self):
        a, b = conditioned_system(0)
        atol = 1e-12 * np.linalg.norm(b)
        x, iterations, res = fom.fgmres(a, _NoLU(), b, atol)
        assert x is None and iterations == fom._GMRES_RESTART
        assert atol < res < np.linalg.norm(b)

    def test_breakdown_reports_failure(self):
        # the preconditioned operator maps the first basis vector to zero
        a, b = conditioned_system(0)
        x, iterations, res = fom.fgmres(np.zeros_like(a), _NoLU(), b, 1e-12 * np.linalg.norm(b))
        assert x is None and iterations == 1
        assert res == np.linalg.norm(b)

    def test_two_calls_give_the_same_bits(self):
        a, b = conditioned_system(1)
        lu = _DenseLU(a, np.float32)
        first, second = (fom.fgmres(a, lu, b, 1e-12 * np.linalg.norm(b)) for _ in range(2))
        assert np.array_equal(first[0], second[0])
        assert first[1:] == second[1:]


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
        export_vtk(path, system.grid, {"empty": space}, u, p)
        text = path.read_text()
        assert "UNSTRUCTURED_GRID" in text
        assert "VECTORS velocity" in text
        assert "SCALARS pressure" in text
        n_pts = 2 * space.mesh.n_vertices
        assert f"POINTS {n_pts} double" in text
