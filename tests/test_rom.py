import weakref

import numpy as np
import pytest

from cromflow import fom, rom
from cromflow.blocklu import BlockLU, CellBlockMatrix, nested_dissection
from cromflow.eqp import EqpRule
from cromflow.femspace import TaylorHoodSpace
from cromflow.fom import assemble_global, solve_newton
from cromflow.geometry import GridConfig, SideBC, generate_empty_mesh
from cromflow.harness import ExperimentConfig, build_component_set
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

from test_eqp import oracle_jacobian, oracle_value

NU = 0.04
NEWTON_PHASES = ("jacobian", "saddle", "factorization", "solve", "residual")


def assert_phases_within_total(report):
    # disjoint intervals of one clock; the slack covers the rounding of the sum
    parts = sum(report.wall_times[k] for k in NEWTON_PHASES)
    assert parts <= report.wall_times["total"] + 1e-9


def assert_singular_solve_reported(system):
    uh, ph, report = solve_rom_newton(system)
    assert not report.converged
    assert report.newton_iterations == 0
    assert "singular" in report.message
    assert report.step_norms == []
    assert report.fill_nnz == []
    assert not np.any(uh) and not np.any(ph)
    assert set(report.wall_times) == {"assembly", "total", *NEWTON_PHASES}
    assert_phases_within_total(report)


def assert_same_solve(first, second):
    """Two solves' (u, p, report) agree bit for bit, wall times aside."""
    for a, b in zip(first[:2], second[:2], strict=True):
        assert np.array_equal(a, b)
    for key in (
        "newton_iterations",
        "residual_history",
        "step_norms",
        "fill_nnz",
        "reused_lu",
        "gmres_iterations",
        "converged",
        "message",
    ):
        assert getattr(first[2], key) == getattr(second[2], key), key


def route_kept_lu(monkeypatch, kept):
    """Route every ``fom.fgmres`` call on a kept LU, one it has run on
    before, to ``kept(fgmres, mat, lu, b, atol)``; a fresh LU runs the real
    one.  The LUs are held by weak reference only."""
    fgmres, seen = fom.fgmres, weakref.WeakSet()

    def routed(mat, lu, b, atol, *args):
        if lu in seen:
            return kept(fgmres, mat, lu, b, atol, *args)
        seen.add(lu)
        return fgmres(mat, lu, b, atol, *args)

    monkeypatch.setattr(fom, "fgmres", routed)


def fail_on_kept_lu(fgmres, mat, lu, b, atol, *args):
    """Reports failure without iterating: every Newton step factors."""
    return None, 0, float(np.linalg.norm(b))


def residual_blocks(system, u, p):
    """Momentum and continuity residuals of a system without a multiplier."""
    return system._split(system.residual(np.concatenate([u, p])))


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


def random_basis(space, r_u, r_p, seed=0, pressure_penalty=0.0, name="empty"):
    rng = np.random.default_rng(seed)
    pu = np.linalg.qr(rng.standard_normal((space.n_u, r_u)))[0]
    pp = np.linalg.qr(rng.standard_normal((space.n_p, r_p)))[0]
    return PodBasis(
        name, pu, pp, np.ones(r_u), np.ones(r_p), r_u, r_p, 0, pressure_penalty
    )


def sampled_rule(name, ops, phi, seed):
    """EQP rule on a random tenth of the quadrature points, random weights."""
    rng = np.random.default_rng(seed)
    elem, loc = ops.adv.point_ids()
    sel = np.sort(rng.choice(elem.size, elem.size // 10, replace=False))
    vals, grads = ops.adv.basis_at_quad(phi)
    weights = rng.uniform(0.5, 1.5, sel.size) * ops.adv.quad_weights[sel]
    return EqpRule(
        name, elem[sel], loc[sel], weights, 1.0, 0.0, phi.shape[1], vals[sel], grads[sel]
    )


@pytest.fixture(scope="module")
def mixed_3x3():
    """3x3 grid holding all three component types, with a different basis
    size per type and both advection backends' data."""
    parts = build_component_set(ExperimentConfig(n_per_side=4))
    sizes = {"empty": 7, "square": 5, "circle": 6}
    bases = {
        name: random_basis(parts.spaces[name], r, 3, seed=i, name=name)
        for i, (name, r) in enumerate(sizes.items())
    }
    reduced, riface = project_linear(parts.operators, parts.interface_blocks, bases)
    for i, (name, red) in enumerate(reduced.items()):
        phi = bases[name].phi_u
        red.tensor = build_advection_tensor(parts.operators[name], phi)
        red.eqp_rule = sampled_rule(name, parts.operators[name], phi, seed=10 + i)
    cells = [
        ["empty", "square", "circle"],
        ["circle", "empty", "square"],
        ["square", "circle", "empty"],
    ]
    grid = GridConfig(3, 3, cells, NU, channel_bc())
    return grid, reduced, riface


def oracle_kernels(backend):
    """Per-state reference evaluations of one backend: (value, jacobian)."""
    if backend == "tensorial":
        return (
            lambda red, uh: (red.tensor @ uh) @ uh,
            lambda red, uh: red.tensor @ uh + np.einsum("ijl,j->il", red.tensor, uh),
        )
    return (
        lambda red, uh: oracle_value(red.eqp_rule, uh),
        lambda red, uh: oracle_jacobian(red.eqp_rule, uh),
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
        all_dirichlet = {s: SideBC("dirichlet", channel_profile) for s in "LRBT"}
        for outflow, bc in ((True, channel_bc()), (False, all_dirichlet)):
            grid = GridConfig(1, 2, [["empty", "empty"]], NU, bc)
            fom_sys = assemble_global(grid, ops, blocks)
            rom_sys = assemble_global_rom(grid, reduced, riface)
            assert rom_sys.pressure_constraint == fom_sys.pressure_constraint == (not outflow)
            assert rom_sys.n_dof == fom_sys.n_dof
            n, n_p = rom_sys.n_u, rom_sys.n_p
            saddle = rom_sys.saddle.toarray()
            fom_saddle = fom_sys.saddle.toarray()
            K, B = fom_saddle[:n, :n], fom_saddle[n : n + n_p, :n]
            assert np.abs(saddle[:n, :n] - K).max() < 1e-12
            assert np.abs(saddle[n : n + n_p, :n] - B).max() < 1e-12
            assert np.abs(saddle[:n, n : n + n_p] - B.T).max() < 1e-12
            # the multiplier's row and column included
            assert np.abs(saddle - fom_saddle).max() < 1e-12
            assert np.abs(rom_sys.rhs - fom_sys.rhs).max() < 1e-12
            x = np.random.default_rng(5).standard_normal(rom_sys.n_dof)
            r_fom = fom_sys.residual(x)
            assert np.abs(rom_sys.residual(x) - r_fom).max() < 1e-12 * np.abs(r_fom).max()
            if not outflow:
                assert r_fom[-1] != 0.0  # the multiplier's row reads the pressures

    def test_divergence_sigma_min_is_that_of_the_divergence_block(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 8, 3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        bc = {s: SideBC("dirichlet", channel_profile) for s in "LRBT"}
        grid = GridConfig(1, 2, [["empty", "empty"]], NU, bc)
        fom_sys = assemble_global(grid, ops, blocks)
        rom_sys = assemble_global_rom(grid, reduced, riface)
        assert rom_sys.pressure_constraint
        # the reduced divergence block, projected from the full-order one
        n, n_p = fom_sys.n_u, fom_sys.n_p
        B = fom_sys.saddle[n : n + n_p, :n].toarray()
        pu = np.kron(np.eye(2), basis.phi_u)
        pp = np.kron(np.eye(2), basis.phi_p)
        sigma = np.linalg.svd(pp.T @ B @ pu, compute_uv=False)[-1]
        assert sigma > 1e-3
        assert abs(rom_sys.divergence_sigma_min() - sigma) <= 1e-10 * sigma

    def test_missing_backend_data_raises(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 5, 2)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        with pytest.raises(ValueError, match="tensor"):
            assemble_global_rom(grid, reduced, riface, "tensorial")
        with pytest.raises(ValueError, match="rule"):
            assemble_global_rom(grid, reduced, riface, "eqp")

    def test_mismatched_tensor_raises(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 5, 2)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u[:, :4])
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        with pytest.raises(ValueError, match="'empty'.*tensor of shape"):
            assemble_global_rom(grid, reduced, riface, "tensorial")

    def test_rule_of_another_basis_raises(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 5, 2)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].eqp_rule = sampled_rule("empty", ops["empty"], basis.phi_u[:, :4], 0)
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        with pytest.raises(ValueError, match="'empty'.*basis of 4 velocity modes"):
            assemble_global_rom(grid, reduced, riface, "eqp")

    def test_body_force_refused(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 5, 2)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        forcing = lambda xy: np.ones((len(xy), 2))
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc(), forcing)
        with pytest.raises(ValueError, match="reduced model has no body-force load"):
            assemble_global_rom(grid, reduced, riface, "tensorial")


class TestStackedAdvection:
    @pytest.mark.parametrize("backend", ["tensorial", "eqp"])
    def test_matches_per_subdomain_oracle(self, mixed_3x3, backend):
        grid, reduced, riface = mixed_3x3
        system = assemble_global_rom(grid, reduced, riface, backend)
        value_of, jacobian_of = oracle_kernels(backend)
        uh = np.random.default_rng(14).standard_normal(system.n_u)
        ref_value = np.zeros(system.n_u)
        ref_blocks = []
        for m in range(grid.n_subdomains):
            red, sl = system.local_of(m), system.slice_u(m)
            ref_value[sl] = value_of(red, uh[sl])
            ref_blocks.append(jacobian_of(red, uh[sl]))
        got_blocks = system.advection_jacobian(uh)
        assert len(got_blocks) == grid.n_subdomains
        value = system.advection_value(uh)
        assert np.linalg.norm(value - ref_value) <= 1e-12 * np.linalg.norm(ref_value)
        for got, ref in zip(got_blocks, ref_blocks):
            assert got.shape == ref.shape
        got_jac = np.concatenate([b.ravel() for b in got_blocks])
        ref_jac = np.concatenate([b.ravel() for b in ref_blocks])
        assert np.linalg.norm(got_jac - ref_jac) <= 1e-12 * np.linalg.norm(ref_jac)

    @pytest.mark.parametrize("backend", ["tensorial", "eqp"])
    def test_one_kernel_call_per_component_type_per_newton_step(
        self, mixed_3x3, backend, monkeypatch
    ):
        # the benchmark's tracer attributes kernel time through these names
        grid, reduced, riface = mixed_3x3
        calls = []
        for name in ("tensor_jacobian", "eqp_advection_jacobian"):
            kernel = getattr(rom, name)

            def counted(*args, kernel=kernel, name=name):
                calls.append(name)
                return kernel(*args)

            monkeypatch.setattr(rom, name, counted)
        system = assemble_global_rom(grid, reduced, riface, backend)
        _, _, report = solve_rom_newton(system, max_iter=2)
        assert report.newton_iterations == 2
        expected = "tensor_jacobian" if backend == "tensorial" else "eqp_advection_jacobian"
        assert calls == [expected] * 3 * report.newton_iterations


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
        keys = {"assembly", "total", *NEWTON_PHASES}
        assert set(rep_f.wall_times) == set(rep_r.wall_times) == keys
        for rep in (rep_f, rep_r):
            assert len(rep.step_norms) == rep.newton_iterations
            # one LU fill per Newton factorization, and a step either
            # factors or reuses the latest LU
            assert len(rep.fill_nnz) == rep.newton_iterations - sum(rep.reused_lu)
            assert len(rep.reused_lu) == len(rep.gmres_iterations) == rep.newton_iterations
            assert all(type(k) is int and k > 0 for k in rep.fill_nnz)
        assert rep_r.newton_iterations > 0
        assert rep_r.wall_times["factorization"] > 0.0
        assert all(rep_r.wall_times[k] > 0.0 for k in NEWTON_PHASES)
        assert_phases_within_total(rep_f)
        assert_phases_within_total(rep_r)

    @pytest.mark.parametrize("backend", ["tensorial", "eqp"])
    def test_two_solves_on_one_system_are_identical(self, mixed_3x3, backend):
        grid, reduced, riface = mixed_3x3
        system = assemble_global_rom(grid, reduced, riface, backend)
        first = solve_rom_newton(system)
        assert first[2].newton_iterations > 0
        assert_same_solve(first, solve_rom_newton(system))

    @pytest.mark.parametrize("backend", ["tensorial", "eqp"])
    @pytest.mark.parametrize("outflow", [True, False], ids=["outflow", "all-dirichlet"])
    def test_float32_factorization_matches_float64(self, mixed_3x3, backend, outflow, monkeypatch):
        grid, reduced, riface = mixed_3x3
        if not outflow:
            bc = {s: SideBC("dirichlet", channel_profile) for s in "LRBT"}
            grid = GridConfig(3, 3, grid.cell_component, NU, bc)
        system = assemble_global_rom(grid, reduced, riface, backend)
        uh, ph, report = solve_rom_newton(system)
        # the reference factors the same blocks in float64
        monkeypatch.setattr(rom.GlobalRomSystem, "factorize", lambda self, mat, groups: BlockLU(mat, groups))
        uh_ref, ph_ref, ref = solve_rom_newton(system)
        assert report.converged and ref.converged
        assert report.newton_iterations == ref.newton_iterations
        assert len(report.fill_nnz) == len(ref.fill_nnz)
        x, x_ref = np.concatenate([uh, ph]), np.concatenate([uh_ref, ph_ref])
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_lu_reuse_matches_refactoring_every_step(self, parts, monkeypatch):
        space, ops, blocks = parts
        basis = random_basis(space, 8, 3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 2, [["empty", "empty"]], NU, channel_bc())
        uh, ph, report = solve_rom_newton(assemble_global_rom(grid, reduced, riface))
        # FGMRES fails on every kept LU: every step factors
        route_kept_lu(monkeypatch, fail_on_kept_lu)
        uh_ref, ph_ref, ref = solve_rom_newton(assemble_global_rom(grid, reduced, riface))
        assert report.converged and ref.converged
        assert report.newton_iterations == ref.newton_iterations
        x, x_ref = np.concatenate([uh, ph]), np.concatenate([uh_ref, ph_ref])
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert any(report.reused_lu) and not any(ref.reused_lu)
        assert len(report.fill_nnz) < len(ref.fill_nnz) == ref.newton_iterations
        # every step ran FGMRES, on the kept LU or on its own
        assert all(k >= 1 for k in report.gmres_iterations)
        assert all(k >= 1 for k in ref.gmres_iterations)

    def test_singular_factorization_is_reported(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 8, 3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 2, [["empty", "empty"]], NU, channel_bc())
        system = assemble_global_rom(grid, reduced, riface)
        # a velocity mode of the first cell that no equation sees: the first
        # pivot block has a zero row and column at the zero state
        for (m, n), blk in system.saddle.blocks.items():
            if m == 0:
                blk[0, :] = 0.0
            if n == 0:
                blk[:, 0] = 0.0
        assert_singular_solve_reported(system)

    def test_singular_multiplier_pivot_is_reported(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 8, 3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        bc = {s: SideBC("dirichlet", channel_profile) for s in "LRBT"}
        grid = GridConfig(1, 2, [["empty", "empty"]], NU, bc)
        system = assemble_global_rom(grid, reduced, riface)
        # a multiplier that constrains nothing: its pivot, the last, is zero
        last = grid.n_subdomains
        for (m, n), blk in system.saddle.blocks.items():
            if last in (m, n):
                blk[:] = 0.0
        assert_singular_solve_reported(system)

    def test_max_iter_reached_is_explained(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 8, 3)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(1, 2, [["empty", "empty"]], NU, channel_bc())
        system = assemble_global_rom(grid, reduced, riface)
        uh, ph, report = solve_rom_newton(system, tol_rel=1e-14, tol_abs=1e-16, max_iter=1)
        assert not report.converged
        assert report.newton_iterations == 1
        residual = report.residual_history[-1]
        assert report.message == f"no convergence in 1 iterations (residual {residual:.3e})"

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
            r_u, r_p = residual_blocks(fom_sys, lifted.u, lifted.p)
            pr_u, pr_p = project_state(rom_sys, r_u, r_p)
            rr_u, rr_p = residual_blocks(rom_sys, uh, ph)
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
        n = rom_sys.n_u
        C = -rom_sys.saddle.toarray()[n:, n:]
        assert np.abs(C - np.kron(np.eye(4), block)).max() < 1e-15
        rng = np.random.default_rng(3)
        uh = rng.standard_normal(rom_sys.n_u)
        ph = rng.standard_normal(rom_sys.n_p)
        lifted = lift(rom_sys, uh, ph)
        pr_u, pr_p = project_state(rom_sys, *residual_blocks(fom_sys, lifted.u, lifted.p))
        rr_u, rr_p = residual_blocks(rom_sys, uh, ph)
        assert np.abs(rr_u - pr_u).max() < 1e-10
        assert np.abs(rr_p - (pr_p - C @ ph)).max() < 1e-10

    def test_zero_penalty_leaves_pressure_block_empty(self, parts):
        space, ops, blocks = parts
        basis = random_basis(space, 9, 4, seed=2)
        reduced, riface = project_linear(ops, blocks, {"empty": basis})
        reduced["empty"].tensor = build_advection_tensor(ops["empty"], basis.phi_u)
        grid = GridConfig(2, 2, [["empty"] * 2] * 2, NU, channel_bc())
        rom_sys = assemble_global_rom(grid, reduced, riface)
        r_u = basis.phi_u.shape[1]
        for blk in rom_sys.saddle.blocks.values():
            assert not np.any(blk[r_u:, r_u:])
        n = rom_sys.n_u
        assert not np.any(rom_sys.saddle.toarray()[n:, n:])


class TestBlockFactorization:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 2), (3, 3), (4, 7), (6, 3)])
    def test_nested_dissection_partitions_the_grid(self, shape):
        rows, cols = shape
        groups = nested_dissection(rows, cols)
        assert sorted(m for g in groups for m in g) == list(range(rows * cols))
        for g in groups:
            # a leaf of at most 2 cells, or a separator: one line of cells
            one_line = len({m // cols for m in g}) == 1 or len({m % cols for m in g}) == 1
            assert len(g) <= 2 or one_line

    @pytest.mark.parametrize("backend", ["tensorial", "eqp"])
    @pytest.mark.parametrize("outflow", [True, False], ids=["outflow", "all-dirichlet"])
    def test_block_solve_matches_dense_solve(self, mixed_3x3, backend, outflow):
        grid, reduced, riface = mixed_3x3
        if not outflow:
            bc = {s: SideBC("dirichlet", channel_profile) for s in "LRBT"}
            grid = GridConfig(3, 3, grid.cell_component, NU, bc)
        system = assemble_global_rom(grid, reduced, riface, backend)
        assert system.pressure_constraint == (not outflow)
        rng = np.random.default_rng(21)
        adv = system.advection_jacobian(5 * rng.standard_normal(system.n_u))
        # the dense Newton matrix: the linear saddle matrix, the mean-pressure
        # border included, and the Jacobian on the velocity diagonal
        dense = system.saddle.toarray()
        assert dense.shape == (system.n_dof, system.n_dof)
        for m, jac in enumerate(adv):
            dense[system.slice_u(m), system.slice_u(m)] += jac
        mat = system.newton_matrix(adv)
        assert np.array_equal(mat.toarray(), dense)
        b = rng.standard_normal(system.n_dof)
        groups = system.start()[1]
        ref = np.linalg.solve(dense, b)
        # the elimination in float64, on the float64 blocks
        x = BlockLU(mat, groups).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        # the Newton step: the system's float32 factorization, refined by FGMRES
        lu = system.factorize(mat, groups)
        assert lu.dtype == np.float32
        step, iterations, res = fom.fgmres(mat, lu, b, 1e-13 * np.linalg.norm(b))
        assert step is not None and 1 < iterations < fom._GMRES_RESTART
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)
        # the factorizations leave the matrix they factor unchanged
        assert np.array_equal(mat.toarray(), dense)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_factors_keep_the_dtype_of_the_blocks(self, mixed_3x3, dtype):
        grid, reduced, riface = mixed_3x3
        system = assemble_global_rom(grid, reduced, riface)
        mat = system.newton_matrix(system.advection_jacobian(np.ones(system.n_u)))
        blocks = {key: blk.astype(dtype) for key, blk in mat.blocks.items()}
        lu = BlockLU(CellBlockMatrix(mat.nodes, blocks), system.start()[1])
        assert lu.dtype == dtype
        # every pivot LU and every stored coupling, not only the input
        for (factor, _), _, _, lower, upper in lu._steps:
            assert factor.dtype == lower.dtype == upper.dtype == dtype
        b = np.random.default_rng(5).standard_normal(system.n_dof)
        assert lu.solve(b).dtype == np.float64

    @pytest.mark.parametrize("backend", ["tensorial", "eqp"])
    def test_float32_factors_match_factoring_a_float32_copy(self, mixed_3x3, backend):
        grid, reduced, riface = mixed_3x3
        system = assemble_global_rom(grid, reduced, riface, backend)
        rng = np.random.default_rng(23)
        mat = system.newton_matrix(system.advection_jacobian(5 * rng.standard_normal(system.n_u)))
        groups = system.start()[1]
        # the blocks are rounded as they are gathered or updated, as a
        # float32 copy of the whole matrix would round them
        lu = system.factorize(mat, groups)
        blocks = {key: blk.astype(np.float32) for key, blk in mat.blocks.items()}
        ref = BlockLU(CellBlockMatrix(mat.nodes, blocks), groups)
        assert all(blk.dtype == np.float64 for blk in mat.blocks.values())
        assert len(lu._steps) == len(ref._steps)
        for step, ref_step in zip(lu._steps, ref._steps):
            (factor, piv), *rest = step
            (ref_factor, ref_piv), *ref_rest = ref_step
            assert factor.dtype == np.float32
            assert np.array_equal(factor, ref_factor) and np.array_equal(piv, ref_piv)
            assert all(np.array_equal(a, b) for a, b in zip(rest, ref_rest))

    def test_nnz_counts_the_stored_factors(self, mixed_3x3):
        grid, reduced, riface = mixed_3x3
        system = assemble_global_rom(grid, reduced, riface)
        mat = system.newton_matrix(system.advection_jacobian(np.zeros(system.n_u)))
        # one pivot group of every cell: a dense LU, nothing beside it
        assert BlockLU(mat, [list(range(grid.n_subdomains))]).nnz == system.n_dof**2
        # nested dissection stores the pivot LUs and their couplings: more
        # than the pivot blocks, less than the dense factors
        groups = nested_dissection(grid.rows, grid.cols)
        sizes = [sum(len(mat.nodes[m]) for m in g) for g in groups]
        lu = system.factorize(mat, system.start()[1])
        assert sum(k * k for k in sizes) < lu.nnz < system.n_dof**2


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

        lifted = LiftedSolution(u.copy(), p.copy())
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
        lifted = LiftedSolution(1.01 * u, 1.01 * p)
        errs = relative_errors(fom_sys, u, p, lifted)
        assert errs["velocity_rel_l2"] == pytest.approx(0.01, rel=1e-9)
        assert errs["pressure_rel_l2"] == pytest.approx(0.01, rel=1e-9)

    def test_lifted_state_of_another_length_rejected(self, parts):
        from cromflow.rom import LiftedSolution

        _, ops, blocks = parts
        grid = GridConfig(1, 1, [["empty"]], NU, channel_bc())
        fom_sys = assemble_global(grid, ops, blocks)
        u, p = np.ones(fom_sys.n_u), np.ones(fom_sys.n_p)
        for lifted in (LiftedSolution(u[:-1], p), LiftedSolution(u, np.ones(fom_sys.n_p + 2))):
            with pytest.raises(ValueError, match="lifted state of .* the FOM system has"):
                relative_errors(fom_sys, u, p, lifted)


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
