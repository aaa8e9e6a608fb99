import numpy as np
import pytest
import scipy.sparse as sp

from cromflow.femspace import TaylorHoodSpace
from cromflow.geometry import (
    ComponentMesh,
    SideBC,
    generate_empty_mesh,
    generate_obstacle_mesh,
)
from cromflow.weakforms import (
    Triplets,
    assemble_dirichlet_blocks,
    assemble_interface_blocks,
    assemble_pressure_stiffness,
    assemble_viscous,
    build_component_operators,
    penalty_strength,
)

NU = 0.04


@pytest.fixture(scope="module")
def space():
    return TaylorHoodSpace(generate_empty_mesh(4))


@pytest.fixture(scope="module")
def ops(space):
    return build_component_operators(space, NU)


def vec(space, fx, fy):
    return space.interpolate_velocity(lambda xy: np.stack([fx(xy), fy(xy)], axis=-1))


def jacobian_times(adv, u, v):
    """J(u) v from the batched kernel's element Jacobians, scattered."""
    jac = adv.element_jacobians(u[None])[0]           # (t, c, d, a, b)
    dofs = adv.element_dofs                            # (t, c, a)
    out = np.zeros_like(v)
    np.add.at(out, dofs, np.einsum("tcdab,tdb->tca", jac, v[dofs]))
    return out


def unit_square_two_triangles():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    bedges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    return ComponentMesh(verts, tris, bedges, ("B", "R", "T", "L"))


class TestViscous:
    def test_constant_in_kernel(self, space, ops):
        u = vec(space, lambda xy: np.ones(len(xy)), lambda xy: np.ones(len(xy)))
        assert np.abs(ops.K @ u).max() < 1e-13

    def test_linear_energy(self, space):
        K = assemble_viscous(space, 1.0)
        u = vec(space, lambda xy: xy[:, 0], lambda xy: np.zeros(len(xy)))
        assert abs(u @ (K @ u) - 1.0) < 1e-12

    def test_quadratic_energy(self, space, ops):
        u = vec(space, lambda xy: xy[:, 1] ** 2, lambda xy: np.zeros(len(xy)))
        assert abs(u @ (ops.K @ u) - 0.16 / 3.0) < 1e-13

    def test_symmetric_psd(self, space, ops):
        K = ops.K.toarray()
        assert np.abs(K - K.T).max() < 1e-12
        w = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert w.min() > -1e-10


class TestDivergence:
    def test_constant(self, space, ops):
        u = vec(space, lambda xy: np.ones(len(xy)), lambda xy: np.zeros(len(xy)))
        assert np.abs(ops.B @ u).max() < 1e-13

    def test_divergence_free(self, space, ops):
        u = vec(space, lambda xy: xy[:, 0], lambda xy: -xy[:, 1])
        assert np.abs(ops.B @ u).max() < 1e-13

    def test_unit_divergence(self, space, ops):
        u = vec(space, lambda xy: xy[:, 0], lambda xy: np.zeros(len(xy)))
        assert abs(np.ones(space.n_p) @ (ops.B @ u) + 1.0) < 1e-13


class TestPressureStiffness:
    def test_constant_in_kernel(self, space):
        L = assemble_pressure_stiffness(space)
        assert np.abs(L @ np.ones(space.n_p)).max() < 1e-13

    def test_linear_energy(self, space):
        L = assemble_pressure_stiffness(space)
        p = space.interpolate_pressure(lambda xy: 2.0 * xy[:, 0] - xy[:, 1])
        assert abs(p @ (L @ p) - 5.0) < 1e-12

    def test_symmetric_psd(self, space):
        L = assemble_pressure_stiffness(space).toarray()
        assert np.abs(L - L.T).max() < 1e-12
        assert np.linalg.eigvalsh(L).min() > -1e-12


class TestAdvection:
    def test_constant_field(self, space, ops):
        u = vec(space, lambda xy: np.ones(len(xy)), lambda xy: np.zeros(len(xy)))
        assert np.abs(ops.adv.value(u)).max() < 1e-15

    def test_linear_self_pairing(self, space, ops):
        u = vec(space, lambda xy: xy[:, 0], lambda xy: np.zeros(len(xy)))
        assert abs(u @ ops.adv.value(u) - 1.0 / 3.0) < 1e-13

    def test_quadratic_homogeneity(self, space, ops):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(space.n_u)
        assert np.abs(ops.adv.value(2 * u) - 4 * ops.adv.value(u)).max() < 1e-12

    def test_jacobian_exact_quadratic_structure(self, space, ops):
        # advection is quadratic: the forward difference minus J(u)v equals
        # eps * C-bilinear(v, v) exactly, so the second-order term is eps*C(v)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(space.n_u)
        v = rng.standard_normal(space.n_u)
        eps = 1e-6
        fd = (ops.adv.value(u + eps * v) - ops.adv.value(u)) / eps
        jv = jacobian_times(ops.adv, u, v)
        assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) <= 10 * eps
        second_order = eps * ops.adv.value(v)
        # exact up to the subtraction roundoff floor |C| * 1e-16 / eps
        floor = 1e-9 * max(1.0, np.abs(ops.adv.value(u)).max())
        assert np.abs(fd - jv - second_order).max() < floor

    def test_jacobian_vs_central_differences(self, space, ops):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(space.n_u)
        v = rng.standard_normal(space.n_u)
        eps = 1e-6
        fd = (ops.adv.value(u + eps * v) - ops.adv.value(u - eps * v)) / (2 * eps)
        jv = jacobian_times(ops.adv, u, v)
        assert np.abs(fd - jv).max() / np.abs(jv).max() < 1e-8

    @pytest.mark.parametrize("mesh", ["empty", "square"])
    def test_stacked_states_match_one_at_a_time(self, mesh):
        sp_ = TaylorHoodSpace(
            generate_empty_mesh(4) if mesh == "empty" else generate_obstacle_mesh(4, "square", 0.25)
        )
        adv = build_component_operators(sp_, NU).adv
        U = np.random.default_rng(8).standard_normal((3, sp_.n_u))
        values, jacs = adv.element_values(U), adv.element_jacobians(U)
        for k in range(3):
            one_v = adv.element_values(U[k : k + 1])[0]
            one_j = adv.element_jacobians(U[k : k + 1])[0]
            assert np.abs(values[k] - one_v).max() <= 1e-14 * np.abs(one_v).max()
            assert np.abs(jacs[k] - one_j).max() <= 1e-14 * np.abs(one_j).max()

    def test_value_is_the_scattered_element_values(self, space, ops):
        u = np.random.default_rng(9).standard_normal(space.n_u)
        ref = np.zeros(space.n_u)
        np.add.at(ref, ops.adv.element_dofs, ops.adv.element_values(u[None])[0])
        assert np.abs(ops.adv.value(u) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_jacobian_pattern_places_every_element_entry(self, space, ops):
        # the pattern's scatter of the element Jacobians is the COO sum of them
        adv = ops.adv
        u = np.random.default_rng(10).standard_normal(space.n_u)
        jac = adv.element_jacobians(u[None])[0]
        dofs = adv.element_dofs
        rows = np.broadcast_to(dofs[:, :, None, :, None], jac.shape).ravel()
        cols = np.broadcast_to(dofs[:, None, :, None, :], jac.shape).ravel()
        ref = sp.coo_matrix((jac.ravel(), (rows, cols)), shape=(space.n_u,) * 2).tocsc()
        indptr, indices, position = adv.jacobian_pattern
        assert position.shape == (jac.size,)
        data = np.bincount(position, weights=jac.ravel(), minlength=indices.size)
        got = sp.csc_matrix((data, indices, indptr), shape=ref.shape)
        assert got.has_canonical_format
        assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestInterfaceBlocks:
    def test_full_block_symmetry(self, space):
        ib = assemble_interface_blocks(space, space, "H", NU)
        K2 = sp.bmat([[ib.K["mm"], ib.K["mn"]], [ib.K["nm"], ib.K["nn"]]]).toarray()
        assert np.abs(K2 - K2.T).max() < 1e-12

    def test_continuous_field_no_contribution(self, space):
        ib = assemble_interface_blocks(space, space, "H", NU)
        K2 = sp.bmat([[ib.K["mm"], ib.K["mn"]], [ib.K["nm"], ib.K["nn"]]])
        g = lambda xy: np.stack([xy[:, 1], np.zeros(len(xy))], axis=-1)
        um = space.interpolate_velocity(g)
        un = space.interpolate_velocity(lambda xy: g(xy + np.array([1.0, 0.0])))
        uu = np.concatenate([um, un])
        # both test and trial continuous: every term carries a jump factor
        assert abs(uu @ (K2 @ uu)) < 1e-12

    def test_penalty_energy_single_face(self):
        space1 = TaylorHoodSpace(unit_square_two_triangles())
        gamma = 2.5
        ib = assemble_interface_blocks(space1, space1, "H", nu=0.0, gamma=gamma)
        K2 = sp.bmat([[ib.K["mm"], ib.K["mn"]], [ib.K["nm"], ib.K["nn"]]])
        ones_x = space1.interpolate_velocity(
            lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        )
        u = np.concatenate([ones_x, np.zeros_like(ones_x)])
        # unit-length face: penalty energy = gamma / dx * 1
        assert abs(u @ (K2 @ u) - gamma) < 1e-13

    def test_divergence_zero_normal_jump(self, space):
        ib = assemble_interface_blocks(space, space, "H", NU)
        B2 = sp.bmat([[ib.B["mm"], ib.B["mn"]], [ib.B["nm"], ib.B["nn"]]])
        ones_x = space.interpolate_velocity(
            lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        )
        u = np.concatenate([ones_x, ones_x])
        assert np.abs(B2 @ u).max() < 1e-13

    def test_vertical_orientation(self, space):
        ib = assemble_interface_blocks(space, space, "V", NU)
        K2 = sp.bmat([[ib.K["mm"], ib.K["mn"]], [ib.K["nm"], ib.K["nn"]]]).toarray()
        assert np.abs(K2 - K2.T).max() < 1e-12
        g = lambda xy: np.stack([np.zeros(len(xy)), xy[:, 0]], axis=-1)
        um = space.interpolate_velocity(g)
        un = space.interpolate_velocity(lambda xy: g(xy + np.array([0.0, 1.0])))
        uu = np.concatenate([um, un])
        assert abs(uu @ (K2 @ uu)) < 1e-12


class TestTriplets:
    def test_blocks_at_offsets_match_bmat(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((2, 3))
        sparse = sp.random(3, 2, density=0.5, random_state=1, format="csr")
        acc = Triplets((5, 5))
        acc.add(dense, 0, 2)
        acc.add(sparse, 2, 0)
        expected = sp.bmat([[None, dense], [sparse, None]])
        assert np.array_equal(acc.tocsr().toarray(), expected.toarray())

    def test_element_blocks_at_offsets_match_bmat(self):
        # two 2x2 element blocks sharing node 1, placed for both components
        nodes = np.array([[0, 1], [1, 2]])
        vals = np.arange(8.0).reshape(2, 2, 2)
        acc = Triplets((6, 6))
        acc.add_elements(nodes, nodes, vals, ((0, 0), (3, 3)))
        one = np.zeros((3, 3))
        for e in range(2):
            one[np.ix_(nodes[e], nodes[e])] += vals[e]
        expected = sp.bmat([[sp.csr_matrix(one), None], [None, sp.csr_matrix(one)]])
        assert np.array_equal(acc.tocsr().toarray(), expected.toarray())

    def test_duplicates_are_summed(self):
        acc = Triplets((2, 2))
        acc.add(np.eye(2), 0, 0)
        acc.add(sp.csr_matrix(np.eye(2)), 0, 0)
        one = [np.array([[2.0]]), np.array([[3.0]])]
        acc.add_elements(np.array([1]), np.array([0]), one, ((0, 0), (0, 0)))
        mat = acc.tocsr()
        assert np.array_equal(mat.toarray(), [[2.0, 0.0], [5.0, 2.0]])
        # the dense block stores its zeros too, so the pattern is the full 2x2
        assert mat.nnz == 4

    def test_empty_has_shape(self):
        mat = Triplets((3, 4)).tocsr()
        assert mat.shape == (3, 4) and mat.nnz == 0


class TestDirichletBlocks:
    def test_zero_on_boundary(self, space):
        K_di, B_di, _ = assemble_dirichlet_blocks(space, "B", NU, penalty_strength(NU))
        # bubble-like field vanishing on the bottom boundary
        u = vec(space, lambda xy: xy[:, 1] * (1 - xy[:, 1]), lambda xy: np.zeros(len(xy)))
        # the symmetrization and penalty terms vanish; only the consistency
        # column survives, so the quadratic form with a boundary-zero test is 0
        assert abs(u @ (K_di @ u)) < 1e-13

    def test_penalty_row_sum(self):
        space = TaylorHoodSpace(generate_empty_mesh(4))
        gamma = 4 * NU
        K_di, _, _ = assemble_dirichlet_blocks(space, "B", nu=0.0, gamma=gamma)
        ones_x = space.interpolate_velocity(
            lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        )
        h = 0.25
        # penalty energy per unit boundary length is gamma / h
        assert abs(ones_x @ (K_di @ ones_x) - gamma / h) < 1e-13

    def test_divergence_boundary_block(self, space):
        _, B_di, _ = assemble_dirichlet_blocks(space, "B", NU, penalty_strength(NU))
        u = vec(space, lambda xy: np.zeros(len(xy)), lambda xy: np.ones(len(xy)))
        ones_p = np.ones(space.n_p)
        # n = (0, -1) on the bottom: integral of p n.u = -1 * side length
        assert abs(ones_p @ (B_di @ u) + 1.0) < 1e-13

    def test_obstacle_blocks_exist(self):
        space = TaylorHoodSpace(generate_obstacle_mesh(4, "square", 0.25))
        ops = build_component_operators(space, NU)
        assert "O" in ops.K_di
        assert ops.K_di["O"].nnz > 0

    @pytest.mark.parametrize("shape,half_width", [("square", 0.25), ("circle", 0.2)])
    def test_only_the_sides_have_loads(self, shape, half_width):
        # the obstacle wall is no-slip: Nitsche blocks, but no data to load
        space = TaylorHoodSpace(generate_obstacle_mesh(4, shape, half_width))
        ops = build_component_operators(space, NU)
        assert list(ops.K_di) == list(ops.B_di) == ["L", "R", "B", "T", "O"]
        assert list(ops.loads) == ["L", "R", "B", "T"]


class TestRhs:
    def test_zero_data_zero_rhs(self, ops):
        zero = lambda xy: np.zeros_like(xy)
        L = ops.forcing_load(zero)
        loads = [ops.loads[s].dirichlet_loads(zero) for s in "LRBT"]
        L_u = sum(lu for lu, _ in loads)
        L_p = sum(lp for _, lp in loads)
        assert np.abs(L).max() == 0.0
        assert np.abs(L_u).max() < 1e-15
        assert np.abs(L_p).max() < 1e-15

    def test_pressure_load_left_inflow(self, ops, space):
        g = lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        _, L_p = ops.loads["L"].dirichlet_loads(g)
        ones_p = np.ones(space.n_p)
        # n = (-1, 0) on the left: integral of p n.g = -1 * side length
        assert abs(ones_p @ L_p + 1.0) < 1e-13

    def test_forcing_load_partition(self, ops, space):
        f = lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        L = ops.forcing_load(f)
        # sum over x-loads = area of the component
        assert abs(L[: space.n_scalar].sum() - 1.0) < 1e-13
        assert np.abs(L[space.n_scalar :]).max() < 1e-15

    def test_neumann_side_takes_no_data(self):
        # a neumann side is homogeneous outflow: a traction is refused
        g = lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        with pytest.raises(ValueError, match="homogeneous outflow"):
            SideBC("neumann", g)
        assert SideBC("neumann").velocity is None


class TestConsistency:
    def test_component_blocks_consistent_for_exact_field(self, space):
        # interpolating a field that satisfies u = g on the boundary must make
        # the Nitsche terms cancel against the boundary loads
        ops = build_component_operators(space, NU)
        g = lambda xy: np.stack(
            [xy[:, 1] * (1 - xy[:, 1]), np.zeros(len(xy))], axis=-1
        )
        u = space.interpolate_velocity(g)
        total = ops.K @ u
        for side in "LRBT":
            total = total + ops.K_di[side] @ u
            lu, _ = ops.loads[side].dirichlet_loads(g)
            total = total - lu
        # remaining term is the consistent weak Laplacian of u
        ref = np.zeros(space.n_u)
        # -nu * d2/dy2 (y - y^2) = 2 nu against P2 test functions
        f = lambda xy: np.stack([2 * NU * np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        ref = ops.forcing_load(f)
        assert np.abs(total - ref).max() < 1e-12
