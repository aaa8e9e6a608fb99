import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from cromflow._binio import read_arrays, write_arrays
from cromflow.femspace import TaylorHoodSpace
from cromflow.geometry import ComponentMesh, generate_empty_mesh
from cromflow.reduction import (
    _TENSOR_SLICE,
    BASIS_MAGIC,
    PodBasis,
    SnapshotSet,
    balanced_pressure_penalty,
    build_advection_tensor,
    build_pod_basis,
    enrich_and_orthonormalize,
    load_basis,
    load_tensor,
    missing_energy,
    pod,
    project_component,
    project_interface,
    save_basis,
    save_tensor,
    supremizers,
    tensor_contract,
    tensor_jacobian,
)
from cromflow.weakforms import assemble_interface_blocks, build_component_operators

NU = 0.04


def one_shot_tensor(ops, phi):
    """The advection tensor from the whole intermediate D[(q, c), (j, k)]."""
    vals, grads = ops.adv.basis_at_quad(phi)
    r = phi.shape[1]
    d = np.einsum("qjd,qkcd->qcjk", vals, grads)
    vw = (ops.adv.quad_weights[:, None, None] * vals).transpose(0, 2, 1).reshape(-1, r)
    return (vw.T @ d.reshape(vw.shape[0], r * r)).reshape(r, r, r)


def rewrite_arrays(path, magic, **arrays):
    """Replace arrays of a saved artifact; the container stays well formed."""
    data = read_arrays(path, magic, {}, extra=True)
    data.update(arrays)
    write_arrays(path, magic, data)


@pytest.fixture(scope="module")
def space():
    return TaylorHoodSpace(generate_empty_mesh(4))


@pytest.fixture(scope="module")
def ops(space):
    return build_component_operators(space, NU)


class TestPod:
    def test_repeated_column(self):
        U = np.zeros((5, 2))
        U[0] = 1.0
        phi, sigma = pod(U)
        assert phi.shape == (5, 1)
        assert abs(abs(phi[0, 0]) - 1.0) < 1e-14
        assert abs(sigma[0] - np.sqrt(2.0)) < 1e-14

    def test_orthogonal_columns(self):
        U = np.zeros((6, 2))
        U[0, 0] = 3.0
        U[1, 1] = 1.0
        phi, sigma = pod(U)
        assert np.allclose(sigma, [3.0, 1.0])

    def test_random_vs_eigen_oracle(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((50, 10))
        phi, sigma = pod(A)
        assert np.abs(phi.T @ phi - np.eye(phi.shape[1])).max() < 1e-12
        lam = np.linalg.eigvalsh(A.T @ A)[::-1]
        assert np.abs(sigma - np.sqrt(np.maximum(lam, 0.0))).max() < 1e-9 * sigma[0]

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((40, 8))
        import scipy.linalg as sla

        phi, sigma = pod(A)
        _, _, vt = sla.svd(A, full_matrices=False)
        assert np.linalg.norm(A - phi @ np.diag(sigma) @ vt, "fro") <= 1e-10 * np.linalg.norm(A, "fro")

    def test_zero_matrix(self):
        phi, sigma = pod(np.zeros((7, 3)))
        assert phi.shape == (7, 0)
        assert sigma.size == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pod(np.zeros((5, 0)))

    def test_reconstruction_error_monotone_in_R(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((30, 12)) @ np.diag(np.geomspace(1, 1e-4, 12))
        phi, sigma = pod(A)
        errs = []
        for R in range(1, phi.shape[1] + 1):
            P = phi[:, :R]
            errs.append(np.linalg.norm(A - P @ (P.T @ A), "fro"))
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


class TestMissingEnergy:
    def test_simple(self):
        assert missing_energy(np.array([3.0, 1.0]), 1) == pytest.approx(0.25)

    def test_extremes(self):
        s = np.array([2.0, 1.0, 0.5])
        assert missing_energy(s, len(s)) == 0.0
        assert missing_energy(s, 0) == 1.0

    def test_monotone_in_R(self):
        s = np.geomspace(1, 1e-6, 15)
        vals = [missing_energy(s, R) for R in range(len(s) + 1)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            missing_energy(np.array([1.0]), 2)
        with pytest.raises(ValueError):
            missing_energy(np.array([1.0]), -1)


class TestSupremizers:
    def test_zero_mode(self, ops):
        z = supremizers(ops.B, np.zeros((ops.space.n_p, 1)), 1)
        assert np.abs(z).max() == 0.0

    def test_single_triangle_hand_assembly(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        bed = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        mesh = ComponentMesh(verts, tris, bed, ("B", "R", "T", "L"))
        space = TaylorHoodSpace(mesh)
        ops = build_component_operators(space, NU)
        # oracle: exact barycentric integration of -psi_i * d(phi_b)/dc on
        # each triangle, via a dense high-order tensor Gauss rule
        from numpy.polynomial.legendre import leggauss

        xg, wg = leggauss(10)
        xg = 0.5 * (xg + 1)
        wg = 0.5 * wg
        B_hand = np.zeros((space.n_p, space.n_u))
        from cromflow.femspace import p1_shape, p2_grad

        for t in range(2):
            tv = mesh.vertices[mesh.triangles[t]]
            jac = np.stack([tv[1] - tv[0], tv[2] - tv[0]], axis=-1)
            det = abs(np.linalg.det(jac))
            inv = np.linalg.inv(jac)
            for xi, wi in zip(xg, wg):
                for eta, wj in zip(xg, wg):
                    r, s = xi, eta * (1 - xi)
                    w = wi * wj * (1 - xi) * det
                    p1 = p1_shape(np.array([r, s]))
                    g2 = p2_grad(np.array([r, s])) @ inv
                    for i, vi in enumerate(mesh.triangles[t]):
                        for b, nb in enumerate(space.tri_nodes[t]):
                            for c in range(2):
                                B_hand[vi, nb + c * space.n_scalar] -= (
                                    w * p1[i] * g2[b, c]
                                )
        assert np.abs(ops.B.toarray() - B_hand).max() < 1e-12
        # supremizer column equals the hand-assembled B^T column
        q = np.zeros(space.n_p)
        q[2] = 1.0
        z = supremizers(ops.B, q[:, None], 1)
        assert np.abs(z[:, 0] - B_hand.T @ q).max() < 1e-12

    def test_pressure_pairing_nonsingular(self, ops):
        rng = np.random.default_rng(3)
        phi_p = np.linalg.qr(rng.standard_normal((ops.space.n_p, 6)))[0]
        z = supremizers(ops.B, phi_p, 6)
        pairing = phi_p.T @ (ops.B @ z)
        sv = np.linalg.svd(pairing, compute_uv=False)
        assert sv.min() > 0.0


class TestEnrichment:
    def test_spanned_column_dropped(self):
        phi = np.eye(4)[:, :2]
        cand = np.array([[1.0], [0.0], [0.0], [0.0]])
        with pytest.warns(UserWarning, match="dropped"):
            out, kept = enrich_and_orthonormalize(phi, cand)
        assert kept == 0
        assert out.shape == (4, 2)

    def test_new_direction_added(self):
        phi = np.eye(4)[:, :1]
        cand = np.array([[1.0], [1.0], [0.0], [0.0]])
        out, kept = enrich_and_orthonormalize(phi, cand)
        assert kept == 1
        assert np.allclose(out[:, 0], [1, 0, 0, 0])
        assert np.allclose(np.abs(out[:, 1]), [0, 1, 0, 0])

    def test_orthonormal_output(self):
        rng = np.random.default_rng(4)
        phi = np.linalg.qr(rng.standard_normal((40, 6)))[0]
        cand = rng.standard_normal((40, 8))
        out, kept = enrich_and_orthonormalize(phi, cand)
        assert kept == 8
        assert np.abs(out.T @ out - np.eye(out.shape[1])).max() < 1e-10
        assert np.abs(out[:, :6] - phi).max() == 0.0


class TestPressurePenalty:
    def snapshots(self, space, n, seed):
        rng = np.random.default_rng(seed)
        return SnapshotSet(
            "empty", rng.standard_normal((space.n_u, n)), rng.standard_normal((space.n_p, n))
        )

    def test_zero_when_basis_spans_snapshots(self, ops, space):
        snaps = self.snapshots(space, 6, 20)
        basis = build_pod_basis(snaps, ops, 6, 3, Z=0)
        assert basis.pressure_penalty < 1e-25

    def test_energy_ratio(self, ops, space):
        snaps = self.snapshots(space, 8, 21)
        phi = np.linalg.qr(snaps.U[:, :3])[0]
        E = snaps.U - phi @ (phi.T @ snaps.U)
        missed = np.trace(E.T @ (ops.K @ E))
        gradient = np.trace(snaps.P.T @ (ops.pressure_stiffness @ snaps.P))
        eps = balanced_pressure_penalty(snaps, ops, phi)
        assert eps > 0.0
        assert eps == pytest.approx(missed / gradient, rel=1e-12)

    def test_same_for_every_supremizer_count(self, ops, space):
        snaps = self.snapshots(space, 10, 22)
        eps = {z: build_pod_basis(snaps, ops, 4, 4, Z=z).pressure_penalty for z in (0, 2, 4)}
        assert eps[0] > 0.0
        assert eps[0] == eps[2] == eps[4]

    def test_projected_block(self, ops, space):
        snaps = self.snapshots(space, 10, 23)
        basis = build_pod_basis(snaps, ops, 4, 3)
        red = project_component(ops, basis)
        pp = basis.phi_p
        expected = basis.pressure_penalty * pp.T @ ops.pressure_stiffness.toarray() @ pp
        assert np.abs(red.C - expected).max() < 1e-15
        assert np.linalg.eigvalsh(red.C).min() > -1e-15


class TestProjection:
    def test_identity_basis(self, ops, space):
        eye_basis = PodBasis(
            "empty",
            np.eye(space.n_u),
            np.eye(space.n_p),
            np.ones(space.n_u),
            np.ones(space.n_p),
            space.n_u,
            space.n_p,
            0,
        )
        red = project_component(ops, eye_basis)
        assert np.abs(red.K - ops.K.toarray()).max() < 1e-14
        assert np.abs(red.B - ops.B.toarray()).max() < 1e-14

    def test_single_vector(self, ops, space):
        phi = space.interpolate_velocity(
            lambda xy: np.stack([xy[:, 1] ** 2, np.zeros(len(xy))], axis=-1)
        )
        phi = phi / np.linalg.norm(phi)
        basis = PodBasis(
            "empty", phi[:, None], np.ones((space.n_p, 1)) / np.sqrt(space.n_p),
            np.ones(1), np.ones(1), 1, 1, 0,
        )
        red = project_component(ops, basis)
        assert red.K.shape == (1, 1)
        assert abs(red.K[0, 0] - phi @ (ops.K @ phi)) < 1e-14

    def test_random_matches_dense_oracle(self, ops, space):
        rng = np.random.default_rng(5)
        pu = np.linalg.qr(rng.standard_normal((space.n_u, 9)))[0]
        pp = np.linalg.qr(rng.standard_normal((space.n_p, 4)))[0]
        basis = PodBasis("empty", pu, pp, np.ones(9), np.ones(4), 9, 4, 0)
        red = project_component(ops, basis)
        assert np.abs(red.K - pu.T @ ops.K.toarray() @ pu).max() < 1e-12
        assert np.abs(red.B - pp.T @ ops.B.toarray() @ pu).max() < 1e-12
        for side in "LRBT":
            assert (
                np.abs(red.K_di[side] - pu.T @ ops.K_di[side].toarray() @ pu).max()
                < 1e-12
            )
            assert (
                np.abs(red.B_di[side] - pp.T @ ops.B_di[side].toarray() @ pu).max()
                < 1e-12
            )

    def test_interface_projection_oracle(self, ops, space):
        blocks = assemble_interface_blocks(space, space, "H", NU)
        rng = np.random.default_rng(6)
        pu = np.linalg.qr(rng.standard_normal((space.n_u, 7)))[0]
        pp = np.linalg.qr(rng.standard_normal((space.n_p, 3)))[0]
        basis = PodBasis("empty", pu, pp, np.ones(7), np.ones(3), 7, 3, 0)
        red = project_interface(blocks, basis, basis)
        for key in ("mm", "mn", "nm", "nn"):
            assert np.abs(red.K[key] - pu.T @ blocks.K[key].toarray() @ pu).max() < 1e-12
            assert np.abs(red.B[key] - pp.T @ blocks.B[key].toarray() @ pu).max() < 1e-12


class TestAdvectionTensor:
    def test_constant_basis_vector_zero(self, ops, space):
        phi = space.interpolate_velocity(
            lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        )
        t = build_advection_tensor(ops, phi[:, None])
        assert np.abs(t).max() < 1e-15

    def test_linear_basis_vector(self, ops, space):
        phi = space.interpolate_velocity(
            lambda xy: np.stack([xy[:, 0], np.zeros(len(xy))], axis=-1)
        )
        t = build_advection_tensor(ops, phi[:, None])
        assert abs(t[0, 0, 0] - 1.0 / 3.0) < 1e-13

    def test_contraction_matches_fom_projection(self, ops, space):
        rng = np.random.default_rng(7)
        phi = np.linalg.qr(rng.standard_normal((space.n_u, 10)))[0]
        t = build_advection_tensor(ops, phi)
        for _ in range(20):
            uh = rng.standard_normal(10)
            ref = phi.T @ ops.adv.value(phi @ uh)
            got = tensor_contract(t, uh)
            assert np.linalg.norm(got - ref) <= 1e-11 * max(np.linalg.norm(ref), 1e-12)

    def test_slices_match_the_one_shot_tensor(self, ops, space):
        # two whole slices and a partial third
        r = 2 * _TENSOR_SLICE + 3
        rng = np.random.default_rng(11)
        phi = np.linalg.qr(rng.standard_normal((space.n_u, r)))[0]
        t = build_advection_tensor(ops, phi)
        ref = one_shot_tensor(ops, phi)
        assert t.shape == (r, r, r) and t.flags.c_contiguous
        assert np.abs(t - ref).max() <= 1e-14 * np.abs(ref).max()
        for _ in range(5):
            uh = rng.standard_normal(r)
            ref = phi.T @ ops.adv.value(phi @ uh)
            got = tensor_contract(t, uh)
            assert np.linalg.norm(got - ref) <= 1e-11 * max(np.linalg.norm(ref), 1e-12)

    def test_scratch_is_less_than_the_whole_intermediate(self, ops, space):
        r = 4 * _TENSOR_SLICE
        phi = np.linalg.qr(np.random.default_rng(12).standard_normal((space.n_u, r)))[0]
        tracemalloc.start()
        try:
            build_advection_tensor(ops, phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # D[(q, c), (j, k)] over all modes is n_points * 2 * r^2 doubles;
        # forming it whole peaks at 2.2 times that, slice by slice at 0.7
        assert peak < ops.adv.n_points * 2 * r * r * 8

    def test_quadratic_homogeneity_exact(self, ops, space):
        rng = np.random.default_rng(8)
        phi = np.linalg.qr(rng.standard_normal((space.n_u, 6)))[0]
        t = build_advection_tensor(ops, phi)
        uh = rng.standard_normal(6)
        assert np.array_equal(tensor_contract(t, 2.0 * uh), 4.0 * tensor_contract(t, uh))

    def test_jacobian_matches_finite_differences(self, ops, space):
        rng = np.random.default_rng(9)
        phi = np.linalg.qr(rng.standard_normal((space.n_u, 6)))[0]
        t = build_advection_tensor(ops, phi)
        uh = rng.standard_normal(6)
        v = rng.standard_normal(6)
        eps = 1e-7
        fd = (tensor_contract(t, uh + eps * v) - tensor_contract(t, uh - eps * v)) / (2 * eps)
        jv = tensor_jacobian(t, uh) @ v
        assert np.abs(fd - jv).max() / max(np.abs(jv).max(), 1e-12) < 1e-7


    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_stacked_states_match_oracle(self, ops, space, m):
        rng = np.random.default_rng(20 + m)
        phi = np.linalg.qr(rng.standard_normal((space.n_u, 6)))[0]
        t = build_advection_tensor(ops, phi)
        U = rng.standard_normal((6, m))
        value = tensor_contract(t, U)
        jac = tensor_jacobian(t, U)
        assert value.shape == (6, m) and jac.shape == (m, 6, 6)
        for k in range(m):
            uh = U[:, k]
            # per-state reference formulas
            ref_value = (t @ uh) @ uh
            ref_jac = t @ uh + np.einsum("ijl,j->il", t, uh)
            for got, ref in [
                (value[:, k], ref_value),
                (jac[k], ref_jac),
                (tensor_contract(t, uh), ref_value),
                (tensor_jacobian(t, uh), ref_jac),
            ]:
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestBuildPodBasis:
    def test_pipeline(self, ops, space):
        rng = np.random.default_rng(10)
        S = 15
        U = rng.standard_normal((space.n_u, S))
        P = rng.standard_normal((space.n_p, S))
        snaps = SnapshotSet("empty", U, P)
        basis = build_pod_basis(snaps, ops, R_u=6, R_p=4)
        assert basis.R_u == 6 and basis.R_p == 4
        assert basis.Z == 4                       # default Z = R_p, all kept
        assert basis.phi_u.shape == (space.n_u, 10)
        assert np.abs(basis.phi_u.T @ basis.phi_u - np.eye(10)).max() < 1e-10
        assert np.abs(basis.phi_p.T @ basis.phi_p - np.eye(4)).max() < 1e-10
        # leading columns are the left singular vectors in descending order
        phi_all, sigma = pod(U)
        assert np.abs(np.abs(basis.phi_u[:, :6]) - np.abs(phi_all[:, :6])).max() < 1e-10
        assert np.all(np.diff(basis.sigma_u) <= 1e-12)

    def test_too_many_modes_requested(self, ops, space):
        snaps = SnapshotSet(
            "empty", np.random.rand(space.n_u, 3), np.random.rand(space.n_p, 3)
        )
        with pytest.raises(ValueError, match="modes"):
            build_pod_basis(snaps, ops, R_u=5, R_p=2)


class TestFiles:
    def test_basis_round_trip(self, ops, space, tmp_path):
        rng = np.random.default_rng(11)
        snaps = SnapshotSet(
            "circle", rng.standard_normal((space.n_u, 12)), rng.standard_normal((space.n_p, 12))
        )
        basis = build_pod_basis(snaps, ops, 5, 3)
        path = tmp_path / "basis.bin"
        save_basis(basis, path)
        loaded = load_basis(path)
        assert loaded.component == "circle"
        assert np.array_equal(loaded.phi_u, basis.phi_u)
        assert np.array_equal(loaded.phi_p, basis.phi_p)
        assert np.array_equal(loaded.sigma_u, basis.sigma_u)
        assert (loaded.R_u, loaded.R_p, loaded.Z) == (5, 3, 3)
        assert basis.pressure_penalty > 0.0
        assert loaded.pressure_penalty == basis.pressure_penalty

    def test_tensor_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        t = rng.standard_normal((4, 4, 4))
        path = tmp_path / "tensor.bin"
        save_tensor(t, path)
        assert np.array_equal(load_tensor(path), t)

    def test_corrupt_basis_rejected(self, ops, space, tmp_path):
        rng = np.random.default_rng(13)
        snaps = SnapshotSet(
            "empty", rng.standard_normal((space.n_u, 8)), rng.standard_normal((space.n_p, 8))
        )
        basis = build_pod_basis(snaps, ops, 4, 2)
        path = tmp_path / "basis.bin"
        save_basis(basis, path)
        phi_u = basis.phi_u.copy()
        phi_u[3, 1] += 0.5                    # no longer orthonormal
        rewrite_arrays(path, BASIS_MAGIC, phi_u=phi_u)
        from cromflow._binio import FormatError

        with pytest.raises(FormatError, match="orthonormal"):
            load_basis(path)

    def test_negative_penalty_rejected(self, ops, space, tmp_path):
        rng = np.random.default_rng(14)
        snaps = SnapshotSet(
            "empty", rng.standard_normal((space.n_u, 8)), rng.standard_normal((space.n_p, 8))
        )
        basis = build_pod_basis(snaps, ops, 4, 2)
        path = tmp_path / "basis.bin"
        save_basis(basis, path)
        rewrite_arrays(path, BASIS_MAGIC, pressure_penalty=-1.0)
        from cromflow._binio import FormatError

        with pytest.raises(FormatError, match="penalty"):
            load_basis(path)
