import numpy as np
import pytest

from cromflow._binio import FormatError, read_arrays, write_arrays
from cromflow.eqp import (
    RULE_MAGIC,
    EqpError,
    EqpRule,
    attach_basis_data,
    build_manifest,
    eqp_advection_jacobian,
    eqp_advection_value,
    load_rule,
    nnls,
    save_rule,
    train_rule,
)
from cromflow.femspace import TaylorHoodSpace
from cromflow.geometry import generate_empty_mesh
from cromflow.reduction import SnapshotSet, basis_checksum, build_advection_tensor, tensor_contract
from cromflow.weakforms import build_component_operators

NU = 0.04


def rewrite_arrays(path, magic, **arrays):
    """Replace arrays of a saved artifact; the container stays well formed."""
    data = read_arrays(path, magic, {}, extra=True)
    data.update(arrays)
    write_arrays(path, magic, data)


def oracle_value(rule, uh):
    """Per-state einsum evaluation of the rule, the reference for the kernels."""
    u = np.einsum("qkc,k->qc", rule.basis_values, uh)
    gu = np.einsum("qkcd,k->qcd", rule.basis_grads, uh)
    a = np.einsum("qd,qcd->qc", u, gu)
    return np.einsum("q,qic,qc->i", rule.weights, rule.basis_values, a)


def oracle_jacobian(rule, uh):
    u = np.einsum("qkc,k->qc", rule.basis_values, uh)
    gu = np.einsum("qkcd,k->qcd", rule.basis_grads, uh)
    t1 = np.einsum("qld,qcd->qcl", rule.basis_values, gu)
    t2 = np.einsum("qd,qlcd->qcl", u, rule.basis_grads)
    return np.einsum("q,qic,qcl->il", rule.weights, rule.basis_values, t1 + t2)


def rel_diff(got, ref):
    return np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300)


@pytest.fixture(scope="module")
def setup():
    space = TaylorHoodSpace(generate_empty_mesh(6))
    ops = build_component_operators(space, NU)
    rng = np.random.default_rng(1)
    S = 10
    cols = []
    for _ in range(S):
        a = rng.uniform(-1, 1, 4)
        cols.append(
            space.interpolate_velocity(
                lambda xy: np.stack(
                    [a[0] + a[1] * np.sin(xy[:, 0] + a[2]), a[3] * np.cos(xy[:, 1])],
                    axis=-1,
                )
            )
        )
    U = np.column_stack(cols)
    snaps = SnapshotSet("empty", U, np.zeros((space.n_p, S)))
    phi = np.linalg.qr(U)[0][:, :6]
    manifest = build_manifest(ops, phi, snaps)
    return space, ops, snaps, phi, manifest


class TestNnls:
    def test_identity(self):
        w = nnls(np.eye(2), np.array([1.0, 2.0]), 0.0)
        assert np.allclose(w, [1.0, 2.0])

    def test_nonnegativity_bound_optimum(self):
        w = nnls(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]), 0.0)
        assert np.allclose(w, [0.0])

    def test_random_against_dense_oracle(self):
        from scipy.optimize import nnls as scipy_nnls

        rng = np.random.default_rng(42)
        G = rng.standard_normal((20, 200))
        d = rng.standard_normal(20)
        w = nnls(G, d, rel_tol=1e-3)
        assert w.min() >= 0.0
        assert (w > 0).sum() <= 20
        assert np.linalg.norm(G @ w - d) <= 1e-3 * np.linalg.norm(d)
        w_full = nnls(G, d, rel_tol=0.0)
        _, res_scipy = scipy_nnls(G, d)
        assert abs(np.linalg.norm(G @ w_full - d) - res_scipy) < 1e-8

    def test_support_monotone_in_tolerance(self):
        rng = np.random.default_rng(43)
        G = np.abs(rng.standard_normal((30, 300)))
        d = G @ np.abs(rng.standard_normal(300)) / 300
        sizes = [(nnls(G, d, rel_tol=e) > 0).sum() for e in (1e-1, 1e-2, 1e-4)]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_unreachable_raises_with_best_residual(self):
        with pytest.raises(EqpError) as exc:
            nnls(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]), rel_tol=1e-8)
        assert exc.value.best_residual == pytest.approx(1.0)

    def test_zero_rhs(self):
        w = nnls(np.eye(3), np.zeros(3), 0.0)
        assert np.array_equal(w, np.zeros(3))


class TestManifest:
    def test_full_weights_reproduce_exact_integrals(self, setup):
        *_, manifest = setup
        assert (
            np.linalg.norm(manifest.G @ manifest.w_full - manifest.d)
            <= 1e-12 * np.linalg.norm(manifest.d)
        )

    def test_rows_match_fom_projection(self, setup):
        space, ops, snaps, phi, manifest = setup
        # d entries grouped per snapshot: row (s, b) = <phi_b, u_s . grad u_s>
        for s in range(snaps.count):
            ref = phi.T @ ops.adv.value(snaps.U[:, s])
            got = manifest.d[s * manifest.n_basis : (s + 1) * manifest.n_basis]
            assert np.abs(got - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())

    def test_zero_advection_snapshot(self, setup):
        space, ops, *_ = setup
        u = space.interpolate_velocity(
            lambda xy: np.stack([np.ones(len(xy)), np.zeros(len(xy))], axis=-1)
        )
        snaps = SnapshotSet("empty", u[:, None], np.zeros((space.n_p, 1)))
        manifest = build_manifest(ops, u[:, None] / np.linalg.norm(u), snaps)
        assert np.abs(manifest.d).max() < 1e-14


class TestTrainRule:
    def test_single_constraint_single_point(self, setup):
        space, ops, *_ = setup
        u = space.interpolate_velocity(
            lambda xy: np.stack([xy[:, 0], np.zeros(len(xy))], axis=-1)
        )
        phi = (u / np.linalg.norm(u))[:, None]
        snaps = SnapshotSet("empty", u[:, None], np.zeros((space.n_p, 1)))
        manifest = build_manifest(ops, phi, snaps)
        rule = train_rule(manifest, ops, phi, eps=0.0)
        assert rule.n_points == 1
        got = eqp_advection_value(rule, np.array([np.linalg.norm(u)]))
        ref = phi.T @ ops.adv.value(u)
        assert np.abs(got - ref).max() < 1e-12

    def test_loose_tolerance_gives_empty_rule(self, setup):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1.0)
        assert rule.n_points == 0

    def test_trained_rule_invariants(self, setup):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1e-3)
        assert np.all(rule.weights > 0.0)
        assert rule.residual <= 1e-3
        assert rule.n_points <= manifest.n_basis * manifest.n_snapshots + 1
        assert rule.n_points < manifest.G.shape[1]
        # residual criterion holds exactly as stored
        w = np.zeros(manifest.G.shape[1])
        flat = rule.element_ids * ops.space.qw.shape[1] + rule.local_ids
        w[flat] = rule.weights
        res = np.linalg.norm(manifest.G @ w - manifest.d) / np.linalg.norm(manifest.d)
        assert res == pytest.approx(rule.residual, rel=1e-9)

    def test_support_monotone_over_eps_sweep(self, setup):
        space, ops, snaps, phi, manifest = setup
        sizes = [
            train_rule(manifest, ops, phi, eps).n_points
            for eps in (1e-1, 1e-2, 1e-3)
        ]
        assert sizes[0] <= sizes[1] <= sizes[2]


class TestEvaluation:
    def test_zero_state(self, setup):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1e-3)
        assert np.abs(eqp_advection_value(rule, np.zeros(6))).max() == 0.0
        assert np.abs(eqp_advection_jacobian(rule, np.zeros(6))).max() == 0.0

    def test_full_weight_rule_matches_tensor(self, setup):
        space, ops, snaps, phi, manifest = setup
        elem, loc = ops.adv.point_ids()
        vals, grads = ops.adv.basis_at_quad(phi)
        full = EqpRule(
            "empty", elem, loc, ops.adv.quad_weights, 1.0, 0.0, 6, vals, grads
        )
        tensor = build_advection_tensor(ops, phi)
        rng = np.random.default_rng(3)
        for _ in range(5):
            uh = rng.standard_normal(6)
            ref = tensor_contract(tensor, uh)
            got = eqp_advection_value(full, uh)
            assert np.linalg.norm(got - ref) <= 1e-11 * max(np.linalg.norm(ref), 1e-12)

    def test_jacobian_vs_finite_differences(self, setup):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1e-3)
        rng = np.random.default_rng(4)
        uh = rng.standard_normal(6)
        v = rng.standard_normal(6)
        eps = 1e-6
        fd = (eqp_advection_value(rule, uh + eps * v) - eqp_advection_value(rule, uh - eps * v)) / (2 * eps)
        jv = eqp_advection_jacobian(rule, uh) @ v
        assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) < 1e-6


    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_stacked_states_match_oracle(self, setup, m):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1e-3)
        U = np.random.default_rng(10 + m).standard_normal((6, m))
        value = eqp_advection_value(rule, U)
        jac = eqp_advection_jacobian(rule, U)
        assert value.shape == (6, m) and jac.shape == (m, 6, 6)
        for k in range(m):
            assert rel_diff(value[:, k], oracle_value(rule, U[:, k])) < 1e-12
            assert rel_diff(jac[k], oracle_jacobian(rule, U[:, k])) < 1e-12
        assert rel_diff(eqp_advection_value(rule, U[:, 0]), oracle_value(rule, U[:, 0])) < 1e-12
        assert rel_diff(eqp_advection_jacobian(rule, U[:, 0]), oracle_jacobian(rule, U[:, 0])) < 1e-12

    def test_stacked_jacobian_vs_finite_differences(self, setup):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1e-3)
        rng = np.random.default_rng(11)
        U = rng.standard_normal((6, 3))
        V = rng.standard_normal((6, 3))
        eps = 1e-6
        fd = (eqp_advection_value(rule, U + eps * V) - eqp_advection_value(rule, U - eps * V)) / (2 * eps)
        jac = eqp_advection_jacobian(rule, U)
        for k in range(3):
            jv = jac[k] @ V[:, k]
            assert np.linalg.norm(fd[:, k] - jv) / np.linalg.norm(jv) < 1e-6

    def test_zero_point_rule_gives_zeros_of_every_shape(self, setup):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1.0)
        assert rule.n_points == 0
        U = np.random.default_rng(12).standard_normal((6, 4))
        for got, shape in [
            (eqp_advection_value(rule, U), (6, 4)),
            (eqp_advection_jacobian(rule, U), (4, 6, 6)),
            (eqp_advection_value(rule, U[:, 0]), (6,)),
            (eqp_advection_jacobian(rule, U[:, 0]), (6, 6)),
        ]:
            assert got.shape == shape and not np.any(got)

    def test_reattached_basis_replaces_the_layouts(self, setup):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1e-3)
        uh = np.random.default_rng(13).standard_normal(6)
        eqp_advection_value(rule, uh)
        attach_basis_data(rule, ops, -phi)
        assert rel_diff(eqp_advection_value(rule, uh), oracle_value(rule, uh)) < 1e-12
        assert rel_diff(eqp_advection_jacobian(rule, uh), oracle_jacobian(rule, uh)) < 1e-12


class TestRuleFile:
    def test_round_trip(self, setup, tmp_path):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1e-3)
        path = tmp_path / "rule.bin"
        save_rule(rule, path)
        loaded = load_rule(path)
        assert loaded.component == rule.component
        assert np.array_equal(loaded.element_ids, rule.element_ids)
        assert np.array_equal(loaded.local_ids, rule.local_ids)
        assert np.array_equal(loaded.weights, rule.weights)
        assert loaded.eps == rule.eps
        assert loaded.residual == rule.residual
        assert loaded.n_basis == rule.n_basis == 6
        assert loaded.phi_u_checksum == basis_checksum(phi)
        # the stored basis data reproduces the evaluation, no operators needed
        uh = np.random.default_rng(5).standard_normal(6)
        assert np.array_equal(
            eqp_advection_value(loaded, uh), eqp_advection_value(rule, uh)
        )

    def test_negative_weight_rejected_on_load(self, setup, tmp_path):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1e-3)
        path = tmp_path / "rule.bin"
        save_rule(rule, path)
        weights = rule.weights.copy()
        weights[0] = -1.0
        rewrite_arrays(path, RULE_MAGIC, weights=weights)
        with pytest.raises(ValueError, match="positive"):
            load_rule(path)

    @pytest.mark.parametrize(
        "field,name,value",
        [("local", "local_ids", 7), ("element", "element_ids", 10**6)],
    )
    def test_point_outside_the_mesh_rejected_on_attach(
        self, setup, tmp_path, field, name, value
    ):
        space, ops, snaps, phi, manifest = setup
        rule = train_rule(manifest, ops, phi, eps=1e-3)
        path = tmp_path / "rule.bin"
        save_rule(rule, path)
        ids = getattr(rule, name).copy()
        ids[0] = value
        rewrite_arrays(path, RULE_MAGIC, **{name: ids})
        loaded = load_rule(path)
        with pytest.raises(FormatError, match=field):
            attach_basis_data(loaded, ops, phi)
