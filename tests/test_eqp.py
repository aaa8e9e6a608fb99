import tracemalloc

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


def reference_nnls(G, d, rel_tol=0.0, events=None):
    """Dense Lawson-Hanson loop, the reference for :func:`nnls`.

    Every outer iteration forms the gradient b - A w over all columns and
    the residual G w - d over all rows, and solves the gathered passive
    block of A afresh.  ``events``, when a list, receives ("drop", count)
    for each step back and ("lstsq", size) for each singular passive block.
    """
    n = G.shape[1]
    d_norm = float(np.linalg.norm(d))
    target = rel_tol * d_norm
    w = np.zeros(n)
    if d_norm == 0.0 or (rel_tol > 0 and d_norm <= target):
        return w
    A = G.T @ G
    b = G.T @ d
    passive = np.zeros(n, dtype=bool)
    grad_tol = 1e-12 * max(np.abs(b).max(), 1.0)
    best = d_norm
    at_optimum = False
    for _ in range(3 * n):
        if rel_tol > 0 and best <= target:
            return w
        grad = b - A @ w
        grad[passive] = -np.inf
        k = int(np.argmax(grad))
        if grad[k] <= grad_tol:
            at_optimum = True
            break
        passive[k] = True
        while True:
            idx = np.flatnonzero(passive)
            sub = A[np.ix_(idx, idx)]
            try:
                z = np.linalg.solve(sub, b[idx])
            except np.linalg.LinAlgError:
                if events is not None:
                    events.append(("lstsq", idx.size))
                z, *_ = np.linalg.lstsq(sub, b[idx], rcond=None)
            if z.size == 0 or z.min() > 0.0:
                w = np.zeros(n)
                w[idx] = z
                break
            zfull = np.zeros(n)
            zfull[idx] = z
            mask = passive & (zfull <= 0.0)
            alpha = np.min(w[mask] / (w[mask] - zfull[mask]))
            w = w + alpha * (zfull - w)
            kept = passive & (w > 0.0)
            if events is not None:
                events.append(("drop", int(passive.sum() - kept.sum())))
            passive = kept
            w[~passive] = 0.0
        best = float(np.linalg.norm(G @ w - d))
    if (at_optimum and rel_tol == 0.0) or best <= target:
        return w
    raise EqpError("reference NNLS stalled", best_residual=best / d_norm)


def assert_matches_reference(G, d, rel_tol):
    """nnls and the reference agree: the same support and weights within
    1e-10 normwise, or both raise with the same best residual."""
    try:
        ref = reference_nnls(G, d, rel_tol)
    except EqpError as exc:
        with pytest.raises(EqpError) as got:
            nnls(G, d, rel_tol)
        assert got.value.best_residual == pytest.approx(exc.best_residual, rel=1e-10)
        return
    w = nnls(G, d, rel_tol)
    assert np.array_equal(np.flatnonzero(w > 0.0), np.flatnonzero(ref > 0.0))
    scale = max(np.abs(ref).max(), 1e-300)
    assert np.abs(w - ref).max() <= 1e-10 * scale


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

    @pytest.mark.parametrize("rel_tol", [1e-1, 1e-2, 1e-3, 0.0])
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_dense_reference(self, seed, rel_tol):
        # even seeds: Gaussian columns and data, whose optimum often misses
        # the tighter targets; odd seeds: positive columns and data in their
        # cone, which every target reaches
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(20, 60)), int(rng.integers(50, 200))
        if seed % 2 == 0:
            G = rng.standard_normal((rows, cols))
            d = rng.standard_normal(rows)
        else:
            G = np.abs(rng.standard_normal((rows, cols)))
            d = G @ rng.uniform(0.0, 1.0, cols) / cols
        assert_matches_reference(G, d, rel_tol)

    # not rel_tol 0: this G has numerical rank 25 of 60 rows, and both loops
    # end where the last gradients meet their roundoff tolerance
    @pytest.mark.parametrize("rel_tol", [1e-1, 1e-2, 1e-3])
    def test_matches_dense_reference_on_a_manifest(self, setup, rel_tol):
        *_, manifest = setup
        assert_matches_reference(manifest.G, manifest.d, rel_tol)

    def test_step_back_dropping_two_columns(self):
        # columns 0 and 1 enter with weights 0.1 each; column 2 then drives
        # both to -0.1 in the passive solve, so one step back drops both
        G = np.array([[10.0, 0.0, 2.0], [0.0, 10.0, 2.0], [0.0, 0.0, 1.0]])
        d = np.array([1.0, 1.0, 1.0])
        events = []
        ref = reference_nnls(G, d, 0.0, events)
        assert ("drop", 2) in events
        w = nnls(G, d, 0.0)
        assert np.array_equal(np.flatnonzero(w > 0.0), [2])
        assert np.abs(w - ref).max() <= 1e-12 * ref.max()
        assert w[2] == pytest.approx(5.0 / 9.0, rel=1e-14)

    def test_collinear_columns_fall_back_to_least_squares(self):
        from scipy.optimize import nnls as scipy_nnls

        # two nearly opposite columns, each repeated: at their passive
        # solution the copies' gradients are roundoff that passes the
        # tolerance, so a copy enters and the passive block is singular
        g0 = 10.0 * np.array([1.0, 1e-3, 0.0])
        g1 = 10.0 * np.array([-1.0, 1e-3, 0.0])
        G = np.column_stack([g0, g1, g0, g1, g0])
        d = 10.0 * np.array([0.0, 1.0, 1.0])
        events = []
        reference_nnls(G, d, 0.0, events)
        assert any(kind == "lstsq" for kind, _ in events)
        w = nnls(G, d, 0.0)
        assert np.all(np.isfinite(w)) and w.min() >= 0.0
        _, optimum = scipy_nnls(G, d)
        assert np.linalg.norm(G @ w - d) == pytest.approx(optimum, rel=1e-10)

    @pytest.mark.parametrize("optimum", [0.995e-7, 1.005e-7])
    @pytest.mark.parametrize("seed", range(8))
    def test_stop_is_confirmed_by_the_exact_residual(self, seed, optimum):
        # d = G w0 plus a part orthogonal to the columns, so the NNLS optimum
        # has that relative residual, just inside or just outside 1e-7; there
        # sqrt(|d|^2 - b.z) has lost all but about two digits
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((200, 80))
        w0 = np.zeros(80)
        w0[rng.choice(80, 20, replace=False)] = rng.uniform(0.5, 1.0, 20)
        Q, _ = np.linalg.qr(G)
        e = rng.standard_normal(200)
        e -= Q @ (Q.T @ e)
        d = G @ w0
        d += optimum * np.linalg.norm(d) * e / np.linalg.norm(e)
        rel_tol = 1e-7
        if optimum > rel_tol:
            with pytest.raises(EqpError) as exc:
                nnls(G, d, rel_tol)
            assert exc.value.best_residual == pytest.approx(optimum, rel=1e-6)
        else:
            w = nnls(G, d, rel_tol)
            assert np.linalg.norm(G @ w - d) <= rel_tol * np.linalg.norm(d)


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

    def test_constraint_matrix_is_filled_in_place(self, setup):
        space, ops, _, phi, _ = setup
        # enough snapshots that G outweighs the per-snapshot scratch
        rng = np.random.default_rng(4)
        U = rng.standard_normal((space.n_u, 80))
        snaps = SnapshotSet("empty", U, np.zeros((space.n_p, 80)))
        tracemalloc.start()
        try:
            manifest = build_manifest(ops, phi, snaps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        G = manifest.G
        assert G.shape == (80 * phi.shape[1], ops.adv.n_points)
        # one G and one snapshot's rows, not the rows and G stacked from them
        assert peak < 1.25 * G.nbytes
        assert G.flags.f_contiguous
        assert np.array_equal(manifest.d, G @ manifest.w_full)

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
