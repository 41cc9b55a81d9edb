import numpy as np
import pytest

from blockrelax.generate import GenConfig, build_instance
from blockrelax.model import effective_matrix, solver_weights
from blockrelax.solver import (
    SolveOptions,
    certificate_for_instance,
    kkt_certificate,
    recovery_check,
    solve_instance,
    solve_weighted_bp,
)

import solver_reference
from lp_reference import min_weighted_l1


def test_two_column_pick_cheaper():
    B = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    res = solve_weighted_bp(B, np.array([1.0, 2.0]), y)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.z, [1.0, 0.0], atol=1e-8)
    assert res.objective == pytest.approx(1.0, abs=1e-8)
    assert res.detected_support == (0,)

    res2 = solve_weighted_bp(B, np.array([2.0, 1.0]), y)
    np.testing.assert_allclose(res2.z, [0.0, 1.0], atol=1e-8)
    assert res2.objective == pytest.approx(1.0, abs=1e-8)


def test_zero_rhs_returns_zero():
    # wide B and injective tall B alike
    for shape in ((3, 5), (6, 3)):
        B = np.random.default_rng(0).standard_normal(shape)
        res = solve_weighted_bp(B, np.ones(shape[1]), np.zeros(shape[0]))
        assert res.status == "optimal"
        assert res.objective == 0.0
        assert res.detected_support == ()
        assert res.iterations == 0
        assert np.array_equal(res.z, np.zeros(shape[1]))


def test_infeasible_rhs_flagged():
    # both B are injective: the infeasibility exit precedes the injective shortcut
    rng = np.random.default_rng(4)
    cases = (
        (np.array([[1.0], [0.0]]), np.array([0.0, 1.0])),
        (rng.standard_normal((6, 3)), rng.standard_normal(6)),
    )
    for B, y in cases:
        res = solve_weighted_bp(B, np.ones(B.shape[1]), y)
        assert res.status == "infeasible"
        assert res.iterations == 0
        assert res.duality_gap == np.inf


def test_input_validation():
    B = np.ones((2, 3))
    with pytest.raises(ValueError, match="strictly positive"):
        solve_weighted_bp(B, np.array([1.0, 0.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError, match="shape"):
        solve_weighted_bp(B, np.ones(2), np.ones(2))


def test_solution_covariant_in_rhs_scale():
    rng = np.random.default_rng(42)
    B = rng.standard_normal((4, 9))
    w = rng.uniform(0.5, 2.0, size=9)
    z0 = np.zeros(9)
    z0[[1, 6]] = [1.5, -2.0]
    y = B @ z0
    base = solve_weighted_bp(B, w, y)
    for lam in (7.0, 1e-3):
        scaled = solve_weighted_bp(B, w, lam * y)
        assert scaled.status == "optimal"
        np.testing.assert_allclose(scaled.z, lam * base.z, rtol=1e-6, atol=1e-9 * lam)


def test_matches_reference_on_random_programs():
    rng = np.random.default_rng(7)
    for trial in range(30):
        m = int(rng.integers(2, 6))
        R = int(rng.integers(m + 1, 11))
        B = rng.standard_normal((m, R))
        w = rng.uniform(0.5, 2.0, size=R)
        z0 = np.zeros(R)
        supp = rng.choice(R, size=int(rng.integers(1, m + 1)), replace=False)
        z0[supp] = rng.standard_normal(supp.size)
        y = B @ z0
        res = solve_weighted_bp(B, w, y)
        ref_obj, _ = min_weighted_l1(B, w, y)
        assert res.status == "optimal", f"trial {trial}: status {res.status}"
        assert np.linalg.norm(B @ res.z - y) <= 1e-7 * (1 + np.linalg.norm(y))
        assert res.objective == pytest.approx(ref_obj, rel=1e-6, abs=1e-9)


def test_max_iter_reports_best_iterate():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((5, 12))
    w = rng.uniform(0.5, 2.0, size=12)
    y = B @ rng.standard_normal(12)
    res = solve_weighted_bp(B, w, y, SolveOptions(max_iter=3, check_every=1))
    assert res.status in ("optimal", "max-iter")
    assert res.z.shape == (12,)
    assert np.isfinite(res.objective)


def test_certificate_margin_boundary():
    B = np.array([[1.0, 1.0]])
    # dual h = 1 saturates the off column: margin 0, certificate must refuse
    flat = kkt_certificate(B, np.array([1.0, 1.0]), [0], [1.0])
    assert flat.injective
    assert flat.margin == pytest.approx(0.0, abs=1e-12)
    assert not flat.holds
    # off-column weight 2 leaves slack 1
    ok = kkt_certificate(B, np.array([1.0, 2.0]), [0], [1.0])
    assert ok.holds
    assert ok.margin == pytest.approx(1.0, abs=1e-12)


def test_certificate_rejects_dependent_support():
    B = np.array([[1.0, 1.0], [0.0, 0.0]])
    res = kkt_certificate(B, np.array([1.0, 1.0]), [0, 1], [1.0, 1.0])
    assert not res.injective
    assert not res.holds


def test_certificate_rejects_out_of_range_support():
    B = np.eye(3)
    for bad in ([3], [-1]):
        with pytest.raises(ValueError, match="support indices"):
            kkt_certificate(B, np.ones(3), bad, [1.0])


def test_certificate_empty_support():
    B = np.eye(3)
    res = kkt_certificate(B, np.array([2.0, 3.0, 4.0]), [], [])
    assert res.holds
    assert res.margin == pytest.approx(2.0)


def test_certificate_scales_with_duplicate_column():
    # duplicated column with equal weight: margin exactly 0 either way
    B = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = kkt_certificate(B, np.array([1.0, 1.0]), [0], [1.0])
    assert res.margin == pytest.approx(0.0, abs=1e-12)
    assert not res.holds


def test_certificate_soundness_on_planted_instances():
    # whenever the planted certificate holds the solver must land exactly there
    hits = 0
    for seed in range(25):
        cfg = GenConfig(m=12, n=12, theta=2, r=3, s=4, master_seed=seed)
        inst = build_instance(cfg)
        cert = certificate_for_instance(inst, p=0.5)
        if not cert.holds:
            continue
        hits += 1
        res = solve_instance(inst, p=0.5)
        assert res.status == "optimal"
        assert recovery_check(inst, res) == "exact"
    assert hits >= 5, f"certificate held on only {hits}/25 seeds; fixture too weak"


def test_recovery_check_classification():
    cfg = GenConfig(m=10, n=10, theta=2, r=2, s=3, master_seed=3)
    inst = build_instance(cfg)
    res = solve_instance(inst, p=0.5)
    verdict = recovery_check(inst, res)
    assert verdict in ("exact", "support-match", "fail")
    if verdict == "exact":
        planted = set(int(i) for i in inst.X.planted_global_cols())
        assert set(res.detected_support) == planted


def test_solver_weights_drive_selection():
    # same constraint, heavier planted weight: solution moves off the planted column
    B = np.array([[1.0, 0.5]])
    y = np.array([1.0])
    res = solve_weighted_bp(B, np.array([1.0, 1.0]), y)
    np.testing.assert_allclose(res.z, [1.0, 0.0], atol=1e-8)
    res = solve_weighted_bp(B, np.array([5.0, 1.0]), y)
    np.testing.assert_allclose(res.z, [0.0, 2.0], atol=1e-8)


# -- differential tests against tests/solver_reference.py ---------------------

# (m, theta, s, r) with m < r*theta: B is never injective, so ADMM iterates
UNDERDETERMINED_CELLS = ((16, 4, 4, 8), (16, 4, 4, 16), (32, 8, 4, 8), (32, 8, 8, 8), (16, 2, 4, 16), (32, 4, 8, 16))
# m >= r*theta: B is injective and the feasible set is one point
INJECTIVE_CELLS = ((16, 2, 4, 2), (16, 2, 8, 4), (16, 4, 4, 2), (32, 4, 8, 4), (32, 2, 4, 8), (32, 4, 8, 8))


def _program(cell, seed):
    m, theta, s, r = cell
    inst = build_instance(GenConfig(m=m, n=m, theta=theta, r=r, s=s, guess_density=s / m, master_seed=seed))
    return effective_matrix(inst.A, inst.X), solver_weights(inst.X, 0.5), inst.y


def _fields(res):
    return (
        res.z.tobytes(),
        res.objective,
        res.status,
        res.iterations,
        res.feas_residual,
        res.duality_gap,
        res.detected_support,
    )


@pytest.mark.parametrize("cell", UNDERDETERMINED_CELLS)
def test_matches_reference_solver_bit_for_bit(cell):
    for seed in range(4):
        B, w, y = _program(cell, seed)
        assert np.linalg.matrix_rank(B) < B.shape[1]
        assert _fields(solve_weighted_bp(B, w, y)) == _fields(solver_reference.solve_weighted_bp(B, w, y))


def test_matches_reference_solver_at_max_iter():
    statuses = []
    for cell in UNDERDETERMINED_CELLS:
        B, w, y = _program(cell, 11)
        opts = SolveOptions(max_iter=60)
        res = solve_weighted_bp(B, w, y, opts)
        assert _fields(res) == _fields(solver_reference.solve_weighted_bp(B, w, y, opts))
        statuses.append(res.status)
    assert "max-iter" in statuses


def test_matches_reference_solver_when_rho_rebalances():
    # a penalty 10^3 off the automatic scale either way is rebalanced several
    # times before the solve converges
    for cell in UNDERDETERMINED_CELLS[::2]:
        B, w, y = _program(cell, 5)
        for rho in (1e-3, 1e3):
            opts = SolveOptions(rho=rho)
            res = solve_weighted_bp(B, w, y, opts)
            assert res.status == "optimal"
            assert _fields(res) == _fields(solver_reference.solve_weighted_bp(B, w, y, opts))


@pytest.mark.parametrize("cell", INJECTIVE_CELLS)
def test_injective_shortcut_matches_reference(cell):
    opts = SolveOptions()
    for seed in range(3):
        B, w, y = _program(cell, seed)
        assert np.linalg.matrix_rank(B) == B.shape[1]
        res = solve_weighted_bp(B, w, y)
        ref = solver_reference.solve_weighted_bp(B, w, y)
        assert ref.status == res.status == "optimal"
        assert res.iterations == 0
        assert res.detected_support == ref.detected_support
        assert np.abs(res.z - ref.z).max() <= 1e-12 * np.abs(ref.z).max()
        assert abs(res.duality_gap) <= opts.tol_opt * (1.0 + abs(res.objective))
        assert np.linalg.norm(B @ res.z - y) <= opts.tol_feas * (1.0 + np.linalg.norm(y))


def test_injective_shortcut_falls_through_to_admm():
    # condition number 3e9 (rank still full at the 1e-10 cutoff): the shortcut's
    # gap often misses tol_opt, and the solve must then be the plain ADMM one
    fell_through = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((8, 5)))[0]
        V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        B = U @ np.diag(np.geomspace(1.0, 1.0 / 3e9, 5)) @ V.T
        w = rng.uniform(0.5, 2.0, size=5)
        y = B @ np.array([1.0, 0.0, 0.0, -2.0, 0.0])
        opts = SolveOptions(max_iter=100)
        res = solve_weighted_bp(B, w, y, opts)
        if res.iterations == 0:
            assert res.status == "optimal"
            continue
        fell_through += 1
        assert _fields(res) == _fields(solver_reference.solve_weighted_bp(B, w, y, opts))
    assert fell_through >= 3


def test_rank_deficient_square_b_iterates():
    # m >= R, but a duplicated column drops rank(B) below R: no shortcut
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 4))
    B[:, 3] = B[:, 1]
    w = np.array([1.0, 1.5, 0.8, 1.2])
    y = B @ np.array([1.0, 0.0, -0.5, 0.0])
    res = solve_weighted_bp(B, w, y)
    assert np.linalg.matrix_rank(B) == 3
    assert res.iterations > 0
    assert res.status == "optimal"
    assert res.detected_support == (0, 2)
    np.testing.assert_allclose(res.z, [1.0, 0.0, -0.5, 0.0], atol=1e-8)
