import numpy as np
import pytest

from blockrelax.generate import GenConfig, build_instance
from blockrelax.solver import (
    SolveOptions,
    certificate_for_instance,
    kkt_certificate,
    recovery_check,
    solve_instance,
    solve_weighted_bp,
)

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
    B = np.random.default_rng(0).standard_normal((3, 5))
    res = solve_weighted_bp(B, np.ones(5), np.zeros(3))
    assert res.status == "optimal"
    assert res.objective == 0.0
    assert res.detected_support == ()


def test_infeasible_rhs_flagged():
    B = np.array([[1.0], [0.0]])
    res = solve_weighted_bp(B, np.ones(1), np.array([0.0, 1.0]))
    assert res.status == "infeasible"
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
