import math

import numpy as np
import pytest

from blockrelax.bounds import (
    complement_power,
    ensemble_norm_weights,
    limit_ratio,
    matrix_constants,
    spectral_norm,
    success_prob_block_relaxation,
    success_prob_repeated_trials,
)
from blockrelax.generate import GenConfig, build_instance
from blockrelax.model import BlockSensingMatrix, SupportPattern


def test_spectral_norm_against_svd():
    rng = np.random.default_rng(8)
    for shape in [(3, 5), (6, 2), (4, 4), (1, 7)]:
        a = rng.standard_normal(shape)
        exact = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(exact, rel=1e-8)
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_matrix_constants_identity_blocks():
    A = BlockSensingMatrix(blocks=(np.eye(4), 2.0 * np.eye(4)))
    sp = SupportPattern(indices=(0, 1, 4), n=4, theta=2)
    mc = matrix_constants(A, sp)
    # block 0 support energy 2, block 1 support energy 4; operator norms 1 and 2
    assert mc.f_s_sq == pytest.approx(2.0, rel=1e-9)
    assert mc.m_sq == pytest.approx(4.0, rel=1e-8)


def test_ensemble_norm_identity_example():
    n, r, theta, s = 4, 3, 2, 2
    A = BlockSensingMatrix(blocks=(np.eye(n), np.eye(n)))
    sp = SupportPattern(indices=(0, 1, 4, 5), n=n, theta=theta)
    p_x, p_X = 0.625, 0.25
    wa = ensemble_norm_weights(A, sp, (0, 1), r, p_x, p_X)
    # planted coordinate: sqrt(p_x * s); others sqrt(p_X * n)
    assert wa[0] == pytest.approx(math.sqrt(p_x * s), abs=1e-14)
    assert wa[1] == pytest.approx(math.sqrt(p_X * n), abs=1e-14)
    assert wa[r + 1] == pytest.approx(math.sqrt(p_x * s), abs=1e-14)

    u = np.array([1.0, 0.5, 0.0, -1.0, 0.0, 2.0])
    val = math.sqrt(float(np.sum((wa * u) ** 2)))
    # planted coordinates sit at (block 0, col 0) and (block 1, col 1)
    by_hand = math.sqrt(
        p_x * s * u[0] ** 2
        + p_X * n * (u[1] ** 2 + u[2] ** 2)
        + p_x * s * u[4] ** 2
        + p_X * n * (u[3] ** 2 + u[5] ** 2)
    )
    assert val == pytest.approx(by_hand, rel=1e-12)


def test_success_prob_repeated_trials():
    assert success_prob_repeated_trials(0.1, 2) == pytest.approx(0.19, abs=1e-15)
    assert success_prob_repeated_trials(1.0, 3) == 1.0
    assert success_prob_repeated_trials(1.0, 0) == 0.0
    assert success_prob_repeated_trials(0.0, 100) == 0.0
    # tiny p: naive 1-(1-p)^r would return 0
    tiny = success_prob_repeated_trials(1e-300, 10)
    assert tiny == pytest.approx(1e-299, rel=1e-12)
    with pytest.raises(ValueError):
        success_prob_repeated_trials(1.1, 2)


def test_success_prob_block_relaxation():
    # single block with full selection reduces exactly to the repeated-trial law
    for p in (0.0, 1e-12, 0.3, 0.99, 1.0):
        for r in (1, 2, 7):
            assert success_prob_block_relaxation(p, r, theta=1) == success_prob_repeated_trials(p, r)
    val = success_prob_block_relaxation(0.1, 2, theta=3)
    assert val == pytest.approx(0.19**3, rel=1e-12)
    gated = success_prob_block_relaxation(0.1, 2, theta=3, p_select=0.5)
    assert gated == pytest.approx(0.5 * 0.19**3, rel=1e-12)
    approx = success_prob_block_relaxation(1e-4, 3, theta=2, taylor=True)
    assert approx == pytest.approx((3e-4) ** 2, rel=1e-12)
    with pytest.raises(TypeError):  # one p_l, shared by every block
        success_prob_block_relaxation([0.1, 0.2], 2, theta=2)
    with pytest.raises(ValueError):
        success_prob_block_relaxation(0.5, 2, theta=1, p_select=1.5)


def test_complement_power_values():
    assert complement_power(0.5, 0.5) == pytest.approx(0.25, rel=1e-15)
    # (1 - 1e-2)**1e4, far below where naive subtraction loses digits
    assert complement_power(1e-2, 1e-4) == pytest.approx(2.24877485e-44, rel=1e-8)
    # double precision floors out for the steeper cases; 0.0 is the honest answer
    assert complement_power(1e-4, 1e-8) == 0.0
    assert complement_power(0.3, 1e9) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        complement_power(1.0, 0.5)
    with pytest.raises(ValueError):
        complement_power(0.5, 0.0)


def test_limit_ratio_frozen_and_convergence():
    assert limit_ratio(1e-4, 1e-2) == pytest.approx(0.99506613086291847, rel=1e-12)
    assert abs(limit_ratio(1e-4, 1e-2) - 1.0) == pytest.approx(4.933869137e-3, rel=1e-6)
    assert abs(limit_ratio(1e-8, 1e-4) - 1.0) == pytest.approx(4.999333387e-5, rel=1e-6)
    assert abs(limit_ratio(1e-12, 1e-6) - 1.0) == pytest.approx(4.999993333e-7, rel=1e-6)
    # the ratio approaches 1 monotonically along this diagonal
    errs = [abs(limit_ratio(10.0**-k, 10.0 ** (-k / 2)) - 1.0) for k in (4, 6, 8, 10, 12)]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 1e-3


def test_matrix_constants_on_generated_instance():
    inst = build_instance(GenConfig(m=8, n=8, theta=2, r=3, s=3, master_seed=1))
    mc = matrix_constants(inst.A, inst.support)
    # orthonormal blocks: operator norm 1, support energy = support size
    assert mc.m_sq == pytest.approx(1.0, rel=1e-8)
    assert mc.f_s_sq == pytest.approx(3.0, rel=1e-9)
