import math
import tracemalloc

import concentration_reference as reference
import numpy as np
import pytest

from blockrelax import concentration
from blockrelax.bounds import ensemble_norm_weights
from blockrelax.concentration import (
    _CHUNK,
    ConcentrationStudy,
    block_norm_bound_check,
    empirical_concentration_tail,
    empirical_image_moments,
    singular_window_check,
    vectorization_check,
)
from blockrelax.generate import GenConfig
from blockrelax.model import Selector, SupportPattern


def tiny_study():
    # m=n=r=theta=s=1: the image is x_0^2 u_0^2 with x_0 uniform on {+-1, +-1/2},
    # so every statistic below has a closed form
    cfg = GenConfig(m=1, n=1, theta=1, r=1, s=1, guess_density=0.5, master_seed=9)
    return ConcentrationStudy.from_config(cfg)


def test_vectorization_identity_random_shapes():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b, c = (int(rng.integers(1, 9)) for _ in range(3))
        M = rng.standard_normal((a, b))
        R = rng.standard_normal((b, c))
        w = rng.standard_normal(c)
        dev = vectorization_check(M, R, w)
        scale = 1.0 + np.linalg.norm(M) * np.linalg.norm(R) * np.linalg.norm(w)
        assert dev <= 1e-12 * scale


def test_redraw_deterministic_and_pinned():
    study = tiny_study()
    x1, X1 = study.redraw(5, 3)
    x2, X2 = study.redraw(5, 3)
    assert np.array_equal(x1, x2)
    assert all(np.array_equal(a, b) for a, b in zip(X1.blocks, X2.blocks))
    assert X1.planted_cols == study.planted_cols


def test_redraw_uses_unconditioned_law():
    # at density 0.05 the pure law must produce all-zero non-planted columns
    cfg = GenConfig(m=4, n=4, theta=1, r=6, s=4, guess_density=0.05, master_seed=2)
    study = ConcentrationStudy.from_config(cfg)
    seen = any(study.redraw(0, t)[1].zero_columns() for t in range(40))
    assert seen


def test_image_moments_tiny_closed_form():
    study = tiny_study()
    u = Selector(z=np.array([1.0]), r=1, theta=1)
    res = empirical_image_moments(study, u, trials=4000, seed=11)
    assert res.analytic_sq == pytest.approx(0.625, abs=1e-12)
    # sample space {1, 1/4} equiprobable: sd = 0.375, se = 0.375/sqrt(trials)
    assert res.std_error == pytest.approx(0.375 / math.sqrt(4000), rel=0.05)
    assert abs(res.z_score) < 4.0


def test_image_moments_zero_selector_degenerate():
    study = tiny_study()
    u = Selector(z=np.array([0.0]), r=1, theta=1)
    res = empirical_image_moments(study, u, trials=5, seed=0)
    assert res.mean == 0.0
    assert res.analytic_sq == 0.0
    assert res.z_score == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_image_moments_mean_within_rounding_reads_zero(seed):
    # theta = 1, +-1 values, orthonormal blocks, the planted selector: every
    # image is s = 3, so the standard error is of rounding size and so is the
    # mean's distance from its closed form
    cfg = GenConfig(m=8, n=8, theta=1, r=4, s=3, planted_alphabet=(-1.0, 1.0), master_seed=seed)
    study = ConcentrationStudy.from_config(cfg)
    u = Selector.discrete(study.planted_cols, 4, 1)
    res = empirical_image_moments(study, u, trials=50, seed=seed)
    assert res.mean == pytest.approx(3.0, abs=1e-12) and res.std_error < 1e-12
    assert res.z_score == 0.0


def test_image_moments_need_two_trials():
    study = tiny_study()
    with pytest.raises(ValueError, match="at least 2 trials"):
        empirical_image_moments(study, Selector(z=np.array([1.0]), r=1, theta=1), trials=1, seed=0)


def test_image_moments_generic_selector():
    cfg = GenConfig(m=6, n=6, theta=2, r=3, s=2, guess_density=0.25, master_seed=4)
    study = ConcentrationStudy.from_config(cfg)
    rng = np.random.default_rng(1)
    u = Selector(z=rng.uniform(-1, 1, size=6), r=3, theta=2)
    res = empirical_image_moments(study, u, trials=3000, seed=7)
    assert abs(res.z_score) < 4.0


def test_tail_counter_exact_threshold():
    study = tiny_study()
    u = Selector(z=np.array([1.0]), r=1, theta=1)
    # every draw deviates by exactly 0.375 and F(u)^2 = 1
    always = empirical_concentration_tail(study, u, epsilon=0.3, trials=200, seed=1)
    assert always.exceed_count == 200
    assert always.frequency == 1.0
    never = empirical_concentration_tail(study, u, epsilon=0.4, trials=200, seed=1)
    assert never.exceed_count == 0
    assert never.frequency == 0.0
    assert never.bound == pytest.approx(2.0 * math.exp(-min(0.4**2, 0.4)), rel=1e-12)


@pytest.mark.parametrize("trials", [0, -1])
def test_tail_needs_a_trial(trials):
    # a frequency over no trials has no value; a negative count is no count
    u = Selector(z=np.array([1.0]), r=1, theta=1)
    with pytest.raises(ValueError, match=f"^the tail check needs at least 1 trial, got {trials}$"):
        empirical_concentration_tail(tiny_study(), u, epsilon=0.3, trials=trials, seed=1)


def batch_study(theta, guess_law="ternary"):
    # the acceptance test_04 set-up
    cfg = GenConfig(m=12, n=12, theta=theta, r=4, s=3, guess_law=guess_law, master_seed=5)
    return ConcentrationStudy.from_config(cfg)


def replayed_sq_norms(study, u, trials, seed):
    return np.array([study.image_sq_norm(study.redraw(seed, t)[1], u) for t in range(trials)])


@pytest.mark.parametrize("guess_law", ["ternary", "alphabet"])
@pytest.mark.parametrize("theta", [1, 4])
@pytest.mark.parametrize("selector", ["planted", "generic"])
def test_image_sq_norms_match_single_trial_replay(theta, guess_law, selector):
    study = batch_study(theta, guess_law)
    if selector == "planted":
        u = Selector.discrete(study.planted_cols, 4, theta)
    else:
        u = Selector(z=np.random.default_rng(theta).standard_normal(4 * theta), r=4, theta=theta)
    got = study.image_sq_norms(u, 60, seed=8)
    want = replayed_sq_norms(study, u, 60, seed=8)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_image_sq_norms_across_chunk_boundary():
    study = batch_study(2)
    u = Selector(z=np.random.default_rng(0).standard_normal(8), r=4, theta=2)
    got = study.image_sq_norms(u, _CHUNK + 3, seed=4)
    np.testing.assert_allclose(got, replayed_sq_norms(study, u, _CHUNK + 3, seed=4), rtol=1e-12, atol=0)
    assert study.image_sq_norms(u, 0, seed=4).shape == (0,)


def test_tail_count_matches_single_trial_replay():
    study = batch_study(4)
    u = Selector.discrete(study.planted_cols, 4, 4)
    est = empirical_concentration_tail(study, u, epsilon=0.3, trials=400, seed=6)
    vals = replayed_sq_norms(study, u, 400, seed=6)

    def sq_norm(p_x, p_X):
        w = ensemble_norm_weights(study.A, study.support, study.planted_cols, 4, p_x, p_X)
        return float(np.sum((w * u.z) ** 2))

    analytic, f_sq = sq_norm(study.cfg.p_x, study.cfg.p_X), sq_norm(1.0, 1.0)
    want = int(np.count_nonzero(np.abs(vals - analytic) >= 0.3 * f_sq))
    assert 0 < want < 400
    assert est.exceed_count == want


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def chunk_draw(study, seed, start, size):
    cfg = study.cfg
    X, x = np.empty((size, cfg.theta, cfg.r, cfg.n)), np.empty((size, cfg.theta, cfg.n))
    study._draw(seed, start, X, x)
    return X, x


@pytest.mark.parametrize("guess_law", ["ternary", "alphabet"])
@pytest.mark.parametrize("theta", [1, 4])
def test_chunk_pass_matches_per_trial_reference(theta, guess_law):
    # the chunk pass draws each trial's bits as the one-trial-at-a-time loop
    # did, zero signs included, and images them to the same bits
    study = batch_study(theta, guess_law)
    for X, want in zip(chunk_draw(study, 8, 3, 60), reference.draw(study, 8, 3, 60)):
        assert_same_bits(X, want)
    u = Selector(z=np.random.default_rng(theta).standard_normal(4 * theta), r=4, theta=theta)
    assert_same_bits(study.image_sq_norms(u, 60, seed=8), reference.image_sq_norms(study, u, 60, 8, _CHUNK))


def test_chunk_pass_matches_reference_across_two_chunks(monkeypatch):
    monkeypatch.setattr(concentration, "_CHUNK", 7)
    study = batch_study(4, "alphabet")
    u = Selector.discrete(study.planted_cols, 4, 4)
    assert_same_bits(study.image_sq_norms(u, 11, seed=2), reference.image_sq_norms(study, u, 11, 2, 7))


@pytest.mark.parametrize("guess_law", ["ternary", "alphabet"])
def test_redraw_is_row_of_reference(guess_law):
    study = batch_study(4, guess_law)
    X, x = reference.draw(study, 5, 0, 12)
    for t in (0, 7, 11):
        got_x, got_X = study.redraw(5, t)
        assert_same_bits(got_x, x[t].reshape(-1))
        assert_same_bits(np.ascontiguousarray(got_X.blocks.transpose(0, 2, 1)), X[t])


def test_empty_block_error_matches_reference():
    # a uniform-support study whose support misses block 2: both passes reject
    # the same trial with the same message
    cfg = GenConfig(m=4, n=4, theta=3, r=2, s=1, support_mode="uniform", master_seed=0)
    base = ConcentrationStudy.from_config(GenConfig(m=4, n=4, theta=3, r=2, s=1, master_seed=0))
    starved = ConcentrationStudy(
        cfg=cfg, A=base.A, support=SupportPattern(indices=(1, 6, 7), n=4, theta=3), planted_cols=base.planted_cols
    )
    with pytest.raises(ValueError, match="block 2 has empty support") as want:
        reference.draw(starved, 3, 4, 1)
    with pytest.raises(ValueError) as got:
        starved.redraw(3, 4)
    assert str(got.value) == str(want.value)


def test_image_sq_norms_reject_empty_hidden_block():
    cfg = GenConfig(m=4, n=4, theta=2, r=2, s=1, master_seed=0)
    base = ConcentrationStudy.from_config(cfg)
    starved = ConcentrationStudy(
        cfg=cfg,
        A=base.A,
        support=SupportPattern(indices=(0,), n=4, theta=2),  # block 1 empty
        planted_cols=base.planted_cols,
    )
    u = Selector.discrete(base.planted_cols, 2, 2)
    with pytest.raises(ValueError, match="block 1 has empty support"):
        starved.image_sq_norms(u, 5, seed=0)
    with pytest.raises(ValueError, match="block 1 has empty support"):
        starved.redraw(0, 0)


def test_image_sq_norms_memory_bounded_by_one_chunk():
    # three chunks of redraws: a guess tensor over all trials would alone take
    # three times the bytes of one chunk's tensor
    study = batch_study(4)
    u = Selector.discrete(study.planted_cols, 4, 4)
    chunk_bytes = _CHUNK * 4 * 4 * 12 * 8
    tracemalloc.start()
    try:
        study.image_sq_norms(u, 3 * _CHUNK, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * chunk_bytes


def test_singular_window_tiny_closed_form():
    study = tiny_study()
    # normalized planted column has singular value |x0|/sqrt(0.625):
    # 1.265 for |x0|=1, 0.632 for |x0|=1/2, so delta=0.3 admits only |x0|=1
    res = singular_window_check(study, delta=0.3, trials=4000, seed=3)
    se = math.sqrt(0.25 / 4000)
    assert abs(res.frequency - 0.5) < 4 * se
    wide = singular_window_check(study, delta=0.99, trials=500, seed=3)
    assert wide.frequency == 1.0
    with pytest.raises(ValueError):
        singular_window_check(study, delta=1.0, trials=10, seed=0)


@pytest.mark.parametrize("trials", [0, -1])
def test_singular_window_needs_a_trial(trials):
    with pytest.raises(ValueError, match=f"^the window check needs at least 1 trial, got {trials}$"):
        singular_window_check(tiny_study(), delta=0.5, trials=trials, seed=3)


def window_reference(study, delta, trials, seed):
    """The window check one trial at a time, on the x of redraw(seed, t)."""
    cfg = study.cfg
    wa = ensemble_norm_weights(study.A, study.support, study.planted_cols, cfg.r, cfg.p_x, cfg.p_X)
    inside = 0
    for t in range(trials):
        x = study.redraw(seed, t)[0].reshape(cfg.theta, cfg.n)
        cols = np.stack(
            [study.A.blocks[l] @ x[l] / wa[l * cfg.r + k] for l, k in enumerate(study.planted_cols)],
            axis=1,
        )
        sig = np.linalg.svd(cols, compute_uv=False)
        inside += bool(sig.min() >= 1.0 - delta and sig.max() <= 1.0 + delta)
    return inside


def test_singular_window_trials_use_the_redraw_x():
    # trial t of the window check draws x as redraw(seed, t) does; at delta = 0.3
    # about half the trials fall inside, so a check on other x would miscount
    study, delta, trials = batch_study(2), 0.3, 200
    inside = window_reference(study, delta, trials, seed=7)
    assert 0.2 * trials < inside < 0.8 * trials
    assert singular_window_check(study, delta, trials, seed=7).inside_count == inside


def test_singular_window_batches_equal_reference_across_chunks(monkeypatch):
    # one batched svd per chunk of 7 redraws, the last chunk partial
    monkeypatch.setattr(concentration, "_CHUNK", 7)
    study, delta, trials = batch_study(2), 0.3, 40
    inside = window_reference(study, delta, trials, seed=7)
    assert 0 < inside < trials
    assert singular_window_check(study, delta, trials, seed=7).inside_count == inside


def test_singular_window_nothing_inside_when_m_below_theta():
    # theta = 3 planted columns in R^2 have a zero singular value, which svd
    # leaves out, so no trial lies inside whatever delta
    cfg = GenConfig(m=2, n=4, theta=3, r=4, s=2, sensing_kind="gaussian", master_seed=7)
    study = ConcentrationStudy.from_config(cfg)
    for delta in (0.2, 0.5, 0.9):
        assert singular_window_check(study, delta, 1500, seed=5).inside_count == 0


def test_singular_window_floor_is_not_vacuous():
    # the README's window-tight.txt: 44 of 48 support entries per block give
    # F_S^2/M^2 = 44, so the floor is a real claim that a lower frequency would falsify
    cfg = GenConfig(m=48, n=48, theta=2, r=4, s=44, planted_alphabet=(-1.0, 1.0), master_seed=0)
    res = singular_window_check(ConcentrationStudy.from_config(cfg), delta=0.9, trials=500, seed=0)
    assert res.bound_floor == pytest.approx(0.951989, abs=1e-6)
    assert res.bound_floor > 0.0
    assert res.frequency >= res.bound_floor


def test_singular_window_rejects_empty_block_support():
    cfg = GenConfig(m=4, n=4, theta=2, r=2, s=1, master_seed=0)
    base = ConcentrationStudy.from_config(cfg)
    starved = ConcentrationStudy(
        cfg=cfg,
        A=base.A,
        support=SupportPattern(indices=(0,), n=4, theta=2),  # block 1 empty
        planted_cols=base.planted_cols,
    )
    with pytest.raises(ValueError, match="singular"):
        singular_window_check(starved, delta=0.5, trials=10, seed=0)


def test_block_norm_bound_cases():
    rng = np.random.default_rng(2)
    for _ in range(25):
        blocks = [
            rng.standard_normal((3, int(rng.integers(1, 4)))) for _ in range(int(rng.integers(1, 4)))
        ]
        lhs, rhs, slack = block_norm_bound_check(blocks)
        scale = 1.0 + rhs
        assert slack >= -1e-9 * scale
    # identical blocks meet the bound with equality
    b = rng.standard_normal((4, 2))
    lhs, rhs, slack = block_norm_bound_check([b, b])
    assert slack == pytest.approx(0.0, abs=1e-7 * (1 + rhs))
    # orthogonal columns leave real slack
    lhs, rhs, slack = block_norm_bound_check([np.eye(2)[:, :1], np.eye(2)[:, 1:]])
    assert lhs == pytest.approx(1.0, rel=1e-8)
    assert rhs == pytest.approx(2.0, rel=1e-8)
