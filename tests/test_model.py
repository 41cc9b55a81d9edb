import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockrelax.model import (
    BlockSensingMatrix,
    GuessEnsemble,
    RelaxedInstance,
    Selector,
    SupportPattern,
    apply_selector,
    effective_matrix,
    lp_norm,
    solver_weights,
)


def small_ensemble(rng, n=4, r=3, theta=2):
    blocks = tuple(rng.uniform(-1, 1, size=(n, r)) for _ in range(theta))
    return GuessEnsemble(blocks=blocks, planted_cols=(0,) * theta)


def test_lp_norm_values():
    # 1 + sqrt(0.5), from a closed-form side computation
    assert lp_norm(np.array([1.0, -0.5, 0.0]), 0.5) == pytest.approx(1.7071067811865475, abs=1e-14)
    assert lp_norm(np.array([0.0, 0.0]), 0.7) == 0.0
    assert lp_norm(np.array([-2.0, 3.0]), 1.0) == pytest.approx(5.0)


def test_lp_norm_rejects_bad_exponent():
    X = GuessEnsemble(blocks=(np.ones((3, 2)),), planted_cols=(0,))
    for p in (0.0, -0.3, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
            lp_norm(np.ones(3), p)
        with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
            solver_weights(X, p)


@given(
    p=st.floats(min_value=0.05, max_value=1.0),
    vals=st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_lp_norm_entrywise_monotone(p, vals):
    v = np.asarray(vals)
    shrunk = v * 0.5
    assert lp_norm(shrunk, p) <= lp_norm(v, p) + 1e-12


@given(
    p=st.floats(min_value=0.05, max_value=1.0),
    vals=st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=2, max_size=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=200, deadline=None)
def test_lp_norm_permutation_invariant(p, vals, seed):
    v = np.asarray(vals)
    perm = np.random.default_rng(seed).permutation(len(v))
    assert lp_norm(v, p) == pytest.approx(lp_norm(v[perm], p), rel=1e-12, abs=1e-12)


def test_effective_matrix_matches_dense_product():
    rng = np.random.default_rng(3)
    A = BlockSensingMatrix(blocks=tuple(rng.standard_normal((5, 4)) for _ in range(3)))
    X = small_ensemble(rng, n=4, r=3, theta=3)
    B = effective_matrix(A, X)
    assert B.shape == (5, 9)
    np.testing.assert_allclose(B, A.full() @ X.dense(), atol=1e-13)


# (theta, m, n, r), with theta = 1 and r = 1 among them
LAYOUT_SHAPES = [(1, 1, 1, 1), (1, 5, 4, 1), (3, 5, 4, 1), (1, 6, 3, 4), (4, 7, 5, 3), (2, 3, 9, 8), (5, 12, 6, 20)]


@pytest.mark.parametrize("theta, m, n, r", LAYOUT_SHAPES)
def test_stacked_products_equal_per_block_reference(theta, m, n, r):
    # the stacked layout changes no bit of the effective matrix, the weights or the zero columns
    rng = np.random.default_rng(theta * 1000 + m * 100 + n * 10 + r)
    A = BlockSensingMatrix(blocks=tuple(rng.standard_normal((m, n)) for _ in range(theta)))
    cols = rng.uniform(-1, 1, size=(theta, r, n))  # column k of block l is cols[l, k]
    cols[rng.random((theta, r, n)) < 0.3] = 0.0
    cols[rng.random((theta, r)) < 0.2] = 0.0  # some all-zero columns
    X = GuessEnsemble(blocks=tuple(c.T for c in cols), planted_cols=(0,) * theta)
    reference = np.hstack([A.blocks[l] @ X.blocks[l] for l in range(theta)])
    assert np.array_equal(effective_matrix(A, X), reference)
    for p in (0.3, 0.5, 1.0):
        reference = np.concatenate([np.sum(np.abs(b) ** p, axis=0) for b in X.blocks])
        assert np.array_equal(solver_weights(X, p), reference)
    zeros = [(l, int(k)) for l, b in enumerate(X.blocks) for k in np.flatnonzero(np.abs(b).max(axis=0) == 0.0)]
    assert X.zero_columns() == zeros


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda blocks: BlockSensingMatrix(blocks=blocks), "(m, n)"),
        (lambda blocks: GuessEnsemble(blocks=blocks, planted_cols=(0,) * len(blocks)), "(n, r)"),
    ],
    ids=["sensing", "ensemble"],
)
def test_blocks_that_do_not_stack_raise_naming_the_shape(build, shape):
    for ragged in ((np.zeros((3, 2)), np.zeros((2, 2))), (np.zeros((3, 2)), np.zeros((3, 1)))):
        with pytest.raises(ValueError, match=f"^{re.escape(f'all blocks must share one {shape} shape')}$"):
            build(ragged)
    for empty in ((), np.zeros((0, 3, 2))):
        with pytest.raises(ValueError, match=re.escape(f"need a non-empty stack of {shape} blocks")):
            build(empty)
    with pytest.raises(ValueError, match=r"got shape \(3, 2\)"):  # one block, not a stack of them
        build(np.zeros((3, 2)))


def test_effective_matrix_shape_mismatch():
    rng = np.random.default_rng(0)
    A = BlockSensingMatrix(blocks=(rng.standard_normal((5, 4)),))
    X = small_ensemble(rng, n=3, r=2, theta=1)
    with pytest.raises(ValueError):
        effective_matrix(A, X)


def test_solver_weights_column_values():
    b1 = np.array([[-0.5, 1.0], [0.5, 0.0]])
    X = GuessEnsemble(blocks=(b1,), planted_cols=(0,))
    w = solver_weights(X, 0.5)
    # column (-0.5, 0.5): 2*sqrt(0.5); column (1, 0): 1
    np.testing.assert_allclose(w, [1.4142135623730951, 1.0], atol=1e-14)


def test_solver_weights_bounded_by_support_size():
    rng = np.random.default_rng(7)
    X = small_ensemble(rng, n=6, r=4, theta=2)
    w = solver_weights(X, 0.5)
    # entries in [-1,1] make each |v|^p at most 1
    assert np.all(w <= 6.0 + 1e-12)


def test_apply_selector_discrete_copies_bitwise():
    rng = np.random.default_rng(11)
    n, r, theta = 5, 4, 3
    blocks = tuple(rng.uniform(-1, 1, size=(n, r)) for _ in range(theta))
    X = GuessEnsemble(blocks=blocks, planted_cols=(2, 0, 3))
    z = Selector.discrete((2, 0, 3), r, theta)
    out = apply_selector(X, z)
    expect = np.concatenate([blocks[l][:, k] for l, k in enumerate((2, 0, 3))])
    # bit-for-bit, not merely close
    assert np.array_equal(out, expect)


def test_apply_selector_general_combination():
    rng = np.random.default_rng(12)
    X = small_ensemble(rng, n=4, r=3, theta=2)
    z = rng.standard_normal(6)
    np.testing.assert_allclose(apply_selector(X, z), X.dense() @ z, atol=1e-13)


def test_selector_discrete_shape_and_flags():
    z = Selector.discrete((1, 0), r=3, theta=2)
    assert np.array_equal(z.block(0), [0.0, 1.0, 0.0])
    assert np.array_equal(z.block(1), [1.0, 0.0, 0.0])


def test_support_pattern_blocks_and_sbar():
    sp = SupportPattern(indices=(0, 2, 5, 9), n=4, theta=3)
    assert list(sp.block(0)) == [0, 2]
    assert list(sp.block(1)) == [1]
    assert list(sp.block(2)) == [1]
    assert list(np.bincount(np.asarray(sp.indices) // sp.n, minlength=sp.theta)) == [2, 1, 1]
    assert len(sp) == 4


def test_support_pattern_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        SupportPattern(indices=(1, 1), n=4, theta=1)
    with pytest.raises(ValueError):
        SupportPattern(indices=(4,), n=4, theta=1)


def test_guess_ensemble_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        GuessEnsemble(blocks=(np.array([[2.0], [0.0]]),), planted_cols=(0,))
    with pytest.raises(ValueError, match=r"guess block 1 has entries outside \[-1, 1\]"):  # NaN fails the range test
        GuessEnsemble(blocks=(np.array([[1.0], [0.0]]), np.array([[np.nan], [0.5]])), planted_cols=(0, 0))


def test_instance_invariants_enforced():
    rng = np.random.default_rng(5)
    n = 3
    A = BlockSensingMatrix(blocks=(np.eye(n),))
    x = np.array([1.0, 0.0, -0.5])
    support = SupportPattern(indices=(0, 2), n=n, theta=1)
    X = GuessEnsemble(blocks=(np.column_stack([x, rng.uniform(-1, 1, n)]),), planted_cols=(0,))
    inst = RelaxedInstance(A=A, X=X, x=x, support=support, y=x.copy())
    assert inst.m == n and inst.r == 2

    with pytest.raises(ValueError, match="does not equal"):
        RelaxedInstance(A=A, X=X, x=x, support=support, y=x + 1.0)
    # a NaN in y or A makes the residual NaN, which fails the check rather than passing it
    with pytest.raises(ValueError, match="does not equal"):
        RelaxedInstance(A=A, X=X, x=x, support=support, y=np.array([np.nan, 0.0, -0.5]))
    A_nan = BlockSensingMatrix(blocks=(np.diag([np.nan, 1.0, 1.0]),))
    with pytest.raises(ValueError, match="does not equal"):
        RelaxedInstance(A=A_nan, X=X, x=x, support=support, y=x.copy())
    with pytest.raises(ValueError, match="off the declared support"):
        RelaxedInstance(
            A=A,
            X=X,
            x=np.array([1.0, 0.1, -0.5]),
            support=support,
            y=np.array([1.0, 0.1, -0.5]),
        )
    # planted column must hold the hidden block verbatim
    X_bad = GuessEnsemble(
        blocks=(np.column_stack([x * 0.999, rng.uniform(-1, 1, n)]),), planted_cols=(0,)
    )
    with pytest.raises(ValueError, match="verbatim|store"):
        RelaxedInstance(A=A, X=X_bad, x=x, support=support, y=x.copy())


def test_instance_rejects_zero_guess_column():
    A = BlockSensingMatrix(blocks=(np.eye(2),))
    x = np.array([1.0, 0.0])
    X = GuessEnsemble(blocks=(np.column_stack([x, np.zeros(2)]),), planted_cols=(0,))
    support = SupportPattern(indices=(0,), n=2, theta=1)
    with pytest.raises(ValueError, match="all-zero"):
        RelaxedInstance(A=A, X=X, x=x, support=support, y=x.copy())


def test_block_matvec_matches_full():
    rng = np.random.default_rng(9)
    A = BlockSensingMatrix(blocks=tuple(rng.standard_normal((4, 3)) for _ in range(2)))
    v = rng.standard_normal(6)
    np.testing.assert_allclose(A.matvec(v), A.full() @ v, atol=1e-13)
