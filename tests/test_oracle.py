import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracle_reference import (
    discrete_lp_oracle_reference,
    enumerate_selectors_reference,
    l0_min_oracle_reference,
)

from blockrelax import oracle
from blockrelax.generate import GenConfig, build_instance
from blockrelax.model import (
    BlockSensingMatrix,
    GuessEnsemble,
    RelaxedInstance,
    SupportPattern,
    solver_weights,
)
from blockrelax.oracle import (
    ENUMERATION_GUARD,
    GRID_GUARD,
    SUBSET_GUARD,
    discrete_lp_oracle,
    enumerate_selectors,
    l0_min_oracle,
)
from blockrelax.reductions import PartitionInstance, X3CInstance, partition_to_lp, x3c_to_l0


def identity_instance(X_blocks, planted_cols, x, support_idx):
    n = X_blocks[0].shape[0]
    theta = len(X_blocks)
    A = BlockSensingMatrix(blocks=tuple(np.eye(n) for _ in range(theta)))
    X = GuessEnsemble(blocks=tuple(X_blocks), planted_cols=tuple(planted_cols))
    support = SupportPattern(indices=tuple(support_idx), n=n, theta=theta)
    return RelaxedInstance(
        A=A, X=X, x=np.asarray(x, float), support=support,
        y=A.matvec(np.asarray(x, float)),
    )


def test_enumeration_counts_and_unique_minimizer():
    x = np.array([1.0, 0.0, -0.5])
    other = np.array([0.5, 0.5, 0.5])
    inst = identity_instance([np.column_stack([x, other])], (0,), x, (0, 2))
    res = enumerate_selectors(inst, p=0.5)
    assert res.evaluated_count == 2
    assert res.feasible_count == 1
    assert res.unique
    assert res.best_combos == ((0,),)
    # objective is the weight of the selected column: 1 + sqrt(0.5)
    assert res.best_objective == pytest.approx(1.7071067811865475, abs=1e-12)


def test_enumeration_reports_duplicate_column_tie():
    x = np.array([1.0, -1.0])
    inst = identity_instance([np.column_stack([x, x])], (0,), x, (0, 1))
    res = enumerate_selectors(inst, p=0.5)
    assert res.feasible_count == 2
    assert not res.unique
    assert res.best_combos == ((0,), (1,))


def test_enumeration_matches_slow_scan():
    for seed in range(5):
        cfg = GenConfig(m=6, n=6, theta=2, r=3, s=2, master_seed=seed)
        inst = build_instance(cfg)
        res = enumerate_selectors(inst, p=0.5)
        w = solver_weights(inst.X, 0.5)
        feas_tol = 1e-8 * (1.0 + np.linalg.norm(inst.y))
        feasible = []
        for combo in itertools.product(range(inst.r), repeat=inst.theta):
            v = sum(
                inst.A.blocks[l] @ inst.X.blocks[l][:, k] for l, k in enumerate(combo)
            )
            if np.linalg.norm(v - inst.y) <= feas_tol:
                obj = sum(w[l * inst.r + k] for l, k in enumerate(combo))
                feasible.append((combo, obj))
        assert res.feasible_count == len(feasible)
        best = min(obj for _, obj in feasible)
        assert res.best_objective == pytest.approx(best, rel=1e-12)
        ties = [c for c, obj in feasible if obj <= best + 1e-9 * (1 + abs(best))]
        assert list(res.best_combos) == ties


def test_enumeration_guard_refuses_huge_scans():
    n, theta, r = 1, 3, 101
    x = np.ones(3)
    blocks = [np.full((n, r), 0.5) for _ in range(theta)]
    for b in blocks:
        b[:, 0] = 1.0
    inst = identity_instance(blocks, (0, 0, 0), x, (0, 1, 2))
    assert r**theta > ENUMERATION_GUARD
    with pytest.raises(ValueError, match="guard"):
        enumerate_selectors(inst, p=0.5)


def test_l0_oracle_identity_example():
    A = np.eye(4)
    res = l0_min_oracle(A, np.array([1.0, 0.0, 2.0, 0.0]), max_support=4)
    assert res.feasible
    assert res.min_support == 2
    assert res.witnesses == ((0, 2),)


def test_l0_oracle_zero_rhs():
    res = l0_min_oracle(np.eye(3), np.zeros(3), max_support=3)
    assert res.feasible
    assert res.min_support == 0
    assert res.witnesses == ((),)


def test_l0_oracle_infeasible():
    A = np.array([[1.0, 2.0], [0.0, 0.0]])
    res = l0_min_oracle(A, np.array([0.0, 1.0]), max_support=2)
    assert not res.feasible
    assert res.min_support is None


def test_l0_oracle_collects_all_witnesses():
    # both single columns solve y
    A = np.array([[1.0, 2.0]])
    res = l0_min_oracle(A, np.array([2.0]), max_support=1)
    assert res.min_support == 1
    assert res.witnesses == ((0,), (1,))


def test_l0_oracle_guard():
    with pytest.raises(ValueError, match="guard"):
        l0_min_oracle(np.eye(20), np.ones(20), max_support=SUBSET_GUARD + 1)


def test_grid_oracle_two_column_split():
    A = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    res = discrete_lp_oracle(A, y, p=0.5)
    assert res.feasible
    assert res.evaluated_count == 25
    assert res.min_objective == pytest.approx(1.0, abs=1e-12)
    assert set(res.witnesses) == {(0.0, 1.0), (1.0, 0.0)}
    # at p=1 the half-half split joins the tie
    res1 = discrete_lp_oracle(A, y, p=1.0)
    assert set(res1.witnesses) == {(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)}


def test_grid_oracle_half_point_objective():
    # forcing the halves: x1 + x2 = 1 and x1 - x2 = 0
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    y = np.array([1.0, 0.0])
    res = discrete_lp_oracle(A, y, p=0.5)
    assert res.witnesses == ((0.5, 0.5),)
    assert res.min_objective == pytest.approx(1.4142135623730951, abs=1e-12)


def test_grid_oracle_infeasible():
    A = np.array([[1.0, 1.0]])
    res = discrete_lp_oracle(A, np.array([0.3]), p=0.5)
    assert not res.feasible
    assert res.min_objective is None
    assert res.witnesses == ()


def test_grid_oracle_matches_slow_scan():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2, 4))
    x0 = np.array([1.0, 0.0, -0.5, 0.0])
    y = A @ x0
    res = discrete_lp_oracle(A, y, p=0.5)
    thresh = 1e-8 * (1.0 + np.linalg.norm(y))
    objs = []
    for pt in itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=4):
        v = np.asarray(pt)
        if np.linalg.norm(A @ v - y) <= thresh:
            objs.append((pt, float(np.sum(np.abs(v) ** 0.5))))
    assert res.feasible == bool(objs)
    best = min(o for _, o in objs)
    assert res.min_objective == pytest.approx(best, rel=1e-12)
    ties = [pt for pt, o in objs if o <= best + 1e-9 * (1 + abs(best))]
    assert list(res.witnesses) == ties


def test_grid_oracle_guard():
    A = np.ones((1, 11))
    assert 5**11 > GRID_GUARD
    with pytest.raises(ValueError, match="guard"):
        discrete_lp_oracle(A, np.array([1.0]), p=0.5)


# -- differential tests against the two-pass reference scans -----------------


def assert_selectors_match_reference(inst, p):
    res = enumerate_selectors(inst, p)
    ref = enumerate_selectors_reference(inst, p)
    assert res.best_combos == ref.best_combos
    assert (res.feasible_count, res.evaluated_count) == (ref.feasible_count, ref.evaluated_count)
    assert res.best_objective == pytest.approx(ref.best_objective, rel=1e-12)
    return res


def assert_grid_matches_reference(A, y, p):
    res = discrete_lp_oracle(A, y, p)
    ref = discrete_lp_oracle_reference(A, y, p)
    assert res.witnesses == ref.witnesses
    assert (res.feasible, res.evaluated_count) == (ref.feasible, ref.evaluated_count)
    if ref.feasible:
        assert res.min_objective == pytest.approx(ref.min_objective, rel=1e-12)
    else:
        assert res.min_objective is None
    return res


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("theta", [1, 2, 3, 4, 5])
def test_selectors_match_reference_scan(theta, p):
    for seed in range(3):
        for law in ("ternary", "alphabet"):
            cfg = GenConfig(m=4, n=4, theta=theta, r=3, s=2, guess_law=law, master_seed=seed)
            assert_selectors_match_reference(build_instance(cfg), p)


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_selectors_match_reference_with_duplicate_column_ties(p):
    x = np.array([1.0, -0.5])
    other = np.array([0.5, 1.0])
    inst = identity_instance([np.column_stack([x, other, x])] * 3, (0, 0, 0), np.tile(x, 3), (0, 1, 2, 3, 4, 5))
    res = assert_selectors_match_reference(inst, p)
    assert len(res.best_combos) == 8  # columns 0 and 2 of every block tie


def test_selectors_match_reference_on_infeasible_y():
    inst = build_instance(GenConfig(m=4, n=4, theta=3, r=3, s=2, master_seed=1))
    # a planted instance is always feasible, so stand in an observation no selector reaches
    off = SimpleNamespace(r=inst.r, theta=inst.theta, A=inst.A, X=inst.X, y=inst.y + 10.0)
    res = assert_selectors_match_reference(off, 0.5)
    assert res.feasible_count == 0 and res.best_combos == () and res.best_objective == np.inf


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("ncols", range(9))
def test_grid_matches_reference_scan(ncols, p):
    rng = np.random.default_rng(ncols)
    A = rng.standard_normal((2, ncols))
    x0 = rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0), size=ncols)
    res = assert_grid_matches_reference(A, A @ x0, p)
    assert res.feasible


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_grid_matches_reference_with_duplicate_column_ties(p):
    rng = np.random.default_rng(11)
    a, b, c = rng.standard_normal((3, 3))
    A = np.column_stack([a, a, b, b, c])
    res = assert_grid_matches_reference(A, A @ np.array([1.0, 0.0, 0.0, -0.5, 0.5]), p)
    assert len(res.witnesses) > 1


def test_grid_matches_reference_on_infeasible_y():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 4))
    res = assert_grid_matches_reference(A, rng.standard_normal(3), 0.5)
    assert not res.feasible


def test_grid_matches_reference_across_pair_blocks():
    # a 5**8 grid spans many blocks of whole head rows ...
    rec = partition_to_lp(PartitionInstance(a=(1.0, 2.0, 3.0, 4.0)))
    assert_grid_matches_reference(rec.A.full(), rec.y, 0.5)
    # ... and 600 rows split each head row's 5**3 tails over two blocks; the two
    # minimizers sit in adjacent head rows, the first one in the second block
    rng = np.random.default_rng(4)
    A = rng.standard_normal((600, 6))
    A[:, 3] = A[:, 2]
    assert oracle._PAIR_FLOATS // 600 < 5**3
    res = assert_grid_matches_reference(A, A @ np.array([-0.5, -1.0, 0.5, 1.0, 0.0, 0.5]), 1.0)
    assert res.witnesses == ((-0.5, -1.0, 0.5, 1.0, 0.0, 0.5), (-0.5, -1.0, 1.0, 0.5, 0.0, 0.5))


def test_grid_scan_memory_stays_bounded():
    # a 5**10 grid (Partition with m = 5) peaks below the 3.8 MB that the 5**8 grid needed before
    rec = partition_to_lp(PartitionInstance(a=(1.0, 2.0, 3.0, 1.0, 2.0)))
    tracemalloc.start()
    try:
        res = discrete_lp_oracle(rec.A.full(), rec.y, p=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.evaluated_count == 5**10
    assert peak < 4_000_000, f"peak traced allocation {peak} bytes"


# -- differential tests of the subset oracle against per-subset lstsq fits ----


def assert_subsets_match_reference(A, y, max_support):
    res = l0_min_oracle(A, y, max_support)
    ref = l0_min_oracle_reference(A, y, max_support)
    assert (res.feasible, res.min_support, res.witnesses) == (ref.feasible, ref.min_support, ref.witnesses)
    return res


@pytest.mark.parametrize("seed", range(6))
def test_subsets_match_reference_on_random_matrices(seed):
    rng = np.random.default_rng(seed)
    rows, ncols = (3, 6) if seed % 2 else (6, 8)
    A = rng.standard_normal((rows, ncols))
    x0 = np.zeros(ncols)
    x0[rng.choice(ncols, size=min(3, rows), replace=False)] = rng.standard_normal(min(3, rows))
    res = assert_subsets_match_reference(A, A @ x0, max_support=4)
    assert res.feasible


@pytest.mark.parametrize(
    "case, expected",
    [
        # column 1 is zero: every subset holding it has rank below its size
        ("zero column", ((0, 2, 3),)),
        # column 3 repeats column 0, so (0, 3) spans one direction only
        ("duplicated column", ((0, 2), (2, 3))),
        # columns 0, 1 and 3 span one plane
        ("collinear columns", ((0, 1), (0, 3), (1, 3))),
    ],
)
def test_subsets_match_reference_on_rank_deficient_subsets(case, expected):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 4))
    if case == "zero column":
        A[:, 1] = 0.0
        y = A[:, 0] - 2.0 * A[:, 2] + A[:, 3]
    elif case == "duplicated column":
        A[:, 3] = A[:, 0]
        y = A[:, 0] + A[:, 2]
    else:
        A[:, 3] = 2.0 * A[:, 0] - A[:, 1]
        y = A[:, 0] + 0.5 * A[:, 1]
    res = assert_subsets_match_reference(A, y, max_support=3)
    assert res.min_support == len(expected[0]) and res.witnesses == expected


def test_subsets_match_reference_on_infeasible_y():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 5))
    A[:, 4] = A[:, 0]
    res = assert_subsets_match_reference(A, rng.standard_normal(6), max_support=4)
    assert not res.feasible and res.witnesses == ()


def test_subsets_match_reference_on_x3c_reductions():
    pool = ((0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5), (0, 2, 4), (1, 3, 5), (1, 2, 3), (0, 4, 5))
    count = 0
    for size in range(1, 5):
        for chosen in itertools.combinations(pool, size):
            rec = x3c_to_l0(X3CInstance(m=6, triples=chosen))
            assert_subsets_match_reference(rec.A.full(), rec.y, max_support=2)
            count += 1
    assert count == 162


def test_subsets_match_reference_across_blocks():
    # 1001 subsets of size 4 span four blocks; columns 12 and 13 repeat columns
    # 1 and 0, so the four witnesses lie in the first, second and last blocks
    rng = np.random.default_rng(9)
    A = rng.standard_normal((60, 14))
    A[:, 12], A[:, 13] = A[:, 1], A[:, 0]
    assert oracle._PAIR_FLOATS // (60 * 4) < 286 < 2 * (oracle._PAIR_FLOATS // (60 * 4))
    res = assert_subsets_match_reference(A, A[:, :4].sum(axis=1), max_support=4)
    assert res.witnesses == ((0, 1, 2, 3), (0, 2, 3, 12), (1, 2, 3, 13), (2, 3, 12, 13))


def test_subset_scan_memory_stays_bounded():
    # 38 760 subsets of size 6 would stack into 37 MB at once
    rng = np.random.default_rng(10)
    A = rng.standard_normal((20, 20))
    x0 = np.zeros(20)
    x0[[1, 4, 7, 11, 15, 19]] = 1.0
    tracemalloc.start()
    try:
        res = l0_min_oracle(A, A @ x0, max_support=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.witnesses == ((1, 4, 7, 11, 15, 19),)
    # the stack, LAPACK's copy of it and U each hold at most _PAIR_FLOATS floats
    assert peak < 6 * 8 * oracle._PAIR_FLOATS, f"peak traced allocation {peak} bytes"
