import hashlib
import itertools
import math

import numpy as np
import pytest

from blockrelax import reductions
from blockrelax.oracle import GridOracleResult, discrete_lp_oracle
from blockrelax.reductions import (
    PartitionInstance,
    X3CInstance,
    decide_partition_via_lp,
    decide_x3c_via_l0,
    has_exact_cover,
    has_partition,
    partition_to_lp,
    x3c_to_l0,
)
from blockrelax.storage import load_reduction, save_reduction


def test_x3c_instance_validation():
    with pytest.raises(ValueError):
        X3CInstance(m=4, triples=((0, 1, 2),))
    with pytest.raises(ValueError):
        X3CInstance(m=6, triples=((0, 1, 1),))
    with pytest.raises(ValueError):
        X3CInstance(m=6, triples=((0, 1, 6),))
    with pytest.raises(ValueError):
        X3CInstance(m=6, triples=((0, 1, 2), (2, 1, 0)))
    # triples are stored sorted
    inst = X3CInstance(m=6, triples=((5, 3, 4),))
    assert inst.triples == ((3, 4, 5),)


def test_has_exact_cover_small_cases():
    assert has_exact_cover(X3CInstance(m=3, triples=((0, 1, 2),)))
    assert has_exact_cover(X3CInstance(m=6, triples=((0, 1, 2), (3, 4, 5))))
    assert not has_exact_cover(X3CInstance(m=6, triples=((0, 1, 2), (2, 3, 4))))
    assert has_exact_cover(
        X3CInstance(m=6, triples=((0, 1, 2), (2, 3, 4), (3, 4, 5)))
    )
    # overlapping triples only: every pair collides
    assert not has_exact_cover(
        X3CInstance(m=6, triples=((0, 1, 2), (0, 3, 4), (0, 4, 5)))
    )


def test_x3c_reduction_structure():
    inst = X3CInstance(m=6, triples=((0, 1, 2), (3, 4, 5), (1, 3, 5)))
    rec = x3c_to_l0(inst, n=3, seed=4)
    assert rec.A.theta == 3
    assert rec.A.m == inst.m + 3 - 1
    assert rec.A.n == 3
    np.testing.assert_array_equal(rec.y[: inst.m], 1.0)
    np.testing.assert_array_equal(rec.y[inst.m :], 0.0)
    assert rec.certificate_target == 2.0
    for b in rec.A.blocks:
        col_sq = np.sum(b**2, axis=0)
        assert np.all(col_sq >= 1.0 - 1e-12)
        assert np.all(col_sq <= 3.0 + 1e-12)
        spec = np.linalg.norm(b, 2)
        assert 1.0 - 1e-9 <= spec <= math.sqrt(3.0) + 1e-9
        # indicator column lives on the ground rows, the tail columns below them
        assert not b[inst.m :, 0].any()
        assert not b[: inst.m, 1:].any()
    assert rec.extra["triples"] == "1,2,3;4,5,6;2,4,6"


def test_x3c_reduction_digest():
    # pins the orthogonal tails over several sizes, seeds and theta: one
    # (theta, n-1, n-1) Gaussian draw from the generator keyed by
    # (seed, 'x3c-orthogonal') and one batched QR
    h = hashlib.sha256()
    for m in (6, 9, 12):
        triples = list(itertools.combinations(range(m), 3))[:: max(1, m - 4)][:7]
        inst = X3CInstance(m=m, triples=tuple(triples))
        for n in range(2, m - 2):
            for seed in range(3):
                for b in x3c_to_l0(inst, n=n, seed=seed).A.blocks:
                    h.update(b.tobytes())
    assert h.hexdigest() == "17381da5081f966f2f4e089cb1861507a949f8593b126cc5705f7a04a742caae"


def test_x3c_reduction_rejects_bad_width():
    inst = X3CInstance(m=6, triples=((0, 1, 2), (3, 4, 5)))
    with pytest.raises(ValueError):
        x3c_to_l0(inst, n=1)
    with pytest.raises(ValueError):
        x3c_to_l0(inst, n=4)


def test_decide_x3c_positive_and_negative():
    yes = X3CInstance(m=6, triples=((0, 1, 2), (3, 4, 5)))
    assert decide_x3c_via_l0(yes)
    no = X3CInstance(m=6, triples=((0, 1, 2), (2, 3, 4)))
    assert not decide_x3c_via_l0(no)
    # decoy triples present, cover still exists
    mixed = X3CInstance(m=6, triples=((0, 1, 2), (2, 3, 4), (3, 4, 5), (0, 2, 4)))
    assert decide_x3c_via_l0(mixed)


def test_decide_x3c_matches_direct_scan_on_fixture_pool():
    pool = ((0, 1, 2), (3, 4, 5), (1, 3, 5), (0, 2, 4), (1, 2, 3))
    for k in (2, 3):
        for triples in itertools.combinations(pool, k):
            inst = X3CInstance(m=6, triples=triples)
            assert decide_x3c_via_l0(inst) == has_exact_cover(inst), triples


def test_partition_instance_validation():
    with pytest.raises(ValueError):
        PartitionInstance(a=())
    with pytest.raises(ValueError):
        PartitionInstance(a=(1.0, -2.0))
    with pytest.raises(ValueError):
        PartitionInstance(a=(0.0, 1.0))


def test_has_partition_small_cases():
    assert has_partition(PartitionInstance(a=(1.0, 1.0)))
    assert not has_partition(PartitionInstance(a=(1.0, 2.0)))
    assert has_partition(PartitionInstance(a=(1.0, 2.0, 3.0)))
    assert has_partition(PartitionInstance(a=(2.0, 3.0, 4.0, 5.0)))
    assert not has_partition(PartitionInstance(a=(1.0, 1.0, 1.0)))


def test_partition_reduction_structure():
    inst = PartitionInstance(a=(1.0, 2.0, 3.0))
    rec = partition_to_lp(inst, theta=2)
    m = inst.m
    full = rec.A.full()
    assert full.shape == (m + 1, 2 * m)
    np.testing.assert_array_equal(full[:m, :m], np.eye(m))
    np.testing.assert_array_equal(full[:m, m:], np.eye(m))
    c = float(rec.extra["row_scale"])
    np.testing.assert_allclose(full[m, :m], c * np.asarray(inst.a), atol=1e-15)
    np.testing.assert_allclose(full[m, m:], -c * np.asarray(inst.a), atol=1e-15)
    for b in rec.A.blocks:
        spec = np.linalg.norm(b, 2)
        assert math.sqrt(0.5) - 1e-9 <= spec <= math.sqrt(1.5) + 1e-9
    assert rec.certificate_target == float(m)
    with pytest.raises(ValueError):
        partition_to_lp(inst, theta=3)
    with pytest.raises(ValueError):
        partition_to_lp(inst, theta=4)  # 2m = 6 not divisible by 4


def test_decide_partition_positive_and_negative():
    assert decide_partition_via_lp(PartitionInstance(a=(1.0, 1.0)))
    assert not decide_partition_via_lp(PartitionInstance(a=(1.0, 2.0)))
    assert decide_partition_via_lp(PartitionInstance(a=(1.0, 2.0, 3.0)))
    assert not decide_partition_via_lp(PartitionInstance(a=(1.0, 1.0, 1.0)))


def test_decide_partition_raises_on_an_oracle_minimum_below_m(monkeypatch):
    # the check on the oracle's answer is an explicit raise, so it survives python -O
    inst = PartitionInstance(a=(1.0, 1.0))
    below = GridOracleResult(feasible=True, min_objective=1.5, witnesses=(), evaluated_count=625)
    monkeypatch.setattr(reductions, "discrete_lp_oracle", lambda *a, **k: below)
    with pytest.raises(RuntimeError, match="1.5 is below the threshold m = 2"):
        decide_partition_via_lp(inst)
    none = GridOracleResult(feasible=False, min_objective=None, witnesses=(), evaluated_count=625)
    monkeypatch.setattr(reductions, "discrete_lp_oracle", lambda *a, **k: none)
    with pytest.raises(RuntimeError, match="no feasible point"):
        decide_partition_via_lp(inst)


def test_partition_oracle_values_two_weights():
    # a = (1, 2): only the all-halves point balances, costing 4*sqrt(1/2)
    rec = partition_to_lp(PartitionInstance(a=(1.0, 2.0)))
    res = discrete_lp_oracle(rec.A.full(), rec.y, p=0.5)
    assert res.min_objective == pytest.approx(2.8284271247461903, rel=1e-12)
    assert res.witnesses == ((0.5, 0.5, 0.5, 0.5),)
    # a = (1, 1): the binary split (1,0 | 0,1) reaches the threshold m = 2
    rec = partition_to_lp(PartitionInstance(a=(1.0, 1.0)))
    res = discrete_lp_oracle(rec.A.full(), rec.y, p=0.5)
    assert res.min_objective == pytest.approx(2.0, rel=1e-12)
    assert (1.0, 0.0, 0.0, 1.0) in res.witnesses
    assert (0.0, 1.0, 1.0, 0.0) in res.witnesses


def test_x3c_record_round_trip(tmp_path):
    inst = X3CInstance(m=6, triples=((0, 1, 2), (1, 3, 5)))
    rec = x3c_to_l0(inst, n=2, seed=7)
    path = tmp_path / "x3c.txt"
    save_reduction(rec, str(path))
    back = load_reduction(str(path))
    assert back.reduction == "x3c"
    assert back.certificate_target == rec.certificate_target
    for ba, bb in zip(back.A.blocks, rec.A.blocks):
        assert np.array_equal(ba, bb)
    assert back.extra["triples"] == rec.extra["triples"]
    assert int(back.extra["ground_set"]) == 6


def test_reduction_container_rejects_unknown_section(tmp_path):
    # a section past A 1 .. A theta and y would be dropped by the next save, so loading names it
    rec = x3c_to_l0(X3CInstance(m=6, triples=((0, 1, 2), (3, 4, 5))), n=2, seed=7)
    path = tmp_path / "x3c.txt"
    save_reduction(rec, str(path))
    extra = f"A {rec.A.theta + 1}"
    path.write_text(path.read_text() + f"[{extra}] 1 2\n1,2\n")
    with pytest.raises(ValueError, match=f"^container has unknown section '{extra}'$"):
        load_reduction(str(path))
