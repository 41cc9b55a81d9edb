import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from blockrelax import generate, sweep
from blockrelax.concentration import ConcentrationStudy
from blockrelax.generate import (
    GUESS_LAWS,
    SENSING_KINDS,
    SUPPORT_MODES,
    GenConfig,
    _condition,
    build_instance,
    derive_seed,
    draw_guesses,
    draw_instances,
    instance_generator,
    sample_instances,
    sense,
)
from blockrelax.model import BlockSensingMatrix, GuessEnsemble, RelaxedInstance, SupportPattern
from blockrelax.reductions import PartitionInstance, X3CInstance, partition_to_lp, x3c_to_l0
from blockrelax.storage import (
    ReductionRecord,
    load_instance,
    load_reduction,
    save_instance,
    save_reduction,
)


def base_cfg(**kw):
    args = dict(m=8, n=8, theta=3, r=4, s=3, master_seed=41)
    args.update(kw)
    return GenConfig(**args)


def test_config_moments():
    cfg = base_cfg()
    assert cfg.p_x == pytest.approx(0.625, abs=1e-15)
    assert cfg.p_X == pytest.approx(cfg.nu, abs=1e-15)
    alt = base_cfg(guess_law="alphabet", guess_density=0.4)
    assert alt.p_X == pytest.approx(0.4 * 0.625, abs=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        base_cfg(planted_alphabet=(0.0, 1.0, -1.0))
    with pytest.raises(ValueError):
        base_cfg(planted_alphabet=(0.5, 1.0))  # not symmetric
    with pytest.raises(ValueError):
        base_cfg(planted_alphabet=(1.5, -1.5))
    with pytest.raises(ValueError, match="alphabet values must be distinct"):
        base_cfg(planted_alphabet=(-1.0, -1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        base_cfg(m=4, n=8)  # orthonormal blocks need m >= n
    with pytest.raises(ValueError):
        base_cfg(s=0)
    with pytest.raises(ValueError):
        base_cfg(guess_density=0.0)
    # gaussian kind tolerates m < n
    GenConfig(m=4, n=8, theta=1, r=2, s=3, sensing_kind="gaussian")


def keyed(seed, label, index=0):
    return instance_generator(derive_seed(seed, label, index))


def test_keyed_generators_reproducible_and_separated():
    a = keyed(7, "support").standard_normal(4)
    b = keyed(7, "support").standard_normal(4)
    assert np.array_equal(a, b)
    c = keyed(7, "planted").standard_normal(4)
    d = keyed(7, "support", index=1).standard_normal(4)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derive_seed_stable():
    s1 = derive_seed(123, "cell", 5)
    s2 = derive_seed(123, "cell", 5)
    assert s1 == s2
    assert s1 != derive_seed(123, "cell", 6)
    assert s1 != derive_seed(124, "cell", 5)
    assert s1 != derive_seed(123, "trial", 5)


def test_build_instance_deterministic():
    cfg = base_cfg()
    a = build_instance(cfg)
    b = build_instance(cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert a.support.indices == b.support.indices
    assert a.X.planted_cols == b.X.planted_cols
    for ba, bb in zip(a.A.blocks, b.A.blocks):
        assert np.array_equal(ba, bb)
    for ba, bb in zip(a.X.blocks, b.X.blocks):
        assert np.array_equal(ba, bb)


def assert_same_instance(got, ref):
    for a, b in [(got.A.blocks, ref.A.blocks), (got.X.blocks, ref.X.blocks), (got.x, ref.x), (got.y, ref.y)]:
        assert np.array_equal(a, b)
    assert got.support == ref.support
    assert got.X.planted_cols == ref.X.planted_cols
    assert got.config == ref.config


@pytest.mark.parametrize("law", GUESS_LAWS)
@pytest.mark.parametrize("mode", SUPPORT_MODES)
@pytest.mark.parametrize("kind", SENSING_KINDS)
def test_chunks_equal_single_instances(kind, mode, law):
    # every chunking of 7 trials (sizes 1, 3 with a partial last chunk, and 7)
    # gives one stack whose instance(i) is build_instance's bit for bit, and
    # passes the checking constructors; uniform supports of s * theta = 3
    # slots leave a block empty in most draws, and each such draw fails alone,
    # its error at its trial's position and its row kept, so row i is trial i
    cfg = base_cfg(sensing_kind=kind, support_mode=mode, guess_law=law, s=1 if mode == "uniform" else 3)
    seeds = [derive_seed(9, "trial", t) for t in range(7)]
    refs = []
    for seed in seeds:
        try:
            refs.append(build_instance(dataclasses.replace(cfg, master_seed=seed)))
        except ValueError as exc:
            refs.append(exc)
    if mode == "uniform":
        assert 0 < sum(isinstance(ref, ValueError) for ref in refs) < len(refs)
    for size in (1, 3, 7):
        for start in range(0, len(seeds), size):
            part = seeds[start : start + size]
            stack = sample_instances(cfg, part, [instance_generator(seed) for seed in part])
            want = refs[start : start + size]
            assert stack.seeds == tuple(part)
            assert sorted(stack.errors) == [i for i, ref in enumerate(want) if isinstance(ref, ValueError)]
            assert all(len(a) == len(part) for a in (stack.A, stack.X, stack.x, stack.y, stack.support, stack.planted))
            for i, ref in enumerate(want):
                if isinstance(ref, ValueError):
                    assert isinstance(stack.errors[i], ValueError) and str(stack.errors[i]) == str(ref)
                    with pytest.raises(ValueError, match="empty support"):
                        stack.instance(i)
                else:
                    assert_same_instance(stack.instance(i), ref)
                    assert_passes_checks(stack.instance(i))


def assert_passes_checks(inst):
    """An instance of a stack is one the checking constructors accept as it is: rebuilding it changes nothing."""
    for a in (inst.A.blocks, inst.X.blocks, inst.x, inst.y):
        assert a.dtype == np.float64 and a.flags.c_contiguous
    checked = RelaxedInstance(
        A=BlockSensingMatrix(inst.A.blocks),
        X=GuessEnsemble(inst.X.blocks, inst.X.planted_cols),
        x=inst.x,
        support=SupportPattern(inst.support.indices, inst.n, inst.theta),
        y=inst.y,
        config=inst.config,
    )
    assert checked.support == inst.support  # already sorted and distinct
    assert checked.X.planted_cols == inst.X.planted_cols
    assert np.array_equal(checked.A.matvec(inst.x), inst.y)  # y = A x to the bit


def test_chunk_trial_whose_redraws_give_up_fails_alone(monkeypatch):
    # one trial of a chunk has its zero-column redraws give up while the
    # others succeed: each other trial is build_instance's bit for bit, the
    # error sits at the failed trial's position, whose row is kept with zero
    # sensing Gaussians, its record is that error, and every generator goes
    # on where per-trial draws in the stream-4 order leave it, the failed one
    # past its guess columns with no sensing drawn
    cfg = base_cfg(guess_density=0.3)
    seeds = [derive_seed(4, "trial", t) for t in range(5)]
    rngs = [instance_generator(seed) for seed in seeds]
    condition, failed = generate._condition, 2

    def give_up(cfg, gens, cols):
        # the failed trial of this chunk gives up before any redraw; the trials
        # around it, and build_instance's chunks of one, redraw as ever
        if gens is not rngs:
            return condition(cfg, gens, cols)
        head = condition(cfg, rngs[:failed], cols[:failed])
        tail = condition(cfg, rngs[failed + 1 :], cols[failed + 1 :])
        return {**head, failed: ValueError("redraws gave up"), **{failed + 1 + i: e for i, e in tail.items()}}

    monkeypatch.setattr(generate, "_condition", give_up)
    stack = sample_instances(cfg, seeds, rngs)
    assert list(stack.errors) == [failed]
    assert all(len(a) == 5 for a in (stack.A, stack.X, stack.x, stack.y, stack.support, stack.planted))
    zeros = np.zeros((1, *generate._sensing_shape(cfg)))
    assert np.array_equal(stack.A[failed], generate._sensing_stacks(cfg, zeros)[0])
    with pytest.raises(ValueError, match="redraws gave up"):
        stack.instance(failed)
    records = sweep._records(sweep.Cell(0, cfg, 0.5, len(seeds), 0), stack)
    assert [r.verdict == "error" for r in records] == [i == failed for i in range(5)]
    assert records[failed].error is stack.errors[failed]
    for i in (0, 1, 3, 4):
        assert_same_instance(stack.instance(i), build_instance(dataclasses.replace(cfg, master_seed=seeds[i])))
    for i, seed in enumerate(seeds):
        ref = instance_generator(seed)
        ref.random((cfg.theta, cfg.n))
        ref.integers(0, len(cfg.planted_alphabet), size=cfg.s * cfg.theta)
        ref.integers(0, cfg.r, size=cfg.theta)
        cols = draw_guesses(cfg, [ref], np.empty((1, cfg.theta, cfg.r, cfg.n)))
        if i != failed:
            condition(cfg, [ref], cols)
            ref.standard_normal((cfg.theta, cfg.m, cfg.n))
        assert ref.random(3).tolist() == rngs[i].random(3).tolist()


@pytest.mark.parametrize("kind", SENSING_KINDS)
def test_sensing_some_rows_gives_those_rows_of_the_whole_stack(kind):
    # a drawn stack holds Gaussians, not sensing stacks: sensing any rows of it
    # (scattered, one, the partial last chunk's) gives those rows' A and y of
    # the whole stack's sensing, bit for bit, and so does drawing and sensing
    # the partial chunk's trials alone
    cfg = base_cfg(sensing_kind=kind)
    seeds = [derive_seed(12, "trial", t) for t in range(7)]
    stack = draw_instances(cfg, seeds, [instance_generator(seed) for seed in seeds])
    assert stack.A is None and stack.y is None
    A, y = sense(stack, slice(None))
    assert A.shape == (7, cfg.theta, cfg.m, cfg.n) and y.shape == (7, cfg.m)
    for rows in ([0, 2, 5], [6], np.arange(4, 7)):
        part_A, part_y = sense(stack, rows)
        assert part_A.tobytes() == A[rows].tobytes() and part_y.tobytes() == y[rows].tobytes()
    tail = draw_instances(cfg, seeds[4:], [instance_generator(seed) for seed in seeds[4:]])
    tail_A, tail_y = sense(tail, slice(None))
    assert tail_A.tobytes() == A[4:].tobytes() and tail_y.tobytes() == y[4:].tobytes()


def supports_reference(cfg, keys):
    """``generate._supports`` as a mask of the chosen slots, read back in row-major order."""
    take = cfg.s if cfg.support_mode == "equidistributed" else cfg.s * cfg.theta
    chosen = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(chosen, np.argsort(keys, axis=-1)[..., :take], True, axis=-1)
    return np.flatnonzero(chosen).reshape(len(keys), cfg.s * cfg.theta) % (cfg.n * cfg.theta)


@pytest.mark.parametrize("mode", SUPPORT_MODES)
def test_supports_equal_the_mask_reference(mode):
    for n, theta, s in ((8, 3, 3), (5, 4, 1), (6, 2, 6), (1, 3, 1)):
        cfg = base_cfg(m=8, n=n, theta=theta, s=s, support_mode=mode)
        keys = instance_generator(n * theta + s).random((50, *generate._key_shape(cfg)))
        got, want = generate._supports(cfg, keys), supports_reference(cfg, keys)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_draw_redraws_only_trials_with_an_all_zero_column(monkeypatch):
    # at n = 4 and nu = 0.3 a first-drawn column is all-zero with probability
    # 0.7^4 ~ 0.24, so some trials of two columns have one and some do not:
    # _condition redraws from exactly the generators of those that do (each
    # redraw a draw_guesses row of one), and each trial's guesses and sensing
    # Gaussians are those of per-trial draws that condition every trial
    cfg = base_cfg(m=4, n=4, theta=1, r=2, s=2, guess_density=0.3)
    seeds = [derive_seed(6, "trial", t) for t in range(40)]
    rngs = [instance_generator(seed) for seed in seeds]
    condition, draw, redrew = generate._condition, generate.draw_guesses, []

    def spy(cfg, g, out):
        if len(out) == 1:  # the chunk's own draw has a row per trial
            redrew.append(next(i for i, rng in enumerate(rngs) if rng is g[0]))
        return draw(cfg, g, out)

    monkeypatch.setattr(generate, "draw_guesses", spy)
    stack = draw_instances(cfg, seeds, rngs)
    monkeypatch.setattr(generate, "draw_guesses", draw)
    called = list(dict.fromkeys(redrew))  # a trial may redraw in several rounds
    had_zero = []
    for i, seed in enumerate(seeds):
        ref = instance_generator(seed)
        ref.random(generate._key_shape(cfg))
        ref.integers(0, len(cfg.planted_alphabet), size=cfg.s * cfg.theta)
        ref.integers(0, cfg.r, size=cfg.theta)
        cols = draw_guesses(cfg, [ref], np.empty((1, cfg.theta, cfg.r, cfg.n)))
        had_zero.append(not cols.any(axis=-1).all())
        condition(cfg, [ref], cols)
        assert stack.X[i].tobytes() == np.ascontiguousarray(cols[0].transpose(0, 2, 1)).tobytes()
        assert stack.gauss[i].tobytes() == ref.standard_normal(generate._sensing_shape(cfg)).tobytes()
    assert called == [i for i, zero in enumerate(had_zero) if zero]
    assert 0 < len(called) < len(seeds)


def test_stream_isolation_across_parameters():
    # one generator, drawn in the order support, planted values, guesses,
    # sensing: a knob read only by a later draw leaves every earlier one alone
    ref = build_instance(base_cfg())
    other_kind = build_instance(base_cfg(sensing_kind="repeated-unitary"))
    assert np.array_equal(ref.x, other_kind.x)
    assert ref.support.indices == other_kind.support.indices
    assert ref.X.planted_cols == other_kind.X.planted_cols
    assert np.array_equal(ref.X.blocks, other_kind.X.blocks)

    wider = build_instance(base_cfg(r=6))
    assert np.array_equal(ref.x, wider.x)
    assert ref.support.indices == wider.support.indices


def chunk(cfg, seeds):
    """The instances of ``cfg`` with master seeds ``seeds``, drawn as one chunk."""
    stack = sample_instances(cfg, seeds, [instance_generator(seed) for seed in seeds])
    return [stack.instance(i) for i in range(len(seeds))]


def block_counts(sp):
    return np.bincount(np.asarray(sp.indices) // sp.n, minlength=sp.theta)


def test_equidistributed_support_counts():
    cfg = base_cfg(support_mode="equidistributed")
    for inst in chunk(cfg, range(20)):
        assert list(block_counts(inst.support)) == [cfg.s] * cfg.theta


def test_uniform_support_total_and_moments():
    # gaussian sensing with one row keeps the 200 draws cheap; a block is left
    # empty with probability about 3e-4 per instance, and none of these is
    cfg = GenConfig(m=1, n=100, theta=10, r=2, s=10, support_mode="uniform", sensing_kind="gaussian")
    counts = []
    for inst in chunk(cfg, range(200)):
        assert len(inst.support) == cfg.s * cfg.theta
        counts.extend(block_counts(inst.support))
    counts = np.asarray(counts, dtype=float)
    # block counts are hypergeometric: N=1000 slots, 100 drawn, class size 100
    mean, var = 10.0, 8.10810810810811
    se_mean = np.sqrt(var / counts.size)
    assert abs(counts.mean() - mean) < 4 * se_mean
    assert abs(counts.var() - var) < 0.15 * var


def test_planted_vector_alphabet_and_support():
    cfg = base_cfg()
    for inst in chunk(cfg, range(10)):
        sp, x = inst.support, inst.x
        off = np.ones(x.size, dtype=bool)
        off[list(sp.indices)] = False
        assert not x[off].any()
        vals = x[list(sp.indices)]
        assert set(np.round(vals, 12)).issubset({-1.0, -0.5, 0.5, 1.0})


def guess_columns(cfg, rng, shape):
    """Guess columns (*shape, n), each conditioned nonzero: a ``draw_guesses`` row of one, then ``_condition``.

    A row that gives up raises its error.
    """
    cols = draw_guesses(cfg, [rng], np.empty((1, *shape, cfg.n)))
    for exc in _condition(cfg, [rng], cols).values():
        raise exc
    return cols[0]


def test_guess_column_laws():
    cfg = base_cfg(guess_density=0.3)
    cols = guess_columns(cfg, instance_generator(0), (200,))
    assert cols.shape == (200, cfg.n)
    assert set(np.unique(cols)).issubset({-1.0, 0.0, 1.0})
    assert np.all(np.abs(cols).sum(axis=1) > 0)

    alph_cfg = base_cfg(guess_law="alphabet", guess_density=0.3)
    cols = guess_columns(alph_cfg, instance_generator(1), (5, 10))
    assert cols.shape == (5, 10, alph_cfg.n)
    assert set(np.unique(cols)).issubset({-1.0, -0.5, 0.0, 0.5, 1.0})


def test_guess_column_density():
    cfg = base_cfg(n=50, m=50, guess_density=0.25)
    draws = draw_guesses(cfg, [instance_generator(3)], np.empty((1, 2000, cfg.n)))[0]
    frac = np.mean(draws != 0)
    # binomial standard error at p=0.25 over 100000 entries
    assert abs(frac - 0.25) < 4 * np.sqrt(0.25 * 0.75 / draws.size)


def test_guess_columns_conditioned_law():
    # at nu = 0.3 and n = 4 a first draw is all-zero with probability 0.7^4 ~ 0.24
    cfg = base_cfg(n=4, m=4, s=2, guess_density=0.3)
    shape = (20000,)
    first = draw_guesses(cfg, [instance_generator(4)], np.empty((1, *shape, cfg.n)))[0]
    cols = guess_columns(cfg, instance_generator(4), shape)
    zero = ~first.any(axis=1)
    assert 0.2 < zero.mean() < 0.28
    # nonzero columns of the first draw are kept; only the zero ones are redrawn
    assert np.array_equal(cols[~zero], first[~zero])
    counts = np.count_nonzero(cols, axis=1)
    assert counts.min() >= 1
    norm = 1.0 - 0.7**4
    for k in range(1, 5):
        q = math.comb(4, k) * 0.3**k * 0.7 ** (4 - k) / norm
        assert abs(np.mean(counts == k) - q) < 4 * np.sqrt(q * (1 - q) / counts.size)


@pytest.mark.parametrize("law", GUESS_LAWS)
def test_draw_guesses_takes_a_lazy_iterator(law):
    # each generator is pulled only when its row is drawn, with the same bits
    # as a list of the same generators
    cfg = base_cfg(guess_law=law, guess_density=0.3)
    shape = (5, cfg.theta, cfg.r, cfg.n)
    listed = draw_guesses(cfg, [keyed(3, "lazy", i) for i in range(5)], np.empty(shape))
    lazy = draw_guesses(cfg, (keyed(3, "lazy", i) for i in range(5)), np.empty(shape))
    assert lazy.tobytes() == listed.tobytes()


def test_guess_columns_give_up_on_vanishing_density():
    cfg = base_cfg(n=4, m=4, s=2, guess_density=1e-12)
    with pytest.raises(ValueError, match="nonzero guess column"):
        guess_columns(cfg, instance_generator(0), (2,))


def test_ensemble_plants_columns_verbatim():
    cfg = base_cfg(master_seed=5)
    inst = build_instance(cfg)
    X, x, n = inst.X, inst.x, cfg.n
    for l, k in enumerate(X.planted_cols):
        assert np.array_equal(X.blocks[l][:, k], x[l * n : (l + 1) * n])
    assert not X.zero_columns()


def test_ensemble_rejects_empty_block_support():
    # uniform supports of s * theta = 3 slots over theta = 3 blocks leave some block
    # empty; the support is the slots holding the smallest of the uniform keys that
    # an instance's generator draws first
    cfg = base_cfg(s=1, support_mode="uniform")
    seed = next(
        seed for seed in range(100)
        if 0 in np.bincount(
            np.argsort(instance_generator(seed).random(cfg.n * cfg.theta))[: cfg.s * cfg.theta] // cfg.n,
            minlength=cfg.theta,
        )
    )
    with pytest.raises(ValueError, match="empty support"):
        build_instance(dataclasses.replace(cfg, master_seed=seed))


def test_a_failed_draw_wins_over_an_empty_block(monkeypatch):
    # uniform supports of 3 slots over 3 blocks leave a block empty in most of
    # these trials; where the chunk's redraws give up on a trial too, that
    # trial's error is its draw's, and every other trial keeps its empty block's
    cfg = base_cfg(s=1, support_mode="uniform")
    seeds = list(range(12))
    condition, gave_up = generate._condition, {1, 4, 7, 10}

    def give_up(cfg, rngs, cols):
        return {**condition(cfg, rngs, cols), **{i: ValueError("redraws gave up") for i in gave_up}}

    monkeypatch.setattr(generate, "_condition", give_up)
    stack = sample_instances(cfg, seeds, [instance_generator(seed) for seed in seeds])
    empty = [i for i in range(12) if not stack.x[i].reshape(cfg.theta, cfg.n).any(axis=1).all()]
    assert gave_up & set(empty) and set(empty) - gave_up
    assert sorted(stack.errors) == sorted(gave_up | set(empty))
    for i, exc in stack.errors.items():
        assert ("redraws gave up" if i in gave_up else "empty support") in str(exc)


@pytest.mark.parametrize("law", GUESS_LAWS)
def test_unconditioned_ensemble_is_one_tensor_draw(law):
    # the concentration redraw, the one sampler of unconditioned ensembles: its
    # generator draws the planted values, then one (theta, r, n) tensor, and off
    # the planted column, column k of block l is entry [l, k] of that tensor
    cfg = base_cfg(guess_law=law, guess_density=0.4)
    study = ConcentrationStudy.from_config(cfg)
    x, X = study.redraw(8, 5)
    planted = X.planted_cols
    rng = keyed(8, "conc", 5)
    vals = np.asarray(cfg.planted_alphabet)[rng.integers(0, len(cfg.planted_alphabet), size=len(study.support))]
    assert np.array_equal(x[list(study.support.indices)], vals)
    pure = draw_guesses(cfg, [rng], np.empty((1, cfg.theta, cfg.r, cfg.n)))[0]
    n = cfg.n
    for l, b in enumerate(X.blocks):
        assert b.shape == (n, cfg.r) and b.flags.c_contiguous
        for k in range(cfg.r):
            expected = x[l * n : (l + 1) * n] if k == planted[l] else pure[l, k]
            assert np.array_equal(b[:, k], expected)


def assert_one_stack(blocks, shape):
    assert isinstance(blocks, np.ndarray) and blocks.dtype == np.float64
    assert blocks.shape == shape and blocks.flags.c_contiguous


@pytest.mark.parametrize("kind", SENSING_KINDS)
def test_blocks_are_stored_as_one_stack(tmp_path, kind):
    # sensing as one (theta, m, n) stack and guesses as one (theta, n, r) stack,
    # from every path that builds them
    cfg = base_cfg(sensing_kind=kind)
    inst = build_instance(cfg)
    save_instance(inst, str(tmp_path / "inst.txt"))
    for got in (inst, load_instance(str(tmp_path / "inst.txt"))):
        assert_one_stack(got.A.blocks, (cfg.theta, cfg.m, cfg.n))
        assert_one_stack(got.X.blocks, (cfg.theta, cfg.n, cfg.r))
    assert_one_stack(ConcentrationStudy.from_config(cfg).redraw(8, 5)[1].blocks, (cfg.theta, cfg.n, cfg.r))
    if kind == "repeated-unitary":  # one block, repeated
        assert all(np.array_equal(b, inst.A.blocks[0]) for b in inst.A.blocks)
    x3c = x3c_to_l0(X3CInstance(m=9, triples=((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6))), n=3)
    assert_one_stack(x3c.A.blocks, (4, 11, 3))
    part = partition_to_lp(PartitionInstance(a=(3.0, 1.0, 4.0, 2.0)), theta=4)
    assert_one_stack(part.A.blocks, (4, 5, 2))


@pytest.mark.parametrize("law", GUESS_LAWS)
def test_unconditioned_ensemble_entry_law(law):
    cfg = base_cfg(guess_law=law, guess_density=0.3)
    study = ConcentrationStudy.from_config(cfg)
    off = np.ones((cfg.theta, cfg.n, cfg.r), dtype=bool)
    for l, k in enumerate(study.planted_cols):
        off[l, :, k] = False
    entries = np.concatenate([np.stack(study.redraw(9, t)[1].blocks)[off] for t in range(400)])
    nonzero = entries[entries != 0.0]
    frac, nu = nonzero.size / entries.size, cfg.nu
    assert abs(frac - nu) < 4 * np.sqrt(nu * (1 - nu) / entries.size)
    values = (-1.0, 1.0) if law == "ternary" else cfg.planted_alphabet
    assert np.isin(nonzero, values).all()
    q = 1.0 / len(values)
    for v in values:
        assert abs(np.mean(nonzero == v) - q) < 4 * np.sqrt(q * (1 - q) / nonzero.size)


def test_sensing_kinds():
    cfg = base_cfg(sensing_kind="orthonormal-blocks")
    A = build_instance(cfg).A
    for b in A.blocks:
        np.testing.assert_allclose(b.T @ b, np.eye(cfg.n), atol=1e-12)

    rep = build_instance(base_cfg(sensing_kind="repeated-unitary")).A
    for b in rep.blocks[1:]:
        assert np.array_equal(b, rep.blocks[0])

    g_cfg = GenConfig(m=400, n=30, theta=1, r=2, s=3, sensing_kind="gaussian", master_seed=2)
    G = build_instance(g_cfg).A
    col_sq = np.sum(G.blocks[0] ** 2, axis=0)
    # E||col||^2 = 1 after the 1/sqrt(m) scaling; chi^2_400/400 concentrates hard
    assert abs(col_sq.mean() - 1.0) < 0.05


def test_sensing_matrix_digest():
    # every kind's blocks, bit for bit, as a chunk of four instances draws them:
    # batching the draw or the QR of the blocks must not move them
    h = hashlib.sha256()
    for kind in SENSING_KINDS:
        for m, n, theta in [(16, 16, 2), (12, 5, 3), (9, 4, 1), (20, 8, 4), (7, 7, 5)]:
            cfg = GenConfig(m=m, n=n, theta=theta, r=2, s=1, sensing_kind=kind)
            for inst in chunk(cfg, range(4)):
                h.update(inst.A.blocks.tobytes())
    assert h.hexdigest() == "71a84ac5c5a8e1ab142fcea8ef04cca384c6fef511adbd5bf02416bbfc89b54c"


def test_instance_dist_params_follow_config():
    cfg = base_cfg(guess_density=0.4)
    inst = build_instance(cfg)
    assert inst.config == cfg
    assert inst.config.p_x == pytest.approx(0.625)
    assert inst.config.p_X == pytest.approx(0.4)
    assert inst.config.nu == pytest.approx(0.4)


@pytest.mark.parametrize("guess_law", GUESS_LAWS)
@pytest.mark.parametrize("support_mode", SUPPORT_MODES)
@pytest.mark.parametrize("sensing_kind", SENSING_KINDS)
def test_instance_container_round_trip(tmp_path, sensing_kind, support_mode, guess_law):
    cfg = base_cfg(master_seed=314, sensing_kind=sensing_kind, support_mode=support_mode, guess_law=guess_law)
    inst = build_instance(cfg)
    path = tmp_path / "inst.txt"
    save_instance(inst, str(path))
    back = load_instance(str(path))
    # floats printed at 17 significant digits round-trip bit for bit
    assert np.array_equal(back.x, inst.x)
    assert np.array_equal(back.y, inst.y)
    for ba, bb in zip(back.A.blocks, inst.A.blocks):
        assert np.array_equal(ba, bb)
    for ba, bb in zip(back.X.blocks, inst.X.blocks):
        assert np.array_equal(ba, bb)
    assert back.support.indices == inst.support.indices
    assert back.X.planted_cols == inst.X.planted_cols
    assert back.config == cfg
    # the header is the config's field list, so a loaded container saves back byte for byte
    again = tmp_path / "again.txt"
    save_instance(back, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_instance_without_config_does_not_serialize(tmp_path):
    inst = dataclasses.replace(build_instance(base_cfg()), config=None)
    path = tmp_path / "inst.txt"
    with pytest.raises(ValueError, match="no generation config"):
        save_instance(inst, str(path))
    assert not path.exists()


def test_container_indices_are_one_based_on_disk(tmp_path):
    cfg = base_cfg(master_seed=2)
    inst = build_instance(cfg)
    path = tmp_path / "inst.txt"
    save_instance(inst, str(path))
    text = path.read_text()
    line = next(ln for ln in text.splitlines() if ln.startswith("support ="))
    stored = [int(t) for t in line.split("=")[1].split(",")]
    assert min(stored) >= 1
    assert [i - 1 for i in stored] == list(inst.support.indices)


def test_reduction_container_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    from blockrelax.model import BlockSensingMatrix

    A = BlockSensingMatrix(blocks=(rng.standard_normal((3, 2)), rng.standard_normal((3, 2))))
    rec = ReductionRecord(
        reduction="exact-cover",
        A=A,
        y=np.array([1.0, 0.5, -0.25]),
        certificate_target=2.0,
        extra={"ground_set": "6", "note": "fixture"},
    )
    path = tmp_path / "red.txt"
    save_reduction(rec, str(path))
    back = load_reduction(str(path))
    assert back.reduction == "exact-cover"
    assert back.certificate_target == 2.0
    assert np.array_equal(back.y, rec.y)
    for ba, bb in zip(back.A.blocks, rec.A.blocks):
        assert np.array_equal(ba, bb)
    assert back.extra["ground_set"] == "6"
    assert back.extra["note"] == "fixture"
    again = tmp_path / "again.txt"
    save_reduction(back, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_reduction_header_must_describe_its_arrays(tmp_path):
    path = tmp_path / "red.txt"
    save_reduction(partition_to_lp(PartitionInstance(a=(1.0, 1.0))), str(path))  # A has m = 3 rows
    path.write_text(path.read_text().replace("\nm = 3\n", "\nm = 4\n"))
    with pytest.raises(ValueError, match="container header has m = 4, but its arrays have m = 3"):
        load_reduction(str(path))


@pytest.mark.parametrize("extra, message", [
    pytest.param("", "container has no section 'A 3'", id="missing"),
    # an unknown section is named before the first missing one, as at any theta
    pytest.param("[A 1000001] 1 2\n1,2\n", "container has unknown section 'A 1000001'", id="unknown"),
])
@pytest.mark.parametrize("load", [load_instance, load_reduction], ids=["instance", "reduction"])
def test_a_header_theta_does_not_size_a_load(tmp_path, load, extra, message):
    # a theta = 2 container whose header says theta = 10**6: a load that named
    # every section that theta implies would hold about 125 MB before raising
    path = tmp_path / "c.txt"
    if load is load_instance:
        save_instance(build_instance(base_cfg(theta=2)), str(path))
    else:
        save_reduction(partition_to_lp(PartitionInstance(a=(1.0, 1.0))), str(path))
    text = path.read_text()
    assert "\ntheta = 2\n" in text
    path.write_text(text.replace("\ntheta = 2\n", "\ntheta = 1000000\n") + extra)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{message}$"):
            load(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
