import os
import subprocess
import sys
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import comparison_reference
import numpy as np
import pytest

from blockrelax import generate, sweep
from blockrelax.generate import (
    GenConfig,
    _condition,
    derive_seed,
    draw_guesses,
    draw_instances,
    instance_generator,
    sample_instances,
    sense,
)
from blockrelax.solver import SolveOptions, certificate_stack
from blockrelax.sweep import (
    COMPARISON_COLUMNS,
    SWEEP_COLUMNS,
    _chunks,
    block_match_probability,
    build_comparison_plan,
    build_sweep_plan,
    parse_config,
    replay_trial,
    run_comparison,
    run_sweep,
    wilson_interval,
    write_comparison_csv,
    write_sweep_csv,
)

SMALL_SWEEP = """
# two-axis grid
m = 6
theta = 2
r = 2
s = 2
s = 3
trials = 4
oracle = 1
"""


def test_parse_config_accumulates_and_skips_comments():
    cfg = parse_config(SMALL_SWEEP)
    assert cfg["m"] == ["6"]
    assert cfg["s"] == ["2", "3"]
    assert "#" not in "".join(cfg)
    with pytest.raises(ValueError, match="key = value"):
        parse_config("just some words\n")


def test_wilson_interval_values():
    lo, hi = wilson_interval(8, 10)
    assert lo == pytest.approx(0.49015684672072346, rel=1e-12)
    assert hi == pytest.approx(0.9433190520193067, rel=1e-12)
    lo, hi = wilson_interval(0, 10)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.2775401687666165, rel=1e-12)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    # interval always brackets the point estimate
    for k, n in [(1, 7), (5, 9), (9, 9)]:
        lo, hi = wilson_interval(k, n)
        assert lo <= k / n <= hi


def test_build_sweep_plan_grid_and_seeds():
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=11)
    assert len(plan.cells) == 2
    assert [c.gen.s for c in plan.cells] == [2, 3]
    for idx, cell in enumerate(plan.cells):
        assert cell.index == idx
        assert cell.gen.n == cell.gen.m == 6  # n defaults to m
        assert cell.trials == 4
        assert cell.oracle
        assert cell.seed == derive_seed(11, "cell", idx)


def test_oracle_columns_blank_past_the_enumeration_guard(tmp_path):
    # 101**3 selectors exceed the enumeration guard, so the oracle cannot run:
    # the plan turns it off and the CSV leaves both oracle columns blank, not 0
    plan = build_sweep_plan(parse_config("m = 4\ntheta = 3\nr = 101\ns = 2\noracle = 1\ntrials = 3\n"))
    assert not plan.cells[0].oracle
    path = tmp_path / "big.csv"
    write_sweep_csv(run_sweep(plan), str(path))
    header, row = (line.split(",") for line in path.read_text().splitlines()[1:])
    fields = dict(zip(header, row))
    assert fields["n_oracle_unique"] == fields["n_oracle_agree"] == ""


def test_build_sweep_plan_density_coupling():
    text = "m = 8\ns = 2\ns = 4\nguess_density = s/n\n"
    plan = build_sweep_plan(parse_config(text), seed=0, trials=1)
    assert [c.gen.nu for c in plan.cells] == [0.25, 0.5]


def test_build_comparison_plan_density_coupling():
    text = "m = 8\nn = 4\ns = 2\nr = 2\nr = 4\nguess_density = s/n\n"
    cells = build_comparison_plan(parse_config(text), seed=0, trials=1)
    assert [(c.gen.r, c.gen.nu) for c in cells] == [(2, 0.5), (4, 0.5)]


def test_expand_config_parses_each_value_once():
    # a grid axis is parsed value by value, not once per cell
    calls = []
    parse = lambda key, value: calls.append((key, value)) or int(value)  # noqa: E731
    table = {"a": (0, parse), "b": (0, parse), "c": (7, parse)}
    cells = sweep.expand_config({"a": ["1", "2"], "b": ["3", "4", "5"]}, table, ("a", "b"))
    assert [(cell["a"], cell["b"], cell["c"]) for cell in cells] == [
        (a, b, 7) for a in (1, 2) for b in (3, 4, 5)
    ]
    assert calls == [("a", "1"), ("a", "2"), ("b", "3"), ("b", "4"), ("b", "5")]
    # an override replaces the config's values and goes through the same parser
    calls.clear()
    assert sweep.expand_config({"a": ["x"]}, table, a="9") == [{"a": 9, "b": 0, "c": 7}]
    assert calls == [("a", "9")]


@pytest.mark.parametrize("value, on", [(v, True) for v in ("1", "true", "on", "yes")]
                         + [(v, False) for v in ("0", "false", "off", "no")])
def test_oracle_switch_values(value, on):
    plan = build_sweep_plan(parse_config(f"m = 6\ntheta = 2\nr = 2\ns = 2\noracle = {value}\n"))
    assert plan.cells[0].oracle is on


def test_sweep_and_compare_cells_share_one_builder():
    # the same grid point differs only in the seed label and compare's fixed keys
    text = "m = 6\ntheta = 1\nr = 2\nr = 3\ns = 2\nalphabet = -1,1\nguess_density = 0.5\np = 0.7\ntrials = 5\n"
    swept = build_sweep_plan(parse_config(text + "support_mode = equidistributed\nguess_law = alphabet\n"),
                             seed=4).cells
    compared = build_comparison_plan(parse_config(text), seed=4)
    assert [c.gen for c in swept] == [c.gen for c in compared]
    assert [(c.p, c.trials, c.oracle) for c in compared] == [(0.7, 5, False)] * 2
    assert [c.seed for c in compared] == [derive_seed(4, "compare-cell", i) for i in range(2)]


def test_build_sweep_plan_requires_m():
    with pytest.raises(ValueError, match="missing required key"):
        build_sweep_plan(parse_config("s = 4\n"), seed=0)


def test_sweep_counts_consistent_and_jobs_invariant(tmp_path):
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=3)
    serial = run_sweep(plan, jobs=1)
    parallel = run_sweep(plan, jobs=2)

    for a, b in zip(serial, parallel):
        assert (a.n_exact, a.n_support_match, a.n_fail, a.n_certified, a.n_error) == (
            b.n_exact,
            b.n_support_match,
            b.n_fail,
            b.n_certified,
            b.n_error,
        )
        assert a.n_oracle_unique == b.n_oracle_unique
        assert a.n_oracle_agree == b.n_oracle_agree
        assert a.n_exact + a.n_support_match + a.n_fail + a.n_error == a.cell.trials

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(serial, str(p1))
    write_sweep_csv(parallel, str(p2))
    lines1 = p1.read_text().splitlines()
    lines2 = p2.read_text().splitlines()
    assert lines1[0] == "# schema=5"
    assert lines1[1] == ",".join(SWEEP_COLUMNS)
    assert SWEEP_COLUMNS[-1] == "wall_time"
    assert len(lines1) == len(lines2)
    for l1, l2 in zip(lines1[2:], lines2[2:]):
        assert l1.rsplit(",", 1)[0] == l2.rsplit(",", 1)[0]


ERROR_SWEEP = """
m = 8
theta = 4
r = 4
s = 1
s = 2
support_mode = uniform
oracle = 1
trials = 40
"""


# one cell of 13 trials drawn in chunks of 6, 6 and 1; s * theta = 8 uniform
# slots leave some block empty in about a third of the draws
PARTIAL_CHUNK_SWEEP = "m = 32\ntheta = 4\nr = 8\ns = 2\nsupport_mode = uniform\ntrials = 13\n"


def replay_tally(plan, cell):
    """(exact, support-match, fail, certified, error) of ``cell``, one replay_trial per trial."""
    tally = dict.fromkeys(("exact", "support-match", "fail", "certified", "error"), 0)
    for t in range(cell.trials):
        try:
            _, _, cert, verdict = replay_trial(plan, cell.index, t)
        except ValueError:
            tally["error"] += 1
            continue
        tally[verdict] += 1
        tally["certified"] += int(cert.holds)
    return tuple(tally.values())


def sweep_counts_at_jobs_1_and_2(text):
    """Plan and jobs-1 results of the sweep of ``text``, after checking its
    counts at jobs 2 and 1 against a trial-by-trial replay tally; every cell
    must have some error trials and some others."""
    plan = build_sweep_plan(parse_config(text), seed=0)
    expected = [replay_tally(plan, cell) for cell in plan.cells]
    assert all(0 < tally[-1] < cell.trials for cell, tally in zip(plan.cells, expected))
    oracle = {}
    for jobs in (2, 1):
        results = run_sweep(plan, jobs=jobs)
        counts = [(r.n_exact, r.n_support_match, r.n_fail, r.n_certified, r.n_error) for r in results]
        assert counts == expected
        oracle[jobs] = [(r.n_oracle_unique, r.n_oracle_agree) for r in results]
        for r in results:
            assert r.n_exact + r.n_support_match + r.n_fail + r.n_error == r.cell.trials
    assert oracle[1] == oracle[2]
    return plan, results


def test_sweep_error_trials_counted_once():
    # uniform supports with s < theta leave some block empty, so drawing the
    # instance raises in many trials; each counts once, as an error, at any
    # jobs, and leaves the other trials of its chunk alone
    _, results = sweep_counts_at_jobs_1_and_2(ERROR_SWEEP)
    counts = [
        (r.n_exact, r.n_support_match, r.n_fail, r.n_certified, r.n_error, r.n_oracle_unique, r.n_oracle_agree)
        for r in results
    ]
    assert counts == [(1, 0, 3, 0, 36, 4, 0), (6, 0, 20, 1, 14, 25, 1)]


def test_records_give_the_draw_error_at_each_failed_position():
    # a failed draw keeps its row, whose planted column over the empty block
    # is all-zero: check_stack gives that row a weight error, and the record
    # is the draw error instead
    for cell in build_sweep_plan(parse_config(ERROR_SWEEP), seed=0).cells:
        for start, stop in _chunks(cell):
            stack = sweep._cell_stack(cell, start, stop)
            assert stack.errors and all(len(a) == stop - start for a in (stack.A, stack.X, stack.y))
            checked = sweep.check_stack(stack.A, stack.X, stack.x, stack.y, stack.planted, cell.p)
            for i, record in enumerate(sweep._records(cell, stack)):
                if i in stack.errors:
                    assert "weights must be strictly positive" in str(checked[i].error)
                    assert record.verdict == "error" and record.error is stack.errors[i]
                else:
                    assert record.verdict == checked[i].verdict


def test_chunks_return_only_integer_counts():
    # a chunk sends the pool one Counter of ints and its seconds, never a
    # per-trial record; these chunks hold draw errors, oracle trials and hits
    sweep_cell = build_sweep_plan(parse_config(ERROR_SWEEP), seed=0).cells[1]
    compare_cell = build_comparison_plan(parse_config(COMPARE_CFG), seed=5, trials=40)[0]
    for fn, cell, tags in (
        (sweep._sweep_chunk, sweep_cell, {"error", "certified", "unique"}),
        (sweep._comparison_chunk, compare_cell, {"relax", "bestof", "certified"}),
    ):
        counts = sweep._timed_chunk(fn, cell, 0, 20)
        assert type(counts) is Counter and tags <= set(counts) and counts["wall_time"] > 0.0
        assert all(type(v) is int for k, v in counts.items() if k != "wall_time")


def test_sweep_partial_chunk_counts_equal_replay():
    plan, _ = sweep_counts_at_jobs_1_and_2(PARTIAL_CHUNK_SWEEP)
    assert [stop - start for start, stop in _chunks(plan.cells[0])] == [6, 6, 1]


def test_replay_reproduces_sweep_verdicts():
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=3)
    results = run_sweep(plan, jobs=1)
    cell = plan.cells[0]
    counts = {"exact": 0, "support-match": 0, "fail": 0, "cert": 0}
    for t in range(cell.trials):
        instance, result, cert, verdict = replay_trial(plan, 0, t)
        counts[verdict] += 1
        counts["cert"] += int(cert.holds)
    assert counts["exact"] == results[0].n_exact
    assert counts["support-match"] == results[0].n_support_match
    assert counts["fail"] == results[0].n_fail
    assert counts["cert"] == results[0].n_certified


def test_replay_is_deterministic():
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=3)
    i1, r1, _, v1 = replay_trial(plan, 1, 2)
    i2, r2, _, v2 = replay_trial(plan, 1, 2)
    assert np.array_equal(i1.x, i2.x)
    assert np.array_equal(r1.z, r2.z)
    assert v1 == v2


def test_block_match_probability_value():
    gen = GenConfig(
        m=4, n=4, theta=1, r=2, s=2, planted_alphabet=(-1.0, 1.0),
        guess_density=0.5, guess_law="alphabet",
    )
    assert block_match_probability(gen) == pytest.approx(1.0 / 60.0, rel=1e-12)
    # ternary guesses draw from {-1, 1}, same number
    tern = GenConfig(
        m=4, n=4, theta=1, r=2, s=2, planted_alphabet=(-1.0, 1.0), guess_density=0.5,
    )
    assert block_match_probability(tern) == pytest.approx(1.0 / 60.0, rel=1e-12)


def test_block_match_probability_rejects_unmatchable():
    half_alphabet = GenConfig(m=4, n=4, theta=1, r=2, s=2, guess_density=0.5)
    with pytest.raises(ValueError, match="never match"):
        block_match_probability(half_alphabet)
    uniform = GenConfig(
        m=4, n=4, theta=1, r=2, s=2, planted_alphabet=(-1.0, 1.0),
        guess_density=0.5, support_mode="uniform", guess_law="alphabet",
    )
    with pytest.raises(ValueError, match="equidistributed"):
        block_match_probability(uniform)


def test_comparison_at_full_guess_density():
    # at nu = 1 every guess entry is nonzero, so no column is conditioned away:
    # a hidden block with zeros (n > s) is never matched, and one without
    # (n = s, alphabet +-1) is matched with probability 2^-s
    text = "m = 4\ns = 2\ntheta = 1\nr = 2\nguess_density = 1\n"
    (sparse,) = run_comparison(build_comparison_plan(parse_config(text), seed=2, trials=20))
    assert (sparse.p_l, sparse.formula_exact, sparse.n_relax, sparse.n_bestof) == (0.0, 0.0, 0, 0)
    (dense,) = run_comparison(build_comparison_plan(parse_config(text + "n = 2\n"), seed=2, trials=20))
    assert dense.p_l == 0.25
    assert dense.n_bestof == 9  # the closed form 1 - 0.75**2 = 0.4375 gives 8.75 of 20


COMPARE_CFG = """
m = 4
s = 2
theta = 1
r = 2
guess_density = 0.5
trials = 300
"""


def test_comparison_single_block_rates_agree(tmp_path):
    cells = build_comparison_plan(parse_config(COMPARE_CFG), seed=5)
    assert len(cells) == 1
    assert cells[0].gen.guess_law == "alphabet"
    assert cells[0].gen.planted_alphabet == (-1.0, 1.0)
    results = run_comparison(cells, jobs=1)
    res = results[0]
    assert res.p_l == pytest.approx(1.0 / 60.0, rel=1e-12)
    assert 0.0 <= res.p_select <= 1.0
    # one block: relaxing over r columns and guessing r times hit the same event
    gap = abs(res.rate_relax - res.rate_bestof)
    assert gap <= max(4.0 * res.sigma_joint, 1e-12), (res.rate_relax, res.rate_bestof)

    out = tmp_path / "cmp.csv"
    write_comparison_csv(results, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=5"
    assert lines[1] == ",".join(COMPARISON_COLUMNS)
    assert COMPARISON_COLUMNS[-1] == "wall_time"
    assert len(lines) == 3


def test_comparison_jobs_invariant():
    # two blocks of four columns, m < r * theta; at seed 7 every count is nonzero
    multi_block = "m = 5\ns = 1\ntheta = 2\nr = 4\nguess_density = 0.2\n"
    for text in (COMPARE_CFG, multi_block):
        cells = build_comparison_plan(parse_config(text), seed=7, trials=60)
        a = run_comparison(cells, jobs=1)
        b = run_comparison(cells, jobs=2)
        assert len(a) == len(b) == 1
        for ra, rb in zip(a, b):
            assert (ra.n_relax, ra.n_bestof, ra.n_certified) == (rb.n_relax, rb.n_bestof, rb.n_certified)
            assert ra.p_l == rb.p_l
            assert ra.formula_exact == rb.formula_exact


def test_comparison_relaxation_side_draws_as_sample_instances():
    # the comparison chunk's two draws give each trial its select instance,
    # then what sample_instances would draw next from the same generator,
    # unplanted: equal to that instance off the planted columns and, once
    # sensed, with the same A and y = A x, and every generator goes on where
    # two calls leave it
    cell = build_comparison_plan(parse_config("m = 5\ns = 1\ntheta = 2\nr = 4\n"), seed=7, trials=3)[0]
    cfg = cell.gen
    seeds = [derive_seed(cell.seed, "trial", t) for t in range(3)]
    rngs = [instance_generator(seed) for seed in seeds]
    select = sample_instances(cfg, seeds, rngs)
    relax = draw_instances(cfg, seeds, rngs)
    twice = [instance_generator(seed) for seed in seeds]
    first = sample_instances(cfg, seeds, twice)
    second = sample_instances(cfg, seeds, twice)
    for f in ("A", "X", "x", "y", "support", "planted"):
        assert np.array_equal(getattr(select, f), getattr(first, f))
    assert select.seeds == relax.seeds == tuple(seeds) and not select.errors and not relax.errors
    A, y = sense(relax, slice(None))
    for j in range(3):
        ref = second.instance(j)
        off = np.ones((cfg.theta, cfg.r), dtype=bool)
        off[np.arange(cfg.theta), second.planted[j]] = False
        assert np.array_equal(A[j], ref.A.blocks)
        assert np.array_equal(relax.x[j], ref.x) and np.array_equal(y[j], ref.y)
        assert np.array_equal(relax.X[j].transpose(0, 2, 1)[off], ref.X.blocks.transpose(0, 2, 1)[off])
    assert [rng.random() for rng in rngs] == [rng.random() for rng in twice]


BESTOF_CFG = "m = 4\ns = 2\ntheta = 2\nr = 4\nguess_density = 0.3\n"


def bestof_conditioning(monkeypatch, cell, trials):
    """The best-of guesses of ``_comparison_chunk``'s one ``_condition`` call: before, after, and the trials that redrew.

    A trial redraws when its generator draws a ``draw_guesses`` row inside that call.
    """
    condition, draw, seen = sweep._condition, generate.draw_guesses, {}

    def spy(cfg, rngs, cols):
        assert not seen and len(rngs) == len(cols) == trials
        seen["first"], seen["redrew"] = cols.copy(), []

        def redraw(cfg, g, out):
            seen["redrew"].append(next(i for i, rng in enumerate(rngs) if rng is g[0]))
            return draw(cfg, g, out)

        monkeypatch.setattr(generate, "draw_guesses", redraw)
        try:
            return condition(cfg, rngs, cols)
        finally:
            monkeypatch.setattr(generate, "draw_guesses", draw)
            seen["conditioned"] = cols.copy()

    monkeypatch.setattr(sweep, "_condition", spy)
    sweep._comparison_chunk(cell, 0, trials)
    return seen["first"], seen["conditioned"], list(dict.fromkeys(seen["redrew"]))


def test_comparison_bestof_chunk_equals_per_trial_draws(monkeypatch):
    # at n = 4 and nu = 0.3 about a quarter of first-drawn columns are all-zero
    # and redrawn; the chunk's one best-of draw, conditioned in one call,
    # gives each trial the columns a draw_guesses row of one, conditioned, draws
    # from its generator
    cell = build_comparison_plan(parse_config(BESTOF_CFG), seed=3)[0]
    gen, trials = cell.gen, 40
    first, conditioned, _ = bestof_conditioning(monkeypatch, cell, trials)
    seeds = [derive_seed(cell.seed, "trial", t) for t in range(trials)]
    rngs = [instance_generator(seed) for seed in seeds]
    sample_instances(gen, seeds, rngs)
    draw_instances(gen, seeds, rngs)
    want = []
    for rng in rngs:
        g = draw_guesses(gen, [rng], np.empty((1, gen.r, gen.theta, gen.n)))
        assert not _condition(gen, [rng], g)
        want.append(g[0])
    assert len(conditioned) == trials
    assert all(got.tobytes() == ref.tobytes() for got, ref in zip(conditioned, want))
    assert 0.15 < np.mean([~cols.any(axis=-1) for cols in first]) < 0.35


def test_comparison_bestof_redraws_only_trials_with_an_all_zero_column(monkeypatch):
    # the best-of side's one _condition redraws from exactly the generators of
    # the trials whose first-drawn guesses hold an all-zero column, some trials
    # of the chunk but not all, and leaves every other trial's guesses as drawn
    cell = build_comparison_plan(parse_config(BESTOF_CFG), seed=3)[0]
    first, conditioned, redrew = bestof_conditioning(monkeypatch, cell, 40)
    had_zero = (~first.any(axis=-1)).reshape(40, -1).any(axis=1)
    assert redrew == np.flatnonzero(had_zero).tolist()
    assert 0 < len(redrew) < 40
    assert conditioned[~had_zero].tobytes() == first[~had_zero].tobytes()
    assert conditioned.any(axis=-1).all()


# (config, trials): test_09's cells, the golden theta = 2 cell, a theta = 3
# cell and a dense cell whose relaxation programs mostly hold x, so most are solved
REFERENCE_COMPARISONS = {
    "test_09": (COMPARE_CFG, 103),
    "golden theta 2": ("m = 3\nn = 2\ns = 1\ntheta = 2\nr = 4\nguess_density = 0.5\n", 301),
    "theta 3": ("m = 5\nn = 2\ns = 1\ntheta = 3\nr = 3\nguess_density = 0.5\n", 151),
    "dense": ("m = 4\nn = 2\ns = 1\nguess_density = 0.5\nr = 8\ntheta = 1\ntheta = 2\n", 103),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_COMPARISONS))
def test_comparison_counts_equal_two_draw_reference(monkeypatch, case):
    # run_comparison solves only the relaxation programs that can select x and
    # draws both sides in one pass; the reference draws twice and solves every
    # program, and the counts must agree on chunks whose last one is partial
    text, trials = REFERENCE_COMPARISONS[case]
    monkeypatch.setattr(sweep, "_CHUNK_FLOATS", 1 << 9)
    cells = build_comparison_plan(parse_config(text), seed=4, trials=trials)
    for cell in cells:
        sizes = [stop - start for start, stop in _chunks(cell)]
        assert len(sizes) > 1 and sizes[-1] < sizes[0]
    got = [(res.n_relax, res.n_bestof, res.n_certified) for res in run_comparison(cells)]
    assert got == comparison_reference.comparison_counts(cells)
    assert any(relax for relax, _, _ in got)


def test_comparison_failed_draw_error_equals_reference(monkeypatch):
    # no guess column of density 1e-7 turns nonzero: both end on the same line.
    # The density fails within any cap, so a lower one saves the full cap's rounds
    monkeypatch.setattr(generate, "_REDRAW_ROUNDS", 100)
    sparse = "m = 4\ns = 2\ntheta = 1\nr = 2\nguess_density = 1e-7\n"
    cells = build_comparison_plan(parse_config(sparse), seed=2, trials=2)
    with pytest.raises(ValueError) as ref:
        comparison_reference.comparison_counts(cells)
    with pytest.raises(ValueError) as got:
        run_comparison(cells)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("cell 0 trial 0: could not draw a nonzero guess column")


# (trials whose best-of redraws give up, trials whose certificate raises, the
# end line): the earliest trial of either is named, and within one trial the
# certificate's error wins over its guesses' redraws
REDRAW_ERROR = "could not draw a nonzero guess column; guess_density too small"
CHUNK_ERRORS = {
    "best-of redraw": ({1}, set(), f"cell 0 trial 1: {REDRAW_ERROR}"),
    "certificate": (set(), {1}, "cell 0 trial 1: SVD did not converge"),
    "redraw before a later certificate": ({1}, {2}, f"cell 0 trial 1: {REDRAW_ERROR}"),
    "certificate before a later redraw": ({2}, {0}, "cell 0 trial 0: SVD did not converge"),
    "certificate and redraw of one trial": ({3}, {3}, "cell 0 trial 3: SVD did not converge"),
}


@pytest.mark.parametrize("case", sorted(CHUNK_ERRORS))
def test_comparison_chunk_errors_name_their_trial_as_the_reference(monkeypatch, case):
    # the best-of _condition and certificate_stack bindings of both chunks are
    # patched; the draws go on through generate's own _condition
    redraws, certificates, line = CHUNK_ERRORS[case]
    cells = build_comparison_plan(parse_config(COMPARE_CFG), seed=4, trials=4)
    assert len(_chunks(cells[0])) == 1

    def patch(module):
        calls = []

        def condition(cfg, rngs, cols):
            # rows are counted across calls: the chunk conditions its trials in
            # one call, the reference each trial in a call of its own
            rows = range(len(calls), len(calls) + len(cols))
            calls.extend(rows)
            errors = _condition(cfg, rngs, cols)
            return {**errors, **{i - rows.start: ValueError(REDRAW_ERROR) for i in rows if i in redraws}}

        def certify(B, w, support):
            return [np.linalg.LinAlgError("SVD did not converge") if j in certificates else cert
                    for j, cert in enumerate(certificate_stack(B, w, support))]

        monkeypatch.setattr(module, "_condition", condition)
        monkeypatch.setattr(module, "certificate_stack", certify)

    lines = []
    for module, run in ((sweep, run_comparison), (comparison_reference, comparison_reference.comparison_counts)):
        patch(module)
        with pytest.raises(ValueError) as exc:
            run(cells)
        lines.append(str(exc.value))
    assert lines == [line, line]


# -- the process pool that every jobs > 1 call shares -----------------------
# jobs stays at 2 or 3 here: each pool forks all its workers up front


def pool_pids():
    """The worker PIDs of the shared pool."""
    return set(sweep._POOL[1]._processes)


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def served_by(cell, start, stop):
    """A chunk function whose counts name the process that ran the chunk."""
    return Counter({os.getpid(): 1})


def exit_worker(cell, start, stop):
    """A chunk function whose worker dies."""
    os._exit(1)


MARK = 0


def marked(cell, start, stop):
    """A chunk function whose counts name the worker's ``MARK``."""
    return Counter({MARK: 1})


def sweep_counts(results):
    return [(r.n_exact, r.n_support_match, r.n_fail, r.n_certified, r.n_error) for r in results]


def test_oracle_agree_needs_the_solve_to_select_the_oracle_optimum(monkeypatch):
    # a certified unique optimum is the planted selector, so an 'optimal' solve takes
    # it; a walk cut at one step takes it on no trial, and 'agree' must not count
    # the certificate and the oracle alone
    monkeypatch.setattr(sweep.Cell, "options", SolveOptions(max_iter=1))
    cfg = parse_config("m = 8\ntheta = 2\nr = 4\ns = 2\noracle = 1\ntrials = 60\n")
    (res,) = run_sweep(build_sweep_plan(cfg, seed=5), jobs=1)
    assert (res.n_certified, res.n_oracle_unique, res.n_oracle_agree) == (32, 60, 0)


def test_jobs_is_checked_once_and_used_as_checked():
    # config_jobs accepts "2"; the pool must get the integer it returns
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=3)
    assert sweep_counts(run_sweep(plan, jobs="2")) == sweep_counts(run_sweep(plan, jobs=1))


def test_one_pool_serves_every_call_with_the_same_jobs():
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=3)
    cells = build_comparison_plan(parse_config(COMPARE_CFG), seed=7, trials=60)
    run_sweep(plan, jobs=2)
    pool, pids = sweep._POOL, pool_pids()
    assert pool[0] == 2 and len(pids) == 2
    run_sweep(plan, jobs=2)
    run_comparison(cells, jobs=2)
    served = sum(sweep._run_trials(plan.cells, served_by, 2), Counter())
    served.pop("wall_time")
    assert sweep._POOL is pool and pool_pids() == pids
    assert served and set(served) <= pids


def test_pool_of_another_size_replaces_the_old_one():
    # four cells of one chunk each: enough items for a pool of 3
    plan = build_sweep_plan(parse_config(SMALL_SWEEP + "r = 3\n"), seed=3)
    assert sum(len(_chunks(cell)) for cell in plan.cells) == 4
    expected = sweep_counts(run_sweep(plan, jobs=1))
    assert sweep_counts(run_sweep(plan, jobs=2)) == expected
    old = pool_pids()
    # the old workers are joined before the new pool is made, not some time after
    sweep._pool(3)
    assert not any(alive(pid) for pid in old)
    assert sweep_counts(run_sweep(plan, jobs=3)) == expected
    assert sweep._POOL[0] == 3 and len(pool_pids()) == 3


def test_worker_death_replaces_the_pool_at_the_next_call():
    # the call that meets the dead worker raises, and the next forks afresh
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=3)
    expected = sweep_counts(run_sweep(plan, jobs=1))
    run_sweep(plan, jobs=2)
    old = pool_pids()
    with pytest.raises(BrokenProcessPool):
        sweep._run_trials(plan.cells, exit_worker, 2)
    assert sweep_counts(run_sweep(plan, jobs=2)) == expected
    assert not pool_pids() & old
    assert not any(alive(pid) for pid in old)


def test_trial_error_in_a_worker_leaves_the_pool_usable(monkeypatch):
    # a guess density of 1e-7 fails within any redraw cap; conftest drops the
    # pool before this test, so its workers are forked under the lower cap
    monkeypatch.setattr(generate, "_REDRAW_ROUNDS", 100)
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=3)
    expected = sweep_counts(run_sweep(plan, jobs=1))
    run_sweep(plan, jobs=2)
    pool, pids = sweep._POOL, pool_pids()
    # two cells of one trial each, so the comparison runs in the pool's workers
    sparse = build_comparison_plan(parse_config("m = 4\ns = 2\ntheta = 1\nr = 2\nr = 3\nguess_density = 1e-7\n"),
                                   seed=2, trials=1)
    assert len(sparse) == 2 and all(len(_chunks(cell)) == 1 for cell in sparse)
    with pytest.raises(ValueError, match="cell 0 trial 0: could not draw a nonzero guess column"):
        run_comparison(sparse, jobs=2)
    assert sweep_counts(run_sweep(plan, jobs=2)) == expected
    assert sweep._POOL is pool and pool_pids() == pids


def test_a_plan_of_fewer_items_than_jobs_forks_only_one_worker_per_item():
    # SMALL_SWEEP is two cells of one chunk each; jobs stays at 3, and a plan of
    # one item runs in the calling process and forks nothing
    if sweep._POOL is not None:
        sweep._drop_pool()
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=3)
    assert [len(_chunks(cell)) for cell in plan.cells] == [1, 1]
    expected = sweep_counts(run_sweep(plan, jobs=1))
    one = plan.cells[:1]
    assert sum(sweep._run_trials(one, served_by, 3), Counter())[os.getpid()] == 1
    assert sweep._POOL is None
    assert sweep_counts(run_sweep(plan, jobs=3)) == expected
    assert sweep._POOL[0] == 2 and len(pool_pids()) == 2


@pytest.mark.parametrize("exc", [ValueError("guard"), np.linalg.LinAlgError("singular"), TypeError("oracle bug")])
def test_an_oracle_value_error_is_a_trial_error_and_a_bug_propagates(monkeypatch, exc):
    # a ValueError from the oracle, LinAlgError included, is a trial's error; a
    # TypeError is a bug in the code, and must not be counted as one
    def oracle(instance, p):
        raise exc

    monkeypatch.setattr(sweep, "enumerate_selectors", oracle)
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=3)
    if isinstance(exc, ValueError):
        results = run_sweep(plan, jobs=1)
        assert [(r.n_error, r.n_oracle_unique) for r in results] == [(cell.trials, 0) for cell in plan.cells]
    else:
        with pytest.raises(TypeError, match="oracle bug"):
            run_sweep(plan, jobs=1)


def test_a_patch_reaches_the_workers(monkeypatch):
    # a pool forked before this patch would run unpatched code; conftest drops it
    plan = build_sweep_plan(parse_config(SMALL_SWEEP), seed=3)
    monkeypatch.setattr(sys.modules[__name__], "MARK", 7)
    marks = sum(sweep._run_trials(plan.cells, marked, 2), Counter())
    marks.pop("wall_time")
    assert set(marks) == {7}


def test_cli_sweep_leaves_no_worker_behind(tmp_path):
    # a child interpreter runs the CLI at --jobs 2, prints its workers' PIDs and exits
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_SWEEP)
    script = "import sys; from blockrelax import cli, sweep; code = cli.main(sys.argv[1:]); " \
             "print(*sweep._POOL[1]._processes); sys.exit(code)"
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "sweep", "--config", str(cfg), "--jobs", "2", "--out", str(tmp_path / "s.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()[-2:]]
    assert len(pids) == 2 and not any(alive(pid) for pid in pids)
