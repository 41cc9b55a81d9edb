"""Deterministic experiment sweeps over instance grids.

A config is a flat key = value text file, read through the reading command's
key table (``*_KEYS``: per key a typed default and a parser of one value), the
one place its keys are parsed and checked.  An unknown key, a repeated key off
the command's grid or a value its parser rejects is an error; a key given
several times on the grid spans an axis, each value parsed once, and one cell
builder makes the cells of ``sweep`` and ``compare``: the cartesian product in
a fixed key order.
Every trial's randomness comes from one generator keyed by the trial seed
derive_seed(cell seed, 'trial', t) alone.  Both ``sweep`` and ``compare``
schedule one work item per chunk of a cell's trials on one process pool, draw
the chunk as stacks (``generate.InstanceStack``) and return the chunk's
integer counts, which add up per cell.  The pool is forked at the process's
first call with jobs > 1 and serves every later call with the same jobs; it is
replaced when jobs changes or a worker dies, and joined at interpreter exit.
Its workers keep the module state of the fork, so a patch of code they run
reaches them only if it precedes the fork; ``tests/conftest.py`` drops the pool
before and after every test that patches.  A ``sweep`` chunk takes each trial's
``solver.TrialRecord`` from one ``solver.check_stack`` over the stack's arrays;
only an oracle cell builds a ``RelaxedInstance``.  Each stacked operation
gives a program the bits it gets alone, so a trial's outcome does not depend
on its chunk-mates, results are independent of worker count and chunking,
and any single sweep trial can be replayed from its CSV coordinates as a
chunk of one.  A ``compare`` trial goes on drawing from its generator: an
unplanted, unsensed relaxation side (``generate.draw_instances``, called for
the chunk after its planted instances are drawn), then best-of-r guesses of
that side's hidden vector, one ``generate.draw_guesses`` and one redraw pass
of its all-zero columns (``generate._condition``) for the chunk.  A
relaxation hit selects, in every block l, a column equal to x^l, so only the
relaxation programs whose every block holds such a column are sensed
(``generate.sense``) and solved; the others cannot hit and count as misses,
and a chunk with no such program builds and solves none.

Each CSV is written from one column table (``_SWEEP_TABLE``,
``_COMPARISON_TABLE``) that declares every column once: its name, its place
and how its value is read from a result and formatted.  Both tables start with
the same eight cell columns, and ``SWEEP_COLUMNS`` and ``COMPARISON_COLUMNS``
are their names.  CSV files start with a '# schema=5' comment; wall_time is
always the last column and is the only one allowed to differ between runs.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bounds import success_prob_block_relaxation, success_prob_repeated_trials
from .generate import (
    SCHEMA_COMMENT,
    GenConfig,
    InstanceStack,
    _condition,
    derive_seed,
    draw_guesses,
    draw_instances,
    instance_generator,
    sample_instances,
    sense,
)
from .oracle import ENUMERATION_GUARD, enumerate_selectors
from .solver import (
    SolveOptions, TrialRecord, certificate_stack, check_stack, selected_columns, solve_stack, stack_programs,
)

__all__ = [
    "parse_config",
    "expand_config",
    "gen_config",
    "config_number",
    "config_numbers",
    "config_exponent",
    "config_jobs",
    "SweepPlan",
    "build_sweep_plan",
    "CellResult",
    "run_sweep",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
    "build_comparison_plan",
    "run_comparison",
    "write_comparison_csv",
    "COMPARISON_COLUMNS",
    "wilson_interval",
    "block_match_probability",
    "replay_trial",
]

# grid axes in cell-enumeration order; remaining keys are scalars
_GRID_KEYS = ("m", "n", "theta", "r", "s", "guess_density", "p", "sensing_kind", "support_mode")


def parse_config(text: str) -> dict[str, list[str]]:
    """Flat key = value lines; repeated keys accumulate into grid axes."""
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        k, _, v = line.partition("=")
        out.setdefault(k.strip(), []).append(v.strip())
    return out


def config_number(key: str, value, kind: type = int, ok=None, rule: str = ""):
    """``value`` as ``kind``; one that is not, or fails ``ok``, raises naming ``key`` ('<key>: must <rule>')."""
    try:
        v = kind(value)
    except ValueError:
        raise ValueError(f"{key}: invalid {'integer' if kind is int else 'number'} {value!r}") from None
    if ok is not None and not ok(v):
        raise ValueError(f"{key}: must {rule}, got {format(v, 'g') if kind is float else v}")
    return v


def config_numbers(key: str, text: str, kind: type = int) -> tuple:
    """The comma-separated numbers of ``text``, each read by ``config_number`` naming ``key``."""
    return tuple(config_number(key, t, kind) for t in text.split(","))


# a count below one leaves no trial, worker or redraw to run; p outside (0, 1]
# leaves the weighted objective no p-quasinorm
_AT_LEAST_ONE = functools.partial(config_number, ok=lambda v: v >= 1, rule="be at least 1")
_EXPONENT = functools.partial(config_number, kind=float, ok=lambda p: 0.0 < p <= 1.0, rule="lie in (0, 1]")
_FLOATS = functools.partial(config_numbers, kind=float)  # a list such as the alphabet
# the same parsers for the --p and --jobs flags and BLOCKRELAX_JOBS
config_exponent = functools.partial(_EXPONENT, "p")
config_jobs = functools.partial(_AT_LEAST_ONE, "jobs")


def _guess_density(key: str, value: str):
    """A float, or the literal 's/n' that couples it to the cell's support fraction."""
    return value if value == "s/n" else config_number(key, value, float)


def _choice(key: str, value: str, what: str, values: dict):
    """``values[value]``; a value that is not a key of ``values`` raises naming the choices."""
    if value not in values:
        raise ValueError(f"{key}: unknown {what} {value!r}; expected one of {', '.join(values)}")
    return values[value]


# Each command's accepted keys, as (typed default, parser of one value); a
# None parser keeps the text, which GenConfig checks, and a None default means
# none (m is required wherever a GenConfig is built, n defaults to the cell's m).
GEN_KEYS = {
    "m": (None, config_number),
    "n": (None, config_number),
    "theta": (2, config_number),
    "r": (4, config_number),
    "s": (4, config_number),
    "guess_density": (GenConfig.guess_density, _guess_density),
    "sensing_kind": (GenConfig.sensing_kind, None),
    "support_mode": (GenConfig.support_mode, None),
    "guess_law": (GenConfig.guess_law, None),
    "alphabet": (GenConfig.planted_alphabet, _FLOATS),
    "seed": (0, config_number),
}
_SWITCH = {**dict.fromkeys(("1", "true", "on", "yes"), True), **dict.fromkeys(("0", "false", "off", "no"), False)}
SWEEP_KEYS = {
    **GEN_KEYS,
    "p": (0.5, _EXPONENT),
    "trials": (100, _AT_LEAST_ONE),
    "oracle": (False, functools.partial(_choice, what="switch", values=_SWITCH)),
}
# compare fixes support_mode and guess_law, so it does not accept them
COMPARE_KEYS = {
    **{k: e for k, e in GEN_KEYS.items() if k not in ("support_mode", "guess_law")},
    "p": (0.5, _EXPONENT),
    "theta": (1, config_number),
    "r": (2, config_number),
    "s": (2, config_number),
    "guess_density": (0.5, _guess_density),
    "alphabet": ((-1.0, 1.0), _FLOATS),
    "trials": (400, _AT_LEAST_ONE),
}
_CHECKS = ("vectorization", "mean", "tail", "window")
CONCENTRATION_KEYS = {
    **GEN_KEYS,
    "trials": (2000, _AT_LEAST_ONE),
    "check": ("tail", functools.partial(_choice, what="concentration check", values=dict(zip(_CHECKS, _CHECKS)))),
    "count": (100, _AT_LEAST_ONE),
    "epsilon": (0.5, functools.partial(config_number, kind=float, ok=lambda e: e > 0.0, rule="be positive")),
    "delta": (0.5, functools.partial(config_number, kind=float, ok=lambda d: 0.0 < d < 1.0, rule="lie in (0, 1)")),
}


def expand_config(
    cfg: dict[str, list[str]], table: dict, grid: tuple[str, ...] = (), lists: tuple[str, ...] = (),
    **overrides,
) -> list[dict]:
    """One dict of typed values per cell of a parsed config, with ``table``'s defaults filled in.

    Keys outside ``table`` are rejected, and so is a repeated key unless it is
    in ``grid`` or ``lists``.  An override that is not None replaces the
    config's values.  Each value given is parsed once, by its key's parser,
    in table order; a grid axis is parsed value by value, not cell by cell.
    Cells are the cartesian product over ``grid`` in its order; a ``lists``
    key holds the list of all its values.
    """
    for key, vals in cfg.items():
        if key not in table:
            raise ValueError(f"key {key!r} is not accepted here; accepted keys: {', '.join(table)}")
        if len(vals) > 1 and key not in grid and key not in lists:
            raise ValueError(f"key {key!r} must not repeat")
    parsed = {}
    for key, (default, parse) in table.items():
        given = cfg.get(key) if overrides.get(key) is None else [overrides[key]]
        parsed[key] = [default] if given is None else [parse(key, v) if parse else v for v in given]
    base = {key: vals if key in lists else vals[0] for key, vals in parsed.items()}
    return [{**base, **dict(zip(grid, combo))} for combo in itertools.product(*(parsed[k] for k in grid))]


def gen_config(vals: dict, master_seed: int = 0) -> GenConfig:
    """The GenConfig of one cell's typed values; ``guess_density = s/n`` couples it to the support fraction."""
    if vals["m"] is None:
        raise ValueError("missing required key 'm'")
    n = vals["m"] if vals["n"] is None else vals["n"]
    gd = vals["guess_density"]
    return GenConfig(
        **{key: vals[key] for key in ("m", "theta", "r", "s", "sensing_kind", "support_mode", "guess_law")},
        n=n,
        planted_alphabet=vals["alphabet"],
        guess_density=vals["s"] / n if gd == "s/n" and n else gd,  # n = 0 fails GenConfig's first check
        master_seed=master_seed,
    )


WILSON_Z = 1.96  # the normal quantile of the CSVs' Wilson intervals: 95% two-sided


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial rate, at z = ``WILSON_Z``."""
    z = WILSON_Z
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1.0 + z * z / n
    center = phat + z * z / (2 * n)
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n))
    return (center - half) / denom, (center + half) / denom


@dataclass(frozen=True)
class Cell:
    """One grid point of a ``sweep`` or ``compare`` plan; ``oracle`` (sweep only) implies r**theta fits its guard."""

    index: int
    gen: GenConfig
    p: float
    trials: int
    seed: int
    oracle: bool = False
    options = SolveOptions()  # a class constant, not a field: every cell solves with the defaults


@dataclass(frozen=True)
class SweepPlan:
    cells: tuple[Cell, ...]


def _plan_cells(
    cfg: dict[str, list[str]], table: dict, grid: tuple[str, ...], label: str, seed: int | None,
    trials: int | None, **fixed,
) -> list[Cell]:
    """The cells of ``sweep`` and ``compare``: one per point of ``grid``, seeded derive_seed(seed, ``label``, index).

    ``fixed`` values replace the config's.  A cell runs its oracle where
    ``table`` has the key, it is on and r**theta fits the guard.
    """
    cells = []
    for idx, vals in enumerate(expand_config(cfg, table, grid, seed=seed, trials=trials)):
        gen = gen_config({**vals, **fixed})
        oracle = vals.get("oracle", False) and gen.r**gen.theta <= ENUMERATION_GUARD
        cells.append(Cell(idx, gen, vals["p"], vals["trials"], derive_seed(vals["seed"], label, idx), oracle))
    return cells


def build_sweep_plan(
    cfg: dict[str, list[str]], seed: int | None = None, trials: int | None = None
) -> SweepPlan:
    """Expand a parsed config into ordered cells, one per point of the ``_GRID_KEYS`` grid."""
    return SweepPlan(cells=tuple(_plan_cells(cfg, SWEEP_KEYS, _GRID_KEYS, "cell", seed, trials)))


# most floats one stack of a chunk's sensing and guess draws may hold (a compare
# chunk draws two such stacks, its select and relaxation sides, and a smaller
# best-of guess tensor); a chunk has at least one trial
_CHUNK_FLOATS = 1 << 15


def _chunks(cell: Cell) -> list[tuple[int, int]]:
    """(start, stop) trial ranges of ``cell``'s chunks, in trial order."""
    g = cell.gen
    size = max(1, _CHUNK_FLOATS // (g.theta * g.n * (g.m + g.r)))
    return [(start, min(start + size, cell.trials)) for start in range(0, cell.trials, size)]


def _trial_generators(cell: Cell, start: int, stop: int) -> tuple[list[int], list]:
    """The seeds of trials start .. stop-1 of ``cell``, and each trial's generator before any draw."""
    seeds = [derive_seed(cell.seed, "trial", t) for t in range(start, stop)]
    return seeds, [instance_generator(seed) for seed in seeds]


def _cell_stack(cell: Cell, start: int, stop: int) -> InstanceStack:
    """Trials start .. stop-1 of ``cell`` drawn as one stack."""
    return sample_instances(cell.gen, *_trial_generators(cell, start, stop))


def _timed_chunk(fn, cell: Cell, start: int, stop: int) -> Counter:
    t0 = time.perf_counter()
    counts = fn(cell, start, stop)
    counts["wall_time"] = time.perf_counter() - t0
    return counts


# (jobs, executor) of the process pool that every jobs > 1 call shares, or None
_POOL = None


def _pool(jobs: int):
    """The process pool of ``jobs`` workers, forked at the first call that asks for it.

    At most one pool is alive: a pool of another size, or one whose worker
    died, is shut down before a new one is forked.
    """
    global _POOL
    # imported here, so that a process that never starts a pool does not pay for its import
    from concurrent.futures import ProcessPoolExecutor

    if _POOL is not None and (_POOL[0] != jobs or _POOL[1]._broken):  # _broken: set when a worker dies
        _drop_pool()
    if _POOL is None:
        _POOL = jobs, ProcessPoolExecutor(max_workers=jobs)
    return _POOL[1]


def _drop_pool() -> None:
    """Shut the shared pool down, joining its workers, and forget it."""
    global _POOL
    (_, pool), _POOL = _POOL, None
    pool.shutdown()


def _run_trials(cells, fn, jobs: int) -> list[Counter]:
    """``fn(cell, start, stop)`` for every chunk of every cell, on ``jobs`` processes.

    ``fn`` draws and runs the chunk's trials start .. stop-1 and returns
    their integer counts as a ``Counter``, so only counts cross the pool,
    and the chunk's seconds, its draw included, are added as 'wall_time'.
    One work item is one chunk of one cell's trials (``_chunks``), so the
    items do not depend on ``jobs``.  Per cell, in plan order: the sums over
    its chunks.  ``fn`` must be module-level so worker processes can import
    it; ``jobs`` below one raises.

    At jobs > 1 the items go to the process's one pool (``_pool``) of
    min(jobs, items) workers, forked at the first such call and reused by
    later calls of that size (a lone item runs in the calling process); it
    is replaced when the size changes or a worker dies, and
    ``concurrent.futures`` joins it at interpreter exit.  The call that
    meets a dead worker raises ``BrokenProcessPool`` (the executor stops
    the other workers itself); the next call forks afresh.  A trial error
    raised in a worker leaves the pool as it was.  The workers run the
    module state of the fork: a patch made after it does not reach them.
    """
    jobs = config_jobs(jobs)
    chunks = [_chunks(cell) for cell in cells]
    items = [(cell, start, stop) for cell, ranges in zip(cells, chunks) for start, stop in ranges]
    task, jobs = functools.partial(_timed_chunk, fn), min(jobs, len(items))
    if jobs <= 1:
        raw = itertools.starmap(task, items)
    else:
        raw = iter(list(_pool(jobs).map(task, *zip(*items))))
    return [sum(itertools.islice(raw, len(ranges)), Counter()) for ranges in chunks]


@dataclass(frozen=True)
class CellResult:
    cell: Cell
    n_exact: int
    n_support_match: int
    n_fail: int
    n_certified: int
    n_error: int
    n_oracle_unique: int | None
    n_oracle_agree: int | None
    wall_time: float


def _records(cell: Cell, stack: InstanceStack) -> list[TrialRecord]:
    """Each trial's record in a chunk: its row's from one ``check_stack``, or its draw error where the draw failed.

    A failed trial's row holds no instance, so its draw error replaces whatever ``check_stack`` made of it.
    """
    checked = check_stack(stack.A, stack.X, stack.x, stack.y, stack.planted, cell.p, cell.options)
    return [
        TrialRecord("error", error=stack.errors[i]) if i in stack.errors else record
        for i, record in enumerate(checked)
    ]


def _sweep_chunk(cell: Cell, start: int, stop: int) -> Counter:
    """A chunk's counts: its trials per verdict, 'certified' and, in an oracle cell, 'unique' and 'agree'.

    A trial whose draw fails or whose oracle raises ValueError is data, not a
    crash: it counts once, as 'error'.  Any other oracle error is a bug.
    """
    stack, counts = _cell_stack(cell, start, stop), Counter()
    for i, record in enumerate(_records(cell, stack)):
        tags = [record.verdict]
        if record.error is None:
            if record.cert.holds:
                tags.append("certified")
            if cell.oracle:
                try:
                    tags += _oracle_tags(cell, stack.instance(i), record)
                except ValueError:  # LinAlgError too; a bug such as a TypeError propagates
                    tags = ["error"]
        counts.update(tags)
    return counts


def _oracle_tags(cell: Cell, instance, record: TrialRecord) -> list[str]:
    """'unique' when the exhaustive oracle's optimum is unique, and 'agree' when the certified solve selects it too."""
    res = enumerate_selectors(instance, cell.p)
    if not res.unique:
        return []
    combo = tuple(selected_columns([record.result], cell.gen.r, cell.gen.theta)[0].tolist())
    agree = record.cert.holds and res.best_combos[0] == instance.X.planted_cols == combo
    return ["unique", "agree"] if agree else ["unique"]


def run_sweep(plan: SweepPlan, jobs: int = 1) -> list[CellResult]:
    """Execute all cells; results do not depend on ``jobs``."""
    return [
        CellResult(
            cell=cell,
            n_exact=counts["exact"],
            n_support_match=counts["support-match"],
            n_fail=counts["fail"],
            n_certified=counts["certified"],
            n_error=counts["error"],
            n_oracle_unique=counts["unique"] if cell.oracle else None,
            n_oracle_agree=counts["agree"] if cell.oracle else None,
            wall_time=counts["wall_time"],
        )
        for cell, counts in zip(plan.cells, _run_trials(plan.cells, _sweep_chunk, jobs))
    ]


def replay_trial(plan: SweepPlan, cell_index: int, trial: int):
    """Re-run a single sweep trial, as a chunk of one: its instance, solve, certificate and verdict, or its error."""
    cell = plan.cells[cell_index]
    stack = _cell_stack(cell, trial, trial + 1)
    instance = stack.instance(0)
    (record,) = _records(cell, stack)
    if record.error is not None:
        raise record.error
    return instance, record.result, record.cert, record.verdict


# -- comparison against the repeated-guessing baseline ------------------------


def block_match_probability(gen: GenConfig) -> float:
    """Probability that one (nonzero-conditioned) guess column equals a hidden block.

    Needs an ensemble whose nonzero guess values are uniform over the planted
    alphabet; with equidistributed supports every block has s hidden entries,
    giving ((nu/|alphabet|)^s (1-nu)^(n-s)) / (1 - (1-nu)^n).  At nu = 1 every
    guess column is nonzero, so the conditioning divides by 1.
    """
    if gen.support_mode != "equidistributed":
        raise ValueError("analytic match probability needs equidistributed supports")
    if gen.guess_law == "ternary" and any(abs(a) != 1.0 for a in gen.planted_alphabet):
        raise ValueError(
            "ternary guesses can never match alphabet values off {-1, 1}; "
            "use guess_law = alphabet"
        )
    k = 2 if gen.guess_law == "ternary" else len(gen.planted_alphabet)
    nu, n, s = gen.nu, gen.n, gen.s
    p_uncond = (nu / k) ** s * (1.0 - nu) ** (n - s)
    return p_uncond / success_prob_repeated_trials(nu, n)


@dataclass(frozen=True)
class ComparisonResult:
    cell: Cell
    p_l: float
    p_select: float
    n_certified: int
    formula_exact: float
    formula_taylor: float
    n_relax: int
    n_bestof: int
    wall_time: float

    @property
    def rate_relax(self) -> float:
        return self.n_relax / self.cell.trials

    @property
    def rate_bestof(self) -> float:
        return self.n_bestof / self.cell.trials

    @property
    def sigma_joint(self) -> float:
        t = self.cell.trials
        v1 = self.rate_relax * (1 - self.rate_relax) / t
        v2 = self.rate_bestof * (1 - self.rate_bestof) / t
        return math.sqrt(v1 + v2)


def build_comparison_plan(
    cfg: dict[str, list[str]], seed: int | None = None, trials: int | None = None
) -> list[Cell]:
    """One cell per (theta, r); supports are equidistributed and guesses draw from the alphabet."""
    return _plan_cells(
        cfg, COMPARE_KEYS, ("theta", "r"), "compare-cell", seed, trials,
        support_mode="equidistributed", guess_law="alphabet",
    )


def _comparison_chunk(cell: Cell, start: int, stop: int) -> Counter:
    """A chunk's counts of relaxation hits ('relax'), best-of-r hits ('bestof') and certified trials.

    Each trial takes all its draws from its own generator, in a fixed order:
    first the instance whose certificate counts (``sample_instances``), then
    the relaxation side, an unplanted, unsensed instance (``draw_instances``),
    each drawn for the whole chunk, then the best-of side's guesses, one
    ``draw_guesses`` and one ``_condition`` for the chunk.  The best-of side
    guesses the relaxation side's x: every column of the alphabet law equals
    a given x^l with s nonzeros with the same probability, so given x the
    two hits are independent.  A
    relaxation hit (``solver.selected_columns``) selects, in every block l, a
    column equal to x^l, so a program with a block that holds no such column
    cannot hit, whatever its solution.  Only the other programs are sensed
    (``sense``, which gives a row the bits that sensing the whole chunk gives
    it), built and solved, as one stack, and none when there are none; the
    chunk's instances are certified as another.  An error that ends the
    comparison names its cell and trial: the first failed draw, else the
    first trial whose certificate raised or whose best-of guesses stay
    all-zero, the certificate's error if both.
    """
    gen = cell.gen
    n, r, theta = gen.n, gen.r, gen.theta
    seeds, rngs = _trial_generators(cell, start, stop)
    stack = sample_instances(gen, seeds, rngs)
    relax = draw_instances(gen, seeds, rngs)
    failed = {**relax.errors, **stack.errors}  # a trial's select draw fails before its relaxation side's
    if failed:
        raise ValueError(f"cell {cell.index} trial {start + min(failed)}: {failed[min(failed)]}")
    certs = certificate_stack(*stack_programs(stack.A, stack.X, stack.planted, cell.p))
    x, X = relax.x, relax.X
    # a hit SELECTS the hidden blocks: reconstruction alone would also count sign
    # flips (z_l = -1 on a column storing -x^l) and accidental span hits, events
    # p_l deliberately does not model.  holds[j, l, k]: column k of block l
    # equals x^l in trial j; a trial with a block of no such column is not sensed or solved.
    holds = (X == x.reshape(len(x), theta, n, 1)).all(axis=2)
    solvable = np.flatnonzero(holds.any(axis=2).all(axis=1))
    relax_hits = 0
    if len(solvable):
        A, y = sense(relax, solvable)
        B, w, _ = stack_programs(A, X[solvable], relax.planted[solvable], cell.p)
        sel = selected_columns(solve_stack(B, w, y, cell.options), r, theta)
        relax_hits = int((holds[solvable[:, None], np.arange(theta), sel] & (sel >= 0)).all(axis=1).sum())
    # r independent guesses of the whole vector per trial, one nonzero column per block
    guesses = draw_guesses(gen, rngs, np.empty((len(rngs), r, theta, n)))
    failed = {**_condition(gen, rngs, guesses), **{j: c for j, c in enumerate(certs) if isinstance(c, Exception)}}
    if failed:
        exc = failed[min(failed)]
        raise ValueError(f"cell {cell.index} trial {start + min(failed)}: {exc}") from exc
    bestof_hits = (guesses.reshape(len(rngs), r, theta * n) == x[:, None]).all(axis=2).any(axis=1)
    return Counter(relax=relax_hits, bestof=int(bestof_hits.sum()), certified=sum(c.holds for c in certs))


def run_comparison(cells: list[Cell], jobs: int = 1) -> list[ComparisonResult]:
    """Relaxation, best-of-r and certificate rates per cell; results do not depend on ``jobs``."""
    p_ls = [block_match_probability(cell.gen) for cell in cells]
    results = []
    for cell, p_l, counts in zip(cells, p_ls, _run_trials(cells, _comparison_chunk, jobs)):
        certified = counts["certified"]
        p_select = certified / cell.trials
        r, theta = cell.gen.r, cell.gen.theta
        results.append(
            ComparisonResult(
                cell=cell,
                p_l=p_l,
                p_select=p_select,
                n_certified=certified,
                formula_exact=success_prob_block_relaxation(p_l, r, theta, p_select),
                formula_taylor=success_prob_block_relaxation(p_l, r, theta, p_select, taylor=True),
                n_relax=counts["relax"],
                n_bestof=counts["bestof"],
                wall_time=counts["wall_time"],
            )
        )
    return results


# -- CSV output ----------------------------------------------------------------
# A column table lists, in file order, each column's header name and its value
# in one result's row.  Counts and names are written as they are (csv writes a
# None count as a blank cell), floats at 12 significant digits.


def _f(v: float) -> str:
    return format(v, ".12g")


def _column(name: str, field: str | None = None, fmt=None) -> tuple:
    """The column ``name``: a result's (dotted) ``field``, by default ``name``, passed through ``fmt`` if given."""
    get = operator.attrgetter(field or name)
    return name, get if fmt is None else lambda res: fmt(get(res))


def _rate_columns(count: str, tag: str) -> list[tuple]:
    """rate_<tag>, <tag>_lo and <tag>_hi: a result's ``count`` per trial, and its Wilson interval."""

    def value(res, i: int) -> str:
        k, trials = getattr(res, count), res.cell.trials
        return _f((k / trials, *wilson_interval(k, trials))[i])

    return [(name, functools.partial(value, i=i)) for i, name in enumerate((f"rate_{tag}", f"{tag}_lo", f"{tag}_hi"))]


# the leading columns of both CSVs: the cell's index, shape, density and exponent
_CELL_COLUMNS = [
    _column("cell", "cell.index"),
    *(_column(key, f"cell.gen.{key}") for key in ("m", "n", "theta", "r", "s")),
    _column("nu", "cell.gen.nu", _f),
    _column("p", "cell.p", _f),
]
_SWEEP_TABLE = [
    *_CELL_COLUMNS,
    *(_column(key, f"cell.gen.{key}") for key in ("sensing_kind", "support_mode", "guess_law")),
    _column("trials", "cell.trials"),
    _column("cell_seed", "cell.seed"),
    *map(_column, ("n_exact", "n_support_match", "n_fail", "n_certified", "n_error")),
    *map(_column, ("n_oracle_unique", "n_oracle_agree")),
    *_rate_columns("n_exact", "exact"),
    *_rate_columns("n_certified", "cert"),
    _column("wall_time", fmt=_f),
]
_COMPARISON_TABLE = [
    *_CELL_COLUMNS,
    _column("trials", "cell.trials"),
    _column("cell_seed", "cell.seed"),
    *(_column(name, fmt=_f) for name in ("p_l", "p_select", "formula_exact", "formula_taylor")),
    _column("n_relax"),
    _column("rate_relax", fmt=_f),
    _column("n_bestof"),
    *(_column(name, fmt=_f) for name in ("rate_bestof", "sigma_joint", "wall_time")),
]
SWEEP_COLUMNS = [name for name, _ in _SWEEP_TABLE]
COMPARISON_COLUMNS = [name for name, _ in _COMPARISON_TABLE]


def write_csv(fh, columns, rows) -> None:
    """The schema line, the header ``columns`` and ``rows`` as CSV on the open text file ``fh``."""
    fh.write(SCHEMA_COMMENT + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _write_table(table: list[tuple], results, path: str) -> None:
    """``results`` as the CSV file ``path``: ``table``'s header, then one row per result."""
    with open(path, "w", newline="") as fh:
        write_csv(fh, [name for name, _ in table], ([value(res) for _, value in table] for res in results))


def write_sweep_csv(results: list[CellResult], path: str) -> None:
    _write_table(_SWEEP_TABLE, results, path)


def write_comparison_csv(results: list[ComparisonResult], path: str) -> None:
    _write_table(_COMPARISON_TABLE, results, path)
