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
the chunk as one ``generate.InstanceStack``, solve and certify straight from
its arrays as one stack (``solver.solve_stack``, ``solver.certificate_stack``)
and add up each cell's trials in trial order; only an oracle cell builds a
``RelaxedInstance``.  Each stacked operation gives a program the bits it gets
alone, so a trial's outcome does not depend on its chunk-mates, results are
independent of worker count and chunking, and any single sweep trial can be
replayed from its CSV coordinates as a chunk of one.  A ``compare`` trial goes
on drawing from its generator: an unplanted relaxation side
(``generate.draw_instances``), then best-of-r guesses of that side's hidden
vector.  CSV files start with a '# schema=5' comment; wall_time is always the
last column and is the only one allowed to differ between runs.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import success_prob_block_relaxation
from .generate import (
    SCHEMA_COMMENT,
    GenConfig,
    InstanceStack,
    derive_seed,
    draw_instances,
    instance_generator,
    sample_guess_columns,
    sample_instances,
)
from .model import effective_stack, weight_stack
from .oracle import ENUMERATION_GUARD, enumerate_selectors
from .solver import (
    SolveOptions,
    certificate_stack,
    recovery_stack,
    solve_stack,
)

__all__ = [
    "parse_config",
    "expand_config",
    "gen_config",
    "config_number",
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


# a count below one leaves no trial, worker or redraw to run; p outside (0, 1]
# leaves the weighted objective no p-quasinorm
_AT_LEAST_ONE = functools.partial(config_number, ok=lambda v: v >= 1, rule="be at least 1")
_EXPONENT = functools.partial(config_number, kind=float, ok=lambda p: 0.0 < p <= 1.0, rule="lie in (0, 1]")
# the same parsers for the --p and --jobs flags and BLOCKRELAX_JOBS
config_exponent = functools.partial(_EXPONENT, "p")
config_jobs = functools.partial(_AT_LEAST_ONE, "jobs")


def _guess_density(key: str, value: str):
    """A float, or the literal 's/n' that couples it to the cell's support fraction."""
    return value if value == "s/n" else config_number(key, value, float)


def _alphabet(key: str, value: str) -> tuple[float, ...]:
    return tuple(config_number(key, a, float) for a in value.split(","))


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
    "alphabet": (GenConfig.planted_alphabet, _alphabet),
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
    "alphabet": ((-1.0, 1.0), _alphabet),
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


# most floats one chunk's sensing and guess draws may hold; a chunk has at least one trial
_CHUNK_FLOATS = 1 << 15


def _chunks(cell: Cell) -> list[tuple[int, int]]:
    """(start, stop) trial ranges of ``cell``'s chunks, in trial order."""
    g = cell.gen
    size = max(1, _CHUNK_FLOATS // (g.theta * g.n * (g.m + g.r)))
    return [(start, min(start + size, cell.trials)) for start in range(0, cell.trials, size)]


def _cell_stack(cell: Cell, start: int, stop: int) -> tuple[InstanceStack, list]:
    """Trials start .. stop-1 of ``cell`` drawn as one stack, and their generators after the draw."""
    seeds = [derive_seed(cell.seed, "trial", t) for t in range(start, stop)]
    rngs = [instance_generator(seed) for seed in seeds]
    return sample_instances(cell.gen, seeds, rngs), rngs


def _timed_chunk(fn, cell: Cell, start: int, stop: int):
    t0 = time.perf_counter()
    out = fn(cell, start, *_cell_stack(cell, start, stop))
    return out, time.perf_counter() - t0


def _run_trials(cells, fn, jobs: int) -> list[tuple[list, float]]:
    """``fn(cell, start, stack, rngs)`` for every chunk of every cell, on ``jobs`` processes.

    ``stack`` holds the chunk's trials from ``start`` on (``_cell_stack``)
    and ``rngs`` each trial's generator after its draw; ``fn`` returns one
    output per trial.  One work item draws one chunk of one cell's trials
    (``_chunks``), so the items do not depend on ``jobs``.  Per cell, in plan
    order: its trial outputs in trial order and the summed time of its chunks.  ``fn`` must be module-level so worker
    processes can import it; ``jobs`` below one raises.
    """
    chunks = [_chunks(cell) for cell in cells]
    items = [(cell, start, stop) for cell, ranges in zip(cells, chunks) for start, stop in ranges]
    task = functools.partial(_timed_chunk, fn)
    if config_jobs(jobs) == 1:
        raw = itertools.starmap(task, items)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = iter(list(pool.map(task, *zip(*items))))
    grouped = []
    for ranges in chunks:
        parts = list(itertools.islice(raw, len(ranges)))
        grouped.append(([out for outs, _ in parts for out in outs], sum(dt for _, dt in parts)))
    return grouped


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

    @property
    def rate_exact(self) -> float:
        return self.n_exact / self.cell.trials

    @property
    def rate_certified(self) -> float:
        return self.n_certified / self.cell.trials


def _sweep_chunk(cell: Cell, start: int, stack: InstanceStack, rngs: list) -> list[tuple]:
    """(verdict, certified, oracle_unique, oracle_agree) of each trial of a chunk; ``start`` and ``rngs`` are unused.

    A trial that raises anywhere, in its draw too, is data, not a crash: its
    verdict is 'error'.
    """
    return [_sweep_trial(cell, stack, i, art) for i, art in enumerate(_trial_artifacts(cell, stack))]


def _sweep_trial(cell: Cell, stack: InstanceStack, i: int, artifacts) -> tuple[str, bool, bool, bool]:
    """Sweep outputs of trial ``i`` of a stack from its ``_trial_artifacts`` entry; oracle cells build its instance."""
    if isinstance(artifacts, Exception):
        return "error", False, False, False
    try:
        result, cert, verdict = artifacts
        unique = agree = False
        if cell.oracle:
            instance = stack.instance(i)
            oracle_res = enumerate_selectors(instance, cell.p)
            unique = oracle_res.unique
            if unique and cert.holds:
                planted = instance.X.planted_cols
                solver_combo = _support_to_combo(result.detected_support, cell.gen.r, cell.gen.theta)
                agree = oracle_res.best_combos[0] == planted == solver_combo
        return verdict, bool(cert.holds), bool(unique), bool(agree)
    except Exception:
        return "error", False, False, False


def _support_to_combo(support, r: int, theta: int):
    """Detected support as one column per block, or None when not selector-shaped."""
    per_block = [[] for _ in range(theta)]
    for g in support:
        per_block[g // r].append(g % r)
    if any(len(b) != 1 for b in per_block):
        return None
    return tuple(b[0] for b in per_block)


def run_sweep(plan: SweepPlan, jobs: int = 1) -> list[CellResult]:
    """Execute all cells; results do not depend on ``jobs``."""
    results = []
    for cell, (outs, wall_time) in zip(plan.cells, _run_trials(plan.cells, _sweep_chunk, jobs)):
        verdicts, certified, unique, agree = zip(*outs)
        results.append(
            CellResult(
                cell=cell,
                n_exact=verdicts.count("exact"),
                n_support_match=verdicts.count("support-match"),
                n_fail=verdicts.count("fail"),
                n_certified=sum(certified),
                n_error=verdicts.count("error"),
                n_oracle_unique=sum(unique) if cell.oracle else None,
                n_oracle_agree=sum(agree) if cell.oracle else None,
                wall_time=wall_time,
            )
        )
    return results


SWEEP_COLUMNS = [
    "cell",
    "m",
    "n",
    "theta",
    "r",
    "s",
    "nu",
    "p",
    "sensing_kind",
    "support_mode",
    "guess_law",
    "trials",
    "cell_seed",
    "n_exact",
    "n_support_match",
    "n_fail",
    "n_certified",
    "n_error",
    "n_oracle_unique",
    "n_oracle_agree",
    "rate_exact",
    "exact_lo",
    "exact_hi",
    "rate_cert",
    "cert_lo",
    "cert_hi",
    "wall_time",
]


def _f(v: float) -> str:
    return format(v, ".12g")


def write_csv(fh, columns, rows) -> None:
    """The schema line, the header ``columns`` and ``rows`` as CSV on the open text file ``fh``."""
    fh.write(SCHEMA_COMMENT + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _cell_fields(cell: Cell) -> list:
    """The leading CSV fields of a cell, shared by the sweep and comparison CSVs."""
    g = cell.gen
    return [cell.index, g.m, g.n, g.theta, g.r, g.s, _f(g.nu), _f(cell.p)]


def write_sweep_csv(results: list[CellResult], path: str) -> None:
    rows = (
        [
            *_cell_fields(res.cell),
            res.cell.gen.sensing_kind,
            res.cell.gen.support_mode,
            res.cell.gen.guess_law,
            res.cell.trials,
            res.cell.seed,
            res.n_exact,
            res.n_support_match,
            res.n_fail,
            res.n_certified,
            res.n_error,
            "" if res.n_oracle_unique is None else res.n_oracle_unique,
            "" if res.n_oracle_agree is None else res.n_oracle_agree,
            _f(res.rate_exact),
            *map(_f, wilson_interval(res.n_exact, res.cell.trials)),
            _f(res.rate_certified),
            *map(_f, wilson_interval(res.n_certified, res.cell.trials)),
            _f(res.wall_time),
        ]
        for res in results
    )
    with open(path, "w", newline="") as fh:
        write_csv(fh, SWEEP_COLUMNS, rows)


def replay_trial(plan: SweepPlan, cell_index: int, trial: int):
    """Re-run a single sweep trial, as a chunk of one: its instance, solve, certificate and verdict."""
    cell = plan.cells[cell_index]
    stack, _ = _cell_stack(cell, trial, trial + 1)
    instance = stack.instance(0)
    (artifacts,) = _trial_artifacts(cell, stack)
    if isinstance(artifacts, Exception):
        raise artifacts
    return (instance, *artifacts)


def _programs(cell: Cell, stack: InstanceStack) -> tuple:
    """(B, w, planted global columns) of each row of a stack, as ``solver.certificate_for_instance`` forms them."""
    planted = stack.planted + cell.gen.r * np.arange(cell.gen.theta)
    return effective_stack(stack.A, stack.X), weight_stack(stack.X, cell.p), planted


def _trial_artifacts(cell: Cell, stack: InstanceStack) -> list:
    """(solve, planted-support certificate, verdict) of each trial of a stack.

    The stack's rows form one stack of programs: B is one product of its
    sensing and guess stacks, and one solve, one certificate and one
    reconstruction call cover the chunk, each giving a program the bits it
    gets alone.  An entry is the error the trial's draw or program raised
    instead, where one did.
    """
    out: list = [stack.errors.get(i) for i in range(len(stack.seeds))]
    rows = stack.rows
    if not rows:
        return out
    B, w, planted = _programs(cell, stack)
    results = solve_stack(B, w, stack.y, cell.options)
    certs = certificate_stack(B, w, planted, np.ones(planted.shape))
    solved = [j for j, res in enumerate(results) if not isinstance(res, Exception)]
    checked = recovery_stack(stack.X[solved], stack.x[solved], planted[solved], [results[j] for j in solved])
    verdicts = dict(zip(solved, checked))
    for j, (i, result, cert) in enumerate(zip(rows, results, certs)):
        if isinstance(result, Exception) or isinstance(cert, Exception):
            out[i] = result if isinstance(result, Exception) else cert
        else:
            out[i] = (result, cert, verdicts[j])
    return out


# -- comparison against the repeated-guessing baseline ------------------------


def block_match_probability(gen: GenConfig) -> float:
    """Probability that one (nonzero-conditioned) guess column equals a hidden block.

    Needs an ensemble whose nonzero guess values are uniform over the planted
    alphabet; with equidistributed supports every block has s hidden entries,
    giving ((nu/|alphabet|)^s (1-nu)^(n-s)) / (1 - (1-nu)^n).
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
    return p_uncond / -math.expm1(n * math.log1p(-nu))


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


def _comparison_chunk(cell: Cell, start: int, stack: InstanceStack, rngs: list) -> list[tuple[bool, bool, bool]]:
    """(relax_hit, bestof_hit, certified) of each trial of a chunk.

    Each trial takes all its draws from its own generator, in a fixed order:
    first the instance whose certificate counts (``stack``, drawn by
    ``_run_trials``), then the relaxation side, an unplanted stack
    (``draw_instances``), then the best-of side's guesses.  The best-of
    side guesses the relaxation side's x: every column of the alphabet law
    equals a given x^l with s nonzeros with the same probability, so given x
    the two hits are independent.  The chunk's relaxation programs are
    solved as one stack and its instances certified as another.  A draw
    that fails ends the comparison with one error naming its trial.
    """
    gen = cell.gen
    n, r, theta = gen.n, gen.r, gen.theta
    relax = draw_instances(gen, stack.seeds, rngs)
    failed = {**relax.errors, **stack.errors}  # a trial's select draw fails before its relaxation side's
    if failed:
        raise ValueError(f"cell {cell.index} trial {start + min(failed)}: {failed[min(failed)]}")
    B, w, planted = _programs(cell, stack)
    certs = certificate_stack(B, w, planted, np.ones(planted.shape))
    x, X = relax.x, relax.X
    solves = solve_stack(effective_stack(relax.A, X), weight_stack(X, cell.p), relax.y, cell.options)
    out = []
    for j, rng in enumerate(rngs):
        if isinstance(certs[j], Exception):
            raise certs[j]
        # success means the relaxation SELECTS the hidden blocks: the solution
        # must be one column per block and those columns must equal x exactly.
        # Reconstruction alone would also count sign flips (z_l = -1 on a column
        # storing -x^l) and accidental span hits, events the per-column match
        # probability p_l deliberately does not model.  A program that raised
        # (weights not strictly positive, say) selects nothing.
        combo = None if isinstance(solves[j], Exception) else _support_to_combo(solves[j].detected_support, r, theta)
        relax_hit = combo is not None and all(
            np.array_equal(X[j, l, :, k], x[j, l * n : (l + 1) * n])
            for l, k in enumerate(combo)
        )
        # r independent guesses of the whole vector, one nonzero column per block
        g = sample_guess_columns(gen, rng, (r, theta))
        bestof_hit = bool(np.all(g.reshape(r, -1) == x[j], axis=1).any())
        out.append((relax_hit, bestof_hit, certs[j].holds))
    return out


def run_comparison(cells: list[Cell], jobs: int = 1) -> list[ComparisonResult]:
    """Relaxation, best-of-r and certificate rates per cell; results do not depend on ``jobs``."""
    p_ls = [block_match_probability(cell.gen) for cell in cells]
    results = []
    for cell, p_l, (outs, wall_time) in zip(cells, p_ls, _run_trials(cells, _comparison_chunk, jobs)):
        relax, bestof, certified = (sum(col) for col in zip(*outs))
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
                n_relax=relax,
                n_bestof=bestof,
                wall_time=wall_time,
            )
        )
    return results


COMPARISON_COLUMNS = [
    "cell",
    "m",
    "n",
    "theta",
    "r",
    "s",
    "nu",
    "p",
    "trials",
    "cell_seed",
    "p_l",
    "p_select",
    "formula_exact",
    "formula_taylor",
    "n_relax",
    "rate_relax",
    "n_bestof",
    "rate_bestof",
    "sigma_joint",
    "wall_time",
]


def write_comparison_csv(results: list[ComparisonResult], path: str) -> None:
    rows = (
        [
            *_cell_fields(res.cell),
            res.cell.trials,
            res.cell.seed,
            _f(res.p_l),
            _f(res.p_select),
            _f(res.formula_exact),
            _f(res.formula_taylor),
            res.n_relax,
            _f(res.rate_relax),
            res.n_bestof,
            _f(res.rate_bestof),
            _f(res.sigma_joint),
            _f(res.wall_time),
        ]
        for res in results
    )
    with open(path, "w", newline="") as fh:
        write_csv(fh, COMPARISON_COLUMNS, rows)
