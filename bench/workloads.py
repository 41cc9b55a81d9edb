"""The four benchmark workloads.

Each workload makes its inputs from the workload seed, runs them through the
package's public entry points for a fixed number of seconds, and checks the
outputs against independent references after the clock stops.

``setup(seed)`` does the set-up a user pays once per run (config parsing,
plan building, study construction, one warm-up pass).  ``run(seconds,
tracer, start)`` is the timed loop; it continues the schedule at ``start``
and returns a ``Run``.  The loop is cut into windows of about
``WINDOW_S`` seconds, and a short fixed kernel (``probe``) is timed outside
the clock between windows, so each window carries a reading of how fast the
shared host ran just then.  ``check(runs)`` works outside the timed region and
returns a ``Check``.  Program calls go through module attributes
(``sweep.run_sweep``), so a tracer installed on the modules sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from blockrelax import concentration, generate, model, oracle, reductions, solver, storage, sweep

P = 0.5
OPTS = solver.SolveOptions()
clock = time.perf_counter
WINDOW_S = 0.25  # timed seconds between two host-speed probes

_PROBE_VECTOR = np.linspace(0.0, 1.0, 64)


def probe() -> float:
    """Seconds a fixed kernel of interpreter loops and small NumPy ufuncs takes now.

    The host is shared, and its speed drifts by a third or more over seconds
    to minutes.  The probe's time follows that drift.  It calls no BLAS, so
    the program's BLAS threading cannot change it, and it does not depend on
    the workload's inputs.
    """
    t0 = clock()
    acc = 0
    for k in range(4000):
        acc += k * k
    x = _PROBE_VECTOR
    for _ in range(200):
        x = np.abs(np.sin(x)) + 0.5 * x
    return clock() - t0


@dataclass
class Window:
    """The timed calls between two probes."""

    score: float  # mean of the two probe times around the window
    busy: float
    items: int
    samples: list  # seconds per item, one per timed call


@dataclass
class Run:
    """What the timed loop saw: per-item seconds, counts, and raw outputs."""

    samples: list = field(default_factory=list)  # seconds per item, one per timed call
    busy: float = 0.0  # summed time of the timed calls
    items: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)  # (job index, output or exception)
    next_index: int = 0  # where a following run continues the schedule
    extra: dict = field(default_factory=dict)
    windows: list = field(default_factory=list)

    def merge(self, other: "Run") -> None:
        """Fold a later segment of the same workload into this run."""
        self.samples += other.samples
        self.busy += other.busy
        self.items += other.items
        self.failed += other.failed
        self.outputs += other.outputs
        self.windows += other.windows
        self.next_index = other.next_index
        for key, val in other.extra.items():
            if isinstance(val, list):
                self.extra.setdefault(key, []).extend(val)
            else:
                self.extra[key] = val

    @property
    def items_per_s(self) -> float:
        return self.items / self.busy


def probe_cpus() -> float:
    """Harmonic mean of the probe times on every CPU this process may use.

    The CPUs of the host slow down independently of each other.  A pool that
    keeps all of them busy hands work to whichever is free, so it completes
    work at the sum of their speeds; the harmonic mean of the probe times is
    the time at that summed speed, times the number of CPUs.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    except OSError:  # pinning refused: read the CPU this process is on
        times = [probe()]
    finally:
        os.sched_setaffinity(0, cpus)
    return len(times) / sum(1.0 / t for t in times)


class _Windows:
    """Cuts a timed loop into windows and probes the host between them."""

    def __init__(self, run: Run, all_cpus: bool = False):
        self.run = run
        self.probe = probe_cpus if all_cpus else probe
        self.before = self.probe()
        self._open()

    def _open(self) -> None:
        self.busy, self.items, self.samples = 0.0, 0, []

    def add(self, dt: float, items: int, sample_s: list) -> None:
        self.busy += dt
        self.items += items
        self.samples += sample_s

    def close(self, force: bool = False) -> None:
        if self.items and (force or self.busy >= WINDOW_S):
            after = self.probe()
            self.run.windows.append(Window((self.before + after) / 2, self.busy, self.items, self.samples))
            self.before = after
            self._open()


@dataclass
class Check:
    violations: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)  # outcome counts over the items attempted
    digest_items: list = field(default_factory=list)  # outcomes of a fixed prefix of the schedule
    shares: dict = field(default_factory=dict)  # share of the property each workload is chosen for
    ratios: dict = field(default_factory=dict)  # injective / certified / exact over the items attempted
    failed: int = 0  # failures only visible to the checks (status != 'optimal' inside a sweep)

    @property
    def digest(self) -> str:
        text = json.dumps(self.digest_items, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    name = ""
    jobs = 1
    # item_ms_p99 percentile: p95 lies inside the cluster of the heaviest items
    # (m=4 grid scans, comparison calls), where it moves little between seeds
    tail_level = 95.0

    def __init__(self, scratch: str):
        self.scratch = scratch  # directory for files the workload writes


def _root(tracer, item=None):
    return tracer.item_span(item) if tracer is not None else contextlib.nullcontext()


def _item_loop(jobs, do_job, seconds: float, tracer, start: int, count: int | None = None) -> Run:
    """Cycle through ``jobs`` from index ``start`` until ``seconds`` of timed calls have run.

    With ``count`` the loop runs exactly that many jobs instead.  A job is
    ``(size, payload)``; ``do_job(payload, index)`` returns ``(failed_items,
    output)``.  Each call gives one per-item sample, its time divided by its
    size.  A call that raises counts all of its items failed.
    """
    run = Run()
    win = _Windows(run)
    i = start
    while True:
        size, payload = jobs[i % len(jobs)]
        t0 = clock()
        with _root(tracer, i):
            try:
                bad, out = do_job(payload, i)
            except Exception as exc:  # failures are data here; the run reports them
                bad, out = size, exc
        dt = clock() - t0
        run.busy += dt
        run.samples.append(dt / size)
        run.items += size
        run.failed += bad
        run.outputs.append((i, out))
        win.add(dt, size, [dt / size])
        i += 1
        if (i - start >= count) if count is not None else run.busy >= seconds:
            break
        win.close()
    win.close(force=True)
    run.next_index = i
    return run


def _first_outputs(runs, n: int) -> list:
    """The outputs of the n lowest schedule indices, whichever run made them."""
    return sorted((o for run in runs for o in run.outputs), key=lambda o: o[0])[:n]


def _interleave(parts):
    """Merge lists so that every prefix holds each part in proportion to its size."""
    keyed = []
    for order, part in enumerate(parts):
        for j, job in enumerate(part):
            keyed.append(((j + 0.5) / len(part), order, job))
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [job for _, _, job in keyed]


def _is_injective(inst) -> bool:
    B = model.effective_matrix(inst.A, inst.X)
    return int(np.linalg.matrix_rank(B)) == B.shape[1]


# -- corpus ---------------------------------------------------------------------

CORPUS_CFG = """m = 16
m = 32
theta = 2
theta = 4
s = 4
s = 8
r = 2
r = 4
r = 8
guess_density = s/n
"""
CORPUS_TRIALS = 21  # 24 cells x 21 trials, the README/acceptance sweep; ~1 s per sweep at jobs=2


def _strip_wall_time(path: str) -> list[str]:
    with open(path) as fh:
        return [line.rsplit(",", 1)[0] for line in fh.read().splitlines()]


class Corpus(Workload):
    """The README/acceptance sweep through parse_config -> run_sweep -> write_sweep_csv.

    One item is one trial.  Item times are the per-cell mean trial times
    (CellResult.wall_time / trials), the finest time run_sweep exposes.
    """

    name = "corpus"
    jobs = 2
    # the per-cell samples repeat every sweep, so a level picks a rank among
    # the 24 cells; p90 sits on cells whose means vary less from seed to seed
    tail_level = 90.0

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.setup_plan()
        warm = sweep.build_sweep_plan(sweep.parse_config(CORPUS_CFG), seed=seed, trials=1)
        sweep.run_sweep(warm, jobs=1)

    def setup_plan(self) -> None:
        self.plan = sweep.build_sweep_plan(sweep.parse_config(CORPUS_CFG), seed=self.seed, trials=CORPUS_TRIALS)

    def run(self, seconds: float, tracer=None, start: int = 0, jobs: int | None = None) -> Run:
        """Whole sweeps until ``seconds`` have run; every sweep has the same inputs."""
        jobs = jobs or self.jobs
        run = Run(extra={"jobs": jobs, "sweep_s": [], "summed_trial_s": [], "csv": []})
        path = os.path.join(self.scratch, f"corpus-jobs{jobs}.csv")
        win = _Windows(run, all_cpus=jobs > 1)
        while True:
            t0 = clock()
            with _root(tracer):
                results = sweep.run_sweep(self.plan, jobs=jobs)
                sweep.write_sweep_csv(results, path)
            dt = clock() - t0
            run.busy += dt
            run.extra["sweep_s"].append(dt)
            run.extra["summed_trial_s"].append(sum(res.wall_time for res in results))
            run.extra["csv"].append(_strip_wall_time(path))
            samples = [res.wall_time / res.cell.trials for res in results]
            trials = sum(res.cell.trials for res in results)
            run.samples += samples
            run.items += trials
            run.failed += sum(res.n_error for res in results)
            run.outputs.append((len(run.outputs), results))
            win.add(dt, trials, samples)  # one sweep per window
            win.close(force=True)
            if run.busy >= seconds:
                return run

    def storage_sample(self, tracer=None) -> list:
        """Replay one fixed trial per cell, round-trip it through a file, re-solve."""
        out = []
        path = os.path.join(self.scratch, "replay-instance.txt")
        for cell in self.plan.cells:
            trial = cell.index % cell.trials
            with _root(tracer, -1):
                inst, res, cert, verdict = sweep.replay_trial(self.plan, cell.index, trial)
                storage.save_instance(inst, path)
                try:
                    loaded = storage.load_instance(path)
                    verdict2 = solver.recovery_check(loaded, solver.solve_instance(loaded, cell.p, cell.options))
                except ValueError as exc:  # the container no longer holds a valid instance
                    out.append((cell.index, trial, verdict, f"load failed: {exc}", False))
                    continue
            same = (
                np.array_equal(inst.x, loaded.x)
                and np.array_equal(inst.y, loaded.y)
                and all(np.array_equal(a, b) for a, b in zip(inst.A.blocks, loaded.A.blocks))
                and all(np.array_equal(a, b) for a, b in zip(inst.X.blocks, loaded.X.blocks))
            )
            out.append((cell.index, trial, verdict, verdict2, same))
        return out

    def check(self, runs: list, sample: list | None = None) -> Check:
        chk = Check()
        csvs = [csv for run in runs for csv in run.extra["csv"]]
        if any(csv != csvs[0] for csv in csvs):
            chk.violations.append("corpus CSV (without wall_time) differs between repeats or jobs")
        first = runs[0].outputs[0][1]
        repeats = sum(len(run.outputs) for run in runs)
        # replay every trial: per-cell counts must match the sweep, certified must be exact
        counts = dict.fromkeys(("exact", "support-match", "fail", "certified", "error", "non_optimal", "injective"), 0)
        for res in first:
            cell = res.cell
            tally = dict.fromkeys(counts, 0)
            for t in range(cell.trials):
                try:
                    inst, sol, cert, verdict = sweep.replay_trial(self.plan, cell.index, t)
                except Exception:
                    tally["error"] += 1
                    continue
                tally[verdict] += 1
                tally["certified"] += int(cert.holds)
                tally["injective"] += int(_is_injective(inst))
                tally["non_optimal"] += int(sol.status != "optimal")
                if cert.holds and verdict != "exact":
                    chk.violations.append(f"corpus cell {cell.index} trial {t}: certified but {verdict}")
            swept = (res.n_exact, res.n_support_match, res.n_fail, res.n_certified, res.n_error)
            replayed = (tally["exact"], tally["support-match"], tally["fail"], tally["certified"], tally["error"])
            if swept != replayed:
                chk.violations.append(f"corpus cell {cell.index}: sweep counts {swept} != replay counts {replayed}")
            for k in counts:
                counts[k] += tally[k]
        sample = sample if sample is not None else self.storage_sample()
        for ci, trial, verdict, verdict2, same in sample:
            if not same or verdict != verdict2:
                chk.violations.append(f"corpus cell {ci} trial {trial}: storage round-trip changed the instance or verdict")
        n = sum(res.cell.trials for res in first)
        # every repeat runs the same trials; the sweep's n_error is already in run.failed
        chk.failed = counts["non_optimal"] * repeats
        chk.verdicts = counts
        chk.digest_items = csvs[0]
        chk.shares = {"injective": counts["injective"] / n}
        chk.ratios = {
            "injective": counts["injective"] / n,
            "certified": counts["certified"] / n,
            "exact": counts["exact"] / n,
        }
        return chk


# -- underdetermined ------------------------------------------------------------

# (m, theta, s, r) with m < r*theta, so B is never injective and ADMM iterates
UNDERDETERMINED_CELLS = ((16, 4, 4, 8), (16, 4, 4, 16), (32, 8, 4, 8), (32, 8, 8, 8), (16, 2, 4, 16), (32, 4, 8, 16))
DIGEST_PREFIX = 120
# The loop runs a fixed number of trials, about this many per second asked for,
# not a fixed time: a few trials stop at max-iter, and a run of a seed must meet
# the same ones every time it is made.
UNDERDETERMINED_ITEMS_PER_S = 70


class Underdetermined(Workload):
    """Single-process trials of m < r*theta cells: build -> solve -> certificate -> verdict.

    One item is one trial; item i is trial i // 6 of cell i % 6.  A run of
    ``seconds`` makes ``UNDERDETERMINED_ITEMS_PER_S * seconds`` trials.
    """

    name = "underdetermined"
    # the slowest trials differ much between seeds; p90 is the highest level
    # whose value stays within a tenth across seeds
    tail_level = 90.0

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cell_seeds = [generate.derive_seed(seed, "cell", ci) for ci in range(len(UNDERDETERMINED_CELLS))]
        self.schedule = [(1, ci) for ci in range(len(UNDERDETERMINED_CELLS))]
        for ci in range(len(UNDERDETERMINED_CELLS)):
            self._trial(ci, -1)

    def _config(self, ci: int, trial: int) -> generate.GenConfig:
        m, theta, s, r = UNDERDETERMINED_CELLS[ci]
        return generate.GenConfig(
            m=m, n=m, theta=theta, r=r, s=s, guess_density=s / m,
            master_seed=generate.derive_seed(self.cell_seeds[ci], "trial", trial),
        )

    def _trial(self, ci: int, trial: int):
        inst = generate.build_instance(self._config(ci, trial))
        res = solver.solve_instance(inst, P, OPTS)
        cert = solver.certificate_for_instance(inst, P)
        verdict = solver.recovery_check(inst, res)
        return res, cert.holds, verdict

    def run(self, seconds: float, tracer=None, start: int = 0) -> Run:
        def job(ci, i):
            res, holds, verdict = self._trial(ci, i // len(UNDERDETERMINED_CELLS))
            return int(res.status != "optimal"), (res.objective, res.status, holds, verdict)

        count = max(1, round(UNDERDETERMINED_ITEMS_PER_S * seconds))
        return _item_loop(self.schedule, job, seconds, tracer, start, count=count)

    def check(self, runs: list) -> Check:
        from scipy.optimize import linprog

        chk = Check()
        counts = dict.fromkeys(("exact", "support-match", "fail", "certified", "non_optimal", "error", "injective"), 0)
        n = 0
        for run in runs:
            for i, out in run.outputs:
                n += 1
                if isinstance(out, Exception):
                    counts["error"] += 1
                    continue
                objective, status, holds, verdict = out
                ci, trial = i % len(UNDERDETERMINED_CELLS), i // len(UNDERDETERMINED_CELLS)
                counts[verdict] += 1
                counts["certified"] += int(holds)
                counts["non_optimal"] += int(status != "optimal")
                if holds and verdict != "exact":
                    chk.violations.append(f"underdetermined cell {ci} trial {trial}: certified but {verdict}")
                inst = generate.build_instance(self._config(ci, trial))
                B = model.effective_matrix(inst.A, inst.X)
                w = model.solver_weights(inst.X, P)
                counts["injective"] += int(np.linalg.matrix_rank(B) == B.shape[1])
                # split form z = z+ - z-: min w.(z+ + z-) s.t. B z+ - B z- = y, z+-, z- >= 0
                lp = linprog(np.concatenate([w, w]), A_eq=np.hstack([B, -B]), b_eq=inst.y, bounds=(0, None), method="highs")
                if lp.status != 0:
                    chk.violations.append(f"underdetermined cell {ci} trial {trial}: HiGHS failed ({lp.message})")
                    continue
                gap = abs(objective - lp.fun) / max(abs(lp.fun), 1e-12)
                if status != "optimal":
                    # already a failed item; its distance from the optimum is recorded, not judged
                    chk.verdicts.setdefault("non_optimal_gaps", []).append([ci, trial, status, gap])
                elif gap > 1e-6:
                    chk.violations.append(
                        f"underdetermined cell {ci} trial {trial}: objective {objective!r} vs HiGHS {lp.fun!r}"
                    )
        first = _first_outputs(runs, DIGEST_PREFIX)
        chk.digest_items = [
            repr(out) if isinstance(out, Exception) else list(out[1:]) for _, out in first
        ]
        chk.verdicts = {**counts, **chk.verdicts}
        chk.shares = {"injective": counts["injective"] / n}
        chk.ratios = {
            "injective": counts["injective"] / n,
            "certified": counts["certified"] / n,
            "exact": counts["exact"] / n,
        }
        return chk


# -- exhaustive -----------------------------------------------------------------

X3C_POOL = ((0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5), (0, 2, 4), (1, 3, 5), (1, 2, 3), (0, 4, 5))
# a fixed slice, every 16th of the 256 m=4 Partition instances: they take most of
# the run's time, so a slice that moved with the seed would move the timings too
PARTITION_M4_STEP = 16
# (m, theta, r, s) planted instances for enumerate_selectors, two of each; r**theta up to 16**4
ENUM_CELLS = ((16, 2, 16, 4), (32, 3, 8, 4), (32, 4, 8, 4), (64, 4, 16, 8), (32, 4, 16, 4))
ENUM_PER_CELL = 2


class Exhaustive(Workload):
    """Reduction deciders and selector enumeration, with no convex solve.

    One item is one decider call or one enumeration.  The three parts are
    interleaved so any prefix of the schedule holds them in proportion.
    """

    name = "exhaustive"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.x3c_seed = seed % (1 << 32)
        x3c = [
            ("x3c", reductions.X3CInstance(m=6, triples=chosen))
            for size in range(1, 5)
            for chosen in itertools.combinations(X3C_POOL, size)
        ]
        small = [
            ("partition", reductions.PartitionInstance(a=a))
            for m in range(1, 4)
            for a in itertools.product((1, 2, 3, 4), repeat=m)
        ]
        m4 = [
            ("partition", reductions.PartitionInstance(a=a))
            for j, a in enumerate(itertools.product((1, 2, 3, 4), repeat=4))
            if j % PARTITION_M4_STEP == 0
        ]
        enum = []
        for ci, (m, theta, r, s) in enumerate(ENUM_CELLS):
            for k in range(ENUM_PER_CELL):
                gen = generate.GenConfig(
                    m=m, n=m, theta=theta, r=r, s=s, guess_density=s / m,
                    master_seed=generate.derive_seed(seed, "enum", ci * ENUM_PER_CELL + k),
                )
                enum.append(("enum", generate.build_instance(gen)))
        rng = np.random.default_rng(generate.derive_seed(seed, "schedule"))
        parts = [[part[k] for k in rng.permutation(len(part))] for part in (x3c, small, m4, enum)]
        self.schedule = [(1, job) for job in _interleave(parts)]
        # warm up on the first instance of each part as built, not as shuffled,
        # so that set-up does the same work whatever the seed
        for part in (x3c, small, enum):
            self._do(part[0])

    def _do(self, job):
        kind, inst = job
        if kind == "x3c":
            return reductions.decide_x3c_via_l0(inst, seed=self.x3c_seed)
        if kind == "partition":
            return reductions.decide_partition_via_lp(inst)
        return oracle.enumerate_selectors(inst, P)

    def run(self, seconds: float, tracer=None, start: int = 0) -> Run:
        return _item_loop(self.schedule, lambda job, i: (0, self._do(job)), seconds, tracer, start)

    def check(self, runs: list) -> Check:
        chk = Check()
        counts = dict.fromkeys(("yes", "no", "unique", "tied", "certified", "injective", "partition_m4", "error"), 0)
        reference = {}
        n = 0
        for run in runs:
            for i, out in run.outputs:
                n += 1
                j = i % len(self.schedule)
                kind, inst = self.schedule[j][1]
                if kind == "partition" and inst.m == 4:
                    counts["partition_m4"] += 1
                if isinstance(out, Exception):
                    counts["error"] += 1
                    continue
                if j not in reference:
                    if kind == "x3c":
                        reference[j] = reductions.has_exact_cover(inst)
                    elif kind == "partition":
                        reference[j] = reductions.has_partition(inst)
                    else:
                        reference[j] = (solver.certificate_for_instance(inst, P).holds, _is_injective(inst))
                if kind == "enum":
                    holds, injective = reference[j]
                    counts["unique" if out.unique else "tied"] += 1
                    counts["certified"] += int(holds)
                    counts["injective"] += int(injective)
                    planted = tuple(int(k) for k in inst.X.planted_cols)
                    if holds and not (out.unique and out.best_combos[0] == planted):
                        chk.violations.append(f"exhaustive item {i}: certified instance, oracle optimum {out.best_combos} != planted {planted}")
                else:
                    counts["yes" if out else "no"] += 1
                    if bool(out) != reference[j]:
                        chk.violations.append(f"exhaustive item {i} ({kind}): decider {out} != brute force {reference[j]}")
        chk.digest_items = [
            repr(out) if isinstance(out, Exception) else (bool(out) if isinstance(out, bool) else [list(map(list, out.best_combos)), out.feasible_count])
            for _, out in _first_outputs(runs, DIGEST_PREFIX)
        ]
        n_enum = counts["unique"] + counts["tied"]
        chk.verdicts = counts
        chk.shares = {"partition_m4": counts["partition_m4"] / n, "injective": counts["injective"] / max(n_enum, 1)}
        chk.ratios = {
            "injective": counts["injective"] / n,
            "certified": counts["certified"] / n,
            "exact": 0.0,
        }
        return chk


# -- montecarlo -----------------------------------------------------------------

MC_THETAS = (1, 4)  # acceptance test_04: m = n = 12, r = 4, s = 3, nu = 0.25
MC_REDRAWS = 25  # redraws per empirical_image_moments / empirical_concentration_tail call
MC_TAIL_EPS = 0.5
COMPARISON_CFG = "m = 4\ns = 2\ntheta = 1\nr = 2\nr = 4\nguess_density = 0.5\n"  # acceptance test_09
COMPARISON_TRIALS = 3  # per cell per run_comparison call: 2 cells x 3 trials
Z_HARD = 4.0
DIGEST_CALLS = 28


class MonteCarlo(Workload):
    """ConcentrationStudy redraws and the relaxation-vs-guessing comparison.

    One item is one redraw or one comparison trial.  The public calls are
    batched, so each call gives one per-item sample: its time over its items.
    """

    name = "montecarlo"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.studies = {}
        calls = {}
        for theta in MC_THETAS:
            cfg = generate.GenConfig(
                m=12, n=12, theta=theta, r=4, s=3, guess_density=0.25,
                master_seed=generate.derive_seed(seed, "study", theta),
            )
            study = concentration.ConcentrationStudy.from_config(cfg)
            rng = np.random.default_rng(generate.derive_seed(seed, "u", theta))
            z_planted = np.zeros(4 * theta)
            for l, k in enumerate(study.planted_cols):
                z_planted[l * 4 + k] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            planted = model.Selector(z=z_planted, r=4, theta=theta)
            generic = model.Selector(z=rng.standard_normal(4 * theta), r=4, theta=theta)
            self.studies[theta] = study
            calls[theta, "planted"] = (MC_REDRAWS, ("moments", theta, "planted", planted))
            calls[theta, "generic"] = (MC_REDRAWS, ("moments", theta, "generic", generic))
        self.cmp_cfg = sweep.parse_config(COMPARISON_CFG)
        compare = (2 * COMPARISON_TRIALS, ("compare", None, None, None))
        tail = (MC_REDRAWS, ("tail", 4, "planted", calls[4, "planted"][1][3]))
        # theta=4 moments are two thirds of the calls, so the median per-item
        # time falls well inside their cluster, not on the edge of another
        self.schedule = [
            calls[4, "planted"], calls[4, "generic"], calls[1, "planted"], calls[4, "planted"],
            calls[4, "generic"], tail, calls[4, "planted"], calls[4, "generic"],
            calls[1, "generic"], calls[4, "planted"], calls[4, "generic"], compare,
        ]
        for _, job in {id(j): j for j in self.schedule}.values():
            self._do(job, -1)

    def _do(self, job, i):
        kind, theta, _, u = job
        call_seed = generate.derive_seed(self.seed, "mc-call", i)
        if kind == "moments":
            return concentration.empirical_image_moments(self.studies[theta], u, MC_REDRAWS, call_seed)
        if kind == "tail":
            return concentration.empirical_concentration_tail(self.studies[theta], u, MC_TAIL_EPS, MC_REDRAWS, call_seed)
        cells = sweep.build_comparison_plan(self.cmp_cfg, seed=call_seed, trials=COMPARISON_TRIALS)
        return sweep.run_comparison(cells)

    def run(self, seconds: float, tracer=None, start: int = 0) -> Run:
        return _item_loop(self.schedule, lambda job, i: (0, self._do(job, i)), seconds, tracer, start)

    def check(self, runs: list) -> Check:
        chk = Check()
        pooled = {}  # (theta, case) -> [n, sum, sum of squares, analytic]
        cmp_counts = {}  # r -> [trials, n_relax, n_bestof, n_certified]
        tail = [0, 0]
        errors = 0
        for run in runs:
            for i, out in run.outputs:
                kind, theta, case, _ = self.schedule[i % len(self.schedule)][1]
                if isinstance(out, Exception):
                    errors += 1
                elif kind == "moments":
                    acc = pooled.setdefault((theta, case), [0, 0.0, 0.0, out.analytic_sq])
                    n = out.trials
                    acc[0] += n
                    acc[1] += n * out.mean
                    acc[2] += (n - 1) * (out.std_error * math.sqrt(n)) ** 2 + n * out.mean**2
                elif kind == "tail":
                    tail[0] += out.trials
                    tail[1] += out.exceed_count
                else:
                    for res in out:
                        acc = cmp_counts.setdefault(res.cell.gen.r, [0, 0, 0, 0])
                        acc[0] += res.cell.trials
                        acc[1] += res.n_relax
                        acc[2] += res.n_bestof
                        acc[3] += res.n_certified
        worst = 0.0
        for (theta, case), (n, s1, s2, analytic) in sorted(pooled.items()):
            mean = s1 / n
            var = (s2 - n * mean * mean) / (n - 1)
            z = (mean - analytic) / math.sqrt(var / n) if var > 0 else 0.0
            worst = max(worst, abs(z))
            if abs(z) > Z_HARD:
                chk.violations.append(f"montecarlo theta={theta} {case}: image mean z={z:+.2f} beyond {Z_HARD} sigma ({n} redraws)")
        for r, (t, relax, bestof, _) in sorted(cmp_counts.items()):
            a, b = relax / t, bestof / t
            sigma = math.sqrt(a * (1 - a) / t + b * (1 - b) / t)
            if abs(a - b) > Z_HARD * sigma:
                chk.violations.append(f"montecarlo comparison r={r}: relax {a:.4f} vs best-of {b:.4f} beyond {Z_HARD} sigma")
        trials = sum(v[0] for v in cmp_counts.values())
        chk.verdicts = {
            "redraws": sum(v[0] for v in pooled.values()) + tail[0],
            "worst_abs_z": round(worst, 3),
            "tail_exceed": tail[1],
            "comparison_trials": trials,
            "relax_hits": sum(v[1] for v in cmp_counts.values()),
            "bestof_hits": sum(v[2] for v in cmp_counts.values()),
            "certified": sum(v[3] for v in cmp_counts.values()),
            "error": errors,
        }
        chk.digest_items = [
            repr(out) if isinstance(out, Exception)
            else [[r.n_relax, r.n_bestof, r.n_certified] for r in out] if isinstance(out, list)
            else format(out.mean, ".12g") if hasattr(out, "mean")
            else out.exceed_count
            for _, out in _first_outputs(runs, DIGEST_CALLS)
        ]
        chk.shares = {"redraw_items": chk.verdicts["redraws"] / sum(r.items for r in runs)}
        chk.ratios = {
            "injective": 0.0,
            "certified": chk.verdicts["certified"] / max(trials, 1),
            "exact": chk.verdicts["relax_hits"] / max(trials, 1),
        }
        return chk


WORKLOADS = {w.name: w for w in (Corpus, Underdetermined, Exhaustive, MonteCarlo)}
