"""The comparison chunk with two draws and a solve of every relaxation program.

This is the chunk that ``blockrelax.sweep._comparison_chunk`` replaced: the
select instances are drawn by ``sample_instances``, the relaxation side by a
second ``draw_instances`` over the same generators, every row of it sensed,
and every relaxation program is solved, whether or not each of its blocks
holds x^l as a column.
Each trial's generator then draws its best-of guesses.  A relaxation hit is
read from the solve's detected support here, without
``blockrelax.solver.selected_columns``.  The chunk's counts must equal
``run_comparison``'s on every cell, and an error that ends it (a failed draw
first, then a certificate that raised or best-of guesses that stay all-zero,
in trial order) must end it with the same line.  Meant for differential
tests only.
"""

from collections import Counter

import numpy as np

from blockrelax.generate import (
    _condition, derive_seed, draw_guesses, draw_instances, instance_generator, sample_instances, sense,
)
from blockrelax.model import effective_stack, weight_stack
from blockrelax.solver import certificate_stack, solve_stack, stack_programs
from blockrelax.sweep import _chunks


def comparison_chunk(cell, start: int, stop: int) -> Counter:
    """Trials start .. stop-1 of ``cell``: their 'relax', 'bestof' and 'certified' counts."""
    gen = cell.gen
    n, r, theta = gen.n, gen.r, gen.theta
    seeds = [derive_seed(cell.seed, "trial", t) for t in range(start, stop)]
    rngs = [instance_generator(seed) for seed in seeds]
    stack = sample_instances(gen, seeds, rngs)
    relax = draw_instances(gen, seeds, rngs)
    failed = {**relax.errors, **stack.errors}
    if failed:
        raise ValueError(f"cell {cell.index} trial {start + min(failed)}: {failed[min(failed)]}")
    B, w, planted = stack_programs(stack.A, stack.X, stack.planted, cell.p)
    certs = certificate_stack(B, w, planted)
    x, X = relax.x, relax.X
    A, y = sense(relax, slice(None))
    solves = solve_stack(effective_stack(A, X), weight_stack(X, cell.p), y, cell.options)
    counts = Counter()
    for j, rng in enumerate(rngs):
        # a solve selects when its sorted support holds one global column in each block, in block order
        support = () if isinstance(solves[j], Exception) else solves[j].detected_support
        relax_hit = [g // r for g in support] == list(range(theta)) and all(
            np.array_equal(X[j, l, :, g % r], x[j, l * n : (l + 1) * n]) for l, g in enumerate(support)
        )
        try:
            if isinstance(certs[j], Exception):
                raise certs[j]
            g = draw_guesses(gen, [rng], np.empty((1, r, theta, n)))
            for exc in _condition(gen, [rng], g).values():  # a chunk of this trial alone
                raise exc
        except ValueError as exc:
            raise ValueError(f"cell {cell.index} trial {start + j}: {exc}") from exc
        counts["relax"] += relax_hit
        counts["bestof"] += bool(np.all(g.reshape(r, -1) == x[j], axis=1).any())
        counts["certified"] += certs[j].holds
    return counts


def comparison_counts(cells) -> list[tuple[int, int, int]]:
    """(n_relax, n_bestof, n_certified) of each cell, summed over its chunks."""
    out = []
    for cell in cells:
        counts = sum((comparison_chunk(cell, start, stop) for start, stop in _chunks(cell)), Counter())
        out.append((counts["relax"], counts["bestof"], counts["certified"]))
    return out
