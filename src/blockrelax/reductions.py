"""Reductions from exact cover and number partitioning to sparse recovery.

Both constructions emit a block sensing matrix and observation vector whose
minimum-sparsity / minimum-power objective crosses a known threshold exactly
when the combinatorial instance is solvable.  Deciders run the matching
exhaustive oracle and compare against that threshold; small brute-force
solvers of the combinatorial problems are included as the independent route
for testing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .generate import _haar_stack, derive_seed, instance_generator
from .model import BlockSensingMatrix
from .oracle import discrete_lp_oracle, l0_min_oracle
from .storage import ReductionRecord

__all__ = [
    "X3CInstance",
    "x3c_to_l0",
    "decide_x3c_via_l0",
    "has_exact_cover",
    "PartitionInstance",
    "partition_to_lp",
    "decide_partition_via_lp",
    "has_partition",
]

_THRESHOLD_SLACK = 1e-6  # absolute slack of the Partition decider's comparison with m


def _one_based(t) -> str:
    """A triple as files and the command line write it: 1-based, comma-separated."""
    return ",".join(str(v + 1) for v in t)


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets: ground set {0..m-1}, m divisible by 3, given triples.

    Errors name a triple 1-based, as the command line and containers write it.
    """

    m: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.m % 3 != 0 or self.m <= 0:
            raise ValueError("ground set size must be a positive multiple of 3")
        seen = set()
        norm = []
        for t in self.triples:
            tt = tuple(sorted(int(v) for v in t))
            if len(set(tt)) != 3:
                raise ValueError(f"triple {_one_based(t)} must have three distinct elements")
            if tt[0] < 0 or tt[-1] >= self.m:
                raise ValueError(f"triple {_one_based(t)} out of range 1..{self.m}")
            if tt in seen:
                raise ValueError(f"duplicate triple {_one_based(tt)}")
            seen.add(tt)
            norm.append(tt)
        if not norm:
            raise ValueError("need at least one triple")
        object.__setattr__(self, "triples", tuple(norm))

    @property
    def theta(self) -> int:
        return len(self.triples)


def has_exact_cover(inst: X3CInstance) -> bool:
    """Direct scan over all sub-collections: exists a disjoint exact cover?

    An exact cover of m elements by triples uses exactly m/3 of them, so only
    that sub-collection size needs scanning.
    """
    for subset in itertools.combinations(range(inst.theta), inst.m // 3):
        covered = set()
        ok = True
        for i in subset:
            t = set(inst.triples[i])
            if covered & t:
                ok = False
                break
            covered |= t
        if ok and len(covered) == inst.m:
            return True
    return False


def x3c_to_l0(inst: X3CInstance, n: int = 2, seed: int = 0) -> ReductionRecord:
    """Sensing blocks whose sparsest exact solution counts a minimum exact cover.

    Block l column 1 is the indicator vector of triple l over the ground set
    (padded with zeros); columns 2..n are zero over the ground set and carry a
    random (n-1)x(n-1) orthogonal matrix below it.  With y = (1,...,1,0,...,0)
    the system has a solution of support m/3 exactly when a cover exists.
    Requires 2 <= n < m - 2 so the orthogonal tail cannot undercut the cover.
    """
    m = inst.m
    if not 2 <= n < m - 2:
        raise ValueError(f"need 2 <= n < m - 2, got n={n}, m={m}")
    theta, rows = inst.theta, m + n - 1
    stack = np.zeros((theta, rows, n))
    stack[np.arange(theta)[:, None], np.array(inst.triples), 0] = 1.0
    rng = instance_generator(derive_seed(seed, "x3c-orthogonal"))
    stack[:, m:, 1:] = _haar_stack(rng.standard_normal((theta, n - 1, n - 1)))
    # norm windows guaranteed by construction; check rather than trust
    col_sq = np.sum(stack**2, axis=1)
    bad = np.flatnonzero(~np.all((col_sq >= 1.0 - 1e-9) & (col_sq <= 3.0 + 1e-9), axis=1))
    if bad.size:
        raise RuntimeError(f"block {bad[0]} squared column norms {col_sq[bad[0]]} outside [1, 3]")
    spec = np.linalg.norm(stack, 2, axis=(1, 2))
    bad = np.flatnonzero(~((spec >= 1.0 - 1e-9) & (spec <= math.sqrt(3.0) + 1e-9)))
    if bad.size:
        raise RuntimeError(f"block {bad[0]} spectral norm {spec[bad[0]]!r} outside [1, sqrt(3)]")
    A = BlockSensingMatrix(blocks=stack)
    y = np.zeros(rows)
    y[:m] = 1.0
    return ReductionRecord(
        reduction="x3c",
        A=A,
        y=y,
        certificate_target=m / 3,
        extra={
            "ground_set": m,
            "triples": ";".join(map(_one_based, inst.triples)),
            "orthogonal_seed": seed,
        },
    )


def decide_x3c_via_l0(inst: X3CInstance, n: int = 2, seed: int = 0) -> bool:
    """Reduce, then ask the subset oracle whether support m/3 suffices."""
    rec = x3c_to_l0(inst, n=n, seed=seed)
    res = l0_min_oracle(rec.A.full(), rec.y, max_support=inst.m // 3)
    return bool(res.feasible and res.min_support == inst.m // 3)


@dataclass(frozen=True)
class PartitionInstance:
    """Number partitioning: can the multiset a be split into two equal-sum halves?"""

    a: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.a)
        if not vals or any(v <= 0 for v in vals):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "a", vals)

    @property
    def m(self) -> int:
        return len(self.a)


def has_partition(inst: PartitionInstance) -> bool:
    """Direct scan over all subsets for one summing to half the total."""
    total = sum(inst.a)
    for k in range(inst.m + 1):
        for subset in itertools.combinations(range(inst.m), k):
            if abs(2.0 * sum(inst.a[i] for i in subset) - total) <= 1e-9 * (1.0 + total):
                return True
    return False


def partition_to_lp(inst: PartitionInstance, theta: int = 2) -> ReductionRecord:
    """Pairing construction: A = [I I; c a^T  -c a^T], y = (1,...,1,0).

    Every exact solution pairs u_i + v_i = 1; binary pairs cost 1 each and
    balance the weighted row exactly when the picks form a partition, while
    any non-binary grid pair costs strictly more.  The weighted row is scaled
    by c = 1/max(1, ||a|| sqrt(2)) so each block's spectral norm stays inside
    [sqrt(1/2), sqrt(3/2)].  ``theta`` must be even and divide 2m.
    """
    m = inst.m
    if theta % 2 != 0 or theta <= 0 or (2 * m) % theta != 0:
        raise ValueError("theta must be even and divide 2m")
    a = np.asarray(inst.a)
    c = 1.0 / max(1.0, math.sqrt(2.0) * float(np.linalg.norm(a)))
    top = np.hstack([np.eye(m), np.eye(m)])
    bottom = np.concatenate([c * a, -c * a])
    full = np.vstack([top, bottom[None, :]])
    # block l is columns l*n .. (l+1)*n - 1 of the full matrix
    stack = np.ascontiguousarray(full.reshape(m + 1, theta, 2 * m // theta).transpose(1, 0, 2))
    spec = np.linalg.norm(stack, 2, axis=(1, 2))
    bad = np.flatnonzero(~((spec >= math.sqrt(0.5) - 1e-9) & (spec <= math.sqrt(1.5) + 1e-9)))
    if bad.size:
        raise RuntimeError(f"block {bad[0]} spectral norm {spec[bad[0]]!r} outside [sqrt(1/2), sqrt(3/2)]")
    y = np.zeros(m + 1)
    y[:m] = 1.0
    return ReductionRecord(
        reduction="partition",
        A=BlockSensingMatrix(blocks=stack),
        y=y,
        certificate_target=float(m),
        extra={"weights": ",".join(format(v, ".17g") for v in inst.a), "row_scale": format(c, ".17g")},
    )


def decide_partition_via_lp(inst: PartitionInstance, p: float = 0.5, theta: int = 2) -> bool:
    """Reduce, grid-scan the power objective, compare to the threshold m.

    The all-halves point is always feasible, so the oracle never reports
    infeasible; the minimum equals m exactly when a partition exists and
    exceeds it otherwise.
    """
    rec = partition_to_lp(inst, theta=theta)
    res = discrete_lp_oracle(rec.A.full(), rec.y, p=p)
    if not res.feasible or res.min_objective is None:
        raise RuntimeError("grid oracle found no feasible point, but the all-halves point is feasible")
    if res.min_objective < inst.m - _THRESHOLD_SLACK:
        raise RuntimeError(f"grid oracle minimum {res.min_objective!r} is below the threshold m = {inst.m}")
    return bool(res.min_objective <= inst.m + _THRESHOLD_SLACK)
