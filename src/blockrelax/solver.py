"""Weighted l1 minimization over an affine constraint, with optimality certificates.

The program solved is

    minimize    sum_k w_k |z_k|
    subject to  B z = y

with strictly positive weights.  It is a linear program whose dual is

    maximize    y^T h
    subject to  |B_j^T h| <= w_j   for every column j,

and the solver walks that dual from h = 0, which is feasible (the LP form of
homotopy / LARS).  The tight constraints form the active set, each with its
sign s_j.  While y is not in the span of the active normals s_j B_j / w_j, h
moves along y minus its least-squares fit on them until the next constraint
becomes tight, which joins the set.  Once y is in the span, the fit's
multipliers are read: a negative one leaves, or else the walk stops with
z_j = s_j lambda_j / w_j on the active set.  Ties go to the lowest column,
for joining and leaving alike (Bland's rule), against cycling on degenerate
programs.  The result is a vertex even where optima tie: where tied columns
could serve alike, it takes the lowest-index one.  A reported 'optimal' is
checked: the duality gap at the final h and the residual of z must close to
tolerance.

``kkt_certificate`` implements the uniqueness test for a *given* support S,
at the selector of ones on S (a selector picks one column per block with
coefficient 1, so its sign pattern is all +1): injectivity of the support
columns plus a strict dual margin on every off-support column.  When it holds,
the weighted program has exactly one minimizer, namely that selector.

Programs come in stacks: ``solve_stack`` and ``certificate_stack`` take k
programs of one shape (m, R) as (k, m, R), (k, R) and (k, m) arrays, and
``solve_weighted_bp`` and ``kkt_certificate`` are stacks of one.  The stack
walks in lockstep: each round every live program takes one step, and
programs whose active sets have the same size take it as one stacked product
per operation.  Bland's rule and every tolerance apply per program.  A
program leaves the lockstep when it stops, and a leave step re-factors its
own basis alone; the multipliers, gap, residual and support are worked out
once, for the program that stops.  The certificate factors every support in
one batched SVD, and ``recovery_stack`` checks every solve against its
planted truth with one stacked reconstruction.  ``check_stack`` runs all three
and gives each trial one ``TrialRecord``, the one source of ``sweep``,
``replay`` and CLI ``solve`` (a stack of one) outcomes.  The single-instance
trio ``solve_instance``, ``certificate_for_instance`` and ``recovery_check``
stays for callers that time one stage of one instance (the tests and the
benchmark); it gives the bits of a stack of one.

A program's result does not depend on its stack-mates.  Every operation is
elementwise, per program, or a stacked ``matmul`` or ``linalg`` gufunc whose
operands are laid out as a single program's are, so each slice gets the bits
it gets alone: a stack of k returns what k stacks of one return, bit for
bit.  A program's error (weights that are not strictly positive, a failed
factorization) is its entry in the results and leaves the rest of the stack
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RelaxedInstance, effective_matrix, effective_stack, solver_weights, weight_stack

__all__ = [
    "TOL_FEAS",
    "TOL_OPT",
    "TOL_RECOVERY",
    "SolveOptions",
    "SolveResult",
    "CertificateResult",
    "solve_stack",
    "solve_weighted_bp",
    "certificate_stack",
    "kkt_certificate",
    "recovery_stack",
    "recovery_check",
    "TrialRecord",
    "stack_programs",
    "check_stack",
    "solve_instance",
    "certificate_for_instance",
]

# relative tolerances: feasibility against 1 + ||y||, the duality gap against
# 1 + |objective|.  The exhaustive oracles use the same feasibility rule.
TOL_FEAS = TOL_OPT = 1e-8
TOL_RECOVERY = 1e-6  # the largest entrywise error of X z against x that ``recovery_check`` calls 'exact'
_PINV_RCOND = 1e-10  # relative singular value cutoff, shared by solver and certificate
_SUPPORT_THRESHOLD = 1e-7  # an entry of z is in the support above this times its largest entry
_WALK_TOL = 1e-12  # relative zero of the active-set walk: residual, slopes, ties, multipliers


@dataclass(frozen=True)
class SolveOptions:
    """The step cap of the active-set walk."""

    max_iter: int = 20000


@dataclass(frozen=True)
class SolveResult:
    z: np.ndarray
    objective: float
    status: str  # 'optimal' | 'max-iter' | 'infeasible'
    iterations: int
    feas_residual: float
    duality_gap: float
    detected_support: tuple[int, ...]


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the dual uniqueness test at the selector of ones on a fixed support.

    ``margin`` is the smallest slack w_j - |<B_j, h>| over off-support
    columns; the certificate requires injective support columns and a strictly
    positive margin.  ``h`` is the certifying dual vector.
    """

    holds: bool
    injective: bool
    margin: float
    h: np.ndarray


def _gap_from_dual(B, w, y, obj, h) -> float:
    """Duality gap after forcing h into the dual box |B^T h| <= w."""
    corr = B.T @ h
    scale = np.max(np.abs(corr) / w, initial=1.0)
    if scale > 1.0:
        h = h / scale
    return obj - float(y @ h)


@dataclass(slots=True)
class _Lockstep:
    """Programs of a stack that walk together because their active sets have one size.

    Each array has one program per row.  Vectors are kept as (L, m, 1)
    columns or (L, 1, m) rows, and ``Q`` is C-contiguous, so that every
    stacked product reads each program's data as a single program's product
    would and gives it the same bits.
    """

    idx: np.ndarray  # (L,) positions in the stack
    A: np.ndarray  # (L, m, R) dual normals B / w
    tol_a: np.ndarray  # (L, 1, R) _WALK_TOL times each normal's length
    y: np.ndarray  # (L, m, 1)
    tol_y: np.ndarray  # (L, 1, 1) _WALK_TOL * ||y||
    h: np.ndarray  # (L, 1, m) dual point
    Q: np.ndarray  # (L, m, c) orthonormal basis of the c active normals
    active: np.ndarray  # (L, R) the active columns first, in the order they became tight
    tight: np.ndarray  # (L, 1, R) True on the active columns

    def arrays(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def take(self, sel) -> "_Lockstep":
        return _Lockstep(*(a[sel] for a in self.arrays()))


def _any(mask: np.ndarray) -> bool:
    """``mask.any()`` at a fraction of its call cost on tiny arrays: argmax finds the first True."""
    return bool(mask.flat[mask.argmax()])


def solve_stack(B, w, y, options: SolveOptions | None = None) -> list:
    """Minimize sum w_k |z_k| subject to B z = y for each program of a stack.

    ``B`` is (k, m, R), ``w`` (k, R) and ``y`` (k, m).  Entry i is program
    i's ``SolveResult``, or the error it raises as a stack of one (weights
    that are not strictly positive, say), so one bad program leaves the rest
    alone.  Statuses are those of ``solve_weighted_bp``.  The programs walk in
    lockstep, and each gets the same bits as in a stack of one.
    """
    opts = options or SolveOptions()
    B = np.ascontiguousarray(B, dtype=float)
    w = np.ascontiguousarray(w, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if B.ndim != 3 or w.shape != (len(B), B.shape[2]) or y.shape != B.shape[:2]:
        raise ValueError("shape mismatch between B, w, y")
    k, m, R = B.shape
    if not k:
        return []
    y_norm = np.sqrt(y[:, None, :] @ y[:, :, None])
    bad = w <= 0.0
    zero = (y_norm <= TOL_FEAS * (1.0 + y_norm))[:, 0, 0]  # z = 0 is feasible to tolerance
    out: list = [None] * k
    walk = slice(None)
    if _any(bad) or _any(zero):
        skip = bad.any(axis=1) | zero
        for i in np.flatnonzero(skip):
            if bad[i].any():
                out[i] = ValueError(f"weights must be strictly positive; offending {np.flatnonzero(bad[i]).tolist()}")
            else:
                out[i] = SolveResult(
                    z=np.zeros(R),
                    objective=0.0,
                    status="optimal",
                    iterations=0,
                    feas_residual=float(y_norm[i, 0, 0]),
                    duality_gap=0.0,
                    detected_support=(),
                )
        walk = np.flatnonzero(~skip)
        if not walk.size:
            return out
    A = B[walk] / w[walk, None, :]  # the dual constraints are |A^T h| <= 1
    L = len(A)
    start = _Lockstep(
        idx=np.arange(k)[walk],
        A=A,
        tol_a=_WALK_TOL * np.sqrt(np.add.reduce(A * A, axis=1, keepdims=True)),
        y=y[walk, :, None],
        tol_y=_WALK_TOL * y_norm[walk],
        h=np.zeros((L, 1, m)),
        Q=np.zeros((L, m, 0)),
        active=np.zeros((L, R), dtype=int),
        tight=np.zeros((L, 1, R), dtype=bool),
    )
    for i, end in _walk(start, opts.max_iter).items():
        try:
            out[i] = end if isinstance(end, Exception) else _finish(B[i], w[i], y[i], float(y_norm[i, 0, 0]), *end)
        except np.linalg.LinAlgError as exc:
            out[i] = exc
    return out


def _walk(start: _Lockstep, max_iter: int) -> dict:
    """Walk the programs of ``start`` in lockstep until each ends.

    Returns position -> (status, steps, h, active, signs, multipliers), or
    the error the program raised.  Each round, every live program takes one
    step, and programs whose active sets have the same size step as one group.
    """
    ends: dict = {}
    groups, it = [start], 0
    # the ratio test divides by every slope and masks the columns off it after
    with np.errstate(divide="ignore", invalid="ignore"):
        while groups:
            groups = [g for grp in groups for g in _step(grp, it, max_iter, ends)]
            if len(groups) > 1:
                by_size: dict = {}
                for g in groups:
                    by_size.setdefault(g.Q.shape[2], []).append(g)
                groups = [
                    gs[0] if len(gs) == 1 else _Lockstep(*map(np.concatenate, zip(*(g.arrays() for g in gs))))
                    for gs in by_size.values()
                ]
            it += 1
    return ends


def _step(grp: _Lockstep, it: int, max_iter: int, ends: dict) -> list:
    """One round of the group ``grp`` after ``it`` steps: the groups that walk on.

    A program that stops goes to ``ends``; one whose lowest negative
    multiplier leaves walks on as a group of one with a re-factored basis.
    """
    Q = grp.Q
    Qt = Q.transpose(0, 2, 1)
    # y minus its projection on the active normals, projected twice so that
    # the normals' products with d stay at rounding level relative to d
    d = grp.y - Q @ (Qt @ grp.y)
    d -= Q @ (Qt @ d)
    dt = d.transpose(0, 2, 1)
    d_norm = np.sqrt(dt @ d)
    on_span = d_norm <= grp.tol_y
    stop = it >= max_iter
    walk_on = []
    if stop or _any(on_span):
        on_span = on_span.ravel()
        ending = np.arange(len(on_span)) if stop else on_span.nonzero()[0]
        size = Q.shape[2]
        for j in ending:
            i, active = grp.idx[j], grp.active[j, :size]
            normals = grp.A[j][:, active]
            signs = np.sign(grp.h[j, 0] @ normals)  # an active constraint is tight: A_j^T h = +-1
            try:
                # multipliers of y on the normals, through the basis: Q^T N is square
                lam = np.linalg.solve(Q[j].T @ (normals * signs), Q[j].T @ grp.y[j, :, 0])
                if on_span[j]:
                    negative = active[lam < -_WALK_TOL * np.abs(lam).max()]
                    if not negative.size:
                        ends[i] = ("optimal", it, grp.h[j, 0], active, signs, lam)
                        continue
                if stop:
                    ends[i] = ("max-iter", it, grp.h[j, 0], active, signs, lam)
                else:
                    walk_on.append(_leave(grp, j, negative.min()))  # Bland: the lowest column leaves
            except np.linalg.LinAlgError as exc:
                ends[i] = exc
        if len(ending) == len(on_span):
            return walk_on
        keep = ~on_span
        grp, dt, d_norm = grp.take(keep), dt[keep], d_norm[keep]
        Q = grp.Q
        Qt = Q.transpose(0, 2, 1)
    # ascend along d, which keeps the active constraints tight
    c = grp.h @ grp.A
    g = dt @ grp.A
    g[grp.tight] = 0.0
    slope = np.abs(g)
    t = (np.sign(g) - c) / g
    np.maximum(t, 0.0, out=t)
    t[~(slope > grp.tol_a * d_norm)] = np.inf  # only columns with a slope (not NaN) can become tight
    t_min = np.minimum.reduce(t, axis=2, keepdims=True)
    unbounded = t_min == np.inf  # no column stops the ascent: the dual is unbounded along d
    if _any(unbounded):
        keep = ~unbounded.ravel()
        for i in grp.idx[~keep]:
            ends[i] = ("infeasible", 0, None, None, None, None)
        if not keep.any():
            return walk_on
        grp, dt, slope, t, t_min = grp.take(keep), dt[keep], slope[keep], t[keep], t_min[keep]
        Q = grp.Q
        Qt = Q.transpose(0, 2, 1)
    # Bland: of the constraints tight after the step, the lowest column enters
    col = (slope * (t - t_min) <= _WALK_TOL).argmax(axis=2).ravel()
    size = Q.shape[2]
    # the entering columns, copied out with a non-unit stride: a single
    # program's walk reads its column of A in place, and BLAS takes another
    # path, and gives other bits, for a vector with unit stride
    a = np.empty((len(col), Q.shape[1], 2))
    if len(col) == 1:  # integer indexing, for a single program's speed
        j = int(col[0])
        a[0, :, 0] = grp.A[0, :, j]
        grp.tight[0, 0, j] = True
        grp.active[0, size] = j
    else:
        rows = np.arange(len(col))
        a[:, :, 0] = grp.A[rows, :, col]
        grp.tight[rows, 0, col] = True
        grp.active[rows, size] = col
    a = a[:, :, :1]
    v = a - Q @ (Qt @ a)
    v -= Q @ (Qt @ v)
    grp.h = grp.h + t_min * dt
    grp.Q = np.concatenate([Q, v / np.sqrt(v.transpose(0, 2, 1) @ v)], axis=2)
    walk_on.append(grp)
    return walk_on


def _leave(grp: _Lockstep, j: int, col: int) -> _Lockstep:
    """Program ``j`` of ``grp`` after column ``col`` leaves its active set, as a group of one."""
    one = grp if len(grp.idx) == 1 else grp.take([j])
    size = one.Q.shape[2]
    active = one.active[0, :size]
    active[: size - 1] = active[active != col]
    one.tight[0, 0, col] = False
    one.Q = np.linalg.qr(one.A[0][:, active[: size - 1]])[0][None]
    return one


def _finish(B, w, y, y_norm: float, status: str, it: int, h, active, signs, lam) -> SolveResult:
    """The result of one program whose walk ended with ``status`` after ``it`` steps."""
    z = np.zeros(B.shape[1])
    if status != "infeasible":
        z[active] = signs * lam / w[active]
    feas = float(np.linalg.norm(B @ z - y))
    if status == "infeasible" or (status == "optimal" and feas > TOL_FEAS * (1.0 + y_norm)):
        status, it = "infeasible", 0
        z = np.linalg.lstsq(B, y, rcond=_PINV_RCOND)[0]
        feas = float(np.linalg.norm(B @ z - y))
    obj = float(w @ np.abs(z))
    gap = np.inf if status == "infeasible" else _gap_from_dual(B, w, y, obj, h)
    if status == "optimal" and gap > TOL_OPT * (1.0 + abs(obj)):
        status = "max-iter"
    return SolveResult(
        z=z,
        objective=obj,
        status=status,
        iterations=it,
        feas_residual=feas,
        duality_gap=gap,
        detected_support=tuple(_support_indices(z).tolist()),
    )


def solve_weighted_bp(
    B: np.ndarray, w: np.ndarray, y: np.ndarray, options: SolveOptions | None = None
) -> SolveResult:
    """Minimize sum w_k |z_k| subject to B z = y: a stack of one (see ``solve_stack``).

    Returns status 'optimal' when the walk stops with a closed duality gap,
    'infeasible' when y is out of range of B (the least-squares point is
    reported, with ``iterations == 0``), and 'max-iter' with the last iterate
    when the step cap is reached.  ``iterations`` counts the walk's steps.  A
    stop whose gap does not close is reported as 'max-iter' too rather than as
    'optimal'; no tested program has hit that case.
    """
    (out,) = solve_stack(*(np.asarray(a, dtype=float)[None] for a in (B, w, y)), options)
    if isinstance(out, Exception):
        raise out
    return out


def _support_indices(z: np.ndarray) -> np.ndarray:
    top = float(np.abs(z).max(initial=0.0))
    if top == 0.0:
        return np.zeros(0, dtype=int)
    return np.flatnonzero(np.abs(z) > _SUPPORT_THRESHOLD * top)


def certificate_stack(B, w, support) -> list:
    """Uniqueness certificates of a stack of programs, each at the selector of ones on its own support.

    ``B`` is (k, m, R), ``w`` (k, R) and ``support`` (k, s): every program
    has a support of the same size.  Entry i is program i's
    ``CertificateResult`` (see ``kkt_certificate``), or the error it raises
    as a stack of one.  One batched SVD factors every support, and one
    stacked product gives every off-support slack.
    """
    B = np.ascontiguousarray(B, dtype=float)
    w = np.ascontiguousarray(w, dtype=float)
    support = np.asarray(support, dtype=int)
    k, m, R = B.shape
    if not k:
        return []
    s = support.shape[1]
    if s and _any((support < 0) | (support >= R)):
        raise ValueError(f"support indices must lie in [0, {R})")
    rows = np.arange(k)[:, None]
    off = np.ones((k, R), dtype=bool)
    off[rows, support] = False
    if np.count_nonzero(off) != k * (R - s):  # a repeated index leaves one column too many off
        raise ValueError("support indices must be distinct")
    if s == 0:
        margin = np.minimum.reduce(w, axis=1, initial=np.inf)
        return [CertificateResult(holds=True, injective=True, margin=float(mg), h=np.zeros(m)) for mg in margin]

    # columns as rows: BT[rows, cols] is laid out as one program's B[:, cols].T is
    BT = B.transpose(0, 2, 1)
    try:
        uu, sig, vvt = np.linalg.svd(BT[rows, support].transpose(0, 2, 1), full_matrices=False)
    except np.linalg.LinAlgError as exc:  # a program whose factorization fails fails alone
        if k == 1:
            return [exc]
        return [certificate_stack(B[i : i + 1], w[i : i + 1], support[i : i + 1])[0] for i in range(k)]
    kept = sig > _PINV_RCOND * sig[:, :1]
    # singular values come sorted, so B_S has full column rank when its last one is kept
    injective = kept[:, -1] if m >= s else np.zeros(k, dtype=bool)
    # h = (B_S^*)^+ w_S through the SVD of B_S, cut at its rank
    vt_target = (vvt @ w[rows, support][:, :, None])[:, :, 0]
    coef = np.divide(vt_target, sig, out=np.zeros_like(sig), where=kept)
    h = (uu @ coef[:, :, None])[:, :, 0]
    off = np.nonzero(off)[1].reshape(k, R - s)
    slack = w[rows, off] - np.abs((BT[rows, off] @ h[:, :, None])[:, :, 0])
    margin = np.minimum.reduce(slack, axis=1, initial=np.inf)
    holds = injective & (margin > 1e-9 * np.maximum.reduce(w, axis=1))
    return [
        CertificateResult(holds=bool(holds[i]), injective=bool(injective[i]), margin=float(margin[i]), h=h[i])
        for i in range(k)
    ]


def kkt_certificate(B: np.ndarray, w: np.ndarray, support) -> CertificateResult:
    """Uniqueness certificate for the weighted program at the selector of ones on ``support``: a stack of one.

    Builds the least-norm dual h with B_S^T h = w_S and measures the worst
    off-support slack w_j - |<B_j, h>|.  ``holds`` requires the support
    columns to be linearly independent and the slack strictly positive; then
    the vector of ones on S is the unique minimizer among all feasible points
    sharing its image.

    Strict positivity is enforced with a relative guard of 1e-9 of the weight
    scale: a margin that is zero in exact arithmetic (a duplicated column, say)
    lands on either side of 0.0 in floating point, and the test is sufficient
    anyway, so refusing hairline margins only makes it more conservative.
    """
    support = np.asarray(support, dtype=int).reshape(1, -1)
    (out,) = certificate_stack(np.asarray(B, dtype=float)[None], np.asarray(w, dtype=float)[None], support)
    if isinstance(out, Exception):
        raise out
    return out


def recovery_stack(X_blocks, x, planted, results) -> list[str]:
    """``recovery_check`` of each solve of a stack of instances.

    ``X_blocks`` is the (k, theta, n, r) guess stack, ``x`` the (k, n*theta)
    hidden vectors and ``planted`` the (k, theta) planted global columns, in
    increasing order.  One stacked product reconstructs every X z: each block
    gets the bits ``model.apply_selector`` gives it, up to the sign of a zero,
    so the verdicts are the same.
    """
    k, theta, n, r = X_blocks.shape
    same = [res.detected_support == cols for res, cols in zip(results, map(tuple, planted.tolist()))]
    out = ["fail"] * k
    if any(same):
        z = np.stack([res.z for res in results]).reshape(k, theta, r, 1)
        err = np.abs((X_blocks @ z).reshape(k, n * theta) - x).max(axis=1, initial=0.0)
        for j in np.flatnonzero(same):
            out[j] = "exact" if err[j] <= TOL_RECOVERY else "support-match"
    return out


def recovery_check(instance: RelaxedInstance, result: SolveResult) -> str:
    """Classify a solve against the planted truth: a stack of one (see ``recovery_stack``).

    'exact': detected support equals the planted one and the reconstruction
    matches entrywise within ``TOL_RECOVERY``.  'support-match': supports
    agree but values drift beyond it.  'fail': anything else.
    """
    X = instance.X
    return recovery_stack(X.blocks[None], instance.x[None], X.planted_global_cols()[None], [result])[0]


@dataclass(frozen=True)
class TrialRecord:
    """One trial's solve, certificate at the planted support and ``recovery_check`` verdict, or the error it raised."""

    verdict: str  # 'exact' | 'support-match' | 'fail' | 'error'
    result: SolveResult | None = None
    cert: CertificateResult | None = None
    error: Exception | None = None


def stack_programs(A, X, planted, p: float) -> tuple:
    """(B, w, planted global columns) of a stack of instances, from ``check_stack``'s arrays."""
    theta, r = X.shape[1], X.shape[3]
    return effective_stack(A, X), weight_stack(X, p), np.asarray(planted) + r * np.arange(theta)


def check_stack(A, X, x, y, planted, p: float, options: SolveOptions | None = None) -> list[TrialRecord]:
    """The ``TrialRecord`` of each planted instance of a stack, solved at exponent ``p``.

    The arrays are ``InstanceStack``'s: (k, theta, m, n) sensing and
    (k, theta, n, r) guess stacks, (k, n*theta) hidden vectors, (k, m)
    observations and (k, theta) planted columns.  One solve, one certificate
    and one recovery call cover the stack, each giving a program the bits it
    gets alone; a program that raises gets a record of its error.
    """
    if not len(X):
        return []
    B, w, planted = stack_programs(A, X, planted, p)
    results = solve_stack(B, w, y, options)
    certs = certificate_stack(B, w, planted)
    solved = [j for j, res in enumerate(results) if not isinstance(res, Exception)]
    checked = recovery_stack(X[solved], x[solved], planted[solved], [results[j] for j in solved])
    verdicts = dict(zip(solved, checked))
    return [
        TrialRecord(verdicts[j], res, cert) if j in verdicts and not isinstance(cert, Exception)
        else TrialRecord("error", error=cert if j in verdicts else res)  # the solve's error comes first
        for j, (res, cert) in enumerate(zip(results, certs))
    ]


def solve_instance(
    instance: RelaxedInstance, p: float, options: SolveOptions | None = None
) -> SolveResult:
    """Convenience wrapper: weights from the ensemble at exponent p, then solve."""
    B = effective_matrix(instance.A, instance.X)
    w = solver_weights(instance.X, p)
    return solve_weighted_bp(B, w, instance.y, options)


def certificate_for_instance(instance: RelaxedInstance, p: float) -> CertificateResult:
    """Certificate at the planted selector: the selector of ones on the planted columns."""
    B = effective_matrix(instance.A, instance.X)
    w = solver_weights(instance.X, p)
    return kkt_certificate(B, w, instance.X.planted_global_cols())
