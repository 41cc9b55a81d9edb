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

``kkt_certificate`` implements the uniqueness test for a *given* support and
sign pattern: injectivity of the support columns plus a strict dual margin on
every off-support column.  When it holds, the weighted program has exactly one
minimizer, namely the vector supported there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import RelaxedInstance, apply_selector, effective_matrix, solver_weights

__all__ = [
    "TOL_FEAS",
    "TOL_OPT",
    "SolveOptions",
    "SolveResult",
    "CertificateResult",
    "solve_weighted_bp",
    "kkt_certificate",
    "recovery_check",
    "solve_instance",
    "certificate_for_instance",
]

# relative tolerances: feasibility against 1 + ||y||, the duality gap against
# 1 + |objective|.  The exhaustive oracles use the same feasibility rule.
TOL_FEAS = TOL_OPT = 1e-8
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
    """Outcome of the dual uniqueness test at a fixed support/sign pattern.

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


def solve_weighted_bp(
    B: np.ndarray, w: np.ndarray, y: np.ndarray, options: SolveOptions | None = None
) -> SolveResult:
    """Minimize sum w_k |z_k| subject to B z = y.

    Returns status 'optimal' when the walk stops with a closed duality gap,
    'infeasible' when y is out of range of B (the least-squares point is
    reported, with ``iterations == 0``), and 'max-iter' with the last iterate
    when the step cap is reached.  ``iterations`` counts the walk's steps.  A
    stop whose gap does not close is reported as 'max-iter' too rather than as
    'optimal'; no tested program has hit that case.
    """
    opts = options or SolveOptions()
    B = np.asarray(B, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    m, R = B.shape
    if w.shape != (R,) or y.shape != (m,):
        raise ValueError("shape mismatch between B, w, y")
    if np.any(w <= 0.0):
        raise ValueError(f"weights must be strictly positive; offending {np.flatnonzero(w <= 0).tolist()}")

    y_norm = float(np.linalg.norm(y))
    if y_norm <= TOL_FEAS * (1.0 + y_norm):  # z = 0 is feasible to tolerance
        return SolveResult(
            z=np.zeros(R),
            objective=0.0,
            status="optimal",
            iterations=0,
            feas_residual=y_norm,
            duality_gap=0.0,
            detected_support=(),
        )

    A = B / w  # the dual constraints are |A^T h| <= 1
    a_norm = np.linalg.norm(A, axis=0)
    h = np.zeros(m)
    active: list[int] = []  # the tight constraints, in the order they became tight
    signs: list[float] = []
    Q = np.zeros((m, 0))  # orthonormal basis of the active normals
    it = 0
    while True:
        # y minus its projection on the active normals, projected twice so that
        # the normals' products with d stay at rounding level relative to d
        d = y - Q @ (Q.T @ y)
        d -= Q @ (Q.T @ d)
        d_norm = math.sqrt(d @ d)
        on_span = d_norm <= _WALK_TOL * y_norm
        if on_span or it >= opts.max_iter:
            # multipliers of y on the normals, through the basis: Q^T N is square
            lam = np.linalg.solve(Q.T @ (A[:, active] * signs), Q.T @ y)
        if on_span:
            negative = [active[i] for i in np.flatnonzero(lam < -_WALK_TOL * np.abs(lam).max())]
            if not negative:
                status = "optimal"
                break
        if it >= opts.max_iter:
            status = "max-iter"
            break
        it += 1
        if on_span:
            # Bland: the lowest column with a negative multiplier leaves
            k = active.index(min(negative))
            del active[k], signs[k]
            Q = np.linalg.qr(A[:, active])[0]
            continue
        # ascend along d, which keeps the active constraints tight
        c, g = h @ A, d @ A
        g[active] = 0.0
        cols = np.flatnonzero(np.abs(g) > _WALK_TOL * a_norm * d_norm)
        if not cols.size:
            status = "infeasible"  # the dual is unbounded along d
            break
        gc = g[cols]
        t = np.maximum((np.sign(gc) - c[cols]) / gc, 0.0)
        t_min = t.min()
        # Bland: of the constraints tight after the step, the lowest column enters
        i = int(np.argmax(np.abs(gc) * (t - t_min) <= _WALK_TOL))
        h = h + t_min * d
        active.append(int(cols[i]))
        signs.append(float(np.sign(gc[i])))
        a = A[:, cols[i]]
        v = a - Q @ (Q.T @ a)
        v -= Q @ (Q.T @ v)
        Q = np.column_stack([Q, v / math.sqrt(v @ v)])

    z = np.zeros(R)
    if status != "infeasible":
        z[active] = np.asarray(signs) * lam / w[active]
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


def _support_indices(z: np.ndarray) -> np.ndarray:
    top = float(np.abs(z).max(initial=0.0))
    if top == 0.0:
        return np.zeros(0, dtype=int)
    return np.flatnonzero(np.abs(z) > _SUPPORT_THRESHOLD * top)


def kkt_certificate(
    B: np.ndarray, w: np.ndarray, support, signs
) -> CertificateResult:
    """Uniqueness certificate for the weighted program at (support, signs).

    Builds the least-norm dual h with B_S^T h = w_S * signs and measures the
    worst off-support slack w_j - |<B_j, h>|.  ``holds`` requires the support
    columns to be linearly independent and the slack strictly positive; then
    the vector supported on S with those signs is the unique minimizer among
    all feasible points sharing its image.

    Strict positivity is enforced with a relative guard of 1e-9 of the weight
    scale: a margin that is zero in exact arithmetic (a duplicated column, say)
    lands on either side of 0.0 in floating point, and the test is sufficient
    anyway, so refusing hairline margins only makes it more conservative.
    """
    B = np.asarray(B, dtype=float)
    w = np.asarray(w, dtype=float)
    support = np.asarray(support, dtype=int)
    signs = np.asarray(signs, dtype=float)
    if support.size != signs.size:
        raise ValueError("one sign per support index required")
    if support.size and len(set(support.tolist())) != support.size:
        raise ValueError("support indices must be distinct")
    R = B.shape[1]
    if support.size and (support.min() < 0 or support.max() >= R):
        raise ValueError(f"support indices must lie in [0, {R})")
    if support.size == 0:
        return CertificateResult(holds=True, injective=True, margin=float(np.min(w)) if R else np.inf, h=np.zeros(B.shape[0]))

    Bs = B[:, support]
    uu, sig, vvt = np.linalg.svd(Bs, full_matrices=False)
    cutoff = _PINV_RCOND * (sig[0] if sig.size else 0.0)
    rank = int(np.sum(sig > cutoff))
    injective = rank == support.size
    target = w[support] * signs
    # h = (B_S^*)^+ target through the SVD of B_S
    h = uu[:, :rank] @ ((vvt[:rank] @ target) / sig[:rank]) if rank else np.zeros(B.shape[0])

    off = np.ones(R, dtype=bool)
    off[support] = False
    if off.any():
        slack = w[off] - np.abs(B[:, off].T @ h)
        margin = float(slack.min())
    else:
        margin = np.inf
    holds = bool(injective and margin > 1e-9 * float(np.max(w)))
    return CertificateResult(holds=holds, injective=injective, margin=margin, h=h)


def recovery_check(
    instance: RelaxedInstance, result: SolveResult, tol: float = 1e-6
) -> str:
    """Classify a solve against the planted truth.

    'exact': detected support equals the planted one and the reconstruction
    matches entrywise within tol.  'support-match': supports agree but values
    drift beyond tol.  'fail': anything else.
    """
    planted = set(int(i) for i in instance.X.planted_global_cols())
    detected = set(result.detected_support)
    if detected != planted:
        return "fail"
    recon = apply_selector(instance.X, result.z)
    if float(np.abs(recon - instance.x).max(initial=0.0)) <= tol:
        return "exact"
    return "support-match"


def solve_instance(
    instance: RelaxedInstance, p: float, options: SolveOptions | None = None
) -> SolveResult:
    """Convenience wrapper: weights from the ensemble at exponent p, then solve."""
    B = effective_matrix(instance.A, instance.X)
    w = solver_weights(instance.X, p)
    return solve_weighted_bp(B, w, instance.y, options)


def certificate_for_instance(instance: RelaxedInstance, p: float) -> CertificateResult:
    """Certificate at the planted support with the planted (all +1) signs."""
    B = effective_matrix(instance.A, instance.X)
    w = solver_weights(instance.X, p)
    cols = instance.X.planted_global_cols()
    return kkt_certificate(B, w, cols, np.ones(cols.size))
