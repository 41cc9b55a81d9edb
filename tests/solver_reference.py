"""The per-program dual walk and KKT certificate, one program per call.

These are the walk and certificate that ``blockrelax.solver`` replaced with
stacked versions, which run k programs of one (m, R) in lockstep as
(k, m, R) tensors.  Each operation of the stacked walk is laid out as here,
so both give the same bits on every program.  Meant for differential tests
only.
"""

import math

import numpy as np

from blockrelax.solver import (
    _PINV_RCOND,
    _SUPPORT_THRESHOLD,
    _WALK_TOL,
    TOL_FEAS,
    TOL_OPT,
    CertificateResult,
    SolveOptions,
    SolveResult,
)


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
