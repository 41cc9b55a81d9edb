"""The splitting solver as it was before its injective shortcut and refit reuse.

``blockrelax.solver.solve_weighted_bp`` now returns the least-squares point
without iterating when B is injective, keeps the last support refit while the
ADMM support holds, and writes the shrinkage step as v minus its clip.  This
is the straightforward version it replaced: a fresh refit and support dual at
every check and ``sign(v) * max(|v| - kappa, 0)`` for the shrinkage.  On
non-injective B the two must agree bit for bit.  Meant for differential tests
only.
"""

import numpy as np

from blockrelax.solver import (
    _PINV_RCOND,
    SolveOptions,
    SolveResult,
    _AffineProjector,
    _gap_from_dual,
)


def _soft_threshold(v: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)


def _dual_gap(B, w, y, z, support, h_extra=None) -> tuple[float, float]:
    """Best duality gap of z over the available dual candidates.

    Always tries the least-norm dual pinned to the detected support (exact
    when the support certificate holds); ``h_extra`` adds the splitting
    iteration's own dual estimate, which covers degenerate optima where the
    support dual is infeasible.
    """
    obj = float(w @ np.abs(z))
    gaps = []
    if support.size:
        Bs = B[:, support]
        target = w[support] * np.sign(z[support])
        h = np.linalg.lstsq(Bs.T, target, rcond=_PINV_RCOND)[0]
        gaps.append(_gap_from_dual(B, w, y, obj, h))
    if h_extra is not None:
        gaps.append(_gap_from_dual(B, w, y, obj, h_extra))
    if not gaps:
        gaps.append(obj)
    return obj, min(gaps)


def solve_weighted_bp(
    B: np.ndarray, w: np.ndarray, y: np.ndarray, options: SolveOptions | None = None
) -> SolveResult:
    """Minimize sum w_k |z_k| subject to B z = y.

    Returns status 'infeasible' when y is out of range of B (the least-squares
    point is reported), 'optimal' when the internal duality gap closes, and
    'max-iter' with the best iterate otherwise.
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

    y_scale = 1.0 + float(np.linalg.norm(y))
    proj = _AffineProjector(B, y)
    if proj.residual > opts.tol_feas * y_scale:
        obj = float(w @ np.abs(proj.z_ls))
        return SolveResult(
            z=proj.z_ls,
            objective=obj,
            status="infeasible",
            iterations=0,
            feas_residual=proj.residual,
            duality_gap=np.inf,
            detected_support=_detect_support(proj.z_ls, opts.support_threshold),
        )

    if not np.any(np.abs(y) > opts.tol_feas):
        z = np.zeros(R)
        return SolveResult(
            z=z,
            objective=0.0,
            status="optimal",
            iterations=0,
            feas_residual=float(np.linalg.norm(y)),
            duality_gap=0.0,
            detected_support=(),
        )

    # penalty scale: thresholds w/rho comparable to a tenth of the iterate scale,
    # which keeps the iteration exactly covariant under y -> lambda y
    z_scale = float(np.abs(proj.z_ls).max())
    rho = opts.rho if opts.rho is not None else float(np.mean(w)) / max(0.1 * z_scale, 1e-300)

    z = proj.z_ls.copy()
    zeta = z.copy()
    u = np.zeros(R)
    best: SolveResult | None = None

    for it in range(1, opts.max_iter + 1):
        z = proj.project(zeta - u)
        zeta_prev = zeta
        zeta = _soft_threshold(z + u, w / rho)
        u = u + z - zeta

        if it % opts.check_every == 0 or it == opts.max_iter:
            # rho*u is a subgradient of the weighted l1 term at zeta, so mapping
            # it back through B^T gives an (asymptotically exact) dual point
            h_admm = proj.Ur @ ((proj.Vr.T @ (rho * u)) / proj.sig) if proj.rank else None
            cand = _polish_candidate(B, w, y, z, zeta, opts, h_extra=h_admm)
            if cand is not None:
                feas, gap, zc, obj, supp = cand
                if gap <= opts.tol_opt * (1.0 + abs(obj)) and feas <= opts.tol_feas * y_scale:
                    return SolveResult(
                        z=zc,
                        objective=obj,
                        status="optimal",
                        iterations=it,
                        feas_residual=feas,
                        duality_gap=gap,
                        detected_support=supp,
                    )
                if best is None or obj < best.objective:
                    best = SolveResult(
                        z=zc,
                        objective=obj,
                        status="max-iter",
                        iterations=it,
                        feas_residual=feas,
                        duality_gap=gap,
                        detected_support=supp,
                    )
            # residual balancing on scale-normalized residuals keeps the two
            # ADMM residuals comparable without breaking y -> lambda y covariance
            r_norm = float(np.linalg.norm(z - zeta)) / (
                1e-300 + max(np.linalg.norm(z), np.linalg.norm(zeta))
            )
            s_norm = float(rho * np.linalg.norm(zeta - zeta_prev)) / (
                1e-300 + rho * np.linalg.norm(u)
            )
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                u /= 2.0
            elif s_norm > 10.0 * r_norm:
                rho /= 2.0
                u *= 2.0

    assert best is not None
    return best


def _detect_support(z: np.ndarray, rel_threshold: float) -> tuple[int, ...]:
    top = float(np.abs(z).max(initial=0.0))
    if top == 0.0:
        return ()
    return tuple(int(i) for i in np.flatnonzero(np.abs(z) > rel_threshold * top))


def _polish_candidate(B, w, y, z, zeta, opts, h_extra=None):
    """Least-squares refit on the detected support, then score feasibility/gap.

    The sparse splitting iterate (zeta) proposes the support; the projected
    iterate is the fallback when the refit is worse.
    """
    supp = np.flatnonzero(zeta != 0.0)
    if supp.size == 0:
        supp = np.asarray(_detect_support(z, opts.support_threshold), dtype=int)
    candidates = []
    if supp.size:
        zs = np.linalg.lstsq(B[:, supp], y, rcond=_PINV_RCOND)[0]
        zp = np.zeros_like(z)
        zp[supp] = zs
        candidates.append(zp)
    candidates.append(z)
    best = None
    for zc in candidates:
        feas = float(np.linalg.norm(B @ zc - y))
        dsupp = np.asarray(_detect_support(zc, opts.support_threshold), dtype=int)
        obj, gap = _dual_gap(B, w, y, zc, dsupp, h_extra=h_extra)
        score = (feas > opts.tol_feas * (1.0 + np.linalg.norm(y)), gap)
        if best is None or score < best[0]:
            best = (score, feas, gap, zc, obj, tuple(int(i) for i in dsupp))
    if best is None:
        return None
    _, feas, gap, zc, obj, supp_out = best
    return feas, gap, zc, obj, supp_out
