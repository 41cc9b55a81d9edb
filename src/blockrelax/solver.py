"""Weighted l1 minimization over an affine constraint, with optimality certificates.

The program solved is

    minimize    sum_k w_k |z_k|
    subject to  B z = y

with strictly positive weights.  The solver alternates projection onto the
constraint (through one cached SVD of B) with a weighted shrinkage step, i.e.
an ADMM splitting, and polishes the detected support by least squares.
Optimality is verified internally: a dual vector built from the detected
support is scaled into the dual-feasible box and the resulting duality gap
must close to tolerance, so a reported 'optimal' status is backed by a
certificate rather than by iteration counts.

``kkt_certificate`` implements the uniqueness test for a *given* support and
sign pattern: injectivity of the support columns plus a strict dual margin on
every off-support column.  When it holds, the weighted program has exactly one
minimizer, namely the vector supported there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RelaxedInstance, Selector, apply_selector, effective_matrix, solver_weights

__all__ = [
    "SolveOptions",
    "SolveResult",
    "CertificateResult",
    "solve_weighted_bp",
    "kkt_certificate",
    "recovery_check",
    "solve_instance",
    "certificate_for_instance",
]

_PINV_RCOND = 1e-10  # relative singular value cutoff, shared by solver and certificate


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and iteration limits for the splitting solver.

    ``tol_feas`` and ``tol_opt`` are relative: feasibility is measured against
    1 + ||y|| and the duality gap against 1 + |objective|.  The support
    threshold is relative to the largest entry of the iterate.
    """

    tol_feas: float = 1e-8
    tol_opt: float = 1e-8
    max_iter: int = 20000
    support_threshold: float = 1e-7
    rho: float | None = None  # override the automatic penalty scale
    check_every: int = 25


@dataclass(frozen=True)
class SolveResult:
    z: np.ndarray
    objective: float
    status: str  # 'optimal' | 'max-iter' | 'infeasible'
    iterations: int
    feas_residual: float
    duality_gap: float
    detected_support: tuple[int, ...]

    def selector(self, r: int, theta: int) -> Selector:
        return Selector(z=self.z, r=r, theta=theta)


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


class _AffineProjector:
    """Cached SVD machinery for the affine set {z : B z = y}."""

    def __init__(self, B: np.ndarray, y: np.ndarray):
        u, sig, vt = np.linalg.svd(B, full_matrices=False)
        cutoff = _PINV_RCOND * (sig[0] if sig.size else 0.0)
        rank = int(np.sum(sig > cutoff))
        self.rank = rank
        self.Vr = vt[:rank].T  # (R, rank)
        self.Ur = u[:, :rank]
        self.sig = sig[:rank]
        # min-norm feasible point B^+ y
        self.z_ls = self.Vr @ ((self.Ur.T @ y) / self.sig) if rank else np.zeros(B.shape[1])
        self.residual = float(np.linalg.norm(B @ self.z_ls - y))

    def project(self, v: np.ndarray) -> np.ndarray:
        # v - V_r V_r^T v + z_ls: orthogonal projection onto the affine set
        return v - self.Vr @ (self.Vr.T @ v) + self.z_ls


def _gap_from_dual(B, w, y, obj, h) -> float:
    """Duality gap after forcing h into the dual box |B^T h| <= w."""
    corr = B.T @ h
    scale = np.max(np.abs(corr) / w, initial=1.0)
    if scale > 1.0:
        h = h / scale
    return obj - float(y @ h)


def _score(B, w, y, z, opts):
    """Feasibility residual, detected support, objective and support-dual gap of z.

    The support dual is the least-norm dual pinned to the detected support,
    exact when the support certificate holds; its gap is None for an empty
    support.
    """
    feas = float(np.linalg.norm(B @ z - y))
    supp = _support_indices(z, opts.support_threshold)
    obj = float(w @ np.abs(z))
    if not supp.size:
        return feas, supp, obj, None
    target = w[supp] * np.sign(z[supp])
    h = np.linalg.lstsq(B[:, supp].T, target, rcond=_PINV_RCOND)[0]
    return feas, supp, obj, _gap_from_dual(B, w, y, obj, h)


def solve_weighted_bp(
    B: np.ndarray, w: np.ndarray, y: np.ndarray, options: SolveOptions | None = None
) -> SolveResult:
    """Minimize sum w_k |z_k| subject to B z = y.

    Returns status 'infeasible' when y is out of range of B (the least-squares
    point is reported), 'optimal' when the internal duality gap closes, and
    'max-iter' with the best iterate otherwise.  When B is injective the
    least-squares point is the only feasible one; it is returned without
    iterating (``iterations == 0``) once its duality gap closes.
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
            detected_support=tuple(_support_indices(proj.z_ls, opts.support_threshold).tolist()),
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

    refits: dict = {}  # the last support refit, reused while the ADMM support holds

    def polished(it, z, zeta, h_extra) -> SolveResult:
        feas, gap, zc, obj, supp = _polish_candidate(B, w, y, z, zeta, opts, h_extra, refits)
        done = gap <= opts.tol_opt * (1.0 + abs(obj)) and feas <= opts.tol_feas * y_scale
        return SolveResult(
            z=zc,
            objective=obj,
            status="optimal" if done else "max-iter",
            iterations=it,
            feas_residual=feas,
            duality_gap=gap,
            detected_support=supp,
        )

    if proj.rank == R:
        # z_ls is the only feasible point.  Refit it on its thresholded support;
        # B^T is onto, so h = B^{+T} g with g = w*sign(z_ls) there and 0 elsewhere
        # satisfies B^T h = g and closes the gap exactly.
        supp = _support_indices(proj.z_ls, opts.support_threshold)
        zeta = np.zeros(R)
        zeta[supp] = proj.z_ls[supp]
        g = w * np.sign(zeta)
        res = polished(0, proj.z_ls, zeta, proj.Ur @ ((proj.Vr.T @ g) / proj.sig))
        if res.status == "optimal":
            return res

    # penalty scale: thresholds w/rho comparable to a tenth of the iterate scale,
    # which keeps the iteration exactly covariant under y -> lambda y
    z_scale = float(np.abs(proj.z_ls).max())
    rho = opts.rho if opts.rho is not None else float(np.mean(w)) / max(0.1 * z_scale, 1e-300)
    kappa = w / rho

    z = proj.z_ls.copy()
    zeta = z.copy()
    u = np.zeros(R)
    best: SolveResult | None = None

    for it in range(1, opts.max_iter + 1):
        z = proj.project(zeta - u)
        zeta_prev = zeta
        # weighted soft threshold of v = z + u: v minus its clip to [-kappa, kappa]
        v = z + u
        zeta = v - np.minimum(np.maximum(v, -kappa), kappa)
        u = v - zeta

        if it % opts.check_every == 0 or it == opts.max_iter:
            # rho*u is a subgradient of the weighted l1 term at zeta, so mapping
            # it back through B^T gives an (asymptotically exact) dual point
            h_admm = proj.Ur @ ((proj.Vr.T @ (rho * u)) / proj.sig) if proj.rank else None
            res = polished(it, z, zeta, h_admm)
            if res.status == "optimal":
                return res
            if best is None or res.objective < best.objective:
                best = res
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
                kappa = w / rho
            elif s_norm > 10.0 * r_norm:
                rho /= 2.0
                u *= 2.0
                kappa = w / rho

    assert best is not None
    return best


def _support_indices(z: np.ndarray, rel_threshold: float) -> np.ndarray:
    top = float(np.abs(z).max(initial=0.0))
    if top == 0.0:
        return np.zeros(0, dtype=int)
    return np.flatnonzero(np.abs(z) > rel_threshold * top)


def _polish_candidate(B, w, y, z, zeta, opts, h_extra, refits):
    """Least-squares refit on the detected support, then score feasibility/gap.

    The sparse splitting iterate (zeta) proposes the support; the projected
    iterate is the fallback when the refit is worse.  ``refits`` maps the last
    proposed support to its scored refit, which depends on nothing else, so a
    repeated support skips the refit and its support dual.  ``h_extra`` adds
    the splitting iteration's own dual estimate, which covers degenerate
    optima where the support dual is infeasible.
    """
    supp = np.flatnonzero(zeta != 0.0)
    if supp.size == 0:
        supp = _support_indices(z, opts.support_threshold)
    candidates = []
    if supp.size:
        key = supp.tobytes()
        if key not in refits:
            zp = np.zeros_like(z)
            zp[supp] = np.linalg.lstsq(B[:, supp], y, rcond=_PINV_RCOND)[0]
            refits.clear()
            refits[key] = (zp, _score(B, w, y, zp, opts))
        candidates.append(refits[key])
    candidates.append((z, _score(B, w, y, z, opts)))
    feas_tol = opts.tol_feas * (1.0 + np.linalg.norm(y))
    best = None
    for zc, (feas, dsupp, obj, support_gap) in candidates:
        gaps = [] if support_gap is None else [support_gap]
        if h_extra is not None:
            gaps.append(_gap_from_dual(B, w, y, obj, h_extra))
        gap = min(gaps) if gaps else obj
        score = (feas > feas_tol, gap)
        if best is None or score < best[0]:
            best = (score, feas, gap, zc, obj, dsupp)
    _, feas, gap, zc, obj, dsupp = best
    return feas, gap, zc, obj, tuple(dsupp.tolist())


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
