"""Strong non-degeneracy falsification and local-tameness verdicts.

A point is a mixed critical point of f exactly when the conjugated
holomorphic gradient aligns with the antiholomorphic gradient up to a unit
complex factor.  The residual implemented here is a scale- and
phase-invariant measure of that alignment; the falsifier drives it to zero
by multistart local minimization over the torus in log coordinates.

Before any search, a face is tried against the exact support certificate
(`support_certificate`): with u_k = c_k z^nu_k zbar^mu_k, a torus critical
point on the free variables J gives a unit phase w = e^{i phi} u = x + i y
with (nu - mu)_J^T x = 0 and (nu + mu)_J^T y = 0; when both left
nullspaces vanish at some term k, u_k = 0 is forced and the face has no
critical point.  A face it settles is never searched, and its verdict
names the forced term as "support[k]".

Local tameness along a vanishing coordinate subspace C^I is decided in
stages: an exact symbolic criterion (a sign-definite diagonal witness
polynomial T_j, then the support certificate on the complement of I), then
a sampling falsifier that freezes small nonzero values on the I
coordinates and searches the remaining torus for critical points, then a
probe for critical values of the squared I-norm on the zero set of the
face function.  Every float search, the falsifier's included, is the same
bounded multistart minimization: log-magnitudes start in [-2, 2] and stay
in [-2.5, 2.5].  Certification by sampling alone is never claimed: without
an exact certificate the best possible verdict is Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from . import lattice, newton
from .errors import NotEssentialFaceError, NotVanishingError, require_positive
from .newton import FaceDescriptor, FaceKind
from .poly import GaussianRational, MixedPoly

WITNESS_THRESHOLD = 1e-10
# float searches start at log-magnitudes in [-LOG_RANGE, LOG_RANGE]
LOG_RANGE = 2.0


class NondegStatus(Enum):
    NO_CRITICAL_POINT_FOUND = "NoCriticalPointFound"
    CRITICAL_POINT_WITNESS = "CriticalPointWitness"
    DEGENERATE = "Degenerate"


class TameStatus(Enum):
    TAME_CERTIFIED = "TameCertified"
    NOT_TAME = "NotTame"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ResidualStats:
    evaluations: int
    min_residual: float
    restarts: int


@dataclass(frozen=True)
class NondegeneracyVerdict:
    status: NondegStatus
    witness: np.ndarray | None
    residual_stats: ResidualStats
    face: FaceDescriptor
    face_function: MixedPoly
    certified_by: str | None = None  # "support[k]" or None


@dataclass(frozen=True)
class RhoProbeReport:
    """Search for critical values of rho(z) = |z_I|^2 on the face zero set."""

    evaluations: int
    min_objective: float
    witness: np.ndarray | None


@dataclass(frozen=True)
class FaceTameness:
    face: FaceDescriptor
    status: TameStatus
    certified_radius: float
    witness: tuple | None  # (frozen z_I values, full critical point)
    criterion_polynomials: dict  # j -> T_j as exact MixedPoly
    certified_by: str | None  # "sign-definite-T[j]", "support[k]" or None
    stats: ResidualStats | None
    rho_probe: RhoProbeReport | None


@dataclass(frozen=True)
class TamenessVerdict:
    status: TameStatus
    certified_radius: float
    witness: tuple | None
    criterion_polynomials: list
    faces: tuple


@dataclass(frozen=True)
class TamenessRadii:
    """Aggregated tameness radii: per face, per direction set, and global."""

    r_delta: dict
    r_I: dict
    r_nc: float
    rho_0: float


# ---------------------------------------------------------------------------
# Criticality residual
# ---------------------------------------------------------------------------


def _aligned_residual_float(v, w) -> float:
    nv = float(np.sum(v.real * v.real + v.imag * v.imag))
    nw = float(np.sum(w.real * w.real + w.imag * w.imag))
    denom = (nv + nw) ** 2
    if denom == 0.0:
        return 0.0
    t1 = (nv - nw) ** 2
    # Gram determinant |v|^2 |w|^2 - |<v,w>|^2 via the sum of squared 2x2
    # minors (Cauchy-Binet); the direct difference cancels catastrophically
    # near alignment, the minor sum does not
    minors = np.outer(v, w) - np.outer(w, v)
    t2 = float(np.sum(minors.real**2 + minors.imag**2)) / 2.0
    return (t1 + t2) / denom


def criticality_residual(f: MixedPoly, p, free=None) -> float:
    """Scale- and phase-invariant distance of p from mixed criticality.

    With v = conj(holomorphic gradient) and w = antiholomorphic gradient,
    restricted to the free variables (all by default), returns

        ((|v|^2 - |w|^2)^2 + (|v|^2 |w|^2 - |<v,w>|^2)) / (|v|^2 + |w|^2)^2,

    which is zero exactly when v = alpha*w for some unit alpha (both zero
    included), is invariant under f -> c*f for any nonzero complex c, and
    equals 1 at regular points of holomorphic f.
    """
    grads = f.gradients(p)
    v = np.conj(grads.d_z)
    w = grads.d_zbar
    if free is not None:
        idx = [j - 1 for j in sorted(free)]
        v = v[idx]
        w = w[idx]
    return _aligned_residual_float(v, w)


def criticality_residual_exact(f: MixedPoly, p, free=None) -> Fraction:
    """Exact rational recomputation of the residual at a float witness.

    The float coordinates are promoted to exact rationals, so a residual of
    exactly zero certifies the witness at infinite precision.
    """
    pts = [
        GaussianRational(Fraction(float(np.real(x))), Fraction(float(np.imag(x))))
        for x in p
    ]
    indices = sorted(free) if free is not None else range(1, f.n + 1)

    def eval_exact(poly):
        total = GaussianRational(Fraction(0), Fraction(0))
        for m, c in poly.terms.items():
            val = c
            for x, a, b in zip(pts, m.nu, m.mu):
                for _ in range(a):
                    val = val * x
                xb = x.conjugate()
                for _ in range(b):
                    val = val * xb
            total = total + val
        return total

    v = [eval_exact(f.wirtinger(j, "z")).conjugate() for j in indices]
    w = [eval_exact(f.wirtinger(j, "zbar")) for j in indices]
    nv = sum((x.re * x.re + x.im * x.im for x in v), Fraction(0))
    nw = sum((x.re * x.re + x.im * x.im for x in w), Fraction(0))
    if nv + nw == 0:
        return Fraction(0)
    inner = GaussianRational(Fraction(0), Fraction(0))
    for a, b in zip(v, w):
        inner = inner + a * b.conjugate()
    t1 = (nv - nw) ** 2
    t2 = nv * nw - (inner.re * inner.re + inner.im * inner.im)
    return (t1 + t2) / (nv + nw) ** 2


def real_span_residual(target, b1, b2) -> float:
    """Norm of the component of target orthogonal to span_R(b1, b2).

    Complex n-vectors are treated as real 2n-vectors under the inner
    product Re<a, b>; a rank-deficient span is handled by least squares.
    """
    target = np.asarray(target, dtype=np.complex128)
    basis = []
    for b in (b1, b2):
        b = np.asarray(b, dtype=np.complex128)
        basis.append(np.concatenate([b.real, b.imag]))
    A = np.stack(basis, axis=1)
    t = np.concatenate([target.real, target.imag])
    coeffs, *_ = np.linalg.lstsq(A, t, rcond=None)
    return float(np.linalg.norm(t - A @ coeffs))


# ---------------------------------------------------------------------------
# Multistart torus search
# ---------------------------------------------------------------------------


def _torus_point(u, theta):
    return np.exp(u) * np.exp(1j * theta)


def _multistart(objective, k, budget, rng):
    """Multistart Nelder-Mead over k log-magnitudes and k phases.

    Each start is one bounded Nelder-Mead pass from log-magnitudes drawn in
    [-LOG_RANGE, LOG_RANGE] and phases in [0, 2 pi); the search stops early
    once a start gets far below the witness threshold.  Returns (best value,
    its x, evaluations); x is None only when no start gave a finite value.

    Log magnitudes are kept inside a box slightly wider than the sampling
    range.  Residuals of quasi-homogeneous face functions can tend to zero
    as magnitude ratios escape to the torus boundary without any interior
    critical point existing; bounding the search keeps those escapes well
    above the witness threshold, while genuine critical points have
    representatives in the box up to the weighted scaling action.
    """
    box = LOG_RANGE + 0.5
    bounds = [(-box, box)] * k + [(-8 * np.pi, 8 * np.pi)] * k
    options = {"fatol": 1e-14, "xatol": 1e-10, "maxiter": 400 * k}
    best, best_x = np.inf, None
    evals = 0

    def scored(x):
        try:
            value = objective(x)
        except OverflowError:
            return math.inf
        return value if math.isfinite(value) else math.inf

    for _ in range(budget):
        x0 = np.concatenate(
            [rng.uniform(-LOG_RANGE, LOG_RANGE, size=k), rng.uniform(0, 2 * np.pi, size=k)]
        )
        # a point where the objective overflows scores inf, without a warning
        # from it or from the simplex arithmetic on inf
        with np.errstate(all="ignore"):
            res = minimize(scored, x0, method="Nelder-Mead", bounds=bounds, options=options)
        evals += res.nfev
        if res.fun < best:
            best, best_x = res.fun, res.x
        if best < WITNESS_THRESHOLD * 1e-2:
            break
    return best, best_x, evals


def _critical_search(fpoly, free, frozen, budget, rng):
    """Multistart minimization of the restricted criticality residual.

    free is a sorted list of 1-based variable indices parameterized on the
    torus; frozen maps the remaining indices to fixed complex values.
    Returns (best residual over the starts, best point, stats).
    """
    free = sorted(free)
    k = len(free)
    template = np.zeros(fpoly.n, dtype=np.complex128)
    for j, val in frozen.items():
        template[j - 1] = val

    def point(x):
        p = template.copy()
        p[[j - 1 for j in free]] = _torus_point(x[:k], x[k:])
        return p

    def objective(x):
        return criticality_residual(fpoly, point(x), free=free)

    value, x, evals = _multistart(objective, k, budget, rng)
    witness = None if x is None else point(x)
    return value, witness, ResidualStats(evals, float(value), budget)


def _unit_phase_real(f: MixedPoly) -> bool:
    """True when f equals a unit complex constant times a real-valued
    polynomial, in which case every point is a mixed critical point."""
    if f.is_zero():
        return True
    fbar = f.conjugate()
    mono, c = next(iter(f.terms.items()))
    cbar = fbar.terms.get(mono)
    if cbar is None:
        return False
    alpha = cbar / c
    norm = alpha.re * alpha.re + alpha.im * alpha.im
    if norm != 1:
        return False
    return fbar == f * alpha


def support_certificate(fpoly: MixedPoly, free) -> int | None:
    """A term that no torus critical point on the free variables allows.

    With A = nu + mu and B = nu - mu the exponent matrices of the terms
    (one row per term, the columns of the 1-based indices in free), a
    critical point gives x, y with B^T x = 0, A^T y = 0 and x_k + i y_k
    nonzero for every term k.  Returns the 1-based position k, in printed
    term order, of the first term at which every vector of both left
    nullspaces vanishes, which proves fpoly has no critical point on the
    torus of the free variables for any nonzero values of the others;
    None when there is no such term.  Exact, from the exponents alone.
    """
    monos = [m for m, _ in fpoly._sorted_terms()]
    cols = [j - 1 for j in sorted(free)]
    a_t = [[m.nu[j] + m.mu[j] for m in monos] for j in cols]
    b_t = [[m.nu[j] - m.mu[j] for m in monos] for j in cols]
    kernel = lattice.nullspace(a_t, len(monos)) + lattice.nullspace(b_t, len(monos))
    for k in range(len(monos)):
        if all(v[k] == 0 for v in kernel):
            return k + 1
    return None


def _settle_face(fpoly, budget, seed, index):
    """(status, witness, stats, certified_by) of one face function: a unit
    phase times a real polynomial is Degenerate, a support certificate
    proves it has no critical point, anything else is searched."""
    all_vars = list(range(1, fpoly.n + 1))
    rng = np.random.default_rng([seed, index])
    k = None
    if not _unit_phase_real(fpoly):
        k = support_certificate(fpoly, all_vars)
        if k is None:
            value, point, stats = _critical_search(fpoly, all_vars, {}, budget, rng)
            if value < WITNESS_THRESHOLD:
                return NondegStatus.CRITICAL_POINT_WITNESS, point, stats, None
            return NondegStatus.NO_CRITICAL_POINT_FOUND, None, stats, None
    # settled without a search: the residual at one torus point fills the
    # stats, and that point witnesses a Degenerate face
    point = _torus_point(
        rng.uniform(-1, 1, size=fpoly.n), rng.uniform(0, 2 * np.pi, size=fpoly.n)
    )
    stats = ResidualStats(1, criticality_residual(fpoly, point), 0)
    if k is None:
        return NondegStatus.DEGENERATE, point, stats, None
    return NondegStatus.NO_CRITICAL_POINT_FOUND, None, stats, f"support[{k}]"


def falsify_nondegeneracy(f: MixedPoly, budget: int = 64, seed: int = 0) -> list:
    """Search every required face function for torus critical points.

    Covers all compact faces of the Newton boundary and the compact part of
    every essential non-compact face.  A verdict of NoCriticalPointFound is
    a proof when it carries a support certificate, and otherwise a
    statistics-backed failure to falsify.  Deterministic for a fixed seed.
    """
    require_positive(budget=budget)
    faces = newton.all_faces(f)
    targets = []
    for fc in faces:
        if fc.is_compact():
            targets.append((fc, newton.face_function(f, fc)))
        elif fc.kind is FaceKind.NONCOMPACT_ESSENTIAL:
            targets.append((fc, newton.compact_part_function(f, fc)))
    verdicts = []
    cache = {}
    for index, (fc, fpoly) in enumerate(targets):
        key = frozenset((m.nu, m.mu) for m in fpoly.terms)
        if key not in cache:
            cache[key] = _settle_face(fpoly, budget, seed, index)
        status, witness, stats, certified = cache[key]
        verdicts.append(
            NondegeneracyVerdict(
                status=status,
                witness=witness,
                residual_stats=stats,
                face=fc,
                face_function=fpoly,
                certified_by=certified,
            )
        )
    return verdicts


# ---------------------------------------------------------------------------
# Local tameness
# ---------------------------------------------------------------------------


def tameness_witness_polys(f: MixedPoly, face: FaceDescriptor) -> dict:
    """Exact witness polynomials T_j = Im(dzbar_j g * conj(dzbar_j h)).

    Computed for the face function of an essential non-compact face, one
    polynomial per coordinate j outside the noncompact directions.  Every
    T_j is real-valued; where some T_j has no zero on the relevant domain,
    the face function is locally tame.
    """
    return _witness_polys(newton.face_function(f, face), face)


def _witness_polys(fd: MixedPoly, face: FaceDescriptor) -> dict:
    """tameness_witness_polys for the already built face function fd, as
    T_j = (|dzbar_j f|^2 - |dz_j f|^2) / 4, without building g and h."""
    if face.kind is not FaceKind.NONCOMPACT_ESSENTIAL:
        raise NotEssentialFaceError("tameness witnesses need an essential face")
    out = {}
    for j in range(1, fd.n + 1):
        if j in face.noncompact_directions:
            continue
        dzbar, dz = fd.wirtinger(j, "zbar"), fd.wirtinger(j, "z")
        out[j] = (dzbar * dzbar.conjugate() - dz * dz.conjugate()) * Fraction(1, 4)
    return out


def _sign_definite_diagonal(T: MixedPoly):
    """Sign of T on the all-coordinates-nonzero domain, when decidable.

    Recognizes sums of same-sign monomials in the squared moduli (nu == mu
    termwise); anything else returns None.
    """
    if T.is_zero():
        return None
    signs = set()
    for m, c in T.terms.items():
        if m.nu != m.mu or c.im != 0:
            return None
        signs.add(c.re > 0)
    if len(signs) != 1:
        return None
    return 1 if signs.pop() else -1


def _certify_symbolically(T_polys):
    """Infinite-radius certificate: the first sign-definite T_j, if any."""
    for j in sorted(T_polys):
        if _sign_definite_diagonal(T_polys[j]) is not None:
            return f"sign-definite-T[{j}]"
    return None


def _rho_probe(fpoly, I, shell, budget, rng):
    """Look for z on the face zero set with z_I in span_R of the gradients.

    Minimizes |f(z)|^2 plus the normalized span residual of the masked
    vector z_I, rescaled to the shell; a joint near-zero is a candidate
    critical value of rho.
    """
    n = fpoly.n
    mask = np.zeros(n, dtype=bool)
    mask[[i - 1 for i in I]] = True

    def point(x):
        p = _torus_point(x[:n], x[n:])
        p[mask] *= shell / np.linalg.norm(p[mask])
        return p

    def objective(x):
        p = point(x)
        zi = np.where(mask, p, 0.0)
        gg, hh = fpoly.gradients(p).real_imag_zbar()
        if not (np.isfinite(gg).all() and np.isfinite(hh).all()):
            # overflowed gradients: LAPACK would fail on them, loudly
            return math.inf
        fv = fpoly.evaluate(p)
        span = real_span_residual(zi, gg, hh) / shell
        return abs(fv) ** 2 + span**2

    value, x, evals = _multistart(objective, n, budget, rng)
    witness = point(x) if value < WITNESS_THRESHOLD else None
    return RhoProbeReport(evals, float(value), witness)


def _check_face_tameness(f, face, probe_radius, budget, seed, face_index):
    fd = newton.face_function(f, face)
    T_polys = _witness_polys(fd, face)
    I = sorted(face.noncompact_directions)
    free = [j for j in range(1, f.n + 1) if j not in I]
    certified = _certify_symbolically(T_polys)
    if certified is None:
        k = support_certificate(fd, free)
        certified = None if k is None else f"support[{k}]"
    status, radius, witness, stats, rho = TameStatus.TAME_CERTIFIED, math.inf, None, None, None
    if certified is None:
        # freeze z_I at four random directions on each of three shells of
        # decreasing radius and search the rest of the torus; when every
        # shell comes back clean, probe rho on the outer one
        rng = np.random.default_rng([seed, face_index])
        shells = [probe_radius] * 4 + [probe_radius / 2] * 4 + [probe_radius / 4] * 4
        restarts = max(1, budget // len(shells))
        runs = []
        status = TameStatus.INCONCLUSIVE
        for shell in shells:
            direction = rng.normal(size=len(I)) + 1j * rng.normal(size=len(I))
            direction /= np.linalg.norm(direction)
            zi = shell * direction
            value, point, run = _critical_search(fd, free, dict(zip(I, zi)), restarts, rng)
            runs.append(run)
            if value < WITNESS_THRESHOLD:
                status, witness = TameStatus.NOT_TAME, (zi, point)
                break
        else:
            rho = _rho_probe(fd, I, probe_radius, max(1, budget // 8), rng)
            if rho.witness is not None:
                status = TameStatus.NOT_TAME
                witness = (rho.witness[[j - 1 for j in I]], rho.witness)
        # without a witness the outer shell is the clean radius
        radius = probe_radius if witness is None else float(np.linalg.norm(witness[0]))
        stats = ResidualStats(
            sum(r.evaluations for r in runs),
            min(r.min_residual for r in runs),
            len(runs) * restarts,
        )
    return FaceTameness(
        face=face,
        status=status,
        certified_radius=radius,
        witness=witness,
        criterion_polynomials=T_polys,
        certified_by=certified,
        stats=stats,
        rho_probe=rho,
    )


def local_tameness_check(
    f: MixedPoly,
    I,
    probe_radius: float = 0.1,
    budget: int = 64,
    seed: int = 0,
) -> TamenessVerdict:
    """Tameness verdict for the vanishing coordinate subspace C^I.

    Checks every non-compact face whose direction set is exactly I (nested
    faces included) and aggregates by worst case: any NotTame face makes the
    verdict NotTame, all faces certified makes it TameCertified, anything
    else is Inconclusive.
    """
    require_positive(probe_radius=probe_radius)
    I = newton.coordinate_subset(I, f.n)
    if not newton.vanishes_on(f, I):
        raise NotVanishingError(f"f does not vanish on the subspace of {set(I)}")
    faces = newton.faces_with_directions(f, I)
    results = []
    for idx, face in enumerate(faces):
        results.append(_check_face_tameness(f, face, probe_radius, budget, seed, idx))
    not_tame = [r for r in results if r.status is TameStatus.NOT_TAME]
    if not_tame:
        worst = min(not_tame, key=lambda r: r.certified_radius)
        status = TameStatus.NOT_TAME
        witness = worst.witness
        radius = worst.certified_radius
    elif all(r.status is TameStatus.TAME_CERTIFIED for r in results):
        status = TameStatus.TAME_CERTIFIED
        witness = None
        radius = min((r.certified_radius for r in results), default=math.inf)
    else:
        status = TameStatus.INCONCLUSIVE
        witness = None
        radius = min(
            (r.certified_radius for r in results if r.status is not TameStatus.TAME_CERTIFIED),
            default=0.0,
        )
    criterion = []
    for r in results:
        criterion.extend(r.criterion_polynomials.values())
    return TamenessVerdict(
        status=status,
        certified_radius=radius,
        witness=witness,
        criterion_polynomials=criterion,
        faces=tuple(results),
    )


def tameness_radii(verdicts: dict, r0: float = math.inf) -> TamenessRadii:
    """Aggregate per-subspace verdicts into the radius hierarchy.

    verdicts maps each vanishing subset I to its TamenessVerdict; r0 is the
    user-supplied stable radius.  For convenient polynomials (no vanishing
    subsets) r_nc is infinite.
    """
    r_delta = {}
    r_I = {}
    for I, verdict in verdicts.items():
        for fr in verdict.faces:
            r_delta[fr.face] = fr.certified_radius
        r_I[frozenset(I)] = min(
            (fr.certified_radius for fr in verdict.faces), default=math.inf
        )
    r_nc = min(r_I.values(), default=math.inf)
    return TamenessRadii(r_delta=r_delta, r_I=r_I, r_nc=r_nc, rho_0=min(r_nc, r0))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _radius_json(r):
    return "inf" if math.isinf(r) else r


def nondeg_verdict_to_json(v: NondegeneracyVerdict) -> dict:
    out = {
        "face": newton.face_to_json(v.face),
        "face_function": v.face_function.to_text(),
        "status": v.status.value,
        "stats": {
            "samples": v.residual_stats.evaluations,
            "min_residual": v.residual_stats.min_residual,
            "restarts": v.residual_stats.restarts,
        },
    }
    if v.witness is not None:
        out["witness"] = [[float(x.real), float(x.imag)] for x in v.witness]
    if v.certified_by:
        out["certified_by"] = v.certified_by
    return out


def tameness_verdict_to_json(I, v: TamenessVerdict) -> dict:
    out = {
        "I": sorted(I),
        "status": v.status.value,
        "radius": _radius_json(v.certified_radius),
        "faces": [],
    }
    if v.witness is not None:
        zi, point = v.witness
        out["witness"] = {
            "z_I": [[float(x.real), float(x.imag)] for x in zi],
            "point": [[float(x.real), float(x.imag)] for x in point],
        }
    for fr in v.faces:
        entry = {
            "face": newton.face_to_json(fr.face),
            "status": fr.status.value,
            "radius": _radius_json(fr.certified_radius),
            "criterion": [
                {"j": j, "T": fr.criterion_polynomials[j].to_text()}
                for j in sorted(fr.criterion_polynomials)
            ],
        }
        if fr.certified_by:
            entry["certified_by"] = fr.certified_by
        out["faces"].append(entry)
    return out
