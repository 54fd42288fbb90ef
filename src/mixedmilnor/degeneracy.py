"""Strong non-degeneracy falsification and local-tameness verdicts.

A point is a mixed critical point of f exactly when the conjugated
holomorphic gradient aligns with the antiholomorphic gradient up to a unit
complex factor.  The residual implemented here is a scale- and
phase-invariant measure of that alignment; the falsifier drives it to zero
by multistart local minimization over the torus in log coordinates.

Before any search, a face is tried against one exact decision
(`exact_decision`): with u_k = c_k z^nu_k zbar^mu_k, a torus critical
point on the free variables J gives a unit phase w = e^{i phi} u = x + i y
with B_J^T x = 0 and A_J^T y = 0, where A_J = (nu + mu)_J and
B_J = (nu - mu)_J.  When both left kernels vanish at some term k,
u_k = 0 is forced and the face has no critical point; the verdict names
the forced term as "support[k]".  On a covered face, one whose rows of A_J
are independent, y = 0, and a critical point exists iff some sign vector
of x passes a Fourier-Motzkin test on ker B_J^T and a phase test against
a Z-basis of the lattice {lambda : lambda^T [B_J | B_I | 1] = 0}.  A
critical point found so is built from exact data and rechecked with
`criticality_residual_exact` before it is emitted; its verdict names
"phase-lattice", as does a proof that there is none.  Faces with
dependent rows, or past the decision's caps, are searched.

Local tameness along a vanishing coordinate subspace C^I is decided in
stages, each face in turn:

1. an exact symbolic criterion, a sign-definite diagonal witness
   polynomial T_j ("sign-definite-T[j]");
2. the exact decision on the complement of I, whose witness puts |z_I| at
   the probe radius ("support[k]", "phase-lattice");
3. a frozen search: z_I is frozen at 12 small nonzero points, four random
   directions on each of three shells, and each shell in turn is searched
   for critical points of the face function on the remaining torus.  With
   one free variable w = z_j the face is r^D h(theta) in w = r e^{i theta},
   so a shell has a critical point iff F(theta) = Im(conj(h) h') has a
   zero; a Sturm count decides that exactly, and a zero gives a witness at
   |w| = 1, rechecked with `criticality_residual_exact` ("sign-change-F").
   A shell past that decision's caps, whose witness fails the recheck, or
   with more free variables runs a multistart minimization.

A NotTame witness is always a critical point at a nonzero z_I.  One float
search, _critical_search, serves both verdicts: the falsifier is the
frozen search with nothing frozen (I empty, one shell), where a clean
exact shell is a proof.  Its minimization is bounded: log-magnitudes
start in [-2, 2] and stay in [-2.5, 2.5].  A point where every free
gradient is exactly 0 in floats scores inf, as the residual there says
nothing.  Floats reach a verdict only through a search start or a
printed witness; one that ran no start reports NO_SEARCH.  Certification
by sampling alone is never claimed: twelve clean shells are not a proof,
so without an exact certificate the best possible verdict is Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import numpy as np

from . import lattice, newton
from .errors import BadRequestError, NotEssentialFaceError, NotVanishingError, require_positive
from .newton import FaceDescriptor, FaceKind
from .poly import MAX_POWER_BITS, MixedMonomial, MixedPoly, _power

WITNESS_THRESHOLD = 1e-10
# bits of the exact numbers in the recheck of a witness the library builds
MAX_RECHECK_BITS = 1 << 15
# search starts per face, 16 times the default budget of 64
MAX_BUDGET = 1024
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


NO_SEARCH = ResidualStats(0, math.inf, 0)  # the stats of a verdict that ran no search start


@dataclass(frozen=True)
class NondegeneracyVerdict:
    status: NondegStatus
    witness: np.ndarray | None
    residual_stats: ResidualStats
    face: FaceDescriptor
    face_function: MixedPoly
    certified_by: str | None = None  # exact_decision's "support[k]" or "phase-lattice", "sign-change-F", or None


@dataclass(frozen=True)
class FaceTameness:
    face: FaceDescriptor
    status: TameStatus
    certified_radius: float
    witness: tuple | None  # (frozen z_I values, full critical point)
    criterion_polynomials: dict  # j -> T_j as exact MixedPoly
    # "sign-definite-T[j]", exact_decision's "support[k]" or "phase-lattice", or
    # the frozen search's "sign-change-F"
    certified_by: str | None
    stats: ResidualStats | None  # the frozen search's, None when a certificate came first


@dataclass(frozen=True)
class TamenessVerdict:
    status: TameStatus
    certified_radius: float
    witness: tuple | None
    faces: tuple


# ---------------------------------------------------------------------------
# Criticality residual
# ---------------------------------------------------------------------------


def _aligned_residual_float(v, w):
    """criticality_residual's value over the last axis of v and w: one value
    for two vectors, one per row for two (N, n) stacks."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nv, nw = ((x.real * x.real + x.imag * x.imag).sum(axis=-1) for x in (v, w))
        if not (1e-100 < (nv + nw).min() and (nv + nw).max() < 1e100):
            # the squares under- or overflow: the residual is homogeneous of
            # degree 0, so take the rows to unit scale first (a row holding
            # inf or nan keeps scale 1, and its nan)
            vw, _ = _unit_rows(np.concatenate([v, w], axis=-1))
            v, w = np.split(vw.view(np.complex128), 2, axis=-1)
            nv, nw = ((x.real * x.real + x.imag * x.imag).sum(axis=-1) for x in (v, w))
        denom = (nv + nw) ** 2
        t1 = (nv - nw) ** 2
        # Gram determinant |v|^2 |w|^2 - |<v,w>|^2 via the sum of squared 2x2
        # minors (Cauchy-Binet); the direct difference cancels catastrophically
        # near alignment, the minor sum does not
        minors = v[..., :, None] * w[..., None, :] - w[..., :, None] * v[..., None, :]
        t2 = (minors.real**2 + minors.imag**2).sum(axis=(-2, -1)) / 2.0
        # both gradients zero: a critical point, residual 0
        return np.where(denom == 0.0, 0.0, (t1 + t2) / denom)


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
    idx = slice(None) if free is None else [j - 1 for j in sorted(free)]
    return float(_aligned_residual_float(np.conj(grads.d_z[idx]), grads.d_zbar[idx]))


def criticality_residual_exact(f: MixedPoly, p, free=None) -> Fraction:
    """Exact rational recomputation of the residual at a float witness.

    The float coordinates are promoted to exact rationals, so a residual of
    exactly zero certifies the witness at infinite precision.  The residual
    is unchanged when every derivative is scaled by one positive number, so
    each is evaluated times a common denominator, in Gaussian integers.
    """
    indices = sorted(free) if free is not None else range(1, f.n + 1)
    derivs = [f.wirtinger(j, "z") for j in indices] + [f.wirtinger(j, "zbar") for j in indices]
    values = _gaussian_values(derivs, p)
    v = [(a, -b) for a, b in values[: len(indices)]]
    w = values[len(indices) :]
    nv = sum(a * a + b * b for a, b in v)
    nw = sum(a * a + b * b for a, b in w)
    if nv + nw == 0:
        return Fraction(0)
    # <v, w> = sum v_j conj(w_j)
    inner_re = sum(a * c + b * d for (a, b), (c, d) in zip(v, w))
    inner_im = sum(b * c - a * d for (a, b), (c, d) in zip(v, w))
    t1 = (nv - nw) ** 2
    t2 = nv * nw - (inner_re * inner_re + inner_im * inner_im)
    return Fraction(t1 + t2, (nv + nw) ** 2)


def _gaussian_ints(p):
    """The float coordinates of p as Gaussian integers (re, im) over one
    power of two 2^k, and k."""
    parts = [(Fraction(z.real), Fraction(z.imag)) for z in np.asarray(p, dtype=complex)]
    k = max((x.denominator.bit_length() - 1 for pair in parts for x in pair), default=0)
    return [(int(re * (1 << k)), int(im * (1 << k))) for re, im in parts], k


def _gaussian_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gaussian_product(bases, exps, one):
    """one * prod base^e over Gaussian integers (re, im)."""
    for b, e in zip(bases, exps):
        one = _power(b, e, one, _gaussian_mul)
    return one


def _gaussian_values(polys, p):
    """Each of polys at the float point p, times one positive integer common
    to all of them, as Gaussian integers (re, im).

    With p = pts / 2^k and scale the lcm of the coefficients' denominators,
    each value is scale * 2^(k top) * poly(p), top the largest total degree.
    """
    pts, k = _gaussian_ints(p)
    terms = [item for poly in polys for item in poly.terms.items()]
    top = max((m.total_degree() for m, _ in terms), default=0)
    scale = math.lcm(*(x.denominator for _, c in terms for x in (c.re, c.im)))
    bases = pts + [(re, -im) for re, im in pts]
    values = []
    for poly in polys:
        re = im = 0
        for m, c in poly.terms.items():
            shift = k * (top - m.total_degree())
            one = (int(c.re * scale) << shift, int(c.im * scale) << shift)
            value = _gaussian_product(bases, m.nu + m.mu, one)
            re, im = re + value[0], im + value[1]
        values.append((re, im))
    return values


def _exact_bits(degree, p):
    """The bits of the Gaussian integers that an exact evaluation of the given
    degree at the float point p multiplies: the degree times the bits of p's
    largest exact coordinate."""
    pts, _ = _gaussian_ints(p)
    return degree * max(max(map(abs, x)).bit_length() for x in pts)


def _rechecks(fpoly, point, free) -> bool:
    """True when point is a critical point on the free variables by
    criticality_residual_exact (below WITNESS_THRESHOLD), in numbers of at
    most MAX_RECHECK_BITS bits; the gcd of the residual's numerator and
    denominator grows as their square."""
    if _exact_bits(fpoly.total_degree(), point) > MAX_RECHECK_BITS:
        return False
    return criticality_residual_exact(fpoly, point, free) < WITNESS_THRESHOLD


def real_span_residual(target, b1, b2):
    """Norm of the component of target orthogonal to span_R(b1, b2).

    Complex n-vectors are treated as real 2n-vectors under the inner
    product Re<a, b>, one residual per row for (N, n) stacks.  Modified
    Gram-Schmidt orthonormalizes the span; as in least squares, a vector
    within rounding of the other's line (or zero) adds no direction.
    """
    # rows at unit scale square without under- or overflow; the span keeps
    # its directions, and the residual scales with t
    (t, a, b), (scale, _, _) = _unit_rows(np.stack([target, b1, b2]))
    floor = np.finfo(float).eps * t.shape[-1] * np.sqrt(_dot(b, b))
    size = np.sqrt(_dot(a, a))
    q1 = np.divide(a, size, out=np.zeros_like(a), where=size > 0)
    b = b - _dot(b, q1) * q1
    size = np.sqrt(_dot(b, b))
    q2 = np.divide(b, size, out=np.zeros_like(b), where=size > floor)
    for q in (q1, q2):
        t = t - _dot(t, q) * q
    return np.sqrt(_dot(t, t))[..., 0] / scale[..., 0]


def _dot(x, y):
    return (x * y).sum(axis=-1, keepdims=True)


def _unit_rows(x):
    """Complex rows x as real rows scaled by powers of two to max |entry| in [1/2, 1), and the powers."""
    x = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    top = np.max(np.abs(x), axis=-1, keepdims=True, initial=0.0)
    scale = np.ldexp(1.0, np.minimum(-np.frexp(top)[1], 1023))
    return x * scale, scale


# ---------------------------------------------------------------------------
# Multistart torus search
# ---------------------------------------------------------------------------


def _torus_point(u, theta):
    return np.array([math.exp(x) for x in u]) * np.exp(1j * theta)  # numpy rounds float64 exp by SIMD level


# Nelder and Mead's method (Comput. J. 7, 1965) as the bounded, non-adaptive path of scipy 1.17's
# _minimize_neldermead runs it, expression for expression, so that a search takes the steps it took
# through scipy.  That code is under scipy's license:
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers. All rights reserved.
# Redistribution and use in source and binary forms, with or without modification, are permitted provided that
# the following conditions are met:
# 1. Redistributions of source code must retain the above copyright notice, this list of conditions and the
#    following disclaimer.
# 2. Redistributions in binary form must reproduce the above copyright notice, this list of conditions and the
#    following disclaimer in the documentation and/or other materials provided with the distribution.
# 3. Neither the name of the copyright holder nor the names of its contributors may be used to endorse or
#    promote products derived from this software without specific prior written permission.
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS" AND ANY EXPRESS OR IMPLIED
# WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A
# PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT OWNER OR CONTRIBUTORS BE LIABLE FOR ANY
# DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO,
# PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS INTERRUPTION)
# HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
# NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF THE
# POSSIBILITY OF SUCH DAMAGE.


def minimize(fun, x0, bounds, *, maxiter, xatol, fatol):
    """Nelder-Mead from x0 in the box bounds, one (low, high) pair per coordinate,
    clipping every trial point into it.  Returns the best value fun, its point x
    and the evaluation count nfev.  A start whose initial simplex all scores inf
    ends there, after len(x0) + 1 evaluations: the method would compare nan only."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    lower, upper = np.array(bounds, dtype=float).T
    x0 = np.clip(x0, lower, upper)
    N = len(x0)
    sim = np.tile(x0, (N + 1, 1))
    np.fill_diagonal(sim[1:], np.where(x0 != 0, (1 + 0.05) * x0, 0.00025))
    # a vertex past an upper bound is reflected into the box, not clipped onto its face
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(np.copy(x))

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    fsim = np.array([f(x) for x in sim], dtype=float)
    sim, fsim = ordered(*ordered(sim, fsim))  # sorted twice, as scipy does
    for _ in range(1, maxiter):  # the initial simplex counts as iteration 1
        if fsim[0] == np.inf or (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = np.clip((1 + rho) * xbar - rho * sim[-1], lower, upper)
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lower, upper)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # contract outside the simplex
                xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lower, upper)
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # contract inside it
                xc = np.clip((1 - psi) * xbar + psi * sim[-1], lower, upper)
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lower, upper)
                    fsim[j] = f(sim[j])
        sim, fsim = ordered(sim, fsim)
    return SimpleNamespace(fun=np.min(fsim), x=sim[0], nfev=nfev)


def _multistart(objective, k, budget, rng):
    """Multistart Nelder-Mead over k log-magnitudes and k phases.

    Each start is one bounded Nelder-Mead pass from log-magnitudes drawn in
    [-LOG_RANGE, LOG_RANGE] and phases in [0, 2 pi); the search stops early
    once a start gets far below the witness threshold.  Returns (best value,
    its x, evaluations, starts run); x is None only when no start gave a
    finite value.

    Log magnitudes are kept inside a box slightly wider than the sampling
    range.  Residuals of quasi-homogeneous face functions can tend to zero
    as magnitude ratios escape to the torus boundary without any interior
    critical point existing; bounding the search keeps those escapes well
    above the witness threshold, while genuine critical points have
    representatives in the box up to the weighted scaling action.
    """
    box = LOG_RANGE + 0.5
    bounds = [(-box, box)] * k + [(-8 * np.pi, 8 * np.pi)] * k
    best, best_x = np.inf, None
    evals = starts = 0

    def scored(x):
        try:
            value = objective(x)
        except OverflowError:
            value = math.inf
        return value if math.isfinite(value) else math.inf

    for starts in range(1, budget + 1):
        x0 = np.concatenate(
            [rng.uniform(-LOG_RANGE, LOG_RANGE, size=k), rng.uniform(0, 2 * np.pi, size=k)]
        )
        # a point where the objective overflows scores inf, without a warning
        # from it or from the simplex arithmetic on inf
        with np.errstate(all="ignore"):
            res = minimize(scored, x0, bounds, maxiter=400 * k, xatol=1e-10, fatol=1e-14)
        evals += res.nfev
        if res.fun < best:
            best, best_x = res.fun, res.x
        if best < WITNESS_THRESHOLD * 1e-2:
            break
    return best, best_x, evals, starts


def _guarded_residual(fpoly, p, free):
    """The search objective: criticality_residual on the free variables, but
    inf where every free gradient is exactly 0 in floats: there the residual
    reads 0 whatever its exact value, so such a point witnesses nothing and
    bounds nothing.  free is sorted, as criticality_residual sorts it."""
    grads = fpoly.gradients(p)
    idx = [j - 1 for j in free]
    v, w = np.conj(grads.d_z[idx]), grads.d_zbar[idx]
    value = float(_aligned_residual_float(v, w))
    return math.inf if value == 0.0 and not (v.any() or w.any()) else value


# caps on the polynomial whose real roots one exact shell decision counts:
# its degree 2M (_frequencies), and (2M)^2 times the bits of the largest
# c_b(z_I), which bounds the size of its Sturm sequence (a decision of dense
# F at both caps took up to 0.07 s on a 2-core host)
MAX_SHELL_DEGREE = 16
MAX_SHELL_BITS = 1 << 16
SIGN_CHANGE_F = "sign-change-F"


def _angular_groups(fpoly, j):
    """The terms of fpoly grouped by b = nu_j - mu_j, for w = z_j the only
    free variable: the sorted b values and, per b, the group's polynomial
    c_b in the other variables (z_j's exponents dropped).

    When every term has one degree D = nu_j + mu_j in w,
    fpoly(z_I, r e^{i theta}) = r^D h(theta) with
    h = sum_b c_b(z_I) e^{i b theta}.  None when the degrees differ, or when
    2M passes MAX_SHELL_DEGREE.
    """
    groups, degrees = {}, set()
    for m, c in fpoly.terms.items():
        nu, mu = list(m.nu), list(m.mu)
        degrees.add(nu[j - 1] + mu[j - 1])
        b = nu[j - 1] - mu[j - 1]
        nu[j - 1] = mu[j - 1] = 0
        groups.setdefault(b, {})[MixedMonomial(tuple(nu), tuple(mu))] = c
    bs = sorted(groups)
    if len(degrees) > 1 or 2 * _frequencies(bs)[1] > MAX_SHELL_DEGREE:
        return None
    return bs, [MixedPoly(fpoly.n, groups[b]) for b in bs]


def _frequencies(bs):
    """(g, M): the gcd g of the differences of the b_k (1 for one b), and
    their spread M in units of g.  F's frequencies are those differences, so
    F(theta) = G(g theta) for a trigonometric polynomial G of degree M."""
    g = math.gcd(*(b - bs[0] for b in bs)) or 1
    return g, (bs[-1] - bs[0]) // g


def _angular_values(groups, template):
    """The c_b of _angular_groups at the shell point template, as Gaussian
    integers times one positive integer; None past a cap: a c_b that could
    pass MAX_POWER_BITS bits, or (2M)^2 times the bits of the largest past
    MAX_SHELL_BITS."""
    bs, polys = groups
    if _exact_bits(max(c.total_degree() for c in polys), template) > MAX_POWER_BITS:
        return None
    cs = _gaussian_values(polys, template)
    bits = max(max(map(abs, c)).bit_length() for c in cs)
    return cs if (2 * _frequencies(bs)[1]) ** 2 * bits <= MAX_SHELL_BITS else None


def _unit_zero(bs, cs):
    """A unit w = e^{i theta} where F(theta) = Im(conj(h) h') vanishes, for
    h(theta) = sum_k c_k e^{i b_k theta} with Gaussian integers c_k (re, im)
    and increasing b_k; None when F has no zero.

    F = Re(sum_d E_d e^{i d theta}) with E_0 = sum_k b_k |c_k|^2 and
    E_d = sum_{b_l - b_k = d} (b_k + b_l) conj(c_k) c_l, so F(theta) = G(g theta)
    with g and M from _frequencies.  With u = 1 + i t, t = tan(phi / 2),
    e^{i n phi} (1 + t^2)^M = u^(M + n) conj(u)^(M - n), so P = (1 + t^2)^M G
    is an integer polynomial of degree at most 2M whose t^2M coefficient is
    G(pi).  G has a zero iff P is 0, G(pi) = 0, or the Sturm sequence of P
    counts a real root (_root_angle).
    """
    g, M = _frequencies(bs)
    E = [(0, 0)] * (M + 1)
    for k, (bk, (a, b)) in enumerate(zip(bs, cs)):
        E[0] = (E[0][0] + bk * (a * a + b * b), 0)
        for bl, (c, d) in zip(bs[k + 1 :], cs[k + 1 :]):
            re, im = E[(bl - bk) // g]
            E[(bl - bk) // g] = (re + (bk + bl) * (a * c + b * d), im + (bk + bl) * (a * d - b * c))
    # Horner in u and conj(u): sum_n E_n u^n conj(u)^(M - n), then times u^M
    acc, bar = [E[M]], [(1, 0)]
    for n in range(M - 1, -1, -1):
        acc, bar = _times_line(acc, 1), _times_line(bar, -1)
        e0, e1 = E[n]
        acc = [(a + e0 * x - e1 * y, b + e0 * y + e1 * x) for (a, b), (x, y) in zip(acc, bar)]
    for _ in range(M):
        acc = _times_line(acc, 1)
    P = [re for re, _ in acc]
    phi = 0.0 if not any(P) else math.pi if P[-1] == 0 else _root_angle(_sturm(P))
    return None if phi is None else complex(math.cos(phi / g), math.sin(phi / g))


def _root_angle(chain):
    """An angle phi in (-pi, pi) with tan(phi / 2) within float precision of
    a real root of chain[0], by bisection on the sign changes along its
    Sturm sequence chain; None when it has no real root."""
    lo, hi = -math.pi, math.pi
    v_lo = _changes([p[-1] * (-1) ** (len(p) - 1) for p in chain])
    if v_lo == _changes([p[-1] for p in chain]):
        return None
    # the roots in (tan(lo / 2), tan(hi / 2)] number v_lo minus the changes at hi
    while hi - lo > 1e-15:
        mid = (lo + hi) / 2
        t = Fraction(math.tan(mid / 2))
        values = [_value(p, t.numerator, t.denominator) for p in chain]
        if values[0] == 0:
            return mid
        v = _changes(values)
        if v < v_lo:
            hi = mid
        else:
            lo, v_lo = mid, v
    return (lo + hi) / 2


def _times_line(u, s):
    """The polynomial u(t) (1 + s i t), u's coefficients Gaussian integers
    (re, im) from degree 0 up, s = 1 or -1."""
    out = u + [(0, 0)]
    for r, (re, im) in enumerate(u):
        a, b = out[r + 1]
        out[r + 1] = (a - s * im, b + s * re)
    return out


def _sturm(p):
    """The Sturm sequence of the integer polynomial p (coefficients from
    degree 0 up): p, p', then each negated remainder, every member after p
    scaled by a positive rational to primitive integers."""
    chain, nxt = [p], [r * c for r, c in enumerate(p)][1:]
    while nxt:
        chain.append(lattice.primitive(nxt))
        nxt = [-c for c in _remainder(chain[-2], chain[-1])]
    return chain


def _remainder(a, b):
    """A positive multiple of a mod b for integer polynomials (coefficients
    from degree 0 up); [] when b divides a."""
    r, lead = list(a), b[-1]
    while len(r) >= len(b):
        q, shift = (r[-1] if lead > 0 else -r[-1]), len(r) - len(b)
        r = [abs(lead) * x for x in r]
        for i, x in enumerate(b):
            r[shift + i] -= q * x
        while r and r[-1] == 0:
            r.pop()
    return r


def _value(p, num, den):
    """p(num / den) times den^deg p, for integers num and den > 0."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc, scale = acc * num + c * scale, scale * den
    return acc


def _changes(values):
    """Sign changes along a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _critical_search(fpoly, I, shells, budget, rng):
    """The critical points of fpoly on the variables outside I, with z_I
    frozen at each shell radius in turn.

    Each shell draws a unit direction for z_I (nothing when I is empty).
    When one variable w is free and the face is homogeneous in it, the shell
    is decided exactly (_unit_zero on the c_b(z_I) of _angular_groups): a
    zero of F is a witness at |w| = 1 once criticality_residual_exact
    rechecks it, and no zero means no critical point on the shell.  A shell
    past a cap of _angular_groups or _angular_values, or whose witness fails
    the recheck, and every shell with more free variables, runs
    max(1, budget // len(shells)) starts of _multistart on the rest of the
    torus.  The search ends at the first witness, or at the first shell
    whose best residual is below WITNESS_THRESHOLD.  Returns
    ((z_I, point) or None, a label or None, stats summed over the shells:
    the starts run, their evaluations, and their best residual).  The label
    is SIGN_CHANGE_F for an exact witness, and for a clean exact decision
    of the one shell when nothing is frozen, which is then a proof.
    """
    free = [j for j in range(1, fpoly.n + 1) if j not in I]
    k, idx = len(free), [j - 1 for j in free]
    groups = _angular_groups(fpoly, free[0]) if k == 1 else None
    per_shell = max(1, budget // len(shells))
    evals, low, restarts = 0, math.inf, 0
    for shell in shells:
        direction = rng.normal(size=len(I)) + 1j * rng.normal(size=len(I))
        direction /= np.linalg.norm(direction)
        template = np.zeros(fpoly.n, dtype=np.complex128)
        template[[i - 1 for i in I]] = zi = shell * direction
        cs = groups and _angular_values(groups, template)
        if cs:
            w = _unit_zero(groups[0], cs)
            if w is None:
                continue
            p = template.copy()
            p[idx] = w
            if _rechecks(fpoly, p, free):
                return (zi, p), SIGN_CHANGE_F, ResidualStats(evals, low, restarts)

        def point(x):
            p = template.copy()
            p[idx] = _torus_point(x[:k], x[k:])
            return p

        value, x, n, ran = _multistart(lambda x: _guarded_residual(fpoly, point(x), free), k, per_shell, rng)
        evals, low, restarts = evals + n, min(low, float(value)), restarts + ran
        if value < WITNESS_THRESHOLD:
            return (zi, point(x)), None, ResidualStats(evals, low, restarts)
    # with nothing frozen, a shell decided exactly (no start ran) is a proof
    proof = SIGN_CHANGE_F if not (I or restarts) else None
    return None, proof, ResidualStats(evals, low, restarts)


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


# sign vectors one phase-lattice decision tests before it leaves the face to the search
MAX_SIGN_VECTORS = 32
PHASE_LATTICE = "phase-lattice"


def _log_abs(q) -> float:
    """log |q| of a nonzero rational, for any size of its numerator and denominator."""
    return math.log(abs(q.numerator)) - math.log(q.denominator)


def _arg(c) -> float:
    """arg c of a nonzero Gaussian rational, taken at unit scale so that no part overflows."""
    top = max(abs(c.re), abs(c.im))
    return math.atan2(float(c.im / top), float(c.re / top))


def _parity_solutions(equations, T):
    """Each s in {0,1}^T with bit 0 clear and popcount(mask & s) = bit (mod 2)
    for every (mask, bit) in equations, in the order of its free bits; none
    when the system is inconsistent.  Gauss-Jordan over GF(2) on bitmasks."""
    rows = {}  # pivot bit -> (mask, bit), each mask free of the other pivots
    for mask, bit in [*equations, (1, 0)]:
        for p, (m, b) in rows.items():
            if mask >> p & 1:
                mask, bit = mask ^ m, bit ^ b
        if not mask:
            if bit:
                return
            continue
        p = mask.bit_length() - 1
        for q, (m, b) in rows.items():
            if m >> p & 1:
                rows[q] = (m ^ mask, b ^ bit)
        rows[p] = (mask, bit)
    free = [k for k in range(T) if k not in rows]
    for choice in range(1 << len(free)):
        s = sum(1 << k for i, k in enumerate(free) if choice >> i & 1)
        for p, (m, b) in rows.items():
            s |= (b ^ (m & s).bit_count()) % 2 << p
        yield s


def _phase_product(coeffs, lam):
    """rho = prod_{l_k > 0} conj(c_k)^l_k prod_{l_k < 0} c_k^-l_k times a
    positive integer, as a Gaussian integer (re, im): each c_k is scaled by
    its denominators, which keeps whether rho is real and its sign.  None
    when it could pass MAX_POWER_BITS bits."""
    bases = []
    for c, l in zip(coeffs, lam):
        d = math.lcm(c.re.denominator, c.im.denominator)
        re, im = int(c.re * d), int(c.im * d)
        bases.append((re, -im if l > 0 else im))
    if sum(abs(l) * (max(map(abs, b)).bit_length() + 1) for b, l in zip(bases, lam)) > MAX_POWER_BITS:
        return None
    return _gaussian_product(bases, map(abs, lam), (1, 0))


def exact_decision(fpoly: MixedPoly, free, radius: float = 1.0):
    """Exact decision of torus critical points on the free variables J.

    With u_k = c_k z^nu_k zbar^mu_k and the exponent matrices A = nu + mu and
    B = nu - mu (one row per term in printed order, the columns of J), a
    critical point gives w = e^{i phi} u = x + i y with B_J^T x = 0,
    A_J^T y = 0 and w_k nonzero for every term k.  Both kernels are rows of
    the unimodular transforms of two Hermite forms (lattice.hermite_rows),
    taken once each: that of A_J past its pivots, and that of [B_J | B_I | 1]
    past its pivots in the columns of J.  So when every vector of both
    kernels vanishes at a term k, u_k = 0 is forced and there is no critical
    point at any nonzero z_I: returns ("support[k]", None) for the first
    such k, 1-based.

    Otherwise a face whose rows A_J are dependent returns None, for the
    search.  Independent rows ("covered") force y = 0 and leave the term
    moduli free, so a critical point exists iff some sign vector sigma
    passes two tests: (i) some x in ker B_J^T has signs sigma, decided by
    Fourier-Motzkin (lattice.strict_point); (ii) the unit phases
    sigma_k conj(c_k)/|c_k| are e^{i(B_J theta_J + B_I theta_I + phi)} for
    some angles, which holds iff every lambda of a Z-basis of
    L = {lambda : lambda^T [B_J | B_I | 1] = 0}, its rows past all pivots,
    gives a real rho_lambda (_phase_product) of sign prod sigma_k^lambda_k.
    A non-real rho proves there is none; the signs filter sigma by parity.

    Returns ("phase-lattice", None) when there is no critical point,
    ("phase-lattice", point) for one built from the Fourier-Motzkin x:
    log-magnitudes by back-substitution on the Hermite form of A_J, phases
    on that of [B_J | B_I | 1], and |z_I| = radius; and None when a cap
    stops the decision (MAX_SIGN_VECTORS sign vectors, lattice.MAX_FM_ROWS,
    a rho past MAX_POWER_BITS bits, a recheck past MAX_RECHECK_BITS).  The
    point is rechecked with criticality_residual_exact; one that does not
    come below WITNESS_THRESHOLD, or leaves float range, gives None.
    """
    items = fpoly._sorted_terms()
    monos, coeffs = [m for m, _ in items], [c for _, c in items]
    T = len(monos)
    J = sorted(free)
    I = [j for j in range(1, fpoly.n + 1) if j not in J]
    a = [[m.nu[j - 1] + m.mu[j - 1] for j in J] for m in monos]
    b = [[m.nu[j - 1] - m.mu[j - 1] for j in J + I] + [1] for m in monos]
    h_a, u_a, piv_a = lattice.hermite_rows(a, len(J))
    h, u, piv = lattice.hermite_rows(b, len(J) + len(I) + 1)
    ker_a, ker_b = u_a[len(piv_a):], u[sum(col < len(J) for col in piv):]
    for k in range(T):
        if all(v[k] == 0 for v in ker_a + ker_b):
            return f"support[{k + 1}]", None
    if ker_a:
        return None
    equations = []
    for lam in u[len(piv):]:
        rho = _phase_product(coeffs, lam)
        if rho is None:
            return None
        if rho[1]:
            return PHASE_LATTICE, None
        equations.append((sum(1 << k for k, l in enumerate(lam) if l % 2), int(rho[0] < 0)))
    for tried, s in enumerate(_parity_solutions(equations, T)):
        if tried == MAX_SIGN_VECTORS:
            return None
        sigma = [-1 if s >> k & 1 else 1 for k in range(T)]
        try:
            t = lattice.strict_point([[sg * v[k] for v in ker_b] for k, sg in enumerate(sigma)], len(ker_b))
        except lattice.CapExceeded:
            return None
        if t is not None:
            break
    else:
        return PHASE_LATTICE, None
    # the witness: |c_k| e^{(A_J s)_k + (A_I log|z_I|)_k} = |x_k| for the moduli,
    # and arg c_k + (B theta)_k + phi = arg sigma_k for the phases, both
    # solved exactly from the float logs and arguments
    x = [sum((ti * v[k] for ti, v in zip(t, ker_b)), Fraction(0)) for k in range(T)]
    log_zi = math.log(radius) - 0.5 * math.log(len(I)) if I else 0.0
    moduli = [
        Fraction(_log_abs(xk) - 0.5 * _log_abs(c.re * c.re + c.im * c.im)
                 - log_zi * sum(m.nu[i - 1] + m.mu[i - 1] for i in I))
        for xk, c, m in zip(x, coeffs, monos)
    ]
    phases = [Fraction((math.pi if sg < 0 else 0.0) - _arg(c)) for c, sg in zip(coeffs, sigma)]
    s = lattice.echelon_solve(h_a, piv_a, [sum(map(mul, row, moduli)) for row in u_a])
    theta = lattice.echelon_solve(h, piv, [sum(map(mul, row, phases)) for row in u])
    point = np.zeros(fpoly.n, dtype=np.complex128)
    try:
        for col, j in enumerate(J + I):
            modulus = math.exp(s[col]) if col < len(J) else radius / math.sqrt(len(I))
            point[j - 1] = modulus * complex(math.cos(theta[col]), math.sin(theta[col]))
    except OverflowError:
        return None
    if not (np.isfinite(point).all() and point.all()) or not _rechecks(fpoly, point, J):
        return None
    return PHASE_LATTICE, point


def _settle_face(fpoly, budget, seed, index):
    """(status, witness, stats, certified_by) of one face function: a unit
    phase times a real polynomial is Degenerate, witnessed at a random torus
    point; otherwise the exact decision settles what it can, and anything
    else is searched.  A verdict that ran no start has the stats NO_SEARCH."""
    rng = np.random.default_rng([seed, index])
    if _unit_phase_real(fpoly):
        point = _torus_point(rng.uniform(-1, 1, size=fpoly.n), rng.uniform(0, 2 * np.pi, size=fpoly.n))
        return NondegStatus.DEGENERATE, point, NO_SEARCH, None
    stats, decided = NO_SEARCH, exact_decision(fpoly, range(1, fpoly.n + 1))
    if decided is None:
        found, certified, stats = _critical_search(fpoly, [], [1.0], budget, rng)
        decided = certified, found[1] if found else None
    certified, point = decided
    status = NondegStatus.NO_CRITICAL_POINT_FOUND if point is None else NondegStatus.CRITICAL_POINT_WITNESS
    return status, point, stats, certified


def require_budget(budget):
    """Raise unless budget is a positive number of search starts, at most MAX_BUDGET."""
    require_positive(budget=budget)
    if budget > MAX_BUDGET:
        raise BadRequestError(f"budget {budget} exceeds the cap of {MAX_BUDGET} search starts")


def falsify_nondegeneracy(f: MixedPoly, budget: int = 64, seed: int = 0) -> list:
    """Search every required face function for torus critical points.

    Covers all compact faces of the Newton boundary and the compact part of
    every essential non-compact face.  A verdict of NoCriticalPointFound is
    a proof when it carries a label (exact_decision's, or SIGN_CHANGE_F on
    one free variable), and otherwise a statistics-backed failure to
    falsify.  Deterministic for a fixed seed.
    """
    require_budget(budget)
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


def _check_face_tameness(f, face, probe_radius, budget, seed, face_index):
    fd = newton.face_function(f, face)
    T_polys = _witness_polys(fd, face)
    I = sorted(face.noncompact_directions)
    free = [j for j in range(1, f.n + 1) if j not in I]
    certified = _certify_symbolically(T_polys)
    status, radius, witness, stats = TameStatus.TAME_CERTIFIED, math.inf, None, None
    if certified is None and (decided := exact_decision(fd, free, probe_radius)) is not None:
        certified, point = decided
        if point is not None:
            status, witness = TameStatus.NOT_TAME, (point[[i - 1 for i in I]], point)
    if certified is None:
        # freeze z_I at four random directions on each of three shells of
        # decreasing radius and search the rest of the torus; without a
        # witness the outer shell is the clean radius
        shells = [probe_radius] * 4 + [probe_radius / 2] * 4 + [probe_radius / 4] * 4
        witness, certified, stats = _critical_search(fd, I, shells, budget, np.random.default_rng([seed, face_index]))
        status = TameStatus.INCONCLUSIVE if witness is None else TameStatus.NOT_TAME
        radius = probe_radius
    if witness is not None:
        # |z_I| is taken at unit scale, so it neither underflows nor overflows
        rows, scale = _unit_rows(witness[0])
        radius = float(np.linalg.norm(rows.view(np.complex128))) / float(scale[0])
    return FaceTameness(
        face=face,
        status=status,
        certified_radius=radius,
        witness=witness,
        criterion_polynomials=T_polys,
        certified_by=certified,
        stats=stats,
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
    require_budget(budget)
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
    return TamenessVerdict(status=status, certified_radius=radius, witness=witness, faces=tuple(results))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _radius_json(r):
    return "inf" if math.isinf(r) else r


def nondeg_verdict_to_json(v: NondegeneracyVerdict) -> dict:
    low = v.residual_stats.min_residual
    out = {
        "face": newton.face_to_json(v.face),
        "face_function": v.face_function.to_text(),
        "status": v.status.value,
        "stats": {
            "samples": v.residual_stats.evaluations,
            # null where no start ran or every start scored inf
            "min_residual": low if math.isfinite(low) else None,
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
