"""Zeta function of the Milnor fibration for strongly polar homogeneous faces.

For inputs whose face functions are all strongly polar positive weighted
homogeneous, the zeta function of the Milnor fibration is a finite product
of factors (1 - t^d)^e.  Each nonvanishing coordinate subset I contributes
one factor per top-dimensional compact face of the restricted Newton
boundary: d is the polar degree of the face function, and the exponent is
-chi/d where chi is the Euler characteristic of the torus fiber of the face
function.  That characteristic is computed here as a signed normalized
lattice volume of the cone over the polar-reduced support, validated against
independent fiber-counting oracles in the test suite.

The product is emitted in factor form as the primary artifact; expansion to
a reduced numerator/denominator pair is presentational.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import newton
from .errors import (
    BadRequestError,
    NegativeReducedExponentError,
    NotStronglyPolarError,
    NotStronglyPolarFaceTypeError,
    ZetaIntegralityError,
)
from .lattice import normalized_volume
from .poly import MixedPoly, _merge_terms

__all__ = [
    "ZetaFactor",
    "ZetaFunction",
    "polar_reduction",
    "chi_torus",
    "zeta_function",
    "expand_zeta",
]

# the largest sum of d * |e| over the merged factors that expand_zeta expands:
# the expansion is dense in the polar degree, one coefficient per power of t
MAX_EXPANDED_DEGREE = 100_000


@dataclass(frozen=True)
class ZetaFactor:
    """One factor (1 - t^d)^e with its provenance (I, P, chi)."""

    d: int
    e: int
    I: frozenset
    P: tuple
    chi: int

    def __post_init__(self):
        if self.e * self.d != -self.chi:
            raise ZetaIntegralityError(
                f"exponent {self.e} times degree {self.d} is not -chi = {-self.chi}"
            )


@dataclass(frozen=True)
class ZetaFunction:
    """Product of factors (1 - t^d)^e, one per contributing (I, P) pair."""

    factors: tuple

    def multiset(self):
        """(d, e) pairs sorted; the convention-independent comparison key."""
        return tuple(sorted((f.d, f.e) for f in self.factors))

    def merged(self):
        """Factors with equal d merged by summing exponents, zeros dropped."""
        return tuple(sorted(_merge_terms((f.d, f.e) for f in self.factors).items()))

    def product_text(self) -> str:
        merged = self.merged()
        if not merged:
            return "1"
        parts = []
        for d, e in merged:
            base = f"(1-t^{d})"
            parts.append(base if e == 1 else f"{base}^{e}")
        return "".join(parts)


def polar_reduction(f_face: MixedPoly, P=None):
    """Support of the holomorphic model of a strongly polar face function.

    Maps each term z^nu zbar^mu to the exponent vector nu - mu (the same
    coefficients would be carried along; only the support matters here).
    Requires strong polar homogeneity with positive polar degree when a
    weight is supplied; a negative reduced exponent (Laurent case) is
    rejected.
    """
    if P is not None:
        report = newton.degrees(f_face, P)
        if not (report.strongly_polar and report.polar_positive):
            raise NotStronglyPolarError(
                "face function is not strongly polar positive homogeneous"
            )
    reduced = set()
    for m in f_face.terms:
        vec = tuple(a - b for a, b in zip(m.nu, m.mu))
        if any(x < 0 for x in vec):
            raise NegativeReducedExponentError(
                f"term with nu - mu = {vec} reduces to a Laurent monomial"
            )
        reduced.add(vec)
    return frozenset(reduced)


def chi_torus(reduced_support, k: int) -> int:
    """Euler characteristic of the torus fiber from the reduced support.

    Equals (-1)^(k-1) k! Vol_k of the convex hull of the origin and the
    support, computed exactly; degenerate (lower-dimensional) cones give 0.
    The support points must already be restricted to the k active
    coordinates.
    """
    pts = [tuple(p) for p in reduced_support]
    if not pts:
        raise ValueError("empty reduced support")
    if any(len(p) != k for p in pts):
        raise ValueError("support points must have length k")
    vol = normalized_volume(pts + [(0,) * k])
    sign = 1 if (k - 1) % 2 == 0 else -1
    chi = sign * vol
    if chi.denominator != 1:
        raise ZetaIntegralityError(f"normalized volume {vol} is not an integer")
    return int(chi)


def zeta_function(f: MixedPoly) -> ZetaFunction:
    """Zeta function of the Milnor fibration, in factor form.

    Iterates the nonvanishing subsets I and the top-dimensional compact
    faces of each restricted boundary; every face function must be strongly
    polar positive weighted homogeneous under its face weight.  Strong
    non-degeneracy and local tameness of the input are the caller's
    responsibility (the falsifier and tameness modules provide advisory
    verdicts).
    """
    report = newton.vanishing_subsets(f)
    factors = []
    for I in sorted(report.nonvanishing, key=lambda s: (len(s), sorted(s))):
        I_sorted = sorted(I)
        k = len(I_sorted)
        for P, face_poly in newton.top_faces(f, I):
            deg = newton.degrees(face_poly, P)
            if not (deg.strongly_polar and deg.polar_positive):
                raise NotStronglyPolarFaceTypeError(
                    f"face for I={set(I)} under P={P.p} is not strongly polar "
                    "positive weighted homogeneous"
                )
            reduced = polar_reduction(face_poly)
            restricted = frozenset(
                tuple(vec[i - 1] for i in I_sorted) for vec in reduced
            )
            chi = chi_torus(restricted, k)
            d = deg.pdeg
            if chi % d != 0:
                raise ZetaIntegralityError(
                    f"pdeg {d} does not divide chi {chi} for I={set(I)}"
                )
            factors.append(ZetaFactor(d=d, e=-chi // d, I=I, P=P.p, chi=chi))
    return ZetaFunction(tuple(factors))


# ---------------------------------------------------------------------------
# Expansion to a reduced rational function
# ---------------------------------------------------------------------------


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _psi_product(exponents) -> list:
    """Integer coefficients of prod_k Psi_k^a_k, ascending, for a_k >= 0.

    Psi_1 = 1 - t and Psi_k = Phi_k (cyclotomic) for k > 1, so that
    1 - t^d = prod_{k | d} Psi_k.  By Moebius inversion the product is
    prod_d (1 - t^d)^A_d with A_d = sum_{d | k} mu(k/d) a_k; each factor is a
    shift-and-subtract (A_d > 0) or a stride-d prefix sum (A_d < 0, the
    series of 1/(1 - t^d)), exact when truncated at the known degree.
    """
    divisors = ((k, d) for k in exponents for d in range(1, k + 1) if k % d == 0)
    powers = _merge_terms((d, _mobius(k // d) * exponents[k]) for k, d in divisors)
    degree = sum(d * e for d, e in powers.items())
    out = [1] + [0] * degree
    for d, e in powers.items():
        for _ in range(e):
            for i in range(degree, d - 1, -1):
                out[i] -= out[i - d]
        for _ in range(-e):
            for i in range(d, degree + 1):
                out[i] += out[i - d]
    return out


def expand_zeta(z: ZetaFunction):
    """Expanded reduced numerator/denominator of the factor product.

    Each 1 - t^d is prod_{k | d} Psi_k, so the reduced pair nets the
    exponent of each Psi_k: positive net exponents go to the numerator,
    negative ones to the denominator.  Both have constant term 1 and
    integer coefficients in ascending degree order.  A product whose sum of
    d * |e| exceeds MAX_EXPANDED_DEGREE is refused before any expansion.
    """
    merged = z.merged()
    degree = sum(d * abs(e) for d, e in merged)
    if degree > MAX_EXPANDED_DEGREE:
        raise BadRequestError(
            f"the zeta factors have total degree {degree} (the sum of d*|e|), above "
            f"the expansion cap of {MAX_EXPANDED_DEGREE}"
        )
    net = _merge_terms((k, e) for d, e in merged for k in range(1, d + 1) if d % k == 0)
    num = _psi_product({k: e for k, e in net.items() if e > 0})
    den = _psi_product({k: -e for k, e in net.items() if e < 0})
    return num, den


def zeta_to_json(z: ZetaFunction) -> dict:
    num, den = expand_zeta(z)
    return {
        "factors": [
            {
                "d": f.d,
                "e": f.e,
                "I": sorted(f.I),
                "P": list(f.P),
                "chi": f.chi,
            }
            for f in z.factors
        ],
        "product": z.product_text(),
        "numerator": num,
        "denominator": den,
    }
