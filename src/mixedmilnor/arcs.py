"""Limit tangents along monomial arcs and numeric fibration probes.

An arc is a curve z_j(t) = b_j t^{p_j} + (higher terms) with exact complex
coefficients and a real positive parameter t.  Substituting an arc into the
antiholomorphic gradients of the real and imaginary parts of f gives two
covector power series v_g(t), v_h(t); their normalized limits as t -> 0 span
the limit of the tangent planes of the fibers of f along the arc.  When the
leading coefficients of the two series are real-dependent the naive limits
collapse, and the limit plane is recovered by iterated elimination
v_h <- v_h - lambda t^(r'-r) v_g, which preserves the real span at every t
and terminates with a real-independent leading pair.  Substitution raises
each jet to each of its variable's exponents once, within poly's power caps.

The numeric probes (fiber/sphere transversality, argument coverage of small
neighborhoods of points of the zero set) are sampling estimates, separate
from the exact series algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .degeneracy import _aligned_residual_float, _unit_rows, real_span_residual
from .errors import (
    AllValuesZeroError,
    ArcInsideVarietyError,
    BadArcError,
    BadRequestError,
    DimensionMismatchError,
    NonFiniteValuesError,
    PolySyntaxError,
    SingularFiberError,
    TruncationExhaustedError,
    TruncationOverflowError,
    require_positive,
)
from .newton import coordinate_subset
from .poly import (
    GR_HALF,
    GR_NEG_HALF_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    MixedPoly,
    _Cursor,
    _check_power,
    _merge_terms,
    _power,
    format_gaussian,
    join_signed,
)

__all__ = [
    "Arc",
    "parse_arc",
    "expand_arc",
    "limit_tangent",
    "af_test_arc",
    "LimitTangentResult",
    "AfArcVerdict",
    "transversality_residual",
    "transversality_scan",
    "boundary_openness_probe",
]

# limit_tangent reports a reduction longer than this as non-terminating
MAX_REDUCTION_STEPS = 10_000
# transversality_scan draws at most MAX_DRAWS sphere points in blocks from FIRST_BLOCK
# doubling to MAX_BLOCK, scored and projected in batches whose arrays SCORE_ENTRIES bounds
MAX_DRAWS = 40_000_000
FIRST_BLOCK, MAX_BLOCK, SCORE_ENTRIES = 4_096, 200_000, 2**20
# a short first block is followed by projection rounds (transversality_scan) of at least
# PROJECTION_ROUND draws, PROJECTION_STEPS Gauss-Newton steps each; a projected draw
# costs about PROJECTION_COST rejection draws
PROJECTION_ROUND, PROJECTION_STEPS, PROJECTION_COST, PROJECTION_EVIDENCE = 64, 6, 100, 512
# boundary_openness_probe sorts arg f into this many equal sectors
OPENNESS_BINS = 256


# ---------------------------------------------------------------------------
# Exact power series in t (dict exponent -> GaussianRational)
# ---------------------------------------------------------------------------


def _s_add(a, b):
    return _merge_terms(chain(a.items(), b.items()))


def _s_scale(a, c, shift=0):
    if not c:
        return {}
    return {k + shift: x * c for k, x in a.items()}


def _s_mul(a, b, trunc=None):
    return _merge_terms(
        (k1 + k2, c1 * c2)
        for k1, c1 in a.items()
        for k2, c2 in b.items()
        if trunc is None or k1 + k2 <= trunc
    )


def _s_pow(a, e, trunc=None):
    return _power(a, e, {0: GR_ONE}, lambda x, y: _s_mul(x, y, trunc))


def _s_conj(a):
    return {k: c.conjugate() for k, c in a.items()}


def series_to_text(s) -> str:
    if not s:
        return "0"
    parts = []
    for k in sorted(s):
        c = str(s[k])
        if k == 0:
            parts.append(c)
        else:
            tk = "t" if k == 1 else f"t^{k}"
            parts.append({"1": tk, "-1": f"-{tk}"}.get(c, f"{c}*{tk}"))
    return join_signed(parts)


# ---------------------------------------------------------------------------
# Arcs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    """Monomial curve jet z_j(t) = sum of coeff * t^exponent per variable.

    jets is a tuple (one entry per variable) of tuples of (exponent, coeff)
    pairs with strictly increasing nonnegative integer exponents and exact
    nonzero coefficients; an empty tuple is the zero coordinate.  Rational
    exponents are normalized away at construction by reparameterizing
    t -> t^(1/q) with q the common denominator.

    truncation_order of None means the jets are exact polynomial curves;
    otherwise series coefficients beyond that order are treated as unknown.
    """

    jets: tuple
    truncation_order: int | None = None

    def __post_init__(self):
        jets = []
        denom = 1
        for jet in self.jets:
            for exp, _ in jet:
                q = Fraction(exp).denominator
                denom = denom * q // math.gcd(denom, q)
        for jet in self.jets:
            scaled = []
            last = -1
            for exp, coeff in jet:
                e = Fraction(exp) * denom
                if e.denominator != 1 or e < 0:
                    raise ValueError("arc exponents must be nonnegative rationals")
                e = int(e)
                if e <= last:
                    raise ValueError("arc exponents must be strictly increasing")
                last = e
                if not isinstance(coeff, GaussianRational):
                    coeff = GaussianRational.of(coeff)
                if not coeff:
                    raise ValueError("arc coefficients must be nonzero")
                scaled.append((e, coeff))
            jets.append(tuple(scaled))
        object.__setattr__(self, "jets", tuple(jets))
        if self.truncation_order is not None and denom != 1:
            object.__setattr__(self, "truncation_order", self.truncation_order * denom)

    @property
    def n(self) -> int:
        return len(self.jets)

    def is_zero(self) -> bool:
        return all(not jet for jet in self.jets)

    def leading_exponents(self):
        """p_j per variable; None for identically zero coordinates."""
        return tuple(jet[0][0] if jet else None for jet in self.jets)

    def coordinate_series(self, j: int):
        """Series of z_j(t), 1-based j."""
        return {e: c for e, c in self.jets[j - 1]}

    def evaluate(self, t: float):
        """Float point z(t) for a real positive parameter value."""
        return np.array(
            [
                sum(complex(c) * t**e for e, c in jet) if jet else 0.0
                for jet in self.jets
            ],
            dtype=np.complex128,
        )

    def to_text(self) -> str:
        chunks = []
        for idx, jet in enumerate(self.jets):
            rhs = series_to_text({e: c for e, c in jet})
            chunks.append(f"z{idx + 1} = {rhs}")
        return "; ".join(chunks)


class _ArcParser(_Cursor):
    """arc  := (z '=' jet ';'?)*
    jet  := [sign] term (sign term)*
    term := literal '*'? ('t' ('^' exp)?)? | 't' ('^' exp)?
    exp  := nat ('/' nat)? | '(' nat '/' nat ')'
    """

    def parse(self):
        assignments = {}
        while self.peek()[0] != "end":
            var = self.expect("z")[1]
            self.expect("=")
            assignments[var] = _merge_terms(
                (exp, coeff if sign > 0 else -coeff)
                for sign, (exp, coeff) in self.signed(self.jet_term)
            )
            self.accept(";")
        return assignments

    def jet_term(self):
        coeff = GR_ONE
        if self.peek()[0] in ("nat", "dec", "imag", "("):
            coeff = self.literal()
            self.accept("*")
        elif self.peek()[0] != "t":
            self.error(self.peek(), "a coefficient or 't'")
        if not self.accept("t"):
            return Fraction(0), coeff
        if not self.accept("^"):
            return Fraction(1), coeff
        if not self.accept("("):
            return self.ratio(("nat",)), coeff
        exp = Fraction(self.expect("nat")[1])
        self.expect("/")
        exp /= self.denominator(("nat",))
        self.expect(")")
        return exp, coeff


def parse_arc(text: str, n: int | None = None, truncation_order=None) -> Arc:
    """Parse arc text like "z1 = (1+0i); z2 = t; z3 = (2+0i)*t^3".

    Unassigned variables up to n are zero coordinates; constants are jets
    with exponent 0.  Exponents may be rationals (t^(3/2)); they are
    normalized by a common reparameterization.
    """
    assignments = _ArcParser(text).parse()
    if not assignments and n is None:
        raise PolySyntaxError(0, "at least one assignment", text)
    size = max(max(assignments, default=0), n or 0)
    jets = []
    for j in range(1, size + 1):
        series = assignments.get(j, {})
        jets.append(tuple(sorted(series.items())))
    return Arc(tuple(jets), truncation_order=truncation_order)


# ---------------------------------------------------------------------------
# Exact expansion along an arc
# ---------------------------------------------------------------------------


def _substitute(poly: MixedPoly, arc: Arc, trunc=None):
    """Exact series of poly(z(t), conj z(t)); t is real so conjugating a jet
    conjugates its coefficients only.  Every distinct jet power is checked
    against the power caps before any is computed, and computed once."""
    jets = [arc.coordinate_series(j) for j in range(1, arc.n + 1)]
    used = {(j, e) for m in poly.terms for j, e in chain(enumerate(m.nu), enumerate(m.mu)) if e}
    for j, e in used:
        _check_power(jets[j].values(), e)
    powers = {(j, e): _s_pow(jets[j], e, trunc) for j, e in used}
    pairs = []
    for mono, coeff in poly.terms.items():
        term = {0: coeff}
        for j in range(poly.n):
            a, b = mono.nu[j], mono.mu[j]
            # a zero coordinate's empty jet makes the term empty
            if a:
                term = _s_mul(term, powers[j, a], trunc)
            if b:
                term = _s_mul(term, _s_conj(powers[j, b]), trunc)
            if not term:
                break
        pairs.extend(term.items())
    return _merge_terms(pairs)


def expand_arc(f: MixedPoly, arc: Arc, order: int | None = None):
    """Series of f along the arc, exact up to the requested order.

    Returns a dict {exponent: GaussianRational}.  With order=None and an
    exact (untruncated) arc the full polynomial series is returned.
    """
    if arc.n != f.n:
        raise DimensionMismatchError("arc and polynomial variable counts differ")
    trunc = arc.truncation_order
    if order is not None and trunc is not None and order > trunc:
        raise TruncationOverflowError(
            f"requested order {order} exceeds arc truncation {trunc}"
        )
    cap = order if trunc is None else min(x for x in (order, trunc) if x is not None)
    series = _substitute(f, arc, cap)
    if cap is not None:
        series = {k: c for k, c in series.items() if k <= cap}
    return series


# ---------------------------------------------------------------------------
# Limit tangent computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitTangentResult:
    """Normalized limit covector pair along an arc.

    The limit tangent plane is the set of v with Re<v, covector_g> = 0 and
    Re<v, covector_h> = 0.  leading_g/leading_h are the exact leading
    coefficient vectors before float normalization; reduction_steps records
    each elimination (lambda, exponent shift), and swapped whether the two
    series were interchanged to normalize their leading data.
    """

    covector_g: np.ndarray
    covector_h: np.ndarray
    leading_g: tuple
    leading_h: tuple
    orders: tuple
    reduction_steps: tuple
    swapped: bool
    independent: bool


@dataclass(frozen=True)
class AfArcVerdict:
    """Whether the limit tangent along one arc contains C^I.

    contains_CI is None when the covector pair collapsed (the Grassmann
    limit is not resolved by this arc), in which case the test is
    inconclusive rather than failed.
    """

    contains_CI: bool | None
    I: frozenset
    limit: LimitTangentResult


def _vector_order_index(vec):
    """(order, leading 1-based index) of a vector of series; None if zero."""
    return min(((min(s), idx + 1) for idx, s in enumerate(vec) if s), default=None)


def _leading_vector(vec, order):
    return tuple(s.get(order, GR_ZERO) for s in vec)


def _real_ratio(b, a):
    """b/a as an exact real number, or None when not real (or a == 0)."""
    if not a:
        return None
    ratio = b / a
    if ratio.im != 0:
        return None
    return ratio.re


def _real_dependent(V, W):
    """Exact test for real-linear dependence of two complex vectors."""
    if all(not c for c in V) or all(not c for c in W):
        return True
    lam = None
    for a, b in zip(V, W):
        if not a:
            if b:
                return False
            continue
        r = _real_ratio(b, a)
        if r is None:
            return False
        if lam is None:
            lam = r
        elif lam != r:
            return False
    return True


def _normalize_covector(V):
    """Float unit vector from an exact leading vector, sign-canonical."""
    v = np.array([complex(c) for c in V], dtype=np.complex128)
    norm = np.linalg.norm(v)
    if norm == 0:
        return v
    v = v / norm
    for x in v:
        if abs(x) > 1e-12:
            if (x.real, x.imag) < (0.0, 0.0) or (x.real == 0.0 and x.imag < 0.0):
                v = -v
            break
    return v


def _limit_result(Vg, Vh, orders, steps=(), swapped=False):
    """The result for the exact leading vectors Vg, Vh of the final pair."""
    return LimitTangentResult(
        covector_g=_normalize_covector(Vg),
        covector_h=_normalize_covector(Vh),
        leading_g=Vg,
        leading_h=Vh,
        orders=orders,
        reduction_steps=tuple(steps),
        swapped=swapped,
        independent=not _real_dependent(Vg, Vh),
    )


def _gradient_series(f: MixedPoly, arc: Arc, trunc):
    """Series of dzbar_j g and dzbar_j h along the arc, for g = Re f and
    h = Im f, from f's own derivatives: (S(dzbar f) + conj S(dz f))/2 and
    (S(dzbar f) - conj S(dz f)) * (-i/2), S the substitution."""
    vg, vh = [], []
    for j in range(1, f.n + 1):
        dzbar = _substitute(f.wirtinger(j, "zbar"), arc, trunc)
        conj_dz = _s_conj(_substitute(f.wirtinger(j, "z"), arc, trunc))
        vg.append(_s_scale(_s_add(dzbar, conj_dz), GR_HALF))
        vh.append(_s_scale(_s_add(dzbar, _s_scale(conj_dz, -GR_ONE)), GR_NEG_HALF_I))
    return vg, vh


def limit_tangent(f: MixedPoly, arc: Arc) -> LimitTangentResult:
    """Limit of the fiber tangent planes of f along the arc as t -> 0.

    Expands both gradient covector series exactly, orients them so the
    (leading index, order) data of the first precedes the second, and
    eliminates real-dependent leading coefficients until the pair is
    real-independent.  The real span of the pair is preserved at every
    step, so the limit plane is exact.
    """
    if arc.is_zero():
        raise BadArcError("arc is identically zero")
    if arc.n != f.n:
        raise DimensionMismatchError("arc and polynomial variable counts differ")
    trunc = arc.truncation_order
    fseries = _substitute(f, arc, trunc)
    if not fseries:
        raise ArcInsideVarietyError("f vanishes identically along the arc")
    vg, vh = _gradient_series(f, arc, trunc)

    swapped = False
    lead_g = _vector_order_index(vg)
    lead_h = _vector_order_index(vh)
    if lead_g is None or lead_h is None:
        # one series vanishes identically (its leading vector is zero at
        # order 0); the pair collapses
        r, rp = (lead_g[0] if lead_g else 0), (lead_h[0] if lead_h else 0)
        return _limit_result(_leading_vector(vg, r), _leading_vector(vh, rp), (r, rp))
    if (lead_h[1], lead_h[0]) < (lead_g[1], lead_g[0]):
        # interchange, as if analyzing i*f: (g, h) -> (-h, g)
        vg, vh = [_s_scale(s, -GR_ONE) for s in vh], vg
        swapped = True

    steps = []
    while True:
        lead_g = _vector_order_index(vg)
        lead_h = _vector_order_index(vh)
        if lead_h is None:
            if trunc is not None:
                raise TruncationExhaustedError(
                    "second covector vanished to truncation order"
                )
            # exact collapse: spans are real-dependent along the whole arc
            r = lead_g[0]
            return _limit_result(_leading_vector(vg, r), (GR_ZERO,) * f.n, (r, r), steps, swapped)
        r, s = lead_g
        rp, sp = lead_h
        if trunc is not None and rp > trunc:
            raise TruncationExhaustedError("reduction ran past the truncation order")
        if s != sp:
            break
        a = vg[s - 1].get(r, GR_ZERO)
        b = vh[s - 1].get(rp, GR_ZERO)
        lam = _real_ratio(b, a)
        if lam is None:
            break
        shift = rp - r
        coeff = GaussianRational(lam, Fraction(0))
        steps.append((lam, shift))
        vh = [_s_add(vh[i], _s_scale(vg[i], -coeff, shift)) for i in range(f.n)]
        if len(steps) > MAX_REDUCTION_STEPS:
            raise TruncationExhaustedError("reduction did not terminate")
    return _limit_result(_leading_vector(vg, r), _leading_vector(vh, rp), (r, rp), steps, swapped)


def af_test_arc(f: MixedPoly, arc: Arc, I) -> AfArcVerdict:
    """Whether the limit tangent along the arc contains the subspace C^I.

    The arc must limit into the open stratum of C^I: coordinates in I are
    nonzero constants, the others vanish at t = 0.  Containment is decided
    exactly: C^I lies in the limit plane iff both exact leading covectors
    vanish on every I coordinate.
    """
    I = coordinate_subset(I, f.n)
    exps = arc.leading_exponents()
    for i in range(1, arc.n + 1):
        jet = arc.jets[i - 1]
        if i in I:
            if len(jet) != 1 or jet[0][0] != 0:
                raise BadArcError(f"coordinate z{i} must be a nonzero constant")
        else:
            if jet and exps[i - 1] == 0:
                raise BadArcError(f"coordinate z{i} must vanish at t = 0")
    limit = limit_tangent(f, arc)
    if not limit.independent:
        return AfArcVerdict(contains_CI=None, I=I, limit=limit)
    contains = all(
        not limit.leading_g[i - 1] and not limit.leading_h[i - 1] for i in sorted(I)
    )
    return AfArcVerdict(contains_CI=contains, I=I, limit=limit)


# ---------------------------------------------------------------------------
# Transversality of nearby fibers
# ---------------------------------------------------------------------------

REGULARITY_THRESHOLD = 1e-12


def _screened_values(f: MixedPoly, pts, region):
    """Values of f at the (N, n) points, their moduli and the largest finite
    modulus.  A block with no finite nonzero value shows only that floats
    underflowed (AllValuesZeroError: every value is exactly zero) or
    overflowed (NonFiniteValuesError), so it is an error in both probes."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f.evaluate_many(pts)
    mags = np.abs(vals)
    scale = float(np.max(mags, where=np.isfinite(mags), initial=0.0))
    if scale == 0.0:
        if np.isfinite(mags).all():
            raise AllValuesZeroError(f"f vanished on every sample of the {region}")
        raise NonFiniteValuesError(f"f has no finite nonzero value on the {region} samples")
    return vals, mags, scale


def _transversality_residuals(f: MixedPoly, pts):
    """transversality_residual at each row of the (N, n) points, and nan at
    the rows that are numerically mixed-critical (or have no finite gradients)."""
    grads = f.gradients(pts)
    regular = _aligned_residual_float(np.conj(grads.d_z), grads.d_zbar) > REGULARITY_THRESHOLD
    rows, scale = _unit_rows(pts)  # at unit scale, so no square under- or overflows
    norms = np.linalg.norm(rows.view(np.complex128), axis=-1) / scale[..., 0]
    if np.any(regular & (norms == 0)):
        raise ValueError("transversality residual is undefined at the origin")
    span = real_span_residual(pts, *grads.real_imag_zbar())
    return np.divide(span, norms, out=np.full_like(span, np.nan), where=regular)


def transversality_residual(f: MixedPoly, p) -> float:
    """Normalized distance of p from the tangent span of its fiber.

    Zero exactly when the sphere through p is tangent to the fiber of f at
    p (the radius vector lies in span_R of the two gradient covectors).
    Raises SingularFiberError at points that are numerically mixed-critical.
    """
    res = _transversality_residuals(f, np.asarray(p, dtype=np.complex128)[None])[0]
    if np.isnan(res):
        raise SingularFiberError("point is numerically a mixed critical point")
    return float(res)


@dataclass(frozen=True)
class TransversalityReport:
    samples_drawn: int
    accepted: int
    skipped_singular: int
    min_residual: float | None  # None when no point was accepted
    mean_residual: float | None


def _sphere(rng, size, n, radius):
    """size uniform points on the radius sphere in C^n."""
    block = rng.normal(size=(size, 2 * n))
    pts = block[:, :n] + 1j * block[:, n:]
    with np.errstate(over="ignore"):  # non-finite points are screened with their values
        return pts * (radius / np.linalg.norm(pts, axis=1))[:, None]


def _project(f: MixedPoly, u, radius, eta):
    """Points of the radius sphere near f = eta: PROJECTION_STEPS minimum-norm Gauss-Newton
    steps from the unit-sphere points u on (Re, Im f(radius u) - eta, |u|^2 - 1), then
    renormalized.  Unit rows (each Jacobian row scaled with its residual) keep every
    square in float range; a point with dependent nonzero rows or a non-finite step is dropped."""
    x = np.concatenate([u.real, u.imag], axis=1)
    with np.errstate(all="ignore"):
        for _ in range(PROJECTION_STEPS):
            z = radius * (x[:, : f.n] + 1j * x[:, f.n :])
            grads = f.gradients(z)
            jac = np.concatenate([grads.d_z + grads.d_zbar, 1j * (grads.d_z - grads.d_zbar)], axis=1)
            res = (f.evaluate_many(z) - eta) / radius
            aug = np.concatenate([np.stack([jac.real, jac.imag, 2 * x]),
                                  np.stack([res.real, res.imag, (x * x).sum(axis=1) - 1])[..., None]], axis=2)
            # a row that is exactly 0 (Im f of a real f) cannot be met: left out, as by pinv
            scale = np.max(np.abs(aug[..., :-1]), axis=2, keepdims=True)
            aug /= np.where(scale > 0, scale, np.inf)
            aug /= np.maximum(np.linalg.norm(aug[..., :-1], axis=2, keepdims=True), 1)
            rows = aug[..., :-1]
            a, b, c = ((rows[i] * rows[j]).sum(axis=1) for i, j in ((0, 1), (0, 2), (1, 2)))
            # adjugate and determinant of the Gram matrix [[1, a, b], [a, 1, c], [b, c, 1]]
            adj = np.array([[1 - c * c, b * c - a, a * c - b], [b * c - a, 1 - b * b, a * b - c],
                            [a * c - b, a * b - c, 1 - a * a]])
            det = 1 + 2 * a * b * c - a * a - b * b - c * c
            step = np.einsum("in,ink->nk", np.einsum("ijn,jn->in", adj, aug[..., -1]) / det, rows)
            ok = (det > REGULARITY_THRESHOLD) & np.isfinite(step).all(axis=1)
            x, eta = x[ok] - step[ok], eta[ok]
    u = x[:, : f.n] + 1j * x[:, f.n :]
    return u * (radius / np.linalg.norm(u, axis=1))[:, None]


def transversality_scan(
    f: MixedPoly,
    radius: float = 1.0,
    delta: float = 1e-3,
    samples: int = 10_000,
    seed: int = 0,
) -> TransversalityReport:
    """Minimum fiber/sphere transversality residual over near-zero fibers.

    Draws uniform points on the radius sphere, keeps those with |f| <= delta
    (rejection sampling), and reports residual statistics over the accepted
    points, skipping numerically singular ones.  A block of draws on which f
    has no finite nonzero value is an error (see _screened_values).

    When the first block of FIRST_BLOCK draws falls short, later draws are projected onto
    the band (_project) in rounds sized from their yield, until that yield per draw is below
    PROJECTION_COST times the first block's rate or a round loses every point; rejection blocks
    then run to the end.  After an empty first block, PROJECTION_EVIDENCE misses stop the scan.
    """
    require_positive(radius=radius, delta=delta, samples=samples)
    rng = np.random.default_rng(seed)
    accepted = drawn = skipped = projected = survived = hits = 0
    first_rate, projecting = None, False
    min_res = math.inf
    total = 0.0
    batch = max(1, SCORE_ENTRIES // (4 * f.n**2 * max(1, len(f.terms))))
    while accepted < samples and drawn < MAX_DRAWS:
        if not projecting:
            size = min(drawn + FIRST_BLOCK, MAX_BLOCK, MAX_DRAWS - drawn)
            pts = _sphere(rng, size, f.n, radius)
            _, mags, _ = _screened_values(f, pts, "sphere")
        else:
            # 5/4 of the draws the yield so far predicts (all of them land, until one does)
            need = math.ceil(1.25 * (samples - accepted) / (hits / projected if hits else 1.0))
            size = min(max(PROJECTION_ROUND, need), MAX_BLOCK, MAX_DRAWS - drawn)
            eta = delta * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))
            u = _sphere(rng, size, f.n, 1.0)
            # projected in scoring batches, which bound the arrays of each step
            pts = np.concatenate([_project(f, u[i : i + batch], radius, eta[i : i + batch])
                                  for i in range(0, size, batch)])
            # f == 0 is a hit here, not a sign of underflow, but only a point that
            # stays in the band with each term off by REGULARITY_THRESHOLD of its size
            nu, mu, coeff = f._arrays()
            with np.errstate(over="ignore", invalid="ignore"):
                terms = (np.abs(coeff) * np.prod(np.abs(pts)[:, None] ** (nu + mu), axis=2)).sum(axis=1)
                mags = np.abs(f.evaluate_many(pts)) + REGULARITY_THRESHOLD * terms
        drawn += size
        before = accepted
        keep = pts[mags <= delta]
        # score the kept points in order, never more than are still needed,
        # so that no point after the samples-th regular one is scored
        while accepted < samples and len(keep):
            rows, keep = np.split(keep, [min(samples - accepted, batch)])
            for res in _transversality_residuals(f, rows).tolist():
                if math.isnan(res):
                    skipped += 1
                    continue
                accepted += 1
                total += res
                min_res = min(min_res, res)
        if first_rate is None:
            first_rate, projecting = accepted / size, True
        elif projecting:
            projected, survived, hits = projected + size, survived + len(pts), hits + accepted - before
            if hits == 0 == first_rate and survived >= PROJECTION_EVIDENCE:
                break
            # a round whose points were all dropped says nothing of the band
            projecting = len(pts) > 0 and hits >= PROJECTION_COST * first_rate * projected
    return TransversalityReport(
        samples_drawn=drawn,
        accepted=accepted,
        skipped_singular=skipped,
        min_residual=float(min_res) if accepted else None,
        mean_residual=float(total / accepted) if accepted else None,
    )


# ---------------------------------------------------------------------------
# Boundary openness probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpennessReport:
    arg_coverage: float
    sector_halfwidth: float | None
    nonzero_samples: int


def boundary_openness_probe(
    f: MixedPoly,
    p,
    epsilon: float,
    samples: int = 20_000,
    seed: int = 0,
) -> OpennessReport:
    """Fraction of the argument circle covered by f over an epsilon-polydisc.

    Samples the polydisc around p (a point of the zero set), collects
    arg f over the nonzero values into OPENNESS_BINS bins of equal width, and
    reports the covered fraction.  When the coverage is not full, the
    half-width of the smallest sector containing all observed arguments is
    estimated from the raw values (largest circular gap).  The samples are
    drawn in one block, so more than MAX_BLOCK is a BadRequestError.
    """
    require_positive(epsilon=epsilon, samples=samples)
    if samples > MAX_BLOCK:
        raise BadRequestError(f"samples must be at most {MAX_BLOCK}, got {samples}")
    p = np.asarray(p, dtype=np.complex128)
    if p.shape != (f.n,):
        raise DimensionMismatchError(f"point has {p.size} coordinates, f has {f.n} variables")
    rng = np.random.default_rng(seed)
    radii = epsilon * np.sqrt(rng.uniform(size=(samples, f.n)))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(samples, f.n))
    pts = p[None, :] + radii * np.exp(1j * phases)
    vals, mags, scale = _screened_values(f, pts, "polydisc")
    # scale is the largest finite modulus, so mags <= scale drops inf and nan
    nonzero = vals[(mags > 1e-14 * scale) & (mags <= scale)]
    args = np.mod(np.angle(nonzero), 2.0 * np.pi)
    bins = OPENNESS_BINS
    hist = np.bincount((args / (2.0 * np.pi / bins)).astype(int) % bins, minlength=bins)
    coverage = float(np.count_nonzero(hist)) / bins
    halfwidth = None
    if coverage < 1.0:
        ordered = np.sort(args)
        gaps = np.diff(ordered)
        wrap = ordered[0] + 2.0 * np.pi - ordered[-1]
        largest = max(float(np.max(gaps)) if gaps.size else 0.0, float(wrap))
        halfwidth = (2.0 * np.pi - largest) / 2.0
    return OpennessReport(
        arg_coverage=coverage,
        sector_halfwidth=halfwidth,
        nonzero_samples=int(nonzero.size),
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def limit_to_json(result: LimitTangentResult) -> dict:
    return {
        "covector_g": [[float(x.real), float(x.imag)] for x in result.covector_g],
        "covector_h": [[float(x.real), float(x.imag)] for x in result.covector_h],
        "orders": list(result.orders),
        "reduction_steps": [
            {"lambda": format_gaussian(GaussianRational.of(lam)), "shift": shift}
            for lam, shift in result.reduction_steps
        ],
        "swapped": result.swapped,
        "independent": result.independent,
    }


def af_verdict_to_json(verdict: AfArcVerdict) -> dict:
    return {
        "I": sorted(verdict.I),
        "contains_CI": verdict.contains_CI,
        "limit": limit_to_json(verdict.limit),
    }
