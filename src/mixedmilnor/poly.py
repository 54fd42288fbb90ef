"""Exact mixed polynomials and their Wirtinger calculus.

A mixed polynomial is a finite sum  sum_{nu,mu} c_{nu mu} z^nu zbar^mu  in the
variables z_1..z_n and their complex conjugates, with Gaussian-rational
coefficients.  Viewed as a map C^n -> C it is real-analytic but usually not
holomorphic; the formal partials treating z_j and zbar_j as independent
variables (Wirtinger derivatives) are the basic calculus here.

All combinatorial decisions downstream (vanishing of restrictions, face data,
sign-definiteness of tameness witnesses) are exact, which is why coefficients
are Gaussian rationals and never floats, and why a power that input sets is
checked against two caps before one square-and-multiply routine computes it.
Floats enter only through :meth:`MixedPoly.evaluate`,
:meth:`MixedPoly.evaluate_many` and :meth:`MixedPoly.gradients`: one pass over
a cached plan of the terms gives the values and, when asked, both Wirtinger
gradients, and builds no derivative or real/imaginary-part polynomial.
These methods import numpy in their bodies, so exact work never loads it.

Values are immutable after construction and every operation is a pure
function, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, mul

from .errors import BadRequestError, NonFiniteValuesError, OddModulusExponentError, PolySyntaxError

__all__ = [
    "GaussianRational",
    "MixedMonomial",
    "MixedPoly",
    "GradientPair",
    "parse_poly",
    "parse_coefficient",
]


@dataclass(frozen=True)
class GaussianRational:
    """Gaussian rational a + bi with exact Fraction components.

    ``Fraction`` keeps numerators and denominators in lowest terms with a
    positive denominator, so structural equality of the two components is
    equality of canonical forms.  +, - and * work on integers, each operand
    written (a + bi)/d, and reduce each result part once.
    """

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def _integers(self):
        """(a, b, d) with self = (a + bi)/d in integers."""
        re, im = self.re, self.im
        return re.numerator * im.denominator, im.numerator * re.denominator, re.denominator * im.denominator

    def __add__(self, other):
        (a, b, d), (c, e, f) = self._integers(), other._integers()
        return GaussianRational(Fraction(a * f + c * d, d * f), Fraction(b * f + e * d, d * f))

    def __sub__(self, other):
        (a, b, d), (c, e, f) = self._integers(), other._integers()
        return GaussianRational(Fraction(a * f - c * d, d * f), Fraction(b * f - e * d, d * f))

    def __mul__(self, other):
        (a, b, d), (c, e, f) = self._integers(), other._integers()
        return GaussianRational(Fraction(a * c - b * e, d * f), Fraction(a * e + b * c, d * f))

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise NonFiniteValuesError("a coefficient is beyond float range") from None

    def __str__(self):
        return format_gaussian(self)


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))
GR_HALF = GaussianRational(Fraction(1, 2), Fraction(0))
# -i/2, the factor turning f - conj(f) into the imaginary part
GR_NEG_HALF_I = GaussianRational(Fraction(0), Fraction(-1, 2))


def format_gaussian(c: GaussianRational) -> str:
    """Render a coefficient in the grammar the parser accepts; BadRequestError
    for a number longer than str() writes (sys.get_int_max_str_digits())."""
    try:
        real, imag = str(c.re), str(c.im)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise BadRequestError(f"cannot write a coefficient of more than {limit} digits") from None
    if c.im == 0:
        return real
    imag = {"1": "i", "-1": "-i"}.get(imag, f"{imag}i")
    if c.re == 0:
        return imag
    sign = "+" if c.im > 0 else ""
    return f"({real}{sign}{imag})"


def join_signed(parts) -> str:
    """Join term texts with ' + ', or ' - ' in place of a term's leading '-'."""
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


@dataclass(frozen=True)
class MixedMonomial:
    """Exponent data of one term: z^nu zbar^mu.

    ``nu`` and ``mu`` have equal length n >= 1; the support point of the
    monomial is the componentwise sum nu + mu.
    """

    nu: tuple
    mu: tuple

    def __post_init__(self):
        if len(self.nu) != len(self.mu) or len(self.nu) < 1:
            raise ValueError("nu and mu must have equal positive length")

    @property
    def n(self) -> int:
        return len(self.nu)

    def support_point(self) -> tuple:
        return tuple(a + b for a, b in zip(self.nu, self.mu))

    def conjugate(self) -> "MixedMonomial":
        return MixedMonomial(self.mu, self.nu)

    def total_degree(self) -> int:
        return sum(self.nu) + sum(self.mu)


def _merge_terms(pairs) -> dict:
    """The one term merge of polynomials, series and zeta exponents: sums the
    coefficients of equal keys over (key, coefficient) pairs and drops zero
    sums.  Keys keep first-seen order, a key that cancels and comes back
    counting as new: the order repeated + gives, which _arrays reads."""
    out = {}
    for key, coeff in pairs:
        acc = out[key] + coeff if key in out else coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def _power(base, e, one, mul=mul):
    """one * base**e by square-and-multiply, for any associative product mul."""
    out = one
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


# a power that input sets may have at most MAX_POWER_TERMS terms and grow its
# coefficients by at most MAX_POWER_BITS bits
MAX_POWER_TERMS = 256
MAX_POWER_BITS = 1_000_000


def _check_power(coeffs, e):
    """BadRequestError, before anything is multiplied, for a power e of a base
    with these coefficients that could pass a cap.  A base of T terms has at
    most comb(e + T - 1, T - 1) terms in its power; the growth is estimated
    as e * (longest numerator or denominator in bits - 1 + ceil(log2 P)), P
    the count of nonzero real and imaginary parts, so +-1 and +-i never count."""
    if e < 2 or not coeffs:
        return
    terms = len(coeffs)
    if terms > 1 and (e >= MAX_POWER_TERMS or math.comb(e + terms - 1, e) > MAX_POWER_TERMS):
        raise BadRequestError(f"a power could have more than {MAX_POWER_TERMS} terms")
    parts = [x for c in coeffs for x in (c.re, c.im) if x]
    longest = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in parts)
    if e * (longest - 1 + (len(parts) - 1).bit_length()) > MAX_POWER_BITS:
        raise BadRequestError(f"a power's coefficients could grow by more than {MAX_POWER_BITS} bits")


def _checked_monomial(n, mono) -> MixedMonomial:
    if not isinstance(mono, MixedMonomial):
        mono = MixedMonomial(tuple(mono[0]), tuple(mono[1]))
    if mono.n != n:
        raise ValueError("monomial arity does not match n")
    return mono


class MixedPoly:
    """Immutable mixed polynomial with exact coefficients.

    Built from a dict or an iterable of (monomial, coefficient) pairs, a
    monomial being a MixedMonomial or a (nu, mu) pair of n-tuples.  The term
    map never stores a zero coefficient and duplicate keys are summed on
    construction, so two polynomials are equal exactly when their term maps
    are equal.
    """

    __slots__ = ("n", "terms", "_eval_cache", "_boundary")

    def __init__(self, n, terms=()):
        if n < 1:
            raise ValueError("need at least one variable")
        pairs = terms.items() if isinstance(terms, dict) else terms
        merged = _merge_terms((_checked_monomial(n, m), c) for m, c in pairs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", merged)
        object.__setattr__(self, "_eval_cache", None)
        # Newton boundary, filled in on first use by newton.newton_boundary
        object.__setattr__(self, "_boundary", None)

    def __setattr__(self, name, value):
        raise AttributeError("MixedPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "MixedPoly":
        return MixedPoly(n, {})

    @staticmethod
    def constant(n: int, c) -> "MixedPoly":
        c = c if isinstance(c, GaussianRational) else GaussianRational.of(c)
        zero = (0,) * n
        return MixedPoly(n, {MixedMonomial(zero, zero): c})

    @staticmethod
    def monomial(n: int, nu, mu, coeff=GR_ONE) -> "MixedPoly":
        """Single term c * z^nu zbar^mu; nu/mu are dicts {1-based j: exp} or tuples."""
        if isinstance(nu, dict):
            nu = tuple(nu.get(j + 1, 0) for j in range(n))
        if isinstance(mu, dict):
            mu = tuple(mu.get(j + 1, 0) for j in range(n))
        coeff = coeff if isinstance(coeff, GaussianRational) else GaussianRational.of(coeff)
        return MixedPoly(n, {MixedMonomial(tuple(nu), tuple(mu)): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return MixedPoly(self.n, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        negated = ((m, -c) for m, c in self._coerce(other).terms.items())
        return MixedPoly(self.n, chain(self.terms.items(), negated))

    def __neg__(self):
        return MixedPoly(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = other if isinstance(other, GaussianRational) else GaussianRational.of(other)
            if not c:
                return MixedPoly.zero(self.n)
            return MixedPoly(self.n, {m: k * c for m, k in self.terms.items()})
        other = self._coerce(other)
        return MixedPoly(self.n, (
            (MixedMonomial(tuple(map(add, m1.nu, m2.nu)), tuple(map(add, m1.mu, m2.mu))), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        ))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not representable")
        return _power(self, e, MixedPoly.constant(self.n, 1))

    def _coerce(self, other) -> "MixedPoly":
        if isinstance(other, MixedPoly):
            if other.n != self.n:
                raise ValueError("variable counts differ")
            return other
        return MixedPoly.constant(self.n, other)

    def __eq__(self, other):
        if not isinstance(other, MixedPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ---------------------------------------------------------

    def support(self) -> frozenset:
        """Set of support points nu + mu over all terms."""
        return frozenset(m.support_point() for m in self.terms)

    def is_real_valued(self) -> bool:
        return self.conjugate() == self

    def is_holomorphic(self) -> bool:
        return all(all(e == 0 for e in m.mu) for m in self.terms)

    def total_degree(self) -> int:
        return max((m.total_degree() for m in self.terms), default=0)

    def conjugate(self) -> "MixedPoly":
        """Complex conjugate: swaps nu <-> mu and conjugates coefficients."""
        return MixedPoly(
            self.n, {m.conjugate(): c.conjugate() for m, c in self.terms.items()}
        )

    def wirtinger(self, j: int, kind: str = "z") -> "MixedPoly":
        """Formal partial d/dz_j (kind='z') or d/dzbar_j (kind='zbar'), 1-based j."""
        if not 1 <= j <= self.n:
            raise IndexError(f"variable index {j} out of range 1..{self.n}")
        if kind not in ("z", "zbar"):
            raise ValueError("kind must be 'z' or 'zbar'")
        idx, by_z = j - 1, kind == "z"
        pairs = []
        for m, c in self.terms.items():
            exps = m.nu if by_z else m.mu
            if exps[idx]:
                low = exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]
                mono = MixedMonomial(low, m.mu) if by_z else MixedMonomial(m.nu, low)
                pairs.append((mono, c * GaussianRational.of(exps[idx])))
        return MixedPoly(self.n, pairs)

    def real_imag_parts(self):
        """Exact split f = g + i h with g, h real-valued.

        g = (f + conj f)/2 and h = (f - conj f)/(2i); the reconstruction
        g + i*h equals f exactly.
        """
        fbar = self.conjugate()
        g = (self + fbar) * GR_HALF
        h = (self - fbar) * GR_NEG_HALF_I
        return g, h

    def restrict(self, I) -> "MixedPoly":
        """Set every variable outside I (1-based set) to zero.

        Keeps exactly the terms with nu_k = mu_k = 0 for all k not in I.
        The ambient variable count n is preserved so face data of nested
        restrictions stay comparable.
        """
        keep = set(I)
        gone = [k for k in range(self.n) if k + 1 not in keep]
        return MixedPoly(self.n, (
            (m, c) for m, c in self.terms.items() if not any(m.nu[k] or m.mu[k] for k in gone)
        ))

    # -- numeric evaluation --------------------------------------------------

    def _arrays(self):
        """(nu, mu, coeff) as int64 and complex arrays, built once beside the term plan: per term its
        coefficient and (column, exponent) factors, z_j (column j) before zb_j (n + j), exponents > 0."""
        cache = self._eval_cache
        if cache is None:
            import numpy as np

            m, n = len(self.terms), self.n
            nu, mu = np.zeros((2, m, n), dtype=np.int64)
            for i, mono in enumerate(self.terms):
                try:
                    nu[i], mu[i] = mono.nu, mono.mu
                except OverflowError:
                    raise NonFiniteValuesError("an exponent is beyond int64 range") from None
            coeff = np.array([complex(c) for c in self.terms.values()], dtype=np.complex128)
            plan = [(c, tuple((k, e) for j in range(n) for k, e in ((j, a[j]), (n + j, b[j])) if e))
                    for c, a, b in zip(coeff, nu.tolist(), mu.tolist())]
            cache = (nu, mu, coeff), plan
            object.__setattr__(self, "_eval_cache", cache)
        return cache[0]

    def _over_terms(self, p, grads):
        """f at the points p (N, n), or with grads d_z and d_zbar side by side in
        (..., 2n) at p (n,) or (N, n), from one pass over the term plan (one
        point on numpy scalars: inf or nan where Python complex raises).  A
        term chains coeff * b**e * ... in plan order; for the gradients its
        factor b**e adds e * pre * suf * b**(e - 1) to its column, pre and suf
        the products before (from coeff) and after it.  No division keeps zero
        coordinates exact, and a term adds nothing to a column it lacks."""
        import numpy as np

        p = np.asarray(p, dtype=np.complex128)
        self._arrays()
        cols = list(p.T) + list(np.conj(p).T)
        # on an array, ** takes np.square for a Python int 2, which rounds unlike np.power
        pow_ = pow if p.ndim == 1 else np.power
        zero = np.zeros(p.shape[:-1], dtype=np.complex128)[()]
        value, d = zero.copy(), [zero] * (2 * self.n)
        for c, factors in self._eval_cache[1]:
            if not grads:
                # powers stay unnamed: from 256 KiB numpy multiplies into them, and the values keep that rounding
                term = np.full(p.shape[:-1], c)
                for k, e in factors:
                    term = term * pow_(cols[k], e)
                value += term
                continue
            term, seen = c, []
            for k, e in factors:
                power = cols[k] if e == 1 else pow_(cols[k], e)
                seen.append((k, e, term, power))
                term = term * power
            suf = None
            for k, e, part, power in reversed(seen):
                if suf is not None:
                    part, power = part * suf, power * suf
                suf = power
                d[k] = d[k] + (part if e == 1 else e * (part * pow_(cols[k], e - 1)))
        return np.ascontiguousarray(np.array(d).T) if grads else value

    def evaluate(self, p) -> complex:
        """Value at a point p in C^n (floats)."""
        import numpy as np

        return complex(self.evaluate_many(np.asarray(p)[None])[0])

    def evaluate_many(self, pts) -> numpy.ndarray:
        """Values at an (N, n) array of points, vectorized over N."""
        return self._over_terms(pts, grads=False)

    def gradients(self, p) -> "GradientPair":
        """Both Wirtinger gradients at p (n,) or (N, n), a GradientPair of arrays of p's shape:
        entry j of d_z (d_zbar) sums nu_j (mu_j) times each term with a z_j (zbar_j) removed."""
        d = self._over_terms(p, grads=True)
        return GradientPair(d[..., : self.n], d[..., self.n :])

    # -- printing ----------------------------------------------------------

    def _sorted_terms(self):
        def key(item):
            mono = item[0]
            xi = mono.support_point()
            return (sum(xi), xi, mono.nu)

        return sorted(self.terms.items(), key=key)

    def to_text(self) -> str:
        """Canonical text form; parse_poly(to_text()) round-trips exactly."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self._sorted_terms():
            factors = []
            for k in range(self.n):
                a, b = mono.nu[k], mono.mu[k]
                if a == b and a > 0:
                    factors.append(f"|z{k + 1}|^{2 * a}")
                else:
                    if a == 1:
                        factors.append(f"z{k + 1}")
                    elif a > 1:
                        factors.append(f"z{k + 1}^{a}")
                    if b == 1:
                        factors.append(f"zb{k + 1}")
                    elif b > 1:
                        factors.append(f"zb{k + 1}^{b}")
            body = "*".join(factors)
            if not body:
                text = format_gaussian(coeff)
            elif coeff == GR_ONE:
                text = body
            elif coeff == -GR_ONE:
                text = "-" + body
            else:
                text = f"{format_gaussian(coeff)}*{body}"
            parts.append(text)
        return join_signed(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"MixedPoly({self.to_text()!r}, n={self.n})"


@dataclass(frozen=True)
class GradientPair:
    """Holomorphic and antiholomorphic gradient values at one point.

    For a real-valued polynomial the two are related by componentwise
    conjugation: conj(d_z) == d_zbar.
    """

    d_z: numpy.ndarray
    d_zbar: numpy.ndarray

    def real_imag_zbar(self):
        """dzbar g = (dzbar f + conj dz f)/2 and dzbar h = i(conj dz f - dzbar f)/2
        for g = Re f, h = Im f: their gradients without building g and h."""
        import numpy as np

        conj_d_z = np.conj(self.d_z)
        return (self.d_zbar + conj_d_z) / 2, 1j * (conj_d_z - self.d_zbar) / 2


# ---------------------------------------------------------------------------
# Parsing: one lexer, one token cursor and one coefficient literal rule for
# polynomial, arc and point text
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<abs>\|z\d+\|)|(?P<zbar>zb\d+)|(?P<z>z\d+)"
    r"|(?P<dec>\d+\.\d+)|(?P<nat>\d+)|(?P<imag>i)|(?P<t>t)|(?P<op>[-+*/^()=;]))"
)

_VARIABLES = ("abs", "zbar", "z")
# the largest variable index in polynomial or arc text
MAX_INDEX = 64
_NUMBER = ("nat", "dec")
_SIGNS = ("+", "-")


def _tokenize(text):
    """(kind, value, position) triples closed by an 'end' token.

    A token's position is its first character ('|' of |zK|, 'z' of zK).
    Variables carry their index K, at most MAX_INDEX, 'nat' an int, 'dec' the
    exact Fraction of the decimal; an operator's kind is the operator itself.
    A digit run longer than int() reads (sys.get_int_max_str_digits()) is
    refused at its token.
    """
    limit = sys.get_int_max_str_digits()
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            where = len(text) - len(text[pos:].lstrip())
            if where < len(text):
                raise PolySyntaxError(where, "a coefficient, variable, or operator", text)
            break
        kind, word = m.lastgroup, m.group(m.lastgroup)
        value = None
        if kind in _VARIABLES or kind in _NUMBER:
            digits = word.strip("|zb")
            index = digits.lstrip("0")  # its length is compared before int() reads it
            if kind in _VARIABLES and (
                len(index) > len(str(MAX_INDEX)) or int(index or 0) > MAX_INDEX
            ):
                raise PolySyntaxError(m.start(kind), f"variable index in 1..{MAX_INDEX}", text)
            if 0 < limit < max(map(len, digits.split("."))):
                raise PolySyntaxError(m.start(kind), f"a number of at most {limit} digits", text)
            value = Fraction(word) if kind == "dec" else int(digits)
        tokens.append((word if kind == "op" else kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Cursor:
    """Token cursor with the coefficient literal rule:

    literal := num ('/' num)? 'i'? | 'i' | '(' sum ')'
    sum     := [sign] literal (sign literal)*
    num     := nat | dec
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, kind) -> bool:
        """Take the next token if it is of this kind."""
        if self.peek()[0] != kind:
            return False
        self.i += 1
        return True

    def expect(self, *kinds):
        tok = self.take()
        if tok[0] not in kinds:
            self.error(tok, " or ".join(f"'{kind}'" for kind in kinds))
        return tok

    def error(self, tok, expected):
        raise PolySyntaxError(tok[2], expected, self.text)

    def signed(self, item):
        """Yield (sign, item()) over [sign] item (sign item)*, sign -1 or 1."""
        while True:
            sign = -1 if self.accept("-") else 1
            if sign > 0:
                self.accept("+")
            yield sign, item()
            if self.peek()[0] not in _SIGNS:
                return

    def denominator(self, kinds=_NUMBER):
        tok = self.expect(*kinds)
        if tok[1] == 0:
            self.error(tok, "a nonzero denominator")
        return tok[1]

    def ratio(self, kinds=_NUMBER) -> Fraction:
        """num ('/' num)? over number tokens of the given kinds."""
        value = Fraction(self.expect(*kinds)[1])
        if self.accept("/"):
            value /= self.denominator(kinds)
        return value

    def literal(self) -> GaussianRational:
        return GaussianRational(*map(Fraction, self._literal()))

    def _literal(self):
        """(real, imaginary) part of one literal, each an int or a Fraction."""
        tok = self.peek()
        if self.accept("("):
            value = self.literal_sum()
            self.expect(")")
            return value.re, value.im
        if self.accept("imag"):
            return 0, 1
        if tok[0] not in _NUMBER:
            self.error(tok, "a coefficient")
        value = self.ratio()
        return (0, value) if self.accept("imag") else (value, 0)

    def literal_sum(self) -> GaussianRational:
        re = im = 0
        for sign, (a, b) in self.signed(self._literal):
            re, im = (re + a, im + b) if sign > 0 else (re - a, im - b)
        return GaussianRational(Fraction(re), Fraction(im))


class _Parser(_Cursor):
    """Recursive descent over the grammar:

    expr   := [sign] term (('+'|'-') term)*
    term   := factor ('*'? factor)*
    factor := (literal | z | zb | '(' expr ')') ('^' nat)? | |z| ('^' even)?

    A term's variable factors fold into one monomial, their exponents added
    (|z_k|^e adds e/2 to those of z_k and zb_k), and its literals and
    constant parenthesized exprs into one coefficient; only the other
    parenthesized exprs stay polynomials, multiplied in text order.  Each
    power is checked by _check_power, and the term is refused before any
    power or product is computed when its factors' term bounds multiply to
    more than MAX_POWER_TERMS**2.
    """

    def __init__(self, text, n):
        super().__init__(text)
        self.n = n

    def parse(self):
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.error(tok, "end of input or an operator")
        return poly

    def expr(self):
        return MixedPoly(self.n, (
            (m, c if sign > 0 else -c)
            for sign, pairs in self.signed(self.term)
            for m, c in pairs
        ))

    _FACTOR_START = ("nat", "dec", "imag", "z", "zbar", "abs", "(")

    def term(self):
        """The (monomial, coefficient) pairs of one term."""
        nu, mu = [0] * self.n, [0] * self.n
        consts, polys = [], []  # (base, power) of the coefficient's and the other factors
        size = 1  # a bound on the term count of the factors' product
        while True:
            kind, k, pos = tok = self.peek()
            if kind in _VARIABLES:
                self.take()
                if not 1 <= k <= self.n:
                    self.error(tok, f"variable index in 1..{self.n}")
            elif kind in ("nat", "dec", "imag"):
                base = self.literal()
            elif self.accept("("):
                base = self.expr()
                self.expect(")")
                if not any(any(m.nu + m.mu) for m in base.terms):
                    base = next(iter(base.terms.values()), GR_ZERO)
            else:
                self.error(tok, "a coefficient, variable, or '('")
            e = self.expect("nat")[1] if self.accept("^") else 1
            if kind == "abs":
                # |z_k|^e desugars to z_k^(e/2) zb_k^(e/2), for even e only
                if e % 2:
                    raise OddModulusExponentError(pos, e)
                nu[k - 1] += e // 2
                mu[k - 1] += e // 2
            elif kind in _VARIABLES:
                (nu if kind == "z" else mu)[k - 1] += e
            elif isinstance(base, GaussianRational):
                _check_power([base] if base else [], e)
                consts.append((base, e))
            else:
                _check_power(base.terms.values(), e)
                polys.append((base, e))
                size *= math.comb(e + len(base.terms) - 1, e)
                if size > MAX_POWER_TERMS**2:
                    raise BadRequestError(f"a term's factors could multiply to more than {MAX_POWER_TERMS**2} terms")
            if not (self.accept("*") or self.peek()[0] in self._FACTOR_START):
                break
        coeff = reduce(mul, [_power(c, e - 1, c) if e else GR_ONE for c, e in consts] or [GR_ONE])
        if not polys:
            return [(MixedMonomial(tuple(nu), tuple(mu)), coeff)]
        out = reduce(mul, [poly if e == 1 else poly**e for poly, e in polys])
        return [(MixedMonomial(tuple(map(add, m.nu, nu)), tuple(map(add, m.mu, mu))),
                 c if coeff == GR_ONE else c * coeff) for m, c in out.terms.items()]


def parse_poly(text: str, n: int | None = None) -> MixedPoly:
    """Parse mixed-polynomial text into canonical form.

    Variables are z1, z2, ... with zb1 denoting the conjugate of z1 and
    |z1|^2 the squared modulus (even exponents only).  Whitespace is
    insignificant and '*' may be omitted.  When n is not given it is
    inferred as the largest variable index (1 for constant input).
    Coefficients follow the literal rule of :func:`parse_coefficient`.
    """
    parser = _Parser(text, n)
    # arc-only tokens are rejected before parsing, as an unknown character is
    for tok in parser.tokens:
        if tok[0] in ("t", "=", ";"):
            parser.error(tok, "a coefficient, variable, or operator")
    seen = max((t[1] for t in parser.tokens if t[0] in _VARIABLES), default=0)
    if n is None:
        parser.n = max(seen, 1)
    elif seen > n:
        raise PolySyntaxError(0, f"variable indices within 1..{n}", text)
    return parser.parse()


def parse_coefficient(text: str) -> GaussianRational:
    """One signed sum of coefficient literals, e.g. "-1/2", "0.5 + 2i" or "(1-i)".

    A literal is num ('/' num)? 'i'? or 'i' or a parenthesized sum, with num
    a natural number or a decimal (read exactly: 0.5 is 1/2).
    """
    cursor = _Cursor(text)
    value = cursor.literal_sum()
    cursor.expect("end")
    return value
