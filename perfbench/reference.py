"""Independent exact reference for the benchmark's output checks.

Nothing here imports the package under test.  A polynomial is a dict
``{(nu, mu): (re, im)}`` with exponent tuples and ``Fraction`` parts, so the
checks can rebuild inputs, parse reported polynomial text, take Wirtinger
derivatives and evaluate residuals in exact rational arithmetic without
trusting the code they check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) pairs
# ---------------------------------------------------------------------------


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_conj(a):
    return (a[0], -a[1])


def c_abs2(a):
    return a[0] * a[0] + a[1] * a[1]


def c_from_float(z: complex):
    """Exact rational value of a float complex number."""
    return (Fraction(float(z.real)), Fraction(float(z.imag)))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def add_term(poly, nu, mu, coeff):
    key = (tuple(nu), tuple(mu))
    acc = c_add(poly.get(key, ZERO), coeff)
    if acc == ZERO:
        poly.pop(key, None)
    else:
        poly[key] = acc


def monomial(n, nu=None, mu=None, coeff=ONE):
    """Single term; nu/mu map 1-based variable index to exponent."""
    nu_t = tuple((nu or {}).get(j + 1, 0) for j in range(n))
    mu_t = tuple((mu or {}).get(j + 1, 0) for j in range(n))
    return {(nu_t, mu_t): coeff}


def p_add(*polys):
    out = {}
    for poly in polys:
        for (nu, mu), c in poly.items():
            add_term(out, nu, mu, c)
    return out


def p_mul(a, b):
    out = {}
    for (nu1, mu1), c1 in a.items():
        for (nu2, mu2), c2 in b.items():
            nu = tuple(x + y for x, y in zip(nu1, nu2))
            mu = tuple(x + y for x, y in zip(mu1, mu2))
            add_term(out, nu, mu, c_mul(c1, c2))
    return out


def support(poly):
    return {tuple(a + b for a, b in zip(nu, mu)) for nu, mu in poly}


def terms_on(poly, points):
    """Terms whose support point lies in ``points``."""
    pts = {tuple(p) for p in points}
    return {
        (nu, mu): c
        for (nu, mu), c in poly.items()
        if tuple(a + b for a, b in zip(nu, mu)) in pts
    }


def wirtinger(poly, j, kind):
    """d/dz_j (kind 'z') or d/dzbar_j (kind 'zbar'), 1-based j."""
    out = {}
    idx = j - 1
    for (nu, mu), c in poly.items():
        exps = nu if kind == "z" else mu
        e = exps[idx]
        if e == 0:
            continue
        lowered = list(exps)
        lowered[idx] = e - 1
        if kind == "z":
            add_term(out, tuple(lowered), mu, c_mul(c, (Fraction(e), Fraction(0))))
        else:
            add_term(out, nu, tuple(lowered), c_mul(c, (Fraction(e), Fraction(0))))
    return out


def evaluate(poly, point):
    """Exact value at a point given as a list of (re, im) Fraction pairs."""
    total = ZERO
    conj = [c_conj(x) for x in point]
    for (nu, mu), c in poly.items():
        val = c
        for x, xb, a, b in zip(point, conj, nu, mu):
            for _ in range(a):
                val = c_mul(val, x)
            for _ in range(b):
                val = c_mul(val, xb)
        total = c_add(total, val)
    return total


def criticality_residual(poly, point, free):
    """Exact mixed-criticality residual of ``poly`` at ``point``.

    With v = conj(d/dz f) and w = d/dzbar f over the 1-based ``free``
    variables, returns ((|v|^2-|w|^2)^2 + |v|^2|w|^2 - |<v,w>|^2) / (|v|^2+|w|^2)^2,
    which is zero exactly when v is a unit multiple of w.
    """
    v = [c_conj(evaluate(wirtinger(poly, j, "z"), point)) for j in free]
    w = [evaluate(wirtinger(poly, j, "zbar"), point) for j in free]
    nv = sum((c_abs2(x) for x in v), Fraction(0))
    nw = sum((c_abs2(x) for x in w), Fraction(0))
    if nv + nw == 0:
        return Fraction(0)
    inner = ZERO
    for a, b in zip(v, w):
        inner = c_add(inner, c_mul(a, c_conj(b)))
    return ((nv - nw) ** 2 + nv * nw - c_abs2(inner)) / (nv + nw) ** 2


def vanishes_on(poly, subset) -> bool:
    """Whether f restricted to the coordinate subspace C^subset is zero."""
    keep = {j - 1 for j in subset}
    return not any(
        all(x == 0 for k, x in enumerate(pt) if k not in keep) for pt in support(poly)
    )


def vanishing_partition(poly, n):
    vanishing, nonvanishing = [], []
    for size in range(1, n + 1):
        for subset in combinations(range(1, n + 1), size):
            (vanishing if vanishes_on(poly, subset) else nonvanishing).append(
                sorted(subset)
            )
    return sorted(vanishing), sorted(nonvanishing)


def pullback(poly, a, b):
    """Substitution z_j -> w_j^{a_j} wbar_j^{b_j}."""
    out = {}
    for (nu, mu), c in poly.items():
        new_nu = tuple(x * v + y * w for x, y, v, w in zip(a, b, nu, mu))
        new_mu = tuple(y * v + x * w for x, y, v, w in zip(a, b, nu, mu))
        add_term(out, new_nu, new_mu, c)
    return out


def join(f, n, g, m):
    out = {}
    for (nu, mu), c in f.items():
        add_term(out, nu + (0,) * m, mu + (0,) * m, c)
    for (nu, mu), c in g.items():
        add_term(out, (0,) * n + nu, (0,) * n + mu, c)
    return out


# ---------------------------------------------------------------------------
# Text: rendering inputs and parsing the canonical output form
# ---------------------------------------------------------------------------


def _fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def render(poly) -> str:
    """Input text for a polynomial, in the grammar the CLI accepts."""
    out = ""
    for (nu, mu), (re_, im_) in sorted(poly.items()):
        negative = im_ == 0 and re_ < 0
        if im_ == 0:
            coeff = _fraction_text(abs(re_))
        else:
            sign = "+" if im_ > 0 else "-"
            coeff = f"({_fraction_text(re_)}{sign}{_fraction_text(abs(im_))}i)"
        factors = [coeff]
        for k, (a, b) in enumerate(zip(nu, mu), start=1):
            if a:
                factors.append(f"z{k}^{a}")
            if b:
                factors.append(f"zb{k}^{b}")
        body = "*".join(factors)
        if not out:
            out = ("-" if negative else "") + body
        else:
            out += (" - " if negative else " + ") + body
    return out or "0"


_NUM = r"\d+(?:/\d+)?"
_COEFF_RE = re.compile(
    rf"^\((?P<re>-?{_NUM})(?P<sign>[+-])(?P<im>{_NUM})?i\)$"
    rf"|^(?P<imag>{_NUM})?i$"
    rf"|^(?P<real>{_NUM})$"
)
_FACTOR_RE = re.compile(r"^(?:\|z(?P<abs>\d+)\|\^(?P<abse>\d+)|zb(?P<zb>\d+)|z(?P<z>\d+))(?:\^(?P<e>\d+))?$")


def _parse_coeff(text):
    m = _COEFF_RE.match(text)
    if m is None:
        raise ValueError(f"unparsable coefficient {text!r}")
    if m.group("real") is not None:
        return (Fraction(m.group("real")), Fraction(0))
    if text.endswith("i") and not text.startswith("("):
        return (Fraction(0), Fraction(m.group("imag") or 1))
    im_ = Fraction(m.group("im") or 1)
    return (Fraction(m.group("re")), im_ if m.group("sign") == "+" else -im_)


def parse_canonical(text: str, n: int):
    """Parse the canonical form the package prints for a polynomial."""
    poly = {}
    if text.strip() == "0":
        return poly
    for raw in text.replace(" - ", " + -").split(" + "):
        term = raw.strip()
        sign = Fraction(1)
        if term.startswith("-"):
            sign, term = Fraction(-1), term[1:]
        coeff = ONE
        nu, mu = [0] * n, [0] * n
        for factor in term.split("*"):
            m = _FACTOR_RE.match(factor)
            if m is None:
                coeff = _parse_coeff(factor)
                continue
            if m.group("abs"):
                k, half = int(m.group("abs")) - 1, int(m.group("abse")) // 2
                nu[k] += half
                mu[k] += half
            elif m.group("zb"):
                mu[int(m.group("zb")) - 1] += int(m.group("e") or 1)
            else:
                nu[int(m.group("z")) - 1] += int(m.group("e") or 1)
        add_term(poly, nu, mu, c_mul(coeff, (sign, Fraction(0))))
    return poly


# ---------------------------------------------------------------------------
# Named examples, written out from their definitions in the paper
# ---------------------------------------------------------------------------


def corpus_poly(name, params=()):
    """Term data of a named example, or None for a name this file does not know."""
    if name == "tibar":
        return monomial(2, {1: 1, 2: 1}, {2: 1})
    if name == "tibar_a":
        return monomial(2, {1: 1, 2: params[0]}, {2: 1})
    if name == "parusinski":
        return p_add(monomial(3, {1: 1, 2: 1}, {2: 1}), monomial(3, {1: 1, 3: 2}, {2: 1}))
    if name == "cone":
        m, n, exps = params[0], params[1], params[2:]
        k = p_add(
            *(
                monomial(n, {i: a}, {i: a}, ONE if i <= m else (Fraction(-1), Fraction(0)))
                for i, a in enumerate(exps, start=1)
            )
        )
        return p_mul(monomial(n, {1: 1}), k)
    if name == "cyclic":
        n = len(params)
        return p_add(
            *(monomial(n, {k: a}, {k % n + 1: 1}) for k, a in enumerate(params, start=1))
        )
    if name == "d_n":
        return p_add(
            monomial(3, {1: 2}), monomial(3, {2: 2, 3: 1}), monomial(3, {3: params[0] - 1})
        )
    if name == "fig1":
        return p_add(monomial(3, {1: 3}), monomial(3, {2: 3}), monomial(3, {2: 1, 3: 2}))
    if name == "brieskorn_curve":
        front = monomial(2, {1: 2, 2: 2})
        left = p_add(monomial(2, {1: 6}, {1: 3}), monomial(2, {2: 4}, {2: 2}))
        right = p_add(monomial(2, {1: 4}, {1: 2}), monomial(2, {2: 6}, {2: 3}))
        return p_mul(p_mul(front, left), right)
    return None


CORPUS_NAMES = [
    "brieskorn_curve",
    "cone",
    "cyclic",
    "d_n",
    "fig1",
    "parusinski",
    "tibar",
    "tibar_a",
]


# ---------------------------------------------------------------------------
# Zeta products as integer polynomials in t
# ---------------------------------------------------------------------------


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def zeta_cross_check(factors, numerator, denominator) -> bool:
    """numerator / denominator equals the product of (1 - t^d)^e.

    Checked by cross-multiplying, so no polynomial division is needed.
    """
    up, down = [1], [1]
    for d, e in factors:
        base = [1] + [0] * (d - 1) + [-1]
        for _ in range(abs(e)):
            if e > 0:
                up = _int_mul(up, base)
            else:
                down = _int_mul(down, base)
    return _trim(_int_mul(numerator, down)) == _trim(_int_mul(denominator, up))
