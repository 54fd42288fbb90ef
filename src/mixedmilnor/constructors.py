"""Structure-preserving constructors and the named example corpus.

The pullback along a multi-cyclic covering substitutes z_j by
w_j^{a_j} wbar_j^{b_j}; the join glues two polynomials on disjoint variable
blocks.  Both preserve the vanishing-subspace data in a checkable way, which
the test suite exercises against brute-force restriction.

Corpus entries are built programmatically from exponent data rather than
parsed from strings, so they survive any change to the text grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import (
    BadParamsError,
    DimensionMismatchError,
    UnknownCorpusNameError,
    ZeroPolynomialError,
)
from .poly import MixedMonomial, MixedPoly


@dataclass(frozen=True)
class PullbackSpec:
    """Exponent data (a, b) of the covering z_j -> z_j^{a_j} zbar_j^{b_j}.

    Requires a_j > b_j >= 0 for every j, which makes the map a branched
    prod(a_j - b_j)-fold covering.
    """

    a: tuple
    b: tuple

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise DimensionMismatchError("a and b must have equal length")
        for aj, bj in zip(self.a, self.b):
            if not (aj > bj >= 0):
                raise BadParamsError("need a_j > b_j >= 0 componentwise")

    @property
    def n(self):
        return len(self.a)


def pullback_cyclic(f: MixedPoly, spec: PullbackSpec) -> MixedPoly:
    """Exact substitution z_j -> w_j^{a_j} wbar_j^{b_j}.

    A term with exponents (nu, mu) maps to (a*nu + b*mu, b*nu + a*mu)
    componentwise, so the support scales by (a + b) and the vanishing
    coordinate subspaces are unchanged.
    """
    if spec.n != f.n:
        raise DimensionMismatchError(
            f"pullback spec has {spec.n} variables, polynomial has {f.n}"
        )
    ab = list(zip(spec.a, spec.b))

    def image(m):
        nu = tuple(a * v + b * w for (a, b), v, w in zip(ab, m.nu, m.mu))
        mu = tuple(b * v + a * w for (a, b), v, w in zip(ab, m.nu, m.mu))
        return MixedMonomial(nu, mu)

    return MixedPoly(f.n, ((image(m), c) for m, c in f.terms.items()))


def compose_pullbacks(s1: PullbackSpec, s2: PullbackSpec) -> PullbackSpec:
    """Spec of the composite covering, pullback(pullback(f, s1), s2).

    Per coordinate the exponent pairs compose as 2x2 matrix products
    [[a,b],[b,a]].
    """
    if s1.n != s2.n:
        raise DimensionMismatchError("pullback specs have different lengths")
    a = tuple(a1 * a2 + b1 * b2 for a1, b1, a2, b2 in zip(s1.a, s1.b, s2.a, s2.b))
    b = tuple(a1 * b2 + b1 * a2 for a1, b1, a2, b2 in zip(s1.a, s1.b, s2.a, s2.b))
    return PullbackSpec(a, b)


def join(f1: MixedPoly, f2: MixedPoly):
    """Sum of two polynomials on disjoint variable blocks.

    f2's variables are reindexed to n+1 .. n+m; the returned map sends each
    original (polynomial, 1-based index) to its index in the join.  Inputs
    with linear terms are accepted; downstream singularity statements assume
    there are none, so callers should check where it matters.
    """
    if f1.is_zero() or f2.is_zero():
        raise ZeroPolynomialError("join needs two nonzero polynomials")
    n, m = f1.n, f2.n
    first = ((MixedMonomial(a.nu + (0,) * m, a.mu + (0,) * m), c) for a, c in f1.terms.items())
    second = ((MixedMonomial((0,) * n + a.nu, (0,) * n + a.mu), c) for a, c in f2.terms.items())
    index_map = {(1, j): j for j in range(1, n + 1)}
    index_map.update({(2, j): n + j for j in range(1, m + 1)})
    return MixedPoly(n + m, chain(first, second)), index_map


def has_linear_term(f: MixedPoly) -> bool:
    return any(m.total_degree() == 1 for m in f.terms)


# ---------------------------------------------------------------------------
# Named corpus
# ---------------------------------------------------------------------------


def _tibar():
    # z1 |z2|^2
    return MixedPoly.monomial(2, {1: 1, 2: 1}, {2: 1})


def _tibar_a(a):
    if a < 1:
        raise BadParamsError("tibar_a needs a >= 1")
    # z1 z2^a zbar2
    return MixedPoly.monomial(2, {1: 1, 2: a}, {2: 1})


def _parusinski():
    # z1 (z2 + z3^2) zbar2
    return MixedPoly.monomial(3, {1: 1, 2: 1}, {2: 1}) + MixedPoly.monomial(
        3, {1: 1, 3: 2}, {2: 1}
    )


def _cone(m, n, exps):
    if not 1 <= m < n:
        raise BadParamsError("cone needs 1 <= m < n")
    if len(exps) != n or any(a < 1 for a in exps):
        raise BadParamsError("cone needs n exponents, all >= 1")
    z1 = MixedPoly.monomial(n, {1: 1}, {})
    k = MixedPoly.zero(n)
    for i in range(1, n + 1):
        term = MixedPoly.monomial(n, {i: exps[i - 1]}, {i: exps[i - 1]})
        k = k + term if i <= m else k - term
    return z1 * k


def _cyclic(exps):
    n = len(exps)
    if n < 2:
        raise BadParamsError("cyclic needs at least 2 variables")
    if any(a < 2 for a in exps):
        raise BadParamsError("cyclic needs all exponents >= 2")
    f = MixedPoly.zero(n)
    for k in range(1, n + 1):
        nxt = 1 if k == n else k + 1
        f = f + MixedPoly.monomial(n, {k: exps[k - 1]}, {nxt: 1})
    return f


def _brieskorn_curve():
    # z1^2 z2^2 (z1^6 zb1^3 + z2^4 zb2^2)(z1^4 zb1^2 + z2^6 zb2^3)
    front = MixedPoly.monomial(2, {1: 2, 2: 2}, {})
    left = MixedPoly.monomial(2, {1: 6}, {1: 3}) + MixedPoly.monomial(2, {2: 4}, {2: 2})
    right = MixedPoly.monomial(2, {1: 4}, {1: 2}) + MixedPoly.monomial(2, {2: 6}, {2: 3})
    return front * left * right


def _d_n(n):
    if n < 3:
        raise BadParamsError("d_n needs n >= 3")
    return (
        MixedPoly.monomial(3, {1: 2}, {})
        + MixedPoly.monomial(3, {2: 2, 3: 1}, {})
        + MixedPoly.monomial(3, {3: n - 1}, {})
    )


def _fig1():
    return (
        MixedPoly.monomial(3, {1: 3}, {})
        + MixedPoly.monomial(3, {2: 3}, {})
        + MixedPoly.monomial(3, {2: 1, 3: 2}, {})
    )


_CORPUS = {
    "tibar": (0, lambda p: _tibar(), "z1*|z2|^2"),
    "tibar_a": (1, lambda p: _tibar_a(p[0]), "z1*z2^a*zb2"),
    "parusinski": (0, lambda p: _parusinski(), "z1*(z2+z3^2)*zb2"),
    "cone": (None, lambda p: _cone(p[0], p[1], p[2:]), "z1*(sum |zi|^2ai - sum |zj|^2aj)"),
    "cyclic": (None, lambda p: _cyclic(p), "z1^a1*zb2 + ... + zn^an*zb1"),
    "brieskorn_curve": (
        0,
        lambda p: _brieskorn_curve(),
        "z1^2*z2^2*(z1^6*zb1^3+z2^4*zb2^2)*(z1^4*zb1^2+z2^6*zb2^3)",
    ),
    "d_n": (1, lambda p: _d_n(p[0]), "z1^2 + z2^2*z3 + z3^(n-1)"),
    "fig1": (0, lambda p: _fig1(), "z1^3 + z2^3 + z2*z3^2"),
}


def corpus_names():
    return sorted(_CORPUS)


def corpus(name: str, params=()) -> MixedPoly:
    """Construct a named example polynomial.

    cone takes params (m, n, a_1, ..., a_n); cyclic takes (a_1, ..., a_n)
    with every a_k >= 2; tibar_a takes (a,); d_n takes (n,).
    """
    entry = _CORPUS.get(name)
    if entry is None:
        raise UnknownCorpusNameError(name)
    arity, build, _ = entry
    params = tuple(int(x) for x in params)
    if arity is not None and len(params) != arity:
        raise BadParamsError(f"{name} takes exactly {arity} parameter(s)")
    if arity is None and not params:
        raise BadParamsError(f"{name} needs parameters")
    try:
        return build(params)
    except IndexError as exc:
        raise BadParamsError(f"{name}: not enough parameters") from exc


def corpus_formula(name: str) -> str:
    entry = _CORPUS.get(name)
    if entry is None:
        raise UnknownCorpusNameError(name)
    return entry[2]
