"""Parser, Wirtinger calculus, and evaluation of exact mixed polynomials."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_mixed_poly, random_point, random_real_valued_poly, repeated_power
from mixedmilnor.arcs import parse_arc
from mixedmilnor.errors import BadRequestError, OddModulusExponentError, PolySyntaxError
from mixedmilnor.poly import (
    MAX_POWER_BITS,
    MAX_POWER_TERMS,
    GaussianRational,
    GradientPair,
    MixedMonomial,
    MixedPoly,
    _check_power,
    _merge_terms,
    parse_coefficient,
    parse_poly,
)

I = GaussianRational.of(0, 1)
HALF = GaussianRational.of(Fraction(1, 2))
HALF_I = GaussianRational.of(0, Fraction(1, 2))


def gr(re, im=0):
    return GaussianRational.of(Fraction(re), Fraction(im))


class TestParsing:
    def test_fig1_supports(self):
        f = parse_poly("z1^3 + z2^3 + z2*z3^2")
        assert f.n == 3
        assert f.support() == {(3, 0, 0), (0, 3, 0), (0, 1, 2)}
        assert all(m.mu == (0, 0, 0) for m in f.terms)

    def test_modulus_sugar(self):
        f = parse_poly("z1*|z2|^2")
        (mono,) = f.terms
        assert mono.nu == (1, 1) and mono.mu == (0, 1)

    def test_zero(self):
        assert parse_poly("0").is_zero()
        assert parse_poly("0", n=3).n == 3

    def test_coefficients(self):
        f = parse_poly("3/4i*z1 - 2*z2 + (1+2i)*zb1")
        assert f.terms[MixedMonomial((1, 0), (0, 0))] == gr(0, Fraction(3, 4))
        assert f.terms[MixedMonomial((0, 1), (0, 0))] == gr(-2)
        assert f.terms[MixedMonomial((0, 0), (1, 0))] == gr(1, 2)

    def test_implicit_multiplication(self):
        assert parse_poly("z1z2") == parse_poly("z1*z2")
        assert parse_poly("2i z1") == parse_poly("2i*z1")

    def test_duplicate_terms_merge(self):
        assert parse_poly("z1 + z1") == parse_poly("2*z1")
        assert parse_poly("z1 - z1").is_zero()

    def test_odd_modulus_exponent(self):
        with pytest.raises(OddModulusExponentError):
            parse_poly("|z2|^3")
        with pytest.raises(OddModulusExponentError):
            parse_poly("z1*|z2|")

    def test_syntax_error_position(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("z1 + + ^2")
        assert err.value.position >= 5

    @pytest.mark.parametrize("text, position", [("3/0*z1", 2), ("z1 + z0^2", 5), ("z1^2 $ z2", 5)])
    def test_error_position_is_the_token(self, text, position):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly(text)
        assert err.value.position == position

    def test_decimal_coefficients_are_exact(self):
        assert parse_poly("0.5*z1") == parse_poly("1/2*z1")
        assert parse_poly("(0.25-1.5i)*zb1") == parse_poly("(1/4-3/2i)*zb1")
        with pytest.raises(PolySyntaxError):
            parse_poly("z1^1.5")

    @pytest.mark.parametrize("text", ["3/4", "-2i", "0.25", "(1/2-0.5i)", "7/2i", "i", "1 - i"])
    def test_one_literal_rule(self, text):
        c = parse_coefficient(text)
        assert parse_poly(text) == MixedPoly.constant(1, c)
        assert parse_arc(f"z1 = {text}").jets == (((0, c),),)

    def test_variable_bound(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("z5", n=2)

    @pytest.mark.parametrize(
        "text, position",
        [("z65", 0), ("z1 + zb300000000", 5), ("2*|z0070|^2", 2), ("z" + "9" * 5000, 0)],
    )
    def test_index_above_the_cap(self, text, position):
        # refused at the token, before any n-long exponent tuple is built
        with pytest.raises(PolySyntaxError) as err:
            parse_poly(text)
        assert err.value.position == position
        assert err.value.expected == "variable index in 1..64"
        assert parse_poly("z64 + z007").n == 64

    @pytest.mark.parametrize(
        "text, position",
        [("1" + "0" * 5000 + "*z1", 0), ("z1 + 1/" + "1" * 5000 + "*z2", 7),
         ("z1 + 0." + "0" * 5000 + "1*z2", 5), ("z" + "0" * 5000 + "1", 0)],
        ids=["integer", "denominator", "decimal", "index"],
    )
    def test_digit_run_above_the_int_limit(self, text, position):
        # refused at the token, before int() or Fraction() reads the digits
        with pytest.raises(PolySyntaxError) as err:
            parse_poly(text)
        assert err.value.position == position
        assert err.value.expected == f"a number of at most {sys.get_int_max_str_digits()} digits"
        assert parse_coefficient("1" + "0" * 4299) == GaussianRational.of(10**4299)

    def test_parens_and_powers(self):
        assert parse_poly("(z1+z2)^2") == parse_poly("z1^2 + 2*z1*z2 + z2^2")
        z1, z2, z3 = (MixedPoly.monomial(3, {k: 1}, {}) for k in (1, 2, 3))
        zb1 = MixedPoly.monomial(3, {}, {1: 1})
        one = MixedPoly.constant(3, 1)
        ring = {
            "2^3*z1": MixedPoly.constant(3, 2) ** 3 * z1,
            "i^2*z2": MixedPoly.constant(3, I) ** 2 * z2,
            "z1^0*z2 + |z1|^0": z1**0 * z2 + one,
            "z2*0*z1 + z3": z2 * 0 * z1 + z3,
            "zb1*|z2|^4*z1^2": zb1 * (z2 * z2.conjugate()) ** 2 * z1**2,
            "(z1+z2)^2*z3^2*(z1-1)": (z1 + z2) ** 2 * z3**2 * (z1 - one),
            "2*z1*(z1 - zb1)*3*(z2 + 1)^2": 2 * z1 * (z1 - zb1) * 3 * (z2 + one) ** 2,
        }
        for text, expected in ring.items():
            # key order too: _arrays reads the terms in this order
            assert list(parse_poly(text, n=3).terms.items()) == list(expected.terms.items()), text

    def test_literals_fold_into_the_coefficient(self):
        z1, z2 = (MixedPoly.monomial(2, {k: 1}, {}) for k in (1, 2))
        zb1 = z1.conjugate()

        def c(value):
            return MixedPoly.constant(2, value)

        ring = {
            "(2 3)*z1": c(2) * c(3) * z1,
            "(1/2^2)*z1": c(Fraction(1, 2)) ** 2 * z1,
            "(1+i)^3*z1": (c(1) + c(I)) ** 3 * z1,
            "0^0*(z1+z2)": c(0) ** 0 * (z1 + z2),
            "-(1-i)*zb1": -((c(1) - c(I)) * zb1),
            "0.25i*|z1|^2": c(GaussianRational.of(0, Fraction(1, 4))) * z1 * zb1,
            "(z1+1)*(2-i)": (z1 + c(1)) * (c(2) - c(I)),
            "2*(z1-z1)*z2": c(2) * (z1 - z1) * z2,
            # a zero coefficient leaves its term's monomials out, not reordered
            "z2*zb1 + 0*(z1+z2)*zb1 + z1*zb1": z2 * zb1 + c(0) * (z1 + z2) * zb1 + z1 * zb1,
        }
        for text, expected in ring.items():
            assert list(parse_poly(text, n=2).terms.items()) == list(expected.terms.items()), text

    def test_variable_factors_build_one_monomial(self, monkeypatch):
        built = []
        init = MixedPoly.__init__

        def counted(poly, *args):
            built.append(poly)
            init(poly, *args)

        monkeypatch.setattr(MixedPoly, "__init__", counted)
        f = parse_poly("z1^64*zb2^64*|z3|^64")
        assert len(built) <= 2
        assert list(f.terms) == [MixedMonomial((64, 0, 32), (0, 64, 32))]


class TestPower:
    def test_power_matches_repeated_products(self):
        rng = np.random.default_rng(163)
        for _ in range(10):
            f = random_mixed_poly(rng, n=2, max_terms=3, max_exp=2)
            one = MixedPoly.constant(f.n, 1)
            for e in range(7):
                # the square-and-multiply sequence, whose key order _arrays reads
                out, base, k = one, f, e
                while k:
                    if k & 1:
                        out = out * base
                    base = base * base if k > 1 else base
                    k >>= 1
                power = f**e
                assert power == repeated_power(f, e, one)
                assert list(power.terms.items()) == list(out.terms.items())

    def test_term_cap(self):
        two_terms = [gr(1), gr(1)]
        _check_power(two_terms, MAX_POWER_TERMS - 1)  # comb(e + 1, 1) = 256 terms
        with pytest.raises(BadRequestError, match="terms"):
            _check_power(two_terms, MAX_POWER_TERMS)
        with pytest.raises(BadRequestError, match="terms"):
            _check_power([gr(1)] * 4, 30)  # comb(33, 3) = 5,456
        # a power of 0 or 1 multiplies nothing out
        for e in (0, 1):
            _check_power([gr(1)] * 1000, e)

    def test_bits_cap(self):
        _check_power([gr(2)], MAX_POWER_BITS)  # one bit per factor
        with pytest.raises(BadRequestError, match="bits"):
            _check_power([gr(2)], MAX_POWER_BITS + 1)
        with pytest.raises(BadRequestError, match="bits"):
            _check_power([gr(Fraction(1, 3))], MAX_POWER_BITS + 1)
        # 1 + i grows by half a bit a factor, though neither part is above 1
        with pytest.raises(BadRequestError, match="bits"):
            _check_power([gr(1, 1)], MAX_POWER_BITS + 1)
        for unit in (gr(1), gr(-1), I, -I):
            _check_power([unit], 10**20)

    def test_term_product_cap(self):
        # the factors' term counts multiply to 256 * 256, the cap: accepted
        assert len(parse_poly("(z1+z2)^255*(z1+z2)^255").terms) == 511
        # one more factor of two terms passes it, refused before any product
        with pytest.raises(BadRequestError, match="65536"):
            parse_poly("(z1+z2)^255*(z1+z2)^255*(z1+z2)")
        # a literal is one term, and variables fold into the monomial
        with pytest.raises(BadRequestError, match="65536"):
            parse_poly("(z1+z2+z3+z4)^9*(z1+z2+z3+z4)^9*(z1+z2+z3+z4)^9")
        # a zero base counts as one term, whatever its power
        for zero in ["0^0*", "(z1-z1)^0*", "0*"]:
            with pytest.raises(BadRequestError, match="65536"):
                parse_poly(zero + "(z1+z2+z3+z4)^9*(z1+z2+z3+z4)^9*(z1+z2+z3+z4)^9")
        assert len(parse_poly("0^0*(z1+z2)^255*(z1+z2)").terms) == 257
        assert parse_poly("2*(z1+z2)*z3*(1/2)*zb3") == parse_poly("z1*|z3|^2 + z2*|z3|^2")

    def test_parser_serves_unit_and_variable_powers(self):
        assert parse_poly("i^1000000001*z1 + (-1)^99999999999999999999") == parse_poly("i*z1 - 1")
        assert parse_poly("z1^99999999999999999999").total_degree() == 99999999999999999999


class TestTermMerge:
    A = MixedMonomial((1, 0), (0, 1))
    B = MixedMonomial((0, 2), (0, 0))
    C = MixedMonomial((1, 1), (0, 0))

    def test_pairs_match_the_sum_path(self):
        # A cancels and comes back after C; B cancels for good; one key is
        # given as a (nu, mu) pair
        pairs = [
            (self.A, gr(1)), (self.B, gr(2)), (self.A, gr(-1)),
            (((1, 1), (0, 0)), gr(0, 1)), (self.A, gr(3)), (self.B, gr(-2)),
        ]
        built = MixedPoly(2, pairs)
        summed = MixedPoly.zero(2)
        for mono, c in pairs:
            summed = summed + MixedPoly(2, {mono: c})
        assert built.terms == summed.terms
        assert list(built.terms) == list(summed.terms) == [self.C, self.A]
        assert built.to_text() == summed.to_text()
        for x, y in zip(built._arrays(), summed._arrays()):
            assert np.array_equal(x, y)

    def test_dict_and_pairs_agree(self):
        terms = {self.A: gr(1, 2), self.C: gr(-3)}
        assert MixedPoly(2, terms) == MixedPoly(2, list(terms.items()))

    def test_arity_is_checked_on_cancelling_terms(self):
        wrong = MixedMonomial((1, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError, match="arity"):
            MixedPoly(2, [(wrong, gr(1)), (wrong, gr(-1))])


class TestRoundTrip:
    def test_corpus_round_trip(self):
        for text in [
            "z1^3 + z2^3 + z2*z3^2",
            "z1*|z2|^2",
            "z1*|z2|^2 + z1*zb2*z3^2",
            "-1/2*z1 + (1-2i)*zb2^3",
            "0",
        ]:
            f = parse_poly(text)
            assert parse_poly(f.to_text(), n=f.n) == f

    def test_random_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            f = random_mixed_poly(rng)
            assert parse_poly(f.to_text(), n=f.n) == f


class TestWirtinger:
    def test_zbar_of_mixed_monomial(self):
        f = parse_poly("z1*z2^3*zb2")
        assert f.wirtinger(2, "zbar") == parse_poly("z1*z2^3")

    def test_independence(self):
        assert parse_poly("zb1").wirtinger(1, "z").is_zero()

    def test_power_rule(self):
        assert parse_poly("z1^2").wirtinger(1, "z") == parse_poly("2*z1")

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            parse_poly("z1").wirtinger(2, "z")

    def test_product_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 3))
            f = random_mixed_poly(rng, n=n, max_terms=3, max_exp=2)
            g = random_mixed_poly(rng, n=n, max_terms=3, max_exp=2)
            j = int(rng.integers(1, n + 1))
            kind = "z" if rng.integers(2) else "zbar"
            lhs = (f * g).wirtinger(j, kind)
            rhs = f.wirtinger(j, kind) * g + f * g.wirtinger(j, kind)
            assert lhs == rhs


class TestConjugation:
    def test_examples(self):
        assert parse_poly("z1*|z2|^2").conjugate() == parse_poly("zb1*|z2|^2")
        assert parse_poly("i*z1").conjugate() == parse_poly("-i*zb1")

    def test_involution_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = random_mixed_poly(rng)
            assert f.conjugate().conjugate() == f


class TestRealImagParts:
    def test_tibar_real_part(self):
        f = parse_poly("z1*|z2|^2")
        g, h = f.real_imag_parts()
        assert g == parse_poly("1/2*z1*|z2|^2 + 1/2*zb1*|z2|^2")
        assert g.is_real_valued() and h.is_real_valued()

    def test_real_input(self):
        f = parse_poly("|z1|^2")
        g, h = f.real_imag_parts()
        assert g == f and h.is_zero()

    def test_imaginary_input(self):
        f = parse_poly("i*|z1|^2")
        g, h = f.real_imag_parts()
        assert g.is_zero() and h == parse_poly("|z1|^2")

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        i_const = MixedPoly.constant(1, I)
        for _ in range(100):
            f = random_mixed_poly(rng)
            g, h = f.real_imag_parts()
            assert g + h * MixedPoly.constant(f.n, I) == f


class TestRestrict:
    def test_fig1_vanishing_axis(self):
        f = parse_poly("z1^3 + z2^3 + z2*z3^2")
        assert f.restrict({3}).is_zero()
        assert f.restrict({2, 3}) == parse_poly("z2^3 + z2*z3^2", n=3)

    def test_parusinski_axis(self):
        f = parse_poly("z1*|z2|^2 + z1*zb2*z3^2")
        assert f.restrict({1}).is_zero()

    def test_keeps_ambient_count(self):
        f = parse_poly("z1^3 + z2^3 + z2*z3^2")
        assert f.restrict({2, 3}).n == 3

    def test_composition(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            f = random_mixed_poly(rng, n=3)
            assert f.restrict({1, 2}).restrict({2}) == f.restrict({2})


class TestEvaluation:
    def test_tibar_point(self):
        f = parse_poly("z1*|z2|^2")
        assert f.evaluate([1, 1]) == pytest.approx(1.0)
        grads = f.gradients([1, 1])
        assert grads.d_z == pytest.approx(np.array([1.0, 1.0]))
        assert grads.d_zbar == pytest.approx(np.array([0.0, 1.0]))

    def test_zero_poly(self):
        z = MixedPoly.zero(2)
        assert z.evaluate([2, 3]) == 0
        grads = z.gradients([2, 3])
        assert np.all(grads.d_z == 0) and np.all(grads.d_zbar == 0)

    def test_real_valued_gradient_pair(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            k = random_real_valued_poly(rng)
            p = random_point(rng, k.n)
            grads = k.gradients(p)
            assert np.conj(grads.d_z) == pytest.approx(grads.d_zbar, abs=1e-12)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(19)
        h = 1e-5
        for _ in range(25):
            f = random_mixed_poly(rng, max_exp=2)
            p = random_point(rng, f.n)
            grads = f.gradients(p)
            for j in range(f.n):
                def at(dx=0.0, dy=0.0):
                    q = p.copy()
                    q[j] += dx + 1j * dy
                    return f.evaluate(q)
                fx = (at(dx=h) - at(dx=-h)) / (2 * h)
                fy = (at(dy=h) - at(dy=-h)) / (2 * h)
                dz = (fx - 1j * fy) / 2
                dzb = (fx + 1j * fy) / 2
                assert abs(dz - grads.d_z[j]) <= 1e-6 * max(1.0, abs(grads.d_z[j]))
                assert abs(dzb - grads.d_zbar[j]) <= 1e-6 * max(1.0, abs(grads.d_zbar[j]))

    def test_evaluate_many_matches_scalar(self):
        rng = np.random.default_rng(23)
        f = random_mixed_poly(rng, n=2)
        pts = np.stack([random_point(rng, 2) for _ in range(40)])
        batch = f.evaluate_many(pts)
        single = np.array([f.evaluate(p) for p in pts])
        assert batch == pytest.approx(single)


class TestGradientIdentities:
    """Exact decomposition identities relating g, h, and f derivatives."""

    def _check_identities(self, f):
        g, h = f.real_imag_parts()
        for j in range(1, f.n + 1):
            u = f.wirtinger(j, "zbar")
            w = f.wirtinger(j, "z").conjugate()
            assert g.wirtinger(j, "zbar") == (u + w) * HALF
            assert h.wirtinger(j, "zbar") == (w - u) * HALF_I
            # f = g + i h propagates through both derivative kinds
            ih = h * MixedPoly.constant(f.n, I)
            assert f.wirtinger(j, "z") == g.wirtinger(j, "z") + ih.wirtinger(j, "z")
            assert u == g.wirtinger(j, "zbar") + ih.wirtinger(j, "zbar")

    def test_decomposition_identities_random(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            self._check_identities(random_mixed_poly(rng))

    def test_real_gradient_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            k = random_real_valued_poly(rng)
            for j in range(1, k.n + 1):
                assert k.wirtinger(j, "z").conjugate() == k.wirtinger(j, "zbar")


class TestTangentFrameIdentity:
    """Float identities for the level-set tangent frame at f(p) != 0."""

    def test_v1_v2_against_parts(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 40:
            f = random_mixed_poly(rng, max_exp=2)
            g, h = f.real_imag_parts()
            p = random_point(rng, f.n)
            fv = f.evaluate(p)
            if abs(fv) < 1e-3:
                continue
            checked += 1
            grads = f.gradients(p)
            gg = g.gradients(p).d_zbar
            hh = h.gradients(p).d_zbar
            gv, hv = g.evaluate(p).real, h.evaluate(p).real
            v1 = np.conj(grads.d_z) / np.conj(fv) + grads.d_zbar / fv
            rhs1 = (2 * gv * gg + 2 * hv * hh) / abs(fv) ** 2
            scale = max(1.0, np.linalg.norm(rhs1))
            assert np.linalg.norm(v1 - rhs1) <= 1e-9 * scale
            v2 = 1j * (grads.d_zbar / fv - np.conj(grads.d_z) / np.conj(fv))
            rhs2 = (2 * hv * gg - 2 * gv * hh) / abs(fv) ** 2
            scale = max(1.0, np.linalg.norm(rhs2))
            assert np.linalg.norm(v2 - rhs2) <= 1e-9 * scale


@st.composite
def gaussian_rationals(draw):
    num = draw(st.integers(-6, 6))
    den = draw(st.integers(1, 4))
    num_i = draw(st.integers(-6, 6))
    den_i = draw(st.integers(1, 4))
    return GaussianRational(Fraction(num, den), Fraction(num_i, den_i))


@st.composite
def mixed_polys(draw):
    n = draw(st.integers(1, 3))
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        nu = tuple(draw(st.integers(0, 3)) for _ in range(n))
        mu = tuple(draw(st.integers(0, 3)) for _ in range(n))
        terms[MixedMonomial(nu, mu)] = draw(gaussian_rationals())
    return MixedPoly(n, terms)


@settings(max_examples=60, deadline=None)
@given(mixed_polys())
def test_round_trip_property(f):
    assert parse_poly(f.to_text(), n=f.n) == f


@settings(max_examples=60, deadline=None)
@given(mixed_polys())
def test_conjugation_involution_property(f):
    assert f.conjugate().conjugate() == f


@settings(max_examples=60, deadline=None)
@given(mixed_polys())
def test_parts_reconstruction_property(f):
    g, h = f.real_imag_parts()
    assert g.is_real_valued() and h.is_real_valued()
    assert g + h * MixedPoly.constant(f.n, I) == f


def _exact_value(poly, point):
    total = GaussianRational.of(0)
    for m, c in poly.terms.items():
        for x, a, b in zip(point, m.nu, m.mu):
            for _ in range(a):
                c = c * x
            for _ in range(b):
                c = c * x.conjugate()
        total = total + c
    return complex(total)


@st.composite
def polys_at_points(draw):
    """A mixed polynomial and a point of small Gaussian-rational coordinates
    (modulus at most sqrt 2, zero coordinates included)."""
    f = draw(mixed_polys())
    part = st.builds(Fraction, st.integers(-2, 2), st.integers(2, 4))
    point = [GaussianRational(draw(part), draw(part)) for _ in range(f.n)]
    return f, point


@settings(max_examples=80, deadline=None)
@given(polys_at_points())
@example((MixedPoly.zero(2), [gr(1, -1), gr(0)]))
@example((parse_poly("z1^2*zb1*z2 + 3*zb2^2*z1 - 2i*z2"), [gr(0), gr(Fraction(1, 2), 1)]))
def test_float_layer_matches_exact_property(data):
    f, point = data
    p = np.array([complex(x) for x in point])

    def close(got, want):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    close(f.evaluate(p), _exact_value(f, point))
    close(f.evaluate_many(np.stack([p, p]))[1], _exact_value(f, point))
    g, h = f.real_imag_parts()
    batch = f.gradients(np.stack([p, p]))
    # one point runs on numpy scalars and a batch on arrays: check both
    for grads in (f.gradients(p), GradientPair(batch.d_z[1], batch.d_zbar[1])):
        dg_zbar, dh_zbar = grads.real_imag_zbar()
        for j in range(1, f.n + 1):
            close(grads.d_z[j - 1], _exact_value(f.wirtinger(j, "z"), point))
            close(grads.d_zbar[j - 1], _exact_value(f.wirtinger(j, "zbar"), point))
            close(dg_zbar[j - 1], _exact_value(g.wirtinger(j, "zbar"), point))
            close(dh_zbar[j - 1], _exact_value(h.wirtinger(j, "zbar"), point))


parts = st.one_of(st.integers(-40, 40), st.fractions(max_denominator=12))


def _sum_parts(x, y):
    return x.re + y.re, x.im + y.im


def _product_parts(x, y):
    return x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re


@settings(max_examples=200, deadline=None)
@given(parts, parts, parts, parts)
@example(3, -2, -3, 2)  # a sum that cancels to zero
@example(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 3))  # a difference that does
@example(0, Fraction(3, 2), 0, Fraction(2, 3))  # a product with a zero imaginary part
def test_gaussian_arithmetic_matches_fractions_property(a, b, c, d):
    x, y = GaussianRational.of(a, b), GaussianRational.of(c, d)
    expected = {
        "+": _sum_parts(x, y),
        "-": (x.re - y.re, x.im - y.im),
        "*": _product_parts(x, y),
        "neg": (-x.re, -x.im),
    }
    got = {"+": x + y, "-": x - y, "*": x * y, "neg": -x}
    for op, value in got.items():
        assert (value.re, value.im) == expected[op], op
        assert type(value.re) is type(value.im) is Fraction, op
        assert value == GaussianRational(*map(Fraction, expected[op])), op
        assert bool(value) == any(expected[op]), op


@settings(max_examples=100, deadline=None)
@given(parts, parts, parts, parts)
def test_equal_gaussian_values_hash_and_merge_alike_property(a, b, c, d):
    x, y = GaussianRational.of(a, b), GaussianRational.of(c, d)
    # the same value by two roads: x*y + y, and the Fraction parts of x*y then + y
    direct = x * y + y
    by_parts = GaussianRational(*map(Fraction, _sum_parts(GaussianRational(*_product_parts(x, y)), y)))
    assert direct == by_parts and hash(direct) == hash(by_parts)
    key = MixedMonomial((1,), (0,))
    assert _merge_terms([(key, direct), (key, -by_parts)]) == {}
    merged = _merge_terms([(key, direct), (key, by_parts)])
    assert merged == ({key: direct + direct} if direct else {})
