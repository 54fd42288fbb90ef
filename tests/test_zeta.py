"""Zeta factors, torus Euler characteristics, and expansion, with oracles."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import expand_zeta_oracle, normalized_volume_oracle
from mixedmilnor import lattice, newton, zeta
from mixedmilnor.arcs import series_to_text
from mixedmilnor.constructors import PullbackSpec, corpus, pullback_cyclic
from mixedmilnor.errors import (
    NegativeReducedExponentError,
    NotStronglyPolarError,
    ZetaIntegralityError,
)
from mixedmilnor.lattice import normalized_volume
from mixedmilnor.poly import MixedPoly, parse_poly
from mixedmilnor.zeta import ZetaFactor, ZetaFunction, chi_torus, expand_zeta, polar_reduction


def winding_root_count(a, b, grid=4096):
    """Number of solutions of z^a zbar^b = 1 on |z| = 1, counted as the
    winding number of the phase along the circle (no use of a - b)."""
    theta = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=True)
    vals = np.exp(1j * theta) ** a * np.conj(np.exp(1j * theta)) ** b
    un = np.unwrap(np.angle(vals))
    return int(round((un[-1] - un[0]) / (2 * np.pi)))


def tracked_monodromy_cycles(a, b, steps=256):
    """Cycle lengths of the monodromy permutation of the fiber z^a zbar^b = 1.

    Finds the fiber points numerically, then follows each along the family
    z^a zbar^b = e^(i theta) as theta goes 0 -> 2 pi by nearest-point
    continuation, and reads off the permutation cycles.
    """
    m = winding_root_count(a, b)
    roots = np.exp(2j * np.pi * np.arange(m) / m)

    def solve_phase(theta, guesses):
        # points on |z|=1 with phase(z^a zbar^b) = theta
        out = []
        for g in guesses:
            phi = np.angle(g)
            # Newton on the phase equation (a - b) phi = theta, but driven
            # numerically through the function itself
            for _ in range(40):
                val = np.exp(1j * phi) ** a * np.conj(np.exp(1j * phi)) ** b
                err = np.angle(val * np.exp(-1j * theta))
                deriv = (
                    np.angle(
                        (np.exp(1j * (phi + 1e-6)) ** a
                         * np.conj(np.exp(1j * (phi + 1e-6))) ** b)
                        * np.conj(val)
                    )
                    / 1e-6
                )
                phi = phi - err / deriv
            out.append(np.exp(1j * phi))
        return np.array(out)

    current = roots.copy()
    for k in range(1, steps + 1):
        theta = 2.0 * np.pi * k / steps
        current = solve_phase(theta, current)
    perm = []
    for z in current:
        perm.append(int(np.argmin(np.abs(roots - z))))
    assert sorted(perm) == list(range(m)), "continuation lost a sheet"
    seen = set()
    cycles = []
    for start in range(m):
        if start in seen:
            continue
        length = 0
        k = start
        while k not in seen:
            seen.add(k)
            k = perm[k]
            length += 1
        cycles.append(length)
    return cycles


class TestPolarReduction:
    def test_brieskorn_face(self):
        f = corpus("brieskorn_curve")
        pairs = dict((P.p, poly) for P, poly in newton.top_faces(f, {1, 2}))
        reduced = polar_reduction(pairs[(2, 3)], (2, 3))
        assert reduced == {(7, 2), (4, 4)}

    def test_holomorphic_identity(self):
        f = parse_poly("z1^3 + z2^2")
        assert polar_reduction(f) == {(3, 0), (0, 2)}

    def test_one_variable(self):
        assert polar_reduction(parse_poly("z1^5*zb1^2")) == {(3,)}

    def test_laurent_rejected(self):
        with pytest.raises(NegativeReducedExponentError):
            polar_reduction(parse_poly("z1*zb1^2"))

    def test_not_strongly_polar(self):
        f = parse_poly("z1^2 + z1*zb1")
        with pytest.raises(NotStronglyPolarError):
            polar_reduction(f, (1,))


class TestChiTorus:
    def test_brieskorn_value(self):
        assert chi_torus({(7, 2), (4, 4)}, 2) == -20

    def test_one_dimensional_vs_root_count(self):
        for a in range(2, 15):
            for b in range(0, a):
                if a - b > 12:
                    continue
                reduced = polar_reduction(MixedPoly.monomial(1, (a,), (b,)))
                (vec,) = reduced
                assert chi_torus({vec}, 1) == winding_root_count(a, b)

    def test_degenerate_cone(self):
        assert chi_torus({(3, 2)}, 2) == 0

    def test_unimodular_invariance(self):
        rng = np.random.default_rng(131)
        mats = {
            2: [np.array([[1, 1], [0, 1]]), np.array([[0, -1], [1, 0]])],
            3: [
                np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
                np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
            ],
        }
        for k in (2, 3):
            for _ in range(20):
                pts = {
                    tuple(int(x) for x in rng.integers(0, 5, size=k))
                    for _ in range(int(rng.integers(2, 5)))
                }
                base = chi_torus(pts, k)
                U = mats[k][int(rng.integers(len(mats[k])))]
                for _ in range(int(rng.integers(1, 4))):
                    U = U @ mats[k][int(rng.integers(len(mats[k])))]
                image = {tuple(int(x) for x in U @ np.array(p)) for p in pts}
                assert chi_torus(image, k) == base
                perm = rng.permutation(k)
                shuffled = {tuple(p[i] for i in perm) for p in pts}
                assert chi_torus(shuffled, k) == base


class TestNormalizedVolume:
    def test_unit_simplices_and_cube(self):
        assert normalized_volume([(0, 0), (1, 0), (0, 1)]) == 1
        assert normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
        cube = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        assert normalized_volume(cube) == 6
        assert normalized_volume([(-2,), (3,), (1,), (3,)]) == 5

    def test_lower_dimensional_is_zero(self):
        assert normalized_volume([(0, 0), (1, 1), (2, 2)]) == 0
        assert normalized_volume([(1, 2, 3)]) == 0
        assert normalized_volume([]) == 0

    def test_matches_triangulation_oracle(self):
        # duplicates, negative coordinates, lower-dimensional sets, simplices
        # and non-simplices in dimensions 1..4
        rng = np.random.default_rng(517)
        kinds = set()
        for _ in range(600):
            m = int(rng.integers(1, 5))
            pts = [tuple(int(x) for x in rng.integers(-3, 4, size=m))
                   for _ in range(int(rng.integers(1, m + 5)))]
            if rng.random() < 0.25:
                pts += pts[: int(rng.integers(1, len(pts) + 1))]
            if rng.random() < 0.15:
                # squash onto a hyperplane through the first point
                pts = [p[:-1] + (pts[0][-1],) for p in pts]
            vol = normalized_volume(pts)
            assert vol == normalized_volume_oracle(pts), pts
            kinds.add((m, vol == 0, len(set(pts)) > m + 1))
        assert {(m, False, big) for m in range(1, 5) for big in (False, True)} <= kinds
        assert any(flat for _, flat, _ in kinds)

    def test_rational_points_match_the_oracle(self):
        # the facets are read off the cone over (den, den * p)
        rng = np.random.default_rng(521)
        for _ in range(150):
            m = int(rng.integers(1, 4))
            pts = [
                tuple(Fraction(int(x), int(d))
                      for x, d in zip(rng.integers(-6, 7, size=m), rng.integers(1, 5, size=m)))
                for _ in range(int(rng.integers(m + 1, m + 6)))
            ]
            assert normalized_volume(pts) == normalized_volume_oracle(pts), pts


    def test_simplices_are_one_determinant(self, monkeypatch):
        # m + 1 points take no cone facets, at the top of the recursion or in it
        rng = np.random.default_rng(523)

        def no_facets(gens, dim):
            raise AssertionError("a simplex enumerated cone facets")

        monkeypatch.setattr(lattice, "_cone_facets", no_facets)
        flat = 0
        for _ in range(300):
            m = int(rng.integers(1, 5))
            pts = [
                tuple(Fraction(int(x), int(d))
                      for x, d in zip(rng.integers(-6, 7, size=m), rng.integers(1, 5, size=m)))
                for _ in range(m + 1)
            ]
            if rng.random() < 0.2:
                # squash onto a hyperplane through the first point
                pts = [p[:-1] + (pts[0][-1],) for p in pts]
            vol = normalized_volume(pts)
            assert vol == normalized_volume_oracle(pts), pts
            flat += vol == 0
        assert flat

    def test_lower_dimensional_simplices_are_zero(self):
        assert normalized_volume([(0, 0), (1, 1), (-2, -2)]) == 0
        quarter = Fraction(1, 4)
        assert normalized_volume([(2 * quarter, 0, 0), (0, 1, 0), (0, 0, 1), (quarter, quarter, quarter)]) == 0
        assert normalized_volume([(-1, 0, 2), (3, 1, 2), (0, 5, 2), (7, -7, 2)]) == 0


class TestZetaFunction:
    def test_brieskorn_factors(self):
        z = zeta.zeta_function(corpus("brieskorn_curve"))
        assert sorted((f.d, f.e) for f in z.factors) == [(20, 1), (20, 1)]
        assert {f.chi for f in z.factors} == {-20}
        assert z.product_text() == "(1-t^20)^2"
        num, _ = expand_zeta(z)
        assert series_to_text({i: c for i, c in enumerate(num) if c}) == "1 - 2*t^20 + t^40"

    def test_single_mixed_monomial(self):
        for a, b in [(2, 1), (5, 2), (4, 0)]:
            z = zeta.zeta_function(MixedPoly.monomial(1, (a,), (b,)))
            assert [(f.d, f.e) for f in z.factors] == [(a - b, -1)]

    def test_d4_pinned_multiset(self):
        z = zeta.zeta_function(corpus("d_n", (4,)))
        assert z.multiset() == ((2, -1), (3, -1), (3, 2), (6, -2), (6, 1))
        assert z.merged() == ((2, -1), (3, 1), (6, -1))

    def test_d_n_pullback_equality(self):
        spec = PullbackSpec((2, 2, 2), (1, 1, 1))
        for n in (4, 5, 6):
            f = corpus("d_n", (n,))
            assert (
                zeta.zeta_function(f).multiset()
                == zeta.zeta_function(pullback_cyclic(f, spec)).multiset()
            )

    def test_integrality_on_corpus(self):
        inputs = [
            corpus("brieskorn_curve"),
            corpus("d_n", (4,)),
            corpus("d_n", (6,)),
            corpus("fig1"),
            MixedPoly.monomial(1, (7,), (3,)),
        ]
        for f in inputs:
            for factor in zeta.zeta_function(f).factors:
                assert factor.e * factor.d == -factor.chi

    def test_factor_integrality_enforced(self):
        with pytest.raises(ZetaIntegralityError):
            ZetaFactor(d=4, e=1, I=frozenset({1}), P=(1,), chi=-3)


class TestPullbackCovariance:
    def test_reduced_and_radial_support_scaling(self):
        spec = PullbackSpec((2, 3, 2), (1, 1, 0))
        a_minus_b = (1, 2, 2)
        a_plus_b = (3, 4, 2)
        for name, params in [("fig1", ()), ("d_n", (5,))]:
            f = corpus(name, params)
            ft = pullback_cyclic(f, spec)
            if f.is_holomorphic():
                reduced = polar_reduction(f)
                reduced_t = polar_reduction(ft)
                scaled = {
                    tuple(a_minus_b[i] * v[i] for i in range(3)) for v in reduced
                }
                assert reduced_t == scaled
            support_scaled = {
                tuple(a_plus_b[i] * xi[i] for i in range(3)) for xi in f.support()
            }
            assert ft.support() == support_scaled

    def test_unit_degree_cover_preserves_factors(self):
        spec = PullbackSpec((2, 2, 2), (1, 1, 1))
        for name, params in [("d_n", (4,)), ("fig1", ())]:
            f = corpus(name, params)
            assert (
                zeta.zeta_function(f).multiset()
                == zeta.zeta_function(pullback_cyclic(f, spec)).multiset()
            )


class TestExpandZeta:
    def test_brieskorn_expansion(self):
        num, den = expand_zeta(zeta.zeta_function(corpus("brieskorn_curve")))
        expected = [0] * 41
        expected[0], expected[20], expected[40] = 1, -2, 1
        assert num == expected
        assert den == [1]

    def test_pure_denominator(self):
        z = ZetaFunction((ZetaFactor(2, -1, frozenset({1}), (1,), 2),))
        num, den = expand_zeta(z)
        assert num == [1]
        assert den == [1, 0, -1]

    def test_cancelling_factors(self):
        z = ZetaFunction(
            (
                ZetaFactor(2, 1, frozenset({1}), (1,), -2),
                ZetaFactor(2, -1, frozenset({1}), (1,), 2),
            )
        )
        assert z.merged() == ()
        assert z.product_text() == "1"
        assert expand_zeta(z) == ([1], [1])

    def test_gcd_reduction(self):
        z = ZetaFunction(
            (
                ZetaFactor(4, 1, frozenset({1}), (1,), -4),
                ZetaFactor(2, -1, frozenset({1}), (1,), 2),
            )
        )
        assert expand_zeta(z) == ([1, 0, 1], [1])

    def test_matches_rational_oracle(self):
        # the integer cyclotomic netting against Fraction products reduced
        # by a Euclidean gcd, on random factor sets with cancellation
        rng = np.random.default_rng(4)
        for _ in range(500):
            k = int(rng.integers(1, 5))
            factors = tuple(
                ZetaFactor(d, e, frozenset({1}), (1,), -d * e)
                for d, e in zip(rng.integers(1, 13, size=k).tolist(), rng.integers(-3, 4, size=k).tolist())
            )
            z = ZetaFunction(factors)
            assert expand_zeta(z) == expand_zeta_oracle(z), z.merged()

    def test_one_variable_monodromy_oracle(self):
        # fiber-point count plus tracked cyclic monodromy: the denominator
        # of the expansion must equal prod over cycles of (1 - t^len)
        for a, b in [(3, 1), (4, 1), (5, 2), (6, 1), (7, 2), (9, 1), (8, 0)]:
            m = a - b
            if not 2 <= m <= 8:
                continue
            cycles = tracked_monodromy_cycles(a, b)
            den_oracle = [Fraction(1)]
            from helpers import _one_minus_td, _poly_mul

            for length in cycles:
                den_oracle = _poly_mul(den_oracle, _one_minus_td(length))
            num, den = expand_zeta(
                zeta.zeta_function(MixedPoly.monomial(1, (a,), (b,)))
            )
            assert num == [1]
            assert den == [int(x) for x in den_oracle]
