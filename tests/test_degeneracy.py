"""Criticality residual, the non-degeneracy falsifier, and tameness checks."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_mixed_poly, random_point, random_real_valued_poly, repeated_power
from mixedmilnor import degeneracy as dg
from mixedmilnor import lattice, newton
from mixedmilnor.constructors import corpus, join
from mixedmilnor.degeneracy import NondegStatus, TameStatus
from mixedmilnor.errors import NotEssentialFaceError, NotVanishingError
from mixedmilnor.poly import GaussianRational, MixedPoly, parse_poly


class TestCriticalityResidual:
    def test_real_valued_everywhere_critical(self):
        rng = np.random.default_rng(89)
        k = parse_poly("|z1|^2 + |z2|^4 - |z3|^2")
        for _ in range(25):
            p = random_point(rng, 3)
            assert dg.criticality_residual(k, p) <= 1e-24

    def test_tibar_regular_point(self):
        assert dg.criticality_residual(corpus("tibar"), [1, 1]) == pytest.approx(2 / 9)

    def test_holomorphic_submersion(self):
        f = parse_poly("z1", n=2)
        assert dg.criticality_residual(f, [0.3, 0.8]) == 1.0

    def test_holomorphic_zero_iff_critical(self):
        f = parse_poly("z1^2 + 2*z1*z2 + z2^2")  # (z1+z2)^2
        assert dg.criticality_residual(f, [1, -1]) <= 1e-12
        assert dg.criticality_residual(f, [1, 1]) > 0.5

    def test_phase_and_scale_invariance(self):
        rng = np.random.default_rng(97)
        for _ in range(30):
            f = random_mixed_poly(rng)
            p = random_point(rng, f.n)
            base = dg.criticality_residual(f, p)
            for c in [2, -3, 0.25, np.exp(0.7j), 1.5 * np.exp(-2.1j)]:
                re = Fraction(float(np.real(c))).limit_denominator(10**9)
                im = Fraction(float(np.imag(c))).limit_denominator(10**9)
                from mixedmilnor.poly import GaussianRational

                scaled = f * GaussianRational(re, im)
                val = dg.criticality_residual(scaled, p)
                assert val == pytest.approx(base, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1e-60, 1e60, 1e100])
    def test_scale_safe_at_tiny_and_huge_gradients(self, scale):
        # tibar's gradients scale by scale^2: their squared norms underflow
        # or overflow, the residual does not, and warns of neither
        value = dg.criticality_residual(corpus("tibar"), np.array([1, 1]) * scale)
        assert value == pytest.approx(2 / 9, rel=1e-12)

    def test_overflowing_monomial_leaves_gradients_finite(self):
        # tibar's monomial overflows at |z| = 1e150; the derivatives do not
        with np.errstate(over="ignore"):
            grads = corpus("tibar").gradients([1e150, 1e150])
            value = dg.criticality_residual(corpus("tibar"), np.array([1e150, 1e150]))
        assert grads.d_zbar[0] == 0
        assert np.isfinite(grads.d_z).all() and np.isfinite(grads.d_zbar).all()
        assert value == pytest.approx(2 / 9, rel=1e-12)

    def test_out_of_range_nan_gradient_stays_nan(self):
        # at |z| = 1e200 dz_1 = 3 z1^2 - 2 z1 z2 is inf - inf = nan; the
        # rescale must not loop on it
        f = parse_poly("z1^3 - z1^2*z2")
        with np.errstate(all="ignore"):
            value = dg.criticality_residual(f, np.array([1e200, 1e200]))
        assert math.isnan(value)

    def test_exact_recheck_matches_float(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            f = random_mixed_poly(rng, n=2, max_exp=2)
            p = random_point(rng, 2)
            exact = float(dg.criticality_residual_exact(f, p))
            approx = dg.criticality_residual(f, p)
            assert exact == pytest.approx(approx, rel=1e-9, abs=1e-12)

    def test_exact_recheck_matches_repeated_products(self, monkeypatch):
        rng = np.random.default_rng(101)
        cases = [(random_mixed_poly(rng, n=2, max_exp=2), random_point(rng, 2), None) for _ in range(10)]
        f = corpus("tibar_a", (1,))
        cases.append((f, dg.local_tameness_check(f, {1}, budget=16, seed=0).witness[1], {2}))
        squared = [dg.criticality_residual_exact(f, p, free) for f, p, free in cases]
        monkeypatch.setattr(dg, "_power", repeated_power)
        assert squared == [dg.criticality_residual_exact(f, p, free) for f, p, free in cases]
        assert squared[-1] == 0


class TestRealSpanResidual:
    def test_matches_least_squares_at_every_rank(self):
        rng = np.random.default_rng(149)
        t, b1, b2 = (rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3)) for _ in range(3))
        b2[10:20] = b1[10:20] * (1 / 3)  # rank 1 up to rounding
        b2[20:25] = b1[20:25] * np.exp(0.3j)  # independent over R
        b1[25:30] = 0  # rank 1 from the second vector
        b1[30:35] = b2[30:35] = 0  # rank 0

        def real(x):
            return np.concatenate([x.real, x.imag])

        for i, res in enumerate(dg.real_span_residual(t, b1, b2)):
            A = np.stack([real(b1[i]), real(b2[i])], axis=1)
            coeffs, *_ = np.linalg.lstsq(A, real(t[i]), rcond=None)
            expected = np.linalg.norm(real(t[i]) - A @ coeffs)
            assert res == pytest.approx(expected, rel=1e-12), i
            assert dg.real_span_residual(t[i], b1[i], b2[i]) == res

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_scale_safe(self, scale):
        # the squares of these entries under- or overflow; the residual is
        # linear in the target and blind to the scale of the basis
        rng = np.random.default_rng(151)
        t, b1, b2 = (rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)) for _ in range(3))
        base = dg.real_span_residual(t, b1, b2)
        assert dg.real_span_residual(t, b1 * scale, b2 / scale) == pytest.approx(base, rel=1e-14)
        assert dg.real_span_residual(t * scale, b1, b2) == pytest.approx(base * scale, rel=1e-14)


class TestFalsifier:
    def test_tibar_no_critical_points(self):
        verdicts = dg.falsify_nondegeneracy(corpus("tibar"), budget=24, seed=0)
        assert verdicts
        assert all(v.status is NondegStatus.NO_CRITICAL_POINT_FOUND for v in verdicts)
        assert all(v.residual_stats.min_residual > 0 for v in verdicts)

    def test_cone_witness_on_k_face(self):
        verdicts = dg.falsify_nondegeneracy(corpus("cone", (1, 2, 1, 1)), budget=24, seed=0)
        hits = [v for v in verdicts if v.status is NondegStatus.CRITICAL_POINT_WITNESS]
        assert len(hits) == 1
        v = hits[0]
        assert v.face.generators == {(3, 0), (1, 2)}
        assert dg.criticality_residual(v.face_function, v.witness) < 1e-10

    def test_degenerate_status_for_unit_phase_real(self):
        f = parse_poly("i*|z1|^2 - i*|z2|^2")
        verdicts = dg.falsify_nondegeneracy(f, budget=4, seed=0)
        assert any(v.status is NondegStatus.DEGENERATE for v in verdicts)

    def test_deterministic_given_seed(self):
        a = dg.falsify_nondegeneracy(corpus("tibar"), budget=8, seed=5)
        b = dg.falsify_nondegeneracy(corpus("tibar"), budget=8, seed=5)
        assert [v.residual_stats for v in a] == [v.residual_stats for v in b]

    def test_no_false_witnesses_on_nondegenerate_corpus(self):
        for name, params, budget in [
            ("parusinski", (), 8),
            ("brieskorn_curve", (), 12),
        ]:
            verdicts = dg.falsify_nondegeneracy(corpus(name, params), budget=budget, seed=0)
            assert all(
                v.status is NondegStatus.NO_CRITICAL_POINT_FOUND for v in verdicts
            ), name


def _planted_critical_face(rng, n, T, free):
    """A polynomial with T terms in n variables and a critical point on the
    free variables at z = (1, ..., 1), or None when the draw gives none.

    With A = nu + mu and B = nu - mu restricted to the free columns, one
    random combination x of a basis of ker B^T and one y of ker A^T give
    coefficients c = x + i y; at z = 1 the terms are u = c, so the
    criticality equations B^T x = 0, A^T y = 0 hold, and c is a polynomial
    of T terms when no c_k is zero.
    """
    monos = set()
    while len(monos) < T:
        nu = tuple(int(e) for e in rng.integers(0, 3, size=n))
        mu = tuple(int(e) for e in rng.integers(0, 3, size=n))
        monos.add((nu, mu))
    monos = sorted(monos)
    cols = [j - 1 for j in free]

    def combination(sign):
        rows = [[nu[j] + sign * mu[j] for nu, mu in monos] for j in cols]
        basis = lattice.nullspace(rows, T)
        weights = [int(w) for w in rng.integers(-4, 5, size=len(basis))]
        return [sum((w * b[k] for w, b in zip(weights, basis)), Fraction(0)) for k in range(T)]

    c = [GaussianRational(a, b) for a, b in zip(combination(-1), combination(1))]
    if not all(c):
        return None
    return MixedPoly(n, dict(zip(monos, c)))


class TestSupportCertificate:
    def test_never_fires_on_a_planted_critical_point(self):
        rng = np.random.default_rng(811)
        planted = {"all": 0, "proper": 0}
        for _ in range(1200):
            n = int(rng.integers(1, 4))
            T = int(rng.integers(2, 6))
            if n > 1 and rng.random() < 0.6:
                size = int(rng.integers(1, n))
                free = sorted(int(j) for j in rng.choice(np.arange(1, n + 1), size, replace=False))
                kind = "proper"
            else:
                free, kind = list(range(1, n + 1)), "all"
            f = _planted_critical_face(rng, n, T, free)
            if f is None:
                continue
            planted[kind] += 1
            assert dg.criticality_residual_exact(f, [1.0] * n, free=free) == 0, f
            assert dg.support_certificate(f, free) is None, (f, free)
        assert planted["all"] >= 150 and planted["proper"] >= 150, planted

    def test_never_fires_on_a_unit_phase_real_polynomial(self):
        rng = np.random.default_rng(812)
        phase = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        for _ in range(100):
            f = random_real_valued_poly(rng) * phase
            if f.is_zero():
                continue
            for size in range(1, f.n + 1):
                free = sorted(int(j) for j in rng.choice(np.arange(1, f.n + 1), size, replace=False))
                assert dg.support_certificate(f, free) is None, (f, free)

    @pytest.mark.parametrize(
        "params", [(1, 2, a1, a2) for a1 in (1, 2, 3) for a2 in (1, 2, 3)] + [(1, 3, 1, 1, 1)]
    )
    def test_never_fires_on_the_cone_witness_face(self, params):
        # cone = z1 * (a real factor taking both signs): the whole support is
        # the compact face that carries the planted critical points
        f = corpus("cone", params)
        (face,) = [fc for fc in newton.all_faces(f) if fc.generators == f.support()]
        assert dg.support_certificate(newton.face_function(f, face), range(1, f.n + 1)) is None

    def test_fires_on_every_single_monomial_face_of_the_corpus(self):
        checked = 0
        for name, params in [
            ("tibar", ()), ("tibar_a", (5,)), ("parusinski", ()), ("cone", (1, 2, 1, 1)),
            ("cyclic", (2, 3)), ("brieskorn_curve", ()), ("d_n", (4,)), ("fig1", ()),
        ]:
            for v in dg.falsify_nondegeneracy(corpus(name, params), budget=1, seed=0):
                if len(v.face_function.terms) != 1:
                    continue
                (mono,) = v.face_function.terms
                if mono.nu == mono.mu:
                    assert v.status is NondegStatus.DEGENERATE
                else:
                    assert v.certified_by == "support[1]", (name, v.face_function)
                    assert v.status is NondegStatus.NO_CRITICAL_POINT_FOUND
                    assert v.residual_stats.restarts == 0
                    assert v.residual_stats.min_residual > 0
                checked += 1
        assert checked > 20

    def test_label_counts_terms_in_printed_order(self):
        # |z3|^2 leaves x free, so only the other term is forced; it is
        # written first but printed second
        f = parse_poly("(-2+1/2i)*z1^2*zb1*z2^2*zb2*zb3 + (1-1/3i)*|z3|^2")
        assert f.to_text().startswith("(1-1/3i)*|z3|^2 + ")
        assert dg.support_certificate(f, [1, 2, 3]) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_no_corner_witness_on_a_certified_face(self, seed):
        # the search used to reach a residual of 2.7e-11 on the corner of
        # the log box, where the second term is 5e-8 of the first
        f = parse_poly("(1-1/3i)*|z3|^2 + (-2+1/2i)*z1^2*zb1*z2^2*zb2*zb3")
        verdicts = dg.falsify_nondegeneracy(f, budget=2, seed=seed)
        assert all(v.status is not NondegStatus.CRITICAL_POINT_WITNESS for v in verdicts)
        two_term = [v for v in verdicts if len(v.face_function.terms) == 2]
        assert two_term and all(v.certified_by == "support[2]" for v in two_term)
        for v in two_term:
            assert dg.nondeg_verdict_to_json(v)["certified_by"] == "support[2]"

    def test_tameness_certificate_replaces_a_corner_witness(self):
        f = parse_poly(
            "(-1-2i)*|z1|^2*z2*zb2^2*zb3^2 + (-2+3/2i)*|z1|^4*|z2|^2*zb3"
            " + (2-2/3i)*|z1|^4*z2*zb2^2*z3*zb3^2"
        )
        verdict = dg.local_tameness_check(f, {3}, budget=8, seed=5)
        by_face = {fr.face.generators: fr for fr in verdict.faces}
        edge = by_face[frozenset({(2, 3, 2), (4, 2, 1)})]
        assert edge.status is TameStatus.TAME_CERTIFIED
        assert edge.certified_by == "support[1]"
        assert edge.certified_radius == math.inf
        assert edge.stats is None
        # f on {(4,2,1)} is a unit phase times a real polynomial in z1, z2
        assert by_face[frozenset({(4, 2, 1)})].status is TameStatus.NOT_TAME
        assert verdict.status is TameStatus.NOT_TAME


class TestWitnessPolys:
    def _essential_faces(self, f):
        return newton.essential_noncompact_faces(f)

    def test_cyclic_maximal_face(self):
        f = corpus("cyclic", (2, 2, 2))
        faces = newton.faces_with_directions(f, {3})
        edge = next(fc for fc in faces if len(fc.generators) == 2)
        T = dg.tameness_witness_polys(f, edge)
        assert T[1] == parse_poly("1/4*|z3|^4", n=3)

    def test_cyclic_vertex_face_pinned_value(self):
        # single-monomial face z_k^{a_k} zbar_{k+1}: the witness polynomial
        # in slot k is -(a_k^2)/4 |z_k|^(2a_k-2) |z_{k+1}|^2
        f = corpus("cyclic", (3, 2, 4))
        faces = newton.faces_with_directions(f, {2})
        vertex = next(
            fc for fc in faces if fc.generators == {(3, 1, 0)}
        )  # z1^3 zbar2
        T = dg.tameness_witness_polys(f, vertex)
        assert T[1] == parse_poly("-9/4*|z1|^4*|z2|^2", n=3)

    def test_modified_tibar_family(self):
        for a in (1, 2, 3):
            f = corpus("tibar_a", (a,))
            (face,) = newton.faces_with_directions(f, {1})
            T = dg.tameness_witness_polys(f, face)
            expected = parse_poly(f"|z1|^2*|z2|^{2*a}", n=2) * Fraction(1 - a * a, 4)
            assert T[2] == expected

    def test_holomorphic_face_square_modulus(self):
        f = corpus("fig1")
        (face,) = self._essential_faces(f)
        T = dg.tameness_witness_polys(f, face)
        # f_face = z1^3 + z2 z3^2; T_j = -|d f/dz_j|^2 / 4
        assert T[1] == parse_poly("-9/4*|z1|^4", n=3)
        assert T[2] == parse_poly("-1/4*|z3|^4", n=3)

    def test_real_valued_invariant(self):
        for name, params in [
            ("tibar", ()),
            ("tibar_a", (3,)),
            ("parusinski", ()),
            ("cyclic", (2, 2, 2)),
            ("d_n", (4,)),
            ("fig1", ()),
        ]:
            f = corpus(name, params)
            for I in newton.vanishing_subsets(f).vanishing:
                for face in newton.faces_with_directions(f, I):
                    for T in dg.tameness_witness_polys(f, face).values():
                        assert T.is_real_valued()

    def test_matches_real_imag_part_definition(self):
        # T_j from f's own derivatives equals Im(dzbar_j g * conj dzbar_j h)
        # built from g = Re f and h = Im f
        polys = [
            corpus(name, params)
            for name, params in [
                ("tibar", ()), ("tibar_a", (3,)), ("parusinski", ()), ("cone", (1, 2, 1, 1)),
                ("cyclic", (2, 2, 2)), ("brieskorn_curve", ()), ("d_n", (4,)), ("fig1", ()),
            ]
        ]
        rng = np.random.default_rng(2024)
        polys += [random_mixed_poly(rng, n=int(rng.integers(2, 5))) for _ in range(200)]
        checked = 0
        for f in polys:
            for face in newton.essential_noncompact_faces(f):
                fd = newton.face_function(f, face)
                g, h = fd.real_imag_parts()
                T = dg.tameness_witness_polys(f, face)
                for j in range(1, f.n + 1):
                    if j in face.noncompact_directions:
                        continue
                    q = g.wirtinger(j, "zbar") * h.wirtinger(j, "zbar").conjugate()
                    assert T[j] == (q - q.conjugate()) * GaussianRational.of(0, Fraction(-1, 2))
                    checked += 1
        assert checked > 500

    def test_rejects_compact_face(self):
        f = corpus("fig1")
        compact = next(fc for fc in newton.all_faces(f) if fc.is_compact())
        with pytest.raises(NotEssentialFaceError):
            dg.tameness_witness_polys(f, compact)


class TestLocalTameness:
    def test_face_function_built_once_per_face(self, monkeypatch):
        built = []
        original = newton.face_function

        def counting(f, face):
            built.append(face)
            return original(f, face)

        monkeypatch.setattr(newton, "face_function", counting)
        f = corpus("tibar_a", (1,))
        verdict = dg.local_tameness_check(f, {1}, budget=4)
        assert len(built) == len(verdict.faces) >= 1

    def test_not_vanishing_rejected(self):
        with pytest.raises(NotVanishingError):
            dg.local_tameness_check(corpus("fig1"), {1})

    def test_tibar_a_one_not_tame_with_exact_witness(self):
        f = corpus("tibar_a", (1,))
        verdict = dg.local_tameness_check(f, {1}, budget=16, seed=0)
        assert verdict.status is TameStatus.NOT_TAME
        zi, point = verdict.witness
        assert np.linalg.norm(zi) <= 0.1 + 1e-12
        assert float(dg.criticality_residual_exact(f, point, free={2})) == 0.0

    def test_tibar_a_two_certified(self):
        verdict = dg.local_tameness_check(corpus("tibar_a", (2,)), {1}, seed=0)
        assert verdict.status is TameStatus.TAME_CERTIFIED
        assert verdict.certified_radius == math.inf

    def test_cyclic_all_axes_certified(self):
        f = corpus("cyclic", (2, 2, 2))
        for k in (1, 2, 3):
            verdict = dg.local_tameness_check(f, {k}, seed=0)
            assert verdict.status is TameStatus.TAME_CERTIFIED
            assert verdict.certified_radius == math.inf

    def test_right_end_rule_two_variables(self):
        # single-monomial z1^m zb1^n z2^a zb2^b with a+b >= 1 is locally
        # tame along the z1 axis exactly when a != b
        cases = []
        for m, n, a, b in [
            (1, 0, 1, 0),
            (1, 0, 2, 0),
            (1, 1, 1, 1),
            (2, 0, 1, 1),
            (1, 0, 2, 1),
            (0, 1, 0, 2),
            (2, 1, 3, 3),
            (1, 2, 2, 3),
        ]:
            f = MixedPoly.monomial(2, {1: m, 2: a}, {1: n, 2: b})
            verdict = dg.local_tameness_check(f, {1}, budget=12, seed=0)
            expected = TameStatus.TAME_CERTIFIED if a != b else TameStatus.NOT_TAME
            cases.append((m, n, a, b, verdict.status, expected))
        for m, n, a, b, got, expected in cases:
            assert got is expected, (m, n, a, b, got)

    def test_join_of_tame_inputs_certified(self):
        f, _ = join(corpus("tibar_a", (2,)), corpus("tibar_a", (3,)))
        report = newton.vanishing_subsets(f)
        for I in sorted(report.vanishing, key=sorted):
            verdict = dg.local_tameness_check(f, I, budget=8, seed=0)
            assert verdict.status is TameStatus.TAME_CERTIFIED, sorted(I)

    def test_inconclusive_reports_the_search(self):
        # T_2 = |z1|^2 (8|z2|^2 + 2 z2^2 + 2 zb2^2) is strictly positive on
        # the torus but not a same-sign diagonal combination, so the
        # symbolic certificate cannot fire; the frozen search finds no
        # witness either, leaving Inconclusive with the search reported
        f = parse_poly("z1*z2^2 + 2*z1*|z2|^2 + 3*z1*zb2^2")
        verdict = dg.local_tameness_check(f, {1}, budget=8, seed=0)
        assert verdict.status is TameStatus.INCONCLUSIVE
        searched = [fr for fr in verdict.faces if fr.status is TameStatus.INCONCLUSIVE]
        assert searched
        for fr in searched:
            assert fr.stats is not None
            assert fr.certified_radius > 0

    def test_radii_aggregation(self):
        f = corpus("tibar_a", (1,))
        verdicts = {
            I: dg.local_tameness_check(f, I, budget=8, seed=0)
            for I in newton.vanishing_subsets(f).vanishing
        }
        radii = dg.tameness_radii(verdicts, r0=0.5)
        assert radii.r_I[frozenset({2})] == math.inf
        assert radii.r_nc == radii.r_I[frozenset({1})]
        assert radii.rho_0 == min(radii.r_nc, 0.5)

    def test_convenient_radii_infinite(self):
        radii = dg.tameness_radii({}, r0=math.inf)
        assert radii.r_nc == math.inf and radii.rho_0 == math.inf


def _count_minimize(monkeypatch):
    """The list that gets one entry per scipy minimize call degeneracy makes."""
    calls = []
    real_minimize = dg.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(dg, "minimize", counted)
    return calls


class TestBoundedSearch:
    # a search without bounds once reached |z_1| ~ 1e6, |z_2| ~ 6e-11 on the
    # face below, where the frozen-z_I search is clean, and came back NotTame
    # on that escaped point
    @pytest.mark.parametrize(
        "text, I, seed",
        [
            (
                "(-1+2i)*z1^2*zb1*z2*zb2 + (-1+3i)*|z1|^2*|z2|^2*zb3^2 + (-2+3i)*z1^2*z2*zb2",
                {3},
                88,
            ),
        ],
    )
    def test_frozen_search_stays_in_the_log_box(self, text, I, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = dg.local_tameness_check(parse_poly(text), I, budget=8, seed=seed)
        assert verdict.status is not TameStatus.NOT_TAME

    def test_one_nelder_mead_pass_per_start(self, monkeypatch):
        calls = _count_minimize(monkeypatch)
        # a positive minimum: every start runs, and nothing runs after them
        dg._multistart(lambda x: 1.0 + float(np.sum(x**2)), 2, 5, np.random.default_rng(3))
        assert len(calls) == 5
        # a zero minimum: the first start converges below the early stop
        calls.clear()
        value, _, _ = dg._multistart(lambda x: float(np.sum(x**2)), 2, 5, np.random.default_rng(3))
        assert value < dg.WITNESS_THRESHOLD * 1e-2
        assert len(calls) == 1

    def test_positive_minimum_search_stays_cheap(self):
        # the minimum is positive, so no start reaches the early stop and
        # every search must end at its passes' own tolerances
        f = parse_poly("z1*z2^2 + 2*z1*|z2|^2 + 3*z1*zb2^2")
        verdict = dg.local_tameness_check(f, {1}, budget=8, seed=0)
        assert verdict.status is TameStatus.INCONCLUSIVE
        searched = [fr for fr in verdict.faces if fr.stats is not None]
        assert searched
        for fr in searched:
            assert fr.stats.evaluations < 6000

    def test_clean_shells_end_the_tameness_search(self, monkeypatch):
        # when every frozen shell comes back clean, nothing else is searched:
        # one Nelder-Mead pass per counted restart, and no more
        calls = _count_minimize(monkeypatch)
        f = parse_poly("z1*z2^2 + 2*z1*|z2|^2 + 3*z1*zb2^2")
        verdict = dg.local_tameness_check(f, {1}, budget=8, seed=0)
        assert verdict.status is TameStatus.INCONCLUSIVE
        restarts = [fr.stats.restarts for fr in verdict.faces if fr.stats is not None]
        assert restarts and len(calls) == sum(restarts)

    @pytest.mark.parametrize("radius", [0.1, 1e-5])
    def test_small_shell_gives_no_witness(self, radius):
        # |f| is O(radius^4) on the shell, so at 1e-5 every point has a tiny
        # value; no terms cancel, and a small value is no witness
        f = parse_poly("(1-1/3i)*z1^2*|z2|^2 + (2+2i)*z1^2*z2*zb2^3")
        verdict = dg.local_tameness_check(f, {2}, probe_radius=radius, budget=8, seed=56)
        assert verdict.status is TameStatus.INCONCLUSIVE

    def test_infinite_simplex_ends_the_start(self):
        # the gradients overflow at every point, so every objective scores inf
        f = parse_poly("z1^2*|z2|^2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = dg.local_tameness_check(f, {1}, probe_radius=1e200, budget=1)
        assert verdict.status is TameStatus.INCONCLUSIVE
        (fr,) = [fr for fr in verdict.faces if fr.stats is not None]
        assert fr.stats.evaluations < 200

    def test_infinite_simplex_keeps_the_draws(self):
        k, budget = 2, 3
        rng = np.random.default_rng(5)
        value, x, evals = dg._multistart(lambda x: math.inf, k, budget, rng)
        assert (value, x, evals) == (math.inf, None, budget * (2 * k + 1))
        # each start drew its k log-magnitudes and k phases, and nothing else
        twin = np.random.default_rng(5)
        for _ in range(budget):
            twin.uniform(size=k)
            twin.uniform(size=k)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestStatsNames:
    def test_evaluations_count_objective_calls(self):
        verdicts = dg.falsify_nondegeneracy(corpus("cone", (1, 2, 1, 1)), budget=2, seed=0)
        v = next(v for v in verdicts if v.residual_stats.restarts)
        assert v.residual_stats.evaluations > v.residual_stats.restarts
        assert dg.nondeg_verdict_to_json(v)["stats"]["samples"] == v.residual_stats.evaluations
