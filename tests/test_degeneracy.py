"""Criticality residual, the non-degeneracy falsifier, and tameness checks."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    SEARCHED_NONDEG,
    _det,
    integerize,
    nullspace_oracle,
    random_gaussian,
    random_mixed_poly,
    random_point,
    random_real_valued_poly,
    rank_oracle,
    repeated_power,
)
from mixedmilnor import degeneracy as dg
from mixedmilnor import lattice, newton
from mixedmilnor.cli import main
from mixedmilnor.constructors import corpus, join
from mixedmilnor.degeneracy import NondegStatus, TameStatus
from mixedmilnor.errors import NotEssentialFaceError, NotVanishingError
from mixedmilnor.poly import MAX_POWER_BITS, GaussianRational, MixedMonomial, MixedPoly, parse_poly


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
        # every face is settled exactly, so none reports a search
        assert all(v.residual_stats == dg.NO_SEARCH for v in verdicts)
        assert dg.NO_SEARCH == dg.ResidualStats(0, math.inf, 0)
        assert dg.nondeg_verdict_to_json(verdicts[0])["stats"] == {
            "samples": 0, "min_residual": None, "restarts": 0}

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

    def test_exact_verdicts_do_no_float_work(self, monkeypatch):
        # floats reach a verdict only through a search start or a printed
        # witness, so faces settled without a search evaluate nothing
        def refuse(*args, **kwargs):
            raise AssertionError("float evaluation outside a search")

        monkeypatch.setattr(MixedPoly, "gradients", refuse)
        monkeypatch.setattr(MixedPoly, "evaluate_many", refuse)
        for f, label in [
            (corpus("tibar"), "support[1]"),
            (corpus("cone", (1, 2, 1, 1)), dg.PHASE_LATTICE),
            (parse_poly("i*|z1|^2 - i*|z2|^2"), None),
            (parse_poly("|z1|^2 + 1/2*z1^2"), dg.SIGN_CHANGE_F),
        ]:
            verdicts = dg.falsify_nondegeneracy(f, budget=4)
            assert label in [v.certified_by for v in verdicts], f.to_text()
            assert all(v.residual_stats == dg.NO_SEARCH for v in verdicts)
        for f, I in [(corpus("tibar_a", (1,)), [1]), (corpus("cone", (2, 3, 1, 2, 1)), [2, 3]),
                     (corpus("parusinski"), [2, 3])]:
            assert dg.local_tameness_check(f, I, budget=4).faces


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
        basis = [integerize(v) for v in nullspace_oracle(rows, T)]
        weights = [int(w) for w in rng.integers(-4, 5, size=len(basis))]
        return [sum((w * b[k] for w, b in zip(weights, basis)), Fraction(0)) for k in range(T)]

    c = [GaussianRational(a, b) for a, b in zip(combination(-1), combination(1))]
    if not all(c):
        return None
    return MixedPoly(n, dict(zip(monos, c)))


def _proves_none(decided):
    """True when an exact_decision result says there is no critical point."""
    return decided is not None and decided[1] is None


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
            assert not _proves_none(dg.exact_decision(f, free)), (f, free)
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
                assert not _proves_none(dg.exact_decision(f, free)), (f, free)

    @pytest.mark.parametrize(
        "params", [(1, 2, a1, a2) for a1 in (1, 2, 3) for a2 in (1, 2, 3)] + [(1, 3, 1, 1, 1)]
    )
    def test_never_fires_on_the_cone_witness_face(self, params):
        # cone = z1 * (a real factor taking both signs): the whole support is
        # the compact face that carries the planted critical points
        f = corpus("cone", params)
        (face,) = [fc for fc in newton.all_faces(f) if fc.generators == f.support()]
        assert not _proves_none(dg.exact_decision(newton.face_function(f, face), range(1, f.n + 1)))

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
                    assert v.residual_stats == dg.NO_SEARCH
                checked += 1
        assert checked > 20

    def test_label_counts_terms_in_printed_order(self):
        # |z3|^2 leaves x free, so only the other term is forced; it is
        # written first but printed second
        f = parse_poly("(-2+1/2i)*z1^2*zb1*z2^2*zb2*zb3 + (1-1/3i)*|z3|^2")
        assert f.to_text().startswith("(1-1/3i)*|z3|^2 + ")
        assert dg.exact_decision(f, [1, 2, 3]) == ("support[2]", None)

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
        # on the face z1*z2^2 + 2*z1*|z2|^2 + 3*z1*zb2^2, T_2 =
        # |z1|^2 (8|z2|^2 + 2 z2^2 + 2 zb2^2) is strictly positive on the
        # torus but not a same-sign diagonal combination, so the symbolic
        # certificate cannot fire; the frozen search on its two free
        # variables (z1*z2*z3 brings in z3) finds no witness either, leaving
        # Inconclusive with the search reported
        f = parse_poly(TWO_FREE_CLEAN)
        verdict = dg.local_tameness_check(f, {1}, budget=8, seed=0)
        assert verdict.status is TameStatus.INCONCLUSIVE
        searched = [fr for fr in verdict.faces if fr.status is TameStatus.INCONCLUSIVE]
        assert searched
        for fr in searched:
            assert fr.stats is not None
            assert fr.certified_radius > 0

    def test_stats_exactly_when_searched(self):
        # a face carries search stats exactly when no certificate decided it
        cases = [("tibar", ()), ("tibar_a", (2,)), ("parusinski", ()), ("cone", (1, 3, 1, 2, 1)),
                 ("cyclic", (2, 2, 3)), ("brieskorn_curve", ()), ("d_n", (4,)), ("fig1", ())]
        searched = 0
        for name, params in cases:
            f = corpus(name, params)
            for I in newton.vanishing_subsets(f).vanishing:
                for fr in dg.local_tameness_check(f, I, budget=8, seed=0).faces:
                    assert (fr.stats is None) == (fr.certified_by is not None), (name, sorted(I))
                    searched += fr.stats is not None
        assert searched


# the face z1*z2^2 + 2*z1*|z2|^2 + 3*z1*zb2^2 has no critical point, and
# with I = {1} its frozen search has two free variables, z2 and z3: a search
# with one free variable is decided exactly at each shell instead
TWO_FREE_CLEAN = "z1*z2^2 + 2*z1*|z2|^2 + 3*z1*zb2^2 + z1*z2*z3"


def _count_minimize(monkeypatch):
    """The list that gets one entry per Nelder-Mead start degeneracy makes through minimize."""
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
        *_, starts = dg._multistart(lambda x: 1.0 + float(np.sum(x**2)), 2, 5, np.random.default_rng(3))
        assert len(calls) == starts == 5
        # a zero minimum: the first start converges below the early stop
        calls.clear()
        value, _, _, starts = dg._multistart(lambda x: float(np.sum(x**2)), 2, 5, np.random.default_rng(3))
        assert value < dg.WITNESS_THRESHOLD * 1e-2
        assert len(calls) == starts == 1

    def test_positive_minimum_search_stays_cheap(self):
        # the minimum is positive, so no start reaches the early stop and
        # every search must end at its passes' own tolerances
        f = parse_poly(TWO_FREE_CLEAN)
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
        f = parse_poly(TWO_FREE_CLEAN)
        verdict = dg.local_tameness_check(f, {1}, budget=8, seed=0)
        assert verdict.status is TameStatus.INCONCLUSIVE
        restarts = [fr.stats.restarts for fr in verdict.faces if fr.stats is not None]
        assert restarts and len(calls) == sum(restarts)

    def test_witness_shell_ends_the_tameness_search(self, monkeypatch):
        # the search finds the face of the first two terms (a sweep face)
        # NotTame on its first shell, with z1 and z4 free; with the four
        # outer shells made clean it ends at the fifth, the first to hold a
        # witness.  Its restarts count the Nelder-Mead passes it ran: one per
        # restart on each clean shell, and on the witness shell those up to
        # the start that found it
        f = parse_poly("-4/3i*|z1|^2*|z2|^2*z3^3*zb3^2 + (4-2/3i)*z1^2*z2^3*|z3|^6 + z1^2*z2^3*|z3|^6*z4")
        radius, budget = 0.1, 24
        per_shell = max(1, budget // 12)
        residual, multistart = dg._guarded_residual, dg._multistart

        def outer_clean(fpoly, p, free):
            return 1.0 if np.linalg.norm(p[1:3]) > 0.75 * radius else residual(fpoly, p, free)

        calls, shells = _count_minimize(monkeypatch), []

        def counted(*args):
            before = len(calls)
            out = multistart(*args)
            shells.append(len(calls) - before)
            return out

        monkeypatch.setattr(dg, "_guarded_residual", outer_clean)
        monkeypatch.setattr(dg, "_multistart", counted)
        verdict = dg.local_tameness_check(f, {2, 3}, probe_radius=radius, budget=budget, seed=1)
        assert verdict.status is TameStatus.NOT_TAME
        (fr,) = [fr for fr in verdict.faces if fr.stats is not None]
        assert fr.status is TameStatus.NOT_TAME and fr.certified_by is None
        assert len(shells) == 5 and shells[:4] == [per_shell] * 4 and 1 <= shells[4] <= per_shell
        assert fr.stats.restarts == len(calls) == sum(shells)
        assert fr.certified_radius == pytest.approx(radius / 2)

    def test_searched_nondeg_face_counts_the_budget(self, monkeypatch):
        # the falsifier is the same search with nothing frozen and one shell
        calls = _count_minimize(monkeypatch)
        f = parse_poly("(-2+2i)*|z1|^2 + (2+i)*zb1*z2^2 + (-1+i)*z2^3*zb2")
        verdicts = dg.falsify_nondegeneracy(f, budget=5, seed=0)
        (searched,) = [v for v in verdicts if v.certified_by is None and v.status is not NondegStatus.DEGENERATE]
        assert searched.residual_stats.restarts == len(calls)
        assert 1 <= len(calls) <= 5

    @pytest.mark.parametrize("radius", [0.1, 1e-5])
    def test_small_shell_gives_no_witness(self, radius):
        # |f| is O(radius^4) on the shell, so at 1e-5 every point has a tiny
        # value; no terms cancel, and a small value is no witness.  The last
        # term is off the face and makes z3 a second free variable
        f = parse_poly("(1-1/3i)*z1^2*|z2|^2 + (2+2i)*z1^2*z2*zb2^3 + z1^2*z2*z3")
        verdict = dg.local_tameness_check(f, {2}, probe_radius=radius, budget=8, seed=56)
        assert verdict.status is TameStatus.INCONCLUSIVE

    def test_infinite_simplex_ends_the_start(self):
        # the gradients overflow at every point, so every objective scores inf;
        # the face of the first two terms has dependent A_J rows (2, 0), (2, 0)
        # on its free variables z2 and z3, so it is searched
        f = parse_poly("z1^2*|z2|^2 + z1^2*z2^2 + z1^2*z2*z3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = dg.local_tameness_check(f, {1}, probe_radius=1e200, budget=1)
        assert verdict.status is TameStatus.INCONCLUSIVE
        (fr,) = [fr for fr in verdict.faces if fr.stats is not None]
        assert fr.stats.evaluations < 200

    def test_infinite_simplex_keeps_the_draws(self):
        k, budget = 2, 3
        rng = np.random.default_rng(5)
        value, x, evals, starts = dg._multistart(lambda x: math.inf, k, budget, rng)
        assert (value, x, evals, starts) == (math.inf, None, budget * (2 * k + 1), budget)
        # each start drew its k log-magnitudes and k phases, and nothing else
        twin = np.random.default_rng(5)
        for _ in range(budget):
            twin.uniform(size=k)
            twin.uniform(size=k)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestStatsNames:
    def test_evaluations_count_objective_calls(self):
        # the three-term face has dependent A rows, so it is searched
        f = parse_poly("(-2+2i)*|z1|^2 + (2+i)*zb1*z2^2 + (-1+i)*z2^3*zb2")
        verdicts = dg.falsify_nondegeneracy(f, budget=2, seed=0)
        v = next(v for v in verdicts if v.residual_stats.restarts)
        assert v.residual_stats.evaluations > v.residual_stats.restarts
        assert dg.nondeg_verdict_to_json(v)["stats"]["samples"] == v.residual_stats.evaluations


# points of the unit circle with Gaussian-rational coordinates
UNIT_PHASES = [
    GaussianRational(Fraction(a, c), Fraction(b, c))
    for a, b, c in [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (3, 4, 5), (-4, 3, 5), (5, 12, 13),
                    (-12, -5, 13), (8, -15, 17)]
]


def _planted_covered_face(rng, n, T, free):
    """(f, z0): a polynomial of T terms in n variables whose A_J rows are
    independent, with a critical point on the free variables J at z0, whose
    coordinates are Gaussian-rational units; None when the draw gives none.

    B = nu - mu is drawn of rank below T (T rows in the span of fewer),
    so ker B_J^T is not zero, and nu, mu add a random 0 or 1 to its parts.
    x, a random combination of a basis of ker B_J^T, sets each coefficient
    c_k = x_k / (z0^nu_k zb0^mu_k), so the terms at z0 are the reals x_k.
    """
    span = rng.integers(-1, 2, size=(int(rng.integers(0, T)), n))
    b = rng.integers(-1, 2, size=(T, len(span))) @ span
    d = rng.integers(0, 2, size=(T, n))
    monos = sorted({
        (tuple(map(int, np.maximum(row, 0) + dk)), tuple(map(int, np.maximum(-row, 0) + dk)))
        for row, dk in zip(b.reshape(T, n), d)
    })
    if len(monos) < T:
        return None
    cols = [j - 1 for j in free]
    if rank_oracle([[nu[j] + mu[j] for j in cols] for nu, mu in monos]) < T:
        return None
    basis = [integerize(v) for v in nullspace_oracle([[nu[j] - mu[j] for nu, mu in monos] for j in cols], T)]
    weights = [int(w) for w in rng.integers(-4, 5, size=len(basis))]
    x = [sum(w * b[k] for w, b in zip(weights, basis)) for k in range(T)]
    if not all(x):
        return None
    z0 = [UNIT_PHASES[i] for i in rng.integers(0, len(UNIT_PHASES), size=n)]
    terms = {}
    for (nu, mu), xk in zip(monos, x):
        value = GaussianRational.of(1)
        for z, a, b in zip(z0, nu, mu):
            value = value * repeated_power(z, a, GaussianRational.of(1))
            value = value * repeated_power(z.conjugate(), b, GaussianRational.of(1))
        terms[(nu, mu)] = value.conjugate() * GaussianRational.of(xk)  # |value| = 1
    return MixedPoly(n, terms), [complex(z) for z in z0]


def _gram_det(vectors):
    return _det([[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors])


def _worst_shape(rng):
    """14 terms in 14 variables with independent A rows and B of rank 7,
    real coefficients (every rho is real, so only parity and Fourier-Motzkin
    decide): B = C W for random 14 x 7 and 7 x 14 matrices of -1, 0, 1."""
    n = 14
    while True:
        w = rng.integers(-1, 2, size=(7, n))
        terms = {}
        for k, b in enumerate(rng.integers(-1, 2, size=(n, 7)) @ w):
            nu, mu = np.maximum(b, 0), np.maximum(-b, 0)
            nu[k] += 1
            mu[k] += 1
            terms[(tuple(map(int, nu)), tuple(map(int, mu)))] = GaussianRational.of(int(rng.choice([1, -1, 2, -2])))
        f = MixedPoly(n, terms)
        rows = [[Fraction(a + b) for a, b in zip(m.nu, m.mu)] for m in f.terms]
        if len(f.terms) == n and rank_oracle(rows) == n:
            return f


class TestPhaseLattice:
    def test_decides_every_planted_critical_point(self):
        rng = np.random.default_rng(907)
        planted = {"all": 0, "proper": 0}
        for _ in range(800):
            n = int(rng.integers(2, 6))
            if rng.random() < 0.5:
                free, kind = list(range(1, n + 1)), "all"
            else:
                size = int(rng.integers(1, n))
                free = sorted(int(j) for j in rng.choice(np.arange(1, n + 1), size, replace=False))
                kind = "proper"
            T = int(rng.integers(min(2, len(free)), len(free) + 1))
            draw = _planted_covered_face(rng, n, T, free)
            if draw is None:
                continue
            f, z0 = draw
            assert dg.criticality_residual_exact(f, z0, free) < 1e-25, (f, free)
            radius = float(rng.choice([1.0, 0.1, 1e-3]))
            decided = dg.exact_decision(f, free, radius)
            assert decided is not None and decided[0] == "phase-lattice" and decided[1] is not None, (f, free)
            point = decided[1]
            assert dg.criticality_residual_exact(f, point, free) < dg.WITNESS_THRESHOLD
            others = [j - 1 for j in range(1, n + 1) if j not in free]
            if others:
                assert np.linalg.norm(point[others]) == pytest.approx(radius, rel=1e-12)
            planted[kind] += len(f.terms) > 1
        assert planted["all"] >= 80 and planted["proper"] >= 40, planted

    def test_never_says_none_on_dependent_rows(self):
        # the planted faces of TestSupportCertificate mostly have more terms
        # than free variables: the decision leaves such a face to the search,
        # and never reads y = 0 off dependent rows
        rng = np.random.default_rng(811)
        dependent = 0
        for _ in range(600):
            n = int(rng.integers(1, 4))
            T = int(rng.integers(2, 6))
            size = int(rng.integers(1, n + 1))
            free = sorted(int(j) for j in rng.choice(np.arange(1, n + 1), size, replace=False))
            f = _planted_critical_face(rng, n, T, free)
            if f is None:
                continue
            decided = dg.exact_decision(f, free)
            assert not _proves_none(decided), (f, free)
            dependent += decided is None
        assert dependent >= 200, dependent

    @pytest.mark.parametrize("seed, budget", [(24, 8), (0, 64), (1, 64), (2, 64)])
    def test_no_false_witness_where_rho_is_not_real(self, seed, budget):
        # f = a + c b with (a, b) = (|z1|^2 |z2|^6, |z1|^4 |z2|^4) a local
        # diffeomorphism of the moduli and c not real: df has rank 2 on the
        # torus.  The search once came back with a residual of 1e-14 at the
        # corner of its log box
        f = parse_poly("|z1|^2*|z2|^6 + (3/2-4/3i)*|z1|^4*|z2|^4")
        verdicts = dg.falsify_nondegeneracy(f, budget=budget, seed=seed)
        (v,) = [v for v in verdicts if len(v.face_function.terms) == 2]
        assert v.status is NondegStatus.NO_CRITICAL_POINT_FOUND
        assert v.certified_by == "phase-lattice"
        assert v.residual_stats.restarts == 0
        assert dg.nondeg_verdict_to_json(v)["certified_by"] == "phase-lattice"

    def test_parity_decides_a_face_with_real_phases(self):
        # |z1|^4 (1 + |z1|^2) z2^3 has no critical point: ker B^T asks for
        # x2 = -x1, while rho = 1 > 0 asks for two terms of one sign
        f = parse_poly("|z1|^4*z2^3 + |z1|^6*z2^3")
        assert dg.exact_decision(f, [1, 2]) == ("phase-lattice", None)

    def test_one_decision_takes_each_kernel_once(self, monkeypatch):
        # both kernels are read off the transforms of two Hermite forms, A_J
        # with |J| columns and [B_J | B_I | 1] with |J| + |I| + 1, taken once
        # each: on a face the phase test rejects, and on one with a witness
        # (|z3| at the radius), whose back-substitution reuses both forms
        calls = []
        real = lattice.hermite_rows
        monkeypatch.setattr(lattice, "hermite_rows", lambda *args: calls.append(args) or real(*args))
        f = parse_poly("|z1|^4*z2^3 + |z1|^6*z2^3")
        assert dg.exact_decision(f, [1, 2]) == ("phase-lattice", None)
        assert [args[1] for args in calls] == [2, 3]
        calls.clear()
        certified, point = dg.exact_decision(parse_poly("|z1|^2*z3 + |z2|^2*z3"), [1, 2])
        assert certified == "phase-lattice" and point is not None
        assert [args[1] for args in calls] == [2, 4]

    def test_z_basis_of_a_lattice_the_rref_vectors_miss(self):
        f = parse_poly(
            "-z1^2*zb1*zb2*z3^2*zb3^3 + zb1^3*z2^4*zb2*z3^3*|z4|^2"
            " + i*z1*zb1^3*z2^3*zb2*z3^2*|z4|^4 + 2*z1^4*zb1^2*zb2^2*z3^2*zb3^4*|z4|^4"
        )
        rows = [[*(a - b for a, b in zip(m.nu, m.mu)), 1] for m, _ in f._sorted_terms()]
        _, u, pivots = lattice.hermite_rows(rows, 5)
        rref = [integerize(v) for v in nullspace_oracle([[row[c] for row in rows] for c in range(5)], len(rows))]
        # the primitive RREF vectors span a sublattice of index 4 of L: their
        # test misses the parity of a vector of L outside it
        assert _gram_det(rref) == 16 * _gram_det(u[len(pivots):])
        assert dg.exact_decision(f, range(1, 5)) == ("phase-lattice", None)

    @pytest.mark.parametrize("radius", [1e200, 1e-200])
    def test_not_tame_at_every_radius(self, radius):
        f = parse_poly("z1^2*|z2|^2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = dg.local_tameness_check(f, {1}, probe_radius=radius, budget=1)
        assert verdict.status is TameStatus.NOT_TAME
        (fr,) = verdict.faces
        assert fr.certified_by == "phase-lattice"
        assert verdict.certified_radius == pytest.approx(radius, rel=1e-12)
        zi, point = verdict.witness
        assert list(zi) == [point[0]]
        assert dg.criticality_residual_exact(f, point, {2}) == 0

    def test_witness_that_fails_the_recheck_goes_to_the_search(self, monkeypatch):
        # a covered face with two free variables, z2 and z3
        f = parse_poly("z1*|z2|^2 - z1*|z3|^2")
        assert dg.exact_decision(f, [2, 3])[1] is not None
        monkeypatch.setattr(dg, "criticality_residual_exact", lambda *args: Fraction(1))
        assert dg.exact_decision(f, [2, 3]) is None
        calls = _count_minimize(monkeypatch)
        verdict = dg.local_tameness_check(f, {1}, budget=12, seed=0)
        assert calls and all(fr.certified_by != "phase-lattice" for fr in verdict.faces)

    def test_phase_product_is_a_positive_multiple_of_rho(self):
        rng = np.random.default_rng(353)
        for _ in range(100):
            coeffs = [
                GaussianRational(*(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))) for _ in "ri"))
                for _ in range(3)
            ]
            if not all(c.re or c.im for c in coeffs):
                continue
            lam = [int(x) for x in rng.integers(-5, 6, size=3)]
            rho = GaussianRational.of(1)
            for c, l in zip(coeffs, lam):
                rho = repeated_power(c.conjugate() if l > 0 else c, abs(l), rho)
            ratio = GaussianRational.of(*dg._phase_product(coeffs, lam)) / rho
            assert ratio.im == 0 and ratio.re > 0, (coeffs, lam)

    def test_phase_product_at_its_cap_is_fast(self):
        # 3/2 - 4/3i is 9 - 8i over 6: five bits a factor
        c = GaussianRational.of(Fraction(3, 2), Fraction(-4, 3))
        start = time.perf_counter()
        assert dg._phase_product([c], [MAX_POWER_BITS // 5]) is not None
        assert time.perf_counter() - start < 0.5
        assert dg._phase_product([c], [MAX_POWER_BITS // 5 + 1]) is None

    def test_witness_past_the_recheck_cap_goes_to_the_search(self):
        # z1^2 |z2|^E is critical at every point with z1 frozen; the witness
        # (1, 1) rechecks in numbers of E + 2 bits
        E = dg.MAX_RECHECK_BITS - 2
        assert dg.exact_decision(parse_poly(f"z1^2*|z2|^{E}"), [2])[1] is not None
        start = time.perf_counter()
        assert dg.exact_decision(parse_poly(f"z1^2*|z2|^{E + 2}"), [2]) is None
        assert dg.exact_decision(parse_poly("z1^2*|z2|^20000000"), [2]) is None
        assert time.perf_counter() - start < 0.1

    def test_covered_pool_requests_run_no_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a covered face reached the search")

        monkeypatch.setattr(dg, "_multistart", refuse)
        cones = [((1, 2, a1, a2), seed) for a1 in (1, 2, 3) for a2 in (1, 2, 3) for seed in (0, 1)]
        for params, seed in cones + [((1, 3, 1, 1, 1), 9)]:
            verdicts = dg.falsify_nondegeneracy(corpus("cone", params), budget=1, seed=seed)
            hits = [v for v in verdicts if v.status is NondegStatus.CRITICAL_POINT_WITNESS]
            assert hits and all(v.certified_by == "phase-lattice" for v in hits), params
        for params in [(), (1,)]:
            f = corpus("tibar_a", params) if params else corpus("tibar")
            for I in newton.vanishing_subsets(f).vanishing:
                dg.local_tameness_check(f, I, budget=1, seed=0)
            assert dg.local_tameness_check(f, {1}, budget=1, seed=0).status is TameStatus.NOT_TAME

    @pytest.mark.parametrize("seed", range(4))
    def test_worst_shape_is_bounded(self, seed):
        # n = T = 14 with dim ker B^T = 7: up to 2^13 sign vectors and a
        # Fourier-Motzkin elimination in 7 unknowns each, before the caps
        f = _worst_shape(np.random.default_rng(seed))
        monos = list(f.terms)
        assert rank_oracle([[a - b for a, b in zip(m.nu, m.mu)] for m in monos]) == 7
        start = time.perf_counter()
        decided = dg.exact_decision(f, range(1, 15))
        assert time.perf_counter() - start < 0.5
        if decided is not None and decided[1] is not None:
            assert dg.criticality_residual_exact(f, decided[1]) < dg.WITNESS_THRESHOLD


def _one_free_face(rng, groups, per_group=2):
    """(f, j, I): a random polynomial in n = 2 or 3 variables whose terms all
    have one degree D >= 1 in w = z_j, in `groups` groups of distinct
    b = nu_j - mu_j with 1 to per_group terms each; f vanishes on C^I, I the
    other variables, and its face of weight e_j is all of f."""
    n = int(rng.integers(2, 4))
    j = int(rng.integers(1, n + 1))
    D = int(rng.integers(max(1, groups - 1), groups + 3))
    terms = {}
    for mu_j in rng.choice(D + 1, size=groups, replace=False):
        for _ in range(int(rng.integers(1, per_group + 1))):
            nu, mu = (list(map(int, rng.integers(0, 3, size=n))) for _ in "nm")
            nu[j - 1], mu[j - 1] = D - int(mu_j), int(mu_j)
            terms[MixedMonomial(tuple(nu), tuple(mu))] = random_gaussian(rng)
    return MixedPoly(n, terms), j, [i for i in range(1, n + 1) if i != j]


def _shell(rng, f, I):
    """A frozen point: z_I of log-uniform moduli in [e^-1.5, e^1.5], z_j = 0."""
    p = np.zeros(f.n, dtype=complex)
    for i in I:
        p[i - 1] = np.exp(rng.uniform(-1.5, 1.5) + 1j * rng.uniform(0, 2 * np.pi))
    return p


def _exact_groups(f, j, p):
    """{b: c_b(z_I)} at the float point p, as exact Gaussian rationals."""
    z = [GaussianRational(Fraction(x.real), Fraction(x.imag)) for x in p]
    out = {}
    for m, c in f.terms.items():
        value = c
        for i, (zi, a, b) in enumerate(zip(z, m.nu, m.mu), 1):
            if i != j:
                value = repeated_power(zi, a, value)
                value = repeated_power(zi.conjugate(), b, value)
        b = m.nu[j - 1] - m.mu[j - 1]
        out[b] = out[b] + value if b in out else value
    return out


def _stage_a(f, j, p):
    """The exact decision at one shell: a unit w where F vanishes, or None."""
    groups = dg._angular_groups(f, j)
    cs = dg._angular_values(groups, p)
    assert groups is not None and cs is not None
    return dg._unit_zero(groups[0], cs)


class TestShellDecision:
    def test_two_single_term_groups_match_the_closed_form(self):
        # F = b1|c1|^2 + b2|c2|^2 + (b1 + b2)|c1||c2| cos(...) has a zero iff
        # |b1 + b2 rho^2| <= |b1 + b2| rho, rho = |c2 / c1|
        rng = np.random.default_rng(1201)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            f, j, I = _one_free_face(rng, 2, per_group=1)
            p = _shell(rng, f, I)
            (b1, c1), (b2, c2) = sorted(_exact_groups(f, j, p).items())
            rho2 = (c2.re**2 + c2.im**2) / (c1.re**2 + c1.im**2)
            closed = (b1 + b2 * rho2) ** 2 <= (b1 + b2) ** 2 * rho2
            w = _stage_a(f, j, p)
            assert (w is not None) == closed, (f, j, p)
            outcomes[closed] += 1
            if w is not None:
                p[j - 1] = w
                assert dg.criticality_residual_exact(f, p, [j]) < dg.WITNESS_THRESHOLD
        assert min(outcomes.values()) >= 50, outcomes

    def test_matches_a_root_count_oracle(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t", real=True)
        u, ubar = sympy.Poly(1 + sympy.I * t, t), sympy.Poly(1 - sympy.I * t, t)
        rng = np.random.default_rng(1202)
        outcomes = {True: 0, False: 0}
        for _ in range(30):
            f, j, I = _one_free_face(rng, int(rng.integers(1, 5)))
            # z_I on a coarse dyadic grid keeps the oracle's numbers small
            p = np.round(_shell(rng, f, I) * 16) / 16
            groups = {b: sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
                      for b, c in _exact_groups(f, j, p).items()}
            # with e^{i theta} = u / conj(u), t = tan(theta / 2):
            # F (1 + t^2)^2N = Im(conj(H) H') for H = h (u conj(u))^N
            N = max(map(abs, groups))
            terms = [(b, c, u ** (N + b) * ubar ** (N - b), ubar ** (N + b) * u ** (N - b))
                     for b, c in groups.items()]
            H = sum((c * e for b, c, e, _ in terms), sympy.Poly(0, t))
            slope = sum((sympy.I * b * c * e for b, c, e, _ in terms), sympy.Poly(0, t))
            H_bar = sum((sympy.conjugate(c) * e for b, c, _, e in terms), sympy.Poly(0, t))
            slope_bar = sum((-sympy.I * b * sympy.conjugate(c) * e for b, c, _, e in terms), sympy.Poly(0, t))
            F = sympy.Poly(sympy.expand(((H_bar * slope - H * slope_bar) * (-sympy.I / 2)).as_expr()), t)
            at_pi = sum(c * (-1) ** b for b, c in groups.items())
            slope_at_pi = sum(sympy.I * b * c * (-1) ** b for b, c in groups.items())
            oracle = (F.is_zero or F.count_roots() > 0
                      or sympy.im(sympy.conjugate(at_pi) * slope_at_pi) == 0)
            assert (_stage_a(f, j, p) is not None) == oracle, (f, j, p)
            outcomes[bool(oracle)] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_every_witness_rechecks_and_carries_the_label(self, monkeypatch):
        calls = _count_minimize(monkeypatch)
        rng = np.random.default_rng(1203)
        witnesses = 0
        for _ in range(60):
            f, j, I = _one_free_face(rng, int(rng.integers(1, 4)))
            verdict = dg.local_tameness_check(f, I, budget=1, seed=int(rng.integers(1000)))
            for fr in verdict.faces:
                if fr.status is TameStatus.NOT_TAME:
                    assert fr.certified_by in (dg.SIGN_CHANGE_F, "phase-lattice"), f
                if fr.certified_by == dg.SIGN_CHANGE_F:
                    zi, point = fr.witness
                    assert list(zi) == [point[i - 1] for i in I]
                    assert abs(point[j - 1]) == pytest.approx(1)
                    fd = newton.face_function(f, fr.face)
                    assert dg.criticality_residual_exact(fd, point, [j]) < dg.WITNESS_THRESHOLD
                    witnesses += 1
        # every shell was decided exactly
        assert not calls
        assert witnesses >= 10, witnesses

    def test_one_variable_falsifier_is_decided_exactly(self, monkeypatch):
        # nothing is frozen: |1 + 4 e^{2i theta}| = 1 has no solution, and
        # |1 + e^{2i theta}| = 1 has one at theta = pi/3
        calls = _count_minimize(monkeypatch)
        (v,) = dg.falsify_nondegeneracy(parse_poly("|z1|^2 + 2*z1^2"), budget=4)
        assert v.status is NondegStatus.NO_CRITICAL_POINT_FOUND and v.certified_by == dg.SIGN_CHANGE_F
        assert v.residual_stats == dg.NO_SEARCH
        assert dg.nondeg_verdict_to_json(v)["certified_by"] == dg.SIGN_CHANGE_F
        (v,) = dg.falsify_nondegeneracy(parse_poly("|z1|^2 + 1/2*z1^2"), budget=4)
        assert v.status is NondegStatus.CRITICAL_POINT_WITNESS and v.certified_by == dg.SIGN_CHANGE_F
        assert dg.criticality_residual_exact(v.face_function, v.witness) < dg.WITNESS_THRESHOLD
        assert dg.nondeg_verdict_to_json(v)["certified_by"] == dg.SIGN_CHANGE_F
        assert not calls

    def test_tangent_zero_at_pi_and_zero_F(self, monkeypatch):
        calls = _count_minimize(monkeypatch)
        # |z1|^2 + z1^2: F = 2 + 2 cos 2 theta has only double zeros, at
        # theta = pi/2, where G(phi) = 2 + 2 cos phi of phi = 2 theta has
        # its zero at pi
        (v,) = dg.falsify_nondegeneracy(parse_poly("|z1|^2 + z1^2"), budget=4)
        assert v.certified_by == dg.SIGN_CHANGE_F
        assert v.witness[0] == pytest.approx(1j)
        assert dg.criticality_residual_exact(v.face_function, v.witness) < dg.WITNESS_THRESHOLD
        # one group of b = 0: F = 0 at every angle, and the witness takes w = 1
        verdict = dg.local_tameness_check(parse_poly("z1^2*|z2|^2 + z1^3*|z2|^2"), {1}, budget=1)
        assert verdict.status is TameStatus.NOT_TAME
        assert [fr.certified_by for fr in verdict.faces if fr.stats is not None] == [dg.SIGN_CHANGE_F]
        assert verdict.witness[1][1] == 1
        assert not calls

    @pytest.mark.parametrize("argv", [
        ["--corpus", "cone", "--params", "2,3,1,2,1"],
        ["--corpus", "parusinski"],
    ])
    @pytest.mark.parametrize("budget", [[], ["--budget", "1"]], ids=["default", "budget1"])
    def test_pool_tameness_requests_run_no_search(self, monkeypatch, capsys, argv, budget):
        calls = _count_minimize(monkeypatch)
        assert main(["tame", *argv, *budget, "--json"]) == 0
        assert not calls

    def test_caps_send_the_shell_to_the_search(self):
        # terms of two degrees in w, and b = 9, 7, -9: 2M = 18 in units of 2
        # passes MAX_SHELL_DEGREE
        assert dg._angular_groups(parse_poly("z1*z2 + z1*|z2|^2"), 2) is None
        assert dg._angular_groups(parse_poly("z1*z2^9 + z1*z2^8*zb2 + z1*zb2^9"), 2) is None
        # c_b of about 400 * 53 bits: (2M)^2 = 4 times that passes MAX_SHELL_BITS
        f = parse_poly("z1^400*z2 + z1*zb2")
        groups = dg._angular_groups(f, 2)
        assert groups is not None
        assert dg._angular_values(groups, np.array([0.3 + 0.1j, 0])) is None
        # and a c_b that could pass MAX_POWER_BITS is never evaluated
        f = parse_poly(f"z1^{MAX_POWER_BITS}*z2")
        assert dg._angular_values(dg._angular_groups(f, 2), np.array([0.3 + 0.1j, 0])) is None

    def test_decision_at_its_caps_is_bounded(self):
        # a dense F of degree MAX_SHELL_DEGREE whose c_b fill MAX_SHELL_BITS
        rng = np.random.default_rng(1204)
        bits = dg.MAX_SHELL_BITS // dg.MAX_SHELL_DEGREE**2
        bs = list(range(dg.MAX_SHELL_DEGREE // 2 + 1))
        for _ in range(3):
            cs = [tuple(int(x) << (bits - 31) for x in rng.integers(-2**30, 2**30, size=2)) for _ in bs]
            start = time.perf_counter()
            dg._unit_zero(bs, cs)
            assert time.perf_counter() - start < 1.0


# the options _multistart passes at k = 4 (maxiter 400 k)
SEARCH_OPTIONS = {"maxiter": 1600, "xatol": 1e-10, "fatol": 1e-14}


def _oracle_check(fun, x0, bounds, options):
    """degeneracy.minimize and the scipy code it ports agree bit for bit; returns
    the points degeneracy.minimize evaluated, in order."""
    optimize = pytest.importorskip("scipy.optimize")
    seen = []

    def recorded(x):
        seen.append(x)
        return fun(x)

    with np.errstate(all="ignore"):
        ours = dg.minimize(recorded, x0, bounds, **options)
        theirs = optimize.minimize(fun, x0, method="Nelder-Mead", bounds=bounds, options=options)
    assert ours.x.tobytes() == theirs.x.tobytes()
    assert ours.fun == theirs.fun and ours.nfev == theirs.nfev == len(seen)
    return seen


class TestNelderMead:
    def test_minimum_outside_the_box_is_clipped_to_it(self):
        c = np.array([3.0, -4.0, 0.5])
        seen = _oracle_check(lambda x: float(((x - c) ** 2).sum()), [0.2, 0.1, -0.3], [(-1, 1)] * 3, SEARCH_OPTIONS)
        assert max(abs(x).max() for x in seen) == 1.0

    def test_simplex_past_an_upper_bound_is_reflected(self):
        def rosenbrock(x):
            return float((100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2).sum())

        x0 = [2 - 5e-4, 0.5, -0.3, 1.2]
        seen = _oracle_check(rosenbrock, x0, [(-2, 2)] * 4, SEARCH_OPTIONS)
        # 1.05 * x0[0] is past the bound 2, so that vertex starts at 4 - 1.05 * x0[0]
        assert seen[1][0] == 2 * 2 - (1 + 0.05) * x0[0]

    def test_objective_inf_on_half_the_box(self):
        c = np.array([0.5, 0.3])

        def half(x):
            return math.inf if x[0] > 0 else float(((x - c) ** 2).sum())

        seen = _oracle_check(half, [-0.6, 0.4], [(-1, 1)] * 2, SEARCH_OPTIONS)
        assert any(half(x) == math.inf for x in seen)

    def test_guarded_residual_on_the_searched_face(self, monkeypatch):
        starts = []
        real_minimize = dg.minimize

        def recorded(fun, x0, bounds, **options):
            starts.append((fun, x0, bounds, options))
            return real_minimize(fun, x0, bounds, **options)

        monkeypatch.setattr(dg, "minimize", recorded)
        argv = dict(zip(SEARCHED_NONDEG[1::2], SEARCHED_NONDEG[2::2]))
        dg.falsify_nondegeneracy(parse_poly(argv["--poly"]), budget=int(argv["--budget"]), seed=int(argv["--seed"]))
        monkeypatch.undo()
        assert starts
        for fun, x0, bounds, options in starts:
            _oracle_check(fun, x0, bounds, options)

    def test_infinite_simplex_ends_the_start(self):
        k = 3
        res = dg.minimize(lambda x: math.inf, np.ones(2 * k), [(-2, 2)] * (2 * k), **SEARCH_OPTIONS)
        assert res.fun == math.inf and res.nfev == 2 * k + 1
