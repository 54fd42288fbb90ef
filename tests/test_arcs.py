"""Arc expansion, limit tangents, a_f verdicts, and the numeric probes."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_gaussian, random_mixed_poly, random_point, repeated_power
from mixedmilnor import arcs as ar
from mixedmilnor.arcs import Arc, af_test_arc, expand_arc, limit_tangent, parse_arc
from mixedmilnor.constructors import corpus
from mixedmilnor.errors import (
    AllValuesZeroError,
    ArcInsideVarietyError,
    BadArcError,
    BadRequestError,
    DimensionMismatchError,
    NonFiniteValuesError,
    PolySyntaxError,
    SingularFiberError,
    TruncationOverflowError,
)
from mixedmilnor.poly import GaussianRational, MixedPoly, parse_poly


def real_span(vectors):
    """Orthogonal projector onto the real span of complex vectors."""
    cols = [np.concatenate([np.asarray(v).real, np.asarray(v).imag]) for v in vectors]
    A = np.stack(cols, axis=1)
    return A @ np.linalg.pinv(A)


class TestArcParsing:
    def test_example_text(self):
        arc = parse_arc("z1 = (1+0i); z2 = t; z3 = (2+0i)*t^3")
        assert arc.n == 3
        assert arc.jets[0] == ((0, GaussianRational.of(1)),)
        assert arc.jets[1] == ((1, GaussianRational.of(1)),)
        assert arc.jets[2] == ((3, GaussianRational.of(2)),)

    def test_round_trip(self):
        arc = parse_arc("z1 = 1 + 2*t; z2 = (1-1i)*t^2")
        again = parse_arc(arc.to_text())
        assert again == arc

    def test_rational_exponent_normalization(self):
        arc = parse_arc("z1 = t^(3/2); z2 = t")
        assert arc.jets[0][0][0] == 3
        assert arc.jets[1][0][0] == 2

    def test_zero_coordinate(self):
        arc = parse_arc("z2 = t", n=3)
        assert arc.jets[0] == () and arc.jets[2] == ()

    @pytest.mark.parametrize(
        "text, position",
        [("z1 = 1/0; z2 = t", 7), ("z1 = 1; z2 = t^(1/0)", 18), ("z1 = t^1/0", 9)],
    )
    def test_zero_denominator(self, text, position):
        with pytest.raises(PolySyntaxError) as info:
            parse_arc(text)
        assert info.value.position == position
        assert info.value.expected == "a nonzero denominator"

    def test_error_position_is_the_token(self):
        with pytest.raises(PolySyntaxError) as info:
            parse_arc("z1 =   ;")
        assert info.value.position == 7

    def test_index_above_the_cap(self):
        with pytest.raises(PolySyntaxError) as info:
            parse_arc("z1 = t; z3000000 = t^2")
        assert info.value.position == 8
        assert info.value.expected == "variable index in 1..64"

    def test_digit_run_above_the_int_limit(self):
        with pytest.raises(PolySyntaxError) as info:
            parse_arc("z1 = " + "1" * 5000 + "*t; z2 = t")
        assert info.value.position == 5

    def test_evaluate(self):
        arc = parse_arc("z1 = 1 + t; z2 = 2i*t^2")
        p = arc.evaluate(0.5)
        assert p[0] == pytest.approx(1.5)
        assert p[1] == pytest.approx(0.5j)


@st.composite
def arcs(draw):
    """Exact arcs with rational exponents and signed real, imaginary and
    complex coefficients."""
    part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coeff = st.one_of(
        st.sampled_from([GaussianRational.of(-1), GaussianRational.of(0, -1), GaussianRational.of(-2)]),
        st.builds(GaussianRational, part, part).filter(bool),
    )
    exps = st.lists(st.fractions(min_value=0, max_value=5, max_denominator=3), unique=True, max_size=4)
    jets = [tuple((e, draw(coeff)) for e in sorted(draw(exps))) for _ in range(draw(st.integers(1, 3)))]
    return Arc(tuple(jets))


@settings(max_examples=80, deadline=None)
@given(arcs())
@example(parse_arc("z1 = 1 - 2*t; z2 = -i*t^(3/2)"))
def test_arc_text_round_trip_property(arc):
    assert parse_arc(arc.to_text()) == arc


class TestExpandArc:
    def test_brieskorn_leading_exponent(self):
        f = corpus("brieskorn_curve")
        series = expand_arc(f, parse_arc("z1 = t^2; z2 = t^3"))
        assert min(series) == 40

    def test_linear(self):
        series = expand_arc(parse_poly("z1"), parse_arc("z1 = t"))
        assert series == {1: GaussianRational.of(1)}

    def test_tibar_constant_coefficient(self):
        f = corpus("tibar")
        series = expand_arc(f, parse_arc("z1 = (2+1i); z2 = t"))
        assert series == {2: GaussianRational.of(2, 1)}

    def test_pure_monomial_leading_term_is_face_value(self):
        # along z(t) = b * t^P the leading coefficient is the face function
        # of weight P evaluated at b, at exponent d(P)
        from mixedmilnor import newton

        rng = np.random.default_rng(107)
        for _ in range(10):
            f = random_mixed_poly(rng, n=2, max_terms=4, max_exp=3)
            b = [random_gaussian(rng), random_gaussian(rng)]
            P = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            arc = Arc(((  (P[0], b[0]),), ((P[1], b[1]),)))
            d, _, face_poly = newton.delta_of_weight(f, P)
            series = expand_arc(f, arc)
            if not series:
                continue
            lead = min(series)
            value = face_poly.evaluate([complex(b[0]), complex(b[1])])
            if abs(value) > 1e-12:
                assert lead == d
                assert complex(series[lead]) == pytest.approx(value)
            else:
                assert lead > d

    def test_truncation_overflow(self):
        arc = parse_arc("z1 = t", truncation_order=3)
        with pytest.raises(TruncationOverflowError):
            expand_arc(parse_poly("z1"), arc, order=10)

    def test_series_power_matches_repeated_products(self):
        rng = np.random.default_rng(167)
        for _ in range(10):
            exps = sorted({int(k) for k in rng.integers(0, 4, size=int(rng.integers(1, 4)))})
            jet = {k: random_gaussian(rng) for k in exps}
            for trunc in (None, 2, 5):
                for e in range(9):
                    product = repeated_power(jet, e, {0: GaussianRational.of(1)},
                                             lambda a, b: ar._s_mul(a, b, trunc))
                    assert ar._s_pow(jet, e, trunc) == product, (jet, e, trunc)

    def test_jet_powers_are_checked_once(self, monkeypatch):
        checked = []
        real_check = ar._check_power
        monkeypatch.setattr(ar, "_check_power", lambda c, e: checked.append(e) or real_check(c, e))
        f = parse_poly("z1^3*z2 + z1^3*zb2 + z1^3 + zb1^3*z2^2")
        expand_arc(f, parse_arc("z1 = 1 + t; z2 = 2*t"))
        # (z1, 3), (z2, 1) and (z2, 2); z1^3 and zb1^3 share one check
        assert sorted(checked) == [1, 2, 3]


class TestLimitTangent:
    def test_tibar_span_matches_rotated_gradient(self):
        f = corpus("tibar")
        theta = 0.9272952180016122  # atan2(4, 3)
        arc = Arc((((0, GaussianRational.of(Fraction(3, 5), Fraction(4, 5))),), ((1, GaussianRational.of(1)),)))
        limit = limit_tangent(f, arc)
        assert limit.independent
        got = real_span([limit.covector_g, limit.covector_h])
        expected = real_span(
            [
                np.array([0, 1], dtype=complex),
                np.array([np.sin(theta) - 1j * np.cos(theta), 0]),
            ]
        )
        assert np.allclose(got, expected, atol=1e-9)

    def test_parusinski_second_covector(self):
        f = corpus("parusinski")
        limit = limit_tangent(f, parse_arc("z1 = 1; z2 = t; z3 = t^3"))
        vecs = [limit.covector_g, limit.covector_h]
        target = np.array([-1j, 0, 0])
        assert any(
            min(np.linalg.norm(v - target), np.linalg.norm(v + target)) < 1e-9
            for v in vecs
        )

    def test_holomorphic_no_reduction(self):
        rng = np.random.default_rng(109)
        for _ in range(25):
            f = random_mixed_poly(rng, n=2, holomorphic=True)
            if f.total_degree() == 0:
                continue
            arc = parse_arc("z1 = t; z2 = t + t^2")
            try:
                limit = limit_tangent(f, arc)
            except ArcInsideVarietyError:
                continue
            assert limit.reduction_steps == ()
            assert limit.independent

    def test_holomorphic_sum_of_squares(self):
        limit = limit_tangent(parse_poly("z1^2 + z2^2"), parse_arc("z1 = t; z2 = t"))
        u = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(limit.covector_g, u, atol=1e-12)
        assert np.allclose(limit.covector_h, 1j * u, atol=1e-12)

    def test_reduction_fires_and_preserves_span(self):
        f = parse_poly("(1+1i)*|z1|^2 + i*|z2|^4")
        arc = parse_arc("z1 = t; z2 = t")
        limit = limit_tangent(f, arc)
        assert limit.reduction_steps == ((Fraction(1), 0),)
        assert limit.independent
        # re-derive the step: v_h' = v_h - lambda t^shift v_g must reproduce
        # the recorded limit while spanning the same plane pointwise in t
        g, h = f.real_imag_parts()
        t = 0.37
        p = arc.evaluate(t)
        vg = g.gradients(p).d_zbar
        vh = h.gradients(p).d_zbar
        lam, shift = limit.reduction_steps[0]
        vh_prime = vh - float(lam) * t**shift * vg
        assert np.allclose(
            real_span([vg, vh]), real_span([vg, vh_prime]), atol=1e-9
        )

    def test_stability_under_jet_extension(self):
        f = corpus("parusinski")
        base = parse_arc("z1 = 1; z2 = t; z3 = t^3")
        extended = parse_arc("z1 = 1; z2 = t + 3*t^9; z3 = t^3 - t^12")
        a = limit_tangent(f, base)
        b = limit_tangent(f, extended)
        assert np.allclose(a.covector_g, b.covector_g, atol=1e-12)
        assert np.allclose(a.covector_h, b.covector_h, atol=1e-12)

    def test_typed_precondition_errors(self):
        f = corpus("tibar")
        with pytest.raises(BadArcError):
            limit_tangent(f, parse_arc("z2 = 0", n=2))
        with pytest.raises(DimensionMismatchError):
            limit_tangent(f, parse_arc("z1 = t; z3 = t"))

    def test_arc_inside_variety(self):
        with pytest.raises(ArcInsideVarietyError):
            limit_tangent(corpus("fig1"), parse_arc("z3 = t", n=3))

    def test_real_valued_collapse(self):
        f = parse_poly("|z1|^2 + |z2|^2")
        limit = limit_tangent(f, parse_arc("z1 = t; z2 = t"))
        assert limit.independent is False

    def test_limit_matches_numeric_tangent_spans(self):
        # the real span of the gradient pair at small t must converge to
        # the span of the computed limit covectors
        cases = [
            (corpus("tibar"), "z1 = 1; z2 = t"),
            (corpus("parusinski"), "z1 = 1; z2 = t; z3 = t^3"),
            (parse_poly("(1+1i)*|z1|^2 + i*|z2|^4"), "z1 = t; z2 = t"),
            (corpus("cyclic", (2, 2, 2)), "z1 = t; z2 = t^2; z3 = 1"),
        ]
        for f, arctext in cases:
            arc = parse_arc(arctext, n=f.n)
            limit = limit_tangent(f, arc)
            target = real_span([limit.covector_g, limit.covector_h])
            g, h = f.real_imag_parts()
            errors = []
            for t in (1e-2, 1e-3, 1e-4):
                p = arc.evaluate(t)
                vg = g.gradients(p).d_zbar
                vh = h.gradients(p).d_zbar
                errors.append(np.linalg.norm(real_span([vg, vh]) - target))
            assert errors[-1] < 1e-3, arctext
            # decreasing once above float-noise level
            assert errors[2] <= errors[0] + 1e-6, arctext

    def test_gradient_series_match_real_imag_parts(self):
        # the covector series come from f's own derivatives; the reference
        # substitutes the derivatives of g = Re f and h = Im f
        rng = np.random.default_rng(2024)
        nonzero = 0
        for case in range(240):
            f = random_mixed_poly(rng, max_terms=4)
            jets = []
            for _ in range(f.n):
                exps = sorted({int(e) for e in rng.integers(0, 4, size=int(rng.integers(0, 3)))})
                jets.append(tuple((e, random_gaussian(rng)) for e in exps))
            trunc = None if case % 2 else int(rng.integers(0, 6))
            arc = Arc(tuple(jets), truncation_order=trunc)
            g, h = f.real_imag_parts()
            reference = tuple(
                [ar._substitute(part.wirtinger(j, "zbar"), arc, trunc) for j in range(1, f.n + 1)]
                for part in (g, h)
            )
            assert ar._gradient_series(f, arc, trunc) == reference
            nonzero += all(any(s) for s in reference)
        assert nonzero >= 50

    def test_truncation_exhausted(self):
        from mixedmilnor.errors import TruncationExhaustedError

        # the elimination pushes the second covector's order past the
        # declared truncation budget of the arc
        f = parse_poly("(1+1i)*|z1|^2 + i*|z2|^4")
        arc = parse_arc("z1 = t; z2 = t", truncation_order=2)
        with pytest.raises(TruncationExhaustedError):
            limit_tangent(f, arc)


class TestAfTest:
    def test_tibar_fails_along_axis(self):
        verdict = af_test_arc(corpus("tibar"), parse_arc("z1 = 1; z2 = t"), {1})
        assert verdict.contains_CI is False

    def test_parusinski_fails_along_axis(self):
        verdict = af_test_arc(
            corpus("parusinski"), parse_arc("z1 = 1; z2 = t; z3 = t^3"), {1}
        )
        assert verdict.contains_CI is False

    def test_cyclic_random_arc_battery(self):
        rng = np.random.default_rng(113)
        f = corpus("cyclic", (2, 2, 2))
        checked = 0
        for _ in range(100):
            axis = int(rng.integers(1, 4))
            jets = []
            for j in range(1, 4):
                if j == axis:
                    jets.append(((0, random_gaussian(rng)),))
                else:
                    p = int(rng.integers(1, 6))
                    jet = [(p, random_gaussian(rng))]
                    if rng.integers(2):
                        jet.append((p + int(rng.integers(1, 4)), random_gaussian(rng)))
                    jets.append(tuple(jet))
            arc = Arc(tuple(jets))
            try:
                verdict = af_test_arc(f, arc, {axis})
            except ArcInsideVarietyError:
                continue
            checked += 1
            assert verdict.contains_CI is True, arc.to_text()
        assert checked >= 90

    def test_precondition_validation(self):
        f = corpus("tibar")
        with pytest.raises(ValueError):
            af_test_arc(f, parse_arc("z1 = t; z2 = t"), {1})
        with pytest.raises(ValueError):
            af_test_arc(f, parse_arc("z1 = 1; z2 = 1 + t"), {1})

    def test_stratum_violation_is_typed(self):
        with pytest.raises(BadArcError):
            af_test_arc(corpus("tibar"), parse_arc("z1 = 1; z2 = 1"), {1})


class TestTransversality:
    def test_hyperplane_tangency(self):
        f = parse_poly("z1", n=2)
        assert ar.transversality_residual(f, [0.8, 0]) < 1e-12

    def test_gram_determinant_crosscheck(self):
        rng = np.random.default_rng(127)
        checked = 0
        while checked < 25:
            f = random_mixed_poly(rng, n=2, max_exp=2)
            p = random_point(rng, 2)
            try:
                res = ar.transversality_residual(f, p)
            except SingularFiberError:
                continue
            checked += 1
            g, h = f.real_imag_parts()
            bg = g.gradients(p).d_zbar
            bh = h.gradients(p).d_zbar
            # distance from the real span via the bordered Gram determinant
            basis = [
                np.concatenate([b.real, b.imag]) for b in (bg, bh)
            ]
            t = np.concatenate([np.asarray(p).real, np.asarray(p).imag])
            A = np.stack(basis, axis=1)
            proj = A @ np.linalg.pinv(A) @ t
            expected = np.linalg.norm(t - proj) / np.linalg.norm(t)
            assert res == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_singular_fiber_raises(self):
        k = parse_poly("|z1|^2 - |z2|^2")
        with pytest.raises(SingularFiberError):
            ar.transversality_residual(k, [1.0, 1.0])

    def test_one_gradient_evaluation_per_block(self, monkeypatch):
        # each block of draws that keeps a point scores its kept points with
        # one batched gradients call, and only the points the report counts
        calls, kept = [], []
        gradients, evaluate_many = MixedPoly.gradients, MixedPoly.evaluate_many

        def counted(poly, p):
            calls.append(len(p))
            return gradients(poly, p)

        def screened(poly, pts):
            vals = evaluate_many(poly, pts)
            kept.append(np.count_nonzero(np.abs(vals) <= 1e-3))
            return vals

        monkeypatch.setattr(MixedPoly, "gradients", counted)
        monkeypatch.setattr(MixedPoly, "evaluate_many", screened)
        report = ar.transversality_scan(corpus("tibar"), samples=20, delta=1e-3, seed=3)
        assert len(kept) > 1
        assert len(calls) == np.count_nonzero(kept)
        assert sum(calls) == report.accepted + report.skipped_singular == 20

    @staticmethod
    def one_block_scan(f, delta, samples, seed):
        """The scan as one 200,000-point block scored point by point."""
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(200_000, 2 * f.n))
        pts = block[:, : f.n] + 1j * block[:, f.n :]
        pts = pts / np.linalg.norm(pts, axis=1)[:, None]
        residuals, skipped = [], 0
        for p in pts[np.abs(f.evaluate_many(pts)) <= delta]:
            if len(residuals) == samples:
                break
            try:
                residuals.append(ar.transversality_residual(f, p))
            except SingularFiberError:
                skipped += 1
        assert len(residuals) == samples
        return residuals, skipped

    @pytest.mark.parametrize(
        "f, delta, samples",
        [
            (corpus("tibar"), 1e-3, 40),
            (corpus("fig1"), 1e-2, 40),
            (corpus("parusinski"), 1e-2, 200),
            # numerically singular along much of its zero set
            (parse_poly("|z1|^2 - |z2|^2 + 2/1000000*z1", n=2), 1e-2, 40),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_blocks_and_batches_match_one_block_point_by_point(self, f, delta, samples, seed):
        residuals, skipped = self.one_block_scan(f, delta, samples, seed)
        report = ar.transversality_scan(f, delta=delta, samples=samples, seed=seed)
        assert (report.accepted, report.skipped_singular) == (samples, skipped)
        assert report.samples_drawn < 200_000
        assert report.min_residual == pytest.approx(min(residuals), rel=1e-12)
        assert report.mean_residual == pytest.approx(sum(residuals) / samples, rel=1e-12)

    def test_batch_size_does_not_change_the_report(self, monkeypatch):
        f = parse_poly("|z1|^2 - |z2|^2 + 2/1000000*z1", n=2)
        batched = ar.transversality_scan(f, delta=1e-2, samples=40, seed=7)
        monkeypatch.setattr(ar, "SCORE_ENTRIES", 1)  # one point per batch
        assert ar.transversality_scan(f, delta=1e-2, samples=40, seed=7) == batched
        assert batched.skipped_singular > 0

    def test_batch_skips_the_singular_rows_of_a_mixed_point_set(self):
        rng = np.random.default_rng(131)
        f = corpus("tibar")
        pts = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        pts[::3, 1] = 0  # both gradients vanish where z2 = 0
        singular = 0
        for p, res in zip(pts, ar._transversality_residuals(f, pts)):
            try:
                assert res == pytest.approx(ar.transversality_residual(f, p), rel=1e-12)
            except SingularFiberError:
                assert np.isnan(res)
                singular += 1
        assert singular == np.count_nonzero(np.isnan(ar._transversality_residuals(f, pts))) == 4

    def test_tiny_radius_is_not_singular(self, monkeypatch):
        # at radius 1e-60 the squared gradient norms underflow; every draw
        # was skipped as singular until the draw cap
        monkeypatch.setattr(ar, "MAX_DRAWS", 400_000)
        report = ar.transversality_scan(corpus("tibar"), radius=1e-60, samples=5, seed=0)
        assert (report.accepted, report.skipped_singular) == (5, 0)
        big = ar.transversality_scan(corpus("tibar"), radius=1.0, delta=1.0, samples=5, seed=0)
        assert report.min_residual == pytest.approx(big.min_residual, rel=1e-9)

    @pytest.mark.parametrize(
        "radius, error", [(1e200, NonFiniteValuesError), (1e-200, AllValuesZeroError)]
    )
    def test_values_out_of_float_range(self, monkeypatch, radius, error):
        monkeypatch.setattr(ar, "MAX_DRAWS", 400_000)
        with pytest.raises(error):
            ar.transversality_scan(corpus("tibar"), radius=radius, samples=5)

    def test_nothing_accepted_has_no_statistics(self, monkeypatch):
        monkeypatch.setattr(ar, "MAX_DRAWS", 200_000)
        report = ar.transversality_scan(corpus("tibar"), delta=1e-300, samples=5)
        # the last block is cut to the draw cap
        assert (report.samples_drawn, report.accepted) == (200_000, 0)
        assert report.min_residual is None and report.mean_residual is None

    def test_scan_runs_deterministically(self):
        f = corpus("tibar")
        a = ar.transversality_scan(f, samples=50, delta=1e-2, seed=3)
        b = ar.transversality_scan(f, samples=50, delta=1e-2, seed=3)
        assert a == b
        assert a.accepted == 50
        assert a.min_residual > 0.5


class TestOpenness:
    def test_tibar_sector(self):
        rep = ar.boundary_openness_probe(corpus("tibar"), [1, 0], 0.1, seed=0)
        assert rep.arg_coverage < 1
        assert rep.sector_halfwidth == pytest.approx(0.1, rel=0.1)

    def test_holomorphic_full_coverage(self):
        rep = ar.boundary_openness_probe(parse_poly("z1*z2"), [1, 0], 0.05, seed=0)
        assert rep.arg_coverage == 1.0
        assert rep.sector_halfwidth is None

    def test_monotone_in_epsilon(self):
        f = corpus("tibar")
        values = [
            ar.boundary_openness_probe(f, [1, 0], eps, seed=0).arg_coverage
            for eps in (0.05, 0.1, 0.2)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_all_values_zero(self):
        with pytest.raises(AllValuesZeroError):
            ar.boundary_openness_probe(MixedPoly.zero(2), [0, 0], 0.1, samples=100)

    def test_samples_above_one_block_are_refused(self):
        f = corpus("tibar")
        rep = ar.boundary_openness_probe(f, [1, 0], 0.1, samples=ar.MAX_BLOCK, seed=0)
        assert rep.nonzero_samples == ar.MAX_BLOCK
        for samples in (ar.MAX_BLOCK + 1, 10**15):
            with pytest.raises(BadRequestError, match="at most 200000"):
                ar.boundary_openness_probe(f, [1, 0], 0.1, samples=samples)

    def test_cone_not_open(self):
        f = corpus("cone", (2, 3, 1, 1, 1))
        p = [1.0, 1.0, np.sqrt(2)]
        rep = ar.boundary_openness_probe(f, p, 0.1, seed=0)
        assert rep.arg_coverage < 1
